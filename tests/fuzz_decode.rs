//! Hostile-input fuzzing of every parser that faces the wire.
//!
//! A Grid runtime's decoders sit downstream of WAN links, fault injection
//! and (in the differential harness) replayed schedule files — all of
//! which can hand them garbage.  The contract is uniform: a structured
//! error (`WireError`, `None`, `Err(String)`), never a panic, never an
//! attacker-controlled allocation.  Five byte surfaces are fuzzed here:
//! `Envelope::decode`, the payload codec's count-prefixed array readers,
//! the VMI reliable-frame parser, the mdo-net length-prefixed record
//! reader (the bytes a TCP peer actually controls), and the
//! `schedule.json` reader used by `mdo-check --replay`.

use gridmdo::net::record::{
    decode_control_body, decode_data_body, encode_control_record, encode_data_record, read_record, Clock,
    ClockEstimate, Handshake, RecordError, DATA_BODY_MIN, DATA_HOLD_AT, HANDSHAKE_LEN,
    KIND_CONTROL as NET_KIND_CONTROL, KIND_DATA as NET_KIND_DATA, MAX_HOLD, MAX_RECORD_LEN, RECORD_HEADER_LEN,
};
use gridmdo::netsim::Pe;
use gridmdo::runtime::checkpoint::{ArraySnapshot, Snapshot};
use gridmdo::runtime::envelope::{Envelope, MsgBody};
use gridmdo::runtime::ids::{ArrayId, ElemId, EntryId, ObjKey};
use gridmdo::runtime::wire::WireReader;
use gridmdo::vmi::reliable::{
    apply_grant, decode_ack_ext, decode_frame, encode_ack, encode_data, AckExt, CreditState, CREDIT_EXT_LEN,
    HEADER_LEN, HELD_EXT_LEN, KIND_ACK, KIND_DATA,
};
use mdo_check::ScheduleFile;
use proptest::prelude::*;
use std::time::{Duration, Instant};

proptest! {
    /// Arbitrary bytes into `Envelope::decode`: a structured `WireError`
    /// or a well-formed envelope whose re-encoding decodes again — never
    /// a panic, never a bottomless allocation from a lying length prefix.
    #[test]
    fn envelope_decode_survives_arbitrary_bytes(buf in prop::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(env) = Envelope::decode(&buf) {
            let re = env.encode();
            prop_assert!(Envelope::decode(&re).is_ok(), "accepted envelope must re-encode decodably");
        }
    }

    /// Single-byte corruption and truncation of *valid* envelopes — the
    /// realistic mangling a WAN applies — also never panics.
    #[test]
    fn envelope_decode_survives_mutated_valid_frames(
        src in 0u32..64, dst in 0u32..64, prio in any::<i32>(),
        array in 0u32..8, elem in 0u32..4096, entry in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        flip_pos in any::<proptest::sample::Index>(),
        flip_bits in 1u8..=255,
        cut in any::<proptest::sample::Index>())
    {
        let env = Envelope {
            src: Pe(src),
            dst: Pe(dst),
            priority: prio,
            sent_at_ns: 77,
            body: MsgBody::App {
                target: ObjKey::new(ArrayId(array), ElemId(elem)),
                entry: EntryId(entry),
                payload: payload.into(),
            },
        };
        let good = env.encode();
        prop_assert!(Envelope::decode(&good).is_ok());

        let mut flipped = good.clone();
        let at = flip_pos.index(flipped.len());
        flipped[at] ^= flip_bits;
        let _ = Envelope::decode(&flipped); // Ok or Err, must not panic.

        let truncated = &good[..cut.index(good.len() + 1)];
        if truncated.len() < good.len() {
            prop_assert!(Envelope::decode(truncated).is_err(), "truncation must be rejected");
        }
    }

    /// Arbitrary bytes into the payload codec's array readers (what an
    /// application handler points at a message body): a `WireError`, or
    /// values that account for exactly the bytes consumed — never a panic,
    /// and never more values than the input has bytes for, whatever the
    /// count prefix claims.
    #[test]
    fn wire_array_readers_survive_arbitrary_bytes(buf in prop::collection::vec(any::<u8>(), 0..256),
                                                   claim in any::<u32>()) {
        // Once as drawn, once behind a count prefix that is free to lie.
        let mut lying = claim.to_le_bytes().to_vec();
        lying.extend_from_slice(&buf);
        for input in [&buf, &lying] {
            let mut r = WireReader::new(input);
            if let Ok(v) = r.f64_triples() {
                prop_assert_eq!(r.pos(), 4 + 24 * v.len());
            }
            let mut r = WireReader::new(input);
            if let Ok(v) = r.f64_vec() {
                prop_assert_eq!(r.pos(), 4 + 8 * v.len());
            }
            let mut r = WireReader::new(input);
            if let Ok(v) = r.u32_vec() {
                prop_assert_eq!(r.pos(), 4 + 4 * v.len());
            }
        }
        if claim as usize * 8 > buf.len() {
            prop_assert!(WireReader::new(&lying).f64_triples().is_err(), "a count past the input is refused");
        }
    }

    /// Arbitrary bytes into the VMI reliable-frame parser: `None`, or a
    /// frame whose parts exactly tile the input.
    #[test]
    fn vmi_frame_decode_survives_arbitrary_bytes(buf in prop::collection::vec(any::<u8>(), 0..256)) {
        match decode_frame(&buf) {
            None => {
                prop_assert!(buf.len() < HEADER_LEN || (buf[0] != KIND_DATA && buf[0] != KIND_ACK));
            }
            Some((kind, _num, rest)) => {
                prop_assert!(kind == KIND_DATA || kind == KIND_ACK);
                prop_assert_eq!(rest.len(), buf.len() - HEADER_LEN);
            }
        }
    }

    /// The VMI frame codec round-trips, and every proper prefix of a
    /// valid frame shorter than the header is rejected.
    #[test]
    fn vmi_frame_roundtrip_and_truncation(seq in any::<u64>(),
                                          payload in prop::collection::vec(any::<u8>(), 0..64),
                                          cut in 0usize..HEADER_LEN) {
        let data = encode_data(seq, &payload);
        let (kind, num, rest) = decode_frame(&data).expect("data frame parses");
        prop_assert_eq!(kind, KIND_DATA);
        prop_assert_eq!(num, seq);
        prop_assert_eq!(rest, &payload[..]);
        prop_assert!(decode_frame(&data[..cut]).is_none());

        let ack = encode_ack(seq, None, None);
        let (kind, num, rest) = decode_frame(&ack).expect("ack frame parses");
        prop_assert_eq!(kind, KIND_ACK);
        prop_assert_eq!(num, seq);
        prop_assert!(rest.is_empty());
    }

    /// Arbitrary bytes into the ack-extension parser — the surface a
    /// hostile peer reaches by appending garbage to an ack frame.  Empty
    /// is a plain ack; [`HELD_EXT_LEN`] bytes the frame it names, that
    /// plus [`CREDIT_EXT_LEN`] the named frame and a grant (0, 8 or 16
    /// bytes); any other length is a structured [`CreditError`] — never a
    /// panic.
    #[test]
    fn credit_ext_decode_survives_arbitrary_bytes(buf in prop::collection::vec(any::<u8>(), 0..64)) {
        let lengths = [0, HELD_EXT_LEN, HELD_EXT_LEN + CREDIT_EXT_LEN];
        prop_assert_eq!(lengths, [0, 8, 16]);
        match decode_ack_ext(&buf) {
            Ok(ext) => {
                prop_assert!(lengths.contains(&buf.len()));
                // A parsed extension re-encodes to the same bytes, unless
                // it was a lone "none" (0), which the encoder leaves out.
                let ack = encode_ack(9, ext.held, ext.grant);
                prop_assert_eq!(decode_ack_ext(&ack[HEADER_LEN..]), Ok(ext));
                let lone_none = ext.held.is_none() && buf.len() == HELD_EXT_LEN;
                if !lone_none {
                    prop_assert_eq!(&ack[HEADER_LEN..], &buf[..]);
                }
            }
            Err(e) => {
                prop_assert!(!lengths.contains(&buf.len()));
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// An ack naming a held frame (or none) and carrying a grant
    /// round-trips through the frame parser and the extension parser field
    /// for field, as 16 extension bytes whether it names a frame or not.
    #[test]
    fn ack_credit_roundtrip(cum in any::<u64>(), seq in any::<u64>(), grant in any::<u64>()) {
        let held = Some(seq).filter(|&seq| seq != 0); // 0 is the "none" on the wire
        let ack = encode_ack(cum, held, Some(grant));
        let (kind, num, ext) = decode_frame(&ack).expect("credit ack parses");
        prop_assert_eq!(kind, KIND_ACK);
        prop_assert_eq!(num, cum);
        prop_assert_eq!(ext.len(), HELD_EXT_LEN + CREDIT_EXT_LEN);
        prop_assert_eq!(decode_ack_ext(ext).expect("well-formed extension"), AckExt { held, grant: Some(grant) });
    }

    /// Hostile grants against live sender-side credit state: `u64::MAX`
    /// windows are clamped to the configured window, and no input drives
    /// the available balance negative or past the window.
    #[test]
    fn hostile_grants_never_panic_and_never_overrun_the_window(
        window in 1u64..1_000_000,
        in_flight in 0u64..2_000_000,
        grant in any::<u64>())
    {
        let mut state = CreditState { granted: window, in_flight };
        apply_grant(&mut state, grant, window);
        prop_assert_eq!(state.granted, grant.min(window)); // an overflowing grant is clamped
        prop_assert!(state.available(window) <= window, "balance never exceeds the window");
        prop_assert_eq!(state.in_flight, in_flight);
    }

    /// Arbitrary bytes into the versioned snapshot decoder — the surface
    /// a restart (and an elastic rejoin) trusts its whole state to.  A
    /// structured `WireError`, or an accepted blob that re-encodes; the
    /// trailing CRC makes a random accept astronomically unlikely, but if
    /// one happens it must still round-trip.
    #[test]
    fn snapshot_decode_survives_arbitrary_bytes(buf in prop::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(snap) = Snapshot::decode(&buf) {
            let re = snap.encode();
            prop_assert!(Snapshot::decode(&re).is_ok(), "accepted snapshot must re-encode decodably");
        }
    }

    /// Corruption and truncation of *valid* snapshots: any bit flip or
    /// cut must fail the checksum (or a structural check) — restoring
    /// garbage state onto a rejoining PE is never an option.
    #[test]
    fn snapshot_decode_rejects_every_mutation_of_a_valid_blob(
        red_next in any::<u32>(),
        elems in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 0..8),
        flip_pos in any::<proptest::sample::Index>(),
        flip_bits in 1u8..=255,
        cut in any::<proptest::sample::Index>())
    {
        let snap = Snapshot { arrays: vec![ArraySnapshot { array: ArrayId(0), elems, red_next }] };
        let good = snap.encode();
        let back = Snapshot::decode(&good).expect("valid snapshot decodes");
        prop_assert_eq!(back.total_elems(), snap.total_elems());

        let mut flipped = good.clone();
        let at = flip_pos.index(flipped.len());
        flipped[at] ^= flip_bits;
        prop_assert!(Snapshot::decode(&flipped).is_err(), "the CRC catches every single-byte flip");

        let truncated = &good[..cut.index(good.len() + 1)];
        if truncated.len() < good.len() {
            prop_assert!(Snapshot::decode(truncated).is_err(), "truncation must be rejected");
        }
    }

    /// The join/recovery handshake rides on `BuddyStore` envelopes —
    /// checkpoint pieces carrying packed object state across the wire.
    /// Mangle valid ones: decode must return a verdict, never panic, and
    /// an intact frame must round-trip field-for-field.
    #[test]
    fn buddy_piece_envelope_survives_mutation(
        epoch in any::<u32>(), owner in 0u32..64, lb_round in any::<u32>(),
        states in prop::collection::vec(
            ((0u32..4, 0u32..256), prop::collection::vec(any::<u8>(), 0..48)), 0..6),
        red_next in prop::collection::vec(any::<u32>(), 0..4),
        flip_pos in any::<proptest::sample::Index>(),
        flip_bits in 1u8..=255,
        cut in any::<proptest::sample::Index>())
    {
        let states: Vec<(ObjKey, _)> = states
            .into_iter()
            .map(|((array, elem), bytes)| (ObjKey::new(ArrayId(array), ElemId(elem)), bytes.into()))
            .collect();
        let env = Envelope {
            src: Pe(owner),
            dst: Pe((owner + 1) % 64),
            priority: 0,
            sent_at_ns: 5,
            body: MsgBody::BuddyStore { epoch, owner: Pe(owner), lb_round, states: states.clone(), red_next },
        };
        let good = env.encode();
        match Envelope::decode(&good).expect("valid buddy piece decodes").body {
            MsgBody::BuddyStore { epoch: e, owner: o, states: s, .. } => {
                prop_assert_eq!(e, epoch);
                prop_assert_eq!(o, Pe(owner));
                prop_assert_eq!(s, states);
            }
            other => prop_assert!(false, "wrong body: {other:?}"),
        }

        let mut flipped = good.clone();
        let at = flip_pos.index(flipped.len());
        flipped[at] ^= flip_bits;
        let _ = Envelope::decode(&flipped); // Ok or Err, must not panic.

        let truncated = &good[..cut.index(good.len() + 1)];
        if truncated.len() < good.len() {
            prop_assert!(Envelope::decode(truncated).is_err(), "truncation must be rejected");
        }
    }

    /// The tree-collective paths put `Multi` (gateway re-split
    /// multicasts) and `ReduceUp` (gateway partial-combines) on the
    /// wide-area wire, so both bodies face hostile bytes.  Valid frames
    /// must round-trip byte-for-byte; any single-byte flip or truncation
    /// must yield a structured verdict, never a panic.
    #[test]
    fn tree_collective_envelopes_survive_mutation(
        array in 0u32..8, entry in any::<u16>(),
        elems in prop::collection::vec(0u32..4096, 1..32),
        payload in prop::collection::vec(any::<u8>(), 0..64),
        seq in any::<u32>(), count in any::<u64>(),
        values in prop::collection::vec(any::<f64>(), 0..16),
        flip_pos in any::<proptest::sample::Index>(),
        flip_bits in 1u8..=255,
        cut in any::<proptest::sample::Index>())
    {
        use gridmdo::runtime::envelope::{ReduceData, ReduceOp};
        use gridmdo::runtime::reduction::ExactSum;
        let multi = Envelope {
            src: Pe(0),
            dst: Pe(1),
            priority: -5,
            sent_at_ns: 9,
            body: MsgBody::Multi {
                array: ArrayId(array),
                elems: elems.iter().map(|&e| ElemId(e)).collect(),
                entry: EntryId(entry),
                payload: payload.clone().into(),
            },
        };
        let reduce = Envelope {
            src: Pe(3),
            dst: Pe(0),
            priority: 0,
            sent_at_ns: 11,
            body: MsgBody::ReduceUp {
                array: ArrayId(array),
                seq,
                op: ReduceOp::SumF64,
                count,
                data: ReduceData::F64(values.clone()),
            },
        };
        // The exact partial a SumF64 reduction sends: flags, then a limb
        // range, read from the wire.
        let exact = Envelope {
            body: MsgBody::ReduceUp {
                array: ArrayId(array),
                seq,
                op: ReduceOp::SumF64,
                count,
                data: ReduceData::Exact(values.iter().map(|&v| ExactSum::new(v)).collect()),
            },
            ..reduce.clone()
        };
        for env in [multi, reduce, exact] {
            let good = env.encode();
            let back = Envelope::decode(&good).expect("valid collective envelope decodes");
            prop_assert_eq!(back.encode(), good.clone());

            let mut flipped = good.clone();
            let at = flip_pos.index(flipped.len());
            flipped[at] ^= flip_bits;
            let _ = Envelope::decode(&flipped); // Ok or Err, must not panic.

            let truncated = &good[..cut.index(good.len() + 1)];
            if truncated.len() < good.len() {
                prop_assert!(Envelope::decode(truncated).is_err(), "truncation must be rejected");
            }
        }
    }

    /// Arbitrary text into the `schedule.json` reader (which drags the
    /// whole `mdo-obs` JSON parser along): a structured `Err(String)` or
    /// a file that serializes back and re-parses — never a panic.
    #[test]
    fn schedule_json_parser_survives_arbitrary_text(text in ".{0,120}") {
        if let Ok(file) = ScheduleFile::from_json(&text) {
            let re = file.to_json();
            prop_assert_eq!(ScheduleFile::from_json(&re).expect("round trip"), file);
        }
    }

    /// Corrupted but JSON-shaped schedule files: splice arbitrary bytes
    /// into a valid serialization and require a structured verdict.
    #[test]
    fn schedule_json_parser_survives_mutations(seed in any::<u64>(),
                                               pe in 0u32..16, eligible in 1u32..8,
                                               splice in any::<proptest::sample::Index>(),
                                               junk in ".{1,8}") {
        let mut trace = gridmdo::runtime::ScheduleTrace::default();
        trace.choices.push(gridmdo::runtime::ScheduleChoice { pe, eligible, chosen: eligible - 1 });
        let good = ScheduleFile { app: "probe".into(), seed, trace }.to_json();
        prop_assert!(ScheduleFile::from_json(&good).is_ok());

        let mut mangled = good.clone();
        mangled.insert_str(splice.index(good.len() + 1), &junk);
        let _ = ScheduleFile::from_json(&mangled); // Ok or Err(String), must not panic.
    }

    // ---- mdo-net: the bytes a TCP peer controls ------------------------

    /// Arbitrary bytes into the net record reader: clean EOF only on an
    /// empty stream, otherwise a well-formed record or a structured
    /// `RecordError` — never a panic, and a lying length prefix beyond
    /// [`MAX_RECORD_LEN`] is rejected before any allocation.
    #[test]
    fn net_record_reader_survives_arbitrary_bytes(buf in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut r = &buf[..];
        match read_record(&mut r) {
            Ok(None) => prop_assert!(buf.is_empty(), "clean EOF only at a record boundary"),
            Ok(Some((kind, body))) => {
                prop_assert!(kind == NET_KIND_DATA || kind == NET_KIND_CONTROL);
                prop_assert_eq!(body.len() + RECORD_HEADER_LEN, buf.len() - r.len());
            }
            Err(e) => prop_assert!(!e.to_string().is_empty(), "errors are structured"),
        }
    }

    /// Truncation, oversize and kind corruption of *valid* frames — the
    /// manglings a broken or hostile peer actually produces.  Every cut
    /// short of the full frame is a structured truncation error; a length
    /// prefix past the cap is `Oversized`; a corrupt kind byte is
    /// `UnknownKind`.
    #[test]
    fn net_record_truncation_and_oversize_are_structured(
        src in 0u32..64, dst in 0u32..64, prio in any::<i32>(),
        payload in prop::collection::vec(any::<u8>(), 0..96),
        cut in any::<proptest::sample::Index>(),
        oversize in (MAX_RECORD_LEN + 1)..=u32::MAX,
        bad_kind in 2u8..=255)
    {
        let pkt = gridmdo::vmi::Packet::with_priority(Pe(src), Pe(dst), prio, payload.clone().into());
        let mut frame = Vec::new();
        encode_data_record(&pkt, 0, &mut frame);

        // Whole frame parses back to the same packet.
        let (kind, body) = read_record(&mut &frame[..]).expect("valid frame").expect("one record");
        prop_assert_eq!(kind, NET_KIND_DATA);
        let back = decode_data_body(body, &Clock::start(), Instant::now()).expect("valid body");
        prop_assert_eq!(back.src, Pe(src));
        prop_assert_eq!(back.dst, Pe(dst));
        prop_assert_eq!(&back.payload[..], &payload[..]);

        // Any strict prefix is a structured truncation (or EOF at zero).
        let at = cut.index(frame.len());
        match read_record(&mut &frame[..at]) {
            Ok(None) => prop_assert_eq!(at, 0),
            Err(RecordError::TruncatedHeader { got }) => prop_assert!(got > 0 && got < RECORD_HEADER_LEN),
            Err(RecordError::TruncatedBody { want }) => prop_assert_eq!(want as usize, frame.len() - RECORD_HEADER_LEN),
            other => prop_assert!(false, "truncation must be structured, got {other:?}"),
        }

        // A length prefix past the cap is rejected up front.
        let mut big = frame.clone();
        big[1..RECORD_HEADER_LEN].copy_from_slice(&oversize.to_le_bytes());
        prop_assert_eq!(read_record(&mut &big[..]), Err(RecordError::Oversized { len: oversize }));

        // A corrupt kind byte is rejected by name.
        let mut wrong = frame.clone();
        wrong[0] = bad_kind;
        prop_assert_eq!(read_record(&mut &wrong[..]), Err(RecordError::UnknownKind(bad_kind)));
    }

    /// Arbitrary record bodies into the data/control body decoders: a
    /// packet / control pair or a structured error, never a panic.  Too
    /// short for the fixed header is rejected by name; so is a `due`
    /// (arbitrary bytes nearly always spell one) more than the one-hour cap
    /// past the arrival, whatever the receiver's clock reads then — and
    /// with the field zeroed, in range or already passed the same bytes
    /// decode: to no hold, to that very `due`, to the arrival.
    #[test]
    fn net_record_bodies_survive_arbitrary_bytes(body in prop::collection::vec(any::<u8>(), 0..128),
                                                 uptime_ns in 0..864_000_000_000_000u64,
                                                 hold_ns in 0..=MAX_HOLD.as_nanos() as u64,
                                                 late_ns in any::<u64>()) {
        let clock = Clock::start();
        let arrival = Instant::now() + Duration::from_nanos(uptime_ns);
        let now_ns = clock.ns_at(arrival);
        let due_of = |b: &[u8]| u64::from_le_bytes(b[DATA_HOLD_AT..DATA_BODY_MIN].try_into().expect("8 bytes"));
        match decode_data_body(body.clone(), &clock, arrival) {
            Ok(pkt) => {
                prop_assert_eq!(pkt.payload.len() + DATA_BODY_MIN, body.len());
                let ahead = due_of(&body).saturating_sub(now_ns);
                prop_assert!(ahead <= MAX_HOLD.as_nanos() as u64);
                prop_assert_eq!(pkt.due, (due_of(&body) > 0).then(|| arrival + Duration::from_nanos(ahead)));
            }
            Err(RecordError::ShortDataBody { len }) => prop_assert_eq!(len, body.len()),
            Err(RecordError::HoldOutOfRange { nanos }) => {
                prop_assert_eq!(nanos, due_of(&body) - now_ns);
                prop_assert!(Duration::from_nanos(nanos) > MAX_HOLD);
            }
            Err(other) => prop_assert!(false, "unexpected data-body error {other:?}"),
        }
        if body.len() >= DATA_BODY_MIN {
            let with_due = |due_ns: u64| {
                let mut held = body.clone();
                held[DATA_HOLD_AT..DATA_BODY_MIN].copy_from_slice(&due_ns.to_le_bytes());
                decode_data_body(held, &clock, arrival)
            };
            let pkt = with_due(now_ns + hold_ns).expect("a due within the cap decodes");
            prop_assert_eq!(&pkt.payload[..], &body[DATA_BODY_MIN..]);
            prop_assert_eq!(pkt.due, (now_ns + hold_ns > 0).then(|| arrival + Duration::from_nanos(hold_ns)));
            let passed = now_ns.saturating_sub(late_ns).max(1);
            prop_assert_eq!(with_due(passed).expect("a due in the past decodes").due, Some(arrival));
            prop_assert!(with_due(0).expect("no hold decodes").due.is_none());
            let far = with_due(now_ns + MAX_HOLD.as_nanos() as u64 + 1 + late_ns % (1 << 40));
            prop_assert!(matches!(far, Err(RecordError::HoldOutOfRange { .. })), "past the cap is refused");
        }
        match decode_control_body(&body) {
            Ok((_, bytes)) => prop_assert_eq!(bytes.len() + 4, body.len()),
            Err(RecordError::ShortControlBody { len }) => prop_assert_eq!(len, body.len()),
            Err(other) => prop_assert!(false, "unexpected control-body error {other:?}"),
        }

        // Control records round-trip through the framed reader.
        let mut frame = Vec::new();
        encode_control_record(7, &body, &mut frame);
        let (kind, got) = read_record(&mut &frame[..]).expect("frames").expect("one record");
        prop_assert_eq!(kind, NET_KIND_CONTROL);
        let (from, bytes) = decode_control_body(&got).expect("control body");
        prop_assert_eq!(from, 7);
        prop_assert_eq!(bytes, body);
    }

    /// Arbitrary 26-byte blobs into the handshake decoder, and mutated
    /// valid handshakes into the validator: structured
    /// `HandshakeMismatch` verdicts, never a panic, never an accept of a
    /// wrong magic/version/digest.
    #[test]
    fn net_handshake_survives_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), HANDSHAKE_LEN..HANDSHAKE_LEN + 1),
        node in any::<u32>(), generation in any::<u32>(), digest in any::<u64>(),
        wrong_digest in any::<u64>(),
        stamps in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        told in (any::<i64>(), any::<u64>()), seen in any::<i64>(), span in any::<u64>())
    {
        // The clock exchange: four arbitrary timestamps are an estimate or
        // `None`, and an arbitrary closing message passes the acceptor's
        // check only if it agrees with what the acceptor saw.
        if let Some(est) = ClockEstimate::from_sample(stamps.0, stamps.1, stamps.2, stamps.3) {
            prop_assert!(est.rtt_ns <= stamps.3 - stamps.0);
            prop_assert!(est.on_peer_clock(stamps.0) >= 1);
        }
        let told = ClockEstimate { ahead_ns: told.0, rtt_ns: told.1 };
        prop_assert_eq!(ClockEstimate::decode(&told.encode()), told);
        let agreeing = ClockEstimate { ahead_ns: seen, rtt_ns: span };
        prop_assert!(agreeing.check(node, i128::from(seen), span).is_ok());
        match told.check(node, i128::from(seen), span) {
            Ok(()) => {
                prop_assert!((i128::from(told.ahead_ns) - i128::from(seen)).unsigned_abs() <= u128::from(span));
                prop_assert!(told.rtt_ns <= span);
            }
            Err(gridmdo::net::TransportError::HandshakeMismatch { peer, field, .. }) => {
                prop_assert_eq!((peer, field), (node, gridmdo::net::HandshakeField::Clock));
            }
            Err(other) => prop_assert!(false, "unexpected clock verdict {other}"),
        }

        let buf: [u8; HANDSHAKE_LEN] = raw.try_into().expect("sized vec");
        if let Ok(h) = Handshake::decode(&buf) {
            // Anything accepted must round-trip.
            prop_assert_eq!(Handshake::decode(&h.encode()).expect("round trip").digest, h.digest);
        }

        let good = Handshake { node, generation, digest };
        let decoded = Handshake::decode(&good.encode()).expect("valid handshake");
        prop_assert!(decoded.check(Some(node), generation, digest).is_ok());
        if wrong_digest != digest {
            let err = decoded.check(Some(node), generation, wrong_digest).expect_err("digest must mismatch");
            prop_assert!(
                matches!(err, gridmdo::net::TransportError::HandshakeMismatch { field: gridmdo::net::HandshakeField::TopologyDigest, .. }),
                "wrong field: {err}"
            );
        }
    }
}

/// End to end: a wire segment that *truncates* one in every three data
/// records (breaking the body short of its fixed header) must cost only
/// counted drops at the receiver — the reliable layer's retransmissions
/// re-deliver every payload exactly once, in order, and nobody panics.
#[test]
fn corrupt_wire_records_recover_via_retransmit() {
    use gridmdo::net::{localhost_rendezvous, NetConfig, NetEvent, NetSession};
    use gridmdo::netsim::{Dur, FaultPlan, LatencyMatrix, Topology};
    use gridmdo::vmi::{Packet, ReliableTransport, Transport, TransportConfig, Wire, WireBinding};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let topo = Topology::two_cluster(2);
    let (listeners, addrs) = localhost_rendezvous(2).expect("rendezvous");
    let mut node_threads = Vec::new();
    for (node, listener) in listeners.into_iter().enumerate().rev() {
        let topo = topo.clone();
        let addrs = addrs.clone();
        node_threads.push(std::thread::spawn(move || {
            let session = NetSession::with_listener(NetConfig::new(node as u32, addrs), listener).expect("session");
            let mesh = Arc::new(session.establish(0, &topo, &[0, 1]).expect("establish"));
            let local = Pe(node as u32);
            let mut tc = TransportConfig::new(topo.clone(), LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO));
            tc.wire = Some(WireBinding::new(Arc::clone(&mesh) as Arc<dyn Wire>, &[local], 2));
            let raw = Transport::new(tc);
            let rt =
                ReliableTransport::with_plan(Arc::clone(&raw), FaultPlan::default().with_rto(Dur::from_millis(15)));
            {
                let raw = Arc::clone(&raw);
                mesh.start(move |pkt| raw.mailbox(pkt.dst).post(pkt));
            }
            if node == 0 {
                // Truncate the first record and every third after it to a
                // 4-byte stump: too short for a data body, so the peer's
                // reader rejects it by name and counts the drop.
                mesh.set_fault_hook(Some(Box::new(|idx, _body| (idx % 3 == 0).then(|| vec![0xEE; 4]))));
                for i in 0..40u64 {
                    rt.send(Packet::new(Pe(0), Pe(1), i.to_le_bytes().to_vec().into()));
                }
                // Hold the mesh open until the receiver confirms delivery
                // over the control plane.
                let confirmed = loop {
                    match mesh.next_event(Duration::from_secs(20)) {
                        Some(NetEvent::Control { .. }) => break true,
                        Some(NetEvent::PeerDown { .. }) => continue,
                        None => break false,
                    }
                };
                assert!(confirmed, "receiver never confirmed delivery: {:?}", rt.error());
                assert!(rt.error().is_none(), "retry budget must cover the corruption");
                assert!(rt.retransmits() >= 1, "recovery actually retransmitted");
                rt.shutdown();
                raw.shutdown();
                mesh.shutdown();
                0u64
            } else {
                let mut got = Vec::new();
                let deadline = Instant::now() + Duration::from_secs(20);
                while got.len() < 40 && Instant::now() < deadline {
                    if let Some(p) = rt.recv_timeout(Pe(1), Duration::from_millis(20)) {
                        got.push(u64::from_le_bytes(p.payload[..8].try_into().expect("8 bytes")));
                    }
                }
                assert_eq!(got, (0..40).collect::<Vec<_>>(), "exactly once, in order, despite truncated records");
                let drops = mesh.drops();
                assert!(drops > 0, "the corrupted records were counted at the receiver");
                mesh.send_control(0, b"all received").expect("confirm to sender");
                rt.shutdown();
                raw.shutdown();
                mesh.shutdown();
                drops
            }
        }));
    }
    for t in node_threads {
        t.join().expect("node thread must not panic");
    }
}
