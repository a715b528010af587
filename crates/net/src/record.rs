//! Pure codecs for the socket protocol: handshakes and framed records.
//!
//! Everything a TCP stream carries is length-prefixed and little-endian:
//!
//! ```text
//! greeting (once, both directions, 22 bytes fixed):
//!   magic "MDON" | version u16 | node u32 | generation u32
//!   | topology digest u64
//!
//! clock exchange (after the greetings, CLOCK_PINGS times, then once):
//!   dialer:   t1 u64                 acceptor: t2 u64 | t3 u64
//!   dialer:   ahead_ns i64 | rtt_ns u64
//!
//! record (repeated):
//!   kind u8 | len u32 | body[len]
//!     kind 0 (data):    src u32 | dst u32 | priority i32 | hold_ns u64 | payload…
//!     kind 1 (control): from u32 | opaque bytes…
//! ```
//!
//! | data-body field | bytes | meaning |
//! |---|---|---|
//! | `src`, `dst` | 0..4, 4..8 | sending and destination PE |
//! | `priority` | 8..12 | delivery priority (smaller = more urgent) |
//! | `hold_ns` | 12..20 | when the injected latency is over, on the *receiver's* [`Clock`]; 0 = no hold (since wire version 4; versions 2 and 3 carried the hold still to run) |
//! | payload | 20.. | the packet's bytes, opaque |
//!
//! Data-record payloads are the exact byte strings the in-process
//! transport moves — reliable-layer frames ([`mdo_vmi::reliable`]) and
//! jumbo frames ([`mdo_vmi::frame`]) ride through opaque and unchanged,
//! which is what keeps multi-process runs bit-exact.  `hold_ns` is how a
//! delay device's [`Packet::due`] stamp crosses between two clocks: every
//! node counts nanoseconds since an epoch of its own ([`Clock`]), the
//! handshake estimates how far the peer's count is ahead
//! ([`ClockEstimate`]: a few ping-pongs, NTP's four timestamps, the sample
//! with the smallest round trip), and the sender writes `due` translated to
//! the receiver's count, which the receiver takes as it stands.  The
//! injected latency therefore means send + latency on both engines: time
//! in the cork, in the socket and in the reader's run queue is part of it,
//! not on top of it.  The estimate is off by at most half the sample's
//! round trip, and the translation adds that half, so where both nodes
//! count one monotonic clock — threads or processes of one host, which is
//! every test and benchmark — a packet is never visible before send +
//! latency and at most one loopback round trip (tens of microseconds)
//! after.  The offset is sampled once per mesh and never refreshed: between
//! separate hosts the bound is half the round trip *plus the drift of the
//! two oscillators since the handshake* (tens of ppm: 1–2 ms over half a
//! minute), early or late.
//!
//! Decoding is hostile-input safe: every failure is a structured
//! [`RecordError`], never a panic, and a malformed *body* poisons only
//! that record (the reader counts a drop and the reliable layer's
//! retransmission recovers), while corrupt *framing* poisons the stream.

use std::fmt;
use std::io::Read;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mdo_netsim::Pe;
use mdo_vmi::Packet;

use crate::error::{HandshakeField, TransportError};

/// Protocol magic: the ASCII bytes "MDON".
pub const MAGIC: [u8; 4] = *b"MDON";
/// Wire-format version; bumped on any incompatible layout change (4 is
/// the clock exchange after the greeting and `hold_ns` as a `due` on the
/// receiver's clock; the 22-byte greeting is as in 3).
pub const WIRE_VERSION: u16 = 4;
/// Encoded handshake size (fixed, version-independent, so a version
/// mismatch can still be diagnosed instead of desynchronizing).
pub const HANDSHAKE_LEN: usize = 22;
/// Record header size: kind byte + u32 length.
pub const RECORD_HEADER_LEN: usize = 5;
/// Hard ceiling on a record body; larger lengths are hostile framing.
pub const MAX_RECORD_LEN: u32 = 64 << 20;
/// Record kind: a transported [`Packet`].
pub const KIND_DATA: u8 = 0;
/// Record kind: an opaque control-plane message.
pub const KIND_CONTROL: u8 = 1;
/// Minimum data-record body: src + dst + priority + hold.
pub const DATA_BODY_MIN: usize = 20;
/// Offset of the hold field within a data-record body.
pub const DATA_HOLD_AT: usize = 12;
/// Furthest past its arrival a data record may ask to be held.  The field is
/// outside input: no injected latency comes near an hour, so anything above
/// is a corrupt or hostile record and is dropped rather than parked.
pub const MAX_HOLD: Duration = Duration::from_secs(3600);
/// Ping-pongs of the handshake's clock exchange.  The estimate keeps the one
/// with the smallest round trip, so more only ever tighten it; eight take
/// well under a millisecond on loopback.
pub const CLOCK_PINGS: usize = 8;
/// Encoded size of a ping: `t1`.
pub const CLOCK_PING_LEN: usize = 8;
/// Encoded size of a pong (`t2 | t3`) and of the dialer's closing estimate
/// (`ahead_ns | rtt_ns`).
pub const CLOCK_PONG_LEN: usize = 16;

/// A node's clock: nanoseconds since the epoch its session took when it
/// bound.  Two nodes' counts differ by whatever separates their epochs,
/// which is what a [`ClockEstimate`] measures.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock whose epoch is now.
    pub fn start() -> Clock {
        Clock { epoch: Instant::now() }
    }

    /// `t` on this clock (0 for an instant before the epoch).
    pub fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The current reading.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }
}

/// What a handshake learned about the peer's [`Clock`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockEstimate {
    /// The peer's reading minus this node's at the same instant.
    pub ahead_ns: i64,
    /// Round trip of the sample the estimate was taken from; `ahead_ns` is
    /// off by at most half of it.
    pub rtt_ns: u64,
}

impl ClockEstimate {
    /// NTP's estimate from one ping-pong: the ping left at `t1` and the pong
    /// came back at `t4` on this clock, the peer read `t2` and `t3` on its
    /// own in between.  `None` if the four cannot be readings of two running
    /// clocks (a pong stamped before its ping arrived, a peer that held the
    /// ping longer than the round trip took).
    pub fn from_sample(t1: u64, t2: u64, t3: u64, t4: u64) -> Option<ClockEstimate> {
        let rtt_ns = t4.checked_sub(t1)?.checked_sub(t3.checked_sub(t2)?)?;
        let twice = (i128::from(t2) - i128::from(t1)) + (i128::from(t3) - i128::from(t4));
        Some(ClockEstimate { ahead_ns: i64::try_from(twice / 2).ok()?, rtt_ns })
    }

    /// The same measurement as the peer should use it.
    pub fn mirrored(self) -> Option<ClockEstimate> {
        Some(ClockEstimate { ahead_ns: self.ahead_ns.checked_neg()?, rtt_ns: self.rtt_ns })
    }

    /// Encode to the fixed wire layout.
    pub fn encode(&self) -> [u8; CLOCK_PONG_LEN] {
        words(self.ahead_ns as u64, self.rtt_ns)
    }

    /// Decode the dialer's closing message.
    pub fn decode(buf: &[u8; CLOCK_PONG_LEN]) -> ClockEstimate {
        let (ahead, rtt_ns) = unwords(buf);
        ClockEstimate { ahead_ns: ahead as i64, rtt_ns }
    }

    /// Validate the estimate node `peer` sent against what this side saw of
    /// the same exchange: `seen_ahead_ns` is the smallest "my reading when a
    /// ping arrived, minus the `t1` in it" (the true value plus that ping's
    /// transit), and the whole exchange took `span_ns` here, which bounds
    /// every transit in it.  An honest estimate is therefore within
    /// `span_ns` of `seen_ahead_ns` and reports a round trip no longer than
    /// the exchange; anything else is a garbage field.
    pub fn check(&self, peer: u32, seen_ahead_ns: i128, span_ns: u64) -> Result<(), TransportError> {
        let off_by = (i128::from(self.ahead_ns) - seen_ahead_ns).unsigned_abs();
        if off_by > u128::from(span_ns) || self.rtt_ns > span_ns {
            return Err(TransportError::HandshakeMismatch {
                peer,
                field: HandshakeField::Clock,
                expected: seen_ahead_ns as u64,
                got: self.ahead_ns as u64,
            });
        }
        Ok(())
    }

    /// `ns` on this node's clock as the peer's clock will read at that
    /// instant — half a round trip later than the estimate says, so that its
    /// error can only delay a packet, never show it early (the estimate's
    /// own error; drift since the handshake is not in it).  Never 0, which
    /// on the wire means "no hold".
    pub fn on_peer_clock(&self, ns: u64) -> u64 {
        let there = i128::from(ns) + i128::from(self.ahead_ns) + i128::from(self.rtt_ns.div_ceil(2));
        u64::try_from(there.max(1)).unwrap_or(u64::MAX)
    }
}

/// Two little-endian words: the layout of a pong and of an estimate.
pub(crate) fn words(a: u64, b: u64) -> [u8; CLOCK_PONG_LEN] {
    let mut out = [0u8; CLOCK_PONG_LEN];
    out[..8].copy_from_slice(&a.to_le_bytes());
    out[8..].copy_from_slice(&b.to_le_bytes());
    out
}

/// Inverse of [`words`].
pub(crate) fn unwords(buf: &[u8; CLOCK_PONG_LEN]) -> (u64, u64) {
    let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
    (word(0), word(8))
}

/// The per-connection greeting exchanged before any record flows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Handshake {
    /// Sender's node id.
    pub node: u32,
    /// Sender's run generation (bumped across shrink recoveries).
    pub generation: u32,
    /// Sender's [`mdo_netsim::Topology::digest`].
    pub digest: u64,
}

impl Handshake {
    /// Encode to the fixed wire layout.
    pub fn encode(&self) -> [u8; HANDSHAKE_LEN] {
        let mut out = [0u8; HANDSHAKE_LEN];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
        out[6..10].copy_from_slice(&self.node.to_le_bytes());
        out[10..14].copy_from_slice(&self.generation.to_le_bytes());
        out[14..22].copy_from_slice(&self.digest.to_le_bytes());
        out
    }

    /// Decode and check the protocol invariants (magic, version).  A
    /// buffer from a non-`mdo-net` speaker or an incompatible build fails
    /// here with a structured mismatch naming the field.
    pub fn decode(buf: &[u8; HANDSHAKE_LEN]) -> Result<Handshake, TransportError> {
        if buf[0..4] != MAGIC {
            return Err(TransportError::HandshakeMismatch {
                peer: u32::MAX,
                field: HandshakeField::Magic,
                expected: u32::from_le_bytes(MAGIC) as u64,
                got: u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as u64,
            });
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        let node = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]);
        if version != WIRE_VERSION {
            return Err(TransportError::HandshakeMismatch {
                peer: node,
                field: HandshakeField::Version,
                expected: WIRE_VERSION as u64,
                got: version as u64,
            });
        }
        Ok(Handshake {
            node,
            generation: u32::from_le_bytes([buf[10], buf[11], buf[12], buf[13]]),
            digest: u64::from_le_bytes(buf[14..22].try_into().expect("8 bytes")),
        })
    }

    /// Validate a decoded peer handshake against this side's expectations.
    /// `expect_node == None` accepts any node id (the accept path learns
    /// the peer from the handshake; the dial path knows who it called).
    pub fn check(&self, expect_node: Option<u32>, generation: u32, digest: u64) -> Result<(), TransportError> {
        let mismatch = |field, expected: u64, got: u64| {
            Err(TransportError::HandshakeMismatch { peer: self.node, field, expected, got })
        };
        if let Some(n) = expect_node {
            if self.node != n {
                return mismatch(HandshakeField::Node, n as u64, self.node as u64);
            }
        }
        if self.generation != generation {
            return mismatch(HandshakeField::Generation, generation as u64, self.generation as u64);
        }
        if self.digest != digest {
            return mismatch(HandshakeField::TopologyDigest, digest, self.digest);
        }
        Ok(())
    }
}

/// A structured record-stream failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// The stream ended inside a record header (mid-record EOF).
    TruncatedHeader {
        /// Bytes of header that did arrive.
        got: usize,
    },
    /// The stream ended inside a record body.
    TruncatedBody {
        /// The advertised body length.
        want: u32,
    },
    /// The advertised length exceeds [`MAX_RECORD_LEN`]: hostile framing.
    Oversized {
        /// The advertised body length.
        len: u32,
    },
    /// An unknown record kind byte: hostile framing.
    UnknownKind(u8),
    /// A data-record body too short to carry its routing header.
    ShortDataBody {
        /// The actual body length.
        len: usize,
    },
    /// A control-record body too short to carry its sender id.
    ShortControlBody {
        /// The actual body length.
        len: usize,
    },
    /// A data record due further than [`MAX_HOLD`] past its arrival.
    HoldOutOfRange {
        /// How long it asked to be held, in nanoseconds.
        nanos: u64,
    },
    /// The underlying reader failed.
    Io(std::io::ErrorKind),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::TruncatedHeader { got } => write!(f, "stream ended inside a record header ({got}/5 bytes)"),
            RecordError::TruncatedBody { want } => write!(f, "stream ended inside a {want}-byte record body"),
            RecordError::Oversized { len } => write!(f, "record length {len} exceeds the {MAX_RECORD_LEN} cap"),
            RecordError::UnknownKind(k) => write!(f, "unknown record kind {k:#04x}"),
            RecordError::ShortDataBody { len } => write!(f, "data record body of {len} bytes cannot hold a packet"),
            RecordError::ShortControlBody { len } => write!(f, "control record body of {len} bytes has no sender"),
            RecordError::HoldOutOfRange { nanos } => {
                write!(f, "data record hold of {nanos} ns exceeds the one-hour cap")
            }
            RecordError::Io(kind) => write!(f, "record stream i/o failure: {kind:?}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Append a framed data record carrying `pkt` to `out`.  `due_ns` is the
/// packet's `due` on the *receiver's* clock
/// ([`ClockEstimate::on_peer_clock`]), 0 for a packet with none.
pub fn encode_data_record(pkt: &Packet, due_ns: u64, out: &mut Vec<u8>) {
    let body_len = DATA_BODY_MIN + pkt.payload.len();
    out.reserve(RECORD_HEADER_LEN + body_len);
    out.push(KIND_DATA);
    out.extend_from_slice(&u32::try_from(body_len).expect("packet fits a record").to_le_bytes());
    out.extend_from_slice(&pkt.src.0.to_le_bytes());
    out.extend_from_slice(&pkt.dst.0.to_le_bytes());
    out.extend_from_slice(&pkt.priority.to_le_bytes());
    out.extend_from_slice(&due_ns.to_le_bytes());
    out.extend_from_slice(&pkt.payload);
}

/// Append a framed control record from node `from` to `out`.
pub fn encode_control_record(from: u32, body: &[u8], out: &mut Vec<u8>) {
    let body_len = 4 + body.len();
    out.reserve(RECORD_HEADER_LEN + body_len);
    out.push(KIND_CONTROL);
    out.extend_from_slice(&u32::try_from(body_len).expect("control fits a record").to_le_bytes());
    out.extend_from_slice(&from.to_le_bytes());
    out.extend_from_slice(body);
}

/// Read one framed record.  `Ok(None)` is a clean end of stream (EOF at a
/// record boundary); every other failure is structured.
pub fn read_record(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, RecordError> {
    let mut header = [0u8; RECORD_HEADER_LEN];
    let mut got = 0;
    while got < RECORD_HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(RecordError::TruncatedHeader { got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(RecordError::Io(e.kind())),
        }
    }
    let kind = header[0];
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
    if len > MAX_RECORD_LEN {
        return Err(RecordError::Oversized { len });
    }
    if kind != KIND_DATA && kind != KIND_CONTROL {
        return Err(RecordError::UnknownKind(kind));
    }
    // Straight into the buffer that becomes the payload: no zero-fill, and
    // `len` is already bounded by the cap above.
    let mut body = Vec::with_capacity(len as usize);
    match r.take(u64::from(len)).read_to_end(&mut body) {
        Ok(n) if n == len as usize => Ok(Some((kind, body))),
        Ok(_) => Err(RecordError::TruncatedBody { want: len }),
        Err(e) => Err(RecordError::Io(e.kind())),
    }
}

/// Decode a data-record body, which arrived at `arrival`, into a
/// [`Packet`].  The payload is a view of `body` past the routing header —
/// no copy — and a non-zero `hold_ns` is the packet's `due` as `clock`
/// counts: taken as it stands, or `arrival` if that has already passed.
pub fn decode_data_body(body: Vec<u8>, clock: &Clock, arrival: Instant) -> Result<Packet, RecordError> {
    if body.len() < DATA_BODY_MIN {
        return Err(RecordError::ShortDataBody { len: body.len() });
    }
    let src = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes"));
    let dst = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
    let priority = i32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
    let due_ns = u64::from_le_bytes(body[DATA_HOLD_AT..DATA_BODY_MIN].try_into().expect("8 bytes"));
    let due = match due_ns.saturating_sub(clock.ns_at(arrival)) {
        _ if due_ns == 0 => None,
        nanos if Duration::from_nanos(nanos) > MAX_HOLD => return Err(RecordError::HoldOutOfRange { nanos }),
        nanos => Some(arrival + Duration::from_nanos(nanos)),
    };
    let mut pkt = Packet::with_priority(Pe(src), Pe(dst), priority, Bytes::from(body).slice(DATA_BODY_MIN..));
    pkt.due = due;
    Ok(pkt)
}

/// Decode a control-record body into `(from_node, payload)`.
pub fn decode_control_body(body: &[u8]) -> Result<(u32, Vec<u8>), RecordError> {
    if body.len() < 4 {
        return Err(RecordError::ShortControlBody { len: body.len() });
    }
    let from = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes"));
    Ok((from, body[4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn handshake_roundtrips() {
        let hs = Handshake { node: 3, generation: 7, digest: 0xdead_beef_cafe_f00d };
        let decoded = Handshake::decode(&hs.encode()).expect("own encoding decodes");
        assert_eq!(decoded, hs);
        assert!(decoded.check(Some(3), 7, 0xdead_beef_cafe_f00d).is_ok());
    }

    #[test]
    fn handshake_rejects_bad_magic_and_version() {
        let mut buf = Handshake { node: 0, generation: 0, digest: 0 }.encode();
        buf[0] = b'X';
        match Handshake::decode(&buf) {
            Err(TransportError::HandshakeMismatch { field: HandshakeField::Magic, .. }) => {}
            other => panic!("expected magic mismatch, got {other:?}"),
        }
        let mut buf = Handshake { node: 9, generation: 0, digest: 0 }.encode();
        buf[4..6].copy_from_slice(&99u16.to_le_bytes());
        match Handshake::decode(&buf) {
            Err(TransportError::HandshakeMismatch { peer: 9, field: HandshakeField::Version, got: 99, .. }) => {}
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn handshake_check_catches_each_field() {
        let hs = Handshake { node: 2, generation: 1, digest: 42 };
        assert!(matches!(
            hs.check(Some(1), 1, 42),
            Err(TransportError::HandshakeMismatch { field: HandshakeField::Node, .. })
        ));
        assert!(matches!(
            hs.check(None, 2, 42),
            Err(TransportError::HandshakeMismatch { field: HandshakeField::Generation, .. })
        ));
        assert!(matches!(
            hs.check(None, 1, 43),
            Err(TransportError::HandshakeMismatch { field: HandshakeField::TopologyDigest, .. })
        ));
    }

    #[test]
    fn data_record_roundtrips() {
        let pkt = Packet::with_priority(Pe(3), Pe(11), -7, Bytes::from_static(b"payload bytes"));
        let mut buf = Vec::new();
        encode_data_record(&pkt, 0, &mut buf);
        let (kind, body) = read_record(&mut Cursor::new(&buf)).unwrap().expect("one record");
        assert_eq!(kind, KIND_DATA);
        let got = decode_data_body(body, &Clock::start(), Instant::now()).unwrap();
        assert_eq!((got.src, got.dst, got.priority), (Pe(3), Pe(11), -7));
        assert_eq!(&got.payload[..], b"payload bytes");
        assert!(got.due.is_none(), "no hold, no stamp");
    }

    /// The one data record of `buf`, decoded on `clock` as arriving at `arrival`.
    fn decoded(buf: &[u8], clock: &Clock, arrival: Instant) -> Result<Packet, RecordError> {
        let (_, body) = read_record(&mut Cursor::new(buf)).unwrap().expect("one record");
        decode_data_body(body, clock, arrival)
    }

    #[test]
    fn due_rides_the_record_on_the_receivers_clock_and_is_taken_as_it_stands() {
        let pkt = Packet::new(Pe(0), Pe(1), Bytes::from_static(b"x"));
        // The receiver's clock started 3 s ago; the sender says "due at 3.020 s
        // on your clock".  However long the record took to get here, that is
        // when it is due: nothing is added at arrival.
        let clock = Clock::start();
        let due = clock.epoch + Duration::from_millis(3020);
        let mut buf = Vec::new();
        encode_data_record(&pkt, clock.ns_at(due), &mut buf);
        for transit_ms in [0, 5, 19] {
            let arrival = clock.epoch + Duration::from_millis(3000 + transit_ms);
            assert_eq!(decoded(&buf, &clock, arrival).unwrap().due, Some(due), "after {transit_ms} ms in transit");
        }
        // A `due` that has passed is deliverable at once: the arrival itself.
        let late = due + Duration::from_millis(4);
        assert_eq!(decoded(&buf, &clock, late).unwrap().due, Some(late));
    }

    #[test]
    fn hostile_hold_is_a_structured_error() {
        let pkt = Packet::new(Pe(0), Pe(1), Bytes::from_static(b"x"));
        let clock = Clock::start();
        let arrival = clock.epoch + Duration::from_secs(10);
        let at = |past_arrival: Duration| {
            let mut buf = Vec::new();
            let due_ns =
                clock.ns_at(arrival).saturating_add(u64::try_from(past_arrival.as_nanos()).unwrap_or(u64::MAX));
            encode_data_record(&pkt, due_ns, &mut buf);
            decoded(&buf, &clock, arrival)
        };
        for hold in [MAX_HOLD + Duration::from_nanos(1), Duration::MAX] {
            assert!(matches!(at(hold), Err(RecordError::HoldOutOfRange { .. })));
        }
        assert_eq!(at(MAX_HOLD).expect("the cap itself is allowed").due, Some(arrival + MAX_HOLD));
    }

    #[test]
    fn clock_estimate_is_ntps_and_errs_late() {
        // The peer's clock reads 1,000,000 more than ours; 30 out, 10 on the
        // peer, 50 back.  NTP splits the 80 of transit evenly, so it is off
        // by (30 − 50) / 2 — within half the round trip, as it must be.
        let (ahead, t1) = (1_000_000u64, 500u64);
        let est = ClockEstimate::from_sample(t1, t1 + 30 + ahead, t1 + 40 + ahead, t1 + 90).expect("a valid sample");
        assert_eq!(est, ClockEstimate { ahead_ns: 1_000_000 - 10, rtt_ns: 80 });
        assert_eq!(ClockEstimate::decode(&est.encode()), est);
        assert_eq!(est.mirrored(), Some(ClockEstimate { ahead_ns: -(1_000_000 - 10), rtt_ns: 80 }));
        // Translating adds the half round trip: never before the true reading.
        assert_eq!(est.on_peer_clock(7_000), 7_000 + 1_000_000 - 10 + 40);
        assert!(est.on_peer_clock(7_000) >= 7_000 + ahead);
        // A peer behind us, and an instant before its epoch: clamped to the
        // earliest value that still means "held".
        let behind = ClockEstimate { ahead_ns: -9_000, rtt_ns: 0 };
        assert_eq!(behind.on_peer_clock(10_000), 1_000);
        assert_eq!(behind.on_peer_clock(5_000), 1);
        // Four numbers that no two running clocks read.
        assert_eq!(ClockEstimate::from_sample(100, 50, 40, 200), None, "pong stamped before the ping arrived");
        assert_eq!(ClockEstimate::from_sample(100, 0, 500, 200), None, "held longer than the round trip");
        assert_eq!(ClockEstimate::from_sample(200, 0, 0, 100), None, "back before it left");
        assert_eq!(
            ClockEstimate::from_sample(0, u64::MAX, u64::MAX, 0).map(|e| e.ahead_ns),
            None,
            "ahead by more than i64"
        );
    }

    #[test]
    fn a_garbage_clock_estimate_is_a_handshake_mismatch() {
        // This side saw pings arrive reading at least 5,000 ahead of their
        // `t1`, in an exchange that took 400 here.
        let (seen, span) = (5_000i128, 400u64);
        assert!(ClockEstimate { ahead_ns: 4_900, rtt_ns: 120 }.check(1, seen, span).is_ok());
        for garbage in [
            ClockEstimate { ahead_ns: 5_401, rtt_ns: 120 },
            ClockEstimate { ahead_ns: 4_599, rtt_ns: 120 },
            ClockEstimate { ahead_ns: i64::MIN, rtt_ns: 0 },
            ClockEstimate { ahead_ns: i64::MAX, rtt_ns: u64::MAX },
            ClockEstimate { ahead_ns: 4_900, rtt_ns: 401 },
        ] {
            match garbage.check(1, seen, span) {
                Err(TransportError::HandshakeMismatch { peer: 1, field: HandshakeField::Clock, .. }) => {}
                other => panic!("{garbage:?}: expected a clock mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn control_record_roundtrips() {
        let mut buf = Vec::new();
        encode_control_record(5, b"ctl", &mut buf);
        let (kind, body) = read_record(&mut Cursor::new(&buf)).unwrap().expect("one record");
        assert_eq!(kind, KIND_CONTROL);
        assert_eq!(decode_control_body(&body).unwrap(), (5, b"ctl".to_vec()));
    }

    #[test]
    fn clean_eof_is_none_mid_record_is_error() {
        assert_eq!(read_record(&mut Cursor::new(&[])).unwrap(), None);
        let pkt = Packet::new(Pe(0), Pe(1), Bytes::from_static(b"x"));
        let mut buf = Vec::new();
        encode_data_record(&pkt, 0, &mut buf);
        assert!(matches!(read_record(&mut Cursor::new(&buf[..3])), Err(RecordError::TruncatedHeader { got: 3 })));
        assert!(matches!(read_record(&mut Cursor::new(&buf[..buf.len() - 1])), Err(RecordError::TruncatedBody { .. })));
    }

    #[test]
    fn hostile_framing_is_structured() {
        let mut oversized = vec![KIND_DATA];
        oversized.extend_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        assert!(matches!(read_record(&mut Cursor::new(&oversized)), Err(RecordError::Oversized { .. })));
        let unknown = [0x7fu8, 0, 0, 0, 0];
        assert!(matches!(read_record(&mut Cursor::new(&unknown)), Err(RecordError::UnknownKind(0x7f))));
        let short = decode_data_body(vec![0; 5], &Clock::start(), Instant::now());
        assert!(matches!(short, Err(RecordError::ShortDataBody { len: 5 })));
        assert!(matches!(decode_control_body(&[0; 2]), Err(RecordError::ShortControlBody { len: 2 })));
    }
}
