//! Pure codecs for the socket protocol: handshakes and framed records.
//!
//! Everything a TCP stream carries is length-prefixed and little-endian:
//!
//! ```text
//! handshake (once, both directions, 22 bytes fixed):
//!   magic "MDON" | version u16 | node u32 | generation u32
//!   | topology digest u64
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
//! | `hold_ns` | 12..20 | injected latency still to run when the record was written (since wire version 2) |
//! | payload | 20.. | the packet's bytes, opaque |
//!
//! Data-record payloads are the exact byte strings the in-process
//! transport moves — reliable-layer frames ([`mdo_vmi::reliable`]) and
//! jumbo frames ([`mdo_vmi::frame`]) ride through opaque and unchanged,
//! which is what keeps multi-process runs bit-exact.  `hold_ns` is how a
//! delay device's [`Packet::due`] stamp crosses between two clocks: the
//! sender writes the *remaining* hold — [`stamp_hold`], at the moment the
//! record leaves, so time spent corked counts towards the latency instead
//! of adding to it — and the receiver re-bases it on the record's arrival
//! (`due = arrival + hold`).  A packet is never visible before
//! send + latency and no clock synchronisation is needed; what the socket
//! itself takes comes on top, as a real wide-area link's would.
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
/// Wire-format version; bumped on any incompatible layout change (3 is
/// the 22-byte handshake of one socket per pair; records are as in 2).
pub const WIRE_VERSION: u16 = 3;
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
/// Longest hold a data record may ask for.  The field is outside input: no
/// injected latency comes near an hour, so anything above is a corrupt or
/// hostile record and is dropped rather than parked.
pub const MAX_HOLD: Duration = Duration::from_secs(3600);

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
    /// A data record asking to be held longer than [`MAX_HOLD`] (or past
    /// the end of the clock).
    HoldOutOfRange {
        /// The advertised hold in nanoseconds.
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

/// Append a framed data record carrying `pkt` to `out`, with no hold; a
/// packet that has a `due` gets its hold from [`stamp_hold`] when the
/// record is written.
pub fn encode_data_record(pkt: &Packet, out: &mut Vec<u8>) {
    let body_len = DATA_BODY_MIN + pkt.payload.len();
    out.reserve(RECORD_HEADER_LEN + body_len);
    out.push(KIND_DATA);
    out.extend_from_slice(&u32::try_from(body_len).expect("packet fits a record").to_le_bytes());
    out.extend_from_slice(&pkt.src.0.to_le_bytes());
    out.extend_from_slice(&pkt.dst.0.to_le_bytes());
    out.extend_from_slice(&pkt.priority.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&pkt.payload);
}

/// Set the hold of the data record that starts at `record[0]` (as
/// [`encode_data_record`] wrote it) to `hold`: what is left of the packet's
/// injected latency now.
pub fn stamp_hold(record: &mut [u8], hold: Duration) {
    let nanos = u64::try_from(hold.as_nanos()).unwrap_or(u64::MAX);
    record[RECORD_HEADER_LEN + DATA_HOLD_AT..RECORD_HEADER_LEN + DATA_BODY_MIN].copy_from_slice(&nanos.to_le_bytes());
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
/// no copy — and a non-zero hold becomes `due = arrival + hold`.
pub fn decode_data_body(body: Vec<u8>, arrival: Instant) -> Result<Packet, RecordError> {
    if body.len() < DATA_BODY_MIN {
        return Err(RecordError::ShortDataBody { len: body.len() });
    }
    let src = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes"));
    let dst = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
    let priority = i32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
    let nanos = u64::from_le_bytes(body[DATA_HOLD_AT..DATA_BODY_MIN].try_into().expect("8 bytes"));
    let hold = Duration::from_nanos(nanos);
    let due = match nanos {
        0 => None,
        _ if hold > MAX_HOLD => return Err(RecordError::HoldOutOfRange { nanos }),
        _ => Some(arrival.checked_add(hold).ok_or(RecordError::HoldOutOfRange { nanos })?),
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
        encode_data_record(&pkt, &mut buf);
        let (kind, body) = read_record(&mut Cursor::new(&buf)).unwrap().expect("one record");
        assert_eq!(kind, KIND_DATA);
        let got = decode_data_body(body, Instant::now()).unwrap();
        assert_eq!((got.src, got.dst, got.priority), (Pe(3), Pe(11), -7));
        assert_eq!(&got.payload[..], b"payload bytes");
        assert!(got.due.is_none(), "no hold, no stamp");
    }

    #[test]
    fn hold_rides_the_record_and_is_rebased_on_arrival() {
        let pkt = Packet::new(Pe(0), Pe(1), Bytes::from_static(b"x"));
        let mut buf = Vec::new();
        encode_data_record(&pkt, &mut buf);
        stamp_hold(&mut buf, Duration::from_millis(20));
        let (_, body) = read_record(&mut Cursor::new(&buf)).unwrap().expect("one record");
        let arrival = Instant::now();
        let got = decode_data_body(body, arrival).unwrap();
        assert_eq!(got.due, Some(arrival + Duration::from_millis(20)));
    }

    #[test]
    fn hostile_hold_is_a_structured_error() {
        let pkt = Packet::new(Pe(0), Pe(1), Bytes::from_static(b"x"));
        for hold in [MAX_HOLD + Duration::from_nanos(1), Duration::MAX] {
            let mut buf = Vec::new();
            encode_data_record(&pkt, &mut buf);
            stamp_hold(&mut buf, hold);
            let (_, body) = read_record(&mut Cursor::new(&buf)).unwrap().expect("one record");
            assert!(matches!(decode_data_body(body, Instant::now()), Err(RecordError::HoldOutOfRange { .. })));
        }
        let mut buf = Vec::new();
        encode_data_record(&pkt, &mut buf);
        stamp_hold(&mut buf, MAX_HOLD);
        let (_, body) = read_record(&mut Cursor::new(&buf)).unwrap().expect("one record");
        assert!(decode_data_body(body, Instant::now()).is_ok(), "the cap itself is allowed");
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
        encode_data_record(&pkt, &mut buf);
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
        assert!(matches!(decode_data_body(vec![0; 5], Instant::now()), Err(RecordError::ShortDataBody { len: 5 })));
        assert!(matches!(decode_control_body(&[0; 2]), Err(RecordError::ShortControlBody { len: 2 })));
    }
}
