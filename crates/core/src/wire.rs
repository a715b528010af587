//! A small explicit byte codec for message payloads and migratable state.
//!
//! Charm++ marshals entry-method parameters and packs/unpacks (PUP)
//! migratable object state; this module is our equivalent.  The format is
//! little-endian, length-prefixed, and deliberately boring — the point is
//! that message contents and PUP'd state are observable byte strings, which
//! the tests exploit heavily.  (We use this instead of `serde` so the
//! runtime has zero codegen magic; see DESIGN.md.)
//!
//! **Allocation rule.**  A payload is written once, at its final size:
//! every array method ([`WireWriter::bytes`], [`WireWriter::f64_slice`],
//! [`WireWriter::f64_triples`], [`WireWriter::f64_zeros`],
//! [`WireWriter::u32_slice`]) reserves its whole extent before it writes a
//! byte, and a writer whose payload is larger than a cache line starts from
//! [`WireWriter::with_capacity`] with the exact length ([`f64_array_len`]
//! gives an array's) — so the buffer the handler fills is the buffer every
//! recipient reads (DESIGN.md, "Payload ownership").

use bytes::Bytes;

/// Serializer: appends primitive values to a growable buffer.
#[derive(Default, Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// A writer with pre-reserved capacity.  Given the payload's exact
    /// length (see [`f64_array_len`]), the buffer is allocated once and
    /// [`WireWriter::finish`] hands back a vector with no slack.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter { buf: Vec::with_capacity(cap) }
    }

    /// A writer that appends to an existing buffer (taken by value, handed
    /// back by [`WireWriter::finish`]).  This is the copy-light path: a
    /// caller staging many records into one frame lends the frame buffer
    /// out, and no intermediate per-record vector ever exists.
    pub fn over(buf: Vec<u8>) -> Self {
        WireWriter { buf }
    }

    /// Finish, taking the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Finish as `Bytes`.
    pub fn finish_bytes(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Write a `u32` element count and reserve the `elem_size`-byte
    /// elements that follow it, so the array lands in one allocation.
    fn reserve_counted(&mut self, n: usize, elem_size: usize) {
        let count = u32::try_from(n).expect("slice too large for wire format");
        self.buf.reserve(4 + n * elem_size);
        self.u32(count);
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a `bool` as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Append a `u16` (LE).
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u32` (LE).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64` (LE).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `i32` (LE).
    pub fn i32(&mut self, v: i32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `i64` (LE).
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f64` (LE bits).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Append raw bytes with a `u32` length prefix.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.reserve_counted(v.len(), 1);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a UTF-8 string with a `u32` length prefix.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Append a slice of `f64` with a `u32` count prefix.
    pub fn f64_slice(&mut self, v: &[f64]) -> &mut Self {
        self.reserve_counted(v.len(), 8);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        self
    }

    /// Append a slice of `[x, y, z]` triples, byte for byte what
    /// [`WireWriter::f64_slice`] writes for the flattened `3 · len` values
    /// (the count prefix is the number of `f64`s, not of triples), without
    /// the flattened copy.
    pub fn f64_triples(&mut self, v: &[[f64; 3]]) -> &mut Self {
        self.reserve_counted(v.len() * 3, 8);
        for &x in v.iter().flatten() {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        self
    }

    /// Append `n` zero `f64`s, byte for byte `f64_slice(&vec![0.0; n])`
    /// without the vector: what a cost-model payload of the real size is.
    pub fn f64_zeros(&mut self, n: usize) -> &mut Self {
        self.reserve_counted(n, 8);
        self.buf.resize(self.buf.len() + n * 8, 0);
        self
    }

    /// Append a slice of `u32` with a `u32` count prefix.
    pub fn u32_slice(&mut self, v: &[u32]) -> &mut Self {
        self.reserve_counted(v.len(), 4);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        self
    }
}

/// Encoded length of a count-prefixed array of `n` `f64`s — what
/// [`WireWriter::f64_slice`], [`WireWriter::f64_zeros`] and (for `n / 3`
/// triples) [`WireWriter::f64_triples`] append.  For sizing
/// [`WireWriter::with_capacity`] exactly.
pub const fn f64_array_len(n: usize) -> usize {
    4 + 8 * n
}

/// Deserialization error: ran out of bytes or malformed content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What the reader was trying to decode.
    pub context: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error while reading {}", self.context)
    }
}

impl std::error::Error for WireError {}

/// Deserializer: a cursor over a byte slice.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Start reading from the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Absolute cursor position from the start of the underlying buffer.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// True if fully consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a `bool`.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().expect("2 bytes")))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().expect("4 bytes")))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().expect("8 bytes")))
    }

    /// Read an `i32`.
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4, "i32")?.try_into().expect("4 bytes")))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().expect("8 bytes")))
    }

    /// Read an `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8, "f64")?.try_into().expect("8 bytes")))
    }

    /// Read a `usize` (stored as `u64`).
    pub fn usize(&mut self) -> Result<usize, WireError> {
        Ok(self.u64()? as usize)
    }

    /// Read a length-prefixed byte slice (borrowed).
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len, "bytes body")
    }

    /// Read a length-prefixed byte slice, returning its `(start, end)`
    /// positions within the underlying buffer instead of the bytes.  Lets a
    /// caller that holds the buffer as a shared [`bytes::Bytes`] build an
    /// O(1) aliasing sub-view rather than copying the payload out.
    pub fn bytes_span(&mut self) -> Result<(usize, usize), WireError> {
        let len = self.u32()? as usize;
        let start = self.pos;
        self.take(len, "bytes body")?;
        Ok((start, self.pos))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError { context: "utf8 string" })
    }

    /// Read a count-prefixed `f64` vector.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.u32()? as usize;
        let raw = self.take(n.checked_mul(8).ok_or(WireError { context: "f64 vec size" })?, "f64 vec body")?;
        Ok(raw.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes"))).collect())
    }

    /// Read a count-prefixed `f64` array as `[x, y, z]` triples, in one
    /// allocation (the inverse of [`WireWriter::f64_triples`]; also reads
    /// what `f64_slice` wrote for a flattened array).  Same hostile-input
    /// rules as [`WireReader::f64_vec`] — the body must be present before
    /// anything is allocated for it — and the count must be a multiple of 3.
    pub fn f64_triples(&mut self) -> Result<Vec<[f64; 3]>, WireError> {
        let n = self.u32()? as usize;
        if !n.is_multiple_of(3) {
            return Err(WireError { context: "f64 triples count" });
        }
        let raw = self.take(n.checked_mul(8).ok_or(WireError { context: "f64 triples size" })?, "f64 triples body")?;
        let f = |c: &[u8]| f64::from_le_bytes(c.try_into().expect("8 bytes"));
        Ok(raw.chunks_exact(24).map(|t| [f(&t[..8]), f(&t[8..16]), f(&t[16..])]).collect())
    }

    /// Read a count-prefixed `u32` vector.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.u32()? as usize;
        let raw = self.take(n.checked_mul(4).ok_or(WireError { context: "u32 vec size" })?, "u32 vec body")?;
        Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = WireWriter::new();
        w.u8(7).bool(true).u16(300).u32(70_000).u64(1 << 40).i32(-5).i64(-(1 << 40)).f64(3.5).usize(99);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i32().unwrap(), -5);
        assert_eq!(r.i64().unwrap(), -(1 << 40));
        assert_eq!(r.f64().unwrap(), 3.5);
        assert_eq!(r.usize().unwrap(), 99);
        assert!(r.is_done());
    }

    #[test]
    fn containers_roundtrip() {
        let mut w = WireWriter::new();
        w.bytes(b"raw").str("héllo").f64_slice(&[1.0, -2.5]).u32_slice(&[4, 5, 6]);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.f64_vec().unwrap(), vec![1.0, -2.5]);
        assert_eq!(r.u32_vec().unwrap(), vec![4, 5, 6]);
        assert!(r.is_done());
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = WireWriter::new();
        w.u64(5);
        let buf = w.finish();
        let mut r = WireReader::new(&buf[..4]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn bad_utf8_errors() {
        let mut w = WireWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert!(r.str().is_err());
    }

    #[test]
    fn truncated_vec_body_errors() {
        let mut w = WireWriter::new();
        w.u32(1000); // claims 1000 f64s, provides none
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert!(r.f64_vec().is_err());
    }

    #[test]
    fn triples_and_zeros_are_f64_slice_byte_for_byte() {
        let triples = [[1.0, -2.5, f64::MIN_POSITIVE], [0.0, -0.0, f64::INFINITY]];
        let flat: Vec<f64> = triples.iter().flatten().copied().collect();
        let (mut old, mut new) = (WireWriter::new(), WireWriter::new());
        old.f64_slice(&flat).f64_slice(&[0.0; 7]);
        new.f64_triples(&triples).f64_zeros(7);
        let buf = new.finish();
        assert_eq!(buf, old.finish());
        let mut r = WireReader::new(&buf);
        let back = r.f64_triples().unwrap();
        assert_eq!(back.len(), 2);
        for (got, want) in back.iter().flatten().zip(&flat) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert_eq!(r.f64_vec().unwrap(), vec![0.0; 7]);
        assert!(r.is_done());
    }

    #[test]
    fn array_methods_reserve_once() {
        // One growth step from empty to the array's exact extent; the old
        // element-at-a-time append ended in the next power of two.
        let fill: [fn(&mut WireWriter) -> &mut WireWriter; 5] = [
            |w| w.bytes(&[7; 100]),
            |w| w.f64_slice(&[1.5; 423]),
            |w| w.f64_triples(&[[1.5; 3]; 141]),
            |w| w.f64_zeros(423),
            |w| w.u32_slice(&[9; 33]),
        ];
        for f in fill {
            let mut w = WireWriter::new();
            f(&mut w);
            assert_eq!(w.capacity(), w.len());
        }
        assert_eq!(f64_array_len(423), 4 + 8 * 423);
        let mut w = WireWriter::with_capacity(f64_array_len(423));
        let before = w.capacity();
        w.f64_zeros(423);
        assert_eq!((w.capacity(), w.len()), (before, before));
    }

    #[test]
    fn triples_reader_rejects_lying_and_ragged_counts() {
        // Claims u32::MAX f64s (a multiple of three; a 32 GiB body) and
        // provides 16 bytes: refused before anything is allocated for it.
        let mut w = WireWriter::new();
        w.u32(u32::MAX).u64(0).u64(0);
        let buf = w.finish();
        assert_eq!(WireReader::new(&buf).f64_triples().unwrap_err().context, "f64 triples body");
        // Four values are not triples, though `f64_vec` reads them.
        let mut w = WireWriter::new();
        w.f64_slice(&[1.0; 4]);
        let buf = w.finish();
        assert_eq!(WireReader::new(&buf).f64_triples().unwrap_err().context, "f64 triples count");
        assert_eq!(WireReader::new(&buf).f64_vec().unwrap().len(), 4);
    }

    #[test]
    fn special_floats_roundtrip() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, f64::MIN_POSITIVE] {
            let mut w = WireWriter::new();
            w.f64(v);
            let buf = w.finish();
            let got = WireReader::new(&buf).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
        let mut w = WireWriter::new();
        w.f64(f64::NAN);
        let buf = w.finish();
        assert!(WireReader::new(&buf).f64().unwrap().is_nan());
    }

    #[test]
    fn empty_containers() {
        let mut w = WireWriter::new();
        w.bytes(b"").str("").f64_slice(&[]).u32_slice(&[]);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.bytes().unwrap(), b"");
        assert_eq!(r.str().unwrap(), "");
        assert!(r.f64_vec().unwrap().is_empty());
        assert!(r.u32_vec().unwrap().is_empty());
    }
}
