//! Jumbo-frame codec for the aggregation layer.
//!
//! A frame packs many serialized envelopes bound for the same (src, dst)
//! PE pair into one wire payload:
//!
//! ```text
//! [FRAME_TAG] ( [len: u32 LE] [priority: i32 LE] [chunk bytes…] )*
//! ```
//!
//! There is no count field — the frame is parsed until exhausted, so a
//! truncated or mangled frame is a structured [`FrameError`], never a
//! panic.  Chunks carry their own mailbox priority so the receiving side
//! can rebuild per-message [`crate::Packet`]s without understanding the runtime's
//! envelope encoding.  [`split`] returns zero-copy sub-views into the
//! frame's single allocation ([`Bytes::slice`]), which the runtime's
//! borrowing envelope decode then aliases — one allocation per frame, not
//! per message.
//!
//! The tag is chosen to collide with neither the runtime's envelope tag
//! (`0xE5`) nor the reliable layer's `KIND_DATA`/`KIND_ACK` (`0xD7`/
//! `0xA7`): in passthrough mode frames and bare envelopes share the raw
//! cross-cluster chain, and the first byte is what tells them apart.

use bytes::{Bytes, BytesMut};

/// Leading byte of every jumbo frame.
pub const FRAME_TAG: u8 = 0xF7;

/// Per-chunk framing overhead: length prefix + priority.
pub const CHUNK_HEADER_LEN: usize = 4 + 4;

/// True if `payload` looks like a jumbo frame.
pub fn is_frame(payload: &[u8]) -> bool {
    payload.first() == Some(&FRAME_TAG)
}

/// A malformed frame (truncated chunk header or body, or wrong tag).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameError {
    /// What was being parsed when the frame ran out.
    pub context: &'static str,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed jumbo frame: {}", self.context)
    }
}

impl std::error::Error for FrameError {}

/// Accumulates chunks for one (src, dst) pair into a frame buffer.
///
/// The builder stays warm across frames: [`FrameBuilder::take`] freezes the
/// current buffer into an immutable frame and re-arms the builder, so the
/// steady-state cost per envelope is an in-place append — no per-envelope
/// allocation.
pub struct FrameBuilder {
    buf: BytesMut,
    count: u32,
    min_priority: i32,
}

impl Default for FrameBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameBuilder {
    /// An empty builder (tag already written).
    pub fn new() -> Self {
        let mut buf = BytesMut::with_capacity(256);
        buf.put_u8(FRAME_TAG);
        FrameBuilder { buf, count: 0, min_priority: i32::MAX }
    }

    /// Append one chunk whose bytes are produced by `write` directly into
    /// the frame buffer (this is what makes the send path copy-light: the
    /// envelope encoder targets the frame allocation itself).  Returns the
    /// chunk's body length, so flush policy can react to bulk messages.
    pub fn push_with<F: FnOnce(&mut BytesMut)>(&mut self, priority: i32, write: F) -> usize {
        self.buf.put_u32_le(0); // length placeholder, patched below
        let len_at = self.buf.len() - 4;
        self.buf.put_u32_le(priority as u32);
        let body_at = self.buf.len();
        write(&mut self.buf);
        let body_len = self.buf.len() - body_at;
        self.buf.as_mut_slice()[len_at..len_at + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
        self.count += 1;
        self.min_priority = self.min_priority.min(priority);
        body_len
    }

    /// Append one pre-serialized chunk.
    pub fn push(&mut self, priority: i32, chunk: &[u8]) -> usize {
        self.push_with(priority, |buf| buf.put_slice(chunk))
    }

    /// Chunks buffered so far.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// True if no chunks are buffered.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Payload bytes buffered (chunk bodies, excluding framing) — the
    /// quantity the flush-by-size policy thresholds on.
    pub fn payload_len(&self) -> usize {
        self.buf.len() - 1 - self.count as usize * CHUNK_HEADER_LEN
    }

    /// Total frame bytes as they would go on the wire.
    pub fn frame_len(&self) -> usize {
        self.buf.len()
    }

    /// The most urgent priority among buffered chunks (the frame travels
    /// at the urgency of its most urgent passenger).
    pub fn min_priority(&self) -> i32 {
        self.min_priority
    }

    /// Freeze the buffered chunks into a frame and re-arm the builder.
    /// Returns `(min_priority, frame, count)`, or `None` if empty.
    pub fn take(&mut self) -> Option<(i32, Bytes, u32)> {
        if self.count == 0 {
            return None;
        }
        let frame = self.buf.take_frozen();
        let out = (self.min_priority, frame, self.count);
        self.buf.put_u8(FRAME_TAG);
        self.count = 0;
        self.min_priority = i32::MAX;
        Some(out)
    }
}

/// Split a frame into `(priority, chunk)` pairs.  Each chunk is a zero-copy
/// sub-view of `frame`'s allocation.
pub fn split(frame: &Bytes) -> Result<Vec<(i32, Bytes)>, FrameError> {
    let buf = frame.as_slice();
    if buf.first() != Some(&FRAME_TAG) {
        return Err(FrameError { context: "frame tag" });
    }
    let mut out = Vec::new();
    let mut pos = 1usize;
    while pos < buf.len() {
        if buf.len() - pos < CHUNK_HEADER_LEN {
            return Err(FrameError { context: "chunk header" });
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4-byte field")) as usize;
        let priority = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4-byte field")) as i32;
        pos += CHUNK_HEADER_LEN;
        if buf.len() - pos < len {
            return Err(FrameError { context: "chunk body" });
        }
        out.push((priority, frame.slice(pos..pos + len)));
        pos += len;
    }
    if out.is_empty() {
        return Err(FrameError { context: "empty frame" });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_chunks_and_priorities() {
        let mut fb = FrameBuilder::new();
        assert!(fb.is_empty());
        fb.push(3, b"alpha");
        fb.push_with(-2, |buf| buf.put_slice(b"beta!"));
        fb.push(7, b"");
        assert_eq!(fb.count(), 3);
        assert_eq!(fb.min_priority(), -2);
        assert_eq!(fb.payload_len(), 10);
        let (prio, frame, count) = fb.take().expect("non-empty");
        assert_eq!((prio, count), (-2, 3));
        assert!(is_frame(&frame));
        let chunks = split(&frame).expect("well-formed");
        assert_eq!(chunks.len(), 3);
        assert_eq!((chunks[0].0, &chunks[0].1[..]), (3, &b"alpha"[..]));
        assert_eq!((chunks[1].0, &chunks[1].1[..]), (-2, &b"beta!"[..]));
        assert_eq!((chunks[2].0, &chunks[2].1[..]), (7, &b""[..]));
    }

    #[test]
    fn chunks_alias_the_frame_allocation() {
        let mut fb = FrameBuilder::new();
        fb.push(0, b"payload-one");
        fb.push(0, b"payload-two");
        let (_, frame, _) = fb.take().unwrap();
        let base = frame.as_slice().as_ptr() as usize;
        let end = base + frame.len();
        for (_, chunk) in split(&frame).unwrap() {
            let p = chunk.as_slice().as_ptr() as usize;
            assert!(p >= base && p + chunk.len() <= end, "chunk is a sub-view of the frame");
        }
    }

    #[test]
    fn builder_rearms_after_take() {
        let mut fb = FrameBuilder::new();
        fb.push(1, b"x");
        assert!(fb.take().is_some());
        assert!(fb.is_empty());
        assert!(fb.take().is_none());
        fb.push(2, b"y");
        let (prio, frame, count) = fb.take().unwrap();
        assert_eq!((prio, count), (2, 1));
        assert_eq!(&split(&frame).unwrap()[0].1[..], b"y");
    }

    #[test]
    fn malformed_frames_are_structured_errors() {
        assert_eq!(split(&Bytes::from_static(b"nope")).unwrap_err().context, "frame tag");
        assert_eq!(split(&Bytes::from_static(&[FRAME_TAG])).unwrap_err().context, "empty frame");
        assert_eq!(split(&Bytes::from_static(&[FRAME_TAG, 1, 2, 3])).unwrap_err().context, "chunk header");
        // Claims an 8-byte body but carries none.
        let mut v = vec![FRAME_TAG];
        v.extend_from_slice(&8u32.to_le_bytes());
        v.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(split(&Bytes::from(v)).unwrap_err().context, "chunk body");
    }

    #[test]
    fn tags_do_not_collide() {
        assert_ne!(FRAME_TAG, crate::reliable::KIND_DATA);
        assert_ne!(FRAME_TAG, crate::reliable::KIND_ACK);
        assert_ne!(FRAME_TAG, 0xE5, "runtime envelope tag");
    }
}
