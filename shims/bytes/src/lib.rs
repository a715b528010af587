//! Offline shim for the `bytes` crate: an immutable, cheaply-cloneable
//! byte buffer with O(1) slicing, plus a growable [`BytesMut`] staging
//! buffer that freezes into a shared [`Bytes`] without copying.
//!
//! Internally `Bytes` is an `Arc<[u8]>` plus a `(start, end)` window, which
//! gives the two properties the real crate is used for here: clones share
//! the allocation, and `slice` is constant-time.  `BytesMut` is the write
//! side: encode many records into one buffer, `freeze` once, and hand out
//! O(1) sub-views of the single allocation.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable and sliceable chunk of contiguous memory.
///
/// Backed by `Arc<Vec<u8>>` (not `Arc<[u8]>`) so `From<Vec<u8>>` — and
/// therefore [`BytesMut::freeze`] — moves the vector into the shared
/// allocation instead of copying its contents.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        Bytes { data: None, start: 0, end: 0 }
    }

    /// A buffer over a static slice.  (The shim copies on first use of the
    /// allocation-sharing path; `from_static` itself allocates once.)
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Copy `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length of the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// O(1) sub-view of this buffer sharing the same allocation.
    ///
    /// Panics if the range is out of bounds, matching the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice {begin}..{end} out of range for length {len}");
        Bytes { data: self.data.clone(), start: self.start + begin, end: self.start + end }
    }

    /// The bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(d) => &d[self.start..self.end],
            None => &[],
        }
    }

    /// Copy the view into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { data: Some(Arc::new(v)), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A growable byte buffer that can be frozen into a shared [`Bytes`].
///
/// The shim keeps only the subset the workspace needs: append-style writes
/// plus `freeze`.  Freezing moves the backing `Vec` into an `Arc<[u8]>`
/// (one allocation-ownership transfer, no byte copy beyond what `Arc::from`
/// needs), so the write-once/read-shared pattern costs one allocation per
/// frame rather than one per record.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Current capacity of the backing storage.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Reserve room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Drop the contents, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Truncate to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a slice.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a `u32` in little-endian order.
    pub fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` in little-endian order.
    pub fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// The written bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// The written bytes as a mutable slice (for length back-patching).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Convert into an immutable shared buffer; `self` is consumed and the
    /// contents are not copied element-by-element.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Take the backing vector (for codecs that append through `Vec` APIs
    /// and hand the buffer back via `From<Vec<u8>>`).
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Freeze the current contents and leave `self` empty but reusable.
    ///
    /// This is the steady-state path for frame buffers: the staging buffer
    /// is handed off and a fresh (empty, unallocated) one takes its place.
    pub fn take_frozen(&mut self) -> Bytes {
        Bytes::from(std::mem::take(&mut self.buf))
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> Self {
        BytesMut { buf }
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Self {
        m.freeze()
    }
}

impl Extend<u8> for BytesMut {
    fn extend<T: IntoIterator<Item = u8>>(&mut self, iter: T) {
        self.buf.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_views() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        assert_eq!(&b[..], &[1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(..2);
        assert_eq!(&s2[..], &[2, 3]);
        assert_eq!(b.slice(2..), Bytes::from(vec![3, 4, 5]));
    }

    #[test]
    fn clones_share_storage() {
        let b = Bytes::from(vec![9u8; 1024]);
        let c = b.clone();
        let (Some(a1), Some(a2)) = (&b.data, &c.data) else { panic!("allocated") };
        assert!(Arc::ptr_eq(a1, a2));
    }

    #[test]
    fn empty_and_eq() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::new(), Bytes::from(Vec::new()));
        assert_eq!(Bytes::from_static(b"abc"), Bytes::copy_from_slice(b"abc"));
        assert_eq!(Bytes::from_static(b"abc"), *b"abc".to_vec());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_bounds_checked() {
        Bytes::from(vec![1, 2, 3]).slice(0..4);
    }

    #[test]
    fn bytes_mut_roundtrip() {
        let mut m = BytesMut::with_capacity(16);
        assert!(m.is_empty());
        m.put_u8(1);
        m.put_slice(&[2, 3]);
        m.put_u32_le(0x0605_0404);
        m.put_u64_le(7);
        assert_eq!(m.len(), 15);
        let b = m.freeze();
        assert_eq!(&b[..3], &[1, 2, 3]);
        assert_eq!(&b[3..7], &0x0605_0404u32.to_le_bytes());
    }

    #[test]
    fn bytes_mut_take_frozen_reuses() {
        let mut m = BytesMut::new();
        m.put_slice(b"abc");
        let first = m.take_frozen();
        assert_eq!(&first[..], b"abc");
        assert!(m.is_empty());
        m.put_slice(b"de");
        assert_eq!(&m.take_frozen()[..], b"de");
        // The earlier freeze is unaffected by buffer reuse.
        assert_eq!(&first[..], b"abc");
    }

    #[test]
    fn frozen_slices_share_one_allocation() {
        let mut m = BytesMut::new();
        m.put_slice(&[10, 20, 30, 40]);
        let b = m.freeze();
        let (s1, s2) = (b.slice(0..2), b.slice(2..4));
        let (Some(a0), Some(a1), Some(a2)) = (&b.data, &s1.data, &s2.data) else { panic!("allocated") };
        assert!(Arc::ptr_eq(a0, a1) && Arc::ptr_eq(a0, a2));
        assert_eq!(&s1[..], &[10, 20]);
        assert_eq!(&s2[..], &[30, 40]);
    }

    #[test]
    fn bytes_mut_clear_and_truncate() {
        let mut m = BytesMut::from(vec![1, 2, 3, 4]);
        m.truncate(2);
        assert_eq!(m.as_slice(), &[1, 2]);
        let cap = m.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), cap);
    }
}
