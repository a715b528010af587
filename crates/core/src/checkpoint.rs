//! Checkpoint/restart — and shrink/expand — built on migratability.
//!
//! Paper §2.1: *"the migration capability is leveraged to support other
//! capabilities such as automatic checkpointing, fault tolerance, and the
//! ability to shrink and expand the set of processors used by a parallel
//! job."*  Because every migratable chare can already pack and unpack its
//! state, a checkpoint is just "pack everyone": a program that registers
//! a checkpoint client gets one at every AtSync barrier (a quiescent
//! point), where every PE packs its local elements and ships the bytes to
//! PE 0, and PE 0 assembles a [`Snapshot`].
//!
//! A snapshot restores onto **any** topology: element placement is
//! recomputed by each array's initial mapping over the new PE count, so
//! a job checkpointed on 8 PEs can restart on 2 (shrink) or 32 (expand).
//! On restore the runtime calls [`crate::chare::Chare::resume_from_sync`]
//! on every element — the same hook used after load-balancing barriers —
//! instead of running the program's startup closure, so applications
//! restart their iteration loops with no extra code.
//!
//! Like migration, checkpointing requires a quiescent application (no
//! in-flight application messages, no reductions mid-tree); take
//! checkpoints at step boundaries.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use bytes::Bytes;
use mdo_netsim::Pe;

use crate::ids::{ArrayId, ElemId, ObjKey};
use crate::wire::{WireError, WireReader, WireWriter};

/// Magic string opening every serialized snapshot.
const SNAPSHOT_MAGIC: &str = "gridmdo-ckpt";
/// Current snapshot format version (v2 added the trailing CRC32).
const SNAPSHOT_VERSION: u16 = 2;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a byte slice,
/// from a lookup table built on first use: the trailer of every
/// serialized [`Snapshot`].
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        table
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One array's checkpointed elements.
#[derive(Clone, Debug, PartialEq)]
pub struct ArraySnapshot {
    /// The array.
    pub array: ArrayId,
    /// Packed state per element (dense, every element present).  Each
    /// entry is the same byte format migration uses: a `u32` reduction
    /// cursor followed by the chare's own `pack` output.
    pub elems: Vec<Vec<u8>>,
    /// PE 0's next-reduction-sequence cursor for the array, so reductions
    /// deliver with continuous numbering across the restart.
    pub red_next: u32,
}

/// A complete job checkpoint.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Per-array state, ordered by array id.
    pub arrays: Vec<ArraySnapshot>,
}

impl Snapshot {
    /// Total elements captured.
    pub fn total_elems(&self) -> usize {
        self.arrays.iter().map(|a| a.elems.len()).sum()
    }

    /// The packed state of one element.
    pub fn elem_state(&self, array: ArrayId, elem: ElemId) -> Option<&[u8]> {
        self.arrays.iter().find(|a| a.array == array).and_then(|a| a.elems.get(elem.index())).map(Vec::as_slice)
    }

    /// Serialize to bytes (suitable for a file): magic, format version,
    /// body, and a trailing CRC32 over everything before it — so a
    /// truncated or corrupted checkpoint fails structurally instead of
    /// restoring garbage.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.str(SNAPSHOT_MAGIC).u16(SNAPSHOT_VERSION).u32(self.arrays.len() as u32);
        for a in &self.arrays {
            w.u32(a.array.0).u32(a.red_next).u32(a.elems.len() as u32);
            for e in &a.elems {
                w.bytes(e);
            }
        }
        let mut bytes = w.finish();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Deserialize from bytes, verifying the magic, version and checksum.
    pub fn decode(buf: &[u8]) -> Result<Snapshot, WireError> {
        if buf.len() < 4 {
            return Err(WireError { context: "snapshot checksum" });
        }
        let (body, tail) = buf.split_at(buf.len() - 4);
        let want = u32::from_le_bytes(tail.try_into().expect("4-byte tail"));
        if crc32(body) != want {
            return Err(WireError { context: "snapshot checksum" });
        }
        let mut r = WireReader::new(body);
        let magic = r.str()?;
        if magic != SNAPSHOT_MAGIC {
            return Err(WireError { context: "snapshot magic" });
        }
        if r.u16()? != SNAPSHOT_VERSION {
            return Err(WireError { context: "snapshot version" });
        }
        let n_arrays = r.u32()? as usize;
        let mut arrays = Vec::with_capacity(n_arrays);
        for _ in 0..n_arrays {
            let array = ArrayId(r.u32()?);
            let red_next = r.u32()?;
            let n = r.u32()? as usize;
            let mut elems = Vec::with_capacity(n);
            for _ in 0..n {
                elems.push(r.bytes()?.to_vec());
            }
            arrays.push(ArraySnapshot { array, red_next, elems });
        }
        if !r.is_done() {
            return Err(WireError { context: "trailing snapshot bytes" });
        }
        Ok(Snapshot { arrays })
    }

    /// Write to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Read from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<Snapshot> {
        let bytes = std::fs::read(path)?;
        Snapshot::decode(&bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// PE 0's in-progress checkpoint assembly (runtime-internal).
#[derive(Default, Debug)]
pub(crate) struct CkptAssembly {
    /// (array, elem) -> packed state, collected from CkptData messages.
    states: BTreeMap<(u32, u32), Vec<u8>>,
    /// PEs heard from.
    pub reports: usize,
    /// Whether a checkpoint is being assembled.
    pub active: bool,
}

impl CkptAssembly {
    pub fn begin(&mut self) {
        assert!(!self.active, "checkpoint already in progress");
        self.active = true;
        self.reports = 0;
        self.states.clear();
    }

    pub fn add(&mut self, states: Vec<(crate::ids::ObjKey, bytes::Bytes)>) {
        assert!(self.active, "checkpoint data outside a checkpoint");
        for (key, state) in states {
            let prev = self.states.insert((key.array.0, key.elem.0), state.to_vec());
            assert!(prev.is_none(), "element {key:?} checkpointed twice");
        }
        self.reports += 1;
    }

    /// Assemble the snapshot; `expected` gives (array, element count,
    /// red_next) for validation and metadata.
    pub fn finish(&mut self, expected: &[(ArrayId, usize, u32)]) -> Snapshot {
        assert!(self.active);
        self.active = false;
        let mut arrays = Vec::with_capacity(expected.len());
        for &(array, n, red_next) in expected {
            let mut elems = Vec::with_capacity(n);
            for e in 0..n as u32 {
                let state = self
                    .states
                    .remove(&(array.0, e))
                    .unwrap_or_else(|| panic!("checkpoint missing a{}[{}]", array.0, e));
                elems.push(state);
            }
            arrays.push(ArraySnapshot { array, red_next, elems });
        }
        assert!(self.states.is_empty(), "checkpoint contained unknown elements");
        Snapshot { arrays }
    }
}

/// One PE's contribution to a buddy-checkpoint epoch: its packed local
/// elements, replicated on the owner and its buddy so the epoch survives
/// any single-PE loss (runtime-internal).
#[derive(Clone, Debug)]
pub(crate) struct FtPiece {
    /// Buddy-checkpoint epoch this piece belongs to.
    pub epoch: u32,
    /// The PE (in the *original* topology numbering) whose elements these are.
    pub owner: Pe,
    /// AtSync rounds completed when the piece was packed.
    pub lb_round: u32,
    /// (object, packed state) for every element local to `owner`.
    pub states: Vec<(ObjKey, Bytes)>,
    /// Per-array next reduction sequence cursors (nonempty only in PE 0's
    /// piece, which owns the reduction roots).
    pub red_next: Vec<u32>,
}

/// Reassemble the newest *complete* buddy snapshot from the pieces that
/// survived a failure.  `expected` lists (array, element count) for every
/// array.  Unlike [`CkptAssembly::finish`], missing pieces are not a bug
/// here — they are exactly what a failure looks like — so incompleteness
/// skips to the next-older epoch instead of panicking.  Returns the
/// snapshot and the AtSync round it was taken at, or `None` when no epoch
/// is complete (owner and buddy both lost, or no barrier ran yet).
pub(crate) fn assemble_buddy_snapshot(expected: &[(ArrayId, usize)], pieces: &[FtPiece]) -> Option<(Snapshot, u32)> {
    let mut epochs: Vec<u32> = pieces.iter().map(|p| p.epoch).collect();
    epochs.sort_unstable();
    epochs.dedup();
    for &epoch in epochs.iter().rev() {
        // The owner's local copy and the buddy's replica are identical;
        // take the first of each owner.
        let mut seen: BTreeSet<Pe> = BTreeSet::new();
        let mut states: BTreeMap<(u32, u32), &Bytes> = BTreeMap::new();
        let mut red_next: Option<&Vec<u32>> = None;
        let mut lb_round = 0;
        for p in pieces.iter().filter(|p| p.epoch == epoch) {
            if !seen.insert(p.owner) {
                continue;
            }
            lb_round = p.lb_round;
            if !p.red_next.is_empty() {
                red_next = Some(&p.red_next);
            }
            for (k, s) in &p.states {
                states.insert((k.array.0, k.elem.0), s);
            }
        }
        let Some(red) = red_next else { continue };
        if red.len() != expected.len() {
            continue;
        }
        let complete = expected.iter().all(|(a, n)| (0..*n as u32).all(|e| states.contains_key(&(a.0, e))));
        if !complete {
            continue;
        }
        let arrays = expected
            .iter()
            .enumerate()
            .map(|(i, &(array, n))| ArraySnapshot {
                array,
                red_next: red[i],
                elems: (0..n as u32).map(|e| states[&(array.0, e)].to_vec()).collect(),
            })
            .collect();
        return Some((Snapshot { arrays }, lb_round));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ObjKey;
    use bytes::Bytes;

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn sample() -> Snapshot {
        Snapshot {
            arrays: vec![
                ArraySnapshot { array: ArrayId(0), red_next: 3, elems: vec![b"e0".to_vec(), b"e1-longer".to_vec()] },
                ArraySnapshot { array: ArrayId(1), red_next: 0, elems: vec![vec![]] },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let back = Snapshot::decode(&snap.encode()).expect("decodes");
        assert_eq!(back, snap);
        assert_eq!(back.total_elems(), 3);
        assert_eq!(back.elem_state(ArrayId(0), ElemId(1)), Some(&b"e1-longer"[..]));
        assert_eq!(back.elem_state(ArrayId(2), ElemId(0)), None);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Snapshot::decode(b"not a snapshot").is_err());
        assert!(Snapshot::decode(&[]).is_err());
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(Snapshot::decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = sample().encode();
        for cut in [1, 4, bytes.len() / 2, bytes.len() - 1] {
            let err = Snapshot::decode(&bytes[..cut]).expect_err("truncated snapshot must not restore");
            assert_eq!(err.context, "snapshot checksum");
        }
    }

    #[test]
    fn decode_rejects_wrong_version() {
        // Re-encode the sample body under a bogus version, with a valid CRC:
        // the version check itself must fire.
        let mut w = WireWriter::new();
        w.str(SNAPSHOT_MAGIC).u16(99).u32(0);
        let mut bytes = w.finish();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let err = Snapshot::decode(&bytes).expect_err("future version rejected");
        assert_eq!(err.context, "snapshot version");
    }

    proptest::proptest! {
        /// Flipping any single byte of an encoded snapshot must surface as
        /// a structured decode error, never as a silently-garbage restore.
        #[test]
        fn single_byte_flip_is_detected(pos in 0usize..200, bit in 0u8..8) {
            let bytes = sample().encode();
            let pos = pos % bytes.len();
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << bit;
            proptest::prop_assert!(Snapshot::decode(&bad).is_err(), "flip at {} undetected", pos);
        }
    }

    #[test]
    fn file_roundtrip() {
        let snap = sample();
        let dir = std::env::temp_dir().join(format!("gridmdo-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("snap.ckpt");
        snap.save(&path).expect("save");
        let back = Snapshot::load(&path).expect("load");
        assert_eq!(back, snap);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn assembly_collects_and_validates() {
        let mut asm = CkptAssembly::default();
        asm.begin();
        asm.add(vec![(ObjKey::new(ArrayId(0), ElemId(1)), Bytes::from_static(b"one"))]);
        asm.add(vec![(ObjKey::new(ArrayId(0), ElemId(0)), Bytes::from_static(b"zero"))]);
        assert_eq!(asm.reports, 2);
        let snap = asm.finish(&[(ArrayId(0), 2, 7)]);
        assert_eq!(snap.arrays[0].elems, vec![b"zero".to_vec(), b"one".to_vec()]);
        assert_eq!(snap.arrays[0].red_next, 7);
        assert!(!asm.active);
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn assembly_detects_missing_elements() {
        let mut asm = CkptAssembly::default();
        asm.begin();
        asm.add(vec![(ObjKey::new(ArrayId(0), ElemId(0)), Bytes::from_static(b"x"))]);
        asm.finish(&[(ArrayId(0), 2, 0)]);
    }

    fn piece(epoch: u32, owner: u32, lb_round: u32, elems: &[(u32, u32, &str)], red: &[u32]) -> FtPiece {
        FtPiece {
            epoch,
            owner: Pe(owner),
            lb_round,
            states: elems
                .iter()
                .map(|&(a, e, s)| (ObjKey::new(ArrayId(a), ElemId(e)), Bytes::from(s.as_bytes().to_vec())))
                .collect(),
            red_next: red.to_vec(),
        }
    }

    #[test]
    fn buddy_assembly_prefers_newest_complete_epoch() {
        let expected = [(ArrayId(0), 2)];
        // Epoch 1 is complete (both elements + PE 0's red cursor); epoch 2
        // lost element 1 (owner and buddy both gone).
        let pieces = vec![
            piece(1, 0, 3, &[(0, 0, "e0@1")], &[5]),
            piece(1, 1, 3, &[(0, 1, "e1@1")], &[]),
            piece(1, 1, 3, &[(0, 1, "e1@1")], &[]), // buddy's replica of the same piece
            piece(2, 0, 6, &[(0, 0, "e0@2")], &[9]),
        ];
        let (snap, lb_round) = assemble_buddy_snapshot(&expected, &pieces).expect("epoch 1 is complete");
        assert_eq!(lb_round, 3);
        assert_eq!(snap.arrays[0].red_next, 5);
        assert_eq!(snap.arrays[0].elems, vec![b"e0@1".to_vec(), b"e1@1".to_vec()]);
    }

    #[test]
    fn buddy_assembly_fails_when_owner_and_buddy_both_lost() {
        let expected = [(ArrayId(0), 2)];
        let pieces = vec![piece(1, 0, 3, &[(0, 0, "e0")], &[5])];
        assert!(assemble_buddy_snapshot(&expected, &pieces).is_none());
        assert!(assemble_buddy_snapshot(&expected, &[]).is_none());
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn assembly_detects_duplicates() {
        let mut asm = CkptAssembly::default();
        asm.begin();
        asm.add(vec![(ObjKey::new(ArrayId(0), ElemId(0)), Bytes::from_static(b"x"))]);
        asm.add(vec![(ObjKey::new(ArrayId(0), ElemId(0)), Bytes::from_static(b"y"))]);
    }
}
