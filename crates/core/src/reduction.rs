//! Reduction combining machinery.
//!
//! Reductions run over the run's collective
//! [`SpanTree`](mdo_netsim::SpanTree), in whichever shape it has: each
//! element contributes exactly once per reduction; a PE first folds its
//! local contributions ([`PeReductions`]), then joins that partial with
//! one complete partial per tree child in fixed tree order
//! ([`TreeReductions`]); the joined partial, covering the PE's whole
//! subtree, flows to the parent; the root (PE 0) delivers results to the
//! host client **in sequence order**, regardless of the order in which
//! racing reductions complete.
//!
//! This module is pure bookkeeping (no I/O), so it is testable in
//! isolation; `node.rs` wires it to the message fabric.

use std::collections::{BTreeMap, HashMap};

use crate::chare::ContribData;
use crate::envelope::{ReduceData, ReduceOp};
use crate::ids::ObjKey;

/// Element-wise combine of two partials under `op`.
pub fn combine(op: ReduceOp, acc: &mut ReduceData, other: ReduceData) {
    match (op, acc, other) {
        (ReduceOp::SumF64, ReduceData::F64(a), ReduceData::F64(b)) => {
            assert_eq!(a.len(), b.len(), "SumF64 contributions must agree on length");
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        (ReduceOp::MinF64, ReduceData::F64(a), ReduceData::F64(b)) => {
            assert_eq!(a.len(), b.len(), "MinF64 contributions must agree on length");
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.min(y);
            }
        }
        (ReduceOp::MaxF64, ReduceData::F64(a), ReduceData::F64(b)) => {
            assert_eq!(a.len(), b.len(), "MaxF64 contributions must agree on length");
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.max(y);
            }
        }
        (ReduceOp::SumU64, ReduceData::U64(a), ReduceData::U64(b)) => {
            assert_eq!(a.len(), b.len(), "SumU64 contributions must agree on length");
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        (ReduceOp::Gather, ReduceData::Gathered(a), ReduceData::Gathered(b)) => {
            // Merge keeping sorted-by-element order (both sides sorted).
            let mut merged = Vec::with_capacity(a.len() + b.len());
            let mut ai = std::mem::take(a).into_iter().peekable();
            let mut bi = b.into_iter().peekable();
            loop {
                match (ai.peek(), bi.peek()) {
                    (Some(x), Some(y)) => {
                        if x.0 <= y.0 {
                            merged.push(ai.next().expect("peeked"));
                        } else {
                            merged.push(bi.next().expect("peeked"));
                        }
                    }
                    (Some(_), None) => merged.push(ai.next().expect("peeked")),
                    (None, Some(_)) => merged.push(bi.next().expect("peeked")),
                    (None, None) => break,
                }
            }
            *a = merged;
        }
        (op, acc, other) => {
            panic!("reduction data mismatch: op {op:?} with acc {acc:?} and contribution {other:?}")
        }
    }
}

/// Lift an element contribution into tree-combinable form.
pub fn lift(from: ObjKey, data: ContribData) -> ReduceData {
    match data {
        ContribData::F64(v) => ReduceData::F64(v),
        ContribData::U64(v) => ReduceData::U64(v),
        ContribData::Raw(bytes) => ReduceData::Gathered(vec![(from.elem.0, bytes)]),
    }
}

/// A partially-combined reduction on one PE.
#[derive(Debug)]
pub struct Partial {
    /// The operator (fixed by the first contribution folded in).
    pub op: ReduceOp,
    /// Contributions covered so far.
    pub count: u64,
    /// The running value.
    pub data: ReduceData,
}

/// Per-PE, per-array reduction state.
#[derive(Default, Debug)]
pub struct PeReductions {
    /// seq → partial, for reductions still accumulating here.
    pending: BTreeMap<u32, Partial>,
    /// Next reduction sequence number for each local element.
    elem_seq: HashMap<ObjKey, u32>,
}

impl PeReductions {
    /// Fresh state.
    pub fn new() -> Self {
        PeReductions::default()
    }

    /// True if no reduction is in flight on this PE (required at LB
    /// barriers, where element placement — and thus expected counts —
    /// changes).
    pub fn is_quiescent(&self) -> bool {
        self.pending.is_empty()
    }

    /// Forget per-element sequence cursors for elements leaving this PE,
    /// exporting them so the destination PE can continue the numbering.
    pub fn export_elem_seq(&mut self, key: ObjKey) -> u32 {
        self.elem_seq.remove(&key).unwrap_or(0)
    }

    /// Read an element's sequence cursor without removing it (used when
    /// packing checkpoints, which must not disturb live state).
    pub fn peek_elem_seq(&self, key: ObjKey) -> u32 {
        self.elem_seq.get(&key).copied().unwrap_or(0)
    }

    /// Adopt a migrated element's sequence cursor.
    pub fn import_elem_seq(&mut self, key: ObjKey, seq: u32) {
        if seq > 0 {
            self.elem_seq.insert(key, seq);
        }
    }

    /// Record a local element's contribution; returns the reduction seq it
    /// joined.
    pub fn contribute(&mut self, from: ObjKey, op: ReduceOp, data: ContribData) -> u32 {
        let seq_ref = self.elem_seq.entry(from).or_insert(0);
        let seq = *seq_ref;
        *seq_ref += 1;
        let data = lift(from, data);
        match self.pending.get_mut(&seq) {
            Some(p) => {
                assert_eq!(p.op, op, "reduction {seq}: conflicting operators");
                combine(op, &mut p.data, data);
                p.count += 1;
            }
            None => {
                self.pending.insert(seq, Partial { op, count: 1, data });
            }
        }
        seq
    }

    /// Remove and return every reduction whose partial now covers
    /// `expected` contributions (the element count on this PE).
    pub fn take_complete(&mut self, expected: u64) -> Vec<(u32, Partial)> {
        let done: Vec<u32> = self.pending.iter().filter(|(_, p)| p.count >= expected).map(|(&s, _)| s).collect();
        done.into_iter()
            .map(|s| {
                let p = self.pending.remove(&s).expect("key just observed");
                assert_eq!(p.count, expected, "reduction {s} over-contributed");
                (s, p)
            })
            .collect()
    }
}

/// Reduction state for one PE and one array: the locally-folded partial
/// plus buffered child partials, combined in **fixed order** — local
/// contributions first, then children ascending by PE — once every
/// expected piece is present.
///
/// Folding child partials in arrival order would be fine for the exact
/// operators but would let the delivery schedule pick the float combine
/// order.  Here the combine order is a function of the tree alone, so a
/// reduction's bit pattern cannot depend on which child's hop lands
/// first.
#[derive(Default, Debug)]
struct TreePending {
    local: Option<Partial>,
    /// child PE number → that subtree's complete partial.
    children: BTreeMap<u32, Partial>,
}

/// Per-PE, per-array buffer of reductions in flight.
#[derive(Default, Debug)]
pub struct TreeReductions {
    pending: BTreeMap<u32, TreePending>,
}

impl TreeReductions {
    /// Fresh state.
    pub fn new() -> Self {
        TreeReductions::default()
    }

    /// True if no reduction is buffered here (required at LB barriers,
    /// exactly like [`PeReductions::is_quiescent`]).
    pub fn is_quiescent(&self) -> bool {
        self.pending.is_empty()
    }

    /// Buffer this PE's locally-complete partial for `seq`.
    pub fn offer_local(&mut self, seq: u32, partial: Partial) {
        let slot = self.pending.entry(seq).or_default();
        assert!(slot.local.is_none(), "reduction {seq}: local partial offered twice");
        slot.local = Some(partial);
    }

    /// Buffer a child subtree's complete partial for `seq`.
    pub fn offer_child(&mut self, seq: u32, child: u32, partial: Partial) {
        let prev = self.pending.entry(seq).or_default().children.insert(child, partial);
        assert!(prev.is_none(), "reduction {seq}: child pe{child} reported twice");
    }

    /// Remove and return every reduction for which the local partial (when
    /// `need_local`) and all `expected_children` are present, combined in
    /// fixed order (local, then children ascending by PE).  Each result is
    /// checked against `total`, the subtree's element count.
    pub fn take_complete(&mut self, need_local: bool, expected_children: &[u32], total: u64) -> Vec<(u32, Partial)> {
        let ready: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, tp)| {
                (!need_local || tp.local.is_some()) && expected_children.iter().all(|c| tp.children.contains_key(c))
            })
            .map(|(&s, _)| s)
            .collect();
        ready
            .into_iter()
            .map(|seq| {
                let tp = self.pending.remove(&seq).expect("key just observed");
                for child in tp.children.keys() {
                    assert!(
                        expected_children.contains(child),
                        "reduction {seq}: partial from pe{child}, which is not an expected child"
                    );
                }
                let mut pieces = tp.local.into_iter().chain(tp.children.into_values());
                let mut acc = pieces.next().expect("a complete reduction has at least one piece");
                for p in pieces {
                    assert_eq!(acc.op, p.op, "reduction {seq}: conflicting operators");
                    combine(acc.op, &mut acc.data, p.data);
                    acc.count += p.count;
                }
                assert_eq!(acc.count, total, "reduction {seq}: subtree count mismatch");
                (seq, acc)
            })
            .collect()
    }
}

/// Root-side in-order delivery buffer.
#[derive(Default, Debug)]
pub struct RootDelivery {
    next: u32,
    ready: BTreeMap<u32, Partial>,
}

impl RootDelivery {
    /// Fresh buffer starting at seq 0.
    pub fn new() -> Self {
        RootDelivery::default()
    }

    /// The next sequence number that will be delivered.
    pub fn next_seq(&self) -> u32 {
        self.next
    }

    /// Resume numbering from a checkpointed cursor (only valid on a fresh
    /// buffer).
    pub fn set_next(&mut self, next: u32) {
        assert!(self.ready.is_empty(), "cannot reseat a non-empty delivery buffer");
        self.next = next;
    }

    /// Offer a finished reduction; returns all now-deliverable results in
    /// sequence order.
    pub fn push(&mut self, seq: u32, partial: Partial) -> Vec<(u32, Partial)> {
        let prev = self.ready.insert(seq, partial);
        assert!(prev.is_none(), "reduction {seq} completed twice");
        let mut out = Vec::new();
        while let Some(p) = self.ready.remove(&self.next) {
            out.push((self.next, p));
            self.next += 1;
        }
        out
    }

    /// True if nothing is buffered out of order.
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ArrayId, ElemId};

    fn key(e: u32) -> ObjKey {
        ObjKey::new(ArrayId(1), ElemId(e))
    }

    #[test]
    fn sum_min_max_combine() {
        let mut a = ReduceData::F64(vec![1.0, 5.0]);
        combine(ReduceOp::SumF64, &mut a, ReduceData::F64(vec![2.0, -1.0]));
        assert_eq!(a, ReduceData::F64(vec![3.0, 4.0]));

        let mut b = ReduceData::F64(vec![1.0, 5.0]);
        combine(ReduceOp::MinF64, &mut b, ReduceData::F64(vec![2.0, -1.0]));
        assert_eq!(b, ReduceData::F64(vec![1.0, -1.0]));

        let mut c = ReduceData::F64(vec![1.0, 5.0]);
        combine(ReduceOp::MaxF64, &mut c, ReduceData::F64(vec![2.0, -1.0]));
        assert_eq!(c, ReduceData::F64(vec![2.0, 5.0]));

        let mut d = ReduceData::U64(vec![7]);
        combine(ReduceOp::SumU64, &mut d, ReduceData::U64(vec![8]));
        assert_eq!(d, ReduceData::U64(vec![15]));
    }

    #[test]
    fn gather_merges_sorted() {
        let mut a = ReduceData::Gathered(vec![(1, b"b".to_vec()), (4, b"e".to_vec())]);
        combine(
            ReduceOp::Gather,
            &mut a,
            ReduceData::Gathered(vec![(0, b"a".to_vec()), (2, b"c".to_vec()), (9, b"z".to_vec())]),
        );
        match a {
            ReduceData::Gathered(g) => {
                let idx: Vec<u32> = g.iter().map(|(i, _)| *i).collect();
                assert_eq!(idx, vec![0, 1, 2, 4, 9]);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "agree on length")]
    fn length_mismatch_panics() {
        let mut a = ReduceData::F64(vec![1.0]);
        combine(ReduceOp::SumF64, &mut a, ReduceData::F64(vec![1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "data mismatch")]
    fn kind_mismatch_panics() {
        let mut a = ReduceData::F64(vec![1.0]);
        combine(ReduceOp::SumF64, &mut a, ReduceData::U64(vec![1]));
    }

    #[test]
    fn contribute_assigns_increasing_seq_per_element() {
        let mut r = PeReductions::new();
        assert_eq!(r.contribute(key(0), ReduceOp::SumF64, ContribData::F64(vec![1.0])), 0);
        assert_eq!(r.contribute(key(0), ReduceOp::SumF64, ContribData::F64(vec![2.0])), 1);
        assert_eq!(r.contribute(key(1), ReduceOp::SumF64, ContribData::F64(vec![3.0])), 0);
        // seq 0 now has both elements' contributions.
        let done = r.take_complete(2);
        assert_eq!(done.len(), 1);
        let (seq, p) = &done[0];
        assert_eq!(*seq, 0);
        assert_eq!(p.count, 2);
        assert_eq!(p.data, ReduceData::F64(vec![4.0]));
        assert!(!r.is_quiescent(), "seq 1 still pending");
    }

    #[test]
    fn take_complete_respects_expected() {
        let mut r = PeReductions::new();
        r.contribute(key(0), ReduceOp::SumF64, ContribData::F64(vec![1.0]));
        assert!(r.take_complete(2).is_empty(), "not complete with 1 of 2");
        r.contribute(key(1), ReduceOp::SumF64, ContribData::F64(vec![1.0]));
        assert_eq!(r.take_complete(2).len(), 1);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = PeReductions::new();
        r.contribute(key(0), ReduceOp::SumF64, ContribData::F64(vec![1.0]));
        assert_eq!(r.peek_elem_seq(key(0)), 1);
        assert_eq!(r.peek_elem_seq(key(0)), 1, "idempotent");
        assert_eq!(r.peek_elem_seq(key(9)), 0, "unknown elements are at 0");
    }

    #[test]
    fn root_delivery_cursor_roundtrip() {
        let mut root = RootDelivery::new();
        assert_eq!(root.next_seq(), 0);
        root.set_next(5);
        let p = Partial { op: ReduceOp::SumF64, count: 1, data: ReduceData::F64(vec![1.0]) };
        let out = root.push(5, p);
        assert_eq!(out.len(), 1);
        assert_eq!(root.next_seq(), 6);
    }

    #[test]
    fn seq_cursor_migration() {
        let mut src = PeReductions::new();
        src.contribute(key(0), ReduceOp::SumF64, ContribData::F64(vec![1.0]));
        src.take_complete(1);
        let cursor = src.export_elem_seq(key(0));
        assert_eq!(cursor, 1);
        let mut dst = PeReductions::new();
        dst.import_elem_seq(key(0), cursor);
        assert_eq!(dst.contribute(key(0), ReduceOp::SumF64, ContribData::F64(vec![2.0])), 1);
    }

    #[test]
    fn root_delivery_orders_results() {
        let mut root = RootDelivery::new();
        let p = |v: f64| Partial { op: ReduceOp::SumF64, count: 1, data: ReduceData::F64(vec![v]) };
        assert!(root.push(1, p(1.0)).is_empty(), "seq 1 waits for seq 0");
        assert!(root.push(2, p(2.0)).is_empty());
        let out = root.push(0, p(0.0));
        let seqs: Vec<u32> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(root.is_empty());
        let out = root.push(3, p(3.0));
        assert_eq!(out.len(), 1);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let mut root = RootDelivery::new();
        let p = || Partial { op: ReduceOp::SumF64, count: 1, data: ReduceData::F64(vec![0.0]) };
        root.push(1, p());
        root.push(1, p());
    }

    #[test]
    fn tree_combine_order_is_fixed_regardless_of_arrival() {
        // Same pieces, two arrival orders: identical bits out, because the
        // combine order is (local, child 1, child 4), not arrival order.
        let local = || Partial { op: ReduceOp::Gather, count: 1, data: ReduceData::Gathered(vec![(7, b"g".to_vec())]) };
        let c1 = || Partial {
            op: ReduceOp::Gather,
            count: 2,
            data: ReduceData::Gathered(vec![(0, b"a".to_vec()), (3, b"d".to_vec())]),
        };
        let c4 = || Partial { op: ReduceOp::Gather, count: 1, data: ReduceData::Gathered(vec![(5, b"f".to_vec())]) };
        let run = |order: &[u32]| {
            let mut t = TreeReductions::new();
            for &who in order {
                match who {
                    0 => t.offer_local(0, local()),
                    1 => t.offer_child(0, 1, c1()),
                    4 => t.offer_child(0, 4, c4()),
                    _ => unreachable!(),
                }
            }
            let done = t.take_complete(true, &[1, 4], 4);
            assert!(t.is_quiescent());
            format!("{:?}", done)
        };
        assert_eq!(run(&[0, 1, 4]), run(&[4, 1, 0]));
        assert_eq!(run(&[1, 4, 0]), run(&[0, 4, 1]));
    }

    #[test]
    fn tree_take_complete_waits_for_every_piece() {
        let p = |n: u64| Partial { op: ReduceOp::SumU64, count: n, data: ReduceData::U64(vec![n]) };
        let mut t = TreeReductions::new();
        t.offer_local(0, p(2));
        assert!(t.take_complete(true, &[3], 5).is_empty(), "child 3 still missing");
        t.offer_child(0, 3, p(3));
        let done = t.take_complete(true, &[3], 5);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.data, ReduceData::U64(vec![5]));
        // A PE with no local elements completes on children alone.
        let mut t = TreeReductions::new();
        t.offer_child(4, 2, p(5));
        assert_eq!(t.take_complete(false, &[2], 5).len(), 1);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn tree_duplicate_child_partial_panics() {
        let p = || Partial { op: ReduceOp::SumU64, count: 1, data: ReduceData::U64(vec![1]) };
        let mut t = TreeReductions::new();
        t.offer_child(0, 2, p());
        t.offer_child(0, 2, p());
    }

    #[test]
    #[should_panic(expected = "not an expected child")]
    fn tree_unexpected_child_partial_panics() {
        let p = || Partial { op: ReduceOp::SumU64, count: 1, data: ReduceData::U64(vec![1]) };
        let mut t = TreeReductions::new();
        t.offer_child(0, 9, p());
        let _ = t.take_complete(false, &[], 1);
    }

    #[test]
    fn gather_via_contribute_orders_by_element() {
        let mut r = PeReductions::new();
        r.contribute(key(5), ReduceOp::Gather, ContribData::Raw(b"five".to_vec()));
        r.contribute(key(2), ReduceOp::Gather, ContribData::Raw(b"two".to_vec()));
        let done = r.take_complete(2);
        match &done[0].1.data {
            ReduceData::Gathered(g) => {
                assert_eq!(g[0], (2, b"two".to_vec()));
                assert_eq!(g[1], (5, b"five".to_vec()));
            }
            other => panic!("wrong kind {other:?}"),
        }
    }
}
