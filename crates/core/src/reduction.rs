//! Reduction combining machinery.
//!
//! Reductions run over the run's collective
//! [`SpanTree`](mdo_netsim::SpanTree), in whichever shape it has: each
//! element contributes exactly once per reduction; a PE folds each local
//! contribution and each tree child's partial **as it arrives**
//! ([`PeReductions::fold`]); once the partial covers the PE's whole
//! subtree it flows to the parent; the root (PE 0) delivers results to
//! the host client **in sequence order**, regardless of the order in
//! which racing reductions complete.
//!
//! Folding on arrival is safe because every operator is exact: `SumF64`
//! partials are [`ExactSum`]s, rounded once at the root, and `MinF64`,
//! `MaxF64`, `SumU64` and `Gather` never round.  So no arrival order,
//! tree shape or PE count can reach a result's bits.
//!
//! This module is pure bookkeeping (no I/O), so it is testable in
//! isolation; `node.rs` wires it to the message fabric.

use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

use crate::envelope::{ReduceData, ReduceOp};
use crate::ids::ObjKey;
use crate::wire::{WireError, WireReader, WireWriter};

/// 64-bit limbs an [`ExactSum`] ranges over: 2,176 bits.  Every finite
/// `f64` is an integer multiple of 2^-1074 below 2^2098, which leaves a
/// sign bit and 2^63 terms of headroom above `f64::MAX`.  A sum stores only
/// the limbs of its span.
const LIMBS: usize = 34;

/// An exact `SumF64` partial: a two's-complement fixed-point integer of
/// 34 limbs in units of 2^-1074, the least subnormal.  Every finite
/// term adds with no rounding, so any grouping and order of the same terms
/// gives the same bits; NaN and infinite terms are kept as flags.
/// [`ExactSum::round`] rounds once, to nearest with ties to even.
///
/// Only the span is stored: the limbs that are neither zero below it nor
/// sign extension above it, so a sum of like-sized terms holds a limb or
/// three.  The span is always the shortest, so two sums are `==` exactly
/// when their values and flags are.  The empty sum (`default`) rounds to
/// −0.0, the identity of `f64` addition.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ExactSum {
    /// Limbs `lo..lo + limbs.len()`.
    limbs: Vec<u64>,
    lo: u8,
    flags: u8,
}

impl ExactSum {
    const NAN: u8 = 1;
    const POS_INF: u8 = 2;
    const NEG_INF: u8 = 4;
    /// Some term was not −0.0: an all-−0.0 sum is −0.0, as in IEEE
    /// addition, and any other exact zero is +0.0.
    const NOT_NEG_ZERO: u8 = 8;
    /// The sum is negative: the limbs above the span are all ones.
    const NEGATIVE: u8 = 16;

    /// The sum of the one term `x`.
    pub fn new(x: f64) -> Self {
        let mut s = ExactSum::default();
        s.add(x);
        s
    }

    /// Add the term `x`, exactly.
    pub fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        let (exp, frac) = ((bits >> 52) & 0x7ff, bits & ((1 << 52) - 1));
        self.flags |= match exp {
            0x7ff if frac != 0 => Self::NAN,
            0x7ff if x > 0.0 => Self::POS_INF,
            0x7ff => Self::NEG_INF,
            _ if x == 0.0 && x.is_sign_negative() => return,
            _ => Self::NOT_NEG_ZERO,
        };
        if exp < 0x7ff && x != 0.0 {
            // |x| = mant · 2^(shift − 1074).
            let (mant, shift) = if exp == 0 { (frac, 0) } else { (frac | 1 << 52, exp - 1) };
            let wide = u128::from(mant) << (shift % 64);
            self.add_words((shift / 64) as usize, &[wide as u64, (wide >> 64) as u64], 0, x < 0.0);
        }
    }

    /// Add another partial, exactly.
    pub fn merge(&mut self, other: &ExactSum) {
        self.add_words(other.lo.into(), &other.limbs, other.ext(), false);
        self.flags |= other.flags & !Self::NEGATIVE;
    }

    /// The sum rounded once, leaving the empty sum (and its storage) for
    /// the next.
    pub fn take(&mut self) -> f64 {
        let x = self.round();
        self.limbs.clear();
        (self.lo, self.flags) = (0, 0);
        x
    }

    /// A limb above the span: all ones if the sum is negative, else zero.
    fn ext(&self) -> u64 {
        u64::from(self.flags & Self::NEGATIVE != 0).wrapping_neg()
    }

    /// Add (or, with `sub`, subtract) the two's-complement integer whose
    /// limbs from `at` on are `words`, with zeros below them and `ext` above.
    fn add_words(&mut self, at: usize, words: &[u64], ext: u64, sub: bool) {
        if words.is_empty() && ext == 0 {
            return;
        }
        if self.limbs.is_empty() && self.ext() == 0 {
            self.lo = at as u8;
        }
        let (lo, hi) = (usize::from(self.lo), usize::from(self.lo) + self.limbs.len());
        // Neither side has a nonzero limb below `start`, and from limb
        // `top - 1` on both are sign extension, so the result is too (or
        // `top` is the full width, which wraps).
        let (start, top) = (lo.min(at), (hi.max(at + words.len()) + 1).min(LIMBS));
        self.limbs.splice(..0, std::iter::repeat_n(0, lo - start));
        self.limbs.resize(top - start, self.ext());
        self.lo = start as u8;
        let mut carry = false;
        for (k, limb) in self.limbs.iter_mut().enumerate().skip(at - start) {
            let w = words.get(k + start - at).copied().unwrap_or(ext);
            let (v, c1) = if sub { limb.overflowing_sub(w) } else { limb.overflowing_add(w) };
            let (v, c2) = if sub { v.overflowing_sub(u64::from(carry)) } else { v.overflowing_add(u64::from(carry)) };
            *limb = v;
            carry = c1 || c2;
        }
        self.settle();
    }

    /// Take the sign from the top stored limb and trim the limbs to the
    /// span.
    fn settle(&mut self) {
        let negative = self.limbs.last().is_some_and(|&l| l >> 63 == 1);
        self.flags = self.flags & !Self::NEGATIVE | if negative { Self::NEGATIVE } else { 0 };
        while self.limbs.last() == Some(&self.ext()) {
            self.limbs.pop();
        }
        let zeros = self.limbs.iter().take_while(|&&l| l == 0).count();
        self.limbs.drain(..zeros);
        self.lo = if self.limbs.is_empty() && !negative { 0 } else { self.lo + zeros as u8 };
    }

    /// The sum rounded once to the nearest `f64`, ties to even.
    pub fn round(&self) -> f64 {
        match self.flags & (Self::NAN | Self::POS_INF | Self::NEG_INF) {
            0 => {}
            Self::POS_INF => return f64::INFINITY,
            Self::NEG_INF => return f64::NEG_INFINITY,
            _ => return f64::NAN,
        }
        let negative = self.flags & Self::NEGATIVE != 0;
        let mut abs = ExactSum::default();
        abs.add_words(self.lo.into(), &self.limbs, self.ext(), negative);
        let mut mag = [0; LIMBS];
        mag[usize::from(abs.lo)..][..abs.limbs.len()].copy_from_slice(&abs.limbs);
        let Some(top) = mag.iter().rposition(|&l| l != 0) else {
            return if self.flags & Self::NOT_NEG_ZERO != 0 { 0.0 } else { -0.0 };
        };
        // Keep the top 53 bits q of the magnitude and the shift s below
        // them.  The f64 bit pattern is (s << 52) + q: below 2^53 units
        // (s = 0) that is a subnormal or the least normal binade as is, and
        // a round-up carry out of q moves into the exponent by itself.
        let s = (64 * top + 64 - mag[top].leading_zeros() as usize).saturating_sub(53);
        let window = u128::from(mag[s / 64]) | u128::from(mag.get(s / 64 + 1).copied().unwrap_or(0)) << 64;
        let q = (window >> (s % 64)) as u64;
        let (h, hoff) = (s.saturating_sub(1) / 64, s.saturating_sub(1) % 64);
        let half = s > 0 && mag[h] >> hoff & 1 == 1;
        let sticky = mag[h] & ((1 << hoff) - 1) != 0 || mag[..h].iter().any(|&l| l != 0);
        let bits = (((s as u64) << 52) + q + u64::from(half && (sticky || q & 1 == 1))).min(f64::INFINITY.to_bits());
        f64::from_bits(bits | u64::from(negative) << 63)
    }

    /// Serialize: the flags, then the span.
    pub(crate) fn encode(&self, w: &mut WireWriter) {
        w.u8(self.flags).u8(self.lo).u8(self.lo + self.limbs.len() as u8);
        for &limb in &self.limbs {
            w.u64(limb);
        }
    }

    /// Deserialize what [`ExactSum::encode`] wrote, rejecting unknown flag
    /// bits and a limb range past the accumulator.
    pub(crate) fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let (flags, lo, hi) = (r.u8()?, r.u8()?, r.u8()?);
        if flags >= Self::NEGATIVE << 1 {
            return Err(WireError { context: "ExactSum flags" });
        }
        if lo > hi || usize::from(hi) > LIMBS {
            return Err(WireError { context: "ExactSum limb range" });
        }
        let mut s = ExactSum { limbs: Vec::with_capacity(usize::from(hi - lo) + 1), lo, flags };
        for _ in lo..hi {
            s.limbs.push(r.u64()?);
        }
        // What lies above the span, unless the span reaches the top.
        if usize::from(hi) < LIMBS {
            s.limbs.push(s.ext());
        }
        s.settle();
        Ok(s)
    }

    /// Bytes [`ExactSum::encode`] writes.
    pub(crate) fn wire_len(&self) -> u64 {
        3 + 8 * self.limbs.len() as u64
    }
}

/// The lesser (`want` = `Less`) or greater of two values, independent of
/// argument order: −0 orders below +0, a NaN yields to a number, and two
/// NaNs give the canonical NaN.
fn pick(x: f64, y: f64, want: Ordering) -> f64 {
    match (x.is_nan(), y.is_nan()) {
        (true, true) => f64::NAN,
        (true, false) => y,
        (false, true) => x,
        (false, false) if y.total_cmp(&x) == want => y,
        (false, false) => x,
    }
}

/// Combine `b` into `a` element-wise with `f`.
fn zip_into<T>(op: ReduceOp, a: &mut [T], b: Vec<T>, f: impl Fn(&mut T, T)) {
    assert_eq!(a.len(), b.len(), "{op:?} contributions must agree on length");
    for (x, y) in a.iter_mut().zip(b) {
        f(x, y);
    }
}

/// Element-wise combine of two partials under `op`.  Every arm is exact,
/// so the result does not depend on which side is `acc`.
pub fn combine(op: ReduceOp, acc: &mut ReduceData, other: ReduceData) {
    match (op, acc, other) {
        (ReduceOp::SumF64, ReduceData::Exact(a), ReduceData::Exact(b)) => zip_into(op, a, b, |x, y| x.merge(&y)),
        (ReduceOp::MinF64 | ReduceOp::MaxF64, ReduceData::F64(a), ReduceData::F64(b)) => {
            let want = if op == ReduceOp::MinF64 { Ordering::Less } else { Ordering::Greater };
            zip_into(op, a, b, |x, y| *x = pick(*x, y, want))
        }
        (ReduceOp::SumU64, ReduceData::U64(a), ReduceData::U64(b)) => zip_into(op, a, b, |x, y| *x += y),
        (ReduceOp::Gather, ReduceData::Gathered(a), ReduceData::Gathered(mut b)) => {
            // Both sides are sorted by element: the stable sort merges the
            // two runs in one pass.
            a.append(&mut b);
            a.sort_by_key(|&(elem, _)| elem);
        }
        (op, acc, other) => {
            panic!("reduction data mismatch: op {op:?} with acc {acc:?} and contribution {other:?}")
        }
    }
}

/// What the host client receives for a complete reduction: exact sums
/// rounded once, everything else as combined.
pub fn finish(data: ReduceData) -> ReduceData {
    match data {
        ReduceData::Exact(v) => ReduceData::F64(v.iter().map(ExactSum::round).collect()),
        other => other,
    }
}

/// A partially-combined reduction on one PE.
#[derive(Debug)]
pub struct Partial {
    /// The operator (fixed by the first piece folded in).
    pub op: ReduceOp,
    /// Contributions covered so far.
    pub count: u64,
    /// The running value.
    pub data: ReduceData,
}

/// Per-PE, per-array reduction state: one partial per reduction in
/// flight, folding local contributions and child partials alike.
#[derive(Default, Debug)]
pub struct PeReductions {
    /// seq → partial, for reductions still accumulating here and, at the
    /// root, complete ones waiting for an earlier seq to be delivered.
    pending: BTreeMap<u32, Partial>,
    /// Next reduction sequence number for each local element.
    elem_seq: HashMap<ObjKey, u32>,
    /// The next seq the root delivers.
    delivered: u32,
}

impl PeReductions {
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

    /// Take the reduction seq a local element's next contribution joins.
    pub fn next_seq(&mut self, from: ObjKey) -> u32 {
        let cursor = self.elem_seq.entry(from).or_insert(0);
        *cursor += 1;
        *cursor - 1
    }

    /// The next sequence number the root will deliver.
    pub fn next_delivery(&self) -> u32 {
        self.delivered
    }

    /// Resume the root's numbering from a checkpointed cursor (only valid
    /// on fresh state).
    pub fn set_next_delivery(&mut self, next: u32) {
        assert!(self.is_quiescent(), "cannot reseat reductions in flight");
        self.delivered = next;
    }

    /// Fold one piece of reduction `seq` — a local contribution or a tree
    /// child's partial — into this PE's partial.  True once it covers
    /// `total` contributions, the element count of this PE's subtree:
    /// [`PeReductions::take`] then removes it, or, at the root,
    /// [`PeReductions::take_next`] in sequence order.
    pub fn fold(&mut self, seq: u32, piece: Partial, total: u64) -> bool {
        assert!(seq >= self.delivered, "reduction {seq} completed twice");
        let p = match self.pending.entry(seq) {
            Entry::Vacant(slot) => slot.insert(piece),
            Entry::Occupied(slot) => {
                let p = slot.into_mut();
                assert_eq!(p.op, piece.op, "reduction {seq}: conflicting operators");
                combine(p.op, &mut p.data, piece.data);
                p.count += piece.count;
                p
            }
        };
        assert!(p.count <= total, "reduction {seq}: {} contributions pass the subtree's {total}", p.count);
        p.count == total
    }

    /// Remove reduction `seq`'s partial.
    pub fn take(&mut self, seq: u32) -> Partial {
        self.pending.remove(&seq).expect("a folded reduction")
    }

    /// At the root: remove the next reduction in sequence, if it covers
    /// `total` contributions.
    pub fn take_next(&mut self, total: u64) -> Option<(u32, Partial)> {
        let seq = self.delivered;
        self.pending.get(&seq).filter(|p| p.count == total)?;
        self.delivered += 1;
        Some((seq, self.take(seq)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ArrayId, ElemId};

    fn key(e: u32) -> ObjKey {
        ObjKey::new(ArrayId(1), ElemId(e))
    }

    fn exact(v: &[f64]) -> ReduceData {
        ReduceData::Exact(v.iter().map(|&x| ExactSum::new(x)).collect())
    }

    /// The correctly rounded sum of `terms`, folded left to right.
    fn exact_sum(terms: &[f64]) -> f64 {
        let mut s = ExactSum::new(terms[0]);
        terms[1..].iter().for_each(|&x| s.add(x));
        s.round()
    }

    fn sum_partial(v: f64) -> Partial {
        Partial { op: ReduceOp::SumF64, count: 1, data: exact(&[v]) }
    }

    fn u64_partial(count: u64) -> Partial {
        Partial { op: ReduceOp::SumU64, count, data: ReduceData::U64(vec![count]) }
    }

    #[test]
    fn sum_min_max_combine() {
        let mut a = exact(&[1.0, 5.0]);
        combine(ReduceOp::SumF64, &mut a, exact(&[2.0, -1.0]));
        assert_eq!(finish(a), ReduceData::F64(vec![3.0, 4.0]));

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
    fn min_max_are_independent_of_argument_order() {
        let nan = f64::from_bits(f64::NAN.to_bits() | 1); // not the canonical NaN
        for (x, y, min, max) in [
            (0.0, -0.0, -0.0, 0.0),
            (1.0, nan, 1.0, 1.0),
            (-0.0, nan, -0.0, -0.0),
            (nan, -nan, f64::NAN, f64::NAN),
            (f64::NEG_INFINITY, 3.0, f64::NEG_INFINITY, 3.0),
        ] {
            for (a, b) in [(x, y), (y, x)] {
                for (op, want) in [(ReduceOp::MinF64, min), (ReduceOp::MaxF64, max)] {
                    let mut acc = ReduceData::F64(vec![a]);
                    combine(op, &mut acc, ReduceData::F64(vec![b]));
                    let ReduceData::F64(got) = acc else { unreachable!() };
                    assert_eq!(got[0].to_bits(), want.to_bits(), "{op:?}({a:?}, {b:?})");
                }
            }
        }
    }

    #[test]
    fn exact_sum_rounds_once_to_nearest_even() {
        let max = f64::MAX;
        for (terms, want) in [
            (&[1e16, 1.0, -1e16][..], 1.0),
            (&[0.1; 10][..], 1.0),
            (&[max, max, -max][..], max),
            (&[max, max][..], f64::INFINITY),
            (&[-max, -max][..], f64::NEG_INFINITY),
            (&[5e-324, 5e-324][..], f64::from_bits(2)),
            (&[-0.0, -0.0][..], -0.0),
            (&[-0.0, 0.0][..], 0.0),
            (&[2.5, -2.5][..], 0.0),
            // Ties and near-ties from CPython's `math.fsum` tests.
            (&[2f64.powi(53), -0.5, -2f64.powi(-54)][..], f64::from_bits(0x433f_ffff_ffff_ffff)),
            (&[2f64.powi(53), 1.0, 2f64.powi(-100)][..], f64::from_bits(0x4340_0000_0000_0001)),
            (&[2f64.powi(53) + 10.0, 1.0, 2f64.powi(-100)][..], f64::from_bits(0x4340_0000_0000_0006)),
            (&[2f64.powi(53) - 4.0, 0.5, 2f64.powi(-54)][..], f64::from_bits(0x433f_ffff_ffff_fffd)),
            (&[1e-16, 1.0, 1e16][..], f64::from_bits(0x4341_c379_37e0_8001)),
        ] {
            assert_eq!(exact_sum(terms).to_bits(), want.to_bits(), "{terms:?}");
        }
        assert!(exact_sum(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(exact_sum(&[1.0, f64::NAN, f64::INFINITY]).is_nan());
        assert_eq!(exact_sum(&[1.0, f64::INFINITY, -max]), f64::INFINITY);
        let harmonic: Vec<f64> = (1..=1000).map(|n| 1.0 / f64::from(n)).collect();
        assert_eq!(exact_sum(&harmonic).to_bits(), 0x401d_f11f_45f4_e61a);
        let alternating: Vec<f64> = (1..=1000).map(|n| if n % 2 == 0 { 1.0 } else { -1.0 } / f64::from(n)).collect();
        assert_eq!(exact_sum(&alternating).to_bits(), 0xbfe6_2a2a_f1bd_3624);
    }

    #[test]
    fn exact_sum_bits_are_independent_of_order_and_grouping() {
        // Mixed scales: subnormals, tenths, 1e16s, 1e300s, and ±MAX pairs
        // that let a running sum pass MAX and come back.
        let mut rng = mdo_netsim::Xoshiro256::new(33);
        let mut terms: Vec<f64> = (0..200)
            .map(|i| {
                let x = rng.next_f64() - 0.5;
                match i % 5 {
                    0 => x * 1e-310,
                    1 => x,
                    2 => x * 1e16,
                    3 => x * 1e300,
                    _ if i % 10 == 4 => f64::MAX,
                    _ => -f64::MAX,
                }
            })
            .collect();
        let want = exact_sum(&terms);
        assert!(want.is_finite());
        for round in 0..6 {
            for i in (1..terms.len()).rev() {
                terms.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            // Fold `round + 1` interleaved groups, then merge the groups.
            let groups = round + 1;
            let mut parts: Vec<ExactSum> = terms[..groups].iter().map(|&x| ExactSum::new(x)).collect();
            for (i, &x) in terms.iter().enumerate().skip(groups) {
                parts[i % groups].add(x);
            }
            let mut acc = parts.pop().expect("a group");
            parts.iter().for_each(|p| acc.merge(p));
            assert_eq!(acc.round().to_bits(), want.to_bits(), "round {round}");
        }
    }

    #[test]
    fn exact_sum_codec_roundtrips_and_sends_only_its_span() {
        for x in [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, f64::MAX, -f64::MAX, 1e-300, f64::NAN, f64::NEG_INFINITY] {
            let s = ExactSum::new(x);
            let mut w = WireWriter::new();
            s.encode(&mut w);
            assert_eq!(w.len() as u64, s.wire_len());
            assert!(w.len() <= 3 + 2 * 8, "{x:?}: one term spans at most two limbs");
            let bytes = w.finish();
            let mut r = WireReader::new(&bytes);
            assert_eq!(ExactSum::decode(&mut r), Ok(s), "{x:?}");
            assert!(r.is_done());
        }
    }

    /// The limbs a sum stores, from which limb up.
    fn span(s: &ExactSum) -> (u8, &[u64]) {
        (s.lo, &s.limbs)
    }

    #[test]
    fn exact_sum_span_grows_upward_on_a_carry() {
        // 2^78 − 2^25 fills the top 53 bits of limb 17 (units 2^1088 up).
        let mut s = ExactSum::new(2f64.powi(78) - 2f64.powi(25));
        assert_eq!(span(&s), (17, &[((1 << 53) - 1) << 11][..]));
        s.add(1.0);
        assert_eq!(span(&s), (16, &[1 << 50, ((1 << 53) - 1) << 11][..]));
        s.add(2f64.powi(25));
        assert_eq!(span(&s), (16, &[1 << 50, 0, 1][..]), "the carry runs into limb 18");
        assert_eq!(s.round(), 2f64.powi(78));
        s.add(-1.0);
        assert_eq!(s, ExactSum::new(2f64.powi(78)));
    }

    #[test]
    fn exact_sum_span_reaches_down_to_the_least_subnormal() {
        let least = f64::from_bits(1);
        let mut s = ExactSum::new(1.0);
        s.add(least);
        assert_eq!((s.lo, s.limbs.len(), s.limbs[0], s.limbs[16]), (0, 17, 1, 1 << 50));
        assert_eq!(s.round(), 1.0, "1 + 2^-1074 rounds to 1");
        s.add(-1.0);
        assert_eq!(span(&s), (0, &[1][..]), "the span shrinks from the top");
        assert_eq!(s.round(), least);
        s.add(-least);
        assert_eq!((span(&s), s.round().to_bits()), ((0, &[][..]), 0.0f64.to_bits()));
    }

    #[test]
    fn exact_sum_crosses_zero_and_changes_sign() {
        let mut s = ExactSum::new(1.0);
        s.add(-3.0);
        // −2 is −2^1075 units: zeros up to limb 16, ones from bit 51 on.
        assert_eq!(span(&s), (16, &[u64::MAX << 51][..]));
        assert_eq!(s.round(), -2.0);
        let mut back = s.clone();
        back.add(2.0);
        assert_eq!(back, ExactSum::new(0.0), "an exact zero is the empty span");
        s.add(2.5);
        assert_eq!(s, ExactSum::new(0.5), "equal sums are equal values");
        s.add(-1e300);
        s.merge(&ExactSum::new(1e300));
        assert_eq!(s, ExactSum::new(0.5), "from 1e300 below zero, back again");
        // Minus a power of two whole limbs up: an empty span, all ones above.
        let mut power = ExactSum::new(-2f64.powi(78));
        assert_eq!((span(&power), power.round()), ((18, &[][..]), -2f64.powi(78)));
        power.add(-1.0);
        assert_eq!(power.round(), -2f64.powi(78) - 1.0);
    }

    #[test]
    fn exact_sum_of_negative_zeros_stays_negative_zero() {
        assert_eq!(ExactSum::default().round().to_bits(), (-0.0f64).to_bits(), "the empty sum");
        let mut s = ExactSum::new(-0.0);
        s.add(-0.0);
        s.merge(&ExactSum::new(-0.0));
        assert_eq!(s, ExactSum::default());
        assert_eq!(s.round().to_bits(), (-0.0f64).to_bits());
        s.add(0.0);
        assert_eq!(s.round().to_bits(), 0.0f64.to_bits());
        let mut cancelled = ExactSum::new(-1.0);
        cancelled.add(1.0);
        assert_eq!(cancelled.take().to_bits(), 0.0f64.to_bits(), "a cancelled sum is +0");
        assert_eq!(cancelled.round().to_bits(), (-0.0f64).to_bits(), "taken, it is empty");
    }

    #[test]
    fn exact_sum_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<ExactSum>() <= 32, "{} bytes", std::mem::size_of::<ExactSum>());
    }

    #[test]
    fn exact_sum_decode_trims_a_wire_span_to_the_sum() {
        // Flags NOT_NEG_ZERO, limbs 2..5 = [0, 7, 0]: the sum of limb 3 alone.
        let mut w = WireWriter::new();
        w.u8(ExactSum::NOT_NEG_ZERO).u8(2).u8(5).u64(0).u64(7).u64(0);
        let bytes = w.finish();
        let s = ExactSum::decode(&mut WireReader::new(&bytes)).expect("a valid span");
        assert_eq!(span(&s), (3, &[7][..]));
        // NEGATIVE with limbs 1..2 = [u64::MAX]: the ones continue above, so
        // the sum is −2^64 units, an empty span from limb 1.
        let mut w = WireWriter::new();
        w.u8(ExactSum::NEGATIVE | ExactSum::NOT_NEG_ZERO).u8(1).u8(2).u64(u64::MAX);
        let bytes = w.finish();
        let s = ExactSum::decode(&mut WireReader::new(&bytes)).expect("a valid span");
        assert_eq!((span(&s), s.round()), ((1, &[][..]), -f64::from_bits(1) * 2f64.powi(64)));
    }

    #[test]
    #[should_panic(expected = "agree on length")]
    fn length_mismatch_panics() {
        let mut a = exact(&[1.0]);
        combine(ReduceOp::SumF64, &mut a, exact(&[1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "data mismatch")]
    fn kind_mismatch_panics() {
        let mut a = exact(&[1.0]);
        combine(ReduceOp::SumF64, &mut a, ReduceData::U64(vec![1]));
    }

    #[test]
    #[should_panic(expected = "reduction 4: conflicting operators")]
    fn conflicting_operators_panic() {
        let mut r = PeReductions::default();
        r.fold(4, u64_partial(1), 3);
        r.fold(4, sum_partial(1.0), 3);
    }

    #[test]
    fn next_seq_increases_per_element() {
        let mut r = PeReductions::default();
        assert_eq!(r.next_seq(key(0)), 0);
        assert_eq!(r.next_seq(key(0)), 1);
        assert_eq!(r.next_seq(key(1)), 0);
    }

    #[test]
    fn fold_completes_on_the_subtree_total() {
        // Local pieces and child partials fold alike; the reduction is done
        // when its count reaches the subtree's element count, and not before.
        let mut r = PeReductions::default();
        assert!(!r.fold(0, u64_partial(1), 6));
        assert!(!r.fold(1, u64_partial(1), 6), "seq 1 runs alongside");
        assert!(!r.fold(0, u64_partial(3), 6), "child subtree of 3");
        assert!(r.fold(0, u64_partial(2), 6), "6 of 6");
        let done = r.take(0);
        assert_eq!((done.count, done.data), (6, ReduceData::U64(vec![6])));
        assert!(!r.is_quiescent(), "seq 1 still pending");
        // A PE with no local elements completes on children alone.
        let mut r = PeReductions::default();
        assert!(r.fold(4, u64_partial(5), 5));
    }

    #[test]
    fn fold_result_is_independent_of_arrival_order() {
        // Every arrival order of the same pieces gives identical bits, for
        // the gather and for a sum no f64 order folds exactly.
        let gather = |who: u32| {
            let g = match who {
                0 => vec![(7, b"g".to_vec())],
                1 => vec![(0, b"a".to_vec()), (3, b"d".to_vec())],
                _ => vec![(5, b"f".to_vec())],
            };
            Partial { op: ReduceOp::Gather, count: g.len() as u64, data: ReduceData::Gathered(g) }
        };
        let sum = |who: u32| sum_partial([0.1, 1e16, -1e16][who as usize]);
        let orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for piece in [&gather as &dyn Fn(u32) -> Partial, &sum] {
            let run = |order: &[u32]| {
                let mut r = PeReductions::default();
                let total: u64 = (0..3).map(|w| piece(w).count).sum();
                let done: Vec<bool> = order.iter().map(|&w| r.fold(0, piece(w), total)).collect();
                assert_eq!(done, [false, false, true]);
                format!("{:?}", finish(r.take(0).data))
            };
            for order in &orders[1..] {
                assert_eq!(run(order), run(&orders[0]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "reduction 0: 4 contributions pass the subtree's 3")]
    fn fold_duplicate_child_partial_panics() {
        // Child subtrees of 1 and 2: the first reporting twice passes the
        // total before the second has reported.
        let mut r = PeReductions::default();
        r.fold(0, u64_partial(2), 3);
        r.fold(0, u64_partial(2), 3);
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
    fn peek_does_not_consume() {
        let mut r = PeReductions::default();
        r.next_seq(key(0));
        assert_eq!(r.peek_elem_seq(key(0)), 1);
        assert_eq!(r.peek_elem_seq(key(0)), 1, "idempotent");
        assert_eq!(r.peek_elem_seq(key(9)), 0, "unknown elements are at 0");
    }

    #[test]
    fn seq_cursor_migration() {
        let mut src = PeReductions::default();
        src.next_seq(key(0));
        let cursor = src.export_elem_seq(key(0));
        assert_eq!(cursor, 1);
        let mut dst = PeReductions::default();
        dst.import_elem_seq(key(0), cursor);
        assert_eq!(dst.next_seq(key(0)), 1);
    }

    #[test]
    fn root_delivery_cursor_roundtrip() {
        let mut root = PeReductions::default();
        assert_eq!(root.next_delivery(), 0);
        root.set_next_delivery(5);
        assert!(root.fold(5, sum_partial(1.0), 1));
        assert_eq!(root.take_next(1).map(|(s, _)| s), Some(5));
        assert_eq!(root.next_delivery(), 6);
    }

    #[test]
    fn root_delivery_orders_results() {
        let mut root = PeReductions::default();
        assert!(root.fold(1, sum_partial(1.0), 1));
        assert!(root.fold(2, sum_partial(2.0), 1));
        assert!(root.take_next(1).is_none(), "seq 1 waits for seq 0");
        assert!(!root.fold(0, sum_partial(0.0), 2) && root.take_next(2).is_none(), "seq 0 is not complete");
        assert!(root.fold(0, sum_partial(0.0), 2));
        let seqs: Vec<u32> =
            std::iter::from_fn(|| root.take_next(2).or_else(|| root.take_next(1))).map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(root.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "reduction 0: 2 contributions pass the subtree's 1")]
    fn double_completion_panics() {
        let mut root = PeReductions::default();
        root.fold(0, sum_partial(0.0), 1);
        root.fold(0, sum_partial(0.0), 1);
    }

    #[test]
    #[should_panic(expected = "reduction 0 completed twice")]
    fn completion_after_delivery_panics() {
        let mut root = PeReductions::default();
        root.fold(0, sum_partial(0.0), 1);
        assert!(root.take_next(1).is_some());
        root.fold(0, sum_partial(0.0), 1);
    }
}
