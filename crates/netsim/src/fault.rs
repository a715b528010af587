//! Fault plans and the one fault wire both engines run.
//!
//! The paper treats the wide-area link as the hostile part of a Grid job;
//! this module makes that hostility explicit.  A [`FaultPlan`] describes an
//! unreliable WAN — per-packet drop/duplicate/reorder/corrupt probabilities,
//! scheduled link-down windows, and the retransmission parameters the
//! reliable delivery layer uses to recover.  [`FaultWire`] is what the plan
//! does to one transmission attempt, as plain data: the threaded engine's
//! transport (`mdo_vmi::Transport::send`) puts real packets through it,
//! and the simulator its virtual-time frames.  The reliable
//! protocol that recovers from it is one too (`mdo_vmi::arq`).
//!
//! Each attempt's fate is one draw keyed by the attempt itself — the plan
//! seed, the ordered PE pair, the frame's sequence number and the attempt
//! number ([`keyed_unit`]) — so it does not depend on how many attempts
//! came before it on the pair or anywhere else.  That is what lets the
//! threaded and simulated engines agree on *which* attempts a plan harms
//! however their frames and retransmits interleave.  Two harms still
//! depend on timing: a link-down window (when the attempt is made) and the
//! reorder stash (which attempt of the pair comes next to release it).

use crate::rng::keyed_unit;
use crate::time::Dur;
use crate::topology::Pe;
use std::collections::HashMap;

/// A description of WAN unreliability plus the recovery parameters of the
/// reliable delivery layer.  Probabilities apply per cross-cluster packet;
/// intra-cluster traffic is never faulted.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Probability a packet vanishes on the wire.
    pub drop: f64,
    /// Probability a packet is delivered twice.
    pub duplicate: f64,
    /// Probability a packet is held back and delivered after its successor.
    pub reorder: f64,
    /// Probability a packet is corrupted on the wire.  The receiver would
    /// reject it, so it arrives as nothing: a drop, counted apart.
    pub corrupt: f64,
    /// Seed of the keyed fault draws.
    pub seed: u64,
    /// Scheduled link-down windows `[start, end)` measured from run start;
    /// every cross-cluster packet inside a window is lost.
    pub link_down: Vec<(Dur, Dur)>,
    /// Initial retransmission timeout of the reliable layer.
    pub rto: Dur,
    /// Retransmissions allowed per packet before the transport gives up
    /// and surfaces a structured error.
    pub max_retries: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            seed: 0xFA_17,
            link_down: Vec::new(),
            rto: Dur::from_millis(50),
            max_retries: 12,
        }
    }
}

impl FaultPlan {
    /// A plan that only drops packets, with probability `p`.
    pub fn loss(p: f64) -> Self {
        FaultPlan::default().with_drop(p)
    }

    /// Set the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self.check()
    }

    /// Set the duplicate probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self.check()
    }

    /// Set the reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self.check()
    }

    /// Set the corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self.check()
    }

    /// Set the fault-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the initial retransmission timeout.
    pub fn with_rto(mut self, rto: Dur) -> Self {
        self.rto = rto;
        self
    }

    /// Set the retransmission ceiling.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Schedule a link-down window `[start, end)` relative to run start.
    pub fn with_link_down(mut self, start: Dur, end: Dur) -> Self {
        assert!(start <= end, "link-down window must not be inverted");
        self.link_down.push((start, end));
        self
    }

    fn check(self) -> Self {
        let each_ok = [self.drop, self.duplicate, self.reorder, self.corrupt].iter().all(|p| (0.0..=1.0).contains(p));
        let sum = self.drop + self.duplicate + self.reorder + self.corrupt;
        assert!(each_ok && sum <= 1.0, "fault probabilities must be in [0,1] and sum to <= 1");
        self
    }

    /// True if `at` (measured from run start) falls inside a scheduled
    /// link-down window.
    pub fn link_is_down(&self, at: Dur) -> bool {
        self.link_down.iter().any(|&(s, e)| at >= s && at < e)
    }
}

/// The structured error a transport surfaces when the reliable layer
/// exhausts its retransmission budget for one message.  Both engines
/// return this through their run reports instead of panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportError {
    /// Sender of the doomed message.
    pub src: Pe,
    /// Intended receiver.
    pub dst: Pe,
    /// Per-pair sequence number of the message that never got through.
    pub seq: u64,
    /// Total transmissions performed (1 original + retries).
    pub attempts: u32,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reliable delivery {} -> {} gave up on seq {} after {} attempts",
            self.src, self.dst, self.seq, self.attempts
        )
    }
}

impl std::error::Error for TransportError {}

/// What the wire did to one transmission attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Fate<T> {
    /// Lost to a drop draw or a link-down window.
    Lost,
    /// Held back in the pair's reorder stash: the next attempt of the pair
    /// that gets through releases it right behind itself.
    Stashed,
    /// Got through, `harm`ed as the draw said, followed by the attempt the
    /// pair's stash `released`, if it held one.
    Through {
        /// The attempt.
        item: T,
        /// What the draw did to it.
        harm: Harm,
        /// The stashed attempt that follows it.
        released: Option<T>,
    },
}

/// What a draw that lets an attempt through does to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Harm {
    /// Nothing.
    None,
    /// It arrives twice.
    Duplicated,
    /// It is corrupted, so no copy of it arrives (what a receiver's
    /// checksum would reject); the stash it released still does.
    Corrupted,
}

/// What a [`FaultWire`] has done to the traffic so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Attempts lost to a drop draw or a link-down window.
    pub dropped: u64,
    /// Attempts corrupted on the wire (none of them arrives).
    pub corrupted: u64,
    /// Attempts let through twice.
    pub duplicated: u64,
    /// Attempts held back in a reorder stash.
    pub reordered: u64,
}

/// A [`FaultPlan`] applied to cross-cluster data attempts, one keyed draw
/// each.  A reorder draw holds the attempt in the pair's one-slot stash;
/// with the stash occupied it passes instead.  Generic over what travels,
/// so the wall clock's packets and the simulator's frames meet the same
/// wire.
#[derive(Debug)]
pub struct FaultWire<T> {
    plan: FaultPlan,
    stashes: HashMap<(u32, u32), T>,
    stats: WireStats,
}

impl<T> FaultWire<T> {
    /// A wire running `plan`, every stash empty.
    pub fn new(plan: FaultPlan) -> Self {
        FaultWire { plan, stashes: HashMap::new(), stats: WireStats::default() }
    }

    /// The plan this wire runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> WireStats {
        self.stats
    }

    /// What the pair `src -> dst`'s reorder stash holds: an attempt that
    /// got onto the wire and has not come off it.
    pub fn stashed(&self, src: Pe, dst: Pe) -> Option<&T> {
        self.stashes.get(&(src.0, dst.0))
    }

    /// Attempt `attempt` (0 for the first copy) of frame `seq` of the pair
    /// `src -> dst`, carrying `item`, `at` after the wire came up (what
    /// link-down windows are measured against).
    pub fn transmit(&mut self, src: Pe, dst: Pe, seq: u64, attempt: u32, at: Dur, item: T) -> Fate<T> {
        let p = &self.plan;
        let r = keyed_unit(&[p.seed, u64::from(src.0), u64::from(dst.0), seq, u64::from(attempt)]);
        let (stats, stashes, pair) = (&mut self.stats, &mut self.stashes, (src.0, dst.0));
        let harm = if p.link_is_down(at) || r < p.drop {
            stats.dropped += 1;
            return Fate::Lost;
        } else if r < p.drop + p.corrupt {
            stats.corrupted += 1;
            Harm::Corrupted
        } else if r < p.drop + p.corrupt + p.duplicate {
            stats.duplicated += 1;
            Harm::Duplicated
        } else if r < p.drop + p.corrupt + p.duplicate + p.reorder && !stashes.contains_key(&pair) {
            stats.reordered += 1;
            stashes.insert(pair, item);
            return Fate::Stashed;
        } else {
            Harm::None
        };
        Fate::Through { item, harm, released: stashes.remove(&pair) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fates of the first attempts of frames `0..n` of `src -> dst`
    /// (the item is the frame's number), stash releases included.
    fn fates(wire: &mut FaultWire<u32>, src: u32, dst: u32, n: u32) -> Vec<Fate<u32>> {
        (0..n).map(|i| wire.transmit(Pe(src), Pe(dst), u64::from(i), 0, Dur::ZERO, i)).collect()
    }

    #[test]
    fn a_quiet_plan_lets_everything_through_untouched() {
        let mut wire = FaultWire::new(FaultPlan::default());
        for (i, fate) in fates(&mut wire, 0, 4, 100).into_iter().enumerate() {
            assert_eq!(fate, Fate::Through { item: i as u32, harm: Harm::None, released: None });
        }
        assert_eq!(wire.stats(), WireStats::default());
    }

    #[test]
    fn the_same_plan_harms_the_same_attempts() {
        let plan = FaultPlan::loss(0.3).with_duplicate(0.1).with_reorder(0.1).with_corrupt(0.05).with_seed(7);
        let mut a = FaultWire::new(plan.clone());
        let mut b = FaultWire::new(plan);
        assert_eq!(fates(&mut a, 1, 5, 500), fates(&mut b, 1, 5, 500));
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().dropped > 0 && a.stats().reordered > 0 && a.stats().corrupted > 0);
    }

    #[test]
    fn an_attempts_fate_is_keyed_by_the_attempt_not_by_what_came_before_it() {
        // No reorder: with no stash to fill, a fate is the draw alone.
        let plan = FaultPlan::loss(0.3).with_duplicate(0.2).with_corrupt(0.2).with_seed(42);
        let keys: Vec<(u32, u64, u32)> =
            (0..40).flat_map(|seq| [(1, seq, 0), (3, seq, 0), (1, seq, 1), (1, seq, 2)]).collect();
        let fate = |wire: &mut FaultWire<()>, &(dst, seq, attempt): &(u32, u64, u32)| {
            wire.transmit(Pe(0), Pe(dst), seq, attempt, Dur::ZERO, ())
        };
        // Wire A sees the attempts interleaved across pairs, seqs and
        // retries; wire B in reverse; wire C each on its own.
        let mut a = FaultWire::new(plan.clone());
        let forward: Vec<_> = keys.iter().map(|k| fate(&mut a, k)).collect();
        let mut b = FaultWire::new(plan.clone());
        let mut backward: Vec<_> = keys.iter().rev().map(|k| fate(&mut b, k)).collect();
        backward.reverse();
        assert_eq!(forward, backward, "the order of attempts moves no fate");
        for (k, f) in keys.iter().zip(&forward).step_by(7) {
            assert_eq!(&fate(&mut FaultWire::new(plan.clone()), k), f, "attempt {k:?} on a fresh wire");
        }
        assert_eq!(a.stats(), b.stats());
        let retry_differs = (0..40).any(|seq| forward[4 * seq] != forward[4 * seq + 2]);
        assert!(retry_differs, "a retransmit draws afresh: it is not its first attempt's fate again");
    }

    #[test]
    fn a_reorder_draw_stashes_until_the_next_attempt_gets_through() {
        let mut wire = FaultWire::new(FaultPlan::default().with_reorder(1.0));
        assert_eq!(wire.transmit(Pe(0), Pe(4), 0, 0, Dur::ZERO, 'a'), Fate::Stashed);
        // The second draw also says "reorder", but the stash is occupied:
        // the attempt passes and releases the stash behind itself.
        assert_eq!((wire.stashed(Pe(0), Pe(4)), wire.stashed(Pe(4), Pe(0))), (Some(&'a'), None));
        let second = wire.transmit(Pe(0), Pe(4), 1, 0, Dur::ZERO, 'b');
        assert_eq!(second, Fate::Through { item: 'b', harm: Harm::None, released: Some('a') });
        assert_eq!(wire.stashed(Pe(0), Pe(4)), None, "released");
        assert_eq!(wire.stats().reordered, 1);
    }

    #[test]
    fn link_down_windows_lose_every_attempt_inside_them() {
        let plan = FaultPlan::default().with_link_down(Dur::from_millis(10), Dur::from_millis(20));
        let mut wire = FaultWire::new(plan);
        let at = |ms| wire.transmit(Pe(0), Pe(4), ms, 0, Dur::from_millis(ms), ()) == Fate::Lost;
        let lost: Vec<bool> = [0, 10, 19, 20].into_iter().map(at).collect();
        assert_eq!(lost, [false, true, true, false]);
        assert_eq!(wire.stats().dropped, 2);
    }

    #[test]
    fn a_corruption_arrives_as_nothing_but_releases_the_stash() {
        let plan = FaultPlan::default().with_corrupt(0.5).with_reorder(0.5).with_seed(5);
        let mut wire = FaultWire::new(plan);
        let fates = fates(&mut wire, 0, 9, 200);
        let corrupted = fates.iter().filter(|f| matches!(f, Fate::Through { harm: Harm::Corrupted, .. })).count();
        assert_eq!(corrupted as u64, wire.stats().corrupted);
        assert!(wire.stats().corrupted > 0 && wire.stats().dropped == 0);
        let releasing = |f: &Fate<u32>| matches!(f, Fate::Through { harm: Harm::Corrupted, released: Some(_), .. });
        assert!(fates.iter().any(releasing), "a corrupted attempt still frees the stash behind it");
    }

    #[test]
    fn the_loss_rate_matches_the_plan() {
        let mut wire = FaultWire::new(FaultPlan::loss(0.2).with_seed(3));
        let n = 20_000;
        let lost = fates(&mut wire, 0, 8, n).iter().filter(|f| **f == Fate::Lost).count();
        let rate = lost as f64 / f64::from(n);
        assert!((rate - 0.2).abs() < 0.01, "loss rate {rate}");
        assert_eq!(wire.stats().dropped, lost as u64);
    }

    #[test]
    #[should_panic(expected = "sum to <= 1")]
    fn overfull_probabilities_rejected() {
        let _ = FaultPlan::loss(0.9).with_corrupt(0.2);
    }
}
