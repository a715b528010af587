//! Fault plans and the virtual-time fault model.
//!
//! The paper treats the wide-area link as the hostile part of a Grid job;
//! this module makes that hostility explicit.  A [`FaultPlan`] describes an
//! unreliable WAN — per-packet drop/duplicate/reorder/corrupt probabilities,
//! scheduled link-down windows, and the retransmission parameters the
//! reliable delivery layer uses to recover.  The same plan drives both
//! engines:
//!
//! * the threaded engine instantiates a `FaultDevice` in the cross-cluster
//!   VMI chain (crate `mdo-vmi`) plus an ack/retransmit layer over the real
//!   transport, and
//! * the simulation engine uses [`FaultModel`] here to compute, in virtual
//!   time, exactly when the reliable layer would have gotten each message
//!   through — same seeds, same probabilities, no wall-clock involved.
//!
//! Randomness is drawn from a dedicated [`Xoshiro256`] stream per ordered
//! PE pair (seeded from the plan seed and the pair), so a pair's fault
//! schedule is independent of how traffic from other pairs interleaves
//! with it.  That is what lets the threaded and simulated engines agree on
//! *which* packets a given plan harms.

use crate::rng::{SplitMix64, Xoshiro256};
use crate::time::{Dur, Time};
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
    /// Probability a packet arrives with a flipped byte (caught by the CRC
    /// check and counted as a rejection — equivalent to a drop, plus work).
    pub corrupt: f64,
    /// Seed for the per-pair fault streams.
    pub seed: u64,
    /// Scheduled link-down windows `[start, end)` measured from run start;
    /// every cross-cluster packet inside a window is lost.
    pub link_down: Vec<(Dur, Dur)>,
    /// Initial retransmission timeout of the reliable layer.
    pub rto: Dur,
    /// Retransmissions allowed per packet before the transport gives up
    /// and surfaces a structured error.
    pub max_retries: u32,
    /// Test-only mutation switch: deliberately break receiver-side
    /// duplicate suppression, so a wire-duplicated packet reaches the
    /// application twice.  Exists solely so the `mdo-check` invariant
    /// layer can prove it catches exactly-once violations; never set this
    /// outside a test harness.
    #[doc(hidden)]
    pub mutate_no_dedup: bool,
    /// Test-only interleaving hook for the reliable layer: the receiver
    /// swallows the first `ack_holdback` cumulative acks per incoming
    /// pair, so the sender's retransmit timer fires and retransmissions
    /// race with late acks — the exact schedule that exercises dedup and
    /// cumulative-ack repair.  Zero (the default) changes nothing.
    #[doc(hidden)]
    pub ack_holdback: u32,
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
            mutate_no_dedup: false,
            ack_holdback: 0,
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

    /// Test-only: arm the broken-dedup mutation (see
    /// [`FaultPlan::mutate_no_dedup`]).
    #[doc(hidden)]
    pub fn with_mutation_no_dedup(mut self) -> Self {
        self.mutate_no_dedup = true;
        self
    }

    /// Test-only: swallow the first `n` acks per pair (see
    /// [`FaultPlan::ack_holdback`]).
    #[doc(hidden)]
    pub fn with_ack_holdback(mut self, n: u32) -> Self {
        self.ack_holdback = n;
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

    /// The dedicated fault stream for the ordered pair `src -> dst`.
    ///
    /// Both engines must use this (and draw exactly once per transmission
    /// attempt) so that a plan harms the same packets regardless of engine.
    pub fn pair_stream(&self, src: Pe, dst: Pe) -> Xoshiro256 {
        let mut sm = SplitMix64::new(self.seed);
        let a = sm.next_u64();
        let b = sm.next_u64();
        Xoshiro256::new(
            a ^ (src.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (dst.0 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ b.rotate_left(17),
        )
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

/// What the fault model decided for one logical message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryPlan {
    /// The message eventually gets through: the first `retransmits`
    /// attempts failed, and `extra_delay` is the recovery time the
    /// reliable layer spends before the successful attempt departs.
    Deliver {
        /// Recovery delay accumulated before the successful attempt.
        extra_delay: Dur,
        /// Failed attempts preceding the successful one.
        retransmits: u32,
        /// The successful attempt was duplicated on the wire (the extra
        /// copy is absorbed by receiver dedup — unless the test-only
        /// [`FaultPlan::mutate_no_dedup`] mutation is armed).
        duplicate: bool,
    },
    /// Every attempt failed; the transport reports a structured error
    /// after `attempts` transmissions.
    Exhausted {
        /// Total transmissions performed (1 original + retries).
        attempts: u32,
        /// Sequence number of the doomed message within its pair.
        seq: u64,
    },
}

/// Counters describing what the fault model did to the traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultModelStats {
    /// Transmission attempts lost to random drop or a link-down window.
    pub dropped: u64,
    /// Attempts delivered with a corrupted payload and rejected by the
    /// receiver's integrity check.
    pub corrupt_rejected: u64,
    /// Wire-level duplicates discarded by receiver-side dedup.
    pub dup_dropped: u64,
    /// Packets the wire reordered (absorbed by in-order release).
    pub reordered: u64,
    /// Retransmissions the reliable layer performed.
    pub retransmits: u64,
}

/// Per-pair bookkeeping for [`FaultModel`].
#[derive(Clone, Debug)]
struct PairFaults {
    rng: Xoshiro256,
    sent: u64,
}

/// The simulation engine's view of an unreliable WAN: collapses the whole
/// drop → timeout → retransmit → ack dance into a single virtual-time
/// answer per logical message ("it arrives `extra_delay` late after `n`
/// retransmits", or "the transport gives up").
///
/// Attempt `i` (0-based) departs at `depart + (2^i - 1) * rto` — the
/// exponential-backoff schedule of the reliable layer — and each attempt
/// consumes one draw from the pair's fault stream.  Duplicates and
/// reorders are counted but cost no virtual time: receiver-side dedup and
/// in-order release hide them from the application by construction, which
/// is exactly the invariant the threaded engine's tests verify for real.
#[derive(Clone, Debug)]
pub struct FaultModel {
    plan: FaultPlan,
    pairs: HashMap<(u32, u32), PairFaults>,
    stats: FaultModelStats,
}

impl FaultModel {
    /// Build a model from a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultModel { plan, pairs: HashMap::new(), stats: FaultModelStats::default() }
    }

    /// The plan this model runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &FaultModelStats {
        &self.stats
    }

    /// Decide the fate of one logical cross-WAN message departing at
    /// `depart` (an absolute virtual instant; link-down windows are
    /// interpreted relative to [`Time::ZERO`]).
    pub fn plan_delivery(&mut self, src: Pe, dst: Pe, depart: Time) -> DeliveryPlan {
        let plan = &self.plan;
        let stats = &mut self.stats;
        let pair =
            self.pairs.entry((src.0, dst.0)).or_insert_with(|| PairFaults { rng: plan.pair_stream(src, dst), sent: 0 });
        let seq = pair.sent;
        pair.sent += 1;

        let mut extra = Dur::ZERO;
        let mut backoff = plan.rto;
        for attempt in 0..=plan.max_retries {
            let at = (depart + extra).saturating_since(Time::ZERO);
            let r = pair.rng.next_f64();
            if plan.link_is_down(at) || r < plan.drop {
                stats.dropped += 1;
            } else if r < plan.drop + plan.corrupt {
                stats.corrupt_rejected += 1;
            } else {
                let duplicated = r < plan.drop + plan.corrupt + plan.duplicate;
                if duplicated {
                    stats.dup_dropped += 1;
                } else if r < plan.drop + plan.corrupt + plan.duplicate + plan.reorder {
                    stats.reordered += 1;
                }
                stats.retransmits += attempt as u64;
                return DeliveryPlan::Deliver { extra_delay: extra, retransmits: attempt, duplicate: duplicated };
            }
            extra += backoff;
            backoff = backoff.checked_mul(2).unwrap_or(backoff);
        }
        stats.retransmits += plan.max_retries as u64;
        DeliveryPlan::Exhausted { attempts: plan.max_retries + 1, seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_delivers_instantly() {
        let mut fm = FaultModel::new(FaultPlan::default());
        for i in 0..100u64 {
            let got = fm.plan_delivery(Pe(0), Pe(4), Time::from_nanos(i * 10));
            assert_eq!(got, DeliveryPlan::Deliver { extra_delay: Dur::ZERO, retransmits: 0, duplicate: false });
        }
        assert_eq!(fm.stats(), &FaultModelStats::default());
    }

    #[test]
    fn deterministic_across_instances() {
        let plan = FaultPlan::loss(0.3).with_duplicate(0.1).with_reorder(0.1).with_seed(7);
        let mut a = FaultModel::new(plan.clone());
        let mut b = FaultModel::new(plan);
        for i in 0..500u64 {
            let t = Time::from_nanos(i * 1_000);
            assert_eq!(a.plan_delivery(Pe(1), Pe(5), t), b.plan_delivery(Pe(1), Pe(5), t));
        }
    }

    #[test]
    fn pair_streams_are_independent_of_interleaving() {
        let plan = FaultPlan::loss(0.5).with_seed(42);
        // Model A sees pairs strictly interleaved; model B sees one pair
        // first.  Per-pair outcomes must match regardless.
        let mut a = FaultModel::new(plan.clone());
        let mut b = FaultModel::new(plan);
        let t = Time::ZERO;
        let mut a01 = Vec::new();
        let mut a23 = Vec::new();
        for _ in 0..50 {
            a01.push(a.plan_delivery(Pe(0), Pe(1), t));
            a23.push(a.plan_delivery(Pe(2), Pe(3), t));
        }
        let b01: Vec<_> = (0..50).map(|_| b.plan_delivery(Pe(0), Pe(1), t)).collect();
        let b23: Vec<_> = (0..50).map(|_| b.plan_delivery(Pe(2), Pe(3), t)).collect();
        assert_eq!(a01, b01);
        assert_eq!(a23, b23);
    }

    #[test]
    fn retransmits_follow_backoff_schedule() {
        // drop = 1 up to the retry ceiling: exhaustion, with attempts
        // counted.  Then drop = 0 after a down window: the first attempts
        // inside the window fail, and the recovery delay follows
        // (2^i - 1) * rto.
        let mut fm = FaultModel::new(FaultPlan::loss(1.0).with_max_retries(3));
        match fm.plan_delivery(Pe(0), Pe(9), Time::ZERO) {
            DeliveryPlan::Exhausted { attempts, seq } => {
                assert_eq!(attempts, 4);
                assert_eq!(seq, 0);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }

        let rto = Dur::from_millis(10);
        let plan = FaultPlan::default().with_rto(rto).with_link_down(Dur::ZERO, Dur::from_millis(25));
        let mut fm = FaultModel::new(plan);
        // Attempts at 0 ms and 10 ms are inside the window; the attempt at
        // 30 ms (extra = rto + 2*rto) succeeds.
        match fm.plan_delivery(Pe(0), Pe(9), Time::ZERO) {
            DeliveryPlan::Deliver { extra_delay, retransmits, .. } => {
                assert_eq!(retransmits, 2);
                assert_eq!(extra_delay, Dur::from_millis(30));
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(fm.stats().dropped, 2);
        assert_eq!(fm.stats().retransmits, 2);
    }

    #[test]
    fn loss_rate_roughly_matches_probability() {
        let mut fm = FaultModel::new(FaultPlan::loss(0.2).with_seed(3));
        let n = 20_000;
        for i in 0..n {
            fm.plan_delivery(Pe(0), Pe(8), Time::from_nanos(i));
        }
        // E[retransmits per message] = p / (1 - p) = 0.25.
        let per_msg = fm.stats().retransmits as f64 / n as f64;
        assert!((per_msg - 0.25).abs() < 0.02, "retransmits/msg = {per_msg}");
    }

    #[test]
    #[should_panic(expected = "sum to <= 1")]
    fn overfull_probabilities_rejected() {
        let _ = FaultPlan::loss(0.9).with_corrupt(0.2);
    }
}
