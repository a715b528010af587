//! The delivery-policy seam: pluggable schedule exploration for the
//! simulation engine.
//!
//! The scheduler contract (paper §4) fixes *priority* order but leaves the
//! order among equal-priority messages open — FIFO is merely the default.
//! Real Grid transports break that default constantly: MPICH-G2 and
//! MPWide both document multi-path WAN delivery reordering messages that a
//! LAN would have kept in order.  A [`DeliveryPolicy`] makes that
//! nondeterminism explicit and *controllable*: whenever a PE's scheduler
//! finds two or more envelopes tied at the front priority class, the
//! policy picks which one runs.  Index 0 is the FIFO choice, so
//! [`FifoPolicy`] reproduces the engine's historical behavior exactly.
//!
//! Policies are described by a [`DeliverySpec`] (plain data, so
//! [`SimConfig`](crate::engine::sim::SimConfig) stays `Clone + Debug`) and
//! materialized per run.  The engine records every consulted choice into an optional
//! [`ScheduleSink`]; the recorded [`ScheduleTrace`] can be replayed with
//! [`DeliverySpec::Replay`] — clamped to what is actually eligible, so a
//! trace stays a valid (if no longer bit-identical) schedule even after
//! the program diverges — which is what makes shrinking in `mdo-check`
//! possible.
//!
//! Only the simulation engine consults the seam: the threaded engine's
//! schedules come from real thread interleaving and are not replayable.

use std::sync::{Arc, Mutex};

use mdo_netsim::{Pe, Xoshiro256};

/// One recorded (or prescribed) scheduling decision: PE `pe` had
/// `eligible` equal-priority envelopes queued and dispatched the
/// `chosen`-th (0 = FIFO order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleChoice {
    /// The PE whose scheduler was at a choice point.
    pub pe: u32,
    /// Envelopes tied at the front priority class (always ≥ 2).
    pub eligible: u32,
    /// FIFO index of the envelope dispatched.
    pub chosen: u32,
}

/// A complete delivery-order trace: the contested scheduling decisions of
/// one run, in global dispatch order.  Uncontested dispatches (one
/// eligible envelope) are not recorded — they carry no information.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// The decisions, in the order the engine consulted the policy.
    pub choices: Vec<ScheduleChoice>,
}

impl ScheduleTrace {
    /// How many decisions deviate from FIFO (chosen ≠ 0) — the size of a
    /// trace for shrinking purposes.
    pub fn deviations(&self) -> usize {
        self.choices.iter().filter(|c| c.chosen != 0).count()
    }
}

/// Where the engine records consulted choices (shared with the caller).
pub type ScheduleSink = Arc<Mutex<ScheduleTrace>>;

/// A live scheduling policy, materialized from a [`DeliverySpec`] for one
/// run.  `choose` is called only at genuine choice points (≥ 2 eligible)
/// and must return an index `< eligible`; the engine clamps out-of-range
/// answers rather than panicking, so replayed traces degrade gracefully.
pub trait DeliveryPolicy: Send {
    /// Pick which of the `eligible` equal-priority envelopes (in FIFO
    /// order) PE `pe` dispatches next.
    fn choose(&mut self, pe: Pe, eligible: usize) -> usize;
}

/// The default policy: always the FIFO choice.
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoPolicy;

impl DeliveryPolicy for FifoPolicy {
    fn choose(&mut self, _pe: Pe, _eligible: usize) -> usize {
        0
    }
}

/// Seeded uniform choice at every contested dispatch — the broad,
/// unfocused end of the exploration spectrum.
#[derive(Clone, Debug)]
pub struct RandomPolicy {
    rng: Xoshiro256,
}

impl RandomPolicy {
    /// A policy drawing from a [`Xoshiro256`] stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        RandomPolicy { rng: Xoshiro256::new(seed) }
    }
}

impl DeliveryPolicy for RandomPolicy {
    fn choose(&mut self, _pe: Pe, eligible: usize) -> usize {
        self.rng.next_below(eligible as u64) as usize
    }
}

/// PCT-style policy (Burckhardt et al.'s probabilistic concurrency
/// testing, adapted to message delivery): behave as FIFO except at `depth`
/// *change points* drawn uniformly over an expected `horizon` of contested
/// dispatches, where a random eligible envelope is picked instead.  Small
/// `depth` concentrates probability on the low-depth ordering bugs that
/// dominate in practice, instead of diffusing it like [`RandomPolicy`].
#[derive(Clone, Debug)]
pub struct PctPolicy {
    rng: Xoshiro256,
    change_points: Vec<u64>,
    calls: u64,
}

impl PctPolicy {
    /// A policy with `depth` change points over `horizon` expected
    /// contested dispatches (a horizon of 0 degenerates to FIFO).
    pub fn new(seed: u64, depth: u32, horizon: u64) -> Self {
        let mut rng = Xoshiro256::new(seed);
        let mut change_points = Vec::with_capacity(depth as usize);
        if horizon > 0 {
            for _ in 0..depth {
                change_points.push(rng.next_below(horizon));
            }
        }
        PctPolicy { rng, change_points, calls: 0 }
    }
}

impl DeliveryPolicy for PctPolicy {
    fn choose(&mut self, _pe: Pe, eligible: usize) -> usize {
        let at_change_point = self.change_points.contains(&self.calls);
        self.calls += 1;
        if at_change_point {
            self.rng.next_below(eligible as u64) as usize
        } else {
            0
        }
    }
}

/// Replay of a recorded [`ScheduleTrace`]: decisions are consumed in
/// order, each clamped to the eligible count actually seen; once the
/// trace runs out the policy falls back to FIFO.  This clamped replay is
/// deliberately forgiving — a shrunk trace whose prefix was edited still
/// drives a valid schedule, it just may no longer match the original run
/// bit for bit.
#[derive(Clone, Debug)]
pub struct TracePolicy {
    trace: Arc<ScheduleTrace>,
    pos: usize,
}

impl TracePolicy {
    /// Replay `trace` from the beginning.
    pub fn new(trace: Arc<ScheduleTrace>) -> Self {
        TracePolicy { trace, pos: 0 }
    }
}

impl DeliveryPolicy for TracePolicy {
    fn choose(&mut self, _pe: Pe, eligible: usize) -> usize {
        let Some(c) = self.trace.choices.get(self.pos) else {
            return 0;
        };
        self.pos += 1;
        (c.chosen as usize).min(eligible - 1)
    }
}

/// Plain-data description of a delivery policy, carried by
/// [`SimConfig::delivery`](crate::engine::sim::SimConfig::delivery).
#[derive(Clone, Debug, Default)]
pub enum DeliverySpec {
    /// FIFO within priorities — the classic engine behavior.
    #[default]
    Fifo,
    /// Seeded uniform choice at every contested dispatch.
    Random {
        /// Stream seed (same seed ⇒ same schedule, bit for bit).
        seed: u64,
    },
    /// PCT-style `depth` change points over `horizon` contested dispatches.
    Pct {
        /// Stream seed.
        seed: u64,
        /// Number of change points (the classic PCT `d`).
        depth: u32,
        /// Expected contested dispatches in the run (measure with a
        /// recorded FIFO run; an overestimate only dilutes the points).
        horizon: u64,
    },
    /// Replay a recorded trace (clamped, FIFO after exhaustion).
    Replay(Arc<ScheduleTrace>),
}

impl DeliverySpec {
    /// Materialize the live policy for one run.
    pub fn build(&self) -> Box<dyn DeliveryPolicy> {
        match self {
            DeliverySpec::Fifo => Box::new(FifoPolicy),
            DeliverySpec::Random { seed } => Box::new(RandomPolicy::new(*seed)),
            DeliverySpec::Pct { seed, depth, horizon } => Box::new(PctPolicy::new(*seed, *depth, *horizon)),
            DeliverySpec::Replay(trace) => Box::new(TracePolicy::new(Arc::clone(trace))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_always_picks_zero() {
        let mut p = FifoPolicy;
        for n in 2..10 {
            assert_eq!(p.choose(Pe(0), n), 0);
        }
    }

    #[test]
    fn random_is_seed_deterministic_and_in_range() {
        let mut a = RandomPolicy::new(42);
        let mut b = RandomPolicy::new(42);
        let mut c = RandomPolicy::new(43);
        let xs: Vec<usize> = (0..200).map(|i| a.choose(Pe(i % 4), 2 + (i as usize % 7))).collect();
        let ys: Vec<usize> = (0..200).map(|i| b.choose(Pe(i % 4), 2 + (i as usize % 7))).collect();
        let zs: Vec<usize> = (0..200).map(|i| c.choose(Pe(i % 4), 2 + (i as usize % 7))).collect();
        assert_eq!(xs, ys, "same seed, same choices");
        assert_ne!(xs, zs, "different seed diverges");
        for (i, &x) in xs.iter().enumerate() {
            assert!(x < 2 + (i % 7));
        }
    }

    #[test]
    fn pct_deviates_at_most_depth_times() {
        let mut p = PctPolicy::new(7, 3, 1_000);
        let deviations = (0..1_000).filter(|_| p.choose(Pe(0), 4) != 0).count();
        assert!(deviations <= 3, "at most `depth` non-FIFO picks, got {deviations}");
    }

    #[test]
    fn pct_zero_horizon_is_fifo() {
        let mut p = PctPolicy::new(7, 5, 0);
        assert!((0..100).all(|_| p.choose(Pe(0), 3) == 0));
    }

    #[test]
    fn trace_replays_clamped_then_fifo() {
        let trace = Arc::new(ScheduleTrace {
            choices: vec![
                ScheduleChoice { pe: 0, eligible: 3, chosen: 2 },
                ScheduleChoice { pe: 1, eligible: 5, chosen: 4 },
            ],
        });
        let mut p = TracePolicy::new(trace);
        assert_eq!(p.choose(Pe(0), 3), 2);
        // Divergence: only 2 eligible now; the recorded 4 clamps to 1.
        assert_eq!(p.choose(Pe(1), 2), 1);
        // Exhausted: FIFO.
        assert_eq!(p.choose(Pe(0), 9), 0);
    }

    #[test]
    fn deviations_counts_non_fifo_choices() {
        let t = ScheduleTrace {
            choices: vec![
                ScheduleChoice { pe: 0, eligible: 2, chosen: 0 },
                ScheduleChoice { pe: 0, eligible: 2, chosen: 1 },
                ScheduleChoice { pe: 1, eligible: 4, chosen: 3 },
            ],
        };
        assert_eq!(t.deviations(), 2);
    }

    #[test]
    fn spec_builds_matching_policies() {
        assert_eq!(DeliverySpec::Fifo.build().choose(Pe(0), 4), 0);
        let mut p = DeliverySpec::Random { seed: 1 }.build();
        assert!(p.choose(Pe(0), 4) < 4);
        let mut q = DeliverySpec::Pct { seed: 1, depth: 0, horizon: 10 }.build();
        assert_eq!(q.choose(Pe(0), 4), 0, "depth 0 is FIFO");
    }
}
