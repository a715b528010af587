//! Deterministic PE-failure injection and the structured failure events
//! the runtime surfaces when processors die.
//!
//! The paper's §2.1 positions migratability as the foundation for fault
//! tolerance ("checkpointing, fault tolerance, and the ability to shrink
//! and expand the set of processors").  This module supplies the *plan*
//! side of that story: which PEs die, which join, when, and how failures
//! are reported.  The detection and recovery machinery lives in
//! `mdo-core`'s engines; nothing here knows about chares or messages.
//!
//! A [`FailurePlan`] is deterministic by construction — crashes fire at
//! exact virtual times (simulation engine) or wall-clock/progress points
//! (threaded engine), and joins at a time or after a number of
//! recoveries — so a failure-injected or elastic run is reproducible and
//! can be asserted bit-exact against an undisturbed run.

use crate::time::{Dur, Time};
use crate::topology::{ClusterId, Pe};

/// When an injected crash fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashTrigger {
    /// Crash at this offset from the start of the run.  The simulation
    /// engine interprets it as exact virtual time; the threaded engine as
    /// wall-clock time since launch.
    AtTime(Dur),
    /// Crash immediately after the PE has handled this many messages — a
    /// progress point, identical in meaning on both engines.
    AfterMessages(u64),
}

/// One injected PE crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// The PE to kill.
    pub pe: Pe,
    /// When to kill it.
    pub trigger: CrashTrigger,
}

/// When an injected join becomes available.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinTrigger {
    /// Join at this offset from the start of the run.  The simulation
    /// engine interprets it as exact virtual time; the threaded engine as
    /// wall-clock time since launch.  The join is *admitted* at the first
    /// completed checkpoint epoch at or after this point.
    AtTime(Dur),
    /// Join once this many shrink-recoveries have completed — the natural
    /// trigger for a crashed-then-restarted PE rejoining, identical in
    /// meaning on both engines.
    AfterRecoveries(u32),
}

/// One injected PE join: the expand half of "shrink and expand the set of
/// processors".  The engines admit a joiner at the next completed buddy
/// checkpoint epoch, widening the topology with
/// [`Topology::with_pes`](crate::topology::Topology::with_pes) and
/// replaying the newest complete snapshot onto the wider PE set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinSpec {
    /// The joining PE, numbered in the run's *original* topology.  A PE
    /// number below the original PE count is a rejoin (the PE returns to
    /// its original cluster); a number at or above it is a brand-new PE
    /// and must carry an explicit `cluster`.
    pub pe: Pe,
    /// The cluster the PE joins.  `None` means "its original cluster"
    /// (rejoins only).
    pub cluster: Option<ClusterId>,
    /// When the PE becomes available.
    pub trigger: JoinTrigger,
}

/// Heartbeat period of the wall-clock engine's failure detector (virtual
/// time detects failures exactly and sends none).
pub const HEARTBEAT_INTERVAL: Dur = Dur::from_millis(25);

/// How long PE 0 waits without a heartbeat before suspecting a PE dead
/// (wall-clock engine only): ten periods, comfortably above one period
/// plus any latency the tests and tables inject.
pub const SUSPECT_AFTER: Dur = Dur::from_millis(250);

/// A deterministic schedule of PE crashes and joins.
///
/// Setting a `FailurePlan` on a run (even an empty one) also arms the
/// *tolerance* machinery: buddy checkpoints are taken at every AtSync
/// barrier (a join, too, restarts from the newest complete snapshot),
/// heartbeats flow in the wall-clock engine (every [`HEARTBEAT_INTERVAL`],
/// suspicion after [`SUSPECT_AFTER`]), and a panicking chare handler
/// marks its PE failed instead of aborting the job.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailurePlan {
    /// The crashes to inject, in no particular order.
    pub crashes: Vec<CrashSpec>,
    /// The joins to inject, in no particular order.
    pub joins: Vec<JoinSpec>,
}

impl FailurePlan {
    /// An empty plan: no injected crashes or joins, but tolerance machinery
    /// armed.
    pub fn new() -> Self {
        FailurePlan::default()
    }

    /// Add a crash of `pe` at virtual/wall-clock offset `at`.
    ///
    /// PE 0 hosts the program driver (startup, reductions, the recovery
    /// coordinator) and cannot be crash-injected.
    pub fn crash_at(mut self, pe: Pe, at: Dur) -> Self {
        assert!(pe.0 != 0, "PE 0 hosts the program driver and cannot be crash-injected");
        self.crashes.push(CrashSpec { pe, trigger: CrashTrigger::AtTime(at) });
        self
    }

    /// Add a crash of `pe` after it has handled `n` messages.
    ///
    /// PE 0 hosts the program driver and cannot be crash-injected.
    pub fn crash_after_messages(mut self, pe: Pe, n: u64) -> Self {
        assert!(pe.0 != 0, "PE 0 hosts the program driver and cannot be crash-injected");
        self.crashes.push(CrashSpec { pe, trigger: CrashTrigger::AfterMessages(n) });
        self
    }

    /// A crashed PE (original numbering) rejoins its original cluster at
    /// virtual/wall-clock offset `at`.
    pub fn rejoin_at(mut self, pe: Pe, at: Dur) -> Self {
        self.joins.push(JoinSpec { pe, cluster: None, trigger: JoinTrigger::AtTime(at) });
        self
    }

    /// A crashed PE (original numbering) rejoins its original cluster
    /// once `n` shrink-recoveries have completed.
    pub fn rejoin_after_recoveries(mut self, pe: Pe, n: u32) -> Self {
        self.joins.push(JoinSpec { pe, cluster: None, trigger: JoinTrigger::AfterRecoveries(n) });
        self
    }

    /// A brand-new PE joins `cluster` at virtual/wall-clock offset `at`.
    /// `pe` names the slot in original numbering and must lie at or above
    /// the original PE count (engines assert this at run start).
    pub fn join_at(mut self, pe: Pe, cluster: ClusterId, at: Dur) -> Self {
        self.joins.push(JoinSpec { pe, cluster: Some(cluster), trigger: JoinTrigger::AtTime(at) });
        self
    }
}

/// Why a PE was declared failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureCause {
    /// Killed by the [`FailurePlan`].
    Injected,
    /// A chare handler panicked; `catch_unwind` confined the damage to
    /// the PE.
    Panic,
    /// The failure detector timed the PE out (threaded engine), or its
    /// reliable transport exhausted all retries while a failure plan was
    /// armed.
    Unresponsive,
}

/// A structured record of one detected PE failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeFailed {
    /// The PE that died (numbered in the run's *original* topology).
    pub pe: Pe,
    /// When the failure was detected.
    pub at: Time,
    /// Why.
    pub cause: FailureCause,
}

/// The run could not recover and ended early — but cleanly, with this
/// error in the report instead of a process abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnrecoverableError {
    /// No buddy-checkpoint epoch survives the failure set: for some PE
    /// both the owner and its buddy are gone (or the first crash landed
    /// before the first checkpoint barrier).
    NoCompleteSnapshot {
        /// Every PE lost so far, in original numbering.
        failed: Vec<Pe>,
    },
    /// PE 0 — the host of startup, reductions and the recovery
    /// coordinator — failed; nothing can take over.
    HostFailed,
    /// A PE failed (e.g. a chare panicked) but the run had no
    /// [`FailurePlan`], so the tolerance machinery was disarmed.
    NoFailurePlan {
        /// The PE that failed.
        pe: Pe,
    },
    /// The run outlived the wall-clock engine's `max_wall` safety limit
    /// and was stopped; a hung job, as far as the engine can tell.
    DeadlineExceeded,
}

impl std::fmt::Display for UnrecoverableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnrecoverableError::NoCompleteSnapshot { failed } => {
                write!(f, "no complete buddy snapshot survives the loss of PEs {failed:?}")
            }
            UnrecoverableError::HostFailed => write!(f, "PE 0 (program host) failed; cannot recover"),
            UnrecoverableError::NoFailurePlan { pe } => {
                write!(f, "PE {} failed but no failure plan was armed; run aborted cleanly", pe.0)
            }
            UnrecoverableError::DeadlineExceeded => {
                write!(f, "the run exceeded its wall-clock deadline and was stopped")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_crashes() {
        let plan = FailurePlan::new().crash_at(Pe(2), Dur::from_millis(10)).crash_after_messages(Pe(3), 100);
        assert_eq!(plan.crashes.len(), 2);
        assert_eq!(plan.crashes[0], CrashSpec { pe: Pe(2), trigger: CrashTrigger::AtTime(Dur::from_millis(10)) });
        assert_eq!(plan.crashes[1], CrashSpec { pe: Pe(3), trigger: CrashTrigger::AfterMessages(100) });
    }

    #[test]
    fn builders_accumulate_joins() {
        let plan = FailurePlan::new().rejoin_at(Pe(2), Dur::from_millis(10)).rejoin_after_recoveries(Pe(3), 1).join_at(
            Pe(8),
            ClusterId(1),
            Dur::from_millis(20),
        );
        assert_eq!(plan.joins.len(), 3);
        assert_eq!(
            plan.joins[0],
            JoinSpec { pe: Pe(2), cluster: None, trigger: JoinTrigger::AtTime(Dur::from_millis(10)) }
        );
        assert_eq!(plan.joins[1], JoinSpec { pe: Pe(3), cluster: None, trigger: JoinTrigger::AfterRecoveries(1) });
        assert_eq!(
            plan.joins[2],
            JoinSpec { pe: Pe(8), cluster: Some(ClusterId(1)), trigger: JoinTrigger::AtTime(Dur::from_millis(20)) }
        );
    }

    #[test]
    fn empty_plan_is_default() {
        assert_eq!(FailurePlan::new(), FailurePlan::default());
        assert!(FailurePlan::new().crashes.is_empty() && FailurePlan::new().joins.is_empty());
    }

    #[test]
    #[should_panic(expected = "PE 0 hosts the program driver")]
    fn pe0_cannot_be_crashed() {
        let _ = FailurePlan::new().crash_at(Pe(0), Dur::from_millis(1));
    }

    #[test]
    fn unrecoverable_errors_display() {
        let e = UnrecoverableError::NoCompleteSnapshot { failed: vec![Pe(1), Pe(2)] };
        assert!(e.to_string().contains("no complete buddy snapshot"));
        assert!(UnrecoverableError::HostFailed.to_string().contains("PE 0"));
        assert!(UnrecoverableError::NoFailurePlan { pe: Pe(3) }.to_string().contains("no failure plan"));
        assert!(UnrecoverableError::DeadlineExceeded.to_string().contains("deadline"));
    }
}
