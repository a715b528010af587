//! Deterministic PE-failure injection and the structured failure events
//! the runtime surfaces when processors die.
//!
//! The paper's §2.1 positions migratability as the foundation for fault
//! tolerance ("checkpointing, fault tolerance, and the ability to shrink
//! and expand the set of processors").  This module supplies the *plan*
//! side of that story: which PEs die, when, and how failures are
//! reported.  The detection and recovery machinery lives in `mdo-core`'s
//! engines; nothing here knows about chares or messages.
//!
//! A [`FailurePlan`] is deterministic by construction — crashes fire at
//! exact virtual times (simulation engine) or wall-clock/progress points
//! (threaded engine), so a failure-injected run is reproducible and can
//! be asserted bit-exact against a failure-free run.

use crate::time::{Dur, Time};
use crate::topology::Pe;

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

/// A deterministic schedule of PE failures plus the failure-detector
/// tuning used by the threaded engine.
///
/// Setting a `FailurePlan` on a run (even an empty one) also arms the
/// *tolerance* machinery: buddy checkpoints are taken at every AtSync
/// barrier, heartbeats flow in the threaded engine, and a panicking chare
/// handler marks its PE failed instead of aborting the job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailurePlan {
    /// The crashes to inject, in no particular order.
    pub crashes: Vec<CrashSpec>,
    /// Heartbeat period in the threaded engine (ignored in virtual time,
    /// where failures are detected exactly).
    pub hb_interval: Dur,
    /// How long PE 0 waits without a heartbeat before suspecting a PE
    /// dead (threaded engine only).  Must comfortably exceed
    /// `hb_interval` plus worst-case injected latency.
    pub suspect_after: Dur,
}

impl Default for FailurePlan {
    fn default() -> Self {
        FailurePlan { crashes: Vec::new(), hb_interval: Dur::from_millis(25), suspect_after: Dur::from_millis(250) }
    }
}

impl FailurePlan {
    /// An empty plan: no injected crashes, but tolerance machinery armed.
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

    /// Tune the threaded engine's failure detector.
    pub fn with_heartbeat(mut self, interval: Dur, suspect_after: Dur) -> Self {
        assert!(suspect_after > interval, "suspicion timeout must exceed the heartbeat period");
        self.hb_interval = interval;
        self.suspect_after = suspect_after;
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
        let plan = FailurePlan::new()
            .crash_at(Pe(2), Dur::from_millis(10))
            .crash_after_messages(Pe(3), 100)
            .with_heartbeat(Dur::from_millis(5), Dur::from_millis(60));
        assert_eq!(plan.crashes.len(), 2);
        assert_eq!(plan.crashes[0], CrashSpec { pe: Pe(2), trigger: CrashTrigger::AtTime(Dur::from_millis(10)) });
        assert_eq!(plan.crashes[1], CrashSpec { pe: Pe(3), trigger: CrashTrigger::AfterMessages(100) });
        assert_eq!(plan.hb_interval, Dur::from_millis(5));
        assert_eq!(plan.suspect_after, Dur::from_millis(60));
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
