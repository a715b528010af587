//! # mdo-check — deterministic schedule exploration and differential testing
//!
//! The runtime's central promise is that *message delivery order is an
//! implementation detail*: the scheduler may interleave equal-priority
//! messages however latency, faults, or load balancing happen to arrange
//! them, and the application's results must not move by a bit.  The rest
//! of the workspace tests that promise against the handful of schedules
//! FIFO delivery happens to produce.  This crate tests it against
//! *chosen* schedules.
//!
//! The pieces:
//!
//! * [`explore`](mod@explore) — drives the sim engine's delivery-policy
//!   seam ([`mdo_core::DeliverySpec`]) through hundreds of seeded-random
//!   and PCT-style schedules per app config, fully deterministically
//!   (same seed ⇒ same schedule sequence ⇒ same verdicts).
//! * [`invariant`] — the oracle: exactly-once delivery, quiescence
//!   soundness, checkpoint-epoch consistency and bit-exact state digests,
//!   all judged from `mdo-obs` event streams.
//! * [`shrink`](mod@shrink) — reduces a failing interleaving to a minimal
//!   delivery-order trace by greedily zeroing deviations toward FIFO.
//! * [`schedule`] — the replayable `schedule.json` artifact format.
//! * [`apps`] — mini stencil and LeanMD configurations with bit-pattern
//!   state digests, plus threaded-engine runners for differential checks.
//!
//! The `mdo_check` binary wires these into the CI job: fixed-seed
//! exploration over both app configs, failing schedules shrunk and
//! written out as artifacts.

#![warn(missing_docs)]

pub mod apps;
pub mod explore;
pub mod invariant;
pub mod schedule;
pub mod shrink;

pub use apps::{digest_f64s, AppRun, CheckApp, Runner, SimRunner};
pub use explore::{explore, replay_violations, ExploreConfig, ExploreReport, FailingSchedule, ScheduleOutcome};
pub use invariant::{check_digest, check_report, Expectation, Violation};
pub use schedule::ScheduleFile;
pub use shrink::{shrink, ShrinkResult};
