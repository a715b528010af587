//! Execution engines.
//!
//! Two engines run the same [`crate::node::Node`] logic, one over virtual
//! time and one over the wall clock:
//!
//! * [`sim`] — deterministic discrete-event simulation over virtual time
//!   (`mdo-netsim`): the paper's "simulated Grid environment" with swept
//!   artificial latencies (§5.1).
//! * [`threaded`] + [`net`] — the wall-clock engine: one OS thread per PE
//!   over the `mdo-vmi` transport with a real delay device,
//!   our stand-in for the paper's real multi-cluster TeraGrid runs ("Real
//!   Latency" columns of Tables 1–2).  [`threaded`] holds its
//!   configuration, entry point and PE threads; [`net`] holds its one
//!   generation loop (launch, watchdog, recovery, report) and the control
//!   plane that loop speaks when `RunConfig::net` spreads the job over
//!   one process per cluster.  The in-process run is the one-node case of
//!   the multi-process run: the only difference is whether a
//!   [`mdo_vmi::Wire`] (real TCP, `mdo-net`) is bound under the unchanged
//!   transport stack — the paper's "same runtime, different device
//!   chain".  `join_plan` and `obs` remain single-process features.
//!
//! Both engines end a generation and start the next — a shrink over the
//! survivors of a failure, an expand over due joiners — through one state
//! machine (`generation.rs`, private to this module), and close their
//! books and write their report through it; each supplies only its clock,
//! its transport and its way of stopping and restarting PEs.
//!
//! [`policy`] is the simulation engine's delivery-order seam: a pluggable
//! [`policy::DeliveryPolicy`] decides which of several equal-priority
//! queued messages a PE dispatches next, turning the deterministic engine
//! into a systematic schedule explorer (see the `mdo-check` crate).

mod generation;
pub mod net;
pub mod policy;
pub mod sim;
pub mod threaded;
