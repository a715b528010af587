//! # mdo-core — a message-driven object runtime for Grid latency masking
//!
//! This crate is the primary contribution of the reproduction: a Charm++-
//! style runtime in which an application is decomposed into many more
//! *message-driven objects* (chares) than physical processors, and a
//! per-processor scheduler dispatches whichever object has a message ready.
//! When some objects wait on high-latency cross-cluster messages, the
//! scheduler automatically runs other objects whose (local) messages have
//! already arrived — *"the wait for remote-cluster messages is
//! automatically overlapped with useful computation"* (paper §4) — with no
//! change to application code.
//!
//! ## Architecture
//!
//! * [`wire`] — explicit byte codec for message payloads and object state.
//! * [`envelope`] — the runtime's message format ([`Envelope`]).
//! * [`queue`] — the per-PE scheduler queue (priority + FIFO, stable).
//! * [`chare`] — the [`Chare`] trait and handler context [`Ctx`].
//! * [`mapping`] — initial object→PE placement strategies.
//! * [`array`](mod@array) — chare-array bookkeeping (elements, locations, reductions).
//! * [`node`] — the engine-agnostic per-PE runtime core: dispatch,
//!   broadcasts, reductions, quiescence detection, AtSync load balancing
//!   and migration.
//! * [`balancer`] — load-balancing strategies, including the paper's §6
//!   Grid-aware balancer (`GridCommLB`).
//! * [`program`] — how an application describes itself to an engine.
//! * [`engine::sim`] — the virtual-time engine over `mdo-netsim` (the
//!   "simulated Grid environment" of §5.1, sweeping artificial latencies).
//! * [`engine::threaded`] — the real-time engine over `mdo-vmi` (one OS
//!   thread per PE, a real delay device injecting real latencies — our
//!   stand-in for the paper's real multi-cluster validation runs).
//! * [`trace`] — execution timelines (Figure 2 reproductions), derived
//!   from the `mdo-obs` event stream both engines record into.
//!
//! Observability lives in the `mdo-obs` crate: arm [`RunConfig::obs`]
//! with an [`ObsConfig`] and the run report carries an
//! [`ObsReport`] — per-PE event streams, counters, latency/grain
//! histograms, the overlap-fraction analysis, and Chrome-trace/CSV
//! exporters.  Unset (the default), nothing is recorded.
//!
//! Both engines execute the *same* application objects; only time differs
//! (virtual vs wall-clock).
//!
//! ## A complete program
//!
//! ```
//! use mdo_core::prelude::*;
//! use mdo_core::envelope::ReduceOp;
//! use mdo_core::SimEngine;
//! use mdo_netsim::network::NetworkModel;
//!
//! const POKE: EntryId = EntryId(1);
//!
//! /// Each element charges some work and contributes its index.
//! struct Summer;
//! impl Chare for Summer {
//!     fn receive(&mut self, entry: EntryId, _payload: &[u8], ctx: &mut Ctx<'_>) {
//!         assert_eq!(entry, POKE);
//!         ctx.charge(Dur::from_micros(100));
//!         ctx.contribute_f64(ReduceOp::SumF64, &[ctx.my_elem().0 as f64]);
//!     }
//! }
//!
//! // 16 objects on 4 PEs split across two clusters, 5 ms apart.
//! let mut program = Program::new();
//! let array = program.array("summers", 16, Mapping::Block, |_| Box::new(Summer));
//! program.on_startup(move |ctl| ctl.broadcast(array, POKE, vec![]));
//! program.on_reduction(array, |_seq, data, ctl| {
//!     if let mdo_core::envelope::ReduceData::F64(v) = data {
//!         assert_eq!(v[0], (0..16).sum::<i32>() as f64);
//!     }
//!     ctl.exit();
//! });
//!
//! let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(5));
//! let report = SimEngine::new(net, RunConfig::default()).run(program);
//! assert!(report.end_time > Time::ZERO + Dur::from_millis(5), "one WAN hop at least");
//! ```

#![warn(missing_docs)]

pub mod array;
pub mod balancer;
pub mod chare;
pub mod checkpoint;
pub mod engine;
pub mod envelope;
pub mod ids;
pub mod mapping;
pub mod node;
pub mod program;
pub mod queue;
pub mod reduction;
pub mod trace;
pub mod wire;

pub use chare::{Chare, Ctx, HostCtl};
pub use engine::policy::{DeliveryPolicy, DeliverySpec, ScheduleChoice, ScheduleSink, ScheduleTrace};
pub use engine::sim::{SimConfig, SimEngine};
pub use engine::threaded::{ThreadedConfig, ThreadedEngine};
pub use envelope::{Envelope, MsgBody};
pub use ids::{ArrayId, ElemId, EntryId, ObjKey};
pub use mapping::Mapping;
pub use mdo_obs::{ObsConfig, ObsReport};
pub use program::{Program, RunConfig, RunReport};

/// Commonly used items, re-exported for applications.
pub mod prelude {
    pub use crate::balancer::{FeedbackConfig, FeedbackDecision};
    pub use crate::chare::{Chare, Ctx, HostCtl};
    pub use crate::engine::policy::{DeliverySpec, ScheduleChoice, ScheduleSink, ScheduleTrace};
    pub use crate::ids::{ArrayId, ElemId, EntryId, ObjKey};
    pub use crate::mapping::Mapping;
    pub use crate::program::{Program, RunConfig, RunReport};
    pub use crate::wire::{WireReader, WireWriter};
    pub use bytes::Bytes;
    pub use mdo_netsim::{
        AggConfig, ClusterId, CrashSpec, CrashTrigger, Dur, FailureCause, FailurePlan, JoinPlan, JoinSpec, JoinTrigger,
        Pe, PeFailed, SpanTree, Time, Topology, TreeConfig, UnrecoverableError,
    };
    pub use mdo_obs::{ObsConfig, ObsReport};
}

pub use mdo_netsim::{AggConfig, ClusterId, Dur, Pe, Time, Topology};
