//! # mdo-netsim — discrete-event simulation kernel and Grid network models
//!
//! This crate is the *testbed substrate* for the reproduction of
//! "Using Message-Driven Objects to Mask Latency in Grid Computing
//! Applications" (Koenig & Kalé, IPDPS 2005).  The paper runs its
//! experiments on a pair of Itanium-2 clusters whose inter-cluster latency
//! is either injected artificially (via a VMI *delay device*) or is the
//! real NCSA↔ANL TeraGrid WAN latency.  We reproduce the artificial-latency
//! environment as a deterministic discrete-event simulation:
//!
//! * [`time`] — virtual time as integer nanoseconds ([`Time`], [`Dur`]).
//! * [`event`] — a stable, cancellable event queue ([`EventQueue`]).
//! * [`topology`] — clusters of nodes of processing elements ([`Topology`]).
//! * [`latency`] — the per-PE-pair latency model ([`LatencyMatrix`]),
//!   including the "delay device" semantics of the paper's §5.1.
//! * [`bandwidth`] — link serialization and shared-WAN contention
//!   ([`WanContention`]), modelling the §5.3 observation that 64-processor
//!   runs suffer from cross-cluster contention.
//! * [`network`] — [`NetworkModel`] combining the above into a single
//!   "when does this message arrive" oracle.
//! * [`rng`] — small deterministic PRNGs for jitter and workloads.
//!
//! The message-driven runtime (crate `mdo-core`) drives this kernel; nothing
//! here knows about chares or entry methods.
//!
//! ```
//! use mdo_netsim::network::DeliveryOracle;
//! use mdo_netsim::{Dur, EventQueue, NetworkModel, Pe, Time};
//!
//! // Two clusters, 8 PEs, 16 ms across the wide area.
//! let mut net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(16));
//! let mut events: EventQueue<&str> = EventQueue::new();
//!
//! // A local and a cross-cluster message leave PE 0 at t=0.
//! let near = net.delivery_time(Pe(0), Pe(1), Time::ZERO, 1024);
//! let far = net.delivery_time(Pe(0), Pe(7), Time::ZERO, 1024);
//! events.schedule(far, "cross-cluster arrival");
//! events.schedule(near, "local arrival");
//!
//! assert_eq!(events.pop().unwrap().1, "local arrival");
//! let (t, what) = events.pop().unwrap();
//! assert_eq!(what, "cross-cluster arrival");
//! assert_eq!(t, Time::ZERO + Dur::from_millis(16));
//! ```

#![warn(missing_docs)]

pub mod agg;
pub mod bandwidth;
pub mod event;
pub mod failure;
pub mod fault;
pub mod flowctl;
pub mod latency;
pub mod network;
pub mod rng;
pub mod time;
pub mod topology;
pub mod tree;

pub use agg::AggConfig;
pub use bandwidth::{LinkModel, WanContention};
pub use event::{EventId, EventQueue};
pub use failure::{
    CrashSpec, CrashTrigger, FailureCause, FailurePlan, JoinSpec, JoinTrigger, PeFailed, UnrecoverableError,
};
pub use fault::{Fate, FaultPlan, FaultWire, Harm, TransportError, WireStats};
pub use flowctl::{FlowConfig, OverloadPolicy};
pub use latency::{LatencyMatrix, LatencyMatrixBuilder};
pub use network::{DeliveryOracle, NetworkModel, NetworkStats};
pub use rng::{keyed_unit, SplitMix64, Xoshiro256};
pub use time::{Dur, Time};
pub use topology::{ClusterId, Pe, Topology};
pub use tree::SpanTree;
