//! # gridmdo — message-driven objects for Grid latency masking
//!
//! Umbrella crate for the reproduction of *"Using Message-Driven Objects
//! to Mask Latency in Grid Computing Applications"* (Koenig & Kalé,
//! IPDPS 2005).  It re-exports the workspace crates under stable names
//! and hosts the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`).
//!
//! * [`runtime`] (`mdo-core`) — the message-driven object runtime.
//! * [`netsim`] (`mdo-netsim`) — the discrete-event Grid substrate.
//! * [`vmi`] (`mdo-vmi`) — the device-chain messaging layer.
//! * [`ampi`] (`mdo-ampi`) — the MPI-flavoured layer.
//! * [`apps`] (`mdo-apps`) — the paper's applications.
//! * [`obs`] (`mdo-obs`) — Projections-style observability: event
//!   streams, counters, histograms, overlap analysis and exporters.
//! * [`net`] (`mdo-net`) — the real TCP transport behind the `Wire`
//!   seam, plus the multi-process node launcher (`mdo_launch`).
//!
//! Start with `examples/quickstart.rs`, then see README.md for the
//! experiment harness.

pub use mdo_ampi as ampi;
pub use mdo_apps as apps;
pub use mdo_core as runtime;
pub use mdo_net as net;
pub use mdo_netsim as netsim;
pub use mdo_obs as obs;
pub use mdo_vmi as vmi;

/// Everything a typical application needs.
pub mod prelude {
    pub use mdo_ampi::{build_ampi_program, AmpiOp, Rank, RankBody};
    pub use mdo_core::prelude::*;
    pub use mdo_core::program::{LbChoice, RunConfig};
    pub use mdo_core::{SimEngine, ThreadedConfig, ThreadedEngine};
    pub use mdo_net::{launch, KillPlan, LaunchOutcome, LaunchSpec, NetConfig};
    pub use mdo_netsim::network::NetworkModel;
    pub use mdo_netsim::{
        CrashTrigger, Dur, FailureCause, FailurePlan, FaultPlan, FlowConfig, LatencyMatrix, OverloadPolicy, Pe,
        PeFailed, SpanTree, Time, Topology, TransportError, UnrecoverableError,
    };
    pub use mdo_obs::{ObsConfig, ObsReport};
}
