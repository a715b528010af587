//! # mdo-apps — the paper's applications, rebuilt on `mdo-core`
//!
//! * [`stencil`] — the five-point stencil finite-difference application of
//!   §4/§5.2: a 2048×2048 mesh decomposed into k² message-driven block
//!   objects, each exchanging four ghost vectors per time step.  Includes
//!   the sequential reference solver, the ghost-zone-expansion variant
//!   (the algorithm-level alternative of Ding & He, discussed in §3), and
//!   a bulk-synchronous AMPI baseline (the "many algorithms would have
//!   increased their per-step time" strawman of §5.3).
//! * [`leanmd`] — the LeanMD molecular dynamics benchmark of §4/§5.3:
//!   216 cells and 3,024 cell-pair objects over a 6×6×6 periodic cell
//!   grid, coordinate multicasts, cutoff Lennard-Jones + screened
//!   electrostatics, and a sequential reference for validation.
//! * [`jacobi3d`] — a 7-point stencil over a 3-D spatial decomposition,
//!   demonstrating the conclusion's "wide variety of decomposition
//!   strategies" claim (and the §6 memory-bound multi-cluster scenario).
//! * [`irregular`] — an irregular (jittered-graph) mesh relaxation,
//!   covering the conclusion's remaining decomposition family.
//! * [`workloads`] — synthetic object workloads used by the load-balancer
//!   ablations.
//!
//! The four halo applications — the stencil, its ghost-zone variant,
//! Jacobi3D and the irregular mesh — share one step protocol (the crate's
//! `halo` module: exchange with the neighbours, then compute), one program
//! builder and one outcome type, [`stencil::StencilOutcome`].  Each
//! supplies only its geometry, kernel, cost and sequential reference.
//!
//! Every application exposes a *cost model* (virtual ns per unit of work)
//! so the simulation engine reproduces the paper's absolute time scale,
//! and a `compute` switch that runs the real kernels for validation.

//! ```
//! use mdo_apps::stencil::{self, StencilConfig};
//! use mdo_core::program::RunConfig;
//! use mdo_netsim::network::NetworkModel;
//! use mdo_netsim::Dur;
//!
//! // One Figure-3 data point: 64 objects on 8 PEs at 4 ms one-way.
//! let cfg = StencilConfig::paper(64, 5);
//! let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(4));
//! let out = stencil::run_sim(cfg, net, RunConfig::default());
//! assert!(out.ms_per_step > 0.0);
//! ```

#![warn(missing_docs)]

mod halo;
pub mod irregular;
pub mod jacobi3d;
pub mod leanmd;
pub mod stencil;
pub mod workloads;
