//! # mdo-ampi — Adaptive MPI on message-driven objects
//!
//! The paper (§2.1): *"Adaptive MPI (AMPI) implements the MPI standard by
//! encapsulating each MPI process within a user-level migratable thread.
//! By embedding each thread within a Charm++ object, AMPI programs can
//! automatically take advantage of the features of the Charm++ runtime
//! system with little or no changes to the underlying MPI program."*
//!
//! Here each MPI **rank is a suspendable Rust task** (`async` block) owned
//! by a chare element of the `mdo-core` runtime.  An `MPI_Recv` is an
//! `await`: the rank suspends, its chare returns to the scheduler, and the
//! PE runs *other* ranks whose messages have arrived — which is exactly
//! the paper's virtualization story: run many more ranks than PEs and the
//! scheduler overlaps cross-cluster waits with local rank execution, with
//! no change to the (MPI-style) application logic.
//!
//! * [`rank`] — the [`Rank`] handle: `send`, awaitable `recv`, `charge`.
//! * [`collectives`] — `barrier`, `bcast`, `gather`, `reduce` and
//!   `allreduce` on the runtime's reductions and multicast; `sendrecv`,
//!   `scatter`, `alltoall` and `scan` from point-to-point messages with
//!   reserved tags.
//! * [`world`] — gluing ranks onto a chare array and running them under
//!   either engine.
//!
//! **Substitution note (DESIGN.md):** real AMPI migrates thread stacks;
//! Rust futures cannot be serialized portably, so AMPI ranks here are
//! non-migratable (plain chare applications remain fully migratable).
//!
//! ## A complete MPI-style program
//!
//! ```
//! use std::sync::Arc;
//! use mdo_ampi::{run_sim, AmpiOp, RankBody};
//! use mdo_core::prelude::*;
//! use mdo_core::program::RunConfig;
//! use mdo_netsim::network::NetworkModel;
//!
//! // 8 ranks on 2 PEs (two clusters, 5 ms apart): a ring shift plus an
//! // allreduce — ordinary blocking MPI structure, masked by the runtime.
//! let body: RankBody = Arc::new(|rank| Box::pin(async move {
//!     let me = rank.rank();
//!     let n = rank.size();
//!     rank.send((me + 1) % n, 0, vec![me as u8]);
//!     let msg = rank.recv(Some((me + n - 1) % n), Some(0)).await;
//!     assert_eq!(msg.data, vec![((me + n - 1) % n) as u8]);
//!     let total = rank.allreduce_f64(&[1.0], AmpiOp::Sum).await;
//!     assert_eq!(total, vec![n as f64]);
//! }));
//!
//! let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(5));
//! run_sim(8, Mapping::Block, net, RunConfig::default(), body);
//! ```

#![warn(missing_docs)]

pub mod collectives;
pub mod rank;
pub mod world;

pub use rank::{Msg, Rank, RecvFuture};
pub use world::{build_ampi_program, run_sim, run_threaded, RankBody};

/// Reduction operators for [`collectives`] (`allreduce`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AmpiOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}
