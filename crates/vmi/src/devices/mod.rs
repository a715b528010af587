//! Concrete VMI device drivers — the three a `RunConfig` can put in a chain.
//!
//! * [`delay`] — the paper's §5.1 delay device: stamps each packet with
//!   its configured per-pair latency, which the landing mailbox enforces.
//! * [`fault`] — unreliable-WAN injection: seeded per-pair
//!   drop/duplicate/reorder/corrupt faults and link-down windows.  A
//!   corrupted attempt is dropped here, as the simulator drops it.
//! * [`counter`] — transparent traffic accounting.
//!
//! §2.2 also names striping, compression, encryption and integrity
//! checks as things a VMI chain can do.  No experiment of the paper uses
//! them and no run here could reach them, so they are not built;
//! [`Device`](crate::Device) is the seam anyone who needs one implements.

pub mod counter;
pub mod delay;
pub mod fault;
