//! Concrete VMI device drivers — the four a `RunConfig` can put in a chain.
//!
//! * [`delay`] — the paper's §5.1 delay device: stamps each packet with
//!   its configured per-pair latency, which the landing mailbox enforces.
//! * [`crc`] — integrity checking ("modules can intercept and manipulate
//!   message data", §2.2).
//! * [`fault`] — unreliable-WAN injection: seeded per-pair
//!   drop/duplicate/reorder/corrupt faults and link-down windows.
//! * [`counter`] — transparent traffic accounting.
//!
//! §2.2 also names striping, compression and encryption as things a VMI
//! chain can do.  No experiment of the paper uses them and no run here
//! could reach them, so they are not built; [`Device`](crate::Device) is
//! the seam anyone who needs one implements.

pub mod counter;
pub mod crc;
pub mod delay;
pub mod fault;
