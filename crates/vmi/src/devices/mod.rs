//! Concrete VMI device drivers.
//!
//! * [`delay`] — the paper's §5.1 delay device: stamps each packet with
//!   its configured per-pair latency, which the landing mailbox enforces.
//! * [`rle`] — payload compression (§2.2 mentions compressing message data
//!   in a chain; Cactus-G used WAN compression the same way).
//! * [`cipher`] — payload encryption ("capabilities such as encrypting…
//!   the data are possible", §2.2).
//! * [`crc`] — integrity checking ("modules can intercept and manipulate
//!   message data", §2.2).
//! * [`fault`] — unreliable-WAN injection: seeded per-pair
//!   drop/duplicate/reorder/corrupt faults and link-down windows.
//! * [`stripe`] — fragments a packet so it could be striped across multiple
//!   interconnects, with reassembly on the receive chain.
//! * [`counter`] — transparent traffic accounting.

pub mod cipher;
pub mod counter;
pub mod crc;
pub mod delay;
pub mod fault;
pub mod rle;
pub mod stripe;
