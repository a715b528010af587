//! # mdo-vmi — a VMI-style messaging layer with device chains
//!
//! The paper's experiments run Charm++ over the **Virtual Machine
//! Interface** (VMI), whose defining feature is that messages traverse
//! *send chains* and *receive chains* of dynamically-composed device
//! drivers.  The paper exploits this to build its simulated Grid: a **delay
//! device** sits between two network drivers and holds cross-cluster
//! messages for a configured latency before passing them on (§5.1).  §2.2
//! lists more a chain *can* do — stripe data across interconnects, compress
//! or encrypt payloads, verify integrity; no experiment of the paper uses
//! them, so only the devices a run can reach are built here, and the
//! [`Device`] seam admits the rest.
//!
//! This crate rebuilds that layer for the *threaded* execution engine,
//! where each PE is an OS thread and the "network" is shared memory:
//!
//! * [`packet`] — the unit a device sees: opaque bytes + routing metadata.
//! * [`device`] — the [`Device`] trait and [`Chain`] composition.
//! * [`devices`] — delay (a `due` stamp the landing mailbox enforces),
//!   CRC32 integrity, fault injection and byte counting.
//! * [`mailbox`] — per-PE blocking priority mailboxes (the terminal
//!   "network driver" of every chain).
//! * [`credit`] — the per-pair credit ledger behind flow control: plain
//!   data, run by [`reliable`] here and by the simulator in `mdo-core`.
//! * [`reliable`] — sequence numbers, cumulative acks and timer-driven
//!   retransmission layered over the unreliable cross-cluster chain when a
//!   fault plan is active.
//! * [`frame`] — the jumbo-frame codec packing many messages into one
//!   wire payload with zero-copy unpacking.
//! * [`flush`] — the aggregation flush policy (size, deadline, urgency)
//!   and the frame tally: plain data, run by [`aggregate`] here and by the
//!   simulator in `mdo-core`.
//! * [`aggregate`] — TRAM-style per-destination coalescing of cross-WAN
//!   traffic above the reliable layer (one ack per jumbo frame).
//! * [`transport`] — routes each packet through the intra-cluster or
//!   cross-cluster chain based on the job topology, exactly like VMI's
//!   affiliation mechanism.
//! * [`wire`] — the inter-node seam: in a multi-process run the chains
//!   terminate in a router that posts local destinations to their
//!   mailbox and ships remote destinations through a pluggable
//!   [`Wire`] backend (the TCP implementation lives in
//!   `mdo-net`).
//!
//! Everything here deals in raw bytes; the message-driven runtime
//! (`mdo-core`) serializes its envelopes on top.
//!
//! ## The delay device at work
//!
//! ```
//! use std::time::{Duration, Instant};
//! use bytes::Bytes;
//! use mdo_netsim::{Dur, LatencyMatrix, Pe, Topology};
//! use mdo_vmi::{Packet, Transport, TransportConfig};
//!
//! // Two clusters of one PE each; 20 ms injected across the "wide area".
//! let topo = Topology::two_cluster(2);
//! let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(20));
//! let transport = Transport::new(TransportConfig::new(topo, latency));
//!
//! let t0 = Instant::now();
//! transport.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"over the WAN")));
//! let pkt = transport.recv_timeout(Pe(1), Duration::from_secs(2)).expect("delivered");
//! assert_eq!(&pkt.payload[..], b"over the WAN");
//! assert!(t0.elapsed() >= Duration::from_millis(19), "not visible before send + latency");
//! transport.shutdown();
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod credit;
pub mod device;
pub mod devices;
pub mod flush;
pub mod frame;
pub mod mailbox;
pub mod packet;
pub mod reliable;
mod ring;
pub mod transport;
pub mod wire;

pub use aggregate::{AggStats, Aggregator};
pub use device::{Chain, Device, Forwarder};
pub use devices::counter::CounterDevice;
pub use devices::crc::CrcDevice;
pub use devices::delay::DelayDevice;
pub use devices::fault::{FaultDevice, FaultDeviceStats};
pub use frame::{FrameBuilder, FrameError, FRAME_TAG};
pub use mailbox::Mailbox;
pub use packet::Packet;
pub use reliable::{jittered_backoff, ReliableTransport};
pub use transport::{Transport, TransportConfig};
pub use wire::{Wire, WireBinding, WireRouter};
