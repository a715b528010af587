//! # mdo-vmi — a VMI-style messaging layer
//!
//! The paper's experiments run Charm++ over the **Virtual Machine
//! Interface** (VMI), whose messages traverse *send chains* and *receive
//! chains* of dynamically-composed device drivers.  The paper exploits
//! this to build its simulated Grid: a **delay device** sits between two
//! network drivers and holds cross-cluster messages for a configured
//! latency before passing them on (§5.1).  §2.2 lists more a chain *can*
//! do — stripe data across interconnects, compress or encrypt payloads,
//! verify integrity; no experiment of the paper uses them, so none is
//! built here, and the two pipelines a run does use — count, then, across
//! clusters, fault wire and delay stamp — are one plain send path,
//! [`Transport::send`].
//!
//! This crate rebuilds that layer for the *threaded* execution engine,
//! where each PE is an OS thread and the "network" is shared memory:
//!
//! * [`packet`] — the unit the transport moves: opaque bytes + routing
//!   metadata.
//! * [`mailbox`] — per-PE blocking priority mailboxes, where every packet
//!   lands.
//! * [`transport`] — the send path: counts each packet as intra- or
//!   cross-cluster by the job topology, exactly like VMI's affiliation
//!   mechanism, puts cross-cluster packets through the optional fault wire
//!   and the delay device (a `due` stamp the landing mailbox enforces), and
//!   lands them.
//! * [`arq`] — the reliable protocol of one PE pair (sender and receiver
//!   machines): plain data, run by [`reliable`] here and by the simulator
//!   in `mdo-core`.
//! * [`credit`] — the per-pair credit ledger behind flow control: plain
//!   data, run by [`reliable`] here and by the simulator in `mdo-core`.
//! * [`reliable`] — [`arq`] on the wall clock, layered over the unreliable
//!   cross-cluster path when a fault plan is active.
//! * [`frame`] — the jumbo-frame codec packing many messages into one
//!   wire payload with zero-copy unpacking.
//! * [`flush`] — the aggregation flush policy (size, deadline, urgency)
//!   and the frame tally: plain data, run by [`aggregate`] here and by the
//!   simulator in `mdo-core`.
//! * [`aggregate`] — TRAM-style per-destination coalescing of cross-WAN
//!   traffic above the reliable layer (one ack per jumbo frame).
//! * [`wire`] — the inter-node seam: in a multi-process run the transport
//!   posts local destinations to their mailbox and ships remote ones
//!   through a pluggable [`Wire`] backend (the TCP implementation lives in
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
pub mod arq;
pub mod credit;
pub mod flush;
pub mod frame;
pub mod mailbox;
pub mod packet;
pub mod reliable;
mod ring;
pub mod transport;
pub mod wire;

pub use aggregate::{AggStats, Aggregator};
pub use arq::jittered_backoff;
pub use frame::{FrameBuilder, FrameError, FRAME_TAG};
pub use mailbox::Mailbox;
pub use packet::Packet;
pub use reliable::ReliableTransport;
pub use transport::{Transport, TransportConfig};
pub use wire::{Wire, WireBinding};
