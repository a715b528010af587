//! mdo-net: a real multi-process TCP transport behind the VMI wire seam.
//!
//! The simulator and the threaded engine share one device stack —
//! `Transport` → `ReliableTransport` → `Aggregator` — and until now every
//! byte of it moved between threads of one process.  This crate plugs a
//! real inter-process transport in at the [`Wire`](mdo_vmi::Wire) seam:
//! each topology **cluster becomes one OS process** ("node"), connected
//! to each peer by one length-prefixed framed TCP stream with
//! `TCP_NODELAY` and a versioned handshake that refuses peers who
//! disagree about the wire format, the run generation, or the
//! [`Topology`](mdo_netsim::Topology) itself.
//!
//! Because the process boundary coincides with the WAN boundary of the
//! modeled grid, the wire carries exactly the traffic the paper's
//! cross-site VMI link carries — and the flow-control credits, TRAM-style
//! aggregation and retransmission logic above the seam run unchanged,
//! which is what makes multi-process runs bit-exact with single-process
//! ones.
//!
//! Layers:
//! * [`record`] — the byte protocol: handshakes and `[kind][len][body]`
//!   records (std-only, no I/O in the encoders, fuzzable decoders);
//! * [`config`] — node id / manifest configuration and its
//!   environment-variable encoding;
//! * [`mesh`] — [`NetSession`] (a node's listener) and [`NetMesh`] (one
//!   generation's connected, handshaken mesh implementing `Wire`);
//! * [`launcher`] — spawn, supervise and reap one process per node on
//!   localhost, with structured [`TransportError::NodeExited`] /
//!   [`TransportError::Timeout`] failure reporting;
//! * [`error`] — the structured failure vocabulary.
//!
//! This crate is dependency-free (std + workspace shims) and knows
//! nothing about engines or applications; `mdo-core` builds its
//! multi-process run mode on top of it.

pub mod config;
pub mod error;
pub mod launcher;
pub mod mesh;
pub mod record;

pub use config::{NetConfig, ENV_MANIFEST, ENV_NODE};
pub use error::{HandshakeField, TransportError};
pub use launcher::{launch, KillPlan, LaunchOutcome, LaunchSpec, NodeStatus};
pub use mesh::{localhost_rendezvous, NetEvent, NetMesh, NetSession};
pub use record::{Handshake, RecordError, MAX_RECORD_LEN, WIRE_VERSION};
