//! Structured transport errors.
//!
//! Everything that can go wrong between processes — a peer speaking the
//! wrong protocol, a node process dying, a socket breaking, a rendezvous
//! timing out — surfaces as a [`TransportError`] variant, never as a hang
//! or a panic.  (The in-process reliable layer has its own, older
//! `mdo_netsim::TransportError` for retry exhaustion; this enum covers
//! the inter-process failure modes that type predates.)

use std::fmt;

/// Which handshake field disagreed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandshakeField {
    /// The 4-byte protocol magic.
    Magic,
    /// The wire-format version.
    Version,
    /// The run generation.
    Generation,
    /// The [`Topology`](mdo_netsim::Topology) digest.
    TopologyDigest,
    /// The peer's node id.
    Node,
    /// The clock exchange: timestamps no two running clocks could have
    /// read, or an estimate that contradicts what this side saw.
    Clock,
}

impl fmt::Display for HandshakeField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HandshakeField::Magic => "magic",
            HandshakeField::Version => "wire version",
            HandshakeField::Generation => "generation",
            HandshakeField::TopologyDigest => "topology digest",
            HandshakeField::Node => "node id",
            HandshakeField::Clock => "clock estimate",
        };
        f.write_str(s)
    }
}

/// A structured inter-process transport failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// A peer's handshake disagreed on a protocol invariant: wrong magic,
    /// wire version, generation, topology digest, node id or clock.  The
    /// connection is refused; traffic never flows.
    HandshakeMismatch {
        /// Peer node id if it got far enough to tell us, else `u32::MAX`.
        peer: u32,
        /// The field that disagreed.
        field: HandshakeField,
        /// What this side expected (widened to u64).
        expected: u64,
        /// What the peer sent (widened to u64).
        got: u64,
    },
    /// A launched node process exited abnormally (non-zero status or
    /// killed by a signal) before the run completed.
    NodeExited {
        /// The node that died.
        node: u32,
        /// Its exit code, if it exited normally.
        code: Option<i32>,
        /// The signal that killed it, if any (Unix).
        signal: Option<i32>,
    },
    /// A peer's connection closed or broke mid-run.
    PeerClosed {
        /// The node whose sockets went away.
        node: u32,
    },
    /// The run was deliberately aborted over the control plane (e.g. the
    /// coordinator hit an unrecoverable failure and told everyone to
    /// stand down).
    Aborted {
        /// The node that ordered the abort.
        by: u32,
        /// Why.
        reason: String,
    },
    /// A bounded wait expired (rendezvous, report gather, reaping).
    Timeout {
        /// What was being waited for.
        what: String,
    },
    /// A malformed off-the-wire artifact (record, manifest, env var).
    Malformed {
        /// What failed to parse.
        what: String,
    },
    /// An OS-level I/O failure.
    Io {
        /// Where it happened.
        context: String,
        /// The error kind.
        kind: std::io::ErrorKind,
    },
}

impl TransportError {
    /// Wrap an `io::Error` with context.
    pub fn io(context: impl Into<String>, err: &std::io::Error) -> Self {
        TransportError::Io { context: context.into(), kind: err.kind() }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::HandshakeMismatch { peer, field, expected, got } => write!(
                f,
                "handshake with node {peer} rejected: {field} mismatch (expected {expected:#x}, got {got:#x})"
            ),
            TransportError::NodeExited { node, code, signal } => match (code, signal) {
                (_, Some(sig)) => write!(f, "node {node} was killed by signal {sig}"),
                (Some(c), None) => write!(f, "node {node} exited with status {c}"),
                (None, None) => write!(f, "node {node} exited abnormally"),
            },
            TransportError::PeerClosed { node } => write!(f, "connection to node {node} closed mid-run"),
            TransportError::Aborted { by, reason } => write!(f, "run aborted by node {by}: {reason}"),
            TransportError::Timeout { what } => write!(f, "timed out waiting for {what}"),
            TransportError::Malformed { what } => write!(f, "malformed {what}"),
            TransportError::Io { context, kind } => write!(f, "i/o failure in {context}: {kind:?}"),
        }
    }
}

impl std::error::Error for TransportError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TransportError::HandshakeMismatch {
            peer: 2,
            field: HandshakeField::TopologyDigest,
            expected: 0xab,
            got: 0xcd,
        };
        let s = e.to_string();
        assert!(s.contains("node 2") && s.contains("topology digest"), "{s}");
        let k = TransportError::NodeExited { node: 1, code: None, signal: Some(9) };
        assert!(k.to_string().contains("signal 9"));
    }
}
