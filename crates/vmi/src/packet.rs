//! The unit of transfer the transport moves: opaque payload bytes plus the
//! routing metadata it routes, faults and stamps by.

use std::time::Instant;

use bytes::Bytes;
use mdo_netsim::Pe;

/// A message in flight through the transport.
///
/// The payload is opaque to this layer — the runtime above serializes its
/// envelopes into it.  `priority` is carried so the destination mailbox can
/// order delivery (smaller value = more urgent, FIFO within equal
/// priorities, matching Charm++ queue semantics).  `due` is the injected
/// latency, carried as a timestamp: the delay device stamps it and the
/// landing mailbox keeps the packet invisible to its consumer until then.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Sending PE.
    pub src: Pe,
    /// Destination PE.
    pub dst: Pe,
    /// Delivery priority (smaller = more urgent).
    pub priority: i32,
    /// Serialized message contents.
    pub payload: Bytes,
    /// Earliest instant the destination PE may see the packet (`None` =
    /// at once).  Whatever rebuilds a packet after the delay stamp must
    /// carry this over.
    pub due: Option<Instant>,
}

impl Packet {
    /// Convenience constructor with default (zero) priority.
    pub fn new(src: Pe, dst: Pe, payload: Bytes) -> Self {
        Packet { src, dst, priority: 0, payload, due: None }
    }

    /// Constructor with explicit priority.
    pub fn with_priority(src: Pe, dst: Pe, priority: i32, payload: Bytes) -> Self {
        Packet { src, dst, priority, payload, due: None }
    }

    /// Size of the payload in bytes (what the wire would carry).
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let p = Packet::new(Pe(1), Pe(2), Bytes::from_static(b"hi"));
        assert_eq!(p.src, Pe(1));
        assert_eq!(p.dst, Pe(2));
        assert_eq!(p.priority, 0);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(p.due.is_none(), "no hold unless a delay device stamps one");

        let q = Packet::with_priority(Pe(0), Pe(0), -5, Bytes::new());
        assert_eq!(q.priority, -5);
        assert!(q.is_empty());
    }
}
