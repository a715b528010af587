//! The [`Device`] trait and [`Chain`] composition.
//!
//! VMI organizes its dynamically-loaded drivers into *send chains* and
//! *receive chains*; as data travels along a chain each driver may deliver
//! it, transform it, hold it, split it, or hand it to the next driver.  We
//! model a chain as a linked list of `Arc<dyn Device>` terminating in a
//! [`Forwarder`] (typically a mailbox sink).  Devices receive the packet
//! and an owned handle to "the rest of the chain", so a device may keep
//! that handle and forward the packet later, from another thread.

use std::sync::Arc;

use crate::packet::Packet;

/// The downstream remainder of a chain: call [`Forwarder::deliver`] to pass
/// a packet onward.  Cloneable and `Send + Sync` so devices may forward
/// asynchronously from background threads.
pub trait Forwarder: Send + Sync {
    /// Pass a packet to the next stage.
    fn deliver(&self, pkt: Packet);
}

/// Terminal forwarder built from a closure.
pub struct FnForwarder<F: Fn(Packet) + Send + Sync>(pub F);

impl<F: Fn(Packet) + Send + Sync> Forwarder for FnForwarder<F> {
    fn deliver(&self, pkt: Packet) {
        (self.0)(pkt)
    }
}

/// One driver in a chain.
pub trait Device: Send + Sync {
    /// Handle `pkt`; forward zero or more packets downstream via `next`
    /// (immediately, or later from another thread).
    fn handle(&self, pkt: Packet, next: Arc<dyn Forwarder>);
}

/// A fully-composed chain: devices in order, then a terminal sink.
#[derive(Clone)]
pub struct Chain {
    head: Arc<dyn Forwarder>,
}

struct Stage {
    device: Arc<dyn Device>,
    next: Arc<dyn Forwarder>,
}

impl Forwarder for Stage {
    fn deliver(&self, pkt: Packet) {
        self.device.handle(pkt, Arc::clone(&self.next));
    }
}

impl Chain {
    /// Build a chain from `devices` (traversed in order) ending at `sink`.
    pub fn new(devices: Vec<Arc<dyn Device>>, sink: Arc<dyn Forwarder>) -> Self {
        let mut next = sink;
        for device in devices.into_iter().rev() {
            next = Arc::new(Stage { device, next });
        }
        Chain { head: next }
    }

    /// A chain with no devices: packets go straight to the sink.
    pub fn direct(sink: Arc<dyn Forwarder>) -> Self {
        Chain::new(Vec::new(), sink)
    }

    /// Inject a packet at the head of the chain.
    pub fn send(&self, pkt: Packet) {
        self.head.deliver(pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mdo_netsim::Pe;
    use parking_lot::Mutex;

    /// A device that appends its tag to the payload, to observe ordering.
    struct Tag(&'static str);

    impl Device for Tag {
        fn handle(&self, mut pkt: Packet, next: Arc<dyn Forwarder>) {
            let mut v = pkt.payload.to_vec();
            v.extend_from_slice(self.0.as_bytes());
            pkt.payload = Bytes::from(v);
            next.deliver(pkt);
        }
    }

    fn collect_sink() -> (Arc<Mutex<Vec<Packet>>>, Arc<dyn Forwarder>) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        let sink: Arc<dyn Forwarder> = Arc::new(FnForwarder(move |p| out2.lock().push(p)));
        (out, sink)
    }

    #[test]
    fn devices_run_in_order() {
        let (out, sink) = collect_sink();
        let chain = Chain::new(vec![Arc::new(Tag("a")), Arc::new(Tag("b")), Arc::new(Tag("c"))], sink);
        chain.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b">")));
        let got = out.lock();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].payload[..], b">abc");
    }

    #[test]
    fn direct_chain_passes_through() {
        let (out, sink) = collect_sink();
        let chain = Chain::direct(sink);
        chain.send(Packet::new(Pe(3), Pe(4), Bytes::from_static(b"x")));
        assert_eq!(out.lock()[0].payload, Bytes::from_static(b"x"));
    }

    /// A filtering device must be able to drop packets.
    struct DropAll;
    impl Device for DropAll {
        fn handle(&self, _pkt: Packet, _next: Arc<dyn Forwarder>) {}
    }

    #[test]
    fn devices_may_drop() {
        let (out, sink) = collect_sink();
        let chain = Chain::new(vec![Arc::new(DropAll)], sink);
        chain.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"x")));
        assert!(out.lock().is_empty());
    }

    /// A duplicating device must be able to emit more than one packet.
    struct Dup;
    impl Device for Dup {
        fn handle(&self, pkt: Packet, next: Arc<dyn Forwarder>) {
            next.deliver(pkt.clone());
            next.deliver(pkt);
        }
    }

    #[test]
    fn devices_may_duplicate() {
        let (out, sink) = collect_sink();
        let chain = Chain::new(vec![Arc::new(Dup)], sink);
        chain.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"x")));
        assert_eq!(out.lock().len(), 2);
    }
}
