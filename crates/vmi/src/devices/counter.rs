//! Transparent traffic-accounting device.
//!
//! Counts packets and bytes flowing through its position in a chain —
//! useful for verifying routing decisions (e.g. "how much traffic actually
//! crossed the wide-area chain?") and for the harness's traffic reports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::device::{Device, Forwarder};
use crate::packet::Packet;

/// Counts packets/bytes, then forwards unchanged.
pub struct CounterDevice {
    packets: AtomicU64,
    bytes: AtomicU64,
}

impl CounterDevice {
    /// A counter at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(CounterDevice { packets: AtomicU64::new(0), bytes: AtomicU64::new(0) })
    }

    /// Packets seen so far.
    pub fn packets(&self) -> u64 {
        self.packets.load(Ordering::Relaxed)
    }

    /// Payload bytes seen so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl Device for CounterDevice {
    fn handle(&self, pkt: Packet, next: Arc<dyn Forwarder>) {
        self.packets.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(pkt.payload.len() as u64, Ordering::Relaxed);
        next.deliver(pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Chain, FnForwarder};
    use bytes::Bytes;
    use mdo_netsim::Pe;

    #[test]
    fn counts_and_forwards() {
        let counter = CounterDevice::new();
        let delivered = Arc::new(AtomicU64::new(0));
        let d2 = Arc::clone(&delivered);
        let sink: Arc<dyn Forwarder> = Arc::new(FnForwarder(move |_| {
            d2.fetch_add(1, Ordering::Relaxed);
        }));
        let chain = Chain::new(vec![counter.clone() as Arc<dyn Device>], sink);
        chain.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"12345")));
        chain.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"678")));
        assert_eq!(counter.packets(), 2);
        assert_eq!(counter.bytes(), 8);
        assert_eq!(delivered.load(Ordering::Relaxed), 2);
    }
}
