//! CRC32 integrity device: appends a checksum on the send chain, verifies
//! and strips it on the receive chain.
//!
//! The CRC is the standard reflected CRC-32 (IEEE 802.3, polynomial
//! 0xEDB88320), computed with a build-once lookup table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;

use bytes::Bytes;

use crate::device::{Device, Forwarder};
use crate::packet::Packet;

fn crc_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        table
    })
}

/// CRC-32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Which half of the check this device instance performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrcDirection {
    /// Append checksum (send chain).
    Append,
    /// Verify and strip checksum (receive chain).
    Verify,
}

/// The integrity device.
pub struct CrcDevice {
    direction: CrcDirection,
    rejected: AtomicU64,
}

impl CrcDevice {
    /// An appending instance for a send chain.
    pub fn appender() -> Arc<Self> {
        Arc::new(CrcDevice { direction: CrcDirection::Append, rejected: AtomicU64::new(0) })
    }

    /// A verifying instance for a receive chain.  A checksum mismatch (or a
    /// packet too short to carry one) is a counted rejection: the packet is
    /// dropped, [`CrcDevice::rejected`] increments, and the chain stays up —
    /// with fault injection upstream a corrupted frame becomes a loss the
    /// reliable layer recovers by retransmission.
    pub fn verifier() -> Arc<Self> {
        Arc::new(CrcDevice { direction: CrcDirection::Verify, rejected: AtomicU64::new(0) })
    }

    /// Packets dropped by this verifier for failing the integrity check.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

impl Device for CrcDevice {
    fn handle(&self, mut pkt: Packet, next: Arc<dyn Forwarder>) {
        match self.direction {
            CrcDirection::Append => {
                let sum = crc32(&pkt.payload);
                let mut v = pkt.payload.to_vec();
                v.extend_from_slice(&sum.to_le_bytes());
                pkt.payload = Bytes::from(v);
                next.deliver(pkt);
            }
            CrcDirection::Verify => {
                let payload = &pkt.payload;
                if payload.len() < 4 {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let (body, trailer) = payload.split_at(payload.len() - 4);
                let expected = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
                if crc32(body) != expected {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                pkt.payload = pkt.payload.slice(0..payload.len() - 4);
                next.deliver(pkt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Chain, FnForwarder};
    use mdo_netsim::Pe;
    use parking_lot::Mutex;

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_verify_roundtrip() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        let sink: Arc<dyn Forwarder> = Arc::new(FnForwarder(move |p: Packet| out2.lock().push(p)));
        let chain = Chain::new(vec![CrcDevice::appender(), CrcDevice::verifier()], sink);
        let payload = Bytes::from_static(b"payload bytes");
        chain.send(Packet::new(Pe(0), Pe(1), payload.clone()));
        assert_eq!(out.lock()[0].payload, payload);
    }

    #[test]
    fn corruption_is_a_counted_rejection() {
        struct FlipBit;
        impl Device for FlipBit {
            fn handle(&self, mut pkt: Packet, next: Arc<dyn Forwarder>) {
                let mut v = pkt.payload.to_vec();
                v[0] ^= 0x01;
                pkt.payload = Bytes::from(v);
                next.deliver(pkt);
            }
        }
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        let sink: Arc<dyn Forwarder> = Arc::new(FnForwarder(move |p: Packet| out2.lock().push(p)));
        let verify = CrcDevice::verifier();
        let chain = Chain::new(vec![CrcDevice::appender(), Arc::new(FlipBit), verify.clone()], sink);
        chain.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"data")));
        assert!(out.lock().is_empty(), "corrupted packet is dropped, not delivered");
        assert_eq!(verify.rejected(), 1);
    }

    #[test]
    fn runt_packet_is_rejected_not_fatal() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        let sink: Arc<dyn Forwarder> = Arc::new(FnForwarder(move |p: Packet| out2.lock().push(p)));
        let verify = CrcDevice::verifier();
        let chain = Chain::new(vec![verify.clone()], sink);
        chain.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"ab")));
        assert!(out.lock().is_empty());
        assert_eq!(verify.rejected(), 1);
    }

    #[test]
    fn appended_length() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        let sink: Arc<dyn Forwarder> = Arc::new(FnForwarder(move |p: Packet| out2.lock().push(p)));
        let chain = Chain::new(vec![CrcDevice::appender()], sink);
        chain.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"abc")));
        assert_eq!(out.lock()[0].payload.len(), 7);
    }
}
