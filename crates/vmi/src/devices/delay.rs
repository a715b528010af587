//! The delay device: the heart of the paper's simulated Grid environment.
//!
//! §5.1: *"messages are intercepted by the delay device which delays the
//! message by a pre-defined amount of time before passing it to the network
//! device driver used to communicate over the 'wide area'."*
//!
//! Implementation: the latency is a timestamp the packet carries, not a
//! thread that holds it.  `handle` looks the pair's latency up in a
//! [`LatencyMatrix`] (or uses one fixed duration), stamps
//! [`Packet::due`]` = send instant + latency` and forwards at once.  The
//! hold itself happens where the packet lands: the destination
//! [`Mailbox`](crate::mailbox::Mailbox) keeps a not-yet-due packet
//! invisible to its consumer and bounds the consumer's blocking wait by the
//! earliest `due`, so "not visible to the destination PE before send + L"
//! costs no timer thread, no second queue and no extra wake-up.  Across a
//! [`Wire`](crate::wire::Wire) the stamp travels translated to the receiving
//! node's clock, so it means send + L there too.  The stamp is taken at
//! the *send* instant, so chain traversal overhead does not inflate the
//! injected latency.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mdo_netsim::{LatencyMatrix, Topology};

use crate::device::{Device, Forwarder};
use crate::packet::Packet;

/// How the delay for each packet is chosen.
enum Policy {
    /// Same fixed delay for every packet.
    Fixed(Duration),
    /// Per-pair delay from a latency matrix over a topology.
    Matrix { topo: Topology, matrix: LatencyMatrix },
}

/// A device that stamps each packet with the instant its configured latency
/// has passed; the landing mailbox enforces the stamp.
pub struct DelayDevice {
    policy: Policy,
}

impl DelayDevice {
    /// A delay device that delays every packet by `delay`.
    pub fn fixed(delay: Duration) -> Arc<Self> {
        Arc::new(DelayDevice { policy: Policy::Fixed(delay) })
    }

    /// A delay device that injects the per-pair latency of `matrix` over
    /// `topo` — the exact configuration of the paper's artificial-latency
    /// experiments.  Zero-latency pairs are forwarded unstamped.
    pub fn from_matrix(topo: Topology, matrix: LatencyMatrix) -> Arc<Self> {
        Arc::new(DelayDevice { policy: Policy::Matrix { topo, matrix } })
    }

    fn delay_for(&self, pkt: &Packet) -> Duration {
        match &self.policy {
            Policy::Fixed(d) => *d,
            Policy::Matrix { topo, matrix } => matrix.base_latency(topo, pkt.src, pkt.dst).to_std(),
        }
    }
}

impl Device for DelayDevice {
    fn handle(&self, mut pkt: Packet, next: Arc<dyn Forwarder>) {
        let delay = self.delay_for(&pkt);
        if !delay.is_zero() {
            pkt.due = Some(Instant::now() + delay);
        }
        next.deliver(pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FnForwarder;
    use crate::transport::{Transport, TransportConfig};
    use bytes::Bytes;
    use mdo_netsim::{Dur, Pe};
    use parking_lot::Mutex;

    fn stamped_by(dev: &DelayDevice, pkt: Packet) -> Packet {
        let out = Arc::new(Mutex::new(None));
        let out2 = Arc::clone(&out);
        dev.handle(pkt, Arc::new(FnForwarder(move |p: Packet| *out2.lock() = Some(p))));
        let got = out.lock().take();
        got.expect("forwarded inline, never parked")
    }

    /// Two single-PE clusters with `cross` injected one way.
    fn transport(cross: Duration) -> Arc<Transport> {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_std(cross));
        Transport::new(TransportConfig::new(topo, latency))
    }

    #[test]
    fn fixed_delay_holds_packet() {
        let t = transport(Duration::from_millis(30));
        let t0 = Instant::now();
        t.send(Packet::new(Pe(0), Pe(1), Bytes::copy_from_slice(&[7])));
        // In the mailbox at once, but not visible before its time.
        assert_eq!(t.mailbox(Pe(1)).len(), 1);
        assert!(t.try_recv(Pe(1)).is_none());
        assert!(t.recv_timeout(Pe(1), Duration::from_millis(5)).is_none());
        // Visible after it, to a consumer that blocks with no further post.
        let got = t.recv_timeout(Pe(1), Duration::from_secs(2)).expect("delivered");
        assert_eq!(got.payload[0], 7);
        assert!(t0.elapsed() >= Duration::from_millis(29));
        t.shutdown();
    }

    #[test]
    fn zero_delay_forwards_unstamped() {
        let dev = DelayDevice::fixed(Duration::ZERO);
        let got = stamped_by(&dev, Packet::new(Pe(0), Pe(1), Bytes::copy_from_slice(&[1])));
        assert!(got.due.is_none(), "no hold for zero delay");
    }

    #[test]
    fn stamp_is_send_instant_plus_delay() {
        let dev = DelayDevice::fixed(Duration::from_millis(10));
        let before = Instant::now();
        let got = stamped_by(&dev, Packet::new(Pe(0), Pe(1), Bytes::copy_from_slice(&[1])));
        let due = got.due.expect("stamped");
        assert!(due >= before + Duration::from_millis(10) && due <= Instant::now() + Duration::from_millis(10));
    }

    #[test]
    fn matrix_delays_cross_cluster_only() {
        let topo = Topology::uniform(2, 2);
        let matrix = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(40));
        let t = Transport::new(TransportConfig::new(topo, matrix));
        let t0 = Instant::now();
        // Intra-cluster message: instant.  Cross-cluster: delayed.
        t.send(Packet::new(Pe(1), Pe(0), Bytes::copy_from_slice(&[1])));
        t.send(Packet::new(Pe(2), Pe(0), Bytes::copy_from_slice(&[2])));
        assert_eq!(t.try_recv(Pe(0)).expect("intra is immediate").payload[0], 1);
        assert!(t.try_recv(Pe(0)).is_none());
        let got = t.recv_timeout(Pe(0), Duration::from_secs(2)).expect("cross arrives");
        assert_eq!(got.payload[0], 2);
        assert!(t0.elapsed() >= Duration::from_millis(39));
        t.shutdown();
    }

    #[test]
    fn ordering_preserved_for_equal_delays() {
        let t = transport(Duration::from_millis(10));
        for i in 0..20u8 {
            t.send(Packet::new(Pe(0), Pe(1), Bytes::copy_from_slice(&[i])));
        }
        let tags: Vec<u8> =
            (0..20).map(|_| t.recv_timeout(Pe(1), Duration::from_secs(2)).expect("delivered").payload[0]).collect();
        assert_eq!(tags, (0..20).collect::<Vec<u8>>(), "FIFO for equal delays");
        t.shutdown();
    }

    #[test]
    fn shutdown_flushes_pending() {
        let t = transport(Duration::from_secs(60));
        t.send(Packet::new(Pe(0), Pe(1), Bytes::copy_from_slice(&[5])));
        assert!(t.try_recv(Pe(1)).is_none(), "held for a minute");
        t.shutdown();
        assert_eq!(t.try_recv(Pe(1)).expect("hold released on shutdown").payload[0], 5);
    }
}
