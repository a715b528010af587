//! The assembled transport: VMI's affiliation-based routing.
//!
//! §5.1: *"By affiliating a subset of the cluster's nodes with the first
//! driver in the chain, message data are immediately sent between the nodes
//! within that subset without passing through the delay device.  For nodes
//! not in this affiliation (i.e., those that exist on the 'remote
//! cluster'), messages are intercepted by the delay device…"*
//!
//! [`Transport`] owns one mailbox per PE and two chains: an intra-cluster
//! chain (direct to the mailbox sink by default) and a cross-cluster chain
//! that passes through a [`DelayDevice`] configured from a latency matrix
//! (plus any extra devices the caller composes, e.g. CRC and fault injection).
//! Every send consults the job [`Topology`] to pick the chain — the VMI
//! affiliation check.  The delay device only stamps; the landing mailbox
//! holds, so the receive calls here are where an injected latency is
//! actually waited out.  With a wire bound the blocking ones are also where
//! the cork is written (see [`crate::wire`]): before the polling thread
//! sleeps, and — any of them — on its way back in once the cork is old.

use std::sync::Arc;
use std::time::Duration;

use mdo_netsim::{LatencyMatrix, Pe, Topology};

use crate::device::{Chain, Device, Forwarder};
use crate::devices::counter::CounterDevice;
use crate::devices::delay::DelayDevice;
use crate::mailbox::{Mailbox, MailboxSink};
use crate::packet::Packet;
use crate::wire::{WireBinding, WireRouter};

/// Configuration for building a [`Transport`].
pub struct TransportConfig {
    /// The job layout (decides which PE pairs cross the wide area).
    pub topo: Topology,
    /// Latency injected by the delay device (typically zero intra-cluster
    /// and the artificial WAN latency across clusters).
    pub latency: LatencyMatrix,
    /// Extra devices prepended to the cross-cluster chain *before* the
    /// delay device (e.g. CRC append, fault injection, CRC verify).
    pub cross_extra: Vec<Arc<dyn Device>>,
    /// Optional inter-node backend for multi-process runs: packets whose
    /// destination PE is not local to this process leave through the
    /// bound [`Wire`](crate::wire::Wire) instead of a mailbox.  `None`
    /// (the default) keeps the single-process behavior where every PE's
    /// mailbox is local.
    pub wire: Option<WireBinding>,
}

impl TransportConfig {
    /// Plain configuration: no extra devices, single-process.
    pub fn new(topo: Topology, latency: LatencyMatrix) -> Self {
        TransportConfig { topo, latency, cross_extra: Vec::new(), wire: None }
    }
}

/// The threaded-engine message transport.
pub struct Transport {
    topo: Topology,
    mailboxes: Vec<Arc<Mailbox>>,
    intra_chain: Chain,
    cross_chain: Chain,
    /// The terminal router when a wire is bound (it owns the cork policy).
    router: Option<Arc<WireRouter>>,
    intra_counter: Arc<CounterDevice>,
    cross_counter: Arc<CounterDevice>,
}

impl Transport {
    /// Build mailboxes and chains from a configuration.
    pub fn new(cfg: TransportConfig) -> Arc<Self> {
        let n = cfg.topo.num_pes();
        let mailboxes: Vec<Arc<Mailbox>> = (0..n).map(|_| Arc::new(Mailbox::new())).collect();
        // The terminal forwarder: every-PE-is-local mailbox bank in a
        // single process, a local/remote router when a wire is bound.
        let router = cfg.wire.map(|binding| Arc::new(WireRouter::new(mailboxes.clone(), binding)));
        let sink: Arc<dyn Forwarder> = match &router {
            Some(router) => Arc::clone(router) as Arc<dyn Forwarder>,
            None => Arc::new(MailboxSink::new(mailboxes.clone())),
        };

        let intra_counter = CounterDevice::new("intra");
        let cross_counter = CounterDevice::new("cross");
        let delay = DelayDevice::from_matrix(cfg.topo.clone(), cfg.latency);

        let intra_chain = Chain::new(vec![intra_counter.clone()], sink.clone());

        let mut cross_devices: Vec<Arc<dyn Device>> = vec![cross_counter.clone()];
        cross_devices.extend(cfg.cross_extra);
        cross_devices.push(delay);
        let cross_chain = Chain::new(cross_devices, sink);

        Arc::new(Transport {
            topo: cfg.topo,
            mailboxes,
            intra_chain,
            cross_chain,
            router,
            intra_counter,
            cross_counter,
        })
    }

    /// Route a packet through the appropriate chain.
    pub fn send(&self, pkt: Packet) {
        if self.topo.crosses_wan(pkt.src, pkt.dst) {
            self.cross_chain.send(pkt);
        } else {
            self.intra_chain.send(pkt);
        }
    }

    /// Blocking receive for one PE.
    pub fn recv(&self, pe: Pe) -> Option<Packet> {
        self.recv_blocking(pe, Mailbox::take)
    }

    /// Receive with timeout.
    pub fn recv_timeout(&self, pe: Pe, timeout: Duration) -> Option<Packet> {
        self.recv_blocking(pe, |mb| mb.take_timeout(timeout))
    }

    /// Non-blocking receive.  A miss does not write the cork: the caller is
    /// not about to sleep — it has other work, or it will say so with a
    /// blocking receive (or [`Transport::flush_wire`]) next.
    pub fn try_recv(&self, pe: Pe) -> Option<Packet> {
        self.recv_with(pe, Mailbox::try_take)
    }

    /// A receive that may sleep.  With a wire bound: take what is ready;
    /// failing that, write the calling thread's cork — it is about to
    /// block — and only then `wait`.
    fn recv_blocking(&self, pe: Pe, wait: impl FnOnce(&Mailbox) -> Option<Packet>) -> Option<Packet> {
        self.recv_with(pe, |mb| match &self.router {
            None => wait(mb),
            Some(router) => mb.try_take().or_else(|| {
                router.flush(pe);
                wait(mb)
            }),
        })
    }

    /// The one receive path: the calling thread is `pe`'s poller from here
    /// on (a cork it left open too long ago is written now), and a packet in
    /// hand starts a handler.
    fn recv_with(&self, pe: Pe, take: impl FnOnce(&Mailbox) -> Option<Packet>) -> Option<Packet> {
        let mb = &self.mailboxes[pe.index()];
        let Some(router) = &self.router else { return take(mb) };
        router.enter_recv(pe);
        let pkt = take(mb);
        if pkt.is_some() {
            router.handler_started(pe);
        }
        pkt
    }

    /// Write whatever the thread polling `pe` has corked on the wire.  For
    /// a polling thread about to stop polling for a while — a compute
    /// sleep, a credit stall, its exit; `recv*` does this by itself.  A
    /// no-op without a wire.
    pub fn flush_wire(&self, pe: Pe) {
        if let Some(router) = &self.router {
            router.flush(pe);
        }
    }

    /// The job topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The per-PE mailbox (for engines that want direct access).
    pub fn mailbox(&self, pe: Pe) -> &Arc<Mailbox> {
        &self.mailboxes[pe.index()]
    }

    /// (packets, bytes) routed through the intra-cluster chain so far.
    pub fn intra_traffic(&self) -> (u64, u64) {
        (self.intra_counter.packets(), self.intra_counter.bytes())
    }

    /// (packets, bytes) routed through the cross-cluster chain so far.
    pub fn cross_traffic(&self) -> (u64, u64) {
        (self.cross_counter.packets(), self.cross_counter.bytes())
    }

    /// Close all mailboxes: wakes blocked PE threads and releases every
    /// packet still held for its injected latency.
    pub fn shutdown(&self) {
        for mb in &self.mailboxes {
            mb.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mdo_netsim::Dur;
    use std::time::Instant;

    fn transport(cross_ms: u64) -> Arc<Transport> {
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(cross_ms));
        Transport::new(TransportConfig::new(topo, latency))
    }

    #[test]
    fn intra_cluster_is_immediate() {
        let t = transport(50);
        t.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"fast")));
        let got = t.recv_timeout(Pe(1), Duration::from_millis(20)).expect("delivered quickly");
        assert_eq!(&got.payload[..], b"fast");
        assert_eq!(t.intra_traffic().0, 1);
        assert_eq!(t.cross_traffic().0, 0);
        t.shutdown();
    }

    #[test]
    fn cross_cluster_is_delayed() {
        let t = transport(40);
        let t0 = Instant::now();
        t.send(Packet::new(Pe(0), Pe(2), Bytes::from_static(b"slow")));
        let got = t.recv_timeout(Pe(2), Duration::from_secs(2)).expect("eventually delivered");
        assert_eq!(&got.payload[..], b"slow");
        assert!(t0.elapsed() >= Duration::from_millis(39), "held by the delay device");
        assert_eq!(t.cross_traffic(), (1, 4));
        t.shutdown();
    }

    #[test]
    fn affiliation_routing_per_pair() {
        let t = transport(30);
        // 0,1 in cluster A; 2,3 in cluster B.
        t.send(Packet::new(Pe(2), Pe(3), Bytes::from_static(b"b-local")));
        let got = t.recv_timeout(Pe(3), Duration::from_millis(20)).expect("B-local is fast");
        assert_eq!(&got.payload[..], b"b-local");
        t.shutdown();
    }

    #[test]
    fn shutdown_wakes_receivers() {
        let t = transport(10);
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || t2.recv(Pe(0)));
        std::thread::sleep(Duration::from_millis(20));
        t.shutdown();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn only_the_polling_thread_corks_and_it_flushes_before_it_blocks() {
        use crate::wire::{Wire, WireBinding};
        use parking_lot::Mutex;
        #[derive(Default)]
        struct Recording(Mutex<Vec<&'static str>>);
        impl Wire for Recording {
            fn send(&self, _: Packet) {
                self.0.lock().push("send");
            }
            fn send_corked(&self, _: Packet) {
                self.0.lock().push("cork");
            }
            fn flush(&self) {
                self.0.lock().push("flush");
            }
        }
        // PEs 0 and 1 are here, 2 and 3 across the wire.
        let topo = Topology::two_cluster(4);
        let wire = Arc::new(Recording::default());
        let mut cfg = TransportConfig::new(topo.clone(), LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO));
        cfg.wire = Some(WireBinding::new(wire.clone(), &[Pe(0), Pe(1)], 4));
        let t = Transport::new(cfg);
        let remote = |src| Packet::new(Pe(src), Pe(2), Bytes::from_static(b"x"));
        let calls = || std::mem::take(&mut *wire.0.lock());

        t.send(remote(0));
        assert_eq!(calls(), ["send"], "nobody has polled for PE 0 yet");
        t.send(Packet::new(Pe(1), Pe(0), Bytes::from_static(b"local")));
        assert!(t.try_recv(Pe(0)).is_some());
        assert_eq!(calls(), [""; 0], "a receive that finds a packet touches no wire");
        t.send(remote(0));
        t.send(remote(1));
        assert_eq!(calls(), ["cork", "send"], "corked as the PE this thread polls, written through as any other");
        let other = Arc::clone(&t);
        std::thread::spawn(move || other.send(remote(0))).join().unwrap();
        assert_eq!(calls(), ["send"], "another thread sending for PE 0 may never come back: write through");
        assert!(t.recv_timeout(Pe(0), Duration::from_millis(1)).is_none());
        assert_eq!(calls(), ["flush"], "before the poller blocks");
        t.send(remote(0));
        t.flush_wire(Pe(0));
        assert_eq!(calls(), ["cork", "flush"]);
        t.shutdown();
    }

    #[test]
    fn extra_devices_compose() {
        use crate::devices::crc::CrcDevice;
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(5));
        let mut cfg = TransportConfig::new(topo, latency);
        // Checksum on the WAN, transparently undone before delivery.
        cfg.cross_extra = vec![CrcDevice::appender(), CrcDevice::verifier()];
        let t = Transport::new(cfg);
        let payload = Bytes::from(vec![9u8; 4096]);
        t.send(Packet::new(Pe(0), Pe(1), payload.clone()));
        let got = t.recv_timeout(Pe(1), Duration::from_secs(2)).expect("delivered");
        assert_eq!(got.payload, payload);
        t.shutdown();
    }
}
