//! The assembled transport: VMI's affiliation-based routing.
//!
//! §5.1: *"By affiliating a subset of the cluster's nodes with the first
//! driver in the chain, message data are immediately sent between the nodes
//! within that subset without passing through the delay device.  For nodes
//! not in this affiliation (i.e., those that exist on the 'remote
//! cluster'), messages are intercepted by the delay device…"*
//!
//! [`Transport`] owns one mailbox per PE and one send path,
//! [`Transport::send`] (a first attempt of [`Transport::transmit`]).  It
//! consults the job [`Topology`] — the VMI affiliation check — and counts
//! the packet as intra- or cross-cluster.
//! An intra-cluster packet lands at once.  A cross-cluster one meets the
//! fault wire first when a fault plan is active, then the delay device:
//! every packet the wire lets through is stamped [`Packet::due`]` = now +`
//! its pair's latency from the [`LatencyMatrix`] (a zero latency leaves it
//! unstamped) and lands.
//!
//! ## The delay device: a timestamp, not a thread
//!
//! The stamp is all the delay device does; the landing mailbox holds.  It
//! keeps a not-yet-due packet invisible to its consumer and bounds the
//! consumer's blocking wait by the earliest `due`, so "not visible to the
//! destination PE before send + L" costs no timer thread, no second queue
//! and no extra wake-up — the receive calls here are where an injected
//! latency is actually waited out.  Across a [`Wire`](crate::wire::Wire)
//! the stamp travels translated to the receiving node's clock, so it means
//! send + L there too.  With a wire bound the blocking receives are also
//! where the cork is written (see [`crate::wire`]): before the polling
//! thread sleeps, and — any of them — on its way back in once the cork is
//! old.
//!
//! ## The fault wire
//!
//! With a [`FaultPlan`] every cross-cluster data frame meets the one
//! [`FaultWire`] both engines run.  Its fate is one draw keyed by the
//! attempt: the pair, the sequence number in the frame's header and the
//! attempt number the reliable layer's resend path hands over — so a plan
//! harms the same attempts here as in the simulator however frames,
//! retransmits and other pairs' traffic interleave.  The transport carries
//! out the verdict: nothing lands for a drop or a corruption (a corrupted
//! attempt is one no receiver would accept, so both engines book it as a
//! drop of its own kind), a second copy for a duplicate, and the released
//! stash right behind the attempt that freed it.  The reliable layer
//! recovers what lands nothing by retransmission.  Acks pass unharmed and
//! draw nothing, as in the simulator, where acks never meet the wire.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdo_netsim::{Dur, Fate, FaultPlan, FaultWire, Harm, LatencyMatrix, Pe, Topology, WireStats};
use parking_lot::Mutex;

use crate::mailbox::Mailbox;
use crate::packet::Packet;
use crate::reliable::{self, KIND_DATA};
use crate::wire::{WireBinding, WireRouter};

/// Configuration for building a [`Transport`].
pub struct TransportConfig {
    /// The job layout (decides which PE pairs cross the wide area).
    pub topo: Topology,
    /// Latency the delay device injects (typically zero intra-cluster and
    /// the artificial WAN latency across clusters).
    pub latency: LatencyMatrix,
    /// Fault injection on cross-cluster packets, ahead of the delay
    /// device; `None` (the default) is a lossless WAN.
    pub fault: Option<FaultPlan>,
    /// Optional inter-node backend for multi-process runs: packets whose
    /// destination PE is not local to this process leave through the
    /// bound [`Wire`](crate::wire::Wire) instead of a mailbox.  `None`
    /// (the default) keeps the single-process behavior where every PE's
    /// mailbox is local.
    pub wire: Option<WireBinding>,
}

impl TransportConfig {
    /// Plain configuration: no fault injection, single-process.
    pub fn new(topo: Topology, latency: LatencyMatrix) -> Self {
        TransportConfig { topo, latency, fault: None, wire: None }
    }
}

/// Packets and payload bytes counted on one side of the affiliation check.
#[derive(Default)]
struct Tally {
    packets: AtomicU64,
    bytes: AtomicU64,
}

impl Tally {
    fn count(&self, pkt: &Packet) {
        self.packets.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(pkt.payload.len() as u64, Ordering::Relaxed);
    }

    fn read(&self) -> (u64, u64) {
        (self.packets.load(Ordering::Relaxed), self.bytes.load(Ordering::Relaxed))
    }
}

/// The threaded-engine message transport.
pub struct Transport {
    topo: Topology,
    latency: LatencyMatrix,
    mailboxes: Vec<Arc<Mailbox>>,
    /// The fault wire, and when it came up: the plan's link-down windows
    /// count from there.
    fault: Option<(Mutex<FaultWire<Packet>>, Instant)>,
    /// The local/remote split and the cork policy when a wire is bound.
    router: Option<WireRouter>,
    intra: Tally,
    cross: Tally,
}

impl Transport {
    /// Build the mailboxes and the send path from a configuration.
    pub fn new(cfg: TransportConfig) -> Arc<Self> {
        let n = cfg.topo.num_pes();
        Arc::new(Transport {
            mailboxes: (0..n).map(|_| Arc::new(Mailbox::new())).collect(),
            fault: cfg.fault.map(|plan| (Mutex::new(FaultWire::new(plan)), Instant::now())),
            router: cfg.wire.map(|binding| WireRouter::new(binding, n)),
            topo: cfg.topo,
            latency: cfg.latency,
            intra: Tally::default(),
            cross: Tally::default(),
        })
    }

    /// Count `pkt` as intra- or cross-cluster and deliver it: at once
    /// within a cluster; across, through the fault wire (if any) and the
    /// delay device.  The packet's first attempt.
    pub fn send(&self, pkt: Packet) {
        self.transmit(pkt, 0);
    }

    /// [`Transport::send`] as attempt `attempt` of `pkt` (0 for the first
    /// copy): a data frame's resend names its attempt, which keys the fault
    /// wire's draw with the frame's sequence number.
    pub fn transmit(&self, pkt: Packet, attempt: u32) {
        if !self.topo.crosses_wan(pkt.src, pkt.dst) {
            self.intra.count(&pkt);
            return self.land(pkt);
        }
        self.cross.count(&pkt);
        let Some((wire, t0)) = &self.fault else { return self.delay(pkt) };
        let Some((KIND_DATA, seq, _)) = reliable::decode_frame(&pkt.payload) else { return self.delay(pkt) };
        let fate = wire.lock().transmit(pkt.src, pkt.dst, seq, attempt, Dur::from_std(t0.elapsed()), pkt);
        let Fate::Through { item, harm, released } = fate else { return };
        let copies = match harm {
            Harm::None => 1,
            Harm::Duplicated => 2,
            Harm::Corrupted => 0,
        };
        for pkt in std::iter::repeat_n(item, copies).chain(released) {
            self.delay(pkt);
        }
    }

    /// The delay device: stamp `pkt` due its pair's latency from now,
    /// unless that is zero, and land it.
    fn delay(&self, mut pkt: Packet) {
        let latency = self.latency.base_latency(&self.topo, pkt.src, pkt.dst).to_std();
        if !latency.is_zero() {
            pkt.due = Some(Instant::now() + latency);
        }
        self.land(pkt);
    }

    /// Post `pkt` to its destination's mailbox, or hand it to the wire
    /// when the destination lives on another node.
    fn land(&self, pkt: Packet) {
        match &self.router {
            Some(router) if !router.is_local(pkt.dst) => router.send(pkt),
            _ => self.mailboxes[pkt.dst.index()].post(pkt),
        }
    }

    /// Receive for one PE, blocking up to `timeout`.  With a wire bound:
    /// take what is ready; failing that, write the calling thread's cork —
    /// it is about to block — and only then wait.
    pub fn recv_timeout(&self, pe: Pe, timeout: Duration) -> Option<Packet> {
        self.recv_with(pe, |mb| match &self.router {
            None => mb.take_timeout(timeout),
            Some(router) => mb.try_take().or_else(|| {
                router.flush(pe);
                mb.take_timeout(timeout)
            }),
        })
    }

    /// Non-blocking receive.  A miss does not write the cork: the caller is
    /// not about to sleep — it has other work, or it will say so with a
    /// blocking receive (or [`Transport::flush_wire`]) next.
    pub fn try_recv(&self, pe: Pe) -> Option<Packet> {
        self.recv_with(pe, Mailbox::try_take)
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

    /// (packets, bytes) sent within a cluster so far.
    pub fn intra_traffic(&self) -> (u64, u64) {
        self.intra.read()
    }

    /// (packets, bytes) sent across clusters so far: every attempt and
    /// every ack, counted before the fault wire.
    pub fn cross_traffic(&self) -> (u64, u64) {
        self.cross.read()
    }

    /// What the fault wire has done so far (all zero without a plan).
    pub fn wire_stats(&self) -> WireStats {
        self.fault.as_ref().map(|(wire, _)| wire.lock().stats()).unwrap_or_default()
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
    use crate::wire::Wire;
    use bytes::Bytes;

    /// Clusters {0, 1} and {2, 3}, `cross_ms` injected between them.
    fn transport(cross_ms: u64) -> Arc<Transport> {
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(cross_ms));
        Transport::new(TransportConfig::new(topo, latency))
    }

    /// A wire that keeps every packet it is handed.
    #[derive(Default)]
    struct Collect(Mutex<Vec<Packet>>);

    impl Wire for Collect {
        fn send(&self, pkt: Packet) {
            self.0.lock().push(pkt);
        }
    }

    /// `transport(cross_ms)` under `fault`, with PEs 0 and 1 in this
    /// process and 2 and 3 across a collecting wire.
    fn wired(cross_ms: u64, fault: Option<FaultPlan>) -> (Arc<Transport>, Arc<Collect>) {
        let topo = Topology::two_cluster(4);
        let wire = Arc::new(Collect::default());
        let mut cfg =
            TransportConfig::new(topo.clone(), LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(cross_ms)));
        cfg.fault = fault;
        cfg.wire = Some(WireBinding::new(wire.clone(), &[Pe(0), Pe(1)], 4));
        (Transport::new(cfg), wire)
    }

    /// Sends `n` one-byte data frames `0 -> 2` through a transport running
    /// `plan`; returns what reached the wire and what the fault wire did.
    fn faulted(plan: FaultPlan, ack_first: bool, n: u8) -> (Vec<Vec<u8>>, WireStats) {
        let (t, wire) = wired(0, Some(plan));
        if ack_first {
            t.send(Packet::new(Pe(0), Pe(2), reliable::encode_ack(7, None, None)));
            wire.0.lock().clear();
        }
        for i in 0..n {
            t.send(Packet::new(Pe(0), Pe(2), reliable::encode_data(u64::from(i), &[i])));
        }
        let got = wire.0.lock().iter().map(|p| p.payload.to_vec()).collect();
        (got, t.wire_stats())
    }

    #[test]
    fn intra_cluster_is_immediate_and_unstamped() {
        let t = transport(50);
        t.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"fast")));
        let got = t.try_recv(Pe(1)).expect("delivered at once");
        assert_eq!(&got.payload[..], b"fast");
        assert!(got.due.is_none(), "intra-cluster packets are never stamped");
        assert_eq!(t.intra_traffic(), (1, 4));
        assert_eq!(t.cross_traffic(), (0, 0));
        t.shutdown();
    }

    #[test]
    fn cross_cluster_is_held_until_due() {
        let t = transport(30);
        let t0 = Instant::now();
        t.send(Packet::new(Pe(0), Pe(2), Bytes::from_static(b"slow")));
        assert_eq!(t.cross_traffic(), (1, 4));
        // In the mailbox at once, but not visible before its time.
        assert_eq!(t.mailbox(Pe(2)).len(), 1);
        assert!(t.try_recv(Pe(2)).is_none());
        assert!(t.recv_timeout(Pe(2), Duration::from_millis(5)).is_none());
        // Visible after it, to a consumer that blocks with no further post.
        let got = t.recv_timeout(Pe(2), Duration::from_secs(2)).expect("delivered");
        assert_eq!(&got.payload[..], b"slow");
        assert!(t0.elapsed() >= Duration::from_millis(29), "held by the delay device");
        t.shutdown();
    }

    #[test]
    fn zero_delay_lands_unstamped() {
        let t = transport(0);
        t.send(Packet::new(Pe(0), Pe(2), Bytes::from_static(b"x")));
        assert!(t.try_recv(Pe(2)).expect("no hold for zero delay").due.is_none());
        t.shutdown();
    }

    #[test]
    fn stamp_is_send_instant_plus_delay() {
        let (t, wire) = wired(10, None);
        let before = Instant::now();
        t.send(Packet::new(Pe(0), Pe(2), Bytes::from_static(b"x")));
        let after = Instant::now();
        let due = wire.0.lock()[0].due.expect("stamped before the wire");
        let l = Duration::from_millis(10);
        assert!(due >= before + l && due <= after + l);
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
        let t = transport(10);
        for i in 0..20u8 {
            t.send(Packet::new(Pe(0), Pe(2), Bytes::copy_from_slice(&[i])));
        }
        let tags: Vec<u8> =
            (0..20).map(|_| t.recv_timeout(Pe(2), Duration::from_secs(2)).expect("delivered").payload[0]).collect();
        assert_eq!(tags, (0..20).collect::<Vec<u8>>(), "FIFO for equal delays");
        t.shutdown();
    }

    #[test]
    fn shutdown_releases_holds() {
        let t = transport(60_000);
        t.send(Packet::new(Pe(0), Pe(2), Bytes::copy_from_slice(&[5])));
        assert!(t.try_recv(Pe(2)).is_none(), "held for a minute");
        t.shutdown();
        assert_eq!(t.try_recv(Pe(2)).expect("hold released on shutdown").payload[0], 5);
    }

    #[test]
    fn a_quiet_plan_is_transparent() {
        let (got, stats) = faulted(FaultPlan::default(), false, 32);
        assert_eq!(got, (0..32u8).map(|i| reliable::encode_data(u64::from(i), &[i]).to_vec()).collect::<Vec<_>>());
        assert_eq!(stats, WireStats::default());
    }

    #[test]
    fn the_same_plan_harms_the_same_attempts() {
        let plan = FaultPlan::loss(0.2).with_duplicate(0.2).with_corrupt(0.2).with_reorder(0.2).with_seed(5);
        let (got, stats) = faulted(plan.clone(), false, 200);
        assert_eq!(faulted(plan, false, 200), (got.clone(), stats), "the same plan harms the same frames");
        assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.corrupted > 0 && stats.reordered > 0);
        // Every frame neither dropped nor corrupted lands (a stash may
        // still hold one), duplicates twice, and every one intact.
        let held = 200 - stats.dropped - stats.corrupted + stats.duplicated - got.len() as u64;
        assert!(held <= 1, "only the stash may hold a frame back, {held} held");
        let intact = |p: &Vec<u8>| {
            reliable::decode_frame(p).is_some_and(|(_, seq, body)| body.len() == 1 && seq == u64::from(body[0]))
        };
        assert!(got.iter().all(intact), "no corrupted frame lands");
    }

    #[test]
    fn each_attempt_meets_the_draw_keyed_by_its_frame_and_attempt_number() {
        let plan = FaultPlan::loss(0.5).with_seed(8);
        let (t, wire) = wired(0, Some(plan.clone()));
        let mut oracle = FaultWire::new(plan);
        for (seq, attempt) in (0..64u64).flat_map(|seq| [(seq, 0), (seq, 2)]) {
            t.transmit(Packet::new(Pe(0), Pe(2), reliable::encode_data(seq, &[])), attempt);
            let through = oracle.transmit(Pe(0), Pe(2), seq, attempt, Dur::ZERO, ()) != Fate::Lost;
            assert_eq!(wire.0.lock().drain(..).count(), usize::from(through), "seq {seq}, attempt {attempt}");
        }
        assert_eq!(t.wire_stats(), oracle.stats());
    }

    #[test]
    fn a_corrupted_attempt_never_lands_and_is_counted() {
        let (got, stats) = faulted(FaultPlan::default().with_corrupt(1.0), false, 32);
        assert!(got.is_empty(), "nothing a receiver would reject lands");
        assert_eq!(stats, WireStats { corrupted: 32, ..WireStats::default() });
    }

    #[test]
    fn an_ack_passes_unharmed_and_draws_nothing() {
        let (t, wire) = wired(0, Some(FaultPlan::loss(1.0)));
        t.send(Packet::new(Pe(0), Pe(2), reliable::encode_ack(7, None, None)));
        assert_eq!(wire.0.lock().len(), 1, "an ack survives a 100%-loss plan");
        assert_eq!(t.wire_stats(), WireStats::default(), "and is no attempt");
        // The data after it meet the draws they would meet without it.
        let plan = FaultPlan::loss(0.3).with_duplicate(0.2).with_reorder(0.2).with_seed(9);
        assert_eq!(faulted(plan.clone(), true, 64), faulted(plan, false, 64));
    }

    #[test]
    fn every_attempt_and_ack_is_counted_ahead_of_the_fault_wire() {
        let (t, wire) = wired(0, Some(FaultPlan::loss(1.0)));
        for i in 0..5u8 {
            t.send(Packet::new(Pe(0), Pe(2), reliable::encode_data(u64::from(i), &[i])));
        }
        let ack = reliable::encode_ack(5, None, None);
        let bytes = 5 * reliable::encode_data(0, &[0]).len() + ack.len();
        t.send(Packet::new(Pe(0), Pe(2), ack));
        assert_eq!(t.cross_traffic(), (6, bytes as u64));
        assert_eq!(wire.0.lock().len(), 1, "only the ack lands");
        assert_eq!(t.wire_stats().dropped, 5);
    }

    #[test]
    fn a_stashed_attempt_is_stamped_when_it_leaves_the_fault_wire() {
        // Every draw reorders: the first attempt waits in the stash, the
        // second passes and releases it right behind itself.
        let (t, wire) = wired(10, Some(FaultPlan::default().with_reorder(1.0)));
        t.send(Packet::new(Pe(0), Pe(2), reliable::encode_data(0, &[0])));
        assert!(wire.0.lock().is_empty(), "stashed");
        std::thread::sleep(Duration::from_millis(20));
        let released = Instant::now();
        t.send(Packet::new(Pe(0), Pe(2), reliable::encode_data(1, &[1])));
        let got = wire.0.lock();
        let seqs: Vec<u64> = got.iter().map(|p| reliable::decode_frame(&p.payload).expect("frame").1).collect();
        assert_eq!(seqs, [1, 0], "the stash follows the attempt that freed it");
        for p in got.iter() {
            assert!(p.due.expect("stamped") >= released + Duration::from_millis(10), "stamped on leaving the wire");
        }
    }

    #[test]
    fn router_splits_local_and_remote() {
        let (t, wire) = wired(0, None);
        t.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"local")));
        t.send(Packet::new(Pe(1), Pe(3), Bytes::from_static(b"remote")));
        assert_eq!(t.mailbox(Pe(1)).len(), 1);
        assert!(t.mailbox(Pe(3)).is_empty(), "a remote destination never lands locally");
        let out = wire.0.lock();
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0].payload[..], b"remote");
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
        let h = std::thread::spawn(move || t2.recv_timeout(Pe(0), Duration::from_secs(60)));
        std::thread::sleep(Duration::from_millis(20));
        t.shutdown();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn only_the_polling_thread_corks_and_it_flushes_before_it_blocks() {
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
}
