//! TRAM-style per-destination message aggregation over the reliable layer.
//!
//! Charm++'s TRAM (Topological Routing and Aggregation Module) observes
//! that fine-grain message-driven programs — exactly the high
//! virtualization regime the paper advocates in §4 — drown in per-message
//! overhead, and that coalescing messages bound for the same destination
//! into larger units amortizes it.  MPWide reaches the same conclusion for
//! WAN paths.  [`Aggregator`] applies that here: envelopes bound for the
//! same remote PE accumulate in a per-(src, dst) [`FrameBuilder`] and ship
//! as one jumbo frame.  *When* is [`crate::flush`]'s decision — the policy
//! the simulator runs too; this layer supplies the bytes, the wall clock
//! and the tick:
//!
//! * **size** — buffered payload reaches [`AggConfig::max_bytes`];
//! * **deadline** — a background flusher ships any buffer older than
//!   [`AggConfig::max_delay`], so quiescence detection and AtSync barriers
//!   always terminate (a buffered message is never held forever);
//! * **urgency** — system-critical envelopes (QD votes, exit, checkpoint
//!   control) are appended and the frame flushes immediately, preserving
//!   per-pair order while never stalling the control plane;
//! * **shutdown** — [`Aggregator::flush_all`] drains every buffer.
//!
//! Aggregating or not, this is also the one place the `Shed` overload
//! policy drops anything: a sheddable envelope whose pair has no credit
//! left is dropped in [`Aggregator::send_with`], before it is encoded into
//! a frame or a packet.
//!
//! The layer sits *above* [`ReliableTransport`] deliberately: one frame is
//! one reliable sequence number, so a lost or corrupted frame costs one
//! ack and one whole-frame retransmission — frame-granularity recovery,
//! not per-message.  Intra-cluster traffic bypasses aggregation entirely,
//! mirroring the transport's own affiliation routing.
//!
//! On receive, frames are split into zero-copy sub-packets (views into the
//! frame's single allocation) and land in a per-PE pending [`Mailbox`]
//! via [`Mailbox::post_many`] — one lock acquisition per frame.  The
//! pending bank exists because sub-packets must *not* re-enter the raw
//! transport mailbox: with a fault plan armed, [`ReliableTransport`]
//! treats every cross-WAN packet as a reliable frame and would discard
//! bare envelope payloads as mangled.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use mdo_netsim::{AggConfig, Dur, FlowConfig, Pe, Time, TransportError};
use parking_lot::Mutex;

use crate::flush::{FlushCause, PairFill};
use crate::frame::{self, FrameBuilder};
use crate::mailbox::{Mailbox, SHED_EXEMPT_PRIORITY};
use crate::packet::Packet;
use crate::reliable::ReliableTransport;
use crate::transport::Transport;

/// One (src, dst) accumulation buffer: the bytes, and the flush policy's
/// view of how full and how old they are.
#[derive(Default)]
struct PairBuf {
    builder: FrameBuilder,
    fill: PairFill,
}

/// Counters shared with the flusher thread.
struct Shared {
    rt: Arc<ReliableTransport>,
    cfg: AggConfig,
    /// Zero of the clock the flush policy is driven with.
    start: Instant,
    /// Accumulation buffers, sharded by source PE so concurrent senders
    /// never contend (each PE thread writes only its own shard).
    pairs: Vec<Mutex<HashMap<u32, PairBuf>>>,
    frames_sent: AtomicU64,
    envelopes_coalesced: AtomicU64,
    bytes_saved: AtomicU64,
    flush_by_size: AtomicU64,
    flush_by_deadline: AtomicU64,
    flush_urgent: AtomicU64,
    flush_final: AtomicU64,
    stop: AtomicBool,
}

impl Shared {
    fn now(&self) -> Time {
        Time::ZERO + Dur::from_std(self.start.elapsed())
    }

    /// Ship `buf`'s contents as one frame (no-op when empty).
    fn flush_buf(&self, src: Pe, dst: Pe, buf: &mut PairBuf, cause: FlushCause) {
        let (Some((priority, frame, _)), Some(tally)) = (buf.builder.take(), buf.fill.take()) else {
            return;
        };
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.envelopes_coalesced.fetch_add(tally.envelopes, Ordering::Relaxed);
        self.bytes_saved.fetch_add(tally.bytes_saved, Ordering::Relaxed);
        match cause {
            FlushCause::Size => &self.flush_by_size,
            FlushCause::Deadline => &self.flush_by_deadline,
            FlushCause::Urgent => &self.flush_urgent,
            FlushCause::Final => &self.flush_final,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.rt.send(Packet::with_priority(src, dst, priority, frame));
    }

    /// Flush every non-empty buffer originating at `src`.
    fn flush_src(&self, src: Pe, cause: FlushCause) {
        let mut shard = self.pairs[src.index()].lock();
        for (&dst, buf) in shard.iter_mut() {
            self.flush_buf(src, Pe(dst), buf, cause);
        }
    }
}

/// Snapshot of aggregation counters (see the mdo-obs `Ctr` mirror).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AggStats {
    /// Jumbo frames shipped.
    pub frames_sent: u64,
    /// Envelopes that travelled inside frames.
    pub envelopes_coalesced: u64,
    /// Wire framing bytes saved vs sending each envelope standalone.
    pub bytes_saved: u64,
    /// Frames flushed because the size threshold was reached.
    pub flush_by_size: u64,
    /// Frames flushed by the deadline timer.
    pub flush_by_deadline: u64,
    /// Frames flushed because an urgent (system) envelope joined.
    pub flush_urgent: u64,
    /// Frames flushed by shutdown / barrier drains.
    pub flush_final: u64,
    /// Application envelopes dropped by the `Shed` overload policy at the
    /// send site (the pair's credit window was shut).
    pub envelopes_shed: u64,
    /// Payload bytes dropped by the `Shed` overload policy.
    pub shed_bytes: u64,
}

/// The aggregation layer.  Built with [`Aggregator::passthrough`] it
/// delegates straight to the reliable transport (no buffering, no flusher
/// thread, no receive indirection); built with [`Aggregator::with_policy`]
/// it coalesces cross-WAN traffic as described in the module docs.  Either
/// way it sheds if the reliable layer it wraps runs the `Shed` policy.
pub struct Aggregator {
    rt: Arc<ReliableTransport>,
    /// The reliable layer's flow-control policy, when backpressure is on.
    flow: Option<FlowConfig>,
    shared: Option<Arc<Shared>>,
    /// Per-PE landing queues for unpacked sub-packets (aggregating mode
    /// only; empty vec in passthrough).  Never bounded locally — the poster
    /// *is* the consumer thread, so blocking it would self-deadlock;
    /// instead their occupancy is advertised to senders as receive headroom
    /// on acks, so they stall (`Block`) or shed (`Shed`) remotely.
    pending: Vec<Arc<Mailbox>>,
    envelopes_shed: AtomicU64,
    shed_bytes: AtomicU64,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Aggregator {
    /// Aggregation off: a wrapper that adds only the shed site.
    pub fn passthrough(rt: Arc<ReliableTransport>) -> Arc<Self> {
        Arc::new(Self::over(rt, None, Vec::new(), None))
    }

    /// Aggregation on, coalescing under `cfg`.
    pub fn with_policy(rt: Arc<ReliableTransport>, cfg: AggConfig) -> Arc<Self> {
        let n = rt.inner().topology().num_pes();
        let shared = Arc::new(Shared {
            rt: Arc::clone(&rt),
            cfg,
            start: Instant::now(),
            pairs: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            frames_sent: AtomicU64::new(0),
            envelopes_coalesced: AtomicU64::new(0),
            bytes_saved: AtomicU64::new(0),
            flush_by_size: AtomicU64::new(0),
            flush_by_deadline: AtomicU64::new(0),
            flush_urgent: AtomicU64::new(0),
            flush_final: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let flusher = spawn_deadline_flusher(Arc::clone(&shared));
        let pending = (0..n).map(|_| Arc::new(Mailbox::new())).collect();
        Arc::new(Self::over(rt, Some(shared), pending, Some(flusher)))
    }

    fn over(
        rt: Arc<ReliableTransport>,
        shared: Option<Arc<Shared>>,
        pending: Vec<Arc<Mailbox>>,
        flusher: Option<std::thread::JoinHandle<()>>,
    ) -> Self {
        Aggregator {
            flow: rt.flow_config(),
            rt,
            shared,
            pending,
            envelopes_shed: AtomicU64::new(0),
            shed_bytes: AtomicU64::new(0),
            flusher: Mutex::new(flusher),
        }
    }

    /// True if coalescing is active.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The reliable layer underneath.
    pub fn reliable(&self) -> &Arc<ReliableTransport> {
        &self.rt
    }

    /// The raw transport underneath (counters, mailboxes, topology).
    pub fn inner(&self) -> &Arc<Transport> {
        self.rt.inner()
    }

    /// First retry-exhaustion error from the reliable layer, if any.
    pub fn error(&self) -> Option<TransportError> {
        self.rt.error()
    }

    /// Send one message whose bytes are produced by `write`.  On the
    /// aggregated cross-WAN path the encoder targets the warm frame buffer
    /// directly — zero per-envelope payload allocations; elsewhere it
    /// fills a fresh buffer for a standalone packet.  `urgent` marks
    /// system-critical traffic: the buffer (with the urgent message
    /// appended, preserving per-pair order) flushes immediately.
    pub fn send_with<F: FnOnce(&mut BytesMut)>(&self, src: Pe, dst: Pe, priority: i32, urgent: bool, write: F) {
        let cross = self.inner().topology().crosses_wan(src, dst);
        if cross
            && self.flow.is_some_and(|f| f.sheds())
            && !urgent
            && priority != SHED_EXEMPT_PRIORITY
            && self.rt.credit_available(src, dst) == 0
        {
            // The pair's window is shut and the policy is to degrade
            // rather than stall: drop the envelope here, before it joins a
            // frame (frames are never torn) or takes a sequence number.
            // The test is "no credit left", not "does not fit": the encoded
            // size is not known yet, and frames reserve when they flush.
            // Encode into a scratch buffer only to account the dropped
            // bytes.
            let mut scratch = BytesMut::with_capacity(64);
            write(&mut scratch);
            self.envelopes_shed.fetch_add(1, Ordering::Relaxed);
            self.shed_bytes.fetch_add(scratch.len() as u64, Ordering::Relaxed);
            return;
        }
        let Some(sh) = self.shared.as_ref().filter(|_| cross) else {
            let mut buf = BytesMut::with_capacity(64);
            write(&mut buf);
            self.rt.send(Packet::with_priority(src, dst, priority, buf.freeze()));
            return;
        };
        let mut shard = sh.pairs[src.index()].lock();
        let buf = shard.entry(dst.0).or_default();
        let body_len = buf.builder.push_with(priority, write);
        if let Some(cause) = buf.fill.push(&sh.cfg, urgent, body_len, || sh.now()).flush {
            sh.flush_buf(src, dst, buf, cause);
        }
    }

    /// Send a pre-built packet, aggregating it like any other message.
    pub fn send_packet(&self, pkt: Packet, urgent: bool) {
        let payload = pkt.payload;
        self.send_with(pkt.src, pkt.dst, pkt.priority, urgent, |buf| buf.put_slice(&payload));
    }

    /// Flush every buffer held for messages originating at `src` (AtSync
    /// barriers and engine shutdown call this so no message outlives its
    /// sender's quiescent state).
    pub fn flush(&self, src: Pe) {
        if let Some(sh) = &self.shared {
            sh.flush_src(src, FlushCause::Final);
        }
    }

    /// Flush everything everywhere.
    pub fn flush_all(&self) {
        if let Some(sh) = &self.shared {
            for src in 0..sh.pairs.len() {
                sh.flush_src(Pe(src as u32), FlushCause::Final);
            }
        }
    }

    /// Receive for `pe`, blocking up to `timeout`.  Frames are unpacked
    /// into zero-copy sub-packets; everything else passes through.
    pub fn recv_timeout(&self, pe: Pe, timeout: Duration) -> Option<Packet> {
        if self.shared.is_none() {
            return self.rt.recv_timeout(pe, timeout);
        }
        let deadline = Instant::now() + timeout;
        loop {
            // Drain whatever already arrived so the pending mailbox can
            // order sub-packets against loose ones by priority.
            while let Some(pkt) = self.rt.try_recv(pe) {
                self.absorb(pe, pkt);
            }
            if let Some(pkt) = self.pending[pe.index()].try_take() {
                self.advertise(pe);
                return Some(pkt);
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let pkt = self.rt.recv_timeout(pe, remaining)?;
            self.absorb(pe, pkt);
        }
    }

    /// Non-blocking receive for `pe`.
    pub fn try_recv(&self, pe: Pe) -> Option<Packet> {
        if self.shared.is_none() {
            return self.rt.try_recv(pe);
        }
        loop {
            if let Some(pkt) = self.pending[pe.index()].try_take() {
                self.advertise(pe);
                return Some(pkt);
            }
            let pkt = self.rt.try_recv(pe)?;
            self.absorb(pe, pkt);
        }
    }

    /// Unpack one packet from the reliable layer into the pending bank.
    fn absorb(&self, pe: Pe, pkt: Packet) {
        if frame::is_frame(&pkt.payload) {
            // A frame mangled beyond the CRC and reliable layers is
            // treated as loss, same as a garbled reliable frame.
            if let Ok(chunks) = frame::split(&pkt.payload) {
                self.pending[pe.index()].post_many(
                    chunks
                        .into_iter()
                        .map(|(priority, bytes)| Packet::with_priority(pkt.src, pkt.dst, priority, bytes)),
                );
            }
        } else {
            self.pending[pe.index()].post(pkt);
        }
        self.advertise(pe);
    }

    /// Refresh the receive headroom `pe` advertises on its acks: the
    /// mailbox byte budget minus what is queued in its pending bank.  With
    /// `Block` senders this is what turns local queue growth into remote
    /// sender stalls — end-to-end backpressure.
    fn advertise(&self, pe: Pe) {
        if let Some(flow) = self.flow {
            let used = self.pending[pe.index()].bytes();
            self.rt.set_advertised_window(pe, flow.mailbox_bytes.saturating_sub(used) as u64);
        }
    }

    /// High-water mark of `pe`'s pending bank (merged into the engine's
    /// queue-depth stat so aggregation doesn't hide backlog).
    pub fn pending_max_depth(&self, pe: Pe) -> usize {
        self.pending.get(pe.index()).map_or(0, |mb| mb.max_depth())
    }

    /// High-water mark of `pe`'s pending bank in payload bytes (the
    /// quantity the flow-control mailbox budget bounds).
    pub fn pending_max_bytes(&self, pe: Pe) -> usize {
        self.pending.get(pe.index()).map_or(0, |mb| mb.max_bytes())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AggStats {
        let shed = AggStats {
            envelopes_shed: self.envelopes_shed.load(Ordering::Relaxed),
            shed_bytes: self.shed_bytes.load(Ordering::Relaxed),
            ..AggStats::default()
        };
        self.shared.as_ref().map_or(shed, |sh| AggStats {
            frames_sent: sh.frames_sent.load(Ordering::Relaxed),
            envelopes_coalesced: sh.envelopes_coalesced.load(Ordering::Relaxed),
            bytes_saved: sh.bytes_saved.load(Ordering::Relaxed),
            flush_by_size: sh.flush_by_size.load(Ordering::Relaxed),
            flush_by_deadline: sh.flush_by_deadline.load(Ordering::Relaxed),
            flush_urgent: sh.flush_urgent.load(Ordering::Relaxed),
            flush_final: sh.flush_final.load(Ordering::Relaxed),
            ..shed
        })
    }

    /// Running total of envelopes shed so far.  One atomic load: cheap
    /// enough for the engine to poll every scheduling iteration when
    /// reconciling quiescence books.
    pub fn sheds_total(&self) -> u64 {
        self.envelopes_shed.load(Ordering::Relaxed)
    }

    /// Flush every buffer and stop the deadline flusher (idempotent).
    /// Call before shutting down the reliable layer underneath.
    pub fn shutdown(&self) {
        if let Some(sh) = &self.shared {
            self.flush_all();
            sh.stop.store(true, Ordering::Release);
            if let Some(h) = self.flusher.lock().take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Aggregator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn_deadline_flusher(shared: Arc<Shared>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("mdo-agg-flush".into())
        .spawn(move || {
            let tick = (shared.cfg.max_delay.to_std() / 4).max(Duration::from_micros(200));
            while !shared.stop.load(Ordering::Acquire) {
                std::thread::sleep(tick);
                let now = shared.now();
                for (src, shard) in shared.pairs.iter().enumerate() {
                    let mut shard = shard.lock();
                    for (&dst, buf) in shard.iter_mut() {
                        if buf.fill.expired(&shared.cfg, now) {
                            shared.flush_buf(Pe(src as u32), Pe(dst), buf, FlushCause::Deadline);
                        }
                    }
                }
            }
        })
        .expect("spawn aggregation flusher")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::crc::CrcDevice;
    use crate::devices::fault::FaultDevice;
    use crate::transport::TransportConfig;
    use bytes::Bytes;
    use mdo_netsim::agg::EAGER_BYTES;
    use mdo_netsim::{Dur, FaultPlan, LatencyMatrix, OverloadPolicy, Topology};

    fn rig(pes: u32, cfg: Option<AggConfig>, plan: Option<FaultPlan>) -> Arc<Aggregator> {
        let topo = Topology::two_cluster(pes);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let mut tcfg = TransportConfig::new(topo, latency);
        let rt = match plan {
            Some(plan) => {
                tcfg.cross_extra =
                    vec![CrcDevice::appender(), FaultDevice::for_reliable(plan.clone()), CrcDevice::verifier()];
                ReliableTransport::with_plan(Transport::new(tcfg), plan)
            }
            None => ReliableTransport::passthrough(Transport::new(tcfg)),
        };
        match cfg {
            Some(cfg) => Aggregator::with_policy(rt, cfg),
            None => Aggregator::passthrough(rt),
        }
    }

    fn teardown(agg: &Aggregator) {
        agg.shutdown();
        agg.reliable().shutdown();
        agg.inner().shutdown();
    }

    #[test]
    fn size_threshold_coalesces_into_one_frame() {
        // Deadline far away: only the byte threshold can flush.
        let cfg = AggConfig::default().with_max_bytes(64).with_max_delay(Dur::from_millis(10_000));
        let agg = rig(2, Some(cfg), None);
        for i in 0..16u8 {
            agg.send_with(Pe(0), Pe(1), 0, false, |buf| buf.put_slice(&[i; 8]));
        }
        let mut got = Vec::new();
        while got.len() < 16 {
            let p = agg.recv_timeout(Pe(1), Duration::from_secs(2)).expect("delivered");
            got.push(p.payload[0]);
        }
        assert_eq!(got, (0..16).collect::<Vec<_>>(), "coalesced delivery preserves order");
        let st = agg.stats();
        assert_eq!(st.envelopes_coalesced, 16);
        assert_eq!(st.flush_by_size, 2, "16 × 8 B against a 64 B threshold = 2 size flushes");
        assert_eq!(st.frames_sent, 2);
        assert!(st.bytes_saved > 0);
        teardown(&agg);
    }

    #[test]
    fn deadline_flushes_a_short_buffer() {
        let cfg = AggConfig::default().with_max_bytes(1 << 20).with_max_delay(Dur::from_micros(2000));
        let agg = rig(2, Some(cfg), None);
        agg.send_with(Pe(0), Pe(1), 0, false, |buf| buf.put_slice(b"lonely"));
        let p = agg.recv_timeout(Pe(1), Duration::from_secs(5)).expect("deadline flush delivered it");
        assert_eq!(&p.payload[..], b"lonely");
        // The flusher bumps the counter (Relaxed) before shipping the
        // frame, but delivery does not synchronize-with the test thread's
        // load — poll with a generous bound instead of reading once.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while agg.stats().flush_by_deadline == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(agg.stats().flush_by_deadline >= 1, "the short buffer was flushed by deadline");
        teardown(&agg);
    }

    #[test]
    fn urgent_send_flushes_immediately_in_order() {
        let cfg = AggConfig::default().with_max_bytes(1 << 20).with_max_delay(Dur::from_millis(10_000));
        let agg = rig(2, Some(cfg), None);
        agg.send_with(Pe(0), Pe(1), 0, false, |buf| buf.put_slice(b"first"));
        agg.send_with(Pe(0), Pe(1), 0, true, |buf| buf.put_slice(b"URGENT"));
        let a = agg.recv_timeout(Pe(1), Duration::from_secs(2)).expect("flushed");
        let b = agg.recv_timeout(Pe(1), Duration::from_secs(2)).expect("flushed");
        assert_eq!(&a.payload[..], b"first", "urgency flushes the buffer, it does not reorder it");
        assert_eq!(&b.payload[..], b"URGENT");
        let st = agg.stats();
        assert_eq!((st.frames_sent, st.flush_urgent), (1, 1));
        teardown(&agg);
    }

    #[test]
    fn intra_cluster_bypasses_aggregation() {
        let cfg = AggConfig::default().with_max_bytes(1 << 20).with_max_delay(Dur::from_millis(10_000));
        let agg = rig(4, Some(cfg), None); // clusters {0,1} and {2,3}
        agg.send_with(Pe(0), Pe(1), 0, false, |buf| buf.put_slice(b"local"));
        let p = agg.recv_timeout(Pe(1), Duration::from_secs(1)).expect("no buffering for intra traffic");
        assert_eq!(&p.payload[..], b"local");
        assert_eq!(agg.stats().frames_sent, 0);
        teardown(&agg);
    }

    #[test]
    fn passthrough_is_transparent() {
        let agg = rig(2, None, None);
        agg.send_packet(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"raw")), false);
        let p = agg.recv_timeout(Pe(1), Duration::from_secs(1)).expect("delivered");
        assert_eq!(&p.payload[..], b"raw");
        assert_eq!(agg.stats(), AggStats::default());
        assert!(!agg.enabled());
        teardown(&agg);
    }

    #[test]
    fn frames_survive_loss_with_whole_frame_retransmit() {
        let plan = FaultPlan::loss(0.5).with_seed(7).with_rto(Dur::from_millis(8));
        let cfg = AggConfig::default().with_max_bytes(32).with_max_delay(Dur::from_micros(500));
        let agg = rig(2, Some(cfg), Some(plan));
        let n = 64u64;
        for i in 0..n {
            agg.send_with(Pe(0), Pe(1), 0, false, |buf| buf.put_u64_le(i));
        }
        agg.flush(Pe(0));
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        while (got.len() as u64) < n && Instant::now() < deadline {
            if let Some(p) = agg.recv_timeout(Pe(1), Duration::from_millis(50)) {
                got.push(u64::from_le_bytes(p.payload[..8].try_into().unwrap()));
            }
        }
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "exactly once, in order, through frame loss");
        assert!(agg.reliable().retransmits() > 0, "lost frames were retransmitted whole");
        assert!(agg.error().is_none());
        let st = agg.stats();
        assert!(st.frames_sent < n, "coalescing happened: {} frames for {} messages", st.frames_sent, n);
        teardown(&agg);
    }

    #[test]
    fn oversized_message_flushes_eagerly_with_the_pending_buffer() {
        // A message at or above `EAGER_BYTES` has nothing to gain from
        // waiting — it flushes the pair immediately (draining anything
        // already buffered, in order) instead of stalling until the
        // deadline.
        let cfg = AggConfig::default().with_max_bytes(1 << 20).with_max_delay(Dur::from_millis(10_000));
        let agg = rig(2, Some(cfg), None);
        agg.send_with(Pe(0), Pe(1), 0, false, |buf| buf.put_slice(b"tiny"));
        agg.send_with(Pe(0), Pe(1), 0, false, |buf| buf.put_slice(&[7u8; EAGER_BYTES]));
        let a = agg.recv_timeout(Pe(1), Duration::from_secs(2)).expect("eager flush delivered");
        let b = agg.recv_timeout(Pe(1), Duration::from_secs(2)).expect("eager flush delivered");
        assert_eq!(&a.payload[..], b"tiny", "the bulk send drains the pending buffer in order");
        assert_eq!(b.payload.len(), EAGER_BYTES);
        let st = agg.stats();
        assert_eq!((st.frames_sent, st.flush_by_size, st.flush_by_deadline), (1, 1, 0));
        teardown(&agg);
    }

    fn rig_flow(cfg: AggConfig, flow: FlowConfig) -> Arc<Aggregator> {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let tcfg = TransportConfig::new(topo, latency);
        let plan = FaultPlan::default().with_rto(Dur::from_millis(200));
        Aggregator::with_policy(ReliableTransport::with_flow(Transport::new(tcfg), plan, flow), cfg)
    }

    #[test]
    fn shed_policy_drops_envelopes_once_credit_is_exhausted() {
        // Every send flushes its own frame (max_bytes below one envelope),
        // and the receiver never drains, so no acks return credit: the
        // first frames exhaust the 64-byte window, everything after sheds
        // at the send site with byte accounting.
        let cfg = AggConfig::default().with_max_bytes(16).with_max_delay(Dur::from_millis(10_000));
        let flow = FlowConfig::default().with_credit_bytes(64).with_policy(OverloadPolicy::Shed);
        let agg = rig_flow(cfg, flow);
        let n = 10u64;
        for i in 0..n {
            agg.send_with(Pe(0), Pe(1), 0, false, |buf| {
                buf.put_u64_le(i);
                buf.put_slice(&[0u8; 24]);
            });
        }
        let st = agg.stats();
        assert!(st.envelopes_shed > 0, "credit exhaustion shed envelopes");
        assert!(st.shed_bytes >= st.envelopes_shed * 32, "dropped payload bytes were accounted");
        assert_eq!(agg.reliable().credit_stalls(), 0, "Shed never stalls the sender");
        // Conservation: every envelope either shipped in a frame or shed.
        assert_eq!(st.envelopes_coalesced + st.envelopes_shed, n);
        let mut delivered = 0u64;
        while agg.recv_timeout(Pe(1), Duration::from_millis(100)).is_some() {
            delivered += 1;
        }
        assert_eq!(delivered, st.envelopes_coalesced, "what shipped arrived; what shed did not");
        teardown(&agg);
    }

    #[test]
    fn urgent_traffic_is_never_shed() {
        let cfg = AggConfig::default().with_max_bytes(16).with_max_delay(Dur::from_millis(10_000));
        let flow = FlowConfig::default().with_credit_bytes(32).with_policy(OverloadPolicy::Shed);
        let agg = rig_flow(cfg, flow);
        // Saturate the window with application envelopes.
        for _ in 0..6 {
            agg.send_with(Pe(0), Pe(1), 0, false, |buf| buf.put_slice(&[1u8; 32]));
        }
        let shed_before = agg.stats().envelopes_shed;
        assert!(shed_before > 0, "window saturated");
        // Urgent system traffic still goes through, regardless of credit.
        agg.send_with(Pe(0), Pe(1), SHED_EXEMPT_PRIORITY, true, |buf| buf.put_slice(b"URGENT"));
        assert_eq!(agg.stats().envelopes_shed, shed_before, "the urgent envelope was not shed");
        let mut saw_urgent = false;
        while let Some(p) = agg.recv_timeout(Pe(1), Duration::from_millis(100)) {
            if &p.payload[..] == b"URGENT" {
                saw_urgent = true;
            }
        }
        assert!(saw_urgent, "urgent traffic delivered under saturation");
        teardown(&agg);
    }

    #[test]
    fn block_policy_keeps_pending_bank_unbounded() {
        // Under Block the poster of the pending bank is the consumer
        // thread itself, so the bank must never block locally — remote
        // backpressure comes from the advertised window instead.
        let cfg = AggConfig::default().with_max_bytes(16).with_max_delay(Dur::from_millis(10_000));
        let flow = FlowConfig::default().with_credit_bytes(1 << 20).with_mailbox_bytes(64);
        let agg = rig_flow(cfg, flow);
        for i in 0..8u64 {
            agg.send_with(Pe(0), Pe(1), 0, false, |buf| buf.put_u64_le(i));
        }
        agg.flush(Pe(0));
        let mut got = Vec::new();
        while got.len() < 8 {
            let p = agg.recv_timeout(Pe(1), Duration::from_secs(2)).expect("lossless under Block");
            got.push(u64::from_le_bytes(p.payload[..8].try_into().unwrap()));
        }
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert_eq!(agg.stats().envelopes_shed, 0, "Block never drops");
        teardown(&agg);
    }

    #[test]
    fn flush_all_drains_every_pair() {
        let cfg = AggConfig::default().with_max_bytes(1 << 20).with_max_delay(Dur::from_millis(10_000));
        let agg = rig(4, Some(cfg), None);
        agg.send_with(Pe(0), Pe(2), 0, false, |buf| buf.put_slice(b"a"));
        agg.send_with(Pe(1), Pe(3), 5, false, |buf| buf.put_slice(b"b"));
        agg.flush_all();
        assert_eq!(&agg.recv_timeout(Pe(2), Duration::from_secs(1)).expect("drained").payload[..], b"a");
        assert_eq!(&agg.recv_timeout(Pe(3), Duration::from_secs(1)).expect("drained").payload[..], b"b");
        assert_eq!(agg.stats().flush_final, 2);
        teardown(&agg);
    }
}
