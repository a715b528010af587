//! Reliable delivery over an unreliable cross-cluster path.
//!
//! When a run injects faults (see [`crate::transport`]'s fault wire),
//! cross-WAN packets are wrapped in small framed messages carrying a
//! per-(src, dst) sequence number.  The protocol itself — sequence numbers,
//! one ack per data frame (cumulative, naming the frame when it is held past
//! the gap), retransmission with jittered exponential backoff up to
//! a retry ceiling (then a structured [`TransportError`], never a panic),
//! duplicate suppression and in-order release — is [`crate::arq`]'s, the
//! machine the simulator runs too.  [`ReliableTransport`] keeps what is the
//! wall clock's: the locks around the machines, the timer thread that
//! wakes the senders, the frame codec, and credit.
//!
//! Intra-cluster packets bypass the layer entirely — both sides consult
//! the topology, exactly like the transport's own affiliation routing.
//! Acks are control traffic: the fault wire spares them (and draws
//! nothing for them), so recovery is driven purely by data-frame loss.
//! The retransmit timer hands each resend to [`Transport::transmit`] with
//! its attempt number, which keys the fault wire's draw together with the
//! frame's sequence number.
//!
//! ## Credit-based flow control
//!
//! With a [`FlowConfig`] active the layer also enforces end-to-end
//! backpressure: each (src, dst) pair may have at most `credit_bytes` of
//! unacknowledged payload in flight.  The balances and every rule about
//! them live in [`crate::credit`]'s [`CreditLedger`] — the same ledger the
//! simulator runs; this layer owns what is the wall clock's: the lock and
//! condvar around the ledger, the stall and its counters, the headroom
//! receivers advertise, and the ack codec.  Credit grants ride on the acks
//! the receiver already sends (an extension carrying the receiver's
//! advertised headroom), so flow control costs zero extra frames.  A
//! sender that exhausts its window either stalls (`Block` — while
//! stalled it keeps draining its own inbox, so two
//! mutually-saturated peers still exchange the acks that unblock them) or
//! admits over the window (`Shed` — the shedding itself happens at
//! envelope granularity one layer up, in
//! [`Aggregator::send_with`](crate::aggregate::Aggregator::send_with),
//! never here, so a frame is never torn).  Control
//! traffic at [`SHED_EXEMPT_PRIORITY`]
//! neither consumes credit nor waits for it.  A layer lives for one run
//! generation: a crash or a join builds a fresh stack, so no grant or
//! sequence number outlives the PE numbering it was issued under.
//!
//! Only framed application data ever comes out of [`ReliableTransport`]'s
//! receive calls; acks, duplicates and retransmissions are absorbed here.
//! Anything above this layer — the engine's scheduler, quiescence
//! detection — therefore counts application-level deliveries only, by
//! construction.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mdo_netsim::{Dur, FaultPlan, FlowConfig, Pe, Time, TransportError};
use parking_lot::{Condvar, Mutex};

use crate::arq::{Receiver, Sender};
pub use crate::credit::{apply_grant, CreditLedger, CreditState};
use crate::mailbox::SHED_EXEMPT_PRIORITY;
use crate::packet::Packet;
use crate::transport::Transport;

/// Frame tag for application data (`[tag, seq: u64 LE, payload…]`).
pub const KIND_DATA: u8 = 0xD7;
/// Frame tag for a standalone ack (`[tag, cum: u64 LE, extensions…]`).
pub const KIND_ACK: u8 = 0xA7;
/// Bytes of framing prepended to a data payload.
pub const HEADER_LEN: usize = 1 + 8;

/// Mailbox priority for acks: ahead of everything, so a blocked sender
/// learns about progress as soon as possible.
const ACK_PRIORITY: i32 = i32::MIN;

/// Wrap an application payload into a data frame.
pub fn encode_data(seq: u64, payload: &[u8]) -> Bytes {
    let mut v = Vec::with_capacity(HEADER_LEN + payload.len());
    v.push(KIND_DATA);
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(payload);
    Bytes::from(v)
}

/// Build a standalone ack frame: "every seq below `cum` has been
/// received", then the one frame it answers when that frame is `held`
/// past the gap ([`crate::arq::Receipt::held`]; written as 0 for none, a
/// number no frame past a gap has), then the credit `grant` (payload bytes
/// the receiver lets the pair have in flight).  Without a grant the named
/// frame rides only when there is one, so a fault-free run's acks carry
/// nothing; with one (flow control is on) both always ride.
pub fn encode_ack(cum: u64, held: Option<u64>, grant: Option<u64>) -> Bytes {
    let mut v = Vec::with_capacity(ack_len(held.is_some(), grant.is_some()));
    v.push(KIND_ACK);
    v.extend_from_slice(&cum.to_le_bytes());
    if held.is_some() || grant.is_some() {
        v.extend_from_slice(&held.unwrap_or(0).to_le_bytes());
    }
    if let Some(grant) = grant {
        v.extend_from_slice(&grant.to_le_bytes());
    }
    Bytes::from(v)
}

/// Bytes of the ack [`encode_ack`] builds, naming a `held` frame or not,
/// with a grant under flow control: the header, then both extensions with
/// a grant, the named frame alone when there is one, else nothing.
pub fn ack_len(held: bool, with_grant: bool) -> usize {
    HEADER_LEN
        + match (with_grant, held) {
            (true, _) => HELD_EXT_LEN + CREDIT_EXT_LEN,
            (false, true) => HELD_EXT_LEN,
            (false, false) => 0,
        }
}

/// Bytes of the held-frame extension an ack may carry after its header:
/// `[seq: u64 LE]`, 0 for none.
pub const HELD_EXT_LEN: usize = 8;

/// Bytes of the credit-grant extension an ack carries after its held-frame
/// extension under flow control: `[grant: u64 LE]`.
pub const CREDIT_EXT_LEN: usize = 8;

/// What an ack carries after its header.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AckExt {
    /// The frame the ack answers, held past the gap; `None` when the ack
    /// names none.
    pub held: Option<u64>,
    /// The credit grant in payload bytes, when flow control is on.
    pub grant: Option<u64>,
}

/// A malformed ack extension (wrong length).  Hostile or corrupted
/// extensions become this structured error, never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditError {
    /// What was wrong with the extension.
    pub context: &'static str,
}

impl std::fmt::Display for CreditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed ack extension: {}", self.context)
    }
}

impl std::error::Error for CreditError {}

/// Parse the extension bytes of an ack frame (everything after the
/// 9-byte header), told apart by their length: none, a held frame
/// ([`HELD_EXT_LEN`]), or a held frame and a grant ([`CREDIT_EXT_LEN`]) in
/// that order; any other length is a structured [`CreditError`].
pub fn decode_ack_ext(ext: &[u8]) -> Result<AckExt, CreditError> {
    let u64_at = |at: usize| u64::from_le_bytes(ext[at..at + 8].try_into().expect("8-byte field"));
    let held = || Some(u64_at(0)).filter(|&seq| seq != 0);
    match ext.len() {
        0 => Ok(AckExt::default()),
        HELD_EXT_LEN => Ok(AckExt { held: held(), grant: None }),
        n if n == HELD_EXT_LEN + CREDIT_EXT_LEN => Ok(AckExt { held: held(), grant: Some(u64_at(HELD_EXT_LEN)) }),
        _ => Err(CreditError { context: "ack extension length" }),
    }
}

/// Parse a frame: `(kind, seq-or-cum, payload)`.  `None` for anything too
/// short or with an unknown tag (a mangled frame is treated as loss).
pub fn decode_frame(payload: &[u8]) -> Option<(u8, u64, &[u8])> {
    if payload.len() < HEADER_LEN {
        return None;
    }
    let kind = payload[0];
    if kind != KIND_DATA && kind != KIND_ACK {
        return None;
    }
    let num = u64::from_le_bytes(payload[1..HEADER_LEN].try_into().expect("8-byte field"));
    Some((kind, num, &payload[HEADER_LEN..]))
}

/// The wall-clock side of flow control when a [`FlowConfig`] is active:
/// the ledger behind the lock its senders stall on.
struct FlowCtl {
    cfg: FlowConfig,
    ledger: Mutex<CreditLedger>,
    /// Blocked senders wait here; ack absorption signals.
    space: Condvar,
    /// Per-PE receiver headroom advertised on outgoing acks (set by the
    /// aggregation layer from its delivery-mailbox budget; `u64::MAX`
    /// until someone advertises).
    advertised: Vec<AtomicU64>,
    stalls: AtomicU64,
    wait_ns: AtomicU64,
    /// Hard cap on one blocking reservation: liveness beats the window if
    /// acks stop coming entirely (peer death is handled by the failure
    /// detector, not by wedging a sender forever).
    max_wait: Duration,
}

impl FlowCtl {
    fn new(cfg: FlowConfig, n: usize) -> Self {
        FlowCtl {
            cfg,
            ledger: Mutex::new(CreditLedger::new(cfg.credit_bytes)),
            space: Condvar::new(),
            advertised: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            stalls: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            max_wait: Duration::from_secs(1),
        }
    }

    /// The grant to put on an ack sent by `receiver`.
    fn grant_for(&self, receiver: Pe) -> u64 {
        self.cfg.credit_bytes.min(self.advertised[receiver.index()].load(Ordering::Relaxed))
    }

    /// Fold an arriving ack into the pair's balance: release the acked
    /// bytes, then apply any riding grant (clamped to the window: it
    /// comes from another process).
    fn on_ack(&self, key: (u32, u32), release: u64, grant: Option<u64>) {
        {
            let mut ledger = self.ledger.lock();
            ledger.release(key, release);
            if let Some(grant) = grant {
                ledger.grant(key, grant);
            }
        }
        self.space.notify_all();
    }
}

/// Receiver-side state of one destination PE (touched only by that PE's
/// thread, but locked for uniformity with the drain path): a receiver
/// machine per source PE.
#[derive(Default)]
struct RecvSide {
    pairs: HashMap<u32, Receiver<Packet>>,
    ready: VecDeque<Packet>,
}

/// Everything the retransmit timer shares with the front object.
struct Shared {
    inner: Arc<Transport>,
    plan: FaultPlan,
    /// The machines' clock: wall time since the layer came up.
    epoch: Instant,
    send: Mutex<HashMap<(u32, u32), Sender<Packet>>>,
    error: Mutex<Option<TransportError>>,
    retransmits: AtomicU64,
    dup_dropped: AtomicU64,
    stop: AtomicBool,
    flow: Option<FlowCtl>,
}

/// The reliable layer.  Built with [`ReliableTransport::passthrough`] it
/// delegates straight to the raw transport (zero overhead, no framing, no
/// timer thread); built with [`ReliableTransport::with_plan`] it frames
/// and recovers cross-WAN traffic as described in the module docs.
pub struct ReliableTransport {
    inner: Arc<Transport>,
    layer: Option<Layer>,
}

struct Layer {
    shared: Arc<Shared>,
    recv: Vec<Mutex<RecvSide>>,
    timer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ReliableTransport {
    /// No fault plan: a transparent wrapper around `inner`.
    pub fn passthrough(inner: Arc<Transport>) -> Arc<Self> {
        Arc::new(ReliableTransport { inner, layer: None })
    }

    /// Reliable delivery configured from `plan` (its `rto` and
    /// `max_retries` drive the retransmission schedule).
    pub fn with_plan(inner: Arc<Transport>, plan: FaultPlan) -> Arc<Self> {
        Self::build(inner, plan, None)
    }

    /// Reliable delivery plus credit-based flow control: `plan` drives the
    /// retransmission schedule (use `FaultPlan::default()` with a generous
    /// rto on a lossless wire), `flow` the per-pair credit window.
    pub fn with_flow(inner: Arc<Transport>, plan: FaultPlan, flow: FlowConfig) -> Arc<Self> {
        Self::build(inner, plan, Some(flow))
    }

    fn build(inner: Arc<Transport>, plan: FaultPlan, flow: Option<FlowConfig>) -> Arc<Self> {
        let n = inner.topology().num_pes();
        let shared = Arc::new(Shared {
            inner: Arc::clone(&inner),
            plan,
            epoch: Instant::now(),
            send: Mutex::new(HashMap::new()),
            error: Mutex::new(None),
            retransmits: AtomicU64::new(0),
            dup_dropped: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            flow: flow.map(|cfg| FlowCtl::new(cfg, n)),
        });
        let timer = spawn_retransmit_timer(Arc::clone(&shared));
        let layer = Layer {
            shared,
            recv: (0..n).map(|_| Mutex::new(RecvSide::default())).collect(),
            timer: Mutex::new(Some(timer)),
        };
        Arc::new(ReliableTransport { inner, layer: Some(layer) })
    }

    /// The raw transport underneath (counters, mailboxes, topology).
    pub fn inner(&self) -> &Arc<Transport> {
        &self.inner
    }

    /// Send a packet: framed + tracked if it crosses the WAN and the layer
    /// is active, raw otherwise.  With flow control active this is where a
    /// `Block`-policy sender stalls until its credit window re-opens.
    pub fn send(&self, pkt: Packet) {
        let Some(layer) = &self.layer else {
            self.inner.send(pkt);
            return;
        };
        if !self.inner.topology().crosses_wan(pkt.src, pkt.dst) {
            self.inner.send(pkt);
            return;
        }
        let sh = &layer.shared;
        self.reserve_credit(layer, &pkt);
        let framed = {
            let mut send = sh.send.lock();
            let pair = send.entry((pkt.src.0, pkt.dst.0)).or_insert_with(|| Sender::new(pkt.src, pkt.dst));
            let framed =
                Packet::with_priority(pkt.src, pkt.dst, pkt.priority, encode_data(pair.next_seq(), &pkt.payload));
            pair.send(framed.clone(), sh.now(), sh.plan.rto);
            framed
        };
        self.inner.send(framed);
    }

    /// Reserve `pkt`'s payload bytes against the pair's credit window; its
    /// ack releases them.
    ///
    /// Control traffic is exempt.  Under `Block` the call stalls until the
    /// window re-opens — and, crucially, keeps draining the *sender's own*
    /// inbox while stalled: a blocked sender still absorbs incoming acks
    /// (releasing its peers' frames) and still acks incoming data
    /// (releasing peers blocked on *us*), so two mutually-saturated PEs
    /// unblock each other instead of deadlocking.  Under `Shed` the
    /// reservation never stalls: shedding happens at envelope granularity
    /// upstream, and whatever still reaches this layer is admitted so
    /// frames are never torn.
    fn reserve_credit(&self, layer: &Layer, pkt: &Packet) {
        let sh = &layer.shared;
        let Some(flow) = sh.flow.as_ref().filter(|_| pkt.priority != SHED_EXEMPT_PRIORITY) else { return };
        let bytes = pkt.payload.len() as u64;
        let key = (pkt.src.0, pkt.dst.0);
        let start = Instant::now();
        let mut stalled = false;
        loop {
            {
                let mut ledger = flow.ledger.lock();
                let admit = ledger.admits(key, bytes)
                    || flow.cfg.sheds()
                    || sh.stop.load(Ordering::Acquire)
                    || start.elapsed() >= flow.max_wait;
                if admit {
                    ledger.consume(key, bytes);
                    if stalled {
                        flow.wait_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                    return;
                }
                if !stalled {
                    flow.stalls.fetch_add(1, Ordering::Relaxed);
                    stalled = true;
                    // The window re-opens on acks of data this thread may
                    // still hold corked: write it (off the ledger lock).
                    drop(ledger);
                    self.inner.flush_wire(pkt.src);
                    continue;
                }
                flow.space.wait_for(&mut ledger, Duration::from_micros(200));
            }
            // Off-lock: keep our own receive side moving while we stall.
            while let Some(raw) = self.inner.try_recv(pkt.src) {
                self.absorb(layer, pkt.src, raw);
            }
            // The acks absorbing those sent are corked, and this thread sleeps next.
            self.inner.flush_wire(pkt.src);
            if sh.error.lock().is_some() {
                // A dead pair cannot return credit; let the failure
                // machinery see the traffic instead of wedging here.
                flow.ledger.lock().consume(key, bytes);
                flow.wait_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Receive for `pe`, blocking up to `timeout`: returns the next
    /// application packet (in per-pair sequence order for cross-WAN
    /// traffic), or `None` on timeout/shutdown.
    pub fn recv_timeout(&self, pe: Pe, timeout: Duration) -> Option<Packet> {
        let Some(layer) = &self.layer else {
            return self.inner.recv_timeout(pe, timeout);
        };
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(p) = layer.recv[pe.index()].lock().ready.pop_front() {
                return Some(p);
            }
            let now = Instant::now();
            let remaining = deadline.checked_duration_since(now).unwrap_or(Duration::ZERO);
            let pkt = self.inner.recv_timeout(pe, remaining)?;
            self.absorb(layer, pe, pkt);
        }
    }

    /// Non-blocking receive for `pe`.
    pub fn try_recv(&self, pe: Pe) -> Option<Packet> {
        let Some(layer) = &self.layer else {
            return self.inner.try_recv(pe);
        };
        loop {
            if let Some(p) = layer.recv[pe.index()].lock().ready.pop_front() {
                return Some(p);
            }
            let pkt = self.inner.try_recv(pe)?;
            self.absorb(layer, pe, pkt);
        }
    }

    /// Process one raw packet for `pe`: passthrough intra traffic to the
    /// ready queue, fold frames into the pair state.
    fn absorb(&self, layer: &Layer, pe: Pe, pkt: Packet) {
        if !self.inner.topology().crosses_wan(pkt.src, pkt.dst) {
            layer.recv[pe.index()].lock().ready.push_back(pkt);
            return;
        }
        let sh = &layer.shared;
        match decode_frame(&pkt.payload) {
            Some((KIND_ACK, cum, ext)) => {
                // Ack from pkt.src for data this PE sent to pkt.src.
                // A malformed extension is ignored: the cumulative ack
                // still counts.
                let key = (pe.0, pkt.src.0);
                let AckExt { held, grant } = decode_ack_ext(ext).unwrap_or_default();
                let release = sh.send.lock().get_mut(&key).map_or(0, |pair| {
                    let counted = pair.on_ack(cum, held).filter(|p| p.priority != SHED_EXEMPT_PRIORITY);
                    counted.map(|p| (p.payload.len() - HEADER_LEN) as u64).sum()
                });
                if let Some(flow) = &sh.flow {
                    flow.on_ack(key, release, grant);
                }
            }
            Some((KIND_DATA, seq, _body)) => {
                let receipt = {
                    let mut side = layer.recv[pe.index()].lock();
                    let RecvSide { pairs, ready } = &mut *side;
                    // Zero-copy: the application payload is a sub-view of
                    // the received frame allocation.
                    let app = Packet::with_priority(pkt.src, pkt.dst, pkt.priority, pkt.payload.slice(HEADER_LEN..));
                    let receipt = pairs.entry(pkt.src.0).or_default().on_frame(seq, app, ready);
                    if receipt.duplicate {
                        sh.dup_dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    receipt
                };
                // Every data frame is acked, a duplicate too: its sender's
                // ack may have been lost.  With flow control active the ack
                // carries the pair's credit grant — no extra frames.
                let grant = sh.flow.as_ref().map(|flow| flow.grant_for(pe));
                let payload = encode_ack(receipt.cum, receipt.held, grant);
                self.inner.send(Packet::with_priority(pe, pkt.src, ACK_PRIORITY, payload));
            }
            // Mangled beyond recognition — equivalent to a loss; the
            // sender's retransmission recovers it.
            _ => {}
        }
    }

    /// First retry-exhaustion error, if any occurred.
    pub fn error(&self) -> Option<TransportError> {
        self.layer.as_ref().and_then(|l| *l.shared.error.lock())
    }

    /// Retransmissions performed so far.
    pub fn retransmits(&self) -> u64 {
        self.layer.as_ref().map_or(0, |l| l.shared.retransmits.load(Ordering::Relaxed))
    }

    /// Wire-level duplicates discarded by receiver-side dedup so far.
    pub fn dup_dropped(&self) -> u64 {
        self.layer.as_ref().map_or(0, |l| l.shared.dup_dropped.load(Ordering::Relaxed))
    }

    fn flow(&self) -> Option<&FlowCtl> {
        self.layer.as_ref().and_then(|l| l.shared.flow.as_ref())
    }

    /// The flow-control policy this layer runs, if any — what the
    /// aggregation layer above it sheds and advertises by.
    pub fn flow_config(&self) -> Option<FlowConfig> {
        self.flow().map(|f| f.cfg)
    }

    /// Payload bytes the pair may still put in flight (`u64::MAX` without
    /// flow control).  The aggregation layer's `Shed` policy consults this
    /// before accepting an envelope.
    pub fn credit_available(&self, src: Pe, dst: Pe) -> u64 {
        self.flow().map_or(u64::MAX, |f| f.ledger.lock().available((src.0, dst.0)))
    }

    /// Advertise `pe`'s receive-side headroom (payload bytes) — carried as
    /// the grant on `pe`'s future acks.  Called by the aggregation layer
    /// whenever its delivery-mailbox occupancy changes.
    pub fn set_advertised_window(&self, pe: Pe, bytes: u64) {
        if let Some(flow) = self.flow() {
            flow.advertised[pe.index()].store(bytes, Ordering::Relaxed);
            if bytes > 0 {
                flow.space.notify_all();
            }
        }
    }

    /// Times a sender found its window exhausted and had to stall.
    pub fn credit_stalls(&self) -> u64 {
        self.flow().map_or(0, |f| f.stalls.load(Ordering::Relaxed))
    }

    /// Nanoseconds senders spent blocked waiting for credit.
    pub fn credit_wait_ns(&self) -> u64 {
        self.flow().map_or(0, |f| f.wait_ns.load(Ordering::Relaxed))
    }

    /// Stop the retransmit timer (idempotent), waking it from its tick at
    /// once.  Call before shutting down the underlying transport.
    pub fn shutdown(&self) {
        if let Some(layer) = &self.layer {
            layer.shared.stop.store(true, Ordering::Release);
            if let Some(h) = layer.timer.lock().take() {
                h.thread().unpark();
                let _ = h.join();
            }
        }
    }
}

impl Drop for ReliableTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    fn now(&self) -> Time {
        Time::ZERO + Dur::from_std(self.epoch.elapsed())
    }
}

fn spawn_retransmit_timer(shared: Arc<Shared>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("mdo-retransmit".into())
        .spawn(move || {
            let tick = (shared.plan.rto.to_std() / 4).max(Duration::from_millis(1));
            loop {
                // `shutdown` unparks: it never waits out a tick.  An early
                // wake-up only makes a pass that finds fewer frames due.
                std::thread::park_timeout(tick);
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                let now = shared.now();
                let mut resend = Vec::new();
                for pair in shared.send.lock().values_mut() {
                    if let Some(err) = pair.on_timer(now, &shared.plan, |_, n, pkt, _| resend.push((pkt.clone(), n))) {
                        shared.error.lock().get_or_insert(err);
                    }
                }
                shared.retransmits.fetch_add(resend.len() as u64, Ordering::Relaxed);
                // Send outside the lock: the fault wire and mailboxes
                // take their own locks downstream.
                for (pkt, n) in resend {
                    shared.inner.transmit(pkt, n);
                }
            }
        })
        .expect("spawn retransmit timer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportConfig;
    use mdo_netsim::{Dur, LatencyMatrix, Topology};

    fn rig(plan: FaultPlan, cross_ms: u64) -> Arc<ReliableTransport> {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(cross_ms));
        let mut cfg = TransportConfig::new(topo, latency);
        cfg.fault = Some(plan.clone());
        ReliableTransport::with_plan(Transport::new(cfg), plan)
    }

    /// One rule sizes an ack, for every layout `encode_ack` writes: none,
    /// the held frame (8 bytes) and the held frame with a grant (16).
    #[test]
    fn ack_len_is_the_encoded_length_for_every_layout() {
        for (held, grant) in [(None, None), (Some(9), None), (None, Some(4096)), (Some(9), Some(4096))] {
            let ack = encode_ack(7, held, grant);
            assert_eq!(ack_len(held.is_some(), grant.is_some()), ack.len(), "held {held:?} grant {grant:?}");
        }
        assert_eq!([ack_len(false, false), ack_len(true, false), ack_len(false, true)], [HEADER_LEN, 17, 25]);
    }

    /// `shutdown` wakes the retransmit timer rather than waiting out its
    /// tick (a quarter of the rto: 15 s here).
    #[test]
    fn shutdown_returns_at_once_under_a_long_rto() {
        let rt = rig(FaultPlan::default().with_rto(Dur::from_secs(60)), 0);
        std::thread::sleep(Duration::from_millis(50)); // the timer is in its tick
        let start = Instant::now();
        rt.shutdown();
        assert!(start.elapsed() < Duration::from_secs(1), "shutdown took {:?}", start.elapsed());
    }

    #[test]
    fn frame_codec_roundtrip() {
        let data = encode_data(42, b"hello");
        assert_eq!(decode_frame(&data), Some((KIND_DATA, 42, &b"hello"[..])));
        let ack = encode_ack(7, None, None);
        assert_eq!(decode_frame(&ack), Some((KIND_ACK, 7, &b""[..])));
        assert_eq!(decode_frame(b"xx"), None);
        assert_eq!(decode_frame(&[0x00; 16]), None);
    }

    fn rig_flow(flow: FlowConfig) -> Arc<ReliableTransport> {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let cfg = TransportConfig::new(topo, latency);
        let plan = FaultPlan::default().with_rto(Dur::from_millis(200));
        ReliableTransport::with_flow(Transport::new(cfg), plan, flow)
    }

    #[test]
    fn credit_codec_roundtrip_and_hostile_lengths() {
        // Three layouts: nothing, the held frame alone, and under flow
        // control always the held frame (or its "none") and the grant.
        for (held, grant, len) in
            [(None, None, 0), (Some(200), None, 8), (None, Some(4096), 16), (Some(u64::MAX), Some(1), 16)]
        {
            let frame = encode_ack(99, held, grant);
            let (kind, cum, ext) = decode_frame(&frame).expect("extended acks still parse as ack frames");
            assert_eq!((kind, cum, ext.len()), (KIND_ACK, 99, len));
            assert_eq!(decode_ack_ext(ext), Ok(AckExt { held, grant }));
        }
        // 12 and 20 were the layouts of a grant that named a generation.
        for len in [1usize, 5, 7, 9, 11, 12, 13, 15, 17, 19, 20, 21, 24, 64] {
            let err = decode_ack_ext(&vec![0u8; len]).expect_err("bad length rejected");
            assert!(err.to_string().contains("length"), "structured error for length {len}");
        }
    }

    #[test]
    fn apply_grant_clamps_overflow() {
        let mut st = CreditState::fresh(1000);
        st.in_flight = 400;
        apply_grant(&mut st, u64::MAX, 1000);
        assert_eq!(st.granted, 1000, "overflowing grant clamped to the configured window");
        apply_grant(&mut st, 100, 1000);
        assert_eq!(st.available(1000), 0, "window shrunk below in-flight saturates, never negative");
    }

    #[test]
    fn window_accounting_reserves_and_releases() {
        let rt = rig_flow(FlowConfig::default().with_credit_bytes(64));
        assert_eq!(rt.credit_available(Pe(0), Pe(1)), 64);
        rt.send(Packet::new(Pe(0), Pe(1), Bytes::from(vec![0u8; 32])));
        rt.send(Packet::new(Pe(0), Pe(1), Bytes::from(vec![0u8; 32])));
        assert_eq!(rt.credit_available(Pe(0), Pe(1)), 0, "both frames counted against the window");
        for _ in 0..2 {
            rt.recv_timeout(Pe(1), Duration::from_secs(5)).expect("delivered");
        }
        // The receiver's acks land in PE 0's inbox; credit returns when
        // PE 0's receive path absorbs them.
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.credit_available(Pe(0), Pe(1)) < 64 && Instant::now() < deadline {
            let _ = rt.try_recv(Pe(0));
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(rt.credit_available(Pe(0), Pe(1)), 64, "acks returned the credit");
        rt.shutdown();
        rt.inner().shutdown();
    }

    #[test]
    fn exempt_traffic_bypasses_the_window() {
        let rt = rig_flow(FlowConfig::default().with_credit_bytes(16));
        for _ in 0..8 {
            rt.send(Packet::with_priority(Pe(0), Pe(1), SHED_EXEMPT_PRIORITY, Bytes::from(vec![0u8; 64])));
        }
        assert_eq!(rt.credit_available(Pe(0), Pe(1)), 16, "control traffic consumed no credit");
        assert_eq!(rt.credit_stalls(), 0, "and never stalled despite dwarfing the window");
        rt.shutdown();
        rt.inner().shutdown();
    }

    #[test]
    fn block_policy_stalls_sender_until_receiver_drains() {
        let rt = rig_flow(FlowConfig::default().with_credit_bytes(64));
        let n = 24u64;
        let sender = {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                for i in 0..n {
                    // 32-byte payloads against a 64-byte window: at most two
                    // in flight, so the sender must stall repeatedly.
                    rt.send(Packet::new(Pe(0), Pe(1), Bytes::from(i.to_le_bytes().repeat(4))));
                }
            })
        };
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while (got.len() as u64) < n && Instant::now() < deadline {
            if let Some(p) = rt.recv_timeout(Pe(1), Duration::from_millis(20)) {
                got.push(u64::from_le_bytes(p.payload[..8].try_into().unwrap()));
            }
        }
        sender.join().unwrap();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "Block policy is lossless and ordered");
        assert!(rt.credit_stalls() > 0, "the tiny window forced stalls");
        assert!(rt.credit_wait_ns() > 0, "stall time was accounted");
        assert!(rt.error().is_none());
        rt.shutdown();
        rt.inner().shutdown();
    }

    #[test]
    fn mutually_saturated_pairs_do_not_deadlock() {
        // Both directions saturate a 64-byte window at once.  A naive
        // blocking sender would deadlock: each side stalls before it can
        // absorb the acks that would free the other.  The stall loop keeps
        // draining the sender's own inbox, so the pairs unblock each other.
        let rt = rig_flow(FlowConfig::default().with_credit_bytes(64));
        let n = 12u64;
        let spawn_sender = |src: Pe, dst: Pe| {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                for i in 0..n {
                    rt.send(Packet::new(src, dst, Bytes::from(i.to_le_bytes().repeat(6))));
                }
            })
        };
        let a = spawn_sender(Pe(0), Pe(1));
        let b = spawn_sender(Pe(1), Pe(0));
        let start = Instant::now();
        let (mut got0, mut got1) = (0u64, 0u64);
        while (got0 < n || got1 < n) && start.elapsed() < Duration::from_secs(30) {
            if got1 < n && rt.recv_timeout(Pe(1), Duration::from_millis(5)).is_some() {
                got1 += 1;
            }
            if got0 < n && rt.recv_timeout(Pe(0), Duration::from_millis(5)).is_some() {
                got0 += 1;
            }
        }
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!((got0, got1), (n, n), "both directions drained under mutual saturation");
        rt.shutdown();
        rt.inner().shutdown();
    }

    #[test]
    fn lossy_channel_delivers_everything_in_order() {
        let plan =
            FaultPlan::loss(0.3).with_duplicate(0.1).with_reorder(0.1).with_seed(99).with_rto(Dur::from_millis(8));
        let rt = rig(plan, 1);
        let n = 60u64;
        for i in 0..n {
            rt.send(Packet::new(Pe(0), Pe(1), Bytes::from(i.to_le_bytes().to_vec())));
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        while (got.len() as u64) < n && Instant::now() < deadline {
            if let Some(p) = rt.recv_timeout(Pe(1), Duration::from_millis(50)) {
                got.push(u64::from_le_bytes(p.payload[..8].try_into().unwrap()));
            }
        }
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "every message exactly once, in order");
        assert!(rt.retransmits() > 0, "losses forced retransmissions");
        assert!(rt.error().is_none());
        rt.shutdown();
        rt.inner().shutdown();
    }

    #[test]
    fn total_loss_surfaces_structured_error() {
        let plan = FaultPlan::loss(1.0).with_rto(Dur::from_millis(2)).with_max_retries(3);
        let rt = rig(plan, 0);
        rt.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"doomed")));
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.error().is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let err = rt.error().expect("retry ceiling produces a structured error");
        assert_eq!((err.src, err.dst, err.seq, err.attempts), (Pe(0), Pe(1), 0, 4));
        assert!(err.to_string().contains("gave up"));
        rt.shutdown();
        rt.inner().shutdown();
    }

    #[test]
    fn passthrough_is_transparent() {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let rt = ReliableTransport::passthrough(Transport::new(TransportConfig::new(topo, latency)));
        rt.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"raw")));
        let got = rt.recv_timeout(Pe(1), Duration::from_secs(1)).expect("delivered");
        assert_eq!(&got.payload[..], b"raw", "no framing in passthrough mode");
        assert_eq!(rt.retransmits(), 0);
        rt.inner().shutdown();
    }

    #[test]
    fn intra_cluster_traffic_is_never_framed() {
        let plan = FaultPlan::loss(0.9);
        let rt = rig(plan, 0);
        // Pe(0) -> Pe(0) is same-cluster in two_cluster(2)? No: clusters
        // are {0} and {1}, so use a 4-PE topology for an intra pair.
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let plan2 = FaultPlan::loss(1.0);
        let mut cfg = TransportConfig::new(topo, latency);
        cfg.fault = Some(plan2.clone());
        let rt2 = ReliableTransport::with_plan(Transport::new(cfg), plan2);
        rt2.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"local")));
        let got = rt2.recv_timeout(Pe(1), Duration::from_secs(1)).expect("intra unaffected by loss");
        assert_eq!(&got.payload[..], b"local");
        rt2.shutdown();
        rt2.inner().shutdown();
        rt.shutdown();
        rt.inner().shutdown();
    }
}
