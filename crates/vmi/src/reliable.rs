//! Reliable delivery over an unreliable cross-cluster chain.
//!
//! When a run injects faults (see [`crate::devices::fault::FaultDevice`]),
//! cross-WAN packets are wrapped in small framed messages carrying a
//! per-(src, dst) sequence number.  [`ReliableTransport`] layers on top of
//! the raw [`Transport`]:
//!
//! * **sender** — assigns sequence numbers, keeps unacknowledged frames in
//!   a retransmit queue, and a background timer resends them with
//!   exponential backoff until a cumulative ack arrives or the retry
//!   ceiling is hit (then a structured
//!   [`TransportError`] is surfaced — never a
//!   panic);
//! * **receiver** — acknowledges every data frame with the pair's
//!   cumulative ack (so lost acks are repaired by any later ack),
//!   discards duplicates, buffers out-of-order arrivals and releases them
//!   in sequence order.
//!
//! Intra-cluster packets bypass the layer entirely — both sides consult
//! the topology, exactly like the transport's own affiliation routing.
//! Acks are control traffic: the fault device spares them (and draws
//! nothing for them), so recovery is driven purely by data-frame loss.
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
//! the receiver already sends (a [`CreditGrant`] extension carrying the
//! pair generation and the receiver's advertised headroom), so flow control
//! costs zero extra frames.  A sender that exhausts its window either
//! stalls (`Block` — while stalled it keeps draining its own inbox, so two
//! mutually-saturated peers still exchange the acks that unblock them) or
//! admits over the window (`Shed` — the shedding itself happens at
//! envelope granularity one layer up, in
//! [`Aggregator::send_with`](crate::aggregate::Aggregator::send_with),
//! never here, so a frame is never torn).  Control
//! traffic at [`SHED_EXEMPT_PRIORITY`]
//! neither consumes credit nor waits for it.  [`ReliableTransport::reset_peer`]
//! bumps the pair generation and re-arms a fresh window, so grants from a
//! previous life of a crashed/rejoined PE are recognizably stale.
//!
//! Only framed application data ever comes out of [`ReliableTransport`]'s
//! receive calls; acks, duplicates and retransmissions are absorbed here.
//! Anything above this layer — the engine's scheduler, quiescence
//! detection — therefore counts application-level deliveries only, by
//! construction.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mdo_netsim::{Dur, FaultPlan, FlowConfig, Pe, SplitMix64, TransportError};
use parking_lot::{Condvar, Mutex};

pub use crate::credit::{apply_grant, CreditGrant, CreditLedger, CreditState, GrantOutcome};
use crate::mailbox::SHED_EXEMPT_PRIORITY;
use crate::packet::Packet;
use crate::transport::Transport;

/// Frame tag for application data (`[tag, seq: u64 LE, payload…]`).
pub const KIND_DATA: u8 = 0xD7;
/// Frame tag for a standalone cumulative ack (`[tag, cum: u64 LE]`).
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

/// Build a standalone cumulative-ack frame ("every seq below `cum` has
/// been received").
pub fn encode_ack(cum: u64) -> Bytes {
    let mut v = Vec::with_capacity(HEADER_LEN);
    v.push(KIND_ACK);
    v.extend_from_slice(&cum.to_le_bytes());
    Bytes::from(v)
}

/// Bytes of the credit-grant extension an ack may carry after its header:
/// `[gen: u32 LE, grant: u64 LE]`.
pub const CREDIT_EXT_LEN: usize = 4 + 8;

/// A malformed credit extension (wrong length).  Hostile or corrupted
/// grants become this structured error, never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditError {
    /// What was wrong with the extension.
    pub context: &'static str,
}

impl std::fmt::Display for CreditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed credit grant: {}", self.context)
    }
}

impl std::error::Error for CreditError {}

/// Build an ack frame carrying a credit grant.
pub fn encode_ack_credit(cum: u64, grant: CreditGrant) -> Bytes {
    let mut v = Vec::with_capacity(HEADER_LEN + CREDIT_EXT_LEN);
    v.push(KIND_ACK);
    v.extend_from_slice(&cum.to_le_bytes());
    v.extend_from_slice(&grant.gen.to_le_bytes());
    v.extend_from_slice(&grant.grant.to_le_bytes());
    Bytes::from(v)
}

/// Parse the extension bytes of an ack frame (everything after the
/// 9-byte header).  Empty means a plain ack with no grant; exactly
/// [`CREDIT_EXT_LEN`] bytes is a grant; anything else is a structured
/// [`CreditError`].
pub fn decode_credit_ext(ext: &[u8]) -> Result<Option<CreditGrant>, CreditError> {
    if ext.is_empty() {
        return Ok(None);
    }
    if ext.len() != CREDIT_EXT_LEN {
        return Err(CreditError { context: "credit extension length" });
    }
    let gen = u32::from_le_bytes(ext[..4].try_into().expect("4-byte field"));
    let grant = u64::from_le_bytes(ext[4..].try_into().expect("8-byte field"));
    Ok(Some(CreditGrant { gen, grant }))
}

/// Parse a frame: `(kind, seq-or-cum, payload)`.  `None` for anything too
/// short or with an unknown tag (a mangled frame that slipped past the
/// checksum is treated as loss).
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

/// True if `payload` starts like a control (ack) frame — used by the fault
/// device to spare control traffic.
pub fn is_control_frame(payload: &[u8]) -> bool {
    payload.first() == Some(&KIND_ACK)
}

/// Deterministic retransmission backoff with per-pair jitter.
///
/// Attempt `retries` on pair `(src, dst)` waits its exponential base
/// stretched by up to +25 %, where the extra fraction is
/// [`SplitMix64`]-hashed from `(seed, src, dst, retries)`.  Without the
/// jitter, pairs that lose packets on the same tick retransmit in lockstep
/// forever — synchronized WAN bursts hitting the same congested link; with
/// it their schedules decorrelate while staying bit-reproducible for a
/// given fault-plan seed.
pub fn jittered_backoff(base: Dur, seed: u64, src: Pe, dst: Pe, retries: u32) -> Dur {
    let key = seed ^ (u64::from(src.0) << 40) ^ (u64::from(dst.0) << 20) ^ u64::from(retries);
    let frac = (SplitMix64::new(key).next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let extra = (base.as_nanos() as f64 * 0.25 * frac) as u64;
    Dur::from_nanos(base.as_nanos().saturating_add(extra))
}

/// An unacknowledged data frame awaiting an ack or its next retransmission.
struct Pending {
    pkt: Packet,
    deadline: Instant,
    retries: u32,
    /// True if this frame reserved credit that must be released on ack.
    counted: bool,
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
    /// Grants rejected as malformed, stale, or for an unknown pair.
    rejected_grants: AtomicU64,
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
            rejected_grants: AtomicU64::new(0),
            max_wait: Duration::from_secs(1),
        }
    }

    /// The grant to put on an ack for traffic flowing `sender -> receiver`.
    fn grant_for(&self, sender: u32, receiver: Pe) -> CreditGrant {
        let headroom = self.advertised[receiver.index()].load(Ordering::Relaxed);
        let gen = self.ledger.lock().state((sender, receiver.0)).map_or(0, |s| s.gen);
        CreditGrant { gen, grant: self.cfg.credit_bytes.min(headroom) }
    }

    /// Fold an arriving ack into the pair's balance: release the acked
    /// bytes, then apply any riding grant.  Hostile grants (malformed,
    /// stale generation, unknown pair) are counted and ignored.
    fn on_ack(&self, key: (u32, u32), release: u64, ext: &[u8]) {
        let grant = match decode_credit_ext(ext) {
            Ok(g) => g,
            Err(_) => {
                self.rejected_grants.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        {
            let mut ledger = self.ledger.lock();
            ledger.release(key, release);
            // Stale generation, or a pair we never sent on.
            if grant.is_some_and(|g| ledger.grant(key, g) != Some(GrantOutcome::Applied)) {
                self.rejected_grants.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.space.notify_all();
    }
}

/// Sender-side state of one ordered (src, dst) pair.
#[derive(Default)]
struct SendPair {
    next_seq: u64,
    pending: BTreeMap<u64, Pending>,
}

/// Receiver-side state of one incoming pair (keyed by source PE).
struct RecvPair {
    expected: u64,
    buffer: BTreeMap<u64, Packet>,
    /// Acks swallowed so far by the test-only `ack_holdback` interleaving
    /// hook (races retransmissions against late acks).
    acks_held: u32,
}

/// Receiver-side state of one destination PE (touched only by that PE's
/// thread, but locked for uniformity with the drain path).
#[derive(Default)]
struct RecvSide {
    pairs: HashMap<u32, RecvPair>,
    ready: VecDeque<Packet>,
}

/// Everything the retransmit timer shares with the front object.
struct Shared {
    inner: Arc<Transport>,
    plan: FaultPlan,
    send: Mutex<HashMap<(u32, u32), SendPair>>,
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
        let counted = self.reserve_credit(layer, &pkt);
        let framed = {
            let mut send = sh.send.lock();
            let pair = send.entry((pkt.src.0, pkt.dst.0)).or_default();
            let seq = pair.next_seq;
            pair.next_seq += 1;
            let framed = Packet::with_priority(pkt.src, pkt.dst, pkt.priority, encode_data(seq, &pkt.payload));
            pair.pending.insert(
                seq,
                Pending { pkt: framed.clone(), deadline: Instant::now() + sh.plan.rto.to_std(), retries: 0, counted },
            );
            framed
        };
        self.inner.send(framed);
    }

    /// Reserve `pkt`'s payload bytes against the pair's credit window.
    /// Returns true if credit was consumed (and must be released on ack).
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
    fn reserve_credit(&self, layer: &Layer, pkt: &Packet) -> bool {
        let sh = &layer.shared;
        let Some(flow) = &sh.flow else { return false };
        if pkt.priority == SHED_EXEMPT_PRIORITY {
            return false;
        }
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
                    return true;
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
                return true;
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
                let mut release = 0u64;
                {
                    let mut send = sh.send.lock();
                    if let Some(pair) = send.get_mut(&(pe.0, pkt.src.0)) {
                        let kept = pair.pending.split_off(&cum);
                        for p in pair.pending.values() {
                            if p.counted {
                                release += p.pkt.payload.len().saturating_sub(HEADER_LEN) as u64;
                            }
                        }
                        pair.pending = kept;
                    }
                }
                if let Some(flow) = &sh.flow {
                    flow.on_ack((pe.0, pkt.src.0), release, ext);
                }
            }
            Some((KIND_DATA, seq, _body)) => {
                let ack = {
                    let mut side = layer.recv[pe.index()].lock();
                    let pair = side.pairs.entry(pkt.src.0).or_insert_with(|| RecvPair {
                        expected: 0,
                        buffer: BTreeMap::new(),
                        acks_held: 0,
                    });
                    if seq < pair.expected || pair.buffer.contains_key(&seq) {
                        let cum_now = pair.expected;
                        sh.dup_dropped.fetch_add(1, Ordering::Relaxed);
                        if sh.plan.mutate_no_dedup {
                            // Test-only mutation: dedup broken — the
                            // duplicate leaks straight to the application,
                            // bypassing in-order release.  The `mdo-check`
                            // invariant layer must catch this.
                            let app =
                                Packet::with_priority(pkt.src, pkt.dst, pkt.priority, pkt.payload.slice(HEADER_LEN..));
                            side.ready.push_back(app);
                        }
                        // Duplicate: re-ack so a sender whose acks were
                        // lost stops retransmitting.
                        Some(cum_now)
                    } else {
                        // Zero-copy: the application payload is a sub-view
                        // of the received frame allocation.
                        let app =
                            Packet::with_priority(pkt.src, pkt.dst, pkt.priority, pkt.payload.slice(HEADER_LEN..));
                        pair.buffer.insert(seq, app);
                        let mut released = Vec::new();
                        while let Some(p) = pair.buffer.remove(&pair.expected) {
                            released.push(p);
                            pair.expected += 1;
                        }
                        let cum_now = pair.expected;
                        // Interleaving hook: swallow the first N acks so the
                        // sender retransmits and the dedup/repair paths run
                        // under a genuine ack/retransmit race.
                        let ack = if pair.acks_held < sh.plan.ack_holdback {
                            pair.acks_held += 1;
                            None
                        } else {
                            Some(cum_now)
                        };
                        side.ready.extend(released);
                        ack
                    }
                };
                if let Some(cum) = ack {
                    // With flow control active the ack carries the pair's
                    // credit grant — flow control costs no extra frames.
                    let payload = match &sh.flow {
                        Some(flow) => encode_ack_credit(cum, flow.grant_for(pkt.src.0, pe)),
                        None => encode_ack(cum),
                    };
                    self.inner.send(Packet::with_priority(pe, pkt.src, ACK_PRIORITY, payload));
                }
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

    /// True if credit-based flow control is active.
    pub fn flow_active(&self) -> bool {
        self.flow().is_some()
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

    /// Snapshot of the pair's sender-side credit balance, if flow control
    /// is active and the pair has sent.
    pub fn credit_state(&self, src: Pe, dst: Pe) -> Option<CreditState> {
        self.flow().and_then(|f| f.ledger.lock().state((src.0, dst.0)))
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

    /// Credit grants rejected as malformed, stale, or for an unknown pair.
    pub fn rejected_grants(&self) -> u64 {
        self.flow().map_or(0, |f| f.rejected_grants.load(Ordering::Relaxed))
    }

    /// Forget all per-pair sequence state involving `pe`: its send pairs
    /// (either direction), its entire receive side, and every other PE's
    /// receive pair keyed by it.  Called when a crashed PE re-enters the
    /// cluster — the rejoined process restarts its sequence numbers at
    /// zero, so stale expected/pending state from its previous life would
    /// otherwise misclassify its first frames as duplicates (or hold them
    /// in the reorder buffer forever).  Passthrough mode has no state and
    /// the call is a no-op.
    pub fn reset_peer(&self, pe: Pe) {
        let Some(layer) = &self.layer else { return };
        {
            let mut send = layer.shared.send.lock();
            send.retain(|&(src, dst), _| src != pe.0 && dst != pe.0);
        }
        if let Some(flow) = &layer.shared.flow {
            // Credits reset with the sequence state.
            flow.ledger.lock().reset_peer(pe.0);
            flow.advertised[pe.index()].store(u64::MAX, Ordering::Relaxed);
            flow.space.notify_all();
        }
        for (i, side) in layer.recv.iter().enumerate() {
            let mut side = side.lock();
            if i == pe.index() {
                // The rejoined PE's own inbox: drop buffered frames and all
                // pair cursors (undelivered traffic is recovered from the
                // checkpoint, not the wire).
                *side = RecvSide::default();
            } else {
                side.pairs.remove(&pe.0);
            }
        }
    }

    /// Stop the retransmit timer (idempotent).  Call before shutting down
    /// the underlying transport.
    pub fn shutdown(&self) {
        if let Some(layer) = &self.layer {
            layer.shared.stop.store(true, Ordering::Release);
            if let Some(h) = layer.timer.lock().take() {
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

fn spawn_retransmit_timer(shared: Arc<Shared>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("mdo-retransmit".into())
        .spawn(move || {
            let tick = (shared.plan.rto.to_std() / 4).max(Duration::from_millis(1));
            while !shared.stop.load(Ordering::Acquire) {
                std::thread::sleep(tick);
                let now = Instant::now();
                let mut resend = Vec::new();
                {
                    let mut send = shared.send.lock();
                    for (&(src, dst), pair) in send.iter_mut() {
                        let mut exhausted = Vec::new();
                        for (&seq, p) in pair.pending.iter_mut() {
                            if p.deadline > now {
                                continue;
                            }
                            if p.retries >= shared.plan.max_retries {
                                let mut err = shared.error.lock();
                                if err.is_none() {
                                    *err = Some(TransportError {
                                        src: Pe(src),
                                        dst: Pe(dst),
                                        seq,
                                        attempts: p.retries + 1,
                                    });
                                }
                                exhausted.push(seq);
                            } else {
                                p.retries += 1;
                                // Exponential backoff: attempt i waits 2^i * rto,
                                // plus per-pair jitter so concurrent pairs do
                                // not retransmit in lockstep.
                                let base =
                                    shared.plan.rto.checked_mul(1u64 << p.retries.min(20)).unwrap_or(shared.plan.rto);
                                let backoff = jittered_backoff(base, shared.plan.seed, Pe(src), Pe(dst), p.retries);
                                p.deadline = now + backoff.to_std();
                                shared.retransmits.fetch_add(1, Ordering::Relaxed);
                                resend.push(p.pkt.clone());
                            }
                        }
                        for seq in exhausted {
                            pair.pending.remove(&seq);
                        }
                    }
                }
                // Send outside the lock: the delay device and mailboxes
                // take their own locks downstream.
                for pkt in resend {
                    shared.inner.send(pkt);
                }
            }
        })
        .expect("spawn retransmit timer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::crc::CrcDevice;
    use crate::devices::fault::FaultDevice;
    use crate::transport::TransportConfig;
    use mdo_netsim::{Dur, LatencyMatrix, Topology};

    fn rig(plan: FaultPlan, cross_ms: u64) -> Arc<ReliableTransport> {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(cross_ms));
        let mut cfg = TransportConfig::new(topo, latency);
        cfg.cross_extra = vec![CrcDevice::appender(), FaultDevice::for_reliable(plan.clone()), CrcDevice::verifier()];
        ReliableTransport::with_plan(Transport::new(cfg), plan)
    }

    #[test]
    fn frame_codec_roundtrip() {
        let data = encode_data(42, b"hello");
        assert_eq!(decode_frame(&data), Some((KIND_DATA, 42, &b"hello"[..])));
        let ack = encode_ack(7);
        assert_eq!(decode_frame(&ack), Some((KIND_ACK, 7, &b""[..])));
        assert!(is_control_frame(&ack));
        assert!(!is_control_frame(&data));
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
        let grant = CreditGrant { gen: 3, grant: 4096 };
        let frame = encode_ack_credit(99, grant);
        assert!(is_control_frame(&frame));
        let (kind, cum, ext) = decode_frame(&frame).expect("credit acks still parse as ack frames");
        assert_eq!((kind, cum), (KIND_ACK, 99));
        assert_eq!(decode_credit_ext(ext), Ok(Some(grant)));
        let plain = encode_ack(7);
        let (_, _, ext) = decode_frame(&plain).unwrap();
        assert_eq!(decode_credit_ext(ext), Ok(None), "plain acks carry no grant");
        for len in [1usize, 5, 11, 13, 64] {
            let err = decode_credit_ext(&vec![0u8; len]).expect_err("bad length rejected");
            assert!(err.to_string().contains("length"), "structured error for length {len}");
        }
    }

    #[test]
    fn apply_grant_rejects_stale_and_clamps_overflow() {
        let mut st = CreditState::fresh(1000);
        st.in_flight = 400;
        assert_eq!(apply_grant(&mut st, CreditGrant { gen: 1, grant: 5000 }, 1000), GrantOutcome::StaleGeneration);
        assert_eq!(st.granted, 1000, "stale-generation grant ignored");
        assert_eq!(apply_grant(&mut st, CreditGrant { gen: 0, grant: u64::MAX }, 1000), GrantOutcome::Applied);
        assert_eq!(st.granted, 1000, "overflowing grant clamped to the configured window");
        assert_eq!(apply_grant(&mut st, CreditGrant { gen: 0, grant: 100 }, 1000), GrantOutcome::Applied);
        assert_eq!(st.available(1000), 0, "window shrunk below in-flight saturates, never negative");
    }

    #[test]
    fn window_accounting_reserves_and_releases() {
        let rt = rig_flow(FlowConfig::default().with_credit_bytes(64));
        assert!(rt.flow_active());
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
    fn reset_peer_rearms_a_fresh_window() {
        let rt = rig_flow(FlowConfig::default().with_credit_bytes(64));
        rt.send(Packet::new(Pe(0), Pe(1), Bytes::from(vec![0u8; 64])));
        assert_eq!(rt.credit_available(Pe(0), Pe(1)), 0, "window fully reserved");
        let gen_before = rt.credit_state(Pe(0), Pe(1)).unwrap().gen;
        rt.reset_peer(Pe(1));
        let st = rt.credit_state(Pe(0), Pe(1)).unwrap();
        assert_eq!(st.gen, gen_before + 1, "generation bumped so old grants are stale");
        assert_eq!(st.in_flight, 0, "in-flight bytes that will never be acked are forgotten");
        assert_eq!(rt.credit_available(Pe(0), Pe(1)), 64, "the rejoined pair starts with a full window");
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
    fn ack_holdback_races_retransmits_but_stays_exactly_once() {
        // The receiver swallows the first acks, so the sender's timer
        // retransmits frames the receiver already handed to the
        // application — the ack/retransmit race.  Dedup must absorb every
        // raced duplicate: delivery stays exactly-once, in order.
        // Hold back more acks than there are messages: every first-copy ack
        // is swallowed, so recovery must come from the dup-triggered re-ack
        // after the retransmit timer fires — the full race, both sides.
        let plan = FaultPlan::default().with_rto(Dur::from_millis(5)).with_ack_holdback(64);
        let rt = rig(plan, 0);
        let n = 20u64;
        for i in 0..n {
            rt.send(Packet::new(Pe(0), Pe(1), Bytes::from(i.to_le_bytes().to_vec())));
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        // Keep polling past the n-th delivery: retransmitted duplicates are
        // only absorbed (and deduplicated) inside receive calls, and the
        // first ones arrive an RTO after the originals.
        while Instant::now() < deadline {
            if let Some(p) = rt.recv_timeout(Pe(1), Duration::from_millis(25)) {
                got.push(u64::from_le_bytes(p.payload[..8].try_into().unwrap()));
            } else if got.len() as u64 >= n && rt.dup_dropped() > 0 {
                break;
            }
        }
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "raced retransmits never reach the application");
        assert!(rt.retransmits() > 0, "held-back acks forced retransmissions");
        assert!(rt.dup_dropped() > 0, "the raced duplicates hit the dedup path");
        assert!(rt.error().is_none());
        rt.shutdown();
        rt.inner().shutdown();
    }

    #[test]
    fn broken_dedup_mutation_leaks_duplicates() {
        // Same race, but with the hidden no-dedup mutation armed: raced
        // duplicates leak to the application.  This is the defect the
        // mdo-check invariant layer exists to catch.
        let plan = FaultPlan::default().with_rto(Dur::from_millis(5)).with_ack_holdback(64).with_mutation_no_dedup();
        let rt = rig(plan, 0);
        let n = 8u64;
        for i in 0..n {
            rt.send(Packet::new(Pe(0), Pe(1), Bytes::from(i.to_le_bytes().to_vec())));
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match rt.recv_timeout(Pe(1), Duration::from_millis(40)) {
                Some(p) => got.push(u64::from_le_bytes(p.payload[..8].try_into().unwrap())),
                None if got.len() as u64 > n => break,
                None => {}
            }
        }
        assert!(got.len() as u64 > n, "broken dedup delivered duplicates ({} for {} sends)", got.len(), n);
        for i in 0..n {
            assert!(got.contains(&i), "original message {i} still delivered");
        }
        rt.shutdown();
        rt.inner().shutdown();
    }

    #[test]
    fn reset_peer_restarts_sequence_state() {
        // Deliver a few frames 0 -> 1, then pretend PE 1 crashed and came
        // back: after reset_peer(Pe(1)) the pair must accept a fresh
        // sequence starting at 0 instead of dropping it as a duplicate.
        let plan = FaultPlan::default().with_rto(Dur::from_millis(50));
        let rt = rig(plan, 0);
        for i in 0..3u64 {
            rt.send(Packet::new(Pe(0), Pe(1), Bytes::from(i.to_le_bytes().to_vec())));
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 3 && Instant::now() < deadline {
            if let Some(p) = rt.recv_timeout(Pe(1), Duration::from_millis(20)) {
                got.push(u64::from_le_bytes(p.payload[..8].try_into().unwrap()));
            }
        }
        assert_eq!(got, vec![0, 1, 2]);
        let dups_before = rt.dup_dropped();

        // The "restarted" PE 1 talks to a sender that also restarted its
        // numbering — exactly what a fresh generation does.
        rt.reset_peer(Pe(1));
        rt.send(Packet::new(Pe(0), Pe(1), Bytes::from(9u64.to_le_bytes().to_vec())));
        let p = rt.recv_timeout(Pe(1), Duration::from_secs(5)).expect("fresh seq 0 accepted after reset");
        assert_eq!(u64::from_le_bytes(p.payload[..8].try_into().unwrap()), 9);
        assert_eq!(rt.dup_dropped(), dups_before, "the restarted sequence was not misread as a duplicate");
        rt.shutdown();
        rt.inner().shutdown();
    }

    #[test]
    fn reset_peer_is_a_noop_in_passthrough() {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let rt = ReliableTransport::passthrough(Transport::new(TransportConfig::new(topo, latency)));
        rt.reset_peer(Pe(1));
        rt.send(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"still works")));
        let got = rt.recv_timeout(Pe(1), Duration::from_secs(1)).expect("delivered");
        assert_eq!(&got.payload[..], b"still works");
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
        cfg.cross_extra = vec![FaultDevice::for_reliable(plan2.clone())];
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
