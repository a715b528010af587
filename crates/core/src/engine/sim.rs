//! The virtual-time simulation engine.
//!
//! Reproduces the paper's §5.1 methodology: the whole multi-cluster job
//! runs inside one process against a [`NetworkModel`] whose latency matrix
//! plays the role of the VMI delay device, so cross-cluster latency can be
//! swept from 0 to hundreds of milliseconds in deterministic virtual time.
//!
//! Scheduling semantics (paper §4): each PE has a message queue; when idle
//! it dequeues the most urgent envelope and runs the handler **to
//! completion**, charging the handler's [`crate::chare::Ctx::charge`]d
//! compute cost to the PE's clock.  Everything the handler issues — a
//! send, broadcast, multicast, contribution or AtSync — departs at the
//! charge-offset at which it was issued and arrives after the network
//! model's latency — so a PE with other work in its queue
//! naturally overlaps that work with in-flight communication, which is the
//! entire effect under study.
//!
//! The WAN seam is `SimWan`: credit flow control, aggregation and, under
//! a fault plan, reliable delivery over a faulty wire, in virtual time.
//! Their rules are not modelled here — the simulator runs the wall-clock
//! stack's own [`CreditLedger`], [`PairFill`], [`FaultWire`] and
//! [`arq`](mdo_vmi::arq) machines, and adds only what is virtual time's:
//! where a deferred envelope waits, and the events that stand in for the
//! flusher thread's tick, the retransmit timer and a frame or ack in
//! flight.
//!
//! What only this engine reads is its own [`SimConfig`]: the run's limits
//! and the delivery-order seam ([`DeliverySpec`], with an optional
//! [`ScheduleSink`] recording every contested choice).  The wall-clock
//! engine has nothing to read there — its schedules come from real
//! thread interleaving.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use mdo_netsim::network::{DeliveryOracle, NetworkModel};
use mdo_netsim::{
    AggConfig, CrashTrigger, Dur, EventId, EventQueue, FailureCause, Fate, FaultWire, FlowConfig, Harm, Pe, Time,
    Topology, TransportError, UnrecoverableError,
};
use mdo_vmi::arq::{Receiver, Sender};
use mdo_vmi::credit::CreditLedger;
use mdo_vmi::flush::{FlushCause, PairFill};

use mdo_obs::{CounterSet, Ctr, ObjTag, PeRecorder};

use crate::checkpoint::FtPiece;
use crate::engine::policy::{DeliverySpec, ScheduleChoice, ScheduleSink};
use crate::envelope::{Envelope, MsgBody, SYSTEM_PRIORITY};
use crate::node::{Node, NodeHooks};
use crate::program::{Program, RunConfig, RunReport};
use crate::queue::SchedQueue;

use super::generation::{book_wire, Books, Change, HostRow, Membership, PeRow};

/// What only the simulation engine reads: its limits and its
/// delivery-order seam.
#[derive(Clone, Debug, Default)]
pub struct SimConfig {
    /// Abort the run if virtual time passes this point (None = unlimited).
    pub max_time: Option<Dur>,
    /// Abort after this many events (None = unlimited); a backstop against
    /// runaway programs.
    pub max_events: Option<u64>,
    /// Which delivery policy the scheduler seam runs: FIFO (the default,
    /// bit-identical to the historical engine), seeded-random or
    /// PCT-style exploration, or replay of a recorded schedule trace.
    pub delivery: DeliverySpec,
    /// When set, every contested scheduling decision (≥ 2 equal-priority
    /// envelopes queued) is recorded into this shared trace, which
    /// [`DeliverySpec::Replay`] can play back.  `None` (the default)
    /// records nothing.
    pub schedule_sink: Option<ScheduleSink>,
    /// Test-only mutation: every receiver machine of the fault plan's
    /// reliable protocol leaks duplicates (see
    /// [`Receiver::broken_dedup`]).
    #[doc(hidden)]
    pub mutate_no_dedup: bool,
}

/// The discrete-event engine.
pub struct SimEngine {
    net: NetworkModel,
    cfg: RunConfig,
    sim_cfg: SimConfig,
}

enum Event {
    Arrive(Envelope),
    PeDone(Pe),
    /// Deadline tick for one (src, dst) aggregation buffer — the virtual
    /// flusher thread.  `filling` names the filling that armed it, so a
    /// tick whose buffer flushed by size or urgency and refilled at the
    /// same instant does not ship the successor early.
    FlushAgg {
        src: Pe,
        dst: Pe,
        filling: u64,
    },
    /// `(src, dst, seq, frame)`: frame `seq` of the pair `src -> dst`
    /// reaches `dst`.
    Frame(Pe, Pe, u64, Frame),
    /// `(src, dst, cum, held)`: an ack of the pair reaches `src` — the
    /// cumulative ack and the frame it names past it, if any.
    Ack(Pe, Pe, u64, Option<u64>),
    /// `(src, dst, seq)`: the retransmit deadline of frame `seq` of the
    /// pair.
    Retransmit(Pe, Pe, u64),
}

/// What one sequence number of the reliable protocol carries: the
/// passengers, in send order, and the wire bytes.
#[derive(Clone)]
struct Frame {
    envs: Vec<Envelope>,
    bytes: u64,
}

/// One (src, dst) accumulation buffer: the passengers, and the flush
/// policy's view of them.
#[derive(Default)]
struct AggBuf {
    envs: Vec<Envelope>,
    fill: PairFill,
    /// Fillings opened so far (see [`Event::FlushAgg`]).
    filling: u64,
}

/// The simulator's transport: everything between a handler's `emit` and
/// the envelope's arrival — the credit gate, the aggregation buffers, the
/// network model and the reliable protocol over the fault wire — and the
/// counters it keeps on the way.
///
/// Flow control is receiver-paced: every cross-WAN app envelope consumes
/// window bytes when it departs and releases them when the destination PE
/// *dequeues* it — the role the advertised-headroom grants riding acks
/// play on the wire.  System traffic bypasses the window, as on the wire.
struct SimWan {
    net: NetworkModel,
    /// Under a fault plan, the one fault wire; it and the pairs' sender
    /// and receiver machines restart with each generation, as the wall
    /// clock rebuilds its stack.
    wire: Option<FaultWire<(u64, Frame)>>,
    /// When this generation's wire came up: link-down windows count from
    /// here.
    epoch: Time,
    senders: HashMap<(u32, u32), Sender<Frame>>,
    receivers: HashMap<(u32, u32), Receiver<Frame>>,
    /// Each pair's live retransmit timers, one per frame no ack has
    /// covered yet: the ack that retires a frame or names it held cancels
    /// its timer.
    timers: HashMap<(u32, u32), BTreeMap<u64, EventId>>,
    broken_dedup: bool,
    agg: Option<AggConfig>,
    bufs: HashMap<(u32, u32), AggBuf>,
    flow: Option<FlowConfig>,
    ledger: CreditLedger,
    /// Envelopes deferred under `Block`, per pair, with their intended
    /// departures.
    waiting: HashMap<(u32, u32), VecDeque<(Envelope, Time)>>,
    /// Bytes currently deferred across all pairs, plus the high-water
    /// mark: the sender-side buffer the report's peak-bytes figure must
    /// not hide.
    waiting_total: u64,
    max_waiting: u64,
    ctr: CounterSet,
}

impl SimWan {
    fn new(net: NetworkModel, cfg: &RunConfig, broken_dedup: bool) -> Self {
        SimWan {
            net,
            wire: cfg.fault_plan.clone().map(FaultWire::new),
            epoch: Time::ZERO,
            senders: HashMap::new(),
            receivers: HashMap::new(),
            timers: HashMap::new(),
            broken_dedup,
            agg: cfg.agg,
            bufs: HashMap::new(),
            flow: cfg.flow,
            ledger: CreditLedger::new(cfg.flow.map_or(0, |f| f.credit_bytes)),
            waiting: HashMap::new(),
            waiting_total: 0,
            max_waiting: 0,
            ctr: CounterSet::new(),
        }
    }

    /// The pair an envelope is credited to, if it takes part in flow
    /// control at all: cross-WAN application traffic with a window armed.
    fn credited(&self, env: &Envelope) -> Option<(u32, u32)> {
        let credited =
            self.flow.is_some() && env.priority != SYSTEM_PRIORITY && self.net.topology().crosses_wan(env.src, env.dst);
        credited.then_some((env.src.0, env.dst.0))
    }

    /// A handler emitted `env`, departing at `depart`.  Cross-WAN app
    /// traffic must fit the pair's window first: `false` means the `Shed`
    /// policy dropped it; under `Block` it may wait here instead of leaving
    /// now.
    fn emit(&mut self, env: Envelope, depart: Time, events: &mut EventQueue<Event>) -> bool {
        if let (Some(key), Some(flow)) = (self.credited(&env), self.flow) {
            let size = env.wire_size();
            // Later envelopes queue behind deferred ones: per-pair FIFO.
            let blocked = self.waiting.get(&key).is_some_and(|q| !q.is_empty()) || !self.ledger.admits(key, size);
            if blocked && flow.sheds() && env.aggregatable() {
                // Graceful overload degradation: drop the envelope, keep
                // the books straight.
                self.ctr.bump(Ctr::EnvelopesShed);
                self.ctr.add(Ctr::ShedBytes, size);
                return false;
            }
            if blocked && !flow.sheds() {
                self.ctr.bump(Ctr::CreditStalls);
                self.waiting_total += size;
                self.max_waiting = self.max_waiting.max(self.waiting_total);
                self.waiting.entry(key).or_default().push_back((env, depart));
                return true;
            }
            // Fits — or is urgent traffic under `Shed`, which overruns the
            // window rather than stall or vanish (never shed, as on the
            // wire).
            self.ledger.consume(key, size);
        }
        self.ship(env, depart, events);
        true
    }

    /// The destination PE dequeued `env`: its window bytes return, which
    /// may un-block deferred senders — their envelopes (FIFO, for as long
    /// as the freed window admits them) depart through the normal send
    /// path at this instant.
    fn delivered(&mut self, env: &Envelope, now: Time, events: &mut EventQueue<Event>) {
        let Some(key) = self.credited(env) else { return };
        self.ledger.release(key, env.wire_size());
        while let Some(size) = self.waiting.get(&key).and_then(|q| q.front()).map(|(front, _)| front.wire_size()) {
            if !self.ledger.admits(key, size) {
                break;
            }
            self.ledger.consume(key, size);
            self.waiting_total -= size;
            let (waited, enq) = self.waiting.get_mut(&key).and_then(VecDeque::pop_front).expect("front just checked");
            let at = now.max(enq);
            self.ctr.add(Ctr::CreditWaitNs, (at - enq).as_nanos());
            self.ship(waited, at, events);
        }
    }

    /// Route one departing envelope into virtual time: through the
    /// per-pair aggregation buffer on the coalesced cross-WAN path, as a
    /// frame of its own over a faulty WAN, directly into the network model
    /// otherwise.
    fn ship(&mut self, env: Envelope, depart: Time, events: &mut EventQueue<Event>) {
        let (src, dst) = (env.src, env.dst);
        let crosses = self.net.topology().crosses_wan(src, dst);
        if let Some(acfg) = self.agg.filter(|_| crosses) {
            let buf = self.bufs.entry((src.0, dst.0)).or_default();
            let push = buf.fill.push(&acfg, !env.aggregatable(), env.wire_size() as usize, || depart);
            if let Some(deadline) = push.arm {
                // A non-empty buffer always has a live tick pending, which
                // is what guarantees quiescence detection terminates.
                buf.filling += 1;
                events.schedule(deadline, Event::FlushAgg { src, dst, filling: buf.filling });
            }
            buf.envs.push(env);
            if let Some(cause) = push.flush {
                self.flush(src, dst, depart, cause, events);
            }
        } else if self.wire.is_some() && crosses {
            let bytes = env.wire_size();
            self.send_frame(src, dst, Frame { envs: vec![env], bytes }, depart, events);
        } else {
            let arrival = self.net.delivery_time(src, dst, depart, env.wire_size());
            events.schedule(arrival.max(depart), Event::Arrive(env));
        }
    }

    /// The deadline tick of one filling: ship the buffer unless that
    /// filling already went out by size or urgency.
    fn tick(&mut self, src: Pe, dst: Pe, filling: u64, now: Time, events: &mut EventQueue<Event>) {
        let due = |(acfg, buf): (AggConfig, &AggBuf)| buf.filling == filling && buf.fill.expired(&acfg, now);
        if self.agg.zip(self.bufs.get(&(src.0, dst.0))).is_some_and(due) {
            self.flush(src, dst, now, FlushCause::Deadline, events);
        }
    }

    /// Ship one buffered jumbo frame into virtual time: one delivery-time
    /// query — or, over a faulty WAN, one sequence number — covers the
    /// whole frame, and every passenger arrives together, in send order.
    fn flush(&mut self, src: Pe, dst: Pe, at: Time, cause: FlushCause, events: &mut EventQueue<Event>) {
        let Some(buf) = self.bufs.get_mut(&(src.0, dst.0)) else { return };
        let Some(tally) = buf.fill.take() else { return };
        let envs = std::mem::take(&mut buf.envs);
        self.ctr.bump(Ctr::FramesSent);
        self.ctr.add(Ctr::EnvelopesCoalesced, tally.envelopes);
        self.ctr.add(Ctr::FrameBytesSaved, tally.bytes_saved);
        match cause {
            FlushCause::Size => self.ctr.bump(Ctr::FlushBySize),
            FlushCause::Deadline => self.ctr.bump(Ctr::FlushByDeadline),
            FlushCause::Urgent | FlushCause::Final => {}
        }
        if self.wire.is_some() {
            return self.send_frame(src, dst, Frame { envs, bytes: tally.wire_bytes }, at, events);
        }
        let arrival = self.net.delivery_time(src, dst, at, tally.wire_bytes).max(at);
        for env in envs {
            events.schedule(arrival, Event::Arrive(env));
        }
    }

    /// Hand `frame` to the pair's sender machine and put its first copy
    /// on the wire.
    fn send_frame(&mut self, src: Pe, dst: Pe, frame: Frame, at: Time, events: &mut EventQueue<Event>) {
        let rto = self.wire.as_ref().expect("a fault plan is armed").plan().rto;
        let sender = self.senders.entry((src.0, dst.0)).or_insert_with(|| Sender::new(src, dst));
        let seq = sender.next_seq();
        let due = sender.send(frame.clone(), at, rto);
        self.arm(src, dst, seq, due, events);
        self.attempt(src, dst, (seq, 0), frame, at, events);
    }

    /// Arm frame `seq`'s retransmit timer at `due`, cancelling the one it
    /// replaces.
    fn arm(&mut self, src: Pe, dst: Pe, seq: u64, due: Time, events: &mut EventQueue<Event>) {
        let id = events.schedule(due, Event::Retransmit(src, dst, seq));
        if let Some(stale) = self.timers.entry((src.0, dst.0)).or_default().insert(seq, id) {
            events.cancel(stale);
        }
    }

    /// An ack of `src -> dst` reaches `src`: the copies below `cum` retire,
    /// and their timers with them; the copy `held` names stays until `cum`
    /// passes it, but its timer goes.
    fn ack(&mut self, src: Pe, dst: Pe, cum: u64, held: Option<u64>, events: &mut EventQueue<Event>) {
        let key = (src.0, dst.0);
        let (Some(sender), Some(timers)) = (self.senders.get_mut(&key), self.timers.get_mut(&key)) else { return };
        sender.on_ack(cum, held).for_each(drop);
        let mut kept = timers.split_off(&cum);
        let named = held.and_then(|seq| kept.remove(&seq));
        for id in std::mem::replace(timers, kept).into_values().chain(named) {
            events.cancel(id);
        }
    }

    /// Attempt `n` of frame `seq`, `id = (seq, n)`, through the fault
    /// wire: what gets through lands after the network's delivery time
    /// (twice if duplicated, never if corrupted), the stash it released
    /// right behind it.
    fn attempt(&mut self, src: Pe, dst: Pe, id: (u64, u32), frame: Frame, at: Time, events: &mut EventQueue<Event>) {
        let ((seq, n), bytes, since) = (id, frame.bytes, at.saturating_since(self.epoch));
        let wire = self.wire.as_mut().expect("a fault plan is armed");
        let Fate::Through { item, harm, released } = wire.transmit(src, dst, seq, n, since, (seq, frame)) else {
            return;
        };
        let arrival = self.net.delivery_time(src, dst, at, bytes).max(at);
        let copies = match harm {
            Harm::None => 1,
            Harm::Duplicated => 2,
            Harm::Corrupted => 0,
        };
        for (seq, frame) in std::iter::repeat_n(item, copies).chain(released) {
            events.schedule(arrival, Event::Frame(src, dst, seq, frame));
        }
    }

    /// Frame `seq` of `src -> dst` lands: the pair's receiver acks it over
    /// the reverse pair (the wire spares acks) and returns, in send order,
    /// the passengers it releases.
    fn land(
        &mut self,
        src: Pe,
        dst: Pe,
        seq: u64,
        frame: Frame,
        now: Time,
        events: &mut EventQueue<Event>,
    ) -> Vec<Envelope> {
        let receiver = self.receivers.entry((src.0, dst.0)).or_default();
        receiver.broken_dedup = self.broken_dedup;
        let mut released = Vec::new();
        let receipt = receiver.on_frame(seq, frame, &mut released);
        if receipt.duplicate {
            self.ctr.bump(Ctr::DupDropped);
        }
        let ack_bytes = mdo_vmi::reliable::ack_len(receipt.held.is_some(), self.flow.is_some()) as u64;
        let back = self.net.delivery_time(dst, src, now, ack_bytes).max(now);
        events.schedule(back, Event::Ack(src, dst, receipt.cum, receipt.held));
        released.into_iter().flat_map(|f| f.envs).collect()
    }

    /// The timer of frame `seq` of `src -> dst` fires: the copies due go
    /// out again, each re-arming its timer.
    fn retransmit(
        &mut self,
        src: Pe,
        dst: Pe,
        seq: u64,
        now: Time,
        events: &mut EventQueue<Event>,
    ) -> Result<(), TransportError> {
        let key = (src.0, dst.0);
        if let Some(timers) = self.timers.get_mut(&key) {
            timers.remove(&seq);
        }
        let (Some(wire), Some(sender)) = (&self.wire, self.senders.get_mut(&key)) else { return Ok(()) };
        let mut resend = Vec::new();
        // When the protocol gives up, the run aborts with a structured
        // error instead of simulating on partial state.
        if let Some(err) = sender.on_timer(now, wire.plan(), |s, n, f, due| resend.push(((s, n), f.clone(), due))) {
            return Err(err);
        }
        let (receiver, stashed) = (self.receivers.get(&key), wire.stashed(src, dst).map(|&(seq, _)| seq));
        let held = |seq| stashed == Some(seq) || receiver.is_some_and(|r| r.holds(seq));
        let spurious = resend.iter().filter(|c| held(c.0 .0)).count();
        self.ctr.add(Ctr::Retransmits, resend.len() as u64);
        self.ctr.add(Ctr::SpuriousRetransmits, spurious as u64);
        for (id, frame, due) in resend {
            self.arm(src, dst, id.0, due, events);
            self.attempt(src, dst, id, frame, now, events);
        }
        Ok(())
    }

    /// Book what a generation's wire did to the traffic.
    fn book_wire(&mut self) {
        book_wire(&mut self.ctr, self.wire.as_ref().map(FaultWire::stats).unwrap_or_default());
    }

    /// A generation change at `at`: buffered (un-flushed) frames and
    /// deferred sends die with the generation, like every other in-flight
    /// event, and the windows re-arm fresh; the wire and the protocol
    /// restart, as the wall clock's stack is rebuilt; PE numbering changes
    /// anyway.
    fn restart(&mut self, topo: Topology, at: Time) {
        self.book_wire();
        self.wire = self.wire.take().map(|w| FaultWire::new(w.plan().clone()));
        (self.epoch, self.senders, self.receivers, self.timers) = (at, HashMap::new(), HashMap::new(), HashMap::new());
        self.net.set_topology(topo);
        self.bufs.clear();
        self.ledger.reset();
        self.waiting.clear();
        self.waiting_total = 0;
    }

    /// Add what only the transport knows to the run's books.
    fn close(mut self, books: &mut Books) {
        self.book_wire();
        books.ctr.merge(&self.ctr);
        books.network = self.net.stats().clone();
        // The sender-side deferred bank counts toward peak buffering too:
        // under `Block` an open-loop producer's backlog lives there.
        books.peak_mailbox_bytes = books.peak_mailbox_bytes.max(self.max_waiting);
    }
}

struct SimHooks {
    t: Time,
    out: Vec<(Envelope, Dur)>,
}

impl NodeHooks for SimHooks {
    fn now(&self) -> Time {
        self.t
    }
    fn emit(&mut self, env: Envelope, after: Dur) {
        self.out.push((env, after));
    }
}

struct PeState {
    queue: SchedQueue,
    busy: bool,
    /// Compute charged to this PE so far in the generation.
    worked: Dur,
}

impl SimEngine {
    /// An engine over `net` with the default [`SimConfig`]: no limits,
    /// FIFO delivery, nothing recorded.
    pub fn new(net: NetworkModel, cfg: RunConfig) -> Self {
        SimEngine { net, cfg, sim_cfg: SimConfig::default() }
    }

    /// Override the engine's own settings: limits and delivery policy.
    pub fn with_config(mut self, sim_cfg: SimConfig) -> Self {
        self.sim_cfg = sim_cfg;
        self
    }

    /// Run `program` to completion (exit request, drained event queue, or a
    /// configured limit).
    ///
    /// When [`RunConfig::failure_plan`] is set, injected PE crashes (and
    /// handler panics) trigger the recovery protocol: in-flight traffic is
    /// drained, the newest complete buddy checkpoint is reassembled from
    /// surviving PEs, the arrays are remapped over a shrunken topology, and
    /// the run resumes from the snapshot.  Detection is exact in virtual
    /// time — the engine *is* the failure detector here, so no heartbeat
    /// traffic is needed.  Which PEs leave and join, and what the next
    /// generation looks like, is `generation::Membership`'s to decide, as
    /// in the wall-clock engine.
    pub fn run(self, program: Program) -> RunReport {
        let SimEngine { net, cfg, sim_cfg } = self;
        let ft_armed = cfg.failure_plan.is_some();
        let mut transport_error: Option<TransportError> = None;
        // The delivery-policy seam: which of several equal-priority queued
        // envelopes a PE dispatches next.  FIFO by default; the policy is
        // consulted (and the decision recorded) only at genuine choice
        // points, so the default path costs one `eligible()` call.
        let SimConfig { max_time, max_events, delivery, schedule_sink, mutate_no_dedup } = sim_cfg;
        let mut policy = delivery.build();
        let topo = net.topology().clone();
        let mut wan = SimWan::new(net, &cfg, mutate_no_dedup);
        let mut m = Membership::new(program, topo, cfg, true);
        let record_on = m.books.obs.is_some();

        // One generation's state, in current PE numbering: the nodes, their
        // queues and charged time, and a recorder each (logging in original
        // numbers and absolute virtual time, so the streams of successive
        // generations concatenate).  All of it is rebuilt by `launch` when
        // the membership changes.
        let launch = |m: &mut Membership| {
            let nodes = m.build_nodes(None);
            let idle = || PeState { queue: SchedQueue::new(), busy: false, worked: Dur::ZERO };
            let pes: Vec<PeState> = nodes.iter().map(|_| idle()).collect();
            let recs: Vec<PeRecorder> = m.orig().iter().map(|o| PeRecorder::maybe(record_on, o.0)).collect();
            (Arc::clone(m.shared()), nodes, pes, recs)
        };
        let (mut shared, mut nodes, mut pes, mut recs) = launch(&mut m);
        let mut events: EventQueue<Event> = EventQueue::new();
        let mut unrecoverable: Option<UnrecoverableError> = None;
        // Newest checkpoint epoch known complete cluster-wide *this
        // generation*: the admission gate for pending joins — expanding is
        // only safe when a snapshot exists to redistribute from.
        let mut ckpt_done: Option<u32> = None;

        // Boot: Startup on PE 0 at t=0.
        let startup_at = |at: Time| {
            let body = MsgBody::Startup;
            Event::Arrive(Envelope {
                src: Pe(0),
                dst: Pe(0),
                priority: SYSTEM_PRIORITY,
                sent_at_ns: at.as_nanos(),
                body,
            })
        };
        events.schedule(Time::ZERO, startup_at(Time::ZERO));

        let mut final_time = Time::ZERO;
        'main: while let Some((now, event)) = events.pop() {
            if let Some(limit) = max_time {
                if now > Time::ZERO + limit {
                    break;
                }
            }
            if let Some(limit) = max_events {
                if events.events_processed() > limit {
                    break;
                }
            }

            // Fire any due injected crashes before delivering this event.
            // Collecting every crash whose time has come in one batch means
            // a buddy pair failing at the same instant is seen as a double
            // failure, not two single ones.
            let mut crashed: Vec<(Pe, FailureCause)> =
                m.take_timed_crashes(now).into_iter().map(|pe| (pe, FailureCause::Injected)).collect();

            if crashed.is_empty() {
                let mut arrive = |env: Envelope| {
                    let pe = env.dst;
                    if record_on {
                        recs[pe.index()].recv(
                            now,
                            m.orig()[env.src.index()].0,
                            Time::from_nanos(env.sent_at_ns),
                            env.wire_size(),
                            shared.topo.crosses_wan(env.src, pe),
                            env.priority == SYSTEM_PRIORITY,
                        );
                    }
                    pes[pe.index()].queue.push(env);
                    if record_on {
                        let depth = pes[pe.index()].queue.len();
                        recs[pe.index()].queue_depth(depth);
                    }
                    pe
                };
                let (pe, was_done) = match event {
                    Event::Arrive(env) => (arrive(env), false),
                    // A PE receives what the pair's receiver releases.
                    Event::Frame(src, dst, seq, frame) => {
                        for env in wan.land(src, dst, seq, frame, now, &mut events) {
                            arrive(env);
                        }
                        (dst, false)
                    }
                    Event::PeDone(pe) => {
                        pes[pe.index()].busy = false;
                        (pe, true)
                    }
                    Event::FlushAgg { src, dst, filling } => {
                        wan.tick(src, dst, filling, now, &mut events);
                        continue;
                    }
                    Event::Ack(src, dst, cum, held) => {
                        wan.ack(src, dst, cum, held, &mut events);
                        continue;
                    }
                    Event::Retransmit(src, dst, seq) => {
                        if let Err(err) = wan.retransmit(src, dst, seq, now, &mut events) {
                            transport_error = Some(err);
                            final_time = now;
                            break 'main;
                        }
                        continue;
                    }
                };

                // Dispatch loop: run queued messages until the PE picks up real
                // (charged) work or drains its queue.
                let mut dispatched = 0u32;
                while !pes[pe.index()].busy {
                    let eligible = pes[pe.index()].queue.eligible();
                    let popped = if eligible > 1 {
                        let k = policy.choose(pe, eligible).min(eligible - 1);
                        if let Some(sink) = &schedule_sink {
                            if let Ok(mut t) = sink.lock() {
                                t.choices.push(ScheduleChoice {
                                    pe: pe.0,
                                    eligible: eligible as u32,
                                    chosen: k as u32,
                                });
                            }
                        }
                        pes[pe.index()].queue.pop_nth(k)
                    } else {
                        pes[pe.index()].queue.pop()
                    };
                    let Some(env) = popped else { break };
                    wan.delivered(&env, now, &mut events);
                    let mut hooks = SimHooks { t: now, out: Vec::new() };
                    let caught = catch_unwind(AssertUnwindSafe(|| nodes[pe.index()].handle(env, &mut hooks)));
                    let outcome = match caught {
                        Ok(outcome) => outcome,
                        Err(_) => {
                            // A panicking handler takes down its PE, not the
                            // process.  Without a failure plan (or when the
                            // host PE dies) the run ends with a structured
                            // error instead.
                            final_time = now;
                            if !ft_armed {
                                unrecoverable = Some(UnrecoverableError::NoFailurePlan { pe: m.orig()[pe.index()] });
                                break 'main;
                            }
                            if pe == Pe(0) {
                                unrecoverable = Some(UnrecoverableError::HostFailed);
                                break 'main;
                            }
                            crashed.push((pe, FailureCause::Panic));
                            break;
                        }
                    };
                    if outcome.ckpt_complete.is_some() {
                        ckpt_done = outcome.ckpt_complete;
                    }
                    if matches!(m.crash_of(pe), Some(CrashTrigger::AfterMessages(n))
                        if nodes[pe.index()].messages_processed() >= n)
                    {
                        // The PE dies right after this handler; whatever it
                        // emitted is lost with it.
                        crashed.push((pe, FailureCause::Injected));
                        break;
                    }
                    for (env, after) in hooks.out {
                        let depart = now + after;
                        if record_on {
                            recs[pe.index()].send(
                                depart,
                                m.orig()[env.dst.index()].0,
                                env.wire_size(),
                                shared.topo.crosses_wan(env.src, env.dst),
                                env.priority == SYSTEM_PRIORITY,
                            );
                        }
                        if !wan.emit(env, depart, &mut events) {
                            // A shed envelope was counted as sent but will
                            // never be delivered: tell quiescence detection.
                            nodes[0].note_sheds(1);
                        }
                    }
                    pes[pe.index()].worked += outcome.charged;
                    dispatched += 1;
                    if record_on {
                        let r = &mut recs[pe.index()];
                        let mut cursor = now;
                        for (obj, d) in &outcome.spans {
                            r.handler((*obj).map(ObjTag::from), cursor, cursor + *d);
                            cursor += *d;
                        }
                        if let Some(epoch) = outcome.ckpt_epoch {
                            r.checkpoint(now, epoch);
                        }
                    }
                    if outcome.exit {
                        // The terminating handler's work still takes time.
                        final_time = now + outcome.charged;
                        break 'main;
                    }
                    if !outcome.charged.is_zero() {
                        pes[pe.index()].busy = true;
                        events.schedule(now + outcome.charged, Event::PeDone(pe));
                    }
                }
                // The PE went idle: it did (or finished) work and has nothing
                // queued.  Bare arrivals that were immediately handled with
                // zero charge count too.
                if record_on
                    && (dispatched > 0 || was_done)
                    && !pes[pe.index()].busy
                    && pes[pe.index()].queue.is_empty()
                {
                    recs[pe.index()].idle(now);
                }
            }

            // ---- does the generation end here?  PEs died, or — at a safe
            // point, with nothing dead — joiners are due (joins racing a
            // crash wait for the next generation).
            let joiners = if crashed.is_empty() { m.due_joins(now, ckpt_done.is_some()) } else { Vec::new() };
            if crashed.is_empty() && joiners.is_empty() {
                continue;
            }
            m.record_failures(&crashed, now);
            // Survivors drain in-flight traffic; they and any joiners
            // restart from the newest complete snapshot the survivors hold.
            while events.pop().is_some() {}
            let drained = events.now();
            final_time = drained;
            let dead_cur: Vec<Pe> = crashed.iter().map(|&(cur, _)| cur).collect();
            let alive = nodes.iter_mut().filter(|n| !dead_cur.contains(&n.pe()));
            let pieces: Vec<FtPiece> = alive.flat_map(|n| n.take_ft_pieces()).collect();
            let snapshot = match m.assemble(&pieces, nodes[0].lb_rounds()) {
                Ok((snapshot, _)) => snapshot,
                Err(e) => {
                    unrecoverable = Some(e);
                    break 'main;
                }
            };
            let rows = generation_rows(m.orig(), &nodes, &pes, std::mem::take(&mut recs));
            m.books.close_generation(rows, Some(HostRow::of(&nodes[0])));
            // The host closures carry over; the new generation is
            // restored, so its PE 0 resumes instead of starting.
            m.keep_host(&mut nodes[0]);
            let change = if dead_cur.is_empty() { Change::Expand { joiners } } else { Change::Shrink { dead_cur } };
            m.advance(change, snapshot, drained);
            (shared, nodes, pes, recs) = launch(&mut m);
            wan.restart(shared.topo.clone(), drained);
            // Checkpoint epochs restart with the generation; pending joins
            // wait for a fresh complete epoch on the new cluster.
            ckpt_done = None;
            events.schedule(drained, startup_at(drained));
        }

        // Close the last generation and add what only this engine knows.
        let rows = generation_rows(m.orig(), &nodes, &pes, recs);
        m.books.close_generation(rows, Some(HostRow::of(&nodes[0])));
        wan.close(&mut m.books);
        m.books.transport_error = transport_error;
        m.into_report(events.now().max(final_time), unrecoverable)
    }
}

/// The rows that close one generation's books (everything in current PE
/// numbering, `orig` mapping it to the original one).
fn generation_rows(orig: &[Pe], nodes: &[Node], pes: &[PeState], recs: Vec<PeRecorder>) -> Vec<PeRow> {
    let row = |(i, rec): (usize, PeRecorder)| PeRow {
        orig: orig[i],
        busy: pes[i].worked,
        messages: nodes[i].messages_processed(),
        queue_depth: pes[i].queue.max_depth(),
        queue_bytes: pes[i].queue.max_bytes(),
        ckpt_bytes: nodes[i].ft_bytes_stored(),
        obs: rec.finish(),
    };
    recs.into_iter().enumerate().map(row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chare::{Chare, Ctx};
    use crate::envelope::{ReduceData, ReduceOp};
    use crate::ids::{ElemId, EntryId};
    use crate::mapping::Mapping;
    use crate::wire::{WireReader, WireWriter};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    const PING: EntryId = EntryId(1);
    const PONG: EntryId = EntryId(2);

    /// Element 0 sends PING to element 1 (other cluster) and notes when the
    /// PONG returns; both charge fixed work.
    struct PingPong {
        rounds_left: u32,
    }

    impl Chare for PingPong {
        fn receive(&mut self, entry: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
            ctx.charge(Dur::from_micros(100));
            match entry {
                PING => {
                    ctx.send(ctx.me().array, ElemId(0), PONG, vec![]);
                }
                PONG => {
                    if self.rounds_left > 0 {
                        self.rounds_left -= 1;
                        ctx.send(ctx.me().array, ElemId(1), PING, vec![]);
                    } else {
                        ctx.contribute_f64(ReduceOp::MaxF64, &[ctx.now().as_secs_f64()]);
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    fn pingpong_run(cross_ms: u64, rounds: u32) -> (Time, RunReport) {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(cross_ms));
        let mut p = Program::new();
        let arr =
            p.array("pp", 2, Mapping::Block, move |_| Box::new(PingPong { rounds_left: rounds }) as Box<dyn Chare>);
        static DONE_AT: AtomicU64 = AtomicU64::new(0);
        DONE_AT.store(0, Ordering::SeqCst);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(1), PING, vec![]));
        // Element 1 never PONGs back to itself; only element 0 contributes.
        // Use a Max reduction over 2 elements: make element 1 contribute at
        // startup too.  Simpler: exit from the reduction of element 0 only
        // is impossible (needs both), so element 1 contributes in PING when
        // rounds run out — but it doesn't know.  Instead: exit directly.
        p.on_reduction(arr, |_s, _d, ctl| ctl.exit());
        let engine = SimEngine::new(net, RunConfig::default());
        let report = engine.run(p);
        (report.end_time, report)
    }

    /// Simplest possible app: element 0 sends itself N self-messages each
    /// charging `w`; verify end time = N*w.
    struct SelfLoop {
        remaining: u32,
        work: Dur,
    }

    impl Chare for SelfLoop {
        fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
            ctx.charge(self.work);
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(ctx.me().array, ctx.my_elem(), PING, vec![]);
            } else {
                ctx.exit();
            }
        }
    }

    #[test]
    fn virtual_time_accumulates_charged_work() {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(1));
        let mut p = Program::new();
        let arr = p.array("loop", 1, Mapping::Block, |_| {
            Box::new(SelfLoop { remaining: 9, work: Dur::from_millis(2) }) as Box<dyn Chare>
        });
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), PING, vec![]));
        let report = SimEngine::new(net, RunConfig::default()).run(p);
        // 10 handler executions × 2 ms each; self-sends have zero latency.
        assert_eq!(report.end_time, Time::ZERO + Dur::from_millis(20));
        assert_eq!(report.pe_busy[0], Dur::from_millis(20));
        assert_eq!(report.pe_busy[1], Dur::ZERO);
    }

    #[test]
    fn cross_cluster_latency_shows_up_in_makespan() {
        // Ping-pong between clusters: each round costs 2 × latency + 2 × work.
        let (t_fast, _) = pingpong_run(0, 4);
        let (t_slow, _) = pingpong_run(8, 4);
        let delta = t_slow - t_fast;
        // 5 PINGs + 5 PONGs cross the 8 ms WAN; allow the fixed intra costs
        // to cancel in the difference.
        assert_eq!(delta, Dur::from_millis(80), "10 crossings x 8 ms");
    }

    #[test]
    fn runs_are_deterministic() {
        let (t1, r1) = pingpong_run(4, 6);
        let (t2, r2) = pingpong_run(4, 6);
        assert_eq!(t1, t2);
        assert_eq!(r1.pe_messages, r2.pe_messages);
        assert_eq!(r1.network.cross_messages, r2.network.cross_messages);
    }

    #[test]
    fn network_stats_classify_traffic() {
        let (_, report) = pingpong_run(2, 3);
        assert!(report.network.cross_messages >= 8, "ping-pong rounds cross the WAN");
        // With only one PE per cluster, every runtime message crosses too.
        assert_eq!(report.network.intra_messages, 0);
    }

    #[test]
    fn trace_records_overlap_story() {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(4));
        let mut p = Program::new();
        let arr = p.array("loop", 1, Mapping::Block, |_| {
            Box::new(SelfLoop { remaining: 3, work: Dur::from_millis(1) }) as Box<dyn Chare>
        });
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), PING, vec![]));
        let cfg = RunConfig { obs: Some(mdo_obs::ObsConfig::new()), ..RunConfig::default() };
        let report = SimEngine::new(net, cfg).run(p);
        let trace = report.obs.expect("obs armed").to_trace();
        assert_eq!(trace.busy(Pe(0)), Dur::from_millis(4));
        assert!(!trace.messages.is_empty());
        let art = trace.ascii_timeline(2, 40);
        assert!(art.contains("pe0"));
    }

    #[test]
    fn max_events_backstop_stops_runaway() {
        // An element that ping-pongs itself forever.
        struct Forever;
        impl Chare for Forever {
            fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                ctx.charge(Dur::from_nanos(10));
                ctx.send(ctx.me().array, ctx.my_elem(), PING, vec![]);
            }
        }
        let net = NetworkModel::two_cluster_sweep(2, Dur::ZERO);
        let mut p = Program::new();
        let arr = p.array("fv", 1, Mapping::Block, |_| Box::new(Forever) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), PING, vec![]));
        let report = SimEngine::new(net, RunConfig::default())
            .with_config(SimConfig { max_events: Some(5_000), ..SimConfig::default() })
            .run(p);
        assert!(report.pe_messages[0] <= 5_002);
    }

    #[test]
    fn max_time_backstop() {
        struct Forever;
        impl Chare for Forever {
            fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                ctx.charge(Dur::from_millis(1));
                ctx.send(ctx.me().array, ctx.my_elem(), PING, vec![]);
            }
        }
        let net = NetworkModel::two_cluster_sweep(2, Dur::ZERO);
        let mut p = Program::new();
        let arr = p.array("fv", 1, Mapping::Block, |_| Box::new(Forever) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), PING, vec![]));
        let report = SimEngine::new(net, RunConfig::default())
            .with_config(SimConfig { max_time: Some(Dur::from_millis(50)), ..SimConfig::default() })
            .run(p);
        assert!(report.end_time <= Time::ZERO + Dur::from_millis(52));
    }

    /// The core latency-masking effect, in miniature: PE 0 hosts an object
    /// that sends a request across the WAN and also has 16 ms of local
    /// churn to do.  With message-driven scheduling the churn fills the
    /// round-trip gap, so the makespan is ~max(RTT, churn), not their sum.
    #[test]
    fn latency_is_masked_by_local_work() {
        const START: EntryId = EntryId(10);
        const ASK: EntryId = EntryId(11);
        const REPLY: EntryId = EntryId(12);
        const CHURN: EntryId = EntryId(13);

        struct Obj {
            churns_left: u32,
            got_reply: bool,
            want_reply: bool,
        }
        impl Obj {
            fn maybe_exit(&self, ctx: &mut Ctx<'_>) {
                if self.churns_left == 0 && (self.got_reply || !self.want_reply) {
                    ctx.exit();
                }
            }
        }
        impl Chare for Obj {
            fn receive(&mut self, entry: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                match entry {
                    START => {
                        if self.want_reply {
                            ctx.send(ctx.me().array, ElemId(1), ASK, vec![]);
                        }
                        if self.churns_left > 0 {
                            ctx.send(ctx.me().array, ElemId(0), CHURN, vec![]);
                        }
                        self.maybe_exit(ctx);
                    }
                    ASK => {
                        ctx.charge(Dur::from_micros(10));
                        ctx.send(ctx.me().array, ElemId(0), REPLY, vec![]);
                    }
                    REPLY => {
                        self.got_reply = true;
                        self.maybe_exit(ctx);
                    }
                    CHURN => {
                        ctx.charge(Dur::from_millis(1));
                        self.churns_left -= 1;
                        if self.churns_left > 0 {
                            ctx.send(ctx.me().array, ElemId(0), CHURN, vec![]);
                        }
                        self.maybe_exit(ctx);
                    }
                    _ => unreachable!(),
                }
            }
        }

        let run = |latency_ms: u64, churns: u32, want_reply: bool| -> f64 {
            let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(latency_ms));
            let mut p = Program::new();
            let arr = p.array("m", 2, Mapping::Block, move |_| {
                Box::new(Obj { churns_left: churns, got_reply: false, want_reply }) as Box<dyn Chare>
            });
            p.on_startup(move |ctl| ctl.send(arr, ElemId(0), START, vec![]));
            let report = SimEngine::new(net, RunConfig::default()).run(p);
            (report.end_time - Time::ZERO).as_millis_f64()
        };

        // 8 ms one-way (16 ms RTT) with 16 ms of churn: fully overlapped.
        let masked = run(8, 16, true);
        let idle = run(8, 0, true); // nothing to overlap: pure RTT
        let churn_only = run(8, 16, false); // no WAN wait at all
        assert!((idle - 16.0).abs() < 0.5, "idle run = RTT, got {idle}");
        assert!((churn_only - 16.0).abs() < 0.5, "churn alone = 16 ms, got {churn_only}");
        assert!(masked < idle + 1.5, "16 ms of churn hidden inside the 16 ms RTT: {masked} vs {idle}");
        // Sanity: the naive (blocking) expectation would be ~32 ms.
        assert!(masked < 20.0);
    }

    /// Everything a handler issues leaves at its charge point.  Element 1,
    /// one WAN hop from PE 0, charges 10 ms and then issues one effect.
    /// The side that receives it on PE 0 runs 10 ms after that handler
    /// started, plus the hops the effect takes: one, or three for an
    /// AtSync (the report goes up, the placement down, the arrival up).
    #[test]
    fn every_effect_leaves_at_its_charge_point() {
        const GO: EntryId = EntryId(30);
        const HIT: EntryId = EntryId(31);
        const WORK: Dur = Dur::from_millis(10);
        const HOP: Dur = Dur::from_millis(1);

        #[derive(Clone, Copy, Debug)]
        enum Effect {
            Send,
            Broadcast,
            Multicast,
            Contribute,
            AtSync,
        }
        /// When element 1's GO ran, then when PE 0 received its effect.
        type Log = Arc<Mutex<Vec<Time>>>;

        struct Issuer {
            effect: Effect,
            log: Log,
        }
        impl Issuer {
            fn received(&self, ctx: &mut Ctx<'_>) {
                self.log.lock().unwrap().push(ctx.now());
                ctx.exit();
            }
        }
        impl Chare for Issuer {
            fn receive(&mut self, entry: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                let (arr, elem) = (ctx.me().array, ctx.my_elem());
                match (entry, elem.0, self.effect) {
                    (GO, 1, effect) => {
                        self.log.lock().unwrap().push(ctx.now());
                        ctx.charge(WORK);
                        match effect {
                            Effect::Send => ctx.send(arr, ElemId(0), HIT, vec![]),
                            Effect::Broadcast => ctx.broadcast(arr, HIT, vec![]),
                            Effect::Multicast => ctx.multicast(arr, &[ElemId(0)], HIT, vec![]),
                            Effect::Contribute => ctx.contribute_u64_sum(&[1]),
                            Effect::AtSync => ctx.at_sync(),
                        }
                    }
                    // Element 0 joins the collectives at once.
                    (GO, _, Effect::Contribute) => ctx.contribute_u64_sum(&[1]),
                    (GO, _, Effect::AtSync) => ctx.at_sync(),
                    (HIT, 0, _) => self.received(ctx),
                    _ => {}
                }
            }
            fn resume_from_sync(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.my_elem() == ElemId(0) {
                    self.received(ctx);
                }
            }
        }

        let rows = [
            (Effect::Send, 1),
            (Effect::Broadcast, 1),
            (Effect::Multicast, 1),
            (Effect::Contribute, 1),
            (Effect::AtSync, 3),
        ];
        for (effect, hops) in rows {
            let log: Log = Arc::default();
            let mut p = Program::new();
            let (elems, client_log) = (Arc::clone(&log), Arc::clone(&log));
            let arr = p.array("issuers", 2, Mapping::Block, move |_| {
                Box::new(Issuer { effect, log: Arc::clone(&elems) }) as Box<dyn Chare>
            });
            p.on_startup(move |ctl| ctl.broadcast(arr, GO, vec![]));
            p.on_reduction(arr, move |_s, _d, ctl| {
                client_log.lock().unwrap().push(ctl.now());
                ctl.exit();
            });
            let net = NetworkModel::two_cluster_sweep(2, HOP);
            SimEngine::new(net, RunConfig::default()).run(p);
            let log = log.lock().unwrap();
            let [started, received] = log[..] else { panic!("{effect:?}: log {log:?}") };
            assert_eq!(received, started + WORK + HOP * hops, "{effect:?} left before its charge point");
        }
    }

    #[test]
    fn faults_delay_but_do_not_change_results() {
        use mdo_netsim::FaultPlan;
        // Same seed, same program: a lossy WAN must only stretch the
        // makespan (retransmission delays), never change what arrives.
        let run = |plan: Option<FaultPlan>| {
            let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(4));
            let mut p = Program::new();
            let arr = p.array("pp", 2, Mapping::Block, |_| Box::new(PingPong { rounds_left: 6 }) as Box<dyn Chare>);
            p.on_startup(move |ctl| ctl.send(arr, ElemId(1), PING, vec![]));
            p.on_reduction(arr, |_s, _d, ctl| ctl.exit());
            let cfg = RunConfig { fault_plan: plan, ..RunConfig::default() };
            SimEngine::new(net, cfg).run(p)
        };
        let clean = run(None);
        let plan =
            FaultPlan::loss(0.25).with_duplicate(0.05).with_reorder(0.05).with_seed(17).with_rto(Dur::from_millis(10));
        let faulty = run(Some(plan));
        assert_eq!(clean.pe_messages, faulty.pe_messages, "identical application traffic");
        assert!(faulty.transport_error.is_none());
        assert!(faulty.counters.get(Ctr::Drops) > 0, "losses occurred: {:?}", faulty.counters);
        assert!(faulty.counters.get(Ctr::Retransmits) > 0);
        assert!(faulty.end_time > clean.end_time, "recovery time shows up in the makespan");
        let faults = [Ctr::Drops, Ctr::CorruptRejected, Ctr::DupDropped, Ctr::Reordered, Ctr::Retransmits];
        assert!(faults.iter().all(|&c| clean.counters.get(c) == 0), "{:?}", clean.counters);
    }

    #[test]
    fn retry_exhaustion_is_a_structured_error() {
        use mdo_netsim::FaultPlan;
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(1));
        let mut p = Program::new();
        let arr = p.array("pp", 2, Mapping::Block, |_| Box::new(PingPong { rounds_left: 2 }) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(1), PING, vec![]));
        p.on_reduction(arr, |_s, _d, ctl| ctl.exit());
        let plan = FaultPlan::loss(1.0).with_max_retries(3);
        let cfg = RunConfig { fault_plan: Some(plan), ..RunConfig::default() };
        let report = SimEngine::new(net, cfg).run(p);
        let err = report.transport_error.expect("total loss must surface an error");
        assert_eq!(err.attempts, 4);
        assert_eq!(err.seq, 0);
        assert!(err.to_string().contains("gave up"));
    }

    #[test]
    fn reduction_across_pes_in_virtual_time() {
        static SUM: Mutex<f64> = Mutex::new(0.0);
        *SUM.lock().unwrap() = 0.0;
        struct One;
        impl Chare for One {
            fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                ctx.charge(Dur::from_micros(50));
                ctx.contribute_f64(ReduceOp::SumF64, &[ctx.my_elem().0 as f64]);
            }
        }
        let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(2));
        let mut p = Program::new();
        let arr = p.array("ones", 64, Mapping::RoundRobin, |_| Box::new(One) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.broadcast(arr, PING, vec![]));
        p.on_reduction(arr, |_s, d, ctl| {
            if let ReduceData::F64(v) = d {
                *SUM.lock().unwrap() = v[0];
            }
            ctl.exit();
        });
        let report = SimEngine::new(net, RunConfig::default()).run(p);
        assert_eq!(*SUM.lock().unwrap(), (0..64).sum::<i32>() as f64);
        // The reduction tree crossed the WAN at least once.
        assert!(report.network.cross_messages > 0);
        assert!(report.end_time > Time::ZERO + Dur::from_millis(2));
    }

    #[test]
    fn writer_reads_its_own_pingpong_payloads() {
        // Check payloads survive engine transport intact.
        const ECHO: EntryId = EntryId(20);
        struct Echo;
        impl Chare for Echo {
            fn receive(&mut self, _e: EntryId, p: &[u8], ctx: &mut Ctx<'_>) {
                let mut r = WireReader::new(p);
                let v = r.f64_vec().unwrap();
                assert_eq!(v, vec![1.0, 2.0, 3.0]);
                ctx.exit();
            }
        }
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(1));
        let mut p = Program::new();
        let arr = p.array("echo", 2, Mapping::Block, |_| Box::new(Echo) as Box<dyn Chare>);
        p.on_startup(move |ctl| {
            let mut w = WireWriter::new();
            w.f64_slice(&[1.0, 2.0, 3.0]);
            ctl.send(arr, ElemId(1), ECHO, w.finish());
        });
        let report = SimEngine::new(net, RunConfig::default()).run(p);
        assert!(report.end_time >= Time::ZERO + Dur::from_millis(1));
    }

    use mdo_netsim::AggConfig;

    const HIT: EntryId = EntryId(30);
    const ROUND_ACK: EntryId = EntryId(31);

    /// Element 0 fires a burst of HITs at element 1 (other cluster) per
    /// round; element 1 acks each complete round.  All sends of a burst
    /// leave one handler, so with aggregation they share a jumbo frame.
    struct Burst {
        burst: u32,
        rounds_left: u32,
        got: u32,
    }

    impl Chare for Burst {
        fn receive(&mut self, entry: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
            ctx.charge(Dur::from_micros(10));
            match entry {
                HIT => {
                    self.got += 1;
                    if self.got == self.burst {
                        self.got = 0;
                        ctx.send(ctx.me().array, ElemId(0), ROUND_ACK, vec![]);
                    }
                }
                ROUND_ACK => {
                    if self.rounds_left > 0 {
                        self.rounds_left -= 1;
                        for _ in 0..self.burst {
                            ctx.send(ctx.me().array, ElemId(1), HIT, vec![]);
                        }
                    } else {
                        ctx.exit();
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    fn burst_run(agg: Option<AggConfig>, plan: Option<mdo_netsim::FaultPlan>) -> RunReport {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(2));
        let mut p = Program::new();
        let arr = p.array("burst", 2, Mapping::Block, |_| {
            Box::new(Burst { burst: 16, rounds_left: 4, got: 0 }) as Box<dyn Chare>
        });
        // The startup "ack" kicks off round 1.
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), ROUND_ACK, vec![]));
        let cfg = RunConfig { agg, fault_plan: plan, ..RunConfig::default() };
        SimEngine::new(net, cfg).run(p)
    }

    #[test]
    fn aggregation_coalesces_bursts_without_changing_delivery() {
        let plain = burst_run(None, None);
        let agg = burst_run(Some(AggConfig::default()), None);
        assert_eq!(plain.pe_messages, agg.pe_messages, "same application traffic either way");
        let ctr = |r: &RunReport, c| r.counters.get(c);
        assert_eq!(ctr(&plain, Ctr::FramesSent), 0, "no frames without an aggregation policy");
        let frames = ctr(&agg, Ctr::FramesSent);
        let coalesced = ctr(&agg, Ctr::EnvelopesCoalesced);
        assert!(frames > 0, "cross-WAN traffic went through the batched-release path");
        assert!(frames < coalesced, "bursts shared frames: {coalesced} envelopes in {frames} frames");
        assert!(ctr(&agg, Ctr::FrameBytesSaved) > 0, "per-envelope framing overhead was amortized");
        assert!(agg.transport_error.is_none());
    }

    #[test]
    fn aggregated_frames_survive_faults_exactly_once() {
        use mdo_netsim::FaultPlan;
        let plan = FaultPlan::loss(0.3).with_duplicate(0.1).with_seed(11).with_rto(Dur::from_millis(6));
        let clean = burst_run(Some(AggConfig::default()), None);
        let faulty = burst_run(Some(AggConfig::default()), Some(plan));
        // A dropped jumbo frame is retransmitted whole; every envelope in it
        // is still delivered exactly once (duplicates would inflate counts).
        assert_eq!(clean.pe_messages, faulty.pe_messages, "exactly-once through whole-frame retransmit");
        assert!(faulty.transport_error.is_none());
        assert!(faulty.counters.get(Ctr::Drops) > 0, "losses actually occurred: {:?}", faulty.counters);
        assert!(faulty.counters.get(Ctr::Retransmits) > 0, "dropped frames were retransmitted");
        assert!(faulty.end_time > clean.end_time, "recovery time shows up in the makespan");
    }

    use mdo_netsim::OverloadPolicy;

    fn flow_burst_run(flow: Option<FlowConfig>, quiesce: bool) -> RunReport {
        static FIRED: AtomicU64 = AtomicU64::new(0);
        FIRED.store(0, Ordering::SeqCst);
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(2));
        let mut p = Program::new();
        let arr = p.array("burst", 2, Mapping::Block, |_| {
            Box::new(Burst { burst: 16, rounds_left: 4, got: 0 }) as Box<dyn Chare>
        });
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), ROUND_ACK, vec![]));
        if quiesce {
            p.on_quiescence(|ctl| {
                FIRED.fetch_add(1, Ordering::SeqCst);
                ctl.exit();
            });
        }
        let cfg = RunConfig { flow, ..RunConfig::default() };
        let report = SimEngine::new(net, cfg)
            .with_config(SimConfig { max_events: Some(200_000), ..SimConfig::default() })
            .run(p);
        if quiesce {
            assert_eq!(FIRED.load(Ordering::SeqCst), 1, "quiescence fired exactly once despite shed traffic");
        }
        report
    }

    #[test]
    fn block_flow_stalls_senders_but_delivers_everything() {
        let plain = flow_burst_run(None, false);
        let gated = flow_burst_run(Some(FlowConfig::default().with_credit_bytes(64)), false);
        assert_eq!(plain.pe_messages, gated.pe_messages, "Block only re-times traffic, it never loses or duplicates");
        assert!(gated.counters.get(Ctr::CreditStalls) > 0, "a 16-envelope burst cannot fit a 64-byte window");
        assert!(gated.counters.get(Ctr::CreditWaitNs) > 0, "deferred envelopes waited for credit");
        assert_eq!(gated.counters.get(Ctr::EnvelopesShed), 0, "Block never drops");
        assert!(gated.end_time >= plain.end_time, "stalls can only stretch the makespan");
        assert!(gated.transport_error.is_none());
    }

    #[test]
    fn block_flow_is_deterministic() {
        let flow = Some(FlowConfig::default().with_credit_bytes(96));
        let a = flow_burst_run(flow, false);
        let b = flow_burst_run(flow, false);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.pe_messages, b.pe_messages);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn shed_flow_drops_overflow_and_quiescence_still_terminates() {
        let flow = FlowConfig::default().with_credit_bytes(64).with_policy(OverloadPolicy::Shed);
        let report = flow_burst_run(Some(flow), true);
        let (sheds, shed_bytes) = (report.counters.get(Ctr::EnvelopesShed), report.counters.get(Ctr::ShedBytes));
        assert!(sheds > 0, "overflow past the window was shed");
        assert!(shed_bytes >= sheds * 24, "byte accounting follows wire sizes");
        assert_eq!(report.counters.get(Ctr::CreditStalls), 0, "Shed never stalls the sender");
        assert!(report.unrecoverable.is_none());
        assert!(report.transport_error.is_none());
    }

    #[test]
    fn a_registered_quiescence_client_fires_exactly_once() {
        static FIRED: AtomicU64 = AtomicU64::new(0);
        FIRED.store(0, Ordering::SeqCst);
        // Element 1 waits for one HIT more than element 0's burst, so it
        // never acks: the run goes quiet after one round instead of exiting.
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(2));
        let mut p = Program::new();
        let arr = p.array("burst", 2, Mapping::Block, |elem| {
            Box::new(Burst { burst: 16 + elem.0, rounds_left: 4, got: 0 }) as Box<dyn Chare>
        });
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), ROUND_ACK, vec![]));
        p.on_quiescence(|ctl| {
            FIRED.fetch_add(1, Ordering::SeqCst);
            ctl.exit();
        });
        let report = SimEngine::new(net, RunConfig::default()).run(p);
        assert_eq!(FIRED.load(Ordering::SeqCst), 1, "registering the client is what runs detection");
        assert!(report.unrecoverable.is_none());
    }

    #[test]
    fn quiescence_terminates_with_deadline_flushed_buffers() {
        static FIRED: AtomicU64 = AtomicU64::new(0);
        FIRED.store(0, Ordering::SeqCst);
        // A cross-WAN hop chain whose messages are far below every byte
        // threshold: only the deadline timer can release them.  Quiescence
        // must still balance (a buffered envelope counts as in flight) and
        // the run must terminate rather than deadlock on a silent buffer.
        struct Hop;
        impl Chare for Hop {
            fn receive(&mut self, _e: EntryId, p: &[u8], ctx: &mut Ctx<'_>) {
                ctx.charge(Dur::from_micros(20));
                let left = p[0];
                if left > 0 {
                    let next = ElemId((ctx.my_elem().0 + 1) % 2);
                    ctx.send(ctx.me().array, next, PING, vec![left - 1]);
                }
            }
        }
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(1));
        let mut p = Program::new();
        let arr = p.array("hop", 2, Mapping::Block, |_| Box::new(Hop) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), PING, vec![12]));
        p.on_quiescence(|ctl| {
            FIRED.fetch_add(1, Ordering::SeqCst);
            ctl.exit();
        });
        let agg = AggConfig::default().with_max_bytes(1 << 20).with_max_delay(Dur::from_millis(4));
        let cfg = RunConfig { agg: Some(agg), ..RunConfig::default() };
        let report = SimEngine::new(net, cfg)
            .with_config(SimConfig { max_events: Some(100_000), ..SimConfig::default() })
            .run(p);
        assert_eq!(FIRED.load(Ordering::SeqCst), 1, "quiescence fired despite buffered frames");
        assert!(report.counters.get(Ctr::EnvelopesCoalesced) >= 12, "the chain went through the aggregation path");
    }
}
