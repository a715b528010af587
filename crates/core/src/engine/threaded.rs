//! The real-time threaded engine: its configuration, entry point and PE
//! threads.
//!
//! One OS thread per PE; each thread blocks on its VMI mailbox, decodes
//! envelopes from real bytes, and runs the same [`Node`] logic as the
//! simulation engine.  What a PE addresses to itself never becomes bytes:
//! it waits in the PE's own scheduler queue, served when the mailbox has
//! nothing ready.  Cross-cluster packets pass through a real
//! [`mdo_vmi::DelayDevice`] that stamps them with the configured wall-clock
//! latency, which the destination mailbox enforces — no packet is visible
//! to its PE before send + latency.  This engine is our equivalent of the
//! paper's *real* TeraGrid validation runs (the "Real Latency" columns of
//! Tables 1 and 2): same application, same runtime, real threads, real
//! injected delays, real elapsed time.  The generation loop that launches
//! and supervises these threads is [`super::net`]'s, shared with
//! multi-process runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdo_netsim::{CrashTrigger, Dur, LatencyMatrix, Pe, Time, Topology};
use mdo_vmi::Aggregator;

use mdo_obs::{ObjTag, ObsConfig, PeObs, PeRecorder};

use crate::envelope::{Envelope, MsgBody, SYSTEM_PRIORITY};
use crate::node::{HandleOutcome, Node, NodeHooks};
use crate::program::{Program, RunConfig, RunReport};
use crate::queue::SchedQueue;

use super::generation::HostRow;

/// Engine-specific configuration.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    /// Latency injected by the delay device (intra typically ~0, cross =
    /// the artificial WAN latency).
    pub latency: LatencyMatrix,
    /// Wall-clock safety limit: a run that has not exited by then is
    /// stopped and reports `UnrecoverableError::DeadlineExceeded`.
    pub max_wall: Duration,
    /// Emulate charged compute by sleeping for it: each handler's
    /// [`crate::chare::Ctx::charge`]d cost becomes a real `thread::sleep`.
    /// Sleeping threads do not contend for CPU, so `P` PE threads behave
    /// like `P` dedicated processors even on a host with fewer cores —
    /// the substitution that makes real-wall-clock validation runs
    /// faithful on small machines (see DESIGN.md).
    pub compute_sleep: bool,
}

impl ThreadedConfig {
    /// Config with the given latency matrix and a 120 s safety limit.
    pub fn new(latency: LatencyMatrix) -> Self {
        ThreadedConfig { latency, max_wall: Duration::from_secs(120), compute_sleep: false }
    }

    /// Enable sleep-emulated compute.
    pub fn with_compute_sleep(mut self) -> Self {
        self.compute_sleep = true;
        self
    }
}

/// The threaded engine.
pub struct ThreadedEngine {
    topo: Topology,
    tcfg: ThreadedConfig,
    cfg: RunConfig,
}

struct ThreadHooks {
    t0: Instant,
    pe: Pe,
    agg: Arc<Aggregator>,
    /// Per-PE recorder (original numbering); lives here so departures can
    /// be recorded where they happen — inside handler sends.
    rec: PeRecorder,
    orig: Arc<Vec<Pe>>,
    topo: Topology,
    /// The PE's own queue: application envelopes it addressed to itself
    /// wait here as they are — never encoded, payload shared with every
    /// other recipient — and are served when nothing as urgent from
    /// another PE is ready (DESIGN.md "Same-PE delivery").
    local: SchedQueue,
    /// (envelopes, wire-size bytes) that took the local queue: intra-cluster
    /// traffic the transport's counter never saw.
    local_traffic: (u64, u64),
}

impl NodeHooks for ThreadHooks {
    fn now(&self) -> Time {
        Time::from_nanos(u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
    fn emit(&mut self, env: Envelope, _after: Dur) {
        debug_assert_eq!(env.src, self.pe);
        if self.rec.is_on() {
            self.rec.send(
                self.now(),
                self.orig[env.dst.index()].0,
                env.wire_size(),
                self.topo.crosses_wan(env.src, env.dst),
                env.priority == SYSTEM_PRIORITY,
            );
        }
        // Only point-to-point app data may wait in a buffer; system and
        // collective control traffic flushes the pair immediately so QD,
        // barriers and exit never wait out a deadline.
        let urgent = !env.aggregatable();
        if env.dst == self.pe && !urgent {
            self.local_traffic.0 += 1;
            self.local_traffic.1 += env.wire_size();
            self.local.push(env);
            return;
        }
        // Encode straight into the aggregator's buffer — the warm frame
        // buffer on the coalesced cross-WAN path, a standalone payload
        // otherwise.
        self.agg.send_with(env.src, env.dst, env.priority, urgent, |buf| env.encode_into(buf));
    }
}

/// What each PE thread reports back when it finishes.
///
/// Survivors also hand their [`Node`] back to the engine: recovery needs
/// the buddy pieces stored inside it and — on PE 0 — the host closures.
/// A PE that died (injected crash or panic) returns `node: None`; its
/// in-memory state is gone, exactly like a real process crash.
pub(super) struct PeResult {
    pub(super) pe: Pe,
    pub(super) busy: Dur,
    pub(super) messages: u64,
    /// Its recording, with obs armed.
    pub(super) obs: Option<PeObs>,
    pub(super) ft_bytes: u64,
    /// (envelopes, bytes) it delivered to itself through its own queue, and
    /// that queue's depth and byte high-water marks.
    pub(super) local_traffic: (u64, u64),
    pub(super) local_depth: usize,
    pub(super) local_bytes: u64,
    /// The job-wide tallies its node kept (they mean something on PE 0).
    pub(super) host: HostRow,
    pub(super) node: Option<Node>,
}

impl PeResult {
    /// Placeholder for a thread that could not be joined.
    pub(super) fn lost(pe: Pe) -> Self {
        PeResult {
            pe,
            busy: Dur::ZERO,
            messages: 0,
            obs: None,
            ft_bytes: 0,
            local_traffic: (0, 0),
            local_depth: 0,
            local_bytes: 0,
            host: HostRow::default(),
            node: None,
        }
    }
}

/// Per-PE liveness flags shared with the watchdog.
pub(super) const PE_ALIVE: u8 = 0;
pub(super) const PE_CRASHED: u8 = 1;
pub(super) const PE_PANICKED: u8 = 2;

/// Shared wiring handed to every PE thread.
pub(super) struct ThreadCtl {
    pub(super) agg: Arc<Aggregator>,
    pub(super) stop: Arc<AtomicBool>,
    pub(super) exit_announced: Arc<AtomicBool>,
    pub(super) end_ns: Arc<AtomicU64>,
    pub(super) decode_rejected: Arc<AtomicU64>,
    pub(super) status: Arc<Vec<AtomicU8>>,
    pub(super) last_heard: Arc<Vec<AtomicU64>>,
    pub(super) t0: Instant,
    pub(super) topo: Topology,
    pub(super) record_on: bool,
    pub(super) obs_cfg: ObsConfig,
    /// Current → original PE numbering for this generation; recorders log
    /// in original numbers so generations concatenate.
    pub(super) orig_map: Arc<Vec<Pe>>,
    pub(super) compute_sleep: bool,
    /// Heartbeat cadence; `None` disables liveness traffic (no failure plan).
    pub(super) hb_interval: Option<Duration>,
    /// This PE's injected crash, translated to the current generation: its
    /// numbering, and what is left of a message count.
    pub(super) crash: Option<CrashTrigger>,
    /// Set to (epoch + 1) by PE 0 when a buddy-checkpoint epoch completes
    /// cluster-wide; the watchdog admits pending joins only when non-zero,
    /// so the widened cluster always has a snapshot to restart from.
    pub(super) ckpt_done: Arc<AtomicU64>,
}

pub(super) fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl ThreadedEngine {
    /// An engine over `topo` with injected latencies `tcfg`.
    pub fn new(topo: Topology, tcfg: ThreadedConfig, cfg: RunConfig) -> Self {
        ThreadedEngine { topo, tcfg, cfg }
    }

    /// Run `program` until it exits (or the wall-clock safety limit, which
    /// ends the run with [`mdo_netsim::UnrecoverableError::DeadlineExceeded`]).
    ///
    /// The generation loop itself — launch, watchdog, recovery, report —
    /// lives in [`super::net`] and is the same whether [`RunConfig::net`]
    /// keeps the job in this process or spreads it one process per
    /// cluster.  Transport-level failures (rendezvous, handshake, a dead
    /// peer) abort loudly here; callers that want them structured use
    /// [`super::net::run_multi_process`] directly.
    pub fn run(self, program: Program) -> RunReport {
        match super::net::run_multi_process(self.topo, self.tcfg, self.cfg, program) {
            Ok(report) => report,
            Err(e) => panic!("multi-process run failed: {e}"),
        }
    }
}

/// Distribute the measured wall time of one handler execution over its
/// charged spans (proportionally), so threaded timelines keep the same
/// span structure the virtual-time engine records.  Uncharged executions
/// book the whole wall time on the first span (or an anonymous one).
fn record_spans(rec: &mut PeRecorder, outcome: &HandleOutcome, start: Time, took: Dur) {
    if outcome.spans.is_empty() {
        rec.handler(None, start, start + took);
        return;
    }
    let charged = outcome.charged.as_nanos();
    let mut cursor = start;
    for (i, (obj, d)) in outcome.spans.iter().enumerate() {
        let w = if charged == 0 {
            if i == 0 {
                took
            } else {
                Dur::ZERO
            }
        } else {
            Dur::from_nanos((took.as_nanos() as u128 * d.as_nanos() as u128 / charged as u128) as u64)
        };
        rec.handler((*obj).map(ObjTag::from), cursor, cursor + w);
        cursor += w;
    }
}

pub(super) fn pe_thread(pe: Pe, mut node: Node, ctl: ThreadCtl) -> PeResult {
    let mut busy = Dur::ZERO;
    let mut hooks = ThreadHooks {
        t0: ctl.t0,
        pe,
        agg: Arc::clone(&ctl.agg),
        rec: PeRecorder::maybe(ctl.record_on, ctl.orig_map[pe.index()].0, &ctl.obs_cfg),
        orig: Arc::clone(&ctl.orig_map),
        topo: ctl.topo.clone(),
        local: SchedQueue::new(),
        local_traffic: (0, 0),
    };
    let mut died = false;
    let mut idle_pending = false;
    let mut last_hb: Option<Instant> = None;
    let mut sheds_seen = 0u64;
    // A packet taken from the mailbox that a more urgent self-send overtook.
    let mut held = None;
    loop {
        // Quiescence reconciliation: a shed envelope was counted as sent
        // at its origin but will never be delivered; PE 0 folds the delta
        // into the books so the sent/processed sums can still balance.
        if pe == Pe(0) {
            let shed = ctl.agg.sheds_total();
            if shed > sheds_seen {
                node.note_sheds(shed - sheds_seen);
                sheds_seen = shed;
            }
        }
        // An injected crash kills the thread silently: no goodbye message,
        // no flushing — the failure detector has to notice on its own.
        if let Some(trigger) = ctl.crash {
            let due = match trigger {
                CrashTrigger::AtTime(at) => ctl.t0.elapsed() >= at.to_std(),
                CrashTrigger::AfterMessages(n) => node.messages_processed() >= n,
            };
            if due {
                ctl.status[pe.index()].store(PE_CRASHED, Ordering::Release);
                died = true;
                break;
            }
        }
        if let Some(interval) = ctl.hb_interval {
            if pe == Pe(0) {
                // The detector runs next to PE 0, which refreshes its own
                // slot directly instead of mailing itself.
                ctl.last_heard[0].store(elapsed_ns(ctl.t0), Ordering::Release);
            } else if last_hb.is_none_or(|t| t.elapsed() >= interval) {
                last_hb = Some(Instant::now());
                let hb = Envelope {
                    src: pe,
                    dst: Pe(0),
                    priority: SYSTEM_PRIORITY,
                    sent_at_ns: elapsed_ns(ctl.t0),
                    body: MsgBody::Heartbeat,
                };
                ctl.agg.send_with(pe, Pe(0), SYSTEM_PRIORITY, true, |buf| hb.encode_into(buf));
            }
        }
        if ctl.stop.load(Ordering::Acquire) {
            // Drain whatever is already queued, then leave.
            if ctl.agg.try_recv(pe).is_none() {
                break;
            }
        }
        // The mailbox first, without writing the cork: what another PE sent
        // may have crossed the wide area and unlocks cross-cluster sends.
        // Then the PE's own queue; only with both empty does the thread
        // block, and the blocking receive flushes before it sleeps.
        let mut pkt = held.take().or_else(|| ctl.agg.try_recv(pe));
        // First on a tie, that is: an explicit priority orders a self-send
        // against other PEs' traffic as the simulator's one queue does, and
        // the packet waits in hand while the more urgent envelope runs.
        if pkt.as_ref().is_some_and(|p| hooks.local.front_priority().is_some_and(|own| own < p.priority)) {
            held = pkt.take();
        }
        if pkt.is_none() && hooks.local.is_empty() {
            pkt = ctl.agg.recv_timeout(pe, Duration::from_millis(20));
            if pkt.is_none() {
                // Both ran dry after real work: a busy→idle transition.
                if idle_pending {
                    idle_pending = false;
                    hooks.rec.idle(Time::from_nanos(elapsed_ns(ctl.t0)));
                }
                continue;
            }
        }
        let (env, wire_bytes) = match pkt {
            // Borrowing decode: the envelope's payload fields alias the packet
            // (and, for coalesced traffic, the whole frame's) allocation.
            Some(pkt) => match Envelope::decode_shared(&pkt.payload) {
                Ok(env) => (env, pkt.payload.len() as u64),
                Err(e) => {
                    // A packet that survived the transport but does not parse
                    // is rejected and counted, never fatal: with fault
                    // injection the sender's retransmission carries an intact
                    // copy, and without it one bad packet must not take down
                    // the whole PE.
                    ctl.decode_rejected.fetch_add(1, Ordering::Relaxed);
                    eprintln!("mdo-pe{}: dropping undecodable packet from {}: {e:?}", pe.0, pkt.src);
                    continue;
                }
            },
            None => {
                let env = hooks.local.pop().expect("nothing taken from the mailbox, so the own queue is not empty");
                let bytes = env.wire_size();
                (env, bytes)
            }
        };
        if ctl.hb_interval.is_some() && pe == Pe(0) && matches!(env.body, MsgBody::Heartbeat) {
            ctl.last_heard[env.src.index()].store(elapsed_ns(ctl.t0), Ordering::Release);
            continue;
        }
        let started = Instant::now();
        let start_time = Time::from_nanos(elapsed_ns(ctl.t0));
        let sent_at = Time::from_nanos(env.sent_at_ns);
        let (src, dst) = (env.src, env.dst);
        let sys = env.priority == SYSTEM_PRIORITY;
        // Panic isolation: a handler that panics takes down its PE, not
        // the process — the watchdog sees the flag and either recovers
        // (failure plan armed) or surfaces a structured error.
        let outcome = match catch_unwind(AssertUnwindSafe(|| node.handle(env, &mut hooks))) {
            Ok(outcome) => outcome,
            Err(_) => {
                ctl.status[pe.index()].store(PE_PANICKED, Ordering::Release);
                died = true;
                break;
            }
        };
        if let Some(epoch) = outcome.ckpt_complete {
            ctl.ckpt_done.store(epoch as u64 + 1, Ordering::Release);
        }
        if ctl.compute_sleep && !outcome.charged.is_zero() {
            // What the handler sent must not wait out the sleep in a cork.
            ctl.agg.inner().flush_wire(pe);
            std::thread::sleep(outcome.charged.to_std());
        }
        let took = Dur::from_std(started.elapsed());
        busy += took;
        if hooks.rec.is_on() {
            hooks.rec.recv(
                start_time,
                ctl.orig_map[src.index()].0,
                sent_at,
                wire_bytes,
                ctl.topo.crosses_wan(src, dst),
                sys,
            );
            record_spans(&mut hooks.rec, &outcome, start_time, took);
            if let Some(epoch) = outcome.ckpt_epoch {
                hooks.rec.checkpoint(start_time, epoch);
            }
            idle_pending = true;
        }
        if outcome.exit && !ctl.exit_announced.swap(true, Ordering::AcqRel) {
            ctl.end_ns.store(elapsed_ns(ctl.t0), Ordering::Release);
            // Tell everyone (including ourselves — harmless) to stop.
            for dst in ctl.topo.pes() {
                let bye = Envelope { src: pe, dst, priority: SYSTEM_PRIORITY, sent_at_ns: 0, body: MsgBody::Exit };
                ctl.agg.send_with(pe, dst, SYSTEM_PRIORITY, true, |buf| bye.encode_into(buf));
            }
            ctl.stop.store(true, Ordering::Release);
        }
        if outcome.exit {
            break;
        }
    }
    // This thread polls no more: nothing it corked (the `Exit` broadcast,
    // a last ack) may stay behind.
    ctl.agg.inner().flush_wire(pe);
    PeResult {
        pe,
        busy,
        messages: node.messages_processed(),
        obs: ctl.record_on.then(|| hooks.rec.finish()),
        ft_bytes: node.ft_bytes_stored(),
        local_traffic: hooks.local_traffic,
        local_depth: hooks.local.max_depth(),
        local_bytes: hooks.local.max_bytes(),
        host: HostRow::of(&node),
        node: (!died).then_some(node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chare::{Chare, Ctx};
    use crate::envelope::{ReduceData, ReduceOp};
    use crate::ids::{ElemId, EntryId};
    use crate::mapping::Mapping;
    use crate::program::LbChoice;
    use crate::wire::{WireReader, WireWriter};
    use bytes::Bytes;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    const PING: EntryId = EntryId(1);

    struct PingPong {
        rounds_left: u32,
    }

    impl Chare for PingPong {
        fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
            let peer = ElemId(1 - ctx.my_elem().0);
            if ctx.my_elem().0 == 1 {
                // responder: always reply
                ctx.send(ctx.me().array, peer, PING, vec![]);
            } else if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.send(ctx.me().array, peer, PING, vec![]);
            } else {
                ctx.exit();
            }
        }
    }

    fn pingpong_wall(cross: Dur, rounds: u32) -> Dur {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, cross);
        let mut p = Program::new();
        let arr =
            p.array("pp", 2, Mapping::Block, move |_| Box::new(PingPong { rounds_left: rounds }) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), PING, vec![]));
        let engine = ThreadedEngine::new(topo, ThreadedConfig::new(latency), RunConfig::default());
        let report = engine.run(p);
        report.end_time - Time::ZERO
    }

    #[test]
    fn real_delay_device_shapes_wall_time() {
        // 5 rounds * 2 crossings * 10 ms = ≥100 ms of injected latency.
        let slow = pingpong_wall(Dur::from_millis(10), 5);
        assert!(slow >= Dur::from_millis(100), "injected latency must dominate wall time, got {slow}");
        let fast = pingpong_wall(Dur::ZERO, 5);
        assert!(fast < Dur::from_millis(100), "no injected latency: quick, got {fast}");
    }

    #[test]
    fn reduction_and_broadcast_work_over_threads() {
        static SUM: Mutex<f64> = Mutex::new(0.0);
        *SUM.lock().unwrap() = 0.0;
        struct One;
        impl Chare for One {
            fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                ctx.charge(Dur::from_micros(10));
                ctx.contribute_f64(ReduceOp::SumF64, &[1.0 + ctx.my_elem().0 as f64]);
            }
        }
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(1));
        let mut p = Program::new();
        let arr = p.array("ones", 16, Mapping::RoundRobin, |_| Box::new(One) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.broadcast(arr, PING, vec![]));
        p.on_reduction(arr, |_s, d, ctl| {
            if let ReduceData::F64(v) = d {
                *SUM.lock().unwrap() = v[0];
            }
            ctl.exit();
        });
        let report = ThreadedEngine::new(topo, ThreadedConfig::new(latency), RunConfig::default()).run(p);
        assert_eq!(*SUM.lock().unwrap(), (1..=16).sum::<i32>() as f64);
        assert!(report.network.cross_messages > 0);
    }

    #[test]
    fn migration_under_threads() {
        static SUM: AtomicU64 = AtomicU64::new(0);
        SUM.store(0, Ordering::SeqCst);
        struct Mover {
            value: u64,
        }
        impl Chare for Mover {
            fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                ctx.at_sync();
            }
            fn pack(&self, w: &mut WireWriter) {
                w.u64(self.value);
            }
            fn resume_from_sync(&mut self, ctx: &mut Ctx<'_>) {
                ctx.contribute_u64_sum(&[self.value]);
            }
        }
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(500));
        let mut p = Program::new();
        let arr = p.array_migratable(
            "movers",
            8,
            Mapping::Block,
            |e| Box::new(Mover { value: 10 + e.0 as u64 }),
            |_, r| Box::new(Mover { value: r.u64().unwrap() }),
        );
        p.on_startup(move |ctl| ctl.broadcast(arr, PING, vec![]));
        p.on_reduction(arr, |_s, d, ctl| {
            if let ReduceData::U64(v) = d {
                SUM.store(v[0], Ordering::SeqCst);
            }
            ctl.exit();
        });
        let cfg = RunConfig { lb: LbChoice::Rotate, ..RunConfig::default() };
        let report = ThreadedEngine::new(topo, ThreadedConfig::new(latency), cfg).run(p);
        assert_eq!(SUM.load(Ordering::SeqCst), (10..18).sum::<u64>());
        assert_eq!(report.migrations, 8);
        assert_eq!(report.lb_rounds, 1);
    }

    #[test]
    fn payloads_cross_real_byte_transport() {
        const ECHO: EntryId = EntryId(9);
        struct Echo;
        impl Chare for Echo {
            fn receive(&mut self, _e: EntryId, p: &[u8], ctx: &mut Ctx<'_>) {
                let mut r = WireReader::new(p);
                assert_eq!(r.str().unwrap(), "over the wire");
                assert_eq!(r.f64_vec().unwrap(), vec![2.5; 100]);
                ctx.exit();
            }
        }
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(200));
        let mut p = Program::new();
        let arr = p.array("echo", 2, Mapping::Block, |_| Box::new(Echo) as Box<dyn Chare>);
        p.on_startup(move |ctl| {
            let mut w = WireWriter::new();
            w.str("over the wire").f64_slice(&[2.5; 100]);
            ctl.send(arr, ElemId(1), ECHO, w.finish());
        });
        let report = ThreadedEngine::new(topo, ThreadedConfig::new(latency), RunConfig::default()).run(p);
        assert!(report.end_time > Time::ZERO);
    }

    /// A message an object sends to a neighbour on its own PE arrives as the
    /// buffer it was sent in — never encoded, never copied — just as a
    /// forwarded one does in `node.rs`; one that crosses to another PE of
    /// the same process is a view of its encoded packet, not that buffer.
    #[test]
    fn a_self_addressed_payload_is_delivered_as_the_buffer_it_was_sent_in() {
        const RELAY: EntryId = EntryId(2);
        static SENT_AT: AtomicU64 = AtomicU64::new(0);
        static SAME_PE_SAW: AtomicU64 = AtomicU64::new(0);
        static OTHER_PE_SAW: AtomicU64 = AtomicU64::new(0);
        struct Relay;
        impl Chare for Relay {
            fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
                match (entry, ctx.my_elem().0) {
                    (PING, _) => {
                        let kept = Bytes::from(b"kept".to_vec());
                        SENT_AT.store(kept.as_ptr() as u64, Ordering::SeqCst);
                        // Elements 0 and 1 share PE 0; element 2 is on PE 1.
                        ctx.multicast(ctx.me().array, &[ElemId(1), ElemId(2)], RELAY, kept);
                    }
                    (_, 1) => {
                        assert_eq!(payload, b"kept");
                        SAME_PE_SAW.store(payload.as_ptr() as u64, Ordering::SeqCst);
                    }
                    _ => {
                        assert_eq!(payload, b"kept");
                        OTHER_PE_SAW.store(payload.as_ptr() as u64, Ordering::SeqCst);
                        ctx.exit();
                    }
                }
            }
        }
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(2));
        let mut p = Program::new();
        let arr = p.array("relay", 4, Mapping::Block, |_| Box::new(Relay) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), PING, vec![]));
        ThreadedEngine::new(topo, ThreadedConfig::new(latency), RunConfig::default()).run(p);
        let sent = SENT_AT.load(Ordering::SeqCst);
        assert_eq!(SAME_PE_SAW.load(Ordering::SeqCst), sent, "the PE's own queue holds the envelope itself");
        assert_ne!(OTHER_PE_SAW.load(Ordering::SeqCst), sent, "across PEs the bytes are a packet's");
    }

    /// Mailbox first, then the PE's own queue in priority order: with a
    /// thousand default-priority self-sends queued on PE 1 (50 ms of work),
    /// an explicit `send_prio` self-send queued after them runs before any
    /// of them, and both a packet from another PE (PE 0's answer to a PING)
    /// and system-priority traffic (the load-balancing barrier's
    /// `LbAssign` / `LbResume` from PE 0) are served as they arrive, not
    /// after the backlog.
    #[test]
    fn mailbox_traffic_and_priorities_overtake_queued_self_sends() {
        const WORK: EntryId = EntryId(2);
        const URGENT: EntryId = EntryId(3);
        const PONG: EntryId = EntryId(4);
        const BACKLOG: u32 = 1000;
        static WORKED: AtomicU64 = AtomicU64::new(0);
        static AT_URGENT: AtomicU64 = AtomicU64::new(u64::MAX);
        static AT_PONG: AtomicU64 = AtomicU64::new(u64::MAX);
        static AT_RESUME: AtomicU64 = AtomicU64::new(u64::MAX);
        struct Busy;
        impl Chare for Busy {
            fn receive(&mut self, entry: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                let (arr, me) = (ctx.me().array, ctx.my_elem());
                match entry {
                    // The broadcast that starts everyone.  Element 2 (PE 1)
                    // floods itself; the rest only join the barrier.
                    PING if me == ElemId(2) => {
                        for _ in 0..BACKLOG {
                            ctx.send(arr, me, WORK, vec![]);
                        }
                        ctx.send_prio(arr, me, URGENT, vec![], -1);
                        ctx.send(arr, ElemId(0), PONG, vec![]);
                        ctx.at_sync();
                    }
                    PING => ctx.at_sync(),
                    WORK => {
                        let spin = Instant::now();
                        while spin.elapsed() < Duration::from_micros(50) {
                            std::hint::spin_loop();
                        }
                        if WORKED.fetch_add(1, Ordering::SeqCst) + 1 == u64::from(BACKLOG) {
                            ctx.exit();
                        }
                    }
                    URGENT => AT_URGENT.store(WORKED.load(Ordering::SeqCst), Ordering::SeqCst),
                    // PE 0 bounces it back; on PE 1 it is the packet from another PE.
                    PONG if me == ElemId(0) => ctx.send(arr, ElemId(2), PONG, vec![]),
                    PONG => AT_PONG.store(WORKED.load(Ordering::SeqCst), Ordering::SeqCst),
                    _ => unreachable!("no such entry"),
                }
            }
            fn resume_from_sync(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.my_elem() == ElemId(2) {
                    AT_RESUME.store(WORKED.load(Ordering::SeqCst), Ordering::SeqCst);
                }
            }
        }
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let mut p = Program::new();
        let arr = p.array("busy", 4, Mapping::Block, |_| Box::new(Busy) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.broadcast(arr, PING, vec![]));
        let report = ThreadedEngine::new(topo, ThreadedConfig::new(latency), RunConfig::default()).run(p);
        assert_eq!(WORKED.load(Ordering::SeqCst), u64::from(BACKLOG));
        assert_eq!(AT_URGENT.load(Ordering::SeqCst), 0, "priority −1 before every priority-0 self-send");
        let (pong, resume) = (AT_PONG.load(Ordering::SeqCst), AT_RESUME.load(Ordering::SeqCst));
        assert!(pong < u64::from(BACKLOG) / 2, "the packet from PE 0 waited out {pong} of {BACKLOG} self-sends");
        assert!(resume < u64::from(BACKLOG) / 2, "the barrier waited out {resume} of {BACKLOG} self-sends");
        // Half the backlog moved out of the mailbox; the depth the report
        // shows did not halve with it.
        assert!(report.pe_max_queue_depth[1] > BACKLOG as usize, "{:?}", report.pe_max_queue_depth);
    }

    /// An explicit priority orders a self-send against another PE's traffic
    /// too, as on the simulator: PE 1 spins until PE 0's default-priority
    /// packet is in its mailbox, then sends itself one at priority −1 and one
    /// at the default.  −1 runs before the packet; the packet, on the tie,
    /// before the default self-send.
    #[test]
    fn an_urgent_self_send_overtakes_a_default_priority_packet_from_another_pe() {
        const URGENT: EntryId = EntryId(2);
        const PLAIN: EntryId = EntryId(3);
        const OTHER: EntryId = EntryId(4);
        static ORDER: Mutex<Vec<EntryId>> = Mutex::new(Vec::new());
        struct Chooser;
        impl Chare for Chooser {
            fn receive(&mut self, entry: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                let (arr, me) = (ctx.me().array, ctx.my_elem());
                match entry {
                    PING if me == ElemId(0) => ctx.send(arr, ElemId(1), OTHER, vec![]),
                    PING => {
                        std::thread::sleep(Duration::from_millis(100));
                        ctx.send(arr, me, PLAIN, vec![]);
                        ctx.send_prio(arr, me, URGENT, vec![], -1);
                    }
                    _ => {
                        let mut order = ORDER.lock().unwrap();
                        order.push(entry);
                        if order.len() == 3 {
                            ctx.exit();
                        }
                    }
                }
            }
        }
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let mut p = Program::new();
        let arr = p.array("chooser", 2, Mapping::Block, |_| Box::new(Chooser) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.broadcast(arr, PING, vec![]));
        ThreadedEngine::new(topo, ThreadedConfig::new(latency), RunConfig::default()).run(p);
        assert_eq!(*ORDER.lock().unwrap(), vec![URGENT, OTHER, PLAIN]);
    }

    #[test]
    fn lossy_wan_still_computes_the_exact_reduction() {
        use mdo_netsim::FaultPlan;
        static SUM: Mutex<f64> = Mutex::new(0.0);
        *SUM.lock().unwrap() = 0.0;
        struct One;
        impl Chare for One {
            fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                ctx.contribute_f64(ReduceOp::SumF64, &[1.0 + ctx.my_elem().0 as f64]);
            }
        }
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(1));
        let mut p = Program::new();
        let arr = p.array("ones", 16, Mapping::RoundRobin, |_| Box::new(One) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.broadcast(arr, PING, vec![]));
        p.on_reduction(arr, |_s, d, ctl| {
            if let ReduceData::F64(v) = d {
                *SUM.lock().unwrap() = v[0];
            }
            ctl.exit();
        });
        // Drop a quarter of the WAN traffic, duplicate and reorder some
        // more, and flip bytes in a few packets: the reliable layer must
        // hide all of it from the application.
        let plan = FaultPlan::loss(0.25)
            .with_duplicate(0.1)
            .with_reorder(0.1)
            .with_corrupt(0.05)
            .with_seed(42)
            .with_rto(Dur::from_millis(20));
        let cfg = RunConfig { fault_plan: Some(plan), ..RunConfig::default() };
        let report = ThreadedEngine::new(topo, ThreadedConfig::new(latency), cfg).run(p);
        assert_eq!(*SUM.lock().unwrap(), (1..=16).sum::<i32>() as f64);
        assert!(report.transport_error.is_none());
        assert!(
            report.faults.dropped + report.faults.corrupt_rejected > 0,
            "the plan injected faults: {:?}",
            report.faults
        );
        assert!(report.faults.retransmits > 0, "recovery ran: {:?}", report.faults);
    }

    #[test]
    fn total_loss_surfaces_transport_error_not_hang() {
        use mdo_netsim::FaultPlan;
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let mut p = Program::new();
        let arr = p.array("pp", 2, Mapping::Block, |_| Box::new(PingPong { rounds_left: 2 }) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), PING, vec![]));
        let plan = FaultPlan::loss(1.0).with_rto(Dur::from_millis(5)).with_max_retries(2);
        let tcfg = ThreadedConfig { latency, max_wall: Duration::from_secs(10), compute_sleep: false };
        let cfg = RunConfig { fault_plan: Some(plan), ..RunConfig::default() };
        let started = Instant::now();
        let report = ThreadedEngine::new(topo, tcfg, cfg).run(p);
        let err = report.transport_error.expect("retry exhaustion must surface");
        assert_eq!(err.attempts, 3);
        assert!(started.elapsed() < Duration::from_secs(8), "engine wound down on the error, not the watchdog ceiling");
    }

    #[test]
    fn chare_panic_is_a_structured_error_not_a_process_abort() {
        // A handler that panics takes down only its PE: the engine catches
        // the unwind, winds the run down, and — with no failure plan to
        // authorize recovery — reports a structured error instead of
        // propagating the panic out of `run`.
        struct Exploder;
        impl Chare for Exploder {
            fn receive(&mut self, _e: EntryId, _p: &[u8], _c: &mut Ctx<'_>) {
                panic!("injected chare failure");
            }
        }
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let mut p = Program::new();
        let arr = p.array("boom", 2, Mapping::Block, |_| Box::new(Exploder) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(1), PING, vec![]));
        let tcfg = ThreadedConfig { latency, max_wall: Duration::from_secs(10), compute_sleep: false };
        let started = Instant::now();
        let report = ThreadedEngine::new(topo, tcfg, RunConfig::default()).run(p);
        match report.unrecoverable {
            Some(mdo_netsim::UnrecoverableError::NoFailurePlan { pe }) => assert_eq!(pe, Pe(1)),
            other => panic!("expected NoFailurePlan, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(8), "engine wound down on the panic, not the watchdog");
    }

    #[test]
    fn watchdog_stops_hung_program() {
        struct Silent;
        impl Chare for Silent {
            fn receive(&mut self, _e: EntryId, _p: &[u8], _c: &mut Ctx<'_>) {
                // Never replies, never exits: the program hangs.
            }
        }
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let mut p = Program::new();
        let arr = p.array("s", 2, Mapping::Block, |_| Box::new(Silent) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(1), PING, vec![]));
        let tcfg = ThreadedConfig { latency, max_wall: Duration::from_millis(200), compute_sleep: false };
        let started = Instant::now();
        let report = ThreadedEngine::new(topo, tcfg, RunConfig::default()).run(p);
        assert!(started.elapsed() < Duration::from_millis(1200), "watchdog fired within max_wall + 1 s");
        assert_eq!(
            report.unrecoverable,
            Some(mdo_netsim::UnrecoverableError::DeadlineExceeded),
            "never a clean report"
        );
        assert!(report.transport_error.is_none());
    }
}
