//! Fault injection and reliable delivery, end to end.
//!
//! The paper's Grid experiments assume VMI delivers every message; this
//! suite checks what the reproduction adds on top — an adversarial WAN
//! (drop / duplicate / reorder / corrupt, one draw keyed by each attempt)
//! and the reliable layer that hides it.  The headline invariant: a lossy run
//! must be **bit-identical** to a fault-free run on both engines, with
//! the damage visible only in the fault counters and the makespan.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::apps::stencil::{self, seq::SeqStencil, StencilConfig, StencilCost};
use gridmdo::netsim::{Fate, FaultWire, WireStats};
use gridmdo::obs::Event;
use gridmdo::prelude::*;
use gridmdo::vmi::arq::Sender;
use gridmdo::vmi::reliable::{decode_frame, HEADER_LEN, KIND_DATA};
use gridmdo::vmi::{jittered_backoff, Packet, ReliableTransport, Transport, TransportConfig, Wire, WireBinding};
use proptest::prelude::*;

fn small_stencil(objects: usize, steps: u32, mesh: usize) -> StencilConfig {
    StencilConfig {
        mesh,
        objects,
        steps,
        compute: true,
        cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
        mapping: Mapping::Block,
        lb_period: None,
    }
}

fn seq_reference(cfg: &StencilConfig) -> Vec<f64> {
    let mut reference = SeqStencil::new(cfg.mesh);
    reference.run(cfg.steps);
    reference.block_sums(cfg.k())
}

fn assert_bit_exact(got: &[f64], want: &[f64], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: block count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: block {i} must be bit-identical");
    }
}

/// A reliable channel over a transport whose fault wire injects the given
/// faults (a corrupted attempt is dropped at the wire).
fn lossy_channel(plan: FaultPlan) -> Arc<ReliableTransport> {
    let topo = Topology::two_cluster(2);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
    let mut cfg = TransportConfig::new(topo, latency);
    cfg.fault = Some(plan.clone());
    ReliableTransport::with_plan(Transport::new(cfg), plan)
}

/// A wire that keeps every packet written to it.
#[derive(Default)]
struct RecordingWire(Mutex<Vec<Packet>>);

impl Wire for RecordingWire {
    fn send(&self, pkt: Packet) {
        self.0.lock().unwrap().push(pkt);
    }
}

/// Sends `n` 8-byte messages from PE 0 (local) to PE 1 (across a recording
/// wire) through the reliable layer over a fault wire running `plan`;
/// returns what reached the wire and what the fault wire did.
fn frames_on_the_wire(plan: FaultPlan, n: u64) -> (Vec<Packet>, WireStats) {
    let topo = Topology::two_cluster(2);
    let mut cfg = TransportConfig::new(topo.clone(), LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO));
    let wire = Arc::new(RecordingWire::default());
    cfg.fault = Some(plan.clone());
    cfg.wire = Some(WireBinding::new(Arc::clone(&wire) as Arc<dyn Wire>, &[Pe(0)], 2));
    // No ack ever comes back, and the rto is far off: every packet on the
    // wire is a first attempt.
    let rt = ReliableTransport::with_plan(Transport::new(cfg), plan.with_rto(Dur::from_secs(4)));
    for i in 0..n {
        rt.send(Packet::new(Pe(0), Pe(1), i.to_le_bytes().to_vec().into()));
    }
    rt.shutdown();
    rt.inner().shutdown();
    let sent = std::mem::take(&mut *wire.0.lock().unwrap());
    (sent, rt.inner().wire_stats())
}

/// Under a fault plan a cross-WAN packet meets the fault wire, then the
/// delay stamp, and nothing else: each data frame reaches the wire as its
/// header and its payload, intact, and an attempt the wire corrupts never
/// reaches it at all — it is dropped and counted, as the simulator drops
/// it.
#[test]
fn under_a_fault_plan_only_intact_bare_frames_reach_the_wire() {
    let plan = FaultPlan::loss(0.2).with_duplicate(0.2).with_reorder(0.2).with_corrupt(0.2).with_seed(43);
    let (sent, stats) = frames_on_the_wire(plan, 200);
    assert!(stats.dropped > 0 && stats.corrupted > 0 && stats.duplicated > 0 && stats.reordered > 0, "{stats:?}");
    let held = 200 - stats.dropped - stats.corrupted + stats.duplicated - sent.len() as u64;
    assert!(held <= 1, "only the reorder stash may hold a frame back, {held} held");
    for pkt in &sent {
        assert_eq!(pkt.payload.len(), HEADER_LEN + 8, "no trailer rides along");
        let (kind, seq, body) = decode_frame(&pkt.payload).expect("a data frame");
        assert_eq!((kind, body), (KIND_DATA, &seq.to_le_bytes()[..]), "frame {seq} is intact");
    }

    let (sent, stats) = frames_on_the_wire(FaultPlan::default().with_corrupt(1.0), 32);
    assert!(sent.is_empty(), "no corrupted frame reaches the wire: {} did", sent.len());
    assert_eq!(stats, WireStats { corrupted: 32, ..WireStats::default() });
}

proptest! {
    /// Exactly-once, in-order delivery holds for *any* mix of drop,
    /// duplication, reordering and corruption (kept below the retry
    /// ceiling's reach) and any seed.
    #[test]
    fn reliable_channel_exactly_once_in_order(
        drop_pct in 0u32..25,
        dup_pct in 0u32..12,
        reorder_pct in 0u32..12,
        corrupt_pct in 0u32..8,
        seed in any::<u64>(),
        n in 3u64..14,
    ) {
        let plan = FaultPlan::loss(drop_pct as f64 / 100.0)
            .with_duplicate(dup_pct as f64 / 100.0)
            .with_reorder(reorder_pct as f64 / 100.0)
            .with_corrupt(corrupt_pct as f64 / 100.0)
            .with_seed(seed)
            .with_rto(Dur::from_millis(4));
        let rt = lossy_channel(plan);
        for i in 0..n {
            rt.send(Packet::new(Pe(0), Pe(1), i.to_le_bytes().to_vec().into()));
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while (got.len() as u64) < n && Instant::now() < deadline {
            if let Some(p) = rt.recv_timeout(Pe(1), Duration::from_millis(20)) {
                got.push(u64::from_le_bytes(p.payload[..8].try_into().unwrap()));
            }
        }
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
        prop_assert!(rt.error().is_none());
        rt.shutdown();
        rt.inner().shutdown();
    }

    /// The reliable protocol both engines run obeys the retry budget over
    /// the one fault wire: every message either gets through within
    /// `max_retries` retransmissions (arriving later than it was sent
    /// exactly when some attempt failed) or is given up after exactly
    /// `max_retries + 1` transmissions, with its own sequence number —
    /// and every lost attempt is answered by one retransmission or by
    /// the give-up.
    #[test]
    fn sim_fault_oracle_respects_the_retry_budget(
        drop_pct in 0u32..=100,
        seed in any::<u64>(),
        max_retries in 1u32..6,
        msgs in 1usize..40,
    ) {
        let plan = FaultPlan::loss(drop_pct as f64 / 100.0)
            .with_seed(seed)
            .with_rto(Dur::from_millis(7))
            .with_max_retries(max_retries);
        let mut wire = FaultWire::new(plan.clone());
        let mut tx = Sender::new(Pe(0), Pe(1));
        let (mut retransmits, mut gave_up) = (0u64, 0u64);
        let mut now = Time::ZERO;
        for _ in 0..msgs {
            let (seq, sent) = (tx.next_seq(), now);
            let mut due = tx.send((), now, plan.rto);
            let mut fate = wire.transmit(Pe(0), Pe(1), seq, 0, Dur::ZERO, ());
            let mut tries = 0u32;
            while fate == Fate::Lost {
                now = due;
                let mut resent = None;
                if let Some(err) = tx.on_timer(now, &plan, |s, a, _, d| resent = Some((s, a, d))) {
                    prop_assert_eq!(err.attempts, max_retries + 1);
                    prop_assert_eq!(err.seq, seq);
                    gave_up += 1;
                    break;
                }
                let (s, attempt, d) = resent.expect("the lost frame fell due");
                prop_assert_eq!((s, attempt), (seq, tries + 1));
                (due, tries) = (d, tries + 1);
                fate = wire.transmit(Pe(0), Pe(1), seq, attempt, Dur::ZERO, ());
            }
            retransmits += u64::from(tries);
            if gave_up > 0 {
                break;
            }
            prop_assert!(tries <= max_retries);
            prop_assert_eq!(tries > 0, now > sent);
            prop_assert_eq!(tx.on_ack(seq + 1, None).count(), 1);
        }
        prop_assert_eq!(wire.stats().dropped, retransmits + gave_up);
    }
}

/// Retransmission backoff carries deterministic per-pair jitter: two
/// pairs that lose packets on the same tick must not retransmit on
/// identical schedules (synchronized WAN bursts), yet each pair's
/// schedule is reproducible and stays within +25 % of the exponential
/// base.
#[test]
fn backoff_jitter_decorrelates_pairs_deterministically() {
    let seed = 0xFA_17; // the FaultPlan default
    let base = |r: u32| Dur::from_millis(50).checked_mul(1u64 << r).unwrap();
    let schedule =
        |src: Pe, dst: Pe| -> Vec<Dur> { (1..=6).map(|r| jittered_backoff(base(r), seed, src, dst, r)).collect() };

    let pair_a = schedule(Pe(0), Pe(2));
    let pair_b = schedule(Pe(1), Pe(3));
    assert_ne!(pair_a, pair_b, "two pairs must not share a retransmission schedule");
    assert!(pair_a.iter().zip(&pair_b).any(|(a, b)| a != b), "at least one retry tick differs between the pairs");
    for (r, (&a, &b)) in pair_a.iter().zip(&pair_b).enumerate() {
        let b0 = base(r as u32 + 1);
        let cap = Dur::from_nanos(b0.as_nanos() + b0.as_nanos() / 4);
        assert!(a >= b0 && a <= cap, "retry {r}: jitter within [base, base+25%], got {a} for base {b0}");
        assert!(b >= b0 && b <= cap, "retry {r}: jitter within [base, base+25%], got {b} for base {b0}");
    }
    assert_eq!(pair_a, schedule(Pe(0), Pe(2)), "the schedule is deterministic for a given seed");
    assert_ne!(
        (1..=6).map(|r| jittered_backoff(base(r), 7, Pe(0), Pe(2), r)).collect::<Vec<_>>(),
        pair_a,
        "a different fault-plan seed moves the schedule"
    );
}

/// The tentpole acceptance check, simulation side: a 5 % drop + dup +
/// reorder WAN yields a stencil field bit-identical to the fault-free
/// run, with nonzero recovery counters and a longer makespan.
#[test]
fn sim_stencil_bit_exact_under_faults() {
    let cfg = small_stencil(16, 7, 32);
    let want = seq_reference(&cfg);

    let run = |plan: Option<FaultPlan>| {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(8));
        let rc = RunConfig { fault_plan: plan, ..RunConfig::default() };
        stencil::run_sim(cfg.clone(), net, rc)
    };
    let clean = run(None);
    let plan =
        FaultPlan::loss(0.05).with_duplicate(0.05).with_reorder(0.05).with_seed(2005).with_rto(Dur::from_millis(12));
    let faulty = run(Some(plan));

    assert_bit_exact(&clean.block_sums, &want, "fault-free sim");
    assert_bit_exact(&faulty.block_sums, &want, "faulty sim");
    assert!(faulty.report.transport_error.is_none());
    assert!(faulty.report.counters.get(Ctr::Drops) > 0, "faults occurred: {:?}", faulty.report.counters);
    assert!(faulty.report.counters.get(Ctr::Retransmits) > 0, "and were recovered from");
    assert!(faulty.total > clean.total, "recovery shows in the makespan: {} !> {}", faulty.total, clean.total);
}

/// Same check on the threaded engine, where loss/dup/reorder/corrupt
/// happen to real packets in the VMI transport and recovery is the
/// live ack/retransmit protocol.
#[test]
fn threaded_stencil_bit_exact_under_faults() {
    let cfg = small_stencil(4, 5, 32);
    let want = seq_reference(&cfg);
    let topo = Topology::two_cluster(2);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(2));
    let plan = FaultPlan::loss(0.1)
        .with_duplicate(0.08)
        .with_reorder(0.08)
        .with_corrupt(0.05)
        .with_seed(1964)
        .with_rto(Dur::from_millis(20));
    let rc = RunConfig { fault_plan: Some(plan), ..RunConfig::default() };
    let out = stencil::run_threaded(cfg, topo, latency, rc);

    assert_bit_exact(&out.block_sums, &want, "faulty threaded");
    assert!(out.report.transport_error.is_none());
    let f = &out.report.counters;
    assert!(f.get(Ctr::Drops) + f.get(Ctr::CorruptRejected) > 0, "the wire misbehaved: {f:?}");
    assert!(f.get(Ctr::Retransmits) > 0, "the reliable layer retransmitted: {f:?}");
}

/// Both engines, same fault scenario, one truth: the field is the
/// sequential field regardless of which engine ran it and whether the
/// WAN misbehaved.
#[test]
fn engines_agree_under_faults() {
    let cfg = small_stencil(4, 6, 32);
    let want = seq_reference(&cfg);
    let plan =
        FaultPlan::loss(0.08).with_duplicate(0.05).with_reorder(0.05).with_seed(77).with_rto(Dur::from_millis(15));

    let sim = {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(3));
        let rc = RunConfig { fault_plan: Some(plan.clone()), ..RunConfig::default() };
        stencil::run_sim(cfg.clone(), net, rc)
    };
    let threaded = {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(3));
        let rc = RunConfig { fault_plan: Some(plan), ..RunConfig::default() };
        stencil::run_threaded(cfg, topo, latency, rc)
    };

    assert_bit_exact(&sim.block_sums, &want, "sim under faults");
    assert_bit_exact(&threaded.block_sums, &want, "threaded under faults");
    assert!(sim.report.transport_error.is_none());
    assert!(threaded.report.transport_error.is_none());
}

/// LeanMD under the same adversarial WAN: trajectories (per-cell position
/// checksums and kinetic energy) are bit-identical to the fault-free run
/// on both engines, and recovery counters are nonzero.
#[test]
fn leanmd_bit_exact_under_faults() {
    let cfg = MdConfig::validation(3, 4, 3);
    let plan =
        FaultPlan::loss(0.05).with_duplicate(0.05).with_reorder(0.05).with_seed(216).with_rto(Dur::from_millis(15));

    let clean = {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(2));
        leanmd::run_sim(cfg.clone(), net, RunConfig::default())
    };
    let sim = {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(2));
        let rc = RunConfig { fault_plan: Some(plan.clone()), ..RunConfig::default() };
        leanmd::run_sim(cfg.clone(), net, rc)
    };
    let threaded = {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(2));
        let rc = RunConfig { fault_plan: Some(plan), ..RunConfig::default() };
        leanmd::run_threaded(cfg, topo, latency, rc)
    };

    assert_eq!(clean.checksums, sim.checksums, "sim trajectories survive the lossy WAN");
    assert_eq!(clean.checksums, threaded.checksums, "threaded trajectories survive the lossy WAN");
    assert_eq!(clean.kinetic.to_bits(), sim.kinetic.to_bits());
    assert_eq!(clean.kinetic.to_bits(), threaded.kinetic.to_bits());
    assert!(sim.report.transport_error.is_none());
    assert!(threaded.report.transport_error.is_none());
    assert!(sim.report.counters.get(Ctr::Retransmits) > 0, "sim recovered from losses: {:?}", sim.report.counters);
    assert!(
        threaded.report.counters.get(Ctr::Retransmits) > 0,
        "threaded recovered from losses: {:?}",
        threaded.report.counters
    );
}

const SHOT: EntryId = EntryId(1);
const DONE: EntryId = EntryId(2);

/// Element 0 fires `SHOTS` numbered messages at element 1, across the
/// WAN, one per millisecond of its charged work; element 1 logs each
/// arrival (its number and virtual time) and ends the run at the last.
struct Salvo {
    log: Arc<Mutex<Vec<(u32, Time)>>>,
}

const SHOTS: u32 = 6;

impl Chare for Salvo {
    fn receive(&mut self, _entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        if ctx.my_elem() == ElemId(0) {
            for i in 0..SHOTS {
                ctx.charge(Dur::from_millis(1));
                let mut w = WireWriter::new();
                w.u32(i);
                ctx.send(ctx.me().array, ElemId(1), SHOT, w.finish());
            }
            return;
        }
        let mut log = self.log.lock().unwrap();
        log.push((WireReader::new(payload).u32().expect("shot number"), ctx.now()));
        if log.len() as u32 == SHOTS {
            ctx.exit();
        }
    }
}

/// Head-of-line blocking, in the simulator: a link-down window loses frame
/// 2 of the pair (it departs at 3 ms) and nothing after it.  Frames 3–5
/// land first, but the pair's receiver holds them until frame 2's repair
/// arrives, then releases all four in send order — as the wall clock's
/// receiver does.  No later frame of the pair overtakes the repair.
#[test]
fn a_lost_frame_holds_back_its_pairs_later_frames_until_the_repair() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut p = Program::new();
    let elems = Arc::clone(&log);
    let arr =
        p.array("salvo", 2, Mapping::Block, move |_| Box::new(Salvo { log: Arc::clone(&elems) }) as Box<dyn Chare>);
    p.on_startup(move |ctl| ctl.send(arr, ElemId(0), SHOT, vec![]));
    let plan = FaultPlan::default()
        .with_link_down(Dur::from_micros(2_500), Dur::from_micros(3_500))
        .with_rto(Dur::from_millis(10));
    let rc = RunConfig { fault_plan: Some(plan), ..RunConfig::default() };
    let report = SimEngine::new(NetworkModel::two_cluster_sweep(2, Dur::from_millis(2)), rc).run(p);

    assert_eq!(report.counters.get(Ctr::Drops), 1, "frame 2 alone was lost");
    let log = log.lock().unwrap();
    let order: Vec<u32> = log.iter().map(|&(i, _)| i).collect();
    assert_eq!(order, (0..SHOTS).collect::<Vec<_>>(), "release order is send order");
    // Frame 2 departed at 3 ms, lost; its repair left at 3 + 10 ms and
    // landed 2 ms later.  Frames 3–5 reached the receiver at 6–8 ms.
    let repair = Time::ZERO + Dur::from_millis(15);
    assert_eq!(log[2].1, repair, "the repair lands one rto and one hop after frame 2 left");
    assert!(log[3..].iter().all(|&(_, t)| t >= repair), "no later frame released before the repair: {log:?}");
}

/// Elements 1 and 3, one per cluster of a 4-PE grid, bounce a ball
/// `VOLLEYS` times; then element 1 tells element 0, on its own cluster, to
/// end the run.
struct Volley;

const VOLLEYS: u32 = 40;

impl Chare for Volley {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        let arr = ctx.me().array;
        if entry == DONE {
            return ctx.exit();
        }
        let left = WireReader::new(payload).u32().expect("volleys left");
        let mut w = WireWriter::new();
        w.u32(left.saturating_sub(1));
        match (left, ctx.my_elem()) {
            (0, _) => ctx.send(arr, ElemId(0), DONE, vec![]),
            (_, ElemId(1)) => ctx.send(arr, ElemId(3), SHOT, w.finish()),
            _ => ctx.send(arr, ElemId(1), SHOT, w.finish()),
        }
    }
}

fn volley_program() -> Program {
    let mut p = Program::new();
    let arr = p.array("volley", 4, Mapping::Block, |_| Box::new(Volley) as Box<dyn Chare>);
    p.on_startup(move |ctl| {
        let mut w = WireWriter::new();
        w.u32(2 * VOLLEYS);
        ctl.send(arr, ElemId(1), SHOT, w.finish());
    });
    p
}

/// What the wall clock's `Exit` broadcast adds to its fault counts, as
/// `(Drops, CorruptRejected)`; the simulator stops at the exit instead.
/// PE `exit` sends one `Exit` frame to each PE across the WAN as the next
/// frame of the pair, so its seq is the number of envelopes the pair sent
/// before it (the simulator's recording counts them; without aggregation
/// an envelope is a frame).  The run is over before that frame's rto, so
/// its first attempt is all the wire sees of it: the keyed draw at its
/// pair, its seq and attempt 0.  An exact term, not a tolerance.
fn exit_term(sim: &RunReport, plan: &FaultPlan, topo: &Topology, exit: Pe) -> (u64, u64) {
    let obs = sim.obs.as_ref().expect("the simulator's run is recorded");
    let events = &obs.pes[exit.index()].events;
    let sent = |to: Pe| events.iter().filter(|e| matches!(e, Event::Send { dst, .. } if *dst == to.0)).count();
    let mut wire = FaultWire::new(plan.clone());
    for dst in topo.pes().filter(|&dst| topo.crosses_wan(exit, dst)) {
        wire.transmit(exit, dst, sent(dst) as u64, 0, Dur::ZERO, ());
    }
    (wire.stats().dropped, wire.stats().corrupted)
}

/// One protocol, one wire, one count: the same plan and seed harm the
/// same attempts on both engines, and the same sender and receiver
/// machines repair them, so the fault counters agree exactly.  The run
/// keeps one message in flight at a time, which is what `Reordered` and
/// `DupDropped` still need: the reorder stash holds an attempt until the
/// pair's next one, and a duplicate's second copy comes a moment after
/// the first — with one message in flight, the next attempt and the
/// second copy come at the same point on both engines.
///
/// Two differences between the engines, both at the run's end:
///
/// - The wall clock broadcasts `Exit` over the reliable layer, and the
///   simulator stops instead: [`exit_term`] counts what that adds.
///   Element 0 exits, on PE 0, which sent nothing across the WAN before,
///   so the broadcast is frame 0 of the pairs 0 -> 2 and 0 -> 3.
/// - A wire duplicate of the last volley lands at the instant of its
///   original in virtual time, so the simulator's receiver always drops
///   it before the run ends.  On the wall clock the second copy is
///   stamped a moment after the first and may come due after `Exit`, and
///   then no receiver reads it: the threaded `DupDropped` may be one
///   short of the simulator's, never more.
///
/// The timeout keeps every retransmit a repair on the wall clock too
/// unless a thread stalls for 150 ms.
#[test]
fn both_engines_count_the_same_faults_for_one_plan_and_seed() {
    let plan = FaultPlan::loss(0.1)
        .with_duplicate(0.05)
        .with_reorder(0.05)
        .with_corrupt(0.05)
        .with_seed(PARITY_SEED)
        .with_rto(Dur::from_millis(150));

    let rc = RunConfig { fault_plan: Some(plan.clone()), ..RunConfig::default() };
    let recorded = RunConfig { obs: Some(ObsConfig::new()), ..rc.clone() };
    let sim = SimEngine::new(NetworkModel::two_cluster_sweep(4, Dur::from_millis(1)), recorded).run(volley_program());
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(1));
    let threaded = ThreadedEngine::new(topo.clone(), ThreadedConfig::new(latency), rc).run(volley_program());

    let (exit_drops, exit_corrupt) = exit_term(&sim, &plan, &topo, Pe(0));
    let counts =
        |r: &RunReport| [Ctr::Drops, Ctr::CorruptRejected, Ctr::Reordered, Ctr::Retransmits].map(|c| r.counters.get(c));
    let mut want = counts(&sim);
    (want[0], want[1]) = (want[0] + exit_drops, want[1] + exit_corrupt);
    assert!(sim.transport_error.is_none() && threaded.transport_error.is_none());
    assert!(counts(&sim).iter().all(|&n| n > 0), "every kind of fault occurred: {:?}", counts(&sim));
    assert_eq!(want, counts(&threaded), "drops, corrupt, reordered, retransmits (Exit: {exit_drops}, {exit_corrupt})");
    let dups = [&sim, &threaded].map(|r| r.counters.get(Ctr::DupDropped));
    assert!(dups[0] > 0, "duplicates occurred");
    assert!(dups[1] == dups[0] || dups[1] + 1 == dups[0], "dups: sim {}, threaded {}", dups[0], dups[1]);
}

const PARITY_SEED: u64 = 1;

/// The count parity with many frames in flight per pair: LeanMD's
/// coordinate and force fan-outs put dozens of frames on the one WAN pair
/// each way at once, so the wall clock interleaves first attempts and
/// retransmits differently from the simulator.  Each attempt's fate is
/// keyed by its pair, seq and attempt number, not by its place in a
/// stream, and each ack names the frame it answers however far past a gap
/// it sits, so both engines harm the same attempts, resend exactly the
/// lost ones and count the same: no spurious retransmit, no duplicate, one
/// retransmit per drop or corruption, and the same trajectories.  The one
/// named difference is the wall clock's `Exit` broadcast ([`exit_term`]).
///
/// The plan has no duplicate and no reorder: which attempt of the pair
/// comes next to release a stash, and whether a duplicate's late second
/// copy comes due before the run ends, depend on timing on the wall clock.
/// The wall clock processes acks on the sending PE, so its rto must
/// outlast that PE's longest busy stretch, or a late ack would make a
/// retransmit spurious: 50 ms, against a 4 ms round trip.
#[test]
fn both_engines_count_the_same_faults_with_many_frames_in_flight() {
    let cfg = MdConfig::validation(3, 4, 3);
    let plan = FaultPlan::loss(0.1).with_corrupt(0.05).with_seed(EXIT_DROPPED_SEED).with_rto(Dur::from_millis(50));
    let wan = Dur::from_millis(2);
    let clean = leanmd::run_sim(cfg.clone(), NetworkModel::two_cluster_sweep(2, wan), RunConfig::default());
    let rc = RunConfig { fault_plan: Some(plan.clone()), ..RunConfig::default() };
    let recorded = RunConfig { obs: Some(ObsConfig::new()), ..rc.clone() };
    let sim = leanmd::run_sim(cfg.clone(), NetworkModel::two_cluster_sweep(2, wan), recorded);
    let topo = Topology::two_cluster(2);
    let threaded = leanmd::run_threaded(cfg, topo.clone(), LatencyMatrix::uniform(&topo, Dur::ZERO, wan), rc);

    for out in [&sim, &threaded] {
        assert!(out.report.transport_error.is_none());
        assert_eq!(out.checksums, clean.checksums, "trajectories survive the lossy WAN");
        assert_eq!([out.kinetic, out.potential].map(f64::to_bits), [clean.kinetic, clean.potential].map(f64::to_bits));
    }
    // The gather ends at its root, PE 0, whose client exits.
    let (exit_drops, exit_corrupt) = exit_term(&sim.report, &plan, &topo, Pe(0));
    let faults =
        [Ctr::Drops, Ctr::CorruptRejected, Ctr::Retransmits, Ctr::SpuriousRetransmits, Ctr::DupDropped, Ctr::Reordered];
    let [s, t] = [&sim, &threaded].map(|out| faults.map(|c| out.report.counters.get(c)));
    assert!(s[0] > 0 && s[1] > 0, "the wire dropped and corrupted: {s:?}");
    assert_eq!(s[2], s[0] + s[1], "the simulator resends each lost attempt once: {s:?}");
    assert_eq!(s[3..], [0; 3], "no spurious retransmit, no duplicate, no reorder");
    let want = [s[0] + exit_drops, s[1] + exit_corrupt, s[2], 0, 0, 0];
    assert_eq!(t, want, "{faults:?}: sim {s:?}, Exit adds {exit_drops} drops and {exit_corrupt} corrupt");
    assert_eq!((exit_drops, exit_corrupt), (1, 0), "at this seed the wire drops the Exit frame, so the term counts");
}

/// A seed at which the wall clock's `Exit` frame to PE 1 is dropped.
const EXIT_DROPPED_SEED: u64 = 4;
