//! End-to-end backpressure: credit-based flow control and graceful
//! overload degradation, on both engines.
//!
//! The contract under test, in the paper's terms: a message-driven
//! runtime masks WAN latency by keeping many messages in flight, but an
//! *open-loop* sender on a fast cluster can bury a receiver across the
//! slow link.  Credit-based flow control turns remote queue growth into
//! local sender stalls (`Block`) or accounted drops of application
//! traffic at the send site (`Shed`) — never unbounded memory, never lost
//! system messages, and under `Block` never *any* loss, so application
//! results stay bit-exact with flow control off.

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::apps::stencil::{self, StencilConfig, StencilCost};
use gridmdo::prelude::*;
use mdo_check::{check_report, Expectation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const KICK: EntryId = EntryId(40);
const DATA: EntryId = EntryId(41);
const ECHO: EntryId = EntryId(42);

const FLOOD_MSGS: u32 = 256;
const FLOOD_PAYLOAD: usize = 2048;
const FLOOD_BYTES: u64 = FLOOD_MSGS as u64 * FLOOD_PAYLOAD as u64;

/// A sender (cluster A) dumps its whole flood in one handler — an
/// open-loop sender with no application-level pacing.  The sink (cluster
/// B) is the slow drain: every receipt charges compute.  The program goes
/// quiet once everything still alive has been delivered.
struct Flood {
    sink: ElemId,
    received: Arc<AtomicU64>,
    /// With a tally here, the sink answers every receipt with a message to
    /// itself and counts those as they are served.
    echoed: Option<Arc<AtomicU64>>,
}

impl Chare for Flood {
    fn receive(&mut self, entry: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
        match entry {
            KICK => {
                for _ in 0..FLOOD_MSGS {
                    ctx.send(ctx.me().array, self.sink, DATA, vec![0u8; FLOOD_PAYLOAD]);
                }
            }
            DATA => {
                self.received.fetch_add(1, Ordering::SeqCst);
                ctx.charge(Dur::from_micros(100));
                if self.echoed.is_some() {
                    ctx.send(ctx.me().array, self.sink, ECHO, vec![]);
                }
            }
            ECHO => {
                self.echoed.as_ref().expect("only an echoing sink echoes").fetch_add(1, Ordering::SeqCst);
            }
            _ => unreachable!(),
        }
    }
}

/// Build the flood program; returns (program, delivery tally, fire tally).
fn flood_program() -> (Program, Arc<AtomicU64>, Arc<AtomicU64>) {
    fan_in_program(1)
}

/// The flood from `senders` elements at once, one per PE of cluster A of
/// `Topology::two_cluster(2 * senders)`, into one sink on cluster B's
/// first PE.
fn fan_in_program(senders: u32) -> (Program, Arc<AtomicU64>, Arc<AtomicU64>) {
    fan_in_program_echoing(senders, None)
}

/// [`fan_in_program`] whose sink also talks to itself (`Flood::echoed`).
fn fan_in_program_echoing(senders: u32, echoed: Option<Arc<AtomicU64>>) -> (Program, Arc<AtomicU64>, Arc<AtomicU64>) {
    let received = Arc::new(AtomicU64::new(0));
    let fired = Arc::new(AtomicU64::new(0));
    let mut p = Program::new();
    let received_f = Arc::clone(&received);
    let arr = p.array("flood", 2 * senders as usize, Mapping::Block, move |_| {
        Box::new(Flood { sink: ElemId(senders), received: Arc::clone(&received_f), echoed: echoed.clone() })
            as Box<dyn Chare>
    });
    p.on_startup(move |ctl| (0..senders).for_each(|s| ctl.send(arr, ElemId(s), KICK, vec![])));
    let fired_c = Arc::clone(&fired);
    p.on_quiescence(move |ctl| {
        fired_c.fetch_add(1, Ordering::SeqCst);
        ctl.exit();
    });
    (p, received, fired)
}

fn flood_flow() -> FlowConfig {
    FlowConfig::default().with_credit_bytes(16 * 1024).with_mailbox_bytes(32 * 1024)
}

// ---- the tentpole claim: bounded memory on the threaded stack -------------

#[test]
fn threaded_block_flow_bounds_mailboxes_under_open_loop_flood() {
    // The sender produces the 512 KiB flood in one handler; the consumer
    // sleep-emulates 100 us of work per message, so the drain is orders
    // of magnitude slower than production.  Without flow control the
    // backlog lands in the receiver's mailboxes; with `Block` credit the
    // sender stalls against the advertised window instead.
    let run = |flow: Option<FlowConfig>| {
        let (program, received, fired) = flood_program();
        let run_cfg =
            RunConfig { detect_quiescence: true, agg: Some(AggConfig::default()), flow, ..RunConfig::default() };
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(2));
        let tcfg = ThreadedConfig::new(latency).with_compute_sleep();
        let report = ThreadedEngine::new(topo, tcfg, run_cfg).run(program);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "quiescence fired exactly once");
        assert!(report.unrecoverable.is_none());
        assert!(report.transport_error.is_none());
        (report, received.load(Ordering::SeqCst))
    };

    let (open, open_received) = run(None);
    let (gated, gated_received) = run(Some(flood_flow()));

    assert_eq!(open_received, u64::from(FLOOD_MSGS), "baseline delivers everything");
    assert_eq!(gated_received, u64::from(FLOOD_MSGS), "Block is lossless");
    assert_eq!(gated.sheds, 0, "Block never sheds");
    assert!(
        open.peak_mailbox_bytes > FLOOD_BYTES / 2,
        "without flow control the flood piles up at the receiver: peak {} of {FLOOD_BYTES} flood bytes",
        open.peak_mailbox_bytes
    );
    assert!(
        gated.peak_mailbox_bytes < FLOOD_BYTES / 4,
        "credit flow keeps mailboxes near the configured budget: peak {} of {FLOOD_BYTES} flood bytes",
        gated.peak_mailbox_bytes
    );
    assert!(gated.peak_mailbox_bytes > 0, "the watermark is actually measured");
}

// ---- graceful degradation: bounded memory *and* termination under Shed ----

#[test]
fn sim_shed_flow_bounds_memory_and_accounts_every_drop() {
    let run = |flow: Option<FlowConfig>| {
        let (program, received, fired) = flood_program();
        let run_cfg = RunConfig { detect_quiescence: true, flow, obs: Some(ObsConfig::new()), ..RunConfig::default() };
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(2));
        let report = SimEngine::new(net, run_cfg).run(program);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "quiescence fired exactly once");
        assert!(report.unrecoverable.is_none());
        (report, received.load(Ordering::SeqCst))
    };

    let (open, open_received) = run(None);
    assert_eq!(open_received, u64::from(FLOOD_MSGS));
    assert!(open.peak_mailbox_bytes > FLOOD_BYTES / 2, "open loop: receiver queue absorbs the flood");

    let flow = FlowConfig::default().with_credit_bytes(4 * 1024).with_policy(OverloadPolicy::Shed);
    let (shed, shed_received) = run(Some(flow));
    assert!(shed.sheds > 0, "the starved window shed overflow");
    assert_eq!(shed_received + shed.sheds, u64::from(FLOOD_MSGS), "every envelope delivered or accounted shed");
    assert!(shed.shed_bytes >= shed.sheds * FLOOD_PAYLOAD as u64, "shed bytes cover the dropped payloads");
    assert_eq!(shed.credit_stalls, 0, "Shed degrades instead of stalling");
    assert!(
        shed.peak_mailbox_bytes < open.peak_mailbox_bytes / 4,
        "graceful degradation bounds memory: {} vs open-loop {}",
        shed.peak_mailbox_bytes,
        open.peak_mailbox_bytes
    );

    // The shed-aware invariant layer signs off on the same run.
    let violations = check_report(&shed, &Expectation { quiescent_exit: true, sheds_allowed: true });
    assert!(violations.is_empty(), "{violations:?}");
}

/// One threaded `Shed` run of the flood from `senders` senders; returns the
/// report and the delivery tally after checking what every such run owes.
fn threaded_shed_run(senders: u32, agg: Option<AggConfig>, flow: FlowConfig) -> (RunReport, u64) {
    // The sink answers every receipt with a message to itself.  Those wait
    // in its own queue, which is served only when nothing from another PE
    // is ready — and are all served, flood or no flood: a shut window is
    // what ends each burst, so the mailbox runs dry between bursts.
    let echoed = Arc::new(AtomicU64::new(0));
    let (program, received, fired) = fan_in_program_echoing(senders, Some(Arc::clone(&echoed)));
    let flow = flow.with_policy(OverloadPolicy::Shed);
    let run_cfg = RunConfig { detect_quiescence: true, agg, flow: Some(flow), ..RunConfig::default() };
    let topo = Topology::two_cluster(2 * senders);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(2));
    let tcfg = ThreadedConfig::new(latency).with_compute_sleep();
    let report = ThreadedEngine::new(topo, tcfg, run_cfg).run(program);

    assert_eq!(fired.load(Ordering::SeqCst), 1, "quiescence fired exactly once despite drops");
    assert!(report.unrecoverable.is_none());
    assert!(report.transport_error.is_none());
    let received = received.load(Ordering::SeqCst);
    assert_eq!(
        received + report.sheds,
        u64::from(senders * FLOOD_MSGS),
        "every envelope was delivered exactly once or shed with accounting"
    );
    assert_eq!(echoed.load(Ordering::SeqCst), received, "the flooded PE's own queue was drained, not starved");
    (report, received)
}

#[test]
fn threaded_shed_flow_terminates_and_accounts_every_drop() {
    // `Shed` means the same thing with and without aggregation.
    for agg in [Some(AggConfig::default()), None] {
        let flow = FlowConfig::default().with_credit_bytes(4 * 1024).with_mailbox_bytes(16 * 1024);
        let (report, _) = threaded_shed_run(1, agg, flow);
        assert!(report.peak_mailbox_bytes < FLOOD_BYTES / 4, "bounded mailboxes under saturation (agg: {agg:?})");
    }
}

#[test]
fn threaded_shed_fan_in_is_bounded_by_the_advertised_headroom() {
    // Four windows' worth of senders converge on one sleeping PE.  No
    // queue on the way refuses anything: what bounds the receiver is the
    // headroom it advertises on its acks (`mailbox_bytes` minus what it
    // holds), which shuts the senders' windows, which makes them shed.
    let (report, received) = threaded_shed_run(4, Some(AggConfig::default()), flood_flow());
    assert!(report.sheds > 0 && received > 0, "overloaded, not starved: {received} delivered, {} shed", report.sheds);
    assert!(
        report.peak_mailbox_bytes < 4 * FLOOD_BYTES / 8,
        "peak {} of a {} byte flood",
        report.peak_mailbox_bytes,
        4 * FLOOD_BYTES
    );
}

// ---- quiescence under saturation survives adversarial delivery orders -----

#[test]
fn sim_quiescence_under_saturation_survives_exploration_policies() {
    let horizon = 2_000;
    let specs = [
        DeliverySpec::Random { seed: 11 },
        DeliverySpec::Random { seed: 12 },
        DeliverySpec::Pct { seed: 13, depth: 3, horizon },
        DeliverySpec::Pct { seed: 14, depth: 5, horizon },
    ];
    for spec in specs {
        let (program, received, fired) = flood_program();
        let flow = FlowConfig::default().with_credit_bytes(4 * 1024).with_policy(OverloadPolicy::Shed);
        let run_cfg = RunConfig {
            detect_quiescence: true,
            flow: Some(flow),
            delivery: spec.clone(),
            obs: Some(ObsConfig::new()),
            ..RunConfig::default()
        };
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(2));
        let report = SimEngine::new(net, run_cfg).run(program);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "{spec:?}: quiescence fired exactly once");
        assert_eq!(
            received.load(Ordering::SeqCst) + report.sheds,
            u64::from(FLOOD_MSGS),
            "{spec:?}: delivered + shed covers the flood"
        );
        let violations = check_report(&report, &Expectation { quiescent_exit: true, sheds_allowed: true });
        assert!(violations.is_empty(), "{spec:?}: {violations:?}");
    }
}

// ---- Block flow is invisible to application results -----------------------

fn small_stencil(steps: u32) -> StencilConfig {
    StencilConfig {
        mesh: 32,
        objects: 16,
        steps,
        compute: true,
        cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
        mapping: Mapping::Block,
        lb_period: None,
    }
}

#[test]
fn stencil_results_bit_exact_with_block_flow_on_both_engines() {
    // A starved window (two boundary messages cannot be in flight at
    // once) re-times the halo exchange without losing or duplicating it:
    // field sums must match the flow-off run bit for bit on each engine.
    let cfg = small_stencil(4);
    let flow = FlowConfig::default().with_credit_bytes(512);

    let net = || NetworkModel::two_cluster_sweep(4, Dur::from_millis(1));
    let plain = stencil::run_sim(cfg.clone(), net(), RunConfig::default());
    let gated = stencil::run_sim(cfg.clone(), net(), RunConfig { flow: Some(flow), ..RunConfig::default() });
    assert_eq!(plain.block_sums, gated.block_sums, "sim: Block flow is bit-exact");
    assert!(gated.report.credit_stalls > 0, "the tiny window actually stalled senders");
    assert!(gated.report.credit_wait > Dur::ZERO, "stall time was accounted");
    assert_eq!(gated.report.sheds, 0);

    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(1));
    let threaded = stencil::run_threaded(cfg, topo, latency, RunConfig { flow: Some(flow), ..RunConfig::default() });
    assert_eq!(plain.block_sums, threaded.block_sums, "threaded: Block flow is bit-exact");
    assert_eq!(threaded.report.sheds, 0);
}

#[test]
fn leanmd_results_bit_exact_with_block_flow_on_both_engines() {
    let cfg = MdConfig::validation(3, 4, 4);
    let flow = FlowConfig::default().with_credit_bytes(1024);

    let net = || NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
    let plain = leanmd::run_sim(cfg.clone(), net(), RunConfig::default());
    let gated = leanmd::run_sim(cfg.clone(), net(), RunConfig { flow: Some(flow), ..RunConfig::default() });
    assert_eq!(plain.checksums, gated.checksums, "sim: Block flow is bit-exact");
    assert_eq!(plain.kinetic, gated.kinetic);

    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(2));
    let threaded = leanmd::run_threaded(cfg, topo, latency, RunConfig { flow: Some(flow), ..RunConfig::default() });
    assert_eq!(plain.checksums, threaded.checksums, "threaded: Block flow is bit-exact");
    assert_eq!(plain.kinetic, threaded.kinetic);
}

// ---- credits reset with the pair generation across the elastic cycle ------

#[test]
fn sim_block_flow_survives_crash_shrink_rejoin_bit_exactly() {
    // A crash mid-run tears a generation down with credit consumed and
    // envelopes deferred; the shrink and the later rejoin each start new
    // generations whose windows must open fresh (stale balances or stale
    // deferred envelopes would wedge or corrupt the rerun).  The oracle
    // is the elastic suite's: state identical to an undisturbed run.
    let steps = 6;
    let cfg = StencilConfig { lb_period: Some(1), ..small_stencil(steps) };
    let flow = FlowConfig::default().with_credit_bytes(512);
    let net = || NetworkModel::two_cluster_sweep(4, Dur::from_millis(1));

    let clean = stencil::run_sim(cfg.clone(), net(), RunConfig::default());
    let crash_at = Dur::from_nanos(clean.total.as_nanos() / 2);
    let run_cfg = RunConfig {
        flow: Some(flow),
        failure_plan: Some(FailurePlan::new().crash_at(Pe(1), crash_at)),
        join_plan: Some(JoinPlan::new().rejoin_after_recoveries(Pe(1), 1)),
        ..RunConfig::default()
    };
    let elastic = stencil::run_sim(cfg, net(), run_cfg);

    assert_eq!(elastic.block_sums, clean.block_sums, "crash + shrink + rejoin under Block flow: bit-exact");
    assert_eq!(elastic.report.recoveries, 1);
    assert_eq!(elastic.report.pes_joined, 1);
    assert_eq!(elastic.report.generations, 3, "full -> shrunk -> re-expanded");
    assert!(elastic.report.credit_stalls > 0, "flow control was actually engaged");
    assert!(elastic.report.unrecoverable.is_none());
}
