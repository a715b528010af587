//! Quiescence detection under WAN fault injection, on both engines.
//!
//! Quiescence is only sound if the detector counts *logical* messages,
//! not wire luck: a dropped packet that the reliable layer retransmits,
//! or a reordered pair released in order, must neither stall the waves
//! forever nor let them fire while a retransmission is still in flight.
//! These tests run a cross-cluster message chain under aggressive
//! drop/reorder plans and require: the quiescence client fires exactly
//! once, every chain hop was delivered exactly once, and (on the sim
//! run) the `mdo-check` invariant layer confirms no application message
//! was in flight at the moment quiescence fired.

use gridmdo::prelude::*;
use mdo_check::{check_report, Expectation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CHAIN: EntryId = EntryId(7);
const ELEMS: u32 = 16;
const HOPS: u32 = 60;

/// A ring of elements passing a hop-countdown token; goes quiet when the
/// token expires.  Every receive is tallied so exactly-once delivery is
/// checkable from outside.
struct Link {
    received: Arc<AtomicU64>,
}

impl Chare for Link {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        assert_eq!(entry, CHAIN);
        self.received.fetch_add(1, Ordering::SeqCst);
        ctx.charge(Dur::from_micros(30));
        let remaining = WireReader::new(payload).u32().expect("hop count");
        if remaining > 0 {
            // Stride 5 on 16 elements over 4 PEs: most hops change PE and
            // half of those cross the WAN, so the fault plan sees traffic.
            let next = ElemId((ctx.my_elem().0 + 5) % ELEMS);
            let mut w = WireWriter::new();
            w.u32(remaining - 1);
            ctx.send(ctx.me().array, next, CHAIN, w.finish());
        }
    }
}

/// Build the chain program; returns (program, receive tally, fire tally).
fn chain_program() -> (Program, Arc<AtomicU64>, Arc<AtomicU64>) {
    let received = Arc::new(AtomicU64::new(0));
    let fired = Arc::new(AtomicU64::new(0));
    let mut p = Program::new();
    let received_f = Arc::clone(&received);
    let arr = p.array("chain", ELEMS as usize, Mapping::Block, move |_| {
        Box::new(Link { received: Arc::clone(&received_f) }) as Box<dyn Chare>
    });
    p.on_startup(move |ctl| {
        let mut w = WireWriter::new();
        w.u32(HOPS);
        ctl.send(arr, ElemId(0), CHAIN, w.finish());
    });
    let fired_c = Arc::clone(&fired);
    p.on_quiescence(move |ctl| {
        fired_c.fetch_add(1, Ordering::SeqCst);
        ctl.exit();
    });
    (p, received, fired)
}

fn rough_weather() -> FaultPlan {
    FaultPlan::default().with_drop(0.20).with_reorder(0.25).with_seed(17)
}

#[test]
fn sim_quiescence_fires_once_under_drop_and_reorder() {
    let (program, received, fired) = chain_program();
    let run_cfg = RunConfig { fault_plan: Some(rough_weather()), obs: Some(ObsConfig::new()), ..RunConfig::default() };
    let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
    let report = SimEngine::new(net, run_cfg).run(program);

    assert_eq!(fired.load(Ordering::SeqCst), 1, "quiescence client fired exactly once");
    assert_eq!(received.load(Ordering::SeqCst), u64::from(HOPS) + 1, "every hop delivered exactly once");
    assert!(report.unrecoverable.is_none());
    assert!(report.transport_error.is_none());
    assert!(report.counters.get(Ctr::Drops) > 0, "the plan actually dropped packets");

    // The mdo-check oracle: with a quiescent exit, no application message
    // may have been sent but undelivered, and none delivered twice.
    let violations = check_report(&report, &Expectation { quiescent_exit: true, ..Expectation::default() });
    assert!(violations.is_empty(), "quiescence soundness violated: {violations:?}");
}

#[test]
fn sim_quiescence_is_sound_under_exploration_plus_faults() {
    // Faults and an adversarial delivery policy together: quiescence must
    // still fire exactly once at a genuinely quiet point.
    for seed in [3, 4] {
        let (program, received, fired) = chain_program();
        let run_cfg =
            RunConfig { fault_plan: Some(rough_weather()), obs: Some(ObsConfig::new()), ..RunConfig::default() };
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        let sim_cfg = SimConfig { delivery: DeliverySpec::Random { seed }, ..SimConfig::default() };
        let report = SimEngine::new(net, run_cfg).with_config(sim_cfg).run(program);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "seed {seed}: fired once");
        assert_eq!(received.load(Ordering::SeqCst), u64::from(HOPS) + 1, "seed {seed}: exactly-once");
        let violations = check_report(&report, &Expectation { quiescent_exit: true, ..Expectation::default() });
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

#[test]
fn threaded_quiescence_fires_once_under_drop_and_reorder() {
    let (program, received, fired) = chain_program();
    let run_cfg = RunConfig { fault_plan: Some(rough_weather().with_rto(Dur::from_millis(5))), ..RunConfig::default() };
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
    let report = ThreadedEngine::new(topo, ThreadedConfig::new(latency), run_cfg).run(program);

    assert_eq!(fired.load(Ordering::SeqCst), 1, "quiescence client fired exactly once");
    assert_eq!(received.load(Ordering::SeqCst), u64::from(HOPS) + 1, "every hop delivered exactly once");
    assert!(report.unrecoverable.is_none());
    assert!(report.transport_error.is_none());
    assert!(report.counters.get(Ctr::Drops) > 0, "the plan actually dropped packets");
    assert!(report.counters.get(Ctr::Retransmits) > 0, "the reliable layer repaired the drops");
}
