//! Topology-aware collective trees: the cross-engine bit-exactness
//! oracle.
//!
//! `RunConfig::tree_collectives` reshapes the spanning tree broadcasts,
//! section multicasts and reductions run over, from the binary PE heap
//! ("flat", the default) to a two-level tree (one gateway PE per
//! cluster, partial-combine at the gateway before the single wide-area
//! hop) — the MPICH-G2-style optimization the paper's §2 contrasts
//! against.  The contract under test: the shape is a pure *routing*
//! choice.  Application state must be bit-identical with trees on vs
//! off, on the virtual-time simulation engine, the threaded engine and
//! a real multi-process TCP run — while the number of wide-area messages
//! drops to one per remote cluster per collective phase.  A `SumF64`
//! partial is exact and rounded once at the root, so even a sum no f64
//! order folds exactly has one bit pattern on every schedule, shape, PE
//! count and engine.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread;

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::apps::stencil::{self, seq::SeqStencil, StencilConfig, StencilCost};
use gridmdo::net::localhost_rendezvous;
use gridmdo::obs::Ctr;
use gridmdo::prelude::*;
use gridmdo::runtime::envelope::{ReduceData, ReduceOp};
use gridmdo::runtime::reduction::ExactSum;
use gridmdo::runtime::wire::WireWriter;
use gridmdo::runtime::{Chare, Ctx, SimEngine};
use mdo_check::{explore, CheckApp, ExploreConfig};

fn small_stencil(objects: usize, steps: u32, lb_period: Option<u32>) -> StencilConfig {
    StencilConfig {
        mesh: 32,
        objects,
        steps,
        compute: true,
        cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
        mapping: Mapping::Block,
        lb_period,
    }
}

fn seq_reference(cfg: &StencilConfig) -> Vec<f64> {
    let mut reference = SeqStencil::new(cfg.mesh);
    reference.run(cfg.steps);
    reference.block_sums(cfg.k())
}

fn trees_on() -> RunConfig {
    RunConfig { tree_collectives: true, ..RunConfig::default() }
}

// ---- bit-exactness, simulation engine -------------------------------------

#[test]
fn sim_stencil_trees_on_matches_flat_and_sequential() {
    let cfg = small_stencil(16, 5, None);
    let want = seq_reference(&cfg);
    let run = |rc: RunConfig| {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(1));
        stencil::run_sim(cfg.clone(), net, rc)
    };
    let flat = run(RunConfig::default());
    let tree = run(trees_on());
    assert_eq!(flat.block_sums, want, "flat collectives match the sequential oracle");
    assert_eq!(tree.block_sums, want, "tree collectives match the sequential oracle");
    assert_eq!(tree.block_sums, flat.block_sums, "trees on vs off: bit-exact");
}

#[test]
fn sim_stencil_trees_are_bit_exact_across_subtree_depths() {
    // The cluster's size sets the depth of its fan-out-4 subtree under
    // the gateway: one level at 2 PEs, two at 8, three at 32.  None of it
    // may reach the application state.
    let cfg = small_stencil(16, 4, None);
    let want = seq_reference(&cfg);
    for per_cluster in [2, 8, 32] {
        let net = NetworkModel::two_cluster_sweep(2 * per_cluster, Dur::from_millis(1));
        let out = stencil::run_sim(cfg.clone(), net, trees_on());
        assert_eq!(out.block_sums, want, "{per_cluster} PEs a cluster is bit-exact");
    }
}

#[test]
fn sim_leanmd_trees_on_is_bit_exact() {
    // LeanMD drives the `Multi` multicast path (cell → interaction
    // sections) plus SumF64-style energy reductions every step.
    let cfg = MdConfig::validation(3, 4, 4);
    let run = |rc: RunConfig| {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        leanmd::run_sim(cfg.clone(), net, rc)
    };
    let flat = run(RunConfig::default());
    let tree = run(trees_on());
    assert_eq!(tree.checksums, flat.checksums, "LeanMD positions bit-exact with trees on");
    assert_eq!(tree.kinetic, flat.kinetic, "LeanMD energies bit-exact with trees on");
}

#[test]
fn sim_many_cluster_uneven_layout_is_bit_exact() {
    // Four uneven clusters exercise gateways that are not the flat
    // binary-heap parents of anything they now forward for.
    use gridmdo::netsim::topology::ClusterSpec;
    let topo = Topology::new(vec![
        ClusterSpec { name: "a".into(), pes: 1 },
        ClusterSpec { name: "b".into(), pes: 3 },
        ClusterSpec { name: "c".into(), pes: 2 },
        ClusterSpec { name: "d".into(), pes: 2 },
    ]);
    let cfg = small_stencil(16, 4, None);
    let want = seq_reference(&cfg);
    let run = |rc: RunConfig| {
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(1));
        let contention = gridmdo::netsim::bandwidth::WanContention::disabled(&topo);
        let net = NetworkModel::new(topo.clone(), latency, contention, 0);
        stencil::run_sim(cfg.clone(), net, rc)
    };
    assert_eq!(run(RunConfig::default()).block_sums, want);
    assert_eq!(run(trees_on()).block_sums, want, "uneven 4-cluster layout: trees bit-exact");
}

// ---- bit-exactness, threaded engine ---------------------------------------

#[test]
fn threaded_stencil_and_leanmd_trees_on_are_bit_exact() {
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));

    let scfg = small_stencil(16, 5, None);
    let want = seq_reference(&scfg);
    let flat = stencil::run_threaded(scfg.clone(), topo.clone(), latency.clone(), RunConfig::default());
    let tree = stencil::run_threaded(scfg, topo.clone(), latency.clone(), trees_on());
    assert_eq!(flat.block_sums, want);
    assert_eq!(tree.block_sums, want, "threaded stencil: trees bit-exact");

    let mcfg = MdConfig::validation(3, 4, 3);
    let mflat = leanmd::run_threaded(mcfg.clone(), topo.clone(), latency.clone(), RunConfig::default());
    let mtree = leanmd::run_threaded(mcfg, topo, latency, trees_on());
    assert_eq!(mtree.checksums, mflat.checksums, "threaded LeanMD: trees bit-exact");
    assert_eq!(mtree.kinetic, mflat.kinetic);
}

// ---- bit-exactness, multi-process TCP -------------------------------------

fn reserve_manifest(nodes: usize) -> Vec<SocketAddr> {
    let (listeners, addrs) = localhost_rendezvous(nodes).expect("bind manifest ports");
    drop(listeners);
    addrs
}

/// Run `run` as two node-threads over real sockets, one per cluster of a
/// two-cluster topology, each with `base` plus its place in the manifest;
/// returns node 0's result.
fn two_node_tcp<T: Send + 'static>(base: RunConfig, run: impl Fn(RunConfig) -> T + Clone + Send + 'static) -> T {
    let manifest = reserve_manifest(2);
    let mut handles = Vec::new();
    for node in (0..2u32).rev() {
        let run = run.clone();
        let run_cfg = RunConfig { net: Some(NetConfig::new(node, manifest.clone())), ..base.clone() };
        let h =
            thread::Builder::new().name(format!("node{node}")).spawn(move || run(run_cfg)).expect("spawn node thread");
        handles.push((node, h));
    }
    let mut node0 = None;
    for (node, h) in handles {
        let out = h.join().unwrap_or_else(|_| panic!("node {node} panicked"));
        if node == 0 {
            node0 = Some(out);
        }
    }
    node0.expect("node 0 outcome")
}

#[test]
fn two_node_tcp_stencil_trees_on_is_bit_exact() {
    // Two node-threads over real sockets, one per cluster: tree Multi
    // re-splits and gateway reductions cross an actual TCP wire.
    let cfg = small_stencil(16, 5, None);
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
    let want = seq_reference(&cfg);

    let multi = two_node_tcp(trees_on(), move |rc| {
        stencil::run_threaded_with(cfg.clone(), topo.clone(), ThreadedConfig::new(latency.clone()), rc)
    });
    assert_eq!(multi.block_sums, want, "multi-process TCP run with trees on is bit-exact");
    assert!(multi.report.network.cross_messages > 0, "traffic actually crossed the wire");
    assert!(multi.report.unrecoverable.is_none());
}

// ---- the point of the trees: fewer wide-area messages ---------------------

#[test]
fn trees_cut_wan_traffic_on_both_engines() {
    // Four clusters of two: a flat broadcast or reduction crosses the WAN
    // once per remote PE per hop; the tree crosses once per remote
    // cluster.  Point-to-point ghost traffic is identical in both modes,
    // so total `wan_msgs_sent` must drop strictly.
    let cfg = small_stencil(16, 6, None);
    let topo = Topology::uniform(4, 2);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(1));

    let sim_wan = |tree: bool| {
        let contention = gridmdo::netsim::bandwidth::WanContention::disabled(&topo);
        let net = NetworkModel::new(topo.clone(), latency.clone(), contention, 0);
        let rc = RunConfig { tree_collectives: tree, obs: Some(ObsConfig::new()), ..RunConfig::default() };
        let out = stencil::run_sim(cfg.clone(), net, rc);
        (out.report.obs.expect("obs armed").merged_counters().get(Ctr::WanMsgsSent), out.block_sums)
    };
    let (flat_wan, flat_sums) = sim_wan(false);
    let (tree_wan, tree_sums) = sim_wan(true);
    assert_eq!(tree_sums, flat_sums, "sim results stay bit-exact while traffic changes");
    assert!(tree_wan < flat_wan, "trees must cut sim wide-area traffic: {tree_wan} !< {flat_wan} wan_msgs_sent");

    let threaded_cross = |rc: RunConfig| {
        stencil::run_threaded(cfg.clone(), topo.clone(), latency.clone(), rc).report.network.cross_messages
    };
    let flat_cross = threaded_cross(RunConfig::default());
    let tree_cross = threaded_cross(trees_on());
    assert!(tree_cross < flat_cross, "trees must cut threaded cross-cluster traffic: {tree_cross} !< {flat_cross}");
}

// ---- an explicit f64 reduction oracle -------------------------------------

const KICK: EntryId = EntryId(70);

/// What element `idx` contributes to the one SumF64 reduction.
type Input = fn(u64) -> [f64; 2];

/// An exactly-representable pair: the two-level tree combines partials
/// gateway-by-gateway, the heap in PE-heap order — for dyadic rationals
/// both are exact, so the delivered sums must be bit-identical.
fn dyadic(idx: u64) -> [f64; 2] {
    let x = idx as f64 * 0.5;
    [x, 1.0 + x * 0.25]
}

/// A pair whose f64 sum depends on the combine order: reciprocals, and
/// tenths-scale steps beside 1e16s (whose spacing is 2).
fn non_dyadic(idx: u64) -> [f64; 2] {
    let big = if idx.is_multiple_of(3) { 1e16 } else { 0.0 };
    [1.0 / (idx + 1) as f64, big + 0.3 * idx as f64]
}

/// Contributes `input(idx)` to one SumF64 reduction after `syncs` AtSync
/// rounds (each a buddy checkpoint when a failure plan is armed): on KICK,
/// or on resuming from the last round.
struct Summer {
    idx: u64,
    input: Input,
    syncs: u32,
}

impl Summer {
    fn sync_or_contribute(&mut self, ctx: &mut Ctx<'_>) {
        if self.syncs > 0 {
            self.syncs -= 1;
            return ctx.at_sync();
        }
        if self.idx == 0 {
            // Keep the root busy, so its children's partials queue up and
            // a delivery schedule picks which one it takes first.
            ctx.charge(Dur::from_millis(10));
        }
        ctx.contribute_f64(ReduceOp::SumF64, &(self.input)(self.idx));
    }
}

impl Chare for Summer {
    fn receive(&mut self, entry: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
        assert_eq!(entry, KICK);
        self.sync_or_contribute(ctx);
    }

    fn pack(&self, w: &mut WireWriter) {
        w.u64(self.idx).u32(self.syncs);
    }

    fn resume_from_sync(&mut self, ctx: &mut Ctx<'_>) {
        self.sync_or_contribute(ctx);
    }
}

fn sum_program(elems: usize, input: Input, syncs: u32) -> (gridmdo::runtime::Program, Arc<Mutex<Vec<f64>>>) {
    let got = Arc::new(Mutex::new(Vec::new()));
    let got_c = Arc::clone(&got);
    let mut p = gridmdo::runtime::Program::new();
    let summer = move |idx: u64, syncs: u32| Box::new(Summer { idx, input, syncs }) as Box<dyn Chare>;
    let arr = p.array_migratable(
        "summers",
        elems,
        Mapping::Block,
        move |elem| summer(elem.index() as u64, syncs),
        move |_, r| summer(r.u64().expect("packed idx"), r.u32().expect("packed syncs")),
    );
    p.on_startup(move |ctl| ctl.broadcast(arr, KICK, vec![]));
    p.on_reduction(arr, move |_seq, data, ctl| {
        if let ReduceData::F64(values) = data {
            *got_c.lock().expect("sum lock") = values.clone();
        }
        ctl.exit();
    });
    (p, got)
}

#[test]
fn f64_sum_reduction_digest_is_identical_trees_on_vs_off() {
    let run = |tree: bool| {
        let (program, got) = sum_program(24, dyadic, 0);
        let net = NetworkModel::two_cluster_sweep(6, Dur::from_millis(1));
        let rc = RunConfig { tree_collectives: tree, ..RunConfig::default() };
        let report = SimEngine::new(net, rc).run(program);
        assert!(report.unrecoverable.is_none());
        let values = got.lock().expect("sum lock").clone();
        assert_eq!(values.len(), 2, "the reduction delivered");
        values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
    };
    let flat = run(false);
    let tree = run(true);
    assert_eq!(flat, tree, "f64 digest bit-identical: flat {flat:?} vs tree {tree:?}");
}

/// The delivered sum's bits, once the run has ended.
fn sum_bits(report: &RunReport, got: &Mutex<Vec<f64>>) -> Vec<u64> {
    assert!(report.unrecoverable.is_none());
    let values = got.lock().expect("sum lock").clone();
    assert_eq!(values.len(), 2, "the reduction delivered");
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn non_dyadic_f64_sum_is_identical_across_schedules_and_engines() {
    const ELEMS: u64 = 48;
    // The input really is order-sensitive: two element orders, two sums.
    let fold = |order: &mut dyn Iterator<Item = u64>| {
        order.map(non_dyadic).fold([0.0f64; 2], |acc, x| [acc[0] + x[0], acc[1] + x[1]]).map(f64::to_bits)
    };
    assert_ne!(fold(&mut (0..ELEMS)), fold(&mut (0..ELEMS).rev()), "the sum depends on its combine order");
    // The one answer: the inputs' exact sum, rounded once.
    let want: Vec<u64> = (0..2)
        .map(|k| {
            let mut sum = ExactSum::new(non_dyadic(0)[k]);
            (1..ELEMS).for_each(|i| sum.add(non_dyadic(i)[k]));
            sum.round().to_bits()
        })
        .collect();
    let shapes = [false, true];
    let run_cfg = |tree: bool| RunConfig { tree_collectives: tree, ..RunConfig::default() };

    // Every PE folds its elements' contributions and its children's
    // partials in arrival order, three or more elements to a PE; no
    // schedule, tree shape or PE count reaches the bits.
    let sim = |pes: u32, syncs: u32, rc: RunConfig, sim_cfg: SimConfig| {
        let (program, got) = sum_program(ELEMS as usize, non_dyadic, syncs);
        let net = NetworkModel::two_cluster_sweep(pes, Dur::from_millis(1));
        let report = SimEngine::new(net, rc).with_config(sim_cfg).run(program);
        (sum_bits(&report, &got), report)
    };
    for per_cluster in [1, 2, 4, 8] {
        for tree in shapes {
            for delivery in [DeliverySpec::Fifo, DeliverySpec::Random { seed: 1 }, DeliverySpec::Random { seed: 2 }] {
                let label = format!("sim, {per_cluster} PEs a cluster, trees {tree}, {delivery:?}");
                let sim_cfg = SimConfig { delivery, ..SimConfig::default() };
                assert_eq!(sim(2 * per_cluster, 0, run_cfg(tree), sim_cfg).0, want, "{label}");
            }
        }
    }

    let topo = Topology::two_cluster(8);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
    for tree in shapes {
        for run in 0..2 {
            let (program, got) = sum_program(ELEMS as usize, non_dyadic, 0);
            let report =
                ThreadedEngine::new(topo.clone(), ThreadedConfig::new(latency.clone()), run_cfg(tree)).run(program);
            assert_eq!(sum_bits(&report, &got), want, "threaded run {run}, trees {tree}");
        }
    }

    let topo = Topology::two_cluster(4);
    for tree in shapes {
        let (topo, latency) = (topo.clone(), latency.clone());
        let (report, got) = two_node_tcp(run_cfg(tree), move |rc| {
            let (program, got) = sum_program(ELEMS as usize, non_dyadic, 0);
            (ThreadedEngine::new(topo.clone(), ThreadedConfig::new(latency.clone()), rc).run(program), got)
        });
        assert_eq!(sum_bits(&report, &got), want, "two-node TCP, trees {tree}");
    }

    // Crash a PE after the AtSync round's checkpoint: the run shrinks to
    // seven PEs and a new tree, and every element contributes again.
    let synced = RunConfig { lb: LbChoice::Greedy, ..RunConfig::default() };
    let (clean, report) = sim(8, 1, synced.clone(), SimConfig::default());
    assert_eq!(clean, want, "sim with an AtSync round");
    // The AtSync round ends about 4 ms in; the root then holds the sum
    // for 10 ms, so 7/20 of the run lands between checkpoint and delivery.
    let at = Dur::from_nanos(report.end_time.as_nanos() * 7 / 20);
    let plan = FailurePlan::new().crash_at(Pe(5), at);
    let crash = RunConfig { failure_plan: Some(plan.clone()), ..synced };
    let (shrunk, report) = sim(8, 1, crash.clone(), SimConfig::default());
    assert_eq!(report.counters.get(Ctr::Recoveries), 1, "the crash landed before the sum was delivered");
    assert_eq!(shrunk, want, "sim after crash -> shrink");

    // With a second AtSync round the same crash falls between the two
    // checkpoints; the shrunk run reaches the second one, where PE 5
    // rejoins, and the sum is taken on eight PEs again.
    let rejoin = RunConfig { failure_plan: Some(plan.rejoin_after_recoveries(Pe(5), 1)), ..crash };
    let (rejoined, report) = sim(8, 2, rejoin, SimConfig::default());
    assert_eq!(report.counters.get(Ctr::Generations), 3, "full -> shrunk -> re-expanded");
    assert_eq!(rejoined, want, "sim after crash -> shrink -> rejoin");
}

// ---- AMPI's collectives on the runtime's path ------------------------------

/// Rank `r` contributes `AMPI_INPUT[r % 8]`: beside the 1e16s, whose
/// spacing is 2, the small terms round away in most orders.
const AMPI_INPUT: [f64; 8] = [1e16, 1.0, -1e16, 1.0, 0.1, 0.2, 0.3, 0.7];

/// The bits of every rank's `allreduce_f64` and of the root's
/// `reduce_f64`, both `Sum` over `AMPI_INPUT`.
fn ampi_sum_bits(ranks: u32, run: impl FnOnce(RankBody) -> RunReport) -> Vec<u64> {
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let body: RankBody = Arc::new(move |rank| {
        let sink = Arc::clone(&sink);
        Box::pin(async move {
            let mine = [AMPI_INPUT[rank.rank() as usize % AMPI_INPUT.len()]];
            let all = rank.allreduce_f64(&mine, AmpiOp::Sum).await;
            let root = rank.reduce_f64(0, &mine, AmpiOp::Sum).await;
            sink.lock().expect("sum lock").extend(all.iter().chain(root.iter().flatten()).map(|v| v.to_bits()));
        })
    });
    assert!(run(body).unrecoverable.is_none());
    let bits = got.lock().expect("sum lock").clone();
    assert_eq!(bits.len(), ranks as usize + 1, "every rank's allreduce and the root's reduce");
    bits
}

#[test]
fn ampi_f64_sums_are_exact_on_every_schedule_and_engine() {
    // The inputs' exact sums, rounded once (what Python's math.fsum
    // returns): 0x1.a666666666666p+1 and 0x1.a666666666666p+3.
    for (ranks, sum) in [(8u32, 3.3f64), (32, 13.2)] {
        let want = vec![sum.to_bits(); ranks as usize + 1];
        for delivery in [DeliverySpec::Fifo, DeliverySpec::Random { seed: 1 }, DeliverySpec::Random { seed: 2 }] {
            let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(1));
            let engine = SimEngine::new(net, RunConfig::default())
                .with_config(SimConfig { delivery: delivery.clone(), ..SimConfig::default() });
            let bits = ampi_sum_bits(ranks, |body| engine.run(build_ampi_program(ranks, Mapping::Block, body)));
            assert_eq!(bits, want, "sim, {ranks} ranks, {delivery:?}");
        }
        let topo = Topology::two_cluster(8);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
        let bits = ampi_sum_bits(ranks, |body| {
            gridmdo::ampi::run_threaded(ranks, Mapping::Block, topo, latency, RunConfig::default(), body)
        });
        assert_eq!(bits, want, "threaded, {ranks} ranks");
    }
}

#[test]
fn an_ampi_allreduce_crosses_the_wan_once_each_way_with_trees() {
    // 32 ranks on two clusters of four PEs: the contributions combine per
    // PE and per cluster before the one wide-area hop up, and the result
    // crosses once on its way down.
    let cross = |allreduce: bool| {
        let body: RankBody = Arc::new(move |rank| {
            Box::pin(async move {
                if allreduce {
                    rank.allreduce_f64(&[1.0], AmpiOp::Sum).await;
                }
            })
        });
        let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(1));
        gridmdo::ampi::run_sim(32, Mapping::Block, net, trees_on(), body).network.cross_messages
    };
    assert_eq!(cross(true), cross(false) + 2, "one allreduce: one WAN message each way");
}

#[test]
fn an_ampi_bcast_from_a_remote_root_reaches_its_cluster_over_the_lan() {
    // 16 ranks on two clusters of four PEs, 10 ms apart; the root, rank 12,
    // is kicked off in cluster 1 at 10 ms.  Its cluster-mates get the data
    // without crossing the WAN, cluster 0 after one crossing, and the
    // two-level tree sends the WAN one copy.
    let run = |bcast: bool| {
        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let body: RankBody = Arc::new(move |rank| {
            let sink = Arc::clone(&sink);
            Box::pin(async move {
                if bcast {
                    assert_eq!(rank.bcast(12, vec![7; 64]).await, vec![7; 64]);
                    sink.lock().expect("arrivals lock").push((rank.rank(), rank.now().as_nanos() / 1_000_000));
                }
            })
        });
        let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(10));
        let cross = gridmdo::ampi::run_sim(16, Mapping::Block, net, trees_on(), body).network.cross_messages;
        let mut arrived_ms = got.lock().expect("arrivals lock").clone();
        arrived_ms.sort();
        (cross, arrived_ms)
    };
    let (cross, arrived_ms) = run(true);
    let want: Vec<(u32, u64)> = (0..16).map(|r| (r, if r < 8 { 20 } else { 10 })).collect();
    assert_eq!(arrived_ms, want, "(rank, ms) at which each rank returns from bcast");
    assert_eq!(cross, run(false).0 + 1, "one bcast: one WAN message");
}

// ---- faults and elasticity ------------------------------------------------

#[test]
fn tree_reductions_survive_loss_and_reorder_on_both_engines() {
    // 10% WAN loss plus reorder: the reliable layer retransmits, the tree
    // combiner must still see every child partial exactly once (its
    // duplicate assertions fire otherwise) and the field stays bit-exact.
    let cfg = small_stencil(16, 6, None);
    let want = seq_reference(&cfg);
    let plan = FaultPlan::loss(0.1).with_reorder(0.08).with_seed(1405).with_rto(Dur::from_millis(10));

    let sim = {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(4));
        let rc = RunConfig { fault_plan: Some(plan.clone()), ..trees_on() };
        stencil::run_sim(cfg.clone(), net, rc)
    };
    assert_eq!(sim.block_sums, want, "sim: tree collectives bit-exact under loss+reorder");
    assert!(sim.report.counters.get(Ctr::Drops) > 0, "faults actually occurred: {:?}", sim.report.counters);
    assert!(sim.report.counters.get(Ctr::Retransmits) > 0, "and were recovered from");

    let threaded = {
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(2));
        let rc = RunConfig { fault_plan: Some(plan), ..trees_on() };
        stencil::run_threaded(cfg, topo, latency, rc)
    };
    assert_eq!(threaded.block_sums, want, "threaded: tree collectives bit-exact under loss+reorder");
    assert!(threaded.report.counters.get(Ctr::Retransmits) > 0);
}

#[test]
fn gateway_crash_and_rejoin_rebuilds_the_tree_bit_exact() {
    gateway_crash_and_rejoin(None);
}

#[test]
fn gateway_crash_and_rejoin_over_a_lossy_wan_is_bit_exact() {
    // The same generations over a 5 % lossy WAN: the reliable protocol's
    // wire, pair state and retransmit timers restart with each one.
    gateway_crash_and_rejoin(Some(FaultPlan::loss(0.05)));
}

/// In two_cluster(4), PE 2 is cluster B's gateway — every tree collective
/// funnels through it.  Crash it mid-run: the shrink generation rebuilds
/// the tree without it (possibly promoting a new gateway), the rejoin
/// generation rebuilds again at full width, and the field must still be
/// bit-exact.
fn gateway_crash_and_rejoin(fault_plan: Option<FaultPlan>) {
    let steps = 6;
    let cfg = small_stencil(16, steps, Some(1));
    let net = || NetworkModel::two_cluster_sweep(4, Dur::from_millis(1));
    let rc = RunConfig { fault_plan, ..trees_on() };
    let clean = stencil::run_sim(cfg.clone(), net(), rc.clone());
    assert_eq!(clean.block_sums, seq_reference(&cfg));

    for k in 1..=4u32 {
        let at = Dur::from_nanos(clean.total.as_nanos() * u64::from(2 * k + 1) / u64::from(2 * steps));
        let rc = RunConfig {
            failure_plan: Some(FailurePlan::new().crash_at(Pe(2), at).rejoin_after_recoveries(Pe(2), 1)),
            ..rc.clone()
        };
        let elastic = stencil::run_sim(cfg.clone(), net(), rc);
        assert_eq!(elastic.block_sums, clean.block_sums, "gateway crash+rejoin at {k}/{steps}: bit-exact");
        assert_eq!(elastic.report.counters.get(Ctr::Recoveries), 1, "crash at {k}/{steps}");
        assert_eq!(elastic.report.counters.get(Ctr::PesJoined), 1, "rejoin at {k}/{steps}");
        assert_eq!(elastic.report.counters.get(Ctr::Generations), 3, "full → shrunk → re-expanded");
        assert!(elastic.report.unrecoverable.is_none());
        assert!(elastic.report.transport_error.is_none());
    }
}

// ---- schedule exploration -------------------------------------------------

#[test]
fn mdo_check_exploration_stays_green_with_trees_on() {
    // Random + PCT schedules, threaded differential runs, invariant layer
    // on — with every collective routed over the trees.  (CI runs the
    // full 200-schedule session; this is the in-tree smoke.)
    for app in [CheckApp::stencil_mini(), CheckApp::leanmd_mini()] {
        let cfg = ExploreConfig { schedules: 8, differential_every: 4, run: trees_on(), ..ExploreConfig::default() };
        let report = explore(&app, &cfg);
        assert!(report.horizon > 0, "{}: contested dispatches exist", report.app);
        assert!(report.passed(), "{}: tree exploration failed: {:?}", report.app, report.failing);
    }
}
