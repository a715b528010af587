//! Ablation A14: topology-aware collective trees.
//!
//! `RunConfig::tree_collectives` selects the shape of the spanning tree
//! that broadcasts, multicasts and reductions run over: the flat binary
//! PE heap (`false`) or a two-level tree — one gateway PE per cluster,
//! partial-combine at the gateway, then a single wide-area hop to the
//! root.  This ablation measures exactly what the two-level shape buys:
//! the number of wide-area messages per collective round.
//!
//! The microbenchmark is a pure broadcast→reduce pulse (every element
//! contributes one f64 per round, the host re-broadcasts on each
//! completion).  To isolate the steady-state cost per round from startup
//! and shutdown traffic we run R rounds and 2R rounds and difference:
//! `(wan(2R) − wan(R)) / R` is the per-round wide-area message count.
//! With trees on it must be exactly `2·(clusters − 1)` — one WAN hop per
//! remote gateway down (broadcast) and one up (combined partial) — and
//! the harness asserts that bound.  Flat collectives pay roughly one WAN
//! hop per remote PE per direction instead.
//!
//! Two application rows (Jacobi stencil, LeanMD) report total
//! `wan_msgs_sent` flat vs tree on the same run, with the outputs
//! checked bit-exact across modes.
//!
//! Every count is exact in the simulator.

use mdo_apps::leanmd::{self, MdConfig};
use mdo_apps::stencil::{self, StencilConfig, StencilCost};
use mdo_core::envelope::ReduceOp;
use mdo_core::prelude::*;
use mdo_core::{Chare, Ctx, SimEngine};
use mdo_netsim::bandwidth::WanContention;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::LatencyMatrix;
use mdo_obs::Ctr;

use crate::recorded;
use crate::table::Table;

const KICK: EntryId = EntryId(91);

/// One element of the pulse microbenchmark: each KICK contributes a
/// single exactly-representable f64 to a SumF64 reduction.
struct Pulse {
    idx: u64,
}

impl Chare for Pulse {
    fn receive(&mut self, entry: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
        assert_eq!(entry, KICK);
        ctx.contribute_f64(ReduceOp::SumF64, &[self.idx as f64]);
    }
}

/// Broadcast→reduce `rounds` times, then exit.
fn pulse_program(elems: usize, rounds: u32) -> Program {
    let mut p = Program::new();
    let arr =
        p.array("pulse", elems, Mapping::Block, |elem| Box::new(Pulse { idx: elem.index() as u64 }) as Box<dyn Chare>);
    p.on_startup(move |ctl| ctl.broadcast(arr, KICK, vec![]));
    let mut done = 0u32;
    p.on_reduction(arr, move |_seq, _data, ctl| {
        done += 1;
        if done >= rounds {
            ctl.exit();
        } else {
            ctl.broadcast(arr, KICK, vec![]);
        }
    });
    p
}

/// A 1 ms WAN between the clusters of `topo`, and a recorded run over
/// the tree shape `tree` selects.
fn setup(topo: &Topology, tree: bool) -> (NetworkModel, RunConfig) {
    let latency = LatencyMatrix::uniform(topo, Dur::ZERO, Dur::from_millis(1));
    let net = NetworkModel::new(topo.clone(), latency, WanContention::disabled(topo), 0);
    (net, RunConfig { tree_collectives: tree, ..recorded() })
}

fn wan_msgs(report: RunReport) -> u64 {
    report.obs.expect("obs armed").merged_counters().get(Ctr::WanMsgsSent)
}

/// Total `wan_msgs_sent` for one pulse run of `rounds` rounds.
fn pulse_wan(topo: &Topology, elems: usize, rounds: u32, tree: bool) -> u64 {
    let (net, rc) = setup(topo, tree);
    let report = SimEngine::new(net, rc).run(pulse_program(elems, rounds));
    assert!(report.unrecoverable.is_none(), "pulse run completed");
    wan_msgs(report)
}

/// Steady-state wide-area messages per broadcast→reduce round, isolated
/// by differencing an R-round and a 2R-round run.
fn wan_per_round(topo: &Topology, elems: usize, rounds: u32, tree: bool) -> f64 {
    let lo = pulse_wan(topo, elems, rounds, tree);
    let hi = pulse_wan(topo, elems, 2 * rounds, tree);
    assert!(hi >= lo, "more rounds cannot send fewer WAN messages");
    (hi - lo) as f64 / f64::from(rounds)
}

/// Flat and tree `wan_msgs_sent` of the stencil, same field asserted.
fn stencil_wan() -> (u64, u64) {
    let cfg = StencilConfig {
        mesh: 32,
        objects: 16,
        steps: 8,
        compute: true,
        cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
        mapping: Mapping::Block,
        lb_period: None,
    };
    let run = |tree: bool| {
        let (net, rc) = setup(&Topology::uniform(4, 2), tree);
        let run = stencil::run_sim(cfg.clone(), net, rc);
        (run.block_sums, wan_msgs(run.report))
    };
    // Bit-exactness is the oracle suite's job; here we only insist the
    // two modes computed the same field while we compare their traffic.
    let ((flat_sums, flat_wan), (tree_sums, tree_wan)) = (run(false), run(true));
    assert_eq!(flat_sums, tree_sums, "stencil stays bit-exact while traffic changes");
    (flat_wan, tree_wan)
}

/// Flat and tree `wan_msgs_sent` of LeanMD, same physics asserted.
fn leanmd_wan() -> (u64, u64) {
    let run = |tree: bool| {
        let (net, rc) = setup(&Topology::uniform(4, 2), tree);
        let run = leanmd::run_sim(MdConfig::validation(3, 4, 4), net, rc);
        (run.checksums, wan_msgs(run.report))
    };
    let ((flat_sums, flat_wan), (tree_sums, tree_wan)) = (run(false), run(true));
    assert_eq!(flat_sums, tree_sums, "LeanMD stays bit-exact while traffic changes");
    (flat_wan, tree_wan)
}

/// WAN messages per collective round, and per application run, flat vs tree.
pub fn generate() -> Vec<String> {
    let rounds: u32 = 32;
    let mut out = String::new();
    outln!(out, "== A14: collective-tree ablation (full mode) ==\n");

    // ---- microbenchmark: WAN messages per broadcast→reduce round ----------
    let mut table = Table::new(vec!["layout", "PEs", "objects", "flat WAN/round", "tree WAN/round", "tree bound"]);
    for (clusters, per) in [(2u32, 4u32), (4, 4), (8, 2), (4, 8)] {
        let topo = Topology::uniform(clusters as u16, per);
        let elems = (clusters * per * 4) as usize;
        let flat = wan_per_round(&topo, elems, rounds, false);
        let tree = wan_per_round(&topo, elems, rounds, true);
        // One WAN hop down per remote gateway (broadcast) plus one up
        // (combined partial): the two-level tree's whole point.
        let bound = 2 * u64::from(clusters - 1);
        assert!(
            tree <= bound as f64,
            "tree per-round WAN traffic must respect the gateway bound: {tree} !<= {bound} ({clusters} clusters)"
        );
        assert!(tree < flat, "trees must beat flat collectives: {tree} !< {flat} ({clusters}x{per})");
        table.row(vec![
            format!("{clusters} x {per}"),
            format!("{}", clusters * per),
            format!("{elems}"),
            format!("{flat:.1}"),
            format!("{tree:.1}"),
            format!("<= {bound}"),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(out, "(per-round cost isolated by differencing {rounds}- and {}-round runs)\n", 2 * rounds);

    // ---- applications: total wide-area traffic, flat vs tree --------------
    let mut table = Table::new(vec!["application (4 clusters x 2 PEs)", "flat wan_msgs", "tree wan_msgs", "ratio"]);
    for (app, (flat_wan, tree_wan)) in [("stencil 32x32 / 16 obj", stencil_wan()), ("leanmd 3^3 cells", leanmd_wan())] {
        assert!(tree_wan < flat_wan, "{app}: trees must cut total WAN traffic");
        table.row(vec![
            app.to_string(),
            format!("{flat_wan}"),
            format!("{tree_wan}"),
            format!("{:.2}x", flat_wan as f64 / tree_wan as f64),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(out, "(identical application output in both modes — asserted bit-exact)\n");
    vec![out]
}
