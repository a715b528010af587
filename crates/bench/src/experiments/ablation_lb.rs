//! Ablation A4: the §6 Grid-aware load balancer.
//!
//! The paper's future-work balancer "simply distribut\[es\] the chares that
//! communicate across high-latency wide-area connections evenly among the
//! processors within a cluster" and never migrates across clusters.  This
//! ablation runs a skewed synthetic workload (hot-spot objects, cross-
//! cluster peer traffic) under: no balancing, classic GreedyLB (cluster-
//! oblivious), RefineLB, and GridCommLB — reporting makespan, migrations,
//! and how much traffic ended up crossing the WAN.

use mdo_apps::workloads::{run_synthetic, LoadShape, SyntheticConfig};
use mdo_core::program::{LbChoice, RunConfig, RunReport};
use mdo_core::Ctr;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Dur;

use crate::table::{ms, Table};

const OBJECTS: u32 = 64;
const ROUNDS: u32 = 24;
const PES: u32 = 8;

/// Each strategy's name, makespan in ms and report on the skewed workload,
/// with the peer pattern and one-way WAN latency given.
fn runs(blocking_peers: bool, peer_stride: u32, wan_ms: u64) -> Vec<(&'static str, f64, RunReport)> {
    let strategies = [
        ("none", LbChoice::Identity, None),
        ("Identity (barrier only)", LbChoice::Identity, Some(8)),
        ("GreedyLB", LbChoice::Greedy, Some(8)),
        ("RefineLB", LbChoice::Refine, Some(8)),
        ("GridCommLB", LbChoice::GridComm, Some(8)),
    ];
    let run = |(name, lb, lb_period): (&'static str, LbChoice, Option<u32>)| {
        let cfg = SyntheticConfig {
            objects: OBJECTS,
            rounds: ROUNDS,
            base_cost: Dur::from_millis(1),
            shape: LoadShape::HotSpots { every: OBJECTS / 4 },
            peer_traffic: true,
            blocking_peers,
            peer_stride,
            lb_period,
        };
        let net = NetworkModel::two_cluster_sweep(PES, Dur::from_millis(wan_ms));
        let report = run_synthetic(cfg, net, RunConfig { lb, ..RunConfig::default() });
        (name, report.end_time.as_millis_f64(), report)
    };
    strategies.into_iter().map(run).collect()
}

/// Makespan, migrations and cross-cluster messages of each strategy, in
/// two scenarios.
pub fn generate() -> Vec<String> {
    let mut out = String::new();
    outln!(out, "Ablation A4: load balancing a skewed synthetic workload");
    outln!(out, "({OBJECTS} objects with hot spots, {ROUNDS} rounds, {PES} PEs across 2 clusters,");
    outln!(out, " cross-cluster peer traffic each round, 4 ms one-way WAN latency)\n");

    let mut table = Table::new(vec!["strategy", "makespan ms", "vs none", "lb rounds", "migrations", "cross msgs"]);
    let runs_1 = runs(false, OBJECTS / 2, 4);
    for (name, makespan, report) in &runs_1 {
        table.row(vec![
            name.to_string(),
            ms(*makespan),
            format!("{:.2}x", makespan / runs_1[0].1),
            report.counters.get(Ctr::LbRounds).to_string(),
            report.counters.get(Ctr::ObjectsMigrated).to_string(),
            report.network.cross_messages.to_string(),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(out, "(GridCommLB balances within clusters only: no object crosses the WAN,");
    outln!(out, " so its migrations never add new wide-area communication edges)\n");

    // Scenario 2: blocking peer round trips at a serious WAN latency,
    // with peers that start (almost all) co-located: cluster-oblivious
    // balancing moves objects away from their partners and turns local
    // round trips into wide-area ones; the Grid-aware balancer never does.
    outln!(out, "Scenario 2: blocking stride-1 peer round trips, 16 ms one-way WAN latency");
    outln!(out, "(every round waits for a peer acknowledgement; peers start local)\n");
    let mut table = Table::new(vec!["strategy", "makespan ms", "vs none", "migrations", "cross msgs"]);
    let runs_2 = runs(true, 1, 16);
    for (name, makespan, report) in &runs_2 {
        table.row(vec![
            name.to_string(),
            ms(*makespan),
            format!("{:.2}x", makespan / runs_2[0].1),
            report.counters.get(Ctr::ObjectsMigrated).to_string(),
            report.network.cross_messages.to_string(),
        ]);
    }
    outln!(out, "{}", table.render());
    vec![out]
}
