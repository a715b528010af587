//! Ablation A4: the §6 Grid-aware load balancer.
//!
//! The paper's future-work balancer "simply distribut\[es\] the chares that
//! communicate across high-latency wide-area connections evenly among the
//! processors within a cluster" and never migrates across clusters.  This
//! ablation runs a skewed synthetic workload (hot-spot objects, cross-
//! cluster peer traffic) under: no balancing, classic GreedyLB (cluster-
//! oblivious), RefineLB, and GridCommLB — reporting makespan, migrations,
//! and how much traffic ended up crossing the WAN.
//!
//! Usage: `ablation_lb [--objects N] [--rounds N] [--csv]`

use mdo_apps::workloads::{run_synthetic, LoadShape, SyntheticConfig};
use mdo_bench::table::{ms, Table};
use mdo_bench::{arg_flag, arg_value};
use mdo_core::program::{LbChoice, RunConfig};
use mdo_core::Ctr;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Dur;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let objects: u32 = arg_value(&args, "--objects").map(|s| s.parse().expect("--objects N")).unwrap_or(64);
    let rounds: u32 = arg_value(&args, "--rounds").map(|s| s.parse().expect("--rounds N")).unwrap_or(24);
    let csv = arg_flag(&args, "--csv");
    let pes = 8u32;

    println!("Ablation A4: load balancing a skewed synthetic workload");
    println!("({objects} objects with hot spots, {rounds} rounds, {pes} PEs across 2 clusters,");
    println!(" cross-cluster peer traffic each round, 4 ms one-way WAN latency)\n");

    let mut table = Table::new(vec!["strategy", "makespan ms", "vs none", "lb rounds", "migrations", "cross msgs"]);

    #[allow(clippy::type_complexity)]
    let strategies: Vec<(&str, LbChoice, Option<u32>)> = vec![
        ("none", LbChoice::Identity, None),
        ("Identity (barrier only)", LbChoice::Identity, Some(8)),
        ("GreedyLB", LbChoice::Greedy, Some(8)),
        ("RefineLB", LbChoice::Refine, Some(8)),
        ("GridCommLB", LbChoice::GridComm, Some(8)),
    ];

    let mut baseline: Option<f64> = None;
    for (name, choice, period) in strategies.clone() {
        let cfg = SyntheticConfig {
            objects,
            rounds,
            base_cost: Dur::from_millis(1),
            shape: LoadShape::HotSpots { every: objects / 4 },
            peer_traffic: true,
            blocking_peers: false,
            peer_stride: objects / 2,
            lb_period: period,
        };
        let net = NetworkModel::two_cluster_sweep(pes, Dur::from_millis(4));
        let run_cfg = RunConfig { lb: choice, ..RunConfig::default() };
        let report = run_synthetic(cfg, net, run_cfg);
        let makespan = report.end_time.as_millis_f64();
        let base = *baseline.get_or_insert(makespan);
        table.row(vec![
            name.to_string(),
            ms(makespan),
            format!("{:.2}x", makespan / base),
            report.counters.get(Ctr::LbRounds).to_string(),
            report.counters.get(Ctr::ObjectsMigrated).to_string(),
            report.network.cross_messages.to_string(),
        ]);
    }
    println!("{}", if csv { table.render_csv() } else { table.render() });
    println!("(GridCommLB balances within clusters only: no object crosses the WAN,");
    println!(" so its migrations never add new wide-area communication edges)\n");

    // Scenario 2: blocking peer round trips at a serious WAN latency,
    // with peers that start (almost all) co-located: cluster-oblivious
    // balancing moves objects away from their partners and turns local
    // round trips into wide-area ones; the Grid-aware balancer never does.
    println!("Scenario 2: blocking stride-1 peer round trips, 16 ms one-way WAN latency");
    println!("(every round waits for a peer acknowledgement; peers start local)\n");
    let mut table = Table::new(vec!["strategy", "makespan ms", "vs none", "migrations", "cross msgs"]);
    let mut baseline: Option<f64> = None;
    for (name, choice, period) in strategies {
        let cfg = SyntheticConfig {
            objects,
            rounds,
            base_cost: Dur::from_millis(1),
            shape: LoadShape::HotSpots { every: objects / 4 },
            peer_traffic: true,
            blocking_peers: true,
            peer_stride: 1,
            lb_period: period,
        };
        let net = NetworkModel::two_cluster_sweep(pes, Dur::from_millis(16));
        let run_cfg = RunConfig { lb: choice, ..RunConfig::default() };
        let report = run_synthetic(cfg, net, run_cfg);
        let makespan = report.end_time.as_millis_f64();
        let base = *baseline.get_or_insert(makespan);
        table.row(vec![
            name.to_string(),
            ms(makespan),
            format!("{:.2}x", makespan / base),
            report.counters.get(Ctr::ObjectsMigrated).to_string(),
            report.network.cross_messages.to_string(),
        ]);
    }
    println!("{}", if csv { table.render_csv() } else { table.render() });
}
