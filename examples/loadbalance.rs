//! Measurement-based load balancing, including the paper's §6 Grid
//! balancer.
//!
//! A skewed synthetic workload (a few 10× hot objects) runs on 8 PEs
//! across two clusters; the runtime measures per-object load and
//! communication at an AtSync barrier, the chosen strategy computes a new
//! placement, and objects migrate (their state packed, shipped, and
//! unpacked).  GridCommLB obeys the §6 rule: *"no chares are migrated to
//! remote clusters; rather they are simply migrated among the processors
//! within the cluster in which they were originally placed."*
//!
//! ```sh
//! cargo run --release --example loadbalance -- [greedy|refine|gridcomm|none]
//! ```

use gridmdo::apps::workloads::{run_synthetic, LoadShape, SyntheticConfig};
use gridmdo::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let choice = args.get(1).map(String::as_str).unwrap_or("gridcomm");
    let (name, lb, period) = match choice {
        "none" => ("no balancing", LbChoice::Identity, None),
        "greedy" => ("GreedyLB", LbChoice::Greedy, Some(6)),
        "refine" => ("RefineLB", LbChoice::Refine, Some(6)),
        "gridcomm" => ("GridCommLB (paper §6)", LbChoice::GridComm, Some(6)),
        other => panic!("unknown strategy {other:?}; use greedy|refine|gridcomm|none"),
    };

    let cfg = SyntheticConfig {
        objects: 48,
        rounds: 18,
        base_cost: Dur::from_millis(1),
        shape: LoadShape::HotSpots { every: 12 },
        peer_traffic: true,
        blocking_peers: false,
        peer_stride: 24,
        lb_period: period,
    };

    println!("synthetic workload: 48 objects (4 hot at 10x), 18 rounds, 8 PEs / 2 clusters");
    println!("strategy: {name}\n");

    let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(4));
    let run_cfg = RunConfig { lb, ..RunConfig::default() };
    let report = run_synthetic(cfg, net, run_cfg);

    println!("  makespan        : {:.1} ms", report.end_time.as_millis_f64());
    println!("  LB barriers run : {}", report.counters.get(Ctr::LbRounds));
    println!("  objects migrated: {}", report.counters.get(Ctr::ObjectsMigrated));
    println!("  cross-WAN msgs  : {}", report.network.cross_messages);
    println!("  utilization     : {:.1}%", 100.0 * report.mean_utilization());
    println!("\nTry the other strategies and compare makespans:");
    println!("  cargo run --release --example loadbalance -- none|greedy|refine|gridcomm");
}
