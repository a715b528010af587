//! Ablation A7: the paper's §5.3 load-balancing conjecture, tested.
//!
//! *"The runs were conducted without any load balancing.  With load
//! balancing, the speedups are likely to be good at 64 processors."*
//!
//! We give LeanMD a deliberately skewed initial cell-pair placement
//! (three quarters of the pairs land on the first half of each cluster's
//! PEs), run it as-is, and then run it with periodic AtSync balancing
//! under each strategy.  The measured per-step time after the first
//! barrier tests the conjecture directly — including that the Grid-aware
//! balancer recovers the loss *without* migrating anything across the
//! wide area.
//!
//! Usage: `ablation_md_lb [--pes N] [--steps N] [--csv]`

use std::sync::Arc;

use mdo_apps::leanmd::{self, MdConfig};
use mdo_bench::table::{ms, Table};
use mdo_bench::{arg_flag, arg_value};
use mdo_core::prelude::*;
use mdo_core::program::{LbChoice, RunConfig};
use mdo_netsim::network::NetworkModel;

fn skewed_pair_mapping() -> Mapping {
    // 3 of every 4 pairs go to the first half of the PEs; the rest spread
    // over the second half.  (Stays cluster-symmetric so the skew is an
    // intra-cluster imbalance, like a bad default map.)
    Mapping::Custom(Arc::new(|elem: ElemId, topo: &Topology| {
        let p = topo.num_pes() as u32;
        let half = (p / 2).max(1);
        let e = elem.0;
        if e % 4 != 3 {
            Pe(e % half)
        } else {
            Pe(half + e % (p - half).max(1))
        }
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pes: u32 = arg_value(&args, "--pes").map(|s| s.parse().expect("--pes N")).unwrap_or(64);
    let steps: u32 = arg_value(&args, "--steps").map(|s| s.parse().expect("--steps N")).unwrap_or(8);
    let csv = arg_flag(&args, "--csv");
    let lat = Dur::from_millis(4);

    println!("Ablation A7 (§5.3 conjecture): LeanMD on {pes} PEs with a skewed initial");
    println!("pair placement, {steps} steps, 4 ms one-way WAN latency, LB after step 2\n");

    let mut table = Table::new(vec!["configuration", "s/step", "vs balanced", "migrations", "cross msgs"]);

    // Reference: the well-balanced Block mapping, no LB.
    let balanced = {
        let cfg = MdConfig::paper(steps);
        let net = NetworkModel::two_cluster_sweep(pes, lat);
        leanmd::run_sim(cfg, net, RunConfig::default())
    };
    table.row(vec![
        "block map, no LB".to_string(),
        ms(balanced.s_per_step),
        "1.00x".to_string(),
        "0".to_string(),
        balanced.report.network.cross_messages.to_string(),
    ]);

    let skewed_run = |lb: Option<LbChoice>| {
        let mut cfg = MdConfig::paper(steps);
        cfg.pair_mapping = skewed_pair_mapping();
        cfg.lb_period = lb.is_some().then_some(2);
        let run_cfg = RunConfig { lb: lb.unwrap_or(LbChoice::Identity), ..RunConfig::default() };
        let net = NetworkModel::two_cluster_sweep(pes, lat);
        leanmd::run_sim(cfg, net, run_cfg)
    };

    for (name, lb) in [
        ("skewed map, no LB", None),
        ("skewed + GreedyLB", Some(LbChoice::Greedy)),
        ("skewed + RefineLB", Some(LbChoice::Refine)),
        ("skewed + GridCommLB", Some(LbChoice::GridComm)),
    ] {
        let out = skewed_run(lb);
        table.row(vec![
            name.to_string(),
            ms(out.s_per_step),
            format!("{:.2}x", out.s_per_step / balanced.s_per_step),
            out.report.counters.get(Ctr::ObjectsMigrated).to_string(),
            out.report.network.cross_messages.to_string(),
        ]);
    }
    println!("{}", if csv { table.render_csv() } else { table.render() });
    println!("(the conjecture holds if the balanced strategies land near 1.00x;");
    println!(" GridCommLB must do so without cross-cluster migration)");
}
