//! Ablation A11: the elastic runtime — shrink, rejoin, expand, and the
//! continuous feedback balancer.
//!
//! Three questions, answered in virtual time (so the numbers are exact
//! and machine-independent):
//!
//!  1. What does a crash *cost*?  Recovery latency = the extra makespan a
//!     crash-and-shrink run pays over the failure-free run (replayed
//!     rounds plus running one PE short).
//!  2. What does re-expanding *buy back*?  Re-expand latency = the extra
//!     makespan of crash → shrink → rejoin over plain crash → shrink
//!     (the restart cost), against the imbalance it removes: after the
//!     rejoin all PEs share the load again.
//!  3. Does the obs-driven feedback balancer pull a skewed run back
//!     toward balance without any application change?
//!
//! Results land in `results/BENCH_elastic.json`.
//!
//! Usage: `ablation_elastic [--steps N] [--out FILE] [--csv]`

use mdo_apps::stencil::{self, StencilConfig, StencilCost};
use mdo_apps::workloads::{run_synthetic, LoadShape, SyntheticConfig};
use mdo_bench::table::{ms, Table};
use mdo_bench::{arg_flag, arg_value};
use mdo_core::prelude::{ClusterId, Pe};
use mdo_core::program::{LbChoice, RunConfig, RunReport};
use mdo_core::{Ctr, Mapping};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, FailurePlan};

fn stencil_cfg(steps: u32) -> StencilConfig {
    StencilConfig {
        mesh: 48,
        objects: 16,
        steps,
        compute: true,
        cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
        mapping: Mapping::Block,
        lb_period: Some(1),
    }
}

fn net() -> NetworkModel {
    NetworkModel::two_cluster_sweep(4, Dur::from_millis(1))
}

/// max/mean PE busy-time ratio over `pes` report slots.
fn imbalance(report: &RunReport, pes: usize) -> f64 {
    let busy: Vec<f64> = report.pe_busy.iter().take(pes).map(|d| d.as_secs_f64()).collect();
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    busy.iter().cloned().fold(0.0, f64::max) / mean
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: u32 = arg_value(&args, "--steps").map(|s| s.parse().expect("--steps N")).unwrap_or(10);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "results/BENCH_elastic.json".to_string());
    let csv = arg_flag(&args, "--csv");

    println!("Ablation A11: elastic runtime (shrink / rejoin / expand / feedback balancing)");
    println!("(48x48 stencil, 16 objects, {steps} steps, 4 PEs across 2 clusters, 1 ms WAN)\n");

    // ---- 1+2: crash, shrink, rejoin, expand -------------------------------
    let cfg = stencil_cfg(steps);
    let clean = stencil::run_sim(cfg.clone(), net(), RunConfig::default());
    let crash_at = Dur::from_nanos(clean.total.as_nanos() / 2);

    let shrunk = stencil::run_sim(
        cfg.clone(),
        net(),
        RunConfig { failure_plan: Some(FailurePlan::new().crash_at(Pe(1), crash_at)), ..RunConfig::default() },
    );
    assert_eq!(shrunk.block_sums, clean.block_sums, "shrink recovery is bit-exact");

    let elastic = stencil::run_sim(
        cfg.clone(),
        net(),
        RunConfig {
            failure_plan: Some(FailurePlan::new().crash_at(Pe(1), crash_at).rejoin_after_recoveries(Pe(1), 1)),
            ..RunConfig::default()
        },
    );
    assert_eq!(elastic.block_sums, clean.block_sums, "rejoin is bit-exact");
    assert_eq!(elastic.report.counters.get(Ctr::PesJoined), 1);

    let expand = stencil::run_sim(
        cfg.clone(),
        net(),
        RunConfig {
            failure_plan: Some(FailurePlan::new().join_at(Pe(4), ClusterId(0), crash_at)),
            ..RunConfig::default()
        },
    );
    assert_eq!(expand.block_sums, clean.block_sums, "expand is bit-exact");

    let recovery_ms = (shrunk.total - clean.total).as_millis_f64();
    let reexpand_ms = (elastic.total - shrunk.total).as_millis_f64();
    let expand_overhead_ms = (expand.total - clean.total).as_millis_f64();
    let shrunk_imb = imbalance(&shrunk.report, 4);
    let rejoin_imb = imbalance(&elastic.report, 4);

    let mut table =
        Table::new(vec!["scenario", "makespan ms", "vs clean", "recoveries", "joins", "gens", "max/mean busy"]);
    for (name, out, pes) in [
        ("clean", &clean, 4usize),
        ("crash -> shrink", &shrunk, 4),
        ("crash -> shrink -> rejoin", &elastic, 4),
        ("expand (+1 new PE)", &expand, 5),
    ] {
        table.row(vec![
            name.to_string(),
            ms(out.total.as_millis_f64()),
            format!("{:.2}x", out.total.as_millis_f64() / clean.total.as_millis_f64()),
            out.report.counters.get(Ctr::Recoveries).to_string(),
            out.report.counters.get(Ctr::PesJoined).to_string(),
            out.report.counters.get(Ctr::Generations).to_string(),
            format!("{:.3}", imbalance(&out.report, pes)),
        ]);
    }
    println!("{}", if csv { table.render_csv() } else { table.render() });
    println!("recovery latency (crash cost over clean):      {}", ms(recovery_ms));
    println!("re-expand latency (rejoin cost over shrunk):   {}", ms(reexpand_ms));
    println!("post-rejoin imbalance {rejoin_imb:.3} vs shrunk {shrunk_imb:.3} (dead PE's slot stays frozen)\n");

    // ---- 3: continuous feedback balancing ---------------------------------
    println!("Feedback balancer on a hot-spot synthetic load (flipping RunConfig only):\n");
    let syn = SyntheticConfig {
        objects: 32,
        rounds: 16,
        base_cost: Dur::from_millis(1),
        shape: LoadShape::HotSpots { every: 16 },
        peer_traffic: true,
        blocking_peers: false,
        peer_stride: 16,
        lb_period: Some(2),
    };
    let syn_net = || NetworkModel::two_cluster_sweep(4, Dur::from_micros(100));
    let unbalanced = run_synthetic(syn.clone(), syn_net(), RunConfig::default());
    let fb = run_synthetic(syn, syn_net(), RunConfig { lb: LbChoice::Greedy, feedback: true, ..RunConfig::default() });
    let imb_before = imbalance(&unbalanced, 4);
    let imb_after = imbalance(&fb, 4);
    assert!(imb_after < imb_before, "the feedback balancer must reduce imbalance");

    let mut table = Table::new(vec!["config", "makespan ms", "max/mean busy", "triggers", "migrations"]);
    table.row(vec![
        "no balancing".to_string(),
        ms(unbalanced.end_time.as_millis_f64()),
        format!("{imb_before:.3}"),
        "0".to_string(),
        "0".to_string(),
    ]);
    table.row(vec![
        "feedback + GreedyLB".to_string(),
        ms(fb.end_time.as_millis_f64()),
        format!("{imb_after:.3}"),
        fb.counters.get(Ctr::RebalanceTriggers).to_string(),
        fb.counters.get(Ctr::ObjectsMigrated).to_string(),
    ]);
    println!("{}", if csv { table.render_csv() } else { table.render() });

    let json = format!(
        "{{\n  \"schema\": 1,\n  \"steps\": {steps},\n  \"elastic_stencil_4pe_1ms\": {{\n    \
         \"clean_ms\": {:.3},\n    \"shrunk_ms\": {:.3},\n    \"rejoin_ms\": {:.3},\n    \
         \"expand_ms\": {:.3},\n    \"recovery_latency_ms\": {recovery_ms:.3},\n    \
         \"reexpand_latency_ms\": {reexpand_ms:.3},\n    \"expand_overhead_ms\": {expand_overhead_ms:.3},\n    \
         \"shrunk_imbalance\": {shrunk_imb:.4},\n    \"post_rejoin_imbalance\": {rejoin_imb:.4},\n    \
         \"steps_replayed\": {},\n    \"checkpoints_taken\": {}\n  }},\n  \"feedback_synthetic_4pe\": {{\n    \
         \"imbalance_before\": {imb_before:.4},\n    \"imbalance_after\": {imb_after:.4},\n    \
         \"rebalance_triggers\": {},\n    \"migrations\": {}\n  }}\n}}\n",
        clean.total.as_millis_f64(),
        shrunk.total.as_millis_f64(),
        elastic.total.as_millis_f64(),
        expand.total.as_millis_f64(),
        elastic.report.counters.get(Ctr::StepsReplayed),
        elastic.report.counters.get(Ctr::CheckpointsTaken),
        fb.counters.get(Ctr::RebalanceTriggers),
        fb.counters.get(Ctr::ObjectsMigrated),
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create results directory");
    }
    std::fs::write(&out_path, &json).expect("write results json");
    println!("\nwrote {out_path}");
}
