//! Ablation A5: prioritized delivery of cross-cluster messages.
//!
//! §6: *"one can envision a scheme in which messages that cross cluster
//! boundaries are tagged with a higher priority than local messages.
//! This tagging would allow these messages to be processed first, further
//! reducing the impact of wide-area latency."*  The runtime implements
//! exactly that (`RunConfig::grid_prio`); this ablation measures it on
//! both applications across the latency sweep.
//!
//! The effect is strongest when receive queues are deep (high
//! virtualization) and cross-cluster messages would otherwise wait behind
//! bursts of local work.
//!
//! A second table puts the wall-clock engine beside the simulator on the
//! jobs the benchmark spine times: `stencil_mask`'s (256 objects on 2 × 4
//! PE threads, sleep-emulated compute, 32 ms and 0) and LeanMD at the
//! paper's size over four and eight steps on two single-PE nodes with a
//! loopback TCP socket between them (16 ms and 0).  There the simulator's
//! step is the cost model and the wall-clock step is what the runtime
//! itself spends, so it is the deltas that compare, not the milliseconds.
//! Each wall-clock cell is the fastest of `REPS` runs, FIFO and
//! prioritized alternating, with the median beside it.
//!
//! Usage: `ablation_priority [--pes N] [--steps N] [--skip-real] [--csv]`

use mdo_apps::leanmd::{self, MdConfig};
use mdo_apps::stencil::{self, StencilConfig};
use mdo_bench::table::{ms, Table};
use mdo_bench::{arg_flag, arg_value, over_tcp};
use mdo_core::engine::threaded::ThreadedConfig;
use mdo_core::program::RunConfig;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, LatencyMatrix, Topology};

/// Runs a side behind each wall-clock cell.
const REPS: usize = 7;

/// `(fastest, median)` of `REPS` runs a side, the two sides alternating so
/// that neither always runs on the warmer host.
fn fastest_and_median(run: impl Fn(bool) -> f64) -> [(f64, f64); 2] {
    let mut sides = [Vec::new(), Vec::new()];
    for rep in 0..REPS {
        for prio in [rep % 2 == 1, rep % 2 == 0] {
            sides[prio as usize].push(run(prio));
        }
    }
    sides.map(|mut v| {
        v.sort_by(f64::total_cmp);
        (v[0], v[v.len() / 2])
    })
}

fn delta(fifo: f64, prio: f64) -> String {
    format!("{:+.1}%", 100.0 * (prio - fifo) / fifo)
}

/// The wall-clock engine beside the simulator, job by job (module docs).
fn wall_clock_table() -> Table {
    let mut table = Table::new(vec![
        "job",
        "latency_ms",
        "sim fifo",
        "sim prio",
        "delta",
        "wall fifo (median)",
        "wall prio (median)",
        "delta",
    ]);
    let run_cfg = |prio: bool| RunConfig { grid_prio: prio, ..RunConfig::default() };
    let mut row = |job: &str, lat: u64, sim: &dyn Fn(bool) -> f64, wall: &dyn Fn(bool) -> f64| {
        let (sf, sp) = (sim(false), sim(true));
        let [(wf, wf_med), (wp, wp_med)] = fastest_and_median(wall);
        table.row(vec![
            job.to_string(),
            lat.to_string(),
            ms(sf),
            ms(sp),
            delta(sf, sp),
            format!("{} ({})", ms(wf), ms(wf_med)),
            format!("{} ({})", ms(wp), ms(wp_med)),
            delta(wf, wp),
        ]);
    };
    for lat in [32u64, 0] {
        let topo = Topology::uniform(2, 4);
        let cfg = StencilConfig::paper(256, 12);
        let sim = |prio| {
            stencil::run_sim(cfg.clone(), NetworkModel::two_cluster_sweep(8, Dur::from_millis(lat)), run_cfg(prio))
                .ms_per_step
        };
        let wall = |prio| {
            let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(lat));
            let tcfg = ThreadedConfig::new(latency).with_compute_sleep();
            stencil::run_threaded_with(cfg.clone(), topo.clone(), tcfg, run_cfg(prio)).ms_per_step
        };
        row("stencil 256 obj, 2x4 PE threads", lat, &sim, &wall);
    }
    for steps in [4u32, 8] {
        for lat in [16u64, 0] {
            let topo = Topology::uniform(2, 1);
            let cfg = MdConfig::paper(steps);
            let sim = |prio| {
                leanmd::run_sim(cfg.clone(), NetworkModel::two_cluster_sweep(2, Dur::from_millis(lat)), run_cfg(prio))
                    .ms_per_step
            };
            let wall = |prio| {
                over_tcp(&topo, &run_cfg(prio), |run_cfg| {
                    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(lat));
                    leanmd::run_threaded(cfg.clone(), topo.clone(), latency, run_cfg).ms_per_step
                })
            };
            row(&format!("LeanMD paper({steps}), 2 nodes x 1 PE, TCP"), lat, &sim, &wall);
        }
    }
    table
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pes: u32 = arg_value(&args, "--pes").map(|s| s.parse().expect("--pes N")).unwrap_or(8);
    let steps: u32 = arg_value(&args, "--steps").map(|s| s.parse().expect("--steps N")).unwrap_or(10);
    let skip_real = arg_flag(&args, "--skip-real");
    let csv = arg_flag(&args, "--csv");
    let latencies = [4u64, 8, 16, 32, 64];

    println!("Ablation A5: cross-cluster message priority (RunConfig::grid_prio)");
    println!("on {pes} PEs; stencil 1024 objects / LeanMD paper benchmark\n");

    let mut table = Table::new(vec![
        "latency_ms",
        "stencil fifo",
        "stencil prio",
        "delta",
        "leanmd fifo (s)",
        "leanmd prio (s)",
        "delta",
    ]);

    for &lat in latencies.iter() {
        let net = || NetworkModel::two_cluster_sweep(pes, Dur::from_millis(lat));
        let run_stencil = |prio: bool| {
            let cfg = StencilConfig::paper(1024, steps);
            let run_cfg = RunConfig { grid_prio: prio, ..RunConfig::default() };
            stencil::run_sim(cfg, net(), run_cfg).ms_per_step
        };
        let run_md = |prio: bool| {
            let cfg = MdConfig::paper(steps.min(4));
            let run_cfg = RunConfig { grid_prio: prio, ..RunConfig::default() };
            leanmd::run_sim(cfg, net(), run_cfg).s_per_step
        };
        let (sf, sp) = (run_stencil(false), run_stencil(true));
        let (mf, mp) = (run_md(false), run_md(true));
        table.row(vec![lat.to_string(), ms(sf), ms(sp), delta(sf, sp), ms(mf), ms(mp), delta(mf, mp)]);
    }
    println!("{}", if csv { table.render_csv() } else { table.render() });
    println!("(negative deltas = prioritization helped)");

    if !skip_real {
        println!("\nWall clock beside the simulator, ms/step; wall-clock cells are the fastest of {REPS} (median)\n");
        let table = wall_clock_table();
        println!("{}", if csv { table.render_csv() } else { table.render() });
    }
}
