//! Table 2: LeanMD at the TeraGrid latency — artificial (simulated) vs
//! real (threaded) engines, beside the paper's published values.
//!
//! Same methodology as `table1_stencil`: the simulation engine models the
//! 1.725 ms one-way delay in virtual time; the threaded engine runs one
//! OS thread per PE with a real delay device and sleep-
//! emulated compute.  Note the paper's Table 2 prints seconds despite its
//! "ms/step" label (its own text quotes ~8 s/step on one processor);
//! we print seconds.
//!
//! Usage: `table2_leanmd [--steps N] [--real-steps N] [--skip-real] [--csv]`

use mdo_apps::leanmd::{self, MdConfig};
use mdo_bench::table::{ms, Table};
use mdo_bench::{arg_flag, arg_value, paper, PROCESSORS, TERAGRID_ONE_WAY};
use mdo_core::program::RunConfig;
use mdo_core::ThreadedConfig;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, LatencyMatrix, Topology};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: u32 = arg_value(&args, "--steps").map(|s| s.parse().expect("--steps N")).unwrap_or(3);
    let real_steps: u32 = arg_value(&args, "--real-steps").map(|s| s.parse().expect("--real-steps N")).unwrap_or(2);
    let skip_real = arg_flag(&args, "--skip-real");
    let csv = arg_flag(&args, "--csv");

    println!("Table 2: LeanMD at the TeraGrid latency (1.725 ms one-way), seconds/step");
    println!("(sim = virtual-time engine; real = threaded engine w/ real delay device)\n");

    let mut table = Table::new(vec!["P", "sim s/step", "real s/step", "paper artif.", "paper real"]);
    for &p in PROCESSORS.iter() {
        let cfg = MdConfig::paper(steps);
        let net = NetworkModel::two_cluster_sweep(p, TERAGRID_ONE_WAY);
        let sim = leanmd::run_sim(cfg, net, RunConfig::default());

        let real_cell = if skip_real {
            "-".to_string()
        } else {
            let topo = Topology::two_cluster(p);
            let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, TERAGRID_ONE_WAY);
            let cfg = MdConfig::paper(real_steps);
            let tcfg = ThreadedConfig::new(latency).with_compute_sleep();
            let out = leanmd::run_threaded_with(cfg, topo, tcfg, RunConfig::default());
            ms(out.s_per_step)
        };

        let row = paper::TABLE2.iter().find(|&&(tp, _, _)| tp == p).expect("covered");
        table.row(vec![p.to_string(), ms(sim.s_per_step), real_cell, ms(row.1), ms(row.2)]);
    }
    println!("{}", if csv { table.render_csv() } else { table.render() });
}
