//! Table 1: stencil execution times under artificial latency vs a "real"
//! multi-cluster run, side by side with the paper's published values.
//!
//! * **Artificial** — the virtual-time simulation engine with the delay
//!   model set to the paper's measured TeraGrid latency (1.725 ms one-way).
//! * **Real** — the threaded engine: one OS thread per PE, envelopes as
//!   real bytes through the VMI transport, a real delay device
//!   injecting 1.725 ms, compute emulated by sleeping each handler's
//!   charged cost (sleeps don't contend for CPU, so P PE threads behave
//!   like P dedicated processors even on a small host; DESIGN.md).
//!
//! The paper's validation claim is that the two columns agree; ours is
//! the same claim about our two engines, plus the paper's numbers for
//! absolute-scale comparison.
//!
//! Usage: `table1_stencil [--steps N] [--real-steps N] [--skip-real] [--csv]`

use mdo_apps::stencil::{self, StencilConfig};
use mdo_bench::table::{ms, Table};
use mdo_bench::{arg_flag, arg_value, paper, FIG3_OBJECTS, TERAGRID_ONE_WAY};
use mdo_core::program::RunConfig;
use mdo_core::ThreadedConfig;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, LatencyMatrix, Topology};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: u32 = arg_value(&args, "--steps").map(|s| s.parse().expect("--steps N")).unwrap_or(10);
    let real_steps: u32 = arg_value(&args, "--real-steps").map(|s| s.parse().expect("--real-steps N")).unwrap_or(5);
    let skip_real = arg_flag(&args, "--skip-real");
    let csv = arg_flag(&args, "--csv");

    println!("Table 1: five-point stencil at the TeraGrid latency (1.725 ms one-way)");
    println!("(sim = virtual-time engine; real = threaded engine w/ real delay device)\n");

    let mut table = Table::new(vec!["P", "objects", "sim ms/step", "real ms/step", "paper artif.", "paper real"]);

    for (p, objects) in FIG3_OBJECTS.iter() {
        for &objs in objects.iter() {
            let cfg = StencilConfig::paper(objs, steps);
            let net = NetworkModel::two_cluster_sweep(*p, TERAGRID_ONE_WAY);
            let sim = stencil::run_sim(cfg, net, RunConfig::default());

            let real_cell = if skip_real {
                "-".to_string()
            } else {
                let topo = Topology::two_cluster(*p);
                let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, TERAGRID_ONE_WAY);
                let cfg = StencilConfig::paper(objs, real_steps);
                let tcfg = ThreadedConfig::new(latency).with_compute_sleep();
                let out = stencil::run_threaded_with(cfg, topo, tcfg, RunConfig::default());
                ms(out.ms_per_step)
            };

            let paper_row =
                paper::TABLE1.iter().find(|&&(tp, to, _, _)| tp == *p && to == objs).expect("grid covered by Table 1");
            table.row(vec![
                p.to_string(),
                objs.to_string(),
                ms(sim.ms_per_step),
                real_cell,
                ms(paper_row.2),
                ms(paper_row.3),
            ]);
        }
    }
    println!("{}", if csv { table.render_csv() } else { table.render() });
}
