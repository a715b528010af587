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
//! The real column is wall-clock, so no part of the table is exact.

use mdo_apps::stencil::{self, StencilConfig};
use mdo_core::program::RunConfig;
use mdo_core::ThreadedConfig;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, LatencyMatrix, Topology};

use crate::table::{ms, Table};
use crate::{paper, FIG3_OBJECTS, TERAGRID_ONE_WAY};

/// Both engines beside the paper's columns.
pub fn generate() -> Vec<String> {
    let (sim_steps, real_steps) = (10, 5);
    let mut out = String::new();
    outln!(out, "Table 1: five-point stencil at the TeraGrid latency (1.725 ms one-way)");
    outln!(out, "(sim = virtual-time engine; real = threaded engine w/ real delay device)\n");

    let mut table = Table::new(vec!["P", "objects", "sim ms/step", "real ms/step", "paper artif.", "paper real"]);

    for (p, objects) in FIG3_OBJECTS.iter() {
        for &objs in objects.iter() {
            let cfg = StencilConfig::paper(objs, sim_steps);
            let net = NetworkModel::two_cluster_sweep(*p, TERAGRID_ONE_WAY);
            let sim = stencil::run_sim(cfg, net, RunConfig::default());

            let topo = Topology::two_cluster(*p);
            let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, TERAGRID_ONE_WAY);
            let cfg = StencilConfig::paper(objs, real_steps);
            let tcfg = ThreadedConfig::new(latency).with_compute_sleep();
            let real = stencil::run_threaded_with(cfg, topo, tcfg, RunConfig::default());

            let (artificial, grid) = paper::table1(*p, objs).expect("grid covered by Table 1");
            table.row(vec![
                p.to_string(),
                objs.to_string(),
                ms(sim.ms_per_step),
                ms(real.ms_per_step),
                ms(artificial),
                ms(grid),
            ]);
        }
    }
    outln!(out, "{}", table.render());
    vec![out]
}
