//! Table 2: LeanMD at the TeraGrid latency — artificial (simulated) vs
//! real (threaded) engines, beside the paper's published values.
//!
//! Same methodology as Table 1: the simulation engine models the
//! 1.725 ms one-way delay in virtual time; the threaded engine runs one
//! OS thread per PE with a real delay device and sleep-
//! emulated compute.  Note the paper's Table 2 prints seconds despite its
//! "ms/step" label (its own text quotes ~8 s/step on one processor);
//! we print seconds.
//!
//! The real column is wall-clock, so no part of the table is exact.

use mdo_apps::leanmd::{self, MdConfig};
use mdo_core::program::RunConfig;
use mdo_core::ThreadedConfig;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, LatencyMatrix, Topology};

use crate::table::{ms, Table};
use crate::{paper, PROCESSORS, TERAGRID_ONE_WAY};

/// Both engines beside the paper's columns.
pub fn generate() -> Vec<String> {
    let (sim_steps, real_steps) = (3, 2);
    let mut out = String::new();
    outln!(out, "Table 2: LeanMD at the TeraGrid latency (1.725 ms one-way), seconds/step");
    outln!(out, "(sim = virtual-time engine; real = threaded engine w/ real delay device)\n");

    let mut table = Table::new(vec!["P", "sim s/step", "real s/step", "paper artif.", "paper real"]);
    for &p in PROCESSORS.iter() {
        let cfg = MdConfig::paper(sim_steps);
        let net = NetworkModel::two_cluster_sweep(p, TERAGRID_ONE_WAY);
        let sim = leanmd::run_sim(cfg, net, RunConfig::default());

        let topo = Topology::two_cluster(p);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, TERAGRID_ONE_WAY);
        let cfg = MdConfig::paper(real_steps);
        let tcfg = ThreadedConfig::new(latency).with_compute_sleep();
        let real = leanmd::run_threaded_with(cfg, topo, tcfg, RunConfig::default());

        let (artificial, grid) = paper::table2(p).expect("grid covered by Table 2");
        table.row(vec![p.to_string(), ms(sim.s_per_step), ms(real.s_per_step), ms(artificial), ms(grid)]);
    }
    outln!(out, "{}", table.render());
    vec![out]
}
