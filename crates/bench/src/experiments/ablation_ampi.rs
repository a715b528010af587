//! Ablation A6: the AMPI claim — unchanged MPI code, masked by rank
//! virtualization.
//!
//! §2.1/§6: *"through the use of Adaptive MPI, any MPI application can
//! take advantage of our techniques"*.  The same blocking-style 2-D MPI
//! stencil (four halo sends, four awaited receives, compute) runs with
//! 1, 4, 16 and 64 ranks per PE; the code does not change, only the rank
//! count.  With one rank per PE every cross-cluster receive stalls the
//! processor; with many, the AMPI layer schedules another suspended rank
//! and the latency disappears from the critical path.

use mdo_apps::stencil::ampi2d::{self, Ampi2dConfig};
use mdo_apps::stencil::StencilCost;
use mdo_core::program::RunConfig;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Dur;

use crate::table::{ms, Table};
use crate::FIG3_LATENCIES_MS;

const PES: u32 = 4;
const STEPS: u32 = 10;

/// ms/step at 1, 4, 16 and 64 ranks per PE across the latency sweep.
pub fn generate() -> Vec<String> {
    // Rank grids must be perfect squares; per-PE counts 1x, 4x, 16x, 64x.
    let rank_counts: Vec<u32> = [1u32, 4, 16, 64].iter().map(|m| m * PES).collect();

    let mut out = String::new();
    outln!(out, "Ablation A6: AMPI rank virtualization (identical MPI-style stencil code)");
    outln!(out, "2048x2048 mesh, {PES} PEs across two clusters, {STEPS} steps\n");

    let mut header = vec!["latency_ms".to_string()];
    header.extend(rank_counts.iter().map(|r| format!("{r} ranks (ms/step)")));
    let mut table = Table::new(header);

    for &lat in FIG3_LATENCIES_MS.iter() {
        let mut cells = vec![lat.to_string()];
        for &ranks in &rank_counts {
            let cfg = Ampi2dConfig { mesh: 2048, ranks, steps: STEPS, compute: false, cost: StencilCost::default() };
            let net = NetworkModel::two_cluster_sweep(PES, Dur::from_millis(lat));
            cells.push(ms(ampi2d::run_sim(cfg, net, RunConfig::default()).ms_per_step));
        }
        table.row(cells);
    }
    outln!(out, "{}", table.render());
    outln!(out, "(same source for every column; only the number of ranks changes)");
    vec![out]
}
