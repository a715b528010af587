//! Ablation A3: ghost-zone expansion vs runtime-level virtualization.
//!
//! The paper contrasts its runtime-level technique with the algorithm-
//! level remedy of Ding & He \[6\] (more ghost layers → exchanges every g
//! steps → fewer, larger messages, plus redundant halo computation).
//! This ablation runs the same 2048×2048 problem as (a) the plain
//! message-driven stencil at a high degree of virtualization, and (b) the
//! ghost-zone variant at one object per PE with g ∈ {1, 2, 4, 8}, across
//! the latency sweep.

use mdo_apps::stencil::ghost::{self, GhostConfig};
use mdo_apps::stencil::{self, StencilConfig, StencilCost};
use mdo_core::program::RunConfig;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Dur;

use crate::table::{ms, Table};
use crate::FIG3_LATENCIES_MS;

const PES: u32 = 16;
const STEPS: u32 = 16;

/// ms/step of the virtualized stencil and of g ghost layers across the
/// latency sweep.
pub fn generate() -> Vec<String> {
    let layers = [1usize, 2, 4, 8];
    let virt_objects = 256usize;

    let mut out = String::new();
    outln!(out, "Ablation A3: ghost-zone expansion (g layers, {PES} objects = 1/PE)");
    outln!(out, "vs message-driven virtualization ({virt_objects} objects) on {PES} PEs\n");

    let mut header = vec!["latency_ms".to_string(), format!("virt={virt_objects} (ms/step)")];
    header.extend(layers.iter().map(|g| format!("ghost g={g} (ms/step)")));
    let mut table = Table::new(header);

    for &lat in FIG3_LATENCIES_MS.iter() {
        let net = || NetworkModel::two_cluster_sweep(PES, Dur::from_millis(lat));
        let mut cells = vec![lat.to_string()];
        let virt = stencil::run_sim(StencilConfig::paper(virt_objects, STEPS), net(), RunConfig::default());
        cells.push(ms(virt.ms_per_step));
        for &g in layers.iter() {
            let cfg = GhostConfig {
                mesh: 2048,
                objects: PES as usize,
                layers: g,
                steps: STEPS,
                compute: false,
                cost: StencilCost::default(),
            };
            cells.push(ms(ghost::run_sim(cfg, net(), RunConfig::default()).ms_per_step));
        }
        table.row(cells);
    }
    outln!(out, "{}", table.render());
    outln!(out, "(ghost zones trade redundant halo computation for message frequency;");
    outln!(out, " virtualization gets flat curves without touching the algorithm)");
    vec![out]
}
