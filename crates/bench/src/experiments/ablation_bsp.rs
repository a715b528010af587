//! Ablation A2: message-driven objects vs a bulk-synchronous baseline.
//!
//! §5.3 argues that "many algorithms would have increased their per-step
//! time from 4 to 4.5 seconds at least" under a 0.5 s round trip — i.e. a
//! lockstep code pays the latency every step.  This ablation pits the
//! message-driven stencil (many objects per PE, asynchronous stepping)
//! against the BSP AMPI stencil (one rank per PE, blocking halo exchange
//! plus per-step all-reduce) across the latency sweep and reports the
//! slowdown each suffers relative to its own zero-latency time.

use mdo_apps::stencil::bsp::{self, BspConfig};
use mdo_apps::stencil::{self, StencilConfig, StencilCost};
use mdo_core::program::RunConfig;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Dur;

use crate::table::{ms, ratio, Table};
use crate::FIG3_LATENCIES_MS;

const PES: u32 = 8;
const STEPS: u32 = 10;
const OBJECTS: usize = 256;

/// Both variants' ms/step and slowdown across the latency sweep.
pub fn generate() -> Vec<String> {
    let mut out = String::new();
    outln!(out, "Ablation A2: message-driven ({OBJECTS} objects) vs bulk-synchronous");
    outln!(out, "(1 rank/PE) five-point stencil on {PES} PEs, 2048x2048, {STEPS} steps\n");

    let mut table =
        Table::new(vec!["latency_ms", "msg-driven ms/step", "BSP ms/step", "msg-driven slowdown", "BSP slowdown"]);

    let md_run = |lat: u64| {
        let cfg = StencilConfig::paper(OBJECTS, STEPS);
        let net = NetworkModel::two_cluster_sweep(PES, Dur::from_millis(lat));
        stencil::run_sim(cfg, net, RunConfig::default()).ms_per_step
    };
    let bsp_run = |lat: u64| {
        let cfg = BspConfig { mesh: 2048, ranks: PES, steps: STEPS, compute: false, cost: StencilCost::default() };
        let net = NetworkModel::two_cluster_sweep(PES, Dur::from_millis(lat));
        bsp::run_sim(cfg, net, RunConfig::default()).ms_per_step
    };

    let md0 = md_run(0);
    let bsp0 = bsp_run(0);
    for &lat in FIG3_LATENCIES_MS.iter() {
        let md = md_run(lat);
        let bs = bsp_run(lat);
        table.row(vec![lat.to_string(), ms(md), ms(bs), ratio(md / md0), ratio(bs / bsp0)]);
    }
    outln!(out, "{}", table.render());
    outln!(out, "(slowdowns are relative to each variant's own zero-latency step time)");
    vec![out]
}
