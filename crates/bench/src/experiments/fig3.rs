//! Figure 3: five-point stencil performance under artificial latencies.
//!
//! Reproduces the six sub-graphs (a)–(f): for each processor count
//! P ∈ {2, 4, 8, 16, 32, 64} (split evenly across two clusters), per-step
//! execution time of the 2048×2048 stencil as one-way cross-cluster
//! latency sweeps 0–32 ms, at three degrees of virtualization.  Every
//! point also records mean PE utilization and the WAN-overlap fraction
//! (busy time coexisting with outstanding cross-cluster messages ÷ total
//! WAN-outstanding time) from the observability subsystem — the paper's
//! masking claim measured directly rather than inferred from makespans.
//!
//! The paper's observations to look for in the output: near-horizontal
//! curves while latency is small relative to the maskable work; longer
//! flat sections and shallower slopes for higher virtualization; and the
//! lowest-virtualization curve losing even at zero latency on the larger
//! machines (the cache/grainsize effect of §5.2).
//!
//! A final section pushes the one-way latency to 64 ms — past the sweep —
//! and shows the overlap fraction rising with virtualization on **both**
//! engines (virtual time and real threads with sleep-emulated compute);
//! its wall-clock columns make it the one section that is not exact.

use mdo_apps::stencil::{self, StencilConfig};
use mdo_core::ThreadedConfig;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, LatencyMatrix, Topology};

use crate::table::{ms, Table};
use crate::{overlap_fraction, recorded, FIG3_LATENCIES_MS, FIG3_OBJECTS};

/// The first line of the section at 64 ms, below which nothing is exact.
pub const OVERLAP_HEADING: &str = "Overlap fraction vs virtualization at 64 ms";

/// The six sub-graphs, in virtual time.
pub fn generate() -> Vec<String> {
    let steps = 10;
    let mut out = String::new();
    outln!(out, "Figure 3: five-point stencil, 2048x2048 mesh, {steps} steps per run");
    outln!(out, "(two clusters, processors split evenly; one-way latency swept 0..32 ms)");
    outln!(out, "(util = mean PE utilization; ovl = WAN-overlap fraction, masked/outstanding)\n");

    for (idx, (p, objects)) in FIG3_OBJECTS.iter().enumerate() {
        let sub = (b'a' + idx as u8) as char;
        let mut header = vec!["latency_ms".to_string()];
        for &objs in objects.iter() {
            header.push(format!("{objs}o ms/step"));
            header.push(format!("{objs}o util"));
            header.push(format!("{objs}o ovl"));
        }
        let mut table = Table::new(header);
        for &lat in FIG3_LATENCIES_MS.iter() {
            let mut cells = vec![lat.to_string()];
            for &objs in objects.iter() {
                let cfg = StencilConfig::paper(objs, steps);
                let net = NetworkModel::two_cluster_sweep(*p, Dur::from_millis(lat));
                let run = stencil::run_sim(cfg, net, recorded());
                cells.push(ms(run.ms_per_step));
                cells.push(format!("{:.2}", run.report.mean_utilization()));
                cells.push(format!("{:.2}", overlap_fraction(&run.report)));
            }
            table.row(cells);
        }
        outln!(out, "Figure 3({sub}): {p} processors");
        outln!(out, "{}", table.render());
    }
    vec![out]
}

/// Overlap vs virtualization at 64 ms, on both engines.
///
/// 64 ms one-way is past the figure's sweep: latency large enough that
/// only the degree of virtualization decides how much of it is masked.
/// The asynchronous pipeline needs enough steps to build up before the
/// masking differentiates.
pub fn overlap_at_64ms() -> String {
    const OVERLAP_P: u32 = 8;
    const OVERLAP_OBJECTS: [usize; 3] = [16, 64, 256];
    const SIM_STEPS: u32 = 20;
    const REAL_STEPS: u32 = 6;
    let lat = Dur::from_millis(64);
    let mut out = String::new();
    outln!(out, "{OVERLAP_HEADING} one-way ({OVERLAP_P} PEs)");
    outln!(
        out,
        "(sim: {SIM_STEPS} steps; threaded: sleep-emulated compute, {REAL_STEPS} steps, real 64 ms delay device)\n"
    );
    let mut table = Table::new(vec!["objects", "objs/PE", "sim ovl", "sim util", "real ovl", "real util"]);
    for &objs in OVERLAP_OBJECTS.iter() {
        let sim = stencil::run_sim(
            StencilConfig::paper(objs, SIM_STEPS),
            NetworkModel::two_cluster_sweep(OVERLAP_P, lat),
            recorded(),
        );
        let topo = Topology::two_cluster(OVERLAP_P);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, lat);
        let real = stencil::run_threaded_with(
            StencilConfig::paper(objs, REAL_STEPS),
            topo,
            ThreadedConfig::new(latency).with_compute_sleep(),
            recorded(),
        );
        table.row(vec![
            objs.to_string(),
            (objs as u32 / OVERLAP_P).to_string(),
            format!("{:.2}", overlap_fraction(&sim.report)),
            format!("{:.2}", sim.report.mean_utilization()),
            format!("{:.2}", overlap_fraction(&real.report)),
            format!("{:.2}", real.report.mean_utilization()),
        ]);
    }
    outln!(out, "{}", table.render());
    out
}
