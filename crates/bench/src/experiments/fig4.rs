//! Figure 4: LeanMD performance as a function of message latency.
//!
//! For each processor count P ∈ {2…64}, per-step time of the 216-cell /
//! 3,024-cell-pair benchmark as one-way cross-cluster latency sweeps
//! 1–256 ms.  The paper's observations to look for: reasonable scaling at
//! the left edge of each curve (up to ~32 PEs); on 2 PEs latency barely
//! matters because even 256 ms is a fraction of the ~4 s step; on 32 PEs
//! (~90+ objects/PE) latency up to ~32 ms is fully masked.
//!
//! A second table gives the shared WAN pipe a finite bandwidth of
//! 0.1 Gbit/s and shows the §5.3 contention effect (64-PE runs degrading
//! because "a large amount of data is being communicated between two
//! clusters over a shorter period of time").

use mdo_apps::leanmd::{self, MdConfig};
use mdo_core::program::RunConfig;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, LinkModel};

use crate::table::{ms, Table};
use crate::{overlap_fraction, recorded, FIG4_LATENCIES_MS, PROCESSORS};

/// The latency sweep and the contention study.
pub fn generate() -> Vec<String> {
    let steps = 3u32;
    // Bandwidth of the shared WAN pipe in the contention study.
    let gbit = 0.1;
    let mut out = String::new();
    outln!(out, "Figure 4: LeanMD (216 cells, 3024 cell-pairs), {steps} steps per run");
    outln!(out, "(seconds/step vs one-way latency; two clusters, PEs split evenly)");
    outln!(out, "(util = mean PE utilization; ovl = WAN-overlap fraction, masked/outstanding)\n");

    let mut header = vec!["latency_ms".to_string()];
    for &p in PROCESSORS.iter() {
        header.push(format!("{p}PE s/step"));
        header.push(format!("{p}PE util"));
        header.push(format!("{p}PE ovl"));
    }
    let mut table = Table::new(header);
    for &lat in FIG4_LATENCIES_MS.iter() {
        let mut cells = vec![lat.to_string()];
        for &p in PROCESSORS.iter() {
            let cfg = MdConfig::paper(steps);
            let net = NetworkModel::two_cluster_sweep(p, Dur::from_millis(lat));
            let run = leanmd::run_sim(cfg, net, recorded());
            cells.push(ms(run.s_per_step));
            cells.push(format!("{:.2}", run.report.mean_utilization()));
            cells.push(format!("{:.2}", overlap_fraction(&run.report)));
        }
        table.row(cells);
    }
    outln!(out, "{}", table.render());

    outln!(out, "\nWAN contention study (shared {gbit} Gbit/s pipe, cf. the paper's");
    outln!(out, "64-processor anomaly in §5.3): s/step with and without bandwidth limits\n");
    let mut table = Table::new(vec![
        "P".to_string(),
        "infinite WAN".to_string(),
        format!("{gbit} Gbit WAN"),
        "slowdown".to_string(),
    ]);
    for &p in &[16u32, 32, 64] {
        let lat = Dur::from_millis(2);
        let cfg = MdConfig::paper(steps);
        let free = leanmd::run_sim(cfg.clone(), NetworkModel::two_cluster_sweep(p, lat), RunConfig::default());
        let limited = leanmd::run_sim(
            cfg,
            NetworkModel::two_cluster_contended(p, lat, LinkModel::gbit(gbit, Dur::ZERO)),
            RunConfig::default(),
        );
        table.row(vec![
            p.to_string(),
            ms(free.s_per_step),
            ms(limited.s_per_step),
            format!("{:.2}x", limited.s_per_step / free.s_per_step),
        ]);
    }
    outln!(out, "{}", table.render());
    vec![out]
}
