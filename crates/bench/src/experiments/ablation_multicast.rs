//! Ablation A8: optimized section multicast for LeanMD's coordinate
//! fan-out.
//!
//! §2.1 credits Charm++ with "optimized communication libraries,
//! especially for collective operations", and §4 describes each cell
//! multicasting its coordinates to 27 cell-pairs.  The naive fan-out is
//! 27 point-to-point messages per cell per step; the runtime's section
//! multicast sends one wire message per *destination PE* carrying the
//! shared payload.  This ablation measures both at paper scale.

use mdo_apps::leanmd::{self, MdConfig};
use mdo_core::program::RunConfig;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Dur;

use crate::table::{ms, Table};

const STEPS: u32 = 3;

/// s/step, messages and bytes of both fan-outs at 8 to 64 PEs.
pub fn generate() -> Vec<String> {
    let mut out = String::new();
    outln!(out, "Ablation A8: LeanMD coordinate fan-out, per-pair sends vs section");
    outln!(out, "multicast ({STEPS} steps, 4 ms one-way WAN latency)\n");

    let mut table = Table::new(vec!["P", "p2p s/step", "mcast s/step", "p2p msgs", "mcast msgs", "p2p MB", "mcast MB"]);
    for &p in &[8u32, 16, 32, 64] {
        let run = |multicast: bool| {
            let mut cfg = MdConfig::paper(STEPS);
            cfg.use_multicast = multicast;
            let net = NetworkModel::two_cluster_sweep(p, Dur::from_millis(4));
            leanmd::run_sim(cfg, net, RunConfig::default())
        };
        let p2p = run(false);
        let mc = run(true);
        let mb = |o: &leanmd::MdOutcome| (o.report.network.intra_bytes + o.report.network.cross_bytes) as f64 / 1e6;
        table.row(vec![
            p.to_string(),
            ms(p2p.s_per_step),
            ms(mc.s_per_step),
            p2p.report.network.total_messages().to_string(),
            mc.report.network.total_messages().to_string(),
            format!("{:.1}", mb(&p2p)),
            format!("{:.1}", mb(&mc)),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(out, "(physics is bit-identical either way; the tests assert it)");
    vec![out]
}
