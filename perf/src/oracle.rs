//! The correctness oracle run in every set-up round: a small real-kernel
//! job of the workload's app, on the workload's engine and transport,
//! compared bit for bit with the sequential reference.  The timed
//! repetitions use the apps' cost-model mode, so this is where the
//! kernels, the codecs and the delivery order are checked end to end.

use mdo_apps::leanmd::seq::SeqMd;
use mdo_apps::leanmd::{self, MdConfig};
use mdo_apps::stencil::seq::SeqStencil;
use mdo_apps::stencil::{self, StencilConfig, StencilCost};
use mdo_core::program::RunConfig;
use mdo_core::Mapping;
use mdo_netsim::{Dur, Topology};

use crate::jobs::{over_tcp, sim_net, threaded_cfg, Workload};

/// Injected latency of the oracle jobs: enough to reorder arrivals
/// between clusters, small enough that the job takes tens of ms.
const WAN: Dur = Dur::from_millis(1);

fn small_stencil(mapping: Mapping) -> StencilConfig {
    StencilConfig {
        mesh: 64,
        objects: 16,
        steps: 6,
        compute: true,
        cost: StencilCost::default(),
        mapping,
        lb_period: None,
    }
}

fn small_leanmd(seed: u64) -> MdConfig {
    MdConfig { seed, ..MdConfig::validation(3, 16, 4) }
}

fn stencil_reference(cfg: &StencilConfig) -> Vec<f64> {
    let mut seq = SeqStencil::new(cfg.mesh);
    seq.run(cfg.steps);
    seq.block_sums(cfg.k())
}

fn leanmd_reference(cfg: &MdConfig) -> Vec<f64> {
    let mut seq = SeqMd::new(cfg.grid, cfg.atoms_per_cell, cfg.cell_width, cfg.dt, cfg.params, cfg.seed);
    seq.run(cfg.steps);
    seq.checksums()
}

fn same_bits(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits())
}

/// Run `w`'s oracle job; `Err` says what did not match.
pub fn check(w: Workload, seed: u64) -> Result<(), String> {
    let cfg = RunConfig { seed, ..RunConfig::default() };
    let verdict = |what: &str, got: &[f64], want: &[f64]| {
        if same_bits(got, want) {
            Ok(())
        } else {
            Err(format!("{what}: {} values differ from the sequential reference", want.len()))
        }
    };
    match w {
        Workload::StencilMask => {
            let job = small_stencil(Mapping::Block);
            let topo = Topology::uniform(2, 4);
            let tcfg = threaded_cfg(&topo, WAN).with_compute_sleep();
            let out = stencil::run_threaded_with(job.clone(), topo, tcfg, cfg);
            verdict("stencil on the threaded engine", &out.block_sums, &stencil_reference(&job))
        }
        Workload::StencilCrossTcp => {
            let job = small_stencil(Mapping::RoundRobin);
            let topo = Topology::uniform(2, 1);
            let out = over_tcp(&topo, &cfg, |cfg| {
                stencil::run_threaded_with(job.clone(), topo.clone(), threaded_cfg(&topo, WAN), cfg)
            })?;
            verdict("stencil over loopback TCP", &out.block_sums, &stencil_reference(&job))
        }
        Workload::LeanmdTcp => {
            let job = small_leanmd(seed);
            let topo = Topology::uniform(2, 1);
            let out = over_tcp(&topo, &cfg, |cfg| {
                leanmd::run_threaded_with(job.clone(), topo.clone(), threaded_cfg(&topo, WAN), cfg)
            })?;
            verdict("LeanMD over loopback TCP", &out.checksums, &leanmd_reference(&job))
        }
        Workload::SimSweep => {
            let job = small_stencil(Mapping::Block);
            let out = stencil::run_sim(job.clone(), sim_net(Topology::uniform(2, 4), WAN, seed), cfg.clone());
            verdict("stencil on the simulation engine", &out.block_sums, &stencil_reference(&job))?;
            let job = small_leanmd(seed);
            let out = leanmd::run_sim(job.clone(), sim_net(Topology::uniform(2, 4), WAN, seed), cfg);
            verdict("LeanMD on the simulation engine", &out.checksums, &leanmd_reference(&job))
        }
    }
}
