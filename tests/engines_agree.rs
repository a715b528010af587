//! Cross-engine agreement: the virtual-time simulation engine and the
//! threaded engine must (a) compute identical application results and
//! (b) predict comparable timing when the threaded engine sleep-emulates
//! compute — the reproduction's analogue of the paper's artificial-vs-
//! real-Grid validation (Tables 1 and 2).

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::apps::stencil::{self, StencilConfig, StencilCost};
use gridmdo::prelude::*;

fn stencil_cfg(steps: u32) -> StencilConfig {
    StencilConfig {
        mesh: 64,
        objects: 16,
        steps,
        compute: true,
        cost: StencilCost {
            ns_per_cell: 2_000.0, // ms-scale steps so sleep emulation is meaningful
            msg_overhead: Dur::from_micros(50),
            cache_effect: false,
        },
        mapping: Mapping::Block,
        lb_period: None,
    }
}

#[test]
fn stencil_results_identical_across_engines() {
    let cfg = stencil_cfg(6);
    let sim = {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(3));
        stencil::run_sim(cfg.clone(), net, RunConfig::default())
    };
    let threaded = {
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(3));
        stencil::run_threaded(cfg, topo, latency, RunConfig::default())
    };
    assert_eq!(sim.block_sums, threaded.block_sums, "identical fields, any engine");
}

#[test]
fn stencil_timing_agrees_with_sleep_emulation() {
    // 64x64 mesh in 16 objects, ~8.2 ms of compute per object step.
    let cfg = stencil_cfg(8);
    let lat = Dur::from_millis(5);
    let sim = {
        let net = NetworkModel::two_cluster_sweep(4, lat);
        stencil::run_sim(cfg.clone(), net, RunConfig::default())
    };
    let threaded = {
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, lat);
        let tcfg = ThreadedConfig::new(latency).with_compute_sleep();
        stencil::run_threaded_with(cfg, topo, tcfg, RunConfig::default())
    };
    let ratio = threaded.ms_per_step / sim.ms_per_step;
    assert!(
        (0.8..1.6).contains(&ratio),
        "threaded wall time tracks simulated time: sim {:.3} ms/step, real {:.3} ms/step ({ratio:.2}x)",
        sim.ms_per_step,
        threaded.ms_per_step
    );
}

#[test]
fn leanmd_results_identical_across_engines() {
    let cfg = MdConfig::validation(3, 4, 4);
    let sim = {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        leanmd::run_sim(cfg.clone(), net, RunConfig::default())
    };
    let threaded = {
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(2));
        leanmd::run_threaded(cfg, topo, latency, RunConfig::default())
    };
    assert_eq!(sim.checksums, threaded.checksums);
    assert_eq!(sim.kinetic, threaded.kinetic);
}

/// A cell sums its pairs' energies by a fixed pairwise tree over its
/// memberships, not in the order they arrive, so the potential is one bit
/// pattern on every engine and under every schedule, as the positions are.
#[test]
fn leanmd_potential_is_bit_identical_across_engines_and_schedules() {
    // Eight atoms a cell: enough terms for arrival order to show in the
    // rounding (FIFO and `Random { seed: 5 }` summed in arrival order
    // differ here).
    let cfg = MdConfig::validation(3, 8, 4);
    let sim = |delivery: DeliverySpec| {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        leanmd::run_sim(cfg.clone(), net, RunConfig { delivery, ..RunConfig::default() }).potential
    };
    let fifo = sim(DeliverySpec::Fifo);
    assert_ne!(fifo, 0.0, "real kernels ran");
    let horizon = 4_000;
    for spec in [
        DeliverySpec::Random { seed: 5 },
        DeliverySpec::Random { seed: 6 },
        DeliverySpec::Pct { seed: 7, depth: 3, horizon },
        DeliverySpec::Pct { seed: 8, depth: 5, horizon },
    ] {
        assert_eq!(sim(spec.clone()).to_bits(), fifo.to_bits(), "{spec:?}");
    }
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(2));
    let threaded = leanmd::run_threaded(cfg, topo, latency, RunConfig::default());
    assert_eq!(threaded.potential.to_bits(), fifo.to_bits(), "threaded engine");
}

#[test]
fn engines_count_the_same_application_traffic() {
    // Message counts are a structural property; the engines must agree on
    // total application traffic (system-message routing differs slightly
    // because the threaded engine also ships the final Exit fan-out).
    let cfg = stencil_cfg(4);
    let sim = {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(1));
        stencil::run_sim(cfg.clone(), net, RunConfig::default())
    };
    let threaded = {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(1));
        stencil::run_threaded(cfg, topo, latency, RunConfig::default())
    };
    let sim_total = sim.report.network.total_messages();
    let thr_total = threaded.report.network.total_messages();
    assert!(
        thr_total >= sim_total && thr_total <= sim_total + 4,
        "traffic agrees modulo the exit fan-out: sim {sim_total}, threaded {thr_total}"
    );
}
