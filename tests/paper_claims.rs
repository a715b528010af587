//! End-to-end checks of the paper's claims, as assertions.
//!
//! These are the headline results of §5 turned into tests: if a change to
//! the runtime breaks the latency-masking behaviour itself, this file —
//! not just a unit test — goes red.

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::apps::stencil::bsp::{self, BspConfig};
use gridmdo::apps::stencil::{self, StencilConfig, StencilCost};
use gridmdo::prelude::*;

fn stencil_ms_per_step(pes: u32, objects: usize, latency_ms: u64) -> f64 {
    let cfg = StencilConfig::paper(objects, 8);
    let net = NetworkModel::two_cluster_sweep(pes, Dur::from_millis(latency_ms));
    stencil::run_sim(cfg, net, RunConfig::default()).ms_per_step
}

/// §5.2: "for instances of the problem with relatively large grain size
/// (e.g., for 2 and 4 processors), the execution time for several
/// different degrees of virtualization remains almost constant" across
/// 0–32 ms.
#[test]
fn stencil_large_grain_is_latency_insensitive() {
    for objects in [4usize, 16, 64] {
        let t0 = stencil_ms_per_step(2, objects, 0);
        let t32 = stencil_ms_per_step(2, objects, 32);
        assert!(t32 < t0 * 1.15, "2 PEs, {objects} objects: near-horizontal 0..32 ms ({t0:.2} -> {t32:.2})");
    }
}

/// §5.2: "the near-horizontal sections for plots corresponding to higher
/// degrees of virtualization are longer", and the subsequent slope is
/// shallower.
#[test]
fn stencil_virtualization_extends_the_flat_region() {
    // 64 PEs: compare relative slowdown at 4 ms.
    let lo_0 = stencil_ms_per_step(64, 64, 0);
    let lo_4 = stencil_ms_per_step(64, 64, 4);
    let hi_0 = stencil_ms_per_step(64, 1024, 0);
    let hi_4 = stencil_ms_per_step(64, 1024, 4);
    let lo_slowdown = lo_4 / lo_0;
    let hi_slowdown = hi_4 / hi_0;
    assert!(
        hi_slowdown < lo_slowdown,
        "1024 objects tolerate 4 ms better than 64 objects: {hi_slowdown:.2}x vs {lo_slowdown:.2}x"
    );
    assert!(hi_slowdown < 1.35, "high virtualization still near-flat at 4 ms: {hi_slowdown:.2}x");
}

/// The stencil's steady step on 2 PEs: a 20-step run less a 10-step
/// one, over the 10 extra steps, so the start and the final gather (each
/// an exposed crossing) cancel.
fn stencil_steady_step(objects: usize, latency_ms: u64) -> Dur {
    let total = |steps: u32| {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(latency_ms));
        stencil::run_sim(StencilConfig::paper(objects, steps), net, RunConfig::default()).total
    };
    (total(20) - total(10)) / 10
}

/// §5.2 in the steady state: at 16 ms both 4 and 64 objects on 2 PEs
/// step exactly as fast as at zero latency (large-grain flatness), and
/// past the knee, at 64 and 128 ms, 64 objects slow down less than 4
/// ("the flat region is longer").
#[test]
fn cost_model_latency_flatness_with_virtualization() {
    let (low_0, high_0) = (stencil_steady_step(4, 0), stencil_steady_step(64, 0));
    for (objects, t0) in [(4, low_0), (64, high_0)] {
        let t16 = stencil_steady_step(objects, 16);
        assert_eq!(t16, t0, "{objects} objects: 16 ms fully masked ({t0:?} -> {t16:?})");
    }
    for lat in [64, 128] {
        let low = stencil_steady_step(4, lat).as_millis_f64() / low_0.as_millis_f64();
        let high = stencil_steady_step(64, lat).as_millis_f64() / high_0.as_millis_f64();
        assert!(high < low, "{lat} ms: 64 objects slow down less than 4 ({high:.3}x vs {low:.3}x)");
    }
}

/// §5.3 Figure 4: on 2 processors even 256 ms barely moves LeanMD's
/// ~4 s step ("latency makes almost no impact"); contrast the naive
/// expectation of +0.5 s per step.
#[test]
fn leanmd_two_pes_shrug_off_256ms() {
    let base = {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(1));
        leanmd::run_sim(MdConfig::paper(2), net, RunConfig::default()).s_per_step
    };
    let slow = {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(256));
        leanmd::run_sim(MdConfig::paper(2), net, RunConfig::default()).s_per_step
    };
    // (The paper's own curve also rises slightly at the far right; the
    // naive lockstep penalty would be the full +0.5 s.)
    assert!(slow - base < 0.35, "256 ms adds far less than the naive +0.5 s: {base:.3} -> {slow:.3}");
}

/// §5.3: "the data for 32 processors is even more impressive: with a
/// per-step time as short as 300 ms, the graph shows no impact of latency
/// as high as 32 ms."
#[test]
fn leanmd_32_pes_mask_32ms() {
    let run = |lat: u64| {
        let net = NetworkModel::two_cluster_sweep(32, Dur::from_millis(lat));
        leanmd::run_sim(MdConfig::paper(2), net, RunConfig::default()).s_per_step
    };
    let base = run(1);
    let at32 = run(32);
    assert!((0.25..0.40).contains(&base), "~300 ms steps on 32 PEs, got {base:.3}");
    assert!(at32 < base * 1.25, "32 ms largely masked: {base:.3} -> {at32:.3}");
}

/// Table 2 reproduction: our simulated values match the paper's
/// artificial-latency column within 15% for 2..=32 PEs.
#[test]
fn leanmd_absolute_scale_matches_table2() {
    let paper = [(2u32, 3.924f64), (4, 2.021), (8, 1.015), (16, 0.559), (32, 0.302)];
    for (p, expect) in paper {
        let net = NetworkModel::two_cluster_sweep(p, Dur::from_micros(1725));
        let got = leanmd::run_sim(MdConfig::paper(2), net, RunConfig::default()).s_per_step;
        let err = (got - expect).abs() / expect;
        assert!(err < 0.15, "{p} PEs: {got:.3} s/step vs paper {expect:.3} ({:.0}% off)", err * 100.0);
    }
}

/// The implicit baseline: a bulk-synchronous code pays latency every
/// step, the message-driven version doesn't (ablation A2 as a test).
#[test]
fn message_driven_beats_bulk_synchronous_under_latency() {
    let pes = 8u32;
    let md = |lat: u64| stencil_ms_per_step(pes, 256, lat);
    let bs = |lat: u64| {
        let cfg = BspConfig { mesh: 2048, ranks: pes, steps: 8, compute: false, cost: StencilCost::default() };
        let net = NetworkModel::two_cluster_sweep(pes, Dur::from_millis(lat));
        bsp::run_sim(cfg, net, RunConfig::default()).ms_per_step
    };
    let md_slowdown = md(16) / md(0);
    let bs_slowdown = bs(16) / bs(0);
    assert!(
        bs_slowdown > 2.0 && md_slowdown < 1.4,
        "BSP pays per-step latency (got {bs_slowdown:.2}x), message-driven masks it ({md_slowdown:.2}x)"
    );
}

/// Placement locality matters: the paper's runs keep neighbouring blocks
/// on the same cluster (Block mapping), so only the boundary row of
/// blocks exchanges ghosts over the WAN — that is what leaves plenty of
/// local work to mask with.
#[test]
fn block_mapping_keeps_most_traffic_local() {
    use gridmdo::apps::stencil::StencilCost;
    let cfg = StencilConfig {
        mesh: 2048,
        objects: 256,
        steps: 4,
        compute: false,
        cost: StencilCost::default(),
        mapping: Mapping::Block,
        lb_period: None,
    };
    let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(8));
    let out = stencil::run_sim(cfg, net, RunConfig::default());
    let frac = out.report.network.cross_fraction();
    assert!(frac < 0.2, "Block mapping: cross-WAN fraction {frac:.2} stays small");
    // Sanity: the boundary row does exist.
    assert!(out.report.network.cross_messages > 0);
}

/// The mechanism itself, measured: higher virtualization produces deeper
/// scheduler queues (more deliverable work waiting while cross-cluster
/// messages are in flight) — exactly why the latency gets masked.
#[test]
fn virtualization_deepens_scheduler_queues() {
    let depth = |objects: usize| {
        let cfg = StencilConfig::paper(objects, 6);
        let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(8));
        let out = stencil::run_sim(cfg, net, RunConfig::default());
        *out.report.pe_max_queue_depth.iter().max().expect("PEs exist")
    };
    let shallow = depth(16);
    let deep = depth(1024);
    assert!(deep > shallow * 4, "1024 objects queue far more maskable work than 16: {deep} vs {shallow}");
}

/// Deterministic jitter: with a seeded jittered latency matrix, repeated
/// runs are identical; a different seed produces a different (but still
/// bit-exact-in-results) schedule.
#[test]
fn jittered_latency_is_seed_deterministic() {
    use gridmdo::netsim::{LatencyMatrixBuilder, Topology, WanContention};
    let run = |seed: u64| {
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrixBuilder::new(2)
            .intra(Dur::from_micros(10))
            .cross(Dur::from_millis(6))
            .jitter(Dur::from_millis(2))
            .build();
        let contention = WanContention::disabled(&topo);
        let net = NetworkModel::new(topo, latency, contention, seed);
        let cfg = gridmdo::apps::leanmd::MdConfig::validation(3, 3, 3);
        gridmdo::apps::leanmd::run_sim(cfg, net, RunConfig::default())
    };
    let a = run(1);
    let b = run(1);
    let c = run(2);
    assert_eq!(a.report.end_time, b.report.end_time, "same seed, same schedule");
    assert_ne!(a.report.end_time, c.report.end_time, "different seed, different jitter");
    // Physics is schedule-independent either way.
    assert_eq!(a.checksums, c.checksums);
}

/// Stencil Table 1 anchor rows: 2-PE values match the paper's artificial
/// column within 10%.
#[test]
fn stencil_absolute_scale_matches_table1_anchors() {
    let paper = [(4usize, 85.774f64), (16, 75.050), (64, 80.436)];
    for (objects, expect) in paper {
        let cfg = StencilConfig::paper(objects, 10);
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_micros(1725));
        let got = stencil::run_sim(cfg, net, RunConfig::default()).ms_per_step;
        let err = (got - expect).abs() / expect;
        assert!(err < 0.10, "2 PEs/{objects} objs: {got:.3} vs paper {expect:.3}");
    }
}

/// `stencil_cross_tcp`'s shape in the simulator: 1,024 objects dealt round
/// robin to two single-PE nodes, so every block's left and right neighbours
/// are across the WAN, no handler work and `overhead` a message; ms/step
/// over `steps` at `wan_ms`.
fn cross_stencil_step(overhead: Dur, steps: u32, wan_ms: u64) -> f64 {
    use gridmdo::netsim::{latency::DEFAULT_INTRA_LATENCY, WanContention};
    let topo = Topology::uniform(2, 1);
    let latency = LatencyMatrix::uniform(&topo, DEFAULT_INTRA_LATENCY, Dur::from_millis(wan_ms));
    let net = NetworkModel::new(topo.clone(), latency, WanContention::disabled(&topo), 0);
    let cost = StencilCost { ns_per_cell: 0.0, msg_overhead: overhead, cache_effect: false };
    let cfg = StencilConfig { mapping: Mapping::RoundRobin, cost, ..StencilConfig::paper(1024, steps) };
    stencil::run_sim(cfg, net, RunConfig::default()).ms_per_step
}

/// When every neighbour is remote, no step can be shorter than one WAN hop,
/// whatever the zero-latency step L is: a WAN step is max(L, hop) plus an
/// exposure per run (start-up, the first exchange, the gather: about three
/// hops) that does not grow with the step count.  Checked with L below the
/// hop (1.9 µs a message) and above it (2.5 µs).
#[test]
fn cross_wan_stencil_steps_at_max_of_l_and_one_hop_plus_a_per_run_exposure() {
    const HOP_MS: u64 = 4;
    let hop = HOP_MS as f64;
    for (overhead, l_below_hop) in [(Dur::from_nanos(1_900), true), (Dur::from_nanos(2_500), false)] {
        let exposure = |steps: u32| {
            let (w, l) = (cross_stencil_step(overhead, steps, HOP_MS), cross_stencil_step(overhead, steps, 0));
            assert_eq!(l < hop, l_below_hop, "{overhead:?} a message: L = {l:.3} ms against a {hop} ms hop");
            let floor = l.max(hop);
            assert!(w >= floor, "{steps} steps: W = {w:.3} ms a step, under max(L, hop) = {floor:.3}");
            (w - floor) * f64::from(steps)
        };
        let (e12, e24) = (exposure(12), exposure(24));
        assert!((e12 - e24).abs() < 1.0, "{overhead:?}: exposure {e12:.3} / {e24:.3} ms a run grows with steps");
        for e in [e12, e24] {
            assert!((2.0 * hop..3.0 * hop + 1.0).contains(&e), "{overhead:?}: {e:.3} ms a run is not about three hops");
        }
    }
}
