//! Elastic runtime: expand after shrink, PE rejoin, and obs-driven
//! continuous load balancing.
//!
//! The oracle throughout is bit-exactness: a run that crashes, shrinks
//! onto the survivors, re-admits the crashed PE (or a brand-new one) and
//! rebalances must finish with application state identical to an
//! undisturbed run.  Expansion discards in-flight traffic and restarts
//! every PE from the newest complete buddy snapshot — the same mechanism
//! shrink-recovery uses — so placement may change but state may not.
//!
//! Covered here, on BOTH engines:
//!   * crash → shrink → rejoin of the same PE (sweep across the run),
//!   * pure expand: a brand-new PE joining a healthy run,
//!   * the continuous feedback balancer reducing measured imbalance on a
//!     skewed workload without any application-code changes.

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::apps::stencil::{self, StencilConfig, StencilCost};
use gridmdo::apps::workloads::{run_synthetic, LoadShape, SyntheticConfig};
use gridmdo::prelude::*;

/// Same small stencil as the checkpoint tests: real compute, a barrier
/// (= buddy epoch) every step, so joins have checkpoints to restart from.
fn small_stencil(steps: u32) -> StencilConfig {
    StencilConfig {
        mesh: 32,
        objects: 16,
        steps,
        compute: true,
        cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
        mapping: Mapping::Block,
        lb_period: Some(1),
    }
}

fn stencil_net() -> NetworkModel {
    NetworkModel::two_cluster_sweep(4, Dur::from_millis(1))
}

fn frac_of(total: Dur, num: u32, den: u32) -> Dur {
    Dur::from_nanos(total.as_nanos() * u64::from(num) / u64::from(den))
}

/// max/mean PE busy-time ratio — the imbalance figure the feedback
/// balancer thresholds on.
fn imbalance(report: &gridmdo::runtime::program::RunReport) -> f64 {
    let busy: Vec<f64> = report.pe_busy.iter().map(|d| d.as_secs_f64()).collect();
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    let max = busy.iter().cloned().fold(0.0, f64::max);
    max / mean
}

// ---- crash → shrink → rejoin, simulation engine ---------------------------

#[test]
fn sim_stencil_rejoin_at_every_step_is_bit_exact() {
    // Sweep the crash across the run; after each shrink-recovery the
    // crashed PE rejoins at the next completed buddy epoch.  The final
    // step has no barrier after it, so the sweep stops at 3/4 of the
    // makespan — late enough to land in step 4–5 of 6, leaving at least
    // one post-recovery checkpoint for the join to hook onto.
    let steps = 6;
    let cfg = small_stencil(steps);
    let clean = stencil::run_sim(cfg.clone(), stencil_net(), RunConfig::default());
    assert!(!clean.block_sums.is_empty());

    for k in 1..=4u32 {
        let at = frac_of(clean.total, 2 * k + 1, 2 * steps);
        let run_cfg = RunConfig {
            failure_plan: Some(FailurePlan::new().crash_at(Pe(1), at)),
            join_plan: Some(JoinPlan::new().rejoin_after_recoveries(Pe(1), 1)),
            ..RunConfig::default()
        };
        let elastic = stencil::run_sim(cfg.clone(), stencil_net(), run_cfg);

        assert_eq!(elastic.block_sums, clean.block_sums, "crash+rejoin at {k}/{steps}: bit-exact");
        assert_eq!(elastic.report.recoveries, 1, "crash at {k}/{steps}");
        assert_eq!(elastic.report.pes_joined, 1, "rejoin at {k}/{steps}");
        assert_eq!(elastic.report.generations, 3, "full → shrunk → re-expanded");
        assert_eq!(elastic.report.pe_busy.len(), 4, "back to full width");
        assert!(elastic.report.unrecoverable.is_none());
        assert_eq!(elastic.report.failures[0].pe, Pe(1));
    }
}

#[test]
fn sim_rejoin_at_a_wall_clock_time_is_bit_exact() {
    // Same cycle but with the AtTime trigger: the crash lands at 1/2 of
    // the failure-free makespan, the rejoin is scheduled at 9/10 — by
    // then PE 1 is long dead, so the trigger re-admits it rather than
    // being dropped as a join of a live PE.
    let cfg = small_stencil(6);
    let clean = stencil::run_sim(cfg.clone(), stencil_net(), RunConfig::default());

    let crash_at = frac_of(clean.total, 1, 2);
    let rejoin_at = frac_of(clean.total, 9, 10);
    let run_cfg = RunConfig {
        failure_plan: Some(FailurePlan::new().crash_at(Pe(1), crash_at)),
        join_plan: Some(JoinPlan::new().rejoin_at(Pe(1), rejoin_at)),
        ..RunConfig::default()
    };
    let elastic = stencil::run_sim(cfg, stencil_net(), run_cfg);

    assert_eq!(elastic.block_sums, clean.block_sums, "AtTime rejoin is bit-exact");
    assert_eq!(elastic.report.recoveries, 1);
    assert_eq!(elastic.report.pes_joined, 1);
    assert_eq!(elastic.report.generations, 3);
}

#[test]
fn sim_leanmd_crash_then_rejoin_sweep_is_bit_exact() {
    // LeanMD with barriers (= buddy epochs) at steps 2 and 4 of 6: crash
    // points sweep the window after the first epoch exists (~1/3 of the
    // makespan) and before the step-4 barrier, so recovery always has a
    // snapshot to shrink onto AND re-crosses a barrier afterwards that
    // can admit the rejoin.
    let mut cfg = MdConfig::validation(3, 4, 6);
    cfg.lb_period = Some(2);
    let net = || NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
    let clean = leanmd::run_sim(cfg.clone(), net(), RunConfig::default());

    for (num, den) in [(5u32, 12u32), (6, 12), (7, 12)] {
        let at = frac_of(clean.total, num, den);
        let run_cfg = RunConfig {
            failure_plan: Some(FailurePlan::new().crash_at(Pe(2), at)),
            join_plan: Some(JoinPlan::new().rejoin_after_recoveries(Pe(2), 1)),
            ..RunConfig::default()
        };
        let elastic = leanmd::run_sim(cfg.clone(), net(), run_cfg);

        assert_eq!(elastic.checksums, clean.checksums, "crash+rejoin at {num}/{den}: bit-exact");
        assert_eq!(elastic.kinetic, clean.kinetic, "crash+rejoin at {num}/{den}");
        assert_eq!(elastic.report.recoveries, 1, "at {num}/{den}");
        assert_eq!(elastic.report.pes_joined, 1, "at {num}/{den}");
        assert_eq!(elastic.report.generations, 3, "at {num}/{den}");
        assert!(elastic.report.unrecoverable.is_none());
    }
}

// ---- crash → shrink → rejoin, threaded engine -----------------------------

#[test]
fn threaded_stencil_crash_then_rejoin_is_bit_exact() {
    let cfg = small_stencil(6);
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
    let clean = stencil::run_threaded(cfg.clone(), topo.clone(), latency.clone(), RunConfig::default());

    // Progress-point crashes at 1/3 and 2/3 of PE 2's failure-free
    // envelope count: both land mid-run with post-recovery barriers left
    // to admit the rejoin.  The crash point is a deterministic message
    // count, but whether the survivors hold a complete buddy epoch at
    // wall-clock detection time is a real scheduling race — under heavy
    // host load an early crash can beat the first epoch and surface as
    // NoCompleteSnapshot.  That outcome is legitimate (and covered by
    // the staggered-crash test); here we retry it so the test always
    // proves the rejoin path bit-exact.
    for den_num in [(3u64, 1u64), (3, 2)] {
        let n = clean.report.pe_messages[2] * den_num.1 / den_num.0;
        assert!(n > 0);
        let plan = FailurePlan::new()
            .crash_after_messages(Pe(2), n)
            .with_heartbeat(Dur::from_millis(15), Dur::from_millis(150));
        let run_cfg = RunConfig {
            failure_plan: Some(plan),
            join_plan: Some(JoinPlan::new().rejoin_after_recoveries(Pe(2), 1)),
            ..RunConfig::default()
        };
        let elastic = (0..3)
            .map(|_| stencil::run_threaded(cfg.clone(), topo.clone(), latency.clone(), run_cfg.clone()))
            .find(|out| out.report.unrecoverable.is_none())
            .expect("a complete buddy epoch precedes the crash in at least one of three attempts");

        assert_eq!(elastic.block_sums, clean.block_sums, "threaded crash+rejoin is bit-exact");
        assert_eq!(elastic.report.recoveries, 1);
        assert_eq!(elastic.report.pes_joined, 1);
        assert_eq!(elastic.report.generations, 3);
        assert_eq!(elastic.report.pe_busy.len(), 4, "back to full width");

        // Who leaves and who joins is one state machine's decision on both
        // engines: the simulator's report of the same plan tells the same
        // membership history.
        let sim = stencil::run_sim(cfg.clone(), stencil_net(), run_cfg).report;
        let history = |r: &gridmdo::runtime::program::RunReport| {
            let failed: Vec<Pe> = r.failures.iter().map(|f| f.pe).collect();
            (r.generations, r.recoveries, r.pes_joined, r.pe_messages.len(), failed)
        };
        assert_eq!(history(&sim), history(&elastic.report));
    }
}

#[test]
fn threaded_leanmd_crash_then_rejoin_is_bit_exact() {
    let mut cfg = MdConfig::validation(3, 4, 6);
    cfg.lb_period = Some(2);
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
    let clean = leanmd::run_threaded(cfg.clone(), topo.clone(), latency.clone(), RunConfig::default());

    let n = clean.report.pe_messages[2] / 2;
    assert!(n > 0);
    // Retry NoCompleteSnapshot races exactly as the stencil test does.
    let elastic = (0..3)
        .map(|_| {
            let plan = FailurePlan::new()
                .crash_after_messages(Pe(2), n)
                .with_heartbeat(Dur::from_millis(15), Dur::from_millis(150));
            let run_cfg = RunConfig {
                failure_plan: Some(plan),
                join_plan: Some(JoinPlan::new().rejoin_after_recoveries(Pe(2), 1)),
                ..RunConfig::default()
            };
            leanmd::run_threaded(cfg.clone(), topo.clone(), latency.clone(), run_cfg)
        })
        .find(|out| out.report.unrecoverable.is_none())
        .expect("a complete buddy epoch precedes the crash in at least one of three attempts");

    assert_eq!(elastic.checksums, clean.checksums, "threaded LeanMD crash+rejoin is bit-exact");
    assert_eq!(elastic.kinetic, clean.kinetic);
    assert_eq!(elastic.report.recoveries, 1);
    assert_eq!(elastic.report.pes_joined, 1);
    assert_eq!(elastic.report.generations, 3);
}

// ---- pure expand: a brand-new PE joins a healthy run ----------------------

#[test]
fn sim_pure_expand_adds_a_brand_new_pe_bit_exact() {
    // No failure at all: PE 4 (beyond the original 0..4 range) joins
    // cluster A halfway through.  The join plan alone arms the buddy
    // checkpoint machinery; the topology widens to 5 PEs, everyone
    // restarts from the newest epoch, and the digest is untouched.
    let cfg = small_stencil(6);
    let clean = stencil::run_sim(cfg.clone(), stencil_net(), RunConfig::default());

    let at = frac_of(clean.total, 1, 2);
    let run_cfg =
        RunConfig { join_plan: Some(JoinPlan::new().join_at(Pe(4), ClusterId(0), at)), ..RunConfig::default() };
    let wide = stencil::run_sim(cfg, stencil_net(), run_cfg);

    assert_eq!(wide.block_sums, clean.block_sums, "expand is bit-exact");
    assert_eq!(wide.report.recoveries, 0);
    assert_eq!(wide.report.pes_joined, 1);
    assert_eq!(wide.report.generations, 2, "full → widened");
    assert_eq!(wide.report.pe_busy.len(), 5, "report covers the widened PE set");
    assert!(wide.report.pe_messages[4] > 0, "the new PE actually hosts work");
    assert!(wide.report.unrecoverable.is_none());
}

#[test]
fn threaded_pure_expand_adds_a_brand_new_pe_bit_exact() {
    let cfg = small_stencil(6);
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
    let clean = stencil::run_threaded(cfg.clone(), topo.clone(), latency.clone(), RunConfig::default());

    // The trigger time is already past when the first buddy epoch
    // completes, so the join is admitted at the first checkpoint.
    let run_cfg = RunConfig {
        join_plan: Some(JoinPlan::new().join_at(Pe(4), ClusterId(0), Dur::from_millis(1))),
        ..RunConfig::default()
    };
    let wide = stencil::run_threaded(cfg, topo, latency, run_cfg);

    assert_eq!(wide.block_sums, clean.block_sums, "threaded expand is bit-exact");
    assert_eq!(wide.report.recoveries, 0);
    assert_eq!(wide.report.pes_joined, 1);
    assert_eq!(wide.report.generations, 2);
    assert_eq!(wide.report.pe_busy.len(), 5);
    assert!(wide.report.unrecoverable.is_none());
}

// ---- continuous obs-driven load balancing ---------------------------------

#[test]
fn feedback_balancer_reduces_imbalance_without_app_changes() {
    // Heterogeneous PE load: two 10× hot-spot objects land on PEs 0 and
    // 2 under Block mapping, leaving PEs 1 and 3 light.  The comparison
    // flips RunConfig only — the application is byte-for-byte the same.
    let cfg = SyntheticConfig {
        objects: 32,
        rounds: 16,
        base_cost: Dur::from_millis(1),
        shape: LoadShape::HotSpots { every: 16 },
        peer_traffic: true,
        blocking_peers: false,
        peer_stride: 16,
        lb_period: Some(2),
    };
    let net = || NetworkModel::two_cluster_sweep(4, Dur::from_micros(100));

    let unbalanced = run_synthetic(cfg.clone(), net(), RunConfig::default());
    let fb_cfg = RunConfig {
        lb: LbChoice::Greedy,
        feedback: Some(FeedbackConfig::new().with_max_mean_ratio(1.1)),
        ..RunConfig::default()
    };
    let balanced = run_synthetic(cfg, net(), fb_cfg);

    assert!(balanced.rebalance_triggers > 0, "the skew trips the imbalance threshold");
    assert!(balanced.migrations > 0, "triggered rounds actually move objects");
    let (before, after) = (imbalance(&unbalanced), imbalance(&balanced));
    assert!(after < before, "feedback balancing reduces max/mean busy ratio: {after:.3} < {before:.3}");
}

#[test]
fn feedback_balancer_stays_quiet_on_a_balanced_load() {
    // Uniform load never exceeds the threshold: the strategy is armed
    // but each barrier resolves to the cheap no-op placement.
    let cfg = SyntheticConfig {
        objects: 32,
        rounds: 8,
        base_cost: Dur::from_millis(1),
        shape: LoadShape::Uniform,
        peer_traffic: false,
        blocking_peers: false,
        peer_stride: 16,
        lb_period: Some(2),
    };
    let net = NetworkModel::two_cluster_sweep(4, Dur::from_micros(100));
    let run_cfg = RunConfig { lb: LbChoice::Greedy, feedback: Some(FeedbackConfig::new()), ..RunConfig::default() };
    let report = run_synthetic(cfg, net, run_cfg);

    assert_eq!(report.rebalance_triggers, 0, "no threshold crossing on uniform load");
    assert_eq!(report.migrations, 0, "quiet barriers migrate nothing");
    assert!(report.lb_rounds > 0, "the barriers did run");
}
