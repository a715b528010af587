//! Snapshot portability and fault tolerance across engines.
//!
//! The first test is the original cross-engine story: a job checkpointed
//! in *virtual time* (simulation engine) restarts on *real threads*
//! (threaded engine with its real delay device) — and finishes with
//! bit-identical state.
//!
//! The rest exercise the §2.1 fault-tolerance machinery end to end: PEs
//! are crash-injected mid-run, the engines detect the failures, reassemble
//! the newest complete buddy checkpoint, shrink onto the survivors and
//! continue — and the results must be bit-exact against a failure-free
//! run.  An unrecoverable loss (a buddy pair dying together) must surface
//! as a structured error, never a panic.

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::apps::stencil::{self, StencilConfig, StencilCost};
use gridmdo::prelude::*;
use gridmdo::runtime::checkpoint::Snapshot;
use std::sync::{Arc, Mutex};

#[test]
fn sim_checkpoint_restores_under_threaded_engine() {
    let mut cfg = MdConfig::validation(3, 4, 6);
    cfg.lb_period = Some(3);

    // Reference: uninterrupted simulation run.
    let full =
        leanmd::run_sim(cfg.clone(), NetworkModel::two_cluster_sweep(4, Dur::from_millis(2)), RunConfig::default());

    // Checkpoint at the step-3 barrier under the simulation engine.
    let sink: Arc<Mutex<Vec<Snapshot>>> = Arc::new(Mutex::new(Vec::new()));
    let run_cfg = RunConfig { checkpoint_at_barrier: true, ..RunConfig::default() };
    let _ = leanmd::run_sim_full(
        cfg.clone(),
        NetworkModel::two_cluster_sweep(4, Dur::from_millis(2)),
        run_cfg,
        Some(Arc::clone(&sink)),
        None,
    );
    let snapshot = sink.lock().expect("sink")[0].clone();

    // Restart the remaining steps on the *threaded* engine, 2 PEs, with a
    // real injected delay.
    let topo = Topology::two_cluster(2);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(400));
    let restored =
        leanmd::run_threaded_full(cfg, topo, ThreadedConfig::new(latency), RunConfig::default(), Some(snapshot));
    assert_eq!(restored.checksums, full.checksums, "cross-engine restart is bit-exact");
    assert_eq!(restored.kinetic, full.kinetic);
}

// ---- fault tolerance ------------------------------------------------------

/// A small stencil with real compute and a barrier (= buddy checkpoint)
/// every step, so crashes can land anywhere and recovery has epochs to
/// restart from.
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

#[test]
fn sim_single_crash_recovers_bit_exact() {
    let cfg = small_stencil(6);
    let clean = stencil::run_sim(cfg.clone(), stencil_net(), RunConfig::default());
    assert!(!clean.block_sums.is_empty());

    // Kill PE 2 at 60 % of the failure-free makespan.
    let at = frac_of(clean.total, 3, 5);
    let plan = FailurePlan::new().crash_at(Pe(2), at);
    let run_cfg = RunConfig { failure_plan: Some(plan), ..RunConfig::default() };
    let crashed = stencil::run_sim(cfg, stencil_net(), run_cfg);

    assert_eq!(crashed.block_sums, clean.block_sums, "recovery is bit-exact");
    assert_eq!(crashed.report.failures_detected, 1);
    assert_eq!(crashed.report.recoveries, 1);
    assert!(crashed.report.unrecoverable.is_none());
    assert_eq!(crashed.report.failures[0].pe, Pe(2));
    assert_eq!(crashed.report.failures[0].cause, FailureCause::Injected);
    assert!(crashed.report.checkpoints_taken > 0, "buddy epochs were recorded");
    assert!(crashed.report.checkpoint_bytes > 0);
    assert!(crashed.total > clean.total, "recovery replays work, so the run takes longer");
}

#[test]
fn sim_crash_at_every_step_is_bit_exact() {
    // Sweep the crash point across the whole run: one injected crash of
    // PE 1 at the middle of every step after the first checkpoint barrier.
    let steps = 5;
    let cfg = small_stencil(steps);
    let clean = stencil::run_sim(cfg.clone(), stencil_net(), RunConfig::default());

    let mut total_replayed = 0;
    for step in 1..steps {
        let at = frac_of(clean.total, 2 * step + 1, 2 * steps);
        let plan = FailurePlan::new().crash_at(Pe(1), at);
        let run_cfg = RunConfig { failure_plan: Some(plan), ..RunConfig::default() };
        let crashed = stencil::run_sim(cfg.clone(), stencil_net(), run_cfg);
        assert_eq!(crashed.block_sums, clean.block_sums, "crash at step {step}: bit-exact");
        assert_eq!(crashed.report.failures_detected, 1, "crash at step {step}");
        assert_eq!(crashed.report.recoveries, 1, "crash at step {step}");
        total_replayed += crashed.report.steps_replayed;
    }
    // A crash landing exactly on a checkpoint boundary replays nothing,
    // but across the sweep some crashes must land mid-step.
    assert!(total_replayed >= 1, "the sweep replays work somewhere");
}

#[test]
fn threaded_single_crash_recovers_bit_exact() {
    let cfg = small_stencil(6);
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
    let clean = stencil::run_threaded(cfg.clone(), topo.clone(), latency.clone(), RunConfig::default());

    // Progress-point crash: kill PE 2 after half of the envelopes it
    // handled in the failure-free run (self-calibrating, so the crash
    // lands mid-run regardless of host speed).
    let n = clean.report.pe_messages[2] / 2;
    assert!(n > 0);
    let plan =
        FailurePlan::new().crash_after_messages(Pe(2), n).with_heartbeat(Dur::from_millis(15), Dur::from_millis(150));
    let run_cfg = RunConfig { failure_plan: Some(plan), ..RunConfig::default() };
    let crashed = stencil::run_threaded(cfg, topo, latency, run_cfg);

    assert_eq!(crashed.block_sums, clean.block_sums, "threaded recovery is bit-exact");
    assert_eq!(crashed.report.failures_detected, 1);
    assert_eq!(crashed.report.recoveries, 1);
    assert!(crashed.report.unrecoverable.is_none());
    assert_eq!(crashed.report.failures[0].pe, Pe(2));
}

#[test]
fn migration_then_crash_recovers_bit_exact() {
    // Load balancing and buddy checkpointing interact at the AtSync
    // barrier: objects migrate, *then* the post-migration placement is
    // what the buddy epoch captures.  A crash after a migration must
    // restore migrated objects wherever the snapshot says they live —
    // recovery recomputes placement from the mapping, it does not assume
    // objects still sit at their birth PEs.
    let cfg = small_stencil(6);
    let lb_cfg = RunConfig { lb: LbChoice::Rotate, ..RunConfig::default() };
    let clean = stencil::run_sim(cfg.clone(), stencil_net(), lb_cfg.clone());
    assert!(clean.report.migrations > 0, "RotateLB must actually migrate objects");

    // Crash PE 2 at 70 % of the makespan: several AtSync rounds (and thus
    // several migrations) have happened, and more follow after recovery.
    let at = frac_of(clean.total, 7, 10);
    let plan = FailurePlan::new().crash_at(Pe(2), at);
    let run_cfg = RunConfig { lb: LbChoice::Rotate, failure_plan: Some(plan), ..RunConfig::default() };
    let crashed = stencil::run_sim(cfg, stencil_net(), run_cfg);

    assert_eq!(crashed.block_sums, clean.block_sums, "recovery after migration is bit-exact");
    assert_eq!(crashed.report.failures_detected, 1);
    assert_eq!(crashed.report.recoveries, 1);
    assert!(crashed.report.unrecoverable.is_none());
    assert!(crashed.report.migrations > 0, "migrations happened in the crashed run too");
    assert!(crashed.report.checkpoints_taken > 0);
}

#[test]
fn double_failure_of_a_buddy_pair_is_a_structured_error() {
    // PE 1's buddy is PE 2: killing both at the same instant destroys both
    // copies of PE 1's newest pieces, so recovery must give up — cleanly.
    let cfg = small_stencil(6);
    let clean = stencil::run_sim(cfg.clone(), stencil_net(), RunConfig::default());
    let at = frac_of(clean.total, 1, 2);
    let plan = FailurePlan::new().crash_at(Pe(1), at).crash_at(Pe(2), at);
    let run_cfg = RunConfig { failure_plan: Some(plan), ..RunConfig::default() };
    let crashed = stencil::run_sim(cfg, stencil_net(), run_cfg);

    assert_eq!(crashed.report.failures_detected, 2);
    assert_eq!(crashed.report.recoveries, 0);
    match crashed.report.unrecoverable {
        Some(UnrecoverableError::NoCompleteSnapshot { ref failed }) => {
            assert_eq!(failed.as_slice(), &[Pe(1), Pe(2)]);
        }
        ref other => panic!("expected NoCompleteSnapshot, got {other:?}"),
    }
}

#[test]
fn sim_second_crash_after_recovery_shrinks_deeper_bit_exact() {
    // The first crash shrinks 4 → 3; the second lands well into the new
    // generation, after fresh buddy epochs exist on the survivors, and
    // shrinks 3 → 2.  State must still be bit-exact: recovery is not a
    // one-shot mechanism.
    let cfg = small_stencil(6);
    let clean = stencil::run_sim(cfg.clone(), stencil_net(), RunConfig::default());

    let plan =
        FailurePlan::new().crash_at(Pe(1), frac_of(clean.total, 1, 2)).crash_at(Pe(3), frac_of(clean.total, 11, 10));
    let run_cfg = RunConfig { failure_plan: Some(plan), ..RunConfig::default() };
    let crashed = stencil::run_sim(cfg, stencil_net(), run_cfg);

    assert_eq!(crashed.report.failures_detected, 2);
    assert_eq!(crashed.report.recoveries, 2, "both crashes recovered separately");
    assert!(crashed.report.unrecoverable.is_none());
    assert_eq!(crashed.block_sums, clean.block_sums, "double shrink is bit-exact");
    // Accumulators stay keyed by ORIGINAL numbering: dead PEs keep their
    // slots so per-PE attributions never shift across generations.
    assert_eq!(crashed.report.pe_busy.len(), 4);
    assert_eq!(crashed.report.generations, 3, "full → 3 survivors → 2 survivors");
}

#[test]
fn sim_crash_during_recovery_window_never_hangs() {
    // The second crash is staggered just behind the first: it lands in
    // the recovery window, before the shrunken generation has completed
    // a fresh buddy epoch.  Whatever the outcome — a deeper shrink from
    // redistributed pieces or a structured NoCompleteSnapshot — the run
    // must terminate cleanly, and if it claims recovery it must be
    // bit-exact.  (This test completing at all is the no-hang proof.)
    let cfg = small_stencil(6);
    let clean = stencil::run_sim(cfg.clone(), stencil_net(), RunConfig::default());

    let first = frac_of(clean.total, 1, 2);
    for gap_us in [1u64, 50, 500] {
        let plan = FailurePlan::new().crash_at(Pe(1), first).crash_at(Pe(3), first + Dur::from_micros(gap_us));
        let run_cfg = RunConfig { failure_plan: Some(plan), ..RunConfig::default() };
        let crashed = stencil::run_sim(cfg.clone(), stencil_net(), run_cfg);

        assert_eq!(crashed.report.failures_detected, 2, "gap {gap_us}us");
        match crashed.report.unrecoverable {
            None => {
                // Crashes landing close enough to batch into one detection
                // window recover in a single deeper shrink (recoveries = 1);
                // an intervening event splits them into two recoveries.
                assert!(crashed.report.recoveries >= 1, "gap {gap_us}us");
                assert_eq!(crashed.report.generations, 1 + crashed.report.recoveries, "gap {gap_us}us");
                assert_eq!(crashed.block_sums, clean.block_sums, "gap {gap_us}us: recovery claims imply bit-exactness");
            }
            Some(UnrecoverableError::NoCompleteSnapshot { .. }) => {
                assert!(crashed.block_sums.is_empty(), "gap {gap_us}us: an abandoned run reports no results");
            }
            ref other => panic!("gap {gap_us}us: unexpected error {other:?}"),
        }
    }
}

#[test]
fn threaded_staggered_double_crash_never_hangs() {
    // Threaded flavour: the second progress-point crash can fire while
    // the first recovery is still assembling.  Same contract — terminate
    // with either a double recovery (bit-exact) or a structured error.
    let cfg = small_stencil(6);
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
    let clean = stencil::run_threaded(cfg.clone(), topo.clone(), latency.clone(), RunConfig::default());

    let n1 = clean.report.pe_messages[1] / 2;
    let n3 = clean.report.pe_messages[3] * 3 / 4;
    assert!(n1 > 0 && n3 > 0);
    let plan = FailurePlan::new()
        .crash_after_messages(Pe(1), n1)
        .crash_after_messages(Pe(3), n3)
        .with_heartbeat(Dur::from_millis(15), Dur::from_millis(150));
    let run_cfg = RunConfig { failure_plan: Some(plan), ..RunConfig::default() };
    let crashed = stencil::run_threaded(cfg, topo, latency, run_cfg);

    assert_eq!(crashed.report.failures_detected, 2);
    match crashed.report.unrecoverable {
        None => {
            // Heartbeat timing decides whether the crashes are detected
            // together (one deeper shrink) or one generation apart.
            assert!(crashed.report.recoveries >= 1);
            assert_eq!(crashed.report.generations, 1 + crashed.report.recoveries);
            assert_eq!(crashed.block_sums, clean.block_sums, "double recovery is bit-exact");
            assert_eq!(crashed.report.pe_busy.len(), 4, "reports stay keyed by original numbering");
        }
        Some(UnrecoverableError::NoCompleteSnapshot { .. }) => {
            assert!(crashed.block_sums.is_empty());
        }
        ref other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn leanmd_single_crash_recovers_bit_exact_on_both_engines() {
    let mut cfg = MdConfig::validation(3, 4, 6);
    cfg.lb_period = Some(2);
    let net = || NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));

    // Simulation engine: exact virtual-time crash.
    let clean_sim = leanmd::run_sim(cfg.clone(), net(), RunConfig::default());
    let at = frac_of(clean_sim.total, 3, 5);
    let plan = FailurePlan::new().crash_at(Pe(2), at);
    let run_cfg = RunConfig { failure_plan: Some(plan), ..RunConfig::default() };
    let crashed_sim = leanmd::run_sim(cfg.clone(), net(), run_cfg);
    assert_eq!(crashed_sim.checksums, clean_sim.checksums, "sim recovery is bit-exact");
    assert_eq!(crashed_sim.kinetic, clean_sim.kinetic);
    assert_eq!(crashed_sim.report.failures_detected, 1);
    assert_eq!(crashed_sim.report.recoveries, 1);
    assert!(crashed_sim.report.unrecoverable.is_none());

    // Threaded engine: heartbeat detection of a progress-point crash.
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
    let clean_thr = leanmd::run_threaded(cfg.clone(), topo.clone(), latency.clone(), RunConfig::default());
    assert_eq!(clean_thr.checksums, clean_sim.checksums, "both engines agree before any failure");
    // Three progress points rather than one (all past the first buddy
    // checkpoint, at a third of the run): most of what a LeanMD PE
    // handles it sent itself (a cell's coordinates fan out to the pairs next
    // door), so these land with envelopes still waiting in the crashed PE's
    // own queue.  They die with it — never encoded, never on any wire — and
    // the survivors recompute them from the snapshot.
    for (num, den) in [(1, 2), (3, 5), (3, 4)] {
        let n = clean_thr.report.pe_messages[2] * num / den;
        let plan = FailurePlan::new()
            .crash_after_messages(Pe(2), n)
            .with_heartbeat(Dur::from_millis(15), Dur::from_millis(150));
        let run_cfg = RunConfig { failure_plan: Some(plan), ..RunConfig::default() };
        let crashed_thr = leanmd::run_threaded(cfg.clone(), topo.clone(), latency.clone(), run_cfg);
        assert_eq!(crashed_thr.checksums, clean_sim.checksums, "threaded recovery is bit-exact ({num}/{den})");
        assert_eq!(crashed_thr.report.failures_detected, 1);
        assert_eq!(crashed_thr.report.recoveries, 1);
        assert!(crashed_thr.report.unrecoverable.is_none());
    }
}
