//! Schedule exploration end to end: the `mdo-check` harness driving the
//! sim engine's delivery-policy seam.
//!
//! Three claims are pinned here.  Exploration is *deterministic*: the
//! same root seed reproduces the same schedule sequence, hash for hash,
//! verdict for verdict.  Exploration is *effective*: distinct seeds
//! produce genuinely distinct schedules, and none of them moves the
//! application state by a bit.  And the invariant layer is *live*: a
//! deliberately broken reliable-transport dedup (a hidden test-only
//! mutation of the simulator's receiver machines) is caught, shrunk to a
//! minimal trace, and the shrunk `schedule.json` replays to the same
//! verdict.

use gridmdo::prelude::*;
use mdo_check::{explore, replay_violations, CheckApp, ExploreConfig, ScheduleFile, Violation};

fn quick(seed: u64, schedules: usize) -> ExploreConfig {
    ExploreConfig { seed, schedules, differential_every: 0, ..ExploreConfig::default() }
}

#[test]
fn exploration_passes_and_schedules_are_distinct() {
    let app = CheckApp::stencil_mini();
    let report = explore(&app, &quick(7, 12));
    assert!(
        report.passed(),
        "violations: {:?}",
        report.outcomes.iter().flat_map(|o| &o.violations).collect::<Vec<_>>()
    );
    assert!(report.horizon > 10, "mini config must have real contention, got horizon {}", report.horizon);
    assert!(
        report.distinct_schedules() >= 10,
        "12 seeded schedules should be almost all distinct, got {}",
        report.distinct_schedules()
    );
    assert!(!report.reference_digest.is_empty());
}

#[test]
fn exploration_is_a_deterministic_function_of_the_seed() {
    let app = CheckApp::stencil_mini();
    let a = explore(&app, &quick(1234, 10));
    let b = explore(&app, &quick(1234, 10));
    let hashes =
        |r: &mdo_check::ExploreReport| r.outcomes.iter().map(|o| (o.seed, o.hash, o.decisions)).collect::<Vec<_>>();
    assert_eq!(hashes(&a), hashes(&b), "same seed, same schedule sequence");
    assert_eq!(a.reference_digest, b.reference_digest);
    assert_eq!(a.horizon, b.horizon);
    assert!(a.passed() && b.passed());

    let c = explore(&app, &quick(1235, 10));
    assert_ne!(hashes(&a), hashes(&c), "different seed, different schedules");
    assert_eq!(a.reference_digest, c.reference_digest, "but identical application state");
}

#[test]
fn differential_oracle_agrees_across_engines() {
    let app = CheckApp::leanmd_mini();
    let cfg = ExploreConfig { seed: 5, schedules: 2, differential_every: 1, ..ExploreConfig::default() };
    let report = explore(&app, &cfg);
    assert_eq!(report.differential_runs, 2);
    assert!(
        report.differential_violations.is_empty(),
        "threaded engine diverged: {:?}",
        report.differential_violations
    );
    assert!(report.passed());
}

#[test]
fn broken_dedup_mutation_is_caught_shrunk_and_replayable() {
    // The hidden test-only mutation, armed on the simulator's receiver
    // machines: wire-level duplicates leak past receiver-side dedup.
    // Under it, some cross-cluster message is delivered twice — the
    // invariant layer must see the extra Recv.  The probe app tolerates
    // duplicates without panicking, so the violation surfaces as
    // exactly-once / digest breakage rather than as an app crash.
    let plan = FaultPlan::default().with_duplicate(0.10).with_seed(9);
    let app = CheckApp::probe();
    let cfg = ExploreConfig {
        run: RunConfig { fault_plan: Some(plan), ..RunConfig::default() },
        mutate_no_dedup: true,
        ..quick(42, 3)
    };
    let report = explore(&app, &cfg);

    assert!(!report.passed(), "the mutation must be caught");
    let caught: Vec<&Violation> =
        report.reference_violations.iter().chain(report.failing.iter().flat_map(|f| f.violations.iter())).collect();
    assert!(
        caught.iter().any(|v| matches!(v, Violation::ExactlyOnce { .. })),
        "expected an exactly-once violation, got {caught:?}"
    );

    // Every failing schedule was shrunk to a minimal, still-failing trace.
    assert!(!report.failing.is_empty());
    for fail in &report.failing {
        assert!(fail.shrunk.to_deviations <= fail.shrunk.from_deviations);
        assert!(!fail.replay_violations.is_empty(), "the shrunk trace must still reproduce the failure");

        // The schedule.json artifact round-trips and replays to the same
        // verdict — the complete triage loop.
        let text = fail.file.to_json();
        let parsed = ScheduleFile::from_json(&text).expect("schedule.json parses");
        assert_eq!(parsed, fail.file);
        let replayed = replay_violations(&app, &cfg, &report.reference_digest, &parsed.trace);
        assert!(
            replayed.iter().any(|v| matches!(v, Violation::ExactlyOnce { .. })),
            "replay must reproduce the exactly-once violation, got {replayed:?}"
        );
    }
}

#[test]
fn clean_fault_injection_passes_exploration() {
    // Drops and reordering with a *working* reliable layer: schedules
    // shift (retransmits arrive late) but every invariant holds — the
    // harness does not cry wolf under honest WAN weather.
    let plan = FaultPlan::default().with_drop(0.05).with_reorder(0.10).with_seed(3);
    let app = CheckApp::stencil_mini();
    let cfg = ExploreConfig { run: RunConfig { fault_plan: Some(plan), ..RunConfig::default() }, ..quick(8, 6) };
    let report = explore(&app, &cfg);
    assert!(
        report.passed(),
        "false positives under clean fault injection: ref={:?}, failing={:?}",
        report.reference_violations,
        report.failing.iter().map(|f| &f.violations).collect::<Vec<_>>()
    );
    assert!(report.outcomes.iter().all(|o| o.violations.is_empty()));
}
