//! The exploration driver: many schedules, one verdict each.
//!
//! An exploration session is a deterministic function of (app, seed,
//! budget).  It first runs the app once under plain FIFO with recording
//! on — that run yields the *reference digest* (the state every other
//! schedule must reproduce bit for bit) and the *horizon* (how many
//! contested dispatches one run contains, which calibrates PCT).  It then
//! derives one sub-seed per schedule from a `SplitMix64` stream and runs
//! the app under alternating [`DeliverySpec::Random`] and
//! [`DeliverySpec::Pct`] policies, checking the full invariant layer
//! after every run.  Failing schedules are greedily shrunk to a minimal
//! delivery-order trace and packaged as replayable
//! [`ScheduleFile`]s.  Optionally, a sampled subset of runs is
//! re-executed on the threaded engine as a differential oracle: real
//! thread interleaving is scheduling noise the sim policies cannot
//! generate, and the application state must *still* match.

use std::collections::BTreeSet;
use std::sync::Arc;

use mdo_core::program::RunConfig;
use mdo_core::{DeliverySpec, ObsConfig, ScheduleSink, ScheduleTrace};
use mdo_netsim::{AggConfig, FaultPlan, FlowConfig, SplitMix64, TreeConfig};

use crate::apps::CheckApp;
use crate::invariant::{check_digest, check_report, Expectation, Violation};
use crate::schedule::ScheduleFile;
use crate::shrink::{shrink, ShrinkResult};

/// Exploration budget and knobs.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Root seed: the entire session (schedule sequence and verdicts) is
    /// a deterministic function of it.
    pub seed: u64,
    /// Number of explored schedules (on top of the FIFO reference run).
    pub schedules: usize,
    /// PCT depth (change points per schedule) for the odd-indexed runs.
    pub pct_depth: u32,
    /// Re-run every n-th schedule on the threaded engine as a
    /// differential oracle (0 = never).
    pub differential_every: usize,
    /// Max replay runs the shrinker may spend per failing schedule.
    pub shrink_budget: usize,
    /// Fault plan applied to every run (exploration composes with WAN
    /// fault injection; the hidden mutation knobs ride in here too).
    pub fault_plan: Option<FaultPlan>,
    /// Aggregation policy applied to every run (exploration composes
    /// with the batched-release model: cross-WAN envelopes buffer and
    /// release as whole frames, which is itself a schedule perturbation
    /// the invariants must survive).
    pub agg: Option<AggConfig>,
    /// Flow-control policy applied to every run.  Backpressure is one
    /// more schedule perturbation: under `Block` credit stalls re-time
    /// traffic without losing it (digests must stay bit-exact); under
    /// `Shed` overflow envelopes vanish deliberately, so the digest
    /// comparison is skipped and the balance invariants tolerate exactly
    /// the reported shed count.
    pub flow: Option<FlowConfig>,
    /// Topology-aware collective trees applied to every run.  Gateway
    /// forwarding re-times broadcasts, multicasts and reduction fold-ins,
    /// and reductions combine in tree order — yet every state digest must
    /// still match the flat FIFO reference bit for bit.
    pub tree: Option<TreeConfig>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seed: 0x6d646f_636865636b, // "mdo check"
            schedules: 64,
            pct_depth: 3,
            differential_every: 0,
            shrink_budget: 200,
            fault_plan: None,
            agg: None,
            flow: None,
            tree: None,
        }
    }
}

/// Verdict for one explored schedule.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// Position in the session (0-based).
    pub index: usize,
    /// Sub-seed the policy ran with.
    pub seed: u64,
    /// `"random"` or `"pct"`.
    pub policy: &'static str,
    /// FNV-1a hash of the recorded delivery trace (distinct hashes =
    /// distinct schedules).
    pub hash: u64,
    /// Contested decisions recorded in this run.
    pub decisions: usize,
    /// Everything the invariant layer found (empty = passed).
    pub violations: Vec<Violation>,
}

/// A failing schedule, shrunk and packaged for replay.
#[derive(Clone, Debug)]
pub struct FailingSchedule {
    /// Which explored schedule failed.
    pub index: usize,
    /// The violations of the original (unshrunk) run.
    pub violations: Vec<Violation>,
    /// Shrink statistics.
    pub shrunk: ShrinkResult,
    /// Violations of the minimal trace's replay (what a reproducer sees).
    pub replay_violations: Vec<Violation>,
    /// The replayable artifact (serialize with [`ScheduleFile::to_json`]).
    pub file: ScheduleFile,
}

/// Everything one exploration session produced.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// App under test.
    pub app: String,
    /// Root seed of the session.
    pub seed: u64,
    /// Contested dispatches in the FIFO reference run.
    pub horizon: u64,
    /// Trace hash of the FIFO reference schedule.
    pub reference_hash: u64,
    /// The reference state digest every schedule must reproduce.
    pub reference_digest: Vec<u64>,
    /// Violations of the FIFO reference itself (must be empty for the
    /// rest of the session to mean anything).
    pub reference_violations: Vec<Violation>,
    /// Per-schedule verdicts, in exploration order.
    pub outcomes: Vec<ScheduleOutcome>,
    /// Failing schedules, shrunk.
    pub failing: Vec<FailingSchedule>,
    /// Differential (threaded-engine) runs performed.
    pub differential_runs: usize,
    /// Digest mismatches the differential oracle found, by schedule index.
    pub differential_violations: Vec<(usize, Violation)>,
}

impl ExploreReport {
    /// Number of distinct schedules seen (by trace hash), including the
    /// FIFO reference.
    pub fn distinct_schedules(&self) -> usize {
        let mut hashes: BTreeSet<u64> = self.outcomes.iter().map(|o| o.hash).collect();
        hashes.insert(self.reference_hash);
        hashes.len()
    }

    /// True when the reference, every schedule, and every differential run
    /// passed.
    pub fn passed(&self) -> bool {
        self.reference_violations.is_empty()
            && self.failing.is_empty()
            && self.differential_violations.is_empty()
            && self.outcomes.iter().all(|o| o.violations.is_empty())
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a over the trace's choice triples.  The *chosen* indices alone
/// define the schedule; `pe`/`eligible` are context, hashed too so that
/// structurally different runs never collide by accident.
fn trace_hash(trace: &ScheduleTrace) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for c in &trace.choices {
        eat(c.pe);
        eat(c.eligible);
        eat(c.chosen);
    }
    h
}

fn run_cfg(cfg: &ExploreConfig, delivery: DeliverySpec, sink: Option<ScheduleSink>) -> RunConfig {
    RunConfig {
        fault_plan: cfg.fault_plan.clone(),
        delivery,
        schedule_sink: sink,
        obs: Some(ObsConfig::new()),
        agg: cfg.agg,
        flow: cfg.flow,
        tree_collectives: cfg.tree,
        ..RunConfig::default()
    }
}

/// True when the configured flow policy deliberately drops overflow —
/// the one regime where state digests are legitimately schedule-dependent
/// (which envelopes overflow depends on delivery order).
fn shedding(cfg: &ExploreConfig) -> bool {
    cfg.flow.is_some_and(|f| f.sheds())
}

/// The app's expectation, widened for the session's flow policy.
fn expectation(app: &CheckApp, cfg: &ExploreConfig) -> Expectation {
    Expectation { sheds_allowed: shedding(cfg), ..app.expectation }
}

/// Run one exploration session.  Fully deterministic: the same `(app,
/// cfg)` produces the same report, schedule for schedule, verdict for
/// verdict.
pub fn explore(app: &CheckApp, cfg: &ExploreConfig) -> ExploreReport {
    // Reference: FIFO, recorded.  Its trace length is the PCT horizon.
    let ref_sink: ScheduleSink = Default::default();
    let reference = app.run_sim(run_cfg(cfg, DeliverySpec::Fifo, Some(ref_sink.clone())));
    let ref_trace = ref_sink.lock().map(|t| t.clone()).unwrap_or_default();
    let horizon = ref_trace.choices.len() as u64;
    let expect = expectation(app, cfg);
    let mut reference_violations = check_report(&reference.report, &expect);
    // A FIFO trace with deviations would mean the engine mis-recorded.
    if ref_trace.deviations() != 0 {
        reference_violations.push(Violation::Transport("FIFO reference recorded non-FIFO choices".into()));
    }

    let mut report = ExploreReport {
        app: app.name.clone(),
        seed: cfg.seed,
        horizon,
        reference_hash: trace_hash(&ref_trace),
        reference_digest: reference.digest,
        reference_violations,
        outcomes: Vec::with_capacity(cfg.schedules),
        failing: Vec::new(),
        differential_runs: 0,
        differential_violations: Vec::new(),
    };

    let mut seeds = SplitMix64::new(cfg.seed);
    for index in 0..cfg.schedules {
        let seed = seeds.next_u64();
        let (policy, spec) = if index % 2 == 0 {
            ("random", DeliverySpec::Random { seed })
        } else {
            ("pct", DeliverySpec::Pct { seed, depth: cfg.pct_depth, horizon })
        };
        let sink: ScheduleSink = Default::default();
        let run = app.run_sim(run_cfg(cfg, spec, Some(sink.clone())));
        let trace = sink.lock().map(|t| t.clone()).unwrap_or_default();

        let mut violations = check_report(&run.report, &expect);
        if !shedding(cfg) {
            violations.extend(check_digest(&report.reference_digest, &run.digest));
        }

        if !violations.is_empty() {
            let failing = shrink_failure(app, cfg, &report.reference_digest, &trace);
            report.failing.push(FailingSchedule {
                index,
                violations: violations.clone(),
                shrunk: failing.0,
                replay_violations: failing.1,
                file: ScheduleFile { app: app.name.clone(), seed, trace: failing.2 },
            });
        }

        report.outcomes.push(ScheduleOutcome {
            index,
            seed,
            policy,
            hash: trace_hash(&trace),
            decisions: trace.choices.len(),
            violations,
        });

        // No differential run under `Shed`: there is no digest to compare,
        // and an app that needs every message starves on a wall clock until
        // the watchdog, where the simulator's event queue simply drains.
        if cfg.differential_every > 0 && index % cfg.differential_every == 0 && app.has_threaded() && !shedding(cfg) {
            if let Some(thr) = app.run_threaded(run_cfg(cfg, DeliverySpec::Fifo, None)) {
                report.differential_runs += 1;
                if let Some(v) = check_digest(&report.reference_digest, &thr.digest) {
                    report.differential_violations.push((index, v));
                }
            }
        }
    }

    report
}

/// Replay a trace and judge it — the shrinker's probe.
pub fn replay_violations(
    app: &CheckApp,
    cfg: &ExploreConfig,
    reference_digest: &[u64],
    trace: &ScheduleTrace,
) -> Vec<Violation> {
    let spec = DeliverySpec::Replay(Arc::new(trace.clone()));
    let run = app.run_sim(run_cfg(cfg, spec, None));
    let mut violations = check_report(&run.report, &expectation(app, cfg));
    if !shedding(cfg) {
        violations.extend(check_digest(reference_digest, &run.digest));
    }
    violations
}

fn shrink_failure(
    app: &CheckApp,
    cfg: &ExploreConfig,
    reference_digest: &[u64],
    trace: &ScheduleTrace,
) -> (ShrinkResult, Vec<Violation>, ScheduleTrace) {
    let result = shrink(trace, cfg.shrink_budget, |t| !replay_violations(app, cfg, reference_digest, t).is_empty());
    let final_violations = replay_violations(app, cfg, reference_digest, &result.trace);
    let minimal = result.trace.clone();
    (result, final_violations, minimal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_core::ScheduleChoice;

    #[test]
    fn exploration_passes_with_aggregated_release() {
        // The batched-release model is a schedule perturbation of its own:
        // envelopes wait in buffers and land in bulk.  Exactly-once,
        // quiescence soundness and digest stability must all survive it.
        let cfg = ExploreConfig { schedules: 4, agg: Some(AggConfig::default()), ..ExploreConfig::default() };
        let report = explore(&CheckApp::probe(), &cfg);
        assert!(report.horizon > 0, "the reference run had contested dispatches");
        assert!(report.passed(), "aggregated exploration failed: {:?}", report.failing);
    }

    #[test]
    fn exploration_passes_with_aggregation_and_faults() {
        let plan = FaultPlan::loss(0.2).with_seed(5).with_rto(mdo_netsim::Dur::from_millis(4));
        let cfg = ExploreConfig {
            schedules: 4,
            agg: Some(AggConfig::default()),
            fault_plan: Some(plan),
            ..ExploreConfig::default()
        };
        let report = explore(&CheckApp::probe(), &cfg);
        assert!(report.passed(), "aggregation + faults exploration failed: {:?}", report.failing);
    }

    #[test]
    fn aggregated_digests_stay_bit_exact_across_schedules() {
        let cfg = ExploreConfig { schedules: 2, agg: Some(AggConfig::default()), ..ExploreConfig::default() };
        let report = explore(&CheckApp::stencil_mini(), &cfg);
        assert!(report.passed(), "aggregated stencil exploration failed: {:?}", report.failing);
    }

    #[test]
    fn block_flow_digests_stay_bit_exact_across_schedules() {
        // Credit stalls under Block re-time traffic but never lose or
        // reorder it beyond what the schedule explorer already does, so
        // every schedule must still reproduce the reference digest.
        let flow = FlowConfig::default().with_credit_bytes(256);
        let cfg = ExploreConfig { schedules: 4, flow: Some(flow), ..ExploreConfig::default() };
        let report = explore(&CheckApp::probe(), &cfg);
        assert!(report.passed(), "Block-flow exploration failed: {:?}", report.failing);
    }

    #[test]
    fn shed_flow_exploration_passes_without_digest_comparison() {
        use mdo_netsim::OverloadPolicy;
        // A starved window under Shed drops overflow deliberately; the
        // balance invariants absorb the reported shed count and digest
        // comparison is off, so quiescence and exactly-once still hold.
        let flow = FlowConfig::default().with_credit_bytes(64).with_policy(OverloadPolicy::Shed);
        let cfg = ExploreConfig { schedules: 4, flow: Some(flow), ..ExploreConfig::default() };
        let report = explore(&CheckApp::probe(), &cfg);
        assert!(report.passed(), "Shed-flow exploration failed: {:?}", report.failing);
    }

    #[test]
    fn block_flow_composes_with_aggregation_and_faults() {
        let plan = FaultPlan::loss(0.2).with_seed(5).with_rto(mdo_netsim::Dur::from_millis(4));
        let cfg = ExploreConfig {
            schedules: 2,
            agg: Some(AggConfig::default()),
            fault_plan: Some(plan),
            flow: Some(FlowConfig::default().with_credit_bytes(512)),
            ..ExploreConfig::default()
        };
        let report = explore(&CheckApp::probe(), &cfg);
        assert!(report.passed(), "flow + agg + faults exploration failed: {:?}", report.failing);
    }

    #[test]
    fn tree_collectives_digests_stay_bit_exact_across_schedules() {
        // Gateway forwarding re-times every collective, and tree
        // reductions combine partials in tree order rather than arrival
        // order — the state digests must not notice.
        let cfg = ExploreConfig { schedules: 4, tree: Some(TreeConfig::default()), ..ExploreConfig::default() };
        let report = explore(&CheckApp::stencil_mini(), &cfg);
        assert!(report.horizon > 0, "the reference run had contested dispatches");
        assert!(report.passed(), "tree-collectives exploration failed: {:?}", report.failing);
    }

    #[test]
    fn tree_collectives_compose_with_faults_and_aggregation() {
        let plan = FaultPlan::loss(0.2).with_seed(5).with_rto(mdo_netsim::Dur::from_millis(4));
        let cfg = ExploreConfig {
            schedules: 4,
            tree: Some(TreeConfig::new(2)),
            agg: Some(AggConfig::default()),
            fault_plan: Some(plan),
            ..ExploreConfig::default()
        };
        let report = explore(&CheckApp::probe(), &cfg);
        assert!(report.passed(), "tree + agg + faults exploration failed: {:?}", report.failing);
    }

    #[test]
    fn trace_hash_distinguishes_traces() {
        let a = ScheduleTrace { choices: vec![ScheduleChoice { pe: 0, eligible: 2, chosen: 0 }] };
        let b = ScheduleTrace { choices: vec![ScheduleChoice { pe: 0, eligible: 2, chosen: 1 }] };
        let empty = ScheduleTrace::default();
        assert_ne!(trace_hash(&a), trace_hash(&b));
        assert_ne!(trace_hash(&a), trace_hash(&empty));
        assert_eq!(trace_hash(&empty), FNV_OFFSET);
        assert_eq!(trace_hash(&a), trace_hash(&a.clone()));
    }
}
