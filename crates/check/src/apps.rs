//! App adapters: small, real-compute configurations of the paper
//! applications packaged for the explorer.
//!
//! Each adapter runs an application under a caller-supplied [`RunConfig`]
//! (the explorer arms observability there) and, on the simulator, a
//! [`SimConfig`] (the explorer's delivery policy and schedule sink), and
//! condenses the final application state into a digest of exact bit
//! patterns.  Bit patterns, not values: the whole point is that delivery
//! order must not perturb results even in the last ulp, and `f64`
//! comparison through `==` would already hide NaN and signed-zero drift.

use std::sync::{Arc, Mutex};

use mdo_apps::leanmd::{self, MdConfig};
use mdo_apps::stencil::{self, StencilConfig, StencilCost};
use mdo_core::prelude::{Chare, Ctx, Program};
use mdo_core::program::{RunConfig, RunReport};
use mdo_core::{EntryId, Mapping, SimConfig, SimEngine};
use mdo_netsim::{Dur, LatencyMatrix, NetworkModel, Topology};

use crate::invariant::Expectation;

/// One completed application run, reduced to what the harness judges.
#[derive(Debug)]
pub struct AppRun {
    /// Exact bit patterns of the final application state (block sums for
    /// the stencil; per-cell checksums plus energies for LeanMD).
    pub digest: Vec<u64>,
    /// The engine's run report (with observability armed by the caller).
    pub report: RunReport,
}

/// A runner closure: application + wall-clock engine, parameterized by
/// [`RunConfig`].
pub type Runner = Arc<dyn Fn(RunConfig) -> AppRun + Send + Sync>;

/// A simulator runner closure: application + [`SimEngine`], parameterized
/// by [`RunConfig`] and the simulator's own [`SimConfig`].
pub type SimRunner = Arc<dyn Fn(RunConfig, SimConfig) -> AppRun + Send + Sync>;

/// The one-way WAN latency of every app's simulated network here.
pub(crate) const SIM_WAN: Dur = Dur::from_millis(1);

/// An application configuration under test.
#[derive(Clone)]
pub struct CheckApp {
    /// Name used in reports and `schedule.json` files.
    pub name: String,
    /// What the invariant layer may assume about this app's runs.
    pub expectation: Expectation,
    sim: SimRunner,
    threaded: Option<Runner>,
}

impl CheckApp {
    /// An app with only a simulation-engine runner.
    pub fn new(name: impl Into<String>, expectation: Expectation, sim: SimRunner) -> Self {
        CheckApp { name: name.into(), expectation, sim, threaded: None }
    }

    /// Attach a threaded-engine runner for differential checks.
    pub fn with_threaded(mut self, threaded: Runner) -> Self {
        self.threaded = Some(threaded);
        self
    }

    /// Execute one simulation run.
    pub fn run_sim(&self, cfg: RunConfig, sim: SimConfig) -> AppRun {
        (self.sim)(cfg, sim)
    }

    /// Execute one threaded run, if a runner is attached.  It takes no
    /// delivery policy — its schedules come from real thread
    /// interleaving, which is exactly what makes it a useful independent
    /// oracle.
    pub fn run_threaded(&self, cfg: RunConfig) -> Option<AppRun> {
        self.threaded.as_ref().map(|t| t(cfg))
    }

    /// Whether a differential (threaded) oracle is available.
    pub fn has_threaded(&self) -> bool {
        self.threaded.is_some()
    }

    /// The mini stencil: 16 real-compute blocks of a 32×32 mesh on 4 PEs
    /// across two clusters — small enough for hundreds of schedules per
    /// second, contested enough (4 blocks per PE, WAN-delayed edges) to
    /// give every policy real choices.
    pub fn stencil_mini() -> CheckApp {
        fn cfg() -> StencilConfig {
            StencilConfig {
                mesh: 32,
                objects: 16,
                steps: 4,
                compute: true,
                cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
                mapping: mdo_core::Mapping::Block,
                lb_period: None,
            }
        }
        let sim: SimRunner = Arc::new(|run_cfg, sim| {
            let net = NetworkModel::two_cluster_sweep(4, SIM_WAN);
            let out = stencil::run_sim_full(cfg(), SimEngine::new(net, run_cfg).with_config(sim), None, None);
            AppRun { digest: digest_f64s(out.block_sums.iter().copied()), report: out.report }
        });
        let threaded: Runner = Arc::new(|run_cfg| {
            let topo = Topology::two_cluster(4);
            let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
            let out = stencil::run_threaded(cfg(), topo, latency, run_cfg);
            AppRun { digest: digest_f64s(out.block_sums.iter().copied()), report: out.report }
        });
        CheckApp::new("stencil-mini", Expectation::default(), sim).with_threaded(threaded)
    }

    /// The elastic stencil: the mini stencil with a mid-run crash, a
    /// shrink recovery, and the crashed PE rejoining once a fresh buddy
    /// checkpoint completes — the full shrink→expand cycle under every
    /// explored delivery schedule.  The digest must stay bit-identical to
    /// the reference schedule across all of it.
    pub fn stencil_elastic() -> CheckApp {
        use mdo_netsim::{FailurePlan, Pe};
        fn cfg() -> StencilConfig {
            StencilConfig {
                mesh: 32,
                objects: 16,
                steps: 6,
                compute: true,
                cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
                mapping: mdo_core::Mapping::Block,
                // AtSync every step: checkpoints are taken at the barrier,
                // which is what arms both the shrink and the expand.
                lb_period: Some(1),
            }
        }
        fn elastic(run_cfg: RunConfig) -> RunConfig {
            RunConfig {
                failure_plan: Some(
                    FailurePlan::new().crash_after_messages(Pe(2), 40).rejoin_after_recoveries(Pe(2), 1),
                ),
                ..run_cfg
            }
        }
        let sim: SimRunner = Arc::new(|run_cfg, sim| {
            let engine = SimEngine::new(NetworkModel::two_cluster_sweep(4, SIM_WAN), elastic(run_cfg));
            let out = stencil::run_sim_full(cfg(), engine.with_config(sim), None, None);
            AppRun { digest: digest_f64s(out.block_sums.iter().copied()), report: out.report }
        });
        CheckApp::new("stencil-elastic", Expectation::default(), sim)
    }

    /// The mini LeanMD: a 3×3×3 cell grid with real force kernels — the
    /// arrival order of neighbour forces is the classic place where a
    /// naive implementation would let the schedule into the physics.
    pub fn leanmd_mini() -> CheckApp {
        fn cfg() -> MdConfig {
            MdConfig::validation(3, 3, 3)
        }
        let sim: SimRunner = Arc::new(|run_cfg, sim| {
            let net = NetworkModel::two_cluster_sweep(4, SIM_WAN);
            let out = leanmd::run_sim_full(cfg(), SimEngine::new(net, run_cfg).with_config(sim), None, None);
            AppRun { digest: digest_md(&out), report: out.report }
        });
        let threaded: Runner = Arc::new(|run_cfg| {
            let topo = Topology::two_cluster(4);
            let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
            let out = leanmd::run_threaded(cfg(), topo, latency, run_cfg);
            AppRun { digest: digest_md(&out), report: out.report }
        });
        CheckApp::new("leanmd-mini", Expectation::default(), sim).with_threaded(threaded)
    }

    /// The delivery-count probe: a chare array whose entire state *is*
    /// the number of messages each element handled.  Unlike the paper
    /// apps it tolerates duplicate delivery without panicking (no
    /// internal assertions) and terminates by event-queue drain rather
    /// than quiescence detection, so a broken-dedup mutation surfaces as
    /// an exactly-once / digest violation instead of an app crash — and
    /// instead of an unterminated quiescence wave (a duplicate leaves
    /// global sent < processed forever, so QD can never balance).
    pub fn probe() -> CheckApp {
        let sim: SimRunner = Arc::new(|run_cfg, sim| {
            let counts: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(vec![0; PROBE_ELEMS]));
            let mut program = Program::new();
            let counts_f = Arc::clone(&counts);
            let arr = program.array("probes", PROBE_ELEMS, Mapping::Block, move |_| {
                Box::new(Probe { counts: Arc::clone(&counts_f) }) as Box<dyn Chare>
            });
            program.on_startup(move |ctl| ctl.broadcast(arr, PROBE_START, vec![]));
            let net = NetworkModel::two_cluster_sweep(4, SIM_WAN);
            let report = SimEngine::new(net, run_cfg).with_config(sim).run(program);
            let digest = counts.lock().expect("probe counts").clone();
            AppRun { digest, report }
        });
        CheckApp::new("probe", Expectation { quiescent_exit: true, ..Expectation::default() }, sim)
    }

    /// Look an app up by the name stored in a `schedule.json`.
    pub fn by_name(name: &str) -> Option<CheckApp> {
        match name {
            "stencil-mini" => Some(CheckApp::stencil_mini()),
            "stencil-elastic" => Some(CheckApp::stencil_elastic()),
            "leanmd-mini" => Some(CheckApp::leanmd_mini()),
            "probe" => Some(CheckApp::probe()),
            _ => None,
        }
    }
}

const PROBE_ELEMS: usize = 16;
const PROBE_START: EntryId = EntryId(1);
const PROBE_PING: EntryId = EntryId(2);
const PROBE_HOPS: u8 = 3;

struct Probe {
    counts: Arc<Mutex<Vec<u64>>>,
}

impl Chare for Probe {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        let me = ctx.my_elem().0 as usize;
        let arr = ctx.me().array;
        let ping = |to: usize, hops: u8| (mdo_core::ElemId((to % PROBE_ELEMS) as u32), vec![hops]);
        match entry {
            PROBE_START => {
                ctx.charge(Dur::from_micros(50));
                for offset in [1, 5] {
                    let (to, payload) = ping(me + offset, PROBE_HOPS);
                    ctx.send(arr, to, PROBE_PING, payload);
                }
            }
            PROBE_PING => {
                ctx.charge(Dur::from_micros(20));
                self.counts.lock().expect("probe counts")[me] += 1;
                let hops = payload.first().copied().unwrap_or(0);
                if hops > 0 {
                    let (to, payload) = ping(me + 3, hops - 1);
                    ctx.send(arr, to, PROBE_PING, payload);
                }
            }
            other => panic!("unknown probe entry {other:?}"),
        }
    }
}

/// Exact bit patterns of a float sequence.
pub fn digest_f64s(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
    xs.into_iter().map(f64::to_bits).collect()
}

fn digest_md(out: &leanmd::MdOutcome) -> Vec<u64> {
    digest_f64s(out.checksums.iter().copied().chain([out.kinetic, out.potential]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_core::{Ctr, DeliverySpec};

    #[test]
    fn stencil_mini_produces_a_nonempty_stable_digest() {
        let app = CheckApp::stencil_mini();
        let a = app.run_sim(RunConfig::default(), SimConfig::default());
        let b = app.run_sim(RunConfig::default(), SimConfig::default());
        assert!(!a.digest.is_empty());
        assert_eq!(a.digest, b.digest, "identical configs, identical bits");
    }

    #[test]
    fn stencil_mini_has_contested_dispatches_to_explore() {
        let app = CheckApp::stencil_mini();
        let sink: mdo_core::ScheduleSink = Default::default();
        let _ =
            app.run_sim(RunConfig::default(), SimConfig { schedule_sink: Some(sink.clone()), ..SimConfig::default() });
        let trace = sink.lock().unwrap();
        assert!(trace.choices.len() > 10, "only {} contested dispatches — too few to explore", trace.choices.len());
    }

    #[test]
    fn random_delivery_does_not_change_the_stencil_digest() {
        let app = CheckApp::stencil_mini();
        let fifo = app.run_sim(RunConfig::default(), SimConfig::default());
        let random = app.run_sim(
            RunConfig::default(),
            SimConfig { delivery: DeliverySpec::Random { seed: 99 }, ..SimConfig::default() },
        );
        assert_eq!(fifo.digest, random.digest, "delivery order leaked into application state");
    }

    #[test]
    fn apps_resolve_by_name() {
        assert!(CheckApp::by_name("stencil-mini").is_some());
        assert!(CheckApp::by_name("stencil-elastic").is_some());
        assert!(CheckApp::by_name("leanmd-mini").is_some());
        assert!(CheckApp::by_name("probe").is_some());
        assert!(CheckApp::by_name("nope").is_none());
    }

    #[test]
    fn stencil_elastic_goes_through_the_full_cycle_bit_exact() {
        let app = CheckApp::stencil_elastic();
        let a = app.run_sim(RunConfig::default(), SimConfig::default());
        // The crash and the rejoin both happened...
        let c = |k| a.report.counters.get(k);
        assert_eq!(c(Ctr::Recoveries), 1, "shrink recovery ran");
        assert_eq!(c(Ctr::PesJoined), 1, "the crashed PE rejoined");
        assert_eq!(c(Ctr::Generations), 3, "boot, shrunk, rejoined");
        // ...and neither leaked into the physics: same bits as the
        // undisturbed mini stencil (same mesh/steps under its own config).
        let b = app.run_sim(RunConfig::default(), SimConfig::default());
        assert_eq!(a.digest, b.digest, "elastic runs are deterministic");
    }

    #[test]
    fn probe_counts_every_ping_exactly_once() {
        let app = CheckApp::probe();
        let run = app.run_sim(RunConfig::default(), SimConfig::default());
        // Each element receives 2 initial pings; each ping forwards
        // PROBE_HOPS more times; traffic is a permutation, so the totals
        // are uniform: (1 + HOPS) * 2 pings per element.
        let expect = u64::from(PROBE_HOPS + 1) * 2;
        assert_eq!(run.digest, vec![expect; PROBE_ELEMS]);
    }
}
