//! The four workloads, and how one repetition of each is run.
//!
//! A repetition is one complete job — launch, `steps` application steps,
//! teardown — driven only through the apps' public `run_*` entry points.
//! Timed repetitions run [`RunConfig::default`] plus `seed` (and `net` for
//! the TCP workloads): what a user gets, and no knob of ours.  The traced
//! pass reuses the same code with a [`Tweak`] applied.

use std::time::{Duration, Instant};

use mdo_apps::leanmd::{self, MdConfig};
use mdo_apps::stencil::{self, StencilConfig};
use mdo_core::program::{RunConfig, RunReport};
use mdo_core::{Mapping, ObsConfig, ThreadedConfig};
use mdo_net::{localhost_rendezvous, NetConfig};
use mdo_netsim::latency::DEFAULT_INTRA_LATENCY;
use mdo_netsim::{AggConfig, Dur, LatencyMatrix, NetworkModel, Topology, WanContention};
use mdo_obs::Ctr;

/// Safety limit for one threaded or TCP repetition: a wedged repetition
/// is a failed attempt, not a hung benchmark.
const MAX_WALL: Duration = Duration::from_secs(40);

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Coarse stencil on the in-process threaded engine, sleeping compute,
    /// 32 ms WAN: the paper's masking experiment.
    StencilMask,
    /// Fine-grain stencil over loopback TCP: per-envelope cost.
    StencilCrossTcp,
    /// LeanMD over loopback TCP: per-byte cost.
    LeanmdTcp,
    /// Both apps on the simulation engine: the transport-bypass workload.
    SimSweep,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 4] =
    [Workload::StencilMask, Workload::StencilCrossTcp, Workload::LeanmdTcp, Workload::SimSweep];

/// Fixed shape of a workload: what a repetition runs and what it must count.
pub struct Shape {
    /// Application steps in one timed repetition (the divisor of `step_ms`).
    pub steps: u32,
    /// Application steps in a warm-up or `--quick` repetition.
    pub short_steps: u32,
    /// Injected one-way wide-area latency of the WAN repetitions.
    pub wan: Dur,
    /// Envelopes the PEs process in a timed repetition, exactly.
    pub envelopes: u64,
    /// Packets that cross the cluster boundary in a timed repetition, exactly.
    pub cross_msgs: u64,
    /// Bytes that cross the cluster boundary in a timed repetition, exactly.
    pub cross_bytes: u64,
}

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StencilMask => "stencil_mask",
            Workload::StencilCrossTcp => "stencil_cross_tcp",
            Workload::LeanmdTcp => "leanmd_tcp",
            Workload::SimSweep => "sim_sweep",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's fixed shape.  The counts are properties of the
    /// program at the commit that defined the benchmark; a repetition whose
    /// counts differ is a failed attempt.
    pub fn shape(self) -> Shape {
        match self {
            Workload::StencilMask => Shape {
                steps: 12,
                short_steps: 6,
                wan: Dur::from_millis(32),
                envelopes: 11_542,
                cross_msgs: 396,
                cross_bytes: 412_936,
            },
            Workload::StencilCrossTcp => Shape {
                steps: 12,
                short_steps: 6,
                wan: Dur::from_millis(4),
                envelopes: 47_621,
                cross_msgs: 23_812,
                cross_bytes: 13_269_368,
            },
            Workload::LeanmdTcp => Shape {
                steps: 4,
                short_steps: 2,
                wan: Dur::from_millis(16),
                envelopes: 46_661,
                cross_msgs: 8_068,
                cross_bytes: 32_049_912,
            },
            Workload::SimSweep => Shape {
                steps: SIM_STENCIL_STEPS + SIM_LEANMD_STEPS,
                short_steps: SIM_STENCIL_STEPS + SIM_LEANMD_STEPS,
                wan: Dur::from_millis(8),
                envelopes: 51_536,
                cross_msgs: 2_912,
                cross_bytes: 9_019_072,
            },
        }
    }
}

/// Deviations from the timed configuration, used only by the traced pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tweak {
    /// Arm `RunConfig::obs` (net mode ignores it, so over TCP it has no effect).
    pub obs: bool,
    /// Arm `RunConfig::agg` with the default policy.
    pub agg: bool,
    /// Run a TCP workload's job on the in-process threaded engine instead.
    pub in_process: bool,
    /// Place the fine stencil's blocks with `Mapping::Block` (the placement
    /// on which the aggregator is bimodal) instead of `RoundRobin`.
    pub block: bool,
}

impl Tweak {
    /// The timed configuration.
    pub const NONE: Tweak = Tweak { obs: false, agg: false, in_process: false, block: false };
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall milliseconds per application step, as the engine reports it
    /// (for `sim_sweep`: repetition wall time / steps).
    pub step_ms: f64,
    /// Wall time of the whole `run_*` call, launch and teardown included.
    pub call_ms: f64,
    /// The engine's own run time (`outcome.total`; virtual for `sim_sweep`).
    pub engine_ms: f64,
    /// Steps this repetition ran.
    pub steps: u32,
    /// Envelopes processed, summed over PEs.
    pub envelopes: u64,
    /// Packets across the cluster boundary.
    pub cross_msgs: u64,
    /// Bytes across the cluster boundary.
    pub cross_bytes: u64,
    /// Handler time summed over PEs, ms.
    pub busy_ms: f64,
    /// PEs in the job.
    pub pes: usize,
    /// Highest scheduler-queue depth any PE saw.
    pub max_queue_depth: usize,
    /// Why the repetition counts as failed, if it does.
    pub failure: Option<String>,
    /// `sim_sweep` only: virtual ms/step of the stencil and LeanMD halves,
    /// and each half's wall time and envelope count.
    pub sim: Option<SimHalves>,
    /// Overlap analysis, when `Tweak::obs` was honoured.
    pub overlap: Option<Overlap>,
    /// Jumbo frames the aggregator shipped, and how many of them the
    /// deadline timer flushed (read from the obs counters, so 0 without
    /// `Tweak::obs`).
    pub frames: (u64, u64),
    /// Share of the host's processor time the hypervisor stole while the
    /// repetition ran (filled in by the caller).
    pub steal: f64,
}

/// The two halves of a `sim_sweep` repetition.
#[derive(Debug, Clone, Copy)]
pub struct SimHalves {
    /// Simulated ms/step of the stencil half.
    pub stencil_virt_step_ms: f64,
    /// Simulated ms/step of the LeanMD half.
    pub leanmd_virt_step_ms: f64,
    /// Wall µs per envelope, stencil half.
    pub stencil_wall_us_per_env: f64,
    /// Wall µs per envelope, LeanMD half.
    pub leanmd_wall_us_per_env: f64,
}

/// mdo-obs's wide-area wait decomposition for one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Overlap {
    /// masked / outstanding.
    pub fraction: f64,
    /// Exposed cross-cluster wait, ms per step per PE.
    pub exposed_ms_per_step: f64,
    /// Masked cross-cluster wait, ms per step per PE.
    pub masked_ms_per_step: f64,
}

fn run_cfg(seed: u64, tweak: Tweak) -> RunConfig {
    RunConfig {
        seed,
        obs: tweak.obs.then(ObsConfig::new),
        agg: tweak.agg.then(AggConfig::default),
        ..RunConfig::default()
    }
}

fn latency(topo: &Topology, wan: Dur) -> LatencyMatrix {
    LatencyMatrix::uniform(topo, Dur::ZERO, wan)
}

pub(crate) fn threaded_cfg(topo: &Topology, wan: Dur) -> ThreadedConfig {
    ThreadedConfig { max_wall: MAX_WALL, ..ThreadedConfig::new(latency(topo, wan)) }
}

/// Run `job` once per node of `topo`, each on its own thread with
/// `RunConfig::net` naming that node, over freshly reserved loopback
/// ports; return node 0's result.  `Err` carries the panic of any node.
pub(crate) fn over_tcp<T: Send>(
    topo: &Topology,
    cfg: &RunConfig,
    job: impl Fn(RunConfig) -> T + Sync,
) -> Result<T, String> {
    let nodes = topo.num_clusters();
    // Reserve-then-rebind, exactly as the process launcher does.
    let (listeners, manifest) = localhost_rendezvous(nodes).map_err(|e| format!("rendezvous: {e}"))?;
    drop(listeners);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nodes as u32)
            .rev()
            .map(|node| {
                let mut cfg = cfg.clone();
                cfg.net = Some(NetConfig::new(node, manifest.clone()));
                let job = &job;
                std::thread::Builder::new()
                    .name(format!("node{node}"))
                    .spawn_scoped(s, move || job(cfg))
                    .expect("spawn node thread")
            })
            .collect();
        let mut node0 = Err("no node 0".to_string());
        let mut failure = None;
        // `handles` is in descending node order, so node 0 joins last.
        for (i, h) in handles.into_iter().enumerate() {
            let node = nodes - 1 - i;
            match h.join() {
                Ok(out) if node == 0 => node0 = Ok(out),
                Ok(_) => {}
                Err(p) => failure = Some(format!("node {node} panicked: {}", panic_text(&p))),
            }
        }
        match failure {
            Some(f) => Err(f),
            None => node0,
        }
    })
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>().cloned().or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string())).unwrap_or_default()
}

fn rep_from(steps: u32, ms_per_step: f64, engine_ms: f64, call: Duration, report: &RunReport) -> Rep {
    let failure = match (&report.transport_error, &report.unrecoverable) {
        (Some(e), _) => Some(format!("transport_error: {e:?}")),
        (_, Some(e)) => Some(format!("unrecoverable: {e:?}")),
        _ => None,
    };
    let overlap = report.obs.as_ref().map(|o| {
        let total = o.overlap();
        let per = (steps as f64) * report.pe_busy.len().max(1) as f64;
        Overlap {
            fraction: total.fraction(),
            exposed_ms_per_step: total.exposed.as_millis_f64() / per,
            masked_ms_per_step: total.masked.as_millis_f64() / per,
        }
    });
    Rep {
        step_ms: ms_per_step,
        call_ms: call.as_secs_f64() * 1e3,
        engine_ms,
        steps,
        envelopes: report.pe_messages.iter().sum(),
        cross_msgs: report.network.cross_messages,
        cross_bytes: report.network.cross_bytes,
        busy_ms: report.pe_busy.iter().map(|d| d.as_millis_f64()).sum(),
        pes: report.pe_busy.len(),
        max_queue_depth: report.pe_max_queue_depth.iter().copied().max().unwrap_or(0),
        failure,
        sim: None,
        overlap,
        frames: report.obs.as_ref().map_or((0, 0), |o| {
            let c = o.merged_counters();
            (c.get(Ctr::FramesSent), c.get(Ctr::FlushByDeadline))
        }),
        ..Rep::default()
    }
}

fn failed(steps: u32, call: Duration, why: String) -> Rep {
    Rep {
        step_ms: f64::NAN,
        call_ms: call.as_secs_f64() * 1e3,
        engine_ms: f64::NAN,
        steps,
        failure: Some(why),
        ..Rep::default()
    }
}

/// What the apps' outcomes have in common: ms per step, the engine's own
/// run time in ms, and its report.
type Outcome = (f64, f64, RunReport);

/// The repetition an engine run (or the failure to complete one) amounts to.
fn finish(steps: u32, started: Instant, out: Result<Outcome, String>) -> Rep {
    match out {
        Ok((ms_per_step, engine_ms, report)) => rep_from(steps, ms_per_step, engine_ms, started.elapsed(), &report),
        Err(why) => failed(steps, started.elapsed(), why),
    }
}

/// The LeanMD job of `leanmd_tcp`, which is also `sim_sweep`'s second half.
fn paper_leanmd(steps: u32, seed: u64) -> MdConfig {
    MdConfig { seed, ..MdConfig::paper(steps) }
}

pub(crate) fn sim_net(topo: Topology, wan: Dur, seed: u64) -> NetworkModel {
    let lat = LatencyMatrix::uniform(&topo, DEFAULT_INTRA_LATENCY, wan);
    let contention = WanContention::disabled(&topo);
    NetworkModel::new(topo, lat, contention, seed)
}

/// Steps of the stencil half of a `sim_sweep` repetition.
const SIM_STENCIL_STEPS: u32 = 10;
/// Steps of the LeanMD half of a `sim_sweep` repetition.
const SIM_LEANMD_STEPS: u32 = 1;

fn sim_sweep(wan: bool, seed: u64, tweak: Tweak) -> Rep {
    let steps = SIM_STENCIL_STEPS + SIM_LEANMD_STEPS;
    let (wan_stencil, wan_md) = if wan { (Dur::from_millis(8), Dur::from_millis(16)) } else { (Dur::ZERO, Dur::ZERO) };
    let t0 = Instant::now();
    let st = stencil::run_sim(
        StencilConfig::paper(1024, SIM_STENCIL_STEPS),
        sim_net(Topology::uniform(2, 32), wan_stencil, seed),
        run_cfg(seed, tweak),
    );
    let t1 = Instant::now();
    let md = leanmd::run_sim(
        paper_leanmd(SIM_LEANMD_STEPS, seed),
        sim_net(Topology::uniform(2, 16), wan_md, seed),
        run_cfg(seed, tweak),
    );
    let t2 = Instant::now();
    let call = t2 - t0;
    let mut rep = rep_from(steps, call.as_secs_f64() * 1e3 / steps as f64, 0.0, call, &st.report);
    let md_rep = rep_from(SIM_LEANMD_STEPS, 0.0, 0.0, t2 - t1, &md.report);
    let (st_env, md_env) = (rep.envelopes, md_rep.envelopes);
    rep.engine_ms = st.total.as_millis_f64() + md.total.as_millis_f64();
    rep.envelopes += md_rep.envelopes;
    rep.cross_msgs += md_rep.cross_msgs;
    rep.cross_bytes += md_rep.cross_bytes;
    rep.busy_ms += md_rep.busy_ms;
    rep.max_queue_depth = rep.max_queue_depth.max(md_rep.max_queue_depth);
    rep.failure = rep.failure.or(md_rep.failure);
    // The stencil half carries the obs reading: its overlap is the paper's
    // Fig. 3 quantity.
    rep.sim = Some(SimHalves {
        stencil_virt_step_ms: st.ms_per_step,
        leanmd_virt_step_ms: md.ms_per_step,
        stencil_wall_us_per_env: (t1 - t0).as_secs_f64() * 1e6 / st_env.max(1) as f64,
        leanmd_wall_us_per_env: (t2 - t1).as_secs_f64() * 1e6 / md_env.max(1) as f64,
    });
    rep
}

/// Run one repetition of `w`: at the workload's wide-area latency when
/// `wan`, else with none injected.  `steps` overrides the shape's step
/// count (warm-ups and `--quick`); `sim_sweep` ignores it.
pub fn run_rep(w: Workload, wan: bool, steps: u32, seed: u64, tweak: Tweak) -> Rep {
    let shape = w.shape();
    let wan = if wan { shape.wan } else { Dur::ZERO };
    let cfg = run_cfg(seed, tweak);
    let t0 = Instant::now();
    let stencil_outcome = |out: stencil::StencilOutcome| (out.ms_per_step, out.total.as_millis_f64(), out.report);
    match w {
        Workload::StencilMask => {
            let topo = Topology::uniform(2, 4);
            let tcfg = threaded_cfg(&topo, wan).with_compute_sleep();
            let out = stencil::run_threaded_with(StencilConfig::paper(256, steps), topo, tcfg, cfg);
            finish(steps, t0, Ok(stencil_outcome(out)))
        }
        Workload::StencilCrossTcp => {
            let topo = Topology::uniform(2, 1);
            let mapping = if tweak.block { Mapping::Block } else { Mapping::RoundRobin };
            let job = |cfg: RunConfig| {
                let job = StencilConfig { mapping: mapping.clone(), ..StencilConfig::paper(1024, steps) };
                stencil_outcome(stencil::run_threaded_with(job, topo.clone(), threaded_cfg(&topo, wan), cfg))
            };
            finish(steps, t0, if tweak.in_process { Ok(job(cfg)) } else { over_tcp(&topo, &cfg, job) })
        }
        Workload::LeanmdTcp => {
            let topo = Topology::uniform(2, 1);
            let job = |cfg: RunConfig| {
                let out =
                    leanmd::run_threaded_with(paper_leanmd(steps, seed), topo.clone(), threaded_cfg(&topo, wan), cfg);
                (out.ms_per_step, out.total.as_millis_f64(), out.report)
            };
            finish(steps, t0, if tweak.in_process { Ok(job(cfg)) } else { over_tcp(&topo, &cfg, job) })
        }
        Workload::SimSweep => sim_sweep(wan > Dur::ZERO, seed, tweak),
    }
}
