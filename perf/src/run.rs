//! One benchmark run: set-up, then either the timed pass (end-to-end
//! metrics, `--trace 0`) or the traced pass (per-layer metrics,
//! `--trace 1`).
//!
//! Both passes are a closed loop with one job at a time.  End-to-end
//! metrics come only from the timed pass, which runs the program as a
//! user would; the traced pass wraps every call in a span, arms the
//! allocation counter and `RunConfig::obs`, and is not comparable with it.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::host;
use crate::jobs::{run_rep, Rep, Tweak, Workload};
use crate::oracle;
use crate::probes;
use crate::record::{Metrics, RepRow, RunRecord};
use crate::spans::SpanLog;
use crate::stats::{median, Summary};

/// Set-up rounds of the timed pass, spread evenly over it; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// How long one set-up round warms up for.
const WARMUP: Duration = Duration::from_secs(1);
/// Timed WAN+LAN pairs the timed pass makes at the very least; the
/// repetitions are sized so that `run_seconds` holds more (see README).
const MIN_PAIRS: usize = 12;
/// The traced pass is shorter: pairs of the traced workload it makes at the
/// very least after the probes and the reference strip.
const TRACED_MIN_PAIRS: usize = 3;
/// Repetitions of the Block-mapped aggregated stencil behind
/// `vmi.aggregate.slow_rep_share_block`.
const BLOCK_REPS: usize = 8;
/// Steps of one of them: the slow mode takes a dozen steps to set in, so
/// these are longer than the workloads' own repetitions.
const BLOCK_STEPS: u32 = 24;
/// Share of processor time stolen by the hypervisor above which the run
/// warns (2 % is four clock ticks a second on two processors; an idle host
/// shows none).  Stolen time is reported and recorded, never corrected for.
const STEAL_WARNING: f64 = 0.02;

/// Command-line arguments of `perf run`.
#[derive(Clone, Debug)]
pub struct Args {
    /// `--workload`.
    pub workload: Workload,
    /// `--seed`: seeds the runtime (`RunConfig::seed`), LeanMD's initial
    /// conditions and the probes' payload bytes.
    pub seed: u64,
    /// `--seconds`: how long the timed repetitions go on (the pipeline
    /// passes `BENCHMARK.json`'s `run_seconds`, which is also the default);
    /// the traced pass counts its set-up, probes and reference strip in it.
    pub seconds: u64,
    /// `--trace 1` selects the traced pass.
    pub trace: bool,
    /// `--out`: append the run's record to this file.
    pub out: Option<PathBuf>,
    /// `--quick`: a smoke run with short repetitions and tiny probe loops.
    pub quick: bool,
}

/// State of one pass: the host as the pass found it and the tally of
/// repetitions.
struct Measuring {
    nproc: usize,
    load_at_start: f64,
    ticks_at_start: host::Ticks,
    attempted: usize,
    failed: usize,
}

impl Measuring {
    fn begin() -> Self {
        Measuring {
            nproc: host::nproc(),
            load_at_start: host::loadavg_1m(),
            ticks_at_start: host::Ticks::now(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Warn, before the first timed repetition, of the two things that
    /// make timings on this host meaningless: other work in the guest, and
    /// a hypervisor that gave the set-up less than the processors it asked for.
    fn warn_if_busy(&self) {
        let load = host::loadavg_1m();
        if load > self.nproc as f64 / 2.0 {
            eprintln!("perf: host busy: 1-minute load {load:.2} exceeds nproc/2 = {:.1}", self.nproc as f64 / 2.0);
        }
        let stolen = host::Ticks::now().since(self.ticks_at_start).steal_share();
        if stolen > STEAL_WARNING {
            eprintln!("perf: host busy: the hypervisor stole {:.1} % of processor time during set-up", stolen * 100.0);
        }
    }

    /// The pass's record.
    fn record(
        self,
        a: &Args,
        setup_rounds: usize,
        oracle_ok: bool,
        reps: (&[Rep], &[Rep]),
        metrics: Metrics,
        info: Metrics,
    ) -> RunRecord {
        RunRecord {
            workload: a.workload.name().to_string(),
            trace: u8::from(a.trace),
            seed: a.seed,
            run_seconds: a.seconds,
            quick: a.quick,
            nproc: self.nproc,
            loadavg: (self.load_at_start, host::loadavg_1m()),
            steal_share: host::Ticks::now().since(self.ticks_at_start).steal_share(),
            wan_reps: rep_rows(reps.0),
            lan_reps: rep_rows(reps.1),
            setup_rounds,
            correct: oracle_ok && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            info,
        }
    }
}

/// Check a full-length repetition against the workload's expected counts:
/// cross-cluster packets and bytes exactly, envelopes to within one per PE
/// (each PE races its final `Exit` envelope against the stop flag).
fn count_mismatch(w: Workload, rep: &Rep) -> Option<String> {
    let shape = w.shape();
    if rep.steps != shape.steps {
        return None;
    }
    let slack = if w == Workload::SimSweep { 0 } else { rep.pes as u64 };
    if rep.envelopes.abs_diff(shape.envelopes) > slack {
        return Some(format!("{} envelopes, expected {} (±{slack})", rep.envelopes, shape.envelopes));
    }
    if (rep.cross_msgs, rep.cross_bytes) != (shape.cross_msgs, shape.cross_bytes) {
        return Some(format!(
            "{} cross-cluster messages / {} bytes, expected {} / {}",
            rep.cross_msgs, rep.cross_bytes, shape.cross_msgs, shape.cross_bytes
        ));
    }
    None
}

/// Run one counted repetition; a failed one is reported and tallied.
fn attempt(m: &mut Measuring, log: &mut SpanLog, w: Workload, wan: bool, steps: u32, seed: u64) -> Option<Rep> {
    m.attempted += 1;
    let mut rep = log.rep_span(if wan { "rep.wan" } else { "rep.lan" }, |_| {
        let t0 = host::Ticks::now();
        let mut rep = run_rep(w, wan, steps, seed, Tweak::NONE);
        rep.steal = host::Ticks::now().since(t0).steal_share();
        rep
    });
    if rep.failure.is_none() {
        rep.failure = count_mismatch(w, &rep);
    }
    match &rep.failure {
        Some(why) => {
            m.failed += 1;
            eprintln!("perf: {} {} repetition failed: {why}", w.name(), if wan { "WAN" } else { "LAN" });
            None
        }
        None => Some(rep),
    }
}

/// One set-up round: the oracle, then untimed short repetitions, WAN and
/// LAN in turn, for `WARMUP` (`quick`: one of each).  Warming up takes time
/// rather than work — caches, allocator arenas, the kernel's socket buffers —
/// and a round that ran a fixed count of CPU-bound repetitions would make
/// `setup_s` follow the host's state as the step times do.  Returns the
/// oracle's verdict and a short WAN repetition, whose counts the per-step
/// differencing needs.
fn setup_round(log: &mut SpanLog, w: Workload, seed: u64, quick: bool) -> (Result<(), String>, Rep) {
    let short = w.shape().short_steps;
    let verdict = log.span("setup.oracle", |_| oracle::check(w, seed));
    let started = Instant::now();
    loop {
        let wan = log.span("setup.warmup.wan", |_| run_rep(w, true, short, seed, Tweak::NONE));
        if !quick && started.elapsed() >= WARMUP {
            return (verdict, wan);
        }
        log.span("setup.warmup.lan", |_| run_rep(w, false, short, seed, Tweak::NONE));
        if quick || started.elapsed() >= WARMUP {
            return (verdict, wan);
        }
    }
}

/// Engine-reported ms/step of every repetition, as measured.
fn step_ms(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.step_ms).collect()
}

fn rep_rows(reps: &[Rep]) -> Vec<RepRow> {
    reps.iter().map(|r| RepRow { step_ms: r.step_ms, steal: r.steal }).collect()
}

/// WAN+LAN pairs, alternating, appended to `wan` and `lan` until `budget`
/// seconds from now are used up and at least `min_pairs` were made.
fn timed_pairs(
    log: &mut SpanLog,
    m: &mut Measuring,
    a: &Args,
    steps: u32,
    budget: f64,
    min_pairs: usize,
    (wan, lan): (&mut Vec<Rep>, &mut Vec<Rep>),
) {
    let mut pairs = 0usize;
    let started = Instant::now();
    loop {
        wan.extend(attempt(m, log, a.workload, true, steps, a.seed));
        lan.extend(attempt(m, log, a.workload, false, steps, a.seed));
        pairs += 1;
        let elapsed = started.elapsed().as_secs_f64();
        let out_of_time = elapsed + elapsed / pairs as f64 > budget;
        if pairs >= min_pairs && (a.quick || out_of_time) {
            return;
        }
    }
}

/// How far the step time depends on the injected latency: per WAN+LAN pair
/// the slower of the two over the faster, oriented by the run's medians so
/// that scatter does not bias it (1.0 = the job runs the same with and
/// without the latency).  The two repetitions of a pair are seconds apart
/// and run the same code, so the host's state cancels.
fn wan_lan_skew(wan: &[Rep], lan: &[Rep]) -> Summary {
    let wan_slower = median(&step_ms(wan)) >= median(&step_ms(lan));
    let ratios: Vec<f64> = wan
        .iter()
        .zip(lan)
        .map(|(w, l)| if wan_slower { w.step_ms / l.step_ms } else { l.step_ms / w.step_ms })
        .collect();
    Summary::of(&ratios)
}

/// The timed pass: `SETUP_ROUNDS` legs, each a set-up round followed by an
/// equal share of `--seconds` of alternating WAN and LAN repetitions; every
/// value is a median over the run.  The rounds are spread over the run so
/// that a few seconds of stolen processor time (common right after process
/// start) lengthen one round and not the median of the three.
fn timed_pass(a: &Args, log: &mut SpanLog) -> RunRecord {
    let mut m = Measuring::begin();
    let mut correct = true;
    let legs = if a.quick { 1 } else { SETUP_ROUNDS };
    let shape = a.workload.shape();
    let steps = if a.quick { shape.short_steps } else { shape.steps };
    let min_pairs = if a.quick { 2 } else { MIN_PAIRS.div_ceil(legs) };
    let (mut wan, mut lan, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut short_rep = None;
    for leg in 0..legs {
        let t0 = Instant::now();
        let (verdict, short) = log.span("setup", |log| setup_round(log, a.workload, a.seed, a.quick));
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Err(why) = verdict {
            eprintln!("perf: oracle mismatch: {why}");
            correct = false;
        }
        short_rep = Some(short);
        if leg == 0 {
            m.warn_if_busy();
        }
        timed_pairs(log, &mut m, a, steps, a.seconds as f64 / legs as f64, min_pairs, (&mut wan, &mut lan));
    }

    let mut metrics = Metrics::default();
    metrics.put("wan_lan_skew", "ratio", wan_lan_skew(&wan, &lan));
    let kib = match (wan.first(), &short_rep) {
        (Some(full), Some(short)) => per_step(full, short, |r| r.cross_bytes) / 1024.0,
        _ => f64::NAN,
    };
    metrics.put("wan_kib_per_step", "KiB", Summary::single(kib));
    metrics.put("peak_rss_mib", "MiB", Summary::single(host::peak_rss_mib()));
    metrics.put("setup_s", "s", Summary::of(&setup_s));
    // The wall-clock step times follow the host's state as much as the
    // program (see README): printed and recorded with every run, not gated.
    let mut info = Metrics::default();
    info.put("step_ms", "ms", Summary::of(&step_ms(&wan)));
    info.put("step_ms_lan", "ms", Summary::of(&step_ms(&lan)));
    m.record(a, legs, correct, (&wan, &lan), metrics, info)
}

/// Steady-state count per step by differencing a full-length and a short
/// repetition of the same job: launch, teardown and the Exit race cancel.
/// `sim_sweep` has one length, so its count is the total over its steps.
fn per_step(full: &Rep, short: &Rep, f: impl Fn(&Rep) -> u64) -> f64 {
    if full.steps > short.steps {
        ((f(full) as f64 - f(short) as f64) / (full.steps - short.steps) as f64).round()
    } else {
        f(full) as f64 / full.steps as f64
    }
}

/// The reference strip: one repetition of each job variant a per-layer
/// metric is defined on, whichever workload is being traced, so a metric
/// means the same thing in all four traces.
fn reference_strip(log: &mut SpanLog, m: &mut Metrics, a: &Args) {
    let seed = a.seed;
    let steps = |w: Workload| if a.quick { w.shape().short_steps } else { w.shape().steps };
    let strip = |log: &mut SpanLog, name: &str, w: Workload, wan: bool, steps: u32, tweak: Tweak| -> Rep {
        let rep = log.rep_span(name, |_| run_rep(w, wan, steps, seed, tweak));
        if let Some(why) = &rep.failure {
            eprintln!("perf: reference repetition {name} failed: {why}");
        }
        rep
    };
    let obs = Tweak { obs: true, ..Tweak::NONE };

    // stencil_mask: the threaded engine, the delay on the critical path, obs.
    let w = Workload::StencilMask;
    let (mask_wan, allocs) = alloc::count(|| strip(log, "strip.stencil_mask.wan", w, true, steps(w), Tweak::NONE));
    let mask_lan = strip(log, "strip.stencil_mask.lan", w, false, steps(w), Tweak::NONE);
    let mask_obs = strip(log, "strip.stencil_mask.wan.obs", w, true, steps(w), obs);
    let one = Summary::single;
    m.put("apps.stencil.wan_penalty_ms", "ms", one(mask_wan.step_ms - mask_lan.step_ms));
    m.put("core.engine.threaded.critical_path_ms", "ms", one(mask_wan.step_ms - w.shape().wan.as_millis_f64()));
    let pe_ms = mask_wan.pes as f64 * mask_wan.engine_ms;
    m.put("core.engine.threaded.utilization", "ratio", one(mask_wan.busy_ms / pe_ms));
    m.put(
        "core.engine.threaded.idle_ms_per_step",
        "ms",
        one((pe_ms - mask_wan.busy_ms) / mask_wan.pes as f64 / mask_wan.steps as f64),
    );
    m.put("core.engine.threaded.launch_ms", "ms", one(mask_wan.call_ms - mask_wan.engine_ms));
    m.put("core.engine.threaded.allocs_per_env", "1/env", one(allocs as f64 / mask_wan.envelopes as f64));
    let overlap = mask_obs.overlap.expect("the in-process threaded engine honours RunConfig::obs");
    m.put("obs.overlap_fraction", "ratio", one(overlap.fraction));
    m.put("obs.wan_exposed_ms_per_step", "ms", one(overlap.exposed_ms_per_step));
    m.put("obs.wan_masked_ms_per_step", "ms", one(overlap.masked_ms_per_step));
    m.put("obs.overhead_ratio", "ratio", one(mask_obs.step_ms / mask_wan.step_ms));

    // stencil_cross_tcp: the net-mode engine per envelope, and what the
    // aggregator would buy and cost were it the default.
    let w = Workload::StencilCrossTcp;
    let cross = strip(log, "strip.stencil_cross_tcp.wan", w, true, steps(w), Tweak::NONE);
    let cross_agg =
        strip(log, "strip.stencil_cross_tcp.wan.agg", w, true, steps(w), Tweak { agg: true, ..Tweak::NONE });
    m.put("core.engine.net.us_per_env", "us", one(cross.engine_ms * 1e3 / cross.envelopes as f64));
    m.put("core.engine.net.launch_ms", "ms", one(cross.call_ms - cross.engine_ms));
    m.put("vmi.aggregate.step_ratio", "ratio", one(cross_agg.step_ms / cross.step_ms));
    m.put("vmi.aggregate.envelopes_per_frame", "ratio", one(cross.cross_msgs as f64 / cross_agg.cross_msgs as f64));
    let in_agg = Tweak { agg: true, in_process: true, ..Tweak::NONE };
    let short = w.shape().short_steps;
    let counted = strip(log, "strip.stencil_cross.inproc.agg.obs", w, true, short, Tweak { obs: true, ..in_agg });
    m.put("vmi.aggregate.flush_by_deadline_share", "ratio", one(counted.frames.1 as f64 / counted.frames.0 as f64));
    let (block_reps, block_steps) = if a.quick { (3, short) } else { (BLOCK_REPS, BLOCK_STEPS) };
    let block: Vec<f64> = (0..block_reps)
        .map(|_| {
            let tweak = Tweak { block: true, ..in_agg };
            strip(log, "strip.stencil_cross.inproc.agg.block", w, true, block_steps, tweak).step_ms
        })
        .collect();
    let fastest = block.iter().copied().fold(f64::INFINITY, f64::min);
    let slow = block.iter().filter(|&&ms| ms > 2.0 * fastest).count();
    m.put("vmi.aggregate.slow_rep_share_block", "ratio", one(slow as f64 / block.len() as f64));
    println!("block-mapped aggregated stencil, ms/step per repetition: {block:.1?} (fastest {fastest:.1})");

    // leanmd_tcp: the same job in-process against over TCP.  The ratio of
    // two single repetitions wanders by a quarter; three of each, taken
    // alternately, settle it.
    let w = Workload::LeanmdTcp;
    let (mut md_tcp, mut md_in) = (Vec::new(), Vec::new());
    for _ in 0..if a.quick { 1 } else { 3 } {
        md_tcp.push(strip(log, "strip.leanmd_tcp.wan", w, true, steps(w), Tweak::NONE).step_ms);
        md_in.push(
            strip(log, "strip.leanmd.inproc.wan", w, true, steps(w), Tweak { in_process: true, ..Tweak::NONE }).step_ms,
        );
    }
    m.put("core.engine.threaded.inproc_step_ratio", "ratio", one(median(&md_in) / median(&md_tcp)));

    // sim_sweep: the simulated result and the simulator's cost per envelope.
    let sim = strip(log, "strip.sim_sweep.wan", Workload::SimSweep, true, 0, Tweak::NONE);
    let halves = sim.sim.expect("a sim_sweep repetition reports its halves");
    m.put("core.engine.sim.virt_step_ms.stencil", "ms", one(halves.stencil_virt_step_ms));
    m.put("core.engine.sim.virt_step_ms.leanmd", "ms", one(halves.leanmd_virt_step_ms));
    m.put("core.engine.sim.wall_us_per_env.stencil", "us", one(halves.stencil_wall_us_per_env));
    m.put("core.engine.sim.wall_us_per_env.leanmd", "us", one(halves.leanmd_wall_us_per_env));
}

/// The traced pass: one set-up round, the layer probes, the reference
/// strip, then WAN+LAN pairs of the selected workload for what is left of
/// `--seconds`.
fn traced_pass(a: &Args, log: &mut SpanLog) -> RunRecord {
    let mut m = Measuring::begin();
    let started = Instant::now();
    let mut metrics = Metrics::default();
    let (verdict, short_rep) = log.span("setup", |log| setup_round(log, a.workload, a.seed, a.quick));
    if let Err(why) = &verdict {
        eprintln!("perf: oracle mismatch: {why}");
    }
    m.warn_if_busy();
    log.span("probes", |log| probes::run_all(log, &mut metrics, a.seed, probes::Scale::new(a.quick)));
    log.span("strip", |log| reference_strip(log, &mut metrics, a));

    let shape = a.workload.shape();
    let steps = if a.quick { shape.short_steps } else { shape.steps };
    let cpu0 = host::cpu_ms();
    let min_pairs = if a.quick { 2 } else { TRACED_MIN_PAIRS };
    let (mut wan, mut lan) = (Vec::new(), Vec::new());
    let budget = a.seconds as f64 - started.elapsed().as_secs_f64();
    log.span("selected", |log| timed_pairs(log, &mut m, a, steps, budget, min_pairs, (&mut wan, &mut lan)));
    let cpu_ms = host::cpu_ms() - cpu0;
    let total_steps: u32 = wan.iter().chain(&lan).map(|r| r.steps).sum();

    let wan_ms = Summary::of(&step_ms(&wan));
    metrics.put("step_ms", "ms", wan_ms);
    metrics.put("step_ms_lan", "ms", Summary::of(&step_ms(&lan)));
    let handler_ms: Vec<f64> = wan.iter().map(|r| r.busy_ms / r.pes as f64 / r.steps as f64).collect();
    metrics.put("apps.handler_ms_per_step", "ms", Summary::of(&handler_ms));
    metrics.put("apps.step_ms_spread", "ratio", Summary { median: wan_ms.q3 / wan_ms.q1, ..wan_ms });
    let depth = wan.iter().chain(&lan).map(|r| r.max_queue_depth).max().unwrap_or(0);
    metrics.put("core.queue.max_depth", "count", Summary::single(depth as f64));
    if let Some(full) = wan.first() {
        // `--quick` repetitions are as short as the warm-up: no difference to take.
        let base = if full.steps > short_rep.steps { &short_rep } else { full };
        metrics.put("core.node.envelopes_per_step", "count", Summary::single(per_step(full, base, |r| r.envelopes)));
        metrics.put(
            "vmi.transport.wan_msgs_per_step",
            "count",
            Summary::single(per_step(full, base, |r| r.cross_msgs)),
        );
        metrics.put("vmi.transport.wan_bytes_per_step", "B", Summary::single(per_step(full, base, |r| r.cross_bytes)));
    }
    metrics.put("host.cpu_ms_per_step", "ms", Summary::single(cpu_ms / total_steps.max(1) as f64));
    metrics.put("host.loadavg_1m", "load", Summary::single(host::loadavg_1m()));

    m.record(a, 1, verdict.is_ok(), (&wan, &lan), metrics, Metrics::default())
}

/// Run one pass and return its record.
pub fn run(a: &Args) -> RunRecord {
    let mut log = SpanLog::new();
    println!(
        "perf: workload {} seed {} seconds {} trace {}{} | nproc {} | closed loop, one job at a time | \
         loopback is this host's 127.0.0.1, not a real link",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        if a.quick { " quick" } else { "" },
        host::nproc()
    );
    let record = log.span("run", |log| if a.trace { traced_pass(a, log) } else { timed_pass(a, log) });
    if a.trace {
        println!("{:<44} {:>12} {:>12} {:>6}", "span", "total ms", "self ms", "count");
        for (name, total, own, n) in log.by_name() {
            println!("{name:<44} {total:>12.2} {own:>12.2} {n:>6}");
        }
        // `cargo run` exports the package directory; a bare binary is
        // expected to run from the repository root.
        let dir = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| "perf".into())).join("out");
        let path = dir.join(format!("{}.trace.json", a.workload.name()));
        let doc = log.chrome_trace(&format!("perf run --workload {} --trace 1", a.workload.name()));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, doc)) {
            Ok(()) => println!(
                "trace: {} ({} spans; open in chrome://tracing or ui.perfetto.dev)",
                path.display(),
                log.spans().len()
            ),
            Err(e) => eprintln!("perf: could not write {}: {e}", path.display()),
        }
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reps(step_ms: &[f64]) -> Vec<Rep> {
        step_ms.iter().map(|&step_ms| Rep { step_ms, ..Rep::default() }).collect()
    }

    #[test]
    fn skew_is_the_slower_side_over_the_faster_whichever_that_is() {
        let (slow, fast) = (reps(&[30.0, 33.0, 36.0]), reps(&[20.0, 30.0, 24.0]));
        // Pairs 1.5, 1.1, 1.5 either way round: the orientation is the medians', not each pair's.
        assert_eq!(wan_lan_skew(&slow, &fast).median, 1.5);
        assert_eq!(wan_lan_skew(&fast, &slow).median, 1.5);
        let s = wan_lan_skew(&reps(&[10.0, 12.0, 10.0]), &reps(&[10.0, 10.0, 12.5]));
        assert_eq!((s.median, s.n), (1.0, 3), "a scattered pair may fall below 1; the median does not drift up");
        assert_eq!(s.q1, 0.8);
    }
}
