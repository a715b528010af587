//! `mdo_launch` — run a job as one OS process per node on localhost and
//! check it bit-exact against the simulation engine.
//!
//! The same binary is both the **parent** (launcher) and the **children**
//! (node processes): [`launch`] re-execs `current_exe()` with the node
//! id and rendezvous manifest in the environment, and a
//! child detects that via [`NetConfig::from_env`].  The parent first
//! computes two reference digests — the virtual-time `SimEngine` and the
//! single-process `ThreadedEngine` — then launches the fleet and
//! compares node 0's printed digest against both.  Any difference is a
//! determinism bug, and the exit code says so.
//!
//! ```text
//! mdo_launch [--app stencil|leanmd] [--nodes N] [--pes-per-node M]
//!            [--steps S] [--no-agg] [--no-flow]
//!            [--kill-node I --kill-after-ms T] [--log-dir DIR]
//! ```
//!
//! Exit codes: 0 success (digests bit-identical, or the armed kill
//! surfaced as a structured `NodeExited`), 1 launch/run failure or a
//! command line it does not understand (nothing is launched),
//! 2 digest mismatch.  Per-node stdout/stderr land under `--log-dir`
//! (default `results/launch_logs`) for CI artifact upload.

use mdo_apps::leanmd::{self, MdConfig};
use mdo_apps::stencil::{self, StencilConfig, StencilCost};
use mdo_bench::{arg_flag, arg_value};
use mdo_core::prelude::Mapping;
use mdo_core::program::RunConfig;
use mdo_core::ThreadedConfig;
use mdo_net::{launch, KillPlan, LaunchSpec, NetConfig};
use mdo_netsim::bandwidth::WanContention;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{AggConfig, Dur, FlowConfig, LatencyMatrix, Topology};
use std::time::Duration;

const USAGE: &str = "usage: mdo_launch [--app stencil|leanmd] [--nodes N] [--pes-per-node M] [--steps S] \
                     [--no-agg] [--no-flow] [--kill-node I --kill-after-ms T] [--log-dir DIR]";
/// Every flag there is: those followed by a value, and those that stand alone.
const VALUE_FLAGS: [&str; 7] =
    ["--app", "--nodes", "--pes-per-node", "--steps", "--kill-node", "--kill-after-ms", "--log-dir"];
const SWITCHES: [&str; 2] = ["--no-agg", "--no-flow"];

/// The value of `flag` parsed as a `T`, `None` when the flag is absent.  A
/// value that does not parse is an error, never the default: a run that
/// ignores what it was asked checks nothing.
fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    arg_value(args, flag).map(|v| v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))).transpose()
}

struct Job {
    app: String,
    nodes: usize,
    ppn: u32,
    steps: u32,
    agg: bool,
    flow: bool,
    kill: Option<KillPlan>,
    log_dir: String,
}

impl Job {
    /// Strict: an argument that is no flag of ours, a flag without its
    /// value and a value that does not parse are each an error.  Parent and
    /// children run this on the same argv, so only a parent ever rejects.
    fn from_args(args: &[String]) -> Result<Job, String> {
        let mut rest = args.iter().skip(1);
        while let Some(arg) = rest.next() {
            if VALUE_FLAGS.contains(&arg.as_str()) {
                rest.next().ok_or_else(|| format!("{arg} needs a value"))?;
            } else if !SWITCHES.contains(&arg.as_str()) {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        let kill_after = Duration::from_millis(parsed(args, "--kill-after-ms")?.unwrap_or(250));
        Ok(Job {
            app: arg_value(args, "--app").unwrap_or_else(|| "stencil".into()),
            nodes: parsed(args, "--nodes")?.unwrap_or(4),
            ppn: parsed(args, "--pes-per-node")?.unwrap_or(2),
            steps: parsed(args, "--steps")?.unwrap_or(5),
            agg: !arg_flag(args, "--no-agg"),
            flow: !arg_flag(args, "--no-flow"),
            kill: parsed(args, "--kill-node")?.map(|node| KillPlan { node, after: kill_after }),
            log_dir: arg_value(args, "--log-dir").unwrap_or_else(|| "results/launch_logs".into()),
        })
    }

    fn topology(&self) -> Topology {
        Topology::uniform(self.nodes as u16, self.ppn)
    }

    fn latency(&self, topo: &Topology) -> LatencyMatrix {
        LatencyMatrix::uniform(topo, Dur::ZERO, Dur::from_micros(300))
    }

    fn run_cfg(&self) -> RunConfig {
        RunConfig {
            agg: self.agg.then(AggConfig::default),
            flow: self.flow.then(FlowConfig::default),
            ..RunConfig::default()
        }
    }

    fn stencil_cfg(&self) -> StencilConfig {
        StencilConfig {
            mesh: 32,
            objects: 16,
            steps: self.steps,
            compute: true,
            cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
            mapping: Mapping::Block,
            lb_period: None,
        }
    }

    fn md_cfg(&self) -> MdConfig {
        MdConfig::validation(3, 4, self.steps.max(2))
    }
}

/// Render a digest as exact bit patterns — any formatting rounding would
/// defeat the point of a bit-exactness oracle.
fn digest(values: &[f64]) -> String {
    values.iter().map(|v| format!("{:016x}", v.to_bits())).collect::<Vec<_>>().join(",")
}

/// The child path: run this node's share of the job over the real
/// transport.  Node 0 prints the merged digest; everyone prints a
/// per-node summary to stderr for the launcher logs.
fn run_child(job: &Job, net: NetConfig) -> i32 {
    let topo = job.topology();
    let latency = job.latency(&topo);
    let node = net.node;
    let mut run_cfg = job.run_cfg();
    run_cfg.net = Some(net);
    let tcfg = ThreadedConfig::new(latency);
    match job.app.as_str() {
        "stencil" => {
            let out = stencil::run_threaded_with(job.stencil_cfg(), topo, tcfg, run_cfg);
            if let Some(err) = &out.report.unrecoverable {
                eprintln!("node {node}: unrecoverable: {err}");
                return 1;
            }
            if node == 0 {
                println!("DIGEST {}", digest(&out.block_sums));
                println!("REPORT cross={} recoveries={}", out.report.network.cross_messages, out.report.recoveries);
            }
            eprintln!("node {node}: stencil done, {} steps", job.steps);
            0
        }
        "leanmd" => {
            let out = leanmd::run_threaded_with(job.md_cfg(), topo, tcfg, run_cfg);
            if let Some(err) = &out.report.unrecoverable {
                eprintln!("node {node}: unrecoverable: {err}");
                return 1;
            }
            if node == 0 {
                let mut all = out.checksums.clone();
                all.push(out.kinetic);
                println!("DIGEST {}", digest(&all));
                println!("REPORT cross={} recoveries={}", out.report.network.cross_messages, out.report.recoveries);
            }
            eprintln!("node {node}: leanmd done, {} steps", job.md_cfg().steps);
            0
        }
        other => {
            eprintln!("node {node}: unknown app {other:?}");
            2
        }
    }
}

/// Reference digests from the two in-process engines.
fn reference_digests(job: &Job) -> (String, String) {
    let topo = job.topology();
    let latency = job.latency(&topo);
    let run_cfg = job.run_cfg();
    let net = NetworkModel::new(topo.clone(), latency.clone(), WanContention::disabled(&topo), 0);
    match job.app.as_str() {
        "stencil" => {
            let sim = stencil::run_sim(job.stencil_cfg(), net, run_cfg.clone());
            let single = stencil::run_threaded(job.stencil_cfg(), topo, latency, run_cfg);
            (digest(&sim.block_sums), digest(&single.block_sums))
        }
        "leanmd" => {
            let sim = leanmd::run_sim(job.md_cfg(), net, run_cfg.clone());
            let single = leanmd::run_threaded(job.md_cfg(), topo, latency, run_cfg);
            let collect = |o: &leanmd::MdOutcome| {
                let mut all = o.checksums.clone();
                all.push(o.kinetic);
                digest(&all)
            };
            (collect(&sim), collect(&single))
        }
        other => {
            eprintln!("unknown app {other:?} (expected stencil or leanmd)");
            std::process::exit(1);
        }
    }
}

fn write_logs(dir: &str, outcome: &mdo_net::LaunchOutcome) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    for n in &outcome.nodes {
        let _ = std::fs::write(format!("{dir}/node{}.stdout.log", n.node), &n.stdout);
        let _ = std::fs::write(format!("{dir}/node{}.stderr.log", n.node), &n.stderr);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let job = Job::from_args(&args).unwrap_or_else(|e| {
        eprintln!("mdo_launch: {e}\n{USAGE}");
        std::process::exit(1);
    });

    // Child mode: the launcher put our node id and the manifest in the
    // environment.
    match NetConfig::from_env() {
        Ok(Some(net)) => std::process::exit(run_child(&job, net)),
        Ok(None) => {}
        Err(e) => {
            eprintln!("bad node environment: {e}");
            std::process::exit(1);
        }
    }

    // Parent mode.
    println!(
        "== mdo_launch: {} on {} nodes x {} PEs (agg={}, flow={}) ==",
        job.app, job.nodes, job.ppn, job.agg, job.flow
    );

    let exe = std::env::current_exe().expect("current_exe");
    let child_args: Vec<String> = args.iter().skip(1).cloned().collect();
    let mut spec = LaunchSpec::new(exe, child_args, job.nodes);
    spec.kill = job.kill;

    let outcome = match launch(&spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("launch failed: {e}");
            std::process::exit(1);
        }
    };
    let log_dir = &job.log_dir;
    write_logs(log_dir, &outcome);

    if let Some(kill) = spec.kill {
        // A deliberate kill -9: success means the fleet came down
        // structurally — the killed node shows signal 9, the survivors
        // exited (node 0 aborts the run once its peer is gone) and the
        // watchdog never had to fire.
        if outcome.timed_out {
            eprintln!("fleet hung after kill -9 of node {} — watchdog had to fire", kill.node);
            std::process::exit(1);
        }
        let killed = outcome.nodes.iter().find(|n| n.node == kill.node);
        match killed.and_then(|n| n.signal) {
            Some(9) => {
                println!(
                    "killed node {} surfaced as structured {} — ok",
                    kill.node,
                    mdo_net::TransportError::NodeExited { node: kill.node, code: None, signal: Some(9) }
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("expected signal 9 for node {}, got {other:?}", kill.node);
                std::process::exit(1);
            }
        }
    }

    if let Some(err) = outcome.failure() {
        eprintln!("fleet failed: {err}");
        eprintln!("--- node 0 stderr ---");
        if let Some(n0) = outcome.nodes.first() {
            eprintln!("{}", n0.stderr);
        }
        eprintln!("(full logs under {log_dir}/)");
        std::process::exit(1);
    }

    let multi =
        outcome.node0_stdout().lines().find_map(|l| l.strip_prefix("DIGEST ")).map(str::to_owned).unwrap_or_default();
    if multi.is_empty() {
        eprintln!("node 0 printed no digest; stdout was:\n{}", outcome.node0_stdout());
        std::process::exit(1);
    }

    println!("computing reference digests (SimEngine + single-process ThreadedEngine)...");
    let (sim, single) = reference_digests(&job);
    println!("  sim:    {sim}");
    println!("  single: {single}");
    println!("  multi:  {multi}");
    if multi != sim || multi != single {
        eprintln!("DIGEST MISMATCH — the multi-process run diverged (logs under {log_dir}/)");
        std::process::exit(2);
    }
    println!("bit-exact across SimEngine, single-process and {}-process runs — ok", job.nodes);
}
