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
//!            [--steps S] [--wan-ms L] [--no-agg] [--no-flow]
//!            [--kill-node I --kill-after-ms T] [--log-dir DIR]
//! ```
//!
//! `--kill-node` needs `--wan-ms`, and `--kill-after-ms` (250 without it)
//! must be below the run's latency floor — its steps times the hops of a
//! step times L — so the kill lands mid-run however fast the host is; a
//! drill that could kill nothing is refused like an unknown flag.
//!
//! `--wan-ms` sets the injected cross-node latency (300 µs without it) and
//! arms two more checks of "a packet is never visible before send + L"
//! between *separate OS processes*, each with a clock epoch of its own —
//! every benchmark workload and hermetic test runs its nodes as threads of
//! one process, where a shared-epoch bug in the handshake's offset estimate
//! would hide:
//!
//! * **One direction at a time** ([`run_probe`], a second fleet of bare
//!   meshes): every node sends every other node packets due at send + L
//!   that carry their send instant on the host's wall clock, and each
//!   receiver reports the smallest `delivered − sent` per sender.  An
//!   offset wrong by δ shows one direction early by δ, whatever it does to
//!   the other; a lost sign or a skipped translation is off by the distance
//!   between two processes' epochs.
//! * **The step floor**: a step of the application run may not be shorter
//!   than the latency its dependent messages wait out (one hop a step for
//!   the stencil; two for LeanMD, coordinates across and forces back).  A
//!   step is a round trip, so an offset error cancels in it: this catches
//!   only a `due` that was dropped or ignored on the engine's own path, which
//!   the probe does not take.
//!
//! Exit codes: 0 success (digests bit-identical, or the armed kill
//! surfaced as a structured `NodeExited`), 1 launch/run failure or a
//! command line it does not understand (nothing is launched),
//! 2 digest mismatch, 3 a packet visible before send + L or a step faster
//! than the injected latency allows.  Per-node stdout/stderr land under
//! `--log-dir` (default `results/launch_logs`) for CI artifact upload.

use mdo_apps::leanmd::{self, MdConfig};
use mdo_apps::stencil::{self, StencilConfig, StencilCost};
use mdo_bench::{arg_flag, arg_value};
use mdo_core::prelude::Mapping;
use mdo_core::program::RunConfig;
use mdo_core::{Ctr, ThreadedConfig};
use mdo_net::{launch, KillPlan, LaunchSpec, NetConfig, NetSession, TransportError};
use mdo_netsim::bandwidth::WanContention;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{AggConfig, Dur, FlowConfig, LatencyMatrix, Pe, Topology};
use mdo_vmi::{Mailbox, Packet, Wire};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

const USAGE: &str = "usage: mdo_launch [--app stencil|leanmd] [--nodes N] [--pes-per-node M] [--steps S] \
                     [--wan-ms L] [--no-agg] [--no-flow] [--kill-node I --kill-after-ms T] [--log-dir DIR]";
/// Every flag there is: those followed by a value, and those that stand alone.
const VALUE_FLAGS: [&str; 8] =
    ["--app", "--nodes", "--pes-per-node", "--steps", "--wan-ms", "--kill-node", "--kill-after-ms", "--log-dir"];
const SWITCHES: [&str; 2] = ["--no-agg", "--no-flow"];
/// Set for the children of the second fleet: run [`run_probe`], not the job.
const ENV_PROBE: &str = "MDO_LAUNCH_PROBE";
/// Packets each node sends each other node in the probe.
const PROBE_PACKETS: u32 = 100;

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
    /// `--wan-ms`, when given.
    wan_ms: Option<u64>,
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
        let job = Job {
            app: arg_value(args, "--app").unwrap_or_else(|| "stencil".into()),
            nodes: parsed(args, "--nodes")?.unwrap_or(4),
            ppn: parsed(args, "--pes-per-node")?.unwrap_or(2),
            steps: parsed(args, "--steps")?.unwrap_or(5),
            wan_ms: parsed(args, "--wan-ms")?,
            agg: !arg_flag(args, "--no-agg"),
            flow: !arg_flag(args, "--no-flow"),
            kill: parsed(args, "--kill-node")?.map(|node| KillPlan { node, after: kill_after }),
            log_dir: arg_value(args, "--log-dir").unwrap_or_else(|| "results/launch_logs".into()),
        };
        if let Some(kill) = &job.kill {
            // Only the injected latency bounds how soon the job can end.
            let wan_ms = job.wan_ms.ok_or("--kill-node needs --wan-ms: with no latency floor the job can end first")?;
            let steps = if job.app == "leanmd" { job.md_cfg().steps } else { job.steps };
            let floor_ms = f64::from(steps) * job.step_floor_ms(wan_ms);
            if kill.after.as_secs_f64() * 1e3 >= floor_ms {
                return Err(format!("--kill-after-ms must be under the latency floor, {steps} steps = {floor_ms} ms"));
            }
        }
        Ok(job)
    }

    fn topology(&self) -> Topology {
        Topology::uniform(self.nodes as u16, self.ppn)
    }

    fn latency(&self, topo: &Topology) -> LatencyMatrix {
        LatencyMatrix::uniform(topo, Dur::ZERO, self.wan_ms.map_or(Dur::from_micros(300), Dur::from_millis))
    }

    /// The shortest a step can be at `wan_ms` between nodes, in ms — the
    /// latency times the cross-node hops a step's critical path has.
    fn step_floor_ms(&self, wan_ms: u64) -> f64 {
        let hops = if self.app == "leanmd" { 2 } else { 1 };
        (wan_ms * hops) as f64
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

/// LeanMD's digest: every cell's checksum, then the kinetic energy.
fn md_digest(out: &leanmd::MdOutcome) -> String {
    digest(&[&out.checksums[..], &[out.kinetic]].concat())
}

/// The child path: run this node's share of the job over the real
/// transport.  Node 0 prints the merged digest; everyone prints a
/// per-node summary to stderr for the launcher logs.
fn run_child(job: &Job, net: NetConfig) -> i32 {
    let topo = job.topology();
    let tcfg = ThreadedConfig::new(job.latency(&topo));
    let node = net.node;
    let run_cfg = RunConfig { net: Some(net), ..job.run_cfg() };
    let (bits, ms_per_step, report, steps) = match job.app.as_str() {
        "stencil" => {
            let out = stencil::run_threaded_with(job.stencil_cfg(), topo, tcfg, run_cfg);
            (digest(&out.block_sums), out.ms_per_step, out.report, job.steps)
        }
        "leanmd" => {
            let out = leanmd::run_threaded_with(job.md_cfg(), topo, tcfg, run_cfg);
            (md_digest(&out), out.ms_per_step, out.report, job.md_cfg().steps)
        }
        other => {
            eprintln!("node {node}: unknown app {other:?}");
            return 2;
        }
    };
    if let Some(err) = &report.unrecoverable {
        eprintln!("node {node}: unrecoverable: {err}");
        return 1;
    }
    if node == 0 {
        println!("DIGEST {bits}");
        let recoveries = report.counters.get(Ctr::Recoveries);
        println!("REPORT cross={} recoveries={recoveries}", report.network.cross_messages);
        println!("STEP_MS {ms_per_step}");
    }
    eprintln!("node {node}: {} done, {steps} steps", job.app);
    0
}

/// Nanoseconds on the one clock every process of a host can put a number
/// to.  `Instant` is host-wide too but has no number to send.
fn wall_ns() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos() as u64)
}

/// The one-way probe, one node's share: a bare mesh (its own handshake,
/// its own clock epoch — no engine, no round trip) and a landing mailbox
/// that enforces `due` as a PE's does.  Every packet is due at send + L and
/// carries `wall_ns()` read just before; every fourth sits in the cork for a
/// millisecond first.  Node `i` binds — takes its epoch — `i` × 5 ms into the
/// process, so no two clocks start together by luck and a wrong translation
/// is milliseconds wrong.  Prints the smallest and the median
/// `delivered − sent` per sender and exits 3 if any packet was visible
/// before its L was over.
fn run_probe(job: &Job, net: NetConfig) -> Result<i32, TransportError> {
    let latency = Duration::from_millis(job.wan_ms.expect("the probe fleet is launched with --wan-ms"));
    // What the wall clock may lose against the monotonic one while a packet
    // is held, were it being slewed at NTP's limit of 500 ppm.
    let slew = latency / 2000;
    let (me, nodes) = (net.node, net.num_nodes() as u32);
    let topo = Topology::uniform(nodes as u16, 1);
    std::thread::sleep(Duration::from_millis(5) * me);
    let mesh = Arc::new(NetSession::bind(net)?.establish(0, &topo, &(0..nodes).collect::<Vec<_>>())?);
    let landing = Arc::new(Mailbox::new());
    let post = Arc::clone(&landing);
    mesh.start(move |pkt| post.post(pkt));
    let receiver = std::thread::spawn(move || {
        let mut transit_ns: Vec<Vec<u64>> = vec![Vec::new(); nodes as usize];
        for _ in 0..PROBE_PACKETS * (nodes - 1) {
            let Some(pkt) = landing.take_timeout(Duration::from_secs(10)) else { break };
            let sent = u64::from_le_bytes(pkt.payload[..8].try_into().expect("a send stamp"));
            transit_ns[pkt.src.index()].push(wall_ns().saturating_sub(sent));
        }
        transit_ns
    });
    for i in 0..PROBE_PACKETS {
        for to in (0..nodes).filter(|&to| to != me) {
            let mut pkt = Packet::new(Pe(me), Pe(to), wall_ns().to_le_bytes().to_vec().into());
            pkt.due = Some(Instant::now() + latency);
            if i % 4 == 0 {
                mesh.send_corked(pkt);
            } else {
                mesh.send(pkt);
            }
        }
        std::thread::sleep(Duration::from_millis(1));
        mesh.flush();
    }
    let mut code = 0;
    for (from, mut transit) in receiver.join().expect("probe receiver").into_iter().enumerate() {
        if from as u32 == me {
            continue;
        }
        transit.sort_unstable();
        let Some(&min) = transit.first().filter(|_| transit.len() == PROBE_PACKETS as usize) else {
            eprintln!("node {me}: {} of {PROBE_PACKETS} probe packets from node {from}", transit.len());
            return Ok(1);
        };
        let (min, median) = (Duration::from_nanos(min), Duration::from_nanos(transit[transit.len() / 2]));
        println!("ONEWAY {from} -> {me}: delivered {min:?} (earliest) and {median:?} (median) after the send");
        if min + slew < latency {
            code = 3;
        }
    }
    // Everything a peer was sent is in its socket; it reads it before the EOF.
    mesh.shutdown();
    Ok(code)
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
            (md_digest(&sim), md_digest(&single))
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
        Ok(Some(net)) if std::env::var_os(ENV_PROBE).is_some() => {
            std::process::exit(run_probe(&job, net).unwrap_or_else(|e| {
                eprintln!("probe failed: {e}");
                1
            }))
        }
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

    let Some(wan_ms) = job.wan_ms else { return };
    let floor = job.step_floor_ms(wan_ms);
    let step_ms: Option<f64> =
        outcome.node0_stdout().lines().find_map(|l| l.strip_prefix("STEP_MS ")).and_then(|v| v.parse().ok());
    match step_ms {
        Some(ms) if ms >= floor => println!("{ms:.2} ms a step, never under the {floor} ms the latency fixes — ok"),
        other => {
            eprintln!("STEP UNDER THE LATENCY FLOOR — {other:?} ms a step against {floor} ms: a `due` was ignored");
            std::process::exit(3);
        }
    }

    // One direction at a time, on a fleet of its own.
    spec.env.push((ENV_PROBE.into(), "1".into()));
    let probe = launch(&spec).unwrap_or_else(|e| {
        eprintln!("probe launch failed: {e}");
        std::process::exit(1);
    });
    write_logs(&format!("{log_dir}/probe"), &probe);
    for line in probe.nodes.iter().flat_map(|n| n.stdout.lines()) {
        println!("  {line}");
    }
    if probe.nodes.iter().any(|n| n.code == Some(3)) {
        eprintln!("PACKET VISIBLE BEFORE SEND + {wan_ms} ms — a clock offset shows one direction early");
        std::process::exit(3);
    }
    if let Some(err) = probe.failure() {
        eprintln!("probe fleet failed: {err} (logs under {log_dir}/probe/)");
        std::process::exit(1);
    }
    println!("no packet visible before send + {wan_ms} ms, in any direction between {} processes — ok", job.nodes);
}
