//! Node launcher: one OS process per node on localhost.
//!
//! [`launch`] binds an OS-assigned localhost port per node to build the
//! rendezvous manifest, spawns one child process per node with the
//! manifest in its environment ([`NetConfig::env_for`]), collects each
//! child's stdout/stderr, and reaps everything on the way out.  Failures
//! are structured: a child that exits non-zero or dies by signal becomes
//! [`TransportError::NodeExited`]; a wedged fleet is killed at the
//! watchdog deadline and reported as [`TransportError::Timeout`] — the
//! launcher never hangs and never leaks children.
//!
//! A [`KillPlan`] arms deliberate process death (SIGKILL after a delay)
//! for fault-tolerance tests and demos.

use std::io::Read;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::config::NetConfig;
use crate::error::TransportError;

/// Deliberate process death: SIGKILL node `node` once `after` has elapsed
/// since launch.
#[derive(Clone, Copy, Debug)]
pub struct KillPlan {
    /// Which node to kill.
    pub node: u32,
    /// How long after launch to kill it.
    pub after: Duration,
}

/// What to launch and how to supervise it.
#[derive(Clone, Debug)]
pub struct LaunchSpec {
    /// Program to run for every node (typically `current_exe()`).
    pub program: PathBuf,
    /// Arguments passed to every node.
    pub args: Vec<String>,
    /// Number of node processes.
    pub nodes: usize,
    /// Extra environment variables for every node.
    pub env: Vec<(String, String)>,
    /// Optional deliberate kill.
    pub kill: Option<KillPlan>,
    /// Watchdog: after this long, every surviving child is killed and the
    /// outcome reports a timeout.
    pub timeout: Duration,
    /// Once node 0 (the report merger) has exited, stragglers get this
    /// long before being reaped.
    pub grace: Duration,
}

impl LaunchSpec {
    /// A spec with conventional supervision defaults (60 s watchdog,
    /// 10 s straggler grace, no kill).
    pub fn new(program: PathBuf, args: Vec<String>, nodes: usize) -> Self {
        LaunchSpec {
            program,
            args,
            nodes,
            env: Vec::new(),
            kill: None,
            timeout: Duration::from_secs(60),
            grace: Duration::from_secs(10),
        }
    }
}

/// How one node process ended.
#[derive(Clone, Debug)]
pub struct NodeStatus {
    /// The node id.
    pub node: u32,
    /// Exit code, if it exited normally.
    pub code: Option<i32>,
    /// Killing signal, if any (Unix).
    pub signal: Option<i32>,
    /// Captured stdout.
    pub stdout: String,
    /// Captured stderr.
    pub stderr: String,
}

impl NodeStatus {
    /// True iff the process exited with status 0.
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// The collected result of a launch.
#[derive(Clone, Debug)]
pub struct LaunchOutcome {
    /// Per-node exit status and output, indexed by node id.
    pub nodes: Vec<NodeStatus>,
    /// The rendezvous manifest the fleet ran with.
    pub manifest: Vec<SocketAddr>,
    /// True if the watchdog deadline killed the fleet.
    pub timed_out: bool,
}

impl LaunchOutcome {
    /// The structured failure, if any: a watchdog timeout, else the first
    /// node that exited abnormally.
    pub fn failure(&self) -> Option<TransportError> {
        if self.timed_out {
            return Some(TransportError::Timeout { what: "node fleet (watchdog deadline)".into() });
        }
        self.nodes.iter().find(|n| !n.ok()).map(|n| TransportError::NodeExited {
            node: n.node,
            code: n.code,
            signal: n.signal,
        })
    }

    /// Node 0's stdout (where the merged report and digests land).
    pub fn node0_stdout(&self) -> &str {
        self.nodes.first().map(|n| n.stdout.as_str()).unwrap_or("")
    }
}

/// Reserve one OS-assigned localhost port per node.  The listeners are
/// dropped before the children spawn; each child re-binds its manifest
/// address itself.
fn reserve_manifest(nodes: usize) -> Result<Vec<SocketAddr>, TransportError> {
    let (listeners, manifest) = crate::mesh::localhost_rendezvous(nodes)?;
    drop(listeners);
    Ok(manifest)
}

struct Running {
    node: u32,
    child: Child,
    out: std::thread::JoinHandle<String>,
    err: std::thread::JoinHandle<String>,
    status: Option<std::process::ExitStatus>,
    killed_by_plan: bool,
}

fn drain(pipe: Option<impl Read + Send + 'static>) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let mut buf = String::new();
        if let Some(mut p) = pipe {
            let mut raw = Vec::new();
            let _ = p.read_to_end(&mut raw);
            buf = String::from_utf8_lossy(&raw).into_owned();
        }
        buf
    })
}

#[cfg(unix)]
fn signal_of(status: std::process::ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt;
    status.signal()
}

#[cfg(not(unix))]
fn signal_of(_status: std::process::ExitStatus) -> Option<i32> {
    None
}

/// Spawn `spec.nodes` processes, supervise them to completion (or the
/// watchdog deadline), and return every node's status and output.
///
/// `Err` is reserved for launcher-level failures (spawning, port
/// reservation); children that die are reported *in* the outcome so the
/// caller still gets every surviving node's output —
/// [`LaunchOutcome::failure`] derives the headline error.
pub fn launch(spec: &LaunchSpec) -> Result<LaunchOutcome, TransportError> {
    let manifest = reserve_manifest(spec.nodes)?;
    let started = Instant::now();
    let mut fleet: Vec<Running> = Vec::with_capacity(spec.nodes);
    for node in 0..spec.nodes as u32 {
        let mut cmd = Command::new(&spec.program);
        cmd.args(&spec.args).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::piped());
        for (k, v) in NetConfig::env_for(node, &manifest) {
            cmd.env(k, v);
        }
        for (k, v) in &spec.env {
            cmd.env(k, v);
        }
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                for r in &mut fleet {
                    let _ = r.child.kill();
                }
                return Err(TransportError::io(format!("spawn node {node} ({})", spec.program.display()), &e));
            }
        };
        let out = drain(child.stdout.take());
        let err = drain(child.stderr.take());
        fleet.push(Running { node, child, out, err, status: None, killed_by_plan: false });
    }

    let mut timed_out = false;
    let mut node0_exit: Option<Instant> = None;
    loop {
        let mut alive = 0;
        for r in &mut fleet {
            if r.status.is_some() {
                continue;
            }
            if let Some(plan) = spec.kill {
                if plan.node == r.node && !r.killed_by_plan && started.elapsed() >= plan.after {
                    let _ = r.child.kill();
                    r.killed_by_plan = true;
                }
            }
            match r.child.try_wait() {
                Ok(Some(status)) => {
                    r.status = Some(status);
                    if r.node == 0 {
                        node0_exit = Some(Instant::now());
                    }
                }
                Ok(None) => alive += 1,
                Err(_) => alive += 1,
            }
        }
        if alive == 0 {
            break;
        }
        let deadline_hit = started.elapsed() >= spec.timeout;
        let grace_hit = node0_exit.is_some_and(|t| t.elapsed() >= spec.grace);
        if deadline_hit || grace_hit {
            timed_out = deadline_hit;
            for r in &mut fleet {
                if r.status.is_none() {
                    let _ = r.child.kill();
                    if let Ok(status) = r.child.wait() {
                        r.status = Some(status);
                    }
                }
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut nodes = Vec::with_capacity(fleet.len());
    for r in fleet {
        let Running { node, mut child, out, err, status, .. } = r;
        let status = match status {
            Some(s) => Some(s),
            None => child.wait().ok(),
        };
        let stdout = out.join().unwrap_or_default();
        let stderr = err.join().unwrap_or_default();
        let (code, signal) = match status {
            Some(s) => (s.code(), signal_of(s)),
            None => (None, None),
        };
        nodes.push(NodeStatus { node, code, signal, stdout, stderr });
    }
    Ok(LaunchOutcome { nodes, manifest, timed_out })
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    fn sh(script: &str, nodes: usize) -> LaunchSpec {
        let mut spec = LaunchSpec::new(PathBuf::from("/bin/sh"), vec!["-c".into(), script.into()], nodes);
        spec.timeout = Duration::from_secs(20);
        spec.grace = Duration::from_secs(1);
        spec
    }

    #[test]
    fn clean_fleet_reports_success_and_output() {
        let outcome = launch(&sh("echo node $MDO_NET_NODE of $MDO_NET_MANIFEST", 3)).unwrap();
        assert!(outcome.failure().is_none(), "{:?}", outcome.failure());
        for (i, n) in outcome.nodes.iter().enumerate() {
            assert!(n.ok());
            assert!(n.stdout.starts_with(&format!("node {i} of ")), "stdout: {:?}", n.stdout);
        }
        assert_eq!(outcome.manifest.len(), 3);
    }

    #[test]
    fn nonzero_exit_is_a_structured_node_exited() {
        // Node 0 succeeds; node 1 exits 7.
        let outcome = launch(&sh("exit $(( $MDO_NET_NODE * 7 ))", 2)).unwrap();
        match outcome.failure() {
            Some(TransportError::NodeExited { node: 1, code: Some(7), signal: None }) => {}
            other => panic!("expected NodeExited node 1 code 7, got {other:?}"),
        }
    }

    #[test]
    fn kill_nine_mid_run_surfaces_signal_not_a_hang() {
        // `exec` so SIGKILL hits the sleeper itself — a forked grandchild
        // would survive the kill and keep the stdout pipe open.
        let mut spec = sh("if [ \"$MDO_NET_NODE\" = 0 ]; then exec sleep 1; else exec sleep 30; fi", 3);
        spec.kill = Some(KillPlan { node: 1, after: Duration::from_millis(100) });
        let started = Instant::now();
        let outcome = launch(&spec).unwrap();
        assert!(started.elapsed() < Duration::from_secs(15), "launcher must not hang on a killed node");
        match outcome.failure() {
            Some(TransportError::NodeExited { node: 1, code: None, signal: Some(9) }) => {}
            other => panic!("expected NodeExited node 1 signal 9, got {other:?}"),
        }
        // Node 2 (sleep 30) was reaped by the straggler grace, not waited for.
        assert!(outcome.nodes[2].code != Some(0) || outcome.nodes[2].signal.is_some());
    }

    #[test]
    fn watchdog_deadline_kills_a_wedged_fleet() {
        let mut spec = sh("exec sleep 30", 2);
        spec.timeout = Duration::from_millis(300);
        let outcome = launch(&spec).unwrap();
        assert!(outcome.timed_out);
        assert!(matches!(outcome.failure(), Some(TransportError::Timeout { .. })));
    }
}
