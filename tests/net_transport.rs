//! The real transport, end to end: multi-node runs over localhost TCP
//! must be **bit-exact** with the simulation engine and the
//! single-process threaded engine — including with TRAM aggregation and
//! Block flow control layered on top, and including a shrink-recovery
//! after a mid-run crash on a remote node.
//!
//! These tests are hermetic: each "node process" is a thread calling the
//! same public entry points an `mdo_launch` child would (the per-node
//! `RunConfig::net` path), over real sockets on 127.0.0.1.  Process-level
//! spawning and kill -9 behaviour are covered by the `mdo-net` launcher
//! unit tests and the `mdo_launch` CI smoke.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::apps::stencil::{self, seq::SeqStencil, StencilConfig, StencilCost};
use gridmdo::net::{localhost_rendezvous, HandshakeField, NetSession};
use gridmdo::prelude::*;
use gridmdo::runtime::engine::net::run_with_session;
use gridmdo::runtime::envelope::{Envelope, MsgBody, SYSTEM_PRIORITY};
use gridmdo::runtime::Program;
use mdo_net::TransportError as NetError;

fn small_stencil(objects: usize, steps: u32, lb_period: Option<u32>) -> StencilConfig {
    StencilConfig {
        mesh: 32,
        objects,
        steps,
        compute: true,
        cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
        mapping: Mapping::Block,
        lb_period,
    }
}

fn seq_reference(cfg: &StencilConfig) -> Vec<f64> {
    let mut reference = SeqStencil::new(cfg.mesh);
    reference.run(cfg.steps);
    reference.block_sums(cfg.k())
}

/// Reserve a manifest of distinct localhost ports, then release them for
/// the node runs to rebind (the same reserve-then-rebind the launcher
/// does for real child processes).
fn reserve_manifest(nodes: usize) -> Vec<SocketAddr> {
    let (listeners, addrs) = localhost_rendezvous(nodes).expect("bind manifest ports");
    drop(listeners);
    addrs
}

/// Run one stencil job as `nodes` node-threads over real TCP and return
/// node 0's outcome (the merged report and the gathered block sums).
fn run_stencil_net(
    cfg: &StencilConfig,
    topo: &Topology,
    latency: &LatencyMatrix,
    run_cfg: &RunConfig,
    streams: usize,
) -> stencil::StencilOutcome {
    let nodes = topo.num_clusters();
    let manifest = reserve_manifest(nodes);
    let mut handles = Vec::new();
    for node in (0..nodes as u32).rev() {
        let cfg = cfg.clone();
        let topo = topo.clone();
        let latency = latency.clone();
        let mut run_cfg = run_cfg.clone();
        run_cfg.net = Some(NetConfig::new(node, manifest.clone()).with_streams(streams));
        let h = thread::Builder::new()
            .name(format!("node{node}"))
            .spawn(move || stencil::run_threaded_with(cfg, topo, ThreadedConfig::new(latency), run_cfg))
            .expect("spawn node thread");
        handles.push((node, h));
    }
    let mut node0 = None;
    for (node, h) in handles {
        let out = h.join().unwrap_or_else(|_| panic!("node {node} panicked"));
        if node == 0 {
            node0 = Some(out);
        }
    }
    node0.expect("node 0 outcome")
}

#[test]
fn four_node_stencil_is_bit_exact_with_agg_and_flow() {
    // The ISSUE oracle: 4 nodes over real sockets, aggregation on, Block
    // flow control on — digests bit-identical to the simulation engine
    // and to the same job run single-process.
    let cfg = small_stencil(16, 5, None);
    let topo = Topology::uniform(4, 2);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
    let run_cfg =
        RunConfig { agg: Some(AggConfig::default()), flow: Some(FlowConfig::default()), ..RunConfig::default() };

    let seq = seq_reference(&cfg);
    let sim = {
        let contention = gridmdo::netsim::bandwidth::WanContention::disabled(&topo);
        let net = NetworkModel::new(topo.clone(), latency.clone(), contention, 0);
        stencil::run_sim(cfg.clone(), net, run_cfg.clone())
    };
    let single = stencil::run_threaded(cfg.clone(), topo.clone(), latency.clone(), run_cfg.clone());
    let multi = run_stencil_net(&cfg, &topo, &latency, &run_cfg, 1);

    assert_eq!(sim.block_sums, seq, "sim matches the sequential oracle");
    assert_eq!(single.block_sums, seq, "single-process threaded matches");
    assert_eq!(multi.block_sums, seq, "multi-node TCP run matches bit-exactly");
    assert!(multi.report.network.cross_messages > 0, "traffic actually crossed the wire");
    assert!(multi.report.unrecoverable.is_none());
    // Every PE's work shows up in the merged report, not just node 0's.
    assert!(multi.report.pe_messages.iter().all(|&m| m > 0), "merged per-PE counts: {:?}", multi.report.pe_messages);
}

#[test]
fn striped_streams_with_flow_control_stay_bit_exact() {
    // k=4 striped sockets reorder packets between streams; the reliable
    // layer (armed by flow control) re-sequences, so results hold.
    let cfg = small_stencil(16, 4, None);
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(200));
    let run_cfg =
        RunConfig { agg: Some(AggConfig::default()), flow: Some(FlowConfig::default()), ..RunConfig::default() };
    let seq = seq_reference(&cfg);
    let multi = run_stencil_net(&cfg, &topo, &latency, &run_cfg, 4);
    assert_eq!(multi.block_sums, seq, "striped run is bit-exact");
}

#[test]
fn two_node_leanmd_matches_sim_bit_exactly() {
    let cfg = MdConfig::validation(3, 4, 4);
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));

    let sim = {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        leanmd::run_sim(cfg.clone(), net, RunConfig::default())
    };

    let manifest = reserve_manifest(2);
    let mut handles = Vec::new();
    for node in (0..2u32).rev() {
        let cfg = cfg.clone();
        let topo = topo.clone();
        let latency = latency.clone();
        let run_cfg = RunConfig { net: Some(NetConfig::new(node, manifest.clone())), ..RunConfig::default() };
        handles.push((node, thread::spawn(move || leanmd::run_threaded(cfg, topo, latency, run_cfg))));
    }
    let mut node0 = None;
    for (node, h) in handles {
        let out = h.join().unwrap_or_else(|_| panic!("node {node} panicked"));
        if node == 0 {
            node0 = Some(out);
        }
    }
    let multi = node0.expect("node 0");
    assert_eq!(multi.checksums, sim.checksums, "LeanMD positions bit-exact over TCP");
    assert_eq!(multi.kinetic, sim.kinetic, "LeanMD energies bit-exact over TCP");

    // Report parity: what crosses the wire is exactly what the same job
    // run in one process routes through its cross-cluster device chain,
    // and the merged TCP report accounts for it identically.  The one
    // known difference is the end of the run: the exit flag is per
    // process, so node 1's first PE to see the Exit envelope relays it
    // once more to every PE, node 0's two included.
    let single = leanmd::run_threaded(cfg, topo, latency, RunConfig::default());
    let (m, s) = (&multi.report, &single.report);
    let exit = Envelope { src: Pe(2), dst: Pe(0), priority: SYSTEM_PRIORITY, sent_at_ns: 0, body: MsgBody::Exit };
    assert_eq!(m.network.cross_messages, s.network.cross_messages + 2);
    assert_eq!(m.network.cross_bytes, s.network.cross_bytes + 2 * exit.encode().len() as u64);
    assert_eq!((m.lb_rounds, m.migrations, m.generations), (s.lb_rounds, s.migrations, s.generations));
    // PEs race the final Exit envelope against the stop flag.
    for (pe, (a, b)) in m.pe_messages.iter().zip(&s.pe_messages).enumerate() {
        assert!(a.abs_diff(*b) <= 1, "PE {pe} processed {a} envelopes over TCP, {b} in-process");
    }
}

#[test]
fn crash_on_a_remote_node_recovers_over_survivors() {
    // Kill a PE mid-run (injected CrashTrigger — the thread dies
    // silently, as if the process seized): once PE 4, hosted by node 2,
    // once PE 1, a neighbour of the failure detector on node 0 itself.
    // Either way node 0 must notice from the missing heartbeats, run the
    // cross-process recovery protocol (gather buddy pieces, assemble,
    // restart), shrink onto the survivors and still finish bit-exact.
    let cfg = small_stencil(16, 6, Some(1));
    let topo = Topology::uniform(3, 2);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(200));
    let clean = stencil::run_threaded(cfg.clone(), topo.clone(), latency.clone(), RunConfig::default());

    for victim in [Pe(4), Pe(1)] {
        let n = clean.report.pe_messages[victim.index()] / 2;
        assert!(n > 0, "calibration run must exercise {victim}");
        let plan = FailurePlan::new()
            .crash_after_messages(victim, n)
            .with_heartbeat(Dur::from_millis(15), Dur::from_millis(150));
        let run_cfg = RunConfig { failure_plan: Some(plan), ..RunConfig::default() };

        let multi = run_stencil_net(&cfg, &topo, &latency, &run_cfg, 1);
        assert_eq!(multi.block_sums, clean.block_sums, "recovery over TCP is bit-exact ({victim} down)");
        assert_eq!(multi.report.failures_detected, 1);
        assert_eq!(multi.report.recoveries, 1);
        assert_eq!(multi.report.generations, 2);
        assert_eq!(multi.report.failures[0].pe, victim);
        assert!(multi.report.unrecoverable.is_none());
        assert!(multi.report.checkpoints_taken > 0);
    }
}

/// A do-nothing one-PE-per-cluster program: starts, then exits or hangs.
fn trivial_program(exits: bool) -> Program {
    let mut p = Program::new();
    struct Noop;
    impl gridmdo::runtime::Chare for Noop {
        fn receive(&mut self, _entry: EntryId, _payload: &[u8], _ctx: &mut gridmdo::runtime::Ctx<'_>) {}
    }
    let _arr = p.array("noop", 1, Mapping::Block, |_| Box::new(Noop) as Box<dyn gridmdo::runtime::Chare>);
    p.on_startup(move |ctl| {
        if exits {
            ctl.exit()
        }
    });
    p
}

#[test]
fn a_hung_job_ends_in_deadline_exceeded_on_every_node() {
    // Nobody ever calls exit.  `max_wall` must end the run on both nodes
    // within a second of expiring: node 0 with the structured error in
    // its report (never a clean-looking one), node 1 told to stand down.
    let (listeners, addrs) = localhost_rendezvous(2).expect("rendezvous");
    let topo = Topology::uniform(2, 1);
    let started = Instant::now();
    let mut handles = Vec::new();
    for (node, listener) in listeners.into_iter().enumerate() {
        let (topo, addrs) = (topo.clone(), addrs.clone());
        handles.push(thread::spawn(move || {
            let mut tcfg = ThreadedConfig::new(LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO));
            tcfg.max_wall = Duration::from_millis(300);
            let session = NetSession::with_listener(NetConfig::new(node as u32, addrs), listener).expect("session");
            run_with_session(topo, tcfg, RunConfig::default(), trivial_program(false), session)
        }));
    }
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().expect("node thread must not panic")).collect();
    assert!(started.elapsed() < Duration::from_millis(1300), "stood down within max_wall + 1 s");
    let report = outcomes[0].as_ref().expect("node 0 still reports");
    assert_eq!(report.unrecoverable, Some(UnrecoverableError::DeadlineExceeded));
    assert!(matches!(outcomes[1], Err(NetError::Aborted { .. })), "node 1: {:?}", outcomes[1].as_ref().err());
}

#[test]
fn engine_rejects_a_peer_with_a_different_topology() {
    // Node 0 and node 1 disagree about the job's shape (different cluster
    // layouts with the same cluster count).  The handshake digest must
    // catch it: both sides get a structured HandshakeMismatch, nobody
    // hangs, nobody panics.
    let (listeners, addrs) = localhost_rendezvous(2).expect("rendezvous");
    use gridmdo::netsim::topology::ClusterSpec;
    let topo_a =
        Topology::new(vec![ClusterSpec { name: "A".into(), pes: 1 }, ClusterSpec { name: "B".into(), pes: 1 }]);
    let topo_b =
        Topology::new(vec![ClusterSpec { name: "A".into(), pes: 2 }, ClusterSpec { name: "B".into(), pes: 1 }]);
    let errs: Arc<Mutex<Vec<NetError>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for (node, (listener, topo)) in listeners.into_iter().zip([topo_a, topo_b]).enumerate() {
        let addrs = addrs.clone();
        let errs = Arc::clone(&errs);
        handles.push(thread::spawn(move || {
            let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
            let mut tcfg = ThreadedConfig::new(latency);
            tcfg.max_wall = Duration::from_secs(10);
            let net = NetConfig::new(node as u32, addrs);
            let session = NetSession::with_listener(net, listener).expect("session");
            match run_with_session(topo.clone(), tcfg, RunConfig::default(), trivial_program(true), session) {
                Ok(_) => panic!("node {node}: a mismatched topology must not produce a report"),
                Err(e) => errs.lock().expect("errs").push(e),
            }
        }));
    }
    for h in handles {
        h.join().expect("node thread must not panic");
    }
    let errs = errs.lock().expect("errs");
    assert_eq!(errs.len(), 2);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            NetError::HandshakeMismatch { field: HandshakeField::TopologyDigest, .. } | NetError::PeerClosed { .. }
        )),
        "at least one side reports the digest mismatch: {errs:?}"
    );
    assert!(
        errs.iter().all(|e| matches!(e, NetError::HandshakeMismatch { .. } | NetError::PeerClosed { .. })),
        "both sides fail structurally: {errs:?}"
    );
}
