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
//!
//! The last section pins the socket path's contract below the engine,
//! `Transport` over a real two-node mesh: who corks, when a cork is
//! written, and that an injected latency rides the record.

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
) -> stencil::StencilOutcome {
    let nodes = topo.num_clusters();
    let manifest = reserve_manifest(nodes);
    let mut handles = Vec::new();
    for node in (0..nodes as u32).rev() {
        let cfg = cfg.clone();
        let topo = topo.clone();
        let latency = latency.clone();
        let mut run_cfg = run_cfg.clone();
        run_cfg.net = Some(NetConfig::new(node, manifest.clone()));
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
    let multi = run_stencil_net(&cfg, &topo, &latency, &run_cfg);

    assert_eq!(sim.block_sums, seq, "sim matches the sequential oracle");
    assert_eq!(single.block_sums, seq, "single-process threaded matches");
    assert_eq!(multi.block_sums, seq, "multi-node TCP run matches bit-exactly");
    assert!(multi.report.network.cross_messages > 0, "traffic actually crossed the wire");
    assert!(multi.report.unrecoverable.is_none());
    // Every PE's work shows up in the merged report, not just node 0's.
    assert!(multi.report.pe_messages.iter().all(|&m| m > 0), "merged per-PE counts: {:?}", multi.report.pe_messages);
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

        let multi = run_stencil_net(&cfg, &topo, &latency, &run_cfg);
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

/// A message that crossed the socket is delivered as the record body it
/// arrived in: `Ctx::payload()` is what the handler's slice views, whether
/// the message came over TCP (element 1, on node 1) or stayed on its PE.
#[test]
fn a_message_decoded_from_a_tcp_record_is_ctx_payload() {
    use gridmdo::runtime::{Chare, Ctx};
    const ECHO: EntryId = EntryId(1);
    fn body() -> Vec<u8> {
        (0..3380u32).map(|i| i as u8).collect()
    }
    struct Echo;
    impl Chare for Echo {
        fn receive(&mut self, _entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
            assert_eq!(payload, &body()[..], "element {:?}", ctx.my_elem());
            assert_eq!(ctx.payload().as_ptr(), payload.as_ptr());
            assert_eq!(ctx.payload().len(), payload.len());
            // Kept past the handler, the message is still all there.
            let kept = ctx.payload().clone();
            ctx.contribute_gather(kept.to_vec());
        }
    }
    let program = || {
        let mut p = Program::new();
        let arr = p.array("echo", 2, Mapping::Block, |_| Box::new(Echo) as Box<dyn Chare>);
        p.on_startup(move |ctl| {
            let shared = bytes::Bytes::from(body());
            ctl.send(arr, ElemId(0), ECHO, shared.clone());
            ctl.send(arr, ElemId(1), ECHO, shared);
        });
        p.on_reduction(arr, |_seq, data, ctl| {
            match data {
                gridmdo::runtime::envelope::ReduceData::Gathered(rows) => {
                    assert_eq!(rows.len(), 2);
                    assert!(rows.iter().all(|(_, bytes)| bytes[..] == body()[..]));
                }
                other => panic!("wrong reduction data {other:?}"),
            }
            ctl.exit();
        });
        p
    };
    let (listeners, addrs) = localhost_rendezvous(2).expect("rendezvous");
    let topo = Topology::uniform(2, 1);
    let mut handles = Vec::new();
    for (node, listener) in listeners.into_iter().enumerate() {
        let (topo, addrs) = (topo.clone(), addrs.clone());
        handles.push(thread::spawn(move || {
            let tcfg = ThreadedConfig::new(LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO));
            let session = NetSession::with_listener(NetConfig::new(node as u32, addrs), listener).expect("session");
            run_with_session(topo, tcfg, RunConfig::default(), program(), session)
        }));
    }
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().expect("a handler assertion failed")).collect();
    let report = outcomes[0].as_ref().expect("node 0 reports");
    assert!(report.unrecoverable.is_none() && report.transport_error.is_none());
    assert!(report.network.cross_messages >= 1, "element 1's message crossed the socket");
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

// ---- the cork and the hold, `Transport` over a real mesh --------------------

use gridmdo::vmi::{Packet, ReliableTransport, Transport, TransportConfig, Wire, WireBinding};

/// Two single-PE nodes in this process — PE 0 on node 0, PE 1 on node 1 —
/// each a raw `Transport` bound to its end of a real loopback mesh, with
/// `cross` injected between them.  `one_way` leaves node 0's mesh
/// unstarted — no readers (node 1 sends it nothing) and no cork rescue
/// thread, so a cork there stays exactly as long as the transport's own
/// rules leave it.
fn meshed_transports(cross: Dur, one_way: bool) -> [(Arc<Transport>, Arc<gridmdo::net::NetMesh>); 2] {
    let topo = Topology::two_cluster(2);
    let (listeners, addrs) = localhost_rendezvous(2).expect("rendezvous");
    let ends: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(node, listener)| {
            let (topo, addrs) = (topo.clone(), addrs.clone());
            thread::spawn(move || {
                let session = NetSession::with_listener(NetConfig::new(node as u32, addrs), listener).expect("session");
                let mesh = Arc::new(session.establish(0, &topo, &[0, 1]).expect("establish"));
                let mut tc = TransportConfig::new(topo.clone(), LatencyMatrix::uniform(&topo, Dur::ZERO, cross));
                tc.wire = Some(WireBinding::new(Arc::clone(&mesh) as Arc<dyn Wire>, &[Pe(node as u32)], 2));
                let raw = Transport::new(tc);
                if node == 1 || !one_way {
                    let inbox = Arc::clone(&raw);
                    mesh.start(move |pkt| inbox.mailbox(pkt.dst).post(pkt));
                }
                (raw, mesh)
            })
        })
        .collect();
    let mut ends = ends.into_iter().map(|h| h.join().expect("node set-up"));
    [ends.next().expect("node 0"), ends.next().expect("node 1")]
}

fn tag(tag: u8) -> bytes::Bytes {
    bytes::Bytes::copy_from_slice(&[tag])
}

const NOT_YET: Duration = Duration::from_millis(40);
const SOON: Duration = Duration::from_secs(5);

#[test]
fn a_polling_sender_corks_and_the_cork_is_out_before_it_blocks() {
    let [(raw0, mesh0), (raw1, mesh1)] = meshed_transports(Dur::ZERO, true);
    let landed = |n: usize| {
        let deadline = Instant::now() + SOON;
        while raw1.mailbox(Pe(1)).len() < n && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        raw1.mailbox(Pe(1)).len()
    };
    // Before its first receive nobody knows this thread will come back:
    // its sends write through.
    raw0.send(Packet::new(Pe(0), Pe(1), tag(0)));
    assert_eq!(landed(1), 1, "a thread that never polled is on the wire when send returns");

    // Once it has polled for PE 0, what it sends as PE 0 is corked ...
    assert!(raw0.try_recv(Pe(0)).is_none());
    for t in 1..=3 {
        raw0.send(Packet::new(Pe(0), Pe(1), tag(t)));
    }
    thread::sleep(NOT_YET);
    assert_eq!(raw1.mailbox(Pe(1)).len(), 1, "corked: the sender has not blocked, run dry or aged");
    // ... while another thread sending for PE 0 still writes through, and
    // takes the cork along on its stream.
    let other = Arc::clone(&raw0);
    thread::spawn(move || other.send(Packet::new(Pe(0), Pe(1), tag(4)))).join().expect("non-polling sender");
    assert_eq!(landed(5), 5);

    // ... and is written before the poller blocks.
    raw0.send(Packet::new(Pe(0), Pe(1), tag(5)));
    thread::sleep(NOT_YET);
    assert_eq!(raw1.mailbox(Pe(1)).len(), 5);
    assert!(raw0.recv_timeout(Pe(0), Duration::from_millis(1)).is_none());
    assert_eq!(landed(6), 6, "flushed on the way into the blocking wait");
    let tags: Vec<u8> = std::iter::from_fn(|| raw1.try_recv(Pe(1))).map(|p| p.payload[0]).collect();
    assert_eq!(tags, (0..=5).collect::<Vec<u8>>(), "one stream, one order");
    for (raw, mesh) in [(raw0, mesh0), (raw1, mesh1)] {
        raw.shutdown();
        mesh.shutdown();
    }
}

#[test]
fn an_old_cork_is_written_on_the_way_back_into_recv() {
    let [(raw0, mesh0), (raw1, mesh1)] = meshed_transports(Dur::ZERO, true);
    // Two local packets keep PE 0's queue non-empty, so its poller never
    // blocks and never runs dry between the two receives.
    raw0.send(Packet::new(Pe(0), Pe(0), tag(10)));
    raw0.send(Packet::new(Pe(0), Pe(0), tag(11)));
    assert_eq!(raw0.try_recv(Pe(0)).expect("first local packet").payload[0], 10);
    // "Handler" of packet 10: one remote send, then more than a
    // millisecond of work.
    raw0.send(Packet::new(Pe(0), Pe(1), tag(1)));
    thread::sleep(NOT_YET);
    assert!(raw1.mailbox(Pe(1)).is_empty(), "still corked while the handler runs");
    assert_eq!(raw0.try_recv(Pe(0)).expect("second local packet").payload[0], 11);
    let got = raw1.recv_timeout(Pe(1), SOON).expect("the aged cork was written on re-entry");
    assert_eq!(got.payload[0], 1);
    for (raw, mesh) in [(raw0, mesh0), (raw1, mesh1)] {
        raw.shutdown();
        mesh.shutdown();
    }
}

#[test]
fn injected_latency_rides_the_record_across_the_socket() {
    const WAN: Duration = Duration::from_millis(20);
    let [(raw0, mesh0), (raw1, mesh1)] = meshed_transports(Dur::from_std(WAN), false);
    // Written through and corked alike: the hold is in the record.
    for (i, poll_first) in [false, true].into_iter().enumerate() {
        if poll_first {
            assert!(raw0.try_recv(Pe(0)).is_none());
        }
        let sent = Instant::now();
        raw0.send(Packet::new(Pe(0), Pe(1), tag(i as u8)));
        raw0.flush_wire(Pe(0));
        let got = raw1.recv_timeout(Pe(1), SOON).expect("delivered");
        assert_eq!(got.payload[0], i as u8);
        assert!(sent.elapsed() >= WAN, "visible {:?} after send, before the injected {WAN:?}", sent.elapsed());
    }
    // The other direction, and nothing is held for local traffic.  (This
    // thread polled PE 1 above, so it corks as PE 1; it waits on the other
    // node next, not on PE 1, so the flush is its to do.)
    let sent = Instant::now();
    raw1.send(Packet::new(Pe(1), Pe(0), tag(9)));
    raw1.flush_wire(Pe(1));
    assert!(raw0.recv_timeout(Pe(0), SOON).is_some());
    assert!(sent.elapsed() >= WAN);
    raw1.send(Packet::new(Pe(1), Pe(1), tag(8)));
    assert!(raw1.try_recv(Pe(1)).is_some(), "intra-cluster is immediate");
    for (raw, mesh) in [(raw0, mesh0), (raw1, mesh1)] {
        raw.shutdown();
        mesh.shutdown();
    }
}

#[test]
fn a_credit_stall_with_corked_data_does_not_deadlock() {
    // A 4 KiB window and 1 KiB packets from a *polling* sender: the window
    // re-opens only on acks of data the sender itself holds corked, so the
    // stall has to write the cork.  A stall that did not would sit out its
    // one-second safety valve every time — minutes for this stream.
    const PACKETS: u32 = 200;
    let [(raw0, mesh0), (raw1, mesh1)] = meshed_transports(Dur::ZERO, false);
    let flow = FlowConfig::default().with_credit_bytes(4 << 10);
    let plan = FaultPlan::default().with_rto(Dur::from_millis(1000));
    let rt0 = ReliableTransport::with_flow(Arc::clone(&raw0), plan.clone(), flow);
    let rt1 = ReliableTransport::with_flow(Arc::clone(&raw1), plan, flow);
    let receiver = {
        let rt1 = Arc::clone(&rt1);
        thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut next = 0u32;
            while next < PACKETS && Instant::now() < deadline {
                if let Some(p) = rt1.recv_timeout(Pe(1), Duration::from_millis(20)) {
                    assert_eq!(u32::from_le_bytes(p.payload[..4].try_into().expect("4 bytes")), next);
                    next += 1;
                }
            }
            next
        })
    };
    let started = Instant::now();
    assert!(rt0.try_recv(Pe(0)).is_none(), "the sender polls, so it corks");
    for i in 0..PACKETS {
        let mut payload = i.to_le_bytes().to_vec();
        payload.resize(1 << 10, 0);
        rt0.send(Packet::new(Pe(0), Pe(1), payload.into()));
    }
    // Done sending: block for the remaining acks like a PE thread would.
    while rt0.recv_timeout(Pe(0), Duration::from_millis(5)).is_some() {}
    assert_eq!(receiver.join().expect("receiver"), PACKETS, "every packet delivered, in order");
    assert!(rt0.credit_stalls() > 0, "the window actually closed");
    assert!(started.elapsed() < Duration::from_secs(10), "stalls were released by acks, not by the safety valve");
    for rt in [rt0, rt1] {
        rt.shutdown();
    }
    for (raw, mesh) in [(raw0, mesh0), (raw1, mesh1)] {
        raw.shutdown();
        mesh.shutdown();
    }
}
