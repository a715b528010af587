//! The wall-clock engine's one generation loop, in one process or many.
//!
//! [`ThreadedEngine::run`](super::threaded::ThreadedEngine::run),
//! [`run_multi_process`] and [`run_with_session`] are thin entry points to
//! the single private loop in this file.  It takes an
//! `Option<NetSession>`: with a session, each OS process hosts the PEs of
//! exactly one topology cluster ("node" = cluster) and what crosses the
//! mdo-net wire is the traffic the in-process run routes through its
//! cross-cluster device chain — delay, CRC and fault devices run
//! sender-side before the socket, and the reliable layer's credits, acks
//! and retransmissions ride the same packets they always did.  (One known
//! difference: the exit flag is per process, so each remote node's first
//! PE to see `Exit` relays it once more — a few extra packets, pinned by
//! `tests/net_transport.rs`.)  Without one, node 0 hosts every PE, the peer set is empty and no
//! [`Wire`] is bound: every broadcast and gather below iterates over
//! nothing.  That is why a multi-process run computes bit-exactly what a
//! single-process one does: above the [`Wire`] seam there is one engine.
//!
//! ## Control plane
//!
//! Node 0 (which hosts PE 0 and therefore startup, reductions and the
//! failure detector) doubles as the run coordinator.  Control records
//! ride the established pair sockets:
//!
//! * normal end — every node sends `Report` (its share of the final
//!   accounting) to node 0, which merges them into one [`RunReport`] and
//!   broadcasts `Done`;
//! * failure — node 0 detects dead PEs (missed heartbeats, panic flags,
//!   a whole peer process going dark) and broadcasts
//!   `Recover{generation, dead}`; survivors stop, ship their buddy
//!   checkpoint pieces back, node 0 assembles the newest complete
//!   snapshot and broadcasts `Restart{snapshot}`; everyone advances its
//!   `generation::Membership` over the same dead set (deterministic, so no
//!   coordination needed) and reconnects the mesh at the next generation
//!   number;
//! * anything unrecoverable — `Abort{why}`, and every process stands
//!   down with a structured error instead of hanging.
//!
//! ## Single-process-only features
//!
//! `join_plan` (elastic expand) and `obs` recording are each one guarded
//! line of the shared loop and are ignored (with a warning) when a
//! session is present: a join needs the joiners named in `Ctl::Recover`
//! (and a new cluster needs a process launcher besides), and obs
//! recordings are too large to ship casually.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdo_net::{NetEvent, NetMesh, NetSession, TransportError as NetError};
use mdo_netsim::network::NetworkStats;
use mdo_netsim::{ClusterId, Dur, FailureCause, FaultPlan, Pe, Time, Topology, TransportError, UnrecoverableError};
use mdo_obs::{CounterSet, Ctr};
use mdo_vmi::{Aggregator, CrcDevice, FaultDevice, ReliableTransport, Transport, TransportConfig, Wire, WireBinding};

use crate::checkpoint::{FtPiece, Snapshot};
use crate::envelope::{Envelope, MsgBody, SYSTEM_PRIORITY};
use crate::ids::{ArrayId, ElemId, ObjKey};
use crate::node::Node;
use crate::program::{Program, RunConfig, RunReport};
use crate::wire::{WireReader, WireWriter};

use super::generation::{Books, Change, Membership, PeRow};
use super::threaded::{elapsed_ns, pe_thread, PeResult, ThreadCtl, ThreadedConfig, PE_ALIVE, PE_CRASHED, PE_PANICKED};

// ---------------------------------------------------------------------------
// Control-plane protocol
// ---------------------------------------------------------------------------

const CTL_REPORT: u8 = 1;
const CTL_DONE: u8 = 2;
const CTL_RECOVER: u8 = 3;
const CTL_PIECES: u8 = 4;
const CTL_RESTART: u8 = 5;
const CTL_ABORT: u8 = 6;

/// Why a node ordered (or relayed) an abort.  The structured variants let
/// node 0 rebuild the same report fields a single-process run sets.
#[derive(Clone, Debug)]
enum AbortReason {
    /// Free-form (rendezvous trouble, peer death without a plan).
    Other(String),
    /// A PE failed with no failure plan armed (original numbering):
    /// [`UnrecoverableError::NoFailurePlan`].
    NoFailurePlan(u32),
    /// The reliable layer exhausted retries somewhere.
    Transport(TransportError),
    /// The run outlived `max_wall`: [`UnrecoverableError::DeadlineExceeded`].
    Deadline,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Other(s) => f.write_str(s),
            AbortReason::NoFailurePlan(pe) => write!(f, "PE {pe} failed with no failure plan armed"),
            AbortReason::Transport(e) => e.fmt(f),
            AbortReason::Deadline => UnrecoverableError::DeadlineExceeded.fmt(f),
        }
    }
}

/// A control-plane message (rides `KIND_CONTROL` records on the mesh).
enum Ctl {
    /// A node's share of the final accounting.
    Report(Box<NodeReport>),
    /// Node 0 has merged everything; stand down cleanly.
    Done,
    /// Node 0 orders a shrink-recovery: stop the current generation.
    Recover { new_gen: u32, dead_cur: Vec<u32>, dead_nodes: Vec<u32> },
    /// A survivor's buddy-checkpoint pieces for the recovery in progress.
    Pieces(Vec<FtPiece>),
    /// The assembled snapshot everyone restarts from.
    Restart { snap_round: u32, snapshot: Vec<u8> },
    /// The run cannot continue; every process stands down.
    Abort(AbortReason),
}

fn put_transport_error(w: &mut WireWriter, e: &TransportError) {
    w.u32(e.src.0).u32(e.dst.0).u64(e.seq).u32(e.attempts);
}

fn get_transport_error(r: &mut WireReader<'_>) -> Option<TransportError> {
    Some(TransportError { src: Pe(r.u32().ok()?), dst: Pe(r.u32().ok()?), seq: r.u64().ok()?, attempts: r.u32().ok()? })
}

fn encode_ctl(c: &Ctl) -> Vec<u8> {
    let mut w = WireWriter::new();
    match c {
        Ctl::Report(r) => {
            w.u8(CTL_REPORT);
            r.encode(&mut w);
        }
        Ctl::Done => {
            w.u8(CTL_DONE);
        }
        Ctl::Recover { new_gen, dead_cur, dead_nodes } => {
            w.u8(CTL_RECOVER).u32(*new_gen).u32_slice(dead_cur).u32_slice(dead_nodes);
        }
        Ctl::Pieces(pieces) => {
            w.u8(CTL_PIECES).usize(pieces.len());
            for p in pieces {
                w.u32(p.epoch).u32(p.owner.0).u32(p.lb_round).usize(p.states.len());
                for (key, state) in &p.states {
                    w.u32(key.array.0).u32(key.elem.0).bytes(state);
                }
                w.u32_slice(&p.red_next);
            }
        }
        Ctl::Restart { snap_round, snapshot } => {
            w.u8(CTL_RESTART).u32(*snap_round).bytes(snapshot);
        }
        Ctl::Abort(reason) => {
            w.u8(CTL_ABORT);
            match reason {
                AbortReason::Other(s) => {
                    w.u8(0).str(s);
                }
                AbortReason::NoFailurePlan(pe) => {
                    w.u8(1).u32(*pe);
                }
                AbortReason::Transport(e) => put_transport_error(w.u8(2), e),
                AbortReason::Deadline => {
                    w.u8(3);
                }
            }
        }
    }
    w.finish()
}

fn decode_ctl(bytes: &[u8]) -> Option<Ctl> {
    let mut r = WireReader::new(bytes);
    let ctl = match r.u8().ok()? {
        CTL_REPORT => Ctl::Report(Box::new(NodeReport::decode(&mut r)?)),
        CTL_DONE => Ctl::Done,
        CTL_RECOVER => {
            Ctl::Recover { new_gen: r.u32().ok()?, dead_cur: r.u32_vec().ok()?, dead_nodes: r.u32_vec().ok()? }
        }
        CTL_PIECES => {
            let n = r.usize().ok()?;
            let mut pieces = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let epoch = r.u32().ok()?;
                let owner = Pe(r.u32().ok()?);
                let lb_round = r.u32().ok()?;
                let n_states = r.usize().ok()?;
                let mut states = Vec::with_capacity(n_states.min(4096));
                for _ in 0..n_states {
                    let key = ObjKey { array: ArrayId(r.u32().ok()?), elem: ElemId(r.u32().ok()?) };
                    states.push((key, bytes::Bytes::from(r.bytes().ok()?.to_vec())));
                }
                let red_next = r.u32_vec().ok()?;
                pieces.push(FtPiece { epoch, owner, lb_round, states, red_next });
            }
            Ctl::Pieces(pieces)
        }
        CTL_RESTART => Ctl::Restart { snap_round: r.u32().ok()?, snapshot: r.bytes().ok()?.to_vec() },
        CTL_ABORT => Ctl::Abort(match r.u8().ok()? {
            0 => AbortReason::Other(r.str().ok()?.to_string()),
            1 => AbortReason::NoFailurePlan(r.u32().ok()?),
            2 => AbortReason::Transport(get_transport_error(&mut r)?),
            3 => AbortReason::Deadline,
            _ => return None,
        }),
        _ => return None,
    };
    Some(ctl)
}

// ---------------------------------------------------------------------------
// Per-node accounting
// ---------------------------------------------------------------------------

/// One node's share of the final accounting, as shipped to node 0.
struct NodeReport {
    node: u32,
    end_ns: u64,
    /// (orig PE, busy ns, messages, max queue depth) for every PE this
    /// node ever hosted.
    entries: Vec<(u32, u64, u64, u64)>,
    network: NetworkStats,
    peak_mailbox_bytes: u64,
    ctr: CounterSet,
    transport_error: Option<TransportError>,
}

impl NodeReport {
    fn encode(&self, w: &mut WireWriter) {
        w.u32(self.node).u64(self.end_ns).usize(self.entries.len());
        for &(pe, busy, msgs, depth) in &self.entries {
            w.u32(pe).u64(busy).u64(msgs).u64(depth);
        }
        let n = &self.network;
        w.u64(n.intra_messages).u64(n.intra_bytes).u64(n.cross_messages).u64(n.cross_bytes);
        w.u64(self.peak_mailbox_bytes);
        for (_, v) in self.ctr.iter() {
            w.u64(v);
        }
        match &self.transport_error {
            None => {
                w.u8(0);
            }
            Some(e) => put_transport_error(w.u8(1), e),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<NodeReport> {
        let node = r.u32().ok()?;
        let end_ns = r.u64().ok()?;
        let n = r.usize().ok()?;
        let mut entries = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            entries.push((r.u32().ok()?, r.u64().ok()?, r.u64().ok()?, r.u64().ok()?));
        }
        let network = NetworkStats {
            intra_messages: r.u64().ok()?,
            intra_bytes: r.u64().ok()?,
            cross_messages: r.u64().ok()?,
            cross_bytes: r.u64().ok()?,
        };
        let peak_mailbox_bytes = r.u64().ok()?;
        let mut ctr = CounterSet::new();
        for c in Ctr::ALL {
            ctr.add(c, r.u64().ok()?);
        }
        let transport_error = match r.u8().ok()? {
            0 => None,
            _ => Some(get_transport_error(r)?),
        };
        Some(NodeReport { node, end_ns, entries, network, peak_mailbox_bytes, ctr, transport_error })
    }
}

/// What the control plane adds to the shared [`Books`]: which original
/// PEs this node has hosted (its share of a [`NodeReport`]), whose final
/// reports the coordinator has merged, and when the run ended.  A
/// single-process run is a coordinator that merges none.
#[derive(Default)]
struct NodeShare {
    mine: BTreeSet<usize>,
    reported: BTreeSet<u32>,
    end_ns: u64,
}

fn add_traffic(n: &mut NetworkStats, (intra_msgs, intra_bytes): (u64, u64), (cross_msgs, cross_bytes): (u64, u64)) {
    n.intra_messages += intra_msgs;
    n.intra_bytes += intra_bytes;
    n.cross_messages += cross_msgs;
    n.cross_bytes += cross_bytes;
}

impl NodeShare {
    /// The run ended when the first exit was announced anywhere.
    fn note_end(&mut self, end_ns: u64) {
        if end_ns > 0 && (self.end_ns == 0 || end_ns < self.end_ns) {
            self.end_ns = end_ns;
        }
    }

    /// Close one generation's books from the local stack and the joined PE
    /// threads (`orig` maps their numbering to the original one).
    fn close_generation(
        &mut self,
        books: &mut Books,
        stack: &Stack,
        results: &mut [PeResult],
        orig: &[Pe],
        drops: u64,
    ) {
        let Stack { raw, transport, agg, injected } = stack;
        add_traffic(&mut books.network, raw.intra_traffic(), raw.cross_traffic());
        // What each PE delivered to itself never reached the transport's
        // counter; it is intra-cluster traffic all the same.
        for r in results.iter() {
            add_traffic(&mut books.network, r.local_traffic, (0, 0));
        }
        let (dev, crc_rejected) = injected.as_ref().map(|(f, v)| (f.stats(), v.rejected())).unwrap_or_default();
        let ast = agg.stats();
        for (c, n) in [
            (Ctr::Drops, dev.dropped),
            // Records the net reader could not parse were dropped the same
            // way a CRC-rejected packet is: counted, then retransmitted.
            (Ctr::CorruptRejected, crc_rejected + drops),
            (Ctr::DupDropped, transport.dup_dropped()),
            (Ctr::Reordered, dev.reordered),
            (Ctr::Retransmits, transport.retransmits()),
            (Ctr::FramesSent, ast.frames_sent),
            (Ctr::EnvelopesCoalesced, ast.envelopes_coalesced),
            (Ctr::FrameBytesSaved, ast.bytes_saved),
            (Ctr::FlushBySize, ast.flush_by_size),
            (Ctr::FlushByDeadline, ast.flush_by_deadline),
            (Ctr::CreditStalls, transport.credit_stalls()),
            (Ctr::CreditWaitNs, transport.credit_wait_ns()),
            (Ctr::EnvelopesShed, ast.envelopes_shed),
            (Ctr::ShedBytes, ast.shed_bytes),
            (Ctr::MailboxSignals, results.iter().map(|r| raw.mailbox(r.pe).wakeup_signals()).sum()),
        ] {
            books.ctr.add(c, n);
        }
        let host = results.first().filter(|r| r.pe == Pe(0)).map(|r| r.host);
        let rows = results.iter_mut().map(|r| {
            let o = orig[r.pe.index()];
            self.mine.insert(o.index());
            // Backlog from other PEs can sit in the raw mailbox or
            // (aggregating) in the unframed pending bank, the PE's own in
            // its local queue; the high-water marks see all three.
            let queue_depth = raw.mailbox(r.pe).max_depth().max(agg.pending_max_depth(r.pe)) + r.local_depth;
            let mut obs = r.obs.take();
            if let Some(obs) = &mut obs {
                // One mailbox high-water sample per generation (the
                // threads cannot observe queue depth from outside).
                obs.queue_depth.record(queue_depth as u64);
            }
            PeRow {
                orig: o,
                busy: r.busy,
                messages: r.messages,
                queue_depth,
                queue_bytes: raw.mailbox(r.pe).max_bytes() as u64 + agg.pending_max_bytes(r.pe) as u64 + r.local_bytes,
                ckpt_bytes: r.ft_bytes,
                obs,
            }
        });
        books.close_generation(rows, host);
    }

    fn to_report(&self, books: &Books, node: u32) -> NodeReport {
        let entry = |&o: &usize| (o as u32, books.busy[o].as_nanos(), books.msgs[o], books.qdepth[o] as u64);
        NodeReport {
            node,
            end_ns: self.end_ns,
            entries: self.mine.iter().map(entry).collect(),
            network: books.network.clone(),
            peak_mailbox_bytes: books.peak_mailbox_bytes,
            ctr: books.ctr.clone(),
            transport_error: books.transport_error,
        }
    }

    /// Fold a remote node's report into the coordinator's books.  Rows
    /// naming a PE the job never had are ignored.
    fn merge_report(&mut self, books: &mut Books, r: &NodeReport) {
        self.reported.insert(r.node);
        let width = books.busy.len();
        let rows = r.entries.iter().filter(|e| (e.0 as usize) < width).map(|&(pe, busy, msgs, depth)| PeRow {
            orig: Pe(pe),
            busy: Dur::from_nanos(busy),
            messages: msgs,
            queue_depth: depth as usize,
            queue_bytes: r.peak_mailbox_bytes,
            ckpt_bytes: 0,
            obs: None,
        });
        books.close_generation(rows, None);
        let n = &r.network;
        add_traffic(&mut books.network, (n.intra_messages, n.intra_bytes), (n.cross_messages, n.cross_bytes));
        books.ctr.merge(&r.ctr);
        self.note_end(r.end_ns);
        books.transport_error = books.transport_error.or(r.transport_error);
    }
}

// ---------------------------------------------------------------------------
// One generation's transport stack and peer set
// ---------------------------------------------------------------------------

/// `Transport → ReliableTransport → Aggregator` for one generation.
struct Stack {
    raw: Arc<Transport>,
    transport: Arc<ReliableTransport>,
    agg: Arc<Aggregator>,
    /// The fault-injection and CRC-verify devices, when a fault plan put
    /// them in the cross-cluster chain (their tallies close the books).
    injected: Option<(Arc<FaultDevice>, Arc<CrcDevice>)>,
}

impl Stack {
    fn build(cfg: &RunConfig, mut tc: TransportConfig) -> Stack {
        // With a fault plan the cross-cluster chain becomes
        // checksum → fault injection → verify → delay: an injected
        // corruption fails the CRC and is dropped (counted), so it
        // reaches the reliable layer as a plain loss.  Without a plan
        // the chain and the wrapper are both zero-overhead passthroughs.
        let injected = cfg.fault_plan.clone().map(|plan| {
            let fault = FaultDevice::for_reliable(plan);
            let verify = CrcDevice::verifier();
            tc.cross_extra = vec![CrcDevice::appender(), fault.clone(), verify.clone()];
            (fault, verify)
        });
        let raw = Transport::new(tc);
        let transport = match (&cfg.fault_plan, cfg.flow) {
            (Some(plan), Some(flow)) => ReliableTransport::with_flow(Arc::clone(&raw), plan.clone(), flow),
            (Some(plan), None) => ReliableTransport::with_plan(Arc::clone(&raw), plan.clone()),
            // Credit grants ride acks, so flow control needs the
            // reliable layer even on a clean network; a generous RTO
            // keeps the retransmit machinery from firing spuriously.
            (None, Some(flow)) => ReliableTransport::with_flow(
                Arc::clone(&raw),
                FaultPlan::default().with_rto(Dur::from_millis(1000)),
                flow,
            ),
            (None, None) => ReliableTransport::passthrough(Arc::clone(&raw)),
        };
        // Either way the aggregator learns the flow policy from the
        // reliable layer it wraps.
        let agg = match cfg.agg {
            Some(c) => Aggregator::with_policy(Arc::clone(&transport), c),
            None => Aggregator::passthrough(Arc::clone(&transport)),
        };
        Stack { raw, transport, agg, injected }
    }

    /// Flush any still-buffered frames, stop retransmissions, then wake
    /// every thread blocked on a mailbox.
    fn shutdown(&self) {
        self.agg.shutdown();
        self.transport.shutdown();
        self.raw.shutdown();
    }
}

/// This process's view of the other nodes for one generation.  A
/// single-process run has no mesh and no peers, so every broadcast and
/// gather degenerates to an empty iteration.  Dropping the link closes
/// the mesh, whichever way the generation ends.
struct Link {
    mesh: Option<Arc<NetMesh>>,
    me: u32,
    /// Every other live node.
    peers: Vec<u32>,
}

impl Drop for Link {
    fn drop(&mut self) {
        if let Some(mesh) = &self.mesh {
            mesh.shutdown();
        }
    }
}

impl Link {
    fn send(&self, to: u32, ctl: &Ctl) -> Result<(), NetError> {
        self.mesh.as_ref().map_or(Ok(()), |m| m.send_control(to, &encode_ctl(ctl)))
    }

    /// Send `make()` to every peer (built only if there is one); every
    /// peer is tried, the first error is returned.
    fn broadcast(&self, make: impl FnOnce() -> Ctl) -> Result<(), NetError> {
        if self.peers.is_empty() {
            return Ok(());
        }
        let (ctl, mut first_err) = (make(), Ok(()));
        for &n in &self.peers {
            first_err = first_err.and(self.send(n, &ctl));
        }
        first_err
    }

    /// A non-host node gives up: tell the coordinator why (best effort)
    /// and return the error to stand down with.
    fn abort_to_host(&self, reason: AbortReason) -> NetError {
        let err = NetError::Aborted { by: self.me, reason: reason.to_string() };
        let _ = self.send(0, &Ctl::Abort(reason));
        err
    }

    /// Wait up to `wait` for the next mesh event; with no mesh this is the
    /// plain watchdog tick.
    fn next_event(&self, wait: Duration) -> Option<NetEvent> {
        match &self.mesh {
            Some(mesh) => mesh.next_event(wait),
            None => {
                std::thread::sleep(wait);
                None
            }
        }
    }

    /// Feed control messages to `on` until every node in `awaiting` has
    /// answered (`on` returns true for the message that counts as that
    /// node's answer).  An `Abort`, the death of an awaited node or the
    /// deadline ends the wait with a structured error, which the
    /// coordinator relays to everyone else first.
    fn gather(
        &self,
        mut awaiting: BTreeSet<u32>,
        deadline: Instant,
        what: &str,
        mut on: impl FnMut(u32, Ctl) -> bool,
    ) -> Result<(), NetError> {
        while !awaiting.is_empty() {
            let err = match self.next_event(deadline.saturating_duration_since(Instant::now())) {
                Some(NetEvent::Control { from, bytes }) => match decode_ctl(&bytes) {
                    Some(Ctl::Abort(reason)) => NetError::Aborted { by: from, reason: reason.to_string() },
                    Some(ctl) => {
                        if on(from, ctl) {
                            awaiting.remove(&from);
                        }
                        continue;
                    }
                    None => continue, // stray/unknown control traffic is ignored
                },
                Some(NetEvent::PeerDown { node }) if awaiting.contains(&node) => NetError::PeerClosed { node },
                Some(NetEvent::PeerDown { .. }) => continue,
                None => NetError::Timeout { what: format!("{what} from nodes {awaiting:?}") },
            };
            if self.me == 0 {
                let _ = self.broadcast(|| Ctl::Abort(AbortReason::Other(err.to_string())));
            }
            return Err(err);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The run itself
// ---------------------------------------------------------------------------

/// Run `program` on the wall-clock engine.  With [`RunConfig::net`] set
/// this is one process's share of a multi-process job, binding the listen
/// address named there: every process runs the same program with the same
/// config; node 0 returns the merged report, the others a local stub
/// (their accounting went to node 0).  Unset, it is the one-node case:
/// the whole job in this process.
pub fn run_multi_process(
    topo: Topology,
    tcfg: ThreadedConfig,
    cfg: RunConfig,
    program: Program,
) -> Result<RunReport, NetError> {
    let session = cfg.net.clone().map(NetSession::bind).transpose()?;
    run_generations(topo, tcfg, cfg, program, session)
}

/// [`run_multi_process`] over an already-bound [`NetSession`] — the
/// hermetic-test entry point (bind port 0 first, build the manifest from
/// real addresses, then hand each node its listener).
pub fn run_with_session(
    topo: Topology,
    tcfg: ThreadedConfig,
    cfg: RunConfig,
    program: Program,
    session: NetSession,
) -> Result<RunReport, NetError> {
    run_generations(topo, tcfg, cfg, program, Some(session))
}

/// The generation loop: launch → watch → close the books → end the run
/// or shrink/expand and go again.
///
/// With a [`mdo_netsim::FailurePlan`] armed, every PE thread mails
/// heartbeats to PE 0 and the watchdog turns a silent PE into failure
/// suspicion after `suspect_after`; suspected or panicked PEs trigger
/// buddy-checkpoint recovery over the survivors — the same [`Membership`]
/// state machine as the virtual-time engine, driven by wall-clock
/// generations of real threads.
fn run_generations(
    topo: Topology,
    tcfg: ThreadedConfig,
    cfg: RunConfig,
    program: Program,
    session: Option<NetSession>,
) -> Result<RunReport, NetError> {
    // `None` is the one-node case: this process is node 0 and hosts every
    // PE.  Joins and obs recording are single-process features.
    let my_node = session.as_ref().map(|s| s.node());
    let (me, single) = (my_node.unwrap_or(0), my_node.is_none());
    let is_host = me == 0;
    if let Some(s) = &session {
        let n_nodes = s.config().num_nodes();
        if n_nodes != topo.num_clusters() {
            return Err(NetError::Malformed {
                what: format!("{}-node manifest for a {}-cluster topology", n_nodes, topo.num_clusters()),
            });
        }
        let armed = [("join_plan", cfg.join_plan.is_some()), ("obs", cfg.obs.is_some())];
        match armed.iter().filter(|(_, set)| *set).map(|&(name, _)| name).collect::<Vec<_>>()[..] {
            [] => {}
            [one] => eprintln!("mdo-net node {me}: {one} is a single-process feature; ignoring it"),
            ref all => eprintln!("mdo-net node {me}: {} are single-process features; ignoring them", all.join(" and ")),
        }
    }
    let obs_cfg = cfg.obs.clone().unwrap_or_default();
    let failure_plan = cfg.failure_plan.clone();
    let my_cluster = my_node.map(|n| ClusterId(n as u16));
    let mut live: Vec<u32> = (0..if single { 1 } else { topo.num_clusters() as u32 }).collect();
    let mut m = Membership::new(program, topo, cfg, single);
    let record_on = m.books.obs.is_some();
    let mut share = NodeShare::default();

    let decode_rejected = Arc::new(AtomicU64::new(0));
    let exit_announced = Arc::new(AtomicBool::new(false));
    let end_ns = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let deadline = t0 + tcfg.max_wall;
    let mut unrecoverable: Option<UnrecoverableError> = None;
    // (epoch + 1) of the newest buddy-checkpoint epoch known complete this
    // generation; 0 until PE 0 sees a full round of acks.
    let ckpt_done = Arc::new(AtomicU64::new(0));

    let mut mesh_gen: u32 = 0;
    let mut nodes: Vec<Node> = m.build_nodes(my_cluster);

    'generations: loop {
        let gen_topo = m.shared().topo.clone();
        let n_pes = gen_topo.num_pes();
        // Checkpoint epochs restart with the generation; pending joins
        // wait for a fresh complete epoch on the new cluster.
        ckpt_done.store(0, Ordering::Release);
        let local_pes: Vec<Pe> = nodes.iter().map(|n| n.pe()).collect();

        let mesh = session.as_ref().map(|s| s.establish(mesh_gen, &gen_topo, &live)).transpose()?.map(Arc::new);
        let mut link = Link { mesh, me, peers: live.iter().copied().filter(|&n| n != me).collect() };
        let mut tc = TransportConfig::new(gen_topo.clone(), tcfg.latency.clone());
        tc.wire = link.mesh.as_ref().map(|m| WireBinding::new(Arc::clone(m) as Arc<dyn Wire>, &local_pes, n_pes));
        let stack = Stack::build(&m.shared().cfg, tc);
        let (transport, agg) = (&stack.transport, &stack.agg);
        if let Some(mesh) = &link.mesh {
            // Inbound wire packets land straight in the destination PE's
            // raw mailbox — the exact point where in-process cross-chain
            // traffic lands, so the reliable layer and aggregator above see
            // identical bytes.  (A hostile dst is bounds-checked and dropped.)
            let raw = Arc::clone(&stack.raw);
            mesh.start(move |pkt| {
                if pkt.dst.index() < n_pes {
                    raw.mailbox(pkt.dst).post(pkt);
                }
            });
        }

        let stop = Arc::new(AtomicBool::new(false));
        let status: Arc<Vec<AtomicU8>> = Arc::new((0..n_pes).map(|_| AtomicU8::new(PE_ALIVE)).collect());
        let gen_start = elapsed_ns(t0);
        let last_heard: Arc<Vec<AtomicU64>> = Arc::new((0..n_pes).map(|_| AtomicU64::new(gen_start)).collect());
        let orig_map: Arc<Vec<Pe>> = Arc::new(m.orig().to_vec());
        let handles: Vec<_> = nodes
            .drain(..)
            .map(|node| {
                let pe = node.pe();
                let ctl = ThreadCtl {
                    agg: Arc::clone(agg),
                    stop: Arc::clone(&stop),
                    exit_announced: Arc::clone(&exit_announced),
                    end_ns: Arc::clone(&end_ns),
                    decode_rejected: Arc::clone(&decode_rejected),
                    status: Arc::clone(&status),
                    last_heard: Arc::clone(&last_heard),
                    t0,
                    topo: gen_topo.clone(),
                    record_on,
                    obs_cfg: obs_cfg.clone(),
                    orig_map: Arc::clone(&orig_map),
                    compute_sleep: tcfg.compute_sleep,
                    hb_interval: failure_plan.as_ref().map(|p| p.hb_interval.to_std()),
                    crash: m.crash_of(pe),
                    ckpt_done: Arc::clone(&ckpt_done),
                };
                let thread = std::thread::Builder::new().name(format!("mdo-pe{}", pe.0));
                (pe, thread.spawn(move || pe_thread(pe, node, ctl)).expect("spawn PE thread"))
            })
            .collect();

        if is_host {
            // Boot the program (after a recovery the startup closure is
            // gone, so PE 0 goes straight to the restore-resume broadcast).
            let startup = Envelope {
                src: Pe(0),
                dst: Pe(0),
                priority: SYSTEM_PRIORITY,
                sent_at_ns: gen_start,
                body: MsgBody::Startup,
            };
            agg.send_with(Pe(0), Pe(0), SYSTEM_PRIORITY, true, |buf| startup.encode_into(buf));
        }

        // ---- watchdog: the deadline, panic flags, retry exhaustion,
        // heartbeat suspicion, due joins and the peers' control traffic.
        let suspect_after = failure_plan.as_ref().map(|p| p.suspect_after.as_nanos());
        let mut flagged = vec![false; n_pes];
        let mut gen_failed: Vec<(Pe, FailureCause)> = Vec::new();
        let mut gen_join: Vec<(ClusterId, Pe)> = Vec::new();
        let mut dead_nodes: Vec<u32> = Vec::new();
        let mut remote_recover: Option<(u32, Vec<Pe>, Vec<u32>)> = None;
        let mut abort: Option<NetError> = None;
        let mut transport_error: Option<TransportError> = None;
        while !stop.load(Ordering::Acquire) {
            if Instant::now() >= deadline {
                if is_host {
                    unrecoverable = Some(UnrecoverableError::DeadlineExceeded);
                } else {
                    abort = Some(link.abort_to_host(AbortReason::Deadline));
                }
            }
            // Only a panic is read off the status byte.  An injected crash
            // is silent by design: the heartbeat detector below has to
            // notice it, in one process exactly as across many.
            for &pe in &local_pes {
                let i = pe.index();
                if flagged[i] || status[i].load(Ordering::Acquire) != PE_PANICKED {
                    continue;
                }
                flagged[i] = true;
                if failure_plan.is_none() {
                    if is_host {
                        unrecoverable = Some(UnrecoverableError::NoFailurePlan { pe: orig_map[i] });
                    } else {
                        abort = Some(link.abort_to_host(AbortReason::NoFailurePlan(orig_map[i].0)));
                    }
                } else if i == 0 {
                    unrecoverable = Some(UnrecoverableError::HostFailed);
                } else if is_host {
                    gen_failed.push((pe, FailureCause::Panic));
                }
                // A remote PE panicking with a plan armed is node 0's to
                // detect: its heartbeats stop, suspicion fires there.
            }
            if let Some(err) = transport.error() {
                if failure_plan.is_some() && err.dst != Pe(0) {
                    // With fault tolerance armed, a peer that exhausts
                    // retries is failure evidence, not a fatal error.
                    if is_host && !flagged[err.dst.index()] {
                        flagged[err.dst.index()] = true;
                        gen_failed.push((err.dst, FailureCause::Unresponsive));
                    }
                } else if is_host {
                    transport_error = Some(err);
                } else {
                    abort = Some(link.abort_to_host(AbortReason::Transport(err)));
                }
            }
            if let Some(limit) = suspect_after.filter(|_| is_host) {
                let now = elapsed_ns(t0);
                // PE 0 is exempt: the detector runs next to it, and a
                // PE 0 failure is unrecoverable anyway (see DESIGN.md).
                for i in 1..n_pes {
                    if !flagged[i] && now.saturating_sub(last_heard[i].load(Ordering::Acquire)) > limit {
                        flagged[i] = true;
                        let crashed = status[i].load(Ordering::Acquire) == PE_CRASHED;
                        let cause = if crashed { FailureCause::Injected } else { FailureCause::Unresponsive };
                        gen_failed.push((Pe(i as u32), cause));
                    }
                }
            }
            // Admit due joiners only at a safe point: no failure in flight
            // and a complete buddy checkpoint to restart from.
            if gen_failed.is_empty() {
                gen_join = m.due_joins(Time::from_nanos(elapsed_ns(t0)), ckpt_done.load(Ordering::Acquire) > 0);
            }
            // Drain mesh events; the first wait doubles as the 2 ms tick,
            // skipped once this pass has found a reason to stand down (a
            // program left running after a join is admitted can exit and
            // lose it).  The first reason stands: neither an `Abort` nor the
            // structured error one carried is overwritten by the `PeerDown`
            // of its sender closing up.
            let decided =
                unrecoverable.is_some() || transport_error.is_some() || !gen_failed.is_empty() || !gen_join.is_empty();
            let mut wait = if decided { Duration::ZERO } else { Duration::from_millis(2) };
            while abort.is_none() && unrecoverable.is_none() && transport_error.is_none() {
                let Some(ev) = link.next_event(wait) else { break };
                wait = Duration::ZERO;
                match ev {
                    NetEvent::PeerDown { node } if !live.contains(&node) || dead_nodes.contains(&node) => {}
                    NetEvent::PeerDown { node } if is_host && failure_plan.is_some() => {
                        dead_nodes.push(node);
                        for pe in gen_topo.pes_in(ClusterId(node as u16)) {
                            if !flagged[pe.index()] {
                                flagged[pe.index()] = true;
                                gen_failed.push((pe, FailureCause::Unresponsive));
                            }
                        }
                    }
                    // The coordinator cannot lose a node without a plan;
                    // a participant cannot lose the coordinator.
                    NetEvent::PeerDown { node } if is_host || node == 0 => abort = Some(NetError::PeerClosed { node }),
                    NetEvent::PeerDown { .. } => {}
                    NetEvent::Control { from, bytes } => match decode_ctl(&bytes) {
                        Some(Ctl::Report(r)) if is_host => share.merge_report(&mut m.books, &r),
                        Some(Ctl::Abort(reason)) if is_host => match reason {
                            AbortReason::NoFailurePlan(pe) => {
                                unrecoverable = Some(UnrecoverableError::NoFailurePlan { pe: Pe(pe) })
                            }
                            AbortReason::Deadline => unrecoverable = Some(UnrecoverableError::DeadlineExceeded),
                            AbortReason::Transport(e) => transport_error = Some(e),
                            AbortReason::Other(s) => abort = Some(NetError::Aborted { by: from, reason: s }),
                        },
                        Some(Ctl::Abort(reason)) => {
                            abort = Some(NetError::Aborted { by: from, reason: reason.to_string() })
                        }
                        Some(Ctl::Recover { new_gen, dead_cur, dead_nodes }) if !is_host => {
                            remote_recover = Some((new_gen, dead_cur.into_iter().map(Pe).collect(), dead_nodes));
                        }
                        Some(Ctl::Done) if !is_host => stop.store(true, Ordering::Release),
                        _ => {} // stray/unknown control traffic is ignored
                    },
                }
            }
            if unrecoverable.is_some()
                || transport_error.is_some()
                || abort.is_some()
                || remote_recover.is_some()
                || !gen_failed.is_empty()
                || !gen_join.is_empty()
            {
                stop.store(true, Ordering::Release);
            }
        }
        stack.shutdown();
        let mut results: Vec<PeResult> =
            handles.into_iter().map(|(pe, h)| h.join().unwrap_or_else(|_| PeResult::lost(pe))).collect();
        results.sort_by_key(|r| r.pe);

        // A buddy pair dying at the same instant may have only one member
        // past the suspicion threshold when the watchdog fires; the joined
        // status flags name every casualty.
        if is_host && failure_plan.is_some() && unrecoverable.is_none() {
            for r in &results {
                let i = r.pe.index();
                let state = status[i].load(Ordering::Acquire);
                if (r.node.is_none() || state != PE_ALIVE) && !flagged[i] && i != 0 {
                    flagged[i] = true;
                    let cause = if state == PE_CRASHED { FailureCause::Injected } else { FailureCause::Unresponsive };
                    gen_failed.push((r.pe, cause));
                }
            }
        }

        // Close this generation's books (original PE numbering).
        let mesh_drops = link.mesh.as_ref().map_or(0, |m| m.drops());
        share.close_generation(&mut m.books, &stack, &mut results, &orig_map, mesh_drops);
        share.note_end(end_ns.load(Ordering::Acquire));
        m.books.transport_error = m.books.transport_error.or(transport_error);
        if let Some(err) = abort {
            return Err(err);
        }

        // ---- disposition: end the run, or go again over a new topology.
        let exited = exit_announced.load(Ordering::Acquire);
        let run_over = unrecoverable.is_some()
            || m.books.transport_error.is_some()
            || exited
            || (gen_failed.is_empty() && gen_join.is_empty());
        if remote_recover.is_none() && (!is_host || run_over) {
            let clean = exited && unrecoverable.is_none() && m.books.transport_error.is_none();
            if !is_host {
                if !clean {
                    // A local transport error or dead PE already messaged
                    // the coordinator from the watchdog.
                    return Err(NetError::Aborted { by: me, reason: "run ended abnormally".into() });
                }
                link.send(0, &Ctl::Report(Box::new(share.to_report(&m.books, me))))?;
                link.gather(BTreeSet::from([0]), deadline, "Done", |_, ctl| matches!(ctl, Ctl::Done))?;
            } else if clean {
                // Gather the outstanding reports, then Done.  Reports are
                // tiny; 15 s is generous and still bounded.
                let awaiting = link.peers.iter().copied().filter(|n| !share.reported.contains(n)).collect();
                let limit = deadline.min(Instant::now() + Duration::from_secs(15));
                link.gather(awaiting, limit, "final report", |_, ctl| match ctl {
                    Ctl::Report(r) => {
                        share.merge_report(&mut m.books, &r);
                        true
                    }
                    _ => false,
                })?;
                let _ = link.broadcast(|| Ctl::Done);
            } else {
                // Errorful end: tell everyone to stand down, keep what we have.
                let reason = match (&unrecoverable, m.books.transport_error) {
                    (Some(UnrecoverableError::DeadlineExceeded), _) => AbortReason::Deadline,
                    (_, Some(e)) => AbortReason::Transport(e),
                    (u, None) => AbortReason::Other(u.as_ref().map_or_else(|| "aborted".into(), |u| u.to_string())),
                };
                let _ = link.broadcast(|| Ctl::Abort(reason));
            }
            break 'generations;
        }

        // ---- a new generation.  Everyone restarts from the newest
        // complete buddy snapshot, over the survivors of a failure
        // (shrink) or, with nothing dead, over a topology widened by the
        // due joiners (expand; `ckpt_done` guaranteed a snapshot exists).
        // Joins racing a failure wait: recover first.
        let at = Time::from_nanos(elapsed_ns(t0));
        let (new_gen, dead_cur, dead_nodes) = remote_recover
            .unwrap_or_else(|| (mesh_gen + 1, gen_failed.iter().map(|&(pe, _)| pe).collect(), dead_nodes));
        let gen_lb_rounds = results.first().filter(|r| r.pe == Pe(0)).map_or(0, |r| r.host.lb_rounds);
        let mut survivors: Vec<Node> =
            results.into_iter().filter(|r| !dead_cur.contains(&r.pe)).filter_map(|r| r.node).collect();
        let mut pieces: Vec<FtPiece> = survivors.iter_mut().flat_map(|n| n.take_ft_pieces()).collect();
        let snapshot = if is_host {
            m.record_failures(&gen_failed, at);
            link.peers.retain(|n| !dead_nodes.contains(n));
            let dead: Vec<u32> = dead_cur.iter().map(|p| p.0).collect();
            link.broadcast(|| Ctl::Recover { new_gen, dead_cur: dead, dead_nodes: dead_nodes.clone() })?;
            link.gather(link.peers.iter().copied().collect(), deadline, "buddy pieces", |_, ctl| match ctl {
                Ctl::Pieces(p) => {
                    pieces.extend(p);
                    true
                }
                Ctl::Report(r) => {
                    share.merge_report(&mut m.books, &r);
                    false
                }
                _ => false,
            })?;
            let (snapshot, snap_round) = match m.assemble(&pieces, gen_lb_rounds) {
                Ok(found) => found,
                Err(e) => {
                    unrecoverable = Some(e);
                    let _ = link.broadcast(|| Ctl::Abort(AbortReason::Other("no complete buddy snapshot".into())));
                    break 'generations;
                }
            };
            link.broadcast(|| Ctl::Restart { snap_round, snapshot: snapshot.encode() })?;
            m.keep_host(survivors.iter_mut().find(|n| n.pe() == Pe(0)).expect("PE 0 survives"));
            snapshot
        } else {
            link.send(0, &Ctl::Pieces(pieces))?;
            let mut restart = None;
            link.gather(BTreeSet::from([0]), deadline, "restart snapshot", |_, ctl| {
                if let Ctl::Restart { snapshot, .. } = ctl {
                    restart = Some(snapshot);
                }
                restart.is_some()
            })?;
            Snapshot::decode(&restart.expect("gather saw the Restart"))
                .map_err(|e| NetError::Malformed { what: format!("restart snapshot: {e:?}") })?
        };
        let change = if dead_cur.is_empty() {
            Change::Expand { joiners: gen_join }
        } else {
            live.retain(|n| !dead_nodes.contains(n));
            mesh_gen = new_gen;
            Change::Shrink { dead_cur }
        };
        m.advance(change, snapshot, at);
        nodes = m.build_nodes(my_cluster);
    }

    // ---- assemble this process's report ------------------------------
    m.books.ctr.add(Ctr::CorruptRejected, decode_rejected.load(Ordering::Relaxed));
    let ended = if share.end_ns > 0 { share.end_ns } else { elapsed_ns(t0) };
    Ok(m.into_report(Time::from_nanos(ended), unrecoverable))
}
