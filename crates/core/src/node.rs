//! The engine-agnostic per-PE runtime core.
//!
//! A [`Node`] is everything one PE does that is independent of *how* time
//! and transport work: it owns the local chare elements, dispatches
//! incoming envelopes to handlers, routes handler output (sends,
//! broadcasts, reduction contributions), runs the reduction trees, the
//! AtSync load-balancing barrier with migration, and the quiescence-
//! detection waves.  Engines (virtual-time simulation, threaded) feed
//! envelopes in via [`Node::handle`] and transmit whatever the node
//! [`NodeHooks::emit`]s.
//!
//! Keeping the node engine-agnostic is the property that makes the
//! paper's claim testable: the *same* application objects — and the same
//! runtime semantics — run under swept artificial latencies (sim engine)
//! and under real injected delays (threaded engine).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use mdo_netsim::{Dur, Pe, SpanTree, Time, Topology};

use crate::array::{petree, ArrayLocal, ArraySpec};
use crate::balancer::{run_strategy, LbInput, ObjMeasurement, Strategy};
use crate::chare::{Chare, Ctx, CtxOut, CtxSink, NO_PAYLOAD};
use crate::checkpoint::{CkptAssembly, FtPiece};
use crate::envelope::{Envelope, LbObjStat, MsgBody, ReduceData, APP_PRIORITY, SYSTEM_PRIORITY};
use crate::ids::{ArrayId, EntryId, ObjKey};
use crate::program::{CheckpointClient, Program, QuiescenceClient, ReductionClient, RunConfig, StartupFn};
use crate::wire::{WireReader, WireWriter};

/// Priority given to cross-cluster application messages when the §6
/// Grid-priority extension is enabled (more urgent than local app traffic,
/// less urgent than runtime control).
pub const GRID_PRIORITY: i32 = -1_000;

/// Engine-wide immutable context shared by every node.
pub struct NodeShared {
    /// The job layout.
    pub topo: Topology,
    /// All array specs, indexed by `ArrayId`.
    pub arrays: Vec<Arc<ArraySpec>>,
    /// Runtime configuration.
    pub cfg: RunConfig,
    /// Checkpoint to restore element state from (None = fresh start).
    pub restore: Option<Arc<crate::checkpoint::Snapshot>>,
}

/// What an engine must provide while a node processes one envelope.
pub trait NodeHooks {
    /// The current time (virtual or wall-clock).
    fn now(&self) -> Time;

    /// Queue `env` for transmission.  `after` is the compute time charged
    /// within the current handler before the send was issued; the sim
    /// engine stamps the wire departure at `now() + after`.
    fn emit(&mut self, env: Envelope, after: Dur);
}

/// Result of processing one envelope.
#[derive(Debug, Default)]
pub struct HandleOutcome {
    /// Total compute charged by handlers run for this envelope.
    pub charged: Dur,
    /// Whether the program requested termination.
    pub exit: bool,
    /// Execution spans (object, charged work) for tracing — populated only
    /// when observability is armed ([`RunConfig::obs`]).
    pub spans: Vec<(Option<ObjKey>, Dur)>,
    /// Set when this envelope completed a buddy-checkpoint pack on this PE
    /// (engines record it as a checkpoint event).
    pub ckpt_epoch: Option<u32>,
    /// Set on PE 0 when this envelope completed a buddy-checkpoint epoch
    /// cluster-wide (every PE acked its piece).  Engines use it as the
    /// admission gate for pending joins: a complete epoch guarantees
    /// `assemble_buddy_snapshot` over all live PEs succeeds.
    pub ckpt_complete: Option<u32>,
}

/// Host-side closures, present only on PE 0's node.
pub struct HostParts {
    startup: Option<StartupFn>,
    reduction_clients: HashMap<ArrayId, ReductionClient>,
    quiescence_client: Option<QuiescenceClient>,
    checkpoint_client: Option<CheckpointClient>,
}

impl HostParts {
    /// Empty host state (for PEs other than 0).
    pub fn empty() -> Self {
        HostParts { startup: None, reduction_clients: HashMap::new(), quiescence_client: None, checkpoint_client: None }
    }

    /// Extract the host side of a program (the array specs go to
    /// [`NodeShared`]; see [`split_program`]).
    pub fn from_program(p: &mut Program) -> Self {
        HostParts {
            startup: p.startup.take(),
            reduction_clients: std::mem::take(&mut p.reduction_clients),
            quiescence_client: p.quiescence_client.take(),
            checkpoint_client: p.checkpoint_client.take(),
        }
    }
}

/// Split a program into the shared spec table and PE 0's host closures.
pub fn split_program(mut p: Program, topo: Topology, cfg: RunConfig) -> (Arc<NodeShared>, HostParts) {
    let host = HostParts::from_program(&mut p);
    let restore = p.restore.take();
    let shared = Arc::new(NodeShared { topo, arrays: std::mem::take(&mut p.arrays), cfg, restore });
    (shared, host)
}

#[derive(Default)]
struct QdLocal {
    sent: u64,
    processed: u64,
    active: bool,
}

#[derive(Default)]
struct QdRoot {
    phase: u32,
    replies: usize,
    sum_sent: u64,
    sum_processed: u64,
    any_active: bool,
    prev: Option<(u64, u64)>,
    running: bool,
}

#[derive(Default)]
struct LbState {
    in_barrier: bool,
    synced: HashSet<ObjKey>,
    assign_seen: bool,
    expect_incoming: usize,
    incoming: usize,
    sent_arrived: bool,
    early_states: Vec<(ObjKey, Bytes)>,
    /// App messages that arrived for an element assigned here but not yet
    /// installed (they raced ahead of its MigrateState).
    pending_local: Vec<(ObjKey, EntryId, Bytes, i32)>,
    // PE 0 coordination:
    reports: Vec<LbObjStat>,
    report_pes: usize,
    arrived_pes: usize,
    rounds: u32,
    migrations: u64,
    /// Barriers where the feedback balancer decided to run the strategy
    /// (PE 0; 0 unless `RunConfig::feedback` is set).
    rebalance_triggers: u32,
}

/// Per-PE fault-tolerance state: buddy-checkpoint pieces held for
/// ourselves and for the PE whose buddy we are, plus PE-0 coordination.
#[derive(Default)]
struct FtState {
    /// Next checkpoint epoch to start (PE 0 only).
    epoch: u32,
    /// BuddyAcks received for the in-flight epoch (PE 0 only).
    acks: usize,
    /// Checkpoint pieces held in memory (own state + buddy's state), with
    /// two-epoch retention so an epoch interrupted by a crash never
    /// invalidates the previous complete one.
    pieces: Vec<FtPiece>,
    /// Total chare-state bytes this PE has packed into buddy checkpoints.
    bytes_stored: u64,
}

/// The per-PE runtime core.
pub struct Node {
    shared: Arc<NodeShared>,
    pe: Pe,
    /// The elements resident here.  Ordered, so packing and migration
    /// enumerate them the same way on every run: snapshots and migration
    /// batches are byte-identical.
    elems: BTreeMap<ObjKey, Box<dyn Chare>>,
    arrays: Vec<ArrayLocal>,
    reductions: Vec<crate::reduction::PeReductions>,
    /// Tree-mode child-partial buffers, one per array (unused when
    /// `tree` is `None`: the flat path folds children on arrival).
    tree_red: Vec<crate::reduction::TreeReductions>,
    root: Vec<crate::reduction::RootDelivery>,
    /// The topology-aware collective tree, when
    /// [`RunConfig::tree_collectives`] is armed.  Derived from
    /// `shared.topo` at construction, so every shrink/expand generation —
    /// which builds fresh nodes over the new topology — rebuilds it
    /// consistently on every engine.
    tree: Option<SpanTree>,
    host: HostParts,
    strategy: Arc<dyn Strategy>,
    lb: LbState,
    qd: QdLocal,
    qd_root: QdRoot,
    obj_load: HashMap<ObjKey, u64>,
    obj_comm: HashMap<ObjKey, HashMap<ObjKey, u64>>,
    ckpt: CkptAssembly,
    ft: FtState,
    messages_processed: u64,
    exited: bool,
}

impl Node {
    /// Build the node for `pe`, constructing its initial local elements.
    /// `host` should be [`HostParts::empty`] except on PE 0.
    pub fn new(shared: Arc<NodeShared>, pe: Pe, host: HostParts) -> Self {
        let arrays: Vec<ArrayLocal> =
            shared.arrays.iter().map(|s| ArrayLocal::new(Arc::clone(s), &shared.topo)).collect();
        let n_arrays = arrays.len();
        let mut reductions: Vec<crate::reduction::PeReductions> =
            (0..n_arrays).map(|_| crate::reduction::PeReductions::new()).collect();
        let mut root: Vec<crate::reduction::RootDelivery> =
            (0..n_arrays).map(|_| crate::reduction::RootDelivery::new()).collect();
        let mut elems = BTreeMap::new();
        for local in &arrays {
            for elem in local.elems_on(pe) {
                let key = ObjKey::new(local.spec.id, elem);
                match shared.restore.as_deref() {
                    None => {
                        elems.insert(key, (local.spec.factory)(elem));
                    }
                    Some(snapshot) => {
                        let unpacker = local
                            .spec
                            .unpacker
                            .as_ref()
                            .unwrap_or_else(|| panic!("restore requires migratable arrays ({})", local.spec.name));
                        let state = snapshot
                            .elem_state(local.spec.id, elem)
                            .unwrap_or_else(|| panic!("snapshot missing {key:?}"));
                        let mut r = WireReader::new(state);
                        let seq = r.u32().expect("restore header");
                        let chare = unpacker(elem, &mut r);
                        assert!(r.is_done(), "trailing bytes restoring {key:?}");
                        reductions[local.spec.id.0 as usize].import_elem_seq(key, seq);
                        elems.insert(key, chare);
                    }
                }
            }
        }
        if pe == Pe(0) {
            if let Some(snapshot) = shared.restore.as_deref() {
                for a in &snapshot.arrays {
                    root[a.array.0 as usize].set_next(a.red_next);
                }
            }
        }
        let strategy = shared.cfg.lb.strategy();
        let tree = shared.cfg.tree_collectives.map(|tc| SpanTree::build(&shared.topo, tc));
        let tree_red = (0..n_arrays).map(|_| crate::reduction::TreeReductions::new()).collect();
        Node {
            shared,
            pe,
            elems,
            arrays,
            reductions,
            tree_red,
            root,
            tree,
            host,
            strategy,
            lb: LbState::default(),
            qd: QdLocal::default(),
            qd_root: QdRoot::default(),
            obj_load: HashMap::new(),
            obj_comm: HashMap::new(),
            ckpt: CkptAssembly::default(),
            ft: FtState::default(),
            messages_processed: 0,
            exited: false,
        }
    }

    /// This node's PE.
    pub fn pe(&self) -> Pe {
        self.pe
    }

    /// Elements currently resident here.
    pub fn local_elems(&self) -> usize {
        self.elems.len()
    }

    /// Envelopes processed so far.
    pub fn messages_processed(&self) -> u64 {
        self.messages_processed
    }

    /// Fold `n` envelopes the transport shed (overload policy `Shed`) into
    /// the quiescence books.  A shed envelope was counted as sent at its
    /// origin but will never be delivered; accounting it as "processed by
    /// the network" here keeps the sent/processed sums balanced, so
    /// quiescence detection still terminates under saturation.
    pub fn note_sheds(&mut self, n: u64) {
        self.qd.processed += n;
    }

    /// Completed load-balancing rounds (meaningful on PE 0).
    pub fn lb_rounds(&self) -> u32 {
        self.lb.rounds
    }

    /// Total object migrations across rounds (meaningful on PE 0).
    pub fn migrations(&self) -> u64 {
        self.lb.migrations
    }

    /// Barriers where the feedback balancer ran the strategy (meaningful
    /// on PE 0; 0 unless `RunConfig::feedback` is set).
    pub fn rebalance_triggers(&self) -> u32 {
        self.lb.rebalance_triggers
    }

    /// Buddy-checkpoint epochs started (meaningful on PE 0).
    pub(crate) fn ft_epochs(&self) -> u32 {
        self.ft.epoch
    }

    /// Chare-state bytes this PE packed into buddy checkpoints.
    pub(crate) fn ft_bytes_stored(&self) -> u64 {
        self.ft.bytes_stored
    }

    /// Drain the buddy-checkpoint pieces held here (used by engines when
    /// reassembling a snapshot after a PE failure).
    pub(crate) fn take_ft_pieces(&mut self) -> Vec<FtPiece> {
        std::mem::take(&mut self.ft.pieces)
    }

    /// Extract the host closures so a recovered generation of nodes can
    /// reuse them (the startup closure was already consumed, so the new
    /// PE 0 goes straight to the restore-resume path).
    pub(crate) fn take_host(&mut self) -> HostParts {
        std::mem::replace(&mut self.host, HostParts::empty())
    }

    fn topo(&self) -> &Topology {
        &self.shared.topo
    }

    fn num_pes(&self) -> usize {
        self.shared.topo.num_pes()
    }

    /// Process one delivered envelope.
    pub fn handle(&mut self, env: Envelope, hooks: &mut dyn NodeHooks) -> HandleOutcome {
        let mut outcome = HandleOutcome::default();
        if self.exited {
            return outcome;
        }
        self.messages_processed += 1;
        let priority = env.priority;
        let src = env.src;
        match env.body {
            MsgBody::App { target, entry, payload } => {
                self.qd.processed += 1;
                self.qd.active = true;
                self.deliver_app(target, entry, payload, priority, hooks, &mut outcome);
            }
            MsgBody::Broadcast { array, entry, payload } => {
                self.qd.processed += 1;
                self.qd.active = true;
                // Forward down the PE tree first so propagation overlaps
                // with local delivery.
                for child in self.bcast_children() {
                    self.qd.sent += 1;
                    self.emit_env(
                        hooks,
                        child,
                        APP_PRIORITY,
                        MsgBody::Broadcast { array, entry, payload: payload.clone() },
                        Dur::ZERO,
                    );
                }
                let locals: Vec<ObjKey> =
                    self.arrays[array.0 as usize].elems_on(self.pe).map(|e| ObjKey::new(array, e)).collect();
                for key in locals {
                    // Route through deliver_app: an element assigned here
                    // whose state is still in flight (mid-migration) gets
                    // its copy buffered instead of crashing the PE.
                    self.deliver_app(key, entry, payload.clone(), priority, hooks, &mut outcome);
                }
            }
            MsgBody::Multi { array, elems, entry, payload } => {
                self.qd.processed += 1;
                self.qd.active = true;
                if self.tree.is_some() {
                    // Tree multicast: a gateway receives one Multi for its
                    // whole cluster and re-splits it by current element
                    // location — locals are delivered, remote groups are
                    // re-emitted as Multis (still one wire message per
                    // destination, and still one WAN hop per cluster if a
                    // migration moved elements across the wide area).
                    let (locals, remote) = self.split_by_location(array, elems);
                    for (dst, group) in remote {
                        self.qd.sent += 1;
                        self.emit_env(
                            hooks,
                            dst,
                            priority,
                            MsgBody::Multi { array, elems: group, entry, payload: payload.clone() },
                            Dur::ZERO,
                        );
                    }
                    for elem in locals {
                        let key = ObjKey::new(array, elem);
                        self.deliver_app(key, entry, payload.clone(), priority, hooks, &mut outcome);
                    }
                } else {
                    for elem in elems {
                        let key = ObjKey::new(array, elem);
                        self.deliver_app(key, entry, payload.clone(), priority, hooks, &mut outcome);
                    }
                }
            }
            MsgBody::ReduceUp { array, seq, op, count, data } => {
                if self.tree.is_some() {
                    // Tree mode: buffer the child's complete partial keyed
                    // by its PE so the combine order is fixed by the tree,
                    // not by delivery order.
                    let partial = crate::reduction::Partial { op, count, data };
                    self.tree_red[array.0 as usize].offer_child(seq, src.0, partial);
                } else {
                    self.reductions[array.0 as usize].fold(seq, op, count, data);
                }
                self.flush_reductions(array, hooks, &mut outcome);
            }
            MsgBody::AtSyncReady { stats } => {
                assert_eq!(self.pe, Pe(0), "AtSyncReady must go to PE 0");
                self.lb.reports.extend(stats);
                self.lb.report_pes += 1;
                self.maybe_run_balancer(hooks);
            }
            MsgBody::LbAssign { assignments } => {
                self.apply_assignment(&assignments, hooks, &mut outcome);
            }
            MsgBody::MigrateState { key, state } => {
                if self.lb.assign_seen {
                    self.install_migrant(key, &state);
                    self.drain_pending_local(hooks, &mut outcome);
                    self.check_arrivals(hooks);
                } else {
                    // Raced ahead of our LbAssign; hold until it lands.
                    self.lb.early_states.push((key, state));
                }
            }
            MsgBody::LbArrived => {
                assert_eq!(self.pe, Pe(0), "LbArrived must go to PE 0");
                self.lb.arrived_pes += 1;
                if self.lb.arrived_pes == self.num_pes() {
                    self.lb.arrived_pes = 0;
                    if self.shared.cfg.checkpoint_at_barrier {
                        // Everyone is quiescent here: snapshot before resuming.
                        self.ckpt.begin();
                        for pe in self.topo().pes().collect::<Vec<_>>() {
                            self.emit_env(hooks, pe, SYSTEM_PRIORITY, MsgBody::CkptCollect, Dur::ZERO);
                        }
                    } else {
                        self.release_barrier(hooks);
                    }
                }
            }
            MsgBody::CkptCollect => {
                let states = self.pack_all_local();
                self.emit_env(hooks, Pe(0), SYSTEM_PRIORITY, MsgBody::CkptData { states }, Dur::ZERO);
            }
            MsgBody::CkptData { states } => {
                assert_eq!(self.pe, Pe(0), "CkptData must go to PE 0");
                self.ckpt.add(states);
                if self.ckpt.reports == self.num_pes() {
                    let expected: Vec<(ArrayId, usize, u32)> = self
                        .arrays
                        .iter()
                        .enumerate()
                        .map(|(i, a)| (a.spec.id, a.spec.n_elems, self.root[i].next_seq()))
                        .collect();
                    let snapshot = self.ckpt.finish(&expected);
                    let shared = Arc::clone(&self.shared);
                    let mut sink = CtxSink::default();
                    if let Some(client) = self.host.checkpoint_client.as_mut() {
                        let mut ctx = Ctx::host(hooks.now(), self.pe, &shared.topo, &mut sink);
                        client(&snapshot, &mut ctx);
                    }
                    self.process_sink(None, sink, hooks, &mut outcome);
                    // The barrier now completes as usual.
                    if !outcome.exit {
                        self.release_barrier(hooks);
                    }
                }
            }
            MsgBody::RestoreResume => {
                self.resume_all_elements(hooks, &mut outcome);
            }
            MsgBody::LbResume => {
                self.resume_from_barrier(hooks, &mut outcome);
            }
            MsgBody::QdProbe { phase } => {
                let reply = MsgBody::QdReply {
                    phase,
                    sent: self.qd.sent,
                    processed: self.qd.processed,
                    active: self.qd.active,
                };
                self.qd.active = false;
                self.emit_env(hooks, Pe(0), SYSTEM_PRIORITY, reply, Dur::ZERO);
            }
            MsgBody::QdReply { phase, sent, processed, active } => {
                assert_eq!(self.pe, Pe(0), "QdReply must go to PE 0");
                self.collect_qd_reply(phase, sent, processed, active, hooks, &mut outcome);
            }
            MsgBody::Startup => {
                assert_eq!(self.pe, Pe(0), "Startup must go to PE 0");
                if let Some(startup) = self.host.startup.take() {
                    let shared = Arc::clone(&self.shared);
                    let mut sink = CtxSink::default();
                    {
                        let mut ctx = Ctx::host(hooks.now(), self.pe, &shared.topo, &mut sink);
                        startup(&mut ctx);
                    }
                    self.process_sink(None, sink, hooks, &mut outcome);
                }
                if self.shared.cfg.detect_quiescence {
                    self.start_qd_wave(hooks);
                }
                if self.shared.restore.is_some() {
                    // Restored run: wake every element via resume_from_sync.
                    for pe in self.topo().pes().collect::<Vec<_>>() {
                        self.emit_env(hooks, pe, SYSTEM_PRIORITY, MsgBody::RestoreResume, Dur::ZERO);
                    }
                }
            }
            MsgBody::Heartbeat => {
                // Liveness traffic is consumed by the engine's failure
                // detector before it reaches the node; reaching here (e.g.
                // in the virtual-time engine, where detection is exact and
                // heartbeats are unnecessary) is a harmless no-op.
            }
            MsgBody::BuddyCollect { epoch, lb_round } => {
                // Buddy-checkpoint round: pack local elements, keep one
                // copy here, ship the other to the next PE around the ring.
                let states = self.pack_all_local();
                self.ft.bytes_stored += states.iter().map(|(_, s)| s.len() as u64).sum::<u64>();
                let red_next: Vec<u32> = if self.pe == Pe(0) {
                    (0..self.arrays.len()).map(|i| self.root[i].next_seq()).collect()
                } else {
                    Vec::new()
                };
                self.store_ft_piece(FtPiece {
                    epoch,
                    owner: self.pe,
                    lb_round,
                    states: states.clone(),
                    red_next: red_next.clone(),
                });
                let buddy = Pe((self.pe.0 + 1) % self.num_pes() as u32);
                self.emit_env(
                    hooks,
                    buddy,
                    SYSTEM_PRIORITY,
                    MsgBody::BuddyStore { epoch, owner: self.pe, lb_round, states, red_next },
                    Dur::ZERO,
                );
                outcome.ckpt_epoch = Some(epoch);
            }
            MsgBody::BuddyStore { epoch, owner, lb_round, states, red_next } => {
                self.store_ft_piece(FtPiece { epoch, owner, lb_round, states, red_next });
                self.emit_env(hooks, Pe(0), SYSTEM_PRIORITY, MsgBody::BuddyAck { epoch }, Dur::ZERO);
            }
            MsgBody::BuddyAck { epoch } => {
                assert_eq!(self.pe, Pe(0), "BuddyAck must go to PE 0");
                self.ft.acks += 1;
                if self.ft.acks == self.num_pes() {
                    self.ft.acks = 0;
                    outcome.ckpt_complete = Some(epoch);
                    for pe in self.topo().pes().collect::<Vec<_>>() {
                        self.emit_env(hooks, pe, SYSTEM_PRIORITY, MsgBody::LbResume, Dur::ZERO);
                    }
                }
            }
            MsgBody::Exit => {
                outcome.exit = true;
            }
        }
        if outcome.exit {
            self.exited = true;
        }
        outcome
    }

    /// Deliver an application message, handling elements that migrated
    /// while the message was in flight: forward to the element's current
    /// PE, or — if it is assigned here but its state has not arrived yet —
    /// hold it until installation (what Charm++'s location manager does).
    fn deliver_app(
        &mut self,
        target: ObjKey,
        entry: EntryId,
        payload: Bytes,
        priority: i32,
        hooks: &mut dyn NodeHooks,
        outcome: &mut HandleOutcome,
    ) {
        if let Some(chare) = self.elems.get_mut(&target) {
            let mut sink = CtxSink::default();
            let mut ctx = Ctx {
                now: hooks.now(),
                pe: self.pe,
                topo: &self.shared.topo,
                me: Some(target),
                payload: &payload,
                sink: &mut sink,
            };
            chare.receive(entry, &payload, &mut ctx);
            self.process_sink(Some(target), sink, hooks, outcome);
            return;
        }
        let loc = self.arrays[target.array.0 as usize].location(target.elem);
        if loc == self.pe {
            // Assigned here, state still in flight.
            self.lb.pending_local.push((target, entry, payload, priority));
        } else {
            // Stale destination: forward to the current owner.
            self.qd.sent += 1;
            self.emit_env(hooks, loc, priority, MsgBody::App { target, entry, payload }, Dur::ZERO);
        }
    }

    /// Re-deliver buffered messages whose elements have arrived.
    fn drain_pending_local(&mut self, hooks: &mut dyn NodeHooks, outcome: &mut HandleOutcome) {
        if self.lb.pending_local.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.lb.pending_local);
        for (target, entry, payload, priority) in pending {
            self.deliver_app(target, entry, payload, priority, hooks, outcome);
        }
    }

    /// Apply everything a handler buffered.
    fn process_sink(
        &mut self,
        owner: Option<ObjKey>,
        sink: CtxSink,
        hooks: &mut dyn NodeHooks,
        outcome: &mut HandleOutcome,
    ) {
        outcome.charged += sink.charged;
        if self.shared.cfg.obs.is_some() {
            outcome.spans.push((owner, sink.charged));
        }
        if let Some(key) = owner {
            *self.obj_load.entry(key).or_insert(0) += sink.charged.as_nanos();
        }
        for out in sink.out {
            match out {
                CtxOut::Send { target, entry, payload, priority, at_charge } => {
                    let dst = self.arrays[target.array.0 as usize].location(target.elem);
                    let prio = priority.unwrap_or_else(|| {
                        if self.shared.cfg.grid_prio && self.topo().crosses_wan(self.pe, dst) {
                            GRID_PRIORITY
                        } else {
                            APP_PRIORITY
                        }
                    });
                    self.qd.sent += 1;
                    if let Some(from) = owner {
                        *self.obj_comm.entry(from).or_default().entry(target).or_insert(0) += 1;
                    }
                    self.emit_env(hooks, dst, prio, MsgBody::App { target, entry, payload }, at_charge);
                }
                CtxOut::Broadcast { array, entry, payload, at_charge } => {
                    self.qd.sent += 1;
                    self.emit_env(hooks, Pe(0), APP_PRIORITY, MsgBody::Broadcast { array, entry, payload }, at_charge);
                }
                CtxOut::Multicast { array, elems, entry, payload, at_charge } => {
                    // Group destinations by next hop.  Flat: the current
                    // hosting PE — the payload crosses the wire once per
                    // PE, so a section spanning a remote cluster pays one
                    // WAN copy per remote PE.  Tree: remote-cluster
                    // elements collapse into one group per cluster,
                    // addressed to its gateway — one WAN copy per cluster,
                    // re-split locally on arrival.
                    let mut by_pe: std::collections::BTreeMap<Pe, Vec<crate::ids::ElemId>> =
                        std::collections::BTreeMap::new();
                    let local = &self.arrays[array.0 as usize];
                    let topo = &self.shared.topo;
                    for elem in elems {
                        let loc = local.location(elem);
                        let hop = match &self.tree {
                            Some(tree) if topo.crosses_wan(self.pe, loc) => {
                                tree.gateway(topo.cluster_of(loc)).expect("a hosting cluster is non-empty")
                            }
                            _ => loc,
                        };
                        by_pe.entry(hop).or_default().push(elem);
                    }
                    for (dst, group) in by_pe {
                        let prio = if self.shared.cfg.grid_prio && self.topo().crosses_wan(self.pe, dst) {
                            GRID_PRIORITY
                        } else {
                            APP_PRIORITY
                        };
                        self.qd.sent += 1;
                        if let Some(from) = owner {
                            for &elem in &group {
                                *self.obj_comm.entry(from).or_default().entry(ObjKey::new(array, elem)).or_insert(0) +=
                                    1;
                            }
                        }
                        self.emit_env(
                            hooks,
                            dst,
                            prio,
                            MsgBody::Multi { array, elems: group, entry, payload: payload.clone() },
                            at_charge,
                        );
                    }
                }
                CtxOut::Contribute { from, op, data, at_charge } => {
                    let _ = at_charge;
                    self.reductions[from.array.0 as usize].contribute(from, op, data);
                    self.flush_reductions(from.array, hooks, outcome);
                }
            }
        }
        if sink.exit {
            outcome.exit = true;
        }
        if sink.at_sync {
            let key = owner.expect("at_sync only valid in element handlers");
            self.lb.synced.insert(key);
            self.check_sync_progress(hooks);
        }
    }

    fn emit_env(&self, hooks: &mut dyn NodeHooks, dst: Pe, priority: i32, body: MsgBody, after: Dur) {
        let env = Envelope { src: self.pe, dst, priority, sent_at_ns: (hooks.now() + after).as_nanos(), body };
        hooks.emit(env, after);
    }

    // ---- collective topology --------------------------------------------

    /// Children this PE forwards broadcasts to: the topology-aware
    /// spanning tree when `tree_collectives` is on, the flat binary PE
    /// heap otherwise.
    fn bcast_children(&self) -> Vec<Pe> {
        match &self.tree {
            Some(tree) => tree.children(self.pe).to_vec(),
            None => petree::children(self.pe, self.num_pes()).collect(),
        }
    }

    /// Split a multicast element list by current location (tree mode):
    /// elements hosted here are delivered locally; same-cluster elements
    /// go straight to their PE; elements in other clusters collapse into
    /// one group per cluster, addressed to that cluster's gateway.
    fn split_by_location(
        &self,
        array: ArrayId,
        elems: Vec<crate::ids::ElemId>,
    ) -> (Vec<crate::ids::ElemId>, Vec<(Pe, Vec<crate::ids::ElemId>)>) {
        let tree = self.tree.as_ref().expect("split_by_location requires tree collectives");
        let topo = &self.shared.topo;
        let local = &self.arrays[array.0 as usize];
        let mut locals = Vec::new();
        let mut remote: std::collections::BTreeMap<Pe, Vec<crate::ids::ElemId>> = std::collections::BTreeMap::new();
        for elem in elems {
            let loc = local.location(elem);
            if loc == self.pe {
                locals.push(elem);
            } else if topo.crosses_wan(self.pe, loc) {
                let gw = tree.gateway(topo.cluster_of(loc)).expect("a hosting cluster is non-empty");
                remote.entry(gw).or_default().push(elem);
            } else {
                remote.entry(loc).or_default().push(elem);
            }
        }
        (locals, remote.into_iter().collect())
    }

    // ---- reductions -----------------------------------------------------

    /// Elements of `array` hosted in this PE's spanning-tree subtree.
    fn subtree_expected(&self, array: ArrayId) -> u64 {
        let local = &self.arrays[array.0 as usize];
        match &self.tree {
            Some(tree) => tree.subtree(self.pe).into_iter().map(|pe| local.count_on(pe) as u64).sum(),
            None => petree::subtree(self.pe, self.num_pes()).into_iter().map(|pe| local.count_on(pe) as u64).sum(),
        }
    }

    /// Tree children expected to send a `ReduceUp` for `array`: those
    /// whose subtree hosts at least one element.
    fn red_children(&self, array: ArrayId) -> Vec<u32> {
        let tree = self.tree.as_ref().expect("red_children requires tree collectives");
        let local = &self.arrays[array.0 as usize];
        tree.children(self.pe)
            .iter()
            .filter(|&&c| tree.subtree(c).into_iter().any(|pe| local.count_on(pe) > 0))
            .map(|&c| c.0)
            .collect()
    }

    fn flush_reductions(&mut self, array: ArrayId, hooks: &mut dyn NodeHooks, outcome: &mut HandleOutcome) {
        if self.tree.is_some() {
            self.flush_reductions_tree(array, hooks, outcome);
            return;
        }
        let expected = self.subtree_expected(array);
        if expected == 0 {
            return;
        }
        let complete = self.reductions[array.0 as usize].take_complete(expected);
        for (seq, partial) in complete {
            self.forward_or_deliver(array, seq, partial, hooks, outcome);
        }
    }

    /// Tree-mode flush: local contributions complete against the local
    /// element count only, then join the per-child partials in the fixed
    /// tree order (local first, children ascending by PE) before one
    /// `ReduceUp` to the tree parent — partial-combine at the gateway
    /// ahead of the single wide-area hop.
    fn flush_reductions_tree(&mut self, array: ArrayId, hooks: &mut dyn NodeHooks, outcome: &mut HandleOutcome) {
        let total = self.subtree_expected(array);
        if total == 0 {
            return;
        }
        let local_expected = self.arrays[array.0 as usize].count_on(self.pe) as u64;
        if local_expected > 0 {
            for (seq, partial) in self.reductions[array.0 as usize].take_complete(local_expected) {
                self.tree_red[array.0 as usize].offer_local(seq, partial);
            }
        }
        let expected_children = self.red_children(array);
        let complete = self.tree_red[array.0 as usize].take_complete(local_expected > 0, &expected_children, total);
        for (seq, partial) in complete {
            self.forward_or_deliver(array, seq, partial, hooks, outcome);
        }
    }

    /// A subtree-complete partial either reaches the host client (root)
    /// or folds one hop up the active PE tree.
    fn forward_or_deliver(
        &mut self,
        array: ArrayId,
        seq: u32,
        partial: crate::reduction::Partial,
        hooks: &mut dyn NodeHooks,
        outcome: &mut HandleOutcome,
    ) {
        if self.pe == Pe(0) {
            let deliverable = self.root[array.0 as usize].push(seq, partial);
            for (s, p) in deliverable {
                self.deliver_reduction(array, s, p.data, hooks, outcome);
            }
        } else {
            let parent = match &self.tree {
                Some(tree) => tree.parent(self.pe).expect("non-root PE has a tree parent"),
                None => petree::parent(self.pe).expect("non-root PE has a parent"),
            };
            self.emit_env(
                hooks,
                parent,
                SYSTEM_PRIORITY,
                MsgBody::ReduceUp { array, seq, op: partial.op, count: partial.count, data: partial.data },
                Dur::ZERO,
            );
        }
    }

    fn deliver_reduction(
        &mut self,
        array: ArrayId,
        seq: u32,
        data: ReduceData,
        hooks: &mut dyn NodeHooks,
        outcome: &mut HandleOutcome,
    ) {
        let shared = Arc::clone(&self.shared);
        let mut sink = CtxSink::default();
        if let Some(client) = self.host.reduction_clients.get_mut(&array) {
            let mut ctx = Ctx::host(hooks.now(), self.pe, &shared.topo, &mut sink);
            client(seq, &data, &mut ctx);
        }
        self.process_sink(None, sink, hooks, outcome);
    }

    // ---- load balancing (AtSync barrier) --------------------------------

    fn check_sync_progress(&mut self, hooks: &mut dyn NodeHooks) {
        if self.lb.in_barrier || self.lb.synced.len() < self.elems.len() {
            return;
        }
        assert!(
            self.reductions.iter().all(|r| r.is_quiescent()) && self.tree_red.iter().all(|t| t.is_quiescent()),
            "reductions must not be in flight at an AtSync barrier"
        );
        self.lb.in_barrier = true;
        let mut synced: Vec<ObjKey> = self.lb.synced.iter().copied().collect();
        synced.sort();
        let stats: Vec<LbObjStat> = synced
            .into_iter()
            .map(|key| {
                let comm = self
                    .obj_comm
                    .get(&key)
                    .map(|m| {
                        let mut v: Vec<(ObjKey, u64)> = m.iter().map(|(&k, &n)| (k, n)).collect();
                        v.sort_by_key(|&(k, _)| k);
                        v
                    })
                    .unwrap_or_default();
                LbObjStat { key, load_ns: self.obj_load.get(&key).copied().unwrap_or(0), comm }
            })
            .collect();
        self.emit_env(hooks, Pe(0), SYSTEM_PRIORITY, MsgBody::AtSyncReady { stats }, Dur::ZERO);
    }

    /// PEs expected to report at a barrier: those hosting at least one
    /// element (empty PEs never learn the barrier started).
    fn reporting_pes(&self) -> usize {
        self.topo().pes().filter(|&pe| self.arrays.iter().any(|a| a.count_on(pe) > 0)).count()
    }

    fn maybe_run_balancer(&mut self, hooks: &mut dyn NodeHooks) {
        if self.lb.report_pes < self.reporting_pes() {
            return;
        }
        self.lb.report_pes = 0;
        let reports = std::mem::take(&mut self.lb.reports);
        let objs: Vec<ObjMeasurement> = reports
            .into_iter()
            .map(|s| {
                let local = &self.arrays[s.key.array.0 as usize];
                ObjMeasurement {
                    key: s.key,
                    current_pe: local.location(s.key.elem),
                    load_ns: s.load_ns,
                    comm: s.comm,
                    migratable: local.spec.unpacker.is_some(),
                }
            })
            .collect();
        // The continuous feedback loop: when configured, run the strategy
        // only if measured imbalance or WAN exposure crosses a threshold;
        // a quiet barrier keeps the current placement at zero migration
        // cost (the identity placement still flows through LbAssign so
        // barrier release stays uniform).
        let run_full = match &self.shared.cfg.feedback {
            Some(fb) => {
                let decision = crate::balancer::should_rebalance(&LbInput { topo: self.topo(), objs: &objs }, fb);
                if decision.rebalance {
                    self.lb.rebalance_triggers += 1;
                }
                decision.rebalance
            }
            None => true,
        };
        let placement = if run_full {
            run_strategy(self.strategy.as_ref(), &LbInput { topo: self.topo(), objs: &objs })
        } else {
            objs.iter().map(|m| (m.key, m.current_pe)).collect()
        };
        let moved =
            placement.iter().filter(|(k, pe)| self.arrays[k.array.0 as usize].location(k.elem) != *pe).count() as u64;
        self.lb.migrations += moved;
        for pe in self.topo().pes().collect::<Vec<_>>() {
            self.emit_env(hooks, pe, SYSTEM_PRIORITY, MsgBody::LbAssign { assignments: placement.clone() }, Dur::ZERO);
        }
    }

    fn apply_assignment(
        &mut self,
        assignments: &[(ObjKey, Pe)],
        hooks: &mut dyn NodeHooks,
        outcome: &mut HandleOutcome,
    ) {
        // Snapshot old placement, apply the new one.
        let old: Vec<Vec<Pe>> = self.arrays.iter().map(|a| a.locations().to_vec()).collect();
        for &(key, pe) in assignments {
            self.arrays[key.array.0 as usize].relocate(key.elem, pe);
        }
        self.lb.assign_seen = true;

        // Ship departing elements (in key order, so emission order is
        // deterministic).
        let departing: Vec<ObjKey> = self
            .elems
            .keys()
            .copied()
            .filter(|k| self.arrays[k.array.0 as usize].location(k.elem) != self.pe)
            .collect();
        for key in departing {
            let chare = self.elems.remove(&key).expect("departing element is local");
            let seq = self.reductions[key.array.0 as usize].export_elem_seq(key);
            let mut w = WireWriter::new();
            w.u32(seq);
            chare.pack(&mut w);
            let dst = self.arrays[key.array.0 as usize].location(key.elem);
            self.lb.synced.remove(&key);
            self.obj_load.remove(&key);
            self.obj_comm.remove(&key);
            self.emit_env(
                hooks,
                dst,
                SYSTEM_PRIORITY,
                MsgBody::MigrateState { key, state: Bytes::from(w.finish()) },
                Dur::ZERO,
            );
        }

        // How many elements are inbound?
        let mut expect = 0usize;
        for (ai, local) in self.arrays.iter().enumerate() {
            for (ei, &new_pe) in local.locations().iter().enumerate() {
                if new_pe == self.pe && old[ai][ei] != self.pe {
                    expect += 1;
                }
            }
        }
        self.lb.expect_incoming = expect;

        // Install any states that raced ahead of the assignment, then
        // re-deliver messages that raced ahead of their element (or whose
        // element just left this PE).
        let early = std::mem::take(&mut self.lb.early_states);
        for (key, state) in early {
            self.install_migrant(key, &state);
        }
        self.drain_pending_local(hooks, outcome);
        self.check_arrivals(hooks);
    }

    fn install_migrant(&mut self, key: ObjKey, state: &[u8]) {
        let spec = Arc::clone(&self.arrays[key.array.0 as usize].spec);
        let unpacker = spec
            .unpacker
            .as_ref()
            .unwrap_or_else(|| panic!("migrated element {key:?} of non-migratable array {:?}", spec.name));
        let mut r = WireReader::new(state);
        let seq = r.u32().expect("migration header");
        let chare = unpacker(key.elem, &mut r);
        assert!(r.is_done(), "trailing bytes after unpacking {key:?}");
        self.reductions[key.array.0 as usize].import_elem_seq(key, seq);
        let prev = self.elems.insert(key, chare);
        assert!(prev.is_none(), "{key:?} arrived twice");
        // Migrated elements re-sync automatically: they were at_sync when
        // they were packed.
        self.lb.synced.insert(key);
        self.lb.incoming += 1;
    }

    fn check_arrivals(&mut self, hooks: &mut dyn NodeHooks) {
        if self.lb.assign_seen && !self.lb.sent_arrived && self.lb.incoming >= self.lb.expect_incoming {
            self.lb.sent_arrived = true;
            self.emit_env(hooks, Pe(0), SYSTEM_PRIORITY, MsgBody::LbArrived, Dur::ZERO);
        }
    }

    fn resume_from_barrier(&mut self, hooks: &mut dyn NodeHooks, outcome: &mut HandleOutcome) {
        self.lb.in_barrier = false;
        self.lb.assign_seen = false;
        self.lb.sent_arrived = false;
        self.lb.incoming = 0;
        self.lb.expect_incoming = 0;
        self.lb.synced.clear();
        self.obj_load.clear();
        self.obj_comm.clear();
        if self.pe == Pe(0) {
            self.lb.rounds += 1;
        }
        self.resume_all_elements(hooks, outcome);
    }

    /// Call `resume_from_sync` on every local element (barrier resume and
    /// checkpoint restore share this).
    fn resume_all_elements(&mut self, hooks: &mut dyn NodeHooks, outcome: &mut HandleOutcome) {
        let keys: Vec<ObjKey> = self.elems.keys().copied().collect();
        for key in keys {
            let chare = self.elems.get_mut(&key).expect("local element");
            let mut sink = CtxSink::default();
            let mut ctx = Ctx {
                now: hooks.now(),
                pe: self.pe,
                topo: &self.shared.topo,
                me: Some(key),
                payload: &NO_PAYLOAD,
                sink: &mut sink,
            };
            chare.resume_from_sync(&mut ctx);
            self.process_sink(Some(key), sink, hooks, outcome);
        }
    }

    /// Complete a barrier from PE 0: when a failure or join plan is armed,
    /// run a buddy-checkpoint round first (the barrier is the only point
    /// where every element is quiescent, so packing here is race-free);
    /// the LbResume broadcast then follows the final BuddyAck.  Without
    /// fault tolerance, resume immediately — byte-identical to the old
    /// path.
    fn release_barrier(&mut self, hooks: &mut dyn NodeHooks) {
        if self.shared.cfg.ft_armed() {
            let epoch = self.ft.epoch;
            self.ft.epoch += 1;
            self.ft.acks = 0;
            let lb_round = self.lb.rounds;
            for pe in self.topo().pes().collect::<Vec<_>>() {
                self.emit_env(hooks, pe, SYSTEM_PRIORITY, MsgBody::BuddyCollect { epoch, lb_round }, Dur::ZERO);
            }
        } else {
            for pe in self.topo().pes().collect::<Vec<_>>() {
                self.emit_env(hooks, pe, SYSTEM_PRIORITY, MsgBody::LbResume, Dur::ZERO);
            }
        }
    }

    /// Remember a checkpoint piece, discarding epochs older than the two
    /// most recent (a crash mid-epoch must never orphan the last complete
    /// snapshot).
    fn store_ft_piece(&mut self, piece: FtPiece) {
        let newest = piece.epoch;
        self.ft.pieces.retain(|p| p.epoch + 2 > newest);
        self.ft.pieces.push(piece);
    }

    /// Pack every local element in the migration byte format (reduction
    /// cursor + chare state), in key order.
    fn pack_all_local(&self) -> Vec<(ObjKey, Bytes)> {
        self.elems
            .iter()
            .map(|(&key, chare)| {
                let mut w = WireWriter::new();
                w.u32(self.reductions[key.array.0 as usize].peek_elem_seq(key));
                chare.pack(&mut w);
                (key, Bytes::from(w.finish()))
            })
            .collect()
    }

    // ---- quiescence detection -------------------------------------------

    fn start_qd_wave(&mut self, hooks: &mut dyn NodeHooks) {
        assert_eq!(self.pe, Pe(0));
        self.qd_root.running = true;
        self.qd_root.replies = 0;
        self.qd_root.sum_sent = 0;
        self.qd_root.sum_processed = 0;
        self.qd_root.any_active = false;
        let phase = self.qd_root.phase;
        for pe in self.topo().pes().collect::<Vec<_>>() {
            self.emit_env(hooks, pe, SYSTEM_PRIORITY, MsgBody::QdProbe { phase }, Dur::ZERO);
        }
    }

    fn collect_qd_reply(
        &mut self,
        phase: u32,
        sent: u64,
        processed: u64,
        active: bool,
        hooks: &mut dyn NodeHooks,
        outcome: &mut HandleOutcome,
    ) {
        if phase != self.qd_root.phase || !self.qd_root.running {
            return; // stale reply
        }
        self.qd_root.replies += 1;
        self.qd_root.sum_sent += sent;
        self.qd_root.sum_processed += processed;
        self.qd_root.any_active |= active;
        if self.qd_root.replies < self.num_pes() {
            return;
        }
        let sums = (self.qd_root.sum_sent, self.qd_root.sum_processed);
        let quiet = !self.qd_root.any_active && sums.0 == sums.1 && self.qd_root.prev == Some(sums);
        self.qd_root.prev = Some(sums);
        self.qd_root.phase += 1;
        if quiet {
            self.qd_root.running = false;
            let shared = Arc::clone(&self.shared);
            let mut sink = CtxSink::default();
            if let Some(client) = self.host.quiescence_client.as_mut() {
                let mut ctx = Ctx::host(hooks.now(), self.pe, &shared.topo, &mut sink);
                client(&mut ctx);
            } else {
                // No client: quiescence simply ends the run.
                sink.exit = true;
            }
            self.process_sink(None, sink, hooks, outcome);
        } else {
            self.start_qd_wave(hooks);
        }
    }
}

#[cfg(test)]
mod tests {
    //! These tests drive full multi-PE scenarios through a tiny synchronous
    //! fabric: zero-latency FIFO delivery between nodes, which is a valid
    //! engine (all latencies zero, ties FIFO).  The real engines add time;
    //! the *logic* under test is identical.

    use super::*;
    use crate::envelope::ReduceOp;
    use crate::mapping::Mapping;
    use crate::program::{LbChoice, Program};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::Mutex;

    struct FifoHooks {
        out: Vec<Envelope>,
    }

    impl NodeHooks for FifoHooks {
        fn now(&self) -> Time {
            Time::ZERO
        }
        fn emit(&mut self, env: Envelope, _after: Dur) {
            self.out.push(env);
        }
    }

    /// Deliver messages FIFO until the system drains; returns whether any
    /// node requested exit.
    fn run_to_completion(nodes: &mut [Node]) -> bool {
        let mut queue: VecDeque<Envelope> = VecDeque::new();
        let mut hooks = FifoHooks { out: Vec::new() };
        // Kick off with Startup on PE 0.
        queue.push_back(Envelope {
            src: Pe(0),
            dst: Pe(0),
            priority: SYSTEM_PRIORITY,
            sent_at_ns: 0,
            body: MsgBody::Startup,
        });
        let mut exited = false;
        let mut steps = 0u64;
        while let Some(env) = queue.pop_front() {
            steps += 1;
            assert!(steps < 1_000_000, "runaway message storm");
            let outcome = nodes[env.dst.index()].handle(env, &mut hooks);
            exited |= outcome.exit;
            queue.extend(hooks.out.drain(..));
        }
        exited
    }

    const PING: EntryId = EntryId(1);

    /// A chare that forwards a hop counter to the next element, then
    /// contributes to a reduction when the counter expires.
    struct Hopper {
        n_elems: u32,
        hops_seen: u64,
    }

    impl Chare for Hopper {
        fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
            assert_eq!(entry, PING);
            let mut r = WireReader::new(payload);
            let remaining = r.u32().unwrap();
            self.hops_seen += 1;
            ctx.charge(Dur::from_micros(5));
            if remaining == 0 {
                ctx.contribute_f64(ReduceOp::SumF64, &[self.hops_seen as f64]);
            } else {
                let next = crate::ids::ElemId((ctx.my_elem().0 + 1) % self.n_elems);
                let mut w = WireWriter::new();
                w.u32(remaining - 1);
                ctx.send(ctx.me().array, next, PING, w.finish());
            }
        }
    }

    fn build_nodes(topo: Topology, program: Program, cfg: RunConfig) -> Vec<Node> {
        let (shared, host) = split_program(program, topo, cfg);
        let mut host = Some(host);
        shared
            .topo
            .pes()
            .map(|pe| {
                let h = if pe == Pe(0) { host.take().expect("host used once") } else { HostParts::empty() };
                Node::new(Arc::clone(&shared), pe, h)
            })
            .collect()
    }

    #[test]
    fn ring_hops_and_reduction_terminate_run() {
        static RESULT: AtomicU64 = AtomicU64::new(0);
        RESULT.store(0, Ordering::SeqCst);
        let topo = Topology::two_cluster(4);
        let mut p = Program::new();
        let n = 8u32;
        let arr = p.array("ring", n as usize, Mapping::Block, move |_| Box::new(Hopper { n_elems: n, hops_seen: 0 }));
        p.on_startup(move |ctl| {
            // One 20-hop token starting at element 0, plus one zero-hop
            // ping to every element so that each contributes once to the
            // first reduction.
            let mut w = WireWriter::new();
            w.u32(20);
            ctl.send(arr, crate::ids::ElemId(0), PING, w.finish());
            for e in 0..n {
                let mut w = WireWriter::new();
                w.u32(0);
                ctl.send(arr, crate::ids::ElemId(e), PING, w.finish());
            }
        });
        p.on_reduction(arr, |seq, data, ctl| {
            assert_eq!(seq, 0);
            match data {
                ReduceData::F64(v) => {
                    RESULT.store(v[0] as u64, Ordering::SeqCst);
                }
                other => panic!("wrong data {other:?}"),
            }
            ctl.exit();
        });
        let mut nodes = build_nodes(topo, p, RunConfig::default());
        let exited = run_to_completion(&mut nodes);
        assert!(exited, "reduction client requested exit");
        // FIFO delivery: element 0 handles the token first (hops_seen=1,
        // no contribution), then its zero-hop ping (contributes 2); the
        // other seven elements contribute 1 each on their first ping.
        assert_eq!(RESULT.load(Ordering::SeqCst), 9);
    }

    const BUMP: EntryId = EntryId(2);

    struct Counter {
        count: u64,
    }

    impl Chare for Counter {
        fn receive(&mut self, entry: EntryId, _payload: &[u8], ctx: &mut Ctx<'_>) {
            assert_eq!(entry, BUMP);
            self.count += 1;
            ctx.contribute_u64_sum(&[self.count]);
        }
    }

    #[test]
    fn broadcast_reaches_every_element() {
        static TOTAL: AtomicU64 = AtomicU64::new(0);
        TOTAL.store(0, Ordering::SeqCst);
        let topo = Topology::two_cluster(6);
        let mut p = Program::new();
        let arr = p.array("counters", 31, Mapping::RoundRobin, |_| Box::new(Counter { count: 0 }));
        p.on_startup(move |ctl| ctl.broadcast(arr, BUMP, vec![]));
        p.on_reduction(arr, |_seq, data, ctl| {
            if let ReduceData::U64(v) = data {
                TOTAL.store(v[0], Ordering::SeqCst);
            }
            ctl.exit();
        });
        let mut nodes = build_nodes(topo, p, RunConfig::default());
        assert!(run_to_completion(&mut nodes));
        assert_eq!(TOTAL.load(Ordering::SeqCst), 31, "each of 31 elements counted once");
    }

    #[test]
    fn consecutive_reductions_deliver_in_order() {
        static SEQS: AtomicU32 = AtomicU32::new(0);
        SEQS.store(0, Ordering::SeqCst);
        let topo = Topology::two_cluster(4);
        let mut p = Program::new();
        let arr = p.array("counters", 10, Mapping::Block, |_| Box::new(Counter { count: 0 }));
        p.on_startup(move |ctl| {
            // Three rounds of broadcast → three reductions.
            ctl.broadcast(arr, BUMP, vec![]);
            ctl.broadcast(arr, BUMP, vec![]);
            ctl.broadcast(arr, BUMP, vec![]);
        });
        p.on_reduction(arr, |seq, data, ctl| {
            let prev = SEQS.fetch_add(1, Ordering::SeqCst);
            assert_eq!(seq, prev, "reductions delivered in sequence order");
            if let ReduceData::U64(v) = data {
                assert_eq!(v[0], (seq as u64 + 1) * 10);
            }
            if seq == 2 {
                ctl.exit();
            }
        });
        let mut nodes = build_nodes(topo, p, RunConfig::default());
        assert!(run_to_completion(&mut nodes));
        assert_eq!(SEQS.load(Ordering::SeqCst), 3);
    }

    const GO_SYNC: EntryId = EntryId(3);

    /// A migratable chare: carries a payload value, syncs on request.
    struct Mover {
        value: u64,
        resumed: bool,
    }

    impl Chare for Mover {
        fn receive(&mut self, entry: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
            assert_eq!(entry, GO_SYNC);
            ctx.charge(Dur::from_micros(ctx.my_elem().0 as u64 + 1));
            ctx.at_sync();
        }
        fn pack(&self, w: &mut WireWriter) {
            w.u64(self.value).bool(self.resumed);
        }
        fn resume_from_sync(&mut self, ctx: &mut Ctx<'_>) {
            self.resumed = true;
            ctx.contribute_u64_sum(&[self.value]);
        }
    }

    #[test]
    fn rotate_lb_migrates_and_resumes_everywhere() {
        static SUM: AtomicU64 = AtomicU64::new(0);
        SUM.store(0, Ordering::SeqCst);
        let topo = Topology::two_cluster(4);
        let mut p = Program::new();
        let arr = p.array_migratable(
            "movers",
            8,
            Mapping::Block,
            |e| Box::new(Mover { value: 100 + e.0 as u64, resumed: false }),
            |_, r| {
                let value = r.u64().unwrap();
                let resumed = r.bool().unwrap();
                Box::new(Mover { value, resumed })
            },
        );
        p.on_startup(move |ctl| ctl.broadcast(arr, GO_SYNC, vec![]));
        p.on_reduction(arr, |_seq, data, ctl| {
            if let ReduceData::U64(v) = data {
                SUM.store(v[0], Ordering::SeqCst);
            }
            ctl.exit();
        });
        let cfg = RunConfig { lb: LbChoice::Rotate, ..RunConfig::default() };
        let mut nodes = build_nodes(topo, p, cfg);
        assert!(run_to_completion(&mut nodes));
        // All 8 elements resumed (on their *new* PEs) and contributed their
        // values: sum = 100+101+...+107 = 828.
        assert_eq!(SUM.load(Ordering::SeqCst), 828);
        // RotateLB moved every element exactly one PE over.
        assert_eq!(nodes[0].migrations(), 8);
        assert_eq!(nodes[0].lb_rounds(), 1);
        // Element 0 started on PE 0 (Block mapping), must now be on PE 1.
        assert_eq!(nodes[1].local_elems(), 2);
    }

    #[test]
    fn identity_lb_is_barrier_without_migration() {
        static SUM: AtomicU64 = AtomicU64::new(0);
        SUM.store(0, Ordering::SeqCst);
        let topo = Topology::two_cluster(2);
        let mut p = Program::new();
        let arr = p.array_migratable(
            "movers",
            4,
            Mapping::Block,
            |e| Box::new(Mover { value: e.0 as u64, resumed: false }),
            |_, r| {
                let value = r.u64().unwrap();
                let resumed = r.bool().unwrap();
                Box::new(Mover { value, resumed })
            },
        );
        p.on_startup(move |ctl| ctl.broadcast(arr, GO_SYNC, vec![]));
        p.on_reduction(arr, |_s, _d, ctl| ctl.exit());
        let mut nodes = build_nodes(topo, p, RunConfig::default());
        assert!(run_to_completion(&mut nodes));
        assert_eq!(nodes[0].migrations(), 0);
        assert_eq!(nodes[0].lb_rounds(), 1);
        assert_eq!(nodes[0].local_elems(), 2);
        assert_eq!(nodes[1].local_elems(), 2);
    }

    #[test]
    fn packing_enumerates_elements_in_key_order_and_leaves_them_resident() {
        let mut p = Program::new();
        for name in ["a", "b"] {
            p.array_migratable(
                name,
                100,
                Mapping::RoundRobin,
                |e| Box::new(Mover { value: e.0 as u64, resumed: false }),
                |_, r| Box::new(Mover { value: r.u64().unwrap(), resumed: r.bool().unwrap() }),
            );
        }
        let nodes = build_nodes(Topology::two_cluster(2), p, RunConfig::default());
        let packed = nodes[1].pack_all_local();
        assert_eq!(packed.len(), 100, "the odd elements of both arrays");
        assert!(packed.windows(2).all(|w| w[0].0 < w[1].0), "sorted by (array, element), no duplicates");
        let (key, state) = &packed[57];
        assert_eq!(*key, ObjKey::new(ArrayId(1), crate::ids::ElemId(15)));
        let mut r = WireReader::new(state);
        assert_eq!((r.u32().unwrap(), r.u64().unwrap(), r.bool().unwrap()), (0, 15, false), "cursor, then the chare");
        assert_eq!(nodes[1].local_elems(), 100, "packing reads the elements where they are");
    }

    const CHAIN: EntryId = EntryId(4);

    /// Sends a fixed-length chain of messages, then goes quiet.
    struct Quieter {
        n_elems: u32,
    }

    impl Chare for Quieter {
        fn receive(&mut self, _e: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
            let remaining = WireReader::new(payload).u32().unwrap();
            if remaining > 0 {
                let next = crate::ids::ElemId((ctx.my_elem().0 + 1) % self.n_elems);
                let mut w = WireWriter::new();
                w.u32(remaining - 1);
                ctx.send(ctx.me().array, next, CHAIN, w.finish());
            }
        }
    }

    #[test]
    fn quiescence_detected_after_chain_drains() {
        static FIRED: AtomicU64 = AtomicU64::new(0);
        FIRED.store(0, Ordering::SeqCst);
        let topo = Topology::two_cluster(4);
        let mut p = Program::new();
        let n = 6u32;
        let arr = p.array("quiet", n as usize, Mapping::Block, move |_| Box::new(Quieter { n_elems: n }));
        p.on_startup(move |ctl| {
            let mut w = WireWriter::new();
            w.u32(15);
            ctl.send(arr, crate::ids::ElemId(0), CHAIN, w.finish());
        });
        p.on_quiescence(|ctl| {
            FIRED.fetch_add(1, Ordering::SeqCst);
            ctl.exit();
        });
        let cfg = RunConfig { detect_quiescence: true, ..RunConfig::default() };
        let mut nodes = build_nodes(topo, p, cfg);
        assert!(run_to_completion(&mut nodes));
        assert_eq!(FIRED.load(Ordering::SeqCst), 1, "quiescence client fired exactly once");
    }

    const SYNC_TWICE: EntryId = EntryId(6);

    /// An element that syncs at rounds 1 and 2, then contributes.
    struct TwoSync {
        rounds: u32,
    }

    impl Chare for TwoSync {
        fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
            self.rounds += 1;
            ctx.at_sync();
        }
        fn pack(&self, w: &mut WireWriter) {
            w.u32(self.rounds);
        }
        fn resume_from_sync(&mut self, ctx: &mut Ctx<'_>) {
            if self.rounds < 2 {
                ctx.send(ctx.me().array, ctx.my_elem(), SYNC_TWICE, vec![]);
            } else {
                ctx.contribute_u64_sum(&[self.rounds as u64]);
            }
        }
    }

    #[test]
    fn consecutive_lb_barriers_round_trip() {
        static SUM: AtomicU64 = AtomicU64::new(0);
        SUM.store(0, Ordering::SeqCst);
        let topo = Topology::two_cluster(4);
        let mut p = Program::new();
        let arr = p.array_migratable(
            "twosync",
            6,
            Mapping::Block,
            |_| Box::new(TwoSync { rounds: 0 }),
            |_, r| Box::new(TwoSync { rounds: r.u32().unwrap() }),
        );
        p.on_startup(move |ctl| ctl.broadcast(arr, SYNC_TWICE, vec![]));
        p.on_reduction(arr, |_s, d, ctl| {
            if let ReduceData::U64(v) = d {
                SUM.store(v[0], Ordering::SeqCst);
            }
            ctl.exit();
        });
        let cfg = RunConfig { lb: LbChoice::Rotate, ..RunConfig::default() };
        let mut nodes = build_nodes(topo, p, cfg);
        assert!(run_to_completion(&mut nodes));
        assert_eq!(SUM.load(Ordering::SeqCst), 12, "6 elements x 2 rounds each");
        assert_eq!(nodes[0].lb_rounds(), 2, "two distinct barriers completed");
        assert_eq!(nodes[0].migrations(), 12, "RotateLB moved all 6 elements twice");
    }

    #[test]
    fn checkpoint_rides_the_barrier_and_reductions_continue() {
        // Elements contribute a reduction BEFORE the barrier; the snapshot
        // must carry the root's reduction cursor so post-restore reductions
        // keep their numbering.
        static SEQS: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        SEQS.lock().unwrap().clear();
        static SNAP: Mutex<Option<crate::checkpoint::Snapshot>> = Mutex::new(None);
        *SNAP.lock().unwrap() = None;

        struct RedThenSync {
            phase: u32,
        }
        impl Chare for RedThenSync {
            fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                // Phase 0 (startup poke): contribute to reduction 0.
                // Phase 1 (poke from the reduction client, i.e. after the
                // reduction fully completed): enter the barrier.
                match self.phase {
                    0 => {
                        self.phase = 1;
                        ctx.contribute_u64_sum(&[1]);
                    }
                    1 => {
                        self.phase = 2;
                        ctx.at_sync();
                    }
                    _ => unreachable!(),
                }
            }
            fn pack(&self, w: &mut WireWriter) {
                w.u32(self.phase);
            }
            fn resume_from_sync(&mut self, ctx: &mut Ctx<'_>) {
                ctx.contribute_u64_sum(&[1]);
            }
        }

        let topo = Topology::two_cluster(2);
        let mut p = Program::new();
        let arr = p.array_migratable(
            "redsync",
            4,
            Mapping::Block,
            |_| Box::new(RedThenSync { phase: 0 }),
            |_, r| Box::new(RedThenSync { phase: r.u32().unwrap() }),
        );
        p.on_startup(move |ctl| ctl.broadcast(arr, EntryId(1), vec![]));
        p.on_reduction(arr, move |seq, _d, ctl| {
            SEQS.lock().unwrap().push(seq);
            match seq {
                0 => ctl.broadcast(arr, EntryId(1), vec![]), // now quiescent: sync
                1 => ctl.exit(),
                _ => unreachable!(),
            }
        });
        p.on_checkpoint(|snap, _ctl| {
            *SNAP.lock().unwrap() = Some(snap.clone());
        });
        let cfg = RunConfig { checkpoint_at_barrier: true, ..RunConfig::default() };
        let mut nodes = build_nodes(topo, p, cfg);
        assert!(run_to_completion(&mut nodes));
        assert_eq!(*SEQS.lock().unwrap(), vec![0, 1], "reductions 0 and 1 both delivered");
        let snap = SNAP.lock().unwrap().clone().expect("snapshot taken");
        assert_eq!(snap.total_elems(), 4);
        // The cursor recorded: reduction 0 had completed before the barrier.
        assert_eq!(snap.arrays[0].red_next, 1);
    }

    #[test]
    #[should_panic(expected = "restore requires migratable arrays")]
    fn restoring_non_migratable_arrays_is_rejected() {
        let topo = Topology::two_cluster(2);
        let mut p = Program::new();
        let _ = p.array("plain", 2, Mapping::Block, |_| Box::new(Counter { count: 0 }) as Box<dyn Chare>);
        p.restore_from(crate::checkpoint::Snapshot {
            arrays: vec![crate::checkpoint::ArraySnapshot {
                array: ArrayId(0),
                red_next: 0,
                elems: vec![vec![0, 0, 0, 0], vec![0, 0, 0, 0]],
            }],
        });
        let (shared, host) = split_program(p, topo, RunConfig::default());
        let _ = Node::new(Arc::clone(&shared), Pe(0), host);
    }

    #[test]
    fn stale_qd_replies_are_ignored() {
        // Directly poke a PE-0 node with a stale-phase QdReply: it must
        // not count toward the current wave.
        let topo = Topology::two_cluster(2);
        let mut p = Program::new();
        let _ = p.array("c", 2, Mapping::Block, |_| Box::new(Counter { count: 0 }) as Box<dyn Chare>);
        let cfg = RunConfig { detect_quiescence: true, ..RunConfig::default() };
        let (shared, host) = split_program(p, topo, cfg);
        let mut node = Node::new(Arc::clone(&shared), Pe(0), host);
        let mut hooks = FifoHooks { out: Vec::new() };
        // Startup launches probe wave 0 (2 probes out).
        node.handle(
            Envelope { src: Pe(0), dst: Pe(0), priority: SYSTEM_PRIORITY, sent_at_ns: 0, body: MsgBody::Startup },
            &mut hooks,
        );
        let probes = hooks.out.iter().filter(|e| matches!(e.body, MsgBody::QdProbe { .. })).count();
        assert_eq!(probes, 2);
        hooks.out.clear();
        // A reply for a phase far in the future/past is dropped silently.
        let outcome = node.handle(
            Envelope {
                src: Pe(1),
                dst: Pe(0),
                priority: SYSTEM_PRIORITY,
                sent_at_ns: 0,
                body: MsgBody::QdReply { phase: 99, sent: 5, processed: 5, active: false },
            },
            &mut hooks,
        );
        assert!(!outcome.exit);
        assert!(hooks.out.is_empty(), "stale reply triggers nothing");
    }

    const MSEND: EntryId = EntryId(7);

    /// Sender multicasts to a section; receivers count deliveries.
    struct SectionDemo {
        hits: u64,
    }

    impl Chare for SectionDemo {
        fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
            match entry {
                MSEND => {
                    // Element 0 multicasts a shared payload to a section.
                    let section: Vec<crate::ids::ElemId> =
                        [1u32, 2, 3, 5, 7].iter().map(|&e| crate::ids::ElemId(e)).collect();
                    ctx.multicast(ctx.me().array, &section, BUMP, vec![42]);
                }
                BUMP => {
                    assert_eq!(payload, [42]);
                    self.hits += 1;
                    ctx.contribute_u64_sum(&[1]);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn section_multicast_reaches_section_once_per_pe() {
        static DONE: AtomicU64 = AtomicU64::new(0);
        DONE.store(0, Ordering::SeqCst);
        let topo = Topology::two_cluster(4);
        let mut p = Program::new();
        // RoundRobin: elems 1,5 -> pe1; 2 -> pe2; 3,7 -> pe3 (elem 0 -> pe0).
        let arr = p.array("sect", 8, Mapping::RoundRobin, |_| Box::new(SectionDemo { hits: 0 }) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, crate::ids::ElemId(0), MSEND, vec![]));
        p.on_reduction(arr, |_s, _d, _ctl| {});
        let (shared, host) = split_program(p, topo, RunConfig::default());
        let mut host = Some(host);
        let mut nodes: Vec<Node> = shared
            .topo
            .pes()
            .map(|pe| {
                let h = if pe == Pe(0) { host.take().unwrap() } else { HostParts::empty() };
                Node::new(Arc::clone(&shared), pe, h)
            })
            .collect();

        // Deliver the MSEND by hand and inspect the emissions.
        let mut hooks = FifoHooks { out: Vec::new() };
        nodes[0].handle(
            Envelope {
                src: Pe(0),
                dst: Pe(0),
                priority: 0,
                sent_at_ns: 0,
                body: MsgBody::App {
                    target: ObjKey::new(ArrayId(0), crate::ids::ElemId(0)),
                    entry: MSEND,
                    payload: Bytes::new(),
                },
            },
            &mut hooks,
        );
        let multis: Vec<&Envelope> = hooks.out.iter().filter(|e| matches!(e.body, MsgBody::Multi { .. })).collect();
        assert_eq!(multis.len(), 3, "5 section members on 3 PEs -> 3 wire messages");
        // Deliver them and count element hits.
        let mut total_hits = 0u64;
        let pending: Vec<Envelope> = hooks.out.drain(..).collect();
        for env in pending {
            let dst = env.dst;
            let n_elems = match &env.body {
                MsgBody::Multi { elems, .. } => elems.len() as u64,
                _ => 0,
            };
            nodes[dst.index()].handle(env, &mut hooks);
            total_hits += n_elems;
        }
        assert_eq!(total_hits, 5, "every section member delivered exactly once");
        let _ = DONE.load(Ordering::SeqCst);
    }

    #[test]
    fn grid_prio_elevates_cross_cluster_sends() {
        // One element on PE 0 (cluster A) sends to an element on PE 1
        // (cluster A) and one on PE 2 (cluster B); inspect emitted priorities.
        struct Sender;
        impl Chare for Sender {
            fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                ctx.send(ctx.me().array, crate::ids::ElemId(1), PING, vec![]);
                ctx.send(ctx.me().array, crate::ids::ElemId(2), PING, vec![]);
            }
        }
        struct Sink;
        impl Chare for Sink {
            fn receive(&mut self, _e: EntryId, _p: &[u8], _c: &mut Ctx<'_>) {}
        }

        let topo = Topology::two_cluster(4);
        let mut p = Program::new();
        // RoundRobin: elem0→pe0, elem1→pe1 (cluster A), elem2→pe2 (cluster B).
        let _arr = p.array("s", 3, Mapping::RoundRobin, |e| {
            if e.0 == 0 {
                Box::new(Sender) as Box<dyn Chare>
            } else {
                Box::new(Sink)
            }
        });
        let cfg = RunConfig { grid_prio: true, ..RunConfig::default() };
        let (shared, host) = split_program(p, topo, cfg);
        let mut node = Node::new(Arc::clone(&shared), Pe(0), host);
        let mut hooks = FifoHooks { out: Vec::new() };
        node.handle(
            Envelope {
                src: Pe(0),
                dst: Pe(0),
                priority: 0,
                sent_at_ns: 0,
                body: MsgBody::App {
                    target: ObjKey::new(ArrayId(0), crate::ids::ElemId(0)),
                    entry: PING,
                    payload: Bytes::new(),
                },
            },
            &mut hooks,
        );
        assert_eq!(hooks.out.len(), 2);
        let to_local = hooks.out.iter().find(|e| e.dst == Pe(1)).expect("local send");
        let to_remote = hooks.out.iter().find(|e| e.dst == Pe(2)).expect("remote send");
        assert_eq!(to_local.priority, APP_PRIORITY);
        assert_eq!(to_remote.priority, GRID_PRIORITY);
    }

    #[test]
    fn message_for_absent_element_is_forwarded() {
        let topo = Topology::two_cluster(2);
        let mut p = Program::new();
        let _ = p.array("a", 2, Mapping::Block, |_| Box::new(Counter { count: 0 }) as Box<dyn Chare>);
        let (shared, host) = split_program(p, topo, RunConfig::default());
        // Node for PE 0 hosts element 0; a stale message for element 1
        // (which lives on PE 1) must be forwarded there, not crash.
        let mut node = Node::new(Arc::clone(&shared), Pe(0), host);
        let mut hooks = FifoHooks { out: Vec::new() };
        node.handle(
            Envelope {
                src: Pe(1),
                dst: Pe(0),
                priority: -3,
                sent_at_ns: 0,
                body: MsgBody::App {
                    target: ObjKey::new(ArrayId(0), crate::ids::ElemId(1)),
                    entry: BUMP,
                    payload: Bytes::new(),
                },
            },
            &mut hooks,
        );
        assert_eq!(hooks.out.len(), 1, "forwarded exactly once");
        let fwd = &hooks.out[0];
        assert_eq!(fwd.dst, Pe(1));
        assert_eq!(fwd.priority, -3, "priority preserved across forwarding");
        assert!(matches!(&fwd.body, MsgBody::App { target, .. }
            if *target == ObjKey::new(ArrayId(0), crate::ids::ElemId(1))));
    }

    /// A forwarded message arrives as the buffer it left in: the handler's
    /// slice is a view of `Ctx::payload()`, and that is the sender's
    /// allocation (in one address space), not a copy made on the way.
    #[test]
    fn forwarded_message_is_delivered_as_the_buffer_it_was_sent_in() {
        static SEEN_AT: AtomicU64 = AtomicU64::new(0);
        struct Keeper;
        impl Chare for Keeper {
            fn receive(&mut self, _e: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
                assert_eq!(payload, b"kept");
                assert_eq!(ctx.payload().as_ptr(), payload.as_ptr(), "the slice is a view of Ctx::payload()");
                assert_eq!(ctx.payload().len(), payload.len());
                SEEN_AT.store(payload.as_ptr() as u64, Ordering::SeqCst);
            }
        }
        let mut p = Program::new();
        let _ = p.array("a", 2, Mapping::Block, |_| Box::new(Keeper) as Box<dyn Chare>);
        let mut nodes = build_nodes(Topology::two_cluster(2), p, RunConfig::default());
        let mut hooks = FifoHooks { out: Vec::new() };
        let sent = Bytes::from(b"kept".to_vec());
        // Stale destination: element 1 lives on PE 1, the message goes to PE 0.
        let stale = Envelope {
            src: Pe(1),
            dst: Pe(0),
            priority: 0,
            sent_at_ns: 0,
            body: MsgBody::App {
                target: ObjKey::new(ArrayId(0), crate::ids::ElemId(1)),
                entry: BUMP,
                payload: sent.clone(),
            },
        };
        nodes[0].handle(stale, &mut hooks);
        let fwd = hooks.out.pop().expect("forwarded");
        assert_eq!(fwd.dst, Pe(1));
        nodes[1].handle(fwd, &mut hooks);
        assert_eq!(SEEN_AT.load(Ordering::SeqCst), sent.as_ptr() as u64);
    }
}
