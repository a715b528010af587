//! Describing a program to an engine, and what comes back from a run.
//!
//! A [`Program`] is the application side of the contract: chare arrays
//! (with factories and placement), a startup closure, and host callbacks
//! (reduction clients, a quiescence client).  A [`RunConfig`] holds the
//! runtime knobs the paper studies — Grid message priority, load-balancing
//! strategy, observability.  Engines consume both and return a [`RunReport`].

use std::collections::HashMap;
use std::sync::Arc;

use mdo_netsim::network::NetworkStats;
use mdo_netsim::{
    AggConfig, Dur, FailurePlan, FaultPlan, FlowConfig, PeFailed, Time, TransportError, UnrecoverableError,
};
use mdo_obs::{CounterSet, ObsConfig, ObsReport};

use crate::array::ArraySpec;
use crate::balancer::{GreedyLB, GridCommLB, RefineLB, RotateLB, Strategy};
use crate::chare::{Chare, ElemUnpacker, HostCtl};
use crate::checkpoint::Snapshot;
use crate::envelope::ReduceData;
use crate::ids::{ArrayId, ElemId};
use crate::mapping::Mapping;
use crate::wire::WireReader;

/// Startup closure type.
pub type StartupFn = Box<dyn FnOnce(&mut HostCtl<'_>) + Send>;
/// Reduction client type: (reduction seq, result, control).
pub type ReductionClient = Box<dyn FnMut(u32, &ReduceData, &mut HostCtl<'_>) + Send>;
/// Quiescence client type.
pub type QuiescenceClient = Box<dyn FnMut(&mut HostCtl<'_>) + Send>;
/// Checkpoint client type: called on PE 0 with each completed snapshot.
pub type CheckpointClient = Box<dyn FnMut(&Snapshot, &mut HostCtl<'_>) + Send>;

/// An application, as handed to an engine.
pub struct Program {
    pub(crate) arrays: Vec<Arc<ArraySpec>>,
    pub(crate) startup: Option<StartupFn>,
    pub(crate) reduction_clients: HashMap<ArrayId, ReductionClient>,
    pub(crate) quiescence_client: Option<QuiescenceClient>,
    pub(crate) checkpoint_client: Option<CheckpointClient>,
    pub(crate) restore: Option<Arc<Snapshot>>,
}

impl Default for Program {
    fn default() -> Self {
        Self::new()
    }
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program {
            arrays: Vec::new(),
            startup: None,
            reduction_clients: HashMap::new(),
            quiescence_client: None,
            checkpoint_client: None,
            restore: None,
        }
    }

    /// Declare a (non-migratable) chare array of `n_elems` elements built
    /// by `factory` and placed by `mapping`.  Returns its id.
    pub fn array<F>(&mut self, name: &str, n_elems: usize, mapping: Mapping, factory: F) -> ArrayId
    where
        F: Fn(ElemId) -> Box<dyn Chare> + Send + Sync + 'static,
    {
        self.push_array(name, n_elems, mapping, Arc::new(factory), None)
    }

    /// Declare a migratable chare array: like [`Program::array`] but with an
    /// `unpacker` that reconstructs an element from its packed state after
    /// migration.
    pub fn array_migratable<F, U>(
        &mut self,
        name: &str,
        n_elems: usize,
        mapping: Mapping,
        factory: F,
        unpacker: U,
    ) -> ArrayId
    where
        F: Fn(ElemId) -> Box<dyn Chare> + Send + Sync + 'static,
        U: Fn(ElemId, &mut WireReader<'_>) -> Box<dyn Chare> + Send + Sync + 'static,
    {
        self.push_array(name, n_elems, mapping, Arc::new(factory), Some(Arc::new(unpacker)))
    }

    fn push_array(
        &mut self,
        name: &str,
        n_elems: usize,
        mapping: Mapping,
        factory: Arc<crate::chare::ElemFactory>,
        unpacker: Option<Arc<ElemUnpacker>>,
    ) -> ArrayId {
        assert!(n_elems > 0, "array {name:?} must have at least one element");
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(Arc::new(ArraySpec { id, name: name.to_string(), n_elems, factory, unpacker, mapping }));
        id
    }

    /// Register the startup closure, run once on PE 0 before anything else
    /// — unless the program is restored ([`Program::restore_from`]), which
    /// resumes instead.
    pub fn on_startup<F>(&mut self, f: F)
    where
        F: FnOnce(&mut HostCtl<'_>) + Send + 'static,
    {
        assert!(self.startup.is_none(), "startup closure registered twice");
        self.startup = Some(Box::new(f));
    }

    /// Register the client called (on PE 0, in sequence order) each time a
    /// reduction over `array` completes.
    pub fn on_reduction<F>(&mut self, array: ArrayId, f: F)
    where
        F: FnMut(u32, &ReduceData, &mut HostCtl<'_>) + Send + 'static,
    {
        let prev = self.reduction_clients.insert(array, Box::new(f));
        assert!(prev.is_none(), "reduction client for {array:?} registered twice");
    }

    /// Register the client called when quiescence is detected.  Registering
    /// one is what runs quiescence detection: a program without a client
    /// sends no probe.
    pub fn on_quiescence<F>(&mut self, f: F)
    where
        F: FnMut(&mut HostCtl<'_>) + Send + 'static,
    {
        assert!(self.quiescence_client.is_none(), "quiescence client registered twice");
        self.quiescence_client = Some(Box::new(f));
    }

    /// Register the client called (on PE 0) each time a barrier-integrated
    /// checkpoint completes.  Registering one is what takes a checkpoint at
    /// every AtSync barrier (the application is provably quiescent there).
    /// The client typically saves the snapshot and either exits or lets
    /// the run continue.
    pub fn on_checkpoint<F>(&mut self, f: F)
    where
        F: FnMut(&Snapshot, &mut HostCtl<'_>) + Send + 'static,
    {
        assert!(self.checkpoint_client.is_none(), "checkpoint client registered twice");
        self.checkpoint_client = Some(Box::new(f));
    }

    /// Restore element state from a checkpoint instead of running the
    /// array factories.  Element placement is recomputed by each array's
    /// mapping over the (possibly different — shrink/expand) topology, and
    /// a restored program resumes rather than starts: the startup closure
    /// does not run, and every element receives `resume_from_sync` instead.
    /// All arrays must be migratable, and the snapshot must cover every
    /// element.
    pub fn restore_from(&mut self, snapshot: Snapshot) {
        assert!(self.restore.is_none(), "restore snapshot set twice");
        self.restore = Some(Arc::new(snapshot));
    }

    /// Total objects across all arrays.
    pub fn total_elems(&self) -> usize {
        self.arrays.iter().map(|a| a.n_elems).sum()
    }
}

/// Which load-balancing strategy AtSync barriers run.
#[derive(Clone, Default)]
pub enum LbChoice {
    /// Keep the current placement (barrier semantics only).
    #[default]
    Identity,
    /// Classic greedy (cluster-oblivious).
    Greedy,
    /// Refinement from the current placement.
    Refine,
    /// The paper's §6 Grid-aware balancer.
    GridComm,
    /// Rotate every object to the next PE (testing).
    Rotate,
    /// Any user strategy.
    Custom(Arc<dyn Strategy>),
}

impl LbChoice {
    /// Materialize the strategy object.
    pub fn strategy(&self) -> Arc<dyn Strategy> {
        struct Identity;
        impl Strategy for Identity {
            fn name(&self) -> &str {
                "IdentityLB"
            }
            fn assign(&self, input: &crate::balancer::LbInput<'_>) -> Vec<(crate::ids::ObjKey, mdo_netsim::Pe)> {
                input.objs.iter().map(|m| (m.key, m.current_pe)).collect()
            }
        }
        match self {
            LbChoice::Identity => Arc::new(Identity),
            LbChoice::Greedy => Arc::new(GreedyLB),
            LbChoice::Refine => Arc::new(RefineLB::default()),
            LbChoice::GridComm => Arc::new(GridCommLB),
            LbChoice::Rotate => Arc::new(RotateLB),
            LbChoice::Custom(s) => Arc::clone(s),
        }
    }
}

impl std::fmt::Debug for LbChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LbChoice::Identity => "Identity",
            LbChoice::Greedy => "Greedy",
            LbChoice::Refine => "Refine",
            LbChoice::GridComm => "GridComm",
            LbChoice::Rotate => "Rotate",
            LbChoice::Custom(_) => "Custom",
        })
    }
}

/// Runtime knobs shared by the simulation engine and the wall-clock
/// engine — the latter one engine whether it runs in one process or, with
/// [`RunConfig::net`] set, as one process per cluster over TCP.  Two
/// features are single-process only and ignored (with a warning) in net
/// mode: the failure plan's joins and `obs`.  What only the simulator
/// reads — its delivery policy and schedule recording — is the
/// simulator's own [`SimConfig`](crate::engine::sim::SimConfig).
#[derive(Clone, Debug, Default)]
pub struct RunConfig {
    /// §6 extension: tag cross-cluster application messages with elevated
    /// priority so receivers process them before local traffic.
    pub grid_prio: bool,
    /// Strategy used when elements call `at_sync` (default Identity).
    pub lb: LbChoice,
    /// Seed for any runtime randomness (network jitter, tie-breaking).
    pub seed: u64,
    /// Unreliable-WAN fault injection: when set, cross-cluster traffic is
    /// subjected to the plan's drop/duplicate/reorder/corrupt probabilities
    /// and carried by the reliable delivery layer (threaded engine) or the
    /// equivalent virtual-time fault model (simulation engine).  `None`
    /// leaves both engines exactly as they are without fault injection.
    pub fault_plan: Option<FaultPlan>,
    /// PE-failure tolerance and elasticity: when set, the engines arm the
    /// failure detector, take buddy checkpoints at every AtSync barrier,
    /// inject the plan's crashes, and automatically shrink-restart from
    /// the newest complete buddy snapshot on failure.  They also admit
    /// the plan's joins — new or crashed-then-restarted PEs — at the next
    /// completed checkpoint epoch, widening the topology with
    /// [`Topology::with_pes`](mdo_netsim::Topology::with_pes) and
    /// redistributing object state from the newest complete snapshot.
    /// `None` (the default) leaves the runtime exactly as it was: a dying
    /// PE ends the run.
    pub failure_plan: Option<FailurePlan>,
    /// Continuous obs-driven load balancing: when set, AtSync barriers
    /// run the configured strategy only when the measured max/mean PE
    /// load exceeds [`FEEDBACK_MAX_MEAN_RATIO`](crate::balancer::FEEDBACK_MAX_MEAN_RATIO),
    /// and are otherwise a cheap no-op placement.  Unset (the default),
    /// the strategy runs unconditionally at every barrier.
    pub feedback: bool,
    /// Arm the Projections-style observability subsystem: per-PE event
    /// rings, counters and latency/grain/queue-depth histograms, plus the
    /// derived overlap-fraction analyses ([`ObsReport`]).  `None` (the
    /// default) records nothing: every recording call sits behind one
    /// runtime check of this field.
    pub obs: Option<ObsConfig>,
    /// TRAM-style cross-cluster message aggregation: when set, envelopes
    /// bound for the same remote PE coalesce into jumbo frames flushed by
    /// size or deadline (real frames over the VMI chain in the threaded
    /// engine; an equivalent batched-release model in simulation virtual
    /// time).  System-critical envelopes force a flush, so quiescence
    /// detection and barriers never stall.  `None` (the default) sends
    /// every envelope standalone, exactly as before.
    pub agg: Option<AggConfig>,
    /// End-to-end backpressure: when set, each cross-cluster (src, dst)
    /// pair is held to the config's credit window and per-PE delivery
    /// mailboxes to its byte budget, with the configured
    /// [`OverloadPolicy`](mdo_netsim::OverloadPolicy) (`Block` stalls
    /// senders losslessly; `Shed` drops the least-urgent application
    /// envelopes with accounting — system/control traffic is never shed).
    /// The threaded engine implements it as credit grants riding the
    /// reliable layer's acks; the simulation engine applies the same
    /// windows in virtual time, so credit stalls and sheds are
    /// deterministic and explorable.  `None` (the default) leaves both
    /// engines exactly as they are: unbounded in-flight traffic.
    pub flow: Option<FlowConfig>,
    /// Multi-process mode, a deployment setting: when set, this process
    /// hosts only the PEs of its own topology cluster and cross-cluster
    /// traffic moves over real TCP (mdo-net) instead of in-process
    /// mailboxes — the same engine over a different wire.  One process per
    /// cluster; node 0 hosts PE 0 and merges the final report from every
    /// node's control-plane submission.  `None` (the default) is the
    /// one-node case: the whole job in one process.  Ignored by the
    /// simulation engine.
    pub net: Option<mdo_net::NetConfig>,
    /// The shape of the [`SpanTree`](mdo_netsim::SpanTree) that every
    /// broadcast, reduction and section multicast runs over; the
    /// algorithm is the same for both, and since every reduction operator
    /// is exact (a `SumF64` rounds once, at the root), so is every result.
    /// Unset (the default) is the cluster-blind binary PE heap, with no
    /// gateways.  Set is the Grid-topology-aware two-level tree — one
    /// gateway PE per cluster, so each collective crosses the wide area
    /// once per remote cluster instead of once per remote PE, with
    /// intra-cluster fan-in/fan-out of [`SpanTree::BRANCH`](mdo_netsim::SpanTree::BRANCH)
    /// and reduction partial-combine at the gateway.  Either shape is a
    /// pure function of the topology, so shrink/expand generation changes
    /// rebuild it consistently on every engine.
    pub tree_collectives: bool,
}

/// What an engine reports after a run: per-PE books, traffic, the
/// run's structured errors, and its [`CounterSet`].
#[derive(Debug)]
pub struct RunReport {
    /// Time at which the run ended (virtual for the sim engine, wall-clock
    /// since start for the threaded engine).
    pub end_time: Time,
    /// Per-PE busy time (handler execution).
    pub pe_busy: Vec<Dur>,
    /// Per-PE count of processed envelopes.
    pub pe_messages: Vec<u64>,
    /// Per-PE high-water mark of scheduler queue depth — a direct measure
    /// of how much maskable work each PE held at once (the paper's core
    /// mechanism: higher virtualization ⇒ deeper queues ⇒ more to overlap
    /// with a cross-cluster wait).
    pub pe_max_queue_depth: Vec<usize>,
    /// Traffic summary (intra vs cross-cluster).
    pub network: NetworkStats,
    /// Observability data (events, counters, histograms, overlap
    /// analyses), when [`RunConfig::obs`] was armed.
    pub obs: Option<ObsReport>,
    /// Set when the reliable delivery layer exhausted its retransmission
    /// budget for some message and the run was aborted; results are
    /// incomplete in that case.
    pub transport_error: Option<TransportError>,
    /// Every failure detected (injected, panics, timeouts), in detection
    /// order (original PE numbering).
    pub failures: Vec<PeFailed>,
    /// Set when a failure could not be recovered from; the run ended
    /// early (but cleanly) and results are incomplete.
    pub unrecoverable: Option<UnrecoverableError>,
    /// High-water mark, over PEs, of delivery-queue payload bytes — the
    /// quantity flow control keeps near its mailbox budget.  Reported even
    /// without flow control, so overload ablations can contrast bounded
    /// against unbounded growth.
    pub peak_mailbox_bytes: u64,
    /// Every run-wide tally — faults and retransmissions, recoveries,
    /// migrations, checkpoints, credit stalls, sheds — one per
    /// [`Ctr`](mdo_obs::Ctr), summed across generations and nodes: read
    /// one as `report.counters.get(Ctr::Recoveries)`.
    pub counters: CounterSet,
}

impl RunReport {
    /// Mean PE utilization over the run (busy / elapsed), in [0, 1].
    pub fn mean_utilization(&self) -> f64 {
        if self.end_time == Time::ZERO || self.pe_busy.is_empty() {
            return 0.0;
        }
        let total_busy: f64 = self.pe_busy.iter().map(|d| d.as_secs_f64()).sum();
        total_busy / (self.end_time.as_secs_f64() * self.pe_busy.len() as f64)
    }

    /// The run's WAN-overlap fraction (masked / outstanding cross-cluster
    /// wait time), when observability was armed.
    pub fn overlap_fraction(&self) -> Option<f64> {
        self.obs.as_ref().map(|o| o.overlap_fraction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chare::{Chare, Ctx};
    use crate::ids::EntryId;

    struct Dummy;
    impl Chare for Dummy {
        fn receive(&mut self, _e: EntryId, _p: &[u8], _c: &mut Ctx<'_>) {}
    }

    #[test]
    fn arrays_get_dense_ids() {
        let mut p = Program::new();
        let a = p.array("a", 4, Mapping::Block, |_| Box::new(Dummy));
        let b = p.array("b", 2, Mapping::RoundRobin, |_| Box::new(Dummy));
        assert_eq!(a, ArrayId(0));
        assert_eq!(b, ArrayId(1));
        assert_eq!(p.total_elems(), 6);
        assert!(p.arrays[0].unpacker.is_none());
    }

    #[test]
    fn migratable_array_has_unpacker() {
        let mut p = Program::new();
        p.array_migratable("m", 1, Mapping::Block, |_| Box::new(Dummy), |_, _| Box::new(Dummy));
        assert!(p.arrays[0].unpacker.is_some());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_startup_rejected() {
        let mut p = Program::new();
        p.on_startup(|_| {});
        p.on_startup(|_| {});
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_array_rejected() {
        let mut p = Program::new();
        p.array("empty", 0, Mapping::Block, |_| Box::new(Dummy));
    }

    #[test]
    fn lb_choices_materialize() {
        for (c, name) in [
            (LbChoice::Identity, "IdentityLB"),
            (LbChoice::Greedy, "GreedyLB"),
            (LbChoice::Refine, "RefineLB"),
            (LbChoice::GridComm, "GridCommLB"),
            (LbChoice::Rotate, "RotateLB"),
        ] {
            assert_eq!(c.strategy().name(), name);
        }
    }

    #[test]
    fn utilization_math() {
        let report = RunReport {
            end_time: Time::from_nanos(1_000),
            pe_busy: vec![Dur::from_nanos(500), Dur::from_nanos(1_000)],
            pe_messages: vec![1, 1],
            pe_max_queue_depth: vec![1, 2],
            network: NetworkStats::default(),
            obs: None,
            transport_error: None,
            failures: Vec::new(),
            unrecoverable: None,
            peak_mailbox_bytes: 0,
            counters: CounterSet::new(),
        };
        assert!((report.mean_utilization() - 0.75).abs() < 1e-12);
    }
}
