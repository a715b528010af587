//! One generation change, for every engine.
//!
//! A run is a sequence of *generations*: a topology, the [`Node`]s built
//! over it, and the books of what they did.  A generation ends when PEs
//! die (shrink) or due joiners can be admitted (expand); every PE then
//! restarts from the newest complete buddy snapshot over the new
//! topology.  [`Membership`] is that state machine as plain data — events
//! in, decisions out.  It reads no clock, does no I/O and starts no
//! thread.  An engine supplies the rest: the time of each event, a
//! transport, and a way to stop and restart its PEs (the simulator drains
//! its event queue; the wall-clock engine joins its threads and, across
//! processes, has the host [`assemble`](Membership::assemble) and
//! broadcast the snapshot every node then [`advance`](Membership::advance)s
//! over).

use std::sync::Arc;

use mdo_netsim::network::NetworkStats;
use mdo_netsim::{
    ClusterId, CrashSpec, CrashTrigger, Dur, FailureCause, FaultModelStats, JoinSpec, JoinTrigger, Pe, PeFailed, Time,
    Topology, TransportError, UnrecoverableError,
};
use mdo_obs::{CounterSet, Ctr, Event, ObsReport, PeObs};

use crate::checkpoint::{assemble_buddy_snapshot, FtPiece, Snapshot};
use crate::ids::ArrayId;
use crate::node::{split_program, HostParts, Node, NodeShared};
use crate::program::{Program, RunConfig, RunReport};

/// What one PE did in the generation being closed.
pub(super) struct PeRow {
    /// The PE, in original numbering.
    pub(super) orig: Pe,
    pub(super) busy: Dur,
    pub(super) messages: u64,
    /// High-water marks of its delivery queue.
    pub(super) queue_depth: usize,
    pub(super) queue_bytes: u64,
    /// Element bytes it packed into buddy checkpoints.
    pub(super) ckpt_bytes: u64,
    /// Its recording, with obs armed.
    pub(super) obs: Option<PeObs>,
}

/// What PE 0 tallies for the whole job over one generation.
#[derive(Clone, Copy, Default)]
pub(super) struct HostRow {
    pub(super) lb_rounds: u32,
    pub(super) migrations: u64,
    pub(super) rebalance: u32,
    pub(super) ft_epochs: u32,
}

impl HostRow {
    pub(super) fn of(node: &Node) -> Self {
        HostRow {
            lb_rounds: node.lb_rounds(),
            migrations: node.migrations(),
            rebalance: node.rebalance_triggers(),
            ft_epochs: node.ft_epochs(),
        }
    }
}

/// A run's cumulative books across its generations, per original PE.
#[derive(Default)]
pub(super) struct Books {
    pub(super) busy: Vec<Dur>,
    pub(super) msgs: Vec<u64>,
    pub(super) qdepth: Vec<usize>,
    /// One accumulated recording per original PE; `None` with obs off.
    pub(super) obs: Option<Vec<PeObs>>,
    pub(super) network: NetworkStats,
    /// Every tally that sums cleanly — across generations and, in a
    /// multi-process run, across nodes.
    pub(super) ctr: CounterSet,
    pub(super) peak_mailbox_bytes: u64,
    pub(super) lb_rounds: u32,
    pub(super) transport_error: Option<TransportError>,
}

impl Books {
    fn new(orig_n_pes: usize, record_on: bool) -> Self {
        let mut books = Books { obs: record_on.then(Vec::new), ..Books::default() };
        books.widen(orig_n_pes);
        books
    }

    /// Make room for original PE numbers below `n` (a brand-new joiner's
    /// number lies beyond the boot topology).
    fn widen(&mut self, n: usize) {
        if n > self.busy.len() {
            self.busy.resize(n, Dur::ZERO);
            self.msgs.resize(n, 0);
            self.qdepth.resize(n, 0);
            if let Some(obs) = &mut self.obs {
                obs.extend((obs.len() as u32..n as u32).map(PeObs::empty));
            }
        }
    }

    /// Close one generation's books: a row per PE that ran in it, plus
    /// PE 0's job-wide tallies from whoever hosted it.
    pub(super) fn close_generation(&mut self, rows: impl IntoIterator<Item = PeRow>, host: Option<HostRow>) {
        for r in rows {
            let o = r.orig.index();
            self.busy[o] += r.busy;
            self.msgs[o] += r.messages;
            self.qdepth[o] = self.qdepth[o].max(r.queue_depth);
            self.peak_mailbox_bytes = self.peak_mailbox_bytes.max(r.queue_bytes);
            self.ctr.add(Ctr::CheckpointBytes, r.ckpt_bytes);
            if let (Some(all), Some(obs)) = (&mut self.obs, r.obs) {
                all[o].absorb(obs);
            }
        }
        if let Some(h) = host {
            self.lb_rounds += h.lb_rounds;
            self.ctr.add(Ctr::ObjectsMigrated, h.migrations);
            self.ctr.add(Ctr::RebalanceTriggers, h.rebalance as u64);
            self.ctr.add(Ctr::CheckpointsTaken, h.ft_epochs as u64);
        }
    }
}

/// Why a generation ends with the run still going.
pub(super) enum Change {
    /// These PEs (current numbering) are dead; go on over the survivors.
    Shrink { dead_cur: Vec<Pe> },
    /// Admit these joiners, as [`Membership::due_joins`] named them.
    Expand { joiners: Vec<(ClusterId, Pe)> },
}

/// Who is in the job, who is due to leave or join it, and what it has
/// done so far.
pub(super) struct Membership {
    shared: Arc<NodeShared>,
    /// PE 0's host closures while no node holds them.
    host: Option<HostParts>,
    /// Current → original PE numbering.
    orig: Vec<Pe>,
    /// Injected crashes not yet fired (original numbering).
    pending_crashes: Vec<CrashSpec>,
    /// Joins not yet admitted, each with the cluster it lands in.
    pending_joins: Vec<(ClusterId, JoinSpec)>,
    failures: Vec<PeFailed>,
    /// `Generations`, `Recoveries`, `PesJoined`, `StepsReplayed`.
    ctr: CounterSet,
    pub(super) books: Books,
}

impl Membership {
    /// The first generation of `program` over `topo`.  `single` says the
    /// whole job is in this process: only then are the join plan and obs
    /// recording honoured.
    ///
    /// A rejoin that names no cluster goes back to the cluster its PE
    /// booted in; a brand-new PE has no such home and must name one.
    pub(super) fn new(program: Program, topo: Topology, cfg: RunConfig, single: bool) -> Self {
        let joins = cfg.join_plan.as_ref().filter(|_| single).map_or(&[][..], |p| &p.joins);
        let pending_joins = joins
            .iter()
            .map(|s| {
                let home = || (s.pe.index() < topo.num_pes()).then(|| topo.cluster_of(s.pe));
                (s.cluster.or_else(home).expect("a brand-new PE joining must name an explicit cluster"), *s)
            })
            .collect();
        let mut ctr = CounterSet::new();
        ctr.bump(Ctr::Generations);
        let books = Books::new(topo.num_pes(), single && cfg.obs.is_some());
        let orig = topo.pes().collect();
        let pending_crashes = cfg.failure_plan.as_ref().map(|p| p.crashes.clone()).unwrap_or_default();
        let (shared, host) = split_program(program, topo, cfg);
        Membership { shared, host: Some(host), orig, pending_crashes, pending_joins, failures: Vec::new(), ctr, books }
    }

    /// The current generation's shared node context.
    pub(super) fn shared(&self) -> &Arc<NodeShared> {
        &self.shared
    }

    /// Current → original PE numbering.
    pub(super) fn orig(&self) -> &[Pe] {
        &self.orig
    }

    /// The [`Node`]s of the current generation that this process hosts:
    /// one cluster's, or with `None` every PE's.  PE 0's node gets the
    /// host closures.
    pub(super) fn build_nodes(&mut self, cluster: Option<ClusterId>) -> Vec<Node> {
        let topo = &self.shared.topo;
        let pes: Vec<Pe> = cluster.map_or_else(|| topo.pes().collect(), |c| topo.pes_in(c).collect());
        pes.into_iter()
            .map(|pe| {
                let host = if pe == Pe(0) { self.host.take() } else { None };
                Node::new(Arc::clone(&self.shared), pe, host.unwrap_or_else(HostParts::empty))
            })
            .collect()
    }

    /// Take the host closures back out of PE 0's node of the generation
    /// that just ended, for the next one's.
    pub(super) fn keep_host(&mut self, node0: &mut Node) {
        debug_assert_eq!(node0.pe(), Pe(0));
        self.host = Some(node0.take_host());
    }

    /// The injected crash armed for `pe` (current numbering), if any.  A
    /// message count is what is left of it for the current generation:
    /// crash triggers count across restarts.
    pub(super) fn crash_of(&self, pe: Pe) -> Option<CrashTrigger> {
        let o = self.orig[pe.index()];
        self.pending_crashes.iter().find(|s| s.pe == o).map(|s| match s.trigger {
            CrashTrigger::AfterMessages(n) => CrashTrigger::AfterMessages(n.saturating_sub(self.books.msgs[o.index()])),
            at_time => at_time,
        })
    }

    /// Take every `AtTime` crash due by `now`, as current PE numbers (one
    /// naming a PE that is not alive is dropped) — for an engine that is
    /// its own exact failure detector.
    pub(super) fn take_timed_crashes(&mut self, now: Time) -> Vec<Pe> {
        let mut due = Vec::new();
        self.pending_crashes.retain(|s| match s.trigger {
            CrashTrigger::AtTime(at) if Time::ZERO + at <= now => {
                due.extend(self.orig.iter().position(|&o| o == s.pe).map(|cur| Pe(cur as u32)));
                false
            }
            _ => true,
        });
        due
    }

    /// Note PEs (current numbering) detected dead at `at`.
    pub(super) fn record_failures(&mut self, failed: &[(Pe, FailureCause)], at: Time) {
        self.failures.extend(failed.iter().map(|&(cur, cause)| PeFailed { pe: self.orig[cur.index()], at, cause }));
    }

    /// The joiners to admit now, as `(cluster, original PE)`.  A join is
    /// due once its trigger has fired *and* the generation holds a
    /// complete buddy epoch (`ckpt_done`), so the widened job has a
    /// snapshot to restart from.  A fired joiner whose PE is alive has
    /// nothing to rejoin and is dropped.  The others stay pending until an
    /// [`Change::Expand`] admits them: an engine that finds a failure in
    /// the same pass shrinks first and asks again in the next generation.
    pub(super) fn due_joins(&mut self, now: Time, ckpt_done: bool) -> Vec<(ClusterId, Pe)> {
        if !ckpt_done || self.pending_joins.is_empty() {
            return Vec::new();
        }
        let recoveries = self.ctr.get_u32(Ctr::Recoveries);
        let fired = |s: &JoinSpec| match s.trigger {
            JoinTrigger::AtTime(at) => Time::ZERO + at <= now,
            JoinTrigger::AfterRecoveries(n) => recoveries >= n,
        };
        self.pending_joins.retain(|(_, s)| !(fired(s) && self.orig.contains(&s.pe)));
        self.pending_joins.iter().filter(|(_, s)| fired(s)).map(|&(c, s)| (c, s.pe)).collect()
    }

    /// For whoever coordinates the change: the newest complete buddy
    /// snapshot among the survivors' `pieces`, and the AtSync round it was
    /// taken at.  `lb_rounds` is how many rounds the ending generation
    /// completed; the difference is work the next one replays.
    pub(super) fn assemble(
        &mut self,
        pieces: &[FtPiece],
        lb_rounds: u32,
    ) -> Result<(Snapshot, u32), UnrecoverableError> {
        let expected: Vec<(ArrayId, usize)> = self.shared.arrays.iter().map(|a| (a.id, a.n_elems)).collect();
        let Some((snapshot, round)) = assemble_buddy_snapshot(&expected, pieces) else {
            return Err(UnrecoverableError::NoCompleteSnapshot {
                failed: self.failures.iter().map(|f| f.pe).collect(),
            });
        };
        self.ctr.add(Ctr::StepsReplayed, lb_rounds.saturating_sub(round) as u64);
        Ok((snapshot, round))
    }

    /// Start the next generation at `at`: shrink or widen the topology,
    /// renumber, and rebuild the context every PE of it restarts from
    /// `snapshot` under.  Deterministic, so the processes of one job need
    /// only agree on `change` and `snapshot`.
    pub(super) fn advance(&mut self, change: Change, snapshot: Snapshot, at: Time) {
        let topo = match change {
            Change::Shrink { dead_cur } => {
                let dead: Vec<Pe> = dead_cur.iter().map(|pe| self.orig[pe.index()]).collect();
                self.pending_crashes.retain(|s| !dead.contains(&s.pe));
                let (topo, map) = self.shared.topo.without_pes(&dead_cur);
                self.orig = map.iter().map(|cur| self.orig[cur.index()]).collect();
                self.ctr.bump(Ctr::Recoveries);
                topo
            }
            Change::Expand { mut joiners } => {
                self.pending_joins.retain(|(_, s)| !joiners.iter().any(|&(_, pe)| pe == s.pe));
                self.ctr.add(Ctr::PesJoined, joiners.len() as u64);
                self.books.widen(joiners.iter().map(|&(_, pe)| pe.index() + 1).max().unwrap_or(0));
                // Joiners land at the end of their cluster's PE range, in
                // (cluster, original PE) order: the map's `None` slots pair
                // with the per-cluster joiner FIFO.
                joiners.sort_unstable();
                let added: Vec<ClusterId> = joiners.iter().map(|&(c, _)| c).collect();
                let (topo, map) = self.shared.topo.with_pes(&added);
                let slots = map.iter().enumerate().map(|(cur, slot)| match slot {
                    Some(old_cur) => self.orig[old_cur.index()],
                    None => {
                        let cid = topo.cluster_of(Pe(cur as u32));
                        joiners.remove(joiners.iter().position(|&(c, _)| c == cid).expect("joiner for slot")).1
                    }
                });
                self.orig = slots.collect();
                topo
            }
        };
        self.ctr.bump(Ctr::Generations);
        if let Some(obs) = &mut self.books.obs {
            // Mark the resume on the stream of every PE of the new generation.
            for o in &self.orig {
                obs[o.index()].events.push(Event::Recovery { at });
            }
        }
        self.shared = Arc::new(NodeShared {
            topo,
            arrays: self.shared.arrays.clone(),
            cfg: self.shared.cfg.clone(),
            restore: Some(Arc::new(snapshot)),
        });
    }

    /// The run's report, from its closed books.
    pub(super) fn into_report(self, end_time: Time, unrecoverable: Option<UnrecoverableError>) -> RunReport {
        let Membership { books, mut ctr, failures, .. } = self;
        ctr.merge(&books.ctr);
        ctr.add(Ctr::FailuresDetected, failures.len() as u64);
        RunReport {
            end_time,
            pe_busy: books.busy,
            pe_messages: books.msgs,
            pe_max_queue_depth: books.qdepth,
            network: books.network,
            obs: books.obs.map(|pes| ObsReport { pes, counters: ctr.clone() }),
            lb_rounds: books.lb_rounds,
            migrations: ctr.get(Ctr::ObjectsMigrated),
            faults: FaultModelStats {
                dropped: ctr.get(Ctr::Drops),
                corrupt_rejected: ctr.get(Ctr::CorruptRejected),
                dup_dropped: ctr.get(Ctr::DupDropped),
                reordered: ctr.get(Ctr::Reordered),
                retransmits: ctr.get(Ctr::Retransmits),
            },
            transport_error: books.transport_error,
            failures_detected: ctr.get_u32(Ctr::FailuresDetected),
            recoveries: ctr.get_u32(Ctr::Recoveries),
            pes_joined: ctr.get_u32(Ctr::PesJoined),
            generations: ctr.get_u32(Ctr::Generations),
            rebalance_triggers: ctr.get_u32(Ctr::RebalanceTriggers),
            objects_migrated: ctr.get(Ctr::ObjectsMigrated),
            steps_replayed: ctr.get_u32(Ctr::StepsReplayed),
            checkpoints_taken: ctr.get_u32(Ctr::CheckpointsTaken),
            checkpoint_bytes: ctr.get(Ctr::CheckpointBytes),
            failures,
            unrecoverable,
            credit_stalls: ctr.get(Ctr::CreditStalls),
            credit_wait: Dur::from_nanos(ctr.get(Ctr::CreditWaitNs)),
            sheds: ctr.get(Ctr::EnvelopesShed),
            shed_bytes: ctr.get(Ctr::ShedBytes),
            peak_mailbox_bytes: books.peak_mailbox_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chare::{Chare, Ctx};
    use crate::ids::{ElemId, EntryId, ObjKey};
    use crate::mapping::Mapping;
    use bytes::Bytes;
    use mdo_netsim::{FailurePlan, JoinPlan};

    struct Idle;
    impl Chare for Idle {
        fn receive(&mut self, _e: EntryId, _p: &[u8], _c: &mut Ctx<'_>) {}
    }

    /// Two clusters of two PEs — {0, 1} and {2, 3} — and one 4-element array.
    fn membership(cfg: RunConfig) -> Membership {
        let mut p = Program::new();
        p.array("a", 4, Mapping::Block, |_| Box::new(Idle) as Box<dyn Chare>);
        Membership::new(p, Topology::two_cluster(4), cfg, true)
    }

    fn pes(v: &[u32]) -> Vec<Pe> {
        v.iter().copied().map(Pe).collect()
    }

    fn shrink(m: &mut Membership, dead_cur: &[u32]) {
        m.advance(Change::Shrink { dead_cur: pes(dead_cur) }, Snapshot::default(), Time::ZERO);
    }

    fn expand(m: &mut Membership, joiners: &[(u16, u32)]) {
        let joiners = joiners.iter().map(|&(c, pe)| (ClusterId(c), Pe(pe))).collect();
        m.advance(Change::Expand { joiners }, Snapshot::default(), Time::ZERO);
    }

    fn at_ms(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    #[test]
    fn changes_renumber_deterministically_and_count_generations() {
        enum Step {
            Shrink(&'static [u32]),
            Expand(&'static [(u16, u32)]),
        }
        use Step::*;
        struct Case {
            what: &'static str,
            steps: &'static [Step],
            /// Current → original numbering after the last step.
            orig: &'static [u32],
            /// The report's (generations, recoveries, pes_joined).
            counts: (u32, u32, u32),
            /// How many original PEs the report covers.
            width: usize,
        }
        let table = [
            Case { what: "no change", steps: &[], orig: &[0, 1, 2, 3], counts: (1, 0, 0), width: 4 },
            Case {
                what: "survivors renumber densely",
                steps: &[Shrink(&[1])],
                orig: &[0, 2, 3],
                counts: (2, 1, 0),
                width: 4,
            },
            Case {
                what: "a second shrink names current numbers",
                steps: &[Shrink(&[1]), Shrink(&[1])],
                orig: &[0, 3],
                counts: (3, 2, 0),
                width: 4,
            },
            Case {
                what: "joiners land at the end of their cluster, by (cluster, original PE), and the books widen",
                steps: &[Shrink(&[1]), Expand(&[(1, 5), (0, 1), (1, 4)])],
                orig: &[0, 1, 2, 3, 4, 5],
                counts: (3, 1, 3),
                width: 6,
            },
            Case {
                what: "shrink, shrink, expand",
                steps: &[Shrink(&[3]), Shrink(&[1]), Expand(&[(0, 1)])],
                orig: &[0, 1, 2],
                counts: (4, 2, 1),
                width: 4,
            },
        ];
        for Case { what, steps, orig, counts, width } in table {
            let mut m = membership(RunConfig::default());
            for step in steps {
                match step {
                    Shrink(dead_cur) => shrink(&mut m, dead_cur),
                    Expand(joiners) => expand(&mut m, joiners),
                }
            }
            assert_eq!(m.orig(), pes(orig), "{what}");
            assert_eq!(m.shared().topo.num_pes(), orig.len(), "{what}");
            let report = m.into_report(Time::ZERO, None);
            assert_eq!((report.generations, report.recoveries, report.pes_joined), counts, "{what}");
            assert_eq!((report.pe_busy.len(), report.pe_messages.len()), (width, width), "{what}");
        }
    }

    #[test]
    fn a_joiner_lands_in_the_cluster_it_names_or_the_one_it_booted_in() {
        let plan = JoinPlan::new().rejoin_at(Pe(3), Dur::ZERO).join_at(Pe(4), ClusterId(0), Dur::ZERO);
        let mut m = membership(RunConfig { join_plan: Some(plan), ..RunConfig::default() });
        shrink(&mut m, &[3]);
        assert_eq!(m.due_joins(Time::ZERO, true), vec![(ClusterId(1), Pe(3)), (ClusterId(0), Pe(4))]);
        expand(&mut m, &[(1, 3), (0, 4)]);
        assert_eq!(m.orig(), pes(&[0, 1, 4, 2, 3]));
        assert_eq!(m.shared().topo.cluster_of(Pe(2)), ClusterId(0), "the brand-new PE went where it said");
        assert_eq!(m.shared().topo.cluster_of(Pe(4)), ClusterId(1), "the rejoin went home");
    }

    #[test]
    #[should_panic(expected = "must name an explicit cluster")]
    fn a_brand_new_pe_that_names_no_cluster_is_refused() {
        membership(RunConfig { join_plan: Some(JoinPlan::new().rejoin_at(Pe(4), Dur::ZERO)), ..RunConfig::default() });
    }

    #[test]
    fn joins_wait_for_their_trigger_a_snapshot_and_the_end_of_a_failure() {
        let plan = JoinPlan::new().rejoin_after_recoveries(Pe(1), 1).rejoin_at(Pe(3), Dur::from_millis(5)).join_at(
            Pe(4),
            ClusterId(1),
            Dur::from_millis(1),
        );
        let mut m = membership(RunConfig { join_plan: Some(plan), ..RunConfig::default() });
        let new_pe = (ClusterId(1), Pe(4));
        assert_eq!(m.due_joins(at_ms(0), true), vec![], "nothing has fired");
        assert_eq!(m.due_joins(at_ms(2), false), vec![], "fired, but no complete epoch to restart from");
        assert_eq!(m.due_joins(at_ms(2), true), vec![new_pe]);
        // PE 3's rejoin fires while PE 3 is alive: dropped, for good.
        assert_eq!(m.due_joins(at_ms(6), true), vec![new_pe]);
        // The engine found PE 1 dead in the same pass: it shrinks, the due
        // join is still pending afterwards, and the recovery fires PE 1's.
        shrink(&mut m, &[1]);
        assert_eq!(m.due_joins(at_ms(6), false), vec![], "the new generation has no epoch yet");
        assert_eq!(m.due_joins(at_ms(6), true), vec![(ClusterId(0), Pe(1)), new_pe]);
        shrink(&mut m, &[2]);
        assert_eq!(m.orig(), pes(&[0, 2]), "PE 3 died after its rejoin was dropped");
        assert_eq!(m.due_joins(at_ms(9), true), vec![(ClusterId(0), Pe(1)), new_pe], "and stays out");
        expand(&mut m, &[(0, 1), (1, 4)]);
        assert_eq!(m.due_joins(at_ms(9), true), vec![], "admitted joins are spent");
    }

    #[test]
    fn after_recoveries_fires_on_the_nth_recovery_and_not_before() {
        let plan = JoinPlan::new().rejoin_after_recoveries(Pe(1), 2);
        let mut m = membership(RunConfig { join_plan: Some(plan), ..RunConfig::default() });
        shrink(&mut m, &[1]);
        assert_eq!(m.due_joins(at_ms(1), true), vec![], "one recovery");
        shrink(&mut m, &[2]);
        assert_eq!(m.due_joins(at_ms(1), true), vec![(ClusterId(0), Pe(1))], "two");
    }

    #[test]
    fn a_shrink_drops_the_dead_pes_pending_crash_and_keeps_the_others() {
        let plan = FailurePlan::new().crash_after_messages(Pe(2), 10).crash_at(Pe(3), Dur::from_millis(1));
        let mut m = membership(RunConfig { failure_plan: Some(plan), ..RunConfig::default() });
        assert_eq!(m.crash_of(Pe(2)), Some(CrashTrigger::AfterMessages(10)));
        assert_eq!(m.crash_of(Pe(1)), None);
        let row = |orig, messages| PeRow {
            orig: Pe(orig),
            busy: Dur::ZERO,
            messages,
            queue_depth: 0,
            queue_bytes: 0,
            ckpt_bytes: 0,
            obs: None,
        };
        m.books.close_generation([row(1, 7), row(2, 4)], None);
        shrink(&mut m, &[1]);
        assert_eq!(m.crash_of(Pe(1)), Some(CrashTrigger::AfterMessages(6)), "PE 2, four messages in, is number 1");
        expand(&mut m, &[(0, 1)]);
        shrink(&mut m, &[2]);
        assert_eq!(m.crash_of(Pe(2)), Some(CrashTrigger::AtTime(Dur::from_millis(1))), "PE 3 is number 2 now");
        assert_eq!(m.take_timed_crashes(at_ms(0)), vec![]);
        assert_eq!(m.take_timed_crashes(at_ms(1)), vec![Pe(2)]);
        assert_eq!(m.crash_of(Pe(2)), None, "a crash fires once");
        expand(&mut m, &[(1, 2)]);
        assert_eq!(m.orig(), pes(&[0, 1, 3, 2]));
        assert!((0..4).all(|cur| m.crash_of(Pe(cur)).is_none()), "the rejoined PE 2 is not crashed again");
    }

    fn piece(epoch: u32, owner: u32, lb_round: u32, elems: &[u32], red_next: &[u32]) -> FtPiece {
        let states = elems.iter().map(|&e| (ObjKey::new(ArrayId(0), ElemId(e)), Bytes::from_static(b"s"))).collect();
        FtPiece { epoch, owner: Pe(owner), lb_round, states, red_next: red_next.to_vec() }
    }

    #[test]
    fn assemble_finds_the_newest_complete_epoch_or_names_every_failure_so_far() {
        let mut m = membership(RunConfig::default());
        // An expand with nothing to restart from and nothing failed.
        assert_eq!(m.assemble(&[], 0), Err(UnrecoverableError::NoCompleteSnapshot { failed: vec![] }));
        m.record_failures(&[(Pe(1), FailureCause::Injected)], at_ms(3));
        shrink(&mut m, &[1]);
        m.record_failures(&[(Pe(1), FailureCause::Panic)], at_ms(7));
        // Epoch 1 lost elements 2 and 3 with their owner and its buddy.
        let pieces = [piece(0, 0, 4, &[0, 1], &[9]), piece(0, 1, 4, &[2, 3], &[]), piece(1, 0, 6, &[0, 1], &[11])];
        let (snapshot, round) = m.assemble(&pieces, 7).expect("epoch 0 is complete");
        assert_eq!((snapshot.total_elems(), snapshot.arrays[0].red_next, round), (4, 9, 4));
        let none = m.assemble(&pieces[2..], 7);
        assert_eq!(none, Err(UnrecoverableError::NoCompleteSnapshot { failed: pes(&[1, 2]) }), "original numbers");
        let report = m.into_report(at_ms(9), none.err());
        assert_eq!(report.steps_replayed, 3, "rounds 5 to 7 run again");
        assert_eq!(report.failures_detected, 2);
        assert_eq!(
            report.failures.iter().map(|f| (f.pe, f.at)).collect::<Vec<_>>(),
            [(Pe(1), at_ms(3)), (Pe(2), at_ms(7))]
        );
    }
}
