//! Synthetic object workloads for the load-balancing ablations.
//!
//! The paper's §6 sketches a Grid-specific balancer; `ablation_lb`
//! exercises it against skewed synthetic loads.  Each object performs
//! `rounds` rounds of work; per round it charges its (heterogeneous)
//! cost, optionally messages a cross-cluster peer, and periodically
//! enters the AtSync barrier so the configured strategy can migrate it.

use mdo_core::chare::{Chare, Ctx};
use mdo_core::ids::{ElemId, EntryId};
use mdo_core::prelude::{WireReader, WireWriter};
use mdo_core::program::{Program, RunConfig, RunReport};
use mdo_core::{Mapping, SimEngine};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, Xoshiro256};

const TICK: EntryId = EntryId(1);
const PEER: EntryId = EntryId(2);
const PEER_ACK: EntryId = EntryId(3);

/// How object costs are drawn.
#[derive(Clone, Copy, Debug)]
pub enum LoadShape {
    /// All objects cost the same.
    Uniform,
    /// Costs grow linearly with the object index (mild skew).
    Linear,
    /// A few objects are 10× heavier than the rest (hot spots).
    HotSpots {
        /// Every `every`-th object is hot.
        every: u32,
    },
    /// Random costs in [0.2, 2)× the base (seeded).
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// Configuration for a synthetic run.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Number of objects.
    pub objects: u32,
    /// Work rounds per object.
    pub rounds: u32,
    /// Base per-round cost.
    pub base_cost: Dur,
    /// Cost distribution.
    pub shape: LoadShape,
    /// Message a cross-array peer each round (creates the cross-cluster
    /// communication edges GridCommLB keys on).
    pub peer_traffic: bool,
    /// Make peer traffic *blocking*: each round waits for the peer's
    /// acknowledgement, putting the (possibly wide-area) round trip on the
    /// critical path.  This is the regime where placement relative to the
    /// cluster boundary matters.
    pub blocking_peers: bool,
    /// Peer of object `i` is `(i + peer_stride) % objects`.  `objects/2`
    /// makes every peering cross-cluster under Block mapping; `1` makes
    /// almost all of them local (only the boundary objects cross).
    pub peer_stride: u32,
    /// Enter the LB barrier every `lb_period` rounds (None = never).
    pub lb_period: Option<u32>,
}

impl SyntheticConfig {
    /// Per-round cost of one object.
    pub fn cost_of(&self, elem: u32) -> Dur {
        let base = self.base_cost.as_nanos() as f64;
        let ns = match self.shape {
            LoadShape::Uniform => base,
            LoadShape::Linear => base * (1.0 + elem as f64 / self.objects as f64),
            LoadShape::HotSpots { every } => {
                if elem.is_multiple_of(every) {
                    base * 10.0
                } else {
                    base
                }
            }
            LoadShape::Random { seed } => {
                let mut rng = Xoshiro256::new(seed ^ (elem as u64).wrapping_mul(0x9E37));
                base * rng.next_f64_range(0.2, 2.0)
            }
        };
        Dur::from_nanos(ns.round() as u64)
    }
}

struct Worker {
    cfg: SyntheticConfig,
    round: u32,
    done: bool,
}

impl Worker {
    fn peer(&self, me: u32) -> ElemId {
        ElemId((me + self.cfg.peer_stride) % self.cfg.objects)
    }

    /// The object whose `peer()` is me (who to acknowledge).
    fn requester(&self, me: u32) -> ElemId {
        ElemId((me + self.cfg.objects - self.cfg.peer_stride % self.cfg.objects) % self.cfg.objects)
    }

    /// Start the current round's work: charge, emit peer traffic; with
    /// blocking peers the round completes on PEER_ACK, otherwise now.
    fn begin_round(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.my_elem().0;
        ctx.charge(self.cfg.cost_of(me));
        if self.cfg.peer_traffic {
            ctx.send(ctx.me().array, self.peer(me), PEER, vec![]);
            if self.cfg.blocking_peers {
                return; // resume in PEER_ACK
            }
        }
        self.complete_round(ctx);
    }

    fn complete_round(&mut self, ctx: &mut Ctx<'_>) {
        self.round += 1;
        if self.round >= self.cfg.rounds {
            self.done = true;
            ctx.contribute_u64_sum(&[1]);
        } else if self.cfg.lb_period.is_some_and(|p| self.round.is_multiple_of(p)) {
            ctx.at_sync();
        } else {
            let mut w = WireWriter::new();
            w.u32(self.round);
            ctx.send(ctx.me().array, ctx.my_elem(), TICK, w.finish());
        }
    }
}

impl Chare for Worker {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        match entry {
            TICK => {
                if !payload.is_empty() {
                    let round = WireReader::new(payload).u32().expect("round");
                    assert_eq!(round, self.round, "self-tick round");
                }
                self.begin_round(ctx);
            }
            PEER => {
                if self.cfg.blocking_peers {
                    let requester = self.requester(ctx.my_elem().0);
                    ctx.send(ctx.me().array, requester, PEER_ACK, vec![]);
                }
            }
            PEER_ACK => {
                assert!(self.cfg.blocking_peers, "unexpected ack");
                self.complete_round(ctx);
            }
            other => panic!("unknown synthetic entry {other:?}"),
        }
    }

    fn pack(&self, w: &mut WireWriter) {
        w.u32(self.round).bool(self.done);
    }

    fn resume_from_sync(&mut self, ctx: &mut Ctx<'_>) {
        if !self.done {
            let mut w = WireWriter::new();
            w.u32(self.round);
            ctx.send(ctx.me().array, ctx.my_elem(), TICK, w.finish());
        }
    }
}

/// Build and run the synthetic workload under the simulation engine.
pub fn run_synthetic(cfg: SyntheticConfig, net: NetworkModel, run_cfg: RunConfig) -> RunReport {
    let mut p = Program::new();
    let cfg_f = cfg.clone();
    let arr = p.array_migratable(
        "synthetic",
        cfg.objects as usize,
        Mapping::Block,
        move |_| Box::new(Worker { cfg: cfg_f.clone(), round: 0, done: false }) as Box<dyn Chare>,
        {
            let cfg_u = cfg.clone();
            move |_, r| {
                let round = r.u32().expect("round");
                let done = r.bool().expect("done");
                Box::new(Worker { cfg: cfg_u.clone(), round, done }) as Box<dyn Chare>
            }
        },
    );
    p.on_startup(move |ctl| ctl.broadcast(arr, TICK, vec![]));
    p.on_reduction(arr, |_s, _d, ctl| ctl.exit());
    SimEngine::new(net, run_cfg).run(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_core::program::LbChoice;
    use mdo_core::Ctr;
    use mdo_netsim::Time;

    fn base(shape: LoadShape, lb: Option<u32>) -> SyntheticConfig {
        SyntheticConfig {
            objects: 32,
            rounds: 8,
            base_cost: Dur::from_millis(1),
            shape,
            peer_traffic: true,
            blocking_peers: false,
            peer_stride: 16,
            lb_period: lb,
        }
    }

    #[test]
    fn completes_without_lb() {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(1));
        let report = run_synthetic(base(LoadShape::Uniform, None), net, RunConfig::default());
        assert_eq!(report.counters.get(Ctr::LbRounds), 0);
        assert!(report.end_time > Time::ZERO);
    }

    #[test]
    fn lb_barrier_runs_and_migrates_under_skew() {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(1));
        let cfg = base(LoadShape::HotSpots { every: 8 }, Some(4));
        let run_cfg = RunConfig { lb: LbChoice::Greedy, ..RunConfig::default() };
        let report = run_synthetic(cfg, net, run_cfg);
        assert_eq!(report.counters.get(Ctr::LbRounds), 1);
        assert!(report.counters.get(Ctr::ObjectsMigrated) > 0, "skewed load causes migration");
    }

    #[test]
    fn greedy_lb_shortens_skewed_makespan() {
        // Strong linear skew: Block mapping puts the heavy half on one
        // cluster; balancing helps.
        let run = |lb: LbChoice, period: Option<u32>| {
            let net = NetworkModel::two_cluster_sweep(4, mdo_netsim::Dur::from_micros(100));
            let mut cfg = base(LoadShape::HotSpots { every: 16 }, period);
            cfg.rounds = 16;
            let run_cfg = RunConfig { lb, ..RunConfig::default() };
            run_synthetic(cfg, net, run_cfg).end_time
        };
        let unbalanced = run(LbChoice::Identity, None);
        let balanced = run(LbChoice::Greedy, Some(2));
        assert!(balanced < unbalanced, "balancing pays: {balanced:?} < {unbalanced:?}");
    }

    #[test]
    fn grid_comm_lb_keeps_objects_home() {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(4));
        let cfg = base(LoadShape::Random { seed: 3 }, Some(4));
        let run_cfg = RunConfig { lb: LbChoice::GridComm, ..RunConfig::default() };
        let report = run_synthetic(cfg, net, run_cfg);
        assert_eq!(report.counters.get(Ctr::LbRounds), 1);
        // Completion is itself the check: placement desync would panic.
    }

    #[test]
    fn blocking_peers_put_latency_on_critical_path() {
        let run = |lat_ms: u64| {
            let mut cfg = base(LoadShape::Uniform, None);
            cfg.blocking_peers = true;
            let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(lat_ms));
            run_synthetic(cfg, net, RunConfig::default()).end_time
        };
        let fast = run(0);
        let slow = run(8);
        // Every object's 8 rounds each wait a full 16 ms round trip, so the
        // makespan is bounded below by 8 x 16 ms (work overlaps the RTTs,
        // so the *delta* vs the zero-latency run is smaller than that).
        assert!(slow >= Time::ZERO + Dur::from_millis(128), "8 sequential RTTs: {slow:?}");
        assert!(slow > fast);
    }

    #[test]
    fn blocking_peers_complete_with_lb() {
        let mut cfg = base(LoadShape::Random { seed: 9 }, Some(4));
        cfg.blocking_peers = true;
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        let run_cfg = RunConfig { lb: LbChoice::GridComm, ..RunConfig::default() };
        let report = run_synthetic(cfg, net, run_cfg);
        assert_eq!(report.counters.get(Ctr::LbRounds), 1);
    }

    #[test]
    fn cost_shapes() {
        let cfg = base(LoadShape::Linear, None);
        assert!(cfg.cost_of(31) > cfg.cost_of(0));
        let cfg = base(LoadShape::HotSpots { every: 8 }, None);
        assert_eq!(cfg.cost_of(8), cfg.cost_of(0));
        assert!(cfg.cost_of(0) > cfg.cost_of(1) * 5);
        let cfg = base(LoadShape::Random { seed: 1 }, None);
        assert_eq!(cfg.cost_of(5), cfg.cost_of(5), "deterministic");
        let cfg2 = base(LoadShape::Uniform, None);
        assert_eq!(cfg2.cost_of(1), cfg2.cost_of(30));
    }
}
