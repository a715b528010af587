//! The five-point stencil application (paper §4, §5.2).
//!
//! A `mesh`×`mesh` Jacobi relaxation decomposed into k×k block objects
//! ("the problem is decomposed using virtualization by dividing the cells
//! within the mesh evenly among a specified number of objects").  Each
//! time step every block exchanges one edge vector with each von-Neumann
//! neighbour — four messages per object per step — and updates its cells.
//! Blocks advance **asynchronously**, each as soon as *its* four ghosts
//! arrive: the step protocol every halo application shares
//! (`crate::halo`), which masks the wide-area latency as far as the degree
//! of virtualization (objects per PE) gives each PE maskable work.  This
//! module supplies the block's geometry, its Jacobi kernel and cost model,
//! and the pack/unpack of its grid that lets blocks migrate at `lb_period`
//! barriers and be checkpointed.
//!
//! Submodules: [`seq`] (sequential reference), [`ghost`] (multi-layer
//! ghost-zone variant — the algorithm-level baseline), [`bsp`] (the
//! bulk-synchronous AMPI baseline), [`ampi2d`] (the same problem as
//! unchanged MPI-style code, masked purely by AMPI virtualization).

pub mod ampi2d;
pub mod bsp;
pub mod ghost;
pub mod seq;

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use mdo_core::ids::ElemId;
use mdo_core::prelude::{WireReader, WireWriter};
use mdo_core::program::{Program, RunConfig, RunReport};
use mdo_core::{Mapping, SimEngine, ThreadedConfig, ThreadedEngine};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, LatencyMatrix, Topology};

pub use crate::halo::StencilOutcome;
use crate::halo::{self, Halo};

/// The neighbour directions (row delta, column delta): up, down, left,
/// right — the stencil's four — then the corners the ghost-zone variant
/// adds.  A block's halo slot `d` holds what its neighbour in direction
/// `d` sent.
const DIRS: [[isize; 2]; 8] = [[-1, 0], [1, 0], [0, -1], [0, 1], [-1, -1], [-1, 1], [1, -1], [1, 1]];

/// Compute-cost model for the simulation engine, calibrated in
/// EXPERIMENTS.md against the paper's Itanium-2 numbers.
#[derive(Clone, Debug)]
pub struct StencilCost {
    /// Base virtual cost per cell update.
    pub ns_per_cell: f64,
    /// Per-message software overhead.
    pub msg_overhead: Dur,
    /// Model the cache effect the paper observes ("performance
    /// improvements with higher degrees of virtualization are due to
    /// improved cache performance because of smaller grainsize", §5.2).
    pub cache_effect: bool,
}

impl Default for StencilCost {
    fn default() -> Self {
        StencilCost { ns_per_cell: 34.0, msg_overhead: Dur::from_micros(30), cache_effect: true }
    }
}

impl StencilCost {
    /// Relative slowdown for a block of `cells` cells: large blocks fall
    /// out of cache (Itanium-2 L3 is single-digit MB; a 1024² f64 block is
    /// 8 MB), tiny blocks pay loop overhead.
    pub fn cache_factor(&self, cells: usize) -> f64 {
        if !self.cache_effect {
            return 1.0;
        }
        let bytes = cells * 8;
        if bytes >= 8 << 20 {
            1.20
        } else if bytes >= 2 << 20 {
            1.03
        } else if bytes >= 128 << 10 {
            1.07
        } else {
            1.10
        }
    }

    /// Virtual cost of one block step.
    pub fn step_cost(&self, cells: usize, msgs: usize) -> Dur {
        let compute = self.ns_per_cell * self.cache_factor(cells) * cells as f64;
        Dur::from_nanos(compute.round() as u64) + self.msg_overhead * msgs as u64
    }
}

/// Configuration for one stencil run.
#[derive(Clone, Debug)]
pub struct StencilConfig {
    /// Mesh side length (paper: 2048).
    pub mesh: usize,
    /// Number of block objects; must be a perfect square whose root
    /// divides `mesh` (paper: 4–1024).
    pub objects: usize,
    /// Time steps to run.
    pub steps: u32,
    /// Execute the real Jacobi kernel (validation) or only charge its
    /// virtual cost (fast sweeps).
    pub compute: bool,
    /// Cost model.
    pub cost: StencilCost,
    /// Block placement (default [`Mapping::Block`]; use a custom map for
    /// uneven co-allocations, cf. Cactus-G's 1+3-machine run in §3).
    pub mapping: Mapping,
    /// Enter the AtSync barrier every `lb_period` steps.  Blocks pause
    /// *before* sending that step's edges, so no application message is in
    /// flight at the barrier — blocks can migrate (and be checkpointed)
    /// freely.  None = never (the paper's runs).
    pub lb_period: Option<u32>,
}

impl StencilConfig {
    /// The paper's canonical problem: 2048×2048, given objects and steps,
    /// cost-model only.
    pub fn paper(objects: usize, steps: u32) -> Self {
        StencilConfig {
            mesh: 2048,
            objects,
            steps,
            compute: false,
            cost: StencilCost::default(),
            mapping: Mapping::Block,
            lb_period: None,
        }
    }

    /// Blocks per side.
    pub fn k(&self) -> usize {
        let k = (self.objects as f64).sqrt().round() as usize;
        assert_eq!(k * k, self.objects, "objects must be a perfect square");
        assert_eq!(self.mesh % k, 0, "sqrt(objects) must divide the mesh");
        k
    }

    /// Cells per block side.
    pub fn block(&self) -> usize {
        self.mesh / self.k()
    }
}

/// One mesh block.
pub(crate) struct Block {
    cfg: StencilConfig,
    bi: usize,
    bj: usize,
    /// (b+2)² working grid with ghost ring; empty when compute is off.
    grid: Vec<f64>,
    next: Vec<f64>,
}

impl Block {
    pub(crate) fn new(cfg: StencilConfig, elem: ElemId) -> Self {
        let k = cfg.k();
        let b = cfg.block();
        let (bi, bj) = (elem.index() / k, elem.index() % k);
        let (mut grid, mut next) = (Vec::new(), Vec::new());
        if cfg.compute {
            let w = b + 2;
            grid = vec![0.0; w * w];
            next = vec![0.0; w * w];
            for r in 0..b {
                for c in 0..b {
                    grid[(r + 1) * w + (c + 1)] = seq::initial_value(cfg.mesh, bi * b + r, bj * b + c);
                }
            }
            next.copy_from_slice(&grid);
        }
        Block { cfg, bi, bj, grid, next }
    }

    /// Where the cells on side `slot` start in the grid, and their stride:
    /// the ghost ring's, or with `inner` the block's own edge beside it.
    fn side(&self, slot: usize, inner: bool) -> (usize, usize) {
        let (b, w) = (self.cfg.block(), self.cfg.block() + 2);
        let (ring, edge, stride) = match slot {
            0 => (1, w + 1, 1),                   // top row
            1 => ((b + 1) * w + 1, b * w + 1, 1), // bottom row
            2 => (w, w + 1, w),                   // left column
            _ => (w + b + 1, w + b, w),           // right column
        };
        (if inner { edge } else { ring }, stride)
    }
}

impl Halo for Block {
    const ARRAY: &'static str = "stencil-blocks";

    type Slots = [Bytes; 4];

    fn slots(&self) -> [Bytes; 4] {
        Default::default()
    }

    fn neighbor(&self, slot: usize) -> Option<(ElemId, u8)> {
        // The receiver's slot for me is the opposite side: 0↔1, 2↔3.
        halo::grid_neighbor(self.cfg.k(), [self.bi, self.bj], DIRS[slot]).map(|n| (n, slot as u8 ^ 1))
    }

    fn halo_len(&self, _slot: usize) -> usize {
        self.cfg.block()
    }

    fn halo(&self, slot: usize) -> impl Iterator<Item = f64> + '_ {
        let (first, stride) = self.side(slot, true);
        (0..self.cfg.block()).map(move |i| self.grid[first + i * stride])
    }

    fn fill(&mut self, slot: usize, values: impl Iterator<Item = f64>) {
        let (first, stride) = self.side(slot, false);
        for (i, v) in values.enumerate() {
            self.grid[first + i * stride] = v;
        }
    }

    fn compute(&mut self, _step: u32, msgs: usize) -> (Dur, u32) {
        let b = self.cfg.block();
        if self.cfg.compute {
            let w = b + 2;
            for r in 1..=b {
                for c in 1..=b {
                    self.next[r * w + c] = seq::update(
                        self.grid[r * w + c],
                        self.grid[(r - 1) * w + c],
                        self.grid[(r + 1) * w + c],
                        self.grid[r * w + c - 1],
                        self.grid[r * w + c + 1],
                    );
                }
            }
            std::mem::swap(&mut self.grid, &mut self.next);
        }
        (self.cfg.cost.step_cost(b * b, msgs), 1)
    }

    /// Sum of my interior cells, rows then columns (matches
    /// [`seq::SeqStencil::block_sums`]).
    fn block_sum(&self) -> f64 {
        let b = self.cfg.block();
        let w = b + 2;
        (1..=b).flat_map(|r| (1..=b).map(move |c| r * w + c)).fold(0.0, |s, i| s + self.grid[i])
    }

    fn steps(&self) -> u32 {
        self.cfg.steps
    }

    fn computes(&self) -> bool {
        self.cfg.compute
    }

    fn lb_period(&self) -> Option<u32> {
        self.cfg.lb_period
    }

    fn pack(&self, w: &mut WireWriter) {
        w.bool(self.cfg.compute);
        if self.cfg.compute {
            w.f64_slice(&self.grid);
        }
    }

    fn unpack(&mut self, r: &mut WireReader<'_>) {
        let had_compute = r.bool().expect("compute flag");
        assert_eq!(had_compute, self.cfg.compute, "compute mode must match across migration");
        if had_compute {
            self.grid = r.f64_vec().expect("grid");
            assert_eq!(self.grid.len(), self.next.len(), "grid size must match");
        }
    }
}

/// Run `cfg`'s blocks on the engine `engine` builds and runs.
fn run(cfg: StencilConfig, engine: impl FnOnce(Program) -> RunReport) -> StencilOutcome {
    let (objects, mapping, steps) = (cfg.objects, cfg.mapping.clone(), cfg.steps);
    halo::run(objects, mapping, steps, true, move |elem| Block::new(cfg.clone(), elem), engine)
}

/// Run under the simulation engine (artificial latency sweeps).
pub fn run_sim(cfg: StencilConfig, net: NetworkModel, run_cfg: RunConfig) -> StencilOutcome {
    run_sim_full(cfg, SimEngine::new(net, run_cfg), None, None)
}

/// Full-control simulation run on `engine` (which carries the network,
/// the [`RunConfig`] and the simulator's own settings, such as a delivery
/// policy): optionally collect barrier checkpoints into `ckpt_sink`
/// (requires `cfg.lb_period`), and/or restore the blocks from `restore`
/// (possibly onto a different PE count), which resumes the run rather
/// than starting it.
pub fn run_sim_full(
    cfg: StencilConfig,
    engine: SimEngine,
    ckpt_sink: Option<Arc<Mutex<Vec<mdo_core::checkpoint::Snapshot>>>>,
    restore: Option<mdo_core::checkpoint::Snapshot>,
) -> StencilOutcome {
    run(cfg, |mut program| {
        if let Some(sink) = ckpt_sink {
            program.on_checkpoint(move |snap, _ctl| {
                sink.lock().expect("ckpt sink").push(snap.clone());
            });
        }
        if let Some(snapshot) = restore {
            program.restore_from(snapshot);
        }
        engine.run(program)
    })
}

/// Run under the threaded engine (real injected latency).
pub fn run_threaded(cfg: StencilConfig, topo: Topology, latency: LatencyMatrix, run_cfg: RunConfig) -> StencilOutcome {
    run_threaded_with(cfg, topo.clone(), ThreadedConfig::new(latency), run_cfg)
}

/// Run under the threaded engine with full engine configuration (e.g.
/// sleep-emulated compute for validation on small hosts).
pub fn run_threaded_with(
    cfg: StencilConfig,
    topo: Topology,
    tcfg: ThreadedConfig,
    run_cfg: RunConfig,
) -> StencilOutcome {
    run(cfg, |program| ThreadedEngine::new(topo, tcfg, run_cfg).run(program))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_core::Ctr;

    fn small(objects: usize, steps: u32, mesh: usize) -> StencilConfig {
        StencilConfig {
            mesh,
            objects,
            steps,
            compute: true,
            cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
            mapping: Mapping::Block,
            lb_period: None,
        }
    }

    fn check_against_seq(cfg: StencilConfig, pes: u32) {
        let k = cfg.k();
        let net = NetworkModel::two_cluster_sweep(pes, Dur::from_millis(2));
        let out = run_sim(cfg.clone(), net, RunConfig::default());
        let mut reference = seq::SeqStencil::new(cfg.mesh);
        reference.run(cfg.steps);
        let expect = reference.block_sums(k);
        assert_eq!(out.block_sums.len(), expect.len());
        for (i, (got, want)) in out.block_sums.iter().zip(&expect).enumerate() {
            assert_eq!(got, want, "block {i}: parallel must be bit-identical to sequential");
        }
    }

    #[test]
    fn matches_sequential_2x2_blocks() {
        check_against_seq(small(4, 5, 32), 2);
    }

    #[test]
    fn matches_sequential_4x4_blocks() {
        check_against_seq(small(16, 7, 32), 4);
    }

    #[test]
    fn matches_sequential_8x8_blocks_many_pes() {
        check_against_seq(small(64, 4, 64), 8);
    }

    #[test]
    fn matches_sequential_single_block() {
        check_against_seq(small(1, 6, 16), 2);
    }

    #[test]
    fn asynchronous_stepping_buffers_one_ahead() {
        // Strongly uneven latency pushes some blocks a step ahead; the
        // `ahead` buffer (asserted internally) must absorb it and results
        // stay exact.  Achieved implicitly by the checks above under
        // nonzero latency; here use more steps to stress pipelining.
        check_against_seq(small(16, 12, 32), 4);
    }

    #[test]
    fn aggregation_is_bit_exact_on_both_engines() {
        use mdo_netsim::AggConfig;
        let cfg = small(16, 5, 32);
        let agg = Some(AggConfig::default());
        let net = || NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        let plain = run_sim(cfg.clone(), net(), RunConfig::default());
        let sim = run_sim(cfg.clone(), net(), RunConfig { agg, ..RunConfig::default() });
        assert_eq!(plain.block_sums, sim.block_sums, "batched release must not change the math");
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
        let thr = run_threaded(cfg, topo, latency, RunConfig { agg, ..RunConfig::default() });
        assert_eq!(plain.block_sums, thr.block_sums, "jumbo frames must not change the math");
    }

    #[test]
    fn aggregation_with_wan_faults_is_bit_exact() {
        use mdo_netsim::{AggConfig, FaultPlan};
        let cfg = small(16, 4, 32);
        let agg = Some(AggConfig::default());
        let plan = FaultPlan::loss(0.3).with_seed(9).with_rto(Dur::from_millis(5));
        let net = || NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        let plain = run_sim(cfg.clone(), net(), RunConfig::default());
        let run_cfg = RunConfig { agg, fault_plan: Some(plan.clone()), ..RunConfig::default() };
        let sim = run_sim(cfg.clone(), net(), run_cfg);
        assert!(sim.report.counters.get(Ctr::Drops) > 0, "frames were actually lost: {:?}", sim.report.counters);
        assert_eq!(plain.block_sums, sim.block_sums, "whole-frame retransmit delivers the same physics");
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(200));
        let run_cfg = RunConfig { agg, fault_plan: Some(plan), ..RunConfig::default() };
        let thr = run_threaded(cfg, topo, latency, run_cfg);
        assert_eq!(plain.block_sums, thr.block_sums, "threaded frame retransmit delivers the same physics");
    }

    #[test]
    fn barriers_and_migration_keep_stencil_bit_exact() {
        use mdo_core::program::LbChoice;
        let mut cfg = small(16, 9, 32);
        cfg.lb_period = Some(3); // barriers after steps 3 and 6
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        let run_cfg = RunConfig { lb: LbChoice::Rotate, ..RunConfig::default() };
        let out = run_sim(cfg.clone(), net, run_cfg);
        assert_eq!(out.report.counters.get(Ctr::LbRounds), 2, "two barriers ran");
        assert!(out.report.counters.get(Ctr::ObjectsMigrated) > 0, "RotateLB moved blocks");
        let mut reference = seq::SeqStencil::new(32);
        reference.run(9);
        assert_eq!(out.block_sums, reference.block_sums(4), "migration is invisible to the math");
    }

    #[test]
    fn stencil_checkpoint_shrink_restart_bit_exact() {
        let mut cfg = small(16, 8, 32);
        cfg.lb_period = Some(4);
        let net = || NetworkModel::two_cluster_sweep(4, Dur::from_millis(1));
        let full = run_sim(cfg.clone(), net(), RunConfig::default());

        let sink = Arc::new(Mutex::new(Vec::new()));
        let ckpt_run =
            run_sim_full(cfg.clone(), SimEngine::new(net(), RunConfig::default()), Some(Arc::clone(&sink)), None);
        assert_eq!(ckpt_run.block_sums, full.block_sums);
        let snapshot = sink.lock().expect("sink")[0].clone();
        assert_eq!(snapshot.total_elems(), 16);

        let restored = run_sim_full(
            cfg,
            SimEngine::new(NetworkModel::two_cluster_sweep(2, Dur::from_millis(6)), RunConfig::default()),
            None,
            Some(snapshot),
        );
        assert_eq!(restored.block_sums, full.block_sums, "restart on half the PEs is bit-exact");
    }

    #[test]
    fn threaded_engine_matches_sequential() {
        let cfg = small(4, 4, 16);
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
        let out = run_threaded(cfg.clone(), topo, latency, RunConfig::default());
        let mut reference = seq::SeqStencil::new(cfg.mesh);
        reference.run(cfg.steps);
        assert_eq!(out.block_sums, reference.block_sums(2));
    }

    #[test]
    fn paper_config_shape() {
        let cfg = StencilConfig::paper(64, 10);
        assert_eq!(cfg.k(), 8);
        assert_eq!(cfg.block(), 256);
        let cfg = StencilConfig::paper(1024, 10);
        assert_eq!(cfg.block(), 64);
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn non_square_object_count_rejected() {
        StencilConfig::paper(48, 1).k();
    }

    #[test]
    fn cost_model_monotone_in_cells_and_msgs() {
        let cost = StencilCost::default();
        assert!(cost.step_cost(1000, 4) > cost.step_cost(1000, 0));
        assert!(cost.step_cost(2048 * 2048, 4) > cost.step_cost(256 * 256, 4));
        let no_cache = StencilCost { cache_effect: false, ..StencilCost::default() };
        assert_eq!(no_cache.cache_factor(1 << 22), 1.0);
    }
}
