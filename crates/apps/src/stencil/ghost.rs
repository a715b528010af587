//! Ghost-zone expansion: the algorithm-level latency remedy (paper §3).
//!
//! Ding & He's technique — discussed and contrasted by the paper —
//! trades *messages* for *redundant computation*: each block keeps `g`
//! ghost layers, exchanges halos only every `g` steps (eight messages,
//! including corner blocks, per exchange), and computes `g` local steps
//! on a progressively shrinking region.  It reduces message frequency by
//! g× at the cost of O(g·perimeter) redundant work, and unlike the
//! runtime-level approach it is **pattern-specific**: the paper notes it
//! "is not applicable to all problems such as the LeanMD molecular
//! dynamics code".
//!
//! The exchange is the step protocol every halo application shares
//! (`crate::halo`), a round of `g` steps tagged as one; this module
//! supplies the strips, the `g`-step kernel and its cost.  The computed
//! field is *mathematically identical* to plain Jacobi, so the tests check
//! bit-equality against [`super::seq::SeqStencil`].

use std::ops::Range;

use bytes::Bytes;
use mdo_core::ids::ElemId;
use mdo_core::program::RunConfig;
use mdo_core::{Mapping, SimEngine};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Dur;

use super::{seq, StencilCost, StencilOutcome, DIRS};
use crate::halo::{self, Halo};

/// Configuration for a ghost-zone stencil run.
#[derive(Clone, Debug)]
pub struct GhostConfig {
    /// Mesh side length.
    pub mesh: usize,
    /// Block objects (perfect square).
    pub objects: usize,
    /// Ghost layers = steps per exchange.
    pub layers: usize,
    /// Total time steps.
    pub steps: u32,
    /// Run the real kernel.
    pub compute: bool,
    /// Cost model (shared with the plain stencil).
    pub cost: StencilCost,
}

impl GhostConfig {
    /// Blocks per side.
    pub fn k(&self) -> usize {
        let k = (self.objects as f64).sqrt().round() as usize;
        assert_eq!(k * k, self.objects, "objects must be a perfect square");
        assert_eq!(self.mesh % k, 0, "sqrt(objects) must divide the mesh");
        k
    }

    /// Cells per block side.
    pub fn block(&self) -> usize {
        let b = self.mesh / self.k();
        assert!(self.layers >= 1, "need at least one ghost layer");
        assert!(self.layers <= b, "ghost layers cannot exceed the block size");
        b
    }
}

pub(crate) struct GhostBlock {
    cfg: GhostConfig,
    bi: usize,
    bj: usize,
    /// (b+2g)² working array; index [r][c] is global cell
    /// (bi·b + r − g, bj·b + c − g).
    grid: Vec<f64>,
    next: Vec<f64>,
}

impl GhostBlock {
    pub(crate) fn new(cfg: GhostConfig, elem: ElemId) -> Self {
        let k = cfg.k();
        let b = cfg.block();
        let g = cfg.layers;
        let (bi, bj) = (elem.index() / k, elem.index() % k);
        let w = b + 2 * g;
        let (mut grid, next) = (vec![0.0; w * w], vec![0.0; w * w]);
        if cfg.compute {
            for r in 0..b {
                for c in 0..b {
                    grid[(r + g) * w + (c + g)] = seq::initial_value(cfg.mesh, bi * b + r, bj * b + c);
                }
            }
        }
        GhostBlock { cfg, bi, bj, grid, next }
    }

    /// The rows and the columns of the strip facing direction `d`: my halo
    /// region there, or with `inner` my interior strip beside it (the data
    /// the neighbour needs as its halo).
    fn strip(&self, d: usize, inner: bool) -> (Range<usize>, Range<usize>) {
        let (b, g) = (self.cfg.block(), self.cfg.layers);
        let span = |delta: isize| match (delta, inner) {
            (0, _) => g..g + b,
            (-1, true) => g..2 * g,
            (-1, false) => 0..g,
            (_, true) => b..g + b,
            (_, false) => g + b..b + 2 * g,
        };
        (span(DIRS[d][0]), span(DIRS[d][1]))
    }

    /// The grid indices of the strip facing direction `d`, row-major.
    fn cells(&self, d: usize, inner: bool) -> impl Iterator<Item = usize> {
        let w = self.cfg.block() + 2 * self.cfg.layers;
        let (rows, cols) = self.strip(d, inner);
        rows.flat_map(move |r| cols.clone().map(move |c| r * w + c))
    }
}

impl Halo for GhostBlock {
    const ARRAY: &'static str = "ghost-blocks";

    type Slots = [Bytes; 8];

    fn slots(&self) -> [Bytes; 8] {
        Default::default()
    }

    fn neighbor(&self, d: usize) -> Option<(ElemId, u8)> {
        // The receiver sees my data as coming from the opposite direction.
        let opposite = if d < 4 { d ^ 1 } else { 11 - d };
        halo::grid_neighbor(self.cfg.k(), [self.bi, self.bj], DIRS[d]).map(|n| (n, opposite as u8))
    }

    fn halo_len(&self, d: usize) -> usize {
        let (rows, cols) = self.strip(d, true);
        rows.len() * cols.len()
    }

    fn halo(&self, d: usize) -> impl Iterator<Item = f64> + '_ {
        self.cells(d, true).map(|i| self.grid[i])
    }

    fn fill(&mut self, d: usize, values: impl Iterator<Item = f64>) {
        for (i, v) in self.cells(d, false).zip(values) {
            self.grid[i] = v;
        }
    }

    /// `layers` local Jacobi steps on the shrinking valid region.
    fn compute(&mut self, step: u32, msgs: usize) -> (Dur, u32) {
        let b = self.cfg.block();
        let g = self.cfg.layers;
        let w = b + 2 * g;
        let steps_this_round = (self.cfg.steps - step).min(g as u32) as usize;
        // After t local steps only depth ≤ g−t halo cells stay valid: step t
        // updates the (w − 2t)² cells inside them.
        let cost_cells = (1..=steps_this_round).map(|t| (w - 2 * t) * (w - 2 * t)).sum();
        if self.cfg.compute {
            let n = self.cfg.mesh as isize;
            for t in 1..=steps_this_round {
                for r in t..w - t {
                    for c in t..w - t {
                        // Global coordinates; outside-mesh cells stay 0.
                        let gr = self.bi as isize * b as isize + r as isize - g as isize;
                        let gc = self.bj as isize * b as isize + c as isize - g as isize;
                        self.next[r * w + c] = if gr < 0 || gc < 0 || gr >= n || gc >= n {
                            0.0
                        } else {
                            seq::update(
                                self.grid[r * w + c],
                                self.grid[(r - 1) * w + c],
                                self.grid[(r + 1) * w + c],
                                self.grid[r * w + c - 1],
                                self.grid[r * w + c + 1],
                            )
                        };
                    }
                }
                std::mem::swap(&mut self.grid, &mut self.next);
            }
        }
        (self.cfg.cost.step_cost(cost_cells, msgs), steps_this_round as u32)
    }

    fn block_sum(&self) -> f64 {
        let (b, g) = (self.cfg.block(), self.cfg.layers);
        let w = b + 2 * g;
        (g..g + b).flat_map(|r| (g..g + b).map(move |c| r * w + c)).fold(0.0, |s, i| s + self.grid[i])
    }

    fn steps(&self) -> u32 {
        self.cfg.steps
    }

    fn computes(&self) -> bool {
        self.cfg.compute
    }
}

/// Run the ghost-zone stencil under the simulation engine.
pub fn run_sim(cfg: GhostConfig, net: NetworkModel, run_cfg: RunConfig) -> StencilOutcome {
    let (objects, steps) = (cfg.objects, cfg.steps);
    let make = move |elem| GhostBlock::new(cfg.clone(), elem);
    halo::run(objects, Mapping::Block, steps, false, make, |p| SimEngine::new(net, run_cfg).run(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_netsim::Dur;

    fn cfg(objects: usize, layers: usize, steps: u32, mesh: usize) -> GhostConfig {
        GhostConfig {
            mesh,
            objects,
            layers,
            steps,
            compute: true,
            cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
        }
    }

    fn check(cfg: GhostConfig, pes: u32) {
        let k = cfg.k();
        let net = NetworkModel::two_cluster_sweep(pes, Dur::from_millis(2));
        let out = run_sim(cfg.clone(), net, RunConfig::default());
        let mut reference = seq::SeqStencil::new(cfg.mesh);
        reference.run(cfg.steps);
        let expect = reference.block_sums(k);
        for (i, (got, want)) in out.block_sums.iter().zip(&expect).enumerate() {
            assert_eq!(got, want, "block {i}: ghost-zone result identical to plain Jacobi");
        }
    }

    #[test]
    fn one_layer_equals_plain_stencil() {
        check(cfg(4, 1, 5, 16), 2);
    }

    #[test]
    fn two_layers_match_sequential() {
        check(cfg(4, 2, 6, 16), 2);
    }

    #[test]
    fn four_layers_match_sequential() {
        check(cfg(4, 4, 8, 32), 4);
    }

    #[test]
    fn layers_not_dividing_steps_match() {
        // 7 steps with g=3: rounds of 3, 3, 1.
        check(cfg(4, 3, 7, 24), 2);
    }

    #[test]
    fn many_blocks_with_corners() {
        // 4×4 blocks: interior blocks have all 8 neighbours.
        check(cfg(16, 2, 6, 32), 4);
    }

    #[test]
    fn fewer_messages_than_plain_per_step() {
        // g=4 exchanges every 4 steps: cross-cluster message count must be
        // well below the plain stencil's.
        let mk_net = || NetworkModel::two_cluster_sweep(4, Dur::from_millis(1));
        let gcfg = GhostConfig { compute: false, ..cfg(16, 4, 16, 64) };
        let ghost_msgs = run_sim(gcfg, mk_net(), RunConfig::default()).report.network.total_messages();
        let pcfg = super::super::StencilConfig {
            mesh: 64,
            objects: 16,
            steps: 16,
            compute: false,
            cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
            mapping: mdo_core::Mapping::Block,
            lb_period: None,
        };
        let plain_msgs = super::super::run_sim(pcfg, mk_net(), RunConfig::default()).report.network.total_messages();
        assert!(
            (ghost_msgs as f64) < plain_msgs as f64 * 0.5,
            "ghost zones cut message count: {ghost_msgs} vs {plain_msgs}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot exceed the block size")]
    fn too_many_layers_rejected() {
        cfg(4, 9, 4, 16).block();
    }
}
