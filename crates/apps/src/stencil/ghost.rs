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
//! The computed field is *mathematically identical* to plain Jacobi, so
//! the tests check bit-equality against [`super::seq::SeqStencil`].

use std::sync::{Arc, Mutex};

use mdo_core::chare::{Chare, Ctx};
use mdo_core::envelope::ReduceData;
use mdo_core::ids::{ElemId, EntryId};
use mdo_core::prelude::{WireReader, WireWriter};
use mdo_core::program::{Program, RunConfig};
use mdo_core::wire::f64_array_len;
use mdo_core::{Mapping, SimEngine};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Time;

use super::seq;
use super::{StencilCost, StencilOutcome};
use crate::halo;

const START: EntryId = EntryId(1);
/// Entry: a neighbour's strip (payload: slot u8, round u32, values).
const HALO: EntryId = EntryId(2);
/// Bytes of a halo message before its values: the slot and the round.
const HALO_HEADER: usize = 1 + 4;

/// The eight neighbour directions (row delta, col delta).
const DIRS: [(i8, i8); 8] = [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)];

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

struct GhostBlock {
    cfg: GhostConfig,
    bi: usize,
    bj: usize,
    /// (b+2g)² working array; index [r][c] is global cell
    /// (bi·b + r − g, bj·b + c − g).
    grid: Vec<f64>,
    next: Vec<f64>,
    /// Completed global steps.
    step: u32,
    /// Current exchange round (step / layers).
    round: u32,
    /// Halos received for the current round, kept as delivered and read
    /// in place when the round starts (see [`halo`]; empty in cost-model
    /// mode).
    got: halo::Slots<8>,
    /// Halos that arrived one round early.
    ahead: halo::Slots<8>,
    /// Set by START; see the plain stencil's `started` field.
    started: bool,
    done: bool,
}

impl GhostBlock {
    fn new(cfg: GhostConfig, elem: ElemId) -> Self {
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
        GhostBlock {
            cfg,
            bi,
            bj,
            grid,
            next,
            step: 0,
            round: 0,
            got: halo::Slots::default(),
            ahead: halo::Slots::default(),
            started: false,
            done: false,
        }
    }

    fn neighbor(&self, d: usize) -> Option<ElemId> {
        let k = self.cfg.k() as isize;
        let (dr, dc) = DIRS[d];
        let (ni, nj) = (self.bi as isize + dr as isize, self.bj as isize + dc as isize);
        (ni >= 0 && nj >= 0 && ni < k && nj < k).then(|| ElemId((ni * k + nj) as u32))
    }

    fn n_neighbors(&self) -> usize {
        (0..8).filter(|&d| self.neighbor(d).is_some()).count()
    }

    /// Values in the strip facing direction `d`.
    fn strip_len(&self, d: usize) -> usize {
        let (b, g) = (self.cfg.block(), self.cfg.layers);
        let (dr, dc) = DIRS[d];
        (if dr == 0 { b } else { g }) * (if dc == 0 { b } else { g })
    }

    /// My interior strip adjacent to direction `d`: the data the neighbour
    /// needs as its halo.  Row-major within the strip.  Real-kernel mode
    /// only.
    fn strip(&self, d: usize) -> Vec<f64> {
        let b = self.cfg.block();
        let g = self.cfg.layers;
        let w = b + 2 * g;
        let (dr, dc) = DIRS[d];
        let rows = if dr == 0 {
            g..g + b
        } else if dr < 0 {
            g..2 * g
        } else {
            g + b - g..g + b
        };
        let cols = if dc == 0 {
            g..g + b
        } else if dc < 0 {
            g..2 * g
        } else {
            g + b - g..g + b
        };
        let mut out = Vec::with_capacity(rows.len() * cols.len());
        for r in rows {
            for c in cols.clone() {
                out.push(self.grid[r * w + c]);
            }
        }
        out
    }

    /// Fill my halo region from the message that came from direction `d`.
    fn fill(&mut self, d: usize, msg: &[u8]) {
        if !self.cfg.compute {
            return;
        }
        let b = self.cfg.block();
        let g = self.cfg.layers;
        let w = b + 2 * g;
        let (dr, dc) = DIRS[d];
        let rows = if dr == 0 {
            g..g + b
        } else if dr < 0 {
            0..g
        } else {
            g + b..w
        };
        let cols = if dc == 0 {
            g..g + b
        } else if dc < 0 {
            0..g
        } else {
            g + b..w
        };
        let mut it = halo::values(msg, HALO_HEADER);
        for r in rows {
            for c in cols.clone() {
                self.grid[r * w + c] = it.next().expect("sized on receipt");
            }
        }
    }

    fn send_halos(&self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        for d in 0..8 {
            if let Some(n) = self.neighbor(d) {
                // The receiver sees my data as coming from the opposite dir.
                let opp = match d {
                    0 => 1,
                    1 => 0,
                    2 => 3,
                    3 => 2,
                    4 => 7,
                    5 => 6,
                    6 => 5,
                    7 => 4,
                    _ => unreachable!(),
                };
                let len = self.strip_len(d);
                let mut w = WireWriter::with_capacity(HALO_HEADER + f64_array_len(len));
                w.u8(opp as u8).u32(self.round);
                if self.cfg.compute {
                    w.f64_slice(&self.strip(d));
                } else {
                    // Match the real strip's wire size (see the plain stencil).
                    w.f64_zeros(len);
                }
                ctx.send(me.array, n, HALO, w.finish());
            }
        }
    }

    /// `layers` local Jacobi steps on the shrinking valid region.
    fn compute_rounds(&mut self, ctx: &mut Ctx<'_>) {
        let b = self.cfg.block();
        let g = self.cfg.layers;
        let w = b + 2 * g;
        let n = self.cfg.mesh as isize;
        let steps_this_round = (self.cfg.steps - self.step).min(g as u32) as usize;
        let mut cost_cells = 0usize;
        for t in 1..=steps_this_round {
            // After t local steps only depth ≤ g−t halo cells stay valid.
            let lo = t;
            let hi = w - t;
            for r in lo..hi {
                for c in lo..hi {
                    // Global coordinates; outside-mesh cells stay 0.
                    let gr = self.bi as isize * b as isize + r as isize - g as isize;
                    let gc = self.bj as isize * b as isize + c as isize - g as isize;
                    if gr < 0 || gc < 0 || gr >= n || gc >= n {
                        self.next[r * w + c] = 0.0;
                        continue;
                    }
                    if self.cfg.compute {
                        self.next[r * w + c] = seq::update(
                            self.grid[r * w + c],
                            self.grid[(r - 1) * w + c],
                            self.grid[(r + 1) * w + c],
                            self.grid[r * w + c - 1],
                            self.grid[r * w + c + 1],
                        );
                    }
                }
            }
            cost_cells += (hi - lo) * (hi - lo);
            if self.cfg.compute {
                std::mem::swap(&mut self.grid, &mut self.next);
            }
        }
        ctx.charge(self.cfg.cost.step_cost(cost_cells, self.n_neighbors()));
        self.step += steps_this_round as u32;
        self.round += 1;
    }

    fn block_sum(&self) -> f64 {
        if !self.cfg.compute {
            return 0.0;
        }
        let b = self.cfg.block();
        let g = self.cfg.layers;
        let w = b + 2 * g;
        let mut s = 0.0;
        for r in g..g + b {
            for c in g..g + b {
                s += self.grid[r * w + c];
            }
        }
        s
    }

    fn advance_while_ready(&mut self, ctx: &mut Ctx<'_>) {
        while self.started && !self.done && self.got.len() == self.n_neighbors() {
            let mut got = std::mem::take(&mut self.got);
            got.drain(|d, msg| self.fill(d, &msg));
            self.compute_rounds(ctx);
            if self.step >= self.cfg.steps {
                self.done = true;
                let mut w = WireWriter::new();
                w.f64(self.block_sum());
                ctx.contribute_gather(w.finish());
                return;
            }
            self.send_halos(ctx);
            self.got = std::mem::take(&mut self.ahead);
        }
    }
}

impl Chare for GhostBlock {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        match entry {
            START => {
                assert!(!self.started, "START delivered twice");
                self.started = true;
                self.send_halos(ctx);
                self.advance_while_ready(ctx);
            }
            HALO => {
                let mut r = WireReader::new(payload);
                let slot = r.u8().expect("slot") as usize;
                let round = r.u32().expect("round");
                assert!(slot < 8 && self.neighbor(slot).is_some(), "halo for slot {slot}, which has no neighbour");
                halo::check(
                    payload,
                    HALO_HEADER,
                    self.strip_len(slot),
                    format_args!("halo for slot {slot} round {round}"),
                );
                let msg = halo::keep(ctx, self.cfg.compute);
                if round == self.round {
                    let fresh = self.got.put(slot, msg);
                    assert!(fresh, "duplicate halo");
                    self.advance_while_ready(ctx);
                } else if round == self.round + 1 {
                    let fresh = self.ahead.put(slot, msg);
                    assert!(fresh, "neighbour two rounds ahead");
                } else {
                    panic!("halo for round {round} while at {}", self.round);
                }
            }
            other => panic!("unknown ghost entry {other:?}"),
        }
    }
}

/// Run the ghost-zone stencil under the simulation engine.
pub fn run_sim(cfg: GhostConfig, net: NetworkModel, run_cfg: RunConfig) -> StencilOutcome {
    let sums: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let sums_c = Arc::clone(&sums);
    let mut p = Program::new();
    let cfg_f = cfg.clone();
    let arr = p.array("ghost-blocks", cfg.objects, Mapping::Block, move |elem| {
        Box::new(GhostBlock::new(cfg_f.clone(), elem)) as Box<dyn Chare>
    });
    p.on_startup(move |ctl| ctl.broadcast(arr, START, vec![]));
    p.on_reduction(arr, move |_seq, data, ctl| {
        if let ReduceData::Gathered(rows) = data {
            let mut out = sums_c.lock().expect("sums lock");
            out.clear();
            for (_, bytes) in rows {
                out.push(WireReader::new(bytes).f64().expect("sum"));
            }
        }
        ctl.exit();
    });
    let report = SimEngine::new(net, run_cfg).run(p);
    let total = report.end_time - Time::ZERO;
    let block_sums = sums.lock().expect("sums lock").clone();
    StencilOutcome { total, ms_per_step: total.as_millis_f64() / cfg.steps as f64, block_sums, report }
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

    /// A strip one value short fails where it arrives, in cost-model mode
    /// too, where no round reads its values.
    #[test]
    #[should_panic(expected = "halo for slot 1 round 0: wrong length")]
    fn a_short_halo_fails_on_receipt_in_cost_model_mode() {
        let c = GhostConfig { compute: false, ..cfg(4, 2, 4, 16) };
        let len = GhostBlock::new(c.clone(), ElemId(0)).strip_len(1);
        let mut p = Program::new();
        p.array("blocks", c.objects, Mapping::Block, move |elem| {
            Box::new(GhostBlock::new(c.clone(), elem)) as Box<dyn Chare>
        });
        let mut w = WireWriter::new();
        w.u8(1).u32(0).f64_zeros(len - 1);
        crate::halo::deliver(p, ElemId(0), HALO, w.finish());
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
