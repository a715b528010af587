//! Jacobi3D — a 7-point stencil over a 3-D spatial decomposition.
//!
//! The paper's conclusion claims the runtime technique "can be applied to
//! a wide variety of problem decomposition strategies, such as regular
//! and irregular mesh decomposition or spatial decomposition, without
//! requiring modification of application software."  The five-point
//! stencil covers regular 2-D meshes and LeanMD covers spatial cell
//! decomposition; this module adds the classic third shape — a 3-D block
//! decomposition with six face exchanges per object per step — and is
//! also the memory-bound, "run across clusters because one cluster's
//! memory is too small" workload the paper's §6 motivates.
//!
//! Same contract as the other applications: asynchronous neighbour-driven
//! stepping, a calibrated cost model, and **bit-exact** agreement with
//! the sequential reference.

use std::sync::{Arc, Mutex};

use mdo_core::chare::{Chare, Ctx};
use mdo_core::envelope::ReduceData;
use mdo_core::ids::{ElemId, EntryId};
use mdo_core::prelude::{WireReader, WireWriter};
use mdo_core::program::{Program, RunConfig, RunReport};
use mdo_core::wire::f64_array_len;
use mdo_core::{Mapping, SimEngine};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Time;

use crate::stencil::StencilCost;

const START: EntryId = EntryId(1);
const FACE: EntryId = EntryId(2);

/// The six face directions: ±x, ±y, ±z.
const DIRS: [(i8, i8, i8); 6] = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)];

/// Deterministic initial condition.
pub fn initial_value(n: usize, x: usize, y: usize, z: usize) -> f64 {
    let fx = x as f64 / n as f64;
    let fy = y as f64 / n as f64;
    let fz = z as f64 / n as f64;
    let tau = std::f64::consts::TAU;
    (tau * fx).sin() + (tau * fy).cos() * 0.5 + fz + 0.01 * (((x * 7 + y * 13 + z * 29) % 11) as f64)
}

/// The 7-point update rule.
#[inline]
pub fn update(c: f64, xm: f64, xp: f64, ym: f64, yp: f64, zm: f64, zp: f64) -> f64 {
    (c + xm + xp + ym + yp + zm + zp) / 7.0
}

/// Sequential reference on a dense n³ mesh with zero Dirichlet boundary.
pub struct SeqJacobi3d {
    n: usize,
    grid: Vec<f64>,
    next: Vec<f64>,
}

impl SeqJacobi3d {
    /// New mesh with the deterministic initial condition.
    pub fn new(n: usize) -> Self {
        let mut grid = vec![0.0; n * n * n];
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    grid[(x * n + y) * n + z] = initial_value(n, x, y, z);
                }
            }
        }
        SeqJacobi3d { n, grid, next: vec![0.0; n * n * n] }
    }

    fn at(&self, x: isize, y: isize, z: isize) -> f64 {
        let n = self.n as isize;
        if x < 0 || y < 0 || z < 0 || x >= n || y >= n || z >= n {
            0.0
        } else {
            self.grid[((x * n + y) * n + z) as usize]
        }
    }

    /// Advance one step.
    pub fn step(&mut self) {
        let n = self.n as isize;
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    self.next[((x * n + y) * n + z) as usize] = update(
                        self.at(x, y, z),
                        self.at(x - 1, y, z),
                        self.at(x + 1, y, z),
                        self.at(x, y - 1, z),
                        self.at(x, y + 1, z),
                        self.at(x, y, z - 1),
                        self.at(x, y, z + 1),
                    );
                }
            }
        }
        std::mem::swap(&mut self.grid, &mut self.next);
    }

    /// Advance `k` steps.
    pub fn run(&mut self, k: u32) {
        for _ in 0..k {
            self.step();
        }
    }

    /// Per-block sums for a k³ decomposition, in block id order
    /// (x-major), each block summed x-, then y-, then z-order.
    pub fn block_sums(&self, k: usize) -> Vec<f64> {
        assert_eq!(self.n % k, 0);
        let b = self.n / k;
        let mut out = Vec::with_capacity(k * k * k);
        for bx in 0..k {
            for by in 0..k {
                for bz in 0..k {
                    let mut s = 0.0;
                    for x in bx * b..(bx + 1) * b {
                        for y in by * b..(by + 1) * b {
                            for z in bz * b..(bz + 1) * b {
                                s += self.grid[(x * self.n + y) * self.n + z];
                            }
                        }
                    }
                    out.push(s);
                }
            }
        }
        out
    }
}

/// Configuration for the parallel run.
#[derive(Clone, Debug)]
pub struct Jacobi3dConfig {
    /// Mesh side length.
    pub mesh: usize,
    /// Blocks per side (objects = k³).
    pub k: usize,
    /// Steps.
    pub steps: u32,
    /// Real math or cost-model only.
    pub compute: bool,
    /// Cost model (reused from the 2-D stencil; per-cell scale).
    pub cost: StencilCost,
}

impl Jacobi3dConfig {
    /// Total objects.
    pub fn objects(&self) -> usize {
        self.k * self.k * self.k
    }

    /// Cells per block side.
    pub fn block(&self) -> usize {
        assert_eq!(self.mesh % self.k, 0, "k must divide the mesh");
        self.mesh / self.k
    }
}

/// Outcome of a run.
#[derive(Debug)]
pub struct Jacobi3dOutcome {
    /// Mean milliseconds per step.
    pub ms_per_step: f64,
    /// Per-block sums (zeros unless compute).
    pub block_sums: Vec<f64>,
    /// Engine report.
    pub report: RunReport,
}

struct Block3d {
    cfg: Jacobi3dConfig,
    bx: usize,
    by: usize,
    bz: usize,
    /// (b+2)³ working array with ghost shell; empty unless compute.
    grid: Vec<f64>,
    next: Vec<f64>,
    step: u32,
    got: [Option<Vec<f64>>; 6],
    got_count: usize,
    ahead: [Option<Vec<f64>>; 6],
    ahead_count: usize,
    started: bool,
    done: bool,
}

impl Block3d {
    fn new(cfg: Jacobi3dConfig, elem: ElemId) -> Self {
        let k = cfg.k;
        let b = cfg.block();
        let id = elem.index();
        let (bx, by, bz) = (id / (k * k), (id / k) % k, id % k);
        let w = b + 2;
        let (mut grid, next) = (Vec::new(), Vec::new());
        if cfg.compute {
            grid = vec![0.0; w * w * w];
            for x in 0..b {
                for y in 0..b {
                    for z in 0..b {
                        grid[((x + 1) * w + y + 1) * w + z + 1] =
                            initial_value(cfg.mesh, bx * b + x, by * b + y, bz * b + z);
                    }
                }
            }
        }
        let next = if cfg.compute { grid.clone() } else { next };
        Block3d {
            cfg,
            bx,
            by,
            bz,
            grid,
            next,
            step: 0,
            got: Default::default(),
            got_count: 0,
            ahead: Default::default(),
            ahead_count: 0,
            started: false,
            done: false,
        }
    }

    fn neighbor(&self, d: usize) -> Option<ElemId> {
        let k = self.cfg.k as isize;
        let (dx, dy, dz) = DIRS[d];
        let (nx, ny, nz) =
            (self.bx as isize + dx as isize, self.by as isize + dy as isize, self.bz as isize + dz as isize);
        (nx >= 0 && ny >= 0 && nz >= 0 && nx < k && ny < k && nz < k).then(|| ElemId(((nx * k + ny) * k + nz) as u32))
    }

    fn n_neighbors(&self) -> usize {
        (0..6).filter(|&d| self.neighbor(d).is_some()).count()
    }

    /// The b×b face of my interior adjacent to direction `d` (y-major,
    /// z-minor within the face for x-faces, and analogous for others).
    fn face(&self, d: usize) -> Vec<f64> {
        let b = self.cfg.block();
        let w = b + 2;
        let idx = |x: usize, y: usize, z: usize| (x * w + y) * w + z;
        let mut out = Vec::with_capacity(b * b);
        match d {
            0 | 1 => {
                let x = if d == 0 { 1 } else { b };
                for y in 1..=b {
                    for z in 1..=b {
                        out.push(self.grid[idx(x, y, z)]);
                    }
                }
            }
            2 | 3 => {
                let y = if d == 2 { 1 } else { b };
                for x in 1..=b {
                    for z in 1..=b {
                        out.push(self.grid[idx(x, y, z)]);
                    }
                }
            }
            _ => {
                let z = if d == 4 { 1 } else { b };
                for x in 1..=b {
                    for y in 1..=b {
                        out.push(self.grid[idx(x, y, z)]);
                    }
                }
            }
        }
        out
    }

    /// Install a received face into my ghost shell (from direction `d`).
    fn fill(&mut self, d: usize, data: &[f64]) {
        let b = self.cfg.block();
        if !self.cfg.compute {
            return;
        }
        assert_eq!(data.len(), b * b, "face size");
        let w = b + 2;
        let idx = |x: usize, y: usize, z: usize| (x * w + y) * w + z;
        let mut it = data.iter();
        match d {
            0 | 1 => {
                let x = if d == 0 { 0 } else { b + 1 };
                for y in 1..=b {
                    for z in 1..=b {
                        self.grid[idx(x, y, z)] = *it.next().expect("sized");
                    }
                }
            }
            2 | 3 => {
                let y = if d == 2 { 0 } else { b + 1 };
                for x in 1..=b {
                    for z in 1..=b {
                        self.grid[idx(x, y, z)] = *it.next().expect("sized");
                    }
                }
            }
            _ => {
                let z = if d == 4 { 0 } else { b + 1 };
                for x in 1..=b {
                    for y in 1..=b {
                        self.grid[idx(x, y, z)] = *it.next().expect("sized");
                    }
                }
            }
        }
    }

    fn send_faces(&self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        for d in 0..6 {
            if let Some(n) = self.neighbor(d) {
                let opp = d ^ 1; // DIRS pairs: (0,1), (2,3), (4,5)
                let len = self.cfg.block() * self.cfg.block();
                let mut w = WireWriter::with_capacity(1 + 4 + f64_array_len(len));
                w.u8(opp as u8).u32(self.step);
                if self.cfg.compute {
                    w.f64_slice(&self.face(d));
                } else {
                    // Cost-model mode: a zero face of the real size.
                    w.f64_zeros(len);
                }
                ctx.send(me.array, n, FACE, w.finish());
            }
        }
    }

    fn compute_step(&mut self) {
        let b = self.cfg.block();
        if self.cfg.compute {
            let w = b + 2;
            let idx = |x: usize, y: usize, z: usize| (x * w + y) * w + z;
            for x in 1..=b {
                for y in 1..=b {
                    for z in 1..=b {
                        self.next[idx(x, y, z)] = update(
                            self.grid[idx(x, y, z)],
                            self.grid[idx(x - 1, y, z)],
                            self.grid[idx(x + 1, y, z)],
                            self.grid[idx(x, y - 1, z)],
                            self.grid[idx(x, y + 1, z)],
                            self.grid[idx(x, y, z - 1)],
                            self.grid[idx(x, y, z + 1)],
                        );
                    }
                }
            }
            std::mem::swap(&mut self.grid, &mut self.next);
        }
    }

    fn block_sum(&self) -> f64 {
        if !self.cfg.compute {
            return 0.0;
        }
        let b = self.cfg.block();
        let w = b + 2;
        let mut s = 0.0;
        for x in 1..=b {
            for y in 1..=b {
                for z in 1..=b {
                    s += self.grid[(x * w + y) * w + z];
                }
            }
        }
        s
    }

    fn advance_while_ready(&mut self, ctx: &mut Ctx<'_>) {
        while self.started && !self.done && self.got_count == self.n_neighbors() {
            for d in 0..6 {
                if let Some(data) = self.got[d].take() {
                    self.fill(d, &data);
                }
            }
            self.got_count = 0;
            let b = self.cfg.block();
            ctx.charge(self.cfg.cost.step_cost(b * b * b, self.n_neighbors()));
            self.compute_step();
            self.step += 1;
            if self.step >= self.cfg.steps {
                self.done = true;
                let mut w = WireWriter::new();
                w.f64(self.block_sum());
                ctx.contribute_gather(w.finish());
                return;
            }
            self.send_faces(ctx);
            self.got = std::mem::take(&mut self.ahead);
            self.got_count = self.ahead_count;
            self.ahead_count = 0;
        }
    }
}

impl Chare for Block3d {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        match entry {
            START => {
                assert!(!self.started, "START twice");
                self.started = true;
                self.send_faces(ctx);
                self.advance_while_ready(ctx);
            }
            FACE => {
                let mut r = WireReader::new(payload);
                let slot = r.u8().expect("slot") as usize;
                let step = r.u32().expect("step");
                let data = r.f64_vec().expect("face");
                if step == self.step {
                    assert!(self.got[slot].is_none(), "duplicate face");
                    self.got[slot] = Some(data);
                    self.got_count += 1;
                    self.advance_while_ready(ctx);
                } else if step == self.step + 1 {
                    assert!(self.ahead[slot].is_none(), "neighbour two steps ahead");
                    self.ahead[slot] = Some(data);
                    self.ahead_count += 1;
                } else {
                    panic!("face for step {step} while at {}", self.step);
                }
            }
            other => panic!("unknown jacobi3d entry {other:?}"),
        }
    }
}

/// Run under the simulation engine.
pub fn run_sim(cfg: Jacobi3dConfig, net: NetworkModel, run_cfg: RunConfig) -> Jacobi3dOutcome {
    let sums: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let sums_c = Arc::clone(&sums);
    let mut p = Program::new();
    let cfg_f = cfg.clone();
    let arr = p.array("jacobi3d", cfg.objects(), Mapping::Block, move |elem| {
        Box::new(Block3d::new(cfg_f.clone(), elem)) as Box<dyn Chare>
    });
    p.on_startup(move |ctl| ctl.broadcast(arr, START, vec![]));
    p.on_reduction(arr, move |_seq, data, ctl| {
        if let ReduceData::Gathered(rows) = data {
            let mut out = sums_c.lock().expect("sums");
            out.clear();
            for (_, bytes) in rows {
                out.push(WireReader::new(bytes).f64().expect("sum"));
            }
        }
        ctl.exit();
    });
    let report = SimEngine::new(net, run_cfg).run(p);
    let total = report.end_time - Time::ZERO;
    let block_sums = sums.lock().expect("sums").clone();
    Jacobi3dOutcome { ms_per_step: total.as_millis_f64() / cfg.steps as f64, block_sums, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_netsim::Dur;

    fn cfg(mesh: usize, k: usize, steps: u32) -> Jacobi3dConfig {
        Jacobi3dConfig {
            mesh,
            k,
            steps,
            compute: true,
            cost: StencilCost { ns_per_cell: 20.0, msg_overhead: Dur::from_micros(10), cache_effect: false },
        }
    }

    fn check(cfg: Jacobi3dConfig, pes: u32, lat_ms: u64) {
        let net = NetworkModel::two_cluster_sweep(pes, Dur::from_millis(lat_ms));
        let out = run_sim(cfg.clone(), net, RunConfig::default());
        let mut reference = SeqJacobi3d::new(cfg.mesh);
        reference.run(cfg.steps);
        let expect = reference.block_sums(cfg.k);
        assert_eq!(out.block_sums.len(), expect.len());
        for (i, (got, want)) in out.block_sums.iter().zip(&expect).enumerate() {
            assert_eq!(got, want, "block {i}: 3-D parallel field identical to sequential");
        }
    }

    #[test]
    fn matches_sequential_2x2x2() {
        check(cfg(8, 2, 4), 4, 2);
    }

    #[test]
    fn matches_sequential_3x3x3_under_latency() {
        check(cfg(12, 3, 5), 4, 25);
    }

    #[test]
    fn matches_sequential_single_block() {
        check(cfg(6, 1, 3), 2, 1);
    }

    #[test]
    fn seq_reference_is_contractive() {
        let mut s = SeqJacobi3d::new(8);
        let total0: f64 = s.block_sums(1)[0];
        s.run(30);
        let total1: f64 = s.block_sums(1)[0];
        assert!(total1.abs() <= total0.abs() + 1e-9, "zero boundary drains the field");
    }

    #[test]
    fn virtualization_masks_latency_in_3d() {
        let run = |k: usize, lat: u64| {
            let mut c = cfg(64, k, 6);
            c.compute = false;
            let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(lat));
            run_sim(c, net, RunConfig::default()).ms_per_step
        };
        // 8 objects (2 per PE) vs 64 objects (16 per PE) at 8 ms.
        let lo = run(2, 8) / run(2, 0);
        let hi = run(4, 8) / run(4, 0);
        assert!(hi < lo, "3-D decomposition masks latency with virtualization: {hi:.2} < {lo:.2}");
    }

    #[test]
    fn face_orientation_is_symmetric() {
        // A two-block mesh: block 0's +x face must land in block 1's -x
        // ghost shell (checked implicitly by bit-exactness above, but this
        // pins the slot convention).
        let c = cfg(4, 2, 1);
        let b0 = Block3d::new(c.clone(), ElemId(0));
        assert_eq!(b0.neighbor(1), Some(ElemId(4)), "+x neighbour of (0,0,0) is (1,0,0)");
        assert_eq!(b0.neighbor(0), None, "-x neighbour outside the mesh");
        let b7 = Block3d::new(c, ElemId(7));
        assert_eq!(b7.neighbor(0), Some(ElemId(3)), "-x neighbour of (1,1,1) is (0,1,1)");
    }
}
