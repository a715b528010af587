//! Sequential LeanMD reference.
//!
//! Runs the *same* cell/cell-pair decomposition as the parallel code, in a
//! single loop, with the identical per-cell force and energy sums (the
//! fixed pairwise [`TreeSum`] over a cell's memberships, which the parallel
//! cell uses too) and the identical integrator — so parallel trajectories
//! and potentials must match **bit-for-bit** under any placement, latency,
//! or engine.

use mdo_netsim::Xoshiro256;

use super::geometry::{CellGrid, CellPair};
use super::kernels::{forces_between, forces_within, ForceParams};

/// One cell's atoms.
#[derive(Clone, Debug, Default)]
pub struct CellAtoms {
    /// Positions (absolute coordinates).
    pub pos: Vec<[f64; 3]>,
    /// Velocities.
    pub vel: Vec<[f64; 3]>,
    /// Charges (alternating ±1 at init).
    pub q: Vec<f64>,
}

impl CellAtoms {
    /// Deterministic initial atoms for one cell: jittered sub-lattice
    /// positions within the cell's cube, small random velocities,
    /// alternating charges.
    pub fn init(grid: CellGrid, cell: u32, n_atoms: usize, cell_width: f64, seed: u64) -> Self {
        let (cx, cy, cz) = grid.coords(cell);
        let base = [cx as f64 * cell_width, cy as f64 * cell_width, cz as f64 * cell_width];
        let mut rng = Xoshiro256::new(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(cell as u64 + 1)));
        // Sub-lattice side: smallest cube that fits n_atoms.
        let side = (n_atoms as f64).cbrt().ceil() as usize;
        let spacing = cell_width / side as f64;
        let mut atoms = CellAtoms::default();
        for i in 0..n_atoms {
            let (ix, iy, iz) = (i % side, (i / side) % side, i / (side * side));
            let jitter = 0.1 * spacing;
            atoms.pos.push([
                base[0] + (ix as f64 + 0.5) * spacing + jitter * (rng.next_f64() - 0.5),
                base[1] + (iy as f64 + 0.5) * spacing + jitter * (rng.next_f64() - 0.5),
                base[2] + (iz as f64 + 0.5) * spacing + jitter * (rng.next_f64() - 0.5),
            ]);
            atoms.vel.push([
                0.05 * (rng.next_f64() - 0.5),
                0.05 * (rng.next_f64() - 0.5),
                0.05 * (rng.next_f64() - 0.5),
            ]);
            atoms.q.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        atoms
    }

    /// Kinetic energy (unit masses).
    pub fn kinetic(&self) -> f64 {
        self.vel.iter().map(|v| 0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2])).sum()
    }

    /// Deterministic position checksum (sum of coordinates in order).
    pub fn pos_checksum(&self) -> f64 {
        self.pos.iter().map(|p| p[0] + p[1] + p[2]).sum()
    }

    /// Total momentum (unit masses).
    pub fn momentum(&self) -> [f64; 3] {
        let mut m = [0.0; 3];
        for v in &self.vel {
            m[0] += v[0];
            m[1] += v[1];
            m[2] += v[2];
        }
        m
    }
}

/// The fixed pairwise tree a LeanMD cell sums its `k` force contributions
/// by, leaf `i` being its `i`-th membership: in [`SeqMd::step`] and, as the
/// force messages arrive, in the parallel cell.
///
/// Node (l, j) covers the leaves [j·2^l, (j+1)·2^l) ∩ [0, k).  Its value is
/// its two children's added; a node whose second child's range is empty
/// takes its first child's value unchanged.  Leaves may come in any order:
/// each walks up, adding itself to every complete sibling subtree on the
/// way, and stops at the first sibling that is still incomplete, held there
/// until that sibling completes.  The association is the tree's whatever the
/// arrival order, and IEEE addition commutes, so which operand `combine`
/// accumulates into cannot change a bit.
///
/// At most ⌈k/2⌉ subtrees are held at once: a held leaf's sibling leaf is
/// missing, and every other held subtree spans at least two leaves, but for
/// the one (at most) that holds leaf k − 1.
#[derive(Debug)]
pub struct TreeSum<T> {
    k: usize,
    /// Complete subtrees whose sibling is not: (first leaf, level, value).
    held: Vec<(usize, u32, T)>,
}

impl<T> TreeSum<T> {
    /// An empty tree over `k ≥ 1` leaves, with room for all it can hold.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "a tree over no leaves");
        TreeSum { k, held: Vec::with_capacity(k.div_ceil(2)) }
    }

    /// Subtrees held now, waiting for their siblings.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// True if `leaf` has been added since the tree last completed.
    pub fn has(&self, leaf: usize) -> bool {
        self.held.iter().any(|&(first, level, _)| (first..first + (1 << level)).contains(&leaf))
    }

    /// Add `leaf`'s `value`, which must not be in yet; `combine(held,
    /// arriving)` adds two sibling subtrees' values.  Returns the root's
    /// value when `leaf` was the last one out, leaving the tree empty.
    pub fn add(&mut self, leaf: usize, value: T, mut combine: impl FnMut(T, T) -> T) -> Option<T> {
        assert!(leaf < self.k, "leaf {leaf} of a tree over {}", self.k);
        debug_assert!(!self.has(leaf), "leaf {leaf} added twice");
        let (mut value, mut level, mut node) = (value, 0, leaf);
        while 1 << level < self.k {
            let sibling = (node ^ 1) << level;
            if sibling < self.k {
                match self.held.iter().position(|&(first, l, _)| (first, l) == (sibling, level)) {
                    Some(at) => value = combine(self.held.swap_remove(at).2, value),
                    None => {
                        self.held.push((node << level, level, value));
                        return None;
                    }
                }
            }
            level += 1;
            node >>= 1;
        }
        Some(value)
    }
}

/// A cell's share of one pair's step: energy and forces on its atoms.
type Contribution = (f64, Vec<[f64; 3]>);

fn add_contributions((energy, mut forces): Contribution, (e, f): Contribution) -> Contribution {
    for (acc, add) in forces.iter_mut().zip(&f) {
        acc[0] += add[0];
        acc[1] += add[1];
        acc[2] += add[2];
    }
    (energy + e, forces)
}

/// The sequential simulation.
pub struct SeqMd {
    /// The cell grid.
    pub grid: CellGrid,
    /// All cell pairs, in global order.
    pub pairs: Vec<CellPair>,
    /// Per-cell pair membership (pair index, slot), in pair order: a
    /// membership's index is its leaf in the cell's [`TreeSum`].
    pub pairs_of: Vec<Vec<(u32, u8)>>,
    /// Per-cell atom state.
    pub cells: Vec<CellAtoms>,
    /// Force-field parameters.
    pub params: ForceParams,
    /// Cell cube edge length.
    pub cell_width: f64,
    /// Integration step.
    pub dt: f64,
    /// Potential energy of the last completed step: each cell's pair
    /// energies (a pair's counted once, on its cell a) summed by the cell's
    /// tree, then summed over cells in cell order — the parallel run's
    /// `potential`, bit for bit.
    pub last_potential: f64,
}

impl SeqMd {
    /// Build with deterministic initial conditions.
    pub fn new(grid: CellGrid, n_atoms: usize, cell_width: f64, dt: f64, params: ForceParams, seed: u64) -> Self {
        let pairs = grid.pairs();
        let pairs_of = CellGrid::pairs_of_cells(&pairs, grid.n_cells());
        let cells = (0..grid.n_cells()).map(|c| CellAtoms::init(grid, c, n_atoms, cell_width, seed)).collect();
        SeqMd { grid, pairs, pairs_of, cells, params, cell_width, dt, last_potential: 0.0 }
    }

    /// One time step: all pair forces, then per-cell integration with the
    /// canonical sums.
    pub fn step(&mut self) {
        // One (forces-on-a, forces-on-b, energy) entry per pair, in pair order.
        type PairForces = (Vec<[f64; 3]>, Vec<[f64; 3]>, f64);
        let mut pair_forces: Vec<PairForces> = Vec::with_capacity(self.pairs.len());
        for p in &self.pairs {
            if p.a == p.b {
                let cell = &self.cells[p.a as usize];
                let (f, e) = forces_within(&cell.pos, &cell.q, &self.params);
                pair_forces.push((f, Vec::new(), e));
            } else {
                let (ca, cb) = (&self.cells[p.a as usize], &self.cells[p.b as usize]);
                let shift = [
                    p.shift[0] as f64 * self.cell_width,
                    p.shift[1] as f64 * self.cell_width,
                    p.shift[2] as f64 * self.cell_width,
                ];
                pair_forces.push(forces_between(&ca.pos, &ca.q, &cb.pos, &cb.q, shift, &self.params));
            }
        }
        // Integrate each cell, its pairs' contributions summed by its tree.
        let mut potentials = Vec::with_capacity(self.cells.len());
        for (cell_id, memberships) in self.pairs_of.iter().enumerate() {
            let mut tree = TreeSum::new(memberships.len());
            let mut sum = None;
            for (leaf, &(pair_idx, slot)) in memberships.iter().enumerate() {
                let (fa, fb, e) = &mut pair_forces[pair_idx as usize];
                // Each pair's forces go to one cell each: move them there.
                let contribution = if slot == 0 { (*e, std::mem::take(fa)) } else { (0.0, std::mem::take(fb)) };
                sum = tree.add(leaf, contribution, add_contributions);
            }
            let (energy, force) = sum.expect("every membership added");
            potentials.push(energy);
            let cell = &mut self.cells[cell_id];
            // Semi-implicit Euler (unit masses): kick, then drift.
            for ((vel, pos), f) in cell.vel.iter_mut().zip(cell.pos.iter_mut()).zip(&force) {
                vel[0] += f[0] * self.dt;
                vel[1] += f[1] * self.dt;
                vel[2] += f[2] * self.dt;
                pos[0] += vel[0] * self.dt;
                pos[1] += vel[1] * self.dt;
                pos[2] += vel[2] * self.dt;
            }
        }
        // As the parallel run's outcome sums its gathered rows.
        self.last_potential = potentials.iter().sum();
    }

    /// Run `k` steps.
    pub fn run(&mut self, k: u32) {
        for _ in 0..k {
            self.step();
        }
    }

    /// Total kinetic energy.
    pub fn kinetic(&self) -> f64 {
        self.cells.iter().map(|c| c.kinetic()).sum()
    }

    /// Total momentum.
    pub fn momentum(&self) -> [f64; 3] {
        let mut m = [0.0; 3];
        for c in &self.cells {
            let cm = c.momentum();
            m[0] += cm[0];
            m[1] += cm[1];
            m[2] += cm[2];
        }
        m
    }

    /// Per-cell position checksums, in cell order.
    pub fn checksums(&self) -> Vec<f64> {
        self.cells.iter().map(|c| c.pos_checksum()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SeqMd {
        SeqMd::new(CellGrid { side: 3 }, 6, 1.0, 1e-3, ForceParams::default(), 7)
    }

    #[test]
    fn initial_conditions_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.checksums(), b.checksums());
        assert_eq!(a.cells[0].vel, b.cells[0].vel);
    }

    #[test]
    fn atoms_start_inside_their_cells() {
        let md = tiny();
        for (cell_id, cell) in md.cells.iter().enumerate() {
            let (cx, cy, cz) = md.grid.coords(cell_id as u32);
            for p in &cell.pos {
                assert!(p[0] >= cx as f64 && p[0] <= (cx + 1) as f64, "x in cell");
                assert!(p[1] >= cy as f64 && p[1] <= (cy + 1) as f64, "y in cell");
                assert!(p[2] >= cz as f64 && p[2] <= (cz + 1) as f64, "z in cell");
            }
        }
    }

    #[test]
    fn momentum_is_conserved() {
        let mut md = tiny();
        let m0 = md.momentum();
        md.run(20);
        let m1 = md.momentum();
        for d in 0..3 {
            assert!((m1[d] - m0[d]).abs() < 1e-9, "dim {d}: {} -> {}", m0[d], m1[d]);
        }
    }

    #[test]
    fn energy_drift_is_bounded() {
        let mut md = tiny();
        md.step(); // populate last_potential
        let e0 = md.kinetic() + md.last_potential;
        md.run(100);
        let e1 = md.kinetic() + md.last_potential;
        let scale = e0.abs().max(1e-6);
        assert!(((e1 - e0) / scale).abs() < 0.05, "energy drift under 5% for small dt: {e0} -> {e1}");
    }

    #[test]
    fn atoms_actually_move() {
        let mut md = tiny();
        let c0 = md.checksums();
        md.run(5);
        let c1 = md.checksums();
        assert_ne!(c0, c1);
        assert!(c1.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn steps_are_deterministic() {
        let mut a = tiny();
        let mut b = tiny();
        a.run(10);
        b.run(10);
        assert_eq!(a.checksums(), b.checksums());
        assert_eq!(a.kinetic(), b.kinetic());
    }
}
