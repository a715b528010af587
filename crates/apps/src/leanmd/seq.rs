//! Sequential LeanMD reference.
//!
//! Runs the *same* cell/cell-pair decomposition as the parallel code, in a
//! single loop, with the identical per-cell force and energy sums (one
//! [`ExactSum`] a part, which adds every term exactly and rounds once, so
//! no arrival order can change its result, and which the parallel cell
//! uses too) and the identical integrator ([`CellAtoms::integrate`]) — so
//! parallel trajectories and potentials must match **bit-for-bit** under
//! any placement, latency, or engine.

use mdo_core::reduction::ExactSum;
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

    /// Take the step's sums — the energy, then a triple per atom — each
    /// rounded once and left empty, and integrate: semi-implicit Euler
    /// (unit masses), kick, then drift.  Returns the energy.
    pub fn integrate(&mut self, sums: &mut [ExactSum], dt: f64) -> f64 {
        let mut parts = sums.iter_mut().map(ExactSum::take);
        let energy = parts.next().expect("the energy");
        for (vel, pos) in self.vel.iter_mut().zip(self.pos.iter_mut()) {
            for d in 0..3 {
                vel[d] += parts.next().expect("a force per atom") * dt;
                pos[d] += vel[d] * dt;
            }
        }
        energy
    }
}

/// The sequential simulation.
pub struct SeqMd {
    /// The cell grid.
    pub grid: CellGrid,
    /// All cell pairs, in global order.
    pub pairs: Vec<CellPair>,
    /// Per-cell pair membership (pair index, slot), in pair order.
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
    /// energies (a pair's counted once, on its cell a) summed exactly and
    /// rounded once, then summed over cells in cell order — the parallel
    /// run's `potential`, bit for bit.
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
        // Integrate each cell, its pairs' contributions summed exactly, part
        // by part.
        let mut potentials = Vec::with_capacity(self.cells.len());
        for (cell, memberships) in self.cells.iter_mut().zip(&self.pairs_of) {
            let mut sums = vec![ExactSum::default(); 1 + 3 * cell.pos.len()];
            for &(pair_idx, slot) in memberships {
                let (fa, fb, e) = &pair_forces[pair_idx as usize];
                let (energy, forces) = if slot == 0 { (*e, fa) } else { (0.0, fb) };
                let values = std::iter::once(energy).chain(forces.iter().flatten().copied());
                sums.iter_mut().zip(values).for_each(|(sum, x)| sum.add(x));
            }
            potentials.push(cell.integrate(&mut sums, self.dt));
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
