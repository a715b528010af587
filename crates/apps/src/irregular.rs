//! Irregular mesh decomposition — the third decomposition family the
//! paper's conclusion claims: *"it can be applied to a wide variety of
//! problem decomposition strategies, such as regular and **irregular mesh
//! decomposition** or spatial decomposition, without requiring
//! modification of application software."*
//!
//! The mesh is a deterministic jittered-grid graph (grid edges plus
//! seeded diagonal chords, so vertex degrees vary from 2 to 8), relaxed
//! with a Jacobi-style neighbour average.  It is partitioned into
//! contiguous chunks of a BFS ordering; each partition object exchanges
//! one *boundary-values* message per neighbouring partition per step —
//! irregular neighbour counts, irregular message sizes, same
//! message-driven masking: the step protocol every halo application
//! shares (`crate::halo`), a partition's halo slots being its neighbour
//! partitions in ascending order.  This module supplies the graph, the
//! partitioner, the boundary lists, the kernel and its cost.  As
//! everywhere else: bit-exact against the sequential reference.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use mdo_core::ids::ElemId;
use mdo_core::program::RunConfig;
use mdo_core::{Mapping, SimEngine};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, Xoshiro256};

use crate::halo::{self, Halo};
use crate::stencil::{StencilCost, StencilOutcome};

/// An undirected irregular graph with per-vertex initial values.
#[derive(Clone, Debug)]
pub struct IrregularMesh {
    /// Adjacency lists, each sorted ascending (the canonical neighbour
    /// order every solver variant must use).
    pub adj: Vec<Vec<u32>>,
    /// Initial vertex values.
    pub init: Vec<f64>,
}

impl IrregularMesh {
    /// Deterministic generator: a `side`×`side` grid with right/down
    /// edges plus seeded diagonal chords (degree 2–8).
    pub fn jittered_grid(side: usize, seed: u64) -> Self {
        let n = side * side;
        let mut rng = Xoshiro256::new(seed);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let connect = |adj: &mut Vec<Vec<u32>>, a: usize, b: usize| {
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        };
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    connect(&mut adj, v, v + 1);
                }
                if r + 1 < side {
                    connect(&mut adj, v, v + side);
                }
                // Irregularity: seeded diagonals.
                if r + 1 < side && c + 1 < side && rng.next_f64() < 0.4 {
                    connect(&mut adj, v, v + side + 1);
                }
                if r + 1 < side && c > 0 && rng.next_f64() < 0.2 {
                    connect(&mut adj, v, v + side - 1);
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        let init = (0..n)
            .map(|v| {
                let (r, c) = (v / side, v % side);
                let tau = std::f64::consts::TAU;
                (tau * r as f64 / side as f64).sin() + 0.3 * (tau * c as f64 / side as f64).cos()
            })
            .collect();
        IrregularMesh { adj, init }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Partition vertices into `parts` contiguous chunks of a BFS order
    /// (a cheap locality-preserving partitioner); returns vertex→part.
    pub fn partition(&self, parts: usize) -> Vec<u32> {
        assert!(parts >= 1 && parts <= self.n());
        // BFS order from vertex 0, visiting any stragglers afterwards.
        let mut order = Vec::with_capacity(self.n());
        let mut seen = vec![false; self.n()];
        let mut queue = std::collections::VecDeque::new();
        for start in 0..self.n() {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            queue.push_back(start as u32);
            while let Some(v) = queue.pop_front() {
                order.push(v);
                for &u in &self.adj[v as usize] {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        queue.push_back(u);
                    }
                }
            }
        }
        let chunk = self.n().div_ceil(parts);
        let mut part = vec![0u32; self.n()];
        for (i, &v) in order.iter().enumerate() {
            part[v as usize] = (i / chunk) as u32;
        }
        part
    }

    /// One sequential Jacobi step over the whole graph.
    pub fn seq_step(values: &mut Vec<f64>, adj: &[Vec<u32>]) {
        let mut next = vec![0.0; values.len()];
        for (v, list) in adj.iter().enumerate() {
            let mut sum = values[v];
            for &u in list {
                sum += values[u as usize];
            }
            next[v] = sum / (1.0 + list.len() as f64);
        }
        *values = next;
    }

    /// Run the sequential reference for `steps`; returns final values.
    pub fn seq_run(&self, steps: u32) -> Vec<f64> {
        let mut values = self.init.clone();
        for _ in 0..steps {
            Self::seq_step(&mut values, &self.adj);
        }
        values
    }

    /// Per-partition checksums (sum of values in ascending vertex order).
    pub fn partition_sums(values: &[f64], part: &[u32], parts: usize) -> Vec<f64> {
        let mut sums = vec![0.0; parts];
        for (v, &p) in part.iter().enumerate() {
            sums[p as usize] += values[v];
        }
        sums
    }
}

/// Configuration for the parallel irregular solver.
#[derive(Clone, Debug)]
pub struct IrregularConfig {
    /// Grid side of the generator (n = side²).
    pub side: usize,
    /// Generator seed.
    pub seed: u64,
    /// Partition objects.
    pub parts: usize,
    /// Steps.
    pub steps: u32,
    /// Real math or cost-model only.
    pub compute: bool,
    /// Cost model (per vertex-neighbour evaluation).
    pub cost: StencilCost,
}

/// A partition's boundary with one neighbour partition: the neighbour, and
/// the (local vertex, remote vertex) cross-edge endpoints sent to it.
type Boundary = (u32, Vec<(u32, u32)>);

/// Immutable decomposition shared by all partition objects.
pub(crate) struct Layout {
    mesh: IrregularMesh,
    part: Vec<u32>,
    /// Per partition: its vertices, ascending.
    members: Vec<Vec<u32>>,
    /// Per partition, by ascending neighbour partition (its halo slots):
    /// the (local vertex, remote vertex) cross-edge endpoints this side
    /// must *send*, in canonical (sorted) order.  The receiver's list for
    /// the reverse direction holds the same edges with roles swapped, so
    /// both agree on the order.
    send_lists: Vec<Vec<Boundary>>,
}

impl Layout {
    pub(crate) fn new(mesh: IrregularMesh, parts: usize) -> Self {
        let part = mesh.partition(parts);
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); parts];
        for (v, &p) in part.iter().enumerate() {
            members[p as usize].push(v as u32);
        }
        let mut send_lists: Vec<BTreeMap<u32, Vec<(u32, u32)>>> = vec![BTreeMap::new(); parts];
        for (v, list) in mesh.adj.iter().enumerate() {
            let pv = part[v];
            for &u in list {
                let pu = part[u as usize];
                if pu != pv {
                    // I (pv) must send v's value to pu for this edge.
                    send_lists[pv as usize].entry(pu).or_default().push((v as u32, u));
                }
            }
        }
        for lists in &mut send_lists {
            for edges in lists.values_mut() {
                edges.sort_unstable();
            }
        }
        let send_lists = send_lists.into_iter().map(|lists| lists.into_iter().collect()).collect();
        Layout { mesh, part, members, send_lists }
    }

    /// The halo slot of partition `of` at its neighbour `at`.
    fn slot(&self, of: u32, at: u32) -> usize {
        self.send_lists[at as usize].binary_search_by_key(&of, |&(p, _)| p).expect("neighbours are mutual")
    }
}

pub(crate) struct Partition {
    cfg: IrregularConfig,
    layout: Arc<Layout>,
    me: u32,
    /// My vertices' values (indexed like `layout.members[me]`).
    values: Vec<f64>,
    /// Latest known values of remote neighbour vertices.
    remote: BTreeMap<u32, f64>,
}

impl Partition {
    pub(crate) fn new(cfg: IrregularConfig, layout: Arc<Layout>, me: u32) -> Self {
        let values = if cfg.compute {
            layout.members[me as usize].iter().map(|&v| layout.mesh.init[v as usize]).collect()
        } else {
            Vec::new()
        };
        Partition { cfg, layout, me, values, remote: BTreeMap::new() }
    }

    /// My neighbour partitions and the edges I send each, by slot.
    fn lists(&self) -> &[Boundary] {
        &self.layout.send_lists[self.me as usize]
    }

    fn local_index(&self, v: u32) -> usize {
        self.layout.members[self.me as usize].binary_search(&v).expect("local vertex")
    }
}

impl Halo for Partition {
    const ARRAY: &'static str = "irregular";

    type Slots = Box<[Bytes]>;

    fn slots(&self) -> Box<[Bytes]> {
        vec![Bytes::new(); self.lists().len()].into()
    }

    fn neighbor(&self, slot: usize) -> Option<(ElemId, u8)> {
        let peer = self.lists()[slot].0;
        Some((ElemId(peer), self.layout.slot(self.me, peer) as u8))
    }

    fn halo_len(&self, slot: usize) -> usize {
        self.lists()[slot].1.len()
    }

    fn halo(&self, slot: usize) -> impl Iterator<Item = f64> + '_ {
        self.lists()[slot].1.iter().map(|&(v, _)| self.values[self.local_index(v)])
    }

    /// Fold a neighbour's boundary values into `remote`: it sent its
    /// endpoints of its edges to me, in its own list's order.
    fn fill(&mut self, slot: usize, values: impl Iterator<Item = f64>) {
        let peer = self.lists()[slot].0;
        let theirs = &self.layout.send_lists[peer as usize][self.layout.slot(self.me, peer)].1;
        for (&(their_v, _our_u), val) in theirs.iter().zip(values) {
            self.remote.insert(their_v, val);
        }
    }

    fn compute(&mut self, _step: u32, msgs: usize) -> (Dur, u32) {
        let members = &self.layout.members[self.me as usize];
        if self.cfg.compute {
            let mut next = Vec::with_capacity(members.len());
            for (i, &v) in members.iter().enumerate() {
                let list = &self.layout.mesh.adj[v as usize];
                let mut sum = self.values[i];
                for &u in list {
                    sum += if self.layout.part[u as usize] == self.me {
                        self.values[self.local_index(u)]
                    } else {
                        *self.remote.get(&u).expect("remote neighbour value")
                    };
                }
                next.push(sum / (1.0 + list.len() as f64));
            }
            self.values = next;
        }
        (self.cfg.cost.step_cost(members.len(), msgs), 1)
    }

    fn block_sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn steps(&self) -> u32 {
        self.cfg.steps
    }

    fn computes(&self) -> bool {
        self.cfg.compute
    }
}

/// Run under the simulation engine; the outcome's `block_sums` are the
/// partitions' value sums.
pub fn run_sim(cfg: IrregularConfig, net: NetworkModel, run_cfg: RunConfig) -> StencilOutcome {
    let layout = Arc::new(Layout::new(IrregularMesh::jittered_grid(cfg.side, cfg.seed), cfg.parts));
    let (parts, steps) = (cfg.parts, cfg.steps);
    let make = move |elem: ElemId| Partition::new(cfg.clone(), Arc::clone(&layout), elem.0);
    halo::run(parts, Mapping::Block, steps, false, make, |p| SimEngine::new(net, run_cfg).run(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_netsim::Dur;

    fn cfg(side: usize, parts: usize, steps: u32) -> IrregularConfig {
        IrregularConfig {
            side,
            seed: 42,
            parts,
            steps,
            compute: true,
            cost: StencilCost { ns_per_cell: 50.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
        }
    }

    #[test]
    fn generator_is_deterministic_and_irregular() {
        let a = IrregularMesh::jittered_grid(12, 7);
        let b = IrregularMesh::jittered_grid(12, 7);
        assert_eq!(a.adj, b.adj);
        let degrees: Vec<usize> = a.adj.iter().map(Vec::len).collect();
        let (min, max) = (degrees.iter().min().unwrap(), degrees.iter().max().unwrap());
        assert!(max > min, "degrees vary: {min}..{max}");
        assert!(*max >= 5, "diagonal chords present");
        // Symmetric adjacency.
        for (v, list) in a.adj.iter().enumerate() {
            for &u in list {
                assert!(a.adj[u as usize].contains(&(v as u32)));
            }
        }
    }

    #[test]
    fn partition_covers_all_vertices() {
        let mesh = IrregularMesh::jittered_grid(10, 3);
        for parts in [1usize, 3, 7, 16] {
            let part = mesh.partition(parts);
            assert_eq!(part.len(), mesh.n());
            assert!(part.iter().all(|&p| (p as usize) < parts));
            // Sizes within one chunk of each other.
            let mut counts = vec![0usize; parts];
            for &p in &part {
                counts[p as usize] += 1;
            }
            let (mn, mx) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(mx - mn <= mesh.n().div_ceil(parts), "roughly even: {counts:?}");
        }
    }

    fn check(cfg: IrregularConfig, pes: u32, lat_ms: u64) {
        let mesh = IrregularMesh::jittered_grid(cfg.side, cfg.seed);
        let part = mesh.partition(cfg.parts);
        let expect = IrregularMesh::partition_sums(&mesh.seq_run(cfg.steps), &part, cfg.parts);
        let net = NetworkModel::two_cluster_sweep(pes, Dur::from_millis(lat_ms));
        let out = run_sim(cfg, net, RunConfig::default());
        assert_eq!(out.block_sums.len(), expect.len());
        for (i, (got, want)) in out.block_sums.iter().zip(&expect).enumerate() {
            // Identical adjacency-order accumulation per vertex; the
            // partition sum itself adds vertices in ascending order both
            // sides, so equality is exact.
            assert_eq!(got, want, "partition {i} checksum");
        }
    }

    #[test]
    fn matches_sequential_small() {
        check(cfg(8, 4, 5), 2, 2);
    }

    #[test]
    fn matches_sequential_many_parts_high_latency() {
        check(cfg(14, 12, 6), 4, 30);
    }

    #[test]
    fn matches_sequential_single_partition() {
        check(cfg(6, 1, 4), 2, 1);
    }

    #[test]
    fn irregular_virtualization_masks_latency() {
        let run = |parts: usize, lat: u64| {
            let mut c = cfg(48, parts, 8);
            c.compute = false;
            let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(lat));
            run_sim(c, net, RunConfig::default()).ms_per_step
        };
        let lo = run(4, 8) / run(4, 0);
        let hi = run(64, 8) / run(64, 0);
        assert!(hi < lo, "more partitions per PE mask the WAN on an irregular mesh too: {hi:.2} < {lo:.2}");
    }
}
