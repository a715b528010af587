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
//! message-driven masking.  As everywhere else: bit-exact against the
//! sequential reference.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use mdo_core::chare::{Chare, Ctx};
use mdo_core::envelope::ReduceData;
use mdo_core::ids::{ElemId, EntryId};
use mdo_core::prelude::{WireReader, WireWriter};
use mdo_core::program::{Program, RunConfig, RunReport};
use mdo_core::wire::f64_array_len;
use mdo_core::{Mapping, SimEngine};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Time, Xoshiro256};

use crate::halo;
use crate::stencil::StencilCost;

const START: EntryId = EntryId(1);
/// Entry: a neighbour's boundary values (payload: step u32, sender u32,
/// values in the sender's canonical edge order).
const BOUNDARY: EntryId = EntryId(2);
/// Bytes of a boundary message before its values: the step and the sender.
const BOUNDARY_HEADER: usize = 4 + 4;

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

/// Outcome of a run.
#[derive(Debug)]
pub struct IrregularOutcome {
    /// Mean milliseconds per step.
    pub ms_per_step: f64,
    /// Per-partition value sums (zeros unless compute).
    pub partition_sums: Vec<f64>,
    /// Engine report.
    pub report: RunReport,
}

/// Immutable decomposition shared by all partition objects.
struct Layout {
    mesh: IrregularMesh,
    part: Vec<u32>,
    /// Per partition: its vertices, ascending.
    members: Vec<Vec<u32>>,
    /// Per partition: neighbour partition → the (local vertex, remote
    /// vertex) cross-edge endpoints this side must *send*, in canonical
    /// (sorted) order.  The receiver's map for the reverse direction lists
    /// the same edges with roles swapped, so both agree on the order.
    send_lists: Vec<BTreeMap<u32, Vec<(u32, u32)>>>,
}

impl Layout {
    fn new(mesh: IrregularMesh, parts: usize) -> Self {
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
        Layout { mesh, part, members, send_lists }
    }
}

struct Partition {
    cfg: IrregularConfig,
    layout: Arc<Layout>,
    me: u32,
    /// My vertices' values (indexed like `layout.members[me]`).
    values: Vec<f64>,
    /// Latest known values of remote neighbour vertices.
    remote: BTreeMap<u32, f64>,
    step: u32,
    /// Boundary messages received for the current step, by sender, kept as
    /// delivered and read in place by the step (see [`halo`]; empty in
    /// cost-model mode).
    got: BTreeMap<u32, Bytes>,
    /// Boundary messages that arrived one step early.
    ahead: BTreeMap<u32, Bytes>,
    started: bool,
    done: bool,
}

impl Partition {
    fn new(cfg: IrregularConfig, layout: Arc<Layout>, me: u32) -> Self {
        let values = if cfg.compute {
            layout.members[me as usize].iter().map(|&v| layout.mesh.init[v as usize]).collect()
        } else {
            Vec::new()
        };
        Partition {
            cfg,
            layout,
            me,
            values,
            remote: BTreeMap::new(),
            step: 0,
            got: BTreeMap::new(),
            ahead: BTreeMap::new(),
            started: false,
            done: false,
        }
    }

    fn neighbors(&self) -> usize {
        self.layout.send_lists[self.me as usize].len()
    }

    fn local_index(&self, v: u32) -> usize {
        self.layout.members[self.me as usize].binary_search(&v).expect("local vertex")
    }

    fn send_boundaries(&self, ctx: &mut Ctx<'_>) {
        let arr = ctx.me().array;
        for (&peer, edges) in &self.layout.send_lists[self.me as usize] {
            let mut w = WireWriter::with_capacity(BOUNDARY_HEADER + f64_array_len(edges.len()));
            w.u32(self.step).u32(self.me);
            if self.cfg.compute {
                let vals: Vec<f64> = edges.iter().map(|&(v, _)| self.values[self.local_index(v)]).collect();
                w.f64_slice(&vals);
            } else {
                w.f64_zeros(edges.len());
            }
            ctx.send(arr, ElemId(peer), BOUNDARY, w.finish());
        }
    }

    /// Fold received boundary vectors into `remote` and run one step.
    fn compute_step(&mut self) {
        if self.cfg.compute {
            let me = self.me as usize;
            for (&peer, msg) in &self.got {
                // The peer sent its endpoints of the peer→me edges, which
                // from our side is send_lists[me][peer] with roles swapped:
                // canonical order is the same edge set sorted from the
                // *sender's* perspective, so reconstruct from the peer's
                // list shape: edges (their v, our u) sorted by (v, u).
                let their_edges = &self.layout.send_lists[peer as usize][&self.me];
                for (&(their_v, _our_u), val) in their_edges.iter().zip(halo::values(msg, BOUNDARY_HEADER)) {
                    self.remote.insert(their_v, val);
                }
            }
            let members = &self.layout.members[me];
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
        self.got.clear();
    }

    fn advance_while_ready(&mut self, ctx: &mut Ctx<'_>) {
        while self.started && !self.done && self.got.len() == self.neighbors() {
            let n_vertices = self.layout.members[self.me as usize].len();
            ctx.charge(self.cfg.cost.step_cost(n_vertices, self.neighbors()));
            self.compute_step();
            self.step += 1;
            if self.step >= self.cfg.steps {
                self.done = true;
                let sum: f64 = self.values.iter().sum();
                let mut w = WireWriter::new();
                w.f64(sum);
                ctx.contribute_gather(w.finish());
                return;
            }
            self.send_boundaries(ctx);
            self.got = std::mem::take(&mut self.ahead);
        }
    }
}

impl Chare for Partition {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        match entry {
            START => {
                assert!(!self.started, "START twice");
                self.started = true;
                self.send_boundaries(ctx);
                self.advance_while_ready(ctx);
            }
            BOUNDARY => {
                let mut r = WireReader::new(payload);
                let step = r.u32().expect("step");
                let peer = r.u32().expect("peer");
                let edges = self.layout.send_lists.get(peer as usize).and_then(|lists| lists.get(&self.me));
                let edges = edges.unwrap_or_else(|| panic!("boundary from {peer}, which is not a neighbour"));
                halo::check(payload, BOUNDARY_HEADER, edges.len(), format_args!("boundary from {peer} step {step}"));
                let msg = halo::keep(ctx, self.cfg.compute);
                if step == self.step {
                    let prev = self.got.insert(peer, msg);
                    assert!(prev.is_none(), "duplicate boundary from {peer}");
                    self.advance_while_ready(ctx);
                } else if step == self.step + 1 {
                    let prev = self.ahead.insert(peer, msg);
                    assert!(prev.is_none(), "partition {peer} ran two steps ahead");
                } else {
                    panic!("boundary for step {step} while at {}", self.step);
                }
            }
            other => panic!("unknown irregular entry {other:?}"),
        }
    }
}

/// Run under the simulation engine.
pub fn run_sim(cfg: IrregularConfig, net: NetworkModel, run_cfg: RunConfig) -> IrregularOutcome {
    let layout = Arc::new(Layout::new(IrregularMesh::jittered_grid(cfg.side, cfg.seed), cfg.parts));
    let sums: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let sums_c = Arc::clone(&sums);
    let mut p = Program::new();
    let cfg_f = cfg.clone();
    let layout_f = Arc::clone(&layout);
    let arr = p.array("irregular", cfg.parts, Mapping::Block, move |elem| {
        Box::new(Partition::new(cfg_f.clone(), Arc::clone(&layout_f), elem.0)) as Box<dyn Chare>
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
    let partition_sums = sums.lock().expect("sums").clone();
    IrregularOutcome { ms_per_step: total.as_millis_f64() / cfg.steps as f64, partition_sums, report }
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
        assert_eq!(out.partition_sums.len(), expect.len());
        for (i, (got, want)) in out.partition_sums.iter().zip(&expect).enumerate() {
            // Identical adjacency-order accumulation per vertex; the
            // partition sum itself adds vertices in ascending order both
            // sides, so equality is exact.
            assert_eq!(got, want, "partition {i} checksum");
        }
    }

    /// A boundary vector one value short fails where it arrives, in
    /// cost-model mode too, where no step reads its values.
    #[test]
    #[should_panic(expected = "wrong length")]
    fn a_short_boundary_fails_on_receipt_in_cost_model_mode() {
        let c = IrregularConfig { compute: false, ..cfg(8, 4, 5) };
        let layout = Arc::new(Layout::new(IrregularMesh::jittered_grid(c.side, c.seed), c.parts));
        let (&peer, _) = layout.send_lists[0].iter().next().expect("partition 0 has a neighbour");
        let len = layout.send_lists[peer as usize][&0].len();
        let mut p = Program::new();
        p.array("irregular", c.parts, Mapping::Block, move |elem| {
            Box::new(Partition::new(c.clone(), Arc::clone(&layout), elem.0)) as Box<dyn Chare>
        });
        let mut w = WireWriter::new();
        w.u32(0).u32(peer).f64_zeros(len - 1);
        crate::halo::deliver(p, ElemId(0), BOUNDARY, w.finish());
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
