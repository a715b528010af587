//! LeanMD — the paper's molecular dynamics benchmark (§4, §5.3).
//!
//! Two chare arrays: **cells** (216 for the paper's 6×6×6 grid) and
//! **cell-pairs** (3,024).  Each step every cell multicasts its atoms'
//! coordinates to the 27 pairs that depend on it; each pair computes the
//! interactions between its two atom sets and sends forces back; each
//! cell integrates once all 27 force messages arrive.  *"Some subset of
//! these objects ('subset A') require messages from cells within their
//! own cluster, while a different subset ('subset B') may require one or
//! both messages from outside the cluster.  As a result, a processor is
//! able to execute objects in subset A while waiting for high-latency
//! messages for objects in subset B"* — that is the latency tolerance the
//! Figure-4/Table-2 experiments measure.
//!
//! Submodules: [`geometry`] (cells/pairs), [`kernels`] (forces),
//! [`seq`] (bit-identical sequential reference).

pub mod geometry;
pub mod kernels;
pub mod seq;

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use mdo_core::chare::{Chare, Ctx};
use mdo_core::envelope::ReduceData;
use mdo_core::ids::{ArrayId, ElemId, EntryId};
use mdo_core::prelude::{WireReader, WireWriter};
use mdo_core::program::{Program, RunConfig, RunReport};
use mdo_core::wire::f64_array_len;
use mdo_core::{Mapping, SimEngine, ThreadedConfig, ThreadedEngine};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, LatencyMatrix, Time, Topology};

use geometry::{CellGrid, CellPair};
use kernels::{forces_between, forces_within, interaction_count, ForceParams};
use seq::{CellAtoms, TreeSum};

/// Entry on cells: begin stepping.
const START: EntryId = EntryId(1);
/// Entry on cells: forces from one pair (step, pair idx, energy, forces).
const FORCES: EntryId = EntryId(2);
/// Entry on pairs: coordinates from one member cell.
const COORDS: EntryId = EntryId(3);

/// The `(step, sender cell)` header of a coordinate message.
const COORDS_HEADER_LEN: usize = 8;

/// Exact length of a coordinate message for `n` atoms: header, `3n`
/// positions, `n` charges.
const fn coords_len(n: usize) -> usize {
    COORDS_HEADER_LEN + f64_array_len(3 * n) + f64_array_len(n)
}

/// Exact length of a force message for `n` atoms: step, pair index,
/// energy, `3n` force components.
const fn forces_len(n: usize) -> usize {
    4 + 4 + 8 + f64_array_len(3 * n)
}

/// One cell's coordinate message.  It is identical for every pair (the
/// pair derives which slot the sender is from the cell id), so one buffer
/// goes out either as 27 point-to-point sends or as one section multicast.
/// `atoms` is `None` in cost-model mode: zeros of the real payload's size,
/// so the bandwidth/contention model sees realistic traffic.
fn coords_payload(step: u32, cell: u32, n: usize, atoms: Option<&CellAtoms>) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(coords_len(n));
    w.u32(step).u32(cell);
    match atoms {
        Some(atoms) => w.f64_triples(&atoms.pos).f64_slice(&atoms.q),
        None => w.f64_zeros(3 * n).f64_zeros(n),
    };
    w.finish()
}

/// One pair's force message to one of its cells.
///
/// Held back: this is still the parent's call sequence — a flattened copy,
/// then `f64_slice` — over a zero-filled temporary in cost-model mode,
/// where [`coords_payload`] uses `f64_triples` / `f64_zeros`.  Doing the
/// same here takes `leanmd_tcp`'s zero-latency step from 39 to 27 ms while
/// its WAN step stays on the 16 ms latency floor, which the benchmark's
/// `wan_lan_skew` gate reads as a ×1.37 regression (EXPERIMENTS.md A18);
/// it waits for the re-base of that workload (ROADMAP, first open item).
fn forces_payload(step: u32, pair: u32, energy: f64, forces: &[[f64; 3]]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(forces_len(forces.len()));
    let flat: Vec<f64> = forces.iter().flat_map(|f| f.iter().copied()).collect();
    w.u32(step).u32(pair).f64(energy).f64_slice(&flat);
    w.finish()
}

/// Compute-cost model, calibrated in EXPERIMENTS.md so a single-PE step
/// lands near the paper's "about 8 second\[s\]".
#[derive(Clone, Debug)]
pub struct MdCost {
    /// Virtual cost per atom-pair interaction evaluated by a cell-pair.
    pub ns_per_interaction: f64,
    /// Virtual cost per atom integrated by a cell.
    pub ns_per_atom_integrate: f64,
    /// Per-message software overhead.
    pub msg_overhead: Dur,
}

impl Default for MdCost {
    fn default() -> Self {
        MdCost { ns_per_interaction: 127.0, ns_per_atom_integrate: 500.0, msg_overhead: Dur::from_micros(25) }
    }
}

/// Configuration for one LeanMD run.
#[derive(Clone, Debug)]
pub struct MdConfig {
    /// Cell decomposition (paper: 6×6×6).
    pub grid: CellGrid,
    /// Atoms per cell (paper scale: ~140 → ~30k atoms).
    pub atoms_per_cell: usize,
    /// Steps to run.
    pub steps: u32,
    /// Integration timestep.
    pub dt: f64,
    /// Cell cube edge (≥ cutoff for exact 26-neighbour coverage).
    pub cell_width: f64,
    /// Run the real force kernels (validation) or cost-model only.
    pub compute: bool,
    /// Cost model.
    pub cost: MdCost,
    /// Force field.
    pub params: ForceParams,
    /// Initial-condition seed.
    pub seed: u64,
    /// Load-balance every `lb_period` steps (None = never — the paper's
    /// §5.3 runs were "conducted without any load balancing").
    pub lb_period: Option<u32>,
    /// Initial placement of cells (default Block).
    pub cell_mapping: Mapping,
    /// Initial placement of cell-pairs (default Block).  §5.3 conjectures
    /// "with load balancing, the speedups are likely to be good at 64
    /// processors"; pass a skewed mapping here and a balancer to test it.
    pub pair_mapping: Mapping,
    /// Use the runtime's section multicast for the coordinate fan-out:
    /// one wire message per destination PE instead of one per cell-pair
    /// (the "optimized communication libraries" of §2.1).  Default off to
    /// match the paper's per-pair messaging in the calibrated runs.
    pub use_multicast: bool,
}

impl MdConfig {
    /// The paper's benchmark: 216 cells, 3,024 pairs, ~8 s/step on one PE
    /// under the cost model.
    pub fn paper(steps: u32) -> Self {
        MdConfig {
            grid: CellGrid::paper(),
            atoms_per_cell: 140,
            steps,
            dt: 1e-3,
            cell_width: 1.0,
            compute: false,
            cost: MdCost::default(),
            params: ForceParams::default(),
            seed: 42,
            lb_period: None,
            cell_mapping: Mapping::Block,
            pair_mapping: Mapping::Block,
            use_multicast: false,
        }
    }

    /// A small configuration with real force computation, for tests.
    pub fn validation(side: u32, atoms: usize, steps: u32) -> Self {
        MdConfig {
            grid: CellGrid { side },
            atoms_per_cell: atoms,
            steps,
            dt: 1e-3,
            cell_width: 1.0,
            compute: true,
            cost: MdCost { ns_per_interaction: 50.0, ns_per_atom_integrate: 100.0, msg_overhead: Dur::from_micros(5) },
            params: ForceParams::default(),
            seed: 42,
            lb_period: None,
            cell_mapping: Mapping::Block,
            pair_mapping: Mapping::Block,
            use_multicast: false,
        }
    }
}

/// What a LeanMD run produced.
#[derive(Debug)]
pub struct MdOutcome {
    /// End-to-end run time.
    pub total: Dur,
    /// Mean seconds per step (the paper's Table 2 unit — its "ms" label is
    /// a typo; see EXPERIMENTS.md).
    pub s_per_step: f64,
    /// Mean milliseconds per step.
    pub ms_per_step: f64,
    /// Final total kinetic energy (0 unless `compute`).
    pub kinetic: f64,
    /// Final total potential energy (0 unless `compute`).
    pub potential: f64,
    /// Per-cell position checksums in cell order (0s unless `compute`).
    pub checksums: Vec<f64>,
    /// Engine report.
    pub report: RunReport,
}

/// Per-cell (checksum, kinetic, potential) gathered at the end of a run.
type CellRow = (f64, f64, f64);

struct Shared {
    rows: Mutex<Vec<CellRow>>,
}

// ---- cell chare ----------------------------------------------------------

struct Cell {
    cfg: Arc<MdConfig>,
    id: u32,
    atoms: CellAtoms,
    /// (pair index, slot) memberships in ascending pair order; a
    /// membership's index is its force message's leaf in `forces`.
    memberships: Arc<Vec<(u32, u8)>>,
    pairs_array: ArrayId,
    step: u32,
    /// This step's force messages, summed as they arrive by the fixed
    /// pairwise tree over membership indices that `SeqMd::step` sums by: a
    /// message whose sibling subtree is incomplete is held as received, and
    /// each add is written into one of the two buffers it adds
    /// (`add_forces`).  Cost-model mode holds the same buffers and skips
    /// only the force arithmetic: its cell has no atoms.
    forces: TreeSum<Bytes>,
    /// This cell's share of the last completed step's potential: the energy
    /// of its `forces` sum.
    potential: f64,
    done: bool,
}

impl Cell {
    /// Cell `id` at step 0: its initial atoms in real mode, none in
    /// cost-model mode.
    fn new(cfg: Arc<MdConfig>, id: u32, memberships: Arc<Vec<(u32, u8)>>, pairs_array: ArrayId) -> Cell {
        let atoms = if cfg.compute {
            CellAtoms::init(cfg.grid, id, cfg.atoms_per_cell, cfg.cell_width, cfg.seed)
        } else {
            CellAtoms::default()
        };
        Cell {
            cfg,
            id,
            atoms,
            forces: TreeSum::new(memberships.len()),
            memberships,
            pairs_array,
            step: 0,
            potential: 0.0,
            done: false,
        }
    }

    fn multicast_coords(&self, ctx: &mut Ctx<'_>) {
        let atoms = self.cfg.compute.then_some(&self.atoms);
        // One buffer, however many pairs read it.
        let coords = Bytes::from(coords_payload(self.step, self.id, self.cfg.atoms_per_cell, atoms));
        if self.cfg.use_multicast {
            let section: Vec<ElemId> = self.memberships.iter().map(|&(pair_idx, _)| ElemId(pair_idx)).collect();
            ctx.multicast(self.pairs_array, &section, COORDS, coords);
        } else {
            for &(pair_idx, _) in self.memberships.iter() {
                ctx.send(self.pairs_array, ElemId(pair_idx), COORDS, coords.clone());
            }
        }
    }

    /// Add membership `slot`'s force message into the step's tree; the
    /// step's sum once every membership has answered.
    fn add(&mut self, slot: usize, msg: Bytes) -> Option<Bytes> {
        assert!(!self.forces.has(slot), "duplicate forces from pair {}", self.memberships[slot].0);
        let atoms = self.atoms.pos.len();
        self.forces.add(slot, msg, |held, arrived| add_forces(held, arrived, atoms))
    }

    /// Take the step's summed force message: its energy is this cell's
    /// potential, its triples kick the atoms.
    fn integrate(&mut self, sum: &[u8]) {
        self.potential = f64_at(&sum[8..]);
        // Must stay operation-for-operation identical to SeqMd::step.
        let forces = sum[forces_len(0)..].chunks_exact(24).map(|f| [f64_at(f), f64_at(&f[8..]), f64_at(&f[16..])]);
        for ((vel, pos), f) in self.atoms.vel.iter_mut().zip(self.atoms.pos.iter_mut()).zip(forces) {
            vel[0] += f[0] * self.cfg.dt;
            vel[1] += f[1] * self.cfg.dt;
            vel[2] += f[2] * self.cfg.dt;
            pos[0] += vel[0] * self.cfg.dt;
            pos[1] += vel[1] * self.cfg.dt;
            pos[2] += vel[2] * self.cfg.dt;
        }
    }

    fn finish_step(&mut self, ctx: &mut Ctx<'_>) {
        let n = self.atoms.pos.len().max(self.cfg.atoms_per_cell);
        // Per-wire-message software overhead: with section multicast the
        // fan-out is one message per destination PE (bounded by both the
        // section size and the machine size).
        let wire_msgs = if self.cfg.use_multicast {
            (self.memberships.len() as u64).min(ctx.num_pes() as u64)
        } else {
            self.memberships.len() as u64
        };
        ctx.charge(
            Dur::from_nanos((self.cfg.cost.ns_per_atom_integrate * n as f64).round() as u64)
                + self.cfg.cost.msg_overhead * wire_msgs,
        );
        self.step += 1;
        if self.step >= self.cfg.steps {
            self.done = true;
            let mut w = WireWriter::new();
            w.f64(self.atoms.pos_checksum()).f64(self.atoms.kinetic()).f64(self.potential);
            ctx.contribute_gather(w.finish());
        } else if self.cfg.lb_period.is_some_and(|p| self.step.is_multiple_of(p)) {
            ctx.at_sync();
        } else {
            self.multicast_coords(ctx);
        }
    }
}

/// The f64 in the first eight bytes of `b`.
fn f64_at(b: &[u8]) -> f64 {
    f64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// Two sibling subtrees' summed force messages added — the energy and the
/// first `atoms` triples — into one of the two buffers: one no other handle
/// shares.  A held message is unique once its own handler has returned (the
/// message being delivered never is, the engine holds it), so this writes
/// in place and allocates nothing; where both are shared, as messages cut
/// from one aggregated frame can be, one is copied first.  IEEE addition
/// commutes, so the choice cannot change a bit.
fn add_forces(mut a: Bytes, mut b: Bytes, atoms: usize) -> Bytes {
    if a.get_mut().is_none() {
        std::mem::swap(&mut a, &mut b);
    }
    if a.get_mut().is_none() {
        a = Bytes::from(a.to_vec());
    }
    let acc = a.get_mut().expect("a copy shares nothing");
    add_f64s(&mut acc[8..16], &b[8..16]);
    let forces = forces_len(0)..forces_len(0) + 24 * atoms;
    add_f64s(&mut acc[forces.clone()], &b[forces]);
    a
}

/// `acc += add`, f64 by f64.
fn add_f64s(acc: &mut [u8], add: &[u8]) {
    for (acc, add) in acc.chunks_exact_mut(8).zip(add.chunks_exact(8)) {
        acc.copy_from_slice(&(f64_at(acc) + f64_at(add)).to_le_bytes());
    }
}

impl Chare for Cell {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        match entry {
            START => self.multicast_coords(ctx),
            FORCES => {
                let mut r = WireReader::new(payload);
                let step = r.u32().expect("step");
                let pair_idx = r.u32().expect("pair idx");
                assert_eq!(step, self.step, "cell {} cannot receive out-of-step forces", self.id);
                // Checked on receipt, as a pair checks coordinates: a held
                // message is read only when its sibling subtree completes.
                assert_eq!(
                    payload.len(),
                    forces_len(self.cfg.atoms_per_cell),
                    "forces from pair {pair_idx}: wrong length"
                );
                let slot = self
                    .memberships
                    .binary_search_by_key(&pair_idx, |&(pair, _)| pair)
                    .unwrap_or_else(|_| panic!("pair {pair_idx} sent forces to cell {}", self.id));
                // The message itself goes into the tree, not a decoded copy.
                if let Some(sum) = self.add(slot, ctx.payload().clone()) {
                    self.integrate(&sum);
                    self.finish_step(ctx);
                }
            }
            other => panic!("unknown cell entry {other:?}"),
        }
    }

    fn pack(&self, w: &mut WireWriter) {
        assert_eq!(self.forces.held(), 0, "cells migrate only at step boundaries");
        w.u32(self.step).f64(self.potential).bool(self.done);
        w.f64_triples(&self.atoms.pos).f64_triples(&self.atoms.vel).f64_slice(&self.atoms.q);
    }

    fn resume_from_sync(&mut self, ctx: &mut Ctx<'_>) {
        if !self.done {
            self.multicast_coords(ctx);
        }
    }
}

// ---- cell-pair chare ------------------------------------------------------

struct Pair {
    cfg: Arc<MdConfig>,
    pair: CellPair,
    cells_array: ArrayId,
    /// The pending step and its per-slot coordinate messages, held as they
    /// arrived (the buffer the cell wrote, shared with the cell's other 26
    /// pairs) and parsed only by the kernels.  One step is all that can be
    /// pending: a cell sends step s + 1 only after this pair's forces for
    /// step s, which needed both of step s's coordinates.
    buffer: Option<(u32, [Option<Bytes>; 2])>,
    computed: u32,
}

/// Positions and charges out of a buffered coordinate message.
fn parse_coords(msg: &Bytes) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut r = WireReader::new(&msg[COORDS_HEADER_LEN..]);
    (r.f64_triples().expect("positions"), r.f64_vec().expect("charges"))
}

impl Pair {
    fn is_self(&self) -> bool {
        self.pair.a == self.pair.b
    }

    fn compute(&mut self, step: u32, ctx: &mut Ctx<'_>) {
        let (_, slots) = self.buffer.take().expect("complete step");
        let n = self.cfg.atoms_per_cell;
        let is_self = self.is_self();
        let msgs = if is_self { 1 } else { 2 };
        ctx.charge(
            Dur::from_nanos((self.cfg.cost.ns_per_interaction * interaction_count(n, n, is_self) as f64).round() as u64)
                + self.cfg.cost.msg_overhead * msgs,
        );
        let (fa, fb, energy) = if !self.cfg.compute {
            // Nobody reads the coordinates; the forces are zeros of the
            // real size (see coords_payload; temporaries: forces_payload).
            (vec![[0.0; 3]; n], vec![[0.0; 3]; n], 0.0)
        } else if is_self {
            let (pos, q) = parse_coords(slots[0].as_ref().expect("self-pair slot 0"));
            let (f, e) = forces_within(&pos, &q, &self.cfg.params);
            (f, Vec::new(), e)
        } else {
            let (pos_a, q_a) = parse_coords(slots[0].as_ref().expect("slot 0"));
            let (pos_b, q_b) = parse_coords(slots[1].as_ref().expect("slot 1"));
            let shift = [
                self.pair.shift[0] as f64 * self.cfg.cell_width,
                self.pair.shift[1] as f64 * self.cfg.cell_width,
                self.pair.shift[2] as f64 * self.cfg.cell_width,
            ];
            forces_between(&pos_a, &q_a, &pos_b, &q_b, shift, &self.cfg.params)
        };
        self.computed += 1;
        let me = ctx.my_elem().0;
        // Forces (and the pair's energy, counted once) to cell a…
        ctx.send(self.cells_array, ElemId(self.pair.a), FORCES, forces_payload(step, me, energy, &fa));
        // …and to cell b for a distinct pair.
        if !is_self {
            ctx.send(self.cells_array, ElemId(self.pair.b), FORCES, forces_payload(step, me, 0.0, &fb));
        }
        // Pairs participate in the load-balancing barrier after finishing
        // the step preceding it.
        if self.cfg.lb_period.is_some_and(|p| (step + 1).is_multiple_of(p)) && step + 1 < self.cfg.steps {
            ctx.at_sync();
        }
    }
}

impl Chare for Pair {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        assert_eq!(entry, COORDS, "pairs only receive coordinates");
        let mut r = WireReader::new(payload);
        let step = r.u32().expect("step");
        let sender = r.u32().expect("sender cell");
        let slot = if sender == self.pair.a {
            0
        } else if sender == self.pair.b {
            1
        } else {
            panic!("cell {sender} sent coords to pair ({}, {})", self.pair.a, self.pair.b)
        };
        // Checked on receipt, so a short message fails here and not at
        // whichever later message completes the step.
        assert_eq!(payload.len(), coords_len(self.cfg.atoms_per_cell), "coords from cell {sender}: wrong length");
        let is_self = self.is_self();
        let (pending, slots) = self.buffer.get_or_insert((step, [None, None]));
        assert_eq!(*pending, step, "coords for step {step} while step {pending} is pending");
        assert!(slots[slot].is_none(), "duplicate coords for slot {slot} step {step}");
        // Keep the message itself: a reference count, not a parsed copy.
        slots[slot] = Some(ctx.payload().clone());
        if slots[0].is_some() && (is_self || slots[1].is_some()) {
            self.compute(step, ctx);
        }
    }

    fn pack(&self, w: &mut WireWriter) {
        assert!(self.buffer.is_none(), "pairs migrate only when drained");
        w.u32(self.computed);
    }
}

// ---- program assembly ------------------------------------------------------

fn build_program_inner(cfg: MdConfig, shared: Arc<Shared>, restored: bool) -> Program {
    // One configuration, shared by every cell and pair.
    let cfg = Arc::new(cfg);
    let grid = cfg.grid;
    let pairs = Arc::new(grid.pairs());
    /// Shared per-cell membership lists: cell -> [(pair index, slot)].
    type PairsOfCells = Arc<Vec<Arc<Vec<(u32, u8)>>>>;
    let pairs_of: PairsOfCells =
        Arc::new(CellGrid::pairs_of_cells(&pairs, grid.n_cells()).into_iter().map(Arc::new).collect());

    let mut p = Program::new();

    // Cells: ArrayId(0); pairs: ArrayId(1).  Creation order fixes the ids.
    let cells_arr = ArrayId(0);
    let pairs_arr = ArrayId(1);

    let cfg_c = Arc::clone(&cfg);
    let pairs_of_c = Arc::clone(&pairs_of);
    let mk_cell =
        move |elem: ElemId| Cell::new(Arc::clone(&cfg_c), elem.0, Arc::clone(&pairs_of_c[elem.index()]), pairs_arr);
    let mk_cell_f = mk_cell.clone();
    let got = p.array_migratable(
        "md-cells",
        grid.n_cells() as usize,
        cfg.cell_mapping.clone(),
        move |elem| Box::new(mk_cell_f(elem)) as Box<dyn Chare>,
        move |elem, r| {
            let mut cell = mk_cell(elem);
            cell.step = r.u32().expect("step");
            cell.potential = r.f64().expect("potential");
            cell.done = r.bool().expect("done");
            cell.atoms.pos = r.f64_triples().expect("pos");
            cell.atoms.vel = r.f64_triples().expect("vel");
            cell.atoms.q = r.f64_vec().expect("q");
            Box::new(cell) as Box<dyn Chare>
        },
    );
    assert_eq!(got, cells_arr);

    let cfg_p = Arc::clone(&cfg);
    let pairs_f = Arc::clone(&pairs);
    let mk_pair = move |elem: ElemId| Pair {
        cfg: Arc::clone(&cfg_p),
        pair: pairs_f[elem.index()],
        cells_array: cells_arr,
        buffer: None,
        computed: 0,
    };
    let mk_pair_f = mk_pair.clone();
    let got = p.array_migratable(
        "md-pairs",
        pairs.len(),
        cfg.pair_mapping.clone(),
        move |elem| Box::new(mk_pair_f(elem)) as Box<dyn Chare>,
        move |elem, r| {
            let mut pair = mk_pair(elem);
            pair.computed = r.u32().expect("computed");
            Box::new(pair) as Box<dyn Chare>
        },
    );
    assert_eq!(got, pairs_arr);

    if !restored {
        // Restored runs wake their cells through resume_from_sync instead.
        p.on_startup(move |ctl| ctl.broadcast(cells_arr, START, vec![]));
    }
    p.on_reduction(cells_arr, move |_seq, data, ctl| {
        if let ReduceData::Gathered(rows) = data {
            let mut out = shared.rows.lock().expect("rows lock");
            out.clear();
            for (_, bytes) in rows {
                let mut r = WireReader::new(bytes);
                out.push((r.f64().expect("checksum"), r.f64().expect("kinetic"), r.f64().expect("potential")));
            }
        }
        ctl.exit();
    });
    p
}

fn outcome(cfg: &MdConfig, shared: Arc<Shared>, report: RunReport) -> MdOutcome {
    let total = report.end_time - Time::ZERO;
    let rows = shared.rows.lock().expect("rows lock").clone();
    MdOutcome {
        total,
        s_per_step: total.as_secs_f64() / cfg.steps as f64,
        ms_per_step: total.as_millis_f64() / cfg.steps as f64,
        kinetic: rows.iter().map(|r| r.1).sum(),
        potential: rows.iter().map(|r| r.2).sum(),
        checksums: rows.iter().map(|r| r.0).collect(),
        report,
    }
}

/// Run under the simulation engine.
pub fn run_sim(cfg: MdConfig, net: NetworkModel, run_cfg: RunConfig) -> MdOutcome {
    run_sim_full(cfg, net, run_cfg, None, None)
}

/// Full-control simulation run: optionally collect barrier checkpoints
/// into `ckpt_sink` (requires `run_cfg.checkpoint_at_barrier` and
/// `cfg.lb_period`), and/or restore the cells and pairs from `restore`
/// (possibly onto a different PE count — shrink/expand).
pub fn run_sim_full(
    cfg: MdConfig,
    net: NetworkModel,
    run_cfg: RunConfig,
    ckpt_sink: Option<Arc<Mutex<Vec<mdo_core::checkpoint::Snapshot>>>>,
    restore: Option<mdo_core::checkpoint::Snapshot>,
) -> MdOutcome {
    let shared = Arc::new(Shared { rows: Mutex::new(Vec::new()) });
    let mut program = build_program_inner(cfg.clone(), Arc::clone(&shared), restore.is_some());
    if let Some(sink) = ckpt_sink {
        program.on_checkpoint(move |snap, _ctl| {
            sink.lock().expect("ckpt sink").push(snap.clone());
        });
    }
    if let Some(snapshot) = restore {
        program.restore_from(snapshot);
    }
    let report = SimEngine::new(net, run_cfg).run(program);
    outcome(&cfg, shared, report)
}

/// Run under the threaded engine.
pub fn run_threaded(cfg: MdConfig, topo: Topology, latency: LatencyMatrix, run_cfg: RunConfig) -> MdOutcome {
    run_threaded_with(cfg, topo, ThreadedConfig::new(latency), run_cfg)
}

/// Run under the threaded engine with full engine configuration (e.g.
/// sleep-emulated compute for validation on small hosts).
pub fn run_threaded_with(cfg: MdConfig, topo: Topology, tcfg: ThreadedConfig, run_cfg: RunConfig) -> MdOutcome {
    run_threaded_full(cfg, topo, tcfg, run_cfg, None)
}

/// Threaded run with an optional checkpoint to restore from — snapshots
/// are engine-portable, so a job checkpointed under the simulation engine
/// restarts on real threads (and vice versa).
pub fn run_threaded_full(
    cfg: MdConfig,
    topo: Topology,
    tcfg: ThreadedConfig,
    run_cfg: RunConfig,
    restore: Option<mdo_core::checkpoint::Snapshot>,
) -> MdOutcome {
    let shared = Arc::new(Shared { rows: Mutex::new(Vec::new()) });
    let mut program = build_program_inner(cfg.clone(), Arc::clone(&shared), restore.is_some());
    if let Some(snapshot) = restore {
        program.restore_from(snapshot);
    }
    let report = ThreadedEngine::new(topo, tcfg, run_cfg).run(program);
    outcome(&cfg, shared, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_core::program::LbChoice;

    fn reference(cfg: &MdConfig) -> seq::SeqMd {
        let mut md = seq::SeqMd::new(cfg.grid, cfg.atoms_per_cell, cfg.cell_width, cfg.dt, cfg.params, cfg.seed);
        md.run(cfg.steps);
        md
    }

    fn assert_matches_reference(out: &MdOutcome, cfg: &MdConfig) {
        let reference = reference(cfg);
        let expect = reference.checksums();
        assert_eq!(out.checksums.len(), expect.len());
        for (i, (got, want)) in out.checksums.iter().zip(&expect).enumerate() {
            assert_eq!(got, want, "cell {i}: parallel trajectory must be bit-identical");
        }
        assert_eq!(out.kinetic, reference.kinetic(), "kinetic energy matches exactly");
        assert_eq!(out.potential.to_bits(), reference.last_potential.to_bits(), "potential matches exactly");
    }

    #[test]
    fn matches_sequential_reference_small() {
        let cfg = MdConfig::validation(3, 5, 4);
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        let out = run_sim(cfg.clone(), net, RunConfig::default());
        assert_matches_reference(&out, &cfg);
    }

    #[test]
    fn matches_reference_under_heavy_latency() {
        // Latency changes arrival interleavings but not results.
        let cfg = MdConfig::validation(3, 4, 5);
        let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(50));
        let out = run_sim(cfg.clone(), net, RunConfig::default());
        assert_matches_reference(&out, &cfg);
    }

    #[test]
    fn matches_reference_with_grid_priority() {
        let cfg = MdConfig::validation(3, 4, 3);
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(8));
        let run_cfg = RunConfig { grid_prio: true, ..RunConfig::default() };
        let out = run_sim(cfg.clone(), net, run_cfg);
        assert_matches_reference(&out, &cfg);
    }

    #[test]
    fn matches_reference_with_load_balancing() {
        // Migrate cells and pairs mid-run (GridComm strategy): trajectory
        // must be unchanged.
        let mut cfg = MdConfig::validation(3, 4, 6);
        cfg.lb_period = Some(3);
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(3));
        let run_cfg = RunConfig { lb: LbChoice::GridComm, ..RunConfig::default() };
        let out = run_sim(cfg.clone(), net, run_cfg);
        assert!(out.report.lb_rounds >= 1, "a barrier actually ran");
        assert_matches_reference(&out, &cfg);
    }

    #[test]
    fn threaded_engine_matches_reference() {
        let cfg = MdConfig::validation(3, 3, 3);
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(400));
        let out = run_threaded(cfg.clone(), topo, latency, RunConfig::default());
        assert_matches_reference(&out, &cfg);
    }

    #[test]
    fn aggregation_matches_reference_on_both_engines() {
        use mdo_netsim::AggConfig;
        let cfg = MdConfig::validation(3, 3, 3);
        let agg = Some(AggConfig::default());
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        let out = run_sim(cfg.clone(), net, RunConfig { agg, ..RunConfig::default() });
        assert_matches_reference(&out, &cfg);
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(400));
        let thr = run_threaded(cfg.clone(), topo, latency, RunConfig { agg, ..RunConfig::default() });
        assert_matches_reference(&thr, &cfg);
    }

    #[test]
    fn aggregation_with_wan_faults_matches_reference() {
        use mdo_netsim::{AggConfig, FaultPlan};
        let cfg = MdConfig::validation(3, 3, 3);
        let plan = FaultPlan::loss(0.25).with_seed(13).with_rto(Dur::from_millis(5));
        let run_cfg = RunConfig { agg: Some(AggConfig::default()), fault_plan: Some(plan), ..RunConfig::default() };
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        let out = run_sim(cfg.clone(), net, run_cfg);
        assert!(out.report.faults.dropped > 0, "frames were actually lost: {:?}", out.report.faults);
        assert_matches_reference(&out, &cfg);
    }

    #[test]
    fn paper_cost_scale_is_about_8s_per_step_on_one_pe_pair() {
        // 2 PEs (the smallest paper configuration) ≈ 4 s/step at zero
        // latency; 1-PE-equivalent ≈ 8 s/step.
        let cfg = MdConfig::paper(2);
        let net = NetworkModel::two_cluster_sweep(2, Dur::ZERO);
        let out = run_sim(cfg, net, RunConfig::default());
        assert!((3.0..5.5).contains(&out.s_per_step), "2-PE step time near the paper's ~3.9 s, got {}", out.s_per_step);
    }

    #[test]
    fn latency_masked_better_with_many_pes_objects() {
        // On 8 PEs (≥ 378 objects per... rather, 3240 objects / 8 PEs):
        // 16 ms of cross-cluster latency should barely move step time.
        let run = |lat: u64| {
            let cfg = MdConfig::paper(2);
            let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(lat));
            run_sim(cfg, net, RunConfig::default()).s_per_step
        };
        let base = run(0);
        let with_latency = run(16);
        assert!(with_latency < base * 1.10, "16 ms masked by ~400 objects/PE: {base} -> {with_latency}");
    }

    #[test]
    fn section_multicast_is_transparent_and_cheaper() {
        // Same physics, far fewer wire messages.
        let plain_cfg = MdConfig::validation(3, 4, 4);
        let mut multi_cfg = plain_cfg.clone();
        multi_cfg.use_multicast = true;
        let net = || NetworkModel::two_cluster_sweep(4, Dur::from_millis(3));
        let plain = run_sim(plain_cfg.clone(), net(), RunConfig::default());
        let multi = run_sim(multi_cfg, net(), RunConfig::default());
        assert_eq!(plain.checksums, multi.checksums, "multicast cannot change physics");
        assert_eq!(plain.kinetic, multi.kinetic);
        let (p_msgs, m_msgs) = (plain.report.network.total_messages(), multi.report.network.total_messages());
        assert!((m_msgs as f64) < p_msgs as f64 * 0.75, "coordinate fan-out collapses per-PE: {m_msgs} vs {p_msgs}");
        // Bytes drop even more (shared payloads).
        let p_bytes = plain.report.network.intra_bytes + plain.report.network.cross_bytes;
        let m_bytes = multi.report.network.intra_bytes + multi.report.network.cross_bytes;
        assert!((m_bytes as f64) < p_bytes as f64 * 0.75, "{m_bytes} vs {p_bytes}");
    }

    #[test]
    fn multicast_with_migration_still_bit_exact() {
        let mut cfg = MdConfig::validation(3, 3, 6);
        cfg.use_multicast = true;
        cfg.lb_period = Some(3);
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        let run_cfg = RunConfig { lb: LbChoice::GridComm, ..RunConfig::default() };
        let out = run_sim(cfg.clone(), net, run_cfg);
        assert!(out.report.lb_rounds >= 1);
        assert_matches_reference(&out, &cfg);
    }

    #[test]
    fn checkpoint_restart_continues_bit_exact() {
        // Full run: 6 steps straight through.
        let mut cfg = MdConfig::validation(3, 4, 6);
        cfg.lb_period = Some(3);
        let net = || NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        let full = run_sim(cfg.clone(), net(), RunConfig::default());

        // Checkpointed run: same 6 steps, snapshot taken at the step-3
        // barrier while the run continues.
        let sink = Arc::new(Mutex::new(Vec::new()));
        let run_cfg = RunConfig { checkpoint_at_barrier: true, ..RunConfig::default() };
        let ckpt_out = run_sim_full(cfg.clone(), net(), run_cfg, Some(Arc::clone(&sink)), None);
        assert_eq!(ckpt_out.checksums, full.checksums, "checkpointing is transparent");
        let snaps = sink.lock().expect("sink");
        assert_eq!(snaps.len(), 1, "one barrier, one snapshot");
        let snapshot = snaps[0].clone();
        assert_eq!(snapshot.total_elems(), 27 + 27 * 14);

        // Restart from the snapshot on a DIFFERENT PE count (shrink 4->2)
        // and run the remaining steps: final state must match bit-for-bit.
        let restored = run_sim_full(
            cfg.clone(),
            NetworkModel::two_cluster_sweep(2, Dur::from_millis(5)),
            RunConfig::default(),
            None,
            Some(snapshot.clone()),
        );
        assert_eq!(restored.checksums, full.checksums, "shrink-restart is bit-exact");
        assert_eq!(restored.kinetic, full.kinetic);

        // And expand 4->8.
        let expanded = run_sim_full(
            cfg,
            NetworkModel::two_cluster_sweep(8, Dur::from_millis(1)),
            RunConfig::default(),
            None,
            Some(snapshot),
        );
        assert_eq!(expanded.checksums, full.checksums, "expand-restart is bit-exact");
    }

    #[test]
    fn snapshot_survives_serialization() {
        let mut cfg = MdConfig::validation(3, 3, 4);
        cfg.lb_period = Some(2);
        let sink = Arc::new(Mutex::new(Vec::new()));
        let run_cfg = RunConfig { checkpoint_at_barrier: true, ..RunConfig::default() };
        let full = run_sim_full(
            cfg.clone(),
            NetworkModel::two_cluster_sweep(4, Dur::from_millis(1)),
            run_cfg,
            Some(Arc::clone(&sink)),
            None,
        );
        let snapshot = sink.lock().expect("sink")[0].clone();
        // Through bytes (as a file would round-trip it).
        let snapshot = mdo_core::checkpoint::Snapshot::decode(&snapshot.encode()).expect("decode");
        let restored = run_sim_full(
            cfg,
            NetworkModel::two_cluster_sweep(2, Dur::from_millis(1)),
            RunConfig::default(),
            None,
            Some(snapshot),
        );
        assert_eq!(restored.checksums, full.checksums);
    }

    /// The payload writers as they were before they wrote at their final
    /// size (growable writer, flattened copies, zero-filled temporaries),
    /// kept here only as the reference the bytes are compared against.
    fn old_coords_payload(step: u32, cell: u32, n: usize, atoms: Option<&CellAtoms>) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u32(step).u32(cell);
        match atoms {
            Some(atoms) => {
                let flat: Vec<f64> = atoms.pos.iter().flat_map(|p| p.iter().copied()).collect();
                w.f64_slice(&flat).f64_slice(&atoms.q);
            }
            None => {
                w.f64_slice(&vec![0.0; 3 * n]).f64_slice(&vec![0.0; n]);
            }
        }
        w.finish()
    }

    fn old_forces_payload(step: u32, pair: u32, energy: f64, forces: &[[f64; 3]]) -> Vec<u8> {
        let mut w = WireWriter::new();
        let flat: Vec<f64> = forces.iter().flat_map(|f| f.iter().copied()).collect();
        w.u32(step).u32(pair).f64(energy).f64_slice(&flat);
        w.finish()
    }

    #[test]
    fn payloads_are_the_old_bytes_in_one_exact_allocation() {
        let n = 140;
        let atoms = CellAtoms::init(CellGrid::paper(), 17, n, 1.0, 42);
        for atoms in [Some(&atoms), None] {
            let coords = coords_payload(3, 17, n, atoms);
            assert_eq!(coords, old_coords_payload(3, 17, n, atoms));
            assert_eq!((coords.len(), coords.capacity()), (coords_len(n), coords_len(n)));
        }
        for forces in [&atoms.vel, &vec![[0.0; 3]; n]] {
            let msg = forces_payload(3, 99, -1.25, forces);
            assert_eq!(msg, old_forces_payload(3, 99, -1.25, forces));
            assert_eq!((msg.len(), msg.capacity()), (forces_len(n), forces_len(n)));
        }
        // What a pair reads back out of the message it kept.
        let msg = Bytes::from(coords_payload(3, 17, n, Some(&atoms)));
        assert_eq!(parse_coords(&msg), (atoms.pos.clone(), atoms.q.clone()));
    }

    /// One coordinate message to a pair that needs two, so the pair only
    /// buffers it: whole, the run drains quietly; eight bytes short, the
    /// pair refuses it on receipt (a handler panic ends a run without a
    /// failure plan in `NoFailurePlan`).  In cost-model mode nothing parses
    /// the body later, so the length check is the only guard there is.
    #[test]
    fn truncated_coords_panic_the_pair_on_receipt() {
        use mdo_netsim::{Pe, UnrecoverableError};
        let run = |cut: usize| {
            let cfg = Arc::new(MdConfig::paper(1));
            let pairs = cfg.grid.pairs();
            let (idx, pair) = pairs.iter().enumerate().find(|(_, p)| p.a != p.b).expect("a distinct pair");
            let (idx, pair, n) = (ElemId(idx as u32), *pair, cfg.atoms_per_cell);
            let mut p = Program::new();
            let arr = p.array("md-pairs", pairs.len(), Mapping::Block, move |elem| {
                let pair = pairs[elem.index()];
                let cfg = Arc::clone(&cfg);
                Box::new(Pair { cfg, pair, cells_array: ArrayId(9), buffer: None, computed: 0 }) as Box<dyn Chare>
            });
            p.on_startup(move |ctl| {
                let mut coords = coords_payload(0, pair.a, n, None);
                coords.truncate(coords_len(n) - cut);
                ctl.send(arr, idx, COORDS, coords);
            });
            SimEngine::new(NetworkModel::two_cluster_sweep(2, Dur::ZERO), RunConfig::default()).run(p).unrecoverable
        };
        assert_eq!(run(0), None);
        assert_eq!(run(8), Some(UnrecoverableError::NoFailurePlan { pe: Pe(0) }));
    }

    /// What a [`Probe`] saw of its cell.
    #[derive(Default)]
    struct FoldLog {
        /// At each step end: the messages held, the atoms.
        ends: Vec<(usize, CellAtoms)>,
        /// The most messages held at any one time.
        peak_held: usize,
    }

    /// A real cell, watched between messages.
    struct Probe(Cell, Arc<Mutex<FoldLog>>);

    impl Chare for Probe {
        fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
            let step = self.0.step;
            self.0.receive(entry, payload, ctx);
            let mut log = self.1.lock().expect("fold log");
            log.peak_held = log.peak_held.max(self.0.forces.held());
            if self.0.step != step {
                log.ends.push((self.0.forces.held(), self.0.atoms.clone()));
            }
        }
    }

    /// Pairs that take the cell's coordinates and do nothing.
    struct Sink;

    impl Chare for Sink {
        fn receive(&mut self, _: EntryId, _: &[u8], _: &mut Ctx<'_>) {}
    }

    /// Cell 0 of `cfg`'s grid alone, fed `msgs` from the host in the order
    /// given; its pairs are sinks.  The run's report, the cell's gathered
    /// row if it finished, and what the probe saw.
    fn inject_forces(cfg: &MdConfig, msgs: Vec<Vec<u8>>) -> (RunReport, Option<CellRow>, FoldLog) {
        let cfg = Arc::new(cfg.clone());
        let pairs = cfg.grid.pairs();
        let memberships = Arc::new(CellGrid::pairs_of_cells(&pairs, cfg.grid.n_cells()).swap_remove(0));
        let log = Arc::new(Mutex::new(FoldLog::default()));
        let row = Arc::new(Mutex::new(None));
        let mut p = Program::new();
        let probe_log = Arc::clone(&log);
        let cells = p.array("md-cells", 1, Mapping::Block, move |elem| {
            let cell = Cell::new(Arc::clone(&cfg), elem.0, Arc::clone(&memberships), ArrayId(1));
            Box::new(Probe(cell, Arc::clone(&probe_log))) as Box<dyn Chare>
        });
        p.array("md-pairs", pairs.len(), Mapping::Block, |_| Box::new(Sink) as Box<dyn Chare>);
        p.on_startup(move |ctl| {
            for msg in msgs {
                ctl.send(cells, ElemId(0), FORCES, msg);
            }
        });
        let row_out = Arc::clone(&row);
        p.on_reduction(cells, move |_seq, data, ctl| {
            if let ReduceData::Gathered(rows) = data {
                let mut r = WireReader::new(&rows[0].1);
                let got = (r.f64().expect("checksum"), r.f64().expect("kinetic"), r.f64().expect("potential"));
                *row_out.lock().expect("row") = Some(got);
            }
            ctl.exit();
        });
        let report = SimEngine::new(NetworkModel::two_cluster_sweep(2, Dur::ZERO), RunConfig::default()).run(p);
        let row = row.lock().expect("row").take();
        (report, row, Arc::into_inner(log).expect("run over").into_inner().expect("fold log"))
    }

    /// Cell 0's force messages for every step of `cfg`, each step's in
    /// membership order, computed by the kernels from the sequential
    /// reference's positions — and the reference's cell 0 after each step.
    fn cell0_forces(cfg: &MdConfig) -> (Vec<Vec<Vec<u8>>>, Vec<CellAtoms>) {
        let mut md = seq::SeqMd::new(cfg.grid, cfg.atoms_per_cell, cfg.cell_width, cfg.dt, cfg.params, cfg.seed);
        let (mut msgs, mut after) = (Vec::new(), Vec::new());
        for step in 0..cfg.steps {
            let step_msgs = md.pairs_of[0].iter().map(|&(pair_idx, slot)| {
                let p = md.pairs[pair_idx as usize];
                let (a, b) = (&md.cells[p.a as usize], &md.cells[p.b as usize]);
                let (f, e) = if p.a == p.b {
                    forces_within(&a.pos, &a.q, &cfg.params)
                } else {
                    let shift = p.shift.map(|s| s as f64 * cfg.cell_width);
                    let (fa, fb, e) = forces_between(&a.pos, &a.q, &b.pos, &b.q, shift, &cfg.params);
                    // A pair's energy goes to its cell a only.
                    if slot == 0 {
                        (fa, e)
                    } else {
                        (fb, 0.0)
                    }
                };
                forces_payload(step, pair_idx, e, &f)
            });
            msgs.push(step_msgs.collect());
            md.step();
            after.push(md.cells[0].clone());
        }
        (msgs, after)
    }

    fn atom_bits(atoms: &CellAtoms) -> Vec<u64> {
        atoms.pos.iter().chain(&atoms.vel).flatten().map(|x| x.to_bits()).collect()
    }

    /// The pairwise tree sum of `v` written top down, the obvious way: the
    /// reference the incremental [`TreeSum`] is checked against.
    fn tree_reference(v: &[f64]) -> f64 {
        fn node(v: &[f64], first: usize, level: u32) -> f64 {
            if level == 0 {
                return v[first];
            }
            let second = first + (1 << (level - 1));
            let sum = node(v, first, level - 1);
            if second < v.len() {
                sum + node(v, second, level - 1)
            } else {
                sum
            }
        }
        node(v, 0, v.len().next_power_of_two().trailing_zeros())
    }

    /// `k` memberships arriving in order, reversed, evens then odds, and in
    /// `shuffles` seeded shuffles.
    fn arrival_orders(k: usize, shuffles: u64) -> Vec<(String, Vec<usize>)> {
        let in_order: Vec<usize> = (0..k).collect();
        let mut orders = vec![
            ("in order".to_string(), in_order.clone()),
            ("reversed".to_string(), in_order.iter().rev().copied().collect()),
            ("evens then odds".to_string(), (0..k).step_by(2).chain((1..k).step_by(2)).collect()),
        ];
        for seed in 1..=shuffles {
            let mut order = in_order.clone();
            mdo_netsim::Xoshiro256::new(seed).shuffle(&mut order);
            orders.push((format!("shuffle {seed}"), order));
        }
        orders
    }

    /// For 1 to 64 memberships, a cell's tree sums its force messages — the
    /// energy and every force component — to the bits of the top-down
    /// reference whatever order they arrive in, over values that include
    /// −0.0, subnormals and magnitudes 2^120 apart.  Never more than ⌈k/2⌉
    /// subtrees wait, nothing is held once the sum is out, and each add is
    /// written into a buffer of the messages added; with every message
    /// shared elsewhere, an add copies instead and no message is written.
    #[test]
    fn a_cells_tree_sums_its_forces_to_the_reference_bits_in_any_arrival_order() {
        let n = 2;
        let cfg = Arc::new(MdConfig::validation(3, n, 1));
        let mut rng = mdo_netsim::Xoshiro256::new(2605);
        let mut value = || {
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            match rng.next_below(4) {
                0 => -0.0,
                1 => sign * f64::from_bits(rng.next_below(1 << 52)),
                _ => sign * rng.next_f64() * 2f64.powi(rng.next_below(121) as i32 - 60),
            }
        };
        for k in 1..=64 {
            // Leaf by leaf: the energy, then 3n force components.
            let values: Vec<Vec<f64>> = (0..k).map(|_| (0..1 + 3 * n).map(|_| value()).collect()).collect();
            let msgs: Vec<Vec<u8>> = (0..k)
                .map(|leaf| {
                    let triples: Vec<[f64; 3]> = values[leaf][1..].chunks(3).map(|t| [t[0], t[1], t[2]]).collect();
                    forces_payload(0, leaf as u32, values[leaf][0], &triples)
                })
                .collect();
            let want: Vec<u64> = (0..1 + 3 * n)
                .map(|i| tree_reference(&values.iter().map(|v| v[i]).collect::<Vec<_>>()).to_bits())
                .collect();
            let memberships = Arc::new((0..k as u32).map(|pair| (pair, 0)).collect());
            for (name, order) in arrival_orders(k, 4) {
                for shared in [false, true] {
                    let mut cell = Cell::new(Arc::clone(&cfg), 0, Arc::clone(&memberships), ArrayId(1));
                    let (mut sum, mut peak, mut buffers, mut kept) = (None, 0, Vec::new(), Vec::new());
                    for &leaf in &order {
                        assert!(sum.is_none(), "k {k} {name}: the sum came out early");
                        let msg = Bytes::from(msgs[leaf].clone());
                        buffers.push(msg.as_ptr());
                        if shared {
                            kept.push((leaf, msg.clone()));
                        }
                        sum = cell.add(leaf, msg);
                        peak = peak.max(cell.forces.held());
                    }
                    let sum = sum.unwrap_or_else(|| panic!("k {k} {name}: no sum"));
                    let got: Vec<u64> = std::iter::once(&sum[8..])
                        .chain(sum[forces_len(0)..].chunks_exact(8))
                        .map(|b| f64_at(b).to_bits())
                        .collect();
                    assert_eq!(got, want, "k {k} {name} (shared {shared}): bits");
                    assert_eq!(cell.forces.held(), 0, "k {k} {name}: held after the sum");
                    assert!(peak <= k.div_ceil(2), "k {k} {name}: {peak} held");
                    if shared {
                        assert!(
                            kept.iter().all(|(leaf, m)| *m == msgs[*leaf]),
                            "k {k} {name}: a shared message written"
                        );
                    } else {
                        assert!(buffers.contains(&sum.as_ptr()), "k {k} {name}: the sum is in a buffer of its own");
                    }
                    match (k, name.as_str()) {
                        (27, "in order") => assert!(peak <= 4, "in order, {peak} held"),
                        (27, "reversed") => assert!(peak <= 5, "reversed, {peak} held"),
                        _ => {}
                    }
                }
            }
        }
    }

    /// The cell sums its force messages by its tree whatever order they
    /// arrive in: in order, reversed, evens then odds, and three shuffles
    /// give the same bits — the sequential reference's positions and
    /// velocities at every step, and the tree's potential — and nothing is
    /// left held when a step ends.
    #[test]
    fn a_cell_sums_its_forces_to_the_same_bits_in_any_arrival_order() {
        // 27 atoms a cell: dense enough that an atom has three or more pairs
        // with forces inside the cutoff, so a sum in arrival order would
        // round differently (at 4 or 8 atoms only the potential would show).
        let cfg = MdConfig::validation(3, 27, 3);
        let (msgs, reference) = cell0_forces(&cfg);
        let members = msgs[0].len();
        let energies: Vec<f64> = msgs[msgs.len() - 1].iter().map(|m| f64_at(&m[8..])).collect();
        let potential = tree_reference(&energies);
        for (name, order) in arrival_orders(members, 3) {
            let sent = msgs.iter().flat_map(|step_msgs| order.iter().map(|&i| step_msgs[i].clone())).collect();
            let (report, row, log) = inject_forces(&cfg, sent);
            assert_eq!(report.unrecoverable, None, "{name}");
            let (checksum, kinetic, pot) = row.expect("the cell finished");
            let last = &reference[reference.len() - 1];
            assert_eq!(checksum.to_bits(), last.pos_checksum().to_bits(), "{name}: positions");
            assert_eq!(kinetic.to_bits(), last.kinetic().to_bits(), "{name}: kinetic");
            assert_eq!(pot.to_bits(), potential.to_bits(), "{name}: potential, summed by the tree");
            assert_eq!(log.ends.len(), reference.len(), "{name}: one end per step");
            for (step, ((held, atoms), want)) in log.ends.iter().zip(&reference).enumerate() {
                assert_eq!(*held, 0, "{name}: step {step} ended with messages held");
                assert_eq!(atom_bits(atoms), atom_bits(want), "{name}: step {step} atoms");
            }
            let bound = match name.as_str() {
                "in order" => 4,
                "reversed" => 5,
                _ => members.div_ceil(2),
            };
            assert!(log.peak_held <= bound, "{name}: {} held, more than {bound}", log.peak_held);
        }
    }

    /// A duplicate force message, whether its first copy is held as it came
    /// or already added into a subtree's sum, and one eight bytes short,
    /// whether it would be held or added, each panic the cell on receipt
    /// (`NoFailurePlan`).  In cost-model mode, where nothing reads the body,
    /// the length check is the only guard there is.
    #[test]
    fn a_duplicate_or_short_force_message_panics_the_cell_on_receipt() {
        use mdo_netsim::{Pe, UnrecoverableError};
        let cfg = MdConfig::paper(1);
        let pairs = cfg.grid.pairs();
        let members = CellGrid::pairs_of_cells(&pairs, cfg.grid.n_cells()).swap_remove(0);
        let msg = |slot: usize| forces_payload(0, members[slot].0, 0.0, &vec![[0.0; 3]; cfg.atoms_per_cell]);
        let short = |slot: usize| {
            let mut m = msg(slot);
            m.truncate(m.len() - 8);
            m
        };
        let panicked = Some(UnrecoverableError::NoFailurePlan { pe: Pe(0) });
        let run = |msgs: Vec<Vec<u8>>| inject_forces(&cfg, msgs).0.unrecoverable;
        assert_eq!(run(vec![msg(0), msg(1), msg(5)]), None, "whole and distinct, the run drains quietly");
        assert_eq!(run(vec![msg(5), msg(5)]), panicked, "a duplicate of a held message");
        assert_eq!(run(vec![msg(0), msg(1), msg(0)]), panicked, "a duplicate of a message already added");
        assert_eq!(run(vec![short(5)]), panicked, "a short message that would be held");
        assert_eq!(run(vec![msg(1), short(0)]), panicked, "a short message that would be added");
    }

    #[test]
    fn outcome_units() {
        let cfg = MdConfig::validation(3, 2, 2);
        let net = NetworkModel::two_cluster_sweep(2, Dur::ZERO);
        let out = run_sim(cfg, net, RunConfig::default());
        assert!((out.s_per_step * 1000.0 - out.ms_per_step).abs() < 1e-9);
        assert!(out.total > Dur::ZERO);
    }
}
