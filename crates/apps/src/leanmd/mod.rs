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

use std::collections::BTreeMap;
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
use seq::CellAtoms;

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
    cfg: MdConfig,
    id: u32,
    atoms: CellAtoms,
    /// (pair index, slot) memberships in pair order.
    memberships: Arc<Vec<(u32, u8)>>,
    pairs_array: ArrayId,
    step: u32,
    /// Forces received for the current step, by pair index.
    got: BTreeMap<u32, Vec<[f64; 3]>>,
    energy_acc: f64,
    done: bool,
}

impl Cell {
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

    fn integrate(&mut self) {
        let n = self.atoms.pos.len();
        if self.cfg.compute {
            let mut force = vec![[0.0f64; 3]; n];
            for &(pair_idx, _) in self.memberships.iter() {
                let f = self.got.get(&pair_idx).expect("force for every membership");
                for (acc, add) in force.iter_mut().zip(f.iter()) {
                    acc[0] += add[0];
                    acc[1] += add[1];
                    acc[2] += add[2];
                }
            }
            // Must stay operation-for-operation identical to SeqMd::step.
            for ((vel, pos), f) in self.atoms.vel.iter_mut().zip(self.atoms.pos.iter_mut()).zip(&force) {
                vel[0] += f[0] * self.cfg.dt;
                vel[1] += f[1] * self.cfg.dt;
                vel[2] += f[2] * self.cfg.dt;
                pos[0] += vel[0] * self.cfg.dt;
                pos[1] += vel[1] * self.cfg.dt;
                pos[2] += vel[2] * self.cfg.dt;
            }
        }
        self.got.clear();
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
        self.integrate();
        self.step += 1;
        if self.step >= self.cfg.steps {
            self.done = true;
            let mut w = WireWriter::new();
            w.f64(self.atoms.pos_checksum()).f64(self.atoms.kinetic()).f64(self.energy_acc);
            ctx.contribute_gather(w.finish());
        } else if self.cfg.lb_period.is_some_and(|p| self.step.is_multiple_of(p)) {
            ctx.at_sync();
        } else {
            self.energy_acc = 0.0;
            self.multicast_coords(ctx);
        }
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
                let energy = r.f64().expect("energy");
                assert_eq!(step, self.step, "cell {} cannot receive out-of-step forces", self.id);
                self.energy_acc += energy;
                let prev = self.got.insert(pair_idx, r.f64_triples().expect("forces"));
                assert!(prev.is_none(), "duplicate forces from pair {pair_idx}");
                if self.got.len() == self.memberships.len() {
                    self.finish_step(ctx);
                }
            }
            other => panic!("unknown cell entry {other:?}"),
        }
    }

    fn pack(&self, w: &mut WireWriter) {
        assert!(self.got.is_empty(), "cells migrate only at step boundaries");
        w.u32(self.step).f64(self.energy_acc).bool(self.done);
        w.f64_triples(&self.atoms.pos).f64_triples(&self.atoms.vel).f64_slice(&self.atoms.q);
    }

    fn resume_from_sync(&mut self, ctx: &mut Ctx<'_>) {
        if !self.done {
            self.energy_acc = 0.0;
            self.multicast_coords(ctx);
        }
    }
}

// ---- cell-pair chare ------------------------------------------------------

struct Pair {
    cfg: MdConfig,
    pair: CellPair,
    cells_array: ArrayId,
    /// step → per-slot coordinate message, held as it arrived (the buffer
    /// the cell wrote, shared with the cell's other 26 pairs) and parsed
    /// only by the kernels.
    buffer: BTreeMap<u32, [Option<Bytes>; 2]>,
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
        let slots = self.buffer.remove(&step).expect("complete step");
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
            assert!(self.buffer.is_empty(), "pair buffer must drain before a barrier");
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
        let entry_slots = self.buffer.entry(step).or_default();
        assert!(entry_slots[slot].is_none(), "duplicate coords for slot {slot} step {step}");
        // Keep the message itself: a reference count, not a parsed copy.
        entry_slots[slot] = Some(ctx.payload().clone());
        let complete =
            if is_self { entry_slots[0].is_some() } else { entry_slots[0].is_some() && entry_slots[1].is_some() };
        if complete {
            self.compute(step, ctx);
        }
    }

    fn pack(&self, w: &mut WireWriter) {
        assert!(self.buffer.is_empty(), "pairs migrate only when drained");
        w.u32(self.computed);
    }
}

// ---- program assembly ------------------------------------------------------

fn build_program_inner(cfg: MdConfig, shared: Arc<Shared>, restored: bool) -> Program {
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

    let cfg_c = cfg.clone();
    let pairs_of_c = Arc::clone(&pairs_of);
    let mk_cell = move |elem: ElemId| -> Cell {
        let atoms = if cfg_c.compute {
            CellAtoms::init(cfg_c.grid, elem.0, cfg_c.atoms_per_cell, cfg_c.cell_width, cfg_c.seed)
        } else {
            CellAtoms::default()
        };
        Cell {
            cfg: cfg_c.clone(),
            id: elem.0,
            atoms,
            memberships: Arc::clone(&pairs_of_c[elem.index()]),
            pairs_array: pairs_arr,
            step: 0,
            got: BTreeMap::new(),
            energy_acc: 0.0,
            done: false,
        }
    };
    let mk_cell_f = mk_cell.clone();
    let got = p.array_migratable(
        "md-cells",
        grid.n_cells() as usize,
        cfg.cell_mapping.clone(),
        move |elem| Box::new(mk_cell_f(elem)) as Box<dyn Chare>,
        move |elem, r| {
            let mut cell = mk_cell(elem);
            cell.step = r.u32().expect("step");
            cell.energy_acc = r.f64().expect("energy");
            cell.done = r.bool().expect("done");
            cell.atoms.pos = r.f64_triples().expect("pos");
            cell.atoms.vel = r.f64_triples().expect("vel");
            cell.atoms.q = r.f64_vec().expect("q");
            Box::new(cell) as Box<dyn Chare>
        },
    );
    assert_eq!(got, cells_arr);

    let cfg_p = cfg.clone();
    let pairs_f = Arc::clone(&pairs);
    let mk_pair = move |elem: ElemId| Pair {
        cfg: cfg_p.clone(),
        pair: pairs_f[elem.index()],
        cells_array: cells_arr,
        buffer: BTreeMap::new(),
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
        // Potential is summed per-cell in parallel but per-pair in the
        // reference: same terms, different grouping, so only ulp-level
        // rounding may differ.
        let scale = reference.last_potential.abs().max(1e-12);
        assert!(
            ((out.potential - reference.last_potential) / scale).abs() < 1e-12,
            "potential matches to rounding: {} vs {}",
            out.potential,
            reference.last_potential
        );
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
            let cfg = MdConfig::paper(1);
            let pairs = cfg.grid.pairs();
            let (idx, pair) = pairs.iter().enumerate().find(|(_, p)| p.a != p.b).expect("a distinct pair");
            let (idx, pair, n) = (ElemId(idx as u32), *pair, cfg.atoms_per_cell);
            let mut p = Program::new();
            let arr = p.array("md-pairs", pairs.len(), Mapping::Block, move |elem| {
                let pair = pairs[elem.index()];
                Box::new(Pair { cfg: cfg.clone(), pair, cells_array: ArrayId(9), buffer: BTreeMap::new(), computed: 0 })
                    as Box<dyn Chare>
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

    #[test]
    fn outcome_units() {
        let cfg = MdConfig::validation(3, 2, 2);
        let net = NetworkModel::two_cluster_sweep(2, Dur::ZERO);
        let out = run_sim(cfg, net, RunConfig::default());
        assert!((out.s_per_step * 1000.0 - out.ms_per_step).abs() < 1e-9);
        assert!(out.total > Dur::ZERO);
    }
}
