//! One halo exchange: the step protocol of every halo application.
//!
//! The stencil, its ghost-zone variant, Jacobi3D and the irregular mesh
//! share one task graph — send each neighbour a halo, wait for one from
//! each, apply them and compute — and [`HaloChare`] runs it once, over what
//! an application supplies as a [`Halo`]: its neighbours, the halo it sends
//! each one and the length it expects back, its kernel and cost, and its
//! block sum.
//!
//! * A `START` broadcast makes every block send its step-0 halos.
//! * A halo is `[slot u8][step u32]`, the receiver's slot for the sender,
//!   then a count-prefixed `f64` array (zeros in cost-model mode, so the
//!   bandwidth model sees the computing run's sizes).
//! * The receiver checks it on receipt, in both modes: a slot with a
//!   neighbour, the exact length, the current step or the next, no slot
//!   twice.  It keeps the message itself, the `Bytes` it was delivered (a
//!   reference count, not a parsed copy), until the step that applies it
//!   reads the values in place.  In cost-model mode that step reads no
//!   value, so it keeps only the fact of arrival: an empty `Bytes`.
//! * A block steps as soon as its own halos are all here, so blocks whose
//!   neighbours are local run ahead while cross-cluster halos are in
//!   flight — one step at most: a halo for the next step waits in `ahead`.
//!   That pipelining is what masks the wide-area latency.
//! * The last step contributes the block's sum to one gather, which
//!   [`run`] collects into a [`StencilOutcome`].
//!
//! An app with an `lb_period` pauses at an AtSync barrier before sending
//! that step's halos, so nothing is in flight there and its blocks can
//! migrate and be checkpointed (the stencil's `pack`/`unpack`).

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use mdo_core::chare::{Chare, Ctx};
use mdo_core::envelope::ReduceData;
use mdo_core::ids::{ElemId, EntryId};
use mdo_core::prelude::{WireReader, WireWriter};
use mdo_core::program::{Program, RunReport};
use mdo_core::wire::f64_array_len;
use mdo_core::Mapping;
use mdo_netsim::{Dur, Time};

/// Entry: begin stepping (broadcast at startup).
const START: EntryId = EntryId(1);
/// Entry: a neighbour's halo (payload: slot u8, step u32, values).
const HALO: EntryId = EntryId(2);
/// Bytes of a halo message before its values: the slot and the step.
const HEADER: usize = 1 + 4;

/// What a halo run produced.
#[derive(Debug)]
pub struct StencilOutcome {
    /// End-to-end time of the run.
    pub total: Dur,
    /// Mean time per step (total / steps) in milliseconds.
    pub ms_per_step: f64,
    /// Per-block sums of the final field, in element order, present when
    /// `compute` was on (zeros otherwise).
    pub block_sums: Vec<f64>,
    /// The engine's run report.
    pub report: RunReport,
}

/// One block of a halo application: its geometry, kernel and cost.  The
/// halo it sends and the ones it applies are read and written only in
/// compute mode.
pub(crate) trait Halo: Send + 'static {
    /// The chare array's name.
    const ARRAY: &'static str;
    /// One step's halos, a `Bytes` per slot — one slot per neighbour
    /// direction (per neighbour, on the irregular mesh), at most 64 — in an
    /// array, or a boxed slice where the count is known only at run time.
    /// Halos go out in slot order.
    type Slots: AsRef<[Bytes]> + AsMut<[Bytes]> + Send;
    /// Empty slots.
    fn slots(&self) -> Self::Slots;
    /// The neighbour in `slot`, if any, and the slot my halo fills there.
    fn neighbor(&self, slot: usize) -> Option<(ElemId, u8)>;
    /// Values of the halo exchanged with the neighbour in `slot`, either way.
    fn halo_len(&self, slot: usize) -> usize;
    /// The halo I send the neighbour in `slot`.
    fn halo(&self, slot: usize) -> impl Iterator<Item = f64> + '_;
    /// Install the halo that came from `slot`.
    fn fill(&mut self, slot: usize, values: impl Iterator<Item = f64>);
    /// Compute a round from global step `step`, `msgs` halos received: its
    /// virtual cost and the steps it advanced.
    fn compute(&mut self, step: u32, msgs: usize) -> (Dur, u32);
    /// Sum of my cells.
    fn block_sum(&self) -> f64;
    /// Steps to run.
    fn steps(&self) -> u32;
    /// Run the real kernel, or only charge its virtual cost.
    fn computes(&self) -> bool;
    /// Pause at an AtSync barrier every this many steps.
    fn lb_period(&self) -> Option<u32> {
        None
    }
    /// My state after the protocol's, for migration and checkpoints.
    fn pack(&self, _w: &mut WireWriter) {
        unreachable!("only a migratable halo array packs")
    }
    /// Inverse of [`Halo::pack`], into a freshly made block.
    fn unpack(&mut self, _r: &mut WireReader<'_>) {}
}

/// One step's halos, kept in `S`: each the message as delivered in compute
/// mode, else an empty `Bytes`.  Arrival is recorded apart from the
/// message, because in cost-model mode every kept message is the same
/// empty buffer.
struct Slots<S> {
    msgs: S,
    arrived: u64,
}

impl<S: AsRef<[Bytes]> + AsMut<[Bytes]>> Slots<S> {
    fn new(msgs: S) -> Self {
        assert!(msgs.as_ref().len() <= 64, "a block's arrivals are one u64");
        Slots { msgs, arrived: 0 }
    }

    /// Keep `msg` in `slot`; false (and nothing kept) if the slot is full.
    fn put(&mut self, slot: usize, msg: Bytes) -> bool {
        let bit = 1u64 << slot;
        if self.arrived & bit != 0 {
            return false;
        }
        self.arrived |= bit;
        self.msgs.as_mut()[slot] = msg;
        true
    }

    /// Slots filled.
    fn len(&self) -> usize {
        self.arrived.count_ones() as usize
    }

    /// Empty every slot, handing each kept message to `apply` in slot order.
    fn drain(&mut self, mut apply: impl FnMut(usize, Bytes)) {
        let msgs = self.msgs.as_mut();
        for slot in (0..msgs.len()).filter(|&slot| self.arrived & (1 << slot) != 0) {
            apply(slot, std::mem::take(&mut msgs[slot]));
        }
        self.arrived = 0;
    }
}

/// One halo message: the receiver's slot, the step, and `n` values (zeros
/// when `values` is `None`), in one allocation of its exact size.
fn payload(slot: u8, step: u32, n: usize, values: Option<impl Iterator<Item = f64>>) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(HEADER + f64_array_len(n));
    w.u8(slot).u32(step);
    match values {
        Some(values) => {
            w.u32(n as u32);
            values.for_each(|v| {
                w.f64(v);
            });
        }
        None => {
            w.f64_zeros(n);
        }
    }
    w.finish()
}

/// The step protocol around one block of app `A`.
struct HaloChare<A: Halo> {
    app: A,
    /// Halos received for the current step.
    got: Slots<A::Slots>,
    /// Halos that arrived one step early.
    ahead: Slots<A::Slots>,
    /// Neighbours: the halos a step waits for.
    neighbors: usize,
    /// The step my halos are tagged with: rounds completed.
    round: u32,
    /// Global steps completed (`layers` a round for the ghost variant).
    step: u32,
    /// Set by START; halos may arrive first (the startup broadcast races
    /// neighbours' halos), but a block must not begin stepping — and thus
    /// re-tag its outgoing halos — before it has sent its step-0 halos.
    started: bool,
    /// Paused at an AtSync barrier (resume_from_sync clears it).
    in_sync: bool,
    done: bool,
}

impl<A: Halo> HaloChare<A> {
    fn new(app: A) -> Self {
        let (got, ahead) = (Slots::new(app.slots()), Slots::new(app.slots()));
        HaloChare {
            neighbors: (0..got.msgs.as_ref().len()).filter(|&s| app.neighbor(s).is_some()).count(),
            got,
            ahead,
            app,
            round: 0,
            step: 0,
            started: false,
            in_sync: false,
            done: false,
        }
    }

    /// Inverse of [`Chare::pack`] (used by migration and restore): an
    /// unpacked block is mid-barrier by construction.
    fn unpack(app: A, r: &mut WireReader<'_>) -> Self {
        let mut block = HaloChare::new(app);
        block.step = r.u32().expect("step");
        block.round = block.step;
        block.started = r.bool().expect("started");
        block.done = r.bool().expect("done");
        block.app.unpack(r);
        block.in_sync = true;
        block
    }

    /// Halo slots: neighbour directions, with a neighbour or not.
    fn slots(&self) -> usize {
        self.got.msgs.as_ref().len()
    }

    fn send_halos(&self, ctx: &mut Ctx<'_>) {
        let array = ctx.me().array;
        for slot in 0..self.slots() {
            if let Some((to, theirs)) = self.app.neighbor(slot) {
                let values = self.app.computes().then(|| self.app.halo(slot));
                ctx.send(array, to, HALO, payload(theirs, self.round, self.app.halo_len(slot), values));
            }
        }
    }

    /// Step as long as the current step's halos are all here.
    fn advance_while_ready(&mut self, ctx: &mut Ctx<'_>) {
        while self.started && !self.in_sync && !self.done && self.got.len() == self.neighbors {
            let compute = self.app.computes();
            let app = &mut self.app;
            self.got.drain(|slot, msg| {
                if compute {
                    app.fill(slot, WireReader::new(&msg[HEADER..]).f64_iter().expect("checked on receipt"));
                }
            });
            let (cost, steps) = self.app.compute(self.step, self.neighbors);
            ctx.charge(cost);
            self.step += steps;
            self.round += 1;
            if self.step >= self.app.steps() {
                self.done = true;
                let mut w = WireWriter::new();
                w.f64(if compute { self.app.block_sum() } else { 0.0 });
                ctx.contribute_gather(w.finish());
                return;
            }
            if self.app.lb_period().is_some_and(|p| self.step.is_multiple_of(p)) {
                // Pause BEFORE sending this step's halos: every neighbour
                // pauses at the same step, so nothing is in flight and the
                // slots are empty — safe to migrate.
                debug_assert_eq!(self.ahead.len(), 0);
                self.in_sync = true;
                ctx.at_sync();
                return;
            }
            self.send_halos(ctx);
            // The halos that arrived early are the new step's.
            std::mem::swap(&mut self.got, &mut self.ahead);
        }
    }
}

impl<A: Halo> Chare for HaloChare<A> {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        match entry {
            START => {
                assert!(!self.started, "START delivered twice");
                self.started = true;
                self.send_halos(ctx);
                self.advance_while_ready(ctx); // one block: no neighbours at all
            }
            HALO => {
                let mut r = WireReader::new(payload);
                let slot = r.u8().expect("slot") as usize;
                let step = r.u32().expect("step");
                let ok = slot < self.slots() && self.app.neighbor(slot).is_some();
                assert!(ok, "halo for slot {slot}, which has no neighbour");
                // The exact length, so a short or long halo fails here in
                // both modes, not at the step that applies it.
                let n = self.app.halo_len(slot);
                let len = HEADER + f64_array_len(n);
                let ok = r.u32().ok() == Some(n as u32) && payload.len() == len;
                assert!(
                    ok,
                    "halo for slot {slot} step {step}: wrong length, {} B where {n} values take {len} B",
                    payload.len()
                );
                let msg = if self.app.computes() { ctx.payload().clone() } else { Bytes::new() };
                let slots = if step == self.round {
                    &mut self.got
                } else if step == self.round + 1 {
                    &mut self.ahead
                } else {
                    panic!("halo for step {step} while at step {}", self.round)
                };
                assert!(slots.put(slot, msg), "duplicate halo for slot {slot} step {step}");
                self.advance_while_ready(ctx);
            }
            other => panic!("unknown {} entry {other:?}", A::ARRAY),
        }
    }

    fn pack(&self, w: &mut WireWriter) {
        assert!(
            self.got.len() == 0 && self.ahead.len() == 0,
            "blocks migrate only at step-aligned barriers (buffers drained)"
        );
        debug_assert_eq!(self.round, self.step, "a migratable block advances one step a round");
        w.u32(self.step).bool(self.started).bool(self.done);
        self.app.pack(w);
    }

    fn resume_from_sync(&mut self, ctx: &mut Ctx<'_>) {
        assert!(self.in_sync, "resume without a pending sync");
        self.in_sync = false;
        if !self.done {
            self.send_halos(ctx);
            self.advance_while_ready(ctx);
        }
    }
}

/// The block at `at + delta` on a grid of `k` blocks a side, numbered
/// row-major, if it is inside the grid.
pub(crate) fn grid_neighbor<const D: usize>(k: usize, at: [usize; D], delta: [isize; D]) -> Option<ElemId> {
    let mut id = 0;
    for (x, d) in at.into_iter().zip(delta) {
        let n = x.checked_add_signed(d).filter(|&n| n < k)?;
        id = id * k + n;
    }
    Some(ElemId(id as u32))
}

/// Run `objects` blocks made by `make` (a `migratable` array's blocks pack
/// and unpack) on `engine`, which may add to the program first — a
/// checkpoint client, a snapshot to restore — and gather their sums.
pub(crate) fn run<A: Halo>(
    objects: usize,
    mapping: Mapping,
    steps: u32,
    migratable: bool,
    make: impl Fn(ElemId) -> A + Clone + Send + Sync + 'static,
    engine: impl FnOnce(Program) -> RunReport,
) -> StencilOutcome {
    let mut p = Program::new();
    let (fresh, again) = (make.clone(), make);
    let factory = move |elem| Box::new(HaloChare::new(fresh(elem))) as Box<dyn Chare>;
    let arr = if migratable {
        let unpacker =
            move |elem, r: &mut WireReader<'_>| Box::new(HaloChare::unpack(again(elem), r)) as Box<dyn Chare>;
        p.array_migratable(A::ARRAY, objects, mapping, factory, unpacker)
    } else {
        p.array(A::ARRAY, objects, mapping, factory)
    };
    p.on_startup(move |ctl| ctl.broadcast(arr, START, vec![]));
    let sums = Arc::new(Mutex::new(Vec::new()));
    let gathered = Arc::clone(&sums);
    p.on_reduction(arr, move |_seq, data, ctl| {
        if let ReduceData::Gathered(rows) = data {
            let mut sums = gathered.lock().expect("sums lock");
            sums.clear();
            sums.extend(rows.iter().map(|(_, bytes)| WireReader::new(bytes).f64().expect("block sum")));
        }
        ctl.exit();
    });
    let report = engine(p);
    let total = report.end_time - Time::ZERO;
    let block_sums = std::mem::take(&mut *sums.lock().expect("sums lock"));
    StencilOutcome { total, ms_per_step: total.as_millis_f64() / steps as f64, block_sums, report }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use mdo_core::envelope::{Envelope, MsgBody, APP_PRIORITY};
    use mdo_core::node::{split_program, HostParts, Node, NodeHooks};
    use mdo_core::{ArrayId, ObjKey, Pe, RunConfig, Topology};

    use super::*;
    use crate::irregular::{IrregularConfig, IrregularMesh, Layout, Partition};
    use crate::jacobi3d::{Block3d, Jacobi3dConfig};
    use crate::stencil::ghost::{GhostBlock, GhostConfig};
    use crate::stencil::{Block, StencilConfig, StencilCost};

    /// Hand messages to element `to`, one by one, the way a PE's runtime
    /// does, with no engine around it, so that a handler's panic reaches
    /// the test (an engine turns it into a failed PE).  Returns the halos
    /// the element sent: each one's receiver and bytes.
    fn deliver(program: Program, to: ElemId, msgs: Vec<(EntryId, Vec<u8>)>) -> Vec<(ElemId, Vec<u8>)> {
        struct Hooks(Vec<(ElemId, Vec<u8>)>);
        impl NodeHooks for Hooks {
            fn now(&self) -> Time {
                Time::ZERO
            }
            fn emit(&mut self, env: Envelope, _after: Dur) {
                if let MsgBody::App { target, entry: HALO, payload } = env.body {
                    self.0.push((target.elem, payload.to_vec()));
                }
            }
        }

        let (shared, _host) = split_program(program, Topology::single(1), RunConfig::default());
        let mut node = Node::new(shared, Pe(0), HostParts::empty());
        let mut hooks = Hooks(Vec::new());
        for (entry, payload) in msgs {
            let body = MsgBody::App { target: ObjKey::new(ArrayId(0), to), entry, payload: payload.into() };
            node.handle(Envelope { src: Pe(0), dst: Pe(0), priority: APP_PRIORITY, sent_at_ns: 0, body }, &mut hooks);
        }
        hooks.0
    }

    /// One array of `objects` blocks that `make` builds, in `compute` mode.
    fn program<A: Halo>(
        objects: usize,
        compute: bool,
        make: impl Fn(bool, ElemId) -> A + Send + Sync + 'static,
    ) -> Program {
        let mut p = Program::new();
        p.array(A::ARRAY, objects, Mapping::Block, move |elem| {
            Box::new(HaloChare::new(make(compute, elem))) as Box<dyn Chare>
        });
        p
    }

    /// The protocol's checks on received input, on element `at` of an app:
    /// each malformed sequence panics where it arrives, with its message,
    /// in both modes; and a halo one step early is held and applied at
    /// the next step, as if it had come on time.
    fn protocol<A: Halo>(objects: usize, at: ElemId, make: impl Fn(bool, ElemId) -> A + Clone + Send + Sync + 'static) {
        let block = make(false, at);
        let slots = block.slots().as_ref().len();
        let neighbors: Vec<usize> = (0..slots).filter(|&s| block.neighbor(s).is_some()).collect();
        let slot = neighbors[0];
        let lonely = (0..=slots).find(|&s| s == slots || block.neighbor(s).is_none()).expect("a slot");
        let n = block.halo_len(slot);
        let zeros =
            |slot: usize, step: u32, n: usize| (HALO, payload(slot as u8, step, n, None::<std::iter::Empty<f64>>));
        let rows = [
            ("short", vec![zeros(slot, 0, n - 1)], format!("halo for slot {slot} step 0: wrong length")),
            ("long", vec![zeros(slot, 0, n + 1)], format!("halo for slot {slot} step 0: wrong length")),
            ("duplicate", vec![zeros(slot, 0, n), zeros(slot, 0, n)], format!("duplicate halo for slot {slot} step 0")),
            (
                "duplicate early",
                vec![zeros(slot, 1, n), zeros(slot, 1, n)],
                format!("duplicate halo for slot {slot} step 1"),
            ),
            ("two steps ahead", vec![zeros(slot, 2, n)], "halo for step 2 while at step 0".to_string()),
            ("non-neighbour", vec![zeros(lonely, 0, n)], format!("halo for slot {lonely}, which has no neighbour")),
            ("unknown entry", vec![(EntryId(9), Vec::new())], format!("unknown {} entry", A::ARRAY)),
        ];
        for compute in [false, true] {
            for (what, msgs, expected) in &rows {
                let run = || deliver(program(objects, compute, make.clone()), at, msgs.clone());
                let err = catch_unwind(AssertUnwindSafe(run)).expect_err(what);
                let msg = err.downcast_ref::<String>().map_or("", String::as_str);
                assert!(msg.contains(expected.as_str()), "{} {what}: panicked with {msg:?}", A::ARRAY);
            }
        }

        // Every neighbour's halo for `step`, its values moved by `shift`.
        let halos = |step: u32, shift: f64| -> Vec<(EntryId, Vec<u8>)> {
            let values = |s: usize| {
                (0..block.halo_len(s)).map(move |i| shift + f64::from(step) + s as f64 / 4.0 + i as f64 / 8.0)
            };
            neighbors.iter().map(|&s| (HALO, payload(s as u8, step, block.halo_len(s), Some(values(s))))).collect()
        };
        let early = |shift: f64| {
            let mut msgs = vec![(START, Vec::new()), halos(1, shift).remove(0)];
            msgs.extend(halos(0, 0.0));
            msgs.extend(halos(1, 0.0).into_iter().skip(1));
            deliver(program(objects, true, make.clone()), at, msgs)
        };
        let mut on_time = vec![(START, Vec::new())];
        on_time.extend(halos(0, 0.0).into_iter().chain(halos(1, 0.0)));
        let on_time = deliver(program(objects, true, make.clone()), at, on_time);
        let tagged = |step: u32| on_time.iter().filter(|(_, msg)| msg[1..5] == step.to_le_bytes()).count();
        assert_eq!([tagged(0), tagged(1), tagged(2)], [neighbors.len(); 3], "{}: three steps' halos sent", A::ARRAY);
        assert_eq!(early(0.0), on_time, "{}: a halo held one step is applied as if on time", A::ARRAY);
        assert_ne!(early(100.0), on_time, "{}: the held halo's values are the ones applied", A::ARRAY);
    }

    #[test]
    fn every_halo_app_checks_its_input_on_receipt_and_holds_an_early_halo() {
        let cost = StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false };
        let c = cost.clone();
        protocol(4, ElemId(0), move |compute, elem| {
            Block::new(StencilConfig { mesh: 16, compute, cost: c.clone(), ..StencilConfig::paper(4, 10) }, elem)
        });
        let c = cost.clone();
        protocol(4, ElemId(0), move |compute, elem| {
            GhostBlock::new(GhostConfig { mesh: 16, objects: 4, layers: 2, steps: 10, compute, cost: c.clone() }, elem)
        });
        let c = cost.clone();
        protocol(8, ElemId(0), move |compute, elem| {
            Block3d::new(Jacobi3dConfig { mesh: 8, k: 2, steps: 10, compute, cost: c.clone() }, elem)
        });
        let layout = Arc::new(Layout::new(IrregularMesh::jittered_grid(8, 42), 4));
        protocol(4, ElemId(0), move |compute, elem| {
            let cfg = IrregularConfig { side: 8, seed: 42, parts: 4, steps: 10, compute, cost: cost.clone() };
            Partition::new(cfg, Arc::clone(&layout), elem.0)
        });
    }

    /// A halo is the bytes the stencil's ghost message always was — the
    /// growable writer's, zero-filled in cost-model mode (the old
    /// sequence, kept here only as the reference) — in one allocation of
    /// its exact size.
    #[test]
    fn a_halo_is_the_old_bytes_in_one_exact_allocation() {
        let b = 64;
        let edge: Vec<f64> = (0..b).map(|i| i as f64 * 0.5 - 3.0).collect();
        for edge in [Some(&edge[..]), None] {
            let mut old = WireWriter::new();
            old.u8(1).u32(11);
            old.f64_slice(&edge.map_or_else(|| vec![0.0; b], <[f64]>::to_vec));
            let new = payload(1, 11, b, edge.map(|e| e.iter().copied()));
            assert_eq!(new, old.finish());
            assert_eq!(new.capacity(), new.len());
        }
    }
}
