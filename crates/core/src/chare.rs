//! The [`Chare`] trait — a message-driven object — and the handler
//! context [`Ctx`] through which it talks to the runtime.
//!
//! A chare's `receive` runs **to completion** when the scheduler delivers a
//! message to it (paper §4); while running it may send messages, contribute
//! to reductions, charge compute cost, request a load-balancing sync, or
//! ask the run to stop.  All of these are *buffered* in the [`Ctx`] and
//! acted on by the runtime after the handler returns — handlers never block
//! and never touch the network directly, which is what lets the same
//! application objects run unmodified under the virtual-time and the
//! threaded engines.

use bytes::Bytes;
use mdo_netsim::{ClusterId, Dur, Pe, Time, Topology};

use crate::envelope::{ReduceData, ReduceOp};
use crate::ids::{ArrayId, ElemId, EntryId, ObjKey};
use crate::reduction::ExactSum;
use crate::wire::{WireReader, WireWriter};

/// One effect a handler issued.  The sink pairs it with the compute charged
/// before it: its charge point, where in the handler it leaves from.
#[derive(Debug)]
pub(crate) enum CtxOut {
    Send {
        target: ObjKey,
        entry: EntryId,
        payload: Bytes,
        priority: Option<i32>,
    },
    Broadcast {
        array: ArrayId,
        entry: EntryId,
        payload: Bytes,
    },
    Multicast {
        array: ArrayId,
        elems: Vec<ElemId>,
        entry: EntryId,
        payload: Bytes,
    },
    Contribute {
        from: ObjKey,
        op: ReduceOp,
        data: ReduceData,
    },
    /// The issuing element entered the load-balancing barrier.
    AtSync,
}

/// Shared state a handler writes into (owned by the node, lent to Ctx).
#[derive(Default, Debug)]
pub(crate) struct CtxSink {
    /// Every effect in issue order, each at its charge point.
    pub out: Vec<(Dur, CtxOut)>,
    pub charged: Dur,
    pub exit: bool,
}

impl CtxSink {
    /// The one place an effect is stamped with its charge point.
    fn push(&mut self, out: CtxOut) {
        self.out.push((self.charged, out));
    }
}

/// The context handed to a chare handler (or, as [`HostCtl`], to host
/// callbacks such as startup and reduction clients).
pub struct Ctx<'a> {
    pub(crate) now: Time,
    pub(crate) pe: Pe,
    pub(crate) topo: &'a Topology,
    /// `None` inside host callbacks, `Some` inside element handlers.
    pub(crate) me: Option<ObjKey>,
    /// The message being delivered ([`NO_PAYLOAD`] where there is none).
    pub(crate) payload: &'a Bytes,
    pub(crate) sink: &'a mut CtxSink,
}

/// What [`Ctx::payload`] returns outside a message delivery: host
/// callbacks and [`Chare::resume_from_sync`].
pub(crate) static NO_PAYLOAD: Bytes = Bytes::new();

/// Host callbacks (program startup, reduction clients, quiescence clients)
/// receive the same context type; the element-only operations panic there.
pub type HostCtl<'a> = Ctx<'a>;

impl<'a> Ctx<'a> {
    /// The context of a host callback: no element, no message.
    pub(crate) fn host(now: Time, pe: Pe, topo: &'a Topology, sink: &'a mut CtxSink) -> Self {
        Ctx { now, pe, topo, me: None, payload: &NO_PAYLOAD, sink }
    }

    /// Current time: virtual under the simulation engine, wall-clock since
    /// start under the threaded engine.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The PE this handler is running on.
    pub fn my_pe(&self) -> Pe {
        self.pe
    }

    /// Total PEs in the job.
    pub fn num_pes(&self) -> usize {
        self.topo.num_pes()
    }

    /// The job's cluster layout.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// Cluster of the current PE.
    pub fn my_cluster(&self) -> ClusterId {
        self.topo.cluster_of(self.pe)
    }

    /// The object this handler belongs to.  Panics in host callbacks.
    pub fn me(&self) -> ObjKey {
        self.me.expect("Ctx::me() called outside an element handler")
    }

    /// This element's index within its array.  Panics in host callbacks.
    pub fn my_elem(&self) -> ElemId {
        self.me().elem
    }

    /// The message being delivered to this handler: the same bytes as
    /// `receive`'s `payload` argument, as the refcounted buffer they live
    /// in.  Clone it (a reference count, no copy) to keep the message past
    /// the handler's return, or to forward it; every recipient of one
    /// fan-out on this PE sees the same allocation.  Empty in host
    /// callbacks and in [`Chare::resume_from_sync`].
    pub fn payload(&self) -> &Bytes {
        self.payload
    }

    /// Send `payload` to `elem` of `array`, triggering `entry` there.
    /// Asynchronous: it leaves once this handler returns, at its charge point.
    ///
    /// A `Vec<u8>` becomes the message's buffer without a copy.  To send
    /// the same bytes to several elements, convert once (`Bytes::from`, or
    /// [`WireWriter::finish_bytes`]) and pass clones: the recipients share
    /// that one allocation, as [`Ctx::multicast`]'s do.
    pub fn send(&mut self, array: ArrayId, elem: ElemId, entry: EntryId, payload: impl Into<Bytes>) {
        self.push_send(array, elem, entry, payload.into(), None);
    }

    /// Like [`Ctx::send`] with an explicit priority (smaller = more urgent).
    pub fn send_prio(
        &mut self,
        array: ArrayId,
        elem: ElemId,
        entry: EntryId,
        payload: impl Into<Bytes>,
        priority: i32,
    ) {
        self.push_send(array, elem, entry, payload.into(), Some(priority));
    }

    fn push_send(&mut self, array: ArrayId, elem: ElemId, entry: EntryId, payload: Bytes, priority: Option<i32>) {
        self.sink.push(CtxOut::Send { target: ObjKey::new(array, elem), entry, payload, priority });
    }

    /// Trigger `entry` with one shared `payload` on **every** element of
    /// `array` (delivered via the PE spanning tree).
    pub fn broadcast(&mut self, array: ArrayId, entry: EntryId, payload: impl Into<Bytes>) {
        self.sink.push(CtxOut::Broadcast { array, entry, payload: payload.into() });
    }

    /// Section multicast: trigger `entry` with one shared `payload` on the
    /// listed elements of `array`.  The runtime groups destinations by PE
    /// so the payload crosses the network once per PE rather than once per
    /// element — the optimized multicast LeanMD's coordinate fan-out wants.
    /// (Sharing the buffer is not what sets it apart: clones of one `Bytes`
    /// passed to [`Ctx::send`] share theirs too.  The grouping is.)
    pub fn multicast(&mut self, array: ArrayId, elems: &[ElemId], entry: EntryId, payload: impl Into<Bytes>) {
        self.sink.push(CtxOut::Multicast { array, elems: elems.to_vec(), entry, payload: payload.into() });
    }

    fn contribute(&mut self, op: ReduceOp, data: ReduceData) {
        let from = self.me();
        self.sink.push(CtxOut::Contribute { from, op, data });
    }

    /// Contribute an f64 vector to this array's current reduction.
    /// Every element must contribute exactly once per reduction, with the
    /// same operator and vector length.  Panics in host callbacks.
    pub fn contribute_f64(&mut self, op: ReduceOp, data: &[f64]) {
        let data = match op {
            ReduceOp::SumF64 => ReduceData::Exact(data.iter().map(|&x| ExactSum::new(x)).collect()),
            ReduceOp::MinF64 | ReduceOp::MaxF64 => ReduceData::F64(data.to_vec()),
            _ => panic!("contribute_f64 requires an f64 operator"),
        };
        self.contribute(op, data);
    }

    /// Contribute a u64 vector to a `SumU64` reduction.
    pub fn contribute_u64_sum(&mut self, data: &[u64]) {
        self.contribute(ReduceOp::SumU64, ReduceData::U64(data.to_vec()));
    }

    /// Contribute raw bytes to a `Gather` reduction (delivered to the
    /// client sorted by element index).
    pub fn contribute_gather(&mut self, data: Vec<u8>) {
        let elem = self.my_elem().0;
        self.contribute(ReduceOp::Gather, ReduceData::Gathered(vec![(elem, data)]));
    }

    /// Charge `work` of compute time to this handler.  Under the simulation
    /// engine this advances the PE's virtual clock (and is the sole source
    /// of compute cost); under the threaded engine real CPU time is what
    /// counts and this is a no-op for timing (it still feeds the load
    /// balancer's measurements in both engines).
    pub fn charge(&mut self, work: Dur) {
        self.sink.charged += work;
    }

    /// Enter the load-balancing barrier.  When every element of every
    /// array has called `at_sync`, the runtime collects measurements, runs
    /// the configured strategy, migrates objects, and then calls
    /// [`Chare::resume_from_sync`] on every element.  Panics in host
    /// callbacks.
    ///
    /// **Contract:** the application must be quiescent when the barrier
    /// forms — no reductions mid-tree and no application broadcast racing
    /// the migration window (point-to-point messages still in flight are
    /// tolerated: the runtime forwards or buffers them across the move).
    /// Sync at step boundaries, as both bundled applications do.
    pub fn at_sync(&mut self) {
        assert!(self.me.is_some(), "at_sync called outside an element handler");
        self.sink.push(CtxOut::AtSync);
    }

    /// Ask the engine to stop the run (after in-flight handler actions are
    /// applied).
    pub fn exit(&mut self) {
        self.sink.exit = true;
    }
}

/// A message-driven object.
///
/// Implementations hold ordinary owned state.  `Send` is required because
/// the threaded engine runs each PE on its own OS thread and migration
/// moves objects between them.
pub trait Chare: Send {
    /// Handle one message.  Runs to completion; communicate only via `ctx`.
    ///
    /// `payload` is a view of [`Ctx::payload`], the refcounted buffer the
    /// message arrived in, and is gone when the handler returns.  A handler
    /// that must hold a message until another arrives keeps
    /// `ctx.payload().clone()` — a reference count — rather than parsing
    /// the slice into a copy of its own.
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>);

    /// Serialize this object's state for migration (Charm++ "PUP").
    /// The default panics: objects are only migratable if they opt in and
    /// their array registers an unpacker.
    fn pack(&self, _w: &mut WireWriter) {
        panic!("this chare does not implement pack(); mark its array non-migratable or implement PUP");
    }

    /// Called after a load-balancing barrier completes (on the possibly-new
    /// PE).  Elements typically restart their iteration loop here.
    fn resume_from_sync(&mut self, _ctx: &mut Ctx<'_>) {}
}

/// Constructor for an array's initial elements.
pub type ElemFactory = dyn Fn(ElemId) -> Box<dyn Chare> + Send + Sync;

/// Re-constructor for migrated elements from packed state.
pub type ElemUnpacker = dyn Fn(ElemId, &mut WireReader<'_>) -> Box<dyn Chare> + Send + Sync;

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::two_cluster(4)
    }

    fn mk_ctx<'a>(topo: &'a Topology, sink: &'a mut CtxSink, me: Option<ObjKey>) -> Ctx<'a> {
        Ctx { now: Time::from_nanos(5), pe: Pe(1), topo, me, payload: &NO_PAYLOAD, sink }
    }

    #[test]
    fn ctx_accessors() {
        let topo = topo();
        let mut sink = CtxSink::default();
        let key = ObjKey::new(ArrayId(1), ElemId(3));
        let ctx = mk_ctx(&topo, &mut sink, Some(key));
        assert_eq!(ctx.now(), Time::from_nanos(5));
        assert_eq!(ctx.my_pe(), Pe(1));
        assert_eq!(ctx.num_pes(), 4);
        assert_eq!(ctx.my_cluster(), ClusterId(0));
        assert_eq!(ctx.me(), key);
        assert_eq!(ctx.my_elem(), ElemId(3));
    }

    #[test]
    fn sends_are_buffered_not_executed() {
        let topo = topo();
        let mut sink = CtxSink::default();
        let mut ctx = mk_ctx(&topo, &mut sink, Some(ObjKey::new(ArrayId(1), ElemId(0))));
        ctx.send(ArrayId(1), ElemId(2), EntryId(4), vec![1, 2]);
        ctx.send_prio(ArrayId(1), ElemId(3), EntryId(4), vec![], -7);
        ctx.broadcast(ArrayId(1), EntryId(0), vec![9]);
        ctx.charge(Dur::from_micros(3));
        ctx.at_sync();
        ctx.exit();
        assert_eq!(sink.out.len(), 4);
        assert_eq!(sink.charged, Dur::from_micros(3));
        assert!(sink.exit);
        match &sink.out[1] {
            (at, CtxOut::Send { priority, .. }) => assert_eq!((*at, *priority), (Dur::ZERO, Some(-7))),
            other => panic!("unexpected: {other:?}"),
        }
        // Each effect is stamped with the compute charged before it.
        assert!(matches!(sink.out[3], (at, CtxOut::AtSync) if at == Dur::from_micros(3)));
    }

    #[test]
    fn contributions_carry_identity() {
        let topo = topo();
        let mut sink = CtxSink::default();
        let me = ObjKey::new(ArrayId(2), ElemId(7));
        let mut ctx = mk_ctx(&topo, &mut sink, Some(me));
        ctx.contribute_f64(ReduceOp::SumF64, &[1.0]);
        ctx.contribute_f64(ReduceOp::MaxF64, &[1.5]);
        ctx.contribute_u64_sum(&[2]);
        ctx.contribute_gather(vec![3]);
        // Each leaves in tree-combinable form: a sum as exact partials, a
        // gather keyed by its element.
        let want = [
            ReduceData::Exact(vec![ExactSum::new(1.0)]),
            ReduceData::F64(vec![1.5]),
            ReduceData::U64(vec![2]),
            ReduceData::Gathered(vec![(7, vec![3])]),
        ];
        assert_eq!(sink.out.len(), want.len());
        for (o, want) in sink.out.iter().zip(&want) {
            match o {
                (_, CtxOut::Contribute { from, data, .. }) => assert_eq!((*from, data), (me, want)),
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "f64 operator")]
    fn contribute_f64_rejects_wrong_op() {
        let topo = topo();
        let mut sink = CtxSink::default();
        let mut ctx = mk_ctx(&topo, &mut sink, Some(ObjKey::new(ArrayId(1), ElemId(0))));
        ctx.contribute_f64(ReduceOp::Gather, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "outside an element handler")]
    fn host_ctx_cannot_at_sync() {
        let topo = topo();
        let mut sink = CtxSink::default();
        let mut ctx = mk_ctx(&topo, &mut sink, None);
        ctx.at_sync();
    }

    #[test]
    #[should_panic(expected = "outside an element handler")]
    fn host_ctx_has_no_identity() {
        let topo = topo();
        let mut sink = CtxSink::default();
        let ctx = mk_ctx(&topo, &mut sink, None);
        let _ = ctx.me();
    }
}
