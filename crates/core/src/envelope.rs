//! The runtime's message format.
//!
//! Every communication in the system — application messages, broadcasts,
//! reduction traffic, load-balancing coordination, quiescence probes,
//! migration payloads — travels as an [`Envelope`].  The simulation engine
//! passes envelopes around as plain values; the threaded engine serializes
//! them through the VMI transport with the codec at the bottom of this
//! module (so the "network" genuinely carries bytes).

use bytes::{Bytes, BytesMut};
use mdo_netsim::Pe;

use crate::ids::{ArrayId, ElemId, EntryId, ObjKey};
use crate::reduction::ExactSum;
use crate::wire::{WireError, WireReader, WireWriter};

/// Leading byte of every serialized envelope.  The byte-oriented transport
/// can carry either a single envelope or an aggregation frame holding many
/// (see `mdo_vmi::frame`); the receiver dispatches on this first byte, so
/// the two encodings must start with distinct tags.
pub const WIRE_TAG: u8 = 0xE5;

/// Reduction operators supported by [`MsgBody::ReduceUp`].
///
/// `SumF64`/`MinF64`/`MaxF64` combine equal-length `f64` vectors
/// element-wise (`SumF64` exactly, rounded once at the root); `SumU64`
/// likewise for `u64`; `Gather` collects each element's raw bytes,
/// delivered sorted by element index.  Every result is independent of
/// arrival order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Element-wise sum of f64 vectors.
    SumF64,
    /// Element-wise min of f64 vectors.
    MinF64,
    /// Element-wise max of f64 vectors.
    MaxF64,
    /// Element-wise sum of u64 vectors.
    SumU64,
    /// Deterministic gather of per-element byte strings.
    Gather,
}

impl ReduceOp {
    fn to_u8(self) -> u8 {
        match self {
            ReduceOp::SumF64 => 0,
            ReduceOp::MinF64 => 1,
            ReduceOp::MaxF64 => 2,
            ReduceOp::SumU64 => 3,
            ReduceOp::Gather => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => ReduceOp::SumF64,
            1 => ReduceOp::MinF64,
            2 => ReduceOp::MaxF64,
            3 => ReduceOp::SumU64,
            4 => ReduceOp::Gather,
            _ => return Err(WireError { context: "ReduceOp tag" }),
        })
    }
}

/// Partially-combined reduction data moving up the PE tree.
#[derive(Clone, Debug, PartialEq)]
pub enum ReduceData {
    /// For `MinF64` and `MaxF64`, and a delivered `SumF64` result.
    F64(Vec<f64>),
    /// A `SumF64` partial, exact until the root rounds it.
    Exact(Vec<ExactSum>),
    /// For `SumU64`.
    U64(Vec<u64>),
    /// For `Gather`: (element index, bytes) pairs, kept sorted by element.
    Gathered(Vec<(u32, Vec<u8>)>),
}

/// Per-object load and communication measurements shipped to the central
/// load balancer at an AtSync barrier.
#[derive(Clone, Debug, PartialEq)]
pub struct LbObjStat {
    /// The measured object.
    pub key: ObjKey,
    /// Accumulated compute load (ns of charged/measured handler time).
    pub load_ns: u64,
    /// Messages sent per destination object.
    pub comm: Vec<(ObjKey, u64)>,
}

/// The body of an [`Envelope`].
#[derive(Clone, Debug)]
pub enum MsgBody {
    /// Application message for one object's entry method.
    App {
        /// Destination object.
        target: ObjKey,
        /// Entry method to trigger.
        entry: EntryId,
        /// Marshalled parameters.
        payload: Bytes,
    },
    /// Broadcast of an entry call to all elements of an array, propagating
    /// down the PE spanning tree.
    Broadcast {
        /// Target array.
        array: ArrayId,
        /// Entry method to trigger on every element.
        entry: EntryId,
        /// Marshalled parameters (shared by all elements).
        payload: Bytes,
    },
    /// Partial reduction result moving toward the root (PE 0).
    ReduceUp {
        /// Array the reduction runs over.
        array: ArrayId,
        /// Reduction sequence number (per array).
        seq: u32,
        /// Combining operator.
        op: ReduceOp,
        /// Contributions folded into this partial.
        count: u64,
        /// The partial value.
        data: ReduceData,
    },
    /// A PE announces all its local elements reached AtSync, with stats.
    AtSyncReady {
        /// Objects measured on the reporting PE.
        stats: Vec<LbObjStat>,
    },
    /// PE 0 broadcasts the new object→PE assignment.
    LbAssign {
        /// Complete placement for every object in the program.
        assignments: Vec<(ObjKey, Pe)>,
    },
    /// A migrating object's packed state.
    MigrateState {
        /// Which object.
        key: ObjKey,
        /// Its packed (PUP'd) state.
        state: Bytes,
    },
    /// A PE reports it has received all elements it was assigned.
    LbArrived,
    /// PE 0 broadcasts: everyone resume from the AtSync barrier.
    LbResume,
    /// Quiescence probe from PE 0 (phase number).
    QdProbe {
        /// Probe wave number.
        phase: u32,
    },
    /// Reply to a quiescence probe.
    QdReply {
        /// Probe wave being answered.
        phase: u32,
        /// App messages this PE has sent, ever.
        sent: u64,
        /// App messages this PE has processed, ever.
        processed: u64,
        /// Whether any app message was processed since the previous probe.
        active: bool,
    },
    /// PE 0 asks every PE to pack its local elements for a checkpoint
    /// (sent at a quiescent barrier).
    CkptCollect,
    /// A PE's packed element states for the checkpoint in progress.
    CkptData {
        /// (object, packed state) for every element local to the sender.
        states: Vec<(ObjKey, Bytes)>,
    },
    /// Section multicast: one wire message per destination PE, fanned out
    /// to the listed elements on arrival (the "optimized communication
    /// libraries" of §2.1 — the payload crosses the network once per PE,
    /// not once per element).
    Multi {
        /// Target array.
        array: ArrayId,
        /// Elements on the destination PE to deliver to, in order.
        elems: Vec<ElemId>,
        /// Entry method to trigger on each.
        entry: EntryId,
        /// Shared marshalled parameters.
        payload: Bytes,
    },
    /// Restored run: every element gets `resume_from_sync` (like a
    /// barrier resume, without touching load-balancer state).
    RestoreResume,
    /// Engine control: start the program — run its startup closure, or
    /// resume it if it is restored (delivered to PE 0).
    Startup,
    /// Engine control: stop the run.
    Exit,
    /// Failure detector: "I am alive", sent periodically to PE 0 by the
    /// threaded engine when a failure plan is armed.
    Heartbeat,
    /// PE 0 opens buddy-checkpoint epoch `epoch` at an AtSync barrier:
    /// every PE packs its local elements and ships them to its buddy.
    BuddyCollect {
        /// Epoch number (monotonic within a run).
        epoch: u32,
        /// Completed AtSync rounds at the barrier this epoch rides on —
        /// recorded so recovery can count replayed rounds.
        lb_round: u32,
    },
    /// A PE's packed elements, shipped to its buddy for safekeeping.
    BuddyStore {
        /// Epoch this piece belongs to.
        epoch: u32,
        /// The PE whose elements these are.
        owner: Pe,
        /// AtSync rounds completed when the piece was packed.
        lb_round: u32,
        /// (object, packed state) for every element local to `owner`.
        states: Vec<(ObjKey, Bytes)>,
        /// Per-array next reduction sequence numbers (nonempty only in
        /// PE 0's piece, which owns the reduction roots).
        red_next: Vec<u32>,
    },
    /// A buddy acknowledges storing a piece of `epoch` (sent to PE 0;
    /// the barrier resumes once every PE's piece is safe).
    BuddyAck {
        /// The epoch being acknowledged.
        epoch: u32,
    },
}

/// A message in flight between PEs.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sending PE.
    pub src: Pe,
    /// Destination PE (authoritative at send time; objects don't move
    /// outside AtSync barriers).
    pub dst: Pe,
    /// Scheduler priority: smaller = more urgent; FIFO within a priority.
    pub priority: i32,
    /// Virtual/wall nanoseconds at which the message left `src` (stamped by
    /// the engine; used for tracing).
    pub sent_at_ns: u64,
    /// Contents.
    pub body: MsgBody,
}

/// Priority assigned to runtime-internal coordination traffic so it
/// overtakes bulk application messages.
pub const SYSTEM_PRIORITY: i32 = i32::MIN;

/// Default application message priority.
pub const APP_PRIORITY: i32 = 0;

impl Envelope {
    /// Approximate bytes this envelope would occupy on a wire: a fixed
    /// header plus the variable body.  Used by the bandwidth model.
    pub fn wire_size(&self) -> u64 {
        let body = match &self.body {
            MsgBody::App { payload, .. } => payload.len() as u64 + 12,
            MsgBody::Broadcast { payload, .. } => payload.len() as u64 + 10,
            MsgBody::ReduceUp { data, .. } => {
                18 + match data {
                    ReduceData::F64(v) => v.len() as u64 * 8,
                    ReduceData::Exact(v) => v.iter().map(ExactSum::wire_len).sum(),
                    ReduceData::U64(v) => v.len() as u64 * 8,
                    ReduceData::Gathered(g) => g.iter().map(|(_, b)| 8 + b.len() as u64).sum(),
                }
            }
            MsgBody::AtSyncReady { stats } => stats.iter().map(|s| 16 + s.comm.len() as u64 * 16).sum::<u64>() + 4,
            MsgBody::LbAssign { assignments } => assignments.len() as u64 * 12 + 4,
            MsgBody::MigrateState { state, .. } => state.len() as u64 + 8,
            MsgBody::LbArrived | MsgBody::LbResume | MsgBody::Startup | MsgBody::Exit => 1,
            MsgBody::CkptCollect | MsgBody::RestoreResume => 1,
            MsgBody::Multi { elems, payload, .. } => payload.len() as u64 + elems.len() as u64 * 4 + 10,
            MsgBody::CkptData { states } => states.iter().map(|(_, s)| 12 + s.len() as u64).sum::<u64>() + 4,
            MsgBody::QdProbe { .. } => 5,
            MsgBody::QdReply { .. } => 22,
            MsgBody::Heartbeat => 1,
            MsgBody::BuddyCollect { .. } => 9,
            MsgBody::BuddyStore { states, red_next, .. } => {
                states.iter().map(|(_, s)| 12 + s.len() as u64).sum::<u64>() + red_next.len() as u64 * 4 + 17
            }
            MsgBody::BuddyAck { .. } => 5,
        };
        24 + body
    }

    /// True for runtime-internal (non-application) traffic.
    pub fn is_system(&self) -> bool {
        !matches!(self.body, MsgBody::App { .. } | MsgBody::Broadcast { .. })
    }

    /// True if this envelope may wait in an aggregation buffer.  Only
    /// point-to-point application data is coalesced — the fine-grain
    /// regime aggregation exists for.  Everything else (system priority,
    /// broadcast/reduction fan-in/fan-out, load-balancing and checkpoint
    /// control) gates collective progress somewhere downstream, so holding
    /// one of those for a flush deadline would trade a few header bytes
    /// for stalls on every PE behind it; they flush the buffer instead.
    pub fn aggregatable(&self) -> bool {
        self.priority != SYSTEM_PRIORITY && matches!(self.body, MsgBody::App { .. } | MsgBody::Multi { .. })
    }

    /// Serialize for the byte-oriented transport.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(64);
        self.encode_writer(&mut w);
        w.finish()
    }

    /// Serialize by appending to an existing staging buffer.  This is the
    /// copy-light send path: the caller's warm `BytesMut` is lent to the
    /// codec and handed back grown — no per-envelope `Vec` is allocated,
    /// and many envelopes can stage into one frame buffer.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        let mut w = WireWriter::over(std::mem::take(buf).into_vec());
        self.encode_writer(&mut w);
        *buf = BytesMut::from(w.finish());
    }

    /// Serialize into a freshly frozen shared buffer (one allocation, no
    /// second copy — the staging vector *becomes* the shared allocation).
    pub fn encode_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        self.encode_into(&mut buf);
        buf.freeze()
    }

    fn encode_writer(&self, w: &mut WireWriter) {
        w.u8(WIRE_TAG).u32(self.src.0).u32(self.dst.0).i32(self.priority).u64(self.sent_at_ns);
        encode_body(w, &self.body);
    }

    /// Deserialize from the byte-oriented transport, copying variable-length
    /// payloads into fresh buffers.
    pub fn decode(buf: &[u8]) -> Result<Envelope, WireError> {
        Self::decode_with(buf, &CopyPayload)
    }

    /// Deserialize from a shared buffer; variable-length payloads become
    /// O(1) sub-views of `buf`'s allocation instead of copies.  This is how
    /// sub-envelopes unpacked from a jumbo frame alias the frame buffer.
    pub fn decode_shared(buf: &Bytes) -> Result<Envelope, WireError> {
        Self::decode_with(buf.as_slice(), &SharePayload(buf))
    }

    fn decode_with<P: PayloadSrc>(buf: &[u8], payloads: &P) -> Result<Envelope, WireError> {
        let mut r = WireReader::new(buf);
        if r.u8()? != WIRE_TAG {
            return Err(WireError { context: "envelope tag" });
        }
        let src = Pe(r.u32()?);
        let dst = Pe(r.u32()?);
        let priority = r.i32()?;
        let sent_at_ns = r.u64()?;
        let body = decode_body(&mut r, payloads)?;
        if !r.is_done() {
            return Err(WireError { context: "trailing envelope bytes" });
        }
        Ok(Envelope { src, dst, priority, sent_at_ns, body })
    }
}

/// How `decode_body` materializes a length-prefixed payload: copied into an
/// owned buffer (byte-slice input) or aliased as an O(1) sub-view of a
/// shared frame buffer.  The reader positions are absolute in the decoded
/// buffer, so the sharing source must be exactly the buffer under the
/// reader.
trait PayloadSrc {
    fn payload(&self, r: &mut WireReader) -> Result<Bytes, WireError>;
}

struct CopyPayload;

impl PayloadSrc for CopyPayload {
    fn payload(&self, r: &mut WireReader) -> Result<Bytes, WireError> {
        Ok(Bytes::copy_from_slice(r.bytes()?))
    }
}

struct SharePayload<'a>(&'a Bytes);

impl PayloadSrc for SharePayload<'_> {
    fn payload(&self, r: &mut WireReader) -> Result<Bytes, WireError> {
        let (start, end) = r.bytes_span()?;
        Ok(self.0.slice(start..end))
    }
}

fn encode_obj(w: &mut WireWriter, k: ObjKey) {
    w.u32(k.array.0).u32(k.elem.0);
}

fn decode_obj(r: &mut WireReader) -> Result<ObjKey, WireError> {
    Ok(ObjKey::new(ArrayId(r.u32()?), ElemId(r.u32()?)))
}

fn encode_reduce_data(w: &mut WireWriter, d: &ReduceData) {
    match d {
        ReduceData::F64(v) => {
            w.u8(0).f64_slice(v);
        }
        ReduceData::U64(v) => {
            w.u8(1).u32(v.len() as u32);
            for &x in v {
                w.u64(x);
            }
        }
        ReduceData::Gathered(g) => {
            w.u8(2).u32(g.len() as u32);
            for (elem, bytes) in g {
                w.u32(*elem).bytes(bytes);
            }
        }
        ReduceData::Exact(v) => {
            w.u8(3).u32(v.len() as u32);
            for s in v {
                s.encode(w);
            }
        }
    }
}

fn decode_reduce_data(r: &mut WireReader) -> Result<ReduceData, WireError> {
    Ok(match r.u8()? {
        0 => ReduceData::F64(r.f64_vec()?),
        1 => {
            let n = r.u32()? as usize;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.u64()?);
            }
            ReduceData::U64(v)
        }
        2 => {
            let n = r.u32()? as usize;
            let mut g = Vec::with_capacity(n);
            for _ in 0..n {
                let elem = r.u32()?;
                let bytes = r.bytes()?.to_vec();
                g.push((elem, bytes));
            }
            ReduceData::Gathered(g)
        }
        3 => {
            // Each sum is at least its three header bytes.
            let n = r.u32()? as usize;
            if n > r.remaining() / 3 {
                return Err(WireError { context: "ExactSum count" });
            }
            ReduceData::Exact((0..n).map(|_| ExactSum::decode(r)).collect::<Result<_, _>>()?)
        }
        _ => return Err(WireError { context: "ReduceData tag" }),
    })
}

fn encode_body(w: &mut WireWriter, body: &MsgBody) {
    match body {
        MsgBody::App { target, entry, payload } => {
            w.u8(0);
            encode_obj(w, *target);
            w.u16(entry.0).bytes(payload);
        }
        MsgBody::Broadcast { array, entry, payload } => {
            w.u8(1).u32(array.0).u16(entry.0).bytes(payload);
        }
        MsgBody::ReduceUp { array, seq, op, count, data } => {
            w.u8(2).u32(array.0).u32(*seq).u8(op.to_u8()).u64(*count);
            encode_reduce_data(w, data);
        }
        MsgBody::AtSyncReady { stats } => {
            w.u8(3).u32(stats.len() as u32);
            for s in stats {
                encode_obj(w, s.key);
                w.u64(s.load_ns).u32(s.comm.len() as u32);
                for (dst, n) in &s.comm {
                    encode_obj(w, *dst);
                    w.u64(*n);
                }
            }
        }
        MsgBody::LbAssign { assignments } => {
            w.u8(4).u32(assignments.len() as u32);
            for (k, pe) in assignments {
                encode_obj(w, *k);
                w.u32(pe.0);
            }
        }
        MsgBody::MigrateState { key, state } => {
            w.u8(5);
            encode_obj(w, *key);
            w.bytes(state);
        }
        MsgBody::LbArrived => {
            w.u8(6);
        }
        MsgBody::LbResume => {
            w.u8(7);
        }
        MsgBody::QdProbe { phase } => {
            w.u8(8).u32(*phase);
        }
        MsgBody::QdReply { phase, sent, processed, active } => {
            w.u8(9).u32(*phase).u64(*sent).u64(*processed).bool(*active);
        }
        MsgBody::Startup => {
            w.u8(10);
        }
        MsgBody::Exit => {
            w.u8(11);
        }
        MsgBody::CkptCollect => {
            w.u8(12);
        }
        MsgBody::CkptData { states } => {
            w.u8(13).u32(states.len() as u32);
            for (key, state) in states {
                encode_obj(w, *key);
                w.bytes(state);
            }
        }
        MsgBody::RestoreResume => {
            w.u8(14);
        }
        MsgBody::Multi { array, elems, entry, payload } => {
            w.u8(15).u32(array.0).u16(entry.0).u32(elems.len() as u32);
            for e in elems {
                w.u32(e.0);
            }
            w.bytes(payload);
        }
        MsgBody::Heartbeat => {
            w.u8(16);
        }
        MsgBody::BuddyCollect { epoch, lb_round } => {
            w.u8(17).u32(*epoch).u32(*lb_round);
        }
        MsgBody::BuddyStore { epoch, owner, lb_round, states, red_next } => {
            w.u8(18).u32(*epoch).u32(owner.0).u32(*lb_round).u32(states.len() as u32);
            for (key, state) in states {
                encode_obj(w, *key);
                w.bytes(state);
            }
            w.u32_slice(red_next);
        }
        MsgBody::BuddyAck { epoch } => {
            w.u8(19).u32(*epoch);
        }
    }
}

fn decode_body<P: PayloadSrc>(r: &mut WireReader, payloads: &P) -> Result<MsgBody, WireError> {
    Ok(match r.u8()? {
        0 => {
            let target = decode_obj(r)?;
            let entry = EntryId(r.u16()?);
            let payload = payloads.payload(r)?;
            MsgBody::App { target, entry, payload }
        }
        1 => {
            let array = ArrayId(r.u32()?);
            let entry = EntryId(r.u16()?);
            let payload = payloads.payload(r)?;
            MsgBody::Broadcast { array, entry, payload }
        }
        2 => {
            let array = ArrayId(r.u32()?);
            let seq = r.u32()?;
            let op = ReduceOp::from_u8(r.u8()?)?;
            let count = r.u64()?;
            let data = decode_reduce_data(r)?;
            MsgBody::ReduceUp { array, seq, op, count, data }
        }
        3 => {
            let n = r.u32()? as usize;
            let mut stats = Vec::with_capacity(n);
            for _ in 0..n {
                let key = decode_obj(r)?;
                let load_ns = r.u64()?;
                let m = r.u32()? as usize;
                let mut comm = Vec::with_capacity(m);
                for _ in 0..m {
                    let dst = decode_obj(r)?;
                    comm.push((dst, r.u64()?));
                }
                stats.push(LbObjStat { key, load_ns, comm });
            }
            MsgBody::AtSyncReady { stats }
        }
        4 => {
            let n = r.u32()? as usize;
            let mut assignments = Vec::with_capacity(n);
            for _ in 0..n {
                let k = decode_obj(r)?;
                assignments.push((k, Pe(r.u32()?)));
            }
            MsgBody::LbAssign { assignments }
        }
        5 => {
            let key = decode_obj(r)?;
            let state = payloads.payload(r)?;
            MsgBody::MigrateState { key, state }
        }
        6 => MsgBody::LbArrived,
        7 => MsgBody::LbResume,
        8 => MsgBody::QdProbe { phase: r.u32()? },
        9 => MsgBody::QdReply { phase: r.u32()?, sent: r.u64()?, processed: r.u64()?, active: r.bool()? },
        10 => MsgBody::Startup,
        11 => MsgBody::Exit,
        12 => MsgBody::CkptCollect,
        13 => {
            let n = r.u32()? as usize;
            let mut states = Vec::with_capacity(n);
            for _ in 0..n {
                let key = decode_obj(r)?;
                states.push((key, payloads.payload(r)?));
            }
            MsgBody::CkptData { states }
        }
        14 => MsgBody::RestoreResume,
        15 => {
            let array = ArrayId(r.u32()?);
            let entry = EntryId(r.u16()?);
            let n = r.u32()? as usize;
            let mut elems = Vec::with_capacity(n);
            for _ in 0..n {
                elems.push(ElemId(r.u32()?));
            }
            let payload = payloads.payload(r)?;
            MsgBody::Multi { array, elems, entry, payload }
        }
        16 => MsgBody::Heartbeat,
        17 => MsgBody::BuddyCollect { epoch: r.u32()?, lb_round: r.u32()? },
        18 => {
            let epoch = r.u32()?;
            let owner = Pe(r.u32()?);
            let lb_round = r.u32()?;
            let n = r.u32()? as usize;
            let mut states = Vec::with_capacity(n);
            for _ in 0..n {
                let key = decode_obj(r)?;
                states.push((key, payloads.payload(r)?));
            }
            let red_next = r.u32_vec()?;
            MsgBody::BuddyStore { epoch, owner, lb_round, states, red_next }
        }
        19 => MsgBody::BuddyAck { epoch: r.u32()? },
        _ => return Err(WireError { context: "MsgBody tag" }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(body: MsgBody) -> MsgBody {
        let env = Envelope { src: Pe(3), dst: Pe(9), priority: -2, sent_at_ns: 123, body };
        let bytes = env.encode();
        let back = Envelope::decode(&bytes).expect("decodes");
        assert_eq!(back.src, Pe(3));
        assert_eq!(back.dst, Pe(9));
        assert_eq!(back.priority, -2);
        assert_eq!(back.sent_at_ns, 123);
        back.body
    }

    #[test]
    fn app_roundtrip() {
        let body = roundtrip(MsgBody::App {
            target: ObjKey::new(ArrayId(1), ElemId(42)),
            entry: EntryId(7),
            payload: Bytes::from_static(b"params"),
        });
        match body {
            MsgBody::App { target, entry, payload } => {
                assert_eq!(target, ObjKey::new(ArrayId(1), ElemId(42)));
                assert_eq!(entry, EntryId(7));
                assert_eq!(&payload[..], b"params");
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn broadcast_roundtrip() {
        match roundtrip(MsgBody::Broadcast { array: ArrayId(2), entry: EntryId(1), payload: Bytes::from_static(b"x") })
        {
            MsgBody::Broadcast { array, entry, payload } => {
                assert_eq!((array, entry), (ArrayId(2), EntryId(1)));
                assert_eq!(&payload[..], b"x");
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn reduce_variants_roundtrip() {
        for data in [
            ReduceData::F64(vec![1.5, -2.5]),
            ReduceData::U64(vec![10, 20, 30]),
            ReduceData::Gathered(vec![(0, b"a".to_vec()), (3, b"bc".to_vec())]),
            ReduceData::Exact(exact_sums()),
        ] {
            match roundtrip(MsgBody::ReduceUp {
                array: ArrayId(0),
                seq: 9,
                op: ReduceOp::Gather,
                count: 4,
                data: data.clone(),
            }) {
                MsgBody::ReduceUp { seq, count, data: got, .. } => {
                    assert_eq!(seq, 9);
                    assert_eq!(count, 4);
                    assert_eq!(got, data);
                }
                other => panic!("wrong body: {other:?}"),
            }
        }
    }

    /// Exact sums of every shape the codec distinguishes: zero, −0, tiny,
    /// huge, negative, and the NaN and infinity flags.
    fn exact_sums() -> Vec<ExactSum> {
        let mut mixed = ExactSum::new(f64::MAX);
        mixed.add(-1e-300);
        mixed.add(f64::NEG_INFINITY);
        let mut nan = ExactSum::new(f64::NAN);
        nan.add(f64::INFINITY);
        [0.0, -0.0, 5e-324, -2.5, f64::MAX, -f64::MAX, 1e16]
            .into_iter()
            .map(ExactSum::new)
            .chain([mixed, nan])
            .collect()
    }

    fn exact_reduce_up(sums: Vec<ExactSum>) -> Envelope {
        let body = MsgBody::ReduceUp {
            array: ArrayId(0),
            seq: 1,
            op: ReduceOp::SumF64,
            count: 2,
            data: ReduceData::Exact(sums),
        };
        Envelope { src: Pe(1), dst: Pe(0), priority: 0, sent_at_ns: 0, body }
    }

    #[test]
    fn exact_sum_wire_size_tracks_its_encoding() {
        let small = exact_reduce_up(vec![ExactSum::new(1.0)]);
        let all = exact_reduce_up(exact_sums());
        let grown = all.encode().len() - small.encode().len();
        assert_eq!(all.wire_size() - small.wire_size(), grown as u64);
        assert!(small.encode().len() < 64, "a one-term sum sends one limb, not 34");
    }

    #[test]
    fn exact_sum_decode_rejects_bad_flags_and_limb_ranges() {
        // Header 21 bytes, ReduceUp fields 18, data tag and count 5: the
        // sum's flags, lo and hi follow at 44, 45 and 46.
        let good = exact_reduce_up(vec![ExactSum::new(-1.0)]).encode();
        assert!(Envelope::decode(&good).is_ok());
        let patched = |at: usize, v: u8| {
            let mut b = good.clone();
            b[at] = v;
            Envelope::decode(&b).map(|_| ()).map_err(|e| e.context)
        };
        assert_eq!(patched(44, 0x20), Err("ExactSum flags"), "unknown flag bit");
        assert_eq!(patched(44, 0x80), Err("ExactSum flags"), "unknown flag bit");
        assert_eq!(patched(46, 35), Err("ExactSum limb range"), "range past 34 limbs");
        assert_eq!(patched(45, 18), Err("ExactSum limb range"), "range that ends before it starts");
        let mut huge = good.clone();
        huge[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Envelope::decode(&huge).map(|_| ()).map_err(|e| e.context), Err("ExactSum count"));
    }

    #[test]
    fn reduce_ops_roundtrip() {
        for op in [ReduceOp::SumF64, ReduceOp::MinF64, ReduceOp::MaxF64, ReduceOp::SumU64, ReduceOp::Gather] {
            assert_eq!(ReduceOp::from_u8(op.to_u8()).unwrap(), op);
        }
        assert!(ReduceOp::from_u8(99).is_err());
    }

    #[test]
    fn lb_bodies_roundtrip() {
        let stats = vec![LbObjStat {
            key: ObjKey::new(ArrayId(1), ElemId(2)),
            load_ns: 555,
            comm: vec![(ObjKey::new(ArrayId(1), ElemId(3)), 17)],
        }];
        match roundtrip(MsgBody::AtSyncReady { stats: stats.clone() }) {
            MsgBody::AtSyncReady { stats: got } => assert_eq!(got, stats),
            other => panic!("wrong body: {other:?}"),
        }
        let assignments = vec![(ObjKey::new(ArrayId(1), ElemId(0)), Pe(4))];
        match roundtrip(MsgBody::LbAssign { assignments: assignments.clone() }) {
            MsgBody::LbAssign { assignments: got } => assert_eq!(got, assignments),
            other => panic!("wrong body: {other:?}"),
        }
        match roundtrip(MsgBody::MigrateState {
            key: ObjKey::new(ArrayId(1), ElemId(5)),
            state: Bytes::from_static(b"packed"),
        }) {
            MsgBody::MigrateState { key, state } => {
                assert_eq!(key, ObjKey::new(ArrayId(1), ElemId(5)));
                assert_eq!(&state[..], b"packed");
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn control_bodies_roundtrip() {
        assert!(matches!(roundtrip(MsgBody::LbArrived), MsgBody::LbArrived));
        assert!(matches!(roundtrip(MsgBody::LbResume), MsgBody::LbResume));
        assert!(matches!(roundtrip(MsgBody::Startup), MsgBody::Startup));
        assert!(matches!(roundtrip(MsgBody::Exit), MsgBody::Exit));
        match roundtrip(MsgBody::QdProbe { phase: 3 }) {
            MsgBody::QdProbe { phase } => assert_eq!(phase, 3),
            other => panic!("wrong body: {other:?}"),
        }
        match roundtrip(MsgBody::QdReply { phase: 3, sent: 10, processed: 10, active: false }) {
            MsgBody::QdReply { phase, sent, processed, active } => {
                assert_eq!((phase, sent, processed, active), (3, 10, 10, false));
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn checkpoint_bodies_roundtrip() {
        assert!(matches!(roundtrip(MsgBody::CkptCollect), MsgBody::CkptCollect));
        assert!(matches!(roundtrip(MsgBody::RestoreResume), MsgBody::RestoreResume));
        let states = vec![
            (ObjKey::new(ArrayId(0), ElemId(3)), Bytes::from_static(b"packed-3")),
            (ObjKey::new(ArrayId(1), ElemId(0)), Bytes::new()),
        ];
        match roundtrip(MsgBody::CkptData { states: states.clone() }) {
            MsgBody::CkptData { states: got } => assert_eq!(got, states),
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn failure_tolerance_bodies_roundtrip() {
        assert!(matches!(roundtrip(MsgBody::Heartbeat), MsgBody::Heartbeat));
        match roundtrip(MsgBody::BuddyCollect { epoch: 5, lb_round: 12 }) {
            MsgBody::BuddyCollect { epoch, lb_round } => assert_eq!((epoch, lb_round), (5, 12)),
            other => panic!("wrong body: {other:?}"),
        }
        let states = vec![
            (ObjKey::new(ArrayId(0), ElemId(3)), Bytes::from_static(b"elem-3")),
            (ObjKey::new(ArrayId(1), ElemId(0)), Bytes::new()),
        ];
        match roundtrip(MsgBody::BuddyStore {
            epoch: 2,
            owner: Pe(4),
            lb_round: 6,
            states: states.clone(),
            red_next: vec![7, 0],
        }) {
            MsgBody::BuddyStore { epoch, owner, lb_round, states: got, red_next } => {
                assert_eq!((epoch, owner, lb_round), (2, Pe(4), 6));
                assert_eq!(got, states);
                assert_eq!(red_next, vec![7, 0]);
            }
            other => panic!("wrong body: {other:?}"),
        }
        match roundtrip(MsgBody::BuddyAck { epoch: 9 }) {
            MsgBody::BuddyAck { epoch } => assert_eq!(epoch, 9),
            other => panic!("wrong body: {other:?}"),
        }
        // All fault-tolerance traffic is system traffic.
        let env = Envelope { src: Pe(0), dst: Pe(1), priority: 0, sent_at_ns: 0, body: MsgBody::Heartbeat };
        assert!(env.is_system());
    }

    #[test]
    fn multi_roundtrip() {
        match roundtrip(MsgBody::Multi {
            array: ArrayId(2),
            elems: vec![ElemId(1), ElemId(9), ElemId(4)],
            entry: EntryId(7),
            payload: Bytes::from_static(b"shared"),
        }) {
            MsgBody::Multi { array, elems, entry, payload } => {
                assert_eq!(array, ArrayId(2));
                assert_eq!(elems, vec![ElemId(1), ElemId(9), ElemId(4)]);
                assert_eq!(entry, EntryId(7));
                assert_eq!(&payload[..], b"shared");
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn multi_wire_size_shares_payload() {
        let mk = |n_elems: u32| Envelope {
            src: Pe(0),
            dst: Pe(1),
            priority: 0,
            sent_at_ns: 0,
            body: MsgBody::Multi {
                array: ArrayId(0),
                elems: (0..n_elems).map(ElemId).collect(),
                entry: EntryId(0),
                payload: Bytes::from(vec![0u8; 1000]),
            },
        };
        // Ten extra destinations cost 40 bytes, not 10 payload copies.
        assert_eq!(mk(11).wire_size() - mk(1).wire_size(), 40);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Envelope::decode(&[]).is_err());
        assert!(Envelope::decode(&[0; 21]).is_err());
        // Valid header, bad body tag.
        let mut w = WireWriter::new();
        w.u32(0).u32(1).i32(0).u64(0).u8(200);
        assert!(Envelope::decode(&w.finish()).is_err());
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let env = Envelope { src: Pe(0), dst: Pe(1), priority: 0, sent_at_ns: 0, body: MsgBody::Exit };
        let mut bytes = env.encode();
        bytes.push(0);
        assert!(Envelope::decode(&bytes).is_err());
    }

    #[test]
    fn system_classification() {
        let app = Envelope {
            src: Pe(0),
            dst: Pe(1),
            priority: 0,
            sent_at_ns: 0,
            body: MsgBody::App { target: ObjKey::new(ArrayId(1), ElemId(0)), entry: EntryId(0), payload: Bytes::new() },
        };
        assert!(!app.is_system());
        let sys = Envelope { body: MsgBody::QdProbe { phase: 0 }, ..app.clone() };
        assert!(sys.is_system());
    }

    #[test]
    fn encode_into_matches_encode_and_appends() {
        let env = Envelope {
            src: Pe(2),
            dst: Pe(5),
            priority: 1,
            sent_at_ns: 77,
            body: MsgBody::App {
                target: ObjKey::new(ArrayId(0), ElemId(1)),
                entry: EntryId(3),
                payload: Bytes::from_static(b"pp"),
            },
        };
        let mut buf = BytesMut::new();
        buf.put_slice(b"prefix");
        env.encode_into(&mut buf);
        assert_eq!(&buf.as_slice()[..6], b"prefix");
        assert_eq!(&buf.as_slice()[6..], env.encode().as_slice());
        assert_eq!(env.encode_bytes().as_slice(), env.encode().as_slice());
    }

    #[test]
    fn decode_shared_aliases_frame_allocation() {
        let env = Envelope {
            src: Pe(0),
            dst: Pe(1),
            priority: 0,
            sent_at_ns: 9,
            body: MsgBody::App {
                target: ObjKey::new(ArrayId(1), ElemId(4)),
                entry: EntryId(2),
                payload: Bytes::from(vec![7u8; 64]),
            },
        };
        let frame = env.encode_bytes();
        let back = Envelope::decode_shared(&frame).expect("decodes");
        let MsgBody::App { payload, .. } = &back.body else { panic!("wrong body") };
        assert_eq!(&payload[..], &[7u8; 64]);
        // The payload is a sub-view of the frame bytes, not a copy: its
        // slice sits inside the frame's own slice.
        let frame_range = frame.as_slice().as_ptr_range();
        let payload_range = payload.as_slice().as_ptr_range();
        assert!(frame_range.start <= payload_range.start && payload_range.end <= frame_range.end);
    }

    #[test]
    fn decode_rejects_wrong_leading_tag() {
        let env = Envelope { src: Pe(0), dst: Pe(1), priority: 0, sent_at_ns: 0, body: MsgBody::Exit };
        let mut bytes = env.encode();
        bytes[0] ^= 0xFF;
        assert!(Envelope::decode(&bytes).is_err());
    }

    #[test]
    fn wire_size_tracks_payload() {
        let mk = |n: usize| Envelope {
            src: Pe(0),
            dst: Pe(1),
            priority: 0,
            sent_at_ns: 0,
            body: MsgBody::App {
                target: ObjKey::new(ArrayId(1), ElemId(0)),
                entry: EntryId(0),
                payload: Bytes::from(vec![0u8; n]),
            },
        };
        assert_eq!(mk(100).wire_size() - mk(0).wire_size(), 100);
    }
}
