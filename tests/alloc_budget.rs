//! Heap budgets the message path must keep, measured with a counting
//! allocator rather than a clock, so they hold on any host.
//!
//! Counters are per thread (`cargo test` runs each test on its own): a
//! test reads only what its own thread allocated, which is the whole of a
//! `SimEngine` run and exactly the calling side of the aggregated send.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::netsim::network::NetworkModel;
use gridmdo::netsim::{AggConfig, FaultPlan};
use gridmdo::prelude::*;
use gridmdo::runtime::envelope::{Envelope, MsgBody};
use gridmdo::runtime::wire::{WireReader, WireWriter};
use gridmdo::vmi::{Aggregator, ReliableTransport, Transport, TransportConfig};

struct Counting;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds: allocated minus freed here.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the last `Census::begin`.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Largest single request since the last `Census::begin`.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn grew(by: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(by)));
    moved(by as isize);
}

fn moved(by: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain thread-local cells and never touch the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        moved(-(layout.size() as isize));
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        moved(-(layout.size() as isize));
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What this thread allocated since `begin`.
struct Census {
    allocs: u64,
    live: isize,
}

impl Census {
    fn begin() -> Census {
        let live = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(live));
        LARGEST.with(|l| l.set(0));
        Census { allocs: ALLOCS.with(Cell::get), live }
    }
    fn allocs(&self) -> u64 {
        ALLOCS.with(Cell::get) - self.allocs
    }
    fn peak_bytes(&self) -> usize {
        (PEAK.with(Cell::get) - self.live) as usize
    }
    fn largest(&self) -> usize {
        LARGEST.with(Cell::get)
    }
}

/// LeanMD at the paper's size on the simulator (`sim_sweep`'s second half,
/// and its heap peak): 216 cells fan 4.5 KB of coordinates out to 27 pairs
/// each, 3,024 pairs send 3.4 KB of forces back to two cells each.
///
/// Readings (release and debug agree; the run is deterministic):
///
/// | | live-heap peak | allocations per envelope |
/// |---|---|---|
/// | parent `72b68c4` | 31,918,018 B | 15.834 (185,697 / 11,728) |
/// | this change | 24,969,226 B | 8.172 (95,841 / 11,728) |
///
/// The budgets are the change's readings plus 10 %; the parent fails both.
/// What moved: a coordinate message is one buffer shared by its 27
/// recipients and kept, unparsed, by the pairs that wait on it (it was 27
/// clones, each parsed into a private copy), and every payload is written
/// once at its final size (it was grown through ten doublings into a
/// 4,096-byte block for 3,380 bytes).  What is left is mostly the force
/// path: `forces_payload` still flattens a temporary (held back, see its
/// doc comment), and a cell holds its 27 decoded force arrays until it
/// integrates, 19.6 MB over 216 cells.
#[test]
fn leanmd_on_the_simulator_stays_inside_its_heap_budget() {
    const PEAK_BUDGET: usize = 27_466_000;
    const ALLOCS_PER_ENVELOPE_BUDGET: f64 = 8.99;
    // Two clusters of 16 PEs, 16 ms apart: `uniform(2, 16)`.
    let net = NetworkModel::two_cluster_sweep(32, Dur::from_millis(16));
    let census = Census::begin();
    let out = leanmd::run_sim(MdConfig::paper(1), net, RunConfig::default());
    let (peak, allocs) = (census.peak_bytes(), census.allocs());
    let envelopes: u64 = out.report.pe_messages.iter().sum();
    assert!(envelopes > 11_664, "one step of LeanMD: {envelopes} envelopes");
    let per_envelope = allocs as f64 / envelopes as f64;
    println!("live-heap peak {peak} B, {allocs} allocations / {envelopes} envelopes = {per_envelope:.3}");
    assert!(peak <= PEAK_BUDGET, "live-heap peak {peak} B is over the budget of {PEAK_BUDGET} B");
    assert!(
        per_envelope <= ALLOCS_PER_ENVELOPE_BUDGET,
        "{per_envelope:.3} allocations per envelope is over the budget of {ALLOCS_PER_ENVELOPE_BUDGET}"
    );
}

/// The aggregated send path in its steady state — frame buffer warm, no
/// flush inside the window — encodes in place and allocates nothing: the
/// one exact assertion of the former `perf-smoke` CI job
/// (`msgpath`'s `send_path_allocs_per_envelope.agg_on == 0`), here with
/// the envelopes built ahead of the window so nothing has to be
/// subtracted for the caller.
#[test]
fn aggregated_send_path_allocates_nothing_per_envelope() {
    let topo = Topology::two_cluster(2);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(1));
    let transport = Transport::new(TransportConfig::new(topo, latency));
    let rt = ReliableTransport::with_plan(transport, FaultPlan::default().with_rto(Dur::from_millis(500)));
    // Never flushes on size or deadline within the test.
    let policy = AggConfig::default().with_max_bytes(64 << 20).with_max_delay(Dur::from_millis(10_000));
    let agg = Aggregator::with_policy(rt, policy);
    let (src, dst) = (Pe(0), Pe(1));
    let envelope = |n: u32| Envelope {
        src,
        dst,
        priority: 0,
        sent_at_ns: u64::from(n),
        body: MsgBody::App {
            target: ObjKey::new(ArrayId(1), ElemId(n)),
            entry: EntryId(7),
            payload: vec![0xAB; 32].into(),
        },
    };
    let (warmup, window) = (2048, 1024);
    let envelopes: Vec<Envelope> = (0..warmup + window).map(envelope).collect();
    for env in &envelopes[..warmup as usize] {
        agg.send_with(src, dst, env.priority, false, |buf| env.encode_into(buf));
    }
    let census = Census::begin();
    for env in &envelopes[warmup as usize..] {
        agg.send_with(src, dst, env.priority, false, |buf| env.encode_into(buf));
    }
    let allocs = census.allocs();
    agg.flush(src);
    agg.shutdown();
    agg.reliable().shutdown();
    agg.inner().shutdown();
    assert_eq!(allocs, 0, "{window} steady-state sends allocated {allocs} times");
}

/// A count prefix that lies costs the reader nothing: the body has to be
/// there before anything is allocated for it.
#[test]
fn a_lying_count_is_refused_without_allocating_for_it() {
    let mut w = WireWriter::new();
    w.u32(u32::MAX).u64(0); // "4 billion f64s follow"; eight bytes do
    let buf = w.finish();
    let census = Census::begin();
    assert!(WireReader::new(&buf).f64_triples().is_err());
    assert!(WireReader::new(&buf).f64_vec().is_err());
    assert!(WireReader::new(&buf).u32_vec().is_err());
    assert_eq!((census.allocs(), census.largest()), (0, 0));
}
