//! Heap budgets the message path must keep, measured with a counting
//! allocator rather than a clock, so they hold on any host.
//!
//! Counters are per thread (`cargo test` runs each test on its own): a
//! test reads only what its own thread allocated, which is the whole of a
//! `SimEngine` run and exactly the calling side of the aggregated send.
//! The exceptions have to see the PE threads of a wall-clock run — the
//! packet-slot census and the whole-process live bytes and allocation
//! count — so they count on every thread, and the tests of this file take
//! [`alone`] and run one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::apps::stencil::{self, StencilConfig};
use gridmdo::netsim::network::NetworkModel;
use gridmdo::netsim::{AggConfig, FaultPlan};
use gridmdo::prelude::*;
use gridmdo::runtime::envelope::{Envelope, MsgBody};
use gridmdo::runtime::wire::{WireReader, WireWriter};
use gridmdo::vmi::{Aggregator, Mailbox, Packet, ReliableTransport, Transport, TransportConfig};

struct Counting;

/// Bytes live, on all threads together, in packet-slot arrays: blocks the
/// size of 16, 32, 64, … [`Packet`]s, which is what a mailbox lane's ring
/// and a mailbox's queues are made of (the first ring size and up; nothing
/// else in a run is both that size and that shape often enough to matter).
static SLOT_BYTES: AtomicIsize = AtomicIsize::new(0);
/// High-water mark of `SLOT_BYTES` since it was last reset.
static SLOT_PEAK: AtomicIsize = AtomicIsize::new(0);

/// Bytes live on all threads together, their high-water mark since it was
/// last reset, and allocations made, for the wall-clock runs.
static ALL_LIVE: AtomicIsize = AtomicIsize::new(0);
static ALL_PEAK: AtomicIsize = AtomicIsize::new(0);
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn slot_bytes(size: usize, align: usize) -> isize {
    let slot = std::mem::size_of::<Packet>();
    let is_slots = align == std::mem::align_of::<Packet>() && size.is_multiple_of(slot);
    if is_slots && size / slot >= 16 && (size / slot).is_power_of_two() {
        size as isize
    } else {
        0
    }
}

fn slots_moved(by: isize) {
    if by != 0 {
        let now = SLOT_BYTES.fetch_add(by, Ordering::Relaxed) + by;
        SLOT_PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

/// One test of this file at a time (module docs).
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(by)));
    moved(by as isize);
}

fn moved(by: isize) {
    let now = ALL_LIVE.fetch_add(by, Ordering::Relaxed) + by;
    ALL_PEAK.fetch_max(now, Ordering::Relaxed);
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
        slots_moved(slot_bytes(layout.size(), layout.align()));
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        moved(-(layout.size() as isize));
        slots_moved(-slot_bytes(layout.size(), layout.align()));
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        moved(-(layout.size() as isize));
        slots_moved(slot_bytes(new_size, layout.align()) - slot_bytes(layout.size(), layout.align()));
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
    /// Bytes this thread holds now that it did not at `begin`.
    fn live_bytes(&self) -> isize {
        LIVE.with(Cell::get) - self.live
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
    let _alone = alone();
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

/// The same application on the wall-clock engine, where a cell and most of
/// the pairs it feeds share a PE: two steps of `leanmd_tcp`'s job, both PE
/// threads in this process, no latency injected.  All threads counted.
///
/// | | live-heap peak (three runs) | allocations per envelope |
/// |---|---|---|
/// | parent `d5fe858` | 30,676,235–31,022,195 B | 10.079 (235,180 / 23,333) |
/// | this change | 25,092,183–25,129,491 B | 7.601 (177,351 / 23,333) |
///
/// The budgets are the change's readings plus 10 %; the parent fails both.
/// What moved: an envelope a PE addresses to itself (five in six of them
/// here) waits in that PE's own queue as it is, its payload the buffer the
/// 27 recipients share; it was encoded into a 4.5 KB block of its own for
/// each recipient.  Two steps, because one step's peak is its force phase
/// on both sides (24.0–25.1 MB against 28.8–29.3): a cell holds its 27
/// decoded force arrays until it integrates, which is the floor the
/// simulator's budget above names, and only from the second step on do a
/// step's coordinate copies overlap the forces of the one before.  That
/// floor is also why the live heap moves by 5.6 MB where the resident set of
/// `leanmd_tcp` moves by 20 MiB: the encoded copies were freed before the
/// force phase peaked, but malloc had already asked the kernel for them.
#[test]
fn leanmd_on_the_wall_clock_engine_stays_inside_its_heap_budget() {
    let _alone = alone();
    const PEAK_BUDGET: isize = 27_640_000;
    const ALLOCS_PER_ENVELOPE_BUDGET: f64 = 8.36;
    let topo = Topology::uniform(2, 1);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
    let (live, allocs) = (ALL_LIVE.load(Ordering::Relaxed), ALL_ALLOCS.load(Ordering::Relaxed));
    ALL_PEAK.store(live, Ordering::Relaxed);
    let out = leanmd::run_threaded(MdConfig::paper(2), topo, latency, RunConfig::default());
    let peak = ALL_PEAK.load(Ordering::Relaxed) - live;
    let allocs = ALL_ALLOCS.load(Ordering::Relaxed) - allocs;
    let envelopes: u64 = out.report.pe_messages.iter().sum();
    assert!(envelopes > 2 * 11_664, "two steps of LeanMD: {envelopes} envelopes");
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
    let _alone = alone();
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
    let _alone = alone();
    let mut w = WireWriter::new();
    w.u32(u32::MAX).u64(0); // "4 billion f64s follow"; eight bytes do
    let buf = w.finish();
    let census = Census::begin();
    assert!(WireReader::new(&buf).f64_triples().is_err());
    assert!(WireReader::new(&buf).f64_vec().is_err());
    assert!(WireReader::new(&buf).u32_vec().is_err());
    assert_eq!((census.allocs(), census.largest()), (0, 0));
}

/// A lane's memory follows its traffic.  One post costs a mailbox a
/// 16-slot ring, not a 1,024-slot one; 3,000 posts with no take carry the
/// lane through every doubling to the cap, each swapped-out ring freed on
/// the spot; and dropping the mailbox with packets in the grown ring and in
/// the queue behind it gives every byte back, payloads included.
#[test]
fn a_lane_costs_what_its_traffic_needs_and_drop_gives_it_all_back() {
    let _alone = alone();
    let slot = std::mem::size_of::<Packet>();
    let packet = |n: u32| Packet::new(Pe(0), Pe(0), vec![0xCD; 24 + n as usize % 8].into());
    let before = SLOT_BYTES.load(Ordering::Relaxed);
    let census = Census::begin();
    let mb = Mailbox::new();
    mb.post(packet(0));
    assert_eq!(census.largest(), 16 * slot, "a lane starts at 16 slots");
    assert!(census.live_bytes() < 2048, "a cold lane and its one packet: {} B", census.live_bytes());
    for n in 1..3_000 {
        mb.post(packet(n));
    }
    // Of the seven rings only the last lives, 961 packets in it.  The queue
    // behind the lane holds the 2,039 that were merged out at an overflow, in
    // as many slots as std's `VecDeque` grew to for them: 2,048 today, and
    // none that the census sees if that ever stops being a power of two.
    let live = (SLOT_BYTES.load(Ordering::Relaxed) - before) as usize;
    let ring = 1024 * slot;
    assert!(live >= ring, "the lane's last ring: {live} B of packet slots live");
    assert!(live - ring <= 4096 * slot, "a queue of 2,039 packets: {} slots beside the ring", (live - ring) / slot);
    assert_eq!(mb.len(), 3_000);
    drop(mb);
    assert_eq!(SLOT_BYTES.load(Ordering::Relaxed), before);
    // What is left is this thread's lane-cache entry for the mailbox, which
    // goes the next time the cache prunes.
    assert!(census.live_bytes() <= 128, "rings, queue and 3,000 payloads freed: {} B left", census.live_bytes());
}

/// What the lanes of a wall-clock run pin: `stencil_mask`'s job at its short
/// length, 256 objects on two clusters of four PE threads with 32 ms between
/// them.  Since a PE keeps what it addresses to itself in its own queue (96
/// ghosts a step, the traffic that used to grow eight lanes to 128 slots),
/// 32 `(posting thread, mailbox)` pairs exchange packets — a neighbour's 16
/// ghosts a step, the host's START — and none of them leaves 16 slots.
///
/// High-water mark of the bytes in packet-slot arrays, all threads, and
/// allocations per envelope:
///
/// | | slot bytes | allocations per envelope |
/// |---|---|---|
/// | `7eb3cf1` | 2,300,032 B in three runs of three (40 rings of 1,024 slots are 2,293,760 of it) | |
/// | parent `d5fe858` | 122,752–129,024 B over three runs | 6.87 |
/// | this change | 56,448–58,240 B over three runs | 4.59 |
///
/// How deep the queues get depends on the host's schedule, which nothing the
/// other budgets of this file measure does, so the slot budget is not 10 %
/// above a reading but above what any schedule can reach.  An object is never
/// more than a step ahead of its neighbours, so at most two steps of ghosts
/// are on their way to a PE: 256 packets, 64 of them from other PEs.  At the
/// worst that is four lanes of 32 slots, the host's 16 and a queue of 64
/// behind them — under 12 KB a PE.  The budget stays 1 MiB: under half of
/// what `7eb3cf1` pinned before it had queued a packet.  The allocation
/// budget is the reading plus 10 %; the parent fails it (an envelope that
/// stays on its PE is no longer encoded, framed or decoded).
#[test]
fn the_lanes_of_a_wall_clock_stencil_run_stay_inside_their_budget() {
    const SLOT_BYTES_BUDGET: isize = 1024 * 1024;
    const ALLOCS_PER_ENVELOPE_BUDGET: f64 = 5.05;
    let _alone = alone();
    let topo = Topology::uniform(2, 4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(32));
    let tcfg = ThreadedConfig::new(latency).with_compute_sleep();
    let before = SLOT_BYTES.load(Ordering::Relaxed);
    SLOT_PEAK.store(before, Ordering::Relaxed);
    let allocs = ALL_ALLOCS.load(Ordering::Relaxed);
    let out = stencil::run_threaded_with(StencilConfig::paper(256, 6), topo, tcfg, RunConfig::default());
    let peak = SLOT_PEAK.load(Ordering::Relaxed) - before;
    let per_envelope =
        (ALL_ALLOCS.load(Ordering::Relaxed) - allocs) as f64 / out.report.pe_messages.iter().sum::<u64>() as f64;
    println!(
        "packet-slot bytes at their peak: {peak} B, {per_envelope:.2} allocations per envelope ({:.1} ms a step)",
        out.ms_per_step
    );
    assert!(peak > 0, "the run posted through lanes");
    assert!(peak <= SLOT_BYTES_BUDGET, "{peak} B of packet slots is over the budget of {SLOT_BYTES_BUDGET} B");
    assert!(
        per_envelope <= ALLOCS_PER_ENVELOPE_BUDGET,
        "{per_envelope:.2} allocations per envelope is over the budget of {ALLOCS_PER_ENVELOPE_BUDGET}"
    );
    assert_eq!(SLOT_BYTES.load(Ordering::Relaxed), before, "all of it freed with the run");
}
