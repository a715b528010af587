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
use gridmdo::obs::PeRecorder;
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
/// | `72b68c4` | 31,918,018 B | 15.834 (185,697 / 11,728) |
/// | `3b0a3d8` | 24,969,226 B | 8.172 (95,841 / 11,728) |
/// | parent `ed157e8` | 17,969,674 B | 7.389 (86,662 / 11,728) |
/// | this change | 16,034,010 B | 7.344 (86,136 / 11,728) |
///
/// The budgets are the change's readings plus 10 %; the parent fails the
/// peak's (its allocations per envelope were not to rise, and fell).  What
/// moved in `3b0a3d8`: a cell stopped decoding each force message into a
/// 3,360-byte array and holding all 27 until it integrated; a pair holds
/// its one pending step inline (it was a map); cells and pairs share one
/// configuration; and the 32 disabled recorders allocate nothing.  What
/// moved here: a cell adds an early force message into its sibling
/// subtree's buffer, in place, as soon as that subtree of its fixed
/// pairwise tree is complete, where it held every message after the first
/// one missing in membership order.  Of the 3,606 force messages live at
/// the peak (4,182 in the parent; `heap_census --job sim_sweep`), 621 are
/// held by cells; the rest wait in the simulator's queues.
#[test]
fn leanmd_on_the_simulator_stays_inside_its_heap_budget() {
    let _alone = alone();
    const PEAK_BUDGET: usize = 17_638_000;
    const ALLOCS_PER_ENVELOPE_BUDGET: f64 = 8.08;
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
/// | | live-heap peak | allocations per envelope |
/// |---|---|---|
/// | `d5fe858` | 30,676,235–31,022,195 B (three runs) | 10.079 (235,180 / 23,333) |
/// | `3b0a3d8` | 22,595,987–25,046,643 B (three runs) | 7.600–7.601 (177,353 / 23,333) |
/// | parent `ed157e8` | 17,882,363–20,771,283 B (twelve runs) | 6.902–6.903 (161,061 / 23,332) |
/// | this change | 17,674,407–19,773,831 B (seventeen runs) | 6.891–6.892 (160,800 / 23,333) |
///
/// What moved in `3b0a3d8`: an envelope a PE addresses to itself (five in
/// six of them here) waits in that PE's own queue as it is, its payload the
/// buffer the 27 recipients share; it was encoded into a 4.5 KB block of
/// its own for each recipient.  What moved in `ed157e8`: the force phase,
/// the peak of every step — a cell stopped holding 27 decoded arrays until
/// it integrated.  What moved here: a cell holds at most ⌈27/2⌉ force
/// messages (four if they come in membership order, five if reversed), where
/// it held every one after the first missing in membership order (the
/// simulator's budget above).  At
/// zero latency few cells wait for long, and the peak is made of the
/// queues, whose depth follows the host's schedule: the two sides' readings
/// overlap, so the peak budget stays where `ed157e8` put it (the change's
/// highest reading plus 8.6 %), which the parent's runs pass too.  The
/// allocation budget is the reading plus 10 %.  Two steps, because only
/// from the second step on do a step's coordinates overlap the forces of
/// the one before.
#[test]
fn leanmd_on_the_wall_clock_engine_stays_inside_its_heap_budget() {
    let _alone = alone();
    const PEAK_BUDGET: isize = 21_473_000;
    const ALLOCS_PER_ENVELOPE_BUDGET: f64 = 7.58;
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

/// The stencil half of `sim_sweep` with observation off: 1,024 objects on
/// two clusters of 32 PEs, 8 ms apart (`uniform(2, 32)`), ten steps.
///
/// | | live-heap peak |
/// |---|---|
/// | parent `3b0a3d8` | 8,037,298 B |
/// | this change | 4,105,138 B |
///
/// The budget is the change's reading plus 10 %; the parent fails it.
/// What moved: 64 disabled recorders held four 15,360-byte histograms
/// each, 3.75 MiB that recorded nothing.
#[test]
fn an_obs_off_stencil_on_the_simulator_stays_inside_its_heap_budget() {
    let _alone = alone();
    const PEAK_BUDGET: usize = 4_516_000;
    let net = NetworkModel::two_cluster_sweep(64, Dur::from_millis(8));
    let census = Census::begin();
    let out = stencil::run_sim(StencilConfig::paper(1024, 10), net, RunConfig::default());
    let peak = census.peak_bytes();
    assert!(out.report.obs.is_none());
    println!("live-heap peak {peak} B");
    assert!(peak <= PEAK_BUDGET, "live-heap peak {peak} B is over the budget of {PEAK_BUDGET} B");
}

/// A disabled recorder — every PE's when `RunConfig::obs` is `None` — is
/// built, fed and finished without one allocation.
#[test]
fn a_disabled_recorder_allocates_nothing() {
    let _alone = alone();
    let t = |ms| Time::ZERO + Dur::from_millis(ms);
    let census = Census::begin();
    let mut rec = PeRecorder::maybe(false, 3, &ObsConfig::new());
    rec.send(t(0), 1, 4_096, true, false);
    rec.recv(t(2), 1, t(0), 4_096, true, false);
    rec.handler(None, t(2), t(3));
    rec.queue_depth(7);
    rec.idle(t(3));
    rec.checkpoint(t(4), 1);
    rec.recovery(t(5));
    assert!(rec.finish().is_none());
    assert_eq!((census.allocs(), census.peak_bytes()), (0, 0));
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
