//! What the heap is made of at its live peak, by size class.
//!
//! A counting `#[global_allocator]` keeps the number of live blocks per
//! 8-byte size class and copies that table every time the live bytes pass
//! their previous peak by [`SNAPSHOT_STEP`]; at exit the last copy is
//! printed, largest class first, beside the run's scheduler-queue
//! high-water marks — so what waits in queues can be told from what the
//! objects hold.  The method of EXPERIMENTS.md A18 / A19 / A20.
//!
//! Every block also carries, in a header of its own (16 bytes, or the
//! block's alignment if larger, not counted in the table), the thread that
//! allocated it, so a second table gives each thread its allocations, the
//! live peak of the blocks it allocated (whoever frees them), and how many
//! of its blocks another thread freed: what a buffer pool per thread could
//! and could not take back (EXPERIMENTS.md A24).  A thread is named as it
//! was at its first allocation.
//!
//! The jobs are workloads of the benchmark spine, run through the public
//! `run_*` entry points exactly as `perf/src/jobs.rs` shapes them:
//! `leanmd_tcp` (LeanMD at the paper's size, two single-PE nodes, a
//! loopback TCP socket and 16 ms between them), `stencil_mask` (256 objects
//! on 2 × 4 PE threads, sleep-emulated compute, 32 ms), `stencil_cross_tcp`
//! (the stencil at 1,024 objects placed round-robin on two single-PE nodes,
//! a loopback TCP socket and 4 ms between them, handlers that do nothing)
//! and `sim_sweep` (the simulator: the stencil at 1,024 objects on 2 × 32
//! PEs, 8 ms apart, then LeanMD at the paper's size on 2 × 16 PEs, 16 ms
//! apart — one census per half, each from the heap as the half found it).
//!
//! Step counts and the injected latency are constants per job, so a census
//! is always of the workload it is quoted against.
//!
//! Usage: `heap_census [--job leanmd_tcp|stencil_mask|stencil_cross_tcp|sim_sweep] [--seed N]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};

use mdo_apps::leanmd::{self, MdConfig};
use mdo_apps::stencil::{self, StencilConfig};
use mdo_bench::{arg_value, over_tcp};
use mdo_core::engine::threaded::ThreadedConfig;
use mdo_core::program::{RunConfig, RunReport};
use mdo_core::Mapping;
use mdo_netsim::latency::DEFAULT_INTRA_LATENCY;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, LatencyMatrix, Topology, WanContention};

/// Size classes of 8 bytes up to this block size; anything larger is one
/// class of its own, kept as a count and a byte total.
const CLASSED_UP_TO: usize = 64 << 10;
const CLASSES: usize = CLASSED_UP_TO / 8 + 1;
/// The table is copied when live bytes pass the last copy's by this much.
const SNAPSHOT_STEP: i64 = 64 << 10;
/// Size classes printed one a row; the rest are summed.
const TOP: usize = 12;

struct Table {
    /// Live blocks per class; the last entry counts the blocks over
    /// [`CLASSED_UP_TO`].
    blocks: [AtomicI64; CLASSES + 1],
    /// Bytes in the blocks over [`CLASSED_UP_TO`].
    big_bytes: AtomicI64,
    live: AtomicI64,
}

impl Table {
    const fn new() -> Table {
        Table {
            blocks: [const { AtomicI64::new(0) }; CLASSES + 1],
            big_bytes: AtomicI64::new(0),
            live: AtomicI64::new(0),
        }
    }
}

static NOW: Table = Table::new();
/// `NOW` as it was at the highest live total seen so far.
static AT_PEAK: Table = Table::new();
static COPYING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn class_of(size: usize) -> usize {
    size.div_ceil(8).min(CLASSES)
}

fn moved(size: usize, by: i64) {
    let class = class_of(size);
    NOW.blocks[class].fetch_add(by, Ordering::Relaxed);
    if class == CLASSES {
        NOW.big_bytes.fetch_add(by * size as i64, Ordering::Relaxed);
    }
    let live = NOW.live.fetch_add(by * size as i64, Ordering::Relaxed) + by * size as i64;
    if live >= AT_PEAK.live.load(Ordering::Relaxed) + SNAPSHOT_STEP {
        snapshot(live);
    }
}

/// Copy `NOW`, whose live total is `live`, into `AT_PEAK`.  One thread
/// copies at a time; another that passes the mark meanwhile is caught by
/// the next allocation.  The copy is not atomic against concurrent
/// allocation — it is a census, not a ledger.
fn snapshot(live: i64) {
    if !COPYING.swap(true, Ordering::Acquire) {
        for (to, from) in AT_PEAK.blocks.iter().zip(&NOW.blocks) {
            to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        AT_PEAK.big_bytes.store(NOW.big_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
        AT_PEAK.live.store(live, Ordering::Relaxed);
        COPYING.store(false, Ordering::Release);
    }
}

/// Threads told apart, in the order of their first allocations; the last
/// row is shared by any after it.
const THREADS: usize = 64;

/// What one thread allocated.
struct ThreadRow {
    allocs: AtomicU64,
    /// Bytes live in the blocks this thread allocated, whoever frees them.
    live: AtomicI64,
    /// High-water mark of `live`.
    peak: AtomicI64,
    /// Blocks this thread allocated that another thread freed.
    freed_elsewhere: AtomicU64,
    /// `/proc/thread-self/comm` at the thread's first allocation.
    name: [AtomicU8; 16],
}

static ROWS: [ThreadRow; THREADS] = [const {
    ThreadRow {
        allocs: AtomicU64::new(0),
        live: AtomicI64::new(0),
        peak: AtomicI64::new(0),
        freed_elsewhere: AtomicU64::new(0),
        name: [const { AtomicU8::new(0) }; 16],
    }
}; THREADS];
static THREADS_SEEN: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's row in [`ROWS`], once it has allocated.
    static ROW: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's row, claimed and named at its first allocation.  The row
/// is set before the name is read, so an allocation made while reading it
/// (there is none: the path is short and the buffer is on the stack) would
/// find it and not recurse.
fn my_row() -> usize {
    ROW.try_with(|row| {
        if row.get() == usize::MAX {
            let claimed = THREADS_SEEN.fetch_add(1, Ordering::Relaxed);
            row.set(claimed.min(THREADS - 1));
            if claimed < THREADS - 1 {
                let mut name = [0; 16];
                let read = std::fs::File::open("/proc/thread-self/comm").and_then(|mut f| f.read(&mut name));
                for (to, &from) in ROWS[claimed].name.iter().zip(&name[..read.unwrap_or(0)]) {
                    to.store(if from == b'\n' { 0 } else { from }, Ordering::Relaxed);
                }
            }
        }
        row.get()
    })
    .unwrap_or(THREADS - 1)
}

/// `size` bytes allocated by this thread, tagged with its row.
fn thread_allocated(size: usize) -> u64 {
    let row = my_row();
    let t = &ROWS[row];
    t.allocs.fetch_add(1, Ordering::Relaxed);
    let live = t.live.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    t.peak.fetch_max(live, Ordering::Relaxed);
    row as u64
}

/// `size` bytes that thread row `owner` allocated, freed by this thread.
fn thread_freed(owner: u64, size: usize) {
    let t = &ROWS[owner as usize];
    t.live.fetch_sub(size as i64, Ordering::Relaxed);
    if owner as usize != my_row() {
        t.freed_elsewhere.fetch_add(1, Ordering::Relaxed);
    }
}

/// Start a census: the peak so far is forgotten and the heap as it is now
/// is the table to beat, for the whole heap and for every thread.  Returns
/// the allocations made before it.
fn begin() -> u64 {
    snapshot(NOW.live.load(Ordering::Relaxed));
    for t in &ROWS {
        t.peak.store(t.live.load(Ordering::Relaxed), Ordering::Relaxed);
        t.allocs.store(0, Ordering::Relaxed);
        t.freed_elsewhere.store(0, Ordering::Relaxed);
    }
    ALLOCS.load(Ordering::Relaxed)
}

/// The header of a block of `size` bytes aligned to `align` — 16 bytes, or
/// the alignment if larger, ending in the allocating thread's row — and the
/// layout of block and header together; `None` if that is too large.
fn with_header(size: usize, align: usize) -> Option<(usize, Layout)> {
    let header = align.max(16);
    Some((header, Layout::from_size_align(size.checked_add(header)?, header).ok()?))
}

struct Census;

// SAFETY: every call is forwarded to `System` with the header added to the
// layout and the returned pointer moved past it (by a multiple of the
// block's alignment); the header is written only inside the block `System`
// returned, and the tables are static atomics.  Nothing here can panic: an
// allocator must not unwind.
unsafe impl GlobalAlloc for Census {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let Some((header, outer)) = with_header(layout.size(), layout.align()) else {
            return std::ptr::null_mut();
        };
        // SAFETY: `outer` is non-zero in size: it includes the header.
        let base = unsafe { System.alloc(outer) };
        if base.is_null() {
            return base;
        }
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        moved(layout.size(), 1);
        let row = thread_allocated(layout.size());
        // SAFETY: `header` ≥ 16 bytes lie in the block, and `base + header
        // − 8` is 8-aligned because `base` and `header` are 16-aligned.
        unsafe {
            base.add(header - 8).cast::<u64>().write(row);
            base.add(header)
        }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // `alloc` or `realloc` made this block with this very header.
        let Some((header, outer)) = with_header(layout.size(), layout.align()) else { return };
        moved(layout.size(), -1);
        // SAFETY: `ptr` came from `alloc`/`realloc` with this layout, so the
        // header precedes it.
        unsafe {
            thread_freed(ptr.sub(8).cast::<u64>().read(), layout.size());
            System.dealloc(ptr.sub(header), outer);
        }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let (Some((header, outer)), Some((_, grown))) =
            (with_header(layout.size(), layout.align()), with_header(new_size, layout.align()))
        else {
            return std::ptr::null_mut();
        };
        // SAFETY: as in `dealloc`; `grown` is a valid size at `outer`'s
        // alignment, and `System.realloc` keeps the header, a prefix of the
        // block, and that alignment.
        unsafe {
            let owner = ptr.sub(8).cast::<u64>().read();
            let base = System.realloc(ptr.sub(header), outer, grown.size());
            if base.is_null() {
                return base;
            }
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            moved(layout.size(), -1);
            moved(new_size, 1);
            thread_freed(owner, layout.size());
            base.add(header - 8).cast::<u64>().write(thread_allocated(new_size));
            base.add(header)
        }
    }
}

#[global_allocator]
static GLOBAL: Census = Census;

fn mib(bytes: i64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// The simulator's network as `perf/src/jobs.rs` builds it for `sim_sweep`.
fn sim_net(topo: Topology, wan: Dur, seed: u64) -> NetworkModel {
    let lat = LatencyMatrix::uniform(&topo, DEFAULT_INTRA_LATENCY, wan);
    let contention = WanContention::disabled(&topo);
    NetworkModel::new(topo, lat, contention, seed)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let job = arg_value(&args, "--job").unwrap_or_else(|| "leanmd_tcp".into());
    let seed: u64 = arg_value(&args, "--seed").map_or(1, |v| v.parse().expect("--seed takes a number"));
    let cfg = RunConfig { seed, ..RunConfig::default() };
    let allocs = begin();
    match job.as_str() {
        "leanmd_tcp" => {
            let (steps, wan) = (4, Dur::from_millis(16));
            let topo = Topology::uniform(2, 1);
            let out = over_tcp(&topo, &cfg, |cfg| {
                let tcfg = ThreadedConfig::new(LatencyMatrix::uniform(&topo, Dur::ZERO, wan));
                leanmd::run_threaded_with(MdConfig { seed, ..MdConfig::paper(steps) }, topo.clone(), tcfg, cfg)
            });
            print_census(&format!("{job}: {steps} steps at {:.2} ms", out.ms_per_step), &out.report, seed, allocs);
        }
        "stencil_mask" => {
            let (steps, wan) = (12, Dur::from_millis(32));
            let topo = Topology::uniform(2, 4);
            let tcfg = ThreadedConfig::new(LatencyMatrix::uniform(&topo, Dur::ZERO, wan)).with_compute_sleep();
            let out = stencil::run_threaded_with(StencilConfig::paper(256, steps), topo, tcfg, cfg);
            print_census(&format!("{job}: {steps} steps at {:.2} ms", out.ms_per_step), &out.report, seed, allocs);
        }
        "stencil_cross_tcp" => {
            let (steps, wan) = (12, Dur::from_millis(4));
            let topo = Topology::uniform(2, 1);
            let out = over_tcp(&topo, &cfg, |cfg| {
                let job = StencilConfig { mapping: Mapping::RoundRobin, ..StencilConfig::paper(1024, steps) };
                let tcfg = ThreadedConfig::new(LatencyMatrix::uniform(&topo, Dur::ZERO, wan));
                stencil::run_threaded_with(job, topo.clone(), tcfg, cfg)
            });
            print_census(&format!("{job}: {steps} steps at {:.2} ms", out.ms_per_step), &out.report, seed, allocs);
        }
        "sim_sweep" => {
            let steps = 10;
            let net = sim_net(Topology::uniform(2, 32), Dur::from_millis(8), seed);
            // Kept, as the benchmark keeps it, until the LeanMD half is over.
            let st = stencil::run_sim(StencilConfig::paper(1024, steps), net, cfg.clone());
            let what = format!("{job}, stencil half: {steps} steps at {:.2} simulated ms", st.ms_per_step);
            print_census(&what, &st.report, seed, allocs);
            println!();
            let (steps, allocs) = (1, begin());
            let net = sim_net(Topology::uniform(2, 16), Dur::from_millis(16), seed);
            let md = leanmd::run_sim(MdConfig { seed, ..MdConfig::paper(steps) }, net, cfg);
            let what = format!("{job}, LeanMD half: {steps} step at {:.2} simulated ms", md.ms_per_step);
            print_census(&what, &md.report, seed, allocs);
        }
        other => panic!("unknown --job {other}: leanmd_tcp, stencil_mask, stencil_cross_tcp or sim_sweep"),
    }
}

/// Print the census since [`begin`] returned `allocs_before`, under `what`,
/// with the scheduler queues' high-water marks from `report`: each PE's
/// depth (on the wall-clock engine its mailbox's and its own queue's marks
/// added) and the fullest PE's bytes.  The marks of different PEs need not
/// fall at the heap's peak, so their sum bounds what was queued at it.
fn print_census(what: &str, report: &RunReport, seed: u64, allocs_before: u64) {
    let envelopes: u64 = report.pe_messages.iter().sum();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let peak = AT_PEAK.live.load(Ordering::Relaxed);
    let mut rows: Vec<(i64, usize, i64)> = (1..CLASSES)
        .map(|class| (AT_PEAK.blocks[class].load(Ordering::Relaxed), class * 8))
        .filter(|&(blocks, _)| blocks > 0)
        .map(|(blocks, size)| (blocks * size as i64, size, blocks))
        .collect();
    rows.sort_unstable_by_key(|&(bytes, ..)| std::cmp::Reverse(bytes));
    println!("{what}, {envelopes} envelopes, seed {seed}");
    println!(
        "{allocs} allocations ({:.2} per envelope), live heap at its peak {:.2} MiB:",
        allocs as f64 / envelopes.max(1) as f64,
        mib(peak)
    );
    let depths = &report.pe_max_queue_depth;
    println!(
        "scheduler queues at their high-water marks: {} envelopes over {} PEs {depths:?}, the fullest {:.2} MiB",
        depths.iter().sum::<usize>(),
        depths.len(),
        mib(report.peak_mailbox_bytes as i64)
    );
    println!("{:>8} x {:>7} B = {:>7} MiB", "blocks", "class", "");
    for &(bytes, size, blocks) in rows.iter().take(TOP) {
        println!("{blocks:>8} x {size:>7} B = {:>7.2} MiB", mib(bytes));
    }
    let (big, big_bytes) = (AT_PEAK.blocks[CLASSES].load(Ordering::Relaxed), AT_PEAK.big_bytes.load(Ordering::Relaxed));
    println!("{big:>8} x  >{CLASSED_UP_TO} B = {:>7.2} MiB", mib(big_bytes));
    let rest: i64 = rows.iter().skip(TOP).map(|&(bytes, ..)| bytes).sum();
    println!(
        "{:>8}   {:>9} = {:>7.2} MiB in {} smaller classes",
        "",
        "the rest",
        mib(rest),
        rows.len().saturating_sub(TOP)
    );
    print_threads(peak);
}

/// Each thread that allocated since [`begin`]: its allocations, the live
/// peak of the blocks it allocated, and how many of them another thread
/// freed; then the per-thread peaks' sum against the heap's `peak`.
fn print_threads(peak: i64) {
    println!("{:>2} {:<16} {:>9} {:>9} {:>18}", "#", "thread", "allocs", "peak MiB", "freed elsewhere");
    let mut peaks = 0;
    for (row, t) in ROWS.iter().enumerate().take(THREADS_SEEN.load(Ordering::Relaxed).min(THREADS)) {
        let allocs = t.allocs.load(Ordering::Relaxed);
        if allocs == 0 {
            continue;
        }
        let name: Vec<u8> = t.name.iter().map(|b| b.load(Ordering::Relaxed)).take_while(|&b| b != 0).collect();
        let name = if row == THREADS - 1 { "(the rest)".into() } else { String::from_utf8_lossy(&name).into_owned() };
        let (thread_peak, elsewhere) = (t.peak.load(Ordering::Relaxed), t.freed_elsewhere.load(Ordering::Relaxed));
        peaks += thread_peak;
        let share = 100.0 * elsewhere as f64 / allocs as f64;
        println!("{row:>2} {name:<16} {allocs:>9} {:>9.2} {elsewhere:>9} ({share:>5.1} %)", mib(thread_peak));
    }
    println!("per-thread peaks sum to {:.2} MiB against a heap peak of {:.2} MiB", mib(peaks), mib(peak));
}
