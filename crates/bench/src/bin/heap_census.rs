//! What the heap is made of at its live peak, by size class.
//!
//! A counting `#[global_allocator]` keeps the number of live blocks per
//! 8-byte size class and copies that table every time the live bytes pass
//! their previous peak by [`SNAPSHOT_STEP`]; at exit the last copy is
//! printed, largest class first.  The method of EXPERIMENTS.md A18 / A19 /
//! A20, which used to be a hand-patched scratch copy.
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
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use mdo_apps::leanmd::{self, MdConfig};
use mdo_apps::stencil::{self, StencilConfig};
use mdo_bench::{arg_value, over_tcp};
use mdo_core::engine::threaded::ThreadedConfig;
use mdo_core::program::RunConfig;
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

/// Start a census: the peak so far is forgotten and the heap as it is now
/// is the table to beat.  Returns the allocations made before it.
fn begin() -> u64 {
    snapshot(NOW.live.load(Ordering::Relaxed));
    ALLOCS.load(Ordering::Relaxed)
}

struct Census;

// SAFETY: every call is forwarded unchanged to `System`; the tables are
// static atomics and never touch the memory being managed.
unsafe impl GlobalAlloc for Census {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        moved(layout.size(), 1);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        moved(layout.size(), -1);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        moved(layout.size(), -1);
        moved(new_size, 1);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
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
            let envelopes = out.report.pe_messages.iter().sum();
            print_census(&format!("{job}: {steps} steps at {:.2} ms", out.ms_per_step), envelopes, seed, allocs);
        }
        "stencil_mask" => {
            let (steps, wan) = (12, Dur::from_millis(32));
            let topo = Topology::uniform(2, 4);
            let tcfg = ThreadedConfig::new(LatencyMatrix::uniform(&topo, Dur::ZERO, wan)).with_compute_sleep();
            let out = stencil::run_threaded_with(StencilConfig::paper(256, steps), topo, tcfg, cfg);
            let envelopes = out.report.pe_messages.iter().sum();
            print_census(&format!("{job}: {steps} steps at {:.2} ms", out.ms_per_step), envelopes, seed, allocs);
        }
        "stencil_cross_tcp" => {
            let (steps, wan) = (12, Dur::from_millis(4));
            let topo = Topology::uniform(2, 1);
            let out = over_tcp(&topo, &cfg, |cfg| {
                let job = StencilConfig { mapping: Mapping::RoundRobin, ..StencilConfig::paper(1024, steps) };
                let tcfg = ThreadedConfig::new(LatencyMatrix::uniform(&topo, Dur::ZERO, wan));
                stencil::run_threaded_with(job, topo.clone(), tcfg, cfg)
            });
            let envelopes = out.report.pe_messages.iter().sum();
            print_census(&format!("{job}: {steps} steps at {:.2} ms", out.ms_per_step), envelopes, seed, allocs);
        }
        "sim_sweep" => {
            let steps = 10;
            let net = sim_net(Topology::uniform(2, 32), Dur::from_millis(8), seed);
            // Kept, as the benchmark keeps it, until the LeanMD half is over.
            let st = stencil::run_sim(StencilConfig::paper(1024, steps), net, cfg.clone());
            let envelopes = st.report.pe_messages.iter().sum();
            let what = format!("{job}, stencil half: {steps} steps at {:.2} simulated ms", st.ms_per_step);
            print_census(&what, envelopes, seed, allocs);
            println!();
            let (steps, allocs) = (1, begin());
            let net = sim_net(Topology::uniform(2, 16), Dur::from_millis(16), seed);
            let md = leanmd::run_sim(MdConfig { seed, ..MdConfig::paper(steps) }, net, cfg);
            let envelopes = md.report.pe_messages.iter().sum();
            let what = format!("{job}, LeanMD half: {steps} step at {:.2} simulated ms", md.ms_per_step);
            print_census(&what, envelopes, seed, allocs);
        }
        other => panic!("unknown --job {other}: leanmd_tcp, stencil_mask, stencil_cross_tcp or sim_sweep"),
    }
}

/// Print the census since [`begin`] returned `allocs_before`, under `what`.
fn print_census(what: &str, envelopes: u64, seed: u64, allocs_before: u64) {
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
}
