//! What the heap is made of at its live peak, by size class.
//!
//! A counting `#[global_allocator]` keeps the number of live blocks per
//! 8-byte size class and copies that table every time the live bytes pass
//! their previous peak by [`SNAPSHOT_STEP`]; at exit the last copy is
//! printed, largest class first.  The method of EXPERIMENTS.md A18 / A19 /
//! A20, which used to be a hand-patched scratch copy.
//!
//! The jobs are the two wall-clock workloads of the benchmark spine whose
//! heap a per-message change moves, run through the public `run_*` entry
//! points exactly as `perf/src/jobs.rs` shapes them: `leanmd_tcp` (LeanMD
//! at the paper's size, two single-PE nodes, a loopback TCP socket and
//! 16 ms between them) and `stencil_mask` (256 objects on 2 × 4 PE threads,
//! sleep-emulated compute, 32 ms).
//!
//! Step counts and the injected latency are constants per job, so a census
//! is always of the workload it is quoted against.
//!
//! Usage: `heap_census [--job leanmd_tcp|stencil_mask] [--seed N]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use mdo_apps::leanmd::{self, MdConfig};
use mdo_apps::stencil::{self, StencilConfig};
use mdo_bench::{arg_value, over_tcp};
use mdo_core::engine::threaded::ThreadedConfig;
use mdo_core::program::RunConfig;
use mdo_netsim::{Dur, LatencyMatrix, Topology};

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
    // One thread copies at a time; another that passes the mark meanwhile
    // is caught by the next allocation.  The copy is not atomic against
    // concurrent allocation — it is a census, not a ledger.
    if live >= AT_PEAK.live.load(Ordering::Relaxed) + SNAPSHOT_STEP && !COPYING.swap(true, Ordering::Acquire) {
        for (to, from) in AT_PEAK.blocks.iter().zip(&NOW.blocks) {
            to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        AT_PEAK.big_bytes.store(NOW.big_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
        AT_PEAK.live.store(live, Ordering::Relaxed);
        COPYING.store(false, Ordering::Release);
    }
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let job = arg_value(&args, "--job").unwrap_or_else(|| "leanmd_tcp".into());
    let seed: u64 = arg_value(&args, "--seed").map_or(1, |v| v.parse().expect("--seed takes a number"));
    let cfg = RunConfig { seed, ..RunConfig::default() };
    let (steps, ms_per_step, envelopes) = match job.as_str() {
        "leanmd_tcp" => {
            let (steps, wan) = (4, Dur::from_millis(16));
            let topo = Topology::uniform(2, 1);
            let out = over_tcp(&topo, &cfg, |cfg| {
                let tcfg = ThreadedConfig::new(LatencyMatrix::uniform(&topo, Dur::ZERO, wan));
                leanmd::run_threaded_with(MdConfig { seed, ..MdConfig::paper(steps) }, topo.clone(), tcfg, cfg)
            });
            (steps, out.ms_per_step, out.report.pe_messages.iter().sum::<u64>())
        }
        "stencil_mask" => {
            let (steps, wan) = (12, Dur::from_millis(32));
            let topo = Topology::uniform(2, 4);
            let tcfg = ThreadedConfig::new(LatencyMatrix::uniform(&topo, Dur::ZERO, wan)).with_compute_sleep();
            let out = stencil::run_threaded_with(StencilConfig::paper(256, steps), topo, tcfg, cfg);
            (steps, out.ms_per_step, out.report.pe_messages.iter().sum::<u64>())
        }
        other => panic!("unknown --job {other}: leanmd_tcp or stencil_mask"),
    };
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let peak = AT_PEAK.live.load(Ordering::Relaxed);
    let mut rows: Vec<(i64, usize, i64)> = (1..CLASSES)
        .map(|class| (AT_PEAK.blocks[class].load(Ordering::Relaxed), class * 8))
        .filter(|&(blocks, _)| blocks > 0)
        .map(|(blocks, size)| (blocks * size as i64, size, blocks))
        .collect();
    rows.sort_unstable_by_key(|&(bytes, ..)| std::cmp::Reverse(bytes));
    println!("{job}: {steps} steps at {ms_per_step:.2} ms, {envelopes} envelopes, seed {seed}");
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
