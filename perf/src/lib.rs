//! # mdo-perf — the repository's benchmark
//!
//! One spine for every performance or simplicity claim made about
//! gridmdo: four paper-shaped workloads, four end-to-end metrics and a
//! per-layer envelope budget, all by the names `BENCHMARK.json` declares.
//! See `perf/README.md` for the tables and how to run it.
//!
//! The harness drives the runtime only through public items of the
//! workspace crates; nothing outside `perf/` changes when it does.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod host;
pub mod jobs;
pub mod oracle;
pub mod probes;
pub mod record;
pub mod run;
pub mod spans;
pub mod stats;
