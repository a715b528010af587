//! # mdo-bench — the experiment harness
//!
//! Every table and figure of the paper, and every ablation, is a function
//! here that returns the text it reports; [`registry`] lists them with the
//! `results/` files they write and the part of each that is exact.  The
//! `reproduce` binary regenerates them from the registry, and the root
//! package's golden test compares the exact parts with `results/` byte for
//! byte (DESIGN.md §5 is the index).  The other binaries are tools:
//! `mdo_launch` (one process per node) and `heap_census`.  This
//! library also holds the paper's published numbers (for side-by-side
//! output), plain-text table rendering and the experiment grids.

#![warn(missing_docs)]

/// `writeln!` into a `String`, which cannot fail.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($($arg)*).expect("writing to a String cannot fail")
    }};
}

mod experiments;
pub mod paper;
pub mod registry;
pub mod table;

use mdo_core::program::{RunConfig, RunReport};
use mdo_core::ObsConfig;
use mdo_net::{localhost_rendezvous, NetConfig};
use mdo_netsim::{Dur, Topology};

/// The paper's measured one-way NCSA↔ANL latency (§5.1): 1.725 ms ICMP.
pub const TERAGRID_ONE_WAY: Dur = Dur::from_micros(1725);

/// Latency sweep used by Figure 3 (0–32 ms one-way).
pub const FIG3_LATENCIES_MS: [u64; 7] = [0, 1, 2, 4, 8, 16, 32];

/// Latency sweep used by Figure 4 (1–256 ms one-way).
pub const FIG4_LATENCIES_MS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Processor counts used by both applications (§5.1), split evenly
/// between two clusters.
pub const PROCESSORS: [u32; 6] = [2, 4, 8, 16, 32, 64];

/// Degrees of virtualization per processor count, inferred from the rows
/// of Table 1: (processors, object counts plotted in Figure 3).
pub const FIG3_OBJECTS: [(u32, [usize; 3]); 6] = [
    (2, [4, 16, 64]),
    (4, [4, 16, 64]),
    (8, [16, 64, 256]),
    (16, [16, 64, 256]),
    (32, [64, 256, 1024]),
    (64, [64, 256, 1024]),
];

/// Parse a `--flag value`-style argument list: returns the value following
/// `flag`, if present.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// True if `flag` appears among the arguments.
pub fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Run `job` as one node thread per cluster of `topo` over fresh loopback
/// ports, as `mdo_launch` runs one process per node; node 0's result.
pub fn over_tcp<T: Send>(topo: &Topology, cfg: &RunConfig, job: impl Fn(RunConfig) -> T + Sync) -> T {
    let (listeners, manifest) = localhost_rendezvous(topo.num_clusters()).expect("reserve loopback ports");
    drop(listeners);
    std::thread::scope(|s| {
        let nodes: Vec<_> = (0..topo.num_clusters() as u32)
            .map(|node| {
                let cfg = RunConfig { net: Some(NetConfig::new(node, manifest.clone())), ..cfg.clone() };
                let job = &job;
                s.spawn(move || job(cfg))
            })
            .collect();
        // The scope joins the other nodes (and passes a panic of theirs on).
        nodes.into_iter().next().expect("node 0").join().expect("node 0")
    })
}

/// A run with observability armed, so its report has an overlap fraction.
pub fn recorded() -> RunConfig {
    RunConfig { obs: Some(ObsConfig::new()), ..RunConfig::default() }
}

/// The run's WAN-overlap fraction, or 0.0 when observability was not
/// armed (or the run never waited on the WAN).
pub fn overlap_fraction(report: &RunReport) -> f64 {
    report.overlap_fraction().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_consistent() {
        assert_eq!(FIG3_OBJECTS.len(), PROCESSORS.len());
        for ((p, objs), pp) in FIG3_OBJECTS.iter().zip(PROCESSORS.iter()) {
            assert_eq!(p, pp);
            // Enough objects for every PE to hold at least one.
            assert!(objs.iter().all(|&o| o >= *p as usize));
        }
        assert_eq!(TERAGRID_ONE_WAY, Dur::from_micros(1725));
    }

    #[test]
    fn overlap_helper() {
        use mdo_core::chare::{Chare, Ctx};
        use mdo_core::prelude::*;
        use mdo_core::SimEngine;
        use mdo_netsim::network::NetworkModel;

        struct Echo;
        impl Chare for Echo {
            fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                ctx.charge(Dur::from_millis(1));
                if ctx.my_elem().0 == 0 {
                    ctx.send(ctx.me().array, ElemId(1), EntryId(1), vec![]);
                } else {
                    ctx.exit();
                }
            }
        }
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(4));
        let mut p = Program::new();
        let arr = p.array("e", 2, Mapping::Block, |_| Box::new(Echo) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), EntryId(1), vec![]));
        let report = SimEngine::new(net, recorded()).run(p);
        assert!((0.0..=1.0).contains(&overlap_fraction(&report)));
        // Without obs armed the overlap helper degrades to zero.
        assert_eq!(overlap_fraction(&RunReport { obs: None, ..report }), 0.0);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--steps", "12", "--csv"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg_value(&args, "--steps").as_deref(), Some("12"));
        assert_eq!(arg_value(&args, "--missing"), None);
        assert!(arg_flag(&args, "--csv"));
        assert!(!arg_flag(&args, "--quiet"));
    }
}
