//! Projections-style performance analysis of a Grid run.
//!
//! Charm++ ships the *Projections* tool for exactly this: per-PE
//! utilization timelines, time profiles by object, and message-latency
//! views.  The runtime's tracer records the same data; this demo runs the
//! stencil at a latency where masking is partial and prints the analysis
//! — watch the boundary PEs (the ones holding cross-cluster blocks) show
//! the idle gaps.
//!
//! ```sh
//! cargo run --release --example profile -- [pes] [objects] [latency_ms]
//! ```

use gridmdo::apps::stencil::{self, StencilConfig};
use gridmdo::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pes: u32 = args.get(1).map(|s| s.parse().expect("pes")).unwrap_or(4);
    let objects: usize = args.get(2).map(|s| s.parse().expect("objects")).unwrap_or(16);
    let latency: u64 = args.get(3).map(|s| s.parse().expect("latency ms")).unwrap_or(16);

    let cfg = StencilConfig::paper(objects, 6);
    let net = NetworkModel::two_cluster_sweep(pes, Dur::from_millis(latency));
    let run_cfg = RunConfig { obs: Some(ObsConfig::new()), ..RunConfig::default() };
    let out = stencil::run_sim(cfg, net, run_cfg);
    let obs = out.report.obs.as_ref().expect("obs was armed");
    let trace = obs.to_trace();

    println!("stencil: {objects} objects, {pes} PEs, {latency} ms one-way -> {:.3} ms/step\n", out.ms_per_step);
    print!("{}", trace.ascii_timeline(pes as usize, 72));

    println!("\nutilization profile (10 windows, % busy):");
    for pe in 0..pes {
        let profile = trace.utilization_profile(Pe(pe), 10);
        let cells: Vec<String> = profile.iter().map(|u| format!("{:>3.0}", u * 100.0)).collect();
        println!("  pe{pe}: [{}]", cells.join(" "));
    }

    let (intra, cross) = trace.message_latency_means();
    println!("\nmean delivery latency:");
    println!("  intra-cluster : {:>8.3} ms", intra.unwrap_or(0.0));
    println!("  cross-cluster : {:>8.3} ms", cross.unwrap_or(0.0));

    println!("\nheaviest objects (time profile):");
    for (obj, load) in trace.object_loads().into_iter().take(5) {
        println!("  {obj}: {:.3} ms", load.as_millis_f64());
    }
    println!("\n(export the raw trace with Trace::to_csv for external plotting)");
}
