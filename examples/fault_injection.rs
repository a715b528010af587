//! The WAN misbehaves; the application never notices.
//!
//! The paper's experiments assume the cross-site link delivers every
//! message.  This demo takes that assumption away: a `FaultPlan` makes
//! the WAN drop, duplicate, reorder and corrupt packets, and the
//! reliable layer (sequence numbers + cumulative acks + timed
//! retransmission) hides all of it — on both engines.  The stencil field
//! stays bit-identical to the sequential reference; only the fault
//! counters and the makespan show what the wire did.
//!
//! ```sh
//! cargo run --release --example fault_injection -- [loss_pct]
//! ```

use gridmdo::apps::stencil::{self, seq::SeqStencil, StencilConfig, StencilCost};
use gridmdo::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let loss_pct: u32 = match args.get(1).map(|s| s.parse()) {
        None => 10,
        Some(Ok(p)) if p <= 90 => p,
        _ => {
            eprintln!("usage: fault_injection [loss_pct]   (0-90; above that retry exhaustion is likely)");
            std::process::exit(2);
        }
    };

    let cfg = StencilConfig {
        mesh: 64,
        objects: 16,
        steps: 8,
        compute: true,
        cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
        mapping: Mapping::Block,
        lb_period: None,
    };
    let mut reference = SeqStencil::new(cfg.mesh);
    reference.run(cfg.steps);
    let want = reference.block_sums(cfg.k());
    let bit_exact =
        |sums: &[f64]| sums.len() == want.len() && sums.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());

    let plan = FaultPlan::loss(loss_pct as f64 / 100.0)
        .with_duplicate(0.05)
        .with_reorder(0.05)
        .with_corrupt(0.03)
        .with_seed(7)
        .with_rto(Dur::from_millis(12));
    println!(
        "64x64 stencil, 16 objects, 2 clusters, 4 ms one-way WAN; \
         faults: {loss_pct}% drop + 5% dup + 5% reorder + 3% corrupt\n"
    );

    // Simulation engine: the fault model collapses each message's
    // drop/timeout/retransmit dance into a virtual-time delay.
    let sim = {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(4));
        let rc = RunConfig { fault_plan: Some(plan.clone()), ..RunConfig::default() };
        stencil::run_sim(cfg.clone(), net, rc)
    };
    let f = |c| sim.report.counters.get(c);
    println!("SimEngine      {:>8.3} ms/step   bit-exact: {}", sim.ms_per_step, bit_exact(&sim.block_sums));
    println!(
        "  wire: {} dropped, {} corrupt-rejected, {} dup-dropped, {} reordered; recovery: {} retransmits",
        f(Ctr::Drops),
        f(Ctr::CorruptRejected),
        f(Ctr::DupDropped),
        f(Ctr::Reordered),
        f(Ctr::Retransmits)
    );

    // Threaded engine: real packets through the VMI chain
    // (fault -> delay; a corrupted attempt is dropped at the fault device,
    // as in the simulator), live ack/retransmit.
    let threaded = {
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(4));
        let rc = RunConfig { fault_plan: Some(plan), ..RunConfig::default() };
        stencil::run_threaded(cfg.clone(), topo, latency, rc)
    };
    let f = |c| threaded.report.counters.get(c);
    println!("ThreadedEngine {:>8.3} ms/step   bit-exact: {}", threaded.ms_per_step, bit_exact(&threaded.block_sums));
    println!(
        "  wire: {} dropped, {} corrupt-rejected, {} dup-dropped; recovery: {} retransmits",
        f(Ctr::Drops),
        f(Ctr::CorruptRejected),
        f(Ctr::DupDropped),
        f(Ctr::Retransmits)
    );
    assert!(bit_exact(&sim.block_sums) && bit_exact(&threaded.block_sums), "faults must never change the answer");

    // And when the link is beyond saving, failure is structured:
    let doomed = FaultPlan::loss(1.0).with_rto(Dur::from_millis(5)).with_max_retries(3);
    let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(4));
    let rc = RunConfig { fault_plan: Some(doomed), ..RunConfig::default() };
    let report = stencil::run_sim(cfg, net, rc).report;
    let err = report.transport_error.expect("total loss exhausts the retry budget");
    println!("\nTotal loss (100% drop): no panic, no hang — the run aborts with:\n  {err}");
}
