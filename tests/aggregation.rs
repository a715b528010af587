//! Aggregation never un-masks latency (EXPERIMENTS.md A9), as assertions.
//!
//! The paper's prescription, more objects than processors, turns a few large
//! messages into many small ones, and per-message overhead is what then caps
//! latency hiding.  TRAM-style coalescing (`RunConfig::agg`) is the remedy;
//! these are the simulator's exact readings that show it costs the masking
//! nothing and coalesces where bursts share a frame.

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::apps::stencil::{self, StencilConfig};
use gridmdo::netsim::{AggConfig, LinkModel};
use gridmdo::prelude::*;

const STEPS: u32 = 3;

/// One simulated run's ms/step, overlap fraction and counters.
struct Reading {
    ms_per_step: f64,
    overlap: f64,
    counters: CounterSet,
}

fn cfg(agg: bool) -> RunConfig {
    RunConfig { obs: Some(ObsConfig::new()), agg: agg.then(AggConfig::default), ..RunConfig::default() }
}

fn reading(ms_per_step: f64, report: RunReport) -> Reading {
    let overlap = report.overlap_fraction().expect("obs is on");
    Reading { ms_per_step, overlap, counters: report.counters }
}

/// The stencil at `objects` on `net()`, aggregation off and on.
fn stencil_pair(objects: usize, net: impl Fn() -> NetworkModel) -> (Reading, Reading) {
    let run = |agg| {
        let out = stencil::run_sim(StencilConfig::paper(objects, STEPS), net(), cfg(agg));
        reading(out.ms_per_step, out.report)
    };
    (run(false), run(true))
}

fn assert_bit_identical(what: &str, (off, on): &(Reading, Reading)) {
    assert_eq!(off.ms_per_step.to_bits(), on.ms_per_step.to_bits(), "{what}: ms/step, aggregation off vs on");
    assert_eq!(off.overlap.to_bits(), on.overlap.to_bits(), "{what}: overlap fraction, aggregation off vs on");
}

/// The masking guard: on 8 PEs, the stencil at 64 objects (4 and 16 ms) and
/// LeanMD (16 ms) step bit-identically with aggregation off and on, with the
/// same overlap fraction.
#[test]
fn aggregation_leaves_masked_steps_bit_identical() {
    for lat in [4, 16] {
        let pair = stencil_pair(64, || NetworkModel::two_cluster_sweep(8, Dur::from_millis(lat)));
        assert_bit_identical(&format!("stencil, 64 objects, {lat} ms"), &pair);
    }
    let md = |agg| {
        let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(16));
        let out = leanmd::run_sim(MdConfig::paper(2), net, cfg(agg));
        reading(out.ms_per_step, out.report)
    };
    assert_bit_identical("LeanMD, 16 ms", &(md(false), md(true)));
}

/// The fine-grain sweep: the stencil on 8 PEs over a 1 Gbit WAN the whole
/// job shares, 8 ms away, with 30 µs of software cost a message.  Below the
/// knee (64 and 256 objects) every cross-WAN envelope still rides a frame of
/// its own; at 1,024 objects bursts share frames.  The step never moves by
/// more than a microsecond: a frame's few framing bytes are all that
/// aggregation adds on the finite pipe.
#[test]
fn aggregation_coalesces_fine_grain_bursts_at_the_same_step_time() {
    let contended =
        || NetworkModel::two_cluster_contended(8, Dur::from_millis(8), LinkModel::gbit(1.0, Dur::from_micros(30)));
    for objects in [64, 256, 1024] {
        let (off, on) = stencil_pair(objects, contended);
        let (envelopes, frames) = (on.counters.get(Ctr::EnvelopesCoalesced), on.counters.get(Ctr::FramesSent));
        assert!(envelopes > 0, "{objects} objects: some ghosts cross the WAN");
        if objects < 1024 {
            assert_eq!(frames, envelopes, "{objects} objects: every envelope rides its own frame");
        } else {
            assert!(frames < envelopes, "{objects} objects: bursts share frames ({envelopes} envelopes in {frames})");
        }
        let moved = (on.ms_per_step - off.ms_per_step).abs();
        assert!(moved < 1e-3, "{objects} objects: {} -> {} ms/step", off.ms_per_step, on.ms_per_step);
    }
}
