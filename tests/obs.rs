//! Observability-subsystem invariants across the workspace: histogram
//! merge algebra, exact overlap accounting on a synthetic timeline,
//! deterministic event streams from the virtual-time engine, and
//! cross-engine agreement on the application-level event structure.

use gridmdo::apps::stencil::{self, StencilConfig, StencilCost};
use gridmdo::obs::{overlap_of, Event, LogHistogram, ObsConfig, ObsReport, PeRecorder};
use gridmdo::prelude::*;
use proptest::prelude::*;

fn t(ms: u64) -> Time {
    Time::ZERO + Dur::from_millis(ms)
}

fn hist_of(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// Bucket-wise merge is commutative: a ⊕ b == b ⊕ a.
    #[test]
    fn histogram_merge_commutes(a in prop::collection::vec(any::<u64>(), 0..200),
                                b in prop::collection::vec(any::<u64>(), 0..200)) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// ... and associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), so per-PE
    /// histograms can be combined in any order.
    #[test]
    fn histogram_merge_is_associative(a in prop::collection::vec(any::<u64>(), 0..100),
                                      b in prop::collection::vec(any::<u64>(), 0..100),
                                      c in prop::collection::vec(any::<u64>(), 0..100)) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
        // Merging is also equivalent to recording the concatenation.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(left, hist_of(&all));
    }

    /// Quantile estimates carry the documented bounded relative error:
    /// at most 1/32 above the true order statistic, never below it.
    #[test]
    fn histogram_quantile_error_is_bounded(values in prop::collection::vec(any::<u64>(), 1..300),
                                           q_pct in 0u32..=100) {
        let q = q_pct as f64 / 100.0;
        let h = hist_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1).min(sorted.len());
        let truth = sorted[rank - 1];
        let est = h.quantile(q);
        prop_assert!(est >= truth, "estimate {est} below true quantile {truth}");
        prop_assert!(est as u128 <= truth as u128 + (truth / 32) as u128 + 1,
                     "estimate {est} too far above {truth}");
    }
}

/// A hand-built two-PE timeline whose overlap fraction is exact: PE 0 is
/// busy 0–8 ms with a WAN reply outstanding 0–16 ms (half masked); PE 1
/// is busy 2–12 ms with a reply outstanding 4–10 ms (fully masked).
#[test]
fn synthetic_two_pe_timeline_has_exact_overlap_fraction() {
    let mut r0 = PeRecorder::new(0);
    r0.handler(None, t(0), t(8));
    r0.recv(t(16), 1, t(0), 64, true, false);
    r0.idle(t(16));
    let mut r1 = PeRecorder::new(1);
    r1.handler(None, t(2), t(12));
    r1.recv(t(10), 0, t(4), 64, true, false);
    let pes = vec![r0.finish().unwrap(), r1.finish().unwrap()];

    let o0 = overlap_of(&pes[0].events);
    assert_eq!(o0.outstanding, Dur::from_millis(16));
    assert_eq!(o0.masked, Dur::from_millis(8));
    assert_eq!(o0.exposed, Dur::from_millis(8));
    let o1 = overlap_of(&pes[1].events);
    assert_eq!(o1.outstanding, Dur::from_millis(6));
    assert_eq!(o1.masked, Dur::from_millis(6));

    let report = ObsReport { pes, counters: Default::default() };
    // Whole-run fraction: (8 + 6) / (16 + 6).
    assert!((report.overlap_fraction() - 14.0 / 22.0).abs() < 1e-12);
}

fn small_stencil(steps: u32) -> StencilConfig {
    StencilConfig {
        mesh: 64,
        objects: 16,
        steps,
        compute: true,
        cost: StencilCost { ns_per_cell: 200.0, msg_overhead: Dur::from_micros(30), cache_effect: false },
        mapping: Mapping::Block,
        lb_period: None,
    }
}

fn obs_cfg() -> RunConfig {
    RunConfig { obs: Some(ObsConfig::new()), ..RunConfig::default() }
}

/// The virtual-time engine is deterministic down to the recorded event
/// stream: two identical runs produce identical per-PE events.
#[test]
fn sim_event_streams_are_deterministic() {
    let run = || {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(4));
        stencil::run_sim(small_stencil(5), net, obs_cfg()).report.obs.expect("obs armed")
    };
    let (a, b) = (run(), run());
    assert!(a.total_events() > 0);
    assert_eq!(a.total_events(), b.total_events());
    for (pa, pb) in a.pes.iter().zip(b.pes.iter()) {
        assert_eq!(pa.events, pb.events, "pe {} event streams diverge", pa.pe);
        assert_eq!(pa.counters, pb.counters);
    }
    assert_eq!(a.overlap(), b.overlap());
}

/// Both engines run the same objects over the same messages, so the
/// number of application handler spans (and app-level message counts)
/// must agree even though all their timings differ.
#[test]
fn engines_agree_on_application_event_structure() {
    let cfg = small_stencil(4);
    let sim = {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        stencil::run_sim(cfg.clone(), net, obs_cfg()).report.obs.expect("obs armed")
    };
    let threaded = {
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(2));
        stencil::run_threaded(cfg, topo, latency, obs_cfg()).report.obs.expect("obs armed")
    };
    assert!(sim.app_handler_events() > 0);
    assert_eq!(sim.app_handler_events(), threaded.app_handler_events());
    // Structural counters agree too: every engine delivers each ghost
    // exactly once (system traffic differs — heartbeats, acks — so only
    // the application-attributed numbers are compared).
    let handler_events =
        |r: &ObsReport| r.pes.iter().flat_map(|p| &p.events).filter(|e| matches!(e, Event::Handler { .. })).count();
    assert!(handler_events(&sim) > 0);
    assert!(handler_events(&threaded) > 0);
}
