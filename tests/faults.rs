//! Fault injection and reliable delivery, end to end.
//!
//! The paper's Grid experiments assume VMI delivers every message; this
//! suite checks what the reproduction adds on top — an adversarial WAN
//! (drop / duplicate / reorder / corrupt, seeded per PE pair) and the
//! reliable layer that hides it.  The headline invariant: a lossy run
//! must be **bit-identical** to a fault-free run on both engines, with
//! the damage visible only in the fault counters and the makespan.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::apps::stencil::{self, seq::SeqStencil, StencilConfig, StencilCost};
use gridmdo::netsim::{DeliveryPlan, FaultModel};
use gridmdo::prelude::*;
use gridmdo::vmi::devices::crc::CrcDevice;
use gridmdo::vmi::{jittered_backoff, FaultDevice, Packet, ReliableTransport, Transport, TransportConfig};
use proptest::prelude::*;

fn small_stencil(objects: usize, steps: u32, mesh: usize) -> StencilConfig {
    StencilConfig {
        mesh,
        objects,
        steps,
        compute: true,
        cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
        mapping: Mapping::Block,
        lb_period: None,
    }
}

fn seq_reference(cfg: &StencilConfig) -> Vec<f64> {
    let mut reference = SeqStencil::new(cfg.mesh);
    reference.run(cfg.steps);
    reference.block_sums(cfg.k())
}

fn assert_bit_exact(got: &[f64], want: &[f64], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: block count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: block {i} must be bit-identical");
    }
}

/// A reliable channel over a transport whose cross-cluster chain injects
/// the given faults (with CRC bracketing so corruption becomes loss).
fn lossy_channel(plan: FaultPlan) -> Arc<ReliableTransport> {
    let topo = Topology::two_cluster(2);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
    let mut cfg = TransportConfig::new(topo, latency);
    cfg.cross_extra = vec![CrcDevice::appender(), FaultDevice::for_reliable(plan.clone()), CrcDevice::verifier()];
    ReliableTransport::with_plan(Transport::new(cfg), plan)
}

proptest! {
    /// Exactly-once, in-order delivery holds for *any* mix of drop,
    /// duplication, reordering and corruption (kept below the retry
    /// ceiling's reach) and any seed.
    #[test]
    fn reliable_channel_exactly_once_in_order(
        drop_pct in 0u32..25,
        dup_pct in 0u32..12,
        reorder_pct in 0u32..12,
        corrupt_pct in 0u32..8,
        seed in any::<u64>(),
        n in 3u64..14,
    ) {
        let plan = FaultPlan::loss(drop_pct as f64 / 100.0)
            .with_duplicate(dup_pct as f64 / 100.0)
            .with_reorder(reorder_pct as f64 / 100.0)
            .with_corrupt(corrupt_pct as f64 / 100.0)
            .with_seed(seed)
            .with_rto(Dur::from_millis(4));
        let rt = lossy_channel(plan);
        for i in 0..n {
            rt.send(Packet::new(Pe(0), Pe(1), i.to_le_bytes().to_vec().into()));
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while (got.len() as u64) < n && Instant::now() < deadline {
            if let Some(p) = rt.recv_timeout(Pe(1), Duration::from_millis(20)) {
                got.push(u64::from_le_bytes(p.payload[..8].try_into().unwrap()));
            }
        }
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
        prop_assert!(rt.error().is_none());
        rt.shutdown();
        rt.inner().shutdown();
    }

    /// The simulation engine's collapsed fault oracle obeys the retry
    /// budget: every plan either delivers within `max_retries`
    /// retransmissions (recovery delay strictly positive when any
    /// attempt failed) or exhausts after exactly `max_retries + 1`
    /// transmissions.
    #[test]
    fn sim_fault_oracle_respects_the_retry_budget(
        drop_pct in 0u32..=100,
        seed in any::<u64>(),
        max_retries in 1u32..6,
        msgs in 1usize..40,
    ) {
        let plan = FaultPlan::loss(drop_pct as f64 / 100.0)
            .with_seed(seed)
            .with_rto(Dur::from_millis(7))
            .with_max_retries(max_retries);
        let mut model = FaultModel::new(plan);
        let mut next_seq = 0u64;
        for _ in 0..msgs {
            match model.plan_delivery(Pe(0), Pe(1), Time::ZERO) {
                DeliveryPlan::Deliver { extra_delay, retransmits, .. } => {
                    prop_assert!(retransmits <= max_retries);
                    prop_assert_eq!(retransmits > 0, extra_delay > Dur::ZERO);
                    next_seq += 1;
                }
                DeliveryPlan::Exhausted { attempts, seq } => {
                    prop_assert_eq!(attempts, max_retries + 1);
                    prop_assert_eq!(seq, next_seq);
                    break;
                }
            }
        }
        prop_assert_eq!(model.stats().retransmits + model.stats().dropped > 0,
                        model.stats().dropped > 0);
    }
}

/// Retransmission backoff carries deterministic per-pair jitter: two
/// pairs that lose packets on the same tick must not retransmit on
/// identical schedules (synchronized WAN bursts), yet each pair's
/// schedule is reproducible and stays within +25 % of the exponential
/// base.
#[test]
fn backoff_jitter_decorrelates_pairs_deterministically() {
    let seed = 0xFA_17; // the FaultPlan default
    let base = |r: u32| Dur::from_millis(50).checked_mul(1u64 << r).unwrap();
    let schedule =
        |src: Pe, dst: Pe| -> Vec<Dur> { (1..=6).map(|r| jittered_backoff(base(r), seed, src, dst, r)).collect() };

    let pair_a = schedule(Pe(0), Pe(2));
    let pair_b = schedule(Pe(1), Pe(3));
    assert_ne!(pair_a, pair_b, "two pairs must not share a retransmission schedule");
    assert!(pair_a.iter().zip(&pair_b).any(|(a, b)| a != b), "at least one retry tick differs between the pairs");
    for (r, (&a, &b)) in pair_a.iter().zip(&pair_b).enumerate() {
        let b0 = base(r as u32 + 1);
        let cap = Dur::from_nanos(b0.as_nanos() + b0.as_nanos() / 4);
        assert!(a >= b0 && a <= cap, "retry {r}: jitter within [base, base+25%], got {a} for base {b0}");
        assert!(b >= b0 && b <= cap, "retry {r}: jitter within [base, base+25%], got {b} for base {b0}");
    }
    assert_eq!(pair_a, schedule(Pe(0), Pe(2)), "the schedule is deterministic for a given seed");
    assert_ne!(
        (1..=6).map(|r| jittered_backoff(base(r), 7, Pe(0), Pe(2), r)).collect::<Vec<_>>(),
        pair_a,
        "a different fault-plan seed moves the schedule"
    );
}

/// The tentpole acceptance check, simulation side: a 5 % drop + dup +
/// reorder WAN yields a stencil field bit-identical to the fault-free
/// run, with nonzero recovery counters and a longer makespan.
#[test]
fn sim_stencil_bit_exact_under_faults() {
    let cfg = small_stencil(16, 7, 32);
    let want = seq_reference(&cfg);

    let run = |plan: Option<FaultPlan>| {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(8));
        let rc = RunConfig { fault_plan: plan, ..RunConfig::default() };
        stencil::run_sim(cfg.clone(), net, rc)
    };
    let clean = run(None);
    let plan =
        FaultPlan::loss(0.05).with_duplicate(0.05).with_reorder(0.05).with_seed(2005).with_rto(Dur::from_millis(12));
    let faulty = run(Some(plan));

    assert_bit_exact(&clean.block_sums, &want, "fault-free sim");
    assert_bit_exact(&faulty.block_sums, &want, "faulty sim");
    assert!(faulty.report.transport_error.is_none());
    assert!(faulty.report.counters.get(Ctr::Drops) > 0, "faults occurred: {:?}", faulty.report.counters);
    assert!(faulty.report.counters.get(Ctr::Retransmits) > 0, "and were recovered from");
    assert!(faulty.total > clean.total, "recovery shows in the makespan: {} !> {}", faulty.total, clean.total);
}

/// Same check on the threaded engine, where loss/dup/reorder/corrupt
/// happen to real packets in the VMI device chain and recovery is the
/// live ack/retransmit protocol.
#[test]
fn threaded_stencil_bit_exact_under_faults() {
    let cfg = small_stencil(4, 5, 32);
    let want = seq_reference(&cfg);
    let topo = Topology::two_cluster(2);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(2));
    let plan = FaultPlan::loss(0.1)
        .with_duplicate(0.08)
        .with_reorder(0.08)
        .with_corrupt(0.05)
        .with_seed(1964)
        .with_rto(Dur::from_millis(20));
    let rc = RunConfig { fault_plan: Some(plan), ..RunConfig::default() };
    let out = stencil::run_threaded(cfg, topo, latency, rc);

    assert_bit_exact(&out.block_sums, &want, "faulty threaded");
    assert!(out.report.transport_error.is_none());
    let f = &out.report.counters;
    assert!(f.get(Ctr::Drops) + f.get(Ctr::CorruptRejected) > 0, "the wire misbehaved: {f:?}");
    assert!(f.get(Ctr::Retransmits) > 0, "the reliable layer retransmitted: {f:?}");
}

/// Both engines, same fault scenario, one truth: the field is the
/// sequential field regardless of which engine ran it and whether the
/// WAN misbehaved.
#[test]
fn engines_agree_under_faults() {
    let cfg = small_stencil(4, 6, 32);
    let want = seq_reference(&cfg);
    let plan =
        FaultPlan::loss(0.08).with_duplicate(0.05).with_reorder(0.05).with_seed(77).with_rto(Dur::from_millis(15));

    let sim = {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(3));
        let rc = RunConfig { fault_plan: Some(plan.clone()), ..RunConfig::default() };
        stencil::run_sim(cfg.clone(), net, rc)
    };
    let threaded = {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(3));
        let rc = RunConfig { fault_plan: Some(plan), ..RunConfig::default() };
        stencil::run_threaded(cfg, topo, latency, rc)
    };

    assert_bit_exact(&sim.block_sums, &want, "sim under faults");
    assert_bit_exact(&threaded.block_sums, &want, "threaded under faults");
    assert!(sim.report.transport_error.is_none());
    assert!(threaded.report.transport_error.is_none());
}

/// LeanMD under the same adversarial WAN: trajectories (per-cell position
/// checksums and kinetic energy) are bit-identical to the fault-free run
/// on both engines, and recovery counters are nonzero.
#[test]
fn leanmd_bit_exact_under_faults() {
    let cfg = MdConfig::validation(3, 4, 3);
    let plan =
        FaultPlan::loss(0.05).with_duplicate(0.05).with_reorder(0.05).with_seed(216).with_rto(Dur::from_millis(15));

    let clean = {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(2));
        leanmd::run_sim(cfg.clone(), net, RunConfig::default())
    };
    let sim = {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(2));
        let rc = RunConfig { fault_plan: Some(plan.clone()), ..RunConfig::default() };
        leanmd::run_sim(cfg.clone(), net, rc)
    };
    let threaded = {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(2));
        let rc = RunConfig { fault_plan: Some(plan), ..RunConfig::default() };
        leanmd::run_threaded(cfg, topo, latency, rc)
    };

    assert_eq!(clean.checksums, sim.checksums, "sim trajectories survive the lossy WAN");
    assert_eq!(clean.checksums, threaded.checksums, "threaded trajectories survive the lossy WAN");
    assert_eq!(clean.kinetic.to_bits(), sim.kinetic.to_bits());
    assert_eq!(clean.kinetic.to_bits(), threaded.kinetic.to_bits());
    assert!(sim.report.transport_error.is_none());
    assert!(threaded.report.transport_error.is_none());
    assert!(sim.report.counters.get(Ctr::Retransmits) > 0, "sim recovered from losses: {:?}", sim.report.counters);
    assert!(
        threaded.report.counters.get(Ctr::Retransmits) > 0,
        "threaded recovered from losses: {:?}",
        threaded.report.counters
    );
}
