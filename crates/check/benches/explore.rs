//! Criterion benches for the schedule explorer: the cost of one explored
//! schedule under each delivery policy, and of the invariant layer that
//! judges it.  The CI budget (500 schedules per app) is only honest if a
//! single schedule stays in the low-millisecond range, so a regression
//! here silently turns the model checker into the slowest job in CI.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use mdo_check::{check_report, explore, CheckApp, ExploreConfig};
use mdo_core::prelude::{DeliverySpec, ScheduleSink};
use mdo_core::program::RunConfig;
use mdo_core::SimConfig;
use mdo_obs::ObsConfig;

fn obs_cfg() -> RunConfig {
    RunConfig { obs: Some(ObsConfig::new()), ..RunConfig::default() }
}

fn policy(delivery: DeliverySpec) -> SimConfig {
    SimConfig { delivery, ..SimConfig::default() }
}

fn bench_one_schedule(c: &mut Criterion) {
    let app = CheckApp::stencil_mini();
    let mut g = c.benchmark_group("one_schedule");
    g.bench_function("fifo", |b| b.iter(|| app.run_sim(obs_cfg(), policy(DeliverySpec::Fifo))));
    g.bench_function("random", |b| b.iter(|| app.run_sim(obs_cfg(), policy(DeliverySpec::Random { seed: 7 }))));
    g.bench_function("pct_d3", |b| {
        b.iter(|| app.run_sim(obs_cfg(), policy(DeliverySpec::Pct { seed: 7, depth: 3, horizon: 104 })))
    });
    // Replay pays for the recorded-trace lookup on every contested dispatch.
    let sink: ScheduleSink = Default::default();
    let _ = app.run_sim(
        obs_cfg(),
        SimConfig { schedule_sink: Some(sink.clone()), ..policy(DeliverySpec::Random { seed: 7 }) },
    );
    let trace = Arc::new(sink.lock().expect("trace").clone());
    g.bench_function("replay", |b| b.iter(|| app.run_sim(obs_cfg(), policy(DeliverySpec::Replay(Arc::clone(&trace))))));
    g.finish();
}

/// Policy-contested dispatch (`SchedQueue::pop_nth`, what Random/PCT
/// exploration calls on every delivery) must stay O(1) in queue depth —
/// the old shift-remove made deep front classes quadratic to drain.  The
/// micro-assert compares per-pop cost of draining a shallow and a deep
/// single-class queue; O(1) keeps the ratio near 1, O(n) would put the
/// 64x-deeper queue around 64x per pop.
fn bench_contested_dispatch(c: &mut Criterion) {
    use mdo_core::envelope::MsgBody;
    use mdo_core::prelude::{ArrayId, ElemId, EntryId, ObjKey, Pe};
    use mdo_core::queue::SchedQueue;
    use mdo_core::Envelope;

    fn filled(depth: usize) -> SchedQueue {
        let mut q = SchedQueue::new();
        for i in 0..depth {
            q.push(Envelope {
                src: Pe(0),
                dst: Pe(1),
                priority: 0,
                sent_at_ns: i as u64,
                body: MsgBody::App {
                    target: ObjKey { array: ArrayId(1), elem: ElemId(i as u32) },
                    entry: EntryId(3),
                    payload: bytes::Bytes::from_static(&[0xEE; 32]),
                },
            });
        }
        q
    }

    /// Seconds per contested pop when draining a `depth`-deep queue from
    /// the middle of its front class.
    fn per_pop(depth: usize) -> f64 {
        let rounds = 8;
        let mut pops = 0u64;
        let t0 = std::time::Instant::now();
        for _ in 0..rounds {
            let mut q = filled(depth);
            while q.len() > 1 {
                black_box(q.pop_nth(black_box(q.len() / 2))).expect("non-empty");
                pops += 1;
            }
        }
        t0.elapsed().as_secs_f64() / pops as f64
    }

    let (shallow, deep) = (per_pop(64), per_pop(4096));
    assert!(
        deep <= shallow * 8.0 + 100e-9,
        "contested dispatch must stay flat with queue depth: {:.1} ns/pop at 64, {:.1} ns/pop at 4096",
        shallow * 1e9,
        deep * 1e9,
    );

    let mut g = c.benchmark_group("contested_dispatch");
    for depth in [64usize, 4096] {
        g.bench_function(format!("drain_middle_{depth}"), |b| {
            b.iter(|| {
                let mut q = filled(depth);
                while q.len() > 1 {
                    black_box(q.pop_nth(q.len() / 2));
                }
                q
            })
        });
    }
    g.finish();
}

fn bench_invariants(c: &mut Criterion) {
    let app = CheckApp::stencil_mini();
    let run = app.run_sim(obs_cfg(), policy(DeliverySpec::Fifo));
    let expect = app.expectation;
    c.bench_function("invariant_layer", |b| b.iter(|| check_report(black_box(&run.report), black_box(&expect))));
}

fn bench_explore_batch(c: &mut Criterion) {
    let app = CheckApp::stencil_mini();
    let mut g = c.benchmark_group("explore");
    g.sample_size(10);
    g.bench_function("stencil_mini_8_schedules", |b| {
        b.iter(|| {
            explore(&app, &ExploreConfig { seed: 1, schedules: 8, differential_every: 0, ..ExploreConfig::default() })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_one_schedule, bench_contested_dispatch, bench_invariants, bench_explore_batch);
criterion_main!(benches);
