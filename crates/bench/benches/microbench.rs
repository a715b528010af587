//! Criterion microbenches for the runtime's hot paths and the application
//! kernels.  These are the pieces whose cost the experiment harness
//! *models*; benchmarking them keeps the cost-model assumptions honest on
//! the host and guards the runtime against performance regressions.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use mdo_apps::leanmd::kernels::{forces_between, ForceParams};
use mdo_apps::leanmd::seq::CellAtoms;
use mdo_apps::leanmd::{self, geometry::CellGrid, MdConfig};
use mdo_apps::stencil::{self, seq::SeqStencil, StencilConfig};
use mdo_core::checkpoint::{ArraySnapshot, Snapshot};
use mdo_core::envelope::{Envelope, MsgBody, ReduceData, ReduceOp};
use mdo_core::ids::{ArrayId, ElemId, EntryId, ObjKey};
use mdo_core::program::RunConfig;
use mdo_core::queue::SchedQueue;
use mdo_core::reduction::{combine, ExactSum};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, EventQueue, Pe, Time};
use mdo_vmi::devices::crc::crc32;

fn app_envelope(payload_len: usize) -> Envelope {
    Envelope {
        src: Pe(3),
        dst: Pe(9),
        priority: 0,
        sent_at_ns: 42,
        body: MsgBody::App {
            target: ObjKey::new(ArrayId(1), ElemId(77)),
            entry: EntryId(4),
            payload: vec![7u8; payload_len].into(),
        },
    }
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    for len in [64usize, 2048] {
        let env = app_envelope(len);
        let bytes = env.encode();
        g.throughput(Throughput::Bytes(bytes.len() as u64));
        g.bench_function(format!("encode_{len}B"), |b| b.iter(|| black_box(&env).encode()));
        g.bench_function(format!("decode_{len}B"), |b| b.iter(|| Envelope::decode(black_box(&bytes)).unwrap()));
    }
    g.finish();
}

fn bench_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("queues");
    g.bench_function("sched_queue_push_pop_1k", |b| {
        b.iter_batched(
            || {
                (0..1000)
                    .map(|i| {
                        let mut e = app_envelope(16);
                        e.priority = (i % 7) - 3;
                        e
                    })
                    .collect::<Vec<_>>()
            },
            |envs| {
                let mut q = SchedQueue::new();
                for e in envs {
                    q.push(e);
                }
                while let Some(e) = q.pop() {
                    black_box(e.priority);
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("event_queue_schedule_pop_1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..1000u32 {
                q.schedule(Time::from_nanos(((i * 2_654_435_761) % 100_000) as u64), i);
            }
            while let Some((_, v)) = q.pop() {
                black_box(v);
            }
        })
    });
    g.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let mut g = c.benchmark_group("vmi_devices");
    let random: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("crc32_4k", |b| b.iter(|| crc32(black_box(&random))));
    g.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint");
    // A LeanMD-sized snapshot: 216 + 3024 elements, realistic byte sizes.
    let snap = Snapshot {
        arrays: vec![
            ArraySnapshot { array: ArrayId(0), red_next: 0, elems: (0..216).map(|i| vec![i as u8; 3400]).collect() },
            ArraySnapshot { array: ArrayId(1), red_next: 0, elems: (0..3024).map(|i| vec![i as u8; 8]).collect() },
        ],
    };
    let bytes = snap.encode();
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_leanmd_sized", |b| b.iter(|| black_box(&snap).encode()));
    g.bench_function("decode_leanmd_sized", |b| b.iter(|| Snapshot::decode(black_box(&bytes)).unwrap()));
    g.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("app_kernels");

    // One 256x256 stencil block step (the paper's 64-object block size).
    let mut field = SeqStencil::new(256);
    g.throughput(Throughput::Elements(256 * 256));
    g.bench_function("stencil_block_step_256", |b| b.iter(|| field.step()));

    // One LeanMD cell-pair force evaluation at paper scale (140 atoms).
    let grid = CellGrid::paper();
    let a = CellAtoms::init(grid, 0, 140, 1.0, 1);
    let bb = CellAtoms::init(grid, 1, 140, 1.0, 1);
    let params = ForceParams::default();
    g.throughput(Throughput::Elements(140 * 140));
    g.bench_function("leanmd_pair_forces_140x140", |b| {
        b.iter(|| forces_between(&a.pos, &a.q, &bb.pos, &bb.q, [0.0, 0.0, 0.0], &params))
    });

    g.bench_function("reduction_combine_sum64", |b| {
        b.iter_batched(
            || (ReduceData::Exact(vec![ExactSum::new(1.0); 64]), ReduceData::Exact(vec![ExactSum::new(2.0); 64])),
            |(mut acc, other)| combine(ReduceOp::SumF64, &mut acc, other),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end_sim");
    g.sample_size(20);

    // A full small stencil experiment through the simulation engine: this
    // is one data point of Figure 3, so its wall cost bounds the harness.
    g.bench_function("stencil_64obj_8pe_5steps", |b| {
        b.iter(|| {
            let cfg = StencilConfig::paper(64, 5);
            let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(4));
            stencil::run_sim(cfg, net, RunConfig::default()).ms_per_step
        })
    });

    // One data point of Figure 4 (full 3,240-object LeanMD, 2 steps).
    g.bench_function("leanmd_paper_8pe_2steps", |b| {
        b.iter(|| {
            let cfg = MdConfig::paper(2);
            let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(4));
            leanmd::run_sim(cfg, net, RunConfig::default()).s_per_step
        })
    });
    g.finish();
}

criterion_group!(benches, bench_wire, bench_queues, bench_codecs, bench_checkpoint, bench_kernels, bench_end_to_end);
criterion_main!(benches);
