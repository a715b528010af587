//! Layer probes: what one envelope costs at each stage of the message
//! path, measured from outside through each layer's public constructors.
//!
//! Every probe is a short loop wrapped in a span.  A timing is the median
//! over [`BATCHES`] batches of the per-operation mean, so one descheduled
//! batch does not decide the number.  Two threads at most are runnable at
//! any time (the harness thread and one peer); the sockets are this
//! host's 127.0.0.1, not a real link.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use mdo_core::envelope::MsgBody;
use mdo_core::queue::SchedQueue;
use mdo_core::{ArrayId, ElemId, EntryId, Envelope, ObjKey};
use mdo_net::{localhost_rendezvous, NetConfig, NetMesh, NetSession};
use mdo_netsim::{AggConfig, Dur, EventQueue, FaultPlan, LatencyMatrix, Pe, SplitMix64, Time, Topology};
use mdo_vmi::{Aggregator, Mailbox, Packet, ReliableTransport, Transport, TransportConfig, Wire, WireBinding};

use crate::alloc;
use crate::host;
use crate::record::Metrics;
use crate::spans::SpanLog;
use crate::stats::{tail_with_ten_beyond, Summary};

/// Batches per timing; the reported value is their median.
const BATCHES: usize = 5;
/// A probe that has not finished by then has failed.
const DEADLINE: Duration = Duration::from_secs(20);

/// The three payload sizes of the envelope budget.
const SIZES: [(usize, &str); 3] = [(32, "32"), (1024, "1k"), (65536, "64k")];

/// Loop sizes: full for the traced pass, a few percent of it for `--quick`.
#[derive(Clone, Copy)]
pub struct Scale {
    quick: bool,
}

impl Scale {
    /// Full-size loops, or `--quick` smoke-test loops.
    pub fn new(quick: bool) -> Self {
        Scale { quick }
    }

    fn n(self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(16)
        } else {
            full
        }
    }
}

/// Median over batches of the mean nanoseconds one call of `op` takes.
fn ns_per_op(ops: usize, mut op: impl FnMut(usize)) -> Summary {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..ops {
                op(i);
            }
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    Summary::of(&per_batch)
}

fn payload(len: usize, seed: u64) -> Bytes {
    let mut rng = SplitMix64::new(seed ^ len as u64);
    Bytes::from((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>())
}

fn app_envelope(src: Pe, dst: Pe, n: u64, payload: Bytes) -> Envelope {
    Envelope {
        src,
        dst,
        priority: 0,
        sent_at_ns: n,
        body: MsgBody::App { target: ObjKey { array: ArrayId(1), elem: ElemId(n as u32) }, entry: EntryId(7), payload },
    }
}

/// `core.envelope`: `encode_into` a warm buffer, `decode_shared` from a
/// shared one, at each payload size.
fn envelope_codec(m: &mut Metrics, seed: u64, scale: Scale) {
    for (len, tag) in SIZES {
        let env = app_envelope(Pe(0), Pe(1), 1, payload(len, seed));
        let mut buf = BytesMut::with_capacity(len + 64);
        let ops = scale.n(if len > 4096 { 20_000 } else { 200_000 });
        let enc = ns_per_op(ops, |_| {
            buf.clear();
            black_box(&env).encode_into(&mut buf);
            black_box(buf.len());
        });
        m.put(&format!("core.envelope.encode_ns.{tag}"), "ns", enc);
        let wire = env.encode_bytes();
        let dec = ns_per_op(ops, |_| {
            black_box(Envelope::decode_shared(black_box(&wire)).expect("own encoding decodes"));
        });
        m.put(&format!("core.envelope.decode_ns.{tag}"), "ns", dec);
    }
}

/// `core.queue`: one push plus one pop at a standing depth of 1,024.
fn sched_queue(m: &mut Metrics, seed: u64, scale: Scale) {
    let body = payload(32, seed);
    let mut q = SchedQueue::new();
    for i in 0..1024 {
        q.push(app_envelope(Pe(0), Pe(1), i, body.clone()));
    }
    let v = ns_per_op(scale.n(200_000), |i| {
        q.push(app_envelope(Pe(0), Pe(1), i as u64, body.clone()));
        black_box(q.pop());
    });
    m.put("core.queue.push_pop_ns", "ns", v);
}

/// `netsim.event`: one schedule plus one pop at a standing depth of
/// 4,096 pending events (the `sim_sweep` stencil keeps about that many).
fn event_queue(m: &mut Metrics, seed: u64, scale: Scale) {
    let mut rng = SplitMix64::new(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..4096u64 {
        q.schedule(Time::from_nanos(rng.next_u64() % 1_000_000), i);
    }
    let v = ns_per_op(scale.n(200_000), |i| {
        let (now, _) = q.pop().expect("standing depth");
        q.schedule(now + Dur::from_nanos(rng.next_u64() % 1_000_000), i as u64);
    });
    m.put("netsim.event.schedule_pop_ns", "ns", v);
}

/// `vmi.mailbox`: uncontended post+take, batched post+take, condvar
/// signals per envelope under a bursty producer, and the latency from a
/// post to a blocked `take()` returning on another thread.
fn mailbox(m: &mut Metrics, seed: u64, scale: Scale) {
    let body = payload(32, seed);
    let pkt = || Packet::new(Pe(1), Pe(0), body.clone());
    let mb = Mailbox::new();
    let v = ns_per_op(scale.n(200_000), |_| {
        mb.post(pkt());
        black_box(mb.try_take());
    });
    m.put("vmi.mailbox.post_take_ns", "ns", v);

    let mut out = Vec::with_capacity(256);
    let per_batch = ns_per_op(scale.n(2_000), |_| {
        mb.post_many((0..256).map(|_| pkt()));
        mb.take_many(&mut out, 256);
        out.clear();
    });
    let per_env = |s: f64| s / 256.0;
    m.put(
        "vmi.mailbox.post_many_take_many_ns",
        "ns",
        Summary {
            median: per_env(per_batch.median),
            q1: per_env(per_batch.q1),
            q3: per_env(per_batch.q3),
            n: per_batch.n,
        },
    );

    // A consumer blocked in take(); the producer stamps each packet with
    // its send time.  Bursts of 64 with a pause between them measure how
    // many wake-ups a burst costs; single posts 1 ms apart find the
    // consumer asleep and measure the wake-up itself.
    let mb = Arc::new(Mailbox::new());
    let epoch = Instant::now();
    let stamp = |epoch: Instant| Bytes::from(epoch.elapsed().as_nanos().to_le_bytes()[..8].to_vec());
    let singles = scale.n(400);
    let bursts = scale.n(200);
    let consumer = {
        let mb = Arc::clone(&mb);
        std::thread::spawn(move || {
            let mut wake_us = Vec::with_capacity(singles);
            while let Some(p) = mb.take() {
                let sent = u64::from_le_bytes(p.payload[..8].try_into().expect("8-byte stamp"));
                if p.priority == 1 {
                    wake_us.push((epoch.elapsed().as_nanos() as u64).saturating_sub(sent) as f64 / 1e3);
                }
            }
            wake_us
        })
    };
    for _ in 0..bursts {
        for _ in 0..64 {
            mb.post(Packet::new(Pe(1), Pe(0), stamp(epoch)));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let signals = mb.wakeup_signals();
    m.put("vmi.mailbox.signals_per_env", "1/env", Summary::single(signals as f64 / (bursts * 64) as f64));
    for _ in 0..singles {
        std::thread::sleep(Duration::from_millis(1));
        mb.post(Packet::with_priority(Pe(1), Pe(0), 1, stamp(epoch)));
    }
    mb.close();
    let wake_us = consumer.join().expect("mailbox consumer");
    m.put("vmi.mailbox.wake_p50_us", "us", Summary::of(&wake_us));
}

/// A two-PE, two-cluster in-memory transport with `wan` injected one way.
fn memory_transport(wan: Dur) -> Arc<Transport> {
    let topo = Topology::uniform(2, 1);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, wan);
    Transport::new(TransportConfig::new(topo, latency))
}

/// `vmi.devices.delay`: how late the delay device delivers.  Packets
/// leave 200 µs apart through `Transport` at 32 ms one-way (the
/// `stencil_mask` latency); error = delivered − (sent + 32 ms).
fn delay_device(m: &mut Metrics, scale: Scale) {
    let wan = Dur::from_millis(32);
    let transport = memory_transport(wan);
    let n = scale.n(1_000);
    let epoch = Instant::now();
    let receiver = {
        let transport = Arc::clone(&transport);
        std::thread::spawn(move || {
            let mut err_us = Vec::with_capacity(n);
            while err_us.len() < n {
                let Some(p) = transport.recv_timeout(Pe(1), DEADLINE) else { break };
                let sent = u64::from_le_bytes(p.payload[..8].try_into().expect("8-byte stamp"));
                let due = sent + wan.as_nanos();
                err_us.push((epoch.elapsed().as_nanos() as u64).saturating_sub(due) as f64 / 1e3);
            }
            err_us
        })
    };
    for _ in 0..n {
        let sent = epoch.elapsed().as_nanos() as u64;
        transport.send(Packet::new(Pe(0), Pe(1), Bytes::from(sent.to_le_bytes().to_vec())));
        std::thread::sleep(Duration::from_micros(200));
    }
    let err_us = receiver.join().expect("delay receiver");
    transport.shutdown();
    assert_eq!(err_us.len(), n, "the delay device delivered every packet");
    m.put("vmi.devices.delay.error_p50_us", "us", Summary::of(&err_us));
    let tail = tail_with_ten_beyond(&err_us).map_or(f64::NAN, |(_, v)| v);
    m.put("vmi.devices.delay.error_p99_us", "us", Summary { median: tail, q1: tail, q3: tail, n: err_us.len() });
}

/// `vmi.aggregate` and `vmi.reliable` send paths: the cost of handing one
/// 32-byte envelope to each layer when it is armed, and what the
/// aggregating send path allocates per envelope.
fn armed_send_paths(m: &mut Metrics, seed: u64, scale: Scale) {
    let body = payload(32, seed);
    let n = scale.n(50_000);

    let raw = memory_transport(Dur::ZERO);
    let agg = Aggregator::with_policy(ReliableTransport::passthrough(Arc::clone(&raw)), AggConfig::default());
    let drain = |agg: &Aggregator| while agg.try_recv(Pe(1)).is_some() {};
    let mut seq = 0u64;
    let mut send = |agg: &Aggregator| {
        let env = app_envelope(Pe(0), Pe(1), seq, body.clone());
        seq += 1;
        agg.send_with(Pe(0), Pe(1), env.priority, false, |buf| env.encode_into(buf));
    };
    let v = ns_per_op(n, |i| {
        send(&agg);
        if i % 4096 == 4095 {
            drain(&agg);
        }
    });
    drain(&agg);
    m.put("vmi.aggregate.send_ns.32", "ns", v);
    // Building the envelope costs the caller two allocations (the payload
    // handle is cloned, not copied, so here it is none); what remains is
    // the aggregator's own: frame buffers and shipped packets.
    let (_, allocs) = alloc::count(|| {
        for _ in 0..n {
            send(&agg);
        }
    });
    drain(&agg);
    m.put("vmi.aggregate.allocs_per_env", "1/env", Summary::single(allocs as f64 / n as f64));
    agg.shutdown();
    raw.shutdown();

    // Reliable layer armed as the engines arm it on a clean wire: RTO far
    // above the round trip, so nothing retransmits unless something broke.
    let raw = memory_transport(Dur::ZERO);
    let rt = ReliableTransport::with_plan(Arc::clone(&raw), FaultPlan::default().with_rto(Dur::from_millis(500)));
    let pkt = Packet::new(Pe(0), Pe(1), app_envelope(Pe(0), Pe(1), 0, body).encode_bytes());
    let v = ns_per_op(n, |i| {
        rt.send(pkt.clone());
        if i % 1024 == 1023 {
            // The receiver's recv generates acks; the sender's recv absorbs them.
            while rt.try_recv(Pe(1)).is_some() {}
            while rt.try_recv(Pe(0)).is_some() {}
        }
    });
    while rt.try_recv(Pe(1)).is_some() {}
    while rt.try_recv(Pe(0)).is_some() {}
    m.put("vmi.reliable.send_ns.32", "ns", v);
    m.put("vmi.reliable.retransmits", "count", Summary::single(rt.retransmits() as f64));
    rt.shutdown();
    raw.shutdown();
}

/// One endpoint of the engines' default stack: aggregator passthrough →
/// reliable passthrough → transport → mailbox, optionally leaving the
/// process through a `NetMesh`.
struct Endpoint {
    agg: Arc<Aggregator>,
    raw: Arc<Transport>,
    mesh: Option<Arc<NetMesh>>,
}

impl Endpoint {
    fn in_memory() -> Endpoint {
        let raw = memory_transport(Dur::ZERO);
        Endpoint { agg: Aggregator::passthrough(ReliableTransport::passthrough(Arc::clone(&raw))), raw, mesh: None }
    }

    fn over(mesh: Arc<NetMesh>, me: u32) -> Endpoint {
        let topo = Topology::uniform(2, 1);
        let mut tc = TransportConfig::new(topo.clone(), LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO));
        tc.wire = Some(WireBinding::new(Arc::clone(&mesh) as Arc<dyn Wire>, &[Pe(me)], 2));
        let raw = Transport::new(tc);
        {
            let raw = Arc::clone(&raw);
            mesh.start(move |pkt| {
                if pkt.dst.index() < 2 {
                    raw.mailbox(pkt.dst).post(pkt);
                }
            });
        }
        Endpoint {
            agg: Aggregator::passthrough(ReliableTransport::passthrough(Arc::clone(&raw))),
            raw,
            mesh: Some(mesh),
        }
    }

    fn send(&self, from: Pe, to: Pe, env: &Envelope) {
        self.agg.send_with(from, to, env.priority, false, |buf| env.encode_into(buf));
    }

    fn shutdown(&self) {
        self.agg.shutdown();
        self.raw.shutdown();
        if let Some(mesh) = &self.mesh {
            mesh.shutdown();
        }
    }
}

/// What a chain measurement yields.
struct ChainNumbers {
    env_per_s_32: f64,
    mib_per_s_64k: f64,
    rtt_us: Vec<f64>,
    cpu_us_per_env: f64,
}

/// Drive the default stack between PE 0 (`a`, this thread) and PE 1 (`b`,
/// a peer thread): a one-way stream of 32-byte envelopes, a one-way stream
/// of 64 KiB envelopes, then single-envelope round trips.  `a` and `b`
/// are the same endpoint in memory and two meshed endpoints over TCP.
fn drive_chain(a: &Endpoint, b: &Endpoint, seed: u64, scale: Scale) -> ChainNumbers {
    let (n_small, n_bulk, n_rtt) = (scale.n(100_000), scale.n(2_000), scale.n(2_000));
    let small = app_envelope(Pe(0), Pe(1), 0, payload(32, seed));
    let bulk = app_envelope(Pe(0), Pe(1), 0, payload(65536, seed));
    let pong = app_envelope(Pe(1), Pe(0), 0, payload(32, seed));
    std::thread::scope(|s| {
        // The peer: count the two streams, acknowledge each with one
        // envelope, then echo until told to stop (priority 9).
        let peer = s.spawn(|| {
            for n in [n_small, n_bulk] {
                for _ in 0..n {
                    b.agg.recv_timeout(Pe(1), DEADLINE).expect("stream envelope");
                }
                b.send(Pe(1), Pe(0), &pong);
            }
            loop {
                let p = b.agg.recv_timeout(Pe(1), DEADLINE).expect("ping");
                if p.priority == 9 {
                    break;
                }
                b.send(Pe(1), Pe(0), &pong);
            }
        });
        let stream = |env: &Envelope, n: usize| -> (f64, f64) {
            let cpu0 = host::cpu_ms();
            let t0 = Instant::now();
            for _ in 0..n {
                a.send(Pe(0), Pe(1), env);
            }
            a.agg.recv_timeout(Pe(0), DEADLINE).expect("stream acknowledged");
            (t0.elapsed().as_secs_f64(), host::cpu_ms() - cpu0)
        };
        let (small_s, small_cpu_ms) = stream(&small, n_small);
        let (bulk_s, _) = stream(&bulk, n_bulk);
        let rtt_us: Vec<f64> = (0..n_rtt)
            .map(|_| {
                let t0 = Instant::now();
                a.send(Pe(0), Pe(1), &small);
                a.agg.recv_timeout(Pe(0), DEADLINE).expect("pong");
                t0.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        a.send(Pe(0), Pe(1), &Envelope { priority: 9, ..small.clone() });
        peer.join().expect("chain peer");
        ChainNumbers {
            env_per_s_32: n_small as f64 / small_s,
            mib_per_s_64k: (n_bulk * 65536) as f64 / bulk_s / (1 << 20) as f64,
            rtt_us,
            cpu_us_per_env: small_cpu_ms * 1e3 / n_small as f64,
        }
    })
}

/// Establish a two-node loopback mesh: node 1 on a helper thread, node 0
/// here.  Returns both meshes and how long node 0's `establish` took.
fn loopback_meshes() -> (Arc<NetMesh>, Arc<NetMesh>, f64) {
    let topo = Topology::uniform(2, 1);
    let (mut listeners, addrs) = localhost_rendezvous(2).expect("loopback ports");
    let l1 = listeners.pop().expect("listener 1");
    let l0 = listeners.pop().expect("listener 0");
    let peer = {
        let (topo, addrs) = (topo.clone(), addrs.clone());
        std::thread::spawn(move || {
            let session = NetSession::with_listener(NetConfig::new(1, addrs), l1).expect("session 1");
            Arc::new(session.establish(0, &topo, &[0, 1]).expect("establish node 1"))
        })
    };
    let session = NetSession::with_listener(NetConfig::new(0, addrs), l0).expect("session 0");
    let t0 = Instant::now();
    let m0 = Arc::new(session.establish(0, &topo, &[0, 1]).expect("establish node 0"));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (m0, peer.join().expect("mesh peer"), ms)
}

/// `net.mesh`: the bare socket layer under the stack — establish, the
/// cost of one `Wire::send`, round trips and one-way streams with the
/// reader threads' deliver callbacks as the only receivers.
fn raw_mesh(m: &mut Metrics, seed: u64, scale: Scale) {
    let establish: Vec<f64> = (0..3)
        .map(|_| {
            let (m0, m1, ms) = loopback_meshes();
            m0.shutdown();
            m1.shutdown();
            ms
        })
        .collect();
    m.put("net.mesh.establish_ms", "ms", Summary::of(&establish));

    let (m0, m1, _) = loopback_meshes();
    // Node 1 echoes priority-1 packets and counts the rest; node 0 posts
    // what it receives into a mailbox this thread blocks on.
    let counted = Arc::new(AtomicU64::new(0));
    let inbox = Arc::new(Mailbox::new());
    {
        let (echo, counted) = (Arc::clone(&m1), Arc::clone(&counted));
        m1.start(move |pkt| {
            if pkt.priority == 1 {
                echo.send(Packet::with_priority(pkt.dst, pkt.src, 1, pkt.payload));
            } else if counted.fetch_add(1, Ordering::Relaxed) + 1
                == u64::from_le_bytes(pkt.payload[..8].try_into().expect("target"))
            {
                echo.send(Packet::new(pkt.dst, pkt.src, Bytes::new()));
            }
        });
        let inbox = Arc::clone(&inbox);
        m0.start(move |pkt| inbox.post(pkt));
    }
    let wait = |what: &str| inbox.take_timeout(DEADLINE).unwrap_or_else(|| panic!("{what} timed out"));

    // 1,000 round trips: the highest percentile with ten samples beyond it is p99.
    let n_rtt = scale.n(1_000);
    let ping = payload(32, seed);
    let rtt_us: Vec<f64> = (0..n_rtt)
        .map(|_| {
            let t0 = Instant::now();
            m0.send(Packet::with_priority(Pe(0), Pe(1), 1, ping.clone()));
            wait("raw pong");
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    m.put("net.mesh.raw_rtt_p50_us", "us", Summary::of(&rtt_us));
    let tail = tail_with_ten_beyond(&rtt_us).map_or(f64::NAN, |(_, v)| v);
    m.put("net.mesh.raw_rtt_p99_us", "us", Summary { median: tail, q1: tail, q3: tail, n: rtt_us.len() });

    // One-way streams: every packet carries the running total at which
    // the receiver should acknowledge, so the sender needs no side channel.
    let mut target = 0u64;
    let mut stream = |len: usize, n: usize| -> (f64, Vec<f64>) {
        target += n as u64;
        let mut body = target.to_le_bytes().to_vec();
        body.extend_from_slice(&payload(len - 8, seed));
        let body = Bytes::from(body);
        let mut send_ns = Vec::with_capacity(BATCHES);
        let t0 = Instant::now();
        for batch in 0..BATCHES {
            let t = Instant::now();
            let per = n / BATCHES + usize::from(batch < n % BATCHES);
            for _ in 0..per {
                m0.send(Packet::new(Pe(0), Pe(1), body.clone()));
            }
            send_ns.push(t.elapsed().as_nanos() as f64 / per.max(1) as f64);
        }
        wait("raw stream acknowledgement");
        (t0.elapsed().as_secs_f64(), send_ns)
    };
    let n_small = scale.n(100_000);
    let (small_s, send_ns) = stream(32, n_small);
    m.put("net.mesh.send_ns.32", "ns", Summary::of(&send_ns));
    m.put("net.mesh.raw_env_per_s.32", "1/s", Summary::single(n_small as f64 / small_s));
    let n_bulk = scale.n(2_000);
    let (bulk_s, _) = stream(65536, n_bulk);
    m.put("net.mesh.raw_mib_per_s.64k", "MiB/s", Summary::single((n_bulk * 65536) as f64 / bulk_s / (1 << 20) as f64));
    m0.shutdown();
    m1.shutdown();
}

fn put_chain(m: &mut Metrics, layer: &str, c: &ChainNumbers) {
    m.put(&format!("{layer}.env_per_s.32"), "1/s", Summary::single(c.env_per_s_32));
    m.put(&format!("{layer}.mib_per_s.64k"), "MiB/s", Summary::single(c.mib_per_s_64k));
    m.put(&format!("{layer}.rtt_p50_us"), "us", Summary::of(&c.rtt_us));
}

/// Run every layer probe, each under its own span, and put its metrics
/// into `m`.
pub fn run_all(log: &mut SpanLog, m: &mut Metrics, seed: u64, scale: Scale) {
    log.span("probe.core.envelope", |_| envelope_codec(m, seed, scale));
    log.span("probe.core.queue", |_| sched_queue(m, seed, scale));
    log.span("probe.netsim.event", |_| event_queue(m, seed, scale));
    log.span("probe.vmi.mailbox", |_| mailbox(m, seed, scale));
    log.span("probe.vmi.devices.delay", |_| delay_device(m, scale));
    log.span("probe.vmi.aggregate+reliable", |_| armed_send_paths(m, seed, scale));
    let memory = log.span("probe.vmi.chain", |_| {
        let ep = Endpoint::in_memory();
        let c = drive_chain(&ep, &ep, seed, scale);
        ep.shutdown();
        c
    });
    put_chain(m, "vmi.chain", &memory);
    log.span("probe.net.mesh", |_| raw_mesh(m, seed, scale));
    let tcp = log.span("probe.net.chain", |log| {
        let (m0, m1, _) = log.span("net.mesh.establish", |_| loopback_meshes());
        let (a, b) = (Endpoint::over(m0, 0), Endpoint::over(m1, 1));
        let c = drive_chain(&a, &b, seed, scale);
        a.shutdown();
        b.shutdown();
        c
    });
    put_chain(m, "net.chain", &tcp);
    m.put("net.chain.cpu_us_per_env", "us", Summary::single(tcp.cpu_us_per_env));
    m.put("net.chain.socket_gap", "ratio", Summary::single(memory.env_per_s_32 / tcp.env_per_s_32));
}
