//! Gluing ranks onto a chare array and running them.
//!
//! Each rank's async body lives inside a `RankChare`.  The chare polls the
//! future whenever a message for the rank arrives (plus once at kick-off),
//! then drains the rank's outbox into real runtime sends, its charges
//! into [`mdo_core::chare::Ctx::charge`] (interleaved with the sends, so a
//! message leaves where the rank's compute issued it) and the collective
//! it entered into a runtime contribution or multicast, which leaves from
//! the end of that compute as every effect does.  The array's one
//! reduction client exits on the job-end `SumU64`, which every rank
//! contributes when its future completes, and broadcasts any other result
//! to every rank under the reduction's `result_tag`.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use mdo_core::chare::{Chare, Ctx};
use mdo_core::envelope::ReduceData;
use mdo_core::ids::{ElemId, EntryId};
use mdo_core::prelude::{WireReader, WireWriter};
use mdo_core::program::{Program, RunConfig, RunReport};
use mdo_core::{Mapping, SimEngine, ThreadedConfig, ThreadedEngine};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, LatencyMatrix, Topology};

use crate::collectives::{result_tag, Collective};
use crate::rank::{noop_waker, Msg, Rank};

/// A rank body: given its [`Rank`] handle, produce the rank's task.
pub type RankBody = Arc<dyn Fn(Rank) -> Pin<Box<dyn Future<Output = ()> + Send>> + Send + Sync>;

/// Entry: poll the rank (the start-up kick-off).
const KICK: EntryId = EntryId(1);
/// Entry: rank-to-rank message (payload: src u32, tag i32, bytes).
const MSG: EntryId = EntryId(2);

struct RankChare {
    rank: Rank,
    /// The rank's task; `None` once it has returned.  A future runs
    /// nothing until polled, so it is made with the chare.
    future: Option<Pin<Box<dyn Future<Output = ()> + Send>>>,
}

impl RankChare {
    fn poll_and_drain(&mut self, ctx: &mut Ctx<'_>) {
        // Refresh rank-visible metadata.
        {
            let mut s = self.rank.shared.lock();
            s.now_ns = ctx.now().as_nanos();
            s.my_cluster = ctx.my_cluster().0;
        }
        if let Some(fut) = self.future.as_mut() {
            let waker = noop_waker();
            let mut cx = Context::from_waker(&waker);
            if let Poll::Ready(()) = fut.as_mut().poll(&mut cx) {
                self.future = None;
                // The job-end reduction: one contribution per rank, and
                // the only SumU64 the rank array runs.
                ctx.contribute_u64_sum(&[1]);
            }
        }
        // Drain buffered effects into the runtime.  A rank awaits each
        // collective it enters, so a collective follows all of the poll's
        // compute, and leaves from where that compute ends.
        let (outbox, charges, collectives) = {
            let mut s = self.rank.shared.lock();
            (std::mem::take(&mut s.outbox), std::mem::take(&mut s.charges), std::mem::take(&mut s.collectives))
        };
        let me = ctx.me();
        let my_rank = ctx.my_elem().0;
        // A message leaves at the point of the rank's compute it was sent
        // from.
        let mut charged = Dur::ZERO;
        for (dst, tag, data, at) in outbox {
            ctx.charge(at - charged);
            charged = at;
            ctx.send(me.array, ElemId(dst), MSG, rank_msg(my_rank, tag, &data));
        }
        ctx.charge(charges - charged);
        for c in collectives {
            match c {
                Collective::Reduce(op, vals) => ctx.contribute_f64(op, &vals),
                Collective::Gather(data) => ctx.contribute_gather(data),
                Collective::Bcast(tag, data) => {
                    let all: Vec<ElemId> = (0..self.rank.size()).map(ElemId).collect();
                    ctx.multicast(me.array, &all, MSG, rank_msg(my_rank, tag, &data));
                }
            }
        }
    }
}

/// A [`MSG`] payload.
fn rank_msg(src: u32, tag: i32, data: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(12 + data.len());
    w.u32(src).i32(tag).bytes(data);
    w.finish()
}

impl Chare for RankChare {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        match entry {
            KICK => {}
            MSG => {
                let mut r = WireReader::new(payload);
                let src = r.u32().expect("rank msg src");
                let tag = r.i32().expect("rank msg tag");
                let data = r.bytes().expect("rank msg body").to_vec();
                self.rank.shared.lock().inbox.push(Msg { src, tag, data });
            }
            other => panic!("unknown AMPI entry {other:?}"),
        }
        self.poll_and_drain(ctx);
    }
}

/// Assemble an AMPI job as a runtime [`Program`]: `n_ranks` ranks placed by
/// `mapping`, each running `body`; the program exits when every rank's
/// body returns.
pub fn build_ampi_program(n_ranks: u32, mapping: Mapping, body: RankBody) -> Program {
    assert!(n_ranks > 0);
    let mut p = Program::new();
    let arr = p.array("ampi-ranks", n_ranks as usize, mapping, move |elem| {
        let rank = Rank::new(elem.0, n_ranks);
        Box::new(RankChare { future: Some(body(rank.clone())), rank }) as Box<dyn Chare>
    });
    p.on_startup(move |ctl| ctl.broadcast(arr, KICK, vec![]));
    p.on_reduction(arr, move |seq, data, ctl| {
        let mut w = WireWriter::new();
        match data {
            ReduceData::U64(_) => return ctl.exit(),
            ReduceData::F64(vals) => w.f64_slice(vals),
            ReduceData::Gathered(rows) => rows.iter().fold(&mut w, |w, (_, row)| w.bytes(row)),
            ReduceData::Exact(_) => unreachable!("a client receives a sum rounded"),
        };
        ctl.broadcast(arr, MSG, rank_msg(0, result_tag(seq), &w.finish()));
    });
    p
}

/// Run an AMPI job under the simulation engine.
pub fn run_sim(n_ranks: u32, mapping: Mapping, net: NetworkModel, cfg: RunConfig, body: RankBody) -> RunReport {
    let program = build_ampi_program(n_ranks, mapping, body);
    SimEngine::new(net, cfg).run(program)
}

/// Run an AMPI job under the threaded engine.
pub fn run_threaded(
    n_ranks: u32,
    mapping: Mapping,
    topo: Topology,
    latency: LatencyMatrix,
    cfg: RunConfig,
    body: RankBody,
) -> RunReport {
    let program = build_ampi_program(n_ranks, mapping, body);
    ThreadedEngine::new(topo, ThreadedConfig::new(latency), cfg).run(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_netsim::Dur;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sweep_net(pes: u32, cross_ms: u64) -> NetworkModel {
        NetworkModel::two_cluster_sweep(pes, Dur::from_millis(cross_ms))
    }

    #[test]
    fn ranks_run_to_completion_without_communication() {
        static RAN: AtomicU64 = AtomicU64::new(0);
        RAN.store(0, Ordering::SeqCst);
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                rank.charge(Dur::from_micros(10));
                RAN.fetch_add(1, Ordering::SeqCst);
            })
        });
        let report = run_sim(8, Mapping::Block, sweep_net(4, 1), RunConfig::default(), body);
        assert_eq!(RAN.load(Ordering::SeqCst), 8);
        assert!(report.end_time > mdo_netsim::Time::ZERO);
    }

    #[test]
    fn point_to_point_roundtrip() {
        static GOT: AtomicU64 = AtomicU64::new(0);
        GOT.store(0, Ordering::SeqCst);
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                let me = rank.rank();
                if me == 0 {
                    rank.send(1, 42, vec![5, 6, 7]);
                    let reply = rank.recv_from(1, 43).await;
                    assert_eq!(reply, vec![8]);
                    GOT.fetch_add(1, Ordering::SeqCst);
                } else {
                    let m = rank.recv(Some(0), Some(42)).await;
                    assert_eq!(m.data, vec![5, 6, 7]);
                    rank.send(0, 43, vec![8]);
                }
            })
        });
        // Ranks 0 and 1 on different clusters (2 PEs, Block mapping).
        run_sim(2, Mapping::Block, sweep_net(2, 4), RunConfig::default(), body);
        assert_eq!(GOT.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wildcard_receive() {
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                let me = rank.rank();
                if me == 0 {
                    // Receive from whichever arrives; both must arrive.
                    let a = rank.recv(None, Some(1)).await;
                    let b = rank.recv(None, Some(1)).await;
                    let mut srcs = vec![a.src, b.src];
                    srcs.sort_unstable();
                    assert_eq!(srcs, vec![1, 2]);
                } else {
                    rank.send(0, 1, vec![me as u8]);
                }
            })
        });
        run_sim(3, Mapping::RoundRobin, sweep_net(2, 2), RunConfig::default(), body);
    }

    #[test]
    fn many_ranks_per_pe_virtualization() {
        // 32 ranks on 4 PEs: a ring where each rank passes a token to the
        // next; exercises suspended-future multiplexing on each PE.
        static SUM: AtomicU64 = AtomicU64::new(0);
        SUM.store(0, Ordering::SeqCst);
        let n = 32u32;
        let body: RankBody = Arc::new(move |rank| {
            Box::pin(async move {
                let me = rank.rank();
                let next = (me + 1) % n;
                let prev = (me + n - 1) % n;
                rank.send(next, 0, vec![1]);
                let m = rank.recv(Some(prev), Some(0)).await;
                SUM.fetch_add(m.data[0] as u64, Ordering::SeqCst);
            })
        });
        run_sim(n, Mapping::Block, sweep_net(4, 2), RunConfig::default(), body);
        assert_eq!(SUM.load(Ordering::SeqCst), n as u64);
    }

    #[test]
    fn messages_to_self_resolve() {
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                let me = rank.rank();
                rank.send(me, 9, vec![me as u8]);
                let m = rank.recv(Some(me), Some(9)).await;
                assert_eq!(m.data, vec![me as u8]);
            })
        });
        run_sim(4, Mapping::Block, sweep_net(2, 1), RunConfig::default(), body);
    }

    #[test]
    fn charge_shapes_virtual_time() {
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                rank.charge(Dur::from_millis(7));
            })
        });
        let report = run_sim(1, Mapping::Block, sweep_net(2, 0), RunConfig::default(), body);
        assert!(report.pe_busy[0] >= Dur::from_millis(7));
    }

    #[test]
    fn a_collective_entered_after_compute_waits_for_it() {
        // Rank 1, kicked 1 ms away from PE 0, computes 10 ms and enters a
        // barrier rank 0 is already waiting in.  Its contribution reaches
        // the root at 1 + 10 + 1 ms, and the result takes another 1 ms back.
        static LEFT_US: std::sync::Mutex<Vec<(u32, u64)>> = std::sync::Mutex::new(Vec::new());
        LEFT_US.lock().unwrap().clear();
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                if rank.rank() == 1 {
                    rank.charge(Dur::from_millis(10));
                }
                rank.barrier().await;
                LEFT_US.lock().unwrap().push((rank.rank(), rank.now().as_nanos() / 1000));
            })
        });
        run_sim(2, Mapping::Block, sweep_net(2, 1), RunConfig::default(), body);
        let mut left = LEFT_US.lock().unwrap().clone();
        left.sort();
        assert_eq!(left, vec![(0, 12_000), (1, 13_000)]);
    }

    #[test]
    fn threaded_engine_runs_ampi() {
        static DONE: AtomicU64 = AtomicU64::new(0);
        DONE.store(0, Ordering::SeqCst);
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                let me = rank.rank();
                let n = rank.size();
                if me == 0 {
                    for r in 1..n {
                        rank.send(r, 0, vec![r as u8]);
                    }
                    for _ in 1..n {
                        rank.recv(None, Some(1)).await;
                    }
                } else {
                    let m = rank.recv(Some(0), Some(0)).await;
                    assert_eq!(m.data, vec![me as u8]);
                    rank.send(0, 1, vec![]);
                }
                DONE.fetch_add(1, Ordering::SeqCst);
            })
        });
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
        run_threaded(8, Mapping::Block, topo, latency, RunConfig::default(), body);
        assert_eq!(DONE.load(Ordering::SeqCst), 8);
    }
}
