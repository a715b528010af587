//! MPI collectives.
//!
//! `barrier`, `gather`, `reduce_f64` and `allreduce_f64` are a reduction
//! over the rank array (a barrier contributes an empty `SumF64`), so they
//! share the runtime's spanning tree, its per-PE combining and its exact
//! sums: an MPI sum is rounded once, whatever the arrival order.  `bcast`
//! is the root's section multicast to every rank: its cluster-mates get
//! the data over the LAN, and each other cluster after one WAN hop (one
//! copy per remote PE, or per remote cluster with `tree_collectives`).
//! Every rank awaits each result, the ones that return `None` and a
//! `bcast`'s root included.  `sendrecv`, `scatter`, `alltoall` and
//! `scan_f64` have no runtime counterpart and stay point-to-point.
//!
//! Tags below zero are reserved here.  Each collective call consumes one
//! *collective sequence number* per rank (all ranks must call collectives
//! in the same order, as MPI requires); the sequence number and the
//! algorithm round are folded into the reserved tag so that overlapping
//! collectives cannot cross-match.  A reduction's result takes round 1 of
//! the reduction's own number, which no point-to-point collective uses.

use mdo_core::envelope::ReduceOp;
use mdo_core::prelude::WireReader;

use crate::rank::Rank;
use crate::AmpiOp;

/// Fold a (collective seq, round) pair into a reserved negative tag.
fn ctag(seq: u32, round: u32) -> i32 {
    // 20 bits of sequence, 10 bits of round, below zero.
    let packed = ((seq & 0xF_FFFF) << 10) | (round & 0x3FF);
    -1 - (packed as i32)
}

/// The reserved tag the result of the rank array's reduction `seq` is
/// filed under.
pub(crate) fn result_tag(seq: u32) -> i32 {
    ctag(seq, 1)
}

/// Allocate the rank's next collective sequence number (all ranks call
/// collectives in the same order, so equal numbers identify the same
/// collective instance).
fn next_seq(rank: &Rank) -> u32 {
    rank.bump_collective_seq()
}

/// A collective a rank has entered, for its chare to hand to the runtime.
#[derive(Debug)]
pub(crate) enum Collective {
    /// Contribute an f64 vector to the rank array's next reduction.
    Reduce(ReduceOp, Vec<f64>),
    /// Contribute bytes to the rank array's next reduction, a gather.
    Gather(Vec<u8>),
    /// Multicast a rank message `(tag, data)` to every rank, the sender
    /// included.
    Bcast(i32, Vec<u8>),
}

/// The runtime's operator for an MPI one.
fn reduce_op(op: AmpiOp) -> ReduceOp {
    match op {
        AmpiOp::Sum => ReduceOp::SumF64,
        AmpiOp::Min => ReduceOp::MinF64,
        AmpiOp::Max => ReduceOp::MaxF64,
    }
}

impl Rank {
    /// Enter the rank array's next reduction and await its result.
    async fn reduction(&self, c: Collective) -> Vec<u8> {
        let tag = {
            let mut s = self.shared.lock();
            s.collectives.push(c);
            let seq = s.reductions;
            s.reductions = seq.wrapping_add(1);
            result_tag(seq)
        };
        self.recv(None, Some(tag)).await.data
    }

    /// Barrier: completes when every rank has entered.
    pub async fn barrier(&self) {
        self.reduction(Collective::Reduce(ReduceOp::SumF64, Vec::new())).await;
    }

    /// Broadcast `data` from `root`; every rank returns the root's bytes.
    pub async fn bcast(&self, root: u32, data: Vec<u8>) -> Vec<u8> {
        let tag = ctag(next_seq(self), 0);
        if self.rank() == root {
            self.shared.lock().collectives.push(Collective::Bcast(tag, data));
        }
        self.recv(Some(root), Some(tag)).await.data
    }

    /// Gather every rank's bytes at `root`; returns `Some(vec-by-rank)` on
    /// the root and `None` elsewhere.
    pub async fn gather(&self, root: u32, data: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        let rows = self.reduction(Collective::Gather(data)).await;
        (self.rank() == root).then(|| {
            let mut r = WireReader::new(&rows);
            (0..self.size()).map(|_| r.bytes().expect("gathered row").to_vec()).collect()
        })
    }

    /// All-reduce over f64 vectors: every rank contributes `vals` and every
    /// rank returns the element-wise combination.
    pub async fn allreduce_f64(&self, vals: &[f64], op: AmpiOp) -> Vec<f64> {
        let result = self.reduction(Collective::Reduce(reduce_op(op), vals.to_vec())).await;
        WireReader::new(&result).f64_vec().expect("reduced values")
    }

    /// Combined blocking send + receive (MPI_Sendrecv): ships `data` to
    /// `dst` under `send_tag`, then awaits a message from `src` under
    /// `recv_tag`.  The send is eager, so paired sendrecvs cannot deadlock.
    pub async fn sendrecv(&self, dst: u32, send_tag: i32, data: Vec<u8>, src: u32, recv_tag: i32) -> Vec<u8> {
        self.send(dst, send_tag, data);
        self.recv_from(src, recv_tag).await
    }

    /// Scatter: the root holds one byte-string per rank; every rank
    /// returns its own slice (MPI_Scatterv).  `rows` is consulted only on
    /// the root and must have exactly `size()` entries there.
    pub async fn scatter(&self, root: u32, rows: Vec<Vec<u8>>) -> Vec<u8> {
        let n = self.size();
        let seq = next_seq(self);
        let me = self.rank();
        if me == root {
            assert_eq!(rows.len() as u32, n, "scatter needs one row per rank");
            let mut mine = Vec::new();
            for (r, row) in rows.into_iter().enumerate() {
                if r as u32 == root {
                    mine = row;
                } else {
                    self.send_internal(r as u32, ctag(seq, 0), row);
                }
            }
            mine
        } else {
            self.recv(Some(root), Some(ctag(seq, 0))).await.data
        }
    }

    /// Reduce to root over f64 vectors: every rank contributes, only the
    /// root returns `Some(combined)` (MPI_Reduce).
    pub async fn reduce_f64(&self, root: u32, vals: &[f64], op: AmpiOp) -> Option<Vec<f64>> {
        let result = self.allreduce_f64(vals, op).await;
        (self.rank() == root).then_some(result)
    }

    /// All-to-all: rank `i` sends `rows[j]` to rank `j` and returns the
    /// vector of what every rank sent *to it*, indexed by source
    /// (MPI_Alltoallv).
    pub async fn alltoall(&self, rows: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let n = self.size();
        let seq = next_seq(self);
        let me = self.rank();
        assert_eq!(rows.len() as u32, n, "alltoall needs one row per rank");
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); n as usize];
        for (r, row) in rows.into_iter().enumerate() {
            if r as u32 == me {
                out[r] = row;
            } else {
                self.send_internal(r as u32, ctag(seq, 0), row);
            }
        }
        for _ in 1..n {
            let m = self.recv(None, Some(ctag(seq, 0))).await;
            out[m.src as usize] = m.data;
        }
        out
    }

    /// Inclusive prefix scan over f64 vectors (MPI_Scan): rank `i` returns
    /// the combination of contributions from ranks `0..=i`, combined in
    /// rank order (a sequential chain — O(n) latency, deterministic).
    pub async fn scan_f64(&self, vals: &[f64], op: AmpiOp) -> Vec<f64> {
        let n = self.size();
        let seq = next_seq(self);
        let me = self.rank();
        let mut acc = vals.to_vec();
        if me > 0 {
            let m = self.recv(Some(me - 1), Some(ctag(seq, 0))).await;
            let prev: Vec<f64> =
                m.data.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes"))).collect();
            assert_eq!(prev.len(), acc.len(), "scan length mismatch");
            for (a, b) in acc.iter_mut().zip(prev) {
                match op {
                    AmpiOp::Sum => *a += b,
                    AmpiOp::Min => *a = a.min(b),
                    AmpiOp::Max => *a = a.max(b),
                }
            }
        }
        if me + 1 < n {
            let mut bytes = Vec::with_capacity(acc.len() * 8);
            for x in &acc {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            self.send_internal(me + 1, ctag(seq, 0), bytes);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{run_sim, RankBody};
    use mdo_core::prelude::Mapping;
    use mdo_core::program::RunConfig;
    use mdo_netsim::network::NetworkModel;
    use mdo_netsim::Dur;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::sync::Mutex;

    fn net(pes: u32) -> NetworkModel {
        NetworkModel::two_cluster_sweep(pes, Dur::from_millis(1))
    }

    #[test]
    fn ctag_is_negative_and_injective_within_window() {
        let mut seen = std::collections::HashSet::new();
        for seq in 0..100 {
            for round in 0..10 {
                let t = ctag(seq, round);
                assert!(t < 0);
                assert!(seen.insert(t), "tag collision at ({seq},{round})");
            }
        }
    }

    #[test]
    fn barrier_synchronizes() {
        // Every rank records the order it passed the barrier; all "before"
        // marks must precede all "after" marks.
        static LOG: Mutex<Vec<(u32, bool)>> = Mutex::new(Vec::new());
        LOG.lock().unwrap().clear();
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                LOG.lock().unwrap().push((rank.rank(), false));
                rank.barrier().await;
                LOG.lock().unwrap().push((rank.rank(), true));
            })
        });
        run_sim(8, Mapping::Block, net(4), RunConfig::default(), body);
        let log = LOG.lock().unwrap();
        assert_eq!(log.len(), 16);
        let first_after = log.iter().position(|&(_, after)| after).expect("someone passed");
        let befores_after_that = log[first_after..].iter().filter(|&&(_, a)| !a).count();
        assert_eq!(befores_after_that, 0, "no rank enters after another exits");
    }

    #[test]
    fn bcast_delivers_root_payload() {
        static OK: AtomicU64 = AtomicU64::new(0);
        OK.store(0, Ordering::SeqCst);
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                let payload = if rank.rank() == 2 { b"from-root".to_vec() } else { b"IGNORED".to_vec() };
                let got = rank.bcast(2, payload).await;
                assert_eq!(got, b"from-root");
                OK.fetch_add(1, Ordering::SeqCst);
            })
        });
        run_sim(6, Mapping::RoundRobin, net(2), RunConfig::default(), body);
        assert_eq!(OK.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn gather_collects_by_rank() {
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                let me = rank.rank();
                let got = rank.gather(0, vec![me as u8 * 3]).await;
                if me == 0 {
                    let rows = got.expect("root gets data");
                    for (r, row) in rows.iter().enumerate() {
                        assert_eq!(row, &vec![r as u8 * 3]);
                    }
                } else {
                    assert!(got.is_none());
                }
            })
        });
        run_sim(5, Mapping::Block, net(2), RunConfig::default(), body);
    }

    #[test]
    fn allreduce_ops() {
        static CHECKED: AtomicU64 = AtomicU64::new(0);
        CHECKED.store(0, Ordering::SeqCst);
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                let me = rank.rank() as f64;
                let sum = rank.allreduce_f64(&[me, 1.0], AmpiOp::Sum).await;
                assert_eq!(sum, vec![0.0 + 1.0 + 2.0 + 3.0, 4.0]);
                let min = rank.allreduce_f64(&[me], AmpiOp::Min).await;
                assert_eq!(min, vec![0.0]);
                let max = rank.allreduce_f64(&[me], AmpiOp::Max).await;
                assert_eq!(max, vec![3.0]);
                CHECKED.fetch_add(1, Ordering::SeqCst);
            })
        });
        run_sim(4, Mapping::Block, net(4), RunConfig::default(), body);
        assert_eq!(CHECKED.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn sendrecv_ring_rotates_values() {
        static OK: AtomicU64 = AtomicU64::new(0);
        OK.store(0, Ordering::SeqCst);
        let n = 6u32;
        let body: RankBody = Arc::new(move |rank| {
            Box::pin(async move {
                let me = rank.rank();
                let right = (me + 1) % n;
                let left = (me + n - 1) % n;
                let got = rank.sendrecv(right, 7, vec![me as u8], left, 7).await;
                assert_eq!(got, vec![left as u8]);
                OK.fetch_add(1, Ordering::SeqCst);
            })
        });
        run_sim(n, Mapping::Block, net(2), RunConfig::default(), body);
        assert_eq!(OK.load(Ordering::SeqCst), n as u64);
    }

    #[test]
    fn consecutive_collectives_do_not_cross_match() {
        // Two barriers then an allreduce, many ranks: any tag leakage
        // between phases would deadlock or corrupt the reduce.
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                rank.barrier().await;
                rank.barrier().await;
                let v = rank.allreduce_f64(&[1.0], AmpiOp::Sum).await;
                assert_eq!(v, vec![rank.size() as f64]);
            })
        });
        run_sim(16, Mapping::Block, net(4), RunConfig::default(), body);
    }

    #[test]
    fn scatter_distributes_rows() {
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                let me = rank.rank();
                let rows =
                    if me == 1 { (0..rank.size()).map(|r| vec![r as u8, 100 + r as u8]).collect() } else { Vec::new() };
                let mine = rank.scatter(1, rows).await;
                assert_eq!(mine, vec![me as u8, 100 + me as u8]);
            })
        });
        run_sim(5, Mapping::Block, net(2), RunConfig::default(), body);
    }

    #[test]
    fn reduce_to_root_only() {
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                let me = rank.rank() as f64;
                let got = rank.reduce_f64(2, &[me, 2.0 * me], AmpiOp::Sum).await;
                if rank.rank() == 2 {
                    let sum: f64 = (0..rank.size()).map(|r| r as f64).sum();
                    assert_eq!(got, Some(vec![sum, 2.0 * sum]));
                } else {
                    assert!(got.is_none());
                }
            })
        });
        run_sim(6, Mapping::RoundRobin, net(4), RunConfig::default(), body);
    }

    #[test]
    fn alltoall_exchanges_everything() {
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                let me = rank.rank();
                let n = rank.size();
                // Row for rank j encodes (me, j).
                let rows: Vec<Vec<u8>> = (0..n).map(|j| vec![me as u8, j as u8]).collect();
                let got = rank.alltoall(rows).await;
                for (src, row) in got.iter().enumerate() {
                    assert_eq!(row, &vec![src as u8, me as u8], "row from rank {src}");
                }
            })
        });
        run_sim(5, Mapping::Block, net(2), RunConfig::default(), body);
    }

    #[test]
    fn scan_is_inclusive_prefix() {
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                let me = rank.rank();
                let got = rank.scan_f64(&[me as f64, 1.0], AmpiOp::Sum).await;
                let prefix: f64 = (0..=me).map(|r| r as f64).sum();
                assert_eq!(got, vec![prefix, me as f64 + 1.0]);
                let mx = rank.scan_f64(&[me as f64], AmpiOp::Max).await;
                assert_eq!(mx, vec![me as f64], "max prefix of 0..=me is me");
            })
        });
        run_sim(7, Mapping::Block, net(2), RunConfig::default(), body);
    }

    #[test]
    fn collectives_work_on_the_threaded_engine() {
        use crate::world::run_threaded;
        use mdo_netsim::{LatencyMatrix, Topology};
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                rank.barrier().await;
                let sum = rank.allreduce_f64(&[1.0], AmpiOp::Sum).await;
                assert_eq!(sum, vec![rank.size() as f64]);
                let rows = rank.gather(0, vec![rank.rank() as u8]).await;
                if rank.rank() == 0 {
                    let rows = rows.expect("root");
                    for (r, row) in rows.iter().enumerate() {
                        assert_eq!(row, &vec![r as u8]);
                    }
                }
            })
        });
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, mdo_netsim::Dur::ZERO, Dur::from_micros(300));
        run_threaded(8, Mapping::Block, topo, latency, RunConfig::default(), body);
    }

    #[test]
    fn single_rank_collectives_are_trivial() {
        let body: RankBody = Arc::new(|rank| {
            Box::pin(async move {
                rank.barrier().await;
                let b = rank.bcast(0, vec![9]).await;
                assert_eq!(b, vec![9]);
                let s = rank.allreduce_f64(&[5.0], AmpiOp::Sum).await;
                assert_eq!(s, vec![5.0]);
                let g = rank.gather(0, vec![1]).await.expect("root");
                assert_eq!(g, vec![vec![1]]);
                let sc = rank.scatter(0, vec![vec![7]]).await;
                assert_eq!(sc, vec![7]);
                let r = rank.reduce_f64(0, &[3.0], AmpiOp::Max).await;
                assert_eq!(r, Some(vec![3.0]));
                let aa = rank.alltoall(vec![vec![4]]).await;
                assert_eq!(aa, vec![vec![4]]);
                let sn = rank.scan_f64(&[2.0], AmpiOp::Sum).await;
                assert_eq!(sn, vec![2.0]);
            })
        });
        run_sim(1, Mapping::Block, net(2), RunConfig::default(), body);
    }
}
