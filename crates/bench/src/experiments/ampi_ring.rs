//! Adaptive MPI on a ring: an MPI-style program that masks Grid latency by
//! virtualization, with no change to the application logic.
//!
//! 32 MPI ranks run a ring exchange plus collectives on 4 PEs split across
//! two clusters.  Each rank is written as ordinary blocking-style MPI code
//! (`send`, awaited `recv`, `barrier`, `allreduce`); the AMPI layer
//! suspends a rank at each receive and lets the runtime schedule other
//! ranks whose messages have arrived — the paper's §2.1 story.

use std::sync::{Arc, Mutex};

use mdo_ampi::{run_sim, AmpiOp, RankBody};
use mdo_core::program::RunConfig;
use mdo_core::Mapping;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Dur;

const RANKS: u32 = 32;
const PES: u32 = 4;
const LATENCY_MS: u64 = 10;

/// The virtual completion time and the WAN crossings of the ring.
pub fn generate() -> Vec<String> {
    let mut out = String::new();
    outln!(out, "AMPI ring: {RANKS} ranks on {PES} PEs (two clusters, {LATENCY_MS} ms one-way)\n");

    let gathered = Arc::new(Mutex::new(String::new()));
    let seen = Arc::clone(&gathered);
    let body: RankBody = Arc::new(move |rank| {
        let seen = Arc::clone(&seen);
        Box::pin(async move {
            let me = rank.rank();
            let n = rank.size();
            let next = (me + 1) % n;
            let prev = (me + n - 1) % n;

            // Phase 1: ring exchange — each rank passes its id around.
            // Under Block mapping two of these hops cross the WAN; the
            // other ranks' hops proceed while those are in flight.
            rank.charge(Dur::from_micros(200));
            rank.send(next, 0, me.to_le_bytes().to_vec());
            let from_prev = rank.recv_from(prev, 0).await;
            let got = u32::from_le_bytes(from_prev[..4].try_into().expect("u32"));
            assert_eq!(got, prev);

            // Phase 2: a barrier, then a global allreduce.
            rank.barrier().await;
            let sum = rank.allreduce_f64(&[me as f64, 1.0], AmpiOp::Sum).await;
            let expect: f64 = (0..n).map(|r| r as f64).sum();
            assert_eq!(sum[0], expect, "sum of ranks");
            assert_eq!(sum[1], n as f64, "rank count");

            // Phase 3: gather everyone's cluster at rank 0 to *see* the
            // co-allocation.
            if let Some(rows) = rank.gather(0, vec![rank.my_cluster() as u8]).await {
                let a = rows.iter().filter(|r| r[0] == 0).count();
                let b = rows.len() - a;
                outln!(
                    seen.lock().expect("one rank writes"),
                    "  rank 0 gathered: {a} ranks in cluster A, {b} in cluster B"
                );
            }
        })
    });

    let net = NetworkModel::two_cluster_sweep(PES, Dur::from_millis(LATENCY_MS));
    let report = run_sim(RANKS, Mapping::Block, net, RunConfig::default(), body);

    out.push_str(&gathered.lock().expect("the run is over"));
    outln!(out, "\n  completed in {:.3} ms (virtual time)", report.end_time.as_millis_f64());
    outln!(out, "  cross-WAN messages: {}", report.network.cross_messages);
    outln!(out, "\nSame code, one rank per PE would stall on every WAN hop;");
    outln!(out, "with {} ranks per PE the scheduler hides most of it.", RANKS / PES);
    vec![out]
}
