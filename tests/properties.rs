//! Property-based tests (proptest) on cross-crate invariants.

use gridmdo::apps::leanmd::geometry::CellGrid;
use gridmdo::apps::stencil::seq::SeqStencil;
use gridmdo::netsim::topology::ClusterSpec;
use gridmdo::netsim::{ClusterId, Dur, EventQueue, LatencyMatrix, Pe, SpanTree, Time, Topology, TreeConfig};
use gridmdo::runtime::checkpoint::{ArraySnapshot, Snapshot};
use gridmdo::runtime::envelope::{Envelope, MsgBody, ReduceData, ReduceOp};
use gridmdo::runtime::ids::{ArrayId, ElemId, EntryId, ObjKey};
use gridmdo::runtime::mapping::Mapping;
use gridmdo::runtime::queue::SchedQueue;
use gridmdo::runtime::wire::{WireReader, WireWriter};
use gridmdo::vmi::devices::crc::crc32;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Structural validity of a collective spanning tree: spans every PE
/// exactly once, one gateway (the first PE) per non-empty cluster,
/// intra-cluster fan-out within the branching factor, and WAN edges only
/// from the root to remote gateways.
fn check_span_tree(topo: &Topology, tree: &SpanTree) -> Result<(), TestCaseError> {
    let mut seen: Vec<u32> = tree.subtree(Pe(0)).iter().map(|p| p.0).collect();
    seen.sort_unstable();
    prop_assert_eq!(&seen, &(0..topo.num_pes() as u32).collect::<Vec<_>>());
    for c in topo.clusters() {
        match tree.gateway(c) {
            Some(gw) => {
                prop_assert_eq!(topo.cluster_of(gw), c);
                // The gateway is deterministically the cluster's first PE.
                prop_assert_eq!(Some(gw), topo.pes_in(c).next());
            }
            // Only clusters emptied by a shrink lack a gateway.
            None => prop_assert_eq!(topo.cluster_size(c), 0),
        }
    }
    for pe in topo.pes() {
        let intra = tree.children(pe).iter().filter(|&&ch| !topo.crosses_wan(pe, ch)).count();
        prop_assert!(intra <= tree.config().branch as usize, "{:?} exceeds the branching factor: {}", pe, intra);
        for &child in tree.children(pe) {
            if topo.crosses_wan(pe, child) {
                prop_assert!(pe == Pe(0), "only the root crosses the WAN, not {:?}", pe);
                prop_assert!(tree.is_gateway(child), "WAN edges land on gateways only");
            }
        }
    }
    Ok(())
}

proptest! {
    /// The wire codec roundtrips arbitrary primitive sequences.
    #[test]
    fn wire_roundtrip(u8s in prop::collection::vec(any::<u8>(), 0..64),
                      f64s in prop::collection::vec(any::<f64>(), 0..32),
                      s in ".{0,40}",
                      a in any::<u64>(),
                      b in any::<i64>()) {
        let mut w = WireWriter::new();
        w.bytes(&u8s).f64_slice(&f64s).str(&s).u64(a).i64(b);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        prop_assert_eq!(r.bytes().unwrap(), &u8s[..]);
        let got = r.f64_vec().unwrap();
        prop_assert_eq!(got.len(), f64s.len());
        for (x, y) in got.iter().zip(&f64s) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert_eq!(r.str().unwrap(), s.as_str());
        prop_assert_eq!(r.u64().unwrap(), a);
        prop_assert_eq!(r.i64().unwrap(), b);
        prop_assert!(r.is_done());
    }

    /// `f64_triples` and `f64_zeros` write what `f64_slice` writes for the
    /// flattened array and for a zero vector, byte for byte, and the triple
    /// reader gives the values back bit for bit.
    #[test]
    fn wire_triples_and_zeros_match_f64_slice(vals in prop::collection::vec(any::<f64>(), 0..96),
                                              zeros in 0usize..200) {
        let triples: Vec<[f64; 3]> = vals.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
        let flat = &vals[..triples.len() * 3];
        let mut old = WireWriter::new();
        old.f64_slice(flat).f64_slice(&vec![0.0; zeros]);
        let mut new = WireWriter::new();
        new.f64_triples(&triples).f64_zeros(zeros);
        let buf = new.finish();
        prop_assert_eq!(&buf, &old.finish());
        let mut r = WireReader::new(&buf);
        let back = r.f64_triples().unwrap();
        prop_assert_eq!(back.len(), triples.len());
        for (x, y) in back.iter().flatten().zip(flat) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert_eq!(r.f64_vec().unwrap(), vec![0.0; zeros]);
        prop_assert!(r.is_done());
    }

    /// Envelope encode/decode is the identity on arbitrary app messages.
    #[test]
    fn envelope_roundtrip(src in 0u32..64, dst in 0u32..64, prio in any::<i32>(),
                          array in 0u32..8, elem in 0u32..4096, entry in any::<u16>(),
                          payload in prop::collection::vec(any::<u8>(), 0..256)) {
        let env = Envelope {
            src: Pe(src),
            dst: Pe(dst),
            priority: prio,
            sent_at_ns: 123,
            body: MsgBody::App {
                target: ObjKey::new(ArrayId(array), ElemId(elem)),
                entry: EntryId(entry),
                payload: payload.clone().into(),
            },
        };
        let back = Envelope::decode(&env.encode()).unwrap();
        prop_assert_eq!(back.src, env.src);
        prop_assert_eq!(back.dst, env.dst);
        prop_assert_eq!(back.priority, env.priority);
        match back.body {
            MsgBody::App { target, entry: e, payload: p } => {
                prop_assert_eq!(target, ObjKey::new(ArrayId(array), ElemId(elem)));
                prop_assert_eq!(e, EntryId(entry));
                prop_assert_eq!(&p[..], &payload[..]);
            }
            other => prop_assert!(false, "wrong body {:?}", other),
        }
    }

    /// Checkpoint snapshots round-trip through their byte encoding.
    #[test]
    fn snapshot_roundtrip(arrays in prop::collection::vec(
        (0u32..8, prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..16), any::<u32>()),
        0..4,
    )) {
        let snap = Snapshot {
            arrays: arrays
                .into_iter()
                .enumerate()
                .map(|(i, (_, elems, red_next))| ArraySnapshot {
                    array: ArrayId(i as u32),
                    elems,
                    red_next,
                })
                .collect(),
        };
        let back = Snapshot::decode(&snap.encode()).unwrap();
        prop_assert_eq!(back, snap);
    }

    /// CRC32 detects any single-byte corruption.
    #[test]
    fn crc_detects_single_byte_flips(data in prop::collection::vec(any::<u8>(), 1..512),
                                     idx in any::<prop::sample::Index>(),
                                     flip in 1u8..=255) {
        let i = idx.index(data.len());
        let mut corrupted = data.clone();
        corrupted[i] ^= flip;
        prop_assert_ne!(crc32(&data), crc32(&corrupted));
    }

    /// The event queue pops in nondecreasing time order with FIFO ties.
    #[test]
    fn event_queue_ordering(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::from_nanos(t), i);
        }
        let mut last: Option<(Time, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO among equal timestamps");
                }
            }
            last = Some((t, i));
        }
    }

    /// The scheduler queue is a stable priority queue.
    #[test]
    fn sched_queue_stable(prios in prop::collection::vec(-5i32..5, 1..100)) {
        let mut q = SchedQueue::new();
        for (i, &p) in prios.iter().enumerate() {
            q.push(Envelope {
                src: Pe(0),
                dst: Pe(0),
                priority: p,
                sent_at_ns: i as u64,
                body: MsgBody::Exit,
            });
        }
        let mut last: Option<(i32, u64)> = None;
        while let Some(env) = q.pop() {
            if let Some((lp, ls)) = last {
                prop_assert!(env.priority >= lp);
                if env.priority == lp {
                    prop_assert!(env.sent_at_ns > ls, "FIFO within a priority");
                }
            }
            last = Some((env.priority, env.sent_at_ns));
        }
    }

    /// Every mapping strategy places every element exactly once, in range.
    #[test]
    fn mappings_cover(pes in 1u32..32, elems in 1usize..500) {
        let topo = Topology::single(pes);
        for m in [Mapping::Block, Mapping::RoundRobin] {
            let placement = m.place_all(elems, &topo);
            prop_assert_eq!(placement.len(), elems);
            prop_assert!(placement.iter().all(|p| p.index() < pes as usize));
            // Block keeps balance within 1.
            if matches!(m, Mapping::Block) {
                let mut counts = vec![0usize; pes as usize];
                for p in &placement {
                    counts[p.index()] += 1;
                }
                let (mx, mn) = (counts.iter().max().unwrap(), counts.iter().min().unwrap());
                prop_assert!(mx - mn <= 1);
            }
        }
    }

    /// Latency matrices built uniform are symmetric and cluster-consistent.
    #[test]
    fn latency_matrix_symmetry(pes in 1u32..16, intra_us in 0u64..100, cross_ms in 0u64..64) {
        let topo = Topology::two_cluster(pes * 2);
        let m = LatencyMatrix::uniform(&topo, Dur::from_micros(intra_us), Dur::from_millis(cross_ms));
        prop_assert!(m.is_symmetric());
        for a in topo.pes() {
            for b in topo.pes() {
                let expect = if a == b {
                    Dur::ZERO
                } else if topo.crosses_wan(a, b) {
                    Dur::from_millis(cross_ms)
                } else {
                    Dur::from_micros(intra_us)
                };
                prop_assert_eq!(m.base_latency(&topo, a, b), expect);
            }
        }
    }

    /// Cell-pair enumeration: n self-pairs + 13n neighbour pairs for any
    /// periodic grid with side >= 3, each cell in exactly 27 pairs.
    #[test]
    fn cell_pairs_structure(side in 3u32..8) {
        let g = CellGrid { side };
        let n = g.n_cells();
        let pairs = g.pairs();
        prop_assert_eq!(pairs.len() as u32, n * 14);
        let by_cell = CellGrid::pairs_of_cells(&pairs, n);
        for list in by_cell {
            prop_assert_eq!(list.len(), 27);
        }
    }

    /// Stencil block sums partition the total for every valid decomposition.
    #[test]
    fn stencil_block_sums_partition(k in 1usize..8, steps in 0u32..4) {
        let n = k * 8;
        let mut s = SeqStencil::new(n);
        s.run(steps);
        let total: f64 = (0..n).flat_map(|r| (0..n).map(move |c| (r, c))).map(|(r, c)| s.get(r, c)).sum();
        let parts: f64 = s.block_sums(k).iter().sum();
        prop_assert!((total - parts).abs() <= 1e-9 * total.abs().max(1.0));
    }

    /// Reduction combine is commutative in its outcome for sum over
    /// permuted contribution orders (f64 sum is not associative in
    /// general, but the tree combines values in a fixed structure; here we
    /// check the exactly-representable integer case).
    #[test]
    fn reduction_sum_order_independent_on_integers(vals in prop::collection::vec(-1000i32..1000, 1..50)) {
        use gridmdo::runtime::reduction::combine;
        let mut forward = ReduceData::F64(vec![0.0]);
        for &v in &vals {
            combine(ReduceOp::SumF64, &mut forward, ReduceData::F64(vec![v as f64]));
        }
        let mut backward = ReduceData::F64(vec![0.0]);
        for &v in vals.iter().rev() {
            combine(ReduceOp::SumF64, &mut backward, ReduceData::F64(vec![v as f64]));
        }
        prop_assert_eq!(forward, backward);
    }

    /// Collective spanning trees over arbitrary topology shapes — 1..8
    /// clusters, uneven sizes, degenerate one-PE clusters — are valid for
    /// every branching factor: the tree spans every PE exactly once, each
    /// non-empty cluster has exactly its first PE as gateway, intra-cluster
    /// fan-out respects the branching factor, and the wide area is crossed
    /// only on root -> gateway edges (once per remote cluster).
    #[test]
    fn span_tree_is_valid_on_arbitrary_topologies(sizes in prop::collection::vec(1u32..6, 1..8),
                                                  branch in 1u32..5) {
        let topo = Topology::new(
            sizes.iter().enumerate().map(|(i, &pes)| ClusterSpec { name: format!("c{i}"), pes }).collect(),
        );
        let tree = SpanTree::build(&topo, TreeConfig::new(branch));
        check_span_tree(&topo, &tree)?;
    }

    /// The tree stays valid when rebuilt after any shrink/expand history:
    /// an arbitrary sequence of without_pes (possibly emptying whole
    /// clusters) and with_pes steps, rebuilding at each generation like
    /// the elastic runtime does.
    #[test]
    fn span_tree_survives_arbitrary_shrink_expand_sequences(
        sizes in prop::collection::vec(1u32..5, 2..6),
        branch in 1u32..5,
        ops in prop::collection::vec((any::<bool>(), any::<prop::sample::Index>()), 0..8))
    {
        let mut topo = Topology::new(
            sizes.iter().enumerate().map(|(i, &pes)| ClusterSpec { name: format!("c{i}"), pes }).collect(),
        );
        let cfg = TreeConfig::new(branch);
        check_span_tree(&topo, &SpanTree::build(&topo, cfg))?;
        for (shrink, which) in ops {
            if shrink {
                if topo.num_pes() > 1 {
                    let dead = Pe(which.index(topo.num_pes()) as u32);
                    topo = topo.without_pes(&[dead]).0;
                }
            } else {
                let c = ClusterId(which.index(topo.num_clusters()) as u16);
                topo = topo.with_pes(&[c]).0;
            }
            check_span_tree(&topo, &SpanTree::build(&topo, cfg))?;
        }
    }

    /// Credit conservation across the elastic cycle.  A (src, dst) pair's
    /// sender-side ledger is driven through an arbitrary interleaving of
    /// sends (consume), ack releases (possibly duplicated by the wire —
    /// releases saturate), receiver grants (current, stale and future
    /// generations), and crash -> shrink -> rejoin generation resets.
    /// Invariants at every step: the balance never goes negative, never
    /// exceeds the configured window, in-flight bytes exactly track the
    /// model's outstanding traffic, and each reset restores a fresh full
    /// window with nothing in flight.
    #[test]
    fn credit_ledger_is_conserved_across_generations(
        window in 1u64..100_000,
        ops in prop::collection::vec((0u8..5, any::<u32>(), 1u64..200_000), 0..300))
    {
        use gridmdo::vmi::credit::{CreditGrant, CreditLedger, CreditState, GrantOutcome};
        const PAIR: (u32, u32) = (0, 1);
        let mut ledger = CreditLedger::new(window);
        ledger.consume(PAIR, 0); // enter the books: grants to a pair that never sent are refused
        let mut outstanding: u64 = 0; // bytes the model knows are unacked this generation
        for (op, gen_jitter, amount) in ops {
            let before = ledger.state(PAIR).expect("the pair has sent");
            match op {
                // A send consumes no more than the available balance.
                0 => {
                    let take = amount.min(ledger.available(PAIR));
                    prop_assert!(ledger.admits(PAIR, take));
                    ledger.consume(PAIR, take);
                    outstanding += take;
                }
                // An ack releases in-flight bytes; a duplicated ack may
                // claim more than is outstanding and must saturate.
                1 => {
                    ledger.release(PAIR, amount);
                    outstanding -= amount.min(outstanding);
                }
                // A receiver grant for the current generation applies
                // (clamped); jittered generations are ignored outright.
                2 | 3 => {
                    let gen = before.gen.wrapping_add(gen_jitter % 3).wrapping_sub(1);
                    let outcome = ledger.grant(PAIR, CreditGrant { gen, grant: amount }).expect("the pair has sent");
                    let state = ledger.state(PAIR).expect("the pair has sent");
                    match outcome {
                        GrantOutcome::Applied => {
                            prop_assert_eq!(gen, before.gen);
                            prop_assert!(state.granted <= window);
                        }
                        GrantOutcome::StaleGeneration => prop_assert_eq!(state, before),
                    }
                }
                // Crash, shrink or rejoin: the pair restarts in a new
                // generation — full window, clean ledger, and every
                // grant or balance of the old life is dead.
                _ => {
                    ledger.reset_peer(if gen_jitter % 2 == 0 { PAIR.0 } else { PAIR.1 });
                    let reopened = CreditState { gen: before.gen.wrapping_add(1), ..CreditState::fresh(window) };
                    prop_assert_eq!(ledger.state(PAIR), Some(reopened));
                    outstanding = 0;
                }
            }
            let state = ledger.state(PAIR).expect("the pair has sent");
            prop_assert!(state.available(window) <= window, "balance within the window");
            prop_assert!(state.granted <= window, "grants are clamped");
            prop_assert_eq!(state.in_flight, outstanding);
        }
    }
}
