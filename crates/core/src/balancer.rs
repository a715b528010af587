//! Measurement-based load balancing strategies.
//!
//! Charm++'s distinguishing capability (§2.1, §3) is an adaptive runtime
//! that *measures* per-object load and communication and periodically
//! remaps objects.  The paper's §6 sketches a balancer "specifically
//! designed for Grid computing environments": spread the chares that
//! communicate across the wide area evenly within their cluster, and
//! **never migrate a chare to a remote cluster**.  That strategy is
//! [`GridCommLB`] here; [`GreedyLB`] and [`RefineLB`] are the classic
//! Charm++ strategies rebuilt for comparison, and [`RotateLB`] is a
//! deliberately-bad strategy used to test the migration machinery.
//!
//! A strategy is a pure function from measurements to a complete placement,
//! so every strategy is unit-testable without a running engine.

use std::collections::HashMap;

use mdo_netsim::{ClusterId, Pe, Topology};

use crate::ids::ObjKey;

/// One object's measurements, as input to a strategy.
#[derive(Clone, Debug)]
pub struct ObjMeasurement {
    /// The object.
    pub key: ObjKey,
    /// Where it currently lives.
    pub current_pe: Pe,
    /// Accumulated compute load since the last balance (ns).
    pub load_ns: u64,
    /// Messages sent to each peer object since the last balance.
    pub comm: Vec<(ObjKey, u64)>,
    /// Whether the runtime may move it.
    pub migratable: bool,
}

/// Everything a strategy may consult.
#[derive(Debug)]
pub struct LbInput<'a> {
    /// The job layout.
    pub topo: &'a Topology,
    /// All objects in the program.
    pub objs: &'a [ObjMeasurement],
}

/// A load-balancing strategy.
pub trait Strategy: Send + Sync {
    /// Strategy name for reports.
    fn name(&self) -> &str;

    /// Produce a complete new placement.  Implementations must place every
    /// object and must not move non-migratable objects; [`run_strategy`]
    /// enforces both.
    fn assign(&self, input: &LbInput<'_>) -> Vec<(ObjKey, Pe)>;
}

/// Run a strategy and enforce the framework invariants: every object placed
/// exactly once, placements in range, non-migratable objects untouched.
pub fn run_strategy(strategy: &dyn Strategy, input: &LbInput<'_>) -> Vec<(ObjKey, Pe)> {
    let mut placement = strategy.assign(input);
    let by_key: HashMap<ObjKey, usize> = placement.iter().enumerate().map(|(i, (k, _))| (*k, i)).collect();
    assert_eq!(by_key.len(), placement.len(), "strategy {} placed an object twice", strategy.name());
    assert_eq!(placement.len(), input.objs.len(), "strategy {} did not place every object", strategy.name());
    for m in input.objs {
        let idx = *by_key.get(&m.key).unwrap_or_else(|| panic!("strategy {} dropped {:?}", strategy.name(), m.key));
        let (_, pe) = &mut placement[idx];
        assert!(pe.index() < input.topo.num_pes(), "placement out of range: {pe:?}");
        if !m.migratable {
            *pe = m.current_pe;
        }
    }
    placement
}

/// Greatest-load-first greedy placement onto the globally least-loaded PE.
/// Ignores cluster boundaries (the classic Charm++ GreedyLB) — which is
/// exactly why it can *hurt* in a Grid setting: it happily moves an object
/// away from all of its communication partners.
pub struct GreedyLB;

impl Strategy for GreedyLB {
    fn name(&self) -> &str {
        "GreedyLB"
    }

    fn assign(&self, input: &LbInput<'_>) -> Vec<(ObjKey, Pe)> {
        let mut order: Vec<&ObjMeasurement> = input.objs.iter().collect();
        order.sort_by(|a, b| b.load_ns.cmp(&a.load_ns).then(a.key.cmp(&b.key)));
        let mut pe_load = vec![0u64; input.topo.num_pes()];
        let mut out = Vec::with_capacity(order.len());
        for m in order {
            if !m.migratable {
                pe_load[m.current_pe.index()] += m.load_ns;
                out.push((m.key, m.current_pe));
                continue;
            }
            let (pe, _) = pe_load.iter().enumerate().min_by_key(|&(i, &l)| (l, i)).expect("at least one PE");
            pe_load[pe] += m.load_ns;
            out.push((m.key, Pe(pe as u32)));
        }
        out
    }
}

/// Refinement balancing: keep the current placement, then move the largest
/// objects off overloaded PEs onto underloaded ones until every PE is
/// within `tolerance` of the average (or no helpful move remains).
pub struct RefineLB {
    /// Allowed overload factor (e.g. 1.05 = within 5% of average).
    pub tolerance: f64,
}

impl Default for RefineLB {
    fn default() -> Self {
        RefineLB { tolerance: 1.05 }
    }
}

impl Strategy for RefineLB {
    fn name(&self) -> &str {
        "RefineLB"
    }

    fn assign(&self, input: &LbInput<'_>) -> Vec<(ObjKey, Pe)> {
        let n_pes = input.topo.num_pes();
        let mut placement: HashMap<ObjKey, Pe> = input.objs.iter().map(|m| (m.key, m.current_pe)).collect();
        let mut pe_load = vec![0u64; n_pes];
        for m in input.objs {
            pe_load[m.current_pe.index()] += m.load_ns;
        }
        let total: u64 = pe_load.iter().sum();
        let avg = total as f64 / n_pes as f64;
        let threshold = avg * self.tolerance;

        // Objects on each PE, heaviest first.
        let mut on_pe: Vec<Vec<&ObjMeasurement>> = vec![Vec::new(); n_pes];
        for m in input.objs {
            if m.migratable {
                on_pe[m.current_pe.index()].push(m);
            }
        }
        for v in &mut on_pe {
            v.sort_by(|a, b| b.load_ns.cmp(&a.load_ns).then(a.key.cmp(&b.key)));
        }

        loop {
            let (donor, &dload) = pe_load.iter().enumerate().max_by_key(|&(i, &l)| (l, i)).expect("PEs exist");
            if (dload as f64) <= threshold {
                break;
            }
            let (recip, &rload) = pe_load.iter().enumerate().min_by_key(|&(i, &l)| (l, i)).expect("PEs exist");
            // Move the heaviest donor object that doesn't overshoot.
            let gap = dload - rload;
            let pick = on_pe[donor].iter().position(|m| m.load_ns > 0 && m.load_ns < gap);
            match pick {
                Some(idx) => {
                    let m = on_pe[donor].remove(idx);
                    pe_load[donor] -= m.load_ns;
                    pe_load[recip] += m.load_ns;
                    placement.insert(m.key, Pe(recip as u32));
                    on_pe[recip].push(m);
                    on_pe[recip].sort_by(|a, b| b.load_ns.cmp(&a.load_ns).then(a.key.cmp(&b.key)));
                }
                None => break, // no move helps
            }
        }

        input.objs.iter().map(|m| (m.key, placement[&m.key])).collect()
    }
}

/// The paper's §6 Grid balancer: objects that communicate across the
/// wide-area link ("border" objects) are spread evenly over the PEs of
/// their home cluster; the remaining ("interior") objects then greedy-
/// balance the residual load — all **within** each cluster.  No object
/// ever crosses a cluster boundary.
pub struct GridCommLB;

impl GridCommLB {
    fn is_border(input: &LbInput<'_>, m: &ObjMeasurement, cluster_of: &HashMap<ObjKey, ClusterId>) -> bool {
        let my_cluster = input.topo.cluster_of(m.current_pe);
        m.comm.iter().any(|(peer, _)| cluster_of.get(peer).is_some_and(|&c| c != my_cluster))
    }
}

impl Strategy for GridCommLB {
    fn name(&self) -> &str {
        "GridCommLB"
    }

    fn assign(&self, input: &LbInput<'_>) -> Vec<(ObjKey, Pe)> {
        let cluster_of: HashMap<ObjKey, ClusterId> =
            input.objs.iter().map(|m| (m.key, input.topo.cluster_of(m.current_pe))).collect();
        let mut out = Vec::with_capacity(input.objs.len());

        for cluster in input.topo.clusters() {
            let pes: Vec<Pe> = input.topo.pes_in(cluster).collect();
            let mut pe_load: HashMap<Pe, u64> = pes.iter().map(|&p| (p, 0)).collect();

            let members: Vec<&ObjMeasurement> =
                input.objs.iter().filter(|m| input.topo.cluster_of(m.current_pe) == cluster).collect();

            // Pin non-migratable members first.
            let mut border = Vec::new();
            let mut interior = Vec::new();
            for m in members {
                if !m.migratable {
                    *pe_load.get_mut(&m.current_pe).expect("pe in cluster") += m.load_ns;
                    out.push((m.key, m.current_pe));
                } else if Self::is_border(input, m, &cluster_of) {
                    border.push(m);
                } else {
                    interior.push(m);
                }
            }

            // Border objects: deal them out round-robin (by descending
            // cross-traffic volume so the heaviest WAN talkers spread
            // widest), as the paper describes: "simply distributing the
            // chares that communicate across high-latency wide-area
            // connections evenly among the processors within a cluster".
            border.sort_by(|a, b| {
                let wa: u64 = a.comm.iter().map(|&(_, n)| n).sum();
                let wb: u64 = b.comm.iter().map(|&(_, n)| n).sum();
                // Heaviest WAN talkers spread widest; equal talkers deal
                // out by compute load so hot objects land on distinct PEs.
                wb.cmp(&wa).then(b.load_ns.cmp(&a.load_ns)).then(a.key.cmp(&b.key))
            });
            for (i, m) in border.iter().enumerate() {
                let pe = pes[i % pes.len()];
                *pe_load.get_mut(&pe).expect("pe in cluster") += m.load_ns;
                out.push((m.key, pe));
            }

            // Interior objects: greedy onto the least-loaded cluster PE.
            interior.sort_by(|a, b| b.load_ns.cmp(&a.load_ns).then(a.key.cmp(&b.key)));
            for m in interior {
                let (&pe, _) = pe_load.iter().min_by_key(|&(p, &l)| (l, p.index())).expect("cluster has PEs");
                *pe_load.get_mut(&pe).expect("pe in cluster") += m.load_ns;
                out.push((m.key, pe));
            }
        }
        out
    }
}

/// The continuous obs-driven feedback balancer's threshold: rebalance
/// when the max/mean PE load exceeds it (1.1 = tolerate 10% imbalance).
///
/// At every AtSync barrier the runtime condenses its measurements — the
/// same per-object load the mdo-obs handler-grain histograms record —
/// into a [`FeedbackDecision`].  The configured strategy runs only when
/// the imbalance threshold is exceeded; otherwise the barrier keeps the current
/// placement at no migration cost.  This turns balancing from an
/// every-barrier ritual into a feedback loop that reacts to measured
/// imbalance, without any application barriers beyond the existing step
/// alignment.
pub const FEEDBACK_MAX_MEAN_RATIO: f64 = 1.1;

/// What the feedback balancer measured and decided at one barrier.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FeedbackDecision {
    /// Whether the threshold was exceeded and the strategy should run.
    pub rebalance: bool,
    /// Measured max/mean PE load ratio (1.0 = perfectly balanced; 0 when
    /// no load was measured).
    pub max_mean_ratio: f64,
}

/// Condense one barrier's measurements into a [`FeedbackDecision`] against
/// [`FEEDBACK_MAX_MEAN_RATIO`].  Pure: same measurements, same decision —
/// so the feedback loop is deterministic and engine-independent (both
/// engines feed it the same virtual/measured loads).
pub fn should_rebalance(input: &LbInput<'_>) -> FeedbackDecision {
    let n_pes = input.topo.num_pes();
    let mut pe_load = vec![0u64; n_pes];
    for m in input.objs {
        pe_load[m.current_pe.index()] += m.load_ns;
    }
    let total: u64 = pe_load.iter().sum();
    if total == 0 {
        return FeedbackDecision { rebalance: false, max_mean_ratio: 0.0 };
    }
    let mean = total as f64 / n_pes as f64;
    let max_mean_ratio = *pe_load.iter().max().expect("PEs exist") as f64 / mean;
    FeedbackDecision { rebalance: max_mean_ratio > FEEDBACK_MAX_MEAN_RATIO, max_mean_ratio }
}

/// Test strategy: rotate every migratable object to the next PE.  Useless
/// for balance, excellent for exercising migration end-to-end.
pub struct RotateLB;

impl Strategy for RotateLB {
    fn name(&self) -> &str {
        "RotateLB"
    }

    fn assign(&self, input: &LbInput<'_>) -> Vec<(ObjKey, Pe)> {
        let p = input.topo.num_pes() as u32;
        input.objs.iter().map(|m| (m.key, Pe((m.current_pe.0 + 1) % p))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ArrayId, ElemId};

    fn key(e: u32) -> ObjKey {
        ObjKey::new(ArrayId(1), ElemId(e))
    }

    fn obj(e: u32, pe: u32, load: u64) -> ObjMeasurement {
        ObjMeasurement { key: key(e), current_pe: Pe(pe), load_ns: load, comm: vec![], migratable: true }
    }

    fn max_min_load(placement: &[(ObjKey, Pe)], objs: &[ObjMeasurement], n_pes: usize) -> (u64, u64) {
        let loads: HashMap<ObjKey, u64> = objs.iter().map(|m| (m.key, m.load_ns)).collect();
        let mut pe_load = vec![0u64; n_pes];
        for (k, pe) in placement {
            pe_load[pe.index()] += loads[k];
        }
        (*pe_load.iter().max().unwrap(), *pe_load.iter().min().unwrap())
    }

    #[test]
    fn greedy_balances_skewed_load() {
        let topo = Topology::two_cluster(4);
        // All load starts on PE 0.
        let objs: Vec<_> = (0..8).map(|e| obj(e, 0, 100)).collect();
        let placement = run_strategy(&GreedyLB, &LbInput { topo: &topo, objs: &objs });
        let (max, min) = max_min_load(&placement, &objs, 4);
        assert_eq!(max, 200);
        assert_eq!(min, 200);
    }

    #[test]
    fn greedy_respects_non_migratable() {
        let topo = Topology::two_cluster(2);
        let mut objs = vec![obj(0, 0, 1000), obj(1, 0, 1)];
        objs[0].migratable = false;
        let placement = run_strategy(&GreedyLB, &LbInput { topo: &topo, objs: &objs });
        let map: HashMap<_, _> = placement.into_iter().collect();
        assert_eq!(map[&key(0)], Pe(0), "pinned object stays");
        assert_eq!(map[&key(1)], Pe(1), "movable object evacuates");
    }

    #[test]
    fn refine_moves_little_when_balanced() {
        let topo = Topology::two_cluster(4);
        let objs: Vec<_> = (0..8).map(|e| obj(e, e % 4, 100)).collect();
        let placement = run_strategy(&RefineLB::default(), &LbInput { topo: &topo, objs: &objs });
        // Already balanced: nothing moves.
        for (k, pe) in &placement {
            let orig = objs.iter().find(|m| m.key == *k).unwrap().current_pe;
            assert_eq!(*pe, orig);
        }
    }

    #[test]
    fn refine_fixes_hot_pe() {
        let topo = Topology::two_cluster(4);
        let mut objs: Vec<_> = (0..4).map(|e| obj(e, e, 100)).collect();
        objs.extend((4..12).map(|e| obj(e, 0, 100))); // overload PE 0
        let placement = run_strategy(&RefineLB::default(), &LbInput { topo: &topo, objs: &objs });
        let (max, _) = max_min_load(&placement, &objs, 4);
        assert!(max <= 400, "PE0's 900 reduced to ~average, got max {max}");
    }

    #[test]
    fn grid_comm_never_crosses_clusters() {
        let topo = Topology::two_cluster(8);
        // Objects 0..16 in cluster A (pes 0-3), 16..32 in cluster B, with
        // cross-cluster comm edges for the first few.
        let mut objs: Vec<_> = (0..16)
            .map(|e| obj(e, e % 4, 50 + e as u64))
            .chain((16..32).map(|e| obj(e, 4 + e % 4, 50 + e as u64)))
            .collect();
        for e in 0..4usize {
            objs[e].comm = vec![(key(16 + e as u32), 100)];
            objs[16 + e].comm = vec![(key(e as u32), 100)];
        }
        let placement = run_strategy(&GridCommLB, &LbInput { topo: &topo, objs: &objs });
        for (k, pe) in &placement {
            let orig = objs.iter().find(|m| m.key == *k).unwrap().current_pe;
            assert_eq!(topo.cluster_of(*pe), topo.cluster_of(orig), "{k:?} must stay in its home cluster");
        }
    }

    #[test]
    fn grid_comm_spreads_border_objects() {
        let topo = Topology::two_cluster(8);
        // 4 border objects all on PE 0, plus interior ballast.
        let mut objs: Vec<_> = (0..4).map(|e| obj(e, 0, 100)).collect();
        for m in &mut objs {
            m.comm = vec![(key(100), 10)]; // peer in cluster B
        }
        objs.push(obj(100, 4, 100)); // the remote peer
        let placement = run_strategy(&GridCommLB, &LbInput { topo: &topo, objs: &objs });
        let border_pes: Vec<Pe> = placement.iter().filter(|(k, _)| k.elem.0 < 4).map(|&(_, pe)| pe).collect();
        let distinct: std::collections::HashSet<_> = border_pes.iter().collect();
        assert_eq!(distinct.len(), 4, "4 border objects spread over 4 distinct PEs: {border_pes:?}");
    }

    #[test]
    fn grid_comm_balances_interior_load() {
        let topo = Topology::two_cluster(4);
        // All interior load piled on PE 0 of cluster A.
        let objs: Vec<_> = (0..8).map(|e| obj(e, 0, 100)).collect();
        let placement = run_strategy(&GridCommLB, &LbInput { topo: &topo, objs: &objs });
        let mut counts = [0usize; 4];
        for (_, pe) in &placement {
            counts[pe.index()] += 1;
        }
        assert_eq!(counts[0] + counts[1], 8, "stay in cluster A");
        assert_eq!(counts[0], 4);
        assert_eq!(counts[1], 4);
    }

    #[test]
    fn rotate_moves_everything() {
        let topo = Topology::two_cluster(4);
        let objs: Vec<_> = (0..4).map(|e| obj(e, e, 10)).collect();
        let placement = run_strategy(&RotateLB, &LbInput { topo: &topo, objs: &objs });
        for (k, pe) in &placement {
            let orig = objs.iter().find(|m| m.key == *k).unwrap().current_pe;
            assert_eq!(pe.0, (orig.0 + 1) % 4);
        }
    }

    struct DropsOne;
    impl Strategy for DropsOne {
        fn name(&self) -> &str {
            "DropsOne"
        }
        fn assign(&self, input: &LbInput<'_>) -> Vec<(ObjKey, Pe)> {
            input.objs.iter().skip(1).map(|m| (m.key, m.current_pe)).collect()
        }
    }

    #[test]
    #[should_panic(expected = "did not place every object")]
    fn framework_rejects_incomplete_placement() {
        let topo = Topology::two_cluster(2);
        let objs: Vec<_> = (0..3).map(|e| obj(e, 0, 1)).collect();
        run_strategy(&DropsOne, &LbInput { topo: &topo, objs: &objs });
    }

    #[test]
    fn feedback_stays_quiet_when_balanced() {
        let topo = Topology::two_cluster(4);
        let objs: Vec<_> = (0..8).map(|e| obj(e, e % 4, 100)).collect();
        let d = should_rebalance(&LbInput { topo: &topo, objs: &objs });
        assert!(!d.rebalance, "{d:?}");
        assert!((d.max_mean_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn feedback_triggers_on_imbalance() {
        let topo = Topology::two_cluster(4);
        // 6 of 8 objects piled on PE 0: max/mean = 600/200 = 3.
        let objs: Vec<_> = (0..8).map(|e| obj(e, if e < 6 { 0 } else { e % 4 }, 100)).collect();
        let d = should_rebalance(&LbInput { topo: &topo, objs: &objs });
        assert!(d.rebalance, "{d:?}");
        assert!(d.max_mean_ratio > 2.9);
    }

    #[test]
    fn feedback_with_no_load_is_quiet() {
        let topo = Topology::two_cluster(2);
        let objs: Vec<_> = (0..4).map(|e| obj(e, e % 2, 0)).collect();
        let d = should_rebalance(&LbInput { topo: &topo, objs: &objs });
        assert!(!d.rebalance);
        assert_eq!(d.max_mean_ratio, 0.0);
    }

    #[test]
    fn framework_pins_non_migratable_regardless_of_strategy() {
        let topo = Topology::two_cluster(2);
        let mut objs = vec![obj(0, 0, 10)];
        objs[0].migratable = false;
        // RotateLB would move it; the framework pins it back.
        let placement = run_strategy(&RotateLB, &LbInput { topo: &topo, objs: &objs });
        assert_eq!(placement[0].1, Pe(0));
    }
}
