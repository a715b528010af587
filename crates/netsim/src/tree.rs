//! Spanning trees for collective operations.
//!
//! Every broadcast, section multicast and reduction runs over one
//! [`SpanTree`] rooted at PE 0, in one of two shapes:
//!
//! * the **binary heap** ([`SpanTree::heap`]), cluster-blind: PE p hangs
//!   under PE (p − 1) / 2 over the dense PE numbering, and there are no
//!   gateways, so a multicast addresses each element's own PE.  A
//!   collective crosses the wide area once per remote PE on its path;
//! * the **two-level** tree ([`SpanTree::build`]), the Grid-aware shape of
//!   MPICH-G2's multi-level collectives, in which
//!   - every non-empty cluster designates one **gateway** PE (its
//!     lowest-numbered PE),
//!   - the root (PE 0, which is its own cluster's gateway) parents every
//!     other gateway directly — so the wide area is crossed **exactly
//!     once per remote cluster** in each direction, and
//!   - within a cluster the remaining PEs hang under the gateway as a
//!     k-ary heap of fan-out [`SpanTree::BRANCH`] — fan-out happens over
//!     cheap local links.
//!
//! Either shape is a pure function of the topology, so every PE of a
//! job — across processes, across engines — derives the same tree
//! independently, and a
//! shrink/expand generation change rebuilds it consistently by
//! construction.  Reductions fold upward along the same edges a broadcast
//! fans out along, with partial-combine at each interior PE.

use crate::topology::{ClusterId, Pe, Topology};

/// A spanning tree over every PE of a topology, rooted at PE 0.
#[derive(Clone, Debug)]
pub struct SpanTree {
    /// parent[pe] — `None` only for the root.
    parent: Vec<Option<Pe>>,
    /// children[pe], ascending by PE number.
    children: Vec<Vec<Pe>>,
    /// gateway[cluster] — `None` for a cluster emptied by a shrink.  Empty
    /// for the heap shape, which has no gateways.
    gateways: Vec<Option<Pe>>,
}

/// Hang `members[i]` under `members[(i − 1) / branch]`: a k-ary heap over
/// the given PEs, rooted at the first.
fn hang_heap(parent: &mut [Option<Pe>], members: &[Pe], branch: usize) {
    for (i, &pe) in members.iter().enumerate().skip(1) {
        parent[pe.index()] = Some(members[(i - 1) / branch]);
    }
}

impl SpanTree {
    /// The two-level tree's intra-cluster fan-out per PE (the k of the
    /// local k-ary heap).  Four keeps a cluster's depth shallow without
    /// serializing a gateway behind a long child list; cross-cluster
    /// edges (root → gateway) are not counted against it: the wide-area
    /// link is the resource being economized, not the root's local NIC.
    pub const BRANCH: usize = 4;

    /// The tree a run's `tree_collectives` setting selects: the two-level
    /// tree when `two_level`, the binary heap otherwise.
    pub fn new(topo: &Topology, two_level: bool) -> SpanTree {
        if two_level {
            SpanTree::build(topo)
        } else {
            SpanTree::heap(topo.num_pes())
        }
    }

    /// The cluster-blind binary heap over `n` PEs: PE p hangs under PE
    /// (p − 1) / 2, and there are no gateways.
    pub fn heap(n: usize) -> SpanTree {
        let pes: Vec<Pe> = (0..n as u32).map(Pe).collect();
        let mut parent = vec![None; n];
        hang_heap(&mut parent, &pes, 2);
        SpanTree::from_parents(parent, Vec::new())
    }

    /// Build the two-level tree for `topo`.  Deterministic: every caller
    /// handed the same topology derives the same tree.
    pub fn build(topo: &Topology) -> SpanTree {
        let mut parent: Vec<Option<Pe>> = vec![None; topo.num_pes()];
        let mut gateways: Vec<Option<Pe>> = vec![None; topo.num_clusters()];
        for c in topo.clusters() {
            let members: Vec<Pe> = topo.pes_in(c).collect();
            let Some(&gw) = members.first() else {
                continue; // cluster emptied by a shrink: no gateway, no PEs
            };
            gateways[c.index()] = Some(gw);
            hang_heap(&mut parent, &members, SpanTree::BRANCH);
            // The wide-area star: every remote gateway hangs off PE 0.
            if gw != Pe(0) {
                parent[gw.index()] = Some(Pe(0));
            }
        }
        assert!(parent[0].is_none(), "PE 0 must be the root (dense numbering makes it the first gateway)");
        SpanTree::from_parents(parent, gateways)
    }

    fn from_parents(parent: Vec<Option<Pe>>, gateways: Vec<Option<Pe>>) -> SpanTree {
        let mut children: Vec<Vec<Pe>> = vec![Vec::new(); parent.len()];
        for (pe, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[p.index()].push(Pe(pe as u32)); // ascending: PEs visited in order
            }
        }
        SpanTree { parent, children, gateways }
    }

    /// The root PE (always PE 0, where the host client lives).
    pub fn root(&self) -> Pe {
        Pe(0)
    }

    /// Number of PEs spanned.
    pub fn num_pes(&self) -> usize {
        self.parent.len()
    }

    /// Parent of `pe` (`None` for the root).
    pub fn parent(&self, pe: Pe) -> Option<Pe> {
        self.parent[pe.index()]
    }

    /// Children of `pe`, ascending by PE number.
    pub fn children(&self, pe: Pe) -> &[Pe] {
        &self.children[pe.index()]
    }

    /// The gateway PE of a cluster (`None` for a cluster emptied by a
    /// shrink, and for every cluster of the heap shape).
    pub fn gateway(&self, c: ClusterId) -> Option<Pe> {
        self.gateways.get(c.index()).copied().flatten()
    }

    /// Whether `pe` is some cluster's gateway.
    pub fn is_gateway(&self, pe: Pe) -> bool {
        self.gateways.contains(&Some(pe))
    }

    /// The PE a multicast leaving `from` addresses for an element hosted
    /// on `to`: the gateway of `to`'s cluster when the hop crosses the
    /// wide area and the shape has gateways, `to` itself otherwise.
    pub fn next_hop(&self, topo: &Topology, from: Pe, to: Pe) -> Pe {
        match self.gateways.get(topo.cluster_of(to).index()) {
            Some(gw) if topo.crosses_wan(from, to) => gw.expect("a hosting cluster is non-empty"),
            _ => to,
        }
    }

    /// Every PE in the subtree rooted at `pe`, including `pe` itself.
    pub fn subtree(&self, pe: Pe) -> Vec<Pe> {
        let mut out = Vec::new();
        let mut stack = vec![pe];
        while let Some(p) = stack.pop() {
            out.push(p);
            stack.extend(self.children(p).iter().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks every shape passes: spans each of the `n` PEs exactly once
    /// from PE 0, children ascending, and parent/child edges agreeing.
    fn validate_spans(n: usize, tree: &SpanTree) {
        assert_eq!(tree.num_pes(), n);
        let mut seen: Vec<u32> = tree.subtree(tree.root()).iter().map(|p| p.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..n as u32).collect::<Vec<_>>());
        assert_eq!(tree.parent(tree.root()), None);
        for pe in (0..n as u32).map(Pe) {
            let kids = tree.children(pe);
            assert!(kids.windows(2).all(|w| w[0] < w[1]), "{pe:?}'s children ascend: {kids:?}");
            for &child in kids {
                assert_eq!(tree.parent(child), Some(pe));
            }
        }
    }

    /// The two-level shape on top of the spanning checks: one gateway per
    /// non-empty cluster, fan-out within `BRANCH`, WAN edges root→gateway.
    fn validate(topo: &Topology, tree: &SpanTree) {
        validate_spans(topo.num_pes(), tree);
        // Exactly one gateway per non-empty cluster; none for empty ones.
        for c in topo.clusters() {
            match tree.gateway(c) {
                Some(gw) => {
                    assert_eq!(topo.cluster_of(gw), c);
                    assert_eq!(Some(gw), topo.pes_in(c).next(), "gateway is the cluster's first PE");
                }
                None => assert_eq!(topo.cluster_size(c), 0),
            }
        }
        // Edge discipline: cross-cluster edges are exactly root→gateway;
        // intra-cluster fan-out respects the branching factor.
        for pe in topo.pes() {
            let intra = tree.children(pe).iter().filter(|&&c| !topo.crosses_wan(pe, c)).count();
            assert!(intra <= SpanTree::BRANCH, "{pe:?} has {intra} local children");
            for &child in tree.children(pe) {
                if topo.crosses_wan(pe, child) {
                    assert_eq!(pe, Pe(0), "only the root sends across the WAN");
                    assert!(tree.is_gateway(child), "WAN edges land on gateways only");
                }
            }
        }
    }

    /// The heap shape: spanning, PE p under (p − 1) / 2, no gateways.
    fn validate_heap(topo: &Topology, tree: &SpanTree) {
        validate_spans(topo.num_pes(), tree);
        for p in 1..topo.num_pes() as u32 {
            assert_eq!(tree.parent(Pe(p)), Some(Pe((p - 1) / 2)), "pe{p} hangs under (p-1)/2");
        }
        for pe in topo.pes() {
            assert!(!tree.is_gateway(pe), "the heap has no gateways");
            for to in topo.pes() {
                assert_eq!(tree.next_hop(topo, pe, to), to, "a heap multicast addresses the element's own PE");
            }
        }
    }

    #[test]
    fn heap_shape_is_the_binary_pe_heap() {
        // Two uneven clusters: the heap ignores them, WAN hops included.
        for n in [1u32, 2, 13, 64] {
            let topo = if n == 1 {
                Topology::single(1)
            } else {
                Topology::new(vec![
                    crate::topology::ClusterSpec { name: "a".into(), pes: n / 2 },
                    crate::topology::ClusterSpec { name: "b".into(), pes: n - n / 2 },
                ])
            };
            let tree = SpanTree::new(&topo, false);
            validate_heap(&topo, &tree);
            assert_eq!(tree.num_pes(), n as usize);
        }
        let tree = SpanTree::heap(13);
        assert_eq!(tree.children(Pe(5)), &[Pe(11), Pe(12)]);
        assert!(tree.children(Pe(6)).is_empty(), "a leaf of 13");
        assert_eq!(SpanTree::heap(14).children(Pe(6)), &[Pe(13)]);
    }

    #[test]
    fn heap_shape_is_rebuilt_over_the_shrunk_numbering() {
        let topo = Topology::uniform(3, 5);
        let (shrunk, _) = topo.without_pes(&[Pe(0), Pe(6), Pe(7), Pe(14)]);
        validate_heap(&shrunk, &SpanTree::new(&shrunk, false));
        let (grown, _) = shrunk.with_pes(&[ClusterId(1), ClusterId(1)]);
        validate_heap(&grown, &SpanTree::new(&grown, false));
    }

    #[test]
    fn two_cluster_tree_crosses_wan_once() {
        let topo = Topology::two_cluster(8);
        let tree = SpanTree::build(&topo);
        validate(&topo, &tree);
        assert_eq!(tree.gateway(ClusterId(0)), Some(Pe(0)));
        assert_eq!(tree.gateway(ClusterId(1)), Some(Pe(4)));
        assert_eq!(tree.parent(Pe(4)), Some(Pe(0)));
        // All of cluster B hangs under its gateway, not under PE 0.
        for pe in [Pe(5), Pe(6), Pe(7)] {
            assert_eq!(tree.parent(pe), Some(Pe(4)));
        }
        let cross = topo
            .pes()
            .flat_map(|p| tree.children(p).iter().map(move |&c| (p, c)))
            .filter(|&(p, c)| topo.crosses_wan(p, c))
            .count();
        assert_eq!(cross, 1, "one WAN edge for one remote cluster");
    }

    #[test]
    fn branching_factor_shapes_the_local_tree() {
        // The k-ary routine both shapes share, at fan-outs 2 and 1.
        let pes: Vec<Pe> = (0..7).map(Pe).collect();
        let heap = |branch| {
            let mut parent = vec![None; pes.len()];
            hang_heap(&mut parent, &pes, branch);
            SpanTree::from_parents(parent, Vec::new())
        };
        let tree = heap(2);
        validate_spans(7, &tree);
        assert_eq!(tree.children(Pe(0)), &[Pe(1), Pe(2)]);
        assert_eq!(tree.children(Pe(1)), &[Pe(3), Pe(4)]);
        assert_eq!(tree.children(Pe(2)), &[Pe(5), Pe(6)]);
        let chain = heap(1);
        validate_spans(7, &chain);
        for pe in 1..7 {
            assert_eq!(chain.parent(Pe(pe)), Some(Pe(pe - 1)), "branch=1 degenerates to a chain");
        }
        // The two-level tree hangs a cluster under its gateway at fan-out 4.
        let topo = Topology::single(7);
        let tree = SpanTree::build(&topo);
        validate(&topo, &tree);
        assert_eq!(tree.children(Pe(0)), &[Pe(1), Pe(2), Pe(3), Pe(4)]);
        assert_eq!(tree.children(Pe(1)), &[Pe(5), Pe(6)]);
    }

    #[test]
    fn many_uneven_clusters_get_one_gateway_each() {
        let topo = Topology::new(vec![
            crate::topology::ClusterSpec { name: "a".into(), pes: 1 },
            crate::topology::ClusterSpec { name: "b".into(), pes: 5 },
            crate::topology::ClusterSpec { name: "c".into(), pes: 2 },
        ]);
        let tree = SpanTree::build(&topo);
        validate(&topo, &tree);
        assert_eq!(tree.children(Pe(0)), &[Pe(1), Pe(6)], "root's children are the two remote gateways");
        assert!(tree.is_gateway(Pe(0)) && tree.is_gateway(Pe(1)) && tree.is_gateway(Pe(6)));
    }

    #[test]
    fn survives_shrink_that_empties_a_cluster() {
        let topo = Topology::two_cluster(4);
        let (shrunk, _) = topo.without_pes(&[Pe(2), Pe(3)]);
        let tree = SpanTree::build(&shrunk);
        validate(&shrunk, &tree);
        assert_eq!(tree.gateway(ClusterId(1)), None, "emptied cluster has no gateway");
        assert_eq!(tree.children(Pe(0)), &[Pe(1)]);
    }

    #[test]
    fn rebuild_after_shrink_then_expand_is_valid() {
        let topo = Topology::uniform(3, 3);
        let (s, _) = topo.without_pes(&[Pe(0), Pe(4)]);
        validate(&s, &SpanTree::build(&s));
        let (w, _) = s.with_pes(&[ClusterId(0), ClusterId(2)]);
        validate(&w, &SpanTree::build(&w));
    }

    #[test]
    fn single_pe_is_just_a_root() {
        let topo = Topology::single(1);
        let tree = SpanTree::build(&topo);
        validate(&topo, &tree);
        assert_eq!(tree.parent(Pe(0)), None);
        assert!(tree.children(Pe(0)).is_empty());
        assert_eq!(tree.subtree(Pe(0)), vec![Pe(0)]);
    }
}
