//! Grid topology: clusters of nodes of processing elements.
//!
//! The paper's experiments co-allocate a job across **two clusters** with
//! the processors split evenly (1+1, 2+2, …, 32+32) and a high-latency
//! wide-area link between them.  [`Topology`] describes such a layout in
//! general form: an ordered list of clusters, each holding a contiguous
//! range of globally-numbered PEs.  PE numbering is global and dense, so a
//! `Pe` doubles as an index into per-PE state arrays everywhere else in the
//! workspace.

use std::fmt;

/// A processing element (one scheduler, one message queue), globally numbered.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pe(pub u32);

impl Pe {
    /// The PE's dense global index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Pe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pe{}", self.0)
    }
}

impl fmt::Display for Pe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A cluster within the Grid, identified by position in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClusterId(pub u16);

impl ClusterId {
    /// The cluster's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Description of one cluster: a name and how many PEs it contributes.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Human-readable name (e.g. "NCSA", "ANL").
    pub name: String,
    /// Number of PEs in this cluster.
    pub pes: u32,
}

/// The machine layout of a Grid job: an ordered list of clusters whose PEs
/// are numbered contiguously in cluster order.
#[derive(Clone, Debug)]
pub struct Topology {
    clusters: Vec<ClusterSpec>,
    /// cluster_of[pe] — dense lookup.
    cluster_of: Vec<ClusterId>,
    /// First global PE of each cluster.
    first_pe: Vec<u32>,
}

impl Topology {
    /// Build from explicit cluster specs. Panics if any cluster is empty or
    /// the list is empty.
    pub fn new(clusters: Vec<ClusterSpec>) -> Self {
        assert!(!clusters.is_empty(), "topology needs at least one cluster");
        let mut cluster_of = Vec::new();
        let mut first_pe = Vec::with_capacity(clusters.len());
        for (ci, c) in clusters.iter().enumerate() {
            assert!(c.pes > 0, "cluster {:?} has no PEs", c.name);
            first_pe.push(cluster_of.len() as u32);
            for _ in 0..c.pes {
                cluster_of.push(ClusterId(ci as u16));
            }
        }
        Topology { clusters, cluster_of, first_pe }
    }

    /// A single cluster of `pes` PEs (no wide-area links at all).
    pub fn single(pes: u32) -> Self {
        Topology::new(vec![ClusterSpec { name: "local".into(), pes }])
    }

    /// The paper's canonical layout: `total` PEs split evenly between two
    /// clusters ("A" holds the first half, "B" the second).  Panics unless
    /// `total` is even and positive.
    pub fn two_cluster(total: u32) -> Self {
        assert!(total >= 2 && total.is_multiple_of(2), "two_cluster needs an even PE count, got {total}");
        Topology::new(vec![
            ClusterSpec { name: "A".into(), pes: total / 2 },
            ClusterSpec { name: "B".into(), pes: total / 2 },
        ])
    }

    /// `n_clusters` clusters of `pes_each` PEs.
    pub fn uniform(n_clusters: u16, pes_each: u32) -> Self {
        assert!(n_clusters > 0);
        Topology::new((0..n_clusters).map(|i| ClusterSpec { name: format!("C{i}"), pes: pes_each }).collect())
    }

    /// Total number of PEs in the job.
    pub fn num_pes(&self) -> usize {
        self.cluster_of.len()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// All PEs in global order.
    pub fn pes(&self) -> impl Iterator<Item = Pe> + '_ {
        (0..self.cluster_of.len() as u32).map(Pe)
    }

    /// Which cluster a PE belongs to. Panics on out-of-range PEs.
    pub fn cluster_of(&self, pe: Pe) -> ClusterId {
        self.cluster_of[pe.index()]
    }

    /// Whether two PEs are in different clusters (i.e. a message between
    /// them crosses the wide area).
    pub fn crosses_wan(&self, a: Pe, b: Pe) -> bool {
        self.cluster_of(a) != self.cluster_of(b)
    }

    /// The PEs of one cluster, in global order.
    pub fn pes_in(&self, c: ClusterId) -> impl Iterator<Item = Pe> + '_ {
        let lo = self.first_pe[c.index()];
        let hi = lo + self.clusters[c.index()].pes;
        (lo..hi).map(Pe)
    }

    /// Number of PEs in one cluster.
    pub fn cluster_size(&self, c: ClusterId) -> usize {
        self.clusters[c.index()].pes as usize
    }

    /// All cluster ids.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> {
        (0..self.clusters.len() as u16).map(ClusterId)
    }

    /// A stable 64-bit fingerprint of the layout (FNV-1a over the cluster
    /// names and sizes, in order).  Two processes agree on the digest iff
    /// they were configured with the same topology — the check a
    /// multi-process handshake performs before exchanging traffic.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= *b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for c in &self.clusters {
            eat(c.name.as_bytes());
            eat(&[0xff]); // name terminator: ("ab",1)+("c",..) != ("a",..)+("bc",..)
            eat(&c.pes.to_le_bytes());
        }
        h
    }

    /// The shrunken topology after the PEs in `dead` are lost, plus the
    /// new→old PE mapping (`map[new.index()] == old`).
    ///
    /// Clusters are **kept in place even when emptied** so that cluster
    /// indices — and with them the per-cluster latency matrix and WAN
    /// contention state — stay valid across a shrink.  Surviving PEs are
    /// renumbered densely in the old global order.  Panics if every PE is
    /// dead.
    pub fn without_pes(&self, dead: &[Pe]) -> (Topology, Vec<Pe>) {
        let mut clusters: Vec<ClusterSpec> =
            self.clusters.iter().map(|c| ClusterSpec { pes: 0, ..c.clone() }).collect();
        let mut cluster_of = Vec::new();
        let mut first_pe = vec![0u32; clusters.len()];
        let mut map = Vec::new();
        for (ci, _) in self.clusters.iter().enumerate() {
            first_pe[ci] = cluster_of.len() as u32;
            for pe in self.pes_in(ClusterId(ci as u16)) {
                if dead.contains(&pe) {
                    continue;
                }
                clusters[ci].pes += 1;
                cluster_of.push(ClusterId(ci as u16));
                map.push(pe);
            }
        }
        assert!(!cluster_of.is_empty(), "every PE is dead; no topology remains");
        (Topology { clusters, cluster_of, first_pe }, map)
    }

    /// The widened topology after one new PE joins each cluster named in
    /// `added` — the inverse of [`without_pes`](Topology::without_pes) —
    /// plus the new→old PE mapping: `map[new.index()]` is `Some(old)` for
    /// a PE carried over from this topology and `None` for a joiner.
    ///
    /// The cluster list is unchanged (only PE counts grow), so cluster
    /// indices — and with them the per-cluster latency matrix and WAN
    /// contention state — stay valid across an expand.  Joiners are
    /// appended at the **end of their cluster's PE range**, keeping the
    /// surviving PEs' relative order; `added` may name the same cluster
    /// several times to grow it by several PEs.  Panics on an
    /// out-of-range cluster.
    pub fn with_pes(&self, added: &[ClusterId]) -> (Topology, Vec<Option<Pe>>) {
        let mut clusters = self.clusters.clone();
        let mut cluster_of = Vec::new();
        let mut first_pe = vec![0u32; clusters.len()];
        let mut map = Vec::new();
        for (ci, _) in self.clusters.iter().enumerate() {
            let cid = ClusterId(ci as u16);
            first_pe[ci] = cluster_of.len() as u32;
            for pe in self.pes_in(cid) {
                cluster_of.push(cid);
                map.push(Some(pe));
            }
            for c in added {
                assert!(c.index() < clusters.len(), "join names cluster {c} but the topology has none");
                if *c == cid {
                    clusters[ci].pes += 1;
                    cluster_of.push(cid);
                    map.push(None);
                }
            }
        }
        (Topology { clusters, cluster_of, first_pe }, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_cluster_splits_evenly() {
        let t = Topology::two_cluster(8);
        assert_eq!(t.num_pes(), 8);
        assert_eq!(t.num_clusters(), 2);
        for pe in 0..4 {
            assert_eq!(t.cluster_of(Pe(pe)), ClusterId(0));
        }
        for pe in 4..8 {
            assert_eq!(t.cluster_of(Pe(pe)), ClusterId(1));
        }
        assert!(t.crosses_wan(Pe(0), Pe(4)));
        assert!(!t.crosses_wan(Pe(0), Pe(3)));
        assert!(!t.crosses_wan(Pe(5), Pe(7)));
    }

    #[test]
    fn pes_in_cluster_are_contiguous() {
        let t = Topology::two_cluster(16);
        let b: Vec<_> = t.pes_in(ClusterId(1)).collect();
        assert_eq!(b, (8..16).map(Pe).collect::<Vec<_>>());
        assert_eq!(t.cluster_size(ClusterId(1)), 8);
    }

    #[test]
    fn single_cluster_never_crosses() {
        let t = Topology::single(4);
        for a in t.pes() {
            for b in t.pes() {
                assert!(!t.crosses_wan(a, b));
            }
        }
    }

    #[test]
    fn uniform_layout() {
        let t = Topology::uniform(3, 5);
        assert_eq!(t.num_pes(), 15);
        assert_eq!(t.cluster_of(Pe(14)), ClusterId(2));
        assert_eq!(t.clusters().count(), 3);
    }

    #[test]
    #[should_panic(expected = "even PE count")]
    fn odd_two_cluster_panics() {
        Topology::two_cluster(5);
    }

    #[test]
    fn minimal_pair() {
        // The paper's smallest configuration: 1+1.
        let t = Topology::two_cluster(2);
        assert!(t.crosses_wan(Pe(0), Pe(1)));
    }

    #[test]
    fn shrink_renumbers_densely_and_keeps_clusters() {
        let t = Topology::two_cluster(6); // A = {0,1,2}, B = {3,4,5}
        let (s, map) = t.without_pes(&[Pe(1), Pe(4)]);
        assert_eq!(s.num_pes(), 4);
        assert_eq!(s.num_clusters(), 2, "cluster indices survive the shrink");
        assert_eq!(map, vec![Pe(0), Pe(2), Pe(3), Pe(5)]);
        assert_eq!(s.cluster_of(Pe(0)), ClusterId(0));
        assert_eq!(s.cluster_of(Pe(1)), ClusterId(0));
        assert_eq!(s.cluster_of(Pe(2)), ClusterId(1));
        assert_eq!(s.cluster_of(Pe(3)), ClusterId(1));
        assert!(s.crosses_wan(Pe(1), Pe(2)));
    }

    #[test]
    fn shrink_can_empty_a_whole_cluster() {
        let t = Topology::two_cluster(4); // A = {0,1}, B = {2,3}
        let (s, map) = t.without_pes(&[Pe(2), Pe(3)]);
        assert_eq!(s.num_pes(), 2);
        assert_eq!(s.num_clusters(), 2);
        assert_eq!(s.cluster_size(ClusterId(1)), 0);
        assert_eq!(s.pes_in(ClusterId(1)).count(), 0);
        assert_eq!(map, vec![Pe(0), Pe(1)]);
        assert!(!s.crosses_wan(Pe(0), Pe(1)));
    }

    #[test]
    #[should_panic(expected = "every PE is dead")]
    fn shrink_to_nothing_panics() {
        let t = Topology::single(2);
        let _ = t.without_pes(&[Pe(0), Pe(1)]);
    }

    #[test]
    fn expand_appends_joiners_per_cluster() {
        let t = Topology::two_cluster(4); // A = {0,1}, B = {2,3}
        let (w, map) = t.with_pes(&[ClusterId(0), ClusterId(1), ClusterId(1)]);
        assert_eq!(w.num_pes(), 7);
        assert_eq!(w.num_clusters(), 2, "cluster indices survive the expand");
        assert_eq!(
            map,
            vec![Some(Pe(0)), Some(Pe(1)), None, Some(Pe(2)), Some(Pe(3)), None, None],
            "joiners land at the end of their cluster's range"
        );
        assert_eq!(w.cluster_of(Pe(2)), ClusterId(0));
        assert_eq!(w.cluster_of(Pe(6)), ClusterId(1));
        assert!(w.crosses_wan(Pe(2), Pe(5)));
    }

    #[test]
    fn expand_inverts_shrink() {
        let t = Topology::two_cluster(6); // A = {0,1,2}, B = {3,4,5}
        let (s, _) = t.without_pes(&[Pe(1), Pe(4)]);
        let (w, map) = s.with_pes(&[ClusterId(0), ClusterId(1)]);
        assert_eq!(w.num_pes(), t.num_pes());
        for c in t.clusters() {
            assert_eq!(w.cluster_size(c), t.cluster_size(c));
        }
        assert_eq!(map.iter().filter(|m| m.is_none()).count(), 2);
    }

    #[test]
    #[should_panic(expected = "the topology has none")]
    fn expand_into_missing_cluster_panics() {
        let _ = Topology::single(2).with_pes(&[ClusterId(3)]);
    }

    #[test]
    fn digest_separates_layouts() {
        assert_eq!(Topology::uniform(4, 2).digest(), Topology::uniform(4, 2).digest());
        assert_ne!(Topology::uniform(4, 2).digest(), Topology::uniform(2, 4).digest());
        assert_ne!(Topology::two_cluster(8).digest(), Topology::single(8).digest());
        let (shrunk, _) = Topology::two_cluster(8).without_pes(&[Pe(1)]);
        assert_ne!(shrunk.digest(), Topology::two_cluster(8).digest(), "generations differ");
    }
}
