//! Per-PE-pair message latency: the simulated form of the paper's VMI
//! "delay device".
//!
//! §5.1 of the paper: *"We leverage this capability to inject pre-defined
//! latencies between arbitrary pairs of nodes by constructing send and
//! receive chains that consist of two network drivers with a 'delay device
//! driver' in between."*  [`LatencyMatrix`] is that delay device in virtual
//! time: messages between PEs of the same cluster see the (microsecond-
//! scale) intra-cluster latency; messages that cross clusters see the
//! configured wide-area latency.  Arbitrary per-cluster-pair overrides and
//! optional bounded jitter are supported.

use crate::rng::Xoshiro256;
use crate::time::Dur;
use crate::topology::{ClusterId, Pe, Topology};

/// One-way latency for every ordered pair of PEs, derived from cluster
/// membership.
#[derive(Clone, Debug)]
pub struct LatencyMatrix {
    /// latency[ci][cj] — one-way latency from cluster ci to cluster cj.
    table: Vec<Vec<Dur>>,
    /// Latency applied to a PE sending to itself (scheduler hand-off only).
    self_latency: Dur,
    /// Max uniform jitter added per message (0 = deterministic).
    jitter: Dur,
}

/// Builder for [`LatencyMatrix`].
#[derive(Clone, Debug)]
pub struct LatencyMatrixBuilder {
    n_clusters: usize,
    intra: Dur,
    cross: Dur,
    self_latency: Dur,
    overrides: Vec<(ClusterId, ClusterId, Dur)>,
    jitter: Dur,
}

/// Intra-cluster one-way latency default: the paper quotes "a few
/// microseconds" for Myrinet/InfiniBand-class interconnects.
pub const DEFAULT_INTRA_LATENCY: Dur = Dur::from_micros(10);

impl LatencyMatrixBuilder {
    /// Start building for a topology with `n_clusters` clusters.
    pub fn new(n_clusters: usize) -> Self {
        LatencyMatrixBuilder {
            n_clusters,
            intra: DEFAULT_INTRA_LATENCY,
            cross: Dur::ZERO,
            self_latency: Dur::ZERO,
            overrides: Vec::new(),
            jitter: Dur::ZERO,
        }
    }

    /// Latency between PEs of the same cluster.
    pub fn intra(mut self, d: Dur) -> Self {
        self.intra = d;
        self
    }

    /// Default latency between PEs of different clusters (the artificial
    /// wide-area latency being swept in Figures 3 and 4).
    pub fn cross(mut self, d: Dur) -> Self {
        self.cross = d;
        self
    }

    /// Latency for a PE messaging itself (default 0: pure queue hand-off).
    pub fn self_latency(mut self, d: Dur) -> Self {
        self.self_latency = d;
        self
    }

    /// Override the latency between one cluster pair, in both directions.
    pub fn pair(mut self, a: ClusterId, b: ClusterId, d: Dur) -> Self {
        self.overrides.push((a, b, d));
        self
    }

    /// Add bounded uniform jitter in [0, j) to every message.
    pub fn jitter(mut self, j: Dur) -> Self {
        self.jitter = j;
        self
    }

    /// Finish building.
    pub fn build(self) -> LatencyMatrix {
        let n = self.n_clusters;
        let mut table = vec![vec![self.cross; n]; n];
        for (ci, row) in table.iter_mut().enumerate() {
            row[ci] = self.intra;
        }
        for (a, b, d) in self.overrides {
            assert!(a.index() < n && b.index() < n, "override cluster out of range");
            table[a.index()][b.index()] = d;
            table[b.index()][a.index()] = d;
        }
        LatencyMatrix { table, self_latency: self.self_latency, jitter: self.jitter }
    }
}

impl LatencyMatrix {
    /// Uniform model: `intra` within a cluster, `cross` between clusters.
    /// This is the configuration used for every latency-sweep experiment.
    pub fn uniform(topo: &Topology, intra: Dur, cross: Dur) -> Self {
        LatencyMatrixBuilder::new(topo.num_clusters()).intra(intra).cross(cross).build()
    }

    /// The paper's measured TeraGrid configuration: ~10 µs intra-cluster,
    /// 1.725 ms one-way NCSA↔ANL.
    pub fn teragrid_ncsa_anl(topo: &Topology) -> Self {
        Self::uniform(topo, DEFAULT_INTRA_LATENCY, Dur::from_micros(1725))
    }

    /// One-way latency from `src` to `dst` (no jitter applied).
    pub fn base_latency(&self, topo: &Topology, src: Pe, dst: Pe) -> Dur {
        if src == dst {
            return self.self_latency;
        }
        let (ci, cj) = (topo.cluster_of(src), topo.cluster_of(dst));
        self.table[ci.index()][cj.index()]
    }

    /// One-way latency including jitter drawn from `rng` (uniform in
    /// [0, jitter)).  With zero jitter this equals [`Self::base_latency`].
    pub fn latency(&self, topo: &Topology, src: Pe, dst: Pe, rng: &mut Xoshiro256) -> Dur {
        let base = self.base_latency(topo, src, dst);
        if self.jitter.is_zero() {
            base
        } else {
            base + Dur::from_nanos(rng.next_below(self.jitter.as_nanos().max(1)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;
    use crate::topology::Topology;

    #[test]
    fn uniform_matrix_routes_by_cluster() {
        let topo = Topology::two_cluster(8);
        let m = LatencyMatrix::uniform(&topo, Dur::from_micros(10), Dur::from_millis(16));
        assert_eq!(m.base_latency(&topo, Pe(0), Pe(3)), Dur::from_micros(10));
        assert_eq!(m.base_latency(&topo, Pe(0), Pe(4)), Dur::from_millis(16));
        assert_eq!(m.base_latency(&topo, Pe(7), Pe(1)), Dur::from_millis(16));
        assert_eq!(m.base_latency(&topo, Pe(2), Pe(2)), Dur::ZERO);
    }

    #[test]
    fn teragrid_preset_matches_paper() {
        let topo = Topology::two_cluster(2);
        let m = LatencyMatrix::teragrid_ncsa_anl(&topo);
        assert_eq!(m.base_latency(&topo, Pe(0), Pe(1)), Dur::from_micros(1725));
    }

    #[test]
    fn pair_overrides_are_symmetric() {
        let topo = Topology::uniform(3, 2);
        let m = LatencyMatrixBuilder::new(3)
            .intra(Dur::from_micros(5))
            .cross(Dur::from_millis(10))
            .pair(ClusterId(0), ClusterId(2), Dur::from_millis(30))
            .build();
        assert_eq!(m.base_latency(&topo, Pe(0), Pe(4)), Dur::from_millis(30));
        assert_eq!(m.base_latency(&topo, Pe(4), Pe(0)), Dur::from_millis(30));
        assert_eq!(m.base_latency(&topo, Pe(0), Pe(2)), Dur::from_millis(10));
    }

    #[test]
    fn jitter_bounded_and_deterministic() {
        let topo = Topology::two_cluster(2);
        let m = LatencyMatrixBuilder::new(2).cross(Dur::from_millis(4)).jitter(Dur::from_micros(100)).build();
        let mut r1 = Xoshiro256::new(1);
        let mut r2 = Xoshiro256::new(1);
        for _ in 0..100 {
            let l1 = m.latency(&topo, Pe(0), Pe(1), &mut r1);
            let l2 = m.latency(&topo, Pe(0), Pe(1), &mut r2);
            assert_eq!(l1, l2, "same seed, same jitter");
            assert!(l1 >= Dur::from_millis(4));
            assert!(l1 < Dur::from_millis(4) + Dur::from_micros(100));
        }
    }
}
