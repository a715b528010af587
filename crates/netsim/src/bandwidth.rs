//! Link bandwidth and shared-WAN contention.
//!
//! §5.3 of the paper speculates that the 64-processor LeanMD runs degrade
//! because *"latencies will be higher when a large amount of data is being
//! communicated between two clusters over a shorter period of time, leading
//! to increased contention in the network."*  This module models exactly
//! that: each directed cluster-pair link is a FIFO pipe with finite
//! bandwidth; a message occupies the pipe for `bytes / bandwidth` and
//! later messages queue behind it.  Intra-cluster links can be modelled too
//! (they are effectively never the bottleneck at the paper's scales).

use crate::time::{Dur, Time};
use crate::topology::{Pe, Topology};

/// Bandwidth description of one link class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Bytes per second the link can carry; `f64::INFINITY` disables
    /// serialization delay entirely.
    pub bytes_per_sec: f64,
    /// Fixed per-message overhead charged on this link (software stack,
    /// packetization) in addition to latency and serialization.
    pub per_message: Dur,
}

impl LinkModel {
    /// An infinitely fast link (no serialization delay, no overhead).
    pub const INFINITE: LinkModel = LinkModel { bytes_per_sec: f64::INFINITY, per_message: Dur::ZERO };

    /// A link of `gbit` gigabits per second with the given per-message cost.
    pub fn gbit(gbit: f64, per_message: Dur) -> Self {
        LinkModel { bytes_per_sec: gbit * 1e9 / 8.0, per_message }
    }

    /// Time the wire is occupied transmitting `bytes`.
    pub fn serialization(&self, bytes: u64) -> Dur {
        if self.bytes_per_sec.is_infinite() {
            return self.per_message;
        }
        assert!(self.bytes_per_sec > 0.0, "bandwidth must be positive");
        self.per_message + Dur::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::INFINITE
    }
}

/// FIFO contention state for the shared wide-area links.
///
/// There is one directed pipe per ordered cluster pair; `occupy` returns the
/// additional queueing + serialization delay a message of a given size
/// experiences, and advances the pipe's busy horizon.  Intra-cluster traffic
/// uses a separate (usually much faster) link model but is tracked per
/// *cluster*, not per PE pair, which is deliberately pessimistic only when
/// intra-cluster bandwidth is made finite.
#[derive(Clone, Debug)]
pub struct WanContention {
    n_clusters: usize,
    wan: LinkModel,
    lan: LinkModel,
    /// busy_until[src_cluster * n + dst_cluster]
    busy_until: Vec<Time>,
}

impl WanContention {
    /// New contention tracker for `topo` with the given WAN and LAN models.
    pub fn new(topo: &Topology, wan: LinkModel, lan: LinkModel) -> Self {
        let n = topo.num_clusters();
        WanContention { n_clusters: n, wan, lan, busy_until: vec![Time::ZERO; n * n] }
    }

    /// Contention disabled: every link infinitely fast.
    pub fn disabled(topo: &Topology) -> Self {
        Self::new(topo, LinkModel::INFINITE, LinkModel::INFINITE)
    }

    fn slot(&self, topo: &Topology, src: Pe, dst: Pe) -> usize {
        topo.cluster_of(src).index() * self.n_clusters + topo.cluster_of(dst).index()
    }

    /// Account a message of `bytes` entering the link at `now`; returns the
    /// delay between `now` and the moment the message has fully left the
    /// sending side (queueing behind earlier messages + serialization).
    pub fn occupy(&mut self, topo: &Topology, src: Pe, dst: Pe, now: Time, bytes: u64) -> Dur {
        let link = if topo.crosses_wan(src, dst) { self.wan } else { self.lan };
        let slot = self.slot(topo, src, dst);
        let ser = link.serialization(bytes);
        if link.bytes_per_sec.is_infinite() {
            // No queueing on an infinite link; just the per-message overhead.
            return ser;
        }
        let start = self.busy_until[slot].max(now);
        let done = start + ser;
        self.busy_until[slot] = done;
        done - now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_scales_with_size() {
        let link = LinkModel::gbit(1.0, Dur::ZERO); // 125 MB/s
        assert_eq!(link.serialization(0), Dur::ZERO);
        // 125_000_000 bytes at 125 MB/s = 1 s
        assert_eq!(link.serialization(125_000_000), Dur::from_secs(1));
        // 1250 bytes -> 10 us
        assert_eq!(link.serialization(1250), Dur::from_micros(10));
    }

    #[test]
    fn infinite_link_only_charges_overhead() {
        let link = LinkModel { bytes_per_sec: f64::INFINITY, per_message: Dur::from_micros(2) };
        assert_eq!(link.serialization(1 << 30), Dur::from_micros(2));
    }

    #[test]
    fn fifo_queueing_accumulates() {
        let topo = Topology::two_cluster(2);
        let wan = LinkModel::gbit(1.0, Dur::ZERO);
        let mut c = WanContention::new(&topo, wan, LinkModel::INFINITE);
        let now = Time::ZERO;
        // Two 125 MB messages back-to-back: second waits for the first.
        let d1 = c.occupy(&topo, Pe(0), Pe(1), now, 125_000_000);
        let d2 = c.occupy(&topo, Pe(0), Pe(1), now, 125_000_000);
        assert_eq!(d1, Dur::from_secs(1));
        assert_eq!(d2, Dur::from_secs(2));
        // Reverse direction is an independent pipe.
        let d3 = c.occupy(&topo, Pe(1), Pe(0), now, 125_000_000);
        assert_eq!(d3, Dur::from_secs(1));
    }

    #[test]
    fn pipe_drains_over_time() {
        let topo = Topology::two_cluster(2);
        let wan = LinkModel::gbit(1.0, Dur::ZERO);
        let mut c = WanContention::new(&topo, wan, LinkModel::INFINITE);
        c.occupy(&topo, Pe(0), Pe(1), Time::ZERO, 125_000_000); // busy until 1s
                                                                // Arriving at t=2s: pipe is idle again, only serialization applies.
        let d = c.occupy(&topo, Pe(0), Pe(1), Time::ZERO + Dur::from_secs(2), 125_000_000);
        assert_eq!(d, Dur::from_secs(1));
    }

    #[test]
    fn intra_cluster_uses_lan_model() {
        let topo = Topology::two_cluster(4);
        let mut c = WanContention::new(
            &topo,
            LinkModel::gbit(0.001, Dur::ZERO),
            LinkModel { bytes_per_sec: f64::INFINITY, per_message: Dur::from_nanos(500) },
        );
        let d = c.occupy(&topo, Pe(0), Pe(1), Time::ZERO, 1 << 20);
        assert_eq!(d, Dur::from_nanos(500));
    }
}
