//! Unreliable-WAN fault injection device.
//!
//! Sits on the cross-cluster chain and subjects each packet to the
//! drop/duplicate/reorder/corrupt probabilities of a
//! [`FaultPlan`], drawing from the plan's dedicated
//! per-PE-pair streams so a given plan harms the same packets regardless of
//! how traffic from other pairs interleaves — the property that lets the
//! threaded engine and the virtual-time [`FaultModel`](mdo_netsim::FaultModel)
//! agree on a fault scenario.
//!
//! Placement matters: the engine composes
//! `CrcDevice::appender() → FaultDevice → CrcDevice::verifier()` ahead of
//! the delay device, so an injected corruption is caught by the checksum
//! and becomes a counted drop (the reliable layer then recovers it by
//! retransmission, exactly like a plain loss).
//!
//! One draw is consumed per handled packet, retransmissions included;
//! control frames of the reliable layer (acks) pass through unharmed and
//! draw nothing, keeping the pair streams aligned with the simulation
//! engine's one-draw-per-data-attempt accounting.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use mdo_netsim::{Dur, FaultPlan, Xoshiro256};
use parking_lot::Mutex;

use crate::device::{Device, Forwarder};
use crate::packet::Packet;
use crate::reliable;

/// Per-pair fault stream plus the reorder stash.
struct PairState {
    rng: Xoshiro256,
    /// A packet held back by a reorder draw; released right after the next
    /// surviving packet of the same pair (or after its own retransmission
    /// passes, so a held-back final packet cannot wedge the run).
    stash: Option<Packet>,
}

/// Snapshot of what the device has done to the traffic so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultDeviceStats {
    /// Packets lost to a drop draw or a link-down window.
    pub dropped: u64,
    /// Packets forwarded with a flipped byte.
    pub corrupted: u64,
    /// Extra copies injected by duplicate draws.
    pub dup_injected: u64,
    /// Packets held back by reorder draws.
    pub reordered: u64,
}

/// The fault injection device.
pub struct FaultDevice {
    plan: FaultPlan,
    /// Run epoch for interpreting the plan's link-down windows.
    t0: Instant,
    /// Skip reliable-layer control frames (acks) entirely.
    spare_control: bool,
    pairs: Mutex<HashMap<(u32, u32), PairState>>,
    dropped: AtomicU64,
    corrupted: AtomicU64,
    dup_injected: AtomicU64,
    reordered: AtomicU64,
}

impl FaultDevice {
    /// A device faulting every packet it sees (standalone composition).
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Self::build(plan, false)
    }

    /// A device for use under the reliable delivery layer: data frames are
    /// faulted, ack frames pass unharmed without consuming a draw.
    pub fn for_reliable(plan: FaultPlan) -> Arc<Self> {
        Self::build(plan, true)
    }

    fn build(plan: FaultPlan, spare_control: bool) -> Arc<Self> {
        Arc::new(FaultDevice {
            plan,
            t0: Instant::now(),
            spare_control,
            pairs: Mutex::new(HashMap::new()),
            dropped: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            dup_injected: AtomicU64::new(0),
            reordered: AtomicU64::new(0),
        })
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> FaultDeviceStats {
        FaultDeviceStats {
            dropped: self.dropped.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            dup_injected: self.dup_injected.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
        }
    }

    fn flip_byte(&self, pkt: &mut Packet, rng: &mut Xoshiro256) {
        if pkt.payload.is_empty() {
            return;
        }
        let idx = rng.next_below(pkt.payload.len() as u64) as usize;
        let mut v = pkt.payload.to_vec();
        v[idx] ^= 0x20;
        pkt.payload = Bytes::from(v);
    }
}

impl Device for FaultDevice {
    fn handle(&self, mut pkt: Packet, next: Arc<dyn Forwarder>) {
        if self.spare_control && reliable::is_control_frame(&pkt.payload) {
            next.deliver(pkt);
            return;
        }

        let key = (pkt.src.0, pkt.dst.0);
        let mut pairs = self.pairs.lock();
        let pair =
            pairs.entry(key).or_insert_with(|| PairState { rng: self.plan.pair_stream(pkt.src, pkt.dst), stash: None });
        let r = pair.rng.next_f64();
        let p = &self.plan;
        let since_start = Dur::from_std(self.t0.elapsed());

        if p.link_is_down(since_start) || r < p.drop {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if r < p.drop + p.corrupt {
            self.corrupted.fetch_add(1, Ordering::Relaxed);
            self.flip_byte(&mut pkt, &mut pair.rng);
            let stashed = pair.stash.take();
            drop(pairs);
            next.deliver(pkt);
            if let Some(s) = stashed {
                next.deliver(s);
            }
            return;
        }
        if r < p.drop + p.corrupt + p.duplicate {
            self.dup_injected.fetch_add(1, Ordering::Relaxed);
            let stashed = pair.stash.take();
            drop(pairs);
            next.deliver(pkt.clone());
            next.deliver(pkt);
            if let Some(s) = stashed {
                next.deliver(s);
            }
            return;
        }
        if r < p.drop + p.corrupt + p.duplicate + p.reorder && pair.stash.is_none() {
            // Hold this packet back; the next surviving packet of the pair
            // (possibly this one's own retransmission) releases it.
            self.reordered.fetch_add(1, Ordering::Relaxed);
            pair.stash = Some(pkt);
            return;
        }
        let stashed = pair.stash.take();
        drop(pairs);
        next.deliver(pkt);
        if let Some(s) = stashed {
            next.deliver(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Chain, FnForwarder};
    use mdo_netsim::Pe;

    fn collect() -> (Arc<Mutex<Vec<Packet>>>, Arc<dyn Forwarder>) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        let sink: Arc<dyn Forwarder> = Arc::new(FnForwarder(move |p| out2.lock().push(p)));
        (out, sink)
    }

    fn payloads(out: &Mutex<Vec<Packet>>) -> Vec<Vec<u8>> {
        out.lock().iter().map(|p| p.payload.to_vec()).collect()
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let (out, sink) = collect();
        let dev = FaultDevice::new(FaultPlan::default());
        let chain = Chain::new(vec![dev.clone()], sink);
        for i in 0..32u8 {
            chain.send(Packet::new(Pe(0), Pe(4), Bytes::from(vec![i])));
        }
        assert_eq!(payloads(&out), (0..32u8).map(|i| vec![i]).collect::<Vec<_>>());
        assert_eq!(dev.stats(), FaultDeviceStats::default());
    }

    #[test]
    fn drops_follow_the_pair_stream() {
        // Same plan, two devices: identical survivors, matching the seeded
        // per-pair stream contract shared with the sim-engine fault model.
        let plan = FaultPlan::loss(0.4).with_seed(11);
        let run = |plan: FaultPlan| {
            let (out, sink) = collect();
            let dev = FaultDevice::new(plan);
            let chain = Chain::new(vec![dev.clone()], sink);
            for i in 0..200u8 {
                chain.send(Packet::new(Pe(1), Pe(6), Bytes::from(vec![i])));
            }
            (payloads(&out), dev.stats())
        };
        let (a, sa) = run(plan.clone());
        let (b, sb) = run(plan);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.dropped > 40 && sa.dropped < 120, "~40% of 200 dropped, got {}", sa.dropped);
        assert_eq!(a.len() as u64, 200 - sa.dropped);
    }

    #[test]
    fn duplicates_and_corruption() {
        let plan = FaultPlan::default().with_duplicate(0.5).with_corrupt(0.3).with_seed(5);
        let (out, sink) = collect();
        let dev = FaultDevice::new(plan);
        let chain = Chain::new(vec![dev.clone()], sink);
        for i in 0..100u8 {
            chain.send(Packet::new(Pe(0), Pe(9), Bytes::from(vec![i, i])));
        }
        let stats = dev.stats();
        assert!(stats.dup_injected > 20, "dups: {}", stats.dup_injected);
        assert!(stats.corrupted > 10, "corruptions: {}", stats.corrupted);
        assert_eq!(out.lock().len() as u64, 100 + stats.dup_injected);
        let mangled = out.lock().iter().filter(|p| p.payload[0] != p.payload[1]).count() as u64;
        assert_eq!(mangled, stats.corrupted);
    }

    #[test]
    fn reorder_holds_one_packet_back() {
        let plan = FaultPlan::default().with_reorder(1.0);
        let (out, sink) = collect();
        let dev = FaultDevice::new(plan);
        let chain = Chain::new(vec![dev.clone()], sink);
        chain.send(Packet::new(Pe(0), Pe(4), Bytes::from_static(b"a")));
        assert!(out.lock().is_empty(), "first packet is stashed");
        // With reorder = 1.0 the second draw also says "reorder", but the
        // stash is occupied, so the packet passes and releases the stash.
        chain.send(Packet::new(Pe(0), Pe(4), Bytes::from_static(b"b")));
        assert_eq!(payloads(&out), vec![b"b".to_vec(), b"a".to_vec()]);
        assert_eq!(dev.stats().reordered, 1);
    }

    #[test]
    fn link_down_window_drops_everything() {
        let plan = FaultPlan::default().with_link_down(Dur::ZERO, Dur::from_secs(3600));
        let (out, sink) = collect();
        let dev = FaultDevice::new(plan);
        let chain = Chain::new(vec![dev.clone()], sink);
        for _ in 0..10 {
            chain.send(Packet::new(Pe(0), Pe(4), Bytes::from_static(b"x")));
        }
        assert!(out.lock().is_empty());
        assert_eq!(dev.stats().dropped, 10);
    }

    #[test]
    fn control_frames_pass_unharmed() {
        let plan = FaultPlan::loss(1.0);
        let (out, sink) = collect();
        let dev = FaultDevice::for_reliable(plan);
        let chain = Chain::new(vec![dev.clone()], sink);
        let ack = crate::reliable::encode_ack(7);
        chain.send(Packet::new(Pe(0), Pe(4), ack));
        assert_eq!(out.lock().len(), 1, "ack survives a 100%-loss plan");
        assert_eq!(dev.stats().dropped, 0, "and consumes no draw");
    }
}
