//! Unreliable-WAN fault injection device.
//!
//! A thin wrapper that puts real packets through the one fault wire,
//! [`FaultWire`]: one draw per data attempt from the plan's per-PE-pair
//! stream, so a plan harms the same attempts here as in the simulator,
//! however traffic from other pairs interleaves.  The device only carries
//! out the wire's verdict — forwards nothing for a drop or a corruption
//! (a corrupted attempt is one no receiver would accept, so both engines
//! book it as a drop of its own kind), a second copy for a duplicate, and
//! the released stash behind the attempt that freed it.  The reliable
//! layer recovers every attempt that forwards nothing by retransmission.
//!
//! Control frames of the reliable layer (acks) pass unharmed and draw
//! nothing, as in the simulator, where acks never meet the wire.

use std::sync::Arc;
use std::time::Instant;

use mdo_netsim::{Dur, Fate, FaultPlan, FaultWire, Harm, WireStats};
use parking_lot::Mutex;

use crate::device::{Device, Forwarder};
use crate::packet::Packet;
use crate::reliable;

/// The fault injection device.
pub struct FaultDevice {
    wire: Mutex<FaultWire<Packet>>,
    /// When the wire came up: the plan's link-down windows count from here.
    t0: Instant,
}

impl FaultDevice {
    /// A device for use under the reliable delivery layer: data frames
    /// meet the wire, ack frames pass unharmed without consuming a draw.
    pub fn for_reliable(plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultDevice { wire: Mutex::new(FaultWire::new(plan)), t0: Instant::now() })
    }

    /// What the wire has done so far.
    pub fn stats(&self) -> WireStats {
        self.wire.lock().stats()
    }
}

impl Device for FaultDevice {
    fn handle(&self, pkt: Packet, next: Arc<dyn Forwarder>) {
        if reliable::is_control_frame(&pkt.payload) {
            next.deliver(pkt);
            return;
        }
        let (src, dst) = (pkt.src, pkt.dst);
        let fate = self.wire.lock().transmit(src, dst, Dur::from_std(self.t0.elapsed()), pkt);
        let Fate::Through { item, harm, released } = fate else { return };
        let copies = match harm {
            Harm::None => 1,
            Harm::Duplicated => 2,
            Harm::Corrupted => 0,
        };
        for pkt in std::iter::repeat_n(item, copies).chain(released) {
            next.deliver(pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Chain, FnForwarder};
    use mdo_netsim::Pe;

    /// Sends `n` one-byte data frames `0 -> 4` through a device running
    /// `plan`; returns what came out and the device's counters.
    fn run(plan: FaultPlan, n: u8) -> (Vec<Vec<u8>>, WireStats) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        let sink: Arc<dyn Forwarder> = Arc::new(FnForwarder(move |p: Packet| out2.lock().push(p.payload.to_vec())));
        let dev = FaultDevice::for_reliable(plan);
        let chain = Chain::new(vec![dev.clone()], sink);
        for i in 0..n {
            chain.send(Packet::new(Pe(0), Pe(4), reliable::encode_data(u64::from(i), &[i])));
        }
        let got = out.lock().clone();
        (got, dev.stats())
    }

    #[test]
    fn a_quiet_plan_is_transparent() {
        let (got, stats) = run(FaultPlan::default(), 32);
        assert_eq!(got, (0..32u8).map(|i| reliable::encode_data(u64::from(i), &[i]).to_vec()).collect::<Vec<_>>());
        assert_eq!(stats, WireStats::default());
    }

    #[test]
    fn the_device_carries_out_the_wires_verdicts() {
        let plan = FaultPlan::loss(0.2).with_duplicate(0.2).with_corrupt(0.2).with_reorder(0.2).with_seed(5);
        let (got, stats) = run(plan.clone(), 200);
        assert_eq!(run(plan, 200), (got.clone(), stats), "the same plan harms the same frames");
        assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.corrupted > 0 && stats.reordered > 0);
        // Every frame neither dropped nor corrupted comes out (a stash may
        // still hold one), duplicates twice, and every one intact.
        let held = 200 - stats.dropped - stats.corrupted + stats.duplicated - got.len() as u64;
        assert!(held <= 1, "only the stash may hold a frame back, {held} held");
        let intact = |p: &Vec<u8>| {
            reliable::decode_frame(p).is_some_and(|(_, seq, body)| body.len() == 1 && seq == u64::from(body[0]))
        };
        assert!(got.iter().all(intact), "no corrupted frame comes out");
    }

    #[test]
    fn a_corrupted_attempt_is_dropped_and_counted() {
        let (got, stats) = run(FaultPlan::default().with_corrupt(1.0), 32);
        assert!(got.is_empty(), "nothing a receiver would reject leaves the device");
        assert_eq!(stats, WireStats { corrupted: 32, ..WireStats::default() });
    }

    #[test]
    fn control_frames_pass_unharmed() {
        let out = Arc::new(Mutex::new(0));
        let out2 = Arc::clone(&out);
        let sink: Arc<dyn Forwarder> = Arc::new(FnForwarder(move |_: Packet| *out2.lock() += 1));
        let dev = FaultDevice::for_reliable(FaultPlan::loss(1.0));
        let chain = Chain::new(vec![dev.clone()], sink);
        chain.send(Packet::new(Pe(0), Pe(4), reliable::encode_ack(7, 0, None)));
        assert_eq!(*out.lock(), 1, "ack survives a 100%-loss plan");
        assert_eq!(dev.stats().dropped, 0, "and consumes no draw");
    }
}
