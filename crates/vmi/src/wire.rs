//! The Wire seam: pluggable inter-node backends under the device stack.
//!
//! The threaded engine's [`Transport`](crate::transport::Transport) ends
//! every device chain in a terminal [`Forwarder`].  In a single process
//! that terminal is a [`MailboxSink`](crate::mailbox::MailboxSink): every
//! destination PE has a landing mailbox right here.  In a *multi-process*
//! run only some PEs are local; packets for the rest must leave the
//! process.  A [`Wire`] is that exit: an inter-node byte mover (e.g. the
//! TCP backend in `mdo-net`) that ships a packet to the node hosting
//! `pkt.dst`, where the peer posts it into the real landing mailbox.
//!
//! The seam sits *below* the reliable transport and the aggregator — both
//! talk to `Transport::send`/`recv_timeout` only, so sequence numbers,
//! acks, retransmission, credit grants and jumbo frames ride the wire
//! unchanged.  Sender-side devices (delay, CRC, fault injection) run
//! before the wire too: an artificial-latency delay device composes with
//! a real network exactly as §5.1's delay device composes with Myrinet —
//! its [`Packet::due`] stamp crosses the wire as a `due` on the receiving
//! node's clock.
//!
//! ## Corking
//!
//! A wire may batch: [`Wire::send_corked`] only queues a packet and
//! [`Wire::flush`] writes what is queued, so a burst of sends costs one
//! write and the peer one wake-up, with and without injected latency.  The
//! policy — who may cork and when the cork is written — lives here, in
//! [`WireRouter`], and is by opportunity, never by a deadline of its own:
//! a packet is corked only when the sending thread is the one that polls
//! `Transport::recv*` for the packet's source PE, because that is the only
//! sender certain to come back; the transport flushes for it before it
//! blocks in `recv*` (a non-blocking `try_recv` that finds nothing does
//! not: its caller has other work, a PE's own queue for one) and, on its
//! way back into any `recv*`, once the cork is [`CORK_MAX_AGE`] old.  Every
//! other sender (a retransmit timer, an aggregation flusher, a plain test
//! thread) writes through.  A polling thread that stops polling — for a compute sleep, a
//! credit stall, for good — calls
//! [`Transport::flush_wire`](crate::transport::Transport::flush_wire)
//! first; the wire's own bound on how long it holds a cork is only the
//! net under one that forgets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdo_netsim::Pe;

use crate::device::Forwarder;
use crate::mailbox::Mailbox;
use crate::packet::Packet;

/// An inter-node packet mover: the pluggable backend behind the device
/// chains of a multi-process [`Transport`](crate::transport::Transport).
///
/// Implementations must be thread-safe: every PE thread of the process
/// (plus the reliable layer's retransmit timer and the aggregator's
/// flusher) may call [`Wire::send`] concurrently.  Delivery order per
/// `(src, dst)` pair **must** be preserved: the default stack runs the
/// reliable layer as a passthrough, and the aggregator's frames assume the
/// order they were sent in.  Reordering is tolerated only beneath an armed
/// reliable layer (flow control or a fault plan), which re-sequences — that
/// is how the fault device gets away with it.  An implementation should
/// also be lossless while up; losses surface through the reliable layer's
/// retransmission and, eventually, its structured delivery error.
pub trait Wire: Send + Sync {
    /// Ship a packet whose destination PE lives on another node.  The
    /// packet (and anything corked ahead of it on its stream) is handed to
    /// the network before this returns.
    fn send(&self, pkt: Packet);

    /// Queue a packet for the next [`Wire::flush`].  The caller promises a
    /// flush; an implementation may write earlier (it bounds what it holds
    /// and for how long it trusts the promise) and one that does not batch
    /// simply sends.
    fn send_corked(&self, pkt: Packet) {
        self.send(pkt);
    }

    /// Hand everything corked to the network.  Cheap when nothing is.
    fn flush(&self) {}

    /// Stop background threads and close connections.  Idempotent.
    fn shutdown(&self) {}
}

/// A [`Wire`] bound to the set of PEs that are local to this process.
///
/// [`Transport::new`](crate::transport::Transport::new) uses the binding
/// to build its terminal router: local destinations land in their
/// mailbox, remote destinations leave through the wire.
#[derive(Clone)]
pub struct WireBinding {
    /// The inter-node backend.
    pub wire: Arc<dyn Wire>,
    /// `local[pe.index()]` is true iff this process hosts `pe`.
    pub local: Vec<bool>,
}

impl WireBinding {
    /// Bind `wire` to a process hosting exactly `local_pes` of a job with
    /// `num_pes` PEs total.
    pub fn new(wire: Arc<dyn Wire>, local_pes: &[Pe], num_pes: usize) -> Self {
        let mut local = vec![false; num_pes];
        for pe in local_pes {
            local[pe.index()] = true;
        }
        WireBinding { wire, local }
    }

    /// True iff this process hosts `pe`.
    pub fn is_local(&self, pe: Pe) -> bool {
        self.local.get(pe.index()).copied().unwrap_or(false)
    }
}

/// How old a cork may be when its sender re-enters `recv*` before it is
/// written there rather than when the sender next runs dry.  Measured from
/// the start of the handler that opened the cork, so a coarse-grain handler
/// (1 ms of work is coarse) never returns to its queue still sitting on
/// what it sent, and a busy fine-grain PE that rarely sends remotely cannot
/// hold a packet for as long as its queue stays non-empty.  Well under any
/// latency worth injecting, well over the few microseconds a fine-grain
/// handler takes, so a burst of those still leaves as one write.
pub const CORK_MAX_AGE: Duration = Duration::from_millis(1);

/// `PeCork::opened_ns` when nothing is corked.
const NOT_CORKED: u64 = u64::MAX;

/// Cork bookkeeping for one local PE, touched by the thread that polls it.
struct PeCork {
    /// Token of the thread that last entered `recv*` for this PE (0 = none).
    poller: AtomicU64,
    /// When that thread last left `recv*` with a packet — the start of the
    /// handler now running — in nanoseconds since the router's epoch.
    handler_start_ns: AtomicU64,
    /// `handler_start_ns` of the handler that opened the current cork.
    opened_ns: AtomicU64,
}

/// A process-unique, never-zero token for the calling thread (0 if its
/// thread-locals are already gone, which never matches a poller).
fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TOKEN.try_with(|t| *t).unwrap_or(0)
}

/// Terminal forwarder of a multi-process transport: routes each packet to
/// its local landing mailbox or out through the [`Wire`], and owns the cork
/// policy (see the module docs).
pub struct WireRouter {
    boxes: Vec<Arc<Mailbox>>,
    binding: WireBinding,
    epoch: Instant,
    corks: Vec<PeCork>,
}

impl WireRouter {
    /// Router over this process's mailbox bank and its wire binding.
    pub fn new(boxes: Vec<Arc<Mailbox>>, binding: WireBinding) -> Self {
        let corks = (0..boxes.len())
            .map(|_| PeCork {
                poller: AtomicU64::new(0),
                handler_start_ns: AtomicU64::new(0),
                opened_ns: AtomicU64::new(NOT_CORKED),
            })
            .collect();
        WireRouter { boxes, binding, epoch: Instant::now(), corks }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(NOT_CORKED - 1)
    }

    /// The calling thread enters `recv*` for `pe`: it is `pe`'s poller from
    /// here on, and a cork it left open too long ago is written now.
    pub(crate) fn enter_recv(&self, pe: Pe) {
        let c = &self.corks[pe.index()];
        c.poller.store(thread_token(), Ordering::Relaxed);
        let opened = c.opened_ns.load(Ordering::Relaxed);
        if opened != NOT_CORKED && self.now_ns().saturating_sub(opened) >= CORK_MAX_AGE.as_nanos() as u64 {
            self.flush(pe);
        }
    }

    /// The calling thread leaves `recv*` for `pe` with a packet in hand:
    /// a handler starts.
    pub(crate) fn handler_started(&self, pe: Pe) {
        self.corks[pe.index()].handler_start_ns.store(self.now_ns(), Ordering::Relaxed);
    }

    /// Write whatever is corked — `pe`'s cork and, the wire being one, any
    /// other's; nothing corked costs a few atomic loads.  `pe`'s mark is
    /// cleared before the write and set after the append (`deliver`), so a
    /// packet corked concurrently is either written here or still marked.
    pub(crate) fn flush(&self, pe: Pe) {
        self.corks[pe.index()].opened_ns.swap(NOT_CORKED, Ordering::AcqRel);
        self.binding.wire.flush();
    }
}

impl Forwarder for WireRouter {
    fn deliver(&self, pkt: Packet) {
        if self.binding.is_local(pkt.dst) {
            self.boxes[pkt.dst.index()].post(pkt);
            return;
        }
        let me = thread_token();
        match self.corks.get(pkt.src.index()) {
            Some(c) if me != 0 && c.poller.load(Ordering::Relaxed) == me => {
                self.binding.wire.send_corked(pkt);
                c.opened_ns.fetch_min(c.handler_start_ns.load(Ordering::Relaxed), Ordering::Release);
            }
            _ => self.binding.wire.send(pkt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use parking_lot::Mutex;

    struct CollectWire(Mutex<Vec<Packet>>);
    impl Wire for CollectWire {
        fn send(&self, pkt: Packet) {
            self.0.lock().push(pkt);
        }
    }

    #[test]
    fn router_splits_local_and_remote() {
        let boxes: Vec<_> = (0..4).map(|_| Arc::new(Mailbox::new())).collect();
        let wire = Arc::new(CollectWire(Mutex::new(Vec::new())));
        let binding = WireBinding::new(wire.clone(), &[Pe(0), Pe(1)], 4);
        let router = WireRouter::new(boxes.clone(), binding);
        router.deliver(Packet::new(Pe(0), Pe(1), Bytes::from_static(b"local")));
        router.deliver(Packet::new(Pe(1), Pe(3), Bytes::from_static(b"remote")));
        assert_eq!(boxes[1].len(), 1);
        assert!(boxes[3].is_empty(), "remote destination never lands locally");
        let out = wire.0.lock();
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0].payload[..], b"remote");
    }

    #[test]
    fn binding_locality() {
        let wire = Arc::new(CollectWire(Mutex::new(Vec::new())));
        let b = WireBinding::new(wire, &[Pe(2)], 3);
        assert!(!b.is_local(Pe(0)));
        assert!(b.is_local(Pe(2)));
        assert!(!b.is_local(Pe(7)), "out-of-range PEs are never local");
    }
}
