//! Bounded single-producer/single-consumer packet rings — the wait-free
//! lanes under [`crate::mailbox::Mailbox`].
//!
//! A ring never resizes.  A lane grows by *replacement*: the mailbox starts
//! every lane on a 16-slot ring and, when the producer finds it full, swaps
//! in an empty one of twice the [`SpscRing::capacity`] under the merge lock
//! (see the mailbox module docs for why that instant has no other reader).
//!
//! Each ring is owned by exactly one producer thread (lane assignment is
//! done by the mailbox via a thread-local cache) and drained by whichever
//! thread currently plays consumer *while holding the mailbox merge lock*,
//! which serializes consumers; the lock's acquire/release pairs carry the
//! `head` index between successive consumer threads.  Producer and
//! consumer indices live on separate cache lines so a busy producer never
//! invalidates the consumer's line with its tail bumps (and vice versa).
//!
//! The ring stores `Packet` by value in pre-allocated slots: a publish is
//! one slot write plus one release store, a consume is one slot read plus
//! one release store — no allocation, no locks, no CAS on either end.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::packet::Packet;

/// A 64-byte-aligned atomic counter, so `head` and `tail` never share a
/// cache line with each other or with the slot array.
#[repr(align(64))]
struct CachePadded(AtomicUsize);

/// A bounded SPSC ring of packets.  Capacity is rounded up to a power of
/// two so indices reduce with a mask; `head`/`tail` are free-running
/// (wrapping) counters, so `tail - head` is always the occupancy.
pub(crate) struct SpscRing {
    tail: CachePadded,
    head: CachePadded,
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<Packet>>]>,
}

// The producer side is pinned to one thread by the mailbox's lane table
// and the consumer side is serialized by the mailbox merge lock, so the
// aliasing rules for `slots` hold; `Packet` itself is `Send`.
unsafe impl Send for SpscRing {}
unsafe impl Sync for SpscRing {}

impl SpscRing {
    pub(crate) fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two();
        let slots = (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
        SpscRing {
            tail: CachePadded(AtomicUsize::new(0)),
            head: CachePadded(AtomicUsize::new(0)),
            mask: cap - 1,
            slots,
        }
    }

    /// Slots in the ring (the requested capacity rounded up to a power of
    /// two).
    pub(crate) fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Packets published and not yet consumed.  Exact only for a caller
    /// that is, at that instant, both the producer and the consumer.
    pub(crate) fn len(&self) -> usize {
        self.tail.0.load(Ordering::Acquire).wrapping_sub(self.head.0.load(Ordering::Acquire))
    }

    /// Publish one packet (producer side).  Wait-free: either the slot
    /// write + tail release store succeed, or the ring is full and the
    /// packet comes straight back for the caller's overflow path.
    pub(crate) fn produce(&self, pkt: Packet) -> Result<(), Packet> {
        // Only the owning producer writes `tail`, so a relaxed load reads
        // our own last store.
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > self.mask {
            return Err(pkt);
        }
        unsafe { (*self.slots[tail & self.mask].get()).write(pkt) };
        self.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Begin a batch publish: slot writes accumulate and become visible
    /// with one tail store at [`BatchWriter::commit`] — a whole `post_many`
    /// is a single ring reservation.
    pub(crate) fn batch(&self) -> BatchWriter<'_> {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        BatchWriter { ring: self, tail, head }
    }

    /// Drain every published packet into `f` (consumer side — caller must
    /// hold the mailbox merge lock).  Returns the number consumed.  The
    /// head store is deferred to the end, so a drain of N packets costs one
    /// release store, not N.
    pub(crate) fn consume_each(&self, mut f: impl FnMut(Packet)) -> u64 {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        let mut h = head;
        while h != tail {
            let pkt = unsafe { (*self.slots[h & self.mask].get()).assume_init_read() };
            h = h.wrapping_add(1);
            f(pkt);
        }
        if h != head {
            self.head.0.store(h, Ordering::Release);
        }
        h.wrapping_sub(head) as u64
    }
}

impl Drop for SpscRing {
    fn drop(&mut self) {
        // Release any packets still in flight at teardown.
        self.consume_each(drop);
    }
}

/// In-progress batch publish over one ring; see [`SpscRing::batch`].
pub(crate) struct BatchWriter<'a> {
    ring: &'a SpscRing,
    tail: usize,
    head: usize,
}

impl BatchWriter<'_> {
    /// Stage one packet.  On a full ring the packet comes back and the
    /// caller should `commit` what was staged, then overflow the rest.
    pub(crate) fn push(&mut self, pkt: Packet) -> Result<(), Packet> {
        if self.tail.wrapping_sub(self.head) > self.ring.mask {
            // The consumer may have drained since we sampled; resample once.
            self.head = self.ring.head.0.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.head) > self.ring.mask {
                return Err(pkt);
            }
        }
        unsafe { (*self.ring.slots[self.tail & self.ring.mask].get()).write(pkt) };
        self.tail = self.tail.wrapping_add(1);
        Ok(())
    }

    /// Packets staged so far.
    pub(crate) fn staged(&self) -> u64 {
        self.tail.wrapping_sub(self.ring.tail.0.load(Ordering::Relaxed)) as u64
    }

    /// Publish every staged packet with one release store.
    pub(crate) fn commit(self) {
        self.ring.tail.0.store(self.tail, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mdo_netsim::Pe;

    fn pkt(tag: u8) -> Packet {
        Packet::new(Pe(0), Pe(0), Bytes::copy_from_slice(&[tag]))
    }

    #[test]
    fn fifo_and_capacity() {
        let r = SpscRing::with_capacity(4);
        for i in 0..4 {
            r.produce(pkt(i)).unwrap();
        }
        assert!(r.produce(pkt(9)).is_err(), "full ring refuses");
        let mut got = Vec::new();
        assert_eq!(r.consume_each(|p| got.push(p.payload[0])), 4);
        assert_eq!(got, vec![0, 1, 2, 3]);
        // Space reclaimed: the wrap-around works.
        for i in 4..8 {
            r.produce(pkt(i)).unwrap();
        }
        got.clear();
        r.consume_each(|p| got.push(p.payload[0]));
        assert_eq!(got, vec![4, 5, 6, 7]);
    }

    #[test]
    fn batch_publishes_atomically() {
        let r = SpscRing::with_capacity(8);
        let mut w = r.batch();
        w.push(pkt(1)).unwrap();
        w.push(pkt(2)).unwrap();
        assert_eq!(w.staged(), 2);
        // Nothing visible before commit.
        assert_eq!(r.tail.0.load(Ordering::Relaxed), 0);
        w.commit();
        let mut got = Vec::new();
        r.consume_each(|p| got.push(p.payload[0]));
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn cross_thread_spsc() {
        let r = std::sync::Arc::new(SpscRing::with_capacity(64));
        let r2 = std::sync::Arc::clone(&r);
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u32 {
                let mut p = pkt(0);
                p.priority = i as i32;
                while r2.produce(p.clone()).is_err() {
                    std::thread::yield_now();
                }
            }
        });
        let mut next = 0u32;
        while next < 10_000 {
            r.consume_each(|p| {
                assert_eq!(p.priority, next as i32, "in order, no loss, no dup");
                next += 1;
            });
        }
        producer.join().unwrap();
    }
}
