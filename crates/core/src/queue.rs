//! The per-PE scheduler queue.
//!
//! Paper §4: *"As messages arrive at a physical processor, they are
//! enqueued in a message queue in either FIFO or priority order.  When a
//! physical processor becomes idle, its message scheduler dequeues the next
//! waiting message and delivers it."*
//!
//! [`SchedQueue`] implements exactly that: a stable priority queue (smaller
//! priority value = more urgent; FIFO among equal priorities).  With all
//! priorities equal it degenerates to a FIFO, which is the default mode —
//! the Grid-priority extension (§6) is what introduces distinct priorities.
//!
//! For the schedule-exploration harness (`mdo-check`) the queue also
//! exposes the *delivery-order nondeterminism* the priority contract
//! leaves open: [`SchedQueue::eligible`] counts the envelopes tied at the
//! front (most urgent) priority class, and [`SchedQueue::pop_nth`]
//! dequeues any one of them.  `pop()` is exactly `pop_nth(0)` — FIFO
//! within the class — so the default engine behavior is one point in the
//! space a [`crate::engine::policy::DeliveryPolicy`] explores.

use std::collections::{BTreeMap, VecDeque};

use crate::envelope::Envelope;

/// A stable priority queue of envelopes.
///
/// Internally a map from priority class to the FIFO of envelopes waiting
/// in that class (insertion order preserved via arrival sequence numbers,
/// though the `VecDeque` order alone carries it).
#[derive(Default)]
pub struct SchedQueue {
    classes: BTreeMap<i32, VecDeque<(u64, Envelope)>>,
    len: usize,
    next_seq: u64,
    max_depth: usize,
    bytes: u64,
    max_bytes: u64,
}

impl SchedQueue {
    /// An empty queue.
    pub fn new() -> Self {
        SchedQueue::default()
    }

    /// Enqueue an envelope under its own priority.
    pub fn push(&mut self, env: Envelope) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.bytes += env.wire_size();
        self.max_bytes = self.max_bytes.max(self.bytes);
        self.classes.entry(env.priority).or_default().push_back((seq, env));
        self.len += 1;
        self.max_depth = self.max_depth.max(self.len);
    }

    /// Dequeue the most urgent envelope (FIFO among equal priorities).
    pub fn pop(&mut self) -> Option<Envelope> {
        self.pop_nth(0)
    }

    /// The priority of the front (most urgent) class; `None` iff empty.
    pub fn front_priority(&self) -> Option<i32> {
        self.classes.keys().next().copied()
    }

    /// How many envelopes are tied at the front priority class — the
    /// choices a delivery policy may legally pick among without violating
    /// priority order.  Zero iff the queue is empty.
    pub fn eligible(&self) -> usize {
        self.classes.values().next().map_or(0, VecDeque::len)
    }

    /// Dequeue the `n`-th envelope of the front priority class.  `n` must
    /// be below [`SchedQueue::eligible`]; `pop_nth(0)` is the classic
    /// FIFO-within-priority dequeue.
    ///
    /// A contested dequeue (`n > 0`) is O(1): the victim is swap-removed,
    /// back-filling its slot with the *last* envelope of the class.  That
    /// permutes the residual order of the class — legal, because any
    /// policy reaching for `n > 0` has already opted out of FIFO within
    /// the class, and the priority contract (front class before any
    /// other) is untouched.  `pop_nth(0)` remains a plain `pop_front`,
    /// so engines that only ever call [`SchedQueue::pop`] observe exact
    /// FIFO, unchanged.
    pub fn pop_nth(&mut self, n: usize) -> Option<Envelope> {
        let (&prio, class) = self.classes.iter_mut().next()?;
        let (_, env) = if n == 0 { class.pop_front() } else { class.swap_remove_back(n) }?;
        if class.is_empty() {
            self.classes.remove(&prio);
        }
        self.len -= 1;
        self.bytes -= env.wire_size();
        Some(env)
    }

    /// Messages waiting.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of queue depth (for the harness's overhead reports).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// High-water mark of queued envelope bytes (wire sizes) — the
    /// virtual-time analogue of the VMI mailbox byte watermark.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::MsgBody;
    use mdo_netsim::Pe;

    fn env(priority: i32, tag: u32) -> Envelope {
        Envelope {
            src: Pe(0),
            dst: Pe(0),
            priority,
            sent_at_ns: tag as u64, // smuggle a tag for assertions
            body: MsgBody::Exit,
        }
    }

    #[test]
    fn fifo_within_priority() {
        let mut q = SchedQueue::new();
        for i in 0..50 {
            q.push(env(0, i));
        }
        for i in 0..50 {
            assert_eq!(q.pop().unwrap().sent_at_ns, i as u64);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn lower_priority_value_first() {
        let mut q = SchedQueue::new();
        q.push(env(5, 1));
        q.push(env(-1, 2));
        q.push(env(0, 3));
        assert_eq!(q.pop().unwrap().sent_at_ns, 2);
        assert_eq!(q.pop().unwrap().sent_at_ns, 3);
        assert_eq!(q.pop().unwrap().sent_at_ns, 1);
    }

    #[test]
    fn mixed_priorities_stable() {
        let mut q = SchedQueue::new();
        q.push(env(1, 10));
        q.push(env(0, 20));
        q.push(env(1, 11));
        q.push(env(0, 21));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.sent_at_ns).collect();
        assert_eq!(order, vec![20, 21, 10, 11]);
    }

    #[test]
    fn depth_tracking() {
        let mut q = SchedQueue::new();
        assert!(q.is_empty());
        q.push(env(0, 1));
        q.push(env(0, 2));
        q.pop();
        q.push(env(0, 3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.max_depth(), 2);
    }

    #[test]
    fn eligible_counts_front_class_only() {
        let mut q = SchedQueue::new();
        assert_eq!((q.eligible(), q.front_priority()), (0, None));
        q.push(env(0, 1));
        q.push(env(0, 2));
        q.push(env(5, 3));
        assert_eq!(q.eligible(), 2, "only the priority-0 pair is dispatchable");
        assert_eq!(q.front_priority(), Some(0));
        q.pop();
        q.pop();
        assert_eq!(q.eligible(), 1, "the priority-5 straggler became the front class");
        assert_eq!(q.front_priority(), Some(5));
    }

    #[test]
    fn pop_nth_respects_priority_and_class_order() {
        let mut q = SchedQueue::new();
        q.push(env(0, 10));
        q.push(env(0, 11));
        q.push(env(0, 12));
        q.push(env(7, 99));
        // Pick the middle of the front class; the rest keep FIFO order.
        assert_eq!(q.pop_nth(1).unwrap().sent_at_ns, 11);
        assert_eq!(q.pop_nth(0).unwrap().sent_at_ns, 10);
        assert_eq!(q.pop_nth(0).unwrap().sent_at_ns, 12);
        // The lower-urgency class is only reachable once the front drained.
        assert_eq!(q.pop_nth(0).unwrap().sent_at_ns, 99);
        assert!(q.pop_nth(0).is_none());
    }

    #[test]
    fn byte_watermark_tracks_wire_sizes() {
        let mut q = SchedQueue::new();
        let sz = env(0, 1).wire_size();
        q.push(env(0, 1));
        q.push(env(0, 2));
        q.pop();
        q.push(env(0, 3));
        assert_eq!(q.max_bytes(), 2 * sz, "watermark saw two queued envelopes at once");
        q.pop();
        q.pop();
        assert_eq!(q.max_bytes(), 2 * sz, "draining does not lower the high-water mark");
    }

    #[test]
    fn pop_nth_contested_swap_removes() {
        // Documents the O(1) contested-dequeue permutation: taking the
        // middle of [0,1,2,3,4] back-fills the hole with the class tail.
        let mut q = SchedQueue::new();
        for i in 0..5 {
            q.push(env(0, i));
        }
        assert_eq!(q.pop_nth(2).unwrap().sent_at_ns, 2);
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.sent_at_ns).collect();
        assert_eq!(rest, vec![0, 1, 4, 3], "tail envelope 4 back-filled slot 2");
    }

    #[test]
    fn pop_nth_out_of_range_is_none_and_lossless() {
        let mut q = SchedQueue::new();
        q.push(env(0, 1));
        assert!(q.pop_nth(3).is_none(), "index past the front class");
        assert_eq!(q.len(), 1, "failed pop removed nothing");
        assert_eq!(q.pop().unwrap().sent_at_ns, 1);
    }
}
