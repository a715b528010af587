//! Per-PE blocking priority mailboxes — the terminal "network driver".
//!
//! Each PE thread of the threaded engine blocks on its mailbox when idle;
//! any thread (peer PEs, a wire backend's reader threads) may post.  Order
//! is by `(priority, arrival sequence)` so equal-priority traffic is FIFO,
//! matching the Charm++ scheduler queue semantics that the message-driven
//! model depends on.
//!
//! ## The hold lane
//!
//! A packet stamped with a future [`Packet::due`] (the delay device's
//! injected latency) is *in flight*, not queued: it waits in a due-ordered
//! lane under the merge lock, invisible to every take path and outside the
//! high-water marks (only [`Mailbox::len`] counts it).  Each
//! take path first promotes the packets that have fallen due into the
//! ordering structure, in `(due, post order)` — arrival sequence numbers
//! are assigned at promotion, so a promoted packet queues exactly as if it
//! had been posted at its `due` — and a blocking take sleeps no longer than
//! the earliest `due`.  [`Mailbox::close`] releases every hold.
//!
//! ## The lock-free fast path
//!
//! Every post goes through a per-sender bounded SPSC ring
//! (`crate::ring`): the posting thread claims a private lane
//! the first time it posts (a thread-local cache remembers the claim), and
//! from then on a post is one slot write, one release store, and one
//! sequentially-consistent counter bump — wait-free, no lock, no
//! allocation.  [`Mailbox::post_many`] stages a whole batch in its lane and
//! publishes it with a single tail store.  The consumer merges all lanes
//! into the ordering structure (FIFO lane + priority heap) under the merge
//! mutex *only when it looks for a packet*, assigning arrival sequence
//! numbers at merge time — a valid linearization of the concurrent posts
//! that preserves exact priority-then-FIFO order and per-sender FIFO.
//! Overflow (a full ring, more than [`MAX_LANES`] posting threads, posts
//! from a thread whose TLS is tearing down) falls back to inserting under
//! the merge mutex, so nothing ever spins or blocks on ring space.
//!
//! Wakeups are batched with a Dekker-style sleeping flag: a burst of N
//! posts finds the consumer awake after the first signal and performs N-1
//! flag loads instead of N condvar notifies ([`Mailbox::wakeup_signals`]
//! counts the signals actually sent).  At most one thread may *block* in
//! [`Mailbox::take`]/[`Mailbox::take_timeout`] at a time (the engine's
//! one-consumer-per-mailbox invariant); non-blocking takers
//! ([`Mailbox::try_take`], [`Mailbox::take_many`]) may run concurrently.
//!
//! A mailbox has no budget of its own and never refuses a post: memory
//! is bounded upstream, by the per-pair credit window and the headroom a
//! receiver advertises on its acks ([`crate::reliable`]).  Packets at
//! [`SHED_EXEMPT_PRIORITY`] (runtime-internal control traffic: acks,
//! heartbeats, quiescence and checkpoint control) are the ones that window
//! never holds back and the `Shed` policy never drops.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering as AtOrd};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::device::Forwarder;
use crate::packet::Packet;
use crate::ring::SpscRing;

/// Maximum distinct posting threads that get a private wait-free lane per
/// mailbox; later threads fall back to the (still correct) locked path.
pub const MAX_LANES: usize = 32;

/// Slots per lane ring.  A full lane overflows to the locked path instead
/// of blocking, so this only bounds fast-path memory, not correctness.
const LANE_CAP: usize = 1024;

/// Thread-local lane marker: this thread posts to this mailbox via the
/// locked path (lanes exhausted or TLS unavailable).  Sticky per
/// `(thread, mailbox)` so one sender's packets never interleave two lanes.
const SLOW_LANE: u32 = u32::MAX;

static NEXT_MAILBOX_ID: AtomicU64 = AtomicU64::new(1);

struct LaneCache {
    last_id: u64,
    last_lane: u32,
    entries: Vec<(u64, u32)>,
}

thread_local! {
    static LANE_CACHE: RefCell<LaneCache> =
        const { RefCell::new(LaneCache { last_id: 0, last_lane: SLOW_LANE, entries: Vec::new() }) };
}

/// The wait-free side of a mailbox.
struct FastLanes {
    /// Process-unique mailbox identity for the thread-local lane cache.
    id: u64,
    /// Mirror of `Inner::closed` readable without the lock.
    closed: AtomicBool,
    /// Lazily-allocated per-sender rings; slots `0..published` are live.
    lanes: [AtomicPtr<SpscRing>; MAX_LANES],
    next_lane: AtomicUsize,
    published: AtomicUsize,
    /// Packets ever published to any lane (compare with `Inner::drained`).
    posted: AtomicU64,
    /// Payload bytes ever published to any lane.
    bytes_posted: AtomicU64,
    /// True while the consumer is (about to be) blocked in `cond.wait`.
    sleeping: AtomicBool,
    /// Condvar notifies actually sent by fast-path posters.
    signals: AtomicU64,
}

/// Packets at this priority (the runtime's system priority) neither
/// consume nor wait for credit and are never shed.
pub const SHED_EXEMPT_PRIORITY: i32 = i32::MIN;

struct Entry {
    priority: i32,
    seq: u64,
    pkt: Packet,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: invert so smallest (priority, seq) pops first.
        other.priority.cmp(&self.priority).then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Inner {
    heap: BinaryHeap<Entry>,
    /// Fast FIFO lane for the common all-equal-priority case: as long as
    /// every queued packet shares one priority, posting and taking are
    /// deque operations with zero heap-comparison churn.  The first
    /// mixed-priority post migrates the lane into the heap (sequence
    /// numbers come along, so global `(priority, seq)` order is preserved).
    /// Invariant: the heap and the lane are never both non-empty.
    fifo: VecDeque<(u64, Packet)>,
    fifo_priority: Option<i32>,
    next_seq: u64,
    /// The hold lane: posted, not yet due, keyed by `(due, post order)`
    /// (see the module docs).
    held: BTreeMap<(Instant, u64), Packet>,
    next_held_seq: u64,
    closed: bool,
    posted: u64,
    /// Packets merged out of the fast lanes so far (compare with
    /// `FastLanes::posted` to see how many are still ring-resident).
    drained: u64,
    /// Payload bytes merged out of the fast lanes so far.
    drained_bytes: u64,
    max_depth: usize,
    /// Queued payload bytes (sum of `payload.len()` over queued packets).
    bytes: usize,
    max_bytes: usize,
}

impl Inner {
    /// Admit a posted packet: into the hold lane if its `due` is still
    /// ahead (and the mailbox open), into the ordering structure otherwise.
    fn insert(&mut self, pkt: Packet) {
        self.posted += 1;
        match pkt.due {
            Some(due) if !self.closed && due > Instant::now() => {
                self.held.insert((due, self.next_held_seq), pkt);
                self.next_held_seq += 1;
            }
            _ => self.enqueue(pkt),
        }
    }

    /// Move every held packet due by `now` (all of them if `now` is `None`)
    /// into the ordering structure, earliest `(due, post order)` first.
    fn promote(&mut self, now: Option<Instant>) {
        while self.next_due().is_some_and(|due| now.is_none_or(|now| due <= now)) {
            let (_, pkt) = self.held.pop_first().expect("a next due exists");
            self.enqueue(pkt);
        }
    }

    /// When the earliest hold is over, if anything is held.
    fn next_due(&self) -> Option<Instant> {
        self.held.first_key_value().map(|(&(due, _), _)| due)
    }

    fn enqueue(&mut self, pkt: Packet) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.bytes += pkt.payload.len();
        if self.heap.is_empty() && (self.fifo.is_empty() || self.fifo_priority == Some(pkt.priority)) {
            self.fifo_priority = Some(pkt.priority);
            self.fifo.push_back((seq, pkt));
        } else {
            if let Some(priority) = self.fifo_priority.take() {
                for (seq, pkt) in self.fifo.drain(..) {
                    self.heap.push(Entry { priority, seq, pkt });
                }
            }
            self.heap.push(Entry { priority: pkt.priority, seq, pkt });
        }
    }

    /// Record the high-water marks once per post (or per batch), after all
    /// inserts of the batch landed — not per-envelope, so a `post_many` of
    /// a whole unpacked jumbo frame costs one watermark update.
    fn note_watermarks(&mut self) {
        self.max_depth = self.max_depth.max(self.depth());
        self.max_bytes = self.max_bytes.max(self.bytes);
    }

    fn pop(&mut self) -> Option<Packet> {
        let pkt = if let Some((_, pkt)) = self.fifo.pop_front() { Some(pkt) } else { self.heap.pop().map(|e| e.pkt) };
        if let Some(p) = &pkt {
            self.bytes -= p.payload.len();
        }
        pkt
    }

    fn depth(&self) -> usize {
        self.heap.len() + self.fifo.len()
    }
}

/// A blocking priority queue of packets for one PE.
pub struct Mailbox {
    inner: Mutex<Inner>,
    cond: Condvar,
    /// Per-sender wait-free lanes.
    fast: FastLanes,
}

impl Default for Mailbox {
    fn default() -> Self {
        Self::new()
    }
}

impl Mailbox {
    /// An empty, open mailbox.
    pub fn new() -> Self {
        let fast = FastLanes {
            id: NEXT_MAILBOX_ID.fetch_add(1, AtOrd::Relaxed),
            closed: AtomicBool::new(false),
            lanes: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            next_lane: AtomicUsize::new(0),
            published: AtomicUsize::new(0),
            posted: AtomicU64::new(0),
            bytes_posted: AtomicU64::new(0),
            sleeping: AtomicBool::new(false),
            signals: AtomicU64::new(0),
        };
        Mailbox {
            inner: Mutex::new(Inner {
                heap: BinaryHeap::new(),
                fifo: VecDeque::new(),
                fifo_priority: None,
                next_seq: 0,
                held: BTreeMap::new(),
                next_held_seq: 0,
                closed: false,
                posted: 0,
                drained: 0,
                drained_bytes: 0,
                max_depth: 0,
                bytes: 0,
                max_bytes: 0,
            }),
            cond: Condvar::new(),
            fast,
        }
    }

    // ---- fast-lane machinery ---------------------------------------------

    /// This thread's lane ring for this mailbox, claiming one on first use.
    /// `None` means the locked path: lanes exhausted, or TLS unavailable
    /// (a destructor posting during thread teardown).
    fn lane(&self, f: &FastLanes) -> Option<&SpscRing> {
        let lane = LANE_CACHE
            .try_with(|c| {
                let mut c = c.borrow_mut();
                if c.last_id == f.id {
                    return c.last_lane;
                }
                let l = match c.entries.iter().find(|&&(id, _)| id == f.id) {
                    Some(&(_, l)) => l,
                    None => {
                        let l = Self::claim_lane(f);
                        c.entries.push((f.id, l));
                        l
                    }
                };
                c.last_id = f.id;
                c.last_lane = l;
                l
            })
            .ok()?;
        if lane == SLOW_LANE {
            return None;
        }
        let ptr = f.lanes[lane as usize].load(AtOrd::Acquire);
        debug_assert!(!ptr.is_null());
        Some(unsafe { &*ptr })
    }

    /// Allocate a fresh ring for the calling thread.  Rings are published
    /// in index order so a consumer scanning `0..published` never reads an
    /// unset slot.
    fn claim_lane(f: &FastLanes) -> u32 {
        let idx = f.next_lane.fetch_add(1, AtOrd::Relaxed);
        if idx >= MAX_LANES {
            return SLOW_LANE;
        }
        let ring = Box::into_raw(Box::new(SpscRing::with_capacity(LANE_CAP)));
        f.lanes[idx].store(ring, AtOrd::Release);
        while f.published.compare_exchange(idx, idx + 1, AtOrd::AcqRel, AtOrd::Relaxed).is_err() {
            std::hint::spin_loop();
        }
        idx as u32
    }

    /// Merge every published lane into the ordering structure.  Callers
    /// hold the merge lock, which serializes all consumers; any thread may
    /// play consumer (the owner taking, an accessor, an overflowing
    /// poster).  Sequence numbers are assigned here, which linearizes the
    /// concurrent posts: per-lane ring order — i.e. per-sender post order —
    /// is preserved, and priority order is restored by `Inner::insert`.
    /// Holds that have fallen due are promoted in the same pass, so every
    /// take path and every observer sees them.
    fn drain_locked(&self, inner: &mut Inner) {
        let f = &self.fast;
        if f.posted.load(AtOrd::SeqCst) != inner.drained {
            let n = f.published.load(AtOrd::Acquire);
            let (mut merged, mut merged_bytes) = (0u64, 0u64);
            for slot in &f.lanes[..n] {
                let ring = unsafe { &*slot.load(AtOrd::Acquire) };
                merged += ring.consume_each(|pkt| {
                    merged_bytes += pkt.payload.len() as u64;
                    inner.insert(pkt);
                });
            }
            inner.drained += merged;
            inner.drained_bytes += merged_bytes;
        }
        if !inner.held.is_empty() {
            inner.promote(Some(Instant::now()));
        }
        inner.note_watermarks();
    }

    /// Fast-path poster's wakeup: O(1) signals per burst.  Only the post
    /// that catches the consumer's `sleeping` flag pays for a notify; the
    /// rest of the burst sees the flag already cleared and does nothing.
    #[inline]
    fn wake_consumer(&self, f: &FastLanes) {
        if f.sleeping.swap(false, AtOrd::SeqCst) {
            // The sleeper set the flag while holding the merge lock and
            // releases the lock only inside `cond.wait`; bouncing the lock
            // here guarantees it is registered before our notify, so the
            // signal cannot be lost.
            drop(self.inner.lock());
            self.cond.notify_one();
            f.signals.fetch_add(1, AtOrd::Relaxed);
        }
    }

    /// Overflow path: merge the rings ourselves (freeing lane space as a
    /// side effect), then insert under the lock.  Keeps per-sender FIFO:
    /// our earlier ring-resident packets get their sequence numbers in the
    /// drain, before this packet's.
    fn post_overflow(&self, pkt: Packet) {
        let mut inner = self.inner.lock();
        if inner.closed {
            return;
        }
        self.drain_locked(&mut inner);
        inner.insert(pkt);
        inner.note_watermarks();
        drop(inner);
        self.cond.notify_one();
    }

    /// Post a packet. Posting to a closed mailbox silently drops (shutdown
    /// races with in-flight delayed packets are benign).  Wait-free: one
    /// ring-slot write, one release store, one counter bump (see the module
    /// docs).
    pub fn post(&self, pkt: Packet) {
        let f = &self.fast;
        if f.closed.load(AtOrd::Acquire) {
            return;
        }
        let Some(ring) = self.lane(f) else {
            return self.post_overflow(pkt);
        };
        let bytes = pkt.payload.len() as u64;
        match ring.produce(pkt) {
            Ok(()) => {
                f.bytes_posted.fetch_add(bytes, AtOrd::Relaxed);
                f.posted.fetch_add(1, AtOrd::SeqCst);
                self.wake_consumer(f);
            }
            Err(pkt) => self.post_overflow(pkt),
        }
    }

    /// Post a batch — how a whole unpacked jumbo frame lands in the
    /// destination mailbox.  On the fast path the batch is staged into the
    /// sender's lane and published with a *single* tail store (one ring
    /// reservation), one counter bump and at most one wakeup.  On the
    /// locked path (overflow) it is one lock
    /// acquisition; `max_depth` and the byte watermark see the full batch
    /// at once, exactly as `post` called in a loop would, but are updated
    /// once, not per-envelope.
    pub fn post_many<I: IntoIterator<Item = Packet>>(&self, pkts: I) {
        let f = &self.fast;
        if f.closed.load(AtOrd::Acquire) {
            return;
        }
        let Some(ring) = self.lane(f) else {
            return self.post_many_locked(pkts);
        };
        let mut writer = ring.batch();
        let mut bytes = 0u64;
        let mut overflow: Option<Packet> = None;
        let mut rest = pkts.into_iter();
        for pkt in rest.by_ref() {
            let len = pkt.payload.len() as u64;
            match writer.push(pkt) {
                Ok(()) => bytes += len,
                Err(pkt) => {
                    overflow = Some(pkt);
                    break;
                }
            }
        }
        let staged = writer.staged();
        writer.commit();
        if staged > 0 {
            f.bytes_posted.fetch_add(bytes, AtOrd::Relaxed);
            f.posted.fetch_add(staged, AtOrd::SeqCst);
            self.wake_consumer(f);
        }
        // Ring filled mid-batch: publish what fit, then finish through
        // the merge lock (which drains the rings first, preserving
        // order).
        if let Some(pkt) = overflow {
            self.post_many_locked(std::iter::once(pkt).chain(rest));
        }
    }

    fn post_many_locked<I: IntoIterator<Item = Packet>>(&self, pkts: I) {
        let mut inner = self.inner.lock();
        if inner.closed {
            return;
        }
        self.drain_locked(&mut inner);
        let mut any = false;
        for pkt in pkts {
            inner.insert(pkt);
            any = true;
        }
        if any {
            inner.note_watermarks();
        }
        drop(inner);
        if any {
            self.cond.notify_all();
        }
    }

    /// Announce intent to sleep (under the merge lock), then re-check the
    /// fast lanes — the Dekker handshake with [`Mailbox::wake_consumer`].
    /// Returns false if new fast-path traffic arrived and the caller
    /// should merge instead of sleeping.
    fn register_sleeper(&self, inner: &Inner) -> bool {
        let f = &self.fast;
        f.sleeping.store(true, AtOrd::SeqCst);
        if f.posted.load(AtOrd::SeqCst) != inner.drained {
            f.sleeping.store(false, AtOrd::SeqCst);
            return false;
        }
        true
    }

    fn clear_sleeper(&self) {
        self.fast.sleeping.store(false, AtOrd::SeqCst);
    }

    /// Take the most urgent packet, blocking until one arrives or the
    /// mailbox is closed (then `None`).
    pub fn take(&self) -> Option<Packet> {
        let mut inner = self.inner.lock();
        loop {
            self.drain_locked(&mut inner);
            if let Some(pkt) = inner.pop() {
                return Some(pkt);
            }
            if inner.closed {
                return None;
            }
            if !self.register_sleeper(&inner) {
                continue;
            }
            match inner.next_due() {
                // A hold needs no post to fall due: sleep no longer than it.
                Some(due) => {
                    self.cond.wait_until(&mut inner, due);
                }
                None => self.cond.wait(&mut inner),
            }
            self.clear_sleeper();
        }
    }

    /// Take with a timeout; `None` on timeout or close-with-empty-queue.
    pub fn take_timeout(&self, timeout: Duration) -> Option<Packet> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            self.drain_locked(&mut inner);
            if let Some(pkt) = inner.pop() {
                return Some(pkt);
            }
            if inner.closed {
                return None;
            }
            if !self.register_sleeper(&inner) {
                continue;
            }
            // Sleep no longer than the earliest hold: it needs no post to
            // fall due.
            let wake_at = inner.next_due().map_or(deadline, |due| due.min(deadline));
            let timed_out = self.cond.wait_until(&mut inner, wake_at).timed_out();
            self.clear_sleeper();
            if timed_out && wake_at == deadline {
                self.drain_locked(&mut inner);
                return inner.pop();
            }
        }
    }

    /// Non-blocking take.
    pub fn try_take(&self) -> Option<Packet> {
        let mut inner = self.inner.lock();
        self.drain_locked(&mut inner);
        inner.pop()
    }

    /// Non-blocking bulk take: up to `max` packets in delivery order under
    /// one lock acquisition and one lane merge.  Returns how many landed
    /// in `out`.
    pub fn take_many(&self, out: &mut Vec<Packet>, max: usize) -> usize {
        let mut inner = self.inner.lock();
        self.drain_locked(&mut inner);
        let mut n = 0;
        while n < max {
            let Some(pkt) = inner.pop() else { break };
            out.push(pkt);
            n += 1;
        }
        n
    }

    /// Close the mailbox, waking all blocked takers and
    /// releasing every hold: whatever was posted can be taken at once.
    pub fn close(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        self.fast.closed.store(true, AtOrd::Release);
        self.drain_locked(&mut inner);
        inner.promote(None);
        drop(inner);
        self.cond.notify_all();
    }

    /// Lock and merge the fast lanes, so observers see authoritative
    /// state.  Merging from an observer thread is safe: consumers are
    /// serialized by the lock, and the real consumer re-checks the inner
    /// queue before sleeping.
    fn observe(&self) -> parking_lot::MutexGuard<'_, Inner> {
        let mut inner = self.inner.lock();
        self.drain_locked(&mut inner);
        inner
    }

    /// Packets currently queued (including fast-lane packets not yet
    /// merged by the consumer) or held for their `due`.
    pub fn len(&self) -> usize {
        let inner = self.observe();
        inner.depth() + inner.held.len()
    }

    /// True if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total packets ever posted.
    pub fn total_posted(&self) -> u64 {
        self.observe().posted
    }

    /// High-water mark of queue depth (messages waiting at once).
    pub fn max_depth(&self) -> usize {
        self.observe().max_depth
    }

    /// Payload bytes currently queued.
    pub fn bytes(&self) -> usize {
        self.observe().bytes
    }

    /// High-water mark of queued payload bytes.
    pub fn max_bytes(&self) -> usize {
        self.inner.lock().max_bytes
    }

    /// Condvar signals actually sent by fast-path posters.  With batched
    /// wakeups this stays O(idle transitions), not O(posts): compare with
    /// [`Mailbox::total_posted`] to see the amortization.
    pub fn wakeup_signals(&self) -> u64 {
        self.fast.signals.load(AtOrd::Relaxed)
    }
}

impl Drop for Mailbox {
    fn drop(&mut self) {
        let n = self.fast.published.load(AtOrd::Acquire);
        for slot in &self.fast.lanes[..n] {
            let ptr = slot.swap(std::ptr::null_mut(), AtOrd::AcqRel);
            if !ptr.is_null() {
                // Ring packets still in flight are dropped with it.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
    }
}

/// Adapter: a mailbox bank as the terminal forwarder of a chain, routing by
/// `pkt.dst`.
pub struct MailboxSink {
    boxes: Vec<Arc<Mailbox>>,
}

impl MailboxSink {
    /// Sink over the given per-PE mailboxes (indexed by `Pe::index()`).
    pub fn new(boxes: Vec<Arc<Mailbox>>) -> Self {
        MailboxSink { boxes }
    }
}

impl Forwarder for MailboxSink {
    fn deliver(&self, pkt: Packet) {
        self.boxes[pkt.dst.index()].post(pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mdo_netsim::Pe;

    fn pkt(prio: i32, tag: u8) -> Packet {
        Packet::with_priority(Pe(0), Pe(0), prio, Bytes::copy_from_slice(&[tag]))
    }

    fn sized_pkt(prio: i32, tag: u8, len: usize) -> Packet {
        let mut payload = vec![tag];
        payload.resize(len, 0);
        Packet::with_priority(Pe(0), Pe(0), prio, Bytes::from(payload))
    }

    #[test]
    fn priority_then_fifo() {
        let mb = Mailbox::new();
        mb.post(pkt(5, 1));
        mb.post(pkt(1, 2));
        mb.post(pkt(5, 3));
        mb.post(pkt(1, 4));
        let order: Vec<u8> = (0..4).map(|_| mb.take().unwrap().payload[0]).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn close_wakes_taker() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.take());
        std::thread::sleep(Duration::from_millis(20));
        mb.close();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn cross_thread_delivery() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            mb2.post(pkt(0, 9));
        });
        let got = mb.take().unwrap();
        assert_eq!(got.payload[0], 9);
        h.join().unwrap();
    }

    #[test]
    fn timeout_returns_none() {
        let mb = Mailbox::new();
        let start = std::time::Instant::now();
        assert!(mb.take_timeout(Duration::from_millis(25)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn try_take_and_len() {
        let mb = Mailbox::new();
        assert!(mb.try_take().is_none());
        mb.post(pkt(0, 1));
        assert_eq!(mb.len(), 1);
        assert!(!mb.is_empty());
        assert!(mb.try_take().is_some());
        assert!(mb.is_empty());
        assert_eq!(mb.total_posted(), 1);
        assert_eq!(mb.max_depth(), 1);
    }

    #[test]
    fn post_after_close_is_dropped() {
        let mb = Mailbox::new();
        mb.close();
        mb.post(pkt(0, 1));
        assert!(mb.is_empty());
    }

    #[test]
    fn fifo_lane_preserves_order_and_migrates_on_mixed_priority() {
        let mb = Mailbox::new();
        // Uniform priority: everything rides the FIFO lane.
        mb.post(pkt(4, 1));
        mb.post(pkt(4, 2));
        mb.post(pkt(4, 3));
        // A different priority forces migration into the heap mid-stream.
        mb.post(pkt(-1, 4));
        mb.post(pkt(4, 5));
        let order: Vec<u8> = (0..5).map(|_| mb.take().unwrap().payload[0]).collect();
        assert_eq!(order, vec![4, 1, 2, 3, 5], "urgent first, then FIFO within equal priority");
        assert_eq!(mb.max_depth(), 5);
        // Drained: the lane can restart at a fresh priority.
        mb.post(pkt(9, 6));
        mb.post(pkt(9, 7));
        assert_eq!(mb.take().unwrap().payload[0], 6);
        assert_eq!(mb.take().unwrap().payload[0], 7);
    }

    #[test]
    fn post_many_matches_looped_post() {
        let a = Mailbox::new();
        let b = Mailbox::new();
        let batch: Vec<Packet> = vec![pkt(2, 1), pkt(0, 2), pkt(2, 3), pkt(0, 4)];
        a.post_many(batch.clone());
        for p in batch {
            b.post(p);
        }
        assert_eq!(a.len(), b.len());
        assert_eq!(a.max_depth(), b.max_depth());
        assert_eq!(a.max_bytes(), b.max_bytes());
        assert_eq!(a.total_posted(), b.total_posted());
        for _ in 0..4 {
            assert_eq!(a.take().unwrap().payload[0], b.take().unwrap().payload[0]);
        }
    }

    #[test]
    fn post_many_to_closed_mailbox_is_dropped() {
        let mb = Mailbox::new();
        mb.close();
        mb.post_many(vec![pkt(0, 1), pkt(0, 2)]);
        assert!(mb.is_empty());
        assert_eq!(mb.total_posted(), 0);
    }

    #[test]
    fn sink_routes_by_destination() {
        let boxes: Vec<_> = (0..3).map(|_| Arc::new(Mailbox::new())).collect();
        let sink = MailboxSink::new(boxes.clone());
        sink.deliver(Packet::new(Pe(0), Pe(2), Bytes::from_static(b"z")));
        assert!(boxes[0].is_empty());
        assert!(boxes[1].is_empty());
        assert_eq!(boxes[2].len(), 1);
    }

    #[test]
    fn byte_accounting_tracks_queue_contents() {
        let mb = Mailbox::new();
        mb.post(sized_pkt(0, 1, 100));
        mb.post(sized_pkt(0, 2, 50));
        assert_eq!(mb.bytes(), 150);
        assert_eq!(mb.max_bytes(), 150);
        mb.try_take();
        assert_eq!(mb.bytes(), 50);
        assert_eq!(mb.max_bytes(), 150, "watermark survives drains");
    }

    #[test]
    fn concurrent_posters_keep_per_sender_fifo() {
        // Many producer threads, each posting a numbered stream through
        // its own fast lane; the consumer must see every stream complete,
        // in order, with no loss and no duplicates.
        let mb = Arc::new(Mailbox::new());
        const SENDERS: usize = 6;
        const EACH: u32 = 5_000;
        let handles: Vec<_> = (0..SENDERS)
            .map(|s| {
                let mb = Arc::clone(&mb);
                std::thread::spawn(move || {
                    for i in 0..EACH {
                        let mut payload = vec![s as u8];
                        payload.extend_from_slice(&i.to_le_bytes());
                        mb.post(Packet::new(Pe(0), Pe(0), Bytes::from(payload)));
                    }
                })
            })
            .collect();
        let mut next = [0u32; SENDERS];
        for _ in 0..SENDERS as u32 * EACH {
            let pkt = mb.take().expect("open mailbox");
            let s = pkt.payload[0] as usize;
            let i = u32::from_le_bytes(pkt.payload[1..5].try_into().unwrap());
            assert_eq!(i, next[s], "sender {s} stream out of order");
            next[s] += 1;
        }
        assert!(mb.is_empty());
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mb.total_posted(), (SENDERS as u32 * EACH) as u64);
        // Batched wakeups: a 30k-post run must not pay 30k notifies.
        assert!(mb.wakeup_signals() < (SENDERS as u32 * EACH) as u64 / 2, "signals: {}", mb.wakeup_signals());
    }

    #[test]
    fn ring_overflow_falls_back_without_losing_order() {
        // Post far more than one lane holds without a single take: the
        // overflow path must merge + insert, keeping FIFO.
        let mb = Mailbox::new();
        const N: u32 = 5_000; // > LANE_CAP
        for i in 0..N {
            mb.post(Packet::new(Pe(0), Pe(0), Bytes::from(i.to_le_bytes().to_vec())));
        }
        assert_eq!(mb.len(), N as usize);
        for i in 0..N {
            let pkt = mb.take().unwrap();
            assert_eq!(u32::from_le_bytes(pkt.payload[..4].try_into().unwrap()), i);
        }
    }

    #[test]
    fn priority_merge_spans_fast_and_slow_posts() {
        // Urgent traffic posted through the rings still overtakes a FIFO
        // backlog at merge time.
        let mb = Mailbox::new();
        mb.post(pkt(5, 1));
        mb.post(pkt(5, 2));
        mb.post(pkt(SHED_EXEMPT_PRIORITY, 3));
        mb.post(pkt(5, 4));
        let order: Vec<u8> = (0..4).map(|_| mb.take().unwrap().payload[0]).collect();
        assert_eq!(order, vec![3, 1, 2, 4]);
    }

    #[test]
    fn take_many_drains_in_delivery_order() {
        let mb = Mailbox::new();
        for tag in [1u8, 2, 3, 4, 5] {
            mb.post(pkt(0, tag));
        }
        let mut out = Vec::new();
        assert_eq!(mb.take_many(&mut out, 3), 3);
        assert_eq!(mb.take_many(&mut out, 10), 2);
        let tags: Vec<u8> = out.iter().map(|p| p.payload[0]).collect();
        assert_eq!(tags, vec![1, 2, 3, 4, 5]);
        assert_eq!(mb.take_many(&mut out, 1), 0);
    }

    #[test]
    fn post_many_overflowing_one_lane_keeps_fifo() {
        let mb = Mailbox::new();
        let batch: Vec<Packet> =
            (0..3_000u32).map(|i| Packet::new(Pe(0), Pe(0), Bytes::from(i.to_le_bytes().to_vec()))).collect();
        mb.post_many(batch);
        assert_eq!(mb.len(), 3_000);
        for i in 0..3_000u32 {
            let pkt = mb.take().unwrap();
            assert_eq!(u32::from_le_bytes(pkt.payload[..4].try_into().unwrap()), i);
        }
    }
}
