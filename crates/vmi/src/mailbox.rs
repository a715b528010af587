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
//! the earliest `due`.  A packet admitted straight into the ordering
//! structure (unstamped, or admitted after its `due`) first promotes the
//! holds that fell due before it, so it cannot overtake them.  [`Mailbox::close`] releases every hold.
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
//! into the ordering structure (FIFO lane + per-priority class deques)
//! under the merge mutex *only when it looks for a packet*; merge order is
//! arrival order — a valid linearization of the concurrent posts that
//! preserves exact priority-then-FIFO order and per-sender FIFO.
//! Overflow (a full ring, more than [`MAX_LANES`] posting threads, posts
//! from a thread whose TLS is tearing down) falls back to inserting under
//! the merge mutex, so nothing ever spins or blocks on ring space.
//!
//! ## Lanes sized by traffic
//!
//! A lane starts at `LANE_START` = 16 slots (under 1 KiB) and doubles each
//! time its producer finds it full, up to `LANE_CAP` = 1,024 (56 KiB): a
//! lane that carries a step's bursts reaches the cap within seven
//! overflows and stays there, one that carries a handful of ghosts a step
//! or a single START never leaves 16.  Growth lives inside the overflow
//! path.  The producer that found its ring full takes the merge lock and
//! merges every lane, so at that instant it is the lane's only producer
//! (lanes are per thread) *and*, by the lock, its only consumer, and the
//! ring is empty: it publishes an empty ring of twice the capacity in its
//! slot, frees the old one, and inserts under the lock as overflow always
//! did.  No other thread can hold a reference to the old ring — consumers
//! load the slot only with the lock held, and the owner is here.
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
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering as AtOrd};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::packet::Packet;
use crate::ring::SpscRing;

/// Maximum distinct posting threads that get a private wait-free lane per
/// mailbox; later threads fall back to the (still correct) locked path.
pub const MAX_LANES: usize = 32;

/// Slots a lane ring starts with; it doubles on overflow (module docs).
const LANE_START: usize = 16;

/// Slots a lane ring grows to.  A full lane overflows to the locked path
/// instead of blocking, so this only bounds fast-path memory, not
/// correctness.
const LANE_CAP: usize = 1024;

/// Thread-local lane marker: this thread posts to this mailbox via the
/// locked path (lanes exhausted or TLS unavailable).  Sticky per
/// `(thread, mailbox)` so one sender's packets never interleave two lanes.
const SLOW_LANE: u32 = u32::MAX;

static NEXT_MAILBOX_ID: AtomicU64 = AtomicU64::new(1);

/// Entries a thread's lane cache holds before it first looks for dead ones.
const LANE_CACHE_PRUNE: usize = 64;

/// The lanes this thread has claimed, by mailbox id.  An entry must live as
/// long as its mailbox — a thread that forgot a claim would claim a second
/// lane and its packets could overtake each other across the two — so the
/// cache is bounded by dropping the entries of mailboxes that are gone.
struct LaneCache {
    last_id: u64,
    last_lane: u32,
    /// `(mailbox id, lane, the mailbox's `FastLanes::alive`)`.
    entries: Vec<(u64, u32, Weak<()>)>,
    /// Prune when `entries` reaches this: twice what the last prune kept,
    /// so a thread that outlives its mailboxes holds at most twice as many
    /// entries as there were live ones, at amortised constant cost a claim.
    prune_at: usize,
}

impl LaneCache {
    fn remember(&mut self, f: &FastLanes, lane: u32) {
        if self.entries.len() >= self.prune_at {
            self.entries.retain(|(_, _, alive)| alive.strong_count() > 0);
            self.prune_at = (2 * self.entries.len()).max(LANE_CACHE_PRUNE);
        }
        self.entries.push((f.id, lane, Arc::downgrade(&f.alive)));
    }
}

thread_local! {
    static LANE_CACHE: RefCell<LaneCache> = const {
        RefCell::new(LaneCache { last_id: 0, last_lane: SLOW_LANE, entries: Vec::new(), prune_at: LANE_CACHE_PRUNE })
    };
}

/// The wait-free side of a mailbox.
///
/// `repr(C)`, here and on [`Mailbox`]: the field order *is* the layout.  The
/// counters every post writes (`posted`, `bytes_posted`, `sleeping`) sit at
/// the far end from the merge lock and the queue behind it, which the
/// consumer writes; when the compiler chose, adding one field put them on
/// the lock's cache line and a single poster ran at a third of its speed
/// (6 → 2.4 M envelopes a second) while every test stayed green.  The
/// assertion below [`Mailbox`] holds the distance.
#[repr(C)]
struct FastLanes {
    /// Lazily-allocated per-sender rings; slots `0..published` are live.
    lanes: [AtomicPtr<SpscRing>; MAX_LANES],
    /// Process-unique mailbox identity for the thread-local lane cache.
    id: u64,
    next_lane: AtomicUsize,
    published: AtomicUsize,
    /// Packets ever published to any lane (compare with `Inner::drained`).
    posted: AtomicU64,
    /// Payload bytes ever published to any lane.
    bytes_posted: AtomicU64,
    /// Condvar notifies actually sent by fast-path posters.
    signals: AtomicU64,
    /// Mirror of `Inner::closed` readable without the lock.
    closed: AtomicBool,
    /// True while the consumer is (about to be) blocked in `cond.wait`.
    sleeping: AtomicBool,
    /// Dropped with the mailbox: how a lane cache tells its dead entries.
    alive: Arc<()>,
}

/// Packets at this priority (the runtime's system priority) neither
/// consume nor wait for credit and are never shed.
pub const SHED_EXEMPT_PRIORITY: i32 = i32::MIN;

struct Inner {
    /// Mixed priorities: one FIFO per priority class, most urgent (smallest)
    /// class first — the shape of `mdo_core`'s `SchedQueue`.  No class is
    /// kept empty.
    classes: BTreeMap<i32, VecDeque<Packet>>,
    /// Fast FIFO lane for the common all-equal-priority case: as long as
    /// every queued packet shares one priority, posting and taking are
    /// deque operations with no map lookup.  The first mixed-priority post
    /// moves the lane, whole, into `classes` as its class; when a single
    /// class is left it moves back.
    /// Invariant: `classes` and the lane are never both non-empty.
    fifo: VecDeque<Packet>,
    fifo_priority: Option<i32>,
    /// Packets in `classes` and the lane together.
    depth: usize,
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
    /// ahead (and the mailbox open), into the ordering structure otherwise
    /// — behind every hold that fell due before it was admitted.
    fn insert(&mut self, pkt: Packet) {
        self.posted += 1;
        if pkt.due.is_none() && self.held.is_empty() {
            self.enqueue(pkt);
            return;
        }
        let now = Instant::now();
        match pkt.due {
            Some(due) if !self.closed && due > now => {
                self.held.insert((due, self.next_held_seq), pkt);
                self.next_held_seq += 1;
            }
            _ => {
                self.promote(Some(now));
                self.enqueue(pkt);
            }
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
        self.bytes += pkt.payload.len();
        self.depth += 1;
        if self.classes.is_empty() && (self.fifo.is_empty() || self.fifo_priority == Some(pkt.priority)) {
            self.fifo_priority = Some(pkt.priority);
            self.fifo.push_back(pkt);
        } else {
            if let Some(priority) = self.fifo_priority.take() {
                self.classes.insert(priority, std::mem::take(&mut self.fifo));
            }
            self.classes.entry(pkt.priority).or_default().push_back(pkt);
        }
    }

    /// Record the high-water marks once per post (or per batch), after all
    /// inserts of the batch landed — not per-envelope, so a `post_many` of
    /// a whole unpacked jumbo frame costs one watermark update.
    fn note_watermarks(&mut self) {
        self.max_depth = self.max_depth.max(self.depth);
        self.max_bytes = self.max_bytes.max(self.bytes);
    }

    fn pop(&mut self) -> Option<Packet> {
        let pkt = match self.fifo.pop_front() {
            Some(pkt) => pkt,
            None => {
                let mut class = self.classes.first_entry()?;
                let pkt = class.get_mut().pop_front().expect("no class is kept empty");
                if class.get().is_empty() {
                    class.remove();
                    if self.classes.len() == 1 {
                        // One priority again: back to the lane.
                        let (priority, class) = self.classes.pop_first().expect("one class is left");
                        (self.fifo_priority, self.fifo) = (Some(priority), class);
                    }
                }
                pkt
            }
        };
        self.bytes -= pkt.payload.len();
        self.depth -= 1;
        Some(pkt)
    }
}

/// A blocking priority queue of packets for one PE.
#[repr(C)]
pub struct Mailbox {
    inner: Mutex<Inner>,
    /// Per-sender wait-free lanes.
    fast: FastLanes,
    cond: Condvar,
}

// Whatever is added to either struct, the first counter a post writes stays
// a cache line or more past the end of the lock and the queue it guards (see
// `FastLanes`); the lane table between them is written once a claim or swap.
const _: () = {
    let lock_end = std::mem::offset_of!(Mailbox, inner) + std::mem::size_of::<Mutex<Inner>>();
    let post_side = std::mem::offset_of!(Mailbox, fast) + std::mem::offset_of!(FastLanes, posted);
    assert!(std::mem::offset_of!(FastLanes, posted) < std::mem::offset_of!(FastLanes, bytes_posted));
    assert!(std::mem::offset_of!(FastLanes, posted) < std::mem::offset_of!(FastLanes, sleeping));
    assert!(post_side >= lock_end + 64, "post counters share a cache line with the merge lock");
};

impl Default for Mailbox {
    fn default() -> Self {
        Self::new()
    }
}

impl Mailbox {
    /// An empty, open mailbox.
    pub fn new() -> Self {
        let fast = FastLanes {
            lanes: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            id: NEXT_MAILBOX_ID.fetch_add(1, AtOrd::Relaxed),
            next_lane: AtomicUsize::new(0),
            published: AtomicUsize::new(0),
            posted: AtomicU64::new(0),
            bytes_posted: AtomicU64::new(0),
            signals: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            sleeping: AtomicBool::new(false),
            alive: Arc::new(()),
        };
        Mailbox {
            inner: Mutex::new(Inner {
                classes: BTreeMap::new(),
                fifo: VecDeque::new(),
                fifo_priority: None,
                depth: 0,
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
            fast,
            cond: Condvar::new(),
        }
    }

    // ---- fast-lane machinery ---------------------------------------------

    /// This thread's lane for this mailbox — the slot that holds its ring —
    /// claiming one on first use.  `None` means the locked path: lanes
    /// exhausted, or TLS unavailable (a destructor posting during thread
    /// teardown).
    fn lane<'a>(&self, f: &'a FastLanes) -> Option<&'a AtomicPtr<SpscRing>> {
        let lane = LANE_CACHE
            .try_with(|c| {
                let mut c = c.borrow_mut();
                if c.last_id == f.id {
                    return c.last_lane;
                }
                let l = match c.entries.iter().find(|&&(id, _, _)| id == f.id) {
                    Some(&(_, l, _)) => l,
                    None => {
                        let l = Self::claim_lane(f);
                        c.remember(f, l);
                        l
                    }
                };
                c.last_id = f.id;
                c.last_lane = l;
                l
            })
            .ok()?;
        (lane != SLOW_LANE).then(|| &f.lanes[lane as usize])
    }

    /// The ring in the calling thread's own lane.  Only that thread ever
    /// stores to the slot after the claim, so the reference stays good until
    /// the thread itself swaps the ring in [`Mailbox::grow_lane`].
    fn own_ring(slot: &AtomicPtr<SpscRing>) -> &SpscRing {
        let ptr = slot.load(AtOrd::Acquire);
        debug_assert!(!ptr.is_null());
        unsafe { &*ptr }
    }

    /// Allocate a fresh ring for the calling thread.  Rings are published
    /// in index order so a consumer scanning `0..published` never reads an
    /// unset slot.
    fn claim_lane(f: &FastLanes) -> u32 {
        let idx = f.next_lane.fetch_add(1, AtOrd::Relaxed);
        if idx >= MAX_LANES {
            return SLOW_LANE;
        }
        let ring = Box::into_raw(Box::new(SpscRing::with_capacity(LANE_START)));
        f.lanes[idx].store(ring, AtOrd::Release);
        while f.published.compare_exchange(idx, idx + 1, AtOrd::AcqRel, AtOrd::Relaxed).is_err() {
            std::hint::spin_loop();
        }
        idx as u32
    }

    /// Merge every published lane into the ordering structure.  Callers
    /// hold the merge lock, which serializes all consumers; any thread may
    /// play consumer (the owner taking, an accessor, an overflowing
    /// poster).  Merge order is arrival order, which linearizes the
    /// concurrent posts: per-lane ring order — i.e. per-sender post order —
    /// is preserved, and priority order is restored by `Inner::insert`.
    fn merge_lanes(&self, inner: &mut Inner) {
        let f = &self.fast;
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

    /// [`Mailbox::merge_lanes`] if the counters say a lane has something,
    /// under the same lock.  Holds that have fallen due are promoted in the
    /// same pass, so every take path and every observer sees them.
    fn drain_locked(&self, inner: &mut Inner) {
        if self.fast.posted.load(AtOrd::SeqCst) != inner.drained {
            self.merge_lanes(inner);
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

    /// Empty the calling thread's full lane and replace its ring with one of
    /// twice the capacity, up to [`LANE_CAP`].  The caller holds the merge
    /// lock, which keeps every consumer out, and is the lane's one producer:
    /// once merged, nobody else holds a reference to the old ring and it is
    /// empty (module docs).  The merge is unconditional because `posted` can
    /// equal `drained` for an instant with this thread's packets still in
    /// their ring — another sender's batch merged before it was counted —
    /// and both the swap and per-sender FIFO need them out first.
    fn grow_lane(&self, slot: &AtomicPtr<SpscRing>, inner: &mut Inner) {
        self.merge_lanes(inner);
        let cap = Self::own_ring(slot).capacity();
        if cap < LANE_CAP {
            let grown = Box::into_raw(Box::new(SpscRing::with_capacity(2 * cap)));
            let old = unsafe { Box::from_raw(slot.swap(grown, AtOrd::AcqRel)) };
            debug_assert_eq!(old.len(), 0, "a lane is swapped only when merged empty");
        }
    }

    /// What both overflow paths do before they insert: take the merge lock,
    /// grow `full` (the caller's own lane, if that is what overflowed) and
    /// merge the rings — ours first of all, so per-sender FIFO holds: our
    /// earlier ring-resident packets are queued before the ones about to be
    /// inserted.  `None` if the mailbox is closed.
    fn lock_merged(&self, full: Option<&AtomicPtr<SpscRing>>) -> Option<parking_lot::MutexGuard<'_, Inner>> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return None;
        }
        if let Some(slot) = full {
            self.grow_lane(slot, &mut inner);
        }
        self.drain_locked(&mut inner);
        Some(inner)
    }

    /// Overflow path: merge the rings ourselves (freeing lane space as a
    /// side effect), then insert under the lock.
    fn post_overflow(&self, pkt: Packet, full: Option<&AtomicPtr<SpscRing>>) {
        let Some(mut inner) = self.lock_merged(full) else { return };
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
        let Some(slot) = self.lane(f) else {
            return self.post_overflow(pkt, None);
        };
        let bytes = pkt.payload.len() as u64;
        match Self::own_ring(slot).produce(pkt) {
            Ok(()) => {
                f.bytes_posted.fetch_add(bytes, AtOrd::Relaxed);
                f.posted.fetch_add(1, AtOrd::SeqCst);
                self.wake_consumer(f);
            }
            Err(pkt) => self.post_overflow(pkt, Some(slot)),
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
        let Some(slot) = self.lane(f) else {
            return self.post_many_locked(pkts, None);
        };
        let mut writer = Self::own_ring(slot).batch();
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
        // order, and grows ours).
        if let Some(pkt) = overflow {
            self.post_many_locked(std::iter::once(pkt).chain(rest), Some(slot));
        }
    }

    fn post_many_locked<I: IntoIterator<Item = Packet>>(&self, pkts: I, full: Option<&AtomicPtr<SpscRing>>) {
        let Some(mut inner) = self.lock_merged(full) else { return };
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
        self.take_until(None)
    }

    /// Take with a timeout; `None` on timeout or close-with-empty-queue.
    pub fn take_timeout(&self, timeout: Duration) -> Option<Packet> {
        self.take_until(Some(Instant::now() + timeout))
    }

    /// The blocking loop of both takes: merge the lanes and pop, or
    /// announce the sleep and wait — never past the earliest hold, which
    /// needs no post to fall due, nor past `deadline`, where one last
    /// merge decides.
    fn take_until(&self, deadline: Option<Instant>) -> Option<Packet> {
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
            let wake_at = inner.next_due().into_iter().chain(deadline).min();
            let timed_out = match wake_at {
                Some(at) => self.cond.wait_until(&mut inner, at).timed_out(),
                None => {
                    self.cond.wait(&mut inner);
                    false
                }
            };
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
        inner.depth + inner.held.len()
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
        // A different priority moves the lane into the class deques mid-stream.
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

    /// The ring in this thread's lane of `mb`, which is lane 0 in a test
    /// that posts from one thread.
    fn lane0(mb: &Mailbox) -> &SpscRing {
        Mailbox::own_ring(&mb.fast.lanes[0])
    }

    #[test]
    fn a_lane_doubles_from_16_slots_to_the_cap_and_is_empty_at_every_swap() {
        let mb = Mailbox::new();
        let mut caps = Vec::new();
        for i in 0..3 * LANE_CAP as u32 {
            mb.post(Packet::new(Pe(0), Pe(0), Bytes::from(i.to_le_bytes().to_vec())));
            let ring = lane0(&mb);
            if caps.last() != Some(&ring.capacity()) {
                caps.push(ring.capacity());
                if caps.len() > 1 {
                    // Just swapped: everything posted so far was merged out of
                    // the old ring before it was freed, the post that overflowed
                    // went in under the lock, and the new ring starts empty.
                    assert_eq!(ring.len(), 0);
                    assert_eq!(mb.inner.lock().depth, i as usize + 1);
                }
            }
        }
        assert_eq!(caps, vec![16, 32, 64, 128, 256, 512, 1024], "doubles, and stops at the cap");
        assert_eq!(mb.fast.next_lane.load(AtOrd::Relaxed), 1, "one lane throughout");
        for i in 0..3 * LANE_CAP as u32 {
            let pkt = mb.take().unwrap();
            assert_eq!(u32::from_le_bytes(pkt.payload[..4].try_into().unwrap()), i);
        }
    }

    #[test]
    fn post_many_overflowing_mid_batch_grows_the_lane_once_a_batch() {
        let mb = Mailbox::new();
        let batch = |from: u32, n: u32| {
            (from..from + n).map(|i| Packet::new(Pe(0), Pe(0), Bytes::from(i.to_le_bytes().to_vec())))
        };
        mb.post_many(batch(0, 100));
        assert_eq!((lane0(&mb).capacity(), lane0(&mb).len()), (32, 0), "16 fit, 84 went in under the lock");
        mb.post_many(batch(100, 20));
        assert_eq!((lane0(&mb).capacity(), lane0(&mb).len()), (32, 20), "a batch that fits grows nothing");
        mb.post_many(batch(120, 13));
        assert_eq!((lane0(&mb).capacity(), lane0(&mb).len()), (64, 0));
        for i in 0..133u32 {
            assert_eq!(u32::from_le_bytes(mb.take().unwrap().payload[..4].try_into().unwrap()), i);
        }
    }

    #[test]
    fn a_threads_lane_cache_forgets_the_mailboxes_that_are_gone() {
        let cached = || LANE_CACHE.with(|c| c.borrow().entries.len());
        let kept = Mailbox::new();
        kept.post(pkt(0, 0));
        for round in 0..10_000u32 {
            let short_lived = Mailbox::new();
            short_lived.post(pkt(0, 1));
            assert!(short_lived.take().is_some());
            if round % 100 == 0 {
                kept.post(pkt(0, 2));
            }
        }
        assert!(cached() <= LANE_CACHE_PRUNE, "{} entries after 10,000 mailboxes came and went", cached());
        // The live one was never forgotten: a second claim would have taken a
        // second lane.
        assert_eq!(kept.fast.next_lane.load(AtOrd::Relaxed), 1);
        assert_eq!(kept.len(), 101);
        // Many live mailboxes are all remembered, however many there are.
        let live: Vec<Mailbox> = (0..3 * LANE_CACHE_PRUNE).map(|_| Mailbox::new()).collect();
        for _ in 0..2 {
            live.iter().for_each(|mb| mb.post(pkt(0, 3)));
        }
        assert!(live.iter().all(|mb| mb.fast.next_lane.load(AtOrd::Relaxed) == 1));
        assert!(cached() > 3 * LANE_CACHE_PRUNE);
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

    #[test]
    fn a_packet_admitted_late_queues_behind_the_holds_that_fell_due_before_it() {
        let mb = Mailbox::new();
        let mut a = pkt(0, 1);
        a.due = Some(Instant::now() + Duration::from_millis(5));
        mb.post(a);
        assert!(mb.try_take().is_none(), "A is held until its due");
        let past = Instant::now();
        std::thread::sleep(Duration::from_millis(10));
        // A fell due while nothing looked; B (due already past) and C
        // (unstamped) are posted after that, so both queue behind A.
        let mut b = pkt(0, 2);
        b.due = Some(past);
        mb.post(b);
        mb.post(pkt(0, 3));
        let order: Vec<u8> = (0..3).map(|_| mb.take().unwrap().payload[0]).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }
}
