//! The lock-free message path, end to end.
//!
//! Two layers of assurance for the ring mailboxes:
//!
//!   * **Ring properties** (proptest): arbitrary producer counts and
//!     volumes posting concurrently must deliver every packet exactly
//!     once, in per-sender FIFO order, with priority-then-FIFO restored
//!     by the consumer-side merge — including through the ring-overflow
//!     slow path, where a lane swaps its ring for one of twice the size
//!     (16 slots to 1,024) while a consumer takes concurrently.
//!   * **Hold properties** (proptest): a packet stamped with a `due` (the
//!     delay device's injected latency) is never handed out early on any
//!     take path, falls due in `(due, post order)`, needs no post to wake
//!     a blocked consumer, and is released by `close()`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use gridmdo::prelude::*;
use gridmdo::vmi::{Mailbox, Packet};
use proptest::prelude::*;

// ---- ring mailbox properties ----------------------------------------------

/// Payload tagging a packet with its (sender, sequence) identity.
fn tagged(sender: u32, seq: u32) -> Bytes {
    let mut v = Vec::with_capacity(8);
    v.extend_from_slice(&sender.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    Bytes::from(v)
}

fn untag(pkt: &Packet) -> (u32, u32) {
    let b = &pkt.payload;
    (u32::from_le_bytes(b[0..4].try_into().unwrap()), u32::from_le_bytes(b[4..8].try_into().unwrap()))
}

/// Spawn `producers` threads posting `per` tagged packets each (singly or
/// in batches), consume everything, and return the delivery order.
fn concurrent_post_run(producers: u32, per: u32, batch: usize) -> Vec<(u32, u32)> {
    let mb = Arc::new(Mailbox::new());
    let threads: Vec<_> = (0..producers)
        .map(|s| {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                let mut seq = 0;
                while seq < per {
                    let n = (batch as u32).min(per - seq);
                    if n == 1 {
                        mb.post(Packet::new(Pe(s), Pe(0), tagged(s, seq)));
                    } else {
                        mb.post_many((seq..seq + n).map(|q| Packet::new(Pe(s), Pe(0), tagged(s, q))));
                    }
                    seq += n;
                }
            })
        })
        .collect();
    let total = (producers * per) as usize;
    let mut got = Vec::with_capacity(total);
    let mut buf = Vec::new();
    while got.len() < total {
        if mb.take_many(&mut buf, 256) == 0 {
            std::thread::yield_now();
            continue;
        }
        got.extend(buf.drain(..).map(|pkt| untag(&pkt)));
    }
    for t in threads {
        t.join().expect("producer");
    }
    assert!(mb.is_empty(), "nothing left behind");
    got
}

/// No loss, no duplication, per-sender FIFO: each sender's sequence
/// numbers appear exactly once, in order.
fn check_exactly_once_fifo(got: &[(u32, u32)], producers: u32, per: u32) -> Result<(), TestCaseError> {
    prop_assert!(got.len() as u32 == producers * per, "no loss, no duplication: {} of {}", got.len(), producers * per);
    let mut next: HashMap<u32, u32> = HashMap::new();
    for &(sender, seq) in got {
        let want = next.entry(sender).or_insert(0);
        prop_assert!(seq == *want, "per-sender FIFO for sender {}: got {}, want {}", sender, seq, *want);
        *want += 1;
    }
    for s in 0..producers {
        let n = next.get(&s).copied().unwrap_or(0);
        prop_assert!(n == per, "sender {} fully delivered: {} of {}", s, n, per);
    }
    Ok(())
}

use proptest::test_runner::TestCaseError;

proptest! {
    /// Concurrent single posts through the per-sender rings.
    #[test]
    fn rings_deliver_exactly_once_in_sender_order(producers in 1u32..5, per in 1u32..250) {
        check_exactly_once_fifo(&concurrent_post_run(producers, per, 1), producers, per)?;
    }

    /// Concurrent batched posts (`post_many` = one ring reservation per
    /// batch), including batches that straddle ring capacity and spill
    /// into the overflow path.
    #[test]
    fn batched_rings_deliver_exactly_once_in_sender_order(producers in 1u32..5,
                                                          per in 1u32..250,
                                                          batch in 1usize..64) {
        check_exactly_once_fifo(&concurrent_post_run(producers, per, batch), producers, per)?;
    }

    /// Priority-then-FIFO is exactly preserved by the consumer-side merge:
    /// with all posts completed before the first take, delivery order is
    /// the stable sort of post order by priority — bit-for-bit what the
    /// old single-mutex mailbox produced.  Up to 2,600 posts with no take,
    /// singly or in batches that overflow mid-batch, carry the one lane
    /// through every swap from 16 slots to 1,024 and past the cap.
    #[test]
    fn merge_restores_priority_then_fifo(prios in prop::collection::vec(-3i32..3, 1..2600), batch in 1usize..700) {
        let mb = Mailbox::new();
        let pkt = |i: usize| Packet::with_priority(Pe(1), Pe(0), prios[i], tagged(1, i as u32));
        for from in (0..prios.len()).step_by(batch) {
            if batch == 1 {
                mb.post(pkt(from));
            } else {
                mb.post_many((from..prios.len().min(from + batch)).map(pkt));
            }
        }
        let mut want: Vec<(i32, u32)> = prios.iter().enumerate().map(|(i, &p)| (p, i as u32)).collect();
        want.sort_by_key(|&(p, _)| p); // stable: FIFO within a priority
        let mut buf = Vec::new();
        mb.take_many(&mut buf, usize::MAX);
        prop_assert_eq!(buf.len(), prios.len());
        for (pkt, (p, seq)) in buf.iter().zip(want) {
            prop_assert_eq!(pkt.priority, p);
            prop_assert_eq!(untag(pkt).1, seq);
        }
    }
}

/// How far a producer of [`lanes_grow_under_a_concurrent_consumer`] may run
/// ahead of the consumer: past twice the lane cap, so a lane can fill at
/// its final size and overflow there too.
const LEAD: u32 = 2_600;

proptest! {
    /// Every swap of a growing lane, with the consumer at work: 1–4 producers
    /// post mixed-priority traffic, singly or in batches that overflow
    /// mid-batch, while the consumer takes eight packets at a time.  Before
    /// each round of takes the consumer stays away until every producer is a
    /// set distance ahead — 17, 33, … 1,025, then 2,049 — which is more than
    /// that producer's ring holds, so each lane has overflowed and swapped at
    /// every size by the end, some while the consumer waited and the rest
    /// while it took.  Nothing is lost or duplicated, each sender's packets
    /// of one priority arrive in the order posted, and every batch taken
    /// under one lock comes out most urgent first.
    #[test]
    fn lanes_grow_under_a_concurrent_consumer(producers in 1u32..5,
                                              batch in 1u32..48,
                                              prios in prop::collection::vec(-1i32..2, 1..8)) {
        const PER: u32 = 6_000;
        let mb = Mailbox::new();
        let posted: Vec<AtomicU32> = (0..producers).map(|_| AtomicU32::new(0)).collect();
        let taken: Vec<AtomicU32> = (0..producers).map(|_| AtomicU32::new(0)).collect();
        // Set when the consumer is through, so that producers held back by a
        // consumer that failed an assertion leave and the scope can join them.
        let stop = AtomicBool::new(false);
        let produce = |s: u32| {
            let pkt = |q: u32| Packet::with_priority(Pe(s), Pe(0), prios[q as usize % prios.len()], tagged(s, q));
            let mut seq = 0;
            while seq < PER {
                while seq - taken[s as usize].load(Ordering::Acquire) > LEAD {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::yield_now();
                }
                let n = batch.min(PER - seq);
                if n == 1 {
                    mb.post(pkt(seq));
                } else {
                    mb.post_many((seq..seq + n).map(pkt));
                }
                seq += n;
                posted[s as usize].store(seq, Ordering::Release);
            }
        };
        let ahead = |s: usize, by: u32| {
            posted[s].load(Ordering::Acquire) >= PER.min(taken[s].load(Ordering::Relaxed) + by)
        };
        let consume = || {
            let mut last: HashMap<(u32, i32), u32> = HashMap::new();
            let mut buf = Vec::new();
            let mut total = 0;
            for by in (4..=11).map(|k| (1 << k) + 1).cycle() {
                if total == producers * PER {
                    break;
                }
                while !(0..producers as usize).all(|s| ahead(s, by)) {
                    std::thread::yield_now();
                }
                while mb.take_many(&mut buf, 8) > 0 {
                    prop_assert!(buf.windows(2).all(|w| w[0].priority <= w[1].priority), "most urgent first within a take");
                    for pkt in buf.drain(..) {
                        let (sender, seq) = untag(&pkt);
                        if let Some(before) = last.insert((sender, pkt.priority), seq) {
                            prop_assert!(before < seq, "sender {} priority {}: {} after {}", sender, pkt.priority, seq, before);
                        }
                        taken[sender as usize].fetch_add(1, Ordering::Release);
                        total += 1;
                    }
                }
            }
            Ok(())
        };
        std::thread::scope(|scope| {
            for s in 0..producers {
                let produce = &produce;
                scope.spawn(move || produce(s));
            }
            let consumed = consume();
            stop.store(true, Ordering::Relaxed);
            consumed
        })?;
        prop_assert!(mb.is_empty(), "nothing left behind");
        for taken in &taken {
            prop_assert_eq!(taken.load(Ordering::Relaxed), PER);
        }
    }
}

/// A packet tagged `(sender, seq)` that may not be seen before `due`.
fn held(sender: u32, seq: u32, prio: i32, due: Option<Instant>) -> Packet {
    let mut pkt = Packet::with_priority(Pe(sender), Pe(0), prio, tagged(sender, seq));
    pkt.due = due;
    pkt
}

proptest! {
    /// No take path hands a packet out before its `due`, whatever mix of
    /// priorities, holds and posting threads: the consumer cycles through
    /// `take_timeout`, `try_take`, `take_many` and `take`
    /// while 1–3 producers post, and checks the clock on every packet.
    #[test]
    fn no_take_path_is_early(posts in prop::collection::vec((-2i32..2, 0u64..5), 1..90), producers in 1u32..4) {
        let mb = Arc::new(Mailbox::new());
        let base = Instant::now();
        let total = posts.len();
        let threads: Vec<_> = (0..producers)
            .map(|s| {
                let (mb, posts) = (Arc::clone(&mb), posts.clone());
                std::thread::spawn(move || {
                    let mine = posts.iter().enumerate().filter(|(i, _)| *i as u32 % producers == s);
                    for (seq, (_, &(prio, slot))) in mine.enumerate() {
                        // Slot 0 posts unstamped; the rest 0.5 ms apart.
                        let due = (slot > 0).then(|| base + Duration::from_micros(500 * slot));
                        mb.post(held(s, seq as u32, prio, due));
                    }
                })
            })
            .collect();
        let mut got = Vec::with_capacity(total);
        let mut buf = Vec::new();
        let mut path = 0;
        while got.len() < total {
            match path % 4 {
                0 => buf.extend(mb.take_timeout(Duration::from_millis(1))),
                1 => buf.extend(mb.try_take()),
                2 => {
                    mb.take_many(&mut buf, 4);
                }
                // Blocks until a packet is there: safe while some are owed.
                _ => buf.extend(mb.take()),
            }
            path += 1;
            let now = Instant::now();
            for pkt in buf.drain(..) {
                prop_assert!(pkt.due.is_none_or(|due| now >= due), "{:?} handed out {:?} early", untag(&pkt),
                             pkt.due.map(|due| due - now));
                got.push(untag(&pkt));
            }
        }
        for t in threads {
            t.join().expect("producer");
        }
        prop_assert!(mb.is_empty(), "nothing left behind, held or queued");
        got.sort_unstable();
        got.dedup();
        prop_assert_eq!(got.len(), total);
    }

    /// What falls due is queued in `(due, post order)` and from there on is
    /// ordinary traffic: with every post made before the first take and
    /// every hold over by then, delivery order is the stable sort by
    /// priority of [unstamped posts in post order, then held posts by
    /// (due, post order)] — what a timer thread releasing each packet at
    /// its deadline into the same mailbox produced.
    #[test]
    fn holds_fall_due_in_due_then_post_order(posts in prop::collection::vec((-2i32..2, 0u64..4), 1..60)) {
        let mb = Mailbox::new();
        let base = Instant::now() + Duration::from_millis(10);
        for (i, &(prio, slot)) in posts.iter().enumerate() {
            mb.post(held(1, i as u32, prio, (slot > 0).then(|| base + Duration::from_millis(slot))));
        }
        if Instant::now() >= base {
            return Ok(()); // the host stalled mid-post: which posts were held is no longer known
        }
        prop_assert_eq!(mb.len(), posts.len());
        std::thread::sleep(base + Duration::from_millis(4) - Instant::now());
        let mut want: Vec<(i32, u64, u32)> =
            posts.iter().enumerate().map(|(i, &(prio, slot))| (prio, slot, i as u32)).collect();
        want.sort_by_key(|&(_, slot, i)| (slot, i));
        want.sort_by_key(|&(prio, _, _)| prio); // stable
        let mut buf = Vec::new();
        mb.take_many(&mut buf, usize::MAX);
        prop_assert_eq!(buf.len(), posts.len());
        for (pkt, (prio, _, i)) in buf.iter().zip(want) {
            prop_assert_eq!((pkt.priority, untag(pkt).1), (prio, i));
        }
    }
}

/// A consumer already blocked when a held packet is posted — and one that
/// blocks afterwards — wakes when the hold is over, with no further post to
/// nudge it; `take` and `take_timeout` alike.
#[test]
fn a_blocked_consumer_wakes_for_a_due_packet_without_another_post() {
    const HOLD: Duration = Duration::from_millis(25);
    for blocking_take in [false, true] {
        let mb = Arc::new(Mailbox::new());
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let consumer = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                ready_tx.send(()).expect("main waits");
                let pkt = if blocking_take { mb.take() } else { mb.take_timeout(Duration::from_secs(20)) };
                (pkt, Instant::now())
            })
        };
        ready_rx.recv().expect("consumer started");
        let due = Instant::now() + HOLD;
        mb.post(held(1, 0, 0, Some(due)));
        let (pkt, at) = consumer.join().expect("consumer");
        assert_eq!(untag(&pkt.expect("the held packet")), (1, 0));
        assert!(at >= due, "not before its time");
        assert!(at < due + Duration::from_secs(10), "woken by the hold, not by the 20 s timeout");
        // And the same for a consumer that arrives while the hold is running.
        let due = Instant::now() + HOLD;
        mb.post(held(1, 1, 0, Some(due)));
        let pkt = if blocking_take { mb.take() } else { mb.take_timeout(Duration::from_secs(20)) };
        assert_eq!(untag(&pkt.expect("the held packet")), (1, 1));
        assert!(Instant::now() >= due);
    }
}

/// `len()` counts what is held, a timed-out take does not return it, and
/// `close()` hands everything out at once, earliest hold first.
#[test]
fn close_releases_every_hold() {
    let mb = Mailbox::new();
    let far = Instant::now() + Duration::from_secs(3600);
    mb.post(held(1, 0, 0, Some(far + Duration::from_secs(2))));
    mb.post(held(1, 1, 0, Some(far)));
    mb.post(held(1, 2, 0, Some(far)));
    assert_eq!(mb.len(), 3, "held packets are counted");
    assert!(!mb.is_empty());
    assert!(mb.try_take().is_none());
    assert!(mb.take_timeout(Duration::from_millis(5)).is_none());
    let mut none = Vec::new();
    assert_eq!(mb.take_many(&mut none, 8), 0);
    mb.close();
    let order: Vec<u32> = std::iter::from_fn(|| mb.take()).map(|pkt| untag(&pkt).1).collect();
    assert_eq!(order, vec![1, 2, 0], "(due, post order)");
    assert!(mb.is_empty());
}

/// Fill far past the per-lane ring capacity with no consumer running: the
/// overflow path must keep per-sender FIFO and lose nothing.
#[test]
fn ring_overflow_is_exactly_once_in_sender_order() {
    let got = concurrent_post_run(2, 5_000, 1);
    check_exactly_once_fifo(&got, 2, 5_000).expect("overflow path exactly-once");
}
