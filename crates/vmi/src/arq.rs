//! The reliable protocol of one ordered PE pair, without I/O.
//!
//! A [`Sender`] numbers what it sends, keeps a copy of every frame until a
//! cumulative ack covers it, and retransmits a copy whose deadline passed
//! with exponential, per-pair jittered backoff — or gives up on it after
//! the plan's `max_retries` with a [`TransportError`].  A [`Receiver`]
//! answers every data frame with its own ack: the cumulative ack, and the
//! frame itself when it is held past the gap.  It drops duplicates,
//! buffers what arrives early and releases frames in sequence order, so a
//! lost frame holds back its pair's later ones until the repair lands —
//! and only the lost frame is resent: every frame that arrived was named
//! by its own ack or covered by a cumulative one, however far past the gap
//! it sits.  That needs no history of the acks, because acks are never
//! lost (the fault wire spares them); a lost ack would cost one resend.
//!
//! Both halves take events — a send, a frame, an ack, a timer at `now` —
//! and answer with what to do: transmit this copy, deliver these in order,
//! ack this, give up.  There is no lock, thread or clock inside, and the
//! payload is generic, so one protocol runs in both engines:
//! [`crate::reliable`] drives it on the wall clock (its lock, its timer
//! thread, its codec), and the simulator in `mdo-core` drives it in virtual
//! time.

use std::collections::BTreeMap;

use mdo_netsim::{keyed_unit, Dur, FaultPlan, Pe, Time, TransportError};

/// Deterministic retransmission backoff with per-pair jitter.
///
/// Attempt `retries` on pair `(src, dst)` waits its exponential base
/// stretched by up to +25 %, where the extra fraction is the keyed draw
/// ([`keyed_unit`]) of one word hashed from `(seed, src, dst, retries)`.
/// Without the jitter, pairs that lose packets on the same tick retransmit
/// in lockstep forever — synchronized WAN bursts hitting the same
/// congested link; with it their schedules decorrelate while staying
/// bit-reproducible for a given fault-plan seed.
pub fn jittered_backoff(base: Dur, seed: u64, src: Pe, dst: Pe, retries: u32) -> Dur {
    let key = seed ^ (u64::from(src.0) << 40) ^ (u64::from(dst.0) << 20) ^ u64::from(retries);
    let extra = (base.as_nanos() as f64 * 0.25 * keyed_unit(&[key])) as u64;
    Dur::from_nanos(base.as_nanos().saturating_add(extra))
}

/// A sent frame awaiting its ack: the copy, when it is next due, how
/// often it was resent, and whether its ack said the receiver holds it.
struct Pending<P> {
    payload: P,
    deadline: Time,
    retries: u32,
    held: bool,
}

/// The sending half of the pair `src -> dst`.
pub struct Sender<P> {
    src: Pe,
    dst: Pe,
    next_seq: u64,
    pending: BTreeMap<u64, Pending<P>>,
}

impl<P> Sender<P> {
    /// A pair with nothing sent.
    pub fn new(src: Pe, dst: Pe) -> Self {
        Sender { src, dst, next_seq: 0, pending: BTreeMap::new() }
    }

    /// The sequence number the next [`Sender::send`] takes (a frame's
    /// header carries it, so the caller needs it first).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Keep `payload` as frame [`Sender::next_seq`] until it is acked; its
    /// first copy goes out now.  Returns when it falls due for a resend.
    pub fn send(&mut self, payload: P, now: Time, rto: Dur) -> Time {
        let deadline = now + rto;
        self.pending.insert(self.next_seq, Pending { payload, deadline, retries: 0, held: false });
        self.next_seq += 1;
        deadline
    }

    /// An ack: every frame below `cum` arrived, and so did frame `held`,
    /// past the gap.  Returns the copies it retires — only those below
    /// `cum`: a held copy is kept, never resent, until the cumulative ack
    /// passes it.
    pub fn on_ack(&mut self, cum: u64, held: Option<u64>) -> impl Iterator<Item = P> {
        let kept = self.pending.split_off(&cum);
        let retired = std::mem::replace(&mut self.pending, kept);
        if let Some(p) = held.and_then(|seq| self.pending.get_mut(&seq)) {
            p.held = true;
        }
        retired.into_values().map(|p| p.payload)
    }

    /// The timer at `now`: every copy whose deadline passed and that the
    /// receiver is not known to hold is resent — `resend(seq, attempt,
    /// copy, next deadline)`, attempt `i` waiting `2^i × rto` plus jitter
    /// — or, once it has used `max_retries`, forgotten.  The first copy
    /// given up on is the error.
    pub fn on_timer(
        &mut self,
        now: Time,
        plan: &FaultPlan,
        mut resend: impl FnMut(u64, u32, &P, Time),
    ) -> Option<TransportError> {
        let (src, dst) = (self.src, self.dst);
        let mut error = None;
        self.pending.retain(|&seq, p| {
            if p.deadline > now || p.held {
                return true;
            }
            if p.retries >= plan.max_retries {
                error.get_or_insert(TransportError { src, dst, seq, attempts: p.retries + 1 });
                return false;
            }
            p.retries += 1;
            let base = plan.rto.checked_mul(1u64 << p.retries.min(20)).unwrap_or(plan.rto);
            p.deadline = now + jittered_backoff(base, plan.seed, src, dst, p.retries);
            resend(seq, p.retries, &p.payload, p.deadline);
            true
        });
        error
    }
}

/// What a [`Receiver`] answers a data frame with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Receipt {
    /// The cumulative ack to send back: every frame below it has arrived.
    pub cum: u64,
    /// The frame answered, when it is held past the gap at `cum`; `None`
    /// when `cum` covers it.
    pub held: Option<u64>,
    /// The frame had arrived before.
    pub duplicate: bool,
}

/// The receiving half of one pair.
pub struct Receiver<P> {
    expected: u64,
    buffer: BTreeMap<u64, P>,
    /// Test-only mutation: a duplicate leaks to the application instead of
    /// being dropped — the defect `mdo-check`'s exactly-once invariant
    /// must catch.  Never set outside a test harness.
    #[doc(hidden)]
    pub broken_dedup: bool,
}

impl<P> Default for Receiver<P> {
    fn default() -> Self {
        Receiver { expected: 0, buffer: BTreeMap::new(), broken_dedup: false }
    }
}

impl<P> Receiver<P> {
    /// Frame `seq` has arrived (released or buffered).
    pub fn holds(&self, seq: u64) -> bool {
        seq < self.expected || self.buffer.contains_key(&seq)
    }

    /// Data frame `seq` arrived: what it completes goes into `deliver`, in
    /// sequence order.
    pub fn on_frame(&mut self, seq: u64, payload: P, deliver: &mut impl Extend<P>) -> Receipt {
        if self.holds(seq) {
            if self.broken_dedup {
                deliver.extend(Some(payload));
            }
            return self.receipt(seq, true);
        }
        self.buffer.insert(seq, payload);
        let Receiver { expected, buffer, .. } = self;
        deliver.extend(std::iter::from_fn(|| {
            let p = buffer.remove(expected)?;
            *expected += 1;
            Some(p)
        }));
        self.receipt(seq, false)
    }

    /// The answer to frame `seq`, which the receiver now holds.
    fn receipt(&self, seq: u64, duplicate: bool) -> Receipt {
        Receipt { cum: self.expected, held: (seq >= self.expected).then_some(seq), duplicate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_netsim::{Fate, FaultWire, Harm};

    const MS: Dur = Dur::from_millis(1);

    fn at(ms: u64) -> Time {
        Time::ZERO + MS * ms
    }

    /// Sends `n` frames at t = 0 that all arrive; returns what the receiver
    /// delivered.  No ack reaches the sender.
    fn sent_and_arrived(n: u64, rx: &mut Receiver<u64>, tx: &mut Sender<u64>) -> Vec<u64> {
        let mut got = Vec::new();
        for i in 0..n {
            let seq = tx.next_seq();
            tx.send(i, at(0), MS * 5);
            rx.on_frame(seq, i, &mut got);
        }
        got
    }

    #[test]
    fn a_gap_holds_back_later_frames_until_the_repair() {
        let mut rx = Receiver::default();
        let mut got = Vec::new();
        let receipt = |cum, held, duplicate| Receipt { cum, held, duplicate };
        assert_eq!(rx.on_frame(0, 'a', &mut got), receipt(1, None, false));
        assert_eq!(rx.on_frame(2, 'c', &mut got), receipt(1, Some(2), false), "each ack names its held frame");
        assert_eq!(rx.on_frame(3, 'd', &mut got), receipt(1, Some(3), false));
        assert_eq!(rx.on_frame(3, 'd', &mut got), receipt(1, Some(3), true), "a held duplicate is named again");
        assert_eq!(got, ['a'], "frames past the gap wait");
        assert_eq!(rx.on_frame(1, 'b', &mut got), receipt(4, None, false));
        assert_eq!(got, ['a', 'b', 'c', 'd'], "the repair releases the pair in send order");
        assert_eq!(rx.on_frame(2, 'c', &mut got), receipt(4, None, true));
        assert_eq!(got.len(), 4, "a duplicate is answered, never delivered");
    }

    #[test]
    fn an_ack_spares_its_frame_however_far_past_the_gap_it_sits() {
        // Frame 2 is lost, frames 3..200 arrive and are acked, most of them
        // more than 64 past the gap: when the timer fires, only frame 2
        // goes out again.
        let (n, plan) = (200u64, FaultPlan::default().with_rto(MS * 5));
        let (mut tx, mut rx) = (Sender::new(Pe(0), Pe(1)), Receiver::default());
        let mut got = Vec::new();
        for i in 0..n {
            let seq = tx.next_seq();
            tx.send(i, at(0), plan.rto);
            if seq != 2 {
                let receipt = rx.on_frame(seq, i, &mut got);
                assert_eq!(tx.on_ack(receipt.cum, receipt.held).count() as u64, u64::from(seq < 2));
            }
        }
        assert_eq!(got, [0, 1], "frames past the gap wait");
        let mut resent = Vec::new();
        assert_eq!(tx.on_timer(at(5), &plan, |seq, attempt, _, _| resent.push((seq, attempt))), None);
        assert_eq!(resent, [(2, 1)], "only the lost frame is resent, as its second attempt");
        let receipt = rx.on_frame(2, 2, &mut got);
        assert_eq!((receipt.cum, receipt.held), (n, None));
        assert_eq!(tx.on_ack(receipt.cum, receipt.held).count() as u64, n - 2, "the repair's ack retires the rest");
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn lost_acks_race_retransmits_but_delivery_stays_exactly_once() {
        // Every first-copy ack is lost: the timer resends frames the
        // receiver already released, and recovery comes from the re-ack a
        // duplicate draws — the ack/retransmit race, both sides.
        let n = 20;
        let (mut tx, mut rx) = (Sender::new(Pe(0), Pe(1)), Receiver::default());
        let mut got = sent_and_arrived(n, &mut rx, &mut tx);
        let plan = FaultPlan::default().with_rto(MS * 5);
        let mut resent = Vec::new();
        assert_eq!(tx.on_timer(at(4), &plan, |seq, _, _, _| resent.push(seq)), None);
        assert!(resent.is_empty(), "nothing is due before the rto");
        assert_eq!(tx.on_timer(at(5), &plan, |seq, _, _, _| resent.push(seq)), None);
        assert_eq!(resent, (0..n).collect::<Vec<_>>(), "every unacked frame was resent");
        let mut last = None;
        for &seq in &resent {
            let receipt = rx.on_frame(seq, seq, &mut got);
            assert!(receipt.duplicate, "the raced copy of {seq} hit the dedup path");
            last = Some(receipt.cum);
        }
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "raced retransmits never reach the application");
        assert_eq!(tx.on_ack(last.unwrap(), None).count() as u64, n, "the duplicates' re-ack retires every copy");
        assert_eq!(tx.on_timer(at(1000), &plan, |_, _, _, _| panic!("nothing left to resend")), None);
    }

    #[test]
    fn broken_dedup_mutation_leaks_duplicates() {
        // The same race with the hidden mutation armed: the raced copies
        // leak to the application — the defect mdo-check exists to catch.
        let n = 8;
        let (mut tx, mut rx) = (Sender::new(Pe(0), Pe(1)), Receiver { broken_dedup: true, ..Receiver::default() });
        let mut got = sent_and_arrived(n, &mut rx, &mut tx);
        let plan = FaultPlan::default().with_rto(MS * 5);
        let mut resent = Vec::new();
        tx.on_timer(at(5), &plan, |seq, _, &copy, _| resent.push((seq, copy)));
        for (seq, copy) in resent {
            rx.on_frame(seq, copy, &mut got);
        }
        assert!(got.len() as u64 > n, "broken dedup delivered duplicates ({} for {} sends)", got.len(), n);
        for i in 0..n {
            assert!(got.contains(&i), "original message {i} still delivered");
        }
    }

    #[test]
    fn retransmits_back_off_with_jitter_then_give_up() {
        let rto = MS * 10;
        let plan = FaultPlan::default().with_rto(rto).with_max_retries(3).with_seed(11);
        let mut tx = Sender::new(Pe(0), Pe(9));
        let mut due = tx.send('x', at(0), rto);
        assert_eq!(due, at(10));
        for retry in 1..=3u32 {
            let mut next = None;
            assert_eq!(tx.on_timer(due, &plan, |seq, attempt, _, d| next = Some((seq, attempt, d))), None);
            let base = rto * (1u64 << retry);
            let want = due + jittered_backoff(base, plan.seed, Pe(0), Pe(9), retry);
            assert_eq!(next, Some((0, retry, want)), "retry {retry} waits 2^{retry} rto plus the pair's jitter");
            assert!(want - due >= base && want - due <= base + base / 4, "jitter within [base, base + 25%]");
            due = want;
        }
        let err = tx.on_timer(due, &plan, |_, _, _, _| panic!("the budget is spent")).expect("gave up");
        assert_eq!((err.src, err.dst, err.seq, err.attempts), (Pe(0), Pe(9), 0, 4));
        assert_eq!(tx.on_ack(1, None).count(), 0, "a copy given up on is forgotten");
    }

    #[test]
    fn every_loss_costs_one_retransmit() {
        // Drive one pair over a 20 % lossy wire, resending each frame
        // until it gets through: retransmits per message tend to
        // p / (1 - p) = 0.25.
        let plan = FaultPlan::loss(0.2).with_seed(3).with_rto(MS);
        let mut wire = FaultWire::new(plan.clone());
        let mut tx = Sender::new(Pe(0), Pe(8));
        let (n, mut retransmits) = (20_000u64, 0u64);
        for i in 0..n {
            let seq = tx.next_seq();
            let mut due = tx.send(i, at(0), plan.rto);
            let mut fate = wire.transmit(Pe(0), Pe(8), seq, 0, Dur::ZERO, i);
            while fate == Fate::Lost {
                let mut copy = None;
                assert_eq!(tx.on_timer(due, &plan, |_, a, &c, d| copy = Some((a, c, d))), None);
                let (attempt, c, d) = copy.expect("the lost frame fell due");
                (retransmits, due) = (retransmits + 1, d);
                fate = wire.transmit(Pe(0), Pe(8), seq, attempt, Dur::ZERO, c);
            }
            assert_eq!(fate, Fate::Through { item: i, harm: Harm::None, released: None });
            assert_eq!(tx.on_ack(seq + 1, None).count(), 1);
        }
        let per_msg = retransmits as f64 / n as f64;
        assert!((per_msg - 0.25).abs() < 0.02, "retransmits/msg = {per_msg}");
        assert_eq!(retransmits, wire.stats().dropped);
    }
}
