//! The credit ledger: who may put how many bytes in flight across the WAN.
//!
//! One sender-side balance per cross-cluster (src, dst) pair, at most one
//! configured window of unacknowledged payload bytes each.  The ledger
//! is plain data — no lock, no clock, no thread — so the two engines run
//! the same arithmetic: [`crate::reliable`] keeps it behind the mutex and
//! condvar its senders stall on and feeds it acks from the wire, the
//! virtual-time simulator owns one outright and releases at the receiver's
//! dequeue.  What happens when a send is not admitted (stall, defer, shed)
//! is the caller's policy; the ledger only answers and records.

use std::collections::HashMap;

/// Sender-side credit balance of one (src, dst) pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CreditState {
    /// Latest grant from the receiver, clamped to the configured window.
    pub granted: u64,
    /// Unacknowledged payload bytes in flight.
    pub in_flight: u64,
}

impl CreditState {
    /// A fresh pair: a full window, nothing in flight.
    pub fn fresh(window: u64) -> Self {
        CreditState { granted: window, in_flight: 0 }
    }

    /// Payload bytes this pair may still put in flight.  Saturating — a
    /// hostile grant can shrink the window below what is already in
    /// flight, but the balance never goes negative.
    pub fn available(&self, window: u64) -> u64 {
        self.granted.min(window).saturating_sub(self.in_flight)
    }
}

/// Apply a receiver's `grant` (payload bytes the pair may have in
/// flight) to the pair's sender-side state.  Clamped to the configured
/// window, so a hostile grant from another process cannot open the
/// window wider than configured; total — never a panic, never a
/// negative balance.
pub fn apply_grant(state: &mut CreditState, grant: u64, window: u64) {
    state.granted = grant.min(window);
}

/// Every pair's balance under one configured window.  A pair enters the
/// books at its first [`CreditLedger::consume`]; until then it reads as
/// fresh (a full window).
#[derive(Clone, Debug)]
pub struct CreditLedger {
    window: u64,
    pairs: HashMap<(u32, u32), CreditState>,
}

impl CreditLedger {
    /// An empty ledger whose pairs each get `window` payload bytes.
    pub fn new(window: u64) -> Self {
        CreditLedger { window, pairs: HashMap::new() }
    }

    /// The pair's balance, if it has sent.
    pub fn state(&self, pair: (u32, u32)) -> Option<CreditState> {
        self.pairs.get(&pair).copied()
    }

    /// Payload bytes the pair may still put in flight.
    pub fn available(&self, pair: (u32, u32)) -> u64 {
        self.pairs.get(&pair).map_or(self.window, |st| st.available(self.window))
    }

    /// Whether `bytes` more may depart now: they fit the balance, or the
    /// pair is idle — a send larger than the whole window (or arriving
    /// after a zero grant) is admitted once nothing is in flight, so it
    /// can never wedge the pair.
    pub fn admits(&self, pair: (u32, u32), bytes: u64) -> bool {
        self.pairs.get(&pair).is_none_or(|st| st.available(self.window) >= bytes || st.in_flight == 0)
    }

    /// Put `bytes` in flight.  Unconditional: callers that overrun the
    /// window on purpose (urgent traffic under `Shed`, a sender whose
    /// stall timed out) still have to be released later.
    pub fn consume(&mut self, pair: (u32, u32), bytes: u64) {
        self.pairs.entry(pair).or_insert_with(|| CreditState::fresh(self.window)).in_flight += bytes;
    }

    /// Take `bytes` back out of flight.  Saturating — a duplicated ack may
    /// claim more than is outstanding — and a no-op for a pair that never
    /// sent.
    pub fn release(&mut self, pair: (u32, u32), bytes: u64) {
        if let Some(st) = self.pairs.get_mut(&pair) {
            st.in_flight = st.in_flight.saturating_sub(bytes);
        }
    }

    /// Apply a receiver's grant ([`apply_grant`]); a no-op for a pair that
    /// never sent.
    pub fn grant(&mut self, pair: (u32, u32), grant: u64) {
        if let Some(st) = self.pairs.get_mut(&pair) {
            apply_grant(st, grant, self.window);
        }
    }

    /// Forget every pair (a generation whose PE numbering is gone).
    pub fn reset(&mut self) {
        self.pairs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 1000;
    const AB: (u32, u32) = (0, 1);

    #[test]
    fn admission_table() {
        // (in flight, asked) -> admitted, under a 1000-byte window.
        for (in_flight, bytes, admitted) in [
            (0, 1000, true),  // fits exactly
            (400, 600, true), // fits the remainder
            (400, 601, false),
            (0, 5000, true), // idle pair admits an oversized send
            (1, 5000, false),
            (1000, 1, false),
        ] {
            let mut l = CreditLedger::new(W);
            assert!(l.admits(AB, bytes), "a pair that never sent is idle");
            l.consume(AB, in_flight);
            assert_eq!(l.admits(AB, bytes), admitted, "{bytes} B with {in_flight} B in flight");
        }
    }

    #[test]
    fn zero_grant_on_an_idle_pair_admits_one_send_then_shuts() {
        let mut l = CreditLedger::new(W);
        l.consume(AB, 10);
        l.release(AB, 10);
        l.grant(AB, 0);
        assert_eq!(l.available(AB), 0);
        assert!(l.admits(AB, 10), "nothing in flight: progress beats the shut window");
        l.consume(AB, 10);
        assert!(!l.admits(AB, 1), "and then it is shut");
    }

    #[test]
    fn release_saturates_and_ignores_unknown_pairs() {
        let mut l = CreditLedger::new(W);
        l.release(AB, 50);
        assert_eq!(l.state(AB), None);
        l.consume(AB, 30);
        l.release(AB, 50);
        assert_eq!(l.state(AB), Some(CreditState::fresh(W)));
    }

    #[test]
    fn grants_are_clamped_and_ignored_for_unknown_pairs() {
        let mut l = CreditLedger::new(W);
        l.grant(AB, 1);
        assert_eq!(l.state(AB), None, "a pair that never sent stays out of the books");
        l.consume(AB, 400);
        l.grant(AB, u64::MAX);
        assert_eq!(l.available(AB), 600, "clamped to the window");
        l.grant(AB, 100);
        assert_eq!(l.available(AB), 0, "a window shrunk below in-flight saturates");
    }

    #[test]
    fn reset_forgets_every_pair() {
        let mut l = CreditLedger::new(W);
        for pair in [(0, 1), (1, 2), (2, 0)] {
            l.consume(pair, 700);
            l.grant(pair, 700);
        }
        l.reset();
        assert_eq!(l.state((2, 0)), None);
        assert_eq!(l.available((2, 0)), W);
        assert!(l.admits((0, 1), W), "a full window again");
    }
}
