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

/// A credit grant riding on a cumulative ack: "generation `gen` of this
/// pair may have up to `grant` unacknowledged payload bytes in flight".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditGrant {
    /// The pair generation the grant belongs to (stale generations are
    /// rejected — a grant from a peer's previous life must not open the
    /// window of its successor).
    pub gen: u32,
    /// Advertised window in payload bytes.
    pub grant: u64,
}

/// Sender-side credit balance of one (src, dst) pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CreditState {
    /// Current pair generation (bumped by [`CreditLedger::reset_peer`]).
    pub gen: u32,
    /// Latest grant from the receiver, clamped to the configured window.
    pub granted: u64,
    /// Unacknowledged payload bytes in flight.
    pub in_flight: u64,
}

impl CreditState {
    /// A fresh pair: a full window, nothing in flight.
    pub fn fresh(window: u64) -> Self {
        CreditState { gen: 0, granted: window, in_flight: 0 }
    }

    /// Payload bytes this pair may still put in flight.  Saturating — a
    /// hostile grant can shrink the window below what is already in
    /// flight, but the balance never goes negative.
    pub fn available(&self, window: u64) -> u64 {
        self.granted.min(window).saturating_sub(self.in_flight)
    }
}

/// What applying a received grant did to the pair state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrantOutcome {
    /// The grant matched the current generation and was applied (clamped
    /// to the configured window, so an overflowing grant cannot open the
    /// window wider than configured).
    Applied,
    /// The grant named a different generation and was ignored.
    StaleGeneration,
}

/// Apply a decoded grant to a pair's sender-side state.  Total: every
/// input produces either an applied (clamped) grant or a structured
/// rejection — never a panic, never a negative balance.
pub fn apply_grant(state: &mut CreditState, grant: CreditGrant, window: u64) -> GrantOutcome {
    if grant.gen != state.gen {
        return GrantOutcome::StaleGeneration;
    }
    state.granted = grant.grant.min(window);
    GrantOutcome::Applied
}

/// Every pair's balance under one configured window.  A pair enters the
/// books at its first [`CreditLedger::consume`]; until then it reads as
/// fresh (a full window, generation 0).
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

    /// Apply a receiver's grant ([`apply_grant`]); `None` for a pair that
    /// never sent.
    pub fn grant(&mut self, pair: (u32, u32), grant: CreditGrant) -> Option<GrantOutcome> {
        let window = self.window;
        self.pairs.get_mut(&pair).map(|st| apply_grant(st, grant, window))
    }

    /// `pe` restarted: every pair naming it (either side) reopens with a
    /// full window and nothing in flight, in a new generation — grants
    /// from its previous life are recognizably stale, and in-flight bytes
    /// that will never be acked are forgotten.
    pub fn reset_peer(&mut self, pe: u32) {
        for (_, st) in self.pairs.iter_mut().filter(|(&(src, dst), _)| src == pe || dst == pe) {
            *st = CreditState { gen: st.gen.wrapping_add(1), ..CreditState::fresh(self.window) };
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
        assert_eq!(l.grant(AB, CreditGrant { gen: 0, grant: 0 }), Some(GrantOutcome::Applied));
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
    fn grants_are_clamped_and_stale_generations_ignored() {
        let mut l = CreditLedger::new(W);
        assert_eq!(l.grant(AB, CreditGrant { gen: 0, grant: 1 }), None, "unknown pair");
        l.consume(AB, 400);
        assert_eq!(l.grant(AB, CreditGrant { gen: 0, grant: u64::MAX }), Some(GrantOutcome::Applied));
        assert_eq!(l.available(AB), 600, "clamped to the window");
        let before = l.state(AB);
        assert_eq!(l.grant(AB, CreditGrant { gen: 1, grant: 5 }), Some(GrantOutcome::StaleGeneration));
        assert_eq!(l.state(AB), before, "a stale grant is a no-op");
        assert_eq!(l.grant(AB, CreditGrant { gen: 0, grant: 100 }), Some(GrantOutcome::Applied));
        assert_eq!(l.available(AB), 0, "a window shrunk below in-flight saturates");
    }

    #[test]
    fn reset_peer_reopens_only_pairs_naming_that_pe() {
        let mut l = CreditLedger::new(W);
        for pair in [(0, 1), (1, 2), (2, 0)] {
            l.consume(pair, 700);
            l.grant(pair, CreditGrant { gen: 0, grant: 700 });
        }
        l.reset_peer(1);
        let reopened = CreditState { gen: 1, ..CreditState::fresh(W) };
        assert_eq!(l.state((0, 1)), Some(reopened));
        assert_eq!(l.state((1, 2)), Some(reopened));
        assert_eq!(l.state((2, 0)), Some(CreditState { gen: 0, granted: 700, in_flight: 700 }));
        assert_eq!(l.grant((0, 1), CreditGrant { gen: 0, grant: 0 }), Some(GrantOutcome::StaleGeneration));
        l.reset();
        assert_eq!(l.state((2, 0)), None);
        assert_eq!(l.available((2, 0)), W);
    }
}
