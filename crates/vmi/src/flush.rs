//! The aggregation flush policy: when one (src, dst) buffer ships, and what
//! the frame it ships amounts to.
//!
//! [`PairFill`] is the fill state of one buffer — plain data, events in,
//! decisions out, time passed in as a [`Time`] on whatever clock the caller
//! runs.  It holds no envelopes and moves no bytes: [`crate::aggregate`]
//! drives it with wall time since start, a [`crate::frame::FrameBuilder`]
//! for the bytes and a flusher thread for the tick; the virtual-time
//! simulator drives it with virtual time, a `Vec` of envelopes and a
//! deadline event.  Both therefore flush at the same envelope and book the
//! same numbers for the same traffic.

use mdo_netsim::{AggConfig, Time};

use crate::frame::CHUNK_HEADER_LEN;
use crate::reliable::HEADER_LEN;

/// Why a frame was flushed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushCause {
    /// A body of at least `eager_bytes` joined, or `max_bytes` are buffered.
    Size,
    /// The buffer has been open for `max_delay`.
    Deadline,
    /// An urgent (system) envelope joined.
    Urgent,
    /// A barrier or shutdown drained the buffer.
    Final,
}

/// What pushing one envelope decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Push {
    /// The push opened the buffer: it must be looked at again (see
    /// [`PairFill::expired`]) no later than this.
    pub arm: Option<Time>,
    /// The buffer, this envelope included, ships now.
    pub flush: Option<FlushCause>,
}

/// What a flushed frame amounted to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameTally {
    /// Envelopes aboard.
    pub envelopes: u64,
    /// The frame on the wire: its tag, per-chunk framing and the bodies.
    pub wire_bytes: u64,
    /// Reliable-layer framing saved against shipping every envelope alone.
    pub bytes_saved: u64,
}

/// Fill state of one (src, dst) accumulation buffer.
#[derive(Clone, Copy, Debug, Default)]
pub struct PairFill {
    /// When the oldest buffered envelope joined — the deadline clock.
    opened: Option<Time>,
    envelopes: u64,
    /// Buffered body bytes, framing excluded: what `max_bytes` thresholds.
    bytes: u64,
}

impl PairFill {
    /// One envelope of `body_len` bytes joins the buffer.  `now` is asked
    /// only when this opens the buffer, so a warm send path reads no clock.
    pub fn push(&mut self, cfg: &AggConfig, urgent: bool, body_len: usize, now: impl FnOnce() -> Time) -> Push {
        let arm = self.opened.is_none().then(|| {
            let now = now();
            self.opened = Some(now);
            now + cfg.max_delay
        });
        self.envelopes += 1;
        self.bytes += body_len as u64;
        let flush = if urgent {
            Some(FlushCause::Urgent)
        } else if body_len >= cfg.eager_bytes || self.bytes >= cfg.max_bytes as u64 {
            // Bulk messages ship at once — batching them behind a deadline
            // (or making small ones wait for them) defeats pipelining.
            Some(FlushCause::Size)
        } else {
            None
        };
        Push { arm, flush }
    }

    /// True once an open buffer has waited `max_delay`: flush it with
    /// [`FlushCause::Deadline`].
    pub fn expired(&self, cfg: &AggConfig, now: Time) -> bool {
        self.opened.is_some_and(|t| now.saturating_since(t) >= cfg.max_delay)
    }

    /// The buffer shipped: close it and tally the frame (`None` if it was
    /// empty).
    pub fn take(&mut self) -> Option<FrameTally> {
        let PairFill { envelopes, bytes, .. } = std::mem::take(self);
        // Wire framing each envelope would have paid standalone (a reliable
        // data header plus its own ack frame) minus what the jumbo frame
        // pays once (one header + one ack + per-chunk framing).
        let standalone = envelopes * 2 * HEADER_LEN as u64;
        let chunk_framing = 1 + envelopes * CHUNK_HEADER_LEN as u64;
        let bytes_saved = standalone.saturating_sub(2 * HEADER_LEN as u64 + chunk_framing);
        (envelopes > 0).then_some(FrameTally { envelopes, wire_bytes: chunk_framing + bytes, bytes_saved })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_netsim::Dur;

    fn cfg() -> AggConfig {
        AggConfig::default().with_max_bytes(100).with_eager_bytes(40).with_max_delay(Dur::from_micros(50))
    }

    fn at(us: u64) -> Time {
        Time::ZERO + Dur::from_micros(us)
    }

    #[test]
    fn a_filling_arms_exactly_one_deadline() {
        let mut f = PairFill::default();
        assert_eq!(f.push(&cfg(), false, 10, || at(7)), Push { arm: Some(at(57)), flush: None });
        let no_clock = || -> Time { panic!("an open buffer reads no clock") };
        assert_eq!(f.push(&cfg(), false, 10, no_clock), Push { arm: None, flush: None });
        assert_eq!(f.push(&cfg(), false, 10, no_clock), Push { arm: None, flush: None });
        assert_eq!(f.take().map(|t| t.envelopes), Some(3));
        assert_eq!(f.push(&cfg(), false, 10, || at(9)).arm, Some(at(59)), "the next filling arms its own");
    }

    #[test]
    fn flush_decision_table() {
        // (bodies already buffered, urgent, body) -> decision
        for (before, urgent, body, flush) in [
            (&[][..], true, 1, Some(FlushCause::Urgent)), // also into an empty buffer
            (&[10, 10], true, 1, Some(FlushCause::Urgent)),
            (&[10], true, 4000, Some(FlushCause::Urgent)), // urgency outranks size
            (&[], false, 39, None),
            (&[], false, 40, Some(FlushCause::Size)), // body >= eager_bytes
            (&[30, 30], false, 39, None),             // 99 buffered
            (&[30, 30, 1], false, 39, Some(FlushCause::Size)), // reaches max_bytes
        ] {
            let mut f = PairFill::default();
            for &b in before {
                assert_eq!(f.push(&cfg(), false, b, || at(0)).flush, None);
            }
            assert_eq!(f.push(&cfg(), urgent, body, || at(0)).flush, flush, "{before:?} + {body} (urgent: {urgent})");
        }
    }

    #[test]
    fn expiry_is_at_exactly_max_delay() {
        let mut f = PairFill::default();
        assert!(!f.expired(&cfg(), Time::MAX), "an empty buffer never expires");
        f.push(&cfg(), false, 1, || at(100));
        assert!(!f.expired(&cfg(), at(0)), "a clock read before the buffer opened");
        assert!(!f.expired(&cfg(), at(150) - Dur::from_nanos(1)));
        assert!(f.expired(&cfg(), at(150)));
        f.take();
        assert!(!f.expired(&cfg(), at(150)), "a flushed buffer is closed");
    }

    #[test]
    fn tally_of_one_and_of_sixteen() {
        let mut f = PairFill::default();
        assert_eq!(f.take(), None);
        f.push(&cfg(), false, 32, || at(0));
        // Alone in a frame an envelope saves nothing: 18 standalone < 27 framed.
        assert_eq!(f.take(), Some(FrameTally { envelopes: 1, wire_bytes: 1 + 8 + 32, bytes_saved: 0 }));
        let wide = AggConfig::default();
        for _ in 0..16 {
            f.push(&wide, false, 32, || at(0));
        }
        let tally =
            FrameTally { envelopes: 16, wire_bytes: 1 + 16 * (8 + 32), bytes_saved: 16 * 18 - (18 + 1 + 16 * 8) };
        assert_eq!(f.take(), Some(tally));
    }
}
