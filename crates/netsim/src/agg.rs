//! Aggregation policy shared by both engines.
//!
//! The paper's regime of interest — high virtualization, many small
//! messages (§4) — is exactly where per-message overhead dominates, and
//! MPWide-style packing of small messages into larger frames is the known
//! cure for WAN paths.  [`AggConfig`] is the engine-neutral policy knob:
//! the threaded engine hands it to the VMI aggregation layer (real jumbo
//! frames over the cross-cluster chain), while `SimEngine` applies the
//! same buffer/flush rules in virtual time so both engines agree on what
//! aggregation *means* even though only one moves real bytes.

use crate::time::Dur;

/// A single envelope of at least this many bytes flushes its buffer
/// immediately: coalescing exists to amortize per-message overhead for
/// *small* messages, and holding a bulk message (or making one wait on a
/// deadline) costs more pipelining than frame headers save.
pub const EAGER_BYTES: usize = 1024;

/// Policy for per-destination coalescing of cross-cluster messages.
///
/// Envelopes bound for the same remote PE accumulate in a frame buffer
/// until either `max_bytes` of payload is buffered (flush-by-size) or
/// `max_delay` has elapsed since the buffer opened (flush-by-deadline).
/// The deadline bound is what keeps quiescence detection and AtSync
/// barriers live: a non-empty buffer is never held longer than
/// `max_delay`, and system-critical messages force an immediate flush.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggConfig {
    /// Flush once this many payload bytes are buffered for one (src, dst)
    /// pair.
    pub max_bytes: usize,
    /// Flush a non-empty buffer no later than this long after it opened.
    pub max_delay: Dur,
}

impl Default for AggConfig {
    /// 8 KiB frames and a 200 µs deadline — frames comfortably amortize
    /// the per-message header/ack cost for the fine-grain regime, and the
    /// deadline is an order of magnitude below the multi-ms WAN latencies
    /// the paper studies.  Bulk messages ([`EAGER_BYTES`]) skip the
    /// batching delay entirely.
    fn default() -> Self {
        AggConfig { max_bytes: 8192, max_delay: Dur::from_micros(200) }
    }
}

impl AggConfig {
    /// Policy with an explicit size threshold.
    pub fn with_max_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Policy with an explicit flush deadline.
    pub fn with_max_delay(mut self, max_delay: Dur) -> Self {
        self.max_delay = max_delay;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = AggConfig::default();
        assert_eq!(cfg.max_bytes, 8192);
        assert_eq!(cfg.max_delay, Dur::from_micros(200));
        assert!(EAGER_BYTES < cfg.max_bytes, "bulk cutoff below the frame threshold");
    }

    #[test]
    fn builders_override() {
        let cfg = AggConfig::default().with_max_bytes(512).with_max_delay(Dur::from_micros(250));
        assert_eq!(cfg.max_bytes, 512);
        assert_eq!(cfg.max_delay, Dur::from_micros(250));
    }
}
