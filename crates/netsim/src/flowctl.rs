//! Flow-control and overload policy shared by both engines.
//!
//! The paper masks WAN latency by keeping many chares' messages in flight,
//! but nothing in the runtime bounds *how much* can be in flight: a sender
//! faster than the wide-area drain turns latency masking into unbounded
//! queue growth.  MPWide's WAN experience (PAPERS.md) is that the wide-area
//! hop needs explicit sender-side pacing.  [`FlowConfig`] is the
//! engine-neutral knob, and the per-pair credit arithmetic behind it exists
//! once (`mdo_vmi::credit::CreditLedger`): the wall-clock engine runs the
//! ledger at the VMI seam (credit grants ride on the reliable layer's
//! acks; senders stall or shed when the window is exhausted), while
//! `SimEngine` runs the same ledger in virtual time so credit stalls and
//! sheds are deterministic and explorable by `mdo-check`.
//!
//! System/control traffic (heartbeats, quiescence probes, checkpoint and
//! load-balancing control) is never shed and never waits for credit — the
//! same urgency split the aggregation layer uses — so collective progress
//! and failure detection stay live even under saturation.

/// What a sender does when the credit window for a (src, dst) pair is
/// exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Stall the sender until credits return.  Delivery stays lossless and
    /// application digests are unchanged; overload becomes slowdown.
    Block,
    /// Drop sheddable application envelopes at the send site, with
    /// structured accounting, for as long as the pair's window is shut.
    /// System/control traffic is never shed.  Throughput degrades gracefully instead of queues
    /// growing without bound — the right trade for open-loop sources that
    /// backpressure cannot reach.
    Shed,
}

/// Policy for end-to-end backpressure across the wide-area seam.
///
/// Each cross-cluster (src, dst) pair may have at most `credit_bytes` of
/// payload in flight (sent but not yet acknowledged by the receiver); a
/// receiving PE with more than `mailbox_bytes` of delivered payload queued
/// advertises no headroom, which shuts its senders' windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowConfig {
    /// Per-(src, dst) credit window: the maximum unacknowledged payload
    /// bytes in flight across the WAN for one pair.
    pub credit_bytes: u64,
    /// Per-PE mailbox byte budget (payload bytes queued for delivery): the
    /// headroom a receiver advertises on its acks is this minus what is
    /// queued.
    pub mailbox_bytes: usize,
    /// What happens when a window is exhausted.
    pub policy: OverloadPolicy,
}

impl Default for FlowConfig {
    /// A 64 KiB per-pair window (a few bandwidth-delay products at the
    /// paper's millisecond latencies), a 256 KiB mailbox budget, and
    /// lossless `Block` semantics.
    fn default() -> Self {
        FlowConfig { credit_bytes: 64 * 1024, mailbox_bytes: 256 * 1024, policy: OverloadPolicy::Block }
    }
}

impl FlowConfig {
    /// Policy with an explicit per-pair credit window.
    pub fn with_credit_bytes(mut self, credit_bytes: u64) -> Self {
        self.credit_bytes = credit_bytes;
        self
    }

    /// Policy with an explicit per-PE mailbox byte budget.
    pub fn with_mailbox_bytes(mut self, mailbox_bytes: usize) -> Self {
        self.mailbox_bytes = mailbox_bytes;
        self
    }

    /// Policy with an explicit overload behavior.
    pub fn with_policy(mut self, policy: OverloadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// True if senders shed rather than stall under overload.
    pub fn sheds(&self) -> bool {
        self.policy == OverloadPolicy::Shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = FlowConfig::default();
        assert_eq!(cfg.credit_bytes, 64 * 1024);
        assert_eq!(cfg.mailbox_bytes, 256 * 1024);
        assert_eq!(cfg.policy, OverloadPolicy::Block);
        assert!(!cfg.sheds());
        assert!(
            cfg.credit_bytes as usize <= cfg.mailbox_bytes,
            "one pair's in-flight window fits the destination budget"
        );
    }

    #[test]
    fn builders_override() {
        let cfg =
            FlowConfig::default().with_credit_bytes(1024).with_mailbox_bytes(2048).with_policy(OverloadPolicy::Shed);
        assert_eq!(cfg.credit_bytes, 1024);
        assert_eq!(cfg.mailbox_bytes, 2048);
        assert!(cfg.sheds());
    }
}
