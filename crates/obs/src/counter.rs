//! Named monotonic counters behind one registry.
//!
//! Both engines keep a [`CounterSet`] and bump it at the same places they
//! update their run-report tallies — the report fields are *read back
//! from* the registry at the end of the run, so the two can never drift
//! apart.

/// Everything the runtime counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Ctr {
    /// Envelopes handed to the transport.
    MsgsSent,
    /// Envelopes delivered to a PE's scheduler.
    MsgsRecvd,
    /// Envelope bytes handed to the transport.
    BytesSent,
    /// Cross-cluster envelopes handed to the transport.
    WanMsgsSent,
    /// Cross-cluster envelopes delivered.
    WanMsgsRecvd,
    /// Handler execution spans.
    Handlers,
    /// Scheduler busy→idle transitions.
    IdleTransitions,
    /// Packets dropped by fault injection.
    Drops,
    /// Retransmissions by the reliable layer.
    Retransmits,
    /// Duplicate packets discarded by the reliable layer.
    DupDropped,
    /// Packets rejected by checksum or decode.
    CorruptRejected,
    /// Packets delivered out of order by fault injection.
    Reordered,
    /// PE failures detected.
    FailuresDetected,
    /// Successful shrink-restart recoveries.
    Recoveries,
    /// AtSync rounds re-executed across recoveries.
    StepsReplayed,
    /// Buddy-checkpoint epochs completed.
    CheckpointsTaken,
    /// Packed element bytes shipped to buddies.
    CheckpointBytes,
    /// Jumbo frames shipped by the aggregation layer.
    FramesSent,
    /// Envelopes that travelled coalesced inside jumbo frames.
    EnvelopesCoalesced,
    /// Wire framing bytes saved by coalescing vs standalone sends.
    FrameBytesSaved,
    /// Frames flushed because the size threshold was reached.
    FlushBySize,
    /// Frames flushed by the aggregation deadline timer.
    FlushByDeadline,
    /// PEs admitted by expand/rejoin.
    PesJoined,
    /// Times the continuous feedback balancer decided to rebalance.
    RebalanceTriggers,
    /// Objects moved by load balancing (AtSync strategies and the
    /// feedback balancer alike).
    ObjectsMigrated,
    /// Topology generations the run went through (1 + shrinks + expands).
    Generations,
    /// Times a sender found its cross-WAN credit window exhausted and had
    /// to stall (Block) or divert (Shed).
    CreditStalls,
    /// Nanoseconds senders spent blocked waiting for credit to return.
    CreditWaitNs,
    /// Application envelopes dropped by the `Shed` overload policy
    /// (system/control traffic is never shed).
    EnvelopesShed,
    /// Payload bytes dropped by the `Shed` overload policy.
    ShedBytes,
    /// Condvar/parker signals issued by mailbox producers.  With batched
    /// wakeups a burst of N posts costs O(1) signals, so this stays far
    /// below `msgs_recvd` under load.
    MailboxSignals,
}

impl Ctr {
    /// Every counter, in declaration order.
    pub const ALL: [Ctr; 31] = [
        Ctr::MsgsSent,
        Ctr::MsgsRecvd,
        Ctr::BytesSent,
        Ctr::WanMsgsSent,
        Ctr::WanMsgsRecvd,
        Ctr::Handlers,
        Ctr::IdleTransitions,
        Ctr::Drops,
        Ctr::Retransmits,
        Ctr::DupDropped,
        Ctr::CorruptRejected,
        Ctr::Reordered,
        Ctr::FailuresDetected,
        Ctr::Recoveries,
        Ctr::StepsReplayed,
        Ctr::CheckpointsTaken,
        Ctr::CheckpointBytes,
        Ctr::FramesSent,
        Ctr::EnvelopesCoalesced,
        Ctr::FrameBytesSaved,
        Ctr::FlushBySize,
        Ctr::FlushByDeadline,
        Ctr::PesJoined,
        Ctr::RebalanceTriggers,
        Ctr::ObjectsMigrated,
        Ctr::Generations,
        Ctr::CreditStalls,
        Ctr::CreditWaitNs,
        Ctr::EnvelopesShed,
        Ctr::ShedBytes,
        Ctr::MailboxSignals,
    ];

    /// Stable snake_case name, used in CSV and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Ctr::MsgsSent => "msgs_sent",
            Ctr::MsgsRecvd => "msgs_recvd",
            Ctr::BytesSent => "bytes_sent",
            Ctr::WanMsgsSent => "wan_msgs_sent",
            Ctr::WanMsgsRecvd => "wan_msgs_recvd",
            Ctr::Handlers => "handlers",
            Ctr::IdleTransitions => "idle_transitions",
            Ctr::Drops => "drops",
            Ctr::Retransmits => "retransmits",
            Ctr::DupDropped => "dup_dropped",
            Ctr::CorruptRejected => "corrupt_rejected",
            Ctr::Reordered => "reordered",
            Ctr::FailuresDetected => "failures_detected",
            Ctr::Recoveries => "recoveries",
            Ctr::StepsReplayed => "steps_replayed",
            Ctr::CheckpointsTaken => "checkpoints_taken",
            Ctr::CheckpointBytes => "checkpoint_bytes",
            Ctr::FramesSent => "frames_sent",
            Ctr::EnvelopesCoalesced => "envelopes_coalesced",
            Ctr::FrameBytesSaved => "frame_bytes_saved",
            Ctr::FlushBySize => "flush_by_size",
            Ctr::FlushByDeadline => "flush_by_deadline",
            Ctr::PesJoined => "pes_joined",
            Ctr::RebalanceTriggers => "rebalance_triggers",
            Ctr::ObjectsMigrated => "objects_migrated",
            Ctr::Generations => "generations",
            Ctr::CreditStalls => "credit_stalls",
            Ctr::CreditWaitNs => "credit_wait_ns",
            Ctr::EnvelopesShed => "envelopes_shed",
            Ctr::ShedBytes => "shed_bytes",
            Ctr::MailboxSignals => "mailbox_signals",
        }
    }
}

/// A fixed set of monotonic counters, one per [`Ctr`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSet([u64; Ctr::ALL.len()]);

impl CounterSet {
    /// All zeros.
    pub fn new() -> Self {
        CounterSet::default()
    }

    /// Increment `c` by one.
    pub fn bump(&mut self, c: Ctr) {
        self.0[c as usize] += 1;
    }

    /// Increment `c` by `n`.
    pub fn add(&mut self, c: Ctr, n: u64) {
        self.0[c as usize] += n;
    }

    /// Current value of `c`.
    pub fn get(&self, c: Ctr) -> u64 {
        self.0[c as usize]
    }

    /// Current value of `c`, narrowed to `u32` (saturating).
    pub fn get_u32(&self, c: Ctr) -> u32 {
        u32::try_from(self.0[c as usize]).unwrap_or(u32::MAX)
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &CounterSet) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// Iterate `(counter, value)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Ctr, u64)> + '_ {
        Ctr::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_add_get() {
        let mut c = CounterSet::new();
        c.bump(Ctr::Handlers);
        c.add(Ctr::BytesSent, 100);
        c.bump(Ctr::Handlers);
        assert_eq!(c.get(Ctr::Handlers), 2);
        assert_eq!(c.get(Ctr::BytesSent), 100);
        assert_eq!(c.get(Ctr::Drops), 0);
    }

    #[test]
    fn merge_adds_pointwise() {
        let mut a = CounterSet::new();
        let mut b = CounterSet::new();
        a.add(Ctr::MsgsSent, 3);
        b.add(Ctr::MsgsSent, 4);
        b.bump(Ctr::Recoveries);
        a.merge(&b);
        assert_eq!(a.get(Ctr::MsgsSent), 7);
        assert_eq!(a.get(Ctr::Recoveries), 1);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Ctr::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Ctr::ALL.len());
    }
}
