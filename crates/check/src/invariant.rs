//! The invariant layer: protocol properties checked after every explored
//! schedule, with the `mdo-obs` event stream as ground truth.
//!
//! Every invariant here is a *schedule-independent* property of the
//! runtime's protocols — reliable transport, reductions, quiescence
//! detection, buddy checkpoints.  A delivery policy may reorder
//! equal-priority messages however it likes; none of these may break.
//! When one does, the harness has found a real protocol bug (or a real
//! injected mutation), and the offending schedule trace is worth
//! shrinking and keeping.

use std::collections::BTreeMap;

use mdo_core::program::RunReport;
use mdo_netsim::{Dur, FaultPlan};
use mdo_obs::{Ctr, Event};

/// A broken invariant, with enough context to debug it.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// An application message pair delivered more envelopes than were
    /// sent — exactly-once under the reliable transport is broken (e.g.
    /// receiver-side dedup lost).
    ExactlyOnce {
        /// Sending PE (original numbering).
        src: u32,
        /// Receiving PE (original numbering).
        dst: u32,
        /// Application envelopes sent on the pair.
        sent: u64,
        /// Application envelopes delivered on the pair.
        recvd: u64,
    },
    /// The run terminated through the quiescence client while application
    /// messages were still in flight — quiescence detection fired early.
    QuiescenceUnsound {
        /// Sent-but-undelivered application envelopes at termination.
        in_flight: u64,
    },
    /// A PE's checkpoint epochs are not strictly increasing, or PEs
    /// disagree on the epoch sequence within a generation.
    CheckpointEpochSkew {
        /// The PE whose epoch stream is inconsistent.
        pe: u32,
        /// Human-readable description of the skew.
        detail: String,
    },
    /// The application state digest differs from the reference schedule —
    /// delivery order leaked into results (reduction completeness or
    /// determinism broken).
    DigestMismatch {
        /// First digest word that differs.
        index: usize,
        /// Reference bits at that index (`None` if lengths differ).
        expected: Option<u64>,
        /// This run's bits at that index (`None` if lengths differ).
        got: Option<u64>,
    },
    /// Envelopes were shed although the run's flow-control policy (Block,
    /// or no flow control at all) promises lossless delivery.
    UnexpectedShed {
        /// Envelopes the report admits to dropping.
        sheds: u64,
    },
    /// The reliable layer resent frames its receiver already held, where
    /// every retransmit must repair a loss ([`Expectation::repairs_only`]).
    SpuriousRetransmit {
        /// Retransmits of frames the receiver held.
        spurious: u64,
        /// Retransmits in all.
        retransmits: u64,
    },
    /// The reliable layer gave up on a message (structured transport
    /// error): under the explored fault plans this must not happen.
    Transport(String),
    /// The run ended in an unrecoverable failure state.
    Unrecoverable(String),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ExactlyOnce { src, dst, sent, recvd } => {
                write!(f, "exactly-once broken on pe{src} -> pe{dst}: sent {sent}, delivered {recvd}")
            }
            Violation::QuiescenceUnsound { in_flight } => {
                write!(f, "quiescence fired with {in_flight} application message(s) in flight")
            }
            Violation::UnexpectedShed { sheds } => {
                write!(f, "{sheds} envelope(s) shed under a lossless flow-control policy")
            }
            Violation::CheckpointEpochSkew { pe, detail } => write!(f, "checkpoint epochs on pe{pe}: {detail}"),
            Violation::DigestMismatch { index, expected, got } => {
                write!(f, "state digest differs from reference at word {index}: {expected:?} vs {got:?}")
            }
            Violation::SpuriousRetransmit { spurious, retransmits } => {
                write!(f, "{spurious} of {retransmits} retransmit(s) resent a frame its receiver held")
            }
            Violation::Transport(e) => write!(f, "transport error: {e}"),
            Violation::Unrecoverable(e) => write!(f, "unrecoverable failure: {e}"),
        }
    }
}

/// What the caller knows about the run, sharpening the checks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Expectation {
    /// The program terminates from its quiescence client: at exit no
    /// application message may remain undelivered (soundness of the
    /// quiescence waves).  Without this flag, undelivered messages at
    /// exit are legal (a reduction client may exit mid-traffic).
    pub quiescent_exit: bool,
    /// The run executes under [`mdo_netsim::OverloadPolicy::Shed`]: the
    /// runtime may deliberately drop overflow application envelopes, so
    /// the message-balance checks tolerate exactly `Ctr::EnvelopesShed` of
    /// sent-but-undelivered traffic.  Without the flag any shed is a
    /// violation — Block and flow-off runs promise lossless delivery.
    pub sheds_allowed: bool,
    /// Every retransmit must repair a lost attempt (see [`repairs_only`]):
    /// the simulator's `Ctr::SpuriousRetransmits` must read 0.
    pub repairs_only: bool,
}

/// Whether every retransmit under `plan` repairs a loss on an uncontended
/// network whose largest one-way latency is `wan`.  Each data frame draws
/// its own ack, which the wire never harms and which names the frame, so
/// an ack is back one round trip after its frame was sent.  The frame's
/// timer is armed first, so at an rto of exactly two latencies it pops
/// first and resends a held frame: the rto must exceed the round trip.  A
/// reorder stash can release a frame just before its timer, so a plan that
/// reorders is exempt.
pub fn repairs_only(plan: &FaultPlan, wan: Dur) -> bool {
    plan.reorder == 0.0 && plan.rto > wan * 2
}

/// Check every invariant the report's observability data supports.
/// Returns all violations found (empty = the schedule passed).
///
/// Requires the run to have been executed with `RunConfig::obs` armed;
/// without event streams only the structured-error checks run.
pub fn check_report(report: &RunReport, expect: &Expectation) -> Vec<Violation> {
    let mut out = Vec::new();
    let sheds = report.counters.get(Ctr::EnvelopesShed);

    if !expect.sheds_allowed && sheds > 0 {
        out.push(Violation::UnexpectedShed { sheds });
    }
    let spurious = report.counters.get(Ctr::SpuriousRetransmits);
    if expect.repairs_only && spurious > 0 {
        out.push(Violation::SpuriousRetransmit { spurious, retransmits: report.counters.get(Ctr::Retransmits) });
    }
    if let Some(err) = &report.transport_error {
        out.push(Violation::Transport(err.to_string()));
    }
    if let Some(err) = &report.unrecoverable {
        out.push(Violation::Unrecoverable(format!("{err:?}")));
    }

    let Some(obs) = &report.obs else {
        return out;
    };

    // ---- exactly-once and quiescence soundness -----------------------
    // Application traffic only (sys = false): per ordered PE pair, count
    // departures and deliveries across all PEs' event streams.  More
    // deliveries than departures on any pair = a duplicate reached the
    // scheduler.  Fewer is legal in general (messages can be in flight
    // when a reduction client exits, and crash recovery drains traffic) —
    // but not for a quiescence-terminated run.
    let mut sent: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut recvd: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for pe in &obs.pes {
        for ev in &pe.events {
            match *ev {
                Event::Send { dst, sys: false, .. } => *sent.entry((pe.pe, dst)).or_default() += 1,
                Event::Recv { src, sys: false, .. } => *recvd.entry((src, pe.pe)).or_default() += 1,
                _ => {}
            }
        }
    }
    for (&pair, &r) in &recvd {
        let s = sent.get(&pair).copied().unwrap_or(0);
        if r > s {
            out.push(Violation::ExactlyOnce { src: pair.0, dst: pair.1, sent: s, recvd: r });
        }
    }
    if expect.quiescent_exit && report.failures.is_empty() {
        // A shed envelope was recorded at its send site but never arrives;
        // the runtime accounted for it (`Ctr::EnvelopesShed`), so exactly that
        // many sent-minus-received envelopes are legal at a quiescent exit.
        let total_sent: u64 = sent.values().sum();
        let total_recvd: u64 = recvd.values().sum();
        if total_sent > total_recvd + sheds {
            out.push(Violation::QuiescenceUnsound { in_flight: total_sent - total_recvd - sheds });
        }
    }

    // ---- checkpoint-epoch consistency --------------------------------
    // Within a generation every PE must see a strictly increasing epoch
    // sequence, and (in a single-generation run) all PEs must record the
    // same sequence up to a one-epoch ragged tail at termination.  Epochs
    // restart at 0 across every generation change — shrink recovery and
    // expand alike — so each PE's stream is split at its Recovery markers
    // and the monotonicity check runs per segment.
    let mut per_pe: Vec<Vec<u32>> = Vec::new();
    for pe in &obs.pes {
        let mut segments: Vec<Vec<u32>> = vec![Vec::new()];
        for e in &pe.events {
            match e {
                Event::Checkpoint { epoch, .. } => segments.last_mut().expect("segment").push(*epoch),
                Event::Recovery { .. } => segments.push(Vec::new()),
                _ => {}
            }
        }
        for seg in &segments {
            if let Some(w) = seg.windows(2).find(|w| w[1] <= w[0]) {
                out.push(Violation::CheckpointEpochSkew {
                    pe: pe.pe,
                    detail: format!("not strictly increasing within a generation: {} then {}", w[0], w[1]),
                });
            }
        }
        per_pe.push(segments.concat());
    }
    if report.counters.get(Ctr::Generations) <= 1 && report.failures.is_empty() {
        let max_len = per_pe.iter().map(Vec::len).max().unwrap_or(0);
        let min_len = per_pe.iter().map(Vec::len).min().unwrap_or(0);
        if max_len - min_len > 1 {
            out.push(Violation::CheckpointEpochSkew {
                pe: per_pe.iter().enumerate().min_by_key(|(_, v)| v.len()).map(|(i, _)| i as u32).unwrap_or(0),
                detail: format!("epoch counts ragged beyond one barrier: {min_len} vs {max_len}"),
            });
        }
        if let Some(reference) = per_pe.iter().max_by_key(|v| v.len()) {
            for (i, epochs) in per_pe.iter().enumerate() {
                if epochs.as_slice() != &reference[..epochs.len()] {
                    out.push(Violation::CheckpointEpochSkew {
                        pe: i as u32,
                        detail: format!("sequence {:?} is not a prefix of {:?}", epochs, reference),
                    });
                }
            }
        }
    }

    out
}

/// Compare a run's application-state digest (f64 bit patterns, element
/// counts — whatever the app wrapper packs) against the reference
/// schedule's.  Bit-exact equality is the contract: delivery order must
/// not leak into application state.
pub fn check_digest(reference: &[u64], got: &[u64]) -> Option<Violation> {
    if reference.len() != got.len() {
        let index = reference.len().min(got.len());
        return Some(Violation::DigestMismatch {
            index,
            expected: reference.get(index).copied(),
            got: got.get(index).copied(),
        });
    }
    reference.iter().zip(got).position(|(a, b)| a != b).map(|index| Violation::DigestMismatch {
        index,
        expected: Some(reference[index]),
        got: Some(got[index]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_netsim::Time;
    use mdo_obs::{CounterSet, ObsReport, PeObs};

    fn report_with(pes: Vec<PeObs>) -> RunReport {
        RunReport {
            end_time: Time::from_nanos(1),
            pe_busy: vec![Dur::ZERO],
            pe_messages: vec![0],
            pe_max_queue_depth: vec![0],
            network: Default::default(),
            obs: Some(ObsReport { pes, counters: CounterSet::new() }),
            transport_error: None,
            failures: Vec::new(),
            unrecoverable: None,
            peak_mailbox_bytes: 0,
            counters: CounterSet::new(),
        }
    }

    fn pe_obs(pe: u32, events: Vec<Event>) -> PeObs {
        let mut obs = PeObs::empty(pe);
        obs.events = events;
        obs
    }

    fn send(at: u64, dst: u32) -> Event {
        Event::Send { at: Time::from_nanos(at), dst, bytes: 8, cross: true, sys: false }
    }

    fn recv(at: u64, src: u32) -> Event {
        Event::Recv { at: Time::from_nanos(at), src, sent: Time::from_nanos(0), bytes: 8, cross: true, sys: false }
    }

    #[test]
    fn balanced_traffic_passes() {
        let report =
            report_with(vec![pe_obs(0, vec![send(1, 1), recv(9, 1)]), pe_obs(1, vec![recv(5, 0), send(6, 0)])]);
        let v = check_report(&report, &Expectation { quiescent_exit: true, ..Expectation::default() });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_spurious_retransmit_fails_a_run_whose_retransmits_must_all_repair() {
        let mut report = report_with(Vec::new());
        report.counters.add(Ctr::Retransmits, 5);
        report.counters.add(Ctr::SpuriousRetransmits, 3);
        assert!(check_report(&report, &Expectation::default()).is_empty(), "legal without the flag");
        let v = check_report(&report, &Expectation { repairs_only: true, ..Expectation::default() });
        assert_eq!(v, vec![Violation::SpuriousRetransmit { spurious: 3, retransmits: 5 }]);
        assert!(v[0].to_string().contains("3 of 5"), "{}", v[0]);
    }

    #[test]
    fn retransmits_must_all_repair_above_an_rto_of_two_latencies_without_reorder() {
        let wan = Dur::from_millis(1);
        let plan = |rto_us| FaultPlan::loss(0.05).with_rto(Dur::from_micros(rto_us));
        assert!(repairs_only(&plan(2_001), wan), "an ack beats its frame's timer");
        assert!(repairs_only(&FaultPlan::loss(0.05), wan), "the default 50 ms rto");
        assert!(!repairs_only(&plan(2_000), wan), "the timer, armed first, pops at the ack's instant");
        assert!(!repairs_only(&plan(2_001).with_reorder(0.01), wan), "a stash may release a frame at its deadline");
    }

    #[test]
    fn duplicate_delivery_is_caught() {
        let report = report_with(vec![pe_obs(0, vec![send(1, 1)]), pe_obs(1, vec![recv(5, 0), recv(7, 0)])]);
        let v = check_report(&report, &Expectation::default());
        assert_eq!(v, vec![Violation::ExactlyOnce { src: 0, dst: 1, sent: 1, recvd: 2 }]);
        assert!(v[0].to_string().contains("exactly-once"));
    }

    #[test]
    fn in_flight_at_quiescent_exit_is_caught() {
        let report = report_with(vec![pe_obs(0, vec![send(1, 1), send(2, 1)]), pe_obs(1, vec![recv(5, 0)])]);
        assert!(check_report(&report, &Expectation::default()).is_empty(), "legal without the flag");
        let v = check_report(&report, &Expectation { quiescent_exit: true, ..Expectation::default() });
        assert_eq!(v, vec![Violation::QuiescenceUnsound { in_flight: 1 }]);
    }

    #[test]
    fn system_traffic_is_ignored() {
        let sys_recv =
            Event::Recv { at: Time::from_nanos(3), src: 0, sent: Time::ZERO, bytes: 8, cross: false, sys: true };
        let report = report_with(vec![pe_obs(0, vec![]), pe_obs(1, vec![sys_recv])]);
        assert!(check_report(&report, &Expectation { quiescent_exit: true, ..Expectation::default() }).is_empty());
    }

    #[test]
    fn sheds_without_permission_are_a_violation() {
        let mut report = report_with(vec![]);
        report.counters.add(Ctr::EnvelopesShed, 3);
        let v = check_report(&report, &Expectation::default());
        assert_eq!(v, vec![Violation::UnexpectedShed { sheds: 3 }]);
        assert!(v[0].to_string().contains("lossless"));
        assert!(check_report(&report, &Expectation { sheds_allowed: true, ..Expectation::default() }).is_empty());
    }

    #[test]
    fn shed_traffic_balances_at_quiescent_exit() {
        // Two sends, one delivery, one accounted shed: the books balance.
        let mut report = report_with(vec![pe_obs(0, vec![send(1, 1), send(2, 1)]), pe_obs(1, vec![recv(5, 0)])]);
        report.counters.add(Ctr::EnvelopesShed, 1);
        let expect = Expectation { quiescent_exit: true, sheds_allowed: true, ..Expectation::default() };
        assert!(check_report(&report, &expect).is_empty());
        // A second undelivered envelope is NOT covered by the shed count.
        let mut worse =
            report_with(vec![pe_obs(0, vec![send(1, 1), send(2, 1), send(3, 1)]), pe_obs(1, vec![recv(5, 0)])]);
        worse.counters.add(Ctr::EnvelopesShed, 1);
        assert_eq!(check_report(&worse, &expect), vec![Violation::QuiescenceUnsound { in_flight: 1 }]);
    }

    #[test]
    fn checkpoint_regression_is_caught() {
        let ck = |at: u64, epoch: u32| Event::Checkpoint { at: Time::from_nanos(at), epoch };
        let report = report_with(vec![pe_obs(0, vec![ck(1, 0), ck(2, 0)])]);
        let v = check_report(&report, &Expectation::default());
        assert!(matches!(v[0], Violation::CheckpointEpochSkew { pe: 0, .. }), "{v:?}");
    }

    #[test]
    fn ragged_epochs_beyond_one_barrier_are_caught() {
        let ck = |at: u64, epoch: u32| Event::Checkpoint { at: Time::from_nanos(at), epoch };
        let report = report_with(vec![pe_obs(0, vec![ck(1, 0), ck(2, 1), ck(3, 2)]), pe_obs(1, vec![ck(1, 0)])]);
        let v = check_report(&report, &Expectation::default());
        assert!(v.iter().any(|x| matches!(x, Violation::CheckpointEpochSkew { .. })), "{v:?}");
    }

    #[test]
    fn epochs_may_restart_across_generations() {
        // A shrink (or expand) resets epochs to 0; with the Recovery marker
        // between the segments that is legal, without it it is skew.
        let ck = |at: u64, epoch: u32| Event::Checkpoint { at: Time::from_nanos(at), epoch };
        let rec = |at: u64| Event::Recovery { at: Time::from_nanos(at) };
        let legal = report_with(vec![pe_obs(0, vec![ck(1, 0), ck(2, 1), rec(3), ck(4, 0), ck(5, 1)])]);
        assert!(check_report(&legal, &Expectation::default()).is_empty());
        let skewed = report_with(vec![pe_obs(0, vec![ck(1, 0), ck(2, 1), ck(4, 0)])]);
        let v = check_report(&skewed, &Expectation::default());
        assert!(v.iter().any(|x| matches!(x, Violation::CheckpointEpochSkew { .. })), "{v:?}");
    }

    #[test]
    fn digest_comparison() {
        assert!(check_digest(&[1, 2, 3], &[1, 2, 3]).is_none());
        let v = check_digest(&[1, 2, 3], &[1, 9, 3]).unwrap();
        assert_eq!(v, Violation::DigestMismatch { index: 1, expected: Some(2), got: Some(9) });
        assert!(check_digest(&[1], &[1, 2]).is_some(), "length mismatch is a mismatch");
    }
}
