//! # mdo-obs — Projections-style observability for the MDO runtime
//!
//! Charm++ pairs its runtime with the *Projections* tracing/analysis tool;
//! this crate is the reproduction's equivalent.  Engines record into
//! per-PE [`PeRecorder`]s — an append-only event ring ([`Event`]), a set of
//! monotonic counters ([`CounterSet`]), and log-bucketed HDR-style
//! histograms ([`LogHistogram`]) for message latency, handler grain size
//! and queue depth.  Recording is off unless an [`ObsConfig`] is armed; a
//! disabled recorder holds no recording, so each of its methods is one
//! branch and it allocates nothing.
//!
//! On top of the raw events sit the derived analyses the paper's argument
//! needs ([`analysis`]): per-PE utilization timelines, the **overlap
//! fraction** (busy time coexisting with outstanding WAN messages ÷ total
//! WAN-outstanding time), and the WAN-wait decomposition (latency masked
//! vs. exposed).  Exporters render the same stream as an ASCII timeline
//! ([`timeline::Trace`]), Chrome trace-event JSON ([`chrome`]) and CSV
//! summaries.
//!
//! This crate depends only on `mdo-netsim` (for time types) — it knows
//! nothing about chares, engines or programs.

#![warn(missing_docs)]

pub mod analysis;
pub mod chrome;
pub mod counter;
pub mod event;
pub mod hist;
pub mod json;
pub mod timeline;

pub use analysis::{overlap_of, OverlapStats};
pub use chrome::chrome_trace;
pub use counter::{CounterSet, Ctr};
pub use event::{Event, ObjTag};
pub use hist::LogHistogram;
pub use timeline::{trace_from, MsgArrow, Segment, Trace};

use mdo_netsim::{Pe, Time};

/// Per-PE event-ring capacity: events past it are counted as dropped,
/// never reallocated (bounds memory on long runs).
pub const RING_CAPACITY: usize = 1 << 20;

/// Arms observability via the engines' run configuration.  It has no
/// knobs: the ring's capacity is [`RING_CAPACITY`].
#[derive(Clone, Debug, Default)]
pub struct ObsConfig;

impl ObsConfig {
    /// The observability configuration.
    pub fn new() -> Self {
        ObsConfig
    }
}

/// The live per-PE recording side: engines call these in their hot paths.
///
/// A disabled recorder (`maybe(false, ..)`) holds no recording at all:
/// every method returns at its first branch and nothing is allocated — the
/// zero-cost passthrough the `RunConfig::obs = None` contract promises.
#[derive(Debug)]
pub struct PeRecorder {
    /// The recording; `None` when disabled.
    data: Option<PeObs>,
    /// Event-ring capacity: [`RING_CAPACITY`], smaller only in tests.
    cap: usize,
}

impl PeRecorder {
    /// An enabled recorder for (original-numbered) PE `pe`.
    pub fn new(pe: u32) -> Self {
        PeRecorder { data: Some(PeObs::empty(pe)), cap: RING_CAPACITY }
    }

    /// A recorder that records nothing and allocates nothing.
    pub fn disabled() -> Self {
        PeRecorder { data: None, cap: 0 }
    }

    /// Enabled or disabled by `on`.
    pub fn maybe(on: bool, pe: u32) -> Self {
        if on {
            PeRecorder::new(pe)
        } else {
            PeRecorder::disabled()
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.data.is_some()
    }

    #[inline]
    fn push(data: &mut PeObs, cap: usize, ev: Event) {
        if data.events.len() < cap {
            data.events.push(ev);
        } else {
            data.dropped += 1;
        }
    }

    /// Record one handler execution span.
    #[inline]
    pub fn handler(&mut self, obj: Option<ObjTag>, start: Time, end: Time) {
        let Some(data) = &mut self.data else { return };
        data.counters.bump(Ctr::Handlers);
        data.grain.record((end - start).as_nanos());
        Self::push(data, self.cap, Event::Handler { obj, start, end });
    }

    /// Record a message departure.
    #[inline]
    pub fn send(&mut self, at: Time, dst: u32, bytes: u64, cross: bool, sys: bool) {
        let Some(data) = &mut self.data else { return };
        data.counters.bump(Ctr::MsgsSent);
        data.counters.add(Ctr::BytesSent, bytes);
        if cross {
            data.counters.bump(Ctr::WanMsgsSent);
        }
        Self::push(data, self.cap, Event::Send { at, dst, bytes, cross, sys });
    }

    /// Record a message delivery (also feeds the latency histograms).
    #[inline]
    pub fn recv(&mut self, at: Time, src: u32, sent: Time, bytes: u64, cross: bool, sys: bool) {
        let Some(data) = &mut self.data else { return };
        data.counters.bump(Ctr::MsgsRecvd);
        if cross {
            data.counters.bump(Ctr::WanMsgsRecvd);
        }
        let lat = if at >= sent { (at - sent).as_nanos() } else { 0 };
        if cross {
            data.msg_latency_cross.record(lat);
        } else {
            data.msg_latency_intra.record(lat);
        }
        Self::push(data, self.cap, Event::Recv { at, src, sent, bytes, cross, sys });
    }

    /// Record a scheduler busy→idle transition.
    #[inline]
    pub fn idle(&mut self, at: Time) {
        let Some(data) = &mut self.data else { return };
        data.counters.bump(Ctr::IdleTransitions);
        Self::push(data, self.cap, Event::Idle { at });
    }

    /// Record a completed buddy-checkpoint epoch.
    #[inline]
    pub fn checkpoint(&mut self, at: Time, epoch: u32) {
        let Some(data) = &mut self.data else { return };
        Self::push(data, self.cap, Event::Checkpoint { at, epoch });
    }

    /// Record a shrink-restart resume.
    #[inline]
    pub fn recovery(&mut self, at: Time) {
        let Some(data) = &mut self.data else { return };
        Self::push(data, self.cap, Event::Recovery { at });
    }

    /// Sample the scheduler queue depth (histogram only, no event).
    #[inline]
    pub fn queue_depth(&mut self, depth: usize) {
        let Some(data) = &mut self.data else { return };
        data.queue_depth.record(depth as u64);
    }

    /// Finish recording and hand the data over: `None` from a disabled
    /// recorder.
    pub fn finish(self) -> Option<PeObs> {
        self.data
    }
}

/// Everything recorded on one PE (original numbering), across all
/// shrink-restart generations.
#[derive(Clone, Debug)]
pub struct PeObs {
    /// The PE these events belong to (original numbering).
    pub pe: u32,
    /// The event ring, in recording order.
    pub events: Vec<Event>,
    /// Events discarded because the ring was full.
    pub dropped: u64,
    /// Delivery latency of intra-cluster messages (ns).
    pub msg_latency_intra: LogHistogram,
    /// Delivery latency of cross-cluster messages (ns).
    pub msg_latency_cross: LogHistogram,
    /// Handler grain size (ns per handler span).
    pub grain: LogHistogram,
    /// Scheduler queue depth samples.
    pub queue_depth: LogHistogram,
    /// Per-PE counters.
    pub counters: CounterSet,
}

impl PeObs {
    /// No events, no samples.
    pub fn empty(pe: u32) -> Self {
        PeObs {
            pe,
            events: Vec::new(),
            dropped: 0,
            msg_latency_intra: LogHistogram::new(),
            msg_latency_cross: LogHistogram::new(),
            grain: LogHistogram::new(),
            queue_depth: LogHistogram::new(),
            counters: CounterSet::new(),
        }
    }

    /// Append another generation's recording of the same PE (events carry
    /// absolute time, so concatenation is meaningful).
    pub fn absorb(&mut self, other: PeObs) {
        self.events.extend(other.events);
        self.dropped += other.dropped;
        self.msg_latency_intra.merge(&other.msg_latency_intra);
        self.msg_latency_cross.merge(&other.msg_latency_cross);
        self.grain.merge(&other.grain);
        self.queue_depth.merge(&other.queue_depth);
        self.counters.merge(&other.counters);
    }

    /// This PE's WAN-wait decomposition.
    pub fn overlap(&self) -> OverlapStats {
        overlap_of(&self.events)
    }
}

/// What a run hands back when observability was armed.
#[derive(Debug)]
pub struct ObsReport {
    /// Per-PE recordings, indexed by original PE number.
    pub pes: Vec<PeObs>,
    /// Engine-global counters (fault/failure bookkeeping lives here; the
    /// run report's scalar tallies are read back from this same set).
    pub counters: CounterSet,
}

impl ObsReport {
    /// Derive the render-ready timeline from the event stream.
    pub fn to_trace(&self) -> Trace {
        trace_from(&self.pes)
    }

    /// One PE's WAN-wait decomposition.
    pub fn overlap_for(&self, pe: Pe) -> OverlapStats {
        self.pes.get(pe.index()).map(|p| p.overlap()).unwrap_or_default()
    }

    /// The whole run's WAN-wait decomposition (sum over PEs).
    pub fn overlap(&self) -> OverlapStats {
        let mut total = OverlapStats::default();
        for p in &self.pes {
            total.merge(p.overlap());
        }
        total
    }

    /// `masked / outstanding` over the whole run.
    pub fn overlap_fraction(&self) -> f64 {
        self.overlap().fraction()
    }

    /// Total events recorded across all PEs.
    pub fn total_events(&self) -> u64 {
        self.pes.iter().map(|p| p.events.len() as u64).sum()
    }

    /// Events dropped because a ring filled up.
    pub fn total_dropped(&self) -> u64 {
        self.pes.iter().map(|p| p.dropped).sum()
    }

    /// Count of application handler spans (spans attributed to an object)
    /// across all PEs — an engine-independent structural invariant of a
    /// program, used by the cross-engine agreement tests.
    pub fn app_handler_events(&self) -> u64 {
        self.pes.iter().flat_map(|p| &p.events).filter(|e| matches!(e, Event::Handler { obj: Some(_), .. })).count()
            as u64
    }

    /// All counters summed over PEs plus the engine-global set.
    pub fn merged_counters(&self) -> CounterSet {
        let mut total = self.counters.clone();
        for p in &self.pes {
            total.merge(&p.counters);
        }
        total
    }

    /// Export the Chrome trace-event JSON document.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.pes)
    }

    /// A per-PE CSV summary: utilization, overlap decomposition, latency
    /// and grain quantiles, counters.
    pub fn summary_csv(&self) -> String {
        let trace = self.to_trace();
        let mut out = String::from(
            "pe,events,dropped,busy_ms,utilization,outstanding_ms,masked_ms,exposed_ms,overlap_fraction,\
             msgs_sent,msgs_recvd,wan_msgs_recvd,handlers,grain_p50_us,grain_p99_us,\
             lat_intra_p50_us,lat_cross_p50_us,max_queue_depth\n",
        );
        for p in &self.pes {
            let o = p.overlap();
            let pe = Pe(p.pe);
            out.push_str(&format!(
                "{},{},{},{:.3},{:.4},{:.3},{:.3},{:.3},{:.4},{},{},{},{},{:.1},{:.1},{:.1},{:.1},{}\n",
                p.pe,
                p.events.len(),
                p.dropped,
                trace.busy(pe).as_millis_f64(),
                trace.utilization(pe),
                o.outstanding.as_millis_f64(),
                o.masked.as_millis_f64(),
                o.exposed.as_millis_f64(),
                o.fraction(),
                p.counters.get(Ctr::MsgsSent),
                p.counters.get(Ctr::MsgsRecvd),
                p.counters.get(Ctr::WanMsgsRecvd),
                p.counters.get(Ctr::Handlers),
                p.grain.quantile(0.5) as f64 / 1_000.0,
                p.grain.quantile(0.99) as f64 / 1_000.0,
                p.msg_latency_intra.quantile(0.5) as f64 / 1_000.0,
                p.msg_latency_cross.quantile(0.5) as f64 / 1_000.0,
                p.queue_depth.max(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_netsim::Dur;

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = PeRecorder::disabled();
        assert!(!r.is_on());
        r.handler(None, t(0), t(5));
        r.send(t(0), 1, 10, true, false);
        r.recv(t(1), 1, t(0), 10, true, false);
        r.idle(t(2));
        r.queue_depth(5);
        r.checkpoint(t(3), 1);
        r.recovery(t(4));
        assert!(r.finish().is_none());
    }

    #[test]
    fn ring_capacity_bounds_events_and_counts_drops() {
        let mut r = PeRecorder { cap: 3, ..PeRecorder::new(0) };
        for i in 0..5 {
            r.idle(t(i));
        }
        let obs = r.finish().unwrap();
        assert_eq!(obs.events.len(), 3);
        assert_eq!(obs.dropped, 2);
        // Counters and histograms keep counting past the ring limit.
        assert_eq!(obs.counters.get(Ctr::IdleTransitions), 5);
    }

    #[test]
    fn recorder_feeds_histograms_and_counters() {
        let mut r = PeRecorder::new(0);
        r.recv(t(10), 1, t(2), 100, true, false);
        r.recv(t(3), 1, t(2), 50, false, false);
        r.handler(None, t(10), t(12));
        r.send(t(12), 1, 70, true, true);
        r.queue_depth(4);
        let obs = r.finish().unwrap();
        assert_eq!(obs.msg_latency_cross.count(), 1);
        assert_eq!(obs.msg_latency_cross.max(), Dur::from_millis(8).as_nanos());
        assert_eq!(obs.msg_latency_intra.count(), 1);
        assert_eq!(obs.grain.count(), 1);
        assert_eq!(obs.counters.get(Ctr::MsgsRecvd), 2);
        assert_eq!(obs.counters.get(Ctr::WanMsgsRecvd), 1);
        assert_eq!(obs.counters.get(Ctr::MsgsSent), 1);
        assert_eq!(obs.counters.get(Ctr::BytesSent), 70);
        assert_eq!(obs.queue_depth.max(), 4);
    }

    #[test]
    fn absorb_concatenates_generations() {
        let mut a = PeObs::empty(2);
        let mut r = PeRecorder::new(2);
        r.idle(t(1));
        a.absorb(r.finish().unwrap());
        let mut r = PeRecorder::new(2);
        r.recovery(t(5));
        r.idle(t(6));
        a.absorb(r.finish().unwrap());
        assert_eq!(a.events.len(), 3);
        assert_eq!(a.counters.get(Ctr::IdleTransitions), 2);
    }

    #[test]
    fn report_aggregates_overlap() {
        let mut r0 = PeRecorder::new(0);
        // 16 ms outstanding, 8 ms masked.
        r0.handler(None, t(0), t(8));
        r0.recv(t(16), 1, t(0), 8, true, false);
        let mut r1 = PeRecorder::new(1);
        // 10 ms outstanding, fully masked.
        r1.handler(None, t(0), t(10));
        r1.recv(t(10), 0, t(0), 8, true, false);
        let report = ObsReport { pes: vec![r0.finish().unwrap(), r1.finish().unwrap()], counters: CounterSet::new() };
        let total = report.overlap();
        assert_eq!(total.outstanding, Dur::from_millis(26));
        assert_eq!(total.masked, Dur::from_millis(18));
        assert!((report.overlap_fraction() - 18.0 / 26.0).abs() < 1e-12);
        assert!((report.overlap_for(Pe(1)).fraction() - 1.0).abs() < 1e-12);
        let csv = report.summary_csv();
        assert_eq!(csv.lines().count(), 3, "header + one row per PE");
        assert!(csv.lines().nth(1).unwrap().starts_with("0,"));
    }
}
