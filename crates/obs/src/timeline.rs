//! Execution timelines: per-PE busy segments and message arrows.
//!
//! The paper's Figure 2 is a hypothetical timeline of three PEs on two
//! clusters showing processor B overlapping its wait for a cross-cluster
//! reply with bursts of local work.  [`Trace`] holds real (simulated or
//! wall-clock) timelines in that shape and [`Trace::ascii_timeline`]
//! renders them.  Traces are no longer recorded directly: they are
//! *derived* from the per-PE event stream (see [`trace_from`]), so the
//! figure renders from exactly the data the analyses run on.

use mdo_netsim::{Dur, Pe, Time};

use crate::event::{Event, ObjTag};
use crate::PeObs;

/// One contiguous span of handler execution on a PE.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// The executing PE.
    pub pe: Pe,
    /// The object that ran (None for host callbacks / runtime work).
    pub obj: Option<ObjTag>,
    /// Start of execution.
    pub start: Time,
    /// End of execution.
    pub end: Time,
}

/// One message delivery edge.
#[derive(Clone, Debug, PartialEq)]
pub struct MsgArrow {
    /// Sender PE.
    pub src: Pe,
    /// Receiver PE.
    pub dst: Pe,
    /// Send instant.
    pub sent: Time,
    /// Delivery instant.
    pub recv: Time,
    /// Whether the message crossed the wide area.
    pub cross: bool,
}

/// A recorded execution.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Busy segments, in recording order.
    pub segments: Vec<Segment>,
    /// Message edges, in recording order.
    pub messages: Vec<MsgArrow>,
}

/// Derive a [`Trace`] from per-PE event streams: handler spans become
/// segments, deliveries become arrows.  Output is sorted by time (then
/// PE) so the result is canonical regardless of recording interleaving.
pub fn trace_from(pes: &[PeObs]) -> Trace {
    let mut tr = Trace::new();
    for p in pes {
        for ev in &p.events {
            match *ev {
                Event::Handler { obj, start, end } => tr.push_segment(Pe(p.pe), obj, start, end),
                Event::Recv { at, src, sent, cross, .. } => tr.push_message(Pe(src), Pe(p.pe), sent, at, cross),
                _ => {}
            }
        }
    }
    tr.segments.sort_by_key(|a| (a.start, a.pe));
    tr.messages.sort_by_key(|a| (a.recv, a.dst, a.sent, a.src));
    tr
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Record a busy segment (ignored if zero-length).
    pub fn push_segment(&mut self, pe: Pe, obj: Option<ObjTag>, start: Time, end: Time) {
        if end > start {
            self.segments.push(Segment { pe, obj, start, end });
        }
    }

    /// Record a message edge.
    pub fn push_message(&mut self, src: Pe, dst: Pe, sent: Time, recv: Time, cross: bool) {
        self.messages.push(MsgArrow { src, dst, sent, recv, cross });
    }

    /// The last instant covered by any segment or message.
    pub fn end_time(&self) -> Time {
        let seg = self.segments.iter().map(|s| s.end).max().unwrap_or(Time::ZERO);
        let msg = self.messages.iter().map(|m| m.recv).max().unwrap_or(Time::ZERO);
        seg.max(msg)
    }

    /// Total busy time of one PE.
    pub fn busy(&self, pe: Pe) -> Dur {
        self.segments.iter().filter(|s| s.pe == pe).map(|s| s.end - s.start).sum()
    }

    /// Busy fraction of one PE over the traced span (0 if empty trace).
    pub fn utilization(&self, pe: Pe) -> f64 {
        let end = self.end_time();
        if end == Time::ZERO {
            return 0.0;
        }
        self.busy(pe).as_secs_f64() / end.as_secs_f64()
    }

    /// Busy fraction of `pe` within each of `bins` equal time windows —
    /// the "utilization profile" view of Charm++'s Projections tool.
    pub fn utilization_profile(&self, pe: Pe, bins: usize) -> Vec<f64> {
        assert!(bins > 0);
        let end = self.end_time().as_nanos();
        if end == 0 {
            return vec![0.0; bins];
        }
        let bin_ns = (end as f64 / bins as f64).max(1.0);
        let mut busy = vec![0.0f64; bins];
        for s in self.segments.iter().filter(|s| s.pe == pe) {
            let (a, b) = (s.start.as_nanos() as f64, s.end.as_nanos() as f64);
            let first = (a / bin_ns) as usize;
            let last = ((b / bin_ns) as usize).min(bins - 1);
            for (i, slot) in busy.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = (i as f64) * bin_ns;
                let hi = lo + bin_ns;
                *slot += (b.min(hi) - a.max(lo)).max(0.0);
            }
        }
        busy.into_iter().map(|ns| (ns / bin_ns).min(1.0)).collect()
    }

    /// Delivery-latency statistics of recorded messages, split into
    /// (intra-cluster, cross-cluster) mean milliseconds; None where no
    /// such messages exist.
    pub fn message_latency_means(&self) -> (Option<f64>, Option<f64>) {
        let mean = |cross: bool| -> Option<f64> {
            let spans: Vec<f64> = self
                .messages
                .iter()
                .filter(|m| m.cross == cross && m.recv >= m.sent)
                .map(|m| (m.recv - m.sent).as_millis_f64())
                .collect();
            if spans.is_empty() {
                None
            } else {
                Some(spans.iter().sum::<f64>() / spans.len() as f64)
            }
        };
        (mean(false), mean(true))
    }

    /// Per-object accumulated execution time, sorted heaviest-first — the
    /// "time profile by object" view.
    pub fn object_loads(&self) -> Vec<(ObjTag, Dur)> {
        let mut by_obj: std::collections::HashMap<ObjTag, Dur> = std::collections::HashMap::new();
        for s in &self.segments {
            if let Some(obj) = s.obj {
                *by_obj.entry(obj).or_insert(Dur::ZERO) += s.end - s.start;
            }
        }
        let mut out: Vec<(ObjTag, Dur)> = by_obj.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Export segments and messages as two CSV blocks (for external
    /// plotting); stable column order, one header per block.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,pe_or_src,obj_or_dst,start_ns,end_ns,cross\n");
        for s in &self.segments {
            out.push_str(&format!(
                "segment,{},{},{},{},\n",
                s.pe.0,
                s.obj.map(|o| o.to_string()).unwrap_or_default(),
                s.start.as_nanos(),
                s.end.as_nanos()
            ));
        }
        for m in &self.messages {
            out.push_str(&format!(
                "message,{},{},{},{},{}\n",
                m.src.0,
                m.dst.0,
                m.sent.as_nanos(),
                m.recv.as_nanos(),
                m.cross
            ));
        }
        out
    }

    /// Render a Figure-2-style ASCII timeline: one row per PE, `width`
    /// character columns spanning the trace, `#` where the PE is busy,
    /// `.` where idle.  A header row marks time in milliseconds.
    pub fn ascii_timeline(&self, n_pes: usize, width: usize) -> String {
        assert!(width >= 10, "timeline needs at least 10 columns");
        let end = self.end_time();
        if end == Time::ZERO {
            return String::from("(empty trace)\n");
        }
        let span = end.as_nanos();
        let col_ns = (span as f64 / width as f64).max(1.0);
        let mut out = String::new();
        out.push_str(&format!(
            "time: 0 .. {:.3} ms  ({:.3} ms/col)\n",
            end.as_millis_f64(),
            Dur::from_nanos(col_ns as u64).as_millis_f64()
        ));
        for pe in 0..n_pes {
            let pe = Pe(pe as u32);
            let mut row = vec![b'.'; width];
            for s in self.segments.iter().filter(|s| s.pe == pe) {
                let c0 = ((s.start.as_nanos() as f64 / col_ns) as usize).min(width - 1);
                let c1 = ((s.end.as_nanos() as f64 / col_ns).ceil() as usize).clamp(c0 + 1, width);
                for c in row.iter_mut().take(c1).skip(c0) {
                    *c = b'#';
                }
            }
            out.push_str(&format!(
                "pe{:<3} [{}] busy {:>6.1}%\n",
                pe.0,
                String::from_utf8(row).expect("ascii"),
                100.0 * self.utilization(pe)
            ));
        }
        let cross = self.messages.iter().filter(|m| m.cross).count();
        out.push_str(&format!("messages: {} total, {} cross-cluster\n", self.messages.len(), cross));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    #[test]
    fn busy_and_utilization() {
        let mut tr = Trace::new();
        tr.push_segment(Pe(0), None, t(0), t(4));
        tr.push_segment(Pe(0), None, t(6), t(8));
        tr.push_segment(Pe(1), None, t(0), t(8));
        assert_eq!(tr.busy(Pe(0)), Dur::from_millis(6));
        assert_eq!(tr.end_time(), t(8));
        assert!((tr.utilization(Pe(0)) - 0.75).abs() < 1e-9);
        assert!((tr.utilization(Pe(1)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_length_segments_dropped() {
        let mut tr = Trace::new();
        tr.push_segment(Pe(0), None, t(3), t(3));
        assert!(tr.segments.is_empty());
    }

    #[test]
    fn messages_extend_end_time() {
        let mut tr = Trace::new();
        tr.push_segment(Pe(0), None, t(0), t(1));
        tr.push_message(Pe(0), Pe(1), t(1), t(9), true);
        assert_eq!(tr.end_time(), t(9));
    }

    #[test]
    fn ascii_rendering_shape() {
        let mut tr = Trace::new();
        tr.push_segment(Pe(0), None, t(0), t(5));
        tr.push_segment(Pe(1), None, t(5), t(10));
        tr.push_message(Pe(0), Pe(1), t(0), t(5), true);
        let art = tr.ascii_timeline(2, 20);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4, "header + 2 PEs + message summary");
        assert!(lines[1].starts_with("pe0"));
        assert!(lines[1].contains('#'));
        assert!(lines[2].starts_with("pe1"));
        assert!(lines[3].contains("1 cross-cluster"));
        // First half of pe0's row busy, second half idle.
        let row0 = lines[1].split('[').nth(1).unwrap().split(']').next().unwrap();
        assert!(row0.starts_with("##"));
        assert!(row0.ends_with(".."));
    }

    #[test]
    fn utilization_profile_localizes_busy_windows() {
        let mut tr = Trace::new();
        // Busy the first half of a 10 ms trace only.
        tr.push_segment(Pe(0), None, t(0), t(5));
        tr.push_message(Pe(0), Pe(1), t(0), t(10), false); // extends end to 10 ms
        let profile = tr.utilization_profile(Pe(0), 10);
        assert_eq!(profile.len(), 10);
        for (i, u) in profile.iter().enumerate() {
            if i < 5 {
                assert!(*u > 0.95, "bin {i} busy: {u}");
            } else {
                assert!(*u < 0.05, "bin {i} idle: {u}");
            }
        }
    }

    #[test]
    fn message_latency_means_split_by_cross() {
        let mut tr = Trace::new();
        tr.push_message(Pe(0), Pe(1), t(0), t(1), false);
        tr.push_message(Pe(0), Pe(1), t(0), t(3), false);
        tr.push_message(Pe(0), Pe(2), t(0), t(16), true);
        let (intra, cross) = tr.message_latency_means();
        assert_eq!(intra, Some(2.0));
        assert_eq!(cross, Some(16.0));
        let empty = Trace::new();
        assert_eq!(empty.message_latency_means(), (None, None));
    }

    #[test]
    fn object_loads_rank_heaviest_first() {
        let a = ObjTag { array: 0, elem: 0 };
        let b = ObjTag { array: 0, elem: 1 };
        let mut tr = Trace::new();
        tr.push_segment(Pe(0), Some(a), t(0), t(2));
        tr.push_segment(Pe(1), Some(b), t(0), t(5));
        tr.push_segment(Pe(0), Some(a), t(3), t(4));
        let loads = tr.object_loads();
        assert_eq!(loads[0], (b, Dur::from_millis(5)));
        assert_eq!(loads[1], (a, Dur::from_millis(3)));
    }

    #[test]
    fn csv_export_shape() {
        let mut tr = Trace::new();
        tr.push_segment(Pe(0), Some(ObjTag { array: 1, elem: 2 }), t(0), t(1));
        tr.push_message(Pe(0), Pe(1), t(0), t(2), true);
        let csv = tr.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("segment,0,a1[2],0,1000000"));
        assert!(lines[2].starts_with("message,0,1,0,2000000,true"));
    }

    #[test]
    fn empty_trace_renders() {
        let tr = Trace::new();
        assert_eq!(tr.ascii_timeline(4, 40), "(empty trace)\n");
        assert_eq!(tr.utilization(Pe(0)), 0.0);
    }

    #[test]
    fn trace_derives_from_event_stream() {
        use crate::PeRecorder;
        let mut r0 = PeRecorder::new(0);
        let mut r1 = PeRecorder::new(1);
        r0.handler(Some(ObjTag { array: 0, elem: 0 }), t(0), t(2));
        r0.send(t(2), 1, 64, true, false);
        r1.recv(t(6), 0, t(2), 64, true, false);
        r1.handler(None, t(6), t(7));
        let pes = vec![r0.finish().unwrap(), r1.finish().unwrap()];
        let tr = trace_from(&pes);
        assert_eq!(tr.segments.len(), 2);
        assert_eq!(tr.messages.len(), 1);
        assert_eq!(tr.messages[0], MsgArrow { src: Pe(0), dst: Pe(1), sent: t(2), recv: t(6), cross: true });
        assert_eq!(tr.busy(Pe(0)), Dur::from_millis(2));
    }
}
