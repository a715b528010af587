//! The harness's own span log.
//!
//! Every call the harness makes into a layer — a repetition, a probe
//! loop, a mesh establish, the oracle — is wrapped in a span: name, start,
//! end, the span that caused it, and one id per repetition.  Spans stay in
//! memory and are written at exit as Chrome trace-event JSON.  They are
//! recorded around calls into the crates from the outside; spans inside
//! the crates are a later change.

use std::time::Instant;

use mdo_obs::json::escape;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `rep.wan` or `probe.vmi.mailbox`.
    pub name: String,
    /// Start, ns since the log was created.
    pub start_ns: u64,
    /// End, ns since the log was created (equals `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Repetition id shared by every span of one repetition (0 = none).
    pub rep: u32,
}

/// An in-memory, single-threaded span log.
pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_rep: u32,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog { t0: Instant::now(), spans: Vec::new(), open: Vec::new(), next_rep: 0 }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span and of its repetition.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        let rep = self.open.last().map_or(0, |&p| self.spans[p].rep);
        self.span_with_rep(name, rep, f)
    }

    /// Like [`SpanLog::span`], but the span starts a new repetition: it and
    /// its descendants carry a fresh id.
    pub fn rep_span<T>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        self.next_rep += 1;
        let rep = self.next_rep;
        self.span_with_rep(name, rep, f)
    }

    fn span_with_rep<T>(&mut self, name: &str, rep: u32, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record a span from explicit times.
    #[cfg(test)]
    fn push_raw(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its direct children cover (overlapping children count once).
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_ns - s.start_ns).saturating_sub(covered)
    }

    /// Total (duration, self time, count) per span name, ms, sorted by name.
    pub fn by_name(&self) -> Vec<(String, f64, f64, usize)> {
        let mut rows: std::collections::BTreeMap<&str, (u64, u64, usize)> = std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = rows.entry(&s.name).or_default();
            row.0 += s.end_ns - s.start_ns;
            row.1 += self.self_ns(i);
            row.2 += 1;
        }
        rows.into_iter().map(|(k, (d, s, n))| (k.to_string(), d as f64 / 1e6, s as f64 / 1e6, n)).collect()
    }

    /// The log as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete (`ph: "X"`) events in µs, one row (`tid`) per
    /// nesting depth so children sit under their parent.
    pub fn chrome_trace(&self, process_name: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            escape(process_name)
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let mut depth = 0;
            let mut up = s.parent;
            while let Some(p) = up {
                depth += 1;
                up = self.spans[p].parent;
            }
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{depth},\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{},\"rep\":{},\"self_us\":{:.3}}}}}",
                escape(&s.name),
                escape(s.name.split('.').next().unwrap_or("")),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.rep,
                self.self_ns(i) as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent, rep: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new();
        let root = log.push_raw(raw("root", 0, 100, None));
        // Two overlapping children cover [10, 50]; a third covers [70, 80].
        let a = log.push_raw(raw("a", 10, 40, Some(root)));
        log.push_raw(raw("b", 30, 50, Some(root)));
        log.push_raw(raw("c", 70, 80, Some(root)));
        // A grandchild only reduces its own parent's self time.
        log.push_raw(raw("a1", 15, 25, Some(a)));
        assert_eq!(log.self_ns(root), 100 - 40 - 10);
        assert_eq!(log.self_ns(a), 30 - 10);
        assert_eq!(log.self_ns(4), 10);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut log = SpanLog::new();
        let root = log.push_raw(raw("root", 10, 20, None));
        log.push_raw(raw("early", 0, 12, Some(root)));
        log.push_raw(raw("late", 18, 30, Some(root)));
        assert_eq!(log.self_ns(root), 6);
    }

    #[test]
    fn nesting_and_repetition_ids() {
        let mut log = SpanLog::new();
        log.span("run", |log| {
            log.rep_span("rep.wan", |log| log.span("core.engine", |_| ()));
            log.rep_span("rep.lan", |_| ());
            log.span("probe", |_| ());
        });
        let s = log.spans();
        assert_eq!(
            s.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["run", "rep.wan", "core.engine", "rep.lan", "probe"]
        );
        assert_eq!(s.iter().map(|s| s.parent).collect::<Vec<_>>(), [None, Some(0), Some(1), Some(0), Some(0)]);
        assert_eq!(s.iter().map(|s| s.rep).collect::<Vec<_>>(), [0, 1, 1, 2, 0]);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        let by_name = log.by_name();
        assert_eq!(by_name.len(), 5);
        assert!(by_name.iter().all(|(_, dur, own, n)| own <= dur && *n == 1));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_the_fields_a_viewer_needs() {
        let mut log = SpanLog::new();
        log.span("run", |log| log.rep_span("rep \"quoted\"", |_| ()));
        let doc = mdo_obs::json::parse(&log.chrome_trace("perf test")).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
        assert_eq!(events.len(), 3, "metadata + two spans");
        for e in &events[1..] {
            assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("X"));
            for key in ["ts", "dur", "pid", "tid"] {
                assert!(e.get(key).and_then(|v| v.as_f64()).is_some(), "{key} present");
            }
        }
        assert_eq!(events[2].get("name").and_then(|n| n.as_str()), Some("rep \"quoted\""));
    }
}
