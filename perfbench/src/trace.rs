//! In-memory span recorder for the traced run.
//!
//! Spans are taken around calls the benchmark makes from outside the
//! program, one public entry point per layer, so a parent and its
//! children are separate calls on the same input rather than nested
//! intervals. A layer's self time is the parent's duration minus the
//! durations of the children standing for its parts; a negative residue
//! is reported as it is, because clamping it would hide that the parts
//! cost more than the whole.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The sampled operation this call belongs to.
    pub op: u64,
    /// The span standing for the caller's layer, if any.
    pub parent: Option<usize>,
    /// Layer entry point, e.g. `index.plan`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The spans of one run, written out when it ends.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty recorder timing relative to `origin`.
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    /// Times `f` as a span and returns its id and result.
    pub fn span<R>(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let end = Instant::now();
        (self.record(op, parent, name, start, end), r)
    }

    /// Records a span timed by the caller.
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { op, parent, name, start_ns: ns(start), end_ns: ns(end) });
        self.spans.len() - 1
    }

    /// Duration of span `id` in microseconds.
    pub fn us(&self, id: usize) -> f64 {
        self.spans[id].us()
    }

    /// One JSON object per line: `span`, `op`, `parent`, `name`,
    /// `start_ns`, `end_ns`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// A layer's self time: its duration minus the durations of the parts
/// it is made of. Negative when the parts, timed separately, cost more.
pub fn self_time(parent_us: f64, children_us: &[f64]) -> f64 {
    parent_us - children_us.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_reports_negative_residues() {
        assert_eq!(self_time(10.0, &[3.0, 4.0]), 3.0);
        assert_eq!(self_time(10.0, &[6.0, 7.0]), -3.0);
        assert_eq!(self_time(5.0, &[]), 5.0);
    }

    #[test]
    fn spans_keep_parents_and_times_relative_to_the_origin() {
        let origin = Instant::now();
        let mut trace = Trace::new(origin);
        let t = origin + Duration::from_micros(10);
        let root = trace.record(1, None, "handle.query", t, t + Duration::from_micros(8));
        trace.record(1, Some(root), "index.query", t, t + Duration::from_micros(5));
        let (child, v) = trace.span(1, Some(root), "index.plan", || 42);
        assert_eq!(v, 42);
        assert_eq!(child, 2);
        assert_eq!(trace.us(root), 8.0);
        let jsonl = trace.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[1],
            "{\"span\":1,\"op\":1,\"parent\":0,\"name\":\"index.query\",\"start_ns\":10000,\"end_ns\":15000}"
        );
        assert!(lines[0].contains("\"parent\":null"), "{}", lines[0]);
    }
}
