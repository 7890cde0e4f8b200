//! In-memory span recorder used by the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! repository's public API; nothing inside the program is instrumented.
//! Each span carries a name, start and end (ns since the recorder was
//! created), its parent span and the id of the op it belongs to.  Spans stay
//! in memory until [`Recorder::write_json`] dumps them at the end of a run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled recorder only runs the closures.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one span never overlap — the benchmark
    /// calls the API from one thread).
    fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        self.spans.iter().zip(child_ns).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
    }

    /// Per op, the summed self time of each span name, in ms.
    pub fn self_ms_by_op(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(span.op).or_default().entry(span.name).or_default() += self_ns as f64 / 1e6;
        }
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// All spans as a JSON array (one object per span).
    pub fn write_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                span.name, span.start_ns, span.end_ns, span.op
            );
            out.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.set_op(7);
        rec.span("outer", |rec| {
            rec.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let by_name = &rec.self_ms_by_op()[&7];
        let (outer, inner) = (by_name["outer"], by_name["inner"]);
        assert!(inner >= 5.0);
        assert!(outer < inner, "outer self {outer} must exclude inner {inner}");
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].op, 7);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |_| 3), 3);
        assert_eq!(rec.len(), 0);
    }
}
