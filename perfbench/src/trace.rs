//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer:
//! name, start, end, parent span and request id. Spans stay in memory
//! while the workload runs and are written as JSON lines when it ends.
//! A layer's self time is its spans' durations minus the part covered by
//! their children. With tracing off, [`Tracer::span`] only runs the
//! closure, so the untraced run pays nothing for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// Sentinel parent of a root span.
pub const ROOT: SpanId = usize::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: u64,
}

/// Per-name totals over a run's spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations (ns).
    pub total_ns: u64,
    /// Sum of their durations minus their children's (ns).
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean inclusive duration in µs (0 when no span was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean self time in µs (0 when no span was recorded).
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `request`; the innermost
    /// span still open is its parent.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.open_span(name, request);
        let out = f();
        self.close_span(id);
        out
    }

    /// Opens a span that later spans nest under until [`Tracer::close_span`].
    pub fn open_span(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close_span(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a finished root span measured elsewhere (another thread).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: ROOT,
            request,
        });
    }

    /// Total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += d;
            e.self_ns += d.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.open_span("outer", 7);
        t.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close_span(outer);
        let times = t.layer_times();
        let (outer, inner) = (times["outer"], times["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 5), 5);
        let id = t.open_span("y", 0);
        t.close_span(id);
        assert!(t.layer_times().is_empty());
    }
}
