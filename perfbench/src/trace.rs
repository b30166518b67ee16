//! In-memory spans recorded by the benchmark around each wire request and each call into a
//! layer's public function. Nothing is written until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Spans of one request share `req`; `parent` indexes the span that
/// caused this one in the same [`Tracer`].
#[derive(Debug, Clone)]
pub struct Span {
    /// Reads count from 0, writes from 2^40, `/healthz` probes from 2^41.
    pub req: u64,
    pub name: &'static str,
    /// Request class: `Q1`..`Q7` on the analytic workloads; `hot`, `fresh` or `txn` on
    /// `serve_mixed`.
    pub class: &'static str,
    /// Benchmark query number `j` of the request's pattern (0 for writes).
    pub shape: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A span recorder owned by one thread. All tracers of a run share one origin instant.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that ends with [`Tracer::close`]; returns its index.
    pub fn open(
        &mut self,
        req: u64,
        name: &'static str,
        class: &'static str,
        shape: usize,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req,
            name,
            class,
            shape,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Record an interval timed by the caller.
    pub fn record(&mut self, parent: usize, name: &'static str, start: Instant, end: Instant) {
        let p = &self.spans[parent];
        let (req, class, shape) = (p.req, p.class, p.shape);
        self.spans.push(Span {
            req,
            name,
            class,
            shape,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            parent: Some(parent),
        });
    }

    /// Run `f` inside a child span of `parent`.
    pub fn child<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let p = &self.spans[parent];
        let (req, class, shape) = (p.req, p.class, p.shape);
        let span = self.open(req, name, class, shape, Some(parent));
        let out = f();
        self.close(span);
        out
    }
}

/// Durations in microseconds of every span named `name` whose class passes `class`.
pub fn durations_us(spans: &[Span], name: &str, class: impl Fn(&Span) -> bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && class(s))
        .map(Span::micros)
        .collect()
}

/// The spans as JSON lines, parents given by index into the same list.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"class\":\"{}\",\"shape\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.req, s.name, s.class, s.shape, s.start_ns, s.end_ns
        );
    }
    out
}

/// Concatenate per-thread span lists, shifting parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}
