//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: name, start, end, the span that caused it, and the first
//! request the span covers. Spans stay in memory and are written out
//! when the run ends; past the first [`Tracer::span_requests`] requests
//! only the per-layer totals keep growing.

use pll_benchmark::json::{obj, Json};
use pll_benchmark::{BenchError, Result};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    calls: u64,
}

/// Per-layer totals over every span, kept or not.
#[derive(Clone, Copy, Default)]
pub struct LayerTotal {
    /// Calls into the layer.
    pub calls: u64,
    /// Nanoseconds inside the layer's spans.
    pub total_ns: u64,
    /// `total_ns` minus the part its child spans cover.
    pub self_ns: u64,
}

/// An open span; close it with [`Tracer::close`].
pub struct Open {
    layer: &'static str,
    started: Instant,
    request: u64,
    id: Option<usize>,
    child_ns: u64,
}

/// Records spans and aggregates them per layer.
pub struct Tracer {
    origin: Instant,
    span_requests: u64,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, LayerTotal>,
}

impl Tracer {
    /// A tracer that keeps the spans of the first `span_requests`
    /// requests of each request stream.
    pub fn new(span_requests: u64) -> Tracer {
        Tracer {
            origin: Instant::now(),
            span_requests,
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Opens a span of `layer` covering requests from `request` on, under
    /// `parent`.
    pub fn open(&mut self, layer: &'static str, parent: Option<&Open>, request: u64) -> Open {
        let id = (request < self.span_requests).then(|| {
            self.spans.push(Span {
                layer,
                start_ns: 0,
                end_ns: 0,
                parent: parent.and_then(|p| p.id),
                request,
                calls: 0,
            });
            self.spans.len() - 1
        });
        Open {
            layer,
            started: Instant::now(),
            request,
            id,
            child_ns: 0,
        }
    }

    /// Closes `span` after `calls` calls into its layer; `parent`, when
    /// given, is charged the span's duration as child time. Returns the
    /// duration in nanoseconds.
    pub fn close(&mut self, span: Open, calls: u64, parent: Option<&mut Open>) -> u64 {
        let ended = Instant::now();
        let ns = (ended - span.started).as_nanos() as u64;
        if let Some(id) = span.id {
            let s = &mut self.spans[id];
            s.start_ns = (span.started - self.origin).as_nanos() as u64;
            s.end_ns = (ended - self.origin).as_nanos() as u64;
            s.calls = calls;
        }
        if let Some(parent) = parent {
            parent.child_ns += ns;
        }
        let total = self.totals.entry(span.layer).or_default();
        total.calls += calls;
        total.total_ns += ns;
        total.self_ns += ns.saturating_sub(span.child_ns);
        ns
    }

    /// Times `work` as one span of `layer` with `calls` calls in it.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        parent: &mut Open,
        calls: u64,
        work: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(layer, Some(parent), parent.request);
        let out = work();
        self.close(span, calls, Some(parent));
        out
    }

    /// Totals of `layer` (zeros if it never ran).
    pub fn total(&self, layer: &str) -> LayerTotal {
        self.totals.get(layer).copied().unwrap_or_default()
    }

    /// Nanoseconds per call of `layer` (0 if it never ran).
    pub fn ns_per_call(&self, layer: &str) -> f64 {
        let t = self.total(layer);
        if t.calls == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.calls as f64
        }
    }

    /// The per-layer totals as a JSON object.
    pub fn totals_json(&self) -> Json {
        obj(self.totals.iter().map(|(layer, t)| {
            (
                *layer,
                obj([
                    ("calls", Json::from(t.calls)),
                    ("total_ns", t.total_ns.into()),
                    ("self_ns", t.self_ns.into()),
                ]),
            )
        }))
    }

    /// Number of spans kept.
    pub fn spans_kept(&self) -> usize {
        self.spans.len()
    }

    /// Writes the kept spans, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<()> {
        let io = |e| BenchError::io(format!("write {}", path.display()), e);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = obj([
                ("id", Json::from(id)),
                ("layer", s.layer.into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("request", s.request.into()),
                ("calls", s.calls.into()),
            ]);
            writeln!(out, "{}", line.compact()).map_err(io)?;
        }
        out.flush().map_err(io)
    }
}
