//! In-memory span recording for the traced run. Spans are kept in memory
//! and written as JSON lines when the benchmark ends; an untraced run
//! records nothing.

use crate::json::Json;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Spans kept per run; later spans are counted, not stored, so a long
/// traced run cannot exhaust memory.
const MAX_SPANS: usize = 250_000;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run (never 0).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer boundary name, e.g. `net.client.call_many`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The request this span belongs to, when it belongs to one.
    pub req: Option<u64>,
}

/// A span sink shared by every load thread of one run.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<(Vec<Span>, u64)>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new((Vec::new(), 0)),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id, so a parent can be named before it ends.
    pub fn reserve(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records the finished span `id` (from [`Tracer::reserve`]).
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        req: Option<u64>,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            name,
            start_ns: start.saturating_duration_since(self.t0).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.t0).as_nanos() as u64,
            req,
        };
        let mut g = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if g.0.len() < MAX_SPANS {
            g.0.push(span);
        } else {
            g.1 += 1;
        }
    }

    /// Records a span with a fresh id and returns the id.
    pub fn span(
        &self,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        req: Option<u64>,
    ) -> u64 {
        let id = self.reserve();
        self.record(id, parent, name, start, end, req);
        id
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let g = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &g.0 {
            let line = Json::Obj(vec![
                ("id".into(), Json::Num(s.id as f64)),
                ("parent".into(), Json::Num(s.parent as f64)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                (
                    "req".into(),
                    s.req.map_or(Json::Null, |r| Json::Num(r as f64)),
                ),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        if g.1 > 0 {
            let note = Json::Obj(vec![("dropped_spans".into(), Json::Num(g.1 as f64))]);
            writeln!(out, "{}", note.render())?;
        }
        out.flush()
    }
}
