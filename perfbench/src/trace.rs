//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

/// Span handle: an index into the tracer's span list.
pub type SpanId = usize;

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_request: 0,
        }
    }

    /// Open the root span of a new request.
    pub fn request(&mut self, name: &'static str) -> (u64, SpanId) {
        self.next_request += 1;
        let req = self.next_request;
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: None,
            request: req,
        });
        (req, self.spans.len() - 1)
    }

    /// Time `f` as a child span of the request root `parent` (which
    /// stretches to cover it), returning its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = self.epoch.elapsed();
        let r = f();
        let end = self.epoch.elapsed();
        let root = &mut self.spans[parent];
        root.end = root.end.max(end);
        let request = root.request;
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
            request,
        });
        (r, end - start)
    }

    /// Per span name: how many child spans and their total time, in
    /// milliseconds (request roots only group their request's spans).
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_some()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end - s.start).as_secs_f64() * 1e3;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.request
            )?;
        }
        out.flush()
    }
}
