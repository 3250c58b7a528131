//! An in-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's side of each public call into a
//! layer; nothing inside the product is instrumented. They stay in memory
//! until the run ends and are then written out as JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`parse`, `passes`, ...).
    pub name: &'static str,
    /// Compile or request id the span belongs to.
    pub id: u64,
    /// Start, as an offset from the tracer's origin.
    pub start: Duration,
    /// End, as an offset from the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            id,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        result
    }

    /// Records a span measured elsewhere (a client-side request span).
    pub fn record(&mut self, name: &'static str, id: u64, start: Duration, end: Duration) {
        self.spans.push(Span {
            name,
            id,
            start,
            end,
            parent: self.open.last().copied(),
        });
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part of it
    /// its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (index, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(index);
            }
        }
        let mut totals: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            let mut intervals: Vec<(Duration, Duration)> = children[index]
                .iter()
                .map(|&c| (self.spans[c].start, self.spans[c].end))
                .collect();
            intervals.sort();
            let mut covered = Duration::ZERO;
            let mut reach = span.start;
            for (start, end) in intervals {
                let start = start.max(reach);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            *totals.entry(span.name).or_default() +=
                (span.end - span.start).saturating_sub(covered);
        }
        totals
    }

    /// Total duration of every span with this name.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.end - span.start)
            .sum()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"index\":{index},\"name\":\"{}\",\"id\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}",
                span.name,
                span.id,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
            );
            out.push_str(if index + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out.push('\n');
        out
    }
}
