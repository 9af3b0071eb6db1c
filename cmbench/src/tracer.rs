//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into the program's public functions;
//! nothing inside the program is instrumented by this. Each span keeps
//! its name, start, end and parent, in memory, until the run writes them
//! out. A span's *layer* is its name up to the first `.`; spans named
//! `bench.*` are the benchmark's own structure, and their self time is
//! reported as unattributed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer name of the benchmark's structural spans.
pub const BENCH_LAYER: &str = "bench";

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// `layer.operation`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl SpanRecord {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records nested spans on one thread. A disabled tracer runs the same
/// closures and records nothing, which is how the tracing overhead is
/// measured.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Self::new()
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every completed span, in start order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Each span's self time: its duration minus the part of its interval
/// its child spans cover.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - covered(kids, span.start_ns, span.end_ns))
        .collect()
}

/// Self time summed per layer.
pub fn self_by_layer(spans: &[SpanRecord]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.layer().to_owned()).or_insert(0) += own;
    }
    out
}

/// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`).
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            span.name, span.start_ns, span.end_ns, parent
        );
    }
    out
}
