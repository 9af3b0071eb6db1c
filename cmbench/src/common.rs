//! Plumbing shared by the workloads: run context, verdict tally, layer
//! metric map, and the bridge to the program's own span recorder.

use cmbench::report::Gate;
use cmbench::tracer::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Errors end the run without a result.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// What one invocation runs with.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Scratch directory of this run (removed at exit).
    pub work: PathBuf,
}

/// What an untraced run measured: the gated end-to-end metrics (peak
/// memory is read by the caller) and report-only figures.
#[derive(Debug)]
pub struct EndToEnd {
    /// Median set-up time, in seconds.
    pub setup_s: f64,
    /// Trace cycles brought to a verdict per host second.
    pub cycles_per_s: f64,
    /// Workload-specific figures, by name.
    pub extra: Vec<(String, f64)>,
}

/// Whether a traced section runs its workload at full size or as a small
/// probe that gives the layers off the workload's path a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workload's own, paper-scale section.
    Full,
    /// A reduced section for layers the workload does not exercise.
    Probe,
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

/// Sets `name` unless an earlier (the workload's own) section did.
pub fn set_layer(layers: &mut Layers, name: &str, value: f64) {
    layers.entry(name.to_owned()).or_insert(value);
}

/// Counts verdicts against ground truth and records correctness gates.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Operations that errored or gave a wrong verdict.
    pub failed: u64,
    /// Correctness gates.
    pub gates: Vec<Gate>,
    /// The first few wrong verdicts, for the log.
    pub wrong: Vec<String>,
    /// Facts about the run the result should carry (kernel, mmap, ...).
    pub info: BTreeMap<String, String>,
}

impl Tally {
    /// Counts one checked operation.
    pub fn verdict(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.wrong.len() < 8 {
                self.wrong.push(what());
            }
        }
    }

    /// Records a fact about the run.
    pub fn info(&mut self, key: &str, value: &str) {
        self.info.insert(key.to_owned(), value.to_owned());
    }

    /// Records a gate.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.to_owned(),
            ok,
            detail: detail.into(),
        });
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Summed nanoseconds of the spans called `name` recorded at or after
/// index `mark`.
pub fn span_ns_since(tracer: &Tracer, mark: usize, name: &str) -> f64 {
    tracer.spans()[mark..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .sum()
}

/// Durations of the spans called `name` recorded at or after index
/// `mark`, in milliseconds.
pub fn span_ms_list(tracer: &Tracer, mark: usize, name: &str) -> Vec<f64> {
    tracer.spans()[mark..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Count and summed nanoseconds of the program's own spans called `name`
/// recorded while `f` ran, plus the growth of the program's counters.
/// Needs the program's recorder installed; runs `f` unsuppressed.
pub fn with_program_spans<R>(f: impl FnOnce() -> R) -> (R, ProgramDelta) {
    let before = clockmark_obs::snapshot().unwrap_or_default();
    let out = f();
    let after = clockmark_obs::snapshot().unwrap_or_default();
    (out, ProgramDelta { before, after })
}

/// Program-recorder snapshots around one call.
#[derive(Debug, Default)]
pub struct ProgramDelta {
    before: clockmark_obs::MetricsSnapshot,
    after: clockmark_obs::MetricsSnapshot,
}

impl ProgramDelta {
    fn span(snapshot: &clockmark_obs::MetricsSnapshot, name: &str) -> (u64, u128) {
        snapshot
            .spans
            .iter()
            .find(|(n, _)| n == name)
            .map_or((0, 0), |(_, s)| (s.count, s.total_ns))
    }

    /// Count and summed nanoseconds of span `name` during the call.
    pub fn span_ns(&self, name: &str) -> (u64, f64) {
        let (c0, t0) = Self::span(&self.before, name);
        let (c1, t1) = Self::span(&self.after, name);
        (c1 - c0, (t1 - t0) as f64)
    }

    /// Growth of counter `name` during the call.
    pub fn counter(&self, name: &str) -> u64 {
        self.after.counter(name).unwrap_or(0) - self.before.counter(name).unwrap_or(0)
    }
}

/// One comparison of a program span against the benchmark's own span
/// around the same work, as a JSON object.
pub fn crosscheck(
    program: &str,
    program_ms: f64,
    bench: &str,
    bench_ms: f64,
    bound: f64,
) -> String {
    let gap = (program_ms - bench_ms).abs() / bench_ms.max(f64::MIN_POSITIVE);
    cmbench::report::JsonObject::new()
        .str("program_span", program)
        .num("program_ms", program_ms)
        .str("bench_span", bench)
        .num("bench_ms", bench_ms)
        .num("gap", gap)
        .bool("disagrees", gap > bound)
        .finish()
}
