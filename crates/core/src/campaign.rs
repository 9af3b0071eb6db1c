//! Resumable sharded detection campaigns over a trace corpus.
//!
//! A *campaign* answers the fleet-scale question: given a corpus of
//! stored power traces (see [`clockmark_corpus`]), does each one carry
//! the watermark? Jobs — one per trace — are sharded across the same
//! std-thread engine that powers [`ExperimentBatch`](crate::ExperimentBatch),
//! and every job runs through one ingest loop that reads its trace in
//! disk-sized chunks and owns the CRC, checkpoints, interrupts, progress
//! and landing. The [`CampaignSpec`] picks what a chunk feeds:
//!
//! - **fixed budget** (the default): a [`DetectMode::Fixed`] [`Session`]
//!   fed via [`Session::push_chunk`], evaluated once at the end of the
//!   trace, which is never fully resident;
//! - **sequential** ([`CampaignSpec::sequential`]): the same session in
//!   [`DetectMode::Sequential`] — the job stops reading once the
//!   schedule decides (see `docs/sequential.md`);
//! - **scenario** ([`CampaignSpec::scenario`], any non-identity cell): a
//!   buffer of the whole trace, replayed through the attack/defense
//!   pipeline at the end (see `docs/attacks.md`).
//!
//! Everything a campaign learns is persisted as it happens:
//!
//! ```text
//! campaign/
//!   campaign.json        # the spec, written once at creation (tmp+rename)
//!   results.jsonl        # append-only completed-job outcomes (flushed per line)
//!   progress.json        # live progress (tmp, remove, rename; may be absent)
//!   checkpoints/
//!     job_<idx>.ckpt     # binary mid-flight fold snapshots (tmp, remove, rename)
//!     job_<idx>.tmp      # the next snapshot while it is written
//!   report.json          # final report, written when the last job lands
//! ```
//!
//! A checkpoint replaces its predecessor without renaming over it: the
//! new snapshot is written to the temp name, the live file is removed,
//! and the temp is renamed onto the now-free name, because renaming over
//! a live file stalls in file-system write-back. A kill in between leaves
//! the complete temp, which a restore falls back to, and a torn temp
//! fails its CRC. `progress.json` is replaced the same way; the files
//! that cannot validate themselves are still renamed over.
//!
//! Kill the process at any instant — between jobs, mid-trace, even
//! mid-append (the torn last line of `results.jsonl` is tolerated) — and
//! [`Campaign::run`] picks up exactly where it stopped: completed jobs
//! are skipped, checkpointed jobs resume from their snapshot (a
//! sequential one re-derives its schedule from the absolute cycle count;
//! a scenario job never checkpoints and replays whole), and because
//! [`Session::push_chunk`] performs bit-for-bit the same
//! accumulations as an uninterrupted fold, the final report is
//! **byte-identical** to one produced without the interruption.

use crate::attack::ScenarioSpec;
use crate::batch::parallel_map;
use crate::scenario::run_scenario_detection;
use clockmark_corpus::codec;
use clockmark_corpus::{Corpus, CorpusError, Crc32};
use clockmark_cpa::{
    CpaAlgo, CpaError, DetectMode, DetectOptions, DetectionCriterion, DetectionResult, Detector,
    SequentialOptions, Session, StreamingCpaState,
};
use clockmark_obs::json::{self, DecodeError, FromJson, Json, Record};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Magic bytes leading a checkpoint file. Version 2 added the spectrum
/// kernel byte; version-1 checkpoints fail the magic check and are
/// discarded on restore, which is always safe (the job replays from the
/// trace start, bit-identically).
const CKPT_MAGIC: &[u8; 8] = b"CMCKPT2\0";

/// Checkpoint wire value for each spectrum kernel.
fn algo_to_byte(algo: CpaAlgo) -> u8 {
    match algo {
        CpaAlgo::Naive => 0,
        CpaAlgo::Folded => 1,
        CpaAlgo::Fft => 2,
        _ => u8::MAX,
    }
}

/// Inverse of [`algo_to_byte`]; `None` for unknown wire values.
fn algo_from_byte(byte: u8) -> Option<CpaAlgo> {
    match byte {
        0 => Some(CpaAlgo::Naive),
        1 => Some(CpaAlgo::Folded),
        2 => Some(CpaAlgo::Fft),
        _ => None,
    }
}

/// Errors produced by the campaign engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum CampaignError {
    /// The underlying corpus failed.
    Corpus(CorpusError),
    /// Correlation analysis failed.
    Cpa(CpaError),
    /// A campaign-directory filesystem operation failed.
    Io {
        /// What the engine was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The campaign spec (or a persisted record of it) is invalid.
    Spec {
        /// What was wrong.
        message: String,
    },
    /// A report was requested before every job completed.
    Incomplete {
        /// Jobs finished so far.
        completed: usize,
        /// Jobs in the campaign.
        total: usize,
    },
}

impl CampaignError {
    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        CampaignError::Io {
            context: context.into(),
            source,
        }
    }

    pub(crate) fn spec(message: impl Into<String>) -> Self {
        CampaignError::Spec {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Corpus(e) => write!(f, "corpus: {e}"),
            CampaignError::Cpa(e) => write!(f, "cpa: {e}"),
            CampaignError::Io { context, source } => write!(f, "{context}: {source}"),
            CampaignError::Spec { message } => write!(f, "campaign spec: {message}"),
            CampaignError::Incomplete { completed, total } => {
                write!(f, "campaign incomplete: {completed} of {total} jobs done")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Corpus(e) => Some(e),
            CampaignError::Cpa(e) => Some(e),
            CampaignError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CorpusError> for CampaignError {
    fn from(e: CorpusError) -> Self {
        CampaignError::Corpus(e)
    }
}

impl From<CpaError> for CampaignError {
    fn from(e: CpaError) -> Self {
        CampaignError::Cpa(e)
    }
}

impl From<DecodeError> for CampaignError {
    fn from(e: DecodeError) -> Self {
        CampaignError::spec(e.to_string())
    }
}

/// The largest `chunk_cycles` a spec may ask for: 16 Mi cycles, a 128 MiB
/// read buffer per worker. Each job allocates its chunk up front, so an
/// unbounded value from a hand-edited `campaign.json` or a fleet
/// assignment would abort the process instead of failing the spec. (0
/// stays legal: jobs clamp it to 1.)
const MAX_CHUNK_CYCLES: usize = 1 << 24;

/// What a campaign is: which corpus, which watermark, which traces, and
/// how detection and checkpointing are tuned.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Root of the trace corpus the jobs read from.
    pub corpus: PathBuf,
    /// One period of the watermark sequence (the model vector `X`).
    pub pattern: Vec<bool>,
    /// Corpus trace names, one detection job each; job `i` is `traces[i]`.
    pub traces: Vec<String>,
    /// The global id of each job, one per trace and strictly increasing,
    /// or `None` for ids `0..traces.len()`. A fleet shard is the fleet
    /// spec narrowed to its traces and their ids, so its checkpoints,
    /// results lines and scenario seeds carry the single-node numbers.
    pub job_ids: Option<Vec<usize>>,
    /// Peak-resolution rule applied to every job.
    pub criterion: DetectionCriterion,
    /// Snapshot the fold every this many ingested cycles (0 disables
    /// periodic checkpoints; a kill then restarts in-flight jobs from the
    /// trace start, which is slower but still bit-identical).
    pub checkpoint_cycles: u64,
    /// Cycles read from disk per chunk (clamped to at least 1; a spec
    /// asking for more than 2^24 fails validation).
    pub chunk_cycles: usize,
    /// The spectrum kernel every job runs (see [`CpaAlgo`]). Resolved
    /// once, at creation time, and persisted in `campaign.json` — a
    /// resumed campaign replays the recorded kernel regardless of the
    /// resuming process's `CLOCKMARK_CPA_ALGO`, because the byte-identical
    /// report guarantee only holds within one kernel's arithmetic.
    pub algo: CpaAlgo,
    /// Sequential early-termination schedule, or `None` for classic
    /// fixed-budget jobs. Persisted in `campaign.json` like the kernel:
    /// the checkpoint schedule is a pure function of these options and
    /// the absolute cycle count, so a resumed campaign re-derives
    /// exactly the checkpoints an uninterrupted run would have hit and
    /// lands bit-identical outcomes (see `docs/sequential.md`).
    pub sequential: Option<SequentialOptions>,
    /// Adversarial scenario applied to every job, or `None` for a plain
    /// detection campaign. Persisted in `campaign.json` like the kernel
    /// and the sequential schedule, with the same tolerant decode (a
    /// pre-scenario spec simply has no field). An *identity* scenario
    /// (no attack, no defense, nominal SNR) runs the plain streaming job
    /// path — its report is byte-for-byte a plain campaign's — while any
    /// other scenario buffers each trace whole, replays the deterministic
    /// attack/defense pipeline over it, and lands the defense's verdict
    /// (see `docs/attacks.md`).
    pub scenario: Option<ScenarioSpec>,
}

impl CampaignSpec {
    /// A spec with the default criterion, 64 Ki-cycle checkpoints and
    /// 8 Ki-cycle read chunks. The spectrum kernel is resolved here,
    /// once: `CLOCKMARK_CPA_ALGO` when set, the pattern's work heuristic
    /// otherwise.
    pub fn new(corpus: impl Into<PathBuf>, pattern: Vec<bool>, traces: Vec<String>) -> Self {
        let algo = clockmark_cpa::algo_override()
            .unwrap_or_else(|| CpaAlgo::resolved_for_pattern(&pattern));
        CampaignSpec {
            corpus: corpus.into(),
            pattern,
            traces,
            job_ids: None,
            criterion: DetectionCriterion::default(),
            checkpoint_cycles: 65_536,
            chunk_cycles: 8_192,
            algo,
            sequential: None,
            scenario: None,
        }
    }

    /// Turns on sequential early-termination for every job.
    #[must_use]
    pub fn with_sequential(mut self, options: SequentialOptions) -> Self {
        self.sequential = Some(options);
        self
    }

    /// Applies an adversarial scenario to every job.
    #[must_use]
    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// The jobs in trace order: job `i` reads `traces[i]` under the id
    /// `job_ids[i]`, or `i` when the spec carries no ids.
    pub fn jobs(&self) -> Vec<JobSpec> {
        let ids = self
            .job_ids
            .clone()
            .unwrap_or_else(|| (0..self.traces.len()).collect());
        ids.into_iter()
            .zip(&self.traces)
            .map(|(index, trace)| JobSpec {
                index,
                trace: trace.clone(),
            })
            .collect()
    }

    /// Whether `index` is the id of one of the spec's jobs.
    pub fn has_job(&self, index: usize) -> bool {
        match &self.job_ids {
            Some(ids) => ids.binary_search(&index).is_ok(),
            None => index < self.traces.len(),
        }
    }

    /// Serialises the spec as one JSON object. `job_ids` is written only
    /// when set, so a spec without ids keeps the bytes it always had.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(256);
        self.encode_head(&mut out);
        if let Some(ids) = &self.job_ids {
            out.push_str(",\"job_ids\":");
            json::write_list(&mut out, ids, |out, id| {
                let _ = write!(out, "{id}");
            });
        }
        self.encode_tuning(&mut out);
        if let Some(seq) = &self.sequential {
            let _ = write!(
                out,
                ",\"sequential\":{{\"base_cycles\":{},\"growth\":",
                seq.base_cycles
            );
            json::write_f64(&mut out, seq.growth);
            let _ = write!(out, ",\"min_cycles\":{}", seq.min_cycles);
            if let Some(confidence) = seq.confidence {
                out.push_str(",\"confidence\":");
                json::write_f64(&mut out, confidence);
            }
            if let Some(max) = seq.max_cycles {
                let _ = write!(out, ",\"max_cycles\":{max}");
            }
            out.push('}');
        }
        if let Some(scenario) = &self.scenario {
            out.push_str(",\"scenario\":");
            scenario.encode_into(&mut out);
        }
        out.push('}');
        out
    }

    /// Writes the head a spec and a scenario matrix both open with:
    /// `{"corpus":…,"pattern":"0110…","traces":[…]`.
    pub(crate) fn encode_head(&self, out: &mut String) {
        out.push_str("{\"corpus\":");
        json::write_str(out, &self.corpus.to_string_lossy());
        out.push_str(",\"pattern\":\"");
        out.extend(self.pattern.iter().map(|&bit| if bit { '1' } else { '0' }));
        out.push_str("\",\"traces\":");
        json::write_list(out, &self.traces, |out, trace| json::write_str(out, trace));
    }

    /// Writes the tuning fields a spec and a scenario matrix share,
    /// `,"min_peak_ratio":…` through `,"algo":"…"`.
    pub(crate) fn encode_tuning(&self, out: &mut String) {
        out.push_str(",\"min_peak_ratio\":");
        json::write_f64(out, self.criterion.min_peak_ratio);
        out.push_str(",\"min_zscore\":");
        json::write_f64(out, self.criterion.min_zscore);
        let _ = write!(
            out,
            ",\"checkpoint_cycles\":{},\"chunk_cycles\":{},\"algo\":\"{}\"",
            self.checkpoint_cycles,
            self.chunk_cycles,
            self.algo.as_str()
        );
    }

    /// Parses a spec serialised by [`encode`](CampaignSpec::encode).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] for malformed JSON or
    /// missing/ill-typed fields.
    pub fn decode(text: &str) -> Result<Self, CampaignError> {
        Ok(json::decode(text)?)
    }

    /// Validates the spec: a usable pattern, at least one trace, no
    /// duplicate trace names, job ids (when set) one per trace and
    /// strictly increasing, a read chunk of at most 2^24 cycles, and
    /// finite criterion and schedule numbers (a non-finite one would be
    /// persisted as `null`, and the campaign could never be reopened).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Cpa`] for a degenerate pattern and
    /// [`CampaignError::Spec`] for job-list problems.
    pub fn validate(&self) -> Result<(), CampaignError> {
        Detector::new(&self.pattern)?;
        if self.traces.is_empty() {
            return Err(CampaignError::spec("campaign has no traces"));
        }
        let mut seen = std::collections::BTreeSet::new();
        for trace in &self.traces {
            if !seen.insert(trace.as_str()) {
                return Err(CampaignError::spec(format!("duplicate trace `{trace}`")));
            }
        }
        if let Some(ids) = &self.job_ids {
            if ids.len() != self.traces.len() || ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CampaignError::spec(format!(
                    "{} job ids for {} traces; they must be one per trace, strictly increasing",
                    ids.len(),
                    self.traces.len()
                )));
            }
        }
        if self.chunk_cycles > MAX_CHUNK_CYCLES {
            return Err(CampaignError::spec(format!(
                "chunk_cycles {} exceeds the maximum of {MAX_CHUNK_CYCLES}",
                self.chunk_cycles
            )));
        }
        let seq = self.sequential.unwrap_or_default();
        let numbers = [
            ("min_peak_ratio", self.criterion.min_peak_ratio),
            ("min_zscore", self.criterion.min_zscore),
            ("sequential.growth", seq.growth),
            ("sequential.confidence", seq.confidence.unwrap_or(0.0)),
        ];
        if let Some((name, v)) = numbers.into_iter().find(|(_, v)| !v.is_finite()) {
            return Err(CampaignError::spec(format!(
                "{name} must be finite, got {v}"
            )));
        }
        if let Some(scenario) = &self.scenario {
            scenario
                .validate()
                .map_err(|e| CampaignError::spec(e.to_string()))?;
            // A non-identity scenario job buffers its trace and decides
            // in one shot — there is no streaming fold to terminate early.
            if self.sequential.is_some() && !scenario.is_identity() {
                return Err(CampaignError::spec(
                    "scenario campaigns do not support sequential schedules",
                ));
            }
        }
        Ok(())
    }
}

impl FromJson<'_> for CampaignSpec {
    fn from_json(value: &Json, path: impl FnOnce() -> String) -> Result<Self, DecodeError> {
        let f = Record::from_json(value, path)?;
        let (corpus, pattern, traces) = decode_head(&f)?;
        // Specs written before the kernel was recorded lack the field;
        // resolve those from the pattern heuristic, never from the
        // resuming environment (the environment at *creation* decided).
        let algo = algo_field(&f)?.unwrap_or_else(|| CpaAlgo::resolved_for_pattern(&pattern));
        // Specs written before sequential campaigns existed lack the
        // object; those campaigns keep running fixed-budget jobs.
        let sequential = match f.opt::<Record>("sequential")? {
            None => None,
            Some(seq) => Some(SequentialOptions {
                base_cycles: seq.req("base_cycles")?,
                growth: seq.req("growth")?,
                confidence: seq.opt("confidence")?,
                min_cycles: seq.req("min_cycles")?,
                max_cycles: seq.opt("max_cycles")?,
            }),
        };
        Ok(CampaignSpec {
            corpus,
            pattern,
            traces,
            job_ids: f.opt("job_ids")?,
            criterion: DetectionCriterion {
                min_peak_ratio: f.req("min_peak_ratio")?,
                min_zscore: f.req("min_zscore")?,
            },
            checkpoint_cycles: f.req("checkpoint_cycles")?,
            chunk_cycles: f.req("chunk_cycles")?,
            algo,
            sequential,
            // Specs written before scenarios existed lack the object;
            // those campaigns keep running plain detection jobs.
            scenario: f.opt("scenario")?,
        })
    }
}

/// Reads what [`CampaignSpec::encode_head`] writes: corpus, pattern
/// bits, trace names.
pub(crate) fn decode_head(f: &Record) -> Result<(PathBuf, Vec<bool>, Vec<String>), DecodeError> {
    let pattern = f
        .req::<&str>("pattern")?
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(f.error("pattern", format!("contains `{other}`; only 0/1 allowed"))),
        })
        .collect::<Result<_, _>>()?;
    Ok((
        PathBuf::from(f.req::<&str>("corpus")?),
        pattern,
        f.req("traces")?,
    ))
}

/// The `algo` field, `None` when absent; an unknown kernel is an error,
/// never a silent fallback.
pub(crate) fn algo_field(f: &Record) -> Result<Option<CpaAlgo>, DecodeError> {
    f.opt::<&str>("algo")?
        .map(|name| {
            CpaAlgo::parse(name)
                .ok_or_else(|| f.error("algo", format!("unknown spectrum kernel `{name}`")))
        })
        .transpose()
}

/// One unit of campaign work: run detection over one stored trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The job's id: its position in the trace list, or its entry in the
    /// spec's `job_ids` (stable across resumes).
    pub index: usize,
    /// The corpus trace this job reads.
    pub trace: String,
}

/// The persisted outcome of one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Job index.
    pub index: usize,
    /// The trace analysed.
    pub trace: String,
    /// Cycles the trace held.
    pub cycles: u64,
    /// The detection verdict and its statistics.
    pub result: DetectionResult,
}

impl JobOutcome {
    /// Serialises the outcome as one JSON line (no trailing newline).
    ///
    /// Finite `f64` fields are written in Rust's shortest round-trip
    /// form, so decoding them back is bit-exact — the property the
    /// byte-identical-report guarantee rests on.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(out, "{{\"index\":{},\"trace\":", self.index);
        json::write_str(&mut out, &self.trace);
        let _ = write!(
            out,
            ",\"cycles\":{},\"detected\":{},\"peak_rotation\":{},\"peak_rho\":",
            self.cycles, self.result.detected, self.result.peak_rotation
        );
        json::write_f64(&mut out, self.result.peak_rho);
        out.push_str(",\"floor_max_abs\":");
        json::write_f64(&mut out, self.result.floor_max_abs);
        out.push_str(",\"ratio\":");
        json::write_f64(&mut out, self.result.ratio);
        out.push_str(",\"zscore\":");
        json::write_f64(&mut out, self.result.zscore);
        out.push('}');
        out
    }

    /// Parses one `results.jsonl` line.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] for malformed JSON or
    /// missing/ill-typed fields.
    pub fn decode(text: &str) -> Result<Self, CampaignError> {
        Ok(json::decode(text)?)
    }
}

impl FromJson<'_> for JobOutcome {
    fn from_json(value: &Json, path: impl FnOnce() -> String) -> Result<Self, DecodeError> {
        let f = Record::from_json(value, path)?;
        Ok(JobOutcome {
            index: f.req("index")?,
            trace: f.req("trace")?,
            cycles: f.req("cycles")?,
            result: DetectionResult {
                detected: f.req("detected")?,
                peak_rotation: f.req("peak_rotation")?,
                peak_rho: f.req("peak_rho")?,
                floor_max_abs: f.req("floor_max_abs")?,
                ratio: f.req("ratio")?,
                zscore: f.req("zscore")?,
            },
        })
    }
}

/// Optional bounds on one [`Campaign::run`] call.
///
/// Both limits exist so tests, benches and the CI smoke job can simulate
/// interrupted fleets deterministically; an unbounded `run` drains the
/// campaign to completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignLimits {
    /// Complete at most this many jobs in this call (the rest stay
    /// pending for a later `run`).
    pub max_jobs: Option<usize>,
    /// Interrupt each in-flight job after it ingests this many cycles in
    /// this call: the fold is checkpointed and the job left pending —
    /// exactly what a `SIGKILL` mid-trace leaves behind.
    pub interrupt_job_after_cycles: Option<u64>,
}

impl CampaignLimits {
    /// No limits: run to completion.
    pub fn none() -> Self {
        CampaignLimits::default()
    }
}

/// Where a campaign currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Jobs in the campaign.
    pub total: usize,
    /// Jobs with a persisted outcome.
    pub completed: usize,
    /// Completed jobs whose watermark was detected.
    pub detected: usize,
    /// Pending jobs with a mid-flight checkpoint on disk.
    pub checkpointed: usize,
}

impl CampaignStatus {
    /// Whether every job has completed.
    pub fn is_complete(&self) -> bool {
        self.completed == self.total
    }

    /// Jobs not yet completed.
    pub fn pending(&self) -> usize {
        self.total - self.completed
    }
}

impl std::fmt::Display for CampaignStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} jobs done ({} detected, {} pending, {} checkpointed)",
            self.completed,
            self.total,
            self.detected,
            self.pending(),
            self.checkpointed,
        )
    }
}

/// The final product of a completed campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The spectrum kernel every outcome was computed with.
    pub algo: CpaAlgo,
    /// Every job's outcome, sorted by job index.
    pub outcomes: Vec<JobOutcome>,
}

impl CampaignReport {
    /// Completed jobs whose watermark was detected.
    pub fn detected(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.detected).count()
    }

    /// Serialises the report deterministically: same outcomes in, same
    /// bytes out — what the kill-and-resume tests compare. The kernel is
    /// part of the bytes, so two reports only compare equal when they
    /// were produced by the same arithmetic.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64 + self.outcomes.len() * 160);
        let _ = write!(
            out,
            "{{\"total\":{},\"detected\":{},\"algo\":\"{}\",\"jobs\":",
            self.outcomes.len(),
            self.detected(),
            self.algo.as_str()
        );
        json::write_list(&mut out, &self.outcomes, |out, o| out.push_str(&o.encode()));
        out.push('}');
        out
    }
}

/// A detection campaign rooted at a directory.
///
/// Create one with [`Campaign::create`], re-open it any number of times
/// with [`Campaign::open`], and drive it with [`Campaign::run`] until
/// [`CampaignStatus::is_complete`].
#[derive(Debug)]
pub struct Campaign {
    dir: PathBuf,
    spec: CampaignSpec,
    threads: usize,
}

impl Campaign {
    /// Creates a campaign directory and persists the spec. Fails if a
    /// campaign already exists there.
    ///
    /// # Errors
    ///
    /// Returns the spec's [`validate`](CampaignSpec::validate) errors and
    /// [`CampaignError::Io`] on filesystem failure.
    pub fn create(dir: impl Into<PathBuf>, spec: CampaignSpec) -> Result<Self, CampaignError> {
        let dir = dir.into();
        spec.validate()?;
        let spec_path = dir.join("campaign.json");
        if spec_path.exists() {
            return Err(CampaignError::io(
                format!("creating campaign at {}", dir.display()),
                std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    "campaign.json already exists",
                ),
            ));
        }
        fs::create_dir_all(dir.join("checkpoints"))
            .map_err(|e| CampaignError::io(format!("creating {}", dir.display()), e))?;
        write_atomic(&spec_path, format!("{}\n", spec.encode()).as_bytes())?;
        Ok(Campaign {
            dir,
            spec,
            threads: clockmark_cpa::thread_count(),
        })
    }

    /// Opens an existing campaign by reading its spec.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] when the spec cannot be read and
    /// [`CampaignError::Spec`] when it is malformed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CampaignError> {
        let dir = dir.into();
        let spec_path = dir.join("campaign.json");
        let text = fs::read_to_string(&spec_path)
            .map_err(|e| CampaignError::io(format!("reading {}", spec_path.display()), e))?;
        let spec = CampaignSpec::decode(text.trim())?;
        spec.validate()?;
        Ok(Campaign {
            dir,
            spec,
            threads: clockmark_cpa::thread_count(),
        })
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The campaign spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Overrides the worker count (clamped to at least 1 at run time).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn results_path(&self) -> PathBuf {
        self.dir.join("results.jsonl")
    }

    fn report_path(&self) -> PathBuf {
        self.dir.join("report.json")
    }

    fn progress_path(&self) -> PathBuf {
        self.dir.join("progress.json")
    }

    /// The most recent live-progress snapshot published by a worker, or
    /// `None` when no run has published one (or the file is unreadable
    /// or malformed — progress is best-effort telemetry, never load-
    /// bearing state).
    pub fn live_progress(&self) -> Option<CampaignProgress> {
        let text = fs::read_to_string(self.progress_path()).ok()?;
        CampaignProgress::decode(&text)
    }

    fn checkpoint_path(&self, index: usize) -> PathBuf {
        self.dir
            .join("checkpoints")
            .join(format!("job_{index}.ckpt"))
    }

    /// Whether a job has a checkpoint under either of its names.
    fn has_checkpoint(&self, index: usize) -> bool {
        let path = self.checkpoint_path(index);
        path.exists() || temp_path(&path).exists()
    }

    /// Removes a job's checkpoint under both of its names.
    fn remove_checkpoint(&self, index: usize) {
        let path = self.checkpoint_path(index);
        let _ = fs::remove_file(temp_path(&path));
        let _ = fs::remove_file(path);
    }

    /// Loads the persisted outcomes, keyed by job index.
    ///
    /// A torn *final* line — the signature a kill mid-append leaves — is
    /// tolerated (that job simply reruns); malformed lines anywhere else
    /// are real corruption and fail loudly. Duplicate indices keep the
    /// last occurrence, so a crash between "append result" and "delete
    /// checkpoint" (which makes the job rerun and re-append) stays
    /// harmless.
    fn load_results(&self) -> Result<BTreeMap<usize, JobOutcome>, CampaignError> {
        Ok(self.load_results_detailed()?.0)
    }

    /// [`load_results`](Campaign::load_results) plus whether a torn tail
    /// was skipped — [`run`](Campaign::run) repairs the log in that case
    /// so fresh appends never concatenate onto the garbage.
    fn load_results_detailed(&self) -> Result<(BTreeMap<usize, JobOutcome>, bool), CampaignError> {
        let path = self.results_path();
        let mut map = BTreeMap::new();
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((map, false)),
            Err(e) => return Err(CampaignError::io(format!("reading {}", path.display()), e)),
        };
        let mut torn = false;
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        for (i, line) in lines.iter().enumerate() {
            match JobOutcome::decode(line) {
                Ok(outcome) => {
                    if !self.spec.has_job(outcome.index) {
                        return Err(CampaignError::spec(format!(
                            "results line {} names job {}, which the campaign does not have",
                            i + 1,
                            outcome.index
                        )));
                    }
                    map.insert(outcome.index, outcome);
                }
                Err(_) if i + 1 == lines.len() => {
                    torn = true;
                    clockmark_obs::counter_add("campaign.torn_results_lines", 1);
                }
                Err(e) => return Err(e),
            }
        }
        Ok((map, torn))
    }

    /// The persisted outcomes so far, in job-index order — the public
    /// read of the results log, with the same torn-tail tolerance and
    /// last-wins dedup a resume applies.
    ///
    /// A fleet worker uses this to hand a shard's results back to the
    /// coordinator as they are: a shard spec carries the global job ids,
    /// and the log is valid (and the outcome encoding byte-stable) at
    /// every interruption point the checkpoint machinery can produce.
    ///
    /// # Errors
    ///
    /// Returns the persistence errors of the results log.
    pub fn completed_outcomes(&self) -> Result<Vec<JobOutcome>, CampaignError> {
        Ok(self.load_results()?.into_values().collect())
    }

    /// Computes the current status from disk.
    ///
    /// # Errors
    ///
    /// Returns the persistence errors of the results log.
    pub fn status(&self) -> Result<CampaignStatus, CampaignError> {
        let completed = self.load_results()?;
        let checkpointed = self
            .spec
            .jobs()
            .iter()
            .filter(|job| !completed.contains_key(&job.index) && self.has_checkpoint(job.index))
            .count();
        Ok(CampaignStatus {
            total: self.spec.traces.len(),
            completed: completed.len(),
            detected: completed.values().filter(|o| o.result.detected).count(),
            checkpointed,
        })
    }

    /// Builds the final report. Fails until every job has completed.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Incomplete`] while jobs are pending, plus
    /// the persistence errors of the results log.
    pub fn report(&self) -> Result<CampaignReport, CampaignError> {
        let completed = self.load_results()?;
        if completed.len() != self.spec.traces.len() {
            return Err(CampaignError::Incomplete {
                completed: completed.len(),
                total: self.spec.traces.len(),
            });
        }
        Ok(CampaignReport {
            algo: self.spec.algo,
            outcomes: completed.into_values().collect(),
        })
    }

    /// Runs pending jobs (subject to `limits`) across the worker threads
    /// and returns the status afterwards. When the last job lands, the
    /// final report is written to `report.json`.
    ///
    /// Call again after an interruption — a kill, a `max_jobs` bound, an
    /// injected mid-trace interrupt — and the campaign continues from its
    /// persisted state; the eventual report is byte-identical to an
    /// uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest-ordered failing job, plus
    /// persistence errors of the campaign directory itself.
    pub fn run(&self, limits: &CampaignLimits) -> Result<CampaignStatus, CampaignError> {
        let _span = clockmark_obs::span("campaign.run")
            .field("jobs", self.spec.traces.len())
            .field("threads", self.threads)
            .field("algo", self.spec.algo.as_str());
        let corpus = Corpus::open(&self.spec.corpus)?;
        for trace in &self.spec.traces {
            if corpus.entry(trace).is_none() {
                return Err(CampaignError::spec(format!(
                    "trace `{trace}` is not in the corpus at {}",
                    self.spec.corpus.display()
                )));
            }
        }

        let (completed, torn) = self.load_results_detailed()?;
        if torn {
            // A kill mid-append left a partial record without a trailing
            // newline; rewrite the log from the intact records (atomic)
            // so the rerun job's fresh line does not concatenate onto it.
            let mut text = String::new();
            for outcome in completed.values() {
                text.push_str(&outcome.encode());
                text.push('\n');
            }
            write_atomic(&self.results_path(), text.as_bytes())?;
        }
        // A crash between "append result" and "delete checkpoint" leaves a
        // stale snapshot behind; sweep those before claiming work.
        for index in completed.keys() {
            self.remove_checkpoint(*index);
        }
        let mut pending: Vec<JobSpec> = self
            .spec
            .jobs()
            .into_iter()
            .filter(|job| !completed.contains_key(&job.index))
            .collect();
        if let Some(max) = limits.max_jobs {
            pending.truncate(max);
        }

        if !pending.is_empty() {
            let path = self.results_path();
            let file = OpenOptions::new()
                .append(true)
                .create(true)
                .open(&path)
                .map_err(|e| CampaignError::io(format!("opening {}", path.display()), e))?;
            let results = Mutex::new(file);
            let board = ProgressBoard::new(
                self.progress_path(),
                self.spec.traces.len() as u64,
                completed.len() as u64,
            );
            board.publish();
            let t0 = Instant::now();
            let finished: Vec<Result<Option<JobOutcome>, CampaignError>> =
                parallel_map(&pending, self.threads, |job| {
                    self.run_job(&corpus, job, &results, limits, &board)
                });
            let landed = finished.iter().filter(|r| matches!(r, Ok(Some(_)))).count();
            for result in finished {
                result?;
            }
            if clockmark_obs::enabled() {
                let wall = t0.elapsed().as_secs_f64();
                if wall > 0.0 {
                    clockmark_obs::gauge_set("campaign.jobs_per_sec", landed as f64 / wall);
                }
            }
        }

        let status = self.status()?;
        if status.is_complete() {
            let report = self.report()?;
            write_atomic(
                &self.report_path(),
                format!("{}\n", report.encode()).as_bytes(),
            )?;
        }
        Ok(status)
    }

    /// Runs one job to completion, or to an injected interrupt, which
    /// returns `Ok(None)` with a checkpoint on disk.
    ///
    /// One loop serves every flavour: it owns the read, the CRC, the
    /// checkpoints, the interrupt, progress and landing, and the
    /// [`JobSession`] decides what a chunk does. Each flavour keeps its
    /// own contract:
    ///
    /// - **fixed** jobs fold the whole trace and evaluate once;
    /// - **sequential** jobs stop reading as soon as the session
    ///   decides — the remaining samples are never read, which is the
    ///   entire point. A decided session is never checkpointed and never
    ///   interrupted: its fold is frozen, so the only correct
    ///   continuation is landing the outcome now (a resumed replay would
    ///   re-derive checkpoints *after* the accepting one and run longer,
    ///   breaking bit-identity). The full-trace CRC runs only when the
    ///   trace was fully read, and [`JobOutcome::cycles`] records the
    ///   cycles the verdict consumed instead of the trace length;
    /// - **scenario** jobs buffer the whole trace, then replay the
    ///   deterministic defense-embed → attack → SNR-noise pipeline over
    ///   it and land the defense's verdict (see [`crate::scenario`]).
    ///   The job is a pure function of `(spec, job index, trace bytes)`,
    ///   so the cheapest correct resume is a whole-job replay: a scenario
    ///   job never writes a checkpoint and ignores
    ///   `interrupt_job_after_cycles`.
    fn run_job(
        &self,
        corpus: &Corpus,
        job: &JobSpec,
        results: &Mutex<File>,
        limits: &CampaignLimits,
        board: &ProgressBoard,
    ) -> Result<Option<JobOutcome>, CampaignError> {
        let mut span = clockmark_obs::span("campaign.job")
            .field("index", job.index)
            .field("trace", job.trace.clone());
        if let Some(scenario) = self.replayed_scenario() {
            span = span
                .field("mode", "scenario")
                .field("attack", scenario.attack.kind())
                .field("defense", scenario.defense.kind());
        } else {
            span = span.field("mode", self.mode().name());
        }
        let _span = span;
        // Zero-copy where the platform provides it; the buffered reader
        // otherwise. Both stream bit-identical samples, so a campaign
        // resumed on a different platform (or with CLOCKMARK_NO_MMAP
        // set) still reproduces its report byte-for-byte.
        let mut reader = corpus.source(&job.trace)?;
        let trace_cycles = reader.header().cycles;
        let mut session = self.open_session(job, trace_cycles)?;
        // Replaying the consumed prefix (discarded, but still fed to the
        // CRC) keeps the end-of-trace integrity check meaningful.
        if session.cycles() > 0 {
            reader.skip_samples(session.cycles())?;
        }

        let chunk = self.spec.chunk_cycles.max(1);
        let mut buf = vec![0.0f64; chunk];
        let mut since_checkpoint = 0u64;
        let mut ingested = 0u64;
        let mut fully_read = false;
        while !session.decided() {
            let got = reader.read_chunk(&mut buf)?;
            if got == 0 {
                fully_read = true;
                break;
            }
            session.push_chunk(&buf[..got]);
            since_checkpoint += got as u64;
            ingested += got as u64;
            board.note_cycles(got as u64);
            if self.spec.checkpoint_cycles > 0 && since_checkpoint >= self.spec.checkpoint_cycles {
                if let Some(state) = session.state() {
                    self.write_checkpoint(job, &state)?;
                    board.publish();
                    since_checkpoint = 0;
                }
            }
            if let Some(limit) = limits.interrupt_job_after_cycles {
                if ingested >= limit && reader.remaining() > 0 {
                    if let Some(state) = session.state() {
                        self.write_checkpoint(job, &state)?;
                        board.publish();
                        return Ok(None);
                    }
                }
            }
        }
        if fully_read {
            reader.finish()?; // full CRC validation
        }

        let (cycles, result) = match session {
            JobSession::Fold(session) => {
                let verdict = session.finalize();
                if verdict.early_stopped {
                    clockmark_obs::counter_add(
                        "campaign.cycles_saved",
                        trace_cycles.saturating_sub(verdict.cycles),
                    );
                }
                (verdict.cycles, verdict.result)
            }
            JobSession::Scenario { mut samples } => {
                let scenario = self
                    .replayed_scenario()
                    .expect("only scenario campaigns buffer their traces");
                let result = run_scenario_detection(
                    scenario,
                    &self.spec.pattern,
                    &self.spec.criterion,
                    self.spec.algo,
                    job.index,
                    &mut samples,
                )?;
                (trace_cycles, result)
            }
        };
        self.land_outcome(
            job,
            JobOutcome {
                index: job.index,
                trace: job.trace.clone(),
                cycles,
                result,
            },
            results,
            board,
        )
    }

    /// The scenario every job replays, or `None` when jobs stream. The
    /// identity scenario streams too — that is what makes its report
    /// byte-for-byte a plain campaign's.
    fn replayed_scenario(&self) -> Option<&ScenarioSpec> {
        self.spec.scenario.as_ref().filter(|s| !s.is_identity())
    }

    /// The session mode a streamed job runs in, as the spec records it.
    fn mode(&self) -> DetectMode {
        match self.spec.sequential {
            Some(options) => DetectMode::Sequential(options),
            None => DetectMode::Fixed,
        }
    }

    /// Opens a job's session in the campaign's flavour, resuming the
    /// fold from the job's checkpoint when a valid one exists.
    fn open_session(&self, job: &JobSpec, trace_cycles: u64) -> Result<JobSession, CampaignError> {
        if self.replayed_scenario().is_some() {
            // A stale checkpoint can only be left by a crashed run of
            // the same spec, and scenario jobs never write one; sweep
            // anyway so a hand-edited spec cannot resurrect a foreign
            // snapshot.
            self.remove_checkpoint(job.index);
            return Ok(JobSession::Scenario {
                samples: Vec::with_capacity(trace_cycles as usize),
            });
        }
        // The kernel recorded in the spec is pinned on the facade, so
        // neither the environment nor the work heuristic can change the
        // arithmetic between a run and its resume.
        let facade = Detector::with_options(
            &self.spec.pattern,
            DetectOptions::default()
                .with_algo(self.spec.algo)
                .with_criterion(self.spec.criterion),
        )?;
        let session = match self.restore_checkpoint(&facade, job, trace_cycles) {
            Some(session) => session,
            None => facade.session(self.mode())?,
        };
        Ok(JobSession::Fold(Box::new(session)))
    }

    /// Appends a finished job's durable result line and retires its
    /// checkpoint. Ordering matters: the result lands first, then the
    /// checkpoint drops. A crash in between reruns the job (harmless,
    /// last line wins); the opposite order could lose the job's work.
    fn land_outcome(
        &self,
        job: &JobSpec,
        outcome: JobOutcome,
        results: &Mutex<File>,
        board: &ProgressBoard,
    ) -> Result<Option<JobOutcome>, CampaignError> {
        {
            let mut file = results
                .lock()
                .map_err(|_| CampaignError::spec("results lock poisoned"))?;
            let mut line = outcome.encode();
            line.push('\n');
            file.write_all(line.as_bytes())
                .map_err(|e| CampaignError::io("appending results.jsonl", e))?;
            file.flush()
                .map_err(|e| CampaignError::io("flushing results.jsonl", e))?;
        }
        self.remove_checkpoint(job.index);
        clockmark_obs::counter_add("campaign.jobs_completed", 1);
        board.note_job_done();
        Ok(Some(outcome))
    }

    /// Restores a job's session from its checkpoint, or `None` to start
    /// fresh. The bytes carry only the fold snapshot — a sequential
    /// schedule is re-derived from the spec and the absolute cycle
    /// count — so fixed-budget and sequential jobs share one on-disk
    /// format, and a checkpoint written in either flavour restores into
    /// whichever one the spec now records.
    ///
    /// The live file is read when it exists. Otherwise the temp is: a
    /// kill between the remove and the rename of [`replace_free_name`]
    /// leaves the complete new snapshot only under that name.
    ///
    /// Any defect — wrong trace, wrong pattern, wrong spectrum kernel,
    /// impossible cycle count, corrupt or torn bytes — discards the
    /// checkpoint: restarting a job is always safe (replay is
    /// bit-identical), trusting a bad snapshot never is.
    fn restore_checkpoint(
        &self,
        facade: &Detector,
        job: &JobSpec,
        trace_cycles: u64,
    ) -> Option<Session> {
        let path = self.checkpoint_path(job.index);
        let bytes = fs::read(&path)
            .or_else(|_| fs::read(temp_path(&path)))
            .ok()?;
        let session = decode_checkpoint(&bytes)
            .ok()
            .filter(|(index, trace, algo, state)| {
                *index == job.index
                    && *trace == job.trace
                    && *algo == self.spec.algo
                    && state.cycles <= trace_cycles
            })
            // The resume rejects a snapshot of another pattern.
            .and_then(|(_, _, _, state)| facade.resume(self.mode(), state).ok());
        if session.is_none() {
            self.remove_checkpoint(job.index);
            clockmark_obs::counter_add("campaign.checkpoints_discarded", 1);
        }
        session
    }

    /// Snapshots a job's fold to disk through [`replace_free_name`]: a
    /// kill mid-write leaves the previous checkpoint intact, and a kill
    /// after the remove leaves the complete new one as the temp.
    fn write_checkpoint(
        &self,
        job: &JobSpec,
        state: &StreamingCpaState,
    ) -> Result<(), CampaignError> {
        let bytes = encode_checkpoint(job.index, &job.trace, self.spec.algo, state);
        let path = self.checkpoint_path(job.index);
        replace_free_name(&path, &bytes)?;
        clockmark_obs::counter_add("campaign.checkpoints_written", 1);
        clockmark_obs::counter_add("campaign.checkpoint_bytes", bytes.len() as u64);
        Ok(())
    }
}

/// A live-progress snapshot of a running campaign, as published to
/// `progress.json` by worker threads after every landed job and every
/// checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignProgress {
    /// Jobs landed so far (including before this run started).
    pub done: u64,
    /// Total jobs in the campaign.
    pub total: u64,
    /// Trace cycles ingested by the current run.
    pub cycles: u64,
    /// Ingest throughput of the current run, in cycles per second.
    pub cycles_per_sec: f64,
    /// Completion throughput of the current run, in jobs per second.
    pub jobs_per_sec: f64,
    /// Estimated seconds until the remaining jobs land at the current
    /// throughput (zero until at least one job of this run has landed).
    pub eta_seconds: f64,
    /// Milliseconds the publishing run had been underway.
    pub elapsed_ms: u64,
}

impl CampaignProgress {
    /// Encodes the snapshot as one JSON object.
    pub fn encode(&self) -> String {
        format!(
            "{{\"done\":{},\"total\":{},\"cycles\":{},\"cycles_per_sec\":{},\
             \"jobs_per_sec\":{},\"eta_seconds\":{},\"elapsed_ms\":{}}}",
            self.done,
            self.total,
            self.cycles,
            self.cycles_per_sec,
            self.jobs_per_sec,
            self.eta_seconds,
            self.elapsed_ms
        )
    }

    /// Decodes a snapshot; `None` on any malformation (a torn write is
    /// indistinguishable from garbage, and both just mean "no live
    /// progress to show").
    pub fn decode(text: &str) -> Option<Self> {
        json::decode(text).ok()
    }
}

impl FromJson<'_> for CampaignProgress {
    fn from_json(value: &Json, path: impl FnOnce() -> String) -> Result<Self, DecodeError> {
        let f = Record::from_json(value, path)?;
        Ok(CampaignProgress {
            done: f.req("done")?,
            total: f.req("total")?,
            cycles: f.req("cycles")?,
            cycles_per_sec: f.req("cycles_per_sec")?,
            jobs_per_sec: f.req("jobs_per_sec")?,
            eta_seconds: f.req("eta_seconds")?,
            elapsed_ms: f.req("elapsed_ms")?,
        })
    }
}

/// One in-flight job: a detection [`Session`] in the campaign's mode, or
/// the buffer of a non-identity scenario job, which is replayed through
/// the attack/defense pipeline at the end.
enum JobSession {
    /// A streamed job's fold, in the spec's [`DetectMode`].
    Fold(Box<Session>),
    /// A scenario job's samples read so far.
    Scenario {
        /// The samples read so far.
        samples: Vec<f64>,
    },
}

impl JobSession {
    fn push_chunk(&mut self, ys: &[f64]) {
        match self {
            JobSession::Fold(session) => session.push_chunk(ys),
            JobSession::Scenario { samples } => samples.extend_from_slice(ys),
        }
    }

    /// Cycles ingested so far (a restored fold starts past zero).
    fn cycles(&self) -> u64 {
        match self {
            JobSession::Fold(session) => session.cycles(),
            JobSession::Scenario { samples } => samples.len() as u64,
        }
    }

    /// Whether the verdict is rendered and no further input is wanted.
    fn decided(&self) -> bool {
        matches!(self, JobSession::Fold(session) if session.decided())
    }

    /// The fold snapshot a checkpoint persists, or `None` for a job that
    /// is never checkpointed or interrupted: a scenario job (a kill
    /// replays it whole) and a decided sequential one (its frozen fold
    /// lands now).
    fn state(&self) -> Option<StreamingCpaState> {
        match self {
            JobSession::Fold(session) if !session.decided() => Some(session.state()),
            _ => None,
        }
    }
}

/// Shared by a run's worker threads: counts landed jobs and ingested
/// cycles, publishes gauges plus `progress.json` so `campaign status`
/// (even in another process) sees live throughput.
struct ProgressBoard {
    path: PathBuf,
    total: u64,
    base_done: u64,
    done: AtomicU64,
    cycles: AtomicU64,
    t0: Instant,
    /// Held while one worker snapshots and writes `progress.json`.
    publishing: Mutex<()>,
}

impl ProgressBoard {
    fn new(path: PathBuf, total: u64, base_done: u64) -> Self {
        ProgressBoard {
            path,
            total,
            base_done,
            done: AtomicU64::new(0),
            cycles: AtomicU64::new(0),
            t0: Instant::now(),
            publishing: Mutex::new(()),
        }
    }

    fn note_cycles(&self, n: u64) {
        self.cycles.fetch_add(n, AtomicOrdering::Relaxed);
    }

    fn note_job_done(&self) {
        self.done.fetch_add(1, AtomicOrdering::Relaxed);
        self.publish();
    }

    fn snapshot(&self) -> CampaignProgress {
        let elapsed = self.t0.elapsed().as_secs_f64();
        let run_done = self.done.load(AtomicOrdering::Relaxed);
        let done = self.base_done + run_done;
        let cycles = self.cycles.load(AtomicOrdering::Relaxed);
        let jobs_per_sec = if elapsed > 0.0 {
            run_done as f64 / elapsed
        } else {
            0.0
        };
        let remaining = self.total.saturating_sub(done);
        CampaignProgress {
            done,
            total: self.total,
            cycles,
            cycles_per_sec: if elapsed > 0.0 {
                cycles as f64 / elapsed
            } else {
                0.0
            },
            jobs_per_sec,
            eta_seconds: if jobs_per_sec > 0.0 {
                remaining as f64 / jobs_per_sec
            } else {
                0.0
            },
            elapsed_ms: (elapsed * 1e3) as u64,
        }
    }

    /// Publishes gauges and `progress.json`, one worker at a time: the
    /// snapshot is taken and written under one lock, so workers never
    /// share the temp file and `done` never goes backwards on disk. A
    /// reader may briefly find no file, which means "no progress yet".
    /// Best-effort: a publish failure never fails the campaign.
    fn publish(&self) {
        // The lock guards no data, so a panicked holder leaves nothing
        // inconsistent behind.
        let _turn = self
            .publishing
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let p = self.snapshot();
        clockmark_obs::gauge_set("campaign.jobs_done", p.done as f64);
        clockmark_obs::gauge_set("campaign.jobs_total", p.total as f64);
        clockmark_obs::gauge_set("campaign.cycles_per_sec", p.cycles_per_sec);
        clockmark_obs::gauge_set("campaign.eta_seconds", p.eta_seconds);
        let _ = replace_free_name(&self.path, format!("{}\n", p.encode()).as_bytes());
    }
}

/// The name a file is written under before it replaces `path`.
fn temp_path(path: &Path) -> PathBuf {
    path.with_extension("tmp")
}

/// Writes `bytes` to `path` through a temp file + rename over `path`: a
/// reader always finds the old or the new file, whole. For files that
/// cannot validate themselves and are written once or twice per run.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CampaignError> {
    let tmp = temp_path(path);
    fs::write(&tmp, bytes)
        .map_err(|e| CampaignError::io(format!("writing {}", tmp.display()), e))?;
    fs::rename(&tmp, path).map_err(|e| {
        CampaignError::io(
            format!("renaming {} over {}", tmp.display(), path.display()),
            e,
        )
    })?;
    Ok(())
}

/// Replaces `path` with `bytes` without renaming over a live file: write
/// the temp, remove `path`, rename the temp onto the now-free name.
///
/// Renaming over an existing file makes ext4 (with its default
/// `auto_da_alloc`) force write-back of the new one, a stall of hundreds
/// of microseconds per replacement; a rename onto a free name does not.
/// The price is a window with no file under `path`, only the complete
/// temp, so this is for files a reader can do without — progress — or
/// can recover from the temp and validate — checkpoints, by their CRC.
fn replace_free_name(path: &Path, bytes: &[u8]) -> Result<(), CampaignError> {
    let tmp = temp_path(path);
    fs::write(&tmp, bytes)
        .map_err(|e| CampaignError::io(format!("writing {}", tmp.display()), e))?;
    match fs::remove_file(path) {
        Err(e) if e.kind() != ErrorKind::NotFound => {
            return Err(CampaignError::io(format!("removing {}", path.display()), e));
        }
        _ => {}
    }
    fs::rename(&tmp, path).map_err(|e| {
        CampaignError::io(
            format!("renaming {} onto {}", tmp.display(), path.display()),
            e,
        )
    })
}

/// Encodes a checkpoint: magic, spectrum kernel, job identity, then every
/// accumulator of the fold as raw little-endian bits, closed by a CRC-32.
fn encode_checkpoint(
    index: usize,
    trace: &str,
    algo: CpaAlgo,
    state: &StreamingCpaState,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + trace.len() + state.pattern.len() * 17);
    out.extend_from_slice(CKPT_MAGIC);
    out.push(algo_to_byte(algo));
    codec::put_u64(&mut out, index as u64);
    codec::put_u32(&mut out, trace.len() as u32);
    out.extend_from_slice(trace.as_bytes());
    codec::put_u32(&mut out, state.pattern.len() as u32);
    for &bit in &state.pattern {
        out.push(u8::from(bit));
    }
    for &sum in &state.residue_sums {
        codec::put_f64(&mut out, sum);
    }
    for &count in &state.residue_counts {
        codec::put_u64(&mut out, count);
    }
    codec::put_f64(&mut out, state.sum_y);
    codec::put_f64(&mut out, state.sum_yy);
    codec::put_u64(&mut out, state.cycles);
    let mut crc = Crc32::new();
    crc.update(&out);
    codec::put_u32(&mut out, crc.finish());
    out
}

/// Decodes a checkpoint back into its job identity, spectrum kernel and
/// fold state.
fn decode_checkpoint(
    bytes: &[u8],
) -> Result<(usize, String, CpaAlgo, clockmark_cpa::StreamingCpaState), CampaignError> {
    let bad = |message: &str| CampaignError::spec(format!("checkpoint: {message}"));
    if bytes.len() < CKPT_MAGIC.len() + 5 || &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return Err(bad("bad magic"));
    }
    let body_len = bytes.len() - 4;
    let stored_crc = codec::get_u32(bytes, body_len)?;
    let mut crc = Crc32::new();
    crc.update(&bytes[..body_len]);
    if crc.finish() != stored_crc {
        return Err(bad("CRC mismatch"));
    }
    let mut at = CKPT_MAGIC.len();
    let algo = algo_from_byte(bytes[at]).ok_or_else(|| bad("unknown spectrum kernel byte"))?;
    at += 1;
    let index = codec::get_u64(bytes, at)? as usize;
    at += 8;
    let trace_len = codec::get_u32(bytes, at)? as usize;
    at += 4;
    let trace = std::str::from_utf8(
        bytes
            .get(at..at + trace_len)
            .ok_or_else(|| bad("truncated trace name"))?,
    )
    .map_err(|_| bad("trace name is not UTF-8"))?
    .to_owned();
    at += trace_len;
    let period = codec::get_u32(bytes, at)? as usize;
    at += 4;
    let pattern_bytes = bytes
        .get(at..at + period)
        .ok_or_else(|| bad("truncated pattern"))?;
    let pattern: Vec<bool> = pattern_bytes.iter().map(|&b| b != 0).collect();
    at += period;
    let mut residue_sums = Vec::with_capacity(period);
    for _ in 0..period {
        residue_sums.push(codec::get_f64(bytes, at)?);
        at += 8;
    }
    let mut residue_counts = Vec::with_capacity(period);
    for _ in 0..period {
        residue_counts.push(codec::get_u64(bytes, at)?);
        at += 8;
    }
    let sum_y = codec::get_f64(bytes, at)?;
    at += 8;
    let sum_yy = codec::get_f64(bytes, at)?;
    at += 8;
    let cycles = codec::get_u64(bytes, at)?;
    at += 8;
    if at != body_len {
        return Err(bad("trailing bytes"));
    }
    Ok((
        index,
        trace,
        algo,
        clockmark_cpa::StreamingCpaState {
            pattern,
            residue_sums,
            residue_counts,
            sum_y,
            sum_yy,
            cycles,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockmark_corpus::TraceHeader;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "cm_campaign_{tag}_{}_{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            fs::remove_dir_all(&path).ok();
            fs::create_dir_all(&path).expect("mkdir");
            TempDir(path)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.0).ok();
        }
    }

    fn pattern() -> Vec<bool> {
        use clockmark_seq::{Lfsr, SequenceGenerator};
        let mut lfsr = Lfsr::maximal(6).expect("valid");
        (0..63).map(|_| lfsr.next_bit()).collect()
    }

    fn trace(pattern: &[bool], n: usize, phase: usize, amp: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let wm = if pattern[(i + phase) % pattern.len()] {
                    amp
                } else {
                    0.0
                };
                wm + rng.random_range(-2.0..2.0)
            })
            .collect()
    }

    /// A corpus of `marked` watermarked and 1 unmarked trace, plus the
    /// spec naming all of them.
    fn build_fixture(dir: &Path, pattern: &[bool], marked: usize, cycles: usize) -> CampaignSpec {
        let corpus_dir = dir.join("corpus");
        let mut corpus = Corpus::create(&corpus_dir).expect("creates");
        let mut names = Vec::new();
        for i in 0..marked {
            let name = format!("marked_{i}");
            let w = trace(pattern, cycles, 7 + i, 1.0, 100 + i as u64);
            corpus.add(&name, TraceHeader::bare(0), &w).expect("adds");
            names.push(name);
        }
        let w = trace(pattern, cycles, 0, 0.0, 999);
        corpus
            .add("unmarked", TraceHeader::bare(0), &w)
            .expect("adds");
        names.push("unmarked".to_owned());
        let mut spec = CampaignSpec::new(corpus_dir, pattern.to_vec(), names);
        spec.checkpoint_cycles = 1_000;
        spec.chunk_cycles = 256;
        spec
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = CampaignSpec::new("some/corpus", pattern(), vec!["a".into(), "b".into()]);
        let back = CampaignSpec::decode(&spec.encode()).expect("valid");
        assert_eq!(back, spec);
    }

    #[test]
    fn sequential_spec_round_trips_through_json() {
        // All optional fields set.
        let full = CampaignSpec::new("some/corpus", pattern(), vec!["a".into()]).with_sequential(
            SequentialOptions::every(2_048)
                .with_confidence(1e-6)
                .with_min_cycles(512)
                .with_max_cycles(100_000),
        );
        let back = CampaignSpec::decode(&full.encode()).expect("valid");
        assert_eq!(back, full);
        assert_eq!(
            back.sequential.expect("kept").confidence.expect("kept"),
            1e-6
        );

        // Optionals absent stay absent.
        let lean = CampaignSpec::new("some/corpus", pattern(), vec!["a".into()])
            .with_sequential(SequentialOptions::default().with_growth(1.5));
        let back = CampaignSpec::decode(&lean.encode()).expect("valid");
        assert_eq!(back, lean);
        let seq = back.sequential.expect("kept");
        assert_eq!(seq.confidence, None);
        assert_eq!(seq.max_cycles, None);

        // Specs written before sequential campaigns existed decode to
        // fixed-budget mode.
        let legacy = CampaignSpec::new("some/corpus", pattern(), vec!["a".into()]);
        assert!(!legacy.encode().contains("sequential"));
        let back = CampaignSpec::decode(&legacy.encode()).expect("valid");
        assert_eq!(back.sequential, None);
    }

    #[test]
    fn outcome_round_trips_bit_exactly() {
        let outcome = JobOutcome {
            index: 3,
            trace: "chip_i_s7".to_owned(),
            cycles: 30_000,
            result: DetectionResult {
                detected: true,
                peak_rotation: 41,
                peak_rho: 0.012_345_678_901_234_567,
                floor_max_abs: 0.003_4,
                ratio: 3.63,
                zscore: 11.25,
            },
        };
        let back = JobOutcome::decode(&outcome.encode()).expect("valid");
        assert_eq!(
            back.result.peak_rho.to_bits(),
            outcome.result.peak_rho.to_bits()
        );
        assert_eq!(back, outcome);
    }

    #[test]
    fn campaign_runs_to_completion_and_reports() {
        let dir = TempDir::new("complete");
        let pattern = pattern();
        let spec = build_fixture(&dir.0, &pattern, 3, 4_000);
        let campaign = Campaign::create(dir.0.join("campaign"), spec)
            .expect("creates")
            .with_threads(2);
        let status = campaign.run(&CampaignLimits::none()).expect("runs");
        assert!(status.is_complete(), "{status}");
        assert_eq!(status.total, 4);
        assert_eq!(status.detected, 3, "{status}");
        assert_eq!(status.checkpointed, 0);

        let report = campaign.report().expect("complete");
        assert_eq!(report.outcomes.len(), 4);
        assert!(!report.outcomes[3].result.detected, "unmarked trace");
        assert!(dir.0.join("campaign/report.json").exists());

        // Running again is a no-op that leaves the report untouched.
        let before = fs::read(dir.0.join("campaign/report.json")).expect("reads");
        let again = campaign.run(&CampaignLimits::none()).expect("runs");
        assert!(again.is_complete());
        assert_eq!(
            before,
            fs::read(dir.0.join("campaign/report.json")).expect("reads")
        );
    }

    #[test]
    fn interrupted_campaign_resumes_to_a_byte_identical_report() {
        let dir = TempDir::new("resume");
        let pattern = pattern();
        let spec = build_fixture(&dir.0, &pattern, 3, 4_000);

        let reference = Campaign::create(dir.0.join("reference"), spec.clone())
            .expect("creates")
            .with_threads(2);
        assert!(reference
            .run(&CampaignLimits::none())
            .expect("runs")
            .is_complete());
        let want = fs::read(dir.0.join("reference/report.json")).expect("reads");

        // Drive the same campaign through repeated simulated kills: every
        // pass interrupts each in-flight job mid-trace.
        let interrupted = Campaign::create(dir.0.join("interrupted"), spec)
            .expect("creates")
            .with_threads(2);
        let limits = CampaignLimits {
            max_jobs: Some(2),
            interrupt_job_after_cycles: Some(700),
        };
        let mut passes = 0;
        while !interrupted.run(&limits).expect("runs").is_complete() {
            passes += 1;
            assert!(passes < 100, "campaign failed to converge");
        }
        assert!(
            passes >= 3,
            "limits too weak to exercise resume ({passes} passes)"
        );
        let got = fs::read(dir.0.join("interrupted/report.json")).expect("reads");
        assert_eq!(got, want, "resumed report must be byte-identical");
    }

    #[test]
    fn sequential_campaign_early_stops_and_resumes_byte_identically() {
        let dir = TempDir::new("seq_resume");
        let pattern = pattern();
        let mut spec = build_fixture(&dir.0, &pattern, 3, 12_000);
        spec = spec.with_sequential(SequentialOptions::every(1_024));

        let reference = Campaign::create(dir.0.join("reference"), spec.clone())
            .expect("creates")
            .with_threads(2);
        assert!(reference
            .run(&CampaignLimits::none())
            .expect("runs")
            .is_complete());
        let report = reference.report().expect("complete");
        for outcome in &report.outcomes[..3] {
            assert!(outcome.result.detected, "marked trace: {outcome:?}");
            assert!(
                outcome.cycles < 12_000,
                "watermarked jobs must stop early, consumed {}",
                outcome.cycles
            );
        }
        assert!(!report.outcomes[3].result.detected, "unmarked trace");
        assert_eq!(
            report.outcomes[3].cycles, 12_000,
            "no early stop without a watermark: the full trace is the budget"
        );
        let want = fs::read(dir.0.join("reference/report.json")).expect("reads");

        // Repeated simulated kills: interrupts land both before the first
        // schedule checkpoint (700 < 1024) and between later ones, so
        // resumes must re-derive the same absolute checkpoint sequence.
        let interrupted = Campaign::create(dir.0.join("interrupted"), spec)
            .expect("creates")
            .with_threads(2);
        let limits = CampaignLimits {
            max_jobs: Some(2),
            interrupt_job_after_cycles: Some(700),
        };
        let mut passes = 0;
        while !interrupted.run(&limits).expect("runs").is_complete() {
            passes += 1;
            assert!(passes < 100, "campaign failed to converge");
        }
        assert!(
            passes >= 3,
            "limits too weak to exercise resume ({passes} passes)"
        );
        let got = fs::read(dir.0.join("interrupted/report.json")).expect("reads");
        assert_eq!(
            got, want,
            "resumed sequential report must be byte-identical"
        );
    }

    #[test]
    fn status_counts_checkpointed_jobs() {
        let dir = TempDir::new("status");
        let pattern = pattern();
        let spec = build_fixture(&dir.0, &pattern, 1, 4_000);
        let campaign = Campaign::create(dir.0.join("campaign"), spec)
            .expect("creates")
            .with_threads(1);
        let status = campaign
            .run(&CampaignLimits {
                max_jobs: Some(1),
                interrupt_job_after_cycles: Some(500),
            })
            .expect("runs");
        assert_eq!(status.completed, 0);
        assert_eq!(status.checkpointed, 1, "{status}");
        assert_eq!(status.pending(), 2);
        assert!(status.to_string().contains("0/2 jobs done"), "{status}");
    }

    #[test]
    fn corrupt_checkpoints_are_discarded_and_the_job_restarts() {
        let dir = TempDir::new("corrupt");
        let pattern = pattern();
        let spec = build_fixture(&dir.0, &pattern, 1, 3_000);
        let campaign = Campaign::create(dir.0.join("campaign"), spec)
            .expect("creates")
            .with_threads(1);
        // Leave a mid-flight checkpoint behind, then corrupt it.
        campaign
            .run(&CampaignLimits {
                max_jobs: Some(1),
                interrupt_job_after_cycles: Some(500),
            })
            .expect("runs");
        let ckpt = dir.0.join("campaign/checkpoints/job_0.ckpt");
        assert!(ckpt.exists());
        let mut bytes = fs::read(&ckpt).expect("reads");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&ckpt, &bytes).expect("writes");

        let status = campaign.run(&CampaignLimits::none()).expect("runs");
        assert!(status.is_complete());
        assert!(!ckpt.exists(), "bad checkpoint must be removed");
        assert_eq!(campaign.report().expect("complete").detected(), 1);
    }

    #[test]
    fn torn_final_results_line_is_tolerated() {
        let dir = TempDir::new("torn");
        let pattern = pattern();
        let spec = build_fixture(&dir.0, &pattern, 1, 3_000);
        let campaign = Campaign::create(dir.0.join("campaign"), spec)
            .expect("creates")
            .with_threads(1);
        let reference = {
            let status = campaign.run(&CampaignLimits::none()).expect("runs");
            assert!(status.is_complete());
            fs::read(dir.0.join("campaign/report.json")).expect("reads")
        };

        // Truncate the last line mid-record, as a kill mid-append would.
        let results_path = dir.0.join("campaign/results.jsonl");
        let text = fs::read_to_string(&results_path).expect("reads");
        let cut = text.trim_end().len() - 10;
        fs::write(&results_path, &text[..cut]).expect("writes");

        let status = campaign.run(&CampaignLimits::none()).expect("runs");
        assert!(status.is_complete(), "{status}");
        let report = fs::read(dir.0.join("campaign/report.json")).expect("reads");
        assert_eq!(report, reference, "rerun job must reproduce the same bytes");
    }

    #[test]
    fn creation_and_spec_validation_reject_bad_input() {
        let dir = TempDir::new("validate");
        let mut spec = CampaignSpec::new(dir.0.join("corpus"), pattern(), vec!["a".into()]);
        let campaign_dir = dir.0.join("campaign");
        Campaign::create(&campaign_dir, spec.clone()).expect("creates");
        // No double-create over an existing campaign.
        assert!(Campaign::create(&campaign_dir, spec.clone()).is_err());
        // Re-open reads the identical spec back.
        assert_eq!(Campaign::open(&campaign_dir).expect("opens").spec(), &spec);

        spec.traces.clear();
        assert!(matches!(
            spec.validate().unwrap_err(),
            CampaignError::Spec { .. }
        ));
        spec.traces = vec!["a".into(), "a".into()];
        assert!(spec.validate().is_err(), "duplicate trace");
        spec.traces = vec!["a".into()];
        spec.pattern = vec![true; 8];
        assert!(matches!(
            spec.validate().unwrap_err(),
            CampaignError::Cpa(CpaError::ConstantPattern)
        ));

        // Jobs allocate their read chunk up front, so an oversized one
        // must fail the spec rather than abort the process. 0 stays legal
        // (jobs clamp it to 1).
        spec.pattern = pattern();
        for chunk in [0, MAX_CHUNK_CYCLES] {
            spec.chunk_cycles = chunk;
            spec.validate().expect("in range");
        }
        // 1e13 decodes exactly; 1e30 is not a usize integer, so the
        // decode itself refuses it.
        let with_chunk = |chunk: &str| {
            spec.encode().replace(
                &format!("\"chunk_cycles\":{MAX_CHUNK_CYCLES}"),
                &format!("\"chunk_cycles\":{chunk}"),
            )
        };
        let err = CampaignSpec::decode(&with_chunk("1e30")).unwrap_err();
        assert!(
            matches!(&err, CampaignError::Spec { message } if message.contains("chunk_cycles")),
            "1e30: {err}"
        );
        let hostile = "10000000000000";
        let text = with_chunk(hostile);
        let decoded = CampaignSpec::decode(&text).expect("decodes");
        assert!(decoded.chunk_cycles > MAX_CHUNK_CYCLES, "{hostile}");
        let err = Campaign::create(dir.0.join(hostile), decoded).unwrap_err();
        assert!(
            matches!(&err, CampaignError::Spec { message } if message.contains("chunk_cycles")),
            "{hostile}: {err}"
        );
        // A campaign.json edited after creation fails to open.
        fs::write(campaign_dir.join("campaign.json"), &text).expect("edits");
        assert!(Campaign::open(&campaign_dir).is_err(), "{hostile}");

        // A non-finite criterion or schedule number would be persisted
        // as `null`, and the campaign could never be reopened.
        spec.chunk_cycles = 256;
        let seq = SequentialOptions::default();
        let mut bad = [
            spec.clone(),
            spec.clone(),
            spec.clone().with_sequential(seq.with_growth(f64::NAN)),
            spec.clone()
                .with_sequential(seq.with_confidence(f64::NEG_INFINITY)),
        ];
        bad[0].criterion.min_peak_ratio = f64::NAN;
        bad[1].criterion.min_zscore = f64::INFINITY;
        let fields = [
            "min_peak_ratio",
            "min_zscore",
            "sequential.growth",
            "sequential.confidence",
        ];
        for (field, bad) in fields.into_iter().zip(bad) {
            let err = Campaign::create(dir.0.join(field), bad).unwrap_err();
            assert!(
                matches!(&err, CampaignError::Spec { message } if message.contains(field)),
                "{field}: {err}"
            );
        }
    }

    #[test]
    fn job_ids_are_one_per_trace_strictly_increasing_and_written_only_when_set() {
        let spec = CampaignSpec::new("c", pattern(), vec!["a".into(), "b".into()]);
        assert!(!spec.encode().contains("job_ids"));
        let ids: Vec<usize> = spec.jobs().iter().map(|job| job.index).collect();
        assert_eq!(ids, [0, 1]);
        assert!(spec.has_job(1) && !spec.has_job(2));

        let shard = CampaignSpec {
            job_ids: Some(vec![3, 8]),
            ..spec.clone()
        };
        shard.validate().expect("valid");
        assert!(shard
            .encode()
            .contains("\"traces\":[\"a\",\"b\"],\"job_ids\":[3,8],"));
        assert_eq!(
            CampaignSpec::decode(&shard.encode()).expect("decodes"),
            shard
        );
        let jobs = shard.jobs();
        assert_eq!((jobs[1].index, jobs[1].trace.as_str()), (8, "b"));
        assert!(shard.has_job(3) && shard.has_job(8) && !shard.has_job(0));

        for bad in [vec![3], vec![3, 8, 9], vec![8, 3], vec![3, 3]] {
            let bad = CampaignSpec {
                job_ids: Some(bad),
                ..spec.clone()
            };
            let err = bad.validate().unwrap_err();
            assert!(
                matches!(&err, CampaignError::Spec { message } if message.contains("job ids")),
                "{err}"
            );
        }
    }

    /// A campaign with job ids is the slice of the campaign without them:
    /// the same outcomes under the same numbers, scenario seeds included,
    /// with checkpoints, status and the results log following the ids.
    #[test]
    fn a_spec_with_job_ids_runs_its_slice_of_the_full_campaign() {
        let dir = TempDir::new("job_ids");
        let pattern = pattern();
        let fixed = build_fixture(&dir.0, &pattern, 3, 2_000);
        // Below nominal SNR every scenario outcome depends on its job seed.
        let scenario = fixed.clone().with_scenario(ScenarioSpec {
            snr: 0.5,
            noise_watts: 0.5,
            seed: 11,
            ..ScenarioSpec::default()
        });
        for (tag, full) in [("fixed", fixed), ("scenario", scenario)] {
            let whole = Campaign::create(dir.0.join(tag), full.clone())
                .expect("creates")
                .with_threads(1);
            assert!(whole
                .run(&CampaignLimits::none())
                .expect("runs")
                .is_complete());
            let want = whole.report().expect("complete").outcomes;

            let slice = CampaignSpec {
                traces: full.traces[1..].to_vec(),
                job_ids: Some(vec![1, 2, 3]),
                ..full
            };
            let part_dir = dir.0.join(format!("{tag}_slice"));
            let part = Campaign::create(&part_dir, slice)
                .expect("creates")
                .with_threads(1);
            let interrupt = CampaignLimits {
                max_jobs: None,
                interrupt_job_after_cycles: Some(700),
            };
            let status = part.run(&interrupt).expect("runs");
            if tag == "fixed" {
                assert_eq!(status.checkpointed, 3, "{status}");
                let mut names: Vec<_> = checkpoint_files(&part_dir)
                    .iter()
                    .map(|p| p.file_name().expect("named").to_string_lossy().into_owned())
                    .collect();
                names.sort();
                assert_eq!(names, ["job_1.ckpt", "job_2.ckpt", "job_3.ckpt"]);
            }
            while !part.run(&interrupt).expect("runs").is_complete() {}
            assert_eq!(
                part.report().expect("complete").outcomes,
                want[1..],
                "{tag}"
            );

            // The results log admits only the spec's ids.
            let mut foreign = want[0].encode();
            foreign.push('\n');
            let mut log = OpenOptions::new()
                .append(true)
                .open(part_dir.join("results.jsonl"))
                .expect("opens");
            log.write_all(foreign.as_bytes()).expect("appends");
            let err = part.status().unwrap_err();
            assert!(err.to_string().contains("names job 0"), "{err}");
        }
    }

    #[test]
    fn missing_corpus_trace_fails_before_any_work() {
        let dir = TempDir::new("missing");
        let pattern = pattern();
        let mut spec = build_fixture(&dir.0, &pattern, 1, 1_000);
        spec.traces.push("ghost".to_owned());
        let campaign = Campaign::create(dir.0.join("campaign"), spec).expect("creates");
        let err = campaign.run(&CampaignLimits::none()).unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    fn checkpoint_files(campaign_dir: &Path) -> Vec<PathBuf> {
        fs::read_dir(campaign_dir.join("checkpoints"))
            .expect("checkpoints/ exists")
            .map(|entry| entry.expect("lists").path())
            .collect()
    }

    #[test]
    fn scenario_jobs_never_checkpoint_or_interrupt() {
        let dir = TempDir::new("scenario_no_ckpt");
        let pattern = pattern();
        let mut spec = build_fixture(&dir.0, &pattern, 2, 3_000).with_scenario(ScenarioSpec {
            snr: 0.5,
            ..ScenarioSpec::default()
        });
        spec.checkpoint_cycles = 1;
        let campaign_dir = dir.0.join("campaign");
        let campaign = Campaign::create(&campaign_dir, spec)
            .expect("creates")
            .with_threads(1);
        // A stale snapshot of a pending job does not outlive the run.
        fs::write(campaign.checkpoint_path(0), b"stale").expect("writes");

        let status = campaign
            .run(&CampaignLimits {
                max_jobs: None,
                interrupt_job_after_cycles: Some(1),
            })
            .expect("runs");
        assert!(status.is_complete(), "one run lands every job: {status}");
        assert_eq!(checkpoint_files(&campaign_dir), Vec::<PathBuf>::new());
    }

    #[test]
    fn a_sequential_decision_in_the_interrupting_chunk_lands_the_job() {
        let dir = TempDir::new("seq_decide_interrupt");
        let pattern = pattern();
        let mut spec = build_fixture(&dir.0, &pattern, 1, 12_000)
            .with_sequential(SequentialOptions::every(1_024));
        spec.traces = vec!["marked_0".to_owned()];

        let reference = Campaign::create(dir.0.join("reference"), spec.clone())
            .expect("creates")
            .with_threads(1);
        reference.run(&CampaignLimits::none()).expect("runs");
        let decided_at = reference.report().expect("complete").outcomes[0].cycles;
        assert!(
            decided_at < 12_000 && decided_at.is_multiple_of(1_024),
            "the job must stop early at a schedule point, stopped at {decided_at}"
        );

        // 256-cycle chunks: the chunk that crosses the deciding
        // checkpoint is also the first to reach the interrupt limit.
        let campaign_dir = dir.0.join("interrupted");
        let interrupted = Campaign::create(&campaign_dir, spec)
            .expect("creates")
            .with_threads(1);
        let status = interrupted
            .run(&CampaignLimits {
                max_jobs: None,
                interrupt_job_after_cycles: Some(decided_at - 100),
            })
            .expect("runs");
        assert!(status.is_complete(), "the decided job lands: {status}");
        let report = interrupted.report().expect("complete");
        assert_eq!(report.outcomes[0].cycles, decided_at);
        assert_eq!(checkpoint_files(&campaign_dir), Vec::<PathBuf>::new());
    }

    /// A trace shorter than one watermark period lands the conservative
    /// verdict in both streaming flavours: not detected, on the cycles
    /// the trace holds, rather than failing the campaign.
    #[test]
    fn a_trace_shorter_than_one_period_lands_not_detected() {
        let dir = TempDir::new("short_trace");
        let mut s = 0x1234_5678_9ABC_DEF1u64;
        let pattern: Vec<bool> = (0..96)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s & 1 == 1
            })
            .collect();
        let corpus_dir = dir.0.join("corpus");
        let mut corpus = Corpus::create(&corpus_dir).expect("creates");
        let y = trace(&pattern, 50, 0, 1.0, 17);
        corpus.add("short", TraceHeader::bare(0), &y).expect("adds");
        let fixed = CampaignSpec::new(corpus_dir, pattern, vec!["short".into()]);
        let sequential = fixed.clone().with_sequential(SequentialOptions::default());
        for (tag, spec) in [("fixed", fixed), ("sequential", sequential)] {
            let campaign = Campaign::create(dir.0.join(tag), spec)
                .expect("creates")
                .with_threads(1);
            let status = campaign.run(&CampaignLimits::none()).expect("runs");
            assert!(status.is_complete(), "{tag}: {status}");
            let outcome = &campaign.report().expect("complete").outcomes[0];
            assert!(!outcome.result.detected, "{tag}: {outcome:?}");
            assert_eq!(outcome.cycles, 50, "{tag}");
        }
    }

    #[test]
    fn checkpoint_codec_round_trips_and_rejects_corruption() {
        let pattern = pattern();
        let facade = Detector::new(&pattern).expect("valid");
        let mut session = facade.detect_streaming();
        session.push_chunk(&trace(&pattern, 1_000, 3, 0.8, 5));
        let bytes = encode_checkpoint(7, "chip_i_s3", CpaAlgo::Fft, &session.state());
        let (index, trace_name, algo, state) = decode_checkpoint(&bytes).expect("valid");
        assert_eq!((index, trace_name.as_str()), (7, "chip_i_s3"));
        assert_eq!(algo, CpaAlgo::Fft);
        let restored = facade.resume(DetectMode::Fixed, state).expect("valid");
        assert_eq!(restored.state(), session.state());

        for at in [0usize, 9, bytes.len() / 2, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(decode_checkpoint(&bad).is_err(), "flip at {at} undetected");
        }
        assert!(decode_checkpoint(&bytes[..bytes.len() - 1]).is_err());
    }
}
