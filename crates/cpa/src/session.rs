//! One detection session for every query shape.
//!
//! The paper decides a watermark one way: fold the per-cycle power by
//! watermark residue, correlate it with every rotation of the known
//! sequence, and look for one resolved peak. A [`Session`] is that fold,
//! fed chunk by chunk, in one of three [`DetectMode`]s:
//!
//! - [`DetectMode::Fixed`] judges everything streamed, once, at the end;
//! - [`DetectMode::Sequential`] judges a growing prefix on a checkpoint
//!   schedule and freezes the fold at the first accept (see
//!   [`SequentialOptions`] for the acceptance rule);
//! - [`DetectMode::Identify`] scores every candidate pattern against the
//!   one fold and ranks them (see [`Identification`]).
//!
//! Every mode ends in one [`Verdict`]. The in-memory, trace-reader,
//! campaign and wire paths all open their session through
//! [`Detector::session`](crate::Detector::session) — or restore one from
//! a fold snapshot with [`Detector::resume`](crate::Detector::resume) —
//! so the schedule of looks and the candidate ranking each live in one
//! place.

use crate::detect::{DetectionCriterion, DetectionResult};
use crate::identify::{rank_candidates, CandidatePattern, CandidateScore, Identification};
use crate::sequential::{SequentialCheckpoint, SequentialEngine, SequentialOptions};
use crate::streaming::{StreamingCpa, StreamingCpaState};
use crate::{CpaError, SequentialResult, SpreadSpectrum, TraceDetection};

/// What a [`Session`] answers.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectMode {
    /// Fold everything streamed and judge it once.
    Fixed,
    /// Judge the growing prefix on the given schedule and stop at the
    /// first accept.
    Sequential(SequentialOptions),
    /// Rank these labelled candidates against the fold. Each must share
    /// the detector's period and vary; the detector's own pattern only
    /// fixes the fold period.
    Identify(Vec<CandidatePattern>),
}

impl DetectMode {
    /// Short name of the mode, for logs and span fields.
    pub fn name(&self) -> &'static str {
        match self {
            DetectMode::Fixed => "fixed",
            DetectMode::Sequential(_) => "sequential",
            DetectMode::Identify(_) => "identify",
        }
    }
}

/// The outcome of a [`Session`], in every mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The decision. For identify it is the top-ranked candidate's.
    pub result: DetectionResult,
    /// Cycles the decision is based on: everything folded, or for a
    /// sequential session the cycles folded when it decided.
    pub cycles: u64,
    /// Whether a sequential accept fired before the input ended.
    pub early_stopped: bool,
    /// The sequential checkpoint trail, in order (empty in the other
    /// modes). A resumed session carries only checkpoints evaluated
    /// since the restore.
    pub checkpoints: Vec<SequentialCheckpoint>,
    /// The identify ledger, best first (empty in the other modes).
    pub scores: Vec<CandidateScore>,
}

impl From<Verdict> for TraceDetection {
    fn from(v: Verdict) -> Self {
        TraceDetection {
            result: v.result,
            cycles: v.cycles,
        }
    }
}

impl From<TraceDetection> for Verdict {
    fn from(d: TraceDetection) -> Self {
        Verdict {
            result: d.result,
            cycles: d.cycles,
            early_stopped: false,
            checkpoints: Vec::new(),
            scores: Vec::new(),
        }
    }
}

impl From<Verdict> for SequentialResult {
    fn from(v: Verdict) -> Self {
        SequentialResult {
            result: v.result,
            cycles_consumed: v.cycles,
            early_stopped: v.early_stopped,
            checkpoints: v.checkpoints,
        }
    }
}

impl From<Verdict> for Identification {
    fn from(v: Verdict) -> Self {
        Identification {
            cycles: v.cycles,
            scores: v.scores,
        }
    }
}

/// An open detection: a fold pinned to its detector's kernel choice,
/// the detector's criterion, and the [`DetectMode`] that decides what
/// [`finalize`](Self::finalize) answers.
///
/// Feed it with [`push_chunk`](Self::push_chunk) in any chunking — the
/// fold, the sequential checkpoints and the verdict are bit-identical
/// for every split. A sequential session stops folding once it
/// [`decided`](Self::decided); later input is ignored and
/// [`cycles`](Self::cycles) freezes, which is where sequential mode
/// saves its CPU. Snapshot the fold with [`state`](Self::state) and
/// restore it with [`Detector::resume`](crate::Detector::resume): the
/// schedule needs no extra state, it is a pure function of the options
/// and the absolute cycle count.
#[derive(Debug, Clone)]
pub struct Session {
    fold: StreamingCpa,
    criterion: DetectionCriterion,
    /// Threads for ranking identify candidates; `None` auto-sizes.
    threads: Option<usize>,
    mode: Mode,
}

/// The per-mode state of a [`Session`].
#[derive(Debug, Clone)]
enum Mode {
    Fixed,
    Sequential(SequentialEngine),
    Identify(Vec<CandidatePattern>),
}

impl Session {
    /// Opens a session over `fold`; identify candidates are already
    /// validated against its period.
    pub(crate) fn new(
        fold: StreamingCpa,
        criterion: DetectionCriterion,
        threads: Option<usize>,
        mode: DetectMode,
    ) -> Self {
        let mode = match mode {
            DetectMode::Fixed => Mode::Fixed,
            DetectMode::Sequential(options) => {
                Mode::Sequential(SequentialEngine::new(options, &fold))
            }
            DetectMode::Identify(candidates) => Mode::Identify(candidates),
        };
        Session {
            fold,
            criterion,
            threads,
            mode,
        }
    }

    /// Folds a chunk of cycles. A sequential session evaluates every
    /// checkpoint the chunk crosses and ignores input past its decision.
    pub fn push_chunk(&mut self, ys: &[f64]) {
        match &mut self.mode {
            Mode::Sequential(engine) => engine.push_chunk(&mut self.fold, &self.criterion, ys),
            Mode::Fixed | Mode::Identify(_) => self.fold.push_chunk(ys),
        }
    }

    /// Cycles folded so far; frozen once [`decided`](Self::decided).
    pub fn cycles(&self) -> u64 {
        self.fold.cycles()
    }

    /// The watermark period.
    pub fn period(&self) -> usize {
        self.fold.period()
    }

    /// Whether the verdict is rendered and no further input is wanted:
    /// a sequential accept, or its cycle budget running out. Fixed and
    /// identify sessions want everything and never decide early.
    pub fn decided(&self) -> bool {
        matches!(&self.mode, Mode::Sequential(engine) if engine.decided())
    }

    /// Snapshots the fold accumulators bit-exactly, for persistence.
    pub fn state(&self) -> StreamingCpaState {
        self.fold.state()
    }

    /// The spread spectrum of everything folded so far.
    ///
    /// # Errors
    ///
    /// Returns [`CpaError::InsufficientCycles`] until one full period has
    /// been folded.
    pub fn spectrum(&self) -> Result<SpreadSpectrum, CpaError> {
        self.fold.spectrum()
    }

    /// The session's verdict. Callable at any point; before one full
    /// period has been folded every decision is the conservative "not
    /// detected" with zeroed statistics (identify lists the candidates
    /// in input order).
    pub fn finalize(&self) -> Verdict {
        let mut verdict = Verdict {
            result: DetectionResult::UNDECIDED,
            cycles: self.fold.cycles(),
            early_stopped: false,
            checkpoints: Vec::new(),
            scores: Vec::new(),
        };
        match &self.mode {
            Mode::Fixed => verdict.result = self.fold.detect(&self.criterion),
            Mode::Sequential(engine) => {
                (verdict.result, verdict.early_stopped) =
                    engine.outcome(&self.fold, &self.criterion);
                verdict.checkpoints = engine.checkpoints().to_vec();
            }
            Mode::Identify(candidates) => {
                verdict.scores = self.rank(candidates);
                verdict.result = verdict.scores[0].result;
            }
        }
        verdict
    }

    /// Ranks identify candidates against the fold. The kernel follows the
    /// fold's resolution, with `CpaAlgo::Naive` evaluated by the folded
    /// arithmetic since a fold keeps no raw trace.
    fn rank(&self, candidates: &[CandidatePattern]) -> Vec<CandidateScore> {
        if self.fold.cycles() < self.fold.period() as u64 {
            return candidates
                .iter()
                .enumerate()
                .map(|(index, candidate)| CandidateScore {
                    index,
                    label: candidate.label.clone(),
                    result: DetectionResult::UNDECIDED,
                })
                .collect();
        }
        let inputs = self.fold.as_inputs();
        let threads = self
            .threads
            .unwrap_or_else(|| crate::parallel::auto_threads(inputs.work()));
        rank_candidates(
            &inputs,
            candidates,
            &self.criterion,
            self.fold.resolved_algo(),
            threads,
        )
    }
}
