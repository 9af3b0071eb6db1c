//! One-stop imports for the types almost every caller touches.
//!
//! The workspace grew one crate per substrate (sequence generation,
//! netlist, simulation, power, measurement, CPA, corpus), and callers
//! ended up importing from four or five paths to run a single
//! experiment. The prelude flattens the caller-facing surface:
//!
//! ```
//! use clockmark::prelude::*;
//!
//! # fn main() -> Result<(), ClockmarkError> {
//! let architecture = ClockModulationWatermark {
//!     wgc: WgcConfig::MaxLengthLfsr { width: 8, seed: 1 },
//!     ..ClockModulationWatermark::paper()
//! };
//! let outcome = Experiment::quick(15_000, 42).run(&architecture)?;
//! assert!(outcome.detection.detected);
//! # Ok(())
//! # }
//! ```
//!
//! Detection-side callers get the unified [`Detector`] facade and its
//! options here too, so `use clockmark::prelude::*;` is enough to build
//! a watermark, run it through the measurement pipeline, and analyse a
//! trace — in-process or over the wire via `clockmark-serve` (which
//! speaks the same types).

pub use crate::{
    AttackSpec, Campaign, CampaignLimits, CampaignReport, CampaignSpec, ChipModel,
    ClockModulationWatermark, ClockmarkError, DefenseSpec, Experiment, ExperimentBatch,
    ExperimentOutcome, LoadCircuitWatermark, ScenarioCampaign, ScenarioMatrix, ScenarioReport,
    ScenarioSpec, WatermarkArchitecture, WgcConfig,
};
pub use clockmark_corpus::{Corpus, CorpusError, TraceReader};
pub use clockmark_cpa::{
    CandidatePattern, CandidateScore, CpaAlgo, DetectMode, DetectOptions, DetectionCriterion,
    DetectionResult, Detector, Identification, SequentialOptions, SequentialResult, Session,
    SpreadSpectrum, TraceDetection, Verdict,
};
