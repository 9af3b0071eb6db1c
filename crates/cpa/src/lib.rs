//! Correlation power analysis (CPA) for watermark detection.
//!
//! Implements the detection side of Kufel et al. (DATE 2014): the IP vendor
//! knows the watermark sequence (the *model vector* `X`, one period of the
//! WGC output) and records the device's per-clock-cycle power (`Y`, each
//! value the average of the oscilloscope samples within one cycle). Because
//! the phase between the two is unknown, `X` is rotated one cycle at a time
//! and the Pearson correlation coefficient recomputed — producing the
//! *spread spectrum* of Fig. 5. A watermark is detected when a single
//! significant peak resolves.
//!
//! Three kernels are provided and tested against each other (see
//! [`CpaAlgo`]):
//!
//! - the naive textbook O(N·P) loop, kept as the reference
//!   (`DetectOptions::with_algo(CpaAlgo::Naive)`);
//! - the folded O(N + P·W) kernel (`W` = ones per period) exploiting the
//!   periodicity of `X`, which makes the paper-scale problem
//!   (N = 300,000, P = 4,095) interactive;
//! - the FFT O(N + P log P) kernel, which computes both rotation-dependent
//!   sums as circular cross-correlations against the pattern's
//!   ones-indicator and then *exactly refines* the peak candidates with
//!   the folded arithmetic, so its reported peak is bit-identical to the
//!   folded kernel's (`docs/cpa-fft.md` has the derivation).
//!
//! The [`Detector`] facade is the single entry point: a validated pattern
//! plus [`DetectOptions`] (kernel, threading, decision criterion), with
//! batch ([`Detector::detect`]), streaming ([`Detector::session`]) and
//! chunked-reader ([`Detector::detect_trace`]) query paths that share one
//! fold and are bit-identical for the same samples. A streaming
//! [`Session`] runs in one [`DetectMode`] — fixed budget, sequential
//! early stop, or ranking candidate patterns — and ends in one
//! [`Verdict`]. The kernel resolves automatically
//! (override with the `CLOCKMARK_CPA_ALGO` environment variable or pin it
//! via [`DetectOptions::with_algo`]).
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use clockmark_cpa::Detector;
//! use clockmark_seq::{Lfsr, SequenceGenerator};
//!
//! // One period of a 6-bit m-sequence, tiled into a measurement starting
//! // 17 cycles into the period, with a deterministic "noise" ramp on top.
//! let mut wgc = Lfsr::maximal(6)?;
//! let pattern: Vec<bool> = (0..63).map(|_| wgc.next_bit()).collect();
//! let y: Vec<f64> = (0..630)
//!     .map(|i| if pattern[(i + 17) % 63] { 1.0 } else { 0.0 } + (i % 7) as f64 * 0.01)
//!     .collect();
//!
//! let detection = Detector::new(&pattern)?.detect(&y)?;
//! assert!(detection.detected);
//! assert_eq!(detection.peak_rotation, 17);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algo;
mod detect;
mod detector;
mod error;
mod fold;
mod identify;
mod kernel;
mod parallel;
mod pearson;
mod rotational;
mod sequential;
mod session;
mod significance;
mod stats;
mod streaming;

pub use algo::{algo_override, CpaAlgo};
pub use detect::{DetectionCriterion, DetectionResult};
pub use detector::{
    DetectOptions, Detector, SliceInput, TraceDetection, TraceInput, TraceInputError,
};
pub use error::CpaError;
pub use identify::{CandidatePattern, CandidateScore, Identification};
pub use parallel::thread_count;
pub use pearson::pearson;
pub use rotational::SpreadSpectrum;
pub use sequential::{SequentialCheckpoint, SequentialOptions, SequentialResult};
pub use session::{DetectMode, Session, Verdict};
pub use significance::{normal_cdf, peak_false_positive_probability};
pub use stats::{BoxPlotStats, RotationEnsemble};
pub use streaming::{StreamingCpa, StreamingCpaState};
