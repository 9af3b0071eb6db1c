//! The unified detection facade.
//!
//! Historically the crate grew four near-duplicate batch entry points
//! differing only in how they resolve the kernel and the thread count.
//! [`Detector`] collapses them into one object: a validated watermark
//! pattern plus a [`DetectOptions`] describing kernel, threading and
//! decision criterion. Every consumer — the experiment pipeline, the
//! campaign engine, the detection server and the CLI — routes through
//! it, so there is exactly one place where those choices are made; the
//! legacy free functions are gone.
//!
//! The options are pure resolution knobs, not alternative algorithms:
//! for every option combination the spectrum is **bit-identical** to the
//! default path's (a proptest at the bottom of this module pins that for
//! every [`CpaAlgo`] and for pinned thread counts).
//!
//! ```
//! # fn main() -> Result<(), clockmark_cpa::CpaError> {
//! use clockmark_cpa::{DetectMode, Detector};
//!
//! let pattern = [true, false, true, true, false, false, true, false];
//! let y: Vec<f64> = (0..400)
//!     .map(|i| if pattern[(i + 3) % 8] { 1.0 } else { 0.0 } + (i % 5) as f64 * 0.1)
//!     .collect();
//!
//! let detector = Detector::new(&pattern)?;
//! let result = detector.detect(&y)?;
//! assert!(result.detected);
//! assert_eq!(result.peak_rotation, 3);
//!
//! // The same decision, streamed chunk by chunk through a session.
//! let mut session = detector.session(DetectMode::Fixed)?;
//! for chunk in y.chunks(37) {
//!     session.push_chunk(chunk);
//! }
//! assert_eq!(session.finalize().result, result);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use crate::rotational::{validate_inputs, FoldedTrace};
use crate::{
    CandidatePattern, CpaAlgo, CpaError, DetectMode, DetectionCriterion, DetectionResult,
    Identification, SequentialOptions, SequentialResult, Session, SpreadSpectrum, StreamingCpa,
    StreamingCpaState, Verdict,
};

/// Samples read per [`TraceInput::next_chunk`] call in
/// [`Detector::detect_trace`]. Matches the corpus reader's natural chunk
/// granularity; the fold is bit-identical for any chunking.
const TRACE_CHUNK: usize = 8192;

/// How a [`Detector`] resolves its kernel, threading and decision rule.
///
/// The defaults reproduce the historical `spread_spectrum` behaviour
/// exactly: kernel from the `CLOCKMARK_CPA_ALGO` override else the work
/// heuristic, threads from [`thread_count`](crate::thread_count) once the
/// folded work justifies them, and the strict default
/// [`DetectionCriterion`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DetectOptions {
    /// Kernel pinned by the caller; `None` resolves per call (environment
    /// override, then work heuristic) — the semantics of the legacy
    /// `spread_spectrum`. The campaign engine pins the kernel recorded in
    /// its spec here so resumes replay the same arithmetic.
    pub algo: Option<CpaAlgo>,
    /// Worker threads for the batch spectrum; `None` auto-sizes (machine
    /// parallelism once the folded work passes the parallel threshold,
    /// serial below it), `Some(n)` pins the count like the legacy
    /// `spread_spectrum_parallel`. The spectrum is bit-identical for every
    /// value. Streaming sessions always run on the calling thread.
    pub threads: Option<usize>,
    /// The decision rule applied by [`Detector::detect`] and friends.
    pub criterion: DetectionCriterion,
}

impl DetectOptions {
    /// Returns the options with the kernel pinned.
    #[must_use]
    pub fn with_algo(mut self, algo: CpaAlgo) -> Self {
        self.algo = Some(algo);
        self
    }

    /// Returns the options with the batch thread count pinned.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Returns the options with the decision criterion replaced.
    #[must_use]
    pub fn with_criterion(mut self, criterion: DetectionCriterion) -> Self {
        self.criterion = criterion;
        self
    }
}

/// The single entry point for watermark detection: a validated pattern
/// plus the [`DetectOptions`] every query uses.
///
/// Construct once, detect many times — against in-memory traces
/// ([`detect`](Self::detect)), incrementally arriving cycles in any
/// [`DetectMode`] ([`session`](Self::session)) or chunked readers such
/// as corpus `.cmt` traces ([`detect_trace`](Self::detect_trace)). All
/// three paths share the same fold arithmetic, so their verdicts are
/// bit-identical for the same samples and options.
#[derive(Debug, Clone, PartialEq)]
pub struct Detector {
    pattern: Vec<bool>,
    options: DetectOptions,
}

impl Detector {
    /// Creates a detector with default [`DetectOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`CpaError::TooShort`] for a pattern shorter than 2 and
    /// [`CpaError::ConstantPattern`] when the pattern has no variance.
    pub fn new(pattern: &[bool]) -> Result<Self, CpaError> {
        Self::with_options(pattern, DetectOptions::default())
    }

    /// Creates a detector with explicit options.
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn with_options(pattern: &[bool], options: DetectOptions) -> Result<Self, CpaError> {
        if pattern.len() < 2 {
            return Err(CpaError::TooShort { len: pattern.len() });
        }
        let ones = pattern.iter().filter(|&&b| b).count();
        if ones == 0 || ones == pattern.len() {
            return Err(CpaError::ConstantPattern);
        }
        Ok(Detector {
            pattern: pattern.to_vec(),
            options,
        })
    }

    /// One period of the watermark pattern.
    pub fn pattern(&self) -> &[bool] {
        &self.pattern
    }

    /// The watermark period.
    pub fn period(&self) -> usize {
        self.pattern.len()
    }

    /// The options every query of this detector uses.
    pub fn options(&self) -> &DetectOptions {
        &self.options
    }

    /// The decision criterion applied by the `detect*` methods.
    pub fn criterion(&self) -> &DetectionCriterion {
        &self.options.criterion
    }

    /// The kernel a query issued right now would run: the pinned option if
    /// set, else the `CLOCKMARK_CPA_ALGO` override, else the work
    /// heuristic for this pattern.
    pub fn resolved_algo(&self) -> CpaAlgo {
        self.options
            .algo
            .or_else(crate::algo::algo_override)
            .unwrap_or_else(|| CpaAlgo::resolved_for_pattern(&self.pattern))
    }

    /// Computes the full spread spectrum of a measured trace.
    ///
    /// # Errors
    ///
    /// Returns [`CpaError::TraceShorterThanPeriod`] when `y` holds fewer
    /// cycles than one watermark period.
    pub fn spectrum(&self, y: &[f64]) -> Result<SpreadSpectrum, CpaError> {
        validate_inputs(&self.pattern, y)?;
        let algo = self.resolved_algo();
        if algo == CpaAlgo::Naive {
            return Ok(crate::rotational::naive_spectrum(&self.pattern, y));
        }
        let folded = FoldedTrace::new(&self.pattern, y);
        let threads = self
            .options
            .threads
            .unwrap_or_else(|| crate::parallel::auto_threads(folded.work()));
        Ok(crate::kernel::spectrum_with_algo(
            &folded.as_inputs(),
            algo,
            threads,
        ))
    }

    /// Detects the watermark in an in-memory trace: the spectrum of
    /// [`spectrum`](Self::spectrum) judged by this detector's criterion.
    ///
    /// # Errors
    ///
    /// Same conditions as [`spectrum`](Self::spectrum).
    pub fn detect(&self, y: &[f64]) -> Result<DetectionResult, CpaError> {
        Ok(self.spectrum(y)?.detect(&self.options.criterion))
    }

    /// Opens a detection session in `mode`: feed cycles as they arrive,
    /// ask for the [`Verdict`] whenever you like. The session pins this
    /// detector's kernel choice, criterion and thread count; its fold is
    /// bit-identical to the batch path for the same samples.
    ///
    /// # Errors
    ///
    /// For [`DetectMode::Identify`]: [`CpaError::InvalidState`] for an
    /// empty candidate list, [`CpaError::PeriodMismatch`] or
    /// [`CpaError::ConstantPattern`] for an invalid candidate.
    pub fn session(&self, mode: DetectMode) -> Result<Session, CpaError> {
        self.open(StreamingCpa::new(&self.pattern)?, mode)
    }

    /// Re-opens a session from a persisted fold snapshot — the campaign
    /// engine's checkpoint-resume path. A sequential schedule needs no
    /// extra state: it is a pure function of the options and the
    /// absolute cycle count, so the restored session evaluates exactly
    /// the checkpoints an uninterrupted run would have from here on.
    ///
    /// # Errors
    ///
    /// Returns [`CpaError::InvalidState`] when the snapshot's pattern
    /// differs from this detector's, every validation error of
    /// [`StreamingCpa::from_state`], and those of
    /// [`session`](Self::session).
    pub fn resume(&self, mode: DetectMode, state: StreamingCpaState) -> Result<Session, CpaError> {
        if state.pattern != self.pattern {
            return Err(CpaError::InvalidState {
                message: format!(
                    "snapshot pattern has period {} but the detector's has {}",
                    state.pattern.len(),
                    self.pattern.len()
                ),
            });
        }
        self.open(StreamingCpa::from_state(state)?, mode)
    }

    fn open(&self, mut fold: StreamingCpa, mode: DetectMode) -> Result<Session, CpaError> {
        if let DetectMode::Identify(candidates) = &mode {
            crate::identify::validate_candidates(self.period(), candidates)?;
        }
        if let Some(algo) = self.options.algo {
            fold = fold.with_algo(algo);
        }
        Ok(Session::new(
            fold,
            self.options.criterion,
            self.options.threads,
            mode,
        ))
    }

    /// Runs one session in `mode` over an in-memory trace.
    fn verdict(&self, y: &[f64], mode: DetectMode) -> Result<Verdict, CpaError> {
        validate_inputs(&self.pattern, y)?;
        let mut session = self.session(mode)?;
        session.push_chunk(y);
        Ok(session.finalize())
    }

    /// A [`DetectMode::Fixed`] [`session`](Self::session).
    pub fn detect_streaming(&self) -> Session {
        self.session(DetectMode::Fixed)
            .expect("a validated pattern opens a fixed session")
    }

    /// A [`DetectMode::Sequential`] [`session`](Self::session).
    pub fn detect_sequential_streaming(&self, options: SequentialOptions) -> Session {
        self.session(DetectMode::Sequential(options))
            .expect("a validated pattern opens a sequential session")
    }

    /// Runs a sequential detection over an in-memory trace: the session
    /// stops folding once it decides. When no early stop fires this is
    /// bit-identical to [`detect`](Self::detect) on the full trace
    /// (pinned by proptest); when one does, the verdict is bit-identical
    /// to `detect` on exactly the consumed prefix.
    ///
    /// # Errors
    ///
    /// Returns [`CpaError::TraceShorterThanPeriod`] when `y` holds fewer
    /// cycles than one watermark period.
    pub fn detect_sequential(
        &self,
        y: &[f64],
        options: SequentialOptions,
    ) -> Result<SequentialResult, CpaError> {
        self.verdict(y, DetectMode::Sequential(options))
            .map(SequentialResult::from)
    }

    /// Scores many candidate patterns against one trace at once and
    /// ranks them by peak |ρ| — the "whose watermark is this?"
    /// identification workload. The trace is folded once (the fold
    /// depends only on the period) and the fold's transform is shared
    /// across candidates; every per-candidate
    /// [`DetectionResult`] is bit-identical to an independent
    /// [`detect`](Self::detect) with the same kernel. Candidates must
    /// match this detector's period.
    ///
    /// Threads follow [`DetectOptions::with_threads`] (candidates are
    /// partitioned; the bytes do not depend on the thread count).
    ///
    /// # Errors
    ///
    /// Trace validation as in [`spectrum`](Self::spectrum), plus the
    /// candidate validation of [`session`](Self::session).
    pub fn identify(
        &self,
        y: &[f64],
        candidates: &[CandidatePattern],
    ) -> Result<Identification, CpaError> {
        self.verdict(y, DetectMode::Identify(candidates.to_vec()))
            .map(Identification::from)
    }

    /// Detects the watermark in a chunked trace source — a corpus `.cmt`
    /// reader, a network stream, anything implementing [`TraceInput`] —
    /// without ever materialising the full trace in memory.
    ///
    /// Reads chunks until the source reports end-of-trace, then calls
    /// [`TraceInput::finish`] so sources with trailing integrity checks
    /// (the corpus reader's CRC footer) get to validate them before a
    /// verdict is produced.
    ///
    /// # Errors
    ///
    /// [`TraceInputError::Input`] wraps the source's own errors;
    /// [`TraceInputError::Cpa`] reports [`CpaError::InsufficientCycles`]
    /// when the source ended before one full watermark period.
    pub fn detect_trace<T: TraceInput>(
        &self,
        mut input: T,
    ) -> Result<TraceDetection, TraceInputError<T::Error>> {
        let mut session = self.detect_streaming();
        let mut buf = vec![0.0f64; TRACE_CHUNK];
        loop {
            let n = input.next_chunk(&mut buf).map_err(TraceInputError::Input)?;
            if n == 0 {
                break;
            }
            session.push_chunk(&buf[..n]);
        }
        input.finish().map_err(TraceInputError::Input)?;
        if session.cycles() < self.period() as u64 {
            return Err(TraceInputError::Cpa(CpaError::InsufficientCycles {
                have: session.cycles(),
                need: self.period(),
            }));
        }
        Ok(session.finalize().into())
    }
}

/// A chunked source of measured power samples, as consumed by
/// [`Detector::detect_trace`].
///
/// Implementations exist for the corpus `.cmt` reader (in
/// `clockmark-corpus`) and for in-memory slices via [`SliceInput`].
pub trait TraceInput {
    /// The source's own error type.
    type Error;

    /// Fills `buf` with the next samples, returning how many were
    /// written. `0` means end-of-trace; short reads are otherwise fine.
    ///
    /// # Errors
    ///
    /// Whatever the source reports — I/O failures, format corruption.
    fn next_chunk(&mut self, buf: &mut [f64]) -> Result<usize, Self::Error>;

    /// Called once after end-of-trace, before the verdict is computed —
    /// the hook for trailing integrity checks (CRC footers, length
    /// cross-checks). The default does nothing.
    ///
    /// # Errors
    ///
    /// Whatever the integrity check reports.
    fn finish(self) -> Result<(), Self::Error>
    where
        Self: Sized,
    {
        Ok(())
    }
}

/// [`TraceInput`] over an in-memory slice — the adapter that lets
/// [`Detector::detect_trace`] be exercised without a corpus on disk.
#[derive(Debug, Clone)]
pub struct SliceInput<'a> {
    samples: &'a [f64],
}

impl<'a> SliceInput<'a> {
    /// Wraps a slice of samples.
    pub fn new(samples: &'a [f64]) -> Self {
        SliceInput { samples }
    }
}

impl TraceInput for SliceInput<'_> {
    type Error = std::convert::Infallible;

    fn next_chunk(&mut self, buf: &mut [f64]) -> Result<usize, Self::Error> {
        let n = self.samples.len().min(buf.len());
        buf[..n].copy_from_slice(&self.samples[..n]);
        self.samples = &self.samples[n..];
        Ok(n)
    }
}

/// The verdict of [`Detector::detect_trace`], with the trace length the
/// decision was based on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceDetection {
    /// The detection decision.
    pub result: DetectionResult,
    /// Cycles the source produced.
    pub cycles: u64,
}

/// Error of [`Detector::detect_trace`]: either the analysis failed or the
/// trace source did.
#[derive(Debug)]
pub enum TraceInputError<E> {
    /// The correlation analysis failed (e.g. the trace ended before one
    /// watermark period).
    Cpa(CpaError),
    /// The trace source failed (I/O, corruption, failed integrity check).
    Input(E),
}

impl<E> From<CpaError> for TraceInputError<E> {
    fn from(e: CpaError) -> Self {
        TraceInputError::Cpa(e)
    }
}

impl<E: fmt::Display> fmt::Display for TraceInputError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceInputError::Cpa(e) => write!(f, "cpa: {e}"),
            TraceInputError::Input(e) => write!(f, "trace input: {e}"),
        }
    }
}

impl<E: Error + 'static> Error for TraceInputError<E> {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceInputError::Cpa(e) => Some(e),
            TraceInputError::Input(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(seed: u64, period: usize, n: usize) -> (Vec<bool>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pattern: Vec<bool> = (0..period).map(|_| rng.random_bool(0.5)).collect();
        pattern[0] = true;
        if pattern.iter().all(|&b| b) {
            pattern[1] = false;
        }
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let wm = if pattern[(i + 7) % period] { 0.6 } else { 0.0 };
                wm + rng.random_range(-2.0..2.0)
            })
            .collect();
        (pattern, y)
    }

    #[test]
    fn constructor_validates_the_pattern() {
        assert!(matches!(
            Detector::new(&[true]).unwrap_err(),
            CpaError::TooShort { len: 1 }
        ));
        assert_eq!(
            Detector::new(&[true, true]).unwrap_err(),
            CpaError::ConstantPattern
        );
        assert_eq!(
            Detector::new(&[false, false, false]).unwrap_err(),
            CpaError::ConstantPattern
        );
    }

    #[test]
    fn short_trace_is_rejected_at_query_time() {
        let detector = Detector::new(&[true, false, true, false]).expect("valid");
        assert_eq!(
            detector.detect(&[1.0, 2.0]).unwrap_err(),
            CpaError::TraceShorterThanPeriod { have: 2, need: 4 }
        );
    }

    #[test]
    fn batch_streaming_and_trace_paths_agree_bit_for_bit() {
        let (pattern, y) = random_case(11, 31, 1500);
        let detector = Detector::new(&pattern).expect("valid");

        let batch = detector.detect(&y).expect("valid");

        let mut session = detector.detect_streaming();
        for chunk in y.chunks(97) {
            session.push_chunk(chunk);
        }
        let streamed = session.finalize().result;

        let traced = detector.detect_trace(SliceInput::new(&y)).expect("valid");

        assert_eq!(batch.peak_rho.to_bits(), streamed.peak_rho.to_bits());
        assert_eq!(batch.zscore.to_bits(), streamed.zscore.to_bits());
        assert_eq!(batch, streamed);
        assert_eq!(batch, traced.result);
        assert_eq!(traced.cycles, y.len() as u64);
    }

    #[test]
    fn resume_streaming_round_trips_bit_exactly() {
        let (pattern, y) = random_case(12, 63, 4000);
        let detector = Detector::with_options(
            &pattern,
            DetectOptions::default().with_algo(CpaAlgo::Folded),
        )
        .expect("valid");

        let mut uninterrupted = detector.detect_streaming();
        uninterrupted.push_chunk(&y);

        let (head, tail) = y.split_at(1711);
        let mut first = detector.detect_streaming();
        first.push_chunk(head);
        let mut resumed = detector
            .resume(DetectMode::Fixed, first.state())
            .expect("valid snapshot");
        resumed.push_chunk(tail);

        assert_eq!(uninterrupted.state(), resumed.state());
        assert_eq!(uninterrupted.finalize(), resumed.finalize());
    }

    #[test]
    fn resume_streaming_rejects_foreign_snapshots() {
        let (pattern, y) = random_case(13, 31, 500);
        let detector = Detector::new(&pattern).expect("valid");
        let mut session = detector.detect_streaming();
        session.push_chunk(&y);

        let (other, _) = random_case(14, 63, 63);
        let foreign = Detector::new(&other).expect("valid");
        assert!(matches!(
            foreign
                .resume(DetectMode::Fixed, session.state())
                .unwrap_err(),
            CpaError::InvalidState { .. }
        ));
    }

    #[test]
    fn detect_trace_propagates_source_failures() {
        struct Failing;
        #[derive(Debug, PartialEq)]
        struct Broken;
        impl TraceInput for Failing {
            type Error = Broken;
            fn next_chunk(&mut self, _buf: &mut [f64]) -> Result<usize, Broken> {
                Err(Broken)
            }
        }
        let detector = Detector::new(&[true, false, true]).expect("valid");
        assert!(matches!(
            detector.detect_trace(Failing).unwrap_err(),
            TraceInputError::Input(Broken)
        ));
    }

    #[test]
    fn detect_trace_rejects_sources_shorter_than_one_period() {
        let detector = Detector::new(&[true, false, true, false, true]).expect("valid");
        let short = [1.0, 2.0];
        assert!(matches!(
            detector.detect_trace(SliceInput::new(&short)).unwrap_err(),
            TraceInputError::Cpa(CpaError::InsufficientCycles { have: 2, need: 5 })
        ));
    }

    #[test]
    fn options_builders_compose() {
        let options = DetectOptions::default()
            .with_algo(CpaAlgo::Fft)
            .with_threads(3)
            .with_criterion(DetectionCriterion::lenient());
        assert_eq!(options.algo, Some(CpaAlgo::Fft));
        assert_eq!(options.threads, Some(3));
        assert_eq!(options.criterion, DetectionCriterion::lenient());
        let detector = Detector::with_options(&[true, false, true], options).expect("valid");
        assert_eq!(detector.resolved_algo(), CpaAlgo::Fft);
        assert_eq!(detector.criterion(), &DetectionCriterion::lenient());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite pin: the options are resolution knobs, not
        /// alternative algorithms. The default (auto-resolved) path is
        /// bit-identical to explicitly pinning the resolved kernel, and
        /// for every kernel a pinned thread count is bit-identical to
        /// the serial run.
        #[test]
        fn facade_options_are_bit_identical_to_the_default_path(
            seed in 0u64..10_000,
            period in 3usize..48,
            n_mult in 1usize..5,
            extra in 0usize..11,
            threads in 1usize..8,
        ) {
            let n = period * n_mult + extra.min(period - 1) + period;
            let (pattern, y) = random_case(seed, period, n);

            let assert_bits = |a: &SpreadSpectrum, b: &SpreadSpectrum| {
                prop_assert_eq!(a.period(), b.period());
                for (x, y) in a.rho().iter().zip(b.rho()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
                Ok(())
            };

            // Default options ≡ explicitly pinning the resolved kernel.
            let default = Detector::new(&pattern).expect("valid");
            let resolved = default.resolved_algo();
            let reference = default.spectrum(&y).expect("valid");
            let pinned = Detector::with_options(
                &pattern,
                DetectOptions::default().with_algo(resolved),
            )
            .expect("valid")
            .spectrum(&y)
            .expect("valid");
            assert_bits(&pinned, &reference)?;

            // For every kernel, threading never changes the spectrum.
            for algo in CpaAlgo::ALL {
                let serial = Detector::with_options(
                    &pattern,
                    DetectOptions::default().with_algo(algo),
                )
                .expect("valid")
                .spectrum(&y)
                .expect("valid");
                let threaded = Detector::with_options(
                    &pattern,
                    DetectOptions::default().with_algo(algo).with_threads(threads),
                )
                .expect("valid")
                .spectrum(&y)
                .expect("valid");
                assert_bits(&threaded, &serial)?;
            }
        }
    }
}
