//! Sequential-analysis early-termination detection.
//!
//! Fixed-budget detection burns the full trace (~300k cycles at paper
//! scale) even when the watermark crosses the peak-vs-noise criterion
//! orders of magnitude earlier. The sequential engine evaluates the
//! spectrum on a *growing prefix schedule* — geometric by default, every
//! [`SequentialOptions::base_cycles`] cycles scaled by
//! [`SequentialOptions::growth`] — and stops consuming the stream as soon
//! as the acceptance rule fires, reporting how many cycles the verdict
//! actually needed.
//!
//! The acceptance rule at a checkpoint with `cycles` consumed:
//!
//! 1. the [`DetectionCriterion`] passes on the prefix spectrum, **and**
//! 2. `cycles` has reached the floor (`max(min_cycles, 4·period)` —
//!    tiny prefixes have degenerate noise floors, so the engine never
//!    accepts before four watermark periods), **and**
//! 3. when a [`confidence`](SequentialOptions::confidence) is set, the
//!    analytic peak false-positive probability
//!    ([`SpreadSpectrum::peak_p_value`]) is at or below it.
//!
//! The floor and confidence gate only *early termination*: a session
//! that runs out of stream (or out of
//! [`max_cycles`](SequentialOptions::max_cycles) budget) falls back to
//! the classic fixed-budget criterion verdict on everything consumed, so
//! a no-early-stop sequential run is bit-identical to
//! [`Detector::detect`](crate::Detector::detect) — pinned by proptest.
//!
//! Determinism: the checkpoint schedule is a pure function of the
//! options and the absolute cycle count, so a session resumed from a
//! [`StreamingCpaState`](crate::StreamingCpaState) at *any* cycle count
//! re-derives exactly the checkpoints an uninterrupted run would have
//! hit, and early-stops at the identical cycle with the identical
//! verdict bytes. Campaigns lean on this to replay schedules across
//! SIGKILL resume (see `docs/sequential.md`).

use crate::detect::{DetectionCriterion, DetectionResult};
use crate::streaming::StreamingCpa;

/// Configuration for sequential early-termination detection.
///
/// The default schedule checks at 4096 cycles and doubles from there
/// (`4096, 8192, 16384, …`), with no confidence gate and no budget cap.
///
/// ```
/// use clockmark_cpa::SequentialOptions;
///
/// let opts = SequentialOptions::default();
/// assert_eq!(opts.next_checkpoint_after(0), Some(4096));
/// assert_eq!(opts.next_checkpoint_after(4096), Some(8192));
/// assert_eq!(opts.next_checkpoint_after(10_000), Some(16384));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialOptions {
    /// First checkpoint, in cycles (clamped to ≥ 1). Default 4096.
    pub base_cycles: u64,
    /// Schedule growth factor. Values above 1.0 give a geometric
    /// schedule (`base, base·g, base·g², …`, rounded down, always
    /// advancing by at least `base_cycles`); 1.0 or below gives an
    /// arithmetic schedule at every multiple of `base_cycles`.
    /// Default 2.0.
    pub growth: f64,
    /// Maximum analytic false-positive probability
    /// ([`SpreadSpectrum::peak_p_value`](crate::SpreadSpectrum::peak_p_value))
    /// an early accept may carry. `None` (default) gates early accepts
    /// on the [`DetectionCriterion`] alone.
    pub confidence: Option<f64>,
    /// Explicit floor below which the engine never early-accepts.
    /// The effective floor is `max(min_cycles, 4 × period)`; the
    /// four-period minimum is unconditional because shorter prefixes
    /// have too few folded samples per residue for a stable noise
    /// floor. Default 0 (four periods).
    pub min_cycles: u64,
    /// Hard consumption budget: the session stops folding at this many
    /// cycles and renders its fixed-budget verdict there, ignoring any
    /// further input. `None` (default) consumes whatever the caller
    /// streams.
    pub max_cycles: Option<u64>,
}

impl Default for SequentialOptions {
    fn default() -> Self {
        SequentialOptions {
            base_cycles: 4096,
            growth: 2.0,
            confidence: None,
            min_cycles: 0,
            max_cycles: None,
        }
    }
}

impl SequentialOptions {
    /// An arithmetic schedule checking every `interval` cycles.
    pub fn every(interval: u64) -> Self {
        SequentialOptions {
            base_cycles: interval.max(1),
            growth: 1.0,
            ..SequentialOptions::default()
        }
    }

    /// Sets the first-checkpoint position.
    #[must_use]
    pub fn with_base_cycles(mut self, base_cycles: u64) -> Self {
        self.base_cycles = base_cycles;
        self
    }

    /// Sets the schedule growth factor.
    #[must_use]
    pub fn with_growth(mut self, growth: f64) -> Self {
        self.growth = growth;
        self
    }

    /// Sets the confidence gate (maximum early-accept p-value).
    #[must_use]
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        self.confidence = Some(confidence);
        self
    }

    /// Sets the explicit early-accept floor in cycles.
    #[must_use]
    pub fn with_min_cycles(mut self, min_cycles: u64) -> Self {
        self.min_cycles = min_cycles;
        self
    }

    /// Sets the hard consumption budget in cycles.
    #[must_use]
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = Some(max_cycles);
        self
    }

    /// The first checkpoint strictly after `cycles`, or `None` when the
    /// budget is exhausted.
    ///
    /// The schedule is a pure function of the options and the absolute
    /// cycle count — this is the determinism-on-resume contract: a
    /// session restored at any cycle count re-derives exactly the
    /// checkpoints an uninterrupted run would have evaluated.
    pub fn next_checkpoint_after(&self, cycles: u64) -> Option<u64> {
        let base = self.base_cycles.max(1);
        let mut next = if self.growth > 1.0 {
            let mut p = base;
            while p <= cycles {
                // Round down, but always advance by at least `base` so
                // growth factors barely above 1.0 cannot stall.
                let grown = (p as f64 * self.growth) as u64;
                p = grown.max(p.saturating_add(base));
            }
            p
        } else {
            (cycles / base).saturating_add(1).saturating_mul(base)
        };
        if let Some(max) = self.max_cycles {
            if cycles >= max {
                return None;
            }
            next = next.min(max);
        }
        Some(next)
    }
}

/// One entry of a sequential session's checkpoint trail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialCheckpoint {
    /// Absolute cycles consumed when this checkpoint was evaluated.
    pub cycles: u64,
    /// Whether the full acceptance rule (criterion + floor + confidence)
    /// fired here. A checkpoint where the raw criterion passed but the
    /// floor or confidence gate blocked the accept records `false`.
    pub accepted: bool,
    /// Signed peak correlation of the prefix spectrum (0.0 below one
    /// period, where no spectrum exists yet).
    pub peak_rho: f64,
    /// Analytic peak false-positive probability of the prefix spectrum
    /// (1.0 below one period).
    pub p_value: f64,
}

/// Outcome of [`Detector::detect_sequential`](crate::Detector::detect_sequential):
/// a sequential session's [`Verdict`](crate::Verdict) in its historical
/// layout — the classic verdict extended with how many cycles it
/// actually consumed and the checkpoint trail that led there.
///
/// `result` keeps the exact [`DetectionResult`] layout so wire encoding
/// and campaign reports stay byte-stable: an early-stopped verdict is
/// bit-identical to [`Detector::detect`](crate::Detector::detect) on the
/// same prefix, and a run-to-completion verdict is bit-identical to
/// `detect` on the full trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialResult {
    /// The verdict, evaluated on exactly `cycles_consumed` cycles.
    pub result: DetectionResult,
    /// Cycles the session folded before rendering the verdict.
    pub cycles_consumed: u64,
    /// Whether the acceptance rule fired at a checkpoint (as opposed to
    /// the stream ending or the budget running out).
    pub early_stopped: bool,
    /// Every checkpoint evaluated, in order. Resumed sessions only
    /// carry checkpoints evaluated since the restore.
    pub checkpoints: Vec<SequentialCheckpoint>,
}

/// The schedule and decision state of a
/// [`DetectMode::Sequential`](crate::DetectMode::Sequential) session:
/// which checkpoint comes next, the trail so far, and the verdict once
/// one is rendered. The [`Session`](crate::Session) owns the fold and
/// the criterion and lends them to every call.
#[derive(Debug, Clone)]
pub(crate) struct SequentialEngine {
    options: SequentialOptions,
    /// Effective early-accept floor: `max(min_cycles, 4 × period)`.
    min_accept: u64,
    /// Next schedule point, `None` once the budget is exhausted.
    next_checkpoint: Option<u64>,
    trail: Vec<SequentialCheckpoint>,
    verdict: Option<DetectionResult>,
    early: bool,
}

impl SequentialEngine {
    /// The schedule for a fold at its current cycle count: a restored
    /// fold picks up at the next checkpoint an uninterrupted run would
    /// have evaluated.
    pub(crate) fn new(options: SequentialOptions, fold: &StreamingCpa) -> Self {
        SequentialEngine {
            options,
            min_accept: options.min_cycles.max(4 * fold.period() as u64),
            next_checkpoint: options.next_checkpoint_after(fold.cycles()),
            trail: Vec::new(),
            verdict: None,
            early: false,
        }
    }

    pub(crate) fn decided(&self) -> bool {
        self.verdict.is_some()
    }

    /// Folds `ys` into `fold`, splitting at checkpoint boundaries so
    /// every evaluation happens at an exact schedule point regardless of
    /// how the caller chunks the stream. Input past a decision (accept
    /// or exhausted budget) is ignored.
    pub(crate) fn push_chunk(
        &mut self,
        fold: &mut StreamingCpa,
        criterion: &DetectionCriterion,
        ys: &[f64],
    ) {
        let mut rest = ys;
        while !rest.is_empty() && self.verdict.is_none() {
            let cycles = fold.cycles();
            if self.options.max_cycles.is_some_and(|max| cycles >= max) {
                self.exhaust_budget(fold, criterion);
                return;
            }
            let mut take = rest.len() as u64;
            if let Some(next) = self.next_checkpoint {
                take = take.min(next - cycles);
            }
            if let Some(max) = self.options.max_cycles {
                take = take.min(max - cycles);
            }
            let take = take as usize;
            fold.push_chunk(&rest[..take]);
            rest = &rest[take..];

            let cycles = fold.cycles();
            if self.next_checkpoint == Some(cycles) {
                self.checkpoint_now(fold, criterion);
                if self.verdict.is_some() {
                    return;
                }
                self.next_checkpoint = self.options.next_checkpoint_after(cycles);
            }
            if self.options.max_cycles == Some(cycles) {
                self.exhaust_budget(fold, criterion);
                return;
            }
        }
    }

    /// Evaluates the prefix spectrum at the current cycle count and
    /// applies the acceptance rule, recording a trail entry either way.
    fn checkpoint_now(&mut self, fold: &StreamingCpa, criterion: &DetectionCriterion) {
        let cycles = fold.cycles();
        let Ok(spectrum) = fold.spectrum() else {
            // Below one period there is no spectrum to judge.
            self.trail.push(SequentialCheckpoint {
                cycles,
                accepted: false,
                peak_rho: 0.0,
                p_value: 1.0,
            });
            return;
        };
        let result = criterion.evaluate(&spectrum);
        let p_value = spectrum.peak_p_value(cycles as usize);
        let accepted = result.detected
            && cycles >= self.min_accept
            && self.options.confidence.is_none_or(|c| p_value <= c);
        self.trail.push(SequentialCheckpoint {
            cycles,
            accepted,
            peak_rho: result.peak_rho,
            p_value,
        });
        if accepted {
            self.verdict = Some(result);
            self.early = true;
        }
    }

    /// Renders the fixed-budget verdict at the consumption cap. If the
    /// cap coincided with a (rejecting) checkpoint the trail entry is
    /// already there; otherwise evaluate one final checkpoint first so
    /// the trail records where the budget ran out.
    fn exhaust_budget(&mut self, fold: &StreamingCpa, criterion: &DetectionCriterion) {
        if self.verdict.is_some() {
            return;
        }
        if self.trail.last().map(|c| c.cycles) != Some(fold.cycles()) {
            self.checkpoint_now(fold, criterion);
        }
        if self.verdict.is_none() {
            self.verdict = Some(fold.detect(criterion));
            self.early = false;
        }
    }

    /// The session outcome and whether it stopped early: the early
    /// verdict if one fired, otherwise the classic fixed-budget
    /// evaluation of everything consumed.
    pub(crate) fn outcome(
        &self,
        fold: &StreamingCpa,
        criterion: &DetectionCriterion,
    ) -> (DetectionResult, bool) {
        match self.verdict {
            Some(result) => (result, self.early),
            None => (fold.detect(criterion), false),
        }
    }

    /// The checkpoints evaluated so far.
    pub(crate) fn checkpoints(&self) -> &[SequentialCheckpoint] {
        &self.trail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpaAlgo, DetectMode, DetectOptions, Detector};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn m_sequence_pattern() -> Vec<bool> {
        let mut lfsr = clockmark_seq::Lfsr::maximal(7).expect("7-bit maximal LFSR");
        (0..127)
            .map(|_| clockmark_seq::SequenceGenerator::next_bit(&mut lfsr))
            .collect()
    }

    fn noisy_trace(
        pattern: &[bool],
        n: usize,
        phase: usize,
        amp: f64,
        noise: f64,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let wm = if pattern[(i + phase) % pattern.len()] {
                    amp
                } else {
                    0.0
                };
                wm + rng.random_range(-noise..noise)
            })
            .collect()
    }

    fn assert_results_bit_identical(a: &crate::DetectionResult, b: &crate::DetectionResult) {
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.peak_rotation, b.peak_rotation);
        assert_eq!(a.peak_rho.to_bits(), b.peak_rho.to_bits());
        assert_eq!(a.floor_max_abs.to_bits(), b.floor_max_abs.to_bits());
        assert_eq!(a.ratio.to_bits(), b.ratio.to_bits());
        assert_eq!(a.zscore.to_bits(), b.zscore.to_bits());
    }

    #[test]
    fn geometric_schedule_doubles_and_arithmetic_ticks() {
        let geo = SequentialOptions::default();
        assert_eq!(geo.next_checkpoint_after(0), Some(4096));
        assert_eq!(geo.next_checkpoint_after(4095), Some(4096));
        assert_eq!(geo.next_checkpoint_after(4096), Some(8192));
        assert_eq!(geo.next_checkpoint_after(8192), Some(16384));
        assert_eq!(geo.next_checkpoint_after(100_000), Some(131_072));

        let arith = SequentialOptions::every(500);
        assert_eq!(arith.next_checkpoint_after(0), Some(500));
        assert_eq!(arith.next_checkpoint_after(500), Some(1000));
        assert_eq!(arith.next_checkpoint_after(501), Some(1000));

        let capped = SequentialOptions::default().with_max_cycles(10_000);
        assert_eq!(capped.next_checkpoint_after(8192), Some(10_000));
        assert_eq!(capped.next_checkpoint_after(10_000), None);

        // A growth factor barely above 1.0 still advances by >= base.
        let slow = SequentialOptions::default()
            .with_base_cycles(100)
            .with_growth(1.0001);
        let first = slow.next_checkpoint_after(0).unwrap();
        let second = slow.next_checkpoint_after(first).unwrap();
        assert!(second >= first + 100);
    }

    #[test]
    fn strong_watermark_stops_early_and_matches_prefix_detect() {
        let pattern = m_sequence_pattern();
        let y = noisy_trace(&pattern, 60_000, 41, 1.0, 2.0, 7);
        let schedules = [
            SequentialOptions::default().with_base_cycles(1024),
            SequentialOptions::every(127),
        ];
        for algo in [CpaAlgo::Folded, CpaAlgo::Fft] {
            let detector =
                Detector::with_options(&pattern, DetectOptions::default().with_algo(algo))
                    .expect("valid");
            for options in schedules {
                let outcome = detector.detect_sequential(&y, options).expect("valid");
                assert!(outcome.early_stopped, "algo {algo:?}, {options:?}");
                assert!(outcome.result.detected);
                // The early stop lands on the embedded rotation.
                assert_eq!(outcome.result.peak_rotation, 41);
                assert!(
                    outcome.cycles_consumed < 60_000 / 4,
                    "consumed {} of 60000 cycles",
                    outcome.cycles_consumed
                );
                assert!(!outcome.checkpoints.is_empty());
                assert!(outcome.checkpoints.last().unwrap().accepted);
                // The early verdict is detect() on exactly the consumed prefix.
                let prefix = &y[..outcome.cycles_consumed as usize];
                let direct = detector.detect(prefix).expect("valid");
                assert_results_bit_identical(&outcome.result, &direct);
            }
        }

        // A weak watermark needs more cycles than a strong one.
        let detector = Detector::new(&pattern).expect("valid");
        let consumed = |amp: f64| {
            let y = noisy_trace(&pattern, 60_000, 10, amp, 2.0, 3);
            let outcome = detector
                .detect_sequential(&y, SequentialOptions::every(127))
                .expect("valid");
            assert!(outcome.result.detected, "amplitude {amp}");
            outcome.cycles_consumed
        };
        let (strong, weak) = (consumed(1.0), consumed(0.3));
        assert!(weak > strong, "weak {weak} vs strong {strong}");
    }

    #[test]
    fn absent_watermark_runs_to_the_end_with_the_fixed_budget_verdict() {
        let pattern = m_sequence_pattern();
        let detector = Detector::new(&pattern).expect("valid");
        let inputs = [
            (20_000, 11, SequentialOptions::default()),
            (30_000, 4, SequentialOptions::every(127)),
        ];
        for (cycles, seed, options) in inputs {
            let y = noisy_trace(&pattern, cycles, 0, 0.0, 2.0, seed);
            let outcome = detector.detect_sequential(&y, options).expect("valid");
            assert!(!outcome.early_stopped, "{options:?}");
            assert!(!outcome.result.detected, "{options:?}");
            assert_eq!(outcome.cycles_consumed, cycles as u64);
            let direct = detector.detect(&y).expect("valid");
            assert_results_bit_identical(&outcome.result, &direct);
            // Every checkpoint was evaluated and rejected.
            assert!(outcome.checkpoints.iter().all(|c| !c.accepted));
        }
    }

    /// Satellite regression: an adversarial burst that correlates
    /// perfectly for the first two periods (so the raw criterion fires
    /// on that prefix) must not early-accept below the four-period
    /// floor — without the floor, sequential mode would "detect" a
    /// watermark in what is otherwise pure noise.
    #[test]
    fn adversarial_short_burst_cannot_early_accept_below_the_floor() {
        let pattern = m_sequence_pattern();
        let period = pattern.len();
        let mut rng = StdRng::seed_from_u64(13);
        let mut y: Vec<f64> = Vec::with_capacity(30_000);
        // Two pristine periods: the watermark with no noise at all.
        for i in 0..2 * period {
            y.push(if pattern[i % period] { 1.0 } else { 0.0 });
        }
        // ... then nothing but noise.
        for _ in 2 * period..30_000 {
            y.push(rng.random_range(-2.0..2.0f64));
        }

        let detector = Detector::new(&pattern).expect("valid");
        // The raw criterion *does* fire on the pristine 2-period prefix —
        // that is what makes the burst adversarial.
        let burst_only = detector.detect(&y[..2 * period]).expect("valid");
        assert!(
            burst_only.detected,
            "test premise: the burst alone must satisfy the raw criterion"
        );

        // Checkpoints at every period boundary, the most aggressive
        // schedule: the floor is the only thing standing in the way.
        let options = SequentialOptions::every(period as u64);
        let outcome = detector.detect_sequential(&y, options).expect("valid");
        let below_floor: Vec<_> = outcome
            .checkpoints
            .iter()
            .filter(|c| c.cycles < 4 * period as u64)
            .collect();
        // The schedule really did evaluate the burst region...
        assert!(below_floor.iter().any(|c| c.cycles <= 2 * period as u64));
        // ...and the floor blocked every accept there, despite the raw
        // criterion passing on that prefix.
        assert!(
            below_floor.iter().all(|c| !c.accepted),
            "early accept below the {} floor",
            4 * period
        );
        assert!(outcome.cycles_consumed >= 4 * period as u64);
    }

    #[test]
    fn explicit_min_cycles_raises_the_floor() {
        let pattern = m_sequence_pattern();
        let y = noisy_trace(&pattern, 60_000, 41, 1.0, 2.0, 7);
        let detector = Detector::new(&pattern).expect("valid");
        let unfloored = detector
            .detect_sequential(&y, SequentialOptions::default().with_base_cycles(1024))
            .expect("valid");
        let floored = detector
            .detect_sequential(
                &y,
                SequentialOptions::default()
                    .with_base_cycles(1024)
                    .with_min_cycles(32_768),
            )
            .expect("valid");
        assert!(unfloored.cycles_consumed < 32_768);
        assert!(floored.early_stopped);
        assert!(floored.cycles_consumed >= 32_768);
    }

    #[test]
    fn confidence_gate_blocks_marginal_accepts() {
        let pattern = m_sequence_pattern();
        let y = noisy_trace(&pattern, 30_000, 41, 1.0, 2.0, 7);
        let detector = Detector::new(&pattern).expect("valid");
        // An unsatisfiable confidence bound (p-values can round down to
        // exactly 0.0 on strong peaks, so 0.0 is NOT unsatisfiable):
        // the session can never early-accept.
        let outcome = detector
            .detect_sequential(
                &y,
                SequentialOptions::default()
                    .with_base_cycles(1024)
                    .with_confidence(-1.0),
            )
            .expect("valid");
        assert!(!outcome.early_stopped);
        assert_eq!(outcome.cycles_consumed, 30_000);
        // A permissive bound stops early, and the trail carries the
        // p-value that justified it.
        let outcome = detector
            .detect_sequential(
                &y,
                SequentialOptions::default()
                    .with_base_cycles(1024)
                    .with_confidence(1e-6),
            )
            .expect("valid");
        assert!(outcome.early_stopped);
        let accept = outcome.checkpoints.last().unwrap();
        assert!(accept.accepted && accept.p_value <= 1e-6);
    }

    #[test]
    fn max_cycles_budget_freezes_the_session() {
        let pattern = m_sequence_pattern();
        let y = noisy_trace(&pattern, 40_000, 0, 0.0, 2.0, 5);
        let detector = Detector::new(&pattern).expect("valid");
        let options = SequentialOptions::default().with_max_cycles(9_000);
        let mut session = detector.detect_sequential_streaming(options);
        session.push_chunk(&y);
        assert!(session.decided());
        assert_eq!(session.cycles(), 9_000);
        // Further input is ignored entirely.
        session.push_chunk(&y);
        assert_eq!(session.cycles(), 9_000);
        let outcome = session.finalize();
        assert!(!outcome.early_stopped);
        assert_eq!(outcome.cycles, 9_000);
        let direct = detector.detect(&y[..9_000]).expect("valid");
        assert_results_bit_identical(&outcome.result, &direct);
    }

    /// Chunking must not matter: any split of the stream crosses the
    /// same checkpoints at the same cycle counts.
    #[test]
    fn chunking_is_irrelevant_to_the_outcome() {
        let pattern = m_sequence_pattern();
        let y = noisy_trace(&pattern, 30_000, 17, 1.0, 2.0, 21);
        let detector = Detector::new(&pattern).expect("valid");
        let options = SequentialOptions::default().with_base_cycles(700);

        let whole = {
            let mut s = detector.detect_sequential_streaming(options);
            s.push_chunk(&y);
            s.finalize()
        };
        for chunk_size in [1usize, 97, 1024, 8192] {
            let mut s = detector.detect_sequential_streaming(options);
            for chunk in y.chunks(chunk_size) {
                s.push_chunk(chunk);
                if s.decided() {
                    break;
                }
            }
            let split = s.finalize();
            assert_eq!(split.cycles, whole.cycles, "chunk {chunk_size}");
            assert_eq!(split.early_stopped, whole.early_stopped);
            assert_results_bit_identical(&split.result, &whole.result);
            assert_eq!(split.checkpoints, whole.checkpoints);
        }
    }

    /// SIGKILL-anywhere determinism: snapshot the fold at an arbitrary
    /// cycle, resume, and the session must hit the same checkpoints and
    /// render the same verdict bytes as an uninterrupted run.
    #[test]
    fn resume_replays_the_same_schedule_bit_identically() {
        let pattern = m_sequence_pattern();
        let y = noisy_trace(&pattern, 30_000, 41, 1.0, 2.0, 31);
        let detector = Detector::new(&pattern).expect("valid");
        let options = SequentialOptions::default().with_base_cycles(1024);

        let whole = {
            let mut s = detector.detect_sequential_streaming(options);
            s.push_chunk(&y);
            s.finalize()
        };
        for cut in [1usize, 1000, 1024, 5000, 8191] {
            let mut first = detector.detect_sequential_streaming(options);
            first.push_chunk(&y[..cut]);
            if first.decided() {
                continue; // nothing left to resume
            }
            let mut resumed = detector
                .resume(DetectMode::Sequential(options), first.state())
                .expect("valid state");
            resumed.push_chunk(&y[cut..]);
            let outcome = resumed.finalize();
            assert_eq!(outcome.cycles, whole.cycles, "cut {cut}");
            assert_eq!(outcome.early_stopped, whole.early_stopped);
            assert_results_bit_identical(&outcome.result, &whole.result);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite: sequential-vs-fixed-budget bit-identity. A run
        /// that never early-stops must equal `Detector::detect` on the
        /// full trace bit for bit, and an early-stopped verdict must
        /// equal `detect` on exactly the consumed prefix — for both
        /// kernels.
        #[test]
        fn sequential_is_bit_identical_to_fixed_budget_detect(
            period_sel in 0usize..3,
            phase in 0usize..126,
            amp_milli in 0u64..1500,
            seed in 0u64..1000,
            base in 256u64..4096,
            fft in 0usize..2,
        ) {
            let period = [31usize, 63, 127][period_sel];
            let mut lfsr = clockmark_seq::Lfsr::maximal(match period {
                31 => 5,
                63 => 6,
                _ => 7,
            }).expect("maximal LFSR");
            let pattern: Vec<bool> = (0..period)
                .map(|_| clockmark_seq::SequenceGenerator::next_bit(&mut lfsr))
                .collect();
            let amp = amp_milli as f64 / 1000.0;
            let y = noisy_trace(&pattern, 12_000, phase % period, amp, 2.0, seed);
            let algo = if fft == 1 { CpaAlgo::Fft } else { CpaAlgo::Folded };
            let detector = Detector::with_options(
                &pattern,
                DetectOptions::default().with_algo(algo),
            ).expect("valid");

            let outcome = detector
                .detect_sequential(&y, SequentialOptions::default().with_base_cycles(base))
                .expect("valid");
            let reference = detector
                .detect(&y[..outcome.cycles_consumed as usize])
                .expect("valid");
            prop_assert_eq!(outcome.result.detected, reference.detected);
            prop_assert_eq!(outcome.result.peak_rotation, reference.peak_rotation);
            prop_assert_eq!(outcome.result.peak_rho.to_bits(), reference.peak_rho.to_bits());
            prop_assert_eq!(outcome.result.floor_max_abs.to_bits(), reference.floor_max_abs.to_bits());
            prop_assert_eq!(outcome.result.ratio.to_bits(), reference.ratio.to_bits());
            prop_assert_eq!(outcome.result.zscore.to_bits(), reference.zscore.to_bits());
            if !outcome.early_stopped {
                prop_assert_eq!(outcome.cycles_consumed, 12_000u64);
            }
        }
    }
}
