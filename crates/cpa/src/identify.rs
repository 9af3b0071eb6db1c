//! Batched multi-pattern identification: *whose* watermark does a trace
//! carry?
//!
//! Verification asks a yes/no question about one known pattern; the
//! ownership-identification workload correlates one trace against many
//! candidate LFSR seed/tap patterns and ranks them. Naively that is N
//! independent detects, each re-folding the trace and re-transforming
//! the fold. But the per-residue fold (`c`, `m`, Σy, Σy²) depends only
//! on the *period*, never on the pattern bits, so one fold serves every
//! candidate; and with the trace-side transform `Z = DFT(c + i·m)`
//! cached ([`clockmark_dsp::MultiCorrelator`]), each candidate costs one
//! forward FFT of its ones-indicator plus one inverse — down from the
//! three transforms an independent detect pays, before candidates are
//! spread across threads.
//!
//! **Bit-identity.** Every per-candidate [`DetectionResult`] is
//! bit-identical to what [`Detector::detect`](crate::Detector::detect)
//! would report for that candidate on the same samples (for the folded
//! kernel by shared arithmetic; for the FFT kernel because the cached
//! `Z`, the per-candidate indicator transform, the elementwise product
//! and the exact refinement reproduce `spectrum_fft`'s operations bit
//! for bit — the batching only reorders *which call* computes each
//! transform, never the arithmetic inside one). `CpaAlgo::Naive`
//! follows the streaming precedent and is evaluated with the
//! (decision-identical) folded arithmetic, since a fold retains no raw
//! trace.

use crate::detect::{DetectionCriterion, DetectionResult};
use crate::error::CpaError;
use crate::kernel::{refine_exactly, rho_from_correlations, spectrum_folded, SpectrumInputs};
use crate::{CpaAlgo, SpreadSpectrum};
use clockmark_dsp::MultiCorrelator;

/// One candidate watermark pattern in an identification query.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePattern {
    /// Caller-chosen name carried through to the ranked ledger (e.g.
    /// `"lfsr12:seed=0x5a3"`).
    pub label: String,
    /// One period of the candidate pattern; must match the query period
    /// and must not be constant.
    pub pattern: Vec<bool>,
}

impl CandidatePattern {
    /// Builds a labelled candidate.
    pub fn new(label: impl Into<String>, pattern: Vec<bool>) -> Self {
        CandidatePattern {
            label: label.into(),
            pattern,
        }
    }
}

/// One candidate's entry in the ranked identification ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Index of the candidate in the caller's input order.
    pub index: usize,
    /// The candidate's label, echoed back.
    pub label: String,
    /// The full verdict for this candidate — bit-identical to an
    /// independent [`Detector::detect`](crate::Detector::detect) with
    /// the same kernel on the same samples.
    pub result: DetectionResult,
}

/// A ranked identification ledger: candidates ordered by descending
/// peak |ρ| (ties broken by input order).
#[derive(Debug, Clone, PartialEq)]
pub struct Identification {
    /// Cycles of trace the scores were computed over.
    pub cycles: u64,
    /// Per-candidate verdicts, best first.
    pub scores: Vec<CandidateScore>,
}

impl Identification {
    /// The best-ranked candidate.
    pub fn best(&self) -> &CandidateScore {
        &self.scores[0]
    }
}

/// Checks an identification query's candidates against the fold
/// period: the list must be non-empty, and every candidate must share
/// the period and vary.
///
/// # Errors
///
/// [`CpaError::InvalidState`] for an empty list,
/// [`CpaError::PeriodMismatch`] or [`CpaError::ConstantPattern`] for the
/// first offending candidate.
pub(crate) fn validate_candidates(
    period: usize,
    candidates: &[CandidatePattern],
) -> Result<(), CpaError> {
    if candidates.is_empty() {
        return Err(CpaError::InvalidState {
            message: "identify needs at least one candidate pattern".to_owned(),
        });
    }
    for candidate in candidates {
        if candidate.pattern.len() != period {
            return Err(CpaError::PeriodMismatch {
                expected: period,
                got: candidate.pattern.len(),
            });
        }
        if candidate.pattern.iter().all(|&b| b) || candidate.pattern.iter().all(|&b| !b) {
            return Err(CpaError::ConstantPattern);
        }
    }
    Ok(())
}

/// Scores every candidate against one shared fold and ranks them, best
/// first. The caller has validated the candidates and folded at least
/// one period; `fold.ones` is ignored (each candidate brings its own).
///
/// `threads` partitions the *candidates*; each candidate's spectrum is
/// computed serially with arithmetic independent of the partition, so
/// any thread count yields the same bytes.
pub(crate) fn rank_candidates(
    fold: &SpectrumInputs<'_>,
    candidates: &[CandidatePattern],
    criterion: &DetectionCriterion,
    algo: CpaAlgo,
    threads: usize,
) -> Vec<CandidateScore> {
    let span = clockmark_obs::span("cpa.identify")
        .field("period", fold.period())
        .field("candidates", candidates.len())
        .field("algo", algo.as_str())
        .field("threads", threads);
    let timed = span.is_recording().then(std::time::Instant::now);

    let threads = threads.clamp(1, candidates.len());
    let results: Vec<DetectionResult> = if threads == 1 {
        score_chunk(fold, candidates, criterion, algo)
    } else {
        let chunk = candidates.len().div_ceil(threads);
        let mut results = Vec::with_capacity(candidates.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = candidates
                .chunks(chunk)
                .map(|part| scope.spawn(move || score_chunk(fold, part, criterion, algo)))
                .collect();
            // Joining in spawn order keeps the concatenation — and thus
            // the tie-break order — deterministic.
            for handle in handles {
                results.extend(handle.join().expect("identify worker panicked"));
            }
        });
        results
    };

    let mut order: Vec<usize> = (0..results.len()).collect();
    order.sort_by(|&a, &b| {
        results[b]
            .peak_rho
            .abs()
            .total_cmp(&results[a].peak_rho.abs())
            .then(a.cmp(&b))
    });
    let scores = order
        .into_iter()
        .map(|i| CandidateScore {
            index: i,
            label: candidates[i].label.clone(),
            result: results[i],
        })
        .collect();
    if let Some(t0) = timed {
        clockmark_obs::observe("cpa.identify_seconds", t0.elapsed().as_secs_f64());
    }
    scores
}

/// Scores a contiguous slice of candidates on one thread, in input
/// order. The FFT path builds one [`MultiCorrelator`] per thread and
/// caches `Z = DFT(c + i·m)` across its candidates.
fn score_chunk(
    fold: &SpectrumInputs<'_>,
    candidates: &[CandidatePattern],
    criterion: &DetectionCriterion,
    algo: CpaAlgo,
) -> Vec<DetectionResult> {
    let period = fold.period();
    let mut ones: Vec<usize> = Vec::with_capacity(period);
    if algo == CpaAlgo::Fft {
        let mut multi = MultiCorrelator::new(period)
            .expect("validated patterns have period >= 2, so the plan is non-empty");
        let m_f64: Vec<f64> = fold.m.iter().map(|&v| v as f64).collect();
        multi
            .set_signals(fold.c, &m_f64)
            .expect("fold buffers share the correlator length by construction");
        let mut indicator = vec![0.0f64; period];
        let mut sxy = vec![0.0f64; period];
        let mut sx = vec![0.0f64; period];
        candidates
            .iter()
            .map(|candidate| {
                ones.clear();
                ones.extend((0..period).filter(|&j| candidate.pattern[j]));
                indicator.fill(0.0);
                for &j in &ones {
                    indicator[j] = 1.0;
                }
                multi
                    .correlate_one(&indicator, &mut sxy, &mut sx)
                    .expect("buffers sized to the correlator length");
                let inputs = SpectrumInputs {
                    ones: &ones,
                    ..*fold
                };
                let mut rho = rho_from_correlations(&inputs, &sxy, &sx);
                refine_exactly(&inputs, &mut rho, 1);
                SpreadSpectrum::from_rho(rho).detect(criterion)
            })
            .collect()
    } else {
        candidates
            .iter()
            .map(|candidate| {
                ones.clear();
                ones.extend((0..period).filter(|&j| candidate.pattern[j]));
                let inputs = SpectrumInputs {
                    ones: &ones,
                    ..*fold
                };
                spectrum_folded(&inputs, 1).detect(criterion)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpaAlgo, CpaError, DetectMode, DetectOptions, Detector};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Distinct random 127-period binary candidates. Cyclic shifts of
    /// one m-sequence would NOT work here: they are the same sequence
    /// at different phases, and rotational CPA is phase-blind by
    /// design. Independent random patterns have low cross-correlation,
    /// so only the embedded candidate scores high.
    fn candidate_bank(count: usize) -> Vec<CandidatePattern> {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        (0..count)
            .map(|s| {
                let mut pattern: Vec<bool> =
                    (0..127).map(|_| rng.random_range(0..2) == 1).collect();
                // Guard against the (astronomically unlikely) constant draw.
                pattern[0] = true;
                pattern[1] = false;
                CandidatePattern::new(format!("seed-{s}"), pattern)
            })
            .collect()
    }

    fn noisy_trace(pattern: &[bool], n: usize, phase: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let wm = if pattern[(i + phase) % pattern.len()] {
                    1.0
                } else {
                    0.0
                };
                wm + rng.random_range(-2.0..2.0f64)
            })
            .collect()
    }

    #[test]
    fn identify_ranks_the_embedded_pattern_first() {
        let candidates = candidate_bank(16);
        let truth = 5usize;
        let y = noisy_trace(&candidates[truth].pattern, 40_000, 13, 3);
        // The detector pattern fixes the fold period; any 127-period
        // pattern works as the fold anchor.
        let detector = Detector::new(&candidates[0].pattern).expect("valid");
        let identification = detector.identify(&y, &candidates).expect("valid");
        assert_eq!(identification.cycles, 40_000);
        assert_eq!(identification.scores.len(), 16);
        let best = identification.best();
        assert_eq!(best.index, truth);
        assert_eq!(best.label, "seed-5");
        assert!(best.result.detected);
        // Ranked by descending |peak_rho|.
        for pair in identification.scores.windows(2) {
            assert!(pair[0].result.peak_rho.abs() >= pair[1].result.peak_rho.abs());
        }
    }

    /// The tentpole contract: every per-candidate result from the shared
    /// fold is bit-identical to an independent `Detector::detect` with
    /// that candidate as the pattern — for both kernels.
    #[test]
    fn identify_is_bit_identical_to_independent_detects() {
        let candidates = candidate_bank(8);
        let y = noisy_trace(&candidates[2].pattern, 20_000, 41, 9);
        for algo in [CpaAlgo::Folded, CpaAlgo::Fft] {
            let detector = Detector::with_options(
                &candidates[0].pattern,
                DetectOptions::default().with_algo(algo),
            )
            .expect("valid");
            let identification = detector.identify(&y, &candidates).expect("valid");
            for score in &identification.scores {
                let independent = Detector::with_options(
                    &candidates[score.index].pattern,
                    DetectOptions::default().with_algo(algo),
                )
                .expect("valid")
                .detect(&y)
                .expect("valid");
                assert_eq!(score.result.detected, independent.detected, "{algo:?}");
                assert_eq!(score.result.peak_rotation, independent.peak_rotation);
                assert_eq!(
                    score.result.peak_rho.to_bits(),
                    independent.peak_rho.to_bits()
                );
                assert_eq!(
                    score.result.floor_max_abs.to_bits(),
                    independent.floor_max_abs.to_bits()
                );
                assert_eq!(score.result.ratio.to_bits(), independent.ratio.to_bits());
                assert_eq!(score.result.zscore.to_bits(), independent.zscore.to_bits());
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_a_single_bit() {
        let candidates = candidate_bank(9);
        let y = noisy_trace(&candidates[4].pattern, 15_000, 0, 17);
        let ranked = |threads: usize| {
            let detector = Detector::with_options(
                &candidates[0].pattern,
                DetectOptions::default().with_threads(threads),
            )
            .expect("valid");
            let mut session = detector
                .session(DetectMode::Identify(candidates.clone()))
                .expect("valid");
            session.push_chunk(&y);
            session.finalize()
        };
        let serial = ranked(1);
        for threads in [2usize, 3, 8, 64] {
            let parallel = ranked(threads);
            assert_eq!(parallel.scores.len(), serial.scores.len());
            for (p, s) in parallel.scores.iter().zip(&serial.scores) {
                assert_eq!(p.index, s.index, "threads {threads}");
                assert_eq!(p.result.peak_rho.to_bits(), s.result.peak_rho.to_bits());
                assert_eq!(p.result.zscore.to_bits(), s.result.zscore.to_bits());
            }
        }
    }

    #[test]
    fn validation_rejects_bad_candidates() {
        let candidates = candidate_bank(2);
        let y = noisy_trace(&candidates[0].pattern, 5_000, 0, 1);
        let detector = Detector::new(&candidates[0].pattern).expect("valid");

        let err = detector.identify(&y, &[]).unwrap_err();
        assert!(matches!(err, CpaError::InvalidState { .. }));

        let short = CandidatePattern::new("short", vec![true; 63]);
        let err = detector.identify(&y, &[short]).unwrap_err();
        assert!(matches!(
            err,
            CpaError::PeriodMismatch {
                expected: 127,
                got: 63
            }
        ));

        let constant = CandidatePattern::new("constant", vec![true; 127]);
        let err = detector.identify(&y, &[constant]).unwrap_err();
        assert!(matches!(err, CpaError::ConstantPattern));

        let err = detector.identify(&y[..100], &candidates).unwrap_err();
        assert!(matches!(
            err,
            CpaError::TraceShorterThanPeriod {
                have: 100,
                need: 127
            }
        ));
    }

    #[test]
    fn streaming_identify_matches_batch_identify() {
        let candidates = candidate_bank(5);
        let y = noisy_trace(&candidates[1].pattern, 12_000, 99, 23);
        let detector = Detector::new(&candidates[0].pattern).expect("valid");
        let batch = detector.identify(&y, &candidates).expect("valid");

        let mut session = detector
            .session(DetectMode::Identify(candidates.clone()))
            .expect("valid");
        for chunk in y.chunks(777) {
            session.push_chunk(chunk);
        }
        let streamed = session.finalize();
        assert_eq!(streamed.cycles, batch.cycles);
        assert_eq!(streamed.result, batch.best().result);
        for (a, b) in streamed.scores.iter().zip(&batch.scores) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.result.peak_rho.to_bits(), b.result.peak_rho.to_bits());
        }
    }
}
