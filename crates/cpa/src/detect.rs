use crate::SpreadSpectrum;

/// The decision rule for "a single significant correlation coefficient can
/// be resolved" (Section III of the paper).
///
/// Two conditions are combined:
///
/// - the peak must exceed the largest other |ρ| by `min_peak_ratio` (the
///   "single peak" requirement — a second comparable peak fails it), and
/// - the peak must stand `min_zscore` standard deviations above the noise
///   floor (statistical significance; for `P − 1` independent floor values
///   the expected maximum is ≈ √(2·ln P) σ ≈ 4 σ at P = 4,095, so the
///   default of 5 σ keeps the false-positive rate low).
///
/// ```
/// let strict = clockmark_cpa::DetectionCriterion::default();
/// assert_eq!(strict.min_peak_ratio, 1.5);
/// assert_eq!(strict.min_zscore, 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionCriterion {
    /// Minimum ratio between the peak and the largest other |ρ|.
    pub min_peak_ratio: f64,
    /// Minimum z-score of the peak against the floor distribution.
    pub min_zscore: f64,
}

impl DetectionCriterion {
    /// A lenient criterion for exploratory sweeps (ratio 1.2, z-score 4).
    pub fn lenient() -> Self {
        DetectionCriterion {
            min_peak_ratio: 1.2,
            min_zscore: 4.0,
        }
    }

    /// Evaluates the criterion against a spectrum.
    ///
    /// The decision is made on the coefficient *magnitude*, so an inverted
    /// watermark (power drops when the pattern bit is high) is detected at
    /// the same rotation; `peak_rho` keeps the sign so the polarity can be
    /// read off the result. A degenerate (all-zero) spectrum — e.g. from a
    /// constant trace — never detects, and neither does a spectrum with
    /// [no noise floor](SpreadSpectrum::has_noise_floor) (period 1), whose
    /// floor statistics are vacuous and would otherwise pass any
    /// peak-vs-floor threshold trivially.
    pub fn evaluate(&self, spectrum: &SpreadSpectrum) -> DetectionResult {
        let (peak_rotation, peak_rho) = spectrum.peak_abs();
        let ratio = spectrum.peak_to_floor_ratio();
        let zscore = spectrum.peak_zscore();
        DetectionResult {
            detected: spectrum.has_noise_floor()
                && !spectrum.is_degenerate()
                && ratio >= self.min_peak_ratio
                && zscore >= self.min_zscore,
            peak_rotation,
            peak_rho,
            floor_max_abs: spectrum.floor_max_abs(),
            ratio,
            zscore,
        }
    }
}

impl Default for DetectionCriterion {
    fn default() -> Self {
        DetectionCriterion {
            min_peak_ratio: 1.5,
            min_zscore: 5.0,
        }
    }
}

/// The outcome of applying a [`DetectionCriterion`] to a spread spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionResult {
    /// Whether a single significant peak resolved.
    pub detected: bool,
    /// The rotation at which the peak occurred (the phase offset between
    /// acquisition start and the watermark period).
    pub peak_rotation: usize,
    /// The correlation coefficient at the magnitude peak, sign preserved:
    /// negative for an inverted watermark.
    pub peak_rho: f64,
    /// The largest |ρ| among all other rotations.
    pub floor_max_abs: f64,
    /// `|peak_rho| / floor_max_abs`.
    pub ratio: f64,
    /// Peak z-score against the floor distribution.
    pub zscore: f64,
}

impl DetectionResult {
    /// The conservative verdict before one full period has been folded:
    /// there is no spectrum to judge, so nothing is detected.
    pub(crate) const UNDECIDED: DetectionResult = DetectionResult {
        detected: false,
        peak_rotation: 0,
        peak_rho: 0.0,
        floor_max_abs: 0.0,
        ratio: 0.0,
        zscore: 0.0,
    };
}

impl std::fmt::Display for DetectionResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (peak rho={:.5} at rotation {}, floor={:.5}, ratio={:.2}, z={:.1})",
            if self.detected {
                "DETECTED"
            } else {
                "not detected"
            },
            self.peak_rho,
            self.peak_rotation,
            self.floor_max_abs,
            self.ratio,
            self.zscore,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpaError, Detector};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spread_spectrum(pattern: &[bool], y: &[f64]) -> Result<SpreadSpectrum, CpaError> {
        Detector::new(pattern)?.spectrum(y)
    }

    fn noisy_watermarked(amplitude: f64, noise: f64, seed: u64) -> (Vec<bool>, Vec<f64>) {
        use clockmark_seq::{Lfsr, SequenceGenerator};
        let mut rng = StdRng::seed_from_u64(seed);
        // One period of the 6-bit maximal sequence (aperiodic within 63).
        let mut lfsr = Lfsr::maximal(6).expect("valid width");
        let pattern: Vec<bool> = (0..63).map(|_| lfsr.next_bit()).collect();
        let y: Vec<f64> = (0..5000)
            .map(|i| {
                let wm = if pattern[(i + 17) % 63] {
                    amplitude
                } else {
                    0.0
                };
                wm + rng.random_range(-noise..noise)
            })
            .collect();
        (pattern, y)
    }

    #[test]
    fn strong_watermark_is_detected_at_the_right_phase() {
        let (pattern, y) = noisy_watermarked(1.0, 2.0, 7);
        let s = spread_spectrum(&pattern, &y).expect("valid");
        let result = s.detect(&DetectionCriterion::default());
        assert!(result.detected, "{result}");
        assert_eq!(result.peak_rotation, 17);
        assert!(result.zscore > 5.0);
    }

    #[test]
    fn absent_watermark_is_not_detected() {
        let (pattern, y) = noisy_watermarked(0.0, 2.0, 8);
        let s = spread_spectrum(&pattern, &y).expect("valid");
        let result = s.detect(&DetectionCriterion::default());
        assert!(!result.detected, "{result}");
    }

    #[test]
    fn lenient_criterion_is_weaker_than_default() {
        let lenient = DetectionCriterion::lenient();
        let default = DetectionCriterion::default();
        assert!(lenient.min_peak_ratio < default.min_peak_ratio);
        assert!(lenient.min_zscore < default.min_zscore);
    }

    #[test]
    fn display_reports_both_outcomes() {
        let (pattern, y) = noisy_watermarked(1.0, 1.0, 9);
        let s = spread_spectrum(&pattern, &y).expect("valid");
        let detected = s.detect(&DetectionCriterion::default());
        assert!(detected.to_string().contains("DETECTED"));

        let (pattern, y) = noisy_watermarked(0.0, 1.0, 10);
        let s = spread_spectrum(&pattern, &y).expect("valid");
        let missed = s.detect(&DetectionCriterion::default());
        assert!(missed.to_string().contains("not detected"));
    }

    #[test]
    fn constant_trace_is_not_detected() {
        // Regression: a zero-variance trace used to yield an all-zero
        // spectrum whose ratio and z-score were both +∞ → DETECTED.
        let pattern = [true, false, true, true, false, false, true];
        let y = vec![3.3; 700];
        let s = spread_spectrum(&pattern, &y).expect("valid");
        let result = s.detect(&DetectionCriterion::default());
        assert!(!result.detected, "{result}");
        assert!(result.ratio.is_finite());
        assert!(result.zscore.is_finite());
    }

    #[test]
    fn spectrum_without_a_noise_floor_never_detects() {
        // Regression: a period-1 spectrum is nothing but its own peak;
        // floor_mean/floor_std report 0.0, so ratio and z-score blow up
        // to +∞ and any peak-vs-floor criterion passes trivially. The
        // verdict must be "not detected" even though both thresholds are
        // numerically "met".
        let s = SpreadSpectrum::from_rho(vec![0.9]);
        assert!(!s.has_noise_floor());
        for criterion in [DetectionCriterion::default(), DetectionCriterion::lenient()] {
            let result = criterion.evaluate(&s);
            assert!(
                result.ratio >= criterion.min_peak_ratio && result.zscore >= criterion.min_zscore,
                "precondition: the thresholds alone would pass ({result})"
            );
            assert!(!result.detected, "{result}");
        }
        // A two-rotation spectrum has a floor and stays eligible.
        assert!(SpreadSpectrum::from_rho(vec![0.9, 0.1]).has_noise_floor());
    }

    #[test]
    fn inverted_watermark_is_detected_at_the_right_phase() {
        // Regression: detection used to maximise the *signed* ρ, so a
        // polarity-inverted watermark (power drops when the bit is high)
        // was invisible to the detector.
        let (pattern, y) = noisy_watermarked(-1.0, 2.0, 12);
        let s = spread_spectrum(&pattern, &y).expect("valid");
        let result = s.detect(&DetectionCriterion::default());
        assert!(result.detected, "{result}");
        assert_eq!(result.peak_rotation, 17);
        assert!(
            result.peak_rho < 0.0,
            "sign must be preserved: {}",
            result.peak_rho
        );
    }

    #[test]
    fn detection_degrades_gracefully_with_noise() {
        // At equal trace length, more noise means lower z-score.
        let mut scores = Vec::new();
        for noise in [0.5, 4.0, 32.0] {
            let (pattern, y) = noisy_watermarked(1.0, noise, 11);
            let s = spread_spectrum(&pattern, &y).expect("valid");
            scores.push(s.peak_zscore());
        }
        assert!(scores[0] > scores[1] && scores[1] > scores[2], "{scores:?}");
    }
}
