//! Analytic detection theory for the clock-modulation watermark.
//!
//! These closed forms tie the reproduction's knobs together and predict
//! the experiments before they run.
//!
//! # The signal model
//!
//! The watermark adds `A·xᵢ` to each cycle's power, where `x ∈ {0, 1}` is
//! the `WMARK` bit with duty cycle `p` (½ + 1/2P for a maximal sequence)
//! and `A` is the gated block's power step (1.51 mW for the paper's 1,024
//! clock-buffer-only registers). The measured cycle is `yᵢ = A·xᵢ + nᵢ`
//! with per-cycle noise σₙ (front-end noise after 50-sample averaging plus
//! background variation).
//!
//! # The correlation
//!
//! Pearson's ρ between `x` and `y` is then
//!
//! ```text
//! ρ = A·σₓ / √(A²σₓ² + σₙ²),   σₓ = √(p(1−p))
//! ```
//!
//! and since each off-phase rotation of an m-sequence is nearly orthogonal
//! to the watermark, the spread-spectrum floor is `≈ N(0, 1/√N)`: the
//! peak's z-score grows as `ρ·√N`. Inverting gives the trace length a
//! target confidence needs — the law behind the paper's choice of
//! N = 300,000 and behind every sweep in `ablation_sweeps`.
//!
//! ```
//! use clockmark::theory;
//! use clockmark_power::Power;
//!
//! // The paper-scale numbers: 1.51 mW amplitude against the calibrated
//! // ~45 mW cycle noise of the full measurement chain.
//! let rho = theory::expected_peak_rho(
//!     Power::from_milliwatts(1.511),
//!     0.5,
//!     Power::from_milliwatts(45.3),
//! );
//! assert!((rho - 0.0167).abs() < 0.001, "predicts the Fig. 5 peak: {rho}");
//!
//! // 300,000 cycles put that peak ~9 sigma above the floor.
//! let z = theory::expected_zscore(rho, 300_000);
//! assert!(z > 8.0 && z < 10.0, "z = {z}");
//! ```

use clockmark_power::Power;

/// The expected correlation-peak height for a binary watermark of
/// amplitude `amplitude`, duty cycle `duty`, against per-cycle noise of
/// standard deviation `noise_sigma`.
pub fn expected_peak_rho(amplitude: Power, duty: f64, noise_sigma: Power) -> f64 {
    let a = amplitude.watts();
    let sigma_x = (duty * (1.0 - duty)).max(0.0).sqrt();
    let signal = a * sigma_x;
    let denom = (signal * signal + noise_sigma.watts().powi(2)).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    signal / denom
}

/// The expected z-score of the peak over the spread-spectrum floor after
/// `n_cycles` cycles (`floor σ ≈ 1/√N`).
pub fn expected_zscore(rho: f64, n_cycles: usize) -> f64 {
    rho * (n_cycles as f64).sqrt()
}

/// The trace length needed for the peak to reach `target_z` standard
/// deviations above the floor.
///
/// Returns `usize::MAX` when the predicted ρ is zero (undetectable at any
/// length).
pub fn cycles_for_zscore(amplitude: Power, duty: f64, noise_sigma: Power, target_z: f64) -> usize {
    let rho = expected_peak_rho(amplitude, duty, noise_sigma);
    if rho <= 0.0 {
        return usize::MAX;
    }
    (target_z / rho).powi(2).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ChipModel, ClockModulationWatermark, Experiment, WatermarkArchitecture, WgcConfig,
    };
    use clockmark_power::{EnergyLibrary, PowerModel};

    #[test]
    fn rho_limits_behave() {
        let a = Power::from_milliwatts(1.5);
        // No noise: perfect correlation.
        assert!((expected_peak_rho(a, 0.5, Power::ZERO) - 1.0).abs() < 1e-12);
        // No amplitude or degenerate duty: no correlation.
        assert_eq!(expected_peak_rho(Power::ZERO, 0.5, a), 0.0);
        assert_eq!(expected_peak_rho(a, 0.0, a), 0.0);
        assert_eq!(expected_peak_rho(a, 1.0, a), 0.0);
        // Monotone in amplitude.
        let lo = expected_peak_rho(Power::from_milliwatts(0.5), 0.5, a);
        let hi = expected_peak_rho(Power::from_milliwatts(5.0), 0.5, a);
        assert!(hi > lo);
    }

    #[test]
    fn cycles_inverts_zscore() {
        let a = Power::from_milliwatts(1.5);
        let sigma = Power::from_milliwatts(45.0);
        let n = cycles_for_zscore(a, 0.5, sigma, 5.0);
        let rho = expected_peak_rho(a, 0.5, sigma);
        let z = expected_zscore(rho, n);
        assert!((z - 5.0).abs() < 0.05, "z({n}) = {z}");
        assert_eq!(cycles_for_zscore(Power::ZERO, 0.5, sigma, 5.0), usize::MAX);
    }

    #[test]
    fn prediction_matches_the_simulated_pipeline() {
        // A bare-chip quiet-probe experiment: the measured peak must land
        // near the closed-form prediction.
        let mut experiment = Experiment::quick(20_000, 55);
        experiment.chip = ChipModel::Bare;
        let arch = ClockModulationWatermark {
            wgc: WgcConfig::MaxLengthLfsr { width: 8, seed: 1 },
            ..ClockModulationWatermark::paper()
        };
        let outcome = experiment.run(&arch).expect("runs");

        let model = PowerModel::new(EnergyLibrary::tsmc65ll(), experiment.f_clk);
        let amplitude = arch.signal_amplitude(&model);
        let noise = experiment.acquisition.cycle_noise_sigma();
        let predicted = expected_peak_rho(amplitude, 0.5, noise);

        let measured = outcome.detection.peak_rho;
        assert!(
            (measured - predicted).abs() / predicted < 0.15,
            "measured rho {measured:.4} vs predicted {predicted:.4}"
        );
    }

    #[test]
    fn a_disabled_experiment_floor_is_the_null_sigma() {
        // The floor of an unmarked run is ≈ N(0, 1/√N) (Fig. 5b/5d print
        // σ = 0.00183 against 1/√300,000 = 0.001826). The paper's chain
        // and pattern (P = 4095) at a reduced N: over seeds 1–30 on both
        // chips, σ·√N stayed within 3% of 1.
        const N: usize = 20_000;
        for (chip, seed) in [
            (Experiment::paper_chip_i(), 1),
            (Experiment::paper_chip_ii(), 2),
        ] {
            let mut experiment = chip.with_seed(seed).disabled();
            experiment.cycles = N;
            let outcome = experiment
                .run(&ClockModulationWatermark::paper())
                .expect("runs");
            let null_sigma = 1.0 / (N as f64).sqrt();
            let sigma = outcome.spectrum.floor_std();
            assert!(
                (sigma - null_sigma).abs() <= 0.05 * null_sigma,
                "{:?} seed {seed}: floor σ {sigma:.6} vs 1/√N {null_sigma:.6}",
                experiment.chip
            );
        }
    }

    #[test]
    fn paper_scale_cycle_budget_is_consistent() {
        // With the calibrated chain, detecting the 1.51 mW watermark at
        // z = 5 needs well under the paper's 300,000 cycles — the paper's
        // choice carries margin, as Fig. 6's 100/100 repeatability shows.
        let needed = cycles_for_zscore(
            Power::from_milliwatts(1.511),
            0.5,
            Power::from_milliwatts(45.3),
            5.0,
        );
        assert!(needed < 300_000, "needed {needed}");
        assert!(needed > 30_000, "needed {needed}");
    }
}
