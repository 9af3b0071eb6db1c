use clockmark_power::Frequency;

/// A digital storage oscilloscope front end.
///
/// Models the three effects that matter for per-cycle power averaging:
/// sample rate (how many points land in one clock cycle), additive vertical
/// front-end noise, and ADC quantisation.
///
/// ```
/// use clockmark_measure::Oscilloscope;
///
/// let scope = Oscilloscope::mso6032a();
/// assert_eq!(scope.sample_rate.megahertz(), 500.0);
/// assert_eq!(scope.adc_bits, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oscilloscope {
    /// Real-time sample rate (500 MS/s in the paper's setup).
    pub sample_rate: Frequency,
    /// ADC resolution in bits (8 for the MSO6032A).
    pub adc_bits: u32,
    /// Full-scale input range in volts (bipolar: ±`full_scale_volts / 2`
    /// around the configured offset).
    pub full_scale_volts: f64,
    /// RMS of the additive per-sample vertical noise, in volts. This is the
    /// reproduction's calibration knob: it lumps probe noise, board di/dt
    /// ringing and decoupling ripple into one white source.
    pub vertical_noise_volts: f64,
}

impl Oscilloscope {
    /// An Agilent MSO6032A-like configuration as used on the paper's test
    /// board, with the noise knob calibrated for Fig. 5-scale correlation
    /// peaks (see crate docs).
    pub fn mso6032a() -> Self {
        Oscilloscope {
            sample_rate: Frequency::from_megahertz(500.0),
            adc_bits: 8,
            full_scale_volts: 0.8,
            vertical_noise_volts: 72e-3,
        }
    }

    /// Returns a copy with a different noise level (ablation use).
    pub fn with_vertical_noise(mut self, volts_rms: f64) -> Self {
        self.vertical_noise_volts = volts_rms;
        self
    }

    /// Returns a copy with a different ADC resolution (ablation use).
    pub fn with_adc_bits(mut self, bits: u32) -> Self {
        self.adc_bits = bits;
        self
    }

    /// The voltage step of one ADC code.
    pub fn lsb_volts(&self) -> f64 {
        self.full_scale_volts / (1u64 << self.adc_bits) as f64
    }

    /// Quantises a voltage (relative to the configured offset) to the ADC
    /// grid, clipping at the full-scale limits.
    #[inline]
    pub fn quantize(&self, volts: f64) -> f64 {
        let half = self.full_scale_volts / 2.0;
        let clipped = volts.clamp(-half, half);
        let lsb = self.lsb_volts();
        round_half_away(clipped / lsb) * lsb
    }
}

/// Exactly [`f64::round`] (ties away from zero, sign of zero kept) without
/// the libm call, so the quantiser's loop stays inline.
///
/// Below 2⁵² in magnitude, adding and removing 2⁵² rounds to the nearest
/// integer with ties to even — exact, as every integer in that binade is
/// representable — and a tie rounded down is then bumped up. Everything
/// else (integers already, ±∞, NaN) is its own rounding.
#[inline]
fn round_half_away(x: f64) -> f64 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let a = x.abs();
    if a < TWO_52 {
        let even = (a + TWO_52) - TWO_52;
        let rounded = if a - even == 0.5 { even + 1.0 } else { even };
        rounded.copysign(x)
    } else {
        x
    }
}

impl Default for Oscilloscope {
    fn default() -> Self {
        Self::mso6032a()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_scope_takes_50_samples_per_10mhz_cycle() {
        let scope = Oscilloscope::mso6032a();
        let per_cycle = scope.sample_rate.hertz() / Frequency::from_megahertz(10.0).hertz();
        assert_eq!(per_cycle, 50.0);
    }

    #[test]
    fn lsb_matches_bits_and_range() {
        let scope = Oscilloscope::mso6032a();
        assert!((scope.lsb_volts() - 0.8 / 256.0).abs() < 1e-15);
        let hi_res = scope.with_adc_bits(12);
        assert!((hi_res.lsb_volts() - 0.8 / 4096.0).abs() < 1e-15);
    }

    #[test]
    fn quantize_clips_at_full_scale() {
        let scope = Oscilloscope::mso6032a();
        assert_eq!(scope.quantize(10.0), scope.quantize(0.4));
        assert_eq!(scope.quantize(-10.0), scope.quantize(-0.4));
    }

    #[test]
    fn quantize_is_idempotent() {
        let scope = Oscilloscope::mso6032a();
        for v in [-0.3, -0.001, 0.0, 0.017, 0.39] {
            let q = scope.quantize(v);
            assert_eq!(scope.quantize(q), q);
        }
    }

    #[test]
    fn inline_rounding_equals_libm_round_on_edge_cases() {
        const TWO_52: f64 = 4_503_599_627_370_496.0;
        let mut cases = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            -0.49999999999999994,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            TWO_52 - 0.5,
            -(TWO_52 - 0.5),
            TWO_52 - 1.5,
            TWO_52,
            -TWO_52,
            TWO_52 + 1.0,
            2.0 * TWO_52 + 2.0,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        // Every half-integer and its neighbours over a range of binades.
        for i in -4096i64..=4096 {
            let h = i as f64 + 0.5;
            cases.extend([h, h.next_up(), h.next_down(), i as f64]);
        }
        for e in 0..=53 {
            let h = 2f64.powi(e) + 0.5;
            cases.extend([h, -h, h.next_up(), h.next_down()]);
        }
        for x in cases {
            assert_eq!(round_half_away(x).to_bits(), x.round().to_bits(), "{x:e}");
        }
    }

    proptest! {
        #[test]
        fn inline_rounding_equals_libm_round(bits in any::<u64>(), x in -1e6f64..1e6) {
            let y = f64::from_bits(bits);
            prop_assert_eq!(round_half_away(y).to_bits(), y.round().to_bits());
            prop_assert_eq!(round_half_away(x).to_bits(), x.round().to_bits());
        }

        #[test]
        fn quantization_error_is_bounded_by_half_lsb(v in -0.39f64..0.39) {
            let scope = Oscilloscope::mso6032a();
            let q = scope.quantize(v);
            prop_assert!((q - v).abs() <= scope.lsb_volts() / 2.0 + 1e-15);
        }
    }
}
