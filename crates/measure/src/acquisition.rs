use crate::noise::{NormalStream, NORMAL_BATCH};
use crate::{NoiseModel, Oscilloscope, PdnModel, ShuntProbe};
use clockmark_power::{Frequency, Power, PowerTrace};
use rand::Rng;

/// Measured cycles [`Acquisition::acquire_chunks`] hands its sink at a
/// time.
const SINK_CHUNK: usize = 4096;

/// The per-cycle measured vector `Y` of the CPA detector.
///
/// Stored in power-equivalent watts (converted back through the shunt), so
/// detection code can reason in the same units as the simulation. CPA is
/// affine-invariant, so the unit choice does not influence ρ.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeasuredTrace {
    watts: Vec<f64>,
}

impl MeasuredTrace {
    /// The per-cycle power-equivalent values.
    pub fn as_watts(&self) -> &[f64] {
        &self.watts
    }

    /// Number of measured cycles.
    pub fn len(&self) -> usize {
        self.watts.len()
    }

    /// Whether no cycles were measured.
    pub fn is_empty(&self) -> bool {
        self.watts.is_empty()
    }

    /// Converts into a plain [`PowerTrace`].
    pub fn into_power_trace(self) -> PowerTrace {
        PowerTrace::from_watts(self.watts)
    }
}

/// Capture-time desynchronization: what an adversary (or a hostile
/// operating point) does to the *device clock* while the verifier's scope
/// samples on its own, nominal timebase.
///
/// Two effects compose, both deterministic in [`CaptureAttack::seed`]:
///
/// - **Clock jitter** — every device cycle's duration is perturbed by
///   `N(0, jitter_sigma_cycles)` nominal cycles, so the alignment between
///   device cycles and the scope's averaging windows random-walks.
/// - **DVFS scaling** — every `dvfs_dwell_cycles` the device hops to a new
///   frequency drawn uniformly from `±dvfs_scale_span / 2` around nominal,
///   stretching or compressing whole dwell segments of the capture.
///
/// The verifier still bins `samples_per_cycle()` scope samples per
/// *nominal* cycle (it cannot know the device's true timebase — that is
/// the attack), so the measured vector keeps its length while its contents
/// smear across device cycles. [`CaptureAttack::none`] is the exact
/// identity: [`Acquisition::acquire_attacked`] then delegates to
/// [`Acquisition::acquire`] and produces byte-identical output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureAttack {
    /// σ of the per-cycle duration perturbation, in nominal cycles.
    pub jitter_sigma_cycles: f64,
    /// Device cycles between DVFS frequency hops.
    pub dvfs_dwell_cycles: u64,
    /// Full width of the uniform frequency-scale window (0.1 = ±5 %).
    pub dvfs_scale_span: f64,
    /// Seed of the attack's own deterministic draws (independent of the
    /// acquisition rng, so the same physical noise can be captured with
    /// and without the attack).
    pub seed: u64,
}

impl CaptureAttack {
    /// No attack: the identity capture.
    pub fn none() -> Self {
        CaptureAttack {
            jitter_sigma_cycles: 0.0,
            dvfs_dwell_cycles: 1,
            dvfs_scale_span: 0.0,
            seed: 0,
        }
    }

    /// Whether this attack is the exact identity.
    pub fn is_none(&self) -> bool {
        self.jitter_sigma_cycles == 0.0 && self.dvfs_scale_span == 0.0
    }

    /// splitmix64 of `(seed, counter)` — counter-based so the timewarp is
    /// a pure function of the attack spec, never of evaluation order.
    fn hash(&self, counter: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(counter.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn uniform(&self, counter: u64) -> f64 {
        (self.hash(counter) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn gaussian(&self, counter: u64) -> f64 {
        let u1 = self.uniform(counter.wrapping_mul(2)).max(1e-12);
        let u2 = self.uniform(counter.wrapping_mul(2).wrapping_add(1));
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Duration of device cycle `c` in units of the nominal cycle period.
    /// Clamped below so a large jitter draw cannot run time backwards.
    fn cycle_duration(&self, c: u64) -> f64 {
        let segment = c / self.dvfs_dwell_cycles.max(1);
        // Hash streams: even counters feed DVFS, odd feed jitter — the
        // two effects stay independent under a shared seed.
        let scale = 1.0 + self.dvfs_scale_span * (self.uniform(segment.wrapping_mul(2)) - 0.5);
        let jitter = self.jitter_sigma_cycles * self.gaussian(c.wrapping_mul(2).wrapping_add(1));
        (scale + jitter).max(0.05)
    }
}

/// The full acquisition chain: power → shunt voltage → oversampled, noisy,
/// quantised scope samples → per-cycle averages.
///
/// See the [crate documentation](crate) for the model and an example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acquisition {
    /// Shunt/probe conversion.
    pub shunt: ShuntProbe,
    /// Scope front end.
    pub scope: Oscilloscope,
    /// Deterministic disturbances.
    pub noise: NoiseModel,
    /// Power-delivery-network smoothing between die and shunt (defaults to
    /// none; see [`PdnModel`]).
    pub pdn: PdnModel,
    /// Device clock frequency (sets the averaging window).
    pub f_clk: Frequency,
}

impl Acquisition {
    /// The paper's chain: 270 mΩ shunt at 1.2 V, MSO6032A-like scope at
    /// 500 MS/s, regulator-like ripple, at the given device clock.
    pub fn paper_chain(f_clk: Frequency) -> Self {
        Acquisition {
            shunt: ShuntProbe::paper(),
            scope: Oscilloscope::mso6032a(),
            noise: NoiseModel::regulator_default(),
            pdn: PdnModel::none(),
            f_clk,
        }
    }

    /// Scope samples averaged into one cycle value (50 in the paper).
    pub fn samples_per_cycle(&self) -> usize {
        (self.scope.sample_rate.hertz() / self.f_clk.hertz()).round() as usize
    }

    /// Effective white-noise σ of one *cycle-averaged* sample, expressed as
    /// power. Useful for analytic SNR predictions: averaging `k` samples
    /// divides the per-sample σ by √k.
    pub fn cycle_noise_sigma(&self) -> Power {
        let k = self.samples_per_cycle().max(1) as f64;
        let sigma_v = self.scope.vertical_noise_volts / k.sqrt();
        self.shunt.volts_to_power(sigma_v)
    }

    /// Digitises a per-cycle power trace into the measured vector `Y`.
    ///
    /// For each clock cycle the true shunt voltage is held constant (the
    /// simulator already averages within the cycle), `samples_per_cycle()`
    /// scope samples are drawn with ripple, drift and white noise, each is
    /// quantised, and their mean becomes the cycle's measurement. The DC
    /// level is auto-offset to the trace mean so the signal stays inside
    /// the ADC range, exactly like centring the trace on a scope screen.
    pub fn acquire<R: Rng + ?Sized>(&self, power: &PowerTrace, rng: &mut R) -> MeasuredTrace {
        let mut watts = Vec::with_capacity(power.len());
        self.acquire_chunks(power, rng, |chunk| watts.extend_from_slice(chunk));
        MeasuredTrace { watts }
    }

    /// Digitises exactly as [`acquire`](Self::acquire) does, but hands the
    /// measured vector `Y` to `sink` in consecutive chunks of at most a few
    /// thousand cycles instead of collecting it. The chunks concatenate to
    /// `acquire`'s output bit for bit, and the rng ends where `acquire`
    /// leaves it, so a caller that only folds `Y` (a detection session)
    /// never holds a cycle-length copy of it.
    pub fn acquire_chunks<R, S>(&self, power: &PowerTrace, rng: &mut R, sink: S)
    where
        R: Rng + ?Sized,
        S: FnMut(&[f64]),
    {
        let _span = clockmark_obs::span("measure.acquire")
            .field("cycles", power.len())
            .field("samples_per_cycle", self.samples_per_cycle().max(1));
        self.digitise(power, rng, |cycle, _| cycle, sink);
    }

    /// Digitises a per-cycle power trace while the device clock is under a
    /// capture-time desynchronization attack.
    ///
    /// The scope keeps its nominal timebase — `samples_per_cycle()`
    /// samples are still averaged into each *nominal* cycle bin — but the
    /// device's cycles last `CaptureAttack::cycle_duration` nominal
    /// periods each, so a scope sample at time `t` reads whichever device
    /// cycle is actually live at `t`. Drift still advances once per
    /// nominal cycle and white noise once per sample, so the rng draw
    /// count matches [`Acquisition::acquire`] exactly; with
    /// [`CaptureAttack::none`] this method delegates to `acquire` and is
    /// byte-identical to it.
    pub fn acquire_attacked<R: Rng + ?Sized>(
        &self,
        power: &PowerTrace,
        attack: &CaptureAttack,
        rng: &mut R,
    ) -> MeasuredTrace {
        if attack.is_none() {
            return self.acquire(power, rng);
        }
        let _span = clockmark_obs::span("measure.acquire_attacked")
            .field("cycles", power.len())
            .field("samples_per_cycle", self.samples_per_cycle().max(1));
        let t_cycle = self.f_clk.period_seconds();
        // Two-pointer walk over the device's warped timebase: `dev_end`
        // is when (in nominal seconds) device cycle `dev` finishes.
        let mut dev: usize = 0;
        let mut dev_end = t_cycle * attack.cycle_duration(0);
        let last = power.len().saturating_sub(1);
        let mut watts = Vec::with_capacity(power.len());
        self.digitise(
            power,
            rng,
            move |_, t| {
                while t >= dev_end && dev < last {
                    dev += 1;
                    dev_end += t_cycle * attack.cycle_duration(dev as u64);
                }
                dev
            },
            |chunk| watts.extend_from_slice(chunk),
        );
        MeasuredTrace { watts }
    }

    /// The sampling kernel both captures share. Every nominal cycle takes
    /// one drift draw, then `samples_per_cycle()` scope samples: the die
    /// voltage of device cycle `device_cycle(cycle, t)` at sample time
    /// `t`, smoothed by the PDN, plus drift, ripple and white noise, each
    /// quantised; their mean is the cycle's value. The rng is consumed as
    /// one fixed stream of normals (drift, then the cycle's samples), so
    /// both captures draw exactly the same count. The cycle values go to
    /// `sink` in order, [`SINK_CHUNK`] at a time (the last chunk shorter).
    fn digitise<R, D, S>(&self, power: &PowerTrace, rng: &mut R, mut device_cycle: D, mut sink: S)
    where
        R: Rng + ?Sized,
        D: FnMut(usize, f64) -> usize,
        S: FnMut(&[f64]),
    {
        let cycles = power.len();
        let k = self.samples_per_cycle().max(1);
        let dt = 1.0 / self.scope.sample_rate.hertz();
        let t_cycle = self.f_clk.period_seconds();
        let shunt = self.shunt;
        let dc_offset = shunt.power_to_volts(power.mean());
        let die_volts = |watts: f64| shunt.power_to_volts(Power::from_watts(watts)) - dc_offset;

        // Local copies, so the compiler sees their derived constants (2πf,
        // half-scale, LSB) as loop invariants and hoists them.
        let (scope, noise, pdn) = (self.scope, self.noise, self.pdn);
        let pdn_alpha = pdn.alpha(dt);

        let power = power.as_watts();
        let mut chunk = Vec::with_capacity(cycles.min(SINK_CHUNK));
        let mut normals = NormalStream::new(cycles.saturating_mul(k.saturating_add(1)));
        let mut drift = 0.0f64;
        // PDN state: board voltage tracking the die voltage with a
        // single-pole lag that persists across cycle boundaries.
        let mut pdn_state = power.first().map_or(0.0, |&w| die_volts(w));
        // The device cycle whose die voltage `v_true` holds.
        let mut live = usize::MAX;
        let mut v_true = 0.0f64;
        // Ripple of a run of samples, computed ahead of the accumulation so
        // the libm `sin` calls run back to back.
        let mut ripple = vec![0.0f64; k.min(NORMAL_BATCH)];
        for cycle in 0..cycles {
            drift += normals.take(rng, 1)[0] * noise.drift_volts_per_cycle;
            let t0 = cycle as f64 * t_cycle;
            let mut acc = 0.0f64;
            let mut s = 0;
            while s < k {
                // The cycle's samples, in runs of whatever the current
                // batch of normals still holds.
                let white = normals.take(rng, k - s);
                let ripple = &mut ripple[..white.len()];
                for (i, r) in ripple.iter_mut().enumerate() {
                    *r = noise.ripple_at(t0 + (s + i) as f64 * dt);
                }
                for (i, (&g, &r)) in white.iter().zip(ripple.iter()).enumerate() {
                    let t = t0 + (s + i) as f64 * dt;
                    let dev = device_cycle(cycle, t);
                    if dev != live {
                        live = dev;
                        v_true = die_volts(power[dev]);
                    }
                    let v_board = if pdn.is_active() {
                        pdn_state += pdn_alpha * (v_true - pdn_state);
                        pdn_state
                    } else {
                        v_true
                    };
                    let v = v_board + drift + r + g * scope.vertical_noise_volts;
                    acc += scope.quantize(v);
                }
                s += white.len();
            }
            let v_avg = acc / k as f64 + dc_offset;
            chunk.push(shunt.volts_to_power(v_avg).watts());
            if chunk.len() == SINK_CHUNK {
                sink(&chunk);
                chunk.clear();
            }
        }
        if !chunk.is_empty() {
            sink(&chunk);
        }
        clockmark_obs::counter_add("measure.cycles", cycles as u64);
        clockmark_obs::counter_add("measure.samples", cycles.saturating_mul(k) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain() -> Acquisition {
        Acquisition::paper_chain(Frequency::from_megahertz(10.0))
    }

    #[test]
    fn fifty_samples_per_cycle_at_paper_settings() {
        assert_eq!(chain().samples_per_cycle(), 50);
    }

    #[test]
    fn acquisition_preserves_length_and_mean() {
        let power = PowerTrace::constant(Power::from_milliwatts(5.0), 20_000);
        let mut rng = StdRng::seed_from_u64(11);
        let y = chain().acquire(&power, &mut rng);
        assert_eq!(y.len(), 20_000);
        // The calibrated chain noise is ~45 mW per averaged cycle, so the
        // 20k-cycle mean has σ ≈ 0.32 mW.
        let mean = y.as_watts().iter().sum::<f64>() / y.len() as f64;
        assert!(
            (mean - 5e-3).abs() < 1.2e-3,
            "mean {mean} should be near 5 mW"
        );
    }

    #[test]
    fn averaging_reduces_noise_by_sqrt_k() {
        // Empirical σ of the cycle-averaged trace should be close to the
        // per-sample σ divided by √50 (drift/ripple/quantisation add a bit).
        let power = PowerTrace::constant(Power::from_milliwatts(5.0), 4000);
        let mut acq = chain();
        acq.noise = NoiseModel::none();
        let mut rng = StdRng::seed_from_u64(12);
        let y = acq.acquire(&power, &mut rng);
        let mean = y.as_watts().iter().sum::<f64>() / y.len() as f64;
        let sigma = (y
            .as_watts()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / y.len() as f64)
            .sqrt();
        let predicted = acq.cycle_noise_sigma().watts();
        assert!(
            (sigma - predicted).abs() / predicted < 0.15,
            "sigma {sigma:.3e} vs predicted {predicted:.3e}"
        );
    }

    #[test]
    fn acquisition_is_deterministic_per_seed() {
        let power = PowerTrace::constant(Power::from_milliwatts(3.0), 100);
        let a = chain().acquire(&power, &mut StdRng::seed_from_u64(5));
        let b = chain().acquire(&power, &mut StdRng::seed_from_u64(5));
        let c = chain().acquire(&power, &mut StdRng::seed_from_u64(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn watermark_amplitude_survives_the_chain() {
        // A square-wave power signal must still be visible (in the mean
        // difference sense) after digitisation.
        let hi = Power::from_milliwatts(6.5);
        let lo = Power::from_milliwatts(5.0);
        let power: PowerTrace = (0..100_000)
            .map(|i| if i % 2 == 0 { hi } else { lo })
            .collect();
        let mut rng = StdRng::seed_from_u64(13);
        let y = chain().acquire(&power, &mut rng);

        let (mut sum_hi, mut sum_lo) = (0.0, 0.0);
        for (i, v) in y.as_watts().iter().enumerate() {
            if i % 2 == 0 {
                sum_hi += v;
            } else {
                sum_lo += v;
            }
        }
        let delta = (sum_hi - sum_lo) / (y.len() / 2) as f64;
        // The calibrated front-end noise is ~45 mW per averaged cycle, so
        // the mean-difference estimator over 50k cycle pairs has σ ≈ 0.3 mW.
        assert!(
            (delta - 1.5e-3).abs() < 1.0e-3,
            "recovered amplitude {delta:.3e} should be near 1.5 mW"
        );
    }

    #[test]
    fn pdn_filtering_attenuates_the_recovered_square_wave() {
        use crate::PdnModel;
        let hi = Power::from_milliwatts(6.5);
        let lo = Power::from_milliwatts(5.0);
        let power: PowerTrace = (0..60_000)
            .map(|i| if i % 2 == 0 { hi } else { lo })
            .collect();

        let mut ideal = chain();
        ideal.noise = NoiseModel::none();
        ideal.scope = ideal.scope.with_vertical_noise(1e-3);
        let mut filtered = ideal;
        filtered.pdn = PdnModel {
            time_constant_s: 25e-9,
        };

        let swing = |acq: &Acquisition, seed: u64| {
            let y = acq.acquire(&power, &mut StdRng::seed_from_u64(seed));
            let (mut s_hi, mut s_lo) = (0.0, 0.0);
            for (i, v) in y.as_watts().iter().enumerate() {
                if i % 2 == 0 {
                    s_hi += v;
                } else {
                    s_lo += v;
                }
            }
            (s_hi - s_lo) / (y.len() / 2) as f64
        };

        let ideal_swing = swing(&ideal, 21);
        let filtered_swing = swing(&filtered, 21);
        let measured_attenuation = filtered_swing / ideal_swing;
        let predicted = filtered.pdn.square_wave_attenuation(filtered.f_clk);
        assert!(
            (measured_attenuation - predicted).abs() < 0.05,
            "attenuation {measured_attenuation:.3} vs analytic {predicted:.3}"
        );
    }

    #[test]
    fn empty_trace_acquires_empty() {
        let y = chain().acquire(&PowerTrace::new(), &mut StdRng::seed_from_u64(1));
        assert!(y.is_empty());
        assert_eq!(y.into_power_trace().len(), 0);
    }

    #[test]
    fn chunked_capture_concatenates_to_acquire() {
        use rand::RngCore;
        for cycles in [0, 1, SINK_CHUNK, 2 * SINK_CHUNK + 17] {
            let power = square_wave(cycles);
            let mut whole_rng = StdRng::seed_from_u64(51);
            let whole = chain().acquire(&power, &mut whole_rng);
            let mut chunked_rng = StdRng::seed_from_u64(51);
            let mut chunks = Vec::new();
            chain().acquire_chunks(&power, &mut chunked_rng, |chunk| {
                chunks.push(chunk.to_vec())
            });
            assert!(
                chunks.iter().all(|c| (1..=SINK_CHUNK).contains(&c.len())),
                "{cycles} cycles"
            );
            let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&chunks.concat()), bits(whole.as_watts()), "{cycles}");
            assert_eq!(whole_rng.next_u64(), chunked_rng.next_u64(), "{cycles}");
        }
    }

    #[test]
    fn a_tiny_clock_does_not_size_buffers_by_samples_per_cycle() {
        // 5·10¹¹ samples per cycle: any buffer sized by it would abort.
        let mut acq = chain();
        acq.f_clk = Frequency::from_hertz(1e-3);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(acq.acquire(&PowerTrace::new(), &mut rng).is_empty());
        let attack = CaptureAttack {
            jitter_sigma_cycles: 0.1,
            ..CaptureAttack::none()
        };
        assert!(acq
            .acquire_attacked(&PowerTrace::new(), &attack, &mut rng)
            .is_empty());
    }

    /// A period-2 square wave for desynchronization tests: any whole-cycle
    /// slip flips its polarity, so the recovered swing is a direct
    /// alignment meter.
    fn square_wave(cycles: usize) -> PowerTrace {
        let hi = Power::from_milliwatts(6.5);
        let lo = Power::from_milliwatts(5.0);
        (0..cycles)
            .map(|i| if i % 2 == 0 { hi } else { lo })
            .collect()
    }

    fn recovered_swing(y: &MeasuredTrace) -> f64 {
        let (mut s_hi, mut s_lo) = (0.0, 0.0);
        for (i, v) in y.as_watts().iter().enumerate() {
            if i % 2 == 0 {
                s_hi += v;
            } else {
                s_lo += v;
            }
        }
        (s_hi - s_lo) / (y.len() / 2) as f64
    }

    #[test]
    fn no_attack_capture_is_byte_identical_to_acquire() {
        let power = square_wave(2_000);
        let plain = chain().acquire(&power, &mut StdRng::seed_from_u64(31));
        let attacked = chain().acquire_attacked(
            &power,
            &CaptureAttack::none(),
            &mut StdRng::seed_from_u64(31),
        );
        let bits =
            |y: &MeasuredTrace| -> Vec<u64> { y.as_watts().iter().map(|w| w.to_bits()).collect() };
        assert_eq!(bits(&plain), bits(&attacked));
    }

    #[test]
    fn attacked_capture_is_deterministic_per_seed_pair() {
        let power = square_wave(1_000);
        let attack = CaptureAttack {
            jitter_sigma_cycles: 0.2,
            dvfs_dwell_cycles: 64,
            dvfs_scale_span: 0.1,
            seed: 5,
        };
        let a = chain().acquire_attacked(&power, &attack, &mut StdRng::seed_from_u64(7));
        let b = chain().acquire_attacked(&power, &attack, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let other_rng = chain().acquire_attacked(&power, &attack, &mut StdRng::seed_from_u64(8));
        assert_ne!(a, other_rng);
        let other_attack = chain().acquire_attacked(
            &power,
            &CaptureAttack { seed: 6, ..attack },
            &mut StdRng::seed_from_u64(7),
        );
        assert_ne!(a, other_attack);
        assert_eq!(a.len(), power.len(), "attack preserves nominal length");
    }

    #[test]
    fn dvfs_scaling_destroys_alignment_with_the_nominal_timebase() {
        // Quiet front end so the swing measures alignment, not noise.
        let mut acq = chain();
        acq.noise = NoiseModel::none();
        acq.scope = acq.scope.with_vertical_noise(1e-3);
        let power = square_wave(40_000);

        let clean = acq.acquire(&power, &mut StdRng::seed_from_u64(41));
        let attack = CaptureAttack {
            jitter_sigma_cycles: 0.0,
            dvfs_dwell_cycles: 512,
            dvfs_scale_span: 0.2,
            seed: 9,
        };
        let warped = acq.acquire_attacked(&power, &attack, &mut StdRng::seed_from_u64(41));

        let clean_swing = recovered_swing(&clean);
        let warped_swing = recovered_swing(&warped);
        assert!(clean_swing > 1.0e-3, "clean swing {clean_swing:.3e}");
        assert!(
            warped_swing.abs() < 0.5 * clean_swing,
            "DVFS smears the recovered swing ({clean_swing:.3e} -> {warped_swing:.3e})"
        );
    }

    #[test]
    fn jitter_random_walk_degrades_alignment() {
        let mut acq = chain();
        acq.noise = NoiseModel::none();
        acq.scope = acq.scope.with_vertical_noise(1e-3);
        let power = square_wave(40_000);

        let clean = acq.acquire(&power, &mut StdRng::seed_from_u64(43));
        let attack = CaptureAttack {
            jitter_sigma_cycles: 0.05,
            dvfs_dwell_cycles: 1,
            dvfs_scale_span: 0.0,
            seed: 3,
        };
        let jittered = acq.acquire_attacked(&power, &attack, &mut StdRng::seed_from_u64(43));
        let clean_swing = recovered_swing(&clean);
        let jittered_swing = recovered_swing(&jittered);
        assert!(
            jittered_swing.abs() < 0.5 * clean_swing,
            "jitter walks off the timebase ({clean_swing:.3e} -> {jittered_swing:.3e})"
        );
    }
}
