//! Deterministic trace-level attack transforms.
//!
//! Every adversary here is a pure function of `(spec, seed, input)`: all
//! randomness is *counter-based* — a splitmix64-style hash of the seed and
//! a draw index — never a stateful generator. That is what makes scenario
//! campaigns resumable byte-for-byte: a killed job restarts from scratch
//! and replays the exact same attack, because nothing about the adversary
//! depends on how far the previous run got.

use super::spec::AttackSpec;

/// Mixes a root seed with a counter (job index, cycle index, draw index)
/// into an independent 64-bit stream value. splitmix64 finaliser — the
/// same construction the corpus builder uses for per-trace seeds.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from `(seed, counter)`.
fn hash_uniform(seed: u64, counter: u64) -> f64 {
    // 53 mantissa bits of the hash → exactly representable in [0, 1).
    (mix_seed(seed, counter) >> 11) as f64 / (1u64 << 53) as f64
}

/// A standard-normal draw from `(seed, counter)`, via Box–Muller over two
/// counter-hashed uniforms. Counter `i` and `i + 1` are *not* independent
/// draws of this function — callers must space counters by at least 2 or
/// derive a fresh seed per draw (the transforms below use disjoint
/// sub-seeds per purpose, so a plain running counter is safe within each).
pub fn hash_gaussian(seed: u64, counter: u64) -> f64 {
    let u1 = hash_uniform(seed, counter.wrapping_mul(2));
    let u2 = hash_uniform(seed, counter.wrapping_mul(2).wrapping_add(1));
    // Clamp away from 0 so ln() stays finite.
    let u1 = u1.max(1e-12);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Everything an attack transform may condition on besides its own spec:
/// the per-job seed and the (public) watermark pattern the adversary is
/// assumed to know — the paper's m-sequence is not a secret, only its
/// presence and phase are what detection establishes.
#[derive(Debug, Clone, Copy)]
pub struct AttackContext<'a> {
    /// Per-job seed (already counter-mixed from the scenario root seed).
    pub seed: u64,
    /// One period of the campaign's watermark pattern.
    pub pattern: &'a [bool],
}

/// A deterministic trace transform: the adversary's intervention between
/// the device and the verifier.
///
/// Implementations must be pure in `(self, ctx, samples)` — byte-identical
/// output for byte-identical input — which the scenario determinism
/// proptest enforces for every [`AttackSpec`] variant.
pub trait Attack: Send + Sync {
    /// The serializable spec this transform was built from.
    fn spec(&self) -> AttackSpec;

    /// Transforms the captured per-cycle power samples in place.
    fn apply(&self, ctx: &AttackContext<'_>, samples: &mut Vec<f64>);
}

impl AttackSpec {
    /// Builds the deterministic transform this spec describes.
    pub fn build(&self) -> Box<dyn Attack> {
        match self.clone() {
            AttackSpec::None => Box::new(IdentityAttack),
            AttackSpec::ClockJitter { sigma_cycles } => {
                Box::new(ClockJitterAttack { sigma_cycles })
            }
            AttackSpec::Dvfs {
                dwell_cycles,
                max_shift,
            } => Box::new(DvfsAttack {
                dwell_cycles,
                max_shift,
            }),
            AttackSpec::GateDisable {
                fraction,
                estimate_cycles,
            } => Box::new(GateDisableAttack {
                fraction,
                estimate_cycles,
            }),
            AttackSpec::Jamming { amplitude_watts } => Box::new(JammingAttack { amplitude_watts }),
            AttackSpec::Replay {
                estimate_cycles,
                noise_watts,
            } => Box::new(ReplayAttack {
                estimate_cycles,
                noise_watts,
            }),
        }
    }
}

/// The no-op adversary — the identity cell's attack.
struct IdentityAttack;

impl Attack for IdentityAttack {
    fn spec(&self) -> AttackSpec {
        AttackSpec::None
    }

    fn apply(&self, _ctx: &AttackContext<'_>, _samples: &mut Vec<f64>) {}
}

/// Estimates the mean of `samples[..limit]` (0.0 when empty).
fn mean_of(samples: &[f64], limit: usize) -> f64 {
    let head = &samples[..limit.min(samples.len())];
    if head.is_empty() {
        return 0.0;
    }
    head.iter().sum::<f64>() / head.len() as f64
}

/// The residues `(start + i) % period` for `i = 0, 1, 2, …`: one division
/// up front, then a wrapping increment per step. The per-sample loops of
/// the attacks and of the scenario defenses index their pattern or
/// profile with it instead of dividing per sample.
pub(crate) fn residues(start: usize, period: usize) -> impl Iterator<Item = usize> {
    let mut r = start % period;
    std::iter::repeat_with(move || {
        let out = r;
        r += 1;
        if r == period {
            r = 0;
        }
        out
    })
}

/// Averages the first `limit` samples into a per-residue (mod `period`)
/// profile — the adversary's estimate of one watermark period.
fn residue_profile(samples: &[f64], period: usize, limit: usize) -> Vec<f64> {
    let mut sums = vec![0.0f64; period];
    let mut counts = vec![0u64; period];
    for (&w, r) in samples.iter().take(limit).zip(residues(0, period)) {
        sums[r] += w;
        counts[r] += 1;
    }
    for (s, &c) in sums.iter_mut().zip(&counts) {
        if c > 0 {
            *s /= c as f64;
        }
    }
    sums
}

/// Capture-clock jitter: sample `i` is displaced backwards by
/// `round(|N(0, σ)|)` cycles, independently hashed per cycle.
struct ClockJitterAttack {
    sigma_cycles: f64,
}

impl Attack for ClockJitterAttack {
    fn spec(&self) -> AttackSpec {
        AttackSpec::ClockJitter {
            sigma_cycles: self.sigma_cycles,
        }
    }

    fn apply(&self, ctx: &AttackContext<'_>, samples: &mut Vec<f64>) {
        if self.sigma_cycles == 0.0 || samples.is_empty() {
            return;
        }
        let seed = mix_seed(ctx.seed, 0x4a49_5454); // "JITT" sub-stream
        let src = samples.clone();
        for (i, out) in samples.iter_mut().enumerate() {
            let d = (hash_gaussian(seed, i as u64).abs() * self.sigma_cycles).round() as usize;
            *out = src[i - d.min(i)];
        }
    }
}

/// DVFS hopping: each `dwell_cycles`-long segment of the capture reads the
/// trace at a per-segment phase offset drawn from `0..=max_shift`.
struct DvfsAttack {
    dwell_cycles: u64,
    max_shift: u64,
}

impl Attack for DvfsAttack {
    fn spec(&self) -> AttackSpec {
        AttackSpec::Dvfs {
            dwell_cycles: self.dwell_cycles,
            max_shift: self.max_shift,
        }
    }

    fn apply(&self, ctx: &AttackContext<'_>, samples: &mut Vec<f64>) {
        if self.max_shift == 0 || samples.is_empty() {
            return;
        }
        let seed = mix_seed(ctx.seed, 0x4456_4653); // "DVFS" sub-stream
        let dwell = self.dwell_cycles.max(1) as usize;
        let src = samples.clone();
        for (i, out) in samples.iter_mut().enumerate() {
            let segment = (i / dwell) as u64;
            let shift = (mix_seed(seed, segment) % (self.max_shift + 1)) as usize;
            *out = src[i - shift.min(i)];
        }
    }
}

/// Informed gate disabling at trace level: the adversary estimates the
/// per-residue modulation profile from the head of the capture and
/// subtracts `fraction` of it — the power-trace effect of turning off that
/// fraction of the modulated ICGs (the structural half lives in
/// [`gate_disable_plan`](super::gate_disable_plan)).
struct GateDisableAttack {
    fraction: f64,
    estimate_cycles: u64,
}

impl Attack for GateDisableAttack {
    fn spec(&self) -> AttackSpec {
        AttackSpec::GateDisable {
            fraction: self.fraction,
            estimate_cycles: self.estimate_cycles,
        }
    }

    fn apply(&self, ctx: &AttackContext<'_>, samples: &mut Vec<f64>) {
        let period = ctx.pattern.len();
        if period == 0 || self.fraction == 0.0 || samples.is_empty() {
            return;
        }
        let limit = (self.estimate_cycles as usize).min(samples.len());
        let profile = residue_profile(samples, period, limit);
        let mu = profile.iter().sum::<f64>() / period as f64;
        for (out, r) in samples.iter_mut().zip(residues(0, period)) {
            *out -= self.fraction * (profile[r] - mu);
        }
    }
}

/// Spectrum jamming: injects a phase-shifted copy of the public pattern.
/// The decoy raises a second rotational peak in exactly the band the
/// detector inspects, collapsing the peak-to-floor ratio criterion.
struct JammingAttack {
    amplitude_watts: f64,
}

impl Attack for JammingAttack {
    fn spec(&self) -> AttackSpec {
        AttackSpec::Jamming {
            amplitude_watts: self.amplitude_watts,
        }
    }

    fn apply(&self, ctx: &AttackContext<'_>, samples: &mut Vec<f64>) {
        let period = ctx.pattern.len();
        if period == 0 || self.amplitude_watts == 0.0 {
            return;
        }
        let seed = mix_seed(ctx.seed, 0x4a41_4d21); // "JAM!" sub-stream
                                                    // A decoy at the true phase would *reinforce* the watermark; pick
                                                    // a guaranteed-distinct rotation when the period allows one.
        let phase = if period > 1 {
            1 + (mix_seed(seed, 0) % (period as u64 - 1)) as usize
        } else {
            0
        };
        for (out, r) in samples.iter_mut().zip(residues(phase, period)) {
            if ctx.pattern[r] {
                *out += self.amplitude_watts;
            }
        }
    }
}

/// Replay/forgery: the adversary averages the head of the capture into a
/// mean + per-residue profile (the smart-grid sequence-estimation step)
/// and presents a fully synthetic trace in its place. The forgery carries
/// the watermark — at the *estimated, frozen* phase — so plain detection
/// accepts it; challenge-response defenses catch the phase that never
/// answers the commanded hop.
struct ReplayAttack {
    estimate_cycles: u64,
    noise_watts: f64,
}

impl Attack for ReplayAttack {
    fn spec(&self) -> AttackSpec {
        AttackSpec::Replay {
            estimate_cycles: self.estimate_cycles,
            noise_watts: self.noise_watts,
        }
    }

    fn apply(&self, ctx: &AttackContext<'_>, samples: &mut Vec<f64>) {
        let period = ctx.pattern.len().max(1);
        if samples.is_empty() {
            return;
        }
        let seed = mix_seed(ctx.seed, 0x5250_4c59); // "RPLY" sub-stream
        let limit = (self.estimate_cycles as usize).min(samples.len());
        let mu = mean_of(samples, limit);
        let profile = residue_profile(samples, period, limit);
        let profile_mu = profile.iter().sum::<f64>() / period as f64;
        for ((i, out), r) in samples.iter_mut().enumerate().zip(residues(0, period)) {
            let wm = profile[r] - profile_mu;
            *out = mu + wm + self.noise_watts * hash_gaussian(seed, i as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern() -> Vec<bool> {
        // One period of the 6-bit maximal LFSR used across campaign tests.
        use clockmark_seq::{Lfsr, SequenceGenerator};
        let mut lfsr = Lfsr::maximal(6).expect("width 6");
        (0..lfsr.period_hint().expect("maximal LFSR period"))
            .map(|_| lfsr.next_bit())
            .collect()
    }

    /// A marked trace: pattern at `phase`, amplitude `amp`, hash noise.
    fn marked_trace(
        pattern: &[bool],
        cycles: usize,
        phase: usize,
        amp: f64,
        seed: u64,
    ) -> Vec<f64> {
        (0..cycles)
            .map(|i| {
                let bit = pattern[(i + phase) % pattern.len()];
                let base = if bit { amp } else { 0.0 };
                1.0 + base + 0.01 * hash_gaussian(seed, i as u64)
            })
            .collect()
    }

    /// Pearson correlation of a trace against the pattern at a rotation.
    fn rho_at(pattern: &[bool], trace: &[f64], rotation: usize) -> f64 {
        let p = pattern.len();
        let xs: Vec<f64> = (0..trace.len())
            .map(|i| {
                if pattern[(i + rotation) % p] {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let n = trace.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = trace.iter().sum::<f64>() / n;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        for (x, y) in xs.iter().zip(trace) {
            sxy += (x - mx) * (y - my);
            sxx += (x - mx) * (x - mx);
            syy += (y - my) * (y - my);
        }
        sxy / (sxx.sqrt() * syy.sqrt()).max(1e-30)
    }

    #[test]
    fn mix_seed_is_stable_and_spreads() {
        assert_eq!(mix_seed(1, 0), mix_seed(1, 0));
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
    }

    #[test]
    fn hash_gaussian_is_roughly_standard_normal() {
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|i| hash_gaussian(7, i)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn every_attack_is_deterministic_and_length_preserving() {
        let pattern = pattern();
        let ctx = AttackContext {
            seed: 42,
            pattern: &pattern,
        };
        let input = marked_trace(&pattern, 4_096, 5, 0.3, 9);
        for spec in AttackSpec::all_defaults() {
            let attack = spec.build();
            let mut a = input.clone();
            let mut b = input.clone();
            attack.apply(&ctx, &mut a);
            attack.apply(&ctx, &mut b);
            assert_eq!(a.len(), input.len(), "{spec:?} changed length");
            let bits_a: Vec<u64> = a.iter().map(|w| w.to_bits()).collect();
            let bits_b: Vec<u64> = b.iter().map(|w| w.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "{spec:?} is not deterministic");
            assert_eq!(attack.spec(), spec, "{spec:?} round-trips through build");
        }
    }

    #[test]
    fn identity_and_zero_strength_attacks_leave_samples_untouched() {
        let pattern = pattern();
        let ctx = AttackContext {
            seed: 3,
            pattern: &pattern,
        };
        let input = marked_trace(&pattern, 1_024, 0, 0.3, 1);
        for spec in [
            AttackSpec::None,
            AttackSpec::ClockJitter { sigma_cycles: 0.0 },
            AttackSpec::Jamming {
                amplitude_watts: 0.0,
            },
            AttackSpec::GateDisable {
                fraction: 0.0,
                estimate_cycles: 512,
            },
        ] {
            let mut out = input.clone();
            spec.build().apply(&ctx, &mut out);
            assert_eq!(
                out.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                input.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                "{spec:?} should be a no-op"
            );
        }
    }

    #[test]
    fn gate_disable_strips_the_modulation_profile() {
        let pattern = pattern();
        let ctx = AttackContext {
            seed: 11,
            pattern: &pattern,
        };
        let mut trace = marked_trace(&pattern, 63 * 64, 0, 0.5, 4);
        let before = rho_at(&pattern, &trace, 0);
        AttackSpec::GateDisable {
            fraction: 1.0,
            estimate_cycles: u64::MAX,
        }
        .build()
        .apply(&ctx, &mut trace);
        let after = rho_at(&pattern, &trace, 0);
        assert!(before > 0.9, "marked trace correlates ({before})");
        assert!(
            after.abs() < 0.1,
            "full disable kills correlation ({after})"
        );
    }

    #[test]
    fn jamming_raises_a_decoy_peak_at_another_rotation() {
        let pattern = pattern();
        let ctx = AttackContext {
            seed: 21,
            pattern: &pattern,
        };
        let mut trace = marked_trace(&pattern, 63 * 64, 0, 0.3, 8);
        AttackSpec::Jamming {
            amplitude_watts: 0.3,
        }
        .build()
        .apply(&ctx, &mut trace);
        let true_peak = rho_at(&pattern, &trace, 0);
        let decoy = (1..pattern.len())
            .map(|r| rho_at(&pattern, &trace, r))
            .fold(f64::MIN, f64::max);
        assert!(true_peak > 0.3, "watermark still present ({true_peak})");
        assert!(
            decoy > 0.5 * true_peak,
            "decoy peak rivals the true one (decoy {decoy}, true {true_peak})"
        );
    }

    #[test]
    fn replay_carries_the_estimated_watermark_at_a_frozen_phase() {
        let pattern = pattern();
        let ctx = AttackContext {
            seed: 31,
            pattern: &pattern,
        };
        let mut trace = marked_trace(&pattern, 63 * 128, 9, 0.4, 2);
        AttackSpec::Replay {
            estimate_cycles: 63 * 64,
            noise_watts: 0.01,
        }
        .build()
        .apply(&ctx, &mut trace);
        // The forgery still "detects" at the original phase — that is the
        // point of the attack (and why challenge-response is needed).
        let rho = rho_at(&pattern, &trace, 9);
        assert!(rho > 0.8, "forged trace carries the watermark ({rho})");
    }

    #[test]
    fn jitter_smears_correlation_without_destroying_power() {
        let pattern = pattern();
        let ctx = AttackContext {
            seed: 17,
            pattern: &pattern,
        };
        let clean = marked_trace(&pattern, 63 * 64, 0, 0.4, 6);
        let mut attacked = clean.clone();
        AttackSpec::ClockJitter { sigma_cycles: 8.0 }
            .build()
            .apply(&ctx, &mut attacked);
        let before = rho_at(&pattern, &clean, 0);
        let after = rho_at(&pattern, &attacked, 0);
        assert!(
            after < 0.7 * before,
            "jitter degrades alignment ({before} -> {after})"
        );
        let mean_clean = clean.iter().sum::<f64>() / clean.len() as f64;
        let mean_attacked = attacked.iter().sum::<f64>() / attacked.len() as f64;
        assert!(
            (mean_clean - mean_attacked).abs() < 0.05,
            "jitter only re-times samples"
        );
    }
}
