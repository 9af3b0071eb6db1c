use clockmark_power::Frequency;
use rand::Rng;

/// Draws one standard-normal sample using the Marsaglia polar method.
///
/// Kept local so the crate needs no distribution dependency; the quality is
/// ample for noise injection.
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let mean: f64 = (0..10_000).map(|_| clockmark_measure::gaussian(&mut rng)).sum::<f64>() / 1e4;
/// assert!(mean.abs() < 0.05);
/// ```
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Normals one [`NormalStream`] refill draws at most, so its scratch stays
/// at a few tens of KiB however long the capture.
pub(crate) const NORMAL_BATCH: usize = 1024;

/// A fixed-length stream of standard normals, drawn in bounded batches.
///
/// The stream consumes the rng exactly as successive [`gaussian`] calls
/// would — the same `(u, v)` pairs in the same order, the same rejections —
/// and never draws past the `total` it was created for, so the normals and
/// the rng state after the last one are bit-identical to the scalar loop.
/// A batch is three passes: a branch-free polar accept loop, `ln` over the
/// accepted `s`, then the IEEE-exact `u·√(−2·ln s / s)`.
pub(crate) struct NormalStream {
    /// Accepted `u` of each pair; after a refill, the finished normals.
    u: Vec<f64>,
    /// Accepted `s = u² + v²` of each pair.
    s: Vec<f64>,
    /// `ln s` of each pair.
    ln_s: Vec<f64>,
    /// Next normal of the current batch to hand out.
    pos: usize,
    /// Normals of the stream not yet drawn from the rng.
    undrawn: usize,
}

impl NormalStream {
    /// A stream of `total` normals; allocates at most [`NORMAL_BATCH`] of
    /// each scratch array.
    pub(crate) fn new(total: usize) -> Self {
        let batch = total.min(NORMAL_BATCH);
        NormalStream {
            u: vec![0.0; batch],
            s: vec![0.0; batch],
            ln_s: vec![0.0; batch],
            pos: batch,
            undrawn: total,
        }
    }

    /// The next normals of the stream as one slice: at most `max`, and at
    /// least one when `max > 0`.
    ///
    /// # Panics
    ///
    /// Panics when asked for more than the stream's `total` normals.
    #[inline]
    pub(crate) fn take<R: Rng + ?Sized>(&mut self, rng: &mut R, max: usize) -> &[f64] {
        if self.pos == self.u.len() && max > 0 {
            self.refill(rng);
        }
        let start = self.pos;
        self.pos += max.min(self.u.len() - start);
        &self.u[start..self.pos]
    }

    #[inline(never)]
    fn refill<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let n = self.undrawn.min(NORMAL_BATCH);
        assert!(n > 0, "normal stream drawn past its length");
        self.u.truncate(n);
        self.s.truncate(n);
        self.ln_s.truncate(n);
        fill_normals(rng, &mut self.u, &mut self.s, &mut self.ln_s);
        self.pos = 0;
        self.undrawn -= n;
    }
}

/// Overwrites `u` with `u.len()` normals drawn exactly as that many
/// successive [`gaussian`] calls would, using `s` and `ln_s` (at least as
/// long) as scratch.
fn fill_normals<R: Rng + ?Sized>(rng: &mut R, u: &mut [f64], s: &mut [f64], ln_s: &mut [f64]) {
    let n = u.len();
    let (s, ln_s) = (&mut s[..n], &mut ln_s[..n]);
    // Every pair is written to the next free slot; a rejected one is
    // overwritten by the pair after it.
    let mut filled = 0;
    while filled < n {
        let a: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let b: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let r = a * a + b * b;
        u[filled] = a;
        s[filled] = r;
        filled += usize::from((r > 0.0) & (r < 1.0));
    }
    for (l, &r) in ln_s.iter_mut().zip(s.iter()) {
        *l = r.ln();
    }
    for ((g, &r), &l) in u.iter_mut().zip(s.iter()).zip(ln_s.iter()) {
        *g *= (-2.0 * l / r).sqrt();
    }
}

/// Deterministic (non-white) disturbances on the measured rail.
///
/// Two components beyond the scope's white noise:
///
/// - a sinusoidal **supply ripple** (voltage-regulator switching residue),
///   which adds a periodic component the CPA floor has to reject, and
/// - a slow random-walk **drift** (thermal / regulator wander) applied per
///   clock cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Peak amplitude of the supply ripple, in volts at the probe.
    pub ripple_amplitude_volts: f64,
    /// Frequency of the supply ripple.
    pub ripple_frequency: Frequency,
    /// Per-cycle standard deviation of the drift random walk, in volts.
    pub drift_volts_per_cycle: f64,
}

impl NoiseModel {
    /// A regulator-like default: 1 mV ripple at 133 kHz plus a slow
    /// sub-microvolt drift.
    pub fn regulator_default() -> Self {
        NoiseModel {
            ripple_amplitude_volts: 1e-3,
            ripple_frequency: Frequency::from_hertz(133_000.0),
            drift_volts_per_cycle: 2e-8,
        }
    }

    /// A noiseless configuration (white scope noise still applies).
    pub fn none() -> Self {
        NoiseModel {
            ripple_amplitude_volts: 0.0,
            ripple_frequency: Frequency::from_hertz(1.0),
            drift_volts_per_cycle: 0.0,
        }
    }

    /// The ripple contribution at absolute time `t` seconds.
    #[inline]
    pub fn ripple_at(&self, t_seconds: f64) -> f64 {
        if self.ripple_amplitude_volts == 0.0 {
            return 0.0;
        }
        self.ripple_amplitude_volts
            * (2.0 * std::f64::consts::PI * self.ripple_frequency.hertz() * t_seconds).sin()
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::regulator_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn gaussian_moments_are_standard_normal() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    /// `len` normals through a [`NormalStream`], taken `chunk` at a
    /// time, and the rng's next word.
    fn streamed(seed: u64, len: usize, chunk: usize) -> (Vec<u64>, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream = NormalStream::new(len);
        let mut normals = Vec::with_capacity(len);
        while normals.len() < len {
            let want = chunk.min(len - normals.len());
            normals.extend(stream.take(&mut rng, want).iter().map(|g| g.to_bits()));
        }
        (normals, rng.next_u64())
    }

    /// `len` successive [`gaussian`] calls, and the rng's next word.
    fn scalar(seed: u64, len: usize) -> (Vec<u64>, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let normals = (0..len).map(|_| gaussian(&mut rng).to_bits()).collect();
        (normals, rng.next_u64())
    }

    proptest! {
        #[test]
        fn batched_normals_equal_successive_gaussian_calls(seed in any::<u64>(), chunk in 1usize..120) {
            let lengths = [0, 1, NORMAL_BATCH - 1, NORMAL_BATCH, NORMAL_BATCH + 1, 3 * NORMAL_BATCH + 7];
            for len in lengths {
                prop_assert_eq!(streamed(seed, len, chunk), scalar(seed, len), "length {}", len);
            }
        }
    }

    #[test]
    fn a_short_stream_allocates_only_what_it_draws() {
        let stream = NormalStream::new(3);
        assert_eq!(stream.u.capacity(), 3);
        let long = NormalStream::new(usize::MAX);
        assert_eq!(long.u.capacity(), NORMAL_BATCH);
    }

    #[test]
    #[should_panic(expected = "drawn past its length")]
    fn drawing_past_the_end_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut stream = NormalStream::new(1);
        assert_eq!(stream.take(&mut rng, 5).len(), 1);
        assert!(stream.take(&mut rng, 0).is_empty());
        stream.take(&mut rng, 1);
    }

    #[test]
    fn ripple_is_periodic_and_bounded() {
        let noise = NoiseModel::regulator_default();
        let period = 1.0 / noise.ripple_frequency.hertz();
        for i in 0..100 {
            let t = i as f64 * 1e-7;
            let v = noise.ripple_at(t);
            assert!(v.abs() <= noise.ripple_amplitude_volts + 1e-15);
            assert!((v - noise.ripple_at(t + period)).abs() < 1e-12);
        }
    }

    #[test]
    fn none_model_is_silent() {
        let noise = NoiseModel::none();
        assert_eq!(noise.ripple_at(0.123), 0.0);
        assert_eq!(noise.drift_volts_per_cycle, 0.0);
    }
}
