use crate::{Complex64, DspError, FftPlan};

/// Many-pattern circular cross-correlation against one cached signal
/// transform — the batched dual of [`CircularCorrelator`](crate::CircularCorrelator).
///
/// [`CircularCorrelator`](crate::CircularCorrelator) caches the
/// *reference* (pattern) transform and streams signal pairs past it; the
/// identification workload is the transpose: one trace, many candidate
/// patterns. `MultiCorrelator` caches `Z = DFT(a + i·b)` for a signal
/// pair `(a, b)` once via [`set_signals`](Self::set_signals) and then
/// correlates any number of patterns against it with
/// [`correlate_one`](Self::correlate_one): one forward + one inverse FFT
/// per pattern, with outputs **bit-identical** to
/// `CircularCorrelator::correlate_dual` with that pattern as the
/// reference — the elementwise product `X ⊙ conj(Z)` and the inverse
/// transform see exactly the same operand bits, so downstream byte-
/// stability contracts survive the batching.
///
/// ```
/// use clockmark_dsp::MultiCorrelator;
///
/// let mut multi = MultiCorrelator::new(4)?;
/// multi.set_signals(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0, 0.0, 0.0])?;
/// let (mut f, mut g) = ([0.0; 4], [0.0; 4]);
/// multi.correlate_one(&[1.0, 0.0, 1.0, 0.0], &mut f, &mut g)?;
/// // f[0] = a[0] + a[2] = 4, f[1] = a[3] + a[1] = 6
/// assert!((f[0] - 4.0).abs() < 1e-12 && (f[1] - 6.0).abs() < 1e-12);
/// # Ok::<(), clockmark_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiCorrelator {
    n: usize,
    plan: FftPlan,
    /// `DFT(a + i·b)`, set by [`set_signals`](Self::set_signals).
    signals_fft: Option<Vec<Complex64>>,
    /// Pattern → forward transform workspace.
    packed: Vec<Complex64>,
    /// Product → inverse transform workspace.
    work: Vec<Complex64>,
}

impl MultiCorrelator {
    /// Builds a correlator for signals of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyTransform`] for `n = 0`.
    pub fn new(n: usize) -> Result<Self, DspError> {
        Ok(MultiCorrelator {
            n,
            plan: FftPlan::new(n)?,
            signals_fft: None,
            packed: vec![Complex64::ZERO; n],
            work: vec![Complex64::ZERO; n],
        })
    }

    /// The signal length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the correlator is for length-0 signals (never true; kept
    /// for the conventional `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether a signal-pair transform is cached.
    pub fn has_signals(&self) -> bool {
        self.signals_fft.is_some()
    }

    /// Computes and caches the packed signal-pair transform
    /// `Z = DFT(a + i·b)`; one forward FFT, reused by every subsequent
    /// correlate call.
    ///
    /// The packing is bit-identical to the one
    /// `CircularCorrelator::correlate_dual` performs per call, so the
    /// cached transform carries exactly the bits the per-call path would
    /// recompute.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] when either signal's length
    /// differs from the correlator's.
    pub fn set_signals(&mut self, a: &[f64], b: &[f64]) -> Result<(), DspError> {
        let n = self.n;
        for len in [a.len(), b.len()] {
            if len != n {
                return Err(DspError::LengthMismatch {
                    expected: n,
                    got: len,
                });
            }
        }
        let mut fft: Vec<Complex64> = a
            .iter()
            .zip(b)
            .map(|(&va, &vb)| Complex64::new(va, vb))
            .collect();
        self.plan.forward(&mut fft);
        self.signals_fft = Some(fft);
        Ok(())
    }

    /// Correlates one real pattern `x` against the cached signal pair:
    /// `out_a[r] = Σ_j x[j]·a[(j−r) mod n]`, likewise for `b`.
    ///
    /// One forward + one inverse FFT. Outputs are bit-identical to
    /// `CircularCorrelator::correlate_dual(a, b, ..)` with reference `x`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] when any buffer's length
    /// differs from the correlator's, or when no signals have been set
    /// (reported as a length-0 mismatch).
    pub fn correlate_one(
        &mut self,
        x: &[f64],
        out_a: &mut [f64],
        out_b: &mut [f64],
    ) -> Result<(), DspError> {
        let n = self.n;
        for len in [x.len(), out_a.len(), out_b.len()] {
            if len != n {
                return Err(DspError::LengthMismatch {
                    expected: n,
                    got: len,
                });
            }
        }
        let signals_fft = self.signals_fft.as_ref().ok_or(DspError::LengthMismatch {
            expected: n,
            got: 0,
        })?;

        for (slot, &v) in self.packed.iter_mut().zip(x) {
            *slot = Complex64::from(v);
        }
        self.plan.forward(&mut self.packed);
        // X ⊙ conj(Z): identical operand bits to the per-call dual path.
        for ((slot, &x_k), &z_k) in self.work.iter_mut().zip(&self.packed).zip(signals_fft) {
            *slot = x_k * z_k.conj();
        }
        self.plan.inverse(&mut self.work);
        for ((oa, ob), &g) in out_a.iter_mut().zip(out_b.iter_mut()).zip(&self.work) {
            *oa = g.re;
            *ob = -g.im;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircularCorrelator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn missing_signals_is_an_error() {
        let mut multi = MultiCorrelator::new(4).expect("valid");
        let (mut a, mut b) = ([0.0; 4], [0.0; 4]);
        assert!(multi.correlate_one(&[0.0; 4], &mut a, &mut b).is_err());
    }

    #[test]
    fn length_mismatches_are_errors() {
        let mut multi = MultiCorrelator::new(4).expect("valid");
        assert_eq!(
            multi.set_signals(&[0.0; 3], &[0.0; 4]).unwrap_err(),
            DspError::LengthMismatch {
                expected: 4,
                got: 3
            }
        );
        multi.set_signals(&[0.0; 4], &[0.0; 4]).expect("valid");
        let (mut a, mut b) = ([0.0; 4], [0.0; 3]);
        assert_eq!(
            multi.correlate_one(&[0.0; 4], &mut a, &mut b).unwrap_err(),
            DspError::LengthMismatch {
                expected: 4,
                got: 3
            }
        );
    }

    #[test]
    fn correlate_one_is_bit_identical_to_the_dual_path() {
        let mut rng = StdRng::seed_from_u64(0x9e37);
        for n in [2usize, 3, 8, 31, 48, 127] {
            let a: Vec<f64> = (0..n).map(|_| rng.random_range(-4.0..4.0)).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..9.0)).collect();
            let mut multi = MultiCorrelator::new(n).expect("valid");
            multi.set_signals(&a, &b).expect("valid");
            let mut corr = CircularCorrelator::new(n).expect("valid");
            for _ in 0..4 {
                let x: Vec<f64> = (0..n).map(|_| f64::from(rng.random_range(0..2))).collect();
                let (mut fa, mut fb) = (vec![0.0; n], vec![0.0; n]);
                multi.correlate_one(&x, &mut fa, &mut fb).expect("valid");
                corr.set_reference(&x);
                let (mut ga, mut gb) = (vec![0.0; n], vec![0.0; n]);
                corr.correlate_dual(&a, &b, &mut ga, &mut gb)
                    .expect("valid");
                for r in 0..n {
                    assert_eq!(fa[r].to_bits(), ga[r].to_bits(), "n={n} a lag {r}");
                    assert_eq!(fb[r].to_bits(), gb[r].to_bits(), "n={n} b lag {r}");
                }
            }
        }
    }
}
