//! std-only digital signal processing kernels for the clockmark
//! detection pipeline.
//!
//! The watermark detector's dominant cost is a circular cross-correlation
//! over the watermark period P (see `clockmark-cpa`); this crate provides
//! the O(P log P) machinery behind it with **no external dependencies**
//! (the build environment has no reachable crate registry):
//!
//! - [`Radix2Plan`]: an iterative in-place Cooley–Tukey FFT for
//!   power-of-two lengths, with precomputed twiddles and bit-reversal;
//! - [`BluesteinPlan`]: the chirp-z transform for *arbitrary* lengths —
//!   the paper's period P = 4095 = 2¹²−1 is as far from a power of two
//!   as it gets — built on an inner radix-2 convolution of length 8192;
//! - [`FftPlan`]: length-dispatched plan combining the two;
//! - [`CircularCorrelator`]: dual real circular cross-correlation against
//!   a cached reference spectrum, one packed complex FFT per call.
//!
//! Everything is a *plan*: construction precomputes twiddle tables and
//! allocates scratch once, and repeated transforms reuse both.
//!
//! ```
//! use clockmark_dsp::{Complex64, FftPlan};
//!
//! // A single tone lands in a single bin.
//! let n = 48; // not a power of two → Bluestein under the hood
//! let mut plan = FftPlan::new(n)?;
//! let mut data: Vec<Complex64> = (0..n)
//!     .map(|i| Complex64::cis(2.0 * std::f64::consts::PI * 3.0 * i as f64 / n as f64))
//!     .collect();
//! plan.forward(&mut data);
//! assert!((data[3].re - n as f64).abs() < 1e-9);
//! assert!(data[7].abs() < 1e-9);
//! # Ok::<(), clockmark_dsp::DspError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bluestein;
mod complex;
mod correlate;
mod error;
mod multi;
mod plan;
mod radix2;

pub use bluestein::BluesteinPlan;
pub use complex::Complex64;
pub use correlate::{circular_cross_correlation_naive, CircularCorrelator};
pub use error::DspError;
pub use multi::MultiCorrelator;
pub use plan::FftPlan;
pub use radix2::Radix2Plan;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::Complex64;

    /// O(n²) reference DFT every kernel is pinned against.
    pub fn naive_dft(input: &[Complex64]) -> Vec<Complex64> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex64::ZERO;
                for (j, &x) in input.iter().enumerate() {
                    let angle = -2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64;
                    acc += x * Complex64::cis(angle);
                }
                acc
            })
            .collect()
    }

    /// Asserts element-wise closeness with a scale-aware tolerance.
    pub fn assert_close(got: &[Complex64], want: &[Complex64], tol: f64, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        let scale = want.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (*g - *w).abs() <= tol * scale,
                "{what}: bin {i}: {g:?} vs {w:?} (scale {scale:.3e})"
            );
        }
    }
}
