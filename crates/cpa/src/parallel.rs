//! std-thread parallel execution of the spectrum kernels.
//!
//! The folded algorithm behind [`Detector`](crate::Detector) computes
//! each rotation's ρ from rotation-invariant sums, so the rotation
//! range can be partitioned across threads with **no** change to the
//! per-rotation arithmetic: the parallel spectrum is bit-identical to the
//! serial one for every thread count. The FFT kernel's transform is a
//! single serial O(P log P) pass, so there the *exact-refinement*
//! candidates are what gets partitioned — each candidate's refined ρ is a
//! pure function of its rotation index, preserving the same guarantee.
//! No external crates are involved — only [`std::thread::scope`].
//!
//! The worker count defaults to the machine's available parallelism and can
//! be pinned with the `CLOCKMARK_THREADS` environment variable (useful for
//! reproducible benchmarking and for confining CI runners).

/// Minimum multiply-adds (`P·W`) before the facade's spectrum path
/// prefers the threaded rotation loop; below this the thread-spawn overhead
/// dominates. The paper-scale problem (P = 4,095, W ≈ 2,048 → ~8.4 M) sits
/// well above it; unit-test-sized inputs sit well below.
pub(crate) const PARALLEL_WORK_THRESHOLD: usize = 1 << 20;

/// The number of worker threads the crate will use for parallel work.
///
/// Reads the `CLOCKMARK_THREADS` environment variable when set to a
/// positive integer; otherwise falls back to
/// [`std::thread::available_parallelism`] (and to 1 if even that is
/// unavailable).
///
/// ```
/// assert!(clockmark_cpa::thread_count() >= 1);
/// ```
pub fn thread_count() -> usize {
    thread_count_from(std::env::var("CLOCKMARK_THREADS").ok().as_deref())
}

/// Threads for `work` multiply-adds when the caller pinned none: the
/// machine's parallelism once the work passes
/// [`PARALLEL_WORK_THRESHOLD`], serial below it.
pub(crate) fn auto_threads(work: usize) -> usize {
    let threads = thread_count();
    if threads > 1 && work >= PARALLEL_WORK_THRESHOLD {
        threads
    } else {
        1
    }
}

/// [`thread_count`] with the environment lookup factored out for testing.
fn thread_count_from(var: Option<&str>) -> usize {
    if let Some(requested) = var.and_then(|v| v.trim().parse::<usize>().ok()) {
        if requested >= 1 {
            return requested;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

// Threaded spectra (`DetectOptions::with_threads`) are bit-identical to
// serial ones for every thread count. With the folded kernel the
// rotation range is partitioned: the folded sums are computed once and
// each rotation's ρ involves exactly the same operations in the same
// order regardless of which thread evaluates it. With the FFT kernel the
// transform stays serial and the exact-refinement candidates are
// partitioned instead. `threads` is clamped; `0` or `1` runs serially on
// the calling thread, and a `naive` kernel override runs the reference
// loop serially, ignoring `threads`.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpaAlgo, CpaError, DetectOptions, Detector, SpreadSpectrum};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spread_spectrum_parallel(
        pattern: &[bool],
        y: &[f64],
        threads: usize,
    ) -> Result<SpreadSpectrum, CpaError> {
        Detector::with_options(pattern, DetectOptions::default().with_threads(threads))?.spectrum(y)
    }

    fn spread_spectrum_naive(pattern: &[bool], y: &[f64]) -> Result<SpreadSpectrum, CpaError> {
        Detector::with_options(pattern, DetectOptions::default().with_algo(CpaAlgo::Naive))?
            .spectrum(y)
    }

    fn random_case(seed: u64, period: usize, n: usize) -> (Vec<bool>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pattern: Vec<bool> = (0..period).map(|_| rng.random_bool(0.5)).collect();
        pattern[0] = true;
        if pattern.iter().all(|&b| b) {
            pattern[1] = false;
        }
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let wm = if pattern[(i + 7) % period] { 0.5 } else { 0.0 };
                wm + rng.random_range(-2.0..2.0)
            })
            .collect();
        (pattern, y)
    }

    #[test]
    fn parallel_is_bit_identical_to_serial_for_every_thread_count() {
        let (pattern, y) = random_case(3, 97, 2000);
        let serial = spread_spectrum_parallel(&pattern, &y, 1).expect("valid");
        for threads in [2, 3, 4, 7, 16, 97, 200] {
            let parallel = spread_spectrum_parallel(&pattern, &y, threads).expect("valid");
            // Exact bit equality, not approximate: chunking must not change
            // any per-rotation arithmetic.
            assert_eq!(serial.rho(), parallel.rho(), "threads = {threads}");
        }
    }

    #[test]
    fn parallel_matches_the_naive_reference() {
        let (pattern, y) = random_case(4, 31, 700);
        let parallel = spread_spectrum_parallel(&pattern, &y, 5).expect("valid");
        let naive = spread_spectrum_naive(&pattern, &y).expect("valid");
        for (a, b) in parallel.rho().iter().zip(naive.rho()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_threads_degrades_to_serial() {
        let (pattern, y) = random_case(5, 13, 130);
        let zero = spread_spectrum_parallel(&pattern, &y, 0).expect("valid");
        let one = spread_spectrum_parallel(&pattern, &y, 1).expect("valid");
        assert_eq!(zero.rho(), one.rho());
    }

    #[test]
    fn parallel_validates_inputs_like_serial() {
        assert_eq!(
            spread_spectrum_parallel(&[true, true], &[1.0, 2.0], 4).unwrap_err(),
            CpaError::ConstantPattern
        );
        assert_eq!(
            spread_spectrum_parallel(&[true, false, true], &[1.0], 4).unwrap_err(),
            CpaError::TraceShorterThanPeriod { have: 1, need: 3 }
        );
    }

    #[test]
    fn thread_count_prefers_the_environment_override() {
        assert_eq!(thread_count_from(Some("3")), 3);
        assert_eq!(thread_count_from(Some(" 12 ")), 12);
        // Zero, garbage and absence all fall back to machine parallelism.
        assert!(thread_count_from(Some("0")) >= 1);
        assert!(thread_count_from(Some("lots")) >= 1);
        assert!(thread_count_from(None) >= 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn parallel_equals_serial_on_random_inputs(
            seed in 0u64..10_000,
            period in 3usize..64,
            n_mult in 1usize..5,
            extra in 0usize..11,
            threads in 2usize..12,
        ) {
            let n = period * n_mult + extra.min(period - 1) + period;
            let (pattern, y) = random_case(seed, period, n);
            let serial = spread_spectrum_parallel(&pattern, &y, 1).expect("valid");
            let parallel = spread_spectrum_parallel(&pattern, &y, threads).expect("valid");
            prop_assert_eq!(serial.period(), parallel.period());
            for (a, b) in serial.rho().iter().zip(parallel.rho()) {
                prop_assert!((a - b).abs() <= 1e-12, "{} vs {}", a, b);
            }
        }
    }
}
