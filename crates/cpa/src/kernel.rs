//! The spectrum kernels: folded rotation loop and FFT circular
//! correlation, both operating on the same per-residue view of a
//! measurement.
//!
//! Every implementation in this crate that owns folded accumulators —
//! [`FoldedTrace`](crate::rotational) for batch traces,
//! [`StreamingCpa`](crate::StreamingCpa) for incremental ones — lowers to
//! a borrowed [`SpectrumInputs`] and dispatches here, so the kernels are
//! written once and the batch/streaming/parallel entry points cannot
//! drift apart.
//!
//! # The FFT path
//!
//! For rotation `r`, the two rotation-dependent sums of the folded
//! algorithm are
//!
//! ```text
//! sxy[r] = Σ_{j : pattern[j]=1} c[(j−r) mod P]
//! sx[r]  = Σ_{j : pattern[j]=1} m[(j−r) mod P]
//! ```
//!
//! — circular cross-correlations of the per-residue fold (`c`, `m`)
//! against the pattern's ones-indicator, so both drop from O(P·W) to
//! O(P log P) via one packed FFT (`clockmark_dsp::CircularCorrelator`).
//! The transform introduces rounding at the 1e-12 level, far below any
//! physical effect but enough to break the bit-identical-decision
//! guarantee the campaign engine's byte-compared reports rely on. The
//! kernel therefore ends with an **exact refinement**: every rotation
//! whose approximate |ρ| (or signed ρ) is within [`REFINE_EPS`] of the
//! respective maximum — plus the [`REFINE_TOP_K`] largest magnitudes as
//! margin — is recomputed with the folded arithmetic, operation for
//! operation. Because the FFT error is orders of magnitude below
//! `REFINE_EPS`, the exact peak and every exact tie are always among the
//! candidates, so `peak()`/`peak_abs()` (rotation *and* value) match the
//! folded kernel bit for bit. `docs/cpa-fft.md` carries the full
//! argument.

use std::cell::RefCell;

use clockmark_dsp::CircularCorrelator;

use crate::pearson::correlation_from_sums;
use crate::{CpaAlgo, SpreadSpectrum};

/// Approximate-ρ margin within which a rotation is refined exactly.
/// The FFT's rounding error on ρ is ~1e-12 for paper-scale inputs;
/// 1e-5 leaves seven orders of magnitude of slack while still refining
/// only a handful of rotations on non-degenerate spectra.
const REFINE_EPS: f64 = 1e-5;

/// Rotations with the largest approximate |ρ| always refined, margin on
/// top of the [`REFINE_EPS`] bands.
const REFINE_TOP_K: usize = 32;

/// A borrowed view of the rotation-invariant folded sums — everything a
/// spectrum kernel needs, independent of who accumulated it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpectrumInputs<'a> {
    /// Measurement length N as f64.
    pub nf: f64,
    /// Σy over the whole measurement.
    pub sy: f64,
    /// Σy² over the whole measurement.
    pub syy: f64,
    /// Per-residue sums `c_k = Σ_{i ≡ k (mod P)} y_i`, length P.
    pub c: &'a [f64],
    /// Per-residue counts `m_k = |{i ≡ k (mod P)}|`, length P.
    pub m: &'a [u64],
    /// Indices of the ones in the pattern, strictly increasing.
    pub ones: &'a [usize],
}

impl SpectrumInputs<'_> {
    /// The watermark period P.
    pub(crate) fn period(&self) -> usize {
        self.c.len()
    }

    /// The folded kernel's multiply-adds for the full spectrum (`P·W`);
    /// drives both the thread-count and the algorithm heuristics.
    pub(crate) fn work(&self) -> usize {
        self.period().saturating_mul(self.ones.len())
    }

    /// ρ for a single rotation, by the folded arithmetic. This is *the*
    /// reference per-rotation computation: the folded kernel evaluates it
    /// for every rotation, the FFT kernel for every refinement candidate,
    /// so refined values are bit-identical to the folded spectrum's.
    pub(crate) fn rho_at(&self, r: usize) -> f64 {
        let period = self.period();
        let mut sx = 0.0f64;
        let mut sxy = 0.0f64;
        for &j in self.ones {
            // (j - r) mod P without branching on negatives.
            let k = (j + period - r) % period;
            sx += self.m[k] as f64;
            sxy += self.c[k];
        }
        // For binary x, Σx² = Σx.
        correlation_from_sums(self.nf, sx, self.sy, sx, self.syy, sxy)
    }
}

/// The struct-of-arrays mirror of the folded accumulators the hot
/// rotation loop runs on.
///
/// Two ideas, neither of which moves a single rounding step:
///
/// - **Doubled arrays.** `c` and `m` are stored twice back to back, so
///   the wrapped index `(j − r) mod P` of [`SpectrumInputs::rho_at`]
///   becomes the branch-free, division-free `j + (P − r)` into the
///   doubled array — the integer division that dominated the scalar
///   inner loop is gone.
/// - **Pre-converted counts.** `m` is converted to `f64` once per
///   spectrum (`u64 → f64` is exact for any real count, far below 2^53)
///   instead of once per (rotation, one) pair.
///
/// The inner loop is unrolled four lanes wide with a *single*
/// accumulator pair, so every sum still adds the same values in the
/// same order as the scalar reference — the spectrum is bit-identical
/// (pinned by proptests below), which the byte-compared campaign
/// reports rely on.
pub(crate) struct SoaInputs {
    /// `[c, c]` concatenated: `c2[j + P − r] == c[(j − r) mod P]`.
    c2: Vec<f64>,
    /// `[m, m]` concatenated, pre-converted to `f64`.
    m2: Vec<f64>,
}

impl SoaInputs {
    /// Builds the doubled arrays; O(P) time and memory. Production code
    /// goes through the per-thread scratch ([`fill`](Self::fill)); tests
    /// use this to pin the scalar reference.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn new(inputs: &SpectrumInputs<'_>) -> Self {
        let mut soa = SoaInputs {
            c2: Vec::new(),
            m2: Vec::new(),
        };
        soa.fill(inputs);
        soa
    }

    /// Refills the doubled arrays in place, reusing their capacity — the
    /// sequential engine re-evaluates the spectrum at every checkpoint,
    /// and this is what lets those evaluations run allocation-free after
    /// the first.
    pub(crate) fn fill(&mut self, inputs: &SpectrumInputs<'_>) {
        self.c2.clear();
        self.c2.reserve(2 * inputs.c.len());
        self.c2.extend_from_slice(inputs.c);
        self.c2.extend_from_slice(inputs.c);
        self.m2.clear();
        self.m2.reserve(2 * inputs.m.len());
        self.m2.extend(inputs.m.iter().map(|&v| v as f64));
        self.m2.extend(inputs.m.iter().map(|&v| v as f64));
    }

    /// ρ for one rotation — bit-identical to
    /// [`SpectrumInputs::rho_at`], via the doubled-array gather.
    pub(crate) fn rho_at(&self, inputs: &SpectrumInputs<'_>, r: usize) -> f64 {
        let period = self.c2.len() / 2;
        debug_assert_eq!(period, inputs.period());
        debug_assert!(r < period);
        let off = period - r;
        let cw = &self.c2[off..off + period];
        let mw = &self.m2[off..off + period];
        let ones = inputs.ones;
        let mut sx = 0.0f64;
        let mut sxy = 0.0f64;
        let mut i = 0usize;
        while i + 4 <= ones.len() {
            let (j0, j1, j2, j3) = (ones[i], ones[i + 1], ones[i + 2], ones[i + 3]);
            sx += mw[j0];
            sxy += cw[j0];
            sx += mw[j1];
            sxy += cw[j1];
            sx += mw[j2];
            sxy += cw[j2];
            sx += mw[j3];
            sxy += cw[j3];
            i += 4;
        }
        while i < ones.len() {
            let j = ones[i];
            sx += mw[j];
            sxy += cw[j];
            i += 1;
        }
        // For binary x, Σx² = Σx.
        correlation_from_sums(inputs.nf, sx, inputs.sy, sx, inputs.syy, sxy)
    }

    /// ρ for a contiguous rotation range. The arithmetic depends only on
    /// the folded arrays, never on the range boundaries, so concatenating
    /// ranges reproduces the full spectrum bit for bit — the basis of the
    /// parallel engine's determinism guarantee.
    pub(crate) fn rho_range(
        &self,
        inputs: &SpectrumInputs<'_>,
        rotations: std::ops::Range<usize>,
    ) -> Vec<f64> {
        rotations.map(|r| self.rho_at(inputs, r)).collect()
    }
}

/// Evaluates the full spectrum with the requested kernel on `threads`
/// threads. The naive kernel needs the raw measurement, which this view
/// no longer has; callers resolve [`CpaAlgo::Naive`] before folding.
pub(crate) fn spectrum_with_algo(
    inputs: &SpectrumInputs<'_>,
    algo: CpaAlgo,
    threads: usize,
) -> SpreadSpectrum {
    match algo {
        CpaAlgo::Fft => spectrum_fft(inputs, threads),
        _ => spectrum_folded(inputs, threads),
    }
}

/// The folded O(P·W) kernel, rotation loop chunked across `threads`
/// threads. Bit-identical for every thread count.
pub(crate) fn spectrum_folded(inputs: &SpectrumInputs<'_>, threads: usize) -> SpreadSpectrum {
    let period = inputs.period();
    let threads = threads.clamp(1, period);
    let span = clockmark_obs::span("cpa.spread_spectrum")
        .field("algo", CpaAlgo::Folded.as_str())
        .field("period", period)
        .field("work", inputs.work())
        .field("threads", threads);
    let timed = span.is_recording().then(std::time::Instant::now);

    // One O(P) struct-of-arrays refill into the per-thread scratch,
    // shared read-only by every worker — repeated spectra (the
    // sequential checkpoint path) allocate nothing after the first.
    let spectrum = SOA_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.fill(inputs);
        let soa = &*scratch;
        if threads == 1 {
            SpreadSpectrum::from_rho(rotate_chunk(inputs, soa, 0, 0, period))
        } else {
            let chunk = period.div_ceil(threads);
            let mut rho = Vec::with_capacity(period);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let start = (t * chunk).min(period);
                        let end = ((t + 1) * chunk).min(period);
                        scope.spawn(move || rotate_chunk(inputs, soa, t, start, end))
                    })
                    .collect();
                // Joining in spawn order keeps the concatenation deterministic.
                for handle in handles {
                    rho.extend(handle.join().expect("rotation worker panicked"));
                }
            });
            SpreadSpectrum::from_rho(rho)
        }
    });
    finish_spectrum_span(spectrum, timed)
}

/// One worker's share of the rotation loop, wrapped in a `cpa.rotate`
/// span so per-chunk wall time (and thus thread imbalance) is visible.
fn rotate_chunk(
    inputs: &SpectrumInputs<'_>,
    soa: &SoaInputs,
    worker: usize,
    start: usize,
    end: usize,
) -> Vec<f64> {
    let span = clockmark_obs::span("cpa.rotate")
        .field("worker", worker)
        .field("start", start)
        .field("end", end);
    let timed = span.is_recording().then(std::time::Instant::now);
    let rho = soa.rho_range(inputs, start..end);
    if let Some(t0) = timed {
        clockmark_obs::observe("cpa.chunk_seconds", t0.elapsed().as_secs_f64());
    }
    rho
}

/// The FFT O(P log P) kernel: one packed circular correlation for the
/// whole spectrum, then exact refinement of the peak candidates. The
/// transform itself is serial (it is a single O(P log P) pass); when
/// `threads > 1` the *refinement* is what gets partitioned.
pub(crate) fn spectrum_fft(inputs: &SpectrumInputs<'_>, threads: usize) -> SpreadSpectrum {
    let period = inputs.period();
    let span = clockmark_obs::span("cpa.spread_spectrum")
        .field("algo", CpaAlgo::Fft.as_str())
        .field("period", period)
        .field("work", inputs.work())
        .field("threads", threads);
    let timed = span.is_recording().then(std::time::Instant::now);

    let mut rho = FFT_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let FftScratch { m_f64, sxy, sx } = &mut *scratch;
        m_f64.clear();
        m_f64.extend(inputs.m.iter().map(|&v| v as f64));
        sxy.clear();
        sxy.resize(period, 0.0);
        sx.clear();
        sx.resize(period, 0.0);
        with_cached_correlator(period, inputs.ones, |correlator| {
            let exec = clockmark_obs::span("cpa.fft.exec").field("period", period);
            let exec_timed = exec.is_recording().then(std::time::Instant::now);
            correlator
                .correlate_dual(inputs.c, m_f64, sxy, sx)
                .expect("fold buffers share the correlator length by construction");
            if let Some(t0) = exec_timed {
                clockmark_obs::observe("cpa.fft.exec_seconds", t0.elapsed().as_secs_f64());
            }
        });
        rho_from_correlations(inputs, sxy, sx)
    });
    refine_exactly(inputs, &mut rho, threads);
    finish_spectrum_span(SpreadSpectrum::from_rho(rho), timed)
}

/// Approximate ρ for every rotation from the circular-correlation sums.
/// `sx[r]` is a sum of integer counts, so rounding strips the FFT noise
/// from it entirely; only `sxy` carries residual error into ρ. Shared by
/// [`spectrum_fft`] and the batched identification path, which must
/// round and combine with exactly the same arithmetic.
pub(crate) fn rho_from_correlations(
    inputs: &SpectrumInputs<'_>,
    sxy: &[f64],
    sx: &[f64],
) -> Vec<f64> {
    (0..inputs.period())
        .map(|r| {
            let sxr = sx[r].round();
            correlation_from_sums(inputs.nf, sxr, inputs.sy, sxr, inputs.syy, sxy[r])
        })
        .collect()
}

/// Recomputes every peak-candidate rotation with the folded arithmetic,
/// in place. Candidates are all rotations within [`REFINE_EPS`] of the
/// approximate |ρ| maximum or of the approximate signed maximum, plus the
/// [`REFINE_TOP_K`] largest magnitudes; each candidate's refined value is
/// a pure function of the rotation index, so any partition across
/// `threads` yields the same spectrum.
pub(crate) fn refine_exactly(inputs: &SpectrumInputs<'_>, rho: &mut [f64], threads: usize) {
    let candidates = refinement_candidates(rho);
    let span = clockmark_obs::span("cpa.refine")
        .field("candidates", candidates.len())
        .field("threads", threads);
    let timed = span.is_recording().then(std::time::Instant::now);

    let threads = threads.clamp(1, candidates.len().max(1));
    let exact: Vec<f64> = if threads > 1 {
        let chunk = candidates.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = candidates
                .chunks(chunk)
                .map(|part| scope.spawn(move || part.iter().map(|&r| inputs.rho_at(r)).collect()))
                .collect();
            let mut exact: Vec<f64> = Vec::with_capacity(candidates.len());
            for handle in handles {
                let part: Vec<f64> = handle.join().expect("refine worker panicked");
                exact.extend(part);
            }
            exact
        })
    } else {
        candidates.iter().map(|&r| inputs.rho_at(r)).collect()
    };
    for (&r, &value) in candidates.iter().zip(&exact) {
        rho[r] = value;
    }
    if let Some(t0) = timed {
        clockmark_obs::observe("cpa.refine_seconds", t0.elapsed().as_secs_f64());
    }
}

/// The rotations whose approximate ρ could plausibly be (or tie) the
/// exact peak, sorted and deduplicated.
fn refinement_candidates(rho: &[f64]) -> Vec<usize> {
    let max_abs = rho.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
    let max_signed = rho.iter().fold(f64::NEG_INFINITY, |acc, &v| acc.max(v));
    let mut candidates: Vec<usize> = (0..rho.len())
        .filter(|&r| rho[r].abs() >= max_abs - REFINE_EPS || rho[r] >= max_signed - REFINE_EPS)
        .collect();
    let mut by_abs: Vec<usize> = (0..rho.len()).collect();
    by_abs.sort_by(|&a, &b| rho[b].abs().total_cmp(&rho[a].abs()));
    candidates.extend(by_abs.into_iter().take(REFINE_TOP_K));
    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

/// Shared span/metrics tail of both kernels.
fn finish_spectrum_span(
    spectrum: SpreadSpectrum,
    timed: Option<std::time::Instant>,
) -> SpreadSpectrum {
    let period = spectrum.period();
    clockmark_obs::counter_add("cpa.rotations", period as u64);
    if clockmark_obs::enabled() {
        clockmark_obs::gauge_set("cpa.peak_rho_abs", spectrum.peak_abs().1.abs());
    }
    if let Some(t0) = timed {
        let secs = t0.elapsed().as_secs_f64();
        if secs > 0.0 {
            clockmark_obs::gauge_set("cpa.rotations_per_sec", period as f64 / secs);
        }
    }
    spectrum
}

/// One entry of the per-thread correlator cache: the FFT plan of a
/// period and the reference transform of the pattern it last served.
/// Repeated spectra against the same watermark — the campaign and
/// streaming hot path — pay the plan and the reference transform once
/// per worker thread instead of once per call.
struct CachedCorrelator {
    period: usize,
    ones: Vec<usize>,
    correlator: CircularCorrelator,
}

/// Periods whose correlators a thread keeps: enough for a
/// multi-watermark verdict (the primary pattern plus its extra widths)
/// to find every plan warm in the next job.
const CACHED_PERIODS: usize = 4;

thread_local! {
    /// One correlator per period, least recently used first.
    static CORRELATOR_CACHE: RefCell<Vec<CachedCorrelator>> = const { RefCell::new(Vec::new()) };

    /// Per-thread FFT-path scratch (`m` as f64, the two correlation
    /// outputs), so repeated spectra — the sequential checkpoint loop —
    /// run the transform allocation-free after the first call.
    static FFT_SCRATCH: RefCell<FftScratch> = const {
        RefCell::new(FftScratch {
            m_f64: Vec::new(),
            sxy: Vec::new(),
            sx: Vec::new(),
        })
    };

    /// Per-thread doubled-array scratch for the folded kernel.
    static SOA_SCRATCH: RefCell<SoaInputs> = const {
        RefCell::new(SoaInputs {
            c2: Vec::new(),
            m2: Vec::new(),
        })
    };
}

struct FftScratch {
    m_f64: Vec<f64>,
    sxy: Vec<f64>,
    sx: Vec<f64>,
}

fn with_cached_correlator<R>(
    period: usize,
    ones: &[usize],
    f: impl FnOnce(&mut CircularCorrelator) -> R,
) -> R {
    CORRELATOR_CACHE.with(|cell| {
        let mut cache = cell.borrow_mut();
        let hit = cache
            .iter()
            .position(|cached| cached.period == period)
            .map(|at| cache.remove(at));
        let plan_hit = hit.is_some();
        let full_hit = hit.as_ref().is_some_and(|cached| cached.ones == ones);
        let cached = match hit {
            Some(cached) if full_hit => cached,
            hit => {
                let span = clockmark_obs::span("cpa.fft.plan")
                    .field("period", period)
                    .field("ones", ones.len())
                    .field("plan_reused", plan_hit);
                let plan_timed = span.is_recording().then(std::time::Instant::now);
                // A same-period entry with a different pattern keeps its
                // FFT plan (twiddles + scratch) and only re-transforms the
                // new reference — one forward FFT instead of a full plan
                // build. This is what makes per-candidate spectra in the
                // batched identification path cheap.
                let mut cached = hit.unwrap_or_else(|| CachedCorrelator {
                    period,
                    ones: Vec::new(),
                    correlator: CircularCorrelator::new(period)
                        .expect("validated patterns have period >= 2, so the plan is non-empty"),
                });
                let mut indicator = vec![0.0f64; period];
                for &j in ones {
                    indicator[j] = 1.0;
                }
                cached.correlator.set_reference(&indicator);
                cached.ones.clear();
                cached.ones.extend_from_slice(ones);
                if let Some(t0) = plan_timed {
                    clockmark_obs::observe("cpa.fft.plan_seconds", t0.elapsed().as_secs_f64());
                }
                cached
            }
        };
        if cache.len() == CACHED_PERIODS {
            cache.remove(0);
        }
        cache.push(cached);
        f(&mut cache.last_mut().expect("pushed above").correlator)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn inputs_for<'a>(
        pattern: &[bool],
        y: &[f64],
        c: &'a mut Vec<f64>,
        m: &'a mut Vec<u64>,
        ones: &'a mut Vec<usize>,
    ) -> SpectrumInputs<'a> {
        let period = pattern.len();
        c.resize(period, 0.0);
        m.resize(period, 0);
        for (i, &yi) in y.iter().enumerate() {
            c[i % period] += yi;
            m[i % period] += 1;
        }
        *ones = (0..period).filter(|&j| pattern[j]).collect();
        SpectrumInputs {
            nf: y.len() as f64,
            sy: y.iter().sum(),
            syy: y.iter().map(|v| v * v).sum(),
            c,
            m,
            ones,
        }
    }

    #[test]
    fn fft_kernel_matches_folded_within_fft_noise() {
        let pattern: Vec<bool> = (0..97).map(|i| (i * 7) % 13 < 6).collect();
        let y: Vec<f64> = (0..1000)
            .map(|i| {
                let wm = if pattern[(i + 31) % 97] { 0.7 } else { 0.0 };
                wm + ((i * 2654435761usize) % 1000) as f64 / 250.0
            })
            .collect();
        let (mut c, mut m, mut ones) = (Vec::new(), Vec::new(), Vec::new());
        let inputs = inputs_for(&pattern, &y, &mut c, &mut m, &mut ones);
        let folded = spectrum_folded(&inputs, 1);
        let fft = spectrum_fft(&inputs, 1);
        for (a, b) in folded.rho().iter().zip(fft.rho()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // The refined peak is not merely close — it is the same bits.
        assert_eq!(folded.peak_abs().0, fft.peak_abs().0);
        assert_eq!(folded.peak_abs().1.to_bits(), fft.peak_abs().1.to_bits());
        assert_eq!(folded.peak().0, fft.peak().0);
        assert_eq!(folded.peak().1.to_bits(), fft.peak().1.to_bits());
    }

    #[test]
    fn fft_refinement_is_thread_count_invariant() {
        let pattern: Vec<bool> = (0..64).map(|i| i % 3 != 0).collect();
        let y: Vec<f64> = (0..640).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let (mut c, mut m, mut ones) = (Vec::new(), Vec::new(), Vec::new());
        let inputs = inputs_for(&pattern, &y, &mut c, &mut m, &mut ones);
        let serial = spectrum_fft(&inputs, 1);
        for threads in [2, 3, 8, 100] {
            let parallel = spectrum_fft(&inputs, threads);
            assert_eq!(serial.rho(), parallel.rho(), "threads = {threads}");
        }
    }

    #[test]
    fn degenerate_trace_stays_exactly_zero_under_fft() {
        // Constant y → zero variance → every ρ must be exactly 0.0, even
        // though the FFT smears tiny noise into the numerator sums: the
        // variance guard fires on the exact, rotation-invariant Σy/Σy².
        let pattern: Vec<bool> = (0..31).map(|i| i % 2 == 0).collect();
        let y = vec![3.25; 310];
        let (mut c, mut m, mut ones) = (Vec::new(), Vec::new(), Vec::new());
        let inputs = inputs_for(&pattern, &y, &mut c, &mut m, &mut ones);
        let fft = spectrum_fft(&inputs, 2);
        assert!(fft.is_degenerate());
    }

    #[test]
    fn soa_rho_is_bit_identical_to_the_scalar_reference() {
        let pattern: Vec<bool> = (0..97).map(|i| (i * 11) % 17 < 8).collect();
        let y: Vec<f64> = (0..977)
            .map(|i| ((i * 2654435761usize) % 2000) as f64 / 500.0 - 2.0)
            .collect();
        let (mut c, mut m, mut ones) = (Vec::new(), Vec::new(), Vec::new());
        let inputs = inputs_for(&pattern, &y, &mut c, &mut m, &mut ones);
        let soa = SoaInputs::new(&inputs);
        for r in 0..inputs.period() {
            assert_eq!(
                soa.rho_at(&inputs, r).to_bits(),
                inputs.rho_at(r).to_bits(),
                "rotation {r}"
            );
        }
    }

    /// At the paper's scale (a 12-bit m-sequence, P = 4095, over
    /// N = 300,000 cycles) the folded spectrum is the scalar `rho_at`
    /// reference at every rotation, and the FFT kernel refines to the
    /// folded peak's bits.
    #[test]
    fn paper_scale_spectra_match_their_references() {
        use clockmark_seq::{Lfsr, SequenceGenerator};
        let mut lfsr = Lfsr::maximal(12).expect("valid width");
        let pattern: Vec<bool> = (0..4095).map(|_| lfsr.next_bit()).collect();
        let y: Vec<f64> = (0..300_000usize)
            .map(|i| {
                let wm = if pattern[(i + 17) % 4095] { 1.0 } else { 0.0 };
                wm + ((i * 2654435761) % 1000) as f64 * 0.01
            })
            .collect();
        let (mut c, mut m, mut ones) = (Vec::new(), Vec::new(), Vec::new());
        let inputs = inputs_for(&pattern, &y, &mut c, &mut m, &mut ones);
        let folded = spectrum_folded(&inputs, 1);
        for (r, rho) in folded.rho().iter().enumerate() {
            assert_eq!(rho.to_bits(), inputs.rho_at(r).to_bits(), "rotation {r}");
        }
        let fft = spectrum_fft(&inputs, 1);
        assert_eq!(fft.peak_abs().0, folded.peak_abs().0, "peak rotation");
        assert_eq!(
            fft.peak_abs().1.to_bits(),
            folded.peak_abs().1.to_bits(),
            "peak rho {} vs {}",
            fft.peak_abs().1,
            folded.peak_abs().1
        );
    }

    proptest! {
        /// The chunked-SoA spectrum is bit-identical to the scalar
        /// `rho_at` reference for every kernel and thread count — the
        /// guarantee the byte-compared campaign reports rest on. (The
        /// FFT kernel's guarantee is peak-exactness; its full spectrum
        /// is compared at the refined candidates.)
        #[test]
        fn soa_spectrum_is_bit_identical_for_every_algo_and_thread_count(
            period in 3usize..80,
            len_mult in 2usize..9,
            phase in 0usize..79,
            threads in 1usize..9,
        ) {
            let pattern: Vec<bool> = (0..period).map(|i| (i * 13) % 7 < 3).collect();
            prop_assume!(pattern.iter().any(|&b| b) && pattern.iter().any(|&b| !b));
            let y: Vec<f64> = (0..period * len_mult + 1)
                .map(|i| {
                    let wm = if pattern[(i + phase) % period] { 0.6 } else { 0.0 };
                    wm + ((i * 2654435761usize) % 1000) as f64 * 0.002
                })
                .collect();
            let (mut c, mut m, mut ones) = (Vec::new(), Vec::new(), Vec::new());
            let inputs = inputs_for(&pattern, &y, &mut c, &mut m, &mut ones);
            let reference: Vec<f64> = (0..period).map(|r| inputs.rho_at(r)).collect();

            let folded = spectrum_folded(&inputs, threads);
            for (r, (a, b)) in folded.rho().iter().zip(&reference).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "folded, rotation {}", r);
            }
            let fft = spectrum_fft(&inputs, threads);
            prop_assert_eq!(fft.peak_abs().0, folded.peak_abs().0);
            prop_assert_eq!(
                fft.peak_abs().1.to_bits(),
                folded.peak_abs().1.to_bits()
            );
            prop_assert_eq!(fft.peak().1.to_bits(), folded.peak().1.to_bits());
        }
    }

    #[test]
    fn candidate_selection_keeps_ties_and_near_ties() {
        let rho = [0.1, 0.9, -0.9, 0.9 - 1e-7, 0.0];
        let candidates = refinement_candidates(&rho);
        // Everything is a candidate here (tiny spectrum, top-K covers it),
        // but the near-tie logic must specifically keep 1, 2 and 3.
        assert!(candidates.contains(&1));
        assert!(candidates.contains(&2));
        assert!(candidates.contains(&3));
    }
}
