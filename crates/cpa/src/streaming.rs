use crate::{CpaAlgo, CpaError, DetectionCriterion, DetectionResult, SpreadSpectrum};

/// An incremental rotational-CPA detector.
///
/// The folded algorithm of [`Detector::detect`](crate::Detector::detect)
/// maintains only per-residue sums of the measurement, so it can be updated
/// one cycle at a time. `StreamingCpa` exposes that: feed cycles as the
/// oscilloscope produces them, query the spectrum whenever you like, and
/// stop as soon as the detection criterion is met — answering the
/// practical question behind the paper's fixed N = 300,000: *how many
/// cycles does this chip actually need?*
///
/// ```
/// # fn main() -> Result<(), clockmark_cpa::CpaError> {
/// use clockmark_cpa::{DetectionCriterion, StreamingCpa};
///
/// let pattern = [true, false, true, true, false, false, true, false];
/// let mut detector = StreamingCpa::new(&pattern)?;
/// for i in 0..400 {
///     let y = if pattern[(i + 3) % 8] { 1.0 } else { 0.0 } + (i % 5) as f64 * 0.1;
///     detector.push(y);
/// }
/// let result = detector.detect(&DetectionCriterion::default());
/// assert!(result.detected);
/// assert_eq!(result.peak_rotation, 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingCpa {
    pattern: Vec<bool>,
    ones: Vec<usize>,
    /// Per-residue sums of y.
    residue_sums: Vec<f64>,
    /// Per-residue sample counts.
    residue_counts: Vec<u64>,
    sum_y: f64,
    sum_yy: f64,
    cycles: u64,
    /// Kernel pinned by [`with_algo`](Self::with_algo); `None` resolves
    /// per query (environment override, then work heuristic).
    algo: Option<CpaAlgo>,
}

impl StreamingCpa {
    /// Creates a detector for a watermark pattern (one period).
    ///
    /// # Errors
    ///
    /// Returns [`CpaError::TooShort`] for a pattern shorter than 2 and
    /// [`CpaError::ConstantPattern`] when the pattern has no variance.
    pub fn new(pattern: &[bool]) -> Result<Self, CpaError> {
        if pattern.len() < 2 {
            return Err(CpaError::TooShort { len: pattern.len() });
        }
        let ones: Vec<usize> = (0..pattern.len()).filter(|&i| pattern[i]).collect();
        if ones.is_empty() || ones.len() == pattern.len() {
            return Err(CpaError::ConstantPattern);
        }
        Ok(StreamingCpa {
            ones,
            residue_sums: vec![0.0; pattern.len()],
            residue_counts: vec![0; pattern.len()],
            pattern: pattern.to_vec(),
            sum_y: 0.0,
            sum_yy: 0.0,
            cycles: 0,
            algo: None,
        })
    }

    /// Pins the spectrum kernel, overriding both the `CLOCKMARK_CPA_ALGO`
    /// environment variable and the work heuristic for this detector's
    /// queries. The campaign engine sets this from the kernel recorded in
    /// the campaign spec, so resumed runs replay the same arithmetic
    /// regardless of the resuming process's environment.
    ///
    /// A detector retains no raw trace, so [`CpaAlgo::Naive`] is evaluated
    /// with the (decision-identical) folded arithmetic here.
    #[must_use]
    pub fn with_algo(mut self, algo: CpaAlgo) -> Self {
        self.algo = Some(algo);
        self
    }

    /// The pinned kernel, if [`with_algo`](Self::with_algo) set one.
    pub fn algo(&self) -> Option<CpaAlgo> {
        self.algo
    }

    /// The watermark period.
    pub fn period(&self) -> usize {
        self.pattern.len()
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Feeds one measured cycle.
    pub fn push(&mut self, y: f64) {
        let k = (self.cycles % self.period() as u64) as usize;
        self.residue_sums[k] += y;
        self.residue_counts[k] += 1;
        self.sum_y += y;
        self.sum_yy += y * y;
        self.cycles += 1;
    }

    /// Feeds a batch of cycles.
    pub fn extend_from_slice(&mut self, ys: &[f64]) {
        self.push_chunk(ys);
    }

    /// Bulk-ingests a chunk of cycles.
    ///
    /// Bit-identical to calling [`push`](Self::push) once per value —
    /// each accumulator sees the same values in the same order — but the
    /// work runs through the chunked struct-of-arrays fold kernel
    /// (`fold.rs`): the global sums accumulate in a trace-order unrolled
    /// pass and the per-residue sums in vectorizable period-length
    /// blocks, with no per-sample wrap branch. This is the campaign
    /// replay hot path, where traces arrive as disk-sized chunks rather
    /// than single cycles.
    pub fn push_chunk(&mut self, ys: &[f64]) {
        let period = self.period();
        let k = (self.cycles % period as u64) as usize;
        crate::fold::fold_samples(
            &mut self.residue_sums,
            &mut self.residue_counts,
            &mut self.sum_y,
            &mut self.sum_yy,
            k,
            ys,
        );
        self.cycles += ys.len() as u64;
    }

    /// Computes the current spread spectrum from the accumulated sums.
    ///
    /// The kernel is the one pinned by [`with_algo`](Self::with_algo),
    /// else the `CLOCKMARK_CPA_ALGO` override, else the work heuristic —
    /// the same precedence as [`Detector::detect`](crate::Detector::detect).
    /// The kernel always runs on the calling thread: streaming detectors
    /// live inside campaign worker threads, which must not nest their own
    /// thread pools.
    ///
    /// # Errors
    ///
    /// Returns [`CpaError::InsufficientCycles`] until at least one full
    /// period has been consumed (the `TooShort` variant is reserved for
    /// patterns that are themselves too short).
    pub fn spectrum(&self) -> Result<SpreadSpectrum, CpaError> {
        let period = self.period();
        if self.cycles < period as u64 {
            return Err(CpaError::InsufficientCycles {
                have: self.cycles,
                need: period,
            });
        }
        let algo = self.resolved_algo();
        let _span = clockmark_obs::span("cpa.streaming_spectrum")
            .field("period", period)
            .field("cycles", self.cycles)
            .field("algo", algo.as_str());
        Ok(crate::kernel::spectrum_with_algo(
            &self.as_inputs(),
            algo,
            1,
        ))
    }

    /// Evaluates the criterion against the current spectrum. Before one
    /// full period has been consumed this conservatively reports
    /// "not detected".
    pub fn detect(&self, criterion: &DetectionCriterion) -> DetectionResult {
        match self.spectrum() {
            Ok(spectrum) => spectrum.detect(criterion),
            Err(_) => DetectionResult::UNDECIDED,
        }
    }

    /// Snapshots every accumulator of the fold, bit-exactly.
    ///
    /// The snapshot plus the not-yet-consumed tail of the measurement is
    /// a complete continuation: restoring it with
    /// [`from_state`](Self::from_state) and feeding the remaining cycles
    /// produces results bit-identical to an uninterrupted run. This is
    /// what campaign checkpoints persist.
    pub fn state(&self) -> StreamingCpaState {
        StreamingCpaState {
            pattern: self.pattern.clone(),
            residue_sums: self.residue_sums.clone(),
            residue_counts: self.residue_counts.clone(),
            sum_y: self.sum_y,
            sum_yy: self.sum_yy,
            cycles: self.cycles,
        }
    }

    /// Rebuilds a detector from a [`state`](Self::state) snapshot.
    ///
    /// Snapshots carry only the fold accumulators, never the kernel
    /// choice — re-apply [`with_algo`](Self::with_algo) after restoring
    /// when the kernel must be pinned (the campaign engine records it in
    /// the campaign spec and does exactly that).
    ///
    /// # Errors
    ///
    /// Returns the pattern-validation errors of [`new`](Self::new), and
    /// [`CpaError::InvalidState`] when the snapshot's vectors do not
    /// match the pattern length, its counts are not the ones a fold of
    /// `cycles` cycles leaves, a sum is not finite, or the residue sums
    /// do not add up to `sum_y` or hold more energy than `sum_yy`.
    pub fn from_state(state: StreamingCpaState) -> Result<Self, CpaError> {
        let mut detector = Self::new(&state.pattern)?;
        let period = detector.period();
        if state.residue_sums.len() != period || state.residue_counts.len() != period {
            return Err(CpaError::InvalidState {
                message: format!(
                    "residue vectors of length {}/{} for period {period}",
                    state.residue_sums.len(),
                    state.residue_counts.len()
                ),
            });
        }
        // A fold of `cycles` cycles from residue 0 leaves residue r
        // `cycles / P` visits, plus one when r < `cycles % P`. Checking
        // each count against that (not their sum, which wraps) refuses
        // every forged count.
        let (laps, rest) = (state.cycles / period as u64, state.cycles % period as u64);
        let expected = |r: usize| laps + u64::from((r as u64) < rest);
        if let Some(r) = (0..period).find(|&r| state.residue_counts[r] != expected(r)) {
            return Err(CpaError::InvalidState {
                message: format!(
                    "residue {r} counts {} cycles but a fold of {} leaves {}",
                    state.residue_counts[r],
                    state.cycles,
                    expected(r)
                ),
            });
        }
        let sums = [state.sum_y, state.sum_yy];
        if !sums
            .iter()
            .chain(&state.residue_sums)
            .all(|s| s.is_finite())
        {
            return Err(CpaError::InvalidState {
                message: "non-finite accumulator sums".to_owned(),
            });
        }
        // The residue classes partition the samples, so their sums add
        // up to `sum_y`, and by Cauchy–Schwarz in each class, c²/m is at
        // most that class's Σy², so their total is at most `sum_yy`. Both
        // hold up to the rounding of N additions, at most N·ε·Σ|y|, and
        // Σ|y| ≤ √(N·sum_yy) plus what samples too small to square
        // without underflow add.
        let n = state.cycles as f64;
        let slack = 2.0 * (n + period as f64 + 2.0) * f64::EPSILON;
        let abs_y = n.sqrt() * state.sum_yy.max(0.0).sqrt() + n * f64::MIN_POSITIVE.sqrt();
        let total: f64 = state.residue_sums.iter().sum();
        if (total - state.sum_y).abs() > slack * abs_y {
            return Err(CpaError::InvalidState {
                message: format!(
                    "residue sums add up to {total:e}, not the fold's sum {:e}",
                    state.sum_y
                ),
            });
        }
        let energy: f64 = (state.residue_sums.iter().zip(&state.residue_counts))
            .filter(|&(_, &m)| m > 0)
            .map(|(&c, &m)| c / m as f64 * c)
            .sum();
        if energy > state.sum_yy * (1.0 + slack) + n * f64::MIN_POSITIVE {
            return Err(CpaError::InvalidState {
                message: format!(
                    "residue sums hold energy {energy:e}, over the fold's sum of squares {:e}",
                    state.sum_yy
                ),
            });
        }
        detector.residue_sums = state.residue_sums;
        detector.residue_counts = state.residue_counts;
        detector.sum_y = state.sum_y;
        detector.sum_yy = state.sum_yy;
        detector.cycles = state.cycles;
        Ok(detector)
    }

    /// The kernel a spectrum query runs: the pinned choice, else the
    /// `CLOCKMARK_CPA_ALGO` override, else the work heuristic.
    pub(crate) fn resolved_algo(&self) -> CpaAlgo {
        self.algo
            .or_else(crate::algo::algo_override)
            .unwrap_or_else(|| CpaAlgo::resolved_for_pattern(&self.pattern))
    }

    /// Borrows the fold as the kernel-facing view the spectrum kernels
    /// and the identification ranker operate on.
    pub(crate) fn as_inputs(&self) -> crate::kernel::SpectrumInputs<'_> {
        crate::kernel::SpectrumInputs {
            nf: self.cycles as f64,
            sy: self.sum_y,
            syy: self.sum_yy,
            c: &self.residue_sums,
            m: &self.residue_counts,
            ones: &self.ones,
        }
    }
}

/// The serializable accumulators of a [`StreamingCpa`] fold.
///
/// All fields are public so persistence layers (the campaign engine's
/// binary checkpoints, tests) can encode them bit-exactly; consistency is
/// re-validated by [`StreamingCpa::from_state`] on the way back in.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingCpaState {
    /// One period of the watermark pattern.
    pub pattern: Vec<bool>,
    /// Per-residue sums of y.
    pub residue_sums: Vec<f64>,
    /// Per-residue sample counts.
    pub residue_counts: Vec<u64>,
    /// Running sum of y.
    pub sum_y: f64,
    /// Running sum of y².
    pub sum_yy: f64,
    /// Cycles consumed.
    pub cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, SequentialOptions, Verdict};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spread_spectrum(pattern: &[bool], y: &[f64]) -> Result<SpreadSpectrum, CpaError> {
        Detector::new(pattern)?.spectrum(y)
    }

    fn m_sequence_pattern() -> Vec<bool> {
        use clockmark_seq::{Lfsr, SequenceGenerator};
        let mut lfsr = Lfsr::maximal(7).expect("valid");
        (0..127).map(|_| lfsr.next_bit()).collect()
    }

    fn noisy_trace(
        pattern: &[bool],
        n: usize,
        phase: usize,
        amp: f64,
        noise: f64,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let wm = if pattern[(i + phase) % pattern.len()] {
                    amp
                } else {
                    0.0
                };
                wm + rng.random_range(-noise..noise)
            })
            .collect()
    }

    #[test]
    fn streaming_spectrum_matches_batch_exactly() {
        let pattern = m_sequence_pattern();
        let y = noisy_trace(&pattern, 3000, 41, 0.7, 2.0, 1);

        let batch = spread_spectrum(&pattern, &y).expect("valid");
        let mut streaming = StreamingCpa::new(&pattern).expect("valid");
        streaming.extend_from_slice(&y);
        let incremental = streaming.spectrum().expect("enough cycles");

        for (a, b) in batch.rho().iter().zip(incremental.rho()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    /// Feeds a live stream to a sequential session that looks every
    /// `check_interval` cycles, one interval at a time, and stops pulling
    /// samples at the first accept.
    fn feed_until_decided(
        pattern: &[bool],
        ys: impl IntoIterator<Item = f64>,
        check_interval: u64,
    ) -> Verdict {
        let mut session = Detector::new(pattern)
            .expect("valid")
            .detect_sequential_streaming(SequentialOptions::every(check_interval));
        let mut ys = ys.into_iter();
        let mut pulled = 0;
        while !session.decided() {
            let chunk: Vec<f64> = ys.by_ref().take(check_interval as usize).collect();
            if chunk.is_empty() {
                break;
            }
            pulled += chunk.len() as u64;
            session.push_chunk(&chunk);
        }
        let verdict = session.finalize();
        // The session folded every sample pulled and nothing past its accept.
        assert_eq!(verdict.cycles, pulled);
        verdict
    }

    #[test]
    fn early_stopping_detects_before_the_stream_ends() {
        let pattern = m_sequence_pattern();
        let y = noisy_trace(&pattern, 20_000, 41, 1.0, 2.0, 2);
        let verdict = feed_until_decided(&pattern, y, 127);
        assert!(verdict.early_stopped, "strong watermark must be found");
        assert!(verdict.result.detected);
        assert!(
            verdict.cycles < 20_000,
            "early stop at {} should beat the full trace",
            verdict.cycles
        );
        assert_eq!(verdict.result.peak_rotation, 41);
    }

    #[test]
    fn weak_watermark_needs_more_cycles_than_strong() {
        let pattern = m_sequence_pattern();
        let stopped_at = |amp: f64| {
            let y = noisy_trace(&pattern, 60_000, 10, amp, 2.0, 3);
            let verdict = feed_until_decided(&pattern, y, 127);
            assert!(verdict.result.detected, "amplitude {amp} detects");
            verdict.cycles
        };
        let (strong, weak) = (stopped_at(1.0), stopped_at(0.3));
        assert!(weak > strong, "weak {weak} vs strong {strong}");
    }

    #[test]
    fn absent_watermark_never_stops_early() {
        let pattern = m_sequence_pattern();
        let y = noisy_trace(&pattern, 30_000, 0, 0.0, 2.0, 4);
        let verdict = feed_until_decided(&pattern, y, 127);
        assert!(!verdict.early_stopped);
        assert!(!verdict.result.detected);
        assert_eq!(verdict.cycles, 30_000);
    }

    #[test]
    fn detection_before_one_period_is_conservative() {
        let pattern = m_sequence_pattern();
        let mut streaming = StreamingCpa::new(&pattern).expect("valid");
        for _ in 0..50 {
            streaming.push(1.0);
        }
        assert_eq!(
            streaming.spectrum().unwrap_err(),
            CpaError::InsufficientCycles {
                have: 50,
                need: 127
            }
        );
        assert!(!streaming.detect(&DetectionCriterion::default()).detected);
    }

    #[test]
    fn constructor_validation() {
        assert!(matches!(
            StreamingCpa::new(&[true]).unwrap_err(),
            CpaError::TooShort { len: 1 }
        ));
        assert_eq!(
            StreamingCpa::new(&[true, true]).unwrap_err(),
            CpaError::ConstantPattern
        );
    }

    /// Pins the error-variant split the docs promise: `TooShort` is about
    /// the *pattern* (a constructor-time property), `InsufficientCycles`
    /// is about the *stream* (a query-time property). PR 1 separated the
    /// two; this test keeps them from collapsing back into one variant.
    #[test]
    fn error_variants_split_pattern_from_cycles() {
        // Pattern too short → TooShort from `new`, never InsufficientCycles.
        for pattern in [&[][..], &[true][..], &[false][..]] {
            assert!(
                matches!(
                    StreamingCpa::new(pattern).unwrap_err(),
                    CpaError::TooShort { len } if len == pattern.len()
                ),
                "pattern of length {} must fail with TooShort",
                pattern.len()
            );
        }

        // Too few cycles → InsufficientCycles from `spectrum`, with both
        // counts reported, at every point short of one full period.
        let pattern = [true, false, true, true, false, false, true, false];
        let mut detector = StreamingCpa::new(&pattern).expect("valid pattern");
        for have in 0..pattern.len() as u64 {
            assert_eq!(
                detector.spectrum().unwrap_err(),
                CpaError::InsufficientCycles {
                    have,
                    need: pattern.len()
                },
                "at {have} cycles"
            );
            detector.push(1.0);
        }
        // One full period in: the error clears and a spectrum exists.
        assert!(detector.spectrum().is_ok());
    }

    #[test]
    fn pinned_fft_kernel_reports_the_same_peak_bits_as_folded() {
        let pattern = m_sequence_pattern();
        let y = noisy_trace(&pattern, 5000, 77, 0.6, 2.0, 8);

        let mut folded = StreamingCpa::new(&pattern)
            .expect("valid")
            .with_algo(crate::CpaAlgo::Folded);
        folded.push_chunk(&y);
        let mut fft = StreamingCpa::new(&pattern)
            .expect("valid")
            .with_algo(crate::CpaAlgo::Fft);
        fft.push_chunk(&y);
        assert_eq!(fft.algo(), Some(crate::CpaAlgo::Fft));

        let a = folded.spectrum().expect("complete");
        let b = fft.spectrum().expect("complete");
        assert_eq!(a.peak_abs().0, b.peak_abs().0);
        assert_eq!(a.peak_abs().1.to_bits(), b.peak_abs().1.to_bits());
        for (x, y) in a.rho().iter().zip(b.rho()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn push_chunk_is_bit_identical_to_per_cycle_push() {
        let pattern = m_sequence_pattern();
        let y = noisy_trace(&pattern, 10_000, 23, 0.6, 3.0, 5);

        let mut per_cycle = StreamingCpa::new(&pattern).expect("valid");
        for &v in &y {
            per_cycle.push(v);
        }

        // Uneven chunk sizes, including chunks smaller and larger than
        // the period, must not change a single accumulator bit.
        let mut chunked = StreamingCpa::new(&pattern).expect("valid");
        let mut offset = 0usize;
        for (i, chunk_len) in [1usize, 7, 127, 500, 3, 1024].iter().cycle().enumerate() {
            if offset >= y.len() {
                break;
            }
            let end = (offset + chunk_len + i % 3).min(y.len());
            chunked.push_chunk(&y[offset..end]);
            offset = end;
        }

        assert_eq!(per_cycle, chunked, "fold state must match bit-for-bit");
        let a = per_cycle.spectrum().expect("complete");
        let b = chunked.spectrum().expect("complete");
        for (x, y) in a.rho().iter().zip(b.rho()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        let pattern = m_sequence_pattern();
        let y = noisy_trace(&pattern, 8_000, 12, 0.8, 2.0, 6);
        let (head, tail) = y.split_at(3_141);

        let mut uninterrupted = StreamingCpa::new(&pattern).expect("valid");
        uninterrupted.push_chunk(&y);

        let mut first_half = StreamingCpa::new(&pattern).expect("valid");
        first_half.push_chunk(head);
        let snapshot = first_half.state();
        let mut resumed = StreamingCpa::from_state(snapshot).expect("valid snapshot");
        resumed.push_chunk(tail);

        assert_eq!(uninterrupted, resumed);
        let a = uninterrupted.detect(&DetectionCriterion::default());
        let b = resumed.detect(&DetectionCriterion::default());
        assert_eq!(a.peak_rho.to_bits(), b.peak_rho.to_bits());
        assert_eq!(a.zscore.to_bits(), b.zscore.to_bits());
        assert_eq!(a, b);
    }

    #[test]
    fn corrupted_states_are_rejected() {
        let pattern = m_sequence_pattern();
        let mut detector = StreamingCpa::new(&pattern).expect("valid");
        detector.push_chunk(&noisy_trace(&pattern, 500, 0, 1.0, 1.0, 7));
        let good = detector.state();

        let mut short_sums = good.clone();
        short_sums.residue_sums.pop();
        assert!(matches!(
            StreamingCpa::from_state(short_sums).unwrap_err(),
            CpaError::InvalidState { .. }
        ));

        let mut bad_counts = good.clone();
        bad_counts.residue_counts[0] += 1;
        assert!(matches!(
            StreamingCpa::from_state(bad_counts).unwrap_err(),
            CpaError::InvalidState { .. }
        ));

        let mut nan_sum = good.clone();
        nan_sum.sum_y = f64::NAN;
        assert!(matches!(
            StreamingCpa::from_state(nan_sum).unwrap_err(),
            CpaError::InvalidState { .. }
        ));

        let mut constant = good;
        constant.pattern = vec![true; pattern.len()];
        assert_eq!(
            StreamingCpa::from_state(constant).unwrap_err(),
            CpaError::ConstantPattern
        );
    }

    /// A forged residue sum steers the spectrum while every sum stays
    /// finite; it no longer adds up to `sum_y`.
    #[test]
    fn a_forged_residue_sum_is_refused() {
        let pattern = m_sequence_pattern();
        let mut detector = StreamingCpa::new(&pattern).expect("valid");
        detector.push_chunk(&noisy_trace(&pattern, 500, 0, 1.0, 1.0, 7));
        let mut forged = detector.state();
        forged.residue_sums[0] = 1e300;
        let err = StreamingCpa::from_state(forged).unwrap_err();
        assert!(matches!(err, CpaError::InvalidState { .. }), "{err}");

        // Moving mass between residues keeps the total; it cannot raise
        // one class's energy past what the whole trace holds.
        let mut forged = detector.state();
        let bump = 10.0 * forged.sum_yy.sqrt();
        forged.residue_sums[0] += bump;
        forged.residue_sums[1] -= bump;
        let err = StreamingCpa::from_state(forged).unwrap_err();
        assert!(matches!(err, CpaError::InvalidState { .. }), "{err}");
    }

    /// The bounds hold for every honest snapshot: a refused one would
    /// silently restart a campaign job from cycle 0.
    #[test]
    fn honest_snapshots_pass_the_residue_sum_bounds() {
        let restores = |pattern: &[bool], ys: &[f64], at: &[usize]| {
            let mut detector = StreamingCpa::new(pattern).expect("valid");
            let mut fed = 0;
            for &cut in at {
                detector.push_chunk(&ys[fed..cut]);
                fed = cut;
                let state = detector.state();
                let restored = StreamingCpa::from_state(state.clone())
                    .unwrap_or_else(|e| panic!("P = {}, {cut} cycles: {e}", pattern.len()));
                assert_eq!(restored.state(), state);
            }
        };
        let small = m_sequence_pattern();
        let cuts = [1, 2, 126, 127, 128, 1_000, 5_000];
        // The equality case of Cauchy–Schwarz: every class is constant.
        for level in [0.1, 1e-3, 7.25e3, 1e-160] {
            restores(&small, &vec![level; 5_000], &cuts);
        }
        // A zero-mean ±1 trace: the sums cancel to zero.
        let mut rng = StdRng::seed_from_u64(3);
        let signs: Vec<f64> = (0..5_000)
            .map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 })
            .collect();
        restores(&small, &signs, &cuts);

        // The paper's P = 4095 fold up to its 300,000 cycles.
        use clockmark_seq::{Lfsr, SequenceGenerator};
        let mut lfsr = Lfsr::maximal(12).expect("valid");
        let paper: Vec<bool> = (0..4095).map(|_| lfsr.next_bit()).collect();
        let trace = noisy_trace(&paper, 300_000, 17, 1e-3, 0.5, 11)
            .iter()
            .map(|y| y + 2.0)
            .collect::<Vec<_>>();
        restores(&paper, &trace, &[1, 4_094, 4_095, 50_000, 123_457, 300_000]);
        restores(&paper, &vec![1e-3; 300_000], &[4_096, 300_000]);
    }

    /// Counts whose sum wraps back to `cycles` (`u64::MAX` plus
    /// `c1 + c0 + 1` is `c0 + c1` modulo 2^64) once overflowed a debug
    /// build and restored a forged fold in a release one.
    #[test]
    fn residue_counts_whose_sum_wraps_are_rejected() {
        let pattern = m_sequence_pattern();
        let mut detector = StreamingCpa::new(&pattern).expect("valid");
        detector.push_chunk(&noisy_trace(&pattern, 512, 0, 1.0, 1.0, 7));
        let mut forged = detector.state();
        let (c0, c1) = (forged.residue_counts[0], forged.residue_counts[1]);
        forged.residue_counts[0] = u64::MAX;
        forged.residue_counts[1] = c1 + c0 + 1;
        let err = StreamingCpa::from_state(forged).unwrap_err();
        assert!(matches!(err, CpaError::InvalidState { .. }), "{err}");
    }
}
