//! Seeded synthetic inputs: paper-scale power traces at the Fig. 5
//! signal-to-noise ratio, the trace corpus built from them, and the
//! identification candidates.
//!
//! Everything here is a pure function of the workload seed, drawn with the
//! benchmark's own generator, so the program under test sees only the
//! generated samples.

use clockmark::corpus::{Corpus, CorpusError, TraceHeader};
use clockmark::cpa::{CandidatePattern, DetectionResult, Detector, SequentialOptions};
use clockmark::seq::{Lfsr, SequenceGenerator};
use clockmark::WgcConfig;
use std::path::Path;

/// Cycles in one paper-scale measurement (the vector `Y`).
pub const PAPER_CYCLES: usize = 300_000;

/// Watermark amplitude of the synthetic traces, in watts.
pub const FIG5_AMPLITUDE_W: f64 = 1.5e-3;

/// Per-cycle measurement noise σ of the synthetic traces, in watts.
///
/// With a balanced pattern the correlation of a marked trace is about
/// `A / 2σ` = 0.0167, inside the 0.015–0.02 band of the paper's Fig. 5,
/// and the floor of an unmarked trace is flat at `1/√N`.
pub const FIG5_NOISE_W: f64 = 0.045;

/// Mean chip power under the watermark, in watts.
pub const BASE_W: f64 = 0.012;

/// SplitMix64: a small, seedable, well-mixed generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
    spare: Option<f64>,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 {
            state: seed,
            spare: None,
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A standard normal draw (Box–Muller, both values used).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }
}

/// Mixes `index` into `seed`, so each derived stream is independent.
pub fn derive(seed: u64, index: u64) -> u64 {
    SplitMix64::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// One period of the paper's watermark: the 12-bit maximal LFSR (P = 4095).
pub fn paper_pattern() -> Vec<bool> {
    WgcConfig::paper()
        .expected_pattern()
        .expect("the paper WGC is a valid configuration")
}

/// A synthetic measured trace of `cycles` cycles: base power, Gaussian
/// noise at [`FIG5_NOISE_W`], and, when `phase` is given, the watermark at
/// [`FIG5_AMPLITUDE_W`] with sample `i` carrying `pattern[(i + phase) % P]`
/// — which rotational CPA reports as rotation `phase`.
pub fn synth_trace(pattern: &[bool], cycles: usize, phase: Option<usize>, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let period = pattern.len();
    (0..cycles)
        .map(|i| {
            let mark = match phase {
                Some(phase) if pattern[(i + phase) % period] => FIG5_AMPLITUDE_W,
                _ => 0.0,
            };
            BASE_W + mark + FIG5_NOISE_W * rng.gaussian()
        })
        .collect()
}

/// What one synthetic trace holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracePlan {
    /// Corpus name.
    pub name: String,
    /// Watermark rotation, or `None` for an unmarked trace.
    pub phase: Option<usize>,
    /// Seed of the trace's noise.
    pub seed: u64,
}

/// `count` trace plans drawn from `seed`: a third of them (rounded down)
/// unmarked, the rest marked at seeded rotations in `0..period`.
pub fn trace_plans(seed: u64, count: usize, period: usize) -> Vec<TracePlan> {
    let mut rng = SplitMix64::new(derive(seed, 1));
    // A seeded Fisher–Yates shuffle picks which positions stay unmarked.
    let mut order: Vec<usize> = (0..count).collect();
    for i in (1..count).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    let unmarked = &order[..count / 3];
    (0..count)
        .map(|i| {
            let phase = rng.below(period as u64) as usize;
            let seed = derive(seed, 100 + i as u64);
            if unmarked.contains(&i) {
                TracePlan {
                    name: format!("t{i:02}_unmarked"),
                    phase: None,
                    seed,
                }
            } else {
                TracePlan {
                    name: format!("t{i:02}_marked"),
                    phase: Some(phase),
                    seed,
                }
            }
        })
        .collect()
}

/// Noise draws per trace [`accepted_plans`] tries before it keeps the last.
pub const MAX_DRAWS: u64 = 16;

/// [`trace_plans`], with each trace's noise redrawn from the seeded stream
/// until `accept` takes the `cycles`-cycle trace, or [`MAX_DRAWS`] draws
/// are spent (the last is then kept, so a detector that accepts nothing
/// fails the run instead of hanging it). Returns the plans and the number
/// of redraws. Phases and the marked/unmarked split do not change.
pub fn accepted_plans(
    seed: u64,
    count: usize,
    pattern: &[bool],
    cycles: usize,
    mut accept: impl FnMut(&TracePlan, &[f64]) -> bool,
) -> (Vec<TracePlan>, u64) {
    let mut redraws = 0;
    let plans = trace_plans(seed, count, pattern.len())
        .into_iter()
        .map(|mut plan| {
            let first = plan.seed;
            for draw in 0..MAX_DRAWS {
                if draw > 0 {
                    plan.seed = derive(first, draw);
                    redraws += 1;
                }
                if accept(&plan, &synth_trace(pattern, cycles, plan.phase, plan.seed)) {
                    break;
                }
            }
            plan
        })
        .collect();
    (plans, redraws)
}

/// Whether `result` is the plan's ground truth: a marked trace detected
/// at its rotation, an unmarked one not detected.
pub fn matches_truth(plan: &TracePlan, result: &DetectionResult) -> bool {
    match plan.phase {
        Some(phase) => result.detected && result.peak_rotation == phase,
        None => !result.detected,
    }
}

/// Whether the in-process `det` gets every verdict on `samples` right:
/// fixed-budget and default sequential detection, and, given
/// `candidates` (the true pattern first), identification. At the Fig. 5
/// SNR the criterion itself misses or false-alarms on about one trace in
/// two hundred; [`accepted_plans`] with this check keeps such draws out of
/// the inputs, so every verdict the benchmark checks has a known answer.
pub fn detector_agrees(
    det: &Detector,
    plan: &TracePlan,
    samples: &[f64],
    candidates: &[CandidatePattern],
) -> bool {
    let fixed = det.detect(samples).is_ok_and(|r| matches_truth(plan, &r));
    let sequential = det
        .detect_sequential(samples, SequentialOptions::default())
        .is_ok_and(|r| matches_truth(plan, &r.result));
    let identified = candidates.is_empty()
        || det
            .identify(samples, candidates)
            .is_ok_and(|r| match plan.phase {
                Some(_) => {
                    r.best().label == candidates[0].label && matches_truth(plan, &r.best().result)
                }
                None => r.scores.iter().all(|s| !s.result.detected),
            });
    fixed && sequential && identified
}

/// Generates every planned trace and stores it in a new corpus at `dir`,
/// through the corpus' public writer.
///
/// # Errors
///
/// Propagates the corpus' errors.
pub fn write_corpus(
    dir: &Path,
    pattern: &[bool],
    plans: &[TracePlan],
    cycles: usize,
) -> Result<Corpus, CorpusError> {
    let mut corpus = Corpus::create(dir)?;
    for plan in plans {
        let samples = synth_trace(pattern, cycles, plan.phase, plan.seed);
        let header = TraceHeader {
            seed: plan.seed,
            ..TraceHeader::bare(0)
        };
        corpus.add(&plan.name, header, &samples)?;
    }
    Ok(corpus)
}

/// `count` distinct identification candidates of the pattern's period:
/// the true pattern first, labelled `true`, then sequences of other
/// 12-bit maximal registers (different feedback polynomials, so none is
/// a phase shift of another), found by a fixed search.
pub fn candidates(pattern: &[bool], count: usize) -> Vec<CandidatePattern> {
    let period = pattern.len();
    let width = period.trailing_ones();
    let mut out = vec![CandidatePattern::new("true", pattern.to_vec())];
    let mut seen = vec![pattern.to_vec()];
    'search: for a in 1..width {
        for b in (a + 1)..width {
            for c in (b + 1)..width {
                if out.len() >= count {
                    break 'search;
                }
                let Ok(lfsr) = Lfsr::with_taps(width, &[width, c, b, a], 1) else {
                    continue;
                };
                if lfsr.period_exhaustive() != period as u64 {
                    continue;
                }
                let mut lfsr = lfsr;
                let bits: Vec<bool> = (0..period).map(|_| lfsr.next_bit()).collect();
                if seen.contains(&bits) {
                    continue;
                }
                seen.push(bits.clone());
                out.push(CandidatePattern::new(format!("lfsr_{a}_{b}_{c}"), bits));
            }
        }
    }
    out
}
