//! The attack↔defense scenario engine: a matrix of adversarial cells run
//! as resumable campaigns.
//!
//! A [`ScenarioMatrix`] is the cross-product `attacks × defenses × snrs`
//! over one corpus. [`ScenarioCampaign`] materialises each cell as a
//! standard [`Campaign`] under `cells/`, so every cell inherits the whole
//! checkpoint/resume machinery for free:
//!
//! ```text
//! scenario/
//!   scenarios.json            # the matrix, published once
//!   cells/
//!     c000_none_none/         # one standard campaign per cell
//!       campaign.json         #   (spec carries the cell's ScenarioSpec)
//!       results.jsonl
//!       report.json
//!     c001_none_multi_watermark/
//!     ...
//!   report.json               # merged detection-rate-under-attack report
//! ```
//!
//! Determinism contract: every cell's seed is counter-hashed from the
//! matrix seed, every job's seed from the cell's, and every draw inside a
//! job from the job's — so the merged `report.json` is a pure function of
//! the matrix and the corpus bytes, and kill-anywhere resume reproduces
//! it byte-for-byte (the identity cell through the streaming checkpoint
//! proof, every other cell through whole-job replay).
//!
//! ## How one scenario job runs
//!
//! 1. **Defense embedding** — the defense overlays its own watermark
//!    signal onto the stored trace at `amplitude_watts × snr` (the
//!    defended device's emission); [`DefenseSpec::None`] overlays nothing
//!    and later verifies the trace's native watermark.
//! 2. **Attack** — the cell's [`AttackSpec`] transform runs over the
//!    samples (the adversary sits between device and verifier).
//! 3. **SNR degradation** — deterministic white noise of
//!    `noise_watts × (1/snr − 1)` is added (zero at nominal SNR).
//! 4. **Verification** — the defense's decision procedure runs. Plain
//!    detection scans all rotations; the active defenses are *informed*
//!    verifiers: they know their own schedule, so they check the
//!    correlation z-score at each **expected** rotation (a decoy peak
//!    elsewhere in the spectrum cannot fool them, which is exactly why
//!    jamming loses to them in the matrix).

use crate::attack::{
    hash_gaussian, mix_seed, residues, AttackContext, AttackSpec, DefenseSpec, ScenarioSpec,
};
use crate::campaign::{
    algo_field, decode_head, Campaign, CampaignError, CampaignLimits, CampaignReport, CampaignSpec,
};
use clockmark_corpus::durable;
use clockmark_cpa::{
    CpaAlgo, CpaError, DetectOptions, DetectionCriterion, DetectionResult, Detector,
};
use clockmark_obs::json::{self, DecimalU64, DecodeError, FromJson, Json, Record};
use clockmark_seq::{Lfsr, SequenceGenerator};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// The serializable cross-product: a base [`CampaignSpec`] (corpus,
/// pattern, traces and tuning) run under every combination of attack,
/// defense and SNR.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMatrix {
    /// What every cell runs: corpus, primary pattern, traces (one job
    /// each), criterion, checkpoint cadence, read chunk and kernel. It
    /// sets no sequential schedule, scenario or job ids; each cell pins
    /// its own scenario.
    pub base: CampaignSpec,
    /// The attack axis.
    pub attacks: Vec<AttackSpec>,
    /// The defense axis.
    pub defenses: Vec<DefenseSpec>,
    /// The SNR axis.
    pub snrs: Vec<f64>,
    /// Overlay watermark amplitude at `snr = 1`, in watts.
    pub amplitude_watts: f64,
    /// Reference measurement-noise σ for the SNR axis, in watts.
    pub noise_watts: f64,
    /// Root seed; cell seeds are counter-hashed from it.
    pub seed: u64,
}

impl ScenarioMatrix {
    /// A matrix over the default attack and defense axes at nominal SNR,
    /// with [`CampaignSpec::new`]'s tuning.
    ///
    /// The default seed-hopping dwell is stretched to two pattern periods
    /// where the default is shorter, so the matrix passes its own
    /// [`validate`](ScenarioMatrix::validate) at every LFSR width.
    pub fn new(corpus: impl Into<PathBuf>, pattern: Vec<bool>, traces: Vec<String>) -> Self {
        let defaults = ScenarioSpec::default();
        let min_dwell = 2 * pattern.len() as u64;
        let defenses = DefenseSpec::all_defaults()
            .into_iter()
            .map(|defense| match defense {
                DefenseSpec::SeedHopping { dwell_cycles } => DefenseSpec::SeedHopping {
                    dwell_cycles: dwell_cycles.max(min_dwell),
                },
                other => other,
            })
            .collect();
        ScenarioMatrix {
            base: CampaignSpec::new(corpus, pattern, traces),
            attacks: AttackSpec::all_defaults(),
            defenses,
            snrs: vec![1.0],
            amplitude_watts: defaults.amplitude_watts,
            noise_watts: defaults.noise_watts,
            seed: 0,
        }
    }

    /// Serialises the matrix as one flat JSON object: the base spec's
    /// head, the axes, then the base spec's tuning.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(512);
        self.base.encode_head(&mut out);
        out.push_str(",\"attacks\":");
        json::write_list(&mut out, &self.attacks, |out, a| a.encode_into(out));
        out.push_str(",\"defenses\":");
        json::write_list(&mut out, &self.defenses, |out, d| d.encode_into(out));
        out.push_str(",\"snrs\":");
        json::write_list(&mut out, &self.snrs, |out, &snr| json::write_f64(out, snr));
        out.push_str(",\"amplitude_watts\":");
        json::write_f64(&mut out, self.amplitude_watts);
        out.push_str(",\"noise_watts\":");
        json::write_f64(&mut out, self.noise_watts);
        // As in [`ScenarioSpec`]: a decimal string, the persisted form.
        let _ = write!(out, ",\"seed\":\"{}\"", self.seed);
        self.base.encode_tuning(&mut out);
        out.push('}');
        out
    }

    /// Parses a matrix serialised by [`encode`](ScenarioMatrix::encode)
    /// (or hand-written: every field except `corpus`, `pattern` and
    /// `traces` is optional and falls back to the defaults of
    /// [`ScenarioMatrix::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] for malformed JSON, missing
    /// required fields, unknown attack/defense kinds or kernels, or an
    /// ill-typed field.
    pub fn decode(text: &str) -> Result<Self, CampaignError> {
        Ok(json::decode(text)?)
    }

    /// Validates the matrix: non-empty axes, hopping dwells long enough
    /// to detect a segment, a base that sets no sequential schedule,
    /// scenario or job ids (`scenarios.json` carries none of them), and
    /// every cell's [`CampaignSpec`] valid — the same check a cell
    /// campaign runs when it is created.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Cpa`] for a degenerate pattern and
    /// [`CampaignError::Spec`] naming the offending entry or cell.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.attacks.is_empty() || self.defenses.is_empty() || self.snrs.is_empty() {
            return Err(CampaignError::spec(
                "matrix axes must all be non-empty (attacks, defenses, snrs)",
            ));
        }
        let base = &self.base;
        if base.sequential.is_some() || base.scenario.is_some() || base.job_ids.is_some() {
            return Err(CampaignError::spec(
                "a matrix base sets no sequential schedule, scenario or job ids",
            ));
        }
        for defense in &self.defenses {
            if let DefenseSpec::SeedHopping { dwell_cycles } = defense {
                if (*dwell_cycles as usize) < 2 * base.pattern.len() {
                    return Err(CampaignError::spec(format!(
                        "seed_hopping dwell_cycles {} is shorter than two pattern periods ({})",
                        dwell_cycles,
                        2 * base.pattern.len()
                    )));
                }
            }
        }
        for cell in self.cells() {
            self.cell_spec(&cell).validate().map_err(|e| match e {
                CampaignError::Spec { message } => {
                    CampaignError::spec(format!("cell {}: {message}", cell.id))
                }
                other => other,
            })?;
        }
        Ok(())
    }

    /// The [`CampaignSpec`] a cell runs: the base with the cell's
    /// [`ScenarioSpec`] pinned in.
    fn cell_spec(&self, cell: &ScenarioCell) -> CampaignSpec {
        self.base.clone().with_scenario(cell.spec.clone())
    }

    /// Expands the cross-product into cells, in a stable order (attack
    /// major, then defense, then SNR). Cell seeds are counter-hashed from
    /// the matrix seed, so reordering the axes reshuffles *which* seed
    /// each combination gets but never reuses one.
    pub fn cells(&self) -> Vec<ScenarioCell> {
        let mut cells =
            Vec::with_capacity(self.attacks.len() * self.defenses.len() * self.snrs.len());
        let mut index = 0usize;
        for attack in &self.attacks {
            for defense in &self.defenses {
                for &snr in &self.snrs {
                    let spec = ScenarioSpec {
                        attack: attack.clone(),
                        defense: defense.clone(),
                        snr,
                        amplitude_watts: self.amplitude_watts,
                        noise_watts: self.noise_watts,
                        seed: mix_seed(self.seed, index as u64),
                    };
                    cells.push(ScenarioCell {
                        id: format!("c{index:03}_{}_{}", attack.kind(), defense.kind()),
                        index,
                        spec,
                    });
                    index += 1;
                }
            }
        }
        cells
    }
}

impl FromJson<'_> for ScenarioMatrix {
    fn from_json(value: &Json, path: impl FnOnce() -> String) -> Result<Self, DecodeError> {
        let f = Record::from_json(value, path)?;
        let (corpus, pattern, traces) = decode_head(&f)?;
        let defaults = ScenarioMatrix::new(corpus, pattern, traces);
        let base = defaults.base;
        Ok(ScenarioMatrix {
            attacks: f.or("attacks", defaults.attacks)?,
            defenses: f.or("defenses", defaults.defenses)?,
            snrs: f.or("snrs", defaults.snrs)?,
            amplitude_watts: f.or("amplitude_watts", defaults.amplitude_watts)?,
            noise_watts: f.or("noise_watts", defaults.noise_watts)?,
            seed: f.or("seed", DecimalU64(defaults.seed))?.0,
            base: CampaignSpec {
                criterion: DetectionCriterion {
                    min_peak_ratio: f.or("min_peak_ratio", base.criterion.min_peak_ratio)?,
                    min_zscore: f.or("min_zscore", base.criterion.min_zscore)?,
                },
                checkpoint_cycles: f.or("checkpoint_cycles", base.checkpoint_cycles)?,
                chunk_cycles: f.or("chunk_cycles", base.chunk_cycles)?,
                algo: algo_field(&f)?.unwrap_or(base.algo),
                ..base
            },
        })
    }
}

/// One materialised cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCell {
    /// Directory name under `cells/` (stable across resumes).
    pub id: String,
    /// Position in the cross-product expansion.
    pub index: usize,
    /// The cell's full scenario spec (cell seed already mixed in).
    pub spec: ScenarioSpec,
}

/// Where a scenario campaign currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioStatus {
    /// Cells in the matrix.
    pub cells_total: usize,
    /// Cells whose every job has completed.
    pub cells_complete: usize,
    /// Jobs across all cells.
    pub jobs_total: usize,
    /// Jobs with a persisted outcome.
    pub jobs_completed: usize,
    /// Completed jobs whose watermark was detected.
    pub detected: usize,
}

impl ScenarioStatus {
    /// Whether every cell has completed.
    pub fn is_complete(&self) -> bool {
        self.cells_complete == self.cells_total
    }
}

impl std::fmt::Display for ScenarioStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} cells done ({}/{} jobs, {} detected)",
            self.cells_complete,
            self.cells_total,
            self.jobs_completed,
            self.jobs_total,
            self.detected
        )
    }
}

/// One row of the merged report: a cell and its detection rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCellReport {
    /// Cell directory name.
    pub cell: String,
    /// Attack kind tag.
    pub attack: String,
    /// Defense kind tag.
    pub defense: String,
    /// The cell's SNR.
    pub snr: f64,
    /// Jobs in the cell.
    pub total: usize,
    /// Jobs whose watermark was detected.
    pub detected: usize,
}

impl ScenarioCellReport {
    /// Detection rate of the cell (0 for an empty cell).
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }
}

/// The merged detection-rate-under-attack report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The spectrum kernel every cell ran.
    pub algo: CpaAlgo,
    /// One row per cell, in cross-product order.
    pub cells: Vec<ScenarioCellReport>,
}

impl ScenarioReport {
    /// Serialises the report deterministically: same cell reports in,
    /// same bytes out — what the kill-and-resume smoke test compares.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(128 + self.cells.len() * 128);
        let jobs: usize = self.cells.iter().map(|c| c.total).sum();
        let _ = write!(
            out,
            "{{\"cells\":{},\"jobs\":{},\"algo\":\"{}\",\"results\":",
            self.cells.len(),
            jobs,
            self.algo.as_str()
        );
        json::write_list(&mut out, &self.cells, |out, cell| {
            out.push_str("{\"cell\":");
            json::write_str(out, &cell.cell);
            out.push_str(",\"attack\":");
            json::write_str(out, &cell.attack);
            out.push_str(",\"defense\":");
            json::write_str(out, &cell.defense);
            out.push_str(",\"snr\":");
            json::write_f64(out, cell.snr);
            let _ = write!(
                out,
                ",\"total\":{},\"detected\":{}",
                cell.total, cell.detected
            );
            out.push_str(",\"rate\":");
            json::write_f64(out, cell.rate());
            out.push('}');
        });
        out.push('}');
        out
    }

    /// The report row for an attack/defense pair at a given SNR, if the
    /// matrix ran that cell.
    pub fn cell(&self, attack: &str, defense: &str, snr: f64) -> Option<&ScenarioCellReport> {
        self.cells
            .iter()
            .find(|c| c.attack == attack && c.defense == defense && c.snr == snr)
    }
}

/// A scenario campaign rooted at a directory: the matrix plus one
/// standard [`Campaign`] per cell under `cells/`.
#[derive(Debug)]
pub struct ScenarioCampaign {
    dir: PathBuf,
    matrix: ScenarioMatrix,
    threads: usize,
}

impl ScenarioCampaign {
    /// Creates the scenario directory and persists the matrix. Cells are
    /// materialised lazily by [`run`](ScenarioCampaign::run) — a kill
    /// between creation and the first run loses nothing, because the
    /// cells are a pure function of the persisted matrix.
    ///
    /// # Errors
    ///
    /// Returns the matrix's [`validate`](ScenarioMatrix::validate) errors
    /// and [`CampaignError::Io`] on filesystem failure (including an
    /// existing scenario at `dir`).
    pub fn create(dir: impl Into<PathBuf>, matrix: ScenarioMatrix) -> Result<Self, CampaignError> {
        let dir = dir.into();
        matrix.validate()?;
        durable::create_dir_all(&dir.join("cells"))?;
        let text = format!("{}\n", matrix.encode());
        durable::publish_new(&dir.join("scenarios.json"), text.as_bytes())?;
        Ok(ScenarioCampaign {
            dir,
            matrix,
            threads: clockmark_cpa::thread_count(),
        })
    }

    /// Opens an existing scenario campaign by reading its matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] when `scenarios.json` cannot be read
    /// and [`CampaignError::Spec`] when it is malformed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CampaignError> {
        let dir = dir.into();
        let spec_path = dir.join("scenarios.json");
        let text = fs::read_to_string(&spec_path)
            .map_err(|e| CampaignError::io(format!("reading {}", spec_path.display()), e))?;
        let matrix = ScenarioMatrix::decode(text.trim())?;
        matrix.validate()?;
        Ok(ScenarioCampaign {
            dir,
            matrix,
            threads: clockmark_cpa::thread_count(),
        })
    }

    /// The scenario directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The persisted matrix.
    pub fn matrix(&self) -> &ScenarioMatrix {
        &self.matrix
    }

    /// Overrides the per-cell worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The matrix's cells, in cross-product order.
    pub fn cells(&self) -> Vec<ScenarioCell> {
        self.matrix.cells()
    }

    fn cell_dir(&self, cell: &ScenarioCell) -> PathBuf {
        self.dir.join("cells").join(&cell.id)
    }

    /// Opens a cell's campaign, materialising it on first touch. The
    /// spec is a pure function of the persisted matrix, so a cell created
    /// during a later resume is identical to one created up front.
    fn cell_campaign(&self, cell: &ScenarioCell) -> Result<Campaign, CampaignError> {
        let dir = self.cell_dir(cell);
        let campaign = if dir.join("campaign.json").exists() {
            Campaign::open(dir)?
        } else {
            Campaign::create(dir, self.matrix.cell_spec(cell))?
        };
        Ok(campaign.with_threads(self.threads))
    }

    /// Runs pending cells (subject to `limits`, whose `max_jobs` bounds
    /// the total jobs landed across cells in this call) and returns the
    /// status afterwards. When the last cell completes, the merged
    /// detection-rate report is written to `report.json`.
    ///
    /// Kill-anywhere resume: call again after any interruption and the
    /// campaign continues; the eventual merged report is byte-identical
    /// to an uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell's error, plus persistence errors of
    /// the scenario directory itself.
    pub fn run(&self, limits: &CampaignLimits) -> Result<ScenarioStatus, CampaignError> {
        let _span = clockmark_obs::span("scenario.run")
            .field("cells", self.cells().len())
            .field("jobs", self.cells().len() * self.matrix.base.traces.len());
        let mut budget = limits.max_jobs;
        for cell in self.cells() {
            if budget == Some(0) {
                break;
            }
            let campaign = self.cell_campaign(&cell)?;
            let before = campaign.status()?.completed;
            // A kill can leave a complete cell without its report.
            let reported = campaign.dir().join("report.json").exists();
            if before == self.matrix.base.traces.len() && reported {
                continue;
            }
            let cell_limits = CampaignLimits {
                max_jobs: budget,
                interrupt_job_after_cycles: limits.interrupt_job_after_cycles,
            };
            let status = campaign.run(&cell_limits)?;
            if let Some(remaining) = budget {
                budget = Some(remaining.saturating_sub(status.completed - before));
            }
        }

        let status = self.status()?;
        if status.is_complete() {
            let report = self.report()?;
            durable::publish(
                &self.dir.join("report.json"),
                format!("{}\n", report.encode()).as_bytes(),
            )?;
        }
        Ok(status)
    }

    /// Computes the current status from disk. Cells not yet materialised
    /// count as fully pending.
    ///
    /// # Errors
    ///
    /// Returns the persistence errors of any materialised cell.
    pub fn status(&self) -> Result<ScenarioStatus, CampaignError> {
        let cells = self.cells();
        let per_cell = self.matrix.base.traces.len();
        let mut status = ScenarioStatus {
            cells_total: cells.len(),
            cells_complete: 0,
            jobs_total: cells.len() * per_cell,
            jobs_completed: 0,
            detected: 0,
        };
        for cell in &cells {
            let dir = self.cell_dir(cell);
            if !dir.join("campaign.json").exists() {
                continue;
            }
            let campaign = Campaign::open(dir)?;
            let cell_status = campaign.status()?;
            status.jobs_completed += cell_status.completed;
            status.detected += cell_status.detected;
            if cell_status.is_complete() {
                status.cells_complete += 1;
            }
        }
        Ok(status)
    }

    /// Builds the merged report. Fails until every cell has completed.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Incomplete`] while cells are pending,
    /// plus the persistence errors of the cell campaigns.
    pub fn report(&self) -> Result<ScenarioReport, CampaignError> {
        let mut rows = Vec::new();
        for cell in self.cells() {
            let dir = self.cell_dir(&cell);
            if !dir.join("campaign.json").exists() {
                return Err(CampaignError::Incomplete {
                    completed: rows.len(),
                    total: self.cells().len(),
                });
            }
            let campaign = Campaign::open(dir)?;
            let report: CampaignReport = campaign.report()?;
            rows.push(ScenarioCellReport {
                cell: cell.id.clone(),
                attack: cell.spec.attack.kind().to_owned(),
                defense: cell.spec.defense.kind().to_owned(),
                snr: cell.spec.snr,
                total: report.outcomes.len(),
                detected: report.detected(),
            });
        }
        Ok(ScenarioReport {
            algo: self.matrix.base.algo,
            cells: rows,
        })
    }
}

// ---------------------------------------------------------------------------
// The per-job pipeline: defense embedding, attack, SNR noise, verification.
// ---------------------------------------------------------------------------

/// The verdict of one informed spectrum check: the correlation at the
/// *expected* rotation, z-scored against the whole spectrum.
struct InformedCheck {
    detected: bool,
    expected: usize,
    rho: f64,
    floor: f64,
    ratio: f64,
    zscore: f64,
}

fn informed_check(rho: &[f64], expected: usize, min_zscore: f64) -> InformedCheck {
    // Robust z-score: centre and spread come from the median and the MAD
    // (scaled to σ-equivalent) rather than mean/std, so an attacker who
    // plants decoy peaks elsewhere in the spectrum cannot inflate the
    // dispersion estimate and drown a genuine peak.
    // Both are the element at `len / 2` of the total order, which a
    // selection finds without sorting; one scratch buffer serves both.
    let mid = rho.len() / 2;
    let mut scratch = rho.to_vec();
    let median = *scratch.select_nth_unstable_by(mid, f64::total_cmp).1;
    for (d, r) in scratch.iter_mut().zip(rho) {
        *d = (r - median).abs();
    }
    let mad = *scratch.select_nth_unstable_by(mid, f64::total_cmp).1;
    let spread = if mad > 0.0 {
        1.4826 * mad
    } else {
        let n = rho.len() as f64;
        let mean = rho.iter().sum::<f64>() / n;
        (rho.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / n).sqrt()
    };
    let peak = rho[expected];
    let zscore = if spread > 0.0 {
        (peak - median) / spread
    } else {
        0.0
    };
    let floor = rho
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != expected)
        .map(|(_, r)| r.abs())
        .fold(0.0f64, f64::max);
    InformedCheck {
        detected: peak > 0.0 && zscore >= min_zscore,
        expected,
        rho: peak,
        floor,
        ratio: peak / floor.max(1e-12),
        zscore,
    }
}

impl InformedCheck {
    /// Folds the check into a [`DetectionResult`] with an overriding
    /// composite verdict (majority vote, challenge agreement, …).
    fn into_result(self, detected: bool) -> DetectionResult {
        DetectionResult {
            detected,
            peak_rotation: self.expected,
            peak_rho: self.rho,
            floor_max_abs: self.floor,
            ratio: self.ratio,
            zscore: self.zscore,
        }
    }
}

/// One period of the extra m-sequence a [`DefenseSpec::MultiWatermark`]
/// width contributes to a job of `len` cycles.
fn extra_pattern(width: u32, len: usize) -> Result<Vec<bool>, CpaError> {
    let mut lfsr = Lfsr::maximal(width).map_err(|_| CpaError::ConstantPattern)?;
    let period = lfsr.period_hint().unwrap_or(0) as usize;
    fits(period, len)?;
    Ok((0..period).map(|_| lfsr.next_bit()).collect())
}

/// Refuses a mark of `period` cycles on a job of `len`. The verifier
/// fails on such a mark with this same error, so a plan stops before it
/// generates one — a width-32 mark is 2^32 − 1 bits.
fn fits(period: usize, len: usize) -> Result<(), CpaError> {
    if period > len {
        return Err(CpaError::TraceShorterThanPeriod {
            have: len,
            need: period,
        });
    }
    Ok(())
}

/// The deterministic embed/verify schedule a defense expands to for one
/// job of `len` cycles.
enum DefensePlan {
    /// Plain detection of the native watermark; nothing embedded.
    Undefended,
    /// Coexisting watermarks: `(pattern, phase)` pairs, primary first.
    Multi { marks: Vec<(Vec<bool>, usize)> },
    /// Phase-hopping overlay of the primary pattern: per-dwell phases.
    Hopping { dwell: usize, phases: Vec<usize> },
    /// Challenge-response: base phase, commanded delta, split point.
    Challenge {
        phase: usize,
        delta: usize,
        split: usize,
    },
}

impl DefensePlan {
    fn new(
        defense: &DefenseSpec,
        pattern: &[bool],
        seed: u64,
        len: usize,
    ) -> Result<Self, CpaError> {
        let period = pattern.len().max(1);
        Ok(match defense {
            DefenseSpec::None => DefensePlan::Undefended,
            DefenseSpec::MultiWatermark { extra_widths } => {
                // The verifier meets the primary first.
                fits(pattern.len(), len)?;
                let mut marks = vec![(
                    pattern.to_vec(),
                    (mix_seed(seed, 0) % period as u64) as usize,
                )];
                for (k, &width) in extra_widths.iter().enumerate() {
                    let extra = extra_pattern(width, len)?;
                    let phase = (mix_seed(seed, 1 + k as u64) % extra.len().max(1) as u64) as usize;
                    marks.push((extra, phase));
                }
                DefensePlan::Multi { marks }
            }
            DefenseSpec::SeedHopping { dwell_cycles } => {
                let dwell = (*dwell_cycles as usize).max(1);
                let segments = len.div_ceil(dwell).max(1);
                let phases = (0..segments)
                    .map(|s| (mix_seed(seed, s as u64) % period as u64) as usize)
                    .collect();
                DefensePlan::Hopping { dwell, phases }
            }
            DefenseSpec::ChallengeResponse { phase_delta } => DefensePlan::Challenge {
                phase: (mix_seed(seed, 0) % period as u64) as usize,
                delta: (*phase_delta as usize) % period,
                split: len / 2,
            },
        })
    }

    /// Overlays the defended device's emission onto the stored trace.
    fn embed(&self, pattern: &[bool], amplitude: f64, samples: &mut [f64]) {
        // Sample `i` of `samples` gets `amplitude` where
        // `mark[(shift + i) % P]` is set.
        let overlay = |mark: &[bool], shift: usize, samples: &mut [f64]| {
            for (w, r) in samples.iter_mut().zip(residues(shift, mark.len().max(1))) {
                if mark[r] {
                    *w += amplitude;
                }
            }
        };
        match self {
            DefensePlan::Undefended => {}
            DefensePlan::Multi { marks } => {
                for (mark, phase) in marks {
                    overlay(mark, *phase, samples);
                }
            }
            DefensePlan::Hopping { dwell, phases } => {
                for (s, segment) in samples.chunks_mut(*dwell).enumerate() {
                    let phase = phases[s.min(phases.len() - 1)];
                    overlay(pattern, s * dwell + phase, segment);
                }
            }
            DefensePlan::Challenge {
                phase,
                delta,
                split,
            } => {
                let (challenge, response) = samples.split_at_mut((*split).min(samples.len()));
                overlay(pattern, *phase, challenge);
                overlay(pattern, split + phase + delta, response);
            }
        }
    }

    /// Runs the defense's decision procedure over the (attacked, noisy)
    /// samples.
    fn verify(
        &self,
        pattern: &[bool],
        criterion: &DetectionCriterion,
        algo: CpaAlgo,
        samples: &[f64],
    ) -> Result<DetectionResult, CpaError> {
        let period = pattern.len().max(1);
        let facade = |p: &[bool]| {
            Detector::with_options(
                p,
                DetectOptions::default()
                    .with_algo(algo)
                    .with_criterion(*criterion),
            )
        };
        match self {
            // The undefended verifier scans all rotations with the plain
            // criterion — peak ratio and z-score — like any campaign job.
            DefensePlan::Undefended => facade(pattern)?.detect(samples),
            // Majority vote over the coexisting watermarks, each checked
            // at its own (known) embedding phase. The reported statistics
            // are the primary watermark's.
            DefensePlan::Multi { marks } => {
                let mut votes = 0usize;
                let mut primary = None;
                for (mark, phase) in marks {
                    let spectrum = facade(mark)?.spectrum(samples)?;
                    // Embedding `mark[(i + phase) % P]` is exactly the
                    // detector's rotation-`phase` hypothesis.
                    let expected = phase % mark.len().max(1);
                    let check = informed_check(spectrum.rho(), expected, criterion.min_zscore);
                    if check.detected {
                        votes += 1;
                    }
                    if primary.is_none() {
                        primary = Some(check);
                    }
                }
                let majority = votes >= marks.len().div_ceil(2);
                Ok(primary
                    .expect("at least the primary mark")
                    .into_result(majority))
            }
            // Every dwell segment is detected independently at its own
            // scheduled phase; majority of segments must agree. A decoy
            // peak at any fixed rotation cannot track the hops.
            DefensePlan::Hopping { dwell, phases } => {
                let mut votes = 0usize;
                let mut counted = 0usize;
                let mut first = None;
                let det = facade(pattern)?;
                for (s, &phase) in phases.iter().enumerate() {
                    let start = s * dwell;
                    let end = ((s + 1) * dwell).min(samples.len());
                    if end.saturating_sub(start) < period {
                        continue; // tail shorter than one period: no vote
                    }
                    let spectrum = det.spectrum(&samples[start..end])?;
                    let expected = (start + phase) % period;
                    let check = informed_check(spectrum.rho(), expected, criterion.min_zscore);
                    counted += 1;
                    if check.detected {
                        votes += 1;
                    }
                    if first.is_none() {
                        first = Some(check);
                    }
                }
                match first {
                    Some(check) => {
                        let majority = counted > 0 && votes >= counted.div_ceil(2);
                        Ok(check.into_result(majority))
                    }
                    // Trace shorter than one dwell period: fall back to a
                    // single whole-trace window at the first phase.
                    None => {
                        let spectrum = det.spectrum(samples)?;
                        let expected = phases.first().copied().unwrap_or(0) % period;
                        let check = informed_check(spectrum.rho(), expected, criterion.min_zscore);
                        let detected = check.detected;
                        Ok(check.into_result(detected))
                    }
                }
            }
            // SIGNED-style interrogation: the response window must show
            // exactly the commanded phase change. A forged trace replays
            // the pre-challenge phase and fails the second check.
            DefensePlan::Challenge {
                phase,
                delta,
                split,
            } => {
                let det = facade(pattern)?;
                let (challenge, response) = samples.split_at((*split).min(samples.len()));
                if challenge.len() < period || response.len() < period {
                    // Too short to interrogate: report undetected with
                    // whatever the challenge window shows.
                    let spectrum = det.spectrum(samples)?;
                    let expected = phase % period;
                    let check = informed_check(spectrum.rho(), expected, criterion.min_zscore);
                    return Ok(check.into_result(false));
                }
                // Window 1 carries pattern[(i + phase) % P] from offset 0:
                // the detector reports rotation `phase`. Window 2 starts
                // at `split` with shift `phase + delta`, so its rotation
                // is `(split + phase + delta) % P`.
                let s1 = det.spectrum(challenge)?;
                let e1 = phase % period;
                let c1 = informed_check(s1.rho(), e1, criterion.min_zscore);
                let s2 = det.spectrum(response)?;
                let e2 = (split + phase + delta) % period;
                let c2 = informed_check(s2.rho(), e2, criterion.min_zscore);
                let answered = c1.detected && c2.detected;
                Ok(c1.into_result(answered))
            }
        }
    }
}

/// Runs the full per-job scenario pipeline over a buffered trace and
/// returns the defense's verdict. Pure in `(spec, pattern, criterion,
/// algo, job_index, samples)` — the property every resume guarantee in
/// this module rests on.
pub(crate) fn run_scenario_detection(
    spec: &ScenarioSpec,
    pattern: &[bool],
    criterion: &DetectionCriterion,
    algo: CpaAlgo,
    job_index: usize,
    samples: &mut Vec<f64>,
) -> Result<DetectionResult, CpaError> {
    let job_seed = mix_seed(spec.seed, job_index as u64);
    let overlay_seed = mix_seed(job_seed, 1);
    let attack_seed = mix_seed(job_seed, 2);
    let noise_seed = mix_seed(job_seed, 3);

    // 1. The defended device emits its overlay watermark(s).
    let plan = DefensePlan::new(&spec.defense, pattern, overlay_seed, samples.len())?;
    plan.embed(pattern, spec.overlay_amplitude(), samples);

    // 2. The adversary transforms the capture.
    let attack = spec.attack.build();
    attack.apply(
        &AttackContext {
            seed: attack_seed,
            pattern,
        },
        samples,
    );

    // 3. The SNR axis degrades the measurement.
    let sigma = spec.added_noise_sigma();
    if sigma > 0.0 {
        for (i, w) in samples.iter_mut().enumerate() {
            *w += sigma * hash_gaussian(noise_seed, i as u64);
        }
    }

    // 4. The verifier decides.
    plan.verify(pattern, criterion, algo, samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern() -> Vec<bool> {
        let mut lfsr = Lfsr::maximal(6).expect("width 6");
        (0..lfsr.period_hint().expect("maximal period"))
            .map(|_| lfsr.next_bit())
            .collect()
    }

    /// A native-marked trace like the corpus builder writes: pattern at a
    /// phase, amplitude, deterministic noise.
    fn marked(
        pattern: &[bool],
        cycles: usize,
        phase: usize,
        amp: f64,
        noise: f64,
        seed: u64,
    ) -> Vec<f64> {
        (0..cycles)
            .map(|i| {
                let base = if pattern[(i + phase) % pattern.len()] {
                    amp
                } else {
                    0.0
                };
                1.0 + base + noise * hash_gaussian(seed, i as u64)
            })
            .collect()
    }

    fn spec(attack: AttackSpec, defense: DefenseSpec) -> ScenarioSpec {
        ScenarioSpec {
            attack,
            defense,
            snr: 1.0,
            amplitude_watts: 0.4,
            noise_watts: 0.05,
            seed: 77,
        }
    }

    fn detect(spec: &ScenarioSpec, samples: &[f64]) -> DetectionResult {
        let pattern = pattern();
        let mut buffered = samples.to_vec();
        run_scenario_detection(
            spec,
            &pattern,
            &DetectionCriterion::default(),
            CpaAlgo::Folded,
            0,
            &mut buffered,
        )
        .expect("pipeline runs")
    }

    #[test]
    fn pipeline_is_deterministic() {
        let pattern = pattern();
        let trace = marked(&pattern, 63 * 64, 3, 0.4, 0.05, 5);
        for attack in AttackSpec::all_defaults() {
            for defense in DefenseSpec::all_defaults() {
                let s = spec(attack.clone(), defense.clone());
                let a = detect(&s, &trace);
                let b = detect(&s, &trace);
                assert_eq!(a, b, "{attack:?} x {defense:?}");
            }
        }
    }

    #[test]
    fn undefended_marked_trace_detects_without_attack() {
        let pattern = pattern();
        let trace = marked(&pattern, 63 * 128, 3, 0.4, 0.05, 5);
        let result = detect(&spec(AttackSpec::None, DefenseSpec::None), &trace);
        assert!(result.detected);
    }

    #[test]
    fn jamming_defeats_plain_detection_but_not_informed_defenses() {
        let pattern = pattern();
        let trace = marked(&pattern, 63 * 128, 3, 0.4, 0.05, 5);
        let jam = AttackSpec::Jamming {
            amplitude_watts: 0.4,
        };
        let plain = detect(&spec(jam.clone(), DefenseSpec::None), &trace);
        assert!(!plain.detected, "decoy peak kills the ratio criterion");
        let hopping = detect(
            &spec(
                jam.clone(),
                DefenseSpec::SeedHopping {
                    dwell_cycles: 63 * 16,
                },
            ),
            &trace,
        );
        assert!(hopping.detected, "a fixed decoy cannot track the hops");
        let multi = detect(
            &spec(
                jam,
                DefenseSpec::MultiWatermark {
                    extra_widths: vec![5, 7],
                },
            ),
            &trace,
        );
        assert!(multi.detected, "informed phase checks see past the decoy");
    }

    #[test]
    fn replay_fools_plain_detection_but_fails_the_challenge() {
        let pattern = pattern();
        let trace = marked(&pattern, 63 * 128, 3, 0.4, 0.05, 5);
        let replay = AttackSpec::Replay {
            estimate_cycles: 63 * 64,
            noise_watts: 0.02,
        };
        let plain = detect(&spec(replay.clone(), DefenseSpec::None), &trace);
        assert!(
            plain.detected,
            "the forgery carries the estimated watermark"
        );
        let challenged = detect(
            &spec(replay, DefenseSpec::ChallengeResponse { phase_delta: 17 }),
            &trace,
        );
        assert!(
            !challenged.detected,
            "a frozen-phase forgery cannot answer the phase command"
        );
    }

    #[test]
    fn challenge_response_accepts_an_honest_device() {
        let pattern = pattern();
        let trace = marked(&pattern, 63 * 128, 3, 0.4, 0.05, 5);
        let result = detect(
            &spec(
                AttackSpec::None,
                DefenseSpec::ChallengeResponse { phase_delta: 17 },
            ),
            &trace,
        );
        assert!(
            result.detected,
            "the defended device answers its own challenge"
        );
    }

    #[test]
    fn gate_disable_strips_the_primary_but_multi_watermark_survives() {
        let pattern = pattern();
        let trace = marked(&pattern, 63 * 128, 3, 0.4, 0.05, 5);
        let strip = AttackSpec::GateDisable {
            fraction: 1.0,
            estimate_cycles: u64::MAX,
        };
        let plain = detect(&spec(strip.clone(), DefenseSpec::None), &trace);
        assert!(!plain.detected, "full disable removes the period-P profile");
        let multi = detect(
            &spec(
                strip,
                DefenseSpec::MultiWatermark {
                    extra_widths: vec![5, 7],
                },
            ),
            &trace,
        );
        assert!(
            multi.detected,
            "watermarks at other periods survive a period-P subtraction"
        );
    }

    /// Pins every sample and verdict bit the per-job pipeline produces at
    /// paper period (P = 4095) for every attack × defense kind, so a
    /// rewrite of any embed, attack or verify loop must reproduce the
    /// digest exactly. The trace length is not a multiple of P, `snr` is
    /// below 1 so the noise stage runs, and the hopping defense appears
    /// both with the default dwell (shorter than P: the whole-trace
    /// fallback) and with a dwell of 2P (per-segment votes and a short
    /// tail).
    #[test]
    fn scenario_pipeline_digest_is_pinned_at_paper_period() {
        fn fnv1a(hash: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *hash ^= u64::from(b);
                *hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        let mut lfsr = Lfsr::maximal(12).expect("width 12");
        let pattern: Vec<bool> = (0..lfsr.period_hint().expect("maximal period"))
            .map(|_| lfsr.next_bit())
            .collect();
        assert_eq!(pattern.len(), 4095);
        let trace = marked(&pattern, 4 * 4095 + 1237, 1000, 0.02, 0.05, 11);
        let mut defenses = DefenseSpec::all_defaults();
        defenses.push(DefenseSpec::SeedHopping { dwell_cycles: 8190 });
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut detected = 0usize;
        let mut runs = 0usize;
        for attack in AttackSpec::all_defaults() {
            for defense in &defenses {
                let spec = ScenarioSpec {
                    attack: attack.clone(),
                    defense: defense.clone(),
                    snr: 0.5,
                    amplitude_watts: 0.02,
                    noise_watts: 0.05,
                    seed: 0x5eed_5ce4,
                };
                for job in [0usize, 1, 5] {
                    let mut samples = trace.clone();
                    let result = run_scenario_detection(
                        &spec,
                        &pattern,
                        &DetectionCriterion::default(),
                        CpaAlgo::Fft,
                        job,
                        &mut samples,
                    )
                    .expect("pipeline runs");
                    for w in &samples {
                        fnv1a(&mut hash, &w.to_bits().to_le_bytes());
                    }
                    fnv1a(&mut hash, &[u8::from(result.detected)]);
                    fnv1a(&mut hash, &(result.peak_rotation as u64).to_le_bytes());
                    for v in [
                        result.peak_rho,
                        result.floor_max_abs,
                        result.ratio,
                        result.zscore,
                    ] {
                        fnv1a(&mut hash, &v.to_bits().to_le_bytes());
                    }
                    detected += usize::from(result.detected);
                    runs += 1;
                }
            }
        }
        assert_eq!(runs, 6 * 5 * 3);
        assert!(
            detected > 0 && detected < runs,
            "{detected}/{runs} detected"
        );
        assert_eq!(hash, 0x0D2C_DE19_CA56_AB3E, "scenario pipeline digest");
    }

    #[test]
    fn matrix_round_trips_and_expands_deterministically() {
        let mut matrix =
            ScenarioMatrix::new("/tmp/corpus", pattern(), vec!["a".into(), "b".into()]);
        // Full-range u64: the seed must survive the JSON round-trip
        // without being squeezed through an f64.
        matrix.seed = u64::MAX - 12;
        let text = matrix.encode();
        let back = ScenarioMatrix::decode(&text).expect("round trips");
        assert_eq!(back, matrix);
        let cells = matrix.cells();
        assert_eq!(
            cells.len(),
            matrix.attacks.len() * matrix.defenses.len() * matrix.snrs.len()
        );
        // Cell seeds are all distinct.
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.spec.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len());
        // Ids are unique and stable.
        assert_eq!(cells[0].id, "c000_none_none");
        assert!(cells.iter().any(|c| c.spec.is_identity()));
    }

    #[test]
    fn matrix_decode_is_tolerant_of_minimal_input() {
        let minimal = r#"{"corpus":"/c","pattern":"101","traces":["t0"]}"#;
        let matrix = ScenarioMatrix::decode(minimal).expect("tolerant");
        assert_eq!(matrix.attacks, AttackSpec::all_defaults());
        assert_eq!(matrix.defenses, DefenseSpec::all_defaults());
        assert_eq!(matrix.snrs, vec![1.0]);
    }

    #[test]
    fn matrix_validation_rejects_empty_axes_and_short_dwells() {
        let mut matrix = ScenarioMatrix::new("/c", pattern(), vec!["t".into()]);
        matrix.attacks.clear();
        assert!(matrix.validate().is_err());
        let mut matrix = ScenarioMatrix::new("/c", pattern(), vec!["t".into()]);
        matrix.defenses = vec![DefenseSpec::SeedHopping { dwell_cycles: 3 }];
        assert!(matrix.validate().is_err());
        let mut matrix = ScenarioMatrix::new("/c", pattern(), vec!["t".into()]);
        matrix.base.chunk_cycles = usize::MAX;
        assert!(matrix.validate().is_err(), "oversized chunk");
    }

    /// Every cell runs `CampaignSpec::validate`, so a matrix no cell
    /// campaign could create or reopen is refused before anything is
    /// written; `scenarios.json` carries no base flavour or job ids.
    #[test]
    fn matrix_validation_runs_every_cell_spec_check() {
        let fresh = || ScenarioMatrix::new("/c", pattern(), vec!["t0".into()]);
        let mut duplicate = fresh();
        duplicate.base.traces.push("t0".into());
        let mut not_finite = fresh();
        not_finite.base.criterion.min_zscore = f64::NAN;
        let mut sequential = fresh();
        sequential.base.sequential = Some(clockmark_cpa::SequentialOptions::default());
        let mut scenario = fresh();
        scenario.base.scenario = Some(ScenarioSpec::default());
        let mut ids = fresh();
        ids.base.job_ids = Some(vec![0]);
        for (want, matrix) in [
            ("duplicate trace `t0`", duplicate),
            ("min_zscore must be finite", not_finite),
            ("sets no sequential schedule", sequential),
            ("sets no sequential schedule", scenario),
            ("sets no sequential schedule", ids),
        ] {
            let err = matrix.validate().unwrap_err().to_string();
            assert!(err.contains(want), "{want}: {err}");
        }
        let mut constant = fresh();
        constant.base.pattern = vec![true; 8];
        assert!(matches!(
            constant.validate().unwrap_err(),
            CampaignError::Cpa(CpaError::ConstantPattern)
        ));
        fresh().validate().expect("the default matrix validates");
    }

    /// A multi-watermark mark longer than the job fails before it is
    /// generated, with the error the verifier would have given: width 32
    /// would otherwise build 2^32 − 1 bits twice.
    #[test]
    fn an_extra_width_beyond_the_job_fails_before_it_is_generated() {
        let pattern = pattern();
        let trace = marked(&pattern, 500, 3, 0.4, 0.05, 5);
        let t0 = std::time::Instant::now();
        for width in [10, 32] {
            let mut samples = trace.clone();
            let err = run_scenario_detection(
                &spec(
                    AttackSpec::None,
                    DefenseSpec::MultiWatermark {
                        extra_widths: vec![5, width],
                    },
                ),
                &pattern,
                &DetectionCriterion::default(),
                CpaAlgo::Folded,
                0,
                &mut samples,
            )
            .unwrap_err();
            let need = (1usize << width) - 1;
            assert_eq!(err, CpaError::TraceShorterThanPeriod { have: 500, need });
        }
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn scenario_report_encoding_is_deterministic_and_queryable() {
        let report = ScenarioReport {
            algo: CpaAlgo::Folded,
            cells: vec![
                ScenarioCellReport {
                    cell: "c000_none_none".into(),
                    attack: "none".into(),
                    defense: "none".into(),
                    snr: 1.0,
                    total: 4,
                    detected: 3,
                },
                ScenarioCellReport {
                    cell: "c001_jamming_none".into(),
                    attack: "jamming".into(),
                    defense: "none".into(),
                    snr: 0.5,
                    total: 4,
                    detected: 0,
                },
            ],
        };
        assert_eq!(report.encode(), report.encode());
        assert!(report.encode().contains("\"rate\":0.75"));
        let row = report.cell("jamming", "none", 0.5).expect("row exists");
        assert_eq!(row.detected, 0);
        assert!(report.cell("dvfs", "none", 1.0).is_none());
    }
}
