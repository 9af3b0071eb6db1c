//! The adversarial-scenario subcommands: running an attack × defense ×
//! SNR matrix as a resumable campaign and rendering its
//! detection-rate-under-attack report.
//!
//! `campaign run <dir> --scenarios <file>` materialises the matrix from
//! a `scenarios.json` (write a starting point with `scenario template`)
//! and shards the cross-product through the standard campaign
//! checkpoint/resume machinery; `campaign resume` and `campaign status`
//! recognise a scenario directory by its `scenarios.json` and dispatch
//! here. `scenario report <dir>` renders the merged report as a matrix
//! table.

use crate::commands::PatternSpec;
use crate::fleet::CampaignRunOptions;
use crate::ToolError;
use clockmark::corpus::Corpus;
use clockmark::{CampaignLimits, ScenarioCampaign, ScenarioMatrix, ScenarioReport};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Whether `dir` holds a scenario campaign rather than a plain one.
pub fn is_scenario_dir(dir: &Path) -> bool {
    dir.join("scenarios.json").exists()
}

fn open(dir: &Path, options: CampaignRunOptions) -> Result<ScenarioCampaign, ToolError> {
    let campaign = ScenarioCampaign::open(dir)?;
    Ok(if options.threads > 0 {
        campaign.with_threads(options.threads)
    } else {
        campaign
    })
}

fn limits(options: CampaignRunOptions) -> CampaignLimits {
    CampaignLimits {
        max_jobs: options.max_jobs,
        ..CampaignLimits::none()
    }
}

fn render_run(campaign: &ScenarioCampaign, dir: &Path) -> Result<String, ToolError> {
    let status = campaign.status()?;
    let mut out = String::new();
    let _ = writeln!(out, "scenario {}: {status}", dir.display());
    if status.is_complete() {
        out.push_str(&render_report(&campaign.report()?));
        let _ = writeln!(out, "report: {}", dir.join("report.json").display());
    } else {
        let _ = writeln!(out, "resume with: clockmark-cli campaign resume <dir>");
    }
    Ok(out)
}

/// `campaign run --scenarios`: creates a scenario campaign at `dir` from
/// the matrix in `scenarios_path` and runs it.
///
/// # Errors
///
/// Returns matrix decode/validation failures and cell campaign errors;
/// the directory must not already contain a scenario campaign (use
/// `campaign resume` to continue one).
pub fn cmd_scenario_run(
    dir: &Path,
    scenarios_path: &Path,
    options: CampaignRunOptions,
) -> Result<String, ToolError> {
    let text = fs::read_to_string(scenarios_path).map_err(|source| ToolError::Io {
        path: scenarios_path.display().to_string(),
        source,
    })?;
    let matrix = ScenarioMatrix::decode(text.trim())?;
    let mut campaign = ScenarioCampaign::create(dir, matrix)?;
    if options.threads > 0 {
        campaign = campaign.with_threads(options.threads);
    }
    campaign.run(&limits(options))?;
    render_run(&campaign, dir)
}

/// `campaign resume` on a scenario directory: continues pending cells.
///
/// # Errors
///
/// Returns matrix and cell campaign failures.
pub fn cmd_scenario_resume(dir: &Path, options: CampaignRunOptions) -> Result<String, ToolError> {
    let campaign = open(dir, options)?;
    campaign.run(&limits(options))?;
    render_run(&campaign, dir)
}

/// `campaign status` on a scenario directory: progress without running
/// any jobs.
///
/// # Errors
///
/// Returns matrix and cell campaign failures.
pub fn cmd_scenario_status(dir: &Path) -> Result<String, ToolError> {
    let campaign = ScenarioCampaign::open(dir)?;
    let status = campaign.status()?;
    let matrix = campaign.matrix();
    let mut out = String::new();
    let _ = writeln!(out, "scenario {}: {status}", dir.display());
    let _ = writeln!(
        out,
        "corpus: {}, pattern period {}, {} trace(s) per cell, {} spectrum kernel",
        matrix.base.corpus.display(),
        matrix.base.pattern.len(),
        matrix.base.traces.len(),
        matrix.base.algo
    );
    let _ = writeln!(
        out,
        "matrix: {} attack(s) x {} defense(s) x {} snr(s) = {} cell(s)",
        matrix.attacks.len(),
        matrix.defenses.len(),
        matrix.snrs.len(),
        status.cells_total
    );
    if status.is_complete() {
        out.push_str(&render_report(&campaign.report()?));
    }
    Ok(out)
}

/// `scenario report`: renders the merged detection-rate report of a
/// completed (or still-running) scenario campaign.
///
/// # Errors
///
/// Returns matrix and cell campaign failures; an incomplete campaign
/// renders its status instead of failing.
pub fn cmd_scenario_report(dir: &Path) -> Result<String, ToolError> {
    let campaign = ScenarioCampaign::open(dir)?;
    let status = campaign.status()?;
    if !status.is_complete() {
        return Ok(format!(
            "scenario {}: {status}\nreport available once all cells complete\n",
            dir.display()
        ));
    }
    Ok(render_report(&campaign.report()?))
}

/// Renders the report as one attack × defense table per SNR.
pub fn render_report(report: &ScenarioReport) -> String {
    let mut attacks: Vec<&str> = Vec::new();
    let mut defenses: Vec<&str> = Vec::new();
    let mut snrs: Vec<f64> = Vec::new();
    for cell in &report.cells {
        if !attacks.contains(&cell.attack.as_str()) {
            attacks.push(&cell.attack);
        }
        if !defenses.contains(&cell.defense.as_str()) {
            defenses.push(&cell.defense);
        }
        if !snrs.contains(&cell.snr) {
            snrs.push(cell.snr);
        }
    }
    let attack_w = attacks
        .iter()
        .map(|a| a.len())
        .max()
        .unwrap_or(0)
        .max("attack".len());

    let mut out = String::new();
    for &snr in &snrs {
        let _ = writeln!(out, "detection rate under attack (snr {snr}):");
        let _ = write!(out, "  {:<attack_w$}", "attack");
        for defense in &defenses {
            let _ = write!(out, "  {defense:>18}");
        }
        out.push('\n');
        for attack in &attacks {
            let _ = write!(out, "  {attack:<attack_w$}");
            for defense in &defenses {
                match report.cell(attack, defense, snr) {
                    Some(cell) => {
                        let _ = write!(
                            out,
                            "  {:>12} {:>5.2}",
                            format!("{}/{}", cell.detected, cell.total),
                            cell.rate()
                        );
                    }
                    None => {
                        let _ = write!(out, "  {:>18}", "-");
                    }
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Options for `scenario template`.
#[derive(Debug, Clone, Default)]
pub struct ScenarioTemplateOptions {
    /// Trace subset; `None` targets every trace in the corpus.
    pub traces: Option<Vec<String>>,
    /// SNR axis override; `None` keeps the nominal `[1.0]`.
    pub snrs: Option<Vec<f64>>,
    /// Root seed of the matrix.
    pub seed: u64,
    /// Use the lenient detection criterion.
    pub lenient: bool,
}

/// `scenario template`: writes a complete `scenarios.json` over a corpus
/// — the default attack and defense axes, ready to edit and run.
///
/// Returns the serialized matrix text; the caller writes it to disk.
///
/// # Errors
///
/// Returns pattern-spec, corpus-manifest and matrix-validation failures.
pub fn cmd_scenario_template(
    corpus_dir: &Path,
    spec: &PatternSpec,
    options: ScenarioTemplateOptions,
) -> Result<String, ToolError> {
    let pattern = spec.pattern()?;
    let traces = match options.traces {
        Some(list) => list,
        None => {
            let corpus = Corpus::open(corpus_dir)?;
            corpus
                .entries()
                .iter()
                .map(|entry| entry.name.clone())
                .collect()
        }
    };
    let mut matrix = ScenarioMatrix::new(corpus_dir, pattern, traces);
    if let Some(snrs) = options.snrs {
        matrix.snrs = snrs;
    }
    matrix.seed = options.seed;
    if options.lenient {
        matrix.base.criterion = clockmark_cpa::DetectionCriterion::lenient();
    }
    matrix.validate()?;
    Ok(format!("{}\n", matrix.encode()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockmark::scenario::ScenarioCellReport;
    use clockmark::CpaAlgo;

    #[test]
    fn template_validates_at_lfsr_widths_8_and_12() {
        for width in [8, 12] {
            let options = ScenarioTemplateOptions {
                traces: Some(vec!["t0".into()]),
                ..ScenarioTemplateOptions::default()
            };
            let spec = PatternSpec::Lfsr { width, seed: 1 };
            let text = cmd_scenario_template(Path::new("/corpus"), &spec, options)
                .unwrap_or_else(|e| panic!("width {width}: {e}"));
            let matrix = ScenarioMatrix::decode(&text).expect("decodes");
            matrix.validate().expect("the written template validates");
        }
    }

    #[test]
    fn report_renders_one_table_per_snr() {
        let report = ScenarioReport {
            algo: CpaAlgo::Folded,
            cells: vec![
                ScenarioCellReport {
                    cell: "c000_none_none".into(),
                    attack: "none".into(),
                    defense: "none".into(),
                    snr: 1.0,
                    total: 4,
                    detected: 4,
                },
                ScenarioCellReport {
                    cell: "c001_jamming_none".into(),
                    attack: "jamming".into(),
                    defense: "none".into(),
                    snr: 1.0,
                    total: 4,
                    detected: 1,
                },
                ScenarioCellReport {
                    cell: "c002_none_none".into(),
                    attack: "none".into(),
                    defense: "none".into(),
                    snr: 0.5,
                    total: 4,
                    detected: 3,
                },
            ],
        };
        let text = render_report(&report);
        assert!(text.contains("snr 1"), "{text}");
        assert!(text.contains("snr 0.5"), "{text}");
        assert!(text.contains("4/4"), "{text}");
        assert!(text.contains("1/4  0.25"), "{text}");
        // The snr-0.5 table has no jamming row data beyond its one cell.
        assert!(text.contains("3/4"), "{text}");
    }
}
