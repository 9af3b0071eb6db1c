//! Corpus and campaign subcommands: building trace corpora on disk and
//! running resumable sharded detection campaigns over them.
//!
//! These are the filesystem-facing counterparts to [`crate::commands`]:
//! each function owns one `clockmark-cli corpus …` / `campaign …`
//! subcommand, talks to a [`Corpus`] or [`Campaign`] directory, and
//! returns the report
//! text to print.

use crate::commands::PatternSpec;
use crate::{tracefile, ToolError};
use clockmark::corpus::format::source;
use clockmark::corpus::{
    decode_trace, encode_trace, Corpus, CorpusError, ManifestEntry, TraceHeader, TraceWriter,
};
use clockmark::{
    Campaign, CampaignLimits, CampaignSpec, ChipModel, ClockModulationWatermark, Experiment,
    JobOutcome, WgcConfig,
};
use clockmark_cpa::{CpaAlgo, DetectionCriterion};
use std::fmt::Write as _;
use std::path::Path;

/// Options for `corpus build`: the (chip × seed) measurement grid.
#[derive(Debug, Clone)]
pub struct CorpusBuildOptions {
    /// Chip models to measure.
    pub chips: Vec<ChipModel>,
    /// Acquisition seeds; each yields one trace per chip.
    pub seeds: Vec<u64>,
    /// Cycles per trace.
    pub cycles: usize,
    /// Use the full paper noise model instead of the quick one.
    pub full_noise: bool,
    /// WGC LFSR width.
    pub width: u32,
    /// WGC LFSR seed.
    pub wgc_seed: u32,
    /// Also record a watermark-disabled twin of every trace.
    pub unmarked: bool,
}

impl Default for CorpusBuildOptions {
    fn default() -> Self {
        CorpusBuildOptions {
            chips: vec![ChipModel::ChipI],
            seeds: vec![1],
            cycles: 20_000,
            full_noise: false,
            width: 8,
            wgc_seed: 1,
            unmarked: false,
        }
    }
}

/// Parses a `--chips` list such as `i`, `ii` or `i,ii`.
///
/// # Errors
///
/// Returns [`ToolError::Usage`] for unknown chip names.
pub fn parse_chip_list(text: &str) -> Result<Vec<ChipModel>, ToolError> {
    text.split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(|part| match part {
            "i" => Ok(ChipModel::ChipI),
            "ii" => Ok(ChipModel::ChipII),
            other => Err(ToolError::Usage(format!(
                "--chips must list `i` or `ii`, not `{other}`"
            ))),
        })
        .collect()
}

/// Parses a `--seeds` list: `3`, `1,2,5`, or the inclusive range `1..8`.
///
/// # Errors
///
/// Returns [`ToolError::Usage`] for malformed numbers or empty/backward
/// ranges.
pub fn parse_seed_list(text: &str) -> Result<Vec<u64>, ToolError> {
    let bad = |part: &str| ToolError::Usage(format!("--seeds: cannot parse `{part}`"));
    let mut seeds = Vec::new();
    for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        if let Some((lo, hi)) = part.split_once("..") {
            let lo: u64 = lo.trim().parse().map_err(|_| bad(part))?;
            let hi: u64 = hi.trim().parse().map_err(|_| bad(part))?;
            if hi < lo {
                return Err(ToolError::Usage(format!(
                    "--seeds: range `{part}` is empty (it is inclusive, low..high)"
                )));
            }
            seeds.extend(lo..=hi);
        } else {
            seeds.push(part.parse().map_err(|_| bad(part))?);
        }
    }
    if seeds.is_empty() {
        return Err(ToolError::Usage("--seeds lists no seeds".to_owned()));
    }
    Ok(seeds)
}

fn chip_tag(chip: ChipModel) -> (&'static str, u32) {
    match chip {
        ChipModel::ChipII => ("chip_ii", source::CHIP_II),
        _ => ("chip_i", source::CHIP_I),
    }
}

/// `corpus build`: measures the (chip × seed) grid through the full
/// pipeline and records every trace into the corpus at `dir`.
///
/// A trace the corpus already indexes with the same header and CRC as
/// the one just measured is kept and not written again, so re-running a
/// killed build completes it.
///
/// # Errors
///
/// Returns pipeline and store failures; a trace name the corpus already
/// indexes with a different header or CRC is an error (build into a
/// fresh directory, or re-run with the same flags).
pub fn cmd_corpus_build(dir: &Path, options: &CorpusBuildOptions) -> Result<String, ToolError> {
    let _span = clockmark_obs::span("cli.corpus_build").field("cycles", options.cycles as u64);
    let mut corpus = Corpus::open_or_create(dir)?;
    let arch = ClockModulationWatermark {
        wgc: WgcConfig::MaxLengthLfsr {
            width: options.width,
            seed: options.wgc_seed,
        },
        ..ClockModulationWatermark::paper()
    };

    let mut out = String::new();
    for &chip in &options.chips {
        for &seed in &options.seeds {
            let marks: &[bool] = if options.unmarked {
                &[true, false]
            } else {
                &[true]
            };
            for &enabled in marks {
                let mut experiment = if options.full_noise {
                    let mut e = match chip {
                        ChipModel::ChipII => Experiment::paper_chip_ii(),
                        _ => Experiment::paper_chip_i(),
                    };
                    e.cycles = options.cycles;
                    e.seed = seed;
                    e
                } else {
                    Experiment::quick(options.cycles, seed)
                };
                experiment.chip = chip;
                experiment.watermark_enabled = enabled;

                let run = experiment.run_measured(&arch)?;
                let (tag, src) = chip_tag(chip);
                let name = if enabled {
                    format!("{tag}_s{seed:04}")
                } else {
                    format!("{tag}_s{seed:04}_off")
                };
                let header = TraceHeader {
                    cycles: run.measured.len() as u64,
                    f_clk_hz: experiment.f_clk.hertz(),
                    seed,
                    source: src,
                };
                let watts = run.measured.as_watts();
                if let Some(entry) = corpus.entry(&name) {
                    if *entry == regenerated_entry(entry, header, watts)? {
                        let _ = writeln!(
                            out,
                            "kept {name}: {} cycles, {} bytes, crc32 {:08x}",
                            entry.cycles, entry.bytes, entry.crc32
                        );
                        continue;
                    }
                }
                let entry = corpus.add(&name, header, watts)?;
                let _ = writeln!(
                    out,
                    "added {name}: {} cycles, {} bytes, crc32 {:08x}",
                    entry.cycles, entry.bytes, entry.crc32
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "corpus {}: {} trace(s); detect with --lfsr {} --seed {}",
        dir.display(),
        corpus.len(),
        options.width,
        options.wgc_seed
    );
    Ok(out)
}

/// The entry [`Corpus::add`] would index in place of `existing` for
/// this trace: its header and the CRC of the bytes it would store,
/// computed without writing them.
fn regenerated_entry(
    existing: &ManifestEntry,
    header: TraceHeader,
    watts: &[f64],
) -> Result<ManifestEntry, CorpusError> {
    let mut writer = TraceWriter::new(std::io::sink(), header)?;
    writer.write_samples(watts)?;
    let (_, crc32) = writer.finish()?;
    Ok(ManifestEntry::from_header(
        &existing.name,
        &existing.file,
        &header,
        crc32,
    ))
}

/// `corpus ls`: lists the manifest of the corpus at `dir`.
///
/// # Errors
///
/// Returns store failures (missing or malformed manifest).
pub fn cmd_corpus_ls(dir: &Path) -> Result<String, ToolError> {
    let corpus = Corpus::open(dir)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>12} {:>8}  {:>12} {:>6} source",
        "name", "cycles", "bytes", "crc32", "f_clk", "seed"
    );
    for entry in corpus.entries() {
        let src = match entry.source {
            source::BARE => "bare",
            source::CHIP_I => "chip-i",
            source::CHIP_II => "chip-ii",
            _ => "unknown",
        };
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>12} {:08x}  {:>10.3e}Hz {:>6} {src}",
            entry.name, entry.cycles, entry.bytes, entry.crc32, entry.f_clk_hz, entry.seed
        );
    }
    let _ = writeln!(out, "{} trace(s)", corpus.len());
    Ok(out)
}

/// `corpus verify`: re-reads every trace and checks lengths and CRCs
/// against the manifest.
///
/// # Errors
///
/// Returns store failures, or [`ToolError::Corpus`] naming the number of
/// failing traces so the process exits non-zero when any check fails.
pub fn cmd_corpus_verify(dir: &Path) -> Result<String, ToolError> {
    let corpus = Corpus::open(dir)?;
    let outcomes = corpus.verify()?;
    let mut out = String::new();
    let mut failed = 0usize;
    for outcome in &outcomes {
        let status = if outcome.ok { "ok" } else { "FAIL" };
        let _ = writeln!(out, "{status:<4} {:<24} {}", outcome.name, outcome.detail);
        failed += usize::from(!outcome.ok);
    }
    let _ = writeln!(
        out,
        "verified {} trace(s), {failed} failure(s)",
        outcomes.len()
    );
    if failed > 0 {
        print!("{out}");
        return Err(CorpusError::format(format!("{failed} trace(s) failed verification")).into());
    }
    Ok(out)
}

/// `corpus convert`: converts one trace between the CSV text format and
/// the `.cmt` binary format, detecting the input's format from its magic.
///
/// Returns the converted file bytes plus a one-line report.
///
/// # Errors
///
/// Returns format errors from either codec, including non-finite-value
/// rejection on the binary side.
pub fn cmd_corpus_convert(
    input: &[u8],
    header: TraceHeader,
) -> Result<(Vec<u8>, String), ToolError> {
    if input.starts_with(clockmark::corpus::format::MAGIC) {
        let (header, watts) = decode_trace(input)?;
        let trace = clockmark_power::PowerTrace::from_watts(watts);
        let mut csv = String::with_capacity(trace.len() * 16 + 96);
        let _ = writeln!(
            csv,
            "# converted from .cmt: f_clk {:.6e} Hz, seed {}, source {}",
            header.f_clk_hz, header.seed, header.source
        );
        csv.push_str(&tracefile::write_trace(&trace));
        let report = format!("binary → csv: {} cycles", trace.len());
        Ok((csv.into_bytes(), report))
    } else {
        let text = std::str::from_utf8(input).map_err(|_| ToolError::Trace {
            line: 0,
            message: "input is neither a .cmt file nor UTF-8 CSV text".to_owned(),
        })?;
        let trace = tracefile::read_trace(text)?;
        let header = TraceHeader {
            cycles: trace.len() as u64,
            ..header
        };
        let bytes = encode_trace(header, trace.as_watts())?;
        let report = format!(
            "csv → binary: {} cycles, {} bytes",
            trace.len(),
            bytes.len()
        );
        Ok((bytes, report))
    }
}

pub(crate) fn outcome_line(outcome: &JobOutcome) -> String {
    let r = &outcome.result;
    format!(
        "job {:>4}  {:<24} {}  rot {:>5}  rho {:+.6}  ratio {:>6.2}  z {:>6.2}",
        outcome.index,
        outcome.trace,
        if r.detected { "DETECTED" } else { "absent  " },
        r.peak_rotation,
        r.peak_rho,
        r.ratio,
        r.zscore
    )
}

fn render_run(
    campaign: &Campaign,
    status: &clockmark::CampaignStatus,
) -> Result<String, ToolError> {
    let mut out = String::new();
    let _ = writeln!(out, "campaign {}: {status}", campaign.dir().display());
    if status.is_complete() {
        let report = campaign.report()?;
        for outcome in &report.outcomes {
            out.push_str(&outcome_line(outcome));
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "report: {} ({} of {} detected)",
            campaign.dir().join("report.json").display(),
            report.detected(),
            report.outcomes.len()
        );
    } else {
        let _ = writeln!(out, "resume with: clockmark-cli campaign resume <dir>");
    }
    Ok(out)
}

/// Options for `campaign run` shared with `resume`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignRunOptions {
    /// Worker thread override (0 = auto).
    pub threads: usize,
    /// Stop after at most this many jobs this invocation.
    pub max_jobs: Option<usize>,
    /// Force buffered trace reads instead of memory-mapping (sets
    /// `CLOCKMARK_NO_MMAP` for this process; verdicts are bit-identical
    /// either way).
    pub no_mmap: bool,
}

impl CampaignRunOptions {
    fn limits(self) -> CampaignLimits {
        CampaignLimits {
            max_jobs: self.max_jobs,
            ..CampaignLimits::none()
        }
    }

    fn apply(self, campaign: Campaign) -> Campaign {
        if self.no_mmap {
            std::env::set_var(clockmark::corpus::NO_MMAP_ENV, "1");
        }
        if self.threads > 0 {
            campaign.with_threads(self.threads)
        } else {
            campaign
        }
    }
}

/// Spec-shaping options for `campaign run` (everything persisted into
/// `campaign.json`, as opposed to the per-invocation [`CampaignRunOptions`]).
#[derive(Debug, Clone, Default)]
pub struct CampaignCreateOptions {
    /// Trace subset; `None` targets every trace in the corpus.
    pub traces: Option<Vec<String>>,
    /// Use the lenient detection criterion.
    pub lenient: bool,
    /// Checkpoint interval override in cycles.
    pub checkpoint_cycles: Option<u64>,
    /// Read-chunk size override in cycles.
    pub chunk_cycles: Option<usize>,
    /// Sequential early-termination schedule; `None` keeps classic
    /// fixed-budget jobs. Persisted into `campaign.json`, so a resume
    /// replays the same schedule without re-passing the flags.
    pub sequential: Option<clockmark_cpa::SequentialOptions>,
    /// Spectrum kernel override; `None` resolves from `CLOCKMARK_CPA_ALGO`
    /// or the work heuristic and is then pinned in the spec.
    pub algo: Option<CpaAlgo>,
}

impl CampaignCreateOptions {
    /// Shapes a [`CampaignSpec`] over `corpus_dir` from these options:
    /// the shared front half of `campaign run` and `fleet run`.
    ///
    /// # Errors
    ///
    /// Returns pattern-spec and corpus-manifest failures.
    pub fn build_spec(
        self,
        corpus_dir: &Path,
        spec: &PatternSpec,
    ) -> Result<CampaignSpec, ToolError> {
        let pattern = spec.pattern()?;
        let traces = match self.traces {
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
        let mut campaign_spec = CampaignSpec::new(corpus_dir, pattern, traces);
        if self.lenient {
            campaign_spec.criterion = DetectionCriterion::lenient();
        }
        if let Some(cycles) = self.checkpoint_cycles {
            campaign_spec.checkpoint_cycles = cycles;
        }
        if let Some(cycles) = self.chunk_cycles {
            campaign_spec.chunk_cycles = cycles;
        }
        if let Some(algo) = self.algo {
            campaign_spec.algo = algo;
        }
        campaign_spec.sequential = self.sequential;
        Ok(campaign_spec)
    }
}

/// `campaign run`: creates a campaign directory over a corpus and runs it.
///
/// # Errors
///
/// Returns spec validation, store and job failures; the directory must
/// not already contain a campaign (use `resume` to continue one).
pub fn cmd_campaign_run(
    dir: &Path,
    corpus_dir: &Path,
    spec: &PatternSpec,
    create: CampaignCreateOptions,
    options: CampaignRunOptions,
) -> Result<String, ToolError> {
    let campaign_spec = create.build_spec(corpus_dir, spec)?;
    let campaign = options.apply(Campaign::create(dir, campaign_spec)?);
    let status = campaign.run(&options.limits())?;
    render_run(&campaign, &status)
}

/// `campaign resume`: continues a previously created campaign, reusing
/// its checkpoints. A scenario campaign directory (it holds a
/// `scenarios.json`) resumes its pending cells instead.
///
/// # Errors
///
/// Returns store and job failures.
pub fn cmd_campaign_resume(dir: &Path, options: CampaignRunOptions) -> Result<String, ToolError> {
    if crate::scenario_cmd::is_scenario_dir(dir) {
        return crate::scenario_cmd::cmd_scenario_resume(dir, options);
    }
    let campaign = options.apply(Campaign::open(dir)?);
    let status = campaign.run(&options.limits())?;
    render_run(&campaign, &status)
}

/// `campaign status`: reports progress without running any jobs. A
/// scenario campaign directory reports per-matrix progress instead.
///
/// # Errors
///
/// Returns store failures (missing or malformed campaign directory).
pub fn cmd_campaign_status(dir: &Path) -> Result<String, ToolError> {
    if crate::scenario_cmd::is_scenario_dir(dir) {
        return crate::scenario_cmd::cmd_scenario_status(dir);
    }
    let campaign = Campaign::open(dir)?;
    let status = campaign.status()?;
    let mut out = String::new();
    let _ = writeln!(out, "campaign {}: {status}", campaign.dir().display());
    let _ = writeln!(
        out,
        "corpus: {}, pattern period {}, {} trace(s), {} spectrum kernel",
        campaign.spec().corpus.display(),
        campaign.spec().pattern.len(),
        campaign.spec().traces.len(),
        campaign.spec().algo
    );
    if let Some(progress) = campaign.live_progress() {
        if !status.is_complete() {
            let _ = writeln!(
                out,
                "live: {}/{} jobs, {:.0} cycles/s, {:.1} jobs/s, ETA {:.0}s (published {:.1}s into run)",
                progress.done,
                progress.total,
                progress.cycles_per_sec,
                progress.jobs_per_sec,
                progress.eta_seconds,
                progress.elapsed_ms as f64 / 1e3,
            );
        }
    }
    if status.is_complete() {
        let report = campaign.report()?;
        let _ = writeln!(
            out,
            "{} of {} detected",
            report.detected(),
            report.outcomes.len()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static NEXT: AtomicU32 = AtomicU32::new(0);
            let dir = std::env::temp_dir().join(format!(
                "clockmark_fleet_{tag}_{}_{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("mkdir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn small_build() -> CorpusBuildOptions {
        CorpusBuildOptions {
            cycles: 6_000,
            width: 6,
            unmarked: true,
            ..CorpusBuildOptions::default()
        }
    }

    #[test]
    fn build_ls_verify_round_trip() {
        let tmp = TempDir::new("build");
        let dir = tmp.0.join("corpus");
        let report = cmd_corpus_build(&dir, &small_build()).expect("builds");
        assert!(report.contains("added chip_i_s0001:"), "{report}");
        assert!(report.contains("added chip_i_s0001_off:"), "{report}");
        assert!(report.contains("2 trace(s)"), "{report}");

        let listing = cmd_corpus_ls(&dir).expect("lists");
        assert!(listing.contains("chip_i_s0001"), "{listing}");
        assert!(listing.contains("chip-i"), "{listing}");

        let verify = cmd_corpus_verify(&dir).expect("verifies");
        assert!(verify.contains("0 failure(s)"), "{verify}");
    }

    #[test]
    fn verify_catches_a_flipped_byte() {
        let tmp = TempDir::new("verify");
        let dir = tmp.0.join("corpus");
        cmd_corpus_build(
            &dir,
            &CorpusBuildOptions {
                cycles: 4_000,
                width: 6,
                ..CorpusBuildOptions::default()
            },
        )
        .expect("builds");

        let file = dir.join("traces").join("chip_i_s0001.cmt");
        let mut bytes = std::fs::read(&file).expect("readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&file, bytes).expect("writable");

        let err = cmd_corpus_verify(&dir).unwrap_err();
        assert!(err.to_string().contains("failed verification"), "{err}");
    }

    #[test]
    fn convert_round_trips_between_csv_and_binary() {
        let csv = "# demo\n1.5e-3\n2.25e-3\n0.0\n";
        let (bytes, report) =
            cmd_corpus_convert(csv.as_bytes(), TraceHeader::bare(0)).expect("to binary");
        assert!(report.contains("csv → binary: 3 cycles"), "{report}");

        let (back, report) = cmd_corpus_convert(&bytes, TraceHeader::bare(0)).expect("to csv");
        assert!(report.contains("binary → csv: 3 cycles"), "{report}");
        let text = String::from_utf8(back).expect("utf-8");
        let trace = tracefile::read_trace(&text).expect("parses");
        assert_eq!(trace.as_watts(), &[1.5e-3, 2.25e-3, 0.0]);
    }

    #[test]
    fn campaign_run_status_resume_flow() {
        let tmp = TempDir::new("campaign");
        let corpus_dir = tmp.0.join("corpus");
        cmd_corpus_build(&corpus_dir, &small_build()).expect("builds");

        let dir = tmp.0.join("campaign");
        let spec = PatternSpec::Lfsr { width: 6, seed: 1 };
        // First pass runs only one job, so the campaign is left pending…
        let report = cmd_campaign_run(
            &dir,
            &corpus_dir,
            &spec,
            CampaignCreateOptions {
                checkpoint_cycles: Some(1_000),
                chunk_cycles: Some(512),
                ..CampaignCreateOptions::default()
            },
            CampaignRunOptions {
                threads: 1,
                max_jobs: Some(1),
                ..CampaignRunOptions::default()
            },
        )
        .expect("runs");
        assert!(report.contains("1/2 jobs done"), "{report}");
        assert!(report.contains("campaign resume"), "{report}");

        let status = cmd_campaign_status(&dir).expect("status");
        assert!(status.contains("1/2 jobs done"), "{status}");

        // …and resume finishes it.
        let report = cmd_campaign_resume(&dir, CampaignRunOptions::default()).expect("resumes");
        assert!(report.contains("2/2 jobs done"), "{report}");
        assert!(report.contains("report:"), "{report}");
        assert!(report.contains("chip_i_s0001 "), "{report}");
        assert!(dir.join("report.json").exists());

        // `run` refuses to clobber an existing campaign.
        let err = cmd_campaign_run(
            &dir,
            &corpus_dir,
            &spec,
            CampaignCreateOptions::default(),
            CampaignRunOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("already"), "{err}");
    }

    #[test]
    fn seed_and_chip_lists_parse() {
        assert_eq!(parse_seed_list("3").expect("ok"), vec![3]);
        assert_eq!(parse_seed_list("1,2,5").expect("ok"), vec![1, 2, 5]);
        assert_eq!(parse_seed_list("1..4,9").expect("ok"), vec![1, 2, 3, 4, 9]);
        assert!(parse_seed_list("4..1").is_err());
        assert!(parse_seed_list("x").is_err());
        assert!(parse_seed_list("").is_err());

        assert_eq!(
            parse_chip_list("i,ii").expect("ok"),
            vec![ChipModel::ChipI, ChipModel::ChipII]
        );
        assert!(parse_chip_list("iii").is_err());
    }
}
