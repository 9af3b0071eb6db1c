//! Benchmarks the adversarial scenario engine — the attack × defense ×
//! SNR matrix — and writes the results into `BENCH_10.json`:
//!
//! - `scenario_matrix`: the full default matrix over a marked corpus,
//!   with wall time and per-cell detection rates.
//! - `adversarial_acceptance` (asserted): the headline story cells at
//!   snr 1 — plain detection survives no attack at rate 1, jamming
//!   defeats plain detection but not the multi-watermark defense, and a
//!   replay forgery cannot answer the challenge-response.
//! - `identity_equivalence` (asserted): a scenario whose only cell is
//!   the identity reproduces a plain campaign's `report.json`
//!   byte-for-byte, with both wall times.
//! - `scenario_resume` (asserted): an interrupted-and-resumed scenario
//!   campaign reproduces the uninterrupted merged report byte-for-byte.
//!
//! ```sh
//! cargo run --release -p clockmark-bench --bin scenario_matrix            # full run
//! cargo run --release -p clockmark-bench --bin scenario_matrix -- --quick # CI smoke
//! ```

use clockmark::campaign::{Campaign, CampaignLimits, CampaignSpec};
use clockmark::corpus::{Corpus, TraceHeader};
use clockmark::{AttackSpec, DefenseSpec, ScenarioCampaign, ScenarioMatrix, ScenarioReport};
use clockmark_bench::{bench_json_named, has_flag, merge_bench_section};
use clockmark_seq::{Lfsr, SequenceGenerator};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct TempDir(PathBuf);
impl TempDir {
    fn new() -> Self {
        let path = std::env::temp_dir().join(format!("cm_scenario_matrix_{}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path).expect("mkdir");
        TempDir(path)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The paper's watermark sequence: a maximal LFSR, period 63.
fn pattern() -> Vec<bool> {
    let mut lfsr = Lfsr::maximal(6).expect("valid width");
    (0..63).map(|_| lfsr.next_bit()).collect()
}

/// The fixture's power scale: the watermark amplitude and measurement
/// noise σ the synthetic traces are built with (the scenario unit tests
/// pin the same regime). Attack and defense parameters below are sized
/// against these, not against the default axes' chip-scale watts.
const AMP_WATTS: f64 = 0.4;
const NOISE_WATTS: f64 = 0.05;

/// A marked trace: 1 W idle floor, the watermark at [`AMP_WATTS`], and
/// deterministic gaussian measurement noise.
fn trace(pattern: &[bool], cycles: usize, phase: usize, seed: u64) -> Vec<f64> {
    (0..cycles)
        .map(|i| {
            let wm = if pattern[(i + phase) % pattern.len()] {
                AMP_WATTS
            } else {
                0.0
            };
            1.0 + wm + NOISE_WATTS * clockmark::attack::hash_gaussian(seed, i as u64)
        })
        .collect()
}

/// A corpus of `count` marked traces (every job should detect under no
/// attack, so cell rates read directly as survival rates).
fn build_corpus(dir: &Path, pattern: &[bool], count: usize, cycles: usize) -> Vec<String> {
    let mut corpus = Corpus::create(dir).expect("creates corpus");
    let mut names = Vec::new();
    for i in 0..count {
        let name = format!("marked_{i}");
        let w = trace(pattern, cycles, 7 + i, 4000 + i as u64);
        corpus.add(&name, TraceHeader::bare(0), &w).expect("adds");
        names.push(name);
    }
    names
}

/// The matrix with every axis explicit: the default axes carry
/// chip-scale watts (a 1.5 mW jam is invisible next to a 0.4 W
/// watermark), so the adversary budgets are restated on the fixture's
/// scale — exactly what an operator edits in `scenarios.json`.
fn matrix(
    corpus: &Path,
    pattern: &[bool],
    names: &[String],
    cycles: usize,
    snrs: Vec<f64>,
) -> ScenarioMatrix {
    let period = pattern.len();
    let mut matrix = ScenarioMatrix::new(corpus, pattern.to_vec(), names.to_vec());
    matrix.snrs = snrs;
    matrix.seed = 0xC10C_0000_0000_0A10;
    matrix.amplitude_watts = AMP_WATTS;
    matrix.noise_watts = NOISE_WATTS;
    matrix.attacks = vec![
        AttackSpec::None,
        AttackSpec::ClockJitter { sigma_cycles: 2.0 },
        AttackSpec::Dvfs {
            dwell_cycles: 2_048,
            max_shift: 32,
        },
        AttackSpec::GateDisable {
            fraction: 0.5,
            estimate_cycles: 16_384,
        },
        AttackSpec::Jamming {
            amplitude_watts: AMP_WATTS,
        },
        // The forger captures the first half of the trace: enough to
        // estimate the watermark (and the first challenge window), but
        // the second challenge window's phase lies outside the capture.
        AttackSpec::Replay {
            estimate_cycles: (cycles / 2) as u64,
            noise_watts: 0.02,
        },
    ];
    matrix.defenses = vec![
        DefenseSpec::None,
        DefenseSpec::MultiWatermark {
            extra_widths: vec![5, 7],
        },
        DefenseSpec::SeedHopping {
            dwell_cycles: (period * 16) as u64,
        },
        DefenseSpec::ChallengeResponse { phase_delta: 17 },
    ];
    matrix
}

fn main() {
    clockmark_bench::obs_scope("scenario_matrix", run);
}

fn run() {
    let quick = has_flag("--quick");
    let cycles = 63 * if quick { 64 } else { 128 };
    let traces = if quick { 2 } else { 3 };
    println!("scenario_matrix: {traces} trace(s) x {cycles} cycles{}", {
        if quick {
            " (quick)"
        } else {
            ""
        }
    });

    let path = bench_json_named("BENCH_10.json");
    let dir = TempDir::new();
    let pattern = pattern();
    let corpus_dir = dir.0.join("corpus");
    let names = build_corpus(&corpus_dir, &pattern, traces, cycles);

    let report = full_matrix(&path, &dir.0, &corpus_dir, &pattern, &names, cycles);
    adversarial_acceptance(&path, &report);
    identity_equivalence(&path, &dir.0, &corpus_dir, &pattern, &names, cycles);
    scenario_resume(&path, &dir.0, &corpus_dir, &pattern, &names, cycles);
    println!("report       : {}", path.display());
}

/// Phase 1 — the full default attack × defense matrix at snr 1 and a
/// degraded snr, timed end to end through the campaign machinery.
fn full_matrix(
    path: &Path,
    dir: &Path,
    corpus_dir: &Path,
    pattern: &[bool],
    names: &[String],
    cycles: usize,
) -> ScenarioReport {
    let matrix = matrix(corpus_dir, pattern, names, cycles, vec![0.25, 1.0]);
    let (attacks, defenses, snrs) = (
        matrix.attacks.len(),
        matrix.defenses.len(),
        matrix.snrs.len(),
    );
    let cells = attacks * defenses * snrs;
    let jobs = cells * names.len();
    let campaign = ScenarioCampaign::create(dir.join("matrix"), matrix).expect("creates");
    let t0 = Instant::now();
    let status = campaign.run(&CampaignLimits::none()).expect("runs");
    let wall = t0.elapsed().as_secs_f64();
    assert!(status.is_complete(), "matrix did not complete: {status}");
    let report = campaign.report().expect("complete");

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"attacks\": {attacks}, \"defenses\": {defenses}, \"snrs\": {snrs}, \"traces\": {}, \
         \"cycles\": {cycles}, \"jobs\": {jobs}, \"wall_seconds\": {:.4}, \
         \"jobs_per_sec\": {:.1}, \"rates\": {{",
        names.len(),
        wall,
        jobs as f64 / wall.max(1e-9),
    );
    for (i, cell) in report.cells.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}|{}|{}\": {:.2}",
            cell.attack,
            cell.defense,
            cell.snr,
            cell.rate()
        );
    }
    out.push_str("}}");
    merge_bench_section(path, "scenario_matrix", &out).expect("writes");
    println!(
        "matrix       : {cells} cells / {jobs} jobs in {wall:.3}s ({:.0} jobs/s)",
        jobs as f64 / wall.max(1e-9)
    );
    report
}

/// Phase 2 — the headline adversarial story, asserted so a regression in
/// any attack or defense fails the bench rather than shifting a number.
fn adversarial_acceptance(path: &Path, report: &ScenarioReport) {
    let rate = |attack: &str, defense: &str| {
        report
            .cell(attack, defense, 1.0)
            .unwrap_or_else(|| panic!("missing cell {attack}/{defense}"))
            .rate()
    };
    let none_none = rate("none", "none");
    let jamming_none = rate("jamming", "none");
    let jamming_multi = rate("jamming", "multi_watermark");
    let replay_challenge = rate("replay", "challenge_response");
    assert!(
        none_none == 1.0,
        "plain detection must be clean without an attack, got {none_none}"
    );
    assert!(
        jamming_none == 0.0,
        "LFSR-spectrum jamming must defeat plain detection, got {jamming_none}"
    );
    assert!(
        jamming_multi == 1.0,
        "the multi-watermark defense must survive jamming, got {jamming_multi}"
    );
    assert!(
        replay_challenge == 0.0,
        "a replay forgery must fail the challenge-response, got {replay_challenge}"
    );
    let value = format!(
        "{{\"none_none\": {none_none}, \"jamming_none\": {jamming_none}, \
         \"jamming_multi_watermark\": {jamming_multi}, \
         \"replay_challenge_response\": {replay_challenge}, \"asserted\": true}}"
    );
    merge_bench_section(path, "adversarial_acceptance", &value).expect("writes");
    println!(
        "acceptance   : none/none {none_none}, jamming/none {jamming_none}, \
         jamming/multi {jamming_multi}, replay/challenge {replay_challenge}"
    );
}

/// Phase 3 — the API-redesign contract: the identity cell is the plain
/// campaign, byte for byte, and costs about the same.
fn identity_equivalence(
    path: &Path,
    dir: &Path,
    corpus_dir: &Path,
    pattern: &[bool],
    names: &[String],
    cycles: usize,
) {
    let mut spec = CampaignSpec::new(corpus_dir, pattern.to_vec(), names.to_vec());
    let mut id_matrix = matrix(corpus_dir, pattern, names, cycles, vec![1.0]);
    id_matrix.attacks = vec![AttackSpec::None];
    id_matrix.defenses = vec![DefenseSpec::None];
    spec.criterion = id_matrix.base.criterion;
    spec.algo = id_matrix.base.algo;

    let plain = Campaign::create(dir.join("plain"), spec).expect("creates");
    let t0 = Instant::now();
    plain.run(&CampaignLimits::none()).expect("runs");
    let plain_seconds = t0.elapsed().as_secs_f64();

    let scenario = ScenarioCampaign::create(dir.join("identity"), id_matrix).expect("creates");
    let t0 = Instant::now();
    scenario.run(&CampaignLimits::none()).expect("runs");
    let scenario_seconds = t0.elapsed().as_secs_f64();

    let want = std::fs::read(dir.join("plain/report.json")).expect("plain report");
    let got =
        std::fs::read(dir.join("identity/cells/c000_none_none/report.json")).expect("cell report");
    assert_eq!(got, want, "identity cell diverged from the plain campaign");

    let value = format!(
        "{{\"traces\": {}, \"cycles\": {cycles}, \"plain_seconds\": {plain_seconds:.4}, \
         \"scenario_seconds\": {scenario_seconds:.4}, \"byte_identical\": true}}",
        names.len()
    );
    merge_bench_section(path, "identity_equivalence", &value).expect("writes");
    println!(
        "identity     : byte-identical (plain {plain_seconds:.3}s, scenario {scenario_seconds:.3}s)"
    );
}

/// Phase 4 — kill-anywhere resume: drip-feed the campaign one job at a
/// time, re-opening from disk every pass, and compare the merged report
/// against an uninterrupted reference.
fn scenario_resume(
    path: &Path,
    dir: &Path,
    corpus_dir: &Path,
    pattern: &[bool],
    names: &[String],
    cycles: usize,
) {
    let snrs = vec![1.0];
    let reference = ScenarioCampaign::create(
        dir.join("resume_reference"),
        matrix(corpus_dir, pattern, names, cycles, snrs.clone()),
    )
    .expect("creates");
    assert!(reference
        .run(&CampaignLimits::none())
        .expect("runs")
        .is_complete());

    ScenarioCampaign::create(
        dir.join("resume_interrupted"),
        matrix(corpus_dir, pattern, names, cycles, snrs),
    )
    .expect("creates");
    let step = CampaignLimits {
        max_jobs: Some(1),
        interrupt_job_after_cycles: Some(97),
    };
    let mut passes = 0usize;
    loop {
        passes += 1;
        assert!(passes < 10_000, "resume failed to converge");
        let campaign = ScenarioCampaign::open(dir.join("resume_interrupted")).expect("opens");
        if campaign.run(&step).expect("runs").is_complete() {
            break;
        }
    }

    let want = std::fs::read(dir.join("resume_reference/report.json")).expect("reference report");
    let got = std::fs::read(dir.join("resume_interrupted/report.json")).expect("resumed report");
    assert_eq!(got, want, "resumed merged report diverged");

    let status = reference.status().expect("status");
    let value = format!(
        "{{\"cells\": {}, \"jobs\": {}, \"interrupted_passes\": {passes}, \
         \"byte_identical\": true}}",
        status.cells_total, status.jobs_total
    );
    merge_bench_section(path, "scenario_resume", &value).expect("writes");
    println!("resume       : byte-identical after {passes} interrupted passes");
}
