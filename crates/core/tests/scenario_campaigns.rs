//! Black-box integration tests for the adversarial scenario engine: the
//! identity cell of a scenario campaign must reproduce a plain campaign's
//! `report.json` byte-for-byte, interrupted scenario campaigns must resume
//! to byte-identical reports, every attacked cell must be deterministic
//! across independent runs of the same matrix, and the headline
//! attack/defense cells keep their detection rates.

use clockmark::attack::hash_gaussian;
use clockmark::corpus::{Corpus, TraceHeader};
use clockmark::{
    AttackSpec, Campaign, CampaignLimits, CampaignSpec, DefenseSpec, ScenarioCampaign,
    ScenarioMatrix,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "cm_scncmp_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&path).ok();
        fs::create_dir_all(&path).expect("mkdir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if std::env::var_os("CM_KEEP_TMP").is_none() {
            fs::remove_dir_all(&self.0).ok();
        }
    }
}

fn pattern() -> Vec<bool> {
    use clockmark::seq::{Lfsr, SequenceGenerator};
    let mut lfsr = Lfsr::maximal(6).expect("valid");
    (0..63).map(|_| lfsr.next_bit()).collect()
}

fn trace(pattern: &[bool], n: usize, phase: usize, amp: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let wm = if pattern[(i + phase) % pattern.len()] {
                amp
            } else {
                0.0
            };
            wm + rng.random_range(-2.0..2.0)
        })
        .collect()
}

/// A corpus of `marked` watermarked traces plus one unmarked trace;
/// returns the corpus directory and the trace names.
fn build_corpus(
    dir: &Path,
    pattern: &[bool],
    marked: usize,
    cycles: usize,
    seed: u64,
) -> (PathBuf, Vec<String>) {
    let corpus_dir = dir.join("corpus");
    let mut corpus = Corpus::create(&corpus_dir).expect("creates");
    let mut names = Vec::new();
    for i in 0..marked {
        let name = format!("marked_{i}");
        let w = trace(pattern, cycles, 7 + i, 1.0, seed + i as u64);
        corpus.add(&name, TraceHeader::bare(0), &w).expect("adds");
        names.push(name);
    }
    let w = trace(pattern, cycles, 0, 0.0, seed + 999);
    corpus
        .add("unmarked", TraceHeader::bare(0), &w)
        .expect("adds");
    names.push("unmarked".to_owned());
    (corpus_dir, names)
}

/// The shared matrix fixture: full default attack and defense axes over
/// the corpus, sized so a whole run stays fast.
fn matrix(corpus_dir: &Path, pattern: &[bool], names: &[String], seed: u64) -> ScenarioMatrix {
    let mut matrix = ScenarioMatrix::new(corpus_dir, pattern.to_vec(), names.to_vec());
    matrix.seed = seed;
    matrix.base.checkpoint_cycles = 1_000;
    matrix.base.chunk_cycles = 256;
    // Amplitudes on the synthetic fixture's scale, not the chip's.
    matrix.amplitude_watts = 1.0;
    matrix.noise_watts = 0.5;
    matrix
}

fn read_report(dir: &Path) -> Vec<u8> {
    fs::read(dir.join("report.json")).expect("report.json exists")
}

/// ISSUE 10 acceptance: a scenario whose only cell is the identity
/// (no attack, no defense, snr 1.0) routes through the plain streaming
/// job path, so the cell's `report.json` is byte-for-byte the report a
/// plain campaign over the same corpus produces.
fn assert_identity_reproduces_plain(
    cycles: usize,
    marked: usize,
    corpus_seed: u64,
    matrix_seed: u64,
) {
    let dir = TempDir::new("identity");
    let pattern = pattern();
    let (corpus_dir, names) = build_corpus(&dir.0, &pattern, marked, cycles, corpus_seed);

    let mut matrix = matrix(&corpus_dir, &pattern, &names, matrix_seed);
    matrix.attacks = vec![AttackSpec::None];
    matrix.defenses = vec![DefenseSpec::None];
    matrix.snrs = vec![1.0];

    let mut plain_spec = CampaignSpec::new(&corpus_dir, pattern.clone(), names.clone());
    plain_spec.checkpoint_cycles = matrix.base.checkpoint_cycles;
    plain_spec.chunk_cycles = matrix.base.chunk_cycles;
    plain_spec.criterion = matrix.base.criterion;
    plain_spec.algo = matrix.base.algo;
    let plain = Campaign::create(dir.0.join("plain"), plain_spec).expect("creates");
    plain.run(&CampaignLimits::none()).expect("runs");

    let scenario = ScenarioCampaign::create(dir.0.join("scenario"), matrix).expect("creates");
    let status = scenario.run(&CampaignLimits::none()).expect("runs");
    assert!(status.is_complete());

    let want = read_report(&dir.0.join("plain"));
    let got = read_report(&dir.0.join("scenario/cells/c000_none_none"));
    assert_eq!(got, want, "identity cell diverged from the plain campaign");
}

#[test]
fn identity_scenario_cell_reproduces_the_plain_campaign_report() {
    assert_identity_reproduces_plain(700, 2, 100, 77);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The identity equivalence holds across trace lengths, corpus
    /// shapes and matrix seeds — the matrix seed in particular must not
    /// leak into the identity path.
    #[test]
    fn identity_equivalence_holds_across_corpora(
        cycles in 200usize..900,
        marked in 1usize..4,
        corpus_seed in 0u64..1_000,
        matrix_seed in 0u64..1_000,
    ) {
        assert_identity_reproduces_plain(cycles, marked, corpus_seed, matrix_seed);
    }
}

/// Every cell — attacked and defended alike — is a pure function of the
/// matrix, so two independent runs of the same `scenarios.json` produce
/// byte-identical merged reports and byte-identical per-cell reports.
#[test]
fn attacked_cells_are_deterministic_across_independent_runs() {
    let dir = TempDir::new("determinism");
    let pattern = pattern();
    let (corpus_dir, names) = build_corpus(&dir.0, &pattern, 1, 600, 42);
    let matrix = matrix(&corpus_dir, &pattern, &names, 9);
    // Re-decode the encoded form so the runs start from the exact bytes
    // a `scenarios.json` on disk would hold.
    let decoded = ScenarioMatrix::decode(&matrix.encode()).expect("round-trips");

    let a = ScenarioCampaign::create(dir.0.join("a"), matrix).expect("creates");
    let b = ScenarioCampaign::create(dir.0.join("b"), decoded).expect("creates");
    assert!(a.run(&CampaignLimits::none()).expect("runs").is_complete());
    assert!(b.run(&CampaignLimits::none()).expect("runs").is_complete());

    assert_eq!(read_report(&dir.0.join("a")), read_report(&dir.0.join("b")));
    for cell in a.matrix().cells() {
        let cell_rel = Path::new("cells").join(&cell.id);
        assert_eq!(
            read_report(&dir.0.join("a").join(&cell_rel)),
            read_report(&dir.0.join("b").join(&cell_rel)),
            "cell {} diverged between runs",
            cell.id
        );
    }
}

/// ISSUE 10 acceptance: killing a scenario campaign anywhere and
/// resuming produces a merged report byte-identical to an uninterrupted
/// run. The interruption schedule alternates job-budget exhaustion with
/// mid-trace cuts (what a `SIGKILL` between checkpoints leaves behind).
#[test]
fn interrupted_scenario_campaign_resumes_byte_identically() {
    let dir = TempDir::new("resume");
    let pattern = pattern();
    let (corpus_dir, names) = build_corpus(&dir.0, &pattern, 1, 600, 7);
    let matrix = matrix(&corpus_dir, &pattern, &names, 3);

    let reference =
        ScenarioCampaign::create(dir.0.join("reference"), matrix.clone()).expect("creates");
    assert!(reference
        .run(&CampaignLimits::none())
        .expect("runs")
        .is_complete());

    let interrupted = ScenarioCampaign::create(dir.0.join("interrupted"), matrix).expect("creates");
    let schedule = [
        CampaignLimits {
            max_jobs: Some(1),
            interrupt_job_after_cycles: None,
        },
        CampaignLimits {
            max_jobs: Some(2),
            interrupt_job_after_cycles: Some(300),
        },
        CampaignLimits {
            max_jobs: Some(3),
            interrupt_job_after_cycles: Some(100),
        },
    ];
    for round in 0.. {
        assert!(round < 200, "campaign failed to converge");
        // Re-open each round: resumption must rebuild all state from disk.
        let campaign = ScenarioCampaign::open(dir.0.join("interrupted")).expect("opens");
        let status = campaign
            .run(&schedule[round % schedule.len()])
            .expect("runs");
        if status.is_complete() {
            break;
        }
    }
    drop(interrupted);

    let got = read_report(&dir.0.join("interrupted"));
    let want = read_report(&dir.0.join("reference"));
    assert_eq!(
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want),
        "resumed merged report diverged from the uninterrupted run"
    );
}

/// The headline attack/defense story at snr 1, on two short synthetic
/// traces: plain detection is clean without an attack, LFSR-spectrum
/// jamming defeats it, the multi-watermark defense survives jamming, and
/// a half-trace replay forgery fails the challenge-response.
///
/// The fixture is a 1 W floor, the period-63 mark at 0.4 W and 0.05 W of
/// hashed gaussian noise, 4,032 cycles per trace, under the full
/// six-attack, four-defense, two-SNR matrix with its adversary budgets
/// on that scale. Cell seeds are counter-hashed from each cell's place
/// in the cross-product, so the four cells are picked out of the full
/// expansion and each runs alone as the campaign the scenario engine
/// runs for it.
#[test]
fn headline_attack_defense_cells_keep_their_rates() {
    const AMP_WATTS: f64 = 0.4;
    const NOISE_WATTS: f64 = 0.05;
    let dir = TempDir::new("headline");
    let pattern = pattern();
    let cycles = 63 * 64;
    let corpus_dir = dir.0.join("corpus");
    let mut corpus = Corpus::create(&corpus_dir).expect("creates");
    let mut names = Vec::new();
    for i in 0..2 {
        let w: Vec<f64> = (0..cycles)
            .map(|c| {
                let wm = if pattern[(c + 7 + i) % pattern.len()] {
                    AMP_WATTS
                } else {
                    0.0
                };
                1.0 + wm + NOISE_WATTS * hash_gaussian(4000 + i as u64, c as u64)
            })
            .collect();
        let name = format!("marked_{i}");
        corpus.add(&name, TraceHeader::bare(0), &w).expect("adds");
        names.push(name);
    }

    let mut matrix = ScenarioMatrix::new(&corpus_dir, pattern.clone(), names);
    matrix.snrs = vec![0.25, 1.0];
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
        // The forger captures the first half of the trace: the first
        // challenge window, but not the second window's phase.
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
            dwell_cycles: 63 * 16,
        },
        DefenseSpec::ChallengeResponse { phase_delta: 17 },
    ];
    let cells = matrix.cells();

    let rate = |attack: &str, defense: &str| {
        let cell = cells
            .iter()
            .find(|c| {
                c.spec.attack.kind() == attack
                    && c.spec.defense.kind() == defense
                    && c.spec.snr == 1.0
            })
            .unwrap_or_else(|| panic!("no cell {attack}|{defense} at snr 1"));
        let spec = matrix.base.clone().with_scenario(cell.spec.clone());
        let campaign = Campaign::create(dir.0.join(&cell.id), spec)
            .expect("creates")
            .with_threads(1);
        assert!(campaign
            .run(&CampaignLimits::none())
            .expect("runs")
            .is_complete());
        let report = campaign.report().expect("complete");
        report.detected() as f64 / report.outcomes.len() as f64
    };
    assert_eq!(
        rate("none", "none"),
        1.0,
        "plain detection must be clean without an attack"
    );
    assert_eq!(
        rate("jamming", "none"),
        0.0,
        "LFSR-spectrum jamming must defeat plain detection"
    );
    assert_eq!(
        rate("jamming", "multi_watermark"),
        1.0,
        "the multi-watermark defense must survive jamming"
    );
    assert_eq!(
        rate("replay", "challenge_response"),
        0.0,
        "a replay forgery must fail the challenge-response"
    );
}
