//! Every persisted JSON record decodes under one policy:
//!
//! 1. integers are exact over the full `u64` range, so every record
//!    round-trips (`decode(encode(v)) == v`) whatever its integers hold;
//! 2. a value of the wrong type — an integer that is not a plain
//!    in-range integer, a non-finite or quoted float, an unknown kernel —
//!    is refused with an error naming its JSON path, while missing
//!    optional fields take their defaults and unknown fields are ignored;
//! 3. no byte-mutated record panics a decoder, and every mutant a
//!    decoder accepts is a fixed point of `decode ∘ encode`;
//! 4. every byte-mutated spec that decodes runs through `Campaign::create`
//!    and `Campaign::run` to `Ok` or `Err`, never a panic or an abort.
//!
//! The records: fixed, sequential, scenario and job-id `CampaignSpec`s,
//! `JobOutcome`, `CampaignProgress`, `ScenarioMatrix` (with every attack
//! and defense kind) and `ManifestEntry`. The mutation runs are std-only,
//! with seeds and budgets fixed here.

use clockmark::{
    AttackSpec, Campaign, CampaignLimits, CampaignProgress, CampaignSpec, CpaAlgo, DefenseSpec,
    JobOutcome, ScenarioMatrix, ScenarioSpec,
};
use clockmark_corpus::{Corpus, ManifestEntry, TraceHeader};
use clockmark_cpa::{DetectionResult, SequentialOptions};
use clockmark_obs::json::{self, Json};
use std::fmt::Debug;

/// A persisted record: its encoder and its public decoder.
trait Persisted: Sized + PartialEq + Debug {
    fn encode(&self) -> String;
    fn decode(text: &str) -> Result<Self, String>;
}

macro_rules! persisted {
    ($($ty:ty),*) => {$(
        impl Persisted for $ty {
            fn encode(&self) -> String {
                <$ty>::encode(self)
            }
            fn decode(text: &str) -> Result<Self, String> {
                <$ty>::decode(text).map_err(|e| e.to_string())
            }
        }
    )*};
}

persisted!(
    CampaignSpec,
    JobOutcome,
    ScenarioMatrix,
    AttackSpec,
    DefenseSpec,
    ScenarioSpec
);

impl Persisted for CampaignProgress {
    fn encode(&self) -> String {
        CampaignProgress::encode(self)
    }
    fn decode(text: &str) -> Result<Self, String> {
        CampaignProgress::decode(text).ok_or_else(|| "malformed progress".to_owned())
    }
}

impl Persisted for ManifestEntry {
    fn encode(&self) -> String {
        ManifestEntry::encode(self)
    }
    fn decode(text: &str) -> Result<Self, String> {
        ManifestEntry::decode(text, 5).map_err(|e| e.to_string())
    }
}

/// splitmix64: the fixed-seed source of every drawn value and mutation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn pattern() -> Vec<bool> {
    "110100111010000110011".chars().map(|c| c == '1').collect()
}

/// Fixed, sequential and scenario specs whose every integer is `v`
/// (narrowed where the field is narrower).
fn campaign_specs(v: u64) -> [CampaignSpec; 3] {
    let mut fixed = CampaignSpec::new("corpus", pattern(), vec!["a".into(), "b".into()]);
    fixed.checkpoint_cycles = v;
    fixed.chunk_cycles = v as usize;
    fixed.algo = CpaAlgo::Folded;
    let sequential = fixed.clone().with_sequential(
        SequentialOptions::default()
            .with_base_cycles(v)
            .with_growth(1.5)
            .with_confidence(1e-6)
            .with_min_cycles(v)
            .with_max_cycles(v),
    );
    let scenario = fixed.clone().with_scenario(ScenarioSpec {
        attack: AttackSpec::Dvfs {
            dwell_cycles: v,
            max_shift: v,
        },
        defense: DefenseSpec::MultiWatermark {
            extra_widths: vec![v as u32, 7],
        },
        snr: 0.5,
        seed: v,
        ..ScenarioSpec::default()
    });
    [fixed, sequential, scenario]
}

/// A fleet shard's spec: the fixed one with global job ids `0` and `v`.
fn shard_spec(v: u64) -> CampaignSpec {
    CampaignSpec {
        job_ids: Some(vec![0, v as usize]),
        ..campaign_specs(v)[0].clone()
    }
}

/// Every attack kind, in the default order, with integers `v`.
fn attacks(v: u64) -> Vec<AttackSpec> {
    vec![
        AttackSpec::None,
        AttackSpec::ClockJitter { sigma_cycles: 2.0 },
        AttackSpec::Dvfs {
            dwell_cycles: v,
            max_shift: v,
        },
        AttackSpec::GateDisable {
            fraction: 0.5,
            estimate_cycles: v,
        },
        AttackSpec::Jamming {
            amplitude_watts: 1.5e-3,
        },
        AttackSpec::Replay {
            estimate_cycles: v,
            noise_watts: 0.045,
        },
    ]
}

/// Every defense kind, in the default order, with integers `v`.
fn defenses(v: u64) -> Vec<DefenseSpec> {
    vec![
        DefenseSpec::None,
        DefenseSpec::MultiWatermark {
            extra_widths: vec![v as u32, 5],
        },
        DefenseSpec::SeedHopping { dwell_cycles: v },
        DefenseSpec::ChallengeResponse { phase_delta: v },
    ]
}

fn matrix(v: u64) -> ScenarioMatrix {
    let mut matrix = ScenarioMatrix::new("corpus", pattern(), vec!["a".into()]);
    matrix.attacks = attacks(v);
    matrix.defenses = defenses(v);
    matrix.snrs = vec![0.5, 0.25, 1.0];
    matrix.seed = v;
    matrix.base.checkpoint_cycles = v;
    matrix.base.chunk_cycles = v as usize;
    matrix.base.algo = CpaAlgo::Fft;
    matrix
}

fn outcome(v: u64) -> JobOutcome {
    JobOutcome {
        index: v as usize,
        trace: "chip_i_s7".to_owned(),
        cycles: v,
        result: DetectionResult {
            detected: true,
            peak_rotation: v as usize,
            peak_rho: 0.017_19,
            floor_max_abs: 0.006_76,
            ratio: 2.54,
            zscore: 9.4,
        },
    }
}

fn progress(v: u64) -> CampaignProgress {
    CampaignProgress {
        done: v,
        total: v,
        cycles: v,
        cycles_per_sec: 2.4e7,
        jobs_per_sec: 0.25,
        eta_seconds: 12.5,
        elapsed_ms: v,
    }
}

fn manifest(v: u64) -> ManifestEntry {
    ManifestEntry {
        name: "chip_i_s7".to_owned(),
        file: "chip_i_s7.cmt".to_owned(),
        cycles: v,
        bytes: v,
        crc32: v as u32,
        version: v as u16,
        f_clk_hz: 1.0e7,
        seed: v,
        source: v as u32,
    }
}

fn assert_round_trips<T: Persisted>(record: &T) {
    let text = record.encode();
    assert_eq!(T::decode(&text).as_ref(), Ok(record), "{text}");
}

#[test]
fn integers_round_trip_exactly_over_the_full_u64_range() {
    let mut rng = Rng(0x5EED_0001);
    let mut values = vec![0, 1, 7, (1 << 53) - 1, 1 << 53, (1 << 53) + 1];
    values.extend([u64::MAX - 1, u64::MAX]);
    values.extend((0..64).map(|_| rng.next()));
    for v in values {
        for spec in campaign_specs(v) {
            assert_round_trips(&spec);
        }
        assert_round_trips(&shard_spec(v));
        assert_round_trips(&matrix(v));
        attacks(v).iter().for_each(assert_round_trips);
        defenses(v).iter().for_each(assert_round_trips);
        assert_round_trips(&outcome(v));
        assert_round_trips(&progress(v));
        assert_round_trips(&manifest(v));
    }
}

/// Writes a parsed value back as JSON text (numbers as their lexemes).
fn to_text(value: &Json) -> String {
    fn write(out: &mut String, value: &Json) {
        match value {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(lexeme) => out.push_str(lexeme),
            Json::String(s) => json::write_str(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(out, item);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_str(out, key);
                    out.push(':');
                    write(out, item);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    write(&mut out, value);
    out
}

/// `record`'s encoding with the value at `path` (`a.b[1].c`) replaced by
/// the JSON text `lexeme`.
fn splice<T: Persisted>(record: &T, path: &str, lexeme: &str) -> String {
    let mut doc = json::parse(&record.encode()).expect("encodings parse");
    let mut node = &mut doc;
    for step in path.split('.') {
        let (key, indices) = step.split_at(step.find('[').unwrap_or(step.len()));
        node = match node {
            Json::Object(fields) => fields
                .get_mut(key)
                .unwrap_or_else(|| panic!("no `{key}` on the way to `{path}`")),
            other => panic!("`{path}` crosses {other:?}"),
        };
        for index in indices.split(['[', ']']).filter(|s| !s.is_empty()) {
            node = match node {
                Json::Array(items) => &mut items[index.parse::<usize>().expect("index")],
                other => panic!("`{path}` indexes {other:?}"),
            };
        }
    }
    *node = json::parse(lexeme).expect("lexemes parse");
    to_text(&doc)
}

const INTEGER_REFUSALS: [&str; 5] = ["-1", "1.5", "1e3", "18446744073709551616", "\"7\""];
const SEED_REFUSALS: [&str; 5] = ["-1", "1.5", "1e3", "18446744073709551616", "\"x\""];
const FLOAT_REFUSALS: [&str; 3] = ["\"1.5\"", "1e999", "null"];

/// The field paths of one record, by the kind of value each holds.
struct Fields<'a> {
    integers: &'a [&'a str],
    seeds: &'a [&'a str],
    floats: &'a [&'a str],
}

/// Checks the policy on every listed field of `record`, collecting each
/// violation into `failures`.
fn check_policy<T: Persisted>(record: &T, fields: Fields<'_>, failures: &mut Vec<String>) {
    let mut refuse = |path: &str, lexeme: &str| {
        let text = splice(record, path, lexeme);
        match T::decode(&text) {
            Err(message) if message.contains(&format!("`{path}`")) => {}
            other => failures.push(format!("{path} = {lexeme}: {other:?}")),
        }
    };
    for path in fields.integers {
        INTEGER_REFUSALS
            .iter()
            .for_each(|lexeme| refuse(path, lexeme));
    }
    for path in fields.seeds {
        SEED_REFUSALS.iter().for_each(|lexeme| refuse(path, lexeme));
    }
    for path in fields.floats {
        FLOAT_REFUSALS
            .iter()
            .for_each(|lexeme| refuse(path, lexeme));
    }
    // Seeds stay decimal strings on disk and also read as exact integers.
    for path in fields.seeds {
        for lexeme in ["\"18446744073709551615\"", "18446744073709551615"] {
            let text = splice(record, path, lexeme);
            if let Err(message) = T::decode(&text) {
                failures.push(format!("{path} = {lexeme} refused: {message}"));
            }
        }
    }
    // Unknown fields are ignored.
    let mut doc = json::parse(&record.encode()).expect("encodings parse");
    if let Json::Object(map) = &mut doc {
        map.insert(
            "future".to_owned(),
            json::parse("{\"x\":[1,-2.5]}").expect("valid"),
        );
    }
    if T::decode(&to_text(&doc)).as_ref() != Ok(record) {
        failures.push(format!("an unknown field changed {record:?}"));
    }
}

#[test]
fn one_policy_refuses_ill_typed_values_by_their_path() {
    let v = 1 << 40;
    let [_, sequential, scenario] = campaign_specs(v);
    let mut failures = Vec::new();
    check_policy(
        &sequential,
        Fields {
            integers: &[
                "checkpoint_cycles",
                "chunk_cycles",
                "sequential.base_cycles",
                "sequential.min_cycles",
                "sequential.max_cycles",
            ],
            seeds: &[],
            floats: &[
                "min_peak_ratio",
                "min_zscore",
                "sequential.growth",
                "sequential.confidence",
            ],
        },
        &mut failures,
    );
    check_policy(
        &scenario,
        Fields {
            integers: &[
                "scenario.attack.dwell_cycles",
                "scenario.attack.max_shift",
                "scenario.defense.extra_widths[0]",
            ],
            seeds: &["scenario.seed"],
            floats: &[
                "scenario.snr",
                "scenario.amplitude_watts",
                "scenario.noise_watts",
            ],
        },
        &mut failures,
    );
    check_policy(
        &shard_spec(v),
        Fields {
            integers: &["job_ids[0]", "job_ids[1]"],
            seeds: &[],
            floats: &[],
        },
        &mut failures,
    );
    check_policy(
        &matrix(v),
        Fields {
            integers: &[
                "checkpoint_cycles",
                "chunk_cycles",
                "attacks[2].dwell_cycles",
                "attacks[2].max_shift",
                "attacks[3].estimate_cycles",
                "attacks[5].estimate_cycles",
                "defenses[1].extra_widths[1]",
                "defenses[2].dwell_cycles",
                "defenses[3].phase_delta",
            ],
            seeds: &["seed"],
            floats: &[
                "snrs[1]",
                "amplitude_watts",
                "noise_watts",
                "min_peak_ratio",
                "min_zscore",
                "attacks[1].sigma_cycles",
                "attacks[3].fraction",
                "attacks[4].amplitude_watts",
                "attacks[5].noise_watts",
            ],
        },
        &mut failures,
    );
    check_policy(
        &outcome(v),
        Fields {
            integers: &["index", "cycles", "peak_rotation"],
            seeds: &[],
            floats: &["peak_rho", "floor_max_abs", "ratio", "zscore"],
        },
        &mut failures,
    );
    check_policy(
        &manifest(v),
        Fields {
            integers: &["cycles", "bytes", "crc32", "version", "source"],
            seeds: &["seed"],
            floats: &["f_clk_hz"],
        },
        &mut failures,
    );
    assert!(failures.is_empty(), "{failures:#?}");

    // Progress is best-effort telemetry (`decode` answers `None`), but
    // the same reader names the path underneath.
    for (path, lexeme) in [
        ("done", "-1"),
        ("elapsed_ms", "1e3"),
        ("eta_seconds", "1e999"),
    ] {
        let text = splice(&progress(v), path, lexeme);
        assert_eq!(CampaignProgress::decode(&text), None, "{path} = {lexeme}");
        let err = json::decode::<CampaignProgress>(&text).expect_err("refused");
        assert_eq!(err.path, path, "{err}");
    }
    // A manifest error still names its line.
    let text = splice(&manifest(v), "crc32", "-1");
    let err = ManifestEntry::decode(&text, 5).expect_err("refused");
    assert!(err.to_string().contains("line 5"), "{err}");
    // An unknown kernel is refused, never replaced by the heuristic.
    let err =
        CampaignSpec::decode(&splice(&sequential, "algo", "\"ffft\"")).expect_err("unknown kernel");
    assert!(err.to_string().contains("`algo`"), "{err}");
    let err = ScenarioMatrix::decode(&splice(&matrix(v), "algo", "\"ffft\""))
        .expect_err("unknown kernel");
    assert!(err.to_string().contains("`algo`"), "{err}");
}

/// Boundary lexemes spliced over number tokens.
const LEXEMES: [&str; 6] = [
    "-0",
    "-1",
    "1e999",
    "9007199254740993",
    "18446744073709551616",
    "\"x\"",
];

/// Bytes an overwrite draws from: JSON structure, number syntax, and a
/// few letters of the literals.
const ALPHABET: &[u8] = b"0123456789-+.eE\"{}[],:tfnulx \\";

/// Byte ranges of number tokens and decimal-string integers in `bytes`.
fn number_tokens(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut tokens = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let after_separator = at > 0 && matches!(bytes[at - 1], b':' | b'[' | b',');
        let quoted = bytes[at] == b'"'
            && bytes[at + 1..]
                .iter()
                .position(|&b| b == b'"')
                .is_some_and(|len| {
                    len > 0 && bytes[at + 1..at + 1 + len].iter().all(u8::is_ascii_digit)
                });
        if after_separator && (quoted || matches!(bytes[at], b'-' | b'0'..=b'9')) {
            let mut end = at + 1;
            if quoted {
                while bytes[end] != b'"' {
                    end += 1;
                }
                end += 1;
            } else {
                while end < bytes.len()
                    && matches!(bytes[end], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    end += 1;
                }
            }
            tokens.push(at..end);
            at = end;
        } else {
            at += 1;
        }
    }
    tokens
}

/// One to three random edits of `bytes`.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Rng) {
    for _ in 0..=rng.below(3) {
        if bytes.is_empty() {
            return;
        }
        let at = rng.below(bytes.len());
        match rng.below(4) {
            0 => bytes[at] = ALPHABET[rng.below(ALPHABET.len())],
            1 => {
                let end = (at + 1 + rng.below(8)).min(bytes.len());
                bytes.drain(at..end);
            }
            2 => {
                let end = (at + 1 + rng.below(8)).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => {
                let lexeme = LEXEMES[rng.below(LEXEMES.len())].bytes();
                let tokens = number_tokens(bytes);
                if tokens.is_empty() {
                    bytes.splice(at..at, lexeme);
                } else {
                    bytes.splice(tokens[rng.below(tokens.len())].clone(), lexeme);
                }
            }
        }
    }
}

/// Mutants per record: fixed, with the seed, so every run replays the
/// same inputs (a few seconds in a debug build for all seven records).
const MUTANTS_PER_RECORD: usize = 4_000;

fn fuzz<T: Persisted>(record: &T, rng: &mut Rng) {
    let original = record.encode().into_bytes();
    for _ in 0..MUTANTS_PER_RECORD {
        let mut bytes = original.clone();
        mutate(&mut bytes, rng);
        let Ok(text) = String::from_utf8(bytes) else {
            continue;
        };
        if let Ok(value) = T::decode(&text) {
            let again = value.encode();
            assert_eq!(
                T::decode(&again).as_ref(),
                Ok(&value),
                "accepted {text}\nbut its encoding {again} does not decode back"
            );
        }
    }
}

#[test]
fn byte_mutants_decode_or_err_and_every_accepted_one_is_a_fixed_point() {
    let mut rng = Rng(0xC10C_3A4C);
    let v = (1 << 53) + 1;
    for spec in campaign_specs(v) {
        fuzz(&spec, &mut rng);
    }
    fuzz(&outcome(v), &mut rng);
    fuzz(&progress(v), &mut rng);
    fuzz(&matrix(v), &mut rng);
    fuzz(&manifest(v), &mut rng);
    fuzz(&shard_spec(v), &mut rng);
}

/// Mutants per runnable spec in the stateful harness: fixed with the
/// seed, and small enough for a few seconds in a debug build.
const RUNS_PER_SPEC: usize = 600;

/// Runnable specs over a two-trace corpus at `corpus`: fixed, sequential,
/// one scenario per defense kind (each under a different attack, below
/// nominal SNR) and one with job ids.
fn runnable_specs(corpus: &std::path::Path) -> Vec<CampaignSpec> {
    let mut fixed = CampaignSpec::new(corpus, pattern(), vec!["a".into(), "b".into()]);
    fixed.checkpoint_cycles = 64;
    fixed.chunk_cycles = 32;
    fixed.algo = CpaAlgo::Folded;
    let scenario = |attack, defense| {
        fixed.clone().with_scenario(ScenarioSpec {
            attack,
            defense,
            snr: 0.5,
            noise_watts: 0.5,
            seed: 3,
            ..ScenarioSpec::default()
        })
    };
    let attacks = attacks(40);
    let mut specs = vec![
        fixed.clone(),
        fixed.clone().with_sequential(SequentialOptions::every(64)),
        scenario(attacks[0].clone(), DefenseSpec::None),
        scenario(
            attacks[4].clone(),
            DefenseSpec::MultiWatermark {
                extra_widths: vec![5],
            },
        ),
        scenario(
            attacks[2].clone(),
            DefenseSpec::SeedHopping { dwell_cycles: 84 },
        ),
        scenario(
            attacks[5].clone(),
            DefenseSpec::ChallengeResponse { phase_delta: 5 },
        ),
    ];
    specs.push(CampaignSpec {
        job_ids: Some(vec![3, 9]),
        ..fixed
    });
    specs
}

#[test]
fn byte_mutated_specs_that_decode_run_to_ok_or_err() {
    let root = std::env::temp_dir().join(format!("cm_persisted_run_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut corpus = Corpus::create(root.join("corpus")).expect("creates");
    for (name, seed) in [("a", 1u64), ("b", 2)] {
        let mut rng = Rng(seed);
        let bits = pattern();
        let trace: Vec<f64> = (0..300)
            .map(|i| f64::from(u8::from(bits[i % bits.len()])) + (rng.next() >> 11) as f64 / 2e15)
            .collect();
        corpus
            .add(name, TraceHeader::bare(0), &trace)
            .expect("adds");
    }
    let mut rng = Rng(0x5741_7E00);
    let (mut decoded, mut ran) = (0, 0);
    for spec in runnable_specs(&root.join("corpus")) {
        let dir = root.join("campaign");
        std::fs::remove_dir_all(&dir).ok();
        let campaign = Campaign::create(&dir, spec.clone()).expect("creates");
        let status = campaign.with_threads(1).run(&CampaignLimits::none());
        assert!(status.expect("the unmutated spec runs").is_complete());

        let original = spec.encode().into_bytes();
        for _ in 0..RUNS_PER_SPEC {
            let mut bytes = original.clone();
            mutate(&mut bytes, &mut rng);
            let Ok(spec) = String::from_utf8(bytes)
                .map_err(|e| e.to_string())
                .and_then(|text| CampaignSpec::decode(&text).map_err(|e| e.to_string()))
            else {
                continue;
            };
            decoded += 1;
            std::fs::remove_dir_all(&dir).ok();
            if let Ok(campaign) = Campaign::create(&dir, spec) {
                ran += usize::from(
                    campaign
                        .with_threads(1)
                        .run(&CampaignLimits::none())
                        .is_ok(),
                );
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
    assert!(
        ran > 0 && ran < decoded,
        "{ran} of {decoded} decoded mutants ran"
    );
}
