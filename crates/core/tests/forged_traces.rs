//! Mutated traces: a seeded, bounded byte-mutation harness over one real
//! `.cmt` trace, read back through every path that reads a corpus.
//!
//! Each mutant flips a bit, overwrites 8 bytes or truncates the file in
//! one header field, in the first, middle or last sample, or in the
//! footer; a last set appends bytes past the footer. No path may panic.
//! A mutant that changes or cuts a byte is refused with a typed error by
//! the reader drained to `finish`, `decode_trace`, `Corpus::scan`, and a
//! fixed and a scenario campaign, and `Corpus::verify` reports it. Bytes
//! past the footer are outside the format: every path reads the trace
//! as it was, `scan` records the CRC the reader checked, and only
//! `verify`, which knows the file's size from the manifest, reports it.
//! A sequential campaign may end `Ok` on any mutant, because an early
//! stop skips the CRC by design. A valid trace swapped in under the
//! indexed one's name is consistent with itself, and only `verify`, which
//! compares its CRC with the manifest's, reports it.

use clockmark::{AttackSpec, Campaign, CampaignError, CampaignLimits, CampaignSpec, ScenarioSpec};
use clockmark_corpus::{decode_trace, Corpus, CorpusError, TraceHeader};
use clockmark_cpa::SequentialOptions;
use clockmark_seq::{Lfsr, SequenceGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Cycles in the one trace.
const CYCLES: usize = 3_000;
/// Byte layout of a `.cmt` file (see `docs/corpus.md`).
const HEADER_LEN: usize = 64;
const FILE_LEN: usize = HEADER_LEN + 8 * CYCLES + 8;
/// Mutants drawn per spot and kind, and appended tails drawn.
const MUTANTS_PER_KIND: usize = 4;
const APPENDS: usize = 6;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("cm_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&path).ok();
        fs::create_dir_all(&path).expect("mkdir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

/// Writes the one trace through `Corpus::add` and returns the fixed,
/// sequential and scenario specs over it.
fn fixture(corpus_dir: &Path) -> [CampaignSpec; 3] {
    let mut lfsr = Lfsr::maximal(6).expect("valid");
    let pattern: Vec<bool> = (0..63).map(|_| lfsr.next_bit()).collect();
    let mut state = 0x7ACE_u64;
    let w: Vec<f64> = (0..CYCLES)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            if pattern[(i + 9) % pattern.len()] {
                0.3 + noise
            } else {
                noise
            }
        })
        .collect();
    let mut corpus = Corpus::create(corpus_dir).expect("creates");
    corpus.add("t", TraceHeader::bare(0), &w).expect("adds");
    let mut fixed = CampaignSpec::new(corpus_dir, pattern, vec!["t".to_owned()]);
    fixed.checkpoint_cycles = 0;
    fixed.chunk_cycles = 256;
    let sequential = fixed
        .clone()
        .with_sequential(SequentialOptions::every(1_024));
    // A non-identity scenario buffers the whole trace, sized by its
    // header, before it attacks it.
    let scenario = fixed.clone().with_scenario(ScenarioSpec {
        attack: AttackSpec::Jamming {
            amplitude_watts: 1e-3,
        },
        ..ScenarioSpec::default()
    });
    [fixed, sequential, scenario]
}

/// Runs a fresh one-thread campaign of `spec` in `dir`; returns its
/// report bytes.
fn run_campaign(dir: &Path, spec: &CampaignSpec) -> Result<Vec<u8>, CampaignError> {
    fs::remove_dir_all(dir).ok();
    let campaign = Campaign::create(dir, spec.clone())
        .expect("creates")
        .with_threads(1);
    let status = campaign.run(&CampaignLimits::none())?;
    assert!(status.is_complete(), "{status}");
    Ok(fs::read(dir.join("report.json")).expect("report"))
}

/// Drains `Corpus::source` through `finish`, returning the samples and
/// the CRC the reader checked.
fn drain(corpus: &Corpus) -> Result<(Vec<f64>, u32), CorpusError> {
    let mut source = corpus.source("t")?;
    let mut samples = Vec::new();
    let mut buf = [0.0f64; 256];
    loop {
        let got = source.read_chunk(&mut buf)?;
        if got == 0 {
            break;
        }
        samples.extend_from_slice(&buf[..got]);
    }
    let (_, crc32) = source.finish()?;
    Ok((samples, crc32))
}

enum Kind {
    FlipBit,
    Overwrite8,
    Truncate,
}

fn mutate(original: &[u8], spot: &Range<usize>, kind: &Kind, rng: &mut StdRng) -> Vec<u8> {
    let mut mutant = original.to_vec();
    let at = rng.random_range(spot.clone());
    match kind {
        Kind::FlipBit => mutant[at] ^= 1 << rng.random_range(0..8u32),
        Kind::Overwrite8 => {
            for byte in &mut mutant[at..(at + 8).min(original.len())] {
                *byte = rng.random();
            }
        }
        Kind::Truncate => mutant.truncate(at),
    }
    mutant
}

#[test]
fn mutated_traces_never_panic_and_every_changed_byte_is_refused() {
    let dir = TempDir::new("mutated_traces");
    let corpus_dir = dir.0.join("corpus");
    let specs = fixture(&corpus_dir);
    let trace_path = corpus_dir.join("traces/t.cmt");
    let original = fs::read(&trace_path).expect("reads");
    assert_eq!(original.len(), FILE_LEN, "layout");
    let corpus = Corpus::open(&corpus_dir).expect("opens");
    let entry = corpus.entry("t").expect("indexed").clone();
    let (want_samples, want_crc) = drain(&corpus).expect("intact");
    assert_eq!(want_crc, entry.crc32);
    let runs = dir.0.join("runs");
    let reports: Vec<Vec<u8>> = specs
        .iter()
        .map(|spec| run_campaign(&runs, spec).expect("intact trace runs"))
        .collect();
    let scan_dir = dir.0.join("scan");
    fs::create_dir_all(scan_dir.join("traces")).expect("mkdir");

    let sample = |i: usize| HEADER_LEN + 8 * i..HEADER_LEN + 8 * (i + 1);
    let footer = HEADER_LEN + 8 * CYCLES;
    let spots: [(&str, Range<usize>); 14] = [
        ("magic", 0..8),
        ("version", 8..10),
        ("flags", 10..12),
        ("header length", 12..16),
        ("cycles", 16..24),
        ("f_clk_hz", 24..32),
        ("seed", 32..40),
        ("source", 40..44),
        ("reserved", 44..HEADER_LEN),
        ("first sample", sample(0)),
        ("middle sample", sample(CYCLES / 2)),
        ("last sample", sample(CYCLES - 1)),
        ("CRC", footer..footer + 4),
        ("end magic", footer + 4..FILE_LEN),
    ];

    let mut rng = StdRng::seed_from_u64(0xC4E7_0001);
    let mut mutants = Vec::new();
    for (spot_name, spot) in &spots {
        for (kind_name, kind) in [
            ("flip", Kind::FlipBit),
            ("overwrite", Kind::Overwrite8),
            ("truncate", Kind::Truncate),
        ] {
            for m in 0..MUTANTS_PER_KIND {
                let mutant = mutate(&original, spot, &kind, &mut rng);
                mutants.push((format!("{spot_name} {kind_name} {m}"), false, mutant));
            }
        }
    }
    for m in 0..APPENDS {
        let mut mutant = original.clone();
        mutant.extend((0..rng.random_range(1..=64)).map(|_| rng.random::<u8>()));
        mutants.push((format!("append {m}"), true, mutant));
    }

    for (label, appended, mutant) in mutants {
        if mutant == original {
            continue;
        }
        fs::write(&trace_path, &mutant).expect("plants");
        fs::write(scan_dir.join("traces/t.cmt"), &mutant).expect("plants");
        let verified = corpus.verify().expect("verifies");
        assert!(!verified[0].ok, "{label}: verify passed it");
        let read = drain(&corpus);
        let decoded = decode_trace(&mutant);
        let scanned = Corpus::scan(&scan_dir);
        // A sequential job that stops early never reaches the footer, so
        // its outcome only must not be a panic.
        let [fixed, _sequential, scenario] = [0, 1, 2].map(|k| run_campaign(&runs, &specs[k]));

        if appended {
            let (samples, crc32) = read.unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(samples, want_samples, "{label}");
            assert_eq!(crc32, want_crc, "{label}");
            let (_, samples) = decoded.unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(samples, want_samples, "{label}");
            let scanned = scanned.unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(
                scanned.entries(),
                std::slice::from_ref(&entry),
                "{label}: scan's entry"
            );
            assert_eq!(fixed.as_ref().ok(), Some(&reports[0]), "{label}");
            assert_eq!(scenario.as_ref().ok(), Some(&reports[2]), "{label}");
            continue;
        }
        assert!(read.is_err(), "{label}: the reader passed it");
        assert!(decoded.is_err(), "{label}: decode_trace passed it");
        assert!(scanned.is_err(), "{label}: scan passed it");
        for (flavour, outcome) in [("fixed", fixed), ("scenario", scenario)] {
            assert!(
                matches!(outcome, Err(CampaignError::Corpus(_))),
                "{label}: the {flavour} campaign ended {:?}",
                outcome.map(|_| "Ok")
            );
        }
        // A header that claims more samples than the file holds is
        // refused at open, before anything is sized from it.
        let declared = TraceHeader::decode(&mutant)
            .ok()
            .and_then(|h| h.checked_file_size());
        if declared.is_none_or(|size| size > mutant.len() as u64) {
            assert!(corpus.source("t").is_err(), "{label}: opened");
        }
    }
}

/// A header claiming 2^60 samples in a 24 KiB file is refused at open by
/// the reader, `decode_trace` and a scenario campaign that would size its
/// buffer from it.
#[test]
fn a_forged_header_is_refused_before_it_drives_an_allocation() {
    let dir = TempDir::new("forged_cycles");
    let corpus_dir = dir.0.join("corpus");
    let [_, _, scenario] = fixture(&corpus_dir);
    let path = corpus_dir.join("traces/t.cmt");
    let mut bytes = fs::read(&path).expect("reads");
    bytes[16..24].copy_from_slice(&(1u64 << 60).to_le_bytes());
    fs::write(&path, &bytes).expect("forges");

    let corpus = Corpus::open(&corpus_dir).expect("opens");
    let err = corpus.source("t").expect_err("forged header");
    assert!(matches!(err, CorpusError::Format { .. }), "{err}");
    assert!(err.to_string().contains("cycles"), "{err}");
    let err = decode_trace(&bytes).expect_err("forged header");
    assert!(matches!(err, CorpusError::Format { .. }), "{err}");
    let err = run_campaign(&dir.0.join("forged_run"), &scenario).expect_err("refused");
    assert!(matches!(err, CampaignError::Corpus(_)), "{err}");
}

/// Another valid trace with the same name, header and size but other
/// samples, copied over the indexed one, carries a footer CRC that
/// matches its own samples; `verify` fails it on the manifest's CRC.
#[test]
fn a_valid_trace_swapped_in_fails_verify() {
    let dir = TempDir::new("swapped_trace");
    let (first, second) = (dir.0.join("first"), dir.0.join("second"));
    fixture(&first);
    let other: Vec<f64> = (0..CYCLES).map(|i| (i % 7) as f64 * 0.1).collect();
    let mut donor = Corpus::create(&second).expect("creates");
    let donor_crc = donor
        .add("t", TraceHeader::bare(0), &other)
        .expect("adds")
        .crc32;
    let swapped = fs::read(second.join("traces/t.cmt")).expect("reads");
    assert_eq!(swapped.len(), FILE_LEN, "same size");
    fs::write(first.join("traces/t.cmt"), &swapped).expect("swaps");

    let corpus = Corpus::open(&first).expect("opens");
    let indexed_crc = corpus.entry("t").expect("indexed").crc32;
    assert_ne!(indexed_crc, donor_crc);
    let (samples, crc32) = drain(&corpus).expect("the swapped trace reads as valid");
    assert_eq!((samples, crc32), (other, donor_crc));
    let verified = corpus.verify().expect("verifies");
    assert!(!verified[0].ok, "verify passed a swapped trace");
    for crc in [indexed_crc, donor_crc] {
        assert!(
            verified[0].detail.contains(&format!("{crc:08x}")),
            "{}",
            verified[0].detail
        );
    }
}
