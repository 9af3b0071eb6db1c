//! Forged checkpoints: a seeded, bounded byte-mutation harness over a
//! real `CMCKPT2` checkpoint.
//!
//! Each mutant rewrites a few bytes of one field and recomputes the CRC,
//! so it reaches the decoder and the fold's validation rather than
//! failing the checksum. A resume from any mutant ends in `Ok` or a typed
//! error, never a panic. A mutant of the fields a restore checks (magic,
//! kernel byte, job index, trace, period, pattern, counts and cycles) is
//! discarded or restores the same state, so the report is the
//! uninterrupted run's, byte for byte. The fold sums are not checked
//! against anything but finiteness, so their mutants only must not
//! panic.

use clockmark::{Campaign, CampaignLimits, CampaignSpec};
use clockmark_corpus::{Corpus, Crc32, TraceHeader};
use clockmark_seq::{Lfsr, SequenceGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Cycles in the one trace, and where the interrupted run checkpoints.
const CYCLES: usize = 3_000;
const INTERRUPTED_AT: u64 = 512;
/// Mutants drawn per field.
const MUTANTS_PER_FIELD: usize = 12;

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let path = std::env::temp_dir().join(format!("cm_forged_ckpt_{}", std::process::id()));
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

fn fixture(dir: &Path) -> CampaignSpec {
    let mut lfsr = Lfsr::maximal(6).expect("valid");
    let pattern: Vec<bool> = (0..63).map(|_| lfsr.next_bit()).collect();
    let mut state = 0x5EED_u64;
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
    let corpus_dir = dir.join("corpus");
    let mut corpus = Corpus::create(&corpus_dir).expect("creates");
    corpus.add("t", TraceHeader::bare(0), &w).expect("adds");
    let mut spec = CampaignSpec::new(corpus_dir, pattern, vec!["t".to_owned()]);
    spec.checkpoint_cycles = 0;
    spec.chunk_cycles = 256;
    spec
}

/// Runs a fresh campaign of `spec` in `dir` whose job 0 starts from the
/// checkpoint `bytes`; returns the report, or the error's text.
fn resume_from(dir: &Path, spec: &CampaignSpec, bytes: &[u8]) -> Result<Vec<u8>, String> {
    fs::remove_dir_all(dir).ok();
    let campaign = Campaign::create(dir, spec.clone())
        .expect("creates")
        .with_threads(1);
    fs::write(dir.join("checkpoints/job_0.ckpt"), bytes).expect("plants");
    let status = campaign
        .run(&CampaignLimits::none())
        .map_err(|e| e.to_string())?;
    assert!(status.is_complete(), "{status}");
    Ok(fs::read(dir.join("report.json")).expect("report"))
}

/// Recomputes the trailing CRC-32 over the body.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let mut crc = Crc32::new();
    crc.update(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.finish().to_le_bytes());
}

#[test]
fn forged_checkpoints_never_panic_and_checked_fields_never_change_the_report() {
    let dir = TempDir::new();
    let spec = fixture(&dir.0);
    let reference = Campaign::create(dir.0.join("reference"), spec.clone())
        .expect("creates")
        .with_threads(1);
    assert!(reference
        .run(&CampaignLimits::none())
        .expect("runs")
        .is_complete());
    let want = fs::read(dir.0.join("reference/report.json")).expect("reads");

    let interrupted = Campaign::create(dir.0.join("interrupted"), spec.clone())
        .expect("creates")
        .with_threads(1);
    interrupted
        .run(&CampaignLimits {
            max_jobs: Some(1),
            interrupt_job_after_cycles: Some(INTERRUPTED_AT),
        })
        .expect("runs");
    let ckpt = fs::read(dir.0.join("interrupted/checkpoints/job_0.ckpt")).expect("checkpoint");

    // The layout after the 8-byte magic: kernel byte, index u64, trace
    // name (u32 length + bytes), pattern (u32 period + one byte per bit),
    // P sums, P counts, sum_y, sum_yy, cycles, CRC.
    let period = spec.pattern.len();
    let name = 21..22;
    let pattern = name.end + 4..name.end + 4 + period;
    let sums = pattern.end..pattern.end + 8 * period;
    let counts = sums.end..sums.end + 8 * period;
    let cycles = counts.end + 16..counts.end + 24;
    assert_eq!(cycles.end + 4, ckpt.len(), "layout");
    let checked: [(&str, Range<usize>); 9] = [
        ("magic", 0..8),
        ("kernel", 8..9),
        ("index", 9..17),
        ("name length", 17..21),
        ("name", name.clone()),
        ("period", name.end..name.end + 4),
        ("pattern", pattern),
        ("counts", counts.clone()),
        ("cycles", cycles),
    ];
    let unchecked: [(&str, Range<usize>); 2] = [
        ("sums", sums),
        ("sum_y and sum_yy", counts.end..counts.end + 16),
    ];

    let mut rng = StdRng::seed_from_u64(0xC4EC_0002);
    let resumed = dir.0.join("resumed");
    for (field, range) in checked.iter().chain(&unchecked) {
        let is_checked = checked.iter().any(|(f, _)| f == field);
        for m in 0..MUTANTS_PER_FIELD {
            let mut mutant = ckpt.clone();
            for _ in 0..rng.random_range(1..=3) {
                let at = rng.random_range(range.clone());
                mutant[at] ^= rng.random_range(1..=255u8);
            }
            reseal(&mut mutant);
            let report = resume_from(&resumed, &spec, &mutant);
            if is_checked {
                assert_eq!(report, Ok(want.clone()), "{field} mutant {m}");
            }
        }
    }

    // Counts whose sum wraps back to the cycle count.
    let mut forged = ckpt.clone();
    let count = |b: &[u8], r: usize| {
        let at = counts.start + 8 * r;
        u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
    };
    let (c0, c1) = (count(&forged, 0), count(&forged, 1));
    forged[counts.start..counts.start + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    forged[counts.start + 8..counts.start + 16].copy_from_slice(&(c0 + c1 + 1).to_le_bytes());
    reseal(&mut forged);
    assert_eq!(
        resume_from(&resumed, &spec, &forged),
        Ok(want),
        "a wrapped count sum must be discarded"
    );
}
