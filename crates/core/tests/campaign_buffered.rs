//! A whole campaign through the buffered trace reader.
//!
//! `CLOCKMARK_NO_MMAP` is process-wide, so this check is its own test
//! binary with a single test: the memory-mapped reference runs first,
//! then the variable is set and the same campaign runs on the buffered
//! `Corpus::reader` path, once straight through and once killed and
//! resumed from its checkpoints, to the reference's report bytes.

use clockmark::{Campaign, CampaignLimits, CampaignSpec};
use clockmark_corpus::{Corpus, TraceHeader, TraceSource, NO_MMAP_ENV};
use clockmark_seq::{Lfsr, SequenceGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::Path;

/// The watermark at `amp`, rotated by `phase`, in uniform noise.
fn synth(pattern: &[bool], cycles: usize, phase: usize, amp: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cycles)
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

fn run_to_completion(dir: &Path, spec: CampaignSpec) -> String {
    let campaign = Campaign::create(dir, spec).expect("creates");
    assert!(campaign
        .run(&CampaignLimits::none())
        .expect("runs")
        .is_complete());
    fs::read_to_string(dir.join("report.json")).expect("reads report")
}

#[test]
fn a_buffered_campaign_killed_and_resumed_writes_the_mapped_report_bytes() {
    std::env::remove_var(NO_MMAP_ENV);
    let dir = std::env::temp_dir().join(format!("cm_campaign_buffered_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();

    let mut lfsr = Lfsr::maximal(8).expect("valid width");
    let pattern: Vec<bool> = (0..255).map(|_| lfsr.next_bit()).collect();
    let cycles = 3_000;
    let corpus_dir = dir.join("corpus");
    let mut corpus = Corpus::create(&corpus_dir).expect("creates");
    let mut names = Vec::new();
    for i in 0..12 {
        // Every third trace is unmarked so the report mixes verdicts.
        let amp = if i % 3 == 2 { 0.0 } else { 1.0 };
        let name = format!("trace_{i:02}");
        let w = synth(&pattern, cycles, i * 13, amp, 1000 + i as u64);
        corpus.add(&name, TraceHeader::bare(0), &w).expect("adds");
        names.push(name);
    }
    let mut spec = CampaignSpec::new(&corpus_dir, pattern, names.clone());
    spec.checkpoint_cycles = 500;
    spec.chunk_cycles = 256;

    assert!(matches!(
        corpus.source(&names[0]),
        Ok(TraceSource::Mapped(_))
    ));
    let mapped = run_to_completion(&dir.join("mapped"), spec.clone());

    std::env::set_var(NO_MMAP_ENV, "1");
    assert!(matches!(
        corpus.source(&names[0]),
        Ok(TraceSource::Buffered(_))
    ));
    let buffered = run_to_completion(&dir.join("buffered"), spec.clone());
    assert_eq!(
        buffered, mapped,
        "the buffered reader changed the report bytes"
    );

    // Cut every pass short, mid-job and after a few jobs, and resume from
    // the checkpoints through the buffered reader until done.
    let killed = Campaign::create(dir.join("killed"), spec).expect("creates");
    let limits = CampaignLimits {
        max_jobs: Some(3),
        interrupt_job_after_cycles: Some(1_000),
    };
    let mut passes = 0;
    while !killed.run(&limits).expect("runs").is_complete() {
        passes += 1;
        assert!(passes < 100, "campaign failed to converge");
    }
    assert!(
        passes >= 3,
        "the campaign was interrupted only {passes} times"
    );
    let resumed = fs::read_to_string(dir.join("killed/report.json")).expect("reads report");
    assert_eq!(
        resumed, mapped,
        "a killed and resumed buffered campaign changed the report bytes"
    );
    fs::remove_dir_all(&dir).ok();
}
