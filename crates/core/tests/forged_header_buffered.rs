//! A forged trace header through the buffered reader.
//!
//! `CLOCKMARK_NO_MMAP` is process-wide, so this check is its own test
//! binary: every corpus read here takes the buffered `Corpus::reader`
//! path (the one the mmap fallback also takes).

use clockmark::{AttackSpec, Campaign, CampaignError, CampaignLimits, CampaignSpec, ScenarioSpec};
use clockmark_corpus::{Corpus, CorpusError, TraceHeader, TraceSource, NO_MMAP_ENV};
use std::fs;

#[test]
fn a_forged_header_is_refused_before_it_drives_an_allocation() {
    std::env::set_var(NO_MMAP_ENV, "1");
    let dir = std::env::temp_dir().join(format!("cm_forged_header_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let corpus_dir = dir.join("corpus");
    let mut corpus = Corpus::create(&corpus_dir).expect("creates");
    let samples: Vec<f64> = (0..2_000).map(|i| f64::from(i % 7) * 1e-4).collect();
    corpus
        .add("t", TraceHeader::bare(0), &samples)
        .expect("adds");

    // The header's cycle count (bytes 16..24, little-endian) now claims
    // 2^60 samples in a 16 KiB file.
    let path = corpus_dir.join("traces").join("t.cmt");
    let mut bytes = fs::read(&path).expect("reads");
    bytes[16..24].copy_from_slice(&(1u64 << 60).to_le_bytes());
    fs::write(&path, bytes).expect("forges");

    let corpus = Corpus::open(&corpus_dir).expect("opens");
    let err = corpus.reader("t").expect_err("forged header");
    assert!(matches!(err, CorpusError::Format { .. }), "{err}");
    assert!(matches!(
        corpus.source("t"),
        Err(CorpusError::Format { .. })
    ));
    assert!(matches!(
        corpus.read_all("t"),
        Err(CorpusError::Format { .. })
    ));

    // A non-identity scenario job buffers the whole trace, sized by its
    // header: the campaign must fail on the corpus, not abort.
    let pattern = "110100111010000110011".chars().map(|c| c == '1').collect();
    let spec =
        CampaignSpec::new(&corpus_dir, pattern, vec!["t".into()]).with_scenario(ScenarioSpec {
            attack: AttackSpec::Jamming {
                amplitude_watts: 1e-3,
            },
            ..ScenarioSpec::default()
        });
    let campaign = Campaign::create(dir.join("campaign"), spec)
        .expect("creates")
        .with_threads(1);
    let err = campaign.run(&CampaignLimits::none()).expect_err("refused");
    assert!(matches!(err, CampaignError::Corpus(_)), "{err}");
    fs::remove_dir_all(&dir).ok();
}

/// The size check passes an intact trace: under the escape hatch it
/// opens buffered and reads back whole.
#[test]
fn an_intact_trace_opens_buffered_under_the_escape_hatch() {
    std::env::set_var(NO_MMAP_ENV, "1");
    let dir = std::env::temp_dir().join(format!("cm_intact_buffered_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let mut corpus = Corpus::create(&dir).expect("creates");
    corpus
        .add("t", TraceHeader::bare(0), &[1e-3; 500])
        .expect("adds");
    assert!(matches!(corpus.source("t"), Ok(TraceSource::Buffered(_))));
    assert_eq!(corpus.read_all("t").expect("reads").1, vec![1e-3; 500]);
    fs::remove_dir_all(&dir).ok();
}
