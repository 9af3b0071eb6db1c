//! The acceptance bar of the wire protocol: a verdict served over TCP
//! is bit-identical — peak rotation, ρ, z-score, every field — to the
//! one the in-process [`Detector`] computes on the same samples.

use std::path::PathBuf;

use clockmark_corpus::{Corpus, TraceHeader};
use clockmark_cpa::{CpaAlgo, DetectOptions, DetectionCriterion, DetectionResult, Detector};
use clockmark_serve::{Client, Server};

fn pattern() -> Vec<bool> {
    // Xorshift bits: an aperiodic pattern with a single, unambiguous
    // correlation peak (a structured pattern would tie with its own
    // rotations and never satisfy the peak-uniqueness criterion).
    let mut s = 0x1234_5678_9ABC_DEF1u64;
    (0..96)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s & 1 == 1
        })
        .collect()
}

fn watermarked_trace(cycles: usize) -> Vec<f64> {
    let pattern = pattern();
    (0..cycles)
        .map(|i| {
            let wm = if pattern[i % pattern.len()] {
                1.2
            } else {
                -1.2
            };
            wm + (i as f64 * 0.317).sin() * 0.4 + (i as f64 * 0.071).cos() * 0.2
        })
        .collect()
}

fn assert_bit_identical(wire: &DetectionResult, local: &DetectionResult) {
    assert_eq!(wire.detected, local.detected);
    assert_eq!(wire.peak_rotation, local.peak_rotation);
    assert_eq!(wire.peak_rho.to_bits(), local.peak_rho.to_bits());
    assert_eq!(wire.floor_max_abs.to_bits(), local.floor_max_abs.to_bits());
    assert_eq!(wire.ratio.to_bits(), local.ratio.to_bits());
    assert_eq!(wire.zscore.to_bits(), local.zscore.to_bits());
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "cm_serve_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
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

#[test]
fn streamed_detect_matches_in_process_for_every_kernel() {
    let handle = Server::new().bind("127.0.0.1:0").expect("bind");
    let pattern = pattern();
    let y = watermarked_trace(pattern.len() * 40);

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let algos: [Option<CpaAlgo>; 4] = [
        None,
        Some(CpaAlgo::Naive),
        Some(CpaAlgo::Folded),
        Some(CpaAlgo::Fft),
    ];
    for algo in algos {
        let mut options = DetectOptions::default().with_criterion(DetectionCriterion::lenient());
        if let Some(algo) = algo {
            options = options.with_algo(algo);
        }
        let wire = client.detect(&pattern, options, &y).expect("wire detect");

        // The wire exchange streams chunks into a StreamingDetection on
        // the server, so its exact in-process counterpart is the
        // streaming facade path.
        let detector = Detector::with_options(&pattern, options).expect("detector");
        let mut session = detector.detect_streaming();
        session.push_chunk(&y);
        let spectrum = session.spectrum().expect("streaming spectrum");
        let local = detector.criterion().evaluate(&spectrum);
        assert_bit_identical(&wire.result, &local);
        assert_eq!(wire.cycles, y.len() as u64);
        assert!(wire.result.detected, "watermark should be found ({algo:?})");

        // Batch detect() agrees bit-for-bit too, except under a pinned
        // Naive kernel: a streaming session holds no raw trace, so it
        // evaluates Naive with the (decision-identical) folded
        // arithmetic, which may differ from the raw-trace kernel in ULPs.
        if algo != Some(CpaAlgo::Naive) {
            let batch = detector.detect(&y).expect("batch detect");
            assert_bit_identical(&wire.result, &batch);
        }
    }

    handle.shutdown();
}

#[test]
fn corpus_detect_matches_in_process_detect_trace() {
    let dir = TempDir::new("corpus_identity");
    let pattern = pattern();
    let y = watermarked_trace(pattern.len() * 30);

    let mut corpus = Corpus::create(&dir.0).expect("create corpus");
    corpus
        .add("chip_i_wire", TraceHeader::bare(y.len() as u64), &y)
        .expect("store trace");

    let handle = Server::new().bind("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let wire = client
        .detect_corpus(
            dir.0.to_str().expect("utf8 path"),
            "chip_i_wire",
            &pattern,
            DetectOptions::default(),
        )
        .expect("wire corpus detect");

    let detector = Detector::new(&pattern).expect("detector");
    let reader = corpus.source("chip_i_wire").expect("reader");
    let local = detector.detect_trace(reader).expect("local detect_trace");

    assert_bit_identical(&wire.result, &local.result);
    assert_eq!(wire.cycles, local.cycles);

    // And the corpus path agrees with plain in-memory detection too.
    let in_memory = detector.detect(&y).expect("in-memory detect");
    assert_bit_identical(&wire.result, &in_memory);

    handle.shutdown();
}

#[test]
fn concurrent_clients_all_get_bit_identical_verdicts() {
    let handle = Server::new().bind("127.0.0.1:0").expect("bind");
    let addr = handle.local_addr();
    let pattern = pattern();
    let y = watermarked_trace(pattern.len() * 25);
    let local = Detector::new(&pattern)
        .expect("detector")
        .detect(&y)
        .expect("local detect");

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let pattern = pattern.clone();
            let y = y.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .detect(&pattern, DetectOptions::default(), &y)
                    .expect("wire detect")
            })
        })
        .collect();
    for worker in workers {
        let wire = worker.join().expect("worker");
        assert_bit_identical(&wire.result, &local);
    }

    let status = handle.shutdown();
    assert_eq!(status.served, 4);
}

#[test]
fn sequential_detect_over_the_wire_matches_in_process() {
    let handle = Server::new().bind("127.0.0.1:0").expect("bind");
    let pattern = pattern();
    let y = watermarked_trace(pattern.len() * 400);
    let seq = clockmark_cpa::SequentialOptions::default().with_base_cycles(1024);

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for algo in [Some(CpaAlgo::Folded), Some(CpaAlgo::Fft), None] {
        let mut options = DetectOptions::default().with_criterion(DetectionCriterion::lenient());
        if let Some(algo) = algo {
            options = options.with_algo(algo);
        }
        let wire = client
            .detect_sequential(&pattern, options, seq, &y)
            .expect("wire sequential detect");

        let detector = Detector::with_options(&pattern, options).expect("detector");
        let local = detector.detect_sequential(&y, seq).expect("local");
        assert_bit_identical(&wire.result, &local.result);
        assert_eq!(wire.cycles_consumed, local.cycles_consumed);
        assert_eq!(wire.early_stopped, local.early_stopped);
        assert_eq!(wire.checkpoints.len(), local.checkpoints.len());
        for (w, l) in wire.checkpoints.iter().zip(&local.checkpoints) {
            assert_eq!(w.cycles, l.cycles);
            assert_eq!(w.accepted, l.accepted);
            assert_eq!(w.peak_rho.to_bits(), l.peak_rho.to_bits());
            assert_eq!(w.p_value.to_bits(), l.p_value.to_bits());
        }
        // The strong watermark must stop well before the full stream.
        assert!(wire.early_stopped, "{algo:?}");
        assert!(wire.cycles_consumed < y.len() as u64 / 4);
    }

    handle.shutdown();
}

#[test]
fn identify_over_the_wire_matches_in_process() {
    let handle = Server::new().bind("127.0.0.1:0").expect("bind");
    let anchor = pattern();
    let y = watermarked_trace(anchor.len() * 60);

    // Distinct xorshift candidate banks; index 0 is the embedded pattern.
    let candidates: Vec<clockmark_cpa::CandidatePattern> = (0..6u64)
        .map(|seed| {
            let bits: Vec<bool> = if seed == 0 {
                pattern()
            } else {
                let mut s = 0xDEAD_BEEF ^ (seed << 17) | 1;
                (0..96)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        s & 1 == 1
                    })
                    .collect()
            };
            clockmark_cpa::CandidatePattern::new(format!("cand-{seed}"), bits)
        })
        .collect();

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for algo in [Some(CpaAlgo::Folded), Some(CpaAlgo::Fft)] {
        let mut options = DetectOptions::default().with_criterion(DetectionCriterion::lenient());
        if let Some(algo) = algo {
            options = options.with_algo(algo);
        }
        let wire = client
            .identify(&anchor, options, &candidates, &y)
            .expect("wire identify");

        let detector = Detector::with_options(&anchor, options).expect("detector");
        let local = detector.identify(&y, &candidates).expect("local identify");
        assert_eq!(wire.cycles, local.cycles);
        assert_eq!(wire.scores.len(), local.scores.len());
        for (w, l) in wire.scores.iter().zip(&local.scores) {
            assert_eq!(w.index, l.index);
            assert_eq!(w.label, l.label);
            assert_bit_identical(&w.result, &l.result);
        }
        assert_eq!(wire.best().index, 0, "embedded candidate must rank first");
    }

    handle.shutdown();
}
