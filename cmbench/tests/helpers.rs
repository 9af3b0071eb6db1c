//! Tests of the benchmark's helpers: the tail-percentile rule, self time
//! over nested spans, the Fig. 5 SNR calibration of the synthetic traces,
//! deterministic corpus generation, and the result line.
//!
//! ```sh
//! cargo test --release --manifest-path cmbench/Cargo.toml
//! ```

use clockmark::cpa::Detector;
use cmbench::report::{result_line, Metric};
use cmbench::stats::{median, quantile, steady_rate, tail};
use cmbench::synth::{
    accepted_plans, candidates, detector_agrees, paper_pattern, synth_trace, trace_plans,
    write_corpus, TracePlan, FIG5_AMPLITUDE_W, FIG5_NOISE_W, MAX_DRAWS, PAPER_CYCLES,
};
use cmbench::tracer::{self_by_layer, self_times, SpanRecord, Tracer};
use std::path::PathBuf;

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // Shuffled 1..=100: the value at rank 90 has exactly 10 above it.
    let values: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
    let t = tail(&values).expect("100 samples");
    assert_eq!(t.value, 90.0);
    assert_eq!(t.percentile, 90.0);
    assert_eq!((t.samples, t.beyond), (100, 10));
    let above = values.iter().filter(|&&v| v > t.value).count();
    assert_eq!(above, 10);

    // 1000 samples: the 99th percentile.
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&values).expect("1000 samples");
    assert_eq!((t.value, t.percentile, t.samples), (990.0, 99.0, 1000));

    // Eleven samples is the least that has a tail; ten has none.
    let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
    let t = tail(&eleven).expect("eleven samples");
    assert_eq!(t.value, 1.0);
    assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    assert!(tail(&eleven[..10]).is_none());
    assert!(tail(&[]).is_none());
}

#[test]
fn median_handles_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn quantiles_interpolate_between_ranks() {
    let values = [4.0, 1.0, 3.0, 2.0, 5.0];
    assert_eq!(quantile(&values, 0.0), Some(1.0));
    assert_eq!(quantile(&values, 0.5), median(&values));
    assert_eq!(quantile(&values, 1.0), Some(5.0));
    assert_eq!(steady_rate(&values), Some(4.0));
    assert_eq!(steady_rate(&[1.0, 2.0]), Some(1.75));
    assert_eq!(steady_rate(&[7.0]), Some(7.0));
    assert_eq!(steady_rate(&[]), None);
}

fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRecord {
    SpanRecord {
        name: name.to_owned(),
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("bench.root", 0, 100, None),
        // Two overlapping children cover 10..60 together: 50, not 60.
        span("sim.run", 10, 40, Some(0)),
        span("measure.acquire", 30, 60, Some(0)),
        // A grandchild only counts against its own parent.
        span("cpa.spectrum", 15, 25, Some(1)),
        // A child reaching past its parent is clipped to the parent.
        span("cpa.detect", 90, 120, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 30]);
    let layers = self_by_layer(&spans);
    assert_eq!(layers["bench"], 40);
    assert_eq!(layers["sim"], 20);
    assert_eq!(layers["measure"], 30);
    assert_eq!(layers["cpa"], 40);
    let total: u64 = layers.values().sum();
    assert_eq!(total, 130, "self times partition the covered time");
}

#[test]
fn tracer_records_nesting_and_disabled_records_nothing() {
    let mut t = Tracer::new();
    let out = t.span("bench.outer", |t| {
        t.span("sim.run", |_| 1) + t.span("soc.run", |t| t.span("power.add", |_| 2))
    });
    assert_eq!(out, 3);
    let names: Vec<_> = t
        .spans()
        .iter()
        .map(|s| (s.name.as_str(), s.parent))
        .collect();
    assert_eq!(
        names,
        vec![
            ("bench.outer", None),
            ("sim.run", Some(0)),
            ("soc.run", Some(0)),
            ("power.add", Some(2)),
        ]
    );
    for s in t.spans() {
        assert!(s.end_ns >= s.start_ns);
        if let Some(p) = s.parent {
            let parent = &t.spans()[p];
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
        }
    }

    let mut off = Tracer::disabled();
    assert_eq!(off.span("sim.run", |_| 7), 7);
    assert!(off.spans().is_empty());
}

#[test]
fn synthetic_traces_reproduce_the_fig5_snr() {
    let pattern = paper_pattern();
    assert_eq!(pattern.len(), 4095);
    let det = Detector::new(&pattern).expect("valid pattern");

    // Analytic correlation of a balanced 0/1 pattern at amplitude A in
    // noise σ: (A/2) / sqrt(A²/4 + σ²) ≈ 0.0167.
    let a = FIG5_AMPLITUDE_W / 2.0;
    let analytic = a / (a * a + FIG5_NOISE_W * FIG5_NOISE_W).sqrt();
    assert!((0.015..0.02).contains(&analytic), "analytic rho {analytic}");

    let plans = trace_plans(7, 9, pattern.len());
    let mut marked_rho = Vec::new();
    for plan in &plans {
        let y = synth_trace(&pattern, PAPER_CYCLES, plan.phase, plan.seed);
        let result = det.detect(&y).expect("detects");
        match plan.phase {
            Some(phase) => {
                assert!(result.detected, "{}: {result}", plan.name);
                assert_eq!(result.peak_rotation, phase, "{}", plan.name);
                marked_rho.push(result.peak_rho);
            }
            None => {
                assert!(!result.detected, "{}: {result}", plan.name);
                // A flat floor: nothing stands out of 1/√N noise.
                assert!(result.peak_rho.abs() < 0.01, "{}: {result}", plan.name);
            }
        }
    }
    let mean = marked_rho.iter().sum::<f64>() / marked_rho.len() as f64;
    assert!((0.015..0.02).contains(&mean), "mean marked peak rho {mean}");
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, by relative path, with its bytes.
fn tree(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for sub in ["", "traces"] {
        let mut entries: Vec<_> = std::fs::read_dir(dir.join(sub))
            .expect("readable")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.is_file())
            .collect();
        entries.sort();
        for path in entries {
            let rel = path
                .strip_prefix(dir)
                .expect("inside")
                .display()
                .to_string();
            out.push((rel, std::fs::read(&path).expect("readable")));
        }
    }
    out
}

#[test]
fn corpus_generation_is_a_function_of_the_seed() {
    let pattern = paper_pattern();
    let plans = trace_plans(42, 16, pattern.len());
    assert_eq!(plans, trace_plans(42, 16, pattern.len()));
    assert_ne!(plans, trace_plans(43, 16, pattern.len()));
    assert_eq!(plans.iter().filter(|p| p.phase.is_none()).count(), 5);
    assert!(plans
        .iter()
        .all(|p| p.phase.is_none_or(|ph| ph < pattern.len())));

    let (a, b) = (scratch("corpus_a"), scratch("corpus_b"));
    write_corpus(&a, &pattern, &plans[..4], 10_000).expect("writes");
    write_corpus(&b, &pattern, &plans[..4], 10_000).expect("writes");
    let (ta, tb) = (tree(&a), tree(&b));
    assert_eq!(ta.len(), 5, "manifest plus four traces");
    assert_eq!(ta, tb, "same seed, same bytes");
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn accepted_plans_redraw_noise_the_detector_gets_wrong() {
    let pattern = paper_pattern();
    let det = Detector::new(&pattern).expect("valid pattern");
    // Seed 100's raw plans hold an unmarked trace the Fig. 5 criterion
    // false-alarms on.
    let raw = trace_plans(100, 16, pattern.len());
    let agrees = |plan: &TracePlan| {
        let y = synth_trace(&pattern, PAPER_CYCLES, plan.phase, plan.seed);
        detector_agrees(&det, plan, &y, &[])
    };
    assert!(!raw.iter().all(agrees), "seed 100 needs a redraw");

    let accept = |plan: &TracePlan, y: &[f64]| detector_agrees(&det, plan, y, &[]);
    let (plans, redraws) = accepted_plans(100, 16, &pattern, PAPER_CYCLES, accept);
    assert!(redraws >= 1);
    assert!(plans.iter().all(agrees));
    // Only noise seeds change: names and phases are the raw plans'.
    for (p, r) in plans.iter().zip(&raw) {
        assert_eq!((&p.name, p.phase), (&r.name, r.phase));
    }
    assert_eq!(
        (plans, redraws),
        accepted_plans(100, 16, &pattern, PAPER_CYCLES, accept),
        "a function of the seed"
    );

    // A check that accepts nothing ends after MAX_DRAWS draws per trace.
    let (_, redraws) = accepted_plans(1, 2, &pattern, 1_000, |_, _| false);
    assert_eq!(redraws, 2 * (MAX_DRAWS - 1));
}

#[test]
fn candidates_are_distinct_balanced_sequences() {
    let pattern = paper_pattern();
    let list = candidates(&pattern, 16);
    assert_eq!(list.len(), 16);
    assert_eq!(list[0].pattern, pattern);
    for (i, c) in list.iter().enumerate() {
        assert_eq!(c.pattern.len(), 4095);
        assert_eq!(
            c.pattern.iter().filter(|&&b| b).count(),
            2048,
            "{}",
            c.label
        );
        for other in &list[i + 1..] {
            assert_ne!(c.pattern, other.pattern);
            assert_ne!(c.label, other.label);
        }
    }
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let line = result_line(
        true,
        3,
        0,
        &[Metric {
            name: "setup_s".into(),
            value: 0.25,
            unit: "s".into(),
        }],
    );
    assert_eq!(
        line,
        r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
    );
}
