//! `corpus_campaign`: one seeded corpus of paper-scale synthetic traces
//! (P = 4095, 300k cycles, a third unmarked) through three `Campaign`
//! flavours with default `CampaignSpec` settings — fixed-budget,
//! sequential, and two non-identity scenario cells — on one worker
//! thread. The corpus is written during set-up, so its pages are in the
//! page cache when the campaigns read it.

use crate::common::{
    crosscheck, set_layer, span_ns_since, timed, with_program_spans, Ctx, EndToEnd, Layers, Res,
    Scale, Tally,
};
use clockmark::corpus::{Corpus, TraceHeader};
use clockmark::cpa::{DetectOptions, DetectionResult, Detector, SequentialOptions};
use clockmark::{
    AttackContext, AttackSpec, Campaign, CampaignLimits, CampaignSpec, DefenseSpec, JobOutcome,
    ScenarioSpec,
};
use cmbench::stats::{median, steady_rate};
use cmbench::synth::{
    accepted_plans, derive, detector_agrees, matches_truth, paper_pattern, synth_trace,
    write_corpus, TracePlan, PAPER_CYCLES,
};
use cmbench::tracer::Tracer;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// Traces in the corpus.
const TRACES: usize = 16;

/// Traces in the probe corpus the other workloads' traced runs use.
const PROBE_TRACES: usize = 3;

/// What a flavour's verdicts must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Marked traces detected at their rotation, unmarked ones not.
    GroundTruth,
    /// Every verdict detected (`true`) or rejected (`false`): the
    /// scenario's defended device re-emits the watermark itself.
    Every(bool),
}

/// One campaign flavour.
struct Flavour {
    label: &'static str,
    kind: &'static str,
    sequential: Option<SequentialOptions>,
    scenario: Option<ScenarioSpec>,
    expect: Expect,
}

/// The flavours, in run order. The scenario cells are built through the
/// public `ScenarioSpec` API with the default attack and defense
/// parameters and the default (Fig. 5) amplitude and noise.
fn flavours(seed: u64) -> Vec<Flavour> {
    let cell = |attack, defense, index| ScenarioSpec {
        attack,
        defense,
        seed: derive(seed, index),
        ..ScenarioSpec::default()
    };
    vec![
        Flavour {
            label: "fixed",
            kind: "fixed",
            sequential: None,
            scenario: None,
            expect: Expect::GroundTruth,
        },
        Flavour {
            label: "sequential",
            kind: "sequential",
            sequential: Some(SequentialOptions::default()),
            scenario: None,
            expect: Expect::GroundTruth,
        },
        Flavour {
            label: "jamming_multi_watermark",
            kind: "scenario",
            sequential: None,
            scenario: Some(cell(
                AttackSpec::Jamming {
                    amplitude_watts: 1.5e-3,
                },
                DefenseSpec::MultiWatermark {
                    extra_widths: vec![5, 7],
                },
                11,
            )),
            expect: Expect::Every(true),
        },
        Flavour {
            label: "replay_challenge_response",
            kind: "scenario",
            sequential: None,
            scenario: Some(cell(
                AttackSpec::Replay {
                    estimate_cycles: 16_384,
                    noise_watts: 0.045,
                },
                DefenseSpec::ChallengeResponse { phase_delta: 17 },
                12,
            )),
            expect: Expect::Every(false),
        },
    ]
}

fn spec(corpus: &Path, plans: &[TracePlan], flavour: &Flavour) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        corpus,
        paper_pattern(),
        plans.iter().map(|p| p.name.clone()).collect(),
    );
    spec.sequential = flavour.sequential;
    spec.scenario = flavour.scenario.clone();
    spec
}

fn verdict_ok(expect: Expect, plan: &TracePlan, result: &DetectionResult) -> bool {
    match expect {
        Expect::GroundTruth => matches_truth(plan, result),
        Expect::Every(detected) => result.detected == detected,
    }
}

/// `count` trace plans drawn from `seed` on which an in-process
/// `Detector` gets the fixed-budget and sequential verdicts right; the
/// number of noise redraws is recorded under `key`.
fn plans(seed: u64, count: usize, tally: &mut Tally, key: &str) -> Res<Vec<TracePlan>> {
    let pattern = paper_pattern();
    let det = Detector::new(&pattern)?;
    let (plans, redraws) = accepted_plans(seed, count, &pattern, PAPER_CYCLES, |plan, y| {
        detector_agrees(&det, plan, y, &[])
    });
    tally.info(key, &redraws.to_string());
    Ok(plans)
}

/// Creates and runs one campaign to completion in `dir`; returns its
/// outcomes and wall time. Verdicts are checked into `tally`.
fn run_campaign(
    dir: &Path,
    spec: CampaignSpec,
    flavour: &Flavour,
    plans: &[TracePlan],
    tally: &mut Tally,
) -> Res<(Vec<JobOutcome>, f64)> {
    let (status, secs) = timed(|| -> Res<_> {
        let campaign = Campaign::create(dir, spec)?.with_threads(1);
        Ok(campaign.run(&CampaignLimits::none())?)
    });
    let status = status?;
    if !status.is_complete() {
        return Err(format!("{} campaign stopped early: {status}", flavour.label).into());
    }
    let outcomes = Campaign::open(dir)?.report()?.outcomes;
    for outcome in &outcomes {
        let plan = &plans[outcome.index];
        tally.verdict(verdict_ok(flavour.expect, plan, &outcome.result), || {
            format!("{} {}: {}", flavour.label, plan.name, outcome.result)
        });
    }
    Ok((outcomes, secs))
}

/// The untraced run: end-to-end metrics plus per-flavour throughput.
pub fn run(ctx: &Ctx, tally: &mut Tally) -> Res<EndToEnd> {
    let pattern = paper_pattern();
    let plans = plans(ctx.seed, TRACES, tally, "noise_redraws")?;
    let mut setups = Vec::new();
    for k in 0..5 {
        let dir = ctx.work.join(format!("corpus_{k}"));
        let (corpus, secs) = timed(|| write_corpus(&dir, &pattern, &plans, PAPER_CYCLES));
        corpus?;
        setups.push(secs);
        if k > 0 {
            fs::remove_dir_all(&dir)?;
        }
    }
    let corpus_dir = ctx.work.join("corpus_0");
    let flavours = flavours(ctx.seed);
    record_kernel_and_mmap(
        tally,
        &Corpus::open(&corpus_dir)?,
        &spec(&corpus_dir, &plans, &flavours[0]),
        &plans[0].name,
    )?;
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); flavours.len()];
    let mut round_rates = Vec::new();
    let mut fixed_report: Option<Vec<u8>> = None;
    let mut identical = true;
    let start = Instant::now();
    let mut round = 0;
    while round < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut round_s = 0.0;
        for (i, flavour) in flavours.iter().enumerate() {
            let dir = ctx.work.join(format!("r{round}_{}", flavour.label));
            let (_, secs) = run_campaign(
                &dir,
                spec(&corpus_dir, &plans, flavour),
                flavour,
                &plans,
                tally,
            )?;
            walls[i].push(secs);
            round_s += secs;
            if flavour.label == "fixed" {
                let bytes = fs::read(dir.join("report.json"))?;
                match &fixed_report {
                    None => fixed_report = Some(bytes),
                    Some(first) => identical &= *first == bytes,
                }
            }
            fs::remove_dir_all(&dir)?;
        }
        round_rates.push((flavours.len() * TRACES * PAPER_CYCLES) as f64 / round_s);
        round += 1;
    }
    tally.gate(
        "corpus_campaign.fixed_report_byte_identical",
        identical,
        format!("report.json compared across {round} fixed-budget runs of one seed"),
    );

    let jobs_per_s = |secs: f64, jobs: usize| jobs as f64 / secs;
    let median_of = |i: usize| median(&walls[i]).expect("at least two rounds");
    let scenario_s: Vec<f64> = walls[2].iter().zip(&walls[3]).map(|(a, b)| a + b).collect();
    let extra = vec![
        (
            "fixed_jobs_per_s".to_owned(),
            jobs_per_s(median_of(0), TRACES),
        ),
        (
            "sequential_jobs_per_s".to_owned(),
            jobs_per_s(median_of(1), TRACES),
        ),
        (
            "scenario_jobs_per_s".to_owned(),
            jobs_per_s(median(&scenario_s).expect("two rounds"), 2 * TRACES),
        ),
        ("rounds".to_owned(), round as f64),
        (
            "median_cycles_per_s".to_owned(),
            median(&round_rates).expect("two rounds"),
        ),
    ];
    Ok(EndToEnd {
        setup_s: median(&setups).expect("five set-ups"),
        cycles_per_s: steady_rate(&round_rates).expect("two rounds"),
        extra,
    })
}

/// Replays one fixed-budget or sequential job through the layers' public
/// calls — `Corpus::source` → `read_chunk` → `push_chunk` → `state()` at
/// each checkpoint → spectrum — and returns the verdict and the number of
/// spectra it computed.
fn replay_streaming(
    t: &mut Tracer,
    corpus: &Corpus,
    spec: &CampaignSpec,
    name: &str,
) -> Res<(DetectionResult, usize)> {
    let det = Detector::with_options(
        &spec.pattern,
        DetectOptions::default()
            .with_algo(spec.algo)
            .with_criterion(spec.criterion),
    )?;
    let mut src = t.span("corpus.source", |_| corpus.source(name))?;
    let mut buf = vec![0.0f64; spec.chunk_cycles.max(1)];
    let mut since = 0u64;
    if let Some(seq) = spec.sequential {
        let mut session = det.detect_sequential_streaming(seq);
        let mut fully_read = false;
        while !session.decided() {
            let got = t.span("corpus.read_chunk", |_| src.read_chunk(&mut buf))?;
            if got == 0 {
                fully_read = true;
                break;
            }
            t.span("cpa.push_chunk", |_| session.push_chunk(&buf[..got]));
            since += got as u64;
            if !session.decided() && since >= spec.checkpoint_cycles {
                std::hint::black_box(t.span("campaign.checkpoint", |_| session.state()));
                since = 0;
            }
        }
        if fully_read {
            t.span("corpus.finish", |_| src.finish())?;
        }
        let result = t.span("cpa.finalize", |_| session.finalize());
        return Ok((result.result, result.checkpoints.len()));
    }
    let mut session = det.detect_streaming();
    loop {
        let got = t.span("corpus.read_chunk", |_| src.read_chunk(&mut buf))?;
        if got == 0 {
            break;
        }
        t.span("cpa.push_chunk", |_| session.push_chunk(&buf[..got]));
        since += got as u64;
        if since >= spec.checkpoint_cycles {
            std::hint::black_box(t.span("campaign.checkpoint", |_| session.state()));
            since = 0;
        }
    }
    t.span("corpus.finish", |_| src.finish())?;
    let spectrum = t.span("cpa.spectrum", |_| session.spectrum())?;
    Ok((spectrum.detect(&spec.criterion), 1))
}

/// Replays one scenario job's buffered read and attack, then the
/// spectrum of the attacked samples.
fn replay_scenario(t: &mut Tracer, corpus: &Corpus, spec: &CampaignSpec, name: &str) -> Res<()> {
    let scenario = spec.scenario.as_ref().expect("a scenario flavour");
    let mut src = t.span("corpus.source", |_| corpus.source(name))?;
    let mut buf = vec![0.0f64; spec.chunk_cycles.max(1)];
    let mut samples = Vec::with_capacity(src.header().cycles as usize);
    loop {
        let got = t.span("corpus.read_chunk", |_| src.read_chunk(&mut buf))?;
        if got == 0 {
            break;
        }
        samples.extend_from_slice(&buf[..got]);
    }
    t.span("corpus.finish", |_| src.finish())?;
    let attack = scenario.attack.build();
    let ctx = AttackContext {
        seed: scenario.seed,
        pattern: &spec.pattern,
    };
    t.span("attack.apply", |_| attack.apply(&ctx, &mut samples));
    let det = Detector::with_options(&spec.pattern, DetectOptions::default().with_algo(spec.algo))?;
    std::hint::black_box(t.span("cpa.spectrum", |_| det.spectrum(&samples))?);
    Ok(())
}

/// The traced section: the corpus written call by call, one replayed job
/// per flavour, and every flavour's `Campaign::run` timed beside it.
pub fn traced(
    ctx: &Ctx,
    scale: Scale,
    t: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
    checks: &mut Vec<String>,
) -> Res<()> {
    let pattern = paper_pattern();
    let count = if scale == Scale::Full {
        TRACES
    } else {
        PROBE_TRACES
    };
    let plans = t.span("reference.accept_inputs", |_| {
        plans(
            derive(ctx.seed, 5),
            count,
            tally,
            &format!("{}_noise_redraws", dir_tag(scale)),
        )
    })?;
    let dir = ctx.work.join(match scale {
        Scale::Full => "traced_corpus",
        Scale::Probe => "probe_corpus",
    });
    let mark = t.spans().len();
    let corpus = t.span("bench.corpus_campaign", |t| -> Res<Corpus> {
        let mut corpus = t.span("corpus.create", |_| Corpus::create(&dir))?;
        for plan in &plans {
            let samples = t.span("bench.synth", |_| {
                synth_trace(&pattern, PAPER_CYCLES, plan.phase, plan.seed)
            });
            let header = TraceHeader {
                seed: plan.seed,
                ..TraceHeader::bare(0)
            };
            t.span("corpus.add", |_| corpus.add(&plan.name, header, &samples))?;
        }
        Ok(corpus)
    })?;
    let total_cycles = (count * PAPER_CYCLES) as f64;
    let since_mark = |t: &Tracer, name: &str| -> (usize, f64) {
        t.spans()[mark..]
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(n, ns), s| (n + 1, ns + s.duration_ns() as f64))
    };
    set_layer(
        layers,
        "corpus.write_ns_per_cycle",
        since_mark(t, "corpus.add").1 / total_cycles,
    );

    let flavours = flavours(ctx.seed);
    let marked = plans
        .iter()
        .position(|p| p.phase.is_some())
        .expect("a marked trace");
    let unmarked = plans
        .iter()
        .position(|p| p.phase.is_none())
        .expect("an unmarked trace");

    // One replayed job per flavour (the sequential flavour replays a
    // marked and an unmarked job: they stop at different looks).
    let fixed_spec = spec(&dir, &plans, &flavours[0]);
    let replay_mark = t.spans().len();
    let (fixed_result, _) = clockmark_obs::suppressed(|| {
        t.span("bench.replay_fixed", |t| {
            replay_streaming(t, &corpus, &fixed_spec, &plans[marked].name)
        })
    })?;
    let read_cycles = PAPER_CYCLES as f64;
    let fold_ns = span_ns_since(t, replay_mark, "cpa.push_chunk");
    let read_ns = span_ns_since(t, replay_mark, "corpus.read_chunk");
    set_layer(layers, "cpa.fold_ns_per_cycle", fold_ns / read_cycles);
    set_layer(layers, "corpus.read_ns_per_cycle", read_ns / read_cycles);
    set_layer(
        layers,
        "corpus.bytes_per_cycle",
        TraceHeader::bare(PAPER_CYCLES as u64).file_size() as f64 / read_cycles,
    );
    if scale == Scale::Full {
        set_layer(
            layers,
            "cpa.spectrum_ms",
            span_ns_since(t, replay_mark, "cpa.spectrum") / 1e6,
        );
        // Interleaved replays with recording off and on give the tracing
        // overhead.
        let (mut off, mut on) = (Vec::new(), Vec::new());
        t.span("reference.tracing_overhead", |_| -> Res<()> {
            for _ in 0..5 {
                for (tracer, walls) in [(Tracer::disabled(), &mut off), (Tracer::new(), &mut on)] {
                    let mut tracer = tracer;
                    let (r, secs) = timed(|| {
                        clockmark_obs::suppressed(|| {
                            replay_streaming(&mut tracer, &corpus, &fixed_spec, &plans[marked].name)
                        })
                    });
                    r?;
                    walls.push(secs);
                }
            }
            Ok(())
        })?;
        let overhead =
            median(&on).expect("five replays") / median(&off).expect("five replays") - 1.0;
        layers.insert("obs.tracing_overhead".into(), overhead);
    }
    let seq_spec = spec(&dir, &plans, &flavours[1]);
    let mut spectra = Vec::new();
    for index in [marked, unmarked] {
        let (_, n) = clockmark_obs::suppressed(|| {
            t.span("bench.replay_sequential", |t| {
                replay_streaming(t, &corpus, &seq_spec, &plans[index].name)
            })
        })?;
        spectra.push(n as f64);
    }
    set_layer(
        layers,
        "cpa.spectra_per_job",
        spectra.iter().sum::<f64>() / spectra.len() as f64,
    );
    let scenario_spec = spec(&dir, &plans, &flavours[2]);
    let attack_mark = t.spans().len();
    clockmark_obs::suppressed(|| {
        t.span("bench.replay_scenario", |t| {
            replay_scenario(t, &corpus, &scenario_spec, &plans[marked].name)
        })
    })?;
    set_layer(
        layers,
        "attack.ns_per_cycle",
        span_ns_since(t, attack_mark, "attack.apply") / read_cycles,
    );
    let mean_us = |name: &str| {
        let (count, ns) = since_mark(t, name);
        ns / count.max(1) as f64 / 1e3
    };
    set_layer(
        layers,
        "campaign.checkpoint_us",
        mean_us("campaign.checkpoint"),
    );
    set_layer(layers, "corpus.finish_us", mean_us("corpus.finish"));

    // Every flavour through the public entry point, program recorder
    // suppressed; each verdict checked, and the replayed fixed job's
    // verdict compared with the campaign's.
    let mut job_ms = [0.0f64; 3];
    for (i, flavour) in flavours.iter().enumerate() {
        let run_dir = ctx
            .work
            .join(format!("traced_{}_{}", dir_tag(scale), flavour.label));
        let name = format!("campaign.run_{}", flavour.kind);
        let (outcomes, secs) = t.span(&name, |_| {
            clockmark_obs::suppressed(|| {
                run_campaign(
                    &run_dir,
                    spec(&dir, &plans, flavour),
                    flavour,
                    &plans,
                    tally,
                )
            })
        })?;
        // Fixed, sequential, then the scenario cells summed.
        job_ms[i.min(2)] += secs * 1e3;
        if i == 0 {
            let landed = &outcomes[marked].result;
            tally.gate(
                &format!("corpus_campaign.{}_replay_matches_campaign", dir_tag(scale)),
                format!("{landed:?}") == format!("{fixed_result:?}"),
                format!("replayed {} vs Campaign::run {}", fixed_result, landed),
            );
        }
        if i == 1 {
            let consumed: u64 = outcomes.iter().map(|o| o.cycles).sum();
            set_layer(
                layers,
                "cpa.seq_cycles_fraction",
                consumed as f64 / total_cycles,
            );
        }
        fs::remove_dir_all(&run_dir)?;
    }
    set_layer(layers, "campaign.fixed_job_ms", job_ms[0] / count as f64);
    set_layer(
        layers,
        "campaign.sequential_job_ms",
        job_ms[1] / count as f64,
    );
    set_layer(
        layers,
        "campaign.scenario_job_ms",
        job_ms[2] / (2 * count) as f64,
    );

    // The fixed flavour once more with the program's recorder on: its
    // checkpoint counters, and its job spans against the outside timing.
    let run_dir = ctx.work.join(format!("traced_{}_recorded", dir_tag(scale)));
    let (recorded, program) = t.span("reference.recorded_campaign", |_| {
        with_program_spans(|| {
            run_campaign(&run_dir, fixed_spec.clone(), &flavours[0], &plans, tally)
        })
    });
    recorded?;
    fs::remove_dir_all(&run_dir)?;
    set_layer(
        layers,
        "campaign.checkpoints_per_job",
        program.counter("campaign.checkpoints_written") as f64 / count as f64,
    );
    set_layer(
        layers,
        "campaign.checkpoint_bytes_per_job",
        program.counter("campaign.checkpoint_bytes") as f64 / count as f64,
    );
    if scale == Scale::Full {
        let (jobs, job_ns) = program.span_ns("campaign.job");
        checks.push(crosscheck(
            "campaign.job",
            job_ns / jobs.max(1) as f64 / 1e6,
            "campaign.run_fixed",
            job_ms[0] / count as f64,
            crate::CROSSCHECK_BOUND,
        ));
        record_kernel_and_mmap(tally, &corpus, &fixed_spec, &plans[marked].name)?;
    }
    Ok(())
}

/// Records the spectrum kernel the campaign spec resolved and whether the
/// corpus serves the trace from a memory map; the kernel must be the FFT
/// at P = 4095.
fn record_kernel_and_mmap(
    tally: &mut Tally,
    corpus: &Corpus,
    spec: &CampaignSpec,
    name: &str,
) -> Res<()> {
    let algo = spec.algo.as_str();
    tally.info("cpa_algo", algo);
    tally.info("mmap", &corpus.source(name)?.is_zero_copy().to_string());
    tally.gate(
        "corpus_campaign.fft_resolved_at_paper_scale",
        algo == "fft",
        format!(
            "CampaignSpec resolved CpaAlgo `{algo}` for P = {}",
            spec.pattern.len()
        ),
    );
    Ok(())
}

fn dir_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Probe => "probe",
    }
}
