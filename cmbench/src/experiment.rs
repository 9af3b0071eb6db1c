//! `paper_experiment`: the paper's measurement at paper scale through
//! `Experiment::run` — `ClockModulationWatermark::paper()`, 300k cycles,
//! P = 4095 — as Fig. 6-style seeded repetitions of chip I and chip II
//! with the watermark active, after one watermark-disabled control per
//! chip (Fig. 5b/5d). One worker thread.

use crate::common::{
    crosscheck, set_layer, span_ns_since, timed, with_program_spans, Ctx, EndToEnd, Layers, Res,
    Scale, Tally,
};
use clockmark::cpa::{DetectionResult, Detector, SpreadSpectrum};
use clockmark::netlist::Netlist;
use clockmark::power::PowerModel;
use clockmark::sim::{CycleSim, SignalDriver};
use clockmark::soc::Soc;
use clockmark::{ChipModel, ClockModulationWatermark, Experiment, WatermarkArchitecture};
use cmbench::stats::{median, steady_rate};
use cmbench::synth::derive;
use cmbench::tracer::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Cycles of the reduced experiment that probes these layers from the
/// other workloads' traced runs.
const PROBE_CYCLES: usize = 30_000;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 51;

/// The paper's experiment on `chip` (true = chip I) with the given seed.
fn experiment(chip_i: bool, enabled: bool, seed: u64) -> Experiment {
    let base = if chip_i {
        Experiment::paper_chip_i()
    } else {
        Experiment::paper_chip_ii()
    };
    let e = base.with_seed(seed);
    if enabled {
        e
    } else {
        e.disabled()
    }
}

/// One round of the schedule: round 0 is the two controls, every later
/// round one active repetition per chip.
fn round(seed: u64, index: u64) -> [Experiment; 2] {
    let enabled = index > 0;
    [
        experiment(true, enabled, derive(seed, 2 * index)),
        experiment(false, enabled, derive(seed, 2 * index + 1)),
    ]
}

/// Active experiments must resolve the peak at the trigger offset;
/// controls must stay flat.
fn verdict_ok(e: &Experiment, detection: &DetectionResult, expected: usize) -> bool {
    if e.watermark_enabled {
        detection.detected && detection.peak_rotation == expected
    } else {
        !detection.detected
    }
}

/// One set-up: the watermarked netlist, its simulator and both SoCs.
fn setup_once(arch: &ClockModulationWatermark) -> Res<f64> {
    let (built, secs) = timed(|| -> Res<()> {
        let mut netlist = Netlist::new();
        let clk = netlist.add_clock_root("clk");
        arch.embed(&mut netlist, clk.into())?;
        std::hint::black_box(CycleSim::new(&netlist)?);
        std::hint::black_box(Soc::chip_i()?);
        std::hint::black_box(Soc::chip_ii()?);
        Ok(())
    });
    built?;
    Ok(secs)
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx, tally: &mut Tally) -> Res<EndToEnd> {
    let arch = ClockModulationWatermark::paper();
    let setups = (0..SETUPS)
        .map(|_| setup_once(&arch))
        .collect::<Res<Vec<f64>>>()?;

    let start = Instant::now();
    let mut op_rates = Vec::new();
    let mut op_ms = Vec::new();
    let mut index = 0;
    while index < 3 || start.elapsed().as_secs_f64() < ctx.seconds {
        for e in round(ctx.seed, index) {
            let (outcome, secs) = timed(|| e.run(&arch));
            let outcome = outcome?;
            op_ms.push(secs * 1e3);
            // The controls of round 0 are checked but not timed into the
            // rate; they also warm the process up.
            if index > 0 {
                op_rates.push(e.cycles as f64 / secs);
            }
            tally.verdict(
                verdict_ok(&e, &outcome.detection, outcome.expected_peak_rotation),
                || format!("{:?} seed {}: {}", e.chip, e.seed, outcome.detection),
            );
        }
        index += 1;
    }
    let extra = vec![
        (
            "experiment_p50_ms".to_owned(),
            median(&op_ms).unwrap_or(f64::NAN),
        ),
        ("experiments".to_owned(), op_ms.len() as f64),
        (
            "median_cycles_per_s".to_owned(),
            median(&op_rates).expect("two active rounds"),
        ),
    ];
    Ok(EndToEnd {
        setup_s: median(&setups).expect("timed set-ups"),
        cycles_per_s: steady_rate(&op_rates).expect("two active rounds"),
        extra,
    })
}

/// What the hand-composed pipeline produced.
struct Composed {
    spectrum: SpreadSpectrum,
    detection: DetectionResult,
    expected: usize,
}

/// `Experiment::run`, composed from the layers' public calls in its exact
/// RNG order, each call inside a span.
fn compose(e: &Experiment, arch: &ClockModulationWatermark, t: &mut Tracer) -> Res<Composed> {
    let (netlist, wm) = t.span("core.embed", |_| -> Res<_> {
        let mut netlist = Netlist::new();
        let clk = netlist.add_clock_root("clk");
        let wm = arch.embed(&mut netlist, clk.into())?;
        Ok((netlist, wm))
    })?;
    let mut rng = StdRng::seed_from_u64(e.seed);
    let mut sim = t.span("sim.build", |_| CycleSim::new(&netlist))?;
    sim.drive(wm.enable, SignalDriver::Constant(e.watermark_enabled))?;
    let activity = t.span("sim.run", |_| {
        for _ in 0..e.phase_offset {
            sim.step();
        }
        sim.run(e.cycles)
    })?;
    let chip_power = t.span("power.trace", |_| {
        let model = PowerModel::new(e.library, e.f_clk);
        let mut power = model.trace(&activity);
        power.add_offset(model.static_power(netlist.register_count()));
        std::hint::black_box(model.group_trace(&activity, wm.group));
        power
    });
    let background = t.span("soc.run", |_| -> Res<_> {
        let mut soc = match e.chip {
            ChipModel::ChipI => Soc::chip_i()?,
            ChipModel::ChipII => Soc::chip_ii()?,
            other => return Err(format!("unsupported chip {other:?}").into()),
        };
        Ok(soc.run(e.cycles, &mut rng)?)
    })?;
    let total = t.span("power.add", |_| chip_power.checked_add(&background))?;
    let measured = t.span("measure.acquire", |_| {
        e.acquisition.acquire(&total, &mut rng)
    });
    let spectrum = t.span("cpa.spectrum", |_| {
        Detector::new(&wm.pattern)?.spectrum(measured.as_watts())
    })?;
    let detection = t.span("cpa.detect", |_| spectrum.detect(&e.criterion));
    Ok(Composed {
        spectrum,
        detection,
        expected: e.phase_offset % wm.period().max(1),
    })
}

/// Whether two spectra and verdicts agree bit for bit.
fn bit_identical(
    a: &SpreadSpectrum,
    da: &DetectionResult,
    b: &SpreadSpectrum,
    db: &DetectionResult,
) -> bool {
    a.rho().len() == b.rho().len()
        && a.rho()
            .iter()
            .zip(b.rho())
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && format!("{da:?}") == format!("{db:?}")
}

/// The traced section: per-layer metrics from the composed pipeline.
pub fn traced(
    ctx: &Ctx,
    scale: Scale,
    t: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
    checks: &mut Vec<String>,
) -> Res<()> {
    let arch = ClockModulationWatermark::paper();
    let mut e = experiment(true, true, derive(ctx.seed, 2));
    if scale == Scale::Probe {
        e.cycles = PROBE_CYCLES;
    }
    // The public entry point first, with the program's recorder on: it
    // warms the process, is the reference of the bit-identity gate, and
    // gives the program's own spans for the cross-check.
    let reference = if scale == Scale::Full {
        Some(t.span("reference.experiment_run", |_| {
            with_program_spans(|| e.run(&arch))
        }))
    } else {
        None
    };
    let mark = t.spans().len();
    let (composed, traced_s) = timed(|| {
        clockmark_obs::suppressed(|| t.span("bench.experiment", |t| compose(&e, &arch, t)))
    });
    let composed = composed?;
    let ns = |name: &str| span_ns_since(t, mark, name);
    let cycles = e.cycles as f64;
    set_layer(layers, "core.embed_ms", ns("core.embed") / 1e6);
    set_layer(layers, "sim.build_ms", ns("sim.build") / 1e6);
    set_layer(
        layers,
        "sim.ns_per_cycle",
        ns("sim.run") / (cycles + e.phase_offset as f64),
    );
    set_layer(
        layers,
        "power.ns_per_cycle",
        (ns("power.trace") + ns("power.add")) / cycles,
    );
    set_layer(layers, "soc.ns_per_cycle", ns("soc.run") / cycles);
    set_layer(
        layers,
        "measure.ns_per_cycle",
        ns("measure.acquire") / cycles,
    );
    set_layer(layers, "cpa.spectrum_ms", ns("cpa.spectrum") / 1e6);
    let Some((reference, program)) = reference else {
        return Ok(());
    };
    let reference = reference?;
    tally.verdict(
        verdict_ok(&e, &composed.detection, composed.expected),
        || format!("composed chip I seed {}: {}", e.seed, composed.detection),
    );
    tally.gate(
        "paper_experiment.composed_matches_experiment_run",
        bit_identical(
            &composed.spectrum,
            &composed.detection,
            &reference.spectrum,
            &reference.detection,
        ),
        format!(
            "composed peak {} rho {:e} vs Experiment::run peak {} rho {:e}",
            composed.detection.peak_rotation,
            composed.detection.peak_rho,
            reference.detection.peak_rotation,
            reference.detection.peak_rho
        ),
    );
    for (program_span, bench_span) in [
        ("sim.run", "sim.run"),
        ("measure.acquire", "measure.acquire"),
        ("cpa.spread_spectrum", "cpa.spectrum"),
    ] {
        let (_, program_ns) = program.span_ns(program_span);
        checks.push(crosscheck(
            program_span,
            program_ns / 1e6,
            bench_span,
            ns(bench_span) / 1e6,
            crate::CROSSCHECK_BOUND,
        ));
    }

    // The same composition with recording off: the tracing overhead.
    let (untraced, untraced_s) = timed(|| {
        t.span("reference.untraced_experiment", |_| {
            clockmark_obs::suppressed(|| compose(&e, &arch, &mut Tracer::disabled()))
        })
    });
    untraced?;
    layers.insert("obs.tracing_overhead".into(), traced_s / untraced_s - 1.0);
    Ok(())
}
