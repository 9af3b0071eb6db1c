//! The clockmark paper-scale benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path cmbench/Cargo.toml -- \
//!     --workload paper_experiment --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path cmbench/Cargo.toml -- --workload all
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced decomposition and reports the per-layer metrics. The last line
//! of standard output is the JSON result; `cmbench/README.md` defines
//! every workload and metric.

mod campaign;
mod common;
mod experiment;
mod serve;

use cmbench::report::{gates_json, result_line, JsonObject, Metric};
use cmbench::stats::{median, peak_rss_mib};
use cmbench::tracer::{self, Tracer, BENCH_LAYER};
use common::{Ctx, EndToEnd, Layers, Res, Scale, Tally};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Relative gap between a program span and the benchmark's span around
/// the same work above which the cross-check reports a disagreement.
pub const CROSSCHECK_BOUND: f64 = 0.15;

/// Scratch space, relative to the directory the benchmark runs in.
const WORK_ROOT: &str = ".cmbench_work";

const WORKLOADS: [&str; 3] = ["paper_experiment", "corpus_campaign", "serve_stream"];

/// End-to-end metrics, reported by every workload's untraced run.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cycles_per_s", "cycles/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run.
const PER_LAYER: [(&str, &str); 30] = [
    ("core.embed_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("sim.ns_per_cycle", "ns/cycle"),
    ("power.ns_per_cycle", "ns/cycle"),
    ("soc.ns_per_cycle", "ns/cycle"),
    ("measure.ns_per_cycle", "ns/cycle"),
    ("cpa.spectrum_ms", "ms"),
    ("cpa.fold_ns_per_cycle", "ns/cycle"),
    ("cpa.identify_ms", "ms"),
    ("cpa.spectra_per_job", "count"),
    ("cpa.seq_cycles_fraction", "count"),
    ("corpus.write_ns_per_cycle", "ns/cycle"),
    ("corpus.read_ns_per_cycle", "ns/cycle"),
    ("corpus.finish_us", "us"),
    ("corpus.bytes_per_cycle", "count"),
    ("campaign.fixed_job_ms", "ms"),
    ("campaign.sequential_job_ms", "ms"),
    ("campaign.scenario_job_ms", "ms"),
    ("campaign.checkpoint_us", "us"),
    ("campaign.checkpoints_per_job", "count"),
    ("campaign.checkpoint_bytes_per_job", "count"),
    ("attack.ns_per_cycle", "ns/cycle"),
    ("serve.encode_ns_per_cycle", "ns/cycle"),
    ("serve.decode_ns_per_cycle", "ns/cycle"),
    ("serve.wire_bytes_per_cycle", "count"),
    ("serve.detect_ms", "ms"),
    ("serve.sequential_ms", "ms"),
    ("serve.identify_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("obs.tracing_overhead", "ratio"),
];

/// The layer of spans around baseline and cross-check calls.
const REFERENCE_LAYER: &str = "reference";

/// The program layers self time is attributed to (span name prefixes).
const LAYERS: [&str; 10] = [
    "core", "sim", "power", "soc", "measure", "cpa", "corpus", "campaign", "attack", "serve",
];

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("cmbench: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        return run_all(&opts);
    }
    // One worker thread for the program's own parallel loops (spectrum,
    // campaign pool); set before any program code reads it.
    std::env::set_var("CLOCKMARK_THREADS", "1");
    if opts.trace {
        // The program's recorder, for the cross-check and the campaign
        // checkpoint counters; the benchmark's own sections run with it
        // suppressed on their thread.
        clockmark_obs::install(clockmark_obs::Recorder::new(Vec::new()));
    }
    let work = Path::new(WORK_ROOT).join(format!("{}-{}", opts.workload, std::process::id()));
    let ctx = Ctx {
        seed: opts.seed,
        seconds: opts.seconds,
        work: work.clone(),
    };
    let result = std::fs::create_dir_all(&work)
        .map_err(Into::into)
        .and_then(|()| {
            if opts.trace {
                traced(&opts, &ctx)
            } else {
                untraced(&ctx, &opts.workload)
            }
        });
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_ROOT);
    match result {
        Ok(out) => out.print(&opts),
        Err(e) => {
            eprintln!("cmbench: {} failed: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}

/// Everything one run reports.
struct Output {
    tally: Tally,
    metrics: Vec<Metric>,
    extra: Vec<Metric>,
    checks: Vec<String>,
    own_share: Option<String>,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit: unit.to_owned(),
    }
}

/// The unit of a report-only figure, from its name.
fn extra_unit(name: &str) -> &'static str {
    if name.ends_with("jobs_per_s") {
        "jobs/s"
    } else if name.ends_with("cycles_per_s") {
        "cycles/s"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_percentile") {
        "%"
    } else {
        "count"
    }
}

fn untraced(ctx: &Ctx, workload: &str) -> Res<Output> {
    let mut tally = Tally::default();
    let EndToEnd {
        setup_s,
        cycles_per_s,
        extra,
    } = match workload {
        "paper_experiment" => experiment::run(ctx, &mut tally)?,
        "corpus_campaign" => campaign::run(ctx, &mut tally)?,
        _ => serve::run(ctx, &mut tally)?,
    };
    let rss = peak_rss_mib().ok_or("VmHWM is not available on this platform")?;
    let values = [setup_s, cycles_per_s, rss];
    Ok(Output {
        tally,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| metric(name, v, unit))
            .collect(),
        extra: extra
            .into_iter()
            .map(|(name, v)| metric(&name, v, extra_unit(&name)))
            .collect(),
        checks: Vec::new(),
        own_share: None,
    })
}

/// Runs one traced section of `workload` at `scale`.
fn section(
    workload: &str,
    ctx: &Ctx,
    scale: Scale,
    t: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
    checks: &mut Vec<String>,
) -> Res<()> {
    let root = format!("{BENCH_LAYER}.{workload}");
    t.span(&root, |t| match workload {
        "paper_experiment" => experiment::traced(ctx, scale, t, layers, tally, checks),
        "corpus_campaign" => campaign::traced(ctx, scale, t, layers, tally, checks),
        _ => serve::traced(ctx, scale, t, layers, tally),
    })
}

/// The traced run: the workload's own section at full size for the run's
/// length, then small probes of the other workloads so every layer has a
/// measurement.
fn traced(opts: &Opts, ctx: &Ctx) -> Res<Output> {
    let mut t = Tracer::new();
    let mut tally = Tally::default();
    let mut checks = Vec::new();
    let started = t.now_ns();
    // The workload's own section, repeated for the run's length; each of
    // its metrics is the median over the passes.
    let clock = Instant::now();
    let mut passes: Vec<Layers> = Vec::new();
    while passes.is_empty() || clock.elapsed().as_secs_f64() < ctx.seconds {
        let pass = Ctx {
            work: ctx.work.join(format!("pass{}", passes.len())),
            ..ctx.clone()
        };
        std::fs::create_dir_all(&pass.work)?;
        let mut layers = Layers::new();
        section(
            &opts.workload,
            &pass,
            Scale::Full,
            &mut t,
            &mut layers,
            &mut tally,
            &mut checks,
        )?;
        std::fs::remove_dir_all(&pass.work)?;
        passes.push(layers);
    }
    let mut layers = Layers::new();
    for name in passes
        .iter()
        .flat_map(|p| p.keys())
        .collect::<BTreeSet<_>>()
    {
        let values: Vec<f64> = passes.iter().filter_map(|p| p.get(name).copied()).collect();
        layers.insert(name.clone(), median(&values).expect("measured in a pass"));
    }
    let own_end = t.spans().len();
    for other in WORKLOADS.iter().filter(|w| **w != opts.workload) {
        section(
            other,
            ctx,
            Scale::Probe,
            &mut t,
            &mut layers,
            &mut tally,
            &mut checks,
        )?;
    }
    let wall_ns = t.now_ns() - started;

    // Self time per layer over the whole traced run; what no layer span
    // covers is the unattributed remainder.
    let by_layer = tracer::self_by_layer(t.spans());
    let mut attributed = 0;
    let mut extra = Vec::new();
    for layer in LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        attributed += ns;
        extra.push(metric(&format!("self.{layer}_ms"), ns as f64 / 1e6, "ms"));
    }
    // Baseline and cross-check calls (`reference.*` spans) are neither
    // layer time nor unexplained time.
    let reference = by_layer.get(REFERENCE_LAYER).copied().unwrap_or(0);
    extra.push(metric("self.reference_ms", reference as f64 / 1e6, "ms"));
    extra.push(metric(
        "self.unattributed_ms",
        (wall_ns - attributed - reference) as f64 / 1e6,
        "ms",
    ));
    extra.push(metric("traced_wall_ms", wall_ns as f64 / 1e6, "ms"));
    extra.push(metric("own_section_passes", passes.len() as f64, "count"));

    // The same split over the workload's own section alone, as shares of
    // its wall time.
    let own = &t.spans()[..own_end];
    let own_layers = tracer::self_by_layer(own);
    let own_wall = own
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64)
        .sum::<f64>()
        - own_layers.get(REFERENCE_LAYER).copied().unwrap_or(0) as f64;
    let mut share = JsonObject::new();
    let mut own_attributed = 0.0;
    for layer in LAYERS {
        let ns = own_layers.get(layer).copied().unwrap_or(0) as f64;
        own_attributed += ns;
        share = share.num(layer, ns / own_wall);
    }
    share = share.num("unattributed", 1.0 - own_attributed / own_wall);

    let spans_dir = Path::new(WORK_ROOT).join("spans");
    std::fs::create_dir_all(&spans_dir)?;
    std::fs::write(
        spans_dir.join(format!("{}-seed{}.jsonl", opts.workload, opts.seed)),
        tracer::to_jsonl(t.spans()),
    )?;

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            layers
                .get(name)
                .map(|&v| metric(name, v, unit))
                .ok_or_else(|| format!("no section measured {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Output {
        tally,
        metrics,
        extra,
        checks,
        own_share: Some(share.finish()),
    })
}

/// The CPU model, where the platform names it.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run environment, so two result sets can be checked as comparable.
fn env_json(opts: &Opts) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (threads, connections) = match opts.workload.as_str() {
        // Server pool workers plus one client thread per connection.
        "serve_stream" => (2 * serve::CONNECTIONS, serve::CONNECTIONS),
        _ => (1, 0),
    };
    JsonObject::new()
        .str("workload", &opts.workload)
        .int("seed", opts.seed)
        .num("seconds", opts.seconds)
        .bool("trace", opts.trace)
        .int("nproc", nproc as u64)
        .int("threads", threads as u64)
        .int("connections", connections as u64)
        .str("cpu_model", &cpu_model())
        .str("rustc", env!("CMBENCH_RUSTC"))
        .str("commit", env!("CMBENCH_COMMIT"))
        .finish()
}

impl Output {
    fn print(self, opts: &Opts) -> ExitCode {
        let correct = self.tally.failed == 0 && self.tally.gates.iter().all(|g| g.ok);
        println!(
            "cmbench {} seed {} trace {}",
            opts.workload,
            opts.seed,
            u8::from(opts.trace)
        );
        for m in &self.metrics {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
        }
        for m in &self.extra {
            println!("report {} = {} {}", m.name, m.value, m.unit);
        }
        for g in &self.tally.gates {
            let state = if g.ok { "ok" } else { "FAILED" };
            println!("gate {} {state}: {}", g.name, g.detail);
        }
        for c in &self.checks {
            println!("crosscheck {c}");
        }
        for w in &self.tally.wrong {
            println!("wrong verdict: {w}");
        }
        let info = self
            .tally
            .info
            .iter()
            .fold(JsonObject::new(), |o, (k, v)| o.str(k, v))
            .finish();
        let mut detail = JsonObject::new()
            .raw("env", &env_json(opts))
            .raw("info", &info)
            .raw("gates", &gates_json(&self.tally.gates))
            .raw("report", &cmbench::report::metrics_json(&self.extra))
            .raw("crosscheck", &format!("[{}]", self.checks.join(",")));
        if let Some(share) = &self.own_share {
            detail = detail.raw("own_section_self_share", share);
        }
        println!("{}", detail.finish());
        println!(
            "{}",
            result_line(
                correct,
                self.tally.attempted,
                self.tally.failed,
                &self.metrics
            )
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, untraced then traced, each in its own process so
/// peak memory is per workload.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cmbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let started = Instant::now();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string(), "--trace", trace])
                .output();
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("cmbench: running {workload}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            let last = stdout.lines().last().unwrap_or("");
            match clockmark_obs::json::parse(last) {
                Ok(json) if out.status.success() => {
                    attempted += json
                        .get("attempted")
                        .and_then(|v| v.as_f64())
                        .unwrap_or(0.0) as u64;
                    failed += json.get("failed").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
                }
                _ => correct = false,
            }
        }
    }
    eprintln!(
        "cmbench: all workloads in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    println!(
        "{}",
        result_line(correct && failed == 0, attempted.max(1), failed, &[])
    );
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
