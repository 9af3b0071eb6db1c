//! The `clockmark-cli` binary: a thin dispatcher over
//! [`clockmark_tools::commands`].

use clockmark::ChipModel;
use clockmark_tools::args::Args;
use clockmark_tools::commands::{
    cmd_attack, cmd_detect, cmd_embed, cmd_experiment, cmd_metrics, cmd_metrics_collapse,
    cmd_parse, cmd_simulate, cmd_verilog, ArchChoice, EmbedOptions,
};
use clockmark_tools::fleet::{
    cmd_campaign_resume, cmd_campaign_run, cmd_campaign_status, cmd_corpus_build,
    cmd_corpus_convert, cmd_corpus_ls, cmd_corpus_verify, parse_chip_list, parse_seed_list,
    CampaignCreateOptions, CampaignRunOptions, CorpusBuildOptions,
};
use clockmark_tools::fleet_cmd::{
    cmd_fleet_run, cmd_fleet_serve, cmd_fleet_status, parse_worker_list, FleetRunOptions,
};
use clockmark_tools::opts::{pattern_spec, sequential_options};
use clockmark_tools::scenario_cmd::{
    cmd_scenario_report, cmd_scenario_run, cmd_scenario_template, ScenarioTemplateOptions,
};
use clockmark_tools::serve_cmd::{
    cmd_client_detect, cmd_client_detect_corpus, cmd_client_identify, cmd_client_metrics,
    cmd_client_ping, cmd_client_shutdown, cmd_client_status, cmd_client_watch, cmd_serve,
    parse_candidate_list, ClientDetectOptions, ServeOptions,
};
use clockmark_tools::ToolError;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
clockmark-cli — clock-modulation watermark tool suite

USAGE:
  clockmark-cli parse <file.cmn>
  clockmark-cli embed <file.cmn> --out <file.cmn> [--arch clockmod|load]
                 [--width W] [--seed S] [--words N] [--regs-per-word N]
                 [--load-registers N]
  clockmark-cli simulate <file.cmn> [--cycles N] [--vcd <file>] [--power <file>]
  clockmark-cli verilog <file.cmn> --out <file.v> [--module <name>]
  clockmark-cli attack <file.cmn> --group <name>
  clockmark-cli detect --trace <file.csv> (--lfsr W [--seed S] | --bits 1011…)
                 [--lenient]
  clockmark-cli experiment [--chip i|ii] [--cycles N] [--seed S] [--full-noise]
                 [--spectrum <file.csv>]
  clockmark-cli metrics <file.jsonl> [--collapse <out.txt>]
  clockmark-cli corpus build <dir> [--chips i,ii] [--seeds 1..8] [--cycles N]
                 [--width W] [--wgc-seed S] [--unmarked] [--full-noise]
  clockmark-cli corpus ls <dir>
  clockmark-cli corpus verify <dir>
  clockmark-cli corpus convert <file> --out <file> [--f-clk HZ] [--seed S]
  clockmark-cli campaign run <dir> --corpus <dir> (--lfsr W [--seed S] | --bits 1011…)
                 [--traces a,b,…] [--lenient] [--checkpoint-cycles N]
                 [--chunk-cycles N] [--algo naive|folded|fft]
                 [--sequential [--seq-base N] [--seq-growth F] [--seq-confidence P]
                  [--seq-min-cycles N] [--seq-max-cycles N]]
                 [--threads N] [--max-jobs N]
  clockmark-cli campaign run <dir> --scenarios <scenarios.json>
                 [--threads N] [--max-jobs N]
  clockmark-cli campaign resume <dir> [--threads N] [--max-jobs N]
  clockmark-cli campaign status <dir>
  clockmark-cli scenario report <dir>
  clockmark-cli scenario template --out <scenarios.json> --corpus <dir>
                 (--lfsr W [--seed S] | --bits 1011…) [--traces a,b,…]
                 [--snrs 1.0,0.5,…] [--matrix-seed N] [--lenient]
  clockmark-cli serve [--addr HOST:PORT] [--max-sessions N] [--max-cycles N]
                 [--max-frame-bytes N] [--slow-ms N]
  clockmark-cli client ping|status|metrics|shutdown [--addr HOST:PORT]
  clockmark-cli client watch [--addr HOST:PORT] [--interval-ms N] [--count N]
  clockmark-cli client detect --trace <file.csv> (--lfsr W [--seed S] | --bits 1011…)
                 [--addr HOST:PORT] [--lenient] [--algo naive|folded|fft] [--traced]
                 [--sequential [--seq-base N] [--seq-growth F] [--seq-confidence P]
                  [--seq-min-cycles N] [--seq-max-cycles N]]
  clockmark-cli client identify --trace <file.csv> --candidates lbl=1011…,lbl=0111…
                 (--lfsr W [--seed S] | --bits 1011…)
                 [--addr HOST:PORT] [--lenient] [--algo naive|folded|fft] [--traced]
  clockmark-cli client detect-corpus --corpus <dir> --name <trace>
                 (--lfsr W [--seed S] | --bits 1011…)
                 [--addr HOST:PORT] [--lenient] [--algo naive|folded|fft] [--traced]
  clockmark-cli fleet serve [--addr HOST:PORT] [--threads N] [--max-sessions N]
                 [--max-cycles N] [--max-frame-bytes N] [--slow-ms N]
  clockmark-cli fleet run <dir> --corpus <dir> --workers H:P,H:P,…
                 (--lfsr W [--seed S] | --bits 1011…)
                 [--traces a,b,…] [--lenient] [--shards N] [--threads N]
                 [--checkpoint-cycles N] [--chunk-cycles N] [--algo naive|folded|fft]
                 [--sequential [--seq-base N] [--seq-growth F] [--seq-confidence P]
                  [--seq-min-cycles N] [--seq-max-cycles N]]
                 [--heartbeat-ms N] [--heartbeat-misses N] [--max-jobs N]
  clockmark-cli fleet status <dir>

Observability (all commands): CLOCKMARK_LOG=error|warn|info|debug|trace
sets the stderr log level; CLOCKMARK_METRICS=<file.jsonl> records spans
and metrics to a JSON-lines artifact (inspect it with `metrics`).
";

fn read(path: &str) -> Result<String, ToolError> {
    fs::read_to_string(path).map_err(|source| ToolError::Io {
        path: path.to_owned(),
        source,
    })
}

fn write(path: &str, contents: &str) -> Result<(), ToolError> {
    fs::write(path, contents).map_err(|source| ToolError::Io {
        path: path.to_owned(),
        source,
    })
}

/// Parses the `--lenient` / `--algo` flags shared by the `client detect`
/// subcommands.
fn client_detect_options(args: &mut Args) -> Result<ClientDetectOptions, ToolError> {
    Ok(ClientDetectOptions {
        lenient: args.flag("--lenient"),
        algo: match args.value_of("--algo")? {
            Some(v) => Some(
                v.parse()
                    .map_err(|e| ToolError::Usage(format!("--algo: {e}")))?,
            ),
            None => None,
        },
        traced: args.flag("--traced"),
    })
}

/// Parses the bind/limit flags shared by `serve` and `fleet serve`.
fn serve_options(args: &mut Args) -> Result<ServeOptions, ToolError> {
    let defaults = ServeOptions::default();
    let mut options = ServeOptions {
        addr: args
            .value_of("--addr")?
            .unwrap_or_else(|| defaults.addr.clone()),
        limits: defaults.limits,
    };
    options.limits.max_sessions = args.numeric("--max-sessions", options.limits.max_sessions)?;
    options.limits.max_cycles = args.numeric("--max-cycles", options.limits.max_cycles)?;
    options.limits.max_frame_bytes =
        args.numeric("--max-frame-bytes", options.limits.max_frame_bytes)?;
    let slow_ms: u64 = args.numeric("--slow-ms", options.limits.slow_request.as_millis() as u64)?;
    options.limits.slow_request = std::time::Duration::from_millis(slow_ms);
    Ok(options)
}

/// Parses the spec-shaping flags shared by `campaign run` and
/// `fleet run` (everything persisted into `campaign.json`).
fn campaign_create_options(args: &mut Args) -> Result<CampaignCreateOptions, ToolError> {
    let lenient = args.flag("--lenient");
    let traces = args
        .value_of("--traces")?
        .map(|list| list.split(',').map(str::to_owned).collect());
    let checkpoint_cycles =
        match args.value_of("--checkpoint-cycles")? {
            Some(v) => Some(v.parse().map_err(|_| {
                ToolError::Usage(format!("--checkpoint-cycles: cannot parse `{v}`"))
            })?),
            None => None,
        };
    let chunk_cycles = match args.value_of("--chunk-cycles")? {
        Some(v) => Some(
            v.parse()
                .map_err(|_| ToolError::Usage(format!("--chunk-cycles: cannot parse `{v}`")))?,
        ),
        None => None,
    };
    let algo = match args.value_of("--algo")? {
        Some(v) => Some(
            v.parse()
                .map_err(|e| ToolError::Usage(format!("--algo: {e}")))?,
        ),
        None => None,
    };
    Ok(CampaignCreateOptions {
        traces,
        lenient,
        checkpoint_cycles,
        chunk_cycles,
        sequential: sequential_options(args)?,
        algo,
    })
}

/// Parses the per-invocation flags shared by `campaign run`, `campaign
/// resume` and `campaign run --scenarios`.
fn campaign_run_options(args: &mut Args) -> Result<CampaignRunOptions, ToolError> {
    Ok(CampaignRunOptions {
        threads: args.numeric("--threads", 0usize)?,
        max_jobs: args
            .value_of("--max-jobs")?
            .map(|v| v.parse())
            .transpose()
            .map_err(|_| ToolError::Usage("--max-jobs: not a number".to_owned()))?,
    })
}

fn run() -> Result<(), ToolError> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "-h" {
        print!("{USAGE}");
        return Ok(());
    }
    let command = raw.remove(0);
    let _span = clockmark_obs::span("cli.run").field("command", command.clone());
    let mut args = Args::new(raw);

    match command.as_str() {
        "parse" => {
            let path = args.positional("file.cmn")?;
            args.finish()?;
            print!("{}", cmd_parse(&read(&path)?)?);
        }
        "embed" => {
            let path = args.positional("file.cmn")?;
            let out = args.require("--out")?;
            let defaults = EmbedOptions::default();
            let options = EmbedOptions {
                arch: match args.value_of("--arch")? {
                    Some(a) => a.parse()?,
                    None => ArchChoice::ClockMod,
                },
                width: args.numeric("--width", defaults.width)?,
                seed: args.numeric("--seed", defaults.seed)?,
                words: args.numeric("--words", defaults.words)?,
                regs_per_word: args.numeric("--regs-per-word", defaults.regs_per_word)?,
                load_registers: args.numeric("--load-registers", defaults.load_registers)?,
            };
            args.finish()?;
            let (text, report) = cmd_embed(&read(&path)?, &options)?;
            write(&out, &text)?;
            print!("{report}");
            println!("wrote {out}");
        }
        "simulate" => {
            let path = args.positional("file.cmn")?;
            let cycles = args.numeric("--cycles", 1000usize)?;
            let vcd_path = args.value_of("--vcd")?;
            let power_path = args.value_of("--power")?;
            args.finish()?;
            let out = cmd_simulate(
                &read(&path)?,
                cycles,
                vcd_path.is_some(),
                power_path.is_some(),
            )?;
            print!("{}", out.report);
            if let (Some(path), Some(vcd)) = (vcd_path, out.vcd) {
                write(&path, &vcd)?;
                println!("wrote {path}");
            }
            if let (Some(path), Some(csv)) = (power_path, out.power_csv) {
                write(&path, &csv)?;
                println!("wrote {path}");
            }
        }
        "verilog" => {
            let path = args.positional("file.cmn")?;
            let out = args.require("--out")?;
            let module = args
                .value_of("--module")?
                .unwrap_or_else(|| "clockmark_design".to_owned());
            args.finish()?;
            write(&out, &cmd_verilog(&read(&path)?, &module)?)?;
            println!("wrote {out}");
        }
        "attack" => {
            let path = args.positional("file.cmn")?;
            let group = args.require("--group")?;
            args.finish()?;
            print!("{}", cmd_attack(&read(&path)?, &group)?);
        }
        "detect" => {
            let trace = args.require("--trace")?;
            let lenient = args.flag("--lenient");
            let spec = pattern_spec(&mut args, "detect")?;
            args.finish()?;
            print!("{}", cmd_detect(&read(&trace)?, &spec, lenient)?);
        }
        "experiment" => {
            let chip = match args.value_of("--chip")?.as_deref() {
                None | Some("i") => ChipModel::ChipI,
                Some("ii") => ChipModel::ChipII,
                Some(other) => {
                    return Err(ToolError::Usage(format!(
                        "--chip must be `i` or `ii`, not `{other}`"
                    )))
                }
            };
            let cycles = args.numeric("--cycles", 20_000usize)?;
            let seed = args.numeric("--seed", 1u64)?;
            let full_noise = args.flag("--full-noise");
            let spectrum_path = args.value_of("--spectrum")?;
            args.finish()?;
            let (report, spectrum) =
                cmd_experiment(chip, cycles, seed, !full_noise, spectrum_path.is_some())?;
            print!("{report}");
            if let (Some(path), Some(csv)) = (spectrum_path, spectrum) {
                write(&path, &csv)?;
                println!("wrote {path}");
            }
        }
        "metrics" => {
            let path = args.positional("file.jsonl")?;
            let collapse = args.value_of("--collapse")?;
            args.finish()?;
            let contents = read(&path)?;
            print!("{}", cmd_metrics(&contents)?);
            if let Some(out) = collapse {
                write(&out, &cmd_metrics_collapse(&contents)?)?;
                println!("wrote {out}");
            }
        }
        "corpus" => {
            let sub = args.positional("subcommand")?;
            match sub.as_str() {
                "build" => {
                    let dir = args.positional("dir")?;
                    let defaults = CorpusBuildOptions::default();
                    let options = CorpusBuildOptions {
                        chips: match args.value_of("--chips")? {
                            Some(list) => parse_chip_list(&list)?,
                            None => defaults.chips,
                        },
                        seeds: match args.value_of("--seeds")? {
                            Some(list) => parse_seed_list(&list)?,
                            None => defaults.seeds,
                        },
                        cycles: args.numeric("--cycles", defaults.cycles)?,
                        width: args.numeric("--width", defaults.width)?,
                        wgc_seed: args.numeric("--wgc-seed", defaults.wgc_seed)?,
                        unmarked: args.flag("--unmarked"),
                        full_noise: args.flag("--full-noise"),
                    };
                    args.finish()?;
                    print!("{}", cmd_corpus_build(Path::new(&dir), &options)?);
                }
                "ls" => {
                    let dir = args.positional("dir")?;
                    args.finish()?;
                    print!("{}", cmd_corpus_ls(Path::new(&dir))?);
                }
                "verify" => {
                    let dir = args.positional("dir")?;
                    args.finish()?;
                    print!("{}", cmd_corpus_verify(Path::new(&dir))?);
                }
                "convert" => {
                    let input = args.positional("file")?;
                    let out = args.require("--out")?;
                    let mut header = clockmark::corpus::TraceHeader::bare(0);
                    header.f_clk_hz = args.numeric("--f-clk", header.f_clk_hz)?;
                    header.seed = args.numeric("--seed", header.seed)?;
                    args.finish()?;
                    let bytes = fs::read(&input).map_err(|source| ToolError::Io {
                        path: input.clone(),
                        source,
                    })?;
                    let (converted, report) = cmd_corpus_convert(&bytes, header)?;
                    fs::write(&out, converted).map_err(|source| ToolError::Io {
                        path: out.clone(),
                        source,
                    })?;
                    println!("{report}");
                    println!("wrote {out}");
                }
                other => {
                    return Err(ToolError::Usage(format!(
                        "unknown corpus subcommand `{other}`"
                    )))
                }
            }
        }
        "campaign" => {
            let sub = args.positional("subcommand")?;
            match sub.as_str() {
                "run" => {
                    let dir = args.positional("dir")?;
                    if let Some(scenarios) = args.value_of("--scenarios")? {
                        let options = campaign_run_options(&mut args)?;
                        args.finish()?;
                        print!(
                            "{}",
                            cmd_scenario_run(Path::new(&dir), Path::new(&scenarios), options)?
                        );
                        return Ok(());
                    }
                    let corpus_dir = args.require("--corpus")?;
                    let spec = pattern_spec(&mut args, "campaign run")?;
                    let create = campaign_create_options(&mut args)?;
                    let options = campaign_run_options(&mut args)?;
                    args.finish()?;
                    print!(
                        "{}",
                        cmd_campaign_run(
                            Path::new(&dir),
                            Path::new(&corpus_dir),
                            &spec,
                            create,
                            options,
                        )?
                    );
                }
                "resume" => {
                    let dir = args.positional("dir")?;
                    let options = campaign_run_options(&mut args)?;
                    args.finish()?;
                    print!("{}", cmd_campaign_resume(Path::new(&dir), options)?);
                }
                "status" => {
                    let dir = args.positional("dir")?;
                    args.finish()?;
                    print!("{}", cmd_campaign_status(Path::new(&dir))?);
                }
                other => {
                    return Err(ToolError::Usage(format!(
                        "unknown campaign subcommand `{other}`"
                    )))
                }
            }
        }
        "scenario" => {
            let sub = args.positional("subcommand")?;
            match sub.as_str() {
                "report" => {
                    let dir = args.positional("dir")?;
                    args.finish()?;
                    print!("{}", cmd_scenario_report(Path::new(&dir))?);
                }
                "template" => {
                    let out = args.require("--out")?;
                    let corpus_dir = args.require("--corpus")?;
                    let spec = pattern_spec(&mut args, "scenario template")?;
                    let options = ScenarioTemplateOptions {
                        traces: args
                            .value_of("--traces")?
                            .map(|list| list.split(',').map(str::to_owned).collect()),
                        snrs: args
                            .value_of("--snrs")?
                            .map(|list| {
                                list.split(',')
                                    .map(|v| {
                                        v.trim().parse().map_err(|_| {
                                            ToolError::Usage(format!("--snrs: cannot parse `{v}`"))
                                        })
                                    })
                                    .collect::<Result<Vec<f64>, _>>()
                            })
                            .transpose()?,
                        seed: args.numeric("--matrix-seed", 0u64)?,
                        lenient: args.flag("--lenient"),
                    };
                    args.finish()?;
                    let text = cmd_scenario_template(Path::new(&corpus_dir), &spec, options)?;
                    write(&out, &text)?;
                    println!("wrote {out}");
                }
                other => {
                    return Err(ToolError::Usage(format!(
                        "unknown scenario subcommand `{other}`"
                    )))
                }
            }
        }
        "serve" => {
            let options = serve_options(&mut args)?;
            args.finish()?;
            print!("{}", cmd_serve(&options)?);
        }
        "fleet" => {
            let sub = args.positional("subcommand")?;
            match sub.as_str() {
                "serve" => {
                    let threads = args.numeric("--threads", 0usize)?;
                    let options = serve_options(&mut args)?;
                    args.finish()?;
                    print!("{}", cmd_fleet_serve(&options, threads)?);
                }
                "run" => {
                    let dir = args.positional("dir")?;
                    let corpus_dir = args.require("--corpus")?;
                    let workers = parse_worker_list(&args.require("--workers")?)?;
                    let spec = pattern_spec(&mut args, "fleet run")?;
                    let create = campaign_create_options(&mut args)?;
                    let options = FleetRunOptions {
                        workers,
                        shards: args.numeric("--shards", 0u64)?,
                        threads: args.numeric("--threads", 0u32)?,
                        heartbeat_ms: args.numeric("--heartbeat-ms", 0u64)?,
                        heartbeat_misses: args.numeric("--heartbeat-misses", 0u32)?,
                        max_jobs_per_assign: args.numeric("--max-jobs", 0u64)?,
                    };
                    args.finish()?;
                    print!(
                        "{}",
                        cmd_fleet_run(
                            Path::new(&dir),
                            Path::new(&corpus_dir),
                            &spec,
                            create,
                            &options,
                        )?
                    );
                }
                "status" => {
                    let dir = args.positional("dir")?;
                    args.finish()?;
                    print!("{}", cmd_fleet_status(Path::new(&dir))?);
                }
                other => {
                    return Err(ToolError::Usage(format!(
                        "unknown fleet subcommand `{other}`"
                    )))
                }
            }
        }
        "client" => {
            let sub = args.positional("subcommand")?;
            let addr = args
                .value_of("--addr")?
                .unwrap_or_else(|| ServeOptions::default().addr);
            match sub.as_str() {
                "ping" => {
                    args.finish()?;
                    print!("{}", cmd_client_ping(&addr)?);
                }
                "status" => {
                    args.finish()?;
                    print!("{}", cmd_client_status(&addr)?);
                }
                "metrics" => {
                    args.finish()?;
                    print!("{}", cmd_client_metrics(&addr)?);
                }
                "watch" => {
                    let interval_ms = args.numeric("--interval-ms", 1000u64)?;
                    let count = args
                        .value_of("--count")?
                        .map(|v| v.parse())
                        .transpose()
                        .map_err(|_| ToolError::Usage("--count: not a number".to_owned()))?;
                    args.finish()?;
                    print!("{}", cmd_client_watch(&addr, interval_ms, count)?);
                }
                "shutdown" => {
                    args.finish()?;
                    print!("{}", cmd_client_shutdown(&addr)?);
                }
                "detect" => {
                    let trace = args.require("--trace")?;
                    let options = client_detect_options(&mut args)?;
                    let sequential = sequential_options(&mut args)?;
                    let spec = pattern_spec(&mut args, "client detect")?;
                    args.finish()?;
                    print!(
                        "{}",
                        cmd_client_detect(&addr, &read(&trace)?, &spec, options, sequential)?
                    );
                }
                "identify" => {
                    let trace = args.require("--trace")?;
                    let candidates = parse_candidate_list(&args.require("--candidates")?)?;
                    let options = client_detect_options(&mut args)?;
                    let spec = pattern_spec(&mut args, "client identify")?;
                    args.finish()?;
                    print!(
                        "{}",
                        cmd_client_identify(&addr, &read(&trace)?, &spec, options, &candidates)?
                    );
                }
                "detect-corpus" => {
                    let corpus = args.require("--corpus")?;
                    let name = args.require("--name")?;
                    let options = client_detect_options(&mut args)?;
                    let spec = pattern_spec(&mut args, "client detect-corpus")?;
                    args.finish()?;
                    print!(
                        "{}",
                        cmd_client_detect_corpus(&addr, &corpus, &name, &spec, options)?
                    );
                }
                other => {
                    return Err(ToolError::Usage(format!(
                        "unknown client subcommand `{other}`"
                    )))
                }
            }
        }
        other => {
            return Err(ToolError::Usage(format!(
                "unknown command `{other}`; run with --help"
            )))
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // A serving process always keeps live in-process telemetry — the
    // `Metrics` RPC and `client watch` read the sliding request-rate
    // and latency windows — so resolve a recorder even when no
    // CLOCKMARK_* variable asked for an export. Exporter-less
    // recording writes nothing on flush; environment-configured
    // exporters are honoured exactly as for every other command.
    let mut argv = std::env::args().skip(1);
    let (first, second) = (argv.next(), argv.next());
    let serving = first.as_deref() == Some("serve")
        || (first.as_deref() == Some("fleet") && second.as_deref() == Some("serve"));
    if serving {
        let recorder = clockmark_obs::Recorder::from_env()
            .unwrap_or_else(|| clockmark_obs::Recorder::new(Vec::new()));
        clockmark_obs::install(recorder);
    }
    clockmark_obs::init_from_env();
    let result = run();
    clockmark_obs::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            clockmark_obs::error!("{e}");
            if matches!(e, ToolError::Usage(_)) {
                eprintln!();
                eprint!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}
