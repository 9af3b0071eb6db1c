//! End-to-end tests of the `clockmark-cli` binary: the full file-based
//! watermark-insertion flow in a temporary directory.

use std::path::PathBuf;
use std::process::Command;

const DESIGN: &str = "\
clock clk
group cpu
signal run = external
icg g0 clock=clk enable=run group=cpu
reg r0 clock=g0 data=toggle group=cpu
reg r1 clock=g0 data=shift(r0) group=cpu
";

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("clockmark-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_clockmark-cli"))
}

fn run_ok(cmd: &mut Command) -> String {
    let output = cmd.output().expect("binary runs");
    assert!(
        output.status.success(),
        "command failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf8 output")
}

#[test]
fn full_flow_embed_simulate_verilog_attack_detect() {
    let dir = TempDir::new("flow");
    let design = dir.path("design.cmn");
    std::fs::write(&design, DESIGN).expect("write design");

    // parse
    let out = run_ok(cli().args(["parse", &design]));
    assert!(out.contains("registers   : 2"), "{out}");

    // embed
    let marked = dir.path("marked.cmn");
    let out = run_ok(cli().args([
        "embed",
        &design,
        "--out",
        &marked,
        "--arch",
        "clockmod",
        "--width",
        "8",
        "--words",
        "8",
        "--regs-per-word",
        "16",
    ]));
    assert!(out.contains("WGC registers      : 8"), "{out}");
    assert!(std::fs::read_to_string(&marked)
        .expect("written")
        .contains("icg"));

    // simulate with dumps
    let vcd = dir.path("waves.vcd");
    let csv = dir.path("trace.csv");
    let out = run_ok(cli().args([
        "simulate", &marked, "--cycles", "400", "--vcd", &vcd, "--power", &csv,
    ]));
    assert!(out.contains("simulated 400 cycles"), "{out}");
    assert!(std::fs::read_to_string(&vcd)
        .expect("vcd")
        .contains("$enddefinitions"));
    assert!(std::fs::read_to_string(&csv).expect("csv").lines().count() > 400);

    // verilog
    let verilog = dir.path("marked.v");
    run_ok(cli().args(["verilog", &marked, "--out", &verilog, "--module", "ip"]));
    let v = std::fs::read_to_string(&verilog).expect("verilog");
    assert!(v.contains("module ip (") && v.contains("endmodule"), "{v}");

    // attack (the embedded watermark group is grp2: top, cpu, watermark).
    let out = run_ok(cli().args(["attack", &marked, "--group", "grp2"]));
    assert!(out.contains("STAND-ALONE"), "{out}");
}

#[test]
fn experiment_and_detect_round_trip() {
    let dir = TempDir::new("detect");
    let spectrum = dir.path("spectrum.csv");
    let out = run_ok(cli().args([
        "experiment",
        "--chip",
        "i",
        "--cycles",
        "12000",
        "--seed",
        "5",
        "--spectrum",
        &spectrum,
    ]));
    assert!(out.contains("DETECTED"), "{out}");
    assert!(
        std::fs::read_to_string(&spectrum)
            .expect("csv")
            .lines()
            .count()
            > 250
    );

    // Synthesize a trace file and detect in it.
    let trace = dir.path("trace.csv");
    let mut lfsr = 1u32;
    let mut csv = String::new();
    // A 7-bit maximal LFSR stream (taps 7,6 in right-shift form).
    let mut bits = Vec::new();
    for _ in 0..127 {
        let out_bit = lfsr & 1;
        let fb = (lfsr ^ (lfsr >> 1)) & 1;
        lfsr = (lfsr >> 1) | (fb << 6);
        bits.push(out_bit != 0);
    }
    for i in 0..6000usize {
        let wm = if bits[(i + 40) % 127] { 1e-3 } else { 0.0 };
        let noise = ((i * 2654435761) % 883) as f64 * 1e-6;
        csv.push_str(&format!("{}\n", wm + noise));
    }
    std::fs::write(&trace, csv).expect("write trace");
    let out = run_ok(cli().args(["detect", "--trace", &trace, "--lfsr", "7"]));
    assert!(out.contains("DETECTED"), "{out}");
    assert!(out.contains("rotation 40"), "{out}");
}

#[test]
fn usage_errors_exit_nonzero_with_help() {
    let output = cli().args(["frobnicate"]).output().expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");

    let output = cli()
        .args(["detect", "--trace", "nope.csv"])
        .output()
        .expect("runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--lfsr or --bits"), "{stderr}");
}

/// Cycles no allocator can hold are refused with an error before the
/// first simulated cycle. The address-space limit turns a regression
/// into a quick abort rather than a run that grows until the host runs
/// out of memory.
#[cfg(unix)]
#[test]
fn an_impossible_cycle_count_is_an_error_not_an_abort() {
    let dir = TempDir::new("huge");
    let corpus = dir.path("corpus");
    let cycles = usize::MAX.to_string();
    let build = [
        "corpus", "build", &corpus, "--chips", "i", "--seeds", "1..1", "--cycles", &cycles,
        "--width", "8",
    ];
    let experiment = ["experiment", "--cycles", &cycles];
    for args in [&build[..], &experiment[..]] {
        let output = Command::new("sh")
            .args(["-c", "ulimit -v 2000000 && exec \"$0\" \"$@\""])
            .arg(env!("CARGO_BIN_EXE_clockmark-cli"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "cannot reserve the total power of {cycles} cycles"
            )),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn help_prints_usage() {
    let out = run_ok(cli().arg("--help"));
    assert!(out.contains("USAGE"), "{out}");
    assert!(out.contains("embed"));
    assert!(out.contains("verilog"));
}

/// Every file of the corpus at `dir`: the manifest, then each trace.
fn corpus_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join("traces"))
        .expect("lists traces")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    let mut files = vec![(
        "manifest.jsonl".to_owned(),
        std::fs::read(dir.join("manifest.jsonl")).expect("reads manifest"),
    )];
    for name in names {
        let bytes = std::fs::read(dir.join("traces").join(&name)).expect("reads trace");
        files.push((name, bytes));
    }
    files
}

/// Re-running `corpus build` over a corpus that already holds some of
/// the requested traces keeps them and adds the rest, so a killed build
/// completes; a re-run with different flags is refused.
#[test]
fn corpus_build_completes_a_partial_corpus_and_refuses_different_flags() {
    let dir = TempDir::new("corpus_rerun");
    let build = |corpus: &str, seeds: &str, cycles: &str| {
        let mut cmd = cli();
        cmd.args([
            "corpus",
            "build",
            corpus,
            "--seeds",
            seeds,
            "--cycles",
            cycles,
            "--width",
            "6",
            "--unmarked",
        ]);
        cmd
    };
    let whole = dir.path("whole");
    run_ok(&mut build(&whole, "1..4", "3000"));

    let grown = dir.path("grown");
    run_ok(&mut build(&grown, "1..2", "3000"));
    let out = run_ok(&mut build(&grown, "1..4", "3000"));
    assert!(out.contains("kept chip_i_s0001_off"), "{out}");
    assert!(out.contains("added chip_i_s0004"), "{out}");
    assert_eq!(
        corpus_files(&dir.0.join("grown")),
        corpus_files(&dir.0.join("whole"))
    );

    let output = build(&grown, "1..4", "2000").output().expect("binary runs");
    assert!(
        !output.status.success(),
        "a different --cycles must be refused"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("already exists"), "{stderr}");
    assert_eq!(
        corpus_files(&dir.0.join("grown")),
        corpus_files(&dir.0.join("whole"))
    );
}
