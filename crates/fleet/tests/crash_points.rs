//! Every crash point of a corpus build, of a fixed, a sequential and a
//! scenario campaign, and of a fleet run resumes to the bytes of the
//! uninterrupted run.
//!
//! Each test records the file operations of one uninterrupted run
//! through a recording [`Fs`]. Every prefix of them is a state a kill can
//! leave, and so is every prefix whose last write or append is torn at
//! half its bytes (Pillai et al., "All File Systems Are Not Created
//! Equal", OSDI 2014, list the crash states this way instead of racing
//! real kills). Each state is rebuilt in a fresh directory, resumed with
//! the real file system and compared with the uninterrupted run. No write
//! is fsynced, so a power cut, which can also lose or reorder writes, is
//! not modelled.
//!
//! The recording `Fs` is installed for the whole process, so the tests
//! run one at a time.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use clockmark::{
    AttackSpec, Campaign, CampaignLimits, CampaignSpec, DefenseSpec, ScenarioCampaign,
    ScenarioMatrix,
};
use clockmark_corpus::durable::{self, Fs, StdFs};
use clockmark_corpus::{Corpus, TraceHeader};
use clockmark_cpa::SequentialOptions;
use clockmark_fleet::{run_fleet, FleetConfig, ShardWorker};
use clockmark_serve::{Server, ServerHandle};

/// Serialises the tests: a recording would log another test's writes.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("cm_crash_{tag}_{}", std::process::id()));
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

/// One mutation that took effect.
#[derive(Clone)]
enum Op {
    Dir(PathBuf),
    Write(PathBuf, Vec<u8>),
    Append(PathBuf, Vec<u8>),
    Cut(PathBuf, u64),
    Rename(PathBuf, PathBuf),
    Remove(PathBuf),
}

impl Op {
    fn describe(&self) -> String {
        match self {
            Op::Dir(p) => format!("mkdir {}", p.display()),
            Op::Write(p, b) => format!("write {} ({} bytes)", p.display(), b.len()),
            Op::Append(p, b) => format!("append {} ({} bytes)", p.display(), b.len()),
            Op::Cut(p, len) => format!("cut {} to {len}", p.display()),
            Op::Rename(a, b) => format!("rename {} onto {}", a.display(), b.display()),
            Op::Remove(p) => format!("remove {}", p.display()),
        }
    }
}

type Log = Arc<Mutex<Vec<Op>>>;

fn lock(log: &Log) -> MutexGuard<'_, Vec<Op>> {
    log.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Performs every mutation on the real file system and logs the ones
/// that succeed, under one lock, so the log keeps the order in which
/// they took effect.
struct Recorder(Log);

impl Recorder {
    fn record(&self, op: Op, run: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let mut log = lock(&self.0);
        run()?;
        log.push(op);
        Ok(())
    }
}

impl Fs for Recorder {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.record(Op::Dir(path.into()), || StdFs.create_dir_all(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let op = Op::Write(path.into(), bytes.to_vec());
        self.record(op, || StdFs.write(path, bytes))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(Stream {
            path: path.into(),
            file: StdFs.create(path)?,
            bytes: Vec::new(),
            log: Arc::clone(&self.0),
        }))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let op = Op::Append(path.into(), bytes.to_vec());
        self.record(op, || StdFs.append(path, bytes))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.record(Op::Cut(path.into(), len), || StdFs.truncate(path, len))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let op = Op::Rename(from.into(), to.into());
        self.record(op, || StdFs.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.record(Op::Remove(path.into()), || StdFs.remove(path))
    }
}

/// A streamed file, logged as one whole-file write when it is closed.
struct Stream {
    path: PathBuf,
    file: Box<dyn Write + Send>,
    bytes: Vec<u8>,
    log: Log,
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        self.bytes.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        let op = Op::Write(self.path.clone(), std::mem::take(&mut self.bytes));
        lock(&self.log).push(op);
    }
}

/// Rebuilds under `to` the state `ops` left under `from`, the last one
/// torn at half its bytes when `torn`.
fn replay(ops: &[Op], from: &Path, to: &Path, torn: bool) {
    let at = |path: &Path| to.join(path.strip_prefix(from).expect("under the recorded root"));
    fs::create_dir_all(to).expect("mkdir");
    for (i, op) in ops.iter().enumerate() {
        let cut = torn && i + 1 == ops.len();
        let bytes = |b: &Vec<u8>| b[..if cut { b.len() / 2 } else { b.len() }].to_vec();
        match op {
            Op::Dir(p) => fs::create_dir_all(at(p)),
            Op::Write(p, b) => fs::write(at(p), bytes(b)),
            Op::Append(p, b) => OpenOptions::new()
                .append(true)
                .create(true)
                .open(at(p))
                .and_then(|mut file| file.write_all(&bytes(b))),
            Op::Cut(p, len) => OpenOptions::new()
                .write(true)
                .open(at(p))
                .and_then(|file| file.set_len(*len)),
            Op::Rename(a, b) => fs::rename(at(a), at(b)),
            Op::Remove(p) => fs::remove_file(at(p)),
        }
        .unwrap_or_else(|e| panic!("replaying {}: {e}", op.describe()));
    }
}

/// Every file under `dir` and its bytes, by relative path. Progress
/// files are telemetry whose contents follow the clock, so they are left
/// out.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, files: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in fs::read_dir(dir).expect("lists") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                walk(root, &path, files);
            } else if path.file_stem().is_none_or(|stem| stem != "progress") {
                let bytes = fs::read(&path).expect("reads");
                files.insert(path.strip_prefix(root).expect("under").into(), bytes);
            }
        }
    }
    let mut files = BTreeMap::new();
    walk(dir, dir, &mut files);
    files
}

/// Records the mutations of `run` into `root/recorded`, then rebuilds
/// every crash state under `root/state`, resumes it with `resume` and
/// hands the uninterrupted directory and the resumed one to `check`.
/// Returns the recorded mutations.
fn every_crash_point(
    root: &Path,
    run: impl FnOnce(&Path),
    resume: impl Fn(&Path),
    check: impl Fn(&Path, &Path, &str),
) -> Vec<Op> {
    let recorded = root.join("recorded");
    let log: Log = Arc::default();
    durable::with_fs(Arc::new(Recorder(Arc::clone(&log))), || run(&recorded));
    let ops = lock(&log).clone();
    let tearable = |op: &Op| matches!(op, Op::Write(..) | Op::Append(..));
    let states: Vec<(usize, bool)> = (1..=ops.len())
        .flat_map(|k| [(k, false), (k, true)])
        .filter(|&(k, torn)| !torn || tearable(&ops[k - 1]))
        .collect();
    let state = root.join("state");
    for &(k, torn) in &states {
        fs::remove_dir_all(&state).ok();
        replay(&ops[..k], &recorded, &state, torn);
        resume(&state);
        let tear = if torn { ", torn" } else { "" };
        let at = format!(
            "crash after op {k}/{}{tear}: {}",
            ops.len(),
            ops[k - 1].describe()
        );
        check(&recorded, &state, &at);
    }
    ops
}

/// Every file equals the uninterrupted run's, and no other file (a
/// checkpoint, a temp) is left.
fn same_files(want: &Path, got: &Path, at: &str) {
    let (want, got) = (snapshot(want), snapshot(got));
    let names = |files: &BTreeMap<PathBuf, Vec<u8>>| files.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(&got), names(&want), "{at}");
    for (name, bytes) in &want {
        assert!(got[name] == *bytes, "{at}: {} differs", name.display());
    }
}

fn pattern() -> Vec<bool> {
    use clockmark_seq::{Lfsr, SequenceGenerator};
    let mut lfsr = Lfsr::maximal(6).expect("valid");
    (0..63).map(|_| lfsr.next_bit()).collect()
}

/// A seeded trace: the pattern at `amp` over uniform noise.
fn trace(pattern: &[bool], cycles: usize, amp: f64, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..cycles)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let mark = if pattern[(i + 5) % pattern.len()] {
                amp
            } else {
                0.0
            };
            mark + noise
        })
        .collect()
}

/// One marked and one unmarked trace of `cycles` each, and a spec over
/// them that checkpoints three times per job.
fn fixture(dir: &Path, cycles: usize) -> CampaignSpec {
    let pattern = pattern();
    let corpus_dir = dir.join("corpus");
    let mut corpus = Corpus::create(&corpus_dir).expect("creates");
    for (name, amp) in [("marked", 0.5), ("unmarked", 0.0)] {
        let w = trace(&pattern, cycles, amp, amp.to_bits());
        corpus.add(name, TraceHeader::bare(0), &w).expect("adds");
    }
    let names = vec!["marked".to_owned(), "unmarked".to_owned()];
    let mut spec = CampaignSpec::new(corpus_dir, pattern, names);
    spec.checkpoint_cycles = (cycles / 3) as u64;
    spec.chunk_cycles = cycles / 6;
    spec
}

#[test]
fn every_crash_point_of_a_corpus_build_resumes_to_the_same_bytes() {
    let _serial = serial();
    let dir = TempDir::new("corpus");
    let pattern = pattern();
    let traces: Vec<(String, TraceHeader, Vec<f64>)> = (0..3u64)
        .map(|t| {
            let header = TraceHeader {
                cycles: 0,
                f_clk_hz: 1.0e7,
                seed: t,
                source: 2,
            };
            (format!("t{t}"), header, trace(&pattern, 1_500, 0.5, t))
        })
        .collect();
    let build = |dir: &Path| {
        let mut corpus = Corpus::open_or_create(dir).expect("opens");
        for (name, header, w) in &traces {
            if corpus.entry(name).is_none() {
                corpus.add(name, *header, w).expect("adds");
            }
        }
    };
    let ops = every_crash_point(&dir.0, build, build, same_files);
    assert!(ops.len() >= 12, "{} operations", ops.len());

    // The manifest is appended, not rewritten: the bytes written to it
    // over the build are its final size.
    let manifest = dir.0.join("recorded/manifest.jsonl");
    let written: usize = ops
        .iter()
        .map(|op| match op {
            Op::Write(p, b) | Op::Append(p, b) if p.file_stem() == manifest.file_stem() => b.len(),
            _ => 0,
        })
        .sum();
    let size = fs::metadata(&manifest).expect("manifest").len();
    assert_eq!(written as u64, size);
    assert_eq!(
        fs::read_to_string(&manifest)
            .expect("reads")
            .lines()
            .count(),
        3
    );
}

/// Runs the campaign at `dir` (creating it from `spec` first when no
/// kill left a `campaign.json`) to completion on one thread.
fn run_campaign(dir: &Path, spec: &CampaignSpec) {
    let campaign = if dir.join("campaign.json").exists() {
        Campaign::open(dir).expect("opens")
    } else {
        Campaign::create(dir, spec.clone()).expect("creates")
    };
    let status = campaign
        .with_threads(1)
        .run(&CampaignLimits::none())
        .expect("runs");
    assert!(status.is_complete(), "{status}");
}

#[test]
fn every_crash_point_of_a_fixed_campaign_resumes_to_the_same_bytes() {
    let _serial = serial();
    let dir = TempDir::new("fixed");
    let spec = fixture(&dir.0, 1_200);
    let run = |dir: &Path| run_campaign(dir, &spec);
    let ops = every_crash_point(&dir.0, run, run, same_files);
    assert!(ops.len() >= 30, "{} operations", ops.len());
}

#[test]
fn every_crash_point_of_a_sequential_campaign_resumes_to_the_same_bytes() {
    let _serial = serial();
    let dir = TempDir::new("sequential");
    let spec = fixture(&dir.0, 1_200).with_sequential(SequentialOptions::every(400));
    let run = |dir: &Path| run_campaign(dir, &spec);
    let ops = every_crash_point(&dir.0, run, run, same_files);
    assert!(ops.len() >= 20, "{} operations", ops.len());
    let report = Campaign::open(dir.0.join("recorded"))
        .expect("opens")
        .report()
        .expect("complete");
    assert!(
        report.outcomes[0].cycles < 1_200,
        "the marked job stops early: {:?}",
        report.outcomes[0]
    );
}

#[test]
fn every_crash_point_of_a_two_cell_scenario_campaign_resumes_to_the_same_bytes() {
    let _serial = serial();
    let dir = TempDir::new("scenario");
    let spec = fixture(&dir.0, 1_200);
    let mut matrix = ScenarioMatrix::new(&spec.corpus, spec.pattern.clone(), spec.traces.clone());
    matrix.base.checkpoint_cycles = spec.checkpoint_cycles;
    matrix.base.chunk_cycles = spec.chunk_cycles;
    matrix.attacks = vec![
        AttackSpec::None,
        AttackSpec::Jamming {
            amplitude_watts: 0.5,
        },
    ];
    matrix.defenses = vec![DefenseSpec::None];
    matrix.amplitude_watts = 0.5;
    matrix.noise_watts = 0.3;
    let run = |dir: &Path| {
        let scenario = if dir.join("scenarios.json").exists() {
            ScenarioCampaign::open(dir).expect("opens")
        } else {
            ScenarioCampaign::create(dir, matrix.clone()).expect("creates")
        };
        let status = scenario
            .with_threads(1)
            .run(&CampaignLimits::none())
            .expect("runs");
        assert!(status.is_complete());
    };
    let ops = every_crash_point(&dir.0, run, run, same_files);
    assert!(ops.len() >= 30, "{} operations", ops.len());
}

#[test]
fn every_crash_point_of_a_fleet_run_resumes_to_the_same_report() {
    let _serial = serial();
    let dir = TempDir::new("fleet");
    let spec = fixture(&dir.0, 1_200);
    let workers: Vec<ServerHandle> = (0..2)
        .map(|_| {
            Server::new()
                .with_fleet(Arc::new(ShardWorker::new().with_threads(1)))
                .bind("127.0.0.1:0")
                .expect("binds")
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let run = |dir: &Path| {
        let mut config = FleetConfig::new(dir, addrs.clone());
        config.shards = 2;
        config.worker_threads = 1;
        config.heartbeat_interval = Duration::from_millis(20);
        // No worker dies here: a loaded host must not get one buried.
        config.heartbeat_misses = 100;
        let summary = run_fleet(&config, spec.clone()).expect("fleet completes");
        assert_eq!(summary.merged_jobs, 2);
    };
    let check = |want: &Path, got: &Path, at: &str| {
        let report = |dir: &Path| fs::read(dir.join("report.json")).expect("report");
        assert!(report(got) == report(want), "{at}: report.json differs");
        let (merged, torn) = durable::read_journal(&got.join("results.jsonl")).expect("merged");
        let mut jobs: Vec<&str> = merged
            .lines()
            .map(|l| &l[..l.find(',').unwrap_or(0)])
            .collect();
        jobs.sort_unstable();
        assert_eq!(jobs, ["{\"index\":0", "{\"index\":1"], "{at}");
        assert!(!torn, "{at}: a torn merged line is left");
    };
    let ops = every_crash_point(&dir.0, run, run, check);
    assert!(ops.len() >= 30, "{} operations", ops.len());
    for worker in workers {
        worker.shutdown();
    }
}
