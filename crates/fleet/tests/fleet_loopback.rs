//! End-to-end fleet contract over loopback, all in one process:
//!
//! 1. the merged fleet `report.json` is byte-identical to a single-node
//!    run of the same campaign spec, fixed-budget, sequential or under a
//!    non-identity scenario;
//! 2. a worker address that never answers does not sink the fleet —
//!    its shards are reassigned to the survivors;
//! 3. interrupted shard assignments (the straggler/test hook) are
//!    requeued and drained to the same bytes;
//! 4. a worker refuses a wire spec that disagrees with the shard
//!    directory, or whose job ids disagree with its traces;
//! 5. a worker whose answer holds lines that are not its shard's
//!    outcomes is buried, and its shard stays pending;
//! 6. a coordinator killed mid-append leaves a torn merged line that the
//!    next run cuts, resuming to the same bytes;
//! 7. a run returns once its last shard lands, not a heartbeat interval
//!    later.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clockmark::{Campaign, CampaignLimits, CampaignSpec, DefenseSpec, JobOutcome, ScenarioSpec};
use clockmark_corpus::{Corpus, TraceHeader};
use clockmark_cpa::SequentialOptions;
use clockmark_fleet::{run_fleet, FleetConfig, FleetError, ShardWorker};
use clockmark_serve::{
    ErrorCode, FleetService, ServeLimits, Server, ServerHandle, ShardOutcome, ShardSpec,
    WorkerHeartbeat,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "cm_fleet_e2e_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
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

fn pattern() -> Vec<bool> {
    use clockmark_seq::{Lfsr, SequenceGenerator};
    let mut lfsr = Lfsr::maximal(6).expect("valid");
    (0..63).map(|_| lfsr.next_bit()).collect()
}

fn trace(pattern: &[bool], n: usize, phase: usize, amp: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
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

/// A corpus of `marked` watermarked traces plus one unmarked control,
/// and the campaign spec naming all of them.
fn build_fixture(dir: &Path, pattern: &[bool], marked: usize, cycles: usize) -> CampaignSpec {
    let corpus_dir = dir.join("corpus");
    let mut corpus = Corpus::create(&corpus_dir).expect("creates");
    let mut names = Vec::new();
    for i in 0..marked {
        let name = format!("marked_{i}");
        let w = trace(pattern, cycles, 7 + i, 1.0, 100 + i as u64);
        corpus.add(&name, TraceHeader::bare(0), &w).expect("adds");
        names.push(name);
    }
    let w = trace(pattern, cycles, 0, 0.0, 999);
    corpus
        .add("unmarked", TraceHeader::bare(0), &w)
        .expect("adds");
    names.push("unmarked".to_owned());
    let mut spec = CampaignSpec::new(corpus_dir, pattern.to_vec(), names);
    spec.checkpoint_cycles = 1_000;
    spec.chunk_cycles = 256;
    spec
}

fn spawn_worker() -> ServerHandle {
    Server::new()
        .with_fleet(Arc::new(ShardWorker::new().with_threads(1)))
        .with_limits(ServeLimits {
            max_sessions: 16,
            idle_timeout: Duration::from_secs(120),
            ..ServeLimits::default()
        })
        .bind("127.0.0.1:0")
        .expect("bind worker")
}

fn reference_report(dir: &Path, spec: CampaignSpec) -> Vec<u8> {
    let campaign = Campaign::create(dir.join("reference"), spec)
        .expect("creates")
        .with_threads(1);
    let status = campaign.run(&CampaignLimits::none()).expect("runs");
    assert!(status.is_complete());
    fs::read(dir.join("reference").join("report.json")).expect("reads reference")
}

/// Runs the same campaign single-node and across two workers, and
/// requires byte-identical reports. `flavour` turns the fixture's
/// fixed-budget spec into the flavour under test.
fn assert_fleet_matches_single_node(tag: &str, flavour: fn(CampaignSpec) -> CampaignSpec) {
    let dir = TempDir::new(tag);
    let pattern = pattern();
    let spec = flavour(build_fixture(&dir.0, &pattern, 5, 3_000));
    let reference = reference_report(&dir.0, spec.clone());

    let workers: Vec<ServerHandle> = (0..2).map(|_| spawn_worker()).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();

    let mut config = FleetConfig::new(dir.0.join("fleet"), addrs);
    config.shards = 4;
    config.worker_threads = 1;
    config.heartbeat_interval = Duration::from_millis(100);
    let summary = run_fleet(&config, spec.clone()).expect("fleet completes");
    assert_eq!(summary.merged_jobs, summary.total_jobs);
    assert_eq!(summary.total_jobs, 6);
    assert!(summary.shards <= 4);
    assert_eq!(summary.workers_lost, 0);

    let merged = fs::read(&summary.report_path).expect("reads merged");
    assert_eq!(
        merged, reference,
        "fleet report.json must be byte-identical to the single-node run"
    );

    // The aggregated progress file is campaign-status compatible and
    // settled at done == total.
    let progress = clockmark_fleet::coordinator::read_progress(&dir.0.join("fleet"))
        .expect("fleet progress.json decodes");
    assert_eq!(progress.done, 6);
    assert_eq!(progress.total, 6);

    if spec.scenario.is_some() {
        // Some shard's jobs start past id 0, so a scenario job seeded
        // from its shard-local position would land different bytes.
        let first_ids: Vec<usize> = fs::read_dir(dir.0.join("fleet").join("shards"))
            .expect("lists shards")
            .map(|entry| {
                let shard = Campaign::open(entry.expect("entry").path()).expect("opens shard");
                shard.spec().jobs()[0].index
            })
            .collect();
        assert!(first_ids.iter().any(|&id| id != 0), "{first_ids:?}");
    }

    if spec.sequential.is_some() {
        // The shards ran the schedule: every marked job stopped early.
        let report = Campaign::open(dir.0.join("fleet"))
            .expect("opens")
            .report()
            .expect("complete");
        for outcome in &report.outcomes[..5] {
            assert!(
                outcome.result.detected && outcome.cycles < 3_000,
                "marked job must stop early: {outcome:?}"
            );
        }
    }

    for worker in workers {
        worker.shutdown();
    }
}

#[test]
fn fleet_report_is_byte_identical_to_single_node() {
    assert_fleet_matches_single_node("identity", |spec| spec);
}

#[test]
fn sequential_fleet_report_is_byte_identical_to_single_node() {
    assert_fleet_matches_single_node("sequential", |spec| {
        spec.with_sequential(SequentialOptions::every(1_024))
    });
}

/// Below nominal SNR the noise stage draws from each job's seed, so
/// every outcome's bytes depend on the job's global id.
#[test]
fn scenario_fleet_report_is_byte_identical_to_single_node() {
    assert_fleet_matches_single_node("scenario", |spec| {
        spec.with_scenario(ScenarioSpec {
            defense: DefenseSpec::ChallengeResponse { phase_delta: 17 },
            snr: 0.5,
            amplitude_watts: 1.0,
            noise_watts: 0.5,
            seed: 0x5eed,
            ..ScenarioSpec::default()
        })
    });
}

/// A run returns once its last shard lands: neither the heartbeat loops
/// nor the supervisor sleep out their interval after the final merge.
#[test]
fn a_fleet_run_returns_when_its_last_shard_lands() {
    let dir = TempDir::new("prompt");
    let pattern = pattern();
    let spec = build_fixture(&dir.0, &pattern, 3, 2_000);
    let reference = reference_report(&dir.0, spec.clone());

    let workers: Vec<ServerHandle> = (0..2).map(|_| spawn_worker()).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let mut config = FleetConfig::new(dir.0.join("fleet"), addrs);
    config.shards = 4;
    config.worker_threads = 1;
    config.heartbeat_interval = Duration::from_secs(5);
    let started = Instant::now();
    let summary = run_fleet(&config, spec).expect("fleet completes");
    let elapsed = started.elapsed();

    let merged = fs::read(&summary.report_path).expect("reads merged");
    assert_eq!(
        merged, reference,
        "fleet report.json must be the single-node bytes"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "a fleet run with a 5 s heartbeat interval took {elapsed:?}"
    );
    for worker in workers {
        worker.shutdown();
    }
}

#[test]
fn a_worker_refuses_a_shard_directory_holding_another_campaign() {
    let dir = TempDir::new("mismatch");
    let pattern = pattern();
    let spec = build_fixture(&dir.0, &pattern, 2, 1_000);
    // The shard directory already holds a finished three-job campaign.
    let shard_dir = dir.0.join("shard");
    let finished = Campaign::create(&shard_dir, spec.clone())
        .expect("creates")
        .with_threads(1);
    assert!(finished
        .run(&CampaignLimits::none())
        .expect("runs")
        .is_complete());

    let worker = ShardWorker::new().with_threads(1);
    let narrowed = CampaignSpec {
        traces: spec.traces[..2].to_vec(),
        ..spec
    };
    let assignment = ShardSpec {
        shard_id: 3,
        dir: shard_dir.to_string_lossy().into_owned(),
        campaign: narrowed.encode(),
        threads: 1,
        max_jobs: 0,
        interrupt_after_cycles: 0,
    };
    let (_, message) = worker.assign(&assignment).expect_err("spec mismatch");
    assert!(message.contains("different campaign"), "{message}");

    // The wire spec must decode and name one trace per job index.
    let garbled = ShardSpec {
        campaign: "{not json".to_owned(),
        ..assignment.clone()
    };
    assert_eq!(worker.assign(&garbled).unwrap_err().0, ErrorCode::Malformed);
    let short = ShardSpec {
        campaign: CampaignSpec {
            job_ids: Some(vec![0]),
            ..narrowed
        }
        .encode(),
        ..assignment
    };
    assert_eq!(worker.assign(&short).unwrap_err().0, ErrorCode::Malformed);
}

#[test]
fn a_dead_worker_address_reassigns_its_shards() {
    let dir = TempDir::new("deadworker");
    let pattern = pattern();
    let spec = build_fixture(&dir.0, &pattern, 3, 2_000);
    let reference = reference_report(&dir.0, spec.clone());

    let live = spawn_worker();
    // A listener that never speaks CMRPC1: connects succeed, the
    // handshake times out, and the coordinator must bury the address.
    let mute = std::net::TcpListener::bind("127.0.0.1:0").expect("bind mute");
    let mute_addr = mute.local_addr().expect("addr").to_string();

    let mut config = FleetConfig::new(
        dir.0.join("fleet"),
        vec![live.local_addr().to_string(), mute_addr],
    );
    config.shards = 4;
    config.worker_threads = 1;
    config.heartbeat_interval = Duration::from_millis(100);
    config.heartbeat_misses = 2;
    let summary = run_fleet(&config, spec).expect("fleet completes on the survivor");
    assert_eq!(summary.merged_jobs, summary.total_jobs);
    assert_eq!(summary.workers_lost, 1);

    let merged = fs::read(&summary.report_path).expect("reads merged");
    assert_eq!(merged, reference, "report bytes survive a dead worker");
    live.shutdown();
    drop(mute);
}

#[test]
fn interrupted_assignments_drain_to_the_same_bytes() {
    let dir = TempDir::new("interrupt");
    let pattern = pattern();
    let spec = build_fixture(&dir.0, &pattern, 3, 2_000);
    let reference = reference_report(&dir.0, spec.clone());

    let worker = spawn_worker();
    let mut config = FleetConfig::new(dir.0.join("fleet"), vec![worker.local_addr().to_string()]);
    config.shards = 2;
    config.worker_threads = 1;
    config.heartbeat_interval = Duration::from_millis(100);
    // Every assignment lands at most one job and interrupts mid-trace:
    // shards cycle through the queue with live checkpoints many times
    // before draining.
    config.max_jobs_per_assign = 1;
    config.interrupt_after_cycles = 700;
    let summary = run_fleet(&config, spec.clone()).expect("fleet completes");
    assert_eq!(summary.merged_jobs, summary.total_jobs);

    let merged = fs::read(&summary.report_path).expect("reads merged");
    assert_eq!(
        merged, reference,
        "checkpoint-interrupted shards still merge to identical bytes"
    );
    worker.shutdown();
}

/// A coordinator killed mid-append leaves its merged `results.jsonl`
/// with a torn last line. The next run reads past it, merges the lost
/// jobs again and writes the single-node report; the torn line never
/// joins the first appended one.
#[test]
fn a_torn_merged_line_from_a_killed_coordinator_resumes_to_the_same_bytes() {
    let dir = TempDir::new("torn_merge");
    let pattern = pattern();
    let spec = build_fixture(&dir.0, &pattern, 5, 3_000);
    let reference = reference_report(&dir.0, spec.clone());

    let workers: Vec<ServerHandle> = (0..2).map(|_| spawn_worker()).collect();
    let mut config = FleetConfig::new(
        dir.0.join("fleet"),
        workers.iter().map(|w| w.local_addr().to_string()).collect(),
    );
    config.shards = 4;
    config.worker_threads = 1;
    config.heartbeat_interval = Duration::from_millis(100);
    run_fleet(&config, spec.clone()).expect("fleet completes");

    // Two whole lines and half of the third, as a kill mid-append of
    // the third merge leaves them, and no report yet.
    let merged = dir.0.join("fleet/results.jsonl");
    let text = fs::read_to_string(&merged).expect("reads");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6);
    let torn = format!(
        "{}\n{}\n{}",
        lines[0],
        lines[1],
        &lines[2][..lines[2].len() / 2]
    );
    fs::write(&merged, torn).expect("tears");
    fs::remove_file(dir.0.join("fleet/report.json")).expect("removes");

    let summary = run_fleet(&config, spec).expect("the torn fleet resumes");
    assert_eq!(summary.merged_jobs, 6);
    let report = fs::read(&summary.report_path).expect("reads merged");
    assert_eq!(report, reference, "resumed report must be byte-identical");
    let text = fs::read_to_string(&merged).expect("reads");
    assert!(text.ends_with('\n'), "no torn tail is left: {text:?}");
    assert_eq!(text.lines().count(), 6, "each job merged once: {text}");
    for worker in workers {
        worker.shutdown();
    }
}

/// A fleet worker that claims every shard complete and answers with
/// fixed outcome lines, whatever the shard holds.
struct FixedAnswer(String);

impl FleetService for FixedAnswer {
    fn assign(&self, spec: &ShardSpec) -> Result<ShardOutcome, (ErrorCode, String)> {
        Ok(ShardOutcome {
            shard_id: spec.shard_id,
            complete: true,
            outcomes: self.0.clone(),
        })
    }

    fn heartbeat(&self) -> WorkerHeartbeat {
        WorkerHeartbeat::default()
    }
}

#[test]
fn an_answer_that_is_not_the_shards_outcomes_buries_the_worker() {
    let dir = TempDir::new("bad_answer");
    let pattern = pattern();
    let spec = build_fixture(&dir.0, &pattern, 2, 1_000);
    let foreign = JobOutcome {
        index: spec.traces.len() + 7,
        trace: "foreign".to_owned(),
        cycles: 1_000,
        result: clockmark_cpa::DetectionResult {
            detected: false,
            peak_rotation: 0,
            peak_rho: 0.0,
            floor_max_abs: 0.0,
            ratio: 0.0,
            zscore: 0.0,
        },
    };
    for (tag, answer) in [
        ("garbled", "{\"index\":0,\"trace\":".to_owned()),
        ("foreign", foreign.encode()),
    ] {
        let worker = Server::new()
            .with_fleet(Arc::new(FixedAnswer(format!("{answer}\n"))))
            .bind("127.0.0.1:0")
            .expect("bind worker");
        let mut config = FleetConfig::new(dir.0.join(tag), vec![worker.local_addr().to_string()]);
        config.shards = 1;
        config.heartbeat_interval = Duration::from_millis(100);
        let err = run_fleet(&config, spec.clone()).expect_err("the only worker is buried");
        assert!(
            matches!(&err, FleetError::WorkersLost { pending_shards } if pending_shards == &[0]),
            "{tag}: {err}"
        );
        worker.shutdown();
    }
}
