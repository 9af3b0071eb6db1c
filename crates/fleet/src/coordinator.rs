//! The fleet coordinator: shard scheduling, work stealing, death
//! detection, and the byte-identical merged report.
//!
//! The fleet directory **is** a campaign directory — `Campaign::create`
//! persists the full single-node spec into `fleet.json`'s sibling
//! `campaign.json`, the merged outcomes land in the same
//! `results.jsonl`, and the final `report.json` is written with the
//! exact bytes `Campaign::run` would have produced. `campaign status`
//! pointed at a fleet directory therefore renders the same one-line
//! progress a local run would show, fed by the aggregated
//! `progress.json` this module publishes from worker heartbeats.
//!
//! ## Scheduling
//!
//! Each worker gets two connections: a **work** connection that blocks
//! inside `ShardAssign` for as long as the shard runs, and a
//! **heartbeat** connection polled on a short interval. A shard's
//! preferred worker comes from the consistent-hash [`Ring`]; an idle
//! worker with no preferred shard pending *steals* the oldest pending
//! shard (counted in `fleet.shards_stolen`). A worker whose work
//! connection drops or whose heartbeat goes quiet for
//! [`FleetConfig::heartbeat_misses`] intervals is declared dead: its
//! in-flight shard is requeued (`fleet.shards_reassigned`) and resumes
//! from its on-disk checkpoints on whichever worker claims it next.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::FleetError;
use crate::hash::Ring;
use crate::plan::{shard_dir, shard_spec, FleetPlan, ShardPlan};
use clockmark::{Campaign, CampaignProgress, CampaignSpec, JobOutcome};
use clockmark_corpus::durable::{self, Journal};
use clockmark_corpus::Corpus;
use clockmark_obs::json::{self, DecodeError, FromJson, Json, Record};
use clockmark_serve::{Backoff, Client, WorkerHeartbeat};

/// How a fleet campaign is split and supervised.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The fleet (= campaign) directory; created if absent, resumed if
    /// it already holds a `campaign.json`.
    pub dir: PathBuf,
    /// Worker addresses (`host:port`), each a `clockmark-serve` node
    /// with a fleet service installed.
    pub workers: Vec<String>,
    /// Shards to split the trace set into; 0 picks `4 × workers`, the
    /// granularity sweet spot between steal opportunities and per-shard
    /// campaign overhead.
    pub shards: u64,
    /// Threads each worker runs its shard with (0 = worker default).
    pub worker_threads: u32,
    /// Heartbeat polling interval.
    pub heartbeat_interval: Duration,
    /// Consecutive missed heartbeats that declare a worker dead.
    pub heartbeat_misses: u32,
    /// Test hook: cap jobs per `ShardAssign` (0 = run shards to
    /// completion). An interrupted shard is requeued, so the fleet
    /// still drains — in more, smaller steps.
    pub max_jobs_per_assign: u64,
    /// Test hook: checkpoint-interrupt each job after this many cycles
    /// per assignment (0 = off); mirrors
    /// `CampaignLimits::interrupt_job_after_cycles`.
    pub interrupt_after_cycles: u64,
}

impl FleetConfig {
    /// A config over `dir` and `workers` with default supervision
    /// tuning.
    pub fn new(dir: impl Into<PathBuf>, workers: Vec<String>) -> Self {
        FleetConfig {
            dir: dir.into(),
            workers,
            shards: 0,
            worker_threads: 0,
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_misses: 4,
            max_jobs_per_assign: 0,
            interrupt_after_cycles: 0,
        }
    }

    fn effective_shards(&self) -> u64 {
        if self.shards > 0 {
            self.shards
        } else {
            (self.workers.len() as u64).max(1) * 4
        }
    }
}

/// A point-in-time summary of a finished fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSummary {
    /// Jobs in the campaign.
    pub total_jobs: usize,
    /// Jobs with a merged outcome (equals `total_jobs` on success).
    pub merged_jobs: usize,
    /// Non-empty shards in the plan.
    pub shards: usize,
    /// Shards run by a worker other than their ring-preferred one.
    pub shards_stolen: u64,
    /// Shard requeues caused by worker death.
    pub shards_reassigned: u64,
    /// Workers that died during the run.
    pub workers_lost: usize,
    /// Where the merged report was written.
    pub report_path: PathBuf,
}

/// A live snapshot of fleet-wide progress, aggregated from heartbeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetProgress {
    /// Jobs merged plus jobs landed inside in-flight shards.
    pub done: u64,
    /// Total jobs.
    pub total: u64,
    /// Workers currently alive.
    pub workers_alive: usize,
    /// Summed ingest throughput of in-flight shards, cycles/second.
    pub cycles_per_sec: f64,
}

/// Shared scheduler state behind one mutex; the condvar wakes idle
/// work threads when shards are (re)queued or the run ends.
struct State {
    pending: VecDeque<u64>,
    /// worker → shard currently assigned on its work connection.
    running: HashMap<String, u64>,
    done: BTreeSet<u64>,
    /// Campaign-global job indices already merged into `results.jsonl`.
    landed: BTreeSet<usize>,
    alive: HashMap<String, bool>,
    heartbeats: HashMap<String, WorkerHeartbeat>,
    stolen: u64,
    reassigned: u64,
    /// Set when the run can no longer make progress.
    failed: bool,
}

impl State {
    fn finished(&self, shard_count: usize) -> bool {
        self.done.len() == shard_count || self.failed
    }

    fn workers_alive(&self) -> usize {
        self.alive.values().filter(|a| **a).count()
    }

    /// Declares `worker` dead, requeueing its in-flight shard (front of
    /// the queue: it has the freshest checkpoints, finish it first).
    fn bury(&mut self, worker: &str) {
        if self.alive.insert(worker.to_owned(), false) != Some(true) {
            return;
        }
        self.heartbeats.remove(worker);
        if let Some(shard) = self.running.remove(worker) {
            if !self.done.contains(&shard) && !self.pending.contains(&shard) {
                self.pending.push_front(shard);
                self.reassigned += 1;
                clockmark_obs::counter_add("fleet.shards_reassigned", 1);
            }
        }
    }
}

struct Scheduler {
    state: Mutex<State>,
    wake: Condvar,
    ring: Ring,
    shard_count: usize,
}

impl Scheduler {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until a shard is available for `worker` (preferring its
    /// own ring share, stealing otherwise) or the run ends.
    fn next_shard(&self, worker: &str) -> Option<u64> {
        let mut state = self.lock();
        loop {
            if state.finished(self.shard_count)
                || !state.alive.get(worker).copied().unwrap_or(false)
            {
                return None;
            }
            if let Some(pos) = self.pick(&state, worker) {
                let shard = state.pending.remove(pos).expect("position just found");
                let preferred = self.ring.preferred(shard);
                if preferred.is_some_and(|p| p != worker) {
                    let preferred_alive = preferred
                        .and_then(|p| state.alive.get(p))
                        .copied()
                        .unwrap_or(false);
                    // Taking over for a dead worker is reassignment
                    // pickup, already counted by `bury`; taking a shard
                    // from a live straggler is a steal.
                    if preferred_alive {
                        state.stolen += 1;
                        clockmark_obs::counter_add("fleet.shards_stolen", 1);
                    }
                }
                state.running.insert(worker.to_owned(), shard);
                return Some(shard);
            }
            state = self
                .wake
                .wait_timeout(state, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Waits out `timeout` unless the run finishes first; returns whether
    /// it has finished. Other wake-ups (merges, requeues, burials) do not
    /// cut the wait short, so a loop paced by it keeps its cadence.
    fn wait_unless_finished(&self, timeout: Duration) -> bool {
        let state = self
            .wake
            .wait_timeout_while(self.lock(), timeout, |state| {
                !state.finished(self.shard_count)
            })
            .unwrap_or_else(|e| e.into_inner())
            .0;
        state.finished(self.shard_count)
    }

    /// Index into `pending` of the shard `worker` should take next.
    fn pick(&self, state: &State, worker: &str) -> Option<usize> {
        let preferred = state
            .pending
            .iter()
            .position(|&s| self.ring.preferred(s) == Some(worker));
        preferred.or(if state.pending.is_empty() {
            None
        } else {
            Some(0)
        })
    }
}

/// Runs (or resumes) a fleet campaign to completion and writes the
/// merged report.
///
/// Blocks until every job has a merged outcome, then returns the run's
/// [`FleetSummary`]. The merged `report.json` is byte-identical to what
/// a single-node [`Campaign::run`] of the same spec writes.
///
/// # Errors
///
/// - [`FleetError::Config`] for an empty worker list (checked before
///   anything is written) or a `fleet.json` that pins no usable shard
///   count.
/// - [`FleetError::WorkersLost`] when every worker died (or never
///   connected) with shards still pending; the directory stays
///   resumable.
/// - Campaign/corpus/I-O errors from spec persistence and merging.
pub fn run_fleet(config: &FleetConfig, spec: CampaignSpec) -> Result<FleetSummary, FleetError> {
    if config.workers.is_empty() {
        return Err(FleetError::config("no workers given"));
    }
    let _span = clockmark_obs::span("fleet.run")
        .field("workers", config.workers.len())
        .field("jobs", spec.traces.len());

    // The fleet directory is a campaign directory: create-or-resume.
    let campaign = if config.dir.join("campaign.json").exists() {
        Campaign::open(&config.dir)?
    } else {
        Campaign::create(&config.dir, spec)?
    };
    let spec = campaign.spec();
    let shards = persisted_shard_count(&config.dir, config.effective_shards())?;
    let plan = FleetPlan::new(spec, shards);
    let total_jobs = plan.total_jobs();

    // Outcomes already merged by an earlier (killed) coordinator run
    // count as landed; shards they fully cover are done before any
    // worker hears about them.
    let landed: BTreeSet<usize> = campaign
        .completed_outcomes()?
        .iter()
        .map(|o| o.index)
        .collect();
    let mut done = BTreeSet::new();
    let mut pending = VecDeque::new();
    for shard in &plan.plans {
        if shard
            .spec
            .jobs()
            .iter()
            .all(|job| landed.contains(&job.index))
        {
            done.insert(shard.shard_id);
        } else {
            pending.push_back(shard.shard_id);
        }
    }

    // Shard-scoped corpus manifests: each shard directory records which
    // traces it covers, so a shard campaign is auditable on its own.
    let corpus = Corpus::open(&spec.corpus)?;
    for shard in &plan.plans {
        if done.contains(&shard.shard_id) {
            continue;
        }
        let dir = shard_dir(&config.dir, shard.shard_id);
        durable::create_dir_all(&dir)?;
        corpus.subset_manifest(&shard.spec.traces, dir.join("manifest.jsonl"))?;
    }

    // A journal: a killed coordinator's torn line is cut before a merge.
    let results = Journal::new(campaign.dir().join("results.jsonl"));

    let ring = Ring::new(&config.workers, Ring::DEFAULT_VNODES);
    let workers = ring.workers().to_vec();
    let scheduler = Scheduler {
        state: Mutex::new(State {
            pending,
            running: HashMap::new(),
            done,
            landed,
            alive: workers.iter().map(|w| (w.clone(), true)).collect(),
            heartbeats: HashMap::new(),
            stolen: 0,
            reassigned: 0,
            failed: false,
        }),
        wake: Condvar::new(),
        ring,
        shard_count: plan.plans.len(),
    };

    std::thread::scope(|scope| {
        for worker in &workers {
            scope.spawn(|| work_loop(worker, config, &plan, &scheduler, &results));
            scope.spawn(|| heartbeat_loop(worker, config, &scheduler));
        }
        supervise(config, &scheduler, total_jobs as u64);
    });

    let state = scheduler.lock();
    let merged = state.landed.len();
    let stolen = state.stolen;
    let reassigned = state.reassigned;
    let workers_lost = workers.len() - state.workers_alive();
    let pending_shards: Vec<u64> = state.pending.iter().copied().collect();
    drop(state);

    if merged < total_jobs {
        return Err(FleetError::WorkersLost { pending_shards });
    }

    // All jobs merged: write the final report exactly as a single-node
    // run would (`Campaign::report` sorts by job index and the encoding
    // is canonical, so the bytes cannot depend on merge order).
    let report = campaign.report()?;
    let report_path = campaign.dir().join("report.json");
    durable::publish(&report_path, format!("{}\n", report.encode()).as_bytes())?;
    let total = total_jobs as u64;
    publish_progress_timed(campaign.dir(), total, total, 0.0, Duration::ZERO);

    Ok(FleetSummary {
        total_jobs,
        merged_jobs: merged,
        shards: plan.plans.len(),
        shards_stolen: stolen,
        shards_reassigned: reassigned,
        workers_lost,
        report_path,
    })
}

/// Reads the live fleet progress a coordinator (possibly in another
/// process) last published into the fleet directory.
pub fn read_progress(fleet_dir: &Path) -> Option<CampaignProgress> {
    let bytes = durable::read_replaced(&fleet_dir.join("progress.json")).ok()?;
    CampaignProgress::decode(std::str::from_utf8(&bytes).ok()?)
}

/// `fleet.json`: `{"shards":N}`, the shard count a fleet pins.
struct ShardCount(u64);

impl FromJson<'_> for ShardCount {
    fn from_json(value: &Json, path: impl FnOnce() -> String) -> Result<Self, DecodeError> {
        Ok(ShardCount(Record::from_json(value, path)?.req("shards")?))
    }
}

/// The shard count is part of the fleet's identity: shard directories
/// name hash buckets, so resuming with a different count would orphan
/// every checkpoint. First run persists it, later runs read it back.
fn persisted_shard_count(dir: &Path, requested: u64) -> Result<u64, FleetError> {
    let path = dir.join("fleet.json");
    match fs::read_to_string(&path) {
        Ok(text) => match json::decode(&text) {
            Ok(ShardCount(0)) => Err(FleetError::config(format!(
                "{} pins 0 shards; a fleet needs at least one",
                path.display()
            ))),
            Ok(ShardCount(shards)) => Ok(shards),
            Err(e) => Err(FleetError::config(format!("{}: {e}", path.display()))),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            durable::publish(&path, format!("{{\"shards\":{requested}}}\n").as_bytes())?;
            Ok(requested)
        }
        Err(e) => Err(FleetError::io(format!("reading {}", path.display()), e)),
    }
}

/// One worker's work connection: claim a shard, run it remotely, merge
/// what came back, repeat until the run ends or the worker dies.
fn work_loop(
    worker: &str,
    config: &FleetConfig,
    plan: &FleetPlan,
    scheduler: &Scheduler,
    results: &Journal,
) {
    let mut client: Option<Client> = None;
    while let Some(shard_id) = scheduler.next_shard(worker) {
        let shard = plan.shard(shard_id).expect("scheduled shards are planned");
        let wire = shard_spec(
            &config.dir,
            shard,
            config.worker_threads,
            config.max_jobs_per_assign,
            config.interrupt_after_cycles,
        );
        let outcome = connect(worker, config, &mut client)
            .and_then(|c| c.shard_assign(wire).map_err(|e| e.to_string()));
        match outcome {
            Ok((returned_shard, complete, outcomes)) => {
                let answered = returned_shard == shard_id && answers_shard(&outcomes, shard);
                let mut state = scheduler.lock();
                if !answered {
                    // A worker answering for the wrong shard, or with
                    // lines that are not the shard's outcomes, is not a
                    // peer we can schedule against; burying it requeues
                    // the shard it was running.
                    clockmark_obs::suppressed(|| {
                        eprintln!("fleet: worker {worker} lost: bad answer for shard {shard_id}");
                    });
                    state.bury(worker);
                    scheduler.wake.notify_all();
                    continue;
                }
                state.running.remove(worker);
                merge_outcomes(&outcomes, &mut state, results);
                if state.done.contains(&shard_id) {
                    // Another worker finished our shard while a
                    // heartbeat timeout had us presumed dead; nothing
                    // left to do for it.
                } else if complete {
                    state.done.insert(shard_id);
                    // A heartbeat-timeout race may have requeued the
                    // shard while we were (slowly) finishing it.
                    state.pending.retain(|&s| s != shard_id);
                    clockmark_obs::counter_add("fleet.shards_done", 1);
                } else {
                    // Interrupted by an injected limit: back of the
                    // queue so siblings get their turn first.
                    state.pending.push_back(shard_id);
                }
                scheduler.wake.notify_all();
            }
            Err(message) => {
                clockmark_obs::counter_add("fleet.worker_errors", 1);
                clockmark_obs::suppressed(|| {
                    eprintln!("fleet: worker {worker} lost: {message}");
                });
                let mut state = scheduler.lock();
                // next_shard put the shard into `running`; bury requeues
                // it and flags the worker dead, ending this loop.
                state.running.insert(worker.to_owned(), shard_id);
                state.bury(worker);
                scheduler.wake.notify_all();
                return;
            }
        }
    }
}

/// Whether every outcome line of a worker's answer decodes and names one
/// of `shard`'s job ids. Anything else is a protocol fault, not data.
fn answers_shard(outcomes: &str, shard: &ShardPlan) -> bool {
    outcomes
        .lines()
        .all(|line| JobOutcome::decode(line).is_ok_and(|outcome| shard.spec.has_job(outcome.index)))
}

/// Appends not-yet-landed outcome lines to the merged `results.jsonl`,
/// one journal append per line.
///
/// Lines whose job index already landed (a resumed shard re-reporting
/// history, or a shard finished twice across a heartbeat-timeout race)
/// are dropped, so each job appears exactly once.
fn merge_outcomes(outcomes: &str, state: &mut State, results: &Journal) {
    for line in outcomes.lines() {
        let Ok(outcome) = JobOutcome::decode(line) else {
            continue;
        };
        if state.landed.insert(outcome.index) && results.append(line).is_ok() {
            clockmark_obs::counter_add("fleet.jobs_merged", 1);
        }
    }
}

/// Connects (or reuses) the work connection to `worker`. The handshake
/// may take as long as the heartbeats would take to bury the worker,
/// and no longer.
fn connect<'c>(
    worker: &str,
    config: &FleetConfig,
    client: &'c mut Option<Client>,
) -> Result<&'c mut Client, String> {
    if client.is_none() {
        let mut backoff = Backoff::new(crate::hash::fnv1a64(worker.as_bytes()));
        let handshake = heartbeat_period(config) * config.heartbeat_misses.max(1);
        *client = Some(
            Client::connect_with_backoff(worker, &mut backoff, 8, handshake)
                .map_err(|e| e.to_string())?,
        );
    }
    Ok(client.as_mut().expect("just connected"))
}

/// The heartbeat interval, floored so a tiny one cannot spin.
fn heartbeat_period(config: &FleetConfig) -> Duration {
    config.heartbeat_interval.max(Duration::from_millis(50))
}

/// One worker's heartbeat connection: poll liveness and shard progress,
/// bury the worker after too many consecutive misses.
fn heartbeat_loop(worker: &str, config: &FleetConfig, scheduler: &Scheduler) {
    let timeout = heartbeat_period(config) * 2;
    let mut client: Option<Client> = None;
    let mut misses = 0u32;
    loop {
        {
            let state = scheduler.lock();
            if state.finished(scheduler.shard_count)
                || !state.alive.get(worker).copied().unwrap_or(false)
            {
                return;
            }
        }
        let beat = match &mut client {
            Some(c) => c.heartbeat().map_err(|e| e.to_string()),
            None => Client::connect_with_timeout(worker, timeout)
                .and_then(|mut c| {
                    let beat = c.heartbeat()?;
                    client = Some(c);
                    Ok(beat)
                })
                .map_err(|e| e.to_string()),
        };
        match beat {
            Ok(hb) => {
                misses = 0;
                let mut state = scheduler.lock();
                state.heartbeats.insert(worker.to_owned(), hb);
            }
            Err(_) => {
                client = None;
                misses += 1;
                if misses >= config.heartbeat_misses.max(1) {
                    let mut state = scheduler.lock();
                    state.bury(worker);
                    scheduler.wake.notify_all();
                    return;
                }
            }
        }
        if scheduler.wait_unless_finished(config.heartbeat_interval) {
            return;
        }
    }
}

/// The coordinator's main loop: publish aggregated progress and gauges,
/// detect the no-progress-possible endgame.
fn supervise(config: &FleetConfig, scheduler: &Scheduler, total_jobs: u64) {
    let started = Instant::now();
    let tick = config
        .heartbeat_interval
        .min(Duration::from_millis(250))
        .max(Duration::from_millis(20));
    loop {
        let progress = {
            let mut state = scheduler.lock();
            if state.done.len() == scheduler.shard_count {
                scheduler.wake.notify_all();
                return;
            }
            if state.workers_alive() == 0 {
                state.failed = true;
                scheduler.wake.notify_all();
                return;
            }
            aggregate(&state, total_jobs)
        };
        clockmark_obs::gauge_set("fleet.workers_alive", progress.workers_alive as f64);
        clockmark_obs::gauge_set("fleet.jobs_done", progress.done as f64);
        publish_progress_timed(
            &config.dir,
            progress.done,
            total_jobs,
            progress.cycles_per_sec,
            started.elapsed(),
        );
        scheduler.wait_unless_finished(tick);
    }
}

/// Fleet-wide progress: merged jobs plus whatever in-flight shards have
/// landed locally but not yet reported.
fn aggregate(state: &State, total: u64) -> FleetProgress {
    let in_flight: u64 = state
        .running
        .iter()
        .filter_map(|(worker, shard)| {
            let hb = state.heartbeats.get(worker)?;
            (hb.busy && hb.shard_id == *shard).then_some(hb.jobs_done)
        })
        .sum();
    let cycles_per_sec: f64 = state
        .heartbeats
        .values()
        .filter(|hb| hb.busy)
        .map(|hb| hb.cycles_per_sec)
        .sum();
    FleetProgress {
        done: (state.landed.len() as u64 + in_flight).min(total),
        total,
        workers_alive: state.workers_alive(),
        cycles_per_sec,
    }
}

/// Replaces the fleet's aggregated `progress.json` in the exact shape the
/// campaign publishes, so `campaign status <fleet-dir>` renders it.
fn publish_progress_timed(
    dir: &Path,
    done: u64,
    total: u64,
    cycles_per_sec: f64,
    elapsed: Duration,
) {
    let elapsed_s = elapsed.as_secs_f64();
    let jobs_per_sec = if elapsed_s > 0.0 {
        done as f64 / elapsed_s
    } else {
        0.0
    };
    let eta_seconds = if jobs_per_sec > 0.0 {
        (total.saturating_sub(done)) as f64 / jobs_per_sec
    } else {
        0.0
    };
    let progress = CampaignProgress {
        done,
        total,
        cycles: 0,
        cycles_per_sec,
        jobs_per_sec,
        eta_seconds,
        elapsed_ms: elapsed.as_millis() as u64,
    };
    let _ = durable::replace(
        &dir.join("progress.json"),
        format!("{}\n", progress.encode()).as_bytes(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(pending: &[u64], workers: &[&str]) -> State {
        State {
            pending: pending.iter().copied().collect(),
            running: HashMap::new(),
            done: BTreeSet::new(),
            landed: BTreeSet::new(),
            alive: workers.iter().map(|w| ((*w).to_owned(), true)).collect(),
            heartbeats: HashMap::new(),
            stolen: 0,
            reassigned: 0,
            failed: false,
        }
    }

    #[test]
    fn burying_a_worker_requeues_its_shard_in_front() {
        let mut state = state_with(&[7], &["a", "b"]);
        state.running.insert("a".to_owned(), 3);
        state.bury("a");
        assert_eq!(state.pending, VecDeque::from(vec![3, 7]));
        assert_eq!(state.reassigned, 1);
        assert!(!state.alive["a"]);
        // Burying twice is idempotent.
        state.bury("a");
        assert_eq!(state.pending.len(), 2);
        assert_eq!(state.reassigned, 1);
    }

    #[test]
    fn merge_drops_duplicate_and_garbage_lines() {
        let outcome = JobOutcome {
            index: 4,
            trace: "t".to_owned(),
            cycles: 10,
            result: clockmark_cpa::DetectionResult {
                detected: true,
                peak_rotation: 1,
                peak_rho: 0.5,
                floor_max_abs: 0.1,
                ratio: 5.0,
                zscore: 9.0,
            },
        };
        let text = format!("{}\nnot json\n{}\n", outcome.encode(), outcome.encode());
        let mut state = state_with(&[], &[]);
        let path = std::env::temp_dir().join(format!(
            "cm_fleet_merge_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_file(&path).ok();
        let file = Journal::new(&path);
        merge_outcomes(&text, &mut state, &file);
        merge_outcomes(&text, &mut state, &file);
        assert_eq!(state.landed.iter().copied().collect::<Vec<_>>(), vec![4]);
        let written = fs::read_to_string(&path).expect("reads");
        assert_eq!(written, format!("{}\n", outcome.encode()));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn aggregate_counts_only_matching_inflight_heartbeats() {
        let mut state = state_with(&[], &["a", "b"]);
        state.landed.extend([0, 1, 2]);
        state.running.insert("a".to_owned(), 5);
        state.heartbeats.insert(
            "a".to_owned(),
            WorkerHeartbeat {
                busy: true,
                shard_id: 5,
                jobs_done: 2,
                jobs_total: 3,
                cycles_per_sec: 100.0,
                ..WorkerHeartbeat::default()
            },
        );
        // Stale heartbeat from a shard `b` no longer runs: ignored.
        state.heartbeats.insert(
            "b".to_owned(),
            WorkerHeartbeat {
                busy: true,
                shard_id: 9,
                jobs_done: 7,
                cycles_per_sec: 50.0,
                ..WorkerHeartbeat::default()
            },
        );
        let progress = aggregate(&state, 10);
        assert_eq!(progress.done, 5);
        assert_eq!(progress.workers_alive, 2);
        assert!((progress.cycles_per_sec - 150.0).abs() < 1e-9);
    }

    #[test]
    fn shard_count_persists_across_runs() {
        let dir = std::env::temp_dir().join(format!(
            "cm_fleet_shards_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).expect("mkdir");
        assert_eq!(persisted_shard_count(&dir, 12).expect("first"), 12);
        // A later run asking for a different count gets the pinned one.
        assert_eq!(persisted_shard_count(&dir, 99).expect("second"), 12);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_json_decodes_through_the_typed_reader() {
        let dir = std::env::temp_dir().join(format!(
            "cm_fleet_json_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).expect("mkdir");
        assert_eq!(persisted_shard_count(&dir, 12).expect("first"), 12);
        assert_eq!(
            fs::read_to_string(dir.join("fleet.json")).expect("reads"),
            "{\"shards\":12}\n"
        );
        for hostile in ["\"4\"", "4.0", "-1", "0"] {
            fs::write(
                dir.join("fleet.json"),
                format!("{{\"shards\":{hostile}}}\n"),
            )
            .expect("writes");
            let err = persisted_shard_count(&dir, 12).expect_err(hostile);
            assert!(
                matches!(&err, FleetError::Config { message } if message.contains("shards")),
                "{hostile}: {err}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A persisted count of 0 is refused before any shard is planned or
    /// any worker contacted.
    #[test]
    fn a_zero_shard_fleet_json_is_a_config_error() {
        let dir = std::env::temp_dir().join(format!(
            "cm_fleet_zero_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("fleet.json"), "{\"shards\":0}\n").expect("writes");
        let spec = CampaignSpec::new("/nonexistent", vec![true, false, true], vec!["t".into()]);
        let config = FleetConfig::new(&dir, vec!["127.0.0.1:9".to_owned()]);
        let err = run_fleet(&config, spec).expect_err("zero shards");
        assert!(matches!(err, FleetError::Config { .. }), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_file_round_trips_through_the_campaign_decoder() {
        let dir = std::env::temp_dir().join(format!(
            "cm_fleet_progress_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).expect("mkdir");
        publish_progress_timed(&dir, 3, 10, 1234.5, Duration::from_millis(2500));
        let progress = read_progress(&dir).expect("decodes");
        assert_eq!(progress.done, 3);
        assert_eq!(progress.total, 10);
        assert!((progress.jobs_per_sec - 1.2).abs() < 1e-9);
        assert!(progress.eta_seconds > 0.0);
        fs::remove_dir_all(&dir).ok();
    }
}
