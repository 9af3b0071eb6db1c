//! The windows of a checkpoint replacement, the progress publisher under
//! several workers, and the correlator cache across multi-watermark jobs.
//!
//! A checkpoint replaces its predecessor by writing `job_<i>.tmp`,
//! removing `job_<i>.ckpt` and renaming the temp onto the free name. A
//! kill between the remove and the rename leaves only the temp; these
//! tests stage that state (and a torn temp) by hand and check what a
//! resume makes of it.
//!
//! The tests read process-global obs counters and span counts, so this
//! binary installs one recorder and runs its tests one at a time.

use clockmark::cpa::CpaAlgo;
use clockmark::{
    AttackSpec, Campaign, CampaignLimits, CampaignProgress, CampaignSpec, DefenseSpec, ScenarioSpec,
};
use clockmark_corpus::{Corpus, TraceHeader};
use clockmark_obs::Recorder;
use clockmark_seq::{Lfsr, SequenceGenerator};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// Serialises the tests: they compare global counters before and after.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // Installing fails after the first test; the recorder stays.
    clockmark_obs::install(Recorder::new(vec![]));
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn counter(name: &str) -> u64 {
    clockmark_obs::snapshot()
        .and_then(|s| s.counter(name))
        .unwrap_or(0)
}

fn span_count(name: &str) -> u64 {
    clockmark_obs::snapshot()
        .and_then(|s| s.spans.into_iter().find(|(k, _)| k == name))
        .map_or(0, |(_, stat)| stat.count)
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("cm_ckpt_replace_{tag}_{}", std::process::id()));
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

fn pattern(width: u32) -> Vec<bool> {
    let mut lfsr = Lfsr::maximal(width).expect("valid width");
    let period = lfsr.period_hint().expect("maximal period") as usize;
    (0..period).map(|_| lfsr.next_bit()).collect()
}

/// A corpus of `count` traces of `cycles` each, every other one marked.
fn corpus(dir: &Path, pattern: &[bool], count: usize, cycles: usize) -> CampaignSpec {
    let root = dir.join("corpus");
    let mut corpus = Corpus::create(&root).expect("creates");
    let mut names = Vec::new();
    for t in 0..count {
        let mut state = 0x5EED ^ t as u64;
        let amp = if t % 2 == 0 { 0.5 } else { 0.0 };
        let w: Vec<f64> = (0..cycles)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                let mark = if pattern[(i + 5 * t) % pattern.len()] {
                    amp
                } else {
                    0.0
                };
                1.0 + mark + noise
            })
            .collect();
        let name = format!("t{t:02}");
        corpus.add(&name, TraceHeader::bare(0), &w).expect("adds");
        names.push(name);
    }
    let mut spec = CampaignSpec::new(root, pattern.to_vec(), names);
    spec.checkpoint_cycles = 1_000;
    spec.chunk_cycles = 250;
    spec
}

/// The report of an uninterrupted run of `spec`.
fn reference_report(dir: &Path, spec: &CampaignSpec) -> Vec<u8> {
    let campaign = Campaign::create(dir.join("reference"), spec.clone()).expect("creates");
    assert!(campaign
        .run(&CampaignLimits::none())
        .expect("runs")
        .is_complete());
    fs::read(dir.join("reference/report.json")).expect("reads")
}

/// Runs job 0 to an interrupt at 2,000 of its 4,000 cycles and moves its
/// checkpoint to the temp name, as a kill between the remove and the
/// rename of the next replacement would leave it. Returns the campaign
/// and the temp's path.
fn kill_between_remove_and_rename(dir: &Path, spec: &CampaignSpec) -> (Campaign, PathBuf) {
    let campaign = Campaign::create(dir.join("killed"), spec.clone()).expect("creates");
    let status = campaign
        .run(&CampaignLimits {
            max_jobs: Some(1),
            interrupt_job_after_cycles: Some(2_000),
        })
        .expect("runs");
    assert_eq!(status.checkpointed, 1, "{status}");
    let live = dir.join("killed/checkpoints/job_0.ckpt");
    let temp = dir.join("killed/checkpoints/job_0.tmp");
    assert!(!temp.exists(), "a finished replacement leaves no temp");
    fs::rename(&live, &temp).expect("renames");
    (campaign, temp)
}

#[test]
fn a_checkpoint_left_only_as_its_temp_is_restored() {
    let _serial = serial();
    let dir = TempDir::new("temp_only");
    let spec = corpus(&dir.0, &pattern(6), 2, 4_000);
    let want = reference_report(&dir.0, &spec);
    let (campaign, temp) = kill_between_remove_and_rename(&dir.0, &spec);
    assert_eq!(campaign.status().expect("status").checkpointed, 1);

    let discarded = counter("campaign.checkpoints_discarded");
    assert!(campaign
        .run(&CampaignLimits::none())
        .expect("runs")
        .is_complete());
    assert_eq!(
        fs::read(dir.0.join("killed/report.json")).expect("reads"),
        want
    );
    assert_eq!(
        counter("campaign.checkpoints_discarded"),
        discarded,
        "the temp is a whole checkpoint"
    );
    // Job 0 resumed at cycle 2,000: the run read 2,000 + 4,000 cycles.
    let progress = campaign.live_progress().expect("progress published");
    assert_eq!(progress.cycles, 6_000, "{progress:?}");
    assert!(!temp.exists());
    assert_eq!(
        fs::read_dir(temp.parent().expect("dir"))
            .expect("lists")
            .count(),
        0
    );
}

#[test]
fn a_torn_temp_with_no_live_file_is_discarded_and_the_job_restarts() {
    let _serial = serial();
    let dir = TempDir::new("torn_temp");
    let spec = corpus(&dir.0, &pattern(6), 2, 4_000);
    let want = reference_report(&dir.0, &spec);
    let (campaign, temp) = kill_between_remove_and_rename(&dir.0, &spec);
    let bytes = fs::read(&temp).expect("reads");
    fs::write(&temp, &bytes[..bytes.len() / 2]).expect("tears");

    let discarded = counter("campaign.checkpoints_discarded");
    assert!(campaign
        .run(&CampaignLimits::none())
        .expect("runs")
        .is_complete());
    assert_eq!(
        fs::read(dir.0.join("killed/report.json")).expect("reads"),
        want
    );
    assert_eq!(counter("campaign.checkpoints_discarded"), discarded + 1);
    // Job 0 restarted from its first cycle.
    let progress = campaign.live_progress().expect("progress published");
    assert_eq!(progress.cycles, 8_000, "{progress:?}");
    assert!(!temp.exists());
}

#[test]
fn a_torn_temp_beside_a_live_checkpoint_is_ignored_and_swept_at_landing() {
    let _serial = serial();
    let dir = TempDir::new("torn_beside_live");
    let mut spec = corpus(&dir.0, &pattern(6), 2, 4_000);
    // Only the interrupt writes a checkpoint, so the resumed job lands
    // without replacing it and the torn temp is still there to sweep.
    spec.checkpoint_cycles = 0;
    let want = reference_report(&dir.0, &spec);
    let campaign = Campaign::create(dir.0.join("killed"), spec).expect("creates");
    campaign
        .run(&CampaignLimits {
            max_jobs: Some(1),
            interrupt_job_after_cycles: Some(2_000),
        })
        .expect("runs");
    let checkpoints = dir.0.join("killed/checkpoints");
    // A kill while the next snapshot was being written.
    fs::write(checkpoints.join("job_0.tmp"), b"CMCKPT2\0torn").expect("tears");

    let discarded = counter("campaign.checkpoints_discarded");
    assert!(campaign
        .run(&CampaignLimits::none())
        .expect("runs")
        .is_complete());
    assert_eq!(
        fs::read(dir.0.join("killed/report.json")).expect("reads"),
        want
    );
    assert_eq!(counter("campaign.checkpoints_discarded"), discarded);
    // Job 0 resumed from the live file at cycle 2,000.
    let progress = campaign.live_progress().expect("progress published");
    assert_eq!(progress.cycles, 6_000, "{progress:?}");
    assert_eq!(fs::read_dir(&checkpoints).expect("lists").count(), 0);
}

#[test]
fn progress_under_four_workers_is_whole_and_never_goes_backwards() {
    let _serial = serial();
    let dir = TempDir::new("progress");
    let mut spec = corpus(&dir.0, &pattern(4), 48, 600);
    spec.checkpoint_cycles = 50;
    spec.chunk_cycles = 25;
    let campaign = Campaign::create(dir.0.join("campaign"), spec)
        .expect("creates")
        .with_threads(4);
    let path = dir.0.join("campaign/progress.json");
    let finished = AtomicBool::new(false);
    let start = Barrier::new(2);
    let (reads, present) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            start.wait();
            let (mut reads, mut present, mut last_done) = (0u64, 0u64, 0u64);
            while !finished.load(Ordering::Acquire) {
                reads += 1;
                let Ok(text) = fs::read_to_string(&path) else {
                    continue; // absent: between a remove and a rename
                };
                present += 1;
                let progress = CampaignProgress::decode(&text)
                    .unwrap_or_else(|| panic!("read {reads}: undecodable {text:?}"));
                assert!(
                    progress.done >= last_done,
                    "done went from {last_done} to {}",
                    progress.done
                );
                last_done = progress.done;
            }
            (reads, present)
        });
        start.wait();
        let status = campaign.run(&CampaignLimits::none()).expect("runs");
        finished.store(true, Ordering::Release);
        assert!(status.is_complete(), "{status}");
        poller.join().expect("poller passed")
    });
    assert!(present > 0, "the poller never saw progress ({reads} reads)");
    let last = campaign.live_progress().expect("final progress");
    assert_eq!((last.done, last.total), (48, 48));
}

#[test]
fn a_multi_watermark_job_after_a_warm_up_builds_no_fft_plan() {
    let _serial = serial();
    let dir = TempDir::new("multi_plan");
    let mut spec = corpus(&dir.0, &pattern(6), 3, 3_000);
    spec.algo = CpaAlgo::Fft;
    spec.scenario = Some(ScenarioSpec {
        attack: AttackSpec::None,
        defense: DefenseSpec::MultiWatermark {
            extra_widths: vec![5, 7],
        },
        ..ScenarioSpec::default()
    });
    // One worker thread: jobs run on this thread, whose cache persists.
    let campaign = Campaign::create(dir.0.join("campaign"), spec)
        .expect("creates")
        .with_threads(1);
    let warm_up = CampaignLimits {
        max_jobs: Some(1),
        interrupt_job_after_cycles: None,
    };
    assert_eq!(campaign.run(&warm_up).expect("runs").completed, 1);
    let planned = span_count("cpa.fft.plan");
    let spectra = span_count("cpa.spread_spectrum");
    assert!(campaign
        .run(&CampaignLimits::none())
        .expect("runs")
        .is_complete());
    assert_eq!(
        span_count("cpa.spread_spectrum"),
        spectra + 6,
        "two jobs, three watermarks each"
    );
    assert_eq!(span_count("cpa.fft.plan"), planned, "every plan was warm");
}
