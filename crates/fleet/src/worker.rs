//! The worker side of a fleet: a [`FleetService`] that runs shard
//! campaigns on the local node.
//!
//! A [`ShardWorker`] turns every `ShardAssign` frame into an ordinary
//! [`Campaign`] running the [`CampaignSpec`] the frame carries, over the
//! shard directory it names. Nothing about the campaign machinery is
//! fleet-specific: checkpoints, torn-tail recovery and byte-stable
//! outcomes all come from the existing single-node code path, which is
//! precisely why a shard can hop between workers mid-flight — the next
//! node just `open`s the same directory and resumes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use clockmark::{Campaign, CampaignError, CampaignLimits, CampaignProgress, CampaignSpec};
use clockmark_serve::{ErrorCode, FleetService, ShardOutcome, ShardSpec, WorkerHeartbeat};

/// What the worker is currently running, published to the heartbeat.
#[derive(Debug, Clone)]
struct InFlight {
    shard_id: u64,
    dir: PathBuf,
    jobs_total: u64,
}

/// A [`FleetService`] that executes shards as local campaigns.
///
/// Install one into a server to make the node a fleet worker:
///
/// ```no_run
/// # fn main() -> Result<(), clockmark_serve::ServeError> {
/// use std::sync::Arc;
/// let handle = clockmark_serve::Server::new()
///     .with_fleet(Arc::new(clockmark_fleet::ShardWorker::new()))
///     .bind("0.0.0.0:4780")?;
/// # drop(handle);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ShardWorker {
    /// Worker-thread default for shards that do not pin `threads`.
    threads: usize,
    in_flight: Mutex<Option<InFlight>>,
    shards_done: AtomicU64,
}

impl ShardWorker {
    /// A worker that lets each shard spec (or the campaign default)
    /// choose its thread count.
    pub fn new() -> Self {
        ShardWorker::default()
    }

    /// Overrides the default per-shard thread count (0 = campaign
    /// default); a spec with a non-zero `threads` still wins.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn run_shard(
        &self,
        spec: &ShardSpec,
        campaign_spec: CampaignSpec,
    ) -> Result<ShardOutcome, CampaignError> {
        let dir = PathBuf::from(&spec.dir);
        // Create the shard campaign on first contact, open (resume) it on
        // every later one — including the reassignment of a shard some
        // other worker died inside.
        let campaign = if dir.join("campaign.json").exists() {
            Campaign::open(&dir)?
        } else {
            match Campaign::create(&dir, campaign_spec.clone()) {
                Ok(c) => c,
                // Another assignment of the same shard raced us to the
                // create; its spec is checked below like any other.
                Err(CampaignError::Io { source, .. })
                    if source.kind() == std::io::ErrorKind::AlreadyExists =>
                {
                    Campaign::open(&dir)?
                }
                Err(e) => return Err(e),
            }
        };
        // Resuming a directory under another spec would mix two
        // campaigns' outcomes and map them to the wrong global jobs.
        if campaign.spec() != &campaign_spec {
            return Err(CampaignError::Spec {
                message: format!(
                    "shard directory {} holds a different campaign than the assignment",
                    dir.display()
                ),
            });
        }
        let threads = if spec.threads > 0 {
            spec.threads as usize
        } else {
            self.threads
        };
        let campaign = if threads > 0 {
            campaign.with_threads(threads)
        } else {
            campaign
        };

        *self.in_flight.lock().unwrap_or_else(|e| e.into_inner()) = Some(InFlight {
            shard_id: spec.shard_id,
            dir: dir.clone(),
            jobs_total: campaign_spec.traces.len() as u64,
        });

        let limits = CampaignLimits {
            max_jobs: (spec.max_jobs > 0).then_some(spec.max_jobs as usize),
            interrupt_job_after_cycles: (spec.interrupt_after_cycles > 0)
                .then_some(spec.interrupt_after_cycles),
        };
        let run = campaign.run(&limits);
        *self.in_flight.lock().unwrap_or_else(|e| e.into_inner()) = None;
        let status = run?;

        // The shard spec carries the global job ids, so the outcomes are
        // already numbered, in order, as the coordinator merges them.
        let outcomes = campaign.completed_outcomes()?;
        let mut text = String::with_capacity(outcomes.len() * 160);
        for outcome in &outcomes {
            text.push_str(&outcome.encode());
            text.push('\n');
        }

        if status.is_complete() {
            self.shards_done.fetch_add(1, Ordering::Relaxed);
            clockmark_obs::counter_add("fleet.worker_shards_done", 1);
        }
        clockmark_obs::counter_add("fleet.worker_jobs_done", outcomes.len() as u64);
        Ok(ShardOutcome {
            shard_id: spec.shard_id,
            complete: status.is_complete(),
            outcomes: text,
        })
    }
}

impl FleetService for ShardWorker {
    fn assign(&self, spec: &ShardSpec) -> Result<ShardOutcome, (ErrorCode, String)> {
        let malformed = |message: String| {
            (
                ErrorCode::Malformed,
                format!("shard {}: {message}", spec.shard_id),
            )
        };
        // A spec that decodes but fails validation (no traces, job ids
        // that disagree with them, an oversized read chunk) is the
        // assignment's fault too, not the worker's.
        let campaign_spec = CampaignSpec::decode(&spec.campaign)
            .and_then(|s| s.validate().map(|()| s))
            .map_err(|e| malformed(e.to_string()))?;
        self.run_shard(spec, campaign_spec).map_err(|e| {
            let code = match &e {
                CampaignError::Corpus(_) => ErrorCode::Corpus,
                CampaignError::Cpa(_) => ErrorCode::Cpa,
                _ => ErrorCode::Internal,
            };
            (code, format!("shard {}: {e}", spec.shard_id))
        })
    }

    fn heartbeat(&self) -> WorkerHeartbeat {
        let shards_done = self.shards_done.load(Ordering::Relaxed);
        let in_flight = self
            .in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        match in_flight {
            None => WorkerHeartbeat {
                busy: false,
                shard_id: u64::MAX,
                shards_done,
                ..WorkerHeartbeat::default()
            },
            Some(run) => {
                // The shard campaign's own workers publish progress.json
                // after every landed job; a torn or missing file just
                // means "no progress to report yet".
                let progress = std::fs::read_to_string(run.dir.join("progress.json"))
                    .ok()
                    .and_then(|text| CampaignProgress::decode(&text));
                let (jobs_done, cycles, cycles_per_sec) = match progress {
                    Some(p) => (p.done, p.cycles, p.cycles_per_sec),
                    None => (0, 0, 0.0),
                };
                WorkerHeartbeat {
                    busy: true,
                    shard_id: run.shard_id,
                    jobs_done,
                    jobs_total: run.jobs_total,
                    cycles,
                    cycles_per_sec,
                    shards_done,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_worker_heartbeats_idle() {
        let worker = ShardWorker::new();
        let hb = worker.heartbeat();
        assert!(!hb.busy);
        assert_eq!(hb.shard_id, u64::MAX);
        assert_eq!(hb.shards_done, 0);
    }

    #[test]
    fn an_empty_shard_is_rejected_as_malformed() {
        let worker = ShardWorker::new();
        let spec = ShardSpec {
            shard_id: 9,
            dir: "/nonexistent".to_owned(),
            campaign: CampaignSpec::new("/nonexistent", vec![true, false], Vec::new()).encode(),
            threads: 0,
            max_jobs: 0,
            interrupt_after_cycles: 0,
        };
        let (code, message) = worker.assign(&spec).expect_err("no jobs");
        assert_eq!(code, ErrorCode::Malformed);
        assert!(message.contains("shard 9"), "{message}");
    }

    #[test]
    fn an_oversized_chunk_is_rejected_as_malformed() {
        let worker = ShardWorker::new();
        let dir = std::env::temp_dir().join(format!("cm-worker-chunk-{}", std::process::id()));
        let campaign =
            CampaignSpec::new("/nonexistent", vec![true, false, false], vec!["t".into()]);
        // 1e13 decodes exactly; 1e30 saturates to usize::MAX.
        for hostile in ["10000000000000", "1e30"] {
            let text = campaign.encode().replace(
                &format!("\"chunk_cycles\":{}", campaign.chunk_cycles),
                &format!("\"chunk_cycles\":{hostile}"),
            );
            let spec = ShardSpec {
                shard_id: 4,
                dir: dir.to_string_lossy().into_owned(),
                campaign: text,
                threads: 1,
                max_jobs: 0,
                interrupt_after_cycles: 0,
            };
            let (code, message) = worker.assign(&spec).expect_err("oversized chunk");
            assert_eq!(code, ErrorCode::Malformed, "{hostile}: {message}");
            assert!(message.contains("chunk_cycles"), "{hostile}: {message}");
        }
        assert!(!dir.exists(), "nothing is written for a refused shard");
    }
}
