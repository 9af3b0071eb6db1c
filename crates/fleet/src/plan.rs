//! Turning one campaign spec into a set of shard campaigns.
//!
//! A [`FleetPlan`] is a pure function of the campaign spec and the
//! shard count: every trace lands in the shard [`shard_of_trace`] names,
//! and each shard is the fleet spec narrowed to its traces and their
//! *campaign-global* job ids (exactly as a single-node run numbers them).
//! Workers run that spec as an ordinary campaign, so its checkpoints,
//! results lines and scenario seeds carry the single-node numbers, and
//! the coordinator merges results without any remapping.

use crate::hash::shard_of_trace;
use clockmark::{CampaignSpec, JobSpec};
use clockmark_serve::ShardSpec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One shard of a fleet campaign: a stable id plus the spec it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// The shard's stable id (hash bucket), in `0..plan.shards`.
    pub shard_id: u64,
    /// The fleet spec narrowed to the shard's traces and their global
    /// job ids, in global order.
    pub spec: CampaignSpec,
}

/// The full shard decomposition of one campaign spec.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// Shard count the traces were bucketed into.
    pub shards: u64,
    /// Non-empty shards, ordered by shard id. Hash buckets that caught
    /// no trace are omitted — they have nothing to run.
    pub plans: Vec<ShardPlan>,
}

impl FleetPlan {
    /// Buckets every job of `spec` into `shards` shards. Only non-empty
    /// buckets are held, so the plan grows with the trace count whatever
    /// the shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero (like [`shard_of_trace`]).
    pub fn new(spec: &CampaignSpec, shards: u64) -> Self {
        let mut buckets: BTreeMap<u64, Vec<JobSpec>> = BTreeMap::new();
        for job in spec.jobs() {
            let shard = shard_of_trace(&job.trace, shards);
            buckets.entry(shard).or_default().push(job);
        }
        let template = CampaignSpec {
            traces: Vec::new(),
            ..spec.clone()
        };
        let plans = buckets
            .into_iter()
            .map(|(shard_id, jobs)| ShardPlan {
                shard_id,
                spec: CampaignSpec {
                    job_ids: Some(jobs.iter().map(|job| job.index).collect()),
                    traces: jobs.into_iter().map(|job| job.trace).collect(),
                    ..template.clone()
                },
            })
            .collect();
        FleetPlan { shards, plans }
    }

    /// Total jobs across all shards.
    pub fn total_jobs(&self) -> usize {
        self.plans.iter().map(|p| p.spec.traces.len()).sum()
    }

    /// The shard plan with id `shard_id`, if it is non-empty.
    pub fn shard(&self, shard_id: u64) -> Option<&ShardPlan> {
        self.plans.iter().find(|p| p.shard_id == shard_id)
    }
}

/// The on-disk directory of one shard's mini-campaign.
pub fn shard_dir(fleet_dir: &Path, shard_id: u64) -> PathBuf {
    fleet_dir.join("shards").join(format!("shard_{shard_id}"))
}

/// Builds the wire [`ShardSpec`] that asks a worker to run `shard` of
/// the fleet campaign rooted at `fleet_dir`.
///
/// `threads`, `max_jobs` and `interrupt_after_cycles` are passed through
/// (zero means "no override" for each, mirroring the frame layout).
pub fn shard_spec(
    fleet_dir: &Path,
    shard: &ShardPlan,
    threads: u32,
    max_jobs: u64,
    interrupt_after_cycles: u64,
) -> ShardSpec {
    ShardSpec {
        shard_id: shard.shard_id,
        dir: shard_dir(fleet_dir, shard.shard_id)
            .to_string_lossy()
            .into_owned(),
        campaign: shard.spec.encode(),
        threads,
        max_jobs,
        interrupt_after_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(traces: &[&str]) -> CampaignSpec {
        let mut spec = CampaignSpec::new(
            "/tmp/corpus",
            vec![true, false, true],
            traces.iter().map(|s| (*s).to_owned()).collect(),
        );
        spec.algo = clockmark_cpa::CpaAlgo::Folded;
        spec
    }

    #[test]
    fn every_job_lands_in_exactly_one_shard_with_its_global_index() {
        let traces = ["a", "b", "c", "d", "e", "f", "g"];
        let plan = FleetPlan::new(&spec(&traces), 4);
        assert_eq!(plan.total_jobs(), traces.len());
        let mut seen = vec![false; traces.len()];
        for shard in &plan.plans {
            for JobSpec { index, trace } in shard.spec.jobs() {
                assert_eq!(traces[index], trace, "global index points at its trace");
                assert_eq!(
                    shard.shard_id,
                    shard_of_trace(&trace, 4),
                    "job sits in its hash bucket"
                );
                assert!(!seen[index], "job {index} appears twice");
                seen[index] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every job is planned");
    }

    #[test]
    fn empty_buckets_are_omitted() {
        let plan = FleetPlan::new(&spec(&["only"]), 64);
        assert_eq!(plan.plans.len(), 1);
        assert_eq!(plan.total_jobs(), 1);
        assert_eq!(
            plan.shard(plan.plans[0].shard_id)
                .unwrap()
                .spec
                .traces
                .len(),
            1
        );
    }

    #[test]
    fn the_plan_grows_with_the_traces_not_the_shard_count() {
        let plan = FleetPlan::new(&spec(&["only"]), u64::MAX);
        assert_eq!(plan.plans.len(), 1);
        assert_eq!(plan.plans[0].spec.job_ids, Some(vec![0]));
    }

    #[test]
    fn shard_spec_pins_the_campaign_tuning() {
        let spec0 =
            spec(&["a", "b", "c"]).with_sequential(clockmark_cpa::SequentialOptions::every(2_048));
        let plan = FleetPlan::new(&spec0, 1);
        let wire = shard_spec(Path::new("/work/fleet"), &plan.plans[0], 2, 0, 0);
        assert_eq!(wire.shard_id, 0);
        assert_eq!(wire.dir, "/work/fleet/shards/shard_0");
        // One shard holds every job in global order: its spec is the
        // fleet spec, flavour and kernel included.
        assert_eq!(
            CampaignSpec::decode(&wire.campaign).expect("decodes"),
            CampaignSpec {
                job_ids: Some(vec![0, 1, 2]),
                ..spec0.clone()
            }
        );
        assert_eq!(wire.threads, 2);

        // With more shards each spec lists only its own traces, aligned
        // with the global indices.
        let plan = FleetPlan::new(&spec0, 64);
        for shard in &plan.plans {
            let wire = shard_spec(Path::new("/f"), shard, 0, 0, 0);
            let narrowed = CampaignSpec::decode(&wire.campaign).expect("decodes");
            assert_eq!(narrowed, shard.spec);
            assert_eq!(narrowed.sequential, spec0.sequential);
            for job in narrowed.jobs() {
                assert_eq!(spec0.traces[job.index], job.trace);
            }
        }
    }
}
