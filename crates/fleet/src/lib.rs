//! Distributed detection campaigns over a fleet of CMRPC1 workers.
//!
//! A single [`Campaign`](clockmark::Campaign) drains a corpus with the
//! threads of one process. This crate scales the same campaign across
//! worker *nodes* without giving up any of the campaign's guarantees:
//!
//! - **Sharding is content-addressed.** Every trace hashes (FNV-1a 64)
//!   to a shard, and every shard hashes onto a consistent-hash ring of
//!   workers ([`hash`]). Adding or removing one worker only moves the
//!   shards that land on that worker's ring points — everything else
//!   stays put, so a mostly-warm fleet stays warm.
//! - **Shards are campaigns.** Each shard directory under
//!   `<fleet>/shards/shard_<k>/` is a full mini-campaign over its trace
//!   subset ([`plan`]): the campaign checkpoint machinery applies
//!   verbatim, so a worker SIGKILLed mid-trace leaves a checkpoint that
//!   *any* other worker resumes byte-identically.
//! - **The merged report is byte-identical.** A shard's spec carries its
//!   jobs' campaign-global ids, so its outcomes come back numbered as on
//!   one node; the coordinator merges them into one `results.jsonl` and
//!   writes the same `report.json` a single-node run of the same spec
//!   would have written ([`coordinator`]).
//! - **Stragglers get stolen, corpses get reaped.** More shards than
//!   workers means an idle worker steals pending shards preferred
//!   elsewhere; missed heartbeats or a dropped work connection requeue
//!   a dead worker's shard for the survivors.
//! - **Shards carry the spec.** A `ShardAssign` frame carries the
//!   shard's whole [`CampaignSpec`](clockmark::CampaignSpec): the fleet
//!   spec narrowed to the shard's traces and their global `job_ids`. So
//!   fixed-budget, sequential and scenario campaigns shard with no
//!   fleet-specific code, and a scenario job seeds from its global id
//!   exactly as on one node.
//!
//! The wire protocol is plain CMRPC1 version 7 (`ShardAssign` /
//! `ShardResult` / `Heartbeat` frames, see `docs/fleet.md`): a fleet
//! worker is just a `clockmark-serve` server with a [`ShardWorker`]
//! installed, and keeps answering ping / status / detect / metrics like
//! any other node.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod hash;
pub mod plan;
pub mod worker;

mod error;

pub use coordinator::{run_fleet, FleetConfig, FleetProgress, FleetSummary};
pub use error::FleetError;
pub use hash::{fnv1a64, shard_of_trace, Ring};
pub use plan::{FleetPlan, ShardPlan};
pub use worker::ShardWorker;
