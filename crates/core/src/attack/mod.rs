//! Adversarial analysis: removal attacks, capture/trace attacks and the
//! serializable attack↔defense scenario API.
//!
//! The module grew in two stages:
//!
//! - [`removal_attack`] (Section VI of the paper) answers the *structural*
//!   question: can a third party excise the watermark from the RTL without
//!   breaking the system?
//! - The scenario API answers the *signal-level* questions posed by the
//!   adversarial literature (SIGNED's challenge-response interrogation,
//!   the smart-grid work on cracking noise-based dynamic watermarks):
//!   what happens to detection when an adversary desynchronises the
//!   capture, disables part of the modulated clock tree, jams the LFSR
//!   spectrum, or replays a forged trace estimated from captures — and
//!   which defenses survive which attacks?
//!
//! The scenario surface is three serializable types plus one trait:
//!
//! - [`AttackSpec`] — what the adversary does, as data. [`AttackSpec::build`]
//!   turns a spec into a boxed [`Attack`], a deterministic trace transform:
//!   the same spec, seed and input always produce byte-identical output
//!   (all randomness is counter-based hashing of the seed, never stateful).
//! - [`DefenseSpec`] — what the verifier deploys: extra coexisting
//!   watermarks, a seed-hopping schedule, or SIGNED-style
//!   challenge-response phase commands.
//! - [`ScenarioSpec`] — one (attack, defense, SNR) cell, persisted into
//!   `campaign.json` exactly like the spectrum kernel, with the same
//!   tolerant decode for legacy specs (a pre-scenario `campaign.json`
//!   simply has no `scenario` field and keeps running plain jobs).
//!
//! The campaign engine runs cells (see [`crate::scenario`]); this module
//! defines the vocabulary. [`gate_disable_plan`] is the structural half of
//! the gate-disable attack: given an embedding, it uses
//! `clockmark-netlist` clock-tree queries to pick which ICGs an informed
//! adversary would disable and reports the surviving modulation fraction.

mod removal;
mod spec;
mod structural;
mod transforms;

pub use removal::{removal_attack, AttackReport, AttackVerdict};
pub use spec::{AttackSpec, DefenseSpec, ScenarioSpec, SpecError};
pub use structural::{apply_gate_disable, gate_disable_plan, GateDisablePlan};
pub(crate) use transforms::residues;
pub use transforms::{hash_gaussian, mix_seed, Attack, AttackContext};
