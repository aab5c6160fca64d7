//! Adversarial multi-round campaigns over the shared round lifecycle.
//!
//! This module is the simulator's "deployed platform" layer. Where
//! [`crate::platform`] runs one honest round at a time, a campaign runs
//! many rounds against workers who may be *strategic*: sleeper agents
//! that turn after a warm-up, correlated label-flip rings, and
//! bid-collusion rings. The platform fights back with two estimators it
//! can actually maintain in deployment:
//!
//! * a [`mcs_agg::SkillTracker`] (warm-restarted Dawid–Skene with
//!   exponential forgetting, blended with gold estimates) replacing the
//!   oracle skill matrix with per-round estimates `θ̂`, and
//! * a [`ReputationBook`] scoring each worker's agreement with the
//!   aggregate (plus no-show / envelope-rejection penalties) and gating
//!   the admitted-worker set fed to the schedule engine.
//!
//! The per-round lifecycle itself — open, commit, settle, abort — is the
//! [`state::RoundState`] machine, shared with the batch platform loop and
//! the service's durable ledger and stream folds, so there is exactly one
//! definition of which transitions a round may take.
//!
//! Everything adversarial draws from derived RNG streams keyed off the
//! plan seed (the same discipline as [`crate::faults`]): a campaign with
//! a benign plan consumes the main RNG stream *identically* to the
//! original multi-round loop, which is what the `campaign_equivalence`
//! differential suite in `mcs-verify` pins against a verbatim copy of it.

mod adversary;
mod engine;
mod reputation;
pub mod state;

pub use adversary::{AdversaryGroup, AdversaryPlan, AdversaryStrategy};
pub use engine::{
    run_campaign, CampaignOutcome, CampaignSpec, DpAuditConfig, DpAuditReport, SkillSource,
};
pub use reputation::{ReputationBook, ReputationConfig, ReputationEvent};
pub use state::{PhaseError, RoundPhase, RoundState};
