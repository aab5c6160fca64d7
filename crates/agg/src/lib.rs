//! Label aggregation substrate for binary crowd-sensing tasks.
//!
//! The paper's platform buys binary labels from workers and aggregates them
//! with the weighted rule of Lemma 1 (from Ho, Jabbari & Vaughan, ICML'13):
//!
//! ```text
//! l̂_j = sign( Σ_{i : w_i ∈ S, τ_j ∈ Γ_i} (2θ_ij − 1) · l_ij )
//! ```
//!
//! and guarantees `Pr[l̂_j ≠ l_j] ≤ δ_j` exactly when the selected winners
//! satisfy `Σ (2θ_ij − 1)² ≥ 2 ln(1/δ_j)` — the covering constraint that the
//! whole auction is built around.
//!
//! This crate provides everything around that pipeline:
//!
//! * [`Label`] / [`LabelSet`] — ±1 labels and per-task collections.
//! * [`generate_labels`] — the synthetic worker model (worker `i` labels
//!   task `j` correctly with probability `θ_ij`), used to exercise the
//!   platform end-to-end since the paper has no real trace.
//! * [`weighted_aggregate`] — the Lemma 1 rule; [`majority_vote`] as the
//!   unweighted baseline.
//! * [`DawidSkene`] — EM estimation of per-worker accuracies without
//!   ground truth (one way the platform can maintain its `θ` record).
//! * [`estimate_skills_from_gold`] — supervised skill estimation from gold
//!   tasks with Laplace smoothing.
//! * [`empirical_error_rate`] — Monte-Carlo verification that a winner
//!   set's aggregation error is within `δ_j`.
//!
//! # Examples
//!
//! ```
//! use mcs_agg::{generate_labels, weighted_aggregate, Label, LabelSet};
//! use mcs_types::{Bundle, SkillMatrix, TaskId, WorkerId};
//! use mcs_num::rng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let skills = SkillMatrix::from_rows(vec![vec![0.95], vec![0.9], vec![0.85]])?;
//! let truth = vec![Label::Pos];
//! let assignment = vec![
//!     (WorkerId(0), Bundle::new(vec![TaskId(0)])),
//!     (WorkerId(1), Bundle::new(vec![TaskId(0)])),
//!     (WorkerId(2), Bundle::new(vec![TaskId(0)])),
//! ];
//! let mut r = rng::seeded(1);
//! let labels = generate_labels(&skills, &truth, &assignment, &mut r);
//! let estimate = weighted_aggregate(&labels, &skills, 1);
//! assert_eq!(estimate[0], Some(Label::Pos));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Label paths feed the fault-tolerant round engine with partial, possibly
// empty per-task label sets; aggregation must surface typed errors (e.g.
// `McsError::EmptyLabelSet`), never unwrap. Tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod em;
mod error_bound;
mod estimate;
mod gold;
mod labels;
mod tracker;
mod weighted;

pub use em::{DawidSkene, DawidSkeneFit};
pub use error_bound::{empirical_error_rate, lemma1_threshold, ErrorRateReport};
pub use estimate::{EstimateError, EstimateSource, SkillEstimate};
pub use gold::{estimate_skills_from_gold, gold_skill_estimate, raw_gold_accuracy};
pub use labels::{generate_labels, Label, LabelSet, Observation};
pub use tracker::{RefitInfo, SkillTracker, TrackerConfig};
pub use weighted::{
    achieved_coverage, majority_vote, weighted_aggregate, weighted_aggregate_strict,
};
