//! Domain types for mobile crowd sensing (MCS) incentive mechanisms.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! `dp-mcs` workspace, following the system model of Jin et al.,
//! *Enabling Privacy-Preserving Incentives for Mobile Crowd Sensing
//! Systems* (ICDCS 2016):
//!
//! * [`WorkerId`] / [`TaskId`] — typed indices into the worker set `N` and
//!   task set `T`.
//! * [`Price`] — an exact fixed-point money amount (integer tenths), so the
//!   paper's 0.1-spaced cost grid is represented without floating-point
//!   drift and prices are totally ordered and hashable.
//! * [`Bundle`] — a set of tasks a worker bids on (`Γ_i`).
//! * [`Bid`] / [`BidProfile`] — a worker's submitted `(Γ_i, ρ_i)` and the
//!   full profile `b`.
//! * [`SkillMatrix`] — `θ = [θ_ij]`, each entry the probability that worker
//!   `i` labels task `j` correctly, together with the derived coverage
//!   weights `q_ij = (2θ_ij − 1)²` of Lemma 1.
//! * [`Instance`] — a complete auction input: bids, skills, per-task error
//!   bounds `δ_j`, candidate price grid `P`, and the cost range
//!   `[c_min, c_max]`.
//! * [`CompletionModel`] — deterministic or Bernoulli task completion;
//!   the Bernoulli case turns coverage requirements into chance
//!   constraints `Pr[shortfall for task j] ≤ γ_j` via [`chance_quota`].
//!
//! # Examples
//!
//! ```
//! use mcs_types::{Bid, Bundle, Instance, Price, SkillMatrix, TaskId};
//!
//! # fn main() -> Result<(), mcs_types::McsError> {
//! let bundle = Bundle::new(vec![TaskId(0), TaskId(1)]);
//! let bids = vec![
//!     Bid::new(bundle.clone(), Price::from_f64(12.5)),
//!     Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(20.0)),
//! ];
//! let skills = SkillMatrix::from_rows(vec![vec![0.9, 0.8], vec![0.5, 0.7]])?;
//! let instance = Instance::builder(2)
//!     .bids(bids)
//!     .skills(skills)
//!     .uniform_error_bound(0.15)
//!     .price_grid_f64(10.0, 25.0, 0.1)
//!     .cost_range(Price::from_f64(10.0), Price::from_f64(25.0))
//!     .build()?;
//! assert_eq!(instance.num_workers(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bid;
mod bundle;
mod completion;
mod coverage;
mod digest;
mod error;
mod id;
mod instance;
mod price;
mod skill;

pub use bid::{Bid, BidProfile, TrueType};
pub use bundle::Bundle;
pub use completion::{
    chance_quota, chernoff_shortfall_bound, BernoulliCompletion, CompletionModel, UncertainCoverage,
};
pub use coverage::{CoverageView, SparseCoverage};
pub use digest::{Fnv1a, DIGEST_VERSION};
pub use error::McsError;
pub use id::{TaskId, WorkerId};
pub use instance::{CoverageProblem, Instance, InstanceBuilder};
pub use price::{Price, PriceGrid};
pub use skill::{SkillMatrix, DEFAULT_THETA};
