//! # dp-mcs — privacy-preserving incentives for mobile crowd sensing
//!
//! A complete Rust implementation of Jin, Su, Ding, Nahrstedt & Borisov,
//! *Enabling Privacy-Preserving Incentives for Mobile Crowd Sensing
//! Systems* (ICDCS 2016): the **DP-hSRC** differentially private
//! single-minded reverse combinatorial auction, every substrate it depends
//! on, and a full reproduction harness for the paper's evaluation.
//!
//! ## What's inside
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`types`] | Domain model: [`types::Price`] (exact fixed-point money), bids, bundles, skill matrices, instances |
//! | [`auction`] | The paper's contribution: [`auction::DpHsrcAuction`] (Algorithm 1), [`auction::BaselineAuction`], [`auction::OptimalMechanism`], privacy & utility accounting |
//! | [`agg`] | Label aggregation: Lemma 1's weighted rule, majority vote, Dawid–Skene EM, gold-task skill estimation |
//! | [`lp`] / [`ilp`] | The exact-solver substrate replacing GUROBI: two-phase simplex and branch-and-bound covering ILP |
//! | [`num`] | Numerics: log-sum-exp, KL divergence, running statistics, seeded RNG streams |
//! | [`sim`] | The evaluation: Table I generators and one runner per figure/table |
//!
//! The most common entry points are re-exported at the crate root.
//!
//! ## Quickstart
//!
//! ```
//! use dp_mcs::{
//!     Bid, Bundle, DpHsrcAuction, Instance, Mechanism, Price, SkillMatrix, TaskId,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three workers bid on one pothole-tagging task.
//! let instance = Instance::builder(1)
//!     .bids(vec![
//!         Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(10.0)),
//!         Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(11.0)),
//!         Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(12.0)),
//!     ])
//!     .skills(SkillMatrix::from_rows(vec![vec![0.9]; 3])?)
//!     .uniform_error_bound(0.4)
//!     .price_grid_f64(12.0, 15.0, 0.5)
//!     .cost_range(Price::from_f64(10.0), Price::from_f64(15.0))
//!     .build()?;
//!
//! let auction = DpHsrcAuction::new(0.1)?; // ε = 0.1
//! let mut rng = dp_mcs::num::rng::seeded(42);
//! let outcome = auction.run(&instance, &mut rng)?;
//! println!("clearing price {}, {} winners", outcome.price(), outcome.winners().len());
//! # Ok(())
//! # }
//! ```
//!
//! ## Reproducing the paper
//!
//! Every figure and table has a dedicated binary in the `mcs-bench` crate
//! (`cargo run -p mcs-bench --release --bin fig1`, … `table2`, `fig5`);
//! see `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mcs_agg as agg;
pub use mcs_auction as auction;
pub use mcs_ilp as ilp;
pub use mcs_lp as lp;
pub use mcs_num as num;
pub use mcs_sim as sim;
pub use mcs_types as types;

pub use mcs_auction::{
    AuctionOutcome, BaselineAuction, DpHsrcAuction, Mechanism, OptimalMechanism, PricePmf,
    PriceSchedule, ScheduleEngine, ScheduledMechanism, SelectionRule, Strategy,
};
pub use mcs_sim::Setting;
pub use mcs_types::{
    Bid, BidProfile, Bundle, CompletionModel, Instance, McsError, Price, PriceGrid, SkillMatrix,
    TaskId, TrueType, WorkerId,
};
