//! DP-hSRC: the differentially private single-minded reverse combinatorial
//! auction of Jin et al., *Enabling Privacy-Preserving Incentives for
//! Mobile Crowd Sensing Systems* (ICDCS 2016).
//!
//! # The mechanism in one paragraph
//!
//! The platform wants, for every binary task `τ_j`, enough label coverage
//! that the weighted aggregate errs with probability at most `δ_j`
//! (Lemma 1's constraint `Σ q_ij ≥ Q_j` over selected winners). Workers bid
//! bundles and prices. For each candidate single price `p`, Algorithm 1
//! greedily assembles a winner set `S(p)` from the workers bidding at most
//! `p`, picking at each step the worker with the largest marginal coverage
//! `Σ_j min(Q'_j, q_ij)`. Because `S(p)` is constant between consecutive
//! bidding prices, the schedule is computed once per interval, making the
//! whole auction `O(N²K)` — independent of `|P|`. The final price is then
//! drawn by the *exponential mechanism*,
//! `Pr[p = x] ∝ exp(−ε·x·|S(x)| / (2 N c_max))`, which yields
//! ε-differential privacy of the payment profile, ε·Δc-truthfulness,
//! individual rationality, and a logarithmic approximation to the optimal
//! total payment (Theorems 2–6).
//!
//! # Crate layout
//!
//! * [`Mechanism`] / [`ScheduledMechanism`] — the unified mechanism
//!   interface: every auction below is driven generically through
//!   [`Mechanism::run`], and the two differentially private single-price
//!   auctions additionally expose their winner [`ScheduledMechanism::schedule`]
//!   and exact output [`ScheduledMechanism::pmf`].
//! * [`DpHsrcAuction`] — Algorithm 1 end to end (run once, or extract the
//!   exact price PMF for analysis).
//! * [`BaselineAuction`] — the paper's §VII-A baseline: winners picked by
//!   descending static score `Σ_j q_ij`, same exponential price draw.
//! * [`OptimalMechanism`] — the exact `R_OPT = min_p p·|S_OPT(p)|`
//!   benchmark, computed with the `mcs-ilp` branch-and-bound (the paper
//!   used GUROBI).
//! * [`PriceSchedule`] / [`PricePmf`] — the per-price winner sets and the
//!   exact exponential-mechanism distribution over them.
//! * [`privacy`] — KL-divergence privacy leakage (Definition 8) and the
//!   empirical max-log-ratio DP check (Theorem 2).
//! * [`utility`] — expected-utility accounting for truthfulness (Theorem 3)
//!   and individual-rationality (Theorem 4) experiments.
//! * [`xor`] — the multi-minded (XOR-bid) generalization of Definition 1,
//!   where each worker offers several mutually exclusive bundle options.
//! * [`CriticalPaymentAuction`] — a non-private truthful comparator
//!   (greedy + Myerson critical payments) for price-of-privacy studies.
//!
//! # Examples
//!
//! ```
//! use mcs_auction::{DpHsrcAuction, Mechanism, ScheduledMechanism};
//! use mcs_types::{Bid, Bundle, Instance, Price, SkillMatrix, TaskId};
//! use mcs_num::rng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Four workers, two tasks, generous skills.
//! let bids = vec![
//!     Bid::new(Bundle::new(vec![TaskId(0), TaskId(1)]), Price::from_f64(12.0)),
//!     Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(11.0)),
//!     Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(14.0)),
//!     Bid::new(Bundle::new(vec![TaskId(0), TaskId(1)]), Price::from_f64(18.0)),
//! ];
//! let skills = SkillMatrix::from_rows(vec![
//!     vec![0.9, 0.9], vec![0.9, 0.5], vec![0.5, 0.95], vec![0.9, 0.9],
//! ])?;
//! let instance = Instance::builder(2)
//!     .bids(bids)
//!     .skills(skills)
//!     .uniform_error_bound(0.4)
//!     .price_grid_f64(10.0, 20.0, 0.1)
//!     .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
//!     .build()?;
//!
//! // The constructor validates ε; `run` samples one auction outcome.
//! let auction = DpHsrcAuction::new(0.1)?;
//! let mut r = rng::seeded(42);
//! let outcome = auction.run(&instance, &mut r)?;
//! assert!(!outcome.winners().is_empty());
//! assert!(instance.price_grid().contains(outcome.price()));
//!
//! // The exact output distribution — what the theorems quantify over.
//! let pmf = auction.pmf(&instance)?;
//! assert!((pmf.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Injected faults drive this crate with arbitrary coverage states, so the
// schedule/selection path must fail typed, never panic. Tests keep their
// unwraps (the whole crate compiles under `cfg(test)` for the test harness).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod baseline;
mod critical;
mod dp_hsrc;
mod engine;
mod exponential;
mod mechanism;
mod optimal;
mod outcome;
pub mod privacy;
pub mod replay;
mod schedule;
pub mod utility;
pub mod xor;

pub use baseline::BaselineAuction;
pub use critical::{CriticalOutcome, CriticalPaymentAuction};
pub use dp_hsrc::DpHsrcAuction;
pub use engine::{ScheduleEngine, Strategy};
pub use exponential::ExponentialMechanism;
pub use mechanism::{Mechanism, ScheduledMechanism};
pub use optimal::{OptimalMechanism, OptimalOutcome, PerPriceSolve};
pub use outcome::AuctionOutcome;
pub use replay::{OnlinePricer, Quote, ReplayStats};
pub use schedule::{reference_schedule, BuildStats, PricePmf, PriceSchedule, SelectionRule};
pub use xor::{Award, XorBid, XorDpHsrcAuction, XorInstance, XorOutcome};
