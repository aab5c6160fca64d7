//! Per-decision and per-round reporting for streaming auctions.

use mcs_auction::ReplayStats;
use mcs_types::{Price, WorkerId};
use serde::{Deserialize, Serialize};

/// Which machinery priced the running hindsight benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PricingPath {
    /// `OnlinePricer`'s warm-started winner-sequence replay (PR 5 path).
    #[default]
    Incremental,
    /// A from-scratch `ScheduleEngine::build_residual` per arrival — the
    /// baseline the bench compares the incremental path against.
    FromScratch,
}

/// Why an arrival was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// Part of the observation sample; sampled workers are never admitted
    /// (and never paid), which is what keeps the learned threshold
    /// independent of their reports.
    SampleObserved,
    /// Bid strictly above the posted threshold price.
    QuoteExceeded,
    /// Marginal-coverage-per-price density below the learned threshold.
    BelowDensity,
    /// Coverage requirements were already met on arrival.
    CoverageMet,
    /// No residual marginal coverage to contribute.
    NotNeeded,
    /// Lookahead mode only: not in the offline winner set.
    NotSelected,
}

/// The admission decision for one arrival, written as
/// `{"decision": "accepted", "payment": …}` or
/// `{"decision": "rejected", "reason": …}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "decision")]
pub enum Decision {
    /// Admitted at the stated payment (posted price for the threshold
    /// mechanism, pay-as-bid for the greedy baseline).
    Accepted {
        /// What this worker is paid.
        payment: Price,
    },
    /// Turned away for the stated reason.
    #[serde(key = "reason")]
    Rejected(RejectReason),
}

impl Decision {
    /// Whether the arrival was admitted.
    pub fn accepted(&self) -> bool {
        matches!(self, Decision::Accepted { .. })
    }

    /// The payment, `None` when rejected.
    pub fn payment(&self) -> Option<Price> {
        match self {
            Decision::Accepted { payment } => Some(*payment),
            Decision::Rejected(_) => None,
        }
    }
}

impl RejectReason {
    /// The stable snake_case name reports and stream decisions carry: the
    /// reason's serde encoding, without the quotes.
    pub fn name(&self) -> &'static str {
        match self {
            RejectReason::SampleObserved => "sample_observed",
            RejectReason::QuoteExceeded => "quote_exceeded",
            RejectReason::BelowDensity => "below_density",
            RejectReason::CoverageMet => "coverage_met",
            RejectReason::NotNeeded => "not_needed",
            RejectReason::NotSelected => "not_selected",
        }
    }
}

/// The running hindsight benchmark after one arrival: the cheapest feasible
/// uniform grid price over *everyone seen so far* and the winner count at
/// it (`None` while the seen pool cannot yet cover the requirements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HindsightQuote {
    /// Cheapest feasible grid price in tenths.
    pub price: Price,
    /// Winner-set size at that price.
    pub winners: usize,
}

impl HindsightQuote {
    /// Uniform-price total payment of the quote.
    pub fn payment(&self) -> Price {
        Price::from_tenths(self.price.tenths() * self.winners as i64)
    }
}

/// One per-arrival decision record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmitReport {
    /// The arriving worker.
    pub worker: WorkerId,
    /// Arrival tick.
    pub at: u64,
    /// The decision taken before the worker departed.
    pub decision: Decision,
    /// Marginal coverage against the mechanism's residual at decision time.
    pub marginal_coverage: f64,
    /// Running hindsight benchmark over the pool seen so far.
    pub hindsight: Option<HindsightQuote>,
}

/// The stage-sampling threshold: what [`ThresholdInfo::learn`] learns from
/// the observed sample and [`ThresholdInfo::admit`] admits by. Absent
/// from the greedy baseline's reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdInfo {
    /// Posted price paid to every admitted worker.
    pub price: Price,
    /// Minimum admissible marginal-coverage-per-price density.
    pub density: f64,
    /// Number of arrivals observed (and rejected) to learn the threshold.
    pub sample_size: usize,
    /// Whether the sample could not cover the requirements and the
    /// mechanism fell back to the most permissive threshold.
    pub fallback: bool,
}

/// The full outcome of one streamed round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineRoundReport {
    /// Mechanism name (`"stage-threshold"` or `"greedy-paybid"`).
    pub mechanism: String,
    /// Per-arrival decisions in arrival order.
    pub decisions: Vec<AdmitReport>,
    /// Admitted workers, ascending by id.
    pub accepted: Vec<WorkerId>,
    /// Sum of all payments made.
    pub total_payment: Price,
    /// Fraction of the total coverage requirement met, in `[0, 1]`.
    pub achieved_coverage: f64,
    /// Whether the requirements were fully met by the admitted set.
    pub covered: bool,
    /// The offline `ScheduleEngine` optimum on the full hindsight instance
    /// (`None` when the full pool itself cannot cover).
    pub offline_payment: Option<Price>,
    /// `total_payment / offline_payment`, defined when the round covered
    /// and the offline optimum exists and is positive.
    pub competitive_ratio: Option<f64>,
    /// The learned threshold, absent for the greedy baseline.
    pub threshold: Option<ThresholdInfo>,
    /// How the hindsight benchmark absorbed each arrival (all zero on the
    /// from-scratch path).
    pub replay: ReplayStats,
    /// Which hindsight pricing path ran.
    pub pricing: PricingPath,
}

impl OnlineRoundReport {
    /// Convenience: the competitive ratio or `NaN` when undefined, for
    /// table rendering.
    pub fn ratio_or_nan(&self) -> f64 {
        self.competitive_ratio.unwrap_or(f64::NAN)
    }

    /// Number of admitted workers.
    pub fn num_accepted(&self) -> usize {
        self.accepted.len()
    }
}
