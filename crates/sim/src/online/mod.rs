//! Streaming online auctions: arrival timelines, online mechanisms and
//! competitive-ratio accounting against the offline optimum.
//!
//! The paper's DP-hSRC auction is one-shot — every bid is known before
//! selection. This module is the online variant the related work studies
//! (OMG, arXiv 1306.5677; Han et al., arXiv 1308.4501): workers arrive
//! over an [`ArrivalTimeline`] and the platform must accept, reject and
//! price each one before departure, with no knowledge of future arrivals.
//!
//! * [`ArrivalTimeline`] — the seeded arrival/departure workload over an
//!   existing [`Instance`], with a [`ArrivalTimeline::degenerate`] anchor
//!   (everyone at `t = 0`) for differential verification.
//! * [`OnlineMechanism`] — the trait: consume a timeline, emit one
//!   [`AdmitReport`] per arrival and a final [`OnlineRoundReport`].
//! * [`StageThreshold`] — OMG-style stage sampling: observe a prefix,
//!   learn a density threshold and posted price from it, then admit any
//!   later arrival whose marginal-coverage-per-price beats the threshold,
//!   paying the posted price (so reports stay truthful).
//! * [`GreedyBaseline`] — admit anyone useful, pay-as-bid; the naive
//!   comparator.
//! * [`ThresholdInfo`] — the learned threshold, and the one implementation
//!   of both stages: [`ThresholdInfo::learn`] (stage 1) and
//!   [`ThresholdInfo::admit`] (stage 2). `mcs-service`'s streaming
//!   sessions run the same two methods, over an instance of the sample
//!   alone.
//!
//! Both mechanisms run one arrival loop and differ only in the admission
//! decision they hand it.
//!
//! Every run also maintains the *hindsight benchmark*: after each arrival,
//! the cheapest feasible uniform grid price over everyone seen so far.
//! The default [`PricingPath::Incremental`] path maintains it with
//! [`mcs_auction::OnlinePricer`]'s warm-started winner-sequence replay
//! (PR 5 machinery) in amortized sub-linear time per arrival;
//! [`PricingPath::FromScratch`] rebuilds the residual schedule per arrival
//! and exists as the bench baseline. Both are observationally identical.
//!
//! # Example
//!
//! ```
//! use mcs_sim::online::{ArrivalTimeline, OnlineMechanism, StageThreshold, TimelineConfig};
//! use mcs_sim::Setting;
//!
//! let instance = Setting::one(80).scaled_down(4).generate(11).instance;
//! let timeline = ArrivalTimeline::generate(&instance, &TimelineConfig::default(), 11);
//! let report = StageThreshold::new().run(&instance, &timeline, 11).unwrap();
//! assert_eq!(report.decisions.len(), timeline.len());
//! if let Some(ratio) = report.competitive_ratio {
//!     assert!(ratio.is_finite() && ratio > 0.0);
//! }
//! ```

mod greedy;
mod report;
mod threshold;
mod timeline;

pub use greedy::GreedyBaseline;
pub use report::{
    AdmitReport, Decision, HindsightQuote, OnlineRoundReport, PricingPath, RejectReason,
    ThresholdInfo,
};
pub use threshold::StageThreshold;
pub use timeline::{Arrival, ArrivalTimeline, TimelineConfig};

use mcs_auction::replay::{apply_coverage, marginal_coverage};
use mcs_auction::{OnlinePricer, ReplayStats, ScheduleEngine, SelectionRule};
use mcs_types::{CoverageView, Instance, McsError, Price, WorkerId};

/// Matches the engines' coverage slack (`mcs-auction`'s `COVER_EPS`).
pub(crate) const COVER_EPS: f64 = 1e-9;

/// An online admission mechanism over a streamed arrival timeline.
pub trait OnlineMechanism {
    /// Stable mechanism name used in reports and tables.
    fn name(&self) -> &'static str;

    /// Runs the mechanism over one timeline. Deterministic given
    /// `(instance, timeline, seed)`.
    fn run(
        &self,
        instance: &Instance,
        timeline: &ArrivalTimeline,
        seed: u64,
    ) -> Result<OnlineRoundReport, McsError>;
}

/// The offline benchmark: minimum uniform-price total payment of the full
/// hindsight instance under Algorithm 1's engine (`None` when even the
/// full pool cannot cover the requirements).
pub fn offline_optimum(instance: &Instance) -> Option<Price> {
    ScheduleEngine::new(SelectionRule::MarginalCoverage)
        .build(instance)
        .ok()
        .and_then(|s| s.min_total_payment())
}

/// Maintains the running hindsight quote over the arrived pool, either
/// incrementally (PR 5 replay) or from scratch per arrival.
pub(crate) struct HindsightTracker {
    path: PricingPath,
    pricer: OnlinePricer,
    engine: ScheduleEngine,
    requirements: Vec<f64>,
    arrived: Vec<WorkerId>,
    seen: Vec<bool>,
    last: Option<HindsightQuote>,
}

impl HindsightTracker {
    pub(crate) fn new(instance: &Instance, path: PricingPath) -> HindsightTracker {
        let pricer = OnlinePricer::new(instance);
        let cover = instance.sparse_coverage();
        HindsightTracker {
            path,
            pricer,
            engine: ScheduleEngine::new(SelectionRule::MarginalCoverage),
            requirements: cover.requirements().to_vec(),
            arrived: Vec::new(),
            seen: vec![false; instance.num_workers()],
            last: None,
        }
    }

    /// Absorbs one arrival and returns the updated quote. Re-arrivals of a
    /// worker already seen leave the quote unchanged.
    pub(crate) fn observe(
        &mut self,
        instance: &Instance,
        w: WorkerId,
    ) -> Result<Option<HindsightQuote>, McsError> {
        let idx = w.0 as usize;
        if idx >= self.seen.len() {
            return Err(McsError::WorkerOutOfRange {
                worker: w,
                num_workers: self.seen.len(),
            });
        }
        if self.seen[idx] {
            return Ok(self.last);
        }
        self.seen[idx] = true;
        let quote = match self.path {
            PricingPath::Incremental => self.pricer.push(w)?.map(|q| HindsightQuote {
                price: q.price,
                winners: q.winners,
            }),
            PricingPath::FromScratch => {
                self.arrived.push(w);
                self.engine
                    .build_residual(instance, &self.requirements, &self.arrived)
                    .ok()
                    .map(|s| HindsightQuote {
                        price: s.price(0),
                        winners: s.winners(0).len(),
                    })
            }
        };
        self.last = quote;
        Ok(quote)
    }

    /// Replay counters (zero for the from-scratch path).
    pub(crate) fn counters(&self) -> ReplayStats {
        match self.path {
            PricingPath::Incremental => self.pricer.stats(),
            PricingPath::FromScratch => ReplayStats::default(),
        }
    }
}

/// The arrival loop of every online mechanism. Each arrival is absorbed
/// into the hindsight benchmark, then `decide(index, worker, remaining,
/// gain)` takes the admission decision from the arrival's position in the
/// timeline, the coverage deficit still open and the worker's marginal
/// coverage against the residual: `Ok(payment)` admits the worker, whose
/// coverage is then applied. The round ends with its coverage and
/// competitive-ratio accounting against `offline_payment`.
pub(crate) fn run_arrivals(
    mechanism: &str,
    instance: &Instance,
    timeline: &ArrivalTimeline,
    pricing: PricingPath,
    offline_payment: Option<Price>,
    threshold: Option<ThresholdInfo>,
    mut decide: impl FnMut(usize, WorkerId, f64, f64) -> Result<Price, RejectReason>,
) -> Result<OnlineRoundReport, McsError> {
    let cover = instance.sparse_coverage();
    let mut residual = cover.requirements().to_vec();
    let total_requirement: f64 = residual.iter().map(|r| r.max(0.0)).sum();
    let mut remaining = total_requirement;
    let mut tracker = HindsightTracker::new(instance, pricing);
    let mut decisions = Vec::with_capacity(timeline.len());
    let mut accepted = Vec::new();
    let mut paid_tenths: i64 = 0;

    for (idx, a) in timeline.arrivals().iter().enumerate() {
        let hindsight = tracker.observe(instance, a.worker)?;
        let gain = marginal_coverage(&cover, a.worker, &residual);
        let decision = match decide(idx, a.worker, remaining, gain) {
            Ok(payment) => {
                accepted.push(a.worker);
                paid_tenths += payment.tenths();
                apply_coverage(&cover, a.worker, &mut residual, &mut remaining);
                Decision::Accepted { payment }
            }
            Err(reason) => Decision::Rejected(reason),
        };
        decisions.push(AdmitReport {
            worker: a.worker,
            at: a.at,
            decision,
            marginal_coverage: gain,
            hindsight,
        });
    }

    accepted.sort_unstable();
    let total_payment = Price::from_tenths(paid_tenths);
    let covered = remaining <= COVER_EPS;
    let achieved_coverage = if total_requirement <= COVER_EPS {
        1.0
    } else {
        (1.0 - remaining / total_requirement).clamp(0.0, 1.0)
    };
    let competitive_ratio = match offline_payment {
        Some(off) if covered && off.tenths() > 0 => Some(total_payment.as_f64() / off.as_f64()),
        _ => None,
    };
    Ok(OnlineRoundReport {
        mechanism: mechanism.to_string(),
        decisions,
        accepted,
        total_payment,
        achieved_coverage,
        covered,
        offline_payment,
        competitive_ratio,
        threshold,
        replay: tracker.counters(),
        pricing,
    })
}
