//! The trivial online baseline: admit anyone useful, pay-as-bid.

use mcs_types::{Instance, McsError};

use super::report::{OnlineRoundReport, PricingPath, RejectReason};
use super::timeline::ArrivalTimeline;
use super::{offline_optimum, run_arrivals, OnlineMechanism, COVER_EPS};

/// The greedy pay-as-bid baseline: every arrival contributing positive
/// marginal coverage is admitted at their own bid until the requirements
/// are met. Not truthful (a worker paid their bid gains by overstating)
/// and with no price discipline — the comparator that shows what the
/// learned threshold buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GreedyBaseline {
    pricing: PricingPath,
}

impl GreedyBaseline {
    /// The baseline with incremental hindsight pricing.
    pub fn new() -> GreedyBaseline {
        GreedyBaseline::default()
    }

    /// Selects the hindsight pricing path (incremental replay by default).
    pub fn pricing(mut self, path: PricingPath) -> GreedyBaseline {
        self.pricing = path;
        self
    }
}

impl OnlineMechanism for GreedyBaseline {
    fn name(&self) -> &'static str {
        "greedy-paybid"
    }

    fn run(
        &self,
        instance: &Instance,
        timeline: &ArrivalTimeline,
        _seed: u64,
    ) -> Result<OnlineRoundReport, McsError> {
        let offline_payment = offline_optimum(instance);
        run_arrivals(
            self.name(),
            instance,
            timeline,
            self.pricing,
            offline_payment,
            None,
            |_, worker, remaining, gain| {
                if remaining <= COVER_EPS {
                    Err(RejectReason::CoverageMet)
                } else if gain <= COVER_EPS {
                    Err(RejectReason::NotNeeded)
                } else {
                    Ok(instance.bids().bid(worker).price())
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{Decision, TimelineConfig};
    use crate::Setting;

    #[test]
    fn greedy_covers_whenever_the_full_pool_can() {
        let instance = Setting::one(80).scaled_down(4).generate(13).instance;
        let timeline = ArrivalTimeline::generate(&instance, &TimelineConfig::default(), 13);
        let report = GreedyBaseline::new()
            .run(&instance, &timeline, 13)
            .expect("greedy run");
        if report.offline_payment.is_some() {
            assert!(report.covered, "offline feasible pool must cover greedily");
        }
        // Pay-as-bid: every payment equals the worker's own bid.
        for d in &report.decisions {
            if let Decision::Accepted { payment } = d.decision {
                assert_eq!(payment, instance.bids().bid(d.worker).price());
            }
        }
    }
}
