//! OMG-style stage sampling: learn a threshold from a rejected prefix,
//! post a price, admit by marginal-coverage density.

use mcs_auction::replay::{greedy_sequence, marginal_coverage, selection_gains};
use mcs_auction::{ExponentialMechanism, ScheduleEngine, SelectionRule};
use mcs_num::rng;
use mcs_types::{CoverageView, Instance, McsError, Price, WorkerId};

use super::report::{
    AdmitReport, Decision, OnlineRoundReport, PricingPath, RejectReason, ThresholdInfo,
};
use super::timeline::ArrivalTimeline;
use super::{round_summary, HindsightTracker, OnlineMechanism, COVER_EPS};

/// Derivation stream for the DP threshold-price draw.
const STREAM_THRESHOLD: u64 = 0x4F4E_4C50; // "ONLP"

/// Density comparisons tolerate this much absolute slack so a worker whose
/// density *equals* the learned threshold (the least dense sample winner
/// re-arriving, say) is admitted, not knife-edge rejected.
const DENSITY_EPS: f64 = 1e-12;

/// The threshold-based stage-sampling online mechanism.
///
/// **Stage 1 (observe).** The first `sample_fraction` of arrivals are
/// observed and rejected — never admitted, never paid. The engine builds
/// the residual schedule of the sample pool; its cheapest feasible price
/// becomes the posted price `p̂`, and the least dense selection-time
/// marginal gain of the sample winner sequence at `p̂` divided by `p̂`
/// becomes the density threshold `ρ̂`.
///
/// **Stage 2 (admit).** Every later arrival bidding at most `p̂` whose
/// marginal coverage per unit of `p̂` is at least `ρ̂` is admitted and paid
/// exactly `p̂`, until the coverage requirements are met.
///
/// Because `p̂` and `ρ̂` depend only on the *sample* (whose members are
/// never paid) and admission depends on a worker's report only through the
/// bid-at-most-`p̂` gate, no worker can raise their payment — or buy
/// admission at better terms — by misreporting cost: the mechanism is
/// truthful in arrival order. The proptests quantify this over seeded
/// arrival permutations.
///
/// With [`StageThreshold::epsilon`] set, `p̂` is instead drawn from the
/// exponential-mechanism PMF over the sample schedule — the same
/// `Pr[p = x] ∝ exp(−ε·x·|S(x)|/(2N·c_max))` channel as the offline
/// auction — making the posted-price channel ε-differentially private in
/// the sample's bid profile. `mcs-verify` checks this exactly.
///
/// With [`StageThreshold::lookahead`] set, stage 1 sees the *whole pool*
/// before `t = 0` and stage 2 admits exactly the offline engine's
/// cheapest-feasible winner set — the degenerate-timeline anchor that must
/// be byte-identical to the offline round. Lookahead ignores `epsilon`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageThreshold {
    sample_fraction: f64,
    lookahead: bool,
    epsilon: Option<f64>,
    pricing: PricingPath,
}

impl Default for StageThreshold {
    fn default() -> Self {
        StageThreshold {
            sample_fraction: 0.25,
            lookahead: false,
            epsilon: None,
            pricing: PricingPath::Incremental,
        }
    }
}

impl StageThreshold {
    /// The default mechanism: 25% observation prefix, deterministic
    /// cheapest-feasible posted price, incremental hindsight pricing.
    pub fn new() -> StageThreshold {
        StageThreshold::default()
    }

    /// Sets the observed (and rejected) prefix fraction, clamped to
    /// `[0, 1]`.
    pub fn sample_fraction(mut self, fraction: f64) -> StageThreshold {
        self.sample_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Lookahead verification mode: the threshold is learned from the
    /// whole pool before `t = 0` and admission mirrors the offline winner
    /// set exactly.
    pub fn lookahead(mut self, on: bool) -> StageThreshold {
        self.lookahead = on;
        self
    }

    /// Draws the posted price from the exponential-mechanism PMF over the
    /// sample schedule instead of taking the cheapest feasible price,
    /// making the price channel ε-DP in the sample bids.
    pub fn epsilon(mut self, epsilon: f64) -> StageThreshold {
        self.epsilon = Some(epsilon);
        self
    }

    /// Selects the hindsight pricing path (incremental replay by default).
    pub fn pricing(mut self, path: PricingPath) -> StageThreshold {
        self.pricing = path;
        self
    }

    fn run_lookahead(
        &self,
        instance: &Instance,
        timeline: &ArrivalTimeline,
    ) -> Result<OnlineRoundReport, McsError> {
        let cover = instance.sparse_coverage();
        let requirements = cover.requirements().to_vec();
        let total_requirement: f64 = requirements.iter().map(|r| r.max(0.0)).sum();

        let engine = ScheduleEngine::new(SelectionRule::MarginalCoverage);
        let offline = engine.build(instance)?;
        let price = offline.price(0);
        let winners = offline.winners(0);
        let offline_payment = offline.min_total_payment();

        // Reconstruct the selection-time density of the least dense winner
        // for the report (the admission rule itself is set membership).
        let candidates: Vec<WorkerId> = (0..instance.num_workers() as u32)
            .map(WorkerId)
            .filter(|&w| instance.bids().bid(w).price() <= price)
            .collect();
        let sequence = greedy_sequence(instance, &requirements, &candidates)?;
        let gains = selection_gains(&cover, &requirements, &sequence);
        let density = if sequence.is_empty() {
            0.0
        } else {
            gains.iter().fold(f64::INFINITY, |m, &g| m.min(g))
                / price.as_f64().max(f64::MIN_POSITIVE)
        };

        let mut tracker = HindsightTracker::new(instance, self.pricing);
        let mut residual = requirements.clone();
        let mut remaining = total_requirement;
        let mut decisions = Vec::with_capacity(timeline.len());
        let mut accepted = Vec::new();
        let mut paid_tenths: i64 = 0;

        for a in timeline.arrivals() {
            let hindsight = tracker.observe(instance, a.worker)?;
            let gain = marginal_coverage(&cover, a.worker, &residual);
            let decision = if winners.binary_search(&a.worker).is_ok() {
                accepted.push(a.worker);
                paid_tenths += price.tenths();
                mcs_auction::replay::apply_coverage(
                    &cover,
                    a.worker,
                    &mut residual,
                    &mut remaining,
                );
                Decision::Accepted { payment: price }
            } else {
                Decision::Rejected(RejectReason::NotSelected)
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
        let (achieved, covered, ratio) =
            round_summary(total_requirement, remaining, total_payment, offline_payment);
        Ok(OnlineRoundReport {
            mechanism: self.name().to_string(),
            decisions,
            accepted,
            total_payment,
            achieved_coverage: achieved,
            covered,
            offline_payment,
            competitive_ratio: ratio,
            threshold: Some(ThresholdInfo {
                price,
                density,
                sample_size: 0,
                fallback: false,
            }),
            replay: tracker.counters(),
            pricing: self.pricing,
        })
    }
}

impl OnlineMechanism for StageThreshold {
    fn name(&self) -> &'static str {
        "stage-threshold"
    }

    fn run(
        &self,
        instance: &Instance,
        timeline: &ArrivalTimeline,
        seed: u64,
    ) -> Result<OnlineRoundReport, McsError> {
        if self.lookahead {
            return self.run_lookahead(instance, timeline);
        }

        let cover = instance.sparse_coverage();
        let requirements = cover.requirements().to_vec();
        let total_requirement: f64 = requirements.iter().map(|r| r.max(0.0)).sum();
        let offline_payment = super::offline_optimum(instance);

        let n = timeline.len();
        let sample_size = ((self.sample_fraction * n as f64).ceil() as usize).min(n);
        let sample_pool: Vec<WorkerId> = timeline.arrivals()[..sample_size]
            .iter()
            .map(|a| a.worker)
            .collect();

        // Stage 1: learn (p̂, ρ̂) from the sample pool alone.
        let engine = ScheduleEngine::new(SelectionRule::MarginalCoverage);
        let learned = engine.build_residual(instance, &requirements, &sample_pool);
        let (price, density, fallback) = match learned {
            Ok(schedule) => {
                let price = match self.epsilon {
                    Some(epsilon) => {
                        let pmf = ExponentialMechanism::for_instance(epsilon, instance)?
                            .pmf(schedule.clone());
                        let mut r = rng::derived(seed, STREAM_THRESHOLD);
                        pmf.sample(&mut r).price()
                    }
                    None => schedule.price(0),
                };
                let candidates: Vec<WorkerId> = sample_pool
                    .iter()
                    .copied()
                    .filter(|&w| instance.bids().bid(w).price() <= price)
                    .collect();
                match greedy_sequence(instance, &requirements, &candidates) {
                    Ok(sequence) if !sequence.is_empty() => {
                        let gains = selection_gains(&cover, &requirements, &sequence);
                        let min_gain = gains.iter().fold(f64::INFINITY, |m, &g| m.min(g));
                        let density = min_gain / price.as_f64().max(f64::MIN_POSITIVE);
                        (price, density, false)
                    }
                    Ok(_) => (price, 0.0, false),
                    Err(_) => (instance.price_grid().max(), 0.0, true),
                }
            }
            // Sample too thin to cover: fall back to the most permissive
            // threshold so the round can still chase coverage.
            Err(_) => (instance.price_grid().max(), 0.0, true),
        };

        // Stage 2: admit by density at the posted price.
        let mut tracker = HindsightTracker::new(instance, self.pricing);
        let mut residual = requirements.clone();
        let mut remaining = total_requirement;
        let mut decisions = Vec::with_capacity(n);
        let mut accepted = Vec::new();
        let mut paid_tenths: i64 = 0;

        for (idx, a) in timeline.arrivals().iter().enumerate() {
            let hindsight = tracker.observe(instance, a.worker)?;
            let gain = marginal_coverage(&cover, a.worker, &residual);
            let bid = instance.bids().bid(a.worker).price();
            let decision = if idx < sample_size {
                Decision::Rejected(RejectReason::SampleObserved)
            } else if remaining <= COVER_EPS {
                Decision::Rejected(RejectReason::CoverageMet)
            } else if bid > price {
                Decision::Rejected(RejectReason::QuoteExceeded)
            } else if gain <= COVER_EPS {
                Decision::Rejected(RejectReason::NotNeeded)
            } else if gain / price.as_f64().max(f64::MIN_POSITIVE) + DENSITY_EPS < density {
                Decision::Rejected(RejectReason::BelowDensity)
            } else {
                accepted.push(a.worker);
                paid_tenths += price.tenths();
                mcs_auction::replay::apply_coverage(
                    &cover,
                    a.worker,
                    &mut residual,
                    &mut remaining,
                );
                Decision::Accepted { payment: price }
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
        let (achieved, covered, ratio) =
            round_summary(total_requirement, remaining, total_payment, offline_payment);
        Ok(OnlineRoundReport {
            mechanism: self.name().to_string(),
            decisions,
            accepted,
            total_payment,
            achieved_coverage: achieved,
            covered,
            offline_payment,
            competitive_ratio: ratio,
            threshold: Some(ThresholdInfo {
                price,
                density,
                sample_size,
                fallback,
            }),
            replay: tracker.counters(),
            pricing: self.pricing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::TimelineConfig;
    use crate::Setting;

    #[test]
    fn lookahead_on_degenerate_timeline_mirrors_the_offline_round() {
        for seed in [3_u64, 17, 92] {
            let instance = Setting::one(80).scaled_down(4).generate(seed).instance;
            let timeline = ArrivalTimeline::degenerate(&instance);
            let report = StageThreshold::new()
                .lookahead(true)
                .run(&instance, &timeline, seed)
                .expect("lookahead run");
            let offline = ScheduleEngine::new(SelectionRule::MarginalCoverage)
                .build(&instance)
                .expect("offline build");
            assert_eq!(report.accepted, offline.winners(0));
            assert_eq!(
                report.total_payment,
                offline.total_payment(0),
                "uniform posted price × winners must match the offline bar"
            );
            assert!(report.covered);
            assert!((report.achieved_coverage - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn incremental_and_from_scratch_hindsight_agree() {
        let instance = Setting::one(80).scaled_down(4).generate(5).instance;
        let timeline = ArrivalTimeline::generate(&instance, &TimelineConfig::default(), 5);
        let a = StageThreshold::new()
            .pricing(PricingPath::Incremental)
            .run(&instance, &timeline, 5)
            .expect("incremental");
        let b = StageThreshold::new()
            .pricing(PricingPath::FromScratch)
            .run(&instance, &timeline, 5)
            .expect("from scratch");
        for (x, y) in a.decisions.iter().zip(&b.decisions) {
            assert_eq!(x.hindsight, y.hindsight, "worker {:?}", x.worker);
            assert_eq!(x.decision, y.decision);
        }
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.total_payment, b.total_payment);
    }

    #[test]
    fn sample_workers_are_never_paid_and_admits_pay_the_posted_price() {
        let instance = Setting::one(80).scaled_down(2).generate(9).instance;
        let timeline = ArrivalTimeline::generate(&instance, &TimelineConfig::default(), 9);
        let report = StageThreshold::new()
            .run(&instance, &timeline, 9)
            .expect("run");
        let info = report.threshold.expect("threshold info");
        for (idx, d) in report.decisions.iter().enumerate() {
            if idx < info.sample_size {
                assert_eq!(d.decision, Decision::Rejected(RejectReason::SampleObserved));
            }
            if let Decision::Accepted { payment } = d.decision {
                assert_eq!(payment, info.price);
            }
        }
        assert_eq!(
            report.total_payment.tenths(),
            info.price.tenths() * report.accepted.len() as i64
        );
    }

    #[test]
    fn dp_price_draw_is_seed_deterministic_and_on_grid() {
        let instance = Setting::one(80).scaled_down(4).generate(21).instance;
        let timeline = ArrivalTimeline::generate(&instance, &TimelineConfig::default(), 21);
        let mech = StageThreshold::new().epsilon(0.5);
        let a = mech.run(&instance, &timeline, 21).expect("run a");
        let b = mech.run(&instance, &timeline, 21).expect("run b");
        assert_eq!(a, b, "same seed, same report");
        let info = a.threshold.expect("threshold");
        assert!(instance.price_grid().contains(info.price));
    }
}
