//! OMG-style stage sampling: learn a threshold from a rejected prefix,
//! post a price, admit by marginal-coverage density.

use mcs_auction::replay::{greedy_sequence, selection_gains};
use mcs_auction::{ExponentialMechanism, ScheduleEngine, SelectionRule};
use mcs_num::rng;
use mcs_types::{CoverageView, Instance, McsError, Price, SparseCoverage, WorkerId};

use super::report::{OnlineRoundReport, PricingPath, RejectReason, ThresholdInfo};
use super::timeline::ArrivalTimeline;
use super::{offline_optimum, run_arrivals, OnlineMechanism, COVER_EPS};

/// Derivation stream for the DP threshold-price draw.
const STREAM_THRESHOLD: u64 = 0x4F4E_4C50; // "ONLP"

/// Density comparisons tolerate this much absolute slack so a worker whose
/// density *equals* the learned threshold (the least dense sample winner
/// re-arriving, say) is admitted, not knife-edge rejected.
const DENSITY_EPS: f64 = 1e-12;

impl ThresholdInfo {
    /// Stage 1: learns the posted price `p̂` and the density bar `ρ̂` from
    /// the workers of `pool` alone, never from anyone outside it.
    ///
    /// The engine builds the residual schedule of `pool` against
    /// `instance`'s requirements. `p̂` is its cheapest feasible price or,
    /// with `epsilon`, a draw seeded by `seed` from the exponential
    /// mechanism over that schedule, normalised by `instance`'s worker
    /// count and cost range. `ρ̂` is the least dense selection-time gain,
    /// per unit of `p̂`, of the greedy winner sequence over the pool
    /// members bidding at most `p̂`. A pool that cannot cover falls back to
    /// the grid maximum with a zero bar, so the round can still chase
    /// coverage.
    ///
    /// # Errors
    ///
    /// [`McsError::InvalidEpsilon`] for an unusable `epsilon` (raised only
    /// when the pool covers, since only then is there a price to draw).
    pub fn learn(
        instance: &Instance,
        pool: &[WorkerId],
        epsilon: Option<f64>,
        seed: u64,
    ) -> Result<ThresholdInfo, McsError> {
        let fallback = ThresholdInfo {
            price: instance.price_grid().max(),
            density: 0.0,
            sample_size: pool.len(),
            fallback: true,
        };
        let cover = instance.sparse_coverage();
        let engine = ScheduleEngine::new(SelectionRule::MarginalCoverage);
        let Ok(schedule) = engine.build_residual(instance, cover.requirements(), pool) else {
            return Ok(fallback);
        };
        let price = match epsilon {
            Some(epsilon) => {
                let mechanism = ExponentialMechanism::for_instance(epsilon, instance)?;
                let mut draw = rng::derived(seed, STREAM_THRESHOLD);
                mechanism.pmf(schedule).sample(&mut draw).price()
            }
            None => schedule.price(0),
        };
        let Ok(density) = least_density(instance, &cover, pool, price) else {
            return Ok(fallback);
        };
        Ok(ThresholdInfo {
            price,
            density,
            fallback: false,
            ..fallback
        })
    }

    /// Stage 2: the admission rule for one arrival bidding `bid` with
    /// marginal coverage `gain`, while `remaining` coverage is still open.
    /// An admitted worker is paid the posted price.
    ///
    /// # Errors
    ///
    /// The first reason, in this order, that turns the arrival away:
    /// coverage already met, bid above the posted price, nothing left to
    /// contribute, or density below the bar.
    pub fn admit(&self, remaining: f64, bid: Price, gain: f64) -> Result<(), RejectReason> {
        if remaining <= COVER_EPS {
            Err(RejectReason::CoverageMet)
        } else if bid > self.price {
            Err(RejectReason::QuoteExceeded)
        } else if gain <= COVER_EPS {
            Err(RejectReason::NotNeeded)
        } else if gain / self.price.as_f64().max(f64::MIN_POSITIVE) + DENSITY_EPS < self.density {
            Err(RejectReason::BelowDensity)
        } else {
            Ok(())
        }
    }
}

/// The least dense selection-time marginal gain, per unit of `price`, of
/// the greedy winner sequence over the members of `pool` bidding at most
/// `price` (zero for an empty sequence).
fn least_density(
    instance: &Instance,
    cover: &SparseCoverage,
    pool: &[WorkerId],
    price: Price,
) -> Result<f64, McsError> {
    let candidates: Vec<WorkerId> = pool
        .iter()
        .copied()
        .filter(|&w| instance.bids().bid(w).price() <= price)
        .collect();
    let sequence = greedy_sequence(instance, cover.requirements(), &candidates)?;
    if sequence.is_empty() {
        return Ok(0.0);
    }
    let gains = selection_gains(cover, cover.requirements(), &sequence);
    let min_gain = gains.iter().fold(f64::INFINITY, |m, &g| m.min(g));
    Ok(min_gain / price.as_f64().max(f64::MIN_POSITIVE))
}

/// The threshold-based stage-sampling online mechanism.
///
/// **Stage 1 (observe).** The first `sample_fraction` of arrivals are
/// observed and rejected — never admitted, never paid — and
/// [`ThresholdInfo::learn`] turns them into the posted price `p̂` and the
/// density threshold `ρ̂`.
///
/// **Stage 2 (admit).** Every later arrival bidding at most `p̂` whose
/// marginal coverage per unit of `p̂` is at least `ρ̂` is admitted and paid
/// exactly `p̂`, until the coverage requirements are met
/// ([`ThresholdInfo::admit`]).
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
        let offline = ScheduleEngine::new(SelectionRule::MarginalCoverage).build(instance)?;
        let price = offline.price(0);
        let winners = offline.winners(0);
        // The selection-time density of the least dense winner, for the
        // report (the admission rule itself is set membership).
        let everyone: Vec<WorkerId> = (0..instance.num_workers() as u32).map(WorkerId).collect();
        let cover = instance.sparse_coverage();
        let threshold = ThresholdInfo {
            price,
            density: least_density(instance, &cover, &everyone, price)?,
            sample_size: 0,
            fallback: false,
        };
        run_arrivals(
            self.name(),
            instance,
            timeline,
            self.pricing,
            offline.min_total_payment(),
            Some(threshold),
            |_, worker, _, _| match winners.binary_search(&worker) {
                Ok(_) => Ok(price),
                Err(_) => Err(RejectReason::NotSelected),
            },
        )
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
        let offline_payment = offline_optimum(instance);
        let n = timeline.len();
        let sample_size = ((self.sample_fraction * n as f64).ceil() as usize).min(n);
        let sample_pool: Vec<WorkerId> = timeline.arrivals()[..sample_size]
            .iter()
            .map(|a| a.worker)
            .collect();
        let threshold = ThresholdInfo::learn(instance, &sample_pool, self.epsilon, seed)?;
        run_arrivals(
            self.name(),
            instance,
            timeline,
            self.pricing,
            offline_payment,
            Some(threshold),
            |idx, worker, remaining, gain| {
                if idx < sample_size {
                    return Err(RejectReason::SampleObserved);
                }
                threshold.admit(remaining, instance.bids().bid(worker).price(), gain)?;
                Ok(threshold.price)
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
