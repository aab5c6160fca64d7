//! The DP-hSRC auction (Algorithm 1), end to end.

use rand::Rng;

use mcs_types::{Instance, McsError};

use crate::mechanism::{run_scheduled, Mechanism, ScheduledMechanism};
use crate::outcome::AuctionOutcome;
use crate::schedule::SelectionRule;

/// The paper's differentially private hSRC auction.
///
/// One value of ε configures the whole mechanism; everything else comes
/// from the [`Instance`]. The mechanism surface lives on the
/// [`Mechanism`]/[`ScheduledMechanism`] traits: use
/// [`Mechanism::run`] to execute one randomized auction, or
/// [`ScheduledMechanism::pmf`] to obtain the *exact* output distribution —
/// the object that the privacy (Theorem 2), truthfulness (Theorem 3) and
/// payment (Theorem 6) analyses all quantify over.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpHsrcAuction {
    epsilon: f64,
}

impl DpHsrcAuction {
    /// Creates the auction with privacy budget ε.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::InvalidEpsilon`] if `epsilon` is not strictly
    /// positive and finite.
    pub fn new(epsilon: f64) -> Result<Self, McsError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(McsError::InvalidEpsilon { value: epsilon });
        }
        Ok(DpHsrcAuction { epsilon })
    }

    /// The privacy budget ε.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Mechanism for DpHsrcAuction {
    type Input = Instance;
    type Output = AuctionOutcome;

    /// Runs the auction once: builds the schedule, samples a price from the
    /// exponential mechanism, and returns the price with its winner set
    /// (Algorithm 1, lines 16–18).
    fn run<R: Rng + ?Sized>(
        &self,
        instance: &Instance,
        rng: &mut R,
    ) -> Result<AuctionOutcome, McsError> {
        run_scheduled(self, instance, rng)
    }
}

impl ScheduledMechanism for DpHsrcAuction {
    /// Algorithm 1's residual-aware greedy.
    fn selection_rule(&self) -> SelectionRule {
        SelectionRule::MarginalCoverage
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_num::rng;
    use mcs_types::{Bid, Bundle, Price, SkillMatrix, TaskId, TrueType};

    fn instance() -> Instance {
        let bids = vec![
            Bid::new(
                Bundle::new(vec![TaskId(0), TaskId(1)]),
                Price::from_f64(12.0),
            ),
            Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(11.0)),
            Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(14.0)),
            Bid::new(
                Bundle::new(vec![TaskId(0), TaskId(1)]),
                Price::from_f64(18.0),
            ),
        ];
        let skills = SkillMatrix::from_rows(vec![
            vec![0.9, 0.9],
            vec![0.9, 0.5],
            vec![0.5, 0.95],
            vec![0.9, 0.9],
        ])
        .unwrap();
        Instance::builder(2)
            .bids(bids)
            .skills(skills)
            .uniform_error_bound(0.4)
            .price_grid_f64(10.0, 20.0, 0.5)
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
            .build()
            .unwrap()
    }

    #[test]
    fn run_produces_feasible_outcome() {
        let auction = DpHsrcAuction::new(0.1).unwrap();
        let inst = instance();
        let mut r = rng::seeded(1);
        let outcome = auction.run(&inst, &mut r).unwrap();
        assert!(inst.price_grid().contains(outcome.price()));
        let cover = inst.coverage_problem();
        assert!(cover.is_satisfied_by(outcome.winners().iter().copied()));
        // Every winner bid at most the clearing price.
        for &w in outcome.winners() {
            assert!(inst.bids().bid(w).price() <= outcome.price());
        }
    }

    #[test]
    fn individual_rationality_under_truthful_bids() {
        let inst = instance();
        // Truthful types: bids equal true types.
        let types: Vec<TrueType> = inst
            .bids()
            .iter()
            .map(|(_, b)| TrueType::new(b.bundle().clone(), b.price()))
            .collect();
        let auction = DpHsrcAuction::new(0.5).unwrap();
        let mut r = rng::seeded(9);
        for _ in 0..200 {
            let o = auction.run(&inst, &mut r).unwrap();
            assert!(o.is_individually_rational(&types));
        }
    }

    #[test]
    fn sampling_matches_exact_pmf() {
        let inst = instance();
        let auction = DpHsrcAuction::new(2.0).unwrap();
        let pmf = auction.pmf(&inst).unwrap();
        let mut hist = mcs_num::Histogram::new(pmf.schedule().len());
        let mut r = rng::seeded(4);
        let trials = 50_000;
        for _ in 0..trials {
            let o = pmf.sample(&mut r);
            let idx = pmf
                .schedule()
                .prices()
                .iter()
                .position(|&p| p == o.price())
                .unwrap();
            hist.record(idx);
        }
        // L∞ deviation well within Monte-Carlo noise for 50k samples.
        assert!(hist.max_deviation_from(pmf.probs()) < 0.01);
    }

    #[test]
    fn epsilon_controls_concentration() {
        let inst = instance();
        let loose = DpHsrcAuction::new(0.01).unwrap().pmf(&inst).unwrap();
        let tight = DpHsrcAuction::new(50.0).unwrap().pmf(&inst).unwrap();
        // Higher ε concentrates on cheaper prices → lower expected payment.
        assert!(tight.expected_total_payment() <= loose.expected_total_payment() + 1e-9);
        // And strictly so in this instance where payments differ.
        assert!(tight.expected_total_payment() < loose.expected_total_payment());
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = instance();
        let auction = DpHsrcAuction::new(0.1).unwrap();
        let a = auction.run(&inst, &mut rng::seeded(7)).unwrap();
        let b = auction.run(&inst, &mut rng::seeded(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_epsilons_are_reported_not_panicked() {
        for bad in [-0.1, 0.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                DpHsrcAuction::new(bad),
                Err(McsError::InvalidEpsilon { .. })
            ));
        }
    }
}
