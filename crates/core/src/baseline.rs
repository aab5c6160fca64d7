//! The §VII-A baseline auction: static-score winner selection with the
//! same exponential price draw.

use rand::Rng;

use mcs_types::{Instance, McsError};

use crate::mechanism::{run_scheduled, Mechanism, ScheduledMechanism};
use crate::outcome::AuctionOutcome;
use crate::schedule::SelectionRule;

/// The paper's baseline comparator.
///
/// For a fixed price `p` it admits workers in descending order of their
/// *static* total informativeness `Σ_j q_ij` until every task's error-bound
/// constraint holds, then draws the final price from the same exponential
/// mechanism as [`DpHsrcAuction`](crate::DpHsrcAuction). It therefore
/// enjoys the identical privacy, truthfulness and rationality guarantees —
/// the only difference is payment efficiency, which is exactly what
/// Figures 1–4 measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineAuction {
    epsilon: f64,
}

impl BaselineAuction {
    /// Creates the baseline auction with privacy budget ε.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::InvalidEpsilon`] if `epsilon` is not strictly
    /// positive and finite.
    pub fn new(epsilon: f64) -> Result<Self, McsError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(McsError::InvalidEpsilon { value: epsilon });
        }
        Ok(BaselineAuction { epsilon })
    }

    /// The privacy budget ε.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Mechanism for BaselineAuction {
    type Input = Instance;
    type Output = AuctionOutcome;

    fn run<R: Rng + ?Sized>(
        &self,
        instance: &Instance,
        rng: &mut R,
    ) -> Result<AuctionOutcome, McsError> {
        run_scheduled(self, instance, rng)
    }
}

impl ScheduledMechanism for BaselineAuction {
    /// The §VII-A static-total rule.
    fn selection_rule(&self) -> SelectionRule {
        SelectionRule::StaticTotal
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DpHsrcAuction;
    use mcs_num::rng;
    use mcs_types::{Bid, Bundle, Price, SkillMatrix, TaskId};

    /// An instance engineered so the static rule wastes winners: a "siren"
    /// worker with a huge static total that contributes mostly surplus.
    fn siren_instance() -> Instance {
        // Tasks 0..4. Worker 0 (siren) is brilliant at tasks 0–2, which are
        // also covered cheaply by specialists; tasks 3–4 need dedicated
        // workers. Requirements are low (δ = 0.7 → Q ≈ 0.713, so one
        // θ = 0.95 worker covers a task alone) — the static rule burns
        // winners on already-covered tasks, the marginal rule does not.
        let all = |t: &[u32]| Bundle::new(t.iter().copied().map(TaskId).collect());
        let bids = vec![
            Bid::new(all(&[0, 1, 2]), Price::from_f64(10.0)), // siren
            Bid::new(all(&[0]), Price::from_f64(10.5)),
            Bid::new(all(&[1]), Price::from_f64(10.5)),
            Bid::new(all(&[2]), Price::from_f64(10.5)),
            Bid::new(all(&[3]), Price::from_f64(11.0)),
            Bid::new(all(&[4]), Price::from_f64(11.0)),
            Bid::new(all(&[3, 4]), Price::from_f64(11.5)),
        ];
        let skills = SkillMatrix::from_rows(vec![
            vec![0.95, 0.95, 0.95, 0.5, 0.5],
            vec![0.95, 0.5, 0.5, 0.5, 0.5],
            vec![0.5, 0.95, 0.5, 0.5, 0.5],
            vec![0.5, 0.5, 0.95, 0.5, 0.5],
            vec![0.5, 0.5, 0.5, 0.95, 0.5],
            vec![0.5, 0.5, 0.5, 0.5, 0.95],
            vec![0.5, 0.5, 0.5, 0.9, 0.9],
        ])
        .unwrap();
        Instance::builder(5)
            .bids(bids)
            .skills(skills)
            .uniform_error_bound(0.7)
            .price_grid_f64(10.0, 15.0, 0.5)
            .cost_range(Price::from_f64(10.0), Price::from_f64(15.0))
            .build()
            .unwrap()
    }

    #[test]
    fn baseline_run_is_feasible() {
        let inst = siren_instance();
        let auction = BaselineAuction::new(0.1).unwrap();
        let mut r = rng::seeded(2);
        let o = auction.run(&inst, &mut r).unwrap();
        let cover = inst.coverage_problem();
        assert!(cover.is_satisfied_by(o.winners().iter().copied()));
        for &w in o.winners() {
            assert!(inst.bids().bid(w).price() <= o.price());
        }
    }

    #[test]
    fn dp_hsrc_never_pays_more_in_expectation_here() {
        let inst = siren_instance();
        let dp = DpHsrcAuction::new(0.1).unwrap().pmf(&inst).unwrap();
        let base = BaselineAuction::new(0.1).unwrap().pmf(&inst).unwrap();
        assert!(
            dp.expected_total_payment() <= base.expected_total_payment() + 1e-9,
            "dp {} vs baseline {}",
            dp.expected_total_payment(),
            base.expected_total_payment()
        );
    }

    #[test]
    fn winner_cardinality_gap_exists_at_some_price() {
        // The mechanism-level payment gap must come from smaller winner
        // sets at matching prices.
        let inst = siren_instance();
        let dp = DpHsrcAuction::new(0.1).unwrap().schedule(&inst).unwrap();
        let base = BaselineAuction::new(0.1).unwrap().schedule(&inst).unwrap();
        assert_eq!(dp.prices(), base.prices());
        let mut strictly_smaller_somewhere = false;
        for i in 0..dp.len() {
            assert!(dp.winners(i).len() <= base.winners(i).len());
            if dp.winners(i).len() < base.winners(i).len() {
                strictly_smaller_somewhere = true;
            }
        }
        assert!(
            strictly_smaller_somewhere,
            "expected the greedy rule to beat the static rule on this instance"
        );
    }

    #[test]
    fn both_mechanisms_share_support() {
        let inst = siren_instance();
        let dp = DpHsrcAuction::new(0.1).unwrap().pmf(&inst).unwrap();
        let base = BaselineAuction::new(0.1).unwrap().pmf(&inst).unwrap();
        assert_eq!(dp.schedule().prices(), base.schedule().prices());
    }

    #[test]
    fn nan_epsilon_rejected() {
        assert!(matches!(
            BaselineAuction::new(f64::NAN),
            Err(McsError::InvalidEpsilon { .. })
        ));
    }
}
