//! Multi-minded (XOR-bid) extension of the DP-hSRC auction.
//!
//! Definition 1 of the paper actually defines the hSRC auction with a
//! *set* of possible bundles per worker, `T_i = {Γ_i,1, …, Γ_i,K_i}`, each
//! with its own cost `c_i,k` — and then specializes to the single-minded
//! case where only one bundle is of interest. This module implements the
//! general form: every worker submits an XOR bid (several bundle options,
//! each with a price), the mechanism selects **at most one option per
//! worker**, and the exponential price draw is unchanged.
//!
//! The privacy argument carries over verbatim: a worker's whole XOR bid is
//! one "row" of the profile, changing it still changes each winner set's
//! cardinality by at most `N`, so the `exp(−ε·x·|S(x)| / 2Nc_max)` scoring
//! remains ε-differentially private. Selection is the same marginal-
//! coverage greedy over *(worker, option)* pairs, with all of a worker's
//! other options retired the moment one of them wins.

use rand::Rng;

use mcs_num::softmax_from_logits;
use mcs_types::{Bid, Instance, McsError, Price, PriceGrid, SkillMatrix, TaskId, WorkerId};

use crate::mechanism::Mechanism;

/// Residual coverage below this threshold counts as satisfied.
const COVER_EPS: f64 = 1e-9;

/// One worker's XOR bid: mutually exclusive bundle options.
#[derive(Debug, Clone, PartialEq)]
pub struct XorBid {
    options: Vec<Bid>,
}

impl XorBid {
    /// Creates an XOR bid from bundle options.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::EmptyBundle`] (attributed to worker 0 as a
    /// placeholder — instance validation re-checks with real ids) if no
    /// options are given or any option has an empty bundle.
    pub fn new(options: Vec<Bid>) -> Result<Self, McsError> {
        if options.is_empty() || options.iter().any(|b| b.bundle().is_empty()) {
            return Err(McsError::EmptyBundle {
                worker: WorkerId(0),
            });
        }
        Ok(XorBid { options })
    }

    /// A single-minded bid, for mixing single- and multi-minded workers.
    pub fn single(bid: Bid) -> Self {
        XorBid { options: vec![bid] }
    }

    /// The bundle options.
    #[inline]
    pub fn options(&self) -> &[Bid] {
        &self.options
    }

    /// The cheapest option price (the worker's entry threshold).
    pub fn min_price(&self) -> Price {
        self.options
            .iter()
            .map(Bid::price)
            .min()
            .expect("XorBid is never empty")
    }
}

/// A multi-minded auction instance.
///
/// Unlike [`Instance`] this is defined directly over XOR bids; skills,
/// error bounds, grid and cost range have the same meaning.
#[derive(Debug, Clone, PartialEq)]
pub struct XorInstance {
    num_tasks: usize,
    bids: Vec<XorBid>,
    skills: SkillMatrix,
    deltas: Vec<f64>,
    price_grid: PriceGrid,
    cmin: Price,
    cmax: Price,
}

/// One selected option: which worker executes which of her bundles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Award {
    /// The winning worker.
    pub worker: WorkerId,
    /// Index into her [`XorBid::options`].
    pub option: usize,
}

/// The multi-minded auction outcome: a clearing price and one award per
/// winner.
#[derive(Debug, Clone, PartialEq)]
pub struct XorOutcome {
    /// The clearing price.
    pub price: Price,
    /// Winner awards, ascending by worker id.
    pub awards: Vec<Award>,
}

impl XorOutcome {
    /// The platform's total payment `p · |S|`.
    pub fn total_payment(&self) -> Price {
        self.price * self.awards.len()
    }
}

impl XorInstance {
    /// Builds and validates a multi-minded instance.
    ///
    /// # Errors
    ///
    /// Mirrors [`Instance`] validation: dimension mismatches, out-of-range
    /// bundles or option prices, empty option lists, invalid `δ_j`.
    pub fn new(
        num_tasks: usize,
        bids: Vec<XorBid>,
        skills: SkillMatrix,
        deltas: Vec<f64>,
        price_grid: PriceGrid,
        cmin: Price,
        cmax: Price,
    ) -> Result<Self, McsError> {
        if cmax < cmin {
            return Err(McsError::InvalidCostRange { cmin, cmax });
        }
        if skills.num_workers() != bids.len() {
            return Err(McsError::DimensionMismatch {
                what: "skill matrix workers",
                expected: bids.len(),
                actual: skills.num_workers(),
            });
        }
        if skills.num_tasks() != num_tasks {
            return Err(McsError::DimensionMismatch {
                what: "skill matrix tasks",
                expected: num_tasks,
                actual: skills.num_tasks(),
            });
        }
        if deltas.len() != num_tasks {
            return Err(McsError::DimensionMismatch {
                what: "error bound vector",
                expected: num_tasks,
                actual: deltas.len(),
            });
        }
        Instance::check_error_bounds(&deltas)?;
        for (i, xb) in bids.iter().enumerate() {
            let w = WorkerId(i as u32);
            if xb.options.is_empty() {
                return Err(McsError::EmptyBundle { worker: w });
            }
            for bid in &xb.options {
                if bid.bundle().is_empty() {
                    return Err(McsError::EmptyBundle { worker: w });
                }
                if !bid.bundle().within_task_count(num_tasks) {
                    return Err(McsError::BundleOutOfRange {
                        worker: w,
                        num_tasks,
                    });
                }
                if bid.price() < cmin || bid.price() > cmax {
                    return Err(McsError::InvalidCostRange { cmin, cmax });
                }
            }
        }
        Ok(XorInstance {
            num_tasks,
            bids,
            skills,
            deltas,
            price_grid,
            cmin,
            cmax,
        })
    }

    /// Number of workers.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.bids.len()
    }

    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// The XOR bid profile.
    #[inline]
    pub fn bids(&self) -> &[XorBid] {
        &self.bids
    }

    /// Coverage weight of one option for one task (0 outside its bundle).
    fn q(&self, worker: WorkerId, option: usize, task: TaskId) -> f64 {
        if self.bids[worker.index()].options[option]
            .bundle()
            .contains(task)
        {
            self.skills.q(worker, task)
        } else {
            0.0
        }
    }

    /// Requirement vector `Q_j = 2 ln(1/δ_j)`.
    fn requirements(&self) -> Vec<f64> {
        self.deltas.iter().map(|&d| 2.0 * (1.0 / d).ln()).collect()
    }
}

/// The multi-minded DP-hSRC auction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XorDpHsrcAuction {
    epsilon: f64,
}

impl XorDpHsrcAuction {
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
        Ok(XorDpHsrcAuction { epsilon })
    }

    /// The privacy budget ε.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Greedy selection over `(worker, option)` pairs among options priced
    /// at most `p`. Returns `None` when the eligible options cannot cover.
    fn select_at(&self, instance: &XorInstance, p: Price) -> Option<Vec<Award>> {
        let reqs = instance.requirements();
        let mut residual = reqs;
        let mut remaining: f64 = residual.iter().sum();
        let mut taken = vec![false; instance.num_workers()];
        let mut awards: Vec<Award> = Vec::new();

        // Feasibility pre-check: best-per-task coverage if every worker
        // contributed her best eligible option... must be conservative:
        // a worker contributes at most max over options; sum those.
        for (j, res) in residual.iter().enumerate() {
            let t = TaskId(j as u32);
            let attainable: f64 = (0..instance.num_workers())
                .map(|i| {
                    let w = WorkerId(i as u32);
                    instance.bids()[i]
                        .options
                        .iter()
                        .enumerate()
                        .filter(|(_, b)| b.price() <= p)
                        .map(|(k, _)| instance.q(w, k, t))
                        .fold(0.0, f64::max)
                })
                .sum();
            if attainable < *res - COVER_EPS {
                return None;
            }
        }

        while remaining > COVER_EPS {
            // Ties break toward the cheaper option, then the smaller
            // worker id — matching the single-minded greedy, whose
            // candidates are scanned in (price, id) order.
            let mut best: Option<(Award, f64, Price)> = None;
            for (i, &is_taken) in taken.iter().enumerate() {
                if is_taken {
                    continue;
                }
                let w = WorkerId(i as u32);
                for (k, bid) in instance.bids()[i].options.iter().enumerate() {
                    if bid.price() > p {
                        continue;
                    }
                    let gain: f64 = bid
                        .bundle()
                        .iter()
                        .map(|t| instance.skills.q(w, t).min(residual[t.index()].max(0.0)))
                        .sum();
                    if gain <= COVER_EPS {
                        continue;
                    }
                    let better = match &best {
                        None => true,
                        Some((ba, bg, bp)) => {
                            gain > *bg
                                || (gain == *bg
                                    && (bid.price() < *bp || (bid.price() == *bp && w < ba.worker)))
                        }
                    };
                    if better {
                        best = Some((
                            Award {
                                worker: w,
                                option: k,
                            },
                            gain,
                            bid.price(),
                        ));
                    }
                }
            }
            let (award, _, _) = best?;
            taken[award.worker.index()] = true;
            let bid = &instance.bids()[award.worker.index()].options[award.option];
            for t in bid.bundle().iter() {
                let take = instance
                    .skills
                    .q(award.worker, t)
                    .min(residual[t.index()].max(0.0));
                residual[t.index()] -= take;
                remaining -= take;
            }
            awards.push(award);
        }
        awards.sort_by_key(|a| a.worker);
        Some(awards)
    }
}

impl Mechanism for XorDpHsrcAuction {
    type Input = XorInstance;
    type Output = XorOutcome;

    /// Runs the auction: per-price greedy award sets, exponential price
    /// draw, one award per winner.
    ///
    /// # Errors
    ///
    /// [`McsError::NoFeasiblePrice`] when no grid price admits a covering
    /// award set.
    fn run<R: Rng + ?Sized>(
        &self,
        instance: &XorInstance,
        rng: &mut R,
    ) -> Result<XorOutcome, McsError> {
        // Award sets change only at option prices; compute per grid price
        // directly (the option-price interval compression is analogous to
        // the single-minded case but the price set here is small enough in
        // the extension's intended use).
        let mut prices = Vec::new();
        let mut award_sets = Vec::new();
        for p in instance.price_grid.iter() {
            if let Some(awards) = self.select_at(instance, p) {
                prices.push(p);
                award_sets.push(awards);
            }
        }
        if prices.is_empty() {
            return Err(McsError::NoFeasiblePrice {
                required_price: instance.cmax,
                grid_max: instance.price_grid.max(),
            });
        }
        let n = instance.num_workers() as f64;
        let cmax = instance.cmax.as_f64();
        let logits: Vec<f64> = prices
            .iter()
            .zip(&award_sets)
            .map(|(p, awards)| {
                -self.epsilon * (p.as_f64() * awards.len() as f64) / (2.0 * n * cmax)
            })
            .collect();
        let probs = softmax_from_logits(&logits);
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut idx = probs.len() - 1;
        for (i, pr) in probs.iter().enumerate() {
            acc += pr;
            if u < acc {
                idx = i;
                break;
            }
        }
        Ok(XorOutcome {
            price: prices[idx],
            awards: award_sets[idx].clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_num::rng;
    use mcs_types::Bundle;

    fn grid() -> PriceGrid {
        PriceGrid::from_f64(10.0, 20.0, 0.5).unwrap()
    }

    fn bundle(tasks: &[u32]) -> Bundle {
        Bundle::new(tasks.iter().copied().map(TaskId).collect())
    }

    /// Three workers over two tasks; worker 0 offers either task alone or
    /// both together at a discount.
    fn instance() -> XorInstance {
        let bids = vec![
            XorBid::new(vec![
                Bid::new(bundle(&[0]), Price::from_f64(11.0)),
                Bid::new(bundle(&[1]), Price::from_f64(11.0)),
                Bid::new(bundle(&[0, 1]), Price::from_f64(13.0)),
            ])
            .unwrap(),
            XorBid::single(Bid::new(bundle(&[0]), Price::from_f64(12.0))),
            XorBid::single(Bid::new(bundle(&[1]), Price::from_f64(12.5))),
        ];
        let skills =
            SkillMatrix::from_rows(vec![vec![0.95, 0.95], vec![0.95, 0.5], vec![0.5, 0.95]])
                .unwrap();
        XorInstance::new(
            2,
            bids,
            skills,
            vec![0.7, 0.7], // Q ≈ 0.713 < q(0.95) = 0.81: one good option covers
            grid(),
            Price::from_f64(10.0),
            Price::from_f64(20.0),
        )
        .unwrap()
    }

    #[test]
    fn at_most_one_option_per_worker() {
        let inst = instance();
        let auction = XorDpHsrcAuction::new(0.5).unwrap();
        let mut r = rng::seeded(3);
        for _ in 0..50 {
            let out = auction.run(&inst, &mut r).unwrap();
            let mut seen = std::collections::HashSet::new();
            for a in &out.awards {
                assert!(seen.insert(a.worker), "worker awarded twice");
                assert!(a.option < inst.bids()[a.worker.index()].options().len());
                // The chosen option's price respects the clearing price.
                assert!(inst.bids()[a.worker.index()].options()[a.option].price() <= out.price);
            }
        }
    }

    #[test]
    fn awarded_bundles_cover_all_tasks() {
        let inst = instance();
        let auction = XorDpHsrcAuction::new(0.5).unwrap();
        let mut r = rng::seeded(5);
        let out = auction.run(&inst, &mut r).unwrap();
        let reqs = inst.requirements();
        for (j, req) in reqs.iter().enumerate() {
            let t = TaskId(j as u32);
            let covered: f64 = out
                .awards
                .iter()
                .map(|a| inst.q(a.worker, a.option, t))
                .sum();
            assert!(covered >= req - 1e-9, "task {j} uncovered");
        }
    }

    #[test]
    fn bundle_discount_option_wins_when_it_covers_alone() {
        // At low prices only worker 0's combined option (13.0) covers both
        // tasks with a single award. Force p = 13.0 by narrowing the grid.
        let mut inst = instance();
        inst.price_grid = PriceGrid::from_f64(13.0, 13.0, 0.5).unwrap();
        let auction = XorDpHsrcAuction::new(0.5).unwrap();
        let mut r = rng::seeded(1);
        let out = auction.run(&inst, &mut r).unwrap();
        assert_eq!(out.price, Price::from_f64(13.0));
        // One award (the XOR package) suffices.
        assert_eq!(out.awards.len(), 1);
        assert_eq!(out.awards[0].worker, WorkerId(0));
        assert_eq!(out.awards[0].option, 2);
    }

    #[test]
    fn single_minded_special_case_matches_dp_hsrc_cardinalities() {
        // When every XOR bid has exactly one option, the award sets match
        // the single-minded greedy's winner sets.
        use crate::engine::ScheduleEngine;
        use crate::schedule::SelectionRule;
        use mcs_types::Instance;

        let bids = vec![
            Bid::new(bundle(&[0]), Price::from_f64(11.0)),
            Bid::new(bundle(&[0]), Price::from_f64(12.0)),
            Bid::new(bundle(&[1]), Price::from_f64(12.5)),
            Bid::new(bundle(&[0, 1]), Price::from_f64(14.0)),
        ];
        let skills = SkillMatrix::from_rows(vec![
            vec![0.9, 0.5],
            vec![0.9, 0.5],
            vec![0.5, 0.9],
            vec![0.9, 0.9],
        ])
        .unwrap();
        let single = Instance::builder(2)
            .bids(bids.clone())
            .skills(skills.clone())
            .uniform_error_bound(0.55)
            .price_grid_f64(10.0, 20.0, 0.5)
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
            .build()
            .unwrap();
        let schedule = ScheduleEngine::new(SelectionRule::MarginalCoverage)
            .build(&single)
            .unwrap();

        let xor = XorInstance::new(
            2,
            bids.into_iter().map(XorBid::single).collect(),
            skills,
            vec![0.55, 0.55],
            grid(),
            Price::from_f64(10.0),
            Price::from_f64(20.0),
        )
        .unwrap();
        let auction = XorDpHsrcAuction::new(0.5).unwrap();
        for (i, &p) in schedule.prices().iter().enumerate() {
            let awards = auction.select_at(&xor, p).expect("feasible price");
            let workers: Vec<WorkerId> = awards.iter().map(|a| a.worker).collect();
            assert_eq!(workers, schedule.winners(i), "at price {p}");
        }
    }

    #[test]
    fn validation_catches_bad_inputs() {
        assert!(XorBid::new(vec![]).is_err());
        assert!(XorBid::new(vec![Bid::new(Bundle::empty(), Price::from_f64(10.0))]).is_err());
        let inst = XorInstance::new(
            1,
            vec![XorBid::single(Bid::new(
                bundle(&[5]),
                Price::from_f64(10.0),
            ))],
            SkillMatrix::from_rows(vec![vec![0.9]]).unwrap(),
            vec![0.5],
            grid(),
            Price::from_f64(10.0),
            Price::from_f64(20.0),
        );
        assert!(matches!(inst, Err(McsError::BundleOutOfRange { .. })));
        let inst = XorInstance::new(
            1,
            vec![XorBid::single(Bid::new(
                bundle(&[0]),
                Price::from_f64(25.0),
            ))],
            SkillMatrix::from_rows(vec![vec![0.9]]).unwrap(),
            vec![0.5],
            grid(),
            Price::from_f64(10.0),
            Price::from_f64(20.0),
        );
        assert!(matches!(inst, Err(McsError::InvalidCostRange { .. })));
    }

    #[test]
    fn infeasible_grid_reports_no_feasible_price() {
        let inst = XorInstance::new(
            1,
            vec![XorBid::single(Bid::new(
                bundle(&[0]),
                Price::from_f64(11.0),
            ))],
            SkillMatrix::from_rows(vec![vec![0.6]]).unwrap(), // q = 0.04
            vec![0.5],                                        // Q ≈ 1.39
            grid(),
            Price::from_f64(10.0),
            Price::from_f64(20.0),
        )
        .unwrap();
        let auction = XorDpHsrcAuction::new(0.5).unwrap();
        let mut r = rng::seeded(2);
        assert!(matches!(
            auction.run(&inst, &mut r),
            Err(McsError::NoFeasiblePrice { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = instance();
        let auction = XorDpHsrcAuction::new(0.1).unwrap();
        let a = auction.run(&inst, &mut rng::seeded(11)).unwrap();
        let b = auction.run(&inst, &mut rng::seeded(11)).unwrap();
        assert_eq!(a, b);
    }
}
