//! Warm-started winner-sequence replay over a *growing* worker pool — the
//! online recompute path.
//!
//! The offline engines answer "what is the winner schedule of this fixed
//! pool?". Streaming workloads ask a different question at every arrival:
//! *given the workers seen so far, what is the cheapest uniform clearing
//! price on the grid, and who would win at it?* Rebuilding the residual
//! schedule from scratch per arrival costs a full greedy selection each
//! time. [`OnlinePricer`] instead maintains the answer incrementally with
//! the same replay machinery the ascending price sweep (PR 5) uses across
//! price intervals, applied across *time*:
//!
//! * Arrivals bidding **above** the current quote cannot move the covering
//!   prefix or join the candidate set — `O(log n)` bookkeeping, no
//!   selection work at all.
//! * Arrivals joining the candidate set replay the incumbent winner
//!   sequence against the single newcomer; when no step prefers the
//!   newcomer (rank-aware, so exact ties resolve exactly as the engine's
//!   CELF heap would), the sequence is confirmed unchanged.
//! * Only when the replay diverges — or the quote itself drops — does the
//!   greedy rerun, warm-seeded from cached initial gains, through the
//!   engines' one lazy greedy (the sweep's CELF heap and dense finish).
//!
//! The maintained quote is **bit-identical** to
//! `ScheduleEngine::build_residual(instance, requirements, pool)`'s first
//! feasible grid price and winner set; `mcs-verify` checks this
//! differentially and the unit tests below pin it per arrival.

use mcs_types::{CoverageView, Instance, McsError, Price, PriceGrid, SparseCoverage, WorkerId};
use serde::{Deserialize, Serialize};

use crate::schedule::{apply_winner, celf_sequence, marginal_gain, COVER_EPS};

/// The marginal coverage `Σ_j min(Q'_j, q_ij)` of one worker against a
/// residual requirement vector — the single shared implementation every
/// engine uses, re-exported for online consumers so streamed decisions are
/// bit-for-bit comparable with offline builds.
#[inline]
pub fn marginal_coverage(cover: &SparseCoverage, worker: WorkerId, residual: &[f64]) -> f64 {
    marginal_gain(cover, worker, residual)
}

/// Applies one accepted worker to a residual requirement vector,
/// decrementing the running total deficit — the same accumulation order as
/// the offline selectors.
#[inline]
pub fn apply_coverage(
    cover: &SparseCoverage,
    worker: WorkerId,
    residual: &mut [f64],
    remaining: &mut f64,
) {
    apply_winner(cover, worker, residual, remaining);
}

/// Selection-time marginal gains of a winner sequence: entry `i` is the
/// marginal coverage winner `i` had at the moment the greedy picked her.
/// The smallest entry divided by the clearing price is the density of the
/// least dense winner — the threshold online stage-sampling learns.
pub fn selection_gains(
    cover: &SparseCoverage,
    requirements: &[f64],
    sequence: &[WorkerId],
) -> Vec<f64> {
    let mut residual = requirements.to_vec();
    let mut remaining: f64 = residual.iter().map(|r| r.max(0.0)).sum();
    let mut gains = Vec::with_capacity(sequence.len());
    for &w in sequence {
        gains.push(marginal_gain(cover, w, &residual));
        apply_winner(cover, w, &mut residual, &mut remaining);
    }
    gains
}

/// The canonical greedy winner sequence over an arbitrary candidate pool:
/// candidates are ranked by `(bid price, worker id)` — the exact tie order
/// of the offline engines — and selected by largest marginal coverage until
/// `requirements` is met. This is the learning step of online stage
/// sampling: run it over the observed sample at a candidate threshold price
/// and the selection-time gains (via [`selection_gains`]) yield the density
/// threshold. Errs with a coverage shortfall when the pool cannot cover.
pub fn greedy_sequence(
    instance: &Instance,
    requirements: &[f64],
    candidates: &[WorkerId],
) -> Result<Vec<WorkerId>, McsError> {
    let cover = instance.sparse_coverage();
    let num_workers = instance.num_workers();
    for &w in candidates {
        if w.0 as usize >= num_workers {
            return Err(McsError::WorkerOutOfRange {
                worker: w,
                num_workers,
            });
        }
    }
    let mut ranked: Vec<WorkerId> = candidates.to_vec();
    ranked.sort_unstable_by_key(|&w| (instance.bids().bid(w).price(), w));
    ranked.dedup();
    let init: Vec<f64> = ranked
        .iter()
        .map(|&w| marginal_gain(&cover, w, requirements))
        .collect();
    celf_sequence(&ranked, &cover, &init, requirements)
}

/// Replay counters: how the pricer absorbed each arrival.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayStats {
    /// Arrivals absorbed with pool bookkeeping only (bid above the quote).
    pub skipped: u64,
    /// Arrivals where replaying the incumbent sequence confirmed it.
    pub confirmed: u64,
    /// Arrivals that forced a warm-started greedy rebuild.
    pub rebuilt: u64,
}

/// The pricer's current answer: the cheapest feasible grid price over the
/// arrived pool, with the winner set it clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quote {
    /// Smallest grid price at which the arrived pool covers the
    /// requirements.
    pub price: Price,
    /// Size of the greedy winner set at that price.
    pub winners: usize,
}

impl Quote {
    /// The uniform-clearing payment `price × winners`.
    pub fn payment(&self) -> Price {
        Price::from_tenths(self.price.tenths() * self.winners as i64)
    }
}

/// Incremental hindsight pricing over a pool that grows one arrival at a
/// time (see the module docs for the replay strategy).
#[derive(Debug, Clone)]
pub struct OnlinePricer {
    cover: SparseCoverage,
    requirements: Vec<f64>,
    total_requirement: f64,
    grid: PriceGrid,
    bid_price: Vec<Price>,
    arrived: Vec<bool>,
    /// Arrived workers in the engine's canonical (price, id) order.
    pool: Vec<WorkerId>,
    /// Initial gains against the full requirements, aligned with `pool`.
    pool_init: Vec<f64>,
    /// Number of leading pool members bidding at most the quote price.
    prefix: usize,
    quote_price: Option<Price>,
    /// Winner sequence over `pool[..prefix]`, in selection order.
    sequence: Vec<WorkerId>,
    stats: ReplayStats,
}

impl OnlinePricer {
    /// A pricer over the instance's full coverage requirements with an
    /// empty arrived pool.
    pub fn new(instance: &Instance) -> OnlinePricer {
        let cover = instance.sparse_coverage();
        let requirements = cover.requirements().to_vec();
        Self::with_requirements(instance, requirements)
    }

    /// A pricer over caller-supplied (possibly residual) requirements;
    /// non-positive entries count as already satisfied.
    pub fn with_requirements(instance: &Instance, requirements: Vec<f64>) -> OnlinePricer {
        let cover = instance.sparse_coverage();
        let total_requirement = requirements.iter().map(|r| r.max(0.0)).sum();
        let bid_price = (0..instance.num_workers())
            .map(|i| instance.bids().bid(WorkerId(i as u32)).price())
            .collect();
        OnlinePricer {
            cover,
            requirements,
            total_requirement,
            grid: instance.price_grid().clone(),
            bid_price,
            arrived: vec![false; instance.num_workers()],
            pool: Vec::new(),
            pool_init: Vec::new(),
            prefix: 0,
            quote_price: None,
            sequence: Vec::new(),
            stats: ReplayStats::default(),
        }
    }

    /// Canonical rank of a worker: ascending bid price, ties by id — the
    /// order the engines sort candidates in.
    #[inline]
    fn rank(&self, w: WorkerId) -> (Price, WorkerId) {
        (self.bid_price[w.index()], w)
    }

    /// Absorbs one arrival and returns the updated quote (`None` while the
    /// arrived pool cannot cover the requirements within the grid).
    ///
    /// # Errors
    ///
    /// * [`McsError::WorkerOutOfRange`] — the worker is not part of the
    ///   instance, or has already arrived.
    pub fn push(&mut self, w: WorkerId) -> Result<Option<Quote>, McsError> {
        let slot = self.arrived.get_mut(w.index()).ok_or({
            McsError::WorkerOutOfRange {
                worker: w,
                num_workers: self.bid_price.len(),
            }
        })?;
        if *slot {
            return Err(McsError::WorkerOutOfRange {
                worker: w,
                num_workers: self.bid_price.len(),
            });
        }
        *slot = true;

        let rank = self.rank(w);
        let pos = self.pool.partition_point(|&other| self.rank(other) < rank);
        self.pool.insert(pos, w);
        self.pool_init
            .insert(pos, marginal_gain(&self.cover, w, &self.requirements));

        match self.quote_price {
            // A bid above the standing quote cannot shrink the covering
            // prefix or enter the candidate set: bookkeeping only.
            Some(q) if self.bid_price[w.index()] > q => {
                self.stats.skipped += 1;
                return Ok(self.quote());
            }
            _ => {}
        }

        let previous_quote = self.quote_price;
        self.quote_price = self.requote();
        let Some(q) = self.quote_price else {
            self.prefix = 0;
            self.sequence.clear();
            return Ok(None);
        };
        self.prefix = self
            .pool
            .partition_point(|&other| self.bid_price[other.index()] <= q);

        if previous_quote == Some(q) {
            // The pool grew by exactly this newcomer inside the candidate
            // prefix; replay the incumbents against her.
            if self.replay_confirms_newcomer(w) {
                self.stats.confirmed += 1;
                return Ok(self.quote());
            }
        }
        self.stats.rebuilt += 1;
        self.sequence = celf_sequence(
            &self.pool[..self.prefix],
            &self.cover,
            &self.pool_init[..self.prefix],
            &self.requirements,
        )?;
        Ok(self.quote())
    }

    /// Recomputes the cheapest feasible grid price by walking the arrived
    /// pool in price order until the requirements close.
    fn requote(&self) -> Option<Price> {
        if self.total_requirement <= COVER_EPS {
            return Some(self.grid.min());
        }
        let mut residual = self.requirements.clone();
        let mut remaining = self.total_requirement;
        for &w in &self.pool {
            apply_winner(&self.cover, w, &mut residual, &mut remaining);
            if remaining <= COVER_EPS {
                return self
                    .grid
                    .suffix_from(self.bid_price[w.index()])
                    .map(|g| g.min());
            }
        }
        None
    }

    /// Replays the incumbent winner sequence against a single newcomer.
    /// Confirms (returns `true`) iff at no step the newcomer's fresh gain
    /// strictly beats the incumbent's — or ties it with a better rank,
    /// which is exactly when the CELF heap would pop her first.
    fn replay_confirms_newcomer(&self, newcomer: WorkerId) -> bool {
        let new_rank = self.rank(newcomer);
        let mut residual = self.requirements.clone();
        let mut remaining = self.total_requirement;
        for &incumbent in &self.sequence {
            let held = marginal_gain(&self.cover, incumbent, &residual);
            let challenger = marginal_gain(&self.cover, newcomer, &residual);
            match challenger.total_cmp(&held) {
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Equal => {
                    if new_rank < self.rank(incumbent) {
                        return false;
                    }
                }
                std::cmp::Ordering::Less => {}
            }
            apply_winner(&self.cover, incumbent, &mut residual, &mut remaining);
        }
        true
    }

    /// The current quote, if the arrived pool covers within the grid.
    pub fn quote(&self) -> Option<Quote> {
        self.quote_price.map(|price| Quote {
            price,
            winners: self.sequence.len(),
        })
    }

    /// The winner sequence at the current quote, in selection order
    /// (empty while no quote exists).
    pub fn sequence(&self) -> &[WorkerId] {
        &self.sequence
    }

    /// The winner set at the current quote, ascending by id — the same
    /// presentation as [`crate::PriceSchedule::winners`].
    pub fn winners_sorted(&self) -> Vec<WorkerId> {
        let mut winners = self.sequence.clone();
        winners.sort_unstable();
        winners
    }

    /// Selection-time gains of the current winner sequence.
    pub fn sequence_gains(&self) -> Vec<f64> {
        selection_gains(&self.cover, &self.requirements, &self.sequence)
    }

    /// How arrivals have been absorbed so far.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// Workers arrived so far, in canonical (price, id) order.
    pub fn pool(&self) -> &[WorkerId] {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScheduleEngine;
    use crate::schedule::SelectionRule;
    use mcs_types::{Bid, Bundle, Price, SkillMatrix, TaskId};
    use rand::seq::SliceRandom;
    use rand::Rng;

    fn random_instance(seed: u64, workers: usize, tasks: usize) -> Instance {
        let mut r = mcs_num::rng::seeded(seed);
        let bids: Vec<Bid> = (0..workers)
            .map(|_| {
                let mut bundle: Vec<TaskId> = (0..tasks)
                    .filter(|_| r.gen_bool(0.6))
                    .map(|j| TaskId(j as u32))
                    .collect();
                if bundle.is_empty() {
                    bundle.push(TaskId(r.gen_range(0..tasks) as u32));
                }
                Bid::new(
                    Bundle::new(bundle),
                    Price::from_f64(r.gen_range(10.0..20.0)),
                )
            })
            .collect();
        let skills = SkillMatrix::from_rows(
            (0..workers)
                .map(|_| (0..tasks).map(|_| r.gen_range(0.75..0.95)).collect())
                .collect(),
        )
        .unwrap();
        Instance::builder(tasks)
            .bids(bids)
            .skills(skills)
            .uniform_error_bound(0.3)
            .price_grid_f64(10.0, 22.0, 0.5)
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
            .build()
            .unwrap()
    }

    /// After every arrival, the maintained quote must be bit-identical to
    /// the from-scratch residual build over the arrived pool.
    #[test]
    fn pricer_matches_from_scratch_residual_build_per_arrival() {
        for seed in 0..8u64 {
            let instance = random_instance(seed, 24, 5);
            let requirements = instance.sparse_coverage().requirements().to_vec();
            let mut pricer = OnlinePricer::new(&instance);
            let mut order: Vec<WorkerId> = (0..instance.num_workers())
                .map(|i| WorkerId(i as u32))
                .collect();
            order.shuffle(&mut mcs_num::rng::seeded(seed ^ 0xD00D));
            let mut arrived: Vec<WorkerId> = Vec::new();
            for &w in &order {
                arrived.push(w);
                let quote = pricer.push(w).expect("arrival in range");
                let scratch = ScheduleEngine::new(SelectionRule::MarginalCoverage).build_residual(
                    &instance,
                    &requirements,
                    &arrived,
                );
                match scratch {
                    Ok(schedule) => {
                        let quote = quote.expect("pool feasible, quote must exist");
                        assert_eq!(quote.price, schedule.prices()[0], "seed {seed}");
                        assert_eq!(
                            pricer.winners_sorted(),
                            schedule.winners(0),
                            "seed {seed}, pool size {}",
                            arrived.len()
                        );
                        assert_eq!(quote.payment(), schedule.total_payment(0), "seed {seed}");
                    }
                    Err(_) => assert!(quote.is_none(), "seed {seed}: quote on infeasible pool"),
                }
            }
            let stats = pricer.stats();
            // Every arrival after feasibility is classified exactly once;
            // arrivals before feasibility touch no counter.
            assert!(
                stats.skipped + stats.confirmed + stats.rebuilt <= instance.num_workers() as u64
            );
            assert!(
                stats.rebuilt >= 1,
                "seed {seed}: feasibility forces one build"
            );
        }
    }

    #[test]
    fn duplicate_and_out_of_range_arrivals_are_typed_errors() {
        let instance = random_instance(3, 6, 3);
        let mut pricer = OnlinePricer::new(&instance);
        pricer.push(WorkerId(0)).expect("first arrival");
        assert!(pricer.push(WorkerId(0)).is_err(), "duplicate arrival");
        assert!(pricer.push(WorkerId(99)).is_err(), "out of range");
    }

    #[test]
    fn satisfied_requirements_quote_the_grid_floor() {
        let instance = random_instance(5, 6, 3);
        let mut pricer =
            OnlinePricer::with_requirements(&instance, vec![0.0; instance.num_tasks()]);
        let quote = pricer.push(WorkerId(2)).expect("arrival").expect("quote");
        assert_eq!(quote.price, instance.price_grid().min());
        assert_eq!(quote.winners, 0);
    }

    #[test]
    fn selection_gains_replay_the_sequence() {
        let instance = random_instance(7, 20, 4);
        let mut pricer = OnlinePricer::new(&instance);
        for i in 0..instance.num_workers() {
            pricer.push(WorkerId(i as u32)).expect("arrival");
        }
        let gains = pricer.sequence_gains();
        assert_eq!(gains.len(), pricer.sequence().len());
        assert!(gains.iter().all(|&g| g > 0.0));
        // Greedy gains are non-increasing along the selection order.
        for pair in gains.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-12);
        }
    }
}
