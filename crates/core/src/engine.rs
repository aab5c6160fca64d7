//! The schedule-engine API: one builder, two engines, and a
//! [`Strategy::Auto`] rule that picks between them from the instance.
//!
//! Algorithm 1 needs one greedy winner set per bidding-price interval
//! (Theorem 5). [`ScheduleEngine`] builds that schedule from a
//! [`SelectionRule`] and a [`Strategy`]:
//!
//! ```
//! use mcs_auction::{ScheduleEngine, SelectionRule, Strategy};
//! # use mcs_types::{Bid, Bundle, Instance, Price, SkillMatrix, TaskId};
//! # fn main() -> Result<(), mcs_types::McsError> {
//! # let instance = Instance::builder(1)
//! #     .bids(vec![
//! #         Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(10.0)),
//! #         Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(11.0)),
//! #         Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(12.0)),
//! #     ])
//! #     .skills(SkillMatrix::from_rows(vec![vec![0.9]; 3])?)
//! #     .uniform_error_bound(0.4)
//! #     .price_grid_f64(10.0, 20.0, 0.5)
//! #     .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
//! #     .build()?;
//! let schedule = ScheduleEngine::new(SelectionRule::MarginalCoverage)
//!     .strategy(Strategy::Indexed)
//!     .build(&instance)?;
//! assert!(!schedule.is_empty());
//! # Ok(())
//! # }
//! ```
//!
//! Every strategy produces the identical schedule; they differ only in
//! cost (see [`Strategy`]). The naive per-grid-price reference both
//! engines are tested against is
//! [`reference_schedule`](crate::reference_schedule).

use mcs_types::{Instance, McsError, WorkerId};

use crate::schedule::{
    build_dispatch, build_residual_dispatch, BuildStats, PriceSchedule, SelectionRule,
};

/// Which engine evaluates the per-interval winner sets.
///
/// Under [`SelectionRule::MarginalCoverage`] the two engines cover the
/// two cost regimes (DESIGN.md §5f):
///
/// | Strategy | Engine | Cost profile |
/// |----------|--------|--------------|
/// | [`Auto`] | [`Indexed`] from [`Strategy::INDEXED_FROM_WORKERS`] candidates up, [`Incremental`] below | the faster engine at every point `schedule_scaling` records |
/// | [`Incremental`] | ascending price sweep: replays the newcomers against the incumbent winners' selection gains, resumes the greedy at a diverging step, finishes expensive steps with a dense scan | a few newcomer evaluations per interval while the winner set holds; cheapest on Table I sizes |
/// | [`Indexed`] | every interval's greedy in lockstep over one walk of a global gain-rank order | per-interval cost nearly independent of `N`; cheapest from `N ≈ 10⁴` up |
///
/// Under [`SelectionRule::StaticTotal`] every strategy takes the same
/// path: the candidates are sorted by static score once and each
/// interval filters that order to its price prefix.
///
/// [`Auto`]: Strategy::Auto
/// [`Incremental`]: Strategy::Incremental
/// [`Indexed`]: Strategy::Indexed
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The default: [`Strategy::Indexed`] on candidate pools of at least
    /// [`Strategy::INDEXED_FROM_WORKERS`] workers, [`Strategy::Incremental`]
    /// on smaller ones.
    Auto,
    /// Serial ascending sweep sharing residual state across intervals.
    Incremental,
    /// The worker-axis engine: one global gain-rank order walked by every
    /// interval's greedy in lockstep (see DESIGN.md §5f).
    Indexed,
}

impl Strategy {
    /// Every strategy, in a fixed order (checkers cycle through this).
    pub const ALL: [Strategy; 3] = [Strategy::Auto, Strategy::Incremental, Strategy::Indexed];

    /// The candidate-pool size from which [`Strategy::Auto`] takes the
    /// indexed engine. Below it the incremental sweep is faster on every
    /// Table I shape (≈1.1–1.5 against ≈6.7–10 ms at Setting I, N = 560,
    /// and ≈15–21 against ≈119–156 ms at Setting III, N = 1 400); from it
    /// up the indexed engine is (≈11–15 against ≈24–31 ms at N = 10 000
    /// on the many-workers shape; all on 2 vCPUs, DESIGN.md §5f).
    pub const INDEXED_FROM_WORKERS: usize = 10_000;

    /// Stable lowercase name (reports, bench columns).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Auto => "auto",
            Strategy::Incremental => "incremental",
            Strategy::Indexed => "indexed",
        }
    }

    /// The engine this strategy runs on a pool of `candidates` workers:
    /// [`Strategy::Auto`] resolves by pool size, the other strategies to
    /// themselves.
    pub fn resolve(self, candidates: usize) -> Strategy {
        match self {
            Strategy::Auto if candidates >= Strategy::INDEXED_FROM_WORKERS => Strategy::Indexed,
            Strategy::Auto => Strategy::Incremental,
            forced => forced,
        }
    }
}

/// The builder for per-price winner schedules (Algorithm 1, lines 1–15);
/// [`Strategy`] describes the engines it can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEngine {
    rule: SelectionRule,
    strategy: Strategy,
}

impl ScheduleEngine {
    /// An engine with the given selection rule and [`Strategy::Auto`].
    pub fn new(rule: SelectionRule) -> ScheduleEngine {
        ScheduleEngine {
            rule,
            strategy: Strategy::Auto,
        }
    }

    /// Forces one engine instead of [`Strategy::Auto`]'s choice — for the
    /// differential checkers and the scaling bench, since every strategy
    /// yields the identical schedule.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> ScheduleEngine {
        self.strategy = strategy;
        self
    }

    /// The configured selection rule.
    #[inline]
    pub fn rule(&self) -> SelectionRule {
        self.rule
    }

    /// The configured strategy.
    #[inline]
    pub fn configured_strategy(&self) -> Strategy {
        self.strategy
    }

    /// Builds the per-price winner schedule for a full instance.
    ///
    /// # Errors
    ///
    /// * [`McsError::Infeasible`] — even the full pool cannot satisfy some
    ///   task's error-bound constraint.
    /// * [`McsError::NoFeasiblePrice`] — coverage is possible but only
    ///   above the top of the price grid.
    pub fn build(&self, instance: &Instance) -> Result<PriceSchedule, McsError> {
        build_dispatch(
            instance,
            self.rule,
            self.strategy,
            &mut BuildStats::default(),
        )
    }

    /// [`ScheduleEngine::build`] with the counters of the build: the same
    /// path, which counts as it goes.
    ///
    /// # Errors
    ///
    /// As [`ScheduleEngine::build`].
    pub fn build_with_stats(
        &self,
        instance: &Instance,
    ) -> Result<(PriceSchedule, BuildStats), McsError> {
        let mut stats = BuildStats::default();
        let schedule = build_dispatch(instance, self.rule, self.strategy, &mut stats)?;
        Ok((schedule, stats))
    }

    /// Builds the schedule for a *residual* covering problem: only
    /// `eligible` workers may win and each task needs only the leftover
    /// coverage `requirements[j]` (non-positive entries mean already
    /// satisfied). [`Strategy::Auto`] resolves on the eligible pool size.
    ///
    /// # Errors
    ///
    /// * [`McsError::DimensionMismatch`] — `requirements` is not one entry
    ///   per task.
    /// * [`McsError::WorkerOutOfRange`] — an eligible id is out of range.
    /// * [`McsError::CoverageShortfall`] — the eligible pool cannot close
    ///   some task's residual requirement.
    /// * [`McsError::NoFeasiblePrice`] — the eligible pool covers, but
    ///   only at a price above the top of the grid.
    pub fn build_residual(
        &self,
        instance: &Instance,
        requirements: &[f64],
        eligible: &[WorkerId],
    ) -> Result<PriceSchedule, McsError> {
        build_residual_dispatch(instance, self.rule, self.strategy, requirements, eligible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_by_candidate_pool_size() {
        let threshold = Strategy::INDEXED_FROM_WORKERS;
        assert_eq!(Strategy::Auto.resolve(0), Strategy::Incremental);
        assert_eq!(Strategy::Auto.resolve(threshold - 1), Strategy::Incremental);
        assert_eq!(Strategy::Auto.resolve(threshold), Strategy::Indexed);
        for n in [1, threshold - 1, threshold, 10 * threshold] {
            assert_eq!(Strategy::Incremental.resolve(n), Strategy::Incremental);
            assert_eq!(Strategy::Indexed.resolve(n), Strategy::Indexed);
        }
    }

    #[test]
    fn builder_accessors_reflect_configuration() {
        let engine = ScheduleEngine::new(SelectionRule::StaticTotal).strategy(Strategy::Indexed);
        assert_eq!(engine.rule(), SelectionRule::StaticTotal);
        assert_eq!(engine.configured_strategy(), Strategy::Indexed);
        assert_eq!(
            ScheduleEngine::new(SelectionRule::MarginalCoverage).configured_strategy(),
            Strategy::Auto
        );
    }
}
