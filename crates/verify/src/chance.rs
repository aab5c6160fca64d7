//! Monte Carlo verification of the chance-constrained coverage layer.
//!
//! The chance-constrained transformation promises: if every winner set
//! satisfies the *inflated* quota `R_j = chance_quota(Q_j, γ_j)` on the
//! *discounted* weights `p·q`, then under independent Bernoulli
//! completions the probability that realized raw coverage falls below
//! the base quota `Q_j` is at most `γ_j`. This module checks both sides
//! of that contract on generated instances:
//!
//! 1. **Monte Carlo shortfall** — [`check_instance`] builds the price
//!    schedule, takes the winner set of the cheapest entry (the one
//!    `min_total_payment` selects), and samples each winner's task
//!    completions ≥ 10⁴ times from the *raw* model (skill weights
//!    `q = (2θ−1)²` and per-entry probabilities straight off the
//!    [`Instance`], not the decomposed effective weights). The empirical
//!    per-task shortfall rate must be statistically consistent with the
//!    bound `γ_j`: its Wilson lower confidence bound at `z` must not
//!    exceed `γ_j` (the same PR-4 interval machinery the DP checks use).
//!    Tasks with no uncertain entry must never fall short — their
//!    coverage is deterministic.
//!
//! 2. **Degenerate reduction** — [`check_unit_reduction`] proves the
//!    `p = 1` invariant *observationally*: rewriting every probability
//!    to 1 ([`CompletionModel::with_unit_probabilities`]) and dropping
//!    the model entirely must produce byte-identical schedules (prices,
//!    winners, per-entry payments), identical `min_total_payment`, and
//!    identical instance digests across **every** strategy, the naive
//!    reference, and both selection rules. The uncertain layer is
//!    provably pay-for-what-you-use: no probability strictly below one,
//!    no behavior change anywhere.

use mcs_auction::{reference_schedule, ScheduleEngine, SelectionRule, Strategy};
use mcs_num::{rate_consistent_with_bound, rng};
use mcs_types::{
    chernoff_shortfall_bound, CompletionModel, CoverageView, Instance, TaskId, WorkerId,
};
use rand::Rng;

use crate::gen::Shape;
use crate::report::CounterexampleReport;

/// Slack when comparing sampled raw coverage against the base quota.
const COVER_EPS: f64 = 1e-9;
/// Stream tag separating Monte Carlo completion draws from every other
/// derived stream ("MCSHRT").
const MC_STREAM: u64 = 0x4D43_5348_5254;

/// Aggregate statistics over a sweep of Monte Carlo shortfall checks.
#[derive(Debug, Clone, Default)]
pub struct ChanceStats {
    /// Instances whose empirical shortfall stayed within every `γ_j`.
    pub checked: u64,
    /// Samples drawn per instance.
    pub samples: u64,
    /// Largest observed `empirical rate / γ_j` across all uncertain
    /// tasks (1.0 means some task used its whole budget).
    pub max_rate_ratio: f64,
    /// Largest analytic Chernoff bound observed at the sampled winner
    /// set's discounted coverage (context: how conservative `γ` was).
    pub max_analytic_bound: f64,
}

impl ChanceStats {
    /// Folds another batch of statistics into this one.
    pub fn merge(&mut self, other: &ChanceStats) {
        self.checked += other.checked;
        self.samples = self.samples.max(other.samples);
        self.max_rate_ratio = self.max_rate_ratio.max(other.max_rate_ratio);
        self.max_analytic_bound = self.max_analytic_bound.max(other.max_analytic_bound);
    }
}

/// Per-winner completion trials for one task: `(q, p)` pairs.
type TaskTrials = Vec<(f64, f64)>;

/// Collects, for each task, the `(raw weight, completion probability)`
/// of every winner whose bundle covers it.
fn trials_by_task(instance: &Instance, winners: &[WorkerId]) -> Vec<TaskTrials> {
    let mut by_task: Vec<TaskTrials> = vec![Vec::new(); instance.num_tasks()];
    for &w in winners {
        for t in instance.bids().bid(w).bundle().iter() {
            let theta = instance.skills().theta(w, t);
            let q = (2.0 * theta - 1.0).powi(2);
            if q > 0.0 {
                by_task[t.0 as usize].push((q, instance.completion().p(w, t)));
            }
        }
    }
    by_task
}

/// Monte Carlo check of one instance: samples the cheapest schedule
/// entry's winner set and verifies every task's empirical shortfall
/// rate against its budget `γ_j` at Wilson confidence `z`.
///
/// Instances that fail to build a schedule (e.g. infeasible after
/// inflation) are skipped with `checked = 0` — the differential sweep
/// owns feasibility agreement, not this module.
///
/// # Errors
///
/// Returns a [`CounterexampleReport`] naming the task whose observed
/// shortfall rate is statistically inconsistent with its bound, or that
/// fell short despite having no uncertain entries.
pub fn check_instance(
    shape: Shape,
    seed: u64,
    instance: &Instance,
    samples: u64,
    z: f64,
) -> Result<ChanceStats, Box<CounterexampleReport>> {
    let schedule = match ScheduleEngine::new(SelectionRule::MarginalCoverage).build(instance) {
        Ok(s) if !s.is_empty() => s,
        _ => return Ok(ChanceStats::default()),
    };
    // The entry min_total_payment() selects: cheapest total, first index
    // on ties (matching the Option::min semantics over (payment, idx)).
    let cheapest = (0..schedule.len())
        .min_by_key(|&i| (schedule.total_payment(i), i))
        .expect("non-empty schedule");
    let winners = schedule.winners(cheapest);
    let by_task = trials_by_task(instance, winners);
    let cover = instance.sparse_coverage();

    let mut r = rng::derived(seed, MC_STREAM);
    let mut shortfalls = vec![0u64; instance.num_tasks()];
    for _ in 0..samples {
        for (j, trials) in by_task.iter().enumerate() {
            let realized: f64 = trials
                .iter()
                .map(|&(q, p)| if r.gen_bool(p) { q } else { 0.0 })
                .sum();
            let base = cover.base_requirement(TaskId(j as u32));
            if realized < base - COVER_EPS {
                shortfalls[j] += 1;
            }
        }
    }

    let mut stats = ChanceStats {
        checked: 1,
        samples,
        ..ChanceStats::default()
    };
    for j in 0..instance.num_tasks() {
        let t = TaskId(j as u32);
        let uncertain_task = by_task[j].iter().any(|&(_, p)| p < 1.0);
        let rate = shortfalls[j] as f64 / samples as f64;
        match cover.shortfall_bound(t) {
            Some(gamma) if uncertain_task => {
                if !rate_consistent_with_bound(shortfalls[j], samples, gamma, z) {
                    return Err(report(
                        shape,
                        seed,
                        instance,
                        "mc-shortfall",
                        format!(
                            "task {t}: empirical shortfall {rate:.5} over {samples} samples is \
                             inconsistent with gamma = {gamma:.5} at z = {z}"
                        ),
                    ));
                }
                stats.max_rate_ratio = stats.max_rate_ratio.max(rate / gamma);
                // Context: the analytic bound at the winner set's actual
                // discounted coverage (tighter than γ whenever the
                // winners over-cover the inflated quota).
                let mu: f64 = by_task[j].iter().map(|&(q, p)| q * p).sum();
                let analytic = chernoff_shortfall_bound(mu, cover.base_requirement(t));
                stats.max_analytic_bound = stats.max_analytic_bound.max(analytic);
            }
            _ => {
                // Tasks with all-certain coverage must never fall short:
                // their winners' raw weights meet the (uninflated)
                // requirement deterministically.
                if shortfalls[j] > 0 {
                    return Err(report(
                        shape,
                        seed,
                        instance,
                        "mc-certain-shortfall",
                        format!(
                            "certain task {t} fell short in {} of {samples} samples",
                            shortfalls[j]
                        ),
                    ));
                }
            }
        }
    }
    Ok(stats)
}

/// Proves the `p = 1` degenerate invariant on one instance: the all-ones
/// Bernoulli model and the plain deterministic model yield byte-identical
/// digests, schedules, per-entry payments, and `min_total_payment` for
/// **every** strategy and the naive reference under **both** selection
/// rules.
///
/// # Errors
///
/// Returns a [`CounterexampleReport`] naming the first strategy/rule pair
/// that observed a difference.
pub fn check_unit_reduction(
    shape: Shape,
    seed: u64,
    instance: &Instance,
) -> Result<(), Box<CounterexampleReport>> {
    let unit = instance
        .with_completion(instance.completion().with_unit_probabilities())
        .expect("unit probabilities are a valid model");
    let det = instance
        .with_completion(CompletionModel::Deterministic)
        .expect("the deterministic model is always valid");

    if unit.digest() != det.digest() {
        return Err(report(
            shape,
            seed,
            instance,
            "unit-reduction/digest",
            "all-ones Bernoulli digest differs from the deterministic digest".to_string(),
        ));
    }

    for rule in [SelectionRule::MarginalCoverage, SelectionRule::StaticTotal] {
        // Every strategy, then (`None`) the naive reference.
        for strategy in Strategy::ALL.map(Some).into_iter().chain([None]) {
            let build = |inst: &Instance| match strategy {
                Some(s) => ScheduleEngine::new(rule).strategy(s).build(inst),
                None => reference_schedule(inst, rule),
            };
            let (a, b) = (build(&unit), build(&det));
            let agree = match (&a, &b) {
                (Ok(a), Ok(b)) => {
                    a.prices() == b.prices()
                        && (0..a.len()).all(|i| {
                            a.winners(i) == b.winners(i) && a.total_payment(i) == b.total_payment(i)
                        })
                        && a.min_total_payment() == b.min_total_payment()
                }
                (Err(ea), Err(eb)) => ea.to_string() == eb.to_string(),
                _ => false,
            };
            if !agree {
                return Err(report(
                    shape,
                    seed,
                    instance,
                    format!("unit-reduction/{rule:?}").as_str(),
                    format!(
                        "strategy {} diverges between all-ones Bernoulli and deterministic",
                        strategy.map_or("reference", Strategy::name)
                    ),
                ));
            }
        }
    }
    Ok(())
}

fn report(
    shape: Shape,
    seed: u64,
    instance: &Instance,
    check: &str,
    detail: String,
) -> Box<CounterexampleReport> {
    Box::new(CounterexampleReport {
        shape: shape.name(),
        seed,
        check: check.to_string(),
        detail,
        instance: instance.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Shape};

    /// Debug-suite sample count: enough for the Wilson interval to have
    /// teeth without slowing `cargo test`; the sweep binary runs the full
    /// 10⁴ per instance.
    const TEST_SAMPLES: u64 = 2_000;
    /// Same z as the sweep binary's statistical checks.
    const Z: f64 = 3.89;

    #[test]
    fn uncertain_sweep_respects_shortfall_budgets() {
        let mut total = ChanceStats::default();
        for seed in 0..10u64 {
            let inst = generate(Shape::UncertainTasks, seed);
            let stats = check_instance(Shape::UncertainTasks, seed, &inst, TEST_SAMPLES, Z)
                .unwrap_or_else(|report| panic!("{report}"));
            assert_eq!(stats.checked, 1, "seed {seed} must build a schedule");
            total.merge(&stats);
        }
        assert_eq!(total.checked, 10);
        // The Chernoff bound is conservative: empirical shortfall should
        // sit well inside the budget, not just under the Wilson fence.
        assert!(total.max_rate_ratio <= 1.0, "{}", total.max_rate_ratio);
    }

    #[test]
    fn deterministic_shapes_never_fall_short() {
        for seed in 0..5u64 {
            let inst = generate(Shape::Uniform, seed);
            let stats = check_instance(Shape::Uniform, seed, &inst, 200, Z)
                .unwrap_or_else(|report| panic!("{report}"));
            assert_eq!(stats.checked, 1);
            assert_eq!(stats.max_rate_ratio, 0.0);
        }
    }

    #[test]
    fn unit_reduction_holds_across_all_strategies() {
        for seed in 0..10u64 {
            let inst = generate(Shape::UncertainTasks, seed);
            check_unit_reduction(Shape::UncertainTasks, seed, &inst)
                .unwrap_or_else(|report| panic!("{report}"));
        }
        // Also from a deterministic starting point (trivial reduction).
        let inst = generate(Shape::Uniform, 3);
        check_unit_reduction(Shape::Uniform, 3, &inst).unwrap_or_else(|report| panic!("{report}"));
    }

    #[test]
    fn infeasible_instances_are_skipped_not_failed() {
        let inst = generate(Shape::InfeasibleCoverage, 0);
        let stats = check_instance(Shape::InfeasibleCoverage, 0, &inst, 100, Z)
            .unwrap_or_else(|report| panic!("{report}"));
        assert_eq!(stats.checked, 0);
    }
}
