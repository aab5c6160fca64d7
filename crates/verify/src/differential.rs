//! Differential testing of every schedule strategy against the naive
//! reference and against the exact ILP optimum.
//!
//! The engines share an *intended* contract — identical winner sequences
//! at every grid price, tie-breaking included — but share as little code
//! as their implementations allow: [`reference_schedule`] recomputes
//! every price independently with full rescans, the incremental engine
//! sweeps ascending price intervals reusing residual state, and the
//! indexed engine walks one global rank order with every interval in
//! lockstep. Because the strategies are enumerable data
//! ([`Strategy::ALL`]), a strategy added to the core crate is compared
//! here automatically. This module asserts, per instance:
//!
//! 1. **Engine agreement** — every [`Strategy`] and, up to
//!    `REFERENCE_WORKER_LIMIT` workers, the reference produce equal
//!    [`PriceSchedule`]s under both selection rules, or all fail with the
//!    same error kind. Above the limit the reference's per-price full
//!    rescans would dominate the sweep, so only the strategies run.
//! 2. **Covering invariants** — every winner set satisfies
//!    `Σ q_ij ≥ Q'_j` on all tasks, every winner's bid is at or below
//!    the posted price, and prices ascend along the schedule.
//! 3. **Approximation ratio** — at the top grid price (where the
//!    candidate pool is the full worker set) the greedy cardinality is
//!    within the paper's `2βH_m` factor of the exact ILP optimum, and
//!    never below it. Skipped above `RATIO_TASK_LIMIT` tasks (or
//!    `RATIO_WORKER_LIMIT` workers) so the scaling shapes never drive
//!    the dense simplex/branch-and-bound.
//!
//! Failures shrink through [`minimize`] before being reported.

use mcs_auction::{reference_schedule, PriceSchedule, ScheduleEngine, SelectionRule, Strategy};
use mcs_ilp::{solve_exhaustive, BnbOptions, CoveringIlp, IlpStatus};
use mcs_sim::experiments::harmonic;
use mcs_types::{Bid, Bundle, CoverageView, Instance, McsError, SkillMatrix, TaskId, WorkerId};

use crate::gen::Shape;
use crate::report::CounterexampleReport;

/// Workers at or below this count go to exhaustive subset enumeration;
/// larger pools use branch-and-bound.
const EXHAUSTIVE_LIMIT: usize = 12;
/// Task counts above this skip the ILP ratio check: the LP relaxation
/// carries one row per unmet task, so a large-sparse instance would turn
/// the sanity check into the bottleneck the sparse core exists to avoid.
const RATIO_TASK_LIMIT: usize = 64;
/// Worker counts above this skip the ILP ratio check: branch-and-bound
/// over thousands of binary variables would never close the gap.
const RATIO_WORKER_LIMIT: usize = 256;
/// Worker counts above this leave [`reference_schedule`] out of the
/// agreement check: its per-price full rescans are quadratic in the pool
/// and it materializes `N × K` cells, so on the many-workers shape it
/// would be the bottleneck, not the subject.
const REFERENCE_WORKER_LIMIT: usize = 256;
/// Worker counts above this skip the one-at-a-time shrinking pass, which
/// is quadratic in the pool size; the unshrunk instance is reported.
const MINIMIZE_WORKER_LIMIT: usize = 512;
/// Slack for floating-point comparisons on coverage and ratios.
const TOL: f64 = 1e-9;

/// Aggregate statistics over a sweep of differential checks.
#[derive(Debug, Clone, Default)]
pub struct DiffStats {
    /// Instances where all engines agreed on a feasible schedule.
    pub agreed_ok: u64,
    /// Instances where all engines agreed on the same error kind.
    pub agreed_err: u64,
    /// Instances where the ILP ratio check ran (feasible only).
    pub ilp_checked: u64,
    /// Largest observed greedy/optimal cardinality ratio.
    pub max_ratio: f64,
    /// Largest observed `2βH_m` bound (context for `max_ratio`).
    pub max_bound: f64,
}

impl DiffStats {
    /// Folds another batch of statistics into this one.
    pub fn merge(&mut self, other: &DiffStats) {
        self.agreed_ok += other.agreed_ok;
        self.agreed_err += other.agreed_err;
        self.ilp_checked += other.ilp_checked;
        self.max_ratio = self.max_ratio.max(other.max_ratio);
        self.max_bound = self.max_bound.max(other.max_bound);
    }
}

/// Runs every differential check on one instance. On failure the
/// instance is minimized and wrapped in a report.
///
/// # Errors
///
/// Returns the minimized [`CounterexampleReport`] for the first failing
/// invariant.
pub fn check_instance(
    shape: Shape,
    seed: u64,
    instance: &Instance,
) -> Result<DiffStats, Box<CounterexampleReport>> {
    match failure(instance) {
        None => Ok(stats_for(instance)),
        Some((check, detail)) => {
            let minimized = minimize(instance.clone(), &check);
            Err(Box::new(CounterexampleReport {
                shape: shape.name(),
                seed,
                check,
                detail,
                instance: minimized,
            }))
        }
    }
}

/// Returns `(check, detail)` for the first violated invariant, if any.
fn failure(instance: &Instance) -> Option<(String, String)> {
    for rule in [SelectionRule::MarginalCoverage, SelectionRule::StaticTotal] {
        let mut results: Vec<(&str, Result<PriceSchedule, McsError>)> = Strategy::ALL
            .iter()
            .map(|&s| {
                (
                    s.name(),
                    ScheduleEngine::new(rule).strategy(s).build(instance),
                )
            })
            .collect();
        if instance.num_workers() <= REFERENCE_WORKER_LIMIT {
            results.push(("reference", reference_schedule(instance, rule)));
        }
        if let Some(f) = engine_disagreement(rule, &results) {
            return Some(f);
        }
        if let (_, Ok(schedule)) = &results[0] {
            if let Some(f) = schedule_invariants(rule, instance, schedule) {
                return Some(f);
            }
            if rule == SelectionRule::MarginalCoverage {
                if let Some(f) = ilp_ratio_violation(instance, schedule) {
                    return Some(f);
                }
            }
        }
    }
    None
}

/// Checks that all engines produced equal schedules or equal error kinds.
fn engine_disagreement(
    rule: SelectionRule,
    results: &[(&str, Result<PriceSchedule, McsError>)],
) -> Option<(String, String)> {
    let (ref_name, reference) = &results[0];
    for (name, result) in &results[1..] {
        let agree = match (reference, result) {
            // Observational equality: the engines may compress
            // identical-winner intervals differently, but every
            // `(price, winners)` pair a caller can see must match.
            (Ok(a), Ok(b)) => {
                a.prices() == b.prices() && (0..a.len()).all(|i| a.winners(i) == b.winners(i))
            }
            (Err(a), Err(b)) => error_kind(a) == error_kind(b),
            _ => false,
        };
        if !agree {
            return Some((
                format!("engine-agreement/{rule:?}"),
                format!(
                    "{ref_name} gave {} but {name} gave {}",
                    summarize(reference),
                    summarize(result)
                ),
            ));
        }
    }
    None
}

/// Per-price invariants on a built schedule.
fn schedule_invariants(
    rule: SelectionRule,
    instance: &Instance,
    schedule: &PriceSchedule,
) -> Option<(String, String)> {
    let cover = instance.sparse_coverage();
    let grid: Vec<_> = instance.price_grid().iter().collect();
    for i in 0..schedule.len() {
        let price = schedule.price(i);
        let winners = schedule.winners(i);
        if !cover.is_satisfied_by(winners.iter().copied()) {
            return Some((
                format!("covering/{rule:?}"),
                format!("winners at price {price} leave a task under-covered"),
            ));
        }
        for &w in winners {
            let bid = instance.bids().bid(w).price();
            if bid > price {
                return Some((
                    format!("price-feasibility/{rule:?}"),
                    format!("winner w{} bid {bid} above posted price {price}", w.0),
                ));
            }
        }
        if !grid.contains(&price) {
            return Some((
                format!("grid-membership/{rule:?}"),
                format!("schedule price {price} is not a grid price"),
            ));
        }
        if i > 0 && schedule.price(i - 1) >= price {
            return Some((
                format!("price-order/{rule:?}"),
                format!("prices not strictly ascending at index {i}"),
            ));
        }
    }
    None
}

/// Compares the greedy winner-set size at the top grid price with the
/// exact minimum cardinality, against the paper's `2βH_m` bound.
fn ilp_ratio_violation(instance: &Instance, schedule: &PriceSchedule) -> Option<(String, String)> {
    let (greedy, opt, bound) = ratio_data(instance, schedule)?;
    let ratio = greedy as f64 / opt as f64;
    if (greedy as f64) < opt as f64 - TOL {
        return Some((
            "ilp-sanity".to_string(),
            format!("greedy picked {greedy} winners, below the proven optimum {opt}"),
        ));
    }
    if ratio > bound + TOL {
        return Some((
            "approx-ratio".to_string(),
            format!("greedy {greedy} / optimal {opt} = {ratio:.3} exceeds 2βH_m = {bound:.3}"),
        ));
    }
    None
}

/// `(greedy cardinality, optimal cardinality, 2βH_m)` at the top grid
/// price, or `None` when the ratio check does not apply (no schedule
/// entries, or the ILP could not prove optimality).
fn ratio_data(instance: &Instance, schedule: &PriceSchedule) -> Option<(usize, usize, f64)> {
    if schedule.is_empty()
        || instance.num_tasks() > RATIO_TASK_LIMIT
        || instance.num_workers() > RATIO_WORKER_LIMIT
    {
        return None;
    }
    // The generator's grid tops out above cmax, so at the last schedule
    // entry the candidate pool is the full worker set and the greedy
    // solves the same covering problem the ILP sees.
    let greedy = schedule.winners(schedule.len() - 1).len();
    let cover = instance.sparse_coverage();
    let rows: Vec<Vec<(usize, f64)>> = (0..cover.num_workers())
        .map(|w| cover.row(w).collect())
        .collect();
    let ilp =
        CoveringIlp::uniform_cost_sparse(cover.num_tasks(), rows, cover.requirements().to_vec())
            .ok()?;
    let opt = if instance.num_workers() <= EXHAUSTIVE_LIMIT {
        solve_exhaustive(&ilp)?
    } else {
        let result = ilp.solve(&BnbOptions::default()).ok()?;
        if result.status != IlpStatus::Optimal {
            return None;
        }
        result.best?
    };
    let opt_len = opt.selected.len().max(1);
    // Lemma 2: m = (Σ_j Q'_j) / Δq with Δq the smallest positive
    // coverage weight (the CSR rows store exactly the positive weights).
    let delta_q = (0..cover.num_workers())
        .flat_map(|w| cover.row(w).map(|(_, q)| q))
        .filter(|&q| q > 1e-12)
        .fold(f64::INFINITY, f64::min);
    let total_q: f64 = cover.requirements().iter().sum();
    let m = if delta_q.is_finite() {
        total_q / delta_q
    } else {
        total_q
    };
    // On tiny instances 2βH_m can dip below 1, where a multiplicative
    // bound on an integer-cardinality ratio (≥ 1 by optimality) is
    // vacuous — the meaningful guarantee starts at 1.
    let bound = (2.0 * cover.beta() * harmonic(m.max(1.0))).max(1.0);
    Some((greedy, opt_len, bound))
}

/// Statistics for an instance that passed all checks.
fn stats_for(instance: &Instance) -> DiffStats {
    let mut stats = DiffStats::default();
    match ScheduleEngine::new(SelectionRule::MarginalCoverage).build(instance) {
        Err(_) => stats.agreed_err = 1,
        Ok(schedule) => {
            stats.agreed_ok = 1;
            if let Some((greedy, opt, bound)) = ratio_data(instance, &schedule) {
                stats.ilp_checked = 1;
                stats.max_ratio = greedy as f64 / opt as f64;
                stats.max_bound = bound;
            }
        }
    }
    stats
}

/// One error-kind label per [`McsError`] variant, ignoring payloads, so
/// engines only have to agree on *why* they failed.
fn error_kind(err: &McsError) -> &'static str {
    match err {
        McsError::InvalidSkill { .. } => "invalid-skill",
        McsError::InvalidErrorBound { .. } => "invalid-error-bound",
        McsError::InvalidPriceGrid { .. } => "invalid-price-grid",
        McsError::DimensionMismatch { .. } => "dimension-mismatch",
        McsError::WorkerOutOfRange { .. } => "worker-out-of-range",
        McsError::BundleOutOfRange { .. } => "bundle-out-of-range",
        McsError::EmptyBundle { .. } => "empty-bundle",
        McsError::InvalidCostRange { .. } => "invalid-cost-range",
        McsError::Infeasible { .. } => "infeasible",
        _ => "other",
    }
}

fn summarize(result: &Result<PriceSchedule, McsError>) -> String {
    match result {
        Ok(s) => format!(
            "a schedule of {} prices ({} distinct winner sets)",
            s.len(),
            s.num_distinct_sets()
        ),
        Err(e) => format!("error `{}`", error_kind(e)),
    }
}

/// Greedy minimizer: repeatedly drops one worker, then one task, while
/// the named check keeps failing, until no single removal preserves the
/// failure.
pub fn minimize(mut instance: Instance, check: &str) -> Instance {
    if instance.num_workers() > MINIMIZE_WORKER_LIMIT {
        return instance;
    }
    let still_fails = |inst: &Instance| failure(inst).map(|(c, _)| c == check).unwrap_or(false);
    loop {
        let mut shrunk = false;
        let mut w = 0;
        while w < instance.num_workers() {
            if instance.num_workers() <= 1 {
                break;
            }
            if let Some(smaller) = without_worker(&instance, w) {
                if still_fails(&smaller) {
                    instance = smaller;
                    shrunk = true;
                    continue; // indices shifted; retry same position
                }
            }
            w += 1;
        }
        let mut t = 0;
        while t < instance.num_tasks() {
            if instance.num_tasks() <= 1 {
                break;
            }
            if let Some(smaller) = without_task(&instance, t) {
                if still_fails(&smaller) {
                    instance = smaller;
                    shrunk = true;
                    continue;
                }
            }
            t += 1;
        }
        if !shrunk {
            return instance;
        }
    }
}

/// Rebuilds the instance without worker `drop`, or `None` if the
/// remainder is not a valid instance.
fn without_worker(instance: &Instance, drop: usize) -> Option<Instance> {
    let bids: Vec<Bid> = instance
        .bids()
        .iter()
        .filter(|(w, _)| w.0 as usize != drop)
        .map(|(_, b)| b.clone())
        .collect();
    if bids.is_empty() {
        return None;
    }
    let kept: Vec<WorkerId> = (0..instance.num_workers())
        .filter(|&w| w != drop)
        .map(|w| WorkerId(w as u32))
        .collect();
    let rows: Vec<Vec<f64>> = kept
        .iter()
        .map(|&w| {
            (0..instance.num_tasks())
                .map(|j| instance.skills().theta(w, TaskId(j as u32)))
                .collect()
        })
        .collect();
    Instance::builder(instance.num_tasks())
        .bids(bids)
        .skills(SkillMatrix::from_rows(rows).ok()?)
        .error_bounds(instance.deltas().to_vec())
        .price_grid(instance.price_grid().clone())
        .cost_range(instance.cmin(), instance.cmax())
        .completion(instance.completion().restrict_to_workers(&kept))
        .build()
        .ok()
}

/// Rebuilds the instance without task `drop` (remapping later task ids
/// down by one and removing workers whose bundle becomes empty), or
/// `None` if the remainder is not a valid instance.
fn without_task(instance: &Instance, drop: usize) -> Option<Instance> {
    let keep_task = |t: TaskId| t.0 as usize != drop;
    let remap = |t: TaskId| {
        if (t.0 as usize) > drop {
            TaskId(t.0 - 1)
        } else {
            t
        }
    };
    let mut bids = Vec::new();
    let mut rows = Vec::new();
    let mut kept = Vec::new();
    for (w, bid) in instance.bids().iter() {
        let tasks: Vec<TaskId> = bid
            .bundle()
            .iter()
            .filter(|&t| keep_task(t))
            .map(remap)
            .collect();
        if tasks.is_empty() {
            continue; // worker only sensed the dropped task
        }
        kept.push(w);
        bids.push(Bid::new(Bundle::new(tasks), bid.price()));
        rows.push(
            (0..instance.num_tasks())
                .filter(|&j| j != drop)
                .map(|j| instance.skills().theta(w, TaskId(j as u32)))
                .collect::<Vec<f64>>(),
        );
    }
    if bids.is_empty() {
        return None;
    }
    let deltas: Vec<f64> = instance
        .deltas()
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != drop)
        .map(|(_, d)| *d)
        .collect();
    // The completion model shrinks along both axes: worker rows are
    // restricted *before* task ids shift so the original indices line up.
    let completion = instance
        .completion()
        .restrict_to_workers(&kept)
        .without_task(TaskId(drop as u32));
    Instance::builder(instance.num_tasks() - 1)
        .bids(bids)
        .skills(SkillMatrix::from_rows(rows).ok()?)
        .error_bounds(deltas)
        .price_grid(instance.price_grid().clone())
        .cost_range(instance.cmin(), instance.cmax())
        .completion(completion)
        .build()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Shape};

    #[test]
    fn all_shapes_pass_on_a_small_sweep() {
        for seed in 0..20u64 {
            for shape in Shape::SMALL {
                let inst = generate(shape, seed);
                let stats =
                    check_instance(shape, seed, &inst).unwrap_or_else(|report| panic!("{report}"));
                if shape == Shape::InfeasibleCoverage {
                    assert_eq!(stats.agreed_err, 1);
                } else {
                    assert_eq!(stats.agreed_ok, 1);
                }
            }
        }
    }

    #[test]
    fn large_sparse_smoke_passes_without_ilp() {
        // Debug-mode smoke: sized instances keep the per-engine cost down
        // while still exercising every strategy's agreement with the
        // reference on CSR-heavy inputs. The task count sits above
        // RATIO_TASK_LIMIT so the ILP ratio check must skip.
        for seed in 0..2u64 {
            let inst = crate::gen::large_sparse_sized(800, seed);
            let stats = check_instance(Shape::LargeSparse, seed, &inst)
                .unwrap_or_else(|report| panic!("{report}"));
            assert_eq!(stats.agreed_ok, 1);
            assert_eq!(stats.ilp_checked, 0, "ratio check should be gated off");
        }
    }

    #[test]
    fn many_workers_smoke_compares_strategies_without_reference() {
        // The pool sits above REFERENCE_WORKER_LIMIT, so only the
        // strategies (auto, incremental, indexed) are compared, and above
        // RATIO_WORKER_LIMIT so the ILP is gated off.
        for seed in 0..2u64 {
            let inst = crate::gen::many_workers_sized(2_000, seed);
            let stats = check_instance(Shape::ManyWorkers, seed, &inst)
                .unwrap_or_else(|report| panic!("{report}"));
            assert_eq!(stats.agreed_ok, 1);
            assert_eq!(stats.ilp_checked, 0, "ratio check should be gated off");
        }
    }

    #[test]
    fn auto_matches_the_forced_engine_on_each_side_of_the_threshold() {
        // Just below the constant Auto must be the incremental sweep, at
        // it the indexed engine — and byte-identical to that engine
        // forced, interval compression included, under both rules.
        let threshold = Strategy::INDEXED_FROM_WORKERS;
        for (n, engine) in [
            (threshold - 1, Strategy::Incremental),
            (threshold, Strategy::Indexed),
        ] {
            let inst = crate::gen::many_workers_sized(n, 5);
            assert_eq!(inst.num_workers(), n);
            assert_eq!(Strategy::Auto.resolve(n), engine);
            for rule in [SelectionRule::MarginalCoverage, SelectionRule::StaticTotal] {
                let auto = ScheduleEngine::new(rule).build(&inst).expect("feasible");
                let forced = ScheduleEngine::new(rule)
                    .strategy(engine)
                    .build(&inst)
                    .expect("feasible");
                assert_eq!(auto, forced, "N = {n}, {rule:?}");
            }
        }
    }

    #[test]
    fn minimizer_preserves_validity() {
        // Minimizing against a check that never fails returns the
        // instance unchanged (no shrink is accepted).
        let inst = generate(Shape::Uniform, 1);
        let same = minimize(inst.clone(), "covering/MarginalCoverage");
        assert_eq!(inst.digest(), same.digest());
    }

    #[test]
    fn worker_and_task_removal_produce_valid_instances() {
        let inst = generate(Shape::Uniform, 2);
        if let Some(smaller) = without_worker(&inst, 0) {
            assert_eq!(smaller.num_workers(), inst.num_workers() - 1);
        }
        if inst.num_tasks() > 1 {
            if let Some(smaller) = without_task(&inst, 0) {
                assert_eq!(smaller.num_tasks(), inst.num_tasks() - 1);
            }
        }
    }
}
