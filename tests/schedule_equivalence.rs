//! Property-based equivalence of every schedule strategy against the
//! naive full-rescan reference.
//!
//! The engines cache stale marginal-coverage upper bounds (the CELF heap,
//! the indexed engine's global rank order) and reuse residual state
//! across price intervals; submodularity makes that safe, but the *exact*
//! winner sequence (including float tie-breaking) must still match the
//! reference winner-for-winner — the privacy and payment analyses
//! quantify over the schedule, so any divergence is a correctness bug,
//! not a performance trade-off.

use proptest::prelude::*;

use dp_mcs::auction::reference_schedule;
use dp_mcs::types::{CoverageView, SparseCoverage, DEFAULT_THETA};
use dp_mcs::{
    Bid, DpHsrcAuction, Instance, PriceSchedule, ScheduleEngine, ScheduledMechanism, SelectionRule,
    Setting, SkillMatrix, Strategy, TaskId, WorkerId,
};
use mcs_verify::gen::{self, Shape};

fn small_setting(workers: usize) -> Setting {
    Setting::one(workers.max(8) * 4).scaled_down(4)
}

/// Builds with one strategy.
fn build(instance: &Instance, rule: SelectionRule, strategy: Strategy) -> PriceSchedule {
    ScheduleEngine::new(rule)
        .strategy(strategy)
        .build(instance)
        .expect("generated instances are coverable")
}

/// `(price, winners)` pairs must match even when interval compression
/// differs (the naive reference compresses after the fact).
fn assert_observationally_equal(a: &PriceSchedule, b: &PriceSchedule, context: &str) {
    assert_eq!(a.prices(), b.prices(), "{context}: price divergence");
    for i in 0..a.len() {
        assert_eq!(
            a.winners(i),
            b.winners(i),
            "{context}: winner divergence at price index {i}"
        );
    }
}

/// Rebuilds `instance` twice with logically identical skills: once from
/// dense rows, once from sparse `(worker, task, θ)` entries with the
/// `DEFAULT_THETA` cells omitted. Everything else is shared.
fn dense_and_sparse_built(instance: &Instance) -> (Instance, Instance) {
    let bids: Vec<Bid> = instance.bids().iter().map(|(_, b)| b.clone()).collect();
    let rows: Vec<Vec<f64>> = (0..instance.num_workers())
        .map(|w| instance.skills().worker_row(WorkerId(w as u32)))
        .collect();
    let entries: Vec<(WorkerId, TaskId, f64)> = rows
        .iter()
        .enumerate()
        .flat_map(|(w, row)| {
            row.iter()
                .enumerate()
                .filter(|&(_, &theta)| theta != DEFAULT_THETA)
                .map(move |(t, &theta)| (WorkerId(w as u32), TaskId(t as u32), theta))
        })
        .collect();
    let build = |skills: SkillMatrix| {
        Instance::builder(instance.num_tasks())
            .bids(bids.clone())
            .skills(skills)
            .error_bounds(instance.deltas().to_vec())
            .price_grid(instance.price_grid().clone())
            .cost_range(instance.cmin(), instance.cmax())
            .build()
            .expect("rebuilding a valid instance stays valid")
    };
    let dense = build(SkillMatrix::from_rows(rows.clone()).expect("valid rows"));
    let sparse = build(
        SkillMatrix::from_sparse(instance.num_workers(), instance.num_tasks(), entries)
            .expect("valid entries"),
    );
    (dense, sparse)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The default engine matches the naive per-price reference exactly —
    /// same prices, same winner sets in the same order — for both
    /// selection rules.
    #[test]
    fn default_engine_matches_naive(
        seed in 0u64..1000,
        workers in 8usize..32,
        marginal in 0u8..2,
    ) {
        let rule = if marginal == 1 {
            SelectionRule::MarginalCoverage
        } else {
            SelectionRule::StaticTotal
        };
        let g = small_setting(workers).generate(seed);
        let fast = build(&g.instance, rule, Strategy::Auto);
        let naive = reference_schedule(&g.instance, rule).expect("coverable");
        assert_observationally_equal(&fast, &naive, "default vs naive");
    }

    /// Every strategy agrees with the default engine winner-for-winner,
    /// so the CELF cache, the incremental sweep's residual reuse, and the
    /// indexed engine's rank order are all behaviour-preserving. The
    /// strategies share the interval assembly layer, so they must match
    /// as full structs (identical interval compression).
    #[test]
    fn all_strategies_agree(
        seed in 0u64..1000,
        workers in 8usize..32,
        marginal in 0u8..2,
    ) {
        let rule = if marginal == 1 {
            SelectionRule::MarginalCoverage
        } else {
            SelectionRule::StaticTotal
        };
        let g = small_setting(workers).generate(seed);
        let default = build(&g.instance, rule, Strategy::Auto);
        for strategy in Strategy::ALL {
            let other = build(&g.instance, rule, strategy);
            prop_assert_eq!(&default, &other, "strategy {}", strategy.name());
        }
    }

    /// Every strategy matches the naive reference on *every* generator
    /// shape — the adversarial structural regimes (ties, degenerate
    /// bundles, skewed skills, infeasibility) as well as both scaling
    /// shapes at reduced size — or fails with the same error kind.
    #[test]
    fn every_strategy_matches_reference_across_shapes(
        seed in 0u64..200,
        shape_idx in 0usize..Shape::ALL.len(),
        marginal in 0u8..2,
    ) {
        let rule = if marginal == 1 {
            SelectionRule::MarginalCoverage
        } else {
            SelectionRule::StaticTotal
        };
        let shape = Shape::ALL[shape_idx];
        // The scaling shapes are sized down so the reference stays cheap;
        // the small shapes run at their native size.
        let instance = match shape {
            Shape::LargeSparse => gen::large_sparse_sized(200, seed),
            Shape::ManyWorkers => gen::many_workers_sized(500, seed),
            _ => gen::generate(shape, seed),
        };
        let reference = reference_schedule(&instance, rule);
        for strategy in Strategy::ALL {
            let built = ScheduleEngine::new(rule).strategy(strategy).build(&instance);
            let context = format!("shape {} strategy {}", shape.name(), strategy.name());
            match (&built, &reference) {
                (Ok(a), Ok(b)) => assert_observationally_equal(a, b, &context),
                (Err(a), Err(b)) => prop_assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "{}: {} vs {}",
                    context,
                    a,
                    b
                ),
                (a, b) => prop_assert!(
                    false,
                    "{}: engine {:?} but reference {:?}",
                    context,
                    a.as_ref().map(PriceSchedule::len),
                    b.as_ref().map(PriceSchedule::len)
                ),
            }
        }
    }

    /// An instance whose skills were built densely and one whose skills
    /// were built from CSR entries are *the same instance*: byte-identical
    /// digest (so the service's `PmfCache` and batching keys coincide) and
    /// identical auction pipeline outputs — prices, winner sets, and the
    /// exponential-mechanism PMF, bit for bit.
    #[test]
    fn dense_and_sparse_built_instances_are_indistinguishable(
        seed in 0u64..1000,
        workers in 8usize..24,
    ) {
        let g = small_setting(workers).generate(seed);
        let (dense, sparse) = dense_and_sparse_built(&g.instance);
        prop_assert_eq!(dense.digest(), sparse.digest(), "digest divergence");
        prop_assert_eq!(g.instance.digest(), sparse.digest(), "rebuild changed the digest");

        let auction = DpHsrcAuction::new(0.5).expect("valid epsilon");
        let sd = auction.schedule(&dense).expect("coverable");
        let ss = auction.schedule(&sparse).expect("coverable");
        prop_assert_eq!(&sd, &ss);

        let pd = auction.pmf(&dense).expect("coverable");
        let ps = auction.pmf(&sparse).expect("coverable");
        prop_assert_eq!(pd.probs(), ps.probs(), "PMF divergence");
    }

    /// `SparseCoverage::restrict_to` commutes with the dense restriction:
    /// restricting the CSR view and sparsifying the restricted dense view
    /// land on the same object, with the same worker mapping, and the sub
    /// view's rows are exactly the selected originals.
    #[test]
    fn sparse_restrict_to_round_trips(
        seed in 0u64..1000,
        workers in 8usize..24,
        parity in 0u32..2,
    ) {
        let g = small_setting(workers).generate(seed);
        let sparse = g.instance.sparse_coverage();
        let dense = g.instance.coverage_problem();
        let mut subset: Vec<WorkerId> = (0..g.instance.num_workers() as u32)
            .filter(|w| w % 2 == parity)
            .map(WorkerId)
            .collect();
        if subset.is_empty() {
            subset.push(WorkerId(0));
        }
        let (sub_sparse, map_sparse) = sparse.restrict_to(&subset);
        let (sub_dense, map_dense) = dense.restrict_to(&subset);
        prop_assert_eq!(&map_sparse, &map_dense);
        prop_assert_eq!(&SparseCoverage::from_dense(&sub_dense), &sub_sparse);
        prop_assert_eq!(sub_sparse.requirements(), sparse.requirements());
        for (sub_row, &orig) in map_sparse.iter().enumerate() {
            let got: Vec<(usize, f64)> = sub_sparse.row(sub_row).collect();
            let want: Vec<(usize, f64)> = sparse.row(orig.index()).collect();
            prop_assert_eq!(got, want, "row mismatch for original worker {}", orig.0);
        }
    }
}
