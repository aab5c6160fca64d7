//! Integration tests of the exact-solver substrate against the auction
//! layer: branch-and-bound vs exhaustive search on real TPM instances, and
//! the compressed schedule vs the naive per-price reference.

use dp_mcs::auction::{reference_schedule, ScheduleEngine, SelectionRule};
use dp_mcs::ilp::{solve_exhaustive, BnbOptions, CoveringIlp};
use dp_mcs::{Setting, TaskId, WorkerId};

/// Builds the TPM covering ILP for a generated instance restricted to the
/// cheapest `pool` workers.
fn tpm_ilp(instance: &dp_mcs::Instance, pool: usize) -> CoveringIlp {
    let cover = instance.coverage_problem();
    let mut ids: Vec<WorkerId> = (0..instance.num_workers() as u32).map(WorkerId).collect();
    ids.sort_by_key(|&w| (instance.bids().bid(w).price(), w));
    ids.truncate(pool);
    let weights: Vec<Vec<f64>> = ids.iter().map(|&w| cover.worker_row(w).to_vec()).collect();
    let reqs: Vec<f64> = (0..instance.num_tasks())
        .map(|j| cover.requirement(TaskId(j as u32)))
        .collect();
    CoveringIlp::uniform_cost(weights, reqs).unwrap()
}

#[test]
fn bnb_matches_exhaustive_on_generated_tpm_instances() {
    // Tiny pools keep 2^n enumeration tractable while using *real*
    // generated coverage structure, not synthetic toys.
    let mut s = Setting::one(80).scaled_down(6);
    s.num_workers = 14;
    for seed in [1u64, 2, 3, 4] {
        let g = s.generate(seed);
        let ilp = tpm_ilp(&g.instance, 14);
        let exact = solve_exhaustive(&ilp);
        let bnb = ilp.solve(&BnbOptions::default()).unwrap();
        match exact {
            None => assert!(
                bnb.best.is_none(),
                "seed {seed}: bnb found infeasible cover"
            ),
            Some(sel) => {
                let best = bnb.best.unwrap();
                assert!(
                    (best.objective - sel.objective).abs() < 1e-9,
                    "seed {seed}: bnb {} vs exhaustive {}",
                    best.objective,
                    sel.objective
                );
                assert!(ilp.is_feasible(&best.selected));
            }
        }
    }
}

#[test]
fn compressed_schedule_equals_naive_reference_on_generated_instances() {
    let s = Setting::one(80).scaled_down(3);
    for seed in [11u64, 12] {
        let g = s.generate(seed);
        for rule in [SelectionRule::MarginalCoverage, SelectionRule::StaticTotal] {
            let fast = ScheduleEngine::new(rule).build(&g.instance).unwrap();
            let naive = reference_schedule(&g.instance, rule).unwrap();
            assert_eq!(fast.prices(), naive.prices(), "seed {seed} {rule:?}");
            for i in 0..fast.len() {
                assert_eq!(
                    fast.winners(i),
                    naive.winners(i),
                    "seed {seed} {rule:?} price {}",
                    fast.price(i)
                );
            }
        }
    }
}

#[test]
fn greedy_winner_sets_never_smaller_than_optimal() {
    // Lemma 2 direction check: |S_greedy(p)| ≥ |S_OPT(p)| at every price.
    use dp_mcs::auction::OptimalMechanism;
    let mut s = Setting::one(80).scaled_down(6);
    s.num_workers = 16;
    let g = s.generate(5);
    let schedule = ScheduleEngine::new(SelectionRule::MarginalCoverage)
        .build(&g.instance)
        .unwrap();
    let opt = OptimalMechanism::new().solve(&g.instance).unwrap();
    // The optimal mechanism reports per-interval cardinalities; each
    // corresponds to the first grid price of the interval.
    for solve in &opt.solves {
        let idx = schedule
            .prices()
            .iter()
            .position(|&p| p == solve.price)
            .expect("same feasible support");
        assert!(
            schedule.winners(idx).len() >= solve.cardinality,
            "greedy beat the optimum at {} — impossible",
            solve.price
        );
    }
}

#[test]
fn lp_relaxation_lower_bounds_integer_optimum() {
    use dp_mcs::lp::{LinearProgram, LpOutcome};
    let mut s = Setting::one(80).scaled_down(6);
    s.num_workers = 12;
    let g = s.generate(6);
    let ilp = tpm_ilp(&g.instance, 12);
    let n = ilp.num_vars();
    let mut lp = LinearProgram::minimize(vec![1.0; n]);
    for j in 0..ilp.num_constraints() {
        let row: Vec<f64> = (0..n).map(|i| ilp.weights_of(i)[j]).collect();
        lp = lp.geq(row, ilp.requirements()[j]);
    }
    lp = lp.upper_bounds(1.0);
    let lp_obj = match lp.solve().unwrap() {
        LpOutcome::Optimal(sol) => sol.objective(),
        LpOutcome::Infeasible => return, // integer version infeasible too
        LpOutcome::Unbounded => panic!("covering LP cannot be unbounded"),
    };
    if let Some(sel) = solve_exhaustive(&ilp) {
        assert!(
            lp_obj <= sel.objective + 1e-7,
            "LP bound {lp_obj} above integer optimum {}",
            sel.objective
        );
    }
}
