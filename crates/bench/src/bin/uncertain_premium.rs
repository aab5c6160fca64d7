//! The price of robustness under chance-constrained coverage.
//!
//! For a fleet of seeded `uncertain-tasks` instances, the shortfall
//! budgets are tightened along a log-space ladder `γ_j(t) = γ_j^t`,
//! `t ∈ [0, 1]`: `t = 0` degenerates to the base quotas (γ → 1, no
//! inflation — the same uncertain weights with robustness switched
//! off), and `t = 1` recovers the generated budgets verbatim. Every
//! rung stays inside the generator's feasibility headroom because
//! `L_j(t) = t·L_j ≤ L_j`.
//!
//! Each rung reports two sides of the trade:
//!
//! * **payment premium** — the mean cheapest-entry total payment,
//!   normalized by the `t = 0` baseline: what the platform pays for
//!   the guarantee;
//! * **empirical shortfall** — the Monte Carlo shortfall check from
//!   `mcs-verify` (`chance::check_instance`) over the same instances:
//!   the largest observed `rate / γ_j` ratio and the largest analytic
//!   Chernoff bound at the sampled winner sets, showing how much of
//!   the budget the bound actually spends.
//!
//! ```text
//! usage: uncertain_premium [--seed N] [--out PATH] [--quick]
//! ```
//!
//! `--quick` shrinks the fleet and the sample count to a smoke-test
//! size (used by CI; the checked-in JSON comes from a full run). The JSON
//! records the measured commit and the number of available cores.

use serde::Serialize;

use mcs_auction::{ScheduleEngine, SelectionRule};
use mcs_bench::Cli;
use mcs_types::{BernoulliCompletion, CompletionModel, Instance};
use mcs_verify::chance::{self, ChanceStats};
use mcs_verify::gen::{generate, Shape};

/// Ladder positions in log-space toward the generated budgets.
const LADDER: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// Wilson z matching the verify harness (≈ 1e-4 two-sided).
const WILSON_Z: f64 = 3.89;

#[derive(Debug, Serialize)]
struct RungRow {
    /// Ladder position: exponent `t` applied to every budget.
    t: f64,
    /// Largest (loosest-to-tightest: smallest) budget on the rung.
    gamma_min: f64,
    gamma_max: f64,
    /// Mean cheapest-entry payment across the fleet, in price units.
    mean_payment: f64,
    /// `mean_payment` / the `t = 0` rung's mean payment.
    premium: f64,
    /// Largest empirical `shortfall rate / γ_j` across fleet and tasks.
    max_rate_ratio: f64,
    /// Largest analytic Chernoff bound at the sampled winner sets.
    max_analytic_bound: f64,
    /// Monte Carlo samples per instance.
    samples: u64,
}

#[derive(Debug, Serialize)]
struct BenchOutput {
    bench: String,
    commit: String,
    cores: usize,
    seed: u64,
    fleet: u64,
    quick: bool,
    rows: Vec<RungRow>,
}

/// Rebuilds `instance` with every budget raised to the power `t`.
fn rung_instance(instance: &Instance, t: f64) -> Instance {
    let CompletionModel::Bernoulli(b) = instance.completion() else {
        panic!("uncertain-tasks instances carry a Bernoulli model");
    };
    let gammas: Vec<f64> = b
        .gammas()
        .iter()
        .map(|g| g.powf(t).clamp(1e-9, 1.0 - 1e-9))
        .collect();
    let model = CompletionModel::Bernoulli(BernoulliCompletion::new(b.rows().to_vec(), gammas));
    instance
        .clone()
        .with_completion(model)
        .expect("rescaled model is valid")
}

fn measure_rung(fleet: u64, base_seed: u64, t: f64, samples: u64) -> RungRow {
    let mut stats = ChanceStats::default();
    let mut payments = 0.0f64;
    let mut gamma_min = f64::INFINITY;
    let mut gamma_max = 0.0f64;
    for seed in 0..fleet {
        let instance = rung_instance(&generate(Shape::UncertainTasks, base_seed + seed), t);
        if let CompletionModel::Bernoulli(b) = instance.completion() {
            for &g in b.gammas() {
                gamma_min = gamma_min.min(g);
                gamma_max = gamma_max.max(g);
            }
        }
        let schedule = ScheduleEngine::new(SelectionRule::MarginalCoverage)
            .build(&instance)
            .expect("every ladder rung is feasible by construction");
        let payment = schedule
            .min_total_payment()
            .expect("feasible schedules are non-empty");
        payments += payment.as_f64();
        let checked = chance::check_instance(
            Shape::UncertainTasks,
            base_seed + seed,
            &instance,
            samples,
            WILSON_Z,
        )
        .unwrap_or_else(|report| panic!("MC shortfall check failed at t = {t}: {report}"));
        stats.merge(&checked);
    }
    RungRow {
        t,
        gamma_min,
        gamma_max,
        mean_payment: payments / fleet as f64,
        premium: f64::NAN, // filled in once the t = 0 baseline is known
        max_rate_ratio: stats.max_rate_ratio,
        max_analytic_bound: stats.max_analytic_bound,
        samples: stats.samples,
    }
}

fn main() {
    let (cli, out) = Cli::parse_recorded("BENCH_uncertain.json");
    let (seed, quick) = (cli.seed, cli.quick);
    let (fleet, samples) = if quick { (8, 1_000) } else { (40, 10_000) };

    println!("    t   γ range              mean payment  premium  rate/γ  analytic");
    let mut rows: Vec<RungRow> = Vec::new();
    for t in LADDER {
        let mut row = measure_rung(fleet, seed, t, samples);
        let base = rows.first().map_or(row.mean_payment, |r| r.mean_payment);
        row.premium = row.mean_payment / base;
        println!(
            "{:5.2}   [{:.2e}, {:.2e}]  {:12.1}  {:7.3}  {:6.3}  {:8.4}",
            row.t,
            row.gamma_min,
            row.gamma_max,
            row.mean_payment,
            row.premium,
            row.max_rate_ratio,
            row.max_analytic_bound
        );
        rows.push(row);
    }
    assert!(
        rows.iter().all(|r| r.max_rate_ratio <= 1.0),
        "some task overspent its shortfall budget"
    );

    let output = BenchOutput {
        bench: "uncertain_premium".into(),
        commit: mcs_bench::commit(),
        cores: mcs_bench::cores(),
        seed,
        fleet,
        quick,
        rows,
    };
    let json = serde_json::to_string_pretty(&output).expect("serialize bench output");
    std::fs::write(&out, json + "\n").expect("write bench output");
    println!("wrote {}", out.display());
}
