//! Accuracy and payment degradation under collusion rings, with and
//! without the reputation gate.
//!
//! The fleet is a redundancy-rich variant of the paper's Setting I
//! (`Setting::one(80).scaled_down(2)` with the per-task error bounds
//! loosened to `δ ∈ [0.7, 0.75]`): the gate can only act if banning a
//! fifth of the pool leaves the coverage problem feasible, so the
//! experiment needs coverage slack — with the stock Table I bounds the
//! engine's feasibility guard (`gate_skipped_rounds`) stands the gate
//! down almost every round and the comparison is vacuous.
//!
//! A label-flip ring is recruited from the workers that actually win a
//! benign probe campaign (colluders who never win cannot poison
//! anything), sized as a fraction of the pool. Each ring size then runs
//! two known-skill campaigns from identical seeds — one with the
//! reputation gate off, one with it on — and reports:
//!
//! * **overall / steady-state accuracy** — mean aggregation accuracy
//!   across all rounds and across the second half, where the gate has
//!   had time to ban the ring;
//! * **recovery** — how much of the steady-state accuracy lost to the
//!   ring the gate wins back: `(gated − ungated) / (benign − ungated)`;
//! * **spend, bans and stand-downs** — total payments, workers banned,
//!   and rounds where restricting to the admitted set would have been
//!   infeasible so the gate stood down;
//! * **ε-DP audit** — every campaign runs the per-round price-channel
//!   audit; any Theorem 2 violation aborts the bench.
//!
//! A second section repeats the 20%-ring rung with estimated skills
//! (`SkillSource::RefitEachRound`). It documents a real blind spot
//! rather than a headline: under-estimated `θ̂` makes the restricted
//! pool look infeasible, the feasibility guard stands the gate down most
//! rounds, and recovery collapses — the gate needs either trustworthy
//! skill estimates or generous coverage slack to act.
//!
//! ```text
//! usage: campaign [--seed N] [--out PATH] [--quick]
//! ```
//!
//! `--quick` shrinks the fleet and the round count to a smoke-test size
//! (used by CI; the checked-in JSON comes from a full run). The JSON
//! records the measured commit and the number of available cores.

use serde::Serialize;

use mcs_auction::DpHsrcAuction;
use mcs_bench::Cli;
use mcs_num::rng;
use mcs_sim::campaign::{
    run_campaign, AdversaryGroup, AdversaryPlan, AdversaryStrategy, CampaignOutcome, CampaignSpec,
    DpAuditConfig, ReputationConfig, SkillSource,
};
use mcs_sim::Setting;
use mcs_types::{Instance, WorkerId};
use mcs_verify::campaign::truthful_types;

/// Ring sizes as fractions of the worker pool.
const RING_FRACTIONS: [f64; 4] = [0.0, 0.1, 0.2, 0.3];
/// Privacy budget per auction round (Table I's `ε = 0.1`).
const EPSILON: f64 = 0.1;
/// Per-task probability of entering the ring's per-round flip set.
const FLIP_PROB: f64 = 1.0;
/// Loosened per-task error bounds giving the gate feasibility headroom.
const DELTA_RANGE: (f64, f64) = (0.7, 0.75);

#[derive(Debug, Serialize)]
struct RingRow {
    /// Ring size as a fraction of the pool.
    ring_frac: f64,
    /// Mean ring size in workers across the fleet.
    mean_ring_size: f64,
    /// Mean accuracy across all rounds, gate off.
    accuracy_ungated: f64,
    /// Mean accuracy across all rounds, gate on.
    accuracy_gated: f64,
    /// Mean accuracy over the second half of the rounds, gate off.
    steady_accuracy_ungated: f64,
    /// Mean accuracy over the second half of the rounds, gate on.
    steady_accuracy_gated: f64,
    /// Fraction of the steady-state accuracy lost to the ring that the
    /// gate recovers (`NaN` at ring 0, where nothing is lost).
    steady_recovery: f64,
    /// Mean total spend per campaign, gate off, in price units.
    spend_ungated: f64,
    /// Mean total spend per campaign, gate on.
    spend_gated: f64,
    /// Mean workers banned per gated campaign.
    mean_bans: f64,
    /// Mean rounds per gated campaign where the gate stood down because
    /// the admitted-set restriction would have been infeasible.
    mean_gate_skipped: f64,
    /// Largest `|ln(P_a(p) / P_b(p))|` any audit observed on the rung.
    max_audit_log_ratio: f64,
    /// Price-channel ε violations across every audited campaign (the
    /// bench aborts unless this is zero).
    audit_violations: usize,
}

/// The estimated-skill repeat of the 20%-ring rung: same fleet, same
/// ring, `SkillSource::RefitEachRound` instead of known skills.
#[derive(Debug, Serialize)]
struct RefitRow {
    ring_frac: f64,
    steady_accuracy_benign: f64,
    steady_accuracy_ungated: f64,
    steady_accuracy_gated: f64,
    steady_recovery: f64,
    mean_bans: f64,
    mean_gate_skipped: f64,
    audit_violations: usize,
}

#[derive(Debug, Serialize)]
struct BenchOutput {
    bench: String,
    commit: String,
    cores: usize,
    seed: u64,
    fleet: u64,
    rounds: usize,
    epsilon: f64,
    flip_prob: f64,
    delta_range: (f64, f64),
    quick: bool,
    rows: Vec<RingRow>,
    refit: RefitRow,
}

/// The redundancy-rich Setting I variant every campaign runs on.
fn bench_setting() -> Setting {
    let mut setting = Setting::one(80).scaled_down(2);
    setting.delta_range = DELTA_RANGE;
    setting
}

/// Workers of one benign probe campaign ranked by rounds won, most
/// first — the recruitment pool for the collusion ring.
fn winners_by_rounds_won(instance: &Instance, rounds: usize, seed: u64) -> Vec<WorkerId> {
    let types = truthful_types(instance);
    let mechanism = DpHsrcAuction::new(EPSILON).expect("valid ε");
    let mut r = rng::derived(seed, 0x5052_4F42); // "PROB"
    let probe = run_campaign(
        &CampaignSpec::benign(rounds),
        &mechanism,
        instance,
        &types,
        &mut r,
    )
    .expect("benign probe campaign runs");
    let mut wins = vec![0usize; instance.num_workers()];
    for round in &probe.rounds {
        for &w in round.outcome.winners() {
            wins[w.index()] += 1;
        }
    }
    let mut order: Vec<WorkerId> = (0..instance.num_workers())
        .map(|i| WorkerId(i as u32))
        .collect();
    order.sort_by_key(|w| std::cmp::Reverse(wins[w.index()]));
    order
}

/// One audited campaign under the given ring.
fn run_ring_campaign(
    instance: &Instance,
    ring: &[WorkerId],
    gated: bool,
    skills: SkillSource,
    rounds: usize,
    seed: u64,
) -> CampaignOutcome {
    let types = truthful_types(instance);
    let mechanism = DpHsrcAuction::new(EPSILON).expect("valid ε");
    let adversaries = if ring.is_empty() {
        AdversaryPlan::none()
    } else {
        AdversaryPlan {
            groups: vec![AdversaryGroup {
                members: ring.to_vec(),
                strategy: AdversaryStrategy::LabelFlipRing {
                    flip_prob: FLIP_PROB,
                },
            }],
            seed,
        }
    };
    let spec = CampaignSpec {
        rounds,
        skills,
        reputation: gated.then(ReputationConfig::default),
        adversaries,
        audit: Some(DpAuditConfig {
            seed: seed ^ 0xBE4C,
            slack: 1e-6,
        }),
    };
    let mut r = rng::derived(seed, 0x52_494E47); // "RING"
    run_campaign(&spec, &mechanism, instance, &types, &mut r).expect("ring campaign runs")
}

/// Mean accuracy over the second half of the rounds — past the default
/// reputation grace window, where the gate is live.
fn steady_accuracy(outcome: &CampaignOutcome) -> f64 {
    let per_round = &outcome.accuracy_per_round;
    let tail = &per_round[per_round.len() / 2..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// The ring recruited for `frac` on the `seed` instance.
fn recruit_ring(instance: &Instance, frac: f64, rounds: usize, seed: u64) -> Vec<WorkerId> {
    let ring_size = (frac * instance.num_workers() as f64).round() as usize;
    winners_by_rounds_won(instance, rounds, seed)
        .into_iter()
        .take(ring_size)
        .collect()
}

fn measure_ring(fleet: u64, base_seed: u64, frac: f64, rounds: usize) -> RingRow {
    let setting = bench_setting();
    let mut acc_un = 0.0f64;
    let mut acc_ga = 0.0f64;
    let mut steady_un = 0.0f64;
    let mut steady_ga = 0.0f64;
    let mut spend_un = 0.0f64;
    let mut spend_ga = 0.0f64;
    let mut bans = 0usize;
    let mut gate_skipped = 0usize;
    let mut ring_sizes = 0usize;
    let mut max_log_ratio = 0.0f64;
    let mut violations = 0usize;
    for i in 0..fleet {
        let seed = base_seed + i;
        let instance = setting.generate(seed).instance;
        let ring = recruit_ring(&instance, frac, rounds, seed);
        ring_sizes += ring.len();
        for gated in [false, true] {
            let outcome =
                run_ring_campaign(&instance, &ring, gated, SkillSource::Known, rounds, seed);
            let audit = outcome.audit.as_ref().expect("audit was configured");
            max_log_ratio = max_log_ratio.max(audit.worst_log_ratio);
            violations += audit.violations;
            let (acc, steady, spend) = (
                outcome.mean_accuracy,
                steady_accuracy(&outcome),
                outcome.total_spend.as_f64(),
            );
            if gated {
                acc_ga += acc;
                steady_ga += steady;
                spend_ga += spend;
                bans += outcome.banned_workers.len();
                gate_skipped += outcome.gate_skipped_rounds;
            } else {
                acc_un += acc;
                steady_un += steady;
                spend_un += spend;
            }
        }
    }
    let n = fleet as f64;
    RingRow {
        ring_frac: frac,
        mean_ring_size: ring_sizes as f64 / n,
        accuracy_ungated: acc_un / n,
        accuracy_gated: acc_ga / n,
        steady_accuracy_ungated: steady_un / n,
        steady_accuracy_gated: steady_ga / n,
        steady_recovery: f64::NAN, // filled in once the benign baseline is known
        spend_ungated: spend_un / n,
        spend_gated: spend_ga / n,
        mean_bans: bans as f64 / n,
        mean_gate_skipped: gate_skipped as f64 / n,
        max_audit_log_ratio: max_log_ratio,
        audit_violations: violations,
    }
}

/// The estimated-skill repeat: the same fleet and 20% rings rerun with
/// `SkillSource::RefitEachRound`, benign / ungated / gated.
fn measure_refit(fleet: u64, base_seed: u64, frac: f64, rounds: usize) -> RefitRow {
    let setting = bench_setting();
    let mut steady_be = 0.0f64;
    let mut steady_un = 0.0f64;
    let mut steady_ga = 0.0f64;
    let mut bans = 0usize;
    let mut gate_skipped = 0usize;
    let mut violations = 0usize;
    for i in 0..fleet {
        let seed = base_seed + i;
        let instance = setting.generate(seed).instance;
        let ring = recruit_ring(&instance, frac, rounds, seed);
        let benign = run_ring_campaign(
            &instance,
            &[],
            false,
            SkillSource::RefitEachRound,
            rounds,
            seed,
        );
        violations += benign.audit.as_ref().expect("audit configured").violations;
        steady_be += steady_accuracy(&benign);
        for gated in [false, true] {
            let outcome = run_ring_campaign(
                &instance,
                &ring,
                gated,
                SkillSource::RefitEachRound,
                rounds,
                seed,
            );
            violations += outcome.audit.as_ref().expect("audit configured").violations;
            if gated {
                steady_ga += steady_accuracy(&outcome);
                bans += outcome.banned_workers.len();
                gate_skipped += outcome.gate_skipped_rounds;
            } else {
                steady_un += steady_accuracy(&outcome);
            }
        }
    }
    let n = fleet as f64;
    let (be, un, ga) = (steady_be / n, steady_un / n, steady_ga / n);
    RefitRow {
        ring_frac: frac,
        steady_accuracy_benign: be,
        steady_accuracy_ungated: un,
        steady_accuracy_gated: ga,
        steady_recovery: (ga - un) / (be - un),
        mean_bans: bans as f64 / n,
        mean_gate_skipped: gate_skipped as f64 / n,
        audit_violations: violations,
    }
}

fn main() {
    let (cli, out) = Cli::parse_recorded("BENCH_campaign.json");
    let (seed, quick) = (cli.seed, cli.quick);
    let (fleet, rounds) = if quick { (3, 8) } else { (16, 16) };

    println!(" ring  size  acc −gate  acc +gate  steady −gate  steady +gate  recovery  bans  skipped  worst-lr");
    let mut rows: Vec<RingRow> = Vec::new();
    for frac in RING_FRACTIONS {
        let mut row = measure_ring(fleet, seed, frac, rounds);
        // The benign rung's ungated steady-state accuracy is the ceiling
        // the recovery metric is measured against.
        let benign = rows
            .first()
            .map_or(row.steady_accuracy_ungated, |r| r.steady_accuracy_ungated);
        let lost = benign - row.steady_accuracy_ungated;
        row.steady_recovery = if lost > 1e-9 {
            (row.steady_accuracy_gated - row.steady_accuracy_ungated) / lost
        } else {
            f64::NAN
        };
        println!(
            "{:5.2}  {:4.1}  {:9.3}  {:9.3}  {:12.3}  {:12.3}  {:8.3}  {:4.1}  {:7.1}  {:8.4}",
            row.ring_frac,
            row.mean_ring_size,
            row.accuracy_ungated,
            row.accuracy_gated,
            row.steady_accuracy_ungated,
            row.steady_accuracy_gated,
            row.steady_recovery,
            row.mean_bans,
            row.mean_gate_skipped,
            row.max_audit_log_ratio
        );
        assert_eq!(
            row.audit_violations, 0,
            "ε-DP price-channel audit found violations at ring {}",
            row.ring_frac
        );
        rows.push(row);
    }
    if !quick {
        let at_20 = rows
            .iter()
            .find(|r| (r.ring_frac - 0.2).abs() < 1e-9)
            .expect("20% rung is in RING_FRACTIONS");
        if at_20.steady_recovery < 0.5 {
            eprintln!(
                "warning: recovery at the 20% ring is {:.3}, below the 0.5 the default seed achieves",
                at_20.steady_recovery
            );
        }
    }

    let refit = measure_refit(fleet, seed, 0.2, rounds);
    println!(
        "refit 0.20: benign {:.3}  −gate {:.3}  +gate {:.3}  recovery {:.3}  bans {:.1}  stood down {:.1}/{} rounds",
        refit.steady_accuracy_benign,
        refit.steady_accuracy_ungated,
        refit.steady_accuracy_gated,
        refit.steady_recovery,
        refit.mean_bans,
        refit.mean_gate_skipped,
        rounds
    );
    assert_eq!(
        refit.audit_violations, 0,
        "ε-DP price-channel audit found violations on the estimated-skill rung"
    );

    let output = BenchOutput {
        bench: "campaign".into(),
        commit: mcs_bench::commit(),
        cores: mcs_bench::cores(),
        seed,
        fleet,
        rounds,
        epsilon: EPSILON,
        flip_prob: FLIP_PROB,
        delta_range: DELTA_RANGE,
        quick,
        rows,
        refit,
    };
    let json = serde_json::to_string_pretty(&output).expect("serialize bench output");
    std::fs::write(&out, json + "\n").expect("write bench output");
    println!("wrote {}", out.display());
}
