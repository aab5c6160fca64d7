//! Campaign differential: the shared-lifecycle engine against a verbatim
//! port of the legacy multi-round runner.
//!
//! [`mcs_sim::campaign::run_campaign`] replaced the original multi-round
//! campaign loop with a [`RoundState`]-driven engine that also
//! carries skill tracking, reputation gating, adversaries and a per-round
//! ε-DP audit. The refactor's core claim is that on *benign* inputs (no
//! adversaries, no gate, no audit) the engine is byte-identical to the
//! legacy loop — same reports, same payments, same RNG stream position
//! afterwards. [`legacy_campaign`] keeps the pre-refactor loop alive
//! here, generic over the mechanism, as the oracle for that claim; the
//! sweep additionally runs an audited adversarial campaign per instance
//! and demands zero Theorem 2 violations on the price channel even when
//! the auction runs on estimated skills.
//!
//! [`RoundState`]: mcs_sim::campaign::RoundState

use rand::Rng;

use mcs_agg::{generate_labels, weighted_aggregate, DawidSkene, Label, LabelSet, Observation};
use mcs_auction::{DpHsrcAuction, ScheduledMechanism};
use mcs_num::rng;
use mcs_sim::campaign::{
    run_campaign, AdversaryGroup, AdversaryPlan, AdversaryStrategy, CampaignSpec, DpAuditConfig,
    ReputationConfig, SkillSource,
};
use mcs_sim::platform::RoundReport;
use mcs_types::{Bundle, Instance, McsError, Price, SkillMatrix, TrueType, WorkerId};

/// Derivation stream of campaign-check RNGs ("CMPV").
const CAMPAIGN_STREAM: u64 = 0x434D_5056;

/// Rounds per equivalence campaign — enough for the refit feedback loop
/// (estimate → auction → labels → estimate) to matter, small enough that
/// the sweep runs hundreds of campaigns.
const EQUIVALENCE_ROUNDS: usize = 3;
/// Rounds per audited adversarial campaign — one more than the default
/// reputation grace window, so the gate is live by the final round.
const ADVERSARIAL_ROUNDS: usize = 4;

/// Accumulated tallies from campaign checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct CampaignStats {
    /// Benign campaigns proven byte-identical to the legacy oracle.
    pub equivalence_pairs: usize,
    /// Rounds compared across those campaigns.
    pub rounds_compared: usize,
    /// Estimate-driven rounds that fell back to the prior skill record
    /// (in both runner and oracle, by equivalence).
    pub fallback_rounds: usize,
    /// Audited adversarial campaigns that finished with zero violations.
    pub audited_campaigns: usize,
    /// Neighbour PMF pairs the audits compared.
    pub audit_neighbours: usize,
    /// Neighbours the audits skipped for shifting the feasible support.
    pub audit_support_shifts: usize,
    /// Largest `|ln(P_a(p) / P_b(p))|` any audit observed.
    pub max_audit_log_ratio: f64,
    /// Workers the reputation gate had banned by campaign end.
    pub banned_workers: usize,
}

impl CampaignStats {
    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &CampaignStats) {
        self.equivalence_pairs += other.equivalence_pairs;
        self.rounds_compared += other.rounds_compared;
        self.fallback_rounds += other.fallback_rounds;
        self.audited_campaigns += other.audited_campaigns;
        self.audit_neighbours += other.audit_neighbours;
        self.audit_support_shifts += other.audit_support_shifts;
        self.max_audit_log_ratio = self.max_audit_log_ratio.max(other.max_audit_log_ratio);
        self.banned_workers += other.banned_workers;
    }
}

/// The truthful type profile of an instance: every worker's true bundle
/// and cost are exactly her bid (Definition 2 in reverse). The generator
/// draws bids directly, so this is the ground truth the campaign's
/// utility accounting runs against.
pub fn truthful_types(instance: &Instance) -> Vec<TrueType> {
    (0..instance.num_workers())
        .map(|i| {
            let bid = instance.bids().bid(WorkerId(i as u32));
            TrueType::new(bid.bundle().clone(), bid.price())
        })
        .collect()
}

/// What the pre-refactor campaign loop reported.
#[derive(Debug, Clone, PartialEq)]
pub struct LegacyCampaignReport {
    /// Per-round reports, in order.
    pub rounds: Vec<RoundReport>,
    /// Total spend across all rounds.
    pub total_spend: Price,
    /// Mean per-round aggregation accuracy.
    pub mean_accuracy: f64,
    /// Mean absolute error of the final per-worker accuracy estimates
    /// against the true mean skills (only when re-estimating).
    pub final_skill_error: Option<f64>,
    /// Rounds where the estimated skills looked uncoverable and the
    /// auction fell back to the platform's prior skill record.
    pub fallback_rounds: usize,
}

/// The pre-refactor campaign loop, verbatim, made generic over the
/// mechanism — the oracle the lifecycle engine is differenced against.
///
/// This is the exact body the original `Campaign::run` shipped with
/// (auction on the current belief, true-skill label generation,
/// belief-weighted aggregation, optional cold Dawid–Skene refit per
/// round, flip-folded final skill error), with
/// `DpHsrcAuction::new(self.epsilon)?` hoisted
/// into the caller-supplied `mechanism` — that call only validated ε and
/// never drew from the RNG, so hoisting preserves the stream.
///
/// # Errors
///
/// Propagates auction errors exactly like the legacy loop: an
/// estimate-driven infeasible round falls back to the true-skill instance
/// when `reestimate_skills` is set and aborts the campaign otherwise.
pub fn legacy_campaign<M, R>(
    mechanism: &M,
    rounds: usize,
    reestimate_skills: bool,
    instance: &Instance,
    types: &[TrueType],
    rng: &mut R,
) -> Result<LegacyCampaignReport, McsError>
where
    M: ScheduledMechanism,
    R: Rng + ?Sized,
{
    let mut reports = Vec::with_capacity(rounds);
    let mut total_spend = Price::ZERO;
    let mut all_labels = LabelSet::new(instance.num_tasks());
    let mut current = instance.clone();
    let mut fallback_rounds = 0usize;

    for _ in 0..rounds {
        let outcome = match mechanism.run(&current, rng) {
            Ok(o) => o,
            Err(_) if reestimate_skills => {
                fallback_rounds += 1;
                current = instance.clone();
                mechanism.run(&current, rng)?
            }
            Err(e) => return Err(e),
        };

        let assignment: Vec<(WorkerId, Bundle)> = outcome
            .winners()
            .iter()
            .map(|&w| (w, instance.bids().bid(w).bundle().clone()))
            .collect();
        let truth: Vec<Label> = (0..instance.num_tasks())
            .map(|_| Label::random(rng))
            .collect();
        let labels = generate_labels(instance.skills(), &truth, &assignment, rng);
        for obs in labels.iter() {
            all_labels.push(Observation { ..obs });
        }
        let estimates = weighted_aggregate(&labels, current.skills(), instance.num_tasks());
        let correct: Vec<bool> = estimates
            .iter()
            .zip(&truth)
            .map(|(e, t)| *e == Some(*t))
            .collect();
        let round_paid = outcome.total_payment();
        total_spend += round_paid;
        let utilities: Vec<Price> = (0..instance.num_workers())
            .map(|i| outcome.utility_of(WorkerId(i as u32), &types[i]))
            .collect();
        reports.push(RoundReport {
            outcome,
            truth,
            labels,
            estimates,
            correct,
            total_paid: round_paid,
            utilities,
        });

        if reestimate_skills {
            let fit = DawidSkene::default().fit(&all_labels, instance.num_workers());
            let estimated: Vec<Vec<f64>> = fit
                .accuracies
                .iter()
                .map(|&a| vec![a; instance.num_tasks()])
                .collect();
            let skills =
                SkillMatrix::from_rows(estimated).expect("EM accuracies are clamped to (0, 1)");
            current = Instance::builder(instance.num_tasks())
                .bid_profile(instance.bids().clone())
                .skills(skills)
                .error_bounds(instance.deltas().to_vec())
                .price_grid(instance.price_grid().clone())
                .cost_range(instance.cmin(), instance.cmax())
                .build()
                .expect("estimate swap preserves validity");
        }
    }

    let mean_accuracy = if reports.is_empty() {
        1.0
    } else {
        reports.iter().map(RoundReport::accuracy).sum::<f64>() / reports.len() as f64
    };
    let final_skill_error = reestimate_skills.then(|| {
        let fit = DawidSkene::default().fit(&all_labels, instance.num_workers());
        let mut err = 0.0;
        for i in 0..instance.num_workers() {
            let w = WorkerId(i as u32);
            let true_mean: f64 =
                instance.skills().worker_row(w).iter().sum::<f64>() / instance.num_tasks() as f64;
            let est = fit.accuracies[i];
            err += (est - true_mean).abs().min((1.0 - est - true_mean).abs());
        }
        err / instance.num_workers() as f64
    });

    Ok(LegacyCampaignReport {
        rounds: reports,
        total_spend,
        mean_accuracy,
        final_skill_error,
        fallback_rounds,
    })
}

/// Checks that the lifecycle engine reproduces the legacy loop
/// byte-for-byte on a benign campaign: identical round reports,
/// bit-identical aggregate statistics, and — the strongest form — an
/// identical RNG stream position afterwards.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check_equivalence<M: ScheduledMechanism>(
    mechanism: &M,
    reestimate: bool,
    instance: &Instance,
    seed: u64,
) -> Result<CampaignStats, String> {
    let types = truthful_types(instance);
    let mut r_legacy = rng::derived(seed, CAMPAIGN_STREAM);
    let mut r_engine = rng::derived(seed, CAMPAIGN_STREAM);
    let legacy = legacy_campaign(
        mechanism,
        EQUIVALENCE_ROUNDS,
        reestimate,
        instance,
        &types,
        &mut r_legacy,
    )
    .map_err(|e| format!("legacy oracle failed: {e}"))?;
    let spec = CampaignSpec {
        skills: if reestimate {
            SkillSource::RefitEachRound
        } else {
            SkillSource::Known
        },
        ..CampaignSpec::benign(EQUIVALENCE_ROUNDS)
    };
    let engine = run_campaign(&spec, mechanism, instance, &types, &mut r_engine)
        .map_err(|e| format!("lifecycle engine failed: {e}"))?;

    if engine.rounds != legacy.rounds {
        return Err(format!(
            "round reports diverged (engine {} rounds, legacy {})",
            engine.rounds.len(),
            legacy.rounds.len()
        ));
    }
    if engine.total_spend != legacy.total_spend {
        return Err(format!(
            "total spend diverged: engine {} vs legacy {}",
            engine.total_spend, legacy.total_spend
        ));
    }
    if engine.mean_accuracy.to_bits() != legacy.mean_accuracy.to_bits() {
        return Err(format!(
            "mean accuracy diverged: engine {} vs legacy {}",
            engine.mean_accuracy, legacy.mean_accuracy
        ));
    }
    if engine.final_skill_error.map(f64::to_bits) != legacy.final_skill_error.map(f64::to_bits) {
        return Err(format!(
            "final skill error diverged: engine {:?} vs legacy {:?}",
            engine.final_skill_error, legacy.final_skill_error
        ));
    }
    if engine.fallback_rounds != legacy.fallback_rounds {
        return Err(format!(
            "fallback rounds diverged: engine {} vs legacy {}",
            engine.fallback_rounds, legacy.fallback_rounds
        ));
    }
    if r_engine.gen::<u64>() != r_legacy.gen::<u64>() {
        return Err("RNG streams diverged: the engine consumed a different draw count".to_string());
    }
    Ok(CampaignStats {
        equivalence_pairs: 1,
        rounds_compared: engine.rounds.len(),
        fallback_rounds: engine.fallback_rounds,
        ..CampaignStats::default()
    })
}

/// Runs an audited adversarial campaign — a label-flip ring and a
/// bid-collusion ring against a reputation-gated platform auctioning on
/// estimated skills — and demands the per-round ε-DP audit of the price
/// channel find zero Theorem 2 violations.
///
/// # Errors
///
/// Returns a description of any audit violation or campaign failure.
pub fn check_adversarial<M: ScheduledMechanism>(
    mechanism: &M,
    instance: &Instance,
    seed: u64,
) -> Result<CampaignStats, String> {
    let n = instance.num_workers();
    if n < 7 {
        return Err(format!(
            "adversarial campaign check needs ≥ 7 workers, got {n}"
        ));
    }
    // The generator guarantees 12–20 workers, so two disjoint 3-rings at
    // the top of the id space always fit and stay a pool minority.
    let flip_ring: Vec<WorkerId> = (n - 3..n).map(|i| WorkerId(i as u32)).collect();
    let bid_ring: Vec<WorkerId> = (n - 6..n - 3).map(|i| WorkerId(i as u32)).collect();
    let spec = CampaignSpec {
        rounds: ADVERSARIAL_ROUNDS,
        skills: SkillSource::RefitEachRound,
        reputation: Some(ReputationConfig::default()),
        adversaries: AdversaryPlan {
            groups: vec![
                AdversaryGroup {
                    members: flip_ring,
                    strategy: AdversaryStrategy::LabelFlipRing { flip_prob: 0.8 },
                },
                AdversaryGroup {
                    members: bid_ring,
                    strategy: AdversaryStrategy::BidCollusionRing { markup: 0.3 },
                },
            ],
            seed,
        },
        audit: Some(DpAuditConfig {
            seed: seed ^ 0xA0D1,
            slack: 1e-6,
        }),
    };
    let types = truthful_types(instance);
    let mut r = rng::derived(seed, CAMPAIGN_STREAM ^ 0xAD);
    let outcome = run_campaign(&spec, mechanism, instance, &types, &mut r)
        .map_err(|e| format!("adversarial campaign failed: {e}"))?;
    let audit = outcome
        .audit
        .ok_or_else(|| "audit was configured but produced no report".to_string())?;
    if audit.violations != 0 {
        return Err(format!(
            "price-channel audit found {} violation(s): worst log-ratio {} vs ε = {} \
             ({} neighbours over {} rounds)",
            audit.violations,
            audit.worst_log_ratio,
            audit.epsilon,
            audit.neighbours_checked,
            audit.rounds_audited
        ));
    }
    Ok(CampaignStats {
        audited_campaigns: 1,
        audit_neighbours: audit.neighbours_checked,
        audit_support_shifts: audit.support_shifts,
        max_audit_log_ratio: audit.worst_log_ratio,
        banned_workers: outcome.banned_workers.len(),
        ..CampaignStats::default()
    })
}

/// The full campaign check the sweep runs per adversarial-campaign
/// instance: benign equivalence with known and re-estimated skills, then
/// the audited adversarial run.
///
/// # Errors
///
/// Returns a description of the first failing check.
pub fn check_campaign(
    instance: &Instance,
    epsilon: f64,
    seed: u64,
) -> Result<CampaignStats, String> {
    let mechanism = DpHsrcAuction::new(epsilon).map_err(|e| format!("invalid ε {epsilon}: {e}"))?;
    let mut stats = CampaignStats::default();
    for reestimate in [false, true] {
        let pair = check_equivalence(&mechanism, reestimate, instance, seed).map_err(|m| {
            format!(
                "benign equivalence failed ({} skills): {m}",
                if reestimate { "re-estimated" } else { "known" }
            )
        })?;
        stats.merge(&pair);
    }
    stats.merge(&check_adversarial(&mechanism, instance, seed)?);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Shape};

    #[test]
    fn campaign_check_passes_on_generated_instances() {
        for seed in 0..6u64 {
            let instance = generate(Shape::AdversarialCampaign, seed);
            let stats =
                check_campaign(&instance, 0.5, seed).unwrap_or_else(|m| panic!("seed {seed}: {m}"));
            assert_eq!(stats.equivalence_pairs, 2, "seed {seed}");
            assert_eq!(stats.rounds_compared, 2 * EQUIVALENCE_ROUNDS, "seed {seed}");
            assert_eq!(stats.audited_campaigns, 1, "seed {seed}");
            assert!(
                stats.audit_neighbours > 0,
                "seed {seed}: audit compared nothing"
            );
        }
    }

    #[test]
    fn equivalence_check_reports_oracle_failure_readably() {
        // An infeasible instance fails both runners identically; the
        // check surfaces the oracle's error rather than panicking.
        let instance = generate(Shape::InfeasibleCoverage, 1);
        let mechanism = DpHsrcAuction::new(0.5).unwrap();
        let err = check_equivalence(&mechanism, false, &instance, 1).unwrap_err();
        assert!(err.contains("legacy oracle failed"), "got: {err}");
    }
}
