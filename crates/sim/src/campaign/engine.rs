//! The multi-round campaign engine over the shared round lifecycle.
//!
//! [`run_campaign`] is the single loop behind every multi-round surface in
//! the simulator. It generalizes the original multi-round runner (kept
//! verbatim as the oracle in `mcs-verify`'s `campaign` module) along four
//! axes while consuming the main RNG stream *identically* on benign inputs
//! (the `campaign_equivalence` suite in `mcs-verify` pins this
//! byte-for-byte):
//!
//! * **mechanism** — any [`ScheduledMechanism`] (DP-hSRC, the §VII-A
//!   baseline, …);
//! * **skills** — the auction can run on the true `θ`, on a cold
//!   Dawid–Skene refit each round (the legacy behaviour), or on a
//!   [`SkillTracker`] (warm restarts, exponential forgetting, gold
//!   blending);
//! * **adversaries** — an [`AdversaryPlan`] of sleepers, label-flip rings
//!   and bid-collusion rings, all drawing from derived streams only;
//! * **defence & audit** — a [`ReputationBook`] gating the admitted
//!   worker set (via [`Instance::restrict_to_workers`]), and a per-round
//!   ε-DP audit of the price channel against bid neighbours.

use rand::Rng;

use mcs_agg::{
    generate_labels, weighted_aggregate, DawidSkene, Label, LabelSet, Observation, SkillTracker,
    TrackerConfig,
};
use mcs_auction::{privacy, AuctionOutcome, ScheduledMechanism};
use mcs_num::rng;
use mcs_types::{Bundle, Instance, McsError, Price, SkillMatrix, TrueType, WorkerId};
use serde::{Deserialize, Serialize};

use crate::campaign::adversary::AdversaryPlan;
use crate::campaign::reputation::{ReputationBook, ReputationConfig};
use crate::campaign::state::{RoundPhase, RoundState};
use crate::neighbour::{price_push_neighbour, random_worker, PricePush};
use crate::platform::RoundReport;

/// Derivation stream of the DP audit's neighbour choices ("DPAU").
const AUDIT_STREAM: u64 = 0x4450_4155;

/// Where the auction's skill matrix `θ` comes from, round over round.
#[derive(Debug, Clone, PartialEq)]
pub enum SkillSource {
    /// The true skills, every round (the paper's idealized platform).
    Known,
    /// Cold Dawid–Skene refit of the full label history after each round —
    /// exactly the original runner's re-estimating behaviour, RNG draw
    /// for RNG draw.
    RefitEachRound,
    /// A [`SkillTracker`]: warm-restarted EM over a forgetting-weighted
    /// round window, blended with gold-task estimates.
    Tracked(TrackerConfig),
}

impl SkillSource {
    /// Whether the platform learns `θ̂` (and therefore falls back to the
    /// prior skill record when an estimate-driven round looks
    /// uncoverable).
    pub fn learns(&self) -> bool {
        !matches!(self, SkillSource::Known)
    }
}

/// Configuration of the per-round ε-DP audit of the price channel.
///
/// Each round, the audit picks a worker from a derived stream, builds the
/// two price-push bid neighbours of the instance that was *actually
/// auctioned* (after θ̂ swaps, bid tampering and reputation gating), and
/// compares the mechanism's exact output PMFs: every price's probability
/// ratio must stay within `e^ε` (Theorem 2), up to `slack` in log space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpAuditConfig {
    /// Seed of the audit's derived worker-choice stream.
    pub seed: u64,
    /// Additive slack on the log-ratio bound, absorbing float noise in
    /// the two PMF normalizations.
    pub slack: f64,
}

impl Default for DpAuditConfig {
    fn default() -> Self {
        DpAuditConfig {
            seed: 0xD9,
            slack: 1e-6,
        }
    }
}

/// What the ε-DP audit found.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DpAuditReport {
    /// Rounds the audit ran on.
    pub rounds_audited: usize,
    /// Bid neighbours whose PMFs were compared.
    pub neighbours_checked: usize,
    /// Neighbours skipped because the pushed bid left no feasible price.
    pub neighbours_infeasible: usize,
    /// Neighbours skipped because the push changed the feasible price
    /// support itself (the paper's analysis fixes the feasible set; see
    /// [`mcs_auction::privacy::aligned_probs`]).
    pub support_shifts: usize,
    /// The ε the price channel claims.
    pub epsilon: f64,
    /// Largest observed `|ln(P_a(p) / P_b(p))|` across all compared
    /// neighbour pairs and prices.
    pub worst_log_ratio: f64,
    /// Neighbour comparisons that exceeded `ε + slack` (zero means the
    /// Theorem 2 guarantee held everywhere the audit looked).
    pub violations: usize,
}

/// Full configuration of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Number of rounds.
    pub rounds: usize,
    /// Where the auction's `θ` comes from.
    pub skills: SkillSource,
    /// Reputation gate on the admitted-worker set (`None` disables it).
    pub reputation: Option<ReputationConfig>,
    /// The worker-side adversaries ([`AdversaryPlan::none`] for benign).
    pub adversaries: AdversaryPlan,
    /// Per-round ε-DP audit of the price channel (`None` disables it).
    pub audit: Option<DpAuditConfig>,
}

impl CampaignSpec {
    /// A benign spec: known skills, no gate, no adversaries, no audit.
    pub fn benign(rounds: usize) -> CampaignSpec {
        CampaignSpec {
            rounds,
            skills: SkillSource::Known,
            reputation: None,
            adversaries: AdversaryPlan::none(),
            audit: None,
        }
    }

    /// Structural validation against the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates adversary and reputation validation errors.
    pub fn validate(&self, num_workers: usize) -> Result<(), McsError> {
        self.adversaries.validate(num_workers)?;
        if let Some(rep) = &self.reputation {
            rep.validate()?;
        }
        if let SkillSource::Tracked(cfg) = &self.skills {
            cfg.validate()?;
        }
        Ok(())
    }
}

/// Everything a campaign produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Per-round reports, in order.
    pub rounds: Vec<RoundReport>,
    /// Total spend across all rounds.
    pub total_spend: Price,
    /// Mean per-round aggregation accuracy.
    pub mean_accuracy: f64,
    /// Mean absolute (flip-folded) error of the final per-worker skill
    /// estimates against the true mean skills; `None` when skills were
    /// known.
    pub final_skill_error: Option<f64>,
    /// Rounds where the estimate-driven auction looked uncoverable and
    /// fell back to the platform's prior skill record.
    pub fallback_rounds: usize,
    /// Per-round aggregation accuracy, in order.
    pub accuracy_per_round: Vec<f64>,
    /// Per-round flip-folded `θ̂` error, recorded after each refit (empty
    /// when skills were known).
    pub skill_error_per_round: Vec<f64>,
    /// Round-major reputation-score snapshots (empty when the gate was
    /// off).
    pub reputation_trajectories: Vec<Vec<f64>>,
    /// Workers below the ban threshold when the campaign ended.
    pub banned_workers: Vec<WorkerId>,
    /// Rounds where the gate wanted to exclude workers but the admitted
    /// pool could not cover the tasks, so the full pool ran instead.
    pub gate_skipped_rounds: usize,
    /// The ε-DP audit's findings (`None` when the audit was off).
    pub audit: Option<DpAuditReport>,
}

/// Mean absolute per-worker estimate error against the true mean skills,
/// folding the EM flip symmetry — the exact arithmetic of the legacy
/// campaign's `final_skill_error`.
fn folded_skill_error(accuracies: &[f64], instance: &Instance) -> f64 {
    let mut err = 0.0;
    for (i, &est) in accuracies.iter().enumerate().take(instance.num_workers()) {
        let w = WorkerId(i as u32);
        let true_mean: f64 =
            instance.skills().worker_row(w).iter().sum::<f64>() / instance.num_tasks() as f64;
        err += (est - true_mean).abs().min((1.0 - est - true_mean).abs());
    }
    err / instance.num_workers() as f64
}

/// Rebuilds the platform's belief instance around per-worker accuracy
/// estimates — the legacy campaign's estimate-swap, verbatim.
fn belief_with_accuracies(instance: &Instance, accuracies: &[f64]) -> Instance {
    let estimated: Vec<Vec<f64>> = accuracies
        .iter()
        .map(|&a| vec![a; instance.num_tasks()])
        .collect();
    let skills = SkillMatrix::from_rows(estimated).expect("EM accuracies are clamped to (0, 1)");
    Instance::builder(instance.num_tasks())
        .bid_profile(instance.bids().clone())
        .skills(skills)
        .error_bounds(instance.deltas().to_vec())
        .price_grid(instance.price_grid().clone())
        .cost_range(instance.cmin(), instance.cmax())
        .build()
        .expect("estimate swap preserves validity")
}

struct AuditAccum {
    config: DpAuditConfig,
    epsilon: f64,
    rounds_audited: usize,
    neighbours_checked: usize,
    neighbours_infeasible: usize,
    support_shifts: usize,
    worst_log_ratio: f64,
    violations: usize,
}

impl AuditAccum {
    fn new(config: DpAuditConfig, epsilon: f64) -> AuditAccum {
        AuditAccum {
            config,
            epsilon,
            rounds_audited: 0,
            neighbours_checked: 0,
            neighbours_infeasible: 0,
            support_shifts: 0,
            worst_log_ratio: 0.0,
            violations: 0,
        }
    }

    /// Audits one round's auctioned instance against its two price-push
    /// bid neighbours. Derived RNG only — never touches the main stream.
    fn audit_round<M: ScheduledMechanism>(
        &mut self,
        mechanism: &M,
        audited: &Instance,
        round: usize,
    ) {
        let Ok(pmf_a) = mechanism.pmf(audited) else {
            // The round itself fell back; nothing was sampled from this
            // instance's channel.
            return;
        };
        self.rounds_audited += 1;
        let mut r = rng::derived(self.config.seed ^ AUDIT_STREAM, round as u64);
        let worker = random_worker(audited, &mut r);
        for push in [PricePush::ToMin, PricePush::ToMax] {
            let Ok(neighbour) = price_push_neighbour(audited, worker, push) else {
                continue;
            };
            let Ok(pmf_b) = mechanism.pmf(&neighbour) else {
                self.neighbours_infeasible += 1;
                continue;
            };
            // Support-shifting neighbours are counted, not compared — the
            // same convention as the `mcs_auction::privacy` measurements.
            let Some(ratio) = privacy::dp_log_ratio(&pmf_a, &pmf_b) else {
                self.support_shifts += 1;
                continue;
            };
            self.neighbours_checked += 1;
            self.worst_log_ratio = self.worst_log_ratio.max(ratio);
            if ratio > self.epsilon + self.config.slack {
                self.violations += 1;
            }
        }
    }

    fn report(&self) -> DpAuditReport {
        DpAuditReport {
            rounds_audited: self.rounds_audited,
            neighbours_checked: self.neighbours_checked,
            neighbours_infeasible: self.neighbours_infeasible,
            support_shifts: self.support_shifts,
            epsilon: self.epsilon,
            worst_log_ratio: self.worst_log_ratio,
            violations: self.violations,
        }
    }
}

/// Runs one campaign: `spec.rounds` rounds of auction → labelling →
/// aggregation → payment, with skills, adversaries, reputation gating and
/// auditing per the spec.
///
/// Labels are always *generated* from `instance`'s true skills; the
/// auction runs on the platform's current belief (estimated skills,
/// tampered bids, gated pool). Every round walks the shared
/// [`RoundState`] lifecycle `Open → Committed → Settled` (`Aborted` on an
/// unrecoverable auction error).
///
/// When the skill source learns and an estimate-driven round looks
/// uncoverable, the round falls back to the platform's prior skill record
/// — the full, untampered, ungated instance — exactly like the legacy
/// campaign runner.
///
/// # Errors
///
/// Propagates validation errors and unrecoverable auction errors
/// ([`McsError::Infeasible`], [`McsError::NoFeasiblePrice`]).
pub fn run_campaign<M, R>(
    spec: &CampaignSpec,
    mechanism: &M,
    instance: &Instance,
    types: &[TrueType],
    rng: &mut R,
) -> Result<CampaignOutcome, McsError>
where
    M: ScheduledMechanism,
    R: Rng + ?Sized,
{
    let n = instance.num_workers();
    let k = instance.num_tasks();
    spec.validate(n)?;
    if types.len() != n {
        return Err(McsError::DimensionMismatch {
            what: "true type vector",
            expected: n,
            actual: types.len(),
        });
    }
    let learns = spec.skills.learns();
    let mut tracker = match &spec.skills {
        SkillSource::Tracked(cfg) => Some(SkillTracker::new(n, *cfg)?),
        _ => None,
    };
    let mut book = match spec.reputation {
        Some(cfg) => Some(ReputationBook::new(n, cfg)?),
        None => None,
    };
    let mut audit = spec
        .audit
        .map(|cfg| AuditAccum::new(cfg, ScheduledMechanism::epsilon(mechanism)));

    let mut rounds: Vec<RoundReport> = Vec::with_capacity(spec.rounds);
    let mut total_spend = Price::ZERO;
    let mut all_labels = LabelSet::new(k);
    let mut belief = instance.clone();
    let mut fallback_rounds = 0usize;
    let mut gate_skipped_rounds = 0usize;
    let mut accuracy_per_round = Vec::with_capacity(spec.rounds);
    let mut skill_error_per_round = Vec::new();

    for round in 0..spec.rounds {
        let mut lifecycle = RoundState::batch();

        // Adversarial bid tampering and the reputation gate shape the
        // instance the auction sees; both are pure data transforms (any
        // randomness comes from derived streams inside the plan).
        let tampered = spec.adversaries.tamper_bids(round, &belief)?;
        let base: &Instance = tampered.as_ref().unwrap_or(&belief);
        let mut restricted: Option<(Instance, Vec<WorkerId>)> = None;
        if let Some(book) = &book {
            let admitted = book.admitted();
            if admitted.len() < n {
                match base.restrict_to_workers(&admitted) {
                    Ok((sub, map)) if sub.coverage_problem().check_feasible().is_ok() => {
                        restricted = Some((sub, map));
                    }
                    // The gated pool cannot cover: run the full pool
                    // rather than abort the round.
                    _ => gate_skipped_rounds += 1,
                }
            }
        }
        let auction_view: &Instance = restricted.as_ref().map(|(s, _)| s).unwrap_or(base);
        let audited_early = audit.as_ref().map(|_| auction_view.clone());

        // The auction itself, with the legacy fallback: an estimate-driven
        // round that looks uncoverable resets the belief to the prior
        // skill record and reruns on the full pool.
        let first_try = mechanism.run(auction_view, rng);
        let mut used_fallback = false;
        let outcome_raw = match first_try {
            Ok(o) => o,
            Err(_) if learns => {
                fallback_rounds += 1;
                used_fallback = true;
                belief = instance.clone();
                match mechanism.run(&belief, rng) {
                    Ok(o) => o,
                    Err(e) => {
                        let _ = lifecycle.advance(RoundPhase::Aborted);
                        return Err(e);
                    }
                }
            }
            Err(e) => {
                let _ = lifecycle.advance(RoundPhase::Aborted);
                return Err(e);
            }
        };
        // Map a gated outcome back into the full worker-id space.
        let outcome = match (&restricted, used_fallback) {
            (Some((_, map)), false) => AuctionOutcome::new(
                outcome_raw.price(),
                outcome_raw
                    .winners()
                    .iter()
                    .map(|w| map[w.index()])
                    .collect(),
            ),
            _ => outcome_raw,
        };
        lifecycle
            .advance(RoundPhase::Committed)
            .expect("open rounds commit");

        // Winners execute the bundles they bid; labels come from the TRUE
        // skills, whatever the platform believes.
        let assignment: Vec<(WorkerId, Bundle)> = outcome
            .winners()
            .iter()
            .map(|&w| (w, instance.bids().bid(w).bundle().clone()))
            .collect();
        let truth: Vec<Label> = (0..k).map(|_| Label::random(rng)).collect();
        let mut labels = generate_labels(instance.skills(), &truth, &assignment, rng);
        // Adversaries corrupt their reports after the fact (derived
        // streams only — benign plans leave the labels untouched).
        spec.adversaries.tamper_labels(round, &mut labels);
        for obs in labels.iter() {
            all_labels.push(Observation { ..obs });
        }
        let estimates = weighted_aggregate(&labels, belief.skills(), k);
        let correct: Vec<bool> = estimates
            .iter()
            .zip(&truth)
            .map(|(e, t)| *e == Some(*t))
            .collect();
        let round_paid = outcome.total_payment();
        total_spend += round_paid;
        let utilities: Vec<Price> = (0..n)
            .map(|i| outcome.utility_of(WorkerId(i as u32), &types[i]))
            .collect();
        lifecycle
            .advance(RoundPhase::Settled)
            .expect("committed rounds settle");

        // Observable side channels: reputation and the skill tracker see
        // exactly what the platform saw (post-tamper labels, aggregate
        // estimates) — never the ground truth.
        if let Some(book) = &mut book {
            book.observe_round(&labels, &estimates);
        }
        if let Some(tracker) = &mut tracker {
            tracker.observe_round(&labels)?;
        }

        rounds.push(RoundReport {
            outcome,
            truth,
            labels,
            estimates,
            correct,
            total_paid: round_paid,
            utilities,
        });
        accuracy_per_round.push(rounds[rounds.len() - 1].accuracy());

        // Skill refit for the next round's auction.
        match &spec.skills {
            SkillSource::Known => {}
            SkillSource::RefitEachRound => {
                let fit = DawidSkene::default().fit(&all_labels, n);
                belief = belief_with_accuracies(instance, &fit.accuracies);
                skill_error_per_round.push(folded_skill_error(&fit.accuracies, instance));
            }
            SkillSource::Tracked(_) => {
                let tracker = tracker.as_mut().expect("tracked source builds a tracker");
                tracker.refit();
                let accuracies = tracker.accuracies().to_vec();
                belief = belief_with_accuracies(instance, &accuracies);
                skill_error_per_round.push(folded_skill_error(&accuracies, instance));
            }
        }

        if let Some(audit) = &mut audit {
            let audited = if used_fallback {
                instance.clone()
            } else {
                audited_early.expect("audit snapshots the auctioned instance")
            };
            audit.audit_round(mechanism, &audited, round);
        }
    }

    let mean_accuracy = if rounds.is_empty() {
        1.0
    } else {
        rounds.iter().map(RoundReport::accuracy).sum::<f64>() / rounds.len() as f64
    };
    let final_skill_error = match &spec.skills {
        SkillSource::Known => None,
        SkillSource::RefitEachRound => {
            // The legacy campaign's closing refit, verbatim.
            let fit = DawidSkene::default().fit(&all_labels, n);
            Some(folded_skill_error(&fit.accuracies, instance))
        }
        SkillSource::Tracked(_) => tracker
            .as_ref()
            .map(|t| folded_skill_error(t.accuracies(), instance)),
    };

    Ok(CampaignOutcome {
        rounds,
        total_spend,
        mean_accuracy,
        final_skill_error,
        fallback_rounds,
        accuracy_per_round,
        skill_error_per_round,
        reputation_trajectories: book
            .as_ref()
            .map(|b| b.trajectories().to_vec())
            .unwrap_or_default(),
        banned_workers: book.as_ref().map(|b| b.banned()).unwrap_or_default(),
        gate_skipped_rounds,
        audit: audit.as_ref().map(AuditAccum::report),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::adversary::{AdversaryGroup, AdversaryStrategy};
    use crate::Setting;
    use mcs_auction::DpHsrcAuction;

    fn small() -> (Instance, Vec<TrueType>) {
        let g = Setting::one(80).scaled_down(4).generate(55);
        (g.instance, g.types)
    }

    #[test]
    fn campaign_accumulates_spend_and_rounds() {
        let (inst, types) = small();
        let mechanism = DpHsrcAuction::new(0.1).unwrap();
        let mut r = rng::seeded(7);
        let out =
            run_campaign(&CampaignSpec::benign(4), &mechanism, &inst, &types, &mut r).unwrap();
        assert_eq!(out.rounds.len(), 4);
        let sum: Price = out.rounds.iter().map(|rr| rr.outcome.total_payment()).sum();
        assert_eq!(out.total_spend, sum);
        assert!(out.final_skill_error.is_none());
        assert!(out.mean_accuracy > 0.5);
    }

    #[test]
    fn refit_skills_keep_the_campaign_running() {
        let (inst, types) = small();
        let mechanism = DpHsrcAuction::new(0.1).unwrap();
        let spec = CampaignSpec {
            skills: SkillSource::RefitEachRound,
            ..CampaignSpec::benign(5)
        };
        let mut r = rng::seeded(8);
        let out = run_campaign(&spec, &mechanism, &inst, &types, &mut r).unwrap();
        assert_eq!(out.rounds.len(), 5);
        // Skill estimates should land in the right ballpark after five
        // rounds of labels.
        let err = out.final_skill_error.unwrap();
        assert!(err < 0.25, "mean |theta_hat - theta| = {err}");
        assert!(out.mean_accuracy > 0.5);
    }

    #[test]
    fn zero_round_campaign_is_empty() {
        let (inst, types) = small();
        let mechanism = DpHsrcAuction::new(0.1).unwrap();
        let mut r = rng::seeded(9);
        let out =
            run_campaign(&CampaignSpec::benign(0), &mechanism, &inst, &types, &mut r).unwrap();
        assert!(out.rounds.is_empty());
        assert_eq!(out.total_spend, Price::ZERO);
        assert_eq!(out.mean_accuracy, 1.0);
    }

    #[test]
    fn tracked_skills_learn_the_pool() {
        let (inst, types) = small();
        let mechanism = DpHsrcAuction::new(0.1).unwrap();
        let spec = CampaignSpec {
            skills: SkillSource::Tracked(TrackerConfig::default()),
            ..CampaignSpec::benign(6)
        };
        let mut r = rng::seeded(11);
        let out = run_campaign(&spec, &mechanism, &inst, &types, &mut r).unwrap();
        assert_eq!(out.skill_error_per_round.len(), 6);
        let err = out.final_skill_error.unwrap();
        assert!(err < 0.25, "tracked theta-hat error {err}");
        assert!(out.mean_accuracy > 0.5);
    }

    #[test]
    fn reputation_gate_bans_a_flip_ring() {
        let (inst, types) = small();
        let mechanism = DpHsrcAuction::new(0.1).unwrap();
        // A ring of idle workers would be invisible; recruit it from the
        // workers a benign probe campaign actually selects.
        let probe = run_campaign(
            &CampaignSpec::benign(4),
            &mechanism,
            &inst,
            &types,
            &mut rng::seeded(12),
        )
        .unwrap();
        let mut wins = vec![0usize; inst.num_workers()];
        for rr in &probe.rounds {
            for &w in rr.outcome.winners() {
                wins[w.index()] += 1;
            }
        }
        let mut by_wins: Vec<usize> = (0..inst.num_workers()).collect();
        by_wins.sort_by_key(|&i| std::cmp::Reverse(wins[i]));
        let ring: Vec<WorkerId> = by_wins[..4].iter().map(|&i| WorkerId(i as u32)).collect();
        assert!(wins[ring[0].index()] > 0, "probe produced no winners");

        let spec = CampaignSpec {
            reputation: Some(ReputationConfig::default()),
            adversaries: AdversaryPlan {
                groups: vec![AdversaryGroup {
                    members: ring.clone(),
                    strategy: AdversaryStrategy::LabelFlipRing { flip_prob: 1.0 },
                }],
                seed: 3,
            },
            ..CampaignSpec::benign(10)
        };
        let out = run_campaign(&spec, &mechanism, &inst, &types, &mut rng::seeded(12)).unwrap();
        assert_eq!(out.reputation_trajectories.len(), 10);
        assert!(
            out.banned_workers.iter().any(|w| ring.contains(w)),
            "no ring member banned; final scores {:?}",
            out.reputation_trajectories.last()
        );
        // The book's final snapshot and the ban list must agree.
        let last = out.reputation_trajectories.last().unwrap();
        for w in &out.banned_workers {
            assert!(last[w.index()] < ReputationConfig::default().ban_threshold);
        }
    }

    #[test]
    fn audit_passes_on_benign_and_adversarial_runs() {
        let (inst, types) = small();
        let mechanism = DpHsrcAuction::new(0.1).unwrap();
        for adversaries in [
            AdversaryPlan::none(),
            AdversaryPlan {
                groups: vec![AdversaryGroup {
                    members: vec![WorkerId(0), WorkerId(1)],
                    strategy: AdversaryStrategy::BidCollusionRing { markup: 0.3 },
                }],
                seed: 5,
            },
        ] {
            let spec = CampaignSpec {
                skills: SkillSource::RefitEachRound,
                adversaries,
                audit: Some(DpAuditConfig::default()),
                ..CampaignSpec::benign(3)
            };
            let mut r = rng::seeded(13);
            let out = run_campaign(&spec, &mechanism, &inst, &types, &mut r).unwrap();
            let audit = out.audit.unwrap();
            assert!(audit.rounds_audited > 0);
            assert!(audit.neighbours_checked > 0);
            assert_eq!(
                audit.violations, 0,
                "price channel violated epsilon-DP: worst log ratio {}",
                audit.worst_log_ratio
            );
            assert!(audit.worst_log_ratio <= audit.epsilon + 1e-6);
        }
    }

    #[test]
    fn audit_is_invisible_to_the_main_stream() {
        let (inst, types) = small();
        let mechanism = DpHsrcAuction::new(0.1).unwrap();
        let plain = CampaignSpec::benign(3);
        let audited = CampaignSpec {
            audit: Some(DpAuditConfig::default()),
            ..CampaignSpec::benign(3)
        };
        let mut r1 = rng::seeded(21);
        let mut r2 = rng::seeded(21);
        let a = run_campaign(&plain, &mechanism, &inst, &types, &mut r1).unwrap();
        let b = run_campaign(&audited, &mechanism, &inst, &types, &mut r2).unwrap();
        assert_eq!(a.rounds, b.rounds);
        use rand::Rng as _;
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn mismatched_types_are_a_typed_error() {
        let (inst, types) = small();
        let mechanism = DpHsrcAuction::new(0.1).unwrap();
        let mut r = rng::seeded(1);
        assert!(matches!(
            run_campaign(
                &CampaignSpec::benign(1),
                &mechanism,
                &inst,
                &types[..types.len() - 1],
                &mut r
            ),
            Err(McsError::DimensionMismatch { .. })
        ));
    }
}
