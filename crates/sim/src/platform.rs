//! End-to-end MCS platform workflow over the synthetic label model.
//!
//! This module wires the full §III-A loop together: the platform announces
//! tasks, runs the DP-hSRC auction over the workers' bids, the winners
//! execute their bundles under the `θ`-noise model, the platform aggregates
//! with the Lemma 1 weighted rule, and every winner is paid the clearing
//! price. The paper evaluates the auction in isolation; this harness
//! exercises the whole pipeline the auction exists to serve, verifying
//! that the error-bound constraints actually deliver `Pr[l̂ ≠ l] ≤ δ`.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mcs_agg::{achieved_coverage, generate_labels, weighted_aggregate, Label, LabelSet};
use mcs_types::{Bundle, CoverageView, Instance, McsError, Price, TaskId, TrueType, WorkerId};

use mcs_auction::{AuctionOutcome, Mechanism, ScheduledMechanism};

use crate::campaign::{RoundPhase, RoundState};
use crate::faults::{
    achieved_delta, filter_labels, CompletionSampler, CoverageShortfall, FateCounts, FaultInjector,
    FaultPlan, WorkerFate,
};

/// The report of one full platform round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// The auction outcome (clearing price + winners).
    pub outcome: AuctionOutcome,
    /// Ground-truth labels drawn for this round.
    pub truth: Vec<Label>,
    /// Labels collected from the winners.
    pub labels: LabelSet,
    /// The platform's aggregated estimate per task (`None` = no labels).
    pub estimates: Vec<Option<Label>>,
    /// Per-task correctness of the aggregate.
    pub correct: Vec<bool>,
    /// Total amount paid out.
    pub total_paid: Price,
    /// Each worker's realized utility this round.
    pub utilities: Vec<Price>,
}

impl RoundReport {
    /// Fraction of tasks whose aggregate matched the truth.
    ///
    /// A round with *no tasks* is vacuously perfect (`1.0`); a task whose
    /// aggregate produced no estimate (`estimates[j] == None`, e.g. every
    /// label for it was dropped by faults) counts as *incorrect* — "we
    /// don't know" is not "we got it right".
    pub fn accuracy(&self) -> f64 {
        if self.truth.is_empty() {
            return 1.0;
        }
        let correct = self
            .truth
            .iter()
            .enumerate()
            .filter(|&(j, t)| self.estimates.get(j).copied().flatten() == Some(*t))
            .count();
        correct as f64 / self.truth.len() as f64
    }
}

/// Runs one complete platform round: auction → labelling → aggregation →
/// payment.
///
/// Generic over the auction: any [`Mechanism`] producing an
/// [`AuctionOutcome`] from an [`Instance`] (DP-hSRC, the baseline, …)
/// drives the same platform loop.
///
/// # Errors
///
/// Propagates auction errors ([`McsError::Infeasible`],
/// [`McsError::NoFeasiblePrice`]).
pub fn run_round<M, R>(
    instance: &Instance,
    types: &[TrueType],
    mechanism: &M,
    rng: &mut R,
) -> Result<RoundReport, McsError>
where
    M: Mechanism<Input = Instance, Output = AuctionOutcome>,
    R: Rng + ?Sized,
{
    let mut lifecycle = RoundState::batch();
    let outcome = match mechanism.run(instance, rng) {
        Ok(o) => o,
        Err(e) => {
            let _ = lifecycle.advance(RoundPhase::Aborted);
            return Err(e);
        }
    };
    lifecycle
        .advance(RoundPhase::Committed)
        .expect("open rounds commit");

    // Winners execute the bundles they bid.
    let assignment: Vec<(WorkerId, Bundle)> = outcome
        .winners()
        .iter()
        .map(|&w| (w, instance.bids().bid(w).bundle().clone()))
        .collect();
    let truth: Vec<Label> = (0..instance.num_tasks())
        .map(|_| Label::random(rng))
        .collect();
    let labels = generate_labels(instance.skills(), &truth, &assignment, rng);
    let estimates = weighted_aggregate(&labels, instance.skills(), instance.num_tasks());
    let correct: Vec<bool> = estimates
        .iter()
        .zip(&truth)
        .map(|(e, t)| *e == Some(*t))
        .collect();

    let total_paid = outcome.total_payment();
    let utilities: Vec<Price> = (0..instance.num_workers())
        .map(|i| outcome.utility_of(WorkerId(i as u32), &types[i]))
        .collect();
    lifecycle
        .advance(RoundPhase::Settled)
        .expect("committed rounds settle");

    Ok(RoundReport {
        outcome,
        truth,
        labels,
        estimates,
        correct,
        total_paid,
        utilities,
    })
}

/// Runs many rounds and returns the per-task empirical aggregation error,
/// alongside the per-round reports' payment statistics.
///
/// # Errors
///
/// Propagates auction errors from any round.
pub fn empirical_task_error<M, R>(
    instance: &Instance,
    types: &[TrueType],
    mechanism: &M,
    rounds: usize,
    rng: &mut R,
) -> Result<Vec<f64>, McsError>
where
    M: Mechanism<Input = Instance, Output = AuctionOutcome>,
    R: Rng + ?Sized,
{
    let mut errors = vec![0.0f64; instance.num_tasks()];
    for _ in 0..rounds {
        let report = run_round(instance, types, mechanism, rng)?;
        for (j, &ok) in report.correct.iter().enumerate() {
            if !ok {
                errors[j] += 1.0;
            }
        }
    }
    Ok(errors.into_iter().map(|e| e / rounds as f64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Setting;
    use mcs_auction::DpHsrcAuction;
    use mcs_num::rng;
    use mcs_types::TaskId;

    fn small() -> (Instance, Vec<TrueType>) {
        let g = Setting::one(80).scaled_down(4).generate(21);
        (g.instance, g.types)
    }

    #[test]
    fn round_pays_only_winners() {
        let (inst, types) = small();
        let mut r = rng::seeded(2);
        let report = run_round(&inst, &types, &DpHsrcAuction::new(0.1).unwrap(), &mut r).unwrap();
        assert_eq!(
            report.total_paid,
            report.outcome.price() * report.outcome.winners().len()
        );
        for i in 0..inst.num_workers() {
            let w = WorkerId(i as u32);
            if !report.outcome.is_winner(w) {
                assert_eq!(report.utilities[i], Price::ZERO);
            } else {
                assert!(report.utilities[i] >= Price::ZERO);
            }
        }
    }

    #[test]
    fn every_task_receives_labels() {
        // Feasibility of the winner set implies positive coverage of every
        // task, hence at least one label each.
        let (inst, types) = small();
        let mut r = rng::seeded(3);
        let report = run_round(&inst, &types, &DpHsrcAuction::new(0.1).unwrap(), &mut r).unwrap();
        for j in 0..inst.num_tasks() {
            assert!(
                !report.labels.for_task(TaskId(j as u32)).is_empty(),
                "task {j} got no labels"
            );
            assert!(report.estimates[j].is_some());
        }
    }

    #[test]
    fn empirical_error_within_delta() {
        let (inst, types) = small();
        let mut r = rng::seeded(4);
        let errors = empirical_task_error(
            &inst,
            &types,
            &DpHsrcAuction::new(0.1).unwrap(),
            300,
            &mut r,
        )
        .unwrap();
        for (j, (&err, &delta)) in errors.iter().zip(inst.deltas()).enumerate() {
            // Allow Monte-Carlo slack on top of δ.
            assert!(
                err <= delta + 0.08,
                "task {j}: error {err} exceeds delta {delta}"
            );
        }
    }

    #[test]
    fn accuracy_is_high_with_tight_deltas() {
        let (inst, types) = small();
        let mut r = rng::seeded(5);
        let report = run_round(&inst, &types, &DpHsrcAuction::new(0.1).unwrap(), &mut r).unwrap();
        assert!(report.accuracy() > 0.5);
    }
}

/// Knobs of the fault-tolerant round engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Deadline budget in abstract platform ticks: a straggler arriving
    /// within this many ticks still counts as delivered (and paid).
    pub deadline: u32,
    /// Maximum number of backfill re-auctions after the primary round.
    /// Zero disables backfill entirely: the round degrades immediately.
    pub max_backfill_rounds: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            deadline: 60,
            max_backfill_rounds: 2,
        }
    }
}

/// One backfill re-auction: the residual outcome and what its recruits
/// actually delivered.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackfillRound {
    /// The residual auction's clearing price and recruits.
    pub outcome: AuctionOutcome,
    /// Fate of each recruit's submission.
    pub fates: Vec<(WorkerId, WorkerFate)>,
}

/// The report of a fault-tolerant platform round: what a [`RoundReport`]
/// records, plus the fault trace, the backfill history, and the *achieved*
/// (rather than promised) per-task error bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedRoundReport {
    /// The round viewed through the ordinary report lens. `labels`,
    /// `estimates` and `correct` reflect only what was actually delivered
    /// (primary survivors plus backfill recruits); `total_paid` and
    /// `utilities` account every phase's payments.
    pub round: RoundReport,
    /// Fate of each primary winner's submission.
    pub fates: Vec<(WorkerId, WorkerFate)>,
    /// The backfill re-auctions that produced winners, in order.
    pub backfill: Vec<BackfillRound>,
    /// Number of backfill re-auctions *attempted* — at least
    /// `backfill.len()`; one more when the final attempt found no feasible
    /// residual schedule and the round degraded instead.
    pub backfill_attempts: usize,
    /// Exactly who was paid how much, across all phases.
    pub paid: Vec<(WorkerId, Price)>,
    /// Per-task coverage `C_j = Σ q_ij` achieved by delivered labels.
    pub achieved_coverage: Vec<f64>,
    /// Per-task achieved error bound `δ̂_j = exp(−C_j / 2)` — the guarantee
    /// the platform can still honestly claim after faults (Lemma 1
    /// inverted). Equals the promised `δ_j` or better when coverage held.
    pub achieved_deltas: Vec<f64>,
    /// Tasks whose covering constraint is still unmet after backfill.
    /// Empty when the round fully recovered.
    pub shortfalls: Vec<CoverageShortfall>,
}

impl DegradedRoundReport {
    /// Whether the round ended with any task under-covered.
    pub fn degraded(&self) -> bool {
        !self.shortfalls.is_empty()
    }

    /// Tally of worker fates across the primary round *and* every backfill
    /// phase, keeping "never showed" ([`WorkerFate::NoShow`]) separate from
    /// "showed and failed" ([`WorkerFate::ShowedButFailed`]). Reputation
    /// systems treat the two very differently even though payment and
    /// coverage accounting do not.
    pub fn fate_counts(&self) -> FateCounts {
        let mut counts = FateCounts::tally(&self.fates);
        for bf in &self.backfill {
            counts.absorb(&FateCounts::tally(&bf.fates));
        }
        counts
    }

    /// Workers (across all phases) who never showed up at all.
    pub fn no_shows(&self) -> usize {
        self.fate_counts().no_show
    }

    /// Workers (across all phases) who showed up but delivered nothing
    /// usable.
    pub fn showed_but_failed(&self) -> usize {
        self.fate_counts().showed_but_failed
    }
}

/// Tolerance below which a residual requirement counts as satisfied,
/// matching the schedule engine's covering tolerance.
const RESIDUAL_EPS: f64 = 1e-9;

/// Runs one fault-tolerant platform round: auction → labelling under an
/// injected [`FaultPlan`] → bounded backfill re-auctions over the residual
/// covering constraints → aggregation of whatever arrived → payment of
/// workers who delivered.
///
/// The engine proceeds in phases:
///
/// 1. **Primary round** — identical to [`run_round`] up to label
///    generation; the injector then decides each winner's
///    [`WorkerFate`] and only surviving labels reach the platform.
///    Workers whose complete bundle arrived within
///    [`ResilienceConfig::deadline`] are paid the clearing price; no-shows,
///    partial submitters and late stragglers are not paid.
/// 2. **Backfill** — while some task's residual requirement
///    `Q'_j = Q_j − C_j` is positive and attempts remain, the mechanism's
///    [`ScheduledMechanism::reauction`] re-runs Algorithm 1 over the
///    still-unrecruited workers' standing bids against the residual
///    constraints. Recruits label, suffer their own fates (phase ≥ 1 of
///    the same plan), and are paid the backfill clearing price when they
///    deliver in full.
/// 3. **Graceful degradation** — when backfill is exhausted or infeasible,
///    the platform aggregates what arrived and reports the per-task
///    *achieved* error bounds `δ̂_j = exp(−C_j / 2)` plus a typed
///    [`CoverageShortfall`] for every task still below requirement.
///
/// Fault draws come from the plan's own seeded stream, never from `rng`,
/// so under an empty plan this function consumes exactly the randomness
/// [`run_round`] consumes and reproduces its report byte for byte.
///
/// # Errors
///
/// Propagates primary-auction errors ([`McsError::Infeasible`],
/// [`McsError::NoFeasiblePrice`]) and invalid fault plans
/// ([`McsError::Solver`]), and returns [`McsError::DimensionMismatch`]
/// unless `types` holds one entry per worker. Backfill infeasibility is
/// *not* an error — it is the degraded case the report describes.
pub fn run_round_resilient<M, R>(
    instance: &Instance,
    types: &[TrueType],
    mechanism: &M,
    plan: &FaultPlan,
    config: &ResilienceConfig,
    rng: &mut R,
) -> Result<DegradedRoundReport, McsError>
where
    M: ScheduledMechanism,
    R: Rng + ?Sized,
{
    // Winners' utilities index `types` by worker; the service passes both
    // straight from the wire.
    if types.len() != instance.num_workers() {
        return Err(McsError::DimensionMismatch {
            what: "worker types",
            expected: instance.num_workers(),
            actual: types.len(),
        });
    }
    let injector = FaultInjector::new(plan.clone())?;
    let completions = CompletionSampler::new(instance.completion(), plan.seed);
    let cover = instance.sparse_coverage();
    let num_tasks = instance.num_tasks();

    // Phase 0: the primary round, consuming `rng` exactly as `run_round`.
    let outcome = mechanism.run(instance, rng)?;
    let assignment: Vec<(WorkerId, Bundle)> = outcome
        .winners()
        .iter()
        .map(|&w| (w, instance.bids().bid(w).bundle().clone()))
        .collect();
    let truth: Vec<Label> = (0..num_tasks).map(|_| Label::random(rng)).collect();
    let ideal = generate_labels(instance.skills(), &truth, &assignment, rng);

    // Uncertain tasks fail like dropouts: sampled non-completions are
    // folded into the fates before labels are filtered, so coverage
    // accounting, payment gating, and the degradation report all see them
    // exactly as they see no-shows. Deterministic instances skip this
    // (and draw nothing), keeping the pre-uncertainty byte-identity.
    let fates = completions.apply(
        0,
        &assignment,
        injector.fates_for(0, &assignment),
        config.deadline,
    );
    let mut delivered = filter_labels(&ideal, &fates, config.deadline);

    let mut paid: Vec<(WorkerId, Price)> = fates
        .iter()
        .filter(|(_, f)| f.delivered_in_full(config.deadline))
        .map(|(w, _)| (*w, outcome.price()))
        .collect();
    let mut recruited: Vec<WorkerId> = outcome.winners().to_vec();

    let residual_of = |delivered: &LabelSet| -> Vec<f64> {
        (0..num_tasks)
            .map(|j| {
                let t = TaskId(j as u32);
                cover.requirement(t) - achieved_coverage(delivered, instance.skills(), t)
            })
            .collect()
    };
    let mut residual = residual_of(&delivered);

    // Phases 1..: bounded backfill re-auctions over the leftover pool.
    let mut backfill = Vec::new();
    let mut backfill_attempts = 0usize;
    while residual.iter().any(|&r| r > RESIDUAL_EPS)
        && backfill_attempts < config.max_backfill_rounds
    {
        backfill_attempts += 1;
        let eligible: Vec<WorkerId> = (0..instance.num_workers())
            .map(|i| WorkerId(i as u32))
            .filter(|w| !recruited.contains(w))
            .collect();
        let Ok(bf_outcome) = mechanism.reauction(instance, &residual, &eligible, rng) else {
            // The leftover pool cannot close the gap (or no feasible
            // price exists for it): degrade gracefully.
            break;
        };
        let bf_assignment: Vec<(WorkerId, Bundle)> = bf_outcome
            .winners()
            .iter()
            .map(|&w| (w, instance.bids().bid(w).bundle().clone()))
            .collect();
        let bf_labels = generate_labels(instance.skills(), &truth, &bf_assignment, rng);
        let bf_fates = completions.apply(
            backfill_attempts as u32,
            &bf_assignment,
            injector.fates_for(backfill_attempts as u32, &bf_assignment),
            config.deadline,
        );
        for obs in filter_labels(&bf_labels, &bf_fates, config.deadline).iter() {
            delivered.push(obs);
        }
        paid.extend(
            bf_fates
                .iter()
                .filter(|(_, f)| f.delivered_in_full(config.deadline))
                .map(|(w, _)| (*w, bf_outcome.price())),
        );
        recruited.extend(bf_outcome.winners().iter().copied());
        backfill.push(BackfillRound {
            outcome: bf_outcome,
            fates: bf_fates,
        });
        residual = residual_of(&delivered);
    }

    // Aggregate whatever arrived and account the achieved guarantees.
    let estimates = weighted_aggregate(&delivered, instance.skills(), num_tasks);
    let correct: Vec<bool> = estimates
        .iter()
        .zip(&truth)
        .map(|(e, t)| *e == Some(*t))
        .collect();
    let coverage: Vec<f64> = (0..num_tasks)
        .map(|j| achieved_coverage(&delivered, instance.skills(), TaskId(j as u32)))
        .collect();
    let achieved_deltas: Vec<f64> = coverage.iter().map(|&c| achieved_delta(c)).collect();
    let shortfalls: Vec<CoverageShortfall> = (0..num_tasks)
        .filter_map(|j| {
            let t = TaskId(j as u32);
            let required = cover.requirement(t);
            (coverage[j] < required - RESIDUAL_EPS).then(|| CoverageShortfall {
                task: t,
                required,
                achieved: coverage[j],
            })
        })
        .collect();

    let total_paid: Price = paid.iter().map(|&(_, p)| p).sum();
    let mut utilities = vec![Price::ZERO; instance.num_workers()];
    for &(w, amount) in &paid {
        utilities[w.index()] = amount - types[w.index()].cost();
    }

    Ok(DegradedRoundReport {
        round: RoundReport {
            outcome,
            truth,
            labels: delivered,
            estimates,
            correct,
            total_paid,
            utilities,
        },
        fates,
        backfill,
        backfill_attempts,
        paid,
        achieved_coverage: coverage,
        achieved_deltas,
        shortfalls,
    })
}

#[cfg(test)]
mod resilient_tests {
    use super::*;
    use crate::Setting;
    use mcs_auction::DpHsrcAuction;
    use mcs_num::rng;

    fn small(seed: u64) -> (Instance, Vec<TrueType>) {
        let g = Setting::one(80).scaled_down(4).generate(seed);
        (g.instance, g.types)
    }

    #[test]
    fn empty_plan_reproduces_run_round_exactly() {
        let (inst, types) = small(21);
        let auction = DpHsrcAuction::new(0.1).unwrap();
        let mut r1 = rng::seeded(11);
        let mut r2 = rng::seeded(11);
        let plain = run_round(&inst, &types, &auction, &mut r1).unwrap();
        let resilient = run_round_resilient(
            &inst,
            &types,
            &auction,
            &FaultPlan::none(),
            &ResilienceConfig::default(),
            &mut r2,
        )
        .unwrap();
        assert_eq!(resilient.round, plain);
        assert!(resilient.backfill.is_empty());
        assert_eq!(resilient.backfill_attempts, 0);
        assert!(!resilient.degraded());
        // Both consumed the same randomness: subsequent draws agree.
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn worker_types_must_cover_every_worker() {
        let (inst, types) = small(21);
        let auction = DpHsrcAuction::new(0.1).unwrap();
        let short = &types[..types.len() - 1];
        let result = run_round_resilient(
            &inst,
            short,
            &auction,
            &FaultPlan::none(),
            &ResilienceConfig::default(),
            &mut rng::seeded(11),
        );
        assert!(matches!(
            result,
            Err(McsError::DimensionMismatch {
                what: "worker types",
                ..
            })
        ));
    }

    #[test]
    fn acceptance_thirty_percent_no_shows_seed_42() {
        // The ISSUE acceptance scenario: 30% worker no-shows at seed 42
        // must complete without panic, trigger at least one backfill
        // re-auction, and report achieved deltas consistent with the
        // surviving coverage.
        let (inst, types) = small(42);
        let auction = DpHsrcAuction::new(0.1).unwrap();
        let mut r = rng::seeded(42);
        let report = run_round_resilient(
            &inst,
            &types,
            &auction,
            &FaultPlan::no_show(0.3, 42),
            &ResilienceConfig::default(),
            &mut r,
        )
        .unwrap();
        assert!(
            report.backfill_attempts >= 1,
            "30% no-shows left coverage intact: fates {:?}",
            report.fates
        );
        for (j, &delta_hat) in report.achieved_deltas.iter().enumerate() {
            let c = achieved_coverage(&report.round.labels, inst.skills(), TaskId(j as u32));
            assert!((report.achieved_coverage[j] - c).abs() < 1e-12);
            assert!((delta_hat - (-c / 2.0).exp()).abs() < 1e-12);
        }
        // Every shortfall names a genuinely under-covered task.
        let cover = inst.sparse_coverage();
        for s in &report.shortfalls {
            assert!(s.achieved < cover.requirement(s.task));
        }
    }

    #[test]
    fn no_shows_are_never_paid() {
        let (inst, types) = small(42);
        let auction = DpHsrcAuction::new(0.1).unwrap();
        let mut r = rng::seeded(7);
        let report = run_round_resilient(
            &inst,
            &types,
            &auction,
            &FaultPlan::no_show(0.5, 9),
            &ResilienceConfig::default(),
            &mut r,
        )
        .unwrap();
        for (w, fate) in &report.fates {
            let paid = report.paid.iter().any(|(pw, _)| pw == w);
            assert_eq!(
                paid,
                fate.delivered_in_full(report_deadline()),
                "worker {w}"
            );
        }
        let sum: Price = report.paid.iter().map(|&(_, p)| p).sum();
        assert_eq!(report.round.total_paid, sum);
    }

    fn report_deadline() -> u32 {
        ResilienceConfig::default().deadline
    }

    #[test]
    fn zero_backfill_budget_degrades_immediately() {
        let (inst, types) = small(42);
        let auction = DpHsrcAuction::new(0.1).unwrap();
        let mut r = rng::seeded(5);
        let config = ResilienceConfig {
            deadline: 60,
            max_backfill_rounds: 0,
        };
        let report = run_round_resilient(
            &inst,
            &types,
            &auction,
            &FaultPlan::no_show(0.9, 3),
            &config,
            &mut r,
        )
        .unwrap();
        assert_eq!(report.backfill_attempts, 0);
        assert!(report.backfill.is_empty());
        assert!(report.degraded());
        // Achieved deltas degrade towards 1 as coverage vanishes.
        for (j, s) in report.shortfalls.iter().enumerate() {
            let _ = j;
            assert!(report.achieved_deltas[s.task.index()] > 0.0);
        }
    }

    #[test]
    fn fate_counts_span_primary_and_backfill_phases() {
        // Pin the accounting: "never showed" and "showed but failed" are
        // tallied separately, and backfill phases are absorbed into the
        // same tally as the primary round.
        let round = RoundReport {
            outcome: AuctionOutcome::new(Price::ZERO, vec![]),
            truth: vec![],
            labels: LabelSet::new(0),
            estimates: vec![],
            correct: vec![],
            total_paid: Price::ZERO,
            utilities: vec![],
        };
        let report = DegradedRoundReport {
            round,
            fates: vec![
                (WorkerId(0), WorkerFate::Delivered),
                (WorkerId(1), WorkerFate::NoShow),
                (WorkerId(2), WorkerFate::ShowedButFailed),
                (
                    WorkerId(3),
                    WorkerFate::Partial {
                        dropped: vec![TaskId(0)],
                    },
                ),
            ],
            backfill: vec![BackfillRound {
                outcome: AuctionOutcome::new(Price::ZERO, vec![]),
                fates: vec![
                    (WorkerId(4), WorkerFate::Delivered),
                    (WorkerId(5), WorkerFate::ShowedButFailed),
                    (WorkerId(6), WorkerFate::NoShow),
                ],
            }],
            backfill_attempts: 1,
            paid: vec![],
            achieved_coverage: vec![],
            achieved_deltas: vec![],
            shortfalls: vec![],
        };
        let counts = report.fate_counts();
        assert_eq!(counts.delivered, 2);
        assert_eq!(counts.no_show, 2);
        assert_eq!(counts.showed_but_failed, 2);
        assert_eq!(counts.partial, 1);
        assert_eq!(counts.straggler, 0);
        assert_eq!(counts.corrupted, 0);
        assert_eq!(report.no_shows(), 2);
        assert_eq!(report.showed_but_failed(), 2);
    }

    #[test]
    fn accuracy_counts_missing_estimates_as_wrong() {
        let report = RoundReport {
            outcome: AuctionOutcome::new(Price::ZERO, vec![]),
            truth: vec![Label::Pos, Label::Neg],
            labels: LabelSet::new(2),
            estimates: vec![Some(Label::Pos), None],
            correct: vec![true, false],
            total_paid: Price::ZERO,
            utilities: vec![],
        };
        assert_eq!(report.accuracy(), 0.5);
        let empty = RoundReport {
            outcome: AuctionOutcome::new(Price::ZERO, vec![]),
            truth: vec![],
            labels: LabelSet::new(0),
            estimates: vec![],
            correct: vec![],
            total_paid: Price::ZERO,
            utilities: vec![],
        };
        assert_eq!(empty.accuracy(), 1.0);
    }
}
