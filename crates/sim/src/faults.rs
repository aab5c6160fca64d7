//! Worker fault model: reproducible injection of dropout, stragglers and
//! corrupted reports into a platform round.
//!
//! The paper's guarantees assume every auction winner delivers labels for
//! its whole bundle; real mobile-crowd-sensing workers do not. This module
//! models the four failure classes the fault-tolerant round engine
//! ([`crate::platform::run_round_resilient`]) must survive:
//!
//! * **no-show** — the worker never submits anything;
//! * **partial dropout** — a fraction of the bundle is never labelled;
//! * **straggler** — the full bundle arrives, but late (and past the
//!   platform's deadline it counts as missing);
//! * **corrupted reports** — a fraction of labels is flipped (the worker
//!   misreports, maliciously or through sensor error).
//!
//! Fault assignment is driven by a dedicated RNG stream derived from the
//! plan's seed, per `(phase, worker)` — never from the round's main RNG —
//! so every failure scenario is reproducible, fault draws are independent
//! of how much randomness the auction itself consumed, and an empty plan
//! leaves the main RNG stream byte-for-byte identical to a fault-free run.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mcs_agg::{LabelSet, Observation};
use mcs_num::rng;
use mcs_types::{Bundle, CompletionModel, McsError, TaskId, WorkerId};

/// A reproducible description of the faults to inject into a round.
///
/// Rates are probabilities in `[0, 1]`; a single uniform draw per worker
/// picks at most one fault class (cumulative over `no_show_rate`,
/// `partial_dropout_rate`, `straggler_rate`, `flip_rate`, in that order),
/// so the four rates must sum to at most 1.
///
/// # Examples
///
/// ```
/// use mcs_sim::faults::FaultPlan;
///
/// let plan = FaultPlan::no_show(0.3, 42);
/// assert!(plan.validate().is_ok());
/// assert!(!plan.is_empty());
/// assert!(FaultPlan::none().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability a worker submits nothing at all.
    pub no_show_rate: f64,
    /// Probability a worker delivers only part of its bundle.
    pub partial_dropout_rate: f64,
    /// Expected fraction of the bundle dropped by a partial worker
    /// (each bundle task is dropped independently; at least one survives
    /// and at least one is dropped, otherwise the fault degenerates).
    pub dropout_fraction: f64,
    /// Probability a worker delivers late.
    pub straggler_rate: f64,
    /// Inclusive range of straggler delays, in abstract platform ticks.
    /// Compared against the round's deadline budget.
    pub straggler_delay: (u32, u32),
    /// Probability a worker's reports are corrupted.
    pub flip_rate: f64,
    /// Probability each label of a corrupted worker is flipped.
    pub flip_fraction: f64,
    /// Seed of the dedicated fault stream.
    pub seed: u64,
}

impl FaultPlan {
    /// The empty plan: no faults, any seed. A round run under this plan is
    /// byte-for-byte the happy-path round.
    pub fn none() -> Self {
        FaultPlan {
            no_show_rate: 0.0,
            partial_dropout_rate: 0.0,
            dropout_fraction: 0.5,
            straggler_rate: 0.0,
            straggler_delay: (1, 1),
            flip_rate: 0.0,
            flip_fraction: 0.5,
            seed: 0,
        }
    }

    /// A plan with only full no-shows at the given rate.
    pub fn no_show(rate: f64, seed: u64) -> Self {
        FaultPlan {
            no_show_rate: rate,
            seed,
            ..FaultPlan::none()
        }
    }

    /// Returns `true` if the plan can never perturb a round.
    pub fn is_empty(&self) -> bool {
        self.no_show_rate <= 0.0
            && self.partial_dropout_rate <= 0.0
            && self.straggler_rate <= 0.0
            && self.flip_rate <= 0.0
    }

    /// Validates rates, fractions and the delay range.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::Solver`] with a descriptive message when a rate
    /// or fraction falls outside `[0, 1]`, the four fault rates sum above
    /// 1, or the straggler delay range is empty (no dedicated error
    /// variant is warranted for a simulation-only knob).
    pub fn validate(&self) -> Result<(), McsError> {
        let rates = [
            ("no_show_rate", self.no_show_rate),
            ("partial_dropout_rate", self.partial_dropout_rate),
            ("straggler_rate", self.straggler_rate),
            ("flip_rate", self.flip_rate),
            ("dropout_fraction", self.dropout_fraction),
            ("flip_fraction", self.flip_fraction),
        ];
        for (name, v) in rates {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(McsError::Solver {
                    message: format!("fault plan field {name} = {v} is outside [0, 1]"),
                });
            }
        }
        let total =
            self.no_show_rate + self.partial_dropout_rate + self.straggler_rate + self.flip_rate;
        if total > 1.0 + 1e-12 {
            return Err(McsError::Solver {
                message: format!("fault plan rates sum to {total} > 1"),
            });
        }
        if self.straggler_delay.0 > self.straggler_delay.1 {
            return Err(McsError::Solver {
                message: format!(
                    "fault plan straggler_delay range ({}, {}) is empty",
                    self.straggler_delay.0, self.straggler_delay.1
                ),
            });
        }
        Ok(())
    }
}

/// What actually happened to one worker's submission in one phase,
/// written as `{"fate": "partial", "dropped": […]}` and the like.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "fate")]
pub enum WorkerFate {
    /// Full bundle delivered on time, labels as reported.
    Delivered,
    /// Nothing was submitted.
    NoShow,
    /// The worker *did* show up — the platform saw an attempt — but every
    /// task in the bundle failed (sampled non-completion), so nothing was
    /// delivered. Payment and coverage treat this exactly like
    /// [`WorkerFate::NoShow`]; reputation does not: absence and failure
    /// are different signals about a worker.
    ShowedButFailed,
    /// The listed bundle tasks were never labelled; the rest arrived on
    /// time.
    Partial {
        /// Tasks whose labels were dropped.
        dropped: Vec<TaskId>,
    },
    /// The full bundle arrived `delay` ticks after the round started.
    Straggler {
        /// Arrival delay in platform ticks.
        delay: u32,
    },
    /// The full bundle arrived on time but the listed labels were flipped.
    Corrupted {
        /// Tasks whose labels were flipped.
        flipped: Vec<TaskId>,
    },
}

impl WorkerFate {
    /// Whether the worker's *complete* bundle reached the platform within
    /// `deadline` ticks — the condition for being paid.
    ///
    /// Corruption is not detectable by the platform (it has no ground
    /// truth), so corrupted-but-complete submissions still count.
    pub fn delivered_in_full(&self, deadline: u32) -> bool {
        match self {
            WorkerFate::Delivered | WorkerFate::Corrupted { .. } => true,
            WorkerFate::Straggler { delay } => *delay <= deadline,
            WorkerFate::NoShow | WorkerFate::ShowedButFailed | WorkerFate::Partial { .. } => false,
        }
    }

    /// Whether any of the worker's labels reached the platform in time.
    pub fn delivered_anything(&self, deadline: u32) -> bool {
        match self {
            WorkerFate::NoShow | WorkerFate::ShowedButFailed => false,
            WorkerFate::Partial { dropped: _ } => true,
            _ => self.delivered_in_full(deadline),
        }
    }

    /// Whether the worker participated at all — delivered, attempted, or
    /// failed *while trying*. Only [`WorkerFate::NoShow`] is `false`: the
    /// distinction reputation systems care about.
    pub fn showed_up(&self) -> bool {
        !matches!(self, WorkerFate::NoShow)
    }
}

/// Per-fate tally of one phase's assignment — the accounting shape
/// reputation and degradation reports consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FateCounts {
    /// Full on-time deliveries.
    pub delivered: usize,
    /// Workers who never showed.
    pub no_show: usize,
    /// Workers who showed but whose whole bundle failed.
    pub showed_but_failed: usize,
    /// Partial deliveries.
    pub partial: usize,
    /// Stragglers (any delay).
    pub straggler: usize,
    /// Corrupted-but-complete submissions.
    pub corrupted: usize,
}

impl FateCounts {
    /// Tallies a fate slice.
    pub fn tally(fates: &[(WorkerId, WorkerFate)]) -> FateCounts {
        let mut c = FateCounts::default();
        for (_, f) in fates {
            match f {
                WorkerFate::Delivered => c.delivered += 1,
                WorkerFate::NoShow => c.no_show += 1,
                WorkerFate::ShowedButFailed => c.showed_but_failed += 1,
                WorkerFate::Partial { .. } => c.partial += 1,
                WorkerFate::Straggler { .. } => c.straggler += 1,
                WorkerFate::Corrupted { .. } => c.corrupted += 1,
            }
        }
        c
    }

    /// Adds another tally into this one (e.g. a backfill phase's fates on
    /// top of the primary round's).
    pub fn absorb(&mut self, other: &FateCounts) {
        self.delivered += other.delivered;
        self.no_show += other.no_show;
        self.showed_but_failed += other.showed_but_failed;
        self.partial += other.partial;
        self.straggler += other.straggler;
        self.corrupted += other.corrupted;
    }
}

/// A per-task coverage shortfall surviving after backfill: the typed
/// "what degraded and by how much" record of a [`DegradedRoundReport`]
/// (see [`crate::platform`]).
///
/// [`DegradedRoundReport`]: crate::platform::DegradedRoundReport
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageShortfall {
    /// The under-covered task.
    pub task: TaskId,
    /// Required coverage `Q_j = 2 ln(1/δ_j)`.
    pub required: f64,
    /// Coverage `Σ q_ij` actually achieved by surviving reports.
    pub achieved: f64,
}

impl From<CoverageShortfall> for McsError {
    fn from(s: CoverageShortfall) -> McsError {
        McsError::CoverageShortfall {
            task: s.task,
            required: s.required,
            achieved: s.achieved,
        }
    }
}

/// Deterministically assigns fates to workers according to a [`FaultPlan`].
///
/// Fate draws are keyed by `(seed, phase, worker)`, so they are independent
/// of iteration order, of the main round RNG, and of one another.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Wraps a validated plan.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::validate`] errors.
    pub fn new(plan: FaultPlan) -> Result<Self, McsError> {
        plan.validate()?;
        Ok(FaultInjector { plan })
    }

    /// The wrapped plan.
    #[inline]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws the fate of one worker's submission in one phase (phase 0 is
    /// the primary round; backfill rounds count up from 1).
    pub fn fate_of(&self, phase: u32, worker: WorkerId, bundle: &Bundle) -> WorkerFate {
        if self.plan.is_empty() {
            return WorkerFate::Delivered;
        }
        let salt = ((phase as u64) << 32) | worker.0 as u64;
        let mut r = rng::derived(self.plan.seed, salt);
        let u: f64 = r.gen();
        let p = &self.plan;
        if u < p.no_show_rate {
            return WorkerFate::NoShow;
        }
        if u < p.no_show_rate + p.partial_dropout_rate {
            let mut dropped: Vec<TaskId> = bundle
                .iter()
                .filter(|_| r.gen_bool(p.dropout_fraction.clamp(0.0, 1.0)))
                .collect();
            // A degenerate draw collapses to the nearest non-degenerate
            // fault: dropping everything is a no-show, dropping nothing is
            // a delivery.
            if dropped.len() == bundle.len() {
                return WorkerFate::NoShow;
            }
            if dropped.is_empty() {
                if let Some(first) = bundle.iter().next() {
                    dropped.push(first);
                } else {
                    return WorkerFate::Delivered;
                }
                if dropped.len() == bundle.len() {
                    return WorkerFate::NoShow;
                }
            }
            return WorkerFate::Partial { dropped };
        }
        if u < p.no_show_rate + p.partial_dropout_rate + p.straggler_rate {
            let (lo, hi) = p.straggler_delay;
            let delay = if lo >= hi { lo } else { r.gen_range(lo..=hi) };
            return WorkerFate::Straggler { delay };
        }
        if u < p.no_show_rate + p.partial_dropout_rate + p.straggler_rate + p.flip_rate {
            let flipped: Vec<TaskId> = bundle
                .iter()
                .filter(|_| r.gen_bool(p.flip_fraction.clamp(0.0, 1.0)))
                .collect();
            if flipped.is_empty() {
                return WorkerFate::Delivered;
            }
            return WorkerFate::Corrupted { flipped };
        }
        WorkerFate::Delivered
    }

    /// Draws fates for a whole assignment (one phase).
    pub fn fates_for(
        &self,
        phase: u32,
        assignment: &[(WorkerId, Bundle)],
    ) -> Vec<(WorkerId, WorkerFate)> {
        assignment
            .iter()
            .map(|(w, b)| (*w, self.fate_of(phase, *w, b)))
            .collect()
    }
}

/// Applies fates to the labels a phase *would* have produced, returning
/// only what the platform actually receives within `deadline` ticks.
///
/// Labels from workers without a fate entry pass through unchanged (they
/// were not part of this phase's assignment).
pub fn filter_labels(
    labels: &LabelSet,
    fates: &[(WorkerId, WorkerFate)],
    deadline: u32,
) -> LabelSet {
    let fate_of = |w: WorkerId| fates.iter().find(|(fw, _)| *fw == w).map(|(_, f)| f);
    let mut delivered = LabelSet::new(labels.num_tasks());
    for obs in labels.iter() {
        let kept = match fate_of(obs.worker) {
            None | Some(WorkerFate::Delivered) => Some(obs.label),
            Some(WorkerFate::NoShow) | Some(WorkerFate::ShowedButFailed) => None,
            Some(WorkerFate::Straggler { delay }) => (*delay <= deadline).then_some(obs.label),
            Some(WorkerFate::Partial { dropped }) => {
                (!dropped.contains(&obs.task)).then_some(obs.label)
            }
            Some(WorkerFate::Corrupted { flipped }) => Some(if flipped.contains(&obs.task) {
                -obs.label
            } else {
                obs.label
            }),
        };
        if let Some(label) = kept {
            delivered.push(Observation { label, ..obs });
        }
    }
    delivered
}

/// The achieved error bound `δ̂_j = exp(−C_j / 2)` implied by coverage
/// `C_j` (the inverse of Lemma 1's `Q_j = 2 ln(1/δ_j)`).
///
/// Zero coverage yields `δ̂ = 1`: no guarantee at all.
#[inline]
pub fn achieved_delta(coverage: f64) -> f64 {
    (-coverage.max(0.0) / 2.0).exp()
}

/// Salt XORed into the plan seed for completion draws, so Bernoulli
/// task-completion sampling and fault-fate sampling come from disjoint
/// RNG streams even for the same `(phase, worker)`.
const COMPLETION_STREAM: u64 = 0x434F_4D50_4C45_5445; // "COMPLETE"

/// Samples Bernoulli task completions for an uncertain
/// [`CompletionModel`] and folds the sampled non-completions into worker
/// fates.
///
/// Under [`CompletionModel::Deterministic`] — or a Bernoulli model with
/// every `p = 1` — this is a no-op that draws nothing, so the resilient
/// round stays byte-identical to its pre-uncertainty behaviour. Draws are
/// keyed by `(seed ^ COMPLETION_STREAM, phase, worker)`, mirroring
/// [`FaultInjector::fate_of`]: independent of iteration order, of the
/// round's main RNG, and of the fault draws themselves.
#[derive(Debug, Clone)]
pub struct CompletionSampler<'a> {
    model: &'a CompletionModel,
    seed: u64,
}

impl<'a> CompletionSampler<'a> {
    /// Wraps a completion model and the round's fault seed.
    pub fn new(model: &'a CompletionModel, seed: u64) -> Self {
        CompletionSampler { model, seed }
    }

    /// The tasks of `bundle` worker `worker` fails to complete in `phase`
    /// (ascending task order). Only entries with `p < 1` consume
    /// randomness, so adding certain tasks never shifts draws.
    pub fn failed_tasks(&self, phase: u32, worker: WorkerId, bundle: &Bundle) -> Vec<TaskId> {
        if !self.model.is_uncertain() {
            return Vec::new();
        }
        let uncertain: Vec<(TaskId, f64)> = bundle
            .iter()
            .filter_map(|t| {
                let p = self.model.p(worker, t);
                (p < 1.0).then_some((t, p))
            })
            .collect();
        if uncertain.is_empty() {
            return Vec::new();
        }
        let salt = ((phase as u64) << 32) | worker.0 as u64;
        let mut r = rng::derived(self.seed ^ COMPLETION_STREAM, salt);
        uncertain
            .into_iter()
            .filter(|&(_, p)| !r.gen_bool(p))
            .map(|(t, _)| t)
            .collect()
    }

    /// Merges sampled non-completions into already-drawn fates for a whole
    /// assignment: a worker's failed tasks count exactly like dropped
    /// tasks — [`WorkerFate::ShowedButFailed`] where the whole bundle
    /// fails.
    ///
    /// Precedence: a failed task supersedes whatever else would have
    /// happened to it, so `Delivered`/on-time `Straggler`/`Corrupted`
    /// fates demote to [`WorkerFate::Partial`] over the surviving tasks
    /// (corruption flips on survivors are not re-modelled — the failed
    /// tasks simply never produce a label), and a full-bundle failure —
    /// directly or as a `Partial` union covering the bundle — becomes
    /// [`WorkerFate::ShowedButFailed`]: the worker participated, unlike a
    /// [`WorkerFate::NoShow`], even though nothing arrived. Payment and
    /// coverage accounting are identical for the two; reputation is not.
    /// `NoShow` and past-deadline stragglers deliver nothing either way
    /// and are left untouched.
    pub fn apply(
        &self,
        phase: u32,
        assignment: &[(WorkerId, Bundle)],
        fates: Vec<(WorkerId, WorkerFate)>,
        deadline: u32,
    ) -> Vec<(WorkerId, WorkerFate)> {
        if !self.model.is_uncertain() {
            return fates;
        }
        fates
            .into_iter()
            .map(|(w, fate)| {
                let Some((_, bundle)) = assignment.iter().find(|(aw, _)| *aw == w) else {
                    return (w, fate);
                };
                let failed = self.failed_tasks(phase, w, bundle);
                (w, merge_non_completions(fate, failed, bundle, deadline))
            })
            .collect()
    }
}

fn merge_non_completions(
    fate: WorkerFate,
    failed: Vec<TaskId>,
    bundle: &Bundle,
    deadline: u32,
) -> WorkerFate {
    if failed.is_empty() {
        return fate;
    }
    match fate {
        WorkerFate::NoShow => WorkerFate::NoShow,
        WorkerFate::ShowedButFailed => WorkerFate::ShowedButFailed,
        WorkerFate::Straggler { delay } if delay > deadline => WorkerFate::Straggler { delay },
        WorkerFate::Partial { mut dropped } => {
            for t in failed {
                if !dropped.contains(&t) {
                    dropped.push(t);
                }
            }
            dropped.sort_unstable_by_key(|t| t.0);
            if dropped.len() == bundle.len() {
                WorkerFate::ShowedButFailed
            } else {
                WorkerFate::Partial { dropped }
            }
        }
        WorkerFate::Delivered | WorkerFate::Straggler { .. } | WorkerFate::Corrupted { .. } => {
            if failed.len() == bundle.len() {
                WorkerFate::ShowedButFailed
            } else {
                WorkerFate::Partial { dropped: failed }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_agg::Label;
    use mcs_types::Bundle;

    fn bundle(tasks: &[u32]) -> Bundle {
        Bundle::new(tasks.iter().map(|&t| TaskId(t)).collect())
    }

    fn obs(w: u32, t: u32, l: Label) -> Observation {
        Observation {
            worker: WorkerId(w),
            task: TaskId(t),
            label: l,
        }
    }

    #[test]
    fn empty_plan_never_faults() {
        let inj = FaultInjector::new(FaultPlan::none()).unwrap();
        for w in 0..50 {
            assert_eq!(
                inj.fate_of(0, WorkerId(w), &bundle(&[0, 1, 2])),
                WorkerFate::Delivered
            );
        }
    }

    #[test]
    fn fates_are_deterministic_and_phase_dependent() {
        let plan = FaultPlan {
            no_show_rate: 0.25,
            partial_dropout_rate: 0.25,
            straggler_rate: 0.25,
            flip_rate: 0.25,
            seed: 7,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(plan).unwrap();
        let b = bundle(&[0, 1, 2, 3]);
        let first: Vec<WorkerFate> = (0..20).map(|w| inj.fate_of(0, WorkerId(w), &b)).collect();
        let second: Vec<WorkerFate> = (0..20).map(|w| inj.fate_of(0, WorkerId(w), &b)).collect();
        assert_eq!(first, second);
        let other_phase: Vec<WorkerFate> =
            (0..20).map(|w| inj.fate_of(1, WorkerId(w), &b)).collect();
        assert_ne!(first, other_phase, "phases share a fault stream");
    }

    #[test]
    fn no_show_rate_one_drops_everyone() {
        let inj = FaultInjector::new(FaultPlan::no_show(1.0, 3)).unwrap();
        for w in 0..20 {
            assert_eq!(
                inj.fate_of(0, WorkerId(w), &bundle(&[0])),
                WorkerFate::NoShow
            );
        }
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let mut p = FaultPlan::none();
        p.no_show_rate = -0.1;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.no_show_rate = 0.7;
        p.flip_rate = 0.5;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.straggler_delay = (5, 2);
        assert!(p.validate().is_err());
        assert!(FaultInjector::new(p).is_err());
    }

    #[test]
    fn filter_respects_each_fate() {
        let labels: LabelSet = [
            obs(0, 0, Label::Pos),
            obs(1, 0, Label::Pos),
            obs(2, 0, Label::Pos),
            obs(2, 1, Label::Neg),
            obs(3, 1, Label::Pos),
            obs(4, 1, Label::Neg),
        ]
        .into_iter()
        .collect();
        let fates = vec![
            (WorkerId(0), WorkerFate::NoShow),
            (WorkerId(1), WorkerFate::Straggler { delay: 99 }),
            (
                WorkerId(2),
                WorkerFate::Partial {
                    dropped: vec![TaskId(1)],
                },
            ),
            (
                WorkerId(3),
                WorkerFate::Corrupted {
                    flipped: vec![TaskId(1)],
                },
            ),
            // Worker 4 has no fate entry: passes through.
        ];
        let delivered = filter_labels(&labels, &fates, 10);
        // Worker 0 gone, worker 1 too late, worker 2 keeps task 0 only,
        // worker 3's task-1 label flipped, worker 4 untouched.
        assert_eq!(delivered.for_task(TaskId(0)), &[(WorkerId(2), Label::Pos)]);
        assert_eq!(
            delivered.for_task(TaskId(1)),
            &[(WorkerId(3), Label::Neg), (WorkerId(4), Label::Neg)]
        );
        // A generous deadline lets the straggler in.
        let relaxed = filter_labels(&labels, &fates, 100);
        assert_eq!(
            relaxed.for_task(TaskId(0)),
            &[(WorkerId(1), Label::Pos), (WorkerId(2), Label::Pos)]
        );
    }

    #[test]
    fn delivery_predicates() {
        assert!(WorkerFate::Delivered.delivered_in_full(0));
        assert!(!WorkerFate::NoShow.delivered_anything(10));
        assert!(WorkerFate::Straggler { delay: 5 }.delivered_in_full(5));
        assert!(!WorkerFate::Straggler { delay: 6 }.delivered_in_full(5));
        let partial = WorkerFate::Partial {
            dropped: vec![TaskId(0)],
        };
        assert!(!partial.delivered_in_full(10));
        assert!(partial.delivered_anything(10));
        assert!(WorkerFate::Corrupted {
            flipped: vec![TaskId(0)]
        }
        .delivered_in_full(10));
    }

    #[test]
    fn achieved_delta_inverts_lemma1_threshold() {
        for delta in [0.05, 0.1, 0.2, 0.5, 0.9] {
            let q = mcs_agg::lemma1_threshold(delta);
            assert!((achieved_delta(q) - delta).abs() < 1e-12);
        }
        assert_eq!(achieved_delta(0.0), 1.0);
        assert_eq!(achieved_delta(-3.0), 1.0);
    }

    #[test]
    fn shortfall_converts_to_typed_error() {
        let s = CoverageShortfall {
            task: TaskId(3),
            required: 4.0,
            achieved: 1.5,
        };
        let e: McsError = s.into();
        assert!(matches!(e, McsError::CoverageShortfall { .. }));
    }

    fn uncertain_model(p: f64) -> CompletionModel {
        CompletionModel::Bernoulli(mcs_types::BernoulliCompletion::new(
            vec![vec![(TaskId(0), p), (TaskId(1), p)]],
            vec![0.1, 0.1],
        ))
    }

    #[test]
    fn deterministic_sampler_draws_nothing_and_keeps_fates() {
        let model = CompletionModel::Deterministic;
        let sampler = CompletionSampler::new(&model, 7);
        let bundle = Bundle::new(vec![TaskId(0), TaskId(1)]);
        assert!(sampler.failed_tasks(0, WorkerId(0), &bundle).is_empty());
        let fates = vec![(WorkerId(0), WorkerFate::Delivered)];
        let assignment = vec![(WorkerId(0), bundle)];
        assert_eq!(
            sampler.apply(0, &assignment, fates.clone(), 10),
            fates,
            "deterministic apply is the identity"
        );
        // All-ones Bernoulli is equally inert.
        let unit = uncertain_model(0.3).with_unit_probabilities();
        let sampler = CompletionSampler::new(&unit, 7);
        let bundle = Bundle::new(vec![TaskId(0), TaskId(1)]);
        assert!(sampler.failed_tasks(0, WorkerId(0), &bundle).is_empty());
    }

    #[test]
    fn completion_draws_are_reproducible_and_phase_keyed() {
        let model = uncertain_model(0.5);
        let sampler = CompletionSampler::new(&model, 42);
        let bundle = Bundle::new(vec![TaskId(0), TaskId(1)]);
        let a = sampler.failed_tasks(0, WorkerId(0), &bundle);
        let b = sampler.failed_tasks(0, WorkerId(0), &bundle);
        assert_eq!(a, b, "same (seed, phase, worker) must redraw identically");
        // Across many phases a p = 0.5 pair must fail at least once and
        // succeed at least once.
        let outcomes: Vec<usize> = (0..64)
            .map(|ph| sampler.failed_tasks(ph, WorkerId(0), &bundle).len())
            .collect();
        assert!(outcomes.iter().any(|&n| n > 0));
        assert!(outcomes.contains(&0));
    }

    #[test]
    fn merge_counts_full_bundle_failure_as_showed_but_failed() {
        let model = uncertain_model(1e-9);
        let sampler = CompletionSampler::new(&model, 3);
        let bundle = Bundle::new(vec![TaskId(0), TaskId(1)]);
        let assignment = vec![(WorkerId(0), bundle.clone())];
        // p ≈ 0 ⇒ both tasks fail; every delivering fate demotes to
        // ShowedButFailed — the worker tried, nothing arrived.
        for fate in [
            WorkerFate::Delivered,
            WorkerFate::Straggler { delay: 1 },
            WorkerFate::Corrupted {
                flipped: vec![TaskId(0)],
            },
            WorkerFate::Partial {
                dropped: vec![TaskId(1)],
            },
        ] {
            let merged = sampler.apply(0, &assignment, vec![(WorkerId(0), fate)], 10);
            assert_eq!(merged, vec![(WorkerId(0), WorkerFate::ShowedButFailed)]);
            // Payment/coverage accounting is NoShow-identical…
            assert!(!merged[0].1.delivered_in_full(10));
            assert!(!merged[0].1.delivered_anything(10));
            // …but participation is not.
            assert!(merged[0].1.showed_up());
        }
        // A genuine no-show stays a no-show: absence is not failure.
        let merged = sampler.apply(0, &assignment, vec![(WorkerId(0), WorkerFate::NoShow)], 10);
        assert_eq!(merged, vec![(WorkerId(0), WorkerFate::NoShow)]);
        assert!(!merged[0].1.showed_up());
        // Late stragglers deliver nothing either way and keep their fate.
        let late = WorkerFate::Straggler { delay: 99 };
        let merged = sampler.apply(0, &assignment, vec![(WorkerId(0), late.clone())], 10);
        assert_eq!(merged, vec![(WorkerId(0), late)]);
    }

    #[test]
    fn fate_counts_distinguish_absence_from_failure() {
        let fates = vec![
            (WorkerId(0), WorkerFate::Delivered),
            (WorkerId(1), WorkerFate::NoShow),
            (WorkerId(2), WorkerFate::ShowedButFailed),
            (
                WorkerId(3),
                WorkerFate::Partial {
                    dropped: vec![TaskId(0)],
                },
            ),
            (WorkerId(4), WorkerFate::Straggler { delay: 3 }),
            (WorkerId(5), WorkerFate::ShowedButFailed),
        ];
        let counts = FateCounts::tally(&fates);
        assert_eq!(counts.no_show, 1);
        assert_eq!(counts.showed_but_failed, 2);
        assert_eq!(counts.delivered, 1);
        assert_eq!(counts.partial, 1);
        assert_eq!(counts.straggler, 1);
        assert_eq!(counts.corrupted, 0);
    }

    #[test]
    fn merge_partial_failure_drops_only_failed_tasks() {
        // Only task 0 is uncertain (and nearly always fails); task 1 is
        // certain and must survive as a Partial.
        let model = CompletionModel::Bernoulli(mcs_types::BernoulliCompletion::new(
            vec![vec![(TaskId(0), 1e-9)]],
            vec![0.1, 0.1],
        ));
        let sampler = CompletionSampler::new(&model, 5);
        let bundle = Bundle::new(vec![TaskId(0), TaskId(1)]);
        let assignment = vec![(WorkerId(0), bundle)];
        let merged = sampler.apply(
            0,
            &assignment,
            vec![(WorkerId(0), WorkerFate::Delivered)],
            10,
        );
        assert_eq!(
            merged,
            vec![(
                WorkerId(0),
                WorkerFate::Partial {
                    dropped: vec![TaskId(0)]
                }
            )]
        );
        // A partial worker is not paid — sampled non-completions gate
        // payment exactly like dropouts.
        assert!(!merged[0].1.delivered_in_full(10));
    }
}
