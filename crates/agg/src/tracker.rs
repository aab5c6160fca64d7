//! Online skill tracking across campaign rounds.
//!
//! A deployed platform never sees θ; it sees one round of labels at a
//! time. [`SkillTracker`] maintains the platform's running estimate θ̂:
//!
//! * **Warm-restarted Dawid–Skene EM** — each refit starts from the
//!   previous round's accuracies instead of 0.5, so convergence cost is
//!   paid once and later rounds only pay for the update.
//! * **Per-round truth blocks** — unlike naively pooling every label into
//!   one set (which mixes rounds whose ground truths differ), the tracker
//!   keeps each round's labels as its own block with its own label
//!   posteriors, sharing only the per-worker accuracies across blocks.
//! * **Exponential forgetting** — block `r` rounds old carries weight
//!   `λ^r`, so a worker whose skill drifts (or a sleeper agent who turns)
//!   is re-estimated from recent behaviour rather than averaged into her
//!   history. Blocks whose weight falls below [`TrackerConfig::min_weight`]
//!   are evicted, bounding memory at ~`ln(min_weight)/ln(λ)` rounds.
//! * **Gold blending** — answers on known-truth tasks enter a supervised
//!   side channel; the published estimate is the evidence-weighted blend
//!   of the EM and gold accuracies (see [`SkillEstimate::blend`]).

use mcs_types::{McsError, WorkerId};

use crate::em::DawidSkene;
use crate::estimate::{EstimateError, EstimateSource, SkillEstimate};
use crate::labels::{Label, LabelSet};

/// Configuration of a [`SkillTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// EM hyperparameters shared by every refit.
    pub em: DawidSkene,
    /// Per-round forgetting factor `λ ∈ (0, 1]`: a block `r` rounds old
    /// weighs `λ^r`. `1.0` disables forgetting.
    pub forgetting: f64,
    /// Blocks lighter than this are evicted from the window.
    pub min_weight: f64,
    /// Multiplier on gold-task evidence when blending with EM evidence.
    /// Gold answers are verified against known truth, so platforms
    /// typically trust them more per observation than consensus agreement.
    pub gold_weight: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            em: DawidSkene::default(),
            forgetting: 0.8,
            min_weight: 1e-3,
            gold_weight: 4.0,
        }
    }
}

impl TrackerConfig {
    /// Structural validation.
    ///
    /// # Errors
    ///
    /// [`McsError::Solver`] naming the offending field.
    pub fn validate(&self) -> Result<(), McsError> {
        if !(self.forgetting > 0.0 && self.forgetting <= 1.0) {
            return Err(McsError::Solver {
                message: format!("tracker forgetting {} outside (0, 1]", self.forgetting),
            });
        }
        if !(self.min_weight > 0.0 && self.min_weight <= 1.0) {
            return Err(McsError::Solver {
                message: format!("tracker min_weight {} outside (0, 1]", self.min_weight),
            });
        }
        if !(self.gold_weight.is_finite() && self.gold_weight >= 0.0) {
            return Err(McsError::Solver {
                message: format!("tracker gold_weight {} is negative", self.gold_weight),
            });
        }
        Ok(())
    }
}

/// Diagnostics of the most recent [`SkillTracker::refit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefitInfo {
    /// EM iterations the refit ran.
    pub iterations: usize,
    /// Whether EM converged within the iteration cap.
    pub converged: bool,
    /// Label blocks in the window after eviction.
    pub window: usize,
}

/// The platform's running per-worker accuracy estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SkillTracker {
    config: TrackerConfig,
    num_workers: usize,
    /// Per-round label blocks, oldest first.
    rounds: Vec<LabelSet>,
    /// Shared EM accuracies, warm-started between refits.
    em_accuracies: Vec<f64>,
    /// Published (gold-blended) accuracies.
    accuracies: Vec<f64>,
    gold_correct: Vec<u64>,
    gold_answered: Vec<u64>,
    last_refit: Option<RefitInfo>,
}

impl SkillTracker {
    /// Creates a tracker over `num_workers` workers.
    ///
    /// # Errors
    ///
    /// Propagates [`TrackerConfig::validate`] errors.
    pub fn new(num_workers: usize, config: TrackerConfig) -> Result<Self, McsError> {
        config.validate()?;
        Ok(SkillTracker {
            config,
            num_workers,
            rounds: Vec::new(),
            em_accuracies: vec![0.5; num_workers],
            accuracies: vec![0.5; num_workers],
            gold_correct: vec![0; num_workers],
            gold_answered: vec![0; num_workers],
            last_refit: None,
        })
    }

    /// Number of workers tracked.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The published per-worker accuracies (gold-blended, `0.5` prior for
    /// workers with no evidence). Call [`SkillTracker::refit`] after
    /// feeding observations to refresh them.
    #[inline]
    pub fn accuracies(&self) -> &[f64] {
        &self.accuracies
    }

    /// Diagnostics of the last refit, if any.
    #[inline]
    pub fn last_refit(&self) -> Option<RefitInfo> {
        self.last_refit
    }

    /// Feeds one round's delivered labels as a new block.
    ///
    /// # Errors
    ///
    /// [`McsError::WorkerOutOfRange`] when a label references a worker
    /// outside the tracked pool.
    pub fn observe_round(&mut self, labels: &LabelSet) -> Result<(), McsError> {
        for obs in labels.iter() {
            if obs.worker.index() >= self.num_workers {
                return Err(McsError::WorkerOutOfRange {
                    worker: obs.worker,
                    num_workers: self.num_workers,
                });
            }
        }
        self.rounds.push(labels.clone());
        self.evict();
        Ok(())
    }

    /// Feeds answers to gold (known-truth) tasks into the supervised side
    /// channel. Returns the number of answers absorbed.
    ///
    /// # Errors
    ///
    /// * [`McsError::DimensionMismatch`] — `truth` shorter than the label
    ///   set's task count.
    /// * [`McsError::WorkerOutOfRange`] — a label references a worker
    ///   outside the tracked pool.
    pub fn observe_gold(&mut self, labels: &LabelSet, truth: &[Label]) -> Result<usize, McsError> {
        if truth.len() != labels.num_tasks() {
            return Err(McsError::DimensionMismatch {
                what: "gold truth vector",
                expected: labels.num_tasks(),
                actual: truth.len(),
            });
        }
        let mut absorbed = 0usize;
        for obs in labels.iter() {
            let w = obs.worker.index();
            if w >= self.num_workers {
                return Err(McsError::WorkerOutOfRange {
                    worker: obs.worker,
                    num_workers: self.num_workers,
                });
            }
            self.gold_answered[w] += 1;
            if obs.label == truth[obs.task.index()] {
                self.gold_correct[w] += 1;
            }
            absorbed += 1;
        }
        Ok(absorbed)
    }

    /// Weight of the block at window index `idx` (oldest first).
    fn block_weight(&self, idx: usize) -> f64 {
        let age = self.rounds.len() - 1 - idx;
        self.config.forgetting.powi(age as i32)
    }

    /// Drops blocks whose forgetting weight fell below the floor.
    fn evict(&mut self) {
        let keep_from = (0..self.rounds.len())
            .find(|&idx| self.block_weight(idx) >= self.config.min_weight)
            .unwrap_or(self.rounds.len());
        if keep_from > 0 {
            self.rounds.drain(..keep_from);
        }
    }

    /// EM evidence mass per worker: forgetting-discounted label counts.
    fn em_evidence(&self) -> Vec<f64> {
        let mut evidence = vec![0.0f64; self.num_workers];
        for (idx, block) in self.rounds.iter().enumerate() {
            let w_r = self.block_weight(idx);
            for obs in block.iter() {
                evidence[obs.worker.index()] += w_r;
            }
        }
        evidence
    }

    /// Re-estimates accuracies from the current window and gold evidence.
    ///
    /// Runs the block-structured weighted EM warm-started from the last
    /// fit: accuracies are shared across blocks, label posteriors are per
    /// block (each block drew its own ground truth), and the M-step weighs
    /// block `r`'s observations by `λ^age(r)`. It then blends each
    /// worker's EM estimate with her gold estimate by evidence mass.
    /// Workers with no evidence on either channel stay at the `0.5` prior.
    pub fn refit(&mut self) -> &[f64] {
        let weights: Vec<f64> = (0..self.rounds.len())
            .map(|idx| self.block_weight(idx))
            .collect();
        let fit = self
            .config
            .em
            .fit_blocks(&self.rounds, &weights, &mut self.em_accuracies);
        for (w, mass) in self.em_evidence().into_iter().enumerate() {
            self.accuracies[w] = self.blended(w, mass).map_or(0.5, |e| e.accuracy);
        }
        self.last_refit = Some(RefitInfo {
            iterations: fit.iterations,
            converged: fit.converged,
            window: self.rounds.len(),
        });
        &self.accuracies
    }

    /// The typed estimate for one worker, from whichever channels have
    /// evidence.
    ///
    /// # Errors
    ///
    /// * [`EstimateError::WorkerOutOfRange`] — unknown worker.
    /// * [`EstimateError::NoObservations`] — no labels and no gold answers.
    pub fn estimate(&self, worker: WorkerId) -> Result<SkillEstimate, EstimateError> {
        let w = worker.index();
        if w >= self.num_workers {
            return Err(EstimateError::WorkerOutOfRange {
                worker,
                num_workers: self.num_workers,
            });
        }
        self.blended(w, self.em_evidence()[w])
            .ok_or(EstimateError::NoObservations { worker })
    }

    /// Worker `w`'s estimate from the channels with evidence: the EM
    /// accuracy backed by its evidence `mass`, the Laplace-smoothed gold
    /// accuracy, or their evidence-weighted blend (`None` without either).
    fn blended(&self, w: usize, mass: f64) -> Option<SkillEstimate> {
        let em = (mass > 0.0)
            .then(|| SkillEstimate::new(self.em_accuracies[w], mass, EstimateSource::Em));
        let gold = (self.gold_answered[w] > 0).then(|| {
            let acc = (self.gold_correct[w] as f64 + 1.0) / (self.gold_answered[w] as f64 + 2.0);
            SkillEstimate::new(
                acc,
                self.gold_answered[w] as f64 * self.config.gold_weight,
                EstimateSource::Gold,
            )
        });
        match (em, gold) {
            (Some(e), Some(g)) => Some(e.blend(&g)),
            (e, g) => e.or(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{generate_labels, Observation};
    use mcs_num::rng;
    use mcs_types::{Bundle, SkillMatrix, TaskId};

    const THETA: [f64; 5] = [0.95, 0.85, 0.75, 0.65, 0.55];

    fn round_labels(theta: &[f64], tasks: usize, seed: u64) -> LabelSet {
        let rows: Vec<Vec<f64>> = theta.iter().map(|&t| vec![t; tasks]).collect();
        let skills = SkillMatrix::from_rows(rows).unwrap();
        let mut r = rng::seeded(seed);
        let truth: Vec<Label> = (0..tasks).map(|_| Label::random(&mut r)).collect();
        let all = Bundle::new((0..tasks as u32).map(TaskId).collect());
        let assignment: Vec<(WorkerId, Bundle)> = (0..theta.len())
            .map(|i| (WorkerId(i as u32), all.clone()))
            .collect();
        generate_labels(&skills, &truth, &assignment, &mut r)
    }

    #[test]
    fn stationary_skills_are_recovered() {
        let mut tracker = SkillTracker::new(
            5,
            TrackerConfig {
                forgetting: 1.0,
                ..TrackerConfig::default()
            },
        )
        .unwrap();
        for round in 0..8 {
            tracker
                .observe_round(&round_labels(&THETA, 60, 100 + round))
                .unwrap();
            tracker.refit();
        }
        for (w, &t) in THETA.iter().enumerate() {
            let est = tracker.accuracies()[w];
            assert!((est - t).abs() < 0.12, "worker {w}: {est} vs {t}");
        }
        let info = tracker.last_refit().unwrap();
        assert_eq!(info.window, 8);
    }

    #[test]
    fn forgetting_tracks_drift_faster() {
        // Worker 0 degrades from 0.95 to 0.55 halfway through; a
        // forgetting tracker should sit closer to the recent truth than a
        // remember-everything one.
        let drifted = {
            let mut t = THETA;
            t[0] = 0.55;
            t
        };
        let run = |forgetting: f64| {
            let mut tracker = SkillTracker::new(
                5,
                TrackerConfig {
                    forgetting,
                    ..TrackerConfig::default()
                },
            )
            .unwrap();
            for round in 0..6 {
                tracker
                    .observe_round(&round_labels(&THETA, 60, 200 + round))
                    .unwrap();
            }
            for round in 0..6 {
                tracker
                    .observe_round(&round_labels(&drifted, 60, 300 + round))
                    .unwrap();
            }
            tracker.refit();
            tracker.accuracies()[0]
        };
        let sticky = run(1.0);
        let agile = run(0.5);
        assert!(
            agile < sticky - 0.05,
            "forgetting {agile} should track drift below sticky {sticky}"
        );
        assert!(agile < 0.75, "agile estimate {agile} still too high");
    }

    #[test]
    fn eviction_bounds_the_window() {
        let mut tracker = SkillTracker::new(
            5,
            TrackerConfig {
                forgetting: 0.5,
                min_weight: 0.05,
                ..TrackerConfig::default()
            },
        )
        .unwrap();
        for round in 0..20 {
            tracker
                .observe_round(&round_labels(&THETA, 20, 400 + round))
                .unwrap();
        }
        tracker.refit();
        // 0.5^4 = 0.0625 ≥ 0.05 > 0.5^5: window keeps 5 blocks.
        assert_eq!(tracker.last_refit().unwrap().window, 5);
    }

    #[test]
    fn gold_evidence_covers_em_silence() {
        let mut tracker = SkillTracker::new(2, TrackerConfig::default()).unwrap();
        let mut gold = LabelSet::new(4);
        for t in 0..4 {
            gold.push(Observation {
                worker: WorkerId(1),
                task: TaskId(t),
                label: Label::Pos,
            });
        }
        let truth = vec![Label::Pos; 4];
        assert_eq!(tracker.observe_gold(&gold, &truth).unwrap(), 4);
        tracker.refit();
        // Worker 1: (4+1)/(4+2) from gold alone; worker 0: prior.
        assert!((tracker.accuracies()[1] - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(tracker.accuracies()[0], 0.5);
        let est = tracker.estimate(WorkerId(1)).unwrap();
        assert_eq!(est.source, EstimateSource::Gold);
        assert!(matches!(
            tracker.estimate(WorkerId(0)),
            Err(EstimateError::NoObservations { .. })
        ));
        assert!(matches!(
            tracker.estimate(WorkerId(2)),
            Err(EstimateError::WorkerOutOfRange { .. })
        ));
    }

    #[test]
    fn gold_and_em_blend_by_evidence() {
        let mut tracker = SkillTracker::new(5, TrackerConfig::default()).unwrap();
        tracker
            .observe_round(&round_labels(&THETA, 60, 500))
            .unwrap();
        let mut gold = LabelSet::new(2);
        gold.push(Observation {
            worker: WorkerId(0),
            task: TaskId(0),
            label: Label::Pos,
        });
        gold.push(Observation {
            worker: WorkerId(0),
            task: TaskId(1),
            label: Label::Pos,
        });
        tracker
            .observe_gold(&gold, &[Label::Pos, Label::Neg])
            .unwrap();
        tracker.refit();
        let est = tracker.estimate(WorkerId(0)).unwrap();
        assert_eq!(est.source, EstimateSource::Blended);
        // Blend sits strictly between the gold estimate (0.5) and the EM
        // estimate (near 0.95).
        assert!(est.accuracy > 0.5 && est.accuracy < 0.97);
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(SkillTracker::new(
                1,
                TrackerConfig {
                    forgetting: bad,
                    ..TrackerConfig::default()
                }
            )
            .is_err());
        }
        assert!(SkillTracker::new(
            1,
            TrackerConfig {
                gold_weight: -1.0,
                ..TrackerConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn out_of_pool_observations_are_rejected() {
        let mut tracker = SkillTracker::new(1, TrackerConfig::default()).unwrap();
        let mut labels = LabelSet::new(1);
        labels.push(Observation {
            worker: WorkerId(3),
            task: TaskId(0),
            label: Label::Pos,
        });
        assert!(tracker.observe_round(&labels).is_err());
        assert!(tracker.observe_gold(&labels, &[Label::Pos]).is_err());
        // Dimension mismatch on gold truth.
        let ok = LabelSet::new(2);
        assert!(matches!(
            tracker.observe_gold(&ok, &[Label::Pos]),
            Err(McsError::DimensionMismatch { .. })
        ));
    }
}
