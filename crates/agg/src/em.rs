//! Dawid–Skene EM estimation of worker accuracies for binary tasks.
//!
//! When the platform has no ground truth, it can still estimate worker
//! skills from redundancy: workers who agree with the (soft) consensus are
//! likely accurate. This is the binary one-parameter-per-worker
//! Dawid–Skene model, one of the truth-discovery style estimators the paper
//! cites for maintaining the skill record `θ`.

use mcs_types::{TaskId, WorkerId};

use crate::estimate::{EstimateError, EstimateSource, SkillEstimate};
use crate::labels::{Label, LabelSet};

/// Configuration for the EM fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DawidSkene {
    /// Maximum EM iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the largest accuracy change per iteration.
    pub tolerance: f64,
    /// Accuracies are clamped to `[clamp, 1 − clamp]` to keep likelihoods
    /// finite (a worker with empirical accuracy exactly 1 would otherwise
    /// produce infinite log-odds).
    pub clamp: f64,
}

impl Default for DawidSkene {
    fn default() -> Self {
        DawidSkene {
            max_iterations: 100,
            tolerance: 1e-6,
            clamp: 1e-3,
        }
    }
}

/// The result of an EM fit.
#[derive(Debug, Clone, PartialEq)]
pub struct DawidSkeneFit {
    /// Estimated accuracy per worker (probability of reporting the true
    /// label), `0.5` for workers with no observations.
    pub accuracies: Vec<f64>,
    /// Posterior probability that each task's true label is `+1`.
    pub posterior_pos: Vec<f64>,
    /// Number of observations each worker contributed to the fit.
    pub observations: Vec<u64>,
    /// Iterations actually run.
    pub iterations: usize,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
}

impl DawidSkeneFit {
    /// Hard-decision labels from the posteriors (ties to `+1`).
    pub fn map_labels(&self) -> Vec<Label> {
        self.posterior_pos
            .iter()
            .map(|&p| Label::from_sign(p - 0.5 + f64::EPSILON))
            .collect()
    }

    /// Estimated accuracy of one worker.
    pub fn accuracy(&self, worker: WorkerId) -> f64 {
        self.accuracies[worker.index()]
    }

    /// Typed estimate of one worker: the EM accuracy plus the evidence
    /// behind it, in the shared [`SkillEstimate`] shape.
    ///
    /// # Errors
    ///
    /// * [`EstimateError::WorkerOutOfRange`] — `worker` is outside the
    ///   fitted pool.
    /// * [`EstimateError::NoObservations`] — the worker contributed no
    ///   labels; her `0.5` is the prior, not an estimate.
    pub fn estimate(&self, worker: WorkerId) -> Result<SkillEstimate, EstimateError> {
        let i = worker.index();
        if i >= self.accuracies.len() {
            return Err(EstimateError::WorkerOutOfRange {
                worker,
                num_workers: self.accuracies.len(),
            });
        }
        let n = self.observations.get(i).copied().unwrap_or(0);
        if n == 0 {
            return Err(EstimateError::NoObservations { worker });
        }
        Ok(SkillEstimate::new(
            self.accuracies[i],
            n as f64,
            EstimateSource::Em,
        ))
    }
}

/// The result of [`DawidSkene::fit_blocks`].
#[derive(Debug)]
pub(crate) struct BlockFit {
    /// Per block, the posterior probability that each task's true label is
    /// `+1`.
    pub(crate) posteriors: Vec<Vec<f64>>,
    /// Iterations actually run.
    pub(crate) iterations: usize,
    /// Whether the tolerance was reached before the iteration cap.
    pub(crate) converged: bool,
}

impl DawidSkene {
    /// Fits the model to a label set with `num_workers` workers.
    ///
    /// Initialization uses majority-vote posteriors; the E-step computes
    /// label posteriors from current accuracies, the M-step re-estimates
    /// accuracies as posterior-weighted agreement rates.
    ///
    /// # Panics
    ///
    /// Panics if an observation references `worker ≥ num_workers`.
    pub fn fit(&self, labels: &LabelSet, num_workers: usize) -> DawidSkeneFit {
        let mut observations = vec![0u64; num_workers];
        for obs in labels.iter() {
            let w = obs.worker.index();
            assert!(w < num_workers, "observation references unknown worker");
            observations[w] += 1;
        }
        // One block of weight 1, started from the uninformative 0.5.
        let mut accuracies = vec![0.5; num_workers];
        let BlockFit {
            mut posteriors,
            iterations,
            converged,
        } = self.fit_blocks(std::slice::from_ref(labels), &[1.0], &mut accuracies);
        DawidSkeneFit {
            accuracies,
            posterior_pos: posteriors.pop().unwrap_or_default(),
            observations,
            iterations,
            converged,
        }
    }

    /// The EM over label blocks that share per-worker accuracies, each
    /// block with its own ground truth and so its own label posteriors
    /// (initialized from vote fractions). The M-step weighs block `b`'s
    /// observations by `weights[b]`. `accuracies` is the warm start and
    /// receives the fit; a worker with no weighted observation keeps its
    /// entry.
    pub(crate) fn fit_blocks(
        &self,
        blocks: &[LabelSet],
        weights: &[f64],
        accuracies: &mut [f64],
    ) -> BlockFit {
        let mut posteriors: Vec<Vec<f64>> = blocks
            .iter()
            .map(|block| {
                (0..block.num_tasks())
                    .map(|j| {
                        let reports = block.for_task(TaskId(j as u32));
                        if reports.is_empty() {
                            return 0.5;
                        }
                        let pos = reports.iter().filter(|&&(_, l)| l == Label::Pos).count();
                        pos as f64 / reports.len() as f64
                    })
                    .collect()
            })
            .collect();
        let mut iterations = 0;
        let mut converged = false;

        for _ in 0..self.max_iterations {
            iterations += 1;
            // M-step: accuracy = weighted posterior agreement.
            let mut agree = vec![0.0f64; accuracies.len()];
            let mut total = vec![0.0f64; accuracies.len()];
            for ((block, posts), &weight) in blocks.iter().zip(&posteriors).zip(weights) {
                for obs in block.iter() {
                    let p_pos = posts[obs.task.index()];
                    let p_agree = match obs.label {
                        Label::Pos => p_pos,
                        Label::Neg => 1.0 - p_pos,
                    };
                    agree[obs.worker.index()] += weight * p_agree;
                    total[obs.worker.index()] += weight;
                }
            }
            let mut max_change = 0.0f64;
            for (w, acc) in accuracies.iter_mut().enumerate() {
                let new_acc = if total[w] > 0.0 {
                    (agree[w] / total[w]).clamp(self.clamp, 1.0 - self.clamp)
                } else {
                    *acc
                };
                max_change = max_change.max((new_acc - *acc).abs());
                *acc = new_acc;
            }

            // E-step: posterior ∝ prior · Π p(label | truth), uniform
            // prior, per block under the shared accuracies.
            for (block, posts) in blocks.iter().zip(&mut posteriors) {
                for (j, post) in posts.iter_mut().enumerate() {
                    let reports = block.for_task(TaskId(j as u32));
                    if reports.is_empty() {
                        *post = 0.5;
                        continue;
                    }
                    // Log-odds of the +1 class.
                    let log_odds: f64 = reports
                        .iter()
                        .map(|&(w, l)| {
                            let a = accuracies[w.index()];
                            let ratio = (a / (1.0 - a)).ln();
                            match l {
                                Label::Pos => ratio,
                                Label::Neg => -ratio,
                            }
                        })
                        .sum();
                    *post = 1.0 / (1.0 + (-log_odds).exp());
                }
            }

            if max_change < self.tolerance {
                converged = true;
                break;
            }
        }

        BlockFit {
            posteriors,
            iterations,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{generate_labels, Observation};
    use mcs_num::rng;
    use mcs_types::{Bundle, SkillMatrix, TaskId};
    use rand::Rng;

    #[test]
    fn recovers_accuracies_with_redundancy() {
        // 5 workers with known accuracies label 200 tasks each.
        let theta = [0.95, 0.85, 0.75, 0.65, 0.55];
        let k = 200usize;
        let rows: Vec<Vec<f64>> = theta.iter().map(|&t| vec![t; k]).collect();
        let skills = SkillMatrix::from_rows(rows).unwrap();
        let mut r = rng::seeded(10);
        let truth: Vec<Label> = (0..k).map(|_| Label::random(&mut r)).collect();
        let all_tasks = Bundle::new((0..k as u32).map(TaskId).collect());
        let assignment: Vec<(WorkerId, Bundle)> =
            (0..5).map(|i| (WorkerId(i), all_tasks.clone())).collect();
        let labels = generate_labels(&skills, &truth, &assignment, &mut r);

        let fit = DawidSkene::default().fit(&labels, 5);
        assert!(fit.converged, "EM did not converge");
        for (w, &t) in theta.iter().enumerate() {
            let est = fit.accuracies[w];
            assert!(
                (est - t).abs() < 0.08,
                "worker {w}: estimated {est}, true {t}"
            );
        }
        // MAP labels should be overwhelmingly correct.
        let map = fit.map_labels();
        let correct = map.iter().zip(&truth).filter(|(a, b)| a == b).count();
        assert!(correct as f64 / k as f64 > 0.95);
    }

    #[test]
    fn worker_without_labels_stays_at_half() {
        let labels: LabelSet = [Observation {
            worker: WorkerId(0),
            task: TaskId(0),
            label: Label::Pos,
        }]
        .into_iter()
        .collect();
        let fit = DawidSkene::default().fit(&labels, 2);
        assert_eq!(fit.accuracies[1], 0.5);
        assert_eq!(fit.observations, vec![1, 0]);
        // The typed accessor refuses to dress the prior up as an estimate.
        assert!(matches!(
            fit.estimate(WorkerId(1)),
            Err(crate::EstimateError::NoObservations {
                worker: WorkerId(1)
            })
        ));
        assert!(matches!(
            fit.estimate(WorkerId(7)),
            Err(crate::EstimateError::WorkerOutOfRange { num_workers: 2, .. })
        ));
        let est = fit.estimate(WorkerId(0)).unwrap();
        assert_eq!(est.observations, 1.0);
        assert_eq!(est.source, crate::EstimateSource::Em);
        assert_eq!(est.accuracy, fit.accuracies[0]);
    }

    #[test]
    fn empty_label_set_is_uninformative() {
        let fit = DawidSkene::default().fit(&LabelSet::new(3), 2);
        assert_eq!(fit.accuracies, vec![0.5, 0.5]);
        assert_eq!(fit.posterior_pos, vec![0.5; 3]);
    }

    #[test]
    fn accuracies_are_clamped() {
        // One worker, one task: empirical agreement is 1.0; must clamp.
        let labels: LabelSet = [Observation {
            worker: WorkerId(0),
            task: TaskId(0),
            label: Label::Pos,
        }]
        .into_iter()
        .collect();
        let ds = DawidSkene::default();
        let fit = ds.fit(&labels, 1);
        assert!(fit.accuracies[0] <= 1.0 - ds.clamp + 1e-12);
    }

    #[test]
    fn iteration_cap_respected() {
        let mut r = rng::seeded(3);
        let labels: LabelSet = (0..20)
            .map(|j| Observation {
                worker: WorkerId(j % 4),
                task: TaskId(j / 4),
                label: if r.gen_bool(0.5) {
                    Label::Pos
                } else {
                    Label::Neg
                },
            })
            .collect();
        let fit = DawidSkene {
            max_iterations: 2,
            tolerance: 0.0,
            ..Default::default()
        }
        .fit(&labels, 4);
        assert_eq!(fit.iterations, 2);
        assert!(!fit.converged);
    }
}
