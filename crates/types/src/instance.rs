//! Complete auction instances and the derived covering problem.

use serde::{Deserialize, Serialize};

use crate::{
    chance_quota, Bid, BidProfile, CompletionModel, McsError, Price, PriceGrid, SkillMatrix,
    SparseCoverage, TaskId, UncertainCoverage, WorkerId,
};

/// A complete, validated input to the hSRC auction.
///
/// Bundles together everything the platform knows when it runs winner and
/// payment determination:
///
/// * the bid profile `b` (one bid per worker),
/// * the skill matrix `θ`,
/// * the per-task aggregation-error bounds `δ_j`,
/// * the candidate price grid `P` (before feasibility filtering), and
/// * the cost range `[c_min, c_max]` of the finite cost set `C`.
///
/// Construct instances through [`Instance::builder`], which validates all
/// cross-field invariants.
///
/// # Examples
///
/// ```
/// use mcs_types::{Bid, Bundle, Instance, Price, SkillMatrix, TaskId};
///
/// # fn main() -> Result<(), mcs_types::McsError> {
/// let instance = Instance::builder(1)
///     .bids(vec![Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(10.0))])
///     .skills(SkillMatrix::from_rows(vec![vec![0.9]])?)
///     .uniform_error_bound(0.2)
///     .price_grid_f64(10.0, 20.0, 0.1)
///     .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
///     .build()?;
/// let cover = instance.coverage_problem();
/// assert!(cover.q(mcs_types::WorkerId(0), TaskId(0)) > 0.6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    num_tasks: usize,
    bids: BidProfile,
    skills: SkillMatrix,
    deltas: Vec<f64>,
    price_grid: PriceGrid,
    cmin: Price,
    cmax: Price,
    /// Task-completion model; defaults to [`CompletionModel::Deterministic`]
    /// (instances serialized before this field existed decode as such).
    #[serde(default)]
    completion: CompletionModel,
}

impl Instance {
    /// Starts building an instance over `num_tasks` tasks.
    pub fn builder(num_tasks: usize) -> InstanceBuilder {
        InstanceBuilder {
            num_tasks,
            bids: None,
            skills: None,
            deltas: None,
            price_grid: None,
            cost_range: None,
            completion: None,
        }
    }

    /// Number of workers `N`.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.bids.len()
    }

    /// Number of tasks `K`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// The bid profile `b`.
    #[inline]
    pub fn bids(&self) -> &BidProfile {
        &self.bids
    }

    /// The skill matrix `θ`.
    #[inline]
    pub fn skills(&self) -> &SkillMatrix {
        &self.skills
    }

    /// The per-task error bounds `δ_j`.
    #[inline]
    pub fn deltas(&self) -> &[f64] {
        &self.deltas
    }

    /// The candidate price grid `P` (not yet feasibility-filtered).
    #[inline]
    pub fn price_grid(&self) -> &PriceGrid {
        &self.price_grid
    }

    /// Lower end of the cost set `C`.
    #[inline]
    pub fn cmin(&self) -> Price {
        self.cmin
    }

    /// Upper end of the cost set `C`.
    #[inline]
    pub fn cmax(&self) -> Price {
        self.cmax
    }

    /// The cost spread `Δc = c_max − c_min` appearing in the truthfulness
    /// bound (Theorem 3).
    #[inline]
    pub fn delta_c(&self) -> Price {
        self.cmax - self.cmin
    }

    /// The task-completion model.
    #[inline]
    pub fn completion(&self) -> &CompletionModel {
        &self.completion
    }

    /// Returns a copy of this instance with a different completion model.
    ///
    /// # Errors
    ///
    /// Same validation as the builder's — see [`CompletionModel::validate`].
    pub fn with_completion(&self, completion: CompletionModel) -> Result<Instance, McsError> {
        completion.validate(self.num_workers(), self.num_tasks)?;
        Ok(Instance {
            completion,
            ..self.clone()
        })
    }

    /// Checks how the parts of an instance fit together: the rules
    /// [`InstanceBuilder::build`] enforces, which a decoded instance must
    /// also pass before anything computes over it. The parts are checked
    /// on their own when they are made ([`SkillMatrix`] and [`PriceGrid`]
    /// refuse malformed values, also when decoded).
    ///
    /// # Errors
    ///
    /// * [`McsError::DimensionMismatch`] — skills/deltas disagree with the
    ///   worker or task counts.
    /// * [`McsError::EmptyBundle`] / [`McsError::UnsortedBundle`] /
    ///   [`McsError::BundleOutOfRange`] — a bid's bundle is empty, does not
    ///   list its tasks in strictly ascending order, or references unknown
    ///   tasks.
    /// * [`McsError::InvalidErrorBound`] — some `δ_j ∉ (0, 1)`.
    /// * [`McsError::InvalidCostRange`] — `c_max < c_min` or a bid price
    ///   outside `[c_min, c_max]`.
    /// * [`McsError::InvalidCompletionProb`] /
    ///   [`McsError::InvalidShortfallBound`] /
    ///   [`McsError::DuplicateCompletionEntry`] — an invalid completion
    ///   model (see [`CompletionModel::validate`]).
    pub fn validate(&self) -> Result<(), McsError> {
        let (cmin, cmax) = (self.cmin, self.cmax);
        if cmax < cmin {
            return Err(McsError::InvalidCostRange { cmin, cmax });
        }
        if self.skills.num_workers() != self.bids.len() {
            return Err(McsError::DimensionMismatch {
                what: "skill matrix workers",
                expected: self.bids.len(),
                actual: self.skills.num_workers(),
            });
        }
        if self.skills.num_tasks() != self.num_tasks {
            return Err(McsError::DimensionMismatch {
                what: "skill matrix tasks",
                expected: self.num_tasks,
                actual: self.skills.num_tasks(),
            });
        }
        if self.deltas.len() != self.num_tasks {
            return Err(McsError::DimensionMismatch {
                what: "error bound vector",
                expected: self.num_tasks,
                actual: self.deltas.len(),
            });
        }
        Instance::check_error_bounds(&self.deltas)?;
        for (wid, bid) in self.bids.iter() {
            let tasks = bid.bundle().as_slice();
            if tasks.is_empty() {
                return Err(McsError::EmptyBundle { worker: wid });
            }
            if tasks.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err(McsError::UnsortedBundle { worker: wid });
            }
            if !bid.bundle().within_task_count(self.num_tasks) {
                return Err(McsError::BundleOutOfRange {
                    worker: wid,
                    num_tasks: self.num_tasks,
                });
            }
            if bid.price() < cmin || bid.price() > cmax {
                return Err(McsError::InvalidCostRange { cmin, cmax });
            }
        }
        self.completion.validate(self.bids.len(), self.num_tasks)
    }

    /// Checks that every error bound `δ_j` lies in the open interval
    /// `(0, 1)`.
    ///
    /// # Errors
    ///
    /// [`McsError::InvalidErrorBound`] for the first bound outside it.
    pub fn check_error_bounds(deltas: &[f64]) -> Result<(), McsError> {
        match deltas.iter().position(|&d| !(d > 0.0 && d < 1.0)) {
            Some(j) => Err(McsError::InvalidErrorBound {
                task: TaskId(j as u32),
                value: deltas[j],
            }),
            None => Ok(()),
        }
    }

    /// Derives the covering problem `(q, Q)` of the TPM formulation.
    ///
    /// `q_ij = (2θ_ij − 1)²` where task `j` is in worker `i`'s bundle and 0
    /// elsewhere; `Q_j = 2 ln(1/δ_j)`.
    ///
    /// Under an uncertain [`CompletionModel`] this is the *effective*
    /// problem: weights become `p_ij · q_ij` and any task with an incident
    /// `p < 1` entry gets the chance quota [`chance_quota`]`(Q_j, γ_j)`
    /// instead of `Q_j`. Entries with `p = 1` and certain tasks keep the
    /// verbatim deterministic expressions, so the all-`p = 1` case is
    /// bit-identical to [`CompletionModel::Deterministic`].
    pub fn coverage_problem(&self) -> CoverageProblem {
        let n = self.num_workers();
        let k = self.num_tasks;
        let uncertain_model = self.completion.is_uncertain();
        let mut task_uncertain = vec![false; k];
        let mut q = vec![0.0; n * k];
        for (wid, bid) in self.bids.iter() {
            for t in bid.bundle().iter() {
                let raw = self.skills.q(wid, t);
                let p = if uncertain_model {
                    self.completion.p(wid, t)
                } else {
                    1.0
                };
                q[wid.index() * k + t.index()] = if p < 1.0 && raw > 0.0 {
                    task_uncertain[t.index()] = true;
                    p * raw
                } else {
                    raw
                };
            }
        }
        let requirements = self.effective_requirements(&task_uncertain);
        CoverageProblem {
            num_workers: n,
            num_tasks: k,
            q,
            requirements,
        }
    }

    /// Derives the covering problem directly in CSR form, in
    /// `O(nnz + K)` — no dense `N×K` matrix is ever materialized.
    ///
    /// Stores exactly the cells [`Instance::coverage_problem`] would hold
    /// with `q > 0.0`, in the same ascending task order, so every
    /// accumulation the engines perform over it is bit-identical to the
    /// dense path (see the `coverage` module docs for the argument).
    pub fn sparse_coverage(&self) -> SparseCoverage {
        let n = self.num_workers();
        let uncertain_model = self.completion.is_uncertain();
        let mut task_uncertain = vec![false; self.num_tasks];
        let mut offsets = Vec::with_capacity(n + 1);
        let mut tasks = Vec::new();
        let mut weights = Vec::new();
        let mut probs = Vec::new();
        let mut totals = Vec::with_capacity(n);
        offsets.push(0);
        for (wid, bid) in self.bids.iter() {
            let mut total = 0.0;
            // Bundles iterate sorted and deduplicated, so rows come out in
            // ascending task order with no repeated cells.
            for t in bid.bundle().iter() {
                let raw = self.skills.q(wid, t);
                if raw > 0.0 {
                    let p = if uncertain_model {
                        self.completion.p(wid, t)
                    } else {
                        1.0
                    };
                    let q = if p < 1.0 {
                        task_uncertain[t.index()] = true;
                        p * raw
                    } else {
                        raw
                    };
                    tasks.push(t.0);
                    weights.push(q);
                    if uncertain_model {
                        probs.push(p);
                    }
                    total += q;
                }
            }
            totals.push(total);
            offsets.push(tasks.len());
        }
        let requirements = self.effective_requirements(&task_uncertain);
        let uncertainty = if uncertain_model {
            let base = self.deltas.iter().map(|&d| 2.0 * (1.0 / d).ln()).collect();
            let gammas = (0..self.num_tasks)
                .map(|j| self.completion.gamma(TaskId(j as u32)).unwrap_or(1.0))
                .collect();
            Some(UncertainCoverage::from_parts(probs, base, gammas))
        } else {
            None
        };
        SparseCoverage::from_parts(
            n,
            self.num_tasks,
            offsets,
            tasks,
            weights,
            totals,
            requirements,
            uncertainty,
        )
    }

    /// `Q_j = 2 ln(1/δ_j)` for certain tasks, the Chernoff chance quota
    /// `R_j = `[`chance_quota`]`(Q_j, γ_j)` for tasks flagged as having an
    /// incident `p < 1` entry. The certain branch is the verbatim
    /// deterministic expression — the key to the `p = 1` bit-identity.
    fn effective_requirements(&self, task_uncertain: &[bool]) -> Vec<f64> {
        self.deltas
            .iter()
            .enumerate()
            .map(|(j, &d)| {
                let base = 2.0 * (1.0 / d).ln();
                if task_uncertain[j] {
                    match self.completion.gamma(TaskId(j as u32)) {
                        Some(g) => chance_quota(base, g),
                        None => base,
                    }
                } else {
                    base
                }
            })
            .collect()
    }

    /// Returns a neighbouring instance that differs only in `worker`'s bid.
    ///
    /// Skills, error bounds, price grid and cost range are shared — exactly
    /// the neighbour relation under which Definition 7 (differential
    /// privacy) is stated.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::WorkerOutOfRange`], [`McsError::EmptyBundle`],
    /// [`McsError::BundleOutOfRange`], or [`McsError::InvalidCostRange`] if
    /// the replacement bid is invalid for this instance.
    pub fn with_bid(&self, worker: WorkerId, bid: Bid) -> Result<Instance, McsError> {
        if bid.bundle().is_empty() {
            return Err(McsError::EmptyBundle { worker });
        }
        if !bid.bundle().within_task_count(self.num_tasks) {
            return Err(McsError::BundleOutOfRange {
                worker,
                num_tasks: self.num_tasks,
            });
        }
        if bid.price() < self.cmin || bid.price() > self.cmax {
            return Err(McsError::InvalidCostRange {
                cmin: self.cmin,
                cmax: self.cmax,
            });
        }
        Ok(Instance {
            bids: self.bids.with_bid(worker, bid)?,
            ..self.clone()
        })
    }

    /// Restricts the instance to an admitted subset of workers (e.g. those
    /// passing a reputation gate), preserving original ids via the returned
    /// mapping: new [`WorkerId`] `k` is old `workers[k]`.
    ///
    /// Bids, skill rows and the completion model keep only the selected
    /// rows; tasks, error bounds, price grid and cost range are shared —
    /// the instance-level companion of [`CoverageProblem::restrict_to`].
    ///
    /// # Errors
    ///
    /// Returns [`McsError::WorkerOutOfRange`] if any id is outside the
    /// pool, plus any builder validation error (e.g. an empty `workers`
    /// slice produces an instance with no bids).
    pub fn restrict_to_workers(
        &self,
        workers: &[WorkerId],
    ) -> Result<(Instance, Vec<WorkerId>), McsError> {
        for &w in workers {
            if w.index() >= self.num_workers() {
                return Err(McsError::WorkerOutOfRange {
                    worker: w,
                    num_workers: self.num_workers(),
                });
            }
        }
        let bids: Vec<Bid> = workers.iter().map(|&w| self.bids.bid(w).clone()).collect();
        let rows: Vec<Vec<f64>> = workers
            .iter()
            .map(|&w| self.skills.worker_row(w).to_vec())
            .collect();
        let completion = self.completion.restrict_to_workers(workers);
        let restricted = Instance::builder(self.num_tasks)
            .bids(bids)
            .skills(SkillMatrix::from_rows(rows)?)
            .error_bounds(self.deltas.clone())
            .price_grid(self.price_grid.clone())
            .cost_range(self.cmin, self.cmax)
            .completion(completion)
            .build()?;
        Ok((restricted, workers.to_vec()))
    }
}

/// The covering program extracted from an instance: the constraint data of
/// the TPM problem (Eq. 8).
///
/// Row `i` holds worker `i`'s coverage contribution `q_ij` to each task
/// (zero for tasks outside her bundle); `requirements[j]` holds `Q_j`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageProblem {
    num_workers: usize,
    num_tasks: usize,
    q: Vec<f64>,
    requirements: Vec<f64>,
}

impl CoverageProblem {
    /// Builds a covering problem directly from raw `q` and `Q` data.
    ///
    /// Mostly useful in tests and in solver benchmarks that bypass the
    /// auction model.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::DimensionMismatch`] if `q.len()` is not
    /// `num_workers * num_tasks` or `requirements.len()` is not `num_tasks`.
    pub fn from_raw(
        num_workers: usize,
        num_tasks: usize,
        q: Vec<f64>,
        requirements: Vec<f64>,
    ) -> Result<Self, McsError> {
        if q.len() != num_workers * num_tasks {
            return Err(McsError::DimensionMismatch {
                what: "coverage matrix",
                expected: num_workers * num_tasks,
                actual: q.len(),
            });
        }
        if requirements.len() != num_tasks {
            return Err(McsError::DimensionMismatch {
                what: "requirement vector",
                expected: num_tasks,
                actual: requirements.len(),
            });
        }
        Ok(CoverageProblem {
            num_workers,
            num_tasks,
            q,
            requirements,
        })
    }

    /// Number of workers (variables).
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Number of tasks (covering constraints).
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Worker `i`'s contribution to task `j` (zero outside her bundle).
    #[inline]
    pub fn q(&self, worker: WorkerId, task: TaskId) -> f64 {
        self.q[worker.index() * self.num_tasks + task.index()]
    }

    /// Worker `i`'s full contribution row.
    #[inline]
    pub fn worker_row(&self, worker: WorkerId) -> &[f64] {
        let start = worker.index() * self.num_tasks;
        &self.q[start..start + self.num_tasks]
    }

    /// Required coverage `Q_j` for a task.
    #[inline]
    pub fn requirement(&self, task: TaskId) -> f64 {
        self.requirements[task.index()]
    }

    /// All requirements `Q`.
    #[inline]
    pub fn requirements(&self) -> &[f64] {
        &self.requirements
    }

    /// Total contribution `Σ_j q_ij` of a worker across all tasks — the
    /// static score used by the Baseline auction and the `β` constant of
    /// Lemma 2.
    pub fn worker_total(&self, worker: WorkerId) -> f64 {
        self.worker_row(worker).iter().sum()
    }

    /// The constant `β = max_i Σ_j q_ij` of Lemma 2.
    pub fn beta(&self) -> f64 {
        (0..self.num_workers)
            .map(|i| self.worker_total(WorkerId(i as u32)))
            .fold(0.0, f64::max)
    }

    /// Checks whether a subset of workers satisfies every covering
    /// constraint, with a small tolerance for float accumulation.
    pub fn is_satisfied_by<I>(&self, workers: I) -> bool
    where
        I: IntoIterator<Item = WorkerId>,
    {
        let mut coverage = vec![0.0f64; self.num_tasks];
        for w in workers {
            for (j, cov) in coverage.iter_mut().enumerate() {
                *cov += self.q(w, TaskId(j as u32));
            }
        }
        coverage
            .iter()
            .zip(&self.requirements)
            .all(|(c, r)| *c >= *r - 1e-9)
    }

    /// Maximum attainable coverage of task `j` using every worker.
    pub fn max_attainable(&self, task: TaskId) -> f64 {
        (0..self.num_workers)
            .map(|i| self.q(WorkerId(i as u32), task))
            .sum()
    }

    /// Verifies the full pool can satisfy every constraint.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::Infeasible`] naming the first uncoverable task.
    pub fn check_feasible(&self) -> Result<(), McsError> {
        for j in 0..self.num_tasks {
            let t = TaskId(j as u32);
            let attainable = self.max_attainable(t);
            if attainable < self.requirement(t) - 1e-9 {
                return Err(McsError::Infeasible {
                    task: t,
                    required: self.requirement(t),
                    attainable,
                });
            }
        }
        Ok(())
    }

    /// Restricts the problem to a subset of workers (e.g. those with
    /// `ρ_i ≤ p`), preserving original worker ids via the returned mapping.
    ///
    /// Returns the restricted problem and a vector mapping new row index →
    /// original [`WorkerId`].
    pub fn restrict_to(&self, workers: &[WorkerId]) -> (CoverageProblem, Vec<WorkerId>) {
        let mut q = Vec::with_capacity(workers.len() * self.num_tasks);
        for &w in workers {
            q.extend_from_slice(self.worker_row(w));
        }
        (
            CoverageProblem {
                num_workers: workers.len(),
                num_tasks: self.num_tasks,
                q,
                requirements: self.requirements.clone(),
            },
            workers.to_vec(),
        )
    }
}

/// Incremental builder for [`Instance`] (see [`Instance::builder`]).
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    num_tasks: usize,
    bids: Option<BidProfile>,
    skills: Option<SkillMatrix>,
    deltas: Option<Vec<f64>>,
    price_grid: Option<PriceGrid>,
    cost_range: Option<(Price, Price)>,
    completion: Option<CompletionModel>,
}

impl InstanceBuilder {
    /// Sets the bid profile from any bid collection.
    pub fn bids<I: IntoIterator<Item = Bid>>(mut self, bids: I) -> Self {
        self.bids = Some(bids.into_iter().collect());
        self
    }

    /// Sets the full bid profile.
    pub fn bid_profile(mut self, bids: BidProfile) -> Self {
        self.bids = Some(bids);
        self
    }

    /// Sets the skill matrix.
    pub fn skills(mut self, skills: SkillMatrix) -> Self {
        self.skills = Some(skills);
        self
    }

    /// Sets per-task error bounds `δ_j`.
    pub fn error_bounds(mut self, deltas: Vec<f64>) -> Self {
        self.deltas = Some(deltas);
        self
    }

    /// Sets a single error bound used for every task.
    pub fn uniform_error_bound(mut self, delta: f64) -> Self {
        self.deltas = Some(vec![delta; self.num_tasks]);
        self
    }

    /// Sets the candidate price grid.
    pub fn price_grid(mut self, grid: PriceGrid) -> Self {
        self.price_grid = Some(grid);
        self
    }

    /// Sets the candidate price grid from float endpoints.
    ///
    /// Invalid parameters surface as an error from [`InstanceBuilder::build`].
    pub fn price_grid_f64(mut self, min: f64, max: f64, step: f64) -> Self {
        self.price_grid = PriceGrid::from_f64(min, max, step).ok();
        self
    }

    /// Sets the cost range `[c_min, c_max]` of the cost set `C`.
    pub fn cost_range(mut self, cmin: Price, cmax: Price) -> Self {
        self.cost_range = Some((cmin, cmax));
        self
    }

    /// Sets the task-completion model (defaults to
    /// [`CompletionModel::Deterministic`]).
    pub fn completion(mut self, model: CompletionModel) -> Self {
        self.completion = Some(model);
        self
    }

    /// Validates all fields and produces the instance.
    ///
    /// # Errors
    ///
    /// * [`McsError::MissingField`] — a required field was never set.
    /// * Any error of [`Instance::validate`].
    pub fn build(self) -> Result<Instance, McsError> {
        let bids = self.bids.ok_or(McsError::MissingField { field: "bids" })?;
        let skills = self
            .skills
            .ok_or(McsError::MissingField { field: "skills" })?;
        let deltas = self.deltas.ok_or(McsError::MissingField {
            field: "error_bounds",
        })?;
        let price_grid = self.price_grid.ok_or(McsError::MissingField {
            field: "price_grid",
        })?;
        let (cmin, cmax) = self.cost_range.ok_or(McsError::MissingField {
            field: "cost_range",
        })?;
        let instance = Instance {
            num_tasks: self.num_tasks,
            bids,
            skills,
            deltas,
            price_grid,
            cmin,
            cmax,
            completion: self.completion.unwrap_or_default(),
        };
        instance.validate()?;
        Ok(instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bundle;

    fn valid_builder() -> InstanceBuilder {
        Instance::builder(2)
            .bids(vec![
                Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(10.0)),
                Bid::new(
                    Bundle::new(vec![TaskId(0), TaskId(1)]),
                    Price::from_f64(15.0),
                ),
            ])
            .skills(SkillMatrix::from_rows(vec![vec![0.9, 0.8], vec![0.7, 0.95]]).unwrap())
            .uniform_error_bound(0.15)
            .price_grid_f64(10.0, 20.0, 0.1)
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
    }

    #[test]
    fn build_valid_instance() {
        let inst = valid_builder().build().unwrap();
        assert_eq!(inst.num_workers(), 2);
        assert_eq!(inst.num_tasks(), 2);
        assert_eq!(inst.delta_c(), Price::from_f64(10.0));
    }

    #[test]
    fn missing_fields_are_reported() {
        let err = Instance::builder(1).build().unwrap_err();
        assert!(matches!(err, McsError::MissingField { field: "bids" }));
    }

    #[test]
    fn rejects_empty_bundle() {
        let err = valid_builder()
            .bids(vec![Bid::new(Bundle::empty(), Price::from_f64(10.0))])
            .skills(SkillMatrix::from_rows(vec![vec![0.9, 0.8]]).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, McsError::EmptyBundle { .. }));
    }

    #[test]
    fn rejects_bundle_out_of_range() {
        let err = valid_builder()
            .bids(vec![Bid::new(
                Bundle::new(vec![TaskId(5)]),
                Price::from_f64(10.0),
            )])
            .skills(SkillMatrix::from_rows(vec![vec![0.9, 0.8]]).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, McsError::BundleOutOfRange { .. }));
    }

    #[test]
    fn rejects_bad_delta() {
        let err = valid_builder()
            .error_bounds(vec![0.15, 1.0])
            .build()
            .unwrap_err();
        assert!(matches!(err, McsError::InvalidErrorBound { .. }));
        let err = valid_builder()
            .error_bounds(vec![0.0, 0.15])
            .build()
            .unwrap_err();
        assert!(matches!(err, McsError::InvalidErrorBound { .. }));
    }

    #[test]
    fn rejects_bid_outside_cost_range() {
        let err = valid_builder()
            .cost_range(Price::from_f64(12.0), Price::from_f64(20.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, McsError::InvalidCostRange { .. }));
    }

    #[test]
    fn rejects_skill_dimension_mismatch() {
        let err = valid_builder()
            .skills(SkillMatrix::from_rows(vec![vec![0.9, 0.8]]).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, McsError::DimensionMismatch { .. }));
    }

    #[test]
    fn coverage_problem_masks_outside_bundle() {
        let inst = valid_builder().build().unwrap();
        let cover = inst.coverage_problem();
        // Worker 0 bids only task 0, so her q for task 1 is masked to 0.
        assert!(cover.q(WorkerId(0), TaskId(0)) > 0.0);
        assert_eq!(cover.q(WorkerId(0), TaskId(1)), 0.0);
        assert!(cover.q(WorkerId(1), TaskId(1)) > 0.0);
        // Q_j = 2 ln(1/0.15).
        let expected = 2.0 * (1.0f64 / 0.15).ln();
        assert!((cover.requirement(TaskId(0)) - expected).abs() < 1e-12);
    }

    #[test]
    fn coverage_satisfaction() {
        let inst = valid_builder().build().unwrap();
        let cover = inst.coverage_problem();
        // q(0,0) = 0.64, q(1,0) = 0.16, q(1,1) = 0.81; Q ≈ 3.794 — pool
        // cannot cover, so nothing satisfies.
        assert!(!cover.is_satisfied_by([WorkerId(0), WorkerId(1)]));
        assert!(cover.check_feasible().is_err());
    }

    #[test]
    fn feasible_pool_passes_check() {
        let cover = CoverageProblem::from_raw(3, 1, vec![0.5, 0.6, 0.7], vec![1.5]).unwrap();
        cover.check_feasible().unwrap();
        assert!(cover.is_satisfied_by([WorkerId(0), WorkerId(1), WorkerId(2)]));
        assert!(!cover.is_satisfied_by([WorkerId(0), WorkerId(1)]));
        assert!((cover.beta() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn restriction_preserves_rows() {
        let cover =
            CoverageProblem::from_raw(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], vec![0.5, 0.5])
                .unwrap();
        let (sub, map) = cover.restrict_to(&[WorkerId(2), WorkerId(0)]);
        assert_eq!(sub.num_workers(), 2);
        assert_eq!(map, vec![WorkerId(2), WorkerId(0)]);
        assert_eq!(sub.worker_row(WorkerId(0)), &[0.5, 0.6]);
        assert_eq!(sub.worker_row(WorkerId(1)), &[0.1, 0.2]);
    }

    #[test]
    fn instance_restriction_remaps_rows_and_shares_task_data() {
        let inst = valid_builder().build().unwrap();
        let (sub, map) = inst
            .restrict_to_workers(&[WorkerId(1), WorkerId(0)])
            .unwrap();
        assert_eq!(sub.num_workers(), 2);
        assert_eq!(map, vec![WorkerId(1), WorkerId(0)]);
        // New row 0 is old worker 1, bid and skills alike.
        assert_eq!(sub.bids().bid(WorkerId(0)), inst.bids().bid(WorkerId(1)));
        assert_eq!(
            sub.skills().worker_row(WorkerId(0)),
            inst.skills().worker_row(WorkerId(1))
        );
        assert_eq!(sub.deltas(), inst.deltas());
        assert_eq!(sub.price_grid(), inst.price_grid());
        assert_eq!(sub.cmin(), inst.cmin());
        assert_eq!(sub.cmax(), inst.cmax());
        // A strict subset drops the excluded worker's row entirely.
        let (only_one, _) = inst.restrict_to_workers(&[WorkerId(0)]).unwrap();
        assert_eq!(only_one.num_workers(), 1);
        assert_eq!(
            only_one.bids().bid(WorkerId(0)),
            inst.bids().bid(WorkerId(0))
        );
        // Out-of-range ids are typed errors.
        assert!(matches!(
            inst.restrict_to_workers(&[WorkerId(9)]),
            Err(McsError::WorkerOutOfRange { .. })
        ));
    }

    #[test]
    fn uncertain_completion_scales_weights_and_inflates_quota() {
        use crate::{BernoulliCompletion, CoverageView};
        let det = valid_builder().build().unwrap();
        let model = CompletionModel::Bernoulli(BernoulliCompletion::new(
            vec![vec![(TaskId(0), 0.5)], vec![]],
            vec![0.1, 0.2],
        ));
        let inst = valid_builder().completion(model).build().unwrap();
        let cover = inst.coverage_problem();
        let sparse = inst.sparse_coverage();
        // q(0,0) = (2·0.9 − 1)² = 0.64, scaled by p = 0.5.
        assert!((cover.q(WorkerId(0), TaskId(0)) - 0.32).abs() < 1e-12);
        // Entries without an override keep the exact deterministic bits.
        assert_eq!(
            cover.q(WorkerId(1), TaskId(1)).to_bits(),
            det.coverage_problem().q(WorkerId(1), TaskId(1)).to_bits()
        );
        // Task 0 (incident p < 1) gets the chance quota; task 1 stays at
        // the verbatim 2 ln(1/δ) bits.
        let q0 = 2.0 * (1.0f64 / 0.15).ln();
        assert_eq!(
            cover.requirement(TaskId(0)).to_bits(),
            chance_quota(q0, 0.1).to_bits()
        );
        assert!(cover.requirement(TaskId(0)) > q0);
        assert_eq!(cover.requirement(TaskId(1)).to_bits(), q0.to_bits());
        // The CSR problem carries the chance-constraint metadata.
        assert!(CoverageView::is_uncertain(&sparse));
        assert_eq!(sparse.completion_prob(WorkerId(0), TaskId(0)), 0.5);
        assert_eq!(sparse.completion_prob(WorkerId(1), TaskId(1)), 1.0);
        assert_eq!(sparse.base_requirement(TaskId(0)).to_bits(), q0.to_bits());
        assert_eq!(sparse.shortfall_bound(TaskId(0)), Some(0.1));
        assert_eq!(sparse.shortfall_bound(TaskId(1)), Some(0.2));
        // Dense and sparse derive the same effective numbers.
        assert_eq!(sparse.to_dense(), cover);
        // Metadata survives worker restriction, staying entry-aligned.
        let (sub, _) = sparse.restrict_to(&[WorkerId(0)]);
        assert_eq!(sub.completion_prob(WorkerId(0), TaskId(0)), 0.5);
    }

    #[test]
    fn unit_probability_bernoulli_is_bit_identical_to_deterministic() {
        use crate::BernoulliCompletion;
        let det = valid_builder().build().unwrap();
        let model = CompletionModel::Bernoulli(BernoulliCompletion::new(
            vec![vec![(TaskId(0), 1.0)], vec![(TaskId(1), 1.0)]],
            vec![0.1, 0.2],
        ));
        let unit = valid_builder().completion(model).build().unwrap();
        assert_eq!(det.coverage_problem(), unit.coverage_problem());
        assert_eq!(det.sparse_coverage(), unit.sparse_coverage());
        assert!(!crate::CoverageView::is_uncertain(&unit.sparse_coverage()));
    }

    #[test]
    fn builder_rejects_invalid_completion() {
        use crate::BernoulliCompletion;
        let bad = CompletionModel::Bernoulli(BernoulliCompletion::new(
            vec![vec![(TaskId(0), 1.5)], vec![]],
            vec![0.1, 0.2],
        ));
        let err = valid_builder().completion(bad).build().unwrap_err();
        assert!(matches!(err, McsError::InvalidCompletionProb { .. }));
        let wrong_rows =
            CompletionModel::Bernoulli(BernoulliCompletion::new(vec![vec![]], vec![0.1, 0.2]));
        let err = valid_builder().completion(wrong_rows).build().unwrap_err();
        assert!(matches!(err, McsError::DimensionMismatch { .. }));
    }

    #[test]
    fn serde_roundtrip_preserves_instance() {
        let inst = valid_builder().build().unwrap();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
        // Derived structures match too.
        assert_eq!(inst.coverage_problem(), back.coverage_problem());
        // Uncertain instances round-trip with their completion model.
        let uncertain = inst
            .with_completion(CompletionModel::Bernoulli(crate::BernoulliCompletion::new(
                vec![vec![(TaskId(0), 0.7)], vec![]],
                vec![0.1, 0.1],
            )))
            .unwrap();
        let json = serde_json::to_string(&uncertain).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(uncertain, back);
        assert_eq!(uncertain.sparse_coverage(), back.sparse_coverage());
    }

    #[test]
    fn decoded_instances_are_held_to_the_builder_rules() {
        let inst = valid_builder().build().unwrap();
        inst.validate().unwrap();
        let json = serde_json::to_string(&inst).unwrap();
        assert!(json.contains(r#""tasks":[0,1]"#) && json.contains("0.15"));
        let decode = |from: &str, to: &str| -> Instance {
            serde_json::from_str(&json.replacen(from, to, 1)).unwrap()
        };
        // The grammar alone accepts each of these; validation does not.
        assert!(matches!(
            decode(r#""tasks":[0,1]"#, r#""tasks":[1,0]"#).validate(),
            Err(McsError::UnsortedBundle {
                worker: WorkerId(1)
            })
        ));
        assert!(matches!(
            decode(r#""tasks":[0,1]"#, r#""tasks":[0,0]"#).validate(),
            Err(McsError::UnsortedBundle { .. })
        ));
        assert!(matches!(
            decode(r#""tasks":[0,1]"#, r#""tasks":[0,999]"#).validate(),
            Err(McsError::BundleOutOfRange { .. })
        ));
        assert!(matches!(
            decode("0.15", "1.5").validate(),
            Err(McsError::InvalidErrorBound { .. })
        ));
    }

    #[test]
    fn neighbour_instance_shares_everything_but_one_bid() {
        let inst = valid_builder().build().unwrap();
        let nb = inst
            .with_bid(
                WorkerId(0),
                Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(18.0)),
            )
            .unwrap();
        assert_eq!(inst.bids().hamming_distance(nb.bids()), Some(1));
        assert_eq!(inst.skills(), nb.skills());
        // Invalid replacements are rejected.
        assert!(inst
            .with_bid(
                WorkerId(0),
                Bid::new(Bundle::empty(), Price::from_f64(12.0))
            )
            .is_err());
        assert!(inst
            .with_bid(
                WorkerId(0),
                Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(25.0)),
            )
            .is_err());
    }
}
