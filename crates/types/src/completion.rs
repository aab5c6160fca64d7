//! Task-completion models and the chance-constrained coverage quota.
//!
//! The paper assumes a selected worker completes every task in her bundle
//! deterministically, so the covering constraint `Σ q_ij ≥ Q_j` is exact.
//! Jiang et al. (arXiv 2305.16793) extend the same setting to tasks whose
//! completion is *Bernoulli*: worker `i` completes task `j` only with
//! probability `p_ij`, independently. This module generalizes the
//! covering layer to that model while keeping the deterministic path
//! bit-exact:
//!
//! * [`CompletionModel`] — `Deterministic` (the paper) or `Bernoulli`
//!   with sparse per-entry probabilities `p_ij ∈ (0, 1]` and per-task
//!   shortfall bounds `γ_j ∈ (0, 1)`.
//! * [`chance_quota`] — the Chernoff-derived effective requirement `R_j`
//!   such that any selected set with *expected* coverage `≥ R_j` has
//!   `Pr[realized coverage < Q_j] ≤ γ_j`.
//! * [`UncertainCoverage`] — the metadata an effective covering problem
//!   carries so verifiers can recover `p_ij`, the original `Q_j`, and
//!   `γ_j` behind the [`CoverageView`](crate::CoverageView) trait.
//!
//! # The Chernoff quota, in the log-form of Lemma 1
//!
//! Fix a task `j` and a selected set `S`. Realized coverage is
//! `X_j = Σ_{i∈S} q_ij · B_ij` with `B_ij ~ Bernoulli(p_ij)` independent,
//! so `μ_j = E[X_j] = Σ_{i∈S} p_ij · q_ij` — which is exactly the
//! coverage of `S` under the *effective weights* `q̃_ij = p_ij · q_ij`.
//! Each term lies in `[0, q_ij] ⊆ [0, 1]` (since `q = (2θ−1)² ≤ 1`), so
//! the multiplicative Chernoff lower tail gives, for `μ_j > Q_j`,
//!
//! ```text
//! Pr[X_j < Q_j] ≤ exp(−(μ_j − Q_j)² / (2 μ_j)).
//! ```
//!
//! Requiring this to be at most `γ_j` and writing `L_j = ln(1/γ_j)`
//! yields the closed-form quota
//!
//! ```text
//! R_j = Q_j + L_j + sqrt(L_j² + 2 L_j Q_j),
//! ```
//!
//! the smallest `μ` with `(μ − Q_j)² / (2μ) ≥ L_j`. The achieved bound
//! `γ̂_j = exp(−(μ_j − Q_j)²/(2 μ_j))` has the same `exp(−·/2)` log-form
//! as Lemma 1's `δ̂_j = exp(−C_j/2)`, so the paper's error-bound analysis
//! carries over with `C_j` replaced by `(μ_j − Q_j)²/μ_j`.
//!
//! # The `p = 1` invariant
//!
//! A task whose incident entries all have `p_ij = 1` is *certain*: its
//! realized coverage equals its effective coverage, so no inflation is
//! applied and its requirement stays the verbatim `2 ln(1/δ_j)`
//! expression. Effective weights multiply by `p_ij` only when
//! `p_ij < 1`. Both choices make a `Bernoulli` model with all-one
//! probabilities produce *bit-identical* covering problems — and hence
//! schedules, payments, and digests — to `Deterministic`; the
//! `mcs-verify` degenerate suite asserts this across every engine.

use serde::{DeError, Deserialize, Serialize, Sink, Value};

use crate::{McsError, TaskId, WorkerId};

/// `L = ln(1/γ)` for a shortfall bound `γ ∈ (0, 1)`.
#[inline]
fn log_term(gamma: f64) -> f64 {
    (1.0 / gamma).ln()
}

/// The chance-constrained effective quota `R` for a base requirement `Q`
/// and shortfall bound `γ`: the least expected coverage under which the
/// Chernoff lower tail guarantees `Pr[realized < Q] ≤ γ`.
///
/// `R = Q + L + sqrt(L² + 2·L·Q)` with `L = ln(1/γ)`. Monotone:
/// increasing in `Q`, decreasing in `γ` (tightening γ raises the quota),
/// and `R → Q` as `γ → 1⁻`.
///
/// # Examples
///
/// ```
/// use mcs_types::chance_quota;
///
/// let q = 3.0;
/// let r = chance_quota(q, 0.1);
/// assert!(r > q);
/// // Achieved bound at μ = R meets γ exactly (up to float error).
/// assert!((mcs_types::chernoff_shortfall_bound(r, q) - 0.1).abs() < 1e-9);
/// ```
pub fn chance_quota(base: f64, gamma: f64) -> f64 {
    let l = log_term(gamma);
    base + l + (l * l + 2.0 * l * base).sqrt()
}

/// The Chernoff bound on `Pr[realized coverage < base]` for a selected
/// set with expected coverage `mu`: `exp(−(μ−Q)²/(2μ))` when `μ > Q`,
/// and the trivial bound `1` otherwise.
///
/// Same `exp(−·/2)` log-form as Lemma 1's `δ̂ = exp(−C/2)` — here with
/// `C = (μ−Q)²/μ`.
pub fn chernoff_shortfall_bound(mu: f64, base: f64) -> f64 {
    if mu > base && mu > 0.0 {
        let slack = mu - base;
        (-(slack * slack) / (2.0 * mu)).exp()
    } else {
        1.0
    }
}

/// How selected workers complete the tasks in their bundles.
///
/// `Deterministic` is the paper's model (every bundled task completes);
/// `Bernoulli` is the uncertain-tasks extension. The default is
/// `Deterministic`, and instances serialized before this field existed
/// decode as `Deterministic`.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub enum CompletionModel {
    /// Every selected worker completes her whole bundle (the paper).
    #[default]
    Deterministic,
    /// Worker `i` completes task `j` independently with probability
    /// `p_ij`; coverage requirements become chance constraints.
    Bernoulli(BernoulliCompletion),
}

impl CompletionModel {
    /// Completion probability `p_ij`; `1.0` under `Deterministic` and for
    /// any pair without a stored override.
    #[inline]
    pub fn p(&self, worker: WorkerId, task: TaskId) -> f64 {
        match self {
            CompletionModel::Deterministic => 1.0,
            CompletionModel::Bernoulli(b) => b.p(worker, task),
        }
    }

    /// The per-task shortfall bound `γ_j`, if the model carries one.
    #[inline]
    pub fn gamma(&self, task: TaskId) -> Option<f64> {
        match self {
            CompletionModel::Deterministic => None,
            CompletionModel::Bernoulli(b) => b.gammas.get(task.index()).copied(),
        }
    }

    /// Whether any stored entry has `p < 1` — i.e. whether the model can
    /// behave differently from `Deterministic` at all.
    pub fn is_uncertain(&self) -> bool {
        match self {
            CompletionModel::Deterministic => false,
            CompletionModel::Bernoulli(b) => {
                b.rows.iter().any(|row| row.iter().any(|&(_, p)| p < 1.0))
            }
        }
    }

    /// Validates the model against an instance's dimensions.
    ///
    /// # Errors
    ///
    /// * [`McsError::DimensionMismatch`] — wrong number of probability
    ///   rows or shortfall bounds.
    /// * [`McsError::BundleOutOfRange`] — an entry references a task
    ///   `≥ num_tasks`.
    /// * [`McsError::DuplicateCompletionEntry`] — a `(worker, task)` pair
    ///   is listed twice.
    /// * [`McsError::InvalidCompletionProb`] — some `p_ij ∉ (0, 1]`.
    /// * [`McsError::InvalidShortfallBound`] — some `γ_j ∉ (0, 1)`.
    pub fn validate(&self, num_workers: usize, num_tasks: usize) -> Result<(), McsError> {
        let b = match self {
            CompletionModel::Deterministic => return Ok(()),
            CompletionModel::Bernoulli(b) => b,
        };
        if b.rows.len() != num_workers {
            return Err(McsError::DimensionMismatch {
                what: "completion probability rows",
                expected: num_workers,
                actual: b.rows.len(),
            });
        }
        if b.gammas.len() != num_tasks {
            return Err(McsError::DimensionMismatch {
                what: "shortfall bound vector",
                expected: num_tasks,
                actual: b.gammas.len(),
            });
        }
        for (i, row) in b.rows.iter().enumerate() {
            let worker = WorkerId(i as u32);
            let mut seen: Vec<u32> = Vec::with_capacity(row.len());
            for &(task, p) in row {
                if task.index() >= num_tasks {
                    return Err(McsError::BundleOutOfRange { worker, num_tasks });
                }
                if seen.contains(&task.0) {
                    return Err(McsError::DuplicateCompletionEntry { worker, task });
                }
                seen.push(task.0);
                if !p.is_finite() || p <= 0.0 || p > 1.0 {
                    return Err(McsError::InvalidCompletionProb {
                        worker,
                        task,
                        value: p,
                    });
                }
            }
        }
        for (j, &g) in b.gammas.iter().enumerate() {
            if !g.is_finite() || g <= 0.0 || g >= 1.0 {
                return Err(McsError::InvalidShortfallBound {
                    task: TaskId(j as u32),
                    value: g,
                });
            }
        }
        Ok(())
    }

    /// The same model with every stored probability forced to `1.0`
    /// (shortfall bounds kept) — the degenerate instance the `p = 1`
    /// reduction suite compares against the deterministic path.
    pub fn with_unit_probabilities(&self) -> CompletionModel {
        match self {
            CompletionModel::Deterministic => CompletionModel::Deterministic,
            CompletionModel::Bernoulli(b) => CompletionModel::Bernoulli(BernoulliCompletion {
                rows: b
                    .rows
                    .iter()
                    .map(|row| row.iter().map(|&(t, _)| (t, 1.0)).collect())
                    .collect(),
                gammas: b.gammas.clone(),
            }),
        }
    }

    /// Projects the model onto a worker subset, preserving order — the
    /// companion of coverage `restrict_to` for counterexample shrinking.
    pub fn restrict_to_workers(&self, workers: &[WorkerId]) -> CompletionModel {
        match self {
            CompletionModel::Deterministic => CompletionModel::Deterministic,
            CompletionModel::Bernoulli(b) => CompletionModel::Bernoulli(BernoulliCompletion {
                rows: workers
                    .iter()
                    .map(|w| b.rows.get(w.index()).cloned().unwrap_or_default())
                    .collect(),
                gammas: b.gammas.clone(),
            }),
        }
    }

    /// Removes task `removed` and shifts higher task ids down by one —
    /// the companion of instance shrinking by task deletion.
    pub fn without_task(&self, removed: TaskId) -> CompletionModel {
        match self {
            CompletionModel::Deterministic => CompletionModel::Deterministic,
            CompletionModel::Bernoulli(b) => {
                let rows = b
                    .rows
                    .iter()
                    .map(|row| {
                        row.iter()
                            .filter(|&&(t, _)| t != removed)
                            .map(|&(t, p)| {
                                if t.0 > removed.0 {
                                    (TaskId(t.0 - 1), p)
                                } else {
                                    (t, p)
                                }
                            })
                            .collect()
                    })
                    .collect();
                let mut gammas = b.gammas.clone();
                if removed.index() < gammas.len() {
                    gammas.remove(removed.index());
                }
                CompletionModel::Bernoulli(BernoulliCompletion { rows, gammas })
            }
        }
    }
}

/// Sparse per-worker completion probabilities plus per-task shortfall
/// bounds — the payload of [`CompletionModel::Bernoulli`].
///
/// Row `i` lists `(task, p_ij)` overrides for worker `i`; pairs not
/// listed default to `p = 1`. Rows are kept sorted by task id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BernoulliCompletion {
    rows: Vec<Vec<(TaskId, f64)>>,
    gammas: Vec<f64>,
}

impl BernoulliCompletion {
    /// Builds the model from per-worker `(task, p)` override rows and
    /// per-task shortfall bounds `γ_j`. Rows are sorted by task id;
    /// domain validation happens in [`CompletionModel::validate`] (called
    /// by the instance builder).
    pub fn new(mut rows: Vec<Vec<(TaskId, f64)>>, gammas: Vec<f64>) -> Self {
        for row in &mut rows {
            row.sort_unstable_by_key(|&(t, _)| t.0);
        }
        BernoulliCompletion { rows, gammas }
    }

    /// Completion probability `p_ij` (defaults to `1.0` off-row).
    ///
    /// A linear scan: override rows are bundle-sized, and the builders
    /// touch each `(worker, task)` pair once.
    #[inline]
    pub fn p(&self, worker: WorkerId, task: TaskId) -> f64 {
        self.rows
            .get(worker.index())
            .and_then(|row| row.iter().find(|&&(t, _)| t == task))
            .map_or(1.0, |&(_, p)| p)
    }

    /// The per-worker override rows.
    #[inline]
    pub fn rows(&self) -> &[Vec<(TaskId, f64)>] {
        &self.rows
    }

    /// The per-task shortfall bounds `γ_j`.
    #[inline]
    pub fn gammas(&self) -> &[f64] {
        &self.gammas
    }
}

impl Serialize for CompletionModel {
    fn serialize<S: Sink + ?Sized>(&self, out: &mut S) {
        out.begin_object();
        out.key("model");
        match self {
            CompletionModel::Deterministic => out.str("deterministic"),
            CompletionModel::Bernoulli(b) => {
                out.str("bernoulli");
                out.key("rows");
                b.rows.serialize(out);
                out.key("gammas");
                b.gammas.serialize(out);
            }
        }
        out.end_object();
    }
}

impl Deserialize for CompletionModel {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let tag = String::from_value(
            v.get("model")
                .ok_or_else(|| DeError::missing_field("model"))?,
        )?;
        match tag.as_str() {
            "deterministic" => Ok(CompletionModel::Deterministic),
            "bernoulli" => {
                let rows = Vec::<Vec<(TaskId, f64)>>::from_value(
                    v.get("rows")
                        .ok_or_else(|| DeError::missing_field("rows"))?,
                )?;
                let gammas = Vec::<f64>::from_value(
                    v.get("gammas")
                        .ok_or_else(|| DeError::missing_field("gammas"))?,
                )?;
                Ok(CompletionModel::Bernoulli(BernoulliCompletion::new(
                    rows, gammas,
                )))
            }
            other => Err(DeError::custom(format!(
                "unknown completion model `{other}`"
            ))),
        }
    }
}

/// Uncertainty metadata attached to an *effective* covering problem: the
/// raw `p_ij` aligned with the CSR entries, the original deterministic
/// requirements `Q_j`, and the shortfall bounds `γ_j`.
///
/// The stored weights of the owning problem are the effective
/// `q̃_ij = p_ij · q_ij` and its requirements the inflated `R_j`; this
/// struct is what lets verifiers (and the Monte Carlo shortfall checker)
/// recover the chance-constraint statement from the covering problem
/// alone, via the [`CoverageView`](crate::CoverageView) accessors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UncertainCoverage {
    probs: Vec<f64>,
    base_requirements: Vec<f64>,
    gammas: Vec<f64>,
}

impl UncertainCoverage {
    pub(crate) fn from_parts(
        probs: Vec<f64>,
        base_requirements: Vec<f64>,
        gammas: Vec<f64>,
    ) -> Self {
        UncertainCoverage {
            probs,
            base_requirements,
            gammas,
        }
    }

    /// Per-entry probabilities, parallel to the CSR weight array.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Original deterministic requirements `Q_j = 2 ln(1/δ_j)`.
    #[inline]
    pub fn base_requirements(&self) -> &[f64] {
        &self.base_requirements
    }

    /// Per-task shortfall bounds `γ_j`.
    #[inline]
    pub fn gammas(&self) -> &[f64] {
        &self.gammas
    }

    pub(crate) fn restrict_entries(&self, ranges: &[(usize, usize)]) -> UncertainCoverage {
        let mut probs = Vec::new();
        for &(lo, hi) in ranges {
            probs.extend_from_slice(&self.probs[lo..hi]);
        }
        UncertainCoverage {
            probs,
            base_requirements: self.base_requirements.clone(),
            gammas: self.gammas.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_exceeds_base_and_inverts_cleanly() {
        for &q in &[0.1, 0.7, 3.0, 12.5] {
            for &g in &[0.01, 0.1, 0.3, 0.7] {
                let r = chance_quota(q, g);
                assert!(r > q, "quota must exceed the base requirement");
                // At μ = R the Chernoff bound equals γ.
                let back = chernoff_shortfall_bound(r, q);
                assert!((back - g).abs() < 1e-9, "q={q} g={g}: {back} vs {g}");
            }
        }
    }

    #[test]
    fn quota_is_monotone() {
        let r1 = chance_quota(3.0, 0.1);
        let r2 = chance_quota(3.0, 0.05);
        assert!(r2 > r1, "tightening gamma raises the quota");
        assert!(chance_quota(4.0, 0.1) > r1, "raising Q raises the quota");
    }

    #[test]
    fn shortfall_bound_is_trivial_without_slack() {
        assert_eq!(chernoff_shortfall_bound(2.0, 2.0), 1.0);
        assert_eq!(chernoff_shortfall_bound(1.0, 2.0), 1.0);
        assert!(chernoff_shortfall_bound(3.0, 2.0) < 1.0);
    }

    fn model() -> CompletionModel {
        CompletionModel::Bernoulli(BernoulliCompletion::new(
            vec![vec![(TaskId(1), 0.8), (TaskId(0), 0.6)], vec![]],
            vec![0.1, 0.2],
        ))
    }

    #[test]
    fn probability_lookup_defaults_to_one() {
        let m = model();
        assert_eq!(m.p(WorkerId(0), TaskId(0)), 0.6);
        assert_eq!(m.p(WorkerId(0), TaskId(1)), 0.8);
        assert_eq!(m.p(WorkerId(1), TaskId(0)), 1.0);
        assert_eq!(m.p(WorkerId(7), TaskId(0)), 1.0);
        assert_eq!(
            CompletionModel::Deterministic.p(WorkerId(0), TaskId(0)),
            1.0
        );
    }

    #[test]
    fn uncertainty_flag_requires_a_sub_one_entry() {
        assert!(model().is_uncertain());
        assert!(!CompletionModel::Deterministic.is_uncertain());
        assert!(!model().with_unit_probabilities().is_uncertain());
    }

    #[test]
    fn validation_catches_domain_errors() {
        let m = model();
        m.validate(2, 2).unwrap();
        assert!(matches!(
            m.validate(3, 2),
            Err(McsError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            m.validate(2, 1),
            Err(McsError::DimensionMismatch { .. })
        ));
        let bad_p = CompletionModel::Bernoulli(BernoulliCompletion::new(
            vec![vec![(TaskId(0), 0.0)]],
            vec![0.1],
        ));
        assert!(matches!(
            bad_p.validate(1, 1),
            Err(McsError::InvalidCompletionProb { value, .. }) if value == 0.0
        ));
        let bad_g = CompletionModel::Bernoulli(BernoulliCompletion::new(
            vec![vec![(TaskId(0), 0.5)]],
            vec![1.0],
        ));
        assert!(matches!(
            bad_g.validate(1, 1),
            Err(McsError::InvalidShortfallBound { value, .. }) if value == 1.0
        ));
        let dup = CompletionModel::Bernoulli(BernoulliCompletion::new(
            vec![vec![(TaskId(0), 0.5), (TaskId(0), 0.7)]],
            vec![0.1],
        ));
        assert!(matches!(
            dup.validate(1, 1),
            Err(McsError::DuplicateCompletionEntry { .. })
        ));
        let oob = CompletionModel::Bernoulli(BernoulliCompletion::new(
            vec![vec![(TaskId(5), 0.5)]],
            vec![0.1],
        ));
        assert!(matches!(
            oob.validate(1, 1),
            Err(McsError::BundleOutOfRange { .. })
        ));
        CompletionModel::Deterministic.validate(0, 0).unwrap();
    }

    #[test]
    fn shrinking_helpers_preserve_structure() {
        let m = model();
        let r = m.restrict_to_workers(&[WorkerId(1), WorkerId(0)]);
        assert_eq!(r.p(WorkerId(0), TaskId(0)), 1.0);
        assert_eq!(r.p(WorkerId(1), TaskId(0)), 0.6);
        let w = m.without_task(TaskId(0));
        assert_eq!(w.p(WorkerId(0), TaskId(0)), 0.8, "task 1 shifted down");
        assert_eq!(w.gamma(TaskId(0)), Some(0.2));
    }

    #[test]
    fn serde_roundtrip_both_variants() {
        for m in [CompletionModel::Deterministic, model()] {
            let v = m.to_value();
            let back = CompletionModel::from_value(&v).unwrap();
            assert_eq!(m, back);
        }
        assert!(CompletionModel::from_value(&Value::Object(vec![(
            "model".to_string(),
            Value::String("quantum".to_string())
        )]))
        .is_err());
    }
}
