//! Error types shared across the workspace.

use std::error::Error;
use std::fmt;

use crate::{Price, TaskId, WorkerId};

/// Errors raised while constructing or validating MCS auction inputs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum McsError {
    /// A skill-matrix entry was outside `[0, 1]` or not finite.
    InvalidSkill {
        /// Worker (row) of the offending entry.
        worker: WorkerId,
        /// Task (column) of the offending entry.
        task: TaskId,
        /// The offending value.
        value: f64,
    },
    /// A sparse skill entry listed the same `(worker, task)` cell twice.
    DuplicateSkillEntry {
        /// Worker (row) of the repeated cell.
        worker: WorkerId,
        /// Task (column) of the repeated cell.
        task: TaskId,
    },
    /// A per-task error bound `δ_j` was outside the open interval `(0, 1)`.
    InvalidErrorBound {
        /// The task whose bound is invalid.
        task: TaskId,
        /// The offending value.
        value: f64,
    },
    /// A price grid had a non-positive step or `max < min`.
    InvalidPriceGrid {
        /// Requested minimum.
        min: Price,
        /// Requested maximum.
        max: Price,
        /// Requested step.
        step: Price,
    },
    /// Two containers that must agree in size did not.
    DimensionMismatch {
        /// What was being validated.
        what: &'static str,
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// A worker id exceeded the profile length.
    WorkerOutOfRange {
        /// The offending id.
        worker: WorkerId,
        /// Number of workers in the container.
        num_workers: usize,
    },
    /// A bundle referenced a task id `≥ num_tasks`.
    BundleOutOfRange {
        /// The worker whose bundle is invalid.
        worker: WorkerId,
        /// Number of tasks in the instance.
        num_tasks: usize,
    },
    /// A worker bid an empty bundle.
    EmptyBundle {
        /// The offending worker.
        worker: WorkerId,
    },
    /// A bundle's tasks were not listed in strictly ascending order.
    /// Bundles built with [`crate::Bundle::new`] always are; only a
    /// decoded bundle can break the rule.
    UnsortedBundle {
        /// The offending worker.
        worker: WorkerId,
    },
    /// The cost range was empty (`c_max < c_min`) or a bid fell outside it.
    InvalidCostRange {
        /// Configured minimum cost.
        cmin: Price,
        /// Configured maximum cost.
        cmax: Price,
    },
    /// Even the full worker pool cannot satisfy some task's error-bound
    /// constraint, so no price is feasible.
    Infeasible {
        /// The first task whose constraint cannot be met.
        task: TaskId,
        /// Required coverage `Q_j`.
        required: f64,
        /// Maximum attainable coverage with all workers.
        attainable: f64,
    },
    /// A winner (or candidate) set that was expected to satisfy a task's
    /// covering constraint fell short — e.g. the surviving reports after
    /// worker dropout, or a backfill candidate pool that cannot close a
    /// residual requirement.
    ///
    /// Unlike [`McsError::Infeasible`] (the *full pool* cannot cover at
    /// all), a shortfall is about a specific, possibly partial, coverage
    /// state observed at runtime.
    CoverageShortfall {
        /// The task whose constraint is unmet.
        task: TaskId,
        /// Required coverage (`Q_j`, or the residual `Q'_j`).
        required: f64,
        /// Coverage actually achieved/attainable.
        achieved: f64,
    },
    /// An aggregation path required at least one label for a task but the
    /// delivered label set was empty there.
    EmptyLabelSet {
        /// The task with no labels.
        task: TaskId,
    },
    /// The worker pool can cover the tasks, but only at a price above the
    /// top of the candidate price grid, so the feasible price set is empty.
    NoFeasiblePrice {
        /// The smallest price at which the pool covers every task.
        required_price: Price,
        /// The top of the candidate grid.
        grid_max: Price,
    },
    /// A required builder field was missing.
    MissingField {
        /// Name of the missing field.
        field: &'static str,
    },
    /// A privacy budget ε was not strictly positive and finite.
    InvalidEpsilon {
        /// The offending value.
        value: f64,
    },
    /// A completion probability `p_ij` was outside the half-open interval
    /// `(0, 1]` (zero-probability entries must simply be omitted from the
    /// bundle).
    InvalidCompletionProb {
        /// Worker of the offending entry.
        worker: WorkerId,
        /// Task of the offending entry.
        task: TaskId,
        /// The offending value.
        value: f64,
    },
    /// A chance-constraint shortfall bound `γ_j` was outside the open
    /// interval `(0, 1)`.
    InvalidShortfallBound {
        /// The task whose bound is invalid.
        task: TaskId,
        /// The offending value.
        value: f64,
    },
    /// A completion model listed the same `(worker, task)` probability
    /// twice.
    DuplicateCompletionEntry {
        /// Worker of the repeated entry.
        worker: WorkerId,
        /// Task of the repeated entry.
        task: TaskId,
    },
    /// An exact-solver backend failed (ILP stack errors surface here so the
    /// whole workspace shares one error type).
    Solver {
        /// Human-readable description of the backend failure.
        message: String,
    },
}

impl fmt::Display for McsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McsError::InvalidSkill {
                worker,
                task,
                value,
            } => write!(
                f,
                "skill level theta[{worker}][{task}] = {value} is outside [0, 1]"
            ),
            McsError::DuplicateSkillEntry { worker, task } => write!(
                f,
                "sparse skill entry theta[{worker}][{task}] was listed more than once"
            ),
            McsError::InvalidErrorBound { task, value } => write!(
                f,
                "error bound delta[{task}] = {value} is outside the open interval (0, 1)"
            ),
            McsError::InvalidPriceGrid { min, max, step } => write!(
                f,
                "price grid [{min}, {max}] with step {step} is empty or has non-positive step"
            ),
            McsError::DimensionMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what} has length {actual}, expected {expected}"),
            McsError::WorkerOutOfRange {
                worker,
                num_workers,
            } => write!(f, "worker {worker} out of range for {num_workers} workers"),
            McsError::BundleOutOfRange { worker, num_tasks } => write!(
                f,
                "bundle of {worker} references a task outside the {num_tasks}-task set"
            ),
            McsError::EmptyBundle { worker } => {
                write!(f, "worker {worker} bid an empty bundle")
            }
            McsError::UnsortedBundle { worker } => {
                write!(f, "bundle of {worker} does not list its tasks in strictly ascending order")
            }
            McsError::InvalidCostRange { cmin, cmax } => {
                write!(f, "invalid cost range [{cmin}, {cmax}]")
            }
            McsError::Infeasible {
                task,
                required,
                attainable,
            } => write!(
                f,
                "task {task} needs coverage {required} but the full pool attains only {attainable}"
            ),
            McsError::CoverageShortfall {
                task,
                required,
                achieved,
            } => write!(
                f,
                "task {task} requires coverage {required} but only {achieved} was achieved"
            ),
            McsError::EmptyLabelSet { task } => {
                write!(f, "task {task} received no labels")
            }
            McsError::NoFeasiblePrice {
                required_price,
                grid_max,
            } => write!(
                f,
                "covering the tasks requires price {required_price} but the grid tops out at {grid_max}"
            ),
            McsError::MissingField { field } => {
                write!(f, "instance builder is missing required field `{field}`")
            }
            McsError::InvalidEpsilon { value } => {
                write!(f, "privacy budget epsilon = {value} must be positive and finite")
            }
            McsError::InvalidCompletionProb {
                worker,
                task,
                value,
            } => write!(
                f,
                "completion probability p[{worker}][{task}] = {value} is outside (0, 1]"
            ),
            McsError::InvalidShortfallBound { task, value } => write!(
                f,
                "shortfall bound gamma[{task}] = {value} is outside the open interval (0, 1)"
            ),
            McsError::DuplicateCompletionEntry { worker, task } => write!(
                f,
                "completion probability p[{worker}][{task}] was listed more than once"
            ),
            McsError::Solver { message } => {
                write!(f, "exact solver failed: {message}")
            }
        }
    }
}

impl Error for McsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = McsError::EmptyBundle {
            worker: WorkerId(3),
        };
        let msg = e.to_string();
        assert!(msg.contains("w3"));
        assert!(msg.starts_with("worker"));
    }

    #[test]
    fn error_trait_object() {
        fn take(_: &dyn Error) {}
        take(&McsError::MissingField { field: "bids" });
    }

    #[test]
    fn epsilon_and_solver_variants_render() {
        let e = McsError::InvalidEpsilon { value: -0.5 };
        assert!(e.to_string().contains("-0.5"));
        let s = McsError::Solver {
            message: "node budget exhausted".into(),
        };
        assert!(s.to_string().starts_with("exact solver failed"));
    }

    #[test]
    fn shortfall_and_empty_label_variants_render() {
        let e = McsError::CoverageShortfall {
            task: TaskId(2),
            required: 3.5,
            achieved: 1.25,
        };
        let msg = e.to_string();
        assert!(msg.contains("t2"));
        assert!(msg.contains("3.5"));
        assert!(msg.contains("1.25"));
        let e = McsError::EmptyLabelSet { task: TaskId(7) };
        assert!(e.to_string().contains("t7"));
    }

    #[test]
    fn completion_variants_render() {
        let e = McsError::InvalidCompletionProb {
            worker: WorkerId(1),
            task: TaskId(2),
            value: 1.5,
        };
        let msg = e.to_string();
        assert!(msg.contains("w1") && msg.contains("t2") && msg.contains("1.5"));
        let e = McsError::InvalidShortfallBound {
            task: TaskId(0),
            value: 0.0,
        };
        assert!(e.to_string().contains("gamma[t0]"));
        let e = McsError::DuplicateCompletionEntry {
            worker: WorkerId(3),
            task: TaskId(4),
        };
        assert!(e.to_string().contains("more than once"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<McsError>();
    }
}
