//! Binary labels, observations, and the synthetic worker labelling model.

use std::fmt;
use std::ops::Neg;

use rand::Rng;
use serde::{DeError, Deserialize, Serialize, Sink, Value};

use mcs_types::{Bundle, SkillMatrix, TaskId, WorkerId};

/// A binary class label, `+1` or `−1`.
///
/// # Examples
///
/// ```
/// use mcs_agg::Label;
///
/// assert_eq!(Label::Pos.to_f64(), 1.0);
/// assert_eq!(-Label::Pos, Label::Neg);
/// assert_eq!(Label::from_sign(-0.3), Label::Neg);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// The `+1` class.
    Pos,
    /// The `−1` class.
    Neg,
}

impl Label {
    /// Returns `+1.0` or `−1.0`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        match self {
            Label::Pos => 1.0,
            Label::Neg => -1.0,
        }
    }

    /// Classifies a real number by sign; non-negative maps to `Pos`.
    ///
    /// Zero-sum ties resolve to `Pos`, matching the convention that
    /// `sign(0) = +1` in the aggregation rule.
    #[inline]
    pub fn from_sign(x: f64) -> Label {
        if x >= 0.0 {
            Label::Pos
        } else {
            Label::Neg
        }
    }

    /// Uniformly random label.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Label {
        if rng.gen_bool(0.5) {
            Label::Pos
        } else {
            Label::Neg
        }
    }
}

impl Neg for Label {
    type Output = Label;
    fn neg(self) -> Label {
        match self {
            Label::Pos => Label::Neg,
            Label::Neg => Label::Pos,
        }
    }
}

// Hand-written serde: the signed-integer encoding (`1` / `-1`) matches the
// paper's ±1 label model, where the derive would write a variant's name.
impl Serialize for Label {
    fn serialize<S: Sink + ?Sized>(&self, out: &mut S) {
        out.i64(match self {
            Label::Pos => 1,
            Label::Neg => -1,
        });
    }
}

impl Deserialize for Label {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match i64::from_value(v)? {
            1 => Ok(Label::Pos),
            -1 => Ok(Label::Neg),
            other => Err(DeError::custom(format!(
                "label must be 1 or -1, got {other}"
            ))),
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Pos => write!(f, "+1"),
            Label::Neg => write!(f, "-1"),
        }
    }
}

/// One reported label: worker `i` says task `j` is `label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Observation {
    /// Reporting worker.
    pub worker: WorkerId,
    /// Labelled task.
    pub task: TaskId,
    /// The reported label `l_ij`.
    pub label: Label,
}

/// All collected labels, indexed per task.
///
/// # Examples
///
/// ```
/// use mcs_agg::{Label, LabelSet, Observation};
/// use mcs_types::{TaskId, WorkerId};
///
/// let mut set = LabelSet::new(2);
/// set.push(Observation { worker: WorkerId(0), task: TaskId(1), label: Label::Pos });
/// assert_eq!(set.for_task(TaskId(1)).len(), 1);
/// assert!(set.for_task(TaskId(0)).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LabelSet {
    per_task: Vec<Vec<(WorkerId, Label)>>,
}

impl LabelSet {
    /// Creates an empty label set over `num_tasks` tasks.
    pub fn new(num_tasks: usize) -> Self {
        LabelSet {
            per_task: vec![Vec::new(); num_tasks],
        }
    }

    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.per_task.len()
    }

    /// Adds an observation.
    ///
    /// # Panics
    ///
    /// Panics if the task id is out of range.
    pub fn push(&mut self, obs: Observation) {
        self.per_task[obs.task.index()].push((obs.worker, obs.label));
    }

    /// The labels reported for one task, as `(worker, label)` pairs.
    #[inline]
    pub fn for_task(&self, task: TaskId) -> &[(WorkerId, Label)] {
        &self.per_task[task.index()]
    }

    /// Iterates over every observation.
    pub fn iter(&self) -> impl Iterator<Item = Observation> + '_ {
        self.per_task.iter().enumerate().flat_map(|(j, labels)| {
            labels.iter().map(move |&(worker, label)| Observation {
                worker,
                task: TaskId(j as u32),
                label,
            })
        })
    }

    /// Total number of observations.
    pub fn len(&self) -> usize {
        self.per_task.iter().map(Vec::len).sum()
    }

    /// Returns `true` if no labels were collected.
    pub fn is_empty(&self) -> bool {
        self.per_task.iter().all(Vec::is_empty)
    }
}

impl FromIterator<Observation> for LabelSet {
    fn from_iter<I: IntoIterator<Item = Observation>>(iter: I) -> Self {
        let obs: Vec<Observation> = iter.into_iter().collect();
        let num_tasks = obs.iter().map(|o| o.task.index() + 1).max().unwrap_or(0);
        let mut set = LabelSet::new(num_tasks);
        for o in obs {
            set.push(o);
        }
        set
    }
}

/// Simulates workers labelling their assigned bundles.
///
/// Worker `i` reports the true label of task `j` with probability
/// `θ_ij` and the flipped label otherwise — the exact noise model under
/// which Lemma 1 is derived. This replaces the real crowd of the paper's
/// deployment scenario with a synthetic equivalent exercising the same
/// aggregation path.
///
/// # Panics
///
/// Panics if `truth.len()` differs from the skill matrix's task count, or
/// an assignment references an out-of-range worker/task.
pub fn generate_labels<R: Rng + ?Sized>(
    skills: &SkillMatrix,
    truth: &[Label],
    assignment: &[(WorkerId, Bundle)],
    rng: &mut R,
) -> LabelSet {
    assert_eq!(
        truth.len(),
        skills.num_tasks(),
        "truth vector length must match the task count"
    );
    let mut set = LabelSet::new(skills.num_tasks());
    for (worker, bundle) in assignment {
        for task in bundle.iter() {
            let correct = rng.gen_bool(skills.theta(*worker, task));
            let label = if correct {
                truth[task.index()]
            } else {
                -truth[task.index()]
            };
            set.push(Observation {
                worker: *worker,
                task,
                label,
            });
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_num::rng;

    #[test]
    fn label_arithmetic() {
        assert_eq!(Label::Pos.to_f64(), 1.0);
        assert_eq!(Label::Neg.to_f64(), -1.0);
        assert_eq!(-Label::Neg, Label::Pos);
        assert_eq!(Label::from_sign(0.0), Label::Pos);
        assert_eq!(Label::from_sign(-1e-9), Label::Neg);
        assert_eq!(Label::Pos.to_string(), "+1");
    }

    #[test]
    fn label_set_indexes_by_task() {
        let mut set = LabelSet::new(3);
        set.push(Observation {
            worker: WorkerId(0),
            task: TaskId(2),
            label: Label::Neg,
        });
        set.push(Observation {
            worker: WorkerId(1),
            task: TaskId(2),
            label: Label::Pos,
        });
        assert_eq!(set.for_task(TaskId(2)).len(), 2);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.iter().count(), 2);
    }

    #[test]
    fn from_iterator_sizes_to_max_task() {
        let set: LabelSet = [Observation {
            worker: WorkerId(0),
            task: TaskId(4),
            label: Label::Pos,
        }]
        .into_iter()
        .collect();
        assert_eq!(set.num_tasks(), 5);
    }

    #[test]
    fn perfect_worker_always_correct() {
        let skills = SkillMatrix::from_rows(vec![vec![1.0, 1.0]]).unwrap();
        let truth = vec![Label::Pos, Label::Neg];
        let assignment = vec![(WorkerId(0), Bundle::new(vec![TaskId(0), TaskId(1)]))];
        let mut r = rng::seeded(5);
        let set = generate_labels(&skills, &truth, &assignment, &mut r);
        assert_eq!(set.for_task(TaskId(0)), &[(WorkerId(0), Label::Pos)]);
        assert_eq!(set.for_task(TaskId(1)), &[(WorkerId(0), Label::Neg)]);
    }

    #[test]
    fn anti_expert_always_flips() {
        let skills = SkillMatrix::from_rows(vec![vec![0.0]]).unwrap();
        let truth = vec![Label::Pos];
        let assignment = vec![(WorkerId(0), Bundle::new(vec![TaskId(0)]))];
        let mut r = rng::seeded(5);
        let set = generate_labels(&skills, &truth, &assignment, &mut r);
        assert_eq!(set.for_task(TaskId(0)), &[(WorkerId(0), Label::Neg)]);
    }

    #[test]
    fn accuracy_converges_to_theta() {
        let theta = 0.8;
        let skills = SkillMatrix::from_rows(vec![vec![theta]]).unwrap();
        let truth = vec![Label::Pos];
        let assignment = vec![(WorkerId(0), Bundle::new(vec![TaskId(0)]))];
        let mut r = rng::seeded(11);
        let trials = 20_000;
        let correct = (0..trials)
            .filter(|_| {
                let set = generate_labels(&skills, &truth, &assignment, &mut r);
                set.for_task(TaskId(0))[0].1 == Label::Pos
            })
            .count();
        let rate = correct as f64 / trials as f64;
        assert!((rate - theta).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    #[should_panic(expected = "truth vector length")]
    fn truth_length_mismatch_panics() {
        let skills = SkillMatrix::from_rows(vec![vec![0.5, 0.5]]).unwrap();
        let mut r = rng::seeded(0);
        let _ = generate_labels(&skills, &[Label::Pos], &[], &mut r);
    }
}
