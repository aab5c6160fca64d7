//! Worker skill matrices and derived coverage weights.

use serde::{DeError, Deserialize, Reader, Serialize, Sink, Value};

use crate::{McsError, TaskId, WorkerId};

/// The uninformative prior `θ = 0.5` assumed for every cell a sparse
/// construction does not list: a coin-flip labeller carries no information
/// (`q = (2θ − 1)² = 0`), which is exactly the single-minded model — a
/// worker contributes nothing outside her bundle.
pub const DEFAULT_THETA: f64 = 0.5;

/// The skill matrix `θ = [θ_ij] ∈ [0,1]^{N×K}`.
///
/// `θ_ij` is the probability that the label worker `i` reports for binary
/// task `j` equals the true label. The platform maintains this matrix as
/// prior information (estimated from gold tasks, historical submissions, or
/// worker reputation — see `mcs-agg` for estimators) and uses the derived
/// weights `q_ij = (2θ_ij − 1)²` in the error-bound constraint of Lemma 1.
///
/// # Representation
///
/// Two physical layouts share one logical matrix:
///
/// * **dense** row-major (via [`SkillMatrix::from_rows`] /
///   [`SkillMatrix::from_flat`]) — every cell stored;
/// * **CSR** (via [`SkillMatrix::from_sparse`]) — only informative cells
///   stored, every other cell implicitly [`DEFAULT_THETA`].
///
/// Equality, serde round-trips, digests, and every accessor are defined on
/// the *logical* matrix, so a dense and a sparse construction of the same
/// values are interchangeable everywhere (including as service cache keys).
///
/// # Examples
///
/// ```
/// use mcs_types::{SkillMatrix, TaskId, WorkerId};
///
/// # fn main() -> Result<(), mcs_types::McsError> {
/// let skills = SkillMatrix::from_rows(vec![vec![0.9, 0.5], vec![0.1, 0.75]])?;
/// assert_eq!(skills.theta(WorkerId(0), TaskId(0)), 0.9);
/// // q = (2·0.9 − 1)² = 0.64
/// assert!((skills.q(WorkerId(0), TaskId(0)) - 0.64).abs() < 1e-12);
/// // θ = 0.5 carries zero information: q = 0.
/// assert_eq!(skills.q(WorkerId(0), TaskId(1)), 0.0);
/// // θ = 0.1 is *informative* (an anti-expert): q = 0.64.
/// assert!((skills.q(WorkerId(1), TaskId(0)) - 0.64).abs() < 1e-12);
/// // The same matrix built sparsely compares equal.
/// let sparse = SkillMatrix::from_sparse(
///     2,
///     2,
///     vec![
///         (WorkerId(0), TaskId(0), 0.9),
///         (WorkerId(1), TaskId(0), 0.1),
///         (WorkerId(1), TaskId(1), 0.75),
///     ],
/// )?;
/// assert_eq!(skills, sparse);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SkillMatrix {
    num_workers: usize,
    num_tasks: usize,
    repr: Repr,
}

/// Physical layout of the `θ` values.
#[derive(Debug, Clone)]
enum Repr {
    /// Row-major `θ` values, one per cell.
    Dense { theta: Vec<f64> },
    /// Compressed sparse rows: `offsets` has `num_workers + 1` entries;
    /// worker `i`'s informative cells are `tasks[offsets[i]..offsets[i+1]]`
    /// (strictly ascending) with values in the parallel `theta` range.
    /// Cells not listed hold [`DEFAULT_THETA`]; stored values are never
    /// exactly [`DEFAULT_THETA`] (canonical form), so structural equality
    /// of two CSR matrices coincides with logical equality.
    Csr {
        offsets: Vec<usize>,
        tasks: Vec<u32>,
        theta: Vec<f64>,
    },
}

impl SkillMatrix {
    /// Builds a skill matrix from per-worker rows.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::InvalidSkill`] if any entry is outside `[0, 1]`
    /// or not finite, and [`McsError::DimensionMismatch`] if rows have
    /// unequal lengths.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, McsError> {
        let num_workers = rows.len();
        let num_tasks = rows.first().map_or(0, Vec::len);
        let mut theta = Vec::with_capacity(num_workers * num_tasks);
        for (i, row) in rows.into_iter().enumerate() {
            if row.len() != num_tasks {
                return Err(McsError::DimensionMismatch {
                    what: "skill matrix row",
                    expected: num_tasks,
                    actual: row.len(),
                });
            }
            for (j, v) in row.into_iter().enumerate() {
                if !(0.0..=1.0).contains(&v) {
                    return Err(McsError::InvalidSkill {
                        worker: WorkerId(i as u32),
                        task: TaskId(j as u32),
                        value: v,
                    });
                }
                theta.push(v);
            }
        }
        Ok(SkillMatrix {
            num_workers,
            num_tasks,
            repr: Repr::Dense { theta },
        })
    }

    /// Builds a skill matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::DimensionMismatch`] if `flat.len()` is not
    /// `num_workers * num_tasks`, or [`McsError::InvalidSkill`] on
    /// out-of-range entries.
    pub fn from_flat(
        num_workers: usize,
        num_tasks: usize,
        flat: Vec<f64>,
    ) -> Result<Self, McsError> {
        // A product past `usize::MAX` saturates, and matches no vector's
        // length.
        let cells = num_workers.saturating_mul(num_tasks);
        if flat.len() != cells {
            return Err(McsError::DimensionMismatch {
                what: "flat skill matrix",
                expected: cells,
                actual: flat.len(),
            });
        }
        for (idx, &v) in flat.iter().enumerate() {
            if !(0.0..=1.0).contains(&v) {
                return Err(McsError::InvalidSkill {
                    worker: WorkerId((idx / num_tasks.max(1)) as u32),
                    task: TaskId((idx % num_tasks.max(1)) as u32),
                    value: v,
                });
            }
        }
        Ok(SkillMatrix {
            num_workers,
            num_tasks,
            repr: Repr::Dense { theta: flat },
        })
    }

    /// Builds a CSR skill matrix from `(worker, task, θ)` entries; every
    /// unlisted cell holds [`DEFAULT_THETA`] (uninformative, `q = 0`).
    ///
    /// Entries may arrive in any order. Entries whose value is exactly
    /// [`DEFAULT_THETA`] are dropped (they are indistinguishable from an
    /// unlisted cell), which keeps the stored form canonical. The result
    /// stores `O(nnz)` values instead of `N·K`, which is what makes large
    /// sparse instances cheap to hold, hash, and ship.
    ///
    /// # Errors
    ///
    /// * [`McsError::WorkerOutOfRange`] / [`McsError::BundleOutOfRange`] —
    ///   an entry's worker or task index is out of range.
    /// * [`McsError::InvalidSkill`] — a θ outside `[0, 1]` or not finite.
    /// * [`McsError::DuplicateSkillEntry`] — the same cell listed twice.
    pub fn from_sparse(
        num_workers: usize,
        num_tasks: usize,
        entries: impl IntoIterator<Item = (WorkerId, TaskId, f64)>,
    ) -> Result<Self, McsError> {
        let mut cells: Vec<(u32, u32, f64)> = Vec::new();
        for (w, t, v) in entries {
            if w.index() >= num_workers {
                return Err(McsError::WorkerOutOfRange {
                    worker: w,
                    num_workers,
                });
            }
            if t.index() >= num_tasks {
                return Err(McsError::BundleOutOfRange {
                    worker: w,
                    num_tasks,
                });
            }
            if !(0.0..=1.0).contains(&v) {
                return Err(McsError::InvalidSkill {
                    worker: w,
                    task: t,
                    value: v,
                });
            }
            cells.push((w.0, t.0, v));
        }
        cells.sort_by_key(|&(w, t, _)| (w, t));
        for pair in cells.windows(2) {
            if pair[0].0 == pair[1].0 && pair[0].1 == pair[1].1 {
                return Err(McsError::DuplicateSkillEntry {
                    worker: WorkerId(pair[0].0),
                    task: TaskId(pair[0].1),
                });
            }
        }
        let mut offsets = Vec::with_capacity(num_workers + 1);
        let mut tasks = Vec::new();
        let mut theta = Vec::new();
        offsets.push(0);
        let mut cursor = 0usize;
        for w in 0..num_workers as u32 {
            while cursor < cells.len() && cells[cursor].0 == w {
                let (_, t, v) = cells[cursor];
                if v != DEFAULT_THETA {
                    tasks.push(t);
                    theta.push(v);
                }
                cursor += 1;
            }
            offsets.push(tasks.len());
        }
        Ok(SkillMatrix {
            num_workers,
            num_tasks,
            repr: Repr::Csr {
                offsets,
                tasks,
                theta,
            },
        })
    }

    /// Number of workers (rows).
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Number of tasks (columns).
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Whether this matrix is held in the CSR representation.
    #[inline]
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Csr { .. })
    }

    /// Number of physically stored θ values (`N·K` dense, `nnz` sparse).
    pub fn stored_len(&self) -> usize {
        match &self.repr {
            Repr::Dense { theta } => theta.len(),
            Repr::Csr { theta, .. } => theta.len(),
        }
    }

    /// Unchecked logical cell access by raw indices.
    #[inline]
    fn theta_at(&self, worker: usize, task: usize) -> f64 {
        match &self.repr {
            Repr::Dense { theta } => theta[worker * self.num_tasks + task],
            Repr::Csr {
                offsets,
                tasks,
                theta,
            } => {
                let row = &tasks[offsets[worker]..offsets[worker + 1]];
                match row.binary_search(&(task as u32)) {
                    Ok(pos) => theta[offsets[worker] + pos],
                    Err(_) => DEFAULT_THETA,
                }
            }
        }
    }

    /// The skill level `θ_ij`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` or `task` is out of range.
    #[inline]
    pub fn theta(&self, worker: WorkerId, task: TaskId) -> f64 {
        assert!(worker.index() < self.num_workers, "worker out of range");
        assert!(task.index() < self.num_tasks, "task out of range");
        self.theta_at(worker.index(), task.index())
    }

    /// The aggregation weight `α_ij = 2θ_ij − 1` of Lemma 1.
    ///
    /// Positive for better-than-random workers, negative for anti-experts
    /// (whose labels are informative once flipped), zero at `θ = 0.5`.
    #[inline]
    pub fn alpha(&self, worker: WorkerId, task: TaskId) -> f64 {
        2.0 * self.theta(worker, task) - 1.0
    }

    /// The coverage weight `q_ij = (2θ_ij − 1)² ∈ [0, 1]` of the error-bound
    /// constraint.
    #[inline]
    pub fn q(&self, worker: WorkerId, task: TaskId) -> f64 {
        let a = self.alpha(worker, task);
        a * a
    }

    /// Visits a worker's full logical `θ` row in task order — without
    /// materializing it, and without per-cell binary searches on the CSR
    /// representation.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn for_each_theta(&self, worker: WorkerId, mut f: impl FnMut(f64)) {
        assert!(worker.index() < self.num_workers, "worker out of range");
        match &self.repr {
            Repr::Dense { theta } => {
                let start = worker.index() * self.num_tasks;
                for &v in &theta[start..start + self.num_tasks] {
                    f(v);
                }
            }
            Repr::Csr {
                offsets,
                tasks,
                theta,
            } => {
                let lo = offsets[worker.index()];
                let hi = offsets[worker.index() + 1];
                let mut next = 0usize;
                for (&t, &v) in tasks[lo..hi].iter().zip(&theta[lo..hi]) {
                    for _ in next..t as usize {
                        f(DEFAULT_THETA);
                    }
                    f(v);
                    next = t as usize + 1;
                }
                for _ in next..self.num_tasks {
                    f(DEFAULT_THETA);
                }
            }
        }
    }

    /// A worker's full logical `θ` row, materialized.
    pub fn worker_row(&self, worker: WorkerId) -> Vec<f64> {
        let mut row = Vec::with_capacity(self.num_tasks);
        self.for_each_theta(worker, |v| row.push(v));
        row
    }
}

impl PartialEq for SkillMatrix {
    /// Logical equality: same dimensions and cell values, regardless of
    /// representation — required so `a == b ⇒ a.digest() == b.digest()`
    /// keeps holding now that equal matrices can be held in two layouts.
    fn eq(&self, other: &Self) -> bool {
        if self.num_workers != other.num_workers || self.num_tasks != other.num_tasks {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Dense { theta: a }, Repr::Dense { theta: b }) => a == b,
            // CSR is canonical (sorted, deduplicated, no stored defaults),
            // so structural equality is logical equality.
            (
                Repr::Csr {
                    offsets: ao,
                    tasks: at,
                    theta: av,
                },
                Repr::Csr {
                    offsets: bo,
                    tasks: bt,
                    theta: bv,
                },
            ) => ao == bo && at == bt && av == bv,
            _ => (0..self.num_workers)
                .all(|i| (0..self.num_tasks).all(|j| self.theta_at(i, j) == other.theta_at(i, j))),
        }
    }
}

impl SkillMatrix {
    /// Builds a matrix from its decoded wire fields: dense when `csr` is
    /// `None`, else CSR from its `(offsets, tasks)`. Both decoders come
    /// through here, so each rule has one implementation.
    fn from_wire(
        num_workers: usize,
        num_tasks: usize,
        theta: Vec<f64>,
        csr: Option<(Vec<usize>, Vec<u32>)>,
    ) -> Result<Self, DeError> {
        let Some((offsets, tasks)) = csr else {
            // Dense form: held to the constructor's rules, so that every
            // later lookup stays inside the `N·K` values.
            return SkillMatrix::from_flat(num_workers, num_tasks, theta)
                .map_err(|e| DeError::custom(e.to_string()));
        };
        // CSR form: new on the wire, so it can afford to be strict — a
        // malformed CSR would silently mis-shape every later lookup.
        if offsets.len().checked_sub(1) != Some(num_workers)
            || offsets.first() != Some(&0)
            || offsets.last() != Some(&tasks.len())
            || tasks.len() != theta.len()
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(DeError::custom("malformed CSR skill matrix structure"));
        }
        for w in 0..num_workers {
            let row = &tasks[offsets[w]..offsets[w + 1]];
            if row.windows(2).any(|p| p[0] >= p[1]) || row.iter().any(|&t| t as usize >= num_tasks)
            {
                return Err(DeError::custom(
                    "CSR skill matrix rows must be strictly ascending and in range",
                ));
            }
        }
        if theta.iter().any(|v| !(0.0..=1.0).contains(v)) {
            return Err(DeError::custom("CSR skill matrix theta outside [0, 1]"));
        }
        // Re-canonicalize: stored defaults are dropped so equality stays
        // representation-independent even for hand-written payloads.
        let mut c_offsets = Vec::with_capacity(num_workers + 1);
        let mut c_tasks = Vec::new();
        let mut c_theta = Vec::new();
        c_offsets.push(0);
        for w in 0..num_workers {
            for i in offsets[w]..offsets[w + 1] {
                if theta[i] != DEFAULT_THETA {
                    c_tasks.push(tasks[i]);
                    c_theta.push(theta[i]);
                }
            }
            c_offsets.push(c_tasks.len());
        }
        Ok(SkillMatrix {
            num_workers,
            num_tasks,
            repr: Repr::Csr {
                offsets: c_offsets,
                tasks: c_tasks,
                theta: c_theta,
            },
        })
    }
}

impl Serialize for SkillMatrix {
    /// The dense representation keeps the wire shape every pre-CSR encoder
    /// produced (`{num_workers, num_tasks, theta}`); CSR adds an `offsets`
    /// field, which is also how the decoder tells the two forms apart.
    fn serialize<S: Sink + ?Sized>(&self, out: &mut S) {
        out.begin_object();
        out.key("num_workers");
        self.num_workers.serialize(out);
        out.key("num_tasks");
        self.num_tasks.serialize(out);
        match &self.repr {
            Repr::Dense { theta } => {
                out.key("theta");
                theta.serialize(out);
            }
            Repr::Csr {
                offsets,
                tasks,
                theta,
            } => {
                out.key("offsets");
                offsets.serialize(out);
                out.key("tasks");
                tasks.serialize(out);
                out.key("theta");
                theta.serialize(out);
            }
        }
        out.end_object();
    }
}

impl Deserialize for SkillMatrix {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Object(_)) {
            return Err(DeError::expected("object", v));
        }
        let field = |name: &'static str| v.get(name).ok_or_else(|| DeError::missing_field(name));
        let num_workers = usize::from_value(field("num_workers")?)?;
        let num_tasks = usize::from_value(field("num_tasks")?)?;
        let theta = Vec::<f64>::from_value(field("theta")?)?;
        let csr = match v.get("offsets") {
            None => None,
            Some(offsets) => Some((
                Vec::<usize>::from_value(offsets)?,
                Vec::<u32>::from_value(field("tasks")?)?,
            )),
        };
        SkillMatrix::from_wire(num_workers, num_tasks, theta, csr)
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let (mut num_workers, mut num_tasks, mut theta) = (None, None, None);
        let (mut offsets, mut tasks) = (None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match key {
                "num_workers" if num_workers.is_none() => num_workers = Some(usize::read(r)?),
                "num_tasks" if num_tasks.is_none() => num_tasks = Some(usize::read(r)?),
                "theta" if theta.is_none() => theta = Some(Vec::<f64>::read(r)?),
                "offsets" if offsets.is_none() => offsets = Some(Vec::<usize>::read(r)?),
                "tasks" if tasks.is_none() => tasks = Some(Vec::<u32>::read(r)?),
                _ => return None,
            }
        }
        let csr = match (offsets, tasks) {
            (None, None) => None,
            (Some(offsets), Some(tasks)) => Some((offsets, tasks)),
            // The tree path ignores `tasks` without `offsets`; it decides.
            _ => return None,
        };
        SkillMatrix::from_wire(num_workers?, num_tasks?, theta?, csr).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_out_of_range_theta() {
        assert!(matches!(
            SkillMatrix::from_rows(vec![vec![1.5]]),
            Err(McsError::InvalidSkill { .. })
        ));
        assert!(matches!(
            SkillMatrix::from_rows(vec![vec![-0.1]]),
            Err(McsError::InvalidSkill { .. })
        ));
        assert!(matches!(
            SkillMatrix::from_rows(vec![vec![f64::NAN]]),
            Err(McsError::InvalidSkill { .. })
        ));
    }

    #[test]
    fn rejects_ragged_rows() {
        assert!(matches!(
            SkillMatrix::from_rows(vec![vec![0.5, 0.5], vec![0.5]]),
            Err(McsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_flat_checks_dimensions() {
        assert!(SkillMatrix::from_flat(2, 2, vec![0.5; 4]).is_ok());
        assert!(matches!(
            SkillMatrix::from_flat(2, 2, vec![0.5; 3]),
            Err(McsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn q_is_symmetric_around_half() {
        let m = SkillMatrix::from_rows(vec![vec![0.9, 0.1, 0.5]]).unwrap();
        let q_expert = m.q(WorkerId(0), TaskId(0));
        let q_anti = m.q(WorkerId(0), TaskId(1));
        assert!((q_expert - q_anti).abs() < 1e-12);
        assert_eq!(m.q(WorkerId(0), TaskId(2)), 0.0);
    }

    #[test]
    fn alpha_sign() {
        let m = SkillMatrix::from_rows(vec![vec![0.8, 0.2]]).unwrap();
        assert!(m.alpha(WorkerId(0), TaskId(0)) > 0.0);
        assert!(m.alpha(WorkerId(0), TaskId(1)) < 0.0);
    }

    #[test]
    fn worker_row_slices() {
        let m = SkillMatrix::from_rows(vec![vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
        assert_eq!(m.worker_row(WorkerId(1)), &[0.3, 0.4]);
    }

    #[test]
    #[should_panic(expected = "worker out of range")]
    fn theta_panics_out_of_range() {
        let m = SkillMatrix::from_rows(vec![vec![0.5]]).unwrap();
        let _ = m.theta(WorkerId(1), TaskId(0));
    }

    #[test]
    fn sparse_matches_dense_cell_by_cell() {
        let dense = SkillMatrix::from_rows(vec![vec![0.9, 0.5, 0.2], vec![0.5, 0.5, 0.8]]).unwrap();
        let sparse = SkillMatrix::from_sparse(
            2,
            3,
            vec![
                (WorkerId(1), TaskId(2), 0.8),
                (WorkerId(0), TaskId(0), 0.9),
                (WorkerId(0), TaskId(2), 0.2),
            ],
        )
        .unwrap();
        assert!(sparse.is_sparse());
        assert_eq!(sparse.stored_len(), 3);
        assert_eq!(dense, sparse);
        assert_eq!(sparse, dense);
        for w in 0..2 {
            assert_eq!(
                dense.worker_row(WorkerId(w)),
                sparse.worker_row(WorkerId(w))
            );
            for t in 0..3 {
                assert_eq!(
                    dense.theta(WorkerId(w), TaskId(t)),
                    sparse.theta(WorkerId(w), TaskId(t))
                );
            }
        }
    }

    #[test]
    fn sparse_drops_explicit_defaults() {
        let a = SkillMatrix::from_sparse(1, 2, vec![(WorkerId(0), TaskId(0), 0.9)]).unwrap();
        let b = SkillMatrix::from_sparse(
            1,
            2,
            vec![
                (WorkerId(0), TaskId(0), 0.9),
                (WorkerId(0), TaskId(1), DEFAULT_THETA),
            ],
        )
        .unwrap();
        assert_eq!(a.stored_len(), b.stored_len());
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_rejects_bad_entries() {
        assert!(matches!(
            SkillMatrix::from_sparse(1, 1, vec![(WorkerId(1), TaskId(0), 0.9)]),
            Err(McsError::WorkerOutOfRange { .. })
        ));
        assert!(matches!(
            SkillMatrix::from_sparse(1, 1, vec![(WorkerId(0), TaskId(1), 0.9)]),
            Err(McsError::BundleOutOfRange { .. })
        ));
        assert!(matches!(
            SkillMatrix::from_sparse(1, 1, vec![(WorkerId(0), TaskId(0), 1.9)]),
            Err(McsError::InvalidSkill { .. })
        ));
        assert!(matches!(
            SkillMatrix::from_sparse(
                1,
                2,
                vec![(WorkerId(0), TaskId(0), 0.9), (WorkerId(0), TaskId(0), 0.8)]
            ),
            Err(McsError::DuplicateSkillEntry { .. })
        ));
    }

    #[test]
    fn serde_dense_wire_shape_is_unchanged() {
        let m = SkillMatrix::from_rows(vec![vec![0.1, 0.2]]).unwrap();
        let v = m.to_value();
        assert!(v.get("theta").is_some());
        assert!(v.get("offsets").is_none());
        let back = SkillMatrix::from_value(&v).unwrap();
        assert_eq!(m, back);
        assert!(!back.is_sparse());
    }

    #[test]
    fn serde_sparse_roundtrip_stays_sparse_and_equal() {
        let m = SkillMatrix::from_sparse(
            3,
            5,
            vec![(WorkerId(0), TaskId(1), 0.8), (WorkerId(2), TaskId(4), 0.3)],
        )
        .unwrap();
        let back = SkillMatrix::from_value(&m.to_value()).unwrap();
        assert!(back.is_sparse());
        assert_eq!(back.stored_len(), 2);
        assert_eq!(m, back);
    }

    #[test]
    fn serde_rejects_malformed_dense() {
        let good = SkillMatrix::from_rows(vec![vec![0.1, 0.2], vec![0.3, 0.4]])
            .unwrap()
            .to_value();
        let tamper = |key: &str, val: Value| -> Value {
            let Value::Object(fields) = good.clone() else {
                unreachable!()
            };
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| if k == key { (k, val.clone()) } else { (k, v) })
                    .collect(),
            )
        };
        assert!(SkillMatrix::from_value(&good).is_ok());
        // One cell short of N·K: every lookup of the last row would run
        // off the end.
        let short = SkillMatrix::from_value(&tamper("theta", vec![0.1f64, 0.2, 0.3].to_value()));
        assert!(short
            .unwrap_err()
            .to_string()
            .contains("length 3, expected 4"));
        // θ outside [0, 1].
        let wide =
            SkillMatrix::from_value(&tamper("theta", vec![0.1f64, 7.5, 0.3, 0.4].to_value()));
        assert!(wide
            .unwrap_err()
            .to_string()
            .contains("= 7.5 is outside [0, 1]"));
        // Dimensions whose product overflows match no vector.
        assert!(SkillMatrix::from_value(&tamper("num_tasks", usize::MAX.to_value())).is_err());
    }

    #[test]
    fn serde_rejects_malformed_csr() {
        let m = SkillMatrix::from_sparse(2, 2, vec![(WorkerId(0), TaskId(0), 0.9)]).unwrap();
        let good = m.to_value();
        let tamper = |key: &str, val: Value| -> Value {
            let Value::Object(fields) = good.clone() else {
                unreachable!()
            };
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| if k == key { (k, val.clone()) } else { (k, v) })
                    .collect(),
            )
        };
        // Offsets length disagrees with the worker count.
        assert!(SkillMatrix::from_value(&tamper("offsets", vec![0usize, 1].to_value())).is_err());
        // Task index out of range.
        assert!(SkillMatrix::from_value(&tamper("tasks", vec![7u32].to_value())).is_err());
        // Theta out of range.
        assert!(SkillMatrix::from_value(&tamper("theta", vec![1.5f64].to_value())).is_err());
    }

    proptest! {
        #[test]
        fn prop_q_in_unit_interval(t in 0.0f64..=1.0) {
            let m = SkillMatrix::from_rows(vec![vec![t]]).unwrap();
            let q = m.q(WorkerId(0), TaskId(0));
            prop_assert!((0.0..=1.0).contains(&q));
            // q = alpha².
            let a = m.alpha(WorkerId(0), TaskId(0));
            prop_assert!((q - a * a).abs() < 1e-12);
        }

        #[test]
        fn prop_sparse_and_dense_agree(
            ws in proptest::collection::vec(0usize..3, 0..8),
            ts in proptest::collection::vec(0usize..4, 0..8),
            vs in proptest::collection::vec(0.0f64..=1.0, 0..8),
        ) {
            let mut dense_rows = vec![vec![DEFAULT_THETA; 4]; 3];
            let mut entries = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for ((&w, &t), &v) in ws.iter().zip(&ts).zip(&vs) {
                if seen.insert((w, t)) {
                    dense_rows[w][t] = v;
                    entries.push((WorkerId(w as u32), TaskId(t as u32), v));
                }
            }
            let dense = SkillMatrix::from_rows(dense_rows).unwrap();
            let sparse = SkillMatrix::from_sparse(3, 4, entries).unwrap();
            prop_assert_eq!(&dense, &sparse);
            for w in 0..3u32 {
                prop_assert_eq!(dense.worker_row(WorkerId(w)), sparse.worker_row(WorkerId(w)));
            }
            // Serde round-trips preserve logical equality for both layouts.
            let d2 = SkillMatrix::from_value(&dense.to_value()).unwrap();
            let s2 = SkillMatrix::from_value(&sparse.to_value()).unwrap();
            prop_assert_eq!(&d2, &s2);
            prop_assert_eq!(&dense, &d2);
        }
    }
}
