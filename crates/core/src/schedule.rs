//! Per-price winner-set schedules (Algorithm 1, lines 1–15) and the exact
//! price PMF of the exponential mechanism.
//!
//! All engines operate on the CSR [`SparseCoverage`] core: the covering
//! problem is materialized once per schedule build — `O(nnz + K)` straight
//! from the bundles, never through a dense `N×K` matrix — and every
//! selector walks compressed rows with cached static totals. See the
//! `mcs_types::coverage` module docs for the bit-exactness contract that
//! makes the sparse and dense paths observationally identical.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mcs_num::{sample_logits, softmax_from_logits};
use mcs_types::{CoverageView, Instance, McsError, Price, SparseCoverage, TaskId, WorkerId};

use crate::engine::Strategy;
use crate::outcome::AuctionOutcome;

/// Residual coverage below this threshold counts as satisfied.
pub(crate) const COVER_EPS: f64 = 1e-9;

/// Which winner-selection rule fills each price's winner set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionRule {
    /// Algorithm 1's greedy rule: each step picks the worker with the
    /// largest *marginal* coverage `Σ_j min(Q'_j, q_ij)` against the
    /// current residual.
    MarginalCoverage,
    /// The §VII-A baseline: workers are taken in descending order of their
    /// *static* total score `Σ_j q_ij`, ignoring how much of it is still
    /// needed.
    StaticTotal,
}

/// The winner set for every feasible candidate price.
///
/// Winner sets are constant on the interval between two consecutive bidding
/// prices, so the schedule stores one distinct set per non-empty interval
/// and maps each grid price to its interval — this is exactly the
/// compression that makes Algorithm 1's complexity independent of `|P|`
/// (Theorem 5).
#[derive(Debug, Clone, PartialEq)]
pub struct PriceSchedule {
    /// Feasible grid prices, ascending (the suffix of `P` at which the
    /// error-bound constraints are satisfiable).
    prices: Vec<Price>,
    /// `set_of[i]` indexes into `sets` for `prices[i]`.
    set_of: Vec<usize>,
    /// Distinct winner sets, each sorted by worker id.
    sets: Vec<Vec<WorkerId>>,
}

impl PriceSchedule {
    /// Number of feasible candidate prices `|P|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.prices.len()
    }

    /// Returns `true` if no price is feasible (never — construction fails
    /// instead).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prices.is_empty()
    }

    /// The feasible prices, ascending.
    #[inline]
    pub fn prices(&self) -> &[Price] {
        &self.prices
    }

    /// The `idx`-th feasible price.
    #[inline]
    pub fn price(&self, idx: usize) -> Price {
        self.prices[idx]
    }

    /// The winner set at the `idx`-th feasible price.
    #[inline]
    pub fn winners(&self, idx: usize) -> &[WorkerId] {
        &self.sets[self.set_of[idx]]
    }

    /// The total payment `x · |S(x)|` at the `idx`-th feasible price.
    pub fn total_payment(&self, idx: usize) -> Price {
        self.prices[idx] * self.winners(idx).len()
    }

    /// All total payments, aligned with [`PriceSchedule::prices`].
    pub fn total_payments(&self) -> Vec<Price> {
        (0..self.len()).map(|i| self.total_payment(i)).collect()
    }

    /// The outcome at the `idx`-th feasible price — the `(price, winners)`
    /// pair a run would produce if the exponential mechanism drew `idx`.
    ///
    /// Lets callers that hold a shared (e.g. cached) schedule materialize
    /// outcomes without re-running winner determination.
    pub fn outcome(&self, idx: usize) -> AuctionOutcome {
        AuctionOutcome::new(self.price(idx), self.winners(idx).to_vec())
    }

    /// The number of *distinct* winner sets: each run of consecutive
    /// intervals with the same winners is stored once.
    #[inline]
    pub fn num_distinct_sets(&self) -> usize {
        self.sets.len()
    }

    /// The smallest total payment over all feasible prices, or `None` for
    /// an empty schedule.
    ///
    /// Construction never yields an empty schedule today; making the empty
    /// case explicit (rather than a silent [`Price::ZERO`]) keeps callers
    /// honest if future internal changes ever produce one — a zero minimum
    /// reads as "the platform pays nothing", which is the wrong conclusion
    /// to draw from "there are no feasible prices".
    pub fn min_total_payment(&self) -> Option<Price> {
        (0..self.len()).map(|i| self.total_payment(i)).min()
    }
}

/// Counters of one schedule build, from
/// [`ScheduleEngine::build_with_stats`](crate::ScheduleEngine::build_with_stats):
/// how the incremental sweep (`Strategy::Incremental`) absorbed each
/// bidding-price interval. The indexed engine and the static rule fill in
/// `intervals` only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuildStats {
    /// Bidding-price intervals the build selected winner sets for.
    pub intervals: u64,
    /// Intervals whose replay confirmed the previous interval's winners.
    pub confirmed: u64,
    /// Intervals whose replay diverged and resumed the greedy at the
    /// diverging step. With the first interval's selection from scratch,
    /// `intervals = 1 + confirmed + resumed`.
    pub resumed: u64,
    /// The steps those selections resumed at, summed (see
    /// [`BuildStats::mean_resume_step`]).
    pub resume_steps: u64,
    /// Newcomer gains the replays evaluated.
    pub replay_evaluations: u64,
    /// Stale bounds the lazy heap re-evaluated.
    pub reevaluations: u64,
    /// Greedy steps the exact dense scan selected.
    pub dense_steps: u64,
}

impl BuildStats {
    /// The mean step at which diverging intervals resumed the greedy
    /// (`0.0` when none diverged).
    pub fn mean_resume_step(&self) -> f64 {
        if self.resumed == 0 {
            0.0
        } else {
            self.resume_steps as f64 / self.resumed as f64
        }
    }
}

/// Worker order used throughout Algorithm 1: ascending bidding price, ties
/// by worker id.
pub(crate) fn workers_by_price(instance: &Instance) -> Vec<WorkerId> {
    let mut ids: Vec<WorkerId> = (0..instance.num_workers())
        .map(|i| WorkerId(i as u32))
        .collect();
    ids.sort_by_key(|&w| (instance.bids().bid(w).price(), w));
    ids
}

/// A lazy-heap entry: one candidate's last computed marginal coverage and
/// the greedy step whose residual it was computed against. Ordered so
/// that a [`std::collections::BinaryHeap`] pops the candidate the eager
/// rescan would pick: largest gain first, ties on the *earliest*
/// candidate index (the cheapest bidder, then smallest worker id). The
/// stamp takes no part in the order.
#[derive(Debug, Clone, Copy)]
struct LazyGain {
    /// Marginal coverage against the residual of step `stamp` — an upper
    /// bound on the candidate's gain at every later step.
    gain: f64,
    /// Index into the candidate slice.
    ci: u32,
    /// The step whose residual `gain` was computed against; the bound is
    /// exact while the selection is still at that step.
    stamp: u32,
}

impl PartialEq for LazyGain {
    fn eq(&self, other: &Self) -> bool {
        self.ci == other.ci && self.gain.total_cmp(&other.gain).is_eq()
    }
}

impl Eq for LazyGain {}

impl PartialOrd for LazyGain {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LazyGain {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Gains are finite and positive here (entries at or below
        // `COVER_EPS` are never pushed), so `total_cmp` agrees with the
        // eager implementation's `>` comparisons.
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.ci.cmp(&self.ci))
    }
}

/// The typed error for a candidate pool that ran dry with coverage still
/// outstanding: names the first task whose requirement is unmet.
///
/// Callers establish feasibility before selecting, so reaching this means
/// either an internal inconsistency or an explicitly partial (residual)
/// selection — both must surface as data, not a panic, now that fault
/// injection can drive the schedule path with arbitrary coverage states.
fn coverage_shortfall(residual: &[f64], requirements: &[f64]) -> McsError {
    for (j, &r) in residual.iter().enumerate() {
        if r > COVER_EPS {
            return McsError::CoverageShortfall {
                task: TaskId(j as u32),
                required: requirements[j].max(0.0),
                achieved: (requirements[j] - r).max(0.0),
            };
        }
    }
    McsError::CoverageShortfall {
        task: TaskId(0),
        required: 0.0,
        achieved: 0.0,
    }
}

/// The marginal coverage `Σ_j min(Q'_j, q_ij)` of one worker against a
/// residual requirement vector. All selectors share this single
/// implementation so gains are bit-for-bit comparable across engines:
/// entries come in ascending task order and accumulation starts at `+0.0`.
#[inline]
pub(crate) fn marginal_gain(cover: &SparseCoverage, w: WorkerId, residual: &[f64]) -> f64 {
    cover
        .row(w.index())
        .map(|(j, q)| q.min(residual[j].max(0.0)))
        .sum()
}

/// Applies one accepted worker to the residual, decrementing the running
/// deficit entry by entry (the same accumulation order every selector has
/// always used, so termination thresholds are unchanged).
#[inline]
pub(crate) fn apply_winner(
    cover: &SparseCoverage,
    w: WorkerId,
    residual: &mut [f64],
    remaining: &mut f64,
) {
    for (j, q) in cover.row(w.index()) {
        let take = q.min(residual[j].max(0.0));
        residual[j] -= take;
        *remaining -= take;
    }
}

/// Largest `N·K / nnz` at which a selection copies its candidates' rows
/// into the dense task-major matrix its dense finish scans, so the copy
/// stays within this many times the CSR's own entry count (O(nnz) memory).
/// Every Table I setting sits at 2–5 (Setting I N = 560: 16 800 cells for
/// 8 387 entries), as does `many_workers_sized(2000)` at ≈ 6.7; the
/// large-sparse shape sits at ≈ 10 (N = 26, K = 500–10 000 with bundles
/// of 2–3), where a pass over the unsaturated tasks costs more than the
/// lazy work it would replace.
const DENSE_MAX_FILL: usize = 8;

/// Dense-scan cells one lazily re-evaluated row entry counts for in the
/// dense-finish cost test: a re-evaluation reads its row's residuals at
/// random and sifts the heap, a dense cell is one vector min-and-add. On
/// 2 vCPUs (median of four interleaved rounds; 2 / 4 / 8 / 16 / 32):
/// the `miss` shape (Setting I N = 560, 64 instances) built in 2.22 /
/// 1.70 / 1.60 / 1.50 / 1.52 ms, Setting II K = 50 in 0.47 / 0.45 / 0.52
/// / 0.61 / 0.68 ms and Setting IV K = 300 in 34 / 33 / 38 / 41 / 43 ms.
/// 8 keeps the `miss` shape within noise of the fastest weight and
/// Setting II below the parent engine's ≈ 0.6 ms.
const LAZY_ENTRY_COST: usize = 8;

/// Candidates per register block of the dense scan: sixteen accumulators
/// stay in eight SSE2 registers while the scan streams one task column
/// after another. On the `miss` shape blocks of 16 spent ≈ 20 % less time
/// in dense steps than blocks of 8 or 32, and ≈ 25 % less than an
/// unblocked pass over the prefix per task.
const DENSE_BLOCK: usize = 16;

/// The dense task-major copy of the candidates' coverage rows, made on
/// the first dense finish that needs it.
enum DenseRows {
    /// Not needed yet.
    Unbuilt,
    /// `q[j * n + ci]` is candidate `ci`'s coverage of task `j` (zero
    /// outside its bundle), `n` the number of candidates.
    Built(Vec<f64>),
    /// The matrix would break the [`DENSE_MAX_FILL`] memory bound, or a
    /// row lists a task twice (no single cell could hold both terms).
    Refused,
}

/// The lazy greedy behind every marginal-coverage selection outside the
/// indexed engine (Algorithm 1, lines 8–13): [`celf_sequence`], the
/// incremental price sweep, and through them the online pricer and the
/// stage-sampling learner.
///
/// Candidates are a price-ordered slice (ties by worker id) — the order
/// that breaks exact gain ties — and every selection runs over a prefix
/// of it. Each step picks the candidate of largest fresh marginal
/// coverage, ties to the smaller candidate index, dust (`≤ COVER_EPS`)
/// never picked: the exact sequence of the eager rescan
/// ([`select_marginal_eager`]). Two ways of finding that argmax share the
/// residual state:
///
/// * **Lazy (CELF).** A max-heap holds every live candidate's last
///   computed gain, stamped with the step it was computed at. Residuals
///   only shrink, so a gain never rises and every entry bounds its
///   candidate's current gain from above; an entry stamped with the
///   current step is exact, and an exact entry on top of the heap is the
///   argmax. A stale top is re-evaluated and re-stamped in place.
/// * **Dense finish.** Once a step's lazy re-evaluations have cost more
///   than one pass over the unsaturated tasks (re-evaluations × mean row
///   length × [`LAZY_ENTRY_COST`] against unsaturated tasks × prefix),
///   the selection computes every candidate's gain in one task-major
///   scan per step until it closes. The scan adds, per candidate, the
///   same terms in the same ascending task order as [`marginal_gain`];
///   the terms it adds for tasks outside a bundle and skips for
///   saturated tasks are exact `+0.0`, so every gain keeps its bits.
///
/// Between intervals of the price sweep, [`Greedy::advance`] replays the
/// incumbent sequence against the newcomers and, on divergence, resumes
/// at the diverging step instead of restarting.
struct Greedy<'a> {
    cover: &'a SparseCoverage,
    candidates: &'a [WorkerId],
    /// Each candidate's gain against the full requirements: exact at step
    /// 0 and a valid bound at every later step.
    init: &'a [f64],
    requirements: &'a [f64],
    /// `requirements.iter().sum()`, the starting outstanding coverage.
    total: f64,
    /// Stored coverage entries over all candidates.
    nnz: usize,
    /// Candidate-prefix length the current sequence was selected over.
    prefix: usize,
    /// Winners in selection order, as candidate indices.
    sequence: Vec<u32>,
    /// `gains[t]`: the marginal coverage `sequence[t]` was selected with.
    gains: Vec<f64>,
    /// `used[ci]`: candidate `ci` is in `sequence`.
    used: Vec<bool>,
    /// The residual requirement vector after the last accepted winner.
    residual: Vec<f64>,
    /// `total` minus everything the accepted winners took.
    remaining: f64,
    /// Tasks whose residual is still positive.
    unsat: usize,
    /// The replay's residual, walked forward from the requirements.
    walk: Vec<f64>,
    heap: std::collections::BinaryHeap<LazyGain>,
    dense: DenseRows,
}

impl<'a> Greedy<'a> {
    /// A selection state over `candidates` with no winner yet. `init`
    /// must hold each candidate's [`marginal_gain`] against
    /// `requirements`.
    fn new(
        cover: &'a SparseCoverage,
        candidates: &'a [WorkerId],
        init: &'a [f64],
        requirements: &'a [f64],
    ) -> Self {
        debug_assert_eq!(candidates.len(), init.len());
        Greedy {
            cover,
            candidates,
            init,
            requirements,
            total: requirements.iter().sum(),
            nnz: candidates.iter().map(|w| cover.row_len(w.index())).sum(),
            prefix: 0,
            sequence: Vec::new(),
            gains: Vec::new(),
            used: vec![false; candidates.len()],
            residual: requirements.to_vec(),
            remaining: 0.0,
            unsat: 0,
            walk: Vec::new(),
            heap: std::collections::BinaryHeap::new(),
            dense: DenseRows::Unbuilt,
        }
    }

    /// Winners in selection order.
    fn sequence(&self) -> Vec<WorkerId> {
        self.sequence
            .iter()
            .map(|&ci| self.candidates[ci as usize])
            .collect()
    }

    /// Winners sorted by worker id.
    fn winners_sorted(&self) -> Vec<WorkerId> {
        let mut winners = self.sequence();
        winners.sort_unstable();
        winners
    }

    /// Appends candidate `ci`, selected with marginal coverage `gain`, and
    /// applies it to the residual: [`apply_winner`]'s updates in its
    /// order, counting the tasks it saturates.
    fn accept(&mut self, ci: u32, gain: f64) {
        self.sequence.push(ci);
        self.gains.push(gain);
        self.used[ci as usize] = true;
        let w = self.candidates[ci as usize];
        for (j, q) in self.cover.row(w.index()) {
            let r = self.residual[j];
            let take = q.min(r.max(0.0));
            self.residual[j] = r - take;
            self.remaining -= take;
            self.unsat -= usize::from((r > 0.0) & (r - take <= 0.0));
        }
    }

    /// Drops the winners from step `t` on.
    fn truncate(&mut self, t: usize) {
        for &ci in &self.sequence[t..] {
            self.used[ci as usize] = false;
        }
        self.sequence.truncate(t);
        self.gains.truncate(t);
    }

    /// Selects over `candidates[..prefix]` from scratch.
    fn select_from_scratch(
        &mut self,
        prefix: usize,
        stats: &mut BuildStats,
    ) -> Result<(), McsError> {
        self.prefix = prefix;
        self.truncate(0);
        self.residual.copy_from_slice(self.requirements);
        self.remaining = self.total;
        self.unsat = self.residual.iter().filter(|&&r| r > 0.0).count();
        self.seed_heap(prefix, &[], None);
        self.select(stats)
    }

    /// Fills the heap for a selection resuming at the current step over
    /// `candidates[..self.prefix]`: every unused candidate under its
    /// initial gain (stamp 0), except the candidates from `from` on,
    /// which take their bounds from `fresh` (`(gain, stamp)` by offset),
    /// and `exact`, a `(ci, gain)` known exact at the current step.
    fn seed_heap(&mut self, from: usize, fresh: &[(f64, u32)], exact: Option<(u32, f64)>) {
        let step = self.sequence.len() as u32;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        for ci in 0..self.prefix {
            if self.used[ci] {
                continue;
            }
            let (gain, stamp) = match exact {
                Some((e, g)) if e as usize == ci => (g, step),
                _ if ci >= from => fresh[ci - from],
                _ => (self.init[ci], 0),
            };
            if gain > COVER_EPS {
                entries.push(LazyGain {
                    gain,
                    ci: ci as u32,
                    stamp,
                });
            }
        }
        self.heap = std::collections::BinaryHeap::from(entries);
    }

    /// Runs the greedy from the current step over
    /// `candidates[..self.prefix]` until the requirements close; the heap
    /// must bound every unused live candidate of the prefix.
    ///
    /// # Errors
    ///
    /// [`McsError::CoverageShortfall`] if the prefix cannot close them.
    fn select(&mut self, stats: &mut BuildStats) -> Result<(), McsError> {
        let dense_cells = self.prefix * self.candidates.len();
        let mut step = self.sequence.len() as u32;
        let mut evaluations = 0usize;
        while self.remaining > COVER_EPS {
            let Some(mut top) = self.heap.peek_mut() else {
                return Err(coverage_shortfall(&self.residual, self.requirements));
            };
            if top.stamp == step {
                // Exact and on top: every other entry bounds its
                // candidate's gain from above, and on equal gains the
                // order already put the earlier candidate first.
                let LazyGain { ci, gain, .. } = std::collections::binary_heap::PeekMut::pop(top);
                self.accept(ci, gain);
                step += 1;
                evaluations = 0;
                continue;
            }
            let fresh = marginal_gain(self.cover, self.candidates[top.ci as usize], &self.residual);
            if fresh <= COVER_EPS {
                // Gains never grow back: dust for the rest of the run.
                std::collections::binary_heap::PeekMut::pop(top);
            } else {
                top.gain = fresh;
                top.stamp = step;
                // Dropping the guard sifts the refreshed entry down.
                drop(top);
            }
            stats.reevaluations += 1;
            evaluations += 1;
            // This step's `evaluations × nnz / n` row entries against one
            // pass over the unsaturated tasks of the prefix.
            if evaluations * self.nnz * LAZY_ENTRY_COST > self.unsat * dense_cells
                && self.dense_rows()
            {
                return self.dense_finish(stats);
            }
        }
        Ok(())
    }

    /// Whether the dense task-major copy exists, making it if the
    /// [`DENSE_MAX_FILL`] bound allows.
    fn dense_rows(&mut self) -> bool {
        if let DenseRows::Unbuilt = self.dense {
            let n = self.candidates.len();
            let k = self.residual.len();
            self.dense = DenseRows::Refused;
            if n * k > DENSE_MAX_FILL * self.nnz {
                return false;
            }
            let mut q = vec![0.0f64; n * k];
            for (ci, &w) in self.candidates.iter().enumerate() {
                let mut last = None;
                for (j, qj) in self.cover.row(w.index()) {
                    if last.is_some_and(|l| l >= j) {
                        return false;
                    }
                    last = Some(j);
                    q[j * n + ci] = qj;
                }
            }
            self.dense = DenseRows::Built(q);
        }
        matches!(self.dense, DenseRows::Built(_))
    }

    /// Finishes the selection with one exact task-major scan per step.
    fn dense_finish(&mut self, stats: &mut BuildStats) -> Result<(), McsError> {
        let DenseRows::Built(q) = std::mem::replace(&mut self.dense, DenseRows::Unbuilt) else {
            unreachable!("dense_finish runs only once the rows are built");
        };
        self.heap.clear();
        let n = self.candidates.len();
        let prefix = self.prefix;
        let mut result = Ok(());
        let mut open: Vec<(usize, f64)> = Vec::new();
        while self.remaining > COVER_EPS {
            // A saturated task's term is an exact zero for everyone.
            open.clear();
            open.extend(
                self.residual
                    .iter()
                    .enumerate()
                    .filter(|&(_, &r)| r > 0.0)
                    .map(|(j, &r)| (j, r)),
            );
            let mut best: Option<(usize, f64)> = None;
            for c0 in (0..prefix).step_by(DENSE_BLOCK) {
                let width = DENSE_BLOCK.min(prefix - c0);
                let mut acc = [0.0f64; DENSE_BLOCK];
                for &(j, r) in &open {
                    // `qj.min(r)` for finite operands, in the form that
                    // compiles to one vector `min`.
                    if let Ok(column) = <&[f64; DENSE_BLOCK]>::try_from(&q[j * n + c0..][..width]) {
                        for (g, &qj) in acc.iter_mut().zip(column) {
                            *g += if qj < r { qj } else { r };
                        }
                    } else {
                        for (g, &qj) in acc.iter_mut().zip(&q[j * n + c0..][..width]) {
                            *g += if qj < r { qj } else { r };
                        }
                    }
                }
                for (b, &g) in acc[..width].iter().enumerate() {
                    // Strict `>`: ties stay on the earliest candidate.
                    if g > COVER_EPS && !self.used[c0 + b] && best.is_none_or(|(_, top)| g > top) {
                        best = Some((c0 + b, g));
                    }
                }
            }
            let Some((ci, gain)) = best else {
                result = Err(coverage_shortfall(&self.residual, self.requirements));
                break;
            };
            self.accept(ci as u32, gain);
            stats.dense_steps += 1;
        }
        self.dense = DenseRows::Built(q);
        result
    }

    /// Moves the selection to the longer prefix `candidates[..prefix]`;
    /// `true` when the winner sequence stands unchanged.
    ///
    /// The newcomers `candidates[self.prefix..prefix]` all sort after the
    /// incumbents, so they lose exact ties, and the incumbent `sequence[t]`
    /// was the argmax over the old prefix at the residual of step `t`. The
    /// sequence therefore stands over the new prefix unless some newcomer's
    /// gain at some step *strictly* exceeds `gains[t]`. The replay walks
    /// the sequence once, applying it to a fresh residual, and compares
    /// only the newcomers against the cached `gains[t]`: neither a
    /// newcomer's gain nor the selection gains ever rise, so a newcomer is
    /// evaluated at step `t` only while its last computed gain (initially
    /// its initial gain) is above `gains[t]`, and the walk stops once no
    /// newcomer's is above the last selection gain.
    ///
    /// At the first step `t` where a newcomer wins, the first `t` winners
    /// stand — every step before agreed — and the greedy resumes at `t`
    /// from the residual the walk holds, with the newcomers' replayed gains
    /// and the displaced incumbent's exact `gains[t]` in its heap.
    fn advance(&mut self, prefix: usize, stats: &mut BuildStats) -> Result<bool, McsError> {
        let from = self.prefix;
        debug_assert!(prefix > from);
        self.prefix = prefix;
        let Some(&floor) = self.gains.last() else {
            self.select_from_scratch(prefix, stats)?;
            return Ok(false);
        };
        let mut fresh: Vec<(f64, u32)> = self.init[from..prefix].iter().map(|&g| (g, 0)).collect();
        let mut live: Vec<usize> = (0..fresh.len()).filter(|&i| fresh[i].0 > floor).collect();
        if live.is_empty() {
            stats.confirmed += 1;
            return Ok(true);
        }
        self.walk.clear();
        self.walk.extend_from_slice(self.requirements);
        let mut remaining = self.total;
        let mut diverged = None;
        'walk: for t in 0..self.sequence.len() {
            let incumbent = self.gains[t];
            for &i in &live {
                if fresh[i].0 > incumbent {
                    let gain = marginal_gain(self.cover, self.candidates[from + i], &self.walk);
                    stats.replay_evaluations += 1;
                    fresh[i] = (gain, t as u32);
                    if gain > incumbent {
                        diverged = Some(t);
                        break 'walk;
                    }
                }
            }
            live.retain(|&i| fresh[i].0 > floor);
            if live.is_empty() {
                break;
            }
            // `apply_winner`'s updates, so the walked residual and total
            // keep the bits of the selection's own.
            let w = self.candidates[self.sequence[t] as usize];
            for (j, q) in self.cover.row(w.index()) {
                let take = q.min(self.walk[j].max(0.0));
                self.walk[j] -= take;
                remaining -= take;
            }
        }
        let Some(t) = diverged else {
            stats.confirmed += 1;
            return Ok(true);
        };
        stats.resumed += 1;
        stats.resume_steps += t as u64;
        let displaced = (self.sequence[t], self.gains[t]);
        self.truncate(t);
        std::mem::swap(&mut self.residual, &mut self.walk);
        self.remaining = remaining;
        self.unsat = self.residual.iter().filter(|&&r| r > 0.0).count();
        self.seed_heap(from, &fresh, Some(displaced));
        self.select(stats)?;
        Ok(false)
    }
}

/// Greedy winner selection among `candidates` (Algorithm 1, lines 8–13)
/// from precomputed initial gains, returning winners in *selection order*
/// (unsorted): the exact sequence of the eager rescan
/// ([`select_marginal_eager`]), tie-breaking included, found by the
/// [`Greedy`] lazy heap and dense finish.
///
/// `init[ci]` must be candidate `ci`'s [`marginal_gain`] against
/// `requirements`.
///
/// # Errors
///
/// [`McsError::CoverageShortfall`] if the candidates cannot satisfy the
/// requirements (callers normally establish feasibility first).
pub(crate) fn celf_sequence(
    candidates: &[WorkerId],
    cover: &SparseCoverage,
    init: &[f64],
    requirements: &[f64],
) -> Result<Vec<WorkerId>, McsError> {
    let mut greedy = Greedy::new(cover, candidates, init, requirements);
    greedy.select_from_scratch(candidates.len(), &mut BuildStats::default())?;
    Ok(greedy.sequence())
}

/// The reference marginal-coverage selector behind
/// [`reference_schedule`]: a full rescan of all candidates on every
/// selection round, sharing no heap or replay state with the engines it
/// pins.
fn select_marginal_eager(
    candidates: &[WorkerId],
    cover: &SparseCoverage,
    requirements: &[f64],
) -> Result<Vec<WorkerId>, McsError> {
    let mut residual = requirements.to_vec();
    let mut remaining: f64 = residual.iter().sum();
    let mut used = vec![false; candidates.len()];
    let mut winners = Vec::new();
    while remaining > COVER_EPS {
        let mut best: Option<(usize, f64)> = None;
        for (ci, &w) in candidates.iter().enumerate() {
            if used[ci] {
                continue;
            }
            let gain = marginal_gain(cover, w, &residual);
            if gain <= COVER_EPS {
                continue;
            }
            // Strict `>` keeps ties on the earliest candidate — i.e. the
            // cheapest bidder, then smallest worker id.
            if best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((ci, gain));
            }
        }
        let Some((ci, _)) = best else {
            return Err(coverage_shortfall(&residual, requirements));
        };
        used[ci] = true;
        let w = candidates[ci];
        winners.push(w);
        apply_winner(cover, w, &mut residual, &mut remaining);
    }
    winners.sort_unstable();
    Ok(winners)
}

/// The reference baseline selector behind [`reference_schedule`]:
/// descending static score `Σ_j q_ij`, ties by worker id, sorting each
/// candidate pool on its own. Uses the totals cached at CSR build time
/// instead of re-summing rows inside the sort comparator — `O(n log n)`
/// comparisons over precomputed floats rather than `O(n log n · K)` row
/// scans.
fn select_static(
    candidates: &[WorkerId],
    cover: &SparseCoverage,
    requirements: &[f64],
) -> Result<Vec<WorkerId>, McsError> {
    let mut order: Vec<WorkerId> = candidates.to_vec();
    order.sort_by(|&a, &b| {
        cover
            .total(b.index())
            .partial_cmp(&cover.total(a.index()))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut residual = requirements.to_vec();
    let mut remaining: f64 = residual.iter().sum();
    let mut winners = Vec::new();
    for w in order {
        if remaining <= COVER_EPS {
            break;
        }
        winners.push(w);
        apply_winner(cover, w, &mut residual, &mut remaining);
    }
    if remaining > COVER_EPS {
        return Err(coverage_shortfall(&residual, requirements));
    }
    winners.sort_unstable();
    Ok(winners)
}

/// The ascending incremental price sweep behind `Strategy::Incremental`:
/// marginal-coverage winner sets for a strictly increasing sequence of
/// candidate prefixes, carrying one [`Greedy`] selection across adjacent
/// intervals instead of selecting each one from scratch.
///
/// Every candidate's initial gain (prefix-independent — the residual
/// starts at the full requirements) is computed once. The first interval
/// selects from scratch; each later one replays the incumbent sequence
/// against its newcomers and reuses the winner set when it stands, or
/// resumes the greedy at the diverging step ([`Greedy::advance`]). In the
/// common case — higher prices admitting expensive workers greedy never
/// picks — an interval costs part of one walk over the winners' rows.
fn incremental_sweep(
    cover: &SparseCoverage,
    requirements: &[f64],
    sorted: &[WorkerId],
    prefixes: &[usize],
    stats: &mut BuildStats,
) -> Result<Vec<Vec<WorkerId>>, McsError> {
    let init: Vec<f64> = sorted
        .iter()
        .map(|&w| marginal_gain(cover, w, requirements))
        .collect();
    let mut greedy = Greedy::new(cover, sorted, &init, requirements);
    let mut out: Vec<Vec<WorkerId>> = Vec::with_capacity(prefixes.len());
    for &prefix in prefixes {
        let winners = match (greedy.advance(prefix, stats)?, out.last()) {
            (true, Some(previous)) => previous.clone(),
            _ => greedy.winners_sorted(),
        };
        out.push(winners);
    }
    Ok(out)
}

/// Interval-lane width of the lockstep sweep: the per-candidate winner
/// mask is one `u64`, and the per-candidate gain scratch lives on the
/// stack. Wider interval lists run in chunks of this many lanes.
const LOCKSTEP_LANES: usize = 64;

/// The candidate index behind `Strategy::Indexed`'s marginal-coverage
/// sweep (DESIGN.md §5f): all candidates ordered by descending initial
/// gain, with every per-candidate input (worker id, price rank, initial
/// gain, coverage row) copied into flat arrays in that order.
///
/// [`celf_sequence`] costs `O(prefix)` heap traffic *per interval* just to
/// discover that most of the prefix is already covered, and at
/// N = 10⁵–10⁶ workers essentially every interval diverges (a fresh batch
/// of i.i.d. newcomers beats some incumbent with probability approaching
/// one), so that churn dominates the whole sweep. [`RankedCelf::lockstep`]
/// instead runs every interval's greedy selection simultaneously over one
/// cursor walk of the rank order: a candidate is admitted once, evaluated
/// against all interval residuals in one coverage-row fetch, and dropped
/// on the spot from every lane where it evaluates to exact dust. Only
/// candidates still carrying coverage somewhere ever enter the shared
/// working heap, keyed by fresh gains rather than stale initial bounds.
struct RankedCelf {
    /// Worker id by rank position.
    widx: Vec<WorkerId>,
    /// Price-order candidate index by rank position; the prefix filter
    /// and the argmax tie-break both speak price order.
    ci: Vec<u32>,
    /// Initial gain (against the full requirements) by rank position,
    /// descending; ties ordered by ascending price rank.
    init: Vec<f64>,
    /// Coverage rows copied into rank order: `row_off[r]..row_off[r+1]`
    /// spans the `(row_task, row_q)` pairs of rank position `r`, in the
    /// original CSR entry order (gain sums and residual updates must
    /// accumulate in the exact order every other selector uses).
    row_off: Vec<u32>,
    row_task: Vec<u32>,
    row_q: Vec<f64>,
}

/// A working-heap entry for [`RankedCelf`]: a gain bound plus both
/// addresses of its candidate. Ordered exactly like [`LazyGain`] — by
/// gain, ties to the earlier *price-order* candidate — so acceptance
/// decisions match [`celf_sequence`] bit for bit.
#[derive(Debug, Clone, Copy)]
struct RankedGain {
    gain: f64,
    ci: u32,
    /// Rank position, resolving the candidate's row in the flat arrays.
    r: u32,
}

impl PartialEq for RankedGain {
    fn eq(&self, other: &Self) -> bool {
        self.ci == other.ci && self.gain.total_cmp(&other.gain).is_eq()
    }
}

impl Eq for RankedGain {}

impl PartialOrd for RankedGain {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankedGain {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.ci.cmp(&self.ci))
    }
}

/// Max-priority pool of bound entries, split at a moving gain threshold
/// `tau`: entries at or above it live in an exact binary heap, the far
/// larger remainder in an unordered parked vector. The frontier of
/// outstanding bounds only moves down over a lockstep run, so most
/// entries are pushed once below `tau` (a `Vec` append instead of an
/// `O(log n)` sift over a multi-megabyte heap) and are touched again only
/// if the frontier actually reaches them; the hot heap stays small enough
/// to be cache-resident.
///
/// The split is exact, not approximate: parked entries all have gains
/// strictly below every active entry's (pushes compare against the
/// current `tau`, which only decreases, and refills promote everything at
/// or above the new `tau`), so the active top is the true maximum under
/// the full [`RankedGain`] order whenever the pool is non-empty.
struct BoundPool {
    active: std::collections::BinaryHeap<RankedGain>,
    parked: Vec<RankedGain>,
    tau: f64,
}

impl BoundPool {
    fn new() -> Self {
        Self {
            active: std::collections::BinaryHeap::new(),
            parked: Vec::new(),
            tau: f64::INFINITY,
        }
    }

    #[inline]
    fn push(&mut self, e: RankedGain) {
        if e.gain >= self.tau {
            self.active.push(e);
        } else {
            self.parked.push(e);
        }
    }

    /// Promotes parked entries once the active heap drains: the new
    /// threshold halves from the parked maximum (all keys are positive),
    /// so a run performs at most `log2(max_gain / COVER_EPS)` refills,
    /// each a single linear pass over the parked vector.
    fn refill(&mut self) {
        if !self.active.is_empty() || self.parked.is_empty() {
            return;
        }
        let m = self
            .parked
            .iter()
            .map(|e| e.gain)
            .fold(f64::NEG_INFINITY, f64::max);
        self.tau = m * 0.5;
        let mut promoted = Vec::new();
        let tau = self.tau;
        self.parked.retain(|e| {
            if e.gain >= tau {
                promoted.push(*e);
                false
            } else {
                true
            }
        });
        self.active = std::collections::BinaryHeap::from(promoted);
    }

    #[inline]
    fn peek(&mut self) -> Option<RankedGain> {
        self.refill();
        self.active.peek().copied()
    }

    #[inline]
    fn pop(&mut self) -> Option<RankedGain> {
        self.refill();
        self.active.pop()
    }
}

impl RankedCelf {
    /// Builds the rank order and the permuted flat arrays: one sort plus
    /// one pass over the coverage rows, paid once per schedule build and
    /// amortized across every price interval.
    fn new(cover: &SparseCoverage, sorted: &[WorkerId], init_by_ci: &[f64]) -> Self {
        // Sorting 4-byte indices moves a quarter of the bytes that
        // (gain, index) pairs would; at a million candidates the swap
        // traffic outweighs the indirect key reads. The order is total
        // (ties fall to the candidate index), so unstable sorting is
        // deterministic.
        let n = init_by_ci.len();
        let mut rank: Vec<u32> = (0..n as u32).collect();
        rank.sort_unstable_by(|&a, &b| {
            init_by_ci[b as usize]
                .total_cmp(&init_by_ci[a as usize])
                .then(a.cmp(&b))
        });
        let mut this = RankedCelf {
            widx: Vec::with_capacity(n),
            ci: Vec::with_capacity(n),
            init: Vec::with_capacity(n),
            row_off: Vec::with_capacity(n + 1),
            row_task: Vec::with_capacity(cover.nnz()),
            row_q: Vec::with_capacity(cover.nnz()),
        };
        this.row_off.push(0);
        for &ci in &rank {
            let w = sorted[ci as usize];
            this.widx.push(w);
            this.ci.push(ci);
            this.init.push(init_by_ci[ci as usize]);
            for (j, q) in cover.row(w.index()) {
                this.row_task.push(j as u32);
                this.row_q.push(q);
            }
            this.row_off.push(this.row_task.len() as u32);
        }
        this
    }

    /// Fresh marginal gains of rank position `r` against every interval
    /// lane in `lo..m` — per lane, the same terms in the same accumulation
    /// order as [`marginal_gain`], so each lane's sum is bit-identical to
    /// a standalone evaluation against that interval's residual. Tasks
    /// saturated to *exactly* zero in every lane (`rmax[j] == 0`, the
    /// common end state: the final `take` subtracts the whole slot) are
    /// skipped — their term is exactly `0.0` in every lane, so the sums
    /// keep their bits.
    #[inline]
    fn gains_lanes(
        &self,
        r: usize,
        lo: usize,
        m: usize,
        residual: &[f64],
        rmax: &[f64],
        gains: &mut [f64; LOCKSTEP_LANES],
    ) {
        gains[lo..m].fill(0.0);
        let (s, e) = (self.row_off[r] as usize, self.row_off[r + 1] as usize);
        for (&j, &q) in self.row_task[s..e].iter().zip(&self.row_q[s..e]) {
            let j = j as usize;
            if rmax[j] <= 0.0 {
                continue;
            }
            let lanes = &residual[j * m..j * m + m];
            for (g, &l) in gains[lo..m].iter_mut().zip(&lanes[lo..m]) {
                *g += q.min(l.max(0.0));
            }
        }
    }

    /// Upper-bounds rank position `r`'s gain in *every* lane at once using
    /// the per-task lane maxima: `q.min(rmax[j]) ≥ q.min(residual_i[j])`
    /// pointwise, so a bound at or below the dust threshold proves the
    /// candidate is exact dust in all lanes without touching the lane
    /// matrix.
    #[inline]
    fn gain_ceiling(&self, r: usize, rmax: &[f64]) -> f64 {
        let (s, e) = (self.row_off[r] as usize, self.row_off[r + 1] as usize);
        self.row_task[s..e]
            .iter()
            .zip(&self.row_q[s..e])
            .map(|(&j, &q)| q.min(rmax[j as usize]))
            .sum()
    }

    /// Applies rank position `r` as a winner in interval lane `i` — the
    /// same updates in the same order as [`apply_winner`].
    #[inline]
    fn apply_lane(&self, r: usize, i: usize, m: usize, residual: &mut [f64], remaining: &mut f64) {
        let (s, e) = (self.row_off[r] as usize, self.row_off[r + 1] as usize);
        for (&j, &q) in self.row_task[s..e].iter().zip(&self.row_q[s..e]) {
            let slot = &mut residual[j as usize * m + i];
            let take = q.min(slot.max(0.0));
            *slot -= take;
            *remaining -= take;
        }
    }

    /// Greedy selection over *every* prefix at once; returns one winner
    /// sequence per prefix, each in selection order (unsorted) and
    /// bit-identical to [`celf_sequence`] over that prefix. `prefixes`
    /// must be strictly ascending; when a prefix cannot cover, the error
    /// is the one the ascending per-prefix sweep would hit first (prefix
    /// feasibility is monotone, so that is the smallest uncovered prefix).
    ///
    /// Running the intervals in lockstep is what makes the indexed engine
    /// scale on the worker axis: the per-interval greedy runs share one
    /// pass over the rank order, so the heap traffic that a from-scratch
    /// selection pays per interval — `Θ(prefix)` pops just to rediscover
    /// that most of the pool is dust — is paid once for the whole sweep.
    /// Correctness needs no coordination between intervals: each one's
    /// residual lane evolves exactly as its standalone greedy run would,
    /// because both implement the same argmax rule (largest fresh gain,
    /// ties to the earlier price-order candidate, dust at `COVER_EPS`)
    /// and only the accepted sequence is observable.
    fn lockstep(
        &self,
        prefixes: &[usize],
        requirements: &[f64],
    ) -> Result<Vec<Vec<WorkerId>>, McsError> {
        // The per-candidate winner mask is one machine word; wider interval
        // lists run in 64-lane chunks (the chunks share nothing, so this
        // only splits the rank-order pass).
        let mut out = Vec::with_capacity(prefixes.len());
        for chunk in prefixes.chunks(LOCKSTEP_LANES) {
            out.append(&mut self.lockstep_chunk(chunk, requirements)?);
        }
        Ok(out)
    }

    fn lockstep_chunk(
        &self,
        prefixes: &[usize],
        requirements: &[f64],
    ) -> Result<Vec<Vec<WorkerId>>, McsError> {
        let m = prefixes.len();
        debug_assert!(!prefixes.is_empty() && m <= LOCKSTEP_LANES);
        debug_assert!(prefixes.windows(2).all(|w| w[0] < w[1]));
        let n = self.widx.len();
        let k = requirements.len();
        let last = prefixes[m - 1] as u32;
        // Task-major residual lanes: `residual[j * m + i]` is task `j`'s
        // outstanding requirement in interval `i`, so one coverage-row
        // fetch evaluates (or applies) a candidate against adjacent lanes.
        let mut residual = vec![0.0f64; k * m];
        for j in 0..k {
            residual[j * m..(j + 1) * m].fill(requirements[j]);
        }
        let total: f64 = requirements.iter().sum();
        let mut remaining = vec![total; m];
        let mut sequences: Vec<Vec<WorkerId>> = vec![Vec::new(); m];
        // Per-interval incumbent argmax: an *exact* gain against that
        // interval's current residual. The residual only changes when the
        // interval accepts, which clears the slot, so a held best never
        // goes stale.
        let mut best: Vec<Option<RankedGain>> = vec![None; m];
        let mut done = vec![false; m];
        let mut live = m;
        for i in 0..m {
            if remaining[i] <= COVER_EPS {
                done[i] = true;
                live -= 1;
            }
        }
        // Bit `i` set: the rank-`r` candidate already won interval `i`
        // (a candidate can win several intervals; each pays it its own
        // evaluation).
        let mut selected = vec![0u64; n];
        // Evaluated-and-still-live candidates. An entry's key is the max
        // of the candidate's last fresh gains over the intervals where it
        // is neither winner nor incumbent best — gains never grow, so the
        // key upper-bounds the candidate in every interval it must still
        // compete in. Each candidate has at most one *authoritative* entry
        // (key recorded in `live_bound`); re-pushes strand the older entry
        // in the pool, and a popped key that disagrees with `live_bound`
        // identifies such a stray, dropped without re-evaluation — its
        // lanes are covered by the newer entry, whose key was taken as a
        // max over at least the same lanes.
        let mut aux = BoundPool::new();
        let mut live_bound = vec![f64::NEG_INFINITY; n];
        // A (lazily stale-high) upper bound on the largest live incumbent,
        // by the same order: raised at every promotion, recomputed exactly
        // whenever the incumbents are scanned. Lets the hot loop skip the
        // per-lane acceptance scan while no incumbent can possibly
        // dominate the outstanding bound.
        let mut cap: Option<RankedGain> = None;
        // Per-task residual maximum across lanes, clamped at zero. It only
        // shrinks (acceptances refresh the touched tasks), so the ceiling
        // it yields in [`gain_ceiling`] stays a valid all-lane upper bound
        // for the rest of the run; most pops late in the sweep bound out
        // as dust here at `O(row)` cost instead of `O(row × lanes)`.
        let mut rmax: Vec<f64> = requirements.iter().map(|&q| q.max(0.0)).collect();
        let mut cursor = 0usize;
        let mut gains = [0.0f64; LOCKSTEP_LANES];
        while live > 0 {
            while cursor < n && self.ci[cursor] >= last {
                cursor += 1;
            }
            let head = if cursor < n && self.init[cursor] > COVER_EPS {
                Some(RankedGain {
                    gain: self.init[cursor],
                    ci: self.ci[cursor],
                    r: cursor as u32,
                })
            } else {
                // Descending rank order: once the head is dust the whole
                // unadmitted tail is — same filter as `celf_sequence`.
                cursor = n;
                None
            };
            // The largest outstanding bound across *all* intervals: the
            // working pool's top vs the rank head (initial gains; later
            // rank entries are smaller still).
            let bound = match (aux.peek(), head) {
                (Some(a), Some(h)) => Some(if a > h { (a, true) } else { (h, false) }),
                (Some(a), None) => Some((a, true)),
                (None, Some(h)) => Some((h, false)),
                (None, None) => None,
            };
            // Accept every incumbent that dominates the global bound. The
            // global bound over-approximates each interval's own (it may
            // be carried by another interval's gain), so acceptance can
            // only be delayed, never wrong; `RankedGain`'s order ties to
            // the earlier price-order candidate, matching the eager
            // argmax.
            let scan = match (cap, bound) {
                (Some(c), Some((t, _))) => c >= t,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if scan {
                let mut accepted = false;
                let mut rest: Option<RankedGain> = None;
                for i in 0..m {
                    if done[i] {
                        continue;
                    }
                    let Some(b) = best[i] else { continue };
                    let dominates = match bound {
                        Some((t, _)) => b >= t,
                        None => true,
                    };
                    if !dominates {
                        rest = Some(match rest {
                            Some(c) if c >= b => c,
                            _ => b,
                        });
                        continue;
                    }
                    best[i] = None;
                    let r = b.r as usize;
                    selected[r] |= 1u64 << i;
                    sequences[i].push(self.widx[r]);
                    self.apply_lane(r, i, m, &mut residual, &mut remaining[i]);
                    let (s, e) = (self.row_off[r] as usize, self.row_off[r + 1] as usize);
                    for &j in &self.row_task[s..e] {
                        let j = j as usize;
                        rmax[j] = residual[j * m..j * m + m]
                            .iter()
                            .fold(0.0f64, |a, &b| a.max(b));
                    }
                    if remaining[i] <= COVER_EPS {
                        done[i] = true;
                        live -= 1;
                    }
                    accepted = true;
                }
                cap = rest;
                if accepted {
                    continue;
                }
            }
            let Some((t, from_aux)) = bound else {
                // Pool exhausted with uncovered intervals and no incumbent
                // left: report the smallest uncovered prefix, whose lane
                // is bit-identical to its standalone run's residual.
                let i = (0..m).find(|&i| !done[i]).expect("live > 0");
                let lane: Vec<f64> = (0..k).map(|j| residual[j * m + i]).collect();
                return Err(coverage_shortfall(&lane, requirements));
            };
            let r = t.r as usize;
            if from_aux {
                aux.pop();
                if t.gain != live_bound[r] {
                    // A stray superseded by a newer entry for the same
                    // candidate; that entry's key bounds every lane this
                    // one did.
                    continue;
                }
                live_bound[r] = f64::NEG_INFINITY;
            } else {
                cursor += 1;
            }
            if self.gain_ceiling(r, &rmax) <= COVER_EPS {
                // Exact dust in every lane at once: each lane's gain is
                // pointwise below the ceiling, so the full evaluation
                // would `continue` everywhere without a push. Incumbent
                // slots the candidate still holds keep their exact gains.
                continue;
            }
            // The candidate competes exactly in the intervals whose prefix
            // extends past its price rank.
            let lo = prefixes.partition_point(|&p| p <= t.ci as usize);
            self.gains_lanes(r, lo, m, &residual, &rmax, &mut gains);
            let mut back = f64::NEG_INFINITY;
            for i in lo..m {
                if done[i] || selected[r] & (1u64 << i) != 0 {
                    continue;
                }
                if let Some(b) = best[i] {
                    if b.r == t.r {
                        // Already this interval's incumbent; its cached
                        // gain is still exact.
                        continue;
                    }
                }
                let g = gains[i];
                if g <= COVER_EPS {
                    // Exact dust in this interval — saturated tasks yield
                    // exactly zero and gains never grow, so the candidate
                    // is gone from this lane for good.
                    continue;
                }
                let cand = RankedGain {
                    gain: g,
                    ci: t.ci,
                    r: t.r,
                };
                match best[i] {
                    Some(b) if b > cand => back = back.max(g),
                    prev => {
                        // New incumbent. A displaced best re-enters the
                        // pool under its own (exact, hence valid) bound —
                        // unless its authoritative entry already covers
                        // this lane with a key at least as large.
                        if let Some(b) = prev {
                            let br = b.r as usize;
                            if b.gain > live_bound[br] {
                                live_bound[br] = b.gain;
                                aux.push(b);
                            }
                        }
                        best[i] = Some(cand);
                        cap = Some(match cap {
                            Some(c) if c >= cand => c,
                            _ => cand,
                        });
                    }
                }
            }
            if back > COVER_EPS {
                live_bound[r] = back;
                aux.push(RankedGain {
                    gain: back,
                    ci: t.ci,
                    r: t.r,
                });
            }
        }
        Ok(sequences)
    }
}

/// The marginal-coverage sweep behind `Strategy::Indexed`: one global
/// preprocessing pass over the candidates, then per-interval work that is
/// nearly independent of the prefix length. The [`RankedCelf`] index runs
/// all intervals' greedy selections in lockstep over a single walk of the
/// global gain-rank order, so the `Θ(prefix)` candidate churn is paid
/// once per sweep instead of once per interval.
fn indexed_sweep(
    cover: &SparseCoverage,
    requirements: &[f64],
    sorted: &[WorkerId],
    prefixes: &[usize],
) -> Result<Vec<Vec<WorkerId>>, McsError> {
    let init: Vec<f64> = sorted
        .iter()
        .map(|&w| marginal_gain(cover, w, requirements))
        .collect();
    let celf = RankedCelf::new(cover, sorted, &init);
    let mut out = celf.lockstep(prefixes, requirements)?;
    for winners in &mut out {
        winners.sort_unstable();
    }
    Ok(out)
}

/// The [`SelectionRule::StaticTotal`] sweep every strategy takes: the
/// candidates are sorted by the static-total comparator *once*, and each
/// prefix's candidate order is that global order filtered to prefix
/// members — no per-interval `O(prefix log prefix)` sort.
fn static_sweep(
    cover: &SparseCoverage,
    requirements: &[f64],
    sorted: &[WorkerId],
    prefixes: &[usize],
) -> Result<Vec<Vec<WorkerId>>, McsError> {
    let mut static_order: Vec<WorkerId> = sorted.to_vec();
    // The exact `select_static` comparator, so the filtered order equals
    // each prefix's own sort (the comparator is a total order: ties fall
    // to worker id).
    static_order.sort_by(|&a, &b| {
        cover
            .total(b.index())
            .partial_cmp(&cover.total(a.index()))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut price_rank = vec![usize::MAX; cover.num_workers()];
    for (i, &w) in sorted.iter().enumerate() {
        price_rank[w.index()] = i;
    }
    prefixes
        .iter()
        .map(|&prefix| {
            let mut residual = requirements.to_vec();
            let mut remaining: f64 = residual.iter().sum();
            let mut winners = Vec::new();
            for &w in &static_order {
                if remaining <= COVER_EPS {
                    break;
                }
                if price_rank[w.index()] >= prefix {
                    continue;
                }
                winners.push(w);
                apply_winner(cover, w, &mut residual, &mut remaining);
            }
            if remaining > COVER_EPS {
                return Err(coverage_shortfall(&residual, requirements));
            }
            winners.sort_unstable();
            Ok(winners)
        })
        .collect()
}

/// The full-instance entry point behind [`crate::ScheduleEngine::build`]:
/// one CSR materialization straight from the bundles — `O(nnz + K)` —
/// serves feasibility, the covering-prefix walk, and every selector.
pub(crate) fn build_dispatch(
    instance: &Instance,
    rule: SelectionRule,
    strategy: Strategy,
    stats: &mut BuildStats,
) -> Result<PriceSchedule, McsError> {
    let cover = instance.sparse_coverage();
    cover.check_feasible()?;
    let requirements = cover.requirements().to_vec();
    let all = workers_by_price(instance);
    schedule_over(instance, rule, strategy, &cover, &requirements, &all, stats)
}

/// The residual entry point behind [`crate::ScheduleEngine::build_residual`]:
/// validates the inputs, establishes pool feasibility, and runs the
/// interval walk over the eligible workers only.
pub(crate) fn build_residual_dispatch(
    instance: &Instance,
    rule: SelectionRule,
    strategy: Strategy,
    requirements: &[f64],
    eligible: &[WorkerId],
) -> Result<PriceSchedule, McsError> {
    if requirements.len() != instance.num_tasks() {
        return Err(McsError::DimensionMismatch {
            what: "residual requirement vector",
            expected: instance.num_tasks(),
            actual: requirements.len(),
        });
    }
    for &w in eligible {
        if w.index() >= instance.num_workers() {
            return Err(McsError::WorkerOutOfRange {
                worker: w,
                num_workers: instance.num_workers(),
            });
        }
    }
    let cover = instance.sparse_coverage();
    // One pass over the eligible rows instead of K per-task column scans;
    // per-task addition order matches the old dense sums, so shortfall
    // payloads stay bit-identical.
    let mut attainable = vec![0.0f64; instance.num_tasks()];
    for &w in eligible {
        for (j, q) in cover.row(w.index()) {
            attainable[j] += q;
        }
    }
    for (j, &need) in requirements.iter().enumerate() {
        if need <= COVER_EPS {
            continue;
        }
        if attainable[j] < need - COVER_EPS {
            return Err(McsError::CoverageShortfall {
                task: TaskId(j as u32),
                required: need,
                achieved: attainable[j],
            });
        }
    }
    let mut sorted = eligible.to_vec();
    sorted.sort_by_key(|&w| (instance.bids().bid(w).price(), w));
    sorted.dedup();
    schedule_over(
        instance,
        rule,
        strategy,
        &cover,
        requirements,
        &sorted,
        &mut BuildStats::default(),
    )
}

/// The shared schedule engine: Algorithm 1 over an arbitrary (possibly
/// residual) requirement vector and a price-sorted candidate pool, against
/// a prebuilt CSR covering problem. [`Strategy::Auto`] resolves here, on
/// the size of that pool. Equal winner sets of consecutive intervals are
/// stored once.
fn schedule_over(
    instance: &Instance,
    rule: SelectionRule,
    strategy: Strategy,
    cover: &SparseCoverage,
    raw_requirements: &[f64],
    sorted: &[WorkerId],
    stats: &mut BuildStats,
) -> Result<PriceSchedule, McsError> {
    let n = sorted.len();
    let k = cover.num_tasks();
    let requirements: Vec<f64> = raw_requirements.iter().map(|r| r.max(0.0)).collect();
    let grid = instance.price_grid();

    // Nothing left to cover: every grid price is trivially feasible with
    // an empty winner set.
    if requirements.iter().sum::<f64>() <= COVER_EPS {
        let prices = grid.to_vec();
        let set_of = vec![0; prices.len()];
        return Ok(PriceSchedule {
            prices,
            set_of,
            sets: vec![Vec::new()],
        });
    }

    // Find the minimal covering prefix of the price-sorted workers.
    let mut running = vec![0.0f64; k];
    let mut deficit: f64 = requirements.iter().sum();
    let mut first_cover: Option<usize> = None;
    for (idx, &w) in sorted.iter().enumerate() {
        for (j, q) in cover.row(w.index()) {
            let need = (requirements[j] - running[j]).max(0.0);
            running[j] += q;
            deficit -= q.min(need);
        }
        if deficit <= COVER_EPS {
            first_cover = Some(idx);
            break;
        }
    }
    // Callers verify feasibility of the pool, so this is unreachable in
    // practice; it still degrades to a typed error rather than a panic.
    let Some(first_cover) = first_cover else {
        for j in 0..k {
            if running[j] < requirements[j] - COVER_EPS {
                return Err(McsError::CoverageShortfall {
                    task: TaskId(j as u32),
                    required: requirements[j],
                    achieved: running[j],
                });
            }
        }
        return Err(coverage_shortfall(&[], &[]));
    };
    let rho_star = instance.bids().bid(sorted[first_cover]).price();

    let feasible = grid
        .suffix_from(rho_star)
        .ok_or(McsError::NoFeasiblePrice {
            required_price: rho_star,
            grid_max: grid.max(),
        })?;
    let prices = feasible.to_vec();

    // Walk the bidding-price intervals [ρ_i, ρ_{i+1}) and record which
    // grid prices each interval owns. Prefixes only grow with price, which
    // is what lets both engines share selection state across intervals.
    struct Interval {
        /// First grid-price index owned by this interval.
        start: usize,
        /// One past the last grid-price index owned.
        end: usize,
        /// Candidate prefix length: `sorted[..prefix]` is eligible.
        prefix: usize,
    }
    let mut intervals: Vec<Interval> = Vec::new();
    let mut grid_idx = 0usize;
    for i in first_cover..n {
        let upper = if i + 1 < n {
            Some(instance.bids().bid(sorted[i + 1]).price())
        } else {
            None
        };
        // Grid prices in this interval.
        let start = grid_idx;
        while grid_idx < prices.len() && upper.is_none_or(|u| prices[grid_idx] < u) {
            grid_idx += 1;
        }
        if grid_idx == start {
            continue; // no grid price falls in this interval
        }
        intervals.push(Interval {
            start,
            end: grid_idx,
            prefix: i + 1,
        });
        if grid_idx == prices.len() {
            break;
        }
    }

    let prefixes: Vec<usize> = intervals.iter().map(|iv| iv.prefix).collect();
    stats.intervals = prefixes.len() as u64;
    let winner_sets = match (rule, strategy.resolve(n)) {
        (SelectionRule::StaticTotal, _) => static_sweep(cover, &requirements, sorted, &prefixes)?,
        (SelectionRule::MarginalCoverage, Strategy::Indexed) => {
            indexed_sweep(cover, &requirements, sorted, &prefixes)?
        }
        (SelectionRule::MarginalCoverage, _) => {
            incremental_sweep(cover, &requirements, sorted, &prefixes, stats)?
        }
    };

    // Every change of winner set admits a newcomer the earlier intervals
    // could not pick, so a run of equal consecutive sets is one distinct
    // set.
    let mut set_of = vec![usize::MAX; prices.len()];
    let mut sets: Vec<Vec<WorkerId>> = Vec::new();
    for (iv, winners) in intervals.iter().zip(winner_sets) {
        if sets.last() != Some(&winners) {
            sets.push(winners);
        }
        for s in set_of.iter_mut().take(iv.end).skip(iv.start) {
            *s = sets.len() - 1;
        }
    }
    debug_assert!(
        set_of.iter().all(|&s| s != usize::MAX),
        "every feasible grid price must be assigned a winner set"
    );

    Ok(PriceSchedule {
        prices,
        set_of,
        sets,
    })
}

/// The naive per-grid-price reference schedule — the test oracle every
/// [`Strategy`] is pinned against.
///
/// Recomputes every grid price independently with the full-rescan
/// selectors, so its cost is `O(|P| · N² · K)`: use it on small instances
/// only. Deliberately shares *no* machinery with the engines beyond the
/// coverage row layout: it materializes the dense covering problem and
/// converts it, rather than trusting the direct CSR build. Its schedule
/// is observationally equal to [`crate::ScheduleEngine::build`]'s (same
/// prices, same winner set at each price), though identical winner sets
/// may be compressed differently.
///
/// # Errors
///
/// * [`McsError::Infeasible`] — even the full pool cannot satisfy some
///   task's error-bound constraint.
/// * [`McsError::NoFeasiblePrice`] — no grid price admits a covering
///   pool.
pub fn reference_schedule(
    instance: &Instance,
    rule: SelectionRule,
) -> Result<PriceSchedule, McsError> {
    let dense = instance.coverage_problem();
    dense.check_feasible()?;
    let cover = SparseCoverage::from_dense(&dense);
    let sorted = workers_by_price(instance);
    let requirements = dense.requirements().to_vec();

    let mut prices = Vec::new();
    let mut set_of = Vec::new();
    let mut sets: Vec<Vec<WorkerId>> = Vec::new();
    for p in instance.price_grid().iter() {
        let candidates: Vec<WorkerId> = sorted
            .iter()
            .copied()
            .take_while(|&w| instance.bids().bid(w).price() <= p)
            .collect();
        // Feasible at this price?
        let mut residual = requirements.clone();
        for &w in &candidates {
            for (j, q) in cover.row(w.index()) {
                residual[j] -= q;
            }
        }
        if residual.iter().any(|&r| r > COVER_EPS) {
            continue;
        }
        let winners = match rule {
            SelectionRule::MarginalCoverage => {
                select_marginal_eager(&candidates, &cover, &requirements)?
            }
            SelectionRule::StaticTotal => select_static(&candidates, &cover, &requirements)?,
        };
        let idx = sets.iter().position(|s| *s == winners).unwrap_or_else(|| {
            sets.push(winners);
            sets.len() - 1
        });
        prices.push(p);
        set_of.push(idx);
    }
    if prices.is_empty() {
        return Err(McsError::NoFeasiblePrice {
            required_price: instance.bids().max_price().unwrap_or(instance.cmax()),
            grid_max: instance.price_grid().max(),
        });
    }
    Ok(PriceSchedule {
        prices,
        set_of,
        sets,
    })
}

/// The exact output distribution of a differentially private auction: the
/// exponential-mechanism PMF over a schedule's feasible prices.
#[derive(Debug, Clone, PartialEq)]
pub struct PricePmf {
    schedule: PriceSchedule,
    probs: Vec<f64>,
}

impl PricePmf {
    /// Number of feasible prices (same as `schedule().len()`).
    #[inline]
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Returns `true` if the PMF has no support (never when built through
    /// [`crate::ScheduleEngine`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Pairs a schedule with already-normalized probabilities.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree or the probabilities do not sum to 1
    /// (within 1e-6).
    pub fn new(schedule: PriceSchedule, probs: Vec<f64>) -> Self {
        assert_eq!(schedule.len(), probs.len(), "pmf length mismatch");
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "pmf does not sum to 1 (got {total})"
        );
        PricePmf { schedule, probs }
    }

    /// The underlying schedule.
    #[inline]
    pub fn schedule(&self) -> &PriceSchedule {
        &self.schedule
    }

    /// Probabilities aligned with `schedule().prices()`.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Samples one auction outcome (price + its winner set).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> AuctionOutcome {
        // Inverse-transform over the exact PMF.
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut idx = self.probs.len() - 1;
        for (i, p) in self.probs.iter().enumerate() {
            acc += p;
            if u < acc {
                idx = i;
                break;
            }
        }
        self.schedule.outcome(idx)
    }

    /// The exact expected total payment `E[x · |S(x)|]` in currency units.
    pub fn expected_total_payment(&self) -> f64 {
        (0..self.schedule.len())
            .map(|i| self.probs[i] * self.schedule.total_payment(i).as_f64())
            .sum()
    }

    /// The exact standard deviation of the total payment.
    pub fn total_payment_std(&self) -> f64 {
        let mean = self.expected_total_payment();
        let var: f64 = (0..self.schedule.len())
            .map(|i| {
                let r = self.schedule.total_payment(i).as_f64();
                self.probs[i] * (r - mean) * (r - mean)
            })
            .sum();
        var.sqrt()
    }

    /// Samples a price index directly from logits (for tests comparing the
    /// exact PMF with Gumbel-style sampling paths).
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let logits: Vec<f64> = self.probs.iter().map(|p| p.ln()).collect();
        sample_logits(rng, &logits)
    }
}

/// Builds a PMF from per-price logits (used by the exponential mechanism).
pub(crate) fn pmf_from_logits(schedule: PriceSchedule, logits: &[f64]) -> PricePmf {
    let probs = softmax_from_logits(logits);
    PricePmf { schedule, probs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScheduleEngine;
    use mcs_types::{Bid, Bundle, SkillMatrix};

    /// Test shorthand for the unified engine.
    fn build(
        inst: &Instance,
        rule: SelectionRule,
        strategy: Strategy,
    ) -> Result<PriceSchedule, McsError> {
        ScheduleEngine::new(rule).strategy(strategy).build(inst)
    }

    /// CELF selection over one candidate pool from scratch, id-sorted —
    /// the per-interval selection both sweeps must reproduce.
    fn select_celf(
        candidates: &[WorkerId],
        cover: &SparseCoverage,
        requirements: &[f64],
    ) -> Result<Vec<WorkerId>, McsError> {
        let init: Vec<f64> = candidates
            .iter()
            .map(|&w| marginal_gain(cover, w, requirements))
            .collect();
        let mut winners = celf_sequence(candidates, cover, &init, requirements)?;
        winners.sort_unstable();
        Ok(winners)
    }

    /// Four workers / two tasks instance used across the tests.
    ///
    /// q values: θ 0.9 → 0.64, θ 0.8 → 0.36, θ 0.95 → 0.81.
    /// δ = 0.4 → Q_j ≈ 1.833.
    fn instance() -> Instance {
        let bids = vec![
            Bid::new(
                Bundle::new(vec![TaskId(0), TaskId(1)]),
                Price::from_f64(12.0),
            ),
            Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(11.0)),
            Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(14.0)),
            Bid::new(
                Bundle::new(vec![TaskId(0), TaskId(1)]),
                Price::from_f64(18.0),
            ),
        ];
        let skills = SkillMatrix::from_rows(vec![
            vec![0.9, 0.9],
            vec![0.9, 0.5],
            vec![0.5, 0.95],
            vec![0.9, 0.9],
        ])
        .unwrap();
        Instance::builder(2)
            .bids(bids)
            .skills(skills)
            .uniform_error_bound(0.4)
            .price_grid_f64(10.0, 20.0, 0.5)
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
            .build()
            .unwrap()
    }

    /// A CSR cover for selector-level tests that address workers 0..n by
    /// raw row index.
    fn cover_of(rows: Vec<Vec<(usize, f64)>>, req: &[f64]) -> SparseCoverage {
        SparseCoverage::from_rows(req.len(), rows, req.to_vec()).unwrap()
    }

    #[test]
    fn schedule_covers_all_feasible_prices() {
        let s = build(&instance(), SelectionRule::MarginalCoverage, Strategy::Auto).unwrap();
        // Coverage per task needs ≈1.833. Task 0: w1 (0.64) + w0 (0.64) +
        // w3 (0.64) = 1.92 → needs all three of workers {0,1,3}; task 1:
        // w0 (0.64) + w2 (0.81) + w3 (0.64) = 2.09. The cheapest covering
        // prefix must include worker 3 at price 18 → feasible from 18.
        assert_eq!(s.prices().first().copied(), Some(Price::from_f64(18.0)));
        assert_eq!(s.prices().last().copied(), Some(Price::from_f64(20.0)));
        // Every price maps to a winner set that satisfies the constraints.
        let cover = instance().coverage_problem();
        for i in 0..s.len() {
            assert!(cover.is_satisfied_by(s.winners(i).iter().copied()));
        }
    }

    #[test]
    fn winner_sets_monotone_price_needs_everyone_here() {
        let s = build(&instance(), SelectionRule::MarginalCoverage, Strategy::Auto).unwrap();
        // In this tight instance every covering set needs workers 0,1,2,3.
        for i in 0..s.len() {
            assert_eq!(
                s.winners(i),
                &[WorkerId(0), WorkerId(1), WorkerId(2), WorkerId(3)]
            );
        }
    }

    #[test]
    fn infeasible_pool_is_detected() {
        // One weak worker cannot reach Q ≈ 1.833.
        let inst = Instance::builder(1)
            .bids(vec![Bid::new(
                Bundle::new(vec![TaskId(0)]),
                Price::from_f64(10.0),
            )])
            .skills(SkillMatrix::from_rows(vec![vec![0.9]]).unwrap())
            .uniform_error_bound(0.4)
            .price_grid_f64(10.0, 20.0, 0.5)
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
            .build()
            .unwrap();
        assert!(matches!(
            build(&inst, SelectionRule::MarginalCoverage, Strategy::Auto),
            Err(McsError::Infeasible { .. })
        ));
    }

    #[test]
    fn grid_below_required_price_errors() {
        let bids = vec![
            Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(19.0)),
            Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(19.5)),
            Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(20.0)),
        ];
        let inst = Instance::builder(1)
            .bids(bids)
            .skills(SkillMatrix::from_rows(vec![vec![0.9]; 3]).unwrap())
            .uniform_error_bound(0.4)
            .price_grid_f64(10.0, 15.0, 0.5) // tops out below 20
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
            .build()
            .unwrap();
        assert!(matches!(
            build(&inst, SelectionRule::MarginalCoverage, Strategy::Auto),
            Err(McsError::NoFeasiblePrice { .. })
        ));
    }

    #[test]
    fn compressed_matches_naive_marginal() {
        let inst = instance();
        let fast = build(&inst, SelectionRule::MarginalCoverage, Strategy::Auto).unwrap();
        let naive = reference_schedule(&inst, SelectionRule::MarginalCoverage).unwrap();
        assert_eq!(fast.prices(), naive.prices());
        for i in 0..fast.len() {
            assert_eq!(fast.winners(i), naive.winners(i), "price {}", fast.price(i));
        }
    }

    #[test]
    fn compressed_matches_naive_static() {
        let inst = instance();
        let fast = build(&inst, SelectionRule::StaticTotal, Strategy::Auto).unwrap();
        let naive = reference_schedule(&inst, SelectionRule::StaticTotal).unwrap();
        assert_eq!(fast.prices(), naive.prices());
        for i in 0..fast.len() {
            assert_eq!(fast.winners(i), naive.winners(i));
        }
    }

    #[test]
    fn marginal_greedy_prefers_high_residual_gain() {
        // Three workers on one task, requirement 1.0:
        // w0 q=0.64, w1 q=0.49, w2 q=0.36 — greedy takes w0 then w1.
        let candidates = vec![WorkerId(0), WorkerId(1), WorkerId(2)];
        let req = [1.0];
        let cover = cover_of(
            vec![
                vec![(0usize, 0.64)],
                vec![(0usize, 0.49)],
                vec![(0usize, 0.36)],
            ],
            &req,
        );
        let winners = select_marginal_eager(&candidates, &cover, &req).unwrap();
        assert_eq!(winners, vec![WorkerId(0), WorkerId(1)]);
        assert_eq!(select_celf(&candidates, &cover, &req).unwrap(), winners);
    }

    #[test]
    fn marginal_greedy_uses_residual_not_static_totals() {
        // Two tasks. w0 covers task 0 fully (1.0). w1 has the biggest
        // static total but all of it on task 0 (1.5 — capped at the 1.0
        // requirement); w2 covers task 1 with 0.6. Marginal gains tie w0
        // and w1 at 1.0, the tie falls to the earlier candidate w0, and the
        // residual-aware rule then needs only w2: two winners. The static
        // rule starts with w1, whose surplus on task 0 is wasted, and ends
        // with all three.
        let candidates = vec![WorkerId(0), WorkerId(1), WorkerId(2)];
        let req = [1.0, 0.5];
        let cover = cover_of(
            vec![
                vec![(0usize, 1.0)],
                vec![(0usize, 1.5)],
                vec![(1usize, 0.6)],
            ],
            &req,
        );
        let marginal = select_marginal_eager(&candidates, &cover, &req).unwrap();
        assert_eq!(marginal, vec![WorkerId(0), WorkerId(2)]);
        assert_eq!(select_celf(&candidates, &cover, &req).unwrap(), marginal);
        let static_sel = select_static(&candidates, &cover, &req).unwrap();
        assert_eq!(static_sel, vec![WorkerId(0), WorkerId(1), WorkerId(2)]);
    }

    #[test]
    fn lazy_matches_eager_on_adversarial_tie_patterns() {
        // Exact ties (same q on the same task), staleness (gains that decay
        // at different rates), and exhausted candidates — the cases lazy
        // evaluation must get right to replicate the eager sequence.
        type Case = (Vec<Vec<(usize, f64)>>, Vec<f64>);
        let cases: Vec<Case> = vec![
            // All-tied single task.
            (vec![vec![(0, 0.5)]; 4], vec![1.2]),
            // Two tasks, one dominant generalist whose gain goes stale.
            (
                vec![
                    vec![(0, 0.9), (1, 0.9)],
                    vec![(0, 0.8)],
                    vec![(1, 0.8)],
                    vec![(0, 0.3), (1, 0.3)],
                ],
                vec![1.0, 1.0],
            ),
            // A candidate whose whole contribution evaporates mid-run.
            (
                vec![vec![(0, 1.0)], vec![(0, 0.4)], vec![(1, 0.7)]],
                vec![1.0, 0.5],
            ),
            // Mixed magnitudes with repeated values across tasks.
            (
                vec![
                    vec![(0, 0.25), (1, 0.25), (2, 0.25)],
                    vec![(0, 0.25), (2, 0.5)],
                    vec![(1, 0.75)],
                    vec![(2, 0.25)],
                    vec![(0, 0.5), (1, 0.25)],
                ],
                vec![0.75, 1.0, 0.75],
            ),
        ];
        for (rows, req) in cases {
            let candidates: Vec<WorkerId> = (0..rows.len()).map(|i| WorkerId(i as u32)).collect();
            let cover = cover_of(rows.clone(), &req);
            assert_eq!(
                select_celf(&candidates, &cover, &req),
                select_marginal_eager(&candidates, &cover, &req),
                "rows {rows:?} req {req:?}"
            );
        }
    }

    #[test]
    fn lazy_ties_fall_to_earliest_candidate() {
        // Candidate order is the tie-break, not worker id: feed candidates
        // in reverse-id order and check the first listed one wins the tie.
        let candidates = vec![WorkerId(2), WorkerId(0), WorkerId(1)];
        let req = [0.9];
        let cover = cover_of(
            vec![
                vec![(0usize, 0.5)],
                vec![(0usize, 0.5)],
                vec![(0usize, 0.5)],
            ],
            &req,
        );
        let lazy = select_celf(&candidates, &cover, &req).unwrap();
        let eager = select_marginal_eager(&candidates, &cover, &req).unwrap();
        assert_eq!(lazy, eager);
        // Two winners cover 0.9; the tie-break picks candidates[0] = w2
        // and candidates[1] = w0 (output is id-sorted).
        assert_eq!(lazy, vec![WorkerId(0), WorkerId(2)]);
    }

    #[test]
    fn exhausted_candidates_return_shortfall_not_panic() {
        // One weak worker against an uncoverable requirement: every
        // selector reports the typed shortfall.
        let candidates = vec![WorkerId(0)];
        let req = [1.0];
        let cover = cover_of(vec![vec![(0usize, 0.3)]], &req);
        for result in [
            select_celf(&candidates, &cover, &req),
            select_marginal_eager(&candidates, &cover, &req),
            select_static(&candidates, &cover, &req),
        ] {
            match result {
                Err(McsError::CoverageShortfall {
                    task,
                    required,
                    achieved,
                }) => {
                    assert_eq!(task, TaskId(0));
                    assert!((required - 1.0).abs() < 1e-12);
                    assert!(achieved <= 0.3 + 1e-12);
                }
                other => panic!("expected CoverageShortfall, got {other:?}"),
            }
        }
    }

    #[test]
    fn sweeps_match_per_interval_selection_across_prefixes() {
        // Prefix 3's newcomer is too weak to divert the incumbents (replay
        // confirms); prefix 4's newcomer strictly dominates every step and
        // forces the resumed re-selection. Every sweep must agree with
        // selecting each prefix from scratch.
        let req = vec![1.0, 0.2];
        let rows = vec![
            vec![(0usize, 0.6)],
            vec![(0usize, 0.6), (1usize, 0.2)],
            vec![(1usize, 0.5)],
            vec![(0usize, 1.0), (1usize, 1.0)],
        ];
        let cover = cover_of(rows, &req);
        let sorted: Vec<WorkerId> = (0..4u32).map(WorkerId).collect();
        let prefixes = [2usize, 3, 4];
        let mut stats = BuildStats::default();
        let incremental = incremental_sweep(&cover, &req, &sorted, &prefixes, &mut stats).unwrap();
        let indexed = indexed_sweep(&cover, &req, &sorted, &prefixes).unwrap();
        let static_total = static_sweep(&cover, &req, &sorted, &prefixes).unwrap();
        for (k, &p) in prefixes.iter().enumerate() {
            let scratch = select_celf(&sorted[..p], &cover, &req).unwrap();
            assert_eq!(incremental[k], scratch, "incremental prefix {p}");
            assert_eq!(indexed[k], scratch, "indexed prefix {p}");
            let scratch = select_static(&sorted[..p], &cover, &req).unwrap();
            assert_eq!(static_total[k], scratch, "static prefix {p}");
        }
        // The dominant newcomer at prefix 4 really does change the
        // marginal winner set, so the divergent path was exercised.
        assert_ne!(incremental[1], incremental[2]);
        assert_eq!(incremental[2], vec![WorkerId(3)]);
        // Prefix 3 confirmed; prefix 4 resumed at step 0.
        assert_eq!(
            (stats.confirmed, stats.resumed, stats.resume_steps),
            (1, 1, 0)
        );
    }

    #[test]
    fn every_strategy_agrees_on_the_reference_instance() {
        let inst = instance();
        for rule in [SelectionRule::MarginalCoverage, SelectionRule::StaticTotal] {
            let reference = reference_schedule(&inst, rule).unwrap();
            for strategy in Strategy::ALL {
                let s = build(&inst, rule, strategy).unwrap();
                // The naive reference rebuilds `set_of` from scratch, so
                // compare observationally rather than structurally.
                assert_eq!(s.prices(), reference.prices(), "{rule:?}/{strategy:?}");
                for i in 0..s.len() {
                    assert_eq!(
                        s.winners(i),
                        reference.winners(i),
                        "{rule:?}/{strategy:?}/{i}"
                    );
                }
            }
        }
    }

    #[test]
    fn residual_schedule_over_losers_matches_manual_requirements() {
        // Pretend workers 0 and 1 already delivered; the residual auction
        // over workers {2, 3} must cover what is left of each task.
        let inst = instance();
        let cover = inst.coverage_problem();
        let residual: Vec<f64> = (0..inst.num_tasks())
            .map(|j| {
                let t = TaskId(j as u32);
                cover.requirement(t) - cover.q(WorkerId(0), t) - cover.q(WorkerId(1), t)
            })
            .collect();
        let eligible = vec![WorkerId(2), WorkerId(3)];
        let s = ScheduleEngine::new(SelectionRule::MarginalCoverage)
            .build_residual(&inst, &residual, &eligible)
            .unwrap();
        assert!(!s.is_empty());
        for i in 0..s.len() {
            // Winners come only from the eligible pool and close the
            // residual requirements.
            let mut coverage = vec![0.0f64; inst.num_tasks()];
            for &w in s.winners(i) {
                assert!(eligible.contains(&w), "ineligible winner {w}");
                for (j, c) in coverage.iter_mut().enumerate() {
                    *c += cover.q(w, TaskId(j as u32));
                }
            }
            for (j, (&c, &need)) in coverage.iter().zip(&residual).enumerate() {
                assert!(c >= need.max(0.0) - 1e-9, "task {j}: {c} < {need}");
            }
        }
    }

    #[test]
    fn residual_schedule_with_satisfied_requirements_is_empty_sets() {
        let inst = instance();
        let residual = vec![0.0; inst.num_tasks()];
        let s = ScheduleEngine::new(SelectionRule::MarginalCoverage)
            .build_residual(&inst, &residual, &[WorkerId(0)])
            .unwrap();
        assert_eq!(s.len(), inst.price_grid().len());
        for i in 0..s.len() {
            assert!(s.winners(i).is_empty());
            assert_eq!(s.total_payment(i), Price::ZERO);
        }
    }

    #[test]
    fn residual_schedule_reports_shortfall_for_weak_pool() {
        let inst = instance();
        let cover = inst.coverage_problem();
        let residual: Vec<f64> = (0..inst.num_tasks())
            .map(|j| cover.requirement(TaskId(j as u32)))
            .collect();
        // Worker 1 alone (task 0 only, q = 0.64) cannot close full
        // requirements on both tasks.
        let err = ScheduleEngine::new(SelectionRule::MarginalCoverage)
            .build_residual(&inst, &residual, &[WorkerId(1)])
            .unwrap_err();
        assert!(matches!(err, McsError::CoverageShortfall { .. }));
    }

    #[test]
    fn residual_schedule_validates_inputs() {
        let inst = instance();
        let engine = ScheduleEngine::new(SelectionRule::MarginalCoverage);
        assert!(matches!(
            engine.build_residual(&inst, &[1.0], &[]),
            Err(McsError::DimensionMismatch { .. })
        ));
        let residual = vec![0.0; inst.num_tasks()];
        assert!(matches!(
            engine.build_residual(&inst, &residual, &[WorkerId(99)]),
            Err(McsError::WorkerOutOfRange { .. })
        ));
    }

    #[test]
    fn residual_strategies_agree_over_a_partial_pool() {
        let inst = instance();
        let cover = inst.coverage_problem();
        let residual: Vec<f64> = (0..inst.num_tasks())
            .map(|j| {
                let t = TaskId(j as u32);
                cover.requirement(t) - cover.q(WorkerId(0), t)
            })
            .collect();
        let eligible = vec![WorkerId(1), WorkerId(2), WorkerId(3)];
        for rule in [SelectionRule::MarginalCoverage, SelectionRule::StaticTotal] {
            let reference = ScheduleEngine::new(rule)
                .build_residual(&inst, &residual, &eligible)
                .unwrap();
            for strategy in Strategy::ALL {
                let s = ScheduleEngine::new(rule)
                    .strategy(strategy)
                    .build_residual(&inst, &residual, &eligible)
                    .unwrap();
                assert_eq!(s.prices(), reference.prices(), "{rule:?}/{strategy:?}");
                for i in 0..s.len() {
                    assert_eq!(
                        s.winners(i),
                        reference.winners(i),
                        "{rule:?}/{strategy:?}/{i}"
                    );
                }
            }
        }
    }

    #[test]
    fn equal_winner_sets_of_consecutive_intervals_are_stored_once() {
        // Three strong workers cover the task from price 11 on; three weak,
        // dearer ones open three more bidding-price intervals without
        // ever winning. Four intervals, one winner set.
        let strong = Bundle::new(vec![TaskId(0)]);
        let prices = [10.0, 10.5, 11.0, 12.0, 13.0, 14.0];
        let bids: Vec<Bid> = prices
            .iter()
            .map(|&p| Bid::new(strong.clone(), Price::from_f64(p)))
            .collect();
        let skills = SkillMatrix::from_rows(
            [0.95, 0.95, 0.95, 0.6, 0.6, 0.6]
                .iter()
                .map(|&theta| vec![theta])
                .collect(),
        )
        .unwrap();
        let inst = Instance::builder(1)
            .bids(bids)
            .skills(skills)
            .uniform_error_bound(0.4)
            .price_grid_f64(10.0, 20.0, 0.5)
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
            .build()
            .unwrap();
        let reference = reference_schedule(&inst, SelectionRule::MarginalCoverage).unwrap();
        assert_eq!(reference.num_distinct_sets(), 1);
        for strategy in Strategy::ALL {
            let s = build(&inst, SelectionRule::MarginalCoverage, strategy).unwrap();
            assert_eq!(s.num_distinct_sets(), 1, "{strategy:?}");
            for i in 0..s.len() {
                assert_eq!(s.winners(i), &[WorkerId(0), WorkerId(1), WorkerId(2)]);
            }
        }
    }

    #[test]
    fn min_total_payment_is_none_only_when_empty() {
        let inst = instance();
        let s = build(&inst, SelectionRule::MarginalCoverage, Strategy::Auto).unwrap();
        // Four winners at every price; the cheapest feasible price is 18.
        assert_eq!(s.min_total_payment(), Some(Price::from_f64(72.0)));
        let empty = PriceSchedule {
            prices: Vec::new(),
            set_of: Vec::new(),
            sets: Vec::new(),
        };
        assert_eq!(empty.min_total_payment(), None);
    }

    #[test]
    fn pmf_sums_to_one_and_samples_in_support() {
        let inst = instance();
        let s = build(&inst, SelectionRule::MarginalCoverage, Strategy::Auto).unwrap();
        let n = s.len();
        let logits: Vec<f64> = (0..n).map(|i| -(i as f64)).collect();
        let pmf = pmf_from_logits(s, &logits);
        assert!((pmf.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let mut r = mcs_num::rng::seeded(3);
        for _ in 0..100 {
            let o = pmf.sample(&mut r);
            assert!(pmf.schedule().prices().contains(&o.price()));
            assert!(!o.winners().is_empty());
        }
    }

    #[test]
    fn pmf_expected_payment_matches_hand_computation() {
        let inst = instance();
        let s = build(&inst, SelectionRule::MarginalCoverage, Strategy::Auto).unwrap();
        let n = s.len();
        let probs = vec![1.0 / n as f64; n];
        let payments: Vec<f64> = (0..n).map(|i| s.total_payment(i).as_f64()).collect();
        let pmf = PricePmf::new(s, probs);
        let expect: f64 = payments.iter().sum::<f64>() / n as f64;
        assert!((pmf.expected_total_payment() - expect).abs() < 1e-9);
        assert!(pmf.total_payment_std() > 0.0);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn pmf_rejects_unnormalized() {
        let inst = instance();
        let s = build(&inst, SelectionRule::MarginalCoverage, Strategy::Auto).unwrap();
        let n = s.len();
        let _ = PricePmf::new(s, vec![0.9 / n as f64; n]);
    }

    #[test]
    fn workers_sorted_by_price_then_id() {
        let inst = instance();
        let order = workers_by_price(&inst);
        assert_eq!(
            order,
            vec![WorkerId(1), WorkerId(0), WorkerId(2), WorkerId(3)]
        );
    }

    /// Per-case `(worker rows, requirements)` in `(task, quality)` form.
    type TieCase = (Vec<Vec<(usize, f64)>>, Vec<f64>);

    /// The adversarial selector cases: exact ties, staleness, evaporating
    /// contributions, repeated magnitudes.
    fn tie_pattern_cases() -> Vec<TieCase> {
        vec![
            (vec![vec![(0, 0.5)]; 4], vec![1.2]),
            (
                vec![
                    vec![(0, 0.9), (1, 0.9)],
                    vec![(0, 0.8)],
                    vec![(1, 0.8)],
                    vec![(0, 0.3), (1, 0.3)],
                ],
                vec![1.0, 1.0],
            ),
            (
                vec![vec![(0, 1.0)], vec![(0, 0.4)], vec![(1, 0.7)]],
                vec![1.0, 0.5],
            ),
            (
                vec![
                    vec![(0, 0.25), (1, 0.25), (2, 0.25)],
                    vec![(0, 0.25), (2, 0.5)],
                    vec![(1, 0.75)],
                    vec![(2, 0.25)],
                    vec![(0, 0.5), (1, 0.25)],
                ],
                vec![0.75, 1.0, 0.75],
            ),
        ]
    }

    #[test]
    fn lockstep_matches_celf_sequence_on_every_prefix() {
        for (rows, req) in tie_pattern_cases() {
            let sorted: Vec<WorkerId> = (0..rows.len()).map(|i| WorkerId(i as u32)).collect();
            let cover = cover_of(rows.clone(), &req);
            let init: Vec<f64> = sorted
                .iter()
                .map(|&w| marginal_gain(&cover, w, &req))
                .collect();
            let celf = RankedCelf::new(&cover, &sorted, &init);
            // Single-lane runs: selection *order* must match too, not
            // just the set.
            for prefix in 1..=sorted.len() {
                let ranked = celf
                    .lockstep(&[prefix], &req)
                    .map(|mut seqs| seqs.pop().expect("one prefix in, one sequence out"));
                let reference = celf_sequence(&sorted[..prefix], &cover, &init[..prefix], &req);
                assert_eq!(
                    ranked, reference,
                    "rows {rows:?} req {req:?} prefix {prefix}"
                );
            }
            // All prefixes in lockstep must agree with the per-prefix
            // reference as a whole, including which prefix errors first.
            let all: Vec<usize> = (1..=sorted.len()).collect();
            let expected: Result<Vec<Vec<WorkerId>>, McsError> = all
                .iter()
                .map(|&p| celf_sequence(&sorted[..p], &cover, &init[..p], &req))
                .collect();
            assert_eq!(
                celf.lockstep(&all, &req),
                expected,
                "rows {rows:?} req {req:?}"
            );
        }
    }

    #[test]
    fn dense_finish_matches_the_eager_rescan_on_tie_patterns() {
        // On pools this small one stale re-evaluation already costs more
        // than a dense pass, so these selections finish dense.
        let mut dense_steps = 0;
        for (rows, req) in tie_pattern_cases() {
            let candidates: Vec<WorkerId> = (0..rows.len()).map(|i| WorkerId(i as u32)).collect();
            let cover = cover_of(rows.clone(), &req);
            let init: Vec<f64> = candidates
                .iter()
                .map(|&w| marginal_gain(&cover, w, &req))
                .collect();
            let mut greedy = Greedy::new(&cover, &candidates, &init, &req);
            let mut stats = BuildStats::default();
            greedy
                .select_from_scratch(candidates.len(), &mut stats)
                .unwrap();
            assert_eq!(
                Ok(greedy.winners_sorted()),
                select_marginal_eager(&candidates, &cover, &req),
                "rows {rows:?} req {req:?}"
            );
            dense_steps += stats.dense_steps;
        }
        assert!(dense_steps > 0);
    }

    #[test]
    fn static_sweep_matches_per_prefix_sort_on_tie_patterns() {
        // Exact static-total ties are where filtering one global order
        // must still reproduce each prefix's own sort, worker id breaking
        // the tie — random skills almost never tie, so pin it here.
        for (rows, req) in tie_pattern_cases() {
            let sorted: Vec<WorkerId> = (0..rows.len()).map(|i| WorkerId(i as u32)).collect();
            let cover = cover_of(rows.clone(), &req);
            // One prefix per call: a multi-prefix sweep stops at the first
            // uncoverable prefix, which would hide every later one.
            for p in 1..=sorted.len() {
                assert_eq!(
                    static_sweep(&cover, &req, &sorted, &[p]),
                    select_static(&sorted[..p], &cover, &req).map(|w| vec![w]),
                    "rows {rows:?} req {req:?} prefix {p}"
                );
            }
        }
    }

    #[test]
    fn lockstep_chunks_past_the_lane_limit() {
        // 130 near-identical single-task workers, prefixes 61..=130: more
        // prefixes than the 64-lane winner mask holds, all feasible, with
        // exact gain ties everywhere — the chunk seam must not change any
        // sequence.
        let n = 130usize;
        let req = vec![1.0];
        let rows: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| vec![(0usize, 0.03 + 0.002 * (i % 5) as f64)])
            .collect();
        let cover = cover_of(rows, &req);
        let sorted: Vec<WorkerId> = (0..n as u32).map(WorkerId).collect();
        let init: Vec<f64> = sorted
            .iter()
            .map(|&w| marginal_gain(&cover, w, &req))
            .collect();
        let celf = RankedCelf::new(&cover, &sorted, &init);
        let all: Vec<usize> = (61..=n).collect();
        assert!(all.len() > LOCKSTEP_LANES);
        let expected: Result<Vec<Vec<WorkerId>>, McsError> = all
            .iter()
            .map(|&p| celf_sequence(&sorted[..p], &cover, &init[..p], &req))
            .collect();
        assert_eq!(celf.lockstep(&all, &req), expected);
    }
}
