//! The unified mechanism interface.
//!
//! Every auction in this crate — the DP-hSRC mechanism, the §VII-A
//! baseline, the non-private critical-payment comparator, and the
//! multi-minded XOR extension — is a function from an input profile to an
//! outcome, possibly consuming randomness. [`Mechanism`] captures exactly
//! that, so simulation experiments, bench binaries, and the platform loop
//! can drive *any* mechanism through one generic entry point instead of
//! duplicating per-type glue.
//!
//! The two differentially private single-price auctions additionally share
//! the Algorithm 1 pipeline — build a per-price winner schedule, score it
//! with the exponential mechanism, sample a price. [`ScheduledMechanism`]
//! exposes those intermediate products ([`PriceSchedule`], [`PricePmf`])
//! and derives [`Mechanism::run`] from them, so a new scheduled mechanism
//! only has to name its [`SelectionRule`] and privacy budget.

use rand::Rng;

use mcs_types::{Instance, McsError, WorkerId};

use crate::engine::ScheduleEngine;
use crate::exponential::ExponentialMechanism;
use crate::outcome::AuctionOutcome;
use crate::schedule::{PricePmf, PriceSchedule, SelectionRule};

/// An auction mechanism: a (possibly randomized) map from an input profile
/// to an outcome.
///
/// The input type is associated rather than fixed so single-minded
/// mechanisms (over [`Instance`]) and multi-minded ones (over
/// [`XorInstance`](crate::xor::XorInstance)) share one interface, and so
/// deterministic mechanisms (which ignore the RNG) still compose with
/// generic drivers.
pub trait Mechanism {
    /// The bid/skill profile the mechanism consumes.
    type Input;
    /// The outcome it produces.
    type Output;

    /// Runs the mechanism once on `input`.
    ///
    /// # Errors
    ///
    /// Mechanism-specific; typically [`McsError::Infeasible`] or
    /// [`McsError::NoFeasiblePrice`] when no covering outcome exists.
    fn run<R: Rng + ?Sized>(
        &self,
        input: &Self::Input,
        rng: &mut R,
    ) -> Result<Self::Output, McsError>;
}

/// A differentially private single-price auction following Algorithm 1:
/// greedy per-price winner schedule + exponential-mechanism price draw.
///
/// Implementors provide the selection rule and the privacy budget; the
/// schedule, the exact output PMF, and (via the blanket [`Mechanism`]
/// methods on the concrete types) the sampled run all follow.
pub trait ScheduledMechanism: Mechanism<Input = Instance, Output = AuctionOutcome> {
    /// The winner-selection rule that fills each price's winner set.
    fn selection_rule(&self) -> SelectionRule;

    /// The privacy budget ε scaling the exponential mechanism.
    fn epsilon(&self) -> f64;

    /// The winner schedule over all feasible candidate prices
    /// (Algorithm 1, lines 1–15).
    ///
    /// # Errors
    ///
    /// * [`McsError::Infeasible`] — even the full pool cannot satisfy some
    ///   task's error-bound constraint.
    /// * [`McsError::NoFeasiblePrice`] — coverage is possible but only
    ///   above the top of the price grid.
    fn schedule(&self, instance: &Instance) -> Result<PriceSchedule, McsError> {
        ScheduleEngine::new(self.selection_rule()).build(instance)
    }

    /// The mechanism's exact output distribution over feasible prices
    /// (Algorithm 1, line 16 / Eq. 11).
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduledMechanism::schedule`] errors.
    fn pmf(&self, instance: &Instance) -> Result<PricePmf, McsError> {
        let schedule = self.schedule(instance)?;
        Ok(ExponentialMechanism::for_instance(self.epsilon(), instance)?.pmf(schedule))
    }

    /// The winner schedule for a *residual* covering problem: only
    /// `eligible` workers may win and each task needs only the leftover
    /// coverage `residual[j]` (non-positive entries count as already
    /// satisfied).
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduleEngine::build_residual`] errors — most notably
    /// [`McsError::CoverageShortfall`] when the eligible pool cannot close
    /// some residual requirement.
    fn residual_schedule(
        &self,
        instance: &Instance,
        residual: &[f64],
        eligible: &[WorkerId],
    ) -> Result<PriceSchedule, McsError> {
        ScheduleEngine::new(self.selection_rule()).build_residual(instance, residual, eligible)
    }

    /// Runs a **backfill re-auction**: samples one outcome for the residual
    /// covering problem over the eligible workers' standing bids, using the
    /// same exponential-mechanism price draw as the primary auction.
    ///
    /// This is the entry point fault-tolerant platform rounds use after
    /// winner dropout: coverage already delivered stays paid for and
    /// satisfied, and only the shortfall `Q'_j` is re-purchased.
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduledMechanism::residual_schedule`] errors
    /// ([`McsError::CoverageShortfall`], [`McsError::NoFeasiblePrice`], …).
    fn reauction<R: Rng + ?Sized>(
        &self,
        instance: &Instance,
        residual: &[f64],
        eligible: &[WorkerId],
        rng: &mut R,
    ) -> Result<AuctionOutcome, McsError> {
        let schedule = self.residual_schedule(instance, residual, eligible)?;
        let pmf = ExponentialMechanism::for_instance(self.epsilon(), instance)?.pmf(schedule);
        Ok(pmf.sample(rng))
    }
}

/// Samples one outcome from a scheduled mechanism's exact PMF — the shared
/// body of [`Mechanism::run`] for [`ScheduledMechanism`] implementors.
pub(crate) fn run_scheduled<M: ScheduledMechanism, R: Rng + ?Sized>(
    mechanism: &M,
    instance: &Instance,
    rng: &mut R,
) -> Result<AuctionOutcome, McsError> {
    Ok(mechanism.pmf(instance)?.sample(rng))
}
