//! The shared round-lifecycle state machine.
//!
//! Every multi-round surface in the workspace walks the same lifecycle —
//! the batch platform loop ([`crate::platform::run_round`] and its
//! fault-tolerant sibling), the campaign engine, and the service's durable
//! ledger and stream folds. Before this module each of them hand-rolled
//! its own phase bookkeeping; now they all drive one [`RoundState`]
//! machine, so the set of legal transitions (and the wire names of the
//! phases) is written down exactly once:
//!
//! ```text
//!             ┌───────────┐  commit   ┌───────────┐  settle  ┌─────────┐
//!  batch:     │   Open    ├──────────►│ Committed ├─────────►│ Settled │
//!             └─────┬─────┘           └───────────┘          └─────────┘
//!                   │ abort
//!                   ▼
//!             ┌───────────┐
//!             │  Aborted  │◄──────────────┐
//!             └───────────┘               │ abort
//!                                         │
//!             ┌───────────┐  close   ┌────┴──────┐
//!  streaming: │ Streaming ├─────────►│  Closed   │
//!             └───────────┘          └───────────┘
//! ```
//!
//! A committed round can no longer abort: its payments are durable and the
//! only way out is settlement — exactly the invariant the service's
//! write-ahead log enforces, now shared with the simulator.

use std::fmt;

/// Where a round is in its lifecycle (batch and streaming rounds share
/// one namespace; a given round only ever walks one of the two columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundPhase {
    /// A batch round accepting bids; the auction has not cleared yet.
    Open,
    /// A streaming round accepting arrivals one at a time.
    Streaming,
    /// The auction cleared: seed, price and winners are fixed and the
    /// payment obligations are durable. Settlement is the only exit.
    Committed,
    /// Labels aggregated, payments issued — terminal success of a batch
    /// round.
    Settled,
    /// The arrival stream drained and the accepted set is final —
    /// terminal success of a streaming round.
    Closed,
    /// The round was abandoned before any payment became durable —
    /// terminal failure.
    Aborted,
}

impl RoundPhase {
    /// The stable wire name, shared by every status view in the
    /// workspace: `"open"`, `"streaming"`, `"committed"`, `"settled"`,
    /// `"closed"`, or `"aborted"`.
    pub const fn name(self) -> &'static str {
        match self {
            RoundPhase::Open => "open",
            RoundPhase::Streaming => "streaming",
            RoundPhase::Committed => "committed",
            RoundPhase::Settled => "settled",
            RoundPhase::Closed => "closed",
            RoundPhase::Aborted => "aborted",
        }
    }

    /// Whether the round has reached a terminal phase.
    pub const fn is_terminal(self) -> bool {
        matches!(
            self,
            RoundPhase::Settled | RoundPhase::Closed | RoundPhase::Aborted
        )
    }

    /// Whether the machine admits the transition `self → to`.
    ///
    /// The legal transitions are exactly the arrows in the module-level
    /// diagram; in particular `Committed → Aborted` is *not* one of them
    /// (committed payments are durable).
    pub const fn can_advance_to(self, to: RoundPhase) -> bool {
        matches!(
            (self, to),
            (RoundPhase::Open, RoundPhase::Committed)
                | (RoundPhase::Open, RoundPhase::Aborted)
                | (RoundPhase::Committed, RoundPhase::Settled)
                | (RoundPhase::Streaming, RoundPhase::Closed)
                | (RoundPhase::Streaming, RoundPhase::Aborted)
        )
    }
}

impl fmt::Display for RoundPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A violation of the round lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseError {
    /// An `advance` was requested that the machine does not admit.
    InvalidTransition {
        /// The phase the round was in.
        from: RoundPhase,
        /// The phase the caller tried to move to.
        to: RoundPhase,
    },
    /// An operation required a specific phase and found another.
    WrongPhase {
        /// The phase the operation requires.
        expected: RoundPhase,
        /// The phase the round is actually in.
        actual: RoundPhase,
    },
}

impl fmt::Display for PhaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhaseError::InvalidTransition { from, to } => {
                write!(f, "illegal round transition {from} -> {to}")
            }
            PhaseError::WrongPhase { expected, actual } => {
                write!(f, "round is {actual}, operation requires {expected}")
            }
        }
    }
}

impl std::error::Error for PhaseError {}

/// The round-lifecycle machine itself: a current [`RoundPhase`] plus the
/// legality rules. Cheap to copy; every holder folds its own payload
/// (winners, receipts, reports) around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundState {
    phase: RoundPhase,
}

impl RoundState {
    /// A fresh batch round, in [`RoundPhase::Open`].
    pub const fn batch() -> RoundState {
        RoundState {
            phase: RoundPhase::Open,
        }
    }

    /// A fresh streaming round, in [`RoundPhase::Streaming`].
    pub const fn streaming() -> RoundState {
        RoundState {
            phase: RoundPhase::Streaming,
        }
    }

    /// Resumes a machine at a known phase (e.g. a ledger fold replaying a
    /// write-ahead log).
    pub const fn resume(phase: RoundPhase) -> RoundState {
        RoundState { phase }
    }

    /// The current phase.
    pub const fn phase(&self) -> RoundPhase {
        self.phase
    }

    /// Whether the round has reached a terminal phase.
    pub const fn is_terminal(&self) -> bool {
        self.phase.is_terminal()
    }

    /// Advances to `to`, returning the phase the machine left.
    ///
    /// # Errors
    ///
    /// [`PhaseError::InvalidTransition`] when the lifecycle does not admit
    /// `current → to`; the machine is left unchanged.
    pub fn advance(&mut self, to: RoundPhase) -> Result<RoundPhase, PhaseError> {
        if !self.phase.can_advance_to(to) {
            return Err(PhaseError::InvalidTransition {
                from: self.phase,
                to,
            });
        }
        let from = self.phase;
        self.phase = to;
        Ok(from)
    }

    /// Requires the machine to be in `expected`.
    ///
    /// # Errors
    ///
    /// [`PhaseError::WrongPhase`] otherwise.
    pub fn expect(&self, expected: RoundPhase) -> Result<(), PhaseError> {
        if self.phase != expected {
            return Err(PhaseError::WrongPhase {
                expected,
                actual: self.phase,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [RoundPhase; 6] = [
        RoundPhase::Open,
        RoundPhase::Streaming,
        RoundPhase::Committed,
        RoundPhase::Settled,
        RoundPhase::Closed,
        RoundPhase::Aborted,
    ];

    #[test]
    fn batch_walks_the_happy_path() {
        let mut s = RoundState::batch();
        assert_eq!(s.phase(), RoundPhase::Open);
        s.expect(RoundPhase::Open).unwrap();
        assert_eq!(s.advance(RoundPhase::Committed).unwrap(), RoundPhase::Open);
        assert_eq!(
            s.advance(RoundPhase::Settled).unwrap(),
            RoundPhase::Committed
        );
        assert!(s.is_terminal());
    }

    #[test]
    fn committed_rounds_cannot_abort() {
        let mut s = RoundState::batch();
        s.advance(RoundPhase::Committed).unwrap();
        let err = s.advance(RoundPhase::Aborted).unwrap_err();
        assert_eq!(
            err,
            PhaseError::InvalidTransition {
                from: RoundPhase::Committed,
                to: RoundPhase::Aborted,
            }
        );
        // The machine is untouched by the refused transition.
        assert_eq!(s.phase(), RoundPhase::Committed);
    }

    #[test]
    fn streaming_closes_or_aborts_and_then_stops() {
        let mut s = RoundState::streaming();
        s.advance(RoundPhase::Closed).unwrap();
        assert!(s.is_terminal());
        for to in ALL {
            assert!(s.advance(to).is_err(), "terminal phase advanced to {to}");
        }
        let mut s = RoundState::streaming();
        s.advance(RoundPhase::Aborted).unwrap();
        assert!(s.is_terminal());
    }

    #[test]
    fn batch_and_streaming_columns_do_not_cross() {
        assert!(!RoundPhase::Open.can_advance_to(RoundPhase::Closed));
        assert!(!RoundPhase::Streaming.can_advance_to(RoundPhase::Committed));
        assert!(!RoundPhase::Open.can_advance_to(RoundPhase::Settled));
        assert!(!RoundPhase::Streaming.can_advance_to(RoundPhase::Settled));
    }

    #[test]
    fn wrong_phase_is_a_typed_error() {
        let s = RoundState::streaming();
        assert_eq!(
            s.expect(RoundPhase::Open).unwrap_err(),
            PhaseError::WrongPhase {
                expected: RoundPhase::Open,
                actual: RoundPhase::Streaming,
            }
        );
    }
}
