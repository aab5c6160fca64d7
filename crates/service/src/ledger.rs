//! Durable round state: typed WAL events, the round ledger state
//! machine, and the recovering [`DurableLedger`] that backs the
//! service's durable endpoints.
//!
//! # Round lifecycle
//!
//! ```text
//! RoundOpened ──▶ BidAdmitted* ──▶ AuctionCommitted ──▶ PaymentIssued* ──▶ RoundSettled
//!      │                │
//!      └────────────────┴──▶ RoundAborted (requested, or recovered in flight)
//! ```
//!
//! Every transition is one WAL event; the in-memory [`Ledger`] is a pure
//! fold over the event stream, so replaying the log after a crash
//! reconstructs exactly the state the events describe. Every write,
//! settlement and recovery included, takes one path: append, one fsync,
//! then fold. The commit protocol's invariant is payment atomicity:
//!
//! * `AuctionCommitted` is fsync'd **before** the commit is acknowledged
//!   — it is the commit point. Once it is on disk the platform owes every
//!   winner its payment, crash or no crash.
//! * Recovery **rolls forward** committed rounds: any winner without a
//!   `PaymentIssued` event gets one appended, at the committed clearing
//!   price, before the service answers its first request.
//! * Rounds that were still open (no `AuctionCommitted` on disk) are
//!   **aborted** on recovery — the client never got a commit ack, so no
//!   obligation exists.
//!
//! Together: zero lost payments, zero double-payments (replay is a state
//! machine — a second `PaymentIssued` for the same worker is an
//! [`WalError::InvalidSequence`], and roll-forward only appends what is
//! missing, so recovering twice leaves the log byte-identical).
//!
//! Bids and stream arrivals are admitted by one check
//! ([`RoundSpec`]'s roster, nonce replay window and one bid per worker),
//! live and on replay alike. Signatures are verified at admission,
//! before the event is written; replay trusts the log (its CRCs detect
//! corruption) and does not re-run signature verification.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use mcs_auction::{DpHsrcAuction, ScheduledMechanism};
use mcs_num::rng;
use mcs_sim::campaign::RoundPhase;
use mcs_types::{Bid, Bundle, Instance, McsError, Price, PriceGrid, SkillMatrix, TaskId, WorkerId};

use crate::envelope::{decode_public_key, BidEnvelope, EnvelopeError};
use crate::stream::{StreamDecision, StreamReceipt, StreamSession, StreamSpec, StreamStatusView};
use crate::wal::{self, WalError, WalOpenMode, WalWriter, WAL_FILE};

// ---------------------------------------------------------------------------
// Round specifications

/// One worker's registration in a round: identity, signing key, skills.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RosterEntry {
    /// The worker's identity, unique within the roster.
    pub worker: WorkerId,
    /// Hex-encoded 32-byte ed25519 public key bid envelopes must verify
    /// against.
    pub public_key: String,
    /// Per-task sensing quality θ_{ij}, one entry per task.
    pub skills: Vec<f64>,
}

/// Everything a durable round needs before bids arrive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundSpec {
    /// The round's identity; must be globally unused.
    pub round_id: u64,
    /// Number of sensing tasks.
    pub num_tasks: usize,
    /// Per-task aggregation error bounds δ_j ∈ (0, 1).
    pub error_bounds: Vec<f64>,
    /// Minimum candidate price of the grid.
    pub price_min: Price,
    /// Maximum candidate price of the grid.
    pub price_max: Price,
    /// Grid spacing.
    pub price_step: Price,
    /// Lower end of the admissible cost range.
    pub cost_min: Price,
    /// Upper end of the admissible cost range.
    pub cost_max: Price,
    /// Privacy budget ε of the exponential mechanism.
    pub epsilon: f64,
    /// Registered workers; only roster members may bid.
    pub roster: Vec<RosterEntry>,
}

impl RoundSpec {
    /// Structural validation, run before the spec enters the log. Error
    /// bounds and skills are held to the ranges an auction instance
    /// needs, so an open round can always be auctioned. Replay does not
    /// re-validate: a spec already in a log still opens.
    ///
    /// # Errors
    ///
    /// [`RoundError::InvalidSpec`] naming the first problem found.
    pub fn validate(&self) -> Result<(), RoundError> {
        let fail = |msg: String| Err(RoundError::InvalidSpec(msg));
        if self.num_tasks == 0 {
            return fail("num_tasks is zero".to_string());
        }
        if self.error_bounds.len() != self.num_tasks {
            return fail(format!(
                "{} error bounds for {} tasks",
                self.error_bounds.len(),
                self.num_tasks
            ));
        }
        Instance::check_error_bounds(&self.error_bounds)
            .map_err(|e| RoundError::InvalidSpec(e.to_string()))?;
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return fail(format!(
                "epsilon {} is not positive and finite",
                self.epsilon
            ));
        }
        self.grid()
            .map_err(|e| RoundError::InvalidSpec(format!("price grid: {e}")))?;
        if self.cost_max < self.cost_min {
            return fail(format!(
                "cost range [{}, {}] is inverted",
                self.cost_min, self.cost_max
            ));
        }
        if self.roster.is_empty() {
            return fail("roster is empty".to_string());
        }
        let mut seen = BTreeSet::new();
        for entry in &self.roster {
            if !seen.insert(entry.worker.0) {
                return fail(format!(
                    "worker {} appears twice in the roster",
                    entry.worker.0
                ));
            }
            if entry.skills.len() != self.num_tasks {
                return fail(format!(
                    "worker {} has {} skills for {} tasks",
                    entry.worker.0,
                    entry.skills.len(),
                    self.num_tasks
                ));
            }
            decode_public_key(&entry.public_key).map_err(|e| {
                RoundError::InvalidSpec(format!("worker {} key: {e}", entry.worker.0))
            })?;
        }
        // An error's θ row index is the worker's position in the roster.
        SkillMatrix::from_rows(self.roster.iter().map(|e| e.skills.clone()).collect())
            .map_err(|e| RoundError::InvalidSpec(format!("roster skills: {e}")))?;
        Ok(())
    }

    pub(crate) fn grid(&self) -> Result<PriceGrid, McsError> {
        PriceGrid::new(self.price_min, self.price_max, self.price_step)
    }

    fn roster_entry(&self, worker: WorkerId) -> Option<&RosterEntry> {
        self.roster.iter().find(|e| e.worker == worker)
    }

    /// The admission check every bid and stream arrival passes, live and
    /// on replay: roster membership, the nonce replay window, then one
    /// bid per worker. Returns the bidder's roster entry.
    ///
    /// A worker holds at most one admitted bid, so that one record
    /// answers both later questions: its own nonce again is a replay
    /// (reported as the replay it is), any other nonce a second bid.
    pub(crate) fn admissible<'a>(
        &self,
        admitted: impl IntoIterator<Item = &'a AdmittedBid>,
        worker: WorkerId,
        nonce: u64,
    ) -> Result<&RosterEntry, EnvelopeError> {
        let entry = self
            .roster_entry(worker)
            .ok_or(EnvelopeError::UnknownWorker(worker))?;
        match admitted.into_iter().find(|b| b.worker == worker) {
            Some(prior) if prior.nonce == nonce => {
                Err(EnvelopeError::ReplayedNonce { worker, nonce })
            }
            Some(_) => Err(EnvelopeError::DuplicateBid(worker)),
            None => Ok(entry),
        }
    }

    /// The auction instance over `bids` under this round's task model,
    /// its dense worker indices in roster-id order, and the roster id of
    /// each dense index.
    ///
    /// # Errors
    ///
    /// [`RoundError::Envelope`] ([`EnvelopeError::UnknownWorker`]) for a
    /// bidder off the roster and [`RoundError::Infeasible`] when the bids
    /// cannot form an instance.
    pub(crate) fn instance<'a>(
        &self,
        bids: impl IntoIterator<Item = (WorkerId, &'a Bid)>,
    ) -> Result<(Instance, Vec<WorkerId>), RoundError> {
        let mut bids: Vec<(WorkerId, &Bid)> = bids.into_iter().collect();
        bids.sort_by_key(|&(worker, _)| worker);
        let rows = bids
            .iter()
            .map(|&(worker, _)| match self.roster_entry(worker) {
                Some(entry) => Ok(entry.skills.clone()),
                None => Err(EnvelopeError::UnknownWorker(worker)),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let infeasible = |e: McsError| RoundError::Infeasible(e.to_string());
        let instance = Instance::builder(self.num_tasks)
            .bids(bids.iter().map(|&(_, bid)| bid.clone()))
            .skills(SkillMatrix::from_rows(rows).map_err(infeasible)?)
            .error_bounds(self.error_bounds.clone())
            .price_grid(self.grid().map_err(infeasible)?)
            .cost_range(self.cost_min, self.cost_max)
            .build()
            .map_err(infeasible)?;
        Ok((
            instance,
            bids.into_iter().map(|(worker, _)| worker).collect(),
        ))
    }
}

// ---------------------------------------------------------------------------
// Events and their binary codec

/// Why a round ended without committing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A client asked for the abort.
    Requested,
    /// Recovery found the round open with no commit on disk.
    RecoveredInFlight,
}

/// One typed entry of the write-ahead round log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEvent {
    /// A round was opened under `spec`.
    RoundOpened {
        /// The round's full specification.
        spec: RoundSpec,
    },
    /// A bid passed signature, expiry, replay, and roster checks.
    BidAdmitted {
        /// The round admitting the bid.
        round_id: u64,
        /// The bidding worker.
        worker: WorkerId,
        /// The envelope nonce (kept for the replay window).
        nonce: u64,
        /// The envelope expiry (Unix ms).
        expires_at_ms: u64,
        /// The bid itself.
        bid: Bid,
        /// The verified ed25519 signature (audit trail).
        signature: [u8; 64],
    },
    /// The auction ran; this fsync'd frame *is* the commit point.
    AuctionCommitted {
        /// The committed round.
        round_id: u64,
        /// Seed of the price draw (for audit replay).
        seed: u64,
        /// The sampled clearing price.
        price: Price,
        /// Winning workers, by roster identity.
        winners: Vec<WorkerId>,
    },
    /// One winner's payment obligation was discharged.
    PaymentIssued {
        /// The paying round.
        round_id: u64,
        /// The paid worker.
        worker: WorkerId,
        /// The amount paid.
        amount: Price,
    },
    /// The round ended without committing.
    RoundAborted {
        /// The aborted round.
        round_id: u64,
        /// Why it ended.
        reason: AbortReason,
    },
    /// Every winner of a committed round has been paid.
    RoundSettled {
        /// The settled round.
        round_id: u64,
    },
    /// A streaming session was opened under `spec`. Streams share the
    /// round id namespace.
    StreamOpened {
        /// The stream's full specification.
        spec: StreamSpec,
    },
    /// One stream arrival was decided. The recorded `(accepted, payment)`
    /// pair is an audit check: replay recomputes the decision from the
    /// deterministic session fold and refuses the log on a mismatch.
    StreamArrival {
        /// The stream deciding the arrival.
        round_id: u64,
        /// The arriving worker.
        worker: WorkerId,
        /// The envelope nonce (kept for the replay window).
        nonce: u64,
        /// The envelope expiry (Unix ms).
        expires_at_ms: u64,
        /// The bid itself.
        bid: Bid,
        /// The verified ed25519 signature (audit trail).
        signature: [u8; 64],
        /// Whether the worker was admitted.
        accepted: bool,
        /// The posted-price payment made (zero when rejected). An
        /// accepted arrival's frame is fsync'd before the ack — it is the
        /// payment's commit point.
        payment: Price,
    },
    /// The stream closed normally; its accepted set is final.
    StreamClosed {
        /// The closed stream.
        round_id: u64,
    },
    /// The stream was aborted on request. Posted-price payments already
    /// made stand — an abort only stops further arrivals.
    StreamAborted {
        /// The aborted stream.
        round_id: u64,
    },
}

const TAG_ROUND_OPENED: u8 = 1;
const TAG_BID_ADMITTED: u8 = 2;
const TAG_AUCTION_COMMITTED: u8 = 3;
const TAG_PAYMENT_ISSUED: u8 = 4;
const TAG_ROUND_ABORTED: u8 = 5;
const TAG_ROUND_SETTLED: u8 = 6;
const TAG_STREAM_OPENED: u8 = 7;
const TAG_STREAM_ARRIVAL: u8 = 8;
const TAG_STREAM_CLOSED: u8 = 9;
const TAG_STREAM_ABORTED: u8 = 10;

/// Writes `tag` and then a spec's JSON form under a `u32` length prefix.
/// Specs are plain structs with a fixed field order, so the bytes are
/// deterministic.
fn put_spec<T: Serialize>(out: &mut Vec<u8>, tag: u8, spec: &T) {
    out.push(tag);
    let json = serde_json::to_vec(spec).expect("spec serializes");
    out.extend_from_slice(&(json.len() as u32).to_le_bytes());
    out.extend_from_slice(&json);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("truncated: wanted {n} bytes at offset {}", self.pos))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A spec written by [`put_spec`]; `what` names it in errors.
    fn spec<T: Deserialize>(&mut self, what: &str) -> Result<T, String> {
        let len = self.u32()? as usize;
        let json = std::str::from_utf8(self.take(len)?)
            .map_err(|e| format!("{what} is not UTF-8: {e}"))?;
        serde_json::from_str(json).map_err(|e| format!("{what} does not parse: {e}"))
    }

    fn finish(self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after the event",
                self.bytes.len() - self.pos
            ))
        }
    }
}

impl WalEvent {
    /// Encodes the event as a WAL frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalEvent::RoundOpened { spec } => put_spec(&mut out, TAG_ROUND_OPENED, spec),
            WalEvent::StreamOpened { spec } => put_spec(&mut out, TAG_STREAM_OPENED, spec),
            // A stream arrival is an admitted bid plus its decision.
            WalEvent::BidAdmitted {
                round_id,
                worker,
                nonce,
                expires_at_ms,
                bid,
                signature,
            }
            | WalEvent::StreamArrival {
                round_id,
                worker,
                nonce,
                expires_at_ms,
                bid,
                signature,
                ..
            } => {
                out.push(match self {
                    WalEvent::BidAdmitted { .. } => TAG_BID_ADMITTED,
                    _ => TAG_STREAM_ARRIVAL,
                });
                out.extend_from_slice(&round_id.to_le_bytes());
                out.extend_from_slice(&worker.0.to_le_bytes());
                out.extend_from_slice(&nonce.to_le_bytes());
                out.extend_from_slice(&expires_at_ms.to_le_bytes());
                out.extend_from_slice(&bid.price().tenths().to_le_bytes());
                let tasks = bid.bundle().as_slice();
                out.extend_from_slice(&(tasks.len() as u32).to_le_bytes());
                for task in tasks {
                    out.extend_from_slice(&task.0.to_le_bytes());
                }
                out.extend_from_slice(signature);
                if let WalEvent::StreamArrival {
                    accepted, payment, ..
                } = self
                {
                    out.push(u8::from(*accepted));
                    out.extend_from_slice(&payment.tenths().to_le_bytes());
                }
            }
            WalEvent::AuctionCommitted {
                round_id,
                seed,
                price,
                winners,
            } => {
                out.push(TAG_AUCTION_COMMITTED);
                out.extend_from_slice(&round_id.to_le_bytes());
                out.extend_from_slice(&seed.to_le_bytes());
                out.extend_from_slice(&price.tenths().to_le_bytes());
                out.extend_from_slice(&(winners.len() as u32).to_le_bytes());
                for w in winners {
                    out.extend_from_slice(&w.0.to_le_bytes());
                }
            }
            WalEvent::PaymentIssued {
                round_id,
                worker,
                amount,
            } => {
                out.push(TAG_PAYMENT_ISSUED);
                out.extend_from_slice(&round_id.to_le_bytes());
                out.extend_from_slice(&worker.0.to_le_bytes());
                out.extend_from_slice(&amount.tenths().to_le_bytes());
            }
            WalEvent::RoundAborted { round_id, reason } => {
                out.push(TAG_ROUND_ABORTED);
                out.extend_from_slice(&round_id.to_le_bytes());
                out.push(match reason {
                    AbortReason::Requested => 0,
                    AbortReason::RecoveredInFlight => 1,
                });
            }
            WalEvent::RoundSettled { round_id } => {
                out.push(TAG_ROUND_SETTLED);
                out.extend_from_slice(&round_id.to_le_bytes());
            }
            WalEvent::StreamClosed { round_id } => {
                out.push(TAG_STREAM_CLOSED);
                out.extend_from_slice(&round_id.to_le_bytes());
            }
            WalEvent::StreamAborted { round_id } => {
                out.push(TAG_STREAM_ABORTED);
                out.extend_from_slice(&round_id.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a WAL frame payload.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem (unknown tag,
    /// truncation, trailing bytes, undecodable spec).
    pub fn decode(bytes: &[u8]) -> Result<WalEvent, String> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let event = match tag {
            TAG_ROUND_OPENED => WalEvent::RoundOpened {
                spec: r.spec("spec")?,
            },
            TAG_STREAM_OPENED => WalEvent::StreamOpened {
                spec: r.spec("stream spec")?,
            },
            TAG_BID_ADMITTED | TAG_STREAM_ARRIVAL => {
                let round_id = r.u64()?;
                let worker = WorkerId(r.u32()?);
                let nonce = r.u64()?;
                let expires_at_ms = r.u64()?;
                let price = Price::from_tenths(r.i64()?);
                let task_count = r.u32()? as usize;
                if task_count > bytes.len() {
                    return Err(format!("bundle claims {task_count} tasks"));
                }
                let mut tasks = Vec::with_capacity(task_count);
                for _ in 0..task_count {
                    tasks.push(TaskId(r.u32()?));
                }
                let bid = Bid::new(Bundle::new(tasks), price);
                let signature: [u8; 64] = r.take(64)?.try_into().expect("64 bytes");
                if tag == TAG_BID_ADMITTED {
                    WalEvent::BidAdmitted {
                        round_id,
                        worker,
                        nonce,
                        expires_at_ms,
                        bid,
                        signature,
                    }
                } else {
                    let accepted = match r.u8()? {
                        0 => false,
                        1 => true,
                        other => return Err(format!("bad accepted flag {other}")),
                    };
                    WalEvent::StreamArrival {
                        round_id,
                        worker,
                        nonce,
                        expires_at_ms,
                        bid,
                        signature,
                        accepted,
                        payment: Price::from_tenths(r.i64()?),
                    }
                }
            }
            TAG_AUCTION_COMMITTED => {
                let round_id = r.u64()?;
                let seed = r.u64()?;
                let price = Price::from_tenths(r.i64()?);
                let count = r.u32()? as usize;
                if count > bytes.len() {
                    return Err(format!("winner list claims {count} entries"));
                }
                let mut winners = Vec::with_capacity(count);
                for _ in 0..count {
                    winners.push(WorkerId(r.u32()?));
                }
                WalEvent::AuctionCommitted {
                    round_id,
                    seed,
                    price,
                    winners,
                }
            }
            TAG_PAYMENT_ISSUED => WalEvent::PaymentIssued {
                round_id: r.u64()?,
                worker: WorkerId(r.u32()?),
                amount: Price::from_tenths(r.i64()?),
            },
            TAG_ROUND_ABORTED => {
                let round_id = r.u64()?;
                let reason = match r.u8()? {
                    0 => AbortReason::Requested,
                    1 => AbortReason::RecoveredInFlight,
                    other => return Err(format!("unknown abort reason {other}")),
                };
                WalEvent::RoundAborted { round_id, reason }
            }
            TAG_ROUND_SETTLED => WalEvent::RoundSettled { round_id: r.u64()? },
            TAG_STREAM_CLOSED => WalEvent::StreamClosed { round_id: r.u64()? },
            TAG_STREAM_ABORTED => WalEvent::StreamAborted { round_id: r.u64()? },
            other => return Err(format!("unknown event tag {other}")),
        };
        r.finish()?;
        Ok(event)
    }
}

// ---------------------------------------------------------------------------
// Wire-facing results

/// One payment the platform made (or owes) to a worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaymentRecord {
    /// The paid worker.
    pub worker: WorkerId,
    /// The amount.
    pub amount: Price,
}

/// The durable result of committing a round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommitReceipt {
    /// The committed round.
    pub round_id: u64,
    /// The sampled clearing price.
    pub price: Price,
    /// Winning workers, by roster identity, ascending.
    pub winners: Vec<WorkerId>,
    /// One record per winner, in winner order.
    pub payments: Vec<PaymentRecord>,
    /// LSN of the settling frame — everything at or below it is durable.
    pub lsn: u64,
    /// `true` when the round was already committed and this receipt is a
    /// replay of the recorded result (idempotent commit).
    pub already_committed: bool,
}

/// A point-in-time view of one round, as served over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundStatusView {
    /// The round.
    pub round_id: u64,
    /// `"open"`, `"committed"`, `"settled"`, or `"aborted"`.
    pub phase: String,
    /// Bids admitted so far.
    pub bids_admitted: usize,
    /// Winners, once committed (empty before).
    pub winners: Vec<WorkerId>,
    /// Sum of payments issued so far.
    pub total_paid: Price,
}

// ---------------------------------------------------------------------------
// Errors

/// Why a durable-round request was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundError {
    /// The bid envelope failed an admission check.
    Envelope(EnvelopeError),
    /// No round with this id exists.
    UnknownRound(u64),
    /// A round with this id already exists (ids are never reused).
    DuplicateRound(u64),
    /// The round exists but its phase forbids the operation.
    RoundClosed {
        /// The round.
        round_id: u64,
        /// The phase it is in.
        phase: String,
    },
    /// The round specification failed validation.
    InvalidSpec(String),
    /// The auction could not produce an outcome (e.g. no feasible price).
    Infeasible(String),
    /// The write-ahead log failed underneath the operation.
    Wal(WalError),
}

impl RoundError {
    /// Stable snake_case rejection code carried on the wire.
    pub fn code(&self) -> &'static str {
        match self {
            RoundError::Envelope(e) => e.code(),
            RoundError::UnknownRound(_) => "unknown_round",
            RoundError::DuplicateRound(_) => "duplicate_round",
            RoundError::RoundClosed { .. } => "round_closed",
            RoundError::InvalidSpec(_) => "invalid_spec",
            RoundError::Infeasible(_) => "infeasible",
            RoundError::Wal(_) => "wal",
        }
    }

    pub(crate) fn closed(round_id: u64, phase: RoundPhase) -> RoundError {
        RoundError::RoundClosed {
            round_id,
            phase: phase.name().to_string(),
        }
    }
}

impl fmt::Display for RoundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoundError::Envelope(e) => write!(f, "{e}"),
            RoundError::UnknownRound(id) => write!(f, "round {id} does not exist"),
            RoundError::DuplicateRound(id) => write!(f, "round {id} already exists"),
            RoundError::RoundClosed { round_id, phase } => {
                write!(f, "round {round_id} is {phase}")
            }
            RoundError::InvalidSpec(msg) => write!(f, "invalid round spec: {msg}"),
            RoundError::Infeasible(msg) => write!(f, "auction infeasible: {msg}"),
            RoundError::Wal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RoundError {}

impl From<EnvelopeError> for RoundError {
    fn from(e: EnvelopeError) -> Self {
        RoundError::Envelope(e)
    }
}

impl From<WalError> for RoundError {
    fn from(e: WalError) -> Self {
        RoundError::Wal(e)
    }
}

// ---------------------------------------------------------------------------
// The in-memory ledger (a pure fold over events)

/// One bid after admission: a durable round's bid or a stream's arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmittedBid {
    /// The bidding worker.
    pub worker: WorkerId,
    /// The bid.
    pub bid: Bid,
    /// The envelope nonce.
    pub nonce: u64,
    /// The envelope expiry (Unix ms).
    pub expires_at_ms: u64,
    /// The verified signature.
    pub signature: [u8; 64],
}

/// A committed round's outcome and the payments made against it.
#[derive(Debug, Clone, PartialEq)]
struct Commit {
    seed: u64,
    price: Price,
    winners: Vec<WorkerId>,
    paid: BTreeMap<u32, Price>,
    /// LSN of the `RoundSettled` frame, once every winner is paid.
    settled_at: Option<u64>,
}

impl Commit {
    /// The events that pay every winner still unpaid, at the committed
    /// price, and settle the round; none once it is settled.
    fn settlement(&self, round_id: u64) -> Vec<WalEvent> {
        if self.settled_at.is_some() {
            return Vec::new();
        }
        self.winners
            .iter()
            .filter(|w| !self.paid.contains_key(&w.0))
            .map(|&worker| WalEvent::PaymentIssued {
                round_id,
                worker,
                amount: self.price,
            })
            .chain([WalEvent::RoundSettled { round_id }])
            .collect()
    }

    /// The durable result, once the round is settled.
    fn receipt(&self, round_id: u64) -> Option<CommitReceipt> {
        let lsn = self.settled_at?;
        Some(CommitReceipt {
            round_id,
            price: self.price,
            winners: self.winners.clone(),
            payments: self
                .winners
                .iter()
                .map(|&worker| PaymentRecord {
                    worker,
                    amount: self.paid[&worker.0],
                })
                .collect(),
            lsn,
            already_committed: false,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Phase {
    Open,
    Committed(Commit),
    Aborted(AbortReason),
}

impl Phase {
    /// Projects the payload-carrying variant onto the shared round
    /// lifecycle. All legality questions (wire names, which transitions
    /// the fold may take) are answered by that machine, so the ledger
    /// cannot drift from the simulator's definition of a round.
    fn lifecycle(&self) -> RoundPhase {
        match self {
            Phase::Open => RoundPhase::Open,
            Phase::Committed(Commit {
                settled_at: None, ..
            }) => RoundPhase::Committed,
            Phase::Committed(_) => RoundPhase::Settled,
            Phase::Aborted(_) => RoundPhase::Aborted,
        }
    }

    fn name(&self) -> &'static str {
        self.lifecycle().name()
    }

    /// Whether the shared lifecycle admits the transition `self → to`.
    fn may_advance_to(&self, to: RoundPhase) -> bool {
        self.lifecycle().can_advance_to(to)
    }

    /// The commit payments and the settle land on: committed, and not
    /// yet settled.
    fn unsettled(&mut self) -> Option<&mut Commit> {
        match self {
            Phase::Committed(commit) if commit.settled_at.is_none() => Some(commit),
            _ => None,
        }
    }
}

/// One round's full state.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundState {
    spec: RoundSpec,
    bids: Vec<AdmittedBid>,
    phase: Phase,
}

impl RoundState {
    /// The round's specification.
    pub fn spec(&self) -> &RoundSpec {
        &self.spec
    }

    /// Bids admitted so far, in admission order.
    pub fn bids(&self) -> &[AdmittedBid] {
        &self.bids
    }

    /// The wire view of this round.
    pub fn view(&self) -> RoundStatusView {
        let (winners, total_paid) = match &self.phase {
            Phase::Open | Phase::Aborted(_) => (Vec::new(), Price::ZERO),
            Phase::Committed(commit) => {
                (commit.winners.clone(), commit.paid.values().copied().sum())
            }
        };
        RoundStatusView {
            round_id: self.spec.round_id,
            phase: self.phase.name().to_string(),
            bids_admitted: self.bids.len(),
            winners,
            total_paid,
        }
    }
}

/// The platform's round state, reconstructed by folding WAL events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    rounds: BTreeMap<u64, RoundState>,
    streams: BTreeMap<u64, StreamSession>,
}

impl Ledger {
    /// A round's state, if the round exists.
    pub fn round(&self, round_id: u64) -> Option<&RoundState> {
        self.rounds.get(&round_id)
    }

    /// A stream's session, if the stream exists.
    pub fn stream(&self, round_id: u64) -> Option<&StreamSession> {
        self.streams.get(&round_id)
    }

    /// Rounds that are open or committed-but-unsettled.
    pub fn live_rounds(&self) -> usize {
        self.rounds
            .values()
            .filter(|r| !r.phase.lifecycle().is_terminal())
            .count()
    }

    /// Streams still accepting arrivals.
    pub fn live_streams(&self) -> usize {
        self.streams.values().filter(|s| s.is_streaming()).count()
    }

    /// Total rounds ever seen (any phase).
    pub fn total_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total streams ever seen (any phase).
    pub fn total_streams(&self) -> usize {
        self.streams.len()
    }

    /// Whether a round or a stream already holds `id`: the two share one
    /// namespace.
    fn id_taken(&self, id: u64) -> bool {
        self.rounds.contains_key(&id) || self.streams.contains_key(&id)
    }

    fn commit(&self, round_id: u64) -> Option<&Commit> {
        match &self.rounds.get(&round_id)?.phase {
            Phase::Committed(commit) => Some(commit),
            _ => None,
        }
    }

    /// Folds one event into the state.
    ///
    /// # Errors
    ///
    /// [`WalError::InvalidSequence`] when the event is illegal in the
    /// current state; the state is unchanged in that case.
    pub fn apply(&mut self, event: &WalEvent, lsn: u64) -> Result<(), WalError> {
        let err = |detail: String| Err(WalError::InvalidSequence { lsn, detail });
        match event {
            WalEvent::RoundOpened { spec } => {
                if self.id_taken(spec.round_id) {
                    return err(format!("round {} reopened", spec.round_id));
                }
                self.rounds.insert(
                    spec.round_id,
                    RoundState {
                        spec: spec.clone(),
                        bids: Vec::new(),
                        phase: Phase::Open,
                    },
                );
            }
            WalEvent::BidAdmitted {
                round_id,
                worker,
                nonce,
                expires_at_ms,
                bid,
                signature,
            } => {
                let Some(round) = self.rounds.get_mut(round_id) else {
                    return err(format!("bid for unknown round {round_id}"));
                };
                if !matches!(round.phase, Phase::Open) {
                    return err(format!("bid for {} round {round_id}", round.phase.name()));
                }
                if let Err(e) = round.spec.admissible(&round.bids, *worker, *nonce) {
                    return err(format!("bid in round {round_id}: {e}"));
                }
                round.bids.push(AdmittedBid {
                    worker: *worker,
                    bid: bid.clone(),
                    nonce: *nonce,
                    expires_at_ms: *expires_at_ms,
                    signature: *signature,
                });
            }
            WalEvent::AuctionCommitted {
                round_id,
                seed,
                price,
                winners,
            } => {
                let Some(round) = self.rounds.get_mut(round_id) else {
                    return err(format!("commit of unknown round {round_id}"));
                };
                if !round.phase.may_advance_to(RoundPhase::Committed) {
                    return err(format!("commit of {} round {round_id}", round.phase.name()));
                }
                round.phase = Phase::Committed(Commit {
                    seed: *seed,
                    price: *price,
                    winners: winners.clone(),
                    paid: BTreeMap::new(),
                    settled_at: None,
                });
            }
            WalEvent::PaymentIssued {
                round_id,
                worker,
                amount,
            } => {
                let Some(round) = self.rounds.get_mut(round_id) else {
                    return err(format!("payment in unknown round {round_id}"));
                };
                let name = round.phase.name();
                let Some(commit) = round.phase.unsettled() else {
                    return err(format!("payment in {name} round {round_id}"));
                };
                if !commit.winners.contains(worker) {
                    return err(format!("payment to non-winner {}", worker.0));
                }
                if commit.paid.contains_key(&worker.0) {
                    return err(format!("double payment to worker {}", worker.0));
                }
                commit.paid.insert(worker.0, *amount);
            }
            WalEvent::RoundAborted { round_id, reason } => {
                let Some(round) = self.rounds.get_mut(round_id) else {
                    return err(format!("abort of unknown round {round_id}"));
                };
                // The shared machine rules out aborting a committed round:
                // its payments are already durable.
                if !round.phase.may_advance_to(RoundPhase::Aborted) {
                    return err(format!("abort of {} round {round_id}", round.phase.name()));
                }
                round.phase = Phase::Aborted(*reason);
            }
            WalEvent::RoundSettled { round_id } => {
                let Some(round) = self.rounds.get_mut(round_id) else {
                    return err(format!("settle of unknown round {round_id}"));
                };
                let name = round.phase.name();
                let Some(commit) = round.phase.unsettled() else {
                    return err(format!("settle of {name} round {round_id}"));
                };
                if let Some(unpaid) = commit
                    .winners
                    .iter()
                    .find(|w| !commit.paid.contains_key(&w.0))
                {
                    return err(format!("settle with winner {} unpaid", unpaid.0));
                }
                commit.settled_at = Some(lsn);
            }
            WalEvent::StreamOpened { spec } => {
                let id = spec.round.round_id;
                if self.id_taken(id) {
                    return err(format!("stream {id} reopened"));
                }
                self.streams.insert(id, StreamSession::new(spec.clone()));
            }
            WalEvent::StreamArrival {
                round_id,
                worker,
                nonce,
                expires_at_ms,
                bid,
                signature,
                accepted,
                payment,
            } => {
                let Some(stream) = self.streams.get_mut(round_id) else {
                    return err(format!("arrival for unknown stream {round_id}"));
                };
                // Replay the admission check and the deterministic
                // decision, and hold the log to them: a frame that
                // disagrees with the fold is corruption (or tampering),
                // not state.
                let decided = stream
                    .check_admissible(*worker, *nonce)
                    .and_then(|()| stream.decide(*worker, bid));
                let (decision, cover) = match decided {
                    Ok(decided) => decided,
                    Err(e) => return err(format!("stream arrival: {e}")),
                };
                if decision.accepted != *accepted || decision.payment != *payment {
                    return err(format!(
                        "stream {round_id} arrival of worker {} replays as \
                         (accepted={}, payment={}) but the log recorded \
                         (accepted={accepted}, payment={payment})",
                        worker.0, decision.accepted, decision.payment,
                    ));
                }
                let admitted = AdmittedBid {
                    worker: *worker,
                    bid: bid.clone(),
                    nonce: *nonce,
                    expires_at_ms: *expires_at_ms,
                    signature: *signature,
                };
                stream.apply_arrival(admitted, &decision, &cover);
            }
            WalEvent::StreamClosed { round_id } | WalEvent::StreamAborted { round_id } => {
                let to = match event {
                    WalEvent::StreamClosed { .. } => RoundPhase::Closed,
                    _ => RoundPhase::Aborted,
                };
                let Some(stream) = self.streams.get_mut(round_id) else {
                    return err(format!("unknown stream {round_id} cannot be {to}"));
                };
                if let Err(e) = stream.advance(to) {
                    return err(format!("stream {round_id} cannot be {to}: {e}"));
                }
            }
        }
        Ok(())
    }

    /// Re-expresses the whole state as an event stream (what the
    /// snapshot stores; folding it from empty reproduces `self` up to
    /// receipt LSNs).
    pub fn to_events(&self) -> Vec<WalEvent> {
        let mut out = Vec::new();
        for (&round_id, round) in &self.rounds {
            out.push(WalEvent::RoundOpened {
                spec: round.spec.clone(),
            });
            out.extend(round.bids.iter().map(|b| WalEvent::BidAdmitted {
                round_id,
                worker: b.worker,
                nonce: b.nonce,
                expires_at_ms: b.expires_at_ms,
                bid: b.bid.clone(),
                signature: b.signature,
            }));
            match &round.phase {
                Phase::Open => {}
                Phase::Committed(commit) => {
                    out.push(WalEvent::AuctionCommitted {
                        round_id,
                        seed: commit.seed,
                        price: commit.price,
                        winners: commit.winners.clone(),
                    });
                    out.extend(commit.paid.iter().map(|(&worker, &amount)| {
                        WalEvent::PaymentIssued {
                            round_id,
                            worker: WorkerId(worker),
                            amount,
                        }
                    }));
                    if commit.settled_at.is_some() {
                        out.push(WalEvent::RoundSettled { round_id });
                    }
                }
                Phase::Aborted(reason) => out.push(WalEvent::RoundAborted {
                    round_id,
                    reason: *reason,
                }),
            }
        }
        for (&round_id, stream) in &self.streams {
            out.push(WalEvent::StreamOpened {
                spec: stream.spec().clone(),
            });
            out.extend(stream.arrivals().iter().map(|(b, accepted, payment)| {
                WalEvent::StreamArrival {
                    round_id,
                    worker: b.worker,
                    nonce: b.nonce,
                    expires_at_ms: b.expires_at_ms,
                    bid: b.bid.clone(),
                    signature: b.signature,
                    accepted: *accepted,
                    payment: *payment,
                }
            }));
            match stream.phase() {
                RoundPhase::Closed => out.push(WalEvent::StreamClosed { round_id }),
                RoundPhase::Aborted => out.push(WalEvent::StreamAborted { round_id }),
                _ => {}
            }
        }
        out
    }

    /// Serializes the state for a snapshot payload.
    pub fn encode_snapshot(&self) -> Vec<u8> {
        let events = self.to_events();
        let mut out = Vec::new();
        out.extend_from_slice(&(events.len() as u32).to_le_bytes());
        for event in &events {
            let bytes = event.encode();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// Rebuilds a ledger from a snapshot payload.
    ///
    /// # Errors
    ///
    /// [`WalError::BadSnapshot`] on structural damage and
    /// [`WalError::InvalidSequence`] (with `lsn = 0`) if the decoded
    /// events do not fold cleanly.
    pub fn decode_snapshot(bytes: &[u8]) -> Result<Ledger, WalError> {
        let mut r = Reader::new(bytes);
        let bad = |msg: String| WalError::BadSnapshot(msg);
        let count = r.u32().map_err(bad)? as usize;
        let mut ledger = Ledger::default();
        for _ in 0..count {
            let len = r.u32().map_err(bad)? as usize;
            let event_bytes = r.take(len).map_err(bad)?;
            let event = WalEvent::decode(event_bytes).map_err(bad)?;
            ledger.apply(&event, 0)?;
        }
        r.finish().map_err(bad)?;
        Ok(ledger)
    }
}

// ---------------------------------------------------------------------------
// Durability configuration

/// Where durable state is kept. Every appended event is fsync'd before
/// its request is answered.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `wal.log` and `snapshot.bin` (created if absent).
    pub dir: PathBuf,
    /// Rotate the log into a snapshot once it holds this many frames.
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// A config that snapshots every 256 frames.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            snapshot_every: 256,
        }
    }
}

/// What recovery found and did while opening a [`DurableLedger`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN covered by the snapshot that seeded replay (`None` if no
    /// snapshot existed).
    pub snapshot_lsn: Option<u64>,
    /// WAL frames replayed on top of the snapshot.
    pub replayed_frames: u64,
    /// Invalid tail bytes physically truncated from the log.
    pub truncated_tail_bytes: u64,
    /// Rounds that were live (open or committed) at the crash.
    pub recovered_rounds: u64,
    /// Open rounds recovery aborted (no commit on disk → no obligation).
    pub aborted_in_flight: u64,
    /// Missing payments recovery issued for committed rounds.
    pub completed_payments: u64,
    /// Streaming sessions found live and resumed in place. Unlike open
    /// rounds, a stream is *not* aborted on recovery: every decided
    /// arrival was acked (accepted ones fsync'd), so the session fold
    /// reconstructs the exact pre-crash state and keeps streaming.
    pub resumed_streams: u64,
}

// ---------------------------------------------------------------------------
// The durable ledger

/// The [`Ledger`] plus its write-ahead log. Every mutation is validated,
/// then written through one path: appended to the WAL, fsync'd, and
/// only then folded into memory — so the in-memory state never runs
/// ahead of what recovery could rebuild.
pub struct DurableLedger {
    ledger: Ledger,
    wal: WalWriter,
    dir: PathBuf,
    snapshot_every: u64,
    snapshot_lsn: u64,
    recovery: RecoveryReport,
    rotated_frames: u64,
    rotated_fsyncs: u64,
}

impl DurableLedger {
    /// Opens (or creates) the durable state in `config.dir`, running
    /// full crash recovery: snapshot load, torn-tail truncation, replay,
    /// payment roll-forward, and in-flight-round abort.
    ///
    /// # Errors
    ///
    /// Any [`WalError`]; damage beyond a torn tail (bad magic, corrupt
    /// snapshot, events that do not fold) is surfaced, never papered
    /// over.
    pub fn open(config: &DurabilityConfig) -> Result<DurableLedger, WalError> {
        std::fs::create_dir_all(&config.dir)?;
        let (mut ledger, snapshot_lsn) = match wal::read_snapshot(&config.dir)? {
            Some((lsn, payload)) => (Ledger::decode_snapshot(&payload)?, Some(lsn)),
            None => (Ledger::default(), None),
        };
        let base = snapshot_lsn.unwrap_or(0) + 1;
        let wal_path = config.dir.join(WAL_FILE);
        let (wal, scan, mode) = WalWriter::open_recovering(&wal_path, base)?;
        let mut report = RecoveryReport {
            snapshot_lsn,
            truncated_tail_bytes: match mode {
                WalOpenMode::Created => 0,
                WalOpenMode::Recovered { truncated_bytes } => truncated_bytes,
            },
            ..RecoveryReport::default()
        };
        for frame in &scan.frames {
            if frame.lsn <= snapshot_lsn.unwrap_or(0) {
                // A crash between snapshot rename and log rotation leaves
                // frames the snapshot already covers; skip them.
                continue;
            }
            let event = WalEvent::decode(&frame.payload).map_err(|detail| WalError::BadEvent {
                lsn: frame.lsn,
                detail,
            })?;
            ledger.apply(&event, frame.lsn)?;
            report.replayed_frames += 1;
        }
        report.recovered_rounds = ledger.live_rounds() as u64;
        report.resumed_streams = ledger.live_streams() as u64;

        // Roll forward: a committed round is an obligation, so every
        // missing payment is issued at the committed price and the round
        // settled. Then abort what was still open: no commit on disk
        // means no client ever saw an ack, so the round carries no
        // obligation. One fsync covers both, even when nothing is owed.
        let mut events = Vec::new();
        for (&round_id, round) in &ledger.rounds {
            if let Phase::Committed(commit) = &round.phase {
                events.extend(commit.settlement(round_id));
            }
        }
        report.completed_payments = events
            .iter()
            .filter(|e| matches!(e, WalEvent::PaymentIssued { .. }))
            .count() as u64;
        for (&round_id, round) in &ledger.rounds {
            if matches!(round.phase, Phase::Open) {
                events.push(WalEvent::RoundAborted {
                    round_id,
                    reason: AbortReason::RecoveredInFlight,
                });
                report.aborted_in_flight += 1;
            }
        }
        let mut durable = DurableLedger {
            ledger,
            wal,
            dir: config.dir.clone(),
            snapshot_every: config.snapshot_every.max(1),
            snapshot_lsn: snapshot_lsn.unwrap_or(0),
            recovery: report,
            rotated_frames: 0,
            rotated_fsyncs: 0,
        };
        durable.write(&events)?;
        Ok(durable)
    }

    /// The one write path: appends `events` to the log, fsyncs once (also
    /// for no events), and only then folds them into memory. Returns the
    /// highest synced LSN, the last event's.
    fn write(&mut self, events: &[WalEvent]) -> Result<u64, WalError> {
        let first = self.wal.next_lsn();
        for event in events {
            self.wal.append(&event.encode())?;
        }
        self.wal.sync()?;
        for (lsn, event) in (first..).zip(events) {
            self.ledger.apply(event, lsn)?;
        }
        Ok(self.wal.synced_lsn())
    }

    /// Opens a new round.
    ///
    /// # Errors
    ///
    /// [`RoundError::InvalidSpec`], [`RoundError::DuplicateRound`], or a
    /// wrapped [`WalError`].
    pub fn open_round(&mut self, spec: RoundSpec) -> Result<u64, RoundError> {
        spec.validate()?;
        if self.ledger.id_taken(spec.round_id) {
            return Err(RoundError::DuplicateRound(spec.round_id));
        }
        Ok(self.write(&[WalEvent::RoundOpened { spec }])?)
    }

    /// Admits one signed bid: roster membership, nonce replay window,
    /// one-bid-per-worker, expiry, and ed25519 signature are all
    /// checked, in that order, before the WAL write — and the WAL write
    /// happens before the caller gets its ack.
    ///
    /// # Errors
    ///
    /// [`RoundError::Envelope`] for every admission failure (the inner
    /// [`EnvelopeError`] says which check), [`RoundError::UnknownRound`]
    /// / [`RoundError::RoundClosed`] for bad targeting, or a wrapped
    /// [`WalError`].
    pub fn submit_bid(&mut self, envelope: &BidEnvelope, now_ms: u64) -> Result<u64, RoundError> {
        let round = self
            .ledger
            .rounds
            .get(&envelope.round_id)
            .ok_or(RoundError::UnknownRound(envelope.round_id))?;
        if !matches!(round.phase, Phase::Open) {
            return Err(RoundError::closed(
                envelope.round_id,
                round.phase.lifecycle(),
            ));
        }
        let entry = round
            .spec
            .admissible(&round.bids, envelope.worker, envelope.nonce)?;
        envelope.verify(&decode_public_key(&entry.public_key)?, now_ms)?;
        let event = WalEvent::BidAdmitted {
            round_id: envelope.round_id,
            worker: envelope.worker,
            nonce: envelope.nonce,
            expires_at_ms: envelope.expires_at_ms,
            bid: envelope.bid.clone(),
            signature: envelope.signature_bytes()?,
        };
        Ok(self.write(&[event])?)
    }

    /// Commits a round: runs the DP-hSRC auction over the admitted bids,
    /// fsyncs the `AuctionCommitted` frame (the commit point), then
    /// issues and settles every payment. Committing an already-settled
    /// round is idempotent — the recorded receipt is returned with
    /// `already_committed = true` and nothing is re-run or re-paid,
    /// whatever seed is passed.
    ///
    /// # Errors
    ///
    /// [`RoundError::Infeasible`] when the auction has no outcome (the
    /// round stays open), [`RoundError::UnknownRound`] /
    /// [`RoundError::RoundClosed`], or a wrapped [`WalError`].
    pub fn commit_round(&mut self, round_id: u64, seed: u64) -> Result<CommitReceipt, RoundError> {
        let round = self
            .ledger
            .rounds
            .get(&round_id)
            .ok_or(RoundError::UnknownRound(round_id))?;
        let already_committed = match &round.phase {
            Phase::Aborted(_) => return Err(RoundError::closed(round_id, round.phase.lifecycle())),
            Phase::Committed(_) => true,
            Phase::Open => {
                let (price, winners) = run_auction(&round.spec, &round.bids, seed)?;
                // THE commit point: once this fsync returns, the
                // obligation exists and will survive any crash.
                self.write(&[WalEvent::AuctionCommitted {
                    round_id,
                    seed,
                    price,
                    winners,
                }])?;
                false
            }
        };
        // Pay and settle what is owed: all of it after a fresh commit,
        // the rest after an earlier commit failed between its commit
        // point and settlement without crashing, nothing once settled.
        let settlement = self
            .ledger
            .commit(round_id)
            .map_or_else(Vec::new, |commit| commit.settlement(round_id));
        if !settlement.is_empty() {
            self.write(&settlement)?;
        }
        if !already_committed {
            self.maybe_snapshot()?;
        }
        let receipt = self
            .ledger
            .commit(round_id)
            .and_then(|commit| commit.receipt(round_id))
            .expect("the round is settled");
        Ok(CommitReceipt {
            already_committed,
            ..receipt
        })
    }

    /// Aborts an open round, or a live stream, on request. A stream's
    /// payments already made stand; its abort only stops further
    /// arrivals.
    ///
    /// # Errors
    ///
    /// [`RoundError::UnknownRound`], [`RoundError::RoundClosed`] (a
    /// committed round is an obligation and cannot be aborted), or a
    /// wrapped [`WalError`].
    pub fn abort_round(&mut self, round_id: u64) -> Result<u64, RoundError> {
        let event = match (
            self.ledger.rounds.get(&round_id),
            self.ledger.stream(round_id),
        ) {
            (Some(round), _) if matches!(round.phase, Phase::Open) => WalEvent::RoundAborted {
                round_id,
                reason: AbortReason::Requested,
            },
            (Some(round), _) => return Err(RoundError::closed(round_id, round.phase.lifecycle())),
            (None, Some(stream)) if stream.is_streaming() => WalEvent::StreamAborted { round_id },
            (None, Some(stream)) => return Err(RoundError::closed(round_id, stream.phase())),
            (None, None) => return Err(RoundError::UnknownRound(round_id)),
        };
        Ok(self.write(&[event])?)
    }

    /// The wire view of one round.
    pub fn round_status(&self, round_id: u64) -> Option<RoundStatusView> {
        self.ledger.round(round_id).map(RoundState::view)
    }

    /// Opens a streaming session. Streams share the round id namespace,
    /// so the id must be unused by rounds and streams alike.
    ///
    /// # Errors
    ///
    /// [`RoundError::InvalidSpec`], [`RoundError::DuplicateRound`], or a
    /// wrapped [`WalError`].
    pub fn open_stream(&mut self, spec: StreamSpec) -> Result<u64, RoundError> {
        spec.validate()?;
        let id = spec.round.round_id;
        if self.ledger.id_taken(id) {
            return Err(RoundError::DuplicateRound(id));
        }
        Ok(self.write(&[WalEvent::StreamOpened { spec }])?)
    }

    /// Decides one stream arrival: the round admission checks (phase,
    /// roster, nonce replay window, one arrival per worker), envelope
    /// expiry and ed25519 signature, then the stage-sampling
    /// posted-price decision. The arrival's frame is fsync'd before the
    /// ack; for an *accepted* arrival that fsync is the commit point of
    /// its payment obligation.
    ///
    /// # Errors
    ///
    /// [`RoundError::Envelope`] for admission failures,
    /// [`RoundError::UnknownRound`] / [`RoundError::RoundClosed`] for bad
    /// targeting, [`RoundError::Infeasible`] when the bid cannot form an
    /// instance, or a wrapped [`WalError`].
    pub fn stream_arrival(
        &mut self,
        envelope: &BidEnvelope,
        now_ms: u64,
    ) -> Result<(StreamDecision, u64), RoundError> {
        let stream = self
            .ledger
            .streams
            .get(&envelope.round_id)
            .ok_or(RoundError::UnknownRound(envelope.round_id))?;
        let entry = stream.admissible(envelope.worker, envelope.nonce)?;
        envelope.verify(&decode_public_key(&entry.public_key)?, now_ms)?;
        let decision = stream.evaluate(envelope.worker, &envelope.bid)?;
        let event = WalEvent::StreamArrival {
            round_id: envelope.round_id,
            worker: envelope.worker,
            nonce: envelope.nonce,
            expires_at_ms: envelope.expires_at_ms,
            bid: envelope.bid.clone(),
            signature: envelope.signature_bytes()?,
            accepted: decision.accepted,
            payment: decision.payment,
        };
        let lsn = self.write(&[event])?;
        Ok((decision, lsn))
    }

    /// Closes a stream, finalising its accepted set. Closing an
    /// already-closed stream is idempotent — the recorded result comes
    /// back with `already_closed = true`.
    ///
    /// # Errors
    ///
    /// [`RoundError::UnknownRound`], [`RoundError::RoundClosed`] (for an
    /// aborted stream), or a wrapped [`WalError`].
    pub fn close_stream(&mut self, round_id: u64) -> Result<StreamReceipt, RoundError> {
        let stream = self
            .ledger
            .streams
            .get(&round_id)
            .ok_or(RoundError::UnknownRound(round_id))?;
        match stream.phase() {
            RoundPhase::Streaming => {}
            RoundPhase::Closed => return Ok(stream.receipt(self.wal.synced_lsn(), true)),
            phase => return Err(RoundError::closed(round_id, phase)),
        }
        let lsn = self.write(&[WalEvent::StreamClosed { round_id }])?;
        self.maybe_snapshot()?;
        Ok(self.ledger.streams[&round_id].receipt(lsn, false))
    }

    /// The wire view of one stream.
    pub fn stream_status(&self, round_id: u64) -> Option<StreamStatusView> {
        self.ledger.stream(round_id).map(StreamSession::view)
    }

    /// What recovery found and did when this ledger opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The in-memory state (read-only).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Frames appended since open (across log rotations).
    pub fn wal_frames(&self) -> u64 {
        self.rotated_frames + self.wal.frames_written()
    }

    /// Fsyncs performed since open (across log rotations).
    pub fn wal_fsyncs(&self) -> u64 {
        self.rotated_fsyncs + self.wal.fsyncs()
    }

    /// Highest LSN known to be on stable storage.
    pub fn synced_lsn(&self) -> u64 {
        self.wal.synced_lsn()
    }

    /// Current size of `wal.log` in bytes.
    pub fn wal_size_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// Rotates the log into a snapshot if it has grown past the
    /// configured frame count.
    fn maybe_snapshot(&mut self) -> Result<(), RoundError> {
        let frames_in_log = self.wal.next_lsn().saturating_sub(self.snapshot_lsn + 1);
        if frames_in_log >= self.snapshot_every {
            self.force_snapshot()?;
        }
        Ok(())
    }

    /// Writes a snapshot of the current state and starts a fresh log.
    ///
    /// Crash-safe at every step: the snapshot is written atomically, and
    /// replay skips frames the snapshot already covers, so dying between
    /// the snapshot rename and the log reset loses nothing.
    ///
    /// # Errors
    ///
    /// A wrapped [`WalError`] on filesystem failure.
    pub fn force_snapshot(&mut self) -> Result<(), RoundError> {
        self.wal.sync().map_err(RoundError::Wal)?;
        let last = self.wal.synced_lsn();
        wal::write_snapshot(&self.dir, last, &self.ledger.encode_snapshot())?;
        self.rotated_frames += self.wal.frames_written();
        self.rotated_fsyncs += self.wal.fsyncs();
        self.wal = WalWriter::create(&self.dir.join(WAL_FILE), last + 1)?;
        self.snapshot_lsn = last;
        Ok(())
    }
}

/// Runs the DP-hSRC auction for a round over its admitted bids,
/// returning the clearing price and winners by roster identity.
fn run_auction(
    spec: &RoundSpec,
    bids: &[AdmittedBid],
    seed: u64,
) -> Result<(Price, Vec<WorkerId>), RoundError> {
    if bids.is_empty() {
        return Err(RoundError::Infeasible("no admitted bids".to_string()));
    }
    let (instance, ids) = spec.instance(bids.iter().map(|b| (b.worker, &b.bid)))?;
    let infeasible = |e: McsError| RoundError::Infeasible(e.to_string());
    let pmf = DpHsrcAuction::new(spec.epsilon)
        .map_err(infeasible)?
        .pmf(&instance)
        .map_err(infeasible)?;
    let outcome = pmf.sample(&mut rng::derived(seed, spec.round_id));
    let winners = outcome
        .winners()
        .iter()
        .map(|dense| ids[dense.0 as usize])
        .collect();
    Ok((outcome.price(), winners))
}

/// Reconstructs ledger state from raw WAL bytes without touching the
/// filesystem — the pure core the fuzzer and property tests drive.
///
/// # Errors
///
/// The same [`WalError`] taxonomy as [`DurableLedger::open`] (minus
/// I/O): header damage, undecodable events, or an event stream that does
/// not fold.
pub fn recover_from_bytes(bytes: &[u8]) -> Result<(Ledger, wal::WalScan), WalError> {
    let scan = wal::scan_bytes(bytes)?;
    let mut ledger = Ledger::default();
    for frame in &scan.frames {
        let event = WalEvent::decode(&frame.payload).map_err(|detail| WalError::BadEvent {
            lsn: frame.lsn,
            detail,
        })?;
        ledger.apply(&event, frame.lsn)?;
    }
    Ok((ledger, scan))
}

/// Milliseconds since the Unix epoch per the system clock.
pub fn system_now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ed25519::{hex_encode, SigningKey};

    fn key_for(worker: u32) -> SigningKey {
        let mut seed = [0u8; 32];
        seed[..4].copy_from_slice(&worker.to_le_bytes());
        seed[31] = 0xA7;
        SigningKey::from_seed(seed)
    }

    fn spec(round_id: u64, workers: u32) -> RoundSpec {
        RoundSpec {
            round_id,
            num_tasks: 3,
            // Q_j = 2 ln(1/0.8) ≈ 0.45, coverable by a single bidder
            // with q = (2·0.9 − 1)² = 0.64 per bundled task.
            error_bounds: vec![0.8, 0.8, 0.8],
            price_min: Price::from_f64(1.0),
            price_max: Price::from_f64(30.0),
            price_step: Price::from_f64(1.0),
            cost_min: Price::from_f64(1.0),
            cost_max: Price::from_f64(30.0),
            epsilon: 0.5,
            roster: (0..workers)
                .map(|w| RosterEntry {
                    worker: WorkerId(w),
                    public_key: hex_encode(&key_for(w).verifying_key().to_bytes()),
                    skills: vec![0.9, 0.9, 0.9],
                })
                .collect(),
        }
    }

    fn envelope(round_id: u64, worker: u32, nonce: u64) -> BidEnvelope {
        let bid = Bid::new(
            Bundle::new(vec![TaskId(worker % 3), TaskId((worker + 1) % 3)]),
            Price::from_f64(2.0 + f64::from(worker)),
        );
        BidEnvelope::sign(
            round_id,
            WorkerId(worker),
            bid,
            nonce,
            1_000_000,
            &key_for(worker),
        )
    }

    fn stream_spec(round_id: u64, workers: u32, sample_target: usize) -> StreamSpec {
        StreamSpec {
            round: spec(round_id, workers),
            sample_target,
            seed: 11,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mcs-ledger-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn events_round_trip_through_the_codec() {
        let events = vec![
            WalEvent::RoundOpened { spec: spec(4, 2) },
            WalEvent::BidAdmitted {
                round_id: 4,
                worker: WorkerId(1),
                nonce: 99,
                expires_at_ms: 123_456,
                bid: Bid::new(
                    Bundle::new(vec![TaskId(0), TaskId(2)]),
                    Price::from_f64(3.5),
                ),
                signature: [7u8; 64],
            },
            WalEvent::AuctionCommitted {
                round_id: 4,
                seed: 11,
                price: Price::from_f64(5.0),
                winners: vec![WorkerId(0), WorkerId(1)],
            },
            WalEvent::PaymentIssued {
                round_id: 4,
                worker: WorkerId(0),
                amount: Price::from_f64(5.0),
            },
            WalEvent::RoundAborted {
                round_id: 5,
                reason: AbortReason::RecoveredInFlight,
            },
            WalEvent::RoundSettled { round_id: 4 },
            WalEvent::StreamOpened {
                spec: stream_spec(6, 4, 2),
            },
            WalEvent::StreamArrival {
                round_id: 6,
                worker: WorkerId(3),
                nonce: 17,
                expires_at_ms: 654_321,
                bid: Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(4.0)),
                signature: [9u8; 64],
                accepted: true,
                payment: Price::from_f64(6.0),
            },
            WalEvent::StreamClosed { round_id: 6 },
            WalEvent::StreamAborted { round_id: 7 },
        ];
        for event in events {
            let bytes = event.encode();
            assert_eq!(WalEvent::decode(&bytes).expect("decode"), event);
        }
        assert!(WalEvent::decode(&[]).is_err());
        assert!(WalEvent::decode(&[99]).is_err());
        // Trailing garbage after a valid event is rejected.
        let mut bytes = WalEvent::RoundSettled { round_id: 1 }.encode();
        bytes.push(0);
        assert!(WalEvent::decode(&bytes).is_err());
    }

    #[test]
    fn full_round_lifecycle_and_idempotent_commit() {
        let dir = temp_dir("lifecycle");
        let config = DurabilityConfig::new(&dir);
        let mut durable = DurableLedger::open(&config).expect("open");
        assert_eq!(durable.recovery(), &RecoveryReport::default());

        durable.open_round(spec(1, 4)).expect("open round");
        for w in 0..4 {
            durable
                .submit_bid(&envelope(1, w, 100 + u64::from(w)), 0)
                .expect("admit");
        }
        let receipt = durable.commit_round(1, 7).expect("commit");
        assert!(!receipt.already_committed);
        assert_eq!(receipt.payments.len(), receipt.winners.len());
        for p in &receipt.payments {
            assert_eq!(p.amount, receipt.price);
        }
        // Committing again returns the same result, marked as a replay,
        // even under a different seed.
        let again = durable.commit_round(1, 999).expect("recommit");
        assert!(again.already_committed);
        assert_eq!(again.price, receipt.price);
        assert_eq!(again.winners, receipt.winners);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_rejections_are_typed() {
        let dir = temp_dir("admission");
        let mut durable = DurableLedger::open(&DurabilityConfig::new(&dir)).expect("open");
        durable.open_round(spec(1, 2)).expect("open round");

        assert!(matches!(
            durable.submit_bid(&envelope(9, 0, 1), 0),
            Err(RoundError::UnknownRound(9))
        ));
        // Worker 5 is not on the roster.
        let mut outsider = envelope(1, 0, 1);
        outsider.worker = WorkerId(5);
        assert!(matches!(
            durable.submit_bid(&outsider, 0),
            Err(RoundError::Envelope(EnvelopeError::UnknownWorker(
                WorkerId(5)
            )))
        ));
        // Forged: signed by the wrong key (worker 1's envelope relabelled
        // as worker 0).
        let mut forged = envelope(1, 1, 2);
        forged.worker = WorkerId(0);
        assert!(matches!(
            durable.submit_bid(&forged, 0),
            Err(RoundError::Envelope(EnvelopeError::BadSignature(_)))
        ));
        // Expired.
        assert!(matches!(
            durable.submit_bid(&envelope(1, 0, 3), u64::MAX),
            Err(RoundError::Envelope(EnvelopeError::Expired { .. }))
        ));
        // Good bid, then a replay of the exact same envelope (reported
        // as the replay it is, not as a duplicate bid), then a second
        // distinct bid by the same worker (a duplicate, not a replay).
        let good = envelope(1, 0, 4);
        durable.submit_bid(&good, 0).expect("admit");
        assert!(matches!(
            durable.submit_bid(&good, 0),
            Err(RoundError::Envelope(EnvelopeError::ReplayedNonce {
                worker: WorkerId(0),
                nonce: 4,
            }))
        ));
        assert!(matches!(
            durable.submit_bid(&envelope(1, 0, 40), 0),
            Err(RoundError::Envelope(EnvelopeError::DuplicateBid(WorkerId(
                0
            ))))
        ));
        // A closed round refuses bids.
        durable.submit_bid(&envelope(1, 1, 5), 0).expect("admit");
        durable.commit_round(1, 3).expect("commit");
        assert!(matches!(
            durable.submit_bid(&envelope(1, 1, 6), 0),
            Err(RoundError::RoundClosed { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nonce_replay_window_is_per_round() {
        let dir = temp_dir("nonce");
        let mut durable = DurableLedger::open(&DurabilityConfig::new(&dir)).expect("open");
        durable.open_round(spec(1, 2)).expect("round 1");
        durable.open_round(spec(2, 2)).expect("round 2");
        durable.submit_bid(&envelope(1, 0, 7), 0).expect("admit");
        // Same worker, same nonce, different round: fine (the signature
        // binds the envelope to its round, so this is a fresh envelope).
        durable.submit_bid(&envelope(2, 0, 7), 0).expect("admit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_reconstructs_state_and_aborts_in_flight() {
        let dir = temp_dir("restart");
        let config = DurabilityConfig::new(&dir);
        let receipt = {
            let mut durable = DurableLedger::open(&config).expect("open");
            durable.open_round(spec(1, 3)).expect("round 1");
            for w in 0..3 {
                durable
                    .submit_bid(&envelope(1, w, u64::from(w)), 0)
                    .expect("admit");
            }
            let receipt = durable.commit_round(1, 5).expect("commit");
            // Round 2 stays open across the "crash".
            durable.open_round(spec(2, 3)).expect("round 2");
            durable.submit_bid(&envelope(2, 0, 50), 0).expect("admit");
            receipt
        };
        let durable = DurableLedger::open(&config).expect("reopen");
        let report = durable.recovery();
        assert_eq!(report.recovered_rounds, 1, "only round 2 was live");
        assert_eq!(report.aborted_in_flight, 1);
        assert_eq!(report.completed_payments, 0);
        let settled = durable.round_status(1).expect("round 1");
        assert_eq!(settled.phase, "settled");
        assert_eq!(settled.winners, receipt.winners);
        let aborted = durable.round_status(2).expect("round 2");
        assert_eq!(aborted.phase, "aborted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_rotation_preserves_state() {
        let dir = temp_dir("rotate");
        let mut config = DurabilityConfig::new(&dir);
        config.snapshot_every = 4;
        let mut durable = DurableLedger::open(&config).expect("open");
        let mut receipts = Vec::new();
        for round in 1..=5u64 {
            durable.open_round(spec(round, 3)).expect("open round");
            for w in 0..3 {
                durable
                    .submit_bid(&envelope(round, w, round * 10 + u64::from(w)), 0)
                    .expect("admit");
            }
            receipts.push(durable.commit_round(round, round).expect("commit"));
        }
        // Rotation must have happened at least once.
        assert!(wal::read_snapshot(&dir).expect("snapshot").is_some());
        drop(durable);
        let durable = DurableLedger::open(&config).expect("reopen");
        assert!(durable.recovery().snapshot_lsn.is_some());
        for receipt in &receipts {
            let view = durable.round_status(receipt.round_id).expect("round");
            assert_eq!(view.phase, "settled");
            assert_eq!(view.winners, receipt.winners);
            assert_eq!(
                view.total_paid.tenths(),
                receipt.price.tenths() * receipt.winners.len() as i64
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_rejects_double_payments_on_replay() {
        let mut ledger = Ledger::default();
        ledger
            .apply(&WalEvent::RoundOpened { spec: spec(1, 2) }, 1)
            .expect("open");
        ledger
            .apply(
                &WalEvent::AuctionCommitted {
                    round_id: 1,
                    seed: 0,
                    price: Price::from_f64(2.0),
                    winners: vec![WorkerId(0)],
                },
                2,
            )
            .expect("commit");
        let pay = WalEvent::PaymentIssued {
            round_id: 1,
            worker: WorkerId(0),
            amount: Price::from_f64(2.0),
        };
        ledger.apply(&pay, 3).expect("first payment");
        assert!(matches!(
            ledger.apply(&pay, 4),
            Err(WalError::InvalidSequence { lsn: 4, .. })
        ));
    }

    #[test]
    fn streams_resume_across_restart_with_the_same_posted_price() {
        let dir = temp_dir("stream-resume");
        let config = DurabilityConfig::new(&dir);
        let (posted, decided) = {
            let mut durable = DurableLedger::open(&config).expect("open");
            durable
                .open_stream(stream_spec(1, 10, 3))
                .expect("open stream");
            // Three observed arrivals, then two live decisions.
            for w in 0..5u32 {
                durable
                    .stream_arrival(&envelope(1, w, 100 + u64::from(w)), 0)
                    .expect("arrival");
            }
            let view = durable.stream_status(1).expect("status");
            assert_eq!(view.phase, "streaming");
            assert_eq!(view.arrivals, 5);
            (view.posted_price.expect("threshold learned"), view.accepted)
            // Dropped without closing: the "crash".
        };
        let mut durable = DurableLedger::open(&config).expect("reopen");
        assert_eq!(durable.recovery().resumed_streams, 1);
        assert_eq!(durable.recovery().aborted_in_flight, 0);
        let view = durable.stream_status(1).expect("status");
        assert_eq!(view.phase, "streaming", "streams resume, not abort");
        assert_eq!(view.arrivals, 5);
        assert_eq!(view.posted_price, Some(posted));
        assert_eq!(view.accepted, decided);
        // The session keeps deciding arrivals at the same posted price.
        for w in 5..10u32 {
            durable
                .stream_arrival(&envelope(1, w, 100 + u64::from(w)), 0)
                .expect("post-recovery arrival");
        }
        let receipt = durable.close_stream(1).expect("close");
        assert_eq!(receipt.arrivals, 10);
        assert_eq!(receipt.posted_price, Some(posted));
        assert!(!receipt.already_closed);
        assert_eq!(
            receipt.total_paid.tenths(),
            posted.tenths() * receipt.accepted.len() as i64
        );
        // Idempotent re-close replays the recorded result.
        let again = durable.close_stream(1).expect("re-close");
        assert!(again.already_closed);
        assert_eq!(again.accepted, receipt.accepted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_arrivals_are_checked_like_bids() {
        let dir = temp_dir("stream-checks");
        let mut durable = DurableLedger::open(&DurabilityConfig::new(&dir)).expect("open");
        durable
            .open_stream(stream_spec(1, 4, 1))
            .expect("open stream");
        assert!(matches!(
            durable.stream_arrival(&envelope(9, 0, 1), 0),
            Err(RoundError::UnknownRound(9))
        ));
        let good = envelope(1, 0, 1);
        durable.stream_arrival(&good, 0).expect("arrival");
        assert!(matches!(
            durable.stream_arrival(&good, 0),
            Err(RoundError::Envelope(EnvelopeError::ReplayedNonce { .. }))
        ));
        assert!(matches!(
            durable.stream_arrival(&envelope(1, 0, 2), 0),
            Err(RoundError::Envelope(EnvelopeError::DuplicateBid(WorkerId(
                0
            ))))
        ));
        // Forged: worker 2's envelope relabelled as worker 1.
        let mut forged = envelope(1, 2, 3);
        forged.worker = WorkerId(1);
        assert!(matches!(
            durable.stream_arrival(&forged, 0),
            Err(RoundError::Envelope(EnvelopeError::BadSignature(_)))
        ));
        assert!(matches!(
            durable.stream_arrival(&envelope(1, 1, 4), u64::MAX),
            Err(RoundError::Envelope(EnvelopeError::Expired { .. }))
        ));
        durable.abort_round(1).expect("abort");
        assert!(matches!(
            durable.stream_arrival(&envelope(1, 1, 5), 0),
            Err(RoundError::RoundClosed { .. })
        ));
        assert!(matches!(
            durable.close_stream(1),
            Err(RoundError::RoundClosed { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rounds_and_streams_share_the_id_namespace() {
        let dir = temp_dir("stream-ids");
        let mut durable = DurableLedger::open(&DurabilityConfig::new(&dir)).expect("open");
        durable.open_round(spec(1, 2)).expect("round 1");
        assert!(matches!(
            durable.open_stream(stream_spec(1, 4, 1)),
            Err(RoundError::DuplicateRound(1))
        ));
        durable.open_stream(stream_spec(2, 4, 1)).expect("stream 2");
        assert!(matches!(
            durable.open_round(spec(2, 2)),
            Err(RoundError::DuplicateRound(2))
        ));
        assert!(matches!(
            durable.open_stream(stream_spec(2, 4, 1)),
            Err(RoundError::DuplicateRound(2))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_state_survives_snapshot_rotation() {
        let dir = temp_dir("stream-rotate");
        let mut config = DurabilityConfig::new(&dir);
        config.snapshot_every = 4;
        let mut durable = DurableLedger::open(&config).expect("open");
        durable
            .open_stream(stream_spec(1, 8, 2))
            .expect("open stream");
        for w in 0..8u32 {
            durable
                .stream_arrival(&envelope(1, w, u64::from(w) + 1), 0)
                .expect("arrival");
        }
        let receipt = durable.close_stream(1).expect("close");
        // The close crossed snapshot_every, so a rotation happened.
        assert!(wal::read_snapshot(&dir).expect("snapshot").is_some());
        drop(durable);
        let durable = DurableLedger::open(&config).expect("reopen");
        assert!(durable.recovery().snapshot_lsn.is_some());
        let view = durable.stream_status(1).expect("status");
        assert_eq!(view.phase, "closed");
        assert_eq!(view.accepted, receipt.accepted);
        assert_eq!(view.total_paid, receipt.total_paid);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_arrival_frames_are_refused_on_replay() {
        let mut ledger = Ledger::default();
        ledger
            .apply(
                &WalEvent::StreamOpened {
                    spec: stream_spec(1, 4, 1),
                },
                1,
            )
            .expect("open");
        // A log claiming a sample-phase arrival was accepted (and paid)
        // contradicts the deterministic fold and must be rejected.
        let forged = WalEvent::StreamArrival {
            round_id: 1,
            worker: WorkerId(0),
            nonce: 1,
            expires_at_ms: 1_000_000,
            bid: Bid::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(2.0)),
            signature: [0u8; 64],
            accepted: true,
            payment: Price::from_f64(2.0),
        };
        assert!(matches!(
            ledger.apply(&forged, 2),
            Err(WalError::InvalidSequence { lsn: 2, .. })
        ));
        let _ = &ledger;
    }

    #[test]
    fn snapshot_codec_round_trips_the_ledger() {
        let dir = temp_dir("snapcodec");
        let mut durable = DurableLedger::open(&DurabilityConfig::new(&dir)).expect("open");
        durable.open_round(spec(1, 3)).expect("round");
        for w in 0..3 {
            durable
                .submit_bid(&envelope(1, w, u64::from(w)), 0)
                .expect("admit");
        }
        durable.commit_round(1, 9).expect("commit");
        durable.open_round(spec(2, 2)).expect("round 2");
        durable.abort_round(2).expect("abort");
        let encoded = durable.ledger().encode_snapshot();
        let decoded = Ledger::decode_snapshot(&encoded).expect("decode");
        // Receipt LSNs differ (snapshot folds carry lsn 0); compare views
        // and structure instead.
        assert_eq!(decoded.total_rounds(), durable.ledger().total_rounds());
        for id in [1u64, 2] {
            let mut a = decoded.round(id).expect("round").view();
            let b = durable.round_status(id).expect("round");
            a.round_id = b.round_id;
            assert_eq!(a, b);
        }
        assert!(matches!(
            Ledger::decode_snapshot(&encoded[..encoded.len() - 1]),
            Err(WalError::BadSnapshot(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
