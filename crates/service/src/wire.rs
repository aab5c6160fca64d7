//! The service wire protocol: request and response types.
//!
//! Both transports speak the same types. In-process callers hand a
//! [`Request`] to [`crate::Client::call`] and get a [`Response`] back;
//! the TCP transport ships the same values as one line of JSON per
//! message.
//!
//! Both enums derive their serde impls as internally tagged objects: the
//! `"type"` member names the variant and the variant's fields follow,
//! e.g. `{"type": "run_auction", "instance": …, "epsilon": 0.1,
//! "seed": 7}`. A response that wraps one report carries it under one
//! key, e.g. `{"type": "committed", "receipt": …}`.
//!
//! Both ends write a line straight into its `String`, building no value
//! tree. [`decode_request`] reads a line in one pass straight into a
//! [`Request`]; only a line that pass does not accept is parsed into a
//! tree, which names the error.

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Offence, Serialize, Step, Value};

use mcs_auction::AuctionOutcome;
use mcs_sim::faults::FaultPlan;
use mcs_sim::platform::{DegradedRoundReport, ResilienceConfig};
use mcs_types::{Instance, McsError, Price, TrueType, WorkerId};

use crate::envelope::BidEnvelope;
use crate::ledger::{CommitReceipt, RoundSpec, RoundStatusView};
use crate::stream::{StreamReceipt, StreamSpec, StreamStatusView};

/// A request to the auction service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type")]
pub enum Request {
    /// Run one DP-hSRC auction: build (or fetch) the price schedule and
    /// PMF for `(instance, epsilon)`, then sample a clearing price with
    /// the seeded RNG. Identical `(instance, epsilon, seed)` triples give
    /// identical outcomes whether the PMF came from the cache or a cold
    /// build.
    RunAuction {
        /// The auction input (bids, skills, error bounds, price grid).
        instance: Instance,
        /// Privacy budget ε of the exponential mechanism.
        epsilon: f64,
        /// Seed of the price-draw RNG.
        seed: u64,
    },
    /// Return the exact output distribution over feasible prices for
    /// `(instance, epsilon)` without sampling.
    QueryPmf {
        /// The auction input.
        instance: Instance,
        /// Privacy budget ε.
        epsilon: f64,
    },
    /// Run one fault-tolerant platform round (auction → faults →
    /// backfill re-auctions → aggregation) and return the full report.
    RunResilientRound {
        /// The auction input.
        instance: Instance,
        /// True worker types (bundle + cost) used for labelling and
        /// utility accounting.
        types: Vec<TrueType>,
        /// Privacy budget ε.
        epsilon: f64,
        /// The fault model to inject.
        plan: FaultPlan,
        /// Deadline and backfill knobs.
        config: ResilienceConfig,
        /// Seed of the round RNG.
        seed: u64,
    },
    /// Liveness / readiness probe; answered without touching the cache.
    Health,
    /// Snapshot of per-endpoint counters and latency quantiles.
    Metrics,
    /// Open a durable round: the spec is validated, written to the WAL,
    /// and survives restarts. Requires the service to be started with a
    /// durability directory.
    OpenRound {
        /// The round specification (roster, grid, ε, …).
        spec: RoundSpec,
    },
    /// Submit one signed bid to a durable round. The envelope's
    /// signature, expiry, and nonce are verified before the bid is
    /// admitted, and the admission is on the WAL before the ack.
    SubmitBid {
        /// The signed envelope.
        envelope: BidEnvelope,
    },
    /// Run and durably commit a durable round's auction. Idempotent:
    /// committing a settled round replays the recorded receipt.
    CommitRound {
        /// The round to commit.
        round_id: u64,
        /// Seed of the price draw.
        seed: u64,
    },
    /// Abort an open durable round, or a live stream (streams share the
    /// id namespace; payments a stream already made stand).
    AbortRound {
        /// The round or stream to abort.
        round_id: u64,
    },
    /// The current phase and totals of a durable round (or stream —
    /// streams share the id namespace and answer with
    /// [`Response::StreamStatus`]).
    RoundStatus {
        /// The round to inspect.
        round_id: u64,
    },
    /// Open a long-lived streaming session: arrivals are decided one by
    /// one at a posted price learned from the first `sample_target` of
    /// them. The session lives on the WAL and *resumes* (rather than
    /// aborts) after a crash.
    OpenStream {
        /// The stream specification (round spec + sample size + seed).
        spec: StreamSpec,
    },
    /// Submit one signed arrival to a streaming session. The response
    /// carries the immediate, irrevocable admit/reject decision; an
    /// accepted arrival's payment is on the WAL before the ack.
    Arrive {
        /// The signed envelope.
        envelope: BidEnvelope,
    },
    /// Close a streaming session, finalising its accepted set.
    /// Idempotent: re-closing replays the recorded receipt.
    CloseStream {
        /// The stream to close.
        round_id: u64,
    },
}

impl Request {
    /// The input of the PMF a `run_auction` or `query_pmf` request needs,
    /// which the service caches; `None` for every other request.
    pub(crate) fn pmf_input(&self) -> Option<(&Instance, f64)> {
        match self {
            Request::RunAuction {
                instance, epsilon, ..
            }
            | Request::QueryPmf { instance, epsilon } => Some((instance, *epsilon)),
            _ => None,
        }
    }

    /// The stable endpoint name used in metrics and logs: the request's
    /// `"type"` tag.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::RunAuction { .. } => "run_auction",
            Request::QueryPmf { .. } => "query_pmf",
            Request::RunResilientRound { .. } => "run_resilient_round",
            Request::Health => "health",
            Request::Metrics => "metrics",
            Request::OpenRound { .. } => "open_round",
            Request::SubmitBid { .. } => "submit_bid",
            Request::CommitRound { .. } => "commit_round",
            Request::AbortRound { .. } => "abort_round",
            Request::RoundStatus { .. } => "round_status",
            Request::OpenStream { .. } => "open_stream",
            Request::Arrive { .. } => "arrive",
            Request::CloseStream { .. } => "close_stream",
        }
    }
}

/// A response from the auction service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type")]
pub enum Response {
    /// The sampled auction outcome for a [`Request::RunAuction`].
    Outcome(AuctionOutcome),
    /// The exact price distribution for a [`Request::QueryPmf`].
    Pmf(PmfSummary),
    /// The round report for a [`Request::RunResilientRound`].
    Round(Box<DegradedRoundReport>),
    /// Service liveness snapshot.
    Health(HealthReport),
    /// Metrics snapshot.
    Metrics(MetricsReport),
    /// The bounded accept queue was full: the request was *not* accepted.
    /// Retry after roughly the hinted number of milliseconds.
    Busy {
        /// Suggested client back-off before retrying.
        retry_after_hint_ms: u64,
    },
    /// The service is draining and no longer accepts new requests.
    ShuttingDown,
    /// The request was accepted but failed (infeasible instance, invalid
    /// ε, malformed wire input, …).
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// A durable round was opened; its spec is on stable storage.
    Opened {
        /// The opened round.
        round_id: u64,
        /// LSN of the `RoundOpened` frame.
        lsn: u64,
    },
    /// A signed bid passed every admission check and is on the WAL.
    BidAccepted {
        /// The admitting round.
        round_id: u64,
        /// LSN of the `BidAdmitted` frame.
        lsn: u64,
    },
    /// A durable round committed (or replayed its recorded commit).
    #[serde(key = "receipt")]
    Committed(Box<CommitReceipt>),
    /// A durable round or a stream was aborted on request.
    Aborted {
        /// The aborted round or stream.
        round_id: u64,
        /// LSN of the `RoundAborted` or `StreamAborted` frame.
        lsn: u64,
    },
    /// The phase and totals of a durable round.
    #[serde(key = "status")]
    RoundStatus(RoundStatusView),
    /// A durable-round request was refused with a typed reason.
    Rejected {
        /// Stable snake_case code (see [`crate::RoundError::code`]),
        /// e.g. `"bad_signature"`, `"replayed_nonce"`, `"expired"`.
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// A streaming session was opened; its spec is on stable storage.
    StreamOpened {
        /// The opened stream.
        round_id: u64,
        /// LSN of the `StreamOpened` frame.
        lsn: u64,
        /// Arrivals that will be observed before the price is posted.
        sample_target: usize,
    },
    /// One stream arrival was decided.
    ArrivalDecided {
        /// The deciding stream.
        round_id: u64,
        /// The arriving worker.
        worker: WorkerId,
        /// Whether the worker was admitted (and paid).
        accepted: bool,
        /// The payment made (zero when rejected).
        payment: Price,
        /// Stable snake_case decision reason (see
        /// [`crate::StreamDecision::reason`]).
        reason: String,
        /// The posted price, once the sample completed.
        posted_price: Option<Price>,
        /// LSN of the `StreamArrival` frame.
        lsn: u64,
    },
    /// A streaming session closed (or replayed its recorded close).
    #[serde(key = "receipt")]
    StreamClosed(Box<StreamReceipt>),
    /// The phase and totals of a streaming session.
    #[serde(key = "status")]
    StreamStatus(StreamStatusView),
}

/// The exact exponential-mechanism output distribution, price by price.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PmfSummary {
    /// Feasible candidate prices, ascending.
    pub prices: Vec<Price>,
    /// Probability of drawing each price; sums to 1.
    pub probs: Vec<f64>,
}

/// Liveness snapshot returned by [`Request::Health`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Number of worker threads serving requests.
    pub workers: usize,
    /// Capacity of the bounded accept queue.
    pub queue_capacity: usize,
    /// Schedules currently resident in the PMF cache.
    pub cache_entries: usize,
    /// Maximum schedules the cache will hold.
    pub cache_capacity: usize,
    /// Whether the service is draining (shutdown requested).
    pub draining: bool,
    /// Rounds that were live (open or committed) when the durable ledger
    /// last recovered; 0 when durability is disabled.
    pub recovered_rounds: u64,
    /// Highest WAL LSN known to be on stable storage; 0 when durability
    /// is disabled.
    pub last_synced_lsn: u64,
    /// Current size of `wal.log` in bytes; 0 when durability is
    /// disabled.
    pub wal_size_bytes: u64,
}

/// Latency quantiles of one endpoint, in microseconds.
///
/// Quantiles are bucket upper bounds from a geometric histogram
/// (ratio 1.25), so each figure overstates the true quantile by at most
/// 25%.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median, as the containing bucket's upper bound (µs).
    pub p50_us: u64,
    /// 95th percentile bucket upper bound (µs).
    pub p95_us: u64,
    /// 99th percentile bucket upper bound (µs).
    pub p99_us: u64,
    /// Exact maximum observed latency (µs).
    pub max_us: u64,
}

/// Counters and latency for one endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointMetrics {
    /// Endpoint name (see [`Request::endpoint`]).
    pub endpoint: String,
    /// Requests answered, including errored ones.
    pub count: u64,
    /// Requests that returned [`Response::Error`].
    pub errors: u64,
    /// Requests answered as part of a coalesced batch of two or more.
    pub batched: u64,
    /// Attempts aimed at this endpoint that were turned away with
    /// [`Response::Busy`] at the accept queue. Every attempt counts —
    /// a client that retries its full [`crate::RetryPolicy`] budget
    /// shows up here once per attempt, so the counter exposes retry
    /// pressure per endpoint, not just unique requests.
    pub busy: u64,
    /// Latency quantiles; `None` until the endpoint has served a request.
    pub latency: Option<LatencySummary>,
}

/// Whole-service metrics snapshot returned by [`Request::Metrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Per-endpoint counters, in a stable endpoint order.
    pub endpoints: Vec<EndpointMetrics>,
    /// PMF cache hits since start.
    pub cache_hits: u64,
    /// PMF cache misses (cold builds) since start.
    pub cache_misses: u64,
    /// Requests rejected with [`Response::Busy`] at the accept queue.
    pub rejected_busy: u64,
    /// WAL frames appended since the durable ledger opened.
    pub wal_frames: u64,
    /// WAL fsyncs since the durable ledger opened.
    pub wal_fsyncs: u64,
    /// Bid envelopes refused at admission (any [`Response::Rejected`]
    /// with an envelope-class code).
    pub envelope_rejections: u64,
}

/// A typed wire-decoding failure.
///
/// The transport used to accept two classes of malformed input silently:
/// non-finite floats (the grammar has no `Infinity`/`NaN` literals, but
/// `1e999` overflows to `+inf` during parsing) and duplicate object keys
/// (the value tree keeps every pair and lookups return the first, so a
/// second `"epsilon"` was carried along unread). Both now fail decoding
/// with a variant naming the offending path, before any typed
/// deserialization runs.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The input is not syntactically valid JSON.
    Syntax(String),
    /// A number in the document is `inf`, `-inf`, or NaN.
    NonFinite {
        /// JSONPath-style location of the offending number.
        path: String,
    },
    /// An object repeats a key.
    DuplicateKey {
        /// JSONPath-style location of the object holding the repeat.
        path: String,
        /// The repeated key.
        key: String,
    },
    /// The JSON was valid and clean but did not match the target type.
    Shape(String),
    /// An embedded completion model carries a probability `p_ij` outside
    /// the half-open interval `(0, 1]`.
    ///
    /// Wire decoding runs the validation of [`Instance`]'s builder: a
    /// request that smuggles `p = 0` (a task that can never complete) or
    /// `p > 1` must fail typed at the transport, not panic deep inside the
    /// schedule engine.
    InvalidProbability {
        /// Worker of the offending entry.
        worker: u32,
        /// Task of the offending entry.
        task: u32,
        /// The offending value.
        value: f64,
    },
    /// An embedded completion model carries a per-task shortfall bound
    /// `gamma_j` outside the open interval `(0, 1)`.
    InvalidShortfallBound {
        /// The task whose bound is invalid.
        task: u32,
        /// The offending value.
        value: f64,
    },
    /// An embedded instance breaks another rule of [`Instance`]'s builder,
    /// e.g. a bundle naming a task the instance does not have, a bid
    /// outside the cost range, or an error bound outside `(0, 1)`.
    InvalidInstance(McsError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Syntax(msg) => write!(f, "invalid JSON: {msg}"),
            WireError::NonFinite { path } => {
                write!(f, "non-finite number at {path}")
            }
            WireError::DuplicateKey { path, key } => {
                write!(f, "duplicate key `{key}` in object at {path}")
            }
            WireError::Shape(msg) => write!(f, "shape mismatch: {msg}"),
            WireError::InvalidProbability {
                worker,
                task,
                value,
            } => write!(
                f,
                "completion probability p[{worker}][{task}] = {value} is outside (0, 1]"
            ),
            WireError::InvalidShortfallBound { task, value } => write!(
                f,
                "shortfall bound gamma[{task}] = {value} is outside the open interval (0, 1)"
            ),
            WireError::InvalidInstance(err) => write!(f, "invalid instance: {err}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// The answer to a request line that does not decode.
    pub(crate) fn answer(&self) -> Response {
        Response::Error {
            message: format!("malformed request: {self}"),
        }
    }
}

/// Rejects non-finite numbers and duplicate object keys anywhere in a
/// parsed value tree, reporting the first offence with its JSONPath.
fn validate_tree(v: &Value) -> Result<(), WireError> {
    let Some((offence, steps)) = v.first_offence() else {
        return Ok(());
    };
    let mut path = String::from("$");
    for step in steps.iter().rev() {
        match step {
            Step::Index(i) => path.push_str(&format!("[{i}]")),
            Step::Key(key) => {
                path.push('.');
                path.push_str(key);
            }
        }
    }
    Err(match offence {
        Offence::NonFinite => WireError::NonFinite { path },
        Offence::DuplicateKey(key) => WireError::DuplicateKey {
            path,
            key: key.to_string(),
        },
    })
}

fn decode_checked<T: Deserialize>(text: &str) -> Result<T, WireError> {
    let value: Value = serde_json::from_str(text).map_err(|e| WireError::Syntax(e.to_string()))?;
    validate_tree(&value)?;
    T::from_value(&value).map_err(|e| WireError::Shape(e.to_string()))
}

/// Runs the validation [`Instance`]'s builder runs, mapping the typed
/// completion-model errors onto their own wire errors.
///
/// The grammar checks each part of an instance on its own (a dense skill
/// matrix holds `N·K` values in `[0, 1]`, a price grid has a positive
/// step), but not how the parts fit together: bundles against the task
/// count, bid prices against the cost range, error bounds, completion
/// probabilities and shortfall bounds.
fn validate_instance(instance: &Instance) -> Result<(), WireError> {
    instance.validate().map_err(|e| match e {
        McsError::InvalidCompletionProb {
            worker,
            task,
            value,
        } => WireError::InvalidProbability {
            worker: worker.0,
            task: task.0,
            value,
        },
        McsError::InvalidShortfallBound { task, value } => WireError::InvalidShortfallBound {
            task: task.0,
            value,
        },
        other => WireError::InvalidInstance(other),
    })
}

/// Decodes one request line, rejecting syntactically valid but unsound
/// documents (non-finite numbers, duplicate keys, instances the builder
/// would refuse) with typed errors.
///
/// The line is read in one pass straight into a [`Request`]. That reader
/// accepts a line only where the tree path ([`decode_request_via_tree`])
/// would accept it with the same value, so the answer is the same either
/// way; any other line goes down the tree path, which names the error.
///
/// # Errors
///
/// Returns the [`WireError`] variant describing the first problem found.
pub fn decode_request(text: &str) -> Result<Request, WireError> {
    decode_request_spanned(text).map(|(request, _)| request)
}

/// [`decode_request`], also answering where the one-pass reader found the
/// value of the line's top-level `instance` member: its byte range in
/// `text`, or `None` when the line went down the tree path or has no
/// such member.
pub(crate) fn decode_request_spanned(
    text: &str,
) -> Result<(Request, Option<Range<usize>>), WireError> {
    match serde::read_document_with_span::<Request>(text, "instance") {
        Some((request, span)) => validate_request(request).map(|request| (request, span)),
        None => decode_request_via_tree(text).map(|request| (request, None)),
    }
}

/// [`decode_request`] on the tree path alone: the whole line is parsed
/// into a value tree, checked for non-finite numbers and duplicate keys,
/// then typed. It is the reference the one-pass reader is tested against.
///
/// # Errors
///
/// Returns the [`WireError`] variant describing the first problem found.
pub fn decode_request_via_tree(text: &str) -> Result<Request, WireError> {
    validate_request(decode_checked(text)?)
}

/// Holds an embedded instance to [`Instance::validate`].
fn validate_request(request: Request) -> Result<Request, WireError> {
    match &request {
        Request::RunAuction { instance, .. }
        | Request::QueryPmf { instance, .. }
        | Request::RunResilientRound { instance, .. } => validate_instance(instance)?,
        _ => {}
    }
    Ok(request)
}

/// Decodes one response line under the same validation as
/// [`decode_request`].
///
/// # Errors
///
/// Returns the [`WireError`] variant describing the first problem found.
pub fn decode_response(text: &str) -> Result<Response, WireError> {
    decode_checked(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{PaymentRecord, RosterEntry};
    use mcs_sim::Setting;
    use mcs_types::{Bid, Bundle, Price, SkillMatrix, TaskId, WorkerId};

    fn instance() -> Instance {
        Setting::one(80).scaled_down(4).generate(3).instance
    }

    fn round_spec() -> RoundSpec {
        RoundSpec {
            round_id: 17,
            num_tasks: 2,
            error_bounds: vec![0.4, 0.3],
            price_min: Price::from_f64(1.0),
            price_max: Price::from_f64(9.0),
            price_step: Price::from_f64(0.5),
            cost_min: Price::from_f64(1.0),
            cost_max: Price::from_f64(9.0),
            epsilon: 0.25,
            roster: vec![RosterEntry {
                worker: WorkerId(0),
                public_key: "ab".repeat(32),
                skills: vec![0.5, 0.6],
            }],
        }
    }

    fn bid_envelope() -> BidEnvelope {
        BidEnvelope {
            round_id: 17,
            worker: WorkerId(0),
            bid: Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(2.5)),
            nonce: 42,
            expires_at_ms: 99_000,
            signature: "cd".repeat(64),
        }
    }

    /// One request of every variant.
    fn requests() -> Vec<Request> {
        let inst = instance();
        let g = Setting::one(80).scaled_down(4).generate(3);
        vec![
            Request::RunAuction {
                instance: inst.clone(),
                epsilon: 0.1,
                seed: 7,
            },
            Request::QueryPmf {
                instance: inst.clone(),
                epsilon: 0.5,
            },
            Request::RunResilientRound {
                instance: inst,
                types: g.types,
                epsilon: 0.1,
                plan: FaultPlan::no_show(0.2, 9),
                config: ResilienceConfig::default(),
                seed: 11,
            },
            Request::Health,
            Request::Metrics,
            Request::OpenRound { spec: round_spec() },
            Request::SubmitBid {
                envelope: bid_envelope(),
            },
            Request::CommitRound {
                round_id: 17,
                seed: 3,
            },
            Request::AbortRound { round_id: 17 },
            Request::RoundStatus { round_id: 17 },
            Request::OpenStream {
                spec: StreamSpec {
                    round: round_spec(),
                    sample_target: 3,
                    seed: 9,
                },
            },
            Request::Arrive {
                envelope: bid_envelope(),
            },
            Request::CloseStream { round_id: 17 },
        ]
    }

    #[test]
    fn request_variants_round_trip() {
        for req in requests() {
            let json = serde_json::to_string(&req).expect("serialize");
            let back: Request = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, req);
        }
    }

    /// An uncertain instance whose probability (`2^-7`) and shortfall
    /// bound (`2^-10`) render to digit strings that appear nowhere else in
    /// the encoded document, so tests can corrupt exactly one field by
    /// textual substitution.
    fn uncertain_instance() -> Instance {
        let inst = instance();
        let rows = (0..inst.num_workers())
            .map(|_| vec![(TaskId(0), 0.0078125)])
            .collect();
        let model = mcs_types::CompletionModel::Bernoulli(mcs_types::BernoulliCompletion::new(
            rows,
            vec![0.0009765625; inst.num_tasks()],
        ));
        inst.with_completion(model)
            .expect("in-range completion model")
    }

    #[test]
    fn uncertain_request_round_trips() {
        let req = Request::QueryPmf {
            instance: uncertain_instance(),
            epsilon: 0.1,
        };
        let json = serde_json::to_string(&req).expect("serialize");
        assert_eq!(decode_request(&json).expect("decode"), req);
    }

    #[test]
    fn out_of_range_probability_is_rejected_typed() {
        let req = Request::QueryPmf {
            instance: uncertain_instance(),
            epsilon: 0.1,
        };
        let json = serde_json::to_string(&req).expect("serialize");
        for (bad, expect) in [("2.0078125", 2.0078125), ("0.0", 0.0), ("-0.5", -0.5)] {
            let line = json.replace("0.0078125", bad);
            match decode_request(&line) {
                Err(WireError::InvalidProbability {
                    worker,
                    task,
                    value,
                }) => {
                    assert_eq!((worker, task), (0, 0));
                    assert_eq!(value, expect);
                }
                other => panic!("p = {bad} must fail typed, got {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_range_shortfall_bound_is_rejected_typed() {
        let req = Request::RunAuction {
            instance: uncertain_instance(),
            epsilon: 0.1,
            seed: 7,
        };
        let json = serde_json::to_string(&req).expect("serialize");
        let line = json.replace("0.0009765625", "1.0009765625");
        match decode_request(&line) {
            Err(WireError::InvalidShortfallBound { task, value }) => {
                assert_eq!(task, 0);
                assert_eq!(value, 1.0009765625);
            }
            other => panic!("gamma > 1 must fail typed, got {other:?}"),
        }
    }

    /// One response of every variant.
    fn responses() -> Vec<Response> {
        vec![
            Response::Outcome(AuctionOutcome::new(
                Price::from_f64(40.0),
                vec![WorkerId(2), WorkerId(0)],
            )),
            Response::Pmf(PmfSummary {
                prices: vec![Price::from_f64(10.0), Price::from_f64(20.0)],
                probs: vec![0.25, 0.75],
            }),
            Response::Health(HealthReport {
                workers: 2,
                queue_capacity: 64,
                cache_entries: 1,
                cache_capacity: 32,
                draining: false,
                recovered_rounds: 3,
                last_synced_lsn: 41,
                wal_size_bytes: 2048,
            }),
            Response::Metrics(MetricsReport {
                endpoints: vec![EndpointMetrics {
                    endpoint: "run_auction".to_string(),
                    count: 3,
                    errors: 1,
                    batched: 2,
                    busy: 7,
                    latency: Some(LatencySummary {
                        p50_us: 100,
                        p95_us: 200,
                        p99_us: 300,
                        max_us: 280,
                    }),
                }],
                cache_hits: 2,
                cache_misses: 1,
                rejected_busy: 4,
                wal_frames: 12,
                wal_fsyncs: 9,
                envelope_rejections: 5,
            }),
            Response::Busy {
                retry_after_hint_ms: 10,
            },
            Response::ShuttingDown,
            Response::Error {
                message: "infeasible".to_string(),
            },
            Response::Opened {
                round_id: 17,
                lsn: 1,
            },
            Response::BidAccepted {
                round_id: 17,
                lsn: 2,
            },
            Response::Committed(Box::new(CommitReceipt {
                round_id: 17,
                price: Price::from_f64(4.0),
                winners: vec![WorkerId(0), WorkerId(2)],
                payments: vec![
                    PaymentRecord {
                        worker: WorkerId(0),
                        amount: Price::from_f64(4.0),
                    },
                    PaymentRecord {
                        worker: WorkerId(2),
                        amount: Price::from_f64(4.0),
                    },
                ],
                lsn: 6,
                already_committed: false,
            })),
            Response::Aborted {
                round_id: 18,
                lsn: 7,
            },
            Response::RoundStatus(RoundStatusView {
                round_id: 17,
                phase: "settled".to_string(),
                bids_admitted: 3,
                winners: vec![WorkerId(0)],
                total_paid: Price::from_f64(4.0),
            }),
            Response::Rejected {
                code: "bad_signature".to_string(),
                detail: "signature rejected: verification failed".to_string(),
            },
            Response::StreamOpened {
                round_id: 21,
                lsn: 1,
                sample_target: 3,
            },
            Response::ArrivalDecided {
                round_id: 21,
                worker: WorkerId(4),
                accepted: true,
                payment: Price::from_f64(6.0),
                reason: "accepted".to_string(),
                posted_price: Some(Price::from_f64(6.0)),
                lsn: 5,
            },
            Response::ArrivalDecided {
                round_id: 21,
                worker: WorkerId(5),
                accepted: false,
                payment: Price::ZERO,
                reason: "sample_observed".to_string(),
                posted_price: None,
                lsn: 6,
            },
            Response::StreamClosed(Box::new(StreamReceipt {
                round_id: 21,
                arrivals: 9,
                accepted: vec![WorkerId(2), WorkerId(4)],
                posted_price: Some(Price::from_f64(6.0)),
                total_paid: Price::from_f64(12.0),
                covered: true,
                lsn: 11,
                already_closed: false,
            })),
            Response::StreamStatus(StreamStatusView {
                round_id: 21,
                phase: "streaming".to_string(),
                arrivals: 4,
                sample_target: 3,
                accepted: vec![WorkerId(2)],
                posted_price: Some(Price::from_f64(6.0)),
                total_paid: Price::from_f64(6.0),
                covered: false,
            }),
        ]
    }

    #[test]
    fn response_variants_round_trip() {
        for resp in responses() {
            let json = serde_json::to_string(&resp).expect("serialize");
            let back: Response = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(serde_json::from_str::<Request>(r#"{"type": "emit_tokens"}"#).is_err());
        assert!(serde_json::from_str::<Response>(r#"{"type": "teapot"}"#).is_err());
        assert!(serde_json::from_str::<Request>(r#"{"seed": 1}"#).is_err());
    }

    #[test]
    fn checked_decode_accepts_clean_lines() {
        let req = Request::RunAuction {
            instance: instance(),
            epsilon: 0.1,
            seed: 7,
        };
        let json = serde_json::to_string(&req).expect("serialize");
        assert_eq!(decode_request(&json).expect("decode"), req);
        let resp = Response::Busy {
            retry_after_hint_ms: 5,
        };
        let json = serde_json::to_string(&resp).expect("serialize");
        assert_eq!(decode_response(&json).expect("decode"), resp);
    }

    #[test]
    fn non_finite_floats_are_rejected_with_path() {
        // `1e999` overflows to +inf in the parser; the unchecked decode
        // path would happily build a Request carrying an infinite ε.
        let line = r#"{"type": "query_pmf", "instance": null, "epsilon": 1e999}"#;
        match decode_request(line) {
            Err(WireError::NonFinite { path }) => assert_eq!(path, "$.epsilon"),
            other => panic!("expected NonFinite, got {other:?}"),
        }
        // Nested occurrences are found and located too.
        let line = r#"{"type": "error", "message": "x", "extra": [1.0, [-1e999]]}"#;
        match decode_response(line) {
            Err(WireError::NonFinite { path }) => assert_eq!(path, "$.extra[1][0]"),
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_keys_are_rejected_with_path() {
        let line = r#"{"type": "health", "type": "metrics"}"#;
        match decode_request(line) {
            Err(WireError::DuplicateKey { path, key }) => {
                assert_eq!(path, "$");
                assert_eq!(key, "type");
            }
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
        // A duplicate buried in a nested object is still caught, even
        // though `Value::get` would silently resolve to the first value.
        let line = r#"{"type": "run_auction", "instance": {"num_tasks": 1, "num_tasks": 2}, "epsilon": 0.1, "seed": 1}"#;
        match decode_request(line) {
            Err(WireError::DuplicateKey { path, key }) => {
                assert_eq!(path, "$.instance");
                assert_eq!(key, "num_tasks");
            }
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
    }

    #[test]
    fn syntax_and_shape_errors_stay_typed() {
        assert!(matches!(
            decode_request("{not json"),
            Err(WireError::Syntax(_))
        ));
        assert!(matches!(
            decode_request(r#"{"type": "emit_tokens"}"#),
            Err(WireError::Shape(_))
        ));
        assert!(matches!(
            decode_response(r#"{"type": "busy"}"#),
            Err(WireError::Shape(_))
        ));
    }

    /// The instance of [`instance`] with a CSR θ: each worker informative
    /// on the tasks of its bundle only.
    fn csr_instance() -> Instance {
        let inst = instance();
        let entries = inst.bids().iter().flat_map(|(worker, bid)| {
            let bundle: Vec<TaskId> = bid.bundle().iter().collect();
            bundle.into_iter().map(move |task| (worker, task, 0.85))
        });
        let skills = SkillMatrix::from_sparse(inst.num_workers(), inst.num_tasks(), entries)
            .expect("in-range sparse skills");
        Instance::builder(inst.num_tasks())
            .bid_profile(inst.bids().clone())
            .skills(skills)
            .error_bounds(inst.deltas().to_vec())
            .price_grid(inst.price_grid().clone())
            .cost_range(inst.cmin(), inst.cmax())
            .build()
            .expect("valid CSR instance")
    }

    /// Every request variant, plus auctions over Table I Settings I–IV
    /// (III and IV scaled down), a CSR θ and an uncertain instance.
    fn requests_with_every_instance_shape() -> Vec<Request> {
        let mut all = requests();
        let shapes = [
            Setting::one(140).generate(1).instance,
            Setting::two(50).generate(2).instance,
            Setting::three(800).scaled_down(4).generate(3).instance,
            Setting::four(200).scaled_down(4).generate(4).instance,
            csr_instance(),
            uncertain_instance(),
        ];
        for instance in shapes {
            all.push(Request::QueryPmf {
                instance: instance.clone(),
                epsilon: 0.3,
            });
            all.push(Request::RunAuction {
                instance,
                epsilon: 0.1,
                seed: 5,
            });
        }
        all
    }

    /// The direct writer and the tree (`to_value`, then print) agree byte
    /// for byte, and pretty printing still prints the tree of the compact
    /// line.
    fn assert_writers_agree<T: Serialize + std::fmt::Debug>(value: &T) {
        let direct = serde_json::to_string(value).expect("serialize");
        let tree = value.to_value();
        assert_eq!(
            serde_json::to_string(&tree).expect("serialize tree"),
            direct,
            "{value:?}"
        );
        let parsed: Value = serde_json::from_str(&direct).expect("parse");
        assert_eq!(tree, parsed);
        assert_eq!(
            serde_json::to_string_pretty(value).expect("pretty"),
            serde_json::to_string_pretty(&parsed).expect("pretty tree")
        );
    }

    #[test]
    fn direct_and_tree_writers_give_the_same_bytes() {
        for req in requests_with_every_instance_shape() {
            assert_writers_agree(&req);
        }
        for resp in responses() {
            assert_writers_agree(&resp);
        }
    }

    #[test]
    fn the_one_pass_reader_takes_every_written_request() {
        for req in requests_with_every_instance_shape() {
            let line = serde_json::to_string(&req).expect("serialize");
            assert_eq!(
                serde::read_document::<Request>(&line).as_ref(),
                Some(&req),
                "{}",
                req.endpoint()
            );
            assert_eq!(decode_request(&line), Ok(req));
        }
    }

    /// Edits of a written line that the one-pass reader refuses: the tag
    /// moved last, an unknown member, an escaped key, a repeated member and
    /// a missing one. `member` is a `"key":value,` run of the line.
    fn edits_the_reader_refuses(line: &str, member: &str) -> Vec<String> {
        let (tag, body) = line[1..].split_once(',').expect("the tag comes first");
        let key = member.split(':').next().expect("a key");
        let escaped = format!(r#""\u{:04x}{}"#, key.as_bytes()[1], &key[2..]);
        vec![
            format!("{{{},{tag}}}", &body[..body.len() - 1]),
            line.replacen(member, &format!(r#"{member}"note":[1,{{"a":null}}],"#), 1),
            line.replacen(key, &escaped, 1),
            line.replacen(member, &member.repeat(2), 1),
            line.replacen(member, "", 1),
        ]
    }

    #[test]
    fn lines_the_one_pass_reader_leaves_decode_as_on_the_tree_path() {
        let line = serde_json::to_string(&requests()[0]).expect("serialize");
        let variants = [
            // The tag after the other members.
            line.replacen(r#""type":"run_auction","#, "", 1).replacen(
                r#","seed":7}"#,
                r#","seed":7,"type":"run_auction"}"#,
                1,
            ),
            // An unknown member, which the tree path ignores.
            line.replacen(r#""seed":7"#, r#""seed":7,"note":[1,{"a":null}]"#, 1),
            // An escaped key and an escaped tag.
            line.replacen(r#""epsilon""#, r#""eps\u0069lon""#, 1),
            line.replacen(r#""run_auction""#, r#""run\u005fauction""#, 1),
            // The completion model left out: it defaults to deterministic.
            line.replacen(r#","completion":{"model":"deterministic"}"#, "", 1),
            // A whole number where a float belongs, and `-0`.
            line.replacen(r#""epsilon":0.1"#, r#""epsilon":1"#, 1),
            line.replacen(r#""seed":7"#, r#""seed":-0"#, 1),
            // Errors: a repeated member, a bad escape, a non-finite number.
            line.replacen(r#""seed":7"#, r#""seed":7,"seed":8"#, 1),
            line.replacen(r#""epsilon""#, r#""eps\u+069lon""#, 1),
            line.replacen(r#""epsilon":0.1"#, r#""epsilon":1e999"#, 1),
        ];
        for variant in &variants {
            assert_ne!(variant, &line);
            assert_eq!(
                decode_request(variant),
                decode_request_via_tree(variant),
                "{variant}"
            );
        }
        assert!(decode_request(&variants[0]).is_ok());
        assert!(decode_request(&variants[1]).is_ok());
        assert!(decode_request(&variants[2]).is_ok());
        assert!(matches!(
            decode_request(&variants[7]),
            Err(WireError::DuplicateKey { .. })
        ));
        // The same edits to an auction, an `open_stream` and an `arrive`
        // line, in and below the tagged object.
        let all = requests();
        for (req, member) in [
            (&all[0], r#""epsilon":0.1,"#),
            (&all[10], r#""sample_target":3,"#),
            (&all[11], r#""nonce":42,"#),
        ] {
            let line = serde_json::to_string(req).expect("serialize");
            let edits = edits_the_reader_refuses(&line, member);
            for edit in &edits {
                assert!(serde::read_document::<Request>(edit).is_none(), "{edit}");
                assert_eq!(
                    decode_request(edit),
                    decode_request_via_tree(edit),
                    "{edit}"
                );
            }
            for edit in &edits[..3] {
                assert_eq!(decode_request(edit).as_ref(), Ok(req), "{edit}");
            }
            assert!(matches!(
                decode_request(&edits[3]),
                Err(WireError::DuplicateKey { .. })
            ));
            assert!(matches!(
                decode_request(&edits[4]),
                Err(WireError::Shape(_))
            ));
        }
    }

    /// `{"type":"health", "k0":0, …}` with `keys` extra members, plus
    /// `tail` before the closing brace.
    fn health_with_keys(keys: usize, tail: &str) -> String {
        let mut line = String::from(r#"{"type":"health""#);
        for i in 0..keys {
            line.push_str(&format!(r#","k{i}":0"#));
        }
        line.push_str(tail);
        line.push('}');
        line
    }

    #[test]
    fn the_duplicate_key_check_is_not_quadratic() {
        // 40 000 distinct keys: ≈ 0.5 MB, the size of a Setting I auction
        // line. Comparing each key with every earlier one takes over 2 s
        // on this line in a release build (≈ 10 s in the dev profile).
        let line = health_with_keys(40_000, "");
        let started = std::time::Instant::now();
        assert_eq!(decode_request(&line), Ok(Request::Health));
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
        // A repeat placed last is still the one reported.
        let line = format!(
            r#"{{"type":"health","extra":{}}}"#,
            health_with_keys(40_000, r#","k17":1"#)
        );
        assert_eq!(
            decode_request(&line),
            Err(WireError::DuplicateKey {
                path: "$.extra".to_string(),
                key: "k17".to_string(),
            })
        );
    }

    #[test]
    fn the_endpoint_is_the_type_tag() {
        for req in requests() {
            let line = serde_json::to_string(&req).expect("serialize");
            let tree: Value = serde_json::from_str(&line).expect("parse");
            let tag = Value::String(req.endpoint().to_string());
            assert_eq!(tree.get("type"), Some(&tag), "{line}");
        }
    }
}
