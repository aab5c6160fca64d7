//! The service core: bounded accept queue, batching dispatcher, worker
//! pool, and the in-process [`Client`].
//!
//! # Thread topology
//!
//! ```text
//! clients ──try_send──▶ accept queue ──▶ dispatcher ──send──▶ batch queue ──▶ workers
//!   (N)                 (bounded)        (batches by           (bounded)       (pool)
//!                                         cache key)
//! ```
//!
//! Every queue is a bounded [`std::sync::mpsc::sync_channel`]; nothing in
//! the hot path blocks a client. When the accept queue is full,
//! [`Client::call`] returns [`Response::Busy`] immediately instead of
//! blocking — backpressure is a *typed answer*, not a stalled caller.
//!
//! # Shutdown
//!
//! [`Service::shutdown`] flips the draining flag under the same lock that
//! guards request admission, so after the flag is visible no new request
//! can have entered the queue. The dispatcher then sweeps the queue dry,
//! the workers drain their batch queue, and every accepted request is
//! answered before the threads join.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcs_auction::{DpHsrcAuction, ScheduledMechanism};
use mcs_num::rng;
use mcs_sim::platform::run_round_resilient;
use mcs_types::McsError;

use crate::cache::{CacheKey, PmfCache};
use crate::ledger::{system_now_ms, DurabilityConfig, DurableLedger, RoundError};
use crate::metrics::MetricsRegistry;
use crate::wal::WalError;
use crate::wire::{HealthReport, PmfSummary, Request, Response};

/// Tuning knobs of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing schedule builds and rounds.
    pub workers: usize,
    /// Capacity of the bounded accept queue; a full queue answers
    /// [`Response::Busy`].
    pub queue_depth: usize,
    /// How long the dispatcher holds a batch open for further requests
    /// with the same cache key.
    pub batch_window: Duration,
    /// Maximum requests coalesced into one batch.
    pub max_batch: usize,
    /// Maximum price schedules kept in the LRU cache.
    pub cache_capacity: usize,
    /// Back-off hint handed to rejected clients.
    pub retry_after_hint_ms: u64,
    /// Durable round state. `Some` opens (and recovers) a write-ahead
    /// log in the given directory and enables the round-lifecycle
    /// endpoints; `None` (the default) keeps the service stateless and
    /// answers those endpoints with [`Response::Error`].
    pub durability: Option<DurabilityConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_depth: 64,
            batch_window: Duration::from_millis(2),
            max_batch: 16,
            cache_capacity: 32,
            retry_after_hint_ms: 10,
            durability: None,
        }
    }
}

struct Job {
    request: Request,
    /// The request's cache key, digested once when the job is made; `None`
    /// for requests that are never coalesced.
    key: Option<CacheKey>,
    reply: SyncSender<Response>,
    enqueued_at: Instant,
}

struct Shared {
    cache: PmfCache,
    metrics: MetricsRegistry,
    config: ServiceConfig,
    draining: AtomicBool,
    /// Durable round state, present when [`ServiceConfig::durability`]
    /// is set. The mutex serialises the WAL append → fsync → apply
    /// sequence so frames hit the log in LSN order.
    durable: Option<Mutex<DurableLedger>>,
}

/// An in-process handle for talking to a running [`Service`].
///
/// Cheap to clone; clones share the service's queues. A `Client` may
/// outlive its service, in which case calls answer
/// [`Response::ShuttingDown`].
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
    accept_tx: SyncSender<Job>,
    gate: Arc<Mutex<()>>,
}

impl Client {
    /// Submits one request and blocks until its response.
    ///
    /// Never blocks on a *full* service: a full accept queue returns
    /// [`Response::Busy`] immediately, and a draining service returns
    /// [`Response::ShuttingDown`]. Blocking happens only while an
    /// *accepted* request is worked on.
    pub fn call(&self, request: Request) -> Response {
        let (reply_tx, reply_rx) = sync_channel(1);
        let enqueued_at = Instant::now();
        // Digest on the caller's thread, outside the admission gate: the
        // dispatcher and the worker reuse the key instead of re-hashing
        // the instance.
        let key = batch_key(&request);
        let job = Job {
            request,
            key,
            reply: reply_tx,
            enqueued_at,
        };
        {
            // Admission and the draining flag are checked under one lock
            // so shutdown cannot race a request into a dead queue.
            let _gate = self.gate.lock().expect("admission gate poisoned");
            if self.shared.draining.load(Ordering::SeqCst) {
                return Response::ShuttingDown;
            }
            match self.accept_tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(job)) => {
                    self.shared.metrics.record_busy(job.request.endpoint());
                    return Response::Busy {
                        retry_after_hint_ms: self.shared.config.retry_after_hint_ms,
                    };
                }
                Err(TrySendError::Disconnected(_)) => return Response::ShuttingDown,
            }
        }
        match reply_rx.recv() {
            Ok(response) => response,
            // The worker dropped the reply sender without answering; only
            // possible if a worker thread died mid-request.
            Err(_) => Response::Error {
                message: "service dropped the request".to_string(),
            },
        }
    }
}

/// A running auction service: dispatcher + worker pool + cache.
///
/// Start one with [`Service::start`], talk to it through [`Service::client`]
/// (or wrap the client in a [`crate::TcpServer`]), and stop it with
/// [`Service::shutdown`]. Dropping the service also shuts it down.
pub struct Service {
    shared: Arc<Shared>,
    gate: Arc<Mutex<()>>,
    accept_tx: Option<SyncSender<Job>>,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the dispatcher and worker threads.
    ///
    /// # Panics
    ///
    /// Panics if [`ServiceConfig::durability`] is set and opening or
    /// recovering the write-ahead log fails; use [`Service::try_start`]
    /// to handle that as a typed error.
    pub fn start(config: ServiceConfig) -> Self {
        Self::try_start(config).expect("open durable round log")
    }

    /// [`Service::start`], surfacing WAL open/recovery failures.
    ///
    /// # Errors
    ///
    /// [`WalError`] if [`ServiceConfig::durability`] is set and the log
    /// directory cannot be opened, read, or recovered.
    pub fn try_start(config: ServiceConfig) -> Result<Self, WalError> {
        let durable = match &config.durability {
            Some(durability) => Some(Mutex::new(DurableLedger::open(durability)?)),
            None => None,
        };
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            cache: PmfCache::new(config.cache_capacity),
            metrics: MetricsRegistry::new(),
            config: config.clone(),
            draining: AtomicBool::new(false),
            durable,
        });
        let gate = Arc::new(Mutex::new(()));
        let (accept_tx, accept_rx) = sync_channel::<Job>(config.queue_depth.max(1));
        let (batch_tx, batch_rx) = sync_channel::<Vec<Job>>(workers);
        let batch_rx = Arc::new(Mutex::new(batch_rx));

        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let batch_rx = Arc::clone(&batch_rx);
                std::thread::Builder::new()
                    .name(format!("mcs-service-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &batch_rx))
                    .expect("spawn worker thread")
            })
            .collect();

        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mcs-service-dispatch".to_string())
                .spawn(move || dispatch_loop(&shared, &accept_rx, &batch_tx))
                .expect("spawn dispatcher thread")
        };

        Ok(Service {
            shared,
            gate,
            accept_tx: Some(accept_tx),
            dispatcher: Some(dispatcher),
            workers: worker_handles,
        })
    }

    /// What recovery found while opening the durable log, if durability
    /// is enabled.
    pub fn recovery(&self) -> Option<crate::ledger::RecoveryReport> {
        self.shared.durable.as_ref().map(|d| {
            d.lock()
                .expect("durable ledger poisoned")
                .recovery()
                .clone()
        })
    }

    /// A new in-process client handle.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Service::shutdown`] began (impossible
    /// through safe use, since `shutdown` consumes the service).
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
            accept_tx: self
                .accept_tx
                .clone()
                .expect("service queues already torn down"),
            gate: Arc::clone(&self.gate),
        }
    }

    /// Stops accepting requests, drains everything already accepted, and
    /// joins all threads. Every request accepted before the call is
    /// answered before this returns.
    pub fn shutdown(mut self) {
        self.drain_and_join();
    }

    fn drain_and_join(&mut self) {
        {
            let _gate = self.gate.lock().expect("admission gate poisoned");
            self.shared.draining.store(true, Ordering::SeqCst);
        }
        // Drop our accept sender so the dispatcher can also observe
        // disconnection once every client clone is gone.
        self.accept_tx = None;
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if self.dispatcher.is_some() || !self.workers.is_empty() {
            self.drain_and_join();
        }
    }
}

/// The cache key of a batchable request; `None` for requests that are
/// never coalesced.
fn batch_key(request: &Request) -> Option<CacheKey> {
    match request {
        Request::RunAuction {
            instance, epsilon, ..
        }
        | Request::QueryPmf { instance, epsilon } => Some(CacheKey::new(instance, *epsilon)),
        _ => None,
    }
}

/// How long an idle dispatcher sleeps between checks of the draining flag.
const IDLE_POLL: Duration = Duration::from_millis(20);

fn dispatch_loop(shared: &Arc<Shared>, accept_rx: &Receiver<Job>, batch_tx: &SyncSender<Vec<Job>>) {
    let window = shared.config.batch_window;
    let max_batch = shared.config.max_batch.max(1);
    let mut pending: VecDeque<Job> = VecDeque::new();
    loop {
        let job = match pending.pop_front() {
            Some(job) => job,
            None => {
                if shared.draining.load(Ordering::SeqCst) {
                    // The admission gate guarantees no send can start
                    // after the flag flipped, so a dry queue means done.
                    match accept_rx.try_recv() {
                        Ok(job) => job,
                        Err(_) => break,
                    }
                } else {
                    match accept_rx.recv_timeout(IDLE_POLL) {
                        Ok(job) => job,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }
        };

        let Some(key) = job.key else {
            if batch_tx.send(vec![job]).is_err() {
                break;
            }
            continue;
        };

        let mut batch = vec![job];
        // First absorb same-key jobs that are already waiting.
        let mut rest = VecDeque::with_capacity(pending.len());
        while let Some(next) = pending.pop_front() {
            if batch.len() < max_batch && next.key == Some(key) {
                batch.push(next);
            } else {
                rest.push_back(next);
            }
        }
        pending = rest;
        // Fast path: with a free worker, ship immediately — the batch
        // window only pays off when the pool is saturated, and waiting
        // it out on an idle service would tax every request's latency.
        if batch.len() < max_batch && !shared.draining.load(Ordering::SeqCst) {
            match batch_tx.try_send(batch) {
                Ok(()) => continue,
                Err(TrySendError::Full(returned)) => batch = returned,
                Err(TrySendError::Disconnected(_)) => break,
            }
        }
        // Saturated: hold the window open for stragglers with the same
        // key; skip the wait while draining (no new arrivals come).
        if !shared.draining.load(Ordering::SeqCst) {
            let deadline = Instant::now() + window;
            while batch.len() < max_batch {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match accept_rx.recv_timeout(deadline - now) {
                    Ok(next) => {
                        if next.key == Some(key) {
                            batch.push(next);
                        } else {
                            pending.push_back(next);
                        }
                    }
                    Err(_) => break,
                }
            }
        }
        if batch_tx.send(batch).is_err() {
            break;
        }
    }
    // `batch_tx` drops here: workers finish their queue and exit.
}

fn worker_loop(shared: &Arc<Shared>, batch_rx: &Arc<Mutex<Receiver<Vec<Job>>>>) {
    loop {
        let batch = {
            let rx = batch_rx.lock().expect("batch queue lock poisoned");
            match rx.recv() {
                Ok(batch) => batch,
                Err(_) => break,
            }
        };
        answer_batch(shared, batch);
    }
}

fn error_response(err: &McsError) -> Response {
    Response::Error {
        message: err.to_string(),
    }
}

/// Maps a durable-round refusal to its wire answer, counting envelope
/// rejections (forged, replayed, expired, …) in the metrics.
fn rejection(shared: &Shared, err: &RoundError) -> Response {
    if matches!(err, RoundError::Envelope(_)) {
        shared.metrics.record_envelope_rejection();
    }
    Response::Rejected {
        code: err.code().to_string(),
        detail: err.to_string(),
    }
}

/// Answers one durable-round request, or [`Response::Error`] when the
/// service was started without a durability directory.
fn answer_durable(shared: &Shared, request: &Request) -> Response {
    let Some(durable) = shared.durable.as_ref() else {
        return Response::Error {
            message: "durability is not enabled on this service".to_string(),
        };
    };
    let mut ledger = durable.lock().expect("durable ledger poisoned");
    match request {
        Request::OpenRound { spec } => match ledger.open_round(spec.clone()) {
            Ok(lsn) => Response::Opened {
                round_id: spec.round_id,
                lsn,
            },
            Err(err) => rejection(shared, &err),
        },
        Request::SubmitBid { envelope } => match ledger.submit_bid(envelope, system_now_ms()) {
            Ok(lsn) => Response::BidAccepted {
                round_id: envelope.round_id,
                lsn,
            },
            Err(err) => rejection(shared, &err),
        },
        Request::CommitRound { round_id, seed } => match ledger.commit_round(*round_id, *seed) {
            Ok(receipt) => Response::Committed(Box::new(receipt)),
            Err(err) => rejection(shared, &err),
        },
        Request::AbortRound { round_id } => match ledger.abort_round(*round_id) {
            Ok(lsn) => Response::Aborted {
                round_id: *round_id,
                lsn,
            },
            Err(err) => rejection(shared, &err),
        },
        Request::RoundStatus { round_id } => match ledger.round_status(*round_id) {
            Some(view) => Response::RoundStatus(view),
            // Streams share the id namespace; a status probe for a
            // streaming id answers with the stream view.
            None => match ledger.stream_status(*round_id) {
                Some(view) => Response::StreamStatus(view),
                None => rejection(shared, &RoundError::UnknownRound(*round_id)),
            },
        },
        Request::OpenStream { spec } => match ledger.open_stream(spec.clone()) {
            Ok(lsn) => Response::StreamOpened {
                round_id: spec.round.round_id,
                lsn,
                sample_target: spec.sample_target,
            },
            Err(err) => rejection(shared, &err),
        },
        Request::Arrive { envelope } => match ledger.stream_arrival(envelope, system_now_ms()) {
            Ok((decision, lsn)) => Response::ArrivalDecided {
                round_id: envelope.round_id,
                worker: envelope.worker,
                accepted: decision.accepted,
                payment: decision.payment,
                reason: decision.reason.to_string(),
                posted_price: decision.posted_price,
                lsn,
            },
            Err(err) => rejection(shared, &err),
        },
        Request::CloseStream { round_id } => match ledger.close_stream(*round_id) {
            Ok(receipt) => Response::StreamClosed(Box::new(receipt)),
            Err(err) => rejection(shared, &err),
        },
        _ => Response::Error {
            message: "internal: mis-routed request".to_string(),
        },
    }
}

fn answer_batch(shared: &Arc<Shared>, batch: Vec<Job>) {
    let Some(first) = batch.first() else {
        return;
    };
    let batched = batch.len() > 1;

    if let Some(key) = first.key {
        // One schedule/PMF build serves the whole batch.
        let (instance, epsilon) = match &first.request {
            Request::RunAuction {
                instance, epsilon, ..
            }
            | Request::QueryPmf { instance, epsilon } => (instance, *epsilon),
            // Only these requests carry a key, so this arm is unreachable.
            _ => return,
        };
        let built = shared
            .cache
            .get_or_build(key, || DpHsrcAuction::new(epsilon)?.pmf(instance));
        for job in batch {
            let response = match &built {
                Err(err) => error_response(err),
                Ok((pmf, _hit)) => match &job.request {
                    Request::RunAuction { seed, .. } => {
                        let mut r = rng::seeded(*seed);
                        Response::Outcome(pmf.sample(&mut r))
                    }
                    Request::QueryPmf { .. } => Response::Pmf(PmfSummary {
                        prices: pmf.schedule().prices().to_vec(),
                        probs: pmf.probs().to_vec(),
                    }),
                    _ => Response::Error {
                        message: "internal: mis-routed request".to_string(),
                    },
                },
            };
            finish(shared, job, response, batched);
        }
        return;
    }

    for job in batch {
        let response = match &job.request {
            Request::RunResilientRound {
                instance,
                types,
                epsilon,
                plan,
                config,
                seed,
            } => match DpHsrcAuction::new(*epsilon) {
                Err(err) => error_response(&err),
                Ok(auction) => {
                    let mut r = rng::seeded(*seed);
                    match run_round_resilient(instance, types, &auction, plan, config, &mut r) {
                        Ok(report) => Response::Round(Box::new(report)),
                        Err(err) => error_response(&err),
                    }
                }
            },
            Request::Health => {
                let (recovered_rounds, last_synced_lsn, wal_size_bytes) = shared
                    .durable
                    .as_ref()
                    .map(|d| {
                        let ledger = d.lock().expect("durable ledger poisoned");
                        (
                            ledger.recovery().recovered_rounds,
                            ledger.synced_lsn(),
                            ledger.wal_size_bytes(),
                        )
                    })
                    .unwrap_or((0, 0, 0));
                Response::Health(HealthReport {
                    workers: shared.config.workers.max(1),
                    queue_capacity: shared.config.queue_depth.max(1),
                    cache_entries: shared.cache.len(),
                    cache_capacity: shared.cache.capacity(),
                    draining: shared.draining.load(Ordering::SeqCst),
                    recovered_rounds,
                    last_synced_lsn,
                    wal_size_bytes,
                })
            }
            Request::Metrics => {
                let (wal_frames, wal_fsyncs) = shared
                    .durable
                    .as_ref()
                    .map(|d| {
                        let ledger = d.lock().expect("durable ledger poisoned");
                        (ledger.wal_frames(), ledger.wal_fsyncs())
                    })
                    .unwrap_or((0, 0));
                Response::Metrics(shared.metrics.report_with_wal(
                    shared.cache.hits(),
                    shared.cache.misses(),
                    wal_frames,
                    wal_fsyncs,
                ))
            }
            Request::OpenRound { .. }
            | Request::SubmitBid { .. }
            | Request::CommitRound { .. }
            | Request::AbortRound { .. }
            | Request::RoundStatus { .. }
            | Request::OpenStream { .. }
            | Request::Arrive { .. }
            | Request::CloseStream { .. } => answer_durable(shared, &job.request),
            _ => Response::Error {
                message: "internal: mis-routed request".to_string(),
            },
        };
        finish(shared, job, response, batched);
    }
}

fn finish(shared: &Arc<Shared>, job: Job, response: Response, batched: bool) {
    let errored = matches!(response, Response::Error { .. });
    shared.metrics.record(
        job.request.endpoint(),
        job.enqueued_at.elapsed(),
        batched,
        errored,
    );
    // A client that gave up (dropped its receiver) is not an error.
    let _ = job.reply.send(response);
}
