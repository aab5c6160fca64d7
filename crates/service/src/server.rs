//! The service core: one bounded job queue, the worker pool that pulls
//! from it, and the in-process [`Client`].
//!
//! ```text
//! clients ──push──▶ job queue (bounded) ──pop + same-key jobs──▶ workers
//! ```
//!
//! A worker that pops a job with a [`CacheKey`] also takes every queued
//! job with the same key, in queue order, so identical requests share one
//! cache lookup or schedule build. No batching window is needed: jobs
//! only wait while every worker is busy, which is when coalescing pays.
//! A full queue answers [`Response::Busy`] at once — backpressure is a
//! typed answer, not a stalled caller.
//!
//! The draining flag lives under the queue lock, so once
//! [`Service::shutdown`] sets it no request can enter the queue; the
//! workers empty the queue before they exit, so every accepted request is
//! answered. Each batch runs under [`std::panic::catch_unwind`]: a panic
//! costs only that batch's unanswered callers their answer (a "service
//! dropped the request" error), never a worker.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use mcs_auction::{DpHsrcAuction, ScheduledMechanism};
use mcs_num::rng;
use mcs_sim::platform::run_round_resilient;
use mcs_types::McsError;

use crate::cache::{CacheKey, PmfCache};
use crate::ledger::{system_now_ms, DurabilityConfig, DurableLedger, RoundError};
use crate::memo::DecodeMemo;
use crate::metrics::MetricsRegistry;
use crate::wal::WalError;
use crate::wire::{HealthReport, PmfSummary, Request, Response};

/// The back-off hint (ms) that every [`Response::Busy`] carries.
pub const BUSY_RETRY_HINT_MS: u64 = 10;

/// Tuning knobs of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing schedule builds and rounds.
    pub workers: usize,
    /// Jobs the queue holds while every worker is busy; a full queue
    /// answers [`Response::Busy`].
    pub queue_depth: usize,
    /// Maximum price schedules kept in the LRU cache.
    pub cache_capacity: usize,
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
            cache_capacity: 32,
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

/// The waiting jobs and the draining flag, under one lock so shutdown
/// cannot race a request into a queue nobody will empty.
struct Queue {
    jobs: VecDeque<Job>,
    draining: bool,
}

struct Shared {
    cache: PmfCache,
    /// Decoded instances of recent wire lines, bounded like `cache`.
    memo: DecodeMemo,
    metrics: MetricsRegistry,
    config: ServiceConfig,
    queue: Mutex<Queue>,
    /// Signalled when a job is queued or the service starts draining.
    ready: Condvar,
    /// Durable round state, present when [`ServiceConfig::durability`]
    /// is set. The mutex serialises the WAL append → fsync → apply
    /// sequence so frames hit the log in LSN order.
    durable: Option<Mutex<DurableLedger>>,
}

impl Shared {
    /// Every queue update leaves it valid, so a poisoned lock is taken over.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An in-process handle for talking to a running [`Service`].
///
/// Cheap to clone; clones share the service's queue. A `Client` may
/// outlive its service, in which case calls answer
/// [`Response::ShuttingDown`].
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Submits one request and blocks until its response.
    ///
    /// Never blocks on a *full* service: a full queue returns
    /// [`Response::Busy`] immediately, and a draining service returns
    /// [`Response::ShuttingDown`]. Blocking happens only while an
    /// *accepted* request is worked on.
    pub fn call(&self, request: Request) -> Response {
        let key = batch_key(&request);
        self.submit(request, key)
    }

    /// Decodes one wire line and answers it, as the TCP front-end does: a
    /// line that does not decode is answered with a `malformed request`
    /// [`Response::Error`]. Lines go through the service's decode memo, so
    /// a `run_auction` or `query_pmf` line that repeats the exact bytes of
    /// a recently decoded instance is neither parsed nor digested again.
    pub fn call_line(&self, line: &str) -> Response {
        match self.shared.memo.decode(line) {
            Ok((request, key)) => self.submit(request, key),
            Err(err) => err.answer(),
        }
    }

    /// Queues `request` under its cache `key` and waits for the answer.
    fn submit(&self, request: Request, key: Option<CacheKey>) -> Response {
        let (reply, reply_rx) = sync_channel(1);
        // The key was digested on the caller's thread, outside the queue
        // lock: the worker coalesces and looks the cache up with it.
        let job = Job {
            enqueued_at: Instant::now(),
            key,
            request,
            reply,
        };
        {
            let mut queue = self.shared.queue();
            if queue.draining {
                return Response::ShuttingDown;
            }
            if queue.jobs.len() >= self.shared.config.queue_depth.max(1) {
                self.shared.metrics.record_busy(job.request.endpoint());
                return Response::Busy {
                    retry_after_hint_ms: BUSY_RETRY_HINT_MS,
                };
            }
            queue.jobs.push_back(job);
        }
        self.shared.ready.notify_one();
        match reply_rx.recv() {
            Ok(response) => response,
            // Dropped unanswered: the batch holding this job panicked.
            Err(_) => Response::Error {
                message: "service dropped the request".to_string(),
            },
        }
    }
}

/// A running auction service: job queue + worker pool + cache.
///
/// Start one with [`Service::start`], talk to it through [`Service::client`]
/// (or wrap the client in a [`crate::TcpServer`]), and stop it with
/// [`Service::shutdown`]. Dropping the service also shuts it down.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker threads.
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
        let shared = Arc::new(Shared {
            cache: PmfCache::new(config.cache_capacity),
            memo: DecodeMemo::new(config.cache_capacity),
            metrics: MetricsRegistry::new(),
            queue: Mutex::new(Queue {
                jobs: VecDeque::with_capacity(config.queue_depth.max(1)),
                draining: false,
            }),
            ready: Condvar::new(),
            durable,
            config,
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mcs-service-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(Service { shared, workers })
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
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops accepting requests, drains everything already accepted, and
    /// joins all threads. Every request accepted before the call is
    /// answered before this returns.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shared.queue().draining = true;
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The cache key of a batchable request; `None` for requests that are
/// never coalesced.
fn batch_key(request: &Request) -> Option<CacheKey> {
    let (instance, epsilon) = request.pmf_input()?;
    Some(CacheKey::new(instance, epsilon))
}

/// Pops the front job together with every queued job that has the same
/// cache key, in queue order. A job without a key comes alone.
fn take_batch(jobs: &mut VecDeque<Job>) -> Option<Vec<Job>> {
    let mut batch = vec![jobs.pop_front()?];
    if let Some(key) = batch[0].key {
        for _ in 0..jobs.len() {
            let job = jobs.pop_front().expect("one pop per queued job");
            if job.key == Some(key) {
                batch.push(job);
            } else {
                jobs.push_back(job);
            }
        }
    }
    Some(batch)
}

fn worker_loop(shared: &Shared) {
    loop {
        let mut queue = shared
            .ready
            .wait_while(shared.queue(), |q| q.jobs.is_empty() && !q.draining)
            .unwrap_or_else(PoisonError::into_inner);
        // An empty queue here means the service is draining and done.
        let Some(batch) = take_batch(&mut queue.jobs) else {
            return;
        };
        drop(queue);
        // A panic drops the batch's unanswered reply senders, which their
        // callers see as a typed error; the worker carries on.
        let _ = panic::catch_unwind(AssertUnwindSafe(|| answer_batch(shared, batch)));
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

fn answer_batch(shared: &Shared, batch: Vec<Job>) {
    let batched = batch.len() > 1;
    if let Some(key) = batch[0].key {
        // One schedule/PMF build serves the whole batch.
        // Only requests with a PMF input carry a key, so this never returns.
        let Some((instance, epsilon)) = batch[0].request.pmf_input() else {
            return;
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
                    draining: shared.queue().draining,
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

fn finish(shared: &Shared, job: Job, response: Response, batched: bool) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tags<'a>(jobs: impl IntoIterator<Item = &'a Job>) -> Vec<u64> {
        let tag = |job: &Job| match job.request {
            Request::RoundStatus { round_id } => round_id,
            _ => unreachable!("test jobs are tagged round-status probes"),
        };
        jobs.into_iter().map(tag).collect()
    }

    #[test]
    fn a_popped_job_takes_its_same_key_twins_in_queue_order() {
        let g = mcs_sim::Setting::one(80).scaled_down(8).generate(1);
        let [a, b, c] = [0.1, 0.2, 0.3].map(|eps| Some(CacheKey::new(&g.instance, eps)));
        let (reply, _rx) = sync_channel(1);
        let job = |tag, key| Job {
            request: Request::RoundStatus { round_id: tag },
            key,
            reply: reply.clone(),
            enqueued_at: Instant::now(),
        };
        // A1 B1 A2 K C1 A3, where K has no key.
        let order = [(1, a), (2, b), (3, a), (4, None), (5, c), (6, a)];
        let mut queue: VecDeque<Job> = order.into_iter().map(|(t, k)| job(t, k)).collect();
        assert_eq!(tags(&take_batch(&mut queue).unwrap()), [1, 3, 6]);
        assert_eq!(tags(&queue), [2, 4, 5]);
        assert_eq!(tags(&take_batch(&mut queue).unwrap()), [2]);
        // A keyless job never coalesces, not even with another keyless one.
        queue.push_back(job(7, None));
        assert_eq!(tags(&take_batch(&mut queue).unwrap()), [4]);
        assert_eq!(tags(&queue), [5, 7]);
    }

    /// `call_line` decodes through the service's own memo, which the
    /// cache capacity bounds and switches off.
    #[test]
    fn call_line_decodes_through_the_service_memo() {
        let instances: Vec<_> = (0..3)
            .map(|seed| {
                mcs_sim::Setting::one(80)
                    .scaled_down(8)
                    .generate(seed)
                    .instance
            })
            .collect();
        let line = |instance: &mcs_types::Instance| {
            let request = Request::RunAuction {
                instance: instance.clone(),
                epsilon: 0.1,
                seed: 1,
            };
            serde_json::to_string(&request).expect("serialize")
        };
        let held = |instance| serde_json::to_string(instance).expect("serialize").len();
        for capacity in [0, 2] {
            let service = Service::start(ServiceConfig {
                cache_capacity: capacity,
                ..ServiceConfig::default()
            });
            let client = service.client();
            let memo = &service.shared.memo;
            // Memoised on the second sighting, served on the third.
            let first = client.call_line(&line(&instances[0]));
            assert!(matches!(first, Response::Outcome(_)));
            for _ in 0..2 {
                assert_eq!(client.call_line(&line(&instances[0])), first);
            }
            let served = usize::from(capacity > 0);
            assert_eq!((memo.hits(), memo.len()), (served as u64, served));
            // One instance more than the capacity: the first is evicted.
            for instance in [&instances[1], &instances[1], &instances[2], &instances[2]] {
                assert!(matches!(
                    client.call_line(&line(instance)),
                    Response::Outcome(_)
                ));
            }
            assert_eq!(memo.len(), capacity);
            let resident: usize = instances[3 - capacity..].iter().map(held).sum();
            assert_eq!(memo.bytes(), resident);
            assert!(memo.bytes() <= DecodeMemo::MAX_BYTES);
            service.shutdown();
        }
    }

    /// A burst of same-instance requests queued behind the single worker
    /// is answered by one schedule build. The whole burst is queued in one
    /// critical section, so the worker cannot pop any of it before the
    /// rest is in.
    #[test]
    fn same_key_burst_coalesces_into_batches() {
        // No cache, one worker: every batch is exactly one build, so the
        // miss counter counts builds directly.
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_depth: 64,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        const BURST: usize = 6;
        let instance = mcs_sim::Setting::one(80)
            .scaled_down(8)
            .generate(7)
            .instance;
        let replies: Vec<_> = {
            let mut queue = service.shared.queue();
            (0..BURST)
                .map(|i| {
                    let request = Request::RunAuction {
                        instance: instance.clone(),
                        epsilon: 0.1,
                        seed: i as u64,
                    };
                    let (reply, reply_rx) = sync_channel(1);
                    queue.jobs.push_back(Job {
                        key: batch_key(&request),
                        request,
                        reply,
                        enqueued_at: Instant::now(),
                    });
                    reply_rx
                })
                .collect()
        };
        service.shared.ready.notify_all();
        for reply in replies {
            assert!(matches!(reply.recv(), Ok(Response::Outcome(_))));
        }

        let Response::Metrics(metrics) = service.client().call(Request::Metrics) else {
            panic!("metrics request failed");
        };
        assert_eq!(metrics.cache_misses, 1, "one build for the whole burst");
        let batched: u64 = metrics.endpoints.iter().map(|e| e.batched).sum();
        assert_eq!(batched, BURST as u64);
        service.shutdown();
    }
}
