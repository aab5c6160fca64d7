//! End-to-end service tests: mixed loopback traffic, backpressure,
//! drain-on-shutdown, cache identity, and batching.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mcs_service::{
    Request, Response, Service, ServiceConfig, TcpClient, TcpServer, BUSY_RETRY_HINT_MS,
};
use mcs_sim::faults::FaultPlan;
use mcs_sim::platform::ResilienceConfig;
use mcs_sim::Setting;
use mcs_types::{Instance, TrueType};

fn small(seed: u64) -> (Instance, Vec<TrueType>) {
    let g = Setting::one(80).scaled_down(8).generate(seed);
    (g.instance, g.types)
}

/// The acceptance workload: ≥5k mixed requests over loopback TCP from
/// several concurrent connections; every request gets exactly one
/// response and nothing panics, hangs, or resets.
#[test]
fn five_thousand_mixed_requests_over_loopback() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 1_300; // 5 200 total

    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_depth: 256,
        ..ServiceConfig::default()
    });
    let tcp = TcpServer::bind(service.client(), "127.0.0.1:0").expect("bind loopback");
    let addr = tcp.local_addr();

    let answered = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let answered = Arc::clone(&answered);
            thread::spawn(move || {
                let mut conn = TcpClient::connect(addr).expect("connect");
                // A handful of distinct instances so the cache is
                // exercised in both directions.
                let instances: Vec<(Instance, Vec<TrueType>)> =
                    (0..4).map(|i| small(100 + i)).collect();
                for i in 0..PER_CLIENT {
                    let (instance, types) = &instances[i % instances.len()];
                    let request = match i % 13 {
                        0 => Request::Health,
                        1 => Request::Metrics,
                        2 if i % 650 == 2 => Request::RunResilientRound {
                            instance: instance.clone(),
                            types: types.clone(),
                            epsilon: 0.1,
                            plan: FaultPlan::no_show(0.2, i as u64),
                            config: ResilienceConfig::default(),
                            seed: i as u64,
                        },
                        3..=5 => Request::QueryPmf {
                            instance: instance.clone(),
                            epsilon: 0.1,
                        },
                        _ => Request::RunAuction {
                            instance: instance.clone(),
                            epsilon: 0.1,
                            seed: (c * PER_CLIENT + i) as u64,
                        },
                    };
                    let response = conn.call(&request).expect("every request is answered");
                    match (&request, &response) {
                        (Request::Health, Response::Health(_))
                        | (Request::Metrics, Response::Metrics(_))
                        | (Request::QueryPmf { .. }, Response::Pmf(_))
                        | (Request::RunAuction { .. }, Response::Outcome(_))
                        | (Request::RunResilientRound { .. }, Response::Round(_)) => {}
                        (_, Response::Busy { .. }) => {
                            panic!("queue_depth 256 should never report Busy here")
                        }
                        (req, resp) => panic!("unexpected answer {resp:?} for {req:?}"),
                    }
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }
    assert_eq!(
        answered.load(Ordering::Relaxed),
        (CLIENTS * PER_CLIENT) as u64
    );

    // The cache must have taken the bulk of the auction/PMF load: only a
    // few distinct (instance, ε) keys ever existed.
    let client = service.client();
    let Response::Metrics(metrics) = client.call(Request::Metrics) else {
        panic!("metrics request failed");
    };
    assert!(metrics.cache_hits > 1_000, "hits: {}", metrics.cache_hits);
    assert!(
        metrics.cache_misses < 50,
        "misses: {}",
        metrics.cache_misses
    );
    let total: u64 = metrics.endpoints.iter().map(|e| e.count).sum();
    assert!(total >= (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(metrics.endpoints.iter().map(|e| e.errors).sum::<u64>(), 0);

    tcp.shutdown();
    service.shutdown();
}

/// An undersized queue answers typed `Busy` — it never hangs a caller or
/// resets a connection — and everything accepted still completes.
#[test]
fn undersized_queue_reports_busy() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 1,
        ..ServiceConfig::default()
    });
    let client = service.client();

    const THREADS: usize = 8;
    const PER_THREAD: usize = 4;
    let busy = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let client = client.clone();
            let busy = Arc::clone(&busy);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Distinct instances: every request is a cold build,
                    // keeping the single worker busy enough to back up
                    // the one-slot queue.
                    let (instance, _) = small((t * PER_THREAD + i) as u64);
                    match client.call(Request::RunAuction {
                        instance,
                        epsilon: 0.1,
                        seed: i as u64,
                    }) {
                        Response::Outcome(_) => {
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                        Response::Busy {
                            retry_after_hint_ms,
                        } => {
                            assert_eq!(retry_after_hint_ms, BUSY_RETRY_HINT_MS);
                            busy.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no caller may hang or panic");
    }
    let busy = busy.load(Ordering::Relaxed);
    let done = done.load(Ordering::Relaxed);
    assert_eq!(busy + done, (THREADS * PER_THREAD) as u64);
    assert!(
        busy >= 1,
        "an 8-way stampede on a 1-slot queue must shed load"
    );
    assert!(done >= 1, "accepted requests must still complete");

    let Response::Metrics(metrics) = client.call(Request::Metrics) else {
        panic!("metrics request failed");
    };
    assert_eq!(metrics.rejected_busy, busy);
    service.shutdown();
}

/// Shutdown answers every accepted request before returning, and later
/// calls get a typed `ShuttingDown`.
#[test]
fn shutdown_drains_accepted_requests() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 64,
        ..ServiceConfig::default()
    });
    let client = service.client();

    const THREADS: usize = 12;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let client = client.clone();
            thread::spawn(move || {
                let (instance, _) = small(t as u64);
                client.call(Request::RunAuction {
                    instance,
                    epsilon: 0.1,
                    seed: t as u64,
                })
            })
        })
        .collect();
    // Let the stampede enqueue, then pull the plug while work is queued.
    thread::sleep(Duration::from_millis(20));
    service.shutdown();

    for h in handles {
        match h.join().expect("caller thread panicked") {
            // Accepted before the drain flag: must carry a real answer.
            Response::Outcome(_) => {}
            // Raced the flag or the queue: typed refusals, not hangs.
            Response::ShuttingDown | Response::Busy { .. } => {}
            other => panic!("dropped or mangled response: {other:?}"),
        }
    }
    // The service is gone; the surviving client handle learns that.
    assert_eq!(client.call(Request::Health), Response::ShuttingDown);
}

/// A cache-hit answer is byte-identical to the cold-path answer, for both
/// the sampled auction and the exact PMF.
#[test]
fn cached_responses_are_byte_identical_to_cold() {
    let (instance, _) = small(5);

    // Cold reference: a cache-less service builds from scratch each time.
    let uncached = Service::start(ServiceConfig {
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let cold_client = uncached.client();

    // Cached service: first call is the cold build, second call hits.
    let cached = Service::start(ServiceConfig::default());
    let warm_client = cached.client();

    let auction_req = Request::RunAuction {
        instance: instance.clone(),
        epsilon: 0.1,
        seed: 42,
    };
    let pmf_req = Request::QueryPmf {
        instance,
        epsilon: 0.1,
    };

    let cold_outcome = cold_client.call(auction_req.clone());
    let cold_pmf = cold_client.call(pmf_req.clone());
    let warm_first_outcome = warm_client.call(auction_req.clone());
    let warm_first_pmf = warm_client.call(pmf_req.clone());
    let warm_second_outcome = warm_client.call(auction_req);
    let warm_second_pmf = warm_client.call(pmf_req);

    // The warm service must actually have hit its cache by now.
    let Response::Metrics(metrics) = warm_client.call(Request::Metrics) else {
        panic!("metrics request failed");
    };
    assert!(metrics.cache_hits >= 1, "hits: {}", metrics.cache_hits);

    let bytes = |r: &Response| serde_json::to_string(r).expect("serialize response");
    assert_eq!(bytes(&cold_outcome), bytes(&warm_first_outcome));
    assert_eq!(bytes(&cold_outcome), bytes(&warm_second_outcome));
    assert_eq!(bytes(&cold_pmf), bytes(&warm_first_pmf));
    assert_eq!(bytes(&cold_pmf), bytes(&warm_second_pmf));
    assert!(matches!(cold_outcome, Response::Outcome(_)));
    assert!(matches!(cold_pmf, Response::Pmf(_)));

    uncached.shutdown();
    cached.shutdown();
}

/// Concurrent same-instance requests coalesce into one schedule build.
#[test]
fn same_key_burst_coalesces_into_batches() {
    // No cache, one worker: every *batch* is exactly one build, so the
    // miss counter counts builds directly.
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 64,
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let client = service.client();

    // Occupy the single worker so the burst piles up behind it.
    let blocker = {
        let client = client.clone();
        thread::spawn(move || {
            let (instance, types) = small(999);
            client.call(Request::RunResilientRound {
                instance,
                types,
                epsilon: 0.1,
                plan: FaultPlan::no_show(0.3, 1),
                config: ResilienceConfig::default(),
                seed: 1,
            })
        })
    };
    thread::sleep(Duration::from_millis(10));

    const BURST: usize = 6;
    let (instance, _) = small(7);
    let handles: Vec<_> = (0..BURST)
        .map(|i| {
            let client = client.clone();
            let instance = instance.clone();
            thread::spawn(move || {
                client.call(Request::RunAuction {
                    instance,
                    epsilon: 0.1,
                    seed: i as u64,
                })
            })
        })
        .collect();
    for h in handles {
        assert!(matches!(
            h.join().expect("burst caller panicked"),
            Response::Outcome(_)
        ));
    }
    assert!(matches!(
        blocker.join().expect("blocker panicked"),
        Response::Round(_)
    ));

    let Response::Metrics(metrics) = client.call(Request::Metrics) else {
        panic!("metrics request failed");
    };
    // Without coalescing (and with the cache off) the burst alone would
    // cost BURST builds; batching must have merged most of them.
    assert!(
        metrics.cache_misses <= 1 + (BURST as u64) / 2,
        "builds: {} for {} same-key requests",
        metrics.cache_misses,
        BURST
    );
    let batched: u64 = metrics.endpoints.iter().map(|e| e.batched).sum();
    assert!(batched >= 2, "batched: {batched}");
    service.shutdown();
}

/// Malformed TCP lines get an `error` line back; the connection stays up.
#[test]
fn malformed_tcp_line_answers_error_and_keeps_connection() {
    use std::io::{BufRead, BufReader, Write};

    let service = Service::start(ServiceConfig::default());
    let tcp = TcpServer::bind(service.client(), "127.0.0.1:0").expect("bind loopback");
    let stream = std::net::TcpStream::connect(tcp.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;

    writer.write_all(b"this is not json\n").expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read error line");
    let response: Response = serde_json::from_str(line.trim()).expect("parse error line");
    assert!(matches!(response, Response::Error { .. }));

    // Same connection still serves real requests afterwards.
    let request = serde_json::to_string(&Request::Health).expect("serialize");
    writer.write_all(request.as_bytes()).expect("write");
    writer.write_all(b"\n").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("read health line");
    let response: Response = serde_json::from_str(line.trim()).expect("parse health line");
    assert!(matches!(response, Response::Health(_)));

    tcp.shutdown();
    service.shutdown();
}

/// Instances the builder would refuse are refused on the wire, and the
/// service keeps answering. Each line is one edit of a valid request that
/// the JSON grammar alone accepts: θ = 7.5, δ = 1.5, a bundle task past the
/// task count, a zero grid step, and a dense θ one cell short. Unchecked,
/// the last three panic a worker or the dispatcher.
#[test]
fn hostile_instances_are_refused_and_the_service_keeps_answering() {
    use std::io::{BufRead, BufReader, Write};

    const HOSTILE: [&str; 5] = [
        include_str!("../../verify/tests/corpus/hostile_theta_out_of_range.json"),
        include_str!("../../verify/tests/corpus/hostile_delta_out_of_range.json"),
        include_str!("../../verify/tests/corpus/hostile_bundle_task_out_of_range.json"),
        include_str!("../../verify/tests/corpus/hostile_grid_step_zero.json"),
        include_str!("../../verify/tests/corpus/hostile_theta_short.json"),
    ];
    let service = Service::start(ServiceConfig::default());
    let tcp = TcpServer::bind(service.client(), "127.0.0.1:0").expect("bind loopback");
    let stream = std::net::TcpStream::connect(tcp.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut exchange = |line: &str| -> Response {
        writer.write_all(line.trim().as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("read answer line");
        serde_json::from_str(answer.trim()).expect("parse answer line")
    };

    for line in HOSTILE {
        match exchange(line) {
            Response::Error { message } => {
                assert!(message.starts_with("malformed request: "), "{message}");
            }
            other => panic!("{line} must be refused, got {other:?}"),
        }
    }
    match exchange(&serde_json::to_string(&Request::Health).expect("serialize")) {
        Response::Health(health) => assert!(!health.draining),
        other => panic!("health answered {other:?}"),
    }

    tcp.shutdown();
    service.shutdown();
}

/// Infeasible or invalid inputs surface as typed `Error` responses.
#[test]
fn invalid_epsilon_is_a_typed_error() {
    let service = Service::start(ServiceConfig::default());
    let client = service.client();
    let (instance, _) = small(3);
    match client.call(Request::RunAuction {
        instance,
        epsilon: -1.0,
        seed: 0,
    }) {
        Response::Error { message } => assert!(message.contains("epsilon"), "{message}"),
        other => panic!("expected a typed error, got {other:?}"),
    }
    service.shutdown();
}

/// A request that panics its worker costs only its own answer: the caller
/// gets a typed error and the pool keeps serving. The request skips the
/// wire's checks (a bundle task past the task count), which only an
/// in-process caller can do.
#[test]
fn a_panicking_batch_costs_only_its_own_answer() {
    let service = Service::start(ServiceConfig::default());
    let client = service.client();
    let line = include_str!("../../verify/tests/corpus/hostile_bundle_task_out_of_range.json");
    let hostile: Request = serde_json::from_str(line.trim()).expect("the grammar accepts it");
    // One panic for every worker the service has.
    for _ in 0..ServiceConfig::default().workers {
        match client.call(hostile.clone()) {
            Response::Error { message } => assert_eq!(message, "service dropped the request"),
            other => panic!("a panicking batch must answer a typed error, got {other:?}"),
        }
    }
    match client.call(Request::Health) {
        Response::Health(health) => assert!(!health.draining),
        other => panic!("the worker pool must survive, got {other:?}"),
    }
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Durable rounds over TCP

mod durable {
    use super::*;
    use std::path::PathBuf;

    use ed25519::{hex_encode, SigningKey};
    use mcs_service::{BidEnvelope, DurabilityConfig, RosterEntry, RoundSpec};
    use mcs_types::{Bid, Bundle, Price, TaskId, WorkerId};

    fn key_for(worker: u32) -> SigningKey {
        let mut seed = [0u8; 32];
        seed[..4].copy_from_slice(&worker.to_le_bytes());
        seed[31] = 0x1C;
        SigningKey::from_seed(seed)
    }

    fn spec(round_id: u64) -> RoundSpec {
        RoundSpec {
            round_id,
            num_tasks: 2,
            error_bounds: vec![0.8, 0.8],
            price_min: Price::from_f64(1.0),
            price_max: Price::from_f64(10.0),
            price_step: Price::from_f64(1.0),
            cost_min: Price::from_f64(1.0),
            cost_max: Price::from_f64(10.0),
            epsilon: 0.5,
            roster: (0..2)
                .map(|w| RosterEntry {
                    worker: WorkerId(w),
                    public_key: hex_encode(&key_for(w).verifying_key().to_bytes()),
                    skills: vec![0.9, 0.9],
                })
                .collect(),
        }
    }

    fn envelope(round_id: u64, worker: u32, nonce: u64) -> BidEnvelope {
        let bid = Bid::new(
            Bundle::new(vec![TaskId(0), TaskId(1)]),
            Price::from_f64(2.0 + f64::from(worker)),
        );
        BidEnvelope::sign(
            round_id,
            WorkerId(worker),
            bid,
            nonce,
            u64::MAX,
            &key_for(worker),
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mcs-service-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(dir: &std::path::Path) -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            durability: Some(DurabilityConfig::new(dir.to_path_buf())),
            ..ServiceConfig::default()
        }
    }

    /// The full durable lifecycle over loopback TCP: open, signed bids,
    /// typed rejections for forged and replayed envelopes, idempotent
    /// commit, WAL-aware health/metrics — then a restart that recovers
    /// the settled round and aborts the in-flight one.
    #[test]
    fn durable_rounds_over_tcp_with_restart_recovery() {
        let dir = temp_dir("tcp");
        let service = Service::start(durable_config(&dir));
        let tcp = TcpServer::bind(service.client(), "127.0.0.1:0").expect("bind loopback");
        let mut conn = TcpClient::connect(tcp.local_addr()).expect("connect");

        let opened = conn
            .call(&Request::OpenRound { spec: spec(1) })
            .expect("answered");
        assert!(
            matches!(opened, Response::Opened { round_id: 1, .. }),
            "{opened:?}"
        );

        let response = conn
            .call(&Request::SubmitBid {
                envelope: envelope(1, 0, 100),
            })
            .expect("answered");
        assert!(
            matches!(response, Response::BidAccepted { round_id: 1, .. }),
            "{response:?}"
        );

        // A replayed envelope: valid signature, reused nonce.
        let response = conn
            .call(&Request::SubmitBid {
                envelope: envelope(1, 0, 100),
            })
            .expect("answered");
        let Response::Rejected { code, .. } = response else {
            panic!("replayed envelope must be rejected, got {response:?}");
        };
        assert_eq!(code, "replayed_nonce");

        // A forged envelope: signed fields mutated after signing.
        let mut forged = envelope(1, 1, 555);
        forged.nonce = 556;
        let response = conn
            .call(&Request::SubmitBid { envelope: forged })
            .expect("answered");
        let Response::Rejected { code, .. } = response else {
            panic!("forged envelope must be rejected, got {response:?}");
        };
        assert_eq!(code, "bad_signature");

        let response = conn
            .call(&Request::SubmitBid {
                envelope: envelope(1, 1, 101),
            })
            .expect("answered");
        assert!(
            matches!(response, Response::BidAccepted { round_id: 1, .. }),
            "{response:?}"
        );

        let committed = conn
            .call(&Request::CommitRound {
                round_id: 1,
                seed: 7,
            })
            .expect("answered");
        let Response::Committed(receipt) = committed else {
            panic!("expected a receipt, got {committed:?}");
        };
        assert!(!receipt.winners.is_empty());
        assert!(!receipt.already_committed);
        let expected_paid =
            Price::from_tenths(receipt.price.tenths() * receipt.winners.len() as i64);

        // Committing again is an idempotent replay, seed ignored.
        let again = conn
            .call(&Request::CommitRound {
                round_id: 1,
                seed: 999,
            })
            .expect("answered");
        let Response::Committed(replay) = again else {
            panic!("expected a replayed receipt, got {again:?}");
        };
        assert!(replay.already_committed);
        assert_eq!(replay.price, receipt.price);
        assert_eq!(replay.winners, receipt.winners);

        // A second round left open across the restart.
        let opened = conn
            .call(&Request::OpenRound { spec: spec(2) })
            .expect("answered");
        assert!(matches!(opened, Response::Opened { round_id: 2, .. }));
        let response = conn
            .call(&Request::SubmitBid {
                envelope: envelope(2, 1, 777),
            })
            .expect("answered");
        assert!(matches!(
            response,
            Response::BidAccepted { round_id: 2, .. }
        ));

        let Ok(Response::Metrics(metrics)) = conn.call(&Request::Metrics) else {
            panic!("metrics request failed");
        };
        assert_eq!(metrics.envelope_rejections, 2);
        assert!(metrics.wal_frames > 0);
        assert!(metrics.wal_fsyncs > 0);

        let Ok(Response::Health(health)) = conn.call(&Request::Health) else {
            panic!("health request failed");
        };
        assert!(health.last_synced_lsn > 0);
        assert!(health.wal_size_bytes > 0);

        tcp.shutdown();
        service.shutdown();

        // Restart on the same directory: the settled round survives in
        // full, the in-flight one is aborted, and health reports what
        // recovery did.
        let service = Service::start(durable_config(&dir));
        let recovery = service.recovery().expect("durability enabled");
        assert_eq!(recovery.recovered_rounds, 1, "round 2 was live at shutdown");
        assert_eq!(recovery.aborted_in_flight, 1);
        let tcp = TcpServer::bind(service.client(), "127.0.0.1:0").expect("rebind");
        let mut conn = TcpClient::connect(tcp.local_addr()).expect("reconnect");

        let Ok(Response::Health(health)) = conn.call(&Request::Health) else {
            panic!("health request failed");
        };
        assert_eq!(health.recovered_rounds, 1);
        assert!(health.last_synced_lsn > 0);

        let Ok(Response::RoundStatus(settled)) = conn.call(&Request::RoundStatus { round_id: 1 })
        else {
            panic!("round 1 status failed");
        };
        assert_eq!(settled.phase, "settled");
        assert_eq!(settled.total_paid, expected_paid);

        let Ok(Response::RoundStatus(aborted)) = conn.call(&Request::RoundStatus { round_id: 2 })
        else {
            panic!("round 2 status failed");
        };
        assert_eq!(aborted.phase, "aborted");
        assert_eq!(aborted.total_paid, Price::ZERO);

        // Bidding into the aborted round is a typed refusal.
        let response = conn
            .call(&Request::SubmitBid {
                envelope: envelope(2, 0, 888),
            })
            .expect("answered");
        assert!(
            matches!(response, Response::Rejected { ref code, .. } if code == "round_closed"),
            "{response:?}"
        );

        tcp.shutdown();
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Without a durability directory the round endpoints answer a plain
    /// typed error instead of panicking or hanging.
    #[test]
    fn round_endpoints_without_durability_are_typed_errors() {
        let service = Service::start(ServiceConfig::default());
        let client = service.client();
        let response = client.call(Request::OpenRound { spec: spec(1) });
        assert!(matches!(response, Response::Error { .. }), "{response:?}");
        service.shutdown();
    }
}
