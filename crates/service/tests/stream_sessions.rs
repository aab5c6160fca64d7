//! Streaming-session integration tests: a long-lived online round held
//! open across requests over loopback TCP, killed mid-stream, and
//! resumed — not aborted — by recovery on the same WAL directory.

use std::path::PathBuf;

use ed25519::{hex_encode, SigningKey};
use mcs_service::{
    BidEnvelope, DurabilityConfig, Request, Response, RosterEntry, RoundSpec, Service,
    ServiceConfig, StreamSpec, TcpClient, TcpServer,
};
use mcs_types::{Bid, Bundle, Price, TaskId, WorkerId};

fn key_for(worker: u32) -> SigningKey {
    let mut seed = [0u8; 32];
    seed[..4].copy_from_slice(&worker.to_le_bytes());
    seed[31] = 0x3D;
    SigningKey::from_seed(seed)
}

fn stream_spec(round_id: u64, workers: u32, sample_target: usize) -> StreamSpec {
    StreamSpec {
        round: RoundSpec {
            round_id,
            num_tasks: 3,
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
        },
        sample_target,
        seed: 17,
    }
}

fn envelope(round_id: u64, worker: u32, nonce: u64) -> BidEnvelope {
    let bid = Bid::new(
        Bundle::new(vec![TaskId(worker % 3), TaskId((worker + 1) % 3)]),
        // Stay inside the spec's cost range for any roster size.
        Price::from_f64(2.0 + f64::from(worker % 25)),
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
        "mcs-service-stream-{tag}-{}-{:?}",
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

/// The headline streaming property end-to-end: a stream opened over TCP
/// keeps its per-session state alive across a service kill. Decisions
/// taken before the kill stay binding after recovery — same posted
/// price, same accepted set — and the stream keeps admitting arrivals
/// where it left off instead of aborting like an in-flight round would.
#[test]
fn streams_resume_across_a_service_restart() {
    let dir = temp_dir("resume");
    let service = Service::start(durable_config(&dir));
    let tcp = TcpServer::bind(service.client(), "127.0.0.1:0").expect("bind loopback");
    let mut conn = TcpClient::connect(tcp.local_addr()).expect("connect");

    let opened = conn
        .call(&Request::OpenStream {
            spec: stream_spec(1, 8, 3),
        })
        .expect("answered");
    assert!(
        matches!(
            opened,
            Response::StreamOpened {
                round_id: 1,
                sample_target: 3,
                ..
            }
        ),
        "{opened:?}"
    );

    // The sample phase: the first three arrivals are observed, never
    // paid, and each says so in its typed reason.
    for w in 0..3u32 {
        let response = conn
            .call(&Request::Arrive {
                envelope: envelope(1, w, 100 + u64::from(w)),
            })
            .expect("answered");
        let Response::ArrivalDecided {
            accepted,
            payment,
            ref reason,
            posted_price,
            ..
        } = response
        else {
            panic!("expected a decision, got {response:?}");
        };
        assert!(!accepted, "sample arrivals are never admitted");
        assert_eq!(payment, Price::ZERO);
        assert_eq!(reason, "sample_observed");
        assert!(posted_price.is_none(), "no price is posted mid-sample");
    }

    // First post-sample arrival: a price is now posted.
    let response = conn
        .call(&Request::Arrive {
            envelope: envelope(1, 3, 103),
        })
        .expect("answered");
    let Response::ArrivalDecided {
        posted_price: Some(posted),
        accepted: first_accepted,
        payment: first_payment,
        ..
    } = response
    else {
        panic!("expected a posted-price decision, got {response:?}");
    };
    if first_accepted {
        assert_eq!(first_payment, posted, "admits pay the posted price");
    } else {
        assert_eq!(first_payment, Price::ZERO);
    }

    // Kill the service mid-stream. Every decided arrival was acked, so
    // recovery must honour all of them.
    tcp.shutdown();
    service.shutdown();

    let service = Service::start(durable_config(&dir));
    let recovery = service.recovery().expect("durability enabled");
    assert_eq!(recovery.resumed_streams, 1, "the stream resumes");
    assert_eq!(recovery.aborted_in_flight, 0, "streams are not aborted");
    let tcp = TcpServer::bind(service.client(), "127.0.0.1:0").expect("rebind");
    let mut conn = TcpClient::connect(tcp.local_addr()).expect("reconnect");

    // A status probe on the shared id namespace answers the stream view:
    // still streaming, same posted price, nothing forgotten.
    let Ok(Response::StreamStatus(status)) = conn.call(&Request::RoundStatus { round_id: 1 })
    else {
        panic!("stream status probe failed");
    };
    assert_eq!(status.phase, "streaming");
    assert_eq!(status.arrivals, 4);
    assert_eq!(status.sample_target, 3);
    assert_eq!(status.posted_price, Some(posted));

    // A pre-kill nonce replayed after recovery is still a typed refusal:
    // the nonce set survived the restart.
    let response = conn
        .call(&Request::Arrive {
            envelope: envelope(1, 3, 103),
        })
        .expect("answered");
    assert!(
        matches!(response, Response::Rejected { ref code, .. } if code == "replayed_nonce"),
        "{response:?}"
    );

    // The stream keeps going: feed the rest of the roster.
    let mut accepted = Vec::new();
    if first_accepted {
        accepted.push(WorkerId(3));
    }
    for w in 4..8u32 {
        let response = conn
            .call(&Request::Arrive {
                envelope: envelope(1, w, 100 + u64::from(w)),
            })
            .expect("answered");
        let Response::ArrivalDecided {
            accepted: admit,
            payment,
            posted_price,
            ..
        } = response
        else {
            panic!("expected a decision, got {response:?}");
        };
        assert_eq!(
            posted_price,
            Some(posted),
            "the posted price never moves once learned"
        );
        if admit {
            assert_eq!(payment, posted, "bid-independent posted-price payment");
            accepted.push(WorkerId(w));
        } else {
            assert_eq!(payment, Price::ZERO);
        }
    }

    // Close: the receipt's arithmetic follows from the decisions above.
    let Ok(Response::StreamClosed(receipt)) = conn.call(&Request::CloseStream { round_id: 1 })
    else {
        panic!("close failed");
    };
    assert_eq!(receipt.round_id, 1);
    assert_eq!(receipt.arrivals, 8);
    assert_eq!(receipt.accepted, accepted);
    assert_eq!(receipt.posted_price, Some(posted));
    assert_eq!(
        receipt.total_paid,
        Price::from_tenths(posted.tenths() * accepted.len() as i64)
    );
    assert!(!receipt.already_closed);

    // Closing again is an idempotent replay.
    let Ok(Response::StreamClosed(replay)) = conn.call(&Request::CloseStream { round_id: 1 })
    else {
        panic!("re-close failed");
    };
    assert!(replay.already_closed);
    assert_eq!(replay.total_paid, receipt.total_paid);
    assert_eq!(replay.accepted, receipt.accepted);

    // Arrivals into the closed stream are typed refusals.
    let response = conn
        .call(&Request::Arrive {
            envelope: envelope(1, 0, 999),
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

/// `abort_round` aborts a stream too: streams share the round-id
/// namespace. Later arrivals are refused as `round_closed`, the status
/// reads `aborted`, and both survive a restart with every payment made
/// before the abort still standing.
#[test]
fn abort_round_aborts_a_stream_and_its_payments_stand() {
    let dir = temp_dir("abort");
    let service = Service::start(durable_config(&dir));
    let tcp = TcpServer::bind(service.client(), "127.0.0.1:0").expect("bind loopback");
    let mut conn = TcpClient::connect(tcp.local_addr()).expect("connect");
    let opened = conn
        .call(&Request::OpenStream {
            spec: stream_spec(3, 8, 2),
        })
        .expect("answered");
    assert!(
        matches!(opened, Response::StreamOpened { .. }),
        "{opened:?}"
    );

    let mut accepted = Vec::new();
    let mut paid = Price::ZERO;
    for w in 0..6u32 {
        let response = conn
            .call(&Request::Arrive {
                envelope: envelope(3, w, 300 + u64::from(w)),
            })
            .expect("answered");
        let Response::ArrivalDecided {
            accepted: admit,
            payment,
            ..
        } = response
        else {
            panic!("expected a decision, got {response:?}");
        };
        if admit {
            accepted.push(WorkerId(w));
        }
        paid += payment;
    }
    assert!(!accepted.is_empty(), "the abort must have payments to keep");

    let aborted = conn
        .call(&Request::AbortRound { round_id: 3 })
        .expect("answered");
    assert!(
        matches!(aborted, Response::Aborted { round_id: 3, .. }),
        "{aborted:?}"
    );

    let check = |conn: &mut TcpClient| {
        let response = conn
            .call(&Request::Arrive {
                envelope: envelope(3, 6, 306),
            })
            .expect("answered");
        assert!(
            matches!(response, Response::Rejected { ref code, .. } if code == "round_closed"),
            "{response:?}"
        );
        let Ok(Response::StreamStatus(status)) = conn.call(&Request::RoundStatus { round_id: 3 })
        else {
            panic!("stream status probe failed");
        };
        assert_eq!(status.phase, "aborted");
        assert_eq!(status.arrivals, 6);
        assert_eq!(status.accepted, accepted);
        assert_eq!(status.total_paid, paid);
    };
    check(&mut conn);
    tcp.shutdown();
    service.shutdown();

    let service = Service::start(durable_config(&dir));
    let recovery = service.recovery().expect("durability enabled");
    assert_eq!(
        recovery.resumed_streams, 0,
        "an aborted stream stays aborted"
    );
    let tcp = TcpServer::bind(service.client(), "127.0.0.1:0").expect("rebind");
    let mut conn = TcpClient::connect(tcp.local_addr()).expect("reconnect");
    check(&mut conn);
    tcp.shutdown();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seeded 200-arrival stream driven entirely through the service
/// endpoints, with a kill-and-recover in the middle — the CI smoke
/// workload. Also the determinism check at service scale: replaying the
/// same prefix into a fresh directory reproduces every receipt field.
#[test]
fn two_hundred_arrival_stream_with_mid_stream_recovery() {
    const WORKERS: u32 = 200;
    const SAMPLE: usize = 50;
    const KILL_AFTER: u32 = 90;

    let run = |tag: &str, kill: bool| {
        let dir = temp_dir(tag);
        let mut service = Service::start(durable_config(&dir));
        let mut client = service.client();

        let response = client.call(Request::OpenStream {
            spec: stream_spec(2, WORKERS, SAMPLE),
        });
        assert!(matches!(response, Response::StreamOpened { .. }));

        for w in 0..WORKERS {
            if kill && w == KILL_AFTER {
                service.shutdown();
                service = Service::start(durable_config(&dir));
                assert_eq!(
                    service.recovery().expect("durable").resumed_streams,
                    1,
                    "the stream must survive the mid-stream kill"
                );
                client = service.client();
            }
            let response = client.call(Request::Arrive {
                envelope: envelope(2, w, 1_000 + u64::from(w)),
            });
            assert!(
                matches!(response, Response::ArrivalDecided { .. }),
                "arrival {w}: {response:?}"
            );
        }

        let Response::StreamClosed(receipt) = client.call(Request::CloseStream { round_id: 2 })
        else {
            panic!("close failed");
        };
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        receipt
    };

    let killed = run("smoke-kill", true);
    let straight = run("smoke-straight", false);

    assert_eq!(killed.arrivals, WORKERS as usize);
    // The kill is invisible in the outcome: decisions are a pure fold
    // over the arrival prefix, so both runs settle identically.
    assert_eq!(killed.accepted, straight.accepted);
    assert_eq!(killed.posted_price, straight.posted_price);
    assert_eq!(killed.total_paid, straight.total_paid);
    assert_eq!(killed.covered, straight.covered);
    assert!(
        !killed.accepted.is_empty(),
        "a 200-worker stream must admit someone"
    );
}

/// Stream endpoints without a durability directory are typed errors,
/// mirroring the round endpoints.
#[test]
fn stream_endpoints_without_durability_are_typed_errors() {
    let service = Service::start(ServiceConfig::default());
    let client = service.client();
    let response = client.call(Request::OpenStream {
        spec: stream_spec(1, 4, 2),
    });
    assert!(matches!(response, Response::Error { .. }), "{response:?}");
    let response = client.call(Request::Arrive {
        envelope: envelope(1, 0, 1),
    });
    assert!(matches!(response, Response::Error { .. }), "{response:?}");
    let response = client.call(Request::CloseStream { round_id: 1 });
    assert!(matches!(response, Response::Error { .. }), "{response:?}");
    service.shutdown();
}
