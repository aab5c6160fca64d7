//! Byte pins for the service wire protocol.
//!
//! Every request and answer crosses the TCP transport as one compact JSON
//! line. This test pins the line of one value of every [`Request`] and
//! [`Response`] variant, so a change to how the enums are written shows up
//! as a changed byte. Short lines are pinned as literals. A line that
//! carries an instance or a round report is pinned by its length and an
//! FNV-1a digest of its bytes. Every line must also decode back to the
//! value it came from (a response on the one-pass reader too).

use mcs_auction::{AuctionOutcome, DpHsrcAuction};
use mcs_num::rng;
use mcs_service::{
    decode_request, decode_response, BidEnvelope, CommitReceipt, EndpointMetrics, HealthReport,
    LatencySummary, MetricsReport, PaymentRecord, PmfSummary, Request, Response, RosterEntry,
    RoundSpec, RoundStatusView, StreamReceipt, StreamSpec, StreamStatusView, ENDPOINTS,
};
use mcs_sim::faults::FaultPlan;
use mcs_sim::platform::{run_round_resilient, ResilienceConfig};
use mcs_sim::Setting;
use mcs_types::{Bid, Bundle, Fnv1a, Price, TaskId, WorkerId};
use rand::Rng;

/// A pinned line: the literal bytes, or the length and digest of a long
/// line.
#[derive(Debug, PartialEq)]
enum Pin {
    Line(String),
    Digest(usize, u64),
}

fn pin(line: String, long: bool) -> Pin {
    if long {
        let mut digest = Fnv1a::new();
        digest.write(line.as_bytes());
        Pin::Digest(line.len(), digest.finish())
    } else {
        Pin::Line(line)
    }
}

fn lit(line: &str) -> Pin {
    Pin::Line(line.to_string())
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

/// A plan that draws every fault class on the round of
/// [`every_response_keeps_its_bytes`].
fn mixed_faults() -> FaultPlan {
    FaultPlan {
        no_show_rate: 0.15,
        partial_dropout_rate: 0.15,
        dropout_fraction: 0.5,
        straggler_rate: 0.15,
        straggler_delay: (10, 90),
        flip_rate: 0.15,
        flip_fraction: 0.5,
        seed: 1,
    }
}

#[test]
fn every_request_keeps_its_bytes() {
    let g = Setting::one(80).scaled_down(4).generate(3);
    let requests = [
        Request::RunAuction {
            instance: g.instance.clone(),
            epsilon: 0.1,
            seed: 7,
        },
        Request::QueryPmf {
            instance: g.instance.clone(),
            epsilon: 0.5,
        },
        Request::RunResilientRound {
            instance: g.instance,
            types: g.types,
            epsilon: 0.1,
            plan: mixed_faults(),
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
    ];
    let endpoints: Vec<&str> = requests.iter().map(Request::endpoint).collect();
    assert_eq!(endpoints, ENDPOINTS);
    let pins: Vec<Pin> = requests
        .iter()
        .map(|request| {
            let line = serde_json::to_string(request).expect("serialize");
            assert_eq!(decode_request(&line).as_ref(), Ok(request), "{line}");
            let long = request.endpoint().starts_with("run_") || request.endpoint() == "query_pmf";
            pin(line, long)
        })
        .collect();
    let envelope = concat!(
        r#"{"round_id":17,"worker":0,"bid":{"bundle":{"tasks":[1]},"price":25},"nonce":42,"#,
        r#""expires_at_ms":99000,"signature":""#,
    );
    let spec = concat!(
        r#"{"round_id":17,"num_tasks":2,"error_bounds":[0.4,0.3],"price_min":10,"#,
        r#""price_max":90,"price_step":5,"cost_min":10,"cost_max":90,"epsilon":0.25,"#,
        r#""roster":[{"worker":0,"public_key":""#,
    );
    let key = "ab".repeat(32);
    let signature = "cd".repeat(64);
    let roster_tail = r#"","skills":[0.5,0.6]}]}"#;
    assert_eq!(
        pins,
        [
            Pin::Digest(3_910, 0xeac8_9e07_2573_f07c),
            Pin::Digest(3_899, 0x249e_f07e_28ef_581b),
            Pin::Digest(4_966, 0x4a3c_a3de_035d_695f),
            lit(r#"{"type":"health"}"#),
            lit(r#"{"type":"metrics"}"#),
            Pin::Line(format!(
                r#"{{"type":"open_round","spec":{spec}{key}{roster_tail}}}"#
            )),
            Pin::Line(format!(
                r#"{{"type":"submit_bid","envelope":{envelope}{signature}"}}}}"#
            )),
            lit(r#"{"type":"commit_round","round_id":17,"seed":3}"#),
            lit(r#"{"type":"abort_round","round_id":17}"#),
            lit(r#"{"type":"round_status","round_id":17}"#),
            Pin::Line(format!(
                r#"{{"type":"open_stream","spec":{{"round":{spec}{key}{roster_tail},"sample_target":3,"seed":9}}}}"#
            )),
            Pin::Line(format!(
                r#"{{"type":"arrive","envelope":{envelope}{signature}"}}}}"#
            )),
            lit(r#"{"type":"close_stream","round_id":17}"#),
        ]
    );
}

/// The lines of perfbench's `hit` workload (seed 1): `run_auction` on four
/// Setting I instances at N = 560, each ≈ 365 KB with θ's 16 800 floats,
/// so every layout the float writer builds appears thousands of times.
#[test]
fn full_size_auction_lines_keep_their_bytes() {
    let setting = Setting::one(560);
    let pins: Vec<Pin> = (0..4)
        .map(|i| {
            let request = Request::RunAuction {
                instance: setting.generate(rng::derived(1, i).gen()).instance,
                epsilon: 0.1,
                seed: 7,
            };
            pin(serde_json::to_string(&request).expect("serialize"), true)
        })
        .collect();
    assert_eq!(
        pins,
        [
            Pin::Digest(365_116, 0x7068_e895_0c76_9fae),
            Pin::Digest(365_344, 0x935d_0a5f_5a64_57d3),
            Pin::Digest(365_967, 0x1654_751b_c442_b76f),
            Pin::Digest(365_266, 0x1c44_2ca3_228a_1507),
        ]
    );
}

#[test]
fn every_response_keeps_its_bytes() {
    let g = Setting::one(80).scaled_down(4).generate(42);
    let auction = DpHsrcAuction::new(0.1).expect("valid epsilon");
    let report = run_round_resilient(
        &g.instance,
        &g.types,
        &auction,
        &mixed_faults(),
        &ResilienceConfig::default(),
        &mut rng::seeded(42),
    )
    .expect("the round runs");
    let responses = [
        Response::Outcome(AuctionOutcome::new(
            Price::from_f64(40.0),
            vec![WorkerId(2), WorkerId(0)],
        )),
        Response::Pmf(PmfSummary {
            prices: vec![Price::from_f64(10.0), Price::from_f64(20.0)],
            probs: vec![0.25, 0.75],
        }),
        Response::Round(Box::new(report)),
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
            message: "infeasible \"x\"".to_string(),
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
    ];
    let pins: Vec<Pin> = responses
        .iter()
        .map(|response| {
            let line = serde_json::to_string(response).expect("serialize");
            assert_eq!(decode_response(&line).as_ref(), Ok(response), "{line}");
            let direct = serde::read_document::<Response>(&line);
            assert_eq!(direct.as_ref(), Some(response), "{line}");
            let long = matches!(response, Response::Round(_));
            if long {
                for fate in ["delivered", "no_show", "partial", "straggler", "corrupted"] {
                    assert!(line.contains(&format!(r#""fate":"{fate}""#)), "{fate}");
                }
            }
            pin(line, long)
        })
        .collect();
    assert_eq!(
        pins,
        [
            lit(r#"{"type":"outcome","outcome":{"price":400,"winners":[0,2]}}"#),
            lit(r#"{"type":"pmf","pmf":{"prices":[100,200],"probs":[0.25,0.75]}}"#),
            Pin::Digest(1_666, 0x7bae_75da_562e_a39a),
            lit(concat!(
                r#"{"type":"health","health":{"workers":2,"queue_capacity":64,"cache_entries":1,"#,
                r#""cache_capacity":32,"draining":false,"recovered_rounds":3,"last_synced_lsn":41,"#,
                r#""wal_size_bytes":2048}}"#,
            )),
            lit(concat!(
                r#"{"type":"metrics","metrics":{"endpoints":[{"endpoint":"run_auction","count":3,"#,
                r#""errors":1,"batched":2,"busy":7,"latency":{"p50_us":100,"p95_us":200,"#,
                r#""p99_us":300,"max_us":280}}],"cache_hits":2,"cache_misses":1,"rejected_busy":4,"#,
                r#""wal_frames":12,"wal_fsyncs":9,"envelope_rejections":5}}"#,
            )),
            lit(r#"{"type":"busy","retry_after_hint_ms":10}"#),
            lit(r#"{"type":"shutting_down"}"#),
            lit(r#"{"type":"error","message":"infeasible \"x\""}"#),
            lit(r#"{"type":"opened","round_id":17,"lsn":1}"#),
            lit(r#"{"type":"bid_accepted","round_id":17,"lsn":2}"#),
            lit(concat!(
                r#"{"type":"committed","receipt":{"round_id":17,"price":40,"winners":[0,2],"#,
                r#""payments":[{"worker":0,"amount":40},{"worker":2,"amount":40}],"lsn":6,"#,
                r#""already_committed":false}}"#,
            )),
            lit(r#"{"type":"aborted","round_id":18,"lsn":7}"#),
            lit(concat!(
                r#"{"type":"round_status","status":{"round_id":17,"phase":"settled","#,
                r#""bids_admitted":3,"winners":[0],"total_paid":40}}"#,
            )),
            lit(concat!(
                r#"{"type":"rejected","code":"bad_signature","#,
                r#""detail":"signature rejected: verification failed"}"#,
            )),
            lit(r#"{"type":"stream_opened","round_id":21,"lsn":1,"sample_target":3}"#),
            lit(concat!(
                r#"{"type":"arrival_decided","round_id":21,"worker":5,"accepted":false,"#,
                r#""payment":0,"reason":"sample_observed","posted_price":null,"lsn":6}"#,
            )),
            lit(concat!(
                r#"{"type":"stream_closed","receipt":{"round_id":21,"arrivals":9,"accepted":[2,4],"#,
                r#""posted_price":60,"total_paid":120,"covered":true,"lsn":11,"already_closed":false}}"#,
            )),
            lit(concat!(
                r#"{"type":"stream_status","status":{"round_id":21,"phase":"streaming","arrivals":4,"#,
                r#""sample_target":3,"accepted":[2],"posted_price":60,"total_paid":60,"covered":false}}"#,
            )),
        ]
    );
}
