//! The `stream` workload: signed arrivals through durable streaming
//! sessions.
//!
//! Every pass starts a durable service on an empty log, opens one
//! streaming session and sends each roster worker's signed arrival once,
//! so every request pays a signature check, the posted-price decision, a
//! WAL append and an fsync.
//! Passes repeat until the measuring time is used up, and each pass's
//! start-up is one set-up sample. The envelopes are signed once per run:
//! a fresh log has no nonce history, so every pass can send them again.
//! Every answer must equal the decision an in-process fold of the same
//! arrivals through the service's `Ledger` state machine reaches.

use std::path::Path;
use std::time::Instant;

use rand::seq::SliceRandom;
use rand::Rng;

use ed25519::{hex_encode, SigningKey};
use mcs_num::rng;
use mcs_service::{
    decode_public_key, decode_request, system_now_ms, BidEnvelope, DurabilityConfig, Ledger,
    Request, Response, RosterEntry, RoundSpec, Service, ServiceConfig, StreamDecision,
    StreamReceipt, StreamSpec, TcpServer, WalEvent, WalWriter,
};
use mcs_types::{Bid, Bundle, Price, TaskId, WorkerId};

use crate::trace::{self, Counters, Layers, Tracer};
use crate::{connect_ready, service_metrics, Pass, Run};

/// Arrivals per pass. Each pass also pays a service start and stop of
/// tens of milliseconds, so a larger roster keeps more of a run's wall
/// time measured.
const ROSTER: u32 = 400;
/// Arrivals observed, and never paid, before the price is posted.
const SAMPLE_TARGET: usize = 100;
const TASKS: u32 = 3;
const STREAM_ID: u64 = 1;

/// One arrival's answer: accepted, payment, reason.
type Decision = (bool, Price, String);

/// The generated inputs of one run.
struct Inputs {
    spec: StreamSpec,
    arrivals: Vec<BidEnvelope>,
    /// The decision every arrival must get, in order.
    expected: Vec<Decision>,
}

impl Inputs {
    fn new(seed: u64) -> Result<Inputs, String> {
        let mut r = rng::derived(seed, 0x5712);
        let keys: Vec<SigningKey> = (0..ROSTER)
            .map(|w| {
                let mut key = [0u8; 32];
                key[..4].copy_from_slice(&w.to_le_bytes());
                key[8..16].copy_from_slice(&seed.to_le_bytes());
                key[31] = 0xB5;
                SigningKey::from_seed(key)
            })
            .collect();
        let roster = (0..ROSTER)
            .map(|w| RosterEntry {
                worker: WorkerId(w),
                public_key: hex_encode(&keys[w as usize].verifying_key().to_bytes()),
                skills: (0..TASKS).map(|_| 0.8 + 0.15 * r.gen::<f64>()).collect(),
            })
            .collect();
        let spec = StreamSpec {
            round: RoundSpec {
                round_id: STREAM_ID,
                num_tasks: TASKS as usize,
                error_bounds: vec![0.8; TASKS as usize],
                price_min: Price::from_f64(1.0),
                price_max: Price::from_f64(30.0),
                price_step: Price::from_f64(1.0),
                cost_min: Price::from_f64(1.0),
                cost_max: Price::from_f64(30.0),
                epsilon: 0.5,
                roster,
            },
            sample_target: SAMPLE_TARGET,
            seed,
        };
        let mut order: Vec<u32> = (0..ROSTER).collect();
        order.shuffle(&mut r);
        let arrivals: Vec<BidEnvelope> = order
            .into_iter()
            .map(|w| {
                let skipped = r.gen_range(0..TASKS);
                let bundle =
                    Bundle::new((0..TASKS).filter(|&t| t != skipped).map(TaskId).collect());
                let price = Price::from_f64(f64::from(r.gen_range(2u32..28)));
                BidEnvelope::sign(
                    STREAM_ID,
                    WorkerId(w),
                    Bid::new(bundle, price),
                    u64::from(w) + 1,
                    u64::MAX,
                    &keys[w as usize],
                )
            })
            .collect();
        let expected = expected_decisions(&spec, &arrivals)?;
        Ok(Inputs {
            spec,
            arrivals,
            expected,
        })
    }
}

/// A ledger holding just the opened stream, as the service's is before
/// the first arrival.
fn opened_ledger(spec: &StreamSpec) -> Result<Ledger, String> {
    let mut ledger = Ledger::default();
    let open = WalEvent::StreamOpened { spec: spec.clone() };
    ledger.apply(&open, 1).map_err(|e| e.to_string())?;
    Ok(ledger)
}

/// Folds every arrival through the service's ledger state machine in
/// process.
fn expected_decisions(
    spec: &StreamSpec,
    arrivals: &[BidEnvelope],
) -> Result<Vec<Decision>, String> {
    let mut ledger = opened_ledger(spec)?;
    arrivals
        .iter()
        .zip(2..)
        .map(|(envelope, lsn)| {
            let decision = decide(&ledger, envelope)?;
            let event = arrival_event(envelope, &decision)?;
            ledger.apply(&event, lsn).map_err(|e| e.to_string())?;
            Ok((
                decision.accepted,
                decision.payment,
                decision.reason.to_string(),
            ))
        })
        .collect()
}

/// The stream's admission checks and posted-price decision for one
/// arrival, as `DurableLedger::stream_arrival` makes them.
fn decide(ledger: &Ledger, envelope: &BidEnvelope) -> Result<StreamDecision, String> {
    let stream = ledger
        .stream(envelope.round_id)
        .ok_or_else(|| format!("stream {} is not open", envelope.round_id))?;
    stream
        .check_admissible(envelope.worker, envelope.nonce)
        .and_then(|()| stream.evaluate(envelope.worker, &envelope.bid))
        .map_err(|e| e.to_string())
}

/// The log frame the service writes for a decided arrival.
fn arrival_event(envelope: &BidEnvelope, decision: &StreamDecision) -> Result<WalEvent, String> {
    Ok(WalEvent::StreamArrival {
        round_id: envelope.round_id,
        worker: envelope.worker,
        nonce: envelope.nonce,
        expires_at_ms: envelope.expires_at_ms,
        bid: envelope.bid.clone(),
        signature: envelope.signature_bytes().map_err(|e| e.to_string())?,
        accepted: decision.accepted,
        payment: decision.payment,
    })
}

/// One pass: starts a durable service, opens the stream and the TCP
/// front-end (one set-up sample), sends every arrival once, and closes
/// the stream and the service. Returns the service's counters over the
/// measured part.
fn pass(
    inputs: &Inputs,
    dir: &Path,
    first_id: u64,
    run: &mut Run,
    mut tracer: Option<&mut Tracer>,
) -> Result<Counters, String> {
    let open = Request::OpenStream {
        spec: inputs.spec.clone(),
    };
    let start = Instant::now();
    let service = Service::try_start(ServiceConfig {
        durability: Some(DurabilityConfig::new(dir)),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("start durable service: {e}"))?;
    let client = service.client();
    match client.call(open) {
        Response::StreamOpened { .. } => {}
        other => return Err(format!("open_stream answered {other:?}")),
    }
    let tcp = TcpServer::bind(service.client(), "127.0.0.1:0")
        .map_err(|e| format!("bind loopback: {e}"))?;
    let setup = start.elapsed().as_secs_f64();
    let mut conn = connect_ready(tcp.local_addr(), 1)?.remove(0);

    let mut mirror = match tracer {
        Some(_) => Some(Mirror {
            ledger: opened_ledger(&inputs.spec)?,
            wal: WalWriter::create(&dir.join("replay.wal"), 1)
                .map_err(|e| format!("create replay log: {e}"))?,
        }),
        None => None,
    };
    let before = service_metrics(&service)?;
    let mut latencies = Vec::with_capacity(inputs.arrivals.len());
    let mut decisions = Vec::with_capacity(inputs.arrivals.len());
    let phase_start = Instant::now();
    for (k, envelope) in inputs.arrivals.iter().enumerate() {
        let request = Request::Arrive {
            envelope: envelope.clone(),
        };
        let id = first_id + k as u64;
        run.attempted += 1;
        let sent = Instant::now();
        let answer = match tracer.as_deref_mut() {
            None => conn.call(&request).map(|response| (response, None)),
            Some(tracer) => trace::traced_call(tracer, id, &mut conn, &request)
                .map(|(response, line)| (response, Some(line))),
        };
        let took = sent.elapsed();
        match answer {
            Ok((
                Response::ArrivalDecided {
                    accepted,
                    payment,
                    reason,
                    ..
                },
                line,
            )) => {
                latencies.push(took.as_secs_f64());
                if let (Some(tracer), Some(mirror), Some(line)) =
                    (tracer.as_deref_mut(), mirror.as_mut(), line)
                {
                    mirror.replay(tracer, id, &line, inputs, envelope)?;
                }
                decisions.push((accepted, payment, reason));
            }
            Ok((other, _)) => {
                if run.failed == 0 {
                    eprintln!("arrival answered {other:?}");
                }
                run.failed += 1;
            }
            Err(err) => {
                eprintln!("arrival failed: {err}");
                run.failed += 1;
                break;
            }
        }
    }
    let phase = phase_start.elapsed();
    let after = service_metrics(&service)?;
    let closed = match client.call(Request::CloseStream {
        round_id: STREAM_ID,
    }) {
        Response::StreamClosed(receipt) => receipt_matches(&receipt, inputs, &decisions),
        other => {
            eprintln!("close_stream answered {other:?}");
            false
        }
    };
    run.correct &= closed && decisions == inputs.expected;
    run.passes.push(Pass {
        setup,
        measured: phase.as_secs_f64(),
        latencies,
    });
    drop(conn);
    tcp.shutdown();
    service.shutdown();
    Ok(Counters::between(&before, &after, "arrive"))
}

/// The service's state for one pass, rebuilt in process so that a traced
/// run can replay each arrival against it.
struct Mirror {
    ledger: Ledger,
    wal: WalWriter,
}

impl Mirror {
    /// The service's path for one arrival, span by span: decode, key
    /// decode and signature check, the stream decision, the WAL frame and
    /// its fsync (every arrival is synced under the default fsync policy),
    /// the fold into the ledger, and the answer's encoding.
    fn replay(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        line: &str,
        inputs: &Inputs,
        envelope: &BidEnvelope,
    ) -> Result<(), String> {
        let (decoded, _) = tracer.span(id, trace::SERVER_DECODE, trace::ROUND_TRIP, || {
            decode_request(line)
        });
        decoded.map_err(|e| e.to_string())?;
        let entry = &inputs.spec.round.roster[envelope.worker.0 as usize];
        let (verified, _) = tracer.span(id, trace::ENVELOPE_VERIFY, trace::ROUND_TRIP, || {
            decode_public_key(&entry.public_key)
                .and_then(|key| envelope.verify(&key, system_now_ms()))
        });
        verified.map_err(|e| e.to_string())?;
        let (decision, _) = tracer.span(id, trace::STREAM_DECIDE, trace::ROUND_TRIP, || {
            decide(&self.ledger, envelope)
        });
        let decision = decision?;
        let (appended, _) = tracer.span(id, trace::WAL_APPEND, trace::ROUND_TRIP, || {
            let event = arrival_event(envelope, &decision)?;
            let lsn = self
                .wal
                .append(&event.encode())
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((event, lsn))
        });
        let (event, lsn) = appended?;
        let (synced, _) = tracer.span(id, trace::WAL_FSYNC, trace::ROUND_TRIP, || self.wal.sync());
        synced.map_err(|e| e.to_string())?;
        let (applied, _) = tracer.span(id, trace::LEDGER_APPLY, trace::ROUND_TRIP, || {
            self.ledger.apply(&event, lsn)
        });
        applied.map_err(|e| e.to_string())?;
        let answer = Response::ArrivalDecided {
            round_id: envelope.round_id,
            worker: envelope.worker,
            accepted: decision.accepted,
            payment: decision.payment,
            reason: decision.reason.to_string(),
            posted_price: decision.posted_price,
            lsn,
        };
        let (encoded, _) = tracer.span(id, trace::SERVER_ENCODE, trace::ROUND_TRIP, || {
            serde_json::to_string(&answer)
        });
        encoded.map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// The close receipt agrees with the decisions the arrivals were answered
/// with.
fn receipt_matches(receipt: &StreamReceipt, inputs: &Inputs, decisions: &[Decision]) -> bool {
    let mut accepted: Vec<WorkerId> = inputs
        .arrivals
        .iter()
        .zip(decisions)
        .filter(|(_, decision)| decision.0)
        .map(|(envelope, _)| envelope.worker)
        .collect();
    accepted.sort_unstable();
    let paid: Price = decisions.iter().map(|decision| decision.1).sum();
    decisions.len() == inputs.arrivals.len()
        && receipt.arrivals == decisions.len()
        && receipt.accepted == accepted
        && receipt.total_paid == paid
        && !receipt.already_closed
}

pub(crate) fn run(seed: u64, seconds: u64, traced: bool, work_dir: &Path) -> Result<Run, String> {
    let inputs = Inputs::new(seed)?;
    let root = work_dir.join(format!("stream-{}", std::process::id()));
    let result = run_passes(&inputs, seconds, traced, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_passes(inputs: &Inputs, seconds: u64, traced: bool, root: &Path) -> Result<Run, String> {
    let mut tracer = traced.then(|| Tracer::new(Instant::now()));
    let mut run = Run::new();
    let mut counters = Counters::default();
    while run.measured() < seconds as f64 && run.failed == 0 {
        let passes = run.passes.len();
        let dir = root.join(format!("pass-{passes}"));
        counters.add(pass(
            inputs,
            &dir,
            (passes as u64) << 20,
            &mut run,
            tracer.as_mut(),
        )?);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    run.layers = tracer.map(|tracer| Layers { tracer, counters });
    Ok(run)
}
