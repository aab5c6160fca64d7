//! Streaming-auction bench: per-arrival decision latency through the
//! durable service endpoints, and the incremental vs from-scratch
//! hindsight-pricing comparison in `mcs-sim`'s online module.
//!
//! Three measurements land in `BENCH_online.json`, with the measured
//! commit and the number of available cores:
//!
//! * **signature** — p50 of the vendored ed25519's
//!   `VerifyingKey::from_bytes` (paid per roster key when a round or
//!   stream opens), `VerifyingKey::verify` (paid by every `arrive`) and
//!   `SigningKey::sign`, over `SIGNATURE_KEYS` keys × `SIGNATURE_REPEATS`.
//!   Every timed signature must verify and a one-bit corruption of it
//!   must not; otherwise the bin panics and exits non-zero.
//! * **service arrivals** — a seeded stream driven through
//!   `open_stream` / `arrive` / `close_stream` on a durable service
//!   (fsync-on-accept), with exact client-side latency quantiles per
//!   arrival. This is the end-to-end cost of one irrevocable online
//!   decision, WAL included.
//! * **pricing paths** — `StageThreshold` runs with
//!   [`PricingPath::Incremental`] (PR 5 warm-started replay) against
//!   [`PricingPath::FromScratch`] (full residual rebuild per arrival)
//!   on identical timelines. Both must be observationally identical;
//!   the wall-clock ratio is the headline. Elapsed times are the
//!   minimum over `REPEATS` runs, so the speedup is a floor-to-floor
//!   comparison, not noise.
//!
//! ```text
//! usage: online_stream [--seed N] [--out PATH] [--quick]
//! ```

use std::time::Instant;

use serde::Serialize;

use ed25519::{hex_encode, Signature, SigningKey, VerifyingKey};
use mcs_bench::Cli;
use mcs_service::{
    BidEnvelope, DurabilityConfig, Request, Response, RosterEntry, RoundSpec, Service,
    ServiceConfig, StreamSpec,
};
use mcs_sim::online::{
    ArrivalTimeline, OnlineMechanism, PricingPath, StageThreshold, TimelineConfig,
};
use mcs_sim::Setting;
use mcs_types::{Bid, Bundle, Price, TaskId, WorkerId};

const REPEATS: usize = 3;
const SIGNATURE_KEYS: u32 = 200;
const SIGNATURE_REPEATS: usize = 5;

#[derive(Debug, Serialize)]
struct SignatureLayer {
    keys: u32,
    repeats: usize,
    /// p50 of `VerifyingKey::from_bytes` (point decompression), µs.
    decompress_p50_us: f64,
    /// p50 of `VerifyingKey::verify` on a valid signature, µs.
    verify_p50_us: f64,
    /// p50 of `SigningKey::sign`, µs.
    sign_p50_us: f64,
}

#[derive(Debug, Serialize)]
struct ArrivalScenario {
    scenario: String,
    roster: usize,
    sample_target: usize,
    arrivals: usize,
    accepted: usize,
    fallback_threshold: bool,
    /// Exact client-side per-arrival decision latency.
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
    /// Per-arrival WAL cost context: frames and fsyncs over the stream.
    wal_frames: u64,
    wal_fsyncs: u64,
}

#[derive(Debug, Serialize)]
struct PricingScenario {
    workers: usize,
    arrivals: usize,
    /// Minimum over `REPEATS` runs, milliseconds.
    incremental_ms: f64,
    from_scratch_ms: f64,
    /// `from_scratch_ms / incremental_ms`.
    speedup: f64,
    /// Replay counters of the incremental path's final run.
    replay_skipped: u64,
    replay_confirmed: u64,
    replay_rebuilt: u64,
    /// Whether the two paths produced identical decisions, payments and
    /// competitive ratios (they must).
    observationally_identical: bool,
}

#[derive(Debug, Serialize)]
struct BenchOutput {
    bench: String,
    commit: String,
    cores: usize,
    seed: u64,
    repeats: usize,
    signature: SignatureLayer,
    service: Vec<ArrivalScenario>,
    pricing: Vec<PricingScenario>,
    /// Geometric mean of the per-size pricing speedups.
    incremental_speedup_geomean: f64,
}

fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of nanosecond samples, in µs to one decimal.
fn p50_us(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    (quantile_us(&ns, 0.50) as f64 / 100.0).round() / 10.0
}

/// Times key decoding, verification and signing one call at a time,
/// checking every verdict.
fn run_signature_layer(seed: u64) -> SignatureLayer {
    let keys: Vec<SigningKey> = (0..SIGNATURE_KEYS).map(|w| key_for(w, seed)).collect();
    let time = |samples: &mut Vec<u64>, t: Instant| samples.push(t.elapsed().as_nanos() as u64);
    let (mut decompress, mut verify, mut sign) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SIGNATURE_REPEATS {
        for (w, key) in keys.iter().enumerate() {
            let message = format!("round 1, worker {w}, bid {}", w % 25);
            let t = Instant::now();
            let signature = key.sign(message.as_bytes());
            time(&mut sign, t);
            let encoded = key.verifying_key().to_bytes();
            let t = Instant::now();
            let public = VerifyingKey::from_bytes(&encoded);
            time(&mut decompress, t);
            let public = public.expect("a generated public key decodes");
            let t = Instant::now();
            let verdict = public.verify(message.as_bytes(), &signature);
            time(&mut verify, t);
            assert_eq!(verdict, Ok(()), "worker {w}'s signature failed to verify");
            let mut corrupted = signature.to_bytes();
            corrupted[w % 64] ^= 1 << (w % 8);
            assert!(
                public
                    .verify(message.as_bytes(), &Signature::from_bytes(&corrupted))
                    .is_err(),
                "worker {w}'s signature verified with bit {} flipped",
                (w % 64) * 8 + w % 8
            );
        }
    }
    SignatureLayer {
        keys: SIGNATURE_KEYS,
        repeats: SIGNATURE_REPEATS,
        decompress_p50_us: p50_us(decompress),
        verify_p50_us: p50_us(verify),
        sign_p50_us: p50_us(sign),
    }
}

fn key_for(worker: u32, seed: u64) -> SigningKey {
    let mut key = [0u8; 32];
    key[..4].copy_from_slice(&worker.to_le_bytes());
    key[8..16].copy_from_slice(&seed.to_le_bytes());
    key[31] = 0xB2;
    SigningKey::from_seed(key)
}

fn stream_spec(round_id: u64, roster: u32, sample_target: usize, seed: u64) -> StreamSpec {
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
            roster: (0..roster)
                .map(|w| RosterEntry {
                    worker: WorkerId(w),
                    public_key: hex_encode(&key_for(w, seed).verifying_key().to_bytes()),
                    skills: vec![0.9, 0.9, 0.9],
                })
                .collect(),
        },
        sample_target,
        seed,
    }
}

/// Drives one full stream through a fresh durable service and measures
/// every `arrive` round-trip exactly.
fn run_service_scenario(
    name: &str,
    roster: u32,
    sample_target: usize,
    seed: u64,
) -> ArrivalScenario {
    let dir = std::env::temp_dir().join(format!("mcs-bench-online-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = Service::start(ServiceConfig {
        workers: 1,
        durability: Some(DurabilityConfig::new(&dir)),
        ..ServiceConfig::default()
    });
    let client = service.client();

    let spec = stream_spec(1, roster, sample_target, seed);
    let Response::StreamOpened { .. } = client.call(Request::OpenStream { spec }) else {
        panic!("open_stream failed");
    };

    // Pre-sign every envelope so signing cost stays out of the timings.
    let envelopes: Vec<BidEnvelope> = (0..roster)
        .map(|w| {
            let bid = Bid::new(
                Bundle::new(vec![TaskId(w % 3), TaskId((w + 1) % 3)]),
                Price::from_f64(2.0 + f64::from(w % 25)),
            );
            BidEnvelope::sign(
                1,
                WorkerId(w),
                bid,
                u64::from(w) + 1,
                u64::MAX,
                &key_for(w, seed),
            )
        })
        .collect();

    let mut latencies = Vec::with_capacity(envelopes.len());
    let mut accepted = 0usize;
    for envelope in envelopes {
        let t = Instant::now();
        let response = client.call(Request::Arrive { envelope });
        latencies.push(t.elapsed().as_micros() as u64);
        match response {
            Response::ArrivalDecided { accepted: a, .. } => accepted += usize::from(a),
            other => panic!("arrival not decided: {other:?}"),
        }
    }

    let Response::Metrics(metrics) = client.call(Request::Metrics) else {
        panic!("metrics failed");
    };
    let Response::StreamStatus(status) = client.call(Request::RoundStatus { round_id: 1 }) else {
        panic!("status failed");
    };
    let fallback = status.posted_price.is_none();
    let Response::StreamClosed(receipt) = client.call(Request::CloseStream { round_id: 1 }) else {
        panic!("close failed");
    };
    assert_eq!(receipt.accepted.len(), accepted);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    latencies.sort_unstable();
    ArrivalScenario {
        scenario: name.to_string(),
        roster: roster as usize,
        sample_target,
        arrivals: latencies.len(),
        accepted,
        fallback_threshold: fallback,
        p50_us: quantile_us(&latencies, 0.50),
        p99_us: quantile_us(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        wal_frames: metrics.wal_frames,
        wal_fsyncs: metrics.wal_fsyncs,
    }
}

/// Times `StageThreshold` over one timeline under both hindsight pricing
/// paths and checks they agree on everything observable.
fn run_pricing_scenario(workers: usize, seed: u64) -> PricingScenario {
    let instance = Setting::one(workers).generate(seed).instance;
    let timeline = ArrivalTimeline::generate(&instance, &TimelineConfig::default(), seed);

    let time_path = |path: PricingPath| {
        let mechanism = StageThreshold::new().pricing(path);
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..REPEATS {
            let t = Instant::now();
            let report = mechanism
                .run(&instance, &timeline, seed)
                .expect("online round failed");
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
            last = Some(report);
        }
        (best, last.expect("at least one run"))
    };

    let (incremental_ms, inc) = time_path(PricingPath::Incremental);
    let (from_scratch_ms, fs) = time_path(PricingPath::FromScratch);

    let identical = inc.accepted == fs.accepted
        && inc.total_payment == fs.total_payment
        && inc.competitive_ratio == fs.competitive_ratio
        && inc
            .decisions
            .iter()
            .zip(fs.decisions.iter())
            .all(|(a, b)| a.decision == b.decision && a.hindsight == b.hindsight);

    PricingScenario {
        workers,
        arrivals: timeline.len(),
        incremental_ms,
        from_scratch_ms,
        speedup: from_scratch_ms / incremental_ms.max(1e-9),
        replay_skipped: inc.replay.skipped,
        replay_confirmed: inc.replay.confirmed,
        replay_rebuilt: inc.replay.rebuilt,
        observationally_identical: identical,
    }
}

fn main() {
    let (cli, out) = Cli::parse_recorded("BENCH_online.json");
    let (seed, quick) = (cli.seed, cli.quick);

    let service_sizes: &[(u32, usize)] = if quick {
        &[(100, 25)]
    } else {
        &[(100, 25), (400, 100)]
    };
    let pricing_sizes: &[usize] = if quick { &[80] } else { &[80, 160, 320] };

    let signature = run_signature_layer(seed);
    println!(
        "signature ({} keys × {}): decompress p50 {} µs, verify p50 {} µs, sign p50 {} µs",
        signature.keys,
        signature.repeats,
        signature.decompress_p50_us,
        signature.verify_p50_us,
        signature.sign_p50_us
    );

    let mut service = Vec::new();
    for &(roster, sample) in service_sizes {
        let name = format!("stream-{roster}");
        let s = run_service_scenario(&name, roster, sample, seed);
        println!(
            "service {name}: {} arrivals, {} accepted, p50 {} µs, p99 {} µs, \
             {} fsyncs",
            s.arrivals, s.accepted, s.p50_us, s.p99_us, s.wal_fsyncs
        );
        service.push(s);
    }

    let mut pricing = Vec::new();
    for &workers in pricing_sizes {
        let p = run_pricing_scenario(workers, seed);
        println!(
            "pricing n={workers}: incremental {:.1} ms vs from-scratch {:.1} ms \
             ({:.1}×, identical: {})",
            p.incremental_ms, p.from_scratch_ms, p.speedup, p.observationally_identical
        );
        pricing.push(p);
    }

    let geomean = pricing
        .iter()
        .map(|p| p.speedup.max(1e-9).ln())
        .sum::<f64>()
        / pricing.len().max(1) as f64;
    let geomean = geomean.exp();
    println!("incremental pricing speedup (geomean): {geomean:.1}×");

    let output = BenchOutput {
        bench: "online_stream".to_string(),
        commit: mcs_bench::commit(),
        cores: mcs_bench::cores(),
        seed,
        repeats: REPEATS,
        signature,
        service,
        pricing,
        incremental_speedup_geomean: geomean,
    };
    let json = serde_json::to_string_pretty(&output).expect("serialize bench output");
    std::fs::write(&out, json + "\n").expect("write bench output");
    println!("wrote {}", out.display());
}
