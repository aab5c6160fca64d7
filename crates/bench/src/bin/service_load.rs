//! Load generator for the `mcs-service` auction daemon.
//!
//! Drives a loopback TCP service with two workloads at several
//! concurrency levels and records throughput and exact client-side
//! latency quantiles into `BENCH_service.json`, with the measured commit
//! and the number of available cores:
//!
//! * **cold** — every request carries a *distinct* instance, so each one
//!   pays a full schedule + PMF build;
//! * **cached** — every request carries the *same* instance, so after
//!   the first build the service answers from its LRU cache.
//!
//! The ratio of the two p50s (at concurrency 1) is the headline number:
//! the cached path must be at least ~5× faster for the cache to carry
//! a multi-requester platform.
//!
//! ```text
//! usage: service_load [--seed N] [--out PATH] [--quick]
//! ```

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use serde::Serialize;

use mcs_bench::Cli;
use mcs_service::{Request, Response, Service, ServiceConfig, TcpClient, TcpServer};
use mcs_sim::Setting;
use mcs_types::Instance;

/// Table I setting 1 scaled to this worker count: big enough that a
/// schedule build (O(N²K), ~30 ms here) dominates shipping the instance
/// over loopback (O(NK) JSON, ~3 ms here), so the cache's effect on the
/// end-to-end path is visible rather than drowned in transport cost.
const WORKERS_IN_SETTING: usize = 560;
const EPSILON: f64 = 0.1;

#[derive(Debug, Serialize)]
struct ScenarioResult {
    scenario: String,
    concurrency: usize,
    requests: usize,
    busy_responses: u64,
    errors: u64,
    elapsed_ms: f64,
    throughput_rps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
    cache_hits: u64,
    cache_misses: u64,
}

#[derive(Debug, Serialize)]
struct BenchOutput {
    bench: String,
    /// `git describe --always --dirty` of the measured tree.
    commit: String,
    /// `std::thread::available_parallelism` on the measuring machine.
    cores: usize,
    transport: String,
    setting: String,
    seed: u64,
    service_workers: usize,
    scenarios: Vec<ScenarioResult>,
    /// cold p50 / cached p50 at concurrency 1.
    cached_speedup_p50: f64,
}

fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One scenario run: fresh service + TCP front-end, `concurrency`
/// connections splitting `requests.len()` pre-built requests, exact
/// per-request latencies measured client-side.
fn run_scenario(name: &str, concurrency: usize, requests: Vec<Request>) -> ScenarioResult {
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_depth: 1024,
        ..ServiceConfig::default()
    });
    let tcp = TcpServer::bind(service.client(), "127.0.0.1:0").expect("bind loopback");
    let addr: SocketAddr = tcp.local_addr();
    let total = requests.len();

    // Deal requests round-robin so every connection sees the same mix.
    let mut per_client: Vec<Vec<Request>> = (0..concurrency).map(|_| Vec::new()).collect();
    for (i, request) in requests.into_iter().enumerate() {
        per_client[i % concurrency].push(request);
    }

    let started = Instant::now();
    let handles: Vec<_> = per_client
        .into_iter()
        .map(|batch| {
            thread::spawn(move || {
                let mut conn = TcpClient::connect(addr).expect("connect loopback");
                let mut latencies = Vec::with_capacity(batch.len());
                let mut busy = 0u64;
                let mut errors = 0u64;
                for request in &batch {
                    let t = Instant::now();
                    let response = conn.call(request).expect("transport failure");
                    latencies.push(t.elapsed().as_micros() as u64);
                    match response {
                        Response::Busy { .. } => busy += 1,
                        Response::Error { message } => {
                            eprintln!("request error: {message}");
                            errors += 1;
                        }
                        _ => {}
                    }
                }
                (latencies, busy, errors)
            })
        })
        .collect();

    let mut latencies = Vec::with_capacity(total);
    let mut busy = 0u64;
    let mut errors = 0u64;
    for handle in handles {
        let (lat, b, e) = handle.join().expect("client thread panicked");
        latencies.extend(lat);
        busy += b;
        errors += e;
    }
    let elapsed = started.elapsed();

    let Response::Metrics(metrics) = service.client().call(Request::Metrics) else {
        panic!("metrics request failed");
    };
    tcp.shutdown();
    service.shutdown();

    latencies.sort_unstable();
    ScenarioResult {
        scenario: name.to_string(),
        concurrency,
        requests: total,
        busy_responses: busy,
        errors,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        throughput_rps: total as f64 / elapsed.as_secs_f64(),
        p50_us: quantile_us(&latencies, 0.50),
        p95_us: quantile_us(&latencies, 0.95),
        p99_us: quantile_us(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        cache_hits: metrics.cache_hits,
        cache_misses: metrics.cache_misses,
    }
}

fn main() {
    let (cli, out) = Cli::parse_recorded("BENCH_service.json");
    let (seed, quick) = (cli.seed, cli.quick);

    let (cold_n, cached_n) = if quick { (20, 200) } else { (90, 900) };
    let setting = Setting::one(WORKERS_IN_SETTING);
    let shared_instance: Arc<Instance> = Arc::new(setting.generate(seed).instance);

    let cold_requests = |count: usize, salt: u64| -> Vec<Request> {
        (0..count)
            .map(|i| Request::RunAuction {
                instance: setting.generate(seed + salt + i as u64 + 1).instance,
                epsilon: EPSILON,
                seed: i as u64,
            })
            .collect()
    };
    let cached_requests = |count: usize| -> Vec<Request> {
        (0..count)
            .map(|i| Request::RunAuction {
                instance: (*shared_instance).clone(),
                epsilon: EPSILON,
                seed: i as u64,
            })
            .collect()
    };

    println!(
        "service_load: setting one({WORKERS_IN_SETTING}), seed {seed}, \
         {cold_n} cold / {cached_n} cached requests per level, {} cores",
        mcs_bench::cores()
    );
    let mut scenarios = Vec::new();
    for &concurrency in &[1usize, 2, 4] {
        let cold = run_scenario(
            "cold",
            concurrency,
            cold_requests(cold_n, 1000 * concurrency as u64),
        );
        println!(
            "  cold   c={}: {:>7.1} req/s  p50 {:>6} µs  p95 {:>6} µs  p99 {:>6} µs",
            concurrency, cold.throughput_rps, cold.p50_us, cold.p95_us, cold.p99_us
        );
        scenarios.push(cold);
        let cached = run_scenario("cached", concurrency, cached_requests(cached_n));
        println!(
            "  cached c={}: {:>7.1} req/s  p50 {:>6} µs  p95 {:>6} µs  p99 {:>6} µs",
            concurrency, cached.throughput_rps, cached.p50_us, cached.p95_us, cached.p99_us
        );
        scenarios.push(cached);
        // Let ephemeral loopback sockets settle between levels.
        thread::sleep(Duration::from_millis(50));
    }

    let p50 = |name: &str| {
        scenarios
            .iter()
            .find(|s| s.scenario == name && s.concurrency == 1)
            .map(|s| s.p50_us)
            .unwrap_or(0)
    };
    let speedup = p50("cold") as f64 / p50("cached").max(1) as f64;
    println!("  cached speedup at p50 (c=1): {speedup:.1}×");

    let output = BenchOutput {
        bench: "service_load".to_string(),
        commit: mcs_bench::commit(),
        cores: mcs_bench::cores(),
        transport: "loopback_tcp_line_json".to_string(),
        setting: format!("table1/setting1 n={WORKERS_IN_SETTING}"),
        seed,
        service_workers: 2,
        scenarios,
        cached_speedup_p50: speedup,
    };
    let json = serde_json::to_string_pretty(&output).expect("serialize bench output");
    std::fs::write(&out, json + "\n").expect("write bench output");
    println!("wrote {}", out.display());
}
