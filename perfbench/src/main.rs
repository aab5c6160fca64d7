//! End-to-end and per-layer benchmark of the dp-mcs auction service.
//!
//! ```text
//! usage: perfbench --workload <hit|hit_c4|miss|stream> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every workload drives a live `mcs-service`, in its default
//! configuration, behind its loopback TCP front-end with closed-loop
//! clients: each sends its next request only when the answer to the
//! previous one has arrived. A run is a sequence of passes, each on a
//! freshly started service: a pass's start-up is one `setup_s` sample,
//! and its requests are the measured part. The inputs derive from
//! `--seed` alone, and every answer is checked against an in-process
//! recomputation.
//!
//! | workload | clients | traffic | layers it stresses |
//! |----------|---------|---------|--------------------|
//! | `hit` | 1 | auctions on 4 instances the PMF cache holds | wire codec, digest, cache lookup, price draw |
//! | `hit_c4` | 4 | as `hit`, twice as many in flight as the service has workers | as `hit`, plus queue wait, dispatcher batching, shared locks |
//! | `miss` | 1 | auctions cycling through 64 instances, twice the cache capacity | schedule build and PMF on every request |
//! | `stream` | 1 | signed arrivals through durable streaming sessions | signature check, stream decision, WAL append, fsync |
//!
//! On a small shared machine a run's latencies move with the machine's
//! load, by a fifth or more between runs of one seed, and the machine
//! sometimes stalls for tens of seconds. Every end-to-end metric is
//! therefore the median over a run's passes of that pass's figure, so a
//! stall must cover half a run to move it. The tail is reported at p90
//! for every workload: even a `miss` pass answers dozens of requests, and
//! a higher percentile moves more with the machine's load.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! traffic with outside-in spans (see [`trace`]) and reports the per-layer
//! metrics. The last line on stdout is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod auction;
mod stream;
mod trace;

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::ExitCode;

use mcs_service::{decode_response, MetricsReport, Request, Response, Service};

const USAGE: &str =
    "usage: perfbench --workload <hit|hit_c4|miss|stream> --seed N --seconds S --trace <0|1>";

/// Scratch directory, relative to the working directory, for WAL files
/// and span dumps.
const WORK_DIR: &str = ".perfbench_work";

/// A measurement: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What one pass, on one freshly started service, observed. Times are in
/// seconds.
struct Pass {
    setup: f64,
    measured: f64,
    /// Client-side latency of every answered request.
    latencies: Vec<f64>,
}

/// What one workload run observed.
struct Run {
    /// Every answer matched its in-process recomputation.
    correct: bool,
    /// Requests sent while measuring.
    attempted: u64,
    /// Requests that got no successful answer.
    failed: u64,
    passes: Vec<Pass>,
    /// Spans and service counters of a traced run.
    layers: Option<trace::Layers>,
}

impl Run {
    fn new() -> Run {
        Run {
            correct: true,
            attempted: 0,
            failed: 0,
            passes: Vec::new(),
            layers: None,
        }
    }

    fn answered(&self) -> usize {
        self.passes.iter().map(|p| p.latencies.len()).sum()
    }

    /// Wall time spent measuring, in seconds.
    fn measured(&self) -> f64 {
        self.passes.iter().map(|p| p.measured).sum()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["hit", "hit_c4", "miss", "stream"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let work_dir = Path::new(WORK_DIR);
    std::fs::create_dir_all(work_dir).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let run = match args.workload.as_str() {
        "hit" => auction::run(auction::Mix::Hit, 1, args.seed, args.seconds, args.trace)?,
        "hit_c4" => auction::run(auction::Mix::Hit, 4, args.seed, args.seconds, args.trace)?,
        "miss" => auction::run(auction::Mix::Miss, 1, args.seed, args.seconds, args.trace)?,
        _ => stream::run(args.seed, args.seconds, args.trace, work_dir)?,
    };
    let answered = run.answered();
    if answered == 0 {
        return Err(format!(
            "no request was answered ({} sent, {} failed)",
            run.attempted, run.failed
        ));
    }
    let metrics = match &run.layers {
        None => end_to_end(&run),
        Some(layers) => {
            // One file per workload, overwritten by the next traced run.
            let path = work_dir.join(format!("trace-{}.jsonl", args.workload));
            layers
                .tracer
                .write_jsonl(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            layers.metrics(answered as u64)
        }
    };
    println!(
        "perfbench: workload {}, seed {}: {} of {} requests answered in {:.3} s, {} set-ups, correct: {}",
        args.workload,
        args.seed,
        answered,
        run.attempted,
        run.measured(),
        run.passes.len(),
        run.correct
    );
    print_result(&run, &metrics);
    Ok(())
}

/// Every end-to-end metric is the median over the run's passes of that
/// pass's figure, so that a stall of the shared machine covering a few
/// passes does not move the run's result.
fn end_to_end(run: &Run) -> Vec<Metric> {
    let median_over_passes = |figure: &dyn Fn(&Pass) -> f64| {
        let mut values: Vec<f64> = run.passes.iter().map(figure).collect();
        values.sort_by(f64::total_cmp);
        quantile(&values, 0.5)
    };
    let latency_ms = |q: f64| {
        median_over_passes(&|p| {
            let mut sorted = p.latencies.clone();
            sorted.sort_by(f64::total_cmp);
            quantile(&sorted, q) * 1e3
        })
    };
    vec![
        ("latency_p50_ms", latency_ms(0.50), "ms"),
        ("latency_p90_ms", latency_ms(0.90), "ms"),
        (
            "throughput_rps",
            median_over_passes(&|p| p.latencies.len() as f64 / p.measured),
            "1/s",
        ),
        ("setup_s", median_over_passes(&|p| p.setup), "s"),
    ]
}

/// Nearest-rank quantile of ascending `sorted`; 0 when empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn print_result(run: &Run, metrics: &[Metric]) {
    let finite = metrics.iter().all(|(_, value, _)| value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // Adding zero turns the -0 of an empty sum into 0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct && finite,
        run.attempted,
        run.failed,
        body.join(", ")
    );
}

/// A blocking client for the service's line protocol: the framing of
/// `mcs_service::TcpClient::call_once`, split into encode, exchange and
/// decode so that a traced run can time each step.
struct LineClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    answer: String,
}

impl LineClient {
    fn connect(addr: SocketAddr) -> io::Result<LineClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(LineClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            answer: String::new(),
        })
    }

    /// Sends one encoded request line and waits for the answer line.
    fn exchange(&mut self, request_line: &str) -> io::Result<&str> {
        self.writer.write_all(request_line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.answer.clear();
        if self.reader.read_line(&mut self.answer)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the service closed the connection",
            ));
        }
        Ok(self.answer.trim_end())
    }

    fn call(&mut self, request: &Request) -> Result<Response, String> {
        let line = serde_json::to_string(request).map_err(|e| e.to_string())?;
        let answer = self.exchange(&line).map_err(|e| e.to_string())?;
        decode_response(answer).map_err(|e| e.to_string())
    }
}

/// Opens `count` connections to the front-end at `addr` and waits until
/// the service answers on each. This is not part of a set-up sample: the
/// front-end's accept loop polls every 50 ms, so a first connection waits
/// anywhere from nothing to 50 ms, and timing it made `setup_s` flip
/// between runs. Every connection is opened before the first probe, so
/// that the accept loop takes them all in one sweep.
fn connect_ready(addr: SocketAddr, count: usize) -> Result<Vec<LineClient>, String> {
    let mut conns = (0..count)
        .map(|_| LineClient::connect(addr))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    for conn in &mut conns {
        match conn.call(&Request::Health)? {
            Response::Health(_) => {}
            other => return Err(format!("health probe answered {other:?}")),
        }
    }
    Ok(conns)
}

/// The service's own counters, read in process.
fn service_metrics(service: &Service) -> Result<MetricsReport, String> {
    match service.client().call(Request::Metrics) {
        Response::Metrics(report) => Ok(report),
        other => Err(format!("metrics request answered {other:?}")),
    }
}
