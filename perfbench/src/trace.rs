//! Outside-in layer tracing.
//!
//! Spans are recorded by the benchmark around the calls it makes into
//! each layer; nothing inside the service is instrumented. For every
//! request the client records `request` (the whole exchange) with the
//! children `client_encode`, `round_trip` and `client_decode`. The
//! service's part of the round trip is then attributed by replaying the
//! request through the public functions the service calls on that path,
//! each in a span whose parent is `round_trip`: `decode_request`,
//! `CacheKey::new`, `PmfCache::get_or_build`, the schedule build, the
//! exponential-mechanism PMF, the seeded price draw,
//! `BidEnvelope::verify`, the stream's `check_admissible` and `evaluate`,
//! `WalWriter::append` and `sync`, `Ledger::apply`, and the answer's
//! encoding. What the replay does not explain — transport, queue wait,
//! dispatch, locks, bookkeeping — is reported as `unattributed_ms`.
//!
//! The replay follows a request served alone, in a batch of one. There the
//! service computes the instance digest twice, once in the dispatcher to
//! find the request's batch and once in the worker to look up the cache,
//! so `digest` spans both calls. Under `hit_c4`'s concurrent clients the
//! dispatcher also re-digests waiting requests while it gathers a batch,
//! and a batch shares one cache lookup; the round trip then holds queue
//! wait and the batch window too. The difference shows in
//! `unattributed_ms`, and `batched_share` counts the requests the service
//! answered in a batch of two or more. The auction workloads replay a
//! pass once its service has stopped, so the replay never competes with
//! the traffic.
//!
//! `csr_build` times `Instance::sparse_coverage` on its own. The schedule
//! engine builds the same CSR inside `schedule_build`, so the probe is
//! reported but not counted in the attribution.
//!
//! Spans stay in memory and are written as JSON lines when the run ends.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use mcs_service::{decode_response, MetricsReport, Request, Response};

use crate::{LineClient, Metric};

pub(crate) const REQUEST: &str = "request";
pub(crate) const CLIENT_ENCODE: &str = "client_encode";
pub(crate) const ROUND_TRIP: &str = "round_trip";
pub(crate) const CLIENT_DECODE: &str = "client_decode";
pub(crate) const SERVER_DECODE: &str = "server_decode";
pub(crate) const DIGEST: &str = "digest";
pub(crate) const CACHE_LOOKUP: &str = "cache_lookup";
pub(crate) const CSR_BUILD: &str = "csr_build";
pub(crate) const SCHEDULE_BUILD: &str = "schedule_build";
pub(crate) const PMF: &str = "pmf";
pub(crate) const SAMPLE: &str = "sample";
pub(crate) const ENVELOPE_VERIFY: &str = "envelope_verify";
pub(crate) const STREAM_DECIDE: &str = "stream_decide";
pub(crate) const WAL_APPEND: &str = "wal_append";
pub(crate) const WAL_FSYNC: &str = "wal_fsync";
pub(crate) const LEDGER_APPLY: &str = "ledger_apply";
pub(crate) const SERVER_ENCODE: &str = "server_encode";

/// The replayed layers that together explain the round trip.
const SERVICE_LAYERS: [&str; 12] = [
    SERVER_DECODE,
    DIGEST,
    CACHE_LOOKUP,
    SCHEDULE_BUILD,
    PMF,
    SAMPLE,
    ENVELOPE_VERIFY,
    STREAM_DECIDE,
    WAL_APPEND,
    WAL_FSYNC,
    LEDGER_APPLY,
    SERVER_ENCODE,
];

/// One timed call. Times are offsets from the tracer's epoch.
struct Span {
    request: u64,
    name: &'static str,
    parent: &'static str,
    start: Duration,
    end: Duration,
    /// Duration minus the part covered by child spans.
    self_time: Duration,
}

/// An in-memory span log, written out when the run ends.
pub(crate) struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub(crate) fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub(crate) fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Runs `f` inside a span; returns its result and the span's duration.
    pub(crate) fn span<T>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let took = self.close(request, name, parent, start, Duration::ZERO);
        (out, took)
    }

    /// Ends a span opened at `start` whose children covered `children`
    /// of it; returns the span's duration.
    pub(crate) fn close(
        &mut self,
        request: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        children: Duration,
    ) -> Duration {
        let end = Instant::now();
        let took = end.saturating_duration_since(start);
        self.spans.push(Span {
            request,
            name,
            parent,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            self_time: took.saturating_sub(children),
        });
        took
    }

    /// Summed duration of every span recorded so far.
    pub(crate) fn covered(&self) -> Duration {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }

    pub(crate) fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Summed duration of the spans called `name`, in milliseconds.
    fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum::<f64>()
            * 1e3
    }

    /// Summed self time of the spans called `name`, in milliseconds.
    fn self_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_time.as_secs_f64())
            .sum::<f64>()
            * 1e3
    }

    pub(crate) fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"request\": {}, \"name\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}}}",
                s.request,
                s.name,
                s.parent,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.self_time.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// One exchange with client-side spans. Returns the answer and the
/// request line, which the replay decodes again as the service did.
pub(crate) fn traced_call(
    tracer: &mut Tracer,
    id: u64,
    conn: &mut LineClient,
    request: &Request,
) -> Result<(Response, String), String> {
    let start = Instant::now();
    let (line, encode) = tracer.span(id, CLIENT_ENCODE, REQUEST, || {
        serde_json::to_string(request)
    });
    let line = line.map_err(|e| e.to_string())?;
    let exchange_start = Instant::now();
    let answer = conn.exchange(&line).map_err(|e| e.to_string())?;
    let round_trip = tracer.close(id, ROUND_TRIP, REQUEST, exchange_start, Duration::ZERO);
    let (response, decode) = tracer.span(id, CLIENT_DECODE, REQUEST, || decode_response(answer));
    tracer.close(id, REQUEST, "", start, encode + round_trip + decode);
    Ok((response.map_err(|e| e.to_string())?, line))
}

/// Service counters over the measured phase, read from the service's own
/// `metrics` endpoint.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    batched: u64,
    wal_frames: u64,
    wal_fsyncs: u64,
}

impl Counters {
    /// What the service did between two snapshots; `batched` counts
    /// `endpoint` only.
    pub(crate) fn between(
        before: &MetricsReport,
        after: &MetricsReport,
        endpoint: &str,
    ) -> Counters {
        let batched = |m: &MetricsReport| {
            m.endpoints
                .iter()
                .find(|e| e.endpoint == endpoint)
                .map_or(0, |e| e.batched)
        };
        Counters {
            cache_hits: after.cache_hits.saturating_sub(before.cache_hits),
            cache_misses: after.cache_misses.saturating_sub(before.cache_misses),
            batched: batched(after).saturating_sub(batched(before)),
            wal_frames: after.wal_frames.saturating_sub(before.wal_frames),
            wal_fsyncs: after.wal_fsyncs.saturating_sub(before.wal_fsyncs),
        }
    }

    pub(crate) fn add(&mut self, other: Counters) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.batched += other.batched;
        self.wal_frames += other.wal_frames;
        self.wal_fsyncs += other.wal_fsyncs;
    }
}

/// The trace of one run.
pub(crate) struct Layers {
    pub(crate) tracer: Tracer,
    pub(crate) counters: Counters,
}

impl Layers {
    /// The per-layer metrics: every layer's mean self time per answered
    /// request, and the service's counters per request.
    pub(crate) fn metrics(&self, requests: u64) -> Vec<Metric> {
        let n = requests.max(1) as f64;
        let per = |name: &str| self.tracer.self_ms(name) / n;
        let request_ms = self.tracer.total_ms(REQUEST) / n;
        let explained: f64 = SERVICE_LAYERS.iter().map(|layer| per(layer)).sum();
        let unattributed = self.tracer.total_ms(ROUND_TRIP) / n - explained;
        let c = self.counters;
        let lookups = (c.cache_hits + c.cache_misses) as f64;
        let hit_rate = if lookups > 0.0 {
            c.cache_hits as f64 / lookups
        } else {
            0.0
        };
        vec![
            ("request_ms", request_ms, "ms"),
            ("client_encode_ms", per(CLIENT_ENCODE), "ms"),
            ("server_decode_ms", per(SERVER_DECODE), "ms"),
            ("digest_ms", per(DIGEST), "ms"),
            ("cache_lookup_ms", per(CACHE_LOOKUP), "ms"),
            ("csr_build_ms", per(CSR_BUILD), "ms"),
            ("schedule_build_ms", per(SCHEDULE_BUILD), "ms"),
            ("pmf_ms", per(PMF), "ms"),
            ("sample_ms", per(SAMPLE), "ms"),
            ("envelope_verify_ms", per(ENVELOPE_VERIFY), "ms"),
            ("stream_decide_ms", per(STREAM_DECIDE), "ms"),
            ("wal_append_ms", per(WAL_APPEND), "ms"),
            ("wal_fsync_ms", per(WAL_FSYNC), "ms"),
            ("ledger_apply_ms", per(LEDGER_APPLY), "ms"),
            ("server_encode_ms", per(SERVER_ENCODE), "ms"),
            ("client_decode_ms", per(CLIENT_DECODE), "ms"),
            ("unattributed_ms", unattributed, "ms"),
            ("attributed_share", 1.0 - unattributed / request_ms, "ratio"),
            ("requests", n, "count"),
            ("cache_hit_rate", hit_rate, "ratio"),
            ("batched_share", c.batched as f64 / n, "ratio"),
            (
                "wal_frames_per_request",
                c.wal_frames as f64 / n,
                "count/req",
            ),
            (
                "wal_fsyncs_per_request",
                c.wal_fsyncs as f64 / n,
                "count/req",
            ),
        ]
    }
}
