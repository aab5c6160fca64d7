//! Byte-level fuzzing of the service wire decoder and the WAL reader.
//!
//! The TCP transport hands every received line to
//! [`mcs_service::decode_request`] — a one-pass typed read, or, for a
//! line that read does not accept, a recursive-descent JSON parse, a
//! soundness walk (finiteness, duplicate keys), and typed
//! deserialization. [`run_fuzz`] drives that path with a seed corpus
//! plus random byte mutations. The corpus holds one written line of every
//! request and response kind, so the mutations reach every request kind
//! the one-pass reader takes. The run asserts three properties:
//!
//! 1. **No panics** — arbitrary bytes must produce `Ok` or a typed
//!    `WireError`, never an unwind (or worse, a stack overflow — the
//!    parser's recursion depth is capped for exactly this reason). An
//!    accepted instance must also be usable: its digest (the service's
//!    cache key) and its coverage problem are computed, so a decoder that
//!    lets through an instance that panics later counts as a panic.
//! 2. **Round-trip stability** — any line the decoder *accepts* must
//!    re-encode and decode to the identical encoding:
//!    `encode(decode(x))` is a fixed point of `encode ∘ decode`.
//! 3. **One codec, two paths** — [`mcs_service::decode_request`] reads a
//!    line in one pass and falls back to a value tree only for lines it
//!    does not accept; on every input it must answer exactly what the
//!    tree-only [`mcs_service::decode_request_via_tree`] answers, the same
//!    `Ok` value or the same `Err`. And every accepted request or
//!    response must print the same bytes written directly as written
//!    through its tree (`to_value`), and as printed from that tree by a
//!    test-grade printer that formats numbers with `format!`. A mismatch
//!    counts as a round-trip failure.
//! 4. **The memo decodes alike** — the TCP front-end decodes through the
//!    service's [`DecodeMemo`], which serves a line repeating a memoised
//!    instance's exact bytes without parsing it. Every input goes through
//!    a fresh memo three times, so the last decode can hit (an instance is
//!    kept on its second sighting); an accepted
//!    instance-first line is then followed by edits of its members
//!    (reordered, an unknown key, a repeated `instance` or `epsilon`,
//!    whitespace after the instance, its last θ digit changed, the line
//!    cut inside the instance). Each must get [`decode_request`]'s answer
//!    and the cache key `Client::call` would derive, or it counts as a
//!    round-trip failure.
//!
//! [`run_wal_fuzz`] does the same to the crash-recovery path: arbitrary
//! WAL images go through [`mcs_service::recover_from_bytes`], which must
//! never panic, must be deterministic, and must hand back a valid prefix
//! that re-scans as a clean fixed point.
//!
//! Mutations are deterministic in the seed, so a failing iteration
//! number reproduces exactly.

use std::panic::{self, AssertUnwindSafe};

use ed25519::{hex_encode, SigningKey};
use mcs_auction::{AuctionOutcome, DpHsrcAuction};
use mcs_num::rng;
use mcs_service::{
    decode_request, decode_request_via_tree, decode_response, encode_frame, recover_from_bytes,
    scan_bytes, BidEnvelope, CacheKey, CommitReceipt, DecodeMemo, EndpointMetrics, HealthReport,
    LatencySummary, MetricsReport, PaymentRecord, PmfSummary, Request, Response, RosterEntry,
    RoundSpec, RoundStatusView, StreamReceipt, StreamSpec, StreamStatusView, WalEvent, WireError,
    WAL_HEADER_LEN,
};
use mcs_sim::faults::FaultPlan;
use mcs_sim::platform::{run_round_resilient, ResilienceConfig};
use mcs_sim::Setting;
use mcs_types::{Bid, Bundle, Fnv1a, Price, TaskId, WorkerId};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Number, Serialize, Value};

/// Hand-written corpus lines compiled into the binary: valid requests
/// and responses, near-misses (missing fields, unknown tags), the
/// pathologies the decoder must reject (duplicate keys, non-finite
/// numbers, truncation, deep nesting), and one-edit corruptions of a
/// valid auction request that the grammar alone would accept (`hostile_*`:
/// θ or δ out of range, a bundle task past the task count, a zero grid
/// step, a dense θ one cell short).
const SEED_CORPUS: &[&str] = &[
    include_str!("../tests/corpus/health.json"),
    include_str!("../tests/corpus/metrics.json"),
    include_str!("../tests/corpus/query_pmf_missing_field.json"),
    include_str!("../tests/corpus/dup_key.json"),
    include_str!("../tests/corpus/nonfinite.json"),
    include_str!("../tests/corpus/unknown_tag.json"),
    include_str!("../tests/corpus/truncated.json"),
    include_str!("../tests/corpus/busy_response.json"),
    include_str!("../tests/corpus/error_response.json"),
    include_str!("../tests/corpus/deep_nesting.json"),
    include_str!("../tests/corpus/uncertain_request.json"),
    include_str!("../tests/corpus/bad_probability.json"),
    include_str!("../tests/corpus/hostile_theta_out_of_range.json"),
    include_str!("../tests/corpus/hostile_delta_out_of_range.json"),
    include_str!("../tests/corpus/hostile_bundle_task_out_of_range.json"),
    include_str!("../tests/corpus/hostile_grid_step_zero.json"),
    include_str!("../tests/corpus/hostile_theta_short.json"),
];

/// Counters from one fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Inputs executed (corpus + mutations).
    pub executed: u64,
    /// Inputs the request or response decoder accepted.
    pub accepted: u64,
    /// Inputs both decoders rejected with a typed error.
    pub rejected: u64,
    /// Inputs that made a decoder panic — always a bug.
    pub panics: u64,
    /// Accepted inputs whose decode → encode → decode round trip was
    /// not a fixed point, inputs on which the one-pass and tree decoders
    /// disagree, and accepted values whose direct and tree encodings
    /// differ — always a bug.
    pub roundtrip_failures: u64,
    /// FNV-1a digest of every executed input, each prefixed by its length:
    /// two runs drew the same inputs iff (barring a collision) their
    /// digests agree.
    pub inputs_digest: u64,
}

impl FuzzOutcome {
    /// True when no invariant was violated.
    pub fn clean(&self) -> bool {
        self.panics == 0 && self.roundtrip_failures == 0
    }
}

/// The full starting corpus: compiled seed lines, runtime-encoded
/// complex requests (real instances carry the deep nested structure —
/// bids, skill rows, grids — that hand-written lines cannot cover) and
/// one line of every wire variant.
pub fn builtin_corpus() -> Vec<Vec<u8>> {
    let mut corpus: Vec<Vec<u8>> = SEED_CORPUS
        .iter()
        .map(|s| s.trim_end().as_bytes().to_vec())
        .collect();
    for seed in [1u64, 2, 3] {
        let instance = Setting::one(80).scaled_down(16).generate(seed).instance;
        let requests = [
            Request::RunAuction {
                instance: instance.clone(),
                epsilon: 0.1 * seed as f64,
                seed,
            },
            Request::QueryPmf {
                instance,
                epsilon: 0.5,
            },
        ];
        for request in requests {
            let line = serde_json::to_string(&request).expect("requests always serialize");
            corpus.push(line.into_bytes());
        }
    }
    // Chance-constrained instances carry the `completion` block — the
    // Bernoulli probability rows and per-task shortfall budgets whose
    // range checks the decoder must enforce. Mutations of these lines
    // breed out-of-range probabilities and budgets organically.
    for seed in [1u64, 2] {
        let instance = crate::gen::generate(crate::gen::Shape::UncertainTasks, seed);
        let request = Request::QueryPmf {
            instance,
            epsilon: 0.25,
        };
        let line = serde_json::to_string(&request).expect("requests always serialize");
        corpus.push(line.into_bytes());
    }
    corpus.extend(every_variant_lines().into_iter().map(String::into_bytes));
    corpus
}

/// One written line of every [`Request`] and [`Response`] variant, so
/// that the differential sees every request kind the one-pass reader takes
/// and every response kind.
fn every_variant_lines() -> Vec<String> {
    let g = Setting::one(80).scaled_down(16).generate(4);
    let (_, envelope) = signed_bid(3, 1);
    let plan = FaultPlan::no_show(0.3, 4);
    let auction = DpHsrcAuction::new(0.5).expect("a valid epsilon");
    let round = run_round_resilient(
        &g.instance,
        &g.types,
        &auction,
        &plan,
        &ResilienceConfig::default(),
        &mut rng::seeded(4),
    )
    .expect("the round runs");
    let requests = [
        Request::RunAuction {
            instance: g.instance.clone(),
            epsilon: 0.5,
            seed: 4,
        },
        Request::QueryPmf {
            instance: g.instance.clone(),
            epsilon: 0.5,
        },
        Request::RunResilientRound {
            instance: g.instance,
            types: g.types,
            epsilon: 0.5,
            plan,
            config: ResilienceConfig::default(),
            seed: 4,
        },
        Request::Health,
        Request::Metrics,
        Request::OpenRound {
            spec: round_spec(3),
        },
        Request::SubmitBid {
            envelope: envelope.clone(),
        },
        Request::CommitRound {
            round_id: 3,
            seed: 7,
        },
        Request::AbortRound { round_id: 3 },
        Request::RoundStatus { round_id: 3 },
        Request::OpenStream {
            spec: StreamSpec {
                round: round_spec(3),
                sample_target: 1,
                seed: 5,
            },
        },
        Request::Arrive { envelope },
        Request::CloseStream { round_id: 3 },
    ];
    let price = Price::from_f64(4.0);
    let responses = [
        Response::Outcome(AuctionOutcome::new(price, vec![WorkerId(0), WorkerId(1)])),
        Response::Pmf(PmfSummary {
            prices: vec![price, Price::from_f64(5.0)],
            probs: vec![0.25, 0.75],
        }),
        Response::Round(Box::new(round)),
        Response::Health(HealthReport {
            workers: 2,
            queue_capacity: 64,
            cache_entries: 1,
            cache_capacity: 32,
            draining: false,
            recovered_rounds: 1,
            last_synced_lsn: 9,
            wal_size_bytes: 512,
        }),
        Response::Metrics(MetricsReport {
            endpoints: vec![EndpointMetrics {
                endpoint: "arrive".to_string(),
                count: 3,
                errors: 1,
                batched: 0,
                busy: 0,
                latency: Some(LatencySummary {
                    p50_us: 90,
                    p95_us: 200,
                    p99_us: 250,
                    max_us: 260,
                }),
            }],
            cache_hits: 2,
            cache_misses: 1,
            rejected_busy: 0,
            wal_frames: 9,
            wal_fsyncs: 9,
            envelope_rejections: 1,
        }),
        Response::Busy {
            retry_after_hint_ms: 10,
        },
        Response::ShuttingDown,
        Response::Error {
            message: "infeasible".to_string(),
        },
        Response::Opened {
            round_id: 3,
            lsn: 1,
        },
        Response::BidAccepted {
            round_id: 3,
            lsn: 2,
        },
        Response::Committed(Box::new(CommitReceipt {
            round_id: 3,
            price,
            winners: vec![WorkerId(1)],
            payments: vec![PaymentRecord {
                worker: WorkerId(1),
                amount: price,
            }],
            lsn: 4,
            already_committed: false,
        })),
        Response::Aborted {
            round_id: 3,
            lsn: 5,
        },
        Response::RoundStatus(RoundStatusView {
            round_id: 3,
            phase: "settled".to_string(),
            bids_admitted: 2,
            winners: vec![WorkerId(1)],
            total_paid: price,
        }),
        Response::Rejected {
            code: "replayed_nonce".to_string(),
            detail: "nonce 31 already used".to_string(),
        },
        Response::StreamOpened {
            round_id: 3,
            lsn: 1,
            sample_target: 1,
        },
        Response::ArrivalDecided {
            round_id: 3,
            worker: WorkerId(1),
            accepted: true,
            payment: price,
            reason: "accepted".to_string(),
            posted_price: Some(price),
            lsn: 3,
        },
        Response::StreamClosed(Box::new(StreamReceipt {
            round_id: 3,
            arrivals: 2,
            accepted: vec![WorkerId(1)],
            posted_price: Some(price),
            total_paid: price,
            covered: true,
            lsn: 4,
            already_closed: false,
        })),
        Response::StreamStatus(StreamStatusView {
            round_id: 3,
            phase: "closed".to_string(),
            arrivals: 2,
            sample_target: 1,
            accepted: vec![WorkerId(1)],
            posted_price: None,
            total_paid: price,
            covered: true,
        }),
    ];
    let written = "wire values always serialize";
    let mut lines: Vec<String> = requests
        .iter()
        .map(|r| serde_json::to_string(r).expect(written))
        .collect();
    lines.extend(
        responses
            .iter()
            .map(|r| serde_json::to_string(r).expect(written)),
    );
    lines
}

/// Runs the corpus plus `iters` seeded mutations through both decoders.
///
/// A panic inside the decoder is caught (with the panic hook silenced
/// for the duration) and counted; it never aborts the run.
pub fn run_fuzz(iters: u64, seed: u64) -> FuzzOutcome {
    let corpus = builtin_corpus();
    let mut outcome = FuzzOutcome::default();
    let mut inputs = Fnv1a::new();
    let previous_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    for entry in &corpus {
        inputs.write_usize(entry.len());
        inputs.write(entry);
        execute(entry, &mut outcome);
    }
    let mut stream = rng::derived(seed, 0xF022);
    for _ in 0..iters {
        let mut bytes = corpus[stream.gen_range(0..corpus.len())].clone();
        let rounds = stream.gen_range(1usize..=4);
        for _ in 0..rounds {
            mutate(&mut bytes, &corpus, &mut stream);
        }
        inputs.write_usize(bytes.len());
        inputs.write(&bytes);
        execute(&bytes, &mut outcome);
    }
    panic::set_hook(previous_hook);
    outcome.inputs_digest = inputs.finish();
    outcome
}

/// Feeds one input through both decoders, updating the counters.
fn execute(bytes: &[u8], outcome: &mut FuzzOutcome) {
    // Production only ever sees UTF-8 (`read_line` enforces it), so
    // mutated bytes go through a lossy conversion rather than being
    // skipped — the replacement characters still stress the parser.
    let text = String::from_utf8_lossy(bytes);
    let line = text.trim();
    outcome.executed += 1;
    match panic::catch_unwind(AssertUnwindSafe(|| probe(line))) {
        Err(_) => outcome.panics += 1,
        Ok(Probe::Rejected) => outcome.rejected += 1,
        Ok(Probe::Accepted) => outcome.accepted += 1,
        Ok(Probe::Unstable) => {
            outcome.accepted += 1;
            outcome.roundtrip_failures += 1;
        }
    }
}

enum Probe {
    Rejected,
    Accepted,
    Unstable,
}

/// Whether the direct writer, the tree writer and [`formatted`] print the
/// same bytes. The first two share their number kernels; the third
/// prints numbers with `format!`, so a kernel bug shows as a disagreement.
fn writers_agree<T: Serialize>(value: &T) -> bool {
    let direct = serde_json::to_string(value).expect("values always serialize");
    let tree = value.to_value();
    let mut reference = String::new();
    formatted(&tree, &mut reference);
    direct == serde_json::to_string(&tree).expect("trees always serialize") && direct == reference
}

/// A test-grade compact printer of a value tree, independent of
/// `serde_json`'s writers: numbers are `format!`ed (a float that prints
/// without a point gets the writers' `.0` marker, a non-finite one prints
/// as `null`), and strings take the writers' escapes.
fn formatted(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(&format!("{b}")),
        Value::Number(Number::PosInt(u)) => out.push_str(&format!("{u}")),
        Value::Number(Number::NegInt(i)) => out.push_str(&format!("{i}")),
        Value::Number(Number::Float(f)) if !f.is_finite() => out.push_str("null"),
        Value::Number(Number::Float(f)) => {
            let text = format!("{f}");
            out.push_str(&text);
            if !text.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::String(s) => formatted_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                formatted(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                formatted_string(key, out);
                out.push(':');
                formatted(item, out);
            }
            out.push('}');
        }
    }
}

fn formatted_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Decodes a line as a request and as a response; any accepted decode
/// must survive encode → decode with an identical re-encoding, and any
/// accepted instance must digest and yield its coverage problem. The
/// request decoder must agree with its tree-only reference, and the
/// direct writer with the tree writer.
fn probe(line: &str) -> Probe {
    let mut any_accepted = false;
    let decoded = decode_request(line);
    if decoded != decode_request_via_tree(line) || !memo_agrees(&DecodeMemo::new(4), line, &decoded)
    {
        return Probe::Unstable;
    }
    if let Ok(request) = decoded {
        any_accepted = true;
        match &request {
            Request::RunAuction { instance, .. }
            | Request::QueryPmf { instance, .. }
            | Request::RunResilientRound { instance, .. } => {
                std::hint::black_box(instance.digest());
                std::hint::black_box(instance.sparse_coverage());
            }
            _ => {}
        }
        if !writers_agree(&request) {
            return Probe::Unstable;
        }
        let encoded = serde_json::to_string(&request).expect("accepted requests re-encode");
        match decode_request(&encoded) {
            Ok(again) => {
                let twice = serde_json::to_string(&again).expect("accepted requests re-encode");
                if twice != encoded {
                    return Probe::Unstable;
                }
            }
            Err(_) => return Probe::Unstable,
        }
    }
    // `decode_response` takes the tree path alone, so there is no second
    // decoder to compare it with.
    if let Ok(response) = decode_response(line) {
        any_accepted = true;
        if !writers_agree(&response) {
            return Probe::Unstable;
        }
        let encoded = serde_json::to_string(&response).expect("accepted responses re-encode");
        match decode_response(&encoded) {
            Ok(again) => {
                let twice = serde_json::to_string(&again).expect("accepted responses re-encode");
                if twice != encoded {
                    return Probe::Unstable;
                }
            }
            Err(_) => return Probe::Unstable,
        }
    }
    if any_accepted {
        Probe::Accepted
    } else {
        Probe::Rejected
    }
}

/// The compact openings of the lines whose instance the memo keeps.
const INSTANCE_FIRST: [&str; 2] = [
    r#"{"type":"run_auction","instance":"#,
    r#"{"type":"query_pmf","instance":"#,
];

/// Whether `memo` answers `line` as `decoded` (its [`decode_request`]
/// answer) three times — the memo keeps an instance on its second
/// sighting, so the third can hit — and then each of [`memo_edits`] of it
/// as [`decode_request`] does.
fn memo_agrees(memo: &DecodeMemo, line: &str, decoded: &Result<Request, WireError>) -> bool {
    (0..3).all(|_| memo_answers(memo, line, decoded))
        && memo_edits(line, decoded)
            .iter()
            .all(|edit| memo_answers(memo, edit, &decode_request(edit)))
}

/// Whether `memo` decodes `line` to `reference`, with the cache key
/// `Client::call` derives from the request.
fn memo_answers(memo: &DecodeMemo, line: &str, reference: &Result<Request, WireError>) -> bool {
    match (memo.decode(line), reference) {
        (Ok((request, key)), Ok(expected)) => {
            let expected_key = match expected {
                Request::RunAuction {
                    instance, epsilon, ..
                }
                | Request::QueryPmf { instance, epsilon } => {
                    Some(CacheKey::new(instance, *epsilon))
                }
                _ => None,
            };
            request == *expected && key == expected_key
        }
        (Err(err), Err(expected)) => err.to_string() == expected.to_string(),
        _ => false,
    }
}

/// Edits of an accepted instance-first line that test the memo's hit
/// path once the line is memoised: its members reordered, an unknown key
/// appended, a repeated `instance` or `epsilon`, whitespace after the
/// instance, the last θ digit changed, and the line cut inside the
/// instance. Empty for any other line.
fn memo_edits(line: &str, decoded: &Result<Request, WireError>) -> Vec<String> {
    let (epsilon, seed) = match decoded {
        Ok(Request::RunAuction { epsilon, seed, .. }) => (epsilon, Some(seed)),
        Ok(Request::QueryPmf { epsilon, .. }) => (epsilon, None),
        _ => return Vec::new(),
    };
    let Some((_, Some(span))) = serde::read_document_with_span::<Request>(line, "instance") else {
        return Vec::new();
    };
    if !INSTANCE_FIRST
        .iter()
        .any(|prefix| line.starts_with(prefix) && span.start == prefix.len())
    {
        return Vec::new();
    }
    let (head, tail) = line.split_at(span.end);
    let instance = &line[span.clone()];
    let epsilon = format!(
        r#""epsilon":{}"#,
        serde_json::to_string(epsilon).expect("a float")
    );
    let members = match seed {
        Some(seed) => format!(r#","seed":{seed},{epsilon}}}"#),
        None => format!(",{epsilon} }}"),
    };
    let open = &tail[..tail.len() - 1];
    let mut edits = vec![
        format!("{head}{members}"),
        format!(r#"{open},"note":1}}"#),
        format!(r#"{head},"instance":{instance}{tail}"#),
        format!("{head},{epsilon}{tail}"),
        format!("{head} {tail}"),
    ];
    if let Some(theta) = instance.rfind(r#""theta":["#) {
        let close = instance[theta..]
            .find(']')
            .map(|at| span.start + theta + at);
        if let Some(last) = close.filter(|&at| line.as_bytes()[at - 1].is_ascii_digit()) {
            let digit = line.as_bytes()[last - 1];
            let other = if digit == b'0' {
                '1'
            } else {
                (digit - 1) as char
            };
            edits.push(format!("{}{other}{}", &line[..last - 1], &line[last..]));
        }
    }
    let mut cut = span.start + span.len() / 2;
    while !line.is_char_boundary(cut) {
        cut -= 1;
    }
    edits.push(line[..cut].to_string());
    edits
}

/// One random structural mutation of `bytes`.
fn mutate(bytes: &mut Vec<u8>, corpus: &[Vec<u8>], rng: &mut ChaCha8Rng) {
    match rng.gen_range(0u8..6) {
        // Flip one byte.
        0 if !bytes.is_empty() => {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= 1u8 << rng.gen_range(0u32..8);
        }
        // Truncate at a random point.
        1 if !bytes.is_empty() => {
            bytes.truncate(rng.gen_range(0..bytes.len()));
        }
        // Insert a structural character where it hurts.
        2 => {
            const STRUCTURAL: [u8; 10] =
                [b'{', b'}', b'[', b']', b'"', b',', b':', b'-', b'e', b'0'];
            let c = STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())];
            let i = rng.gen_range(0..=bytes.len());
            bytes.insert(i, c);
        }
        // Splice a window from another corpus entry.
        3 => {
            let donor = &corpus[rng.gen_range(0..corpus.len())];
            if !donor.is_empty() && !bytes.is_empty() {
                let from = rng.gen_range(0..donor.len());
                let len = rng.gen_range(1..=(donor.len() - from).min(32));
                let at = rng.gen_range(0..bytes.len());
                let end = (at + len).min(bytes.len());
                bytes.splice(at..end, donor[from..from + len].iter().copied());
            }
        }
        // Duplicate a slice in place (breeds duplicate keys).
        4 if bytes.len() >= 2 => {
            let from = rng.gen_range(0..bytes.len() - 1);
            let len = rng.gen_range(1..=(bytes.len() - from).min(24));
            let slice: Vec<u8> = bytes[from..from + len].to_vec();
            let at = rng.gen_range(0..=bytes.len());
            for (offset, b) in slice.into_iter().enumerate() {
                bytes.insert(at + offset, b);
            }
        }
        // Mangle a digit run into an overflow literal (→ infinity).
        _ => {
            if let Some(pos) = bytes.iter().position(u8::is_ascii_digit) {
                let end = bytes[pos..]
                    .iter()
                    .position(|b| !b.is_ascii_digit())
                    .map_or(bytes.len(), |o| pos + o);
                bytes.splice(pos..end, b"1e999".iter().copied());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// WAL-image fuzzing

/// Checked-in WAL images compiled into the binary: a frozen valid log,
/// bare header, torn tail, checksum damage, wrong magic, an oversized
/// length field, and a non-monotonic LSN.
const WAL_SEED_CORPUS: &[&[u8]] = &[
    include_bytes!("../tests/corpus/wal_valid.bin"),
    include_bytes!("../tests/corpus/wal_header_only.bin"),
    include_bytes!("../tests/corpus/wal_torn_tail.bin"),
    include_bytes!("../tests/corpus/wal_bad_crc.bin"),
    include_bytes!("../tests/corpus/wal_bad_magic.bin"),
    include_bytes!("../tests/corpus/wal_oversized_len.bin"),
    include_bytes!("../tests/corpus/wal_dup_lsn.bin"),
];

/// Counters from one WAL fuzz run.
#[derive(Debug, Clone, Default)]
pub struct WalFuzzOutcome {
    /// Images executed (corpus + mutations).
    pub executed: u64,
    /// Images the recovery path accepted (possibly with a torn tail).
    pub recovered: u64,
    /// Images rejected with a typed [`mcs_service::WalError`].
    pub rejected: u64,
    /// Images that made recovery panic — always a bug.
    pub panics: u64,
    /// Accepted images whose recovery was non-deterministic or whose
    /// valid prefix failed to re-scan as a clean fixed point — always a
    /// bug.
    pub instability: u64,
}

impl WalFuzzOutcome {
    /// True when no invariant was violated.
    pub fn clean(&self) -> bool {
        self.panics == 0 && self.instability == 0
    }
}

/// The signing key of `worker` in the built-in rounds.
fn signing_key(worker: u32) -> SigningKey {
    let mut seed = [0u8; 32];
    seed[..4].copy_from_slice(&worker.to_le_bytes());
    seed[31] = 0xF2;
    SigningKey::from_seed(seed)
}

/// A two-task round with workers 0 and 1 on its roster.
fn round_spec(round_id: u64) -> RoundSpec {
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
                public_key: hex_encode(&signing_key(w).verifying_key().to_bytes()),
                skills: vec![0.9, 0.9],
            })
            .collect(),
    }
}

/// `worker`'s bid on both tasks of a [`round_spec`] round, and its signed
/// envelope.
fn signed_bid(round_id: u64, worker: u32) -> (Bid, BidEnvelope) {
    let bid = Bid::new(
        Bundle::new(vec![TaskId(0), TaskId(1)]),
        Price::from_f64(2.0 + f64::from(worker)),
    );
    let nonce = round_id * 10 + u64::from(worker);
    let envelope = BidEnvelope::sign(
        round_id,
        WorkerId(worker),
        bid.clone(),
        nonce,
        u64::MAX,
        &signing_key(worker),
    );
    (bid, envelope)
}

/// Builds a deterministic valid WAL image: two rounds of signed bids,
/// one committed-paid-settled, one aborted. This is the live-format twin
/// of the frozen `wal_valid.bin` (which pins the *historical* layout).
pub fn build_wal_image() -> Vec<u8> {
    let mut events = Vec::new();
    for round_id in [1u64, 2] {
        events.push(WalEvent::RoundOpened {
            spec: round_spec(round_id),
        });
        for worker in 0..2u32 {
            let (bid, envelope) = signed_bid(round_id, worker);
            events.push(WalEvent::BidAdmitted {
                round_id,
                worker: WorkerId(worker),
                nonce: envelope.nonce,
                expires_at_ms: u64::MAX,
                bid,
                signature: envelope.signature_bytes().expect("signed envelope"),
            });
        }
    }
    events.push(WalEvent::AuctionCommitted {
        round_id: 1,
        seed: 7,
        price: Price::from_f64(4.0),
        winners: vec![WorkerId(0), WorkerId(1)],
    });
    for worker in 0..2u32 {
        events.push(WalEvent::PaymentIssued {
            round_id: 1,
            worker: WorkerId(worker),
            amount: Price::from_f64(4.0),
        });
    }
    events.push(WalEvent::RoundSettled { round_id: 1 });
    events.push(WalEvent::RoundAborted {
        round_id: 2,
        reason: mcs_service::AbortReason::Requested,
    });

    let mut image = Vec::new();
    image.extend_from_slice(b"MCSWAL01");
    image.extend_from_slice(&1u64.to_le_bytes());
    for (i, event) in events.iter().enumerate() {
        image.extend_from_slice(&encode_frame(1 + i as u64, &event.encode()));
    }
    image
}

/// The full WAL starting corpus: checked-in images plus the live-format
/// golden image.
pub fn wal_builtin_corpus() -> Vec<Vec<u8>> {
    let mut corpus: Vec<Vec<u8>> = WAL_SEED_CORPUS.iter().map(|b| b.to_vec()).collect();
    corpus.push(build_wal_image());
    corpus
}

/// Runs the WAL corpus plus `iters` seeded mutations through the
/// recovery path.
///
/// A panic inside recovery is caught (with the panic hook silenced for
/// the duration) and counted; it never aborts the run.
pub fn run_wal_fuzz(iters: u64, seed: u64) -> WalFuzzOutcome {
    let corpus = wal_builtin_corpus();
    let mut outcome = WalFuzzOutcome::default();
    let previous_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    for entry in &corpus {
        wal_execute(entry, &mut outcome);
    }
    let mut stream = rng::derived(seed, 0x3A1F);
    for _ in 0..iters {
        let mut bytes = corpus[stream.gen_range(0..corpus.len())].clone();
        let rounds = stream.gen_range(1usize..=4);
        for _ in 0..rounds {
            wal_mutate(&mut bytes, &corpus, &mut stream);
        }
        wal_execute(&bytes, &mut outcome);
    }
    panic::set_hook(previous_hook);
    outcome
}

/// Feeds one image through recovery twice, updating the counters.
fn wal_execute(bytes: &[u8], outcome: &mut WalFuzzOutcome) {
    outcome.executed += 1;
    let result = panic::catch_unwind(AssertUnwindSafe(|| wal_probe(bytes)));
    match result {
        Err(_) => outcome.panics += 1,
        Ok(WalProbe::Rejected) => outcome.rejected += 1,
        Ok(WalProbe::Recovered) => outcome.recovered += 1,
        Ok(WalProbe::Unstable) => {
            outcome.recovered += 1;
            outcome.instability += 1;
        }
    }
}

enum WalProbe {
    Rejected,
    Recovered,
    Unstable,
}

/// Recovery must be deterministic, and the valid prefix it reports must
/// re-scan cleanly to the identical frame sequence (fixed point).
fn wal_probe(bytes: &[u8]) -> WalProbe {
    let first = recover_from_bytes(bytes);
    let second = recover_from_bytes(bytes);
    match (first, second) {
        (Err(_), Err(_)) => WalProbe::Rejected,
        (Ok((ledger_a, scan_a)), Ok((ledger_b, scan_b))) => {
            if ledger_a != ledger_b || scan_a != scan_b {
                return WalProbe::Unstable;
            }
            let prefix = &bytes[..scan_a.valid_len as usize];
            match scan_bytes(prefix) {
                Ok(rescan) if rescan.defect.is_none() && rescan.frames == scan_a.frames => {
                    WalProbe::Recovered
                }
                _ => WalProbe::Unstable,
            }
        }
        _ => WalProbe::Unstable,
    }
}

/// One random structural mutation of a WAL image.
fn wal_mutate(bytes: &mut Vec<u8>, corpus: &[Vec<u8>], rng: &mut ChaCha8Rng) {
    let header = WAL_HEADER_LEN as usize;
    match rng.gen_range(0u8..7) {
        // Flip one bit anywhere (header, length, CRC, LSN, payload).
        0 if !bytes.is_empty() => {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= 1u8 << rng.gen_range(0u32..8);
        }
        // Truncate at a random point (torn tail).
        1 if !bytes.is_empty() => {
            bytes.truncate(rng.gen_range(0..bytes.len()));
        }
        // Mangle 4 bytes into a huge little-endian value — lands on a
        // length field often enough to probe the oversized-frame guard.
        2 if bytes.len() > header + 4 => {
            let i = rng.gen_range(header..bytes.len() - 4);
            let v: u32 = rng.gen_range(mcs_service::MAX_FRAME_LEN..u32::MAX);
            bytes[i..i + 4].copy_from_slice(&v.to_le_bytes());
        }
        // Duplicate a window in place (breeds repeated / non-monotonic
        // LSNs and shifted frame starts).
        3 if bytes.len() >= 2 => {
            let from = rng.gen_range(0..bytes.len() - 1);
            let len = rng.gen_range(1..=(bytes.len() - from).min(64));
            let slice: Vec<u8> = bytes[from..from + len].to_vec();
            let at = rng.gen_range(0..=bytes.len());
            for (offset, b) in slice.into_iter().enumerate() {
                bytes.insert(at + offset, b);
            }
        }
        // Splice a window from another corpus image.
        4 => {
            let donor = &corpus[rng.gen_range(0..corpus.len())];
            if !donor.is_empty() && !bytes.is_empty() {
                let from = rng.gen_range(0..donor.len());
                let len = rng.gen_range(1..=(donor.len() - from).min(64));
                let at = rng.gen_range(0..bytes.len());
                let end = (at + len).min(bytes.len());
                bytes.splice(at..end, donor[from..from + len].iter().copied());
            }
        }
        // Append random junk (trailing garbage after a clean log).
        5 => {
            let extra = rng.gen_range(1usize..32);
            for _ in 0..extra {
                bytes.push(rng.gen_range(0u16..256) as u8);
            }
        }
        // Zero a range (simulates sparse-file holes after a crash).
        _ if !bytes.is_empty() => {
            let from = rng.gen_range(0..bytes.len());
            let len = rng.gen_range(1..=(bytes.len() - from).min(48));
            for b in &mut bytes[from..from + len] {
                *b = 0;
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_alone_is_clean_and_exercises_both_paths() {
        let outcome = run_fuzz(0, 0);
        assert!(outcome.clean(), "{outcome:?}");
        assert!(outcome.accepted >= 5, "valid corpus lines must decode");
        assert!(outcome.rejected >= 5, "invalid corpus lines must reject");
    }

    #[test]
    fn the_formatted_printer_matches_the_writers_on_every_value_kind() {
        let tree: Value = serde_json::from_str(
            r#"{"n":[null,true,false,0,18446744073709551615,-9223372036854775808],
                "f":[1.0,-0.0,0.1,-2.5e-3,1e300,1e-7,276614574419137.625,9007199254740993.0],
                "k\u0001\"\\\n\r\t é":"s\u001f😀"}"#,
        )
        .expect("valid JSON");
        let mut text = String::new();
        formatted(&tree, &mut text);
        assert_eq!(text, serde_json::to_string(&tree).expect("trees serialize"));
    }

    #[test]
    fn uncertain_corpus_line_decodes_and_bad_probability_rejects_typed() {
        let valid = include_str!("../tests/corpus/uncertain_request.json");
        let request = decode_request(valid.trim()).expect("uncertain corpus line decodes");
        let Request::QueryPmf { instance, .. } = request else {
            panic!("uncertain corpus line is a QueryPmf request");
        };
        assert!(instance.completion().is_uncertain());

        let bad = include_str!("../tests/corpus/bad_probability.json");
        match decode_request(bad.trim()) {
            Err(mcs_service::WireError::InvalidProbability {
                worker,
                task,
                value,
            }) => {
                assert_eq!((worker, task), (0, 0));
                assert!(value > 1.0, "corrupted probability is {value}");
            }
            other => panic!("expected typed probability rejection, got {other:?}"),
        }
    }

    #[test]
    fn hostile_instances_are_refused_typed() {
        // Each hostile corpus line is one edit of this valid request.
        const VALID: &str = r#"{"type":"run_auction","instance":{"num_tasks":2,"bids":{"bids":[{"bundle":{"tasks":[0,1]},"price":150},{"bundle":{"tasks":[0]},"price":160},{"bundle":{"tasks":[1]},"price":170}]},"skills":{"num_workers":3,"num_tasks":2,"theta":[0.9,0.85,0.95,0.5,0.5,0.9]},"deltas":[0.8,0.8],"price_grid":{"min":100,"max":200,"step":5},"cmin":100,"cmax":200},"epsilon":0.5,"seed":7}"#;
        assert!(matches!(
            decode_request(VALID),
            Ok(Request::RunAuction { .. })
        ));
        let cases = [
            (
                include_str!("../tests/corpus/hostile_theta_out_of_range.json"),
                ("[0.9,", "[7.5,"),
                "shape mismatch: skill level theta[w0][t0] = 7.5 is outside [0, 1]",
            ),
            (
                include_str!("../tests/corpus/hostile_delta_out_of_range.json"),
                ("[0.8,", "[1.5,"),
                "invalid instance: error bound delta[t0] = 1.5 is outside the open interval (0, 1)",
            ),
            (
                include_str!("../tests/corpus/hostile_bundle_task_out_of_range.json"),
                ("[0,1]", "[0,999]"),
                "invalid instance: bundle of w0 references a task outside the 2-task set",
            ),
            (
                include_str!("../tests/corpus/hostile_grid_step_zero.json"),
                ("\"step\":5", "\"step\":0"),
                "shape mismatch: price grid [10, 20] with step 0 is empty or has non-positive step",
            ),
            (
                include_str!("../tests/corpus/hostile_theta_short.json"),
                (",0.9]", "]"),
                "shape mismatch: flat skill matrix has length 5, expected 6",
            ),
        ];
        for (line, (from, to), message) in cases {
            let line = line.trim();
            assert_eq!(
                line,
                VALID.replacen(from, to, 1),
                "one edit of the valid request"
            );
            match decode_request(line) {
                Err(err @ (WireError::Shape(_) | WireError::InvalidInstance(_))) => {
                    assert_eq!(err.to_string(), message);
                }
                other => panic!("{line} must be refused typed, got {other:?}"),
            }
        }
    }

    #[test]
    fn the_memo_serves_the_corpus_repeats() {
        let mut lines = 0;
        for entry in builtin_corpus() {
            let line = String::from_utf8(entry).expect("the corpus is UTF-8");
            let decoded = decode_request(&line);
            let edits = memo_edits(&line, &decoded);
            if edits.is_empty() {
                continue;
            }
            assert_eq!(edits.len(), 7, "{line}");
            let memo = DecodeMemo::new(4);
            assert!(memo_agrees(&memo, &line, &decoded), "{line}");
            // The third decode and the reordered members.
            assert_eq!(memo.hits(), 2, "{line}");
            lines += 1;
        }
        assert!(lines >= 8, "{lines} instance-first corpus lines");
    }

    #[test]
    fn short_mutation_run_is_deterministic_and_panic_free() {
        let a = run_fuzz(200, 7);
        let b = run_fuzz(200, 7);
        assert!(a.clean(), "{a:?}");
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn wal_corpus_alone_is_clean_and_exercises_both_paths() {
        let outcome = run_wal_fuzz(0, 0);
        assert!(outcome.clean(), "{outcome:?}");
        assert!(outcome.recovered >= 2, "valid/torn images must recover");
        assert!(outcome.rejected >= 1, "bad-magic image must reject");
    }

    #[test]
    fn short_wal_mutation_run_is_deterministic_and_panic_free() {
        let a = run_wal_fuzz(200, 7);
        let b = run_wal_fuzz(200, 7);
        assert!(a.clean(), "{a:?}");
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn live_wal_image_is_valid_and_deterministic() {
        let image = build_wal_image();
        assert_eq!(image, build_wal_image());
        let (ledger, scan) = recover_from_bytes(&image).expect("golden image recovers");
        assert!(scan.defect.is_none());
        assert_eq!(ledger.total_rounds(), 2);
    }
}
