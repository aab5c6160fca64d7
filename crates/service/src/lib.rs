//! A concurrent auction service for the DP-hSRC mechanism.
//!
//! The rest of the workspace treats an auction as a library call; this
//! crate turns it into a long-lived *platform process* — the shape the
//! paper's crowd-sensing platform actually has: many requesters submit
//! sensing campaigns concurrently, and the platform amortises schedule
//! builds across them.
//!
//! # What the service adds over a bare [`mcs_auction::DpHsrcAuction`]
//!
//! * **Batching** — requests waiting in the queue that share an instance
//!   fingerprint (the stable content digest of `(Instance, ε)`, see
//!   [`mcs_types::Instance::digest`]) coalesce into *one* schedule build.
//! * **Caching** — built PMFs live in a bounded LRU ([`PmfCache`]) keyed
//!   by that digest; a cached auction reply is byte-identical to a cold
//!   one because the sampled draw depends only on the PMF and the
//!   caller's seed.
//! * **Backpressure** — the job queue is bounded; a full service answers
//!   a typed [`Response::Busy`] with a retry hint instead of blocking or
//!   resetting connections.
//! * **Graceful drain** — shutdown stops admission atomically, then
//!   answers every request already accepted before the threads join.
//! * **Metrics** — per-endpoint counters and geometric latency
//!   histograms (built on [`mcs_num::Histogram`]) behind a `metrics`
//!   request.
//!
//! # Transports
//!
//! The in-process [`Client`] and the line-delimited-JSON [`TcpServer`] /
//! [`TcpClient`] speak the same [`Request`] / [`Response`] enums, so
//! behaviour is transport-independent. No async runtime is involved:
//! a fixed worker pool pulling from one bounded queue carries everything.
//!
//! # Example
//!
//! ```
//! use mcs_service::{Request, Response, Service, ServiceConfig};
//! use mcs_sim::Setting;
//!
//! let service = Service::start(ServiceConfig::default());
//! let client = service.client();
//! let instance = Setting::one(80).scaled_down(8).generate(7).instance;
//! let response = client.call(Request::RunAuction {
//!     instance,
//!     epsilon: 0.1,
//!     seed: 42,
//! });
//! assert!(matches!(response, Response::Outcome(_)));
//! service.shutdown();
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod cache;
mod envelope;
mod ledger;
mod metrics;
mod server;
mod stream;
mod tcp;
mod wal;
mod wire;

pub use cache::{CacheKey, PmfCache};
pub use envelope::{decode_public_key, signing_bytes, BidEnvelope, EnvelopeError};
pub use ledger::{
    recover_from_bytes, system_now_ms, AbortReason, AdmittedBid, CommitReceipt, DurabilityConfig,
    DurableLedger, Ledger, PaymentRecord, RecoveryReport, RosterEntry, RoundError, RoundSpec,
    RoundState, RoundStatusView, WalEvent,
};
pub use metrics::{MetricsRegistry, ENDPOINTS};
pub use server::{Client, Service, ServiceConfig, BUSY_RETRY_HINT_MS};
pub use stream::{StreamDecision, StreamReceipt, StreamSession, StreamSpec, StreamStatusView};
pub use tcp::{RetryPolicy, TcpClient, TcpServer};
pub use wal::{
    crc32, encode_frame, read_snapshot, scan_bytes, write_snapshot, CrashPlan, Frame, TailDefect,
    WalError, WalOpenMode, WalScan, WalWriter, FRAME_HEADER_LEN, MAX_FRAME_LEN, SNAPSHOT_FILE,
    WAL_FILE, WAL_HEADER_LEN,
};
pub use wire::{
    decode_request, decode_response, EndpointMetrics, HealthReport, LatencySummary, MetricsReport,
    PmfSummary, Request, Response, WireError,
};
