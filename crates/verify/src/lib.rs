//! Verification harness for the whole auction stack.
//!
//! Unit tests in the other crates check components in isolation; this
//! crate checks the *claims that tie them together*:
//!
//! * [`differential`] — every schedule strategy (auto, incremental,
//!   indexed) and the naive per-price reference must produce equivalent
//!   outcomes on the same instance, every winning set must satisfy its
//!   covering constraints, and greedy cardinality must stay within the
//!   paper's `2βH_m` factor of the exact ILP optimum.
//! * [`dp`] — the exponential-mechanism PMF must satisfy ε-differential
//!   privacy across neighbouring bid profiles, both exactly (log-ratio
//!   on the analytic PMFs) and statistically (sampled PMFs compared with
//!   Wilson confidence bounds), and a misreport sweep probes the
//!   truthfulness guarantee of Theorem 3.
//! * [`online`] — the streaming online auction must reduce to the
//!   offline round on degenerate timelines (byte-identically), its
//!   incremental hindsight pricer must agree with from-scratch residual
//!   builds at every arrival, and its posted-price channel must satisfy
//!   the exact ε-DP log-ratio bound.
//! * [`campaign`] — the multi-round lifecycle engine must reproduce the
//!   legacy campaign loop byte-for-byte on benign inputs (reports,
//!   payments, and RNG stream position), and its per-round ε-DP audit
//!   must find zero price-channel violations even on adversarial,
//!   reputation-gated campaigns auctioning on estimated skills.
//! * [`fuzz`] — the service wire decoder must never panic on arbitrary
//!   bytes, and every accepted document must survive a
//!   decode → encode → decode round trip unchanged.
//!
//! All checks consume instances from one structure-aware seeded
//! generator ([`gen`]) so the corner cases — skewed skills, degenerate
//! bundles, tied prices, infeasible coverage — are exercised uniformly.
//! Failures are minimized into small reproducible reports ([`report`]).
//!
//! Two binaries drive the harness from CI and the command line:
//! `verify_sweep` (differential + DP + truthfulness) and `wire_fuzz`
//! (decoder robustness).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod campaign;
pub mod chance;
pub mod differential;
pub mod dp;
pub mod fuzz;
pub mod gen;
pub mod online;
pub mod report;
