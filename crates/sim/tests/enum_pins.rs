//! Byte pins for the simulator's wire enums.
//!
//! `WorkerFate` travels inside every degraded round report, `Decision`,
//! `RejectReason` and `PricingPath` inside every online report. This test
//! pins the compact line of every variant of each, and checks that the
//! tree path and the one-pass reader both read the line back as the value
//! it came from.

use mcs_sim::faults::WorkerFate;
use mcs_sim::online::{Decision, PricingPath, RejectReason};
use mcs_types::{Price, TaskId};
use serde::{Deserialize, Serialize};

const REASONS: [RejectReason; 6] = [
    RejectReason::SampleObserved,
    RejectReason::QuoteExceeded,
    RejectReason::BelowDensity,
    RejectReason::CoverageMet,
    RejectReason::NotNeeded,
    RejectReason::NotSelected,
];

/// Writes `value`'s compact line and checks that the tree path and the
/// one-pass reader both read it back as `value`.
fn line<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T) -> String {
    let line = serde_json::to_string(value).expect("serialize");
    let back: T = serde_json::from_str(&line).expect("deserialize");
    assert_eq!(&back, value, "{line}");
    assert_eq!(
        serde::read_document::<T>(&line).as_ref(),
        Some(value),
        "{line}"
    );
    line
}

fn lines<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(values: &[T]) -> Vec<String> {
    values.iter().map(line).collect()
}

#[test]
fn worker_fates_keep_their_bytes() {
    let fates = [
        WorkerFate::Delivered,
        WorkerFate::NoShow,
        WorkerFate::ShowedButFailed,
        WorkerFate::Partial {
            dropped: vec![TaskId(1), TaskId(3)],
        },
        WorkerFate::Straggler { delay: 4 },
        WorkerFate::Corrupted {
            flipped: vec![TaskId(0)],
        },
    ];
    assert_eq!(
        lines(&fates),
        [
            r#"{"fate":"delivered"}"#,
            r#"{"fate":"no_show"}"#,
            r#"{"fate":"showed_but_failed"}"#,
            r#"{"fate":"partial","dropped":[1,3]}"#,
            r#"{"fate":"straggler","delay":4}"#,
            r#"{"fate":"corrupted","flipped":[0]}"#,
        ]
    );
}

#[test]
fn reject_reasons_keep_their_bytes() {
    assert_eq!(
        lines(&REASONS),
        [
            r#""sample_observed""#,
            r#""quote_exceeded""#,
            r#""below_density""#,
            r#""coverage_met""#,
            r#""not_needed""#,
            r#""not_selected""#,
        ]
    );
    // `name()` spells the encoding a second time, for stream decisions.
    for reason in REASONS {
        assert_eq!(line(&reason), format!("\"{}\"", reason.name()));
    }
}

#[test]
fn decisions_keep_their_bytes() {
    let mut decisions = vec![Decision::Accepted {
        payment: Price::from_f64(6.5),
    }];
    decisions.extend(REASONS.map(Decision::Rejected));
    assert_eq!(
        lines(&decisions),
        [
            r#"{"decision":"accepted","payment":65}"#,
            r#"{"decision":"rejected","reason":"sample_observed"}"#,
            r#"{"decision":"rejected","reason":"quote_exceeded"}"#,
            r#"{"decision":"rejected","reason":"below_density"}"#,
            r#"{"decision":"rejected","reason":"coverage_met"}"#,
            r#"{"decision":"rejected","reason":"not_needed"}"#,
            r#"{"decision":"rejected","reason":"not_selected"}"#,
        ]
    );
}

#[test]
fn pricing_paths_keep_their_bytes() {
    assert_eq!(
        lines(&[PricingPath::Incremental, PricingPath::FromScratch]),
        [r#""incremental""#, r#""from_scratch""#]
    );
}
