//! Durable-ledger pins: the exact bytes a scripted history leaves on
//! disk after a crash and a restart, and the specs `open_round` /
//! `open_stream` must refuse before anything reaches the log.

use std::path::{Path, PathBuf};

use ed25519::{hex_encode, SigningKey};
use mcs_service::{
    crc32, scan_bytes, BidEnvelope, DurabilityConfig, DurableLedger, RecoveryReport, RosterEntry,
    RoundSpec, StreamSpec, WalEvent, SNAPSHOT_FILE, WAL_FILE,
};
use mcs_types::{Bid, Bundle, Price, TaskId, WorkerId};

fn key_for(worker: u32) -> SigningKey {
    let mut seed = [0u8; 32];
    seed[..4].copy_from_slice(&worker.to_le_bytes());
    seed[31] = 0x6B;
    SigningKey::from_seed(seed)
}

fn spec(round_id: u64, workers: u32) -> RoundSpec {
    RoundSpec {
        round_id,
        num_tasks: 3,
        // Q_j = 2 ln(1/0.8) ≈ 0.45: one bidder with θ = 0.9 covers each
        // task it bundles.
        error_bounds: vec![0.8, 0.8, 0.8],
        price_min: Price::from_f64(1.0),
        price_max: Price::from_f64(30.0),
        price_step: Price::from_f64(1.0),
        cost_min: Price::from_f64(1.0),
        cost_max: Price::from_f64(30.0),
        epsilon: 0.5,
        roster: (0..workers)
            .map(|w| RosterEntry {
                worker: WorkerId(w),
                public_key: hex_encode(&key_for(w).verifying_key().to_bytes()),
                skills: vec![0.9, 0.9, 0.9],
            })
            .collect(),
    }
}

fn stream_spec(round_id: u64, workers: u32, sample_target: usize) -> StreamSpec {
    StreamSpec {
        round: spec(round_id, workers),
        sample_target,
        seed: 23,
    }
}

/// Worker `w` bids on two of the three tasks, except worker 0, whose
/// bundle covers all three on its own.
fn envelope(round_id: u64, worker: u32) -> BidEnvelope {
    let tasks = if worker == 0 {
        vec![TaskId(0), TaskId(1), TaskId(2)]
    } else {
        let mut pair = vec![TaskId(worker % 3), TaskId((worker + 1) % 3)];
        pair.sort_unstable();
        pair
    };
    let bid = Bid::new(
        Bundle::new(tasks),
        Price::from_f64(2.0 + f64::from(worker % 25)),
    );
    BidEnvelope::sign(
        round_id,
        WorkerId(worker),
        bid,
        round_id * 1_000 + u64::from(worker),
        u64::MAX,
        &key_for(worker),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mcs-durable-ledger-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Length and CRC-32 of a byte string.
fn pin(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), crc32(&[bytes]))
}

/// What a history left behind: the pins of `wal.log`, `snapshot.bin`
/// (absent without a rotation) and the recovered ledger's snapshot
/// encoding, plus the frame and fsync counts and the recovery report.
#[derive(Debug, PartialEq)]
struct Trace {
    wal: (usize, u32),
    snapshot: Option<(usize, u32)>,
    encoded: (usize, u32),
    /// `(wal_frames, wal_fsyncs)` of the history's ledger, then of the
    /// recovered one.
    counts: [(u64, u64); 2],
    recovery: RecoveryReport,
}

/// Runs a history touching every durable state, crashes it right after
/// the last `AuctionCommitted` frame, and restarts:
///
/// * round 1 commits and settles;
/// * round 2 is aborted on request;
/// * stream 3 is aborted, stream 4 stays live, round 5 stays open;
/// * stream 6 closes;
/// * round 7 commits, and the log is cut after its commit frame, so
///   recovery pays its winner, settles it, aborts round 5 and resumes
///   stream 4.
fn run_history(dir: &Path, snapshot_every: u64) -> Trace {
    let config = DurabilityConfig {
        dir: dir.to_path_buf(),
        snapshot_every,
    };
    let mut ledger = DurableLedger::open(&config).expect("create");
    ledger.open_round(spec(1, 4)).expect("open round 1");
    for w in 0..4 {
        ledger.submit_bid(&envelope(1, w), 0).expect("bid");
    }
    ledger.commit_round(1, 7).expect("commit round 1");

    ledger.open_round(spec(2, 3)).expect("open round 2");
    for w in 1..3 {
        ledger.submit_bid(&envelope(2, w), 0).expect("bid");
    }
    ledger.abort_round(2).expect("abort round 2");

    ledger
        .open_stream(stream_spec(3, 6, 2))
        .expect("open stream 3");
    for w in 0..4 {
        ledger.stream_arrival(&envelope(3, w), 0).expect("arrival");
    }
    ledger.abort_round(3).expect("abort stream 3");

    ledger
        .open_stream(stream_spec(4, 8, 3))
        .expect("open stream 4");
    for w in 0..5 {
        ledger.stream_arrival(&envelope(4, w), 0).expect("arrival");
    }

    ledger.open_round(spec(5, 3)).expect("open round 5");
    for w in 1..3 {
        ledger.submit_bid(&envelope(5, w), 0).expect("bid");
    }

    ledger
        .open_stream(stream_spec(6, 8, 3))
        .expect("open stream 6");
    for w in 0..8 {
        ledger.stream_arrival(&envelope(6, w), 0).expect("arrival");
    }
    ledger.close_stream(6).expect("close stream 6");

    ledger.open_round(spec(7, 2)).expect("open round 7");
    ledger.submit_bid(&envelope(7, 0), 0).expect("bid");
    ledger.commit_round(7, 9).expect("commit round 7");
    let written = (ledger.wal_frames(), ledger.wal_fsyncs());
    drop(ledger);

    // The crash: everything after the last commit frame is lost.
    let wal_path = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal_path).expect("read log");
    let scan = scan_bytes(&bytes).expect("log scans");
    let last_commit = scan
        .frames
        .iter()
        .rposition(|frame| {
            matches!(
                WalEvent::decode(&frame.payload),
                Ok(WalEvent::AuctionCommitted { .. })
            )
        })
        .expect("the live log holds a commit frame");
    let cut = scan.boundaries[last_commit + 1] as usize;
    assert!(cut < bytes.len(), "the cut drops round 7's settlement");
    std::fs::write(&wal_path, &bytes[..cut]).expect("cut log");

    let recovered = DurableLedger::open(&config).expect("recover");
    let encoded = pin(&recovered.ledger().encode_snapshot());
    let counts = [written, (recovered.wal_frames(), recovered.wal_fsyncs())];
    let recovery = recovered.recovery().clone();
    drop(recovered);
    Trace {
        wal: pin(&std::fs::read(&wal_path).expect("read recovered log")),
        snapshot: std::fs::read(dir.join(SNAPSHOT_FILE))
            .ok()
            .map(|bytes| pin(&bytes)),
        encoded,
        counts,
        recovery,
    }
}

/// The log, the snapshot and the ledger's snapshot encoding are pinned
/// byte for byte (by length and CRC-32), once in a single log and once
/// with rotations every seven frames. A refactor of the ledger's write
/// path or codec must leave all three, and every frame and fsync count,
/// exactly as they are.
#[test]
fn a_scripted_history_leaves_pinned_bytes_after_recovery() {
    let cases = [
        (
            u64::MAX,
            Trace {
                wal: (9178, 2694043715),
                snapshot: None,
                encoded: (8650, 344367270),
                counts: [(42, 42), (3, 1)],
                recovery: RecoveryReport {
                    snapshot_lsn: None,
                    replayed_frames: 40,
                    truncated_tail_bytes: 0,
                    recovered_rounds: 2,
                    aborted_in_flight: 1,
                    completed_payments: 1,
                    resumed_streams: 1,
                },
            },
        ),
        (
            7,
            Trace {
                wal: (697, 546350468),
                snapshot: Some((8069, 3423230930)),
                encoded: (8650, 344367270),
                counts: [(42, 46), (3, 1)],
                recovery: RecoveryReport {
                    snapshot_lsn: Some(37),
                    replayed_frames: 3,
                    truncated_tail_bytes: 0,
                    recovered_rounds: 2,
                    aborted_in_flight: 1,
                    completed_payments: 1,
                    resumed_streams: 1,
                },
            },
        ),
    ];
    for (snapshot_every, expected) in cases {
        let dir = temp_dir(&format!("pin-{snapshot_every}"));
        let trace = run_history(&dir, snapshot_every);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(trace, expected, "snapshot_every = {snapshot_every}");
    }
}

/// Specs an auction could never run are refused at open with
/// `invalid_spec`, before anything is logged: an error bound outside
/// (0, 1) or not a number, and a skill outside [0, 1], for a round and
/// for a stream.
#[test]
fn specs_the_auction_cannot_run_are_refused_before_the_log() {
    let dir = temp_dir("invalid-spec");
    let mut ledger = DurableLedger::open(&DurabilityConfig::new(&dir)).expect("create");
    let size = ledger.wal_size_bytes();

    let mut wide_delta = spec(1, 3);
    wide_delta.error_bounds[1] = 1.5;
    let mut nan_delta = spec(2, 3);
    nan_delta.error_bounds[0] = f64::NAN;
    let mut wide_theta = spec(3, 3);
    wide_theta.roster[2].skills[0] = 7.5;
    let mut wide_theta_stream = stream_spec(4, 6, 2);
    wide_theta_stream.round.roster[4].skills[1] = 7.5;

    for refused in [
        ledger.open_round(wide_delta),
        ledger.open_round(nan_delta),
        ledger.open_round(wide_theta),
        ledger.open_stream(wide_theta_stream),
    ] {
        let err = refused.expect_err("the spec is refused");
        assert_eq!(err.code(), "invalid_spec", "{err}");
    }
    assert_eq!(ledger.wal_size_bytes(), size, "nothing was logged");
    for id in 1..=4 {
        assert!(ledger.round_status(id).is_none() && ledger.stream_status(id).is_none());
    }
    drop(ledger);
    let _ = std::fs::remove_dir_all(&dir);
}
