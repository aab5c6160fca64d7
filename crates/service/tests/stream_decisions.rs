//! Decision pins for streaming sessions.
//!
//! Stream decisions are a recovery contract: replay recomputes every
//! arrival's decision from the session fold and refuses a log that
//! recorded a different one. So the posted-price learner and the
//! admission rule must keep deciding exactly as they did when the log was
//! written. This test folds a few hundred seeded streams through
//! `Ledger::apply`, as recovery does, and pins an FNV-1a digest of every
//! `StreamSession::evaluate` decision and every closing view.

use std::collections::BTreeMap;

use ed25519::{hex_encode, SigningKey};
use mcs_num::rng;
use mcs_service::{Ledger, RosterEntry, RoundSpec, StreamSpec, WalEvent};
use mcs_types::{Bid, Bundle, Fnv1a, Price, TaskId, WorkerId};
use rand::seq::SliceRandom;
use rand::Rng;

const STREAMS: u64 = 400;

/// Grid steps the specs draw from; each divides the 1.0–31.0 span.
const STEPS: [f64; 4] = [0.5, 1.0, 2.0, 5.0];
/// Privacy budgets of the posted-price draw.
const EPSILONS: [f64; 5] = [0.05, 0.3, 1.0, 4.0, 20.0];

/// One seeded stream: its spec, then its arrivals in order.
fn seeded_stream(seed: u64, public_key: &str) -> (StreamSpec, Vec<(WorkerId, Bid)>) {
    let mut r = rng::seeded(seed);
    let workers = r.gen_range(3..=24u32);
    let num_tasks = r.gen_range(1..=5usize);
    let error_bounds: Vec<f64> = (0..num_tasks).map(|_| r.gen_range(0.35..0.9)).collect();
    let roster: Vec<RosterEntry> = (0..workers)
        .map(|w| RosterEntry {
            worker: WorkerId(w * 3 + 1),
            public_key: public_key.to_string(),
            skills: (0..num_tasks).map(|_| r.gen_range(0.6..1.0)).collect(),
        })
        .collect();
    let spec = StreamSpec {
        round: RoundSpec {
            round_id: seed + 1,
            num_tasks,
            error_bounds,
            price_min: Price::from_f64(1.0),
            price_max: Price::from_f64(31.0),
            price_step: Price::from_f64(STEPS[r.gen_range(0..STEPS.len())]),
            cost_min: Price::from_f64(1.0),
            cost_max: Price::from_f64(30.0),
            epsilon: EPSILONS[r.gen_range(0..EPSILONS.len())],
            roster,
        },
        sample_target: r.gen_range(1..workers as usize),
        seed: r.gen(),
    };
    let mut order: Vec<u32> = (0..workers).collect();
    order.shuffle(&mut r);
    let arrivals = order
        .into_iter()
        .map(|w| {
            let size = r.gen_range(1..=num_tasks);
            let mut tasks: Vec<TaskId> = (0..num_tasks as u32).map(TaskId).collect();
            tasks.shuffle(&mut r);
            tasks.truncate(size);
            let price = Price::from_tenths(r.gen_range(10..=300));
            (WorkerId(w * 3 + 1), Bid::new(Bundle::new(tasks), price))
        })
        .collect();
    (spec, arrivals)
}

#[test]
fn seeded_stream_decisions_match_their_pinned_digest() {
    let key = SigningKey::from_seed([0x5D; 32]);
    let public_key = hex_encode(&key.verifying_key().to_bytes());
    let mut ledger = Ledger::default();
    let mut digest = Fnv1a::new();
    let mut reasons: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut fallbacks = 0u64;
    let mut lsn = 0u64;
    let mut next_lsn = || {
        lsn += 1;
        lsn
    };

    for seed in 0..STREAMS {
        let (spec, arrivals) = seeded_stream(seed, &public_key);
        spec.validate().expect("seeded specs are valid");
        let round_id = spec.round.round_id;
        ledger
            .apply(&WalEvent::StreamOpened { spec }, next_lsn())
            .expect("stream opens");
        for (nonce, (worker, bid)) in arrivals.into_iter().enumerate() {
            let stream = ledger.stream(round_id).expect("stream is live");
            let decision = stream.evaluate(worker, &bid).expect("bid is in range");
            *reasons.entry(decision.reason).or_default() += 1;
            digest.write_u32(worker.0);
            digest.tag(u8::from(decision.accepted));
            digest.write_i64(decision.payment.tenths());
            digest.write(decision.reason.as_bytes());
            digest.write_i64(decision.posted_price.map_or(-1, Price::tenths));
            let arrival = WalEvent::StreamArrival {
                round_id,
                worker,
                nonce: nonce as u64 + 1,
                expires_at_ms: u64::MAX,
                bid,
                signature: [0u8; 64],
                accepted: decision.accepted,
                payment: decision.payment,
            };
            ledger
                .apply(&arrival, next_lsn())
                .expect("replay agrees with the evaluated decision");
        }
        ledger
            .apply(&WalEvent::StreamClosed { round_id }, next_lsn())
            .expect("stream closes");
        let stream = ledger.stream(round_id).expect("closed stream is kept");
        if stream.threshold_fallback() == Some(true) {
            fallbacks += 1;
        }
        let view = stream.view();
        digest.tag(u8::from(stream.threshold_fallback() == Some(true)));
        digest.write_usize(view.arrivals);
        for worker in &view.accepted {
            digest.write_u32(worker.0);
        }
        digest.write_i64(view.total_paid.tenths());
        digest.tag(u8::from(view.covered));
    }

    let reasons: Vec<(&str, u64)> = reasons.into_iter().collect();
    assert_eq!(
        reasons,
        [
            ("accepted", 1404),
            ("below_density", 249),
            ("coverage_met", 799),
            ("not_needed", 177),
            ("quote_exceeded", 208),
            ("sample_observed", 2620),
        ]
    );
    assert_eq!(fallbacks, 230, "streams whose sample could not cover");
    assert_eq!(digest.finish(), 0x14b6_1b95_d996_633f);
}
