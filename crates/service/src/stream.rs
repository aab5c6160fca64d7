//! Long-lived streaming auction sessions.
//!
//! A stream is the service-side shape of the simulator's stage-sampling
//! online mechanism (`mcs_sim::online`): a round stays open across many
//! requests while workers arrive one by one, each getting an immediate,
//! irrevocable admit/reject decision at a posted price learned from the
//! first [`StreamSpec::sample_target`] arrivals (who are observed, never
//! paid). Admitted workers are paid the posted price on the spot, so
//! every accepted arrival is a durable payment obligation. Arrivals are
//! admitted like a durable round's bids, by the same check and into the
//! same bid record, and a stream is aborted like a round, with
//! `abort_round`.
//!
//! [`StreamSession`] is a *pure deterministic fold*: its decisions depend
//! only on the spec and the arrival prefix, never on the clock or any
//! ambient randomness (the posted-price draw is seeded from
//! [`StreamSpec::seed`]). That determinism is what makes the session
//! recoverable — replaying the WAL's arrival events recomputes every
//! decision and cross-checks it against what the log recorded, so a
//! crashed service resumes the stream exactly where it stopped.
//!
//! The session holds no mechanism of its own. When the sample completes
//! it runs the simulator's learner, `ThresholdInfo::learn`, over an
//! instance of the sample alone, and every later arrival goes through the
//! simulator's admission rule, `ThresholdInfo::admit`; decision reasons
//! are `RejectReason::name`s, plus `"accepted"`. The one difference from
//! `mcs_sim::online::StageThreshold` is the normalising instance: the
//! simulator learns over the whole pool's instance, the session over the
//! sample's, so the exponential mechanism's exponent (`2 N c_max`) is
//! normalised by the sample's size. Fed the simulator's timeline and
//! seed, a stream therefore draws from a sharper PMF and can post a
//! different price, and with it take different decisions.

use serde::{Deserialize, Serialize};

use mcs_auction::replay::{apply_coverage, marginal_coverage};
use mcs_types::{Bid, CoverageView, Price, SparseCoverage, WorkerId};

use mcs_sim::campaign::{RoundPhase, RoundState};
use mcs_sim::online::{RejectReason, ThresholdInfo};

use crate::ledger::{AdmittedBid, RosterEntry, RoundError, RoundSpec};

/// Coverage slack of the `covered` flag: the engines' `COVER_EPS`.
const COVER_EPS: f64 = 1e-9;

/// Everything a streaming session needs before arrivals start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// The underlying round: roster, skills, error bounds, price grid,
    /// cost range, and the privacy budget ε of the posted-price draw.
    /// The stream shares the round id namespace.
    pub round: RoundSpec,
    /// How many arrivals are observed (and rejected, never paid) before
    /// the threshold is learned and posted.
    pub sample_target: usize,
    /// Seed of the ε-DP posted-price draw.
    pub seed: u64,
}

impl StreamSpec {
    /// Structural validation, run before the spec enters the log.
    ///
    /// # Errors
    ///
    /// [`RoundError::InvalidSpec`] naming the first problem found.
    pub fn validate(&self) -> Result<(), RoundError> {
        self.round.validate()?;
        if self.sample_target == 0 {
            return Err(RoundError::InvalidSpec(
                "sample_target is zero; the threshold needs an observed prefix".to_string(),
            ));
        }
        if self.sample_target >= self.round.roster.len() {
            return Err(RoundError::InvalidSpec(format!(
                "sample_target {} leaves no admissible arrival in a roster of {}",
                self.sample_target,
                self.round.roster.len()
            )));
        }
        Ok(())
    }
}

/// The immediate decision for one stream arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamDecision {
    /// Whether the worker was admitted (and paid).
    pub accepted: bool,
    /// The payment made, [`Price::ZERO`] when rejected.
    pub payment: Price,
    /// Stable snake_case decision reason: `"accepted"`, or the
    /// [`RejectReason::name`] of `"sample_observed"`, `"coverage_met"`,
    /// `"quote_exceeded"`, `"not_needed"`, or `"below_density"`.
    pub reason: &'static str,
    /// The posted price, once the sample completed (`None` during the
    /// observation prefix).
    pub posted_price: Option<Price>,
}

impl StreamDecision {
    fn rejected(reason: RejectReason, posted_price: Option<Price>) -> StreamDecision {
        StreamDecision {
            accepted: false,
            payment: Price::ZERO,
            reason: reason.name(),
            posted_price,
        }
    }
}

/// The durable result of closing a stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReceipt {
    /// The closed stream.
    pub round_id: u64,
    /// Total arrivals decided (observed prefix included).
    pub arrivals: usize,
    /// Admitted workers, ascending by id.
    pub accepted: Vec<WorkerId>,
    /// The posted price, if the sample completed before the close.
    pub posted_price: Option<Price>,
    /// Sum of all posted-price payments made.
    pub total_paid: Price,
    /// Whether the admitted set met the coverage requirements.
    pub covered: bool,
    /// LSN of the `StreamClosed` frame (or the highest synced LSN on an
    /// idempotent re-close).
    pub lsn: u64,
    /// `true` when the stream was already closed and this receipt is a
    /// replay of the recorded result.
    pub already_closed: bool,
}

/// A point-in-time view of one stream, as served over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStatusView {
    /// The stream.
    pub round_id: u64,
    /// `"streaming"`, `"closed"`, or `"aborted"`.
    pub phase: String,
    /// Arrivals decided so far.
    pub arrivals: usize,
    /// Size of the observation prefix.
    pub sample_target: usize,
    /// Admitted workers so far, ascending by id.
    pub accepted: Vec<WorkerId>,
    /// The posted price, once learned.
    pub posted_price: Option<Price>,
    /// Sum of payments made so far.
    pub total_paid: Price,
    /// Whether coverage is already met.
    pub covered: bool,
}

/// One live streaming session: the deterministic state machine folded
/// out of `StreamOpened` / `StreamArrival` / `StreamClosed` /
/// `StreamAborted` WAL events.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSession {
    spec: StreamSpec,
    /// Every decided arrival, in order, with its `(accepted, payment)`.
    arrivals: Vec<(AdmittedBid, bool, Price)>,
    threshold: Option<ThresholdInfo>,
    /// Residual coverage requirements; empty until the first arrival
    /// fixes the requirement vector (it depends only on the spec's error
    /// bounds, which every arrival instance shares).
    residual: Vec<f64>,
    remaining: f64,
    /// The shared round lifecycle, in its streaming column
    /// (`Streaming → Closed | Aborted`).
    lifecycle: RoundState,
}

impl StreamSession {
    /// A fresh session for a validated spec.
    pub(crate) fn new(spec: StreamSpec) -> StreamSession {
        StreamSession {
            spec,
            arrivals: Vec::new(),
            threshold: None,
            residual: Vec::new(),
            remaining: 0.0,
            lifecycle: RoundState::streaming(),
        }
    }

    /// The stream's specification.
    pub fn spec(&self) -> &StreamSpec {
        &self.spec
    }

    /// The stream's lifecycle phase.
    pub(crate) fn phase(&self) -> RoundPhase {
        self.lifecycle.phase()
    }

    /// The stream's lifecycle phase name.
    pub fn phase_name(&self) -> &'static str {
        self.phase().name()
    }

    /// Whether the session still accepts arrivals.
    pub fn is_streaming(&self) -> bool {
        self.phase() == RoundPhase::Streaming
    }

    /// The posted price, once the observation prefix completed.
    pub fn posted_price(&self) -> Option<Price> {
        self.threshold.map(|t| t.price)
    }

    /// Whether the threshold fell back to the most permissive price
    /// because the sample could not cover the requirements.
    pub fn threshold_fallback(&self) -> Option<bool> {
        self.threshold.map(|t| t.fallback)
    }

    /// Every decided arrival, in order, with its `(accepted, payment)`.
    pub(crate) fn arrivals(&self) -> &[(AdmittedBid, bool, Price)] {
        &self.arrivals
    }

    /// The phase check, then the round's admission check over the
    /// arrivals so far; returns the arriving worker's roster entry.
    pub(crate) fn admissible(
        &self,
        worker: WorkerId,
        nonce: u64,
    ) -> Result<&RosterEntry, RoundError> {
        if !self.is_streaming() {
            return Err(RoundError::closed(self.spec.round.round_id, self.phase()));
        }
        let admitted = self.arrivals.iter().map(|(bid, ..)| bid);
        Ok(self.spec.round.admissible(admitted, worker, nonce)?)
    }

    /// The stateful admission checks, in the same order as durable bid
    /// submission: phase, roster membership, nonce replay window, then
    /// one-arrival-per-worker.
    ///
    /// # Errors
    ///
    /// [`RoundError::RoundClosed`] or a typed [`RoundError::Envelope`].
    pub fn check_admissible(&self, worker: WorkerId, nonce: u64) -> Result<(), RoundError> {
        self.admissible(worker, nonce).map(|_| ())
    }

    /// Computes the decision this arrival would get, without mutating the
    /// session. Deterministic in `(spec, arrival prefix)` — the fold
    /// recomputes it on replay and cross-checks the log.
    ///
    /// # Errors
    ///
    /// [`RoundError::Infeasible`] when the bid cannot form an instance
    /// under the round's task model (out-of-range bundle or price).
    pub fn evaluate(&self, worker: WorkerId, bid: &Bid) -> Result<StreamDecision, RoundError> {
        Ok(self.decide(worker, bid)?.0)
    }

    /// [`StreamSession::evaluate`], plus the arrival's coverage: a
    /// one-worker instance under the round's task model, which the fold
    /// applies for an accept.
    pub(crate) fn decide(
        &self,
        worker: WorkerId,
        bid: &Bid,
    ) -> Result<(StreamDecision, SparseCoverage), RoundError> {
        let (instance, _) = self.spec.round.instance([(worker, bid)])?;
        let cover = instance.sparse_coverage();
        // The threshold is learned the moment the sample completes.
        let Some(t) = self.threshold else {
            let observed = StreamDecision::rejected(RejectReason::SampleObserved, None);
            return Ok((observed, cover));
        };
        let posted = Some(t.price);
        // The first arrival fixed the residual, so it is set by now.
        let gain = marginal_coverage(&cover, WorkerId(0), &self.residual);
        let decision = match t.admit(self.remaining, bid.price(), gain) {
            Ok(()) => StreamDecision {
                accepted: true,
                payment: t.price,
                reason: "accepted",
                posted_price: posted,
            },
            Err(reason) => StreamDecision::rejected(reason, posted),
        };
        Ok((decision, cover))
    }

    /// Folds one admissible, already-decided arrival into the session:
    /// records it, applies its coverage for an accept, and learns the
    /// threshold when the observation prefix completes.
    pub(crate) fn apply_arrival(
        &mut self,
        bid: AdmittedBid,
        decision: &StreamDecision,
        cover: &SparseCoverage,
    ) {
        if self.residual.is_empty() {
            self.residual = cover.requirements().to_vec();
            self.remaining = self.residual.iter().map(|r| r.max(0.0)).sum();
        }
        if decision.accepted {
            apply_coverage(cover, WorkerId(0), &mut self.residual, &mut self.remaining);
        }
        self.arrivals
            .push((bid, decision.accepted, decision.payment));
        if self.arrivals.len() == self.spec.sample_target {
            self.threshold = Some(self.learn_threshold());
        }
    }

    /// Stage 1 over the completed sample: the simulator's learner run on
    /// an instance of the sample alone, with the spec's ε and seed (so
    /// replay redraws the same price). Should the sample not form an
    /// instance, the threshold falls back to the grid maximum, as it does
    /// for a sample that cannot cover.
    fn learn_threshold(&self) -> ThresholdInfo {
        let spec = &self.spec.round;
        let sample = self.arrivals[..self.spec.sample_target]
            .iter()
            .map(|(b, ..)| (b.worker, &b.bid));
        let learned = spec.instance(sample).ok().and_then(|(instance, _)| {
            let pool: Vec<WorkerId> = (0..instance.num_workers() as u32).map(WorkerId).collect();
            ThresholdInfo::learn(&instance, &pool, Some(spec.epsilon), self.spec.seed).ok()
        });
        learned.unwrap_or_else(|| ThresholdInfo {
            price: spec.grid().map(|g| g.max()).unwrap_or(spec.price_max),
            density: 0.0,
            sample_size: self.spec.sample_target,
            fallback: true,
        })
    }

    /// Moves the session to `to`: `Closed` or `Aborted`. Payments
    /// already made stand — either only stops further arrivals.
    ///
    /// # Errors
    ///
    /// [`RoundError::RoundClosed`] unless the session is streaming.
    pub(crate) fn advance(&mut self, to: RoundPhase) -> Result<(), RoundError> {
        match self.lifecycle.advance(to) {
            Ok(_) => Ok(()),
            Err(_) => Err(RoundError::closed(self.spec.round.round_id, self.phase())),
        }
    }

    fn accepted_workers(&self) -> Vec<WorkerId> {
        let mut accepted: Vec<WorkerId> = self
            .arrivals
            .iter()
            .filter(|(_, accepted, _)| *accepted)
            .map(|(b, ..)| b.worker)
            .collect();
        accepted.sort_unstable();
        accepted
    }

    fn total_paid(&self) -> Price {
        self.arrivals.iter().map(|&(_, _, payment)| payment).sum()
    }

    fn covered(&self) -> bool {
        !self.residual.is_empty() && self.remaining <= COVER_EPS
    }

    /// The durable close receipt at `lsn`.
    pub(crate) fn receipt(&self, lsn: u64, already_closed: bool) -> StreamReceipt {
        StreamReceipt {
            round_id: self.spec.round.round_id,
            arrivals: self.arrivals.len(),
            accepted: self.accepted_workers(),
            posted_price: self.posted_price(),
            total_paid: self.total_paid(),
            covered: self.covered(),
            lsn,
            already_closed,
        }
    }

    /// The wire view of this stream.
    pub fn view(&self) -> StreamStatusView {
        StreamStatusView {
            round_id: self.spec.round.round_id,
            phase: self.phase_name().to_string(),
            arrivals: self.arrivals.len(),
            sample_target: self.spec.sample_target,
            accepted: self.accepted_workers(),
            posted_price: self.posted_price(),
            total_paid: self.total_paid(),
            covered: self.covered(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::EnvelopeError;
    use crate::ledger::RosterEntry;
    use ed25519::{hex_encode, SigningKey};
    use mcs_auction::{privacy, ExponentialMechanism, PricePmf, ScheduleEngine, SelectionRule};
    use mcs_num::rng;
    use mcs_types::{Bundle, TaskId};
    use rand::seq::SliceRandom;
    use rand::Rng;

    fn key_for(worker: u32) -> SigningKey {
        let mut seed = [0u8; 32];
        seed[..4].copy_from_slice(&worker.to_le_bytes());
        seed[31] = 0xA7;
        SigningKey::from_seed(seed)
    }

    fn stream_spec(round_id: u64, workers: u32, sample_target: usize) -> StreamSpec {
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
                roster: (0..workers)
                    .map(|w| RosterEntry {
                        worker: WorkerId(w),
                        public_key: hex_encode(&key_for(w).verifying_key().to_bytes()),
                        skills: vec![0.9, 0.9, 0.9],
                    })
                    .collect(),
            },
            sample_target,
            seed: 11,
        }
    }

    fn bid_for(worker: u32) -> Bid {
        Bid::new(
            Bundle::new(vec![TaskId(worker % 3), TaskId((worker + 1) % 3)]),
            Price::from_f64(2.0 + f64::from(worker)),
        )
    }

    fn feed(session: &mut StreamSession, worker: u32) -> StreamDecision {
        let bid = bid_for(worker);
        session
            .check_admissible(WorkerId(worker), u64::from(worker) + 1)
            .expect("admissible");
        let (decision, cover) = session.decide(WorkerId(worker), &bid).expect("evaluated");
        let admitted = AdmittedBid {
            worker: WorkerId(worker),
            bid,
            nonce: u64::from(worker) + 1,
            expires_at_ms: 1_000_000,
            signature: [0u8; 64],
        };
        session.apply_arrival(admitted, &decision, &cover);
        decision
    }

    #[test]
    fn spec_validation_bounds_the_sample() {
        assert!(stream_spec(1, 6, 2).validate().is_ok());
        assert!(matches!(
            stream_spec(1, 6, 0).validate(),
            Err(RoundError::InvalidSpec(_))
        ));
        assert!(matches!(
            stream_spec(1, 6, 6).validate(),
            Err(RoundError::InvalidSpec(_))
        ));
    }

    #[test]
    fn sample_arrivals_are_observed_never_paid() {
        let mut session = StreamSession::new(stream_spec(1, 8, 3));
        for w in 0..3 {
            let d = feed(&mut session, w);
            assert!(!d.accepted);
            assert_eq!(d.reason, "sample_observed");
            assert_eq!(d.payment, Price::ZERO);
            assert_eq!(d.posted_price, None);
        }
        // The threshold exists the moment the sample completes.
        let posted = session.posted_price().expect("threshold learned");
        let d = feed(&mut session, 3);
        assert_eq!(d.posted_price, Some(posted));
        if d.accepted {
            assert_eq!(d.payment, posted, "admits pay exactly the posted price");
        }
    }

    #[test]
    fn replaying_the_same_prefix_reproduces_every_decision() {
        let spec = stream_spec(2, 8, 3);
        let mut a = StreamSession::new(spec.clone());
        let mut b = StreamSession::new(spec);
        for w in 0..8 {
            let da = feed(&mut a, w);
            let db = feed(&mut b, w);
            assert_eq!(da, db, "worker {w}");
        }
        assert_eq!(a, b);
        assert_eq!(a.view(), b.view());
    }

    #[test]
    fn admission_checks_are_typed_and_ordered() {
        let mut session = StreamSession::new(stream_spec(3, 4, 1));
        feed(&mut session, 0);
        // Unknown worker.
        assert!(matches!(
            session.check_admissible(WorkerId(9), 5),
            Err(RoundError::Envelope(EnvelopeError::UnknownWorker(
                WorkerId(9)
            )))
        ));
        // Replayed nonce (worker 0 used nonce 1).
        assert!(matches!(
            session.check_admissible(WorkerId(0), 1),
            Err(RoundError::Envelope(EnvelopeError::ReplayedNonce {
                worker: WorkerId(0),
                nonce: 1,
            }))
        ));
        // Second arrival by the same worker, fresh nonce.
        assert!(matches!(
            session.check_admissible(WorkerId(0), 99),
            Err(RoundError::Envelope(EnvelopeError::DuplicateBid(WorkerId(
                0
            ))))
        ));
        // Closed session refuses everything.
        session.advance(RoundPhase::Closed).expect("close");
        assert!(matches!(
            session.check_admissible(WorkerId(1), 2),
            Err(RoundError::RoundClosed { .. })
        ));
        assert!(
            session.advance(RoundPhase::Closed).is_err(),
            "double close is refused"
        );
    }

    #[test]
    fn coverage_met_stops_further_admits() {
        let mut session = StreamSession::new(stream_spec(4, 12, 1));
        let mut accepted = 0;
        let mut saw_coverage_met = false;
        for w in 0..12 {
            let d = feed(&mut session, w);
            if d.accepted {
                accepted += 1;
            }
            if d.reason == "coverage_met" {
                saw_coverage_met = true;
            }
        }
        // δ_j = 0.8 requirements are coverable by a couple of 0.9-skill
        // workers; with 11 post-sample arrivals the round must fill up
        // and start refusing.
        assert!(accepted >= 1);
        assert!(saw_coverage_met, "coverage never filled in 12 arrivals");
        let view = session.view();
        assert!(view.covered);
        assert_eq!(
            view.total_paid.tenths(),
            session.posted_price().expect("posted").tenths() * i64::from(accepted)
        );
    }

    #[test]
    fn receipts_summarise_the_session() {
        let mut session = StreamSession::new(stream_spec(5, 8, 2));
        for w in 0..8 {
            feed(&mut session, w);
        }
        session.advance(RoundPhase::Closed).expect("close");
        let receipt = session.receipt(42, false);
        assert_eq!(receipt.round_id, 5);
        assert_eq!(receipt.arrivals, 8);
        assert_eq!(receipt.lsn, 42);
        assert!(!receipt.already_closed);
        assert!(receipt.accepted.windows(2).all(|w| w[0] < w[1]));
        let paid: i64 =
            receipt.posted_price.map(Price::tenths).unwrap_or(0) * receipt.accepted.len() as i64;
        assert_eq!(receipt.total_paid.tenths(), paid);
    }

    /// A stream-like sample: a roster of 2–12 workers over 1–4 tasks,
    /// with random skills, error bounds, grid step and ε, each worker
    /// bidding a random bundle at a random price.
    fn random_sample(seed: u64, public_key: &str) -> (RoundSpec, Vec<(WorkerId, Bid)>) {
        let mut r = rng::seeded(seed);
        let workers = r.gen_range(2..=12u32);
        let num_tasks = r.gen_range(1..=4usize);
        let spec = RoundSpec {
            round_id: seed,
            num_tasks,
            error_bounds: (0..num_tasks).map(|_| r.gen_range(0.35..0.9)).collect(),
            price_min: Price::from_f64(1.0),
            price_max: Price::from_f64(31.0),
            price_step: Price::from_f64([0.5, 1.0, 2.0, 5.0][r.gen_range(0..4usize)]),
            cost_min: Price::from_f64(1.0),
            cost_max: Price::from_f64(30.0),
            epsilon: [0.1, 0.5, 1.0, 4.0][r.gen_range(0..4usize)],
            roster: (0..workers)
                .map(|w| RosterEntry {
                    worker: WorkerId(w),
                    public_key: public_key.to_string(),
                    skills: (0..num_tasks).map(|_| r.gen_range(0.6..1.0)).collect(),
                })
                .collect(),
        };
        let sample = (0..workers)
            .map(|w| {
                let mut tasks: Vec<TaskId> = (0..num_tasks as u32).map(TaskId).collect();
                tasks.shuffle(&mut r);
                tasks.truncate(r.gen_range(1..=num_tasks));
                let price = Price::from_tenths(r.gen_range(10..=300));
                (WorkerId(w), Bid::new(Bundle::new(tasks), price))
            })
            .collect();
        (spec, sample)
    }

    /// The price lottery a session learns from `sample`: the exponential
    /// mechanism over the schedule of an instance of the sample alone,
    /// normalised by that instance (`None` when the sample cannot cover).
    fn sample_lottery(spec: &RoundSpec, sample: &[(WorkerId, Bid)]) -> Option<PricePmf> {
        let (instance, _) = spec
            .instance(sample.iter().map(|(w, b)| (*w, b)))
            .expect("sample instance");
        let schedule = ScheduleEngine::new(SelectionRule::MarginalCoverage)
            .build(&instance)
            .ok()?;
        let mechanism = ExponentialMechanism::for_instance(spec.epsilon, &instance).expect("ε");
        Some(mechanism.pmf(schedule))
    }

    #[test]
    fn the_sample_normalised_price_channel_is_epsilon_dp() {
        let public_key = hex_encode(&key_for(0).verifying_key().to_bytes());
        // Pairs compared, pairs whose support shifted, largest ratio / ε.
        let (mut pairs, mut shifts, mut worst) = (0u64, 0u64, 0.0f64);
        for seed in 0..1_000u64 {
            let (spec, sample) = random_sample(seed, &public_key);
            let Some(truthful) = sample_lottery(&spec, &sample) else {
                continue;
            };
            let (lo, hi) = (spec.cost_min.tenths(), spec.cost_max.tenths());
            for i in 0..sample.len() {
                let now = sample[i].1.price().tenths();
                let mut moves = vec![lo, hi, (now - 1).max(lo), (now + 1).min(hi)];
                moves.sort_unstable();
                moves.dedup();
                for tenths in moves.into_iter().filter(|&t| t != now) {
                    let mut neighbour = sample.clone();
                    let bundle = neighbour[i].1.bundle().clone();
                    neighbour[i].1 = Bid::new(bundle, Price::from_tenths(tenths));
                    let ratio = sample_lottery(&spec, &neighbour)
                        .and_then(|other| privacy::dp_log_ratio(&truthful, &other));
                    let Some(ratio) = ratio else {
                        shifts += 1;
                        continue;
                    };
                    pairs += 1;
                    worst = worst.max(ratio / spec.epsilon);
                    assert!(
                        ratio <= spec.epsilon + 1e-9,
                        "seed {seed}, worker {i} → {tenths} tenths: log-ratio {ratio} > ε = {}",
                        spec.epsilon
                    );
                }
            }
        }
        // 1 000 samples give ≈ 18 000 comparable pairs and ≈ 3 000 shifts;
        // the largest log-ratio is ≈ 0.15 ε.
        assert!(
            pairs >= 10_000,
            "{pairs} comparable pairs ({shifts} support shifts), worst ratio {worst} ε"
        );
    }
}
