//! The `hit`, `hit_c4` and `miss` workloads: `run_auction` requests over
//! TCP.
//!
//! All three send the same request type to a service in its default
//! configuration. `hit` and `miss` differ only in how soon an instance
//! repeats, so the PMF cache is the layer that separates them: `hit`
//! answers every request from the cache, `miss` builds a schedule and PMF
//! for every request. `hit_c4` is `hit` from four clients at once, twice
//! as many requests in flight as the service has workers: requests wait in
//! the accept queue, and the dispatcher coalesces requests for the same
//! instance into batches.

use std::collections::btree_map::{BTreeMap, Entry};
use std::time::{Duration, Instant};

use rand::Rng;

use mcs_auction::{
    AuctionOutcome, DpHsrcAuction, ExponentialMechanism, PricePmf, ScheduledMechanism,
};
use mcs_num::rng;
use mcs_service::{
    decode_request, CacheKey, PmfCache, Request, Response, Service, ServiceConfig, TcpServer,
};
use mcs_sim::Setting;
use mcs_types::{Instance, McsError};

use crate::trace::{self, Counters, Layers, Tracer};
use crate::{connect_ready, service_metrics, LineClient, Pass, Run};

/// Table I setting 1 at this worker count: a cold schedule build (tens of
/// milliseconds) outweighs shipping the instance (~150 KB of JSON), as in
/// `BENCH_service.json`.
const WORKERS_IN_SETTING: usize = 560;
const EPSILON: f64 = 0.1;
/// Instances `hit` draws from; they fit the cache.
const HOT_SET: usize = 4;
/// Instances `miss` cycles through. Between two uses of one instance the
/// client asks for `MISS_POOL - 1` others, about twice what the default
/// cache holds, so the LRU has always evicted it. The pool is large so
/// that a run's latencies do not hang on a few instances whose builds
/// happen to be fast or slow.
const MISS_POOL: usize = 64;
/// Measured time of one pass, long enough that even a `miss` pass answers
/// dozens of requests.
const PASS: Duration = Duration::from_secs(2);

/// Which request stream a run sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mix {
    Hit,
    Miss,
}

/// The generated inputs of one run.
struct Plan {
    mix: Mix,
    seed: u64,
    instances: Vec<Instance>,
}

impl Plan {
    fn new(mix: Mix, seed: u64) -> Plan {
        // `miss` keeps one extra instance for the set-up's first request.
        let count = match mix {
            Mix::Hit => HOT_SET,
            Mix::Miss => MISS_POOL + 1,
        };
        let setting = Setting::one(WORKERS_IN_SETTING);
        let instances = (0..count as u64)
            .map(|i| setting.generate(rng::derived(seed, i).gen()).instance)
            .collect();
        Plan {
            mix,
            seed,
            instances,
        }
    }

    /// The instances the set-up asks for once each: the `hit` hot set, so
    /// the cache is full before measuring starts, or the one `miss`
    /// warm-up instance.
    fn warm_up(&self) -> std::ops::Range<usize> {
        match self.mix {
            Mix::Hit => 0..HOT_SET,
            Mix::Miss => self.instances.len() - 1..self.instances.len(),
        }
    }

    /// Instance index and price-draw seed of request `j`.
    fn pick(&self, j: u64) -> (usize, u64) {
        let mut r = rng::derived(self.seed ^ 0xD4A3, j);
        let idx = match self.mix {
            // Drawn, so that concurrent clients often ask for the same
            // instance and the dispatcher has requests to coalesce.
            Mix::Hit => r.gen_range(0..HOT_SET),
            // Cyclic, so that an instance returns only after every other.
            Mix::Miss => usize::try_from(j % MISS_POOL as u64).expect("index below the pool size"),
        };
        (idx, r.gen())
    }

    fn request(&self, idx: usize, draw_seed: u64) -> Request {
        Request::RunAuction {
            instance: self.instances[idx].clone(),
            epsilon: EPSILON,
            seed: draw_seed,
        }
    }
}

/// A started service with its TCP front-end.
struct Live {
    service: Service,
    tcp: TcpServer,
}

impl Live {
    /// Starts the service, sends the warm-up requests in process and opens
    /// the TCP front-end, which is one set-up sample. Returns the set-up's
    /// duration in seconds.
    fn start(warm_up: Vec<Request>) -> Result<(Live, f64), String> {
        let start = Instant::now();
        let service = Service::start(ServiceConfig::default());
        let client = service.client();
        for request in warm_up {
            match client.call(request) {
                Response::Outcome(_) => {}
                other => return Err(format!("warm-up request answered {other:?}")),
            }
        }
        let tcp = TcpServer::bind(service.client(), "127.0.0.1:0")
            .map_err(|e| format!("bind loopback: {e}"))?;
        let setup = start.elapsed().as_secs_f64();
        Ok((Live { service, tcp }, setup))
    }

    fn stop(self, conns: Vec<LineClient>) {
        drop(conns);
        self.tcp.shutdown();
        self.service.shutdown();
    }
}

/// One answered request.
struct Answer {
    id: u64,
    idx: usize,
    draw_seed: u64,
    outcome: AuctionOutcome,
    /// The request line as sent, kept by a traced run for the replay.
    line: Option<String>,
}

/// What one client observed in one pass.
struct ClientLog {
    attempted: u64,
    failed: u64,
    /// The last request id the client used.
    last_id: Option<u64>,
    latencies: Vec<f64>,
    answers: Vec<Answer>,
    tracer: Option<Tracer>,
}

/// One closed-loop client: sends requests `ids` one after another until
/// `deadline`, or until the connection fails.
fn client_loop(
    plan: &Plan,
    conn: &mut LineClient,
    ids: impl Iterator<Item = u64>,
    deadline: Instant,
    mut tracer: Option<Tracer>,
) -> ClientLog {
    let mut log = ClientLog {
        attempted: 0,
        failed: 0,
        last_id: None,
        latencies: Vec::new(),
        answers: Vec::new(),
        tracer: None,
    };
    for id in ids {
        if Instant::now() >= deadline {
            break;
        }
        log.last_id = Some(id);
        let (idx, draw_seed) = plan.pick(id);
        let request = plan.request(idx, draw_seed);
        log.attempted += 1;
        let sent = Instant::now();
        let answer = match tracer.as_mut() {
            None => conn.call(&request).map(|response| (response, None)),
            Some(tracer) => trace::traced_call(tracer, id, conn, &request)
                .map(|(response, line)| (response, Some(line))),
        };
        let took = sent.elapsed();
        match answer {
            Ok((Response::Outcome(outcome), line)) => {
                log.latencies.push(took.as_secs_f64());
                log.answers.push(Answer {
                    id,
                    idx,
                    draw_seed,
                    outcome,
                    line,
                });
            }
            Ok((other, _)) => {
                if log.failed == 0 {
                    eprintln!("request answered {other:?}");
                }
                log.failed += 1;
            }
            Err(err) => {
                eprintln!("request failed: {err}");
                log.failed += 1;
                break;
            }
        }
    }
    log.tracer = tracer;
    log
}

/// Replays `run_auction` requests through the functions the service calls,
/// against a PMF cache of the service's capacity that sees the same
/// requests.
struct Replay {
    cache: PmfCache,
}

impl Replay {
    fn new(plan: &Plan) -> Result<Replay, String> {
        let replay = Replay {
            cache: PmfCache::new(ServiceConfig::default().cache_capacity),
        };
        for idx in plan.warm_up() {
            let instance = &plan.instances[idx];
            replay
                .cache
                .get_or_build(CacheKey::new(instance, EPSILON), || {
                    DpHsrcAuction::new(EPSILON)?.pmf(instance)
                })
                .map_err(|e| e.to_string())?;
        }
        Ok(replay)
    }

    /// The service's path for one request, span by span, as it runs for a
    /// batch of one. Returns the outcome the service must have answered.
    fn replay(
        &self,
        tracer: &mut Tracer,
        id: u64,
        line: &str,
        instance: &Instance,
        draw_seed: u64,
    ) -> Result<AuctionOutcome, String> {
        let (decoded, _) = tracer.span(id, trace::SERVER_DECODE, trace::ROUND_TRIP, || {
            decode_request(line)
        });
        decoded.map_err(|e| e.to_string())?;
        // The service digests every request twice: the dispatcher to find
        // its batch, and the worker to look up the cache.
        let (key, _) = tracer.span(id, trace::DIGEST, trace::ROUND_TRIP, || {
            std::hint::black_box(CacheKey::new(instance, EPSILON));
            CacheKey::new(instance, EPSILON)
        });
        let mut build = Tracer::new(tracer.epoch());
        let start = Instant::now();
        let found = self
            .cache
            .get_or_build(key, || build_traced(&mut build, id, instance));
        tracer.close(
            id,
            trace::CACHE_LOOKUP,
            trace::ROUND_TRIP,
            start,
            build.covered(),
        );
        tracer.absorb(build);
        let (pmf, _hit) = found.map_err(|e| e.to_string())?;
        let (outcome, _) = tracer.span(id, trace::SAMPLE, trace::ROUND_TRIP, || {
            pmf.sample(&mut rng::seeded(draw_seed))
        });
        let answer = Response::Outcome(outcome.clone());
        let (encoded, _) = tracer.span(id, trace::SERVER_ENCODE, trace::ROUND_TRIP, || {
            serde_json::to_string(&answer)
        });
        encoded.map_err(|e| e.to_string())?;
        Ok(outcome)
    }
}

/// A cold build as the service performs it, plus the CSR build timed on
/// its own.
fn build_traced(spans: &mut Tracer, id: u64, instance: &Instance) -> Result<PricePmf, McsError> {
    spans.span(id, trace::CSR_BUILD, trace::CACHE_LOOKUP, || {
        instance.sparse_coverage()
    });
    let auction = DpHsrcAuction::new(EPSILON)?;
    let (schedule, _) = spans.span(id, trace::SCHEDULE_BUILD, trace::CACHE_LOOKUP, || {
        auction.schedule(instance)
    });
    let schedule = schedule?;
    let (pmf, _) = spans.span(id, trace::PMF, trace::CACHE_LOOKUP, || {
        ExponentialMechanism::for_instance(EPSILON, instance).map(|m| m.pmf(schedule))
    });
    pmf
}

/// Checks every answer against the PMF built in process.
fn verify(plan: &Plan, answers: &[Answer]) -> Result<bool, String> {
    let mut pmfs: BTreeMap<usize, PricePmf> = BTreeMap::new();
    for answer in answers {
        let pmf = match pmfs.entry(answer.idx) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(slot) => slot.insert(
                DpHsrcAuction::new(EPSILON)
                    .and_then(|auction| auction.pmf(&plan.instances[answer.idx]))
                    .map_err(|e| e.to_string())?,
            ),
        };
        if pmf.sample(&mut rng::seeded(answer.draw_seed)) != answer.outcome {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Runs passes of `clients` concurrent clients until `seconds` of traffic
/// are measured.
pub(crate) fn run(
    mix: Mix,
    clients: usize,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<Run, String> {
    let plan = Plan::new(mix, seed);
    let mut run = Run::new();
    let mut tracer = traced.then(|| Tracer::new(Instant::now()));
    let mut counters = Counters::default();
    let mut answers = Vec::new();
    let mut next = 0u64;
    while run.measured() < seconds as f64 && run.failed == 0 {
        counters.add(pass(
            &plan,
            clients,
            &mut next,
            &mut run,
            &mut answers,
            tracer.as_mut(),
        )?);
    }
    match tracer {
        Some(tracer) => run.layers = Some(Layers { tracer, counters }),
        None => run.correct = verify(&plan, &answers)?,
    }
    Ok(run)
}

/// One pass: starts a service (one set-up sample), lets `clients` clients
/// send requests from id `next` on for [`PASS`], and stops the service.
/// Client `c` sends ids `next + c`, `next + c + clients`, …. A traced pass
/// replays its answers once the service has stopped, so that the replay
/// never competes with the traffic. Returns the service's counters over
/// the measured part.
fn pass(
    plan: &Plan,
    clients: usize,
    next: &mut u64,
    run: &mut Run,
    answers: &mut Vec<Answer>,
    mut tracer: Option<&mut Tracer>,
) -> Result<Counters, String> {
    let warm_up: Vec<Request> = plan.warm_up().map(|idx| plan.request(idx, 0)).collect();
    let (live, setup) = Live::start(warm_up)?;
    let mut conns = connect_ready(live.tcp.local_addr(), clients)?;
    let epoch = tracer.as_ref().map(|t| t.epoch());
    let base = *next;

    let before = service_metrics(&live.service)?;
    let phase_start = Instant::now();
    let deadline = phase_start + PASS;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let ids = (base + c as u64..).step_by(clients);
                let tracer = epoch.map(Tracer::new);
                s.spawn(move || client_loop(plan, conn, ids, deadline, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let phase = phase_start.elapsed();
    let after = service_metrics(&live.service)?;
    live.stop(conns);

    let mut latencies = Vec::new();
    let mut pass_answers = Vec::new();
    for log in logs {
        run.attempted += log.attempted;
        run.failed += log.failed;
        *next = (*next).max(log.last_id.map_or(base, |id| id + 1));
        latencies.extend(log.latencies);
        pass_answers.extend(log.answers);
        if let (Some(tracer), Some(client)) = (tracer.as_deref_mut(), log.tracer) {
            tracer.absorb(client);
        }
    }
    if let Some(tracer) = tracer {
        // The replay's cache must see the same history as the fresh
        // service's.
        let replay = Replay::new(plan)?;
        pass_answers.sort_by_key(|answer| answer.id);
        for answer in &mut pass_answers {
            let line = answer.line.take().ok_or("a traced answer lost its line")?;
            let instance = &plan.instances[answer.idx];
            let expected = replay.replay(tracer, answer.id, &line, instance, answer.draw_seed)?;
            run.correct &= expected == answer.outcome;
        }
    }
    answers.extend(pass_answers);
    run.passes.push(Pass {
        setup,
        measured: phase.as_secs_f64(),
        latencies,
    });
    Ok(Counters::between(&before, &after, "run_auction"))
}
