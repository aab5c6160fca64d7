//! Schedule pins: an FNV-1a digest of every feasible price and winner set
//! the schedule engines build on the benchmark's and the paper's shapes.
//!
//! `schedule_equivalence` checks the engines against each other and
//! against the naive reference on small proptest instances; this file
//! holds the schedules themselves, bit for bit, on the sizes where the
//! engines' fast paths actually run (hundreds to thousands of workers,
//! many diverging price intervals). Each instance is built under every
//! [`Strategy`], the strategies must agree, and the digest covers all
//! three builds. The digest reads only `prices()` and `winners(i)`, so it
//! does not depend on how a schedule compresses its intervals.

use dp_mcs::num::rng::seeded;
use dp_mcs::types::{CoverageView, Fnv1a};
use dp_mcs::{
    Instance, McsError, PriceSchedule, ScheduleEngine, SelectionRule, Setting, Strategy, WorkerId,
};
use mcs_verify::gen::{large_sparse_sized, many_workers_sized};
use rand::Rng;

/// Running digest over a sequence of build results.
struct Pin {
    digest: Fnv1a,
    schedules: usize,
    prices: usize,
}

impl Pin {
    fn new() -> Pin {
        Pin {
            digest: Fnv1a::new(),
            schedules: 0,
            prices: 0,
        }
    }

    fn absorb(&mut self, result: &Result<PriceSchedule, McsError>) {
        match result {
            Ok(schedule) => {
                self.digest.tag(1);
                self.digest.write_usize(schedule.len());
                for i in 0..schedule.len() {
                    self.digest.write_i64(schedule.price(i).tenths());
                    let winners = schedule.winners(i);
                    self.digest.write_usize(winners.len());
                    for w in winners {
                        self.digest.write_u32(w.0);
                    }
                }
                self.schedules += 1;
                self.prices += schedule.len();
            }
            Err(e) => {
                self.digest.tag(2);
                self.digest.write(format!("{e:?}").as_bytes());
            }
        }
    }

    fn finish(&self) -> (usize, usize, u64) {
        (self.schedules, self.prices, self.digest.finish())
    }
}

/// The same observable schedule: equal prices and winner sets.
fn same_schedule(a: &Result<PriceSchedule, McsError>, b: &Result<PriceSchedule, McsError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.prices() == b.prices() && (0..a.len()).all(|i| a.winners(i) == b.winners(i))
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Absorbs one build per strategy and checks that they agree.
fn absorb_all(
    pin: &mut Pin,
    context: &str,
    build: impl Fn(ScheduleEngine) -> Result<PriceSchedule, McsError>,
) {
    let results: Vec<Result<PriceSchedule, McsError>> = Strategy::ALL
        .iter()
        .map(|&s| build(ScheduleEngine::new(SelectionRule::MarginalCoverage).strategy(s)))
        .collect();
    for (s, r) in Strategy::ALL.iter().zip(&results) {
        assert!(
            same_schedule(r, &results[0]),
            "{context}: {} disagrees with {}",
            s.name(),
            Strategy::ALL[0].name()
        );
        pin.absorb(r);
    }
}

/// Digests full builds of `instances` under every strategy.
fn pin_builds(label: &str, instances: &[Instance]) -> (usize, usize, u64) {
    let mut pin = Pin::new();
    for (i, instance) in instances.iter().enumerate() {
        absorb_all(&mut pin, &format!("{label} #{i}"), |engine| {
            engine.build(instance)
        });
    }
    pin.finish()
}

fn generate(setting: Setting, seeds: std::ops::Range<u64>) -> Vec<Instance> {
    seeds.map(|seed| setting.generate(seed).instance).collect()
}

#[test]
fn setting_one_560_the_miss_shape() {
    let instances = generate(Setting::one(560), 0..16);
    assert_eq!(
        pin_builds("one(560)", &instances),
        (48, 12_048, 0x33af_f477_6ed7_f8f6)
    );
}

#[test]
fn setting_one_140() {
    let instances = generate(Setting::one(140), 0..32);
    assert_eq!(
        pin_builds("one(140)", &instances),
        (96, 23_655, 0x6065_0593_ecfb_15e2)
    );
}

#[test]
fn setting_two_k50() {
    let instances = generate(Setting::two(50), 0..16);
    assert_eq!(
        pin_builds("two(50)", &instances),
        (48, 2_742, 0xc585_410a_b493_0346)
    );
}

#[test]
fn setting_three_800() {
    let instances = generate(Setting::three(800), 0..2);
    assert_eq!(
        pin_builds("three(800)", &instances),
        (6, 1_506, 0xc47e_89ed_ab57_f6e4)
    );
}

#[test]
fn large_sparse_and_many_workers() {
    let instances = [
        large_sparse_sized(2000, 7),
        large_sparse_sized(10_000, 7),
        many_workers_sized(2000, 7),
    ];
    assert_eq!(
        pin_builds("generated", &instances),
        (9, 102, 0x8c48_91b3_0adc_2dc2)
    );
}

/// 200 residual builds: each call draws a partly met requirement vector
/// (some tasks already closed) and a random eligible pool from one of
/// eight instances, the way a resilient round backfills after no-shows.
#[test]
fn seeded_residual_builds() {
    let mut instances = generate(Setting::one(140), 0..4);
    instances.extend(generate(Setting::one(560), 100..102));
    instances.extend(generate(Setting::two(50), 100..102));
    let mut pin = Pin::new();
    for call in 0..200u64 {
        let instance = &instances[call as usize % instances.len()];
        let mut rng = seeded(0x5EED_0000 + call);
        let cover = instance.sparse_coverage();
        let requirements: Vec<f64> = cover
            .requirements()
            .iter()
            .map(|&q| {
                if rng.gen_bool(0.1) {
                    0.0
                } else {
                    q * rng.gen_range(0.2..1.0)
                }
            })
            .collect();
        let keep = rng.gen_range(0.5..1.0);
        let eligible: Vec<WorkerId> = (0..instance.num_workers() as u32)
            .map(WorkerId)
            .filter(|_| rng.gen_bool(keep))
            .collect();
        absorb_all(&mut pin, &format!("residual call {call}"), |engine| {
            engine.build_residual(instance, &requirements, &eligible)
        });
    }
    assert_eq!(pin.finish(), (516, 112_629, 0xa061_7889_2119_f698));
}
