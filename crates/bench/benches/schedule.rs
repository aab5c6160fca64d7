//! Schedule-engine benchmark: the incremental sweep vs the indexed
//! lockstep engine vs the default (`Auto`, which picks between the two
//! from the candidate-pool size).
//!
//! Both engines produce byte-identical schedules (see
//! `tests/schedule_equivalence.rs`); only the build cost differs. At
//! Setting-II scale (N = 300) `Auto` runs the incremental sweep, so the
//! `auto` and `incremental` rows should coincide.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mcs_auction::{ScheduleEngine, SelectionRule, Strategy};
use mcs_sim::Setting;
use mcs_types::Instance;

/// Large pools at and above Setting-II scale. `n300_k30` keeps the
/// Table I Setting I/II distributions verbatim; `n300_tight` tightens the
/// error bounds (δ ∈ [0.01, 0.02], so Q = 2 ln(1/δ) ≈ 8–9) so every task
/// needs tens of winners and the incremental sweep's replays diverge
/// more often.
fn instances() -> Vec<(String, Instance)> {
    let mut tight = Setting::one(300);
    tight.delta_range = (0.01, 0.02);
    vec![
        (
            "n300_k30".to_string(),
            Setting::one(300).generate(7).instance,
        ),
        ("n300_tight".to_string(), tight.generate(7).instance),
    ]
}

fn bench_engines(c: &mut Criterion) {
    let instances = instances();
    let mut group = c.benchmark_group("schedule_engine");
    group.sample_size(10);
    for (n, inst) in &instances {
        for strategy in Strategy::ALL {
            group.bench_with_input(BenchmarkId::new(strategy.name(), n), inst, |b, inst| {
                b.iter(|| {
                    ScheduleEngine::new(SelectionRule::MarginalCoverage)
                        .strategy(strategy)
                        .build(inst)
                        .expect("feasible")
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
