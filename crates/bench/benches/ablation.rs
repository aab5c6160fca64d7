//! Ablation benches for the design decisions called out in DESIGN.md §5:
//!
//! * interval-compressed schedule vs the naive per-price loop (the
//!   Theorem 5 optimization);
//! * exact PMF evaluation vs 10 000-sample Monte-Carlo estimation (the
//!   paper's method);
//! * log-domain exponential mechanism at the extreme ε = 1000 end of
//!   Figure 5 (the naive normalization underflows there).

use criterion::{criterion_group, criterion_main, Criterion};

use mcs_auction::{
    reference_schedule, DpHsrcAuction, ExponentialMechanism, ScheduleEngine, ScheduledMechanism,
    SelectionRule,
};
use mcs_num::rng;
use mcs_sim::experiments::sampled_payment_stats;
use mcs_sim::Setting;

fn bench_compression(c: &mut Criterion) {
    let g = Setting::one(100).generate(11);
    let mut group = c.benchmark_group("schedule_compression");
    group.sample_size(10);
    group.bench_function("compressed_intervals", |b| {
        b.iter(|| {
            ScheduleEngine::new(SelectionRule::MarginalCoverage)
                .build(&g.instance)
                .expect("feasible")
        });
    });
    group.bench_function("naive_per_price", |b| {
        b.iter(|| {
            reference_schedule(&g.instance, SelectionRule::MarginalCoverage).expect("feasible")
        });
    });
    group.finish();
}

fn bench_pmf_vs_sampling(c: &mut Criterion) {
    let g = Setting::one(100).generate(12);
    let pmf = DpHsrcAuction::new(0.1)
        .expect("valid epsilon")
        .pmf(&g.instance)
        .expect("feasible");
    let mut group = c.benchmark_group("payment_estimation");
    group.bench_function("exact_pmf_expectation", |b| {
        b.iter(|| pmf.expected_total_payment());
    });
    group.sample_size(10);
    group.bench_function("monte_carlo_10000", |b| {
        let mut r = rng::seeded(3);
        b.iter(|| sampled_payment_stats(&pmf, 10_000, &mut r));
    });
    group.finish();
}

fn bench_extreme_epsilon(c: &mut Criterion) {
    let g = Setting::one(100).generate(13);
    let schedule = ScheduleEngine::new(SelectionRule::MarginalCoverage)
        .build(&g.instance)
        .expect("feasible");
    let mut group = c.benchmark_group("exponential_mechanism");
    for eps in [0.1f64, 1000.0] {
        let mech = ExponentialMechanism::for_instance(eps, &g.instance).expect("valid epsilon");
        group.bench_function(format!("log_domain_eps_{eps}"), |b| {
            b.iter(|| mech.pmf(schedule.clone()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compression,
    bench_pmf_vs_sampling,
    bench_extreme_epsilon
);
criterion_main!(benches);
