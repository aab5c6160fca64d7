//! The incremental sweep's fast paths run on the pinned shapes, and agree
//! with the indexed engine where they do.
//!
//! `schedule_pins` holds the schedules these shapes produce; the proptests
//! in `schedule_equivalence` use 8–32-worker instances, where no greedy
//! step is expensive enough for the dense finish and few intervals
//! diverge. This file reads `BuildStats` to show that, on the benchmark's
//! and the paper's shapes, intervals really resume at a diverging step
//! past 0, steps really finish with the dense scan, and the schedules
//! those paths produce equal `Strategy::Indexed`'s.

use dp_mcs::auction::BuildStats;
use dp_mcs::{Instance, ScheduleEngine, SelectionRule, Setting, Strategy};
use mcs_verify::gen::many_workers_sized;

/// Builds `instance` with the incremental sweep and the indexed engine,
/// checks that they agree, and returns the sweep's counters.
fn counted(instance: &Instance, context: &str) -> BuildStats {
    let engine = ScheduleEngine::new(SelectionRule::MarginalCoverage);
    let (incremental, stats) = engine
        .strategy(Strategy::Incremental)
        .build_with_stats(instance)
        .expect("generated instances are coverable");
    let indexed = engine
        .strategy(Strategy::Indexed)
        .build(instance)
        .expect("generated instances are coverable");
    assert_eq!(incremental, indexed, "{context}: engines disagree");
    assert_eq!(
        stats.intervals,
        1 + stats.confirmed + stats.resumed,
        "{context}: every interval after the first is confirmed or resumed"
    );
    // A resumed interval picks a newcomer no earlier interval could, so
    // each one starts a new winner set and each confirmed one repeats
    // the last.
    assert_eq!(
        incremental.num_distinct_sets() as u64,
        1 + stats.resumed,
        "{context}: distinct sets"
    );
    stats
}

fn total(shape: &str, instances: &[Instance]) -> BuildStats {
    let mut sum = BuildStats::default();
    for (i, instance) in instances.iter().enumerate() {
        let s = counted(instance, &format!("{shape} #{i}"));
        sum.intervals += s.intervals;
        sum.confirmed += s.confirmed;
        sum.resumed += s.resumed;
        sum.resume_steps += s.resume_steps;
        sum.replay_evaluations += s.replay_evaluations;
        sum.reevaluations += s.reevaluations;
        sum.dense_steps += s.dense_steps;
    }
    sum
}

fn generate(setting: Setting, seeds: std::ops::Range<u64>) -> Vec<Instance> {
    seeds.map(|seed| setting.generate(seed).instance).collect()
}

#[test]
fn the_miss_shape_resumes_and_finishes_dense() {
    let stats = total("one(560)", &generate(Setting::one(560), 0..8));
    assert!(stats.confirmed > stats.resumed, "{stats:?}");
    assert!(stats.resumed > 0, "{stats:?}");
    assert!(stats.mean_resume_step() > 1.0, "{stats:?}");
    assert!(stats.dense_steps > 0, "{stats:?}");
}

#[test]
fn the_paper_shapes_resume_and_finish_dense() {
    for (shape, instances) in [
        ("one(140)", generate(Setting::one(140), 0..8)),
        ("two(50)", generate(Setting::two(50), 0..8)),
        ("three(800)", generate(Setting::three(800), 0..1)),
    ] {
        let stats = total(shape, &instances);
        assert!(stats.resumed > 0, "{shape}: {stats:?}");
        assert!(stats.mean_resume_step() > 1.0, "{shape}: {stats:?}");
        assert!(stats.dense_steps > 0, "{shape}: {stats:?}");
    }
}

#[test]
fn the_many_worker_shape_resumes() {
    let stats = total("many_workers(2000)", &[many_workers_sized(2000, 7)]);
    assert!(stats.resumed > 0, "{stats:?}");
    assert!(stats.mean_resume_step() > 0.0, "{stats:?}");
}
