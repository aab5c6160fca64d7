//! Estimate pins for Dawid–Skene EM.
//!
//! The one-shot fit and the skill tracker's warm-started, block-weighted
//! refit are the same EM, and the published θ̂ feeds every later auction,
//! so both must keep producing the same bits. This test pins FNV-1a
//! digests of seeded fits (iteration caps 1, 5 and 100, tolerance 0) and
//! of tracker refits (forgetting from 0.3 to 1, gold on and off, a silent
//! worker, drifting skills).

use mcs_agg::{
    DawidSkene, EstimateError, EstimateSource, Label, LabelSet, Observation, SkillTracker,
    TrackerConfig,
};
use mcs_num::rng;
use mcs_types::{Fnv1a, TaskId, WorkerId};
use rand::Rng;

/// Labels of `skills.len()` workers on `num_tasks` tasks with a fresh
/// ground truth: each worker labels each task with probability `reach`,
/// reporting the truth with probability equal to its skill. A worker with
/// skill `0.0` stays silent.
fn round_labels<R: Rng>(skills: &[f64], num_tasks: usize, reach: f64, r: &mut R) -> LabelSet {
    let truth: Vec<Label> = (0..num_tasks).map(|_| Label::random(r)).collect();
    let mut set = LabelSet::new(num_tasks);
    for (w, &skill) in skills.iter().enumerate() {
        if skill == 0.0 {
            continue;
        }
        for (j, &label) in truth.iter().enumerate() {
            if r.gen_bool(reach) {
                set.push(Observation {
                    worker: WorkerId(w as u32),
                    task: TaskId(j as u32),
                    label: if r.gen_bool(skill) { label } else { -label },
                });
            }
        }
    }
    set
}

fn source_tag(source: EstimateSource) -> u8 {
    match source {
        EstimateSource::Em => 1,
        EstimateSource::Gold => 2,
        EstimateSource::Blended => 3,
    }
}

#[test]
fn dawid_skene_fits_match_their_pinned_digest() {
    let configs = [
        DawidSkene {
            max_iterations: 1,
            ..DawidSkene::default()
        },
        DawidSkene {
            max_iterations: 5,
            tolerance: 0.0,
            ..DawidSkene::default()
        },
        DawidSkene::default(),
    ];
    let mut digest = Fnv1a::new();
    let mut fits = 0usize;
    let mut converged = 0usize;
    for seed in 0..100u64 {
        let mut r = rng::seeded(seed);
        let workers = r.gen_range(2..=12usize);
        let tasks = r.gen_range(1..=40usize);
        let mut skills: Vec<f64> = (0..workers).map(|_| r.gen_range(0.3..0.99)).collect();
        if seed % 4 == 0 {
            skills[workers - 1] = 0.0;
        }
        let labels = round_labels(&skills, tasks, r.gen_range(0.3..1.0), &mut r);
        for config in &configs {
            let fit = config.fit(&labels, workers);
            fits += 1;
            converged += usize::from(fit.converged);
            digest.write_usize(fit.iterations);
            digest.tag(u8::from(fit.converged));
            for (&a, &n) in fit.accuracies.iter().zip(&fit.observations) {
                digest.write_f64(a);
                digest.write_u64(n);
            }
            for &p in &fit.posterior_pos {
                digest.write_f64(p);
            }
        }
    }
    assert_eq!(
        (fits, converged, digest.finish()),
        (300, 93, 0x370e_6c2f_8707_0f7b)
    );
}

#[test]
fn tracker_refits_match_their_pinned_digest() {
    const ROUNDS: u64 = 30;
    let mut digest = Fnv1a::new();
    let mut refits = 0usize;
    let mut windows = 0usize;
    for case in 0..40u64 {
        let mut r = rng::seeded(1_000 + case);
        let workers = r.gen_range(3..=8usize);
        let config = TrackerConfig {
            em: DawidSkene {
                max_iterations: [1, 5, 100][(case % 3) as usize],
                tolerance: if case % 5 == 0 { 0.0 } else { 1e-6 },
                ..DawidSkene::default()
            },
            forgetting: [0.3, 0.55, 0.8, 1.0][(case % 4) as usize],
            min_weight: if case % 2 == 0 { 1e-3 } else { 0.05 },
            gold_weight: if case % 7 == 0 { 0.0 } else { 4.0 },
        };
        let gold = case % 2 == 1;
        let mut skills: Vec<f64> = (0..workers).map(|_| r.gen_range(0.4..0.98)).collect();
        if case % 3 == 1 {
            // A silent worker: never labels, so only gold (if any) speaks
            // for it.
            skills[0] = 0.0;
        }
        let mut tracker = SkillTracker::new(workers, config).expect("valid config");
        for round in 0..ROUNDS {
            if round == ROUNDS / 2 {
                // Drift: one worker turns unreliable halfway through.
                skills[workers - 1] = 0.35;
            }
            let tasks = r.gen_range(2..=20usize);
            let labels = round_labels(&skills, tasks, 0.7, &mut r);
            tracker.observe_round(&labels).expect("workers in range");
            if gold && round % 3 == 0 {
                let truth: Vec<Label> = (0..4).map(|_| Label::random(&mut r)).collect();
                let mut answers = LabelSet::new(4);
                for (w, &skill) in skills.iter().enumerate() {
                    for (j, &label) in truth.iter().enumerate() {
                        let skill = skill.max(0.6);
                        answers.push(Observation {
                            worker: WorkerId(w as u32),
                            task: TaskId(j as u32),
                            label: if r.gen_bool(skill) { label } else { -label },
                        });
                    }
                }
                tracker
                    .observe_gold(&answers, &truth)
                    .expect("gold in range");
            }
            for &a in tracker.refit() {
                digest.write_f64(a);
            }
            refits += 1;
            let info = tracker.last_refit().expect("refit ran");
            windows += info.window;
            digest.write_usize(info.iterations);
            digest.tag(u8::from(info.converged));
            digest.write_usize(info.window);
            for w in 0..=workers {
                match tracker.estimate(WorkerId(w as u32)) {
                    Ok(e) => {
                        digest.tag(source_tag(e.source));
                        digest.write_f64(e.accuracy);
                        digest.write_f64(e.observations);
                        digest.write_f64(e.confidence);
                    }
                    Err(EstimateError::NoObservations { .. }) => digest.tag(4),
                    Err(EstimateError::WorkerOutOfRange { .. }) => digest.tag(5),
                }
            }
        }
    }
    assert_eq!(
        (refits, windows, digest.finish()),
        (1_200, 12_600, 0x4818_4ad9_308e_7eb7)
    );
}
