//! Report pins for the streaming online mechanisms.
//!
//! Every report field (decisions, hindsight quotes, payments, the learned
//! threshold, replay counters) is a deterministic function of the
//! instance, the timeline and the seed. This test serializes the reports
//! of both mechanisms, in every configuration the benches and checks run,
//! on scaled Setting I and Setting II instances over generated and
//! degenerate timelines, under both hindsight pricing paths, and pins an
//! FNV-1a digest of the bytes.

use mcs_sim::online::{
    ArrivalTimeline, GreedyBaseline, OnlineMechanism, PricingPath, StageThreshold, TimelineConfig,
};
use mcs_sim::Setting;
use mcs_types::Fnv1a;

/// The mechanisms pinned, each under one hindsight pricing path.
fn mechanisms(pricing: PricingPath) -> Vec<Box<dyn OnlineMechanism>> {
    let stage = StageThreshold::new().pricing(pricing);
    vec![
        Box::new(GreedyBaseline::new().pricing(pricing)),
        Box::new(stage),
        Box::new(stage.epsilon(0.5)),
        Box::new(stage.epsilon(5.0).sample_fraction(0.1)),
        Box::new(stage.sample_fraction(0.6)),
        Box::new(stage.epsilon(2.0).sample_fraction(0.6)),
        Box::new(stage.lookahead(true)),
    ]
}

#[test]
fn online_reports_match_their_pinned_digest() {
    let settings = [
        Setting::one(80).scaled_down(4),
        Setting::two(40).scaled_down(4),
    ];
    let mut digest = Fnv1a::new();
    let mut reports = 0usize;
    let mut bytes = 0usize;
    for setting in &settings {
        for seed in 0..20u64 {
            let instance = setting.generate(seed).instance;
            let timelines = [
                ArrivalTimeline::generate(&instance, &TimelineConfig::default(), seed),
                ArrivalTimeline::degenerate(&instance),
            ];
            for timeline in &timelines {
                for pricing in [PricingPath::Incremental, PricingPath::FromScratch] {
                    for mechanism in mechanisms(pricing) {
                        let line = match mechanism.run(&instance, timeline, seed) {
                            Ok(report) => {
                                serde_json::to_string(&report).expect("reports serialize")
                            }
                            Err(e) => format!("error: {e:?}"),
                        };
                        reports += 1;
                        bytes += line.len();
                        digest.write_usize(line.len());
                        digest.write(line.as_bytes());
                    }
                }
            }
        }
    }
    assert_eq!(reports, 1120);
    assert_eq!((bytes, digest.finish()), (4_221_021, 0x4514_8036_c877_94b0));
}
