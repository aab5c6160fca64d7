//! Campaign-lifecycle differential: the refactored engine against the
//! legacy loop, across both mechanisms and both skill sources.
//!
//! Each (mechanism, skill-source) pair runs the full legacy oracle and
//! the lifecycle engine from the same seed and demands identical reports
//! and an identical RNG stream position afterwards.

use rand::Rng;

use mcs_auction::{BaselineAuction, DpHsrcAuction};
use mcs_num::rng;
use mcs_sim::campaign::{
    run_campaign, AdversaryGroup, AdversaryPlan, AdversaryStrategy, CampaignSpec, SkillSource,
};
use mcs_verify::campaign::{check_adversarial, check_equivalence, truthful_types};
use mcs_verify::gen::{generate, Shape};

/// Privacy budgets cycled across seeds.
const EPSILONS: [f64; 3] = [0.1, 0.5, 2.0];

/// 112 seeds, cycling the (mechanism × skill-source) matrix: each of the
/// four combinations is hit by 28 different seeds, across all three
/// privacy budgets.
#[test]
fn benign_campaigns_match_legacy_across_mechanisms() {
    for seed in 0..112u64 {
        let use_baseline = seed % 2 == 1;
        let reestimate = (seed / 2) % 2 == 1;
        let epsilon = EPSILONS[seed as usize % EPSILONS.len()];
        let instance = generate(Shape::AdversarialCampaign, seed);
        let result = if use_baseline {
            let mechanism = BaselineAuction::new(epsilon).expect("valid ε");
            check_equivalence(&mechanism, reestimate, &instance, seed)
        } else {
            let mechanism = DpHsrcAuction::new(epsilon).expect("valid ε");
            check_equivalence(&mechanism, reestimate, &instance, seed)
        };
        result.unwrap_or_else(|m| {
            panic!(
                "seed {seed} ({}, {} skills, ε = {epsilon}): {m}",
                if use_baseline { "baseline" } else { "dp-hsrc" },
                if reestimate { "re-estimated" } else { "known" },
            )
        });
    }
}

/// The audited adversarial campaign holds its ε-DP price-channel
/// guarantee under both mechanisms.
#[test]
fn adversarial_audit_passes_under_both_mechanisms() {
    for seed in 0..8u64 {
        let instance = generate(Shape::AdversarialCampaign, seed);
        let epsilon = EPSILONS[seed as usize % EPSILONS.len()];
        let dp = DpHsrcAuction::new(epsilon).expect("valid ε");
        check_adversarial(&dp, &instance, seed)
            .unwrap_or_else(|m| panic!("seed {seed} dp-hsrc: {m}"));
        let baseline = BaselineAuction::new(epsilon).expect("valid ε");
        check_adversarial(&baseline, &instance, seed)
            .unwrap_or_else(|m| panic!("seed {seed} baseline: {m}"));
    }
}

/// Sleeper rings are benign until their turn round: a campaign whose
/// sleeper never wakes (honest_rounds ≥ rounds) is byte-identical to a
/// campaign with no adversaries at all, and both leave the main RNG in
/// the same position — the adversary machinery draws only from its own
/// derived streams while dormant.
#[test]
fn dormant_sleepers_are_byte_invisible() {
    for seed in 0..10u64 {
        let instance = generate(Shape::AdversarialCampaign, seed);
        let types = truthful_types(&instance);
        let mechanism = DpHsrcAuction::new(0.5).expect("valid ε");
        let benign = CampaignSpec::benign(3);
        let dormant = CampaignSpec {
            adversaries: AdversaryPlan {
                groups: vec![AdversaryGroup {
                    members: vec![mcs_types::WorkerId(0), mcs_types::WorkerId(1)],
                    strategy: AdversaryStrategy::Sleeper { honest_rounds: 3 },
                }],
                seed,
            },
            ..CampaignSpec::benign(3)
        };
        let mut r_benign = rng::derived(seed, 0x52);
        let mut r_dormant = rng::derived(seed, 0x52);
        let a = run_campaign(&benign, &mechanism, &instance, &types, &mut r_benign)
            .expect("benign campaign runs");
        let b = run_campaign(&dormant, &mechanism, &instance, &types, &mut r_dormant)
            .expect("dormant campaign runs");
        assert_eq!(a, b, "seed {seed}");
        assert_eq!(
            r_benign.gen::<u64>(),
            r_dormant.gen::<u64>(),
            "seed {seed}: RNG streams diverged"
        );
    }
}

/// Re-estimated skills genuinely change the campaign (the differential
/// would be vacuous if `SkillSource::RefitEachRound` collapsed onto
/// `Known`): across a pool of seeds, at least one campaign must differ
/// between the two sources.
#[test]
fn skill_sources_are_not_vacuously_identical() {
    let mechanism = DpHsrcAuction::new(0.5).expect("valid ε");
    let mut any_differ = false;
    for seed in 0..10u64 {
        let instance = generate(Shape::AdversarialCampaign, seed);
        let types = truthful_types(&instance);
        let known = CampaignSpec::benign(3);
        let refit = CampaignSpec {
            skills: SkillSource::RefitEachRound,
            ..CampaignSpec::benign(3)
        };
        let mut r1 = rng::derived(seed, 0x53);
        let mut r2 = rng::derived(seed, 0x53);
        let a = run_campaign(&known, &mechanism, &instance, &types, &mut r1).expect("runs");
        let b = run_campaign(&refit, &mechanism, &instance, &types, &mut r2).expect("runs");
        if a.rounds != b.rounds || a.final_skill_error != b.final_skill_error {
            any_differ = true;
            break;
        }
    }
    assert!(
        any_differ,
        "re-estimated campaigns never diverged from known-skill campaigns"
    );
}
