//! A multi-round sensing campaign with learned skills.
//!
//! Round 1 runs with the platform's prior skill record; after every round
//! the platform refits worker accuracies by EM from all labels collected
//! so far and runs the next auction on the *estimated* skills — the full
//! lifecycle the paper's §III-A sketches but does not simulate.
//!
//! ```text
//! cargo run --release --example campaign
//! ```

use dp_mcs::sim::campaign::{run_campaign, CampaignSpec, SkillSource};
use dp_mcs::{DpHsrcAuction, Setting};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Per-worker skills (θ_i uniform across tasks, drawn from
    // [0.55, 0.95]) so that learning a scalar accuracy per worker is a
    // well-specified problem — with the canonical Table I per-(i,j) skills
    // centred at 0.5, a scalar estimate carries almost no coverage
    // information and the learned campaign would silently fall back to
    // the prior every round.
    let mut setting = Setting::one(80).scaled_down(2);
    setting.worker_uniform_skills = true;
    setting.theta_range = (0.55, 0.95);
    let generated = setting.generate(33);

    let mechanism = DpHsrcAuction::new(0.1)?;
    for (label, skills) in [
        ("oracle θ", SkillSource::Known),
        ("learned θ", SkillSource::RefitEachRound),
    ] {
        let spec = CampaignSpec {
            skills,
            ..CampaignSpec::benign(6)
        };
        let mut r = dp_mcs::num::rng::seeded(7);
        let report = run_campaign(
            &spec,
            &mechanism,
            &generated.instance,
            &generated.types,
            &mut r,
        )?;
        println!("--- campaign with {label} ---");
        for (i, round) in report.rounds.iter().enumerate() {
            println!(
                "round {i}: price {}, {} winners, paid {}, accuracy {:.2}",
                round.outcome.price(),
                round.outcome.winners().len(),
                round.total_paid,
                round.accuracy()
            );
        }
        println!(
            "total spend {}, mean accuracy {:.3}{}{}",
            report.total_spend,
            report.mean_accuracy,
            report
                .final_skill_error
                .map(|e| format!(", final skill-estimate error {e:.3}"))
                .unwrap_or_default(),
            if report.fallback_rounds > 0 {
                format!(" ({} fallback rounds)", report.fallback_rounds)
            } else {
                String::new()
            }
        );
        println!();
    }
    Ok(())
}
