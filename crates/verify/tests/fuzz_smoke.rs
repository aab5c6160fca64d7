//! Bounded fuzz run in `cargo test`: corpus + 500 seeded mutations.
//! The `wire_fuzz` binary runs the longer CI version.

use mcs_verify::fuzz::run_fuzz;

#[test]
fn decoder_survives_corpus_and_mutations() {
    let outcome = run_fuzz(500, 42);
    assert!(
        outcome.clean(),
        "decoder panicked or round-tripped unstably: {outcome:?}"
    );
    assert_eq!(
        outcome.executed,
        500 + 56,
        "corpus (17 seed + 8 synthesized + 31 of every wire variant) + mutations"
    );
    assert!(outcome.accepted > 0, "some inputs must decode");
    assert!(outcome.rejected > 0, "some inputs must reject");
}

#[test]
fn different_seeds_explore_different_inputs() {
    let a = run_fuzz(300, 1);
    let b = run_fuzz(300, 2);
    assert!(a.clean() && b.clean());
    // The digest covers every executed input, so equal digests would
    // mean the seed never reached the mutation stream.
    assert_ne!(
        a.inputs_digest, b.inputs_digest,
        "seeds 1 and 2 executed the same inputs: {a:?}"
    );
}
