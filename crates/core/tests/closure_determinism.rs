//! The assertion engine is a pure function of the fact sequence it is fed.
//!
//! Derivation provenance (which input facts a pinned pair rests on) and
//! the conflict report built from it depend on the order propagation
//! visits neighbouring pairs. That order must come from the input alone —
//! never from per-instance hash seeds — or two servers replaying the same
//! frames, or one session before and after a journal-only replay, answer
//! the same `assert` with different conflict messages.

use sit_core::assertion::Assertion;
use sit_core::closure::{AssertionEngine, DerivedFact};
use sit_prng::{prop, prop_assert_eq, Xoshiro256pp};

const NODES: u32 = 8;
const ASSERTIONS: usize = 10;

fn name(n: u32) -> String {
    format!("n{n}")
}

/// Draw one assertion script: `ASSERTIONS` random (pair, assertion) steps
/// over `NODES` nodes.
fn script(rng: &mut Xoshiro256pp) -> Vec<(u32, u32, Assertion)> {
    (0..ASSERTIONS)
        .map(|_| {
            let a = rng.gen_range(0..NODES);
            let b = (a + rng.gen_range(1..NODES)) % NODES;
            let assertion = Assertion::MENU[rng.gen_range(0..Assertion::MENU.len())];
            (a, b, assertion)
        })
        .collect()
}

/// `pairs` with each one's provenance, as text.
fn with_support(engine: &AssertionEngine<u32>, pairs: &[DerivedFact<u32>]) -> String {
    let rows: Vec<_> = pairs
        .iter()
        .map(|d| (d, engine.support(d.a, d.b)))
        .collect();
    format!("{rows:?}")
}

/// Replay a script into a fresh engine; returns every step's outcome
/// (derived facts with their provenance, or the conflict report, rendered
/// in full) and the final pinned pairs with their provenance.
fn replay(steps: &[(u32, u32, Assertion)]) -> (Vec<String>, String) {
    let mut engine = AssertionEngine::<u32>::new();
    let outcomes = steps
        .iter()
        .map(
            |&(a, b, assertion)| match engine.assert(a, b, assertion, name) {
                Ok(derived) => format!("ok {}", with_support(&engine, &derived)),
                Err(report) => format!("conflict {report:?}\n{report}"),
            },
        )
        .collect();
    (outcomes, with_support(&engine, &engine.pinned()))
}

#[test]
fn same_fact_sequence_gives_byte_identical_provenance() {
    prop::check_cases("closure_provenance_is_deterministic", 2000, |rng| {
        let steps = script(rng);
        let (first_outcomes, first_pinned) = replay(&steps);
        let (second_outcomes, second_pinned) = replay(&steps);
        for (i, (x, y)) in first_outcomes.iter().zip(&second_outcomes).enumerate() {
            prop_assert_eq!(x, y, "step {i} of {steps:?}");
        }
        prop_assert_eq!(first_pinned, second_pinned, "pinned() after {steps:?}");
        Ok(())
    });
}
