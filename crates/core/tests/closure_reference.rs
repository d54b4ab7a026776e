//! The incremental assertion engine against the from-scratch reference.
//!
//! Over seeded random fact sets, the engine's closure must equal
//! `naive_path_consistency` pair for pair, both must reject the same
//! contradictions, and a `retract` must leave the engine exactly where a
//! fresh engine fed only the surviving facts would be.

use sit_core::assertion::{Assertion, Rel5, Rel5Set};
use sit_core::closure::{naive_path_consistency, AssertionEngine};
use sit_prng::{prop, prop_assert, prop_assert_eq, Xoshiro256pp};

fn name(n: u32) -> String {
    format!("n{n}")
}

/// A random ordered pair of distinct nodes below `n`.
fn distinct_pair(rng: &mut Xoshiro256pp, n: u32) -> (u32, u32) {
    let a = rng.gen_range(0..n);
    (a, (a + rng.gen_range(1..n)) % n)
}

/// Every ordered pair of nodes below `n` agrees between the engine and
/// the reference constraints.
fn agree(
    engine: &AssertionEngine<u32>,
    n: u32,
    expected: impl Fn(u32, u32) -> Rel5Set,
) -> Result<(), String> {
    for a in 0..n {
        for b in 0..n {
            prop_assert_eq!(engine.constraint(a, b), expected(a, b), "pair ({a},{b})");
        }
    }
    Ok(())
}

#[test]
fn closure_equals_naive_path_consistency() {
    prop::check_cases("closure_equals_naive_path_consistency", 400, |rng| {
        let n = rng.gen_range(3u32..10);
        let mut engine = AssertionEngine::<u32>::new();
        let mut accepted: Vec<(u32, u32, Rel5Set)> = Vec::new();
        for _ in 0..rng.gen_range(1usize..16) {
            let (a, b) = distinct_pair(rng, n);
            let rel = Rel5::ALL[rng.gen_range(0..Rel5::ALL.len())];
            let fact = (a, b, Rel5Set::only(rel));
            let mut with_fact = accepted.clone();
            with_fact.push(fact);
            let naive = naive_path_consistency(&with_fact);
            match engine.seed(a, b, rel, name) {
                Ok(_) => {
                    prop_assert!(naive.is_ok(), "engine accepted {fact:?} after {accepted:?}");
                    accepted.push(fact);
                }
                Err(report) => {
                    prop_assert!(
                        naive.is_err(),
                        "engine rejected {fact:?} after {accepted:?}: {report}"
                    );
                }
            }
        }
        let naive = naive_path_consistency(&accepted).expect("accepted facts are consistent");
        agree(&engine, n, |a, b| {
            if a == b {
                Rel5Set::only(Rel5::Eq)
            } else if a < b {
                naive.get(&(a, b)).copied().unwrap_or(Rel5Set::ALL)
            } else {
                naive
                    .get(&(b, a))
                    .copied()
                    .unwrap_or(Rel5Set::ALL)
                    .converse()
            }
        })
    });
}

#[test]
fn retract_equals_a_fresh_engine_on_the_surviving_facts() {
    prop::check_cases("retract_equals_fresh_engine", 300, |rng| {
        let n = rng.gen_range(3u32..9);
        let mut engine = AssertionEngine::<u32>::new();
        for _ in 0..rng.gen_range(0usize..4) {
            let (a, b) = distinct_pair(rng, n);
            let _ = engine.seed(a, b, Rel5::ALL[rng.gen_range(0..Rel5::ALL.len())], name);
        }
        for _ in 0..rng.gen_range(1usize..14) {
            let (a, b) = distinct_pair(rng, n);
            let assertion = Assertion::MENU[rng.gen_range(0..Assertion::MENU.len())];
            let _ = engine.assert(a, b, assertion, name);
        }
        for _ in 0..rng.gen_range(1usize..5) {
            let (a, b) = distinct_pair(rng, n);
            engine.retract(a, b);
            let mut fresh = AssertionEngine::<u32>::new();
            for f in engine.facts().iter().filter(|f| f.active) {
                let outcome = match f.assertion {
                    Some(assertion) => fresh.assert(f.a, f.b, assertion, name),
                    None => fresh.seed(f.a, f.b, f.rel, name),
                };
                prop_assert!(outcome.is_ok(), "surviving fact {f:?} rejected");
            }
            agree(&engine, n, |a, b| fresh.constraint(a, b))?;
            for x in 0..n {
                for y in 0..n {
                    prop_assert_eq!(
                        engine.effective(x, y),
                        fresh.effective(x, y),
                        "effective ({x},{y})"
                    );
                }
            }
            let pinned = |e: &AssertionEngine<u32>| -> Vec<(u32, u32, Rel5)> {
                e.pinned().iter().map(|d| (d.a, d.b, d.rel)).collect()
            };
            prop_assert_eq!(pinned(&engine), pinned(&fresh));
        }
        Ok(())
    });
}
