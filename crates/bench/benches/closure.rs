//! B3 — cost of assertion propagation and conflict detection
//! (the closure engine behind Screens 8/9).
//!
//! Two scales: containment chains and equality stars of 25–100 nodes, and
//! a paper-scale session — two 6-object schemas seeded the way
//! `Session::add_schema` seeds them, three cross-schema assertions, and
//! the retraction of one of them.

use sit_bench::harness::Bench;
use sit_core::assertion::{Assertion, Rel5, Rel5Set};
use sit_core::closure::{naive_path_consistency, AssertionEngine};

fn chain(n: u32) -> AssertionEngine<u32> {
    let mut e = AssertionEngine::new();
    for i in 0..n {
        e.assert(i, i + 1, Assertion::ContainedIn, |x| format!("n{x}"))
            .unwrap();
    }
    e
}

/// Objects per paper-scale schema.
const SCHEMA_OBJECTS: u32 = 6;

/// Two paper-scale schemas (nodes `0..6` and `6..12`), seeded as
/// `Session::add_schema` seeds them: in each, object 5 is a category of
/// object 0 and the five root entity sets are pairwise disjoint.
fn paper_schemas() -> AssertionEngine<u32> {
    let mut e = AssertionEngine::new();
    for base in [0, SCHEMA_OBJECTS] {
        e.seed(base + 5, base, Rel5::Pp, |x| format!("n{x}"))
            .unwrap();
        for a in 0..5 {
            for b in a + 1..5 {
                e.seed(base + a, base + b, Rel5::Dr, |x| format!("n{x}"))
                    .unwrap();
            }
        }
    }
    e
}

/// The three cross-schema assertions of the paper-scale case.
const CROSS_ASSERTS: [(u32, u32, Assertion); 3] = [
    (0, SCHEMA_OBJECTS, Assertion::Equal),
    (1, SCHEMA_OBJECTS + 1, Assertion::ContainedIn),
    (2, SCHEMA_OBJECTS + 2, Assertion::MayBe),
];

fn cross_assert(e: &mut AssertionEngine<u32>) {
    for (a, b, assertion) in CROSS_ASSERTS {
        e.assert(a, b, assertion, |x| format!("n{x}")).unwrap();
    }
}

fn main() {
    let mut bench = Bench::new("closure").with_counts(2, 20);
    let seeded = paper_schemas();
    bench.run("paper_scale/seed_two_schemas", paper_schemas);
    bench.run_with_setup(
        "paper_scale/assert_3",
        || seeded.clone(),
        |mut e| {
            cross_assert(&mut e);
            e
        },
    );
    let mut asserted = seeded.clone();
    cross_assert(&mut asserted);
    bench.run_with_setup(
        "paper_scale/retract",
        || asserted.clone(),
        |mut e| {
            assert!(e.retract(1, SCHEMA_OBJECTS + 1));
            e
        },
    );
    for n in [25u32, 50, 100] {
        bench.run(format!("containment_chain/{n}"), || chain(n));
        let e = chain(n);
        bench.run_with_setup(
            format!("conflict_check/{n}"),
            || e.clone(),
            |mut e| {
                let _ = e.assert(n, 0, Assertion::ContainedIn, |x| format!("n{x}"));
            },
        );
        // Ablation: full fixpoint recomputation over all triples vs the
        // incremental worklist.
        let facts: Vec<(u32, u32, Rel5Set)> = (0..n)
            .map(|i| (i, i + 1, Rel5Set::only(Rel5::Pp)))
            .collect();
        bench.run(format!("naive_recompute/{n}"), || {
            naive_path_consistency(&facts).unwrap()
        });
        bench.run(format!("star_equalities/{n}"), || {
            let mut e = AssertionEngine::new();
            for i in 1..=n {
                e.assert(0, i, Assertion::Equal, |x| format!("n{x}"))
                    .unwrap();
            }
            e
        });
    }
    bench.finish().expect("write BENCH_closure.json");
}
