//! B3 — cost of assertion propagation and conflict detection
//! (the closure engine behind Screens 8/9).
//!
//! Three scales: containment chains and equality stars of 25–100 nodes;
//! a paper-scale session — two 6-object schemas seeded the way
//! `Session::add_schema` seeds them, three cross-schema assertions, and
//! the retraction of one of them; and schemas of 100–400 root entity
//! sets, seeded in one pass and, as an ablation, fact by fact (one
//! propagation per disjointness fact, as registration did before), with
//! the retraction of an assertion between two of them; and one category
//! chain 250–1,000 deep, seeded, then contradicted on its deepest pair,
//! whose conflict report cites every edge.

use sit_bench::harness::Bench;
use sit_core::assertion::{Assertion, Rel5, Rel5Set};
use sit_core::closure::{naive_path_consistency, AssertionEngine};

fn name(x: u32) -> String {
    format!("n{x}")
}

fn chain(n: u32) -> AssertionEngine<u32> {
    let mut e = AssertionEngine::new();
    for i in 0..n {
        e.assert(i, i + 1, Assertion::ContainedIn, name).unwrap();
    }
    e
}

/// One schema's structure: its `(child, parent)` category edges and its
/// root entity sets.
type Structure = (Vec<(u32, u32)>, Vec<u32>);

/// One schema's structure over nodes `base..`: `roots` root entity sets,
/// then `categories` categories in a chain under the first root.
fn schema(base: u32, roots: u32, categories: u32) -> Structure {
    let edges = (0..categories)
        .map(|c| {
            let parent = if c == 0 { base } else { base + roots + c - 1 };
            (base + roots + c, parent)
        })
        .collect();
    (edges, (base..base + roots).collect())
}

/// Seed schemas as `Session::add_schema` does, in one pass each.
fn seed(schemas: &[Structure]) -> AssertionEngine<u32> {
    let mut e = AssertionEngine::new();
    for (edges, roots) in schemas {
        e.seed_structure(edges, roots);
    }
    e
}

/// The same facts seeded one by one, each propagated on its own.
fn seed_per_fact(schemas: &[Structure]) -> AssertionEngine<u32> {
    let mut e = AssertionEngine::new();
    for (edges, roots) in schemas {
        for &(child, parent) in edges {
            e.seed(child, parent, Rel5::Pp, name).unwrap();
        }
        for (i, &a) in roots.iter().enumerate() {
            for &b in &roots[i + 1..] {
                e.seed(a, b, Rel5::Dr, name).unwrap();
            }
        }
    }
    e
}

/// Objects per paper-scale schema.
const SCHEMA_OBJECTS: u32 = 6;

/// Two paper-scale schemas (nodes `0..6` and `6..12`): in each, object 5
/// is a category of object 0 and the five root entity sets are pairwise
/// disjoint.
fn paper_schemas() -> Vec<Structure> {
    [0, SCHEMA_OBJECTS]
        .into_iter()
        .map(|base| schema(base, SCHEMA_OBJECTS - 1, 1))
        .collect()
}

/// The three cross-schema assertions of the paper-scale case.
const CROSS_ASSERTS: [(u32, u32, Assertion); 3] = [
    (0, SCHEMA_OBJECTS, Assertion::Equal),
    (1, SCHEMA_OBJECTS + 1, Assertion::ContainedIn),
    (2, SCHEMA_OBJECTS + 2, Assertion::MayBe),
];

fn cross_assert(e: &mut AssertionEngine<u32>) {
    for (a, b, assertion) in CROSS_ASSERTS {
        e.assert(a, b, assertion, name).unwrap();
    }
}

fn main() {
    let mut bench = Bench::new("closure").with_counts(2, 20);
    let paper = paper_schemas();
    let seeded = seed(&paper);
    bench.run("paper_scale/seed_two_schemas", || seed(&paper));
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
    // Many root entity sets: n²/2 disjointness facts per schema.
    for roots in [100u32, 200, 400] {
        let one = [schema(0, roots, 2)];
        let two = [schema(0, roots, 2), schema(roots + 2, roots, 2)];
        bench.run(format!("many_roots/seed/{roots}"), || seed(&one));
        bench.run(format!("many_roots/seed_two_schemas/{roots}"), || {
            seed(&two)
        });
        // E0 ≡ E0' across the two schemas, then retracted: the rebuild
        // replays both schemas' seeds.
        let asserted = |mut e: AssertionEngine<u32>| {
            e.assert(0, roots + 2, Assertion::Equal, name).unwrap();
            move || e.clone()
        };
        let undo = |mut e: AssertionEngine<u32>| {
            assert!(e.retract(0, roots + 2));
            e
        };
        bench.run_with_setup(
            format!("many_roots/retract/{roots}"),
            asserted(seed(&two)),
            undo,
        );
        // Ablation: the same facts propagated one by one, and a retract
        // that replays them so. Cubic in the roots: at 400 a sample takes
        // a third of a second, so those are left out.
        if roots <= 200 {
            bench.run(format!("many_roots/seed_per_fact/{roots}"), || {
                seed_per_fact(&one)
            });
            bench.run(
                format!("many_roots/seed_two_schemas_per_fact/{roots}"),
                || seed_per_fact(&two),
            );
            bench.run_with_setup(
                format!("many_roots/retract_per_fact_seeds/{roots}"),
                asserted(seed_per_fact(&two)),
                undo,
            );
        }
    }
    // A chain of n categories under one root: each is PP every ancestor,
    // n²/2 pinned pairs, and the leaf's pair with the root rests on all n
    // edges.
    for n in [250u32, 500, 1000] {
        let deep = [schema(0, 1, n)];
        bench.run(format!("deep_chain/seed/{n}"), || seed(&deep));
        let mut e = seed(&deep);
        bench.run(format!("deep_chain/conflict/{n}"), || {
            e.assert(n, 0, Assertion::DisjointNonIntegrable, name)
                .unwrap_err()
        });
    }
    for n in [25u32, 50, 100] {
        bench.run(format!("containment_chain/{n}"), || chain(n));
        let e = chain(n);
        bench.run_with_setup(
            format!("conflict_check/{n}"),
            || e.clone(),
            |mut e| {
                let _ = e.assert(n, 0, Assertion::ContainedIn, name);
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
                e.assert(0, i, Assertion::Equal, name).unwrap();
            }
            e
        });
    }
    bench.finish().expect("write BENCH_closure.json");
}
