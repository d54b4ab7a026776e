//! One-pass structural seeding against fact-by-fact seeding.
//!
//! `AssertionEngine::seed_structure` writes a schema's structural closure
//! straight into the matrix; `AssertionEngine::seed`, one propagation per
//! fact, is the reference. Over random category forests — several roots,
//! multi-parent categories, a chain three deep (20–80 deep in the forest
//! one case in sixteen contradicts), edges in any order,
//! and other schemas seeded before and after — both must leave the same
//! facts, node order, constraints and provenance, answer a conflicting
//! assertion with the same report, and rebuild alike on `retract`. The
//! last tests bound the time of seeding, asserting and retracting on two
//! schemas of hundreds of root entity sets, and of seeding a
//! `Session::MAX_OBJECTS`-deep chain and reading its deepest provenance.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use sit_core::assertion::{Assertion, Rel5, Rel5Set};
use sit_core::closure::AssertionEngine;
use sit_core::Session;
use sit_prng::{prop, prop_assert, prop_assert_eq, Xoshiro256pp};

type Engine = AssertionEngine<u32>;

fn name(n: u32) -> String {
    format!("n{n}")
}

/// One schema's structure: `(child, parent)` edges of its single-parent
/// categories and its parentless roots, over node ids drawn from `ids`.
struct Structure {
    nodes: Vec<u32>,
    edges: Vec<(u32, u32)>,
    roots: Vec<u32>,
}

/// A random category forest over the next ids of `ids`: 1–8 roots, a
/// `chain` of categories under the first, more categories over one or two
/// earlier objects (those over two seed no edge), and sometimes the edges
/// in a shuffled order.
fn forest(rng: &mut Xoshiro256pp, ids: &mut impl Iterator<Item = u32>, chain: usize) -> Structure {
    let roots = rng.gen_range(1usize..9);
    let categories = chain + rng.gen_range(0usize..9);
    // parents[o]: the objects `o` is a category of (empty for roots).
    let mut parents: Vec<Vec<usize>> = vec![Vec::new(); roots];
    for c in 0..categories {
        let o = parents.len();
        let ps = if c < chain {
            // The first categories form a chain under root 0.
            vec![if c == 0 { 0 } else { o - 1 }]
        } else if rng.gen_bool(0.25) && o >= 2 {
            let a = rng.gen_range(0..o);
            vec![a, (a + rng.gen_range(1..o)) % o]
        } else {
            vec![rng.gen_range(0..o)]
        };
        parents.push(ps);
    }
    let nodes: Vec<u32> = parents.iter().map(|_| ids.next().unwrap()).collect();
    let mut edges: Vec<(u32, u32)> = parents
        .iter()
        .enumerate()
        .filter_map(|(o, ps)| match ps[..] {
            [p] => Some((nodes[o], nodes[p])),
            _ => None,
        })
        .collect();
    if rng.gen_bool(0.5) {
        rng.shuffle(&mut edges);
    }
    let roots = nodes[..roots].to_vec();
    Structure {
        nodes,
        edges,
        roots,
    }
}

/// A schema's relationship sets: no edges, 0–5 pairwise-disjoint nodes.
fn rels(rng: &mut Xoshiro256pp, ids: &mut impl Iterator<Item = u32>) -> Structure {
    let roots: Vec<u32> = (0..rng.gen_range(0usize..6))
        .map(|_| ids.next().unwrap())
        .collect();
    Structure {
        nodes: roots.clone(),
        edges: Vec::new(),
        roots,
    }
}

/// Seed `s` in one pass into `bulk` and fact by fact into `reference`.
fn seed_both(bulk: &mut Engine, reference: &mut Engine, s: &Structure) -> Result<(), String> {
    bulk.seed_structure(&s.edges, &s.roots, name)
        .map_err(|r| format!("one-pass seeding conflicted: {r}"))?;
    for &(child, parent) in &s.edges {
        reference.seed(child, parent, Rel5::Pp, name).unwrap();
    }
    for (i, &a) in s.roots.iter().enumerate() {
        for &b in &s.roots[i + 1..] {
            reference.seed(a, b, Rel5::Dr, name).unwrap();
        }
    }
    Ok(())
}

/// The two engines agree on everything they expose, over `universe`.
fn same(bulk: &Engine, reference: &Engine, universe: &[u32], when: &str) -> Result<(), String> {
    prop_assert_eq!(
        bulk.nodes().collect::<Vec<_>>(),
        reference.nodes().collect::<Vec<_>>(),
        "nodes {when}"
    );
    prop_assert_eq!(
        format!("{:?}", bulk.facts()),
        format!("{:?}", reference.facts()),
        "facts {when}"
    );
    let pinned = bulk.pinned();
    prop_assert_eq!(&pinned, &reference.pinned(), "pinned {when}");
    for d in &pinned {
        prop_assert_eq!(
            bulk.support(d.a, d.b),
            reference.support(d.a, d.b),
            "support of {d:?} {when}"
        );
    }
    for &a in universe {
        for &b in universe {
            prop_assert_eq!(
                bulk.constraint(a, b),
                reference.constraint(a, b),
                "constraint ({a},{b}) {when}"
            );
            prop_assert_eq!(
                bulk.effective(a, b),
                reference.effective(a, b),
                "effective ({a},{b}) {when}"
            );
        }
    }
    Ok(())
}

/// Assert on both engines; the outcomes — derived facts, or the conflict
/// report's text — must be byte-identical.
fn assert_both(
    bulk: &mut Engine,
    reference: &mut Engine,
    (a, b, assertion): (u32, u32, Assertion),
) -> Result<bool, String> {
    let render = |outcome: Result<_, sit_core::ConflictReport>| match outcome {
        Ok(derived) => (true, format!("ok {derived:?}")),
        Err(report) => (false, format!("conflict {report:?}\n{report}")),
    };
    let got = render(bulk.assert(a, b, assertion, name));
    let want = render(reference.assert(a, b, assertion, name));
    prop_assert_eq!(&got, &want, "assert ({a},{b}) {assertion:?}");
    Ok(got.0)
}

/// The assertion contradicting a pinned relation.
fn contradicting(rel: Rel5) -> Assertion {
    match rel {
        Rel5::Dr => Assertion::Equal,
        _ => Assertion::DisjointNonIntegrable,
    }
}

#[test]
fn one_pass_seeding_equals_seeding_fact_by_fact() {
    prop::check_cases("seed_structure_equals_per_fact_seed", 400, |rng| {
        // Node ids in a shuffled order, so neither interning order nor a
        // pair's orientation follows the ids.
        let mut pool: Vec<u32> = (0..400).collect();
        rng.shuffle(&mut pool);
        let mut ids = pool.into_iter();
        let (mut bulk, mut reference) = (Engine::new(), Engine::new());
        let deep = if rng.gen_bool(1.0 / 16.0) {
            rng.gen_range(20usize..81)
        } else {
            3
        };
        let earlier = forest(rng, &mut ids, 3);
        let earlier_rels = rels(rng, &mut ids);
        let this = forest(rng, &mut ids, deep);
        let later = forest(rng, &mut ids, 3);
        let universe: Vec<u32> = [&earlier, &earlier_rels, &this, &later]
            .iter()
            .flat_map(|s| s.nodes.iter().copied())
            .chain([ids.next().unwrap()])
            .collect();

        seed_both(&mut bulk, &mut reference, &earlier)?;
        seed_both(&mut bulk, &mut reference, &earlier_rels)?;
        seed_both(&mut bulk, &mut reference, &this)?;
        same(&bulk, &reference, &universe, "after seeding")?;

        // A conflicting assertion on a pair the seeds pinned: the report
        // cites that pair's provenance.
        let pinned = bulk.pinned();
        let seeded = pinned.iter().filter(|d| this.nodes.contains(&d.a));
        if let Some(d) = seeded.max_by_key(|d| bulk.support(d.a, d.b).len()) {
            let accepted =
                assert_both(&mut bulk, &mut reference, (d.a, d.b, contradicting(d.rel)))?;
            prop_assert!(!accepted, "{d:?} contradicted");
        }

        // Cross-schema assertions, some conflicting through propagation,
        // then a later schema seeded after them.
        let pick = |rng: &mut Xoshiro256pp, s: &Structure| s.nodes[rng.gen_range(0..s.nodes.len())];
        let mut asserted = Vec::new();
        for _ in 0..rng.gen_range(1usize..5) {
            let step = (
                pick(rng, &earlier),
                pick(rng, &this),
                Assertion::MENU[rng.gen_range(0..Assertion::MENU.len())],
            );
            if assert_both(&mut bulk, &mut reference, step)? {
                asserted.push(step);
            }
        }
        seed_both(&mut bulk, &mut reference, &later)?;
        same(&bulk, &reference, &universe, "after asserting")?;
        let step = (
            pick(rng, &later),
            pick(rng, &this),
            Assertion::MENU[rng.gen_range(0..Assertion::MENU.len())],
        );
        if assert_both(&mut bulk, &mut reference, step)? {
            asserted.push(step);
        }

        // Retract and re-assert: the rebuild replays each seeded block in
        // one pass, the reference every fact.
        if let Some(&(a, b, assertion)) = asserted.first() {
            prop_assert_eq!(bulk.retract(a, b), reference.retract(a, b));
            same(&bulk, &reference, &universe, "after retract")?;
            assert_both(&mut bulk, &mut reference, (a, b, assertion))?;
            same(&bulk, &reference, &universe, "after re-assert")?;
        }
        Ok(())
    });
}

#[test]
fn inputs_outside_the_one_pass_shape_are_seeded_fact_by_fact() {
    // A node already constrained, a child with two parents, an edge
    // cycle, a disjoint node that has a parent: each takes the per-fact
    // path and ends where per-fact seeding ends, conflicts included.
    type Edges = &'static [(u32, u32)];
    let cases: [(Edges, &[u32]); 5] = [
        (&[(1, 0)], &[0, 9]),
        (&[(1, 0), (1, 2)], &[0, 2]),
        (&[(1, 0), (0, 1)], &[]),
        (&[(1, 0)], &[1, 2]),
        (&[(3, 2)], &[4, 4]),
    ];
    for (edges, disjoint) in cases {
        let (mut bulk, mut reference) = (Engine::new(), Engine::new());
        for e in [&mut bulk, &mut reference] {
            e.seed(9, 8, Rel5::Pp, name).unwrap();
        }
        let got = bulk.seed_structure(edges, disjoint, name);
        let mut want = Ok(());
        for &(c, p) in edges {
            want = want.and_then(|()| reference.seed(c, p, Rel5::Pp, name).map(drop));
        }
        for (i, &a) in disjoint.iter().enumerate() {
            for &b in &disjoint[i + 1..] {
                want = want.and_then(|()| reference.seed(a, b, Rel5::Dr, name).map(drop));
            }
        }
        assert_eq!(
            got.map_err(|r| r.to_string()),
            want.map_err(|r| r.to_string()),
            "{edges:?} {disjoint:?}"
        );
        same(&bulk, &reference, &(0..10).collect::<Vec<_>>(), "fallback").unwrap();
    }
}

/// DDL of one schema with `roots` entity sets, a category chain under
/// the first, and two relationship sets.
fn many_root_ddl(schema: &str, roots: usize) -> String {
    let mut ddl = format!("schema {schema} {{\n");
    for i in 0..roots {
        ddl.push_str(&format!("  entity E{i} {{ K{i}: int key; A{i}: char; }}\n"));
    }
    ddl.push_str("  category C0 of E0 { }\n  category C1 of C0 { }\n");
    ddl.push_str("  relationship R0 { E0 (0,n); E1 (0,n); }\n");
    ddl.push_str("  relationship R1 { E1 (0,n); E2 (0,n); }\n}");
    ddl
}

#[test]
fn many_root_schemas_seed_assert_and_retract_in_bounded_time() {
    // Seeding used to propagate every one of a schema's n²/2 disjointness
    // facts — cubic in the root entity sets — and `retract` replayed them
    // all: about 17 s for these two schemas in a debug build on a 2-vCPU
    // x86-64 VM, against about 0.5 s for one pass per schema.
    const ROOTS: usize = 500;
    let limit = Duration::from_millis(1500);
    let schemas: Vec<_> = ["big1", "big2"]
        .iter()
        .map(|s| sit_ecr::ddl::parse(&many_root_ddl(s, ROOTS)).unwrap())
        .collect();
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let start = Instant::now();
        let mut s = Session::new();
        for schema in schemas {
            s.add_schema(schema).unwrap();
        }
        let (a, b) = (
            s.object_named("big1", "E0").unwrap(),
            s.object_named("big2", "E0").unwrap(),
        );
        let derived = s.assert_objects(a, b, Assertion::Equal).unwrap();
        let retracted = s.retract_objects(a, b);
        let _ = tx.send((start.elapsed(), derived.len(), retracted, s));
    });
    let (elapsed, derived, retracted, s) = rx.recv_timeout(limit).unwrap_or_else(|_| {
        panic!("two {ROOTS}-root schemas not seeded, asserted and retracted within {limit:?}")
    });
    worker.join().expect("worker thread");
    // E0 ≡ E0' pins, on each side: E0 DR the other side's other roots,
    // those roots DR the other side's two categories, and those
    // categories PP E0.
    assert_eq!(derived, 2 * (3 * (ROOTS - 1) + 2), "derived in {elapsed:?}");
    assert!(retracted);
    let (e1, f1) = (
        s.object_named("big1", "E1").unwrap(),
        s.object_named("big1", "C1").unwrap(),
    );
    assert_eq!(s.object_engine().known(f1, e1), Some(Rel5::Dr));
    let facts = s.object_engine().fact_count();
    assert_eq!(facts, 2 * (2 + ROOTS * (ROOTS - 1) / 2) + 1);
}

#[test]
fn a_max_objects_deep_chain_seeds_and_reports_its_deepest_provenance() {
    // A stored fact list per pinned pair would hold k ids for a node `PP`
    // its k-th ancestor, ≈ n³/6 for this chain: about 11 GB. The support
    // log holds one entry per pinned pair and builds a list only when a
    // report cites it.
    let n = Session::MAX_OBJECTS as u32;
    let limit = Duration::from_secs(10);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let start = Instant::now();
        let mut e = Engine::new();
        // Nodes 0..n: a chain of single-parent categories under root 0;
        // node n stands for another schema's object class.
        let edges: Vec<(u32, u32)> = (1..n).map(|c| (c, c - 1)).collect();
        e.seed_structure(&edges, &[0], name).unwrap();
        let derived = e.assert(n, n - 1, Assertion::Equal, name).unwrap();
        let report = e
            .assert(n, 0, Assertion::DisjointNonIntegrable, name)
            .unwrap_err();
        let _ = tx.send((start.elapsed(), derived.len(), report));
    });
    let (elapsed, derived, report) = rx.recv_timeout(limit).unwrap_or_else(|_| {
        panic!("a {n}-node chain not seeded and contradicted within {limit:?}")
    });
    // n ≡ the leaf is `PP` every other chain node.
    assert_eq!(derived, n as usize - 1, "derived in {elapsed:?}");
    assert_eq!(report.existing, Rel5Set::only(Rel5::Pp));
    // Every edge of the chain, then the user's `equals`.
    assert_eq!(report.supports.len(), n as usize, "supports in {elapsed:?}");
    let (user, seeds): (Vec<_>, Vec<_>) = report.supports.iter().partition(|s| s.from_user);
    assert_eq!(user.len(), 1);
    assert_eq!((user[0].a.as_str(), user[0].label.as_str()), ("n2048", "1"));
    assert!(seeds.iter().all(|s| s.label == "PP"));
    let mut edges: Vec<(&str, &str)> = seeds.iter().map(|s| (&s.a[..], &s.b[..])).collect();
    edges.sort_unstable();
    edges.dedup();
    assert_eq!(edges.len(), n as usize - 1, "each edge once");
}
