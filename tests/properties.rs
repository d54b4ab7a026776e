//! Property-based tests on the core invariants, spanning crates.
//!
//! * the RCC5 assertion algebra is sound and tight against concrete sets;
//! * the closure engine never rejects a *satisfiable* assertion set and
//!   never derives a relation the witness violates;
//! * the ECR DDL round-trips arbitrary generated schemas;
//! * integration maps every component object and produces a valid schema.
//!
//! Cases are drawn by the seeded in-tree runner (`sit_prng::prop`):
//! deterministic across runs, with reproducing seeds on failure.

use sit::core::assertion::{Assertion, Rel5, Rel5Set};
use sit::core::catalog::{GAttr, GObj, GRel};
use sit::core::closure::AssertionEngine;
use sit::core::session::Session;
use sit::core::{ClassNo, Element};
use sit::ecr::{ddl, AttrId, Cardinality, Domain, SchemaBuilder, SchemaId};
use sit_prng::{prop, prop_assert, prop_assert_eq, Xoshiro256pp};

// ---------------------------------------------------------------------
// RCC5 algebra vs concrete sets
// ---------------------------------------------------------------------

/// Relation between two non-empty bitmask sets.
fn relate(a: u32, b: u32) -> Rel5 {
    if a == b {
        Rel5::Eq
    } else if a & b == 0 {
        Rel5::Dr
    } else if a & b == a {
        Rel5::Pp
    } else if a & b == b {
        Rel5::Ppi
    } else {
        Rel5::Po
    }
}

fn nonempty_set(rng: &mut Xoshiro256pp) -> u32 {
    rng.gen_range(1u32..(1 << 10))
}

/// Soundness of composition: the actual relation between a and c is
/// always among the composed possibilities.
#[test]
fn composition_is_sound() {
    prop::check_cases("composition_is_sound", 256, |rng| {
        let (a, b, c) = (nonempty_set(rng), nonempty_set(rng), nonempty_set(rng));
        let r = Rel5Set::only(relate(a, b));
        let s = Rel5Set::only(relate(b, c));
        let t = relate(a, c);
        prop_assert!(r.compose(s).contains(t));
        Ok(())
    });
}

/// Converse round-trips and distributes over composition.
#[test]
fn converse_identities() {
    prop::check_cases("converse_identities", 256, |rng| {
        let x = Rel5Set::from_bits(rng.gen_range(0u8..32));
        let y = Rel5Set::from_bits(rng.gen_range(0u8..32));
        prop_assert_eq!(x.converse().converse(), x);
        prop_assert_eq!(x.compose(y).converse(), y.converse().compose(x.converse()));
        Ok(())
    });
}

/// The closure engine accepts any assertion set that has a concrete
/// witness, and every singleton it derives matches the witness.
#[test]
fn closure_sound_on_witnessed_worlds() {
    prop::check_cases("closure_sound_on_witnessed_worlds", 256, |rng| {
        let n = rng.gen_range(3usize..8);
        let sets: Vec<u32> = (0..n).map(|_| nonempty_set(rng)).collect();
        let pair_count = rng.gen_range(1usize..12);
        let mut engine: AssertionEngine<u32> = AssertionEngine::new();
        for _ in 0..pair_count {
            let (i, j) = (rng.gen_range(0usize..8) % n, rng.gen_range(0usize..8) % n);
            if i == j {
                continue;
            }
            let rel = relate(sets[i], sets[j]);
            let assertion = match rel {
                Rel5::Eq => Assertion::Equal,
                Rel5::Pp => Assertion::ContainedIn,
                Rel5::Ppi => Assertion::Contains,
                Rel5::Po => Assertion::MayBe,
                Rel5::Dr => Assertion::DisjointNonIntegrable,
            };
            let outcome = engine.assert(i as u32, j as u32, assertion, |x| format!("n{x}"));
            prop_assert!(
                outcome.is_ok(),
                "witnessed assertion rejected: {:?}",
                outcome
            );
        }
        // Every pinned relation agrees with the witness.
        for d in engine.pinned() {
            let actual = relate(sets[d.a as usize], sets[d.b as usize]);
            prop_assert_eq!(d.rel, actual, "derived {} for ({},{})", d.rel, d.a, d.b);
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// DDL round-trip on generated schemas
// ---------------------------------------------------------------------

/// An identifier matching `[a-z][a-z0-9_]{0,8}`.
fn ident(rng: &mut Xoshiro256pp) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let mut s = String::new();
    s.push(FIRST[rng.gen_range(0..FIRST.len())] as char);
    for _ in 0..rng.gen_range(0usize..9) {
        s.push(REST[rng.gen_range(0..REST.len())] as char);
    }
    s
}

fn arb_domain(rng: &mut Xoshiro256pp) -> Domain {
    match rng.gen_range(0u32..7) {
        0 => Domain::Char,
        1 => Domain::Int,
        2 => Domain::Real,
        3 => Domain::Bool,
        4 => Domain::Date,
        5 => {
            let n = rng.gen_range(1usize..4);
            Domain::Enum(
                (0..n)
                    .map(|_| {
                        (0..rng.gen_range(1usize..7))
                            .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
                            .collect()
                    })
                    .collect(),
            )
        }
        _ => loop {
            let name = ident(rng);
            let reserved = matches!(
                name.as_str(),
                "char"
                    | "string"
                    | "int"
                    | "integer"
                    | "real"
                    | "float"
                    | "bool"
                    | "boolean"
                    | "date"
                    | "enum"
            );
            if !reserved {
                break Domain::Named(name);
            }
        },
    }
}

type AttrSpec = (String, Domain, bool);

#[derive(Clone, Debug)]
struct ArbSchema {
    entities: Vec<Vec<AttrSpec>>,
    categories: Vec<(usize, Vec<AttrSpec>)>,
    rels: Vec<(usize, usize, u32, Option<u32>)>,
}

fn arb_attrs(rng: &mut Xoshiro256pp) -> Vec<AttrSpec> {
    (0..rng.gen_range(0usize..5))
        .map(|_| (ident(rng), arb_domain(rng), rng.gen_bool(0.5)))
        .collect()
}

fn arb_schema(rng: &mut Xoshiro256pp) -> ArbSchema {
    let entities = (0..rng.gen_range(1usize..5))
        .map(|_| arb_attrs(rng))
        .collect();
    let categories = (0..rng.gen_range(0usize..3))
        .map(|_| (rng.gen_range(0usize..4), arb_attrs(rng)))
        .collect();
    let rels = (0..rng.gen_range(0usize..4))
        .map(|_| {
            (
                rng.gen_range(0usize..4),
                rng.gen_range(0usize..4),
                rng.gen_range(0u32..3),
                if rng.gen_bool(0.5) {
                    Some(rng.gen_range(1u32..5))
                } else {
                    None
                },
            )
        })
        .collect();
    ArbSchema {
        entities,
        categories,
        rels,
    }
}

fn build(spec: &ArbSchema) -> Option<sit::ecr::Schema> {
    let mut b = SchemaBuilder::new("prop");
    let n = spec.entities.len();
    for (i, attrs) in spec.entities.iter().enumerate() {
        let mut ob = b.entity_set(format!("E{i}"));
        let mut seen = Vec::new();
        for (name, domain, key) in attrs {
            if seen.contains(name) {
                continue;
            }
            seen.push(name.clone());
            ob = if *key {
                ob.attr_key(name.clone(), domain.clone())
            } else {
                ob.attr(name.clone(), domain.clone())
            };
        }
        ob.finish();
    }
    for (ci, (parent, attrs)) in spec.categories.iter().enumerate() {
        let parent = format!("E{}", parent % n);
        let mut ob = b.category_of(format!("C{ci}"), &[&parent]).ok()?;
        let mut seen = Vec::new();
        for (name, domain, key) in attrs {
            if seen.contains(name) {
                continue;
            }
            seen.push(name.clone());
            ob = if *key {
                ob.attr_key(name.clone(), domain.clone())
            } else {
                ob.attr(name.clone(), domain.clone())
            };
        }
        ob.finish();
    }
    for (ri, (x, y, min, max)) in spec.rels.iter().enumerate() {
        let ox = b.object_by_name(&format!("E{}", x % n)).expect("exists");
        let oy = b.object_by_name(&format!("E{}", y % n)).expect("exists");
        let max = max.map(|m| m.max(*min).max(1));
        b.relationship(format!("R{ri}"))
            .participant(ox, Cardinality::new(*min, max))
            .participant(oy, Cardinality::MANY)
            .finish();
    }
    b.build().ok()
}

/// `parse(print(s)) == s` for arbitrary valid schemas. Shadowed
/// category attributes with incompatible domains are rejected at build
/// time, which `build` surfaces as `None` (skipped case).
#[test]
fn ddl_roundtrip() {
    prop::check_cases("ddl_roundtrip", 64, |rng| {
        let spec = arb_schema(rng);
        if let Some(schema) = build(&spec) {
            let text = ddl::print(&schema);
            let back = ddl::parse(&text);
            prop_assert!(back.is_ok(), "re-parse failed: {back:?}\n{text}");
            prop_assert_eq!(back.unwrap(), schema);
        }
        Ok(())
    });
}

/// Generated workloads always integrate into valid schemas with a
/// complete object map.
#[test]
fn integration_invariants() {
    prop::check_cases("integration_invariants", 64, |rng| {
        let pair = sit::datagen::GeneratorConfig {
            seed: rng.gen_range(0u64..500),
            objects_per_schema: rng.gen_range(3usize..10),
            overlap: rng.gen_f64(),
            ..Default::default()
        }
        .generate_pair();
        let mut oracle = sit::datagen::GroundTruthOracle::new(&pair.truth);
        let driven = sit_bench_drive(&pair, &mut oracle);
        let (sa, sb) = driven.1;
        let session = driven.0;
        let result = session.integrate(sa, sb, &Default::default());
        prop_assert!(result.is_ok(), "{result:?}");
        let result = result.unwrap();
        // Every component object maps to some integrated object.
        for g in session
            .catalog()
            .objects_of(sa)
            .chain(session.catalog().objects_of(sb))
        {
            prop_assert!(result.node_of(g).is_some(), "unmapped {g:?}");
        }
        // Provenance rows align with the schema's attributes.
        for (oid, obj) in result.schema.objects() {
            prop_assert_eq!(
                result.object_attr_prov[oid.index()].len(),
                obj.attributes.len()
            );
        }
        // The integrated schema passes ECR validation.
        prop_assert!(sit::ecr::validate(&result.schema).is_empty());
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Phase-2 math at scale: OCS against a per-pair reference, ranking totality
// ---------------------------------------------------------------------

/// Reference OCS entry, by brute force over one pair of elements: the
/// number of distinct equivalence classes holding an attribute of `a`
/// that is equivalent to some attribute of `b`.
fn ocs_reference<E: Element>(session: &Session, a: E, b: E) -> usize {
    let (catalog, equiv) = (session.catalog(), session.equivalences());
    let attrs = |e: E| {
        let n = catalog.schema(e.schema()).owner_attrs(e.owner()).len() as u32;
        (0..n).map(move |i| GAttr::new(e.schema(), e.owner(), AttrId::new(i)))
    };
    let mut classes: Vec<ClassNo> = attrs(a)
        .filter(|&x| attrs(b).any(|y| equiv.equivalent(x, y)))
        .filter_map(|x| equiv.class_no(x))
        .collect();
    classes.sort_unstable();
    classes.dedup();
    classes.len()
}

/// Number of `sa` × `sb` pairs of kind `E` with a non-zero reference
/// entry.
fn reference_nonzero<E: Element>(session: &Session, sa: SchemaId, sb: SchemaId) -> usize {
    let catalog = session.catalog();
    E::members(catalog, sa)
        .flat_map(|a| E::members(catalog, sb).map(move |b| (a, b)))
        .filter(|&(a, b)| ocs_reference(session, a, b) > 0)
        .count()
}

/// `candidates::<E>(sa, sb)` against [`ocs_reference`]: one row per pair
/// with a non-zero entry (`nonzero` of them) carrying that entry,
/// deterministic across calls, and strictly totally ordered by ratio
/// descending, then by the dotted names.
fn check_ranking<E: Element>(
    session: &Session,
    sa: SchemaId,
    sb: SchemaId,
    nonzero: usize,
) -> prop::CaseResult {
    let catalog = session.catalog();
    let ranked = session.candidates::<E>(sa, sb);
    prop_assert_eq!(
        ranked.len(),
        nonzero,
        "ranking row count != non-zero OCS cells"
    );
    prop_assert_eq!(
        &session.candidates::<E>(sa, sb),
        &ranked,
        "ranking is not deterministic"
    );
    for w in ranked.windows(2) {
        let (p, q) = (&w[0], &w[1]);
        let name_p = (catalog.display(p.left), catalog.display(p.right));
        let name_q = (catalog.display(q.left), catalog.display(q.right));
        let strictly_before = p.ratio > q.ratio || (p.ratio == q.ratio && name_p < name_q);
        prop_assert!(
            strictly_before,
            "ranking not a strict total order: ({:?} {}) then ({:?} {})",
            name_p,
            p.ratio,
            name_q,
            q.ratio
        );
    }
    for row in &ranked {
        prop_assert!(row.equivalent >= 1, "ranked pair with zero OCS");
        prop_assert_eq!(
            row.equivalent,
            ocs_reference(session, row.left, row.right),
            "ranked count disagrees with OCS at {:?}",
            (row.left, row.right)
        );
        prop_assert!(row.ratio > 0.0 && row.ratio.is_finite());
    }
    Ok(())
}

/// Across many generated workloads, the OCS matrix agrees exactly with
/// the per-pair reference count (including which entries are zero), and
/// the ranked candidate list holds exactly the non-zero entries in a
/// total, deterministic order: ratio descending, then dotted names.
#[test]
fn sparse_ocs_matches_dense_and_ranking_is_total() {
    use sit::core::resemblance::ocs_matrix;
    prop::check_cases("sparse_ocs_vs_dense", 64, |rng| {
        let pair = sit::datagen::GeneratorConfig {
            seed: rng.gen_range(0u64..10_000),
            objects_per_schema: rng.gen_range(3usize..12),
            overlap: rng.gen_f64(),
            ..Default::default()
        }
        .generate_pair();
        let mut oracle = sit::datagen::GroundTruthOracle::new(&pair.truth);
        let (session, (sa, sb)) = sit_bench_drive(&pair, &mut oracle);
        let catalog = session.catalog();

        // The matrix matches the reference cell for cell.
        let dense = ocs_matrix(catalog, session.equivalences(), sa, sb);
        prop_assert_eq!(dense.len(), catalog.schema(sa).object_count());
        let mut nonzero = 0usize;
        for (i, a) in catalog.objects_of(sa).enumerate() {
            prop_assert_eq!(dense[i].len(), catalog.schema(sb).object_count());
            for (j, b) in catalog.objects_of(sb).enumerate() {
                let want = ocs_reference(&session, a, b);
                prop_assert_eq!(dense[i][j], want, "matrix disagrees at ({i},{j})");
                nonzero += usize::from(want > 0);
            }
        }
        check_ranking::<GObj>(&session, sa, sb, nonzero)
    });
}

/// Relationship sets are ranked by the same derivation. `sit-datagen`
/// relationship sets carry no attributes, so these cases draw three
/// schemas whose relationship sets do, and declare random cross-schema
/// equivalences over all their attributes: classes then mix object and
/// relationship attributes, hold several attributes of one element, and
/// reach into the third schema.
#[test]
fn relationship_ranking_matches_reference() {
    let mut ranked_cases = 0;
    prop::check_cases("rel_ocs_vs_reference", 64, |rng| {
        let mut session = Session::new();
        let mut ids = Vec::new();
        for s in 0..3 {
            let mut src =
                format!("schema s{s} {{ entity E {{ k: char key; }} entity F {{ k: char key; }}");
            for r in 0..rng.gen_range(1usize..5) {
                src += &format!(" relationship R{r} {{ E (0,n); F (0,n);");
                for a in 0..rng.gen_range(1usize..4) {
                    src += &format!(" a{a}: char;");
                }
                src += " }";
            }
            src += " }";
            ids.push(session.add_schema(ddl::parse(&src).unwrap()).unwrap());
        }
        let attrs: Vec<Vec<GAttr>> = ids.iter().map(|&s| session.catalog().attrs_of(s)).collect();
        for _ in 0..rng.gen_range(4usize..20) {
            let (x, y) = (rng.gen_range(0usize..3), rng.gen_range(0usize..3));
            if x == y {
                continue;
            }
            let (Some(&ga), Some(&gb)) = (rng.choose(&attrs[x]), rng.choose(&attrs[y])) else {
                continue;
            };
            session.declare_equivalent(ga, gb).unwrap();
        }
        let (sa, sb) = (ids[0], ids[1]);
        let nonzero = reference_nonzero::<GRel>(&session, sa, sb);
        ranked_cases += usize::from(nonzero > 0);
        check_ranking::<GRel>(&session, sa, sb, nonzero)?;
        check_ranking::<GObj>(
            &session,
            sa,
            sb,
            reference_nonzero::<GObj>(&session, sa, sb),
        )?;
        prop_assert!(
            session.candidates::<GRel>(sa, sa).is_empty(),
            "same-schema pairs ranked"
        );
        Ok(())
    });
    // Most cases must rank something, or the check above is vacuous.
    assert!(
        ranked_cases >= 48,
        "only {ranked_cases} of 64 cases ranked a pair"
    );
}

/// Minimal phase 2+3 drive used by the property test (mirrors
/// `sit_bench::drive_session` without depending on the bench crate).
fn sit_bench_drive(
    pair: &sit::datagen::GeneratedPair,
    oracle: &mut sit::datagen::GroundTruthOracle<'_>,
) -> (Session, (sit::ecr::SchemaId, sit::ecr::SchemaId)) {
    use sit::datagen::DdaOracle;
    let mut session = Session::new();
    let sa = session.add_schema(pair.a.clone()).unwrap();
    let sb = session.add_schema(pair.b.clone()).unwrap();
    // Phase 2.
    let attrs_a = session.catalog().attrs_of(sa);
    let attrs_b = session.catalog().attrs_of(sb);
    for &ga in &attrs_a {
        for &gb in &attrs_b {
            let (Ok(da), Ok(db)) = (session.catalog().attr(ga), session.catalog().attr(gb)) else {
                continue;
            };
            if !da.domain.compatible(&db.domain) {
                continue;
            }
            let oa = owner(&session, ga);
            let ob = owner(&session, gb);
            let na = da.name.clone();
            let nb = db.name.clone();
            if oracle.attrs_equivalent(&oa, &na, &ob, &nb) {
                let _ = session.declare_equivalent(ga, gb);
            }
        }
    }
    // Phase 3 over the ranked candidates.
    for pair_cand in session.candidates::<GObj>(sa, sb) {
        let na = session
            .catalog()
            .schema(sa)
            .object(pair_cand.left.object)
            .name
            .clone();
        let nb = session
            .catalog()
            .schema(sb)
            .object(pair_cand.right.object)
            .name
            .clone();
        if let Some(assertion) = oracle.object_assertion(&na, &nb) {
            let _ = session.assert_objects(pair_cand.left, pair_cand.right, assertion);
        }
    }
    (session, (sa, sb))
}

fn owner(session: &Session, g: sit::core::catalog::GAttr) -> String {
    session
        .catalog()
        .schema(g.schema)
        .owner_name(g.owner)
        .unwrap_or("?")
        .to_owned()
}
