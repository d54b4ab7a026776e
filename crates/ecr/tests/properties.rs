//! Property-based tests of the ECR substrate: the cardinality algebra and
//! the parents-first IS-A order. Driven by the seeded in-tree runner
//! (`sit_prng::prop`), so every run executes the same cases and a failure
//! reports its reproducing seed.

use sit_ecr::{
    Cardinality, Domain, EcrError, ObjectId, ObjectKind, Schema, SchemaBuilder, Violation,
};
use sit_prng::{prop, prop_assert, prop_assert_eq, Xoshiro256pp};

fn arb_card(rng: &mut Xoshiro256pp) -> Cardinality {
    let min = rng.gen_range(0u32..5);
    let max = if rng.gen_bool(0.5) {
        None
    } else {
        Some(rng.gen_range(1u32..8).max(min).max(1))
    };
    Cardinality::new(min, max)
}

/// `widen` is commutative, associative, idempotent, and its result
/// subsumes both inputs.
#[test]
fn widen_is_a_join() {
    prop::check("widen_is_a_join", |rng| {
        let (a, b, c) = (arb_card(rng), arb_card(rng), arb_card(rng));
        prop_assert!(a.is_valid() && b.is_valid());
        prop_assert_eq!(a.widen(&b), b.widen(&a));
        prop_assert_eq!(a.widen(&a), a);
        prop_assert_eq!(a.widen(&b).widen(&c), a.widen(&b.widen(&c)));
        let w = a.widen(&b);
        prop_assert!(w.is_valid());
        prop_assert!(w.subsumes(&a), "{w} subsumes {a}");
        prop_assert!(w.subsumes(&b), "{w} subsumes {b}");
        Ok(())
    });
}

/// `subsumes` is a partial order consistent with `widen`.
#[test]
fn subsumption_partial_order() {
    prop::check("subsumption_partial_order", |rng| {
        let (a, b) = (arb_card(rng), arb_card(rng));
        prop_assert!(a.subsumes(&a), "reflexive");
        if a.subsumes(&b) && b.subsumes(&a) {
            prop_assert_eq!(a, b, "antisymmetric");
        }
        if a.subsumes(&b) {
            prop_assert_eq!(a.widen(&b), a, "join with a subsumed value is identity");
        }
        Ok(())
    });
}

/// Cardinality display round-trips through the DDL.
#[test]
fn cardinality_roundtrips_through_ddl() {
    prop::check("cardinality_roundtrips_through_ddl", |rng| {
        let card = arb_card(rng);
        let mut b = SchemaBuilder::new("c");
        let x = b.entity_set("X").attr_key("id", Domain::Int).finish();
        let y = b.entity_set("Y").finish();
        b.relationship("R")
            .participant(x, card)
            .participant(y, Cardinality::MANY)
            .finish();
        let s = b.build().unwrap();
        let text = sit_ecr::ddl::print(&s);
        let back = sit_ecr::ddl::parse(&text).unwrap();
        let r = back.relationship(back.rel_by_name("R").unwrap());
        prop_assert_eq!(r.participants[0].cardinality, card);
        Ok(())
    });
}

/// Random multi-parent category DAGs, each category named over parents
/// defined before it, always build and round-trip through the DDL with
/// the same objects, ids and parents. Rewiring a category's parent to the
/// category itself or to a later object breaks the parents-first order,
/// and validation names exactly that pair.
#[test]
fn parents_first_dags() {
    prop::check("parents_first_dags", |rng| {
        let roots = rng.gen_range(1usize..4);
        let n = roots + rng.gen_range(0usize..12);
        let mut b = SchemaBuilder::new("dag");
        let mut names: Vec<String> = Vec::with_capacity(n);
        for i in 0..n {
            let name = format!("O{i}");
            let ob = if i < roots {
                b.entity_set(name.clone())
            } else {
                let mut parents: Vec<&str> = Vec::new();
                for _ in 0..rng.gen_range(1usize..4) {
                    let p = names[rng.gen_range(0..i)].as_str();
                    if !parents.contains(&p) {
                        parents.push(p);
                    }
                }
                b.category_of(name.clone(), &parents).unwrap()
            };
            ob.attr(format!("a{i}"), Domain::Int).finish();
            names.push(name);
        }
        let s = b.build().unwrap();
        let back = sit_ecr::ddl::parse(&sit_ecr::ddl::print(&s)).unwrap();
        prop_assert_eq!(&back, &s);

        for (c, obj) in s.categories() {
            let slot = rng.gen_range(0..obj.parents().len());
            let to = rng.gen_range(c.index()..n);
            let (name, mut objects, rels) = s.clone().into_parts();
            if let ObjectKind::Category { parents } = &mut objects[c.index()].kind {
                parents[slot] = ObjectId::new(to as u32);
            }
            let want = Violation::ParentNotBefore {
                category: names[c.index()].clone(),
                parent: names[to].clone(),
            };
            prop_assert_eq!(
                Schema::from_parts(name, objects, rels),
                Err(EcrError::Invalid(vec![want]))
            );
        }
        Ok(())
    });
}
