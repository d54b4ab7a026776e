//! Phase 4 and the mappings pinned byte for byte over seeded
//! `sit-datagen` pairs.
//!
//! Each case is one schema pair driven through phases 2–3 from its
//! ground truth (every true attribute equivalence and object assertion),
//! plus relationship-set assertions drawn from the seed, then integrated.
//! For every case the golden file records:
//!
//! * the rendered integrated schema;
//! * the mapping dictionary (`Mappings::describe`);
//! * every integrated attribute's Screen-12 provenance (schema, owner,
//!   kind, name, domain, key of each component attribute);
//! * `to_integrated` for every component object class and relationship
//!   set, and `to_components` for every integrated one.
//!
//! The pairs are 24 paper-scale seeds (6 objects and 2 relationship sets
//! per schema) and 24 16-object seeds, each integrated with attribute
//! pull-up off and on; one pair also runs with a `rename` override, and
//! the university example rides along for relationship attributes.
//!
//! `to_components` branches of a relationship set are printed sorted:
//! their order once depended on hash-map iteration.
//!
//! If a change to this output is intended, regenerate the file with
//! `SIT_BLESS=1 cargo test -p sit-core --test integrate_golden` and review
//! the diff.

use std::collections::HashMap;
use std::fmt::Write as _;

use sit_core::assertion::Assertion;
use sit_core::catalog::GRel;
use sit_core::integrate::{IntegratedSchema, IntegrationOptions};
use sit_core::mapping::{CmpOp, Mappings, Query};
use sit_core::{script, Catalog, Session};
use sit_datagen::GeneratorConfig;
use sit_ecr::{ddl, render, AttrOwner, SchemaId};
use sit_prng::Xoshiro256pp;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/integrate.txt");

/// A session over one generated pair, driven from its ground truth.
fn generated_session(seed: u64, objects: usize) -> (Session, SchemaId, SchemaId) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5EED);
    let pair = GeneratorConfig {
        seed,
        objects_per_schema: objects,
        relationships_per_schema: if objects <= 6 { 2 } else { 4 },
        category_frac: [0.0, 0.3, 0.6][(seed % 3) as usize],
        mayby_frac: 0.2,
        ..Default::default()
    }
    .generate_pair();
    // Relationship sets between corresponding object classes, one per
    // consecutive pair of true object correspondences, with an attribute
    // each side: the generator's own relationship sets link random
    // classes, which rarely correspond.
    let links: Vec<(&str, &str, &str, &str)> = pair
        .truth
        .assertions
        .windows(2)
        .take(2)
        .map(|w| {
            (
                w[0].a.as_str(),
                w[1].a.as_str(),
                w[0].b.as_str(),
                w[1].b.as_str(),
            )
        })
        .collect();
    let mut ddl_a = ddl::print(&pair.a);
    let mut ddl_b = ddl::print(&pair.b);
    for (k, (xa, ya, xb, yb)) in links.iter().enumerate() {
        let close_a = ddl_a.rfind('}').unwrap();
        ddl_a.insert_str(
            close_a,
            &format!("  relationship link_{k} {{ {xa} (0,n); {ya} (1,1); since: date; }}\n"),
        );
        let close_b = ddl_b.rfind('}').unwrap();
        ddl_b.insert_str(
            close_b,
            &format!(
                "  relationship tie_{k} {{ {xb} (0,n); {yb} (0,n); since: date; weight: int; }}\n"
            ),
        );
    }
    let mut s = Session::new();
    let sa = s.add_schema(ddl::parse(&ddl_a).unwrap()).unwrap();
    let sb = s.add_schema(ddl::parse(&ddl_b).unwrap()).unwrap();
    let (a, b) = (pair.a.name().to_owned(), pair.b.name().to_owned());
    for (oa, aa, ob, ab) in &pair.truth.attr_pairs {
        let _ = s.declare_equivalent_named(&a, oa, aa, &b, ob, ab);
    }
    for t in &pair.truth.assertions {
        let (Ok(x), Ok(y)) = (s.object_named(&a, &t.a), s.object_named(&b, &t.b)) else {
            continue;
        };
        let _ = s.assert(x, y, t.assertion);
    }
    const LINK: [Option<Assertion>; 6] = [
        Some(Assertion::Equal),
        Some(Assertion::MayBe),
        Some(Assertion::DisjointIntegrable),
        Some(Assertion::Contains),
        Some(Assertion::ContainedIn),
        None,
    ];
    for k in 0..links.len() {
        let (link, tie) = (format!("link_{k}"), format!("tie_{k}"));
        let _ = s.declare_equivalent_named(&a, &link, "since", &b, &tie, "since");
        if let Some(&Some(assertion)) = rng.choose(&LINK) {
            let ra = s.named::<GRel>(&a, &link).unwrap();
            let rb = s.named::<GRel>(&b, &tie).unwrap();
            let _ = s.assert(ra, rb, assertion);
        }
    }
    // The generator's relationship sets: containment or disjointness.
    let generated = |sid| -> Vec<GRel> {
        s.catalog()
            .rels_of(sid)
            .filter(|&g| {
                !s.catalog()
                    .schema(sid)
                    .relationship(g.rel)
                    .name
                    .starts_with("link_")
            })
            .filter(|&g| {
                !s.catalog()
                    .schema(sid)
                    .relationship(g.rel)
                    .name
                    .starts_with("tie_")
            })
            .collect()
    };
    let (rels_a, rels_b) = (generated(sa), generated(sb));
    const OTHER: [Option<Assertion>; 6] = [
        Some(Assertion::Contains),
        Some(Assertion::ContainedIn),
        Some(Assertion::DisjointNonIntegrable),
        None,
        None,
        None,
    ];
    for &ra in &rels_a {
        for &rb in &rels_b {
            if let Some(&Some(assertion)) = rng.choose(&OTHER) {
                let _ = s.assert(ra, rb, assertion);
            }
        }
    }
    (s, sa, sb)
}

/// Everything one integration run shows, as text.
fn record(
    out: &mut String,
    label: &str,
    s: &Session,
    sa: SchemaId,
    sb: SchemaId,
    options: &IntegrationOptions,
) {
    let _ = writeln!(out, "=== {label} pull_up={}", options.pull_up_common_attrs);
    let integrated = match s.integrate(sa, sb, options) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return;
        }
    };
    let maps = Mappings::new(s.catalog(), &integrated);
    out.push_str("--- render\n");
    out.push_str(&render::render(&integrated.schema));
    out.push_str("--- clusters\n");
    for group in integrated.object_clusters.groups() {
        let names: Vec<String> = group.iter().map(|&g| s.catalog().display(g)).collect();
        let _ = writeln!(out, "{}", names.join(" "));
    }
    out.push_str("--- relationship lattice\n");
    for &(child, parent) in &integrated.rel_lattice {
        let name = |r| integrated.schema.relationship(r).name.as_str();
        let _ = writeln!(out, "{} < {}", name(child), name(parent));
    }
    out.push_str("--- describe\n");
    out.push_str(&maps.describe());
    out.push_str("--- provenance\n");
    provenance(out, s.catalog(), &integrated);
    out.push_str("--- to_integrated\n");
    for sid in [sa, sb] {
        let schema = s.catalog().schema(sid);
        let owners = schema
            .object_ids()
            .map(AttrOwner::Object)
            .chain(schema.rel_ids().map(AttrOwner::Rel));
        for owner in owners {
            let name = schema.owner_name(owner).unwrap();
            let q = query_over(name, schema.owner_attrs(owner));
            let answer = match maps.to_integrated(schema.name(), &q) {
                Ok(up) => up.to_string(),
                Err(e) => format!("error: {e}"),
            };
            let _ = writeln!(out, "{}.{name}: {answer}", schema.name());
        }
    }
    out.push_str("--- to_components\n");
    let schema = &integrated.schema;
    let owners = schema
        .object_ids()
        .map(AttrOwner::Object)
        .chain(schema.rel_ids().map(AttrOwner::Rel));
    for owner in owners {
        let name = schema.owner_name(owner).unwrap();
        let q = query_over(name, schema.owner_attrs(owner));
        let answer = match maps.to_components(&q) {
            Ok(plan) => {
                let mut lines: Vec<String> = plan.to_string().lines().map(str::to_owned).collect();
                if matches!(owner, AttrOwner::Rel(_)) {
                    for l in &mut lines {
                        for connector in ["≡ ", "∪ "] {
                            if let Some(rest) = l.strip_prefix(connector) {
                                *l = rest.to_owned();
                            }
                        }
                    }
                    lines.sort();
                    let connector = if plan.equivalent { "≡" } else { "∪" };
                    lines.join(&format!(" {connector} "))
                } else {
                    lines.join(" ")
                }
            }
            Err(e) => format!("error: {e}"),
        };
        let _ = writeln!(out, "{name}: {answer}");
    }
}

/// `select <every attr> from <name> where <first attr> = 'x'`.
fn query_over(name: &str, attrs: &[sit_ecr::Attribute]) -> Query {
    let names: Vec<&str> = attrs.iter().map(|a| a.name.as_str()).collect();
    let q = Query::select(name, &names);
    match names.first() {
        Some(first) => q.filtered(*first, CmpOp::Eq, "'x'"),
        None => q,
    }
}

/// Screen 12's rows for every integrated attribute.
fn provenance(out: &mut String, catalog: &Catalog, integrated: &IntegratedSchema) {
    let schema = &integrated.schema;
    let owners = schema
        .object_ids()
        .map(AttrOwner::Object)
        .chain(schema.rel_ids().map(AttrOwner::Rel));
    for owner in owners {
        let name = schema.owner_name(owner).unwrap();
        let prov = integrated.attr_prov(owner).unwrap();
        for (attr, p) in schema.owner_attrs(owner).iter().zip(prov) {
            let _ = writeln!(out, "{name}.{}", attr.name);
            for c in &p.components {
                let (schema, owner, component) = c.resolve(catalog);
                let _ = writeln!(
                    out,
                    "  {schema} {owner} {} {} {} {}",
                    c.owner_kind,
                    component.name,
                    component.domain.tag(),
                    if component.is_key() { "key" } else { "-" }
                );
            }
        }
    }
}

fn corpus() -> String {
    let mut out = String::new();
    let pull = |on: bool| IntegrationOptions {
        pull_up_common_attrs: on,
        ..Default::default()
    };
    for (objects, first_seed) in [(6usize, 100u64), (16, 200)] {
        for seed in first_seed..first_seed + 24 {
            let (s, sa, sb) = generated_session(seed, objects);
            let label = format!("seed {seed}, {objects} objects");
            record(&mut out, &label, &s, sa, sb, &pull(false));
            record(&mut out, &label, &s, sa, sb, &pull(true));
        }
    }

    // One pair under a rename override: the first object class renamed
    // away, and the second renamed onto the first's old name, so the
    // override and the collision suffix both show.
    let (s, sa, sb) = generated_session(101, 6);
    let plain = s.integrate(sa, sb, &pull(false)).unwrap();
    let names: Vec<String> = plain
        .schema
        .objects()
        .map(|(_, o)| o.name.clone())
        .collect();
    let mut rename = HashMap::new();
    rename.insert(names[0].clone(), "Renamed".to_owned());
    rename.insert(names[1].clone(), names[0].clone());
    let options = IntegrationOptions {
        rename,
        ..Default::default()
    };
    record(
        &mut out,
        "seed 101, 6 objects, renamed",
        &s,
        sa,
        sb,
        &options,
    );

    let text = include_str!("../../../examples/data/university.sit");
    let s = script::load(text).unwrap();
    let (sa, sb) = (SchemaId::new(0), SchemaId::new(1));
    record(&mut out, "university", &s, sa, sb, &pull(false));
    record(&mut out, "university", &s, sa, sb, &pull(true));
    out
}

#[test]
fn phase4_and_mappings_match_golden() {
    let got = corpus();
    if std::env::var_os("SIT_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
        std::fs::write(GOLDEN_PATH, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "first difference at line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
    assert_eq!(got, want);
}
