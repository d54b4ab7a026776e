//! Relationship-set integration in depth: lattice edges from containment,
//! derived (union) relationship sets, leg pairing, constraint widening,
//! role preservation, and the error paths.

use sit_core::assertion::Assertion;
use sit_core::catalog::GRel;
use sit_core::error::CoreError;
use sit_core::integrate::{IntegrationOptions, RelOrigin};
use sit_core::mapping::Mappings;
use sit_core::session::Session;
use sit_ecr::{ddl, Cardinality};

fn session_of(a: &str, b: &str) -> (Session, sit_ecr::SchemaId, sit_ecr::SchemaId) {
    let mut s = Session::new();
    let sa = s.add_schema(ddl::parse(a).unwrap()).unwrap();
    let sb = s.add_schema(ddl::parse(b).unwrap()).unwrap();
    (s, sa, sb)
}

#[test]
fn contained_relationship_builds_a_lattice_edge() {
    // `Advises` (faculty advising grads) is contained in the general
    // `Supervises` relationship: both survive, linked in the lattice.
    let (mut s, sa, sb) = session_of(
        "schema a { entity Person { id: int key; } relationship Supervises {
            Person (0,n) role boss; Person (0,n) role report; } }",
        "schema b { entity Human { id: int key; } relationship Advises {
            Human (0,n) role advisor; Human (0,n) role advisee; } }",
    );
    s.declare_equivalent_named("a", "Person", "id", "b", "Human", "id")
        .unwrap();
    let person = s.object_named("a", "Person").unwrap();
    let human = s.object_named("b", "Human").unwrap();
    s.assert_objects(person, human, Assertion::Equal).unwrap();
    let sup = s.named::<GRel>("a", "Supervises").unwrap();
    let adv = s.named::<GRel>("b", "Advises").unwrap();
    s.assert(adv, sup, Assertion::ContainedIn).unwrap();

    let result = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
    let schema = &result.schema;
    let sup_i = schema.rel_by_name("Supervises").expect("parent kept");
    let adv_i = schema.rel_by_name("Advises").expect("child kept");
    assert!(
        result.rel_lattice.contains(&(adv_i, sup_i)),
        "lattice edge child->parent: {:?}",
        result.rel_lattice
    );
    // Both rebound to the merged E_Person class.
    let merged = schema.object_by_name("E_Pers_Huma").unwrap();
    for rid in [sup_i, adv_i] {
        for p in &schema.relationship(rid).participants {
            assert_eq!(p.object, merged);
        }
    }
    // Roles survived the rebind.
    assert_eq!(
        schema.relationship(adv_i).participants[0].role.as_deref(),
        Some("advisor")
    );
}

#[test]
fn disjoint_integrable_relationships_produce_a_derived_union() {
    // TeachesUndergrad and TeachesGrad are disjoint tuple sets over the
    // same classes; integrating them yields a derived "teaches" set.
    let (mut s, sa, sb) = session_of(
        "schema a { entity Prof { id: int key; } entity UCourse { no: int key; }
         relationship TeachesU { Prof (0,3); UCourse (1,1); } }",
        "schema b { entity Teacher { id: int key; } entity GCourse { no: int key; }
         relationship TeachesG { Teacher (0,2); GCourse (1,1); } }",
    );
    s.declare_equivalent_named("a", "Prof", "id", "b", "Teacher", "id")
        .unwrap();
    s.declare_equivalent_named("a", "UCourse", "no", "b", "GCourse", "no")
        .unwrap();
    let prof = s.object_named("a", "Prof").unwrap();
    let teacher = s.object_named("b", "Teacher").unwrap();
    s.assert_objects(prof, teacher, Assertion::Equal).unwrap();
    let uc = s.object_named("a", "UCourse").unwrap();
    let gc = s.object_named("b", "GCourse").unwrap();
    s.assert_objects(uc, gc, Assertion::DisjointIntegrable)
        .unwrap();
    let tu = s.named::<GRel>("a", "TeachesU").unwrap();
    let tg = s.named::<GRel>("b", "TeachesG").unwrap();
    s.assert(tu, tg, Assertion::DisjointIntegrable).unwrap();

    let result = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
    let schema = &result.schema;
    let derived = schema
        .rel_by_name("D_Teac_Teac")
        .expect("derived union relationship");
    match &result.rel_origin[derived.index()] {
        RelOrigin::DerivedSuper { children } => {
            assert_eq!(children.len(), 2);
            for &c in children {
                assert!(
                    result.rel_lattice.contains(&(c, derived)),
                    "children linked under the union"
                );
            }
        }
        other => panic!("expected derived super, got {other:?}"),
    }
    let rel = schema.relationship(derived);
    // Prof leg: min drops to 0, maxima sum (3 + 2).
    let prof_leg = rel
        .participants
        .iter()
        .find(|p| schema.object(p.object).name == "E_Prof_Teac")
        .expect("merged professor leg");
    assert_eq!(prof_leg.cardinality, Cardinality::new(0, Some(5)));
    // Course leg binds to the derived course superclass.
    let course_leg = rel
        .participants
        .iter()
        .find(|p| schema.object(p.object).name.starts_with("D_UCou"))
        .expect("derived course leg");
    assert_eq!(course_leg.cardinality, Cardinality::new(0, Some(2)));
}

#[test]
fn merged_relationship_widens_constraints_and_merges_attrs() {
    let (mut s, sa, sb) = session_of(
        "schema a { entity X { id: int key; } entity Y { id: int key; }
         relationship R { X (1,1); Y (0,n); weight: real; } }",
        "schema b { entity P { id: int key; } entity Q { id: int key; }
         relationship S { P (0,3); Q (2,n); load: real; } }",
    );
    for (o1, o2) in [("X", "P"), ("Y", "Q")] {
        s.declare_equivalent_named("a", o1, "id", "b", o2, "id")
            .unwrap();
        let a = s.object_named("a", o1).unwrap();
        let b = s.object_named("b", o2).unwrap();
        s.assert_objects(a, b, Assertion::Equal).unwrap();
    }
    s.declare_equivalent_named("a", "R", "weight", "b", "S", "load")
        .unwrap();
    let r = s.named::<GRel>("a", "R").unwrap();
    let srel = s.named::<GRel>("b", "S").unwrap();
    s.assert(r, srel, Assertion::Equal).unwrap();

    let result = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
    let schema = &result.schema;
    let merged = schema.rel_by_name("E_R_S").expect("merged relationship");
    let rel = schema.relationship(merged);
    // (1,1) widen (0,3) = (0,3); (0,n) widen (2,n) = (0,n).
    let cards: Vec<Cardinality> = rel.participants.iter().map(|p| p.cardinality).collect();
    assert!(cards.contains(&Cardinality::new(0, Some(3))), "{cards:?}");
    assert!(cards.contains(&Cardinality::MANY), "{cards:?}");
    // weight ≡ load merged into a derived attribute.
    assert_eq!(rel.attributes.len(), 1);
    assert_eq!(rel.attributes[0].name, "D_weig_load");
    let prov = &result.rel_attr_prov[merged.index()][0];
    assert!(prov.is_derived());
    assert_eq!(prov.components.len(), 2);
    assert!(prov.components.iter().all(|c| c.owner_kind == 'R'));
}

#[test]
fn leg_mismatch_is_reported() {
    // R relates X-Y; S relates P-P (recursive). With X≡P only, S's second
    // leg has no comparable counterpart in R.
    let (mut s, sa, sb) = session_of(
        "schema a { entity X { id: int key; } entity Y { id: int key; }
         relationship R { X (0,n); Y (0,n); } }",
        "schema b { entity P { id: int key; }
         relationship S { P (0,n); P (0,n); } }",
    );
    s.declare_equivalent_named("a", "X", "id", "b", "P", "id")
        .unwrap();
    let x = s.object_named("a", "X").unwrap();
    let p = s.object_named("b", "P").unwrap();
    s.assert_objects(x, p, Assertion::Equal).unwrap();
    let r = s.named::<GRel>("a", "R").unwrap();
    let srel = s.named::<GRel>("b", "S").unwrap();
    s.assert(r, srel, Assertion::Equal).unwrap();
    let err = s
        .integrate(sa, sb, &IntegrationOptions::default())
        .unwrap_err();
    assert!(matches!(err, CoreError::RelLegMismatch { .. }), "{err}");
}

#[test]
fn pull_up_moves_common_rel_attrs_to_the_union() {
    let (mut s, sa, sb) = session_of(
        "schema a { entity X { id: int key; } entity Y { id: int key; }
         relationship R { X (0,n); Y (0,n); started: date; } }",
        "schema b { entity P { id: int key; } entity Q { id: int key; }
         relationship S { P (0,n); Q (0,n); begun: date; } }",
    );
    for (o1, o2) in [("X", "P"), ("Y", "Q")] {
        s.declare_equivalent_named("a", o1, "id", "b", o2, "id")
            .unwrap();
        let a = s.object_named("a", o1).unwrap();
        let b = s.object_named("b", o2).unwrap();
        s.assert_objects(a, b, Assertion::Equal).unwrap();
    }
    s.declare_equivalent_named("a", "R", "started", "b", "S", "begun")
        .unwrap();
    let r = s.named::<GRel>("a", "R").unwrap();
    let srel = s.named::<GRel>("b", "S").unwrap();
    s.assert(r, srel, Assertion::DisjointIntegrable).unwrap();

    let options = IntegrationOptions {
        pull_up_common_attrs: true,
        ..Default::default()
    };
    let result = s.integrate(sa, sb, &options).unwrap();
    let schema = &result.schema;
    let derived = schema.rel_by_name("D_R_S").expect("derived union");
    let rel = schema.relationship(derived);
    assert_eq!(rel.attributes.len(), 1, "{:?}", rel.attributes);
    assert_eq!(rel.attributes[0].name, "D_star_begu");
    // Without pull-up the union has no attributes.
    let plain = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
    let d = plain.schema.rel_by_name("D_R_S").unwrap();
    assert!(plain.schema.relationship(d).attributes.is_empty());
}

#[test]
fn unrelated_same_name_relationships_are_disambiguated() {
    let (s, sa, sb) = session_of(
        "schema a { entity X { id: int key; } entity Y { id: int key; }
         relationship Link { X (0,n); Y (0,n); } }",
        "schema b { entity P { id: int key; } entity Q { id: int key; }
         relationship Link { P (0,n); Q (0,n); } }",
    );
    // No assertions at all: everything copies; the second `Link` gets a
    // fresh name.
    let result = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
    let names: Vec<&str> = result
        .schema
        .relationships()
        .map(|(_, r)| r.name.as_str())
        .collect();
    assert_eq!(names.len(), 2);
    assert!(names.contains(&"Link"));
    assert!(names.contains(&"Link_2"), "{names:?}");
}

#[test]
fn rel_mappings_translate_view_queries() {
    let mut s = Session::new();
    let sa = s.add_schema(sit_ecr::fixtures::sc1()).unwrap();
    let sb = s.add_schema(sit_ecr::fixtures::sc2()).unwrap();
    s.declare_equivalent_named("sc1", "Majors", "Since", "sc2", "Majors", "Since")
        .unwrap();
    s.declare_equivalent_named("sc1", "Student", "Name", "sc2", "Grad_student", "Name")
        .unwrap();
    s.declare_equivalent_named("sc1", "Department", "Dname", "sc2", "Department", "Dname")
        .unwrap();
    let st = s.object_named("sc1", "Student").unwrap();
    let gr = s.object_named("sc2", "Grad_student").unwrap();
    s.assert_objects(st, gr, Assertion::Contains).unwrap();
    let d1 = s.object_named("sc1", "Department").unwrap();
    let d2 = s.object_named("sc2", "Department").unwrap();
    s.assert_objects(d1, d2, Assertion::Equal).unwrap();
    let m1 = s.named::<GRel>("sc1", "Majors").unwrap();
    let m2 = s.named::<GRel>("sc2", "Majors").unwrap();
    s.assert(m1, m2, Assertion::Equal).unwrap();
    let result = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
    let mappings = Mappings::new(s.catalog(), &result);
    // View query against sc2.Majors maps to the merged relationship.
    let q = sit_core::mapping::Query::select("Majors", &["Since"]);
    let up = mappings.to_integrated("sc2", &q).unwrap();
    assert_eq!(up.object, "E_Stud_Majo");
    assert_eq!(up.project, vec!["D_Since".to_owned()]);
    // Down: the merged relationship is answerable from either component.
    let down = mappings
        .to_components(&sit_core::mapping::Query::select(
            "E_Stud_Majo",
            &["D_Since"],
        ))
        .unwrap();
    assert!(down.equivalent);
    assert_eq!(down.branches.len(), 2);
    assert!(down.branches.iter().all(|b| b.query.object == "Majors"));
}
