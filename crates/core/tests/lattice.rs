//! Object-lattice construction in depth: transitive reduction, category
//! structure carried through integration, equals-chains, derived classes
//! over merged nodes, name collisions, rename overrides, and the Entity
//! Assertion matrix.

use std::collections::HashMap;

use sit_core::assertion::Assertion;
use sit_core::integrate::{IntegrationOptions, NodeOrigin};
use sit_core::session::Session;
use sit_ecr::ddl;

fn session_of(a: &str, b: &str) -> (Session, sit_ecr::SchemaId, sit_ecr::SchemaId) {
    let mut s = Session::new();
    let sa = s.add_schema(ddl::parse(a).unwrap()).unwrap();
    let sb = s.add_schema(ddl::parse(b).unwrap()).unwrap();
    (s, sa, sb)
}

#[test]
fn transitive_reduction_keeps_only_hasse_edges() {
    // a.Top ⊇ b.Mid (user), b.Mid ⊇ ... and a.Top ⊇ b.Low is DERIVED via
    // b's own category edge. Low must become a category of Mid only, not
    // of Top as well.
    let (mut s, sa, sb) = session_of(
        "schema a { entity Top { id: int key; } }",
        "schema b { entity Mid { id: int key; } category Low of Mid { extra: char; } }",
    );
    s.declare_equivalent_named("a", "Top", "id", "b", "Mid", "id")
        .unwrap();
    let top = s.object_named("a", "Top").unwrap();
    let mid = s.object_named("b", "Mid").unwrap();
    let low = s.object_named("b", "Low").unwrap();
    s.assert_objects(top, mid, Assertion::Contains).unwrap();
    // The derived fact Top ⊇ Low exists...
    assert_eq!(
        s.object_engine().known(low, top),
        Some(sit_core::assertion::Rel5::Pp)
    );
    let result = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
    let schema = &result.schema;
    let low_i = schema.object_by_name("Low").unwrap();
    let mid_i = schema.object_by_name("Mid").unwrap();
    // ...but the integrated schema carries only the direct edge.
    assert_eq!(schema.object(low_i).parents(), &[mid_i]);
    let top_i = schema.object_by_name("Top").unwrap();
    assert_eq!(schema.object(mid_i).parents(), &[top_i]);
}

#[test]
fn multi_parent_categories_survive_integration() {
    let (s, sa, sb) = session_of(
        "schema a {
            entity Student { id: int key; }
            entity Employee { id: int key; }
            category WorkingStudent of Student, Employee { hours: int; }
        }",
        "schema b { entity Campus { code: char key; } }",
    );
    let result = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
    let schema = &result.schema;
    let ws = schema.object_by_name("WorkingStudent").unwrap();
    let parents = schema.object(ws).parents();
    assert_eq!(parents.len(), 2);
    let names: Vec<&str> = parents
        .iter()
        .map(|&p| schema.object(p).name.as_str())
        .collect();
    assert!(
        names.contains(&"Student") && names.contains(&"Employee"),
        "{names:?}"
    );
}

#[test]
fn derived_class_over_a_merged_node() {
    // a.Person ≡ b.Human, then the merged class overlaps a *third*
    // schema's Cyborg (within one schema an overlap partner would
    // contradict the seeded entity-set disjointness — which the engine
    // correctly rejects, see `overlap_with_sibling_of_merge_is_rejected`).
    let (mut s, sa, sb) = session_of(
        "schema a { entity Person { id: int key; } }",
        "schema b { entity Human { id: int key; } }",
    );
    s.declare_equivalent_named("a", "Person", "id", "b", "Human", "id")
        .unwrap();
    let person = s.object_named("a", "Person").unwrap();
    let human = s.object_named("b", "Human").unwrap();
    s.assert_objects(person, human, Assertion::Equal).unwrap();
    let first = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
    let merged_id = s.add_schema(first.schema).unwrap();
    let c = s
        .add_schema(ddl::parse("schema c { entity Cyborg { serial: char key; } }").unwrap())
        .unwrap();
    let merged_name = s.catalog().schema(merged_id).name().to_owned();
    let merged_obj = s.object_named(&merged_name, "E_Pers_Huma").unwrap();
    let cyborg = s.object_named("c", "Cyborg").unwrap();
    s.assert_objects(merged_obj, cyborg, Assertion::MayBe)
        .unwrap();
    let result = s
        .integrate(merged_id, c, &IntegrationOptions::default())
        .unwrap();
    let schema = &result.schema;
    // Derived name strips the E_ prefix of the merged child.
    let derived = schema.object_by_name("D_Pers_Cybo").unwrap_or_else(|| {
        panic!(
            "derived class missing; objects: {:?}",
            schema
                .objects()
                .map(|(_, o)| o.name.clone())
                .collect::<Vec<_>>()
        )
    });
    let children: Vec<&str> = schema
        .children_of(derived)
        .map(|c| schema.object(c).name.as_str())
        .collect();
    assert_eq!(children.len(), 2, "{children:?}");
    assert!(children.contains(&"E_Pers_Huma"), "{children:?}");
    assert!(children.contains(&"Cyborg"), "{children:?}");
}

#[test]
fn overlap_with_sibling_of_merge_is_rejected() {
    // Person ≡ Human makes Human disjoint from Person's same-schema
    // sibling Android; asserting overlap must conflict, with the seeded
    // disjointness in the support chain.
    let (mut s, _, _) = session_of(
        "schema a { entity Person { id: int key; } entity Android { serial: char key; } }",
        "schema b { entity Human { id: int key; } }",
    );
    s.declare_equivalent_named("a", "Person", "id", "b", "Human", "id")
        .unwrap();
    let person = s.object_named("a", "Person").unwrap();
    let human = s.object_named("b", "Human").unwrap();
    let android = s.object_named("a", "Android").unwrap();
    s.assert_objects(person, human, Assertion::Equal).unwrap();
    let err = s
        .assert_objects(android, human, Assertion::MayBe)
        .unwrap_err();
    match err {
        sit_core::error::CoreError::Conflict(report) => {
            assert!(
                report.supports.iter().any(|sup| !sup.from_user),
                "structural seed cited: {report}"
            );
        }
        other => panic!("expected conflict, got {other}"),
    }
}

#[test]
fn unrelated_same_name_objects_are_disambiguated() {
    let (s, sa, sb) = session_of(
        "schema a { entity Item { sku: char key; } }",
        "schema b { entity Item { id: int key; } }",
    );
    let result = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
    let names: Vec<String> = result
        .schema
        .objects()
        .map(|(_, o)| o.name.clone())
        .collect();
    assert_eq!(names.len(), 2);
    assert!(names.contains(&"Item".to_owned()));
    assert!(names.contains(&"Item_2".to_owned()), "{names:?}");
    // Both map back unambiguously.
    let a_item = s.object_named("a", "Item").unwrap();
    let b_item = s.object_named("b", "Item").unwrap();
    assert_ne!(result.node_of(a_item), result.node_of(b_item));
}

#[test]
fn rename_overrides_apply_before_uniquification() {
    let (mut s, sa, sb) = session_of(
        "schema a { entity Person { id: int key; } }",
        "schema b { entity Human { id: int key; } }",
    );
    s.declare_equivalent_named("a", "Person", "id", "b", "Human", "id")
        .unwrap();
    let person = s.object_named("a", "Person").unwrap();
    let human = s.object_named("b", "Human").unwrap();
    s.assert_objects(person, human, Assertion::Equal).unwrap();
    let mut rename = HashMap::new();
    rename.insert("E_Pers_Huma".to_owned(), "Person".to_owned());
    let options = IntegrationOptions {
        rename,
        ..Default::default()
    };
    let result = s.integrate(sa, sb, &options).unwrap();
    assert!(result.schema.object_by_name("Person").is_some());
    assert!(result.schema.object_by_name("E_Pers_Huma").is_none());
    match &result.object_origin[0] {
        NodeOrigin::Merged(members) => assert_eq!(members.len(), 2),
        other => panic!("expected merge, got {other:?}"),
    }
}

#[test]
fn equals_chain_of_three_views_collapses_through_nary() {
    // a ≡ b and then (a+b) ≡ c: the final schema holds one class.
    let mut s = Session::new();
    let a = s
        .add_schema(ddl::parse("schema a { entity City { name: char key; } }").unwrap())
        .unwrap();
    let b = s
        .add_schema(ddl::parse("schema b { entity Town { name: char key; } }").unwrap())
        .unwrap();
    s.declare_equivalent_named("a", "City", "name", "b", "Town", "name")
        .unwrap();
    let city = s.object_named("a", "City").unwrap();
    let town = s.object_named("b", "Town").unwrap();
    s.assert_objects(city, town, Assertion::Equal).unwrap();
    let first = s.integrate(a, b, &IntegrationOptions::default()).unwrap();
    let merged_id = s.add_schema(first.schema).unwrap();
    let c = s
        .add_schema(ddl::parse("schema c { entity Municipality { name: char key; } }").unwrap())
        .unwrap();
    let merged_name = s.catalog().schema(merged_id).name().to_owned();
    // The merged key is D_name; equate it with c's key.
    s.declare_equivalent_named(
        &merged_name,
        "E_City_Town",
        "D_name",
        "c",
        "Municipality",
        "name",
    )
    .unwrap();
    let m = s.object_named(&merged_name, "E_City_Town").unwrap();
    let muni = s.object_named("c", "Municipality").unwrap();
    s.assert_objects(m, muni, Assertion::Equal).unwrap();
    let second = s
        .integrate(merged_id, c, &IntegrationOptions::default())
        .unwrap();
    assert_eq!(second.schema.object_count(), 1);
    // The name stays a single E_ merge, not E_E_...
    let name = &second.schema.object(sit_ecr::ObjectId::new(0)).name;
    assert!(!name.starts_with("E_E_"), "{name}");
}

#[test]
fn assertion_matrix_reports_user_and_derived_entries() {
    let mut s = Session::new();
    let sa = s.add_schema(sit_ecr::fixtures::sc3()).unwrap();
    let sb = s.add_schema(sit_ecr::fixtures::sc4()).unwrap();
    let inst = s.object_named("sc3", "Instructor").unwrap();
    let grad = s.object_named("sc4", "Grad_student").unwrap();
    s.assert_objects(inst, grad, Assertion::ContainedIn)
        .unwrap();
    let m = s.assertion_matrix(sa, sb);
    // sc3 has 1 object; sc4 has Student, Grad_student.
    assert_eq!(m.len(), 1);
    assert_eq!(m[0].len(), 2);
    let student_col = s
        .catalog()
        .schema(sb)
        .object_by_name("Student")
        .unwrap()
        .index();
    let grad_col = s
        .catalog()
        .schema(sb)
        .object_by_name("Grad_student")
        .unwrap()
        .index();
    assert_eq!(m[0][grad_col], Some(Assertion::ContainedIn), "user entry");
    assert_eq!(
        m[0][student_col],
        Some(Assertion::ContainedIn),
        "derived entry"
    );
}

#[test]
fn self_integration_is_rejected() {
    let (s, sa, _) = session_of(
        "schema a { entity X { id: int key; } }",
        "schema b { entity Y { id: int key; } }",
    );
    let err = s
        .integrate(sa, sa, &IntegrationOptions::default())
        .unwrap_err();
    assert!(err.to_string().contains("itself"), "{err}");
}

#[test]
fn intra_schema_relationships_rebind_within_one_copied_schema() {
    // Schemas with no cross assertions at all: integration is a disjoint
    // union with every leg rebound correctly.
    let (s, sa, sb) = session_of(
        "schema a { entity X { id: int key; } entity Y { id: int key; }
         relationship R { X (1,1); Y (0,n); } }",
        "schema b { entity Z { id: int key; } category W of Z { } }",
    );
    let result = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
    let schema = &result.schema;
    assert_eq!(schema.object_count(), 4);
    assert_eq!(schema.relationship_count(), 1);
    let r = schema.relationship(schema.rel_by_name("R").unwrap());
    let leg_names: Vec<&str> = r
        .participants
        .iter()
        .map(|p| schema.object(p.object).name.as_str())
        .collect();
    assert_eq!(leg_names, vec!["X", "Y"]);
    // b's category edge survived.
    let w = schema.object_by_name("W").unwrap();
    let z = schema.object_by_name("Z").unwrap();
    assert_eq!(schema.object(w).parents(), &[z]);
}

#[test]
fn an_attribute_held_by_two_ancestors_is_absorbed_by_the_nearest() {
    // X is a category of a.P1 and, by assertion, contained in b.P2; both
    // parents hold the class of X's attribute. Breadth-first along X's
    // parents, P1 comes first and takes it.
    let (mut s, sa, sb) = session_of(
        "schema a { entity P1 { name: char key; } category X of P1 { xname: char; } }",
        "schema b { entity P2 { name: char key; } }",
    );
    s.declare_equivalent_named("a", "P1", "name", "b", "P2", "name")
        .unwrap();
    s.declare_equivalent_named("a", "X", "xname", "b", "P2", "name")
        .unwrap();
    let x = s.object_named("a", "X").unwrap();
    let p2 = s.object_named("b", "P2").unwrap();
    s.assert_objects(p2, x, Assertion::Contains).unwrap();
    let result = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
    let schema = &result.schema;
    let attrs = |name: &str| -> Vec<(String, usize)> {
        let o = schema.object_by_name(name).unwrap();
        let prov = &result.object_attr_prov[o.index()];
        let names = schema.object(o).attributes.iter().map(|a| a.name.clone());
        names.zip(prov.iter().map(|p| p.components.len())).collect()
    };
    assert_eq!(attrs("P1"), [("D_name_xnam".to_owned(), 2)]);
    assert_eq!(attrs("P2"), [("name".to_owned(), 1)]);
    assert!(attrs("X").is_empty());
}

#[test]
fn union_legs_bind_to_the_last_listed_of_equally_deep_shared_ancestors() {
    // A and B are categories of the two merged roots, so their deepest
    // shared ancestors tie; the derived relationship set's first leg binds
    // to the one listed last among A's ancestors.
    let (mut s, sa, sb) = session_of(
        "schema a { entity R1 { id: int key; } entity R2 { id: int key; }
           category A of R1, R2 { ak: char; }
           relationship ra { A (0,n); R1 (0,n); } }",
        "schema b { entity S1 { id: int key; } entity S2 { id: int key; }
           category B of S1, S2 { bk: char; }
           relationship rb { B (0,n); S1 (0,n); } }",
    );
    for (x, y) in [("R1", "S1"), ("R2", "S2")] {
        let x = s.object_named("a", x).unwrap();
        let y = s.object_named("b", y).unwrap();
        s.assert_objects(x, y, Assertion::Equal).unwrap();
    }
    let ra = s.named::<sit_core::GRel>("a", "ra").unwrap();
    let rb = s.named::<sit_core::GRel>("b", "rb").unwrap();
    s.assert(ra, rb, Assertion::MayBe).unwrap();
    let result = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
    let schema = &result.schema;
    let union = schema.relationship(schema.rel_by_name("D_ra_rb").unwrap());
    let legs: Vec<&str> = union
        .participants
        .iter()
        .map(|p| schema.object(p.object).name.as_str())
        .collect();
    assert_eq!(legs, ["E_R2_S2", "E_R1_S1"]);
}

#[test]
fn union_legs_on_a_deep_multi_parent_ladder_finish_quickly() {
    // X1 and Y1 are categories of A and B, X(k+1) and Y(k+1) categories of
    // Xk and Yk, forty rungs up. The derived relationship set's first leg
    // pairs X40 with Y40, whose deepest shared ancestors X39 and Y39 tie:
    // the tie-break must not walk the ladder once per path.
    const RUNGS: usize = 40;
    let mut a = String::from("schema a { entity A { id: int key; } entity B { id: int key; }\n");
    for k in 1..=RUNGS {
        let below = match k {
            1 => "A, B".to_owned(),
            _ => format!("X{}, Y{}", k - 1, k - 1),
        };
        a += &format!("category X{k} of {below} {{ x{k}: char; }}\n");
        a += &format!("category Y{k} of {below} {{ y{k}: char; }}\n");
    }
    a += &format!("relationship ra {{ X{RUNGS} (0,n); A (0,n); }} }}");
    let b = "schema b { entity Z { z: char; } entity C { id: int key; }
               relationship rb { Z (0,n); C (0,n); } }";
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (mut s, sa, sb) = session_of(&a, b);
        let top = format!("Y{RUNGS}");
        for (x, y) in [(top.as_str(), "Z"), ("A", "C")] {
            let x = s.object_named("a", x).unwrap();
            let y = s.object_named("b", y).unwrap();
            s.assert_objects(x, y, Assertion::Equal).unwrap();
        }
        let ra = s.named::<sit_core::GRel>("a", "ra").unwrap();
        let rb = s.named::<sit_core::GRel>("b", "rb").unwrap();
        s.assert(ra, rb, Assertion::MayBe).unwrap();
        let result = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
        let schema = &result.schema;
        let union = schema.relationship(schema.rel_by_name("D_ra_rb").unwrap());
        let legs: Vec<String> = union
            .participants
            .iter()
            .map(|p| schema.object(p.object).name.clone())
            .collect();
        tx.send(legs).unwrap();
    });
    let legs = rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("integration finishes");
    let below = format!("Y{}", RUNGS - 1);
    assert_eq!(legs, [below.as_str(), "E_A_C"]);
}
