//! Mapping tables keyed by element kind and ordered by component id.

use sit_core::assertion::Assertion;
use sit_core::integrate::IntegrationOptions;
use sit_core::mapping::{Mappings, Query};
use sit_core::{script, GObj, GRel, Session};
use sit_ecr::{ddl, SchemaId};

/// An entity set and a relationship set may share a name within one
/// schema; each keeps its own correspondences.
#[test]
fn object_and_relationship_of_one_name_map_separately() {
    let mut s = Session::new();
    let a = s
        .add_schema(
            ddl::parse(
                "schema a {
                   entity Pay { Amt: real key; }
                   entity Person { id: int key; }
                   relationship Pay { Person (0,n); Pay (0,n); Amt: real; }
                 }",
            )
            .unwrap(),
        )
        .unwrap();
    let b = s
        .add_schema(ddl::parse("schema b { entity Other { id: int key; } }").unwrap())
        .unwrap();
    let integrated = s.integrate(a, b, &IntegrationOptions::default()).unwrap();
    let mappings = Mappings::new(s.catalog(), &integrated);

    let dict = mappings.describe();
    let want = "# mapping dictionary
object a.Pay -> Pay
object a.Pay -> Pay_2
object a.Person -> Person
object b.Other -> Other
attr   a.Pay.Amt -> Pay.Amt
attr   a.Pay.Amt -> Pay_2.Amt
attr   a.Person.id -> Person.id
attr   b.Other.id -> Other.id
";
    assert_eq!(dict, want);

    // A view request names an object class before a relationship set.
    let up = mappings
        .to_integrated("a", &Query::select("Pay", &["Amt"]))
        .unwrap();
    assert_eq!(up.to_string(), "select Amt from Pay");
    for target in ["Pay", "Pay_2"] {
        let down = mappings
            .to_components(&Query::select(target, &["Amt"]))
            .unwrap();
        assert_eq!(down.to_string(), "[a] select Amt from Pay", "{target}");
    }
}

/// The branches of a merged relationship set come in component order,
/// in every build of the mappings.
#[test]
fn merged_relationship_branches_follow_component_order() {
    let s = script::load(include_str!("../../../examples/data/university.sit")).unwrap();
    let (sa, sb) = (SchemaId::new(0), SchemaId::new(1));
    for _ in 0..32 {
        let integrated = s.integrate(sa, sb, &IntegrationOptions::default()).unwrap();
        let mappings = Mappings::new(s.catalog(), &integrated);
        let plan = mappings
            .to_components(&Query::select("E_Stud_Majo", &["D_Since"]))
            .unwrap();
        let schemas: Vec<&str> = plan.branches.iter().map(|b| b.schema.as_str()).collect();
        assert_eq!(schemas, ["sc1", "sc2"]);
    }
}

/// A derived (`D_`) relationship set expands to the union of its
/// children, as a derived object class does.
#[test]
fn derived_relationship_set_expands_to_its_children() {
    let mut s = Session::new();
    let a = s
        .add_schema(
            ddl::parse(
                "schema a { entity Prof { id: int key; } entity UCourse { no: int key; }
                 relationship TeachesU { Prof (0,3); UCourse (1,1); hours: int; } }",
            )
            .unwrap(),
        )
        .unwrap();
    let b = s
        .add_schema(
            ddl::parse(
                "schema b { entity Teacher { id: int key; } entity GCourse { no: int key; }
                 relationship TeachesG { Teacher (0,2); GCourse (1,1); hours: int; } }",
            )
            .unwrap(),
        )
        .unwrap();
    s.declare_equivalent_named("a", "Prof", "id", "b", "Teacher", "id")
        .unwrap();
    s.declare_equivalent_named("a", "UCourse", "no", "b", "GCourse", "no")
        .unwrap();
    let (prof, teacher) = (
        s.named("a", "Prof").unwrap(),
        s.named("b", "Teacher").unwrap(),
    );
    s.assert::<GObj>(prof, teacher, Assertion::Equal).unwrap();
    let (uc, gc) = (
        s.named("a", "UCourse").unwrap(),
        s.named("b", "GCourse").unwrap(),
    );
    s.assert::<GObj>(uc, gc, Assertion::DisjointIntegrable)
        .unwrap();
    let (tu, tg) = (
        s.named("a", "TeachesU").unwrap(),
        s.named("b", "TeachesG").unwrap(),
    );
    s.assert::<GRel>(tu, tg, Assertion::DisjointIntegrable)
        .unwrap();

    let integrated = s.integrate(a, b, &IntegrationOptions::default()).unwrap();
    let mappings = Mappings::new(s.catalog(), &integrated);
    let plan = mappings
        .to_components(&Query::select("D_Teac_Teac", &["hours"]))
        .unwrap();
    assert!(!plan.equivalent, "a derived union is not one extension");
    assert_eq!(
        plan.to_string(),
        "[a] select hours from TeachesU\n∪ [b] select hours from TeachesG"
    );
}

/// An attribute merged onto a derived (`D_`) object class resolves in
/// every branch of its union to that child's own component attribute.
#[test]
fn derived_object_class_attribute_resolves_in_each_branch() {
    let mut s = Session::new();
    let a = s
        .add_schema(ddl::parse("schema a { entity Dept { dept_no: int key; } }").unwrap())
        .unwrap();
    let b = s
        .add_schema(ddl::parse("schema b { entity Part_Dept { dno: int key; } }").unwrap())
        .unwrap();
    s.declare_equivalent_named("a", "Dept", "dept_no", "b", "Part_Dept", "dno")
        .unwrap();
    let (dept, part) = (
        s.named("a", "Dept").unwrap(),
        s.named("b", "Part_Dept").unwrap(),
    );
    s.assert::<GObj>(dept, part, Assertion::DisjointIntegrable)
        .unwrap();

    // Pull-up moves the common key onto the derived parent.
    let options = IntegrationOptions {
        pull_up_common_attrs: true,
        ..Default::default()
    };
    let integrated = s.integrate(a, b, &options).unwrap();
    let mappings = Mappings::new(s.catalog(), &integrated);
    let plan = mappings
        .to_components(&Query::select("D_Dept_Part", &["D_dept_dno"]))
        .unwrap();
    assert!(plan.branches.iter().all(|b| b.missing.is_empty()), "{plan}");
    assert_eq!(
        plan.to_string(),
        "[a] select dept_no from Dept\n∪ [b] select dno from Part_Dept"
    );
}
