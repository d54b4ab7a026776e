//! End-to-end reproduction of the paper's running example: integrating
//! schema sc1 (Figure 3) with schema sc2 (Figure 4) must produce the
//! integrated schema of Figure 5, with the screens' bookkeeping visible at
//! every step.

use sit_core::assertion::Assertion;
use sit_core::catalog::{GObj, GRel};
use sit_core::integrate::IntegrationOptions;
use sit_core::mapping::{CmpOp, Mappings, Query};
use sit_core::session::Session;
use sit_ecr::fixtures;

/// Build the session in the state the paper's screens show: equivalences
/// from Screens 6–7 (with GPA≡GPA so Screen 8's 0.5 ratio holds),
/// assertions from Screen 8 (`1`, `3`, `4`), and the Majors≡Majors
/// relationship assertion behind `E_Stud_Majo`.
fn paper_session() -> (Session, sit_ecr::SchemaId, sit_ecr::SchemaId) {
    let mut s = Session::new();
    let sc1 = s.add_schema(fixtures::sc1()).unwrap();
    let sc2 = s.add_schema(fixtures::sc2()).unwrap();

    s.declare_equivalent_named("sc1", "Student", "Name", "sc2", "Grad_student", "Name")
        .unwrap();
    s.declare_equivalent_named("sc1", "Student", "GPA", "sc2", "Grad_student", "GPA")
        .unwrap();
    s.declare_equivalent_named("sc1", "Student", "Name", "sc2", "Faculty", "Name")
        .unwrap();
    s.declare_equivalent_named("sc1", "Department", "Dname", "sc2", "Department", "Dname")
        .unwrap();
    s.declare_equivalent_named("sc1", "Majors", "Since", "sc2", "Majors", "Since")
        .unwrap();

    let dept1 = s.object_named("sc1", "Department").unwrap();
    let dept2 = s.object_named("sc2", "Department").unwrap();
    let student = s.object_named("sc1", "Student").unwrap();
    let grad = s.object_named("sc2", "Grad_student").unwrap();
    let faculty = s.object_named("sc2", "Faculty").unwrap();
    // Screen 8's entered codes: 1 (equals), 3 (contains), 4 (disjoint but
    // integrable).
    s.assert_objects(dept1, dept2, Assertion::Equal).unwrap();
    s.assert_objects(student, grad, Assertion::Contains)
        .unwrap();
    s.assert_objects(student, faculty, Assertion::DisjointIntegrable)
        .unwrap();

    let majors1 = s.named::<GRel>("sc1", "Majors").unwrap();
    let majors2 = s.named::<GRel>("sc2", "Majors").unwrap();
    s.assert(majors1, majors2, Assertion::Equal).unwrap();

    (s, sc1, sc2)
}

#[test]
fn screen8_candidate_rows() {
    let (s, sc1, sc2) = paper_session();
    let pairs = s.candidates::<GObj>(sc1, sc2);
    let rows: Vec<(String, String, String)> = pairs
        .iter()
        .map(|p| {
            (
                s.catalog().display(p.left),
                s.catalog().display(p.right),
                format!("{:.4}", p.ratio),
            )
        })
        .collect();
    assert!(rows.contains(&(
        "sc1.Department".into(),
        "sc2.Department".into(),
        "0.5000".into()
    )));
    assert!(rows.contains(&(
        "sc1.Student".into(),
        "sc2.Grad_student".into(),
        "0.5000".into()
    )));
    assert!(rows.contains(&("sc1.Student".into(), "sc2.Faculty".into(), "0.3333".into())));
}

#[test]
fn figure5_integrated_schema() {
    let (s, sc1, sc2) = paper_session();
    let result = s
        .integrate(sc1, sc2, &IntegrationOptions::default())
        .unwrap();
    let schema = &result.schema;

    // Screen 10: Entities(2): E_Department, D_Stud_Facu;
    // Categories(3): Student, Grad_student, Faculty;
    // Relationships(2): E_Stud_Majo, Works.
    let entities: Vec<&str> = schema.entity_sets().map(|(_, o)| o.name.as_str()).collect();
    let categories: Vec<&str> = schema.categories().map(|(_, o)| o.name.as_str()).collect();
    let rels: Vec<&str> = schema
        .relationships()
        .map(|(_, r)| r.name.as_str())
        .collect();
    assert_eq!(entities.len(), 2, "{entities:?}");
    assert!(entities.contains(&"E_Department"), "{entities:?}");
    assert!(entities.contains(&"D_Stud_Facu"), "{entities:?}");
    assert_eq!(categories.len(), 3, "{categories:?}");
    for c in ["Student", "Grad_student", "Faculty"] {
        assert!(categories.contains(&c), "{categories:?}");
    }
    assert_eq!(rels.len(), 2, "{rels:?}");
    assert!(rels.contains(&"E_Stud_Majo"), "{rels:?}");
    assert!(rels.contains(&"Works"), "{rels:?}");

    // Screen 11: Student's parent is D_Stud_Facu, child is Grad_student.
    let student = schema.object_by_name("Student").unwrap();
    let d_stud_facu = schema.object_by_name("D_Stud_Facu").unwrap();
    assert_eq!(schema.object(student).parents(), &[d_stud_facu]);
    let children: Vec<_> = schema.children_of(student).collect();
    assert_eq!(children.len(), 1);
    assert_eq!(schema.object(children[0]).name, "Grad_student");

    // Faculty hangs under D_Stud_Facu too.
    let faculty = schema.object_by_name("Faculty").unwrap();
    assert_eq!(schema.object(faculty).parents(), &[d_stud_facu]);

    // Clusters: {both Departments} and {Student, Grad, Faculty}.
    let mut sizes: Vec<usize> = result
        .object_clusters
        .non_trivial()
        .map(<[_]>::len)
        .collect();
    sizes.sort_unstable();
    assert_eq!(sizes, [2, 3]);
}

#[test]
fn screen12_component_attributes() {
    let (s, sc1, sc2) = paper_session();
    let result = s
        .integrate(sc1, sc2, &IntegrationOptions::default())
        .unwrap();
    let schema = &result.schema;

    // Student carries D_Name with two components: sc1.Student.Name (E) and
    // sc2.Grad_student.Name (E) — the exact rows of Screens 12a/12b.
    let student = schema.object_by_name("Student").unwrap();
    let obj = schema.object(student);
    let (aid, attr) = obj.attr_by_name("D_Name").expect("derived D_Name");
    assert!(attr.is_key(), "both components are keys");
    let prov = &result.object_attr_prov[student.index()][aid.index()];
    assert!(prov.is_derived());
    assert_eq!(prov.components.len(), 2);
    let c0 = &prov.components[0];
    let (sname, owner, attr) = c0.resolve(s.catalog());
    assert_eq!((sname, owner, c0.owner_kind), ("sc1", "Student", 'E'));
    assert_eq!(attr.name, "Name");
    let c1 = &prov.components[1];
    let (sname, owner, _) = c1.resolve(s.catalog());
    assert_eq!((sname, owner, c1.owner_kind), ("sc2", "Grad_student", 'E'));

    // GPA also merged (D_GPA), non-key; Grad_student keeps Support_type.
    assert!(obj.attr_by_name("D_GPA").is_some());
    let grad = schema.object_by_name("Grad_student").unwrap();
    let grad_attrs: Vec<&str> = schema
        .object(grad)
        .attributes
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    assert_eq!(grad_attrs, vec!["Support_type"]);

    // Faculty keeps its own Name and Rank (no pull-up to D_Stud_Facu).
    let faculty = schema.object_by_name("Faculty").unwrap();
    let fattrs: Vec<&str> = schema
        .object(faculty)
        .attributes
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    assert_eq!(fattrs, vec!["Name", "Rank"]);
    let dsf = schema.object_by_name("D_Stud_Facu").unwrap();
    assert!(schema.object(dsf).attributes.is_empty());

    // E_Department's key merges into D_Dname.
    let dept = schema.object_by_name("E_Department").unwrap();
    assert!(schema.object(dept).attr_by_name("D_Dname").is_some());
}

#[test]
fn merged_relationship_binds_to_general_class() {
    let (s, sc1, sc2) = paper_session();
    let result = s
        .integrate(sc1, sc2, &IntegrationOptions::default())
        .unwrap();
    let schema = &result.schema;
    let rid = schema.rel_by_name("E_Stud_Majo").unwrap();
    let rel = schema.relationship(rid);
    assert_eq!(rel.degree(), 2);
    let leg_names: Vec<&str> = rel
        .participants
        .iter()
        .map(|p| schema.object(p.object).name.as_str())
        .collect();
    // sc1.Majors(Student, Department) + sc2.Majors(Grad_student,
    // Department): the merged legs bind to Student (the more general class)
    // and E_Department.
    assert!(leg_names.contains(&"Student"), "{leg_names:?}");
    assert!(leg_names.contains(&"E_Department"), "{leg_names:?}");
    // The Since attributes merged into one derived attribute.
    assert_eq!(rel.attributes.len(), 1);
    assert_eq!(rel.attributes[0].name, "D_Since");

    // Works is copied with its Faculty leg rebound to the integrated
    // Faculty category.
    let works = schema.relationship(schema.rel_by_name("Works").unwrap());
    let works_legs: Vec<&str> = works
        .participants
        .iter()
        .map(|p| schema.object(p.object).name.as_str())
        .collect();
    assert!(works_legs.contains(&"Faculty"), "{works_legs:?}");
    assert!(works_legs.contains(&"E_Department"), "{works_legs:?}");
}

#[test]
fn pull_up_ablation_moves_name_to_derived_class() {
    let (s, sc1, sc2) = paper_session();
    let options = IntegrationOptions {
        pull_up_common_attrs: true,
        ..Default::default()
    };
    let result = s.integrate(sc1, sc2, &options).unwrap();
    let schema = &result.schema;
    let dsf = schema.object_by_name("D_Stud_Facu").unwrap();
    // With pull-up, the Name class (shared by Student and Faculty) lives on
    // the derived superclass...
    let dsf_attrs: Vec<&str> = schema
        .object(dsf)
        .attributes
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    assert_eq!(dsf_attrs, vec!["D_Name"]);
    // ...and neither child re-declares it.
    let student = schema.object_by_name("Student").unwrap();
    assert!(schema.object(student).attr_by_name("D_Name").is_none());
    let faculty = schema.object_by_name("Faculty").unwrap();
    assert!(schema.object(faculty).attr_by_name("Name").is_none());
    // The pulled-up attribute has three components (Student, Grad_student,
    // Faculty all contributed Names in one class).
    let (aid, _) = schema.object(dsf).attr_by_name("D_Name").unwrap();
    let prov = &result.object_attr_prov[dsf.index()][aid.index()];
    assert_eq!(prov.components.len(), 3);
}

#[test]
fn mappings_translate_both_directions() {
    let (s, sc1, sc2) = paper_session();
    let result = s
        .integrate(sc1, sc2, &IntegrationOptions::default())
        .unwrap();
    let mappings = Mappings::new(s.catalog(), &result);

    // Logical design: a view request against sc2.Grad_student rewrites to
    // the integrated schema — Name was absorbed into Student.D_Name.
    let view_q = Query::select("Grad_student", &["Name", "Support_type"]).filtered(
        "Name",
        CmpOp::Eq,
        "'Smith'",
    );
    let up = mappings.to_integrated("sc2", &view_q).unwrap();
    assert_eq!(up.object, "Grad_student");
    assert_eq!(
        up.project,
        vec!["D_Name".to_owned(), "Support_type".to_owned()]
    );
    assert_eq!(up.filter.as_ref().unwrap().attr, "D_Name");

    // Global design: a request against the derived D_Stud_Facu fans out to
    // both component branches.
    let global_q = Query::select("D_Stud_Facu", &["D_Name"]);
    let plan = mappings.to_components(&global_q).unwrap();
    assert_eq!(plan.branches.len(), 2);
    let schemas: Vec<&str> = plan.branches.iter().map(|b| b.schema.as_str()).collect();
    assert!(schemas.contains(&"sc1"));
    assert!(schemas.contains(&"sc2"));
    let sc1_branch = plan.branches.iter().find(|b| b.schema == "sc1").unwrap();
    assert_eq!(sc1_branch.query.object, "Student");
    assert_eq!(sc1_branch.query.project, vec!["Name".to_owned()]);

    // A request against E_Department is answerable from either component.
    let dept_q = Query::select("E_Department", &["D_Dname"]);
    let plan = mappings.to_components(&dept_q).unwrap();
    assert!(plan.equivalent);
    assert_eq!(plan.branches.len(), 2);
}

#[test]
fn figure2_cases() {
    // 2a: equals.
    let (a, b) = fixtures::fig2a();
    let mut s = Session::new();
    let sa = s.add_schema(a).unwrap();
    let sb = s.add_schema(b).unwrap();
    s.declare_equivalent_named("sc1", "Department", "Dname", "sc2", "Department", "Dname")
        .unwrap();
    let d1 = s.object_named("sc1", "Department").unwrap();
    let d2 = s.object_named("sc2", "Department").unwrap();
    s.assert_objects(d1, d2, Assertion::Equal).unwrap();
    let r = s.integrate(sa, sb, &Default::default()).unwrap();
    assert_eq!(r.schema.object_count(), 1);
    assert_eq!(
        r.schema.object(sit_ecr::ObjectId::new(0)).name,
        "E_Department"
    );
    // Both Budget and Location survive alongside the merged key.
    let attrs: Vec<&str> = r
        .schema
        .object(sit_ecr::ObjectId::new(0))
        .attributes
        .iter()
        .map(|x| x.name.as_str())
        .collect();
    assert!(attrs.contains(&"D_Dname"), "{attrs:?}");
    assert!(attrs.contains(&"Budget"), "{attrs:?}");
    assert!(attrs.contains(&"Location"), "{attrs:?}");

    // 2b: contains.
    let (a, b) = fixtures::fig2b();
    let mut s = Session::new();
    let sa = s.add_schema(a).unwrap();
    let sb = s.add_schema(b).unwrap();
    s.declare_equivalent_named("sc1", "Student", "Name", "sc2", "Grad_student", "Name")
        .unwrap();
    let student = s.object_named("sc1", "Student").unwrap();
    let grad = s.object_named("sc2", "Grad_student").unwrap();
    s.assert_objects(student, grad, Assertion::Contains)
        .unwrap();
    let r = s.integrate(sa, sb, &Default::default()).unwrap();
    let student_i = r.schema.object_by_name("Student").unwrap();
    let grad_i = r.schema.object_by_name("Grad_student").unwrap();
    assert!(r.schema.object(grad_i).kind.is_category());
    assert_eq!(r.schema.object(grad_i).parents(), &[student_i]);

    // 2c: may be (overlap) → D_Grad_Inst.
    let (a, b) = fixtures::fig2c();
    let mut s = Session::new();
    let sa = s.add_schema(a).unwrap();
    let sb = s.add_schema(b).unwrap();
    s.declare_equivalent_named("sc1", "Grad_student", "Name", "sc2", "Instructor", "Name")
        .unwrap();
    let grad = s.object_named("sc1", "Grad_student").unwrap();
    let inst = s.object_named("sc2", "Instructor").unwrap();
    s.assert_objects(grad, inst, Assertion::MayBe).unwrap();
    let r = s.integrate(sa, sb, &Default::default()).unwrap();
    let d = r
        .schema
        .object_by_name("D_Grad_Inst")
        .expect("derived class");
    assert!(
        !r.schema.object(d).kind.is_category(),
        "derived root is an entity set"
    );
    assert_eq!(r.schema.children_of(d).count(), 2);

    // 2d: disjoint integrable → D_Secr_Engi.
    let (a, b) = fixtures::fig2d();
    let mut s = Session::new();
    let sa = s.add_schema(a).unwrap();
    let sb = s.add_schema(b).unwrap();
    let secr = s.object_named("sc1", "Secretary").unwrap();
    let engi = s.object_named("sc2", "Engineer").unwrap();
    s.assert_objects(secr, engi, Assertion::DisjointIntegrable)
        .unwrap();
    let r = s.integrate(sa, sb, &Default::default()).unwrap();
    assert!(r.schema.object_by_name("D_Secr_Engi").is_some());
    assert_eq!(r.schema.object_count(), 3);

    // 2e: disjoint non-integrable → kept separate.
    let (a, b) = fixtures::fig2e();
    let mut s = Session::new();
    let sa = s.add_schema(a).unwrap();
    let sb = s.add_schema(b).unwrap();
    let ugs = s.object_named("sc1", "Under_Grad_Student").unwrap();
    let prof = s.object_named("sc2", "Full_Professor").unwrap();
    s.assert_objects(ugs, prof, Assertion::DisjointNonIntegrable)
        .unwrap();
    let r = s.integrate(sa, sb, &Default::default()).unwrap();
    assert_eq!(r.schema.object_count(), 2);
    assert!(r.schema.object_by_name("Under_Grad_Student").is_some());
    assert!(r.schema.object_by_name("Full_Professor").is_some());
    assert_eq!(r.derived_objects().count(), 0);
}

#[test]
fn integration_result_can_be_reintegrated() {
    // "A result of integration of two schemas can be integrated with
    // another schema."
    let (mut s, sc1, sc2) = paper_session();
    let result = s
        .integrate(sc1, sc2, &IntegrationOptions::default())
        .unwrap();
    let merged_id = s.add_schema(result.schema).unwrap();
    let sc3 = s.add_schema(fixtures::sc3()).unwrap();
    // Assert Instructor overlaps the integrated Faculty.
    let inst = s.object_named("sc3", "Instructor").unwrap();
    let fac = s.object_named("sc1+sc2", "Faculty").unwrap();
    s.assert_objects(inst, fac, Assertion::MayBe).unwrap();
    let second = s.integrate(merged_id, sc3, &Default::default()).unwrap();
    assert!(second.schema.object_by_name("D_Facu_Inst").is_some());
}
