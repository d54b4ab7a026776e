//! Quickstart: the four phases of schema integration, end to end.
//!
//! Reproduces the paper's running example (Figures 3–5): collect the two
//! university schemas, declare attribute equivalences, review the ranked
//! candidate pairs, assert the domain relationships, integrate, and
//! translate a request through the generated mappings.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sit::core::assertion::Assertion;
use sit::core::catalog::{GObj, GRel};
use sit::core::mapping::{CmpOp, Mappings, Query};
use sit::core::session::Session;
use sit::ecr::{fixtures, render};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Phase 1: schema collection --------------------------------
    // (In the tool this is Screens 2-5; here the paper's fixtures.)
    let mut session = Session::new();
    let sc1 = session.add_schema(fixtures::sc1())?;
    let sc2 = session.add_schema(fixtures::sc2())?;
    println!("phase 1: collected schemas sc1 (Figure 3) and sc2 (Figure 4)\n");

    // ---- Phase 2: attribute equivalence classes --------------------
    for (o1, a1, o2, a2) in [
        ("Student", "Name", "Grad_student", "Name"),
        ("Student", "GPA", "Grad_student", "GPA"),
        ("Student", "Name", "Faculty", "Name"),
        ("Department", "Dname", "Department", "Dname"),
        ("Majors", "Since", "Majors", "Since"),
    ] {
        session.declare_equivalent_named("sc1", o1, a1, "sc2", o2, a2)?;
    }
    println!("phase 2: equivalence classes declared (Screen 7 state)");

    // The OCS-derived ranked candidate list with attribute ratios
    // (Screen 8's rows).
    println!("\nranked object pairs (attribute ratio):");
    for pair in session.candidates::<GObj>(sc1, sc2) {
        println!(
            "  {:<22} {:<24} {:.4}",
            session.catalog().display(pair.left),
            session.catalog().display(pair.right),
            pair.ratio
        );
    }

    // ---- Phase 3: assertions (with derivation + conflict checks) ---
    let dept1 = session.object_named("sc1", "Department")?;
    let dept2 = session.object_named("sc2", "Department")?;
    let student = session.object_named("sc1", "Student")?;
    let grad = session.object_named("sc2", "Grad_student")?;
    let faculty = session.object_named("sc2", "Faculty")?;
    session.assert_objects(dept1, dept2, Assertion::Equal)?;
    session.assert_objects(student, grad, Assertion::Contains)?;
    session.assert_objects(student, faculty, Assertion::DisjointIntegrable)?;
    let majors1 = session.named::<GRel>("sc1", "Majors")?;
    let majors2 = session.named::<GRel>("sc2", "Majors")?;
    session.assert(majors1, majors2, Assertion::Equal)?;
    println!("\nphase 3: assertions recorded (codes 1, 3, 4 of Screen 8)");

    // ---- Phase 4: integration + mappings ---------------------------
    let result = session.integrate(sc1, sc2, &Default::default())?;
    let mappings = Mappings::new(session.catalog(), &result);
    println!("\nphase 4: integrated schema (Figure 5):\n");
    print!("{}", render::render(&result.schema));

    // Logical-design direction: a view request against sc2 rewritten to
    // the integrated schema.
    let view_query = Query::select("Grad_student", &["Name", "Support_type"]).filtered(
        "Name",
        CmpOp::Eq,
        "'Smith'",
    );
    println!("\nview request   : [sc2] {view_query}");
    println!(
        "against global : {}",
        mappings.to_integrated("sc2", &view_query)?
    );

    // Global-design direction: a request against the derived class fans
    // out to the component databases.
    let global_query = Query::select("D_Stud_Facu", &["D_Name"]);
    println!("\nglobal request : {global_query}");
    println!(
        "fan-out plan   :\n{}",
        mappings.to_components(&global_query)?
    );
    Ok(())
}
