//! Assertion conflict detection and repair — the Screen 9 scenario.
//!
//! `sc3.Instructor ⊆ sc4.Grad_student` (DDA) combines with
//! `sc4.Grad_student ⊆ sc4.Student` (sc4's own category structure) to
//! derive `sc3.Instructor ⊆ sc4.Student`; asserting the pair disjoint is
//! then rejected with the full derivation chain, and the DDA repairs the
//! earlier assertion.
//!
//! ```text
//! cargo run --example conflict_repair
//! ```

use sit::core::assertion::Assertion;
use sit::core::error::CoreError;
use sit::core::session::Session;
use sit::ecr::fixtures;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = Session::new();
    session.add_schema(fixtures::sc3())?;
    session.add_schema(fixtures::sc4())?;

    let instructor = session.object_named("sc3", "Instructor")?;
    let grad = session.object_named("sc4", "Grad_student")?;
    let student = session.object_named("sc4", "Student")?;

    // The intra-schema fact was seeded automatically from sc4's category.
    println!(
        "seeded: sc4.Grad_student vs sc4.Student = {:?}",
        session.object_engine().known(grad, student)
    );

    let derived = session.assert_objects(instructor, grad, Assertion::ContainedIn)?;
    println!("\nasserted: sc3.Instructor 'contained in' sc4.Grad_student");
    for d in &derived {
        println!(
            "derived : {} {} {}",
            session.catalog().display(d.a),
            d.rel,
            session.catalog().display(d.b)
        );
    }

    // The conflicting assertion (Screen 9's <new>).
    println!("\nattempting: sc3.Instructor disjoint sc4.Student ...");
    match session.assert_objects(instructor, student, Assertion::DisjointNonIntegrable) {
        Err(CoreError::Conflict(report)) => {
            println!("CONFLICT: {report}");
        }
        other => panic!("expected a conflict, got {other:?}"),
    }

    // Repair: retract the earlier assertion and weaken it. (The paper
    // suggests '0' or '5'; the relation algebra shows only '0' is
    // consistent with the intended disjointness — an overlap with a
    // subset of Student forces a non-empty intersection with Student.)
    println!("\nrepair: retract Instructor⊆Grad_student, assert disjoint instead");
    assert!(session.retract_objects(instructor, grad));
    session.assert_objects(instructor, grad, Assertion::DisjointNonIntegrable)?;
    session.assert_objects(instructor, student, Assertion::DisjointNonIntegrable)?;
    println!(
        "now: sc3.Instructor vs sc4.Student = {:?}",
        session.object_engine().known(instructor, student)
    );
    println!("\nconflict resolved; the assertion set is consistent.");
    Ok(())
}
