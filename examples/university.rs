//! The paper's full university example with every intermediate artifact:
//! OCS matrix, ACS class numbers, derived assertions, clusters, lattice,
//! provenance — a tour of the bookkeeping the tool performs for the DDA.
//!
//! ```text
//! cargo run --example university
//! ```

use sit::core::assertion::Assertion;
use sit::core::resemblance::ocs_matrix;
use sit::core::session::Session;
use sit::ecr::fixtures;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = Session::new();
    let sc1 = session.add_schema(fixtures::sc1())?;
    let sc2 = session.add_schema(fixtures::sc2())?;

    // Phase 2 with Screen 7's numbering made visible.
    session.declare_equivalent_named("sc1", "Student", "Name", "sc2", "Grad_student", "Name")?;
    session.declare_equivalent_named("sc1", "Student", "GPA", "sc2", "Grad_student", "GPA")?;
    session.declare_equivalent_named("sc1", "Student", "Name", "sc2", "Faculty", "Name")?;
    session.declare_equivalent_named("sc1", "Department", "Dname", "sc2", "Department", "Dname")?;

    println!("Eq_class numbers (Screen 7):");
    let catalog = session.catalog();
    for sid in [sc1, sc2] {
        for ga in catalog.attrs_of(sid) {
            println!(
                "  {:<28} class #{}",
                catalog.attr_display(ga),
                session.equivalences().class_no(ga).unwrap_or(0)
            );
        }
    }

    println!("\nOCS matrix (rows sc1 objects, columns sc2 objects):");
    let m = ocs_matrix(catalog, session.equivalences(), sc1, sc2);
    for (i, row) in m.iter().enumerate() {
        let name = &catalog
            .schema(sc1)
            .object(sit::ecr::ObjectId::new(i as u32))
            .name;
        println!("  {name:<12} {row:?}");
    }

    // Phase 3 — note the derivations the engine reports.
    let student = session.object_named("sc1", "Student")?;
    let grad = session.object_named("sc2", "Grad_student")?;
    let faculty = session.object_named("sc2", "Faculty")?;
    let dept1 = session.object_named("sc1", "Department")?;
    let dept2 = session.object_named("sc2", "Department")?;
    for (a, b, assertion) in [
        (dept1, dept2, Assertion::Equal),
        (student, grad, Assertion::Contains),
        (student, faculty, Assertion::DisjointIntegrable),
    ] {
        let derived = session.assert_objects(a, b, assertion)?;
        println!(
            "\nasserted {} {} {} -> {} derived",
            session.catalog().display(a),
            assertion,
            session.catalog().display(b),
            derived.len()
        );
        for d in derived {
            println!(
                "  derived: {} {} {}",
                session.catalog().display(d.a),
                d.rel,
                session.catalog().display(d.b)
            );
        }
    }

    // Phase 4 with provenance.
    let result = session.integrate(sc1, sc2, &Default::default())?;
    println!("\nclusters:");
    for (i, group) in result.object_clusters.groups().enumerate() {
        let names: Vec<String> = group
            .iter()
            .map(|&g| session.catalog().display(g))
            .collect();
        println!("  cluster {i}: {}", names.join(", "));
    }

    println!("\nintegrated objects with attribute provenance:");
    for (oid, obj) in result.schema.objects() {
        println!("  [{}]", obj.name);
        for (aid, attr) in obj.attributes.iter().enumerate() {
            let prov = &result.object_attr_prov[oid.index()][aid];
            let comps: Vec<String> = prov
                .components
                .iter()
                .map(|c| session.catalog().attr_display(c.attr))
                .collect();
            println!("    {:<14} <- {}", attr.name, comps.join(" + "));
        }
    }
    Ok(())
}
