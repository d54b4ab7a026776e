//! Global schema design for a federation: translate a relational and a
//! hierarchical database into ECR (the Navathe–Awong front end), integrate
//! them into one global schema, and route a global request to the
//! underlying databases — the paper's second context ("Several databases
//! already exist and are in use. The objective is to design a single
//! global schema...").
//!
//! ```text
//! cargo run --example federation
//! ```

use sit::core::assertion::Assertion;
use sit::core::catalog::GObj;
use sit::core::mapping::{Mappings, Query};
use sit::core::session::Session;
use sit::ecr::render;
use sit::translate::{HierSchema, RecordType, RelSchema, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Database 1: a relational personnel system.
    let mut personnel = RelSchema::new("personnel");
    personnel.table(
        Table::new("employee")
            .col_pk("emp_no", "int")
            .col("full_name", "char")
            .col("salary", "real")
            .col_fk("dept_no", "int", "department", "dept_no"),
    );
    personnel.table(
        Table::new("department")
            .col_pk("dept_no", "int")
            .col("dept_name", "char"),
    );
    personnel.table(
        Table::new("manager")
            .col_pk_fk("emp_no", "int", "employee", "emp_no")
            .col("bonus", "real"),
    );
    let personnel_ecr = personnel.to_ecr()?;
    println!("--- personnel (relational -> ECR) ---");
    print!("{}", render::render(&personnel_ecr));

    // Database 2: a hierarchical project-tracking system.
    let mut projects = HierSchema::new("projects");
    projects.record(
        RecordType::root("division")
            .seq_field("div_no", "int")
            .field("division_name", "char"),
    );
    projects.record(
        RecordType::child("project", "division")
            .seq_field("proj_no", "int")
            .field("title", "char"),
    );
    projects.record(
        RecordType::root("worker")
            .seq_field("worker_no", "int")
            .field("name", "char")
            .field("wage", "real"),
    );
    projects.record(RecordType::child("assignment", "project").virtually_under("worker"));
    let projects_ecr = projects.to_ecr()?;
    println!("\n--- projects (hierarchical -> ECR) ---");
    print!("{}", render::render(&projects_ecr));

    // Integrate into the global schema.
    let mut session = Session::new();
    let p = session.add_schema(personnel_ecr)?;
    let q = session.add_schema(projects_ecr)?;

    session.declare_equivalent_named(
        "personnel",
        "employee",
        "emp_no",
        "projects",
        "worker",
        "worker_no",
    )?;
    session.declare_equivalent_named(
        "personnel",
        "employee",
        "full_name",
        "projects",
        "worker",
        "name",
    )?;
    session.declare_equivalent_named(
        "personnel",
        "employee",
        "salary",
        "projects",
        "worker",
        "wage",
    )?;
    session.declare_equivalent_named(
        "personnel",
        "department",
        "dept_no",
        "projects",
        "division",
        "div_no",
    )?;
    session.declare_equivalent_named(
        "personnel",
        "department",
        "dept_name",
        "projects",
        "division",
        "division_name",
    )?;

    println!("\nranked candidates:");
    for pair in session.candidates::<GObj>(p, q) {
        println!(
            "  {:<24} {:<22} {:.4}",
            session.catalog().display(pair.left),
            session.catalog().display(pair.right),
            pair.ratio
        );
    }

    // Every employee is a worker somewhere in the enterprise, but not
    // every project worker is on the payroll database: containment.
    let employee = session.object_named("personnel", "employee")?;
    let worker = session.object_named("projects", "worker")?;
    session.assert_objects(worker, employee, Assertion::Contains)?;
    // Departments and divisions are the same organisational units.
    let dept = session.object_named("personnel", "department")?;
    let division = session.object_named("projects", "division")?;
    session.assert_objects(dept, division, Assertion::Equal)?;

    let result = session.integrate(p, q, &Default::default())?;
    let mappings = Mappings::new(session.catalog(), &result);
    println!("\n--- global schema ---");
    print!("{}", render::render(&result.schema));

    // A global request routes to the component database that carries the
    // class (every employee is also a project worker, so the merged name
    // attribute D_name_full lives on `worker`).
    let global = Query::select("worker", &["D_name_full"]);
    println!("\nglobal request: {global}");
    println!("fan-out:\n{}", mappings.to_components(&global)?);

    // A view request from the personnel database side maps up through the
    // absorbed attribute.
    let view = Query::select("employee", &["full_name"]);
    println!("\nview request  : [personnel] {view}");
    println!(
        "against global: {}",
        mappings.to_integrated("personnel", &view)?
    );
    Ok(())
}
