//! The concept pool: prototypical object classes that generated schemas
//! render.
//!
//! A *concept* is a real-world class with a canonical name, naming
//! alternates (synonyms and abbreviations a designer might use), and a
//! list of prototypical attributes. The built-in pool covers the
//! university/company world of the paper's examples; pools extend
//! themselves with systematically named synthetic concepts when a workload
//! asks for more concepts than the hand-written ones.

use sit_ecr::Domain;

/// A prototypical attribute of a concept.
#[derive(Clone, Debug)]
pub struct ConceptAttr {
    /// Canonical attribute name.
    pub name: String,
    /// Naming alternates designers use for the same attribute.
    pub alternates: Vec<String>,
    /// Domain.
    pub domain: Domain,
    /// Key attribute?
    pub key: bool,
}

impl ConceptAttr {
    fn new(name: &str, alternates: &[&str], domain: Domain, key: bool) -> Self {
        Self {
            name: name.to_owned(),
            alternates: alternates.iter().map(|s| (*s).to_owned()).collect(),
            domain,
            key,
        }
    }
}

/// A prototypical object class.
#[derive(Clone, Debug)]
pub struct Concept {
    /// Canonical concept name.
    pub name: String,
    /// Naming alternates (synonyms/abbreviations).
    pub alternates: Vec<String>,
    /// Prototypical attributes.
    pub attrs: Vec<ConceptAttr>,
}

impl Concept {
    fn new(name: &str, alternates: &[&str], attrs: Vec<ConceptAttr>) -> Self {
        Self {
            name: name.to_owned(),
            alternates: alternates.iter().map(|s| (*s).to_owned()).collect(),
            attrs,
        }
    }
}

/// An ordered pool of concepts.
#[derive(Clone, Debug)]
pub struct ConceptPool {
    concepts: Vec<Concept>,
}

impl ConceptPool {
    /// The built-in university/company pool (24 hand-written concepts).
    pub fn builtin() -> Self {
        use Domain::*;
        let a = ConceptAttr::new;
        let concepts = vec![
            Concept::new(
                "Student",
                &["Pupil", "Learner"],
                vec![
                    a("student_id", &["sid", "student_no"], Int, true),
                    a("name", &["full_name", "student_name"], Char, false),
                    a("gpa", &["grade_point_avg"], Real, false),
                    a("birth_date", &["dob"], Date, false),
                ],
            ),
            Concept::new(
                "Faculty",
                &["Instructor", "Professor", "Teacher"],
                vec![
                    a("faculty_id", &["fid", "teacher_no"], Int, true),
                    a("name", &["full_name"], Char, false),
                    a("rank", &["title"], Char, false),
                    a("salary", &["wage", "pay"], Real, false),
                ],
            ),
            Concept::new(
                "Department",
                &["Dept", "Division"],
                vec![
                    a("dept_no", &["dno", "department_number"], Int, true),
                    a("dname", &["dept_name", "department_name"], Char, false),
                    a("budget", &["funds"], Real, false),
                ],
            ),
            Concept::new(
                "Course",
                &["Class", "Subject"],
                vec![
                    a("course_no", &["cno", "course_number"], Int, true),
                    a("title", &["course_title", "name"], Char, false),
                    a("credits", &["credit_hours"], Int, false),
                ],
            ),
            Concept::new(
                "Employee",
                &["Worker", "Staff"],
                vec![
                    a("ssn", &["emp_id", "employee_no"], Int, true),
                    a("name", &["emp_name"], Char, false),
                    a("salary", &["wage"], Real, false),
                    a("hire_date", &["start_date"], Date, false),
                ],
            ),
            Concept::new(
                "Project",
                &["Proj", "Venture"],
                vec![
                    a("proj_no", &["pno", "project_number"], Int, true),
                    a("pname", &["proj_name", "project_name"], Char, false),
                    a("deadline", &["due_date"], Date, false),
                ],
            ),
            Concept::new(
                "Building",
                &["Facility"],
                vec![
                    a("building_no", &["bno"], Int, true),
                    a("address", &["location"], Char, false),
                    a("floors", &["storeys"], Int, false),
                ],
            ),
            Concept::new(
                "Library",
                &["Archive"],
                vec![
                    a("library_id", &["lib_no"], Int, true),
                    a("name", &["lib_name"], Char, false),
                    a("volumes", &["book_count"], Int, false),
                ],
            ),
            Concept::new(
                "Book",
                &["Volume", "Publication"],
                vec![
                    a("isbn", &["book_no"], Char, true),
                    a("title", &["book_title"], Char, false),
                    a("year", &["pub_year"], Int, false),
                ],
            ),
            Concept::new(
                "Laboratory",
                &["Lab"],
                vec![
                    a("lab_id", &["lab_no"], Int, true),
                    a("name", &["lab_name"], Char, false),
                    a("capacity", &["seats"], Int, false),
                ],
            ),
            Concept::new(
                "Grant",
                &["Award", "Funding"],
                vec![
                    a("grant_no", &["award_no"], Int, true),
                    a("amount", &["total"], Real, false),
                    a("sponsor", &["agency"], Char, false),
                ],
            ),
            Concept::new(
                "Customer",
                &["Client", "Patron"],
                vec![
                    a("customer_no", &["cust_id", "client_no"], Int, true),
                    a("name", &["cust_name"], Char, false),
                    a("phone", &["telephone", "tel"], Char, false),
                ],
            ),
            Concept::new(
                "Order",
                &["Purchase"],
                vec![
                    a("order_no", &["ord_id"], Int, true),
                    a("placed", &["order_date"], Date, false),
                    a("total", &["amount"], Real, false),
                ],
            ),
            Concept::new(
                "Product",
                &["Item", "Article"],
                vec![
                    a("product_no", &["prod_id", "item_no"], Int, true),
                    a("description", &["desc"], Char, false),
                    a("price", &["unit_price", "cost"], Real, false),
                ],
            ),
            Concept::new(
                "Supplier",
                &["Vendor", "Provider"],
                vec![
                    a("supplier_no", &["vendor_id"], Int, true),
                    a("name", &["vendor_name"], Char, false),
                    a("city", &["location"], Char, false),
                ],
            ),
            Concept::new(
                "Warehouse",
                &["Depot", "Storehouse"],
                vec![
                    a("warehouse_no", &["wh_id"], Int, true),
                    a("address", &["location"], Char, false),
                    a("capacity", &["volume"], Int, false),
                ],
            ),
            Concept::new(
                "Vehicle",
                &["Car", "Automobile"],
                vec![
                    a("vin", &["vehicle_no"], Char, true),
                    a("model", &["make_model"], Char, false),
                    a("year", &["model_year"], Int, false),
                ],
            ),
            Concept::new(
                "Patient",
                &["Case"],
                vec![
                    a("patient_id", &["pat_no"], Int, true),
                    a("name", &["patient_name"], Char, false),
                    a("admitted", &["admission_date"], Date, false),
                ],
            ),
            Concept::new(
                "Doctor",
                &["Physician", "Clinician"],
                vec![
                    a("doctor_id", &["doc_no"], Int, true),
                    a("name", &["doctor_name"], Char, false),
                    a("specialty", &["speciality", "field"], Char, false),
                ],
            ),
            Concept::new(
                "Ward",
                &["Unit"],
                vec![
                    a("ward_no", &["unit_no"], Int, true),
                    a("name", &["ward_name"], Char, false),
                    a("beds", &["bed_count"], Int, false),
                ],
            ),
            Concept::new(
                "Flight",
                &["Trip"],
                vec![
                    a("flight_no", &["flt_no"], Char, true),
                    a("origin", &["from_airport"], Char, false),
                    a("destination", &["to_airport"], Char, false),
                ],
            ),
            Concept::new(
                "Passenger",
                &["Traveler"],
                vec![
                    a("passenger_id", &["pax_no"], Int, true),
                    a("name", &["passenger_name"], Char, false),
                    a("frequent_flyer", &["ff_no"], Char, false),
                ],
            ),
            Concept::new(
                "Account",
                &["Ledger"],
                vec![
                    a("account_no", &["acct_id"], Int, true),
                    a("balance", &["current_balance"], Real, false),
                    a("opened", &["open_date"], Date, false),
                ],
            ),
            Concept::new(
                "Branch",
                &["Office", "Outlet"],
                vec![
                    a("branch_no", &["office_id"], Int, true),
                    a("city", &["location"], Char, false),
                    a("manager", &["mgr_name"], Char, false),
                ],
            ),
        ];
        Self { concepts }
    }

    /// Number of concepts currently in the pool.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// `true` when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// The concepts.
    pub fn concepts(&self) -> &[Concept] {
        &self.concepts
    }

    /// Concept by index.
    pub fn get(&self, i: usize) -> &Concept {
        &self.concepts[i]
    }

    /// Grow the pool to at least `n` concepts by appending systematically
    /// named synthetic concepts (each with a key and three data
    /// attributes, plus deterministic naming alternates).
    pub fn ensure(&mut self, n: usize) {
        use Domain::*;
        while self.concepts.len() < n {
            let i = self.concepts.len();
            let name = format!("Concept{i}");
            let alternates = vec![format!("Cncpt{i}"), format!("Notion{i}")];
            let attrs = vec![
                ConceptAttr::new(
                    &format!("c{i}_id"),
                    &[&format!("c{i}_no"), &format!("concept{i}_key")],
                    Int,
                    true,
                ),
                ConceptAttr::new(
                    &format!("c{i}_label"),
                    &[&format!("c{i}_name")],
                    Char,
                    false,
                ),
                ConceptAttr::new(
                    &format!("c{i}_value"),
                    &[&format!("c{i}_amount")],
                    Real,
                    false,
                ),
                ConceptAttr::new(&format!("c{i}_when"), &[&format!("c{i}_date")], Date, false),
            ];
            self.concepts.push(Concept {
                name,
                alternates,
                attrs,
            });
        }
    }
}

impl Default for ConceptPool {
    fn default() -> Self {
        Self::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_pool_is_well_formed() {
        let pool = ConceptPool::builtin();
        assert!(pool.len() >= 20);
        for c in pool.concepts() {
            assert!(!c.attrs.is_empty(), "{} has attributes", c.name);
            assert!(
                c.attrs.iter().filter(|a| a.key).count() == 1,
                "{} has exactly one key",
                c.name
            );
            // Names unique within the concept.
            let mut names: Vec<&str> = c.attrs.iter().map(|a| a.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), c.attrs.len(), "{}", c.name);
        }
        // Concept names unique.
        let mut names: Vec<&str> = pool.concepts().iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), pool.len());
    }

    #[test]
    fn ensure_extends_deterministically() {
        let mut pool = ConceptPool::builtin();
        let base = pool.len();
        pool.ensure(base + 10);
        assert_eq!(pool.len(), base + 10);
        assert_eq!(pool.get(base).name, format!("Concept{base}"));
        // Idempotent.
        pool.ensure(base);
        assert_eq!(pool.len(), base + 10);
    }
}
