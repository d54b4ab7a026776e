//! The paper's example schemas, exactly as used by its figures and screens.
//!
//! These fixtures drive the reproduction tests and the `figures` binary in
//! `sit-bench`:
//!
//! * [`sc1`] / [`sc2`] — Figures 3 and 4, the university schemas whose
//!   integration yields Figure 5.
//! * [`sc3`] / [`sc4`] — the schemas behind Screen 9's assertion conflict.
//! * `fig2_*` — the schema pairs of Figures 2a–2e illustrating the five
//!   assertion types.
//!
//! Each fixture is written in the DDL (exercising the parser) and panics
//! only on programmer error (the strings are constants).

use crate::ddl;
use crate::schema::Schema;

fn must(src: &str) -> Schema {
    ddl::parse(src).expect("fixture schemas are valid")
}

/// Figure 3 — input schema `sc1`: `Student(Name key, GPA)`,
/// `Department(Dname key)`, `Majors(Student, Department)` with one
/// relationship attribute (Screen 3 lists `Majors ... # of attributes: 1`).
pub fn sc1() -> Schema {
    must(
        r#"
    schema sc1 {
      entity Student {
        Name: char key;
        GPA: real;
      }
      entity Department {
        Dname: char key;
      }
      relationship Majors {
        Student (0,1);
        Department (0,n);
        Since: date;
      }
    }
    "#,
    )
}

/// Figure 4 — input schema `sc2`: `Grad_student(Name key, GPA,
/// Support_type)` (Screen 7), `Faculty(Name key, Rank)`,
/// `Department(Dname key)`, `Majors(Grad_student, Department)` and
/// `Works(Faculty, Department)` (both appear in Figure 5's integrated
/// schema as `E_Stud_Majo` and `Works`).
pub fn sc2() -> Schema {
    must(
        r#"
    schema sc2 {
      entity Grad_student {
        Name: char key;
        GPA: real;
        Support_type: char;
      }
      entity Faculty {
        Name: char key;
        Rank: char;
      }
      entity Department {
        Dname: char key;
      }
      relationship Majors {
        Grad_student (0,1);
        Department (0,n);
        Since: date;
      }
      relationship Works {
        Faculty (1,1);
        Department (0,n);
      }
    }
    "#,
    )
}

/// Screen 9's schema `sc3`: an `Instructor` entity set.
pub fn sc3() -> Schema {
    must(
        r#"
    schema sc3 {
      entity Instructor {
        Name: char key;
        Office: char;
      }
    }
    "#,
    )
}

/// Screen 9's schema `sc4`: `Student` with a `Grad_student` category —
/// the intra-schema containment `sc4.Grad_student ⊆ sc4.Student` shown on
/// line 4 of the Assertion Conflict Resolution Screen comes from this
/// category structure.
pub fn sc4() -> Schema {
    must(
        r#"
    schema sc4 {
      entity Student {
        Name: char key;
        GPA: real;
      }
      category Grad_student of Student {
        Support_type: char;
      }
    }
    "#,
    )
}

/// Figure 2a — two schemas each with a `Department` whose domains are
/// identical ("equals" assertion; integration merges them into
/// `E_Department`).
pub fn fig2a() -> (Schema, Schema) {
    let a = must(
        r#"
    schema sc1 {
      entity Department { Dname: char key; Budget: real; }
    }
    "#,
    );
    let b = must(
        r#"
    schema sc2 {
      entity Department { Dname: char key; Location: char; }
    }
    "#,
    );
    (a, b)
}

/// Figure 2b — `Student` (sc1) contains `Grad_student` (sc2); after
/// integration `Grad_student` becomes a category of `Student`.
pub fn fig2b() -> (Schema, Schema) {
    let a = must(
        r#"
    schema sc1 {
      entity Student { Name: char key; GPA: real; }
    }
    "#,
    );
    let b = must(
        r#"
    schema sc2 {
      entity Grad_student { Name: char key; Support_type: char; }
    }
    "#,
    );
    (a, b)
}

/// Figure 2c — `Grad_student` and `Instructor` overlap ("may be"
/// assertion); integration creates the derived entity set `D_Grad_Inst`
/// with both as categories.
pub fn fig2c() -> (Schema, Schema) {
    let a = must(
        r#"
    schema sc1 {
      entity Grad_student { Name: char key; Support_type: char; }
    }
    "#,
    );
    let b = must(
        r#"
    schema sc2 {
      entity Instructor { Name: char key; Course: char; }
    }
    "#,
    );
    (a, b)
}

/// Figure 2d — `Secretary` and `Engineer` are disjoint but integrable;
/// integration creates `D_Secr_Engi` (the concept of employee).
pub fn fig2d() -> (Schema, Schema) {
    let a = must(
        r#"
    schema sc1 {
      entity Secretary { Name: char key; Typing_speed: int; }
    }
    "#,
    );
    let b = must(
        r#"
    schema sc2 {
      entity Engineer { Name: char key; Discipline: char; }
    }
    "#,
    );
    (a, b)
}

/// Figure 2e — `Under_Grad_Student` and `Full_Professor` are disjoint and
/// non-integrable; integration keeps them separate.
pub fn fig2e() -> (Schema, Schema) {
    let a = must(
        r#"
    schema sc1 {
      entity Under_Grad_Student { Name: char key; Class_year: int; }
    }
    "#,
    );
    let b = must(
        r#"
    schema sc2 {
      entity Full_Professor { Name: char key; Chair: char; }
    }
    "#,
    );
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sc1_matches_screen3_inventory() {
        let s = sc1();
        // Screen 3: Student e 2, Department e 1, Majors r 1.
        let student = s.object(s.object_by_name("Student").unwrap());
        assert_eq!(student.attributes.len(), 2);
        let dept = s.object(s.object_by_name("Department").unwrap());
        assert_eq!(dept.attributes.len(), 1);
        let majors = s.relationship(s.rel_by_name("Majors").unwrap());
        assert_eq!(majors.attributes.len(), 1);
        // Screen 5: Name char key, GPA real non-key.
        assert!(student.attributes[0].is_key());
        assert_eq!(student.attributes[0].name, "Name");
        assert_eq!(student.attributes[1].name, "GPA");
        assert!(!student.attributes[1].is_key());
    }

    #[test]
    fn sc2_matches_screen7_attributes() {
        let s = sc2();
        let grad = s.object(s.object_by_name("Grad_student").unwrap());
        let names: Vec<&str> = grad.attributes.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["Name", "GPA", "Support_type"]);
    }

    #[test]
    fn sc4_has_intra_schema_containment() {
        let s = sc4();
        let grad = s.object(s.object_by_name("Grad_student").unwrap());
        assert!(grad.kind.is_category());
        let student = s.object_by_name("Student").unwrap();
        assert_eq!(grad.parents(), &[student]);
    }

    #[test]
    fn all_fixtures_valid_and_renderable() {
        for s in [sc1(), sc2(), sc3(), sc4()] {
            assert!(crate::validate::validate(&s).is_empty());
            assert!(!crate::render::render(&s).is_empty());
        }
        for (a, b) in [fig2a(), fig2b(), fig2c(), fig2d(), fig2e()] {
            assert!(crate::validate::validate(&a).is_empty());
            assert!(crate::validate::validate(&b).is_empty());
        }
    }

    #[test]
    fn fixtures_roundtrip_through_ddl() {
        for s in [sc1(), sc2(), sc3(), sc4()] {
            let text = crate::ddl::print(&s);
            assert_eq!(crate::ddl::parse(&text).unwrap(), s);
        }
    }
}
