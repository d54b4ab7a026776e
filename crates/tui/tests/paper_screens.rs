//! Scripted end-to-end sessions reproducing the paper's screens.
//!
//! Drives the tool exactly as a DDA at the terminal would — main menu,
//! equivalence specification, assertion entry, viewing — and checks the
//! rendered frames against the content of Screens 6–12.

use sit_core::session::Session;
use sit_ecr::fixtures;
use sit_tui::app::App;
use sit_tui::event::{keys, Event};

fn feed(app: &mut App, events: Vec<Event>) {
    for e in events {
        app.handle(e);
    }
}

/// App with sc1/sc2 pre-registered (phase 1 done) and tasks 2+3 driven
/// through the screens, ready for integration.
fn paper_app() -> App {
    let mut session = Session::new();
    session.add_schema(fixtures::sc1()).unwrap();
    session.add_schema(fixtures::sc2()).unwrap();
    let mut app = App::with_session(session);

    // Task 2: equivalences via Screens 6-7.
    feed(&mut app, keys("2"));
    feed(&mut app, vec![Event::text("sc1 sc2")]);
    // Student vs Grad_student: Name≡Name (1 1), GPA≡GPA (2 2).
    feed(&mut app, vec![Event::text("Student Grad_student")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("2 2")]);
    feed(&mut app, keys("e"));
    // Student vs Faculty: Name≡Name.
    feed(&mut app, vec![Event::text("Student Faculty")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("e"));
    // Department vs Department: Dname≡Dname.
    feed(&mut app, vec![Event::text("Department Department")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("e"));
    feed(&mut app, keys("e")); // back to main menu

    // Task 4: relationship attribute equivalence (Since ≡ Since).
    feed(&mut app, keys("4"));
    feed(&mut app, vec![Event::text("sc1 sc2")]);
    feed(&mut app, vec![Event::text("Majors Majors")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("e"));
    feed(&mut app, keys("e"));

    app
}

#[test]
fn screen7_equivalence_classes() {
    let mut session = Session::new();
    session.add_schema(fixtures::sc1()).unwrap();
    session.add_schema(fixtures::sc2()).unwrap();
    let mut app = App::with_session(session);
    feed(&mut app, keys("2"));
    feed(&mut app, vec![Event::text("sc1 sc2")]);
    feed(&mut app, vec![Event::text("Student Grad_student")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    let f = app.render();
    // Screen 7: sc1.Student.Name and sc2.Grad_student.Name share class 1;
    // GPA stays at 2 vs 6; Support_type at 7.
    assert!(f.contains("sc1.Student"), "{f}");
    assert!(f.contains("sc2.Grad_student"), "{f}");
    let name_row = f.find("1> Name").expect("name rows");
    let text = f.row_text(name_row);
    let ones = text.matches(" 1").count();
    assert!(ones >= 2, "both Name columns show class 1: {text}");
    let gpa_row = f.row_text(f.find("2> GPA").unwrap());
    assert!(gpa_row.contains('2') && gpa_row.contains('6'), "{gpa_row}");
    let sup_row = f.row_text(f.find("3> Support_type").unwrap());
    assert!(sup_row.contains('7'), "{sup_row}");
}

#[test]
fn screen8_ranked_rows_and_entry() {
    let mut app = paper_app();
    feed(&mut app, keys("3"));
    let f = app.render();
    assert!(f.contains("Assertion Collection"), "{f}");
    assert!(
        f.contains("sc1.Department") && f.contains("sc2.Department"),
        "{f}"
    );
    assert!(f.contains("0.5000"), "{f}");
    assert!(f.contains("0.3333"), "{f}");
    assert!(f.contains("'equals'"), "legend shown");
    // Enter the paper's codes: the ranked order is Department/Department,
    // Student/Grad_student, Student/Faculty.
    feed(&mut app, keys("134"));
    let f = app.render();
    assert!(f.contains("=>1"), "{f}");
    assert!(f.contains("=>3"), "{f}");
    assert!(f.contains("=>4"), "{f}");
    feed(&mut app, keys("e"));

    // Task 5: relationship assertion Majors ≡ Majors.
    feed(&mut app, keys("5"));
    let f = app.render();
    assert!(f.contains("sc1.Majors"), "{f}");
    feed(&mut app, keys("1e"));

    // Task 6: Screen 10.
    feed(&mut app, keys("6"));
    let f = app.render();
    assert!(f.contains("Entities(2)"), "{f}");
    assert!(f.contains("Categories(3)"), "{f}");
    assert!(f.contains("Relationships(2)"), "{f}");
    assert!(f.contains("E_Department"), "{f}");
    assert!(f.contains("D_Stud_Facu"), "{f}");
    assert!(f.contains("E_Stud_Majo"), "{f}");
    assert!(f.contains("Works"), "{f}");
}

#[test]
fn screen11_and_12_viewer_drilldown() {
    let mut app = paper_app();
    feed(&mut app, keys("3"));
    feed(&mut app, keys("134e"));
    feed(&mut app, keys("5"));
    feed(&mut app, keys("1e"));
    feed(&mut app, keys("6"));

    // Screen 11: Category Screen for Student.
    feed(&mut app, vec![Event::text("Student")]);
    feed(&mut app, keys("c"));
    let f = app.render();
    assert!(f.contains("Category Screen"), "{f}");
    assert!(f.contains("< Student >"), "{f}");
    assert!(f.contains("D_Stud_Facu (E)"), "{f}");
    assert!(f.contains("Grad_student (C)"), "{f}");

    // Attribute Screen for Student: D_Name derived.
    feed(&mut app, keys("a"));
    let f = app.render();
    assert!(f.contains("Attribute Screen"), "{f}");
    assert!(f.contains("D_Name"), "{f}");
    assert!(f.contains("yes"), "derived flag shown");

    // Screen 12a: first component of D_Name.
    feed(&mut app, keys("1"));
    let f = app.render();
    assert!(f.contains("COMPONENT ATTRIBUTE SCREEN"), "{f}");
    assert!(f.contains("< D_Name (1 of 2) >"), "{f}");
    assert!(f.contains(": sc1"), "{f}");
    assert!(f.contains(": YES"), "{f}");

    // Screen 12b: any key advances to the second component.
    feed(&mut app, keys(" "));
    let f = app.render();
    assert!(f.contains("< D_Name (2 of 2) >"), "{f}");
    assert!(f.contains(": sc2"), "{f}");
    assert!(f.contains(": Grad_student"), "{f}");

    // Any key returns to the Attribute Screen.
    feed(&mut app, keys(" "));
    assert!(app.render().contains("Attribute Screen"));
}

#[test]
fn attribute_screen_checks_the_number_and_o_opens_components() {
    let mut app = paper_app();
    feed(&mut app, keys("3"));
    feed(&mut app, keys("134e"));
    feed(&mut app, keys("5"));
    feed(&mut app, keys("1e"));
    feed(&mut app, keys("6"));
    feed(&mut app, vec![Event::text("E_Department")]);
    feed(&mut app, keys("a"));
    let f = app.render();
    assert!(f.contains("< E_Department : entity >"), "{f}");
    assert!(f.contains("1> D_Dname"), "{f}");
    assert!(!f.contains("2> "), "one attribute row: {f}");

    // Past the last row: stay on the screen and say why.
    for key in ["9", "2", "0"] {
        feed(&mut app, keys(key));
        let f = app.render();
        assert!(f.contains("< E_Department : entity >"), "{key}: {f}");
        assert!(f.contains("attribute number must be 1 to 1"), "{key}: {f}");
    }

    // `o`, as the prompt's c<O>mponents offers, opens the first row.
    feed(&mut app, keys("o"));
    let f = app.render();
    assert!(f.contains("COMPONENT ATTRIBUTE SCREEN"), "{f}");
    assert!(f.contains("< D_Dname (1 of 2) >"), "{f}");
    feed(&mut app, keys("q"));
    feed(&mut app, keys("1"));
    assert!(app.render().contains("< D_Dname (1 of 2) >"));
}

#[test]
fn screen9_conflict_and_repair() {
    let mut session = Session::new();
    session.add_schema(fixtures::sc3()).unwrap();
    session.add_schema(fixtures::sc4()).unwrap();
    let mut app = App::with_session(session);

    // Make the pair selectable (task 2 chooses the schemas), declaring
    // the Name attributes equivalent so the candidate list is non-empty.
    feed(&mut app, keys("2"));
    feed(&mut app, vec![Event::text("sc3 sc4")]);
    feed(&mut app, vec![Event::text("Instructor Grad_student")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("e"));
    feed(&mut app, vec![Event::text("Instructor Student")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("e"));
    feed(&mut app, keys("e"));

    feed(&mut app, keys("3"));
    let f = app.render();
    assert!(f.contains("sc3.Instructor"), "{f}");

    // The ranked rows are Instructor/Grad_student then Instructor/Student
    // (same ratio, definition order). Assert 2 (contained in) on the
    // first; Instructor ⊆ Student is derived via sc4's category edge.
    feed(&mut app, keys("2"));
    assert!(app.render().contains("derived"), "derivation reported");

    // Now assert 0 (disjoint non-integrable) on Instructor/Student:
    // Screen 9 appears with the derivation chain.
    feed(&mut app, keys("0"));
    let f = app.render();
    assert!(f.contains("Assertion Conflict Resolution"), "{f}");
    assert!(f.contains("<derived>(CONFLICT)"), "{f}");
    assert!(f.contains("<new>(CONFLICT)"), "{f}");
    assert!(
        f.contains("sc4.Grad_student"),
        "supporting fact listed: {f}"
    );

    // Repair by changing the earlier assertion (Instructor contained-in
    // Grad_student). The paper suggests "0" or "5"; our closure is
    // complete over the relation algebra and (correctly) still rejects
    // disjointness under "5" (overlap with a subset of Student forces a
    // non-empty intersection with Student), so the sound repair is "0".
    feed(&mut app, keys("c"));
    feed(
        &mut app,
        vec![Event::text("sc3.Instructor sc4.Grad_student 0")],
    );
    assert!(
        app.render().contains("Assertion Collection"),
        "back on Screen 8"
    );
    // The repaired pair now accepts the disjoint assertion.
    feed(&mut app, keys("0"));
    let f = app.render();
    assert!(!f.contains("CONFLICT"), "{f}");
}

#[test]
fn equivalent_screen_lists_merge_members() {
    let mut app = paper_app();
    feed(&mut app, keys("3"));
    feed(&mut app, keys("134e"));
    feed(&mut app, keys("5"));
    feed(&mut app, keys("1e"));
    feed(&mut app, keys("6"));
    feed(&mut app, vec![Event::text("E_Department")]);
    feed(&mut app, keys("e"));
    let f = app.render();
    assert!(f.contains("Entity Screen"), "{f}");
    feed(&mut app, keys("q"));
    let f = app.render();
    assert!(f.contains("Equivalent Screen"), "{f}");
    assert!(f.contains("sc1.Department"), "{f}");
    assert!(f.contains("sc2.Department"), "{f}");
}

#[test]
fn participating_objects_screen() {
    let mut app = paper_app();
    feed(&mut app, keys("3"));
    feed(&mut app, keys("134e"));
    feed(&mut app, keys("5"));
    feed(&mut app, keys("1e"));
    feed(&mut app, keys("6"));
    feed(&mut app, vec![Event::text("E_Stud_Majo")]);
    feed(&mut app, keys("r"));
    assert!(app.render().contains("Relationship Screen"));
    feed(&mut app, keys("p"));
    let f = app.render();
    assert!(f.contains("Participating Objects"), "{f}");
    assert!(f.contains("Student"), "{f}");
    assert!(f.contains("E_Department"), "{f}");
}
