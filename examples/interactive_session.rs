//! A complete scripted session with the interactive tool, printing the
//! screens a DDA would see: schema collection through the forms, the
//! equivalence and assertion screens, and the integrated-schema viewer —
//! the full dialogue of the paper's §3 driven deterministically.
//!
//! ```text
//! cargo run --example interactive_session
//! ```

use sit::tui::app::App;
use sit::tui::event::{keys, Event};

fn feed(app: &mut App, events: Vec<Event>, show: bool) {
    for e in events {
        app.handle(e);
        if show {
            println!("{}", app.render());
        }
    }
}

fn quiet(app: &mut App, events: Vec<Event>) {
    feed(app, events, false);
}

fn show(app: &App, caption: &str) {
    println!("\n════ {caption} ════");
    println!("{}", app.render());
}

fn main() {
    let mut app = App::new();
    show(&app, "Screen 1: main menu");

    // ---- Task 1: collect sc1 through Screens 2-5 -------------------
    quiet(&mut app, keys("1a"));
    quiet(&mut app, vec![Event::text("sc1")]);
    quiet(&mut app, keys("a"));
    quiet(&mut app, vec![Event::text("Student")]);
    quiet(&mut app, keys("e"));
    quiet(
        &mut app,
        vec![
            Event::text("Name char key"),
            Event::text("GPA real"),
            Event::text(""),
        ],
    );
    quiet(&mut app, keys("a"));
    quiet(&mut app, vec![Event::text("Department")]);
    quiet(&mut app, keys("e"));
    quiet(
        &mut app,
        vec![Event::text("Dname char key"), Event::text("")],
    );
    quiet(&mut app, keys("a"));
    quiet(&mut app, vec![Event::text("Majors")]);
    quiet(&mut app, keys("r"));
    quiet(
        &mut app,
        vec![
            Event::text("Student (0,1)"),
            Event::text("Department (0,n)"),
            Event::text(""),
            Event::text("Since date"),
        ],
    );
    show(&app, "Screen 5: collecting Majors' attributes");
    quiet(&mut app, vec![Event::text("")]);
    show(&app, "Screen 3: sc1's structures collected");
    quiet(&mut app, keys("e"));

    // sc2 (collected the same way, quieter).
    quiet(&mut app, keys("a"));
    quiet(&mut app, vec![Event::text("sc2")]);
    for (name, kind, fields) in [
        (
            "Grad_student",
            "e",
            vec!["Name char key", "GPA real", "Support_type char"],
        ),
        ("Faculty", "e", vec!["Name char key", "Rank char"]),
        ("Department", "e", vec!["Dname char key"]),
    ] {
        quiet(&mut app, keys("a"));
        quiet(&mut app, vec![Event::text(name)]);
        quiet(&mut app, keys(kind));
        let mut evs: Vec<Event> = fields.into_iter().map(Event::text).collect();
        evs.push(Event::text(""));
        quiet(&mut app, evs);
    }
    quiet(&mut app, keys("a"));
    quiet(&mut app, vec![Event::text("Majors")]);
    quiet(&mut app, keys("r"));
    quiet(
        &mut app,
        vec![
            Event::text("Grad_student (0,1)"),
            Event::text("Department (0,n)"),
            Event::text(""),
            Event::text("Since date"),
            Event::text(""),
        ],
    );
    quiet(&mut app, keys("a"));
    quiet(&mut app, vec![Event::text("Works")]);
    quiet(&mut app, keys("r"));
    quiet(
        &mut app,
        vec![
            Event::text("Faculty (1,1)"),
            Event::text("Department (0,n)"),
            Event::text(""),
            Event::text(""),
        ],
    );
    quiet(&mut app, keys("ee"));
    show(&app, "Screen 2: both schemas defined");
    quiet(&mut app, keys("e"));

    // ---- Task 2: attribute equivalences (Screens 6-7) --------------
    quiet(&mut app, keys("2"));
    quiet(&mut app, vec![Event::text("sc1 sc2")]);
    quiet(&mut app, vec![Event::text("Student Grad_student")]);
    quiet(&mut app, keys("a"));
    quiet(&mut app, vec![Event::text("1 1")]);
    quiet(&mut app, keys("a"));
    quiet(&mut app, vec![Event::text("2 2")]);
    show(&app, "Screen 7: Student/Grad_student equivalence classes");
    quiet(&mut app, keys("e"));
    quiet(&mut app, vec![Event::text("Student Faculty")]);
    quiet(&mut app, keys("a"));
    quiet(&mut app, vec![Event::text("1 1")]);
    quiet(&mut app, keys("e"));
    quiet(&mut app, vec![Event::text("Department Department")]);
    quiet(&mut app, keys("a"));
    quiet(&mut app, vec![Event::text("1 1")]);
    quiet(&mut app, keys("ee"));

    // ---- Task 4: relationship attribute equivalence ----------------
    quiet(&mut app, keys("4"));
    quiet(&mut app, vec![Event::text("sc1 sc2")]);
    quiet(&mut app, vec![Event::text("Majors Majors")]);
    quiet(&mut app, keys("a"));
    quiet(&mut app, vec![Event::text("1 1")]);
    quiet(&mut app, keys("ee"));

    // ---- Task 3: object assertions (Screen 8) ----------------------
    quiet(&mut app, keys("3"));
    show(&app, "Screen 8: ranked object pairs with attribute ratios");
    quiet(&mut app, keys("134"));
    show(&app, "Screen 8: assertions entered (1, 3, 4)");
    quiet(&mut app, keys("e"));

    // ---- Task 5: relationship assertions ----------------------------
    quiet(&mut app, keys("5"));
    quiet(&mut app, keys("1e"));

    // ---- Task 6: the viewer (Screens 10-12) -------------------------
    quiet(&mut app, keys("6"));
    show(&app, "Screen 10: the integrated schema (Figure 5)");
    quiet(&mut app, vec![Event::text("Student")]);
    quiet(&mut app, keys("c"));
    show(&app, "Screen 11: category screen for Student");
    quiet(&mut app, keys("a"));
    show(&app, "Attribute screen for Student");
    quiet(&mut app, keys("1"));
    show(&app, "Screen 12a: first component of D_Name");
    quiet(&mut app, keys(" "));
    show(&app, "Screen 12b: second component of D_Name");
}
