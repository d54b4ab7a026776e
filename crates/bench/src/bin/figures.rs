//! Regenerate every figure and screen of the paper from the engine.
//!
//! ```text
//! figures            # print everything
//! figures --fig 2a   # one of: 2a 2b 2c 2d 2e 5
//! figures --screen 8 # one of: 1 7 8 9 10 11 12
//! ```
//!
//! Output is deterministic; EXPERIMENTS.md quotes it as the measured side
//! of the paper-vs-measured comparison.

use sit_core::assertion::Assertion;
use sit_core::catalog::GRel;
use sit_core::session::Session;
use sit_ecr::{fixtures, render};
use sit_tui::app::App;
use sit_tui::event::{keys, Event};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let select = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    match (select("--fig"), select("--screen")) {
        (Some(fig), _) => print_figure(&fig),
        (_, Some(screen)) => print_screen(&screen),
        _ => {
            for fig in ["2a", "2b", "2c", "2d", "2e", "5"] {
                print_figure(fig);
            }
            for screen in ["1", "7", "8", "9", "10", "11", "12"] {
                print_screen(screen);
            }
        }
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn print_figure(which: &str) {
    match which {
        "2a" => {
            banner("Figure 2a: identical domains (equals) -> E_Department");
            let (a, b) = fixtures::fig2a();
            let mut s = Session::new();
            let (sa, sb) = (s.add_schema(a).unwrap(), s.add_schema(b).unwrap());
            s.declare_equivalent_named("sc1", "Department", "Dname", "sc2", "Department", "Dname")
                .unwrap();
            let d1 = s.object_named("sc1", "Department").unwrap();
            let d2 = s.object_named("sc2", "Department").unwrap();
            s.assert_objects(d1, d2, Assertion::Equal).unwrap();
            print_before_after(&s, sa, sb);
        }
        "2b" => {
            banner("Figure 2b: contained domains (contains) -> Grad_student under Student");
            let (a, b) = fixtures::fig2b();
            let mut s = Session::new();
            let (sa, sb) = (s.add_schema(a).unwrap(), s.add_schema(b).unwrap());
            s.declare_equivalent_named("sc1", "Student", "Name", "sc2", "Grad_student", "Name")
                .unwrap();
            let student = s.object_named("sc1", "Student").unwrap();
            let grad = s.object_named("sc2", "Grad_student").unwrap();
            s.assert_objects(student, grad, Assertion::Contains)
                .unwrap();
            print_before_after(&s, sa, sb);
        }
        "2c" => {
            banner("Figure 2c: overlapping domains (may be) -> D_Grad_Inst");
            let (a, b) = fixtures::fig2c();
            let mut s = Session::new();
            let (sa, sb) = (s.add_schema(a).unwrap(), s.add_schema(b).unwrap());
            s.declare_equivalent_named("sc1", "Grad_student", "Name", "sc2", "Instructor", "Name")
                .unwrap();
            let grad = s.object_named("sc1", "Grad_student").unwrap();
            let inst = s.object_named("sc2", "Instructor").unwrap();
            s.assert_objects(grad, inst, Assertion::MayBe).unwrap();
            print_before_after(&s, sa, sb);
        }
        "2d" => {
            banner("Figure 2d: disjoint but integrable -> D_Secr_Engi");
            let (a, b) = fixtures::fig2d();
            let mut s = Session::new();
            let (sa, sb) = (s.add_schema(a).unwrap(), s.add_schema(b).unwrap());
            let secr = s.object_named("sc1", "Secretary").unwrap();
            let engi = s.object_named("sc2", "Engineer").unwrap();
            s.assert_objects(secr, engi, Assertion::DisjointIntegrable)
                .unwrap();
            print_before_after(&s, sa, sb);
        }
        "2e" => {
            banner("Figure 2e: disjoint & non-integrable -> kept separate");
            let (a, b) = fixtures::fig2e();
            let mut s = Session::new();
            let (sa, sb) = (s.add_schema(a).unwrap(), s.add_schema(b).unwrap());
            let ugs = s.object_named("sc1", "Under_Grad_Student").unwrap();
            let prof = s.object_named("sc2", "Full_Professor").unwrap();
            s.assert_objects(ugs, prof, Assertion::DisjointNonIntegrable)
                .unwrap();
            print_before_after(&s, sa, sb);
        }
        "5" => {
            banner("Figure 5: integrated schema of sc1 (Fig 3) and sc2 (Fig 4)");
            let s = paper_session();
            let sa = s.catalog().by_name("sc1").unwrap();
            let sb = s.catalog().by_name("sc2").unwrap();
            println!("--- input schema sc1 (Figure 3) ---");
            print!("{}", render::render(s.catalog().schema(sa)));
            println!("--- input schema sc2 (Figure 4) ---");
            print!("{}", render::render(s.catalog().schema(sb)));
            let result = s.integrate(sa, sb, &Default::default()).unwrap();
            println!("--- integrated schema (Figure 5) ---");
            print!("{}", render::render(&result.schema));
        }
        other => eprintln!("unknown figure `{other}` (use 2a..2e or 5)"),
    }
}

fn print_before_after(s: &Session, sa: sit_ecr::SchemaId, sb: sit_ecr::SchemaId) {
    println!("--- before ---");
    print!("{}", render::render(s.catalog().schema(sa)));
    print!("{}", render::render(s.catalog().schema(sb)));
    let result = s.integrate(sa, sb, &Default::default()).unwrap();
    println!("--- after ---");
    print!("{}", render::render(&result.schema));
}

/// The paper's running session: sc1+sc2 with the Screen 7/8 inputs applied
/// through the programmatic API.
fn paper_session() -> Session {
    let mut s = Session::new();
    s.add_schema(fixtures::sc1()).unwrap();
    s.add_schema(fixtures::sc2()).unwrap();
    for (o1, a1, o2, a2) in [
        ("Student", "Name", "Grad_student", "Name"),
        ("Student", "GPA", "Grad_student", "GPA"),
        ("Student", "Name", "Faculty", "Name"),
        ("Department", "Dname", "Department", "Dname"),
        ("Majors", "Since", "Majors", "Since"),
    ] {
        s.declare_equivalent_named("sc1", o1, a1, "sc2", o2, a2)
            .unwrap();
    }
    let at = |s: &Session, n: &str, o: &str| s.object_named(n, o).unwrap();
    let d1 = at(&s, "sc1", "Department");
    let d2 = at(&s, "sc2", "Department");
    let student = at(&s, "sc1", "Student");
    let grad = at(&s, "sc2", "Grad_student");
    let faculty = at(&s, "sc2", "Faculty");
    s.assert_objects(d1, d2, Assertion::Equal).unwrap();
    s.assert_objects(student, grad, Assertion::Contains)
        .unwrap();
    s.assert_objects(student, faculty, Assertion::DisjointIntegrable)
        .unwrap();
    let m1 = s.named::<GRel>("sc1", "Majors").unwrap();
    let m2 = s.named::<GRel>("sc2", "Majors").unwrap();
    s.assert(m1, m2, Assertion::Equal).unwrap();
    s
}

fn paper_session_schemas_only() -> Session {
    let mut s = Session::new();
    s.add_schema(fixtures::sc1()).unwrap();
    s.add_schema(fixtures::sc2()).unwrap();
    s
}

fn feed(app: &mut App, events: Vec<Event>) {
    for e in events {
        app.handle(e);
    }
}

/// Drive the TUI through tasks 2/4 with the paper's equivalences.
fn tui_after_equivalences() -> App {
    let mut app = App::with_session(paper_session_schemas_only());
    feed(&mut app, keys("2"));
    feed(&mut app, vec![Event::text("sc1 sc2")]);
    feed(&mut app, vec![Event::text("Student Grad_student")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("2 2")]);
    feed(&mut app, keys("e"));
    feed(&mut app, vec![Event::text("Student Faculty")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("e"));
    feed(&mut app, vec![Event::text("Department Department")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("ee"));
    feed(&mut app, keys("4"));
    feed(&mut app, vec![Event::text("sc1 sc2")]);
    feed(&mut app, vec![Event::text("Majors Majors")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("ee"));
    app
}

/// Drive all the way to the viewer (task 6).
fn viewer_app() -> App {
    let mut app = tui_after_equivalences();
    feed(&mut app, keys("3"));
    feed(&mut app, keys("134e"));
    feed(&mut app, keys("5"));
    feed(&mut app, keys("1e"));
    feed(&mut app, keys("6"));
    app
}

fn print_screen(which: &str) {
    match which {
        "1" => {
            banner("Screen 1: main menu");
            print!("{}", App::new().render());
        }
        "7" => {
            banner("Screen 7: equivalence class creation and deletion");
            let mut app = App::with_session(paper_session_schemas_only());
            feed(&mut app, keys("2"));
            feed(&mut app, vec![Event::text("sc1 sc2")]);
            feed(&mut app, vec![Event::text("Student Grad_student")]);
            feed(&mut app, keys("a"));
            feed(&mut app, vec![Event::text("1 1")]);
            print!("{}", app.render());
        }
        "8" => {
            banner("Screen 8: assertion collection for object pairs");
            let mut app = tui_after_equivalences();
            feed(&mut app, keys("3"));
            feed(&mut app, keys("13"));
            print!("{}", app.render());
        }
        "9" => {
            banner("Screen 9: assertion conflict resolution (sc3/sc4)");
            let mut session = Session::new();
            session.add_schema(fixtures::sc3()).unwrap();
            session.add_schema(fixtures::sc4()).unwrap();
            let mut app = App::with_session(session);
            feed(&mut app, keys("2"));
            feed(&mut app, vec![Event::text("sc3 sc4")]);
            feed(&mut app, vec![Event::text("Instructor Grad_student")]);
            feed(&mut app, keys("a"));
            feed(&mut app, vec![Event::text("1 1")]);
            feed(&mut app, keys("e"));
            feed(&mut app, vec![Event::text("Instructor Student")]);
            feed(&mut app, keys("a"));
            feed(&mut app, vec![Event::text("1 1")]);
            feed(&mut app, keys("ee"));
            feed(&mut app, keys("3"));
            feed(&mut app, keys("20"));
            print!("{}", app.render());
        }
        "10" => {
            banner("Screen 10: object class screen");
            print!("{}", viewer_app().render());
        }
        "11" => {
            banner("Screen 11: category screen for Student");
            let mut app = viewer_app();
            feed(&mut app, vec![Event::text("Student")]);
            feed(&mut app, keys("c"));
            print!("{}", app.render());
        }
        "12" => {
            banner("Screens 12a/12b: component attribute screens for D_Name");
            let mut app = viewer_app();
            feed(&mut app, vec![Event::text("Student")]);
            feed(&mut app, keys("a1"));
            print!("{}", app.render());
            feed(&mut app, keys(" "));
            print!("{}", app.render());
        }
        other => eprintln!("unknown screen `{other}` (use 1, 7..12)"),
    }
}
