//! Interaction details of the tool: scrolling, equivalence-class deletion,
//! assertion skipping, the relationship-side screens (tasks 4/5), and
//! error statuses — the paths the paper-session test doesn't exercise.

use sit_core::assertion::Assertion;
use sit_core::session::Session;
use sit_core::GObj;
use sit_ecr::{ddl, fixtures};
use sit_tui::app::App;
use sit_tui::event::{keys, Event};

fn feed(app: &mut App, events: Vec<Event>) {
    for e in events {
        app.handle(e);
    }
}

#[test]
fn structure_screen_scrolls_and_wraps() {
    let mut app = App::new();
    feed(&mut app, keys("1a"));
    feed(&mut app, vec![Event::text("big")]);
    // Add 13 entities — more than the 10-row page.
    for i in 0..13 {
        feed(&mut app, keys("a"));
        feed(&mut app, vec![Event::text(format!("E{i:02}"))]);
        feed(&mut app, keys("e"));
        feed(&mut app, vec![Event::text("")]);
    }
    let f = app.render();
    assert!(f.contains("1> E00"), "{f}");
    assert!(!f.contains("12> E11"), "first page ends at 10: {f}");
    // Scroll: the second page appears.
    feed(&mut app, keys("s"));
    let f = app.render();
    assert!(f.contains("11> E10"), "{f}");
    assert!(f.contains("13> E12"), "{f}");
    assert!(!f.contains("1> E00"), "{f}");
    // Scrolling past the end wraps to the top.
    feed(&mut app, keys("s"));
    assert!(app.render().contains("1> E00"));
}

#[test]
fn equivalence_delete_restores_singleton_class() {
    let mut session = Session::new();
    session.add_schema(fixtures::sc1()).unwrap();
    session.add_schema(fixtures::sc2()).unwrap();
    let mut app = App::with_session(session);
    feed(&mut app, keys("2"));
    feed(&mut app, vec![Event::text("sc1 sc2")]);
    feed(&mut app, vec![Event::text("Student Grad_student")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    // Both Name rows now share class 1.
    let f = app.render();
    let row = f.row_text(f.find("1> Name").unwrap());
    assert!(row.matches(" 1").count() >= 2, "{row}");
    // Delete side 2's attribute 1 from its class.
    feed(&mut app, keys("d"));
    feed(&mut app, vec![Event::text("2 1")]);
    assert!(app.render().contains("removed from its class"));
    // Grad_student.Name shows its original number (5) again.
    let f = app.render();
    let row = f.row_text(f.find("1> Name").unwrap());
    assert!(row.contains('5'), "{row}");
}

#[test]
fn assertion_skip_cycles_rows() {
    let mut session = Session::new();
    session.add_schema(fixtures::sc1()).unwrap();
    session.add_schema(fixtures::sc2()).unwrap();
    let mut app = App::with_session(session);
    feed(&mut app, keys("2"));
    feed(&mut app, vec![Event::text("sc1 sc2")]);
    feed(&mut app, vec![Event::text("Student Grad_student")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("e"));
    feed(&mut app, vec![Event::text("Department Department")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("ee"));
    feed(&mut app, keys("3"));
    // Two candidate rows; the marker starts on row 0.
    let f = app.render();
    let dept_row = f.row_text(f.find("sc1.Department").unwrap());
    assert!(dept_row.contains("=>"), "{dept_row}");
    // Skip: marker moves to the second row.
    feed(&mut app, keys("s"));
    let f = app.render();
    let stud_row = f.row_text(f.find("sc1.Student").unwrap());
    assert!(stud_row.contains("=>"), "{stud_row}");
    // Skipping wraps back.
    feed(&mut app, keys("s"));
    let f = app.render();
    let dept_row = f.row_text(f.find("sc1.Department").unwrap());
    assert!(dept_row.contains("=>"), "{dept_row}");
}

#[test]
fn relationship_equivalence_screens_list_rel_sets() {
    let mut session = Session::new();
    session.add_schema(fixtures::sc1()).unwrap();
    session.add_schema(fixtures::sc2()).unwrap();
    let mut app = App::with_session(session);
    feed(&mut app, keys("4"));
    feed(&mut app, vec![Event::text("sc1 sc2")]);
    let f = app.render();
    // Screen 6 variant for relationships: rel names with (r) tags.
    assert!(f.contains("Majors (r)"), "{f}");
    assert!(f.contains("Works (r)"), "{f}");
    feed(&mut app, vec![Event::text("Majors Majors")]);
    let f = app.render();
    assert!(f.contains("sc1.Majors"), "{f}");
    assert!(f.contains("1> Since"), "{f}");
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    assert!(app.render().contains("equivalence recorded"));
    // The session recorded it.
    let since1 = app
        .session()
        .catalog()
        .attr_named("sc1", "Majors", "Since")
        .unwrap();
    let since2 = app
        .session()
        .catalog()
        .attr_named("sc2", "Majors", "Since")
        .unwrap();
    assert!(app.session().equivalences().equivalent(since1, since2));
}

#[test]
fn bad_inputs_surface_statuses_not_crashes() {
    let mut session = Session::new();
    session.add_schema(fixtures::sc1()).unwrap();
    session.add_schema(fixtures::sc2()).unwrap();
    let mut app = App::with_session(session);
    feed(&mut app, keys("2"));
    feed(&mut app, vec![Event::text("sc1")]); // one name only
    assert!(app.render().contains("enter exactly two schema names"));
    feed(&mut app, vec![Event::text("sc1 sc1")]); // identical
    assert!(app.render().contains("unknown or identical"));
    feed(&mut app, vec![Event::text("sc1 sc2")]);
    feed(&mut app, vec![Event::text("Student Nothing")]); // unknown object
    assert!(app.render().contains("unknown object/relationship name"));
    feed(&mut app, vec![Event::text("Student Grad_student")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("9 9")]); // out of range
    assert!(app.render().contains("out of range"));
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("2 2")]); // GPA real vs Name? no: 2=GPA/2=GPA ok
                                              // Incompatible domains: Name (char) vs GPA (real).
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 2")]);
    // The full message is clipped by the 78-column frame; match the stem.
    assert!(app.render().contains("incompat"), "{}", app.render());
}

#[test]
fn assertion_codes_out_of_menu_are_rejected() {
    let mut session = Session::new();
    session
        .add_schema(ddl::parse("schema x { entity A { id: int key; } }").unwrap())
        .unwrap();
    session
        .add_schema(ddl::parse("schema y { entity B { id: int key; } }").unwrap())
        .unwrap();
    let mut app = App::with_session(session);
    feed(&mut app, keys("2"));
    feed(&mut app, vec![Event::text("x y")]);
    feed(&mut app, vec![Event::text("A B")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("ee"));
    feed(&mut app, keys("3"));
    feed(&mut app, keys("7")); // not a menu code
    assert!(app.render().contains("codes are 0-5"));
    feed(&mut app, keys("1"));
    // The assertion was applied after the valid code.
    let a = app.session().object_named("x", "A").unwrap();
    let b = app.session().object_named("y", "B").unwrap();
    assert_eq!(
        app.session().effective_assertion(a, b),
        Some(sit_core::assertion::Assertion::Equal)
    );
}

#[test]
fn viewer_guards_unknown_names_and_wrong_kinds() {
    let mut session = Session::new();
    session.add_schema(fixtures::sc1()).unwrap();
    session.add_schema(fixtures::sc2()).unwrap();
    let mut app = App::with_session(session);
    // Minimal pair + assertion so task 6 can integrate.
    feed(&mut app, keys("2"));
    feed(&mut app, vec![Event::text("sc1 sc2")]);
    feed(&mut app, vec![Event::text("Department Department")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("ee"));
    feed(&mut app, keys("3"));
    feed(&mut app, keys("1e"));
    feed(&mut app, keys("6"));
    assert!(app.render().contains("Object Class Screen"));
    // Choosing a view without selecting a name first.
    feed(&mut app, keys("a"));
    assert!(app.render().contains("type an object class name first"));
    // A relationship view on an object class is refused.
    feed(&mut app, vec![Event::text("E_Department")]);
    feed(&mut app, keys("r"));
    assert!(app.render().contains("does not support that view"));
    // e<x>it returns to the main menu.
    feed(&mut app, keys("x"));
    assert!(app.render().contains("Main Menu"));
}

#[test]
fn relationship_conflict_is_repaired_like_an_object_conflict() {
    let mut session = Session::new();
    session
        .add_schema(
            ddl::parse(
                "schema a { entity P { id: int key; } \
                 relationship R1 { P (0,n); P (0,n); x: int; } \
                 relationship R2 { P (0,n); P (0,n); x: int; } }",
            )
            .unwrap(),
        )
        .unwrap();
    session
        .add_schema(
            ddl::parse("schema b { entity Q { id: int key; } relationship S { Q (0,n); Q (0,n); x: int; } }")
                .unwrap(),
        )
        .unwrap();
    session
        .declare_equivalent_named("a", "R1", "x", "b", "S", "x")
        .unwrap();
    session
        .declare_equivalent_named("a", "R2", "x", "b", "S", "x")
        .unwrap();
    let mut app = App::with_session(session);
    // Task 4 picks the schema pair; task 5 lists a.R1/b.S, then a.R2/b.S.
    feed(&mut app, keys("4"));
    feed(&mut app, vec![Event::text("a b")]);
    feed(&mut app, keys("e"));
    feed(&mut app, keys("5"));
    assert!(
        app.render().contains("Relationship Pairs"),
        "{}",
        app.render()
    );
    // R1 = S, then R2 = S contradicts the seeded R1 / R2 disjointness.
    feed(&mut app, keys("11"));
    let f = app.render();
    assert!(f.contains("<derived>(CONFLICT)"), "{f}");
    // Repair: change R1 = S to "may be"; R2 = S is then accepted.
    feed(&mut app, keys("c"));
    feed(&mut app, vec![Event::text("a.R1 b.S 5")]);
    assert!(
        app.render().contains("assertion changed"),
        "{}",
        app.render()
    );
    let catalog = app.session().catalog();
    let rel = |schema: &str, name: &str| {
        let sid = catalog.by_name(schema).unwrap();
        sit_core::GRel::new(sid, catalog.schema(sid).rel_by_name(name).unwrap())
    };
    let (r1, s) = (rel("a", "R1"), rel("b", "S"));
    assert_eq!(
        app.session().rel_engine().effective(r1, s),
        Some(sit_core::assertion::Assertion::MayBe)
    );
}

/// Figure 6's eight viewer screens, by the title each renders.
const VIEWER_SCREENS: [&str; 8] = [
    "Object Class Screen",
    "Entity Screen",
    "Category Screen",
    "Relationship Screen",
    "Attribute Screen",
    "Component Attribute Screen",
    "Equivalent Screen",
    "Participating Objects In Relationship Screen",
];

/// The viewer screen `app` shows.
fn viewer_screen(app: &App) -> &'static str {
    let f = app.render().to_string();
    if f.contains("COMPONENT ATTRIBUTE SCREEN") {
        return "Component Attribute Screen";
    }
    VIEWER_SCREENS
        .into_iter()
        .find(|title| f.contains(&format!("< {title} >")))
        .unwrap_or_else(|| panic!("not a viewer screen:\n{f}"))
}

/// The paper's sc1/sc2 pair with Figure 5's assertions, integrated by
/// task 6: the tool is on the Object Class Screen.
fn viewer_root() -> App {
    let mut session = Session::new();
    session.add_schema(fixtures::sc1()).unwrap();
    session.add_schema(fixtures::sc2()).unwrap();
    for (a, b, attr) in [
        ("Student", "Grad_student", "Name"),
        ("Student", "Faculty", "Name"),
        ("Department", "Department", "Dname"),
    ] {
        session
            .declare_equivalent_named("sc1", a, attr, "sc2", b, attr)
            .unwrap();
    }
    for (a, b, assertion) in [
        ("Department", "Department", Assertion::Equal),
        ("Student", "Grad_student", Assertion::Contains),
        ("Student", "Faculty", Assertion::DisjointIntegrable),
    ] {
        let ga: GObj = session.named("sc1", a).unwrap();
        let gb: GObj = session.named("sc2", b).unwrap();
        session.assert(ga, gb, assertion).unwrap();
    }
    let mut app = App::with_session(session);
    feed(&mut app, keys("2"));
    feed(&mut app, vec![Event::text("sc1 sc2")]);
    feed(&mut app, keys("e6"));
    assert_eq!(viewer_screen(&app), "Object Class Screen");
    app
}

/// E13 (Figure 6): every menu arc of the viewer, driven through the tool
/// from the Object Class Screen with a name typed in first. The arcs
/// form the paper's eight-screen hierarchy.
#[test]
fn screen_flow_graph() {
    // (name typed on the Object Class Screen, menu choices that follow)
    let walks = [
        ("E_Department", "eq"),
        ("E_Department", "ea1"),
        ("E_Department", "a1"),
        ("Student", "cq"),
        ("Student", "ca1"),
        ("Works", "rq"),
        ("Works", "rp"),
        ("Works", "ra"),
    ];
    let mut arcs: Vec<(&str, char, &str)> = Vec::new();
    for (name, choices) in walks {
        let mut app = viewer_root();
        feed(&mut app, vec![Event::text(name)]);
        for key in choices.chars() {
            let from = viewer_screen(&app);
            app.handle(Event::Key(key));
            arcs.push((from, key, viewer_screen(&app)));
        }
    }
    arcs.sort_unstable();
    arcs.dedup();

    // `e` and `c` open one element view, titled by the object's kind.
    let mut app = viewer_root();
    feed(&mut app, vec![Event::text("Student")]);
    feed(&mut app, keys("e"));
    assert_eq!(viewer_screen(&app), "Category Screen");

    let sources = |to: &str| -> Vec<&str> {
        arcs.iter()
            .filter(|(_, _, t)| *t == to)
            .map(|(f, _, _)| *f)
            .collect()
    };
    let mut screens: Vec<&str> = arcs.iter().flat_map(|(f, _, t)| [*f, *t]).collect();
    screens.sort_unstable();
    screens.dedup();
    // "The result of schema integration can be viewed using the set of
    // eight screens arranged in a hierarchy."
    assert_eq!(screens.len(), 8, "{arcs:?}");
    let roots: Vec<&str> = screens
        .iter()
        .copied()
        .filter(|s| sources(s).is_empty())
        .collect();
    assert_eq!(roots, ["Object Class Screen"], "{arcs:?}");
    assert_eq!(
        sources("Component Attribute Screen"),
        ["Attribute Screen"],
        "only an attribute number on the Attribute Screen opens it"
    );
    assert_eq!(
        sources("Equivalent Screen"),
        ["Category Screen", "Entity Screen", "Relationship Screen"]
    );
}
