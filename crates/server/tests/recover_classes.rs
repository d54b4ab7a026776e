//! Recovery keeps an equivalence class that a Screen 7 delete left
//! inside one schema.
//!
//! `equiv x=y`, `equiv y=z`, `unequiv y` leaves `{sc1.A.x, sc1.C.z}`, a
//! class with no member outside `sc1`. A snapshot is the `script::save`
//! text and recovery loads it, so the class must survive that round
//! trip: after a restart, `equiv x=w` joins all three, and `candidates`
//! and `save` answer as they do in a service that never restarted.

use std::sync::Arc;

use sit_obs::clock::MonotonicClock;
use sit_server::{Json, MemStorage, PersistConfig, Service, Storage, StoreConfig};

const DDL: &str = "schema sc1 { entity A { x: char key; } entity C { z: char key; } } \
                   schema sc2 { entity B { y: char key; } entity D { w: char key; } }";

/// The frames up to the delete, after `open` answered `sid`.
fn before(sid: &str) -> Vec<String> {
    vec![
        format!(r#"{{"op":"add_schema","session":"{sid}","ddl":"{DDL}"}}"#),
        format!(r#"{{"op":"equiv","session":"{sid}","a":"sc1.A.x","b":"sc2.B.y"}}"#),
        format!(r#"{{"op":"equiv","session":"{sid}","a":"sc2.B.y","b":"sc1.C.z"}}"#),
        format!(r#"{{"op":"unequiv","session":"{sid}","a":"sc2.B.y"}}"#),
    ]
}

/// The frames after it, whose replies are compared.
fn after(sid: &str) -> Vec<String> {
    vec![
        format!(r#"{{"op":"equiv","session":"{sid}","a":"sc1.A.x","b":"sc2.D.w"}}"#),
        format!(r#"{{"op":"candidates","session":"{sid}","a":"sc1","b":"sc2"}}"#),
        format!(r#"{{"op":"save","session":"{sid}"}}"#),
    ]
}

/// Send `lines`, each of which must succeed; their replies.
fn run(service: &Service, lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|line| {
            let frame = service.handle_line(line).frame;
            assert!(frame.starts_with(r#"{"ok":true"#), "{line} -> {frame}");
            frame
        })
        .collect()
}

fn open(service: &Service) -> String {
    let opened = Json::parse(&service.handle_line(r#"{"op":"open"}"#).frame).unwrap();
    opened
        .get("session")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned()
}

#[test]
fn a_restart_keeps_a_class_left_within_one_schema() {
    let live = Service::new(StoreConfig::default());
    let sid = open(&live);
    run(&live, &before(&sid));
    let want = run(&live, &after(&sid));
    // `z` shares a class with `w` through `x`.
    assert!(
        want[1].contains(r#""left":"sc1.C","right":"sc2.D""#),
        "{}",
        want[1]
    );

    let storage = Arc::new(MemStorage::new());
    let durable = || {
        Service::with_persistence(
            StoreConfig::default(),
            Arc::new(MonotonicClock::new()),
            Arc::clone(&storage) as Arc<dyn Storage>,
            PersistConfig {
                snapshot_every: 1,
                ..PersistConfig::default()
            },
        )
        .unwrap()
    };
    let first = durable();
    let sid = open(&first);
    run(&first, &before(&sid));
    drop(first);
    let got = run(&durable(), &after(&sid));
    assert_eq!(got, want);
}
