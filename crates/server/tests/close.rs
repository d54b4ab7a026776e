//! `close` on a durable service: an acknowledged close means the session
//! never comes back on restart, whether it was live, already evicted, or
//! racing mutations from another connection.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sit_obs::clock::MonotonicClock;
use sit_prng::Xoshiro256pp;
use sit_server::{Json, MemStorage, PersistConfig, Service, Storage, StoreConfig};

fn durable(storage: &Arc<MemStorage>, max_sessions: usize) -> Service {
    Service::with_persistence(
        StoreConfig {
            max_sessions,
            ttl: None,
        },
        Arc::new(MonotonicClock::new()),
        Arc::clone(storage) as Arc<dyn Storage>,
        PersistConfig {
            snapshot_every: 8,
            ..PersistConfig::default()
        },
    )
    .expect("recovery over MemStorage cannot fail")
}

fn call(service: &Service, line: &str) -> Json {
    Json::parse(&service.handle_line(line).frame).expect("response is valid json")
}

fn ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

fn err_code(v: &Json) -> Option<&str> {
    v.get("error")?.get("code")?.as_str()
}

fn open(service: &Service) -> String {
    let opened = call(service, r#"{"op":"open"}"#);
    assert!(ok(&opened), "{opened:?}");
    opened
        .get("session")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned()
}

fn add_schemas(service: &Service, sid: &str) {
    for ddl in [
        "schema a { entity Student { Name: char key; } }",
        "schema b { entity Pupil { Name: char key; } }",
    ] {
        let r = call(
            service,
            &format!(r#"{{"op":"add_schema","session":"{sid}","ddl":"{ddl}"}}"#),
        );
        assert!(ok(&r), "{r:?}");
    }
}

#[test]
fn close_of_an_evicted_durable_session_removes_its_files() {
    let storage = Arc::new(MemStorage::new());
    let first = durable(&storage, 1);
    let a = open(&first);
    add_schemas(&first, &a);
    let b = open(&first); // evicts `a`
    add_schemas(&first, &b);
    assert!(first.store().get(&a).is_none(), "`a` was evicted");
    let closed = call(&first, &format!(r#"{{"op":"close","session":"{a}"}}"#));
    assert!(ok(&closed), "{closed:?}");
    drop(first);

    let second = durable(&storage, 8);
    assert_eq!(second.store().len(), 1, "only `b` is recovered");
    assert!(second.store().get(&b).is_some());
    assert!(second.store().get(&a).is_none());
}

#[test]
fn close_racing_mutations_never_resurrects_the_session() {
    for seed in 0..128u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(0xC105E + seed);
        let close_after = rng.gen_range(0..48u64);
        let storage = Arc::new(MemStorage::new());
        let service = durable(&storage, 8);
        let sid = open(&service);
        add_schemas(&service, &sid);
        let sent = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let frames = [
                    format!(r#"{{"op":"equiv","session":"{sid}","a":"a.Student.Name","b":"b.Pupil.Name"}}"#),
                    format!(r#"{{"op":"assert","session":"{sid}","a":"a.Student","b":"b.Pupil","assertion":"equals"}}"#),
                ];
                for frame in frames.iter().cycle() {
                    let r = call(&service, frame);
                    sent.fetch_add(1, Ordering::SeqCst);
                    if err_code(&r) == Some("unknown_session") {
                        break;
                    }
                    assert!(ok(&r), "seed {seed}: {frame} -> {r:?}");
                }
            });
            scope.spawn(|| {
                while sent.load(Ordering::SeqCst) < close_after {
                    std::thread::yield_now();
                }
                let r = call(&service, &format!(r#"{{"op":"close","session":"{sid}"}}"#));
                assert!(ok(&r), "seed {seed}: close -> {r:?}");
            });
        });
        drop(service);

        let restarted = durable(&storage, 8);
        assert!(
            restarted.store().is_empty(),
            "seed {seed}: closed session {sid} was recovered"
        );
        assert_eq!(storage.list().unwrap(), Vec::<String>::new(), "seed {seed}");
    }
}
