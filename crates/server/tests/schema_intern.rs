//! The service-wide schema table: sessions that `add_schema` the same
//! DDL text share one parsed copy, and nothing a client or the log can
//! see depends on whether a text was parsed or found.
//!
//! Each session served from the table must answer like a session built
//! by the library alone (`ddl::parse_many`, `Session::add_schemas`,
//! `script::save`), loaded into a service of its own through `load`,
//! which does not go through the table.

use std::sync::{Arc, Barrier};

use sit_core::{script, Session};
use sit_datagen::GeneratorConfig;
use sit_server::intern::{self, BUDGET};
use sit_server::proto::Request;
use sit_server::storage::{MemStorage, Storage};
use sit_server::wire::Json;
use sit_server::{PersistConfig, Service, StoreConfig};

/// A paper-scale `sit-datagen` pair as DDL texts, and their names.
fn pair() -> [(String, String); 2] {
    let pair = GeneratorConfig {
        seed: 7,
        objects_per_schema: 6,
        relationships_per_schema: 2,
        ..Default::default()
    }
    .generate_pair();
    [&pair.a, &pair.b].map(|s| (s.name().to_owned(), sit_ecr::ddl::print(s)))
}

fn call(service: &Service, request: &Request) -> String {
    service.handle_line(&request.to_json().encode()).frame
}

fn open(service: &Service) -> String {
    let opened = Json::parse(&service.handle_line(r#"{"op":"open"}"#).frame).unwrap();
    opened
        .get("session")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned()
}

fn add_schema(service: &Service, session: &str, ddl: &str) -> String {
    let (session, ddl) = (session.to_owned(), ddl.to_owned());
    call(service, &Request::AddSchema { session, ddl })
}

fn save(service: &Service, session: &str) -> String {
    let session = session.to_owned();
    call(service, &Request::Save { session })
}

/// The replies of the read verbs the catalog feeds.
fn reads(service: &Service, session: &str, a: &str, b: &str) -> Vec<String> {
    let (session, a, b) = (session.to_owned(), a.to_owned(), b.to_owned());
    vec![
        call(
            service,
            &Request::ListSchemas {
                session: session.clone(),
            },
        ),
        call(
            service,
            &Request::Matrix {
                session: session.clone(),
                a: a.clone(),
                b: b.clone(),
            },
        ),
        call(
            service,
            &Request::Integrate {
                session: session.clone(),
                a,
                b,
                pull_up: false,
                mappings: true,
            },
        ),
        save(service, &session),
    ]
}

#[test]
fn sessions_sharing_a_text_answer_like_a_library_built_session() {
    let [(a, ddl_a), (b, ddl_b)] = pair();
    let mut library = Session::new();
    library
        .add_schemas(sit_ecr::ddl::parse_many(&format!("{ddl_a}\n{ddl_b}")).unwrap())
        .unwrap();
    let reference = Service::new(StoreConfig::default());
    let script = script::save(&library);
    let loaded = call(&reference, &Request::Load { script });
    let loaded = Json::parse(&loaded).unwrap();
    let id = loaded.get("session").and_then(Json::as_str).unwrap();
    let want = reads(&reference, id, &a, &b);
    assert!(
        want.iter().all(|r| r.starts_with(r#"{"ok":true"#)),
        "{want:?}"
    );

    let service = Service::new(StoreConfig::default());
    for _ in 0..4 {
        let session = open(&service);
        for ddl in [&ddl_a, &ddl_b] {
            let reply = add_schema(&service, &session, ddl);
            assert!(reply.starts_with(r#"{"ok":true"#), "{reply}");
        }
        assert_eq!(reads(&service, &session, &a, &b), want);
    }
    let table = service.schemas();
    assert_eq!((table.misses(), table.hits()), (2, 6));
    assert_eq!(table.entries(), 2);
    assert_eq!(
        table.bytes(),
        intern::charge(&ddl_a) + intern::charge(&ddl_b)
    );
}

#[test]
fn two_sessions_adding_one_text_at_once_share_one_entry() {
    let [(name, ddl), _] = pair();
    let service = Service::new(StoreConfig::default());
    let sessions = [open(&service), open(&service)];
    let barrier = Barrier::new(sessions.len());
    std::thread::scope(|scope| {
        for session in &sessions {
            let (service, barrier, ddl, name) = (&service, &barrier, &ddl, &name);
            scope.spawn(move || {
                barrier.wait();
                let reply = add_schema(service, session, ddl);
                assert_eq!(reply, format!(r#"{{"ok":true,"schemas":["{name}"]}}"#));
            });
        }
    });
    assert_eq!(service.schemas().entries(), 1);
    assert_eq!(service.schemas().hits() + service.schemas().misses(), 2);
    // Whichever way the two lookups interleaved, both sessions hold the
    // table's copy.
    let held: Vec<*const sit_ecr::Schema> = sessions
        .iter()
        .map(|id| {
            let shared = service.store().get(id).unwrap();
            let session = shared.lock().unwrap();
            let (_, schema) = session.catalog().schemas().next().unwrap();
            schema as *const _
        })
        .collect();
    assert_eq!(held[0], held[1]);
}

#[test]
fn bad_ddl_fails_the_same_way_twice_and_is_not_kept() {
    let service = Service::new(StoreConfig::default());
    let session = open(&service);
    let bad = "schema s { entity Café { x: char key; } }";
    let first = add_schema(&service, &session, bad);
    let second = add_schema(&service, &session, bad);
    assert_eq!(
        first,
        r#"{"ok":false,"error":{"code":"bad_request","message":"DDL error: parse error at 1:22: unexpected character `é`"}}"#
    );
    assert_eq!(second, first);
    let table = service.schemas();
    assert_eq!((table.entries(), table.bytes()), (0, 0));
    assert_eq!((table.misses(), table.hits()), (2, 0));
}

#[test]
fn a_text_over_the_budget_is_parsed_and_not_kept() {
    // Trailing blanks cost the lexer little but count against the
    // budget; the frame stays under the wire's 1 MiB line limit.
    let pad = BUDGET / (1 + intern::PARSED_BYTES_PER_TEXT_BYTE) + 1;
    let ddl = format!(
        "schema big {{ entity E {{ k: int key; }} }}{}",
        " ".repeat(pad)
    );
    assert!(intern::charge(&ddl) > BUDGET);
    let service = Service::new(StoreConfig::default());
    for _ in 0..2 {
        let session = open(&service);
        let reply = add_schema(&service, &session, &ddl);
        assert_eq!(reply, r#"{"ok":true,"schemas":["big"]}"#);
    }
    let table = service.schemas();
    assert_eq!((table.entries(), table.bytes()), (0, 0));
    assert_eq!((table.misses(), table.hits()), (2, 0));
}

#[test]
fn a_restart_over_repeated_add_schema_frames_recovers_the_live_sessions() {
    let [(a, ddl_a), (b, ddl_b)] = pair();
    let storage = Arc::new(MemStorage::new());
    let durable = || {
        Service::with_persistence(
            StoreConfig::default(),
            Arc::new(sit_obs::clock::MonotonicClock::new()),
            Arc::clone(&storage) as Arc<dyn Storage>,
            PersistConfig::default(),
        )
        .unwrap()
    };
    let live = durable();
    let mut sessions = Vec::new();
    for _ in 0..3 {
        let session = open(&live);
        for ddl in [&ddl_a, &ddl_b] {
            assert!(add_schema(&live, &session, ddl).starts_with(r#"{"ok":true"#));
        }
        // A frame that failed live is in the log too, and fails again
        // on replay.
        let repeated = add_schema(&live, &session, &ddl_a);
        assert!(repeated.contains(r#""code":"core""#), "{repeated}");
        sessions.push(session);
    }
    let saved: Vec<Vec<String>> = sessions.iter().map(|s| reads(&live, s, &a, &b)).collect();
    drop(live);

    let recovered = durable();
    for (session, want) in sessions.iter().zip(&saved) {
        assert_eq!(&reads(&recovered, session, &a, &b), want);
    }
    // Replay went through the table: each text was parsed once.
    let table = recovered.schemas();
    assert_eq!(table.misses(), 2);
    assert_eq!(table.hits(), 7);
}
