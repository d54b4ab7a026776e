//! Every reply frame is canonical JSON: parsing it and encoding the tree
//! gives back the same bytes.
//!
//! Replies are written straight into their frame, not built as a
//! [`Json`] tree and encoded. This drives every verb over seeded
//! `sit-datagen` sessions of several sizes, on a durable service (so
//! `persist_stats` reports its counters), plus error frames whose
//! messages carry `"`, `\`, a newline, a control byte and non-ASCII
//! text, and checks each frame against `Json::parse(frame).encode()`:
//! the writer must quote, escape, separate and close exactly as the
//! encoder does.

use std::collections::BTreeSet;
use std::sync::Arc;

use sit_core::assertion::Assertion;
use sit_datagen::GeneratorConfig;
use sit_obs::clock::MonotonicClock;
use sit_server::proto::{Request, VERBS};
use sit_server::wire::Json;
use sit_server::{MemStorage, PersistConfig, Service, Storage, StoreConfig};

/// Sends frames and checks that each reply is canonical.
struct Checked {
    service: Service,
    ops: BTreeSet<String>,
    frames: usize,
}

impl Checked {
    fn new() -> Checked {
        let service = Service::with_persistence(
            StoreConfig::default(),
            Arc::new(MonotonicClock::new()),
            Arc::new(MemStorage::new()) as Arc<dyn Storage>,
            PersistConfig::default(),
        )
        .expect("a durable service over memory opens");
        Checked {
            service,
            ops: BTreeSet::new(),
            frames: 0,
        }
    }

    /// Send `line`; the reply, parsed.
    fn line(&mut self, line: &str) -> Json {
        let frame = self.service.handle_line(line).frame;
        let tree = Json::parse(&frame)
            .unwrap_or_else(|e| panic!("reply to {line} is not JSON ({e}): {frame}"));
        assert_eq!(tree.encode(), frame, "reply to {line} is not canonical");
        self.frames += 1;
        tree
    }

    /// Send `request`; the reply, parsed.
    fn call(&mut self, request: Request) -> Json {
        self.ops.insert(request.op().to_owned());
        self.line(&request.to_json().encode())
    }
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// One session through every session verb on a generated pair.
fn session(c: &mut Checked, config: &GeneratorConfig) {
    let pair = config.generate_pair();
    let opened = c.call(Request::Open);
    let sid = opened
        .get("session")
        .and_then(Json::as_str)
        .expect("open names a session")
        .to_owned();
    let s = || sid.clone();
    let (a, b) = (pair.a.name().to_owned(), pair.b.name().to_owned());
    for schema in [&pair.a, &pair.b] {
        let ddl = sit_ecr::ddl::print(schema);
        assert!(ok(&c.call(Request::AddSchema { session: s(), ddl })));
    }
    c.call(Request::ListSchemas { session: s() });
    for schema in [&a, &b] {
        let schema = schema.clone();
        c.call(Request::Render {
            session: s(),
            schema,
        });
    }
    let attr = |(oa, aa, ob, ab): &(String, String, String, String)| {
        (format!("{a}.{oa}.{aa}"), format!("{b}.{ob}.{ab}"))
    };
    for pair in &pair.truth.attr_pairs {
        let (x, y) = attr(pair);
        c.call(Request::Equiv {
            session: s(),
            a: x,
            b: y,
        });
    }
    if let Some(first) = pair.truth.attr_pairs.first() {
        let (x, y) = attr(first);
        c.call(Request::Unequiv {
            session: s(),
            a: y.clone(),
        });
        c.call(Request::Equiv {
            session: s(),
            a: x,
            b: y,
        });
    }
    let schemas = || (a.clone(), b.clone());
    let (x, y) = schemas();
    c.call(Request::Candidates {
        session: s(),
        a: x,
        b: y,
    });
    let (x, y) = schemas();
    c.call(Request::RelCandidates {
        session: s(),
        a: x,
        b: y,
    });
    for t in &pair.truth.assertions {
        c.call(Request::Assert {
            session: s(),
            a: format!("{a}.{}", t.a),
            b: format!("{b}.{}", t.b),
            assertion: t.assertion,
        });
    }
    // A contradiction: its conflict report is a multi-line message.
    if let Some(t) = pair.truth.assertions.first() {
        let contradiction = match t.assertion {
            Assertion::DisjointNonIntegrable => Assertion::Equal,
            _ => Assertion::DisjointNonIntegrable,
        };
        let reply = c.call(Request::Assert {
            session: s(),
            a: format!("{a}.{}", t.a),
            b: format!("{b}.{}", t.b),
            assertion: contradiction,
        });
        assert!(!ok(&reply), "a contradiction is refused: {reply:?}");
    }
    let rel = |schema: &sit_ecr::Schema| {
        let first = schema.relationships().next();
        first.map(|(_, r)| format!("{}.{}", schema.name(), r.name))
    };
    if let (Some(ra), Some(rb)) = (rel(&pair.a), rel(&pair.b)) {
        c.call(Request::RelAssert {
            session: s(),
            a: ra.clone(),
            b: rb.clone(),
            assertion: Assertion::MayBe,
        });
        c.call(Request::RelRetract {
            session: s(),
            a: ra,
            b: rb,
        });
    }
    let (x, y) = schemas();
    c.call(Request::Matrix {
        session: s(),
        a: x,
        b: y,
    });
    for (pull_up, mappings) in [(false, true), (true, false)] {
        let (x, y) = schemas();
        c.call(Request::Integrate {
            session: s(),
            a: x,
            b: y,
            pull_up,
            mappings,
        });
    }
    let saved = c.call(Request::Save { session: s() });
    let script = saved
        .get("script")
        .and_then(Json::as_str)
        .expect("save answers a script")
        .to_owned();
    let loaded = c.call(Request::Load { script });
    let copy = loaded
        .get("session")
        .and_then(Json::as_str)
        .expect("load names a session")
        .to_owned();
    c.call(Request::Close { session: copy });
    if let Some(t) = pair.truth.assertions.first() {
        c.call(Request::Retract {
            session: s(),
            a: format!("{a}.{}", t.a),
            b: format!("{b}.{}", t.b),
        });
    }
}

/// Text a message can carry that every escape path must handle.
const AWKWARD: &str = "q\"uote b\\ack\nline \u{1}ctl tab\t caf\u{e9} \u{1F600} \u{2028}";

#[test]
fn every_reply_frame_is_canonical_json() {
    let mut c = Checked::new();
    c.call(Request::Ping);
    for (seed, objects, relationships) in [(1, 6, 2), (2, 4, 1), (3, 9, 3), (4, 12, 2)] {
        let config = GeneratorConfig {
            seed,
            objects_per_schema: objects,
            relationships_per_schema: relationships,
            ..Default::default()
        };
        session(&mut c, &config);
    }

    // Error frames whose messages quote awkward text back.
    let session = || "1".to_owned();
    let errors = [
        Request::Matrix {
            session: session(),
            a: AWKWARD.into(),
            b: "x".into(),
        },
        Request::Assert {
            session: session(),
            a: AWKWARD.into(),
            b: "x.y".into(),
            assertion: Assertion::Equal,
        },
        Request::Equiv {
            session: session(),
            a: AWKWARD.into(),
            b: "x.y.z".into(),
        },
        Request::AddSchema {
            session: session(),
            ddl: format!("schema {AWKWARD} {{"),
        },
        Request::Save {
            session: AWKWARD.into(),
        },
    ];
    for request in errors {
        let reply = c.call(request);
        let message = reply
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("an error frame");
        assert!(!message.is_empty());
    }
    let unknown_op = Json::obj(vec![("op", Json::str(AWKWARD))]).encode();
    let reply = c.line(&unknown_op);
    let message = reply.get("error").and_then(|e| e.get("message"));
    assert_eq!(
        message.and_then(Json::as_str),
        Some(format!("unknown op `{AWKWARD}`").as_str())
    );
    c.line("{\"op\":\u{1}}");
    c.line("not json");

    c.call(Request::Stats);
    c.call(Request::MetricsText);
    c.call(Request::TraceDump { limit: Some(16) });
    c.call(Request::PersistStats);
    c.call(Request::Shutdown);
    // Refused while draining.
    c.call(Request::Open);

    let missing: Vec<&str> = VERBS
        .into_iter()
        .filter(|op| !c.ops.contains(*op))
        .collect();
    assert!(missing.is_empty(), "verbs never sent: {missing:?}");
    assert!(c.frames > 100, "{} frames", c.frames);
}
