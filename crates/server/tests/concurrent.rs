//! Concurrency integration test: one server, eight client threads, each
//! driving an independent session from a different `sit-datagen` seed.
//! Every thread's integrated schema must match, byte for byte, what a
//! single-threaded in-process session produces from the same workload —
//! the server must add concurrency without adding nondeterminism.

use std::sync::Arc;
use std::thread;

use sit_core::assertion::Assertion;
use sit_core::integrate::IntegrationOptions;
use sit_core::script;
use sit_core::session::Session;
use sit_datagen::{GeneratedPair, GeneratorConfig};
use sit_ecr::{ddl, render};
use sit_server::proto::Request;
use sit_server::server::{Server, ServerConfig};
use sit_server::store::StoreConfig;
use sit_server::wire::Json;
use sit_server::Client;

const CLIENTS: usize = 8;

fn workload(seed: u64) -> GeneratedPair {
    GeneratorConfig {
        seed,
        objects_per_schema: 6,
        relationships_per_schema: 2,
        ..Default::default()
    }
    .generate_pair()
}

/// The deterministic instruction stream for one workload: every true
/// attribute equivalence, then every true object assertion, in ground
/// truth order. Both the oracle and the wire client replay exactly this.
struct Steps {
    equivs: Vec<(String, String, String, String)>,
    asserts: Vec<(String, String, Assertion)>,
}

fn steps(pair: &GeneratedPair) -> Steps {
    Steps {
        equivs: pair.truth.attr_pairs.clone(),
        asserts: pair
            .truth
            .assertions
            .iter()
            .map(|t| (t.a.clone(), t.b.clone(), t.assertion))
            .collect(),
    }
}

/// Single-threaded reference: run the workload through a local
/// [`Session`] and render the integrated schema.
fn oracle_integrate(pair: &GeneratedPair) -> String {
    let s = steps(pair);
    let mut session = Session::new();
    let sa = session.add_schema(pair.a.clone()).expect("fresh session");
    let sb = session.add_schema(pair.b.clone()).expect("fresh session");
    let (na, nb) = (pair.a.name().to_owned(), pair.b.name().to_owned());
    for (oa, aa, ob, ab) in &s.equivs {
        // Skip-on-error mirrors the wire path below: both sides must
        // tolerate (and ignore) the same redundant or derived steps.
        let _ = session.declare_equivalent_named(&na, oa, aa, &nb, ob, ab);
    }
    for (a, b, assertion) in &s.asserts {
        let (Ok(ga), Ok(gb)) = (session.object_named(&na, a), session.object_named(&nb, b)) else {
            panic!("ground truth names a missing object: {a} / {b}");
        };
        let _ = session.assert_objects(ga, gb, *assertion);
    }
    let integrated = session
        .integrate(sa, sb, &IntegrationOptions::default())
        .expect("oracle integrate");
    render::render(&integrated.schema)
}

/// Wire path: replay the same workload through a connected client.
fn wire_integrate(client: &mut Client, pair: &GeneratedPair) -> String {
    let s = steps(pair);
    let opened = client.call(&Request::Open).expect("open response");
    let sid = opened
        .get("session")
        .and_then(Json::as_str)
        .expect("session id")
        .to_owned();
    let (na, nb) = (pair.a.name().to_owned(), pair.b.name().to_owned());
    for schema in [&pair.a, &pair.b] {
        let r = client
            .call(&Request::AddSchema {
                session: sid.clone(),
                ddl: ddl::print(schema),
            })
            .expect("add_schema response");
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
    }
    for (oa, aa, ob, ab) in &s.equivs {
        // Outcome intentionally unchecked (mirrors the oracle's
        // skip-on-error); the response itself must still arrive.
        let _ = client
            .call(&Request::Equiv {
                session: sid.clone(),
                a: format!("{na}.{oa}.{aa}"),
                b: format!("{nb}.{ob}.{ab}"),
            })
            .expect("equiv response");
    }
    for (a, b, assertion) in &s.asserts {
        let _ = client
            .call(&Request::Assert {
                session: sid.clone(),
                a: format!("{na}.{a}"),
                b: format!("{nb}.{b}"),
                assertion: *assertion,
            })
            .expect("assert response");
    }
    let integ = client
        .call(&Request::Integrate {
            session: sid.clone(),
            a: na,
            b: nb,
            pull_up: false,
            mappings: false,
        })
        .expect("integrate response");
    assert_eq!(integ.get("ok"), Some(&Json::Bool(true)), "{integ:?}");
    let text = integ
        .get("schema")
        .and_then(Json::as_str)
        .expect("integrated schema text")
        .to_owned();
    let closed = client
        .call(&Request::Close { session: sid })
        .expect("close response");
    assert_eq!(closed.get("ok"), Some(&Json::Bool(true)));
    text
}

#[test]
fn concurrent_sessions_match_the_single_threaded_oracle() {
    let config = ServerConfig {
        threads: 4,
        queue_cap: 64,
        store: StoreConfig::default(),
        persist: None,
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .expect("bind loopback")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr();

    // Reference results computed up front, single-threaded.
    let workloads: Vec<GeneratedPair> = (0..CLIENTS as u64).map(|i| workload(0xC0C0 + i)).collect();
    let expected: Vec<String> = workloads.iter().map(oracle_integrate).collect();
    // Seeds must differ enough to produce distinct schemas, otherwise
    // the test couldn't tell sessions apart.
    assert!(
        expected.iter().any(|e| e != &expected[0]),
        "workloads degenerate: all oracle results identical"
    );

    let workloads = Arc::new(workloads);
    let mut joins = Vec::new();
    for i in 0..CLIENTS {
        let workloads = Arc::clone(&workloads);
        joins.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            wire_integrate(&mut client, &workloads[i])
        }));
    }
    for (i, join) in joins.into_iter().enumerate() {
        let got = join.join().expect("client thread");
        assert_eq!(
            got, expected[i],
            "client {i}: integrated schema diverged from the oracle"
        );
    }

    handle.shutdown().expect("clean shutdown");
}

/// The assertion keywords used on the wire must round-trip through the
/// script spelling for every assertion the generator can produce.
#[test]
fn generator_assertions_have_wire_spellings() {
    for seed in 0..4u64 {
        let pair = workload(seed);
        for t in &pair.truth.assertions {
            let kw = script::keyword(t.assertion);
            assert_eq!(script::parse_keyword(kw), Some(t.assertion), "{kw}");
        }
    }
}
