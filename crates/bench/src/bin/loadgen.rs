//! `loadgen` — wire-protocol load generator for `sit-server`.
//!
//! Spawns a server in-process on a loopback port, then replays
//! oracle-driven integration sessions (from `sit-datagen` ground truth)
//! over N concurrent client connections. Every request's wall-clock
//! latency is recorded; the run ends with a per-verb latency table plus
//! aggregate throughput, written to `BENCH_server.json`.
//!
//! Knobs (environment):
//!
//! * `SIT_LOADGEN_CLIENTS`  — concurrent client threads (default 4)
//! * `SIT_LOADGEN_SESSIONS` — sessions replayed per client (default 6)
//! * `SIT_LOADGEN_THREADS`  — requests the server executes at once (default 4)

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use sit_bench::harness::{fmt_ns, json_string};
use sit_bench::table;
use sit_core::assertion::Assertion;
use sit_datagen::{GeneratedPair, GeneratorConfig};
use sit_ecr::ddl;
use sit_server::proto::Request;
use sit_server::server::{Server, ServerConfig};
use sit_server::store::StoreConfig;
use sit_server::wire::Json;
use sit_server::Client;

/// One timed request: protocol verb and its round-trip latency.
struct Timed {
    verb: &'static str,
    ns: u64,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn workload(seed: u64) -> GeneratedPair {
    GeneratorConfig {
        seed,
        objects_per_schema: 6,
        relationships_per_schema: 2,
        ..Default::default()
    }
    .generate_pair()
}

/// Replay one full integration session over the wire, timing each call.
fn replay(client: &mut Client, pair: &GeneratedPair, out: &mut Vec<Timed>) {
    let mut call = |verb: &'static str, request: &Request| -> Json {
        let start = Instant::now();
        let response = client.call(request).expect("server reply");
        out.push(Timed {
            verb,
            ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
        response
    };

    let opened = call("open", &Request::Open);
    let sid = opened
        .get("session")
        .and_then(Json::as_str)
        .expect("session id")
        .to_owned();
    let (na, nb) = (pair.a.name().to_owned(), pair.b.name().to_owned());
    for schema in [&pair.a, &pair.b] {
        let r = call(
            "add_schema",
            &Request::AddSchema {
                session: sid.clone(),
                ddl: ddl::print(schema),
            },
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
    }
    for (oa, aa, ob, ab) in &pair.truth.attr_pairs {
        call(
            "equiv",
            &Request::Equiv {
                session: sid.clone(),
                a: format!("{na}.{oa}.{aa}"),
                b: format!("{nb}.{ob}.{ab}"),
            },
        );
    }
    for t in &pair.truth.assertions {
        // Redundant/derived assertions may come back as errors; the
        // request (and its latency) is what the load measures.
        call(
            "assert",
            &Request::Assert {
                session: sid.clone(),
                a: format!("{na}.{}", t.a),
                b: format!("{nb}.{}", t.b),
                assertion: normalize(t.assertion),
            },
        );
    }
    let integ = call(
        "integrate",
        &Request::Integrate {
            session: sid.clone(),
            a: na,
            b: nb,
            pull_up: false,
            mappings: false,
        },
    );
    assert_eq!(integ.get("ok"), Some(&Json::Bool(true)), "{integ:?}");
    call("close", &Request::Close { session: sid });
}

/// The generator's truth uses the full assertion algebra; pass them
/// through unchanged (hook kept for future filtering).
fn normalize(a: Assertion) -> Assertion {
    a
}

/// Nearest-rank percentiles of a sorted latency slice
/// (same formula as `sit_bench::harness`).
fn percentile(sorted: &[u64], q_num: usize, q_den: usize) -> u64 {
    let rank = (sorted.len() * q_num).div_ceil(q_den);
    sorted[rank.max(1) - 1]
}

fn drive(addr: SocketAddr, clients: usize, sessions: usize) -> (Vec<Timed>, f64) {
    let (tx, rx) = mpsc::channel::<Vec<Timed>>();
    let started = Instant::now();
    let mut joins = Vec::new();
    for c in 0..clients {
        let tx = tx.clone();
        joins.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut timed = Vec::new();
            for s in 0..sessions {
                let seed = 0x10AD_0000 + (c * sessions + s) as u64;
                let pair = workload(seed);
                replay(&mut client, &pair, &mut timed);
            }
            tx.send(timed).expect("report latencies");
        }));
    }
    drop(tx);
    let mut all = Vec::new();
    for batch in rx {
        all.extend(batch);
    }
    let elapsed = started.elapsed().as_secs_f64();
    for join in joins {
        join.join().expect("client thread");
    }
    (all, elapsed)
}

fn main() {
    let clients = env_usize("SIT_LOADGEN_CLIENTS", 4);
    let sessions = env_usize("SIT_LOADGEN_SESSIONS", 6);
    let server_threads = env_usize("SIT_LOADGEN_THREADS", 4);

    let config = ServerConfig {
        threads: server_threads,
        queue_cap: 256,
        store: StoreConfig {
            max_sessions: clients * 2 + 8,
            ..Default::default()
        },
        persist: None,
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .expect("bind loopback")
        .spawn()
        .expect("spawn server");
    let addr = handle.addr();
    println!("loadgen: server on {addr}, {clients} clients x {sessions} sessions");

    let (all, elapsed) = drive(addr, clients, sessions);
    handle.shutdown().expect("clean shutdown");

    let total = all.len();
    let rps = total as f64 / elapsed;

    // Per-verb and aggregate order statistics.
    let mut by_verb: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut overall: Vec<u64> = Vec::with_capacity(total);
    for t in &all {
        by_verb.entry(t.verb).or_default().push(t.ns);
        overall.push(t.ns);
    }
    overall.sort_unstable();

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (verb, mut ns) in by_verb {
        ns.sort_unstable();
        let (min, med, p95) = (ns[0], percentile(&ns, 1, 2), percentile(&ns, 19, 20));
        rows.push(vec![
            verb.to_owned(),
            ns.len().to_string(),
            fmt_ns(min),
            fmt_ns(med),
            fmt_ns(p95),
        ]);
        results.push(format!(
            "    {{\"label\": {}, \"count\": {}, \"min_ns\": {}, \"median_ns\": {}, \"p95_ns\": {}}}",
            json_string(verb),
            ns.len(),
            min,
            med,
            p95
        ));
    }

    println!("\n## bench server ({clients} clients, {total} requests)\n");
    println!(
        "{}",
        table(&["verb", "count", "min", "median", "p95"], &rows)
    );
    println!(
        "throughput : {rps:.0} requests/sec ({total} requests in {elapsed:.3}s)\np95 overall: {}",
        fmt_ns(percentile(&overall, 19, 20))
    );

    let json = format!(
        "{{\n  \"bench\": \"server\",\n  \"clients\": {clients},\n  \"sessions_per_client\": {sessions},\n  \"server_threads\": {server_threads},\n  \"requests\": {total},\n  \"elapsed_ms\": {:.3},\n  \"requests_per_sec\": {rps:.1},\n  \"p95_ns\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        elapsed * 1e3,
        percentile(&overall, 19, 20),
        results.join(",\n")
    );
    std::fs::write("BENCH_server.json", json).expect("write BENCH_server.json");
    println!("wrote BENCH_server.json");
}
