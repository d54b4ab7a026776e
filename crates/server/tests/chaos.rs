//! Chaos suite: seeded multi-client fault scenarios against the real
//! serving stack.
//!
//! Each scenario builds a [`Service`] + admission [`Gate`], connects several
//! simulated clients through [`FaultedTransport`] (torn reads, short
//! writes, virtual-time stalls, planned connection drops), and drives a
//! seeded workload in lockstep — clients take turns, one outstanding
//! request each, so the interleaving (and therefore session ids, store
//! state, and every response byte) is a pure function of the seed. An
//! in-test oracle mirrors the store's capacity/LRU/TTL rules and checks
//! after every event:
//!
//! * (a) nothing panics and no lock is poisoned (serve threads are
//!   joined; the store is probed after every step);
//! * (b) every accepted request yields exactly one well-formed response
//!   frame or a typed error — or a planned drop, in which case the
//!   fault log says whether the request was applied (`write.drop`, the
//!   cut hit the response) or never executed (`read.drop`);
//! * (c) store invariants hold: live count ≤ capacity, the oracle's
//!   LRU/TTL model agrees with the store, evicted ids answer
//!   `unknown_session`.
//!
//! Every scenario runs twice and both traces must be byte-identical.
//! Set `SIT_CHAOS_TRACE=<path>` to dump all traces to a file —
//! `scripts/verify.sh` runs the suite twice and diffs the dumps.

use std::io::{Read, Write};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sit_obs::clock::{Clock, ManualClock};
use sit_prng::Xoshiro256pp;
use sit_server::fault::{EventLog, FaultConfig, FaultEvent, FaultPlan, FaultedTransport};
use sit_server::server::{serve_connection, Gate};
use sit_server::service::Service;
use sit_server::store::StoreConfig;
use sit_server::transport::{sim_pair, SimConn};
use sit_server::wire::{FrameBuffer, Framed, Json, MAX_LINE};

/// The fixed seed list (also the list `scripts/verify.sh chaos` pins).
const SCENARIO_SEEDS: [u64; 24] = [
    101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116, 117, 118, 119,
    120, 121, 122, 123, 124,
];

const STORE_CAP: usize = 3;
const STEPS: usize = 36;

// ---------------------------------------------------------------------------
// Oracle: a model of the store's observable behavior.
// ---------------------------------------------------------------------------

/// Mirror of the session store: id counter, LRU order, eviction
/// counters. `live` is ordered least-recently-used first.
struct Model {
    cap: usize,
    next_id: u64,
    live: Vec<u64>,
    issued: Vec<u64>,
    evicted_lru: u64,
    evicted_ttl: u64,
}

impl Model {
    fn new(cap: usize) -> Model {
        Model {
            cap,
            next_id: 1,
            live: Vec::new(),
            issued: Vec::new(),
            evicted_lru: 0,
            evicted_ttl: 0,
        }
    }

    fn open(&mut self) -> u64 {
        while self.live.len() >= self.cap {
            self.live.remove(0);
            self.evicted_lru += 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.live.push(id);
        self.issued.push(id);
        id
    }

    fn is_live(&self, id: u64) -> bool {
        self.live.contains(&id)
    }

    /// Refresh the LRU stamp (any `get`-backed verb does this, even when
    /// the verb itself then fails).
    fn touch(&mut self, id: u64) {
        if let Some(pos) = self.live.iter().position(|&x| x == id) {
            let id = self.live.remove(pos);
            self.live.push(id);
        }
    }

    fn close(&mut self, id: u64) -> bool {
        match self.live.iter().position(|&x| x == id) {
            Some(pos) => {
                self.live.remove(pos);
                true
            }
            None => false,
        }
    }

    fn expire_all(&mut self) {
        self.evicted_ttl += self.live.len() as u64;
        self.live.clear();
    }
}

// ---------------------------------------------------------------------------
// Workload generation.
// ---------------------------------------------------------------------------

/// Scenario verbs. `stats` joins the byte-traced workload because the
/// scenario's service runs on its [`ManualClock`]: uptime and every
/// latency are functions of virtual time, which advances only on
/// planned transport faults — never mid-dispatch in a lockstep
/// scenario — so the response bytes are a pure function of the seed
/// like every other verb. (`metrics_text`/`trace_dump` stay out: their
/// payloads embed the span ring, whose thread ids are process-global
/// and so not a function of the seed.)
#[derive(Clone, Debug)]
enum Op {
    Ping,
    Open,
    Close(u64),
    Save(u64),
    List(u64),
    Add(u64, usize),
    Stats,
    BadJson,
    BadVerb,
}

impl Op {
    fn frame(&self) -> String {
        match *self {
            Op::Ping => r#"{"op":"ping"}"#.into(),
            Op::Open => r#"{"op":"open"}"#.into(),
            Op::Close(id) => format!(r#"{{"op":"close","session":"{id}"}}"#),
            Op::Save(id) => format!(r#"{{"op":"save","session":"{id}"}}"#),
            Op::List(id) => format!(r#"{{"op":"list_schemas","session":"{id}"}}"#),
            Op::Add(id, step) => format!(
                r#"{{"op":"add_schema","session":"{id}","ddl":"schema s{step} {{ entity E{step} {{ Id: char key; }} }}"}}"#
            ),
            Op::Stats => r#"{"op":"stats"}"#.into(),
            Op::BadJson => "{chaos, not json".into(),
            Op::BadVerb => r#"{"op":"warp"}"#.into(),
        }
    }
}

/// Pick a session id for a verb: usually one the scenario issued
/// (possibly since evicted/closed), sometimes a never-issued id.
fn pick_id(rng: &mut Xoshiro256pp, model: &Model) -> u64 {
    if model.issued.is_empty() || rng.gen_bool(0.25) {
        7000 + rng.gen_range(0u64..9)
    } else {
        *rng.choose(&model.issued).expect("issued non-empty")
    }
}

fn gen_op(rng: &mut Xoshiro256pp, model: &Model, step: usize) -> Op {
    match rng.gen_range(0u32..23) {
        0..=2 => Op::Ping,
        3..=8 => Op::Open,
        9..=11 => Op::Close(pick_id(rng, model)),
        12..=14 => Op::Save(pick_id(rng, model)),
        15..=17 => Op::List(pick_id(rng, model)),
        18..=19 => Op::Add(pick_id(rng, model), step),
        20 => Op::Stats,
        21 => Op::BadJson,
        _ => Op::BadVerb,
    }
}

fn fault_config_for(rng: &mut Xoshiro256pp, mode: u64) -> FaultConfig {
    match mode {
        // Torn frames + virtual stalls, no drops.
        0 => FaultConfig {
            min_segment: 1,
            max_segment: 16,
            delay_percent: 30,
            max_delay_ms: 20,
            read_drop_at: None,
            write_drop_at: None,
        },
        // Inbound cut: the server loses a client mid-request.
        1 => FaultConfig {
            min_segment: 2,
            max_segment: 32,
            delay_percent: 20,
            max_delay_ms: 10,
            read_drop_at: Some(rng.gen_range(40u64..400)),
            write_drop_at: None,
        },
        // Outbound cut: a response is truncated mid-frame.
        2 => FaultConfig {
            min_segment: 2,
            max_segment: 32,
            delay_percent: 20,
            max_delay_ms: 10,
            read_drop_at: None,
            write_drop_at: Some(rng.gen_range(60u64..900)),
        },
        // TTL mode: gentle faults so the expiry semantics stay center
        // stage (the scenario advances the clock past the store TTL once).
        3 => FaultConfig {
            min_segment: 4,
            max_segment: 64,
            delay_percent: 10,
            max_delay_ms: 5,
            read_drop_at: None,
            write_drop_at: None,
        },
        // Everything at once: byte-by-byte tearing, frequent stalls,
        // both cut kinds possible.
        _ => FaultConfig {
            min_segment: 1,
            max_segment: 3,
            delay_percent: 50,
            max_delay_ms: 5,
            read_drop_at: rng.gen_bool(0.5).then(|| rng.gen_range(200u64..1200)),
            write_drop_at: rng.gen_bool(0.5).then(|| rng.gen_range(300u64..1500)),
        },
    }
}

// ---------------------------------------------------------------------------
// Lockstep client.
// ---------------------------------------------------------------------------

struct ChaosClient {
    conn: SimConn,
    frames: FrameBuffer,
    dead: bool,
    handle: JoinHandle<()>,
}

enum Outcome {
    Response(String),
    Dead { partial: usize },
}

impl ChaosClient {
    /// Send one frame and block for its response (or the connection's
    /// death). Lockstep: at most one request is outstanding anywhere.
    fn call(&mut self, frame: &str) -> Outcome {
        let mut bytes = frame.as_bytes().to_vec();
        bytes.push(b'\n');
        if self.conn.write_all(&bytes).is_err() {
            return Outcome::Dead {
                partial: self.frames.buffered(),
            };
        }
        loop {
            if let Some(framed) = self.frames.next_frame() {
                match framed {
                    Framed::Line(line) => return Outcome::Response(line),
                    Framed::Overflow => panic!("server response exceeded MAX_LINE"),
                }
            }
            let mut buf = [0u8; 1024];
            match self.conn.read(&mut buf) {
                Ok(0) | Err(_) => {
                    return Outcome::Dead {
                        partial: self.frames.buffered(),
                    }
                }
                Ok(n) => self.frames.push(&buf[..n]),
            }
        }
    }
}

fn last_drop_for_conn(log: &EventLog, conn: u32) -> Option<FaultEvent> {
    log.snapshot().into_iter().rev().find(|e| match *e {
        FaultEvent::ReadDrop { conn: c, .. } | FaultEvent::WriteDrop { conn: c, .. } => c == conn,
        _ => false,
    })
}

// ---------------------------------------------------------------------------
// Oracle checks.
// ---------------------------------------------------------------------------

const KNOWN_CODES: [&str; 7] = [
    "parse",
    "bad_request",
    "unknown_session",
    "conflict",
    "core",
    "overloaded",
    "shutting_down",
];

/// Parse a response frame and enforce the protocol contract: valid
/// JSON, a boolean `ok`, and on failure a known error code.
fn check_frame(seed: u64, step: usize, frame: &str) -> Json {
    let value = Json::parse(frame)
        .unwrap_or_else(|e| panic!("seed={seed} s{step}: malformed response {frame:?}: {e}"));
    let ok = value
        .get("ok")
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("seed={seed} s{step}: response without ok: {frame}"));
    if !ok {
        let code = value
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("seed={seed} s{step}: error without code: {frame}"));
        assert!(
            KNOWN_CODES.contains(&code),
            "seed={seed} s{step}: unknown error code {code}"
        );
    }
    value
}

fn err_code(value: &Json) -> Option<&str> {
    value
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

fn is_ok(value: &Json) -> bool {
    value.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Check a received response against the model and apply the op's
/// effect. Returns the trace form of the response.
fn apply_response(seed: u64, step: usize, op: &Op, frame: &str, model: &mut Model) -> String {
    let value = check_frame(seed, step, frame);
    let ctx = format!("seed={seed} s{step} op={op:?} resp={frame}");
    match *op {
        Op::Ping => assert!(is_ok(&value), "{ctx}"),
        Op::Open => {
            let expected = model.open();
            assert!(is_ok(&value), "{ctx}");
            let got = value.get("session").and_then(Json::as_str);
            assert_eq!(got, Some(expected.to_string().as_str()), "{ctx}");
        }
        Op::Close(id) => {
            let expected = model.close(id);
            assert!(is_ok(&value), "{ctx}");
            let got = value.get("closed").and_then(Json::as_bool);
            assert_eq!(got, Some(expected), "{ctx}");
        }
        Op::Save(id) | Op::List(id) | Op::Add(id, _) => {
            if model.is_live(id) {
                model.touch(id);
                assert!(is_ok(&value), "live session must serve: {ctx}");
            } else {
                // The eviction contract: a dead id is `unknown_session`,
                // never `conflict` or a panic.
                assert_eq!(err_code(&value), Some("unknown_session"), "{ctx}");
            }
        }
        Op::Stats => {
            assert!(is_ok(&value), "{ctx}");
            let got = value.get("sessions").and_then(Json::as_num);
            assert_eq!(got, Some(model.live.len() as f64), "{ctx}");
        }
        Op::BadJson => assert_eq!(err_code(&value), Some("parse"), "{ctx}"),
        Op::BadVerb => assert_eq!(err_code(&value), Some("bad_request"), "{ctx}"),
    }
    frame.to_owned()
}

/// Apply an op's effect without a response: the fault log proved the
/// request executed but its response was cut (`write.drop`).
fn apply_blind(op: &Op, model: &mut Model) {
    match *op {
        Op::Open => {
            model.open();
        }
        Op::Close(id) => {
            model.close(id);
        }
        Op::Save(id) | Op::List(id) | Op::Add(id, _) => {
            if model.is_live(id) {
                model.touch(id);
            }
        }
        Op::Ping | Op::Stats | Op::BadJson | Op::BadVerb => {}
    }
}

// ---------------------------------------------------------------------------
// Scenario runner.
// ---------------------------------------------------------------------------

fn run_scenario(seed: u64) -> Vec<String> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(seed));
    let n_clients = 2 + (seed % 3) as usize;
    let mode = seed % 5;
    let ttl_mode = mode == 3;
    let ttl = if ttl_mode {
        // Virtual time: longer than all of any scenario's injected
        // delays (at most a few seconds), so only the TTL step expires.
        Duration::from_secs(60)
    } else {
        Duration::from_secs(600)
    };

    // The service shares the scenario's virtual clock, so the timing
    // fields in `stats` responses are deterministic (see [`Op`]).
    let clock = Arc::new(ManualClock::new());
    let service = Arc::new(Service::with_clock(
        StoreConfig {
            max_sessions: STORE_CAP,
            ttl: Some(ttl),
        },
        clock.clone(),
    ));
    let gate = Arc::new(Gate::new(2, 16));
    let log = EventLog::with_tracer(service.tracer().clone());

    let mut clients: Vec<ChaosClient> = Vec::new();
    let mut trace = vec![format!(
        "scenario seed={seed} clients={n_clients} mode={mode}"
    )];
    for k in 0..n_clients {
        let cfg = fault_config_for(&mut rng, mode);
        trace.push(format!(
            "c{k} faults seg={}..={} delay={}%/{}ms rdrop={:?} wdrop={:?}",
            cfg.min_segment,
            cfg.max_segment,
            cfg.delay_percent,
            cfg.max_delay_ms,
            cfg.read_drop_at,
            cfg.write_drop_at
        ));
        let (client_end, server_end) = sim_pair();
        // The closer cuts both directions so neither side blocks on the
        // half-dead pipe.
        let closer = server_end.closer();
        let plan = FaultPlan::new(seed.wrapping_mul(31).wrapping_add(k as u64), cfg);
        let faulted = FaultedTransport::new(server_end, k as u32, plan, log.clone(), clock.clone())
            .on_kill(closer);
        let svc = Arc::clone(&service);
        let gt = Arc::clone(&gate);
        let handle = std::thread::Builder::new()
            .name(format!("chaos-conn-{k}"))
            .spawn(move || serve_connection(faulted, &svc, &gt))
            .expect("spawn serve thread");
        clients.push(ChaosClient {
            conn: client_end,
            frames: FrameBuffer::new(),
            dead: false,
            handle,
        });
    }

    let mut model = Model::new(STORE_CAP);
    for step in 0..STEPS {
        if ttl_mode && step == STEPS / 2 {
            // Advance virtual time by the TTL, then force the lazy
            // expiry via a registry op so model and store agree from
            // here on.
            clock.advance_ns(ttl.as_nanos() as u64);
            model.expire_all();
            let len = service.store().len();
            assert_eq!(len, 0, "seed={seed}: all sessions idle past ttl");
            trace.push(format!("s{step} ttl-advance expired all"));
        }
        let k = step % n_clients;
        if clients[k].dead {
            trace.push(format!("s{step} c{k} skip(dead)"));
            continue;
        }
        let op = gen_op(&mut rng, &model, step);
        let frame = op.frame();
        trace.push(format!("s{step} c{k} > {frame}"));
        match clients[k].call(&frame) {
            Outcome::Response(resp) => {
                let shown = apply_response(seed, step, &op, &resp, &mut model);
                assert_eq!(
                    clients[k].frames.buffered(),
                    0,
                    "seed={seed} s{step}: exactly one response frame per request"
                );
                trace.push(format!("s{step} c{k} < {shown}"));
            }
            Outcome::Dead { partial } => {
                clients[k].dead = true;
                let cause = last_drop_for_conn(&log, k as u32);
                match cause {
                    Some(FaultEvent::WriteDrop { .. }) => apply_blind(&op, &mut model),
                    Some(FaultEvent::ReadDrop { .. }) | None => {}
                    Some(other) => panic!("seed={seed} s{step}: non-drop cause {other}"),
                }
                let cause = cause.map_or_else(|| "eof".to_owned(), |e| e.to_string());
                trace.push(format!("s{step} c{k} DEAD partial={partial} cause={cause}"));
            }
        }
        // Store invariants after every event: bounded, and the oracle's
        // live-set mirrors the store exactly. (`len` also exercises the
        // registry lock — a poisoned lock panics here, failing (a).)
        let len = service.store().len();
        assert!(len <= STORE_CAP, "seed={seed} s{step}: capacity exceeded");
        assert_eq!(len, model.live.len(), "seed={seed} s{step}: live-set drift");
        let (lru, ttl_ev) = service.store().evictions();
        assert_eq!(
            lru, model.evicted_lru,
            "seed={seed} s{step}: lru counter drift"
        );
        assert_eq!(
            ttl_ev, model.evicted_ttl,
            "seed={seed} s{step}: ttl counter drift"
        );
    }

    // Teardown: hang up every client, join every serve thread — a panic
    // in any of them fails the scenario here (invariant (a)).
    for (k, client) in clients.into_iter().enumerate() {
        drop(client.conn);
        client
            .handle
            .join()
            .unwrap_or_else(|_| panic!("seed={seed}: serve thread c{k} panicked"));
    }
    gate.drain();

    // The fault trace, per connection (per-connection order is
    // deterministic; global interleaving of *logging* is not).
    for k in 0..n_clients {
        for event in log.snapshot() {
            let conn = match event {
                FaultEvent::ReadSplit { conn, .. }
                | FaultEvent::ReadDelay { conn, .. }
                | FaultEvent::ReadDrop { conn, .. }
                | FaultEvent::WriteSplit { conn, .. }
                | FaultEvent::WriteDelay { conn, .. }
                | FaultEvent::WriteDrop { conn, .. } => conn,
                // Storage faults are not connection-scoped; this suite
                // drives transports only.
                FaultEvent::StorageTorn { .. }
                | FaultEvent::StorageShort { .. }
                | FaultEvent::StorageCrash { .. } => continue,
            };
            if conn == k as u32 {
                trace.push(format!("fault {event}"));
            }
        }
    }
    trace.push(format!("clock {}ms", clock.now_ns() / 1_000_000));
    let (lru, ttl_ev) = service.store().evictions();
    trace.push(format!(
        "store len={} evicted_lru={lru} evicted_ttl={ttl_ev}",
        service.store().len()
    ));
    trace
}

// ---------------------------------------------------------------------------
// The suite.
// ---------------------------------------------------------------------------

/// ≥ 20 seeded scenarios; each runs twice and the event traces must be
/// byte-identical. `SIT_CHAOS_TRACE=<path>` dumps the combined trace.
#[test]
fn chaos_scenarios_are_deterministic_and_hold_invariants() {
    let mut combined = String::new();
    for &seed in &SCENARIO_SEEDS {
        let first = run_scenario(seed);
        let second = run_scenario(seed);
        for (i, (a, b)) in first.iter().zip(second.iter()).enumerate() {
            assert_eq!(
                a,
                b,
                "seed={seed}: trace diverges at line {i} (of {}/{})",
                first.len(),
                second.len()
            );
        }
        assert_eq!(
            first.len(),
            second.len(),
            "seed={seed}: trace lengths diverge"
        );
        for line in &first {
            combined.push_str(line);
            combined.push('\n');
        }
    }
    if let Ok(path) = std::env::var("SIT_CHAOS_TRACE") {
        std::fs::write(&path, combined).expect("write chaos trace dump");
    }
}

/// Gate saturation surfaces as the typed `overloaded` error on the wire
/// (not a hang, not a dropped frame), and the connection recovers once
/// the gate frees up.
#[test]
fn saturated_pool_answers_overloaded_then_recovers() {
    let service = Arc::new(Service::new(StoreConfig::default()));
    let gate = Arc::new(Gate::new(1, 1));
    let (client_end, server_end) = sim_pair();
    let svc = Arc::clone(&service);
    let gt = Arc::clone(&gate);
    let handle = std::thread::spawn(move || serve_connection(server_end, &svc, &gt));

    let mut client = ChaosClient {
        conn: client_end,
        frames: FrameBuffer::new(),
        dead: false,
        handle,
    };

    // Occupy the single slot, then fill the queue with a second entrant.
    let held = gate.enter().unwrap();
    let queued = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || drop(gate.enter().expect("queued, then admitted")))
    };
    while gate.waiting() < 1 {
        std::thread::yield_now();
    }

    // A request now bounces with the typed backpressure error.
    let Outcome::Response(resp) = client.call(r#"{"op":"ping"}"#) else {
        panic!("saturated gate must answer, not drop");
    };
    let value = Json::parse(&resp).unwrap();
    assert_eq!(err_code(&value), Some("overloaded"), "{resp}");

    // Release the slot; once the queued entrant has come and gone the
    // gate is empty, so the same connection's next request runs.
    drop(held);
    queued.join().unwrap();
    let Outcome::Response(resp) = client.call(r#"{"op":"ping"}"#) else {
        panic!("connection died during recovery");
    };
    assert!(
        resp.contains("\"pong\":true"),
        "connection must recover after the gate frees up: {resp}"
    );

    drop(client.conn);
    client.handle.join().unwrap();
    gate.drain();
}

/// A frame that exceeds `MAX_LINE` without a newline cannot be
/// resynchronized: the server answers one typed `parse` error and closes.
#[test]
fn oversized_frame_gets_parse_error_then_close() {
    let service = Arc::new(Service::new(StoreConfig::default()));
    let gate = Arc::new(Gate::new(2, 8));
    let (mut client_end, server_end) = sim_pair();
    let svc = Arc::clone(&service);
    let gt = Arc::clone(&gate);
    let handle = std::thread::spawn(move || serve_connection(server_end, &svc, &gt));

    let flood = vec![b'x'; MAX_LINE + 16];
    client_end.write_all(&flood).unwrap();

    let mut frames = FrameBuffer::new();
    let mut buf = [0u8; 1024];
    let response = loop {
        if let Some(Framed::Line(line)) = frames.next_frame() {
            break line;
        }
        match client_end.read(&mut buf) {
            Ok(0) | Err(_) => panic!("expected a parse-error response before close"),
            Ok(n) => frames.push(&buf[..n]),
        }
    };
    let value = Json::parse(&response).unwrap();
    assert_eq!(err_code(&value), Some("parse"), "{response}");

    // Then EOF: the connection is closed, not resynchronized.
    loop {
        match client_end.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    handle.join().unwrap();
    gate.drain();
}

/// Drop-mid-frame from the client side: bytes of a request with no
/// newline, then hangup. The server must discard the partial frame
/// without executing it.
#[test]
fn client_hangup_mid_frame_never_executes_the_partial_request() {
    let service = Arc::new(Service::new(StoreConfig::default()));
    let gate = Arc::new(Gate::new(2, 8));
    let (mut client_end, server_end) = sim_pair();
    let svc = Arc::clone(&service);
    let gt = Arc::clone(&gate);
    let handle = std::thread::spawn(move || serve_connection(server_end, &svc, &gt));

    client_end.write_all(br#"{"op":"open"#).unwrap();
    drop(client_end);
    handle.join().unwrap();
    assert_eq!(service.store().len(), 0, "partial open must not execute");
    gate.drain();
}

/// `stats` through a byte-by-byte torn, stalled transport must still
/// answer well-formed with the right session count (the seeded
/// scenarios mix `stats` in too, but under gentler tearing).
#[test]
fn stats_under_torn_frames_is_well_formed() {
    let service = Arc::new(Service::new(StoreConfig::default()));
    let gate = Arc::new(Gate::new(2, 8));
    let (client_end, server_end) = sim_pair();
    let cfg = FaultConfig {
        min_segment: 1,
        max_segment: 3,
        delay_percent: 50,
        max_delay_ms: 5,
        read_drop_at: None,
        write_drop_at: None,
    };
    let log = EventLog::new();
    let faulted = FaultedTransport::new(
        server_end,
        0,
        FaultPlan::new(42, cfg),
        log.clone(),
        Arc::default(),
    );
    let svc = Arc::clone(&service);
    let gt = Arc::clone(&gate);
    let handle = std::thread::spawn(move || serve_connection(faulted, &svc, &gt));
    let mut client = ChaosClient {
        conn: client_end,
        frames: FrameBuffer::new(),
        dead: false,
        handle,
    };

    let Outcome::Response(opened) = client.call(r#"{"op":"open"}"#) else {
        panic!("open dropped");
    };
    assert!(is_ok(&Json::parse(&opened).unwrap()), "{opened}");
    let Outcome::Response(stats) = client.call(r#"{"op":"stats"}"#) else {
        panic!("stats dropped");
    };
    let value = Json::parse(&stats).unwrap();
    assert!(is_ok(&value), "{stats}");
    assert_eq!(
        value.get("sessions").and_then(Json::as_num),
        Some(1.0),
        "{stats}"
    );
    assert!(
        !log.snapshot().is_empty(),
        "byte-by-byte segments must have fired fault events"
    );

    drop(client.conn);
    client.handle.join().unwrap();
    gate.drain();
}
