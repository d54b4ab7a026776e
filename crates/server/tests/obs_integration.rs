//! Observability integration: the Prometheus exposition is golden under
//! a manual clock, Chrome trace exports round-trip through the
//! workspace's own wire parser, client `trace_id`s land in the span
//! ring, and fault-injection events share the span stream.

use std::io::{Read, Write};
use std::sync::Arc;
use std::thread::JoinHandle;

use sit_obs::clock::ManualClock;
use sit_obs::trace::Phase;
use sit_server::fault::{EventLog, FaultConfig, FaultPlan, FaultedTransport};
use sit_server::server::{serve_connection, Gate};
use sit_server::service::Service;
use sit_server::store::StoreConfig;
use sit_server::transport::sim_pair;
use sit_server::wire::{FrameBuffer, Framed, Json};

const DDL1: &str = "schema sc1 { entity Student { Name: char key; GPA: real; } entity Department { Dname: char key; } relationship Majors { Student (0,1); Department (0,n); } }";
const DDL2: &str = "schema sc2 { entity Grad_student { Name: char key; GPA: real; } entity Department { Dname: char key; } relationship Majors { Grad_student (0,1); Department (0,n); } }";

fn ok_frame(service: &Service, line: &str) -> Json {
    let frame = service.handle_line(line).frame;
    let value = Json::parse(&frame).unwrap_or_else(|e| panic!("malformed frame {frame:?}: {e}"));
    assert_eq!(
        value.get("ok").and_then(Json::as_bool),
        Some(true),
        "{frame}"
    );
    value
}

/// Drive the integration demo end to end so the trace contains engine
/// spans, not just the request lifecycle.
fn drive_demo(service: &Service) {
    ok_frame(service, r#"{"op":"open"}"#);
    ok_frame(
        service,
        &format!(r#"{{"op":"add_schema","session":"1","ddl":"{DDL1}"}}"#),
    );
    ok_frame(
        service,
        &format!(r#"{{"op":"add_schema","session":"1","ddl":"{DDL2}"}}"#),
    );
    ok_frame(
        service,
        r#"{"op":"equiv","session":"1","a":"sc1.Student.Name","b":"sc2.Grad_student.Name"}"#,
    );
    ok_frame(
        service,
        r#"{"op":"equiv","session":"1","a":"sc1.Department.Dname","b":"sc2.Department.Dname"}"#,
    );
    ok_frame(
        service,
        r#"{"op":"candidates","session":"1","a":"sc1","b":"sc2"}"#,
    );
    ok_frame(
        service,
        r#"{"op":"assert","session":"1","a":"sc1.Department","b":"sc2.Department","assertion":"equals"}"#,
    );
    ok_frame(
        service,
        r#"{"op":"assert","session":"1","a":"sc1.Student","b":"sc2.Grad_student","assertion":"contains"}"#,
    );
    ok_frame(
        service,
        r#"{"op":"integrate","session":"1","a":"sc1","b":"sc2","pull_up":false}"#,
    );
}

/// The exposition is a pure function of the request history when the
/// clock never moves: every latency is 0 ns (bucket `le="0"`), uptime is
/// 0, and the byte-exact text below is the format contract.
#[test]
fn metrics_text_is_golden_under_a_manual_clock() {
    let service = Service::with_clock(StoreConfig::default(), Arc::new(ManualClock::new()));
    ok_frame(&service, r#"{"op":"ping"}"#);
    ok_frame(&service, r#"{"op":"open"}"#);
    let value = ok_frame(&service, r#"{"op":"metrics_text"}"#);
    let text = value
        .get("text")
        .and_then(Json::as_str)
        .expect("text field");
    let expected = "\
# TYPE sit_uptime_ms gauge
sit_uptime_ms 0
# TYPE sit_sessions gauge
sit_sessions 1
# TYPE sit_sessions_evicted_total counter
sit_sessions_evicted_total{kind=\"lru\"} 0
sit_sessions_evicted_total{kind=\"ttl\"} 0
# TYPE sit_trace_events gauge
sit_trace_events 9
# TYPE sit_trace_events_dropped_total counter
sit_trace_events_dropped_total 0
# TYPE sit_schema_intern_hits_total counter
sit_schema_intern_hits_total 0
# TYPE sit_schema_intern_misses_total counter
sit_schema_intern_misses_total 0
# TYPE sit_schema_intern_entries gauge
sit_schema_intern_entries 0
# TYPE sit_schema_intern_bytes gauge
sit_schema_intern_bytes 0
# TYPE sit_requests_total counter
sit_requests_total{verb=\"open\"} 1
sit_requests_total{verb=\"ping\"} 1
# TYPE sit_request_errors_total counter
sit_request_errors_total{verb=\"open\"} 0
sit_request_errors_total{verb=\"ping\"} 0
# TYPE sit_request_latency_ns histogram
sit_request_latency_ns_bucket{verb=\"open\",le=\"0\"} 1
sit_request_latency_ns_bucket{verb=\"open\",le=\"+Inf\"} 1
sit_request_latency_ns_sum{verb=\"open\"} 0
sit_request_latency_ns_count{verb=\"open\"} 1
sit_request_latency_ns_bucket{verb=\"ping\",le=\"0\"} 1
sit_request_latency_ns_bucket{verb=\"ping\",le=\"+Inf\"} 1
sit_request_latency_ns_sum{verb=\"ping\"} 0
sit_request_latency_ns_count{verb=\"ping\"} 1
";
    assert_eq!(text, expected);
}

/// The exported Chrome trace must parse with the workspace's own JSON
/// parser and carry both request-lifecycle and engine spans with the
/// `trace_event` fields Perfetto expects.
#[test]
fn chrome_trace_round_trips_through_the_wire_parser() {
    let service = Service::new(StoreConfig::default());
    drive_demo(&service);

    let value = ok_frame(&service, r#"{"op":"trace_dump"}"#);
    let trace = value
        .get("trace")
        .and_then(Json::as_str)
        .expect("trace field");
    let chrome = Json::parse(trace).expect("exported trace is valid JSON");
    let events = chrome
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut names = Vec::new();
    for event in events {
        let name = event.get("name").and_then(Json::as_str).expect("name");
        let ph = event.get("ph").and_then(Json::as_str).expect("ph");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph}");
        assert!(event.get("ts").and_then(Json::as_num).is_some(), "ts");
        if ph == "X" {
            assert!(event.get("dur").and_then(Json::as_num).is_some(), "dur");
        }
        assert_eq!(event.get("pid").and_then(Json::as_num), Some(1.0));
        names.push(name);
    }
    for expected in [
        "request",
        "parse",
        "dispatch",
        "encode",
        "session.add_schema",
        "acs.declare_equivalent",
        "ocs.ranked_pairs",
        "closure.assert",
        "integrate",
        "integrate.lattice",
        "integrate.attrs",
        "integrate.assemble",
        "integrate.rels",
    ] {
        assert!(
            names.contains(&expected),
            "missing span `{expected}` in {names:?}"
        );
    }

    // Engine spans nest under their request: every `integrate` span has
    // a parent chain ending at a `request` span.
    let full = service.tracer().snapshot();
    let by_id: std::collections::HashMap<u64, &sit_obs::TraceEvent> =
        full.iter().map(|e| (e.id, e)).collect();
    let integrate = full
        .iter()
        .find(|e| e.name == "integrate")
        .expect("integrate span recorded");
    let mut cursor = integrate.parent;
    let mut reached_request = false;
    while let Some(pid) = cursor {
        let parent = by_id.get(&pid).expect("parent event in ring");
        if parent.name == "request" {
            reached_request = true;
            break;
        }
        cursor = parent.parent;
    }
    assert!(reached_request, "integrate span must nest under a request");
}

/// A client-supplied `trace_id` is attached to the request span, so a
/// dumped trace can be joined against client-side logs.
#[test]
fn client_trace_ids_propagate_into_request_spans() {
    let service = Service::new(StoreConfig::default());
    ok_frame(&service, r#"{"op":"ping","trace_id":"req-7f3a"}"#);
    let tagged = service
        .tracer()
        .snapshot()
        .into_iter()
        .find(|e| e.name == "request" && e.args.iter().any(|(k, _)| *k == "trace_id"))
        .expect("request span with trace_id");
    let (_, id) = tagged
        .args
        .iter()
        .find(|(k, _)| *k == "trace_id")
        .expect("trace_id arg");
    assert_eq!(id, "req-7f3a");
    assert!(matches!(tagged.phase, Phase::Complete));
}

/// Fault-injection events are mirrored onto the span stream: one
/// timeline shows both what the transport did and what the service did.
#[test]
fn fault_events_join_the_span_stream() {
    let clock = Arc::new(ManualClock::new());
    let service = Arc::new(Service::with_clock(StoreConfig::default(), clock.clone()));
    let gate = Arc::new(Gate::new(2, 8));
    let (mut client_end, server_end) = sim_pair();
    let log = EventLog::with_tracer(service.tracer().clone());
    let cfg = FaultConfig {
        min_segment: 1,
        max_segment: 3,
        delay_percent: 50,
        max_delay_ms: 5,
        read_drop_at: None,
        write_drop_at: None,
    };
    let faulted = FaultedTransport::new(server_end, 0, FaultPlan::new(7, cfg), log.clone(), clock);
    let svc = Arc::clone(&service);
    let gt = Arc::clone(&gate);
    let handle: JoinHandle<()> = std::thread::spawn(move || serve_connection(faulted, &svc, &gt));

    client_end.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut frames = FrameBuffer::new();
    let mut buf = [0u8; 256];
    loop {
        if let Some(Framed::Line(line)) = frames.next_frame() {
            assert!(line.contains("\"pong\":true"), "{line}");
            break;
        }
        match client_end.read(&mut buf) {
            Ok(0) | Err(_) => panic!("server hung up before answering"),
            Ok(n) => frames.push(&buf[..n]),
        }
    }
    drop(client_end);
    handle.join().unwrap();
    gate.drain();

    assert!(!log.snapshot().is_empty(), "faults fired");
    let faults: Vec<_> = service
        .tracer()
        .snapshot()
        .into_iter()
        .filter(|e| e.name == "fault")
        .collect();
    assert!(!faults.is_empty(), "fault events mirrored into the trace");
    for event in &faults {
        assert!(matches!(event.phase, Phase::Instant));
        assert!(
            event.args.iter().any(|(k, _)| *k == "event"),
            "fault instant carries the event text"
        );
    }
}
