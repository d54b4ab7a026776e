//! B9 — tracing overhead: the ping round trip through `serve_connection`
//! with the span ring live against the same loop with the tracer
//! disabled, plus the micro-costs underneath (span create/drop both
//! ways, histogram record, Chrome export). The ≤5% target on the ping
//! round trip sits alongside the fault decorator's ~3% (B8): both
//! decorators together must stay cheap enough to leave on.

use std::io::{Read, Write};
use std::sync::Arc;

use sit_bench::harness::Bench;
use sit_obs::metrics::Histogram;
use sit_obs::trace::{self, Tracer};
use sit_obs::MonotonicClock;
use sit_server::server::{Gate, Server, ServerConfig};
use sit_server::store::StoreConfig;
use sit_server::wire::{FrameBuffer, Framed};
use sit_server::{serve_connection, sim_pair, Client, Service};

const PINGS: usize = 32;

/// One connection through `serve_connection`: write `PINGS` ping frames,
/// read every response, hang up (the B8 shape, minus fault injection).
fn roundtrip(service: &Arc<Service>, gate: &Arc<Gate>) -> usize {
    let (client_end, server_end) = sim_pair();
    let service_for_conn = Arc::clone(service);
    let gate = Arc::clone(gate);
    let server = std::thread::spawn(move || serve_connection(server_end, &service_for_conn, &gate));
    let mut conn = client_end;
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 1024];
    let mut received = 0usize;
    let mut responses = 0usize;
    for _ in 0..PINGS {
        conn.write_all(b"{\"op\":\"ping\"}\n").expect("write ping");
    }
    while responses < PINGS {
        let n = conn.read(&mut chunk).expect("read responses");
        assert!(n > 0, "server hung up early");
        received += n;
        frames.push(&chunk[..n]);
        while let Some(Framed::Line(_)) = frames.next_frame() {
            responses += 1;
        }
    }
    drop(conn);
    server.join().expect("serving thread");
    received
}

fn main() {
    let mut bench = Bench::new("obs").with_counts(2, 20);
    let service = Arc::new(Service::new(StoreConfig::default()));
    let gate = Arc::new(Gate::new(2, 64));

    service.tracer().set_enabled(true);
    bench.run(format!("traced/ping_x{PINGS}"), || {
        roundtrip(&service, &gate)
    });
    service.tracer().set_enabled(false);
    bench.run(format!("untraced/ping_x{PINGS}"), || {
        roundtrip(&service, &gate)
    });
    service.tracer().set_enabled(true);

    // Dispatch without the transport: the per-request span cost alone.
    bench.run("handle_line/ping_traced", || {
        let mut bytes = 0usize;
        for _ in 0..PINGS {
            bytes += service.handle_line("{\"op\":\"ping\"}").frame.len();
        }
        bytes
    });
    service.tracer().set_enabled(false);
    bench.run("handle_line/ping_untraced", || {
        let mut bytes = 0usize;
        for _ in 0..PINGS {
            bytes += service.handle_line("{\"op\":\"ping\"}").frame.len();
        }
        bytes
    });

    // The same comparison over loopback TCP: the round trip a client
    // actually experiences, where the span cost is amortized against
    // real socket latency.
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let tcp_service = server.service();
    let server = server.spawn().expect("spawn server");
    let mut client = Client::connect(addr).expect("connect");
    bench.run(format!("tcp_traced/ping_x{PINGS}"), || {
        let mut bytes = 0usize;
        for _ in 0..PINGS {
            bytes += client.call_raw("{\"op\":\"ping\"}").expect("ping").len();
        }
        bytes
    });
    tcp_service.tracer().set_enabled(false);
    bench.run(format!("tcp_untraced/ping_x{PINGS}"), || {
        let mut bytes = 0usize;
        for _ in 0..PINGS {
            bytes += client.call_raw("{\"op\":\"ping\"}").expect("ping").len();
        }
        bytes
    });
    drop(client);
    server.shutdown().expect("server shutdown");

    // Micro: span create/drop against the thread-local stack, with the
    // ring live and with recording off.
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 4096);
    let _current = trace::set_current(&tracer);
    bench.run("span/enabled_x1000", || {
        for _ in 0..1000 {
            let _span = trace::span("bench");
        }
        tracer.len()
    });
    tracer.set_enabled(false);
    bench.run("span/disabled_x1000", || {
        for _ in 0..1000 {
            let _span = trace::span("bench");
        }
        tracer.len()
    });
    tracer.set_enabled(true);

    let histogram = Histogram::new();
    bench.run("histogram/record_x1000", || {
        for i in 0..1000u64 {
            histogram.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        histogram.count()
    });

    tracer.clear();
    for i in 0..4096u64 {
        let mut span = tracer.span("fill");
        span.set_arg("i", i.to_string());
    }
    bench.run("chrome_export/4096_events", || tracer.export_chrome().len());

    gate.drain();
    bench.finish().expect("write BENCH_obs.json");
}
