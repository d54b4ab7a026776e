//! B8 — serving-loop transport cost: the in-memory simulated transport
//! against the same loop under fault injection, plus raw line
//! reassembly. Quantifies what the chaos harness's decorator costs, so
//! chaos-suite wall-times can be read as scenario work rather than
//! harness overhead.

use std::io::{Read, Write};
use std::sync::Arc;

use sit_bench::harness::Bench;
use sit_server::fault::{EventLog, FaultConfig, FaultPlan, FaultedTransport};
use sit_server::server::Gate;
use sit_server::store::StoreConfig;
use sit_server::wire::{FrameBuffer, Framed};
use sit_server::{serve_connection, sim_pair, Service};

const PINGS: usize = 32;

/// Drive one connection through `serve_connection`: write `PINGS` ping
/// frames, read every response, hang up. Returns bytes received.
fn roundtrip(service: &Arc<Service>, gate: &Arc<Gate>, fault_seed: Option<u64>) -> usize {
    let (client_end, server_end) = sim_pair();
    let service = Arc::clone(service);
    let gate = Arc::clone(gate);
    let server = std::thread::spawn(move || match fault_seed {
        Some(seed) => {
            let cfg = FaultConfig {
                min_segment: 4,
                max_segment: 48,
                delay_percent: 25,
                ..FaultConfig::default()
            };
            let faulted = FaultedTransport::new(
                server_end,
                0,
                FaultPlan::new(seed, cfg),
                EventLog::new(),
                Arc::default(),
            );
            serve_connection(faulted, &service, &gate);
        }
        None => serve_connection(server_end, &service, &gate),
    });
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
    let mut bench = Bench::new("transport").with_counts(2, 20);
    let service = Arc::new(Service::new(StoreConfig::default()));
    let gate = Arc::new(Gate::new(2, 64));

    bench.run(format!("sim/ping_x{PINGS}"), || {
        roundtrip(&service, &gate, None)
    });
    bench.run(format!("sim_faulted/ping_x{PINGS}"), || {
        roundtrip(&service, &gate, Some(0xFA))
    });

    // Raw reassembly: 256 one-KiB lines pushed in 173-byte chunks (a
    // worst-ish case: every line spans several pushes).
    let mut input = Vec::new();
    for i in 0..256usize {
        let mut line = vec![b'a' + (i % 26) as u8; 1023];
        line.push(b'\n');
        input.extend_from_slice(&line);
    }
    bench.run("frame_reassembly/256x1KiB", || {
        let mut frames = FrameBuffer::new();
        let mut lines = 0usize;
        for chunk in input.chunks(173) {
            frames.push(chunk);
            while let Some(Framed::Line(_)) = frames.next_frame() {
                lines += 1;
            }
        }
        assert_eq!(lines, 256);
        lines
    });

    gate.drain();
    bench.finish().expect("write BENCH_transport.json");
}
