//! The serving layer: newline-delimited JSON over TCP and stdio.
//!
//! ## TCP ([`Server`])
//!
//! One acceptor thread owns the listener. Each connection gets its own
//! blocking thread, which reads a frame, executes it, and writes the
//! response, so responses stay in request order per connection while
//! different connections run in parallel. Execution is bounded by a
//! [`Gate`]: at most `threads` requests run at once, at most
//! `queue_cap` more wait for a slot, and a request beyond that is
//! answered with the typed `overloaded` error immediately.
//!
//! The server keeps one read interrupter per *live* connection; a
//! connection removes its own entry when its thread ends, so sockets and
//! thread handles are released as clients hang up, not at shutdown.
//!
//! Graceful shutdown (wire verb `shutdown`, or
//! [`Service::begin_shutdown`] from a ctrl channel) drains: the acceptor
//! stops, the gate refuses new requests and waits for running and
//! waiting ones (their responses are still written), then live client
//! sockets are read-shutdown to unblock readers and every connection
//! thread is joined.
//!
//! ## stdio ([`serve_stdio`])
//!
//! The same protocol, one request per line on stdin, one response per
//! line on stdout — single-threaded, for pipes and tests.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use sit_obs::clock::MonotonicClock;
use sit_obs::sync::lock_recover;

use crate::persist::PersistConfig;
use crate::proto::{ErrorCode, ServerError};
use crate::service::Service;
use crate::storage::{DirStorage, Storage};
use crate::store::StoreConfig;
use crate::transport::{Interrupter, TcpTransport, Transport};
use crate::wire::{FrameBuffer, Framed};

/// Where and how the server persists sessions.
#[derive(Clone, Debug)]
pub struct PersistOptions {
    /// Directory holding the log's segments, snapshots included
    /// (created if missing).
    pub data_dir: PathBuf,
    /// Fsync and snapshot policies.
    pub config: PersistConfig,
}

/// Serving limits.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Requests executing at once.
    pub threads: usize,
    /// Bounded queue depth; submissions beyond it get `overloaded`.
    pub queue_cap: usize,
    /// Session-store limits.
    pub store: StoreConfig,
    /// Durable sessions (`--data-dir`); `None` keeps sessions
    /// in-memory only.
    pub persist: Option<PersistOptions>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            queue_cap: 128,
            store: StoreConfig::default(),
            persist: None,
        }
    }
}

/// Build the service a config describes: plain in-memory, or durable
/// with recovery already run over `--data-dir`.
pub fn build_service(config: &ServerConfig) -> std::io::Result<Service> {
    match &config.persist {
        None => Ok(Service::new(config.store)),
        Some(opts) => Service::with_persistence(
            config.store,
            Arc::new(MonotonicClock::new()),
            Arc::new(DirStorage::open(&opts.data_dir)?) as Arc<dyn Storage>,
            opts.config,
        ),
    }
}

/// A bound (not yet running) TCP server.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    config: ServerConfig,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) and prepare the
    /// service. The returned server is not accepting yet — call
    /// [`Server::run`] or [`Server::spawn`].
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        Self::with_listener(TcpListener::bind(addr)?, config)
    }

    /// Prepare the service (recovering `config.persist`'s data directory,
    /// if any) to serve on an already bound `listener`, so a caller can
    /// tell a listener error from a recovery error.
    pub fn with_listener(listener: TcpListener, config: ServerConfig) -> std::io::Result<Server> {
        let service = Arc::new(build_service(&config)?);
        // The shutdown hook unblocks the acceptor with a throwaway
        // connection to our own port.
        let local = listener.local_addr()?;
        service.set_shutdown_hook(Box::new(move || {
            let _ = TcpStream::connect(local);
        }));
        Ok(Server {
            listener,
            service,
            config,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared service (for ctrl-channel shutdown and stats).
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.service)
    }

    /// Accept and serve until shutdown, then drain and return.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            service,
            config,
        } = self;
        let gate = Arc::new(Gate::new(config.threads, config.queue_cap));
        let live: Arc<LiveConnections> = Arc::default();
        let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();

        for (id, stream) in listener.incoming().enumerate() {
            if service.is_draining() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let transport = TcpTransport::new(stream);
            let registration = Registration::new(&live, id, transport.interrupter());
            let service = Arc::clone(&service);
            let gate = Arc::clone(&gate);
            let handle = std::thread::Builder::new()
                .name("sit-conn".into())
                .spawn(move || {
                    let _registration = registration;
                    serve_connection(transport, &service, &gate);
                })
                .expect("spawn connection thread");
            // Let go of connections that have ended, so the handles
            // kept are bounded by the live connections.
            conn_threads.retain(|thread| !thread.is_finished());
            conn_threads.push(handle);
        }

        // Drain: finish running and waiting requests (their responses
        // are written by the connection threads)...
        gate.drain();
        // ...then unblock any reader still waiting for a next request.
        for interrupter in lock_recover(&live).values() {
            interrupter.interrupt();
        }
        for handle in conn_threads {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Run on a background thread; returns a handle with the address and
    /// service.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let service = self.service();
        let thread = std::thread::Builder::new()
            .name("sit-serve".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            service,
            thread,
        })
    }
}

/// A running background server.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// Address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (stats, ctrl-channel shutdown).
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.service)
    }

    /// Trigger a graceful shutdown and wait for the drain to finish.
    pub fn shutdown(self) -> std::io::Result<()> {
        self.service.begin_shutdown();
        self.thread.join().unwrap_or(Ok(()))
    }

    /// Wait for the server to stop on its own (e.g. a wire `shutdown`).
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().unwrap_or(Ok(()))
    }
}

/// The read interrupters of the server's live connections, by accept
/// order.
type LiveConnections = Mutex<HashMap<usize, Interrupter>>;

/// One connection's entry in [`LiveConnections`]. Dropping it (when the
/// connection's thread ends, by return or by unwinding) removes the
/// entry and with it the interrupter's handle on the socket, so the
/// server holds sockets only for connections that are still open.
struct Registration {
    live: Arc<LiveConnections>,
    id: usize,
}

impl Registration {
    fn new(live: &Arc<LiveConnections>, id: usize, interrupter: Interrupter) -> Registration {
        lock_recover(live).insert(id, interrupter);
        Registration {
            live: Arc::clone(live),
            id,
        }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        lock_recover(&self.live).remove(&self.id);
    }
}

/// Admission control for request execution.
///
/// At most `slots` requests hold a [`Permit`] at once; at most `queue`
/// more block in [`Gate::enter`] until a slot frees; any request beyond
/// that is refused at once, never blocked. [`Gate::drain`] refuses new
/// entries and waits until every running and waiting request is done.
/// A permit gives its slot back when dropped — also while a panicking
/// request unwinds — so a drain cannot wedge on a lost slot.
pub struct Gate {
    slots: usize,
    queue: usize,
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    running: usize,
    waiting: usize,
    draining: bool,
}

/// [`Gate::enter`] refused: the slots and the queue are full, or the
/// gate is draining.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Refused;

/// The right to execute one request; gives its slot back on drop.
#[must_use = "the slot is given back as soon as the permit is dropped"]
pub struct Permit<'a> {
    gate: &'a Gate,
}

impl Gate {
    /// A gate running at most `slots` requests at once with at most
    /// `queue` more waiting (each at least 1).
    pub fn new(slots: usize, queue: usize) -> Gate {
        Gate {
            slots: slots.max(1),
            queue: queue.max(1),
            state: Mutex::new(GateState::default()),
            changed: Condvar::new(),
        }
    }

    /// Take a slot, waiting for one if every slot is busy and the queue
    /// has room; refuse at once if the queue is full or the gate is
    /// draining.
    pub fn enter(&self) -> Result<Permit<'_>, Refused> {
        let mut state = lock_recover(&self.state);
        if state.draining {
            return Err(Refused);
        }
        if state.running >= self.slots {
            if state.waiting >= self.queue {
                return Err(Refused);
            }
            state.waiting += 1;
            while state.running >= self.slots {
                state = self
                    .changed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.waiting -= 1;
        }
        state.running += 1;
        Ok(Permit { gate: self })
    }

    /// Requests currently waiting for a slot (diagnostics).
    pub fn waiting(&self) -> usize {
        lock_recover(&self.state).waiting
    }

    /// Refuse new entries, then wait until no request is running or
    /// waiting. Idempotent.
    pub fn drain(&self) {
        let mut state = lock_recover(&self.state);
        state.draining = true;
        while state.running + state.waiting > 0 {
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = lock_recover(&self.gate.state);
        state.running -= 1;
        // Waiters and a drain share the condvar, so wake them all; with
        // neither present, skip the wake-up call.
        if state.waiting > 0 || state.draining {
            self.gate.changed.notify_all();
        }
    }
}

/// Serve one connection over any [`Transport`] until the peer hangs up
/// (EOF), a write fails, or an unrecoverable frame arrives.
///
/// This is the loop both the TCP acceptor and the simulated/chaos
/// transports run: bytes are reassembled into newline-delimited frames by
/// a [`FrameBuffer`] (so torn and coalesced reads behave identically on
/// every transport), each frame executes on the calling thread once
/// `gate` admits it, and the response is written back in request order.
/// A frame that exceeds [`crate::wire::MAX_LINE`] without a newline gets
/// a typed `parse` error and the connection is closed — there is no way
/// to resynchronize a stream mid-flood.
pub fn serve_connection<T: Transport>(mut transport: T, service: &Service, gate: &Gate) {
    let tracer = service.tracer().clone();
    tracer.instant("accept");
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(framed) = frames.next_frame() {
            let line = match framed {
                Framed::Line(line) => line,
                Framed::Overflow => {
                    let _ = write_frame(&mut transport, &overflow_frame());
                    return;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            tracer.instant("frame");
            let response = match gate.enter() {
                Ok(_permit) => service.handle_line(&line).frame,
                Err(Refused) if service.is_draining() => {
                    ServerError::shutting_down().to_response().encode()
                }
                Err(Refused) => ServerError::overloaded().to_response().encode(),
            };
            let written = {
                let _write = tracer.span("write");
                write_frame(&mut transport, &response)
            };
            if written.is_err() {
                return;
            }
        }
        match transport.read(&mut chunk) {
            Ok(0) | Err(_) => return, // disconnect (or drain unblocked us)
            Ok(n) => frames.push(&chunk[..n]),
        }
    }
}

/// Write one response frame (payload + newline) and flush it.
fn write_frame<T: Transport>(transport: &mut T, frame: &str) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(frame.len() + 1);
    out.extend_from_slice(frame.as_bytes());
    out.push(b'\n');
    transport.write_all(&out)?;
    transport.flush()
}

/// The typed `parse` error answering a frame that reached
/// [`crate::wire::MAX_LINE`] without a newline.
fn overflow_frame() -> String {
    ServerError {
        code: ErrorCode::Parse,
        message: "frame exceeds maximum length without a newline".into(),
    }
    .to_response()
    .encode()
}

/// Serve the protocol over arbitrary reader/writer pairs (stdin/stdout in
/// `sit serve --stdio`). Returns after EOF, a `shutdown` request, or a
/// frame longer than [`crate::wire::MAX_LINE`] (answered with a `parse`
/// error, as on TCP). A last line without a newline is served at EOF.
pub fn serve_stdio(
    service: &Service,
    mut reader: impl Read,
    mut writer: impl Write,
) -> std::io::Result<()> {
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    let mut eof = false;
    loop {
        while let Some(framed) = frames.next_frame() {
            let Framed::Line(line) = framed else {
                writeln!(writer, "{}", overflow_frame())?;
                return writer.flush();
            };
            if line.trim().is_empty() {
                continue;
            }
            let handled = service.handle_line(&line);
            writeln!(writer, "{}", handled.frame)?;
            writer.flush()?;
            if handled.shutdown {
                return Ok(());
            }
        }
        if eof {
            return Ok(());
        }
        match reader.read(&mut chunk) {
            Ok(0) => {
                eof = true;
                frames.push(b"\n");
            }
            Ok(n) => frames.push(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Json;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn stdio_round_trip_and_shutdown() {
        let service = Service::new(StoreConfig::default());
        let input =
            b"{\"op\":\"ping\"}\n{\"op\":\"open\"}\n{\"op\":\"shutdown\"}\n{\"op\":\"ping\"}\n"
                .to_vec();
        let mut out = Vec::new();
        serve_stdio(&service, &input[..], &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        // The trailing ping after shutdown is never answered.
        assert_eq!(lines.len(), 3);
        for l in &lines {
            let v = Json::parse(l).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{l}");
        }
    }

    /// A reader of `len` bytes that never sends a newline, counting what
    /// the server pulls from it.
    struct Flood {
        left: usize,
        consumed: Arc<AtomicUsize>,
    }

    impl std::io::Read for Flood {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.left);
            buf[..n].fill(b'x');
            self.left -= n;
            self.consumed.fetch_add(n, Ordering::SeqCst);
            Ok(n)
        }
    }

    #[test]
    fn stdio_stops_reading_at_the_frame_limit() {
        let service = Service::new(StoreConfig::default());
        let consumed = Arc::new(AtomicUsize::new(0));
        let flood = Flood {
            left: 4 << 20,
            consumed: Arc::clone(&consumed),
        };
        let reader = std::io::BufReader::with_capacity(4096, flood);
        let mut out = Vec::new();
        serve_stdio(&service, reader, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let frames: Vec<&str> = text.lines().collect();
        assert_eq!(frames.len(), 1, "{text}");
        let v = Json::parse(frames[0]).unwrap();
        let code = v
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        assert_eq!(code, Some("parse"), "{text}");
        let read = consumed.load(Ordering::SeqCst);
        assert!(
            read <= crate::wire::MAX_LINE + 4096,
            "read {read} bytes of a newline-free flood"
        );
    }

    #[test]
    fn tcp_serves_and_drains_on_wire_shutdown() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn().unwrap();

        let mut client = crate::client::Client::connect(addr).unwrap();
        let pong = client.call_raw("{\"op\":\"ping\"}").unwrap();
        assert!(pong.contains("\"pong\":true"), "{pong}");
        let opened = client.call_raw("{\"op\":\"open\"}").unwrap();
        assert!(opened.contains("\"session\""), "{opened}");
        let bye = client.call_raw("{\"op\":\"shutdown\"}").unwrap();
        assert!(bye.contains("\"draining\":true"), "{bye}");

        handle.join().unwrap();
    }

    #[test]
    fn gate_never_runs_more_than_its_slots() {
        let gate = Gate::new(2, 64);
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let _permit = gate.enter().expect("queue has room for all");
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    active.fetch_sub(1, Ordering::SeqCst);
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 8);
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=2).contains(&peak), "peak concurrency {peak}");
    }

    #[test]
    fn gate_refuses_when_slots_and_queue_are_full() {
        let gate = Gate::new(1, 2);
        std::thread::scope(|scope| {
            let held = gate.enter().unwrap();
            for _ in 0..2 {
                scope.spawn(|| drop(gate.enter().expect("queued, then admitted")));
            }
            while gate.waiting() < 2 {
                std::thread::yield_now();
            }
            assert!(matches!(gate.enter(), Err(Refused)));
            drop(held);
        });
        assert!(gate.enter().is_ok(), "slots free again");
    }

    #[test]
    fn drain_finishes_running_and_queued_entries_and_is_idempotent() {
        let gate = Gate::new(1, 64);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let held = gate.enter().unwrap();
            for _ in 0..8 {
                scope.spawn(|| {
                    let _permit = gate.enter().expect("queued before the drain");
                    std::thread::sleep(Duration::from_millis(1));
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            while gate.waiting() < 8 {
                std::thread::yield_now();
            }
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                drop(held);
            });
            gate.drain();
            assert_eq!(done.load(Ordering::SeqCst), 8, "queued entries drained");
            gate.drain(); // second drain is a no-op
        });
    }

    #[test]
    fn drained_gate_refuses() {
        let gate = Gate::new(1, 4);
        gate.drain();
        assert!(matches!(gate.enter(), Err(Refused)));
    }

    #[test]
    fn panic_while_holding_a_permit_releases_it() {
        let gate = Gate::new(1, 1);
        std::thread::scope(|scope| {
            let request = scope.spawn(|| {
                let _permit = gate.enter().unwrap();
                panic!("request panic must give its slot back");
            });
            assert!(request.join().is_err());
        });
        drop(gate.enter().expect("the slot came back"));
        // And the drain does not wedge waiting for the lost request.
        gate.drain();
    }

    #[test]
    fn tcp_ctrl_channel_shutdown_drains() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn().unwrap();
        let mut client = crate::client::Client::connect(addr).unwrap();
        assert!(client
            .call_raw("{\"op\":\"ping\"}")
            .unwrap()
            .contains("pong"));
        handle.shutdown().unwrap();
    }
}
