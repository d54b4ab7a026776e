//! Client retry/backoff behavior against scripted mock servers.
//!
//! Each test stands up a raw `TcpListener` that plays a fixed script —
//! answer `overloaded`, drop the connection, stall, or succeed — and
//! counts exactly how many requests arrived. The assertions pin the
//! retry contract:
//!
//! * idempotent verbs retry through `overloaded` rejections and dead
//!   connections (re-dialing first), bounded by the retry budget;
//! * non-idempotent verbs are NEVER retried — the mock proves the
//!   request arrived exactly once;
//! * read timeouts turn a stalled server into an error instead of a
//!   hang, and a reply that arrives after the timeout never answers the
//!   next request;
//! * the backoff schedule is capped and deterministic (unit-tested in
//!   `client.rs`; re-checked here end to end by timing a retry run).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sit_core::assertion::Assertion;
use sit_server::client::{error_code, Client, ClientConfig, RetryPolicy};
use sit_server::proto::Request;

/// How the mock answers one incoming request line.
#[derive(Clone, Copy)]
enum Play {
    /// Reply with the typed `overloaded` error frame.
    Overloaded,
    /// Reply with a minimal `ok` frame.
    Ok,
    /// Close the connection without replying.
    Hangup,
    /// Read the request but never reply (forces a client read timeout).
    Stall,
    /// Reply with the `overloaded` frame only after `LATE` — past the
    /// client's read timeout.
    LateOverloaded,
}

/// How long a [`Play::LateOverloaded`] reply waits.
const LATE: Duration = Duration::from_millis(300);

const OVERLOADED_FRAME: &str = concat!(
    r#"{"ok":false,"error":"#,
    r#"{"code":"overloaded","message":"queue full"}}"#
);

/// A scripted TCP server: request number `i` (across reconnects) gets
/// `script[i]`. Connections persist until the script says `Hangup` or
/// the client goes away; the counter proves exactly how many requests
/// were (re)sent. The serving thread is detached — after the script is
/// exhausted or the client stops dialing it parks in `accept` and dies
/// with the test process.
struct MockServer {
    addr: std::net::SocketAddr,
    requests: Arc<AtomicUsize>,
    replies: Arc<AtomicUsize>,
}

impl MockServer {
    fn start(script: Vec<Play>) -> MockServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
        let addr = listener.local_addr().expect("mock addr");
        let requests = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&requests);
        let replies = Arc::new(AtomicUsize::new(0));
        let replied = Arc::clone(&replies);
        std::thread::spawn(move || {
            let mut idx = 0;
            while idx < script.len() {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                let Ok(clone) = stream.try_clone() else {
                    return;
                };
                let mut reader = BufReader::new(clone);
                let mut writer = stream;
                loop {
                    if idx >= script.len() {
                        return;
                    }
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break; // client gone; await the next dial
                    }
                    counter.fetch_add(1, Ordering::SeqCst);
                    match script[idx] {
                        Play::Overloaded => {
                            let _ = writeln!(writer, "{OVERLOADED_FRAME}");
                            replied.fetch_add(1, Ordering::SeqCst);
                        }
                        Play::Ok => {
                            let _ = writeln!(writer, r#"{{"ok":true,"pong":true}}"#);
                            replied.fetch_add(1, Ordering::SeqCst);
                        }
                        Play::Hangup => {
                            idx += 1;
                            break; // drop the connection without replying
                        }
                        Play::Stall => std::thread::sleep(Duration::from_millis(400)),
                        Play::LateOverloaded => {
                            std::thread::sleep(LATE);
                            let _ = writeln!(writer, "{OVERLOADED_FRAME}");
                            replied.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    idx += 1;
                }
            }
        });
        MockServer {
            addr,
            requests,
            replies,
        }
    }

    fn requests(&self) -> usize {
        self.requests.load(Ordering::SeqCst)
    }

    /// Reply frames written so far.
    fn replies(&self) -> usize {
        self.replies.load(Ordering::SeqCst)
    }
}

fn fast_config(retries: u32) -> ClientConfig {
    ClientConfig {
        timeout: Some(Duration::from_millis(200)),
        retry: RetryPolicy {
            retries,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(10),
            jitter: false,
            seed: 7,
        },
    }
}

#[test]
fn idempotent_call_retries_through_overloaded_and_succeeds() {
    let mock = MockServer::start(vec![Play::Overloaded, Play::Overloaded, Play::Ok]);
    let mut client = Client::connect_with(mock.addr, fast_config(5)).expect("connect");
    let response = client
        .call_retrying(&Request::Ping)
        .expect("retried to success");
    assert_eq!(
        response.get("pong").and_then(sit_server::Json::as_bool),
        Some(true),
        "final response is the ok frame: {}",
        response.encode()
    );
    assert_eq!(
        mock.requests(),
        3,
        "two overloaded rejections then one success"
    );
}

#[test]
fn idempotent_call_reconnects_after_server_drops_the_connection() {
    let mock = MockServer::start(vec![Play::Hangup, Play::Hangup, Play::Ok]);
    let mut client = Client::connect_with(mock.addr, fast_config(5)).expect("connect");
    let response = client.call_retrying(&Request::Ping).expect("reconnected");
    assert_eq!(
        response.get("pong").and_then(sit_server::Json::as_bool),
        Some(true)
    );
    assert_eq!(
        mock.requests(),
        3,
        "request resent once per fresh connection"
    );
}

#[test]
fn retry_budget_is_bounded() {
    let mock = MockServer::start(vec![Play::Overloaded; 4]);
    let mut client = Client::connect_with(mock.addr, fast_config(2)).expect("connect");
    let response = client
        .call_retrying(&Request::Ping)
        .expect("last frame returned");
    assert_eq!(
        error_code(&response),
        Some("overloaded"),
        "budget exhausted: the final rejection is surfaced"
    );
    assert_eq!(mock.requests(), 3, "1 try + 2 retries, never more");
}

#[test]
fn non_idempotent_verb_is_never_retried_on_overloaded() {
    let mock = MockServer::start(vec![Play::Overloaded, Play::Ok]);
    let mut client = Client::connect_with(mock.addr, fast_config(5)).expect("connect");
    let response = client
        .call_retrying(&Request::Open)
        .expect("error frame is a response, not an io failure");
    assert_eq!(
        error_code(&response),
        Some("overloaded"),
        "the rejection reaches the caller untouched"
    );
    assert_eq!(mock.requests(), 1, "open must not be replayed");
}

#[test]
fn non_idempotent_verb_is_never_retried_on_disconnect() {
    let mock = MockServer::start(vec![Play::Hangup, Play::Ok]);
    let mut client = Client::connect_with(mock.addr, fast_config(5)).expect("connect");
    let err = client
        .call_retrying(&Request::Assert {
            session: "1".into(),
            a: "sa.A".into(),
            b: "sb.B".into(),
            assertion: Assertion::Equal,
        })
        .expect_err("lost connection surfaces as io error");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert_eq!(mock.requests(), 1, "assert must not be replayed");
}

#[test]
fn integrate_is_retried_through_overloaded() {
    // `integrate` reads its session without changing it, so it retries
    // like every other read.
    let mock = MockServer::start(vec![Play::Overloaded, Play::Ok]);
    let mut client = Client::connect_with(mock.addr, fast_config(5)).expect("connect");
    let response = client
        .call_retrying(&Request::Integrate {
            session: "1".into(),
            a: "sa".into(),
            b: "sb".into(),
            pull_up: false,
            mappings: false,
        })
        .expect("retried to success");
    assert_eq!(
        response.get("ok").and_then(sit_server::Json::as_bool),
        Some(true),
        "final response is the ok frame: {}",
        response.encode()
    );
    assert_eq!(mock.requests(), 2, "one overloaded rejection then success");
}

#[test]
fn read_timeout_fires_instead_of_hanging() {
    let mock = MockServer::start(vec![Play::Stall]);
    let config = ClientConfig {
        timeout: Some(Duration::from_millis(100)),
        retry: RetryPolicy {
            retries: 0,
            ..RetryPolicy::default()
        },
    };
    let mut client = Client::connect_with(mock.addr, config).expect("connect");
    let started = Instant::now();
    let err = client.call_retrying(&Request::Ping).expect_err("timed out");
    let elapsed = started.elapsed();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "timeout error kind, got {err:?}"
    );
    assert!(
        elapsed < Duration::from_millis(380),
        "returned before the stall ended ({elapsed:?})"
    );
}

#[test]
fn a_reply_after_the_timeout_never_answers_the_next_call() {
    let mock = MockServer::start(vec![Play::LateOverloaded, Play::Ok]);
    let config = ClientConfig {
        timeout: Some(Duration::from_millis(100)),
        ..fast_config(0)
    };
    let mut client = Client::connect_with(mock.addr, config).expect("connect");
    client.call(&Request::Ping).expect_err("timed out");
    // Let the late `overloaded` frame reach the first connection.
    while mock.replies() < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let response = client.call(&Request::Ping).expect("second call answered");
    assert_eq!(
        response.get("pong").and_then(sit_server::Json::as_bool),
        Some(true),
        "the second call got the first call's late reply: {}",
        response.encode()
    );
    assert_eq!(mock.requests(), 2);
}

#[test]
fn retries_respect_the_backoff_schedule_end_to_end() {
    // Three rejections with base 40ms / cap 60ms and no jitter must
    // spend at least 40 + 60 + 60 = 160ms sleeping between the four
    // requests.
    let mock = MockServer::start(vec![Play::Overloaded; 4]);
    let config = ClientConfig {
        timeout: Some(Duration::from_millis(500)),
        retry: RetryPolicy {
            retries: 3,
            base: Duration::from_millis(40),
            cap: Duration::from_millis(60),
            jitter: false,
            seed: 0,
        },
    };
    let mut client = Client::connect_with(mock.addr, config).expect("connect");
    let started = Instant::now();
    let response = client.call_retrying(&Request::Ping).expect("last frame");
    let elapsed = started.elapsed();
    assert_eq!(error_code(&response), Some("overloaded"));
    assert_eq!(mock.requests(), 4);
    assert!(
        elapsed >= Duration::from_millis(160),
        "backoff delays were actually waited ({elapsed:?})"
    );
}

#[test]
fn retry_against_the_real_server_saturated_pool() {
    // End-to-end: a real server with a 1-thread/1-slot pool gets
    // firehosed by a competing connection; a retrying client keeps
    // backing off through any `overloaded` rejections and lands a pong.
    use sit_server::server::{Server, ServerConfig};

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            queue_cap: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    let blocker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("blocker connect");
        for _ in 0..64 {
            let _ = c.call(&Request::Ping);
        }
    });

    let config = ClientConfig {
        timeout: Some(Duration::from_secs(5)),
        retry: RetryPolicy {
            retries: 20,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
            jitter: true,
            seed: 42,
        },
    };
    let mut client = Client::connect_with(addr, config).expect("connect");
    let response = client
        .call_retrying(&Request::Ping)
        .expect("pong eventually");
    assert_eq!(
        response.get("pong").and_then(sit_server::Json::as_bool),
        Some(true)
    );
    blocker.join().expect("blocker");

    let mut closer = Client::connect(addr).expect("closer");
    let _ = closer.call(&Request::Shutdown);
    handle.join().expect("server thread");
}
