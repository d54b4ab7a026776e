//! A blocking client for the wire protocol, with timeouts and bounded
//! retry.
//!
//! Used by the integration tests, the `sit client` subcommand, and the
//! `loadgen` bench. One call = one request line out, one response line
//! in.
//!
//! Degraded-mode behavior is a contract, not an accident:
//!
//! * every socket read/write carries a configurable timeout
//!   ([`ClientConfig::timeout`]);
//! * a call that fails on I/O (a timeout, a reset, EOF) drops its
//!   connection, and the next call dials afresh: a late or torn reply
//!   left in the old socket can never answer a later request;
//! * [`Client::call_retrying`] retries transport failures and
//!   `overloaded` rejections with jittered exponential backoff
//!   ([`RetryPolicy`]) — but **only for idempotent verbs**
//!   ([`Request::is_idempotent`]: the `observe` and `read` classes,
//!   `integrate` among them). A lifecycle or write request (`open`,
//!   `close`, `assert`, ...) that fails mid-flight may or may not have
//!   executed; replaying it could double-apply, so the error is
//!   surfaced to the caller instead.
//!
//! The jittered delay never exceeds [`RetryPolicy::cap`]: jitter is
//! *subtracted* from the capped exponential step, spreading retries out
//! in time without ever extending the worst case.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use sit_prng::Xoshiro256pp;

use crate::proto::Request;
use crate::server::write_frame;
use crate::wire::Json;

/// Bounded retry with capped, jittered exponential backoff.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retry attempts after the first try (0 disables retrying).
    pub retries: u32,
    /// First backoff step; doubles each retry.
    pub base: Duration,
    /// Upper bound on any single backoff delay.
    pub cap: Duration,
    /// Randomize each delay downward (by up to half) to spread
    /// synchronized retries out in time.
    pub jitter: bool,
    /// Seed for the jitter stream — same seed, same delays.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 3,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(1),
            jitter: true,
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based). Always ≤
    /// [`RetryPolicy::cap`]: the exponential step is capped first and
    /// jitter only ever subtracts from it.
    pub fn delay(&self, attempt: u32, rng: &mut Xoshiro256pp) -> Duration {
        let base_ms = self.base.as_millis().min(u128::from(u64::MAX)) as u64;
        let cap_ms = self.cap.as_millis().min(u128::from(u64::MAX)) as u64;
        let exp_ms = base_ms
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
            .min(cap_ms);
        let ms = if self.jitter && exp_ms > 0 {
            exp_ms - rng.next_below(exp_ms / 2 + 1)
        } else {
            exp_ms
        };
        Duration::from_millis(ms)
    }
}

/// Connection-level knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Socket read/write timeout; `None` blocks forever.
    pub timeout: Option<Duration>,
    /// Retry behavior for [`Client::call_retrying`].
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            timeout: Some(Duration::from_secs(10)),
            retry: RetryPolicy::default(),
        }
    }
}

/// A connected client.
pub struct Client {
    /// The connection; `None` after an I/O error, until the next call
    /// dials again.
    conn: Option<BufReader<TcpStream>>,
    addr: SocketAddr,
    config: ClientConfig,
    jitter_rng: Xoshiro256pp,
}

impl Client {
    /// Connect with default timeouts and retry policy.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit timeouts and retry policy.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> std::io::Result<Client> {
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match open_stream(candidate, &config) {
                Ok(conn) => {
                    return Ok(Client {
                        conn: Some(conn),
                        addr: candidate,
                        config,
                        jitter_rng: Xoshiro256pp::seed_from_u64(config.retry.seed),
                    })
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no addresses to connect to",
            )
        }))
    }

    /// The effective configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Send one raw frame and read the raw response line, dialing first
    /// if an earlier call dropped the connection. Any I/O error drops it.
    pub fn call_raw(&mut self, frame: &str) -> std::io::Result<String> {
        let outcome = self.exchange(frame);
        if outcome.is_err() {
            self.conn = None;
        }
        outcome
    }

    fn exchange(&mut self, frame: &str) -> std::io::Result<String> {
        let conn = match &mut self.conn {
            Some(conn) => conn,
            None => self.conn.insert(open_stream(self.addr, &self.config)?),
        };
        round_trip(conn, frame)
    }

    /// Send a typed request and parse the response.
    pub fn call(&mut self, request: &Request) -> std::io::Result<Json> {
        let line = self.call_raw(&request.to_json().encode())?;
        Json::parse(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response frame: {e}: {line}"),
            )
        })
    }

    /// [`Client::call`] with bounded retry for idempotent verbs.
    ///
    /// Retried conditions: transport errors (timeout, reset, EOF — the
    /// retry dials a fresh connection) and the server's `overloaded`
    /// backpressure rejection. Each retry waits
    /// [`RetryPolicy::delay`]; attempts stop after
    /// [`RetryPolicy::retries`] and the last outcome is returned.
    ///
    /// Non-idempotent verbs never retry: a mutation whose response was
    /// lost may still have executed, and replaying it could
    /// double-apply. Their first failure is returned as-is.
    pub fn call_retrying(&mut self, request: &Request) -> std::io::Result<Json> {
        let budget = if request.is_idempotent() {
            self.config.retry.retries
        } else {
            0
        };
        let mut attempt = 0u32;
        loop {
            let outcome = self.call(request);
            let retryable = match &outcome {
                Ok(response) => error_code(response) == Some("overloaded"),
                Err(_) => true,
            };
            if !retryable || attempt >= budget {
                return outcome;
            }
            let delay = self.config.retry.delay(attempt, &mut self.jitter_rng);
            std::thread::sleep(delay);
            attempt += 1;
        }
    }

    /// [`Client::call`], failing unless the response is `ok:true`.
    pub fn expect_ok(&mut self, request: &Request) -> std::io::Result<Json> {
        let response = self.call(request)?;
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(response)
        } else {
            Err(std::io::Error::other(format!(
                "{} failed: {}",
                request.op(),
                response.encode()
            )))
        }
    }
}

/// Send one frame, newline included, in a single write and read the
/// reply line.
fn round_trip(conn: &mut BufReader<impl Read + Write>, frame: &str) -> std::io::Result<String> {
    let mut line = String::with_capacity(frame.len() + 1);
    line.push_str(frame);
    write_frame(conn.get_mut(), &mut line)?;
    line.clear();
    let n = conn.read_line(&mut line)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(line.trim_end().to_owned())
}

/// Dial `addr`; requests are written through the reader's inner stream.
fn open_stream(addr: SocketAddr, config: &ClientConfig) -> std::io::Result<BufReader<TcpStream>> {
    let stream = match config.timeout {
        Some(timeout) => TcpStream::connect_timeout(&addr, timeout)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(config.timeout)?;
    stream.set_write_timeout(config.timeout)?;
    Ok(BufReader::new(stream))
}

/// The typed error code of a response frame, if it is an error.
pub fn error_code(response: &Json) -> Option<&str> {
    if response.get("ok").and_then(Json::as_bool) == Some(false) {
        response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream that counts `write` calls and answers every read from
    /// a canned reply.
    struct CountingStream {
        writes: usize,
        sent: Vec<u8>,
        reply: std::io::Cursor<&'static [u8]>,
    }

    impl Write for CountingStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.sent.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Read for CountingStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reply.read(buf)
        }
    }

    #[test]
    fn each_request_frame_is_one_write() {
        let mut conn = BufReader::new(CountingStream {
            writes: 0,
            sent: Vec::new(),
            reply: std::io::Cursor::new(b"{\"ok\":true,\"pong\":true}\n{\"ok\":true}\n"),
        });
        let first = round_trip(&mut conn, r#"{"op":"ping"}"#).unwrap();
        let second = round_trip(&mut conn, r#"{"op":"stats"}"#).unwrap();
        assert_eq!(first, r#"{"ok":true,"pong":true}"#);
        assert_eq!(second, r#"{"ok":true}"#);
        let stream = conn.get_ref();
        assert_eq!(stream.sent, b"{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n");
        assert_eq!(stream.writes, 2, "one write per frame, newline included");
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let policy = RetryPolicy {
            retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            jitter: false,
            seed: 0,
        };
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let delays: Vec<u64> = (0..8)
            .map(|i| policy.delay(i, &mut rng).as_millis() as u64)
            .collect();
        assert_eq!(delays, [10, 20, 40, 80, 100, 100, 100, 100]);
    }

    #[test]
    fn jittered_backoff_never_exceeds_cap_and_is_seeded() {
        let policy = RetryPolicy {
            retries: 64,
            base: Duration::from_millis(7),
            cap: Duration::from_millis(250),
            jitter: true,
            seed: 99,
        };
        let mut rng_a = Xoshiro256pp::seed_from_u64(policy.seed);
        let mut rng_b = Xoshiro256pp::seed_from_u64(policy.seed);
        for attempt in 0..64 {
            let a = policy.delay(attempt, &mut rng_a);
            let b = policy.delay(attempt, &mut rng_b);
            assert_eq!(a, b, "same seed, same schedule");
            assert!(a <= policy.cap, "attempt {attempt}: {a:?} over cap");
            // Jitter subtracts at most half the capped step.
            let step = policy
                .base
                .saturating_mul(2u32.saturating_pow(attempt))
                .min(policy.cap);
            assert!(a >= step / 2, "attempt {attempt}: {a:?} under half step");
        }
    }

    #[test]
    fn huge_attempt_counts_saturate_instead_of_overflowing() {
        let policy = RetryPolicy {
            retries: u32::MAX,
            base: Duration::from_millis(3),
            cap: Duration::from_millis(500),
            jitter: false,
            seed: 0,
        };
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        assert_eq!(policy.delay(63, &mut rng), Duration::from_millis(500));
        assert_eq!(policy.delay(64, &mut rng), Duration::from_millis(500));
        assert_eq!(policy.delay(1000, &mut rng), Duration::from_millis(500));
    }
}
