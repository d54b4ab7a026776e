//! Seeded fault injection over any byte stream and any [`Storage`].
//!
//! [`FaultedTransport`] wraps a [`Read`] + [`Write`] stream and perturbs
//! the bytes crossing it: reads are split at planned offsets, truncated,
//! or cut dead; writes are shortened, stalled, or dropped mid-frame. Every
//! decision comes from a [`FaultPlan`] — two forked `sit_prng` streams
//! (one per direction) that draw *segment boundaries in the byte stream*,
//! never per-call randomness. A read of 7 bytes in one call or seven
//! calls crosses the same boundaries and fires the same events, so the
//! event trace is a pure function of `(seed, bytes transferred)`: the
//! property `scripts/verify.sh chaos` checks by diffing two runs.
//!
//! Time is virtual: a "delay" advances a shared [`ManualClock`] and is
//! recorded in the [`EventLog`]; nothing sleeps. Frozen time makes
//! thousand-event schedules replay in microseconds and keeps wall-clock
//! jitter out of the trace. Build the [`crate::Service::with_clock`]
//! under test over the same clock and every timing field (span
//! timestamps, latencies, `stats` uptime) and every session TTL becomes
//! a pure function of the schedule.
//!
//! Connection drops are cooperative: the plan carries an optional drop
//! offset per direction, and on reaching it the transport invokes a
//! `kill` hook (closing the simulated peer) so both sides observe the
//! cut immediately — no thread is ever left blocked on a half-dead pipe.

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sit_obs::clock::ManualClock;
use sit_obs::sync::lock_recover;
use sit_obs::trace::Tracer;
use sit_prng::Xoshiro256pp;

use crate::storage::Storage;

/// Nanoseconds in one of the fault plans' virtual milliseconds.
const NS_PER_MS: u64 = 1_000_000;

/// One injected perturbation, tagged with the connection label and the
/// byte offset (per direction) where it fired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Read stream segmented: bytes after `at` arrive in a later call.
    ReadSplit {
        /// Connection label.
        conn: u32,
        /// Cumulative inbound byte offset where the boundary fell.
        at: u64,
    },
    /// Simulated latency before the read at `at` completed.
    ReadDelay {
        /// Connection label.
        conn: u32,
        /// Cumulative inbound byte offset where the boundary fell.
        at: u64,
        /// Virtual milliseconds injected.
        ms: u64,
    },
    /// Inbound stream cut at `at`: the server sees EOF mid-request.
    ReadDrop {
        /// Connection label.
        conn: u32,
        /// Cumulative inbound byte offset where the cut fell.
        at: u64,
    },
    /// Short write: only the bytes up to `at` were accepted this call.
    WriteSplit {
        /// Connection label.
        conn: u32,
        /// Cumulative outbound byte offset where the boundary fell.
        at: u64,
    },
    /// Simulated stall before the write at `at` completed.
    WriteDelay {
        /// Connection label.
        conn: u32,
        /// Cumulative outbound byte offset where the boundary fell.
        at: u64,
        /// Virtual milliseconds injected.
        ms: u64,
    },
    /// Outbound stream cut at `at`: the response is truncated.
    WriteDrop {
        /// Connection label.
        conn: u32,
        /// Cumulative outbound byte offset where the cut fell.
        at: u64,
    },
    /// A storage write was torn: only a prefix of the record reached
    /// `file` before the crash point.
    StorageTorn {
        /// Storage file name that received the partial write.
        file: String,
        /// Cumulative storage byte offset where the tear fell.
        at: u64,
    },
    /// A transient short write: a prefix persisted, the call errored,
    /// and the process kept running (the repair path's trigger).
    StorageShort {
        /// Storage file name that received the partial write.
        file: String,
        /// Cumulative storage byte offset where the short write fell.
        at: u64,
    },
    /// The simulated process died: every later storage call fails.
    StorageCrash {
        /// Cumulative storage byte offset of the crash point.
        at: u64,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::ReadSplit { conn, at } => write!(f, "c{conn} read.split@{at}"),
            FaultEvent::ReadDelay { conn, at, ms } => {
                write!(f, "c{conn} read.delay@{at}+{ms}ms")
            }
            FaultEvent::ReadDrop { conn, at } => write!(f, "c{conn} read.drop@{at}"),
            FaultEvent::WriteSplit { conn, at } => write!(f, "c{conn} write.split@{at}"),
            FaultEvent::WriteDelay { conn, at, ms } => {
                write!(f, "c{conn} write.delay@{at}+{ms}ms")
            }
            FaultEvent::WriteDrop { conn, at } => write!(f, "c{conn} write.drop@{at}"),
            FaultEvent::StorageTorn { ref file, at } => {
                write!(f, "storage.torn@{at} {file}")
            }
            FaultEvent::StorageShort { ref file, at } => {
                write!(f, "storage.short@{at} {file}")
            }
            FaultEvent::StorageCrash { at } => write!(f, "storage.crash@{at}"),
        }
    }
}

/// Shared, append-only record of everything the fault layer did.
///
/// Locking is poison-recovering ([`lock_recover`]): a panic elsewhere
/// in a serve thread must not take the fault record down with it —
/// the log is exactly what the post-mortem wants to read.
#[derive(Clone, Default)]
pub struct EventLog {
    events: Arc<Mutex<Vec<FaultEvent>>>,
    tracer: Option<Tracer>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// An empty log that additionally mirrors every fault event onto
    /// `tracer` as a `fault` instant event — chaos perturbations and
    /// request spans land in one stream, one export format.
    pub fn with_tracer(tracer: Tracer) -> EventLog {
        EventLog {
            events: Arc::default(),
            tracer: Some(tracer),
        }
    }

    fn push(&self, event: FaultEvent) {
        if let Some(tracer) = &self.tracer {
            tracer.instant_arg("fault", "event", event.to_string());
        }
        lock_recover(&self.events).push(event);
    }

    /// Copy of the events so far, in arrival order.
    pub fn snapshot(&self) -> Vec<FaultEvent> {
        lock_recover(&self.events).clone()
    }
}

/// Knobs for one connection's [`FaultPlan`].
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Shortest planned segment between boundaries, in bytes (≥ 1).
    pub min_segment: usize,
    /// Longest planned segment between boundaries, in bytes.
    pub max_segment: usize,
    /// Probability (0–100) that a boundary also injects a virtual delay.
    pub delay_percent: u32,
    /// Upper bound on one injected delay, in virtual ms.
    pub max_delay_ms: u64,
    /// Cut the inbound stream once this many bytes have been read.
    pub read_drop_at: Option<u64>,
    /// Cut the outbound stream once this many bytes have been written.
    pub write_drop_at: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            min_segment: 1,
            max_segment: 64,
            delay_percent: 25,
            max_delay_ms: 50,
            read_drop_at: None,
            write_drop_at: None,
        }
    }
}

/// The schedule for one direction of one connection.
struct DirPlan {
    rng: Xoshiro256pp,
    cfg: FaultConfig,
    /// Cumulative bytes moved in this direction.
    offset: u64,
    /// Bytes left before the next planned boundary.
    until_boundary: usize,
    drop_at: Option<u64>,
    dropped: bool,
}

impl DirPlan {
    fn new(mut rng: Xoshiro256pp, cfg: FaultConfig, drop_at: Option<u64>) -> DirPlan {
        let first = Self::draw_segment(&mut rng, &cfg);
        DirPlan {
            rng,
            cfg,
            offset: 0,
            until_boundary: first,
            drop_at,
            dropped: false,
        }
    }

    fn draw_segment(rng: &mut Xoshiro256pp, cfg: &FaultConfig) -> usize {
        let lo = cfg.min_segment.max(1);
        let hi = cfg.max_segment.max(lo);
        rng.gen_range(lo..hi + 1)
    }

    /// Largest transfer allowed right now without crossing a boundary or
    /// the drop offset. `None` means the drop fires *before* any byte
    /// moves.
    fn allowance(&self, want: usize) -> Option<usize> {
        let mut cap = want.min(self.until_boundary);
        if let Some(drop_at) = self.drop_at {
            if self.offset >= drop_at {
                return None;
            }
            cap = cap.min((drop_at - self.offset) as usize);
        }
        Some(cap)
    }

    /// Account `n` transferred bytes. Returns the boundary-crossing
    /// outcome: `Some(delay_ms)` if a boundary was reached (0 = plain
    /// split), `None` otherwise.
    fn advance(&mut self, n: usize) -> Option<u64> {
        self.offset += n as u64;
        self.until_boundary -= n;
        if self.until_boundary > 0 {
            return None;
        }
        let delay = if self.rng.gen_bool(f64::from(self.cfg.delay_percent) / 100.0) {
            self.rng.gen_range(1..self.cfg.max_delay_ms.max(1) + 1)
        } else {
            0
        };
        let cfg = self.cfg;
        self.until_boundary = Self::draw_segment(&mut self.rng, &cfg);
        Some(delay)
    }

    fn at_drop(&self) -> bool {
        matches!(self.drop_at, Some(d) if self.offset >= d)
    }
}

/// Deterministic perturbation schedule for one connection: a forked RNG
/// stream per direction drawing segment boundaries and delays, plus
/// optional drop offsets. Same seed + same bytes ⇒ same events.
pub struct FaultPlan {
    read: DirPlan,
    write: DirPlan,
}

impl FaultPlan {
    /// Build the plan for a connection from a scenario seed.
    pub fn new(seed: u64, cfg: FaultConfig) -> FaultPlan {
        let mut base = Xoshiro256pp::seed_from_u64(seed);
        let read_rng = base.fork();
        let write_rng = base.fork();
        FaultPlan {
            read: DirPlan::new(read_rng, cfg, cfg.read_drop_at),
            write: DirPlan::new(write_rng, cfg, cfg.write_drop_at),
        }
    }
}

/// A byte-stream decorator that applies a [`FaultPlan`] to the reads and
/// writes of an inner stream, recording every injected event.
pub struct FaultedTransport<T> {
    inner: T,
    conn: u32,
    plan: FaultPlan,
    log: EventLog,
    clock: Arc<ManualClock>,
    /// Invoked once when either direction is cut, so the peer observes
    /// the drop instead of blocking on a half-dead pipe.
    kill: Option<Box<dyn Fn() + Send + Sync>>,
}

impl<T> FaultedTransport<T> {
    /// Wrap `inner` with the given plan. `conn` labels this connection
    /// in the shared log; injected delays advance `clock`.
    pub fn new(
        inner: T,
        conn: u32,
        plan: FaultPlan,
        log: EventLog,
        clock: Arc<ManualClock>,
    ) -> FaultedTransport<T> {
        FaultedTransport {
            inner,
            conn,
            plan,
            log,
            clock,
            kill: None,
        }
    }

    /// Register the hook fired when a planned drop cuts the connection.
    pub fn on_kill(mut self, kill: impl Fn() + Send + Sync + 'static) -> Self {
        self.kill = Some(Box::new(kill));
        self
    }

    fn fire_kill(&mut self) {
        if let Some(kill) = self.kill.take() {
            kill();
        }
    }
}

impl<T: Read> Read for FaultedTransport<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.plan.read.dropped {
            return Ok(0);
        }
        if self.plan.read.at_drop() {
            self.plan.read.dropped = true;
            let event = FaultEvent::ReadDrop {
                conn: self.conn,
                at: self.plan.read.offset,
            };
            self.log.push(event);
            self.fire_kill();
            return Ok(0);
        }
        let Some(allowed) = self.plan.read.allowance(buf.len()) else {
            unreachable!("at_drop checked above");
        };
        if allowed == 0 {
            return Ok(0);
        }
        let n = self.inner.read(&mut buf[..allowed])?;
        if n == 0 {
            return Ok(0);
        }
        if let Some(delay_ms) = self.plan.read.advance(n) {
            let at = self.plan.read.offset;
            if delay_ms > 0 {
                self.clock.advance_ns(delay_ms * NS_PER_MS);
                self.log.push(FaultEvent::ReadDelay {
                    conn: self.conn,
                    at,
                    ms: delay_ms,
                });
            } else {
                self.log.push(FaultEvent::ReadSplit {
                    conn: self.conn,
                    at,
                });
            }
        }
        Ok(n)
    }
}

impl<T: Write> Write for FaultedTransport<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.plan.write.dropped {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection dropped by fault plan",
            ));
        }
        if self.plan.write.at_drop() {
            self.plan.write.dropped = true;
            let event = FaultEvent::WriteDrop {
                conn: self.conn,
                at: self.plan.write.offset,
            };
            self.log.push(event);
            self.fire_kill();
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection dropped by fault plan",
            ));
        }
        let Some(allowed) = self.plan.write.allowance(buf.len()) else {
            unreachable!("at_drop checked above");
        };
        if allowed == 0 {
            return Ok(0);
        }
        // Stall before the bytes reach the peer: a peer that reacts to
        // them must already see the advanced clock, or its next request
        // races this thread's clock update.
        if let Some(delay_ms) = self.plan.write.advance(allowed) {
            let at = self.plan.write.offset;
            if delay_ms > 0 {
                self.clock.advance_ns(delay_ms * NS_PER_MS);
                self.log.push(FaultEvent::WriteDelay {
                    conn: self.conn,
                    at,
                    ms: delay_ms,
                });
            } else if allowed < buf.len() {
                // Only record a split when the caller actually observed a
                // short write; a boundary landing exactly on the frame
                // edge perturbs nothing.
                self.log.push(FaultEvent::WriteSplit {
                    conn: self.conn,
                    at,
                });
            }
        }
        self.inner.write_all(&buf[..allowed])?;
        Ok(allowed)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Knobs for a [`FaultedStorage`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageFaultConfig {
    /// Crash once cumulative written bytes *exceed* this budget: a
    /// record ending exactly at the budget persists in full (and a
    /// later fsync succeeds), one byte more tears it at the boundary.
    /// `None` never crashes.
    pub crash_after_bytes: Option<u64>,
    /// Probability (0–100) that an append persists only a seeded prefix
    /// and errors *without* crashing — the transient short write after
    /// which the log seals its segment and continues in a new one.
    pub short_write_percent: u32,
    /// Seed for the short-write schedule.
    pub seed: u64,
}

/// Seeded fault decorator over any [`Storage`]: deterministic torn
/// writes, transient short writes, and a byte-offset crash point.
///
/// After the crash fires every call returns an error — the simulated
/// process is dead. Recovery code talks to the *inner* storage
/// directly, exactly like a restarted process reopening the directory.
pub struct FaultedStorage {
    inner: Arc<dyn Storage>,
    cfg: StorageFaultConfig,
    rng: Mutex<Xoshiro256pp>,
    written: AtomicU64,
    crashed: std::sync::atomic::AtomicBool,
    log: EventLog,
}

impl FaultedStorage {
    /// Wrap `inner` with the fault schedule in `cfg`.
    pub fn new(inner: Arc<dyn Storage>, cfg: StorageFaultConfig, log: EventLog) -> FaultedStorage {
        FaultedStorage {
            inner,
            cfg,
            rng: Mutex::new(Xoshiro256pp::seed_from_u64(cfg.seed)),
            written: AtomicU64::new(0),
            crashed: std::sync::atomic::AtomicBool::new(false),
            log,
        }
    }

    /// Cumulative bytes accepted by the inner storage — run a workload
    /// once with no crash point to learn the sweep budget.
    pub fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::SeqCst)
    }

    /// Whether the crash point has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    fn dead() -> io::Error {
        io::Error::other("storage crashed by fault plan")
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.crashed() {
            Err(Self::dead())
        } else {
            Ok(())
        }
    }

    /// Bytes of `len` that fit under the crash budget, or `None` when
    /// the whole write fits.
    fn tear_point(&self, len: usize) -> Option<usize> {
        let budget = self.cfg.crash_after_bytes?;
        let so_far = self.written.load(Ordering::SeqCst);
        if so_far + len as u64 <= budget {
            None
        } else {
            Some((budget.saturating_sub(so_far)) as usize)
        }
    }
}

impl Storage for FaultedStorage {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.check_alive()?;
        if let Some(keep) = self.tear_point(data.len()) {
            // Crash point: a torn prefix lands, then the process dies.
            if keep > 0 {
                self.inner.append(name, &data[..keep])?;
                self.written.fetch_add(keep as u64, Ordering::SeqCst);
                self.log.push(FaultEvent::StorageTorn {
                    file: name.to_owned(),
                    at: self.written.load(Ordering::SeqCst),
                });
            }
            self.crashed.store(true, Ordering::SeqCst);
            self.log.push(FaultEvent::StorageCrash {
                at: self.written.load(Ordering::SeqCst),
            });
            return Err(Self::dead());
        }
        if !data.is_empty() && self.cfg.short_write_percent > 0 {
            let short = {
                let mut rng = lock_recover(&self.rng);
                rng.gen_bool(f64::from(self.cfg.short_write_percent.min(100)) / 100.0)
                    .then(|| rng.gen_range(0..data.len()))
            };
            if let Some(keep) = short {
                if keep > 0 {
                    self.inner.append(name, &data[..keep])?;
                    self.written.fetch_add(keep as u64, Ordering::SeqCst);
                }
                self.log.push(FaultEvent::StorageShort {
                    file: name.to_owned(),
                    at: self.written.load(Ordering::SeqCst),
                });
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "short write injected by fault plan",
                ));
            }
        }
        self.inner.append(name, data)?;
        self.written.fetch_add(data.len() as u64, Ordering::SeqCst);
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        // fsync moves no bytes: it only fails once the process is dead.
        self.check_alive()?;
        self.inner.sync(name)
    }

    fn sync_dir(&self) -> io::Result<()> {
        self.check_alive()?;
        self.inner.sync_dir()
    }

    fn reader(&self, name: &str) -> io::Result<Box<dyn io::Read + Send>> {
        self.check_alive()?;
        self.inner.reader(name)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.check_alive()?;
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.check_alive()?;
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::sim_pair;
    use sit_obs::clock::Clock;

    fn drain(t: &mut impl Read) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match t.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
            }
        }
        out
    }

    #[test]
    fn same_seed_same_events_regardless_of_chunking() {
        let payload: Vec<u8> = (0..400u32).map(|i| (i % 251) as u8).collect();
        let mut traces = Vec::new();
        for chunk in [1usize, 3, 64, 400] {
            let (mut tx, rx) = sim_pair();
            tx.write_all(&payload).unwrap();
            drop(tx);
            let log = EventLog::new();
            let plan = FaultPlan::new(7, FaultConfig::default());
            let mut faulted = FaultedTransport::new(rx, 1, plan, log.clone(), Arc::default());
            let mut got = Vec::new();
            let mut buf = vec![0u8; chunk];
            loop {
                match faulted.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                }
            }
            assert_eq!(got, payload, "payload intact through faults");
            traces.push(
                log.snapshot()
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>(),
            );
        }
        for t in &traces[1..] {
            assert_eq!(t, &traces[0], "events depend only on seed + bytes");
        }
    }

    #[test]
    fn read_drop_cuts_the_stream_at_the_offset() {
        let (mut tx, rx) = sim_pair();
        tx.write_all(b"0123456789").unwrap();
        let cfg = FaultConfig {
            read_drop_at: Some(4),
            delay_percent: 0,
            ..FaultConfig::default()
        };
        let log = EventLog::new();
        let mut faulted =
            FaultedTransport::new(rx, 2, FaultPlan::new(1, cfg), log.clone(), Arc::default());
        let got = drain(&mut faulted);
        assert_eq!(got, b"0123", "exactly drop_at bytes delivered");
        assert!(log
            .snapshot()
            .contains(&FaultEvent::ReadDrop { conn: 2, at: 4 }));
    }

    #[test]
    fn write_drop_truncates_and_kills_the_peer() {
        let (server_side, mut client_side) = sim_pair();
        let cfg = FaultConfig {
            write_drop_at: Some(6),
            delay_percent: 0,
            min_segment: 64,
            max_segment: 64,
            ..FaultConfig::default()
        };
        let log = EventLog::new();
        let killed = Arc::new(AtomicU64::new(0));
        let killed2 = Arc::clone(&killed);
        let mut faulted = FaultedTransport::new(
            server_side,
            3,
            FaultPlan::new(1, cfg),
            log.clone(),
            Arc::default(),
        )
        .on_kill(move || {
            killed2.fetch_add(1, Ordering::SeqCst);
        });
        let err = faulted.write_all(b"a full response frame\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(killed.load(Ordering::SeqCst), 1, "kill hook fired once");
        assert!(log
            .snapshot()
            .contains(&FaultEvent::WriteDrop { conn: 3, at: 6 }));
        drop(faulted);
        let got = drain(&mut client_side);
        assert_eq!(got, b"a full", "peer saw the truncated prefix only");
    }

    #[test]
    fn storage_crash_fires_strictly_after_the_budget() {
        use crate::storage::MemStorage;
        // Budget exactly equal to one append: the append fully
        // persists and the *next* byte crashes.
        let inner = Arc::new(MemStorage::new());
        let cfg = StorageFaultConfig {
            crash_after_bytes: Some(5),
            ..StorageFaultConfig::default()
        };
        let log = EventLog::new();
        let faulted = FaultedStorage::new(inner.clone() as Arc<dyn Storage>, cfg, log.clone());
        faulted.append("j", b"12345").unwrap();
        faulted.sync("j").unwrap();
        assert!(!faulted.crashed());
        let err = faulted.append("j", b"6").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(faulted.crashed());
        assert!(faulted.sync("j").is_err(), "dead process cannot fsync");
        assert_eq!(inner.read("j").unwrap(), b"12345");
        assert!(log
            .snapshot()
            .iter()
            .any(|e| matches!(e, FaultEvent::StorageCrash { at: 5 })));
    }

    #[test]
    fn storage_crash_mid_record_leaves_a_torn_prefix() {
        use crate::storage::MemStorage;
        let inner = Arc::new(MemStorage::new());
        let cfg = StorageFaultConfig {
            crash_after_bytes: Some(3),
            ..StorageFaultConfig::default()
        };
        let log = EventLog::new();
        let faulted = FaultedStorage::new(inner.clone() as Arc<dyn Storage>, cfg, log.clone());
        assert!(faulted.append("j", b"abcdef").is_err());
        assert_eq!(inner.read("j").unwrap(), b"abc", "prefix up to the budget");
        let events: Vec<String> = log.snapshot().iter().map(ToString::to_string).collect();
        assert_eq!(events, vec!["storage.torn@3 j", "storage.crash@3"]);
    }

    #[test]
    fn short_writes_persist_a_prefix_and_do_not_crash() {
        use crate::storage::MemStorage;
        let inner = Arc::new(MemStorage::new());
        let cfg = StorageFaultConfig {
            short_write_percent: 100,
            seed: 11,
            ..StorageFaultConfig::default()
        };
        let log = EventLog::new();
        let faulted = FaultedStorage::new(inner.clone() as Arc<dyn Storage>, cfg, log.clone());
        let err = faulted.append("j", b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert!(!faulted.crashed(), "short writes are transient");
        let kept = inner.read("j").unwrap();
        assert!(kept.len() < 10, "a strict prefix persisted");
        assert_eq!(&b"0123456789"[..kept.len()], &kept[..]);
        assert!(log
            .snapshot()
            .iter()
            .any(|e| matches!(e, FaultEvent::StorageShort { .. })));
    }

    #[test]
    fn delays_advance_virtual_time_only() {
        let clock = Arc::new(ManualClock::new());
        let (mut tx, rx) = sim_pair();
        let payload = vec![b'x'; 4096];
        tx.write_all(&payload).unwrap();
        drop(tx);
        let cfg = FaultConfig {
            delay_percent: 100,
            max_delay_ms: 10,
            min_segment: 16,
            max_segment: 32,
            ..FaultConfig::default()
        };
        let log = EventLog::new();
        let mut faulted = FaultedTransport::new(
            rx,
            4,
            FaultPlan::new(9, cfg),
            log.clone(),
            Arc::clone(&clock),
        );
        let wall = std::time::Instant::now();
        let got = drain(&mut faulted);
        assert_eq!(got.len(), payload.len());
        let advanced: u64 = log
            .snapshot()
            .iter()
            .map(|e| match *e {
                FaultEvent::ReadDelay { ms, .. } => ms,
                _ => 0,
            })
            .sum();
        assert!(advanced > 0, "100% delay chance must inject delays");
        assert_eq!(
            clock.now_ns(),
            advanced * NS_PER_MS,
            "clock tracks injected delays"
        );
        assert!(
            wall.elapsed() < std::time::Duration::from_millis(advanced),
            "virtual delays must not sleep for real"
        );
    }
}
