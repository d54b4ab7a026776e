//! Durable sessions: one server-wide write-ahead log holding every
//! session's records and snapshots, and crash recovery over any
//! [`Storage`].
//!
//! ## On-disk layout (one flat directory)
//!
//! The directory holds nothing but the log's segments,
//! `log.<number>.<generation>` (see [`crate::wal`]). Every
//! session-addressed event is one record, tagged with its session: an
//! *open* record when `open` or `load` creates the session (a `load`
//! carries its frame), one record per *attempted* mutating verb,
//! journaled **before** the verb touches the in-memory session
//! (write-ahead), a *snapshot* record every
//! [`PersistConfig::snapshot_every`] mutations, and a *close* record
//! when `close` ends it. A verb that failed live (e.g. a conflicting
//! assert) stays in the log and fails identically on replay — dispatch
//! is deterministic, so a record needs no outcome bit.
//!
//! A session owns no file: `open`, a snapshot and `close` each cost one
//! append. Any `<id>.journal` or `<id>.snap.*` (the per-session files
//! of older layouts) fails recovery with `InvalidData`, naming the
//! file, rather than start without the history it holds.
//!
//! ## Records
//!
//! ```text
//! | len: u32 le | crc: u32 le | session: u64 le | seq: u64 le | kind: u8 | payload |
//! ```
//!
//! `crc` is CRC-32 (IEEE) over everything after it, so a torn tail, a
//! bit flip, or a stale length all fail closed. `len` is bounded by the
//! kind: [`MAX_JOURNAL_PAYLOAD`] for open, mutation and close records,
//! [`MAX_SNAPSHOT_PAYLOAD`] for snapshots. Decoding a segment stops at
//! its first bad record; the segments after it are still read
//! ("acknowledged ⇒ recovered" never depends on bytes after a
//! corruption, and a segment sealed after a failed append ends in a
//! torn record by design).
//!
//! `seq` numbers one session's records from 1 (its open record); a
//! snapshot record carries the sequence of the last record it covers,
//! so the records after it keep their numbers. Recovery applies a
//! session's record only if it is the next one the session expects, so
//! a duplicate left by an interrupted copy-forward applies once only,
//! and records past a gap (lost to power loss under a weak fsync
//! policy) never apply out of order.
//!
//! ## Snapshots and collection
//!
//! A snapshot record's payload is the [`script::save`] text of the
//! session. Recovery replaces the session with it whenever it covers at
//! least everything applied so far, so the result is the newest
//! snapshot plus the records after it, whatever collection has or has
//! not removed. Retention is by one: a session's previous snapshot
//! record and every record after it stay needed, so a corrupt newest
//! snapshot falls back to the previous one plus the log. Older records,
//! and all records of closed sessions, are no longer needed;
//! [`crate::wal`] deletes segments holding nothing else, and copies the
//! needed records of old segments forward.
//!
//! ## Durability contract
//!
//! With `fsync=always`, a verb is acknowledged only after its record is
//! fsynced (group commit: one fsync covers every record appended before
//! it): acknowledged ⇒ recovered, byte-for-byte (the crash suite in
//! `tests/crash.rs` sweeps every byte offset). `every-n` and `never`
//! trade the tail of un-fsynced acknowledgements for throughput — after
//! power loss the recovered state of each session is a prefix of its
//! acknowledged history, never a divergent state. Every snapshot is a
//! durability point under every policy: the log is committed through
//! the snapshot record before the session's previous records may go.
//!
//! ## Ownership
//!
//! [`Persistence`] owns the log, and the log owns each session's place
//! in it: which sessions are open, each one's last sequence number,
//! mutations since its newest snapshot, that snapshot's sequence and
//! its collection floor (one [`crate::wal`] entry per open session,
//! from its open record to its close record). So `append` and
//! [`Persistence::snapshot`] take only a session id, an append for a
//! closed session fails whoever still holds it, and eviction from the
//! store drops the in-memory session but not its place in the log.
//! Recovery fills those entries and hands back bare sessions.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{self, Read};
use std::sync::Arc;

use sit_core::script;
use sit_core::session::Session;
use sit_obs::clock::Clock;
use sit_obs::metrics::{prom_counter, prom_histogram, Counter, Histogram};
use sit_obs::trace;

use crate::intern::SchemaTable;
use crate::proto::{ErrorCode, Request, ServerError};
use crate::storage::Storage;
use crate::wal::{self, Appended, Live, Segment, Wal};
use crate::wire::Json;

/// Bytes of fixed header before each log record's payload.
pub const LOG_RECORD_HEADER: usize = 25;

/// Largest open, mutation or close record payload accepted by the
/// decoder (a payload is one request frame, bounded by the wire's 1 MiB
/// line limit — anything larger is corruption, not data).
pub const MAX_JOURNAL_PAYLOAD: usize = 2 * 1024 * 1024;

/// Largest snapshot record payload accepted (session scripts dwarf
/// single frames but still bound the decoder against absurd length
/// fields); a larger snapshot is not written.
pub const MAX_SNAPSHOT_PAYLOAD: usize = 256 * 1024 * 1024;

pub use crate::wal::SEGMENT_BYTES;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)

// Slicing-by-8: eight derived tables let the hot loop fold 8 input
// bytes per iteration instead of 1, which matters because this CRC
// runs on every journaled request.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        state = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ CRC_TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

// ---------------------------------------------------------------------
// Log record codec

/// What a log record does to its session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// The session begins; the payload is empty (`open`) or the `load`
    /// frame that seeds it.
    Open,
    /// One attempted mutating verb: the request frame as received.
    Frame,
    /// The session ends (`close`); no payload.
    Close,
    /// The session as of its `seq`: the [`script::save`] text.
    Snapshot,
}

impl RecordKind {
    fn byte(self) -> u8 {
        match self {
            RecordKind::Open => 1,
            RecordKind::Frame => 2,
            RecordKind::Close => 3,
            RecordKind::Snapshot => 4,
        }
    }

    /// Largest payload a record of this kind may carry.
    fn max_payload(self) -> usize {
        match self {
            RecordKind::Snapshot => MAX_SNAPSHOT_PAYLOAD,
            _ => MAX_JOURNAL_PAYLOAD,
        }
    }

    fn from_byte(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::Open),
            2 => Some(RecordKind::Frame),
            3 => Some(RecordKind::Close),
            4 => Some(RecordKind::Snapshot),
            _ => None,
        }
    }
}

/// The log record header after `len` and `crc`: session, seq, kind.
fn log_header_tail(session: u64, seq: u64, kind: RecordKind) -> [u8; 17] {
    let mut tail = [0u8; 17];
    tail[..8].copy_from_slice(&session.to_le_bytes());
    tail[8..16].copy_from_slice(&seq.to_le_bytes());
    tail[16] = kind.byte();
    tail
}

/// CRC-32 of a log record's session, seq and kind bytes followed by its
/// payload.
pub fn log_record_crc(session: u64, seq: u64, kind: RecordKind, payload: &[u8]) -> u32 {
    let state = crc32_update(0xFFFF_FFFF, &log_header_tail(session, seq, kind));
    crc32_update(state, payload) ^ 0xFFFF_FFFF
}

/// Encode one log record.
pub fn encode_log_record(session: u64, seq: u64, kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(LOG_RECORD_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&log_record_crc(session, seq, kind, payload).to_le_bytes());
    out.extend_from_slice(&log_header_tail(session, seq, kind));
    out.extend_from_slice(payload);
    out
}

/// One decoded log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// The session it belongs to.
    pub session: u64,
    /// Its place in the session's sequence.
    pub seq: u64,
    /// What it does.
    pub kind: RecordKind,
    /// The frame or session script (empty for close and plain open
    /// records).
    pub payload: Vec<u8>,
}

/// Streaming decoder over one segment: yields intact records until the
/// bytes run out or a record fails its kind, its kind's length bound or
/// its checksum.
/// Holds one record at a time, never the segment.
pub struct LogReader<R> {
    inner: R,
    consumed: u64,
    trailing: u64,
    done: bool,
}

/// Read until `buf` is full or the input ends; the bytes read.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

impl<R: Read> LogReader<R> {
    /// A decoder at the start of `inner`.
    pub fn new(inner: R) -> LogReader<R> {
        LogReader {
            inner,
            consumed: 0,
            trailing: 0,
            done: false,
        }
    }

    /// The next intact record; `None` once the input ends or a bad
    /// record is met (everything from it on is the tail). Errors only
    /// when reading the input fails.
    pub fn next_record(&mut self) -> io::Result<Option<LogRecord>> {
        if self.done {
            return Ok(None);
        }
        let mut header = [0u8; LOG_RECORD_HEADER];
        let got = read_full(&mut self.inner, &mut header)?;
        if got < LOG_RECORD_HEADER {
            return Ok(self.stop(got));
        }
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let session = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let seq = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        let Some(kind) = RecordKind::from_byte(header[24]) else {
            return Ok(self.stop(LOG_RECORD_HEADER));
        };
        if len > kind.max_payload() {
            return Ok(self.stop(LOG_RECORD_HEADER)); // absurd length
        }
        let mut payload = Vec::with_capacity(len.min(64 * 1024));
        (&mut self.inner)
            .take(len as u64)
            .read_to_end(&mut payload)?;
        if payload.len() < len || log_record_crc(session, seq, kind, &payload) != crc {
            // Torn tail or corrupt record: everything after is suspect.
            return Ok(self.stop(LOG_RECORD_HEADER + payload.len()));
        }
        self.consumed += (LOG_RECORD_HEADER + len) as u64;
        Ok(Some(LogRecord {
            session,
            seq,
            kind,
            payload,
        }))
    }

    fn stop(&mut self, read: usize) -> Option<LogRecord> {
        self.done = true;
        self.trailing += read as u64;
        None
    }

    /// Bytes covered by the records returned so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Bytes after the last intact record, reading the rest of the input
    /// to count them (0 on a clean segment).
    pub fn finish(mut self) -> io::Result<u64> {
        while self.next_record()?.is_some() {}
        Ok(self.trailing + io::copy(&mut self.inner, &mut io::sink())?)
    }
}

/// The result of decoding a whole log segment held in memory.
pub struct LogScan {
    /// Every intact record, in order.
    pub records: Vec<LogRecord>,
    /// Bytes covered by those records — a torn tail starts here.
    pub consumed: usize,
    /// Bytes after `consumed` (0 on a clean segment).
    pub trailing: usize,
}

/// Decode a segment's bytes with [`LogReader`]. Never panics on
/// arbitrary input.
pub fn decode_log_records(bytes: &[u8]) -> LogScan {
    let mut reader = LogReader::new(bytes);
    let mut records = Vec::new();
    while let Some(record) = reader.next_record().expect("reading a slice cannot fail") {
        records.push(record);
    }
    let consumed = reader.consumed() as usize;
    let trailing = reader.finish().expect("reading a slice cannot fail") as usize;
    LogScan {
        records,
        consumed,
        trailing,
    }
}

// ---------------------------------------------------------------------
// Configuration

/// When journal appends are made durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record — acknowledged ⇒ recovered, always.
    Always,
    /// fsync after every N records — bounded acknowledged-but-volatile
    /// tail.
    EveryN(u32),
    /// Never fsync a record for its own sake — durability rides on the
    /// OS cache, and on snapshots, each of which makes the log durable
    /// up to it.
    Never,
}

impl FsyncPolicy {
    /// Parse the CLI spelling: `always`, `never`, or `every-N`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => {
                let n: u32 = s.strip_prefix("every-")?.parse().ok()?;
                (n > 0).then_some(FsyncPolicy::EveryN(n))
            }
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every-{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Persistence knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PersistConfig {
    /// Journal fsync policy.
    pub fsync: FsyncPolicy,
    /// Snapshot (and compact) a session every this many journal
    /// records; 0 disables snapshots (journal-only persistence).
    pub snapshot_every: u64,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            fsync: FsyncPolicy::Always,
            snapshot_every: 64,
        }
    }
}

// ---------------------------------------------------------------------
// Metrics

/// Counters and histograms the persistence layer feeds into
/// `metrics_text` (the `sit_persist_*` / `sit_recover_*` series) and
/// the `persist_stats` verb.
#[derive(Default)]
pub struct PersistMetrics {
    /// Log records written (acknowledged appends: open, mutation and
    /// close records).
    pub journal_records: Counter,
    /// Log bytes written by those appends.
    pub journal_bytes: Counter,
    /// Per-record encoded size.
    pub record_bytes: Histogram,
    /// Group commits: each syncs the log for every record appended
    /// before it.
    pub fsyncs: Counter,
    /// Group commit latency.
    pub fsync_ns: Histogram,
    /// Snapshot records written (not counted in `journal_records`).
    pub snapshots: Counter,
    /// Copy-forwards completed.
    pub compactions: Counter,
    /// Records copied forward.
    pub copied_records: Counter,
    /// Log segments removed.
    pub segments_removed: Counter,
    /// Storage failures surfaced (append, fsync, snapshot, collection).
    pub errors: Counter,
    /// Sessions recovered at startup.
    pub recovered_sessions: Counter,
    /// Log records replayed at startup.
    pub recovered_records: Counter,
    /// Torn/corrupt segment tail bytes passed over at startup.
    pub recover_truncated_bytes: Counter,
    /// Intact snapshot records that did not load, passed over at
    /// recovery (a corrupt one ends its segment's scan instead).
    pub recover_skipped_snapshots: Counter,
    /// Replayed records whose verb returned an error (a verb that
    /// failed live fails identically on replay — this counts those,
    /// plus genuinely undecodable payloads).
    pub replay_errors: Counter,
    /// Per-session recovery time.
    pub recover_ns: Histogram,
}

impl PersistMetrics {
    /// Append the `sit_persist_*` / `sit_recover_*` Prometheus series.
    pub fn prometheus(&self, out: &mut String) {
        let counters: [(&str, &Counter); 13] = [
            ("sit_persist_journal_records_total", &self.journal_records),
            ("sit_persist_journal_bytes_total", &self.journal_bytes),
            ("sit_persist_fsync_total", &self.fsyncs),
            ("sit_persist_snapshots_total", &self.snapshots),
            ("sit_persist_compactions_total", &self.compactions),
            ("sit_persist_copied_records_total", &self.copied_records),
            ("sit_persist_segments_removed_total", &self.segments_removed),
            ("sit_persist_errors_total", &self.errors),
            ("sit_recover_sessions_total", &self.recovered_sessions),
            ("sit_recover_records_total", &self.recovered_records),
            (
                "sit_recover_truncated_bytes_total",
                &self.recover_truncated_bytes,
            ),
            (
                "sit_recover_skipped_snapshots_total",
                &self.recover_skipped_snapshots,
            ),
            ("sit_recover_replay_errors_total", &self.replay_errors),
        ];
        for (name, counter) in counters {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push_str(" counter\n");
            prom_counter(out, name, "", counter.get());
        }
        for (name, h) in [
            ("sit_persist_record_bytes", &self.record_bytes),
            ("sit_persist_fsync_ns", &self.fsync_ns),
            ("sit_recover_ns", &self.recover_ns),
        ] {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push_str(" histogram\n");
            prom_histogram(out, name, "", h);
        }
    }
}

// ---------------------------------------------------------------------
// The persistence manager

/// Sessions rebuilt by [`Persistence::open`].
pub struct Recovery {
    /// Every open session, ascending by id.
    pub sessions: Vec<(u64, Session)>,
    /// The highest session id the log names, closed sessions included:
    /// fresh ids go above it, so no id is ever reused while a record of
    /// its earlier session remains.
    pub highest_id: u64,
}

/// The log and snapshot engine for one data directory.
pub struct Persistence {
    config: PersistConfig,
    clock: Arc<dyn Clock>,
    metrics: PersistMetrics,
    wal: Wal,
}

/// One session's state while the log is scanned.
struct Replaying {
    session: Session,
    /// Its entry in the log, as the records so far leave it.
    live: Live,
    /// When its first piece of recovery started, and the time spent.
    started_ns: u64,
    spent_ns: u64,
}

impl Replaying {
    fn new(started_ns: u64) -> Replaying {
        Replaying {
            session: Session::new(),
            live: Live::default(),
            started_ns,
            spent_ns: 0,
        }
    }
}

impl Persistence {
    /// Recover every session in `storage` and open its log for appends,
    /// sealing segments at `segment_bytes` ([`SEGMENT_BYTES`] in the
    /// server; simulations pass a few hundred bytes so that a short
    /// workload crosses segment boundaries and exercises copy-forward).
    /// Errors only on storage failures recovery cannot work around and
    /// on a directory of an older layout (corrupt *records* never error
    /// — they are skipped and counted in the metrics).
    pub fn open(
        storage: Arc<dyn Storage>,
        config: PersistConfig,
        clock: Arc<dyn Clock>,
        segment_bytes: u64,
        schemas: &SchemaTable,
    ) -> io::Result<(Persistence, Recovery)> {
        let metrics = PersistMetrics::default();
        let (recovered, recovery) = recover(&*storage, &*clock, &metrics, schemas)?;
        let wal = Wal::new(storage, config.fsync, segment_bytes, recovered);
        wal.collect(&metrics);
        let persistence = Persistence {
            config,
            clock,
            metrics,
            wal,
        };
        Ok((persistence, recovery))
    }

    /// The configured policies.
    pub fn config(&self) -> &PersistConfig {
        &self.config
    }

    /// The persistence metrics (also folded into `metrics_text`).
    pub fn metrics(&self) -> &PersistMetrics {
        &self.metrics
    }

    /// Start a fresh session (`open`/`load`): its open record, carrying
    /// `first` (the `load` frame) if any, durable per the fsync policy.
    pub fn open_session(&self, id: u64, first: Option<&[u8]>) -> Result<(), ServerError> {
        self.log(id, RecordKind::Open, first.unwrap_or_default())
            .map(drop)
    }

    /// Write-ahead append: log one request frame (and fsync per policy)
    /// *before* the verb is applied. On failure nothing is
    /// acknowledged; a session closed meanwhile is unknown. Returns
    /// whether the session is due a [`Persistence::snapshot`] once the
    /// verb has run.
    pub fn append(&self, id: u64, payload: &[u8]) -> Result<bool, ServerError> {
        let live = self
            .log(id, RecordKind::Frame, payload)?
            .ok_or_else(|| ServerError::unknown_session(&id.to_string()))?;
        let every = self.config.snapshot_every;
        Ok(every != 0 && live.since_snapshot >= every)
    }

    /// Append one record, commit it per the policy, and collect if it
    /// may have freed a segment. The session's entry after it; `None`
    /// if the session is not open in the log.
    fn log(&self, id: u64, kind: RecordKind, payload: &[u8]) -> Result<Option<Live>, ServerError> {
        let appended = self.wal.append(id, kind, payload).map_err(|e| {
            self.metrics.errors.inc();
            persist_io("log append", &e)
        })?;
        let Appended::Written {
            lsn,
            live,
            commit,
            collect,
        } = appended
        else {
            return Ok(None);
        };
        // A snapshot is a durability point under every policy: the log
        // is committed through it before the session's previous records
        // may go.
        if commit || kind == RecordKind::Snapshot {
            self.wal
                .commit(lsn, &self.metrics, &*self.clock)
                .map_err(|e| persist_io("log fsync", &e))?;
        }
        if kind == RecordKind::Snapshot {
            self.metrics.snapshots.inc();
        } else {
            let len = (LOG_RECORD_HEADER + payload.len()) as u64;
            self.metrics.journal_records.inc();
            self.metrics.journal_bytes.add(len);
            self.metrics.record_bytes.record(len);
        }
        if collect {
            self.wal.collect(&self.metrics);
        }
        Ok(Some(live))
    }

    /// Write one snapshot record of `session`, whose last append said
    /// one is due. Never fails the triggering request — its record is
    /// already durable in the log — but records failures in the
    /// metrics.
    pub fn snapshot(&self, id: u64, session: &Session) {
        let _span = trace::span("persist.snapshot");
        let text = script::save(session);
        if text.len() > MAX_SNAPSHOT_PAYLOAD {
            self.metrics.errors.inc();
            return;
        }
        // Failed (counted), or closed meanwhile: the cadence stands.
        let Ok(Some(live)) = self.log(id, RecordKind::Snapshot, text.as_bytes()) else {
            return;
        };
        // Retention by one: the log now needs the previous snapshot
        // record and what follows it.
        if self.wal.snapshot_taken(id, live.seq) {
            self.wal.collect(&self.metrics);
        }
    }

    /// End session `id` (wire `close`): one close record, durable per
    /// the fsync policy. Closing a session the log does not hold open
    /// does nothing. Only an acknowledged close means the session does
    /// not come back.
    pub fn close_session(&self, id: u64) -> Result<(), ServerError> {
        self.log(id, RecordKind::Close, &[]).map(drop)
    }
}

/// Rebuild every session in one ordered pass over the segments,
/// replaying each session's records through the service's own dispatch.
fn recover(
    storage: &dyn Storage,
    clock: &dyn Clock,
    metrics: &PersistMetrics,
    schemas: &SchemaTable,
) -> io::Result<(wal::Recovered, Recovery)> {
    let _span = trace::span("recover");
    let mut segments = Vec::new();
    for name in storage.list()? {
        if let Some((number, generation)) = wal::parse_segment_name(&name) {
            segments.push((number, generation, name));
            continue;
        }
        let old = name.split_once('.').is_some_and(|(id, rest)| {
            id.parse::<u64>().is_ok() && (rest == "journal" || rest.starts_with("snap."))
        });
        if old {
            let msg = format!("`{name}`: session file of an older layout, not a log segment");
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
    }
    segments.sort();

    let mut highest_id = 0;
    let mut open: BTreeMap<u64, Replaying> = BTreeMap::new();
    // Replayed replies are written here and dropped: one buffer for the
    // whole recovery.
    let mut reply = String::new();
    let mut sealed: Vec<Segment> = Vec::new();
    for (number, generation, name) in segments {
        let mut reader = LogReader::new(storage.reader(&name)?);
        let mut seg = Segment::recovered(number, generation);
        while let Some(r) = reader.next_record()? {
            highest_id = highest_id.max(r.session);
            let t0 = clock.now_ns();
            match r.kind {
                RecordKind::Open => {
                    let s = open.entry(r.session).or_insert_with(|| Replaying::new(t0));
                    // Otherwise a duplicate, or covered by a snapshot.
                    if s.live.seq == 0 {
                        s.live = Live::opened(&r.payload);
                        if !r.payload.is_empty() {
                            replay(&mut s.session, &r.payload, metrics, schemas, &mut reply);
                            metrics.recovered_records.inc();
                        }
                        s.spent_ns += clock.now_ns().saturating_sub(t0);
                    }
                }
                RecordKind::Frame => {
                    if let Some(s) = open.get_mut(&r.session) {
                        // Only the next record applies: an earlier one
                        // is a duplicate, a later one lies past a gap.
                        let next = s.live.framed();
                        if r.seq == next.seq {
                            replay(&mut s.session, &r.payload, metrics, schemas, &mut reply);
                            s.spent_ns += clock.now_ns().saturating_sub(t0);
                            s.live = next;
                            metrics.recovered_records.inc();
                        }
                    }
                }
                RecordKind::Snapshot => {
                    // It replaces the session if it covers everything
                    // applied so far (a session whose earlier records
                    // were collected starts here).
                    let covers = open.get(&r.session).is_none_or(|s| r.seq >= s.live.seq);
                    if covers {
                        match load_snapshot(&r.payload) {
                            Some(session) => {
                                let s = open.entry(r.session).or_insert_with(|| Replaying::new(t0));
                                s.session = session;
                                s.live.snapshotted(r.seq);
                                s.spent_ns += clock.now_ns().saturating_sub(t0);
                            }
                            None => metrics.recover_skipped_snapshots.inc(),
                        }
                    }
                }
                RecordKind::Close => {
                    open.remove(&r.session);
                }
            }
            // Records of sessions the scan does not hold open are dead.
            if r.kind == RecordKind::Close || open.contains_key(&r.session) {
                seg.note(r.session, r.seq, r.kind);
            }
        }
        let consumed = reader.consumed();
        let trailing = reader.finish()?;
        metrics.recover_truncated_bytes.add(trailing);
        seg.set_bytes(consumed + trailing);
        sealed.push(seg);
    }

    let mut live = HashMap::new();
    let mut sessions = Vec::with_capacity(open.len());
    for (id, s) in open {
        live.insert(id, s.live);
        trace::complete(
            "recover.session",
            s.started_ns,
            s.spent_ns,
            vec![("session", id.to_string())],
        );
        metrics.recover_ns.record(s.spent_ns);
        metrics.recovered_sessions.inc();
        sessions.push((id, s.session));
    }
    Ok((
        wal::Recovered { sealed, live },
        Recovery {
            sessions,
            highest_id,
        },
    ))
}

/// The session a snapshot record's payload holds, `None` if it does not
/// load.
fn load_snapshot(payload: &[u8]) -> Option<Session> {
    script::load(std::str::from_utf8(payload).ok()?).ok()
}

/// Apply one journaled frame to a recovering session through the same
/// dispatch live requests use, writing its reply into `reply`, which is
/// cleared first. Errors are expected (a verb that failed live fails
/// identically here) and never abort recovery.
fn replay(
    session: &mut Session,
    payload: &[u8],
    metrics: &PersistMetrics,
    schemas: &SchemaTable,
    reply: &mut String,
) {
    let request = std::str::from_utf8(payload)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|v| Request::from_json(&v).ok());
    let Some(request) = request else {
        metrics.replay_errors.inc();
        return;
    };
    let outcome = match &request {
        // `load` seeds the session wholesale — it is the payload of a
        // script-loaded session's open record.
        Request::Load { script } => match script::load(script) {
            Ok(s) => {
                *session = s;
                Ok(())
            }
            Err(_) => Err(()),
        },
        other => {
            reply.clear();
            crate::service::apply_session_request(session, other, schemas, reply).map_err(|_| ())
        }
    };
    if outcome.is_err() {
        metrics.replay_errors.inc();
    }
}

/// A `persist`-coded error.
pub(crate) fn persist_error(message: impl Into<String>) -> ServerError {
    ServerError {
        code: ErrorCode::Persist,
        message: message.into(),
    }
}

fn persist_io(what: &str, e: &io::Error) -> ServerError {
    persist_error(format!("{what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use sit_obs::clock::MonotonicClock;

    #[test]
    fn crc_known_answer() {
        // CRC-32("123456789") = 0xCBF43926 (IEEE check value); our
        // record CRC prepends header bytes, so check the raw helper.
        let crc = crc32_update(0xFFFF_FFFF, b"123456789") ^ 0xFFFF_FFFF;
        assert_eq!(crc, 0xCBF4_3926);
    }

    #[test]
    fn log_records_round_trip_and_every_cut_is_a_clean_prefix() {
        let kinds = [
            RecordKind::Open,
            RecordKind::Frame,
            RecordKind::Snapshot,
            RecordKind::Close,
        ];
        let mut segment = Vec::new();
        let mut want = Vec::new();
        for i in 0..8u64 {
            let kind = kinds[i as usize % 4];
            let payload = format!("frame-{i}").into_bytes();
            segment.extend_from_slice(&encode_log_record(i % 2 + 1, i, kind, &payload));
            want.push(LogRecord {
                session: i % 2 + 1,
                seq: i,
                kind,
                payload,
            });
        }
        let scan = decode_log_records(&segment);
        assert_eq!(scan.records, want);
        assert_eq!((scan.consumed, scan.trailing), (segment.len(), 0));
        for cut in 0..segment.len() {
            let scan = decode_log_records(&segment[..cut]);
            assert_eq!(scan.records[..], want[..scan.records.len()]);
            assert_eq!(scan.consumed + scan.trailing, cut);
        }
        // A kind byte outside the enum, or a flipped session bit, ends
        // the scan at that record.
        for at in [24, 9] {
            let mut bad = segment.clone();
            bad[at] ^= 0x10;
            let scan = decode_log_records(&bad);
            assert!(scan.records.is_empty(), "byte {at}");
            assert_eq!(scan.trailing, segment.len());
        }
    }

    #[test]
    fn a_record_length_is_bounded_by_its_kind() {
        // Between the two bounds: a snapshot decodes, a frame is
        // corruption and ends the scan.
        let payload = vec![b'x'; MAX_JOURNAL_PAYLOAD + 1];
        let snapshot = encode_log_record(1, 9, RecordKind::Snapshot, &payload);
        let scan = decode_log_records(&snapshot);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].kind, RecordKind::Snapshot);
        assert_eq!(scan.trailing, 0);
        let frame = encode_log_record(1, 9, RecordKind::Frame, &payload);
        let scan = decode_log_records(&frame);
        assert!(scan.records.is_empty());
        assert_eq!(scan.trailing, frame.len());
        // Past the snapshot bound the header alone is refused.
        let mut header = encode_log_record(1, 9, RecordKind::Snapshot, b"");
        let len = (MAX_SNAPSHOT_PAYLOAD + 1) as u32;
        header[..4].copy_from_slice(&len.to_le_bytes());
        let scan = decode_log_records(&header);
        assert!(scan.records.is_empty());
        assert_eq!(scan.trailing, header.len());
    }

    #[test]
    fn fsync_policy_parses_both_ways() {
        for (s, p) in [
            ("always", FsyncPolicy::Always),
            ("never", FsyncPolicy::Never),
            ("every-8", FsyncPolicy::EveryN(8)),
        ] {
            assert_eq!(FsyncPolicy::parse(s), Some(p));
            assert_eq!(p.to_string(), s);
        }
        for bad in ["", "every-0", "every-x", "sometimes"] {
            assert_eq!(FsyncPolicy::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn append_then_recover_round_trips_one_session() {
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let schemas = SchemaTable::new();
        let open = || {
            Persistence::open(
                Arc::clone(&storage),
                PersistConfig::default(),
                Arc::clone(&clock),
                SEGMENT_BYTES,
                &schemas,
            )
            .unwrap()
        };
        let (p, recovery) = open();
        assert!(recovery.sessions.is_empty());
        p.open_session(7, None).unwrap();
        let frame = Request::AddSchema {
            session: "7".into(),
            ddl: "schema s { entity E { x: int key; } }".into(),
        }
        .to_json()
        .encode();
        assert!(!p.append(7, frame.as_bytes()).unwrap(), "no snapshot due");
        assert_eq!(p.metrics().journal_records.get(), 2);
        assert_eq!(p.metrics().fsyncs.get(), 2);
        drop(p);

        let (p2, recovery) = open();
        assert_eq!(recovery.highest_id, 7);
        assert_eq!(recovery.sessions.len(), 1);
        let (id, session) = &recovery.sessions[0];
        assert_eq!(*id, 7);
        assert_eq!(session.catalog().schemas().count(), 1);
        assert_eq!(p2.metrics().recovered_records.get(), 1);

        // Closed, it is gone after the next recovery, and so is every
        // segment: nothing in them is needed.
        p2.close_session(7).unwrap();
        assert!(p2.append(7, frame.as_bytes()).is_err());
        drop(p2);
        let (_, recovery) = open();
        assert!(recovery.sessions.is_empty());
        assert_eq!(recovery.highest_id, 7);
        assert_eq!(storage.list().unwrap(), Vec::<String>::new());
    }
}
