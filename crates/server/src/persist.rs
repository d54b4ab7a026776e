//! Durable sessions: one server-wide write-ahead log, two snapshot
//! slots per session, and crash recovery over any [`Storage`].
//!
//! ## On-disk layout (one flat directory)
//!
//! * `log.<number>.<generation>` — the log's segments (see
//!   [`crate::wal`]). Every session-addressed event is one record,
//!   tagged with its session: an *open* record when `open` or `load`
//!   creates the session (a `load` carries its frame), one record per
//!   *attempted* mutating verb, journaled **before** the verb touches
//!   the in-memory session (write-ahead), and a *close* record when
//!   `close` ends it. A verb that failed live (e.g. a conflicting
//!   assert) stays in the log and fails identically on replay —
//!   dispatch is deterministic, so a record needs no outcome bit.
//! * `<id>.snap.0`, `<id>.snap.1` — two snapshot slots, each one record
//!   whose payload is the [`script::save`] text and whose sequence field
//!   is the last session sequence it covers (the higher is the newer).
//!
//! A session that never snapshots has no file of its own: `open` and
//! `close` each cost one append. Any `<id>.journal` (the per-session
//! journals of the old layout) or other `<id>.snap.*` (the numbered
//! snapshots before that) fails recovery with `InvalidData`, naming the
//! file, rather than start without the history it holds.
//!
//! ## Record containers
//!
//! A log record and a snapshot slot record:
//!
//! ```text
//! | len: u32 le | crc: u32 le | session: u64 le | seq: u64 le | kind: u8 | payload |
//! | len: u32 le | crc: u32 le | seq: u64 le | payload |
//! ```
//!
//! `crc` is CRC-32 (IEEE) over everything after it, so a torn tail, a
//! bit flip, or a stale length all fail closed. Decoding a segment
//! stops at its first bad record; the segments after it are still read
//! ("acknowledged ⇒ recovered" never depends on bytes after a
//! corruption, and a segment sealed after a failed append ends in a
//! torn record by design).
//!
//! `seq` numbers one session's records from 1 (its open record).
//! Recovery applies a session's record only if it is the next one the
//! session expects, so a duplicate left by an interrupted copy-forward
//! applies once only, and records past a gap (lost to power loss under
//! a weak fsync policy) never apply out of order.
//!
//! ## Snapshots and collection
//!
//! Every [`PersistConfig::snapshot_every`] journaled mutations the
//! session is snapshotted: `write_atomic` the slot that does *not* hold
//! the newest valid snapshot. The overwrite is the retention: the
//! previous snapshot survives one more cycle, and the log keeps every
//! record the *older* slot does not cover, so a corrupt newest slot
//! falls back to the other with no acknowledged record lost. Records the
//! older slot covers, and all records of closed sessions, are no longer
//! needed; [`crate::wal`] deletes segments holding nothing else, and
//! copies the needed records of old segments forward.
//!
//! ## Durability contract
//!
//! With `fsync=always`, a verb is acknowledged only after its record is
//! fsynced (group commit: one fsync covers every record appended before
//! it): acknowledged ⇒ recovered, byte-for-byte (the crash suite in
//! `tests/crash.rs` sweeps every byte offset). `every-n` and `never`
//! trade the tail of un-fsynced acknowledgements for throughput — after
//! power loss the recovered state of each session is a prefix of its
//! acknowledged history, never a divergent state. Every snapshot
//! commits the log before its slot is written, under every policy.
//! `close` makes its record durable before it removes slot files, and
//! syncs the directory once after, except under `never`.
//!
//! ## Ownership
//!
//! [`Persistence`] owns the log; the log alone knows which sessions are
//! open on disk, so an append for a closed session fails whoever still
//! holds it. A session's [`Journal`] — its sequence and snapshot
//! cadence — is owned by the session's store entry: `append` and
//! `maybe_snapshot` take it, [`Persistence::open`] returns one per
//! recovered session, and eviction drops it with the session. An
//! evicted session stays open in the log.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::io::{self, Read};
use std::sync::Arc;

use sit_core::script;
use sit_core::session::Session;
use sit_obs::clock::Clock;
use sit_obs::metrics::{prom_counter, prom_histogram, Counter, Histogram};
use sit_obs::trace;

use crate::proto::{ErrorCode, Request, ServerError};
use crate::storage::Storage;
use crate::wal::{self, Appended, LiveSession, Segment, Wal};
use crate::wire::Json;

/// Bytes of fixed header before each snapshot record's payload.
pub const RECORD_HEADER: usize = 16;

/// Bytes of fixed header before each log record's payload.
pub const LOG_RECORD_HEADER: usize = 25;

/// Largest log record payload accepted by the decoder (a payload is one
/// request frame, bounded by the wire's 1 MiB line limit — anything
/// larger is corruption, not data).
pub const MAX_JOURNAL_PAYLOAD: usize = 2 * 1024 * 1024;

/// Largest snapshot payload accepted (session scripts dwarf single
/// frames but still bound the decoder against absurd length fields).
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

/// CRC-32 of `seq` (little-endian) followed by `payload` — the checksum
/// each record carries.
pub fn record_crc(seq: u64, payload: &[u8]) -> u32 {
    let state = crc32_update(0xFFFF_FFFF, &seq.to_le_bytes());
    crc32_update(state, payload) ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Record codec

/// Encode one record in the snapshot container format.
pub fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&record_crc(seq, payload).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The result of scanning a byte string of snapshot-container records.
pub struct JournalScan {
    /// Every intact `(seq, payload)` record, in file order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Bytes covered by those records — a torn tail starts here.
    pub consumed: usize,
    /// Bytes after `consumed` (0 on clean input).
    pub trailing: usize,
}

/// Decode records until the bytes run out or a record fails its
/// length bound or checksum. Never panics on arbitrary input.
pub fn decode_records(bytes: &[u8], max_payload: usize) -> JournalScan {
    let mut records = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= RECORD_HEADER {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        let seq = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().expect("8 bytes"));
        if len > max_payload || bytes.len() - at - RECORD_HEADER < len {
            break; // absurd length or torn tail
        }
        let payload = &bytes[at + RECORD_HEADER..at + RECORD_HEADER + len];
        if record_crc(seq, payload) != crc {
            break; // corrupt record: stop, everything after is suspect
        }
        records.push((seq, payload.to_vec()));
        at += RECORD_HEADER + len;
    }
    JournalScan {
        records,
        consumed: at,
        trailing: bytes.len() - at,
    }
}

/// Decode a snapshot file: exactly one intact record spanning the whole
/// file. `None` means the snapshot is torn or corrupt.
pub fn decode_snapshot(bytes: &[u8]) -> Option<(u64, Vec<u8>)> {
    let scan = decode_records(bytes, MAX_SNAPSHOT_PAYLOAD);
    if scan.trailing != 0 || scan.records.len() != 1 {
        return None;
    }
    scan.records.into_iter().next()
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
}

impl RecordKind {
    fn byte(self) -> u8 {
        match self {
            RecordKind::Open => 1,
            RecordKind::Frame => 2,
            RecordKind::Close => 3,
        }
    }

    fn from_byte(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::Open),
            2 => Some(RecordKind::Frame),
            3 => Some(RecordKind::Close),
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
    /// The frame (empty for close and plain open records).
    pub payload: Vec<u8>,
}

/// Streaming decoder over one segment: yields intact records until the
/// bytes run out or a record fails its length bound, kind or checksum.
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
        if len > MAX_JOURNAL_PAYLOAD {
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
    /// Snapshots written.
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
    /// Torn, corrupt or unloadable snapshot slots passed over at recovery.
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

/// One session's sequence and snapshot bookkeeping. The session's store
/// entry owns it, so eviction and `close` drop it with the session.
pub struct Journal {
    id: u64,
    /// Last sequence number used (the open record is 1).
    seq: u64,
    /// Mutations journaled since the last snapshot.
    since_snapshot: u64,
    /// Slot of the newest valid snapshot; the next one overwrites the
    /// other (1 before any, so the first lands in slot 0).
    slot: usize,
    /// The sequence each slot covers (0: none).
    slot_seq: [u64; 2],
}

impl Journal {
    fn new(id: u64) -> Journal {
        Journal {
            id,
            seq: 0,
            since_snapshot: 0,
            slot: 1,
            slot_seq: [0, 0],
        }
    }
}

fn snap_name(id: u64, slot: usize) -> String {
    format!("{id}.snap.{slot}")
}

/// Sessions rebuilt by [`Persistence::open`].
pub struct Recovery {
    /// Every open session, ascending by id, with its journal.
    pub sessions: Vec<(u64, Session, Journal)>,
    /// The highest session id the log or a slot names, closed sessions
    /// included: fresh ids go above it, so no id is ever reused while a
    /// record of its earlier session remains.
    pub highest_id: u64,
}

/// The log and snapshot engine for one data directory.
pub struct Persistence {
    storage: Arc<dyn Storage>,
    config: PersistConfig,
    clock: Arc<dyn Clock>,
    metrics: PersistMetrics,
    wal: Wal,
}

/// One session's state while the log is scanned.
struct Replaying {
    session: Session,
    journal: Journal,
    /// It has slot files (valid or not), which `close` must remove.
    slotted: bool,
    /// When its first piece of recovery started, and the time spent.
    started_ns: u64,
    spent_ns: u64,
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
    ) -> io::Result<(Persistence, Recovery)> {
        let metrics = PersistMetrics::default();
        let (recovered, recovery) = recover(&*storage, &config, &*clock, &metrics)?;
        let wal = Wal::new(Arc::clone(&storage), config.fsync, segment_bytes, recovered);
        wal.collect(&metrics);
        let persistence = Persistence {
            storage,
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
    pub fn open_session(&self, id: u64, first: Option<&[u8]>) -> Result<Journal, ServerError> {
        let mut journal = Journal::new(id);
        self.log(id, 1, RecordKind::Open, first.unwrap_or_default())?;
        journal.seq = 1;
        journal.since_snapshot = u64::from(first.is_some());
        Ok(journal)
    }

    /// Write-ahead append: log one request frame (and fsync per policy)
    /// *before* the verb is applied. On failure nothing is
    /// acknowledged; a session closed meanwhile is unknown.
    pub fn append(&self, j: &mut Journal, payload: &[u8]) -> Result<(), ServerError> {
        let seq = j.seq + 1;
        if self.log(j.id, seq, RecordKind::Frame, payload)?.is_none() {
            return Err(ServerError::unknown_session(&j.id.to_string()));
        }
        j.seq = seq;
        j.since_snapshot += 1;
        Ok(())
    }

    /// Append one record, commit it per the policy, and collect after a
    /// roll. `None` if the session is not open in the log.
    fn log(
        &self,
        id: u64,
        seq: u64,
        kind: RecordKind,
        payload: &[u8],
    ) -> Result<Option<u64>, ServerError> {
        let appended = self.wal.append(id, seq, kind, payload).map_err(|e| {
            self.metrics.errors.inc();
            persist_io("log append", &e)
        })?;
        let Appended::Written {
            lsn,
            commit,
            rolled,
        } = appended
        else {
            return Ok(None);
        };
        if commit {
            self.wal
                .commit(lsn, &self.metrics, &*self.clock)
                .map_err(|e| persist_io("log fsync", &e))?;
        }
        let len = (LOG_RECORD_HEADER + payload.len()) as u64;
        self.metrics.journal_records.inc();
        self.metrics.journal_bytes.add(len);
        self.metrics.record_bytes.record(len);
        if rolled {
            self.wal.collect(&self.metrics);
        }
        Ok(Some(lsn))
    }

    /// Snapshot if the session has journaled `snapshot_every` mutations
    /// since the last one. Never fails the triggering request — its
    /// record is already durable in the log — but records failures in
    /// the metrics.
    pub fn maybe_snapshot(&self, j: &mut Journal, session: &Session) {
        if self.config.snapshot_every == 0 || j.since_snapshot < self.config.snapshot_every {
            return;
        }
        let _span = trace::span("persist.snapshot");
        // A snapshot is a durability point for the whole log, under
        // every policy: no slot gets ahead of the records before it.
        if self.wal.commit_all(&self.metrics, &*self.clock).is_err() {
            return;
        }
        let text = script::save(session);
        let slot = 1 - j.slot;
        let name = snap_name(j.id, slot);
        if self
            .storage
            .write_atomic(&name, &encode_record(j.seq, text.as_bytes()))
            .is_err()
        {
            self.metrics.errors.inc();
            return;
        }
        j.slot = slot;
        j.slot_seq[slot] = j.seq;
        j.since_snapshot = 0;
        self.metrics.snapshots.inc();
        // The log now needs only what the *other* slot does not cover.
        if !self.wal.snapshot_taken(j.id, j.slot_seq[1 - slot])
            && self.storage.remove(&name).is_err()
        {
            // Closed meanwhile, and the slot just written stays.
            self.metrics.errors.inc();
        }
    }

    /// End session `id` (wire `close`): a close record, durable before
    /// any file goes, then the session's slot files if it has any, and
    /// one directory sync after them except under `never`. Closing a
    /// session the log does not hold open does nothing. An error leaves
    /// the slot files behind and the close may be retried; only an
    /// acknowledged close means the session does not come back.
    pub fn close_session(&self, id: u64) -> Result<(), ServerError> {
        let lsn = self.log(id, 0, RecordKind::Close, &[])?;
        if !self.wal.has_closing_slots(id) {
            return Ok(());
        }
        let syncs = self.config.fsync != FsyncPolicy::Never;
        if let (Some(lsn), true) = (lsn, syncs) {
            self.wal
                .commit(lsn, &self.metrics, &*self.clock)
                .map_err(|e| persist_io("log fsync", &e))?;
        }
        for slot in 0..2 {
            self.storage
                .remove(&snap_name(id, slot))
                .map_err(|e| persist_io("remove snapshot slot", &e))?;
        }
        if syncs {
            self.storage
                .sync_dir()
                .map_err(|e| persist_io("directory sync", &e))?;
        }
        self.wal.slots_removed(id);
        Ok(())
    }
}

/// Rebuild every session: list the directory once, load the snapshot
/// slots, then read the segments in order, replaying each session's
/// records through the service's own dispatch.
fn recover(
    storage: &dyn Storage,
    config: &PersistConfig,
    clock: &dyn Clock,
    metrics: &PersistMetrics,
) -> io::Result<(wal::Recovered, Recovery)> {
    let _span = trace::span("recover");
    let mut segments = Vec::new();
    let mut slotted = BTreeSet::new();
    let mut old_journal = None;
    for name in storage.list()? {
        if let Some((number, generation)) = wal::parse_segment_name(&name) {
            segments.push((number, generation, name));
            continue;
        }
        let Some((id, rest)) = name.split_once('.') else {
            continue;
        };
        let Ok(id) = id.parse::<u64>() else { continue };
        match rest {
            "snap.0" | "snap.1" => {
                slotted.insert(id);
            }
            "journal" => {
                old_journal.get_or_insert(name);
            }
            _ if rest.starts_with("snap.") => {
                let msg = format!("`{name}`: old numbered snapshot layout, not a slot");
                return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
            }
            _ => {}
        }
    }
    if let Some(name) = old_journal {
        let msg = format!("`{name}`: per-session journal of an older layout, not a log segment");
        return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    }
    segments.sort();

    let mut highest_id = 0;
    let mut open: BTreeMap<u64, Replaying> = BTreeMap::new();
    for &id in &slotted {
        highest_id = highest_id.max(id);
        let started_ns = clock.now_ns();
        let (session, journal) = load_slots(storage, id, metrics);
        open.insert(
            id,
            Replaying {
                session,
                journal,
                slotted: true,
                started_ns,
                spent_ns: clock.now_ns().saturating_sub(started_ns),
            },
        );
    }

    let mut closed_slotted = Vec::new();
    let mut sealed: Vec<Segment> = Vec::new();
    for (number, generation, name) in segments {
        let mut reader = LogReader::new(storage.reader(&name)?);
        let mut seg = Segment::recovered(number, generation);
        while let Some(r) = reader.next_record()? {
            highest_id = highest_id.max(r.session);
            match r.kind {
                RecordKind::Open => {
                    let started_ns = clock.now_ns();
                    let s = open.entry(r.session).or_insert_with(|| Replaying {
                        session: Session::new(),
                        journal: Journal::new(r.session),
                        slotted: false,
                        started_ns,
                        spent_ns: 0,
                    });
                    // Otherwise a duplicate, or covered by a snapshot.
                    if s.journal.seq == 0 {
                        s.journal.seq = 1;
                        if !r.payload.is_empty() {
                            replay(&mut s.session, &r.payload, metrics);
                            s.journal.since_snapshot = 1;
                            metrics.recovered_records.inc();
                        }
                        s.spent_ns += clock.now_ns().saturating_sub(started_ns);
                    }
                }
                RecordKind::Frame => {
                    if let Some(s) = open.get_mut(&r.session) {
                        // Only the next record applies: an earlier one
                        // is a duplicate, a later one lies past a gap.
                        if r.seq == s.journal.seq + 1 {
                            let t0 = clock.now_ns();
                            replay(&mut s.session, &r.payload, metrics);
                            s.spent_ns += clock.now_ns().saturating_sub(t0);
                            s.journal.seq = r.seq;
                            s.journal.since_snapshot += 1;
                            metrics.recovered_records.inc();
                        }
                    }
                }
                RecordKind::Close => {
                    if open.remove(&r.session).is_some_and(|s| s.slotted) {
                        closed_slotted.push(r.session);
                    }
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

    // Finish closes a crash interrupted between the close record and
    // the slot removal.
    let mut closing = HashSet::new();
    for &id in &closed_slotted {
        let removed = (0..2).try_for_each(|slot| storage.remove(&snap_name(id, slot)));
        if removed.is_err() {
            metrics.errors.inc();
            closing.insert(id);
        }
    }
    if !closed_slotted.is_empty()
        && config.fsync != FsyncPolicy::Never
        && storage.sync_dir().is_err()
    {
        metrics.errors.inc();
    }

    let mut live = HashMap::new();
    let mut sessions = Vec::with_capacity(open.len());
    for (id, s) in open {
        let j = &s.journal;
        live.insert(
            id,
            LiveSession {
                floor: j.slot_seq[1 - j.slot],
                slotted: s.slotted,
            },
        );
        trace::complete(
            "recover.session",
            s.started_ns,
            s.spent_ns,
            vec![("session", id.to_string())],
        );
        metrics.recover_ns.record(s.spent_ns);
        metrics.recovered_sessions.inc();
        sessions.push((id, s.session, s.journal));
    }
    Ok((
        wal::Recovered {
            sealed,
            live,
            closing,
        },
        Recovery {
            sessions,
            highest_id,
        },
    ))
}

/// Session `id` from the newest of its two slots that decodes and
/// loads (the other slot if it does not), with the journal positioned
/// after it.
fn load_slots(storage: &dyn Storage, id: u64, metrics: &PersistMetrics) -> (Session, Journal) {
    let mut journal = Journal::new(id);
    let mut slots = Vec::new();
    for slot in 0..2 {
        match storage.read(&snap_name(id, slot)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            read => match read.ok().and_then(|bytes| decode_snapshot(&bytes)) {
                Some((last_seq, payload)) => slots.push((last_seq, slot, payload)),
                None => metrics.recover_skipped_snapshots.inc(),
            },
        }
    }
    slots.sort_unstable_by_key(|&(last_seq, ..)| std::cmp::Reverse(last_seq));
    let mut loaded = None;
    for (last_seq, slot, payload) in &slots {
        let session = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| script::load(text).ok());
        match session {
            Some(s) if loaded.is_none() => {
                journal.slot = *slot;
                journal.seq = *last_seq;
                journal.slot_seq[*slot] = *last_seq;
                loaded = Some(s);
            }
            // The older slot still bounds what the log must keep.
            Some(_) => journal.slot_seq[*slot] = *last_seq,
            None => metrics.recover_skipped_snapshots.inc(),
        }
    }
    (loaded.unwrap_or_default(), journal)
}

/// Apply one journaled frame to a recovering session through the same
/// dispatch live requests use. Errors are expected (a verb that failed
/// live fails identically here) and never abort recovery.
fn replay(session: &mut Session, payload: &[u8], metrics: &PersistMetrics) {
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
        other => crate::service::apply_session_request(session, other)
            .map(|_| ())
            .map_err(|_| ()),
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
        // record CRC prepends the seq bytes, so check the raw helper.
        let crc = crc32_update(0xFFFF_FFFF, b"123456789") ^ 0xFFFF_FFFF;
        assert_eq!(crc, 0xCBF4_3926);
    }

    #[test]
    fn records_round_trip_and_detect_corruption() {
        let mut journal = Vec::new();
        for seq in 1..=5u64 {
            journal.extend_from_slice(&encode_record(seq, format!("payload-{seq}").as_bytes()));
        }
        let scan = decode_records(&journal, MAX_JOURNAL_PAYLOAD);
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.trailing, 0);
        assert_eq!(scan.records[2], (3, b"payload-3".to_vec()));

        // Flip one payload byte in record 4: decoding keeps 1–3 only.
        let mut corrupt = journal.clone();
        let offset = 3 * (RECORD_HEADER + 9) + RECORD_HEADER + 2;
        corrupt[offset] ^= 0x40;
        let scan = decode_records(&corrupt, MAX_JOURNAL_PAYLOAD);
        assert_eq!(scan.records.len(), 3);
        assert!(scan.trailing > 0);

        // Torn tail: every strict prefix decodes to a record prefix.
        for cut in 0..journal.len() {
            let scan = decode_records(&journal[..cut], MAX_JOURNAL_PAYLOAD);
            assert!(scan.records.len() <= 5);
            assert_eq!(scan.consumed + scan.trailing, cut);
        }
    }

    #[test]
    fn log_records_round_trip_and_every_cut_is_a_clean_prefix() {
        let kinds = [RecordKind::Open, RecordKind::Frame, RecordKind::Close];
        let mut segment = Vec::new();
        let mut want = Vec::new();
        for i in 0..6u64 {
            let kind = kinds[i as usize % 3];
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
    fn snapshot_decode_requires_exactly_one_clean_record() {
        let snap = encode_record(42, b"# sit session v1\n");
        assert_eq!(
            decode_snapshot(&snap),
            Some((42, b"# sit session v1\n".to_vec()))
        );
        assert_eq!(decode_snapshot(&snap[..snap.len() - 1]), None);
        let mut two = snap.clone();
        two.extend_from_slice(&encode_record(43, b"x"));
        assert_eq!(decode_snapshot(&two), None);
        assert_eq!(decode_snapshot(b""), None);
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
        let open = || {
            Persistence::open(
                Arc::clone(&storage),
                PersistConfig::default(),
                Arc::clone(&clock),
                SEGMENT_BYTES,
            )
            .unwrap()
        };
        let (p, recovery) = open();
        assert!(recovery.sessions.is_empty());
        let mut journal = p.open_session(7, None).unwrap();
        let frame = Request::AddSchema {
            session: "7".into(),
            ddl: "schema s { entity E { x: int key; } }".into(),
        }
        .to_json()
        .encode();
        p.append(&mut journal, frame.as_bytes()).unwrap();
        assert_eq!(p.metrics().journal_records.get(), 2);
        assert_eq!(p.metrics().fsyncs.get(), 2);
        drop(p);

        let (p2, recovery) = open();
        assert_eq!(recovery.highest_id, 7);
        assert_eq!(recovery.sessions.len(), 1);
        let (id, session, _) = &recovery.sessions[0];
        assert_eq!(*id, 7);
        assert_eq!(session.catalog().schemas().count(), 1);
        assert_eq!(p2.metrics().recovered_records.get(), 1);

        // Closed, it is gone after the next recovery, and so is every
        // segment: nothing in them is needed.
        p2.close_session(7).unwrap();
        let mut stale = journal;
        assert!(p2.append(&mut stale, frame.as_bytes()).is_err());
        drop(p2);
        let (_, recovery) = open();
        assert!(recovery.sessions.is_empty());
        assert_eq!(recovery.highest_id, 7);
        assert_eq!(storage.list().unwrap(), Vec::<String>::new());
    }
}
