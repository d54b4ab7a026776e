//! The server-wide write-ahead log: one append-only stream of
//! session-tagged records, split into numbered segment files.
//!
//! [`crate::persist::Persistence`] owns one [`Wal`]. Every session's
//! `open`, mutations, snapshots and `close` become records here (see
//! [`crate::persist`] for the record format and the recovery rules);
//! this module keeps the segments, the group commit and the collection
//! of segments nobody needs any more. The segments are the only files
//! a data directory holds.
//!
//! ## Segments
//!
//! Records go to the *head* segment, created on the first append after
//! start-up (never during recovery) and sealed once it holds
//! [`SEGMENT_BYTES`] or an append to it fails — a failed append may have
//! left a torn record at its tail, so nothing more is written after it.
//! A segment is named `log.<number>.<generation>`; recovery reads them
//! in `(number, generation)` order. Generation 0 is a segment as
//! appended; a higher generation is the copy-forward of older segments
//! and takes the place of the newest one it replaces.
//!
//! ## Group commit
//!
//! An append takes the log's state lock only to write its record. The
//! fsync runs under a separate commit lock: the writer that gets it
//! first syncs every segment holding records past the durable mark, and
//! writers whose records that sync covered return without an fsync of
//! their own. A segment's first commit also syncs the directory, so a
//! record in a freshly rolled segment is acknowledged only once the
//! segment's name is durable. A failed fsync leaves the durability of
//! every record since the last good one unknown, so the log refuses all
//! further appends.
//!
//! ## Collection
//!
//! One rule ([`needed`]) decides what stays: an open session's previous
//! snapshot record and every record after it (all of its records until
//! it has two snapshots), and a close record while an older segment
//! still holds records of its session. After a roll, and after a close
//! or snapshot record of a session with records in a sealed segment,
//! the log
//!
//! 1. removes every sealed segment holding no needed record, syncing the
//!    directory after each removal, so removals become durable in
//!    order and a close record never outlives its session's records by
//!    accident of write-back order;
//! 2. when more than [`MERGE_AFTER`] sealed segments remain, copies their
//!    needed records, in log order, into one segment that takes the
//!    newest one's place, makes it durable under every fsync policy, and
//!    only then removes the originals, oldest first.
//!
//! A crash part way leaves some originals beside the copy; recovery
//! applies each session's records by sequence, so the duplicates apply
//! once only. Copy-forward streams records; no segment is held in
//! memory.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sit_obs::clock::Clock;
use sit_obs::sync::lock_recover;
use sit_obs::trace;

use crate::persist::{encode_log_record, FsyncPolicy, LogReader, PersistMetrics, RecordKind};
use crate::storage::Storage;

/// Bytes after which the head segment is sealed and a new one started.
pub const SEGMENT_BYTES: u64 = 4 << 20;

/// Sealed segments with needed records tolerated before copy-forward
/// merges them into one.
pub const MERGE_AFTER: usize = 4;

/// Buffered copy-forward output flushed to storage per append.
const COPY_CHUNK: usize = 64 * 1024;

/// The name of segment `(number, generation)`.
pub fn segment_name(number: u64, generation: u32) -> String {
    format!("log.{number:012}.{generation}")
}

/// `(number, generation)` of a segment name, `None` for any other name.
pub fn parse_segment_name(name: &str) -> Option<(u64, u32)> {
    let rest = name.strip_prefix("log.")?;
    let (number, generation) = rest.split_once('.')?;
    if number.is_empty() || !number.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((number.parse().ok()?, generation.parse().ok()?))
}

/// The collection rule for one record of `session`. An open session's
/// `floor` is the sequence of its previous snapshot (0 before it has
/// two): that snapshot record and every record after it are needed, so
/// the newest snapshot can fail and recovery still has the previous
/// one plus the log. A close record is needed while `older_records` of
/// its session remain. Anything else is not needed.
fn needed(
    live: &HashMap<u64, u64>,
    session: u64,
    seq: u64,
    kind: RecordKind,
    older_records: impl FnOnce() -> bool,
) -> bool {
    match kind {
        RecordKind::Close => older_records(),
        _ => live
            .get(&session)
            .is_some_and(|&floor| place(seq, kind) >= (floor, true)),
    }
}

/// A record's place in its session's history: by sequence, and a
/// snapshot after the record whose sequence it carries.
fn place(seq: u64, kind: RecordKind) -> (u64, bool) {
    (seq, kind == RecordKind::Snapshot)
}

/// What the log knows about one segment file.
pub(crate) struct Segment {
    number: u64,
    generation: u32,
    name: String,
    bytes: u64,
    /// Log sequence number of the last record appended here by this
    /// process (0 for a recovered or copied segment: already durable).
    last_lsn: u64,
    /// Whether the segment's directory entry is known durable.
    name_durable: bool,
    /// Sessions with open, mutation or snapshot records here, with the
    /// latest such record's sequence and kind.
    sessions: HashMap<u64, (u64, RecordKind)>,
    /// Sessions closed by a record here.
    closes: Vec<u64>,
}

impl Segment {
    fn new(number: u64, generation: u32, name_durable: bool) -> Segment {
        Segment {
            number,
            generation,
            name: segment_name(number, generation),
            bytes: 0,
            last_lsn: 0,
            name_durable,
            sessions: HashMap::new(),
            closes: Vec::new(),
        }
    }

    /// A segment found on disk at recovery; [`Segment::note`] its
    /// records, then [`Segment::set_bytes`] its size.
    pub(crate) fn recovered(number: u64, generation: u32) -> Segment {
        Segment::new(number, generation, true)
    }

    /// The segment's size on disk.
    pub(crate) fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }

    /// Account one record of `session`.
    pub(crate) fn note(&mut self, session: u64, seq: u64, kind: RecordKind) {
        if kind == RecordKind::Close {
            self.closes.push(session);
            return;
        }
        let latest = self.sessions.entry(session).or_insert((seq, kind));
        if place(seq, kind) > place(latest.0, latest.1) {
            *latest = (seq, kind);
        }
    }
}

/// Outcome of an append.
pub(crate) enum Appended {
    /// Written with this log sequence number.
    Written {
        lsn: u64,
        /// The fsync policy wants the record durable before the ack.
        commit: bool,
        /// A segment was sealed, or a close record was written for a
        /// session with records in a sealed one: collection may have
        /// work.
        collect: bool,
    },
    /// The session is not open in the log (closed, or never opened).
    NotOpen,
}

struct LogState {
    head: Option<Segment>,
    /// Oldest first.
    sealed: Vec<Segment>,
    next_number: u64,
    lsn: u64,
    /// Records since the last `every-n` commit.
    unsynced: u32,
    /// Open sessions, with their collection floor (see [`needed`]).
    live: HashMap<u64, u64>,
    /// An fsync failed: durability of the tail is unknown.
    failed: bool,
}

/// The log: segments, group commit and collection. See the module
/// docs.
pub(crate) struct Wal {
    storage: Arc<dyn Storage>,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    state: Mutex<LogState>,
    /// Serializes commits; the holder syncs for everyone queued behind.
    commit: Mutex<()>,
    /// Highest log sequence number known durable.
    durable: AtomicU64,
    /// Held by the one thread collecting.
    collecting: Mutex<()>,
}

/// What recovery hands the log.
pub(crate) struct Recovered {
    /// Every segment on disk, oldest first.
    pub sealed: Vec<Segment>,
    /// Open sessions, with their collection floor.
    pub live: HashMap<u64, u64>,
}

fn failed_error() -> io::Error {
    io::Error::other("an earlier log fsync failed; the log accepts no more records")
}

impl Wal {
    /// The log over what recovery found.
    pub(crate) fn new(
        storage: Arc<dyn Storage>,
        fsync: FsyncPolicy,
        segment_bytes: u64,
        recovered: Recovered,
    ) -> Wal {
        let next_number = recovered.sealed.iter().map(|s| s.number + 1).max();
        Wal {
            storage,
            fsync,
            segment_bytes: segment_bytes.max(1),
            state: Mutex::new(LogState {
                head: None,
                sealed: recovered.sealed,
                next_number: next_number.unwrap_or(1),
                lsn: 0,
                unsynced: 0,
                live: recovered.live,
                failed: false,
            }),
            commit: Mutex::new(()),
            durable: AtomicU64::new(0),
            collecting: Mutex::new(()),
        }
    }

    /// Append one record. An open record requires the session not open
    /// yet; every other record requires it open.
    pub(crate) fn append(
        &self,
        session: u64,
        seq: u64,
        kind: RecordKind,
        payload: &[u8],
    ) -> io::Result<Appended> {
        let record = encode_log_record(session, seq, kind, payload);
        let mut st = lock_recover(&self.state);
        if st.failed {
            return Err(failed_error());
        }
        let open = st.live.contains_key(&session);
        match kind {
            RecordKind::Open if open => {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("session {session} is already open in the log"),
                ))
            }
            RecordKind::Frame | RecordKind::Snapshot | RecordKind::Close if !open => {
                return Ok(Appended::NotOpen)
            }
            _ => {}
        }
        let len = record.len() as u64;
        let full = st
            .head
            .as_ref()
            .is_some_and(|h| h.bytes > 0 && h.bytes + len > self.segment_bytes);
        if full {
            let sealed = st.head.take().expect("checked above");
            st.sealed.push(sealed);
        }
        if st.head.is_none() {
            st.head = Some(Segment::new(st.next_number, 0, false));
            st.next_number += 1;
        }
        let written = {
            let _span = trace::span("persist.append");
            let head = st.head.as_ref().expect("created above");
            self.storage.append(&head.name, &record)
        };
        if let Err(e) = written {
            // A torn record may now end the segment: seal it, and let
            // the next append start a new one.
            let sealed = st.head.take().expect("head was just used");
            st.sealed.push(sealed);
            return Err(e);
        }
        st.lsn += 1;
        let lsn = st.lsn;
        let head = st.head.as_mut().expect("created above");
        head.bytes += len;
        head.last_lsn = lsn;
        head.note(session, seq, kind);
        let mut collect = full;
        match kind {
            RecordKind::Open => {
                st.live.insert(session, 0);
            }
            RecordKind::Frame | RecordKind::Snapshot => {}
            RecordKind::Close => {
                st.live.remove(&session);
                collect |= st.holds_sealed(session);
            }
        }
        let commit = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => {
                st.unsynced += 1;
                let due = st.unsynced >= n.max(1);
                if due {
                    st.unsynced = 0;
                }
                due
            }
            FsyncPolicy::Never => false,
        };
        Ok(Appended::Written {
            lsn,
            commit,
            collect,
        })
    }

    /// Make every record up to `lsn` durable. Group commit: if another
    /// writer's sync already covered `lsn`, return at once.
    pub(crate) fn commit(
        &self,
        lsn: u64,
        metrics: &PersistMetrics,
        clock: &dyn Clock,
    ) -> io::Result<()> {
        let _leader = lock_recover(&self.commit);
        let durable = self.durable.load(Ordering::Acquire);
        if durable >= lsn {
            return Ok(());
        }
        let (target, names, dir) = {
            let st = lock_recover(&self.state);
            if st.failed {
                return Err(failed_error());
            }
            let mut names = Vec::new();
            let mut dir = false;
            for seg in st.sealed.iter().chain(st.head.iter()) {
                if seg.last_lsn > durable {
                    names.push(seg.name.clone());
                    dir |= !seg.name_durable;
                }
            }
            (st.lsn, names, dir)
        };
        let _span = trace::span("persist.fsync");
        let t0 = clock.now_ns();
        let synced = names
            .iter()
            .try_for_each(|name| match self.storage.sync(name) {
                // Under `never` a sealed segment may be collected while
                // a snapshot's commit runs: nothing of it is needed.
                Err(e) if e.kind() == io::ErrorKind::NotFound && !self.tracks(name) => Ok(()),
                other => other,
            })
            .and_then(|()| if dir { self.storage.sync_dir() } else { Ok(()) });
        if let Err(e) = synced {
            lock_recover(&self.state).failed = true;
            metrics.errors.inc();
            return Err(e);
        }
        metrics.fsyncs.inc();
        metrics.fsync_ns.record(clock.now_ns().saturating_sub(t0));
        if dir {
            let mut st = lock_recover(&self.state);
            let st = &mut *st;
            for seg in st.sealed.iter_mut().chain(st.head.iter_mut()) {
                if names.contains(&seg.name) {
                    seg.name_durable = true;
                }
            }
        }
        self.durable.store(target, Ordering::Release);
        Ok(())
    }

    /// Whether segment `name` is still on the log's books.
    fn tracks(&self, name: &str) -> bool {
        let st = lock_recover(&self.state);
        st.sealed
            .iter()
            .chain(st.head.iter())
            .any(|s| s.name == name)
    }

    /// The session's snapshot record is durable, and its previous
    /// snapshot covers `floor`: records before that one are no longer
    /// needed. Whether collection may have work (the session has a
    /// record in a sealed segment).
    pub(crate) fn snapshot_taken(&self, session: u64, floor: u64) -> bool {
        let mut st = lock_recover(&self.state);
        match st.live.get_mut(&session) {
            Some(f) => {
                *f = (*f).max(floor);
                st.holds_sealed(session)
            }
            None => false,
        }
    }

    /// Remove the segments nobody needs, and copy forward when too many
    /// remain. Returns at once if another thread is collecting. Errors
    /// are counted and leave the files in place for the next attempt.
    pub(crate) fn collect(&self, metrics: &PersistMetrics) {
        let Ok(_collecting) = self.collecting.try_lock() else {
            return;
        };
        if self.remove_unneeded(metrics).is_err() || self.copy_forward(metrics).is_err() {
            metrics.errors.inc();
        }
    }

    /// A sealed segment is settled once no commit can still sync it.
    fn settled(&self, seg: &Segment) -> bool {
        self.fsync == FsyncPolicy::Never || seg.last_lsn <= self.durable.load(Ordering::Acquire)
    }

    fn remove_unneeded(&self, metrics: &PersistMetrics) -> io::Result<()> {
        loop {
            // Off the books before the file goes, so no commit syncs it.
            let victim = {
                let mut st = lock_recover(&self.state);
                let i = (0..st.sealed.len())
                    .find(|&i| self.settled(&st.sealed[i]) && !st.segment_needed(i));
                i.map(|i| st.sealed.remove(i))
            };
            let Some(seg) = victim else {
                return Ok(());
            };
            if let Err(e) = self
                .storage
                .remove(&seg.name)
                .and_then(|()| self.storage.sync_dir())
            {
                let mut st = lock_recover(&self.state);
                let at = st
                    .sealed
                    .partition_point(|s| (s.number, s.generation) < (seg.number, seg.generation));
                st.sealed.insert(at, seg);
                return Err(e);
            }
            metrics.segments_removed.inc();
        }
    }

    fn copy_forward(&self, metrics: &PersistMetrics) -> io::Result<()> {
        let (inputs, live, out_key) = {
            let st = lock_recover(&self.state);
            let settled = st.sealed.iter().take_while(|s| self.settled(s)).count();
            if settled <= MERGE_AFTER {
                return Ok(());
            }
            let inputs: Vec<String> = st.sealed[..settled]
                .iter()
                .map(|s| s.name.clone())
                .collect();
            let last = &st.sealed[settled - 1];
            // Liveness only shrinks and floors only rise while the copy
            // runs, so this view keeps a superset of what is needed.
            (inputs, st.live.clone(), (last.number, last.generation + 1))
        };
        let mut out = Segment::new(out_key.0, out_key.1, false);
        // A copy an earlier failed attempt left behind must not prefix
        // this one.
        self.storage.remove(&out.name)?;
        match self.write_copy(&inputs, &live, &mut out) {
            Ok(copied) => metrics.copied_records.add(copied),
            Err(e) => {
                let _ = self.storage.remove(&out.name);
                return Err(e);
            }
        }
        {
            let mut st = lock_recover(&self.state);
            st.sealed.drain(..inputs.len());
            if out.bytes > 0 {
                out.name_durable = true;
                st.sealed.insert(0, out);
            }
        }
        metrics.compactions.inc();
        for name in &inputs {
            self.storage.remove(name)?;
            self.storage.sync_dir()?;
            metrics.segments_removed.inc();
        }
        Ok(())
    }

    /// Stream the needed records of `inputs` into `out`, then make it
    /// durable. Returns the records copied.
    fn write_copy(
        &self,
        inputs: &[String],
        live: &HashMap<u64, u64>,
        out: &mut Segment,
    ) -> io::Result<u64> {
        let mut buf = Vec::with_capacity(COPY_CHUNK);
        let mut copied = 0u64;
        for name in inputs {
            let mut reader = LogReader::new(self.storage.reader(name)?);
            while let Some(r) = reader.next_record()? {
                // The inputs are the oldest segments, and no record of a
                // closed session in them is copied: no close record is
                // needed after them.
                if !needed(live, r.session, r.seq, r.kind, || false) {
                    continue;
                }
                buf.extend_from_slice(&encode_log_record(r.session, r.seq, r.kind, &r.payload));
                out.note(r.session, r.seq, r.kind);
                copied += 1;
                if buf.len() >= COPY_CHUNK {
                    self.flush_copy(out, &mut buf)?;
                }
            }
        }
        self.flush_copy(out, &mut buf)?;
        if out.bytes > 0 {
            self.storage.sync(&out.name)?;
            self.storage.sync_dir()?;
        }
        Ok(copied)
    }

    fn flush_copy(&self, out: &mut Segment, buf: &mut Vec<u8>) -> io::Result<()> {
        if !buf.is_empty() {
            self.storage.append(&out.name, buf)?;
            out.bytes += buf.len() as u64;
            buf.clear();
        }
        Ok(())
    }
}

impl LogState {
    /// Whether sealed segment `i` holds a record anybody still needs.
    fn segment_needed(&self, i: usize) -> bool {
        let seg = &self.sealed[i];
        let older = |id: &u64| self.sealed[..i].iter().any(|s| s.sessions.contains_key(id));
        seg.sessions
            .iter()
            .any(|(&id, &(seq, kind))| needed(&self.live, id, seq, kind, || false))
            || seg
                .closes
                .iter()
                .any(|&id| needed(&self.live, id, 0, RecordKind::Close, || older(&id)))
    }

    /// Whether a sealed segment holds a record of `session`.
    fn holds_sealed(&self, session: u64) -> bool {
        self.sealed
            .iter()
            .any(|s| s.sessions.contains_key(&session))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_names_round_trip_and_sort_by_number_then_generation() {
        assert_eq!(segment_name(7, 0), "log.000000000007.0");
        assert_eq!(parse_segment_name("log.000000000007.0"), Some((7, 0)));
        assert_eq!(
            parse_segment_name(&segment_name(u64::MAX, 3)),
            Some((u64::MAX, 3))
        );
        for bad in [
            "log.7",
            "log..0",
            "log.x.0",
            "7.journal",
            "log.-1.0",
            "log.1.x",
        ] {
            assert_eq!(parse_segment_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn a_session_needs_its_previous_snapshot_record_and_what_follows() {
        // Session 1's previous snapshot covers sequence 5.
        let live = HashMap::from([(1, 5), (2, 0)]);
        let need = |session, seq, kind| needed(&live, session, seq, kind, || false);
        assert!(need(1, 5, RecordKind::Snapshot), "the previous snapshot");
        assert!(need(1, 6, RecordKind::Frame));
        assert!(need(1, 9, RecordKind::Snapshot));
        assert!(!need(1, 5, RecordKind::Frame), "covered by it");
        assert!(!need(1, 3, RecordKind::Snapshot), "older than it");
        assert!(!need(1, 1, RecordKind::Open));
        // Before its second snapshot a session needs every record.
        assert!(need(2, 1, RecordKind::Open));
        // A closed session needs nothing but a close record with older
        // records of it still around.
        assert!(!needed(&live, 3, 9, RecordKind::Frame, || true));
        assert!(needed(&live, 3, 0, RecordKind::Close, || true));
        assert!(!needed(&live, 3, 0, RecordKind::Close, || false));
    }
}
