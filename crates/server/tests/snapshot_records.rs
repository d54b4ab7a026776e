//! A snapshot is a record in the shared log: a session owns no file, so
//! the data directory only ever holds log segments and `close` deletes
//! nothing by name; recovery falls back to the previous snapshot plus
//! the log when the newest snapshot record is corrupt.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sit_obs::clock::MonotonicClock;
use sit_server::persist::{decode_log_records, RecordKind, LOG_RECORD_HEADER};
use sit_server::wal::parse_segment_name;
use sit_server::{Json, MemStorage, PersistConfig, Service, Storage, StoreConfig};

/// `MemStorage` that counts `list` calls.
#[derive(Default)]
struct CountingStorage {
    inner: MemStorage,
    lists: AtomicUsize,
}

impl Storage for CountingStorage {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner.append(name, data)
    }
    fn sync(&self, name: &str) -> io::Result<()> {
        self.inner.sync(name)
    }
    fn sync_dir(&self) -> io::Result<()> {
        self.inner.sync_dir()
    }
    fn reader(&self, name: &str) -> io::Result<Box<dyn io::Read + Send>> {
        self.inner.reader(name)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.lists.fetch_add(1, Ordering::SeqCst);
        self.inner.list()
    }
}

/// Snapshots every two mutations, over log segments of `segment_bytes`.
fn durable(
    storage: Arc<dyn Storage>,
    max_sessions: usize,
    segment_bytes: u64,
) -> io::Result<Service> {
    Service::with_segmented_persistence(
        StoreConfig {
            max_sessions,
            ttl: None,
        },
        Arc::new(MonotonicClock::new()),
        storage,
        PersistConfig {
            snapshot_every: 2,
            ..PersistConfig::default()
        },
        segment_bytes,
    )
}

fn call(service: &Service, line: &str) -> Json {
    let frame = service.handle_line(line).frame;
    let v = Json::parse(&frame).expect("response is valid json");
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "{line} -> {frame}"
    );
    v
}

fn open(service: &Service) -> String {
    let opened = call(service, r#"{"op":"open"}"#);
    opened
        .get("session")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned()
}

fn add_schema(service: &Service, sid: &str, k: usize) {
    call(
        service,
        &format!(
            r#"{{"op":"add_schema","session":"{sid}","ddl":"schema s{k} {{ entity E{k} {{ key{k}: int key; }} }}"}}"#
        ),
    );
}

fn save(service: &Service, sid: &str) -> String {
    call(service, &format!(r#"{{"op":"save","session":"{sid}"}}"#))
        .get("script")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned()
}

/// Every name in `storage` is a log segment.
fn assert_only_segments(storage: &MemStorage, when: &str) {
    let names = storage.list().unwrap();
    assert!(
        names.iter().all(|n| parse_segment_name(n).is_some()),
        "{when}: {names:?}"
    );
}

#[test]
fn the_directory_holds_only_log_segments_and_close_lists_nothing() {
    let storage = Arc::new(CountingStorage::default());
    let service = durable(Arc::clone(&storage) as Arc<dyn Storage>, 1, 256).unwrap();

    // Eight mutations at `snapshot_every: 2`: four snapshot records.
    let live = open(&service);
    for k in 0..8 {
        add_schema(&service, &live, k);
        assert_only_segments(&storage.inner, &format!("after mutation {k}"));
    }
    let metrics = service.persistence().unwrap().metrics();
    assert_eq!(metrics.snapshots.get(), 4);

    // A second session under `max_sessions: 1` evicts the first.
    let other = open(&service);
    for k in 0..6 {
        add_schema(&service, &other, k);
        assert_only_segments(&storage.inner, &format!("after other's mutation {k}"));
    }
    assert!(service.store().get(&live).is_none(), "`{live}` was evicted");
    assert_eq!(metrics.snapshots.get(), 7);

    let lists = storage.lists.load(Ordering::SeqCst);
    for sid in [&other, &live] {
        call(&service, &format!(r#"{{"op":"close","session":"{sid}"}}"#));
        assert_only_segments(&storage.inner, &format!("after closing {sid}"));
    }
    assert_eq!(
        storage.lists.load(Ordering::SeqCst),
        lists,
        "close lists the directory"
    );
}

#[test]
fn a_corrupt_newest_snapshot_falls_back_to_the_previous_one_and_the_log() {
    let storage = Arc::new(MemStorage::new());
    let first = durable(Arc::clone(&storage) as Arc<dyn Storage>, 8, 256).unwrap();
    let sid = open(&first);
    // Six mutations: snapshot records after the second, fourth and
    // sixth, the last of them the log's tail.
    for k in 0..6 {
        add_schema(&first, &sid, k);
    }
    let want = save(&first, &sid);
    assert!(
        first
            .persistence()
            .unwrap()
            .metrics()
            .segments_removed
            .get()
            > 0,
        "collection must have run"
    );
    drop(first);

    // Flip a byte in the middle of the tail record's payload.
    let tail = storage.list().unwrap().pop().expect("a segment");
    let mut bytes = storage.read(&tail).unwrap();
    let scan = decode_log_records(&bytes);
    let last = scan
        .records
        .last()
        .expect("the tail segment holds a record");
    assert_eq!((last.kind, last.seq), (RecordKind::Snapshot, 7));
    let start = scan.consumed - last.payload.len() - LOG_RECORD_HEADER;
    bytes[start + LOG_RECORD_HEADER + last.payload.len() / 2] ^= 0x5A;
    storage.remove(&tail).unwrap();
    storage.append(&tail, &bytes).unwrap();

    let second = durable(Arc::clone(&storage) as Arc<dyn Storage>, 8, 256).unwrap();
    let metrics = second.persistence().unwrap().metrics();
    assert!(metrics.recover_truncated_bytes.get() > 0);
    // The snapshot after the fourth mutation, then the fifth and sixth
    // from the log.
    assert_eq!(metrics.recovered_records.get(), 2);
    assert_eq!(save(&second, &sid), want, "recovered byte for byte");
}

#[test]
fn a_session_file_of_an_older_layout_fails_recovery_by_name() {
    for name in ["3.snap.0", "3.snap.2", "3.journal"] {
        let storage = Arc::new(MemStorage::new());
        storage.append(name, b"old layout").unwrap();
        let err = durable(storage as Arc<dyn Storage>, 8, 256)
            .err()
            .expect("recovery refuses the old layout");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            format!("`{name}`: session file of an older layout, not a log segment")
        );
    }
}
