//! Two fixed snapshot slots per session: a session's own files are
//! `<id>.snap.0` and `<id>.snap.1` (its records live in the shared log),
//! so `close` deletes them by name without a directory listing, and
//! recovery falls back to the other slot when the newer one is corrupt.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sit_obs::clock::MonotonicClock;
use sit_server::persist::decode_snapshot;
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
    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(name, data)
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
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

fn durable(storage: Arc<dyn Storage>, max_sessions: usize) -> io::Result<Service> {
    Service::with_persistence(
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

fn files_of(storage: &MemStorage, sid: &str) -> Vec<String> {
    let prefix = format!("{sid}.");
    let mut names = storage.list().unwrap();
    names.retain(|n| n.starts_with(&prefix));
    names
}

/// The `seq` of a snapshot slot, `None` if it does not decode.
fn slot_seq(storage: &MemStorage, name: &str) -> Option<u64> {
    decode_snapshot(&storage.read(name).ok()?).map(|(seq, _)| seq)
}

#[test]
fn a_session_owns_two_fixed_names_and_close_lists_nothing() {
    let storage = Arc::new(CountingStorage::default());
    let service = durable(Arc::clone(&storage) as Arc<dyn Storage>, 1).unwrap();
    let fixed = |sid: &str| [format!("{sid}.snap.0"), format!("{sid}.snap.1")];

    // Eight mutations at `snapshot_every: 2`: four snapshots, so both
    // slots are overwritten at least once.
    let live = open(&service);
    for k in 0..8 {
        add_schema(&service, &live, k);
        let files = files_of(&storage.inner, &live);
        assert!(
            files.iter().all(|f| fixed(&live).contains(f)),
            "after mutation {k}: {files:?}"
        );
    }
    assert_eq!(
        files_of(&storage.inner, &live),
        fixed(&live).to_vec(),
        "both slots are in use"
    );

    // A second session under `max_sessions: 1` evicts the first.
    let other = open(&service);
    for k in 0..6 {
        add_schema(&service, &other, k);
    }
    assert!(service.store().get(&live).is_none(), "`{live}` was evicted");
    assert_eq!(files_of(&storage.inner, &other), fixed(&other).to_vec());

    let lists = storage.lists.load(Ordering::SeqCst);
    for sid in [&other, &live] {
        call(&service, &format!(r#"{{"op":"close","session":"{sid}"}}"#));
        assert_eq!(files_of(&storage.inner, sid), Vec::<String>::new(), "{sid}");
    }
    assert_eq!(
        storage.lists.load(Ordering::SeqCst),
        lists,
        "close lists the directory"
    );
}

#[test]
fn a_corrupt_newer_slot_falls_back_and_is_overwritten_next() {
    let storage = Arc::new(MemStorage::new());
    let first = durable(Arc::clone(&storage) as Arc<dyn Storage>, 8).unwrap();
    let sid = open(&first);
    // Five mutations: snapshots after the second and the fourth fill
    // both slots, and the fifth stays in the log only.
    for k in 0..5 {
        add_schema(&first, &sid, k);
    }
    let want = save(&first, &sid);
    drop(first);

    let slots = [format!("{sid}.snap.0"), format!("{sid}.snap.1")];
    let seqs = slots
        .clone()
        .map(|s| slot_seq(&storage, &s).expect("slot decodes"));
    let (newer, older) = if seqs[0] > seqs[1] { (0, 1) } else { (1, 0) };
    let mut bytes = storage.read(&slots[newer]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5A;
    storage.write_atomic(&slots[newer], &bytes).unwrap();
    let good = storage.read(&slots[older]).unwrap();

    let second = durable(Arc::clone(&storage) as Arc<dyn Storage>, 8).unwrap();
    let metrics = second.persistence().unwrap().metrics();
    assert_eq!(metrics.recover_skipped_snapshots.get(), 1);
    assert_eq!(save(&second, &sid), want, "recovered byte for byte");

    let snapshots = metrics.snapshots.get();
    let mut k = 5;
    while metrics.snapshots.get() == snapshots {
        add_schema(&second, &sid, k);
        k += 1;
    }
    assert!(
        slot_seq(&storage, &slots[newer]).is_some_and(|seq| seq > seqs[older]),
        "the next snapshot overwrote the corrupt slot"
    );
    assert_eq!(
        storage.read(&slots[older]).unwrap(),
        good,
        "the good slot is untouched"
    );
}

#[test]
fn a_numbered_snapshot_generation_fails_recovery_by_name() {
    let storage = Arc::new(MemStorage::new());
    storage.append("3.journal", b"").unwrap();
    storage.write_atomic("3.snap.2", b"old layout").unwrap();
    let err = durable(storage as Arc<dyn Storage>, 8)
        .err()
        .expect("recovery refuses the old layout");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("3.snap.2"), "{err}");
}
