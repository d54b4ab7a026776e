//! The server-wide log from the outside: concurrent writers share
//! fsyncs (group commit) without losing an acknowledged write, and a
//! session that never snapshots costs no file of its own.

use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sit_obs::clock::MonotonicClock;
use sit_server::{FsyncPolicy, Json, MemStorage, PersistConfig, Service, Storage, StoreConfig};

/// `MemStorage` that counts fsyncs, file creations and removals. Each
/// fsync takes a millisecond, as a disk's does, so that writers queue
/// behind it.
#[derive(Default)]
struct CountingStorage {
    inner: MemStorage,
    slow_sync: bool,
    syncs: AtomicUsize,
    creates: AtomicUsize,
    removes: AtomicUsize,
    names: Mutex<HashSet<String>>,
}

impl CountingStorage {
    fn created(&self, name: &str) {
        if self.names.lock().unwrap().insert(name.to_owned()) {
            self.creates.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl Storage for CountingStorage {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.created(name);
        self.inner.append(name, data)
    }
    fn sync(&self, name: &str) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::SeqCst);
        if self.slow_sync {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.inner.sync(name)
    }
    fn sync_dir(&self) -> io::Result<()> {
        self.inner.sync_dir()
    }
    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.created(name);
        self.inner.write_atomic(name, data)
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }
    fn reader(&self, name: &str) -> io::Result<Box<dyn io::Read + Send>> {
        self.inner.reader(name)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.names.lock().unwrap().remove(name);
        self.removes.fetch_add(1, Ordering::SeqCst);
        self.inner.remove(name)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

fn durable(storage: Arc<CountingStorage>, fsync: FsyncPolicy) -> Service {
    Service::with_persistence(
        StoreConfig {
            max_sessions: 64,
            ttl: None,
        },
        Arc::new(MonotonicClock::new()),
        storage,
        PersistConfig {
            fsync,
            snapshot_every: 64,
        },
    )
    .expect("recovery over MemStorage cannot fail")
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
    call(service, r#"{"op":"open"}"#)
        .get("session")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned()
}

fn save(service: &Service, sid: &str) -> String {
    call(service, &format!(r#"{{"op":"save","session":"{sid}"}}"#))
        .get("script")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned()
}

#[test]
fn concurrent_writers_share_fsyncs_and_lose_no_acknowledged_write() {
    const THREADS: usize = 8;
    const WRITES: usize = 12;
    let storage = Arc::new(CountingStorage {
        slow_sync: true,
        ..CountingStorage::default()
    });
    let service = durable(Arc::clone(&storage), FsyncPolicy::Always);
    let sessions: Vec<String> = (0..THREADS).map(|_| open(&service)).collect();
    let syncs_before = storage.syncs.load(Ordering::SeqCst);
    std::thread::scope(|scope| {
        for sid in &sessions {
            let service = &service;
            scope.spawn(move || {
                for k in 0..WRITES {
                    call(
                        service,
                        &format!(
                            r#"{{"op":"add_schema","session":"{sid}","ddl":"schema s{k} {{ entity E{k} {{ key{k}: int key; }} }}"}}"#
                        ),
                    );
                }
            });
        }
    });
    let acknowledged = THREADS * WRITES;
    let syncs = storage.syncs.load(Ordering::SeqCst) - syncs_before;
    assert!(
        syncs < acknowledged,
        "{syncs} fsyncs for {acknowledged} acknowledged writes: no commit was shared"
    );
    let before: Vec<String> = sessions.iter().map(|sid| save(&service, sid)).collect();
    drop(service);

    storage.inner.lose_unsynced();
    let recovered = durable(Arc::clone(&storage), FsyncPolicy::Always);
    for (sid, want) in sessions.iter().zip(&before) {
        assert_eq!(&save(&recovered, sid), want, "session {sid} lost writes");
    }
}

#[test]
fn open_and_close_without_snapshots_create_and_remove_no_file() {
    for fsync in [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(4),
        FsyncPolicy::Never,
    ] {
        let storage = Arc::new(CountingStorage::default());
        let service = durable(Arc::clone(&storage), fsync);
        // The first open creates the log's head segment.
        let first = open(&service);
        call(
            &service,
            &format!(r#"{{"op":"close","session":"{first}"}}"#),
        );
        let creates = storage.creates.load(Ordering::SeqCst);
        let removes = storage.removes.load(Ordering::SeqCst);
        for _ in 0..200 {
            let sid = open(&service);
            call(
                &service,
                &format!(r#"{{"op":"list_schemas","session":"{sid}"}}"#),
            );
            let closed = call(&service, &format!(r#"{{"op":"close","session":"{sid}"}}"#));
            assert_eq!(closed.get("closed"), Some(&Json::Bool(true)));
        }
        assert_eq!(
            storage.creates.load(Ordering::SeqCst) - creates,
            0,
            "{fsync}: open or close created a file"
        );
        assert_eq!(
            storage.removes.load(Ordering::SeqCst) - removes,
            0,
            "{fsync}: close removed a file"
        );
        drop(service);
        // Nothing is open, so recovery drops every segment.
        let restarted = durable(Arc::clone(&storage), fsync);
        assert!(restarted.store().is_empty());
        assert_eq!(storage.list().unwrap(), Vec::<String>::new(), "{fsync}");
    }
}

/// A segment holding nothing but a close record still goes only after
/// the session's older records do: session `b` opens in the same
/// segment as `a`, which stays open, so that segment outlives the one
/// holding `b`'s close record unless the close record is kept.
#[test]
fn a_close_record_outlives_the_older_records_of_its_session() {
    let storage = Arc::new(MemStorage::new());
    let durable = || {
        Service::with_segmented_persistence(
            StoreConfig::default(),
            Arc::new(MonotonicClock::new()),
            Arc::clone(&storage) as Arc<dyn Storage>,
            PersistConfig::default(),
            64,
        )
        .expect("recovery over MemStorage cannot fail")
    };
    let service = durable();
    let (a, b) = (open(&service), open(&service));
    let add = |sid: &str| {
        format!(
            r#"{{"op":"add_schema","session":"{sid}","ddl":"schema s {{ entity E {{ k: int key; }} }}"}}"#
        )
    };
    call(&service, &add(&b));
    call(&service, &format!(r#"{{"op":"close","session":"{b}"}}"#));
    // Rolls past the close record's segment, so collection weighs it.
    call(&service, &add(&a));
    call(
        &service,
        &format!(r#"{{"op":"list_schemas","session":"{a}"}}"#),
    );
    let removed = service
        .persistence()
        .unwrap()
        .metrics()
        .segments_removed
        .get();
    assert!(removed > 0, "the workload must collect a segment");
    drop(service);

    let restarted = durable();
    assert!(restarted.store().get(&a).is_some(), "`{a}` is recovered");
    assert!(
        restarted.store().get(&b).is_none(),
        "closed session `{b}` came back"
    );
}
