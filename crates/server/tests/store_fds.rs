//! Durable sessions hold no file descriptor of their own: every session
//! appends to the one log, and `DirStorage` caches a single append
//! handle, so the process's open file descriptors stay bounded no
//! matter how many sessions are opened and evicted.
//!
//! This file holds one test on purpose: it counts the whole process's
//! descriptors, which other tests running beside it would disturb.

use std::path::Path;
use std::sync::Arc;

use sit_obs::clock::MonotonicClock;
use sit_server::{DirStorage, FsyncPolicy, Json, PersistConfig, Service, StoreConfig};

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

#[test]
fn evicted_durable_sessions_leave_no_descriptor_behind() {
    let fd_dir = Path::new("/proc/self/fd");
    if !fd_dir.is_dir() {
        return; // no procfs to count descriptors with
    }
    let open_fds = || {
        std::fs::read_dir(fd_dir)
            .expect("list /proc/self/fd")
            .count()
    };
    let dir = std::env::temp_dir().join(format!("sit-store-fds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = Arc::new(DirStorage::open(&dir).expect("temp data dir"));
    let service = Service::with_persistence(
        StoreConfig {
            max_sessions: 2,
            ttl: None,
        },
        Arc::new(MonotonicClock::new()),
        storage,
        PersistConfig {
            fsync: FsyncPolicy::Never,
            snapshot_every: 0,
        },
    )
    .expect("recovery over an empty directory");

    let before = open_fds();
    for _ in 0..200 {
        let opened = call(&service, r#"{"op":"open"}"#);
        let sid = opened.get("session").and_then(Json::as_str).unwrap();
        call(
            &service,
            &format!(
                r#"{{"op":"add_schema","session":"{sid}","ddl":"schema s {{ entity E {{ k: int key; }} }}"}}"#
            ),
        );
    }
    let after = open_fds();
    assert_eq!(service.store().len(), 2);
    assert!(
        after <= before + 4,
        "open descriptors grew from {before} to {after} over 200 sessions with 2 live"
    );
    drop(service);
    std::fs::remove_dir_all(&dir).expect("remove temp data dir");
}
