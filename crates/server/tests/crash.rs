//! Crash-recovery chaos suite: kill the persistence layer at **every**
//! byte offset and prove the durability contract.
//!
//! The contract under test (DESIGN.md §8): *a mutation acknowledged
//! `ok:true` under `fsync=always` is recovered after any crash*. The
//! suite runs a fixed workload over a [`FaultedStorage`] with no crash
//! point to learn the total byte budget `B`, then replays the same
//! workload once per crash offset `c ∈ 0..=B`. Each iteration:
//!
//! 1. drives the workload against a durable service whose storage dies
//!    the moment cumulative written bytes exceed `c` (torn prefix
//!    included, like a real partial write);
//! 2. collects exactly the frames the dying server acknowledged;
//! 3. feeds those acknowledged frames to a plain in-memory *oracle*
//!    service — the state the client is entitled to;
//! 4. recovers a fresh durable service from the raw storage underneath
//!    the crash (as a restarted process would) and asserts every
//!    surviving session's `script::save` output is **byte-identical**
//!    to the oracle's.
//!
//! The sweep runs with both `atomic_tear` settings, so torn snapshots
//! (rename-promoted partial temp files) are covered as well as torn log
//! appends. The service seals log segments at [`SEGMENT_BYTES`], tiny
//! on purpose: the workload rolls many segments and runs a
//! copy-forward, so the sweep also tears segment creation, the copy and
//! the removals after it. Separate tests cover transient short writes
//! (the seal-and-roll path), power loss under each fsync policy
//! (`MemStorage::lose_unsynced`, which also reverts unsynced creates and
//! removes of directory entries), and determinism of the whole fault
//! schedule.

use std::sync::Arc;

use sit_obs::clock::MonotonicClock;
use sit_server::fault::{EventLog, FaultedStorage, StorageFaultConfig};
use sit_server::storage::{MemStorage, Storage};
use sit_server::wire::Json;
use sit_server::{FsyncPolicy, PersistConfig, Service, StoreConfig};

/// Two deliberately tiny schemas: the sweep cost is linear in total
/// bytes written, so every journal/snapshot byte is swept in seconds.
const DDL_A: &str =
    "schema sa { entity P { N: char key; } entity Q { M: char key; } relationship R { P (0,1); Q (0,n); } }";
const DDL_B: &str = "schema sb { entity P2 { N: char key; } }";

/// The fixed workload, as raw wire frames. Session ids are assigned
/// deterministically ("1", "2", "3" in open order). The workload
/// crosses every persistence path: journal appends, an apply-time
/// failure that still hits the journal (the bogus equiv), snapshots +
/// compaction (snapshot_every=2) through both snapshot slots, and
/// `close`.
fn workload() -> Vec<String> {
    let f = |s: &str| s.to_owned();
    vec![
        f(r#"{"op":"open"}"#),
        format!(r#"{{"op":"add_schema","session":"1","ddl":"{}"}}"#, DDL_A),
        format!(r#"{{"op":"add_schema","session":"1","ddl":"{}"}}"#, DDL_B),
        f(r#"{"op":"equiv","session":"1","a":"sa.P.N","b":"sb.P2.N"}"#),
        f(r#"{"op":"assert","session":"1","a":"sa.P","b":"sb.P2","assertion":"equals"}"#),
        f(r#"{"op":"open"}"#),
        format!(r#"{{"op":"add_schema","session":"2","ddl":"{}"}}"#, DDL_A),
        // Journaled (write-ahead) but fails at apply time: replay must
        // fail identically and leave no trace in the recovered state.
        f(r#"{"op":"equiv","session":"1","a":"sa.P.Nope","b":"sb.P2.N"}"#),
        f(r#"{"op":"save","session":"1"}"#),
        format!(r#"{{"op":"add_schema","session":"2","ddl":"{}"}}"#, DDL_B),
        f(r#"{"op":"equiv","session":"2","a":"sa.Q.M","b":"sb.P2.N"}"#),
        f(r#"{"op":"close","session":"2"}"#),
        f(r#"{"op":"open"}"#),
        format!(r#"{{"op":"add_schema","session":"3","ddl":"{}"}}"#, DDL_B),
        // Conflicts with the constraint derived from the `equals`
        // assertion above — journaled, fails at apply, fails on replay.
        f(r#"{"op":"assert","session":"1","a":"sa.Q","b":"sb.P2","assertion":"contains"}"#),
        f(r#"{"op":"equiv","session":"1","a":"sa.Q.M","b":"sb.P2.N"}"#),
    ]
}

fn persist_config(fsync: FsyncPolicy) -> PersistConfig {
    PersistConfig {
        fsync,
        snapshot_every: 2,
    }
}

/// Log segment size of the simulated server: a few records each.
const SEGMENT_BYTES: u64 = 192;

fn durable_service(storage: Arc<dyn Storage>, fsync: FsyncPolicy) -> Service {
    Service::with_segmented_persistence(
        StoreConfig::default(),
        Arc::new(MonotonicClock::new()),
        storage,
        persist_config(fsync),
        SEGMENT_BYTES,
    )
    .expect("recovery must not error")
}

fn acked(frame: &str) -> bool {
    Json::parse(frame)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        == Some(true)
}

/// Drive `frames` through `service`; return the acknowledged ones.
fn drive(service: &Service, frames: &[String]) -> Vec<String> {
    frames
        .iter()
        .filter(|f| acked(&service.handle_line(f).frame))
        .cloned()
        .collect()
}

/// Sessions still open after the acknowledged prefix: opens assign
/// "1", "2", ... in order; an acknowledged close removes one.
fn live_sessions(acked_frames: &[String]) -> Vec<String> {
    let mut next = 1u64;
    let mut live: Vec<String> = Vec::new();
    for frame in acked_frames {
        let v = Json::parse(frame).expect("workload frames are valid JSON");
        match v.get("op").and_then(Json::as_str) {
            Some("open") => {
                live.push(next.to_string());
                next += 1;
            }
            Some("close") => {
                let sid = v.get("session").and_then(Json::as_str).unwrap().to_owned();
                live.retain(|s| *s != sid);
            }
            _ => {}
        }
    }
    live
}

fn save_frame(service: &Service, sid: &str) -> String {
    let frame = format!(r#"{{"op":"save","session":"{sid}"}}"#);
    let out = service.handle_line(&frame).frame;
    assert!(acked(&out), "save of session {sid} failed: {out}");
    out
}

/// The whole contract, for one crash offset: recovered == oracle.
fn check_crash_point(c: u64, atomic_tear: bool) {
    let mem = Arc::new(MemStorage::new());
    let faulted = Arc::new(FaultedStorage::new(
        Arc::clone(&mem) as Arc<dyn Storage>,
        StorageFaultConfig {
            crash_after_bytes: Some(c),
            atomic_tear,
            ..Default::default()
        },
        EventLog::new(),
    ));
    let crashing = durable_service(faulted as Arc<dyn Storage>, FsyncPolicy::Always);
    let acked_frames = drive(&crashing, &workload());
    drop(crashing);

    // The state the client is entitled to: exactly what was acked.
    let oracle = Service::new(StoreConfig::default());
    for frame in &acked_frames {
        let out = oracle.handle_line(frame).frame;
        assert!(
            acked(&out),
            "acked frame must replay cleanly on the oracle (c={c}): {frame} -> {out}"
        );
    }

    // Restart: recover from the raw storage under the crash.
    let recovered = durable_service(Arc::clone(&mem) as Arc<dyn Storage>, FsyncPolicy::Always);
    let live = live_sessions(&acked_frames);
    for sid in &live {
        assert_eq!(
            save_frame(&oracle, sid),
            save_frame(&recovered, sid),
            "session {sid} diverged after crash at byte {c} (atomic_tear={atomic_tear})"
        );
    }
    assert_eq!(
        recovered.store().len(),
        live.len(),
        "recovery resurrected or lost sessions at byte {c} (atomic_tear={atomic_tear})"
    );
}

/// Learn the sweep budget: total bytes the workload writes when
/// nothing crashes.
fn byte_budget() -> u64 {
    let mem = Arc::new(MemStorage::new());
    let faulted = Arc::new(FaultedStorage::new(
        mem as Arc<dyn Storage>,
        StorageFaultConfig::default(),
        EventLog::new(),
    ));
    let probe = Arc::clone(&faulted);
    let service = durable_service(faulted as Arc<dyn Storage>, FsyncPolicy::Always);
    let frames = workload();
    let acked_count = drive(&service, &frames).len();
    // Two frames (the bogus equiv and the conflicting assert) fail at
    // apply time by design.
    assert_eq!(
        acked_count,
        frames.len() - 2,
        "fault-free workload must ack everything except the two designed apply failures"
    );
    let budget = probe.bytes_written();
    assert!(budget > 0, "workload must write log bytes");
    budget
}

/// The sweep covers the whole log life cycle: the fault-free workload
/// rolls segments, removes unneeded ones, and copies needed records
/// forward at least once.
#[test]
fn the_workload_rolls_segments_and_copies_forward() {
    let mem = Arc::new(MemStorage::new());
    let service = durable_service(Arc::clone(&mem) as Arc<dyn Storage>, FsyncPolicy::Always);
    drive(&service, &workload());
    let m = service.persistence().unwrap().metrics();
    assert!(m.segments_removed.get() > 0, "no segment was removed");
    assert!(m.compactions.get() >= 1, "no copy-forward ran");
    assert!(
        m.copied_records.get() > 0,
        "the copy-forward copied nothing"
    );
}

#[test]
fn every_crash_offset_recovers_the_acknowledged_state() {
    let budget = byte_budget();
    for c in 0..=budget {
        check_crash_point(c, false);
    }
}

#[test]
fn every_crash_offset_recovers_with_torn_atomic_renames() {
    let budget = byte_budget();
    for c in 0..=budget {
        check_crash_point(c, true);
    }
}

#[test]
fn transient_short_writes_are_repaired_and_lose_nothing() {
    for seed in 0..8u64 {
        let mem = Arc::new(MemStorage::new());
        let faulted = Arc::new(FaultedStorage::new(
            Arc::clone(&mem) as Arc<dyn Storage>,
            StorageFaultConfig {
                short_write_percent: 35,
                seed,
                ..Default::default()
            },
            EventLog::new(),
        ));
        let flaky = durable_service(faulted as Arc<dyn Storage>, FsyncPolicy::Always);
        let acked_frames = drive(&flaky, &workload());
        drop(flaky);

        let oracle = Service::new(StoreConfig::default());
        for frame in &acked_frames {
            assert!(acked(&oracle.handle_line(frame).frame));
        }
        let recovered = durable_service(Arc::clone(&mem) as Arc<dyn Storage>, FsyncPolicy::Always);
        for sid in &live_sessions(&acked_frames) {
            assert_eq!(
                save_frame(&oracle, sid),
                save_frame(&recovered, sid),
                "short writes (seed {seed}) corrupted session {sid}"
            );
        }
    }
}

#[test]
fn power_loss_under_fsync_always_keeps_every_acknowledged_mutation() {
    let mem = Arc::new(MemStorage::new());
    let service = durable_service(Arc::clone(&mem) as Arc<dyn Storage>, FsyncPolicy::Always);
    let acked_frames = drive(&service, &workload());
    drop(service);
    mem.lose_unsynced(); // power loss, not just a process crash

    let oracle = Service::new(StoreConfig::default());
    for frame in &acked_frames {
        assert!(acked(&oracle.handle_line(frame).frame));
    }
    let recovered = durable_service(Arc::clone(&mem) as Arc<dyn Storage>, FsyncPolicy::Always);
    for sid in &live_sessions(&acked_frames) {
        assert_eq!(
            save_frame(&oracle, sid),
            save_frame(&recovered, sid),
            "fsync=always must survive power loss byte-for-byte"
        );
    }
}

/// Power loss right after any acknowledgement under `always`: every
/// acknowledged mutation survives, including one in a segment rolled
/// just before it (its name must be durable first), and an acknowledged
/// close — session 2 is closed after a snapshot — never comes back.
#[test]
fn power_loss_after_every_acknowledgement_under_fsync_always() {
    let frames = workload();
    for k in 1..=frames.len() {
        let mem = Arc::new(MemStorage::new());
        let service = durable_service(Arc::clone(&mem) as Arc<dyn Storage>, FsyncPolicy::Always);
        let acked_frames = drive(&service, &frames[..k]);
        drop(service);
        mem.lose_unsynced();

        let oracle = Service::new(StoreConfig::default());
        for frame in &acked_frames {
            assert!(acked(&oracle.handle_line(frame).frame));
        }
        let recovered = durable_service(Arc::clone(&mem) as Arc<dyn Storage>, FsyncPolicy::Always);
        let live = live_sessions(&acked_frames);
        for sid in &live {
            assert_eq!(
                save_frame(&oracle, sid),
                save_frame(&recovered, sid),
                "session {sid} lost acknowledged state to power loss after frame {k}"
            );
        }
        assert_eq!(
            recovered.store().len(),
            live.len(),
            "power loss after frame {k} resurrected a closed session"
        );
    }
}

/// Weaker policies only promise a *prefix* of the acknowledged
/// history per session: replay the acked frames on an oracle, record
/// every intermediate state of every session, and require the
/// recovered state to be one of them.
fn power_loss_recovers_a_prefix(fsync: FsyncPolicy) {
    use std::collections::HashMap;
    let mem = Arc::new(MemStorage::new());
    let service = durable_service(Arc::clone(&mem) as Arc<dyn Storage>, fsync);
    let acked_frames = drive(&service, &workload());
    drop(service);
    mem.lose_unsynced();

    // Replay on the oracle, recording every intermediate state of
    // every session — the empty just-opened state lands in the list
    // via the `open` frame itself.
    let oracle = Service::new(StoreConfig::default());
    let mut prefixes: HashMap<String, Vec<String>> = HashMap::new();
    for (i, frame) in acked_frames.iter().enumerate() {
        assert!(acked(&oracle.handle_line(frame).frame));
        for sid in &live_sessions(&acked_frames[..=i]) {
            prefixes
                .entry(sid.clone())
                .or_default()
                .push(save_frame(&oracle, sid));
        }
    }

    let recovered = durable_service(Arc::clone(&mem) as Arc<dyn Storage>, fsync);
    for sid in &live_sessions(&acked_frames) {
        let got = save_frame(&recovered, sid);
        assert!(
            prefixes
                .get(sid)
                .is_some_and(|states| states.contains(&got)),
            "{fsync}: session {sid} recovered to a state that was never \
             a prefix of its acknowledged history: {got}"
        );
    }
}

#[test]
fn power_loss_under_fsync_every_n_recovers_an_acknowledged_prefix() {
    power_loss_recovers_a_prefix(FsyncPolicy::EveryN(3));
}

#[test]
fn power_loss_under_fsync_never_recovers_an_acknowledged_prefix() {
    power_loss_recovers_a_prefix(FsyncPolicy::Never);
}

/// Same seed, same crash point ⇒ identical fault schedule, identical
/// acknowledgements, identical recovered bytes. The suite is a
/// debugger, not a dice roll.
#[test]
fn the_fault_schedule_is_deterministic() {
    let run = |crash: u64| -> (Vec<String>, Vec<String>, Vec<String>) {
        let mem = Arc::new(MemStorage::new());
        let log = EventLog::new();
        let faulted = Arc::new(FaultedStorage::new(
            Arc::clone(&mem) as Arc<dyn Storage>,
            StorageFaultConfig {
                crash_after_bytes: Some(crash),
                atomic_tear: true,
                short_write_percent: 20,
                seed: 7,
            },
            log.clone(),
        ));
        let service = durable_service(faulted as Arc<dyn Storage>, FsyncPolicy::Always);
        let acked_frames = drive(&service, &workload());
        drop(service);
        let events: Vec<String> = log.snapshot().iter().map(|e| e.to_string()).collect();
        let recovered = durable_service(Arc::clone(&mem) as Arc<dyn Storage>, FsyncPolicy::Always);
        let saves = live_sessions(&acked_frames)
            .iter()
            .map(|sid| save_frame(&recovered, sid))
            .collect();
        (acked_frames, events, saves)
    };
    for crash in [150, 900, 2500] {
        assert_eq!(run(crash), run(crash), "crash budget {crash} diverged");
    }
}

/// The sweep genuinely exercises torn tails and journaled-but-failed
/// replays: recovery metrics across a coarse sweep must show both.
#[test]
fn the_sweep_exercises_torn_tails_and_replay_errors() {
    let budget = byte_budget();
    let mut truncated = 0u64;
    let mut replay_errors = 0u64;
    for c in (0..=budget).step_by(7) {
        let mem = Arc::new(MemStorage::new());
        let faulted = Arc::new(FaultedStorage::new(
            Arc::clone(&mem) as Arc<dyn Storage>,
            StorageFaultConfig {
                crash_after_bytes: Some(c),
                atomic_tear: true,
                ..Default::default()
            },
            EventLog::new(),
        ));
        let crashing = durable_service(faulted as Arc<dyn Storage>, FsyncPolicy::Always);
        drive(&crashing, &workload());
        drop(crashing);
        let recovered = durable_service(Arc::clone(&mem) as Arc<dyn Storage>, FsyncPolicy::Always);
        let m = recovered.persistence().unwrap().metrics();
        truncated += m.recover_truncated_bytes.get();
        replay_errors += m.replay_errors.get();
    }
    assert!(
        truncated > 0,
        "no crash offset produced a torn journal tail"
    );
    assert!(
        replay_errors > 0,
        "no crash offset replayed the journaled apply-time failure"
    );
}
