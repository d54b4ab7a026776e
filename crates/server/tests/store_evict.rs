//! Eviction boundary behavior of the [`SessionStore`]: exact-LRU victim
//! selection at capacity, lazy TTL expiry racing concurrent `get`s, and
//! the protocol-level guarantee that an evicted session answers
//! `unknown_session` — never `conflict` — when addressed again. Idle time
//! runs on a [`ManualClock`]: nothing here sleeps.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sit_core::session::Session;
use sit_obs::clock::ManualClock;
use sit_server::store::{SessionStore, StoreConfig};
use sit_server::{Json, Service};

const MS: u64 = 1_000_000;

fn store(max_sessions: usize, ttl: Option<Duration>) -> SessionStore {
    store_on(max_sessions, ttl, Arc::new(ManualClock::new()))
}

fn store_on(max_sessions: usize, ttl: Option<Duration>, clock: Arc<ManualClock>) -> SessionStore {
    SessionStore::new(StoreConfig { max_sessions, ttl }, clock)
}

#[test]
fn insert_at_capacity_evicts_the_true_lru_not_the_oldest_insert() {
    let store = store(3, None);
    let a = store.open(Session::new());
    let b = store.open(Session::new());
    let c = store.open(Session::new());
    // `a` was inserted first but is the most recently USED: touching it
    // must protect it, making `b` the LRU victim.
    assert!(store.get(&a).is_some());
    let d = store.open(Session::new());
    assert_eq!(store.len(), 3);
    assert!(store.get(&a).is_some(), "recently-used survivor evicted");
    assert!(store.get(&b).is_none(), "true LRU entry was not evicted");
    assert!(store.get(&c).is_some());
    assert!(store.get(&d).is_some());
    assert_eq!(store.evictions(), (1, 0), "exactly one LRU eviction");
}

#[test]
fn repeated_touching_rotates_the_victim_order() {
    let store = store(2, None);
    let a = store.open(Session::new());
    let b = store.open(Session::new());
    // Alternate touches so the LRU victim flips each round.
    assert!(store.get(&a).is_some()); // order: b, a
    let c = store.open(Session::new()); // evicts b
    assert!(store.get(&b).is_none());
    assert!(store.get(&c).is_some()); // order: a, c
    let d = store.open(Session::new()); // evicts a
    assert!(store.get(&a).is_none());
    assert!(store.get(&c).is_some());
    assert!(store.get(&d).is_some());
    assert_eq!(store.evictions(), (2, 0));
}

#[test]
fn on_a_frozen_clock_evictions_follow_use_order_exactly() {
    // Every use happens at the same clock reading, so only the use
    // order can tell the sessions apart.
    let store = store(3, Some(Duration::from_secs(60)));
    let ids: Vec<String> = (0..3).map(|_| store.open(Session::new())).collect();
    for id in [&ids[2], &ids[0], &ids[1], &ids[2]] {
        assert!(store.get(id).is_some());
    }
    // Use order, least recent first: 0, 1, 2.
    for (round, victim) in ids.iter().enumerate() {
        store.open(Session::new());
        assert!(store.get(victim).is_none(), "round {round}: wrong victim");
        assert_eq!(store.evictions(), (round as u64 + 1, 0));
    }
}

#[test]
fn failed_gets_do_not_refresh_and_close_is_not_a_touch() {
    let store = store(2, None);
    let a = store.open(Session::new());
    let b = store.open(Session::new());
    // Addressing a bogus id is not a touch of anything.
    assert!(store.get("424242").is_none());
    assert!(store.get("not-a-number").is_none());
    // Closing `b` frees its slot outright; `a` remains.
    assert!(store.close(&b));
    assert!(!store.close(&b), "double close reports false");
    let c = store.open(Session::new());
    assert_eq!(store.len(), 2);
    assert!(store.get(&a).is_some(), "no eviction was needed");
    assert!(store.get(&c).is_some());
    assert_eq!(store.evictions(), (0, 0));
}

#[test]
fn ttl_expiry_is_lazy_and_counts_separately_from_lru() {
    let clock = Arc::new(ManualClock::new());
    let store = store_on(8, Some(Duration::from_millis(80)), Arc::clone(&clock));
    let a = store.open(Session::new());
    let b = store.open(Session::new());
    clock.advance_ns(50 * MS);
    // Refresh `a` midway: only `b` crosses the TTL.
    assert!(store.get(&a).is_some());
    clock.advance_ns(50 * MS);
    assert!(store.get(&b).is_none(), "idle session survived its TTL");
    assert!(store.get(&a).is_some(), "refreshed session expired early");
    assert_eq!(store.evictions(), (0, 1));
}

#[test]
fn concurrent_gets_racing_ttl_expiry_never_panic_or_resurrect() {
    // Hammer `get` from many threads while another advances the clock
    // across the expiry boundary. The lazy expiry path runs under the
    // same registry lock as the gets, so every get either refreshes the
    // session (keeping it alive) or finds it gone — never a torn state,
    // never a panic, and once a get has seen `None` no later get may
    // see the session again.
    let clock = Arc::new(ManualClock::new());
    let store = Arc::new(store_on(
        4,
        Some(Duration::from_millis(40)),
        Arc::clone(&clock),
    ));
    let id = store.open(Session::new());
    let vanished = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for _ in 0..4 {
        let store = Arc::clone(&store);
        let vanished = Arc::clone(&vanished);
        let done = Arc::clone(&done);
        let id = id.clone();
        workers.push(std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                // Read the flag before the get: a get that started
                // before another saw `None` may still have seen the
                // session.
                let gone = vanished.load(Ordering::SeqCst);
                let hit = store.get(&id).is_some();
                if hit {
                    assert!(!gone, "session resurrected after expiry was observed");
                } else {
                    vanished.store(true, Ordering::SeqCst);
                }
            }
        }));
    }
    // Steps of a quarter TTL keep the session alive while gets land
    // between them; a step past the TTL expires it unless a get wins
    // the race to the registry lock first.
    for step in 0..200u64 {
        clock.advance_ns(if step % 50 == 49 { 41 * MS } else { 10 * MS });
        std::thread::yield_now();
    }
    done.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().expect("no panics under the race");
    }
    // Leave the session idle past the TTL: it must end up expired, once.
    clock.advance_ns(41 * MS);
    assert!(store.get(&id).is_none());
    assert_eq!(store.evictions(), (0, 1), "one TTL expiry, no LRU pressure");
}

#[test]
fn evicted_sessions_answer_unknown_session_not_conflict() {
    // Protocol-level: fill a capacity-1 store so opening a second
    // session evicts the first, then address the evicted id. The server
    // must say `unknown_session` (the id is gone), not `conflict` (which
    // would imply the session still exists in a bad state).
    let service = Service::new(StoreConfig {
        max_sessions: 1,
        ttl: None,
    });
    let open = |svc: &Service| -> String {
        let handled = svc.handle_line(r#"{"op":"open"}"#);
        let frame = Json::parse(&handled.frame).expect("open frame");
        frame
            .get("session")
            .and_then(Json::as_str)
            .expect("session id")
            .to_owned()
    };
    let first = open(&service);
    let _second = open(&service); // evicts `first`
    for line in [
        format!(r#"{{"op":"save","session":"{first}"}}"#),
        format!(r#"{{"op":"list_schemas","session":"{first}"}}"#),
        format!(r#"{{"op":"integrate","session":"{first}","a":"x","b":"y"}}"#),
    ] {
        let handled = service.handle_line(&line);
        let frame = Json::parse(&handled.frame).expect("error frame");
        let code = frame
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        assert_eq!(
            code,
            Some("unknown_session"),
            "evicted id must be unknown, got: {}",
            handled.frame
        );
    }
    // `close` on the evicted id is a clean no-op, not an error.
    let handled = service.handle_line(&format!(r#"{{"op":"close","session":"{first}"}}"#));
    let frame = Json::parse(&handled.frame).expect("close frame");
    assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(frame.get("closed").and_then(Json::as_bool), Some(false));
}
