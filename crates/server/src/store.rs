//! The session store: many concurrent integration sessions, bounded.
//!
//! Sessions are keyed by a server-assigned numeric id. The store holds at
//! most [`StoreConfig::max_sessions`] entries; opening one more evicts the
//! least-recently-used session. Entries idle longer than
//! [`StoreConfig::ttl`] are expired lazily (on any store operation that
//! takes the registry lock).
//!
//! Locking is two-level so sessions do not serialize each other: the
//! registry mutex guards only id→entry bookkeeping (lookup, LRU stamps,
//! eviction), while each session lives behind its own `Arc<Mutex<_>>` —
//! two requests to *different* sessions run fully in parallel on their
//! connection threads, and an eviction never blocks on a long-running
//! request (the in-flight request keeps its `Arc` and completes against
//! the now-anonymous session).
//!
//! The store holds sessions and nothing else. On a durable service a
//! session's sequence and snapshot cadence belong to the log
//! ([`crate::wal`]), which keeps them from the session's open record to
//! its close record: LRU or TTL eviction drops only the in-memory
//! session, and an evicted session stays open in the log until `close`.
//!
//! The registry lock is taken poison-recovering: a request that panics
//! while holding it unwinds only its own connection thread, and the
//! bookkeeping it guards (ids, LRU stamps, counters) stays usable for
//! every later request.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sit_core::session::Session;
use sit_obs::sync::lock_recover;

/// Store limits.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Maximum live sessions; opening beyond this evicts the LRU entry.
    pub max_sessions: usize,
    /// Idle time after which a session may be expired; `None` disables
    /// TTL eviction.
    pub ttl: Option<Duration>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_sessions: 64,
            ttl: Some(Duration::from_secs(600)),
        }
    }
}

/// Shared handle to one session.
pub type SharedSession = Arc<Mutex<Session>>;

struct Registry {
    next_id: u64,
    /// Each live session with its last use.
    entries: HashMap<u64, (SharedSession, Instant)>,
    evicted_lru: u64,
    evicted_ttl: u64,
}

/// Bounded, concurrently shared collection of sessions.
pub struct SessionStore {
    config: StoreConfig,
    registry: Mutex<Registry>,
}

impl SessionStore {
    /// Empty store with the given limits.
    pub fn new(config: StoreConfig) -> SessionStore {
        SessionStore {
            config,
            registry: Mutex::new(Registry {
                next_id: 1,
                entries: HashMap::new(),
                evicted_lru: 0,
                evicted_ttl: 0,
            }),
        }
    }

    /// Insert a session and return its assigned id.
    pub fn open(&self, session: Session) -> String {
        let id = self.reserve_id();
        self.insert(id, session);
        id.to_string()
    }

    /// Hand out a fresh id without inserting anything yet, so a durable
    /// open can log the session before the entry exists.
    pub fn reserve_id(&self) -> u64 {
        let mut reg = lock_recover(&self.registry);
        reg.next_id += 1;
        reg.next_id - 1
    }

    /// Give back `id` from [`SessionStore::reserve_id`] when the open it
    /// was for failed, unless a later id is already out.
    pub fn release_id(&self, id: u64) {
        let mut reg = lock_recover(&self.registry);
        if reg.next_id == id + 1 {
            reg.next_id = id;
        }
    }

    /// Keep future server-assigned ids above `id` (a closed session's
    /// id that the log still names).
    pub fn reserve_through(&self, id: u64) {
        let mut reg = lock_recover(&self.registry);
        reg.next_id = reg.next_id.max(id.saturating_add(1));
    }

    /// Insert a session under `id`: a reserved id, or a logged one that
    /// crash recovery pins back. Future server-assigned ids stay above
    /// it.
    pub fn insert(&self, id: u64, session: Session) {
        let mut reg = self.registry();
        while reg.entries.len() >= self.config.max_sessions.max(1) {
            // Evict the least-recently-used entry to make room.
            if let Some((&victim, _)) = reg.entries.iter().min_by_key(|(_, (_, used))| *used) {
                reg.entries.remove(&victim);
                reg.evicted_lru += 1;
            } else {
                break;
            }
        }
        reg.next_id = reg.next_id.max(id + 1);
        reg.entries
            .insert(id, (Arc::new(Mutex::new(session)), Instant::now()));
    }

    /// Fetch a session handle by id, refreshing its LRU stamp. `None` if
    /// the id is unknown, closed, expired, or evicted.
    pub fn get(&self, id: &str) -> Option<SharedSession> {
        let key: u64 = id.parse().ok()?;
        let mut reg = self.registry();
        let (session, last_used) = reg.entries.get_mut(&key)?;
        *last_used = Instant::now();
        Some(Arc::clone(session))
    }

    /// Remove a session; `true` if it was live.
    pub fn close(&self, id: &str) -> bool {
        self.remove(id).is_some()
    }

    /// Remove a session and hand it back, if it was live.
    pub fn remove(&self, id: &str) -> Option<SharedSession> {
        let key: u64 = id.parse().ok()?;
        self.registry()
            .entries
            .remove(&key)
            .map(|(session, _)| session)
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.registry().entries.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (LRU, TTL) eviction counts so far.
    pub fn evictions(&self) -> (u64, u64) {
        let reg = lock_recover(&self.registry);
        (reg.evicted_lru, reg.evicted_ttl)
    }

    /// The registry, locked, with idle entries expired.
    fn registry(&self) -> MutexGuard<'_, Registry> {
        let mut reg = lock_recover(&self.registry);
        if let Some(ttl) = self.config.ttl {
            let now = Instant::now();
            let before = reg.entries.len();
            reg.entries
                .retain(|_, (_, used)| now.duration_since(*used) < ttl);
            reg.evicted_ttl += (before - reg.entries.len()) as u64;
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(max: usize, ttl: Option<Duration>) -> SessionStore {
        SessionStore::new(StoreConfig {
            max_sessions: max,
            ttl,
        })
    }

    #[test]
    fn open_get_close_round_trip() {
        let s = store(4, None);
        let id = s.open(Session::new());
        assert_eq!(id, "1");
        assert!(s.get(&id).is_some());
        assert!(s.close(&id));
        assert!(s.get(&id).is_none());
        assert!(!s.close(&id));
        assert!(s.get("not-a-number").is_none());
    }

    #[test]
    fn lru_eviction_at_cap() {
        let s = store(2, None);
        let a = s.open(Session::new());
        let b = s.open(Session::new());
        // Touch `a` so `b` becomes the LRU victim.
        std::thread::sleep(Duration::from_millis(2));
        assert!(s.get(&a).is_some());
        let c = s.open(Session::new());
        assert_eq!(s.len(), 2);
        assert!(s.get(&a).is_some(), "recently used survives");
        assert!(s.get(&b).is_none(), "LRU evicted");
        assert!(s.get(&c).is_some());
        assert_eq!(s.evictions().0, 1);
    }

    #[test]
    fn ttl_expiry_is_lazy_but_effective() {
        let s = store(8, Some(Duration::from_millis(5)));
        let id = s.open(Session::new());
        assert!(s.get(&id).is_some());
        std::thread::sleep(Duration::from_millis(10));
        assert!(s.get(&id).is_none(), "expired after idle ttl");
        assert_eq!(s.evictions().1, 1);
    }

    #[test]
    fn insert_pins_recovered_ids_and_bumps_the_counter() {
        let s = store(4, None);
        s.insert(7, Session::new());
        assert!(s.get("7").is_some());
        let next = s.open(Session::new());
        assert_eq!(next, "8", "fresh ids never collide with recovered ones");
    }

    #[test]
    fn poisoned_registry_keeps_serving() {
        let s = store(4, None);
        let id = s.open(Session::new());
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _reg = s.registry.lock().unwrap();
                panic!("request panics while holding the registry lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(s.registry.is_poisoned());
        assert!(s.get(&id).is_some());
        let next = s.open(Session::new());
        assert_eq!(next, "2");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn in_flight_handle_survives_eviction() {
        let s = store(1, None);
        let a = s.open(Session::new());
        let handle = s.get(&a).unwrap();
        let _b = s.open(Session::new()); // evicts `a`
        assert!(s.get(&a).is_none());
        // The held Arc still works; the request in flight completes.
        handle.lock().unwrap().catalog();
    }
}
