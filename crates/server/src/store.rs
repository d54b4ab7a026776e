//! The session store: many concurrent integration sessions, bounded.
//!
//! Sessions are keyed by a server-assigned numeric id. The store holds at
//! most [`StoreConfig::max_sessions`] entries; opening one more evicts the
//! least-recently-used session. Use order is a counter the store bumps on
//! every insert and successful `get`, so the victim is exact however
//! coarse the clock. Entries idle longer than [`StoreConfig::ttl`] are
//! expired lazily (on any store operation that takes the registry lock);
//! idle time is measured on the service's [`Clock`], the one its spans,
//! latencies and log read, and the clock is read only when a TTL is set.
//!
//! Locking is two-level so sessions do not serialize each other: the
//! registry mutex guards only id→entry bookkeeping (lookup, use stamps,
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
//! bookkeeping it guards (ids, use stamps, counters) stays usable for
//! every later request.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use sit_core::session::Session;
use sit_obs::clock::Clock;
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

/// A session's last use: its place in use order, and the clock reading
/// at that use (0 when no TTL is set).
#[derive(Clone, Copy)]
struct Used {
    seq: u64,
    at_ns: u64,
}

struct Registry {
    next_id: u64,
    /// Uses so far; the next use is number `uses + 1`.
    uses: u64,
    /// Each live session with its last use.
    entries: HashMap<u64, (SharedSession, Used)>,
    evicted_lru: u64,
    evicted_ttl: u64,
}

impl Registry {
    /// Stamp the next use, made at clock reading `at_ns`.
    fn next_use(&mut self, at_ns: u64) -> Used {
        self.uses += 1;
        Used {
            seq: self.uses,
            at_ns,
        }
    }
}

/// Bounded, concurrently shared collection of sessions.
pub struct SessionStore {
    config: StoreConfig,
    clock: Arc<dyn Clock>,
    registry: Mutex<Registry>,
}

impl SessionStore {
    /// Empty store with the given limits, measuring idle time on `clock`.
    pub fn new(config: StoreConfig, clock: Arc<dyn Clock>) -> SessionStore {
        SessionStore {
            config,
            clock,
            registry: Mutex::new(Registry {
                next_id: 1,
                uses: 0,
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
        let (mut reg, now) = self.registry();
        while reg.entries.len() >= self.config.max_sessions.max(1) {
            // Evict the least-recently-used entry to make room.
            if let Some((&victim, _)) = reg.entries.iter().min_by_key(|(_, (_, used))| used.seq) {
                reg.entries.remove(&victim);
                reg.evicted_lru += 1;
            } else {
                break;
            }
        }
        reg.next_id = reg.next_id.max(id + 1);
        let used = reg.next_use(now);
        reg.entries
            .insert(id, (Arc::new(Mutex::new(session)), used));
    }

    /// Fetch a session handle by id, making it the most recently used.
    /// `None` if the id is unknown, closed, expired, or evicted.
    pub fn get(&self, id: &str) -> Option<SharedSession> {
        let key: u64 = id.parse().ok()?;
        let (mut reg, now) = self.registry();
        let used = reg.next_use(now);
        let (session, last_used) = reg.entries.get_mut(&key)?;
        *last_used = used;
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
            .0
            .entries
            .remove(&key)
            .map(|(session, _)| session)
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.registry().0.entries.len()
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

    /// The registry, locked, with idle entries expired, and the clock
    /// reading the expiry used (0 without a TTL: the clock is not read).
    fn registry(&self) -> (MutexGuard<'_, Registry>, u64) {
        let mut reg = lock_recover(&self.registry);
        let Some(ttl) = self.config.ttl else {
            return (reg, 0);
        };
        let ttl = u64::try_from(ttl.as_nanos()).unwrap_or(u64::MAX);
        let now = self.clock.now_ns();
        let before = reg.entries.len();
        reg.entries
            .retain(|_, (_, used)| now.saturating_sub(used.at_ns) < ttl);
        reg.evicted_ttl += (before - reg.entries.len()) as u64;
        (reg, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sit_obs::clock::ManualClock;

    fn store(max: usize, ttl: Option<Duration>) -> SessionStore {
        store_on(max, ttl, Arc::new(ManualClock::new()))
    }

    fn store_on(max: usize, ttl: Option<Duration>, clock: Arc<ManualClock>) -> SessionStore {
        SessionStore::new(
            StoreConfig {
                max_sessions: max,
                ttl,
            },
            clock,
        )
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
        let clock = Arc::new(ManualClock::new());
        let s = store_on(8, Some(Duration::from_millis(5)), Arc::clone(&clock));
        let id = s.open(Session::new());
        clock.advance_ns(4_999_999);
        assert!(s.get(&id).is_some(), "alive just inside the ttl");
        clock.advance_ns(5_000_000);
        assert_eq!(s.evictions().1, 0, "expiry waits for a store operation");
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
