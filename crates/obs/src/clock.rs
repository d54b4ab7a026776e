//! Time sources for traces and latency metrics.
//!
//! Everything in this crate reads time through the [`Clock`] trait so a
//! caller can decide what "now" means: wall-clock monotonic nanoseconds
//! in production ([`MonotonicClock`]), or a hand-cranked counter in
//! tests ([`ManualClock`]), which a fault layer's injected delays can
//! advance under chaos schedules — which is the point: timing fields
//! rendered through an injected clock are a pure function of the
//! schedule, not of the host, so byte-traced workloads can include them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source.
///
/// Implementations must be cheap (called twice per span) and never go
/// backwards. The epoch is arbitrary — only differences and ordering
/// are meaningful.
pub trait Clock: Send + Sync {
    /// Nanoseconds since this clock's (arbitrary) origin.
    fn now_ns(&self) -> u64;
}

/// Wall-clock time: nanoseconds since the clock was created.
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is now.
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A clock that only moves when told to — deterministic tests, frozen
/// benchmark fixtures.
#[derive(Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A clock frozen at t=0.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Advance by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let c = MonotonicClock::new();
        let mut last = c.now_ns();
        for _ in 0..1000 {
            let now = c.now_ns();
            assert!(now >= last);
            last = now;
        }
    }

    #[test]
    fn manual_clock_moves_only_on_advance() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
        c.advance_ns(250);
        assert_eq!(c.now_ns(), 250);
        c.advance_ns(1);
        assert_eq!(c.now_ns(), 251);
    }
}
