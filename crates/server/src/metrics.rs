//! Per-verb request metrics: lock-free counters and base-2 latency
//! histograms over an injected [`Clock`].
//!
//! Every verb's meters ([`VerbMeters`]) are preregistered at
//! construction in one sorted, immutable table, so [`Metrics::record`]
//! is a binary search plus a handful of relaxed atomic adds — no
//! registry mutex at all. (The previous design kept a 16K-sample
//! `Vec<u64>` ring per verb behind a `Mutex<BTreeMap>` and
//! `summaries()` cloned *and sorted* every ring while holding that
//! mutex, stalling all recording for the duration; see
//! `summaries_never_block_recording`.)
//!
//! Latency order statistics are nearest-rank estimates from
//! [`sit_obs::Histogram`]: `min_ns` is exact, `median_ns`/`p95_ns` are
//! the upper bound of the base-2 bucket holding the rank (≤ 2×
//! relative error). Uptime and latencies both read the injected
//! [`Clock`], so under a virtual clock the whole `stats` payload is a
//! deterministic function of the schedule.

use std::sync::Arc;

use sit_obs::clock::{Clock, MonotonicClock};
use sit_obs::metrics::{prom_counter, prom_histogram, prom_label_value, Counter, Histogram};

/// Non-verb meter slots: frames that failed JSON parsing, frames that
/// parsed but decoded to no valid request, and the unreachable-in-
/// practice fallback for an unregistered op label.
pub const EXTRA_OPS: [&str; 3] = ["_invalid", "_other", "_parse"];

/// Aggregated view of one verb.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerbSummary {
    /// Requests handled (including failures).
    pub count: u64,
    /// Requests answered with `ok:false`.
    pub errors: u64,
    /// Fastest recorded latency (exact).
    pub min_ns: u64,
    /// Median latency estimate (bucket upper bound).
    pub median_ns: u64,
    /// 95th-percentile latency estimate (bucket upper bound).
    pub p95_ns: u64,
}

/// Live meters for one verb.
#[derive(Default)]
pub struct VerbMeters {
    /// Requests handled.
    pub count: Counter,
    /// Requests answered with `ok:false`.
    pub errors: Counter,
    /// Latency distribution in nanoseconds.
    pub latency: Histogram,
}

/// Concurrent metrics registry; recording never takes a lock.
pub struct Metrics {
    clock: Arc<dyn Clock>,
    started_ns: u64,
    /// Sorted by name; built once, never resized.
    verbs: Vec<(&'static str, VerbMeters)>,
    other_idx: usize,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh registry on wall-clock time; uptime starts now.
    pub fn new() -> Metrics {
        Metrics::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// Fresh registry reading time (latencies *and* uptime) from
    /// `clock`.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Metrics {
        let mut names: Vec<&'static str> = crate::proto::VERBS.to_vec();
        names.extend(EXTRA_OPS);
        names.sort_unstable();
        names.dedup();
        let verbs: Vec<(&'static str, VerbMeters)> = names
            .into_iter()
            .map(|n| (n, VerbMeters::default()))
            .collect();
        let other_idx = verbs
            .binary_search_by(|(n, _)| n.cmp(&"_other"))
            .expect("_other is preregistered");
        let started_ns = clock.now_ns();
        Metrics {
            clock,
            started_ns,
            verbs,
            other_idx,
        }
    }

    fn meters(&self, op: &str) -> &VerbMeters {
        match self.verbs.binary_search_by(|(n, _)| n.cmp(&op)) {
            Ok(i) => &self.verbs[i].1,
            Err(_) => &self.verbs[self.other_idx].1,
        }
    }

    /// Record one handled request. Lock-free.
    pub fn record(&self, op: &'static str, latency_ns: u64, is_error: bool) {
        let m = self.meters(op);
        m.count.inc();
        if is_error {
            m.errors.inc();
        }
        m.latency.record(latency_ns);
    }

    /// Milliseconds since the registry was created, per its clock.
    pub fn uptime_ms(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.started_ns) / 1_000_000
    }

    /// Summaries for every verb seen at least once, sorted by name.
    /// Reads no lock, so it can never stall recording.
    pub fn summaries(&self) -> Vec<(&'static str, VerbSummary)> {
        self.verbs
            .iter()
            .filter(|(_, m)| m.count.get() > 0)
            .map(|&(op, ref m)| {
                (
                    op,
                    VerbSummary {
                        count: m.count.get(),
                        errors: m.errors.get(),
                        min_ns: m.latency.min(),
                        median_ns: m.latency.quantile(1, 2),
                        p95_ns: m.latency.quantile(19, 20),
                    },
                )
            })
            .collect()
    }

    /// The per-verb section of the Prometheus text exposition:
    /// request/error counters and the latency histogram for every verb
    /// seen at least once.
    pub fn prometheus(&self) -> String {
        let seen: Vec<(&'static str, &VerbMeters)> = self
            .verbs
            .iter()
            .filter(|(_, m)| m.count.get() > 0)
            .map(|&(op, ref m)| (op, m))
            .collect();
        let mut out = String::new();
        out.push_str("# TYPE sit_requests_total counter\n");
        for (op, m) in &seen {
            prom_counter(
                &mut out,
                "sit_requests_total",
                &format!("verb=\"{}\"", prom_label_value(op)),
                m.count.get(),
            );
        }
        out.push_str("# TYPE sit_request_errors_total counter\n");
        for (op, m) in &seen {
            prom_counter(
                &mut out,
                "sit_request_errors_total",
                &format!("verb=\"{}\"", prom_label_value(op)),
                m.errors.get(),
            );
        }
        out.push_str("# TYPE sit_request_latency_ns histogram\n");
        for (op, m) in &seen {
            prom_histogram(
                &mut out,
                "sit_request_latency_ns",
                &format!("verb=\"{}\"", prom_label_value(op)),
                &m.latency,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sit_obs::clock::ManualClock;

    #[test]
    fn records_counts_and_order_statistics() {
        let m = Metrics::new();
        for i in 1..=100u64 {
            m.record("assert", i * 10, i % 10 == 0);
        }
        let all = m.summaries();
        assert_eq!(all.len(), 1);
        let (op, s) = &all[0];
        assert_eq!(*op, "assert");
        assert_eq!(s.count, 100);
        assert_eq!(s.errors, 10);
        assert_eq!(s.min_ns, 10);
        // Exact median 500 / p95 950; the histogram answers the
        // enclosing base-2 bucket's upper bound.
        assert_eq!(s.median_ns, 511);
        assert_eq!(s.p95_ns, 1023);
    }

    #[test]
    fn unregistered_ops_land_in_the_other_slot() {
        let m = Metrics::new();
        m.record("not_a_verb", 5, false);
        let all = m.summaries();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, "_other");
        assert_eq!(all[0].1.count, 1);
    }

    #[test]
    fn uptime_follows_the_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let m = Metrics::with_clock(clock.clone());
        assert_eq!(m.uptime_ms(), 0);
        clock.advance_ns(7_500_000);
        assert_eq!(m.uptime_ms(), 7);
    }

    /// The satellite regression: summaries must not block recording.
    /// Writers hammer `record` while a reader loops `summaries()`;
    /// with the old under-mutex clone-and-sort this took seconds and
    /// serialized everything — here the final counts are exact and the
    /// whole test is a few milliseconds of genuinely concurrent work.
    #[test]
    fn summaries_never_block_recording() {
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 50_000;
        let m = Arc::new(Metrics::new());
        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    m.record("ping", i ^ (w as u64), i % 7 == 0);
                }
            }));
        }
        let reader = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let mut snapshots = 0u64;
                for _ in 0..1_000 {
                    let s = m.summaries();
                    // Mid-flight snapshots are consistent enough to use:
                    // counts only grow and never exceed the writers' total.
                    if let Some((_, ping)) = s.iter().find(|(op, _)| *op == "ping") {
                        assert!(ping.count <= WRITERS as u64 * PER_WRITER);
                    }
                    snapshots += 1;
                }
                snapshots
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reader.join().unwrap(), 1_000);
        let all = m.summaries();
        let (_, ping) = all.iter().find(|(op, _)| *op == "ping").unwrap();
        assert_eq!(ping.count, WRITERS as u64 * PER_WRITER);
        assert_eq!(ping.errors, WRITERS as u64 * PER_WRITER.div_ceil(7));
    }

    #[test]
    fn prometheus_section_covers_every_seen_verb() {
        let clock = Arc::new(ManualClock::new());
        let m = Metrics::with_clock(clock);
        m.record("ping", 0, false);
        m.record("ping", 0, false);
        m.record("_invalid", 0, true);
        let text = m.prometheus();
        let expected = "\
# TYPE sit_requests_total counter
sit_requests_total{verb=\"_invalid\"} 1
sit_requests_total{verb=\"ping\"} 2
# TYPE sit_request_errors_total counter
sit_request_errors_total{verb=\"_invalid\"} 1
sit_request_errors_total{verb=\"ping\"} 0
# TYPE sit_request_latency_ns histogram
sit_request_latency_ns_bucket{verb=\"_invalid\",le=\"0\"} 1
sit_request_latency_ns_bucket{verb=\"_invalid\",le=\"+Inf\"} 1
sit_request_latency_ns_sum{verb=\"_invalid\"} 0
sit_request_latency_ns_count{verb=\"_invalid\"} 1
sit_request_latency_ns_bucket{verb=\"ping\",le=\"0\"} 2
sit_request_latency_ns_bucket{verb=\"ping\",le=\"+Inf\"} 2
sit_request_latency_ns_sum{verb=\"ping\"} 0
sit_request_latency_ns_count{verb=\"ping\"} 2
";
        assert_eq!(text, expected);
    }
}
