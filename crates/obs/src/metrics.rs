//! Lock-free counters, base-2 log-bucketed histograms, and Prometheus
//! text exposition.
//!
//! A [`Histogram`] spreads the full `u64` range over [`BUCKETS`] = 65
//! buckets: bucket 0 holds exactly the value 0, bucket *k* (1 ≤ *k* ≤
//! 64) holds values in `(2^(k-1) − 1, 2^k − 1]` — i.e. values whose
//! bit-length is *k*. Recording is four relaxed atomic updates (bucket,
//! sum, count, min/max), so it is safe on any hot path; reads taken
//! while writers are active are eventually consistent, never torn per
//! field. Quantiles are nearest-rank over buckets and return the
//! matched bucket's upper bound — an estimate with ≤ 2× relative
//! error, which is the deal log-bucketing makes for fixed memory and
//! lock-freedom (the previous server metrics kept a 16K-sample ring
//! per verb and sorted a clone of it under the registry mutex on every
//! `stats` call).

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically-increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count: value 0, plus one bucket per bit-length of `u64`.
pub const BUCKETS: usize = 65;

/// A fixed-memory, lock-free, log-bucketed (base-2) histogram.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index `value` falls into (its bit-length).
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `index`: 0, 1, 3, 7, ...,
    /// `2^63 − 1`, `u64::MAX`.
    pub fn bucket_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            1..=63 => (1u64 << index) - 1,
            _ => u64::MAX,
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation (exact; 0 when empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Largest observation (exact; 0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Count in bucket `index`.
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.buckets[index].load(Ordering::Relaxed)
    }

    /// All bucket counts.
    pub fn counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.bucket_count(i))
    }

    /// Fold `other` into `self` (bucket-wise; min/max/sum/count merge
    /// exactly, so merging equals having recorded the union).
    pub fn merge_from(&self, other: &Histogram) {
        for i in 0..BUCKETS {
            let n = other.bucket_count(i);
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        let other_count = other.count();
        if other_count > 0 {
            self.count.fetch_add(other_count, Ordering::Relaxed);
            self.min
                .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
            self.max.fetch_max(other.max(), Ordering::Relaxed);
        }
    }

    /// Nearest-rank `num/den` quantile, as the upper bound of the
    /// bucket holding that rank (0 when empty). `quantile(1, 2)` is
    /// the median estimate, `quantile(19, 20)` the p95 estimate.
    pub fn quantile(&self, num: u32, den: u32) -> u64 {
        assert!(den > 0 && num <= den, "quantile must be in [0, 1]");
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((count as u128 * num as u128).div_ceil(den as u128) as u64).max(1);
        let mut cumulative = 0u64;
        for i in 0..BUCKETS {
            cumulative = cumulative.saturating_add(self.bucket_count(i));
            if cumulative >= rank {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(BUCKETS - 1)
    }
}

/// Append one Prometheus counter sample. `labels` is the rendered
/// inner label list (`verb="ping"`), possibly empty.
pub fn prom_counter(out: &mut String, name: &str, labels: &str, value: u64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Append a Prometheus histogram family: cumulative `_bucket` lines up
/// to the highest non-empty bound, a `+Inf` bucket, `_sum`, `_count`.
pub fn prom_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let counts = h.counts();
    let top = counts
        .iter()
        .take(BUCKETS - 1)
        .rposition(|&c| c > 0)
        .unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, &c) in counts.iter().enumerate().take(top + 1) {
        cumulative += c;
        let le = Histogram::bucket_bound(i).to_string();
        prom_bucket(out, name, labels, &le, cumulative);
    }
    prom_bucket(out, name, labels, "+Inf", h.count());
    prom_counter(out, &format!("{name}_sum"), labels, h.sum());
    prom_counter(out, &format!("{name}_count"), labels, h.count());
}

fn prom_bucket(out: &mut String, name: &str, labels: &str, le: &str, value: u64) {
    out.push_str(name);
    out.push_str("_bucket{");
    if !labels.is_empty() {
        out.push_str(labels);
        out.push(',');
    }
    out.push_str("le=\"");
    out.push_str(le);
    out.push_str("\"} ");
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Escape a label value per the Prometheus text format.
pub fn prom_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn bucket_boundaries_are_bit_lengths() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(255), 8);
        assert_eq!(Histogram::bucket_index(256), 9);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(1), 1);
        assert_eq!(Histogram::bucket_bound(2), 3);
        assert_eq!(Histogram::bucket_bound(9), 511);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
        // Every value sits in its bucket's half-open range.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 511, 512, 1 << 40, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_bound(i), "{v}");
            if i > 0 {
                assert!(v > Histogram::bucket_bound(i - 1), "{v}");
            }
        }
    }

    #[test]
    fn records_and_estimates() {
        let h = Histogram::new();
        for i in 1..=100u64 {
            h.record(i * 10);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 50_500);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1_000);
        // Exact median 500 lands in (255, 511]; exact p95 950 in
        // (511, 1023]: quantiles answer the bucket upper bound.
        assert_eq!(h.quantile(1, 2), 511);
        assert_eq!(h.quantile(19, 20), 1023);
        assert_eq!(
            h.quantile(0, 1),
            Histogram::bucket_bound(Histogram::bucket_index(10))
        );
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(1, 2), 0);
    }

    #[test]
    fn prom_rendering_is_cumulative_and_bounded() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(3);
        h.record(500);
        let mut out = String::new();
        prom_histogram(&mut out, "lat", "verb=\"x\"", &h);
        let expected = "\
lat_bucket{verb=\"x\",le=\"0\"} 2\n\
lat_bucket{verb=\"x\",le=\"1\"} 2\n\
lat_bucket{verb=\"x\",le=\"3\"} 3\n\
lat_bucket{verb=\"x\",le=\"7\"} 3\n\
lat_bucket{verb=\"x\",le=\"15\"} 3\n\
lat_bucket{verb=\"x\",le=\"31\"} 3\n\
lat_bucket{verb=\"x\",le=\"63\"} 3\n\
lat_bucket{verb=\"x\",le=\"127\"} 3\n\
lat_bucket{verb=\"x\",le=\"255\"} 3\n\
lat_bucket{verb=\"x\",le=\"511\"} 4\n\
lat_bucket{verb=\"x\",le=\"+Inf\"} 4\n\
lat_sum{verb=\"x\"} 503\n\
lat_count{verb=\"x\"} 4\n";
        assert_eq!(out, expected);
        let mut bare = String::new();
        prom_counter(&mut bare, "up", "", 1);
        assert_eq!(bare, "up 1\n");
        assert_eq!(prom_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
