//! Order statistics, the response digest and the host-drift reference.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank quantile `q` (0..=1) of unsorted samples; `None` when
/// empty.
pub fn quantile(samples: &[u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median of floats (mean of the middle two for even counts).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over every response frame, in order, newline-separated: equal
/// digests mean byte-identical outputs.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one frame in.
    pub fn add(&mut self, frame: &str) {
        for &b in frame.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Milliseconds a fixed std-only loop (`HashMap` inserts and lookups)
/// takes. Recorded beside each run as context for host drift; it is no
/// metric and gates nothing.
pub fn reference_loop_ms() -> f64 {
    let started = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x, i);
    }
    let mut hits = 0u64;
    for k in 0..400_000u64 {
        if map.contains_key(&black_box(k.wrapping_mul(0x2545_F491_4F6C_DD1D))) {
            hits += 1;
        }
    }
    black_box(hits);
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
