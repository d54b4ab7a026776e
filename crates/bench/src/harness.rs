//! In-tree micro-bench harness: the hermetic replacement for Criterion.
//!
//! A [`Bench`] groups labelled measurements. Each measurement warms the
//! closure up, then times `samples` individual invocations and keeps the
//! order statistics that matter for a trajectory (min / median / p95 /
//! mean). [`Bench::finish`] prints an aligned table and writes a
//! machine-readable `BENCH_<name>.json` next to the working directory so
//! successive PRs leave a diffable perf record.
//!
//! ```no_run
//! use sit_bench::harness::Bench;
//!
//! let mut b = Bench::new("closure");
//! b.run("containment_chain/25", || 2 + 2);
//! b.finish().unwrap();
//! ```

use std::hint::black_box;
use std::time::Instant;

/// Order statistics of one labelled measurement, in nanoseconds.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Label, by convention `operation/param`.
    pub label: String,
    /// Timed invocations behind the statistics.
    pub samples: u32,
    /// Fastest sample.
    pub min_ns: u64,
    /// Nearest-rank median.
    pub median_ns: u64,
    /// Nearest-rank 95th percentile.
    pub p95_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
}

/// A named group of measurements that lands in `BENCH_<name>.json`.
pub struct Bench {
    name: String,
    warmup: u32,
    samples: u32,
    results: Vec<Measurement>,
}

impl Bench {
    /// Harness writing `BENCH_<name>.json`, with default warmup (5) and
    /// sample (40) counts.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            warmup: 5,
            samples: 40,
            results: Vec::new(),
        }
    }

    /// Override warmup/sample counts (e.g. fewer samples for slow cases).
    pub fn with_counts(mut self, warmup: u32, samples: u32) -> Self {
        assert!(samples > 0);
        self.warmup = warmup;
        self.samples = samples;
        self
    }

    /// Measure `f`: warm up, then time `samples` single invocations.
    pub fn run<R>(&mut self, label: impl Into<String>, mut f: impl FnMut() -> R) {
        self.run_with_setup(label, || (), |()| f());
    }

    /// Measure `f` alone when each invocation needs fresh input that must
    /// not count toward the timing (Criterion's `iter_batched`).
    pub fn run_with_setup<S, R>(
        &mut self,
        label: impl Into<String>,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) {
        for _ in 0..self.warmup {
            black_box(f(setup()));
        }
        let mut ns: Vec<u64> = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            let out = f(input);
            let elapsed = start.elapsed();
            black_box(out);
            ns.push(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
        ns.sort_unstable();
        let nearest_rank = |q_num: usize, q_den: usize| {
            // Nearest-rank percentile on the sorted samples.
            let rank = (ns.len() * q_num).div_ceil(q_den);
            ns[rank.max(1) - 1]
        };
        let label = label.into();
        let m = Measurement {
            samples: self.samples,
            min_ns: ns[0],
            median_ns: nearest_rank(1, 2),
            p95_ns: nearest_rank(19, 20),
            mean_ns: (ns.iter().map(|&v| u128::from(v)).sum::<u128>() / ns.len() as u128) as u64,
            label,
        };
        self.results.push(m);
    }

    /// Print the result table and write `BENCH_<name>.json` (results
    /// sorted by label for stable diffs). Returns the JSON path.
    pub fn finish(mut self) -> std::io::Result<std::path::PathBuf> {
        self.results.sort_by(|a, b| a.label.cmp(&b.label));
        println!(
            "\n## bench {} ({} samples/label)\n",
            self.name, self.samples
        );
        let rows: Vec<Vec<String>> = self
            .results
            .iter()
            .map(|m| {
                vec![
                    m.label.clone(),
                    fmt_ns(m.min_ns),
                    fmt_ns(m.median_ns),
                    fmt_ns(m.p95_ns),
                    fmt_ns(m.mean_ns),
                ]
            })
            .collect();
        println!(
            "{}",
            crate::table(&["label", "min", "median", "p95", "mean"], &rows)
        );
        let path = std::path::PathBuf::from(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        println!("wrote {}", path.display());
        Ok(path)
    }

    /// The JSON document `finish` writes: fixed key order, one object per
    /// measurement.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"bench\": {},\n  \"results\": [\n",
            json_string(&self.name)
        ));
        for (i, m) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": {}, \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}, \"p95_ns\": {}, \"mean_ns\": {}}}{}\n",
                json_string(&m.label),
                m.samples,
                m.min_ns,
                m.median_ns,
                m.p95_ns,
                m.mean_ns,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Human-readable nanoseconds (the table column format).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// A JSON string literal with the escapes the repo's labels can need.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_orders_statistics() {
        let mut b = Bench::new("unit").with_counts(1, 9);
        let mut n = 0u64;
        b.run("spin", || {
            n = n.wrapping_add(1);
            std::hint::black_box((0..100u64).sum::<u64>())
        });
        let m = &b.results[0];
        assert_eq!(m.samples, 9);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.p95_ns);
        assert!(m.mean_ns >= m.min_ns && m.mean_ns <= m.p95_ns);
    }

    #[test]
    fn setup_not_timed_shape() {
        let mut b = Bench::new("unit").with_counts(0, 3);
        b.run_with_setup("vec", || vec![1u8; 16], |v| v.len());
        assert_eq!(b.results.len(), 1);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut b = Bench::new("unit").with_counts(0, 2);
        b.run("b/second", || 1);
        b.run("a/\"first\"", || 2);
        b.results.sort_by(|x, y| x.label.cmp(&y.label));
        let json = b.to_json();
        assert!(json.starts_with("{\n  \"bench\": \"unit\""));
        let a = json.find("a/\\\"first\\\"").expect("escaped label present");
        let b_pos = json.find("b/second").unwrap();
        assert!(a < b_pos, "sorted by label");
        assert!(json.contains("\"min_ns\":"));
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
