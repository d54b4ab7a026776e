//! Seeded property tests for the histogram layer: bucket membership,
//! merge = union, and quantile/nearest-rank agreement.

use sit_obs::metrics::Histogram;
use sit_prng::{prop, prop_assert, prop_assert_eq};

fn draw_value(rng: &mut sit_prng::Xoshiro256pp) -> u64 {
    // Spread draws across magnitudes so every bucket band gets
    // exercised, not just the 64-bit top end.
    let bits = rng.gen_range(0u32..65);
    if bits == 0 {
        0
    } else {
        let lo = if bits == 1 { 1 } else { 1u64 << (bits - 1) };
        let hi = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        lo + rng.gen_range(0u64..(hi - lo + 1).max(1))
    }
}

#[test]
fn bucket_membership_invariant() {
    prop::check("bucket holds exactly its bit-length band", |rng| {
        let v = draw_value(rng);
        let i = Histogram::bucket_index(v);
        prop_assert!(v <= Histogram::bucket_bound(i), "{v} above bound of {i}");
        if i > 0 {
            prop_assert!(
                v > Histogram::bucket_bound(i - 1),
                "{v} not above bound of {}",
                i - 1
            );
        }
        Ok(())
    });
}

#[test]
fn merge_equals_union() {
    prop::check("merge(a, b) == histogram(a ∪ b)", |rng| {
        let a: Vec<u64> = (0..rng.gen_range(0usize..80))
            .map(|_| draw_value(rng))
            .collect();
        let b: Vec<u64> = (0..rng.gen_range(0usize..80))
            .map(|_| draw_value(rng))
            .collect();
        let (ha, hb, hu) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &v in &a {
            ha.record(v);
            hu.record(v);
        }
        for &v in &b {
            hb.record(v);
            hu.record(v);
        }
        ha.merge_from(&hb);
        prop_assert_eq!(ha.counts(), hu.counts());
        prop_assert_eq!(ha.count(), hu.count());
        prop_assert_eq!(ha.sum(), hu.sum());
        prop_assert_eq!(ha.min(), hu.min());
        prop_assert_eq!(ha.max(), hu.max());
        prop_assert_eq!(ha.quantile(1, 2), hu.quantile(1, 2));
        prop_assert_eq!(ha.quantile(19, 20), hu.quantile(19, 20));
        Ok(())
    });
}

#[test]
fn quantile_matches_nearest_rank_sample() {
    prop::check(
        "quantile = bucket bound of the nearest-rank sample",
        |rng| {
            let mut samples: Vec<u64> = (0..rng.gen_range(1usize..120))
                .map(|_| draw_value(rng))
                .collect();
            let h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            samples.sort_unstable();
            let n = samples.len();
            for (num, den) in [(1u32, 2u32), (19, 20), (1, 100), (1, 1)] {
                let rank = ((n * num as usize).div_ceil(den as usize)).max(1);
                let expected = Histogram::bucket_bound(Histogram::bucket_index(samples[rank - 1]));
                prop_assert_eq!(h.quantile(num, den), expected);
            }
            prop_assert_eq!(h.min(), samples[0]);
            prop_assert_eq!(h.max(), samples[n - 1]);
            Ok(())
        },
    );
}
