//! xoshiro256++: the sampling workhorse.

use crate::splitmix::SplitMix64;

/// xoshiro256++ (Blackman & Vigna, "Scrambled linear pseudorandom number
/// generators", 2019). 256 bits of state, period 2²⁵⁶−1, all-purpose
/// 64-bit output — matching the public-domain C reference bit for bit
/// (see the known-answer test).
///
/// The sampling surface mirrors what the workspace previously used from
/// `rand`: [`gen_range`](Self::gen_range), [`gen_bool`](Self::gen_bool),
/// [`gen_f64`](Self::gen_f64), [`shuffle`](Self::shuffle),
/// [`choose`](Self::choose), and
/// [`choose_weighted`](Self::choose_weighted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed via SplitMix64, the construction the xoshiro authors
    /// recommend: any 64-bit seed (zero included) produces a good,
    /// non-degenerate state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self::from_state([sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()])
    }

    /// Generator from raw state. The state must not be all zero (the only
    /// fixed point of the underlying linear engine).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro256++ state must be non-zero"
        );
        Self { s }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw from `0..bound` without modulo bias (Lemire's
    /// widening-multiply rejection method). Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(bound);
            if m as u64 >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 random bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool probability {p}");
        self.gen_f64() < p
    }

    /// Uniform draw from a half-open integer range, e.g.
    /// `rng.gen_range(0..n)`. Panics on an empty range.
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Uniformly chosen element, `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.next_below(xs.len() as u64) as usize])
        }
    }

    /// Element chosen with probability proportional to `weight`. Weights
    /// must be finite and non-negative; `None` when the slice is empty or
    /// all weights are zero.
    pub fn choose_weighted<'a, T>(
        &mut self,
        xs: &'a [T],
        weight: impl Fn(&T) -> f64,
    ) -> Option<&'a T> {
        let total: f64 = xs
            .iter()
            .map(|x| {
                let w = weight(x);
                assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
                w
            })
            .sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.gen_f64() * total;
        for x in xs {
            let w = weight(x);
            if target < w {
                return Some(x);
            }
            target -= w;
        }
        // Floating-point slack put the target past the last positive
        // weight; return the last weighted element.
        xs.iter().rev().find(|x| weight(x) > 0.0)
    }

    /// Independent generator seeded from this stream — distinct streams
    /// for sub-tasks without sharing state.
    pub fn fork(&mut self) -> Self {
        let seed = self.next_u64();
        Self::seed_from_u64(seed)
    }
}

/// Integer ranges [`Xoshiro256pp::gen_range`] can sample uniformly.
pub trait UniformRange {
    /// The sampled value type.
    type Output;
    /// Draw uniformly from `self`.
    fn sample(self, rng: &mut Xoshiro256pp) -> Self::Output;
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Xoshiro256pp) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.next_below(span) as $t
            }
        }
    )*};
}
impl_uniform_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_signed {
    ($($t:ty),*) => {$(
        impl UniformRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Xoshiro256pp) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.next_below(span) as i128) as $t
            }
        }
    )*};
}
impl_uniform_signed!(i32, i64);

#[cfg(test)]
mod tests {
    use super::*;

    /// Output of the public-domain reference implementation for state
    /// `[1, 2, 3, 4]` (the vector rand_xoshiro also checks against).
    #[test]
    fn known_answer_reference_state() {
        let mut rng = Xoshiro256pp::from_state([1, 2, 3, 4]);
        let expected: [u64; 10] = [
            41_943_041,
            58_720_359,
            3_588_806_011_781_223,
            3_591_011_842_654_386,
            9_228_616_714_210_784_205,
            9_973_669_472_204_895_162,
            14_011_001_112_246_962_877,
            12_406_186_145_184_390_807,
            15_849_039_046_786_891_736,
            10_450_023_813_501_588_000,
        ];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(rng.next_u64(), e, "output {i}");
        }
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::seed_from_u64(7);
        let mut b = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256pp::seed_from_u64(8);
        assert_ne!(Xoshiro256pp::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn all_zero_state_rejected() {
        let _ = Xoshiro256pp::from_state([0; 4]);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_all_values() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..10);
            assert!((3..10).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached: {seen:?}");
        // Signed ranges too.
        for _ in 0..100 {
            let v = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits} ≈ 2500");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        for _ in 0..1000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = Xoshiro256pp::seed_from_u64(14);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            xs, sorted,
            "50 elements virtually never shuffle to identity"
        );
        // Same seed, same permutation.
        let mut rng2 = Xoshiro256pp::seed_from_u64(14);
        let mut ys: Vec<u32> = (0..50).collect();
        rng2.shuffle(&mut ys);
        assert_eq!(xs, ys);
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut rng = Xoshiro256pp::seed_from_u64(15);
        let items = [("never", 0.0), ("rare", 1.0), ("common", 9.0)];
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            let &(name, _) = rng.choose_weighted(&items, |&(_, w)| w).unwrap();
            let i = items.iter().position(|&(n, _)| n == name).unwrap();
            counts[i] += 1;
        }
        assert_eq!(counts[0], 0, "zero weight never drawn");
        assert!(counts[2] > counts[1] * 5, "{counts:?}");
        assert!(rng.choose_weighted(&[0.0f64; 3], |&w| w).is_none());
        assert!(rng.choose_weighted::<u8>(&[], |_| 1.0).is_none());
    }

    #[test]
    fn choose_covers_slice() {
        let mut rng = Xoshiro256pp::seed_from_u64(16);
        assert!(rng.choose::<u8>(&[]).is_none());
        let xs = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[*rng.choose(&xs).unwrap() as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn forked_streams_diverge() {
        let mut a = Xoshiro256pp::seed_from_u64(17);
        let mut b = a.fork();
        let first: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let second: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(first, second);
    }
}
