//! A seeded property-test runner: the in-tree replacement for the
//! external `proptest` suites.
//!
//! A property is a closure from a fresh [`Xoshiro256pp`] to
//! `Result<(), String>`; the closure draws whatever inputs it needs and
//! fails by returning an `Err` (usually via [`prop_assert!`](crate::prop_assert) /
//! [`prop_assert_eq!`](crate::prop_assert_eq)). The runner derives one
//! seed per case from a fixed base seed through [`SplitMix64`], so:
//!
//! * runs are fully deterministic — two consecutive `cargo test` runs
//!   execute byte-identical cases;
//! * a failure report names the *case seed*, and [`replay`] re-runs
//!   exactly that case under a debugger or with added logging.
//!
//! ```
//! use sit_prng::{prop, prop_assert};
//!
//! prop::check("addition commutes", |rng| {
//!     let (a, b) = (rng.gen_range(0u32..1000), rng.gen_range(0u32..1000));
//!     prop_assert!(a + b == b + a, "{a} + {b}");
//!     Ok(())
//! });
//! ```

use crate::{SplitMix64, Xoshiro256pp};

/// Outcome of one property case.
pub type CaseResult = Result<(), String>;

/// Default number of cases per property (matching the budget the
/// replaced proptest suites ran with).
pub const DEFAULT_CASES: u64 = 64;

/// Base seed from which per-case seeds are derived. Fixed so `cargo test`
/// is reproducible; failures report the derived per-case seed.
pub const DEFAULT_BASE_SEED: u64 = 0x5EED_1988_1CDE_0001;

/// Run `property` for [`DEFAULT_CASES`] derived cases; panics with the
/// case number and reproducing seed on the first failure.
pub fn check(name: &str, property: impl FnMut(&mut Xoshiro256pp) -> CaseResult) {
    check_cases(name, DEFAULT_CASES, property);
}

/// [`check`] with an explicit case count (for expensive properties).
pub fn check_cases(name: &str, cases: u64, property: impl FnMut(&mut Xoshiro256pp) -> CaseResult) {
    check_with(name, cases, DEFAULT_BASE_SEED, property);
}

/// Fully explicit runner: `cases` cases derived from `base_seed`.
pub fn check_with(
    name: &str,
    cases: u64,
    base_seed: u64,
    mut property: impl FnMut(&mut Xoshiro256pp) -> CaseResult,
) {
    let mut seeds = SplitMix64::new(base_seed);
    for case in 0..cases {
        let case_seed = seeds.next_u64();
        let mut rng = Xoshiro256pp::seed_from_u64(case_seed);
        if let Err(msg) = property(&mut rng) {
            panic!(
                "property `{name}` failed at case {case}/{cases}\n\
                 reproduce with: sit_prng::prop::replay({case_seed:#018x}, <property>)\n\
                 {msg}"
            );
        }
    }
}

/// Re-run a single case by the seed a failure report printed.
pub fn replay(
    case_seed: u64,
    mut property: impl FnMut(&mut Xoshiro256pp) -> CaseResult,
) -> CaseResult {
    property(&mut Xoshiro256pp::seed_from_u64(case_seed))
}

/// Fail the surrounding property case unless the condition holds.
///
/// Expands to an early `return Err(..)`, so it only works inside a
/// closure/function returning [`CaseResult`].
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($arg:tt)+) => {
        if !($cond) {
            return Err(format!($($arg)+));
        }
    };
}

/// Fail the surrounding property case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: `{} == {}`\n  left: {l:?}\n right: {r:?}",
                stringify!($left),
                stringify!($right),
            ));
        }
    }};
    ($left:expr, $right:expr, $($arg:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: `{} == {}`: {}\n  left: {l:?}\n right: {r:?}",
                stringify!($left),
                stringify!($right),
                format!($($arg)+),
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0u64;
        check_cases("counts cases", 10, |_| {
            ran += 1;
            Ok(())
        });
        assert_eq!(ran, 10);
    }

    #[test]
    fn case_seeds_are_stable_across_runs() {
        let collect = || {
            let mut inputs = Vec::new();
            check_cases("stable", 5, |rng| {
                inputs.push(rng.next_u64());
                Ok(())
            });
            inputs
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn failure_names_case_and_seed() {
        let err = std::panic::catch_unwind(|| {
            check_cases("always fails", 3, |rng| {
                let v = rng.gen_range(0u32..10);
                prop_assert!(false, "drew {v}");
                Ok(())
            });
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("`always fails` failed at case 0/3"), "{msg}");
        assert!(msg.contains("replay(0x"), "{msg}");
        assert!(msg.contains("drew "), "{msg}");
    }

    #[test]
    fn replay_reproduces_the_reported_case() {
        // The failure message embeds the seed; replaying it must fail the
        // same way while a passing property replays cleanly.
        let mut first_seed = None;
        check_cases("record seed", 1, |rng| {
            first_seed = Some(rng.next_u64());
            Ok(())
        });
        let mut seeds = SplitMix64::new(DEFAULT_BASE_SEED);
        let case_seed = seeds.next_u64();
        let replayed = replay(case_seed, |rng| {
            assert_eq!(Some(rng.next_u64()), first_seed);
            Ok(())
        });
        assert!(replayed.is_ok());
    }

    #[test]
    fn prop_assert_eq_reports_both_sides() {
        let r: CaseResult = (|| {
            prop_assert_eq!(1 + 1, 3, "math check");
            Ok(())
        })();
        let msg = r.expect_err("unequal");
        assert!(msg.contains("left: 2") && msg.contains("right: 3"), "{msg}");
        assert!(msg.contains("math check"), "{msg}");
    }
}
