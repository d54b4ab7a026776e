//! DDA oracles — stand-ins for the live designer at the terminal.
//!
//! "Specifying assertions requires interacting with the DDA and cannot be
//! completely automated" (paper §3.4). For measurement we replace the
//! human with an oracle that answers the tool's two question types:
//! attribute equivalence (phase 2) and object-pair assertions (phase 3).

use sit_prng::Xoshiro256pp;

use sit_core::assertion::Assertion;

use crate::ground_truth::GroundTruth;

/// Answers the tool's questions during phases 2 and 3. Questions are posed
/// by element names (object/attribute names are schema-unique in generated
/// workloads).
pub trait DdaOracle {
    /// Phase 2: are these attributes equivalent?
    /// (`object_a.attr_a` of the first schema vs `object_b.attr_b` of the
    /// second.)
    fn attrs_equivalent(&mut self, oa: &str, aa: &str, ob: &str, ab: &str) -> bool;

    /// Phase 3: the assertion for an object pair. `None` means the DDA
    /// sees no relation worth asserting (the tool moves on).
    fn object_assertion(&mut self, a: &str, b: &str) -> Option<Assertion>;
}

/// Answers perfectly from ground truth.
#[derive(Clone, Debug)]
pub struct GroundTruthOracle<'a> {
    truth: &'a GroundTruth,
    /// Number of questions answered so far (both kinds) — the DDA-effort
    /// metric of the question-count benchmark.
    pub questions: usize,
}

impl<'a> GroundTruthOracle<'a> {
    /// Oracle over the given truth.
    pub fn new(truth: &'a GroundTruth) -> Self {
        Self {
            truth,
            questions: 0,
        }
    }
}

impl DdaOracle for GroundTruthOracle<'_> {
    fn attrs_equivalent(&mut self, oa: &str, aa: &str, ob: &str, ab: &str) -> bool {
        self.questions += 1;
        self.truth.attrs_equivalent(oa, aa, ob, ab)
    }

    fn object_assertion(&mut self, a: &str, b: &str) -> Option<Assertion> {
        self.questions += 1;
        self.truth.assertion_for(a, b)
    }
}

/// A fallible designer: wraps ground truth with an error rate. On an
/// attribute question, the answer flips with probability `error_rate`; on
/// an object question, a related pair is forgotten (answered `None`) with
/// the same probability. False *positive* assertions are not invented —
/// the model is an overlooked correspondence, the common real-world
/// failure.
#[derive(Clone, Debug)]
pub struct NoisyOracle<'a> {
    truth: &'a GroundTruth,
    rng: Xoshiro256pp,
    /// Probability of a wrong answer per question.
    pub error_rate: f64,
    /// Number of questions answered so far.
    pub questions: usize,
}

impl<'a> NoisyOracle<'a> {
    /// Noisy oracle with the given error rate and seed.
    pub fn new(truth: &'a GroundTruth, error_rate: f64, seed: u64) -> Self {
        Self {
            truth,
            rng: Xoshiro256pp::seed_from_u64(seed),
            error_rate,
            questions: 0,
        }
    }
}

impl DdaOracle for NoisyOracle<'_> {
    fn attrs_equivalent(&mut self, oa: &str, aa: &str, ob: &str, ab: &str) -> bool {
        self.questions += 1;
        let correct = self.truth.attrs_equivalent(oa, aa, ob, ab);
        if self.rng.gen_bool(self.error_rate) {
            !correct
        } else {
            correct
        }
    }

    fn object_assertion(&mut self, a: &str, b: &str) -> Option<Assertion> {
        self.questions += 1;
        let correct = self.truth.assertion_for(a, b);
        if correct.is_some() && self.rng.gen_bool(self.error_rate) {
            None
        } else {
            correct
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GeneratorConfig;

    #[test]
    fn ground_truth_oracle_counts_questions() {
        let pair = GeneratorConfig::default().generate_pair();
        let mut oracle = GroundTruthOracle::new(&pair.truth);
        let t = &pair.truth.assertions[0];
        assert_eq!(oracle.object_assertion(&t.a, &t.b), Some(t.assertion));
        assert_eq!(oracle.object_assertion(&t.a, "no_such_object"), None);
        assert_eq!(oracle.questions, 2);
    }

    #[test]
    fn noisy_oracle_with_zero_error_is_exact() {
        let pair = GeneratorConfig::default().generate_pair();
        let mut perfect = GroundTruthOracle::new(&pair.truth);
        let mut noisy = NoisyOracle::new(&pair.truth, 0.0, 1);
        for t in &pair.truth.assertions {
            assert_eq!(
                noisy.object_assertion(&t.a, &t.b),
                perfect.object_assertion(&t.a, &t.b)
            );
        }
    }

    #[test]
    fn noisy_oracle_forgets_at_full_error() {
        let pair = GeneratorConfig {
            overlap: 1.0,
            ..Default::default()
        }
        .generate_pair();
        let mut noisy = NoisyOracle::new(&pair.truth, 1.0, 2);
        for t in &pair.truth.assertions {
            assert_eq!(noisy.object_assertion(&t.a, &t.b), None, "forgotten");
        }
        // Attribute answers flip rather than vanish.
        let (oa, aa, ob, ab) = pair.truth.attr_pairs[0].clone();
        assert!(!noisy.attrs_equivalent(&oa, &aa, &ob, &ab));
    }
}
