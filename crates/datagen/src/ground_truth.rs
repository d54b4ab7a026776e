//! Ground truth for generated workloads: which elements truly correspond.
//!
//! Correspondences are recorded by *name* (schema-unique object names,
//! attribute names within their owner), so the truth survives the schemas
//! being registered in any session.

use sit_core::assertion::Assertion;

/// The true assertion between two object classes of a generated pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrueAssertion {
    /// Object name in the first schema.
    pub a: String,
    /// Object name in the second schema.
    pub b: String,
    /// The assertion that holds (`a (assertion) b`).
    pub assertion: Assertion,
}

/// Ground truth of one generated schema pair.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    /// True object-pair assertions (pairs not listed are unrelated:
    /// effectively disjoint non-integrable).
    pub assertions: Vec<TrueAssertion>,
    /// True attribute equivalences:
    /// `(object_a, attr_a, object_b, attr_b)`.
    pub attr_pairs: Vec<(String, String, String, String)>,
}

impl GroundTruth {
    /// The true assertion for an object pair, if the pair corresponds.
    pub fn assertion_for(&self, a: &str, b: &str) -> Option<Assertion> {
        for t in &self.assertions {
            if t.a == a && t.b == b {
                return Some(t.assertion);
            }
            if t.a == b && t.b == a {
                return Some(t.assertion.converse());
            }
        }
        None
    }

    /// Is the attribute pair truly equivalent?
    pub fn attrs_equivalent(&self, oa: &str, aa: &str, ob: &str, ab: &str) -> bool {
        self.attr_pairs.iter().any(|(o1, a1, o2, a2)| {
            (o1 == oa && a1 == aa && o2 == ob && a2 == ab)
                || (o1 == ob && a1 == ab && o2 == oa && a2 == aa)
        })
    }

    /// Number of truly corresponding object pairs.
    pub fn pair_count(&self) -> usize {
        self.assertions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_orientation_aware() {
        let gt = GroundTruth {
            assertions: vec![TrueAssertion {
                a: "Student".into(),
                b: "Grad".into(),
                assertion: Assertion::Contains,
            }],
            attr_pairs: vec![(
                "Student".into(),
                "name".into(),
                "Grad".into(),
                "full_name".into(),
            )],
        };
        assert_eq!(
            gt.assertion_for("Student", "Grad"),
            Some(Assertion::Contains)
        );
        assert_eq!(
            gt.assertion_for("Grad", "Student"),
            Some(Assertion::ContainedIn)
        );
        assert_eq!(gt.assertion_for("Student", "Ghost"), None);
        assert!(gt.attrs_equivalent("Student", "name", "Grad", "full_name"));
        assert!(gt.attrs_equivalent("Grad", "full_name", "Student", "name"));
        assert!(!gt.attrs_equivalent("Student", "name", "Grad", "gpa"));
        assert_eq!(gt.pair_count(), 1);
    }
}
