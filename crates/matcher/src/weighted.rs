//! Weighted multi-function resemblance (the SIS-style extension).
//!
//! "SIS [de Souza 86] describes several resemblance functions (such as 'to
//! have similar names' or 'to have identifiers with similar names'). Using
//! a weighted sum of products of several resemblance functions, pairs of
//! objects can be sorted according to their mutual resemblance. Our system
//! would benefit from having additional resemblance functions." (paper §4)
//!
//! [`WeightedResemblance`] scores an *attribute pair* from several
//! features — name similarity, synonym score, domain compatibility, key
//! agreement — and an *object pair* from its attributes' best matches plus
//! object-name similarity. The benchmark `heuristic_quality` compares this
//! richer function against the paper's plain attribute-ratio heuristic.

use sit_ecr::Attribute;

use crate::string_sim::name_similarity;
use crate::synonyms::SynonymDictionary;

/// Feature vector for one attribute pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttrPairFeatures {
    /// Composite string similarity of the attribute names.
    pub name: f64,
    /// Synonym-dictionary score of the names (0 on antonym veto).
    pub synonym: f64,
    /// 1.0 when the domains are compatible.
    pub domain: f64,
    /// 1.0 when the key flags agree.
    pub key: f64,
}

/// Weights of the resemblance features; they need not sum to one (scores
/// are normalized by the weight total).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResemblanceWeights {
    /// Weight of string name similarity.
    pub name: f64,
    /// Weight of the synonym score.
    pub synonym: f64,
    /// Weight of domain compatibility.
    pub domain: f64,
    /// Weight of key-flag agreement.
    pub key: f64,
    /// Weight of object-name similarity when scoring object pairs.
    pub object_name: f64,
}

impl Default for ResemblanceWeights {
    fn default() -> Self {
        // Name evidence dominates; domains and keys are weaker signals
        // (many attributes share `char`/non-key).
        Self {
            name: 4.0,
            synonym: 3.0,
            domain: 1.0,
            key: 1.0,
            object_name: 2.0,
        }
    }
}

/// A weighted-sum resemblance function over attribute and object pairs.
#[derive(Clone, Debug)]
pub struct WeightedResemblance {
    /// Feature weights.
    pub weights: ResemblanceWeights,
    /// Synonym dictionary consulted for the synonym feature.
    pub dictionary: SynonymDictionary,
}

impl Default for WeightedResemblance {
    fn default() -> Self {
        Self {
            weights: ResemblanceWeights::default(),
            dictionary: SynonymDictionary::builtin(),
        }
    }
}

impl WeightedResemblance {
    /// Extract the features of one attribute pair.
    pub fn features(&self, a: &Attribute, b: &Attribute) -> AttrPairFeatures {
        AttrPairFeatures {
            name: name_similarity(&a.name, &b.name),
            synonym: self.dictionary.name_score(&a.name, &b.name),
            domain: if a.domain.compatible(&b.domain) {
                1.0
            } else {
                0.0
            },
            key: if a.is_key() == b.is_key() { 1.0 } else { 0.0 },
        }
    }

    /// Score one attribute pair in `[0, 1]`. An antonym veto (synonym
    /// score 0 with high name similarity) is NOT special-cased here; the
    /// dictionary already zeroes its own feature.
    pub fn attr_score(&self, a: &Attribute, b: &Attribute) -> f64 {
        let f = self.features(a, b);
        let w = &self.weights;
        let total = w.name + w.synonym + w.domain + w.key;
        if total == 0.0 {
            return 0.0;
        }
        (w.name * f.name + w.synonym * f.synonym + w.domain * f.domain + w.key * f.key) / total
    }

    /// Score an object pair: the average best-match score of the smaller
    /// side's attributes (a soft version of the paper's attribute ratio),
    /// blended with object-name similarity by `object_name` weight.
    pub fn object_score(
        &self,
        name_a: &str,
        attrs_a: &[Attribute],
        name_b: &str,
        attrs_b: &[Attribute],
    ) -> f64 {
        let (small, large) = if attrs_a.len() <= attrs_b.len() {
            (attrs_a, attrs_b)
        } else {
            (attrs_b, attrs_a)
        };
        let attr_part = if small.is_empty() {
            0.0
        } else {
            small
                .iter()
                .map(|a| {
                    large
                        .iter()
                        .map(|b| self.attr_score(a, b))
                        .fold(0.0f64, f64::max)
                })
                .sum::<f64>()
                / small.len() as f64
        };
        let name_part =
            name_similarity(name_a, name_b).max(self.dictionary.name_score(name_a, name_b));
        let w = &self.weights;
        let attr_weight = w.name + w.synonym + w.domain + w.key;
        let total = attr_weight + w.object_name;
        if total == 0.0 {
            return 0.0;
        }
        (attr_weight * attr_part + w.object_name * name_part) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sit_ecr::Domain;

    fn attr(name: &str, domain: Domain, key: bool) -> Attribute {
        if key {
            Attribute::key(name, domain)
        } else {
            Attribute::new(name, domain)
        }
    }

    #[test]
    fn identical_attributes_score_one() {
        let w = WeightedResemblance::default();
        let a = attr("Name", Domain::Char, true);
        assert!((w.attr_score(&a, &a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scores_are_in_unit_interval_and_symmetric() {
        let w = WeightedResemblance::default();
        let samples = [
            attr("Name", Domain::Char, true),
            attr("dept_no", Domain::Int, false),
            attr("DeptNum", Domain::Int, false),
            attr("salary", Domain::Real, false),
            attr("wage", Domain::Real, false),
        ];
        for a in &samples {
            for b in &samples {
                let ab = w.attr_score(a, b);
                let ba = w.attr_score(b, a);
                assert!((0.0..=1.0).contains(&ab), "{ab}");
                assert!((ab - ba).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn synonyms_outscore_strangers() {
        let w = WeightedResemblance::default();
        let salary = attr("salary", Domain::Real, false);
        let wage = attr("wage", Domain::Real, false);
        let office = attr("office", Domain::Char, false);
        assert!(w.attr_score(&salary, &wage) > w.attr_score(&salary, &office));
    }

    #[test]
    fn antonym_veto_suppresses_lookalikes() {
        let w = WeightedResemblance::default();
        let min = attr("min_salary", Domain::Real, false);
        let max = attr("max_salary", Domain::Real, false);
        let same = attr("min_salary", Domain::Real, false);
        assert!(w.attr_score(&min, &max) < w.attr_score(&min, &same));
    }

    #[test]
    fn object_score_blends_names_and_attributes() {
        let w = WeightedResemblance::default();
        let dept_a = [
            attr("dname", Domain::Char, true),
            attr("budget", Domain::Real, false),
        ];
        let dept_b = [
            attr("dept_name", Domain::Char, true),
            attr("budget", Domain::Real, false),
        ];
        let project = [attr("pname", Domain::Char, true)];
        let s_match = w.object_score("Department", &dept_a, "Dept", &dept_b);
        let s_miss = w.object_score("Department", &dept_a, "Project", &project);
        assert!(s_match > s_miss, "{s_match} vs {s_miss}");
        assert!(s_match > 0.6);
        // Empty attribute lists degrade to name-only evidence.
        let s_empty = w.object_score("Department", &[], "Dept", &[]);
        assert!(s_empty > 0.0);
    }
}
