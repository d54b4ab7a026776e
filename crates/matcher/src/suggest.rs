//! Attribute-equivalence suggestions: the matcher's output, shaped for a
//! DDA (or oracle) to accept or reject.
//!
//! The paper's tool makes the DDA declare every attribute equivalence by
//! hand; the future-work matcher narrows that to a review of ranked
//! proposals. [`suggest_equivalences`] scores every cross-schema attribute
//! pair between two schemas with the weighted resemblance and returns
//! those above a threshold, best first — exactly what the question-count
//! benchmark feeds to the noisy-oracle experiments.

use sit_core::catalog::{Catalog, GAttr};
use sit_ecr::SchemaId;

use crate::weighted::WeightedResemblance;

/// One proposed attribute equivalence.
#[derive(Clone, Debug, PartialEq)]
pub struct Suggestion {
    /// Attribute in the first schema.
    pub a: GAttr,
    /// Attribute in the second schema.
    pub b: GAttr,
    /// Weighted resemblance score in `[0, 1]`.
    pub score: f64,
}

/// Score all cross-schema attribute pairs between `sa` and `sb`; return
/// pairs scoring at least `threshold`, descending. Domain-incompatible
/// pairs are never suggested (they could not be declared anyway).
pub fn suggest_equivalences(
    catalog: &Catalog,
    w: &WeightedResemblance,
    sa: SchemaId,
    sb: SchemaId,
    threshold: f64,
) -> Vec<Suggestion> {
    let mut out = Vec::new();
    let attrs_a = catalog.attrs_of(sa);
    let attrs_b = catalog.attrs_of(sb);
    for &ga in &attrs_a {
        let Ok(a) = catalog.attr(ga) else { continue };
        for &gb in &attrs_b {
            let Ok(b) = catalog.attr(gb) else { continue };
            if !a.domain.compatible(&b.domain) {
                continue;
            }
            let score = w.attr_score(a, b);
            if score >= threshold {
                out.push(Suggestion {
                    a: ga,
                    b: gb,
                    score,
                });
            }
        }
    }
    out.sort_by(|l, r| {
        r.score
            .partial_cmp(&l.score)
            .expect("finite")
            .then((l.a, l.b).cmp(&(r.a, r.b)))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sit_core::session::Session;
    use sit_ecr::fixtures;

    #[test]
    fn suggests_the_paper_equivalences_first() {
        let mut s = Session::new();
        let sc1 = s.add_schema(fixtures::sc1()).unwrap();
        let sc2 = s.add_schema(fixtures::sc2()).unwrap();
        let w = WeightedResemblance::default();
        let suggestions = suggest_equivalences(s.catalog(), &w, sc1, sc2, 0.6);
        assert!(!suggestions.is_empty());
        // The top suggestions include the Name/Name and GPA/GPA pairs a
        // DDA would accept on Screen 7.
        let display = |g: GAttr| s.catalog().attr_display(g);
        let rendered: Vec<(String, String)> = suggestions
            .iter()
            .map(|sg| (display(sg.a), display(sg.b)))
            .collect();
        assert!(rendered.contains(&("sc1.Student.Name".into(), "sc2.Grad_student.Name".into())));
        assert!(rendered.contains(&("sc1.Student.GPA".into(), "sc2.Grad_student.GPA".into())));
        assert!(rendered.contains(&("sc1.Department.Dname".into(), "sc2.Department.Dname".into())));
        // Sorted descending.
        for w in suggestions.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn incompatible_domains_never_suggested() {
        let mut s = Session::new();
        let sc1 = s.add_schema(fixtures::sc1()).unwrap();
        let sc2 = s.add_schema(fixtures::sc2()).unwrap();
        let w = WeightedResemblance::default();
        // Even with a zero threshold, Name(char) vs GPA(real) is omitted.
        let suggestions = suggest_equivalences(s.catalog(), &w, sc1, sc2, 0.0);
        let name = s.catalog().attr_named("sc1", "Student", "Name").unwrap();
        let gpa = s
            .catalog()
            .attr_named("sc2", "Grad_student", "GPA")
            .unwrap();
        assert!(!suggestions.iter().any(|sg| sg.a == name && sg.b == gpa));
    }

    #[test]
    fn threshold_filters() {
        let mut s = Session::new();
        let sc1 = s.add_schema(fixtures::sc1()).unwrap();
        let sc2 = s.add_schema(fixtures::sc2()).unwrap();
        let w = WeightedResemblance::default();
        let lo = suggest_equivalences(s.catalog(), &w, sc1, sc2, 0.1).len();
        let hi = suggest_equivalences(s.catalog(), &w, sc1, sc2, 0.9).len();
        assert!(lo >= hi);
    }
}
