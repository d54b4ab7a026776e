//! The OCS matrix, the resemblance (attribute-ratio) function, and the
//! ranked candidate list of Screen 8.
//!
//! From the paper (§3.3–§3.4): "Upon exiting this phase, the tool derives an
//! Object Class Similarity (OCS) matrix from the ACS matrix, where each
//! element of the matrix specifies the number of equivalent attributes
//! between two objects. ... The first \[screen\] is the Assertion Collection
//! For Object Pairs, which presents ordered object pairs and an attribute
//! ratio for each pair that specifies
//! `(# of equivalent attributes) / (# of equivalent attributes + # of
//! attributes in the smaller object class)`. Thus a value of 0.5 ...
//! specifies that every attribute in one object class has an equivalent
//! attribute in the other object class."
//!
//! An OCS entry counts the equivalence classes with a member in both
//! elements, so one walk over the registry's classes derives every
//! non-zero entry at once. That walk is generic over [`Element`]:
//! relationship sets carry attributes too, and main-menu task 5 ranks
//! their pairs the same way, so [`ranked_pairs`] has one body for both
//! kinds and only its span name (`ocs.ranked_pairs` or
//! `ocs.ranked_rel_pairs`) tells them apart. [`ocs_matrix`] lays the
//! same walk out densely over object classes, the OCS matrix the paper
//! names.

use sit_ecr::SchemaId;

use crate::catalog::{Catalog, GObj};
use crate::element::Element;
use crate::equivalence::EquivalenceRegistry;

/// A candidate pair with its resemblance, as one row of Screen 8.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidatePair<N> {
    /// Object (or relationship set) from the first schema.
    pub left: N,
    /// Object (or relationship set) from the second schema.
    pub right: N,
    /// Number of equivalent attributes (the OCS entry).
    pub equivalent: usize,
    /// The paper's attribute ratio.
    pub ratio: f64,
}

/// The non-zero OCS entries between `sa`'s and `sb`'s elements of one
/// kind, as `(left, right, equivalent)` in pair order. Each non-singleton
/// class credits one to every pair of a distinct `sa` element and a
/// distinct `sb` element among its members' owners. A schema against
/// itself has no cross-schema pairs, so no entries.
fn ocs_entries<E: Element>(
    equiv: &EquivalenceRegistry,
    sa: SchemaId,
    sb: SchemaId,
) -> Vec<(E, E, usize)> {
    let (mut credits, mut left, mut right) = (Vec::new(), Vec::new(), Vec::new());
    for members in equiv.class_walk() {
        left.clear();
        right.clear();
        for m in members {
            let side = match m.schema {
                s if s == sa => &mut left,
                s if s == sb => &mut right,
                _ => continue,
            };
            match E::from_owner(m.schema, m.owner) {
                Some(e) if !side.contains(&e) => side.push(e),
                _ => {}
            }
        }
        for &l in &left {
            credits.extend(right.iter().map(|&r| (l, r)));
        }
    }
    credits.sort_unstable();
    let mut entries: Vec<(E, E, usize)> = Vec::new();
    for (l, r) in credits {
        match entries.last_mut() {
            Some((pl, pr, n)) if (*pl, *pr) == (l, r) => *n += 1,
            _ => entries.push((l, r, 1)),
        }
    }
    entries
}

/// The full OCS matrix between two schemas' object classes:
/// `matrix[i][j]` = number of equivalent attributes between object `i` of
/// `sa` and object `j` of `sb`.
pub fn ocs_matrix(
    catalog: &Catalog,
    equiv: &EquivalenceRegistry,
    sa: SchemaId,
    sb: SchemaId,
) -> Vec<Vec<usize>> {
    let _span = sit_obs::trace::span("ocs.matrix");
    let nb = catalog.schema(sb).object_count();
    let mut m = vec![vec![0usize; nb]; catalog.schema(sa).object_count()];
    for (a, b, n) in ocs_entries::<GObj>(equiv, sa, sb) {
        m[a.object.index()][b.object.index()] = n;
    }
    m
}

/// The paper's attribute ratio:
/// `equiv / (equiv + min(|attrs(a)|, |attrs(b)|))`, with `0.0` for
/// attribute-less pairs.
pub fn attribute_ratio(equivalent: usize, attrs_a: usize, attrs_b: usize) -> f64 {
    let smaller = attrs_a.min(attrs_b);
    let denom = equivalent + smaller;
    if denom == 0 {
        0.0
    } else {
        equivalent as f64 / denom as f64
    }
}

/// The ranked pair list of Screen 8 (and of main-menu task 5 for
/// relationship sets): all cross-schema pairs with at least one
/// equivalent attribute, ordered by descending attribute ratio (ties
/// broken by the dotted display names — the heuristic "the higher the
/// percentage of equivalent attributes ... the more likely they are to be
/// integrated with stronger assertions").
pub fn ranked_pairs<E: Element>(
    catalog: &Catalog,
    equiv: &EquivalenceRegistry,
    sa: SchemaId,
    sb: SchemaId,
) -> Vec<CandidatePair<E>> {
    let _span = sit_obs::trace::span(E::RANK_SPAN);
    let attr_count = |e: E| catalog.schema(e.schema()).owner_attrs(e.owner()).len();
    let mut out: Vec<CandidatePair<E>> = ocs_entries(equiv, sa, sb)
        .into_iter()
        .map(|(a, b, e)| CandidatePair {
            left: a,
            right: b,
            equivalent: e,
            ratio: attribute_ratio(e, attr_count(a), attr_count(b)),
        })
        .collect();
    out.sort_by(|l, r| {
        r.ratio
            .partial_cmp(&l.ratio)
            .expect("ratios are finite")
            .then_with(|| {
                (catalog.display(l.left), catalog.display(l.right))
                    .cmp(&(catalog.display(r.left), catalog.display(r.right)))
            })
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::GRel;
    use sit_ecr::fixtures;

    /// Catalog + equivalences matching Screen 8's state: Name and GPA of
    /// Student/Grad_student equivalent, Dname≡Dname, Student.Name ≡
    /// Faculty.Name.
    fn setup() -> (Catalog, EquivalenceRegistry, SchemaId, SchemaId) {
        let mut c = Catalog::new();
        let s1 = c.add(fixtures::sc1()).unwrap();
        let s2 = c.add(fixtures::sc2()).unwrap();
        let mut r = EquivalenceRegistry::new();
        r.register_schema(&c, s1);
        r.register_schema(&c, s2);
        let at = |s: &str, o: &str, a: &str| c.attr_named(s, o, a).unwrap();
        r.declare_equivalent(
            &c,
            at("sc1", "Student", "Name"),
            at("sc2", "Grad_student", "Name"),
        )
        .unwrap();
        r.declare_equivalent(
            &c,
            at("sc1", "Student", "GPA"),
            at("sc2", "Grad_student", "GPA"),
        )
        .unwrap();
        r.declare_equivalent(
            &c,
            at("sc1", "Student", "Name"),
            at("sc2", "Faculty", "Name"),
        )
        .unwrap();
        r.declare_equivalent(
            &c,
            at("sc1", "Department", "Dname"),
            at("sc2", "Department", "Dname"),
        )
        .unwrap();
        (c, r, s1, s2)
    }

    #[test]
    fn screen8_ratios_reproduced() {
        // Screen 8: sc1.Department/sc2.Department 0.5000,
        // sc1.Student/sc2.Grad_student 0.5000,
        // sc1.Student/sc2.Faculty 0.3333.
        let (c, r, s1, s2) = setup();
        let pairs: Vec<CandidatePair<GObj>> = ranked_pairs(&c, &r, s1, s2);
        let row = |o1: &str, o2: &str| {
            pairs
                .iter()
                .find(|p| {
                    c.display(p.left) == format!("sc1.{o1}")
                        && c.display(p.right) == format!("sc2.{o2}")
                })
                .unwrap_or_else(|| panic!("missing row {o1}/{o2}"))
        };
        assert!((row("Department", "Department").ratio - 0.5).abs() < 1e-9);
        assert!((row("Student", "Grad_student").ratio - 0.5).abs() < 1e-9);
        assert!((row("Student", "Faculty").ratio - 1.0 / 3.0).abs() < 1e-9);
        // Ordering: the two 0.5 rows precede the 0.3333 row.
        assert!(pairs[0].ratio >= pairs[1].ratio);
        assert!(pairs[1].ratio > pairs[2].ratio);
        assert_eq!(pairs.len(), 3, "pairs with zero resemblance are omitted");
    }

    #[test]
    fn ocs_matrix_counts_equivalent_attributes() {
        let (c, r, s1, s2) = setup();
        let m = ocs_matrix(&c, &r, s1, s2);
        let o = |s: SchemaId, name: &str| c.schema(s).object_by_name(name).unwrap().index();
        assert_eq!(m[o(s1, "Student")][o(s2, "Grad_student")], 2);
        assert_eq!(m[o(s1, "Student")][o(s2, "Faculty")], 1);
        assert_eq!(m[o(s1, "Department")][o(s2, "Department")], 1);
        assert_eq!(m[o(s1, "Department")][o(s2, "Faculty")], 0);
    }

    #[test]
    fn ranked_pairs_and_ocs_matrix_agree() {
        let (c, r, s1, s2) = setup();
        let dense = ocs_matrix(&c, &r, s1, s2);
        let ranked = ranked_pairs::<GObj>(&c, &r, s1, s2);
        for p in &ranked {
            assert_eq!(
                dense[p.left.object.index()][p.right.object.index()],
                p.equivalent
            );
        }
        // The ranking holds exactly the non-zero entries.
        let nonzero = dense.iter().flatten().filter(|&&v| v > 0).count();
        assert_eq!(ranked.len(), nonzero);
    }

    #[test]
    fn a_schema_against_itself_has_no_pairs() {
        let (c, r, s1, _) = setup();
        assert!(ranked_pairs::<GObj>(&c, &r, s1, s1).is_empty());
        assert!(ranked_pairs::<GRel>(&c, &r, s1, s1).is_empty());
        assert!(ocs_matrix(&c, &r, s1, s1).iter().flatten().all(|&v| v == 0));
    }

    #[test]
    fn attribute_ratio_edge_cases() {
        assert_eq!(attribute_ratio(0, 0, 0), 0.0);
        assert_eq!(attribute_ratio(0, 3, 5), 0.0);
        // Every attribute of the smaller class matched → 0.5.
        assert!((attribute_ratio(2, 2, 7) - 0.5).abs() < 1e-9);
        assert!((attribute_ratio(1, 2, 3) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn relationship_pairs_ranked() {
        let (c, mut r, s1, s2) = setup();
        let at = |s: &str, o: &str, a: &str| c.attr_named(s, o, a).unwrap();
        r.declare_equivalent(
            &c,
            at("sc1", "Majors", "Since"),
            at("sc2", "Majors", "Since"),
        )
        .unwrap();
        let pairs: Vec<CandidatePair<GRel>> = ranked_pairs(&c, &r, s1, s2);
        assert_eq!(pairs.len(), 1);
        assert_eq!(c.display(pairs[0].left), "sc1.Majors");
        assert_eq!(c.display(pairs[0].right), "sc2.Majors");
        assert!((pairs[0].ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn multiple_attrs_in_one_class_counted_once() {
        // Put two attributes of the same left object into one class with a
        // right attribute; the OCS entry counts the class once.
        let mut c = Catalog::new();
        let s1 = c
            .add(sit_ecr::ddl::parse("schema a { entity X { p: char; q: char; } }").unwrap())
            .unwrap();
        let s2 = c
            .add(sit_ecr::ddl::parse("schema b { entity Y { r: char; } }").unwrap())
            .unwrap();
        let mut reg = EquivalenceRegistry::new();
        reg.register_schema(&c, s1);
        reg.register_schema(&c, s2);
        let at = |s: &str, o: &str, a: &str| c.attr_named(s, o, a).unwrap();
        reg.declare_equivalent(&c, at("a", "X", "p"), at("b", "Y", "r"))
            .unwrap();
        // p and q cannot be declared equivalent (same schema); chain
        // through Y.r instead.
        reg.declare_equivalent(&c, at("a", "X", "q"), at("b", "Y", "r"))
            .unwrap();
        let x: GObj = c.named("a", "X").unwrap();
        let y: GObj = c.named("b", "Y").unwrap();
        let m = ocs_matrix(&c, &reg, s1, s2);
        assert_eq!(m[x.object.index()][y.object.index()], 1, "one shared class");
        // Ratio from Y's side: 1/(1+1) = 0.5.
        let pairs = ranked_pairs::<GObj>(&c, &reg, s1, s2);
        assert_eq!(pairs[0].equivalent, 1, "one shared class");
        assert!((pairs[0].ratio - 0.5).abs() < 1e-9);
    }
}
