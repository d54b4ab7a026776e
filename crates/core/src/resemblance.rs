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
//! Relationship sets carry attributes too, and main-menu task 5 ranks
//! their pairs the same way, so [`ocs_entry`] and [`ranked_pairs`] are
//! generic over [`Element`]: one body serves both kinds, and only the
//! span name (`ocs.ranked_pairs` or `ocs.ranked_rel_pairs`) tells them
//! apart. The dense [`ocs_matrix`] and [`ocs_sparse`] cover object
//! classes, the OCS matrix the paper names.

use sit_ecr::{AttrId, AttrOwner, SchemaId};

use crate::catalog::{Catalog, GAttr};
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

/// Number of equivalent attributes between two attribute owners: the count
/// of equivalence classes with at least one member in each owner.
fn equivalent_count(
    equiv: &EquivalenceRegistry,
    left: impl Iterator<Item = GAttr>,
    right_matches: impl Fn(GAttr) -> bool,
) -> usize {
    // For every attribute of the left owner, check whether its class has a
    // member in the right owner; count distinct classes. `counted_classes`
    // stays sorted so the dedup check is a binary search instead of a
    // linear scan per attribute.
    let mut counted_classes = Vec::new();
    let mut count = 0;
    for a in left {
        let Some(no) = equiv.class_no(a) else {
            continue;
        };
        let Err(insert_at) = counted_classes.binary_search(&no) else {
            continue;
        };
        if equiv.class_members(a).into_iter().any(&right_matches) {
            counted_classes.insert(insert_at, no);
            count += 1;
        }
    }
    count
}

/// OCS entry for a pair of object classes or relationship sets: the
/// number of equivalent attributes between them.
pub fn ocs_entry<E: Element>(catalog: &Catalog, equiv: &EquivalenceRegistry, a: E, b: E) -> usize {
    let (owner, schema) = (a.owner(), a.schema());
    let left = (0..catalog.schema(schema).owner_attrs(owner).len() as u32)
        .map(|i| GAttr::new(schema, owner, AttrId::new(i)));
    equivalent_count(equiv, left, |m| m.schema == b.schema() && m.owner == b.owner())
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
    let na = catalog.schema(sa).object_count();
    let nb = catalog.schema(sb).object_count();
    let mut m = vec![vec![0usize; nb]; na];
    for (i, a) in catalog.objects_of(sa).enumerate() {
        for (j, b) in catalog.objects_of(sb).enumerate() {
            m[i][j] = ocs_entry(catalog, equiv, a, b);
        }
    }
    m
}

/// Sparse OCS derivation: instead of scanning every object pair and
/// every attribute (the dense `ocs_matrix`), walk the non-singleton
/// equivalence classes once and credit each cross-schema owner pair —
/// `O(Σ |class|²)` instead of `O(|A|·|B|·attrs)`. Returns only the
/// non-zero entries. The `ocs` benchmark compares both derivations (the
/// ⚗ ablation of DESIGN.md §6.1); they agree by construction, which
/// `tests` verify.
pub fn ocs_sparse(
    equiv: &EquivalenceRegistry,
    sa: SchemaId,
    sb: SchemaId,
) -> std::collections::HashMap<(sit_ecr::ObjectId, sit_ecr::ObjectId), usize> {
    let _span = sit_obs::trace::span("ocs.sparse");
    let mut out = std::collections::HashMap::new();
    for (_, members) in equiv.classes() {
        // Distinct object owners per side contributed by this class.
        let mut left: Vec<sit_ecr::ObjectId> = Vec::new();
        let mut right: Vec<sit_ecr::ObjectId> = Vec::new();
        for m in members {
            if let AttrOwner::Object(o) = m.owner {
                if m.schema == sa && !left.contains(&o) {
                    left.push(o);
                } else if m.schema == sb && !right.contains(&o) {
                    right.push(o);
                }
            }
        }
        for &a in &left {
            for &b in &right {
                *out.entry((a, b)).or_insert(0) += 1;
            }
        }
    }
    out
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
    let mut out = Vec::new();
    for a in E::members(catalog, sa) {
        for b in E::members(catalog, sb) {
            let e = ocs_entry(catalog, equiv, a, b);
            if e == 0 {
                continue;
            }
            out.push(CandidatePair {
                left: a,
                right: b,
                equivalent: e,
                ratio: attribute_ratio(e, attr_count(a), attr_count(b)),
            });
        }
    }
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
    use crate::catalog::{GObj, GRel};
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
        r.declare_equivalent(&c, at("sc1", "Student", "Name"), at("sc2", "Grad_student", "Name"))
            .unwrap();
        r.declare_equivalent(&c, at("sc1", "Student", "GPA"), at("sc2", "Grad_student", "GPA"))
            .unwrap();
        r.declare_equivalent(&c, at("sc1", "Student", "Name"), at("sc2", "Faculty", "Name"))
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
        let o = |s: SchemaId, name: &str| {
            c.schema(s).object_by_name(name).unwrap().index()
        };
        assert_eq!(m[o(s1, "Student")][o(s2, "Grad_student")], 2);
        assert_eq!(m[o(s1, "Student")][o(s2, "Faculty")], 1);
        assert_eq!(m[o(s1, "Department")][o(s2, "Department")], 1);
        assert_eq!(m[o(s1, "Department")][o(s2, "Faculty")], 0);
    }

    #[test]
    fn sparse_and_dense_ocs_agree() {
        let (c, r, s1, s2) = setup();
        let dense = ocs_matrix(&c, &r, s1, s2);
        let sparse = ocs_sparse(&r, s1, s2);
        for (i, row) in dense.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                let key = (
                    sit_ecr::ObjectId::new(i as u32),
                    sit_ecr::ObjectId::new(j as u32),
                );
                assert_eq!(sparse.get(&key).copied().unwrap_or(0), v, "({i},{j})");
            }
        }
        // Sparse holds exactly the non-zero entries.
        let nonzero = dense.iter().flatten().filter(|&&v| v > 0).count();
        assert_eq!(sparse.len(), nonzero);
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
        r.declare_equivalent(&c, at("sc1", "Majors", "Since"), at("sc2", "Majors", "Since"))
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
            .add(
                sit_ecr::ddl::parse(
                    "schema a { entity X { p: char; q: char; } }",
                )
                .unwrap(),
            )
            .unwrap();
        let s2 = c
            .add(sit_ecr::ddl::parse("schema b { entity Y { r: char; } }").unwrap())
            .unwrap();
        let mut reg = EquivalenceRegistry::new();
        reg.register_schema(&c, s1);
        reg.register_schema(&c, s2);
        let at = |s: &str, o: &str, a: &str| c.attr_named(s, o, a).unwrap();
        reg.declare_equivalent(&c, at("a", "X", "p"), at("b", "Y", "r")).unwrap();
        // p and q cannot be declared equivalent (same schema); chain
        // through Y.r instead.
        reg.declare_equivalent(&c, at("a", "X", "q"), at("b", "Y", "r")).unwrap();
        let x: GObj = c.named("a", "X").unwrap();
        let y: GObj = c.named("b", "Y").unwrap();
        assert_eq!(ocs_entry(&c, &reg, x, y), 1, "one shared class");
        // Ratio from Y's side: 1/(1+1) = 0.5.
        let pairs = ranked_pairs::<GObj>(&c, &reg, s1, s2);
        assert!((pairs[0].ratio - 0.5).abs() < 1e-9);
    }
}
