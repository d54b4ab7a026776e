//! Attribute equivalence classes — the ACS (Attribute Class Similarity)
//! bookkeeping of phase 2.
//!
//! The paper (§3.3): the DDA walks pairs of object classes and declares
//! attributes equivalent; "An equivalence class consists of all the
//! attributes defined to be equivalent by the DDA", each attribute carries
//! an `Eq_class #`, and on merging "the tool changes the value of
//! `Eq_Class #` of one to that of the other". The class numbering here
//! reproduces Screen 7 exactly: attributes are numbered sequentially in
//! registration order (all of schema 1's attributes, then schema 2's, ...),
//! and a class displays the *smallest* member number.
//!
//! Equivalence is checked against the simplified [Larson et al 87] theory
//! the paper adopts: two attributes may only be declared equivalent when
//! their domains are compatible. Declarations must relate attributes of
//! *different* schemas (cross-schema correspondence is what integration
//! consumes); Screen 7 also supports removing an attribute from its class,
//! implemented here as [`EquivalenceRegistry::remove_from_class`].

use std::collections::HashMap;

use crate::catalog::{Catalog, GAttr};
use crate::error::{CoreError, Result};

/// The `Eq_class #` shown on Screen 7 (1-based).
pub type ClassNo = u32;

/// Registry of attribute equivalence classes over every attribute of every
/// registered schema.
#[derive(Clone, Debug, Default)]
pub struct EquivalenceRegistry {
    /// Registration order; index+1 is the attribute's original number.
    attrs: Vec<GAttr>,
    /// Attribute → its index in `attrs`.
    index: HashMap<GAttr, usize>,
    /// Attribute index → current class representative (an attribute index).
    class_of: Vec<usize>,
    /// Class representative → members (attribute indexes).
    members: HashMap<usize, Vec<usize>>,
}

impl EquivalenceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register every attribute of a schema (in the catalog's canonical
    /// order), each in its own singleton class. Called once per schema as
    /// it is added to the session.
    pub fn register_schema(&mut self, catalog: &Catalog, schema: sit_ecr::SchemaId) {
        for a in catalog.attrs_of(schema) {
            self.register(a);
        }
    }

    /// Register a single attribute (idempotent).
    pub fn register(&mut self, a: GAttr) -> ClassNo {
        if let Some(&i) = self.index.get(&a) {
            return self.class_no_of_index(i);
        }
        let i = self.attrs.len();
        self.attrs.push(a);
        self.index.insert(a, i);
        self.class_of.push(i);
        self.members.insert(i, vec![i]);
        (i + 1) as ClassNo
    }

    /// Number of registered attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Declare two attributes equivalent (merging their classes). Enforces
    /// the cross-schema rule and domain compatibility; both endpoints must
    /// already be registered.
    pub fn declare_equivalent(&mut self, catalog: &Catalog, a: GAttr, b: GAttr) -> Result<()> {
        let _span = sit_obs::trace::span("acs.declare_equivalent");
        if a.schema == b.schema {
            return Err(CoreError::SameSchemaEquivalence(format!(
                "{} ~ {}",
                catalog.attr_display(a),
                catalog.attr_display(b)
            )));
        }
        let da = catalog.attr(a)?;
        let db = catalog.attr(b)?;
        if !da.domain.compatible(&db.domain) {
            return Err(CoreError::IncompatibleDomains {
                a: catalog.attr_display(a),
                b: catalog.attr_display(b),
            });
        }
        let ia = self.require(a, catalog)?;
        let ib = self.require(b, catalog)?;
        self.merge(ia, ib);
        Ok(())
    }

    /// Move an attribute out of its class back into a fresh singleton
    /// class (Screen 7's `(D)elete from equiv. class`).
    pub fn remove_from_class(&mut self, a: GAttr) -> bool {
        let Some(&i) = self.index.get(&a) else {
            return false;
        };
        let rep = self.class_of[i];
        let members = self.members.get_mut(&rep).expect("class exists");
        if members.len() == 1 {
            return false; // already a singleton
        }
        members.retain(|&m| m != i);
        // If the removed member was the representative, re-root the class.
        if rep == i {
            let rest = self.members.remove(&rep).expect("class exists");
            let new_rep = *rest.iter().min().expect("non-empty");
            for &m in &rest {
                self.class_of[m] = new_rep;
            }
            self.members.insert(new_rep, rest);
        }
        self.class_of[i] = i;
        self.members.insert(i, vec![i]);
        true
    }

    /// Are the two attributes in the same class?
    pub fn equivalent(&self, a: GAttr, b: GAttr) -> bool {
        match (self.index.get(&a), self.index.get(&b)) {
            (Some(&ia), Some(&ib)) => self.class_of[ia] == self.class_of[ib],
            _ => false,
        }
    }

    /// The displayed `Eq_class #` of an attribute — the smallest member
    /// number of its class (1-based), matching Screen 7's behaviour.
    pub fn class_no(&self, a: GAttr) -> Option<ClassNo> {
        self.index.get(&a).map(|&i| self.class_no_of_index(i))
    }

    /// Every non-singleton class's members, read in place: no clone and
    /// no sort, so classes and members come in no particular order.
    pub fn class_walk(&self) -> impl Iterator<Item = impl Iterator<Item = GAttr> + '_> {
        self.class_lists()
            .map(|(_, ms)| ms.iter().map(|&m| self.attrs[m]))
    }

    /// Every non-singleton class, each as a sorted member list; classes
    /// ordered by their displayed number.
    pub fn classes(&self) -> Vec<(ClassNo, Vec<GAttr>)> {
        let mut out: Vec<(ClassNo, Vec<GAttr>)> = self
            .class_lists()
            .map(|(no, ms)| {
                let mut idxs = ms.to_vec();
                idxs.sort_unstable();
                (no, idxs.into_iter().map(|m| self.attrs[m]).collect())
            })
            .collect();
        out.sort_by_key(|(no, _)| *no);
        out
    }

    /// All registered attributes in registration order.
    pub fn attrs(&self) -> &[GAttr] {
        &self.attrs
    }

    fn require(&mut self, a: GAttr, catalog: &Catalog) -> Result<usize> {
        self.index
            .get(&a)
            .copied()
            .ok_or_else(|| CoreError::UnknownElement(catalog.attr_display(a)))
    }

    fn merge(&mut self, ia: usize, ib: usize) {
        let ra = self.class_of[ia];
        let rb = self.class_of[ib];
        if ra == rb {
            return;
        }
        // Merge into the class with the smaller representative so the
        // displayed number is stable ("changes the value of Eq_Class # of
        // one to that of the other" — the kept number is the earlier one).
        let (keep, drop) = if self.class_no_of_index(ra) <= self.class_no_of_index(rb) {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let moved = self.members.remove(&drop).expect("class exists");
        for &m in &moved {
            self.class_of[m] = keep;
        }
        self.members
            .get_mut(&keep)
            .expect("class exists")
            .extend(moved);
    }

    /// The non-singleton classes in place: each one's displayed number
    /// (its representative is its smallest member) and member indexes.
    fn class_lists(&self) -> impl Iterator<Item = (ClassNo, &[usize])> {
        self.members
            .iter()
            .filter(|(_, ms)| ms.len() > 1)
            .map(|(&rep, ms)| ((rep + 1) as ClassNo, ms.as_slice()))
    }

    fn class_no_of_index(&self, i: usize) -> ClassNo {
        // A class's representative is always its smallest member: a class
        // starts as a singleton, a merge keeps the representative of the
        // class with the smaller number, and a removal re-roots the class
        // at its smallest remaining member.
        let rep = self.class_of[i];
        debug_assert_eq!(self.members[&rep].iter().min(), Some(&rep));
        (rep + 1) as ClassNo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sit_ecr::fixtures;

    fn setup() -> (Catalog, EquivalenceRegistry) {
        let mut c = Catalog::new();
        let s1 = c.add(fixtures::sc1()).unwrap();
        let s2 = c.add(fixtures::sc2()).unwrap();
        let mut r = EquivalenceRegistry::new();
        r.register_schema(&c, s1);
        r.register_schema(&c, s2);
        (c, r)
    }

    fn at(c: &Catalog, s: &str, o: &str, a: &str) -> GAttr {
        c.attr_named(s, o, a).unwrap()
    }

    #[test]
    fn screen7_numbering_is_reproduced() {
        // sc1 attrs: Student.Name(1), Student.GPA(2), Department.Dname(3),
        // Majors.Since(4); sc2: Grad_student.Name(5), GPA(6),
        // Support_type(7), ...
        let (c, mut r) = setup();
        assert_eq!(r.class_no(at(&c, "sc1", "Student", "Name")), Some(1));
        assert_eq!(r.class_no(at(&c, "sc1", "Student", "GPA")), Some(2));
        assert_eq!(r.class_no(at(&c, "sc2", "Grad_student", "GPA")), Some(6));
        assert_eq!(
            r.class_no(at(&c, "sc2", "Grad_student", "Support_type")),
            Some(7)
        );
        // Declaring sc1.Student.Name ≡ sc2.Grad_student.Name renumbers the
        // latter to 1, exactly as Screen 7 shows.
        r.declare_equivalent(
            &c,
            at(&c, "sc1", "Student", "Name"),
            at(&c, "sc2", "Grad_student", "Name"),
        )
        .unwrap();
        assert_eq!(r.class_no(at(&c, "sc2", "Grad_student", "Name")), Some(1));
        assert_eq!(r.class_no(at(&c, "sc1", "Student", "Name")), Some(1));
    }

    #[test]
    fn section33_three_member_class() {
        // "an equivalence class consisting of sc1.Student.Name,
        //  sc2.Faculty.Name and sc2.Grad_student.Name"
        let (c, mut r) = setup();
        let s_name = at(&c, "sc1", "Student", "Name");
        let g_name = at(&c, "sc2", "Grad_student", "Name");
        let f_name = at(&c, "sc2", "Faculty", "Name");
        r.declare_equivalent(&c, s_name, g_name).unwrap();
        r.declare_equivalent(&c, s_name, f_name).unwrap();
        assert!(r.equivalent(g_name, f_name), "transitivity through merge");
        let classes = r.classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0], (1, vec![s_name, g_name, f_name]));
        assert_eq!(r.class_walk().count(), 1);
    }

    #[test]
    fn same_schema_declaration_rejected() {
        let (c, mut r) = setup();
        let err = r
            .declare_equivalent(
                &c,
                at(&c, "sc2", "Grad_student", "Name"),
                at(&c, "sc2", "Faculty", "Name"),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::SameSchemaEquivalence(_)));
    }

    #[test]
    fn incompatible_domains_rejected() {
        let (c, mut r) = setup();
        // Student.Name (char) vs Grad_student.GPA (real).
        let err = r
            .declare_equivalent(
                &c,
                at(&c, "sc1", "Student", "Name"),
                at(&c, "sc2", "Grad_student", "GPA"),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::IncompatibleDomains { .. }));
    }

    #[test]
    fn remove_from_class_restores_singleton() {
        let (c, mut r) = setup();
        let s_name = at(&c, "sc1", "Student", "Name");
        let g_name = at(&c, "sc2", "Grad_student", "Name");
        let f_name = at(&c, "sc2", "Faculty", "Name");
        r.declare_equivalent(&c, s_name, g_name).unwrap();
        r.declare_equivalent(&c, s_name, f_name).unwrap();
        assert!(r.remove_from_class(g_name));
        assert!(!r.equivalent(s_name, g_name));
        assert!(r.equivalent(s_name, f_name), "rest of the class survives");
        // Removed attribute regains its original number.
        assert_eq!(r.class_no(g_name), Some(5));
        assert!(!r.remove_from_class(g_name), "already a singleton");
    }

    #[test]
    fn removing_the_representative_reroots_the_class() {
        let (c, mut r) = setup();
        let s_name = at(&c, "sc1", "Student", "Name"); // number 1 = representative
        let g_name = at(&c, "sc2", "Grad_student", "Name");
        let f_name = at(&c, "sc2", "Faculty", "Name");
        r.declare_equivalent(&c, s_name, g_name).unwrap();
        r.declare_equivalent(&c, s_name, f_name).unwrap();
        assert!(r.remove_from_class(s_name));
        assert_eq!(r.class_no(s_name), Some(1));
        assert!(r.equivalent(g_name, f_name));
        // The surviving class now displays Grad_student.Name's number.
        assert_eq!(r.class_no(g_name), Some(5));
        assert_eq!(r.class_no(f_name), Some(5));
    }

    #[test]
    fn relationship_attributes_participate() {
        let (c, mut r) = setup();
        let since1 = at(&c, "sc1", "Majors", "Since");
        let since2 = at(&c, "sc2", "Majors", "Since");
        r.declare_equivalent(&c, since1, since2).unwrap();
        assert!(r.equivalent(since1, since2));
    }

    #[test]
    fn register_is_idempotent() {
        let (c, mut r) = setup();
        let n = r.len();
        let a = at(&c, "sc1", "Student", "Name");
        assert_eq!(r.register(a), 1);
        assert_eq!(r.len(), n);
    }

    #[test]
    fn merge_is_stable_under_declaration_order() {
        let (c, mut r1) = setup();
        let (_, mut r2) = setup();
        let s_name = at(&c, "sc1", "Student", "Name");
        let g_name = at(&c, "sc2", "Grad_student", "Name");
        let f_name = at(&c, "sc2", "Faculty", "Name");
        r1.declare_equivalent(&c, s_name, g_name).unwrap();
        r1.declare_equivalent(&c, s_name, f_name).unwrap();
        r2.declare_equivalent(&c, f_name, s_name).unwrap();
        r2.declare_equivalent(&c, g_name, s_name).unwrap();
        for a in [s_name, g_name, f_name] {
            assert_eq!(r1.class_no(a), r2.class_no(a));
            assert_eq!(r1.class_no(a), Some(1));
        }
    }
}
