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

use sit_ecr::{AttrId, AttrOwner};

use crate::catalog::{Catalog, GAttr};
use crate::error::{CoreError, Result};

/// The `Eq_class #` shown on Screen 7 (1-based).
pub type ClassNo = u32;

/// Registry of attribute equivalence classes over every attribute of every
/// registered schema.
///
/// Everything is dense over the registration order: an attribute's index
/// is its position in `attrs`, found from its schema's owner offsets, and
/// a class is listed only once it has two or more members.
#[derive(Clone, Debug, Default)]
pub struct EquivalenceRegistry {
    /// Registration order; index+1 is the attribute's original number.
    attrs: Vec<GAttr>,
    /// Per schema id, where its attributes sit in `attrs`.
    schemas: Vec<Slots>,
    /// Attribute index → current class representative (an attribute index).
    class_of: Vec<usize>,
    /// Class representative → members (attribute indexes), for a class
    /// of two or more; empty for singletons and non-representatives.
    members: Vec<Vec<usize>>,
}

/// Where one registered schema's attributes sit in the registration
/// order.
#[derive(Clone, Debug, Default)]
struct Slots {
    /// Index of each owner's first attribute — object classes, then
    /// relationship sets — and one past the schema's last. Empty while
    /// the schema is not registered.
    starts: Vec<usize>,
    /// Number of object classes: relationship set `r` is owner
    /// `objects + r`.
    objects: usize,
}

impl EquivalenceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register every attribute of a schema (in the catalog's canonical
    /// order, see [`Catalog::attrs_of`]), each in its own singleton
    /// class. Called once per schema as it is added to the session; a
    /// second call for the same schema changes nothing.
    pub fn register_schema(&mut self, catalog: &Catalog, schema: sit_ecr::SchemaId) {
        if self.schemas.len() <= schema.index() {
            self.schemas.resize_with(schema.index() + 1, Slots::default);
        }
        if !self.schemas[schema.index()].starts.is_empty() {
            return;
        }
        let s = catalog.schema(schema);
        let owners = s
            .object_ids()
            .map(AttrOwner::Object)
            .chain(s.rel_ids().map(AttrOwner::Rel));
        let mut starts = Vec::with_capacity(s.object_count() + s.relationship_count() + 1);
        for owner in owners {
            starts.push(self.attrs.len());
            let count = s.owner_attrs(owner).len() as u32;
            self.attrs
                .extend((0..count).map(|i| GAttr::new(schema, owner, AttrId::new(i))));
        }
        starts.push(self.attrs.len());
        let n = self.attrs.len();
        self.class_of.extend(self.class_of.len()..n);
        self.members.resize_with(n, Vec::new);
        self.schemas[schema.index()] = Slots {
            starts,
            objects: s.object_count(),
        };
    }

    /// Index of a registered attribute in the registration order.
    fn index(&self, a: GAttr) -> Option<usize> {
        let slots = self.schemas.get(a.schema.index())?;
        let owner = match a.owner {
            AttrOwner::Object(o) if o.index() < slots.objects => o.index(),
            AttrOwner::Object(_) => return None,
            AttrOwner::Rel(r) => slots.objects + r.index(),
        };
        let (&start, &end) = (slots.starts.get(owner)?, slots.starts.get(owner + 1)?);
        let i = start + a.attr.index();
        (i < end).then_some(i)
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
        let Some(i) = self.index(a) else {
            return false;
        };
        let rep = self.class_of[i];
        if self.members[rep].is_empty() {
            return false; // already a singleton
        }
        let mut rest = std::mem::take(&mut self.members[rep]);
        rest.retain(|&m| m != i);
        self.class_of[i] = i;
        // The rest re-roots at its smallest member: `rep` itself, unless
        // the removed member was the representative.
        let new_rep = *rest.iter().min().expect("a class of two or more");
        for &m in &rest {
            self.class_of[m] = new_rep;
        }
        // A class left with one member is a singleton again.
        if rest.len() > 1 {
            self.members[new_rep] = rest;
        }
        true
    }

    /// Are the two attributes in the same class?
    pub fn equivalent(&self, a: GAttr, b: GAttr) -> bool {
        match (self.index(a), self.index(b)) {
            (Some(ia), Some(ib)) => self.class_of[ia] == self.class_of[ib],
            _ => false,
        }
    }

    /// The displayed `Eq_class #` of an attribute — the smallest member
    /// number of its class (1-based), matching Screen 7's behaviour.
    pub fn class_no(&self, a: GAttr) -> Option<ClassNo> {
        self.index(a).map(|i| self.class_no_of_index(i))
    }

    /// Every non-singleton class's members, read in place: no clone and
    /// no sort, so classes and members come in no promised order.
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
        self.index(a)
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
        let mut moved = std::mem::take(&mut self.members[drop]);
        if moved.is_empty() {
            moved.push(drop);
        }
        for &m in &moved {
            self.class_of[m] = keep;
        }
        let members = &mut self.members[keep];
        if members.is_empty() {
            members.push(keep);
        }
        members.extend(moved);
    }

    /// The non-singleton classes in place: each one's displayed number
    /// (its representative is its smallest member) and member indexes.
    fn class_lists(&self) -> impl Iterator<Item = (ClassNo, &[usize])> {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, ms)| !ms.is_empty())
            .map(|(rep, ms)| ((rep + 1) as ClassNo, ms.as_slice()))
    }

    fn class_no_of_index(&self, i: usize) -> ClassNo {
        // A class's representative is always its smallest member: a class
        // starts as a singleton, a merge keeps the representative of the
        // class with the smaller number, and a removal re-roots the class
        // at its smallest remaining member.
        let rep = self.class_of[i];
        debug_assert!(self.members[rep].iter().all(|&m| m >= rep));
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
        r.register_schema(&c, c.by_name("sc1").unwrap());
        assert_eq!(r.len(), n);
        assert_eq!(r.class_no(at(&c, "sc1", "Student", "Name")), Some(1));
        // Registration order is the catalog's canonical order.
        let order: Vec<GAttr> = c.schemas().flat_map(|(s, _)| c.attrs_of(s)).collect();
        assert_eq!(r.attrs(), order);
        for (i, &a) in order.iter().enumerate() {
            assert_eq!(r.class_no(a), Some(i as ClassNo + 1));
        }
    }

    #[test]
    fn unregistered_and_out_of_range_attributes_are_unknown() {
        let (c, r) = setup();
        let name = at(&c, "sc1", "Student", "Name");
        let ghosts = [
            GAttr::new(sit_ecr::SchemaId::new(7), name.owner, name.attr),
            GAttr::new(name.schema, name.owner, AttrId::new(99)),
            GAttr::new(
                name.schema,
                AttrOwner::Object(sit_ecr::ObjectId::new(99)),
                name.attr,
            ),
            GAttr::new(
                name.schema,
                AttrOwner::Rel(sit_ecr::RelId::new(99)),
                name.attr,
            ),
        ];
        for ghost in ghosts {
            assert_eq!(r.class_no(ghost), None, "{ghost:?}");
            assert!(!r.equivalent(ghost, name));
        }
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
