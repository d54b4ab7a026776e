//! Object classes: entity sets and categories.
//!
//! In the ECR model an *object class* is either an **entity set** (a
//! top-level classification of entities; entity sets within one schema are
//! disjoint) or a **category** (a named subset of the union of one or more
//! parent object classes, representing a subclass in a generalization
//! hierarchy). A category inherits the attributes of the object classes over
//! which it is defined and may add attributes of its own.

use crate::attribute::Attribute;
use crate::ids::{AttrId, ObjectId};

/// Distinguishes entity sets from categories. The paper's Structure
/// Information Collection Screen asks for `Type (E/C/R)`; `E` and `C` map
/// here, `R` maps to [`crate::RelationshipSet`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ObjectKind {
    /// A top-level entity set. Entity sets of one schema are pairwise
    /// disjoint ("a given entity can be a member of only one entity set").
    EntitySet,
    /// A category: a subset of the union of the listed parent object
    /// classes (entity sets or other categories).
    Category {
        /// The object classes over which the category is defined.
        parents: Vec<ObjectId>,
    },
}

impl ObjectKind {
    /// The one-letter tag used on the paper's screens (`e` or `c`).
    pub fn tag(&self) -> char {
        match self {
            ObjectKind::EntitySet => 'e',
            ObjectKind::Category { .. } => 'c',
        }
    }

    /// `true` for categories.
    pub fn is_category(&self) -> bool {
        matches!(self, ObjectKind::Category { .. })
    }
}

/// An entity set or category together with its *local* attributes
/// (a category's inherited attributes are its ancestors', not stored).
///
/// In a [`crate::Schema`] a category's parents precede it: every parent
/// id is smaller than the category's own, so ids are the IS-A order and
/// the IS-A graph has no cycle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ObjectClass {
    /// Name, unique among the schema's object classes.
    pub name: String,
    /// Entity set or category.
    pub kind: ObjectKind,
    /// Locally declared attributes.
    pub attributes: Vec<Attribute>,
}

impl ObjectClass {
    /// Create an entity set with no attributes.
    pub fn entity_set(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            kind: ObjectKind::EntitySet,
            attributes: Vec::new(),
        }
    }

    /// Create a category over `parents` with no local attributes.
    pub fn category(name: impl Into<String>, parents: Vec<ObjectId>) -> Self {
        Self {
            name: name.into(),
            kind: ObjectKind::Category { parents },
            attributes: Vec::new(),
        }
    }

    /// The category's parent ids (empty slice for entity sets).
    pub fn parents(&self) -> &[ObjectId] {
        match &self.kind {
            ObjectKind::EntitySet => &[],
            ObjectKind::Category { parents } => parents,
        }
    }

    /// Find a local attribute by name.
    pub fn attr_by_name(&self, name: &str) -> Option<(AttrId, &Attribute)> {
        self.attributes
            .iter()
            .enumerate()
            .find(|(_, a)| a.name == name)
            .map(|(i, a)| (AttrId::new(i as u32), a))
    }

    /// Local attribute lookup by id.
    pub fn attr(&self, id: AttrId) -> Option<&Attribute> {
        self.attributes.get(id.index())
    }

    /// Local key attributes.
    pub fn key_attrs(&self) -> impl Iterator<Item = (AttrId, &Attribute)> {
        self.attributes
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_key())
            .map(|(i, a)| (AttrId::new(i as u32), a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;

    #[test]
    fn entity_set_has_no_parents() {
        let e = ObjectClass::entity_set("Student");
        assert_eq!(e.kind.tag(), 'e');
        assert!(e.parents().is_empty());
        assert!(!e.kind.is_category());
    }

    #[test]
    fn category_tracks_parents() {
        let c = ObjectClass::category("Grad_student", vec![ObjectId::new(0)]);
        assert_eq!(c.kind.tag(), 'c');
        assert_eq!(c.parents(), &[ObjectId::new(0)]);
        assert!(c.kind.is_category());
    }

    #[test]
    fn attribute_lookup_by_name_and_id() {
        let mut o = ObjectClass::entity_set("Student");
        o.attributes.push(Attribute::key("Name", Domain::Char));
        o.attributes.push(Attribute::new("GPA", Domain::Real));
        let (id, a) = o.attr_by_name("GPA").unwrap();
        assert_eq!(id, AttrId::new(1));
        assert_eq!(a.domain, Domain::Real);
        assert!(o.attr_by_name("Nope").is_none());
        assert_eq!(o.attr(AttrId::new(0)).unwrap().name, "Name");
        assert_eq!(o.key_attrs().count(), 1);
    }
}
