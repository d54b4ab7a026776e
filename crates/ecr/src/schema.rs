//! The [`Schema`] container and its [`SchemaBuilder`].
//!
//! A schema is a named collection of object classes (entity sets and
//! categories) and relationship sets. It corresponds to one *component
//! schema* of the paper (a user view in the logical-design context, or an
//! existing database schema in the global-design context), and also to the
//! *integrated schema* produced by phase 4 — `sit-core` emits a plain
//! [`Schema`] plus mapping metadata.

use crate::attribute::Attribute;
use crate::domain::Domain;
use crate::error::{EcrError, Result};
use crate::ids::{AttrId, ObjectId, RelId};
use crate::object::{ObjectClass, ObjectKind};
use crate::relationship::{Cardinality, Participant, RelationshipSet};
use crate::validate;

/// Identifies the owner of an attribute — either an object class or a
/// relationship set. Attribute equivalence (phase 2) is declared separately
/// for the two kinds, matching the paper's main-menu split (tasks 2 and 4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AttrOwner {
    /// Attribute of an object class.
    Object(ObjectId),
    /// Attribute of a relationship set.
    Rel(RelId),
}

/// A complete ECR schema.
#[derive(Clone, PartialEq, Debug)]
pub struct Schema {
    name: String,
    objects: Vec<ObjectClass>,
    relationships: Vec<RelationshipSet>,
    /// Object indexes sorted by name, for lookup by binary search.
    object_index: Vec<u32>,
    /// Relationship indexes sorted by name.
    rel_index: Vec<u32>,
}

impl Schema {
    /// Schema name (e.g. `sc1`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Give back the spare capacity that building one push at a time
    /// leaves in the element and attribute lists, about a third of a
    /// parsed paper-scale schema's heap. A parsed schema may be shared
    /// by many sessions for as long as the service runs.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.objects.shrink_to_fit();
        self.relationships.shrink_to_fit();
        for o in &mut self.objects {
            o.attributes.shrink_to_fit();
        }
        for r in &mut self.relationships {
            r.participants.shrink_to_fit();
            r.attributes.shrink_to_fit();
        }
    }

    /// Number of object classes (entity sets + categories).
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Number of relationship sets.
    pub fn relationship_count(&self) -> usize {
        self.relationships.len()
    }

    /// Object class by id.
    pub fn object(&self, id: ObjectId) -> &ObjectClass {
        &self.objects[id.index()]
    }

    /// Object class by id, if in range.
    pub fn try_object(&self, id: ObjectId) -> Option<&ObjectClass> {
        self.objects.get(id.index())
    }

    /// Relationship set by id.
    pub fn relationship(&self, id: RelId) -> &RelationshipSet {
        &self.relationships[id.index()]
    }

    /// Relationship set by id, if in range.
    pub fn try_relationship(&self, id: RelId) -> Option<&RelationshipSet> {
        self.relationships.get(id.index())
    }

    /// Look up an object class by name.
    pub fn object_by_name(&self, name: &str) -> Option<ObjectId> {
        lookup(&self.object_index, name, |i| &self.objects[i].name).map(ObjectId::new)
    }

    /// Look up a relationship set by name.
    pub fn rel_by_name(&self, name: &str) -> Option<RelId> {
        lookup(&self.rel_index, name, |i| &self.relationships[i].name).map(RelId::new)
    }

    /// All object ids in name order.
    pub fn object_ids_by_name(&self) -> impl ExactSizeIterator<Item = ObjectId> + Clone + '_ {
        self.object_index.iter().map(|&i| ObjectId::new(i))
    }

    /// All relationship ids in name order.
    pub fn rel_ids_by_name(&self) -> impl ExactSizeIterator<Item = RelId> + Clone + '_ {
        self.rel_index.iter().map(|&i| RelId::new(i))
    }

    /// All object ids in definition order.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> {
        (0..self.objects.len() as u32).map(ObjectId::new)
    }

    /// All relationship ids in definition order.
    pub fn rel_ids(&self) -> impl Iterator<Item = RelId> {
        (0..self.relationships.len() as u32).map(RelId::new)
    }

    /// Iterate `(id, object)` pairs.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, &ObjectClass)> {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId::new(i as u32), o))
    }

    /// Iterate `(id, relationship set)` pairs.
    pub fn relationships(&self) -> impl Iterator<Item = (RelId, &RelationshipSet)> {
        self.relationships
            .iter()
            .enumerate()
            .map(|(i, r)| (RelId::new(i as u32), r))
    }

    /// Entity sets only.
    pub fn entity_sets(&self) -> impl Iterator<Item = (ObjectId, &ObjectClass)> {
        self.objects()
            .filter(|(_, o)| matches!(o.kind, ObjectKind::EntitySet))
    }

    /// Categories only.
    pub fn categories(&self) -> impl Iterator<Item = (ObjectId, &ObjectClass)> {
        self.objects().filter(|(_, o)| o.kind.is_category())
    }

    /// Attribute lookup through an [`AttrOwner`].
    pub fn attr_of(&self, owner: AttrOwner, attr: AttrId) -> Option<&Attribute> {
        match owner {
            AttrOwner::Object(o) => self.try_object(o)?.attr(attr),
            AttrOwner::Rel(r) => self.try_relationship(r)?.attr(attr),
        }
    }

    /// Name of an attribute owner.
    pub fn owner_name(&self, owner: AttrOwner) -> Option<&str> {
        match owner {
            AttrOwner::Object(o) => self.try_object(o).map(|x| x.name.as_str()),
            AttrOwner::Rel(r) => self.try_relationship(r).map(|x| x.name.as_str()),
        }
    }

    /// Local attributes of an owner.
    pub fn owner_attrs(&self, owner: AttrOwner) -> &[Attribute] {
        match owner {
            AttrOwner::Object(o) => &self.object(o).attributes,
            AttrOwner::Rel(r) => &self.relationship(r).attributes,
        }
    }

    /// Direct children of `object` in the IS-A graph — the categories
    /// defined (partly) over it.
    pub fn children_of(&self, object: ObjectId) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects()
            .filter(move |(_, o)| o.parents().contains(&object))
            .map(|(id, _)| id)
    }

    /// Consume and decompose into raw parts, for in-place editing (the
    /// tool's "update" menu options re-enter schema collection on an
    /// existing schema).
    pub fn into_parts(self) -> (String, Vec<ObjectClass>, Vec<RelationshipSet>) {
        (self.name, self.objects, self.relationships)
    }

    /// Reassemble from parts; recomputes the name indexes and re-validates.
    /// As in [`SchemaBuilder::category`], every category must follow its
    /// parents in `objects`, or validation reports
    /// [`crate::Violation::ParentNotBefore`].
    pub fn from_parts(
        name: String,
        objects: Vec<ObjectClass>,
        relationships: Vec<RelationshipSet>,
    ) -> Result<Schema> {
        let mut b = SchemaBuilder::new(name);
        b.objects = objects;
        b.relationships = relationships;
        b.build()
    }
}

/// Step-by-step construction of a [`Schema`], mirroring the paper's Schema
/// Collection screens: structures first, then attributes, then participants.
#[derive(Clone, Debug)]
pub struct SchemaBuilder {
    name: String,
    pub(crate) objects: Vec<ObjectClass>,
    pub(crate) relationships: Vec<RelationshipSet>,
}

impl SchemaBuilder {
    /// Start a schema with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            objects: Vec::new(),
            relationships: Vec::new(),
        }
    }

    /// Begin an entity set; finish with [`ObjectBuilder::finish`].
    pub fn entity_set(&mut self, name: impl Into<String>) -> ObjectBuilder<'_> {
        self.objects.push(ObjectClass::entity_set(name));
        ObjectBuilder { b: self }
    }

    /// Begin a category over already-defined parents: each parent's id
    /// must be smaller than the category's, so a schema's object ids are
    /// its IS-A order. `build` reports a later parent as
    /// [`crate::Violation::ParentNotBefore`].
    pub fn category(
        &mut self,
        name: impl Into<String>,
        parents: Vec<ObjectId>,
    ) -> ObjectBuilder<'_> {
        self.objects.push(ObjectClass::category(name, parents));
        ObjectBuilder { b: self }
    }

    /// Begin a category, naming its parents.
    pub fn category_of(
        &mut self,
        name: impl Into<String>,
        parent_names: &[&str],
    ) -> Result<ObjectBuilder<'_>> {
        let mut parents = Vec::with_capacity(parent_names.len());
        for p in parent_names {
            parents.push(
                self.object_by_name(p)
                    .ok_or_else(|| EcrError::UnknownName((*p).to_owned()))?,
            );
        }
        Ok(self.category(name, parents))
    }

    /// Begin a relationship set; add participants then `finish()`.
    pub fn relationship(&mut self, name: impl Into<String>) -> RelBuilder<'_> {
        self.relationships.push(RelationshipSet::new(name));
        RelBuilder { b: self }
    }

    /// Make room for `objects` more object classes and `relationships`
    /// more relationship sets, so a builder told its final size up front
    /// allocates each list once.
    pub fn reserve(&mut self, objects: usize, relationships: usize) {
        self.objects.reserve_exact(objects);
        self.relationships.reserve_exact(relationships);
    }

    /// The object classes added so far, in definition order (their index
    /// is the [`ObjectId`] they will carry after `build`).
    pub fn pending_objects(&self) -> &[ObjectClass] {
        &self.objects
    }

    /// The relationship sets added so far, in definition order.
    pub fn pending_relationships(&self) -> &[RelationshipSet] {
        &self.relationships
    }

    /// Resolve an already-added object class by name.
    pub fn object_by_name(&self, name: &str) -> Option<ObjectId> {
        self.objects
            .iter()
            .position(|o| o.name == name)
            .map(|i| ObjectId::new(i as u32))
    }

    /// Validate and freeze.
    pub fn build(self) -> Result<Schema> {
        let object_index =
            name_index(&self.objects, |o| &o.name).map_err(|name| EcrError::DuplicateName {
                name: name.to_owned(),
                kind: "object class",
            })?;
        let rel_index = name_index(&self.relationships, |r| &r.name).map_err(|name| {
            EcrError::DuplicateName {
                name: name.to_owned(),
                kind: "relationship set",
            }
        })?;
        let schema = Schema {
            name: self.name,
            objects: self.objects,
            relationships: self.relationships,
            object_index,
            rel_index,
        };
        let violations = validate::validate(&schema);
        if violations.is_empty() {
            Ok(schema)
        } else {
            Err(EcrError::Invalid(violations))
        }
    }
}

/// The indexes of `items` sorted by name, or the first name repeated in
/// definition order.
fn name_index<T>(items: &[T], name: impl Fn(&T) -> &str) -> std::result::Result<Vec<u32>, &str> {
    let mut index: Vec<u32> = (0..items.len() as u32).collect();
    // Stable: equal names keep definition order, so in each run of equal
    // names the second is that name's first repeat.
    index.sort_by(|&a, &b| name(&items[a as usize]).cmp(name(&items[b as usize])));
    let first_repeat = index
        .windows(2)
        .filter(|w| name(&items[w[0] as usize]) == name(&items[w[1] as usize]))
        .map(|w| w[1])
        .min();
    match first_repeat {
        Some(i) => Err(name(&items[i as usize])),
        None => Ok(index),
    }
}

/// Binary search of a [`name_index`] for `target`.
fn lookup<'s>(index: &[u32], target: &str, name: impl Fn(usize) -> &'s String) -> Option<u32> {
    index
        .binary_search_by(|&i| name(i as usize).as_str().cmp(target))
        .ok()
        .map(|k| index[k])
}

/// Fluent attribute addition for the object class under construction.
pub struct ObjectBuilder<'a> {
    b: &'a mut SchemaBuilder,
}

impl ObjectBuilder<'_> {
    fn current(&mut self) -> &mut ObjectClass {
        self.b
            .objects
            .last_mut()
            .expect("ObjectBuilder exists only after a push")
    }

    /// Make room for exactly `n` more attributes.
    pub fn reserve_attrs(mut self, n: usize) -> Self {
        self.current().attributes.reserve_exact(n);
        self
    }

    /// The attributes added so far.
    pub fn attributes(&self) -> &[Attribute] {
        &self.b.objects[self.b.objects.len() - 1].attributes
    }

    /// Add a non-key attribute.
    pub fn attr(mut self, name: impl Into<String>, domain: Domain) -> Self {
        self.current().attributes.push(Attribute::new(name, domain));
        self
    }

    /// Add a key attribute.
    pub fn attr_key(mut self, name: impl Into<String>, domain: Domain) -> Self {
        self.current().attributes.push(Attribute::key(name, domain));
        self
    }

    /// Finish, returning the new object's id.
    pub fn finish(self) -> ObjectId {
        ObjectId::new((self.b.objects.len() - 1) as u32)
    }
}

/// Fluent construction of the relationship set being added.
pub struct RelBuilder<'a> {
    b: &'a mut SchemaBuilder,
}

impl RelBuilder<'_> {
    /// Read access to the underlying schema builder (for name resolution
    /// while participants are being added).
    pub fn builder(&self) -> &SchemaBuilder {
        self.b
    }

    fn current(&mut self) -> &mut RelationshipSet {
        self.b
            .relationships
            .last_mut()
            .expect("RelBuilder exists only after a push")
    }

    /// Make room for exactly `n` more participants.
    pub fn reserve_participants(mut self, n: usize) -> Self {
        self.current().participants.reserve_exact(n);
        self
    }

    /// Make room for exactly `n` more attributes.
    pub fn reserve_attrs(mut self, n: usize) -> Self {
        self.current().attributes.reserve_exact(n);
        self
    }

    /// The attributes added so far.
    pub fn attributes(&self) -> &[Attribute] {
        &self.b.relationships[self.b.relationships.len() - 1].attributes
    }

    /// Add a participating object class with its structural constraint.
    pub fn participant(mut self, object: ObjectId, cardinality: Cardinality) -> Self {
        self.current()
            .participants
            .push(Participant::new(object, cardinality));
        self
    }

    /// Add a participant with a role name.
    pub fn participant_role(
        mut self,
        object: ObjectId,
        cardinality: Cardinality,
        role: impl Into<String>,
    ) -> Self {
        self.current()
            .participants
            .push(Participant::with_role(object, cardinality, role));
        self
    }

    /// Add a non-key attribute to the relationship itself.
    pub fn attr(mut self, name: impl Into<String>, domain: Domain) -> Self {
        self.current().attributes.push(Attribute::new(name, domain));
        self
    }

    /// Add a key attribute to the relationship itself.
    pub fn attr_key(mut self, name: impl Into<String>, domain: Domain) -> Self {
        self.current().attributes.push(Attribute::key(name, domain));
        self
    }

    /// Finish, returning the new relationship set's id.
    pub fn finish(self) -> RelId {
        RelId::new((self.b.relationships.len() - 1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        let mut b = SchemaBuilder::new("sc1");
        let student = b
            .entity_set("Student")
            .attr_key("Name", Domain::Char)
            .attr("GPA", Domain::Real)
            .finish();
        let dept = b
            .entity_set("Department")
            .attr_key("Dname", Domain::Char)
            .finish();
        b.category_of("Honors", &["Student"])
            .unwrap()
            .attr("Thesis", Domain::Char)
            .finish();
        b.relationship("Majors")
            .participant(student, Cardinality::AT_MOST_ONE)
            .participant(dept, Cardinality::MANY)
            .attr("Since", Domain::Date)
            .finish();
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_consistent_schema() {
        let s = sample();
        assert_eq!(s.name(), "sc1");
        assert_eq!(s.object_count(), 3);
        assert_eq!(s.relationship_count(), 1);
        assert_eq!(s.entity_sets().count(), 2);
        assert_eq!(s.categories().count(), 1);
    }

    #[test]
    fn lookups_by_name() {
        let s = sample();
        let student = s.object_by_name("Student").unwrap();
        assert_eq!(s.object(student).name, "Student");
        assert!(s.object_by_name("Nope").is_none());
        let majors = s.rel_by_name("Majors").unwrap();
        assert_eq!(s.relationship(majors).degree(), 2);
        let honors = s.object_by_name("Honors").unwrap();
        assert_eq!(s.children_of(student).collect::<Vec<_>>(), vec![honors]);
        let names: Vec<&str> = s
            .object_ids_by_name()
            .map(|o| s.object(o).name.as_str())
            .collect();
        assert_eq!(names, ["Department", "Honors", "Student"]);
        assert_eq!(s.rel_ids_by_name().collect::<Vec<_>>(), vec![majors]);
    }

    #[test]
    fn attr_owner_access() {
        let s = sample();
        let student = s.object_by_name("Student").unwrap();
        let a = s
            .attr_of(AttrOwner::Object(student), AttrId::new(0))
            .unwrap();
        assert_eq!(a.name, "Name");
        assert!(a.is_key());
        let majors = s.rel_by_name("Majors").unwrap();
        let since = s.attr_of(AttrOwner::Rel(majors), AttrId::new(0)).unwrap();
        assert_eq!(since.name, "Since");
        assert_eq!(s.owner_name(AttrOwner::Object(student)), Some("Student"));
        assert_eq!(s.owner_name(AttrOwner::Rel(majors)), Some("Majors"));
        assert_eq!(s.owner_attrs(AttrOwner::Rel(majors)).len(), 1);
    }

    #[test]
    fn duplicate_object_name_rejected() {
        let mut b = SchemaBuilder::new("bad");
        b.entity_set("X").finish();
        b.entity_set("X").finish();
        assert!(matches!(
            b.build(),
            Err(EcrError::DuplicateName {
                kind: "object class",
                ..
            })
        ));
    }

    #[test]
    fn duplicates_report_the_first_repeat_in_definition_order() {
        // `Z` sorts last but repeats first; `A` repeats later, twice.
        let mut b = SchemaBuilder::new("bad");
        for name in ["Z", "A", "Z", "A", "A"] {
            b.entity_set(name).finish();
        }
        assert!(matches!(
            b.build(),
            Err(EcrError::DuplicateName { name, .. }) if name == "Z"
        ));

        // Without repeats, every name resolves to its definition index.
        let mut b = SchemaBuilder::new("ok");
        let names = ["m", "B", "a", "Zz", "b", "_"];
        for name in names {
            b.entity_set(name).finish();
        }
        let s = b.build().unwrap();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(s.object_by_name(name), Some(ObjectId::new(i as u32)));
        }
        assert_eq!(s.object_by_name("c"), None);
        assert_eq!(s.rel_by_name("m"), None);
    }

    #[test]
    fn duplicate_relationship_name_rejected() {
        let mut b = SchemaBuilder::new("bad");
        let x = b.entity_set("X").finish();
        let y = b.entity_set("Y").finish();
        b.relationship("R")
            .participant(x, Cardinality::MANY)
            .participant(y, Cardinality::MANY)
            .finish();
        b.relationship("R")
            .participant(x, Cardinality::MANY)
            .participant(y, Cardinality::MANY)
            .finish();
        assert!(matches!(
            b.build(),
            Err(EcrError::DuplicateName {
                kind: "relationship set",
                ..
            })
        ));
    }

    #[test]
    fn unknown_parent_name_rejected() {
        let mut b = SchemaBuilder::new("bad");
        b.entity_set("X").finish();
        assert!(matches!(
            b.category_of("C", &["Missing"]),
            Err(EcrError::UnknownName(_))
        ));
    }

    #[test]
    fn parts_roundtrip() {
        let s = sample();
        let copy = s.clone();
        let (name, objs, rels) = s.into_parts();
        let back = Schema::from_parts(name, objs, rels).unwrap();
        assert_eq!(back, copy);
    }
}
