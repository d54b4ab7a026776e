//! The two kinds of schema element that phases 2–4 relate: object
//! classes ([`GObj`]) and relationship sets ([`GRel`]).
//!
//! The paper handles relationship sets "in a manner similar to object
//! class integration" in every phase, and its main menu repeats the
//! equivalence and assertion tasks for them (tasks 4 and 5 after 2 and
//! 3). [`Element`] is everything the shared steps need to know about a
//! kind, so OCS ranking, assertions, session scripts, the server verbs,
//! the tool's assertion screens and phase 4's equals-merging and
//! attribute slots each have one body. What differs between the kinds
//! stays with its kind: the IS-A lattice of object classes, and the
//! participant legs of relationship sets.

use std::fmt;
use std::hash::Hash;

use sit_ecr::{AttrOwner, ObjectKind, Schema, SchemaId};

use crate::catalog::{Catalog, GObj, GRel};
use crate::closure::AssertionEngine;

/// An object class or a relationship set, qualified by its schema.
pub trait Element: Copy + Eq + Ord + Hash + fmt::Debug + fmt::Display {
    /// Span that times the ranking of this kind's candidate pairs.
    const RANK_SPAN: &'static str;
    /// Session-script directive asserting a pair of this kind.
    const DIRECTIVE: &'static str;
    /// How a `schema.Name` path of this kind is spelled, for errors.
    const PATH_HINT: &'static str;

    /// Owning schema.
    fn schema(self) -> SchemaId;

    /// The element as the owner of its attributes.
    fn owner(self) -> AttrOwner;

    /// The element of this kind owning attributes as `owner` in `schema`,
    /// if `owner` is of this kind (the inverse of [`Element::owner`]).
    fn from_owner(schema: SchemaId, owner: AttrOwner) -> Option<Self>;

    /// This kind's elements of one schema, in definition order.
    fn members(catalog: &Catalog, schema: SchemaId) -> impl Iterator<Item = Self> + '_;

    /// The element of this kind called `name` in `schema` (id `sid`).
    fn find(sid: SchemaId, schema: &Schema, name: &str) -> Option<Self>;

    /// Screen 12's `original type` letter: `E` for an entity set, `C`
    /// for a category, `R` for a relationship set.
    fn owner_letter(self, schema: &Schema) -> char;

    /// This kind's assertion engine among a session's engines.
    fn engine(engines: &Engines) -> &AssertionEngine<Self>;

    /// This kind's assertion engine, mutably.
    fn engine_mut(engines: &mut Engines) -> &mut AssertionEngine<Self>;
}

/// A session's assertion engines, one per element kind. A
/// [`Session`](crate::session::Session) never hands out its `Engines`, so
/// every change to its engines goes through its checks.
#[derive(Clone, Debug, Default)]
pub struct Engines {
    objects: AssertionEngine<GObj>,
    rels: AssertionEngine<GRel>,
}

impl Element for GObj {
    const RANK_SPAN: &'static str = "ocs.ranked_pairs";
    const DIRECTIVE: &'static str = "assert";
    const PATH_HINT: &'static str = "object paths are `schema.Object`";

    fn schema(self) -> SchemaId {
        self.schema
    }

    fn owner(self) -> AttrOwner {
        AttrOwner::Object(self.object)
    }

    fn from_owner(schema: SchemaId, owner: AttrOwner) -> Option<Self> {
        let AttrOwner::Object(o) = owner else {
            return None;
        };
        Some(GObj::new(schema, o))
    }

    fn members(catalog: &Catalog, schema: SchemaId) -> impl Iterator<Item = Self> + '_ {
        catalog.objects_of(schema)
    }

    fn find(sid: SchemaId, schema: &Schema, name: &str) -> Option<Self> {
        schema.object_by_name(name).map(|o| GObj::new(sid, o))
    }

    fn owner_letter(self, schema: &Schema) -> char {
        match schema.object(self.object).kind {
            ObjectKind::EntitySet => 'E',
            ObjectKind::Category { .. } => 'C',
        }
    }

    fn engine(engines: &Engines) -> &AssertionEngine<Self> {
        &engines.objects
    }

    fn engine_mut(engines: &mut Engines) -> &mut AssertionEngine<Self> {
        &mut engines.objects
    }
}

impl Element for GRel {
    const RANK_SPAN: &'static str = "ocs.ranked_rel_pairs";
    const DIRECTIVE: &'static str = "rel-assert";
    const PATH_HINT: &'static str = "relationship paths are `schema.Rel`";

    fn schema(self) -> SchemaId {
        self.schema
    }

    fn owner(self) -> AttrOwner {
        AttrOwner::Rel(self.rel)
    }

    fn from_owner(schema: SchemaId, owner: AttrOwner) -> Option<Self> {
        let AttrOwner::Rel(r) = owner else {
            return None;
        };
        Some(GRel::new(schema, r))
    }

    fn members(catalog: &Catalog, schema: SchemaId) -> impl Iterator<Item = Self> + '_ {
        catalog.rels_of(schema)
    }

    fn find(sid: SchemaId, schema: &Schema, name: &str) -> Option<Self> {
        schema.rel_by_name(name).map(|r| GRel::new(sid, r))
    }

    fn owner_letter(self, _schema: &Schema) -> char {
        'R'
    }

    fn engine(engines: &Engines) -> &AssertionEngine<Self> {
        &engines.rels
    }

    fn engine_mut(engines: &mut Engines) -> &mut AssertionEngine<Self> {
        &mut engines.rels
    }
}
