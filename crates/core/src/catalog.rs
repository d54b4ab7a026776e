//! The catalog of component schemas registered in an integration session,
//! and globally qualified element references.
//!
//! Phase 1 of the methodology ("schema collection") ends with a set of named
//! component schemas. The catalog holds them, assigns [`SchemaId`]s, and
//! resolves the `schema.object.attribute` dotted names the tool's screens
//! use. A schema is immutable once registered, so the catalog holds it
//! behind an [`Arc`]: sessions over the same component schemas can share
//! one copy, and cloning a catalog bumps reference counts.

use std::fmt;
use std::sync::Arc;

use sit_ecr::{AttrId, AttrOwner, Attribute, ObjectId, RelId, Schema, SchemaId};

use crate::element::Element;
use crate::error::{CoreError, Result};

/// Globally qualified object class: `(schema, object)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GObj {
    /// Owning schema.
    pub schema: SchemaId,
    /// Object class within the schema.
    pub object: ObjectId,
}

impl GObj {
    /// Construct from parts.
    pub const fn new(schema: SchemaId, object: ObjectId) -> Self {
        Self { schema, object }
    }
}

impl fmt::Display for GObj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.schema, self.object)
    }
}

/// Globally qualified relationship set: `(schema, relationship)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GRel {
    /// Owning schema.
    pub schema: SchemaId,
    /// Relationship set within the schema.
    pub rel: RelId,
}

impl GRel {
    /// Construct from parts.
    pub const fn new(schema: SchemaId, rel: RelId) -> Self {
        Self { schema, rel }
    }
}

impl fmt::Display for GRel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.schema, self.rel)
    }
}

/// Globally qualified attribute: `(schema, owner, attribute)` — the unit
/// the ACS matrix is indexed by.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GAttr {
    /// Owning schema.
    pub schema: SchemaId,
    /// Owning object class or relationship set.
    pub owner: AttrOwner,
    /// The attribute within its owner.
    pub attr: AttrId,
}

impl GAttr {
    /// Construct from parts.
    pub const fn new(schema: SchemaId, owner: AttrOwner, attr: AttrId) -> Self {
        Self {
            schema,
            owner,
            attr,
        }
    }
}

/// Ordered collection of the session's component schemas.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    schemas: Vec<Arc<Schema>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a schema; names must be unique across the session.
    pub fn add(&mut self, schema: impl Into<Arc<Schema>>) -> Result<SchemaId> {
        let schema = schema.into();
        if self.by_name(schema.name()).is_some() {
            return Err(CoreError::DuplicateSchema(schema.name().to_owned()));
        }
        Ok(self.push(schema))
    }

    /// Register a schema whose name the caller has checked is new.
    pub(crate) fn push(&mut self, schema: Arc<Schema>) -> SchemaId {
        self.schemas.push(schema);
        SchemaId::new((self.schemas.len() - 1) as u32)
    }

    /// Number of registered schemas.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// `true` when no schema is registered.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }

    /// Schema by id (panics when out of range — ids only come from `add`).
    pub fn schema(&self, id: SchemaId) -> &Schema {
        &self.schemas[id.index()]
    }

    /// Schema by id, if present.
    pub fn try_schema(&self, id: SchemaId) -> Option<&Schema> {
        self.schemas.get(id.index()).map(|s| &**s)
    }

    /// Resolve a schema name.
    pub fn by_name(&self, name: &str) -> Option<SchemaId> {
        self.schemas
            .iter()
            .position(|s| s.name() == name)
            .map(|i| SchemaId::new(i as u32))
    }

    /// Iterate `(id, schema)` pairs.
    pub fn schemas(&self) -> impl Iterator<Item = (SchemaId, &Schema)> {
        self.schemas
            .iter()
            .enumerate()
            .map(|(i, s)| (SchemaId::new(i as u32), &**s))
    }

    /// All object classes of one schema, globally qualified.
    pub fn objects_of(&self, schema: SchemaId) -> impl Iterator<Item = GObj> + '_ {
        self.schema(schema)
            .object_ids()
            .map(move |o| GObj::new(schema, o))
    }

    /// All relationship sets of one schema, globally qualified.
    pub fn rels_of(&self, schema: SchemaId) -> impl Iterator<Item = GRel> + '_ {
        self.schema(schema)
            .rel_ids()
            .map(move |r| GRel::new(schema, r))
    }

    /// All attributes of one schema in definition order: object attributes
    /// first (object order), then relationship attributes — the
    /// registration order that reproduces the paper's `Eq_class #`
    /// numbering on Screen 7.
    pub fn attrs_of(&self, schema: SchemaId) -> Vec<GAttr> {
        let s = self.schema(schema);
        let owners = s
            .object_ids()
            .map(AttrOwner::Object)
            .chain(s.rel_ids().map(AttrOwner::Rel));
        owners
            .flat_map(|owner| {
                (0..s.owner_attrs(owner).len() as u32)
                    .map(move |i| GAttr::new(schema, owner, AttrId::new(i)))
            })
            .collect()
    }

    /// Resolve `schema.name` to an object class or relationship set.
    pub fn named<E: Element>(&self, schema: &str, name: &str) -> Result<E> {
        let sid = self
            .by_name(schema)
            .ok_or_else(|| CoreError::UnknownName(schema.to_owned()))?;
        E::find(sid, self.schema(sid), name)
            .ok_or_else(|| CoreError::UnknownName(format!("{schema}.{name}")))
    }

    /// Resolve `schema.owner.attr` where `owner` may be an object class or
    /// a relationship set.
    pub fn attr_named(&self, schema: &str, owner: &str, attr: &str) -> Result<GAttr> {
        let sid = self
            .by_name(schema)
            .ok_or_else(|| CoreError::UnknownName(schema.to_owned()))?;
        let s = self.schema(sid);
        let owner_id = s
            .object_by_name(owner)
            .map(AttrOwner::Object)
            .or_else(|| s.rel_by_name(owner).map(AttrOwner::Rel))
            .ok_or_else(|| CoreError::UnknownName(format!("{schema}.{owner}")))?;
        let aid = s
            .owner_attrs(owner_id)
            .iter()
            .position(|a| a.name == attr)
            .ok_or_else(|| CoreError::UnknownName(format!("{schema}.{owner}.{attr}")))?;
        Ok(GAttr::new(sid, owner_id, AttrId::new(aid as u32)))
    }

    /// The attribute behind a [`GAttr`].
    pub fn attr(&self, a: GAttr) -> Result<&Attribute> {
        self.try_schema(a.schema)
            .and_then(|s| s.attr_of(a.owner, a.attr))
            .ok_or_else(|| {
                CoreError::UnknownElement(format!("{}.{:?}.{}", a.schema, a.owner, a.attr))
            })
    }

    /// Dotted display name `schema.Name` of an object class or
    /// relationship set.
    pub fn display<E: Element>(&self, e: E) -> String {
        self.dotted(e).to_string()
    }

    /// Dotted display name `schema.Owner.attr` of an attribute.
    pub fn attr_display(&self, a: GAttr) -> String {
        self.attr_dotted(a).to_string()
    }

    /// [`Catalog::display`]'s name as a [`fmt::Display`], so it can be
    /// written where it goes without a `String` of its own.
    pub fn dotted<E: Element>(&self, e: E) -> Dotted<'_, E> {
        Dotted {
            catalog: self,
            element: e,
        }
    }

    /// [`Catalog::attr_display`]'s name as a [`fmt::Display`].
    pub fn attr_dotted(&self, a: GAttr) -> AttrDotted<'_> {
        AttrDotted {
            catalog: self,
            attr: a,
        }
    }
}

/// An element's `schema.Name` ([`Catalog::dotted`]); an element the
/// catalog does not hold shows its ids.
#[derive(Clone, Copy)]
pub struct Dotted<'a, E> {
    catalog: &'a Catalog,
    element: E,
}

impl<E: Element> fmt::Display for Dotted<'_, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = self.element;
        let named = self
            .catalog
            .try_schema(e.schema())
            .and_then(|s| Some((s.name(), s.owner_name(e.owner())?)));
        match named {
            Some((schema, name)) => {
                f.write_str(schema)?;
                f.write_str(".")?;
                f.write_str(name)
            }
            None => fmt::Display::fmt(&e, f),
        }
    }
}

/// An attribute's `schema.Owner.attr` ([`Catalog::attr_dotted`]), with
/// `?` for a part the catalog does not hold.
#[derive(Clone, Copy)]
pub struct AttrDotted<'a> {
    catalog: &'a Catalog,
    attr: GAttr,
}

impl fmt::Display for AttrDotted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.attr;
        let Some(s) = self.catalog.try_schema(a.schema) else {
            return write!(f, "{}.?", a.schema);
        };
        let owner = s.owner_name(a.owner).unwrap_or("?");
        let attr = s
            .attr_of(a.owner, a.attr)
            .map(|x| x.name.as_str())
            .unwrap_or("?");
        for part in [s.name(), ".", owner, ".", attr] {
            f.write_str(part)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sit_ecr::fixtures;

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.add(fixtures::sc1()).unwrap();
        c.add(fixtures::sc2()).unwrap();
        c
    }

    #[test]
    fn add_and_lookup() {
        let c = cat();
        assert_eq!(c.len(), 2);
        let sc1 = c.by_name("sc1").unwrap();
        assert_eq!(c.schema(sc1).name(), "sc1");
        assert!(c.by_name("nope").is_none());
    }

    #[test]
    fn duplicate_schema_rejected() {
        let mut c = cat();
        assert!(matches!(
            c.add(fixtures::sc1()),
            Err(CoreError::DuplicateSchema(_))
        ));
    }

    #[test]
    fn name_resolution() {
        let c = cat();
        let student: GObj = c.named("sc1", "Student").unwrap();
        assert_eq!(c.display(student), "sc1.Student");
        let majors: GRel = c.named("sc2", "Majors").unwrap();
        assert_eq!(c.display(majors), "sc2.Majors");
        let gpa = c.attr_named("sc1", "Student", "GPA").unwrap();
        assert_eq!(c.attr_display(gpa), "sc1.Student.GPA");
        let since = c.attr_named("sc1", "Majors", "Since").unwrap();
        assert!(matches!(since.owner, AttrOwner::Rel(_)));
        assert!(c.named::<GObj>("sc1", "Ghost").is_err());
        assert!(c.named::<GRel>("sc1", "Student").is_err());
        assert!(c.attr_named("sc1", "Student", "Ghost").is_err());
        assert!(c.attr_named("ghost", "Student", "Name").is_err());
    }

    #[test]
    fn attrs_of_matches_screen7_numbering_order() {
        let c = cat();
        let sc2 = c.by_name("sc2").unwrap();
        let attrs = c.attrs_of(sc2);
        // sc2's first attributes are Grad_student's Name, GPA, Support_type.
        let names: Vec<String> = attrs.iter().take(3).map(|&a| c.attr_display(a)).collect();
        assert_eq!(
            names,
            vec![
                "sc2.Grad_student.Name",
                "sc2.Grad_student.GPA",
                "sc2.Grad_student.Support_type"
            ]
        );
        // Relationship attributes come after all object attributes.
        let last = attrs.last().copied().unwrap();
        assert!(matches!(last.owner, AttrOwner::Rel(_)));
    }

    #[test]
    fn attr_dereference() {
        let c = cat();
        let name = c.attr_named("sc2", "Faculty", "Name").unwrap();
        let a = c.attr(name).unwrap();
        assert!(a.is_key());
    }
}
