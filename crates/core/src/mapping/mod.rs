//! Mapping generation and request translation.
//!
//! Phase 4 ends with mappings between each component schema and the
//! integrated schema (paper §1): in the **logical database design** context
//! requests against component schemas (views) are converted into requests
//! against the integrated schema; in the **global schema design** context
//! requests against the integrated (global) schema are mapped into requests
//! against the component schemas. [`Mappings`] supports both directions
//! over the [`query::Query`] request language:
//!
//! * [`Mappings::to_integrated`] — view → integrated (one rewritten query);
//! * [`Mappings::to_components`] — integrated → components (a
//!   [`query::UnionPlan`]: one branch per contributing component, a union
//!   for derived classes, duplicate branches for `E_` merges).
//!
//! Everything is driven by the provenance recorded in
//! [`crate::integrate::IntegratedSchema`], so the mappings are guaranteed
//! to agree with what integration actually did (including attribute
//! absorption: `sc2.Grad_student.Name` maps to `Student.D_Name`, which
//! lives on an ancestor of `Grad_student` in the integrated schema).
//!
//! [`Mappings`] borrows the catalog and the integration result and adds
//! one table of its own, component attribute → integrated attribute,
//! sorted by id. Element correspondences are the result's origins and
//! component → integrated tables, keyed by kind: an entity set and a
//! relationship set of one name in one schema map separately, and a
//! request naming both resolves to the object class. Names are produced
//! only when [`Mappings::describe`], [`Mappings::to_integrated`] or
//! [`Mappings::to_components`] writes output.

pub mod query;

pub use query::{CmpOp, ComponentQuery, Filter, Query, UnionPlan};

use std::fmt;

use sit_ecr::{AttrId, AttrOwner, Schema, SchemaId};

use crate::catalog::{Catalog, GAttr, GObj, GRel};
use crate::element::Element;
use crate::error::{CoreError, Result};
use crate::integrate::{IntegratedSchema, Origin};

/// The first line of [`Mappings::describe`]'s text.
const DESCRIBE_HEADER: &str = "# mapping dictionary\n";

/// Bidirectional mappings between the component schemas and one
/// integrated schema, read through the catalog and the integration
/// result they were built from.
#[derive(Clone, Debug)]
pub struct Mappings<'a> {
    catalog: &'a Catalog,
    integrated: &'a IntegratedSchema,
    /// Component attribute → the integrated attribute it maps to, sorted
    /// by component.
    attr_up: Vec<(GAttr, (AttrOwner, AttrId))>,
}

impl<'a> Mappings<'a> {
    /// Build the mappings for an integration result. `catalog` must be the
    /// catalog the integration ran against.
    pub fn new(catalog: &'a Catalog, integrated: &'a IntegratedSchema) -> Mappings<'a> {
        // Every integrated owner's provenance row: object classes, then
        // relationship sets.
        let rows = || {
            let objects = integrated.schema.object_ids().map(AttrOwner::Object);
            let rels = integrated.schema.rel_ids().map(AttrOwner::Rel);
            objects
                .chain(rels)
                .map(|owner| (owner, integrated.attr_prov(owner).unwrap_or_default()))
        };
        let count = rows()
            .flat_map(|(_, row)| row)
            .map(|p| p.components.len())
            .sum();
        let mut attr_up = Vec::with_capacity(count);
        for (owner, row) in rows() {
            for (aid, p) in row.iter().enumerate() {
                let target = (owner, AttrId::new(aid as u32));
                attr_up.extend(p.components.iter().map(|c| (c.attr, target)));
            }
        }
        // A component attribute pulled up into a derived relationship set
        // also stays on its child; the later (derived) target wins. The
        // sort is stable, so of each run of one attribute keep the last.
        attr_up.sort_by_key(|&(g, _)| g);
        attr_up.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                *kept = *later;
            }
            same
        });
        Mappings {
            catalog,
            integrated,
            attr_up,
        }
    }

    /// Render the mappings as the plain-text "data dictionary" the
    /// paper's future-work section wants shared between design tools: one
    /// line per element correspondence, component side → integrated side.
    ///
    /// Lines come sorted: element lines, then attribute lines, each by
    /// component schema, element (or owner and attribute) and target.
    /// They are written in that order by walking each schema's name
    /// indexes, so only one owner's attributes are ever sorted. The text
    /// is measured from the correspondence tables first and written into
    /// one allocation.
    pub fn describe(&self) -> String {
        let len = self.described_len();
        let mut out = String::with_capacity(len);
        let _ = self.describe_into(&mut out);
        debug_assert_eq!(out.len(), len);
        out
    }

    /// Write [`Mappings::describe`]'s text to `out`, without measuring
    /// it first.
    pub fn describe_into(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let mut sources = self.sources().map(|sid| (sid, self.catalog.schema(sid)));
        sources.sort_by_key(|(_, schema)| schema.name());
        out.write_str(DESCRIBE_HEADER)?;
        let mut run = Vec::new();
        for attrs in [false, true] {
            for (sid, schema) in sources {
                self.lines(sid, schema, attrs, &mut run, out)?;
            }
        }
        Ok(())
    }

    /// The length of [`Mappings::describe`]'s text, from the
    /// correspondence tables.
    fn described_len(&self) -> usize {
        const ELEMENT: [&str; 4] = ["object ", ".", " -> ", "\n"];
        const ATTR: [&str; 6] = ["attr   ", ".", ".", " -> ", ".", "\n"];
        let fixed = |parts: &[&str]| parts.iter().map(|p| p.len()).sum::<usize>();
        let target = &self.integrated.schema;
        let owner_name = |sid, owner| {
            let schema = self.catalog.schema(sid);
            schema.name().len() + schema.owner_name(owner).unwrap_or_default().len()
        };
        let element_len = |sid, owner, to| {
            fixed(&ELEMENT)
                + owner_name(sid, owner)
                + target.owner_name(to).unwrap_or_default().len()
        };
        let objects = self.integrated.object_map().iter();
        let rels = self.integrated.rel_map().iter();
        let mut len = DESCRIBE_HEADER.len();
        len += objects
            .map(|&(g, o)| element_len(g.schema, g.owner(), AttrOwner::Object(o)))
            .chain(rels.map(|&(g, r)| element_len(g.schema, g.owner(), AttrOwner::Rel(r))))
            .sum::<usize>();
        len += self
            .attr_up
            .iter()
            .map(|&(g, (towner, taid))| {
                let attr = self.catalog.attr(g).map_or(0, |a| a.name.len());
                fixed(&ATTR)
                    + owner_name(g.schema, g.owner)
                    + attr
                    + target.owner_name(towner).unwrap_or_default().len()
                    + target.owner_attrs(towner)[taid.index()].name.len()
            })
            .sum::<usize>();
        len
    }

    /// Write the element lines (or, with `attrs`, attribute lines) of
    /// schema `sid` in order. Object classes and relationship sets are
    /// walked together in name order; an object class and a relationship
    /// set of one name are one run, whose lines are ordered by the rest
    /// of the line. `run` is scratch: `(owner, attribute, target owner,
    /// target attribute)`.
    fn lines(
        &self,
        sid: SchemaId,
        schema: &Schema,
        attrs: bool,
        run: &mut Vec<(AttrOwner, AttrId, AttrOwner, AttrId)>,
        out: &mut impl fmt::Write,
    ) -> fmt::Result {
        let target = &self.integrated.schema;
        let name = |owner| schema.owner_name(owner).unwrap_or_default();
        let mut objects = schema
            .object_ids_by_name()
            .map(AttrOwner::Object)
            .peekable();
        let mut rels = schema.rel_ids_by_name().map(AttrOwner::Rel).peekable();
        loop {
            // The next run: the first owner by name, and a same-named
            // owner of the other kind.
            let owners = match (objects.peek(), rels.peek()) {
                (None, None) => break,
                (Some(&o), Some(&r)) if name(o) == name(r) => [objects.next(), rels.next()],
                (Some(&o), Some(&r)) if name(r) < name(o) => [rels.next(), None],
                (Some(_), _) => [objects.next(), None],
                (None, Some(_)) => [rels.next(), None],
            };
            run.clear();
            for owner in owners.into_iter().flatten() {
                if attrs {
                    // The owner's attributes are one range of the table.
                    let first = GAttr::new(sid, owner, AttrId::new(0));
                    let from = self.attr_up.partition_point(|&(g, _)| g < first);
                    let mapped = self.attr_up[from..]
                        .iter()
                        .take_while(|(g, _)| g.schema == sid && g.owner == owner);
                    run.extend(mapped.map(|&(g, (towner, taid))| (owner, g.attr, towner, taid)));
                } else if let Some(to) = self.target(sid, owner) {
                    run.push((owner, AttrId::new(0), to, AttrId::new(0)));
                }
            }
            // Each line's parts past the run's name.
            let parts = |&(owner, aid, towner, taid): &(AttrOwner, AttrId, AttrOwner, AttrId)| {
                let towner_name = target.owner_name(towner).unwrap_or_default();
                if attrs {
                    [
                        schema.owner_attrs(owner)[aid.index()].name.as_str(),
                        towner_name,
                        target.owner_attrs(towner)[taid.index()].name.as_str(),
                    ]
                } else {
                    [towner_name, "", ""]
                }
            };
            if run.len() > 1 {
                run.sort_unstable_by(|x, y| parts(x).cmp(&parts(y)));
            }
            for entry in run.iter() {
                let owner = name(entry.0);
                let [a, b, c] = parts(entry);
                let line: &[&str] = if attrs {
                    &[
                        "attr   ",
                        schema.name(),
                        ".",
                        owner,
                        ".",
                        a,
                        " -> ",
                        b,
                        ".",
                        c,
                        "\n",
                    ]
                } else {
                    &["object ", schema.name(), ".", owner, " -> ", a, "\n"]
                };
                line.iter().try_for_each(|part| out.write_str(part))?;
            }
        }
        Ok(())
    }

    /// The integrated element component element `owner` of schema `sid`
    /// maps to.
    fn target(&self, sid: SchemaId, owner: AttrOwner) -> Option<AttrOwner> {
        match owner {
            AttrOwner::Object(o) => self
                .integrated
                .node_of(GObj::new(sid, o))
                .map(AttrOwner::Object),
            AttrOwner::Rel(r) => self
                .integrated
                .rel_of(GRel::new(sid, r))
                .map(AttrOwner::Rel),
        }
    }

    /// Logical-design direction: rewrite a request against a component
    /// schema (view) into a request against the integrated schema. The
    /// request's target names an object class of the view or, failing
    /// that, a relationship set.
    pub fn to_integrated(&self, schema: &str, q: &Query) -> Result<Query> {
        let unknown = || CoreError::UnknownName(format!("{schema}.{}", q.object));
        let sid = self
            .catalog
            .by_name(schema)
            .filter(|sid| self.sources().contains(sid))
            .ok_or_else(unknown)?;
        let view = self.catalog.schema(sid);
        let owner = view
            .object_by_name(&q.object)
            .map(AttrOwner::Object)
            .or_else(|| view.rel_by_name(&q.object).map(AttrOwner::Rel))
            .ok_or_else(unknown)?;
        let target = match owner {
            AttrOwner::Object(o) => self
                .integrated
                .node_of(GObj::new(sid, o))
                .map(AttrOwner::Object),
            AttrOwner::Rel(r) => self
                .integrated
                .rel_of(GRel::new(sid, r))
                .map(AttrOwner::Rel),
        }
        .ok_or_else(unknown)?;
        let map_attr = |attr: &str| -> Result<String> {
            view.owner_attrs(owner)
                .iter()
                .position(|a| a.name == attr)
                .and_then(|aid| self.up(GAttr::new(sid, owner, AttrId::new(aid as u32))))
                .map(|(towner, taid)| {
                    self.integrated.schema.owner_attrs(towner)[taid.index()]
                        .name
                        .clone()
                })
                .ok_or_else(|| CoreError::UnknownName(format!("{schema}.{}.{attr}", q.object)))
        };
        let project = q
            .project
            .iter()
            .map(|a| map_attr(a))
            .collect::<Result<Vec<_>>>()?;
        let filter = match &q.filter {
            Some(f) => Some(Filter {
                attr: map_attr(&f.attr)?,
                op: f.op,
                value: f.value.clone(),
            }),
            None => None,
        };
        Ok(Query {
            object: self
                .integrated
                .schema
                .owner_name(target)
                .unwrap_or_default()
                .to_owned(),
            project,
            filter,
        })
    }

    /// Global-design direction: map a request against the integrated
    /// (global) schema into requests against the component schemas.
    pub fn to_components(&self, q: &Query) -> Result<UnionPlan> {
        let schema = &self.integrated.schema;
        let mut branches = Vec::new();
        let equivalent = if let Some(o) = schema.object_by_name(&q.object) {
            let origins = &self.integrated.object_origin;
            self.expand(origins, o, o, AttrOwner::Object, q, &mut branches)
        } else {
            let r = schema
                .rel_by_name(&q.object)
                .ok_or_else(|| CoreError::UnknownName(q.object.clone()))?;
            let origins = &self.integrated.rel_origin;
            self.expand(origins, r, r, AttrOwner::Rel, q, &mut branches)
        };
        Ok(UnionPlan {
            branches,
            equivalent,
        })
    }

    /// The branches of integrated element `id` (an object class or a
    /// relationship set, `owner` says which): one per component member,
    /// or the union of a derived element's children. `named` is the
    /// element the query named: `id` itself, or a derived ancestor whose
    /// attributes the branches resolve first. Returns whether the
    /// branches are an `E_` merge of one extension.
    fn expand<E: Element, Id: Copy + Into<usize>>(
        &self,
        origins: &[Origin<E, Id>],
        named: Id,
        id: Id,
        owner: fn(Id) -> AttrOwner,
        q: &Query,
        branches: &mut Vec<ComponentQuery>,
    ) -> bool {
        match &origins[id.into()] {
            Origin::DerivedSuper { children } => {
                for &child in children {
                    self.expand(origins, named, child, owner, q, branches);
                }
                false
            }
            origin => {
                let targets = [owner(named), owner(id)];
                for &m in origin.members() {
                    branches.push(self.branch(m.schema(), m.owner(), targets, q));
                }
                origin.members().len() > 1
            }
        }
    }

    /// Build the branch for one component member (`owner` in schema
    /// `sid`): each projected attribute, looked up on the named element
    /// and then on the member's own integrated element (`targets`), maps
    /// back through its provenance to the member's own attribute when it
    /// contributed one.
    fn branch(
        &self,
        sid: SchemaId,
        owner: AttrOwner,
        targets: [AttrOwner; 2],
        q: &Query,
    ) -> ComponentQuery {
        let integrated = &self.integrated.schema;
        let resolve_on = |target: AttrOwner, attr: &str| -> Option<String> {
            let aid = integrated
                .owner_attrs(target)
                .iter()
                .position(|a| a.name == attr)?;
            let components = &self.integrated.attr_prov(target)?[aid].components;
            let c = components
                .iter()
                .find(|c| c.attr.schema == sid && c.attr.owner == owner)
                .or_else(|| components.iter().find(|c| c.attr.schema == sid))?;
            Some(self.catalog.attr(c.attr).ok()?.name.clone())
        };
        let resolve = |attr: &str| targets.iter().find_map(|&t| resolve_on(t, attr));
        let mut project = Vec::new();
        let mut missing = Vec::new();
        for attr in &q.project {
            match resolve(attr) {
                Some(a) => project.push(a),
                None => missing.push(attr.clone()),
            }
        }
        let filter = q.filter.as_ref().and_then(|f| {
            resolve(&f.attr).map(|attr| Filter {
                attr,
                op: f.op,
                value: f.value.clone(),
            })
        });
        let schema = self.catalog.schema(sid);
        ComponentQuery {
            schema: schema.name().to_owned(),
            query: Query {
                object: schema.owner_name(owner).unwrap_or_default().to_owned(),
                project,
                filter,
            },
            missing,
        }
    }

    /// The integrated attribute component attribute `g` maps to.
    fn up(&self, g: GAttr) -> Option<(AttrOwner, AttrId)> {
        let at = self.attr_up.binary_search_by_key(&g, |&(c, _)| c).ok()?;
        Some(self.attr_up[at].1)
    }

    /// The two component schemas.
    fn sources(&self) -> [SchemaId; 2] {
        let (a, b) = self.integrated.source_ids;
        [a, b]
    }
}
