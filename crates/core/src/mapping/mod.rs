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

use sit_ecr::{AttrId, AttrOwner, SchemaId};

use crate::catalog::{Catalog, GAttr, GObj, GRel};
use crate::element::Element;
use crate::error::{CoreError, Result};
use crate::integrate::{IntegratedSchema, Origin};

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
        let schema = &integrated.schema;
        let owners = schema
            .object_ids()
            .map(AttrOwner::Object)
            .chain(schema.rel_ids().map(AttrOwner::Rel));
        let mut attr_up = Vec::new();
        for owner in owners {
            let prov_row = integrated.attr_prov(owner).unwrap_or_default();
            for (aid, prov) in prov_row.iter().enumerate() {
                let target = (owner, AttrId::new(aid as u32));
                attr_up.extend(prov.components.iter().map(|c| (c.attr, target)));
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
    pub fn describe(&self) -> String {
        let target = &self.integrated.schema;
        let mut elements: Vec<(&str, &str, &str)> = Vec::new();
        let mut attrs: Vec<(&str, &str, &str, &str, &str)> = Vec::new();
        for sid in self.sources() {
            let schema = self.catalog.schema(sid);
            for (o, object) in schema.objects() {
                if let Some(t) = self.integrated.node_of(GObj::new(sid, o)) {
                    elements.push((schema.name(), &object.name, &target.object(t).name));
                }
            }
            for (r, rel) in schema.relationships() {
                if let Some(t) = self.integrated.rel_of(GRel::new(sid, r)) {
                    elements.push((schema.name(), &rel.name, &target.relationship(t).name));
                }
            }
            let owners = schema
                .object_ids()
                .map(AttrOwner::Object)
                .chain(schema.rel_ids().map(AttrOwner::Rel));
            for owner in owners {
                let owner_name = schema.owner_name(owner).unwrap_or_default();
                for (aid, attr) in schema.owner_attrs(owner).iter().enumerate() {
                    let g = GAttr::new(sid, owner, AttrId::new(aid as u32));
                    if let Some((towner, taid)) = self.up(g) {
                        let tattr = &target.owner_attrs(towner)[taid.index()];
                        let towner = target.owner_name(towner).unwrap_or_default();
                        attrs.push((schema.name(), owner_name, &attr.name, towner, &tattr.name));
                    }
                }
            }
        }
        elements.sort_unstable();
        attrs.sort_unstable();
        // Roughly one 40-byte line per correspondence.
        let mut out = String::with_capacity(40 * (1 + elements.len() + attrs.len()));
        out.push_str("# mapping dictionary\n");
        for (schema, element, target) in elements {
            for part in ["object ", schema, ".", element, " -> ", target, "\n"] {
                out.push_str(part);
            }
        }
        for (schema, owner, attr, tobj, tattr) in attrs {
            for part in [
                "attr   ", schema, ".", owner, ".", attr, " -> ", tobj, ".", tattr, "\n",
            ] {
                out.push_str(part);
            }
        }
        out
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
