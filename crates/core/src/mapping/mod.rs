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

pub mod query;

pub use query::{CmpOp, ComponentQuery, Filter, Query, UnionPlan};

use std::collections::HashMap;

use sit_ecr::{AttrOwner, ObjectId};

use crate::catalog::Catalog;
use crate::error::{CoreError, Result};
use crate::integrate::{IntegratedSchema, NodeOrigin};

/// Component-side attribute key: `(schema name, owner name, attr name)`.
type ComponentAttrKey = (String, String, String);
/// Integrated-side attribute key: `(object name, attr name)`.
type IntegratedAttrKey = (String, String);

/// Bidirectional mappings between component schemas and one integrated
/// schema.
#[derive(Clone, Debug)]
pub struct Mappings {
    /// `(schema name, object name)` → integrated object name.
    object_up: HashMap<(String, String), String>,
    /// `(schema name, owner name, attr name)` → integrated
    /// `(object name, attr name)`.
    attr_up: HashMap<ComponentAttrKey, IntegratedAttrKey>,
    /// Integrated object name → node description.
    nodes: HashMap<String, NodeDesc>,
    /// Integrated `(object name, attr name incl. inherited)` → component
    /// attrs: `(schema, owner, attr name)`.
    attr_down: HashMap<IntegratedAttrKey, Vec<ComponentAttrKey>>,
}

/// Down-translation shape of one integrated object.
#[derive(Clone, Debug)]
enum NodeDesc {
    /// Backed by component objects `(schema name, object name)`;
    /// `equivalent` when they are an `E_` merge of one extension.
    Backed {
        members: Vec<(String, String)>,
        equivalent: bool,
    },
    /// Derived superclass: union of the named integrated children.
    Derived { children: Vec<String> },
}

impl Mappings {
    /// Build the mappings for an integration result. `catalog` must be the
    /// catalog the integration ran against (component names are resolved
    /// through it).
    pub fn new(catalog: &Catalog, integrated: &IntegratedSchema) -> Mappings {
        let schema = &integrated.schema;
        let mut object_up = HashMap::new();
        let mut nodes = HashMap::new();
        for (oid, origin) in integrated.object_origin.iter().enumerate() {
            let oid = ObjectId::new(oid as u32);
            let iname = schema.object(oid).name.clone();
            match origin {
                NodeOrigin::Copied(_) | NodeOrigin::Merged(_) => {
                    let members: Vec<(String, String)> = origin
                        .members()
                        .iter()
                        .map(|&g| {
                            (
                                catalog.schema(g.schema).name().to_owned(),
                                catalog.schema(g.schema).object(g.object).name.clone(),
                            )
                        })
                        .collect();
                    for m in &members {
                        object_up.insert(m.clone(), iname.clone());
                    }
                    nodes.insert(
                        iname,
                        NodeDesc::Backed {
                            equivalent: members.len() > 1,
                            members,
                        },
                    );
                }
                NodeOrigin::DerivedSuper { children } => {
                    let children = children
                        .iter()
                        .map(|&c| schema.object(c).name.clone())
                        .collect();
                    nodes.insert(iname, NodeDesc::Derived { children });
                }
            }
        }

        // Attribute maps from provenance (both directions), relationship
        // attributes included.
        let mut attr_up = HashMap::new();
        let mut attr_down: HashMap<IntegratedAttrKey, Vec<ComponentAttrKey>> = HashMap::new();
        let owners = schema
            .object_ids()
            .map(AttrOwner::Object)
            .chain(schema.rel_ids().map(AttrOwner::Rel));
        for owner in owners {
            let iname = schema.owner_name(owner).unwrap_or_default();
            let prov_row = integrated.attr_prov(owner).unwrap_or_default();
            for (attr, prov) in schema.owner_attrs(owner).iter().zip(prov_row) {
                let target = (iname.to_owned(), attr.name.clone());
                for c in &prov.components {
                    let key = (c.schema.clone(), c.owner.clone(), c.attr.name.clone());
                    attr_up.insert(key.clone(), target.clone());
                    attr_down.entry(target.clone()).or_default().push(key);
                }
            }
        }
        // Relationship sets translate by name as well.
        for (g, &rid) in &integrated.rel_map {
            let s = catalog.schema(g.schema);
            object_up.insert(
                (s.name().to_owned(), s.relationship(g.rel).name.clone()),
                schema.relationship(rid).name.clone(),
            );
            nodes
                .entry(schema.relationship(rid).name.clone())
                .or_insert_with(|| NodeDesc::Backed {
                    members: Vec::new(),
                    equivalent: false,
                });
            if let Some(NodeDesc::Backed { members, equivalent }) =
                nodes.get_mut(&schema.relationship(rid).name)
            {
                members.push((s.name().to_owned(), s.relationship(g.rel).name.clone()));
                *equivalent = members.len() > 1;
            }
        }

        Mappings {
            object_up,
            attr_up,
            nodes,
            attr_down,
        }
    }

    /// Render the mappings as the plain-text "data dictionary" the
    /// paper's future-work section wants shared between design tools: one
    /// line per element correspondence, component side → integrated side.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("# mapping dictionary\n");
        let mut objects: Vec<(&(String, String), &String)> = self.object_up.iter().collect();
        objects.sort();
        for ((schema, object), target) in objects {
            let _ = writeln!(out, "object {schema}.{object} -> {target}");
        }
        let mut attrs: Vec<(&ComponentAttrKey, &IntegratedAttrKey)> = self.attr_up.iter().collect();
        attrs.sort();
        for ((schema, owner, attr), (tobj, tattr)) in attrs {
            let _ = writeln!(out, "attr   {schema}.{owner}.{attr} -> {tobj}.{tattr}");
        }
        out
    }

    /// Logical-design direction: rewrite a request against a component
    /// schema (view) into a request against the integrated schema.
    pub fn to_integrated(&self, schema: &str, q: &Query) -> Result<Query> {
        let key = (schema.to_owned(), q.object.clone());
        let target = self
            .object_up
            .get(&key)
            .ok_or_else(|| CoreError::UnknownName(format!("{schema}.{}", q.object)))?;
        let map_attr = |attr: &str| -> Result<String> {
            self.attr_up
                .get(&(schema.to_owned(), q.object.clone(), attr.to_owned()))
                .map(|(_, a)| a.clone())
                .ok_or_else(|| {
                    CoreError::UnknownName(format!("{schema}.{}.{attr}", q.object))
                })
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
            object: target.clone(),
            project,
            filter,
        })
    }

    /// Global-design direction: map a request against the integrated
    /// (global) schema into requests against the component schemas.
    pub fn to_components(&self, q: &Query) -> Result<UnionPlan> {
        let mut branches = Vec::new();
        let equivalent = self.expand(&q.object, q, &mut branches)?;
        Ok(UnionPlan {
            branches,
            equivalent,
        })
    }

    fn expand(
        &self,
        object: &str,
        q: &Query,
        branches: &mut Vec<ComponentQuery>,
    ) -> Result<bool> {
        match self.nodes.get(object) {
            None => Err(CoreError::UnknownName(object.to_owned())),
            Some(NodeDesc::Derived { children }) => {
                for child in children {
                    self.expand(child, q, branches)?;
                }
                Ok(false)
            }
            Some(NodeDesc::Backed { members, equivalent }) => {
                for (schema, owner) in members {
                    branches.push(self.branch(schema, owner, object, q));
                }
                Ok(*equivalent && members.len() > 1)
            }
        }
    }

    /// Build the branch for one component member: each projected
    /// integrated attribute maps back through `attr_down` to the member's
    /// own attribute when it contributed one.
    fn branch(&self, schema: &str, owner: &str, object: &str, q: &Query) -> ComponentQuery {
        let mut project = Vec::new();
        let mut missing = Vec::new();
        let resolve = |attr: &str| -> Option<String> {
            self.attr_down
                .get(&(object.to_owned(), attr.to_owned()))
                .and_then(|comps| {
                    comps
                        .iter()
                        .find(|(s, o, _)| s == schema && o == owner)
                        .or_else(|| comps.iter().find(|(s, _, _)| s == schema))
                })
                .map(|(_, _, a)| a.clone())
        };
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
        ComponentQuery {
            schema: schema.to_owned(),
            query: Query {
                object: owner.to_owned(),
                project,
                filter,
            },
            missing,
        }
    }
}
