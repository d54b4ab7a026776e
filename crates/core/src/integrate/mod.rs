//! Phase 4 — integration proper.
//!
//! Paper §3.5: "Upon completing the third phase, the tool performs
//! integration. This involves creating clusters of entity sets. ... First,
//! entity sets and categories are integrated to form a lattice structure of
//! interdependent object classes. Next, relationship sets are integrated to
//! form lattices of relationship sets. Finally, two lattices are merged to
//! form the integrated schema."
//!
//! Given the catalog, the equivalence registry (phase 2), and the assertion
//! engines (phase 3), [`integrate`] produces an [`IntegratedSchema`]: a
//! plain ECR [`Schema`] plus the provenance metadata the viewer screens
//! (Screens 10–12) and the mapping generator need:
//!
//! * *equals* pairs merge into a single `E_` object class;
//! * *contains* / *contained in* pairs become IS-A (category) edges;
//! * *may be* and *disjoint integrable* pairs generate a derived `D_`
//!   superclass with both classes as categories;
//! * *disjoint non-integrable* pairs stay separate;
//! * equivalent attributes collapse into derived (`D_`) attributes whose
//!   component attributes are recorded as the Component Attribute Screen
//!   displays them.
//!
//! The work runs on ids. Each kind's elements of the pair are sorted and
//! read through one [`crate::closure::AssertionEngine`] constraint view
//! (an n×n grid of relation sets, by position), the lattices are bit rows
//! over node indexes, and provenance records component attributes as
//! [`GAttr`]s. Temporaries are a few flat buffers per integration: node
//! members are ranges of one partition, edges one sorted list, attribute
//! slots one list with their components linked through another, and the
//! relationship lattice reuses the object lattice's buffers. Names appear
//! only where output is written, each once: the integrated schema's own
//! element and attribute names when the builder receives them, and
//! [`ComponentAttrInfo::resolve`] or [`crate::mapping::Mappings`] for
//! component names.

mod attrs;
mod names;
mod nodes;
mod objects;
mod rels;

pub use names::{
    derived_object_name, derived_rel_name, equivalent_object_name, equivalent_rel_name,
    merged_attr_name, trunc4,
};

use std::collections::HashMap;

use sit_ecr::{AttrOwner, Attribute, ObjectId, RelId, Schema, SchemaId};

use crate::catalog::{Catalog, GAttr, GObj, GRel};
use crate::closure::AssertionEngine;
use crate::cluster::{clusters, Clusters};
use crate::equivalence::EquivalenceRegistry;
use crate::error::Result;
use attrs::Slots;
use nodes::Nodes;

/// Tunables for one integration run.
#[derive(Clone, Debug, Default)]
pub struct IntegrationOptions {
    /// Name of the integrated schema; defaults to `<a>+<b>`.
    pub schema_name: Option<String>,
    /// When `true`, attributes equivalent across the two children of a
    /// derived (`D_`) superclass are pulled up into the superclass. The
    /// paper's tool leaves them on the children (Screen 12 shows `D_Name`
    /// living on the `Student` category, not on `D_Stud_Facu`), so the
    /// default is `false`; the ablation benchmark measures both.
    pub pull_up_common_attrs: bool,
    /// Rename computed element names (computed → desired), applied before
    /// uniquification.
    pub rename: HashMap<String, String>,
}

/// Provenance of one component attribute — the exact fields of the paper's
/// Component Attribute Screen (Screen 12), by id. Schema, owner and
/// attribute names, domain and key are read from the catalog the
/// integration ran against ([`ComponentAttrInfo::resolve`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComponentAttrInfo {
    /// The component attribute: `original Schema Name`, `original Object
    /// Name` and the attribute itself.
    pub attr: GAttr,
    /// `original type` — `E`, `C`, or `R`.
    pub owner_kind: char,
}

impl ComponentAttrInfo {
    /// The component's schema name, owner name and attribute (name,
    /// domain, key), as Screen 12 shows them. `catalog` must be the one
    /// the integration ran against.
    pub fn resolve<'c>(&self, catalog: &'c Catalog) -> (&'c str, &'c str, &'c Attribute) {
        let schema = catalog.schema(self.attr.schema);
        let owner = schema
            .owner_name(self.attr.owner)
            .expect("component owner exists");
        let attr = catalog.attr(self.attr).expect("component attribute exists");
        (schema.name(), owner, attr)
    }
}

/// Provenance of one integrated attribute: the component attributes it was
/// derived from (a single entry for plainly copied attributes).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct AttrProvenance {
    /// Component attributes, in `(schema, object)` order.
    pub components: Vec<ComponentAttrInfo>,
}

impl AttrProvenance {
    /// `true` when the integrated attribute merges several component
    /// attributes (and hence carries the `D_` prefix).
    pub fn is_derived(&self) -> bool {
        self.components.len() > 1
    }
}

/// How an integrated object class ([`NodeOrigin`]) or relationship set
/// ([`RelOrigin`]) came to be.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Origin<E, Id> {
    /// Copied from one component schema (object classes possibly with
    /// rebound parents, relationship sets with rebound participants).
    Copied(E),
    /// `E_` merge of component elements asserted equal.
    Merged(Vec<E>),
    /// `D_` derived superset over the given integrated children.
    DerivedSuper {
        /// Integrated ids of the children.
        children: Vec<Id>,
    },
}

impl<E, Id> Origin<E, Id> {
    /// Component elements directly behind this node (empty for derived).
    pub fn members(&self) -> &[E] {
        match self {
            Origin::Copied(e) => std::slice::from_ref(e),
            Origin::Merged(v) => v,
            Origin::DerivedSuper { .. } => &[],
        }
    }
}

/// How an integrated object class came to be.
pub type NodeOrigin = Origin<GObj, ObjectId>;

/// How an integrated relationship set came to be.
pub type RelOrigin = Origin<GRel, RelId>;

/// The output of phase 4: a valid ECR schema plus full provenance.
#[derive(Clone, Debug)]
pub struct IntegratedSchema {
    /// The integrated schema itself (validated).
    pub schema: Schema,
    /// Origin of each integrated object class (indexed by [`ObjectId`]).
    pub object_origin: Vec<NodeOrigin>,
    /// Provenance of each object attribute:
    /// `object_attr_prov[obj][attr]`.
    pub object_attr_prov: Vec<Vec<AttrProvenance>>,
    /// Origin of each integrated relationship set.
    pub rel_origin: Vec<RelOrigin>,
    /// Provenance of each relationship attribute.
    pub rel_attr_prov: Vec<Vec<AttrProvenance>>,
    /// Relationship lattice edges `(child, parent)` — specialization among
    /// integrated relationship sets ("lattices of relationship sets").
    pub rel_lattice: Vec<(RelId, RelId)>,
    /// Component object → integrated object, sorted by component.
    object_map: Vec<(GObj, ObjectId)>,
    /// Component relationship set → integrated relationship set, sorted
    /// by component.
    rel_map: Vec<(GRel, RelId)>,
    /// The clusters phase 4 partitioned the object classes into.
    pub object_clusters: Clusters<GObj>,
    /// Names of the two component schemas.
    pub sources: (String, String),
    /// Ids of the two component schemas.
    pub(crate) source_ids: (SchemaId, SchemaId),
}

impl IntegratedSchema {
    /// Integrated object carrying a component object.
    pub fn node_of(&self, o: GObj) -> Option<ObjectId> {
        lookup(&self.object_map, o)
    }

    /// Integrated relationship carrying a component relationship set.
    pub fn rel_of(&self, r: GRel) -> Option<RelId> {
        lookup(&self.rel_map, r)
    }

    /// Component object → integrated object, sorted by component.
    pub(crate) fn object_map(&self) -> &[(GObj, ObjectId)] {
        &self.object_map
    }

    /// Component relationship set → integrated relationship set, sorted
    /// by component.
    pub(crate) fn rel_map(&self) -> &[(GRel, RelId)] {
        &self.rel_map
    }

    /// Provenance of each attribute of one integrated object class or
    /// relationship set.
    pub fn attr_prov(&self, owner: AttrOwner) -> Option<&[AttrProvenance]> {
        let prov = match owner {
            AttrOwner::Object(o) => self.object_attr_prov.get(o.index()),
            AttrOwner::Rel(r) => self.rel_attr_prov.get(r.index()),
        };
        prov.map(Vec::as_slice)
    }

    /// Objects of the integrated schema whose origin is a derived (`D_`)
    /// superclass.
    pub fn derived_objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.object_origin
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, NodeOrigin::DerivedSuper { .. }))
            .map(|(i, _)| ObjectId::new(i as u32))
    }
}

/// Value of `key` in a table sorted by key.
fn lookup<K: Ord + Copy, V: Copy>(table: &[(K, V)], key: K) -> Option<V> {
    let at = table.binary_search_by_key(&key, |&(k, _)| k).ok()?;
    Some(table[at].1)
}

/// The elements of an integration universe, sorted: constraint views and
/// partitions index them by position.
fn sorted<E: Ord>(elements: impl Iterator<Item = E>) -> Vec<E> {
    let mut out: Vec<E> = elements.collect();
    out.sort_unstable();
    out
}

/// Run phase 4 for the schema pair `(sa, sb)`.
pub fn integrate(
    catalog: &Catalog,
    equiv: &EquivalenceRegistry,
    obj_engine: &AssertionEngine<GObj>,
    rel_engine: &AssertionEngine<GRel>,
    sa: SchemaId,
    sb: SchemaId,
    options: &IntegrationOptions,
) -> Result<IntegratedSchema> {
    let _span = sit_obs::trace::span("integrate");
    if sa == sb {
        return Err(crate::error::CoreError::InconsistentLattice(
            "cannot integrate a schema with itself".to_owned(),
        ));
    }
    let universe = sorted(catalog.objects_of(sa).chain(catalog.objects_of(sb)));
    let view = obj_engine.view(&universe);
    // One set of node buffers serves the clusters, the object lattice
    // and then the relationship lattice.
    let mut nodes = Nodes::default();
    let object_clusters = clusters(&view, &universe, &mut nodes.groups);

    // Object lattice (nodes, IS-A edges, names).
    let lattice = {
        let _span = sit_obs::trace::span("integrate.lattice");
        objects::build_lattice(catalog, &view, &universe, nodes)?
    };

    // Attribute placement with absorption and provenance.
    let mut slots = Slots::default();
    {
        let _span = sit_obs::trace::span("integrate.attrs");
        attrs::place_attributes(
            catalog,
            equiv,
            &lattice,
            options.pull_up_common_attrs,
            &mut slots,
        );
    }

    // Assemble the object side of the schema.
    let (name_a, name_b) = (catalog.schema(sa).name(), catalog.schema(sb).name());
    let name = options.schema_name.clone();
    let name = name.unwrap_or_else(|| [name_a, "+", name_b].concat());
    let mut assembled = {
        let _span = sit_obs::trace::span("integrate.assemble");
        objects::assemble(catalog, lattice, slots, name, options)
    };

    // Relationship lattice on top of the assembled objects.
    {
        let _span = sit_obs::trace::span("integrate.rels");
        rels::integrate_rels(catalog, equiv, rel_engine, sa, sb, options, &mut assembled)?;
    }

    let objects::Assembled {
        builder,
        object_origin,
        object_attr_prov,
        object_map,
        rel_origin,
        rel_attr_prov,
        rel_lattice,
        rel_map,
        ..
    } = assembled;

    let schema = builder
        .build()
        .map_err(|e| crate::error::CoreError::InvalidResult(e.to_string()))?;

    Ok(IntegratedSchema {
        schema,
        object_origin,
        object_attr_prov,
        rel_origin,
        rel_attr_prov,
        rel_lattice,
        object_map,
        rel_map,
        object_clusters,
        sources: (name_a.to_owned(), name_b.to_owned()),
        source_ids: (sa, sb),
    })
}
