//! Object-class lattice construction and schema assembly.
//!
//! The first half of phase 4. On the equals-merged nodes of
//! `super::nodes`, place IS-A edges for containment (with transitive
//! reduction so only Hasse edges appear as category links, plus the
//! structural category edges no pinned fact covers), add derived
//! superclasses for overlap and disjoint-integrable pairs, and
//! topologically assemble the object side of the integrated schema.
//! Containment, reachability and ancestry are bit rows over node
//! indexes.

use sit_ecr::{ObjectId, RelId, SchemaBuilder};

use super::attrs::Slots;
use super::names::{equivalent_object_name_of, renamed, Claims};
use super::nodes::{self, BitRows, Nodes};
use super::{AttrProvenance, IntegrationOptions, NodeOrigin, RelOrigin};
use crate::catalog::{Catalog, GObj, GRel};
use crate::closure::ConstraintView;
use crate::error::{CoreError, Result};

/// The object lattice: nodes plus a parents-first topological order.
#[derive(Debug)]
pub(super) struct Lattice<'u> {
    /// The sorted object classes of the pair; base nodes hold positions
    /// in it.
    pub universe: &'u [GObj],
    pub nodes: Nodes,
    /// Node indexes, parents before children: the order of emission, so
    /// node `topo[k]` becomes integrated object `k`.
    pub topo: Vec<usize>,
    /// Each node's place in `topo`: its integrated object id.
    pos: Vec<usize>,
    /// Row `i`: every (transitive) ancestor of node `i`.
    pub ancestors: BitRows,
}

impl Lattice<'_> {
    /// The ancestors of node `i`, nearest first (breadth-first along
    /// parent lists).
    pub fn nearest_first(&self, i: usize) -> Vec<usize> {
        let mut seen = vec![false; self.nodes.len()];
        seen[i] = true;
        let mut out = vec![i];
        let mut next = 0;
        while let Some(&x) = out.get(next) {
            next += 1;
            for p in self.nodes.parents(x) {
                if !seen[p] {
                    seen[p] = true;
                    out.push(p);
                }
            }
        }
        out.remove(0);
        out
    }

    /// The integrated object of node `x`.
    pub fn id(&self, x: usize) -> ObjectId {
        ObjectId::new(self.pos[x] as u32)
    }

    /// Is integrated object `a` a (transitive) ancestor of `o`?
    pub fn above(&self, o: ObjectId, a: ObjectId) -> bool {
        self.ancestors
            .get(self.topo[o.index()], self.topo[a.index()])
    }

    /// Number of ancestors of integrated object `o`.
    pub fn ancestor_count(&self, o: ObjectId) -> u32 {
        self.ancestors.count(self.topo[o.index()])
    }

    /// The ancestors of integrated object `o`, in no promised order.
    pub fn ancestor_ids(&self, o: ObjectId) -> impl Iterator<Item = ObjectId> + '_ {
        let node = self.topo[o.index()];
        self.ancestors.ones(node).map(|x| self.id(x))
    }
}

/// Build the node lattice over the sorted `universe` from the pinned
/// object relations in `view`, in the buffers of `nodes`.
pub(super) fn build_lattice<'u>(
    catalog: &Catalog,
    view: &ConstraintView<'_>,
    universe: &'u [GObj],
    mut nodes: Nodes,
) -> Result<Lattice<'u>> {
    // 1–3. Merge `equals` groups; containment order and derived pairs.
    nodes::merge_equal(&mut nodes, view, universe.len());
    nodes::classify(catalog, view, universe, &mut nodes)?;
    let m = nodes.base();

    // 4. Transitive closure of PP, then reduction to Hasse edges.
    let mut above = BitRows::new(m); // above.get(x, y): x ⊂ y
    for &(x, y) in &nodes.edges {
        above.set(x, y);
    }
    // Hasse edges are at most the containment pairs; add the
    // structural and the derived edges.
    let links: usize = universe
        .iter()
        .map(|o| catalog.schema(o.schema).object(o.object).parents().len())
        .sum();
    let bound = nodes.edges.len() + links + 2 * nodes.derived.len();
    nodes.edges.clear();
    nodes.edges.reserve_exact(bound);
    for k in 0..m {
        for i in 0..m {
            if above.get(i, k) {
                above.union_row(i, k);
            }
        }
    }
    if (0..m).any(|i| above.get(i, i)) {
        return Err(CoreError::InconsistentLattice(
            "containment cycle among merged nodes".to_owned(),
        ));
    }
    for x in 0..m {
        for y in above.ones(x) {
            let redundant = above.ones(x).any(|z| z != y && above.get(z, y));
            if !redundant {
                nodes.edges.push((x, y));
            }
        }
    }

    // 4b. Structural category edges that no pinned PP fact covers: a
    //     multi-parent category is a subset of the *union* of its parents,
    //     so no binary PP fact is seeded for it — but the edge must
    //     survive into the integrated schema. Add any member's structural
    //     parent edge whose target is not already reachable upward;
    //     `above` stays the reachability of the edges placed so far.
    let Nodes { groups, edges, .. } = &mut nodes;
    for i in 0..m {
        for &at in groups.positions(i) {
            let member = universe[at];
            let parents = catalog
                .schema(member.schema)
                .object(member.object)
                .parents();
            for &p in parents {
                let at = universe
                    .binary_search(&GObj::new(member.schema, p))
                    .expect("a structural parent is in its schema's universe");
                let parent = groups.group_of[at];
                if parent == i || above.get(i, parent) {
                    continue;
                }
                edges.push((i, parent));
                for d in 0..m {
                    if d == i || above.get(d, i) {
                        above.set(d, parent);
                        above.union_row(d, parent);
                    }
                }
            }
        }
    }

    // 5. Derived superclasses for overlap / disjoint-integrable pairs.
    nodes.push_derived_edges();
    nodes.sort_edges();

    // 6. Names: base nodes first (derived names reference child names).
    nodes.names.reserve_exact(nodes.len());
    let name = |o: GObj| catalog.schema(o.schema).object(o.object).name.as_str();
    for x in 0..m {
        let computed = {
            let mut members = nodes.members(universe, x);
            if members.len() == 1 {
                name(members.next().expect("a base node has a member")).to_owned()
            } else {
                equivalent_object_name_of(members.map(name))
            }
        };
        nodes.names.push(computed);
    }
    nodes.name_derived();

    // 7. Topological order, parents first, and every node's ancestors.
    let (topo, pos) = topo_order(&nodes).ok_or_else(|| {
        CoreError::InconsistentLattice("cycle in integrated IS-A graph".to_owned())
    })?;
    let ancestors = BitRows::ancestors(nodes.len(), topo.iter().copied(), |i| nodes.parents(i));

    Ok(Lattice {
        universe,
        nodes,
        topo,
        pos,
        ancestors,
    })
}

/// Kahn's order over parent edges — roots ascending, then each node's
/// children in index order as their last parent is taken — and each
/// node's place in it. A child is ready once every parent of it was
/// taken, which its parents' places tell.
fn topo_order(nodes: &Nodes) -> Option<(Vec<usize>, Vec<usize>)> {
    let n = nodes.len();
    // `(parent, child)`, ascending: each node's children in index order.
    let mut by_parent: Vec<(usize, usize)> = nodes.edges.iter().map(|&(c, p)| (p, c)).collect();
    by_parent.sort_unstable();
    let mut pos = vec![usize::MAX; n];
    let mut out: Vec<usize> = Vec::with_capacity(n);
    for (i, place) in pos.iter_mut().enumerate() {
        if nodes.parents(i).len() == 0 {
            *place = out.len();
            out.push(i);
        }
    }
    let mut taken = 0;
    while let Some(&i) = out.get(taken) {
        taken += 1;
        let from = by_parent.partition_point(|&(p, _)| p < i);
        for &(p, c) in &by_parent[from..] {
            if p != i {
                break;
            }
            if nodes.parents(c).all(|q| pos[q] < taken) {
                pos[c] = out.len();
                out.push(c);
            }
        }
    }
    (out.len() == n).then_some((out, pos))
}

/// Schema assembly state shared between the object and relationship
/// passes.
pub(super) struct Assembled<'u> {
    pub builder: SchemaBuilder,
    pub object_origin: Vec<NodeOrigin>,
    pub object_attr_prov: Vec<Vec<AttrProvenance>>,
    /// Component object → integrated object, sorted by component.
    pub object_map: Vec<(GObj, ObjectId)>,
    /// The object lattice: ancestry of the integrated objects, and
    /// buffers for the relationship lattice.
    pub lattice: Lattice<'u>,
    /// Element names claimed so far: object classes, then relationship
    /// sets.
    pub claims: Claims,
    pub slots: Slots,
    pub rel_origin: Vec<RelOrigin>,
    pub rel_attr_prov: Vec<Vec<AttrProvenance>>,
    pub rel_lattice: Vec<(RelId, RelId)>,
    /// Component relationship set → integrated one, sorted by component.
    pub rel_map: Vec<(GRel, RelId)>,
}

impl Assembled<'_> {
    /// Claim a unique element name for the computed name `proposed`,
    /// after the caller's rename.
    pub fn claim(&mut self, options: &IntegrationOptions, proposed: String) -> String {
        let builder = &self.builder;
        let base = renamed(&options.rename, proposed);
        self.claims.claim(base, |name| element(builder, name))
    }
}

/// The claim holding element name `name`: object classes come first,
/// then relationship sets.
fn element(builder: &SchemaBuilder, name: &str) -> Option<usize> {
    let objects = builder.pending_objects();
    objects.iter().position(|o| o.name == name).or_else(|| {
        let rels = builder.pending_relationships();
        Some(objects.len() + rels.iter().position(|r| r.name == name)?)
    })
}

/// Emit the object classes of the integrated schema from the lattice and
/// the attribute slots.
pub(super) fn assemble<'u>(
    catalog: &Catalog,
    lattice: Lattice<'u>,
    slots: Slots,
    schema_name: String,
    options: &IntegrationOptions,
) -> Assembled<'u> {
    let n = lattice.nodes.len();
    let mut builder = SchemaBuilder::new(schema_name);
    builder.reserve(n, 0);
    let mut a = Assembled {
        builder,
        object_origin: Vec::with_capacity(n),
        object_attr_prov: Vec::with_capacity(n),
        object_map: Vec::with_capacity(lattice.universe.len()),
        lattice,
        claims: Claims::default(),
        slots,
        rel_origin: Vec::new(),
        rel_attr_prov: Vec::new(),
        rel_lattice: Vec::new(),
        rel_map: Vec::new(),
    };
    // Emission follows the topological order, so it is integrated
    // ObjectId order.
    let mut attr_names = Claims::default();
    for k in 0..n {
        let i = a.lattice.topo[k];
        let computed = std::mem::take(&mut a.lattice.nodes.names[i]);
        let name = a.claim(options, computed);
        let lattice = &a.lattice;
        let parents: Vec<ObjectId> = lattice.nodes.parents(i).map(|p| lattice.id(p)).collect();
        let ob = if parents.is_empty() {
            a.builder.entity_set(name)
        } else {
            a.builder.category(name, parents)
        };
        let (ob, provenance) = a.slots.emit(catalog, i, ob, &mut attr_names);
        let id = ob.finish();
        debug_assert_eq!(id, lattice.id(i));
        a.object_attr_prov.push(provenance);
    }

    let (lattice, universe) = (&a.lattice, a.lattice.universe);
    let origin = |&i: &usize| lattice.nodes.origin(universe, i, |x| lattice.id(x));
    a.object_origin.extend(lattice.topo.iter().map(origin));
    for x in 0..lattice.nodes.base() {
        let id = lattice.id(x);
        let members = lattice.nodes.members(universe, x);
        a.object_map.extend(members.map(|m| (m, id)));
    }
    a.object_map.sort_unstable();
    a
}
