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

use super::attrs::{self, Placement};
use super::names::{equivalent_object_name, NamePool};
use super::nodes::{self, BitRows, Merged, Node};
use super::{AttrProvenance, IntegrationOptions, NodeOrigin, RelOrigin};
use crate::catalog::{Catalog, GObj, GRel};
use crate::closure::ConstraintView;
use crate::error::{CoreError, Result};

/// The object lattice: nodes plus a parents-first topological order.
#[derive(Clone, Debug)]
pub(super) struct Lattice {
    pub nodes: Vec<Node<GObj>>,
    /// Node indexes, parents before children.
    pub topo: Vec<usize>,
    /// Row `i`: every (transitive) ancestor of node `i`.
    pub ancestors: BitRows,
}

impl Lattice {
    /// The ancestors of node `i`, nearest first (breadth-first along
    /// parent lists).
    pub fn nearest_first(&self, i: usize) -> Vec<usize> {
        let mut seen = vec![false; self.nodes.len()];
        seen[i] = true;
        let mut out = vec![i];
        let mut next = 0;
        while let Some(&x) = out.get(next) {
            next += 1;
            for &p in &self.nodes[x].parents {
                if !seen[p] {
                    seen[p] = true;
                    out.push(p);
                }
            }
        }
        out.remove(0);
        out
    }
}

/// Build the node lattice over the sorted `universe` from the pinned
/// object relations in `view`.
pub(super) fn build_lattice(
    catalog: &Catalog,
    view: &ConstraintView<'_>,
    universe: &[GObj],
) -> Result<Lattice> {
    // 1–3. Merge `equals` groups; containment order and derived pairs.
    let Merged {
        mut nodes,
        node_of,
        contained,
        derived,
    } = nodes::merge(catalog, view, universe)?;
    let n = nodes.len();

    // 4. Transitive closure of PP, then reduction to Hasse edges.
    let mut above = BitRows::new(n); // above.get(x, y): x ⊂ y
    for (x, y) in contained {
        above.set(x, y);
    }
    for k in 0..n {
        for i in 0..n {
            if above.get(i, k) {
                above.union_row(i, k);
            }
        }
    }
    if (0..n).any(|i| above.get(i, i)) {
        return Err(CoreError::InconsistentLattice(
            "containment cycle among merged nodes".to_owned(),
        ));
    }
    for (x, node) in nodes.iter_mut().enumerate() {
        for y in above.ones(x) {
            let redundant = above.ones(x).any(|z| z != y && above.get(z, y));
            if !redundant {
                node.parents.push(y);
            }
        }
    }

    // 4b. Structural category edges that no pinned PP fact covers: a
    //     multi-parent category is a subset of the *union* of its parents,
    //     so no binary PP fact is seeded for it — but the edge must
    //     survive into the integrated schema. Add any member's structural
    //     parent edge whose target is not already reachable upward;
    //     `above` stays the reachability of the edges placed so far.
    let mut struct_edges: Vec<(usize, usize)> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        for &m in &node.members {
            for &p in catalog.schema(m.schema).object(m.object).parents() {
                let at = universe
                    .binary_search(&GObj::new(m.schema, p))
                    .expect("a structural parent is in its schema's universe");
                if node_of[at] != i {
                    struct_edges.push((i, node_of[at]));
                }
            }
        }
    }
    for (child, parent) in struct_edges {
        if !above.get(child, parent) {
            nodes[child].parents.push(parent);
            for d in 0..n {
                if d == child || above.get(d, child) {
                    above.set(d, parent);
                    above.union_row(d, parent);
                }
            }
        }
    }

    // 5. Derived superclasses for overlap / disjoint-integrable pairs.
    nodes::add_derived(&mut nodes, &derived);

    // 6. Names: base nodes first (derived names reference child names).
    for node in &mut nodes {
        let name = |m: &GObj| catalog.schema(m.schema).object(m.object).name.as_str();
        node.name = match node.members.as_slice() {
            [] => continue,
            [only] => name(only).to_owned(),
            members => equivalent_object_name(&members.iter().map(name).collect::<Vec<_>>()),
        };
    }
    nodes::name_derived(&mut nodes);

    // 7. Topological order, parents first, and every node's ancestors.
    let topo = topo_order(&nodes).ok_or_else(|| {
        CoreError::InconsistentLattice("cycle in integrated IS-A graph".to_owned())
    })?;
    let ancestors = BitRows::ancestors(nodes.len(), topo.iter().copied(), |i| &nodes[i].parents);

    Ok(Lattice {
        nodes,
        topo,
        ancestors,
    })
}

/// Kahn's order over parent edges: roots ascending, then each node's
/// children in index order as their last parent is emitted.
fn topo_order(nodes: &[Node<GObj>]) -> Option<Vec<usize>> {
    let n = nodes.len();
    // Children of node `p`: `children[start[p]..start[p + 1]]`, ascending.
    let mut start = vec![0usize; n + 1];
    for node in nodes {
        for &p in &node.parents {
            start[p + 1] += 1;
        }
    }
    for p in 0..n {
        start[p + 1] += start[p];
    }
    let mut children = vec![0usize; start[n]];
    let mut fill = start[..n].to_vec();
    // Parents not yet emitted, per node.
    let mut waiting = Vec::with_capacity(n);
    for (c, node) in nodes.iter().enumerate() {
        waiting.push(node.parents.len());
        for &p in &node.parents {
            children[fill[p]] = c;
            fill[p] += 1;
        }
    }
    let mut out: Vec<usize> = Vec::with_capacity(n);
    out.extend((0..n).filter(|&i| waiting[i] == 0));
    let mut next = 0;
    while let Some(&i) = out.get(next) {
        next += 1;
        for &c in &children[start[i]..start[i + 1]] {
            waiting[c] -= 1;
            if waiting[c] == 0 {
                out.push(c);
            }
        }
    }
    (out.len() == n).then_some(out)
}

/// Schema assembly state shared between the object and relationship
/// passes.
pub(super) struct Assembled {
    pub builder: SchemaBuilder,
    pub object_origin: Vec<NodeOrigin>,
    pub object_attr_prov: Vec<Vec<AttrProvenance>>,
    /// Component object → integrated object, sorted by component.
    pub object_map: Vec<(GObj, ObjectId)>,
    /// Row `o`: every ancestor of integrated object `o`.
    pub object_ancestors: BitRows,
    pub pool: NamePool,
    pub rel_origin: Vec<RelOrigin>,
    pub rel_attr_prov: Vec<Vec<AttrProvenance>>,
    pub rel_lattice: Vec<(RelId, RelId)>,
    /// Component relationship set → integrated one, sorted by component.
    pub rel_map: Vec<(GRel, RelId)>,
}

/// Emit the object classes of the integrated schema from the lattice and
/// the attribute placements.
pub(super) fn assemble(
    catalog: &Catalog,
    lattice: Lattice,
    mut placements: Vec<Vec<Placement>>,
    schema_name: &str,
    options: &IntegrationOptions,
) -> Assembled {
    let Lattice {
        mut nodes,
        topo,
        ancestors,
    } = lattice;
    let mut builder = SchemaBuilder::new(schema_name);
    let mut pool = NamePool::with_overrides(options.rename.clone());
    let n = nodes.len();
    let mut node_ids = vec![ObjectId::new(0); n];
    // Emission follows the topological order, so it is integrated
    // ObjectId order.
    let mut object_attr_prov = Vec::with_capacity(n);

    for &i in &topo {
        let node = &mut nodes[i];
        let name = pool.claim(std::mem::take(&mut node.name));
        let parent_ids: Vec<ObjectId> = node.parents.iter().map(|&p| node_ids[p]).collect();
        let ob = if parent_ids.is_empty() {
            builder.entity_set(name)
        } else {
            builder.category(name, parent_ids)
        };
        let slots = std::mem::take(&mut placements[i]);
        let (ob, provenance) = attrs::emit(catalog, slots, ob, |ob, name, domain, key| {
            if key {
                ob.attr_key(name, domain)
            } else {
                ob.attr(name, domain)
            }
        });
        node_ids[i] = ob.finish();
        object_attr_prov.push(provenance);
    }

    // Origins are resolved only now: a derived superclass is emitted
    // before its children (parents-first order), so the children's ids
    // exist only after the loop.
    let object_origin: Vec<NodeOrigin> = topo.iter().map(|&i| nodes[i].origin(&node_ids)).collect();
    let members = nodes.iter().map(|node| node.members.len()).sum();
    let mut object_map: Vec<(GObj, ObjectId)> = Vec::with_capacity(members);
    for (node, &id) in nodes.iter().zip(&node_ids) {
        object_map.extend(node.members.iter().map(|&m| (m, id)));
    }
    object_map.sort_unstable();
    let mut object_ancestors = BitRows::new(n);
    for (i, &id) in node_ids.iter().enumerate() {
        for a in ancestors.ones(i) {
            object_ancestors.set(id.index(), node_ids[a].index());
        }
    }

    Assembled {
        builder,
        object_origin,
        object_attr_prov,
        object_map,
        object_ancestors,
        pool,
        rel_origin: Vec::new(),
        rel_attr_prov: Vec::new(),
        rel_lattice: Vec::new(),
        rel_map: Vec::new(),
    }
}
