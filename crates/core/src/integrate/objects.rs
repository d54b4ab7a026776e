//! Object-class lattice construction and schema assembly.
//!
//! The first half of phase 4. On the equals-merged nodes of
//! `super::nodes`, place IS-A edges for containment (with transitive
//! reduction so only Hasse edges appear as category links, plus the
//! structural category edges no pinned fact covers), add derived
//! superclasses for overlap and disjoint-integrable pairs, and
//! topologically assemble the object side of the integrated schema.

use std::collections::{HashMap, VecDeque};

use sit_ecr::{ObjectId, RelId, SchemaBuilder};

use super::attrs::Placement;
use super::names::{equivalent_object_name, NamePool};
use super::nodes::{self, Merged, Node};
use super::{AttrProvenance, IntegrationOptions, NodeOrigin, RelOrigin};
use crate::catalog::{Catalog, GObj, GRel};
use crate::closure::AssertionEngine;
use crate::error::{CoreError, Result};

/// The object lattice: nodes plus a parents-first topological order.
#[derive(Clone, Debug)]
pub(super) struct Lattice {
    pub nodes: Vec<Node<GObj>>,
    /// Node indexes, parents before children.
    pub topo: Vec<usize>,
}

impl Lattice {
    /// All (transitive) ancestors of node `i`, nearest first (BFS).
    pub fn ancestors(&self, i: usize) -> Vec<usize> {
        let mut seen = vec![false; self.nodes.len()];
        let mut out = Vec::new();
        let mut q = VecDeque::from([i]);
        seen[i] = true;
        while let Some(x) = q.pop_front() {
            for &p in &self.nodes[x].parents {
                if !seen[p] {
                    seen[p] = true;
                    out.push(p);
                    q.push_back(p);
                }
            }
        }
        out
    }
}

/// Build the node lattice from the pinned object relations.
pub(super) fn build_lattice(
    catalog: &Catalog,
    engine: &AssertionEngine<GObj>,
    universe: &[GObj],
) -> Result<Lattice> {
    // 1–3. Merge `equals` groups; containment order and derived pairs.
    let Merged {
        mut nodes,
        contained,
        derived,
    } = nodes::merge(catalog, engine, universe)?;
    let n = nodes.len();

    // 4. Transitive closure of PP, then reduction to Hasse edges.
    let mut closure = vec![vec![false; n]; n]; // closure[x][y]: x ⊂ y
    for (x, y) in contained {
        closure[x][y] = true;
    }
    for k in 0..n {
        for i in 0..n {
            if closure[i][k] {
                let (head, tail) = if i < k {
                    let (a, b) = closure.split_at_mut(k);
                    (&mut a[i], &b[0])
                } else {
                    let (a, b) = closure.split_at_mut(i);
                    (&mut b[0], &a[k])
                };
                for (dst, &src) in head.iter_mut().zip(tail.iter()) {
                    *dst = *dst || src;
                }
            }
        }
    }
    for (i, row) in closure.iter().enumerate() {
        if row[i] {
            return Err(CoreError::InconsistentLattice(
                "containment cycle among merged nodes".to_owned(),
            ));
        }
    }
    for x in 0..n {
        for y in 0..n {
            if !closure[x][y] {
                continue;
            }
            let redundant = (0..n).any(|z| z != x && z != y && closure[x][z] && closure[z][y]);
            if !redundant {
                nodes[x].parents.push(y);
            }
        }
    }

    // 4b. Structural category edges that no pinned PP fact covers: a
    //     multi-parent category is a subset of the *union* of its parents,
    //     so no binary PP fact is seeded for it — but the edge must
    //     survive into the integrated schema. Add any member's structural
    //     parent edge whose target is not already reachable upward.
    let node_of: HashMap<GObj, usize> = nodes
        .iter()
        .enumerate()
        .flat_map(|(i, node)| node.members.iter().map(move |&m| (m, i)))
        .collect();
    let mut struct_edges: Vec<(usize, usize)> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        for &m in &node.members {
            for &p in catalog.schema(m.schema).object(m.object).parents() {
                let parent = node_of[&GObj::new(m.schema, p)];
                if parent != i {
                    struct_edges.push((i, parent));
                }
            }
        }
    }
    for (child, parent) in struct_edges {
        if !reachable_up(&nodes, child, parent) {
            nodes[child].parents.push(parent);
        }
    }

    // 5. Derived superclasses for overlap / disjoint-integrable pairs.
    nodes::add_derived(&mut nodes, &derived);

    // 6. Names: base nodes first (derived names reference child names).
    for node in &mut nodes {
        if node.derived_children.is_some() {
            continue;
        }
        let names: Vec<&str> = node
            .members
            .iter()
            .map(|&m| catalog.schema(m.schema).object(m.object).name.as_str())
            .collect();
        node.name = if names.len() == 1 {
            names[0].to_owned()
        } else {
            equivalent_object_name(&names)
        };
    }
    nodes::name_derived(&mut nodes);

    // 7. Topological order, parents first.
    let topo = topo_order(&nodes).ok_or_else(|| {
        CoreError::InconsistentLattice("cycle in integrated IS-A graph".to_owned())
    })?;

    Ok(Lattice { nodes, topo })
}

/// Is `target` reachable from `from` by walking parent edges?
fn reachable_up(nodes: &[Node<GObj>], from: usize, target: usize) -> bool {
    let mut seen = vec![false; nodes.len()];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(x) = stack.pop() {
        for &p in &nodes[x].parents {
            if p == target {
                return true;
            }
            if !seen[p] {
                seen[p] = true;
                stack.push(p);
            }
        }
    }
    false
}

fn topo_order(nodes: &[Node<GObj>]) -> Option<Vec<usize>> {
    let n = nodes.len();
    let mut indeg = vec![0usize; n]; // number of parents not yet emitted
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in nodes.iter().enumerate() {
        indeg[i] = node.parents.len();
        for &p in &node.parents {
            children[p].push(i);
        }
    }
    let mut q: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut out = Vec::with_capacity(n);
    while let Some(i) = q.pop_front() {
        out.push(i);
        for &c in &children[i] {
            indeg[c] -= 1;
            if indeg[c] == 0 {
                q.push_back(c);
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
    pub object_map: HashMap<GObj, ObjectId>,
    /// Integrated object id per lattice node index.
    pub node_ids: Vec<ObjectId>,
    pub pool: NamePool,
    pub rel_origin: Vec<RelOrigin>,
    pub rel_attr_prov: Vec<Vec<AttrProvenance>>,
    pub rel_lattice: Vec<(RelId, RelId)>,
    pub rel_map: HashMap<GRel, RelId>,
}

/// Emit the object classes of the integrated schema from the lattice and
/// the attribute placements.
pub(super) fn assemble(
    lattice: &Lattice,
    placements: Vec<Vec<Placement>>,
    schema_name: &str,
    options: &IntegrationOptions,
) -> Assembled {
    let mut builder = SchemaBuilder::new(schema_name);
    let mut pool = NamePool::with_overrides(options.rename.clone());
    let n = lattice.nodes.len();
    let mut node_ids = vec![ObjectId::new(0); n];
    // Emission follows the topological order, so it is integrated
    // ObjectId order.
    let mut object_attr_prov = Vec::with_capacity(n);

    for &i in &lattice.topo {
        let node = &lattice.nodes[i];
        let name = pool.claim(&node.name);
        let parent_ids: Vec<ObjectId> = node.parents.iter().map(|&p| node_ids[p]).collect();
        let mut ob = if parent_ids.is_empty() {
            builder.entity_set(name)
        } else {
            builder.category(name, parent_ids)
        };
        let mut prov_row = Vec::new();
        // Attribute names must be unique within the object.
        let mut attr_pool = NamePool::default();
        for placement in &placements[i] {
            let attr_name = attr_pool.claim(&placement.name());
            ob = if placement.key {
                ob.attr_key(attr_name, placement.domain.clone())
            } else {
                ob.attr(attr_name, placement.domain.clone())
            };
            prov_row.push(AttrProvenance {
                components: placement.components.clone(),
            });
        }
        node_ids[i] = ob.finish();
        object_attr_prov.push(prov_row);
    }

    // Origins are resolved only now: a derived superclass is emitted
    // before its children (parents-first order), so the children's ids
    // exist only after the loop.
    let object_origin: Vec<NodeOrigin> = lattice
        .topo
        .iter()
        .map(|&i| lattice.nodes[i].origin(&node_ids))
        .collect();
    let object_map: HashMap<GObj, ObjectId> = lattice
        .nodes
        .iter()
        .enumerate()
        .flat_map(|(i, node)| node.members.iter().map(move |&m| (m, i)))
        .map(|(m, i)| (m, node_ids[i]))
        .collect();

    Assembled {
        builder,
        object_origin,
        object_attr_prov,
        object_map,
        node_ids,
        pool,
        rel_origin: Vec::new(),
        rel_attr_prov: Vec::new(),
        rel_lattice: Vec::new(),
        rel_map: HashMap::new(),
    }
}
