//! The equals-merged nodes both lattices of phase 4 are built from.
//!
//! Object classes and relationship sets are integrated "in a similar
//! manner": elements pinned *equal* merge into one node, and each pair of
//! nodes is then classified by the relation pinned between their members
//! — properly contained, overlapping, or disjoint but integrable (both of
//! which get a derived superset node), or left apart. This module does
//! that once for either [`Element`] kind. What each lattice then does
//! with the containment pairs stays with its kind: object classes reduce
//! them to Hasse edges and add structural category edges
//! (`super::objects`); relationship sets record every pair as a lattice
//! edge and rebind participant legs (`super::rels`).

use super::names::derived_object_name;
use super::Origin;
use crate::assertion::{Rel5, Rel5Set};
use crate::catalog::Catalog;
use crate::closure::AssertionEngine;
use crate::cluster::partition;
use crate::element::Element;
use crate::error::{CoreError, Result};

/// A node of an integrated lattice.
#[derive(Clone, Debug)]
pub(super) struct Node<E> {
    /// Component elements merged into this node (empty for derived nodes).
    pub members: Vec<E>,
    /// Parent node indexes.
    pub parents: Vec<usize>,
    /// For derived nodes: the two child node indexes.
    pub derived_children: Option<(usize, usize)>,
    /// Display name within the integrated schema (assigned pre-assembly,
    /// final uniquification happens at claim time).
    pub name: String,
}

impl<E: Copy> Node<E> {
    /// Where the node came from, given the integrated id of every node.
    pub fn origin<Id: Copy>(&self, ids: &[Id]) -> Origin<E, Id> {
        match (self.derived_children, self.members.as_slice()) {
            (Some((x, y)), _) => Origin::DerivedSuper {
                children: vec![ids[x], ids[y]],
            },
            (None, &[only]) => Origin::Copied(only),
            (None, members) => Origin::Merged(members.to_vec()),
        }
    }
}

/// Equals-merged nodes and the relations pinned between them.
pub(super) struct Merged<E> {
    /// One node per equals group, ordered by smallest member.
    pub nodes: Vec<Node<E>>,
    /// `(child, parent)` node pairs pinned to proper containment, in pair
    /// order.
    pub contained: Vec<(usize, usize)>,
    /// Node pairs that get a derived superset: overlapping, or disjoint
    /// with the DDA's integrable mark.
    pub derived: Vec<(usize, usize)>,
}

/// Merge `universe` into equals groups and classify every pair of groups.
pub(super) fn merge<E: Element>(
    catalog: &Catalog,
    engine: &AssertionEngine<E>,
    universe: &[E],
) -> Result<Merged<E>> {
    let nodes: Vec<Node<E>> = partition(universe, |a, b| engine.known(a, b) == Some(Rel5::Eq))
        .into_iter()
        .map(|members| Node {
            members,
            parents: Vec::new(),
            derived_children: None,
            name: String::new(),
        })
        .collect();
    let mut contained = Vec::new();
    let mut derived = Vec::new();
    for (x, nx) in nodes.iter().enumerate() {
        for (y, ny) in nodes.iter().enumerate().skip(x + 1) {
            // The node-level relation: intersection over member pairs.
            let pairs = || {
                nx.members
                    .iter()
                    .flat_map(|&a| ny.members.iter().map(move |&b| (a, b)))
            };
            let set = pairs().fold(Rel5Set::ALL, |set, (a, b)| {
                set.intersect(engine.constraint(a, b))
            });
            let names = || (catalog.display(nx.members[0]), catalog.display(ny.members[0]));
            if set.is_empty() {
                let (a, b) = names();
                return Err(CoreError::InconsistentLattice(format!(
                    "no relation possible between `{a}` and `{b}` after equals-merging"
                )));
            }
            match set.singleton() {
                Some(Rel5::Pp) => contained.push((x, y)),
                Some(Rel5::Ppi) => contained.push((y, x)),
                Some(Rel5::Po) => derived.push((x, y)),
                Some(Rel5::Dr) if pairs().any(|(a, b)| engine.is_integrable_dr(a, b)) => {
                    derived.push((x, y))
                }
                Some(Rel5::Eq) => {
                    let (a, b) = names();
                    return Err(CoreError::InconsistentLattice(format!(
                        "`{a}` and `{b}` are equal but were not merged"
                    )));
                }
                Some(Rel5::Dr) | None => {}
            }
        }
    }
    Ok(Merged {
        nodes,
        contained,
        derived,
    })
}

/// Append one derived node above each pair, as a parent of both.
pub(super) fn add_derived<E>(nodes: &mut Vec<Node<E>>, pairs: &[(usize, usize)]) {
    for &(x, y) in pairs {
        let d = nodes.len();
        nodes.push(Node {
            members: Vec::new(),
            parents: Vec::new(),
            derived_children: Some((x, y)),
            name: String::new(),
        });
        nodes[x].parents.push(d);
        nodes[y].parents.push(d);
    }
}

/// Name every derived node after its children (`D_Stud_Facu`); base
/// nodes must already be named.
pub(super) fn name_derived<E>(nodes: &mut [Node<E>]) {
    for i in 0..nodes.len() {
        if let Some((x, y)) = nodes[i].derived_children {
            nodes[i].name = derived_object_name(&[nodes[x].name.as_str(), nodes[y].name.as_str()]);
        }
    }
}
