//! The equals-merged nodes both lattices of phase 4 are built from.
//!
//! Object classes and relationship sets are integrated "in a similar
//! manner": elements pinned *equal* merge into one node, and each pair of
//! nodes is then classified by the relation pinned between their members
//! — properly contained, overlapping, or disjoint but integrable (both of
//! which get a derived superset node), or left apart. This module does
//! that once for either [`Element`] kind, reading the relations from one
//! [`ConstraintView`] over the kind's sorted universe. What each lattice
//! then does with the containment pairs stays with its kind: object
//! classes reduce them to Hasse edges and add structural category edges
//! (`super::objects`); relationship sets record every pair as a lattice
//! edge and rebind participant legs (`super::rels`).
//!
//! Both lattices answer "is `a` above `b`?" from [`BitRows`]: one bit row
//! of (transitive) ancestors per node. An ordered ancestor list is built
//! only to break a tie between ancestors: nearest first for attribute
//! absorption (`super::objects::Lattice::nearest_first`, once per node),
//! discovery order for relationship legs (`super::rels`, once per
//! integration).

use super::names::derived_object_name;
use super::Origin;
use crate::assertion::{Rel5, Rel5Set};
use crate::catalog::Catalog;
use crate::closure::ConstraintView;
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
    /// The node of each universe position.
    pub node_of: Vec<usize>,
    /// `(child, parent)` node pairs pinned to proper containment, in pair
    /// order.
    pub contained: Vec<(usize, usize)>,
    /// Node pairs that get a derived superset: overlapping, or disjoint
    /// with the DDA's integrable mark.
    pub derived: Vec<(usize, usize)>,
}

/// Merge the sorted `universe`, whose constraints `view` holds, into
/// equals groups and classify every pair of groups.
pub(super) fn merge<E: Element>(
    catalog: &Catalog,
    view: &ConstraintView<'_>,
    universe: &[E],
) -> Result<Merged<E>> {
    let (groups, node_of) = partition(universe, |i, j| view.known(i, j) == Some(Rel5::Eq));
    let m = groups.len();
    let nodes: Vec<Node<E>> = groups
        .into_iter()
        .map(|members| Node {
            members,
            parents: Vec::new(),
            derived_children: None,
            name: String::new(),
        })
        .collect();

    // Universe positions of node `x`: `at[start[x]..start[x + 1]]`.
    let mut start = Vec::with_capacity(m + 1);
    let mut at = Vec::with_capacity(universe.len());
    for node in &nodes {
        start.push(at.len());
        at.extend(node.members.iter().map(|e| {
            universe
                .binary_search(e)
                .expect("a member is in its universe")
        }));
    }
    start.push(at.len());
    let positions = |x: usize| &at[start[x]..start[x + 1]];

    let mut contained = Vec::new();
    let mut derived = Vec::new();
    for x in 0..m {
        for y in x + 1..m {
            // The node-level relation of `x` to `y`: the intersection over
            // member pairs.
            let pairs = || {
                positions(x)
                    .iter()
                    .flat_map(|&i| positions(y).iter().map(move |&j| (i, j)))
            };
            let set = pairs().fold(Rel5Set::ALL, |set, (i, j)| set.intersect(view.get(i, j)));
            let names = || {
                (
                    catalog.display(nodes[x].members[0]),
                    catalog.display(nodes[y].members[0]),
                )
            };
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
                Some(Rel5::Dr) if pairs().any(|(i, j)| view.is_integrable_dr(i, j)) => {
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
        node_of,
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

/// A square bit matrix over node indexes: row `i` is a set of nodes.
#[derive(Clone, Debug)]
pub(super) struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    /// `n` empty rows of `n` bits.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Self {
            words,
            bits: vec![0; n * words],
        }
    }

    /// Is bit `j` of row `i` set?
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    /// Set bit `j` of row `i`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize) {
        self.bits[i * self.words + j / 64] |= 1 << (j % 64);
    }

    /// Row `i` becomes its union with row `j`.
    pub fn union_row(&mut self, i: usize, j: usize) {
        for w in 0..self.words {
            self.bits[i * self.words + w] |= self.bits[j * self.words + w];
        }
    }

    /// The set bits of row `i`, ascending.
    pub fn ones(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let row = &self.bits[i * self.words..(i + 1) * self.words];
        row.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let k = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + k
                })
            })
        })
    }

    /// Number of set bits in row `i`.
    pub fn count(&self, i: usize) -> u32 {
        self.bits[i * self.words..(i + 1) * self.words]
            .iter()
            .map(|w| w.count_ones())
            .sum()
    }

    /// Ancestor rows of a graph whose `parents_of` lists come parents
    /// first in `order`: row `i` holds every node above `i`.
    pub fn ancestors<'p>(
        n: usize,
        order: impl Iterator<Item = usize>,
        parents_of: impl Fn(usize) -> &'p [usize],
    ) -> Self {
        let mut rows = Self::new(n);
        for i in order {
            for &p in parents_of(i) {
                rows.set(i, p);
                rows.union_row(i, p);
            }
        }
        rows
    }
}
