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
use crate::cluster::Partition;
use crate::element::Element;
use crate::error::{CoreError, Result};

/// The nodes of one lattice, in flat buffers that a later lattice
/// reuses. Base nodes are the equals groups of a sorted universe, whose
/// members are read by position; derived nodes follow them.
#[derive(Debug, Default)]
pub(super) struct Nodes {
    /// Base node `x` holds the universe positions `groups.positions(x)`.
    pub groups: Partition,
    /// Derived node `base() + k` sits above the base nodes `derived[k]`.
    pub derived: Vec<(usize, usize)>,
    /// `(child, parent)` edges; once [`Nodes::sort_edges`] ran, sorted by
    /// child, each child's parents in the order they were placed.
    pub edges: Vec<(usize, usize)>,
    /// Each node's name before uniquing: derived names are built from
    /// their children's.
    pub names: Vec<String>,
}

impl Nodes {
    /// Number of base nodes.
    pub fn base(&self) -> usize {
        self.groups.len()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.base() + self.derived.len()
    }

    /// Universe positions of node `x`'s members (none for a derived node).
    pub fn positions(&self, x: usize) -> &[usize] {
        if x < self.base() {
            self.groups.positions(x)
        } else {
            &[]
        }
    }

    /// Members of node `x`, read from its `universe`.
    pub fn members<'u, E: Copy>(
        &self,
        universe: &'u [E],
        x: usize,
    ) -> impl ExactSizeIterator<Item = E> + Clone + use<'_, 'u, E> {
        self.positions(x).iter().map(move |&i| universe[i])
    }

    /// For a derived node, its two children.
    pub fn derived_children(&self, x: usize) -> Option<(usize, usize)> {
        x.checked_sub(self.base()).map(|k| self.derived[k])
    }

    /// Make each derived node a parent of both its children.
    pub fn push_derived_edges(&mut self) {
        let base = self.base();
        for (k, &(x, y)) in self.derived.iter().enumerate() {
            self.edges.push((x, base + k));
            self.edges.push((y, base + k));
        }
    }

    /// Group the edges by child; a stable sort keeps each child's
    /// parents in placement order.
    pub fn sort_edges(&mut self) {
        self.edges.sort_by_key(|&(child, _)| child);
    }

    /// Parents of node `x`, in placement order (after `sort_edges`).
    pub fn parents(&self, x: usize) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
        let from = self.edges.partition_point(|&(c, _)| c < x);
        let to = from + self.edges[from..].partition_point(|&(c, _)| c == x);
        self.edges[from..to].iter().map(|&(_, p)| p)
    }

    /// Where node `x` came from, given its `universe` and the integrated
    /// id of every node.
    pub fn origin<E: Copy, Id>(
        &self,
        universe: &[E],
        x: usize,
        id: impl Fn(usize) -> Id,
    ) -> Origin<E, Id> {
        match self.derived_children(x) {
            Some((a, b)) => Origin::DerivedSuper {
                children: vec![id(a), id(b)],
            },
            None if self.positions(x).len() == 1 => Origin::Copied(universe[self.positions(x)[0]]),
            None => Origin::Merged(self.members(universe, x).collect()),
        }
    }

    /// Name every derived node after its children (`D_Stud_Facu`); base
    /// nodes must already be named, in order.
    pub fn name_derived(&mut self) {
        self.names.reserve_exact(self.derived.len());
        for &(x, y) in &self.derived {
            let name = derived_object_name(&[self.names[x].as_str(), self.names[y].as_str()]);
            self.names.push(name);
        }
    }
}

/// Merge the sorted `universe`, whose constraints `view` holds, into
/// equals groups: the base nodes of `nodes`, whose earlier contents are
/// dropped.
pub(super) fn merge_equal(nodes: &mut Nodes, view: &ConstraintView<'_>, n: usize) {
    nodes
        .groups
        .fill(n, |i, j| view.known(i, j) == Some(Rel5::Eq));
    nodes.derived.clear();
    nodes.edges.clear();
    nodes.names.clear();
}

/// Classify every pair of base nodes by the relation pinned between
/// their members: an edge `(child, parent)` for each pair pinned to
/// proper containment, in pair order, and a derived node for each pair
/// overlapping, or disjoint with the DDA's integrable mark.
pub(super) fn classify<E: Element>(
    catalog: &Catalog,
    view: &ConstraintView<'_>,
    universe: &[E],
    nodes: &mut Nodes,
) -> Result<()> {
    let Nodes {
        groups,
        derived,
        edges,
        ..
    } = nodes;
    let m = groups.len();
    for x in 0..m {
        for y in x + 1..m {
            // The node-level relation of `x` to `y`: the intersection over
            // member pairs.
            let (px, py) = (groups.positions(x), groups.positions(y));
            let pairs = || px.iter().flat_map(|&i| py.iter().map(move |&j| (i, j)));
            let set = pairs().fold(Rel5Set::ALL, |set, (i, j)| set.intersect(view.get(i, j)));
            let names = || {
                (
                    catalog.display(universe[px[0]]),
                    catalog.display(universe[py[0]]),
                )
            };
            if set.is_empty() {
                let (a, b) = names();
                return Err(CoreError::InconsistentLattice(format!(
                    "no relation possible between `{a}` and `{b}` after equals-merging"
                )));
            }
            match set.singleton() {
                Some(Rel5::Pp) => edges.push((x, y)),
                Some(Rel5::Ppi) => edges.push((y, x)),
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
    Ok(())
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
    pub fn ancestors<P: IntoIterator<Item = usize>>(
        n: usize,
        order: impl Iterator<Item = usize>,
        parents_of: impl Fn(usize) -> P,
    ) -> Self {
        let mut rows = Self::new(n);
        for i in order {
            for p in parents_of(i) {
                rows.set(i, p);
                rows.union_row(i, p);
            }
        }
        rows
    }
}
