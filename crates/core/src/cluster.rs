//! Clusters — the partition step that opens phase 4.
//!
//! Paper §3.5: "This involves creating clusters of entity sets. A cluster
//! is a group of related objects that are connected by any assertion except
//! disjoint [non-]integrable. The concept of cluster helps in partitioning
//! the schemas to more manageable subsets."
//!
//! A pair is *connecting* when its relation is pinned to `EQ`, `PP`, `PPi`
//! or `PO`, or pinned to `DR` with the DDA's disjoint-but-integrable mark.
//! Connections include intra-schema category edges, so a category travels
//! with its entity set into the cluster (which is how `sc4.Grad_student`
//! joins the `sc3.Instructor`/`sc4.Student` cluster behind Screen 9).

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use crate::assertion::Rel5;
use crate::closure::AssertionEngine;

/// Plain union–find with path compression and union by size.
#[derive(Clone, Debug)]
pub struct Dsu {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Dsu {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets of `a` and `b`; returns `true` when they were
    /// separate.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        true
    }

    /// Are `a` and `b` in the same set?
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// The cluster partition of a node universe.
#[derive(Clone, Debug)]
pub struct Clusters<N> {
    /// Each cluster as a sorted member list; clusters ordered by smallest
    /// member.
    pub groups: Vec<Vec<N>>,
    by_node: HashMap<N, usize>,
}

impl<N: Copy + Eq + Hash + Ord> Clusters<N> {
    /// Which cluster a node belongs to (index into `groups`).
    pub fn cluster_of(&self, n: N) -> Option<usize> {
        self.by_node.get(&n).copied()
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` when there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Clusters with more than one member (those that actually integrate).
    pub fn non_trivial(&self) -> impl Iterator<Item = &Vec<N>> {
        self.groups.iter().filter(|g| g.len() > 1)
    }
}

/// Partition `universe` into clusters using the engine's pinned relations.
pub fn clusters<N>(engine: &AssertionEngine<N>, universe: &[N]) -> Clusters<N>
where
    N: Copy + Eq + Ord + Hash + fmt::Debug,
{
    let groups = partition(universe, |a, b| connects(engine, a, b));
    let by_node = groups
        .iter()
        .enumerate()
        .flat_map(|(gi, g)| g.iter().map(move |&n| (n, gi)))
        .collect();
    Clusters { groups, by_node }
}

/// The connected components of `universe` under `linked`: each sorted,
/// ordered by smallest member. Clusters and phase 4's equals-merging
/// both partition this way.
pub fn partition<N>(universe: &[N], linked: impl Fn(N, N) -> bool) -> Vec<Vec<N>>
where
    N: Copy + Ord,
{
    let mut dsu = Dsu::new(universe.len());
    for (i, &a) in universe.iter().enumerate() {
        for (j, &b) in universe.iter().enumerate().skip(i + 1) {
            if linked(a, b) {
                dsu.union(i, j);
            }
        }
    }
    let mut groups_by_root: Vec<Vec<N>> = vec![Vec::new(); universe.len()];
    for (i, &n) in universe.iter().enumerate() {
        groups_by_root[dsu.find(i)].push(n);
    }
    let mut groups: Vec<Vec<N>> = groups_by_root.into_iter().filter(|g| !g.is_empty()).collect();
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort_by(|a, b| a[0].cmp(&b[0]));
    groups
}

/// Does the pinned relation between `a` and `b` connect them into one
/// cluster?
pub fn connects<N>(engine: &AssertionEngine<N>, a: N, b: N) -> bool
where
    N: Copy + Eq + Ord + Hash + fmt::Debug,
{
    match engine.known(a, b) {
        Some(Rel5::Eq | Rel5::Pp | Rel5::Ppi | Rel5::Po) => true,
        Some(Rel5::Dr) => engine.is_integrable_dr(a, b),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::Assertion;

    fn nm(n: u32) -> String {
        format!("n{n}")
    }

    #[test]
    fn dsu_basics() {
        let mut d = Dsu::new(5);
        assert!(d.union(0, 1));
        assert!(d.union(3, 4));
        assert!(!d.union(1, 0));
        assert!(d.same(0, 1));
        assert!(!d.same(1, 3));
        d.union(1, 3);
        assert!(d.same(0, 4));
    }

    #[test]
    fn university_clusters() {
        // 0=sc1.Student 1=sc1.Department 2=sc2.Grad 3=sc2.Faculty 4=sc2.Dept
        let mut e = AssertionEngine::<u32>::new();
        e.assert(1, 4, Assertion::Equal, nm).unwrap();
        e.assert(0, 2, Assertion::Contains, nm).unwrap();
        e.assert(0, 3, Assertion::DisjointIntegrable, nm).unwrap();
        let cl = clusters(&e, &[0, 1, 2, 3, 4]);
        assert_eq!(cl.len(), 2);
        assert_eq!(cl.groups[0], vec![0, 2, 3]);
        assert_eq!(cl.groups[1], vec![1, 4]);
        assert_eq!(cl.cluster_of(3), Some(0));
        assert_eq!(cl.non_trivial().count(), 2);
    }

    #[test]
    fn disjoint_non_integrable_does_not_connect() {
        let mut e = AssertionEngine::<u32>::new();
        e.assert(0, 1, Assertion::DisjointNonIntegrable, nm).unwrap();
        let cl = clusters(&e, &[0, 1]);
        assert_eq!(cl.len(), 2, "kept separate");
        assert!(!connects(&e, 0, 1));
    }

    #[test]
    fn derived_relations_connect_too() {
        // 0 ⊆ 1, 1 ⊆ 2: the derived 0 ⊆ 2 joins all three even without a
        // direct 0–2 assertion (and, trivially, the chain already does).
        let mut e = AssertionEngine::<u32>::new();
        e.assert(0, 1, Assertion::ContainedIn, nm).unwrap();
        e.assert(1, 2, Assertion::ContainedIn, nm).unwrap();
        assert!(connects(&e, 0, 2));
        let cl = clusters(&e, &[0, 1, 2, 9]);
        assert_eq!(cl.len(), 2);
        assert_eq!(cl.groups[1], vec![9], "untouched node is a singleton");
    }

    #[test]
    fn unrelated_nodes_are_singletons() {
        let e = AssertionEngine::<u32>::new();
        let cl = clusters(&e, &[7, 8, 9]);
        assert_eq!(cl.len(), 3);
        assert!(cl.non_trivial().next().is_none());
        assert!(cl.cluster_of(42).is_none());
    }
}
