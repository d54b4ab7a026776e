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

use crate::assertion::Rel5;
use crate::closure::ConstraintView;

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
}

impl<N> Clusters<N> {
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

/// Partition a sorted `universe` into clusters using the pinned relations
/// among it, which `view` holds.
pub(crate) fn clusters<N: Copy + Ord>(view: &ConstraintView<'_>, universe: &[N]) -> Clusters<N> {
    let (groups, _) = partition(universe, |i, j| connects(view, i, j));
    Clusters { groups }
}

/// The connected components of a sorted `universe` under `linked`, which
/// relates positions in it: each sorted, ordered by smallest member, and
/// the component of each position. Clusters and phase 4's
/// equals-merging both partition this way.
pub(crate) fn partition<N: Copy>(
    universe: &[N],
    linked: impl Fn(usize, usize) -> bool,
) -> (Vec<Vec<N>>, Vec<usize>) {
    let n = universe.len();
    let mut dsu = Dsu::new(n);
    for i in 0..n {
        for j in i + 1..n {
            if linked(i, j) {
                dsu.union(i, j);
            }
        }
    }
    // A group opens at its smallest position and fills in position order.
    let mut group_of_root = vec![usize::MAX; n];
    let mut group_of = Vec::with_capacity(n);
    let mut groups: Vec<Vec<N>> = Vec::new();
    for (i, &node) in universe.iter().enumerate() {
        let root = dsu.find(i);
        if group_of_root[root] == usize::MAX {
            group_of_root[root] = groups.len();
            groups.push(Vec::new());
        }
        group_of.push(group_of_root[root]);
        groups[group_of_root[root]].push(node);
    }
    (groups, group_of)
}

/// Does the pinned relation between positions `i` and `j` connect them
/// into one cluster?
fn connects(view: &ConstraintView<'_>, i: usize, j: usize) -> bool {
    match view.known(i, j) {
        Some(Rel5::Eq | Rel5::Pp | Rel5::Ppi | Rel5::Po) => true,
        Some(Rel5::Dr) => view.is_integrable_dr(i, j),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::Assertion;
    use crate::closure::AssertionEngine;

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
        let cl = clusters(&e.view(&[0, 1, 2, 3, 4]), &[0, 1, 2, 3, 4]);
        assert_eq!(cl.len(), 2);
        assert_eq!(cl.groups[0], vec![0, 2, 3]);
        assert_eq!(cl.groups[1], vec![1, 4]);
        assert_eq!(cl.non_trivial().count(), 2);
    }

    #[test]
    fn disjoint_non_integrable_does_not_connect() {
        let mut e = AssertionEngine::<u32>::new();
        e.assert(0, 1, Assertion::DisjointNonIntegrable, nm)
            .unwrap();
        let cl = clusters(&e.view(&[0, 1]), &[0, 1]);
        assert_eq!(cl.len(), 2, "kept separate");
        assert!(!connects(&e.view(&[0, 1]), 0, 1));
    }

    #[test]
    fn derived_relations_connect_too() {
        // 0 ⊆ 1, 1 ⊆ 2: the derived 0 ⊆ 2 joins all three even without a
        // direct 0–2 assertion (and, trivially, the chain already does).
        let mut e = AssertionEngine::<u32>::new();
        e.assert(0, 1, Assertion::ContainedIn, nm).unwrap();
        e.assert(1, 2, Assertion::ContainedIn, nm).unwrap();
        assert!(connects(&e.view(&[0, 1, 2]), 0, 2));
        let cl = clusters(&e.view(&[0, 1, 2, 9]), &[0, 1, 2, 9]);
        assert_eq!(cl.len(), 2);
        assert_eq!(cl.groups[1], vec![9], "untouched node is a singleton");
    }

    #[test]
    fn unrelated_nodes_are_singletons() {
        let e = AssertionEngine::<u32>::new();
        let cl = clusters(&e.view(&[7, 8, 9]), &[7, 8, 9]);
        assert_eq!(cl.len(), 3);
        assert!(cl.non_trivial().next().is_none());
    }
}
