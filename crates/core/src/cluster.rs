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

/// Plain union–find with path halving. A set's representative is its
/// smallest member, so one array holds it all.
#[derive(Clone, Debug)]
pub struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    /// Representative of `x`'s set: its smallest member.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns `true` when they were
    /// separate.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        // Every link points to a smaller member.
        self.parent[ra.max(rb)] = ra.min(rb);
        true
    }

    /// Are `a` and `b` in the same set?
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// The cluster partition of a node universe: every member in one
/// buffer, each cluster a sorted run of it, clusters ordered by smallest
/// member.
#[derive(Clone, Debug)]
pub struct Clusters<N> {
    members: Vec<N>,
    /// Cluster `g` is `members[start[g]..start[g + 1]]`.
    start: Vec<usize>,
}

impl<N> Clusters<N> {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.groups().len()
    }

    /// `true` when there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Each cluster's members, ascending; clusters ordered by smallest
    /// member.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = &[N]> + '_ {
        self.start.windows(2).map(|w| &self.members[w[0]..w[1]])
    }

    /// Clusters with more than one member (those that actually integrate).
    pub fn non_trivial(&self) -> impl Iterator<Item = &[N]> + '_ {
        self.groups().filter(|g| g.len() > 1)
    }
}

/// Partition a sorted `universe` into clusters using the pinned relations
/// among it, which `view` holds. `parts` lends its buffers.
pub(crate) fn clusters<N: Copy + Ord>(
    view: &ConstraintView<'_>,
    universe: &[N],
    parts: &mut Partition,
) -> Clusters<N> {
    parts.fill(universe.len(), |i, j| connects(view, i, j));
    Clusters {
        members: parts.at.iter().map(|&i| universe[i]).collect(),
        start: parts.start.clone(),
    }
}

/// The connected components of positions `0..n` under a link relation,
/// in three flat buffers: each component's positions ascending,
/// components ordered by smallest position. Clusters and phase 4's
/// equals-merging both partition this way, one after another in the
/// same buffers.
#[derive(Clone, Debug, Default)]
pub(crate) struct Partition {
    /// The component of each position.
    pub group_of: Vec<usize>,
    /// Component `g` is `at[start[g]..start[g + 1]]`.
    start: Vec<usize>,
    at: Vec<usize>,
}

impl Partition {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// The positions of component `g`, ascending.
    pub fn positions(&self, g: usize) -> &[usize] {
        &self.at[self.start[g]..self.start[g + 1]]
    }

    /// Repartition positions `0..n` into the components of `linked`,
    /// which relates positions.
    pub fn fill(&mut self, n: usize, linked: impl Fn(usize, usize) -> bool) {
        let mut parent = std::mem::take(&mut self.group_of);
        parent.clear();
        parent.extend(0..n);
        let mut dsu = Dsu { parent };
        for i in 0..n {
            for j in i + 1..n {
                if linked(i, j) {
                    dsu.union(i, j);
                }
            }
        }
        // Number the components in place, in order of smallest position:
        // a representative opens the next number, and every other
        // position links to a smaller one, numbered already.
        let mut group_of = dsu.parent;
        let mut m = 0;
        for i in 0..n {
            group_of[i] = if group_of[i] == i {
                m += 1;
                m - 1
            } else {
                group_of[group_of[i]]
            };
        }
        // Counting sort by component. `start[g]` serves as component
        // `g`'s cursor and ends at its successor's start, so it is
        // shifted back after.
        let start = &mut self.start;
        start.clear();
        start.resize(m + 1, 0);
        for &g in &group_of {
            start[g + 1] += 1;
        }
        for g in 0..m {
            start[g + 1] += start[g];
        }
        self.at.clear();
        self.at.resize(n, 0);
        for (i, &g) in group_of.iter().enumerate() {
            self.at[start[g]] = i;
            start[g] += 1;
        }
        start.copy_within(0..m, 1);
        start[0] = 0;
        self.group_of = group_of;
    }
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
    fn partition_refills_its_buffers() {
        let mut parts = Partition::default();
        // 0–3 and 3–4 link; 1 and 2 stay alone.
        parts.fill(5, |i, j| matches!((i, j), (0, 3) | (3, 4)));
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.positions(0), [0, 3, 4]);
        assert_eq!(parts.positions(1), [1]);
        assert_eq!(parts.positions(2), [2]);
        assert_eq!(parts.group_of, [0, 1, 2, 0, 0]);
        // A smaller universe reuses the buffers; nothing of the old one
        // is left.
        parts.fill(3, |i, j| (i, j) == (1, 2));
        assert_eq!(parts.len(), 2);
        assert_eq!(parts.positions(0), [0]);
        assert_eq!(parts.positions(1), [1, 2]);
        assert_eq!(parts.group_of, [0, 1, 1]);
    }

    #[test]
    fn university_clusters() {
        // 0=sc1.Student 1=sc1.Department 2=sc2.Grad 3=sc2.Faculty 4=sc2.Dept
        let mut e = AssertionEngine::<u32>::new();
        e.assert(1, 4, Assertion::Equal, nm).unwrap();
        e.assert(0, 2, Assertion::Contains, nm).unwrap();
        e.assert(0, 3, Assertion::DisjointIntegrable, nm).unwrap();
        let cl = clusters(
            &e.view(&[0, 1, 2, 3, 4]),
            &[0, 1, 2, 3, 4],
            &mut Partition::default(),
        );
        assert_eq!(cl.len(), 2);
        assert_eq!(cl.groups().collect::<Vec<_>>(), [&[0, 2, 3][..], &[1, 4]]);
        assert_eq!(cl.non_trivial().count(), 2);
    }

    #[test]
    fn disjoint_non_integrable_does_not_connect() {
        let mut e = AssertionEngine::<u32>::new();
        e.assert(0, 1, Assertion::DisjointNonIntegrable, nm)
            .unwrap();
        let cl = clusters(&e.view(&[0, 1]), &[0, 1], &mut Partition::default());
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
        let cl = clusters(
            &e.view(&[0, 1, 2, 9]),
            &[0, 1, 2, 9],
            &mut Partition::default(),
        );
        assert_eq!(cl.len(), 2);
        assert_eq!(
            cl.groups().nth(1),
            Some(&[9][..]),
            "untouched node is a singleton"
        );
    }

    #[test]
    fn unrelated_nodes_are_singletons() {
        let e = AssertionEngine::<u32>::new();
        let cl = clusters(&e.view(&[7, 8, 9]), &[7, 8, 9], &mut Partition::default());
        assert_eq!(cl.len(), 3);
        assert!(cl.non_trivial().next().is_none());
    }
}
