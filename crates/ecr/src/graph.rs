//! IS-A (generalization) graph utilities over a schema's categories.
//!
//! Categories form a directed acyclic graph over object classes: an edge
//! `child -> parent` exists when `child` is a category defined over
//! `parent`. This module materializes that graph once and answers the
//! queries the integration engine and the viewer screens need: ancestors,
//! descendants, roots, and topological order.

use std::collections::VecDeque;

use crate::ids::ObjectId;
use crate::schema::Schema;

/// Materialized IS-A graph of one schema.
#[derive(Clone, Debug)]
pub struct IsaGraph {
    /// `parents[o]` — direct parents of object `o` (empty for entity sets).
    parents: Vec<Vec<ObjectId>>,
    /// `children[o]` — direct children (categories defined over `o`).
    children: Vec<Vec<ObjectId>>,
}

impl IsaGraph {
    /// Build the graph from a schema.
    pub fn of(schema: &Schema) -> Self {
        let n = schema.object_count();
        let mut parents = vec![Vec::new(); n];
        let mut children = vec![Vec::new(); n];
        for (id, obj) in schema.objects() {
            for &p in obj.parents() {
                parents[id.index()].push(p);
                children[p.index()].push(id);
            }
        }
        Self { parents, children }
    }

    /// Number of object classes.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// `true` when the schema has no object classes.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Direct parents of `o`.
    pub fn parents(&self, o: ObjectId) -> &[ObjectId] {
        &self.parents[o.index()]
    }

    /// Direct children of `o`.
    pub fn children(&self, o: ObjectId) -> &[ObjectId] {
        &self.children[o.index()]
    }

    /// All (transitive) ancestors of `o`, breadth-first, excluding `o`.
    pub fn ancestors(&self, o: ObjectId) -> Vec<ObjectId> {
        self.reach(o, |g, x| &g.parents[x.index()])
    }

    /// All (transitive) descendants of `o`, breadth-first, excluding `o`.
    pub fn descendants(&self, o: ObjectId) -> Vec<ObjectId> {
        self.reach(o, |g, x| &g.children[x.index()])
    }

    fn reach(
        &self,
        start: ObjectId,
        next: impl Fn(&Self, ObjectId) -> &[ObjectId],
    ) -> Vec<ObjectId> {
        let mut seen = vec![false; self.len()];
        let mut out = Vec::new();
        let mut q = VecDeque::from([start]);
        seen[start.index()] = true;
        while let Some(x) = q.pop_front() {
            for &y in next(self, x) {
                if !seen[y.index()] {
                    seen[y.index()] = true;
                    out.push(y);
                    q.push_back(y);
                }
            }
        }
        out
    }

    /// Root object classes (entity sets).
    pub fn roots(&self) -> Vec<ObjectId> {
        (0..self.len() as u32)
            .map(ObjectId::new)
            .filter(|o| self.parents[o.index()].is_empty())
            .collect()
    }

    /// Detect a cycle; returns one offending object if the "graph" is not
    /// acyclic (which validation reports as a violation).
    pub fn find_cycle(&self) -> Option<ObjectId> {
        // Kahn's algorithm on child -> parent edges.
        let n = self.len();
        let mut indeg = vec![0usize; n];
        for ps in &self.parents {
            for p in ps {
                indeg[p.index()] += 1;
            }
        }
        let mut q: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut removed = 0usize;
        while let Some(i) = q.pop_front() {
            removed += 1;
            for &p in &self.parents[i] {
                indeg[p.index()] -= 1;
                if indeg[p.index()] == 0 {
                    q.push_back(p.index());
                }
            }
        }
        if removed == n {
            None
        } else {
            indeg
                .iter()
                .position(|&d| d > 0)
                .map(|i| ObjectId::new(i as u32))
        }
    }

    /// Objects in topological order, parents before children. Returns
    /// `None` when the graph is cyclic.
    pub fn topo_order(&self) -> Option<Vec<ObjectId>> {
        let n = self.len();
        // Edges parent -> child; indegree = number of parents.
        let mut indeg: Vec<usize> = self.parents.iter().map(Vec::len).collect();
        let mut q: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut out = Vec::with_capacity(n);
        while let Some(i) = q.pop_front() {
            out.push(ObjectId::new(i as u32));
            for c in &self.children[i] {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    q.push_back(c.index());
                }
            }
        }
        (out.len() == n).then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::schema::SchemaBuilder;

    fn diamond() -> Schema {
        // Person <- {Student, Employee} <- WorkingStudent
        let mut b = SchemaBuilder::new("d");
        let person = b
            .entity_set("Person")
            .attr_key("SSN", Domain::Int)
            .attr("Name", Domain::Char)
            .finish();
        let student = b
            .category("Student", vec![person])
            .attr("GPA", Domain::Real)
            .finish();
        let employee = b
            .category("Employee", vec![person])
            .attr("Salary", Domain::Real)
            .finish();
        b.category("WorkingStudent", vec![student, employee])
            .attr("Hours", Domain::Int)
            .finish();
        b.build().unwrap()
    }

    #[test]
    fn parents_children_ancestors_descendants() {
        let s = diamond();
        let g = IsaGraph::of(&s);
        let person = s.object_by_name("Person").unwrap();
        let ws = s.object_by_name("WorkingStudent").unwrap();

        assert!(g.parents(person).is_empty());
        assert_eq!(g.children(person).len(), 2);
        assert_eq!(g.parents(ws).len(), 2);

        let anc = g.ancestors(ws);
        assert_eq!(anc.len(), 3, "Student, Employee, Person");
        assert!(anc.contains(&person));

        let desc = g.descendants(person);
        assert_eq!(desc.len(), 3);
        assert!(desc.contains(&ws));
    }

    #[test]
    fn roots_are_the_entity_sets() {
        let s = diamond();
        let g = IsaGraph::of(&s);
        let person = s.object_by_name("Person").unwrap();
        assert_eq!(g.roots(), vec![person]);
    }

    #[test]
    fn topo_order_parents_first() {
        let s = diamond();
        let g = IsaGraph::of(&s);
        let order = g.topo_order().unwrap();
        let pos = |name: &str| {
            let id = s.object_by_name(name).unwrap();
            order.iter().position(|&x| x == id).unwrap()
        };
        assert!(pos("Person") < pos("Student"));
        assert!(pos("Student") < pos("WorkingStudent"));
        assert!(pos("Employee") < pos("WorkingStudent"));
        assert!(g.find_cycle().is_none());
    }
}
