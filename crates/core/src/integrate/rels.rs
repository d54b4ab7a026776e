//! Relationship-set integration — the second lattice of phase 4.
//!
//! "Relationship set integration can be performed in a manner similar to
//! object class integration" (paper §1 phase 4), and it runs on the same
//! code: the equals-merging and pairwise classification of
//! `super::nodes` and the attribute slots of `super::attrs`. *Equals*
//! merges two relationship sets into an `E_` set (the paper's
//! `E_Stud_Majo`), containment and overlap build a lattice of
//! relationship sets, and unasserted relationship sets are copied with
//! their participants rebound to the integrated object classes.
//!
//! Two things stay specific to relationship sets. Every containment pair
//! is recorded as a [`super::IntegratedSchema::rel_lattice`] edge, with
//! no transitive reduction and no structural edges, since the base ECR
//! model has no sub-relationship construct. And each node's participant
//! legs are rebound to the integrated object classes, as follows.
//!
//! Merging participants: two legs pair up when their integrated object
//! classes are identical or comparable in the integrated IS-A lattice; the
//! merged leg binds to the more general class (`sc1.Majors(Student, ...)` +
//! `sc2.Majors(Grad_student, ...)` → a leg on `Student`, since
//! `Grad_student ⊆ Student`). Structural constraints widen so the merged
//! set admits every instance either component admitted; a derived (union)
//! relationship set lowers minimums to zero and sums maximums.

use sit_ecr::{Cardinality, ObjectId, ObjectKind, RelId};

use super::attrs::{member_groups, pulled_up_groups, Placement};
use super::names::{equivalent_rel_name, NamePool};
use super::nodes::{self, Merged};
use super::objects::Assembled;
use super::{AttrProvenance, IntegrationOptions};
use crate::catalog::{Catalog, GObj, GRel};
use crate::closure::AssertionEngine;
use crate::equivalence::EquivalenceRegistry;
use crate::error::{CoreError, Result};

/// One leg of a relationship set being assembled.
#[derive(Clone, Debug)]
struct Leg {
    object: ObjectId,
    cardinality: Cardinality,
    role: Option<String>,
}

/// Integrate relationship sets into `assembled` (object side already
/// emitted).
pub(super) fn integrate_rels(
    catalog: &Catalog,
    equiv: &EquivalenceRegistry,
    engine: &AssertionEngine<GRel>,
    sa: sit_ecr::SchemaId,
    sb: sit_ecr::SchemaId,
    options: &IntegrationOptions,
    assembled: &mut Assembled,
) -> Result<()> {
    let universe: Vec<GRel> = catalog.rels_of(sa).chain(catalog.rels_of(sb)).collect();
    if universe.is_empty() {
        return Ok(());
    }

    // Ancestor table over the emitted objects (for leg comparability).
    let ancestors = object_ancestors(assembled);

    // 1–2. Merge `equals` groups; every containment pair is a lattice
    //      edge, and overlapping or disjoint-integrable pairs get a
    //      derived (union) relationship set.
    let Merged {
        mut nodes,
        contained,
        derived,
    } = nodes::merge(catalog, engine, &universe)?;
    for (child, parent) in contained {
        nodes[child].parents.push(parent);
    }
    nodes::add_derived(&mut nodes, &derived);

    // 3. Legs, attribute slots and names: base nodes first (derived
    //    nodes need their children's legs and names).
    let total = nodes.len();
    let mut legs_of: Vec<Vec<Leg>> = vec![Vec::new(); total];
    let mut attrs_of: Vec<Vec<Placement>> = vec![Vec::new(); total];
    for (i, node) in nodes.iter_mut().enumerate() {
        if node.derived_children.is_none() {
            legs_of[i] = merge_legs(catalog, assembled, &ancestors, &node.members)?;
            attrs_of[i] = member_groups(catalog, equiv, &node.members);
            node.name = merged_name(catalog, &node.members);
        }
    }
    nodes::name_derived(&mut nodes);
    for (i, node) in nodes.iter().enumerate() {
        let Some((x, y)) = node.derived_children else {
            continue;
        };
        legs_of[i] = union_legs(&ancestors, &legs_of[x], &legs_of[y]).ok_or(
            CoreError::RelLegMismatch {
                a: nodes[x].members[0],
                b: nodes[y].members[0],
            },
        )?;
        if options.pull_up_common_attrs {
            attrs_of[i] = pulled_up_groups(&attrs_of[x], &attrs_of[y]);
        }
    }

    // 4. Emit into the schema builder in node order, then record lattice
    //    edges using the assigned RelIds.
    let mut rel_ids = vec![RelId::new(0); total];
    for (i, node) in nodes.iter().enumerate() {
        let claimed = assembled.pool.claim(&node.name);
        let mut rb = assembled.builder.relationship(claimed);
        for leg in &legs_of[i] {
            rb = match &leg.role {
                Some(role) => rb.participant_role(leg.object, leg.cardinality, role.clone()),
                None => rb.participant(leg.object, leg.cardinality),
            };
        }
        let mut prov_row = Vec::new();
        let mut attr_pool = NamePool::default();
        for slot in &attrs_of[i] {
            let aname = attr_pool.claim(&slot.name());
            rb = if slot.key {
                rb.attr_key(aname, slot.domain.clone())
            } else {
                rb.attr(aname, slot.domain.clone())
            };
            prov_row.push(AttrProvenance {
                components: slot.components.clone(),
            });
        }
        rel_ids[i] = rb.finish();
        assembled.rel_attr_prov.push(prov_row);
        // Derived nodes follow their children, whose ids are set.
        assembled.rel_origin.push(node.origin(&rel_ids));
        for &m in &node.members {
            assembled.rel_map.insert(m, rel_ids[i]);
        }
    }
    for (i, node) in nodes.iter().enumerate() {
        for &p in &node.parents {
            assembled.rel_lattice.push((rel_ids[i], rel_ids[p]));
        }
    }
    Ok(())
}

/// Merge the legs of the member relationship sets of one node: pair them
/// through the integrated IS-A lattice and widen their constraints.
fn merge_legs(
    catalog: &Catalog,
    assembled: &Assembled,
    ancestors: &[Vec<ObjectId>],
    members: &[GRel],
) -> Result<Vec<Leg>> {
    debug_assert!(!members.is_empty());
    // Start from the first member's legs.
    let first = members[0];
    let fs = catalog.schema(first.schema);
    let frel = fs.relationship(first.rel);
    let mut legs: Vec<Leg> = frel
        .participants
        .iter()
        .map(|p| Leg {
            object: assembled
                .object_map
                .get(&GObj::new(first.schema, p.object))
                .copied()
                .expect("participant object was integrated"),
            cardinality: p.cardinality,
            role: p.role.clone(),
        })
        .collect();
    for &m in &members[1..] {
        let ms = catalog.schema(m.schema);
        let mrel = ms.relationship(m.rel);
        let mut used = vec![false; legs.len()];
        for p in &mrel.participants {
            let obj = assembled
                .object_map
                .get(&GObj::new(m.schema, p.object))
                .copied()
                .expect("participant object was integrated");
            // Prefer an exact node match, then a comparable one.
            let exact = legs
                .iter()
                .enumerate()
                .position(|(i, l)| !used[i] && l.object == obj);
            let slot = exact.or_else(|| {
                legs.iter().enumerate().position(|(i, l)| {
                    !used[i] && comparable(ancestors, l.object, obj).is_some()
                })
            });
            match slot {
                Some(i) => {
                    used[i] = true;
                    let general = comparable(ancestors, legs[i].object, obj)
                        .expect("matched legs are comparable");
                    legs[i].object = general;
                    legs[i].cardinality = legs[i].cardinality.widen(&p.cardinality);
                    if legs[i].role.is_none() {
                        legs[i].role = p.role.clone();
                    }
                }
                None => {
                    return Err(CoreError::RelLegMismatch { a: first, b: m });
                }
            }
        }
    }

    Ok(legs)
}

/// Name of a base node: the original for a copied set, `E_...` for a
/// merge.
fn merged_name(catalog: &Catalog, members: &[GRel]) -> String {
    let first = members[0];
    let frel = catalog.schema(first.schema).relationship(first.rel);
    if members.len() == 1 {
        return frel.name.clone();
    }
    let names: Vec<&str> = members
        .iter()
        .map(|&m| catalog.schema(m.schema).relationship(m.rel).name.as_str())
        .collect();
    let first_participant = frel
        .participants
        .first()
        .map(|p| catalog.schema(first.schema).object(p.object).name.as_str())
        .unwrap_or_default();
    equivalent_rel_name(&names, first_participant)
}

/// Legs of a derived (union) relationship set over two children: pair the
/// children's legs, bind to the most specific common superclass (siblings
/// under a derived class bind to that class), lower minimums to zero (an
/// instance of the general class may participate in neither child) and
/// sum maximums.
fn union_legs(
    ancestors: &[Vec<ObjectId>],
    a: &[Leg],
    b: &[Leg],
) -> Option<Vec<Leg>> {
    if a.len() != b.len() {
        return None;
    }
    let mut used = vec![false; b.len()];
    let mut out = Vec::with_capacity(a.len());
    for la in a {
        let i = b.iter().enumerate().position(|(i, lb)| {
            !used[i] && common_general(ancestors, la.object, lb.object).is_some()
        })?;
        used[i] = true;
        let lb = &b[i];
        let general = common_general(ancestors, la.object, lb.object).expect("matched");
        let max = match (la.cardinality.max, lb.cardinality.max) {
            (Some(x), Some(y)) => Some(x.saturating_add(y)),
            _ => None,
        };
        out.push(Leg {
            object: general,
            cardinality: Cardinality::new(0, max),
            role: la.role.clone().or_else(|| lb.role.clone()),
        });
    }
    Some(out)
}

/// Most specific common superclass of `a` and `b` in the integrated IS-A
/// graph (either object itself when they are comparable, else the deepest
/// shared ancestor — e.g. two classes just put under one derived `D_`
/// parent).
fn common_general(ancestors: &[Vec<ObjectId>], a: ObjectId, b: ObjectId) -> Option<ObjectId> {
    if let Some(g) = comparable(ancestors, a, b) {
        return Some(g);
    }
    let bs: Vec<ObjectId> = std::iter::once(b).chain(ancestors[b.index()].iter().copied()).collect();
    std::iter::once(a)
        .chain(ancestors[a.index()].iter().copied())
        .filter(|x| bs.contains(x))
        // Deepest = the candidate with the most ancestors of its own.
        .max_by_key(|x| ancestors[x.index()].len())
}

/// If one object equals or (transitively) contains the other in the
/// integrated IS-A graph, return the more general one.
fn comparable(ancestors: &[Vec<ObjectId>], a: ObjectId, b: ObjectId) -> Option<ObjectId> {
    if a == b || ancestors[b.index()].contains(&a) {
        Some(a)
    } else if ancestors[a.index()].contains(&b) {
        Some(b)
    } else {
        None
    }
}

/// Transitive ancestors of each emitted object (index = integrated
/// ObjectId), computed from the builder's category structure.
fn object_ancestors(assembled: &Assembled) -> Vec<Vec<ObjectId>> {
    // Objects were emitted parents-first, so a single pass over category
    // parent lists (which already include derived-superclass edges)
    // accumulates transitive ancestors.
    let node_count = assembled.node_ids.len();
    let mut parents: Vec<Vec<ObjectId>> = vec![Vec::new(); node_count];
    for (i, obj) in assembled.builder.pending_objects().iter().enumerate() {
        if let ObjectKind::Category { parents: ps } = &obj.kind {
            for &p in ps {
                if !parents[i].contains(&p) {
                    parents[i].push(p);
                }
            }
        }
    }
    // Transitive closure (ids are topologically ordered: parents first).
    let mut anc: Vec<Vec<ObjectId>> = vec![Vec::new(); node_count];
    for i in 0..node_count {
        let mut acc: Vec<ObjectId> = Vec::new();
        for &p in &parents[i] {
            if !acc.contains(&p) {
                acc.push(p);
            }
            for &g in &anc[p.index()] {
                if !acc.contains(&g) {
                    acc.push(g);
                }
            }
        }
        anc[i] = acc;
    }
    anc
}
