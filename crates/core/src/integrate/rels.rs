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
//! classes are identical or comparable in the integrated IS-A lattice
//! (read from the object side's ancestor bit rows); the
//! merged leg binds to the more general class (`sc1.Majors(Student, ...)` +
//! `sc2.Majors(Grad_student, ...)` → a leg on `Student`, since
//! `Grad_student ⊆ Student`). Structural constraints widen so the merged
//! set admits every instance either component admitted; a derived (union)
//! relationship set lowers minimums to zero and sums maximums.

use std::cell::OnceCell;

use sit_ecr::{Cardinality, ObjectId, ObjectKind, RelId, SchemaId};

use super::attrs::{self, member_groups, pulled_up_groups, Placement};
use super::names::equivalent_rel_name;
use super::nodes::{self, BitRows, Merged};
use super::objects::Assembled;
use super::IntegrationOptions;
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
    sa: SchemaId,
    sb: SchemaId,
    options: &IntegrationOptions,
    assembled: &mut Assembled,
) -> Result<()> {
    let universe = super::sorted(catalog.rels_of(sa).chain(catalog.rels_of(sb)));
    if universe.is_empty() {
        return Ok(());
    }

    // 1–2. Merge `equals` groups; every containment pair is a lattice
    //      edge, and overlapping or disjoint-integrable pairs get a
    //      derived (union) relationship set.
    let Merged {
        mut nodes,
        contained,
        derived,
        ..
    } = nodes::merge(catalog, &engine.view(&universe), &universe)?;
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
            legs_of[i] = merge_legs(catalog, assembled, &node.members)?;
            attrs_of[i] = member_groups(catalog, equiv, &node.members);
            node.name = merged_name(catalog, &node.members);
        }
    }
    nodes::name_derived(&mut nodes);
    let lists = AncestorLists::new();
    for (i, node) in nodes.iter().enumerate() {
        let Some((x, y)) = node.derived_children else {
            continue;
        };
        let mismatch = CoreError::RelLegMismatch {
            a: nodes[x].members[0],
            b: nodes[y].members[0],
        };
        legs_of[i] = union_legs(assembled, &lists, &legs_of[x], &legs_of[y]).ok_or(mismatch)?;
        if options.pull_up_common_attrs {
            attrs_of[i] = pulled_up_groups(&attrs_of[x], &attrs_of[y]);
        }
    }

    // 4. Emit into the schema builder in node order, then record lattice
    //    edges using the assigned RelIds.
    let mut rel_ids = vec![RelId::new(0); total];
    for (i, node) in nodes.iter_mut().enumerate() {
        let claimed = assembled.pool.claim(std::mem::take(&mut node.name));
        let mut rb = assembled.builder.relationship(claimed);
        for leg in std::mem::take(&mut legs_of[i]) {
            rb = match leg.role {
                Some(role) => rb.participant_role(leg.object, leg.cardinality, role),
                None => rb.participant(leg.object, leg.cardinality),
            };
        }
        let slots = std::mem::take(&mut attrs_of[i]);
        let (rb, provenance) = attrs::emit(catalog, slots, rb, |rb, name, domain, key| {
            if key {
                rb.attr_key(name, domain)
            } else {
                rb.attr(name, domain)
            }
        });
        rel_ids[i] = rb.finish();
        assembled.rel_attr_prov.push(provenance);
        // Derived nodes follow their children, whose ids are set.
        assembled.rel_origin.push(node.origin(&rel_ids));
        let id = rel_ids[i];
        assembled
            .rel_map
            .extend(node.members.iter().map(|&m| (m, id)));
    }
    assembled.rel_map.sort_unstable();
    for (i, node) in nodes.iter().enumerate() {
        for &p in &node.parents {
            assembled.rel_lattice.push((rel_ids[i], rel_ids[p]));
        }
    }
    Ok(())
}

/// Merge the legs of the member relationship sets of one node: pair them
/// through the integrated IS-A lattice and widen their constraints.
fn merge_legs(catalog: &Catalog, assembled: &Assembled, members: &[GRel]) -> Result<Vec<Leg>> {
    debug_assert!(!members.is_empty());
    let integrated = |g: GObj| -> ObjectId {
        super::lookup(&assembled.object_map, g).expect("participant object was integrated")
    };
    let ancestors = &assembled.object_ancestors;
    // Start from the first member's legs.
    let first = members[0];
    let frel = catalog.schema(first.schema).relationship(first.rel);
    let mut legs: Vec<Leg> = frel
        .participants
        .iter()
        .map(|p| Leg {
            object: integrated(GObj::new(first.schema, p.object)),
            cardinality: p.cardinality,
            role: p.role.clone(),
        })
        .collect();
    let mut used = vec![false; legs.len()];
    for &m in &members[1..] {
        let mrel = catalog.schema(m.schema).relationship(m.rel);
        used.fill(false);
        for p in &mrel.participants {
            let obj = integrated(GObj::new(m.schema, p.object));
            // Prefer an exact node match, then a comparable one.
            let exact = legs
                .iter()
                .enumerate()
                .position(|(i, l)| !used[i] && l.object == obj);
            let slot = exact.or_else(|| {
                legs.iter()
                    .enumerate()
                    .position(|(i, l)| !used[i] && comparable(ancestors, l.object, obj).is_some())
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
    assembled: &Assembled,
    lists: &AncestorLists,
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
            !used[i] && common_general(assembled, lists, la.object, lb.object).is_some()
        })?;
        used[i] = true;
        let lb = &b[i];
        let general = common_general(assembled, lists, la.object, lb.object).expect("matched");
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

/// Every integrated object's ancestors in discovery order, built on the
/// first tie in [`common_general`].
type AncestorLists = OnceCell<Vec<Vec<ObjectId>>>;

/// Most specific common superclass of `a` and `b` in the integrated IS-A
/// graph (either object itself when they are comparable, else the deepest
/// shared ancestor — e.g. two classes just put under one derived `D_`
/// parent). Among shared ancestors equally deep, the one listed last in
/// `a`'s [`ancestor_lists`] entry wins.
fn common_general(
    assembled: &Assembled,
    lists: &AncestorLists,
    a: ObjectId,
    b: ObjectId,
) -> Option<ObjectId> {
    let ancestors = &assembled.object_ancestors;
    if let Some(g) = comparable(ancestors, a, b) {
        return Some(g);
    }
    // Deepest = the candidate with the most ancestors of its own.
    let (a, b) = (a.index(), b.index());
    let shared = || ancestors.ones(a).filter(move |&x| ancestors.get(b, x));
    let depth = shared().map(|x| ancestors.count(x)).max()?;
    let mut deepest = shared().filter(|&x| ancestors.count(x) == depth);
    let first = deepest.next()?;
    if deepest.next().is_none() {
        return Some(ObjectId::new(first as u32));
    }
    lists.get_or_init(|| ancestor_lists(assembled))[a]
        .iter()
        .rev()
        .find(|x| ancestors.get(b, x.index()) && ancestors.count(x.index()) == depth)
        .copied()
}

/// The ancestors of every integrated object in discovery order: each
/// parent in the category's parent order, followed by that parent's own
/// list. Ids are parents-first, so one pass in id order builds them.
fn ancestor_lists(assembled: &Assembled) -> Vec<Vec<ObjectId>> {
    let objects = assembled.builder.pending_objects();
    let mut lists: Vec<Vec<ObjectId>> = Vec::with_capacity(objects.len());
    let mut listed = vec![false; objects.len()];
    for (o, object) in objects.iter().enumerate() {
        let mut list = Vec::with_capacity(assembled.object_ancestors.count(o) as usize);
        if let ObjectKind::Category { parents } = &object.kind {
            for &p in parents {
                for &g in std::iter::once(&p).chain(&lists[p.index()]) {
                    if !std::mem::replace(&mut listed[g.index()], true) {
                        list.push(g);
                    }
                }
            }
        }
        for g in &list {
            listed[g.index()] = false;
        }
        lists.push(list);
    }
    lists
}

/// If one object equals or (transitively) contains the other in the
/// integrated IS-A graph, return the more general one.
fn comparable(ancestors: &BitRows, a: ObjectId, b: ObjectId) -> Option<ObjectId> {
    if a == b || ancestors.get(b.index(), a.index()) {
        Some(a)
    } else if ancestors.get(a.index(), b.index()) {
        Some(b)
    } else {
        None
    }
}
