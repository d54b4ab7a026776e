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

use super::attrs;
use super::names::{equivalent_rel_name_of, Claims};
use super::nodes;
use super::objects::{Assembled, Lattice};
use super::IntegrationOptions;
use crate::catalog::{Catalog, GObj, GRel};
use crate::closure::AssertionEngine;
use crate::equivalence::EquivalenceRegistry;
use crate::error::{CoreError, Result};

/// One leg of a relationship set being assembled.
#[derive(Clone, Copy, Debug)]
struct Leg<'c> {
    object: ObjectId,
    cardinality: Cardinality,
    role: Option<&'c str>,
    /// Scratch: already paired with a leg of the set being merged in.
    used: bool,
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
    assembled: &mut Assembled<'_>,
) -> Result<()> {
    let universe = super::sorted(catalog.rels_of(sa).chain(catalog.rels_of(sb)));
    if universe.is_empty() {
        return Ok(());
    }

    // 1–2. Merge `equals` groups, in the object lattice's buffers; every
    //      containment pair is a lattice edge, and overlapping or
    //      disjoint-integrable pairs get a derived (union) relationship
    //      set.
    let mut nodes = std::mem::take(&mut assembled.lattice.nodes);
    let view = engine.view(&universe);
    nodes::merge_equal(&mut nodes, &view, universe.len());
    nodes::classify(catalog, &view, &universe, &mut nodes)?;
    nodes.push_derived_edges();
    nodes.sort_edges();

    // 3. Legs and names: base nodes first (derived nodes need their
    //    children's legs and names). Node `x`'s legs are
    //    `legs[bounds[x]..bounds[x + 1]]`.
    let (base, total) = (nodes.base(), nodes.len());
    let degree = |x: usize| {
        let first = universe[nodes.positions(x)[0]];
        catalog
            .schema(first.schema)
            .relationship(first.rel)
            .degree()
    };
    let leg_count = (0..base).map(degree).sum::<usize>()
        + nodes.derived.iter().map(|&(x, _)| degree(x)).sum::<usize>();
    let mut legs: Vec<Leg<'_>> = Vec::with_capacity(leg_count);
    let mut bounds: Vec<usize> = Vec::with_capacity(total + 1);
    bounds.push(0);
    nodes.names.reserve_exact(total);
    for x in 0..base {
        merge_legs(catalog, assembled, nodes.members(&universe, x), &mut legs)?;
        bounds.push(legs.len());
        nodes
            .names
            .push(merged_name(catalog, nodes.members(&universe, x)));
    }
    nodes.name_derived();
    let lists = AncestorLists::new();
    for &(x, y) in &nodes.derived {
        let (a, b) = (bounds[x]..bounds[x + 1], bounds[y]..bounds[y + 1]);
        if !union_legs(assembled, &lists, &mut legs, a, b) {
            let first = |x| universe[nodes.positions(x)[0]];
            return Err(CoreError::RelLegMismatch {
                a: first(x),
                b: first(y),
            });
        }
        bounds.push(legs.len());
    }
    attrs::place_rel_attributes(
        catalog,
        equiv,
        &nodes,
        &universe,
        options.pull_up_common_attrs,
        &mut assembled.slots,
    );

    // 4. Emit into the schema builder in node order: node `i` becomes
    //    relationship set `i`. Then the lattice edges.
    assembled.builder.reserve(0, total);
    assembled.rel_attr_prov = Vec::with_capacity(total);
    assembled.rel_origin = Vec::with_capacity(total);
    assembled.rel_map = Vec::with_capacity(universe.len());
    let mut attr_names = Claims::default();
    for i in 0..total {
        let computed = std::mem::take(&mut nodes.names[i]);
        let claimed = assembled.claim(options, computed);
        let node_legs = &legs[bounds[i]..bounds[i + 1]];
        let mut rb = assembled
            .builder
            .relationship(claimed)
            .reserve_participants(node_legs.len());
        for leg in node_legs {
            rb = match leg.role {
                Some(role) => rb.participant_role(leg.object, leg.cardinality, role),
                None => rb.participant(leg.object, leg.cardinality),
            };
        }
        let (rb, provenance) = assembled.slots.emit(catalog, i, rb, &mut attr_names);
        let id = rb.finish();
        debug_assert_eq!(id, rel_id(i));
        assembled.rel_attr_prov.push(provenance);
        // Derived nodes follow their children.
        assembled
            .rel_origin
            .push(nodes.origin(&universe, i, rel_id));
        assembled
            .rel_map
            .extend(nodes.members(&universe, i).map(|m| (m, id)));
    }
    assembled.rel_map.sort_unstable();
    assembled.rel_lattice = nodes
        .edges
        .iter()
        .map(|&(child, parent)| (rel_id(child), rel_id(parent)))
        .collect();
    assembled.lattice.nodes = nodes;
    Ok(())
}

/// The integrated relationship set of node `x`.
fn rel_id(x: usize) -> RelId {
    RelId::new(x as u32)
}

/// Append the legs of one node, merged from its member relationship
/// sets: pair them through the integrated IS-A lattice and widen their
/// constraints.
fn merge_legs<'c>(
    catalog: &'c Catalog,
    assembled: &Assembled<'_>,
    mut members: impl Iterator<Item = GRel>,
    legs: &mut Vec<Leg<'c>>,
) -> Result<()> {
    let integrated = |g: GObj| -> ObjectId {
        super::lookup(&assembled.object_map, g).expect("participant object was integrated")
    };
    let lattice = &assembled.lattice;
    // Start from the first member's legs.
    let first = members.next().expect("a base node has a member");
    let frel = catalog.schema(first.schema).relationship(first.rel);
    let from = legs.len();
    legs.extend(frel.participants.iter().map(|p| Leg {
        object: integrated(GObj::new(first.schema, p.object)),
        cardinality: p.cardinality,
        role: p.role.as_deref(),
        used: false,
    }));
    let legs = &mut legs[from..];
    for m in members {
        let mrel = catalog.schema(m.schema).relationship(m.rel);
        legs.iter_mut().for_each(|l| l.used = false);
        for p in &mrel.participants {
            let obj = integrated(GObj::new(m.schema, p.object));
            // Prefer an exact node match, then a comparable one.
            let exact = legs.iter().position(|l| !l.used && l.object == obj);
            let slot = exact.or_else(|| {
                legs.iter()
                    .position(|l| !l.used && comparable(lattice, l.object, obj).is_some())
            });
            let Some(i) = slot else {
                return Err(CoreError::RelLegMismatch { a: first, b: m });
            };
            let leg = &mut legs[i];
            leg.used = true;
            leg.object = comparable(lattice, leg.object, obj).expect("matched legs are comparable");
            leg.cardinality = leg.cardinality.widen(&p.cardinality);
            if leg.role.is_none() {
                leg.role = p.role.as_deref();
            }
        }
    }
    Ok(())
}

/// Name of a base node: the original for a copied set, `E_...` for a
/// merge.
fn merged_name(catalog: &Catalog, members: impl ExactSizeIterator<Item = GRel> + Clone) -> String {
    let name = |m: GRel| catalog.schema(m.schema).relationship(m.rel).name.as_str();
    let first = members.clone().next().expect("a base node has a member");
    if members.len() == 1 {
        return name(first).to_owned();
    }
    let schema = catalog.schema(first.schema);
    let first_participant = schema
        .relationship(first.rel)
        .participants
        .first()
        .map(|p| schema.object(p.object).name.as_str())
        .unwrap_or_default();
    equivalent_rel_name_of(members.map(name), first_participant)
}

/// Append the legs of a derived (union) relationship set over two
/// children, whose legs are `legs[a]` and `legs[b]`: pair the children's
/// legs, bind to the most specific common superclass (siblings under a
/// derived class bind to that class), lower minimums to zero (an
/// instance of the general class may participate in neither child) and
/// sum maximums. `false` when the legs do not pair up.
fn union_legs(
    assembled: &Assembled<'_>,
    lists: &AncestorLists,
    legs: &mut Vec<Leg<'_>>,
    a: std::ops::Range<usize>,
    b: std::ops::Range<usize>,
) -> bool {
    if a.len() != b.len() {
        return false;
    }
    legs[b.clone()].iter_mut().for_each(|l| l.used = false);
    for ia in a {
        let la = legs[ia];
        let general = |lb: &Leg<'_>| common_general(assembled, lists, la.object, lb.object);
        let Some(ib) = b
            .clone()
            .find(|&ib| !legs[ib].used && general(&legs[ib]).is_some())
        else {
            return false;
        };
        legs[ib].used = true;
        let lb = legs[ib];
        let max = match (la.cardinality.max, lb.cardinality.max) {
            (Some(x), Some(y)) => Some(x.saturating_add(y)),
            _ => None,
        };
        legs.push(Leg {
            object: general(&lb).expect("matched"),
            cardinality: Cardinality::new(0, max),
            role: la.role.or(lb.role),
            used: false,
        });
    }
    true
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
    assembled: &Assembled<'_>,
    lists: &AncestorLists,
    a: ObjectId,
    b: ObjectId,
) -> Option<ObjectId> {
    let lattice = &assembled.lattice;
    if let Some(g) = comparable(lattice, a, b) {
        return Some(g);
    }
    // Deepest = the candidate with the most ancestors of its own.
    let shared = || {
        lattice
            .ancestor_ids(a)
            .filter(move |&x| lattice.above(b, x))
    };
    let depth = shared().map(|x| lattice.ancestor_count(x)).max()?;
    let mut deepest = shared().filter(|&x| lattice.ancestor_count(x) == depth);
    let first = deepest.next()?;
    if deepest.next().is_none() {
        return Some(first);
    }
    lists.get_or_init(|| ancestor_lists(assembled))[a.index()]
        .iter()
        .rev()
        .find(|&&x| lattice.above(b, x) && lattice.ancestor_count(x) == depth)
        .copied()
}

/// The ancestors of every integrated object in discovery order: each
/// parent in the category's parent order, followed by that parent's own
/// list. Ids are parents-first, so one pass in id order builds them.
fn ancestor_lists(assembled: &Assembled<'_>) -> Vec<Vec<ObjectId>> {
    let objects = assembled.builder.pending_objects();
    let lattice = &assembled.lattice;
    let mut lists: Vec<Vec<ObjectId>> = Vec::with_capacity(objects.len());
    let mut listed = vec![false; objects.len()];
    for (o, object) in objects.iter().enumerate() {
        let count = lattice.ancestor_count(ObjectId::new(o as u32));
        let mut list = Vec::with_capacity(count as usize);
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
fn comparable(lattice: &Lattice<'_>, a: ObjectId, b: ObjectId) -> Option<ObjectId> {
    if a == b || lattice.above(b, a) {
        Some(a)
    } else if lattice.above(a, b) {
        Some(b)
    } else {
        None
    }
}
