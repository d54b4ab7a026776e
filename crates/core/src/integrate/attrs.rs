//! Attribute placement during integration.
//!
//! Rules (from §2, §3.5 and the Component Attribute Screen):
//!
//! * Within an `E_` merge, attributes in the same equivalence class
//!   collapse into a single derived attribute carrying every component.
//! * Along a containment edge, an attribute of the contained class that is
//!   equivalent to an attribute of a (transitive) container is *absorbed*
//!   into the container's attribute — Screen 12's `D_Name` on `Student`
//!   combines `sc1.Student.Name` with `sc2.Grad_student.Name`; the
//!   contained class keeps only its specific attributes.
//! * Attributes of the two children of a derived superclass are pulled up
//!   into it only when [`IntegrationOptions::pull_up_common_attrs`] is set
//!   (the paper's tool leaves them down).
//! * A derived attribute is a key only when every component is a key, and
//!   its domain is the least generalization of the component domains.
//!
//! A slot is only its equivalence class and the ids of its component
//! attributes: slots merge by id, and the attribute's name, domain and
//! key are computed once, from the catalog, when [`Slots::emit`] hands
//! the slot to the schema builder.
//!
//! All slots of a lattice live in two flat buffers ([`Slots`]): the
//! slots in emission order, a node's slots side by side, and their
//! component lists linked through one entry buffer, so absorbing into
//! an ancestor's slot appends an entry instead of growing a list of its
//! own. Absorption finds an ancestor's slot through a site list per
//! equivalence class of the pair's own attributes. Relationship sets
//! (`super::rels`) place their slots in the same buffers, without
//! absorption, once the object classes are emitted.

use std::iter;

use sit_ecr::schema::{ObjectBuilder, RelBuilder};
use sit_ecr::{AttrId, Attribute, Domain};

use super::names::{merged_attr_name_of, Claims};
use super::nodes::Nodes;
use super::objects::Lattice;
use super::{AttrProvenance, ComponentAttrInfo};
use crate::catalog::{Catalog, GAttr};
use crate::element::Element;
use crate::equivalence::{ClassNo, EquivalenceRegistry};

/// No slot, entry or node.
const NONE: usize = usize::MAX;

/// One attribute slot of an integrated object class or relationship set,
/// before naming.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// The node holding the slot.
    node: usize,
    /// Equivalence class of the slot (drives absorption).
    class: Option<ClassNo>,
    /// The slot of this class placed before it, if any.
    next_site: usize,
    /// First and last entry of the slot's component list.
    first: usize,
    last: usize,
}

/// One component attribute in a slot's list.
#[derive(Clone, Copy, Debug)]
struct Entry {
    component: ComponentAttrInfo,
    next: usize,
}

/// The attribute slots of one lattice, in flat buffers that the next
/// lattice reuses.
#[derive(Debug, Default)]
pub(super) struct Slots {
    /// In placement order, which is emission order.
    slots: Vec<Slot>,
    /// Component lists, in placement order. A component placed twice in
    /// one slot (pulled up into a derived superclass, then absorbed
    /// there again from a child) is listed twice and emitted once.
    entries: Vec<Entry>,
    /// The attribute classes two or more attributes of the pair share,
    /// sorted, each with the last slot placed for it: the head of its
    /// site list. Empty for relationship sets, which absorb nothing.
    sites: Vec<(ClassNo, usize)>,
    /// Slots emitted so far.
    emitted: usize,
}

/// The attributes of a lattice's nodes, with their classes.
#[derive(Clone, Copy)]
struct NodeAttrs<'a, E> {
    catalog: &'a Catalog,
    equiv: &'a EquivalenceRegistry,
    nodes: &'a Nodes,
    universe: &'a [E],
}

impl<'a, E: Element> NodeAttrs<'a, E> {
    /// Every attribute of node `x`'s members, in member order.
    fn of(
        self,
        x: usize,
    ) -> impl Iterator<Item = (Option<ClassNo>, ComponentAttrInfo)> + Clone + 'a {
        member_attrs(
            self.catalog,
            self.equiv,
            self.nodes.members(self.universe, x),
        )
    }
}

/// Number of attributes the elements of `universe` have.
fn attr_count<E: Element>(catalog: &Catalog, universe: &[E]) -> usize {
    let attrs = |e: E| catalog.schema(e.schema()).owner_attrs(e.owner()).len();
    universe.iter().map(|&e| attrs(e)).sum()
}

/// Every attribute of `members`, in member order, with its class.
fn member_attrs<'a, E: Element>(
    catalog: &'a Catalog,
    equiv: &'a EquivalenceRegistry,
    members: impl Iterator<Item = E> + Clone + 'a,
) -> impl Iterator<Item = (Option<ClassNo>, ComponentAttrInfo)> + Clone + 'a {
    members.flat_map(move |m| {
        let (sid, owner) = (m.schema(), m.owner());
        let schema = catalog.schema(sid);
        let owner_kind = m.owner_letter(schema);
        (0..schema.owner_attrs(owner).len()).map(move |aid| {
            let attr = GAttr::new(sid, owner, AttrId::new(aid as u32));
            (equiv.class_no(attr), ComponentAttrInfo { attr, owner_kind })
        })
    })
}

/// Place the attribute slots of every object lattice node, in emission
/// (topological) order.
pub(super) fn place_attributes(
    catalog: &Catalog,
    equiv: &EquivalenceRegistry,
    lattice: &Lattice<'_>,
    pull_up: bool,
    slots: &mut Slots,
) {
    let universe = lattice.universe;
    let count = attr_count(catalog, universe);
    slots.reset(count);
    // Sites are keyed by the pair's own classes, so their cost follows
    // the pair, not the session; a class only one attribute of the pair
    // has is never absorbed, so it gets no site list.
    let sites = &mut slots.sites;
    sites.reserve_exact(count);
    let all = member_attrs(catalog, equiv, universe.iter().copied());
    sites.extend(all.filter_map(|(class, _)| Some((class?, NONE))));
    sites.sort_unstable();
    let (mut kept, mut at) = (0, 0);
    while let Some(&(class, _)) = sites.get(at) {
        let run = sites[at..].iter().take_while(|&&(c, _)| c == class).count();
        if run > 1 {
            sites[kept] = (class, NONE);
            kept += 1;
        }
        at += run;
    }
    sites.truncate(kept);

    let attrs = NodeAttrs {
        catalog,
        equiv,
        nodes: &lattice.nodes,
        universe,
    };
    for &i in &lattice.topo {
        // Absorb into the nearest ancestor already holding the class. The
        // ancestors of `i` nearest first, listed once two of them hold
        // one class.
        let mut nearest = None;
        let site = |slots: &Slots, class| slots.site(lattice, i, class, &mut nearest);
        slots.place_node(attrs, i, pull_up, site);
    }
    // Pulled-up classes do not re-place on the children: the children
    // come after the derived parent in topological order, so absorption
    // routes them upward.
}

/// Place the attribute slots of every relationship lattice node, in node
/// order: no absorption.
pub(super) fn place_rel_attributes<E: Element>(
    catalog: &Catalog,
    equiv: &EquivalenceRegistry,
    nodes: &Nodes,
    universe: &[E],
    pull_up: bool,
    slots: &mut Slots,
) {
    slots.reset(attr_count(catalog, universe));
    let attrs = NodeAttrs {
        catalog,
        equiv,
        nodes,
        universe,
    };
    for i in 0..nodes.len() {
        slots.place_node(attrs, i, pull_up, |_, _| None);
    }
}

impl Slots {
    /// Start over for a lattice whose members have `count` attributes.
    /// Each attribute makes at most one slot and, unless pulled up, one
    /// entry.
    fn reset(&mut self, count: usize) {
        self.slots.clear();
        self.entries.clear();
        self.sites.clear();
        self.emitted = 0;
        self.slots.reserve_exact(count);
        self.entries.reserve_exact(count);
    }

    /// Place node `i`'s slots: its members' attributes grouped by class,
    /// or, for a derived node with `pull_up`, the classes its two
    /// children share (one child's components, then the other's).
    /// `site(slots, class)` is the slot a group of `class` is absorbed
    /// into instead, if any.
    fn place_node<E: Element>(
        &mut self,
        attrs: NodeAttrs<'_, E>,
        i: usize,
        pull_up: bool,
        mut site: impl FnMut(&Slots, ClassNo) -> Option<usize>,
    ) {
        match attrs.nodes.derived_children(i) {
            None => self.place(i, attrs.of(i), &mut site),
            Some((x, y)) if pull_up => {
                let shared = |a: usize, b: usize| {
                    let other = attrs.of(b);
                    attrs.of(a).filter(move |&(class, _)| {
                        class.is_some() && other.clone().any(|(c, _)| c == class)
                    })
                };
                self.place(i, shared(x, y), &mut site);
                self.place(i, shared(y, x), &mut site);
            }
            Some(_) => {}
        }
    }

    /// Place `attrs` on node `i`, one group per class in order of first
    /// appearance (an attribute without a class is a group of its own).
    /// A group joins node `i`'s slot of its class, or the slot `site`
    /// names, or opens a slot on node `i`.
    fn place(
        &mut self,
        i: usize,
        attrs: impl Iterator<Item = (Option<ClassNo>, ComponentAttrInfo)>,
        site: &mut impl FnMut(&Slots, ClassNo) -> Option<usize>,
    ) {
        // Node `i`'s slots are the last ones placed.
        let own = self.slots.partition_point(|s| s.node != i);
        for (class, component) in attrs {
            let slot = class.and_then(|c| {
                (own..self.slots.len())
                    .find(|&s| self.slots[s].class == Some(c))
                    .or_else(|| site(self, c))
            });
            let entry = self.entries.len();
            self.entries.push(Entry {
                component,
                next: NONE,
            });
            match slot {
                Some(s) => {
                    let last = std::mem::replace(&mut self.slots[s].last, entry);
                    self.entries[last].next = entry;
                }
                None => self.open(i, class, entry),
            }
        }
    }

    /// Open a slot on node `i` with one entry, at the head of its class's
    /// site list.
    fn open(&mut self, i: usize, class: Option<ClassNo>, entry: usize) {
        let s = self.slots.len();
        let head = class.and_then(|c| {
            let k = self.sites.binary_search_by_key(&c, |&(c, _)| c).ok()?;
            Some(std::mem::replace(&mut self.sites[k].1, s))
        });
        self.slots.push(Slot {
            node: i,
            class,
            next_site: head.unwrap_or(NONE),
            first: entry,
            last: entry,
        });
    }

    /// Every slot placed for `class`, latest first.
    fn sites_of(&self, class: ClassNo) -> impl Iterator<Item = usize> + Clone + '_ {
        let head = match self.sites.binary_search_by_key(&class, |&(c, _)| c) {
            Ok(k) => self.sites[k].1,
            Err(_) => NONE,
        };
        let next = |&s: &usize| Some(self.slots[s].next_site).filter(|&n| n != NONE);
        iter::successors(Some(head).filter(|&s| s != NONE), next)
    }

    /// The slot of the nearest ancestor of node `i` holding `class`.
    fn site(
        &self,
        lattice: &Lattice<'_>,
        i: usize,
        class: ClassNo,
        nearest: &mut Option<Vec<usize>>,
    ) -> Option<usize> {
        let sites = self.sites_of(class);
        let mut above = sites
            .clone()
            .filter(|&s| lattice.ancestors.get(i, self.slots[s].node));
        let first = above.next()?;
        if above.next().is_none() {
            return Some(first);
        }
        // Two ancestors hold the class: the nearest absorbs it.
        nearest
            .get_or_insert_with(|| lattice.nearest_first(i))
            .iter()
            .find_map(|&a| sites.clone().find(|&s| self.slots[s].node == a))
    }

    /// The components of slot `s`, each once, in placement order.
    fn components(&self, s: usize) -> Vec<ComponentAttrInfo> {
        let next = |&e: &usize| Some(self.entries[e].next).filter(|&n| n != NONE);
        let walk =
            || iter::successors(Some(self.slots[s].first), next).map(|e| self.entries[e].component);
        let distinct = walk()
            .enumerate()
            .filter(|&(k, c)| !walk().take(k).any(|d| d == c))
            .count();
        let mut out = Vec::with_capacity(distinct);
        for c in walk() {
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// Hand node `i`'s slots, the next ones in emission order, to its
    /// builder `b`, and return their provenance. Each name and domain is
    /// computed here, once, from the component attributes; a name an
    /// earlier attribute of the node has is made unique.
    pub fn emit<B: AttrSink>(
        &mut self,
        catalog: &Catalog,
        i: usize,
        b: B,
        claims: &mut Claims,
    ) -> (B, Vec<AttrProvenance>) {
        let from = self.emitted;
        let count = self.slots[from..]
            .iter()
            .take_while(|s| s.node == i)
            .count();
        self.emitted += count;
        let attr = |c: &ComponentAttrInfo| -> &Attribute {
            catalog
                .attr(c.attr)
                .expect("component attributes are in the catalog")
        };
        let mut b = b.reserve(count);
        let mut provenance = Vec::with_capacity(count);
        claims.clear();
        for s in from..from + count {
            let components = self.components(s);
            let mut attrs = components.iter().map(attr);
            let first = attrs.next().expect("a slot has a component");
            let (domain, key) = attrs.fold((first.domain.clone(), first.is_key()), |(d, k), a| {
                (d.generalize(&a.domain), k && a.is_key())
            });
            let name = merged_attr_name_of(components.iter().map(|c| attr(c).name.as_str()));
            let name = claims.claim(name, |n| b.attributes().iter().position(|a| a.name == n));
            b = b.add(name, domain, key);
            provenance.push(AttrProvenance { components });
        }
        (b, provenance)
    }
}

/// The element under construction that [`Slots::emit`] hands attributes
/// to: an object class or a relationship set.
pub(super) trait AttrSink: Sized {
    /// The attributes added so far.
    fn attributes(&self) -> &[Attribute];
    /// Make room for exactly `n` more attributes.
    fn reserve(self, n: usize) -> Self;
    /// Add an attribute.
    fn add(self, name: String, domain: Domain, key: bool) -> Self;
}

impl AttrSink for ObjectBuilder<'_> {
    fn attributes(&self) -> &[Attribute] {
        ObjectBuilder::attributes(self)
    }

    fn reserve(self, n: usize) -> Self {
        self.reserve_attrs(n)
    }

    fn add(self, name: String, domain: Domain, key: bool) -> Self {
        if key {
            self.attr_key(name, domain)
        } else {
            self.attr(name, domain)
        }
    }
}

impl AttrSink for RelBuilder<'_> {
    fn attributes(&self) -> &[Attribute] {
        RelBuilder::attributes(self)
    }

    fn reserve(self, n: usize) -> Self {
        self.reserve_attrs(n)
    }

    fn add(self, name: String, domain: Domain, key: bool) -> Self {
        if key {
            self.attr_key(name, domain)
        } else {
            self.attr(name, domain)
        }
    }
}
