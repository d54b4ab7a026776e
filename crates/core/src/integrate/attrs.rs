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
//! A slot ([`Placement`]) is only its equivalence class and the ids of
//! its component attributes: slots merge by id, and the attribute's name,
//! domain and key are computed once, from the catalog, when [`emit`]
//! hands the slot to the schema builder.
//!
//! Relationship sets (`super::rels`) get their slots from the same
//! [`member_groups`] and [`pulled_up_groups`]; only absorption along
//! containment edges is specific to the object lattice.

use sit_ecr::{AttrId, Attribute, Domain};

use super::names::{merged_attr_name, NamePool};
use super::objects::Lattice;
use super::{AttrProvenance, ComponentAttrInfo, IntegrationOptions};
use crate::catalog::{Catalog, GAttr};
use crate::element::Element;
use crate::equivalence::{ClassNo, EquivalenceRegistry};

/// One attribute slot of an integrated object class or relationship set,
/// before final naming.
#[derive(Clone, Debug)]
pub(super) struct Placement {
    /// Equivalence class of the slot (drives absorption).
    pub class: Option<ClassNo>,
    /// Component attributes, in `(schema, object)` order.
    pub components: Vec<ComponentAttrInfo>,
}

impl Placement {
    fn absorb(&mut self, other: &Placement) {
        for c in &other.components {
            if !self.components.contains(c) {
                self.components.push(*c);
            }
        }
    }
}

/// Compute the attribute slots of every lattice node (indexed like
/// `lattice.nodes`).
pub(super) fn place_attributes(
    catalog: &Catalog,
    equiv: &EquivalenceRegistry,
    lattice: &Lattice,
    options: &IntegrationOptions,
) -> Vec<Vec<Placement>> {
    let n = lattice.nodes.len();
    let mut placed: Vec<Vec<Placement>> = vec![Vec::new(); n];
    // Per class number, the `(node, slot)` sites already holding an
    // attribute of that class.
    let mut class_sites: Vec<Vec<(usize, usize)>> = vec![Vec::new(); equiv.len() + 1];

    for &i in &lattice.topo {
        let node = &lattice.nodes[i];
        let groups = if let Some((x, y)) = node.derived_children {
            if options.pull_up_common_attrs {
                let members = |n: usize| member_groups(catalog, equiv, &lattice.nodes[n].members);
                pulled_up_groups(&members(x), &members(y))
            } else {
                Vec::new()
            }
        } else {
            member_groups(catalog, equiv, &node.members)
        };
        // The ancestors of `i` nearest first, listed once two of them
        // hold one class.
        let mut nearest: Option<Vec<usize>> = None;
        for group in groups {
            // Absorb into the nearest ancestor already holding the class.
            let site = group.class.and_then(|c| {
                let sites = &class_sites[c as usize];
                let mut above = sites
                    .iter()
                    .filter(|&&(node, _)| lattice.ancestors.get(i, node));
                let &first = above.next()?;
                if above.next().is_none() {
                    return Some(first);
                }
                nearest
                    .get_or_insert_with(|| lattice.nearest_first(i))
                    .iter()
                    .find_map(|&a| sites.iter().find(|&&(node, _)| node == a))
                    .copied()
            });
            match site {
                Some((node, slot)) => placed[node][slot].absorb(&group),
                None => {
                    if let Some(c) = group.class {
                        class_sites[c as usize].push((i, placed[i].len()));
                    }
                    placed[i].push(group);
                }
            }
        }
    }

    // Pulled-up classes must not re-place on the children: when pull-up is
    // enabled the children's groups were computed after the derived parent
    // in topo order, so absorption above already routed them upward.
    placed
}

/// Group the attributes of a node's members (object classes or
/// relationship sets) by equivalence class, in member order.
pub(super) fn member_groups<E: Element>(
    catalog: &Catalog,
    equiv: &EquivalenceRegistry,
    members: &[E],
) -> Vec<Placement> {
    let mut by_class: Vec<Placement> = Vec::new();
    for &m in members {
        let (sid, owner) = (m.schema(), m.owner());
        let schema = catalog.schema(sid);
        let owner_kind = m.owner_letter(schema);
        for aid in 0..schema.owner_attrs(owner).len() {
            let attr = GAttr::new(sid, owner, AttrId::new(aid as u32));
            let class = equiv.class_no(attr);
            let component = ComponentAttrInfo { attr, owner_kind };
            match class.and_then(|c| by_class.iter_mut().find(|p| p.class == Some(c))) {
                Some(slot) => slot.components.push(component),
                None => by_class.push(Placement {
                    class,
                    components: vec![component],
                }),
            }
        }
    }
    by_class
}

/// The groups whose class both children of a derived node have, merged —
/// the optional pull-up into the derived superset.
pub(super) fn pulled_up_groups(x: &[Placement], y: &[Placement]) -> Vec<Placement> {
    let mut out = Vec::new();
    for px in x {
        let Some(c) = px.class else { continue };
        if let Some(py) = y.iter().find(|p| p.class == Some(c)) {
            let mut merged = px.clone();
            merged.absorb(py);
            out.push(merged);
        }
    }
    out
}

/// Hand a node's slots to its builder `b` through `add(b, name, domain,
/// key)`, in slot order, and return the slots' provenance. Each name and
/// domain is computed here, once, from the component attributes; names
/// that coincide within the node are made unique.
pub(super) fn emit<B>(
    catalog: &Catalog,
    slots: Vec<Placement>,
    mut b: B,
    add: impl Fn(B, String, Domain, bool) -> B,
) -> (B, Vec<AttrProvenance>) {
    let attr = |c: &ComponentAttrInfo| -> &Attribute {
        catalog
            .attr(c.attr)
            .expect("component attributes are in the catalog")
    };
    let mut pool = NamePool::default();
    for slot in &slots {
        let mut attrs = slot.components.iter().map(attr);
        let first = attrs.next().expect("a slot has a component");
        let (domain, key) = attrs.fold((first.domain.clone(), first.is_key()), |(d, k), a| {
            (d.generalize(&a.domain), k && a.is_key())
        });
        let name = if slot.components.len() == 1 {
            first.name.clone()
        } else {
            let names: Vec<&str> = slot
                .components
                .iter()
                .map(|c| attr(c).name.as_str())
                .collect();
            merged_attr_name(&names)
        };
        b = add(b, pool.claim(name), domain, key);
    }
    let provenance = slots
        .into_iter()
        .map(|slot| AttrProvenance {
            components: slot.components,
        })
        .collect();
    (b, provenance)
}
