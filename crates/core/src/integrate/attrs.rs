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
//! Relationship sets (`super::rels`) get their slots from the same
//! [`member_groups`] and [`pulled_up_groups`]; only absorption along
//! containment edges is specific to the object lattice.

use std::collections::HashMap;

use sit_ecr::{AttrId, Domain};

use super::names::merged_attr_name;
use super::objects::Lattice;
use super::{ComponentAttrInfo, IntegrationOptions};
use crate::catalog::{Catalog, GAttr};
use crate::element::Element;
use crate::equivalence::{ClassNo, EquivalenceRegistry};

/// One attribute slot of an integrated object class or relationship set,
/// before final naming.
#[derive(Clone, Debug)]
pub(super) struct Placement {
    /// Equivalence class of the slot (drives absorption).
    pub class: Option<ClassNo>,
    /// Generalized domain.
    pub domain: Domain,
    /// Key only when every component is a key.
    pub key: bool,
    /// Component provenance, in `(schema, object)` order.
    pub components: Vec<ComponentAttrInfo>,
}

impl Placement {
    /// The integrated attribute name per the paper's `D_` conventions.
    pub fn name(&self) -> String {
        let names: Vec<&str> = self
            .components
            .iter()
            .map(|c| c.attr.name.as_str())
            .collect();
        merged_attr_name(&names)
    }

    fn absorb(&mut self, other: &Placement) {
        for c in &other.components {
            if !self.components.contains(c) {
                self.domain = self.domain.generalize(&c.attr.domain);
                self.key = self.key && c.attr.is_key();
                self.components.push(c.clone());
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
    // class → nodes (and slot index) where an attribute of that class is
    // already placed.
    let mut class_sites: HashMap<ClassNo, Vec<(usize, usize)>> = HashMap::new();

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
        let ancestors = lattice.ancestors(i);
        for group in groups {
            // Absorb into the nearest ancestor already holding the class.
            let site = group.class.and_then(|c| {
                let sites = class_sites.get(&c)?;
                ancestors
                    .iter()
                    .find_map(|a| sites.iter().find(|(node, _)| node == a))
                    .copied()
            });
            match site {
                Some((anode, slot)) => {
                    placed[anode][slot].absorb(&group);
                }
                None => {
                    let slot = placed[i].len();
                    if let Some(c) = group.class {
                        class_sites.entry(c).or_default().push((i, slot));
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
    let mut class_slot: HashMap<ClassNo, usize> = HashMap::new();
    for &m in members {
        let (sid, owner) = (m.schema(), m.owner());
        let schema = catalog.schema(sid);
        let owner_name = schema.owner_name(owner).unwrap_or_default();
        for (aid, attr) in schema.owner_attrs(owner).iter().enumerate() {
            let class = equiv.class_no(GAttr::new(sid, owner, AttrId::new(aid as u32)));
            let group = Placement {
                class,
                domain: attr.domain.clone(),
                key: attr.is_key(),
                components: vec![ComponentAttrInfo {
                    schema: schema.name().to_owned(),
                    owner: owner_name.to_owned(),
                    owner_kind: m.owner_letter(schema),
                    attr: attr.clone(),
                }],
            };
            match class.and_then(|c| class_slot.get(&c).copied()) {
                Some(slot) => by_class[slot].absorb(&group),
                None => {
                    if let Some(c) = class {
                        class_slot.insert(c, by_class.len());
                    }
                    by_class.push(group);
                }
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
