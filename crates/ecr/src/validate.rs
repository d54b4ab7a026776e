//! Structural validation of ECR schemas.
//!
//! Validation runs automatically at [`crate::SchemaBuilder::build`] time and
//! enforces the ECR well-formedness rules of the paper's section 2, so the
//! rest of the system (integration engine, screens) can assume a sound
//! model.

use std::collections::HashSet;
use std::fmt;

use crate::attribute::Attribute;
use crate::graph::IsaGraph;
use crate::ids::ObjectId;
use crate::relationship::RelationshipSet;
use crate::schema::Schema;

/// One well-formedness violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// A category references an object id that does not exist.
    DanglingParent {
        /// The category's name.
        category: String,
        /// The out-of-range id.
        parent: ObjectId,
    },
    /// A category has no parents.
    ParentlessCategory {
        /// The category's name.
        category: String,
    },
    /// A category lists the same parent twice.
    DuplicateParent {
        /// The category's name.
        category: String,
        /// The repeated parent name.
        parent: String,
    },
    /// The IS-A graph has a cycle through this object.
    IsaCycle {
        /// An object on the cycle.
        object: String,
    },
    /// A relationship set has fewer than two participants.
    UnderDegreeRelationship {
        /// The relationship set's name.
        rel: String,
        /// How many participants it has.
        degree: usize,
    },
    /// A relationship participant references a missing object.
    DanglingParticipant {
        /// The relationship set's name.
        rel: String,
        /// The out-of-range id.
        object: ObjectId,
    },
    /// An invalid `(min,max)` constraint (`min > max` or `max == 0`).
    BadCardinality {
        /// The relationship set's name.
        rel: String,
        /// Name of the participating object.
        participant: String,
        /// The offending constraint, displayed.
        cardinality: String,
    },
    /// Duplicate attribute name within one owner.
    DuplicateAttribute {
        /// Owner (object class or relationship set) name.
        owner: String,
        /// Repeated attribute name.
        attr: String,
    },
    /// An attribute shadows an inherited attribute with an incompatible
    /// domain — legal but suspicious; reported so the DDA can fix naming
    /// during schema analysis (phase 2).
    SuspiciousShadow {
        /// The category doing the shadowing.
        object: String,
        /// The shadowed attribute name.
        attr: String,
    },
    /// An object class or relationship set has an empty name.
    EmptyName,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DanglingParent { category, parent } => {
                write!(f, "category `{category}` references missing parent {parent}")
            }
            Violation::ParentlessCategory { category } => {
                write!(f, "category `{category}` has no parents")
            }
            Violation::DuplicateParent { category, parent } => {
                write!(f, "category `{category}` lists parent `{parent}` twice")
            }
            Violation::IsaCycle { object } => {
                write!(f, "IS-A cycle through `{object}`")
            }
            Violation::UnderDegreeRelationship { rel, degree } => {
                write!(f, "relationship `{rel}` has degree {degree} (< 2)")
            }
            Violation::DanglingParticipant { rel, object } => {
                write!(f, "relationship `{rel}` references missing object {object}")
            }
            Violation::BadCardinality {
                rel,
                participant,
                cardinality,
            } => write!(
                f,
                "relationship `{rel}`: participant `{participant}` has invalid cardinality {cardinality}"
            ),
            Violation::DuplicateAttribute { owner, attr } => {
                write!(f, "`{owner}` declares attribute `{attr}` twice")
            }
            Violation::SuspiciousShadow { object, attr } => write!(
                f,
                "category `{object}` shadows inherited attribute `{attr}` with an incompatible domain"
            ),
            Violation::EmptyName => write!(f, "empty element name"),
        }
    }
}

/// Check every well-formedness rule; returns all violations found (empty
/// means valid).
pub fn validate(schema: &Schema) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = schema.object_count();

    // Names and attributes of object classes.
    for (_, obj) in schema.objects() {
        if obj.name.trim().is_empty() {
            out.push(Violation::EmptyName);
        }
        check_dup_attrs(&obj.name, &obj.attributes, &mut out);
    }

    // Category structure (range checks must precede graph construction).
    let mut ranges_ok = true;
    for (_, obj) in schema.objects() {
        let parents = obj.parents();
        if obj.kind.is_category() && parents.is_empty() {
            out.push(Violation::ParentlessCategory {
                category: obj.name.clone(),
            });
        }
        let mut seen = HashSet::new();
        for &p in parents {
            if p.index() >= n {
                ranges_ok = false;
                out.push(Violation::DanglingParent {
                    category: obj.name.clone(),
                    parent: p,
                });
            } else if !seen.insert(p) {
                out.push(Violation::DuplicateParent {
                    category: obj.name.clone(),
                    parent: schema.object(p).name.clone(),
                });
            }
        }
    }

    if ranges_ok {
        let graph = IsaGraph::of(schema);
        if let Some(o) = graph.find_cycle() {
            out.push(Violation::IsaCycle {
                object: schema.object(o).name.clone(),
            });
        } else {
            check_shadows(schema, &graph, &mut out);
        }
    }

    // Relationship sets.
    for (_, rel) in schema.relationships() {
        if rel.name.trim().is_empty() {
            out.push(Violation::EmptyName);
        }
        check_relationship(schema, rel, n, &mut out);
    }

    out
}

fn check_relationship(
    schema: &Schema,
    rel: &RelationshipSet,
    object_count: usize,
    out: &mut Vec<Violation>,
) {
    if rel.degree() < 2 {
        out.push(Violation::UnderDegreeRelationship {
            rel: rel.name.clone(),
            degree: rel.degree(),
        });
    }
    for p in &rel.participants {
        if p.object.index() >= object_count {
            out.push(Violation::DanglingParticipant {
                rel: rel.name.clone(),
                object: p.object,
            });
        } else if !p.cardinality.is_valid() {
            out.push(Violation::BadCardinality {
                rel: rel.name.clone(),
                participant: schema.object(p.object).name.clone(),
                cardinality: p.cardinality.to_string(),
            });
        }
    }
    check_dup_attrs(&rel.name, &rel.attributes, out);
}

/// Attribute lists up to this long are checked pairwise, with no
/// allocation; longer ones through a set, so a huge list stays linear.
const PAIRWISE_ATTRS: usize = 32;

/// Report every attribute whose name an earlier one of the same owner
/// already has, in definition order.
fn check_dup_attrs(owner: &str, attrs: &[Attribute], out: &mut Vec<Violation>) {
    let mut seen = HashSet::new();
    for (i, a) in attrs.iter().enumerate() {
        let repeat = if attrs.len() <= PAIRWISE_ATTRS {
            attrs[..i].iter().any(|b| b.name == a.name)
        } else {
            !seen.insert(a.name.as_str())
        };
        if repeat {
            out.push(Violation::DuplicateAttribute {
                owner: owner.to_owned(),
                attr: a.name.clone(),
            });
        }
    }
}

fn check_shadows(schema: &Schema, graph: &IsaGraph, out: &mut Vec<Violation>) {
    for (id, obj) in schema.objects() {
        if !obj.kind.is_category() {
            continue;
        }
        for a in &obj.attributes {
            for anc in graph.ancestors(id) {
                if let Some((_, inherited)) = schema.object(anc).attr_by_name(&a.name) {
                    if !inherited.domain.compatible(&a.domain) {
                        out.push(Violation::SuspiciousShadow {
                            object: obj.name.clone(),
                            attr: a.name.clone(),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::relationship::{Cardinality, Participant};
    use crate::schema::SchemaBuilder;

    #[test]
    fn every_repeated_attribute_is_reported_in_order_short_or_long() {
        for len in [6, PAIRWISE_ATTRS + 8] {
            let mut b = SchemaBuilder::new("s");
            let mut ob = b.entity_set("E");
            for i in 0..len {
                // Positions 3 and len-1 repeat position 1.
                let name = if i == 3 || i == len - 1 { 1 } else { i };
                ob = ob.attr(format!("a{name}"), Domain::Int);
            }
            ob.finish();
            let violations = match b.build() {
                Err(crate::error::EcrError::Invalid(v)) => v,
                other => panic!("expected violations, got {other:?}"),
            };
            let repeats: Vec<&str> = violations
                .iter()
                .filter_map(|v| match v {
                    Violation::DuplicateAttribute { owner, attr } if owner == "E" => {
                        Some(attr.as_str())
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(repeats, ["a1", "a1"], "{len} attributes");
        }
    }

    #[test]
    fn valid_schema_has_no_violations() {
        let mut b = SchemaBuilder::new("ok");
        let x = b.entity_set("X").attr_key("id", Domain::Int).finish();
        let y = b.entity_set("Y").finish();
        b.category("C", vec![x]).finish();
        b.relationship("R")
            .participant(x, Cardinality::ONE)
            .participant(y, Cardinality::MANY)
            .finish();
        assert!(b.build().is_ok());
    }

    #[test]
    fn dangling_parent_detected_before_graph_build() {
        let mut b = SchemaBuilder::new("bad");
        b.category("C", vec![ObjectId::new(42)]).finish();
        let err = b.build().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("missing parent"), "{msg}");
    }

    #[test]
    fn duplicate_parent_detected() {
        let mut b = SchemaBuilder::new("bad");
        let x = b.entity_set("X").finish();
        b.category("C", vec![x, x]).finish();
        let err = b.build().unwrap_err().to_string();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn under_degree_relationship_detected() {
        let mut b = SchemaBuilder::new("bad");
        let x = b.entity_set("X").finish();
        b.relationship("R")
            .participant(x, Cardinality::MANY)
            .finish();
        let err = b.build().unwrap_err().to_string();
        assert!(err.contains("degree 1"), "{err}");
    }

    #[test]
    fn bad_cardinality_detected() {
        let mut b = SchemaBuilder::new("bad");
        let x = b.entity_set("X").finish();
        let y = b.entity_set("Y").finish();
        b.relationship("R")
            .participant(x, Cardinality::new(3, Some(1)))
            .participant(y, Cardinality::MANY)
            .finish();
        let err = b.build().unwrap_err().to_string();
        assert!(err.contains("invalid cardinality"), "{err}");
    }

    #[test]
    fn duplicate_attribute_detected() {
        let mut b = SchemaBuilder::new("bad");
        b.entity_set("X")
            .attr("a", Domain::Int)
            .attr("a", Domain::Char)
            .finish();
        let err = b.build().unwrap_err().to_string();
        assert!(err.contains("declares attribute `a` twice"), "{err}");
    }

    #[test]
    fn isa_cycle_detected() {
        // Construct a cycle by abusing raw parts: C0 over C1, C1 over C0.
        let mut b = SchemaBuilder::new("cyc");
        let e = b.entity_set("E").finish();
        b.category("C0", vec![e]).finish();
        b.category("C1", vec![e]).finish();
        let s = b.build().unwrap();
        let (name, mut objs, rels) = s.into_parts();
        // Rewire: C0's parent := C1, C1's parent := C0.
        if let crate::object::ObjectKind::Category { parents } = &mut objs[1].kind {
            parents[0] = ObjectId::new(2);
        }
        if let crate::object::ObjectKind::Category { parents } = &mut objs[2].kind {
            parents[0] = ObjectId::new(1);
        }
        let err = crate::schema::Schema::from_parts(name, objs, rels)
            .unwrap_err()
            .to_string();
        assert!(err.contains("IS-A cycle"), "{err}");
    }

    #[test]
    fn suspicious_shadow_detected() {
        let mut b = SchemaBuilder::new("sh");
        let p = b.entity_set("P").attr("when", Domain::Date).finish();
        b.category("C", vec![p]).attr("when", Domain::Bool).finish();
        let err = b.build().unwrap_err().to_string();
        assert!(err.contains("shadows inherited attribute"), "{err}");
    }

    #[test]
    fn dangling_participant_detected() {
        let mut b = SchemaBuilder::new("bad");
        let x = b.entity_set("X").finish();
        b.relationship("R")
            .participant(x, Cardinality::MANY)
            .finish();
        // Push a second, dangling participant via direct access.
        b.relationships[0]
            .participants
            .push(Participant::new(ObjectId::new(99), Cardinality::MANY));
        let err = b.build().unwrap_err().to_string();
        assert!(err.contains("missing object"), "{err}");
    }
}
