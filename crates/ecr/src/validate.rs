//! Structural validation of ECR schemas.
//!
//! Validation runs automatically at [`crate::SchemaBuilder::build`] time and
//! enforces the ECR well-formedness rules of the paper's section 2, so the
//! rest of the system (integration engine, screens) can assume a sound
//! model. As on the paper's Schema Collection screens, a category is
//! defined over parents already entered: each parent precedes its
//! category in id order, which also rules out IS-A cycles.

use std::collections::HashSet;
use std::fmt;

use crate::attribute::Attribute;
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
    /// A category's parent does not precede it in id order (a schema's
    /// object ids are its IS-A order, parents first).
    ParentNotBefore {
        /// The category's name.
        category: String,
        /// The parent's name: the category itself or a later object.
        parent: String,
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
            Violation::ParentNotBefore { category, parent } => {
                write!(f, "category `{category}` comes before its parent `{parent}`")
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

    // Category structure: every parent exists, precedes its category
    // and is listed once. Parents first makes the IS-A graph acyclic.
    let mut marks = Marks {
        at: vec![0; n],
        walk: 0,
    };
    let mut parents_first = true;
    for (id, obj) in schema.objects() {
        let parents = obj.parents();
        if obj.kind.is_category() && parents.is_empty() {
            out.push(Violation::ParentlessCategory {
                category: obj.name.clone(),
            });
        }
        marks.clear();
        for &p in parents {
            if p.index() >= n {
                parents_first = false;
                out.push(Violation::DanglingParent {
                    category: obj.name.clone(),
                    parent: p,
                });
            } else if !marks.first_visit(p) {
                out.push(Violation::DuplicateParent {
                    category: obj.name.clone(),
                    parent: schema.object(p).name.clone(),
                });
            } else if p >= id {
                parents_first = false;
                out.push(Violation::ParentNotBefore {
                    category: obj.name.clone(),
                    parent: schema.object(p).name.clone(),
                });
            }
        }
    }

    if parents_first {
        check_shadows(schema, &mut marks, &mut out);
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

/// Visit marks over object ids that one counter step clears, so a
/// validation allocates them once however many walks it makes.
struct Marks {
    /// The walk that last visited each object; walks count from 1.
    at: Vec<usize>,
    walk: usize,
}

impl Marks {
    /// Start a new walk: nothing is visited.
    fn clear(&mut self) {
        self.walk += 1;
    }

    /// Mark `o` visited; `true` the first time in this walk.
    fn first_visit(&mut self, o: ObjectId) -> bool {
        std::mem::replace(&mut self.at[o.index()], self.walk) != self.walk
    }
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

/// Report, for each attribute of each category, one violation per
/// ancestor whose same-named attribute has an incompatible domain. Every
/// parent precedes its category, so the walks end.
fn check_shadows(schema: &Schema, marks: &mut Marks, out: &mut Vec<Violation>) {
    // Each walk's ancestors in visit order; unvisited past `next`.
    let mut ancestors: Vec<ObjectId> = Vec::with_capacity(schema.object_count());
    for (_, obj) in schema.categories() {
        if obj.attributes.is_empty() {
            continue;
        }
        marks.clear();
        ancestors.clear();
        ancestors.extend(obj.parents().iter().filter(|&&p| marks.first_visit(p)));
        let mut next = 0;
        while let Some(&x) = ancestors.get(next) {
            next += 1;
            for &p in schema.object(x).parents() {
                if marks.first_visit(p) {
                    ancestors.push(p);
                }
            }
        }
        for a in &obj.attributes {
            for &anc in &ancestors {
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

    /// The violations of `s` rebuilt with each `(category, parent)`
    /// rewiring the category's first parent.
    fn rewired(s: &Schema, rewires: &[(usize, u32)]) -> Vec<Violation> {
        let (name, mut objs, rels) = s.clone().into_parts();
        for &(c, p) in rewires {
            if let crate::object::ObjectKind::Category { parents } = &mut objs[c].kind {
                parents[0] = ObjectId::new(p);
            }
        }
        match Schema::from_parts(name, objs, rels) {
            Err(crate::error::EcrError::Invalid(v)) => v,
            other => panic!("expected violations, got {other:?}"),
        }
    }

    #[test]
    fn forward_parents_are_rejected() {
        let mut b = SchemaBuilder::new("fwd");
        let e = b.entity_set("E").finish();
        b.category("C0", vec![e]).finish();
        b.category("C1", vec![e]).finish();
        let s = b.build().unwrap();
        let not_before = |category: &str, parent: &str| Violation::ParentNotBefore {
            category: category.to_owned(),
            parent: parent.to_owned(),
        };
        // A cycle, C0 over C1 and C1 over C0, has a forward edge.
        assert_eq!(rewired(&s, &[(1, 2), (2, 1)]), [not_before("C0", "C1")]);
        // Acyclic, but C0 over C1 is listed before C1 over E: printed DDL
        // would name C1 before defining it.
        assert_eq!(rewired(&s, &[(1, 2)]), [not_before("C0", "C1")]);
        // A category over itself.
        assert_eq!(rewired(&s, &[(2, 2)]), [not_before("C1", "C1")]);
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
