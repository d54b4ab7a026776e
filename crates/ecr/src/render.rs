//! Plain-text rendering of ECR schemas.
//!
//! The paper presents schemas as boxes-and-diamonds diagrams (Figures 2–5).
//! This renderer produces the equivalent textual diagram: entity sets as
//! roots, categories indented beneath their parents (the IS-A lattice), and
//! relationship sets with their legs and structural constraints. The
//! `figures` binary in `sit-bench` uses it to regenerate the paper's
//! figures.

use std::fmt::{self, Write};

use crate::attribute::Attribute;
use crate::ids::ObjectId;
use crate::schema::Schema;

/// Render the schema as an indented text diagram.
///
/// The text is measured by a first pass through the same writer code,
/// then written into one `String` of exactly that length. Each object
/// class's children come from one flat buffer.
pub fn render(schema: &Schema) -> String {
    let children = Children::of(schema);
    let mut len = Measure(0);
    let _ = write_schema(schema, &children, &mut len);
    let mut out = String::with_capacity(len.0);
    let _ = write_schema(schema, &children, &mut out);
    debug_assert_eq!(out.len(), len.0);
    out
}

/// Write [`render`]'s text to `out`, in pieces and without measuring
/// it first.
pub fn render_into(schema: &Schema, out: &mut impl Write) -> fmt::Result {
    write_schema(schema, &Children::of(schema), out)
}

/// A [`Write`] that only counts the bytes written to it.
struct Measure(usize);

impl Write for Measure {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Every object class's direct children, ascending: object `o`'s are
/// `ids[start[o]..start[o + 1]]`.
struct Children {
    start: Vec<usize>,
    ids: Vec<ObjectId>,
}

impl Children {
    fn of(schema: &Schema) -> Children {
        let n = schema.object_count();
        let mut start = vec![0; n + 1];
        for (_, obj) in schema.objects() {
            for p in obj.parents() {
                start[p.index() + 1] += 1;
            }
        }
        for o in 0..n {
            start[o + 1] += start[o];
        }
        // `start[p]` is parent `p`'s cursor while filling, ending at its
        // successor's start; shift back after.
        let mut ids = vec![ObjectId::new(0); start[n]];
        for (id, obj) in schema.objects() {
            for p in obj.parents() {
                ids[start[p.index()]] = id;
                start[p.index()] += 1;
            }
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
        Children { start, ids }
    }

    fn of_object(&self, o: ObjectId) -> &[ObjectId] {
        &self.ids[self.start[o.index()]..self.start[o.index() + 1]]
    }
}

/// The diagram, written part by part: formatting runs only for domains
/// and structural constraints.
fn write_schema(schema: &Schema, children: &Children, out: &mut impl Write) -> fmt::Result {
    for part in ["schema ", schema.name(), "\n", "  object classes:\n"] {
        out.write_str(part)?;
    }
    for (root, obj) in schema.objects() {
        if obj.parents().is_empty() {
            write_object(schema, children, root, 2, out)?;
        }
    }

    if schema.relationship_count() > 0 {
        out.write_str("  relationship sets:\n")?;
        for (_, rel) in schema.relationships() {
            for part in ["    <", &rel.name, "> -- "] {
                out.write_str(part)?;
            }
            for (i, p) in rel.participants.iter().enumerate() {
                if i > 0 {
                    out.write_str(" -- ")?;
                }
                out.write_str(&schema.object(p.object).name)?;
                write!(out, " {}", p.cardinality)?;
                if let Some(role) = &p.role {
                    out.write_str(" as ")?;
                    out.write_str(role)?;
                }
            }
            out.write_char('\n')?;
            for a in &rel.attributes {
                out.write_str("        ")?;
                write_attr(a, out)?;
            }
        }
    }
    Ok(())
}

/// `. name: domain` with ` [key]` on keys, and a newline.
fn write_attr(a: &Attribute, out: &mut impl Write) -> fmt::Result {
    for part in [". ", &a.name, ": "] {
        out.write_str(part)?;
    }
    write!(out, "{}", a.domain)?;
    out.write_str(if a.is_key() { " [key]\n" } else { "\n" })
}

fn write_object(
    schema: &Schema,
    children: &Children,
    o: ObjectId,
    depth: usize,
    out: &mut impl Write,
) -> fmt::Result {
    let obj = schema.object(o);
    let pad = |out: &mut dyn Write| (0..depth).try_for_each(|_| out.write_str("  "));
    let tag = if obj.kind.is_category() {
        "] (category)\n"
    } else {
        "] (entity)\n"
    };
    pad(out)?;
    for part in ["[", &obj.name, tag] {
        out.write_str(part)?;
    }
    for a in &obj.attributes {
        pad(out)?;
        out.write_str("    ")?;
        write_attr(a, out)?;
    }
    // Children are listed in ascending id order. A multi-parent category
    // renders under each parent.
    for &child in children.of_object(o) {
        write_object(schema, children, child, depth + 1, out)?;
    }
    Ok(())
}

/// Render the schema as a Graphviz DOT graph — the "graphical interface
/// for displaying and browsing schemas [Larson 86]" the paper's
/// future-work section asks for, in the form every modern toolchain can
/// draw. Entity sets are boxes, categories are rounded boxes linked to
/// their parents with `isa` edges, relationship sets are diamonds with
/// cardinality-labelled edges (the classic ER diagram conventions the
/// paper's figures use).
pub fn to_dot(schema: &Schema) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", schema.name());
    let _ = writeln!(out, "  rankdir=BT;");
    let _ = writeln!(out, "  node [fontname=\"Helvetica\"];");
    for (id, obj) in schema.objects() {
        let (shape, style) = if obj.kind.is_category() {
            ("box", ", style=rounded")
        } else {
            ("box", "")
        };
        let attrs: Vec<String> = obj
            .attributes
            .iter()
            .map(|a| {
                if a.is_key() {
                    format!("<u>{}</u>", a.name)
                } else {
                    a.name.clone()
                }
            })
            .collect();
        let label = if attrs.is_empty() {
            format!("<<b>{}</b>>", obj.name)
        } else {
            format!("<<b>{}</b><br/>{}>", obj.name, attrs.join("<br/>"))
        };
        let _ = writeln!(
            out,
            "  o{} [shape={shape}{style}, label={label}];",
            id.index()
        );
    }
    for (id, obj) in schema.objects() {
        for &p in obj.parents() {
            let _ = writeln!(
                out,
                "  o{} -> o{} [label=\"isa\", arrowhead=onormal];",
                id.index(),
                p.index()
            );
        }
    }
    for (rid, rel) in schema.relationships() {
        let _ = writeln!(
            out,
            "  r{} [shape=diamond, label=\"{}\"];",
            rid.index(),
            rel.name
        );
        for p in &rel.participants {
            let role = p
                .role
                .as_deref()
                .map(|r| format!("{r} "))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  r{} -> o{} [label=\"{role}{}\", dir=none];",
                rid.index(),
                p.object.index(),
                p.cardinality
            );
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::relationship::Cardinality;
    use crate::schema::SchemaBuilder;

    #[test]
    fn render_shows_hierarchy_and_relationships() {
        let mut b = SchemaBuilder::new("uni");
        let student = b
            .entity_set("Student")
            .attr_key("Name", Domain::Char)
            .finish();
        let dept = b.entity_set("Department").finish();
        b.category("Grad_student", vec![student])
            .attr("Support_type", Domain::Char)
            .finish();
        b.relationship("Majors")
            .participant(student, Cardinality::AT_MOST_ONE)
            .participant(dept, Cardinality::MANY)
            .finish();
        let s = b.build().unwrap();
        let text = render(&s);
        assert!(text.contains("schema uni"), "{text}");
        assert!(text.contains("[Student] (entity)"), "{text}");
        assert!(text.contains("[Grad_student] (category)"), "{text}");
        assert!(text.contains(". Name: char [key]"), "{text}");
        assert!(
            text.contains("<Majors> -- Student (0,1) -- Department (0,n)"),
            "{text}"
        );
        // Category is indented deeper than its parent entity.
        let student_line = text.lines().position(|l| l.contains("[Student]")).unwrap();
        let grad_line = text
            .lines()
            .position(|l| l.contains("[Grad_student]"))
            .unwrap();
        assert!(grad_line > student_line);
        let indent = |i: usize| {
            text.lines()
                .nth(i)
                .unwrap()
                .chars()
                .take_while(|c| *c == ' ')
                .count()
        };
        assert!(indent(grad_line) > indent(student_line));
    }

    #[test]
    fn dot_export_contains_nodes_edges_and_cardinalities() {
        let s = crate::fixtures::sc2();
        let dot = to_dot(&s);
        assert!(dot.starts_with("digraph \"sc2\""), "{dot}");
        assert!(dot.contains("<b>Grad_student</b>"), "{dot}");
        assert!(dot.contains("<u>Name</u>"), "key underlined: {dot}");
        assert!(dot.contains("shape=diamond, label=\"Works\""), "{dot}");
        assert!(dot.contains("(1,1)"), "cardinality labels: {dot}");
        // Categories link to parents with isa edges.
        let s4 = crate::fixtures::sc4();
        let dot4 = to_dot(&s4);
        assert!(dot4.contains("label=\"isa\""), "{dot4}");
        assert!(dot4.contains("style=rounded"), "{dot4}");
    }
}
