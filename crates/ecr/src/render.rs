//! Plain-text rendering of ECR schemas.
//!
//! The paper presents schemas as boxes-and-diamonds diagrams (Figures 2–5).
//! This renderer produces the equivalent textual diagram: entity sets as
//! roots, categories indented beneath their parents (the IS-A lattice), and
//! relationship sets with their legs and structural constraints. The
//! `figures` binary in `sit-bench` uses it to regenerate the paper's
//! figures.

use std::fmt::Write as _;

use crate::attribute::Attribute;
use crate::graph::IsaGraph;
use crate::ids::ObjectId;
use crate::schema::Schema;

/// Render the schema as an indented text diagram.
///
/// Everything is written straight into the output buffer: no string is
/// built per attribute, leg or indentation level.
pub fn render(schema: &Schema) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "schema {}", schema.name());
    let graph = IsaGraph::of(schema);

    out.push_str("  object classes:\n");
    let mut roots = graph.roots();
    roots.sort_by_key(|o| o.index());
    for root in roots {
        render_object(schema, &graph, root, 2, &mut out);
    }

    if schema.relationship_count() > 0 {
        out.push_str("  relationship sets:\n");
        for (_, rel) in schema.relationships() {
            let _ = write!(out, "    <{}> -- ", rel.name);
            for (i, p) in rel.participants.iter().enumerate() {
                if i > 0 {
                    out.push_str(" -- ");
                }
                let _ = write!(out, "{} {}", schema.object(p.object).name, p.cardinality);
                if let Some(role) = &p.role {
                    let _ = write!(out, " as {role}");
                }
            }
            out.push('\n');
            for a in &rel.attributes {
                out.push_str("        ");
                render_attr(a, &mut out);
            }
        }
    }
    out
}

/// `. name: domain` with ` [key]` on keys, and a newline.
fn render_attr(a: &Attribute, out: &mut String) {
    let key = if a.is_key() { " [key]" } else { "" };
    let _ = writeln!(out, ". {}: {}{}", a.name, a.domain, key);
}

fn render_object(schema: &Schema, graph: &IsaGraph, o: ObjectId, depth: usize, out: &mut String) {
    let obj = schema.object(o);
    let pad = |out: &mut String| (0..depth).for_each(|_| out.push_str("  "));
    let tag = if obj.kind.is_category() {
        "category"
    } else {
        "entity"
    };
    pad(out);
    let _ = writeln!(out, "[{}] ({tag})", obj.name);
    for a in &obj.attributes {
        pad(out);
        out.push_str("    ");
        render_attr(a, out);
    }
    // Children are recorded in ascending id order. A multi-parent
    // category renders under each parent.
    for &child in graph.children(o) {
        render_object(schema, graph, child, depth + 1, out);
    }
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
