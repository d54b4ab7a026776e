//! Pretty-printer: the inverse of [`crate::ddl::parse`].
//!
//! `parse(print(s)) == s` for every valid schema: a category follows its
//! parents, so each is defined before it is named. The property tests in
//! the workspace `tests/` crate and in `crates/ecr/tests/` verify it.

use std::fmt::{self, Write};

use crate::attribute::Attribute;
use crate::object::ObjectKind;
use crate::schema::Schema;

/// Render a schema in DDL syntax.
pub fn print(schema: &Schema) -> String {
    let mut out = String::new();
    let _ = print_into(schema, &mut out);
    out
}

/// Write [`print()`]'s text to `out`.
pub fn print_into(schema: &Schema, out: &mut impl Write) -> fmt::Result {
    writeln!(out, "schema {} {{", schema.name())?;
    for (_, obj) in schema.objects() {
        match &obj.kind {
            ObjectKind::EntitySet => writeln!(out, "  entity {} {{", obj.name)?,
            ObjectKind::Category { parents } => {
                write!(out, "  category {} of ", obj.name)?;
                for (i, &p) in parents.iter().enumerate() {
                    if i > 0 {
                        out.write_str(", ")?;
                    }
                    out.write_str(&schema.object(p).name)?;
                }
                out.write_str(" {\n")?;
            }
        }
        for a in &obj.attributes {
            print_attr(a, out)?;
        }
        out.write_str("  }\n")?;
    }
    for (_, rel) in schema.relationships() {
        writeln!(out, "  relationship {} {{", rel.name)?;
        for p in &rel.participants {
            write!(
                out,
                "    {} {}",
                schema.object(p.object).name,
                p.cardinality
            )?;
            if let Some(r) = &p.role {
                write!(out, " role {r}")?;
            }
            out.write_str(";\n")?;
        }
        for a in &rel.attributes {
            print_attr(a, out)?;
        }
        out.write_str("  }\n")?;
    }
    out.write_str("}\n")
}

/// One attribute line: `    name: domain;`, or `... key;`.
fn print_attr(a: &Attribute, out: &mut impl Write) -> fmt::Result {
    let key = if a.is_key() { " key" } else { "" };
    writeln!(out, "    {}: {}{};", a.name, a.domain, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::parse;
    use crate::domain::Domain;
    use crate::relationship::Cardinality;
    use crate::schema::SchemaBuilder;

    #[test]
    fn print_parse_roundtrip() {
        let mut b = SchemaBuilder::new("rt");
        let person = b
            .entity_set("Person")
            .attr_key("SSN", Domain::Int)
            .attr("Name", Domain::Char)
            .finish();
        let city = b
            .entity_set("City")
            .attr_key("Cname", Domain::Char)
            .finish();
        b.category("Adult", vec![person])
            .attr("Age", Domain::Int)
            .finish();
        b.relationship("LivesIn")
            .participant_role(person, Cardinality::ONE, "resident")
            .participant(city, Cardinality::MANY)
            .attr("Since", Domain::Date)
            .finish();
        let s = b.build().unwrap();
        let text = print(&s);
        let back = parse(&text).unwrap();
        assert_eq!(back, s, "printed:\n{text}");
    }

    #[test]
    fn cardinality_notation_matches_parser() {
        let mut b = SchemaBuilder::new("c");
        let x = b.entity_set("X").finish();
        let y = b.entity_set("Y").finish();
        b.relationship("R")
            .participant(x, Cardinality::at_least(2))
            .participant(y, Cardinality::new(1, Some(5)))
            .finish();
        let s = b.build().unwrap();
        let text = print(&s);
        assert!(text.contains("X (2,n);"), "{text}");
        assert!(text.contains("Y (1,5);"), "{text}");
        assert_eq!(parse(&text).unwrap(), s);
    }

    #[test]
    fn enum_domains_roundtrip() {
        let mut b = SchemaBuilder::new("e");
        b.entity_set("G")
            .attr("Support", Domain::Enum(vec!["TA".into(), "RA".into()]))
            .finish();
        let s = b.build().unwrap();
        let text = print(&s);
        assert!(text.contains("enum{TA,RA}"), "{text}");
        assert_eq!(parse(&text).unwrap(), s);
    }
}
