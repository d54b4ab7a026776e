//! Session scripts — saving and replaying an integration session.
//!
//! The paper's future-work section wants "a common representation of the
//! database objects and the mappings between them ... kept in a data
//! dictionary available to all of the tools". This module is that
//! representation for sessions: a plain-text script holding the component
//! schemas (in the ECR DDL), the attribute equivalences, and the
//! assertions — everything needed to reconstruct a [`Session`]
//! deterministically. The CLI uses it for `--save`/`--load`; tests use it
//! to round-trip sessions.
//!
//! ## Format
//!
//! ```text
//! # sit session v1
//! schema sc1 { ... }          # any number of DDL schema blocks
//! schema sc2 { ... }
//! equiv sc1.Student.Name = sc2.Grad_student.Name;
//! assert sc1.Department equals sc2.Department;
//! assert sc1.Student contains sc2.Grad_student;
//! rel-assert sc1.Majors equals sc2.Majors;
//! ```
//!
//! Assertion keywords follow [`crate::assertion::Assertion`]'s display
//! names with spaces replaced by `-`: `equals`, `contained-in`,
//! `contains`, `disjoint-integrable`, `may-be-integrable`,
//! `disjoint-non-integrable`.

use std::fmt;

use crate::assertion::Assertion;
use crate::catalog::{GObj, GRel};
use crate::element::Element;
use crate::error::{CoreError, Result};
use crate::session::Session;

/// Serialize a session: schemas as DDL, then equivalences, then
/// assertions in the order they were recorded.
pub fn save(session: &Session) -> String {
    let mut out = String::new();
    let _ = save_into(session, &mut out);
    out
}

/// Write [`save`]'s text to `out`.
pub fn save_into(session: &Session, out: &mut impl fmt::Write) -> fmt::Result {
    let catalog = session.catalog();
    out.write_str("# sit session v1\n")?;
    for (_, schema) in catalog.schemas() {
        sit_ecr::ddl::print_into(schema, out)?;
    }
    for (_, members) in session.equivalences().classes() {
        // Emit the class as a spanning set of edges: members from other
        // schemas pair with the anchor; members sharing the anchor's
        // schema pair with the first foreign member, or with the anchor
        // when a Screen 7 delete left the class within one schema (`load`
        // restores such a line; a user declaration of it is rejected).
        let anchor = members[0];
        let foreign = members.iter().copied().find(|m| m.schema != anchor.schema);
        for &m in &members[1..] {
            let partner = match foreign {
                Some(foreign) if m.schema == anchor.schema => foreign,
                _ => anchor,
            };
            writeln!(
                out,
                "equiv {} = {};",
                catalog.attr_dotted(partner),
                catalog.attr_dotted(m)
            )?;
        }
    }
    save_assertions::<GObj>(session, out)?;
    save_assertions::<GRel>(session, out)
}

/// The active user assertions of one kind, as directives in fact order.
fn save_assertions<E: Element>(session: &Session, out: &mut impl fmt::Write) -> fmt::Result {
    let catalog = session.catalog();
    for fact in session.engine::<E>().facts().iter().filter(|f| f.active) {
        if let Some(assertion) = fact.assertion {
            writeln!(
                out,
                "{} {} {} {};",
                E::DIRECTIVE,
                catalog.dotted(fact.a),
                keyword(assertion),
                catalog.dotted(fact.b)
            )?;
        }
    }
    Ok(())
}

/// Reconstruct a session from a script produced by [`save`] (or written
/// by hand).
pub fn load(text: &str) -> Result<Session> {
    let mut session = Session::new();
    // 1. Schema blocks: extract every `schema ... { ... }` region by brace
    //    counting, leave the rest as directive lines.
    let (schemas_src, directives) = split_schemas(text)?;
    if !schemas_src.trim().is_empty() {
        let schemas = sit_ecr::ddl::parse_many(&schemas_src)
            .map_err(|e| CoreError::UnknownName(format!("DDL error: {e}")))?;
        session.add_schemas(schemas)?;
    }
    // 2. Directives.
    for line in directives.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let line = line.strip_suffix(';').unwrap_or(line).trim();
        if let Some(rest) = line.strip_prefix("equiv ") {
            let (a, b) = rest
                .split_once('=')
                .ok_or_else(|| bad_line("equiv needs `a = b`", line))?;
            let a = parse_attr_path(&session, a.trim())?;
            let b = parse_attr_path(&session, b.trim())?;
            session.restore_equivalent(a, b)?;
        } else if let Some(rest) = directive::<GRel>(line) {
            load_assertion::<GRel>(&mut session, rest, line)?;
        } else if let Some(rest) = directive::<GObj>(line) {
            load_assertion::<GObj>(&mut session, rest, line)?;
        } else {
            return Err(bad_line("unknown directive", line));
        }
    }
    Ok(session)
}

/// The operands of an assertion directive of kind `E`, if `line` is one.
fn directive<E: Element>(line: &str) -> Option<&str> {
    line.strip_prefix(E::DIRECTIVE)?.strip_prefix(' ')
}

/// Replay one `a keyword b` assertion directive of kind `E`.
fn load_assertion<E: Element>(session: &mut Session, rest: &str, line: &str) -> Result<()> {
    let (a, assertion, b) = parse_assertion_line(rest, line)?;
    let (sa, ea) = split2(a, line)?;
    let (sb, eb) = split2(b, line)?;
    let ga = session.named::<E>(sa, ea)?;
    let gb = session.named::<E>(sb, eb)?;
    session.assert(ga, gb, assertion)?;
    Ok(())
}

/// The script keyword of an assertion.
pub fn keyword(a: Assertion) -> &'static str {
    match a {
        Assertion::Equal => "equals",
        Assertion::ContainedIn => "contained-in",
        Assertion::Contains => "contains",
        Assertion::DisjointIntegrable => "disjoint-integrable",
        Assertion::MayBe => "may-be-integrable",
        Assertion::DisjointNonIntegrable => "disjoint-non-integrable",
    }
}

/// Parse a script keyword back into an assertion.
pub fn parse_keyword(s: &str) -> Option<Assertion> {
    Assertion::MENU.into_iter().find(|a| keyword(*a) == s)
}

fn parse_assertion_line<'a>(rest: &'a str, line: &str) -> Result<(&'a str, Assertion, &'a str)> {
    let mut parts = rest.split_whitespace();
    let a = parts
        .next()
        .ok_or_else(|| bad_line("missing operand", line))?;
    let kw = parts
        .next()
        .ok_or_else(|| bad_line("missing assertion keyword", line))?;
    let b = parts
        .next()
        .ok_or_else(|| bad_line("missing operand", line))?;
    if parts.next().is_some() {
        return Err(bad_line("trailing tokens", line));
    }
    let assertion = parse_keyword(kw).ok_or_else(|| bad_line("unknown assertion", line))?;
    Ok((a, assertion, b))
}

fn parse_attr_path(session: &Session, dotted: &str) -> Result<crate::catalog::GAttr> {
    let mut it = dotted.split('.');
    let (Some(s), Some(o), Some(a), None) = (it.next(), it.next(), it.next(), it.next()) else {
        return Err(bad_line("attribute paths are schema.owner.attr", dotted));
    };
    session.catalog().attr_named(s, o, a)
}

fn split2<'a>(dotted: &'a str, line: &str) -> Result<(&'a str, &'a str)> {
    dotted
        .split_once('.')
        .ok_or_else(|| bad_line("object paths are schema.Object", line))
}

fn bad_line(msg: &str, line: &str) -> CoreError {
    CoreError::UnknownName(format!("{msg}: `{line}`"))
}

/// Separate `schema ... { ... }` blocks from directive lines.
fn split_schemas(text: &str) -> Result<(String, String)> {
    let mut schemas = String::new();
    let mut directives = String::new();
    let mut depth = 0usize;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if depth > 0 || trimmed.starts_with("schema ") {
            schemas.push_str(line);
            schemas.push('\n');
            for c in line.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.checked_sub(1).ok_or_else(|| {
                            CoreError::UnknownName("unbalanced braces in script".into())
                        })?;
                    }
                    '#' => break, // comment: ignore the rest of the line
                    _ => {}
                }
            }
        } else {
            directives.push_str(line);
            directives.push('\n');
        }
    }
    if depth != 0 {
        return Err(CoreError::UnknownName("unbalanced braces in script".into()));
    }
    Ok((schemas, directives))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sit_ecr::fixtures;

    fn paper_session() -> Session {
        let mut s = Session::new();
        s.add_schema(fixtures::sc1()).unwrap();
        s.add_schema(fixtures::sc2()).unwrap();
        s.declare_equivalent_named("sc1", "Student", "Name", "sc2", "Grad_student", "Name")
            .unwrap();
        s.declare_equivalent_named("sc1", "Student", "GPA", "sc2", "Grad_student", "GPA")
            .unwrap();
        s.declare_equivalent_named("sc1", "Department", "Dname", "sc2", "Department", "Dname")
            .unwrap();
        let d1 = s.object_named("sc1", "Department").unwrap();
        let d2 = s.object_named("sc2", "Department").unwrap();
        let st = s.object_named("sc1", "Student").unwrap();
        let gr = s.object_named("sc2", "Grad_student").unwrap();
        s.assert_objects(d1, d2, Assertion::Equal).unwrap();
        s.assert_objects(st, gr, Assertion::Contains).unwrap();
        let m1: GRel = s.named("sc1", "Majors").unwrap();
        let m2: GRel = s.named("sc2", "Majors").unwrap();
        s.assert(m1, m2, Assertion::Equal).unwrap();
        s
    }

    #[test]
    fn save_survives_class_with_no_foreign_member() {
        // Merge three attributes into one class, then delete the only
        // sc2 member (a Screen 7 delete): the residue spans just sc1. It
        // is saved as a same-schema `equiv` line, which `load` restores.
        let mut s = Session::new();
        s.add_schema(fixtures::sc1()).unwrap();
        s.add_schema(fixtures::sc2()).unwrap();
        s.declare_equivalent_named("sc1", "Student", "Name", "sc2", "Grad_student", "Name")
            .unwrap();
        s.declare_equivalent_named("sc1", "Department", "Dname", "sc2", "Grad_student", "Name")
            .unwrap();
        let foreign = s
            .catalog()
            .attr_named("sc2", "Grad_student", "Name")
            .unwrap();
        assert!(s.remove_from_class(foreign));
        let script = save(&s);
        assert!(script.contains("equiv sc1.Student.Name = sc1.Department.Dname;"));
        let reloaded = load(&script).unwrap();
        assert_eq!(reloaded.catalog().len(), 2);
        assert_eq!(
            reloaded.equivalences().classes(),
            s.equivalences().classes()
        );
        assert_eq!(save(&reloaded), script);
        // A user still cannot declare a same-schema equivalence.
        let (a, b) = (
            s.equivalences().classes()[0].1[0],
            s.equivalences().classes()[0].1[1],
        );
        assert!(matches!(
            reloaded.clone().declare_equivalent(a, b),
            Err(CoreError::SameSchemaEquivalence(_))
        ));
    }

    #[test]
    fn save_load_roundtrip_preserves_everything() {
        let original = paper_session();
        let script = save(&original);
        let loaded = load(&script).unwrap();
        // Schemas identical.
        assert_eq!(loaded.catalog().len(), 2);
        for (sid, schema) in original.catalog().schemas() {
            assert_eq!(loaded.catalog().schema(sid), schema);
        }
        // Equivalence classes identical.
        let norm = |s: &Session| {
            let mut cs: Vec<Vec<String>> = s
                .equivalences()
                .classes()
                .into_iter()
                .map(|(_, ms)| ms.iter().map(|&m| s.catalog().attr_display(m)).collect())
                .collect();
            cs.sort();
            cs
        };
        assert_eq!(norm(&original), norm(&loaded));
        // Assertions produce the same pinned relations.
        let d1 = loaded.object_named("sc1", "Department").unwrap();
        let d2 = loaded.object_named("sc2", "Department").unwrap();
        assert_eq!(loaded.effective_assertion(d1, d2), Some(Assertion::Equal));
        // And the integration results match.
        let s1 = original.catalog().by_name("sc1").unwrap();
        let s2 = original.catalog().by_name("sc2").unwrap();
        let a = original.integrate(s1, s2, &Default::default()).unwrap();
        let b = loaded.integrate(s1, s2, &Default::default()).unwrap();
        assert_eq!(a.schema, b.schema);
    }

    #[test]
    fn script_is_human_editable() {
        let script = r#"
# hand-written session
schema a {
  entity Person { ssn: int key; }
}
schema b {
  entity Human { ssn: int key; }
}
equiv a.Person.ssn = b.Human.ssn;
assert a.Person equals b.Human;
"#;
        let session = load(script).unwrap();
        let p = session.object_named("a", "Person").unwrap();
        let h = session.object_named("b", "Human").unwrap();
        assert_eq!(session.effective_assertion(p, h), Some(Assertion::Equal));
    }

    #[test]
    fn classes_with_same_schema_members_roundtrip() {
        // sc2.Grad_student.Name and sc2.Faculty.Name share a class via
        // sc1.Student.Name; the save format must avoid same-schema equiv
        // lines.
        let mut s = Session::new();
        s.add_schema(fixtures::sc1()).unwrap();
        s.add_schema(fixtures::sc2()).unwrap();
        s.declare_equivalent_named("sc1", "Student", "Name", "sc2", "Grad_student", "Name")
            .unwrap();
        s.declare_equivalent_named("sc1", "Student", "Name", "sc2", "Faculty", "Name")
            .unwrap();
        let script = save(&s);
        let loaded = load(&script).unwrap();
        let a = loaded
            .catalog()
            .attr_named("sc2", "Grad_student", "Name")
            .unwrap();
        let b = loaded
            .catalog()
            .attr_named("sc2", "Faculty", "Name")
            .unwrap();
        assert!(loaded.equivalences().equivalent(a, b));
    }

    #[test]
    fn keywords_roundtrip() {
        for a in Assertion::MENU {
            assert_eq!(parse_keyword(keyword(a)), Some(a));
        }
        assert_eq!(parse_keyword("nonsense"), None);
    }

    #[test]
    fn errors_carry_the_offending_line() {
        assert!(load("bogus directive here;").is_err());
        assert!(load("equiv half = ;").is_err());
        assert!(load("assert a.X equals b;").is_err());
        assert!(load("schema x {").is_err(), "unbalanced braces");
        let err = load("assert a.X frobnicates b.Y;").unwrap_err().to_string();
        assert!(err.contains("unknown assertion"), "{err}");
    }

    #[test]
    fn conflicting_script_fails_like_the_session_would() {
        let script = r#"
schema a { entity X { id: int key; } }
schema b { entity Y { id: int key; } }
assert a.X equals b.Y;
assert a.X disjoint-non-integrable b.Y;
"#;
        assert!(matches!(load(script), Err(CoreError::Conflict(_))));
    }
}
