//! Recursive-descent parser for the ECR DDL.

use crate::ddl::lexer::{Lexer, Token, TokenKind};
use crate::domain::Domain;
use crate::error::{EcrError, Result};
use crate::relationship::Cardinality;
use crate::schema::{Schema, SchemaBuilder};

/// Parse exactly one `schema` block.
pub fn parse(src: &str) -> Result<Schema> {
    let mut schemas = parse_many(src)?;
    match schemas.len() {
        1 => Ok(schemas.pop().expect("len checked")),
        n => Err(EcrError::Parse {
            line: 1,
            col: 1,
            msg: format!("expected exactly one schema, found {n}"),
        }),
    }
}

/// Parse a file containing any number of `schema` blocks.
pub fn parse_many(src: &str) -> Result<Vec<Schema>> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser { tokens, at: 0 };
    let mut out = Vec::new();
    while !p.at_eof() {
        out.push(p.schema()?);
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    at: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.at.min(self.tokens.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn bump(&mut self) -> Token<'a> {
        let t = *self.peek();
        if self.at < self.tokens.len() - 1 {
            self.at += 1;
        }
        t
    }

    fn error(&self, msg: impl Into<String>) -> EcrError {
        let t = self.peek();
        EcrError::Parse {
            line: t.line,
            col: t.col,
            msg: msg.into(),
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token<'a>> {
        if &self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str> {
        match self.peek().kind {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected {what}, found {}", other.describe()))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        match self.peek().kind {
            TokenKind::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected `{kw}`, found {}", other.describe()))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    fn schema(&mut self) -> Result<Schema> {
        self.keyword("schema")?;
        let name = self.ident("schema name")?;
        self.expect(&TokenKind::LBrace)?;
        let mut b = SchemaBuilder::new(name);
        while self.peek().kind != TokenKind::RBrace {
            if self.peek_keyword("entity") {
                self.entity(&mut b)?;
            } else if self.peek_keyword("category") {
                self.category(&mut b)?;
            } else if self.peek_keyword("relationship") {
                self.relationship(&mut b)?;
            } else {
                return Err(self.error(format!(
                    "expected `entity`, `category` or `relationship`, found {}",
                    self.peek().kind.describe()
                )));
            }
        }
        self.expect(&TokenKind::RBrace)?;
        let mut schema = b.build()?;
        schema.shrink_to_fit();
        Ok(schema)
    }

    fn entity(&mut self, b: &mut SchemaBuilder) -> Result<()> {
        self.keyword("entity")?;
        let name = self.ident("entity name")?;
        self.expect(&TokenKind::LBrace)?;
        let mut ob = b.entity_set(name);
        while self.peek().kind != TokenKind::RBrace {
            let (aname, domain, key) = self.attr()?;
            ob = if key {
                ob.attr_key(aname, domain)
            } else {
                ob.attr(aname, domain)
            };
        }
        ob.finish();
        self.expect(&TokenKind::RBrace)?;
        Ok(())
    }

    fn category(&mut self, b: &mut SchemaBuilder) -> Result<()> {
        self.keyword("category")?;
        let name = self.ident("category name")?;
        self.keyword("of")?;
        let mut parents = vec![self.ident("parent name")?];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            parents.push(self.ident("parent name")?);
        }
        self.expect(&TokenKind::LBrace)?;
        let mut ob = b.category_of(name, &parents)?;
        while self.peek().kind != TokenKind::RBrace {
            let (aname, domain, key) = self.attr()?;
            ob = if key {
                ob.attr_key(aname, domain)
            } else {
                ob.attr(aname, domain)
            };
        }
        ob.finish();
        self.expect(&TokenKind::RBrace)?;
        Ok(())
    }

    fn relationship(&mut self, b: &mut SchemaBuilder) -> Result<()> {
        self.keyword("relationship")?;
        let name = self.ident("relationship name")?;
        self.expect(&TokenKind::LBrace)?;
        // Collect members first so the builder borrow stays simple.
        enum Member<'a> {
            Leg(&'a str, Cardinality, Option<&'a str>),
            Attr(&'a str, Domain, bool),
        }
        let mut members = Vec::new();
        while self.peek().kind != TokenKind::RBrace {
            let mname = self.ident("participant or attribute name")?;
            match self.peek().kind {
                TokenKind::LParen => {
                    let card = self.cardinality()?;
                    let role = if self.peek_keyword("role") {
                        self.bump();
                        Some(self.ident("role name")?)
                    } else {
                        None
                    };
                    self.expect(&TokenKind::Semi)?;
                    members.push(Member::Leg(mname, card, role));
                }
                TokenKind::Colon => {
                    self.bump();
                    let domain = self.domain()?;
                    let key = if self.peek_keyword("key") {
                        self.bump();
                        true
                    } else {
                        false
                    };
                    self.expect(&TokenKind::Semi)?;
                    members.push(Member::Attr(mname, domain, key));
                }
                _ => {
                    return Err(self.error(format!(
                        "expected `(` (participant) or `:` (attribute), found {}",
                        self.peek().kind.describe()
                    )))
                }
            }
        }
        self.expect(&TokenKind::RBrace)?;
        let mut rb = b.relationship(name);
        for m in members {
            rb = match m {
                Member::Leg(oname, card, role) => {
                    let oid = rb_lookup(rb.b(), oname)?;
                    match role {
                        Some(r) => rb.participant_role(oid, card, r),
                        None => rb.participant(oid, card),
                    }
                }
                Member::Attr(aname, domain, true) => rb.attr_key(aname, domain),
                Member::Attr(aname, domain, false) => rb.attr(aname, domain),
            };
        }
        rb.finish();
        Ok(())
    }

    fn cardinality(&mut self) -> Result<Cardinality> {
        self.expect(&TokenKind::LParen)?;
        let min = self.num("minimum cardinality")?;
        self.expect(&TokenKind::Comma)?;
        let max = match self.peek().kind {
            TokenKind::Num(n) => {
                self.bump();
                Some(n)
            }
            TokenKind::Ident("n" | "N") => {
                self.bump();
                None
            }
            other => {
                return Err(self.error(format!(
                    "expected a number or `n`, found {}",
                    other.describe()
                )))
            }
        };
        self.expect(&TokenKind::RParen)?;
        Ok(Cardinality::new(min, max))
    }

    fn num(&mut self, what: &str) -> Result<u32> {
        match self.peek().kind {
            TokenKind::Num(n) => {
                self.bump();
                Ok(n)
            }
            other => Err(self.error(format!("expected {what}, found {}", other.describe()))),
        }
    }

    fn domain(&mut self) -> Result<Domain> {
        let name = self.ident("domain")?;
        if name == "enum" {
            self.expect(&TokenKind::LBrace)?;
            let mut vals = vec![self.ident("enum value")?.to_owned()];
            while self.peek().kind == TokenKind::Comma {
                self.bump();
                vals.push(self.ident("enum value")?.to_owned());
            }
            self.expect(&TokenKind::RBrace)?;
            Ok(Domain::Enum(vals))
        } else {
            name.parse()
        }
    }

    fn attr(&mut self) -> Result<(&'a str, Domain, bool)> {
        let name = self.ident("attribute name")?;
        self.expect(&TokenKind::Colon)?;
        let domain = self.domain()?;
        let key = if self.peek_keyword("key") {
            self.bump();
            true
        } else {
            false
        };
        self.expect(&TokenKind::Semi)?;
        Ok((name, domain, key))
    }
}

/// Borrow helper: `RelBuilder` needs name lookup against its underlying
/// `SchemaBuilder` while the relationship is mid-construction.
trait RelBuilderExt {
    fn b(&self) -> &SchemaBuilder;
}

impl RelBuilderExt for crate::schema::RelBuilder<'_> {
    fn b(&self) -> &SchemaBuilder {
        self.builder()
    }
}

fn rb_lookup(b: &SchemaBuilder, name: &str) -> Result<crate::ids::ObjectId> {
    b.object_by_name(name)
        .ok_or_else(|| EcrError::UnknownName(name.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectKind;

    const SC1: &str = r#"
    # Paper Figure 3: schema sc1
    schema sc1 {
      entity Student { Name: char key; GPA: real; }
      entity Department { Dname: char key; }
      relationship Majors {
        Student (0,1);
        Department (0,n);
        Since: date;
      }
    }
    "#;

    #[test]
    fn parses_simple_schema() {
        let s = parse(SC1).unwrap();
        assert_eq!(s.name(), "sc1");
        assert_eq!(s.object_count(), 2);
        assert_eq!(s.relationship_count(), 1);
        let majors = s.relationship(s.rel_by_name("Majors").unwrap());
        assert_eq!(majors.degree(), 2);
        assert_eq!(majors.participants[0].cardinality, Cardinality::AT_MOST_ONE);
        assert_eq!(majors.participants[1].cardinality, Cardinality::MANY);
        assert_eq!(majors.attributes[0].name, "Since");
    }

    #[test]
    fn parses_categories_roles_and_enums() {
        let src = r#"
        schema sc2 {
          entity Person { SSN: int key; }
          category Grad of Person { Support_type: enum{TA, RA}; }
          relationship Advises {
            Person (0,n) role advisor;
            Grad (1,1) role advisee;
          }
        }
        "#;
        let s = parse(src).unwrap();
        let grad = s.object(s.object_by_name("Grad").unwrap());
        assert!(matches!(grad.kind, ObjectKind::Category { .. }));
        assert_eq!(
            grad.attributes[0].domain,
            Domain::Enum(vec!["TA".into(), "RA".into()])
        );
        let adv = s.relationship(s.rel_by_name("Advises").unwrap());
        assert_eq!(adv.participants[0].role.as_deref(), Some("advisor"));
        assert_eq!(adv.participants[1].cardinality, Cardinality::ONE);
    }

    #[test]
    fn parse_many_reads_multiple_schemas() {
        let src = "schema a { entity X { } } schema b { entity Y { } }";
        let ss = parse_many(src).unwrap();
        assert_eq!(ss.len(), 2);
        assert_eq!(ss[0].name(), "a");
        assert_eq!(ss[1].name(), "b");
    }

    #[test]
    fn parse_rejects_multiple_when_one_expected() {
        let src = "schema a { } schema b { }";
        let err = parse(src).unwrap_err().to_string();
        assert!(err.contains("exactly one schema"), "{err}");
    }

    #[test]
    fn reports_position_of_syntax_errors() {
        let err = parse("schema x {\n  entity E { bad }\n}").unwrap_err();
        match err {
            EcrError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn unknown_participant_is_an_error() {
        let src = "schema x { entity A { } relationship R { A (0,n); Ghost (0,n); } }";
        let err = parse(src).unwrap_err().to_string();
        assert!(err.contains("Ghost"), "{err}");
    }

    #[test]
    fn unknown_category_parent_is_an_error() {
        let src = "schema x { category C of Ghost { } }";
        let err = parse(src).unwrap_err().to_string();
        assert!(err.contains("Ghost"), "{err}");
    }

    #[test]
    fn key_is_usable_as_attribute_name() {
        // `key` only acts as a keyword after a domain.
        let src = "schema x { entity E { key: int key; } }";
        let s = parse(src).unwrap();
        let e = s.object(s.object_by_name("E").unwrap());
        assert_eq!(e.attributes[0].name, "key");
        assert!(e.attributes[0].is_key());
    }
}
