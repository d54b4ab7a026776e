//! A minimal query language used to exercise the generated mappings.
//!
//! The paper (phase 4): "Following integration, mappings between each
//! component schema and the integrated schema are generated. Mappings are
//! used to translate requests in an operational system after integration."
//! To make the mappings testable we define the smallest request shape that
//! demonstrates both translation directions: project a set of attributes of
//! one object class, optionally filtered by a comparison on one attribute.

use std::fmt;

/// Comparison operators for [`Filter`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A selection predicate: `attr op literal`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Filter {
    /// Attribute the predicate tests.
    pub attr: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal value (kept textual; the engine never evaluates it).
    pub value: String,
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.attr, self.op, self.value)
    }
}

/// A request against one schema: `select <project> from <object>
/// [where <filter>]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Query {
    /// Target object class (or relationship set) name.
    pub object: String,
    /// Projected attribute names.
    pub project: Vec<String>,
    /// Optional selection.
    pub filter: Option<Filter>,
}

impl Query {
    /// Projection-only query.
    pub fn select(object: impl Into<String>, project: &[&str]) -> Self {
        Self {
            object: object.into(),
            project: project.iter().map(|s| (*s).to_owned()).collect(),
            filter: None,
        }
    }

    /// Attach a filter.
    pub fn filtered(
        mut self,
        attr: impl Into<String>,
        op: CmpOp,
        value: impl Into<String>,
    ) -> Self {
        self.filter = Some(Filter {
            attr: attr.into(),
            op,
            value: value.into(),
        });
        self
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select {} from {}", self.project.join(", "), self.object)?;
        if let Some(filter) = &self.filter {
            write!(f, " where {filter}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Query {
    type Err = String;

    /// Parse `select a, b from X [where c OP value]` (case-insensitive
    /// keywords; the value is kept verbatim).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_lowercase();
        let sel = lower
            .find("select")
            .ok_or_else(|| "expected `select`".to_owned())?;
        let from = lower
            .find(" from ")
            .ok_or_else(|| "expected `from`".to_owned())?;
        if from < sel + 6 {
            return Err("`from` before the projection".to_owned());
        }
        let project: Vec<String> = s[sel + 6..from]
            .split(',')
            .map(|p| p.trim().to_owned())
            .filter(|p| !p.is_empty())
            .collect();
        if project.is_empty() {
            return Err("empty projection".to_owned());
        }
        let rest = &s[from + 6..];
        let (object, filter) = match rest.to_lowercase().find(" where ") {
            Some(w) => {
                let object = rest[..w].trim().to_owned();
                let cond = rest[w + 7..].trim();
                let (attr, op, value) = parse_condition(cond)?;
                (object, Some(Filter { attr, op, value }))
            }
            None => (rest.trim().to_owned(), None),
        };
        if object.is_empty() {
            return Err("empty target".to_owned());
        }
        Ok(Query {
            object,
            project,
            filter,
        })
    }
}

fn parse_condition(cond: &str) -> Result<(String, CmpOp, String), String> {
    // Longest operators first so `<=` wins over `<`.
    for (sym, op) in [
        ("<=", CmpOp::Le),
        (">=", CmpOp::Ge),
        ("<>", CmpOp::Ne),
        ("=", CmpOp::Eq),
        ("<", CmpOp::Lt),
        (">", CmpOp::Gt),
    ] {
        if let Some((attr, value)) = cond.split_once(sym) {
            let attr = attr.trim();
            let value = value.trim();
            if attr.is_empty() || value.is_empty() {
                return Err(format!("incomplete condition `{cond}`"));
            }
            return Ok((attr.to_owned(), op, value.to_owned()));
        }
    }
    Err(format!("no comparison operator in `{cond}`"))
}

/// One branch of a translated global request: the component schema to ask
/// and the query to run there. `missing` lists projected attributes the
/// component cannot supply (the operational system would return nulls).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ComponentQuery {
    /// Component schema name.
    pub schema: String,
    /// The rewritten query.
    pub query: Query,
    /// Projected attributes with no counterpart in this component.
    pub missing: Vec<String>,
}

/// A translated global request: the union of the branch results answers
/// the original query. When `equivalent` is `true` the branches hold the
/// same extension (an `E_` merge), so any single branch suffices.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnionPlan {
    /// The branches to union.
    pub branches: Vec<ComponentQuery>,
    /// `true` when branches are duplicates of one extension.
    pub equivalent: bool,
}

impl fmt::Display for UnionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let connector = if self.equivalent { "≡" } else { "∪" };
        for (i, b) in self.branches.iter().enumerate() {
            if i > 0 {
                write!(f, "\n{connector} ")?;
            }
            write!(f, "[{}] {}", b.schema, b.query)?;
            if !b.missing.is_empty() {
                write!(f, " (missing: {})", b.missing.join(", "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_display() {
        let q = Query::select("Student", &["Name", "GPA"]).filtered("GPA", CmpOp::Gt, "3.5");
        assert_eq!(
            q.to_string(),
            "select Name, GPA from Student where GPA > 3.5"
        );
    }

    #[test]
    fn union_plan_display() {
        let plan = UnionPlan {
            branches: vec![
                ComponentQuery {
                    schema: "sc1".into(),
                    query: Query::select("Student", &["Name"]),
                    missing: vec![],
                },
                ComponentQuery {
                    schema: "sc2".into(),
                    query: Query::select("Grad_student", &["Name"]),
                    missing: vec!["Office".into()],
                },
            ],
            equivalent: false,
        };
        let s = plan.to_string();
        assert!(s.contains("[sc1] select Name from Student"), "{s}");
        assert!(s.contains("∪ [sc2]"), "{s}");
        assert!(s.contains("missing: Office"), "{s}");
    }

    #[test]
    fn parse_roundtrips_display() {
        for text in [
            "select Name from Student",
            "select Name, GPA from Student where GPA > 3.5",
            "select D_Name from D_Stud_Facu where D_Name = 'Smith'",
        ] {
            let q: Query = text.parse().unwrap();
            assert_eq!(q.to_string(), text);
        }
    }

    #[test]
    fn parse_accepts_keyword_case_and_spacing() {
        let q: Query = "SELECT Name , GPA FROM Student WHERE GPA <= 4"
            .parse()
            .unwrap();
        assert_eq!(q.project, vec!["Name", "GPA"]);
        assert_eq!(q.object, "Student");
        let f = q.filter.unwrap();
        assert_eq!(
            (f.attr.as_str(), f.op, f.value.as_str()),
            ("GPA", CmpOp::Le, "4")
        );
    }

    #[test]
    fn parse_rejects_malformed_queries() {
        assert!("Name from Student".parse::<Query>().is_err());
        assert!("select from Student".parse::<Query>().is_err());
        assert!("select Name from".parse::<Query>().is_err());
        assert!("select Name from X where GPA".parse::<Query>().is_err());
        assert!("select Name from X where = 3".parse::<Query>().is_err());
    }

    #[test]
    fn cmp_ops_render() {
        for (op, s) in [
            (CmpOp::Eq, "="),
            (CmpOp::Ne, "<>"),
            (CmpOp::Lt, "<"),
            (CmpOp::Le, "<="),
            (CmpOp::Gt, ">"),
            (CmpOp::Ge, ">="),
        ] {
            assert_eq!(op.to_string(), s);
        }
    }
}
