//! Error type for ECR model construction, parsing, and validation.

use std::fmt;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, EcrError>;

/// Errors raised while building, parsing, or validating ECR schemas.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EcrError {
    /// Two object classes or relationship sets share a name.
    DuplicateName {
        /// The clashing name.
        name: String,
        /// What kind of element clashed (`"object class"`, ...).
        kind: &'static str,
    },
    /// A referenced name could not be resolved.
    UnknownName(String),
    /// A domain string could not be parsed.
    BadDomain(String),
    /// DDL syntax error with line/column.
    Parse {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// Human-readable message.
        msg: String,
    },
    /// Schema failed validation; the violations are listed.
    Invalid(Vec<crate::validate::Violation>),
}

impl fmt::Display for EcrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcrError::DuplicateName { name, kind } => {
                write!(f, "duplicate {kind} name `{name}`")
            }
            EcrError::UnknownName(name) => write!(f, "unknown name `{name}`"),
            EcrError::BadDomain(s) => write!(f, "cannot parse domain `{s}`"),
            EcrError::Parse { line, col, msg } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            EcrError::Invalid(vs) => {
                write!(f, "schema invalid ({} violation(s)):", vs.len())?;
                for v in vs {
                    write!(f, "\n  - {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for EcrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = EcrError::DuplicateName {
            name: "Student".into(),
            kind: "object class",
        };
        assert_eq!(e.to_string(), "duplicate object class name `Student`");
        let p = EcrError::Parse {
            line: 3,
            col: 7,
            msg: "expected `;`".into(),
        };
        assert!(p.to_string().contains("3:7"));
    }
}
