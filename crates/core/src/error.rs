//! Error type of the integration engine.

use std::fmt;

use crate::catalog::GRel;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors raised by the integration engine.
#[derive(Clone, PartialEq, Debug)]
pub enum CoreError {
    /// A schema with the same name is already registered.
    DuplicateSchema(String),
    /// A name could not be resolved against the catalog.
    UnknownName(String),
    /// An id references nothing in the catalog.
    UnknownElement(String),
    /// Attribute equivalence was declared between attributes with
    /// incompatible domains (the simplified [Larson et al 87] test).
    IncompatibleDomains {
        /// Display form of the first attribute.
        a: String,
        /// Display form of the second attribute.
        b: String,
    },
    /// Both attributes belong to the same schema; the paper only relates
    /// attributes *across* the two schemas being integrated.
    SameSchemaEquivalence(String),
    /// An assertion was attempted between two objects of the same schema
    /// (intra-schema relationships come from the schema structure itself).
    SameSchemaAssertion(String),
    /// A new assertion contradicts existing or derived assertions; the
    /// report carries everything the Assertion Conflict Resolution Screen
    /// shows.
    Conflict(Box<crate::closure::ConflictReport>),
    /// Two relationship sets asserted equal have legs that cannot be
    /// paired up through the integrated object lattice.
    RelLegMismatch {
        /// First relationship set.
        a: GRel,
        /// Second relationship set.
        b: GRel,
    },
    /// Integration hit an object pair whose derived relation contradicts
    /// the requested merge (should not happen when assertions come through
    /// the engine; guards against hand-built inputs).
    InconsistentLattice(String),
    /// The integrated schema failed ECR validation; carries the display
    /// form of the underlying violation list.
    InvalidResult(String),
    /// Both sides of an assertion are the same object class or
    /// relationship set (carries its id form, `schema.element`).
    SelfAssertion(String),
    /// Registering the schema would push the session past one of its
    /// size limits ([`crate::session::Session::MAX_OBJECTS`],
    /// [`crate::session::Session::MAX_RELATIONSHIPS`]).
    SessionFull {
        /// The rejected schema.
        schema: String,
        /// What is counted: `object classes` or `relationship sets`.
        what: &'static str,
        /// The session's count had the schema been registered.
        count: usize,
        /// The limit it would exceed.
        limit: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DuplicateSchema(n) => write!(f, "schema `{n}` already registered"),
            CoreError::UnknownName(n) => write!(f, "unknown name `{n}`"),
            CoreError::UnknownElement(what) => write!(f, "unknown element: {what}"),
            CoreError::IncompatibleDomains { a, b } => {
                write!(f, "attributes {a} and {b} have incompatible domains")
            }
            CoreError::SameSchemaEquivalence(what) => write!(
                f,
                "attribute equivalence must relate different schemas: {what}"
            ),
            CoreError::SameSchemaAssertion(what) => write!(
                f,
                "assertions relate object classes of different schemas: {what}"
            ),
            CoreError::Conflict(report) => write!(f, "assertion conflict: {report}"),
            CoreError::RelLegMismatch { a, b } => write!(
                f,
                "cannot pair participants of relationship sets {a} and {b}"
            ),
            CoreError::InconsistentLattice(msg) => write!(f, "inconsistent lattice: {msg}"),
            CoreError::InvalidResult(msg) => {
                write!(f, "integration produced an invalid schema: {msg}")
            }
            CoreError::SelfAssertion(o) => write!(f, "cannot assert {o} against itself"),
            CoreError::SessionFull {
                schema,
                what,
                count,
                limit,
            } => write!(
                f,
                "schema `{schema}` would bring the session to {count} {what}; the limit is {limit}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<crate::closure::ConflictReport> for CoreError {
    fn from(r: crate::closure::ConflictReport) -> Self {
        CoreError::Conflict(Box::new(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_smoke() {
        assert!(CoreError::DuplicateSchema("sc1".into())
            .to_string()
            .contains("sc1"));
        assert!(CoreError::IncompatibleDomains {
            a: "sc1.S.x".into(),
            b: "sc2.T.y".into()
        }
        .to_string()
        .contains("incompatible"));
    }
}
