//! Relationship sets and structural (cardinality) constraints.
//!
//! A relationship associates entities from two or more object classes; a
//! collection of relationships of the same type over the same object classes
//! is a *relationship set*. The ECR model attaches a **structural
//! constraint** `(i1, i2)` to each participating object class: every entity
//! of that class participates in at least `i1` and at most `i2` relationship
//! instances (`0 <= i1 <= i2`, `i2 > 0`; `i2` may be unbounded, written `n`).

use std::fmt;

use crate::attribute::Attribute;
use crate::ids::{AttrId, ObjectId};

/// The `(min, max)` structural constraint of the paper's section 2.
/// `max == None` means unbounded (`n`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Cardinality {
    /// Minimum participation count (`i1`).
    pub min: u32,
    /// Maximum participation count (`i2`); `None` for `n` (unbounded).
    pub max: Option<u32>,
}

impl Cardinality {
    /// Bounded cardinality `(min, max)`.
    pub const fn new(min: u32, max: Option<u32>) -> Self {
        Self { min, max }
    }

    /// `(min, n)` — unbounded above.
    pub const fn at_least(min: u32) -> Self {
        Self { min, max: None }
    }

    /// `(1, 1)` — mandatory, functional participation.
    pub const ONE: Cardinality = Cardinality {
        min: 1,
        max: Some(1),
    };

    /// `(0, 1)` — optional, functional participation.
    pub const AT_MOST_ONE: Cardinality = Cardinality {
        min: 0,
        max: Some(1),
    };

    /// `(0, n)` — unconstrained participation.
    pub const MANY: Cardinality = Cardinality { min: 0, max: None };

    /// Validity per the paper: `0 <= i1 <= i2` and `i2 > 0`.
    pub fn is_valid(&self) -> bool {
        match self.max {
            Some(max) => max > 0 && self.min <= max,
            None => true,
        }
    }

    /// The loosest constraint implied by both — used when merging
    /// equivalent relationship sets during integration (the merged
    /// constraint must admit every instance either component admitted).
    pub fn widen(&self, other: &Cardinality) -> Cardinality {
        Cardinality {
            min: self.min.min(other.min),
            max: match (self.max, other.max) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// `true` if every participation allowed by `other` is allowed by
    /// `self`.
    pub fn subsumes(&self, other: &Cardinality) -> bool {
        let upper_ok = match (self.max, other.max) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => a >= b,
        };
        self.min <= other.min && upper_ok
    }
}

impl fmt::Display for Cardinality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max {
            Some(max) => write!(f, "({},{})", self.min, max),
            None => write!(f, "({},n)", self.min),
        }
    }
}

/// One leg of a relationship set: an object class plus its structural
/// constraint and optional role name (role names disambiguate recursive
/// relationships such as `Supervises(Employee supervisor, Employee report)`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Participant {
    /// The participating object class.
    pub object: ObjectId,
    /// Structural constraint on the participation.
    pub cardinality: Cardinality,
    /// Optional role name.
    pub role: Option<String>,
}

impl Participant {
    /// Participant without a role name.
    pub fn new(object: ObjectId, cardinality: Cardinality) -> Self {
        Self {
            object,
            cardinality,
            role: None,
        }
    }

    /// Participant with a role name.
    pub fn with_role(object: ObjectId, cardinality: Cardinality, role: impl Into<String>) -> Self {
        Self {
            object,
            cardinality,
            role: Some(role.into()),
        }
    }
}

/// A relationship set: name, participating object classes (with structural
/// constraints), and the relationship's own attributes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelationshipSet {
    /// Name, unique among the schema's relationship sets.
    pub name: String,
    /// Two or more participating legs.
    pub participants: Vec<Participant>,
    /// Attributes of the relationship itself.
    pub attributes: Vec<Attribute>,
}

impl RelationshipSet {
    /// Create an empty relationship set (participants added later).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            participants: Vec::new(),
            attributes: Vec::new(),
        }
    }

    /// Degree of the relationship (number of participating legs).
    pub fn degree(&self) -> usize {
        self.participants.len()
    }

    /// Find a local attribute by name.
    pub fn attr_by_name(&self, name: &str) -> Option<(AttrId, &Attribute)> {
        self.attributes
            .iter()
            .enumerate()
            .find(|(_, a)| a.name == name)
            .map(|(i, a)| (AttrId::new(i as u32), a))
    }

    /// Local attribute lookup by id.
    pub fn attr(&self, id: AttrId) -> Option<&Attribute> {
        self.attributes.get(id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;

    #[test]
    fn cardinality_validity() {
        assert!(Cardinality::new(0, Some(1)).is_valid());
        assert!(Cardinality::new(1, Some(1)).is_valid());
        assert!(Cardinality::at_least(5).is_valid());
        assert!(!Cardinality::new(2, Some(1)).is_valid(), "min > max");
        assert!(!Cardinality::new(0, Some(0)).is_valid(), "i2 must be > 0");
    }

    #[test]
    fn widen_takes_the_looser_bound() {
        let a = Cardinality::new(1, Some(1));
        let b = Cardinality::new(0, Some(3));
        assert_eq!(a.widen(&b), Cardinality::new(0, Some(3)));
        assert_eq!(a.widen(&Cardinality::MANY), Cardinality::MANY);
        // widen is commutative
        assert_eq!(a.widen(&b), b.widen(&a));
    }

    #[test]
    fn subsumption() {
        assert!(Cardinality::MANY.subsumes(&Cardinality::ONE));
        assert!(!Cardinality::ONE.subsumes(&Cardinality::MANY));
        assert!(Cardinality::new(0, Some(3)).subsumes(&Cardinality::new(1, Some(2))));
        assert!(!Cardinality::new(1, Some(3)).subsumes(&Cardinality::new(0, Some(2))));
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(Cardinality::new(1, Some(1)).to_string(), "(1,1)");
        assert_eq!(Cardinality::at_least(0).to_string(), "(0,n)");
    }

    #[test]
    fn relationship_basics() {
        let mut r = RelationshipSet::new("Majors");
        r.participants
            .push(Participant::new(ObjectId::new(0), Cardinality::ONE));
        r.participants.push(Participant::with_role(
            ObjectId::new(1),
            Cardinality::MANY,
            "major_dept",
        ));
        r.attributes.push(Attribute::new("Since", Domain::Date));
        assert_eq!(r.degree(), 2);
        assert!(r.attr_by_name("Since").is_some());
        assert_eq!(r.attr(AttrId::new(0)).unwrap().name, "Since");
        assert_eq!(r.participants[1].role.as_deref(), Some("major_dept"));
    }
}
