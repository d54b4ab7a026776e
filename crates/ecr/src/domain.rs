//! Attribute domains.
//!
//! The paper's Attribute Information Collection Screen (Screen 5) records a
//! *domain* for every attribute (`char`, `real`, ...). Domains matter to
//! integration in two ways: the paper's simplified attribute-equivalence test
//! treats attributes with incompatible domains as non-equivalent, and the
//! future-work matcher (`sit-matcher`) uses domain compatibility as one
//! resemblance signal.

use std::fmt;
use std::str::FromStr;

use crate::error::EcrError;

/// The value domain of an attribute.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Domain {
    /// Character string (the paper's `char`).
    #[default]
    Char,
    /// Integer.
    Int,
    /// Real / floating point (the paper's `real`).
    Real,
    /// Boolean flag.
    Bool,
    /// Calendar date.
    Date,
    /// A named enumeration of literal values (e.g. `enum{TA,RA,Fellowship}`).
    Enum(Vec<String>),
    /// An application-defined named domain (e.g. `money`, `ssn`).
    Named(String),
}

impl Domain {
    /// Two domains are *compatible* when values of one can be interpreted as
    /// values of the other without a lossy conversion. This is the coarse
    /// test used by the simplified attribute-equivalence theory of
    /// [Larson et al 87] that the paper adopts: equivalent attributes must
    /// have compatible domains.
    pub fn compatible(&self, other: &Domain) -> bool {
        use Domain::*;
        match (self, other) {
            (a, b) if a == b => true,
            // Ints embed in reals.
            (Int, Real) | (Real, Int) => true,
            // Enumerations are strings at heart.
            (Enum(_), Char) | (Char, Enum(_)) => true,
            // A named domain is compatible with another only when equal,
            // which the first arm already covered.
            _ => false,
        }
    }

    /// Short display tag matching the paper's screens (`char`, `real`,
    /// ...); the [`fmt::Display`] form, which writes it without
    /// allocating.
    pub fn tag(&self) -> String {
        self.to_string()
    }

    /// Least general domain covering both, used when merging equivalent
    /// attributes into a derived attribute during integration.
    pub fn generalize(&self, other: &Domain) -> Domain {
        use Domain::*;
        match (self, other) {
            (a, b) if a == b => a.clone(),
            (Int, Real) | (Real, Int) => Real,
            (Enum(a), Enum(b)) => {
                let mut vals = a.clone();
                for v in b {
                    if !vals.contains(v) {
                        vals.push(v.clone());
                    }
                }
                Enum(vals)
            }
            (Enum(_), Char) | (Char, Enum(_)) => Char,
            // Fall back to the universal printable domain.
            _ => Char,
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Char => f.write_str("char"),
            Domain::Int => f.write_str("int"),
            Domain::Real => f.write_str("real"),
            Domain::Bool => f.write_str("bool"),
            Domain::Date => f.write_str("date"),
            Domain::Enum(vals) => {
                f.write_str("enum{")?;
                for (i, v) in vals.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    f.write_str(v)?;
                }
                f.write_str("}")
            }
            Domain::Named(n) => f.write_str(n),
        }
    }
}

impl FromStr for Domain {
    type Err = EcrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        match s {
            "char" | "string" => Ok(Domain::Char),
            "int" | "integer" => Ok(Domain::Int),
            "real" | "float" => Ok(Domain::Real),
            "bool" | "boolean" => Ok(Domain::Bool),
            "date" => Ok(Domain::Date),
            _ => {
                if let Some(body) = s.strip_prefix("enum{").and_then(|r| r.strip_suffix('}')) {
                    let vals: Vec<String> = body
                        .split(',')
                        .map(|v| v.trim().to_owned())
                        .filter(|v| !v.is_empty())
                        .collect();
                    if vals.is_empty() {
                        return Err(EcrError::BadDomain(s.to_owned()));
                    }
                    Ok(Domain::Enum(vals))
                } else if s.chars().all(|c| c.is_alphanumeric() || c == '_') && !s.is_empty() {
                    Ok(Domain::Named(s.to_owned()))
                } else {
                    Err(EcrError::BadDomain(s.to_owned()))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatibility_is_reflexive_and_symmetric_on_samples() {
        let ds = [
            Domain::Char,
            Domain::Int,
            Domain::Real,
            Domain::Bool,
            Domain::Date,
            Domain::Enum(vec!["a".into()]),
            Domain::Named("money".into()),
        ];
        for a in &ds {
            assert!(a.compatible(a), "{a} should be self-compatible");
            for b in &ds {
                assert_eq!(a.compatible(b), b.compatible(a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn int_real_compatible_but_not_int_char() {
        assert!(Domain::Int.compatible(&Domain::Real));
        assert!(!Domain::Int.compatible(&Domain::Char));
        assert!(!Domain::Named("money".into()).compatible(&Domain::Named("ssn".into())));
    }

    #[test]
    fn parse_known_tags() {
        assert_eq!("char".parse::<Domain>().unwrap(), Domain::Char);
        assert_eq!("real".parse::<Domain>().unwrap(), Domain::Real);
        assert_eq!(
            "enum{TA, RA}".parse::<Domain>().unwrap(),
            Domain::Enum(vec!["TA".into(), "RA".into()])
        );
        assert_eq!(
            "money".parse::<Domain>().unwrap(),
            Domain::Named("money".into())
        );
        assert!("enum{}".parse::<Domain>().is_err());
        assert!("no spaces!".parse::<Domain>().is_err());
    }

    #[test]
    fn tag_roundtrips_through_parse() {
        for d in [
            Domain::Char,
            Domain::Int,
            Domain::Real,
            Domain::Bool,
            Domain::Date,
            Domain::Enum(vec!["x".into(), "y".into()]),
            Domain::Named("ssn".into()),
        ] {
            let back: Domain = d.tag().parse().unwrap();
            assert_eq!(back, d);
        }
    }

    #[test]
    fn generalize_unifies_enums_and_numeric() {
        assert_eq!(Domain::Int.generalize(&Domain::Real), Domain::Real);
        assert_eq!(
            Domain::Enum(vec!["a".into()]).generalize(&Domain::Enum(vec!["b".into()])),
            Domain::Enum(vec!["a".into(), "b".into()])
        );
        assert_eq!(Domain::Date.generalize(&Domain::Int), Domain::Char);
    }
}
