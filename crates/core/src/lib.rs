#![warn(missing_docs)]
//! # sit-core — the schema-integration engine
//!
//! This crate implements the methodology of *"A Tool for Integrating
//! Conceptual Schemas and User Views"* (Sheth, Larson, Cornelio, Navathe;
//! ICDE 1988): the four-phase integration of ECR component schemas into a
//! single integrated schema with mappings.
//!
//! | Phase | Paper section | Module |
//! |-------|---------------|--------|
//! | 1. Schema collection      | §3.2 | [`catalog`] (schemas come from `sit-ecr`) |
//! | 2. Equivalence classes    | §3.3 | [`equivalence`] (ACS matrix), [`resemblance`] (OCS matrix, attribute ratio, ranking) |
//! | 3. Assertion specification| §3.4 | [`assertion`] (the five assertions), [`closure`] (transitive derivation, conflict detection) |
//! | 4. Integration            | §3.5 | [`cluster`], [`integrate`], [`mapping`] |
//!
//! The [`session::Session`] type ties the phases together behind one
//! programmatic API; the interactive tool in `sit-tui` is a thin shell over
//! it, and [`nary`] folds more than two schemas through repeated binary
//! integration (the paper: "a result of integration of two schemas can be
//! integrated with another schema").
//!
//! ```
//! use sit_core::session::Session;
//! use sit_core::assertion::Assertion;
//!
//! let mut s = Session::new();
//! let sc1 = s.add_schema(sit_ecr::fixtures::sc1()).unwrap();
//! let sc2 = s.add_schema(sit_ecr::fixtures::sc2()).unwrap();
//!
//! // Phase 2: the DDA declares attribute equivalences.
//! s.declare_equivalent_named("sc1", "Student", "Name", "sc2", "Grad_student", "Name").unwrap();
//!
//! // Phase 3: assertions, with automatic derivation + conflict checks.
//! let dept1 = s.object_named("sc1", "Department").unwrap();
//! let dept2 = s.object_named("sc2", "Department").unwrap();
//! s.assert_objects(dept1, dept2, Assertion::Equal).unwrap();
//!
//! // Phase 4: integrate.
//! let result = s.integrate(sc1, sc2, &Default::default()).unwrap();
//! assert!(result.schema.object_by_name("E_Department").is_some());
//! ```

pub mod assertion;
pub mod catalog;
pub mod closure;
pub mod cluster;
pub mod element;
pub mod equivalence;
pub mod error;
mod fxhash;
pub mod integrate;
pub mod mapping;
pub mod nary;
pub mod resemblance;
pub mod script;
pub mod session;

pub use assertion::{Assertion, Rel5, Rel5Set};
pub use catalog::{Catalog, GAttr, GObj, GRel};
pub use closure::{AssertionEngine, ConflictReport, DerivedFact, FactId};
pub use element::Element;
pub use equivalence::{ClassNo, EquivalenceRegistry};
pub use error::{CoreError, Result};
pub use integrate::{IntegratedSchema, IntegrationOptions};
pub use resemblance::{ocs_matrix, ranked_pairs, CandidatePair};
pub use session::Session;
