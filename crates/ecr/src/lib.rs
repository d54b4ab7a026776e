#![warn(missing_docs)]
//! # sit-ecr — the Entity-Category-Relationship conceptual data model
//!
//! This crate implements the ECR model of Elmasri, Hevner and Weeldreyer
//! ("The Category Concept: An Extension to Entity-Relationship Model", 1985)
//! as used by the ICDE 1988 paper *"A Tool for Integrating Conceptual Schemas
//! and User Views"* (Sheth, Larson, Cornelio, Navathe). It is the substrate on
//! which the schema-integration tool in `sit-core` operates.
//!
//! The ECR model extends Chen's ER model with:
//!
//! 1. **Categories** — named subsets of entities from one or more object
//!    classes, used to represent generalization hierarchies and subclasses.
//!    A category inherits the attributes of the object classes over which it
//!    is defined.
//! 2. **Structural constraints** — `(min, max)` cardinality bounds on the
//!    participation of an object class in a relationship set.
//!
//! The model here is *value-oriented and immutable-after-build*: a
//! [`Schema`] is assembled through a [`SchemaBuilder`], validated, and then
//! only read. All elements are addressed by small typed ids
//! ([`ObjectId`], [`RelId`], [`AttrId`]) so the integration engine can use
//! dense matrices. Object ids are also the IS-A order: a category's
//! parents precede it, so walking ids upward visits parents first.
//!
//! ## Quick tour
//!
//! ```
//! use sit_ecr::{SchemaBuilder, Domain, Cardinality};
//!
//! let mut b = SchemaBuilder::new("sc1");
//! let student = b
//!     .entity_set("Student")
//!     .attr_key("Name", Domain::Char)
//!     .attr("GPA", Domain::Real)
//!     .finish();
//! let dept = b
//!     .entity_set("Department")
//!     .attr_key("Dname", Domain::Char)
//!     .finish();
//! b.relationship("Majors")
//!     .participant(student, Cardinality::new(0, Some(1)))
//!     .participant(dept, Cardinality::at_least(0))
//!     .finish();
//! let schema = b.build().expect("valid schema");
//! assert_eq!(schema.object_count(), 2);
//! assert_eq!(schema.relationship_count(), 1);
//! ```
//!
//! Schemas can also be written in the textual DDL (see [`ddl`]) that mirrors
//! the paper's "Schema Collection" forms, and rendered back with the
//! pretty-printer.

pub mod attribute;
pub mod ddl;
pub mod domain;
pub mod error;
pub mod fixtures;
pub mod ids;
pub mod object;
pub mod relationship;
pub mod render;
pub mod schema;
pub mod validate;

pub use attribute::{Attribute, KeyStatus};
pub use domain::Domain;
pub use error::{EcrError, Result};
pub use ids::{AttrId, AttrRef, ObjectId, RelId, SchemaId};
pub use object::{ObjectClass, ObjectKind};
pub use relationship::{Cardinality, Participant, RelationshipSet};
pub use schema::{AttrOwner, Schema, SchemaBuilder};
pub use validate::{validate, Violation};
