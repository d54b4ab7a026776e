#![warn(missing_docs)]
//! # sit-datagen — synthetic schema workloads and DDA oracles
//!
//! The paper evaluated its tool interactively on real Honeywell schemas
//! with a live database designer/administrator (DDA) at the terminal.
//! Neither is available to a reproduction, so this crate substitutes both
//! (see DESIGN.md, substitution table):
//!
//! * [`generator`] produces *pairs and families of component schemas with
//!   known ground truth*: a pool of domain concepts ([`concepts`]) is
//!   sampled with a controlled overlap fraction, and each schema renders
//!   its concepts through naming/attribute perturbations ([`perturb`]) —
//!   synonyms, abbreviations, dropped and extra attributes,
//!   specializations. The [`ground_truth::GroundTruth`] records which
//!   object classes and attributes truly correspond and with which
//!   assertion.
//! * [`oracle`] replaces the live DDA: a [`oracle::DdaOracle`] answers the
//!   tool's questions (is this attribute pair equivalent? what assertion
//!   holds for this object pair?). The [`oracle::GroundTruthOracle`]
//!   answers perfectly; [`oracle::NoisyOracle`] flips answers with a
//!   configured error rate, modelling a fallible designer.
//!
//! Together they let the benchmarks measure exactly the things the paper
//! claims qualitatively: how many questions the tool asks under different
//! strategies, and how well the ranking heuristic surfaces true
//! correspondences.

pub mod concepts;
pub mod generator;
pub mod ground_truth;
pub mod oracle;
pub mod perturb;

pub use concepts::{Concept, ConceptAttr, ConceptPool};
pub use generator::{GeneratedPair, GeneratorConfig, SchemaFamily};
pub use ground_truth::{GroundTruth, TrueAssertion};
pub use oracle::{DdaOracle, GroundTruthOracle, NoisyOracle};
pub use perturb::Perturber;
