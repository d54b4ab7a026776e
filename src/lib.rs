#![warn(missing_docs)]
//! # sit — A Tool for Integrating Conceptual Schemas and User Views
//!
//! A Rust reproduction of Sheth, Larson, Cornelio & Navathe's ICDE 1988
//! schema-integration tool, as a set of library crates re-exported here:
//!
//! * [`ecr`] — the Entity-Category-Relationship conceptual data model
//!   (schemas, categories, structural constraints, a text DDL).
//! * [`core`] — the integration engine: attribute equivalence (ACS),
//!   object-class similarity (OCS) and the attribute-ratio ranking, the
//!   five-assertion algebra with transitive derivation and conflict
//!   detection, cluster/lattice integration, and request mappings.
//! * [`translate`] — relational and hierarchical schemas abstracted into
//!   ECR (the Navathe–Awong front end).
//! * [`matcher`] — the future-work resemblance extensions: string
//!   similarity, synonym dictionaries, weighted multi-function
//!   resemblance, schema-level resemblance, cross-construct candidates.
//! * [`datagen`] — synthetic schema workloads with ground truth and DDA
//!   oracles.
//! * [`tui`] — the interactive tool: thirteen screens over a scriptable
//!   terminal engine.
//! * [`server`] — integration sessions as a service: a newline-delimited
//!   JSON protocol over TCP or stdio (`sit serve`), with a session store,
//!   bounded request admission, and per-verb latency metrics.
//! * [`obs`] — std-only observability: lock-cheap span tracing with
//!   Chrome trace-event export (`sit trace`), base-2 histograms and
//!   counters with Prometheus text exposition, and injectable clocks.
//!
//! Start with [`core::session::Session`] for programmatic integration or
//! [`tui::App`] for the interactive tool; `examples/quickstart.rs` walks
//! the four phases end to end.

pub use sit_core as core;
pub use sit_datagen as datagen;
pub use sit_ecr as ecr;
pub use sit_matcher as matcher;
pub use sit_obs as obs;
pub use sit_server as server;
pub use sit_translate as translate;
pub use sit_tui as tui;
