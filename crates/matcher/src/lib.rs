#![warn(missing_docs)]
//! # sit-matcher — resemblance-function extensions
//!
//! The paper's future-work section (§4) sketches the enhancements this
//! crate implements on top of `sit-core`:
//!
//! * **Syntactic processing enhancements** — "string matching heuristics to
//!   identify potentially equivalent attributes. A dictionary of synonyms
//!   and antonyms would also be useful ..." → [`string_sim`],
//!   [`synonyms`].
//! * **Weighted resemblance** — "SIS [de Souza 86] describes several
//!   resemblance functions ... Using a weighted sum of products of several
//!   resemblance functions, pairs of objects can be sorted according to
//!   their mutual resemblance." → [`weighted`].
//! * **Schema-level resemblance** — "The resemblance function among
//!   objects could be possibly extended to derive a resemblance function
//!   \[for\] schemas which could be particularly useful in picking similar
//!   schemas for integration in a binary approach." → [`schema_resemblance()`](schema_resemblance()).
//! * **Semantic processing enhancements** — "heuristics to identify
//!   corresponding objects of different constructs", e.g. a *Marriage*
//!   entity set in one schema and a *Marriage* relationship set in
//!   another, recognized "if they have several common attributes" →
//!   [`cross_construct`].
//! * **Suggestion pipeline** — [`suggest`] turns the above into concrete
//!   attribute-equivalence proposals a DDA (or oracle) reviews, reducing
//!   the manual work of phase 2.

pub mod cross_construct;
pub mod schema_resemblance;
pub mod string_sim;
pub mod suggest;
pub mod synonyms;
pub mod weighted;

pub use cross_construct::{cross_construct_candidates, CrossConstructCandidate};
pub use schema_resemblance::{best_integration_order, schema_resemblance};
pub use string_sim::{
    is_abbreviation, jaccard_trigrams, levenshtein, name_similarity, normalized_levenshtein,
};
pub use suggest::{suggest_equivalences, Suggestion};
pub use synonyms::SynonymDictionary;
pub use weighted::{AttrPairFeatures, ResemblanceWeights, WeightedResemblance};
