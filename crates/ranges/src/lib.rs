//! **ua-ranges** — attribute-level uncertainty bounds (AU-DBs).
//!
//! The source paper's `⟦·⟧_UA` encoding bounds certain answers for the
//! positive relational algebra only; `DISTINCT` and aggregation are
//! explicitly future work there. The authors' follow-up — *Efficient
//! Uncertainty Tracking for Complex Queries with Attribute-level Bounds*
//! (AU-DBs) — closes full queries by extending annotations from the
//! tuple-level pair `[cert, det]` to:
//!
//! * a per-attribute range `[lb, bg, ub]` ([`RangeValue`]) enclosing the
//!   attribute's value in every possible world, with the *selected guess*
//!   `bg` playing the UA-DB's best-guess role, and
//! * a tuple-level multiplicity triple `[lb, bg, ub]` ([`MultBound`]) over
//!   the `ua-semiring` naturals (pointwise `ℕ³`, a product semiring).
//!
//! This crate is the model layer the engines build on:
//!
//! * [`value`] / [`mult`] — the annotations and their ordered-domain
//!   arithmetic;
//! * [`eval`] — interval evaluation of engine expressions and the
//!   three-valued (certainly-true / possibly-true) range predicate
//!   analysis the `⟦·⟧_AU` selection rule needs;
//! * [`relation`] — [`AuRelation`] plus the flattened row encoding (the AU
//!   counterpart of the paper's Definition 8 `Enc`) and labelings from the
//!   TI/x-DB models into range annotations;
//! * [`ops`] — the shared `⟦σ⟧/⟦π⟧/⟦⋈⟧/⟦∪⟧/⟦δ⟧/⟦γ⟧` operators, including
//!   the headline sound bound combination for grouping/aggregation with
//!   uncertain group membership;
//! * [`enclosure`] — the test oracle: flow-based verification that an AU
//!   result encloses every possible world's answer;
//! * [`width`] — bound-precision summaries ([`WidthSummary`]): the
//!   per-operator tightness profile EXPLAIN ANALYZE reports.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod enclosure;
pub mod eval;
pub mod mult;
pub mod ops;
pub mod relation;
pub mod value;
pub mod width;

pub use enclosure::{check_encloses_world, sg_rows};
pub use eval::{approx_range, eval_range, reanchor, truth_range, RangeTruth};
pub use mult::MultBound;
pub use ops::{AggCols, AggSpec, AuCols, SgKeyIndex, TripleCol};
pub use relation::{
    au_base_schema, decode_row, decode_rows, encode_row, encode_rows, flattened_schema,
    range_from_parts, range_parts, AuRelation, AuTuple, AU_LB_PREFIX, AU_MULT_BG, AU_MULT_LB,
    AU_MULT_UB, AU_UB_PREFIX,
};
pub use value::{range_cmp, Bound, RangeValue};
pub use width::WidthSummary;
