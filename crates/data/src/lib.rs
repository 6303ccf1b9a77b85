//! Values, tuples, schemas, expressions and K-relations with `RA⁺`.
//!
//! This crate is the data layer shared by every component of the UA-DB
//! reproduction:
//!
//! * [`value::Value`] — the universal domain, including SQL nulls and
//!   labeled nulls (variables);
//! * [`tuple::Tuple`] / [`schema::Schema`] — rows and column resolution;
//! * [`expr::Expr`] — scalar expressions with two- and three-valued
//!   evaluation;
//! * [`relation::Relation`] — K-relations (annotation maps) over any
//!   [`ua_semiring::Semiring`];
//! * [`algebra`] — the positive relational algebra with K-relational
//!   semantics, one evaluator for every annotation domain;
//! * [`agg`] — the SQL aggregate functions and their one running fold,
//!   [`agg::AggState`], shared by every engine and semantics, and the one
//!   column-major grouping, [`agg::Groups`], that det γ / δ on the
//!   vectorized engine and AU γ / δ on both engines run.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod algebra;
pub mod expr;
pub mod hash;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use agg::{AggFunc, AggState};
pub use algebra::{eval, ProjColumn, RaError, RaExpr};
pub use expr::{ArithOp, CmpOp, Expr, ExprError, Truth};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use relation::{bag_relation, set_relation, Database, Relation};
pub use schema::{Column, Schema, SchemaError};
pub use tuple::{RowWriter, Tuple};
pub use value::{Value, VarId, F64};
