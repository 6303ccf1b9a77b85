//! **ua-vecexec** — a batch-oriented, columnar execution engine for UA-DBs.
//!
//! The row executor in `ua-plan` interprets plans tuple at a time and pays
//! a pair-semiring call per tuple for UA label propagation. This crate runs
//! the *same* [`Plan`](ua_plan::plan::Plan)s over [`columnar::ColumnBatch`]es
//! (~1024-row typed column vectors) and carries the paper's certain/uncertain
//! annotation as a per-batch **label bitmap** plus a `u64` multiplicity
//! column, so selection, projection, join and union propagate labels with
//! bitwise operations (`min(C₁, C₂)` on `{0,1}` markers ≡ bitwise AND).
//!
//! Layout:
//!
//! * [`bitmap`] — packed bitmaps for predicate masks and label vectors;
//! * [`columnar`] — [`columnar::ColumnBatch`], typed
//!   [`columnar::ColumnVec`]s, and lossless converters to/from
//!   [`ua_plan::Table`] and [`ua_data::Relation`]`<u64>` (one per
//!   direction and encoding; the serial forms run the pooled ones inline);
//! * [`kernels`] — vectorized expression/predicate evaluation, bit-exact
//!   with the row engine's scalar `Expr` evaluator, plus the fused
//!   selection-consuming kernels (σ→π, σ→probe) and the two typed AU
//!   range kernels: the `[lb, bg, ub]` expression kernel AU π runs and the
//!   three-valued range-truth kernel AU σ runs over it;
//! * [`ops`] — the stream operators (union, difference, outer join,
//!   distinct, aggregate, columnar sort, fused Top-K, limit) and the one
//!   det / UA join state every inner, θ, hash and outer join probes
//!   ([`ops::ProbeState`]), order-compatible with the row executor;
//! * [`exec`] — **the** morsel-driven plan driver and the one entry point
//!   [`execute`]: a single plan walk, pipeline, stats assembler and result
//!   materialisation for deterministic, UA and AU semantics, selected by
//!   [`ua_plan::Semantics`]. Per-batch pipelines run on a work-stealing
//!   thread pool (offline `rayon` shim) and merge in deterministic
//!   batch-index order, so parallel output is byte-identical to serial;
//! * [`ua`] — what `⟦·⟧_UA` means on this engine (label bitmaps instead of
//!   plan rewriting);
//! * [`au_exec`] — the AU range kernels the driver's σ / π stages call and
//!   the AU sources (scan, γ, δ, joins, `−`, `⟕`) it runs as pipeline
//!   breakers.
//!
//! ## Choosing the executor
//!
//! `ua-engine`'s `UaSession` calls this crate directly and uses it by
//! default; the row interpreter stays selectable as the oracle:
//!
//! ```
//! let session = ua_engine::UaSession::new();
//! assert_eq!(session.exec_mode(), ua_engine::ExecMode::Vectorized);
//! // session.query_det(...) / query_ua(...) / query_au(...) run vectorized.
//! session.set_exec_mode(ua_engine::ExecMode::Row);
//! ```
//!
//! Without a session, call [`execute`] on a plan, a catalog, the options
//! and the semantics; it returns the run's [`ua_obs::QueryStats`] next to
//! the result. [`stream`] stops at the batch stream.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod au_exec;
pub mod bitmap;
pub mod columnar;
pub mod exec;
pub mod kernels;
pub mod ops;
pub mod ua;

pub use columnar::{
    batches_from_relation, batches_from_table, batches_from_table_pooled, relation_from_batches,
    table_from_batches, table_from_batches_pooled, BatchStream, ColumnBatch, ColumnVec,
    DEFAULT_BATCH_ROWS,
};
pub use exec::{execute, execute_au_vectorized_opts, resolve_threads, stream};

/// Does nothing. Sessions call this crate directly, so there is nothing to
/// register; the function only remains because the `spine` benchmark adapter
/// still calls it, and goes away with the next benchmark PR.
pub fn install() {}
