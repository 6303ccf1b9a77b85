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
//!   [`ua_plan::Table`] and [`ua_data::Relation`]`<u64>`;
//! * [`kernels`] — vectorized expression/predicate evaluation, bit-exact
//!   with the row engine's scalar `Expr` evaluator, plus the fused
//!   selection-consuming kernels (σ→π, σ→probe);
//! * [`ops`] — the operators (filter, project, hash/nested-loop join,
//!   union, distinct, aggregate, columnar sort, fused Top-K, limit),
//!   order-compatible with the row executor;
//! * [`exec`] — the morsel-driven plan driver ([`execute_vectorized`]):
//!   per-batch pipelines run on a work-stealing thread pool (offline
//!   `rayon` shim) and merge in deterministic batch-index order, so
//!   parallel output is byte-identical to serial;
//! * [`ua`] — the UA path ([`execute_ua_vectorized`]): `⟦·⟧_UA` realized as
//!   bitmap propagation instead of plan rewriting, sharing the same
//!   parallel driver (Sort/Limit/Top-K included — no row-engine fallback).
//!
//! ## Opting in
//!
//! `ua-engine`'s `UaSession` calls this crate directly; selecting the
//! executor is the whole opt-in:
//!
//! ```
//! let session = ua_engine::UaSession::new();
//! session.set_exec_mode(ua_engine::ExecMode::Vectorized);
//! // session.query_det(...) / query_ua(...) / query_au(...) now run vectorized.
//! ```
//!
//! Without a session, call [`execute_vectorized`], [`execute_ua_vectorized`]
//! or [`execute_au_vectorized`] on a plan and a catalog; the `*_with_stats`
//! variants return the run's [`ua_obs::QueryStats`] next to the result.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod au_exec;
pub mod bitmap;
pub mod columnar;
pub mod exec;
pub mod kernels;
pub mod ops;
pub mod ua;

pub use au_exec::{
    execute_au_vectorized, execute_au_vectorized_opts, execute_au_vectorized_with_stats,
};
pub use columnar::{
    batches_from_relation, batches_from_table, batches_from_table_pooled, relation_from_batches,
    table_from_batches, table_from_batches_pooled, BatchStream, ColumnBatch, ColumnVec,
    DEFAULT_BATCH_ROWS,
};
pub use exec::{
    exec_stream, execute_vectorized, execute_vectorized_opts, execute_vectorized_with_stats,
    resolve_threads,
};
pub use ua::{
    execute_ua_vectorized, execute_ua_vectorized_opts, execute_ua_vectorized_with_stats, ua_stream,
};

/// Does nothing. Sessions call this crate directly, so there is nothing to
/// register; the function only remains because the `spine` benchmark adapter
/// still calls it, and goes away with the next benchmark PR.
pub fn install() {}
