//! **ua-plan** — what both executors and the session share: plans, row
//! storage, the SQL frontend, the optimizer and the row interpreter.
//!
//! This crate sits *below* `ua-vecexec` (the columnar executor) and
//! `ua-engine` (the `UaSession` middleware), so the session calls either
//! executor as an ordinary function.
//!
//! Layers, bottom-up:
//!
//! * [`storage`] — row-oriented tables + a shared catalog (a tuple with
//!   multiplicity `n` is stored as `n` row copies, the representation the
//!   paper's encoding targets); the catalog also keeps, per table and
//!   generation-tagged, its statistics, the column chunks the vectorized
//!   engine decoded from it and the tables derived from it;
//! * [`plan`] / [`exec`] — physical plans and the materializing row
//!   executor (hash joins on extractable equi-keys, grouping, sorting,
//!   limits), with [`stats`] threading per-operator spans through it;
//! * [`au`] — the AU row interpreter (`⟦·⟧_AU` over `ua_ranges::ops`);
//! * [`ua`] — the plan-level `⟦·⟧_UA` rewriting: a UA query becomes one
//!   ordinary plan over the `Enc` tables (`RA⁺`, `−`, `⟕`, trailing
//!   `Sort`/`Limit`/`TopK`), which both executors run as is;
//! * [`optimize`](mod@optimize) — the pass pipeline (filter pushdown, cost-aware join
//!   planning into [`plan::Plan::HashJoin`]) applied uniformly to both
//!   executors' plans before dispatch;
//! * [`sql`] — lexer, parser and planner for a SPJUA SQL dialect including
//!   the paper's source-annotation clauses (Section 9.2);
//! * [`options`] — what a session hands an executor per query: the
//!   [`Semantics`] and the vectorized executor's knobs.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod au;
pub mod exec;
pub mod optimize;
pub mod options;
pub mod plan;
pub mod sql;
pub mod stats;
pub mod storage;
pub mod ua;

pub use au::{au_table, execute_au, is_au_sidecar_name, reject_marker_in_plan};
pub use exec::{
    execute, limit_table, sort_table, top_k_table, AggState, EngineError, UA_FRAGMENT_ERROR,
};
pub use optimize::{
    estimate_rows, fuse_topk, optimize, optimize_with, plan_joins, predicate_selectivity,
    push_filters, record_join_misestimates, reorder_joins, reorder_joins_ua, OptimizerPasses,
    DEFAULT_FILTER_SELECTIVITY, DP_MAX_RELATIONS, MISESTIMATE_RATIO,
};
pub use options::{ExecOptions, Semantics};
pub use plan::{AggExpr, AggFunc, Plan, SortOrder};
pub use sql::{parse, plan_query, plan_schema};
pub use stats::execute_row;
pub use storage::{Catalog, ColumnStats, Histogram, Table, TableStats, HISTOGRAM_BUCKETS};
pub use ua::rewrite_ua_plan;
pub use ua_obs::{OperatorStats, PoolStats, QueryStats};
