//! # UA-DB: Uncertainty Annotated Databases
//!
//! A from-scratch Rust reproduction of *"Uncertainty Annotated Databases —
//! A Lightweight Approach for Approximating Certain Answers"* (Feng, Huber,
//! Glavic, Kennedy; SIGMOD 2019).
//!
//! A **UA-DB** runs queries over one *best-guess world* — exactly like the
//! database you already have — while labeling every tuple `certain` or
//! `uncertain` such that the real certain answers are *sandwiched*:
//!
//! ```text
//! labeled certain  ⊆  certain answers  ⊆  returned answers
//! ```
//!
//! The sandwich survives every positive relational algebra query
//! (selection, projection, join, union), at a few percent overhead over
//! deterministic execution.
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`semiring`] | commutative semirings, natural orders, `K²`, `K^W` |
//! | [`data`] | values, tuples, expressions, K-relations, `RA⁺` |
//! | [`conditions`] | C-table conditions, CNF, the exact solver, probabilities |
//! | [`incomplete`] | possible worlds, `K^W`-databases, labelings |
//! | [`models`] | TI-DBs, x-DBs/BI-DBs, C-tables + labeling schemes |
//! | [`core`] | **UA-DBs**: pair annotations, `Enc`, the `⟦·⟧_UA` rewriting |
//! | [`plan`] | plans, row-store tables + catalog, SQL frontend, optimizer, the row executor (det and AU), the plan-level `⟦·⟧_UA` rewriting the row executor runs UA queries through ([`plan::ua`]) — shared by everything below |
//! | [`vecexec`] | batch-oriented columnar executor: one morsel-parallel driver for det / UA (label bitmaps) / AU (range-triple columns), columnar Sort/Top-K; the default executor, built on [`plan`] |
//! | [`engine`] | the UA middleware: [`engine::UaSession`] (det / UA / AU queries), [`engine::ExecMode`], source labelings; calls both executors directly and re-exports [`plan`] under its own paths |
//! | [`obs`] | metrics registry, per-operator [`obs::OperatorStats`] spans, `EXPLAIN ANALYZE` plumbing |
//! | [`baselines`] | Libkin, MayBMS-style, MCDB-style comparison systems |
//! | [`datagen`] | seeded workload generators for every experiment |
//!
//! ## Choosing an executor
//!
//! Both executors run the same plans and produce identical results (the
//! `ua-vecexec` differential tests enforce label-for-label equality), and
//! the session calls either one as an ordinary function. The columnar
//! executor is the default (2–7x the interpreter on the `spine` data
//! workloads); the row interpreter stays selectable per session as the
//! reference the differential suites compare against — there is nothing
//! else to set up:
//!
//! ```
//! let session = uadb::engine::UaSession::new();
//! assert_eq!(session.exec_mode(), uadb::engine::ExecMode::Vectorized);
//! session.set_exec_mode(uadb::engine::ExecMode::Row);
//! ```
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` (the paper's geocoder example), or:
//!
//! ```
//! use uadb::engine::{Table, UaSession};
//! use uadb::data::{tuple, Schema};
//!
//! let session = UaSession::new();
//! session.register_table("addr", Table::from_rows(
//!     Schema::qualified("addr", ["xid", "aid", "p", "id", "locale"]),
//!     vec![
//!         tuple![1i64, 1i64, 1.0, 1i64, "Lasalle"],
//!         tuple![2i64, 1i64, 0.6, 2i64, "Tucson"],
//!         tuple![2i64, 2i64, 0.4, 2i64, "Grant Ferry"],
//!     ],
//! ));
//! let result = session.query_ua(
//!     "SELECT id, locale FROM addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p)",
//! ).unwrap();
//! for (row, certain) in result.rows_with_certainty() {
//!     println!("{row} certain={certain}");
//! }
//! ```

#![deny(unsafe_code)]

pub use ua_baselines as baselines;
pub use ua_conditions as conditions;
pub use ua_core as core;
pub use ua_data as data;
pub use ua_datagen as datagen;
pub use ua_engine as engine;
pub use ua_incomplete as incomplete;
pub use ua_models as models;
pub use ua_obs as obs;
pub use ua_plan as plan;
pub use ua_ranges as ranges;
pub use ua_semiring as semiring;
pub use ua_vecexec as vecexec;
