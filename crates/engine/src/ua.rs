//! The UA-DB query-rewriting frontend (paper Section 9).
//!
//! [`UaSession`] is the middleware the paper describes: input queries are
//! parsed, planned, optimized, rewritten with `⟦·⟧_UA` (Figures 8/9 —
//! [`ua_plan::ua::rewrite_ua_plan`], one ordinary plan over the encoded
//! representation; extra `ua_c` column, Definition 8) and executed by the
//! bag engine. Every query takes one route, its semantics a parameter:
//! plan → marker guard (UA, AU) → one optimizer run on the user plan →
//! lowering (under UA the `⟦·⟧_UA` rewriting, which runs last) → one
//! executor dispatch.
//!
//! Source relations enter the system either
//!
//! * pre-encoded, via [`UaSession::register_ua_relation`], or
//! * raw + annotated, via the SQL clauses of Section 9.2
//!   (`R IS TI WITH PROBABILITY (p)` etc.), whose labeling schemes and
//!   best-guess-world extraction are implemented by [`ti_source`],
//!   [`x_source`] and [`ctable_source`].

use crate::au::AuResolver;
use crate::mode::{ExecMode, ExecOptions};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use ua_conditions::{cnf_tautology, is_cnf, parse_condition, VarInterner};
use ua_core::{decode_relation, encode_relation, UA_LABEL_COLUMN};
use ua_data::relation::Relation;
use ua_data::schema::{Column, Schema};
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_data::FxHashMap;
use ua_plan::au::reject_marker_in_plan;
use ua_plan::exec::EngineError;
pub use ua_plan::exec::UA_FRAGMENT_ERROR;
use ua_plan::optimize::OptimizerPasses;
use ua_plan::plan::Plan;
use ua_plan::sql::ast::SourceAnnotation;
use ua_plan::sql::parser::parse;
use ua_plan::sql::planner::{plan_query, SourceResolver};
use ua_plan::storage::{Catalog, Table};
use ua_plan::ua::rewrite_ua_plan;
use ua_plan::Semantics;
use ua_semiring::pair::Ua;

/// A UA query result: rows of the encoded representation.
#[derive(Clone, Debug)]
pub struct UaResult {
    /// The result table, with the `ua_c` marker in last position.
    pub table: Table,
}

impl UaResult {
    /// Rows paired with their certainty markers.
    pub fn rows_with_certainty(&self) -> Vec<(Tuple, bool)> {
        let marker = self.marker();
        let base: Vec<usize> = (0..marker).collect();
        self.table
            .rows()
            .iter()
            .map(|row| (row.project(&base), is_certain(row, marker)))
            .collect()
    }

    /// The position of the `ua_c` marker: the last column.
    fn marker(&self) -> usize {
        self.table.schema().arity() - 1
    }

    /// Decode into a `K²`-relation (`Enc⁻¹`, Definition 8).
    pub fn decode(&self) -> Relation<Ua<u64>> {
        decode_relation(&self.table.to_relation())
    }

    /// `(certain rows, total rows)` — the headline numbers of the paper's
    /// experiments (Figure 13's certain-answer percentages).
    /// Counts the marker column in place.
    pub fn certainty_counts(&self) -> (usize, usize) {
        let (rows, marker) = (self.table.rows(), self.marker());
        let certain = rows.iter().filter(|row| is_certain(row, marker)).count();
        (certain, rows.len())
    }
}

/// Whether `row`'s marker at `marker` labels it certain.
fn is_certain(row: &Tuple, marker: usize) -> bool {
    matches!(row.get(marker), Some(Value::Int(1)))
}

/// The UA-DB frontend session.
pub struct UaSession {
    catalog: Catalog,
    /// [`ExecMode`] as its `u8` discriminant so the session stays shareable
    /// (`&self` querying) without a lock.
    mode: AtomicU8,
    /// Whether the optimizer pipeline (`optimize::optimize`) runs on query
    /// plans. On by default; the differential test harness turns it off to
    /// compare engines on raw plans.
    optimizer: AtomicBool,
    /// Whether the statistics-driven join-reordering pass runs within the
    /// pipeline. On by default; the `multi_join` bench turns it off to
    /// measure the as-written join order with everything else unchanged.
    reorder: AtomicBool,
    /// Worker threads for the vectorized executor's morsel-parallel
    /// pipeline: `0` = auto (`UA_VEC_THREADS` env var, else available
    /// parallelism), `1` = serial. Output is byte-identical either way.
    vec_threads: AtomicUsize,
    /// Whether executions collect per-operator [`ua_obs::QueryStats`]
    /// (off by default; `EXPLAIN ANALYZE` turns it on for one query).
    /// Results are byte-identical on or off — stats travel next to the
    /// result, never through it.
    collect_stats: AtomicBool,
    /// The stats of the most recent instrumented query on this session
    /// ([`UaSession::last_query_stats`]).
    last_stats: Mutex<Option<ua_obs::QueryStats>>,
    /// Whether queries collect a query-lifetime trace (per-thread event
    /// ring, exported as Perfetto JSON). Off by default; results are
    /// byte-identical on or off — the differential trace tests assert it.
    collect_trace: AtomicBool,
    /// The Perfetto JSON of the most recent traced query
    /// ([`UaSession::last_query_trace`]).
    last_trace: Mutex<Option<String>>,
}

impl Default for UaSession {
    fn default() -> UaSession {
        UaSession {
            catalog: Catalog::default(),
            mode: AtomicU8::new(ExecMode::default() as u8),
            optimizer: AtomicBool::new(true),
            reorder: AtomicBool::new(true),
            vec_threads: AtomicUsize::new(0),
            collect_stats: AtomicBool::new(false),
            last_stats: Mutex::new(None),
            collect_trace: AtomicBool::new(false),
            last_trace: Mutex::new(None),
        }
    }
}

/// Scope guard arming the thread-local trace ring for one query: armed by
/// [`UaSession::trace_query`] at every query entry point, and on drop —
/// success *or* error — the collected events are exported as Perfetto
/// JSON into the session's `last_trace` slot. Holds `None` when tracing
/// is disabled or a trace is already active (nested query execution, e.g.
/// an AU resolver encoding a source mid-plan): the outer guard owns the
/// ring.
struct TraceGuard<'a> {
    session: Option<&'a UaSession>,
}

impl Drop for TraceGuard<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session {
            if let Some(events) = ua_obs::trace_finish() {
                *session.last_trace.lock() = Some(ua_obs::to_perfetto_json(&events));
            }
        }
    }
}

impl UaSession {
    /// A fresh session with an empty catalog.
    pub fn new() -> UaSession {
        UaSession::default()
    }

    /// A fresh session pre-set to `mode`.
    pub fn with_mode(mode: ExecMode) -> UaSession {
        let session = UaSession::default();
        session.set_exec_mode(mode);
        session
    }

    /// Select the executor for subsequent queries.
    pub fn set_exec_mode(&self, mode: ExecMode) {
        self.mode.store(mode as u8, Ordering::Relaxed);
    }

    /// The currently selected executor.
    pub fn exec_mode(&self) -> ExecMode {
        if self.mode.load(Ordering::Relaxed) == ExecMode::Row as u8 {
            ExecMode::Row
        } else {
            ExecMode::Vectorized
        }
    }

    /// Enable or disable the optimizer pipeline (filter pushdown + join
    /// planning) for subsequent queries. On by default.
    pub fn set_optimizer_enabled(&self, enabled: bool) {
        self.optimizer.store(enabled, Ordering::Relaxed);
    }

    /// Whether the optimizer pipeline runs on query plans.
    pub fn optimizer_enabled(&self) -> bool {
        self.optimizer.load(Ordering::Relaxed)
    }

    /// Enable or disable the statistics-driven join-reordering pass
    /// (`optimize::reorder_joins`) while keeping the rest of the pipeline
    /// (filter pushdown, hash-join planning) untouched. On by default;
    /// turning it off restores the as-written join order.
    pub fn set_reorder_joins_enabled(&self, enabled: bool) {
        self.reorder.store(enabled, Ordering::Relaxed);
    }

    /// Whether the join-reordering pass runs.
    pub fn reorder_joins_enabled(&self) -> bool {
        self.reorder.load(Ordering::Relaxed)
    }

    /// Set the vectorized executor's worker-thread count for subsequent
    /// queries: `0` = auto (the `UA_VEC_THREADS` environment variable if
    /// set, else the machine's available parallelism), `1` = serial, `n` =
    /// exactly `n` workers. The morsel pipeline merges per-batch results in
    /// deterministic batch-index order, so every setting produces
    /// byte-identical results — this knob only trades latency for cores.
    pub fn set_vec_threads(&self, threads: usize) {
        self.vec_threads.store(threads, Ordering::Relaxed);
    }

    /// The configured vectorized worker-thread count (`0` = auto).
    pub fn vec_threads(&self) -> usize {
        self.vec_threads.load(Ordering::Relaxed)
    }

    /// Enable or disable per-operator stats collection
    /// ([`ua_obs::QueryStats`]) for subsequent queries. Off by default:
    /// collection costs a wall-clock read per operator (row engine) or per
    /// morsel chain (vectorized engine). Results are byte-identical either
    /// way; the differential tests assert it.
    pub fn set_stats_enabled(&self, enabled: bool) {
        self.collect_stats.store(enabled, Ordering::Relaxed);
    }

    /// Whether executions collect per-operator stats.
    pub fn stats_enabled(&self) -> bool {
        self.collect_stats.load(Ordering::Relaxed)
    }

    /// The stats of the most recent instrumented query on this session
    /// (any semantics, either engine), if stats collection was enabled for
    /// it. Programmatic access to what `EXPLAIN ANALYZE` renders.
    pub fn last_query_stats(&self) -> Option<ua_obs::QueryStats> {
        self.last_stats.lock().clone()
    }

    /// Enable or disable query-lifetime tracing for subsequent queries:
    /// parse → plan → optimize → execute phase spans, per-operator spans
    /// (row engine) or bind/execute/merge + per-morsel task spans
    /// (vectorized engine), collected in a per-thread ring and exported as
    /// chrome://tracing / Perfetto JSON. Off by default; results are
    /// byte-identical either way — tracing is a pure observer.
    pub fn set_trace_enabled(&self, enabled: bool) {
        self.collect_trace.store(enabled, Ordering::Relaxed);
    }

    /// Whether queries collect a lifetime trace.
    pub fn trace_enabled(&self) -> bool {
        self.collect_trace.load(Ordering::Relaxed)
    }

    /// The Perfetto JSON trace of the most recent traced query on this
    /// session (any semantics, either engine) — load it at
    /// <https://ui.perfetto.dev> or `chrome://tracing`. `None` until a
    /// query ran with tracing enabled.
    pub fn last_query_trace(&self) -> Option<String> {
        self.last_trace.lock().clone()
    }

    /// Arm the per-thread trace ring for one query (no-op guard when
    /// tracing is off or an outer query already owns the ring).
    fn trace_query(&self) -> TraceGuard<'_> {
        TraceGuard {
            session: (self.trace_enabled() && ua_obs::trace_start()).then_some(self),
        }
    }

    /// Store an instrumented execution's stats, feed the planner's
    /// est-vs-actual join counters ([`ua_plan::optimize::record_join_misestimates`])
    /// and publish the query's memory high-water mark as the
    /// `mem.query.peak_bytes` gauge.
    fn store_stats(&self, stats: ua_obs::QueryStats) {
        ua_plan::optimize::record_join_misestimates(&stats.root);
        ua_obs::global()
            .gauge("mem.query.peak_bytes")
            .set(i64::try_from(stats.peak_mem_bytes).unwrap_or(i64::MAX));
        *self.last_stats.lock() = Some(stats);
    }

    /// The per-query options handed to the vectorized executor.
    fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            threads: self.vec_threads(),
            batch_rows: 0,
            collect_stats: self.stats_enabled(),
            // The session thread's ring is armed by `trace_query` before
            // dispatch; the executor only needs to know it may emit.
            collect_trace: ua_obs::trace_active(),
        }
    }

    /// The one executor dispatch: run `plan` under `semantics` on the
    /// session's selected executor. Both executors hand their
    /// [`ua_obs::QueryStats`] back by value next to the result, so an
    /// instrumented query stores its own stats — on failure too, as the
    /// error-marked partial tree — and an uninstrumented one stores none.
    fn dispatch(&self, plan: &Plan, semantics: Semantics) -> Result<Table, EngineError> {
        ua_obs::trace_scope("execute", "session", || {
            let (result, stats) = match self.exec_mode() {
                ExecMode::Row => {
                    ua_plan::execute_row(plan, &self.catalog, semantics, self.stats_enabled())
                }
                ExecMode::Vectorized => {
                    ua_vecexec::execute(plan, &self.catalog, self.exec_options(), semantics)
                }
            };
            if let Some(stats) = stats {
                self.store_stats(stats);
            }
            result
        })
    }

    /// The one optimizer run of a query, on its user plan. `semantics`
    /// names the schemas its expressions will bind against at run time:
    /// under `Det` the full pipeline; under `Ua` and `Au` positional
    /// classification is off — a user position counts user columns, while
    /// `plan_schema` sees the encoded tables (the trailing `ua_c` marker;
    /// AU's flattened arity `3n + 3`), so only name-based references
    /// classify reliably.
    fn optimize_plan(&self, plan: Plan, semantics: Semantics) -> Plan {
        if !self.optimizer_enabled() {
            return plan;
        }
        let passes = OptimizerPasses {
            positional_joins: semantics == Semantics::Det,
            reorder_joins: self.reorder_joins_enabled(),
        };
        ua_plan::optimize::optimize_with(plan, &self.catalog, passes)
    }

    /// The one query pipeline, which every query and every `EXPLAIN` takes:
    /// the marker guard (UA and AU), [`Self::optimize_plan`] once on the
    /// user plan, then the lowering to the plan both engines run. Returns
    /// the optimized plan and, under UA, its `⟦·⟧_UA` rewriting: UA runs
    /// the rewriting, and no optimizer pass sees it; det runs the
    /// optimized plan, and so does AU (the executors evaluate `⟦·⟧_AU`
    /// under `Semantics::Au`).
    fn lower(&self, plan: Plan, semantics: Semantics) -> Result<(Plan, Option<Plan>), EngineError> {
        if semantics != Semantics::Det {
            reject_marker_in_plan(&plan)?;
        }
        let optimized = ua_obs::trace_scope("optimize", "session", || {
            self.optimize_plan(plan, semantics)
        });
        let rewritten = match semantics {
            Semantics::Ua => Some(ua_obs::trace_scope("rewrite", "session", || {
                rewrite_ua_plan(&optimized, &self.catalog)
            })?),
            Semantics::Det | Semantics::Au => None,
        };
        Ok((optimized, rewritten))
    }

    /// Plan `sql` (annotated sources resolved for `semantics`), lower it
    /// and run it.
    pub(crate) fn query(&self, sql: &str, semantics: Semantics) -> Result<Table, EngineError> {
        let _trace = self.trace_query();
        let plan = self.plan_sql(sql, semantics)?;
        self.run(plan, semantics)
    }

    fn run(&self, plan: Plan, semantics: Semantics) -> Result<Table, EngineError> {
        let (optimized, rewritten) = self.lower(plan, semantics)?;
        self.dispatch(rewritten.as_ref().unwrap_or(&optimized), semantics)
    }

    /// `EXPLAIN [ANALYZE]` under `semantics`: the user plan, the optimized
    /// plan and, under UA, the `⟦·⟧_UA` rewriting that runs. With
    /// `analyze` the lowered plan also executes with stats collection on
    /// (whatever the session default is — the previous setting is restored
    /// afterwards), and the executed, annotated operator tree follows the
    /// plans. Its result is discarded.
    pub(crate) fn explain(
        &self,
        sql: &str,
        semantics: Semantics,
        analyze: bool,
    ) -> Result<String, EngineError> {
        let _trace = analyze.then(|| self.trace_query());
        let plan = self.plan_sql(sql, semantics)?;
        let (optimized, rewritten) = self.lower(plan.clone(), semantics)?;
        let mut text = match &rewritten {
            None => format!("plan:\n  {plan}\nphysical (optimized):\n  {optimized}"),
            Some(rewritten) => format!(
                "user plan:\n  {plan}\noptimized:\n  {optimized}\n\
                 physical (rewritten with ⟦·⟧_UA):\n  {rewritten}"
            ),
        };
        if analyze {
            let was = self.stats_enabled();
            self.set_stats_enabled(true);
            let result = self.dispatch(rewritten.as_ref().unwrap_or(&optimized), semantics);
            self.set_stats_enabled(was);
            result?;
            let stats = self.last_query_stats().ok_or_else(|| {
                EngineError::Sql("EXPLAIN ANALYZE: execution produced no stats".into())
            })?;
            text = format!("{text}\n{}", render_analysis(&stats));
        }
        Ok(text)
    }

    /// The underlying catalog (deterministic tables and encoded UA tables
    /// share it).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Register a plain (deterministic or raw uncertain-source) table.
    pub fn register_table(&self, name: impl Into<String>, table: Table) {
        self.catalog.register(name, table);
    }

    /// Register an `ℕ_UA`-relation, encoding it with `Enc`.
    pub fn register_ua_relation(&self, name: impl Into<String>, relation: &Relation<Ua<u64>>) {
        let encoded = encode_relation(relation);
        self.catalog.register(name, Table::from_relation(&encoded));
    }

    /// Parse and plan `sql`, resolving annotated sources to their UA or,
    /// under `Semantics::Au`, their AU encoding (the `parse` and `plan`
    /// phases of a traced query).
    fn plan_sql(&self, sql: &str, semantics: Semantics) -> Result<Plan, EngineError> {
        let resolver: &dyn SourceResolver = match semantics {
            Semantics::Au => &AuResolver,
            Semantics::Det | Semantics::Ua => &UaResolver,
        };
        let ast = ua_obs::trace_scope("parse", "session", || parse(sql))
            .map_err(|e| EngineError::Sql(e.to_string()))?;
        ua_obs::trace_scope("plan", "session", || {
            plan_query(&ast, &self.catalog, resolver)
        })
    }

    /// Run a query under plain deterministic semantics.
    pub fn query_det(&self, sql: &str) -> Result<Table, EngineError> {
        self.query(sql, Semantics::Det)
    }

    /// Run a query under UA semantics: plan, optimize, rewrite with
    /// `⟦·⟧_UA`, execute over the encoded tables.
    ///
    /// `RA⁺`, `EXCEPT [ALL]`, outer joins and `NOT IN`/`NOT EXISTS` (+
    /// trailing `ORDER BY`/`LIMIT`) are supported; `DISTINCT` and
    /// aggregation over UA-DBs are future work in the paper and rejected
    /// here.
    pub fn query_ua(&self, sql: &str) -> Result<UaResult, EngineError> {
        self.query(sql, Semantics::Ua)
            .map(|table| UaResult { table })
    }

    /// Run an already-planned `RA⁺` query under UA semantics.
    pub fn query_ua_ra(&self, query: &ua_data::RaExpr) -> Result<UaResult, EngineError> {
        let _trace = self.trace_query();
        self.run(Plan::from_ra(query), Semantics::Ua)
            .map(|table| UaResult { table })
    }

    /// Explain a UA query: the user plan, its optimized plan, and the
    /// `⟦·⟧_UA` rewriting of the latter ([`rewrite_ua_plan`]) — the one
    /// physical plan both engines execute (the middleware's "show
    /// rewritten SQL", plus `EXPLAIN`).
    pub fn explain_ua(&self, sql: &str) -> Result<String, EngineError> {
        self.explain(sql, Semantics::Ua, false)
    }

    /// Explain a deterministic query: the planner's plan and the optimized
    /// physical plan that actually executes.
    pub fn explain_det(&self, sql: &str) -> Result<String, EngineError> {
        self.explain(sql, Semantics::Det, false)
    }

    /// `EXPLAIN ANALYZE` for deterministic queries: [`Self::explain_det`]'s
    /// plans followed by the executed, annotated operator tree with
    /// per-operator row counts, wall times and the planner's est-vs-actual
    /// cardinalities. The query really executes; its result is discarded.
    pub fn explain_analyze_det(&self, sql: &str) -> Result<String, EngineError> {
        self.explain(sql, Semantics::Det, true)
    }

    /// `EXPLAIN ANALYZE` for UA queries: [`Self::explain_ua`]'s plans plus
    /// the executed operator tree of the `⟦·⟧_UA` rewriting (what actually
    /// ran, on either engine; the vectorized tree adds batch counts and
    /// morsel-pool totals).
    pub fn explain_analyze_ua(&self, sql: &str) -> Result<String, EngineError> {
        self.explain(sql, Semantics::Ua, true)
    }
}

/// The execution section `EXPLAIN ANALYZE` appends below the plan text:
/// a header naming the engine/semantics, then the annotated operator tree
/// (indented to match the plan sections above it).
fn render_analysis(stats: &ua_obs::QueryStats) -> String {
    let mut out = format!(
        "execution (EXPLAIN ANALYZE, engine={} semantics={}):\n",
        stats.engine, stats.semantics
    );
    for line in stats.render(true).lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out.pop();
    out
}

/// Resolve an annotated source to a scan of its encoding: converted by
/// `encode` on first use, then cached in the catalog under a name derived
/// from `namespace` (`ua` / `au`, so the two encodings of one table never
/// collide), the table and the annotation's shape. The cached encoding is
/// tied to the base table's registration ([`Catalog::derive`]): a
/// re-registered base is encoded again and a dropped one takes its
/// encodings with it, so no label outlives the rows it was computed from.
pub(crate) fn resolve_encoded(
    namespace: &str,
    name: &str,
    annotation: &SourceAnnotation,
    catalog: &Catalog,
    encode: impl FnOnce(&Table) -> Result<Table, EngineError>,
) -> Result<Plan, EngineError> {
    // The cache key carries the annotation's shape: the same base table
    // may legitimately be annotated differently across (or within)
    // queries, and a bare `__ua__{name}` key would silently serve the
    // first encoding for all of them.
    // Each field is length-prefixed so the encoding is injective even
    // though '_' can appear inside column names (plain joining would
    // make `XID (a) ALTID (b_c)` collide with `XID (a_b) ALTID (c)`),
    // while the derived name stays a lexable identifier that
    // `query_det` can still reference.
    let fp = |parts: &[&str]| {
        parts
            .iter()
            .map(|p| format!("{}_{p}", p.len()))
            .collect::<Vec<_>>()
            .join("_")
    };
    let fingerprint = match annotation {
        SourceAnnotation::Ti { probability } => format!("ti_{}", fp(&[probability])),
        SourceAnnotation::X {
            xid,
            altid,
            probability,
        } => format!("x_{}", fp(&[xid, altid, probability])),
        SourceAnnotation::CTable {
            variables,
            condition,
        } => {
            let mut parts: Vec<&str> = variables.iter().map(String::as_str).collect();
            parts.push(condition);
            format!("ct_{}", fp(&parts))
        }
    };
    let derived = format!("__{namespace}__{name}__{fingerprint}");
    if !catalog.derive(name, &derived, encode)? {
        return Err(EngineError::UnknownTable(name.to_string()));
    }
    Ok(Plan::Scan(derived))
}

/// Source resolver applying the Section 9.2 labeling schemes.
struct UaResolver;

impl SourceResolver for UaResolver {
    fn resolve(
        &self,
        name: &str,
        annotation: &SourceAnnotation,
        catalog: &Catalog,
    ) -> Result<Plan, EngineError> {
        resolve_encoded("ua", name, annotation, catalog, |base| match annotation {
            SourceAnnotation::Ti { probability } => ti_source(base, probability),
            SourceAnnotation::X {
                xid,
                altid,
                probability,
            } => x_source(base, xid, altid, probability),
            SourceAnnotation::CTable {
                variables,
                condition,
            } => ctable_source(base, variables, condition),
        })
    }
}

/// A probability cell as `f64` (shared by the UA and AU source labelings).
pub(crate) fn float_of(v: &Value, col: &str) -> Result<f64, EngineError> {
    v.as_f64()
        .ok_or_else(|| EngineError::Sql(format!("probability column `{col}` must be numeric")))
}

/// The columns of `schema` outside `exclude` (the annotation's bookkeeping
/// columns): their indices and their `Column`s.
pub(crate) fn keep_columns(schema: &Schema, exclude: &[usize]) -> (Vec<usize>, Vec<Column>) {
    let mut keep = Vec::new();
    let mut cols = Vec::new();
    for (i, col) in schema.columns().iter().enumerate() {
        if !exclude.contains(&i) {
            keep.push(i);
            cols.push(col.clone());
        }
    }
    (keep, cols)
}

/// `label_TIDB` + BGW extraction over a raw table with a probability column
/// (the paper's Section 9.2 TI-DB SQL, implemented natively):
/// keep rows with `p ≥ 0.5`, mark certain iff `p = 1`.
pub fn ti_source(table: &Table, prob_col: &str) -> Result<Table, EngineError> {
    let p_idx = table.schema().resolve(prob_col)?;
    let (keep, mut cols) = keep_columns(table.schema(), &[p_idx]);
    cols.push(Column::unqualified(UA_LABEL_COLUMN));
    let mut out = Table::new(Schema::new(cols));
    for row in table.rows() {
        let p = float_of(row.get(p_idx).expect("resolved index"), prob_col)?;
        if p >= 0.5 {
            let mut values: Vec<Value> = keep
                .iter()
                .map(|&i| row.get(i).expect("in range").clone())
                .collect();
            values.push(Value::Int(i64::from(p >= 1.0 - 1e-9)));
            out.push(Tuple::new(values));
        }
    }
    Ok(out)
}

/// `label_xDB` + BGW extraction over a raw table with x-tuple id,
/// alternative id and probability columns (Section 9.2): per x-tuple keep
/// the argmax-probability alternative unless absence is likelier; mark
/// certain iff the x-tuple has a single alternative of mass 1.
pub fn x_source(
    table: &Table,
    xid_col: &str,
    altid_col: &str,
    prob_col: &str,
) -> Result<Table, EngineError> {
    let x_idx = table.schema().resolve(xid_col)?;
    let a_idx = table.schema().resolve(altid_col)?;
    let p_idx = table.schema().resolve(prob_col)?;
    let (keep, mut cols) = keep_columns(table.schema(), &[x_idx, a_idx, p_idx]);
    cols.push(Column::unqualified(UA_LABEL_COLUMN));

    // Group rows by x-tuple id, tracking the argmax alternative.
    struct Block {
        total: f64,
        count: usize,
        best_p: f64,
        best_row: Tuple,
    }
    let mut blocks: FxHashMap<Value, Block> = FxHashMap::default();
    let mut order: Vec<Value> = Vec::new();
    for row in table.rows() {
        let xid = row.get(x_idx).expect("in range").clone();
        let p = float_of(row.get(p_idx).expect("in range"), prob_col)?;
        match blocks.get_mut(&xid) {
            Some(b) => {
                b.total += p;
                b.count += 1;
                if p > b.best_p {
                    b.best_p = p;
                    b.best_row = row.clone();
                }
            }
            None => {
                order.push(xid.clone());
                blocks.insert(
                    xid,
                    Block {
                        total: p,
                        count: 1,
                        best_p: p,
                        best_row: row.clone(),
                    },
                );
            }
        }
    }

    let mut out = Table::new(Schema::new(cols));
    for xid in order {
        let b = blocks.remove(&xid).expect("recorded");
        let p_absent = (1.0 - b.total).max(0.0);
        if b.best_p < p_absent {
            continue; // absence is the best guess
        }
        let mut values: Vec<Value> = keep
            .iter()
            .map(|&i| b.best_row.get(i).expect("in range").clone())
            .collect();
        let certain = b.count == 1 && b.total >= 1.0 - 1e-9;
        values.push(Value::Int(i64::from(certain)));
        out.push(Tuple::new(values));
    }
    Ok(out)
}

/// `label_C-table` + BGW extraction over a raw table storing per-attribute
/// variable names (`NULL` = constant) and a textual local condition
/// (Section 9.2): keep constant-only rows, mark certain iff the parsed
/// condition is in CNF and a CNF-tautology.
///
/// Mirroring the paper's SQL, rows with variable attributes are *not* part
/// of the extracted world — the paper's frontend under-approximates the BGW
/// for C-tables; the native [`ua_models::CDb`] path instantiates variables
/// properly when a full BGW is needed.
pub fn ctable_source(
    table: &Table,
    variable_cols: &[String],
    condition_col: &str,
) -> Result<Table, EngineError> {
    let lc_idx = table.schema().resolve(condition_col)?;
    let var_idxs: Vec<usize> = variable_cols
        .iter()
        .map(|v| table.schema().resolve(v))
        .collect::<Result<_, _>>()?;
    let mut exclude = var_idxs.clone();
    exclude.push(lc_idx);
    let (keep, mut cols) = keep_columns(table.schema(), &exclude);
    cols.push(Column::unqualified(UA_LABEL_COLUMN));

    let mut interner = VarInterner::new();
    let mut out = Table::new(Schema::new(cols));
    for row in table.rows() {
        let all_constant = var_idxs
            .iter()
            .all(|&i| row.get(i).expect("in range").is_unknown());
        if !all_constant {
            continue;
        }
        let lc_text = match row.get(lc_idx).expect("in range") {
            Value::Str(s) => s.to_string(),
            Value::Null => String::new(),
            other => {
                return Err(EngineError::Sql(format!(
                    "local condition column must be text, found {other}"
                )))
            }
        };
        let condition = parse_condition(&lc_text, &mut interner)
            .map_err(|e| EngineError::Sql(e.to_string()))?;
        let certain = is_cnf(&condition) && cnf_tautology(&condition) == Some(true);
        let mut values: Vec<Value> = keep
            .iter()
            .map(|&i| row.get(i).expect("in range").clone())
            .collect();
        values.push(Value::Int(i64::from(certain)));
        out.push(Tuple::new(values));
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ua_data::tuple;

    pub(crate) fn geocoder_session() -> UaSession {
        // The paper's running example (Figures 2/3) as an x-relation stored
        // row-wise with xid/altid/probability columns.
        let session = UaSession::new();
        session.register_table(
            "addr",
            Table::from_rows(
                Schema::qualified("addr", ["xid", "aid", "p", "id", "locale", "state"]),
                vec![
                    tuple![1i64, 1i64, 1.0, 1i64, "Lasalle", "NY"],
                    tuple![2i64, 1i64, 0.6, 2i64, "Tucson", "AZ"],
                    tuple![2i64, 2i64, 0.4, 2i64, "Grant Ferry", "NY"],
                    tuple![3i64, 1i64, 0.5, 3i64, "Kingsley", "NY"],
                    tuple![3i64, 2i64, 0.5, 3i64, "Kingsley", "NY"],
                    tuple![4i64, 1i64, 1.0, 4i64, "Kensington", "NY"],
                ],
            ),
        );
        session
    }

    #[test]
    fn figure3d_via_sql() {
        let session = geocoder_session();
        let result = session
            .query_ua(
                "SELECT id, locale, state FROM \
                 addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p)",
            )
            .unwrap();
        let rows = result.rows_with_certainty();
        assert_eq!(rows.len(), 4);
        let certainty: FxHashMap<Tuple, bool> = rows.into_iter().collect();
        assert!(certainty[&tuple![1i64, "Lasalle", "NY"]]);
        assert!(!certainty[&tuple![2i64, "Tucson", "AZ"]]);
        // Address 3 is mis-classified as uncertain (2 alternatives, even
        // though they project to the same locale) — the paper's Figure 3d.
        assert!(!certainty[&tuple![3i64, "Kingsley", "NY"]]);
        assert!(certainty[&tuple![4i64, "Kensington", "NY"]]);
    }

    #[test]
    fn selection_preserves_labels() {
        let session = geocoder_session();
        let result = session
            .query_ua(
                "SELECT id, locale FROM \
                 addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) \
                 WHERE state = 'NY' ORDER BY id",
            )
            .unwrap();
        let rows = result.rows_with_certainty();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], (tuple![1i64, "Lasalle"], true));
        assert_eq!(rows[1], (tuple![3i64, "Kingsley"], false));
        assert_eq!(rows[2], (tuple![4i64, "Kensington"], true));
    }

    #[test]
    fn ti_source_semantics() {
        let t = Table::from_rows(
            Schema::qualified("r", ["a", "p"]),
            vec![tuple![1i64, 1.0], tuple![2i64, 0.8], tuple![3i64, 0.2]],
        );
        let enc = ti_source(&t, "p").unwrap();
        assert_eq!(
            enc.sorted_rows(),
            vec![tuple![1i64, 1i64], tuple![2i64, 0i64]]
        );
    }

    #[test]
    fn x_source_absence_beats_alternatives() {
        let t = Table::from_rows(
            Schema::qualified("r", ["xid", "aid", "p", "a"]),
            vec![
                tuple![1i64, 1i64, 0.1, 10i64],
                tuple![1i64, 2i64, 0.2, 20i64],
            ],
        );
        let enc = x_source(&t, "xid", "aid", "p").unwrap();
        assert!(enc.is_empty(), "absence probability 0.7 dominates");
    }

    #[test]
    fn ctable_source_tautology_labeling() {
        let t = Table::from_rows(
            Schema::qualified("r", ["a", "v1", "lc"]),
            vec![
                Tuple::new(vec![
                    Value::Int(1),
                    Value::Null,
                    Value::str("x < 5 OR x >= 5"),
                ]),
                Tuple::new(vec![Value::Int(2), Value::Null, Value::str("x = 3")]),
                Tuple::new(vec![Value::Int(3), Value::str("x"), Value::str("")]),
            ],
        );
        let enc = ctable_source(&t, &["v1".to_string()], "lc").unwrap();
        assert_eq!(
            enc.sorted_rows(),
            vec![tuple![1i64, 1i64], tuple![2i64, 0i64]],
            "row 3 has a variable attribute and is excluded; row 1 is a tautology"
        );
    }

    #[test]
    fn det_and_ua_agree_on_bgqp() {
        // h_det compatibility via SQL: stripping the marker from the UA
        // result yields the deterministic result over the BGW.
        let session = geocoder_session();
        let ua = session
            .query_ua(
                "SELECT locale FROM addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) \
                 WHERE state = 'NY'",
            )
            .unwrap();
        let det = session
            .query_det("SELECT locale FROM __ua__addr__x_3_xid_3_aid_1_p WHERE state = 'NY'")
            .unwrap();
        let ua_rows: Vec<Tuple> = ua
            .rows_with_certainty()
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(ua_rows.len(), det.len());
    }

    #[test]
    fn aggregation_rejected_under_ua() {
        let session = geocoder_session();
        let err = session.query_ua(
            "SELECT state, count(*) FROM \
             addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) GROUP BY state",
        );
        assert!(matches!(err, Err(EngineError::Sql(_))));
    }

    #[test]
    fn explain_shows_both_plans() {
        let session = geocoder_session();
        let text = session
            .explain_ua(
                "SELECT id FROM addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p)                  WHERE state = 'NY'",
            )
            .unwrap();
        assert!(text.contains("user plan:"));
        assert!(text.contains("rewritten"));
        assert!(
            text.contains("ua_c"),
            "rewritten plan must carry the marker"
        );
    }

    /// `EXCEPT` and outer joins explain like everything else `query_ua`
    /// runs: user plan, its optimized plan, and the `⟦·⟧_UA` rewriting of
    /// that — the physical plan.
    #[test]
    fn explain_ua_goldens_for_except_and_left_join() {
        let session = UaSession::new();
        for name in ["r", "s"] {
            let schema = Schema::qualified(name, ["a"]).with_column(UA_LABEL_COLUMN);
            session.register_table(name, Table::from_rows(schema, vec![tuple![1i64, 1i64]]));
        }
        assert_eq!(
            session
                .explain_ua("SELECT a FROM r WHERE a > 0 EXCEPT SELECT a FROM s")
                .unwrap(),
            "user plan:\n  \
             Except(Map[a→a](Filter[(a > 0)](Scan(r))), Map[a→a](Scan(s)))\n\
             optimized:\n  \
             Except(Map[a→a](Filter[(a > 0)](Scan(r))), Map[a→a](Scan(s)))\n\
             physical (rewritten with ⟦·⟧_UA):\n  \
             Map[#0→a, 0→ua_c](Except(\
             Map[a→a](Filter[(a > 0)](Scan(r))), Map[a→a](Scan(s))))"
        );
        // One projection over the outer join: the user's, carrying the
        // join's marker, with the WHERE filter still on the joined rows.
        assert_eq!(
            session
                .explain_ua("SELECT r.a, s.a AS b FROM r LEFT JOIN s ON r.a = s.a WHERE r.a > 0")
                .unwrap(),
            "user plan:\n  \
             Map[r.a→a, s.a→b](Filter[(r.a > 0)](\
             OuterJoin[left; (r.a = s.a)](Scan(r), Scan(s))))\n\
             optimized:\n  \
             Map[r.a→a, s.a→b](Filter[(r.a > 0)](\
             OuterJoin[left; (r.a = s.a)](Scan(r), Scan(s))))\n\
             physical (rewritten with ⟦·⟧_UA):\n  \
             Map[r.a→a, s.a→b, CASE WHEN ((#1 = 1) AND (#3 = 1)) THEN 1 ELSE 0 END→ua_c](\
             Filter[(r.a > 0)](OuterJoin[left; (r.a = s.a)](Scan(r), Scan(s))))"
        );
    }

    #[test]
    fn registered_ua_relation_round_trips() {
        let session = UaSession::new();
        let rel: Relation<Ua<u64>> = Relation::from_annotated(
            Schema::qualified("r", ["a"]),
            vec![
                (tuple![1i64], Ua::new(1u64, 2)),
                (tuple![2i64], Ua::new(0u64, 1)),
            ],
        );
        session.register_ua_relation("r", &rel);
        let result = session.query_ua("SELECT a FROM r").unwrap();
        assert_eq!(result.decode(), rel);
        let (certain, total) = result.certainty_counts();
        assert_eq!((certain, total), (1, 3));
    }
}
