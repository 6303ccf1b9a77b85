//! The UA-DB query-rewriting frontend (paper Section 9).
//!
//! [`UaSession`] is the middleware the paper describes: input queries are
//! parsed, translated to relational algebra, rewritten with `⟦·⟧_UA`
//! (Figures 8/9) and executed against the bag engine over the encoded
//! representation (extra `ua_c` column; Definition 8).
//!
//! Source relations enter the system either
//!
//! * pre-encoded, via [`UaSession::register_ua_relation`], or
//! * raw + annotated, via the SQL clauses of Section 9.2
//!   (`R IS TI WITH PROBABILITY (p)` etc.), whose labeling schemes and
//!   best-guess-world extraction are implemented by [`ti_source`],
//!   [`x_source`] and [`ctable_source`].

use crate::mode::{ExecMode, ExecOptions};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use ua_conditions::{cnf_tautology, is_cnf, parse_condition, VarInterner};
use ua_core::{decode_relation, encode_relation, rewrite_ua, UA_LABEL_COLUMN};
use ua_data::relation::Relation;
use ua_data::schema::{Column, Schema};
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_data::FxHashMap;
pub use ua_plan::exec::UA_FRAGMENT_ERROR;
use ua_plan::exec::{execute, EngineError};
use ua_plan::plan::Plan;
use ua_plan::sql::ast::SourceAnnotation;
use ua_plan::sql::parser::parse;
use ua_plan::sql::planner::{plan_query, SourceResolver};
use ua_plan::storage::{Catalog, Table};
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
        let arity = self.table.schema().arity();
        let base: Vec<usize> = (0..arity - 1).collect();
        self.table
            .rows()
            .iter()
            .map(|row| {
                let certain = matches!(row.get(arity - 1), Some(Value::Int(1)));
                (row.project(&base), certain)
            })
            .collect()
    }

    /// Decode into a `K²`-relation (`Enc⁻¹`, Definition 8).
    pub fn decode(&self) -> Relation<Ua<u64>> {
        decode_relation(&self.table.to_relation())
    }

    /// `(certain rows, total rows)` — the headline numbers of the paper's
    /// experiments (Figure 13's certain-answer percentages).
    pub fn certainty_counts(&self) -> (usize, usize) {
        let rows = self.rows_with_certainty();
        let certain = rows.iter().filter(|(_, c)| *c).count();
        (certain, rows.len())
    }
}

/// The UA-DB frontend session.
pub struct UaSession {
    catalog: Catalog,
    /// [`ExecMode`] as a `u8` so the session stays shareable (`&self`
    /// querying) without a lock: 0 = Row, 1 = Vectorized.
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
            mode: AtomicU8::new(0),
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
pub(crate) struct TraceGuard<'a> {
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

/// The semantics a plan executes under: which interpreter the row engine
/// runs it through and which vectorized entry point it goes to.
#[derive(Clone, Copy)]
pub(crate) enum Semantics {
    Det,
    /// Row engine: `plan` is the `⟦·⟧_UA`-rewritten plan, interpreted
    /// deterministically. Vectorized engine: `plan` is the user plan and
    /// labels propagate as bitmaps.
    Ua,
    Au,
}

/// A trailing `ORDER BY`/`LIMIT` peeled off a UA plan before dispatch —
/// both commute with the rewriting (they only reorder/truncate encoded
/// rows).
enum Wrapper {
    Sort(Vec<(ua_data::Expr, ua_plan::plan::SortOrder)>),
    Limit(usize),
}

/// Whether the plan contains a node outside RA⁺ that the UA frontend still
/// supports: EXCEPT or an outer join.
fn plan_contains_negation(plan: &Plan) -> bool {
    match plan {
        Plan::Except { .. } | Plan::OuterJoin { .. } => true,
        Plan::Scan(_) => false,
        Plan::Alias { input, .. }
        | Plan::Filter { input, .. }
        | Plan::Map { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::TopK { input, .. }
        | Plan::Aggregate { input, .. } => plan_contains_negation(input),
        Plan::Join { left, right, .. }
        | Plan::HashJoin { left, right, .. }
        | Plan::UnionAll { left, right } => {
            plan_contains_negation(left) || plan_contains_negation(right)
        }
    }
}

/// Temporary encoded tables materialized by the row-mode negation path,
/// dropped from the catalog on scope exit (success or error).
struct TempTables<'a> {
    catalog: &'a Catalog,
    names: Vec<String>,
}

impl TempTables<'_> {
    fn register(&mut self, table: Table) -> String {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let name = format!("__ua_tmp_{}", NEXT.fetch_add(1, Ordering::Relaxed));
        self.catalog.register(&name, table);
        self.names.push(name.clone());
        name
    }
}

impl Drop for TempTables<'_> {
    fn drop(&mut self) {
        for name in &self.names {
            self.catalog.drop_table(name);
        }
    }
}

/// The user-visible part of an encoded table's schema (everything left of
/// the `ua_c` marker).
fn encoded_base_schema(t: &Table) -> Schema {
    Schema::new(t.schema().columns()[..t.schema().arity() - 1].to_vec())
}

/// Encoded-relation EXCEPT, matching the deterministic [`ua_plan::exec::except_table`]
/// contract over the *base* columns (two copies of a tuple are never
/// distinguished by their markers). Every output row is labeled 0: under
/// `K²` the difference's certain multiplicity needs an *upper* bound on
/// the right side's possible multiplicity, which the UA encoding does not
/// carry — label 0 is the only sound under-approximation (the bound-aware
/// version lives in `ua_ranges::ops::except`).
fn ua_except_encoded(l: &Table, r: &Table, all: bool) -> Result<Table, EngineError> {
    encoded_base_schema(l).check_union_compatible(&encoded_base_schema(r))?;
    let base = l.schema().arity() - 1;
    let key_of = |row: &Tuple| -> Tuple {
        row.values()[..base]
            .iter()
            .map(|v| v.clone().join_key())
            .collect()
    };
    let mut budget: FxHashMap<Tuple, u64> = FxHashMap::default();
    for row in r.rows() {
        *budget.entry(key_of(row)).or_insert(0) += 1;
    }
    let mut out = Table::new(encoded_base_schema(l).with_column(UA_LABEL_COLUMN));
    let mut push = |row: &Tuple| {
        let mut vals: Vec<Value> = row.values()[..base].to_vec();
        vals.push(Value::Int(0));
        out.push(Tuple::new(vals));
    };
    if all {
        for row in l.rows() {
            match budget.get_mut(&key_of(row)) {
                Some(n) if *n > 0 => *n -= 1,
                _ => push(row),
            }
        }
    } else {
        let mut seen: ua_data::FxHashSet<Tuple> = ua_data::FxHashSet::default();
        for row in l.rows() {
            let key = key_of(row);
            if budget.contains_key(&key) {
                continue;
            }
            if seen.insert(key) {
                push(row);
            }
        }
    }
    Ok(out)
}

/// Encoded-relation outer join: the deterministic
/// [`ua_plan::exec::outer_join_stream`] contract over the base columns, with
/// markers combined per `⟦·⟧_UA`'s join rule for matches (`min`, i.e.
/// label-AND) and 0 for NULL-padded misses — a pad row is never certain,
/// since some world may supply a match that replaces it.
fn ua_outer_join_encoded(
    l: &Table,
    r: &Table,
    predicate: Option<&ua_data::Expr>,
    kind: ua_plan::plan::OuterKind,
) -> Result<Table, EngineError> {
    if let Some(p) = predicate {
        if ua_core::expr_mentions_marker(p) {
            return Err(EngineError::Schema(
                ua_data::schema::SchemaError::AmbiguousColumn(UA_LABEL_COLUMN.to_string()),
            ));
        }
    }
    let base_table = |t: &Table| -> Table {
        let base = t.schema().arity() - 1;
        Table::from_rows(
            encoded_base_schema(t),
            t.rows()
                .iter()
                .map(|row| Tuple::new(row.values()[..base].to_vec()))
                .collect(),
        )
    };
    let marker_of = |t: &Table, i: usize| -> i64 {
        match t.rows()[i].values().last() {
            Some(Value::Int(n)) if *n != 0 => 1,
            _ => 0,
        }
    };
    let lb = base_table(l);
    let rb = base_table(r);
    let mut out = Table::new(lb.schema().concat(rb.schema()).with_column(UA_LABEL_COLUMN));
    ua_plan::exec::outer_join_pairs(&lb, &rb, predicate, kind, &mut |oi, ii, row| {
        let label = match ii {
            Some(ii) => {
                let (li, ri) = if kind == ua_plan::plan::OuterKind::Left {
                    (oi, ii)
                } else {
                    (ii, oi)
                };
                marker_of(l, li).min(marker_of(r, ri))
            }
            None => 0,
        };
        let mut vals = row.values().to_vec();
        vals.push(Value::Int(label));
        out.push(Tuple::new(vals));
        Ok(())
    })?;
    Ok(out)
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
        let bits = match mode {
            ExecMode::Row => 0,
            ExecMode::Vectorized => 1,
        };
        self.mode.store(bits, Ordering::Relaxed);
    }

    /// The currently selected executor.
    pub fn exec_mode(&self) -> ExecMode {
        match self.mode.load(Ordering::Relaxed) {
            0 => ExecMode::Row,
            _ => ExecMode::Vectorized,
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
    pub(crate) fn trace_query(&self) -> TraceGuard<'_> {
        TraceGuard {
            session: (self.trace_enabled() && ua_obs::trace_start()).then_some(self),
        }
    }

    /// Store an instrumented execution's stats, feed the planner's
    /// est-vs-actual join counters ([`ua_plan::optimize::record_join_misestimates`])
    /// and publish the query's memory high-water mark as the
    /// `mem.query.peak_bytes` gauge.
    pub(crate) fn store_stats(&self, stats: ua_obs::QueryStats) {
        ua_plan::optimize::record_join_misestimates(&stats.root);
        ua_obs::global()
            .gauge("mem.query.peak_bytes")
            .set(i64::try_from(stats.peak_mem_bytes).unwrap_or(i64::MAX));
        *self.last_stats.lock() = Some(stats);
    }

    /// The per-query options handed to the vectorized executor.
    pub(crate) fn exec_options(&self) -> ExecOptions {
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
    pub(crate) fn dispatch(&self, plan: &Plan, semantics: Semantics) -> Result<Table, EngineError> {
        ua_obs::trace_scope("execute", "session", || {
            let (result, stats) = match self.exec_mode() {
                ExecMode::Row => self.run_row(plan, semantics),
                ExecMode::Vectorized => {
                    let run = match semantics {
                        Semantics::Det => ua_vecexec::execute_vectorized_with_stats,
                        Semantics::Ua => ua_vecexec::execute_ua_vectorized_with_stats,
                        Semantics::Au => ua_vecexec::execute_au_vectorized_with_stats,
                    };
                    run(plan, &self.catalog, self.exec_options())
                }
            };
            if let Some(stats) = stats {
                self.store_stats(stats);
            }
            result
        })
    }

    /// [`Self::dispatch`]'s row-engine arm, shaped like the vectorized
    /// `*_with_stats` entry points.
    fn run_row(
        &self,
        plan: &Plan,
        semantics: Semantics,
    ) -> (Result<Table, EngineError>, Option<ua_obs::QueryStats>) {
        let (au, name) = match semantics {
            Semantics::Det => (false, "det"),
            Semantics::Ua => (false, "ua"),
            Semantics::Au => (true, "au"),
        };
        let encode = |rel: ua_ranges::AuRelation| ua_plan::au_table(&rel);
        if !self.stats_enabled() {
            let result = if au {
                ua_plan::execute_au(plan, &self.catalog).map(encode)
            } else {
                execute(plan, &self.catalog)
            };
            return (result, None);
        }
        ua_obs::mem_query_start();
        let (result, root) = if au {
            let (rel, root) = ua_plan::stats::try_execute_au_with_stats(plan, &self.catalog);
            (rel.map(encode), root)
        } else {
            ua_plan::stats::try_execute_with_stats(plan, &self.catalog)
        };
        let peak_mem_bytes = ua_obs::mem_query_finish().unwrap_or(0);
        let stats = root.map(|root| ua_obs::QueryStats {
            engine: "row".into(),
            semantics: name.into(),
            root,
            pool: None,
            peak_mem_bytes,
        });
        (result, stats)
    }

    /// The shared optimization step: every query plan — deterministic or
    /// UA, row or vectorized — passes through here before executor
    /// dispatch, so both engines always run plans shaped by the same
    /// rewrites and cannot drift.
    fn optimize_plan(&self, plan: Plan) -> Plan {
        self.optimize_plan_with(plan, ua_plan::optimize::OptimizerPasses::default())
    }

    /// [`Self::optimize_plan`] for the vectorized UA path, whose runtime
    /// schemas are the marker-*stripped* encoded schemas: positional
    /// references would be classified against the wrong arities there, so
    /// join planning is restricted to name-based classification (all plans
    /// lowered from SQL are name-based; only programmatic `RaExpr` queries
    /// with `Expr::Col` predicates give up the hash-join rewrite, keeping
    /// their pre-optimizer runtime-binding semantics). Join *reordering*
    /// already happened on the shared user plan ([`Self::reorder_user_ra`])
    /// before dispatch, so the pass is off here.
    fn optimize_plan_stripped(&self, plan: Plan) -> Plan {
        self.optimize_plan_with(
            plan,
            ua_plan::optimize::OptimizerPasses {
                positional_joins: false,
                reorder_joins: false,
                ..Default::default()
            },
        )
    }

    /// Statistics-driven join reordering for UA queries, applied to the
    /// *user* `RA⁺` query before the two execution paths diverge — the row
    /// engine rewrites with `⟦·⟧_UA` (whose marker-combining projections
    /// would otherwise hide the join tree from the optimizer) and the
    /// vectorized engine executes the user plan directly, so reordering
    /// here is the single point that keeps both engines on the same join
    /// order (and therefore the same output row order, which the
    /// differential harness asserts byte-for-byte).
    fn reorder_user_ra(&self, ra: ua_data::RaExpr) -> ua_data::RaExpr {
        if !self.optimizer_enabled() || !self.reorder_joins_enabled() {
            return ra;
        }
        let reordered = ua_plan::optimize::reorder_joins_ua(Plan::from_ra(&ra), &self.catalog);
        // The pass emits only RA⁺ shapes; fall back defensively otherwise.
        reordered.to_ra().unwrap_or(ra)
    }

    pub(crate) fn optimize_plan_with(
        &self,
        plan: Plan,
        passes: ua_plan::optimize::OptimizerPasses,
    ) -> Plan {
        if self.optimizer_enabled() {
            let passes = ua_plan::optimize::OptimizerPasses {
                reorder_joins: passes.reorder_joins && self.reorder_joins_enabled(),
                ..passes
            };
            ua_plan::optimize::optimize_with(plan, &self.catalog, passes)
        } else {
            plan
        }
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

    /// Parse and plan `sql`, resolving annotated sources through
    /// `resolver` (the `parse` and `plan` phases of a traced query).
    pub(crate) fn plan_sql(
        &self,
        sql: &str,
        resolver: &dyn SourceResolver,
    ) -> Result<Plan, EngineError> {
        let ast = ua_obs::trace_scope("parse", "session", || parse(sql))
            .map_err(|e| EngineError::Sql(e.to_string()))?;
        ua_obs::trace_scope("plan", "session", || {
            plan_query(&ast, &self.catalog, resolver)
        })
    }

    /// Run a query under plain deterministic semantics.
    pub fn query_det(&self, sql: &str) -> Result<Table, EngineError> {
        let _trace = self.trace_query();
        let plan = self.plan_sql(sql, &UaResolver)?;
        let plan = ua_obs::trace_scope("optimize", "session", || self.optimize_plan(plan));
        self.dispatch(&plan, Semantics::Det)
    }

    /// Run a query under UA semantics: plan, rewrite with `⟦·⟧_UA`, execute
    /// over the encoded tables.
    ///
    /// The `RA⁺` fragment (+ trailing `ORDER BY`/`LIMIT`) is supported;
    /// `DISTINCT` and aggregation over UA-DBs are future work in the paper
    /// and rejected here.
    pub fn query_ua(&self, sql: &str) -> Result<UaResult, EngineError> {
        let _trace = self.trace_query();
        let plan = self.plan_sql(sql, &UaResolver)?;
        self.execute_ua_plan(&plan)
    }

    /// Run an already-planned `RA⁺` query under UA semantics.
    pub fn query_ua_ra(&self, query: &ua_data::RaExpr) -> Result<UaResult, EngineError> {
        let _trace = self.trace_query();
        self.execute_ua_plan(&Plan::from_ra(query))
    }

    /// Explain a UA query: the user plan, the `⟦·⟧_UA`-rewritten plan, and
    /// the optimized physical plan the row engine executes (the
    /// middleware's "show rewritten SQL", plus `EXPLAIN`).
    pub fn explain_ua(&self, sql: &str) -> Result<String, EngineError> {
        let plan = self.plan_sql(sql, &UaResolver)?;
        let user_ra = plan
            .to_ra()
            .ok_or_else(|| EngineError::Sql("EXPLAIN UA supports the RA⁺ fragment".into()))?;
        let ra = self.reorder_user_ra(user_ra.clone());
        let lookup = |name: &str| self.catalog.schema_of(name);
        let rewritten = rewrite_ua(&ra, &lookup)?;
        let physical = self.optimize_plan(Plan::from_ra(&rewritten));
        Ok(format!(
            "user plan:\n  {user_ra}\nrewritten (⟦·⟧_UA):\n  {rewritten}\nphysical (optimized):\n  {physical}"
        ))
    }

    /// Explain a deterministic query: the planner's plan and the optimized
    /// physical plan that actually executes.
    pub fn explain_det(&self, sql: &str) -> Result<String, EngineError> {
        let plan = self.plan_sql(sql, &UaResolver)?;
        let physical = self.optimize_plan(plan.clone());
        Ok(format!(
            "plan:\n  {plan}\nphysical (optimized):\n  {physical}"
        ))
    }

    fn execute_ua_plan(&self, plan: &Plan) -> Result<UaResult, EngineError> {
        // Peel trailing Sort/Limit — they commute with the rewriting (they
        // only reorder/truncate encoded rows).
        let mut wrappers = Vec::new();
        let mut inner = plan;
        loop {
            match inner {
                Plan::Sort { input, keys } => {
                    // The marker is engine bookkeeping, not user schema:
                    // ordering by it is rejected uniformly (it binds over
                    // the *encoded* result in the row path but not over the
                    // vectorized path's marker-stripped batches, and both
                    // engines must fail identically — mirroring the
                    // selection/projection/join rejection in `rewrite_ua`).
                    for (key, _) in keys {
                        if ua_core::expr_mentions_marker(key) {
                            return Err(EngineError::Schema(
                                ua_data::schema::SchemaError::AmbiguousColumn(
                                    UA_LABEL_COLUMN.to_string(),
                                ),
                            ));
                        }
                    }
                    wrappers.push(Wrapper::Sort(keys.clone()));
                    inner = input;
                }
                Plan::Limit { input, limit } => {
                    wrappers.push(Wrapper::Limit(*limit));
                    inner = input;
                }
                _ => break,
            }
        }
        let ra = match inner.to_ra() {
            Some(ra) => ra,
            // `to_ra` covers exactly the RA⁺ fragment; EXCEPT and outer
            // joins step outside it but stay UA-sound with the labeling
            // rules of `execute_ua_negation`.
            None if plan_contains_negation(inner) => {
                return self.execute_ua_negation(inner, wrappers)
            }
            None => return Err(EngineError::Sql(UA_FRAGMENT_ERROR.into())),
        };
        let ra = self.reorder_user_ra(ra);
        // Both branches below run the SAME optimizer pipeline
        // (`optimize_plan`) on the plan their executor receives, before
        // dispatch — the uniformity the differential harness asserts.
        if self.exec_mode() == ExecMode::Vectorized {
            // The vectorized engine propagates labels itself (bitmaps, per
            // the ⟦·⟧_UA rules), so it takes the *user* query's (optimized)
            // physical plan, not a rewritten one. Trailing Sort/Limit/TopK
            // ride along and execute natively over the encoded batches
            // (columnar sort with the marker as final tie-break, bounded
            // Top-K heap) — no row-engine fallback.
            let user_plan = ua_obs::trace_scope("optimize", "session", || {
                self.rewrap(self.optimize_plan_stripped(Plan::from_ra(&ra)), wrappers)
            });
            let table = self.dispatch(&user_plan, Semantics::Ua)?;
            return Ok(UaResult { table });
        }
        let lookup = |name: &str| self.catalog.schema_of(name);
        let rewritten = ua_obs::trace_scope("rewrite", "session", || rewrite_ua(&ra, &lookup))?;
        let rewritten_plan = ua_obs::trace_scope("optimize", "session", || {
            self.rewrap(self.optimize_plan(Plan::from_ra(&rewritten)), wrappers)
        });
        let table = self.dispatch(&rewritten_plan, Semantics::Ua)?;
        Ok(UaResult { table })
    }

    /// Re-apply peeled Sort/Limit wrappers (innermost last) over an
    /// optimized core plan, fusing `Limit(Sort(..))` into `TopK` exactly
    /// like the deterministic pipeline when the optimizer is on.
    fn rewrap(&self, mut plan: Plan, wrappers: Vec<Wrapper>) -> Plan {
        for w in wrappers.into_iter().rev() {
            plan = match w {
                Wrapper::Sort(keys) => Plan::Sort {
                    input: Box::new(plan),
                    keys,
                },
                Wrapper::Limit(limit) => Plan::Limit {
                    input: Box::new(plan),
                    limit,
                },
            };
        }
        if self.optimizer_enabled() {
            plan = ua_plan::optimize::fuse_topk(plan);
        }
        plan
    }

    /// Execute a UA plan whose core contains negation nodes (EXCEPT /
    /// outer join), which `⟦·⟧_UA` proper does not cover.
    ///
    /// The vectorized engine propagates labels natively through every
    /// operator, so it takes the user plan whole — join reordering stays
    /// the single pre-dispatch pass, with the negation nodes acting as
    /// reorder barriers. The row engine has no label-carrying operators;
    /// instead the plan executes bottom-up over *encoded* relations:
    /// maximal RA⁺ regions go through the usual rewriting, and each
    /// negation node combines its children's encoded results directly
    /// (see [`ua_except_encoded`] / [`ua_outer_join_encoded`]),
    /// materialized as temporary catalog tables so enclosing RA⁺ regions
    /// can keep treating them as pre-encoded UA sources.
    fn execute_ua_negation(
        &self,
        inner: &Plan,
        wrappers: Vec<Wrapper>,
    ) -> Result<UaResult, EngineError> {
        let reordered = if self.optimizer_enabled() && self.reorder_joins_enabled() {
            ua_plan::optimize::reorder_joins_ua(inner.clone(), &self.catalog)
        } else {
            inner.clone()
        };
        if self.exec_mode() == ExecMode::Vectorized {
            let user_plan = self.rewrap(self.optimize_plan_stripped(reordered), wrappers);
            let table = self.dispatch(&user_plan, Semantics::Ua)?;
            return Ok(UaResult { table });
        }
        let mut temps = TempTables {
            catalog: &self.catalog,
            names: Vec::new(),
        };
        let result = self.execute_ua_encoded(&reordered, &mut temps);
        drop(temps);
        let mut table = result?;
        // The peeled wrappers apply directly to the materialized encoded
        // result: sorting encoded rows tie-breaks on the full row with the
        // marker last — the same order the vectorized columnar sort
        // produces.
        for w in wrappers.into_iter().rev() {
            table = match w {
                Wrapper::Sort(keys) => ua_plan::exec::sort_table(&table, &keys)?,
                Wrapper::Limit(limit) => ua_plan::exec::limit_table(&table, limit),
            };
        }
        Ok(UaResult { table })
    }

    /// Row-engine execution of a UA plan (possibly containing negation
    /// nodes) over encoded relations; returns the encoded result (marker
    /// column last).
    fn execute_ua_encoded(
        &self,
        plan: &Plan,
        temps: &mut TempTables<'_>,
    ) -> Result<Table, EngineError> {
        let stripped = self.strip_negations(plan, temps)?;
        let ra = stripped
            .to_ra()
            .ok_or_else(|| EngineError::Sql(UA_FRAGMENT_ERROR.into()))?;
        let lookup = |name: &str| self.catalog.schema_of(name);
        let rewritten = rewrite_ua(&ra, &lookup)?;
        let physical = self.optimize_plan(Plan::from_ra(&rewritten));
        execute(&physical, &self.catalog)
    }

    /// Replace every maximal negation subtree of `plan` with a scan of its
    /// materialized encoded result, leaving an RA⁺ plan for `rewrite_ua`.
    fn strip_negations(
        &self,
        plan: &Plan,
        temps: &mut TempTables<'_>,
    ) -> Result<Plan, EngineError> {
        if plan.to_ra().is_some() {
            // A pure RA⁺ region: leave it to the rewriting, which keeps
            // per-tuple label propagation exact (and lets the optimizer
            // see the whole region at once).
            return Ok(plan.clone());
        }
        Ok(match plan {
            Plan::Except { left, right, all } => {
                let l = self.execute_ua_encoded(left, temps)?;
                let r = self.execute_ua_encoded(right, temps)?;
                Plan::Scan(temps.register(ua_except_encoded(&l, &r, *all)?))
            }
            Plan::OuterJoin {
                left,
                right,
                predicate,
                kind,
            } => {
                let l = self.execute_ua_encoded(left, temps)?;
                let r = self.execute_ua_encoded(right, temps)?;
                Plan::Scan(temps.register(ua_outer_join_encoded(
                    &l,
                    &r,
                    predicate.as_ref(),
                    *kind,
                )?))
            }
            Plan::Alias { input, name } => Plan::Alias {
                input: Box::new(self.strip_negations(input, temps)?),
                name: name.clone(),
            },
            Plan::Filter { input, predicate } => Plan::Filter {
                input: Box::new(self.strip_negations(input, temps)?),
                predicate: predicate.clone(),
            },
            Plan::Map { input, columns } => Plan::Map {
                input: Box::new(self.strip_negations(input, temps)?),
                columns: columns.clone(),
            },
            Plan::Join {
                left,
                right,
                predicate,
            } => Plan::Join {
                left: Box::new(self.strip_negations(left, temps)?),
                right: Box::new(self.strip_negations(right, temps)?),
                predicate: predicate.clone(),
            },
            Plan::UnionAll { left, right } => Plan::UnionAll {
                left: Box::new(self.strip_negations(left, temps)?),
                right: Box::new(self.strip_negations(right, temps)?),
            },
            _ => return Err(EngineError::Sql(UA_FRAGMENT_ERROR.into())),
        })
    }

    /// `EXPLAIN ANALYZE` for deterministic queries: run `sql` with stats
    /// collection on (whatever the session default is — the previous
    /// setting is restored afterwards) and render [`Self::explain_det`]'s
    /// plans followed by the executed, annotated operator tree with
    /// per-operator row counts, wall times and the planner's est-vs-actual
    /// cardinalities. The query really executes; its result is discarded.
    pub fn explain_analyze_det(&self, sql: &str) -> Result<String, EngineError> {
        let plans = self.explain_det(sql)?;
        let stats = self.run_analyzed(|| self.query_det(sql).map(|_| ()))?;
        Ok(format!("{plans}\n{}", render_analysis(&stats)))
    }

    /// `EXPLAIN ANALYZE` for UA queries: [`Self::explain_ua`]'s plans plus
    /// the executed operator tree. Under `ExecMode::Row` the tree is the
    /// `⟦·⟧_UA`-rewritten physical plan's (what actually ran); under
    /// `ExecMode::Vectorized` it is the pipeline structure over the user
    /// plan, with morsel-pool totals appended.
    pub fn explain_analyze_ua(&self, sql: &str) -> Result<String, EngineError> {
        let plans = self.explain_ua(sql)?;
        let stats = self.run_analyzed(|| self.query_ua(sql).map(|_| ()))?;
        Ok(format!("{plans}\n{}", render_analysis(&stats)))
    }

    /// Run `f` with stats collection forced on, restore the previous
    /// setting, and return the collected stats.
    pub(crate) fn run_analyzed(
        &self,
        f: impl FnOnce() -> Result<(), EngineError>,
    ) -> Result<ua_obs::QueryStats, EngineError> {
        let was = self.stats_enabled();
        self.set_stats_enabled(true);
        let result = f();
        self.set_stats_enabled(was);
        result?;
        self.last_query_stats()
            .ok_or_else(|| EngineError::Sql("EXPLAIN ANALYZE: execution produced no stats".into()))
    }
}

/// The execution section `EXPLAIN ANALYZE` appends below the plan text:
/// a header naming the engine/semantics, then the annotated operator tree
/// (indented to match the plan sections above it).
pub(crate) fn render_analysis(stats: &ua_obs::QueryStats) -> String {
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
/// collide), the table and the annotation's shape.
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
    if catalog.get(&derived).is_none() {
        let base = catalog
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        catalog.register(derived.clone(), encode(&base)?);
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
