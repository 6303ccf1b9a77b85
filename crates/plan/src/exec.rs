//! The row-at-a-time executor.
//!
//! Evaluates [`Plan`]s against a [`Catalog`], materializing each operator's
//! output. Every det / UA join — inner, θ, hash and outer, `NOT IN`
//! included — is one pair loop, `join_rows`, over the candidates its
//! [`JoinSpec`] names: a hash table on the equi-keys the K-relation
//! evaluator extracts too, every build row when there are none. The
//! vectorized engine's `ProbeState` takes the same spec, so both engines
//! try the same pairs in the same order. `WHERE` follows
//! SQL semantics: only rows whose predicate is *certainly* true survive
//! (`Unknown` rejects, matching `θ(t) ∈ {0_K, 1_K}` of the paper).

use crate::plan::{AggExpr, AggFunc, OuterKind, Plan, SortOrder};
use crate::stats::Tracer;
use crate::storage::{Catalog, Table};
use std::fmt;
use ua_data::algebra::{candidate_keys, extract_equi_keys, merge_ascending, EquiKey, JoinKeys};
use ua_data::expr::{Expr, ExprError};
use ua_data::schema::{Schema, SchemaError};
use ua_data::tuple::Tuple;
use ua_data::value::{Value, F64};
use ua_data::FxHashMap;
use ua_obs::Stopwatch;

/// Errors raised during plan execution.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// A scanned table is not in the catalog.
    UnknownTable(String),
    /// Schema resolution failed.
    Schema(SchemaError),
    /// Expression binding or evaluation failed.
    Expr(ExprError),
    /// SQL-level failure (parser/planner).
    Sql(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            EngineError::Schema(e) => write!(f, "{e}"),
            EngineError::Expr(e) => write!(f, "{e}"),
            EngineError::Sql(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SchemaError> for EngineError {
    fn from(e: SchemaError) -> Self {
        EngineError::Schema(e)
    }
}

impl From<ExprError> for EngineError {
    fn from(e: ExprError) -> Self {
        EngineError::Expr(e)
    }
}

impl From<ua_data::algebra::RaError> for EngineError {
    fn from(e: ua_data::algebra::RaError) -> Self {
        match e {
            ua_data::algebra::RaError::UnknownTable(t) => EngineError::UnknownTable(t),
            ua_data::algebra::RaError::Schema(s) => EngineError::Schema(s),
            ua_data::algebra::RaError::Expr(x) => EngineError::Expr(x),
        }
    }
}

/// The error both executors raise for UA queries outside the supported
/// fragment — one string so the row and vectorized paths fail identically
/// (the differential harness compares error messages).
pub const UA_FRAGMENT_ERROR: &str = "UA queries support the relational algebra \
     (selection, projection, join, UNION ALL, EXCEPT, LEFT/RIGHT OUTER JOIN) \
     plus trailing ORDER BY/LIMIT; DISTINCT and aggregation are not closed \
     under UA semantics";

/// Execute `plan` against `catalog`, materializing the result.
pub fn execute(plan: &Plan, catalog: &Catalog) -> Result<Table, EngineError> {
    execute_traced(plan, catalog, &mut Tracer::off())
}

/// [`execute`] with a span tracer threaded through the recursion: each node
/// opens a span (stamped with the planner's cardinality estimate), executes,
/// and closes it with actual rows and wall time. A no-op for
/// [`Tracer::off`]; results are byte-identical either way. On error each
/// open span is closed with an `error=1` marker, so the tracer still
/// finishes into a (partial) tree. When query tracing is armed
/// (`ua_obs::trace_start`), each node additionally brackets an `operator`
/// trace span — independent of the stats tracer.
pub(crate) fn execute_traced(
    plan: &Plan,
    catalog: &Catalog,
    tracer: &mut Tracer<'_>,
) -> Result<Table, EngineError> {
    let trace_name = ua_obs::trace_active().then(|| crate::stats::node_label(plan).0);
    if let Some(name) = &trace_name {
        ua_obs::trace_begin(name, "operator");
    }
    tracer.enter(plan);
    let result = match execute_node(plan, catalog, tracer) {
        Ok(t) => {
            ua_certainty_extras(&t, tracer);
            tracer.exit(t.len());
            Ok(t)
        }
        Err(e) => {
            tracer.abandon();
            Err(e)
        }
    };
    if let Some(name) = &trace_name {
        ua_obs::trace_end(name, "operator");
    }
    result
}

/// Record the UA certainty profile on the current span: when the output
/// carries the UA certainty marker (`ua_c` in last position), count the
/// rows labeled certain. No-op for disabled tracers and non-UA tables.
fn ua_certainty_extras(t: &Table, tracer: &mut Tracer<'_>) {
    if !tracer.enabled() {
        return;
    }
    let marker_last = t
        .schema()
        .columns()
        .last()
        .is_some_and(|c| c.name.eq_ignore_ascii_case(ua_core::UA_LABEL_COLUMN));
    if !marker_last {
        return;
    }
    let last = t.schema().arity() - 1;
    let certain = t
        .rows()
        .iter()
        .filter(|row| matches!(row.get(last), Some(Value::Int(n)) if *n >= 1))
        .count() as u64;
    tracer.extra("certain_rows", certain);
}

fn execute_node(
    plan: &Plan,
    catalog: &Catalog,
    tracer: &mut Tracer<'_>,
) -> Result<Table, EngineError> {
    match plan {
        Plan::Scan(name) => catalog
            .get(name)
            .map(|t| (*t).clone())
            .ok_or_else(|| EngineError::UnknownTable(name.clone())),
        Plan::Alias { input, name } => {
            let t = execute_traced(input, catalog, tracer)?;
            let schema = t.schema().with_qualifier(name);
            Ok(t.with_schema(schema))
        }
        Plan::Filter { input, predicate } => {
            let t = execute_traced(input, catalog, tracer)?;
            let bound = predicate.bind(t.schema())?;
            let mut out = Table::new(t.schema().clone());
            for row in t.rows() {
                if bound.holds(row)? {
                    out.push(row.clone());
                }
            }
            Ok(out)
        }
        Plan::Map { input, columns } => {
            // Fuse projection into a child join: real engines pipeline, and
            // the UA rewriting inserts exactly this Map-over-Join shape
            // (Figure 9's join rule) — without fusion it would pay a full
            // extra materialization pass over the join result.
            if let Plan::Join { left, right, .. } | Plan::HashJoin { left, right, .. } =
                input.as_ref()
            {
                // The fused join still gets its own span (between the Map
                // span and the input spans), with joined-row cardinality
                // counted as rows stream through.
                tracer.enter(input);
                let l = execute_traced(left, catalog, tracer)?;
                let r = execute_traced(right, catalog, tracer)?;
                let join_schema = l.schema().concat(r.schema());
                let bound: Vec<Expr> = columns
                    .iter()
                    .map(|c| c.expr.bind(&join_schema))
                    .collect::<Result<_, _>>()?;
                let out_schema = Schema::new(columns.iter().map(|c| c.column.clone()).collect());
                let mut out = Table::new(out_schema);
                let mut joined_rows: usize = 0;
                let mut meter = tracer.enabled().then(JoinMeter::default);
                let spec = JoinSpec::bind(input, l.schema(), r.schema())?;
                join_rows(&l, &r, &spec, meter.as_mut(), &mut |joined| {
                    joined_rows += 1;
                    let mapped: Tuple = bound
                        .iter()
                        .map(|e| e.eval(&joined))
                        .collect::<Result<_, _>>()?;
                    out.push(mapped);
                    Ok(())
                })?;
                join_span_extras(input, &l, &r, meter.as_ref(), tracer);
                tracer.extra("fused_into_map", 1);
                tracer.exit(joined_rows);
                return Ok(out);
            }
            let t = execute_traced(input, catalog, tracer)?;
            let bound: Vec<Expr> = columns
                .iter()
                .map(|c| c.expr.bind(t.schema()))
                .collect::<Result<_, _>>()?;
            let schema = Schema::new(columns.iter().map(|c| c.column.clone()).collect());
            let mut out = Table::new(schema);
            for row in t.rows() {
                let mapped: Tuple = bound
                    .iter()
                    .map(|e| e.eval(row))
                    .collect::<Result<_, _>>()?;
                out.push(mapped);
            }
            Ok(out)
        }
        Plan::Join { left, right, .. }
        | Plan::HashJoin { left, right, .. }
        | Plan::OuterJoin { left, right, .. } => {
            let l = execute_traced(left, catalog, tracer)?;
            let r = execute_traced(right, catalog, tracer)?;
            let spec = JoinSpec::bind(plan, l.schema(), r.schema())?;
            let mut out = Table::new(spec.schema.clone());
            // An outer join reports no build figures.
            let metered = tracer.enabled() && !matches!(plan, Plan::OuterJoin { .. });
            let mut meter = metered.then(JoinMeter::default);
            join_rows(&l, &r, &spec, meter.as_mut(), &mut |joined| {
                out.push(joined);
                Ok(())
            })?;
            join_span_extras(plan, &l, &r, meter.as_ref(), tracer);
            Ok(out)
        }
        Plan::UnionAll { left, right } => {
            let l = execute_traced(left, catalog, tracer)?;
            let r = execute_traced(right, catalog, tracer)?;
            l.schema().check_union_compatible(r.schema())?;
            let mut out = l.clone();
            for row in r.rows() {
                out.push(row.clone());
            }
            Ok(out)
        }
        Plan::Distinct { input } => {
            let t = execute_traced(input, catalog, tracer)?;
            let mut mem = tracer.enabled().then(ua_obs::MemTracker::new);
            let mut seen: ua_data::FxHashSet<Tuple> = ua_data::FxHashSet::default();
            let mut out = Table::new(t.schema().clone());
            for row in t.rows() {
                if seen.insert(row.clone()) {
                    if let Some(mem) = &mut mem {
                        mem.alloc(crate::stats::tuple_mem_bytes(row));
                    }
                    out.push(row.clone());
                }
            }
            if let Some(mem) = &mem {
                tracer.extra("mem_bytes", mem.peak());
            }
            Ok(out)
        }
        Plan::Except { left, right, all } => {
            let l = execute_traced(left, catalog, tracer)?;
            let r = execute_traced(right, catalog, tracer)?;
            l.schema().check_union_compatible(r.schema())?;
            let mut mem_bytes = 0u64;
            let out =
                except_table_metered(&l, &r, *all, tracer.enabled().then_some(&mut mem_bytes));
            if tracer.enabled() {
                tracer.extra("mem_bytes", mem_bytes);
            }
            Ok(out)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
        } => aggregate(input, group_by, aggregates, catalog, tracer),
        Plan::Sort { input, keys } => {
            let t = execute_traced(input, catalog, tracer)?;
            let mut mem_bytes = 0u64;
            let out = sort_table_metered(&t, keys, tracer.enabled().then_some(&mut mem_bytes))?;
            if tracer.enabled() {
                tracer.extra("mem_bytes", mem_bytes);
            }
            Ok(out)
        }
        Plan::Limit { input, limit } => {
            let t = execute_traced(input, catalog, tracer)?;
            Ok(limit_table(&t, *limit))
        }
        Plan::TopK { input, keys, limit } => {
            let t = execute_traced(input, catalog, tracer)?;
            let mut mem_bytes = 0u64;
            let out =
                top_k_table_metered(&t, keys, *limit, tracer.enabled().then_some(&mut mem_bytes))?;
            if tracer.enabled() {
                tracer.extra("mem_bytes", mem_bytes);
            }
            Ok(out)
        }
    }
}

/// Join instrumentation collected while streaming a join node: the build
/// phase's wall time and the build hash table's estimated logical bytes
/// ([`crate::stats::tuple_mem_bytes`] per distinct key plus a slot per
/// row). Only allocated when the tracer collects.
#[derive(Default)]
pub(crate) struct JoinMeter {
    build_ns: u64,
    build_bytes: u64,
}

/// Record the hash-join build/probe split and build-table memory on the
/// current span (no-op for disabled tracers; a keyless `Join` builds no
/// table and reports nothing).
fn join_span_extras(
    plan: &Plan,
    l: &Table,
    r: &Table,
    meter: Option<&JoinMeter>,
    tracer: &mut Tracer<'_>,
) {
    let Some(meter) = meter else { return };
    match plan {
        Plan::HashJoin { build_left, .. } => {
            let (build, probe) = if *build_left { (l, r) } else { (r, l) };
            tracer.extra("build_rows", build.len() as u64);
            tracer.extra("probe_rows", probe.len() as u64);
            tracer.extra("build_ns", meter.build_ns);
            tracer.extra("mem_bytes", meter.build_bytes);
        }
        Plan::Join { .. } if meter.build_bytes > 0 => {
            tracer.extra("mem_bytes", meter.build_bytes);
        }
        _ => {}
    }
}

/// The one sort-ordering definition both `sort_table` and `top_k_table`
/// (and, mirrored over columns, the vectorized operators) share: decorated
/// keys outermost-first under each key's direction, then the full row as
/// the deterministic tie-break. Anything that changes this ordering
/// changes `Limit(Sort(..))` and `TopK` together, never one of them.
fn decorated_row_cmp(
    bound: &[(Expr, SortOrder)],
    ka: &[Value],
    ra: &Tuple,
    kb: &[Value],
    rb: &Tuple,
) -> std::cmp::Ordering {
    for ((va, vb), (_, order)) in ka.iter().zip(kb).zip(bound) {
        let ord = va.cmp(vb);
        let ord = match order {
            SortOrder::Asc => ord,
            SortOrder::Desc => ord.reverse(),
        };
        if !ord.is_eq() {
            return ord;
        }
    }
    ra.cmp(rb)
}

/// Sort a materialized table by `keys` (outermost first), with a
/// deterministic full-row tie-break. Shared by both executors: the
/// vectorized engine materializes before sorting too, so the operators stay
/// byte-for-byte compatible.
pub fn sort_table(t: &Table, keys: &[(Expr, SortOrder)]) -> Result<Table, EngineError> {
    sort_table_metered(t, keys, None)
}

/// [`sort_table`] with optional memory accounting: when `mem_bytes` is
/// given, the decorated sort buffer's estimated logical bytes (keys +
/// rows) are tracked through [`ua_obs::MemTracker`] and the peak written
/// back.
pub(crate) fn sort_table_metered(
    t: &Table,
    keys: &[(Expr, SortOrder)],
    mem_bytes: Option<&mut u64>,
) -> Result<Table, EngineError> {
    let bound: Vec<(Expr, SortOrder)> = keys
        .iter()
        .map(|(e, o)| Ok((e.bind(t.schema())?, *o)))
        .collect::<Result<_, EngineError>>()?;
    let mut decorated: Vec<(Vec<Value>, Tuple)> = t
        .rows()
        .iter()
        .map(|row| {
            let key: Vec<Value> = bound
                .iter()
                .map(|(e, _)| e.eval(row))
                .collect::<Result<_, _>>()?;
            Ok((key, row.clone()))
        })
        .collect::<Result<_, EngineError>>()?;
    let mut mem = mem_bytes.map(|slot| (slot, ua_obs::MemTracker::new()));
    if let Some((_, tracker)) = &mut mem {
        let bytes: u64 = decorated
            .iter()
            .map(|(key, row)| sort_entry_bytes(key, row))
            .sum();
        tracker.alloc(bytes);
    }
    decorated.sort_by(|(ka, ra), (kb, rb)| decorated_row_cmp(&bound, ka, ra, kb, rb));
    let out = Table::from_rows(
        t.schema().clone(),
        decorated.into_iter().map(|(_, row)| row).collect(),
    );
    if let Some((slot, tracker)) = mem {
        *slot = tracker.peak();
    }
    Ok(out)
}

/// Estimated logical bytes of one decorated sort/Top-K buffer entry.
fn sort_entry_bytes(key: &[Value], row: &Tuple) -> u64 {
    8 + key.iter().map(crate::stats::value_mem_bytes).sum::<u64>()
        + crate::stats::tuple_mem_bytes(row)
}

/// The first `k` rows of `sort_table(t, keys)` without sorting the whole
/// table: a bounded buffer of the `k` best rows (kept ordered, with a
/// cheap "worse than the current k-th" rejection test for the common case)
/// replaces the full decorate-sort pass. Ordering is `decorated_row_cmp`
/// — the same comparison `sort_table` sorts with.
pub fn top_k_table(t: &Table, keys: &[(Expr, SortOrder)], k: usize) -> Result<Table, EngineError> {
    top_k_table_metered(t, keys, k, None)
}

/// [`top_k_table`] with optional memory accounting over the bounded
/// buffer: entries alloc on insert and free on eviction, so the reported
/// peak reflects the k-row working set, not the input size.
pub(crate) fn top_k_table_metered(
    t: &Table,
    keys: &[(Expr, SortOrder)],
    k: usize,
    mem_bytes: Option<&mut u64>,
) -> Result<Table, EngineError> {
    let bound: Vec<(Expr, SortOrder)> = keys
        .iter()
        .map(|(e, o)| Ok((e.bind(t.schema())?, *o)))
        .collect::<Result<_, EngineError>>()?;
    let cmp = |ka: &[Value], ra: &Tuple, kb: &[Value], rb: &Tuple| {
        decorated_row_cmp(&bound, ka, ra, kb, rb)
    };
    let mut mem = mem_bytes.map(|slot| (slot, ua_obs::MemTracker::new()));
    let mut top: Vec<(Vec<Value>, Tuple)> = Vec::with_capacity(k.min(t.len()) + 1);
    for row in t.rows() {
        let key: Vec<Value> = bound
            .iter()
            .map(|(e, _)| e.eval(row))
            .collect::<Result<_, _>>()?;
        if k == 0 {
            continue; // keys still evaluate row by row, like the full sort
        }
        if top.len() == k {
            let (wk, wr) = top.last().expect("k > 0");
            if cmp(&key, row, wk, wr) != std::cmp::Ordering::Less {
                continue;
            }
        }
        let pos = top
            .binary_search_by(|(ek, er)| cmp(ek, er, &key, row))
            .unwrap_or_else(|p| p);
        if let Some((_, tracker)) = &mut mem {
            tracker.alloc(sort_entry_bytes(&key, row));
        }
        top.insert(pos, (key, row.clone()));
        if top.len() > k {
            let (ek, er) = top.last().expect("over capacity");
            if let Some((_, tracker)) = &mut mem {
                tracker.free(sort_entry_bytes(ek, er));
            }
            top.truncate(k);
        }
    }
    let out = Table::from_rows(
        t.schema().clone(),
        top.into_iter().map(|(_, row)| row).collect(),
    );
    if let Some((slot, tracker)) = mem {
        *slot = tracker.peak();
    }
    Ok(out)
}

/// The first `limit` rows of a materialized table.
pub fn limit_table(t: &Table, limit: usize) -> Table {
    Table::from_rows(
        t.schema().clone(),
        t.rows().iter().take(limit).cloned().collect(),
    )
}

/// Bag difference. Tuples match under IS-NOT-DISTINCT semantics: keys are
/// coercion-normalized ([`Value::join_key`]) and NULL matches NULL — like
/// `DISTINCT`/`GROUP BY` keys, *unlike* join equality. `all = true` is bag
/// monus with earliest-first removal: each right occurrence cancels one
/// left occurrence in left scan order. `all = false` keeps the first
/// occurrence of each unmatched left tuple, in order of first occurrence.
/// Shared contract for both executors.
pub fn except_table(l: &Table, r: &Table, all: bool) -> Table {
    except_table_metered(l, r, all, None)
}

/// [`except_table`] with optional memory accounting over the budget map
/// (and, for `EXCEPT` without `ALL`, the seen set); the peak estimated
/// logical bytes are written back through `mem_bytes`.
pub(crate) fn except_table_metered(
    l: &Table,
    r: &Table,
    all: bool,
    mem_bytes: Option<&mut u64>,
) -> Table {
    let key_of =
        |row: &Tuple| -> Tuple { row.values().iter().map(|v| v.clone().join_key()).collect() };
    let mut mem = mem_bytes.map(|slot| (slot, ua_obs::MemTracker::new()));
    let mut budget: FxHashMap<Tuple, u64> = FxHashMap::default();
    for row in r.rows() {
        let key = key_of(row);
        if let Some((_, tracker)) = &mut mem {
            if !budget.contains_key(&key) {
                tracker.alloc(crate::stats::tuple_mem_bytes(&key) + 8);
            }
        }
        *budget.entry(key).or_insert(0) += 1;
    }
    let mut out = Table::new(l.schema().clone());
    if all {
        for row in l.rows() {
            match budget.get_mut(&key_of(row)) {
                Some(n) if *n > 0 => *n -= 1,
                _ => out.push(row.clone()),
            }
        }
    } else {
        let mut seen: ua_data::FxHashSet<Tuple> = ua_data::FxHashSet::default();
        for row in l.rows() {
            let key = key_of(row);
            if budget.contains_key(&key) {
                continue;
            }
            if let Some((_, tracker)) = &mut mem {
                if !seen.contains(&key) {
                    tracker.alloc(crate::stats::tuple_mem_bytes(&key));
                }
            }
            if seen.insert(key) {
                out.push(row.clone());
            }
        }
    }
    if let Some((slot, tracker)) = mem {
        *slot = tracker.peak();
    }
    out
}

/// A det / UA join node bound over its inputs: how its pairs are
/// generated. `keys` holds the candidate keys — each side of an
/// [`ua_data::algebra::EquiKey`] evaluates on its own input — and the
/// residual over `schema`, the output's `left ++ right`; `build_left`
/// names the input the hash
/// table is built on (the other one probes and drives output order);
/// `pad` makes a probe row without a surviving candidate emit one
/// NULL-padded row. Both engines' one pair loop take it — this crate's
/// row loop and the vectorized `ProbeState` — so they try the same pairs
/// in the same order.
pub struct JoinSpec {
    /// Candidate keys, residual and the null-aware flag.
    pub keys: JoinKeys,
    /// The left input builds, the right one probes.
    pub build_left: bool,
    /// Probe misses emit a NULL-padded row (outer joins).
    pub pad: bool,
    /// The joined schema, `left ++ right` whichever side builds.
    pub schema: Schema,
}

impl JoinSpec {
    /// Bind join node `plan` over its inputs' schemas. An inner
    /// [`Plan::Join`] hashes on its predicate's equi-keys
    /// ([`extract_equi_keys`]) with the right side building; a
    /// [`Plan::HashJoin`] on its own keys and build side; a
    /// [`Plan::OuterJoin`] on [`candidate_keys`] — `NOT IN`'s null-aware
    /// key included — with the non-preserved side building, padding on.
    /// Without keys the bound predicate as written is the residual.
    pub fn bind(plan: &Plan, left: &Schema, right: &Schema) -> Result<JoinSpec, EngineError> {
        let schema = left.concat(right);
        let on = |predicate: &Option<Expr>, split: fn(&Expr, usize) -> JoinKeys| {
            let Some(predicate) = predicate else {
                return Ok::<_, EngineError>(JoinKeys::default());
            };
            let bound = predicate.bind(&schema)?;
            let keys = split(&bound, left.arity());
            Ok(if keys.keys.is_empty() {
                JoinKeys {
                    residual: vec![bound],
                    ..keys
                }
            } else {
                keys
            })
        };
        match plan {
            Plan::Join { predicate, .. } => Ok(JoinSpec {
                keys: on(predicate, |p, arity| {
                    let (keys, residual) = extract_equi_keys(p, arity);
                    JoinKeys {
                        keys,
                        residual,
                        null_aware: false,
                    }
                })?,
                build_left: false,
                pad: false,
                schema,
            }),
            Plan::HashJoin {
                keys,
                residual,
                build_left,
                ..
            } => {
                // Every left key binds before any right key, then the residual.
                let bind = |side: fn(&(Expr, Expr)) -> &Expr, schema| {
                    keys.iter()
                        .map(|k| side(k).bind(schema))
                        .collect::<Result<Vec<_>, _>>()
                };
                let (lk, rk) = (bind(|k| &k.0, left)?, bind(|k| &k.1, right)?);
                let residual = residual.as_ref().map(|e| e.bind(&schema)).transpose()?;
                Ok(JoinSpec {
                    keys: JoinKeys {
                        keys: lk
                            .into_iter()
                            .zip(rk)
                            .map(|(left, right)| EquiKey { left, right })
                            .collect(),
                        residual: residual.into_iter().collect(),
                        null_aware: false,
                    },
                    build_left: *build_left,
                    pad: false,
                    schema,
                })
            }
            Plan::OuterJoin {
                predicate, kind, ..
            } => Ok(JoinSpec {
                keys: on(predicate, candidate_keys)?,
                build_left: *kind == OuterKind::Right,
                pad: true,
                schema,
            }),
            other => Err(EngineError::Sql(format!("not a join node: {other}"))),
        }
    }
}

/// The row engine's one det / UA ⋈ — inner, θ, hash and outer joins,
/// `NOT IN` included. For each probe row in scan order it emits the
/// surviving build candidates in build-scan order, then, under
/// `spec.pad`, one NULL-padded row if none survived; columns are always
/// `left ++ right`. Candidates come from a hash table on the keys, the
/// residual decides among them. Join equality follows SQL: a key holding
/// `NULL` meets no row. `NOT IN`'s null-aware key differs in one way: an
/// unknown key meets every row of the other side (unknown build keys
/// join every bucket, merged in build-scan order; an unknown probe key
/// takes every build row). With no keys every build row is a candidate.
/// Build keys evaluate before any probe row; `meter` times the build and
/// sizes its table.
fn join_rows(
    l: &Table,
    r: &Table,
    spec: &JoinSpec,
    meter: Option<&mut JoinMeter>,
    on_row: &mut dyn FnMut(Tuple) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    let JoinSpec {
        keys: JoinKeys {
            keys,
            residual,
            null_aware,
        },
        build_left,
        pad,
        ..
    } = spec;
    let (build, probe) = if *build_left { (l, r) } else { (r, l) };
    let (build_exprs, probe_exprs): (Vec<&Expr>, Vec<&Expr>) = if *build_left {
        keys.iter().map(|k| (&k.left, &k.right)).unzip()
    } else {
        keys.iter().map(|k| (&k.right, &k.left)).unzip()
    };
    let residual = (!residual.is_empty()).then(|| Expr::conjunction(residual.iter().cloned()));
    let key_of = |exprs: &[&Expr], row: &Tuple| -> Result<Tuple, EngineError> {
        Ok(exprs
            .iter()
            .map(|e| e.eval(row).map(Value::join_key))
            .collect::<Result<_, _>>()?)
    };
    // How a key that cannot be hashed is treated: the null-aware predicate
    // holds for any unknown key (`IS NULL` is true of labeled nulls too),
    // an equality for no NULL key (labeled nulls equal themselves). With
    // no keys at all every pair is a candidate.
    let meets_all =
        |key: &Tuple| keys.is_empty() || (*null_aware && key.iter().any(Value::is_unknown));
    let meets_none = |key: &Tuple| !null_aware && key.has_null();

    let every: Vec<usize> = if keys.is_empty() || *null_aware {
        (0..build.len()).collect()
    } else {
        Vec::new()
    };
    let build_timer = meter.as_ref().map(|_| Stopwatch::start());
    let mut mem = meter.as_ref().map(|_| ua_obs::MemTracker::new());
    let mut table: FxHashMap<Tuple, Vec<usize>> = FxHashMap::default();
    let mut always: Vec<usize> = Vec::new();
    if !keys.is_empty() {
        for (bi, brow) in build.rows().iter().enumerate() {
            let key = key_of(&build_exprs, brow)?;
            if meets_all(&key) {
                always.push(bi);
            } else if !meets_none(&key) {
                if let Some(mem) = &mut mem {
                    // One slot per build row plus the key tuple per distinct key.
                    mem.alloc(if table.contains_key(&key) {
                        8
                    } else {
                        8 + crate::stats::tuple_mem_bytes(&key)
                    });
                }
                table.entry(key).or_default().push(bi);
            }
        }
    }
    if let (Some(meter), Some(timer)) = (meter, build_timer) {
        meter.build_ns = timer.elapsed_ns();
        meter.build_bytes = mem.as_ref().map_or(0, ua_obs::MemTracker::peak);
    }
    let pad_row = pad.then(|| Tuple::new(vec![Value::Null; build.schema().arity()]));
    let concat = |prow: &Tuple, brow: &Tuple| -> Tuple {
        if *build_left {
            brow.concat(prow)
        } else {
            prow.concat(brow)
        }
    };
    let mut merged: Vec<usize> = Vec::new();
    for prow in probe.rows() {
        let key = key_of(&probe_exprs, prow)?;
        let cand: &[usize] = if meets_all(&key) {
            &every
        } else if meets_none(&key) {
            &[]
        } else {
            let bucket = table.get(&key).map_or(&[][..], Vec::as_slice);
            if always.is_empty() {
                bucket
            } else {
                merged.clear();
                merge_ascending(bucket, &always, &mut merged);
                &merged
            }
        };
        let mut matched = false;
        for &bi in cand {
            let joined = concat(prow, &build.rows()[bi]);
            if residual.as_ref().map_or(Ok(true), |p| p.holds(&joined))? {
                matched = true;
                on_row(joined)?;
            }
        }
        if let (false, Some(pad_row)) = (matched, &pad_row) {
            on_row(concat(prow, pad_row))?;
        }
    }
    Ok(())
}

/// Running state of one aggregate.
///
/// Shared by both executors: the row engine feeds it one row at a time
/// (`mult = 1`), the vectorized engine feeds batch rows weighted by their
/// multiplicity column — keeping the two engines' aggregate semantics a
/// single code path.
pub enum AggState {
    /// `COUNT(*)` / `COUNT(expr)` running count.
    Count(u64),
    /// `SUM(expr)` running total (int/float typing tracked).
    Sum {
        /// Accumulated total.
        total: f64,
        /// Whether only integer inputs were seen (result stays `Int`).
        saw_int_only: bool,
        /// Whether any numeric input was seen (`NULL` otherwise).
        any: bool,
    },
    /// `MIN`/`MAX` best-so-far.
    MinMax {
        /// Current best value.
        best: Option<Value>,
        /// `true` for `MIN`, `false` for `MAX`.
        is_min: bool,
    },
    /// `AVG(expr)` running total and count.
    Avg {
        /// Accumulated total.
        total: f64,
        /// Number of numeric inputs.
        n: u64,
    },
}

impl AggState {
    /// Fresh state for `func`.
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count | AggFunc::CountStar => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                total: 0.0,
                saw_int_only: true,
                any: false,
            },
            AggFunc::Min => AggState::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => AggState::MinMax {
                best: None,
                is_min: false,
            },
            AggFunc::Avg => AggState::Avg { total: 0.0, n: 0 },
        }
    }

    /// Fold in `value` standing for `mult` duplicate rows (`None` = the
    /// `COUNT(*)` row marker).
    pub fn update(&mut self, value: Option<&Value>, mult: u64) {
        match self {
            AggState::Count(n) => {
                // COUNT(*) passes None; COUNT(e) skips unknowns.
                match value {
                    None => *n += mult,
                    Some(v) if !v.is_unknown() => *n += mult,
                    _ => {}
                }
            }
            AggState::Sum {
                total,
                saw_int_only,
                any,
            } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *total += x * mult as f64;
                        *any = true;
                        if matches!(v, Value::Float(_)) {
                            *saw_int_only = false;
                        }
                    }
                }
            }
            AggState::MinMax { best, is_min } => {
                if let Some(v) = value {
                    if v.is_unknown() {
                        return;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => matches!(
                            (v.sql_cmp(b), *is_min),
                            (Some(std::cmp::Ordering::Less), true)
                                | (Some(std::cmp::Ordering::Greater), false)
                        ),
                    };
                    if better {
                        *best = Some(v.clone());
                    }
                }
            }
            AggState::Avg { total, n } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *total += x * mult as f64;
                        *n += mult;
                    }
                }
            }
        }
    }

    /// The final aggregate value.
    pub fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n as i64),
            AggState::Sum {
                total,
                saw_int_only,
                any,
            } => {
                if !any {
                    Value::Null
                } else if saw_int_only {
                    Value::Int(total as i64)
                } else {
                    Value::Float(F64::new(total))
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AggState::Avg { total, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(F64::new(total / n as f64))
                }
            }
        }
    }
}

fn aggregate(
    input: &Plan,
    group_by: &[ua_data::algebra::ProjColumn],
    aggregates: &[AggExpr],
    catalog: &Catalog,
    tracer: &mut Tracer<'_>,
) -> Result<Table, EngineError> {
    let t = execute_traced(input, catalog, tracer)?;
    let bound_groups: Vec<Expr> = group_by
        .iter()
        .map(|g| g.expr.bind(t.schema()))
        .collect::<Result<_, _>>()?;
    let bound_aggs: Vec<Option<Expr>> = aggregates
        .iter()
        .map(|a| a.arg.as_ref().map(|e| e.bind(t.schema())).transpose())
        .collect::<Result<_, _>>()?;

    // Group rows; preserve first-seen order for deterministic output.
    let mut mem = tracer.enabled().then(ua_obs::MemTracker::new);
    // Estimated logical bytes per group entry: the key twice (map key +
    // order slot) and a fixed 32-byte slot per aggregate state.
    let group_bytes =
        |key: &Tuple| 2 * crate::stats::tuple_mem_bytes(key) + 32 * aggregates.len() as u64;
    let mut groups: FxHashMap<Tuple, Vec<AggState>> = FxHashMap::default();
    let mut order: Vec<Tuple> = Vec::new();
    for row in t.rows() {
        let key: Tuple = bound_groups
            .iter()
            .map(|e| e.eval(row))
            .collect::<Result<_, _>>()?;
        let states = match groups.get_mut(&key) {
            Some(s) => s,
            None => {
                if let Some(mem) = &mut mem {
                    mem.alloc(group_bytes(&key));
                }
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| aggregates.iter().map(|a| AggState::new(a.func)).collect())
            }
        };
        for (state, arg) in states.iter_mut().zip(&bound_aggs) {
            match arg {
                Some(e) => state.update(Some(&e.eval(row)?), 1),
                None => state.update(None, 1),
            }
        }
    }

    // Global aggregation over an empty input still yields one row.
    if bound_groups.is_empty() && groups.is_empty() {
        let key = Tuple::empty();
        if let Some(mem) = &mut mem {
            mem.alloc(group_bytes(&key));
        }
        order.push(key.clone());
        groups.insert(
            key,
            aggregates.iter().map(|a| AggState::new(a.func)).collect(),
        );
    }

    let mut columns: Vec<ua_data::schema::Column> =
        group_by.iter().map(|g| g.column.clone()).collect();
    for a in aggregates {
        columns.push(ua_data::schema::Column::unqualified(&a.name));
    }
    let mut out = Table::new(Schema::new(columns));
    for key in order {
        let states = groups.remove(&key).expect("group recorded");
        let mut values: Vec<Value> = key.values().to_vec();
        for s in states {
            values.push(s.finish());
        }
        out.push(Tuple::new(values));
    }
    if let Some(mem) = &mem {
        tracer.extra("mem_bytes", mem.peak());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use ua_data::algebra::ProjColumn;
    use ua_data::tuple;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register(
            "emp",
            Table::from_rows(
                Schema::qualified("emp", ["name", "dept", "salary"]),
                vec![
                    tuple!["ann", "eng", 100i64],
                    tuple!["bob", "eng", 80i64],
                    tuple!["cat", "ops", 60i64],
                    tuple!["dan", "ops", 60i64],
                ],
            ),
        );
        c.register(
            "dept",
            Table::from_rows(
                Schema::qualified("dept", ["name", "city"]),
                vec![tuple!["eng", "nyc"], tuple!["ops", "chi"]],
            ),
        );
        c
    }

    /// `NOT IN`'s null-aware key against the all-pairs loop (`θ OR FALSE`
    /// holds exactly when θ does, but has no recognisable key): the same
    /// rows in the same order for both preserved sides, over NULL and
    /// labeled-null keys on either side, `1` next to `1.0`, integers past
    /// 2⁵³ next to the float they round to, and cross-family values. The
    /// same fixture goes through inner `Join` (keyed and keyless) and a
    /// `HashJoin` building either side, each against its all-pairs loop.
    #[test]
    fn null_aware_outer_join_matches_the_all_pairs_loop() {
        use ua_data::algebra::null_aware_eq;
        use ua_data::value::VarId;
        let keys = |name: &str, vals: Vec<Value>| {
            let rows = vals
                .into_iter()
                .enumerate()
                .map(|(i, v)| Tuple::new(vec![v, Value::Int(i as i64)]))
                .collect();
            Table::from_rows(Schema::qualified(name, ["k", "id"]), rows)
        };
        let big = 1i64 << 53;
        let l = keys(
            "l",
            vec![
                Value::Int(1),
                Value::Null,
                Value::float(1.0),
                Value::Int(big + 1),
                Value::Var(VarId(7)),
                Value::str("1"),
                Value::Int(4),
                Value::Bool(true),
            ],
        );
        let with_unknowns = keys(
            "r",
            vec![
                Value::float(1.0),
                Value::Var(VarId(7)),
                Value::Int(1),
                Value::float(big as f64),
                Value::Null,
                Value::str("1"),
                Value::float(f64::NAN),
            ],
        );
        let known = keys("r", vec![Value::Int(1), Value::float(4.0), Value::str("x")]);
        let empty = keys("r", vec![]);
        let not_in = null_aware_eq(Expr::named("l.k"), Expr::named("r.k"));
        let pairwise = not_in.clone().or(Expr::lit(false));
        let join = |r: &Table, plan: Plan| {
            let spec = JoinSpec::bind(&plan, l.schema(), r.schema()).unwrap();
            let mut out = Vec::new();
            join_rows(&l, r, &spec, None, &mut |row| {
                out.push(row);
                Ok(())
            })
            .unwrap();
            out
        };
        let side = || Box::new(Plan::Scan(String::new()));
        let outer = |predicate: &Expr, kind| Plan::OuterJoin {
            left: side(),
            right: side(),
            predicate: Some(predicate.clone()),
            kind,
        };
        let run = |r: &Table, pred: &Expr, kind: OuterKind| join(r, outer(pred, kind));
        for r in [&with_unknowns, &known, &empty] {
            for kind in [OuterKind::Left, OuterKind::Right] {
                let hashed = run(r, &not_in, kind);
                assert_eq!(hashed, run(r, &pairwise, kind), "{kind:?} over {r:?}");
            }
        }
        // Inner joins over the same keys: a keyed and a keyless `Join`
        // against their predicate `OR FALSE`; a `HashJoin` on `l.k = r.k`
        // against the keyless `HashJoin` on the same build side.
        let inner = |predicate: Expr| Plan::Join {
            left: side(),
            right: side(),
            predicate: Some(predicate),
        };
        let equal = Expr::named("l.k").eq(Expr::named("r.k"));
        let hash = |keys: Vec<(Expr, Expr)>, residual: Option<Expr>, build_left| Plan::HashJoin {
            left: side(),
            right: side(),
            keys,
            residual,
            build_left,
        };
        for r in [&with_unknowns, &known, &empty] {
            for theta in [equal.clone(), not_in.clone()] {
                let pairs = join(r, inner(theta.clone().or(Expr::lit(false))));
                assert_eq!(join(r, inner(theta.clone())), pairs, "{theta} over {r:?}");
            }
            for build_left in [false, true] {
                let keyed = vec![(Expr::named("l.k"), Expr::named("r.k"))];
                let pairwise = Some(equal.clone().or(Expr::lit(false)));
                assert_eq!(
                    join(r, hash(keyed, None, build_left)),
                    join(r, hash(Vec::new(), pairwise, build_left)),
                    "hash join build_left={build_left} over {r:?}"
                );
            }
        }
        // Without unknown keys on the right only equal keys match: `4`
        // meets `4.0`, `2⁵³ + 1` meets nothing, the NULL and labeled-null
        // left keys meet every row.
        let matches = run(&known, &not_in, OuterKind::Left);
        let ids = |lid: i64| -> Vec<Value> {
            matches
                .iter()
                .filter(|t| t.get(1) == Some(&Value::Int(lid)))
                .map(|t| t.get(3).expect("r.id").clone())
                .collect()
        };
        assert_eq!(ids(6), [Value::Int(1)]);
        assert_eq!(ids(3), [Value::Null]);
        assert_eq!(ids(1), [Value::Int(0), Value::Int(1), Value::Int(2)]);
        assert_eq!(ids(4), [Value::Int(0), Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn scan_filter_map() {
        let plan = Plan::Map {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::Scan("emp".into())),
                predicate: Expr::named("salary").ge(Expr::lit(80i64)),
            }),
            columns: vec![ProjColumn::named("name")],
        };
        let t = execute(&plan, &catalog()).unwrap();
        assert_eq!(t.sorted_rows(), vec![tuple!["ann"], tuple!["bob"]]);
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let c = catalog();
        let equi = Plan::Join {
            left: Box::new(Plan::Scan("emp".into())),
            right: Box::new(Plan::Scan("dept".into())),
            predicate: Some(Expr::named("emp.dept").eq(Expr::named("dept.name"))),
        };
        let disguised = Plan::Join {
            left: Box::new(Plan::Scan("emp".into())),
            right: Box::new(Plan::Scan("dept".into())),
            predicate: Some(
                Expr::named("emp.dept")
                    .eq(Expr::named("dept.name"))
                    .or(Expr::lit(false)),
            ),
        };
        let a = execute(&equi, &c).unwrap();
        let b = execute(&disguised, &c).unwrap();
        assert_eq!(a.sorted_rows(), b.sorted_rows());
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn union_all_keeps_duplicates() {
        let plan = Plan::UnionAll {
            left: Box::new(Plan::Map {
                input: Box::new(Plan::Scan("emp".into())),
                columns: vec![ProjColumn::named("dept")],
            }),
            right: Box::new(Plan::Map {
                input: Box::new(Plan::Scan("emp".into())),
                columns: vec![ProjColumn::named("dept")],
            }),
        };
        let t = execute(&plan, &catalog()).unwrap();
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn distinct_dedupes() {
        let plan = Plan::Distinct {
            input: Box::new(Plan::Map {
                input: Box::new(Plan::Scan("emp".into())),
                columns: vec![ProjColumn::named("dept")],
            }),
        };
        let t = execute(&plan, &catalog()).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn aggregation_group_by() {
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Scan("emp".into())),
            group_by: vec![ProjColumn::named("dept")],
            aggregates: vec![
                AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    name: "n".into(),
                },
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(Expr::named("salary")),
                    name: "total".into(),
                },
                AggExpr {
                    func: AggFunc::Min,
                    arg: Some(Expr::named("salary")),
                    name: "lo".into(),
                },
                AggExpr {
                    func: AggFunc::Avg,
                    arg: Some(Expr::named("salary")),
                    name: "mean".into(),
                },
            ],
        };
        let t = execute(&plan, &catalog()).unwrap();
        let rows = t.sorted_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], tuple!["eng", 2i64, 180i64, 80i64, 90.0]);
        assert_eq!(rows[1], tuple!["ops", 2i64, 120i64, 60i64, 60.0]);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::Scan("emp".into())),
                predicate: Expr::lit(false),
            }),
            group_by: vec![],
            aggregates: vec![AggExpr {
                func: AggFunc::CountStar,
                arg: None,
                name: "n".into(),
            }],
        };
        let t = execute(&plan, &catalog()).unwrap();
        assert_eq!(t.rows(), &[tuple![0i64]]);
    }

    #[test]
    fn sort_and_limit() {
        let plan = Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(Plan::Scan("emp".into())),
                keys: vec![(Expr::named("salary"), SortOrder::Desc)],
            }),
            limit: 2,
        };
        let t = execute(&plan, &catalog()).unwrap();
        assert_eq!(t.rows()[0], tuple!["ann", "eng", 100i64]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let c = Catalog::new();
        c.register(
            "t",
            Table::from_rows(
                Schema::qualified("t", ["a"]),
                vec![tuple![1i64], Tuple::new(vec![Value::Null]), tuple![3i64]],
            ),
        );
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Scan("t".into())),
            group_by: vec![],
            aggregates: vec![
                AggExpr {
                    func: AggFunc::Count,
                    arg: Some(Expr::named("a")),
                    name: "c".into(),
                },
                AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    name: "cs".into(),
                },
            ],
        };
        let t = execute(&plan, &c).unwrap();
        assert_eq!(t.rows(), &[tuple![2i64, 3i64]]);
    }

    #[test]
    fn executor_agrees_with_k_relation_evaluator() {
        // The row engine and the ℕ-relation evaluator implement the same
        // RA⁺ semantics.
        let c = catalog();
        let ra = ua_data::RaExpr::table("emp")
            .join(
                ua_data::RaExpr::table("dept"),
                Expr::named("emp.dept").eq(Expr::named("dept.name")),
            )
            .select(Expr::named("salary").ge(Expr::lit(60i64)))
            .project(["city"]);
        let plan = Plan::from_ra(&ra);
        let rows = execute(&plan, &c).unwrap();

        let mut db: ua_data::Database<u64> = ua_data::Database::new();
        for name in ["emp", "dept"] {
            db.insert(name, c.get(name).unwrap().to_relation());
        }
        let rel = ua_data::eval(&ra, &db).unwrap();
        assert_eq!(rows.to_relation(), rel);
    }
}
