//! The AU row interpreter: `⟦·⟧_AU` evaluated operator by operator.
//!
//! The row engine executes AU plans natively by interpreting each
//! operator over [`AuRelation`]s with the shared `ua_ranges::ops`
//! implementations ([`execute_au`]). It is the oracle for the vectorized
//! engine, whose one driver runs σ / π / ⋈ / γ / δ over range column
//! triples and reaches the shared ops only for `−`, `⟕`, keyless and
//! cross-family joins (through [`au_binary`]) — the differential suites
//! hold the two byte-identical. The session-level entry points
//! (`UaSession::query_au`, the Section 9.2 source labelings) live in
//! `ua-engine`.

use crate::exec::EngineError;
use crate::plan::{AggFunc, Plan, SortOrder};
use crate::storage::{Catalog, Table};
use ua_core::{expr_mentions_marker, UA_LABEL_COLUMN};
use ua_data::expr::Expr;
use ua_data::schema::{Column, SchemaError};
use ua_ranges::{decode_rows, encode_rows, flattened_schema, AggKind, AggSpec, AuRelation};

/// Whether a column name is one of the AU encoding's sidecars (bound
/// columns or the multiplicity triple). Matches only the *exact* names
/// the encoding generates (`ua_lb_<i>`/`ua_ub_<i>` with a numeric index,
/// `ua_m_lb`/`ua_m_bg`/`ua_m_ub`) — a user column that merely shares the
/// prefix (say `ua_lb_note`) is ordinary data, exactly as only the
/// literal `ua_c` is the UA marker.
pub fn is_au_sidecar_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    let indexed = |prefix: &str| {
        lower
            .strip_prefix(prefix)
            .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
    };
    indexed(ua_ranges::AU_LB_PREFIX)
        || indexed(ua_ranges::AU_UB_PREFIX)
        || lower == ua_ranges::AU_MULT_LB
        || lower == ua_ranges::AU_MULT_BG
        || lower == ua_ranges::AU_MULT_UB
}

/// The uniform marker guard, run once before a UA or AU plan reaches
/// either executor so the row and vectorized paths reject exactly the same
/// queries: the `ua_c` marker is engine bookkeeping, so no expression a
/// node evaluates (predicates, projections, join conditions, sort keys,
/// GROUP BY keys, aggregate arguments) may reference it and no output
/// column may take its name.
pub fn reject_marker_in_plan(plan: &Plan) -> Result<(), EngineError> {
    let (exprs, names) = plan.exprs();
    if exprs.into_iter().any(expr_mentions_marker)
        || names
            .into_iter()
            .any(|n| n.eq_ignore_ascii_case(UA_LABEL_COLUMN))
    {
        return Err(EngineError::Schema(SchemaError::AmbiguousColumn(
            UA_LABEL_COLUMN.to_string(),
        )));
    }
    plan.inputs().try_for_each(reject_marker_in_plan)
}

/// Map the engine's aggregate functions onto the range layer's kinds.
pub fn agg_kind(func: AggFunc) -> AggKind {
    match func {
        AggFunc::Count => AggKind::Count,
        AggFunc::CountStar => AggKind::CountStar,
        AggFunc::Sum => AggKind::Sum,
        AggFunc::Min => AggKind::Min,
        AggFunc::Max => AggKind::Max,
        AggFunc::Avg => AggKind::Avg,
    }
}

/// Execute an AU plan on the row engine: each operator interprets over
/// [`AuRelation`]s via the shared `ua_ranges::ops` — the bound rules the
/// vectorized engine's column-native operators are tested against, and the
/// very code it calls (through [`au_binary`]) where it has none.
pub fn execute_au(plan: &Plan, catalog: &Catalog) -> Result<AuRelation, EngineError> {
    execute_au_traced(plan, catalog, &mut crate::stats::Tracer::off())
}

/// [`execute_au`] with a span tracer threaded through the recursion (see
/// [`crate::exec::execute_traced`] — same contract: no-op when off,
/// byte-identical results either way).
pub(crate) fn execute_au_traced(
    plan: &Plan,
    catalog: &Catalog,
    tracer: &mut crate::stats::Tracer<'_>,
) -> Result<AuRelation, EngineError> {
    let trace_name = ua_obs::trace_active().then(|| crate::stats::node_label(plan).0);
    if let Some(name) = &trace_name {
        ua_obs::trace_begin(name, "operator");
    }
    tracer.enter(plan);
    let result = match plan {
        Plan::Scan(name) => catalog
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.clone()))
            .and_then(|table| decode_rows(table.schema(), table.rows()).map_err(EngineError::Sql)),
        Plan::Alias { input, .. }
        | Plan::Filter { input, .. }
        | Plan::Map { input, .. }
        | Plan::Distinct { input }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::TopK { input, .. } => {
            execute_au_traced(input, catalog, tracer).and_then(|rel| au_unary(plan, &rel))
        }
        Plan::Join { left, right, .. }
        | Plan::HashJoin { left, right, .. }
        | Plan::UnionAll { left, right }
        | Plan::Except { left, right, .. }
        | Plan::OuterJoin { left, right, .. } => execute_au_traced(left, catalog, tracer)
            .and_then(|l| execute_au_traced(right, catalog, tracer).map(|r| (l, r)))
            .and_then(|(l, r)| au_binary(plan, &l, &r)),
    };
    let result = match result {
        Ok(rel) => {
            if tracer.enabled() {
                au_span_extras(&rel, tracer);
            }
            tracer.exit(rel.rows().len());
            Ok(rel)
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

/// Record the AU telemetry extras for a finished span: the bound-precision
/// profile ([`ua_ranges::WidthSummary`] — which operator widened bounds to
/// ⊤, and by how much) plus the logical bytes of the materialized
/// range-annotated relation. The materialization is also charged against
/// the query-wide memory high-water mark.
fn au_span_extras(rel: &AuRelation, tracer: &mut crate::stats::Tracer<'_>) {
    let ws = ua_ranges::WidthSummary::of(rel);
    tracer.extra("certain_rows", ws.certain_rows);
    tracer.extra("top_attrs_permille", ws.top_attr_permille());
    tracer.extra("rel_width_permille", ws.mean_rel_width_permille());
    tracer.extra("mult_spread", ws.mult_spread);
    let bytes = au_relation_mem_bytes(rel);
    let mut mem = ua_obs::MemTracker::new();
    mem.alloc(bytes);
    tracer.extra("mem_bytes", bytes);
}

/// Estimated logical bytes of a materialized [`AuRelation`] — the
/// range-annotation counterpart of [`crate::stats::tuple_mem_bytes`]:
/// 24 bytes for the multiplicity triple plus, per attribute cell, the
/// best guess and both bounds (a bare ±∞ bound costs one 16-byte slot).
/// Shape-derived, never allocator-derived, so the figure is deterministic.
pub(crate) fn au_relation_mem_bytes(rel: &AuRelation) -> u64 {
    fn bound_bytes(b: &ua_ranges::Bound) -> u64 {
        match b {
            ua_ranges::Bound::Val(v) => crate::stats::value_mem_bytes(v),
            _ => 16,
        }
    }
    rel.rows()
        .iter()
        .map(|row| {
            24 + row
                .values
                .iter()
                .map(|r| {
                    crate::stats::value_mem_bytes(&r.bg) + bound_bytes(r.lb()) + bound_bytes(r.ub())
                })
                .sum::<u64>()
        })
        .sum()
}

/// Apply one unary AU operator (the node at the root of `plan`) to an
/// already-evaluated input.
pub fn au_unary(plan: &Plan, rel: &AuRelation) -> Result<AuRelation, EngineError> {
    match plan {
        Plan::Alias { name, .. } => {
            let schema = rel.schema().with_qualifier(name);
            Ok(rel.clone().with_schema(schema))
        }
        Plan::Filter { predicate, .. } => {
            ua_ranges::ops::filter(rel, predicate).map_err(EngineError::Expr)
        }
        Plan::Map { columns, .. } => {
            let cols: Vec<(Expr, Column)> = columns
                .iter()
                .map(|c| (c.expr.clone(), c.column.clone()))
                .collect();
            ua_ranges::ops::map(rel, &cols).map_err(EngineError::Expr)
        }
        Plan::Distinct { .. } => Ok(ua_ranges::ops::distinct(rel)),
        Plan::Aggregate {
            group_by,
            aggregates,
            ..
        } => {
            let keys: Vec<(Expr, Column)> = group_by
                .iter()
                .map(|g| (g.expr.clone(), g.column.clone()))
                .collect();
            let specs: Vec<AggSpec> = aggregates
                .iter()
                .map(|a| AggSpec {
                    kind: agg_kind(a.func),
                    arg: a.arg.clone(),
                    column: Column::unqualified(&a.name),
                })
                .collect();
            ua_ranges::ops::aggregate(rel, &keys, &specs).map_err(EngineError::Expr)
        }
        Plan::Sort { keys, .. } => {
            let keys: Vec<(Expr, bool)> = keys
                .iter()
                .map(|(e, o)| (e.clone(), *o == SortOrder::Desc))
                .collect();
            ua_ranges::ops::sort_by_bg(rel, &keys).map_err(EngineError::Expr)
        }
        Plan::Limit { limit, .. } => Ok(ua_ranges::ops::limit(rel, *limit)),
        Plan::TopK { keys, limit, .. } => {
            let keys: Vec<(Expr, bool)> = keys
                .iter()
                .map(|(e, o)| (e.clone(), *o == SortOrder::Desc))
                .collect();
            let sorted = ua_ranges::ops::sort_by_bg(rel, &keys).map_err(EngineError::Expr)?;
            Ok(ua_ranges::ops::limit(&sorted, *limit))
        }
        other => Err(EngineError::Sql(format!(
            "not a unary AU operator: {other}"
        ))),
    }
}

/// Apply one binary AU operator to already-evaluated inputs. Shared
/// between the row interpreter and the vectorized engine's `−`, `⟕`,
/// keyless and cross-family joins.
pub fn au_binary(plan: &Plan, l: &AuRelation, r: &AuRelation) -> Result<AuRelation, EngineError> {
    match plan {
        Plan::Join { predicate, .. } => {
            ua_ranges::ops::join(l, r, predicate.as_ref()).map_err(EngineError::Expr)
        }
        Plan::HashJoin {
            keys,
            residual,
            build_left,
            ..
        } => ua_ranges::ops::hash_join(l, r, keys, residual.as_ref(), *build_left)
            .map_err(EngineError::Expr),
        Plan::UnionAll { .. } => ua_ranges::ops::union(l, r).map_err(EngineError::Schema),
        Plan::Except { all, .. } => ua_ranges::ops::except(l, r, *all).map_err(EngineError::Schema),
        Plan::OuterJoin {
            predicate, kind, ..
        } => ua_ranges::ops::outer_join(
            l,
            r,
            predicate.as_ref(),
            *kind == crate::plan::OuterKind::Left,
        )
        .map_err(EngineError::Expr),
        other => Err(EngineError::Sql(format!(
            "not a binary AU operator: {other}"
        ))),
    }
}

/// Materialize an [`AuRelation`] as its flattened encoded table.
pub fn au_table(rel: &AuRelation) -> Table {
    Table::from_rows(flattened_schema(rel.schema()), encode_rows(rel))
}
