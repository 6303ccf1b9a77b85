//! The AU row operators: `⟦·⟧_AU` evaluated operator by operator.
//!
//! The row engine executes AU plans natively through the same recursion
//! as det / UA plans (`stats::interpret`), instantiated over
//! [`AuRelation`]s: each operator applies the shared `ua_ranges::ops`
//! implementations ([`execute_au`]). It is the oracle for the vectorized
//! engine, whose one driver runs every operator over range column triples
//! — calling the same bound rules and pair loop (`ua_ranges::ops`'
//! `aggregate_cols`, `distinct_cols`, `except_select`, `outer_join_select`,
//! `JoinSelect`) over its chunks instead of relations — and the
//! differential suites hold the two byte-identical. The session-level
//! entry points (`UaSession::query_au`, the Section 9.2 source labelings)
//! live in `ua-engine`.

use crate::exec::EngineError;
use crate::plan::{Plan, SortOrder};
use crate::stats::{interpret, RowOperators, Tracer};
use crate::storage::{Catalog, Table};
use ua_core::{expr_mentions_marker, UA_LABEL_COLUMN};
use ua_data::algebra::ProjColumn;
use ua_data::expr::Expr;
use ua_data::schema::{Column, SchemaError};
use ua_ranges::{decode_rows, encode_rows, flattened_schema, AggSpec, AuRelation};

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

/// Execute an AU plan on the row engine: each operator interprets over
/// [`AuRelation`]s via the shared `ua_ranges::ops` — the bound rules the
/// vectorized engine's column-native operators are tested against.
pub fn execute_au(plan: &Plan, catalog: &Catalog) -> Result<AuRelation, EngineError> {
    interpret(plan, catalog, &mut Tracer::off())
}

/// Record the AU telemetry extras for a finished span: the bound-precision
/// profile ([`ua_ranges::WidthSummary`] — which operator widened bounds to
/// ⊤, and by how much) plus the logical bytes of the materialized
/// range-annotated relation. The materialization is also charged against
/// the query-wide memory high-water mark.
fn au_span_extras(rel: &AuRelation, tracer: &mut Tracer<'_>) {
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

/// The AU operators: the shared `ua_ranges::ops` over [`AuRelation`]s.
impl RowOperators for AuRelation {
    fn operator(
        plan: &Plan,
        mut inputs: Vec<AuRelation>,
        catalog: &Catalog,
        tracer: &mut Tracer<'_>,
    ) -> Result<AuRelation, EngineError> {
        use ua_ranges::ops;
        let columns = |cs: &[ProjColumn]| -> Vec<(Expr, Column)> {
            cs.iter()
                .map(|c| (c.expr.clone(), c.column.clone()))
                .collect()
        };
        let input = |i: usize| &inputs[i];
        match plan {
            Plan::Scan(name) => catalog
                .get(name)
                .ok_or_else(|| EngineError::UnknownTable(name.clone()))
                .and_then(|table| {
                    decode_rows(table.schema(), table.rows()).map_err(EngineError::Sql)
                }),
            Plan::Alias { name, .. } => {
                let rel = inputs.pop().expect("one evaluated input");
                let schema = rel.schema().with_qualifier(name);
                Ok(rel.with_schema(schema))
            }
            Plan::Filter { predicate, .. } => {
                ops::filter(input(0), predicate).map_err(EngineError::Expr)
            }
            Plan::Map { columns: cs, .. } => {
                ops::map(input(0), &columns(cs)).map_err(EngineError::Expr)
            }
            Plan::Distinct { .. } => Ok(ops::distinct(input(0))),
            Plan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                let specs: Vec<AggSpec> = aggregates
                    .iter()
                    .map(|a| AggSpec {
                        kind: a.func,
                        arg: a.arg.clone(),
                        column: Column::unqualified(&a.name),
                    })
                    .collect();
                let (out, listed_rows) = ops::aggregate(input(0), &columns(group_by), &specs)
                    .map_err(EngineError::Expr)?;
                // Like a projection's `rowwise_rows`, the extra appears only
                // when some group left the fold's passes over the input.
                if listed_rows > 0 {
                    tracer.extra("listed_rows", listed_rows);
                }
                Ok(out)
            }
            Plan::Sort { keys, .. } | Plan::TopK { keys, .. } => {
                let keys: Vec<(Expr, bool)> = keys
                    .iter()
                    .map(|(e, o)| (e.clone(), *o == SortOrder::Desc))
                    .collect();
                let sorted = ops::sort_by_bg(input(0), &keys).map_err(EngineError::Expr)?;
                Ok(match plan {
                    Plan::TopK { limit, .. } => ops::limit(&sorted, *limit),
                    _ => sorted,
                })
            }
            Plan::Limit { limit, .. } => Ok(ops::limit(input(0), *limit)),
            Plan::Join { predicate, .. } => {
                ops::join(input(0), input(1), predicate.as_ref()).map_err(EngineError::Expr)
            }
            Plan::HashJoin {
                keys,
                residual,
                build_left,
                ..
            } => ops::hash_join(input(0), input(1), keys, residual.as_ref(), *build_left)
                .map_err(EngineError::Expr),
            Plan::UnionAll { .. } => ops::union(input(0), input(1)).map_err(EngineError::Schema),
            Plan::Except { all, .. } => {
                ops::except(input(0), input(1), *all).map_err(EngineError::Schema)
            }
            Plan::OuterJoin {
                predicate, kind, ..
            } => {
                let left_kind = *kind == crate::plan::OuterKind::Left;
                ops::outer_join(input(0), input(1), predicate.as_ref(), left_kind)
                    .map_err(EngineError::Expr)
            }
        }
    }

    fn close_span(&self, _: &Plan, tracer: &mut Tracer<'_>) -> usize {
        if tracer.enabled() {
            au_span_extras(self, tracer);
        }
        self.rows().len()
    }
}

/// Materialize an [`AuRelation`] as its flattened encoded table.
pub fn au_table(rel: &AuRelation) -> Table {
    Table::from_rows(flattened_schema(rel.schema()), encode_rows(rel))
}
