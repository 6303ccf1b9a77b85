//! The plan-level UA rewriting: `⟦·⟧_UA` as **one ordinary plan** over the
//! `Enc` tables.
//!
//! [`rewrite_ua_plan`] turns a user plan into a deterministic plan over the
//! encoded representation (every relation carries its certainty marker
//! `ua_c` in last position; Definition 8), which the session optimizes
//! once and hands to either executor to run like any other query — the
//! paper's "lightweight" claim (Figures 8/9, Theorem 7). On both engines
//! the marker is an ordinary `Int` column. The `RA⁺` rules emit exactly
//! what `Plan::from_ra(ua_core::rewrite_ua(..))` emits; `ua_core::rewrite_ua`
//! stays the formal reference they are tested against.
//!
//! ```text
//! ⟦R⟧          = R                                      (already encoded)
//! ⟦σ_θ(Q)⟧     = σ_θ(⟦Q⟧)
//! ⟦π_A(Q)⟧     = π_{A, ua_c}(⟦Q⟧)
//! ⟦Q₁ ⋈_θ Q₂⟧  = π_{Sch, LEAST(Q₁.ua_c, Q₂.ua_c)→ua_c}(⟦Q₁⟧ ⋈_θ ⟦Q₂⟧)
//! ⟦Q₁ ∪ Q₂⟧    = ⟦Q₁⟧ ∪ ⟦Q₂⟧
//! ⟦Q₁ − Q₂⟧    = π_{Sch, 0→ua_c}(π_Sch⟦Q₁⟧ − π_Sch⟦Q₂⟧)
//! ⟦Q₁ ⟕_θ Q₂⟧  = π_{Sch, [Q₁.ua_c = 1 ∧ Q₂.ua_c = 1]→ua_c}(⟦Q₁⟧ ⟕_θ ⟦Q₂⟧)
//! ⟦τ(Q)⟧       = τ(⟦Q⟧)        τ a trailing Sort / Limit / TopK chain
//! ```
//!
//! `Sch` is the user-visible schema (everything left of the markers), with
//! names and qualifiers kept so user predicates bind unchanged. A
//! positional reference in a `⋈` / `⟕` predicate (a `HashJoin` residual
//! too) counts user columns: over `⟦Q₁⟧ ++ ⟦Q₂⟧` every right-side
//! position moves one past the left marker. A `HashJoin` — a user plan the
//! optimizer already shaped — rewrites like the `⋈` it plans; its keys bind
//! per side, where the marker is last, and stay.
//!
//! **Why `−` labels every row 0.** Under `K²` a difference row is certain
//! only if the right side's multiplicity is bounded *from above* in every
//! world, and the UA encoding carries no such bound: a right-side tuple
//! absent from the best-guess world may still be possible. Label 0 is the
//! only sound under-approximation (the bound-aware version is
//! `ua_ranges::ops::except`). Both sides project their markers away first,
//! so two copies of a tuple are never told apart by their labels and the
//! difference is the deterministic one over the best-guess world.
//!
//! **Why `⟕` labels pad rows 0.** A matched row follows the join rule — it
//! is certain iff both inputs are. A NULL-padded row exists because *this*
//! world supplies no match; some other world may, replacing it, so it is
//! never certain. Its padded marker is NULL, and `LEAST` alone would label
//! it NULL — hence the explicit "both markers are 1" test, false on NULL.
//!
//! Trailing `Sort`/`Limit`/`TopK` only reorder or truncate encoded rows, so
//! they pass through (sorting encoded rows tie-breaks on the full row, the
//! marker last). Anywhere else they, `DISTINCT` and aggregation are outside
//! the fragment ([`UA_FRAGMENT_ERROR`]): UA-DBs are not closed under them.
//! The marker is engine bookkeeping, not user schema: any expression naming
//! it is rejected up front by [`reject_marker_in_plan`], the guard the AU
//! path shares. Every base table is checked once per registration
//! ([`check_encoded`]), so a malformed marker fails the same way on both
//! engines.

use crate::au::reject_marker_in_plan;
use crate::exec::{EngineError, UA_FRAGMENT_ERROR};
use crate::options::Semantics;
use crate::plan::Plan;
use crate::sql::plan_schema;
use crate::storage::{Catalog, Chunks, Table};
use std::sync::Arc;
use ua_core::UA_LABEL_COLUMN;
use ua_data::algebra::ProjColumn;
use ua_data::expr::Expr;
use ua_data::schema::{Schema, SchemaError};
use ua_data::value::Value;

/// Rewrite a user plan over UA-encoded tables into the deterministic plan
/// computing its encoded result (marker column last). Serves as the one
/// pre-dispatch guard of UA queries too: marker references, unencoded or
/// unknown tables, malformed markers and plans outside the fragment fail
/// here, identically for both executors.
pub fn rewrite_ua_plan(plan: &Plan, catalog: &Catalog) -> Result<Plan, EngineError> {
    reject_marker_in_plan(plan)?;
    rewrite_trailing(plan, catalog)
}

/// The trailing `Sort`/`Limit`/`TopK` chain, then the core below it.
fn rewrite_trailing(plan: &Plan, catalog: &Catalog) -> Result<Plan, EngineError> {
    Ok(match plan {
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(rewrite_trailing(input, catalog)?),
            keys: keys.clone(),
        },
        Plan::Limit { input, limit } => Plan::Limit {
            input: Box::new(rewrite_trailing(input, catalog)?),
            limit: *limit,
        },
        Plan::TopK { input, keys, limit } => Plan::TopK {
            input: Box::new(rewrite_trailing(input, catalog)?),
            keys: keys.clone(),
            limit: *limit,
        },
        core => rewrite_core(core, catalog)?,
    })
}

fn rewrite_core(plan: &Plan, catalog: &Catalog) -> Result<Plan, EngineError> {
    Ok(match plan {
        Plan::Scan(name) => {
            // Once per registration: the chunk store keeps an empty entry
            // under `Ua` for a table whose markers passed.
            catalog
                .chunks_of(name, Semantics::Ua, 0, |table| {
                    check_encoded(table, name).map(|()| (Arc::new(()) as Chunks, 0))
                })?
                .ok_or_else(|| EngineError::UnknownTable(name.clone()))?;
            Plan::Scan(name.clone())
        }
        Plan::Alias { input, name } => Plan::Alias {
            input: Box::new(rewrite_core(input, catalog)?),
            name: name.clone(),
        },
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(rewrite_core(input, catalog)?),
            predicate: predicate.clone(),
        },
        Plan::Map { input, columns } => {
            let mut columns = columns.clone();
            columns.push(ProjColumn::named(UA_LABEL_COLUMN));
            Plan::Map {
                input: Box::new(rewrite_core(input, catalog)?),
                columns,
            }
        }
        Plan::UnionAll { left, right } => Plan::UnionAll {
            left: Box::new(rewrite_core(left, catalog)?),
            right: Box::new(rewrite_core(right, catalog)?),
        },
        Plan::Except { left, right, all } => {
            let (left, ls) = rewrite_side(left, catalog)?;
            let (right, rs) = rewrite_side(right, catalog)?;
            // π_Sch: a projection drops its own (last) marker column,
            // anything else gets one on top.
            let strip = |side: Box<Plan>, schema: &Schema| {
                Box::new(match *side {
                    Plan::Map { input, mut columns } => {
                        columns.pop();
                        Plan::Map { input, columns }
                    }
                    other => Plan::Map {
                        input: Box::new(other),
                        columns: base_columns(schema, 0).collect(),
                    },
                })
            };
            let mut columns: Vec<ProjColumn> = base_columns(&ls, 0).collect();
            columns.push(ProjColumn::expr(Expr::lit(0i64), UA_LABEL_COLUMN));
            Plan::Map {
                columns,
                input: Box::new(Plan::Except {
                    left: strip(left, &ls),
                    right: strip(right, &rs),
                    all: *all,
                }),
            }
        }
        Plan::Join { left, right, .. }
        | Plan::HashJoin { left, right, .. }
        | Plan::OuterJoin { left, right, .. } => {
            let (left, ls) = rewrite_side(left, catalog)?;
            let (right, rs) = rewrite_side(right, catalog)?;
            // User positions right of the left side's columns move past its
            // marker.
            let left_user = ls.arity() - 1;
            let shift = |e: &Expr| {
                e.map_refs(&|n| Some(n.to_string()), &|i| {
                    i + usize::from(i >= left_user)
                })
                .expect("names map to themselves")
            };
            let (lm, rm) = (marker_col(&ls, 0), marker_col(&rs, ls.arity()));
            let (input, marker) = match plan {
                Plan::Join { predicate, .. } => (
                    Plan::Join {
                        left,
                        right,
                        predicate: predicate.as_ref().map(shift),
                    },
                    // A certain join result needs both inputs certain: min.
                    lm.least(rm),
                ),
                Plan::HashJoin {
                    keys,
                    residual,
                    build_left,
                    ..
                } => (
                    Plan::HashJoin {
                        left,
                        right,
                        keys: keys.clone(),
                        residual: residual.as_ref().map(shift),
                        build_left: *build_left,
                    },
                    lm.least(rm),
                ),
                Plan::OuterJoin {
                    predicate, kind, ..
                } => {
                    let certain = |marker: Expr| marker.eq(Expr::lit(1i64));
                    (
                        Plan::OuterJoin {
                            left,
                            right,
                            predicate: predicate.as_ref().map(shift),
                            kind: *kind,
                        },
                        Expr::Case {
                            branches: vec![(certain(lm).and(certain(rm)), Expr::lit(1i64))],
                            otherwise: Some(Box::new(Expr::lit(0i64))),
                        },
                    )
                }
                _ => unreachable!("a join node"),
            };
            Plan::Map {
                columns: join_columns(&ls, &rs, marker),
                input: Box::new(input),
            }
        }
        Plan::Distinct { .. }
        | Plan::Aggregate { .. }
        | Plan::Sort { .. }
        | Plan::Limit { .. }
        | Plan::TopK { .. } => return Err(EngineError::Sql(UA_FRAGMENT_ERROR.into())),
    })
}

/// Check that `table`, registered as `name`, is UA-encoded: `ua_c` last and
/// every marker `0` or `1` — the one marker check of both engines. NULL, a
/// `Float` or any other value is an error naming the first offending
/// marker.
pub fn check_encoded(table: &Table, name: &str) -> Result<(), EngineError> {
    let schema = table.schema();
    let encoded = schema
        .columns()
        .last()
        .is_some_and(|c| c.name.eq_ignore_ascii_case(UA_LABEL_COLUMN));
    if !encoded {
        return Err(EngineError::Schema(SchemaError::UnknownColumn(format!(
            "{name}.{UA_LABEL_COLUMN} (table is not UA-encoded)"
        ))));
    }
    let marker = schema.arity() - 1;
    match table
        .rows()
        .iter()
        .map(|row| row.get(marker))
        .find(|m| !matches!(m, Some(Value::Int(0 | 1))))
    {
        Some(bad) => Err(EngineError::Sql(format!(
            "invalid certainty marker {bad:?} in `{name}`"
        ))),
        None => Ok(()),
    }
}

/// The certainty marker's position in the output of `plan`, a node of a
/// rewritten plan with output schema `schema`: the last column when it is
/// `ua_c`, except on a join, inner or outer — its output is
/// `left ++ right`, whose last column is only the right side's marker; the
/// `⟦⋈⟧` / `⟦⟕⟧` projection above it carries the join's. Both engines
/// count an operator's `certain_rows` at this position and nowhere else.
pub fn certainty_marker(plan: &Plan, schema: &Schema) -> Option<usize> {
    let join = matches!(
        plan,
        Plan::Join { .. } | Plan::HashJoin { .. } | Plan::OuterJoin { .. }
    );
    let last = schema.columns().last()?;
    (!join && last.name.eq_ignore_ascii_case(UA_LABEL_COLUMN)).then(|| schema.arity() - 1)
}

/// One input of a binary node rewritten, with its encoded schema.
fn rewrite_side(plan: &Plan, catalog: &Catalog) -> Result<(Box<Plan>, Schema), EngineError> {
    let side = rewrite_core(plan, catalog)?;
    let schema = plan_schema(&side, catalog)?;
    Ok((Box::new(side), schema))
}

/// The user-visible columns of an encoded schema sitting at `offset` in
/// the node's input, positionally, under their own names and qualifiers.
fn base_columns(schema: &Schema, offset: usize) -> impl Iterator<Item = ProjColumn> + '_ {
    let base = &schema.columns()[..schema.arity() - 1];
    base.iter()
        .enumerate()
        .map(move |(i, col)| ProjColumn::with_column(Expr::Col(offset + i), col.clone()))
}

/// The marker of an encoded schema sitting at `offset`.
fn marker_col(schema: &Schema, offset: usize) -> Expr {
    Expr::Col(offset + schema.arity() - 1)
}

/// `π_{Sch, marker→ua_c}` over `left ++ right` of two encoded inputs.
fn join_columns(ls: &Schema, rs: &Schema, marker: Expr) -> Vec<ProjColumn> {
    let mut columns: Vec<ProjColumn> = base_columns(ls, 0)
        .chain(base_columns(rs, ls.arity()))
        .collect();
    columns.push(ProjColumn::expr(marker, UA_LABEL_COLUMN));
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::plan::OuterKind;
    use ua_data::tuple;

    /// `r` = {1 certain, 2 uncertain, 3 certain}, `s` = {1 certain, 2 certain}.
    fn catalog() -> Catalog {
        let c = Catalog::new();
        for (name, rows) in [
            (
                "r",
                vec![tuple![1i64, 1i64], tuple![2i64, 0i64], tuple![3i64, 1i64]],
            ),
            ("s", vec![tuple![1i64, 1i64], tuple![2i64, 1i64]]),
        ] {
            let schema = Schema::qualified(name, ["a"]).with_column(UA_LABEL_COLUMN);
            c.register(name, Table::from_rows(schema, rows));
        }
        c
    }

    fn scan(name: &str) -> Box<Plan> {
        Box::new(Plan::Scan(name.into()))
    }

    fn run(plan: &Plan) -> Vec<ua_data::Tuple> {
        let c = catalog();
        let rewritten = rewrite_ua_plan(plan, &c).expect("in the fragment");
        execute(&rewritten, &c).expect("executes").rows().to_vec()
    }

    #[test]
    fn outer_join_labels_matches_by_both_markers_and_pads_zero() {
        let rows = run(&Plan::OuterJoin {
            left: scan("r"),
            right: scan("s"),
            predicate: Some(Expr::named("r.a").eq(Expr::named("s.a"))),
            kind: OuterKind::Left,
        });
        assert_eq!(
            rows,
            vec![
                tuple![1i64, 1i64, 1i64],
                tuple![2i64, 2i64, 0i64],
                // The pad's marker is NULL; its label must be 0, not NULL.
                ua_data::Tuple::new(vec![3i64.into(), ua_data::Value::Null, 0i64.into()]),
            ]
        );
    }

    /// A positional `⋈` / `⟕` predicate (a `HashJoin` residual too) counts
    /// user columns: `#0 = #1` over `r(a) ++ s(a)` is `r.a = s.a`, not
    /// `r.a = r.ua_c`.
    #[test]
    fn positional_join_predicates_count_user_columns() {
        let named = Expr::named("r.a").eq(Expr::named("s.a"));
        let positional = Expr::col(0).eq(Expr::col(1));
        let joins = |predicate: &Expr| {
            [
                Plan::Join {
                    left: scan("r"),
                    right: scan("s"),
                    predicate: Some(predicate.clone()),
                },
                Plan::OuterJoin {
                    left: scan("r"),
                    right: scan("s"),
                    predicate: Some(predicate.clone()),
                    kind: OuterKind::Left,
                },
                Plan::HashJoin {
                    left: scan("r"),
                    right: scan("s"),
                    keys: vec![(Expr::named("a"), Expr::named("a"))],
                    residual: Some(predicate.clone()),
                    build_left: false,
                },
            ]
        };
        for (by_name, by_position) in joins(&named).iter().zip(&joins(&positional)) {
            assert_eq!(run(by_name), run(by_position), "{by_position}");
        }
        assert_eq!(run(&joins(&positional)[0]).len(), 2);
    }

    /// NULL, `Float` and out-of-range markers fail the rewriting with one
    /// error naming the first of them; a repaired registration passes.
    #[test]
    fn malformed_markers_fail_the_rewriting() {
        let c = catalog();
        let schema = Schema::qualified("t", ["a"]).with_column(UA_LABEL_COLUMN);
        for bad in [
            Value::Null,
            Value::float(1.0),
            Value::Int(2),
            Value::Int(-1),
        ] {
            let expected = format!("invalid certainty marker {:?} in `t`", Some(&bad));
            let rows = vec![
                tuple![1i64, 1i64],
                ua_data::Tuple::new(vec![2i64.into(), bad]),
            ];
            c.register("t", Table::from_rows(schema.clone(), rows));
            for _ in 0..2 {
                match rewrite_ua_plan(&Plan::Scan("t".into()), &c) {
                    Err(EngineError::Sql(msg)) => assert_eq!(msg, expected),
                    other => panic!("{expected}: got {other:?}"),
                }
            }
        }
        c.register("t", Table::from_rows(schema, vec![tuple![1i64, 0i64]]));
        assert!(rewrite_ua_plan(&Plan::Scan("t".into()), &c).is_ok());
    }

    #[test]
    fn difference_rows_are_never_certain() {
        let rows = run(&Plan::Except {
            left: scan("r"),
            right: scan("s"),
            all: true,
        });
        assert_eq!(rows, vec![tuple![3i64, 0i64]]);
    }

    #[test]
    fn only_a_trailing_sort_limit_chain_is_in_the_fragment() {
        let c = catalog();
        let limit = |input: Box<Plan>| Plan::Limit { input, limit: 2 };
        let trailing = limit(Box::new(Plan::Sort {
            input: scan("r"),
            keys: vec![(Expr::named("a"), crate::plan::SortOrder::Desc)],
        }));
        assert!(rewrite_ua_plan(&trailing, &c).is_ok());
        for outside in [
            Plan::UnionAll {
                left: Box::new(limit(scan("r"))),
                right: scan("s"),
            },
            Plan::Distinct { input: scan("r") },
            limit(Box::new(Plan::Distinct { input: scan("r") })),
        ] {
            match rewrite_ua_plan(&outside, &c) {
                Err(EngineError::Sql(msg)) => assert_eq!(msg, UA_FRAGMENT_ERROR),
                other => panic!("{outside} must be outside the fragment, got {other:?}"),
            }
        }
    }
}
