//! Plan optimization: filter pushdown, statistics-driven join reordering
//! and cost-aware join planning.
//!
//! The optimizer is a pass pipeline over [`Plan`]s, applied by
//! `ua_engine::UaSession` to the plan each executor actually runs —
//! uniformly before `ExecMode::Row` / `ExecMode::Vectorized` dispatch, and
//! for both deterministic and UA queries — so the two engines cannot drift
//! (the differential test harness locks them together).
//!
//! Passes, in pipeline order ([`optimize`] / [`optimize_with`]):
//!
//! 1. **Filter pushdown** ([`push_filters`]). The UA rewriting (Figure 9)
//!    wraps every join in a projection that re-labels columns and combines
//!    the two certainty markers, and user queries add their own
//!    projections; selections sit *above* those projections, so a naive
//!    executor pays the projection over the full input before filtering.
//!    `Filter(P) ∘ Map(M) ≡ Map(M) ∘ Filter(P∘M)` whenever `P`'s column
//!    references can be substituted by `M`'s expressions, which is exactly
//!    the shape both produce. Name-based predicates also sink through
//!    `Alias` by *requalifying* their references against the inner schema
//!    (`q.salary` above `Alias[q]` becomes `salary` below it, when the
//!    requalified reference resolves uniquely back to the same column).
//! 2. **Join reordering** ([`reorder_joins`]). A filter stack over a tree
//!    of joins is flattened into its base relations plus one conjunct set
//!    (the comma-join graph); single-relation conjuncts become selections
//!    on their relation, equality conjuncts linking two relations become
//!    join edges, and a cost model over [`crate::storage::TableStats`]
//!    (histogram selectivities for filters, `1/max(ndv)` for equi-join
//!    edges) drives join-order enumeration — dynamic programming over
//!    connected subsets for ≤ [`DP_MAX_RELATIONS`] relations, greedy
//!    pairwise merging above. The chosen order is emitted as a *logical*
//!    `Join` tree (predicates at their lowest covering node) under a
//!    projection restoring the as-written column order, so the pass also
//!    runs on user `RA⁺` plans before the UA rewriting.
//! 3. **Join planning** ([`plan_joins`]). Each (possibly reordered) binary
//!    join with its filter stack merges into one conjunct set; the pass
//!    pushes single-side conjuncts below the join, extracts conjunctive
//!    equi-join keys into a [`Plan::HashJoin`] (the rest stays as a
//!    residual), and picks the hash build side from cardinality estimates
//!    ([`estimate_rows`], backed by catalog statistics): build on the
//!    smaller input, probe with the larger.
//! 4. Filter pushdown again: selections pushed onto join inputs by passes
//!    2/3 may sink further through projections (e.g. into subqueries).
//!
//! Each pass is the arms that hold its rule plus
//! `other => other.map_inputs(|p| pass(p, …))` ([`Plan::map_inputs`]); the
//! expression helpers at the bottom instantiate the two `Expr` leaf walks
//! (`for_each_leaf`, `try_map_leaves`). `docs/optimizer.md` ("Adding a plan
//! operator or a pass") lists what a new operator has to supply.
//!
//! Invariants (checked by `tests/plans.rs`, `tests/differential.rs` and
//! `tests/label_soundness.rs`):
//!
//! * rewrites never change result rows, UA labels, or multiplicities;
//! * rewrites preserve the engines' shared row order contract: the same
//!   optimized plan executes to byte-identical tables on both engines;
//! * expressions stay *unbound* (name-based) unless they already were
//!   positional — a user plan over UA- or AU-encoded tables counts
//!   positions in user columns, so positions valid against the encoded
//!   schemas would misalign there.

use crate::plan::Plan;
use crate::sql::planner::{is_system_column, plan_schema};
use crate::storage::{Catalog, TableStats};
use std::sync::Arc;
use ua_data::algebra::{shift_columns, ProjColumn};
use ua_data::expr::{CmpOp, Expr};
use ua_data::schema::{Schema, SchemaError};

/// Which optimizer passes to run (all on by default).
#[derive(Clone, Copy, Debug)]
pub struct OptimizerPasses {
    /// Sink filters below projections (pass 1 and 4).
    pub push_filters: bool,
    /// Rewrite cross-join+filter into hash joins with build-side selection
    /// (pass 3).
    pub plan_joins: bool,
    /// Reorder 3+-way join trees by estimated cost before planning them
    /// (pass 2; only runs when `plan_joins` is on).
    pub reorder_joins: bool,
    /// Let join planning and reordering classify and shift *positional*
    /// (`Expr::Col`) references. Must be off when the plan's positions do
    /// not count `plan_schema`'s columns — a user plan over UA-encoded
    /// tables (positions count user columns; the `⟦·⟧_UA` rewriting shifts
    /// them past the markers) or an AU plan (flattened tables): positions
    /// computed against encoded schemas would split at the wrong arity and
    /// silently join on the wrong columns. Named references are always
    /// safe (the marker never participates in name resolution). With it
    /// off, reordering also sees each leaf's *user-visible* schema — no
    /// trailing `ua_c`, no AU bound or multiplicity sidecars.
    pub positional_joins: bool,
    /// Fuse `Limit(Sort(..))` into the bounded-heap [`Plan::TopK`]
    /// operator ([`fuse_topk`]).
    pub fuse_topk: bool,
}

impl Default for OptimizerPasses {
    fn default() -> OptimizerPasses {
        OptimizerPasses {
            push_filters: true,
            plan_joins: true,
            reorder_joins: true,
            positional_joins: true,
            fuse_topk: true,
        }
    }
}

/// Run the full optimizer pipeline.
pub fn optimize(plan: Plan, catalog: &Catalog) -> Plan {
    optimize_with(plan, catalog, OptimizerPasses::default())
}

/// Run the selected optimizer passes.
pub fn optimize_with(plan: Plan, catalog: &Catalog, passes: OptimizerPasses) -> Plan {
    let mut plan = plan;
    if passes.push_filters {
        plan = push_filters(plan, catalog);
    }
    if passes.plan_joins {
        if passes.reorder_joins {
            plan = reorder_joins_impl(plan, catalog, passes.positional_joins);
        }
        plan = plan_joins_impl(plan, catalog, passes.positional_joins);
        if passes.push_filters {
            plan = push_filters(plan, catalog);
        }
    }
    if passes.fuse_topk {
        plan = fuse_topk(plan);
    }
    plan
}

/// Rewrite every `Limit(Sort(..))` stack into the fused [`Plan::TopK`]
/// operator. The rewrite is exact — `TopK` is *defined* as that
/// composition (same key comparison, same deterministic full-row
/// tie-break) — but executes with a bounded heap of `limit` rows instead
/// of sorting the whole input, on both engines.
///
/// `Limit` over an already-fused `TopK` also folds (the smaller count
/// wins), so stacked `LIMIT`s cannot undo the fusion.
pub fn fuse_topk(plan: Plan) -> Plan {
    match plan.map_inputs(fuse_topk) {
        Plan::Limit { input, limit } => match *input {
            Plan::Sort { input, keys } => Plan::TopK { input, keys, limit },
            Plan::TopK {
                input,
                keys,
                limit: inner,
            } => Plan::TopK {
                input,
                keys,
                limit: inner.min(limit),
            },
            fused => Plan::Limit {
                input: Box::new(fused),
                limit,
            },
        },
        other => other,
    }
}

/// Apply filter pushdown throughout the plan. The catalog supplies base
/// schemas for requalifying name-based predicates through `Alias` nodes.
pub fn push_filters(plan: Plan, catalog: &Catalog) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => {
            let input = push_filters(*input, catalog);
            match input {
                Plan::Map {
                    input: map_input,
                    columns,
                } => match substitute(&predicate, &columns) {
                    Some(pushed) => Plan::Map {
                        input: Box::new(push_filters(
                            Plan::Filter {
                                input: map_input,
                                predicate: pushed,
                            },
                            catalog,
                        )),
                        columns,
                    },
                    None => Plan::Filter {
                        input: Box::new(Plan::Map {
                            input: map_input,
                            columns,
                        }),
                        predicate,
                    },
                },
                // Aliases only re-qualify names: a fully positional
                // predicate (as produced by join planning or earlier
                // substitution) sinks through untouched, and a name-based
                // one sinks once its references are requalified against the
                // inner schema (`q.salary` → `salary`), provided each
                // requalified reference resolves uniquely back to the same
                // column.
                Plan::Alias {
                    input: alias_input,
                    name,
                } => {
                    let requalified = if has_named_refs(&predicate) {
                        requalify_through_alias(&predicate, &name, &alias_input, catalog)
                    } else {
                        Some(predicate.clone())
                    };
                    match requalified {
                        Some(pushed) => Plan::Alias {
                            input: Box::new(push_filters(
                                Plan::Filter {
                                    input: alias_input,
                                    predicate: pushed,
                                },
                                catalog,
                            )),
                            name,
                        },
                        None => Plan::Filter {
                            input: Box::new(Plan::Alias {
                                input: alias_input,
                                name,
                            }),
                            predicate,
                        },
                    }
                }
                // Everything else keeps the filter above it. This is
                // load-bearing for the non-monotone operators: a predicate
                // must never sink into either side of `Except` (removal is
                // first-k by full-tuple match, so pre-filtering the left
                // changes *which* copies the right's budget removes under
                // the AU bounds, and filtering the right changes the
                // removal set outright) nor into the preserved side of an
                // `OuterJoin` (pre-filtering would turn matched rows into
                // absent rows instead of NULL-padded ones under the other
                // side's visibility), nor into the NULL-supplying side
                // (rows filtered there pad instead of disappearing).
                other => Plan::Filter {
                    input: Box::new(other),
                    predicate,
                },
            }
        }
        other => other.map_inputs(|p| push_filters(p, catalog)),
    }
}

/// Rewrite a name-based predicate so it binds *below* `Alias[alias]` over
/// `inner`: every named reference is resolved against the aliased schema,
/// then re-expressed against the inner schema (bare name first, then the
/// inner column's own qualified name), requiring the new reference to
/// resolve uniquely to the same column. `None` when any reference cannot be
/// requalified (the filter then stays above the alias).
fn requalify_through_alias(
    predicate: &Expr,
    alias: &str,
    inner: &Plan,
    catalog: &Catalog,
) -> Option<Expr> {
    let inner_schema = plan_schema(inner, catalog).ok()?;
    let outer_schema = inner_schema.with_qualifier(alias);
    map_named(predicate, &|name| {
        let idx = outer_schema.resolve(name).ok()?;
        let col = &inner_schema.columns()[idx];
        let bare = col.name.to_string();
        if matches!(inner_schema.resolve(&bare), Ok(i) if i == idx) {
            return Some(bare);
        }
        if let Some(q) = &col.qualifier {
            let qualified = format!("{q}.{}", col.name);
            if matches!(inner_schema.resolve(&qualified), Ok(i) if i == idx) {
                return Some(qualified);
            }
        }
        None
    })
}

/// Rebuild an expression with every `Expr::Named` reference mapped through
/// `f`; `None` as soon as `f` declines one (positions and literals pass
/// through untouched).
fn map_named(expr: &Expr, f: &dyn Fn(&str) -> Option<String>) -> Option<Expr> {
    expr.map_refs(f, &|i| i)
}

/// Rebuild an expression with every positional reference mapped through
/// `f`; names and literals pass through untouched.
fn remap_positions(expr: &Expr, f: &dyn Fn(usize) -> usize) -> Expr {
    expr.map_refs(&|n| Some(n.to_string()), f)
        .expect("identity name mapping cannot fail")
}

/// Rewrite cross-join+filter shapes into [`Plan::HashJoin`]s throughout the
/// plan (see the module docs for the full rule).
pub fn plan_joins(plan: Plan, catalog: &Catalog) -> Plan {
    plan_joins_impl(plan, catalog, true)
}

/// [`plan_joins`] with positional-reference classification gated by
/// `positional` (see [`OptimizerPasses::positional_joins`]).
fn plan_joins_impl(plan: Plan, catalog: &Catalog, positional: bool) -> Plan {
    match plan {
        Plan::Filter { .. } => {
            // Peel the filter stack level by level (outermost first); if a
            // join is underneath, the conjuncts take part in join planning.
            // Level boundaries are load-bearing for errors: `And` evaluates
            // eagerly, so merging the stack into one conjunction would run
            // an outer error-capable predicate (arithmetic can raise) on
            // rows an inner level used to exclude. The *bottom* level saw
            // the raw join rows and is always absorbed; higher levels are
            // absorbed only when error-free (conjunction commutes freely
            // for those), and error-capable levels stay stacked, in order,
            // above the planned join.
            let mut levels: Vec<Expr> = Vec::new();
            let mut core = plan;
            while let Plan::Filter { input, predicate } = core {
                levels.push(predicate);
                core = *input;
            }
            match core {
                Plan::Join {
                    left,
                    right,
                    predicate,
                } => {
                    let mut conjuncts: Vec<Expr> = Vec::new();
                    let mut kept: Vec<Expr> = Vec::new();
                    let bottom = levels.len() - 1;
                    for (i, level) in levels.into_iter().enumerate() {
                        let split = level.split_conjuncts();
                        if i == bottom || split.iter().all(|c| is_error_free(c)) {
                            conjuncts.extend(split.into_iter().cloned());
                        } else {
                            kept.push(level);
                        }
                    }
                    if let Some(p) = predicate {
                        conjuncts.extend(p.split_conjuncts().into_iter().cloned());
                    }
                    let mut planned = rewrite_join(*left, *right, conjuncts, catalog, positional);
                    for predicate in kept.into_iter().rev() {
                        planned = Plan::Filter {
                            input: Box::new(planned),
                            predicate,
                        };
                    }
                    planned
                }
                other => {
                    // Not a join: keep the stack exactly as written.
                    let mut planned = plan_joins_impl(other, catalog, positional);
                    for predicate in levels.into_iter().rev() {
                        planned = Plan::Filter {
                            input: Box::new(planned),
                            predicate,
                        };
                    }
                    planned
                }
            }
        }
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            let conjuncts = match predicate {
                Some(p) => p.split_conjuncts().into_iter().cloned().collect(),
                None => Vec::new(),
            };
            rewrite_join(*left, *right, conjuncts, catalog, positional)
        }
        // Everything else only hands the pass on to its inputs. That
        // includes `OuterJoin`: its ON predicate stays on the logical node
        // — the vectorized anti/outer probe extracts equi-keys itself, and
        // rewriting to `HashJoin` would lose the padding semantics.
        other => other.map_inputs(|p| plan_joins_impl(p, catalog, positional)),
    }
}

/// Plan one join given every conjunct that constrains it (its own predicate
/// plus any filters that sat on top of it).
fn rewrite_join(
    left: Plan,
    right: Plan,
    conjuncts: Vec<Expr>,
    catalog: &Catalog,
    positional: bool,
) -> Plan {
    let left = plan_joins_impl(left, catalog, positional);
    let right = plan_joins_impl(right, catalog, positional);
    let (ls, rs) = match (plan_schema(&left, catalog), plan_schema(&right, catalog)) {
        (Ok(l), Ok(r)) => (l, r),
        // Unknown table / malformed subtree: leave the join alone; execution
        // reports the same error the unoptimized plan would.
        _ => {
            return Plan::Join {
                left: Box::new(left),
                right: Box::new(right),
                predicate: option_conjunction(conjuncts),
            }
        }
    };
    let la = ls.arity();

    let mut left_only: Vec<Expr> = Vec::new();
    let mut right_only: Vec<Expr> = Vec::new();
    let mut keys: Vec<(Expr, Expr)> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for c in conjuncts {
        // A conjunct moved below the join gets evaluated on rows the join
        // would have excluded; that is only sound when its evaluation
        // cannot *error* there (predicates over columns/literals degrade to
        // Unknown on bad types, but arithmetic raises). Error-capable
        // single-side conjuncts stay in the residual instead, which runs on
        // the same joined rows the original filter saw.
        match side_of(&c, &ls, &rs, la, positional).filter(|_| is_error_free(&c)) {
            Some(Side::Left) => left_only.push(c),
            Some(Side::Right) => right_only.push(shift_columns(&c, la)),
            None => {
                if let Expr::Cmp(CmpOp::Eq, a, b) = &c {
                    match (
                        side_of(a, &ls, &rs, la, positional),
                        side_of(b, &ls, &rs, la, positional),
                    ) {
                        (Some(Side::Left), Some(Side::Right)) => {
                            keys.push(((**a).clone(), shift_columns(b, la)));
                            continue;
                        }
                        (Some(Side::Right), Some(Side::Left)) => {
                            keys.push(((**b).clone(), shift_columns(a, la)));
                            continue;
                        }
                        _ => {}
                    }
                }
                residual.push(c);
            }
        }
    }

    // Single-side conjuncts become selections below the join; re-plan a
    // child only when the new filter actually sits on an (unplanned) join
    // it could merge into — anything else would re-traverse an
    // already-planned subtree for nothing. Projections may separate the
    // fresh filter from that join (the `⟦·⟧_UA` rewriting wraps every join
    // in a marker-combining Map, so on the row UA path a 3-way join's
    // inner joins are always behind one); the filter is first sunk through
    // them, then planning merges it — keeping the row and vectorized
    // paths' join trees, and hence their row orders, in lockstep.
    let replan = |child: Plan, gained: bool, catalog: &Catalog| -> Plan {
        if !gained {
            return child;
        }
        if peels_to_join(&child) {
            return plan_joins_impl(child, catalog, positional);
        }
        if peels_to_join_through_maps(&child) {
            return plan_joins_impl(push_filters(child, catalog), catalog, positional);
        }
        child
    };
    let gained_left = !left_only.is_empty();
    let gained_right = !right_only.is_empty();
    let left = replan(wrap_filters(left, left_only), gained_left, catalog);
    let right = replan(wrap_filters(right, right_only), gained_right, catalog);

    if keys.is_empty() {
        return Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
            predicate: option_conjunction(residual),
        };
    }
    let build_left = match (
        estimate_rows(&left, catalog),
        estimate_rows(&right, catalog),
    ) {
        (Some(l), Some(r)) => l < r,
        _ => false,
    };
    Plan::HashJoin {
        left: Box::new(left),
        right: Box::new(right),
        keys,
        residual: option_conjunction(residual),
        build_left,
    }
}

/// Default selectivity for predicates the statistics cannot estimate
/// (System R's classic 1/3).
pub const DEFAULT_FILTER_SELECTIVITY: f64 = 1.0 / 3.0;

/// A planned join whose estimated and actual cardinalities differ by at
/// least this factor (in either direction) counts as misestimated in
/// [`record_join_misestimates`].
pub const MISESTIMATE_RATIO: f64 = 4.0;

/// Planner feedback: walk an executed query's per-operator stats tree and
/// record, in the global [`ua_obs`] registry, how the optimizer's
/// cardinality estimates held up against reality on every planned join.
///
/// Three metrics are maintained:
///
/// * `planner.join.observed` — joins executed with an estimate available;
/// * `planner.join.misestimated` — of those, how many were off by
///   [`MISESTIMATE_RATIO`]× or more (either direction);
/// * `planner.join.est_ratio_x100` — histogram of
///   `100 · max(actual/est, est/actual)`, so `mean()/100` is the average
///   misestimation factor.
///
/// A climbing misestimated/observed ratio is the signal that catalog
/// statistics have drifted from the live store and
/// [`crate::storage::Catalog::analyze`] should be re-run.
pub fn record_join_misestimates(root: &ua_obs::OperatorStats) {
    let reg = ua_obs::global();
    root.walk(&mut |node| {
        let joinish = matches!(node.name.as_str(), "Join" | "HashJoin" | "Cross");
        if !joinish {
            return;
        }
        let Some(est) = node.est_rows else { return };
        let actual = node.rows_out;
        reg.counter("planner.join.observed").inc();
        // Ratio in "x100" fixed point; a zero on one side with rows on the
        // other is an unbounded miss — clamp to the histogram's range.
        let ratio = match (est, actual) {
            (0, 0) => 1.0,
            (0, _) | (_, 0) => f64::from(u32::MAX),
            (e, a) => {
                let (e, a) = (e as f64, a as f64);
                (a / e).max(e / a)
            }
        };
        reg.histogram("planner.join.est_ratio_x100")
            .record((ratio * 100.0) as u64);
        if ratio >= MISESTIMATE_RATIO {
            reg.counter("planner.join.misestimated").inc();
        }
    });
}

/// Cardinality estimation anchored on catalog statistics
/// ([`crate::storage::TableStats`], collected from the live store): scans
/// report actual row counts, filters apply histogram/ndv-based
/// selectivities ([`DEFAULT_FILTER_SELECTIVITY`] when unestimable), and
/// equi-joins apply `1/max(ndv)` per key pair. Used for hash build-side
/// selection and join-order costing.
pub fn estimate_rows(plan: &Plan, catalog: &Catalog) -> Option<u64> {
    estimate_rows_f(plan, catalog).map(|n| n.ceil() as u64)
}

fn estimate_rows_f(plan: &Plan, catalog: &Catalog) -> Option<f64> {
    match plan {
        Plan::Scan(name) => catalog.stats_of(name).map(|s| s.rows as f64),
        Plan::Alias { input, .. } | Plan::Map { input, .. } | Plan::Sort { input, .. } => {
            estimate_rows_f(input, catalog)
        }
        // Deduplicated cardinality, NOT the input's: like the Aggregate
        // arm below, the output is capped by the product of the columns'
        // distinct counts. Passing the input estimate through here let
        // joins above a DISTINCT subquery inherit the pre-dedup row count
        // and trip `planner.join.misestimated` on correct plans.
        Plan::Distinct { input } => {
            let rows = estimate_rows_f(input, catalog)?;
            let Ok(schema) = plan_schema(input, catalog) else {
                return Some(rows);
            };
            let mut groups = 1.0f64;
            for i in 0..schema.arity() {
                // Unknown-ndv columns keep the conservative pass-through.
                let Some(ndv) = expr_ndv(&Expr::Col(i), input, catalog) else {
                    return Some(rows);
                };
                groups *= ndv;
            }
            Some(groups.min(rows))
        }
        // Post-grouping cardinality, NOT the input's: one output row per
        // group (a global aggregate always emits exactly one row — det
        // and AU alike). Passing the input estimate through here let
        // joins above an aggregate subquery inherit the pre-grouping row
        // count and trip `planner.join.misestimated` on correct plans.
        Plan::Aggregate {
            input, group_by, ..
        } => {
            if group_by.is_empty() {
                return Some(1.0);
            }
            let rows = estimate_rows_f(input, catalog)?;
            let mut groups = 1.0f64;
            for key in group_by {
                // Unknown-ndv keys keep the conservative pass-through.
                let Some(ndv) = expr_ndv(&key.expr, input, catalog) else {
                    return Some(rows);
                };
                groups *= ndv;
            }
            Some(groups.min(rows))
        }
        Plan::Filter { input, predicate } => {
            let rows = estimate_rows_f(input, catalog)?;
            Some(rows * predicate_selectivity(predicate, input, catalog))
        }
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            let l = estimate_rows_f(left, catalog)?;
            let r = estimate_rows_f(right, catalog)?;
            match predicate {
                None => Some(l * r),
                Some(p) => {
                    // Estimate extractable equality conjuncts with ndv
                    // statistics; anything else keeps the key/foreign-key
                    // guess of max(l, r).
                    let sel = equi_conjunct_selectivity(p, left, right, catalog, l, r);
                    match sel {
                        Some(sel) => Some(l * r * sel),
                        None => Some(l.max(r)),
                    }
                }
            }
        }
        Plan::HashJoin {
            left, right, keys, ..
        } => {
            let l = estimate_rows_f(left, catalog)?;
            let r = estimate_rows_f(right, catalog)?;
            let mut out = l * r;
            for (kl, kr) in keys {
                out *= key_pair_selectivity(kl, left, kr, right, catalog, l, r);
            }
            Some(out)
        }
        Plan::UnionAll { left, right } => {
            Some(estimate_rows_f(left, catalog)? + estimate_rows_f(right, catalog)?)
        }
        // A difference keeps at most the left side's rows (the removal
        // count is not estimable without value overlap statistics); the
        // distinct variant additionally dedupes like `Distinct`.
        Plan::Except { left, all, .. } => {
            if *all {
                estimate_rows_f(left, catalog)
            } else {
                estimate_rows_f(
                    &Plan::Distinct {
                        input: left.clone(),
                    },
                    catalog,
                )
            }
        }
        // Inner-join estimate, floored by the preserved side: every
        // preserved row appears at least once (matched or NULL-padded).
        Plan::OuterJoin {
            left,
            right,
            predicate,
            kind,
        } => {
            let l = estimate_rows_f(left, catalog)?;
            let r = estimate_rows_f(right, catalog)?;
            let inner = match predicate {
                None => l * r,
                Some(p) => match equi_conjunct_selectivity(p, left, right, catalog, l, r) {
                    Some(sel) => l * r * sel,
                    None => l.max(r),
                },
            };
            let preserved = match kind {
                crate::plan::OuterKind::Left => l,
                crate::plan::OuterKind::Right => r,
            };
            Some(inner.max(preserved))
        }
        Plan::Limit { input, limit } => Some(estimate_rows_f(input, catalog)?.min(*limit as f64)),
        Plan::TopK { input, limit, .. } => {
            Some(estimate_rows_f(input, catalog)?.min(*limit as f64))
        }
    }
}

/// Selectivity of one equi-key pair: `1/max(ndv_left, ndv_right)`, with a
/// column's row count standing in when its distinct count is unknown.
fn key_pair_selectivity(
    kl: &Expr,
    left: &Plan,
    kr: &Expr,
    right: &Plan,
    catalog: &Catalog,
    l_rows: f64,
    r_rows: f64,
) -> f64 {
    let ndv_l = expr_ndv(kl, left, catalog).unwrap_or(l_rows);
    let ndv_r = expr_ndv(kr, right, catalog).unwrap_or(r_rows);
    1.0 / ndv_l.max(ndv_r).max(1.0)
}

/// ndv-based selectivity of a join predicate's extractable equality
/// conjuncts: `Some` only when every conjunct is a two-sided equality over
/// the inputs (otherwise the caller keeps its θ-join guess).
fn equi_conjunct_selectivity(
    predicate: &Expr,
    left: &Plan,
    right: &Plan,
    catalog: &Catalog,
    // The inputs' row estimates, passed in by the caller (who already has
    // them) so join-tree estimation stays linear in plan depth.
    l_rows: f64,
    r_rows: f64,
) -> Option<f64> {
    let ls = plan_schema(left, catalog).ok()?;
    let rs = plan_schema(right, catalog).ok()?;
    let la = ls.arity();
    let mut sel = 1.0;
    for c in predicate.split_conjuncts() {
        let Expr::Cmp(CmpOp::Eq, a, b) = c else {
            return None;
        };
        let (l_expr, r_expr) = match (
            side_of(a, &ls, &rs, la, true),
            side_of(b, &ls, &rs, la, true),
        ) {
            (Some(Side::Left), Some(Side::Right)) => ((**a).clone(), shift_columns(b, la)),
            (Some(Side::Right), Some(Side::Left)) => ((**b).clone(), shift_columns(a, la)),
            _ => return None,
        };
        sel *= key_pair_selectivity(&l_expr, left, &r_expr, right, catalog, l_rows, r_rows);
    }
    Some(sel)
}

/// Distinct-value count of an expression over a plan's output: traced to
/// base-table column statistics when the expression is a plain column
/// reference, `None` otherwise.
fn expr_ndv(expr: &Expr, plan: &Plan, catalog: &Catalog) -> Option<f64> {
    let idx = expr_column_index(expr, plan, catalog)?;
    let (stats, col) = base_column_stats(plan, idx, catalog)?;
    Some(stats.columns.get(col)?.distinct.max(1) as f64)
}

/// Resolve a plain column reference against a plan's output schema.
fn expr_column_index(expr: &Expr, plan: &Plan, catalog: &Catalog) -> Option<usize> {
    match expr {
        Expr::Col(i) => Some(*i),
        Expr::Named(n) => plan_schema(plan, catalog).ok()?.resolve(n).ok(),
        _ => None,
    }
}

/// Trace output column `idx` of `plan` back to a base-table column and its
/// statistics, looking through aliases, filters, limits/sorts, joins and
/// column-reference projections.
fn base_column_stats(
    plan: &Plan,
    idx: usize,
    catalog: &Catalog,
) -> Option<(Arc<TableStats>, usize)> {
    match plan {
        Plan::Scan(name) => Some((catalog.stats_of(name)?, idx)),
        Plan::Alias { input, .. }
        | Plan::Filter { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::TopK { input, .. }
        | Plan::Distinct { input } => base_column_stats(input, idx, catalog),
        Plan::Map { input, columns } => {
            let col = columns.get(idx)?;
            let inner_idx = match &col.expr {
                Expr::Col(i) => *i,
                Expr::Named(n) => plan_schema(input, catalog).ok()?.resolve(n).ok()?,
                _ => return None,
            };
            base_column_stats(input, inner_idx, catalog)
        }
        Plan::Join { left, right, .. }
        | Plan::HashJoin { left, right, .. }
        | Plan::OuterJoin { left, right, .. } => {
            let la = plan_schema(left, catalog).ok()?.arity();
            if idx < la {
                base_column_stats(left, idx, catalog)
            } else {
                base_column_stats(right, idx - la, catalog)
            }
        }
        // Except's output columns are the left side's (a subset of its
        // rows, so base distinct counts stay sound upper bounds).
        Plan::Except { left, .. } => base_column_stats(left, idx, catalog),
        Plan::UnionAll { .. } | Plan::Aggregate { .. } => None,
    }
}

/// Estimated fraction of `input`'s rows a predicate keeps, in `[0, 1]`.
///
/// Histogram-backed for range comparisons against numeric literals,
/// `1/ndv` for equalities, composed through AND/OR/NOT;
/// [`DEFAULT_FILTER_SELECTIVITY`] for anything the statistics cannot see.
pub fn predicate_selectivity(predicate: &Expr, input: &Plan, catalog: &Catalog) -> f64 {
    selectivity_of(predicate, input, catalog).clamp(0.0, 1.0)
}

fn selectivity_of(predicate: &Expr, input: &Plan, catalog: &Catalog) -> f64 {
    match predicate {
        Expr::And(a, b) => selectivity_of(a, input, catalog) * selectivity_of(b, input, catalog),
        Expr::Or(a, b) => {
            let (sa, sb) = (
                selectivity_of(a, input, catalog),
                selectivity_of(b, input, catalog),
            );
            (sa + sb - sa * sb).min(1.0)
        }
        Expr::Not(a) => 1.0 - selectivity_of(a, input, catalog),
        Expr::Cmp(op, a, b) => {
            cmp_selectivity(*op, a, b, input, catalog).unwrap_or(DEFAULT_FILTER_SELECTIVITY)
        }
        Expr::Between(e, lo, hi) => {
            let ge = cmp_selectivity(CmpOp::Ge, e, lo, input, catalog);
            let le = cmp_selectivity(CmpOp::Le, e, hi, input, catalog);
            match (ge, le) {
                // P[lo <= x <= hi] = P[x <= hi] - P[x < lo] = le - (1 - ge).
                (Some(ge), Some(le)) => (ge + le - 1.0).max(0.0),
                _ => DEFAULT_FILTER_SELECTIVITY,
            }
        }
        Expr::InList(e, list) => {
            let eq_sum: Option<f64> = list
                .iter()
                .map(|lit| cmp_selectivity(CmpOp::Eq, e, lit, input, catalog))
                .sum();
            eq_sum
                .map(|s| s.min(1.0))
                .unwrap_or(DEFAULT_FILTER_SELECTIVITY)
        }
        Expr::IsNull(e) => null_fraction(e, input, catalog).unwrap_or(DEFAULT_FILTER_SELECTIVITY),
        _ => DEFAULT_FILTER_SELECTIVITY,
    }
}

fn null_fraction(expr: &Expr, input: &Plan, catalog: &Catalog) -> Option<f64> {
    let idx = expr_column_index(expr, input, catalog)?;
    let (stats, col) = base_column_stats(input, idx, catalog)?;
    if stats.rows == 0 {
        return Some(0.0);
    }
    Some(stats.columns.get(col)?.nulls as f64 / stats.rows as f64)
}

/// Selectivity of `a op b` where one side is a plain column and the other a
/// literal; `None` when the statistics cannot estimate the shape.
fn cmp_selectivity(op: CmpOp, a: &Expr, b: &Expr, input: &Plan, catalog: &Catalog) -> Option<f64> {
    // Normalize to column-op-literal.
    let (col_expr, lit, op) = match (a, b) {
        (col @ (Expr::Col(_) | Expr::Named(_)), Expr::Lit(v)) => (col, v, op),
        (Expr::Lit(v), col @ (Expr::Col(_) | Expr::Named(_))) => (col, v, flip_cmp(op)),
        _ => return None,
    };
    let idx = expr_column_index(col_expr, input, catalog)?;
    let (stats, col) = base_column_stats(input, idx, catalog)?;
    let cs = stats.columns.get(col)?;
    let eq_sel = || {
        let s = 1.0 / cs.distinct.max(1) as f64;
        // A literal provably outside the column's range never matches.
        match (&cs.histogram, lit.as_f64()) {
            (Some(h), Some(v)) if v < h.lo || v > h.hi => 0.0,
            _ => s,
        }
    };
    match op {
        CmpOp::Eq => Some(eq_sel()),
        CmpOp::Ne => Some(1.0 - eq_sel()),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let h = cs.histogram.as_ref()?;
            let v = lit.as_f64()?;
            Some(match op {
                // The continuous-uniform bucket model puts zero mass on any
                // single point, so a strict bound *at* an observed extreme
                // would estimate 1.0 even when many rows equal it; clamp
                // those cases by the equality point mass (1/ndv) instead.
                CmpOp::Lt if v == h.hi => (1.0 - eq_sel()).max(0.0),
                CmpOp::Lt => h.fraction_below(v, false),
                CmpOp::Le if v == h.lo => eq_sel(),
                CmpOp::Le => h.fraction_below(v, true),
                CmpOp::Gt if v == h.lo => (1.0 - eq_sel()).max(0.0),
                CmpOp::Gt => 1.0 - h.fraction_below(v, true),
                CmpOp::Ge if v == h.hi => eq_sel(),
                CmpOp::Ge => 1.0 - h.fraction_below(v, false),
                _ => unreachable!("range ops only"),
            })
        }
    }
}

fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Maximum number of relations the join-order DP enumerates exhaustively;
/// larger joins fall back to greedy pairwise merging.
pub const DP_MAX_RELATIONS: usize = 6;

/// Reorder 3+-way join trees by estimated cost (pipeline pass 2; see the
/// module docs). Positional (`Expr::Col`) references are classified and
/// remapped — use [`reorder_joins_ua`] when runtime schemas differ from
/// `plan_schema`.
pub fn reorder_joins(plan: Plan, catalog: &Catalog) -> Plan {
    reorder_joins_impl(plan, catalog, true)
}

/// [`reorder_joins`] for *user* `RA⁺` plans over UA-annotated sources, as
/// run by `UaSession` before the `⟦·⟧_UA` rewriting: leaf schemas are the
/// encoded tables' schemas with the trailing `ua_c` marker stripped (the
/// user-visible columns), classification is name-based only (a user
/// position counts user columns, not `plan_schema`'s encoded ones), and
/// the emitted plan stays in the `RA⁺` fragment so `Plan::to_ra`
/// succeeds.
pub fn reorder_joins_ua(plan: Plan, catalog: &Catalog) -> Plan {
    reorder_joins_impl(plan, catalog, false)
}

fn reorder_joins_impl(plan: Plan, catalog: &Catalog, positional: bool) -> Plan {
    if peels_to_join(&plan) {
        return match try_reorder(&plan, catalog, positional) {
            Some(reordered) => reordered,
            // The region was analyzed and left as-written (best order
            // already, or unreorderable). Walk through its filters and
            // joins WITHOUT re-analyzing them — re-running `try_reorder`
            // on the bare join under the filter stack would reorder by
            // raw cross-product sizes, blind to the stack's conjuncts —
            // and give only the region's leaves their own turn.
            None => descend_region(plan, catalog, positional),
        };
    }
    // The node itself stays, its inputs get their turn. `Except` and
    // `OuterJoin` are reorder barriers — `flatten_join_tree` treats both as
    // leaves (a difference or padded join cannot commute with inner joins)
    // — but each side is its own reorderable region.
    plan.map_inputs(|p| reorder_joins_impl(p, catalog, positional))
}

/// Recurse into an analyzed-but-unchanged join region: filters and joins
/// pass through untouched, leaves re-enter the reorder pass.
fn descend_region(plan: Plan, catalog: &Catalog, positional: bool) -> Plan {
    match plan {
        Plan::Filter { .. } | Plan::Join { .. } => {
            plan.map_inputs(|p| descend_region(p, catalog, positional))
        }
        other => reorder_joins_impl(other, catalog, positional),
    }
}

/// Where one conjunct of the flattened join graph ends up.
enum Placement {
    /// Error-free conjunct over a single relation: selection on that leaf
    /// (expression remapped to leaf-local positions).
    LeafFilter(usize, Expr),
    /// Two-sided equality linking two relations: a join edge. Key
    /// expressions are stored leaf-local.
    Edge {
        l: usize,
        r: usize,
        l_expr: Expr,
        r_expr: Expr,
    },
    /// Error-free conjunct spanning ≥ 2 relations (mask of leaf bits):
    /// predicate at its lowest covering join node.
    Node(u64, Expr),
    /// Everything else — error-capable, constant, or unresolvable
    /// conjuncts: filter over the full join result, where evaluation sees
    /// exactly the rows the original filter stack saw (and unresolvable
    /// references report the same binding errors).
    Top(Expr),
}

/// A binary join order over leaf indices.
#[derive(Clone, PartialEq, Debug)]
enum Tree {
    Leaf(usize),
    Node(u64, Box<Tree>, Box<Tree>),
}

impl Tree {
    fn mask(&self) -> u64 {
        match self {
            Tree::Leaf(i) => 1u64 << i,
            Tree::Node(mask, ..) => *mask,
        }
    }

    fn inorder(&self, out: &mut Vec<usize>) {
        match self {
            Tree::Leaf(i) => out.push(*i),
            Tree::Node(_, a, b) => {
                a.inorder(out);
                b.inorder(out);
            }
        }
    }
}

/// Attempt the n-ary reorder of a filter-stack-over-join region. `None`
/// means "leave the plan for the binary passes": fewer than 3 relations,
/// unresolvable schemas, positional references in name-only mode, an
/// unexpressible column-order restoration, or a chosen order equal to the
/// as-written one.
fn try_reorder(plan: &Plan, catalog: &Catalog, positional: bool) -> Option<Plan> {
    // Peel the filter stack sitting on the outermost join.
    let mut conjuncts: Vec<Expr> = Vec::new();
    let mut core = plan;
    while let Plan::Filter { input, predicate } = core {
        conjuncts.extend(predicate.split_conjuncts().into_iter().cloned());
        core = input;
    }
    let mut leaf_refs: Vec<&Plan> = Vec::new();
    let as_written = flatten_join_tree(core, &mut leaf_refs, &mut conjuncts);
    let n = leaf_refs.len();
    if !(3..=63).contains(&n) {
        return None;
    }

    // Reorder within each leaf first (subqueries carry their own joins),
    // then snapshot schemas. Name-only mode means the executor's runtime
    // schemas are the user-visible ones, not `plan_schema`'s encoded ones.
    let leaves: Vec<Plan> = leaf_refs
        .into_iter()
        .map(|l| reorder_joins_impl(l.clone(), catalog, positional))
        .collect();
    let schemas: Vec<Schema> = leaves
        .iter()
        .map(|l| {
            let s = plan_schema(l, catalog).ok()?;
            Some(if positional { s } else { user_visible(s) })
        })
        .collect::<Option<_>>()?;
    let offsets: Vec<usize> = schemas
        .iter()
        .scan(0usize, |acc, s| {
            let off = *acc;
            *acc += s.arity();
            Some(off)
        })
        .collect();
    let total_arity: usize = schemas.iter().map(Schema::arity).sum();
    let leaf_of_pos = |p: usize| -> Option<usize> {
        (p < total_arity).then(|| offsets.iter().rposition(|&off| off <= p).expect("offset 0"))
    };

    // Classify every conjunct against the leaf schemas.
    let mut placements: Vec<Placement> = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        placements.push(classify_conjunct(
            c,
            &schemas,
            &offsets,
            &leaf_of_pos,
            positional,
        )?);
    }
    close_transitive_edges(&mut placements);

    // Cost inputs: per-leaf cardinalities with their pushed-down filter
    // selectivities applied, and per-edge `1/max(ndv)` selectivities.
    let mut leaf_rows: Vec<f64> = leaves
        .iter()
        .map(|l| estimate_rows_f(l, catalog).unwrap_or(1000.0))
        .collect();
    for p in &placements {
        if let Placement::LeafFilter(i, e) = p {
            leaf_rows[*i] *= predicate_selectivity(e, &leaves[*i], catalog);
        }
    }
    let edges: Vec<(u64, f64)> = placements
        .iter()
        .filter_map(|p| match p {
            Placement::Edge {
                l,
                r,
                l_expr,
                r_expr,
            } => {
                let sel = key_pair_selectivity(
                    l_expr,
                    &leaves[*l],
                    r_expr,
                    &leaves[*r],
                    catalog,
                    leaf_rows[*l],
                    leaf_rows[*r],
                );
                Some(((1u64 << l) | (1u64 << r), sel))
            }
            _ => None,
        })
        .collect();
    let rows_of = |mask: u64| -> f64 {
        let mut rows = 1.0;
        for (i, &r) in leaf_rows.iter().enumerate() {
            if mask & (1 << i) != 0 {
                rows *= r;
            }
        }
        for &(emask, sel) in &edges {
            if emask & mask == emask {
                rows *= sel;
            }
        }
        rows
    };

    let tree = if n <= DP_MAX_RELATIONS {
        dp_order(n, &edges, &rows_of)?
    } else {
        greedy_order(n, &edges, &rows_of)
    };
    if tree == as_written {
        return None; // the as-written shape is already best: leave it alone
    }

    emit_reordered(
        &tree,
        &leaves,
        &schemas,
        &offsets,
        placements,
        total_arity,
        positional,
    )
}

/// Close the join-edge set over equality-transitivity: `a.x = b.x AND
/// b.x = c.x` implies `a.x = c.x`, but without the implied edge the order
/// enumeration never considers joining `a` and `c` directly — the pair
/// looks like a cross product, so orders routing through the implied
/// equality were unreachable however cheap. Union-find over the distinct
/// `(leaf, key expression)` endpoints of the [`Placement::Edge`]s; every
/// same-class cross-leaf pair without a direct edge becomes one. Implied
/// edges are genuine placements — costed by the DP *and* emitted as
/// predicates at their covering node — so the cost model stays honest
/// about the orders it ranks (a node joined only through an implied edge
/// really does execute with that equality).
fn close_transitive_edges(placements: &mut Vec<Placement>) {
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    fn endpoint(
        endpoints: &mut Vec<(usize, Expr)>,
        parent: &mut Vec<usize>,
        l: usize,
        e: &Expr,
    ) -> usize {
        match endpoints.iter().position(|(pl, pe)| *pl == l && pe == e) {
            Some(i) => i,
            None => {
                endpoints.push((l, e.clone()));
                parent.push(parent.len());
                endpoints.len() - 1
            }
        }
    }
    let mut endpoints: Vec<(usize, Expr)> = Vec::new();
    let mut parent: Vec<usize> = Vec::new();
    let mut direct: Vec<(usize, usize)> = Vec::new();
    for p in placements.iter() {
        if let Placement::Edge {
            l,
            r,
            l_expr,
            r_expr,
        } = p
        {
            let a = endpoint(&mut endpoints, &mut parent, *l, l_expr);
            let b = endpoint(&mut endpoints, &mut parent, *r, r_expr);
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra] = rb;
            direct.push((a.min(b), a.max(b)));
        }
    }
    for a in 0..endpoints.len() {
        for b in (a + 1)..endpoints.len() {
            if endpoints[a].0 == endpoints[b].0
                || find(&mut parent, a) != find(&mut parent, b)
                || direct.contains(&(a, b))
            {
                continue;
            }
            placements.push(Placement::Edge {
                l: endpoints[a].0,
                r: endpoints[b].0,
                l_expr: endpoints[a].1.clone(),
                r_expr: endpoints[b].1.clone(),
            });
        }
    }
}

/// Flatten a tree of joins into its leaves and one conjunct set, returning
/// the *as-written* join shape over those leaf indices (the baseline the
/// chosen order is compared against — an input can be left-deep, right-deep
/// or bushy). Nested filter stacks over joins are absorbed only when every
/// conjunct is error-free (relocating an error-capable predicate could
/// change *where* evaluation errors surface); anything else becomes a leaf
/// boundary.
fn flatten_join_tree<'a>(
    plan: &'a Plan,
    leaves: &mut Vec<&'a Plan>,
    conjuncts: &mut Vec<Expr>,
) -> Tree {
    match plan {
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            let lt = flatten_join_tree(left, leaves, conjuncts);
            let rt = flatten_join_tree(right, leaves, conjuncts);
            if let Some(p) = predicate {
                conjuncts.extend(p.split_conjuncts().into_iter().cloned());
            }
            Tree::Node(lt.mask() | rt.mask(), Box::new(lt), Box::new(rt))
        }
        Plan::Filter { .. } => {
            let mut stack: Vec<Expr> = Vec::new();
            let mut core = plan;
            while let Plan::Filter { input, predicate } = core {
                stack.extend(predicate.split_conjuncts().into_iter().cloned());
                core = input;
            }
            if matches!(core, Plan::Join { .. }) && stack.iter().all(is_error_free) {
                let tree = flatten_join_tree(core, leaves, conjuncts);
                conjuncts.append(&mut stack);
                tree
            } else {
                leaves.push(plan);
                Tree::Leaf(leaves.len() - 1)
            }
        }
        other => {
            leaves.push(other);
            Tree::Leaf(leaves.len() - 1)
        }
    }
}

/// The user-visible part of an encoded leaf schema: everything but the
/// system columns (the UA `ua_c` marker, the AU bound and multiplicity
/// sidecars). Reordering classifies conjuncts and restores column order
/// against these — the schemas a user plan over UA tables (before its
/// rewriting) and the AU relations speak of — so a restoring projection
/// never names a bookkeeping column.
fn user_visible(schema: Schema) -> Schema {
    Schema::new(
        schema
            .columns()
            .iter()
            .filter(|c| !is_system_column(c))
            .cloned()
            .collect(),
    )
}

/// Classify one conjunct of the flattened join graph. Returns `None` only
/// for shapes that must disable reordering altogether (positional
/// references in name-only mode, or positions outside the joined schema).
fn classify_conjunct(
    c: Expr,
    schemas: &[Schema],
    offsets: &[usize],
    leaf_of_pos: &dyn Fn(usize) -> Option<usize>,
    positional: bool,
) -> Option<Placement> {
    let mut cols: Vec<usize> = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    collect_refs(&c, &mut cols, &mut names);
    if !cols.is_empty() && !positional {
        // Runtime schemas disagree with plan_schema on positions: any
        // reorder would rebind these at the wrong columns.
        return None;
    }
    let mut mask = 0u64;
    let mut unresolvable = false;
    for &p in &cols {
        match leaf_of_pos(p) {
            Some(l) => mask |= 1 << l,
            // A position outside the joined schema errors at bind time;
            // reordering cannot remap it, so it must disable the rewrite.
            None => return None,
        }
    }
    for n in &names {
        match leaf_of_name(n, schemas) {
            NameLeaf::One(l) => mask |= 1 << l,
            NameLeaf::None | NameLeaf::Many => {
                unresolvable = true;
            }
        }
    }
    drop(names);
    if unresolvable || mask == 0 {
        return Some(Placement::Top(c));
    }
    if mask.count_ones() == 1 {
        let l = mask.trailing_zeros() as usize;
        if is_error_free(&c) {
            let local = remap_positions(&c, &|p| p - offsets[l]);
            return Some(Placement::LeafFilter(l, local));
        }
        return Some(Placement::Top(c));
    }
    // Join edges, like every placement below a full-join filter, are
    // restricted to error-free conjuncts: an edge's key expressions are
    // evaluated per input row at whichever node the order puts it, so an
    // error-capable equality (arithmetic can raise) relocated to an inner
    // join could fail on rows the original plan never evaluated it on.
    if mask.count_ones() == 2 && is_error_free(&c) {
        if let Expr::Cmp(CmpOp::Eq, a, b) = &c {
            let side_leaf = |e: &Expr| -> Option<usize> {
                let mut cols = Vec::new();
                let mut names = Vec::new();
                collect_refs(e, &mut cols, &mut names);
                let mut m = 0u64;
                for &p in &cols {
                    m |= 1 << leaf_of_pos(p)?;
                }
                for n in &names {
                    match leaf_of_name(n, schemas) {
                        NameLeaf::One(l) => m |= 1 << l,
                        _ => return None,
                    }
                }
                (m.count_ones() == 1).then(|| m.trailing_zeros() as usize)
            };
            if let (Some(l), Some(r)) = (side_leaf(a), side_leaf(b)) {
                if l != r {
                    return Some(Placement::Edge {
                        l,
                        r,
                        l_expr: remap_positions(a, &|p| p - offsets[l]),
                        r_expr: remap_positions(b, &|p| p - offsets[r]),
                    });
                }
            }
        }
    }
    if is_error_free(&c) {
        Some(Placement::Node(mask, c))
    } else {
        Some(Placement::Top(c))
    }
}

/// How a column name resolves across the leaf schemas.
enum NameLeaf {
    /// Unique match in exactly one leaf.
    One(usize),
    /// No leaf resolves it (unknown column in the concatenated schema).
    None,
    /// Ambiguous — within one leaf or across several.
    Many,
}

fn leaf_of_name(name: &str, schemas: &[Schema]) -> NameLeaf {
    let mut found: Option<usize> = None;
    for (l, s) in schemas.iter().enumerate() {
        match s.resolve(name) {
            Ok(_) => match found {
                None => found = Some(l),
                Some(_) => return NameLeaf::Many,
            },
            Err(SchemaError::AmbiguousColumn(_)) => return NameLeaf::Many,
            Err(_) => {}
        }
    }
    match found {
        Some(l) => NameLeaf::One(l),
        None => NameLeaf::None,
    }
}

/// Selinger-style dynamic programming over connected subsets: the best
/// plan for a subset is the cheapest way to split it into two joinable
/// halves, where cost is the cumulative estimated size of intermediate
/// results. Disconnected subsets fall back to cross-product splits so a
/// plan always exists.
fn dp_order(n: usize, edges: &[(u64, f64)], rows_of: &dyn Fn(u64) -> f64) -> Option<Tree> {
    let full: u64 = (1 << n) - 1;
    let mut best: Vec<Option<(f64, Tree)>> = vec![None; (full + 1) as usize];
    for i in 0..n {
        best[1usize << i] = Some((0.0, Tree::Leaf(i)));
    }
    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let rows = rows_of(mask);
        let low = mask & mask.wrapping_neg();
        let mut found: Option<(f64, Tree)> = None;
        for connected_only in [true, false] {
            let mut a = (mask - 1) & mask;
            while a > 0 {
                // Canonical split: the half holding the lowest leaf is the
                // left child (orientation is cosmetic — the physical pass
                // picks the hash build side by cardinality either way).
                if a & low != 0 {
                    let b = mask & !a;
                    let joinable = !connected_only
                        || edges
                            .iter()
                            .any(|&(em, _)| em & a != 0 && em & b != 0 && em & mask == em);
                    if joinable {
                        if let (Some((ca, ta)), Some((cb, tb))) =
                            (best[a as usize].as_ref(), best[b as usize].as_ref())
                        {
                            let cost = ca + cb + rows;
                            if found.as_ref().is_none_or(|(c, _)| cost < *c) {
                                found = Some((
                                    cost,
                                    Tree::Node(mask, Box::new(ta.clone()), Box::new(tb.clone())),
                                ));
                            }
                        }
                    }
                }
                a = (a - 1) & mask;
            }
            if found.is_some() {
                break;
            }
        }
        best[mask as usize] = found;
    }
    best[full as usize].take().map(|(_, t)| t)
}

/// Greedy operator ordering for joins too wide for the DP: repeatedly
/// merge the pair of components with the smallest estimated join size,
/// preferring edge-connected pairs.
fn greedy_order(n: usize, edges: &[(u64, f64)], rows_of: &dyn Fn(u64) -> f64) -> Tree {
    let mut comps: Vec<Tree> = (0..n).map(Tree::Leaf).collect();
    while comps.len() > 1 {
        let mut pick: Option<(f64, usize, usize)> = None;
        for connected_only in [true, false] {
            for i in 0..comps.len() {
                for j in (i + 1)..comps.len() {
                    let mask = comps[i].mask() | comps[j].mask();
                    let joinable = !connected_only
                        || edges
                            .iter()
                            .any(|&(em, _)| em & comps[i].mask() != 0 && em & comps[j].mask() != 0);
                    if joinable {
                        let rows = rows_of(mask);
                        if pick.as_ref().is_none_or(|(r, ..)| rows < *r) {
                            pick = Some((rows, i, j));
                        }
                    }
                }
            }
            if pick.is_some() {
                break;
            }
        }
        let (_, i, j) = pick.expect("at least one pair");
        let right = comps.remove(j);
        let left = comps.remove(i);
        let mask = left.mask() | right.mask();
        comps.insert(i, Tree::Node(mask, Box::new(left), Box::new(right)));
    }
    comps.pop().expect("one component")
}

/// Emit the chosen join order as a logical plan: leaves under their pushed
/// selections, edge equalities and covered conjuncts as join predicates at
/// their lowest covering node, top conjuncts as a filter over the full
/// join, and — when the leaf sequence changed — a projection restoring the
/// as-written column order.
fn emit_reordered(
    tree: &Tree,
    leaves: &[Plan],
    schemas: &[Schema],
    offsets: &[usize],
    placements: Vec<Placement>,
    total_arity: usize,
    positional: bool,
) -> Option<Plan> {
    let mut order: Vec<usize> = Vec::with_capacity(leaves.len());
    tree.inorder(&mut order);

    // New global offset of each leaf under the reordered sequence.
    let mut new_offsets = vec![0usize; leaves.len()];
    {
        let mut acc = 0usize;
        for &l in &order {
            new_offsets[l] = acc;
            acc += schemas[l].arity();
        }
    }
    let new_pos = |p: usize| -> usize {
        let l = offsets.iter().rposition(|&off| off <= p).expect("offset 0");
        new_offsets[l] + (p - offsets[l])
    };

    let mut leaf_filters: Vec<Vec<Expr>> = vec![Vec::new(); leaves.len()];
    let mut edges: Vec<(u64, usize, usize, Expr, Expr, bool)> = Vec::new();
    let mut node_conjuncts: Vec<(u64, Expr, bool)> = Vec::new();
    let mut top: Vec<Expr> = Vec::new();
    for p in placements {
        match p {
            Placement::LeafFilter(l, e) => leaf_filters[l].push(e),
            Placement::Edge {
                l,
                r,
                l_expr,
                r_expr,
            } => edges.push(((1u64 << l) | (1u64 << r), l, r, l_expr, r_expr, false)),
            Placement::Node(mask, e) => node_conjuncts.push((mask, e, false)),
            Placement::Top(e) => top.push(e),
        }
    }

    let plan = emit_tree(
        tree,
        leaves,
        schemas,
        offsets,
        &leaf_filters,
        &mut edges,
        &mut node_conjuncts,
    );
    // Edges whose endpoints never ended up split across a node (possible
    // only in degenerate shapes) and leftovers keep their semantics at the
    // top, alongside the conjuncts routed there directly.
    let mut leftovers: Vec<Expr> = Vec::new();
    for (_, l, r, l_expr, r_expr, used) in &edges {
        if !used {
            leftovers.push(Expr::Cmp(
                CmpOp::Eq,
                Box::new(remap_positions(l_expr, &|p| p + new_offsets[*l])),
                Box::new(remap_positions(r_expr, &|p| p + new_offsets[*r])),
            ));
        }
    }
    for (_, e, placed) in &node_conjuncts {
        if !placed {
            leftovers.push(remap_positions(e, &new_pos));
        }
    }
    // Leftovers (all error-free) merge into one conjunction, but the Top
    // conjuncts — error-capable or unresolvable — are stacked as
    // *individual* filters in their original inner-to-outer order: `And`
    // evaluates both operands eagerly, so merging them would run an outer
    // error-capable predicate on rows an inner one used to exclude (e.g.
    // a `x <> 0` guard under `100 / x > 10`). `top` holds conjuncts in
    // peel order (outermost first), hence the reverse.
    let mut plan = wrap_filters(plan, leftovers);
    for e in top.into_iter().rev() {
        plan = Plan::Filter {
            input: Box::new(plan),
            predicate: remap_positions(&e, &new_pos),
        };
    }

    // Column-order restoration, needed whenever the leaf sequence moved.
    let identity: Vec<usize> = (0..leaves.len()).collect();
    if order == identity {
        return Some(plan);
    }
    let reordered_schema = {
        let mut cols = Vec::with_capacity(total_arity);
        for &l in &order {
            cols.extend(schemas[l].columns().iter().cloned());
        }
        Schema::new(cols)
    };
    let mut columns = Vec::with_capacity(total_arity);
    for (l, schema) in schemas.iter().enumerate() {
        for (k, col) in schema.columns().iter().enumerate() {
            let target = new_offsets[l] + k;
            let expr = if positional {
                Expr::Col(target)
            } else {
                // Name-based restoration: the column's own reference must
                // resolve uniquely to its new position.
                let reference = match &col.qualifier {
                    Some(q) => format!("{q}.{}", col.name),
                    None => col.name.to_string(),
                };
                if !matches!(reordered_schema.resolve(&reference), Ok(i) if i == target) {
                    return None;
                }
                Expr::named(reference)
            };
            columns.push(ProjColumn::with_column(expr, col.clone()));
        }
    }
    Some(Plan::Map {
        input: Box::new(plan),
        columns,
    })
}

/// Recursively emit one subtree, consuming edges and node conjuncts at
/// their lowest covering node.
fn emit_tree(
    tree: &Tree,
    leaves: &[Plan],
    schemas: &[Schema],
    offsets: &[usize],
    leaf_filters: &[Vec<Expr>],
    edges: &mut Vec<(u64, usize, usize, Expr, Expr, bool)>,
    node_conjuncts: &mut Vec<(u64, Expr, bool)>,
) -> Plan {
    match tree {
        Tree::Leaf(i) => wrap_filters(leaves[*i].clone(), leaf_filters[*i].clone()),
        Tree::Node(mask, a, b) => {
            let left = emit_tree(
                a,
                leaves,
                schemas,
                offsets,
                leaf_filters,
                edges,
                node_conjuncts,
            );
            let right = emit_tree(
                b,
                leaves,
                schemas,
                offsets,
                leaf_filters,
                edges,
                node_conjuncts,
            );
            // This node's concatenated schema: subtree leaves in order.
            let mut node_order: Vec<usize> = Vec::new();
            a.inorder(&mut node_order);
            b.inorder(&mut node_order);
            let mut node_offsets = vec![0usize; leaves.len()];
            {
                let mut acc = 0usize;
                for &l in &node_order {
                    node_offsets[l] = acc;
                    acc += schemas[l].arity();
                }
            }
            let node_pos = |p: usize| -> usize {
                let l = offsets.iter().rposition(|&off| off <= p).expect("offset 0");
                node_offsets[l] + (p - offsets[l])
            };
            let (amask, bmask) = (a.mask(), b.mask());
            let mut predicate: Vec<Expr> = Vec::new();
            for (emask, l, r, l_expr, r_expr, used) in edges.iter_mut() {
                let crosses = *emask & amask != 0 && *emask & bmask != 0;
                if !*used && crosses {
                    *used = true;
                    predicate.push(Expr::Cmp(
                        CmpOp::Eq,
                        Box::new(remap_positions(l_expr, &|p| p + node_offsets[*l])),
                        Box::new(remap_positions(r_expr, &|p| p + node_offsets[*r])),
                    ));
                }
            }
            for (cmask, e, placed) in node_conjuncts.iter_mut() {
                let covered = *cmask & *mask == *cmask;
                let inside_child = *cmask & amask == *cmask || *cmask & bmask == *cmask;
                if !*placed && covered && !inside_child {
                    *placed = true;
                    predicate.push(remap_positions(e, &node_pos));
                }
            }
            Plan::Join {
                left: Box::new(left),
                right: Box::new(right),
                predicate: option_conjunction(predicate),
            }
        }
    }
}

/// Which join input an expression reads from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// Classify an expression over the concatenated join schema: `Some(side)`
/// when *every* column reference resolves on exactly that input, `None` for
/// mixed/ambiguous/unresolvable references and for constants.
///
/// Positional references split at the left arity; named references are
/// resolved against each input's schema — a name that resolves on both
/// sides (ambiguous) or neither (unknown) disqualifies the expression, so
/// the pass leaves it where binding will report the same error the
/// unoptimized plan would.
fn side_of(expr: &Expr, ls: &Schema, rs: &Schema, la: usize, positional: bool) -> Option<Side> {
    let mut cols: Vec<usize> = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    collect_refs(expr, &mut cols, &mut names);
    if cols.is_empty() && names.is_empty() {
        return None; // constant: stays in the residual
    }
    if !positional && !cols.is_empty() {
        // The caller's runtime schemas disagree with `plan_schema` on
        // positions; leave the conjunct for runtime binding.
        return None;
    }
    let mut side: Option<Side> = None;
    let mut merge = |s: Side| -> bool {
        match side {
            None => {
                side = Some(s);
                true
            }
            Some(prev) => prev == s,
        }
    };
    for c in cols {
        let s = if c < la { Side::Left } else { Side::Right };
        if !merge(s) {
            return None;
        }
    }
    for n in names {
        let (l, r) = (ls.resolve(n), rs.resolve(n));
        // A name ambiguous *within* one input is at least as ambiguous in
        // the concatenated schema: classifying it by the other side would
        // silently pick a binding where the unoptimized plan errors.
        if matches!(l, Err(SchemaError::AmbiguousColumn(_)))
            || matches!(r, Err(SchemaError::AmbiguousColumn(_)))
        {
            return None;
        }
        let s = match (l.is_ok(), r.is_ok()) {
            (true, false) => Side::Left,
            (false, true) => Side::Right,
            _ => return None,
        };
        if !merge(s) {
            return None;
        }
    }
    side
}

/// Collect positional and named column references of an expression.
fn collect_refs<'a>(expr: &'a Expr, cols: &mut Vec<usize>, names: &mut Vec<&'a str>) {
    expr.for_each_leaf(&mut |leaf| match leaf {
        Expr::Col(i) => cols.push(*i),
        Expr::Named(n) => names.push(n),
        _ => {}
    });
}

fn has_named_refs(expr: &Expr) -> bool {
    let mut named = false;
    expr.for_each_leaf(&mut |leaf| named |= matches!(leaf, Expr::Named(_)));
    named
}

/// Whether evaluating the predicate can raise an error (as opposed to
/// degrading to SQL `Unknown`) on some row: comparisons and membership
/// tests over plain columns and literals cannot (`sql_cmp` returns `None`
/// on incomparable types), but arithmetic errors on type mismatches and a
/// bare column in boolean position errors on non-boolean values.
fn is_error_free(expr: &Expr) -> bool {
    // A value-position operand that cannot error under `Expr::eval`.
    fn operand_ok(e: &Expr) -> bool {
        matches!(e, Expr::Col(_) | Expr::Named(_) | Expr::Lit(_))
    }
    match expr {
        Expr::Cmp(_, a, b) => operand_ok(a) && operand_ok(b),
        Expr::And(a, b) | Expr::Or(a, b) => is_error_free(a) && is_error_free(b),
        Expr::Not(a) => is_error_free(a),
        Expr::IsNull(a) => operand_ok(a),
        Expr::Between(e, lo, hi) => operand_ok(e) && operand_ok(lo) && operand_ok(hi),
        Expr::InList(e, list) => operand_ok(e) && list.iter().all(operand_ok),
        // Bare columns/literals in boolean position error on non-booleans;
        // arithmetic, LEAST and CASE can error on operand types.
        _ => false,
    }
}

/// Whether the plan is a join under a (possibly empty) stack of filters —
/// the only shape a freshly pushed filter can merge into.
fn peels_to_join(plan: &Plan) -> bool {
    match plan {
        Plan::Join { .. } => true,
        Plan::Filter { input, .. } => peels_to_join(input),
        _ => false,
    }
}

/// Like [`peels_to_join`], but looking through interposed projections: a
/// filter over `Map(… Join …)` can reach the join once `push_filters`
/// substitutes it through (the shape the UA rewriting's marker Maps
/// produce).
fn peels_to_join_through_maps(plan: &Plan) -> bool {
    match plan {
        Plan::Join { .. } => true,
        Plan::Filter { input, .. } | Plan::Map { input, .. } => peels_to_join_through_maps(input),
        _ => false,
    }
}

fn wrap_filters(plan: Plan, conjuncts: Vec<Expr>) -> Plan {
    if conjuncts.is_empty() {
        plan
    } else {
        Plan::Filter {
            input: Box::new(plan),
            predicate: Expr::conjunction(conjuncts),
        }
    }
}

fn option_conjunction(conjuncts: Vec<Expr>) -> Option<Expr> {
    if conjuncts.is_empty() {
        None
    } else {
        Some(Expr::conjunction(conjuncts))
    }
}

/// Rewrite `predicate` to run below a projection by substituting its column
/// references with the projection's expressions. `None` when a reference
/// cannot be resolved uniquely (the pushdown is then skipped).
fn substitute(predicate: &Expr, columns: &[ProjColumn]) -> Option<Expr> {
    let by_name = |name: &str| -> Option<&ProjColumn> {
        let (qualifier, base) = match name.rsplit_once('.') {
            Some((q, n)) => (Some(q), n),
            None => (None, name),
        };
        let mut matches = columns.iter().filter(|c| {
            c.column.name.eq_ignore_ascii_case(base)
                && match qualifier {
                    None => true,
                    Some(q) => c
                        .column
                        .qualifier
                        .as_deref()
                        .is_some_and(|mine| mine.eq_ignore_ascii_case(q)),
                }
        });
        // A second match makes the reference ambiguous.
        matches.next().filter(|_| matches.next().is_none())
    };
    predicate
        .try_map_leaves(&mut |leaf| match leaf {
            Expr::Col(i) => columns.get(*i).map(|c| c.expr.clone()).ok_or(()),
            Expr::Named(name) => by_name(name).map(|c| c.expr.clone()).ok_or(()),
            lit => Ok(lit.clone()),
        })
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::storage::{Catalog, Table};
    use ua_data::schema::Schema;
    use ua_data::tuple;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register(
            "r",
            Table::from_rows(
                Schema::qualified("r", ["a", "b"]),
                vec![
                    tuple![1i64, 10i64],
                    tuple![2i64, 20i64],
                    tuple![3i64, 30i64],
                ],
            ),
        );
        c.register(
            "s",
            Table::from_rows(
                Schema::qualified("s", ["b", "d"]),
                vec![tuple![10i64, 1i64], tuple![30i64, 3i64]],
            ),
        );
        c
    }

    #[test]
    fn filter_moves_below_projection() {
        let plan = Plan::Filter {
            input: Box::new(Plan::Map {
                input: Box::new(Plan::Scan("r".into())),
                columns: vec![ProjColumn::named("b")],
            }),
            predicate: Expr::named("b").gt(Expr::lit(15i64)),
        };
        let c = catalog();
        let optimized = push_filters(plan.clone(), &c);
        match &optimized {
            Plan::Map { input, .. } => {
                assert!(
                    matches!(**input, Plan::Filter { .. }),
                    "filter pushed below"
                );
            }
            other => panic!("expected Map on top, got {other}"),
        }
        // Semantics preserved.
        let c = catalog();
        assert_eq!(
            execute(&plan, &c).unwrap().sorted_rows(),
            execute(&optimized, &c).unwrap().sorted_rows()
        );
    }

    #[test]
    fn computed_columns_substitute_into_the_predicate() {
        // Filter on a computed column: pushdown substitutes the expression.
        let plan = Plan::Filter {
            input: Box::new(Plan::Map {
                input: Box::new(Plan::Scan("r".into())),
                columns: vec![ProjColumn::expr(
                    Expr::named("a").add(Expr::named("b")),
                    "s",
                )],
            }),
            predicate: Expr::named("s").ge(Expr::lit(22i64)),
        };
        let c = catalog();
        let optimized = push_filters(plan.clone(), &c);
        assert_eq!(
            execute(&plan, &c).unwrap().sorted_rows(),
            execute(&optimized, &c).unwrap().sorted_rows()
        );
        assert!(matches!(optimized, Plan::Map { .. }));
    }

    #[test]
    fn unresolvable_references_block_pushdown() {
        // Predicate references a column the Map does not produce — the
        // plan is left alone (it would fail at bind time either way).
        let plan = Plan::Filter {
            input: Box::new(Plan::Map {
                input: Box::new(Plan::Scan("r".into())),
                columns: vec![ProjColumn::named("a")],
            }),
            predicate: Expr::named("zzz").gt(Expr::lit(0i64)),
        };
        assert!(matches!(
            push_filters(plan, &catalog()),
            Plan::Filter { .. }
        ));
    }

    #[test]
    fn comma_join_becomes_hash_join() {
        let plan = Plan::Filter {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::Scan("r".into())),
                right: Box::new(Plan::Scan("s".into())),
                predicate: None,
            }),
            predicate: Expr::named("r.b")
                .eq(Expr::named("s.b"))
                .and(Expr::named("a").ge(Expr::lit(2i64))),
        };
        let c = catalog();
        let optimized = optimize(plan.clone(), &c);
        match &optimized {
            Plan::HashJoin {
                left,
                keys,
                residual,
                ..
            } => {
                assert_eq!(keys.len(), 1);
                assert!(residual.is_none());
                assert!(
                    matches!(**left, Plan::Filter { .. }),
                    "left-only conjunct pushed below the join, got {left}"
                );
            }
            other => panic!("expected HashJoin, got {other}"),
        }
        assert_eq!(
            execute(&plan, &c).unwrap().sorted_rows(),
            execute(&optimized, &c).unwrap().sorted_rows()
        );
    }

    #[test]
    fn build_side_follows_cardinalities() {
        // r has 3 rows, s has 2 → build on s (right) when s is on the
        // right, and on s (left) when the inputs are flipped.
        let c = catalog();
        let join = |l: &str, r: &str| {
            optimize(
                Plan::Filter {
                    input: Box::new(Plan::Join {
                        left: Box::new(Plan::Scan(l.into())),
                        right: Box::new(Plan::Scan(r.into())),
                        predicate: None,
                    }),
                    predicate: Expr::named(format!("{l}.b")).eq(Expr::named(format!("{r}.b"))),
                },
                &c,
            )
        };
        match join("r", "s") {
            Plan::HashJoin { build_left, .. } => assert!(!build_left, "smaller side is right"),
            other => panic!("expected HashJoin, got {other}"),
        }
        match join("s", "r") {
            Plan::HashJoin { build_left, .. } => assert!(build_left, "smaller side is left"),
            other => panic!("expected HashJoin, got {other}"),
        }
    }

    #[test]
    fn non_equi_theta_join_stays_a_join() {
        let plan = Plan::Filter {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::Scan("r".into())),
                right: Box::new(Plan::Scan("s".into())),
                predicate: None,
            }),
            predicate: Expr::named("r.b").lt(Expr::named("s.b")),
        };
        let c = catalog();
        let optimized = optimize(plan.clone(), &c);
        assert!(
            matches!(
                optimized,
                Plan::Join {
                    predicate: Some(_),
                    ..
                }
            ),
            "θ-only predicate becomes the join condition, got {optimized}"
        );
        assert_eq!(
            execute(&plan, &c).unwrap().sorted_rows(),
            execute(&optimized, &c).unwrap().sorted_rows()
        );
    }

    #[test]
    fn estimates_anchor_on_catalog_cardinalities() {
        let c = catalog();
        assert_eq!(estimate_rows(&Plan::Scan("r".into()), &c), Some(3));
        // An unestimable predicate falls back to the 1/3 default.
        assert_eq!(
            estimate_rows(
                &Plan::Filter {
                    input: Box::new(Plan::Scan("r".into())),
                    predicate: Expr::lit(true),
                },
                &c
            ),
            Some(1)
        );
        assert_eq!(estimate_rows(&Plan::Scan("nope".into()), &c), None);
    }

    #[test]
    fn filter_estimates_use_histograms_and_ndv() {
        let c = Catalog::new();
        c.register(
            "u",
            Table::from_rows(
                Schema::qualified("u", ["a"]),
                (0..100i64).map(|i| tuple![i]).collect(),
            ),
        );
        let filt = |predicate: Expr| Plan::Filter {
            input: Box::new(Plan::Scan("u".into())),
            predicate,
        };
        // Range: `a >= 75` keeps ~1/4 of a uniform 0..100 column.
        let quarter = estimate_rows(&filt(Expr::named("a").ge(Expr::lit(75i64))), &c).unwrap();
        assert!((20..=32).contains(&quarter), "got {quarter}");
        // Equality: 1/ndv = 1/100 → ~1 row.
        assert_eq!(
            estimate_rows(&filt(Expr::named("a").eq(Expr::lit(42i64))), &c),
            Some(1)
        );
        // A literal outside the observed range matches nothing.
        assert_eq!(
            estimate_rows(&filt(Expr::named("a").eq(Expr::lit(1000i64))), &c),
            Some(0)
        );
        // Conjunctions multiply under the independence assumption
        // (0.5 · 0.75 ≈ 37 rows here); the estimate sinks through Alias.
        let aliased = Plan::Filter {
            input: Box::new(Plan::Alias {
                input: Box::new(Plan::Scan("u".into())),
                name: "q".into(),
            }),
            predicate: Expr::named("q.a")
                .ge(Expr::lit(50i64))
                .and(Expr::named("q.a").lt(Expr::lit(75i64))),
        };
        let est = estimate_rows(&aliased, &c).unwrap();
        assert!((33..=42).contains(&est), "got {est}");
    }

    #[test]
    fn strict_bounds_at_observed_extremes_use_the_point_mass() {
        // Half the rows equal the maximum; `a < max` must not estimate 1.0
        // (the continuous bucket model alone would) — it is clamped by the
        // equality point mass `1/ndv`.
        let c = Catalog::new();
        c.register(
            "u",
            Table::from_rows(
                Schema::qualified("u", ["a"]),
                (0..100i64).map(|i| tuple![i % 2]).collect(),
            ),
        );
        let filt = |predicate: Expr| Plan::Filter {
            input: Box::new(Plan::Scan("u".into())),
            predicate,
        };
        assert_eq!(
            estimate_rows(&filt(Expr::named("a").lt(Expr::lit(1i64))), &c),
            Some(50)
        );
        assert_eq!(
            estimate_rows(&filt(Expr::named("a").gt(Expr::lit(0i64))), &c),
            Some(50)
        );
        // The mirrored non-strict bounds must not estimate 0 rows.
        assert_eq!(
            estimate_rows(&filt(Expr::named("a").ge(Expr::lit(1i64))), &c),
            Some(50)
        );
        assert_eq!(
            estimate_rows(&filt(Expr::named("a").le(Expr::lit(0i64))), &c),
            Some(50)
        );
    }

    #[test]
    fn equi_join_estimates_use_distinct_counts() {
        // u(k): 100 rows, 10 distinct keys; v(k): 50 rows, 50 distinct.
        // |u ⋈ v| ≈ 100·50 / max(10, 50) = 100.
        let c = Catalog::new();
        c.register(
            "u",
            Table::from_rows(
                Schema::qualified("u", ["k"]),
                (0..100i64).map(|i| tuple![i % 10]).collect(),
            ),
        );
        c.register(
            "v",
            Table::from_rows(
                Schema::qualified("v", ["k"]),
                (0..50i64).map(|i| tuple![i]).collect(),
            ),
        );
        let join = Plan::Join {
            left: Box::new(Plan::Scan("u".into())),
            right: Box::new(Plan::Scan("v".into())),
            predicate: Some(Expr::named("u.k").eq(Expr::named("v.k"))),
        };
        assert_eq!(estimate_rows(&join, &c), Some(100));
    }

    #[test]
    fn estimates_follow_table_replacement() {
        // Re-registering a table must change subsequent estimates — the
        // stats cache validates against the live store.
        let c = Catalog::new();
        let schema = Schema::qualified("w", ["a"]);
        c.register("w", Table::from_rows(schema.clone(), vec![tuple![1i64]]));
        assert_eq!(estimate_rows(&Plan::Scan("w".into()), &c), Some(1));
        c.register(
            "w",
            Table::from_rows(schema, (0..500i64).map(|i| tuple![i]).collect()),
        );
        assert_eq!(estimate_rows(&Plan::Scan("w".into()), &c), Some(500));
    }
}
