//! The vectorized AU path: attribute-level bounds as range column triples.
//!
//! An AU batch is an ordinary [`ColumnBatch`] over the *flattened* AU
//! schema (`ua_ranges::flattened_schema`): the selected-guess columns in
//! user order, then one lower- and one upper-bound column per attribute
//! (`NULL` = `∓∞`), then the three multiplicity-bound columns. Typed
//! column vectors apply unchanged — a certain `Int` attribute stays three
//! dense `Int` columns.
//!
//! Operator coverage:
//!
//! * **Scan** — batches the encoded table directly, chunk-parallel on the
//!   morsel pool. Each chunk validates with a typed columnar fast path
//!   (same-type `lb ≤ bg ≤ ub` triples under the domain order, well-formed
//!   positive multiplicities); only chunks that fail it pay the row-wise
//!   `decode_row`/`encode_row` normalization — pay-as-you-go, and the
//!   first malformed row reports exactly like the row engine's scan.
//! * **σ** — the selected-guess mask evaluates with the existing typed
//!   [`crate::kernels::truth_masks`] over the bg columns; the
//!   certainly/possibly-true analysis runs `ua_ranges::truth_range` per
//!   row over ranges assembled from the triple columns; multiplicity
//!   columns are refined per the `⟦σ⟧_AU` rule. Batches filter in
//!   parallel, merged in deterministic batch order.
//! * **π** — bg output columns evaluate with the typed expression kernels
//!   (including the typed arithmetic kernels); bound columns are `O(1)`
//!   column clones for plain references, broadcasts for literals, and
//!   per-row interval evaluation re-anchored via `ua_ranges::reanchor` for
//!   computed expressions (preserving definite NULLs, exactly like the row
//!   engine's `eval_range`).
//! * **γ** — aggregation prepares its inputs *columnar*: group keys and
//!   aggregate arguments assemble per column (stored triples for plain
//!   references, typed-kernel selected guesses re-anchoring interval
//!   evaluation for computed expressions) into an [`AggInput`], then the
//!   single shared bound combination `ua_ranges::ops::aggregate_prepared`
//!   (with its integer-key fast path) folds the groups. No row tuples, no
//!   decode round trip.
//! * **Sort / Top-K / Limit / ∪** — run the deterministic columnar
//!   operators over the flat stream directly: the full flattened row is
//!   the AU sort tie-break order by construction, so [`crate::ops::sort`]
//!   and [`crate::ops::top_k`] reproduce `ua_ranges::ops::sort_by_bg` +
//!   `limit` byte for byte. Union validates the *user* schemas (the row
//!   engine's error) and concatenates batches.
//! * **⋈ (nested-loop and hash)** — the stream's columns convert straight
//!   into range rows (no tuple encoding, no re-validation — the stream is
//!   canonical by construction) and feed the shared
//!   `ua_ranges::ops::join`/`hash_join`, which prune candidate pairs with
//!   the selected-guess key index. One implementation of the pair
//!   refinement exists in the workspace, so the engines cannot disagree.
//! * **δ (distinct)** — rows merge by selected-guess tuple straight off
//!   the bg columns in first-seen scan order, hulling attribute ranges
//!   and combining multiplicities exactly as `ua_ranges::ops::distinct`.
//!
//! No operator falls back to the row engine's materialize-and-dispatch
//! path any more: every `au.vec.fallback.*` counter stays pinned at zero
//! (regression-tested here and in the engine's observability suite).

use crate::bitmap::Bitmap;
use crate::columnar::{chunk_ranges, BatchStream, ColumnBatch, ColumnVec};
use crate::kernels::{eval_expr, truth_masks};
use std::sync::Arc;
use ua_data::algebra::ProjColumn;
use ua_data::expr::Expr;
use ua_data::schema::{Column, Schema};
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_data::FxHashMap;
use ua_obs::{OperatorStats, Stopwatch};
use ua_plan::plan::{AggExpr, Plan};
use ua_plan::stats::node_label;
use ua_plan::storage::{Catalog, Table};
use ua_plan::{estimate_rows, EngineError, ExecOptions};
use ua_ranges::{
    au_base_schema, decode_row, encode_row, flattened_schema, range_from_parts, range_parts,
    reanchor, truth_range, AggCols, AggKind, AuRelation, MultBound, RangeValue, TripleCol,
};

/// A stream of AU batches: the user schema plus batches over its
/// flattened form.
struct AuStream {
    user: Schema,
    flat: Schema,
    batches: Vec<ColumnBatch>,
}

impl AuStream {
    /// Re-batch a shared-operator result (already canonical — operator
    /// outputs normalize through `RangeValue`/`MultBound` constructors).
    fn from_relation(rel: &AuRelation, batch_rows: usize) -> AuStream {
        let user = rel.schema().clone();
        let flat = flattened_schema(&user);
        let rows: Vec<Tuple> = rel.rows().iter().map(encode_row).collect();
        let batches = chunk_ranges(rows.len(), batch_rows)
            .into_iter()
            .map(|(s, e)| encoded_chunk(&flat, &rows[s..e]))
            .collect();
        AuStream {
            user,
            flat,
            batches,
        }
    }

    /// Convert the columns straight into range rows. Infallible: every
    /// stream is canonical by construction (scans normalize, operators
    /// preserve normal form), so no validation round trip is paid.
    fn to_relation(&self) -> AuRelation {
        let n = self.user.arity();
        let mut rel = AuRelation::new(self.user.clone());
        for b in &self.batches {
            for i in 0..b.len() {
                rel.push(ua_ranges::relation::AuTuple {
                    values: row_ranges(b, n, i),
                    mult: mult_bound_at(b, n, i),
                });
            }
        }
        rel
    }
}

/// Build one batch from already-canonical encoded rows (labels certain,
/// multiplicity 1 — AU multiplicities live in the `ua_m_*` data columns).
fn encoded_chunk(flat: &Schema, chunk: &[Tuple]) -> ColumnBatch {
    let columns: Vec<ColumnVec> = (0..flat.arity())
        .map(|c| {
            ColumnVec::from_values(chunk.iter().map(move |r| r.get(c).expect("arity checked")))
        })
        .collect();
    ColumnBatch::new(
        flat.clone(),
        columns,
        Bitmap::filled(chunk.len(), true),
        Arc::new(vec![1u64; chunk.len()]),
    )
}

/// The batch's selected-guess view: the first `n` columns under the user
/// schema (cheap `Arc` clones), so the deterministic kernels evaluate bg
/// expressions directly.
fn bg_view(batch: &ColumnBatch, user: &Schema) -> ColumnBatch {
    let n = user.arity();
    ColumnBatch::new(
        user.clone(),
        batch.columns()[..n].to_vec(),
        batch.labels().clone(),
        Arc::new(batch.mults().to_vec()),
    )
}

/// Assemble row `i`'s attribute ranges from the triple columns.
fn row_ranges(batch: &ColumnBatch, n: usize, i: usize) -> Vec<RangeValue> {
    (0..n)
        .map(|c| {
            range_from_parts(
                batch.column(n + c).value(i),
                batch.column(c).value(i),
                batch.column(2 * n + c).value(i),
            )
        })
        .collect()
}

fn mult_at(batch: &ColumnBatch, n: usize, component: usize, i: usize) -> i64 {
    match batch.column(3 * n + component).value(i) {
        Value::Int(m) => m,
        _ => 0,
    }
}

/// Row `i`'s multiplicity triple from the `ua_m_*` columns.
fn mult_bound_at(batch: &ColumnBatch, n: usize, i: usize) -> MultBound {
    let at = |c: usize| mult_at(batch, n, c, i).max(0) as u64;
    MultBound::new(at(0), at(1), at(2))
}

/// Whether a decoded chunk is already in canonical encoded form, checked
/// columnar: each attribute triple is same-typed with `lb ≤ bg ≤ ub` under
/// the domain order ([`ua_ranges::range_cmp`], which same-type typed
/// comparisons reproduce exactly), and each multiplicity triple is a
/// well-formed positive `Int` bound. Canonical rows decode and re-encode
/// to themselves, so the whole chunk skips the row-wise normalization.
fn chunk_is_canonical(columns: &[ColumnVec], n: usize) -> bool {
    let (ColumnVec::Int(ml), ColumnVec::Int(mb), ColumnVec::Int(mu)) =
        (&columns[3 * n], &columns[3 * n + 1], &columns[3 * n + 2])
    else {
        return false;
    };
    let mults_ok = ml
        .iter()
        .zip(mb.iter())
        .zip(mu.iter())
        .all(|((&l, &b), &u)| 0 <= l && l <= b && b <= u && u >= 1);
    mults_ok
        && (0..n).all(|c| triple_is_canonical(&columns[n + c], &columns[c], &columns[2 * n + c]))
}

/// One attribute triple's canonical check (see [`chunk_is_canonical`]).
/// Mixed or untyped columns (SQL `NULL` = `∓∞`, definite-NULL sentinels,
/// labeled nulls) conservatively report non-canonical; the row-wise slow
/// path normalizes them.
fn triple_is_canonical(lb: &ColumnVec, bg: &ColumnVec, ub: &ColumnVec) -> bool {
    fn ordered<T: Ord>(l: &[T], b: &[T], u: &[T]) -> bool {
        l.iter()
            .zip(b.iter())
            .zip(u.iter())
            .all(|((l, b), u)| l <= b && b <= u)
    }
    match (lb, bg, ub) {
        (ColumnVec::Int(l), ColumnVec::Int(b), ColumnVec::Int(u)) => ordered(l, b, u),
        // `F64`'s total order is exactly `sql_cmp` (and so `range_cmp`)
        // for float/float comparisons, NaNs included.
        (ColumnVec::Float(l), ColumnVec::Float(b), ColumnVec::Float(u)) => ordered(l, b, u),
        (ColumnVec::Bool(l), ColumnVec::Bool(b), ColumnVec::Bool(u)) => ordered(l, b, u),
        (ColumnVec::Str(l), ColumnVec::Str(b), ColumnVec::Str(u)) => l
            .iter()
            .zip(b.iter())
            .zip(u.iter())
            .all(|((l, b), u)| l.as_ref() <= b.as_ref() && b.as_ref() <= u.as_ref()),
        _ => false,
    }
}

/// Convert one encoded-table chunk into a batch: the typed columnar
/// canonical check first, the row-wise `decode_row`/`encode_row`
/// normalization (dropping `ub = 0` rows, erroring on the first malformed
/// multiplicity — identical to the row engine's scan) only when it fails.
fn scan_chunk(flat: &Schema, n: usize, chunk: &[Tuple]) -> Result<ColumnBatch, EngineError> {
    let columns: Vec<ColumnVec> = (0..flat.arity())
        .map(|c| {
            ColumnVec::from_values(chunk.iter().map(move |r| r.get(c).expect("arity checked")))
        })
        .collect();
    if chunk_is_canonical(&columns, n) {
        return Ok(ColumnBatch::new(
            flat.clone(),
            columns,
            Bitmap::filled(chunk.len(), true),
            Arc::new(vec![1u64; chunk.len()]),
        ));
    }
    let mut rows: Vec<Tuple> = Vec::with_capacity(chunk.len());
    for row in chunk {
        if let Some(t) = decode_row(n, row).map_err(EngineError::Sql)? {
            rows.push(encode_row(&t));
        }
    }
    Ok(encoded_chunk(flat, &rows))
}

/// Evaluate one bound expression's per-row attribute ranges over a batch,
/// columnar where possible: plain references assemble from the stored
/// triples, literals broadcast, and computed expressions re-anchor an
/// interval evaluation on the typed-kernel selected guess — per row
/// exactly `ua_ranges::eval_range` (which is `reanchor(approx_range(e),
/// e.eval(bg))`).
fn expr_ranges(
    batch: &ColumnBatch,
    n: usize,
    expr: &Expr,
    bgv: &ColumnBatch,
    memo: &mut Option<Vec<Vec<RangeValue>>>,
) -> Result<Vec<RangeValue>, EngineError> {
    let len = batch.len();
    match expr {
        Expr::Col(i) => Ok((0..len)
            .map(|r| {
                range_from_parts(
                    batch.column(n + i).value(r),
                    batch.column(*i).value(r),
                    batch.column(2 * n + i).value(r),
                )
            })
            .collect()),
        Expr::Lit(v) => {
            let rv = reanchor(&RangeValue::point(v.clone()), v.clone());
            Ok(vec![rv; len])
        }
        other => {
            let bg = eval_expr(other, bgv)?.into_column(len);
            let rows =
                memo.get_or_insert_with(|| (0..len).map(|i| row_ranges(batch, n, i)).collect());
            Ok(rows
                .iter()
                .enumerate()
                .map(|(i, ranges)| reanchor(&ua_ranges::approx_range(other, ranges), bg.value(i)))
                .collect())
        }
    }
}

struct AuDriver<'a> {
    catalog: &'a Catalog,
    batch_rows: usize,
    /// Collect per-operator [`OperatorStats`] next to the result (results
    /// are identical on or off).
    collect_stats: bool,
    /// Emit execute/merge phase spans and per-morsel pool task spans on
    /// the session thread's armed trace ring (results identical on or
    /// off, like stats).
    collect_trace: bool,
    /// The morsel pool: per-batch stages (scan chunking, σ, π) map in
    /// deterministic batch order, so parallel output is byte-identical to
    /// serial.
    pool: rayon::ThreadPool,
}

impl<'a> AuDriver<'a> {
    /// Bracket `f` in a query-phase trace span when tracing is on; a
    /// plain call otherwise (closes on the error path too, so exported
    /// traces stay balanced).
    fn phase<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if self.collect_trace {
            ua_obs::trace_scope(name, "vecexec", f)
        } else {
            f()
        }
    }

    fn stream_traced(&self, plan: &Plan) -> Result<(AuStream, Option<OperatorStats>), EngineError> {
        let timer = self.collect_stats.then(Stopwatch::start);
        let (stream, children) = match plan {
            Plan::Scan(name) => (self.scan(name)?, Vec::new()),
            Plan::Alias { input, name } => {
                let (stream, child) = self.stream_traced(input)?;
                let user = stream.user.with_qualifier(name);
                let flat = flattened_schema(&user);
                (
                    AuStream {
                        batches: stream
                            .batches
                            .iter()
                            .map(|b| b.with_schema(flat.clone()))
                            .collect(),
                        user,
                        flat,
                    },
                    child.into_iter().collect(),
                )
            }
            Plan::Filter { input, predicate } => {
                let (stream, child) = self.stream_traced(input)?;
                (self.filter(stream, predicate)?, child.into_iter().collect())
            }
            Plan::Map { input, columns } => {
                let (stream, child) = self.stream_traced(input)?;
                (self.map(stream, columns)?, child.into_iter().collect())
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let (stream, child) = self.stream_traced(input)?;
                (
                    self.aggregate(stream, group_by, aggregates)?,
                    child.into_iter().collect(),
                )
            }
            Plan::Sort { input, keys } => {
                let (stream, child) = self.stream_traced(input)?;
                let sorted = crate::ops::sort(flat_stream(&stream), keys, self.batch_rows)?;
                (
                    AuStream {
                        user: stream.user,
                        flat: stream.flat,
                        batches: sorted.batches,
                    },
                    child.into_iter().collect(),
                )
            }
            Plan::TopK { input, keys, limit } => {
                let (stream, child) = self.stream_traced(input)?;
                let top = crate::ops::top_k(flat_stream(&stream), keys, *limit, self.batch_rows)?;
                (
                    AuStream {
                        user: stream.user,
                        flat: stream.flat,
                        batches: top.batches,
                    },
                    child.into_iter().collect(),
                )
            }
            Plan::Limit { input, limit } => {
                let (stream, child) = self.stream_traced(input)?;
                let limited = crate::ops::limit(flat_stream(&stream), *limit);
                (
                    AuStream {
                        user: stream.user,
                        flat: stream.flat,
                        batches: limited.batches,
                    },
                    child.into_iter().collect(),
                )
            }
            Plan::UnionAll { left, right } => {
                let (ls, lstat) = self.stream_traced(left)?;
                let (rs, rstat) = self.stream_traced(right)?;
                // Validate the *user* schemas — the row engine's check and
                // error; the left schema wins for the output.
                ls.user
                    .check_union_compatible(&rs.user)
                    .map_err(EngineError::Schema)?;
                let mut batches = ls.batches;
                batches.extend(
                    rs.batches
                        .into_iter()
                        .map(|b| b.with_schema(ls.flat.clone())),
                );
                (
                    AuStream {
                        user: ls.user,
                        flat: ls.flat,
                        batches,
                    },
                    lstat.into_iter().chain(rstat).collect(),
                )
            }
            // Keyless / non-equi joins: block-nested-loop — each left
            // chunk converts to range rows and joins against the full
            // right relation on its own worker, blocks concatenating in
            // chunk order (byte-identical to one monolithic left-major
            // nested loop).
            Plan::Join { left, right, .. } => {
                let (ls, lstat) = self.stream_traced(left)?;
                let (rs, rstat) = self.stream_traced(right)?;
                (
                    self.block_join(plan, &ls, &rs)?,
                    lstat.into_iter().chain(rstat).collect(),
                )
            }
            // Hash joins: columns convert straight into range rows (no
            // encode, no re-validation) and feed the shared selected-guess
            // hash join.
            Plan::HashJoin { left, right, .. } => {
                let (ls, lstat) = self.stream_traced(left)?;
                let (rs, rstat) = self.stream_traced(right)?;
                let out = ua_plan::au_binary(plan, &ls.to_relation(), &rs.to_relation())?;
                (
                    AuStream::from_relation(&out, self.batch_rows),
                    lstat.into_iter().chain(rstat).collect(),
                )
            }
            Plan::Distinct { input } => {
                let (stream, child) = self.stream_traced(input)?;
                (self.distinct(stream), child.into_iter().collect())
            }
            // Difference / outer join: both sides convert to range
            // relations and route through the shared AU bound-combination
            // operators in `ua_ranges::ops` (the same single copy the row
            // interpreter dispatches through `au_binary`), so the two
            // engines cannot diverge on the `[lb, bg, ub]` arithmetic.
            Plan::Except { left, right, .. } | Plan::OuterJoin { left, right, .. } => {
                let (ls, lstat) = self.stream_traced(left)?;
                let (rs, rstat) = self.stream_traced(right)?;
                let out = ua_plan::au_binary(plan, &ls.to_relation(), &rs.to_relation())?;
                (
                    AuStream::from_relation(&out, self.batch_rows),
                    lstat.into_iter().chain(rstat).collect(),
                )
            }
        };
        let stats = timer.map(|timer| {
            let (name, detail) = node_label(plan);
            let mut node = OperatorStats::new(name, detail);
            node.est_rows = estimate_rows(plan, self.catalog);
            node.rows_out = stream.batches.iter().map(|b| b.len() as u64).sum();
            node.batches_out = stream.batches.len() as u64;
            // The timer spans the recursive children, so this is already
            // the cumulative wall time `OperatorStats` documents.
            node.wall_ns = timer.elapsed_ns();
            au_span_extras(&stream, &mut node);
            node.children = children;
            node
        });
        Ok((stream, stats))
    }

    /// Scan an AU-encoded table into batches, chunk-parallel. Validation
    /// is columnar per chunk ([`chunk_is_canonical`]); the first malformed
    /// row errors exactly like the row engine's decode (chunks merge in
    /// table order).
    fn scan(&self, name: &str) -> Result<AuStream, EngineError> {
        let table = self
            .catalog
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        let user = au_base_schema(table.schema()).ok_or_else(|| {
            EngineError::Sql(format!(
                "schema {} is not AU-encoded (ua_lb_*/ua_ub_*/ua_m_* layout)",
                table.schema()
            ))
        })?;
        let flat = flattened_schema(&user);
        let n = user.arity();
        let rows = table.rows();
        let ranges = chunk_ranges(rows.len(), self.batch_rows);
        let batches: Vec<ColumnBatch> = self
            .pool
            .map_in_order(ranges, |_, (s, e)| scan_chunk(&flat, n, &rows[s..e]))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .filter(|b| !b.is_empty())
            .collect();
        Ok(AuStream {
            user,
            flat,
            batches,
        })
    }

    /// `⟦σ_θ⟧_AU`, batch-native: possibly-true rows survive; per row the
    /// multiplicity lower bound is kept only under a certainly-true
    /// predicate and the selected-guess multiplicity only when θ holds
    /// over the bg columns (the vectorized typed mask). Batches filter in
    /// parallel on the morsel pool.
    fn filter(&self, stream: AuStream, predicate: &Expr) -> Result<AuStream, EngineError> {
        let bound = predicate.bind(&stream.user).map_err(EngineError::Expr)?;
        let n = stream.user.arity();
        let batches: Vec<ColumnBatch> = self
            .pool
            .map_in_order(stream.batches.iter().collect::<Vec<_>>(), |_, batch| {
                filter_batch(batch, &bound, &stream.user, &stream.flat, n)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .flatten()
            .collect();
        Ok(AuStream {
            user: stream.user,
            flat: stream.flat,
            batches,
        })
    }

    /// `⟦π⟧_AU`, batch-native: bg output columns through the typed
    /// expression kernels; bound columns cloned for plain references,
    /// broadcast for literals, interval-evaluated and re-anchored
    /// ([`ua_ranges::reanchor`] — definite NULLs stay definite) per row
    /// otherwise. Batches project in parallel on the morsel pool.
    fn map(&self, stream: AuStream, columns: &[ProjColumn]) -> Result<AuStream, EngineError> {
        let bound: Vec<Expr> = columns
            .iter()
            .map(|c| c.expr.bind(&stream.user))
            .collect::<Result<_, _>>()
            .map_err(EngineError::Expr)?;
        let user = Schema::new(columns.iter().map(|c| c.column.clone()).collect());
        let flat = flattened_schema(&user);
        let n_in = stream.user.arity();
        let batches: Vec<ColumnBatch> = self
            .pool
            .map_in_order(stream.batches.iter().collect::<Vec<_>>(), |_, batch| {
                map_batch(batch, &bound, &stream.user, &flat, n_in)
            })
            .into_iter()
            .collect::<Result<_, _>>()?;
        Ok(AuStream {
            user,
            flat,
            batches,
        })
    }

    /// `⟦γ⟧_AU`, triple-column-native: group keys, aggregate arguments
    /// and multiplicity triples assemble columnar into the shared
    /// [`AggCols`] — plain references over dense same-typed triples copy
    /// the `lb/bg/ub` slices straight off the canonical chunks (no
    /// per-row [`RangeValue`] gathering), everything else evaluates per
    /// row via [`expr_ranges`] — and the single workspace bound
    /// combination (`ua_ranges::ops::aggregate_cols`, typed kernels over
    /// the dense triples, integer-key fast path included) folds the
    /// groups. Keys evaluate before arguments, like the row engine.
    fn aggregate(
        &self,
        stream: AuStream,
        group_by: &[ProjColumn],
        aggregates: &[AggExpr],
    ) -> Result<AuStream, EngineError> {
        let bound_keys: Vec<Expr> = group_by
            .iter()
            .map(|g| g.expr.bind(&stream.user))
            .collect::<Result<_, _>>()
            .map_err(EngineError::Expr)?;
        let bound_args: Vec<Option<Expr>> = aggregates
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.bind(&stream.user)).transpose())
            .collect::<Result<_, _>>()
            .map_err(EngineError::Expr)?;
        let n = stream.user.arity();
        let n_rows: usize = stream.batches.iter().map(|b| b.len()).sum();
        let mut input = AggCols {
            keys: bound_keys
                .iter()
                .map(|e| empty_triple(&stream.batches, n, e, n_rows))
                .collect(),
            args: bound_args
                .iter()
                .map(|e| {
                    e.as_ref()
                        .map(|e| empty_triple(&stream.batches, n, e, n_rows))
                })
                .collect(),
            mults: Vec::with_capacity(n_rows),
        };
        for batch in &stream.batches {
            if batch.is_empty() {
                continue;
            }
            let bgv = bg_view(batch, &stream.user);
            let mut memo: Option<Vec<Vec<RangeValue>>> = None;
            for (e, col) in bound_keys.iter().zip(&mut input.keys) {
                fill_triple(batch, n, e, &bgv, &mut memo, col)?;
            }
            for (e, col) in bound_args.iter().zip(&mut input.args) {
                if let (Some(e), Some(col)) = (e.as_ref(), col.as_mut()) {
                    fill_triple(batch, n, e, &bgv, &mut memo, col)?;
                }
            }
            for i in 0..batch.len() {
                input.mults.push(mult_bound_at(batch, n, i));
            }
        }
        let kinds: Vec<AggKind> = aggregates
            .iter()
            .map(|a| ua_plan::agg_kind(a.func))
            .collect();
        let mut columns: Vec<Column> = group_by.iter().map(|g| g.column.clone()).collect();
        columns.extend(aggregates.iter().map(|a| Column::unqualified(&a.name)));
        let rel = ua_ranges::ops::aggregate_cols(&input, &kinds, Schema::new(columns));
        Ok(AuStream::from_relation(&rel, self.batch_rows))
    }

    /// `⟦⋈⟧_AU` for keyless / non-equi joins (`Plan::Join`), block
    /// nested-loop: each left chunk converts straight into range rows
    /// (reusing the stream↔relation conversion) and joins against the
    /// full right relation on its own worker through the shared
    /// [`ua_plan::au_binary`] → `ua_ranges::ops::join` refinement.
    /// `join` is left-row-major over the whole right side, so blocks
    /// concatenated in chunk order are byte-identical to one monolithic
    /// call, and errors surface from the lowest-indexed failing chunk —
    /// the row engine's left-scan order.
    fn block_join(
        &self,
        plan: &Plan,
        ls: &AuStream,
        rs: &AuStream,
    ) -> Result<AuStream, EngineError> {
        let right = rs.to_relation();
        let n = ls.user.arity();
        let chunk_rel = |batch: &ColumnBatch| {
            let mut chunk = AuRelation::new(ls.user.clone());
            for i in 0..batch.len() {
                chunk.push(ua_ranges::relation::AuTuple {
                    values: row_ranges(batch, n, i),
                    mult: mult_bound_at(batch, n, i),
                });
            }
            chunk
        };
        let parts: Vec<AuRelation> = if ls.batches.is_empty() {
            // Empty left side: one empty block still produces the joined
            // schema (and any predicate binding error) like the row path.
            vec![ua_plan::au_binary(
                plan,
                &AuRelation::new(ls.user.clone()),
                &right,
            )?]
        } else {
            self.pool
                .map_in_order(ls.batches.iter().collect::<Vec<_>>(), |_, batch| {
                    ua_plan::au_binary(plan, &chunk_rel(batch), &right)
                })
                .into_iter()
                .collect::<Result<_, _>>()?
        };
        let mut parts = parts.into_iter();
        let mut out = parts.next().expect("at least one block");
        for part in parts {
            for row in part.rows() {
                out.push(row.clone());
            }
        }
        Ok(AuStream::from_relation(&out, self.batch_rows))
    }

    /// `⟦δ⟧_AU`, batch-native: rows merge by selected-guess tuple over the
    /// canonical chunks in first-seen scan order. The stream's first `n`
    /// columns *are* the SG tuple, so the merge key reads straight off the
    /// bg columns; merged rows hull their attribute ranges and combine
    /// multiplicities exactly as `ua_ranges::ops::distinct` (`lb`/`bg` cap
    /// at 1, `ub` sums — each copy may ground to a distinct surviving
    /// value), so the output is byte-identical to the row engine's δ.
    fn distinct(&self, stream: AuStream) -> AuStream {
        let n = stream.user.arity();
        let mut index: FxHashMap<Tuple, usize> = FxHashMap::default();
        let mut merged: Vec<ua_ranges::relation::AuTuple> = Vec::new();
        for batch in &stream.batches {
            for i in 0..batch.len() {
                let key: Tuple = (0..n).map(|c| batch.column(c).value(i)).collect();
                let mult = mult_bound_at(batch, n, i);
                match index.get(&key) {
                    Some(&slot) => {
                        let acc = &mut merged[slot];
                        for (a, r) in acc.values.iter_mut().zip(row_ranges(batch, n, i)) {
                            *a = a.hull(&r);
                        }
                        acc.mult = MultBound::new(
                            acc.mult.lb.max(u64::from(mult.lb >= 1)),
                            acc.mult.bg.max(u64::from(mult.bg >= 1)),
                            acc.mult.ub.saturating_add(mult.ub),
                        );
                    }
                    None => {
                        index.insert(key, merged.len());
                        merged.push(ua_ranges::relation::AuTuple {
                            values: row_ranges(batch, n, i),
                            mult: MultBound::new(
                                u64::from(mult.lb >= 1),
                                u64::from(mult.bg >= 1),
                                mult.ub,
                            ),
                        });
                    }
                }
            }
        }
        let mut rel = AuRelation::new(stream.user.clone());
        for row in merged {
            rel.push(row);
        }
        AuStream::from_relation(&rel, self.batch_rows)
    }
}

/// Pick the densest [`TripleCol`] an aggregation column can use: a plain
/// reference whose `lb/bg/ub` columns are dense `Int` (resp. `Float`)
/// vectors in *every* batch gets a typed triple — the stream invariant
/// (canonical chunks) guarantees element-wise `lb ≤ bg ≤ ub`, the dense
/// invariant [`aggregate_cols`](ua_ranges::ops::aggregate_cols) requires.
/// Anything else (computed expressions, literals, mixed/nullable columns)
/// falls back to per-row ranges.
fn empty_triple(batches: &[ColumnBatch], n: usize, expr: &Expr, n_rows: usize) -> TripleCol {
    if let Expr::Col(c) = expr {
        let triple_is = |dense: fn(&ColumnVec) -> bool| {
            batches.iter().all(|b| {
                dense(b.column(*c)) && dense(b.column(n + c)) && dense(b.column(2 * n + c))
            })
        };
        if triple_is(|v| matches!(v, ColumnVec::Int(_))) {
            return TripleCol::Int {
                lb: Vec::with_capacity(n_rows),
                bg: Vec::with_capacity(n_rows),
                ub: Vec::with_capacity(n_rows),
            };
        }
        if triple_is(|v| matches!(v, ColumnVec::Float(_))) {
            return TripleCol::Float {
                lb: Vec::with_capacity(n_rows),
                bg: Vec::with_capacity(n_rows),
                ub: Vec::with_capacity(n_rows),
            };
        }
    }
    TripleCol::Rows(Vec::with_capacity(n_rows))
}

/// Append one batch's rows of one aggregation column: dense triples copy
/// the typed `lb/bg/ub` slices straight off the canonical chunk (the
/// layout puts `bg` at `c`, `lb` at `n + c`, `ub` at `2n + c`); row-backed
/// columns evaluate per row via [`expr_ranges`].
fn fill_triple(
    batch: &ColumnBatch,
    n: usize,
    expr: &Expr,
    bgv: &ColumnBatch,
    memo: &mut Option<Vec<Vec<RangeValue>>>,
    col: &mut TripleCol,
) -> Result<(), EngineError> {
    match col {
        TripleCol::Int { lb, bg, ub } => {
            let Expr::Col(c) = expr else {
                unreachable!("dense mode implies a plain reference")
            };
            let (ColumnVec::Int(b), ColumnVec::Int(l), ColumnVec::Int(u)) = (
                batch.column(*c),
                batch.column(n + c),
                batch.column(2 * n + c),
            ) else {
                unreachable!("dense mode checked every batch")
            };
            bg.extend_from_slice(b);
            lb.extend_from_slice(l);
            ub.extend_from_slice(u);
        }
        TripleCol::Float { lb, bg, ub } => {
            let Expr::Col(c) = expr else {
                unreachable!("dense mode implies a plain reference")
            };
            let (ColumnVec::Float(b), ColumnVec::Float(l), ColumnVec::Float(u)) = (
                batch.column(*c),
                batch.column(n + c),
                batch.column(2 * n + c),
            ) else {
                unreachable!("dense mode checked every batch")
            };
            bg.extend_from_slice(b);
            lb.extend_from_slice(l);
            ub.extend_from_slice(u);
        }
        TripleCol::Rows(rows) => rows.extend(expr_ranges(batch, n, expr, bgv, memo)?),
    }
    Ok(())
}

/// View an AU stream as a plain [`BatchStream`] over the flat schema —
/// what lets the deterministic columnar Sort/Top-K/Limit run unchanged:
/// batch-level labels are uniformly certain and multiplicities uniformly
/// 1 (the AU triples are data columns), and the flattened row layout *is*
/// the AU tie-break order.
fn flat_stream(stream: &AuStream) -> BatchStream {
    BatchStream {
        schema: stream.flat.clone(),
        batches: stream.batches.clone(),
    }
}

/// One batch of [`AuDriver::filter`] (pure per-batch function, safe to
/// run on the pool): `None` when no row survives.
fn filter_batch(
    batch: &ColumnBatch,
    bound: &Expr,
    user: &Schema,
    flat: &Schema,
    n: usize,
) -> Result<Option<ColumnBatch>, EngineError> {
    if batch.is_empty() {
        return Ok(None);
    }
    let bgv = bg_view(batch, user);
    let (bg_true, _) = truth_masks(bound, &bgv)?;
    let mut keep: Vec<u32> = Vec::new();
    let mut new_lb: Vec<Value> = Vec::new();
    let mut new_bg: Vec<Value> = Vec::new();
    for i in 0..batch.len() {
        let ranges = row_ranges(batch, n, i);
        let rt = truth_range(bound, &ranges);
        if !rt.possibly_true() {
            continue;
        }
        keep.push(i as u32);
        new_lb.push(Value::Int(if rt.certainly_true() {
            mult_at(batch, n, 0, i)
        } else {
            0
        }));
        new_bg.push(Value::Int(if bg_true.get(i) {
            mult_at(batch, n, 1, i)
        } else {
            0
        }));
    }
    if keep.is_empty() {
        return Ok(None);
    }
    let gathered = batch.gather(&keep);
    let mut columns = gathered.columns().to_vec();
    columns[3 * n] = ColumnVec::from_values(new_lb.iter());
    columns[3 * n + 1] = ColumnVec::from_values(new_bg.iter());
    Ok(Some(ColumnBatch::new(
        flat.clone(),
        columns,
        gathered.labels().clone(),
        Arc::new(gathered.mults().to_vec()),
    )))
}

/// One batch of [`AuDriver::map`] (pure per-batch function, safe to run
/// on the pool).
fn map_batch(
    batch: &ColumnBatch,
    bound: &[Expr],
    user: &Schema,
    out_flat: &Schema,
    n_in: usize,
) -> Result<ColumnBatch, EngineError> {
    let len = batch.len();
    let n_out = bound.len();
    let bgv = bg_view(batch, user);
    let bg_cols: Vec<ColumnVec> = bound
        .iter()
        .map(|e| Ok(eval_expr(e, &bgv)?.into_column(len)))
        .collect::<Result<_, EngineError>>()?;
    // Per-row range assembly is shared across computed expressions.
    let mut memo: Option<Vec<Vec<RangeValue>>> = None;
    let mut lb_cols: Vec<ColumnVec> = Vec::with_capacity(n_out);
    let mut ub_cols: Vec<ColumnVec> = Vec::with_capacity(n_out);
    for (k, e) in bound.iter().enumerate() {
        match e {
            Expr::Col(i) => {
                lb_cols.push(batch.column(n_in + i).clone());
                ub_cols.push(batch.column(2 * n_in + i).clone());
            }
            Expr::Lit(v) => {
                let (lb, _, ub) = range_parts(&RangeValue::point(v.clone()));
                lb_cols.push(ColumnVec::broadcast(&lb, len));
                ub_cols.push(ColumnVec::broadcast(&ub, len));
            }
            other => {
                let rows = memo
                    .get_or_insert_with(|| (0..len).map(|i| row_ranges(batch, n_in, i)).collect());
                let mut lbs: Vec<Value> = Vec::with_capacity(len);
                let mut ubs: Vec<Value> = Vec::with_capacity(len);
                for (i, ranges) in rows.iter().enumerate() {
                    let approx = ua_ranges::approx_range(other, ranges);
                    // Re-anchor on the exact bg — the same `reanchor` step
                    // `eval_range` performs, so a definite NULL projected
                    // through a computed expression stays definite.
                    let r = reanchor(&approx, bg_cols[k].value(i));
                    let (lb, _, ub) = range_parts(&r);
                    lbs.push(lb);
                    ubs.push(ub);
                }
                lb_cols.push(ColumnVec::from_values(lbs.iter()));
                ub_cols.push(ColumnVec::from_values(ubs.iter()));
            }
        }
    }
    let mut out_cols: Vec<ColumnVec> = Vec::with_capacity(3 * n_out + 3);
    out_cols.extend(bg_cols);
    out_cols.extend(lb_cols);
    out_cols.extend(ub_cols);
    out_cols.push(batch.column(3 * n_in).clone());
    out_cols.push(batch.column(3 * n_in + 1).clone());
    out_cols.push(batch.column(3 * n_in + 2).clone());
    Ok(ColumnBatch::new(
        out_flat.clone(),
        out_cols,
        batch.labels().clone(),
        Arc::new(batch.mults().to_vec()),
    ))
}

/// The AU telemetry extras for a finished operator span — the same
/// bound-precision profile the row interpreter records
/// ([`ua_ranges::WidthSummary`]: which operator widened bounds toward ⊤,
/// and by how much) plus the materialized stream's logical bytes, charged
/// against the query memory accumulator. Every AU operator materializes
/// its whole output, so the profile observes exactly the operator result.
fn au_span_extras(stream: &AuStream, node: &mut OperatorStats) {
    let n = stream.user.arity();
    let mut ws = ua_ranges::WidthSummary::new();
    for b in &stream.batches {
        for i in 0..b.len() {
            ws.observe(&ua_ranges::relation::AuTuple {
                values: row_ranges(b, n, i),
                mult: mult_bound_at(b, n, i),
            });
        }
    }
    node.push_extra("certain_rows", ws.certain_rows);
    node.push_extra("top_attrs_permille", ws.top_attr_permille());
    node.push_extra("rel_width_permille", ws.mean_rel_width_permille());
    node.push_extra("mult_spread", ws.mult_spread);
    let bytes = au_stream_mem_bytes(stream);
    let mut mem = ua_obs::MemTracker::new();
    mem.alloc(bytes);
    node.push_extra("mem_bytes", bytes);
}

/// Logical bytes of a materialized AU stream — the columnar counterpart
/// of the row engine's `au_relation_mem_bytes` convention: 24 bytes per
/// multiplicity triple plus the attribute triple columns (bg, lb, ub —
/// one 16-byte slot per cell plus string payloads). Shape-derived and
/// batch-size-independent, so the figure matches across thread counts.
fn au_stream_mem_bytes(stream: &AuStream) -> u64 {
    let n = stream.user.arity();
    stream
        .batches
        .iter()
        .map(|b| {
            24 * b.len() as u64
                + (0..3 * n)
                    .map(|c| crate::exec::column_mem_bytes(b.column(c)))
                    .sum::<u64>()
        })
        .sum()
}

/// Execute an AU plan with the vectorized engine, returning the flattened
/// encoded result table. `opts.batch_rows` sizes the morsels;
/// `opts.threads` sizes the morsel pool the per-batch stages (scan
/// chunking, σ, π, final materialization) map on — batch order is
/// deterministic, so results are byte-identical across thread counts.
pub fn execute_au_vectorized_opts(
    plan: &Plan,
    catalog: &Catalog,
    opts: ExecOptions,
) -> Result<Table, EngineError> {
    execute_au_vectorized_with_stats(plan, catalog, opts).0
}

/// [`execute_au_vectorized_opts`] returning the run's
/// [`ua_obs::QueryStats`] by value next to the result (`Some` iff
/// `opts.collect_stats`, on the error path too). This is what the
/// session's `ExecMode::Vectorized` AU dispatch calls.
pub fn execute_au_vectorized_with_stats(
    plan: &Plan,
    catalog: &Catalog,
    opts: ExecOptions,
) -> (Result<Table, EngineError>, Option<ua_obs::QueryStats>) {
    let (batch_rows, pool) = crate::exec::morsel_setup(opts);
    if opts.collect_stats {
        ua_obs::mem_query_start();
    }
    let driver = AuDriver {
        catalog,
        batch_rows,
        collect_stats: opts.collect_stats,
        collect_trace: opts.collect_trace,
        pool,
    };
    let finish =
        |root| crate::exec::finish_query_stats(&driver.pool, driver.collect_trace, root, "au");
    let (stream, stats) = match driver.phase("execute", || driver.stream_traced(plan)) {
        Ok(ok) => ok,
        Err(e) => {
            let root = driver
                .collect_stats
                .then(|| crate::exec::error_root(plan, catalog));
            return (Err(e), finish(root));
        }
    };
    let rows = driver.phase("merge", || {
        let parts: Vec<Vec<Tuple>> = driver
            .pool
            .map_in_order(stream.batches.iter().collect::<Vec<_>>(), |_, b| {
                (0..b.len()).map(|i| b.row(i)).collect()
            });
        let mut rows: Vec<Tuple> = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for p in parts {
            rows.extend(p);
        }
        rows
    });
    (Ok(Table::from_rows(stream.flat, rows)), finish(stats))
}

/// [`execute_au_vectorized_opts`] with default options.
pub fn execute_au_vectorized(plan: &Plan, catalog: &Catalog) -> Result<Table, EngineError> {
    execute_au_vectorized_opts(plan, catalog, ExecOptions::default())
}
