//! AU semantics for the one vectorized driver: the per-batch range
//! kernels its σ / π / hash-⋈ stages run, and the AU sources (`impl
//! Driver`) its `source_traced` runs under `Semantics::Au`. The plan walk, pipeline,
//! stats assembly and entry point live in [`crate::exec`]; nothing here
//! drives a plan.
//!
//! An AU batch is an ordinary [`ColumnBatch`] over the *flattened* AU
//! schema (`ua_ranges::flattened_schema`): the selected-guess columns in
//! user order, then one lower- and one upper-bound column per attribute
//! (`NULL` = `∓∞`), then the three multiplicity-bound columns. Typed
//! column vectors apply unchanged — a certain `Int` attribute stays three
//! dense `Int` columns — and an AU stream is a plain [`BatchStream`]: its
//! user schema is the first `(arity − 3) / 3` columns (`user_schema`).
//! That is what lets Sort / Top-K / Limit / ∪ and the result
//! materialisation be the deterministic operators, untouched.
//!
//! Pipeline stages (run per morsel by `exec::run_chain`):
//!
//! * **σ** (`filter_select`) — the selected-guess mask evaluates with the
//!   existing typed [`crate::kernels::truth_masks`] over the bg columns.
//!   The possibly-true / certainly-true analysis is *kernel-native* for
//!   predicates built from comparisons, `BETWEEN`, literal `IN` lists and
//!   `AND`/`OR`/`NOT` whose operands the expression kernel evaluates
//!   ([`crate::kernels::eval_triple`]: dense same-typed `Int`/`Float`/`Str`
//!   triples, literals, `+ − ×` over the numeric ones):
//!   [`crate::kernels::range_truth_masks`] applies `cmp_possibilities`'
//!   endpoint rules to the operand triples directly and combines the
//!   leaves with bitmap ops (such triples are never top, so no leaf can be
//!   *unknown* and Kleene logic is two bitmaps). `IS [NOT] NULL` over a
//!   stored column of any representation is native too — the anti-join
//!   filter every `NOT IN` / `NOT EXISTS` lowers to. Every other shape — a
//!   comparison over a column holding `±∞` bounds, definite NULLs or top
//!   ranges, a `÷` or `CASE` operand, a NaN under an Int/Float coercion —
//!   sends the batch down the per-row `ua_ranges::truth_range` path, over
//!   ranges assembled for the referenced columns only. Either way `ua_m_lb` /
//!   `ua_m_bg` are refined by masking, and the survivors and those two
//!   columns become the morsel's selection, gathered by the operator that
//!   reads them (`exec`'s "Selections"): one gather of each distinct
//!   buffer, so a point column (bounds aliasing `bg`) is still one above
//!   the filter.
//! * **π** (`map_batch`) — every kernel-native output column comes out of
//!   [`crate::kernels::eval_triple`] as three typed columns (interval
//!   arithmetic at column speed; points map to points whose bounds alias
//!   `bg`). What it declines keeps its old evaluation: other stored
//!   triples are `O(1)` column clones, other literals broadcast, and a
//!   computed expression — `÷`, `CASE`, NULL-able operands, a batch with a
//!   row that widens to top or overflows — pays per-row interval
//!   evaluation over the referenced columns only, re-anchored via
//!   `ua_ranges::reanchor` (preserving definite NULLs, exactly like the
//!   row engine's `eval_range`).
//! * **alias** — the driver's own re-qualification stage over the
//!   flattened schema.
//! * **⋈ (hash)** — a probe stage, triple-column-native (`AuProbe`).
//!   At bind the build side executes into one chunk and its *keyed* rows —
//!   every key a hashable point (`lb = bg = ub`, checked columnar; NaN
//!   excluded) of its column's family, which the first hashable build row
//!   fixes — go into the deterministic engine's hash index
//!   (`ops::build_index`, integer fast path and partitioned build
//!   included); every other row is *fuzzy* and joins every candidate list,
//!   `ua_ranges::SgKeyIndex`'s rule. Each morsel evaluates its own probe
//!   keys and probes read-only, probe-major, candidates ascending in
//!   build-scan order — the row operator's order, byte for byte. A
//!   morsel a σ selected is probed through its selection: the keys
//!   evaluate over the survivors only, their refined multiplicities enter
//!   the products, and the output gathers straight from the scan batch.
//!   Pruning is sound because a pruned pair's keys differ between two
//!   points of one family (or a point and a definite NULL): its key
//!   equality is certainly false. A pair the index finds between
//!   same-typed point keys, with no residual, is certainly equal and
//!   keeps the plain `MultBound::times` product unrefined; every other
//!   candidate (fuzzy key, residual, mixed key types) is refined by the
//!   shared `ua_ranges::ops::refine_pair_mult` over ranges assembled for
//!   that pair only. Each side's columns gather
//!   through one aliasing-aware gather (a point column leaves as one
//!   buffer), never re-encoded.
//!
//! Sources:
//!
//! * **Scan** — batches the encoded table directly, chunk-parallel on the
//!   morsel pool. Each chunk validates with a typed columnar fast path
//!   (same-type `lb ≤ bg ≤ ub` triples under the domain order, well-formed
//!   positive multiplicities); only chunks that fail it pay the row-wise
//!   `decode_row`/`encode_row` normalization — pay-as-you-go, and the
//!   first malformed row reports exactly like the row engine's scan.
//! * **γ, δ** — column-native in and out (`Driver::{au_aggregate,
//!   au_distinct}`). Group keys and aggregate arguments — for δ, every
//!   attribute as a key — assemble per column into an `AggCols` of
//!   `TripleCol`s (`agg_input`: stored dense triples copy their slices,
//!   other columns and computed expressions become per-row ranges, the
//!   latter re-anchoring interval evaluation on typed-kernel selected
//!   guesses). The row engine's own `ua_ranges::ops::{aggregate_cols,
//!   distinct_cols}` group, hull and bound them — typed over dense
//!   triples: `i64` keys, column-wise key hashing, `min lb` / `max ub`
//!   hulls, two-comparison intersections — and return a column-major
//!   `AuCols`, which `Driver::write_cols` writes straight into flattened
//!   batches: dense columns copy their slices, per-row ones encode, each
//!   slice in the representation the encoded rows would convert into. No
//!   row tuples, no relation.
//! * **−, ⟕, ⋈ (keyless, non-equi)** — column-native
//!   selection (`Driver::{au_except, au_outer_join, au_join}`). Each input
//!   concatenates into one chunk and is read through a `ChunkView`, the
//!   vectorized `ua_ranges::ops::RowView`: a cell's pin comes off its
//!   column's `point_mask` (O(1) when the bounds alias `bg`), a range is
//!   assembled only when a bound rule asks for one, and the join keys are
//!   evaluated by `expr_triple` as the hash join's are. The selected-guess
//!   index (`ua_ranges::SgKeyIndex`) reads a key column through
//!   `RowView::key_column`: the view hands its typed `bg` buffer as it is
//!   and its point mask, so keying both sides is one grouping pass. The
//!   shared
//!   `ua_ranges::ops::{except_select, outer_join_select, JoinSelect}` —
//!   the very bound rules and pair loop the row engine's `except` /
//!   `outer_join` / `join` / `hash_join` run — return which rows survive,
//!   paired with what, under which triple (`⋈` one `batch_rows` range of
//!   probe rows per pool task); the driver gathers that selection out of
//!   the chunks (`Driver::gather_selection`). Nothing crosses into an
//!   `AuRelation`. The candidate pairs a selection refined through the
//!   range rule are its operator's `rowwise_pairs`.
//!
//! No operator falls back to the row engine's materialize-and-dispatch
//! path: every `au.vec.fallback.*` counter stays pinned at zero
//! (regression-tested in the engine's observability suite). What *does*
//! still run row-wise inside σ, π and hash-⋈ is counted: the
//! `au.vec.rowwise.{filter_rows, project_rows, join_pairs}` registry
//! counters and the `rowwise_rows` / `rowwise_pairs` extras on the Filter
//! / Map / HashJoin stats nodes say how much of an operator paid for
//! uncertainty (zero over all-certain data); Except / OuterJoin / Join
//! nodes report `rowwise_pairs` from their selection, with no registry
//! counter.

use crate::bitmap::Bitmap;
use crate::columnar::{
    chunk_columns, chunk_to_batch, convert_chunks, gather_columns, BatchStream, ColumnBatch,
    ColumnVec,
};
use crate::exec::{Driver, Survivors};
use crate::kernels::{
    eval_expr, eval_triple, is_definite_null, range_truth_masks, truth_masks, Evaluated,
};
use crate::ops::{build_index, probe_index, JoinIndex};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use ua_data::algebra::{EquiKey, JoinKeys, ProjColumn};
use ua_data::expr::Expr;
use ua_data::schema::{Column, Schema};
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_plan::plan::{AggExpr, Plan};
use ua_plan::storage::Table;
use ua_plan::{AggFunc, EngineError};
use ua_ranges::ops::{
    bind_hash_keys, bind_on, distinct_cols, except_select, key_family, outer_join_select,
    refine_pair_mult, JoinSelect, Pin, RowView, Selection, SgColumn,
};
use ua_ranges::{
    approx_range, decode_row, encode_row, flattened_schema, range_from_parts, range_parts,
    reanchor, truth_range, AggCols, AuCols, MultBound, RangeValue, TripleCol, WidthSummary,
};

/// The user schema of an AU stream: the first `(arity − 3) / 3` columns of
/// its flattened schema (what `ua_ranges::au_base_schema` returns, minus
/// the layout validation scans already did).
pub(crate) fn user_schema(flat: &Schema) -> Schema {
    Schema::new(flat.columns()[..(flat.arity() - 3) / 3].to_vec())
}

/// The batch's selected-guess view: the first `n` columns under the user
/// schema (cheap `Arc` clones), so the deterministic kernels evaluate bg
/// expressions directly.
fn bg_view(batch: &ColumnBatch, user: &Schema) -> ColumnBatch {
    let n = user.arity();
    ColumnBatch::new(user.clone(), batch.columns()[..n].to_vec(), batch.len())
}

/// Row `i`'s range for attribute `c`, assembled from its triple columns.
fn range_at(batch: &ColumnBatch, n: usize, c: usize, i: usize) -> RangeValue {
    range_from_parts(
        batch.column(n + c).value(i),
        batch.column(c).value(i),
        batch.column(2 * n + c).value(i),
    )
}

/// Row-at-a-time range assembly for the shapes the typed kernels do not
/// cover, restricted to the columns an expression reads: every other
/// position keeps a placeholder the range evaluator never looks at, so a
/// one-column predicate over a 16-column table builds one range per row,
/// not sixteen.
struct RefRanges {
    refs: Vec<usize>,
    row: Vec<RangeValue>,
}

impl RefRanges {
    /// Scratch for `expr`, bound over `arity` columns.
    fn new(expr: &Expr, arity: usize) -> RefRanges {
        let mut refs = Vec::new();
        expr.referenced_columns(&mut refs);
        refs.sort_unstable();
        refs.dedup();
        RefRanges {
            refs,
            row: vec![RangeValue::null(); arity],
        }
    }

    /// Load row `i` of `batch` (user arity `n`) into the referenced
    /// positions among `offset..offset + n` — `offset` places the right
    /// side of a join pair after the left side.
    fn load(&mut self, batch: &ColumnBatch, n: usize, i: usize, offset: usize) {
        for &r in &self.refs {
            if (offset..offset + n).contains(&r) {
                self.row[r] = range_at(batch, n, r - offset, i);
            }
        }
    }
}

/// Per-row "pins a single known value" mask of one `[lb, bg, ub]` column
/// triple. Dense same-typed triples compare the raw slices (the stream
/// invariant `lb ≤ bg ≤ ub` makes `lb = bg = ub` exactly
/// [`RangeValue::is_point`]) — or nothing at all when both bounds *are*
/// the `bg` buffer, which is how a scan stores a never-uncertain column
/// ([`share_point_bounds`]); anything else assembles the range.
fn point_mask(lb: &ColumnVec, bg: &ColumnVec, ub: &ColumnVec) -> Bitmap {
    fn dense<T: PartialEq>(l: &Arc<Vec<T>>, b: &Arc<Vec<T>>, u: &Arc<Vec<T>>) -> Bitmap {
        if Arc::ptr_eq(l, b) && Arc::ptr_eq(u, b) {
            return Bitmap::filled(b.len(), true);
        }
        Bitmap::from_fn(b.len(), |i| l[i] == b[i] && b[i] == u[i])
    }
    match (lb, bg, ub) {
        (ColumnVec::Int(l), ColumnVec::Int(b), ColumnVec::Int(u)) => dense(l, b, u),
        (ColumnVec::Float(l), ColumnVec::Float(b), ColumnVec::Float(u)) => dense(l, b, u),
        (ColumnVec::Bool(l), ColumnVec::Bool(b), ColumnVec::Bool(u)) => dense(l, b, u),
        (ColumnVec::Str(l), ColumnVec::Str(b), ColumnVec::Str(u)) => dense(l, b, u),
        _ => Bitmap::from_fn(bg.len(), |i| {
            range_from_parts(lb.value(i), bg.value(i), ub.value(i)).is_point()
        }),
    }
}

/// The three `ua_m_*` multiplicity columns as raw slices. Every stream
/// batch carries them as dense non-negative `Int`s (scans validate or
/// normalize, operators write `Int` columns); only an empty batch sniffs
/// as an empty untyped column.
fn mult_slices(batch: &ColumnBatch, n: usize) -> [&[i64]; 3] {
    [0, 1, 2].map(|k| match batch.column(3 * n + k) {
        ColumnVec::Int(v) => v.as_slice(),
        other => {
            assert!(other.is_empty(), "AU multiplicity columns are dense Ints");
            &[]
        }
    })
}

/// The batch's multiplicity triples, row by row.
fn mult_bounds(batch: &ColumnBatch, n: usize) -> impl Iterator<Item = MultBound> + '_ {
    let [lb, bg, ub] = mult_slices(batch, n);
    (0..batch.len()).map(move |i| MultBound::new(lb[i] as u64, bg[i] as u64, ub[i] as u64))
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

/// Make every bound column of a canonical chunk that equals its
/// selected-guess column *be* that column's buffer: an attribute's `lb` /
/// `ub` equal to its `bg`, and `ua_m_lb` / `ua_m_ub` equal to `ua_m_bg`.
/// Values are unchanged; the decoded copy, resident in the catalog's chunk
/// store, pays for bounds in proportion to the uncertain columns, and
/// [`point_mask`] recognises the shared buffer without comparing.
fn share_point_bounds(columns: &mut [ColumnVec], n: usize) {
    let pairs = (0..n).flat_map(|c| [(n + c, c), (2 * n + c, c)]);
    for (bound, bg) in pairs.chain([(3 * n, 3 * n + 1), (3 * n + 2, 3 * n + 1)]) {
        if columns[bound] == columns[bg] {
            columns[bound] = columns[bg].clone();
        }
    }
}

/// Convert one encoded-table chunk into a batch: the typed columnar
/// canonical check first, the row-wise `decode_row`/`encode_row`
/// normalization (dropping `ub = 0` rows, erroring on the first malformed
/// multiplicity — identical to the row engine's scan) only when it fails.
fn scan_chunk(flat: &Schema, n: usize, chunk: &[Tuple]) -> Result<ColumnBatch, EngineError> {
    let mut columns = chunk_columns(flat.arity(), chunk);
    if chunk_is_canonical(&columns, n) {
        share_point_bounds(&mut columns, n);
        return Ok(ColumnBatch::new(flat.clone(), columns, chunk.len()));
    }
    let mut rows: Vec<Tuple> = Vec::with_capacity(chunk.len());
    for row in chunk {
        if let Some(t) = decode_row(n, row).map_err(EngineError::Sql)? {
            rows.push(encode_row(&t));
        }
    }
    Ok(chunk_to_batch(flat, &rows))
}

/// The per-row ranges of a *computed* (bound) expression: an interval
/// evaluation over the referenced columns only, re-anchored on `bg`, the
/// typed-kernel selected guess — per row exactly `ua_ranges::eval_range`
/// (which is `reanchor(approx_range(e), e.eval(bg))`, so a definite NULL
/// projected through a computed expression stays definite).
fn computed_ranges<'a>(
    batch: &'a ColumnBatch,
    n: usize,
    expr: &'a Expr,
    bg: &'a ColumnVec,
) -> impl Iterator<Item = RangeValue> + 'a {
    let mut rows = RefRanges::new(expr, n);
    (0..batch.len()).map(move |i| {
        rows.load(batch, n, i, 0);
        reanchor(&approx_range(expr, &rows.row), bg.value(i))
    })
}

/// Evaluate one bound expression's per-row attribute ranges over a batch:
/// plain references assemble from the stored triples, literals broadcast,
/// computed expressions go through [`computed_ranges`].
fn expr_ranges(
    batch: &ColumnBatch,
    n: usize,
    expr: &Expr,
    bgv: &ColumnBatch,
) -> Result<Vec<RangeValue>, EngineError> {
    let len = batch.len();
    match expr {
        Expr::Col(c) => Ok((0..len).map(|i| range_at(batch, n, *c, i)).collect()),
        Expr::Lit(v) => Ok(vec![RangeValue::point(v.clone()); len]),
        other => {
            let bg = eval_expr(other, bgv)?.into_column(len);
            Ok(computed_ranges(batch, n, other, &bg).collect())
        }
    }
}

/// Evaluate one bound expression into its `[bg, lb, ub]` columns — the
/// columnar form of [`expr_ranges`] — and say whether the batch took the
/// per-row path. Every kernel-native shape ([`eval_triple`]: stored dense
/// triples, literals, `+` / `−` / `×` over them) comes out of the typed
/// evaluator, point columns aliasing their `bg` buffer. What it declines
/// keeps the evaluation it had: a stored triple of any other
/// representation is three `O(1)` column clones, any other literal
/// broadcasts, and a computed expression pays [`computed_ranges`] per row
/// over the typed-kernel selected guess.
fn expr_triple(
    batch: &ColumnBatch,
    n: usize,
    expr: &Expr,
    bgv: &ColumnBatch,
) -> Result<([ColumnVec; 3], bool), EngineError> {
    let len = batch.len();
    if let Some(triple) = eval_triple(expr, batch, n) {
        return Ok((triple.into_columns(), false));
    }
    match expr {
        Expr::Col(c) => Ok((
            [
                batch.column(*c).clone(),
                batch.column(n + c).clone(),
                batch.column(2 * n + c).clone(),
            ],
            false,
        )),
        Expr::Lit(v) => {
            let (lb, bg, ub) = range_parts(&RangeValue::point(v.clone()));
            Ok((
                [&bg, &lb, &ub].map(|part| ColumnVec::broadcast(part, len)),
                false,
            ))
        }
        other => {
            let bg = eval_expr(other, bgv)?.into_column(len);
            let mut lbs: Vec<Value> = Vec::with_capacity(len);
            let mut ubs: Vec<Value> = Vec::with_capacity(len);
            for r in computed_ranges(batch, n, other, &bg) {
                let (lb, _, ub) = range_parts(&r);
                lbs.push(lb);
                ubs.push(ub);
            }
            Ok((
                [
                    bg,
                    ColumnVec::from_values(lbs.iter()),
                    ColumnVec::from_values(ubs.iter()),
                ],
                true,
            ))
        }
    }
}

/// The AU sources of the one vectorized [`Driver`] — what its
/// `source_traced` runs under `Semantics::Au` for Scan, γ, δ, `−`, `⟕` and
/// `Plan::Join`. Every stream in and out is a [`BatchStream`] over a
/// flattened AU schema.
impl Driver<'_> {
    /// Decode an AU-encoded table into batches, chunk-parallel — the AU
    /// builder of the catalog's chunk store (`Driver::scan`). Validation
    /// is columnar per chunk ([`chunk_is_canonical`]); the first malformed
    /// row errors exactly like the row engine's decode (chunks merge in
    /// table order).
    pub(crate) fn au_scan(&self, table: &Table) -> Result<BatchStream, EngineError> {
        let flat = table.schema();
        let user = ua_ranges::au_base_schema(flat).ok_or_else(|| {
            EngineError::Sql(format!(
                "schema {flat} is not AU-encoded (ua_lb_*/ua_ub_*/ua_m_* layout)"
            ))
        })?;
        let schema = flattened_schema(&user);
        let n = user.arity();
        let batches = convert_chunks(table.rows(), self.batch_rows, &self.pool, |chunk| {
            scan_chunk(&schema, n, chunk)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .filter(|b| !b.is_empty())
        .collect();
        Ok(BatchStream { schema, batches })
    }

    /// `⟦−⟧_AU` (EXCEPT [ALL]), column-native: both inputs are read as
    /// [`ChunkView`]s, the shared `ua_ranges::ops::except_select` keeps the
    /// surviving left rows with their triples, and
    /// [`Driver::gather_selection`] gathers them. Returned beside them: the
    /// candidate pairs the selection refined (`Selection::refined`).
    pub(crate) fn au_except(
        &self,
        ls: BatchStream,
        rs: BatchStream,
        all: bool,
    ) -> Result<(BatchStream, u64), EngineError> {
        let (luser, ruser) = (user_schema(&ls.schema), user_schema(&rs.schema));
        // The row engine's check and error speak of the user arities.
        luser
            .check_union_compatible(&ruser)
            .map_err(EngineError::Schema)?;
        let (left, right) = ChunkView::pair(ls, rs, &JoinKeys::default())?;
        let selection = except_select(&left, &right, luser.arity(), all);
        let out = self.gather_selection(flattened_schema(&luser), &selection, &left, None);
        Ok((out, selection.refined))
    }

    /// `⟦⟕⟧_AU` / `⟦⟖⟧_AU`, column-native: the ON clause binds over the
    /// user schemas (`ua_ranges::ops::bind_on`), each input is read as a
    /// [`ChunkView`] carrying its side of the clause's candidate keys, the
    /// shared `ua_ranges::ops::outer_join_select` picks the matched pairs
    /// and pads with their triples, and [`Driver::gather_selection`]
    /// gathers them. Returned beside them: the candidate pairs refined.
    pub(crate) fn au_outer_join(
        &self,
        ls: BatchStream,
        rs: BatchStream,
        predicate: Option<&Expr>,
        left_kind: bool,
    ) -> Result<(BatchStream, u64), EngineError> {
        let (luser, ruser) = (user_schema(&ls.schema), user_schema(&rs.schema));
        let (bound, keys) = bind_on(predicate, &luser, &ruser).map_err(EngineError::Expr)?;
        let (left, right) = ChunkView::pair(ls, rs, &keys)?;
        let arities = (left.n, right.n);
        let selection = outer_join_select(&left, &right, arities, bound.as_ref(), &keys, left_kind);
        let selection = selection.map_err(EngineError::Expr)?;
        let flat = flattened_schema(&luser.concat(&ruser));
        let out = self.gather_selection(flat, &selection, &left, Some(&right));
        Ok((out, selection.refined))
    }

    /// `⟦⋈⟧_AU` for `Plan::Join` — keyless, non-equi, or keyed with the
    /// optimizer off: the predicate binds like `⟕`'s ON clause, each input
    /// is read as a [`ChunkView`] carrying its side of the clause's
    /// candidate keys, the shared `ua_ranges::ops::JoinSelect` — the very
    /// pair loop of the row engine's `join` / `hash_join` — selects the
    /// surviving pairs of each `batch_rows` range of left rows on the pool,
    /// the selections concatenate in range order (the lowest failing
    /// range's error wins, the row engine's scan order), and
    /// [`Driver::gather_selection`] gathers them. Returned beside them: the
    /// candidate pairs refined.
    pub(crate) fn au_join(
        &self,
        ls: BatchStream,
        rs: BatchStream,
        predicate: Option<&Expr>,
    ) -> Result<(BatchStream, u64), EngineError> {
        let (luser, ruser) = (user_schema(&ls.schema), user_schema(&rs.schema));
        let (bound, keys) = bind_on(predicate, &luser, &ruser).map_err(EngineError::Expr)?;
        let (left, right) = ChunkView::pair(ls, rs, &keys)?;
        let arities = (left.n, right.n);
        let join = JoinSelect::new(&left, &right, arities, bound.as_ref(), &keys, false);
        let (rows, step) = (join.probe_len(), self.batch_rows.max(1));
        let ranges: Vec<Range<usize>> = (0..rows)
            .step_by(step)
            .map(|start| start..(start + step).min(rows))
            .collect();
        let mut selection = Selection::default();
        for part in self
            .pool
            .map_in_order(ranges, |_, probe| join.select(probe))
        {
            selection.append(part.map_err(EngineError::Expr)?);
        }
        let flat = flattened_schema(&luser.concat(&ruser));
        let out = self.gather_selection(flat, &selection, &left, Some(&right));
        Ok((out, selection.refined))
    }

    /// Gather a [`Selection`] out of its inputs' chunks
    /// ([`Driver::write_batches`]). Each side's attribute columns go
    /// through [`gather_columns`], so a buffer several columns alias is
    /// gathered once; a side some row pads is its chunk plus one appended
    /// definite-NULL row (the trick the deterministic `ops::outer_join`
    /// plays), built only then.
    fn gather_selection(
        &self,
        flat: Schema,
        selection: &Selection,
        left: &ChunkView,
        right: Option<&ChunkView>,
    ) -> BatchStream {
        /// One side's gather indices, its pad at row `pad`.
        fn indices(rows: &[Option<usize>], pad: usize) -> Vec<u32> {
            rows.iter().map(|r| r.unwrap_or(pad) as u32).collect()
        }
        let sides: Vec<(&ChunkView, &[Option<usize>])> =
            std::iter::once((left, &selection.left[..]))
                .chain(right.map(|r| (r, &selection.right[..])))
                .collect();
        let columns: Vec<Vec<ColumnVec>> = sides
            .iter()
            .map(|(view, rows)| view.attributes(rows.contains(&None)))
            .collect();
        let width = flat.arity() - 3;
        self.write_batches(flat, &selection.mults, |slice| {
            let gathered: Vec<Vec<ColumnVec>> = sides
                .iter()
                .zip(&columns)
                .map(|((view, rows), cols)| {
                    gather_columns(cols, &indices(&rows[slice.clone()], view.len()))
                })
                .collect();
            // Flattened layout of `left ++ right`: all bg, all lb, all ub.
            let mut out: Vec<ColumnVec> = Vec::with_capacity(width);
            for part in 0..3 {
                for ((view, _), cols) in sides.iter().zip(&gathered) {
                    out.extend_from_slice(&cols[part * view.n..(part + 1) * view.n]);
                }
            }
            out
        })
    }

    /// A γ / δ result written straight into flattened batches over
    /// `user`'s flattened schema ([`Driver::write_batches`]), no relation
    /// in between: per slice, each column's `[bg, lb, ub]` comes out of
    /// [`triple_slice`].
    fn write_cols(&self, user: &Schema, out: &AuCols) -> BatchStream {
        self.write_batches(flattened_schema(user), &out.mults, |slice| {
            let triples: Vec<[ColumnVec; 3]> = out
                .cols
                .iter()
                .map(|col| triple_slice(col, slice.clone()))
                .collect();
            (0..3)
                .flat_map(|part| triples.iter().map(move |t| t[part].clone()))
                .collect()
        })
    }

    /// Lay `mults.len()` output rows out in `batch_rows` slices — the batch
    /// boundaries a re-batched relation has: `attributes(slice)` writes a
    /// slice's attribute columns in flattened order, and the multiplicity
    /// columns are written once, from the triples (clamped to `i64` as the
    /// row encoding clamps them). A debug build rejects an ill-formed
    /// triple here, as `AuRelation::push` does on the row engine.
    fn write_batches(
        &self,
        flat: Schema,
        mults: &[MultBound],
        mut attributes: impl FnMut(Range<usize>) -> Vec<ColumnVec>,
    ) -> BatchStream {
        debug_assert!(mults.iter().all(MultBound::is_well_formed));
        let parts: [fn(&MultBound) -> u64; 3] = [|m| m.lb, |m| m.bg, |m| m.ub];
        let step = self.batch_rows.max(1);
        let total = mults.len();
        let batches = (0..total)
            .step_by(step)
            .map(|start| {
                let slice = start..(start + step).min(total);
                let len = slice.len();
                let mut columns = attributes(slice.clone());
                columns.extend(parts.map(|part| {
                    let clamped = mults[slice.clone()]
                        .iter()
                        .map(|m| i64::try_from(part(m)).unwrap_or(i64::MAX));
                    ColumnVec::Int(Arc::new(clamped.collect()))
                }));
                ColumnBatch::new(flat.clone(), columns, len)
            })
            .collect();
        BatchStream {
            schema: flat,
            batches,
        }
    }

    /// `⟦γ⟧_AU`, triple-column-native: group keys, aggregate arguments
    /// and multiplicity triples assemble columnar into the shared
    /// [`AggCols`] ([`agg_input`]: plain references over dense same-typed
    /// triples copy the `lb/bg/ub` slices straight off the canonical
    /// chunks, everything else evaluates per row via [`expr_ranges`]), the
    /// single workspace bound combination (`ua_ranges::ops::aggregate_cols`
    /// — typed grouping, hulls, intersections and bounds over the dense
    /// triples) folds the groups, and its column-major result is written
    /// out as batches ([`Driver::write_cols`]). Returned beside them: the
    /// fold's `listed_rows`.
    pub(crate) fn au_aggregate(
        &self,
        stream: &BatchStream,
        group_by: &[ProjColumn],
        aggregates: &[AggExpr],
    ) -> Result<(BatchStream, u64), EngineError> {
        let user = user_schema(&stream.schema);
        let bound_keys: Vec<Expr> = group_by
            .iter()
            .map(|g| g.expr.bind(&user))
            .collect::<Result<_, _>>()
            .map_err(EngineError::Expr)?;
        let bound_args: Vec<Option<Expr>> = aggregates
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.bind(&user)).transpose())
            .collect::<Result<_, _>>()
            .map_err(EngineError::Expr)?;
        let input = agg_input(stream, &user, &bound_keys, &bound_args)?;
        let kinds: Vec<AggFunc> = aggregates.iter().map(|a| a.func).collect();
        let mut columns: Vec<Column> = group_by.iter().map(|g| g.column.clone()).collect();
        columns.extend(aggregates.iter().map(|a| Column::unqualified(&a.name)));
        let out = ua_ranges::ops::aggregate_cols(&input, &kinds);
        Ok((
            self.write_cols(&Schema::new(columns), &out),
            out.listed_rows,
        ))
    }

    /// `⟦δ⟧_AU`, triple-column-native: every attribute assembles into the
    /// shared [`AggCols`] as a key, exactly as γ's keys do ([`agg_input`]),
    /// the row engine's own `ua_ranges::ops::distinct_cols` merges the rows
    /// by selected-guess tuple (typed hulls over dense triples; `lb`/`bg`
    /// cap at 1, `ub` sums), and [`Driver::write_cols`] writes the result.
    pub(crate) fn au_distinct(&self, stream: &BatchStream) -> Result<BatchStream, EngineError> {
        let user = user_schema(&stream.schema);
        let attributes: Vec<Expr> = (0..user.arity()).map(Expr::Col).collect();
        let input = agg_input(stream, &user, &attributes, &[])?;
        Ok(self.write_cols(&user, &distinct_cols(&input)))
    }
}

/// One input of AU `⋈`, `−` or `⟕` as a [`RowView`] — how the shared
/// bound rules read the vectorized engine's columns: the stream
/// concatenated into one chunk (aliased point bounds stay aliased), its
/// attribute triples as columns `0..n`, then any evaluated key triples. A
/// cell's pin reads its column's [`point_mask`], built on first use (O(1)
/// when the bounds alias `bg`) by whichever pool worker asks first; a range
/// is assembled only when a bound rule asks for one.
struct ChunkView {
    chunk: ColumnBatch,
    /// User arity.
    n: usize,
    /// Evaluated key triples `[bg, lb, ub]`: columns `n..`.
    keys: Vec<[ColumnVec; 3]>,
    /// Per column, its point rows.
    points: Vec<OnceLock<Bitmap>>,
    mults: Vec<MultBound>,
}

impl ChunkView {
    /// `stream` with its `side` of the (bound) join `keys` evaluated over
    /// it — typed where [`expr_triple`] is, a plain reference being its
    /// column triple.
    fn new(stream: BatchStream, keys: &JoinKeys, side: Side) -> Result<ChunkView, EngineError> {
        let user = user_schema(&stream.schema);
        let chunk = stream.into_single_chunk();
        let n = user.arity();
        let mut bgv = None;
        let keys: Vec<[ColumnVec; 3]> = keys
            .keys
            .iter()
            .map(|k| {
                let bgv = bgv.get_or_insert_with(|| bg_view(&chunk, &user));
                expr_triple(&chunk, n, side(k), bgv).map(|(triple, _)| triple)
            })
            .collect::<Result<_, _>>()?;
        Ok(ChunkView {
            points: (0..n + keys.len()).map(|_| OnceLock::new()).collect(),
            mults: mult_bounds(&chunk, n).collect(),
            chunk,
            n,
            keys,
        })
    }

    /// Both inputs of a `⋈`, `−` or `⟕`, each carrying its side of `keys`
    /// — the left side's evaluated first.
    fn pair(
        ls: BatchStream,
        rs: BatchStream,
        keys: &JoinKeys,
    ) -> Result<(ChunkView, ChunkView), EngineError> {
        let left = ChunkView::new(ls, keys, |k| &k.left)?;
        Ok((left, ChunkView::new(rs, keys, |k| &k.right)?))
    }

    /// Column `c`'s `(lb, bg, ub)`.
    fn triple(&self, c: usize) -> (&ColumnVec, &ColumnVec, &ColumnVec) {
        match c.checked_sub(self.n) {
            Some(k) => {
                let [bg, lb, ub] = &self.keys[k];
                (lb, bg, ub)
            }
            None => (
                self.chunk.column(self.n + c),
                self.chunk.column(c),
                self.chunk.column(2 * self.n + c),
            ),
        }
    }

    /// The attribute columns in flattened order `[bg*, lb*, ub*]`; with
    /// `pad`, each one row longer — the encoded definite NULL, at row
    /// `len()`. Columns that alias one buffer still do.
    fn attributes(&self, pad: bool) -> Vec<ColumnVec> {
        let columns = &self.chunk.columns()[..3 * self.n];
        if !pad {
            return columns.to_vec();
        }
        let (sentinel, null, _) = range_parts(&RangeValue::null());
        let mut out: Vec<ColumnVec> = Vec::with_capacity(columns.len());
        for (c, col) in columns.iter().enumerate() {
            // A bg column pads with NULL, a bound column with the sentinel.
            let is_bg = c < self.n;
            let alias = (0..c).find(|&p| (p < self.n) == is_bg && columns[p].shares_buffer(col));
            out.push(match alias {
                Some(p) => out[p].clone(),
                None => {
                    let pad = ColumnVec::broadcast(if is_bg { &null } else { &sentinel }, 1);
                    ColumnVec::concat(&[col, &pad])
                }
            });
        }
        out
    }
}

impl RowView for ChunkView {
    fn len(&self) -> usize {
        self.chunk.len()
    }

    fn mult(&self, i: usize) -> MultBound {
        self.mults[i]
    }

    fn bg(&self, i: usize, c: usize) -> Value {
        self.triple(c).1.value(i)
    }

    fn pin(&self, i: usize, c: usize) -> Pin {
        let (lb, bg, ub) = self.triple(c);
        if self.points[c].get_or_init(|| point_mask(lb, bg, ub)).get(i) {
            let nan = match bg {
                ColumnVec::Float(v) => v[i].get().is_nan(),
                ColumnVec::Mixed(v) => matches!(&v[i], Value::Float(f) if f.get().is_nan()),
                _ => false,
            };
            if nan {
                Pin::Nan
            } else {
                Pin::Point
            }
        } else if is_definite_null(lb, bg, ub, i) {
            Pin::Null
        } else {
            Pin::Loose
        }
    }

    fn range(&self, i: usize, c: usize) -> Cow<'_, RangeValue> {
        let (lb, bg, ub) = self.triple(c);
        Cow::Owned(range_from_parts(lb.value(i), bg.value(i), ub.value(i)))
    }

    /// A typed `bg` buffer is handed as it is (a `Mixed` one under
    /// `join_key`), and the point rows off [`point_mask`] — `None` when
    /// every row is one.
    fn key_column(&self, c: usize) -> (SgColumn<'_>, Option<Vec<bool>>) {
        let (lb, bg, ub) = self.triple(c);
        let keys = match bg {
            ColumnVec::Int(v) => SgColumn::Int(Cow::Borrowed(v)),
            ColumnVec::Float(v) => SgColumn::Float(Cow::Borrowed(v)),
            ColumnVec::Bool(v) => SgColumn::Bool(Cow::Borrowed(v)),
            ColumnVec::Str(v) => SgColumn::Str(Cow::Borrowed(v)),
            ColumnVec::Mixed(v) => {
                SgColumn::Values(v.iter().map(|x| x.clone().join_key()).collect())
            }
        };
        let mask = self.points[c].get_or_init(|| point_mask(lb, bg, ub));
        let points = (!mask.all_ones()).then(|| (0..mask.len()).map(|i| mask.get(i)).collect());
        (keys, points)
    }
}

/// Which side of a join key a join input evaluates.
type Side = fn(&EquiKey) -> &Expr;

/// One join side's evaluated key columns over a batch (or the build
/// chunk), restricted to the survivors of a σ below when it left any.
struct SideKeys {
    /// The selected-guess key columns, one per key.
    bg: Vec<ColumnVec>,
    /// Rows whose every key is a *hashable point* (`lb = bg = ub`, not
    /// NaN — what `ua_ranges::SgKeyIndex` asks of a keyed row under join
    /// equality, checked columnar).
    point: Bitmap,
}

impl SideKeys {
    /// Evaluate the (bound) key expressions `keys` of a side with user
    /// schema `user` over the rows `sel` of `batch` (`None`: every row).
    /// A plain column reference gathers its three columns — aliased
    /// buffers once — and anything else evaluates over the survivors,
    /// gathered on first need, as the det probe's `eval_selected` does.
    fn eval(
        batch: &ColumnBatch,
        sel: Option<&[u32]>,
        user: &Schema,
        keys: &[Expr],
    ) -> Result<SideKeys, EngineError> {
        let n = user.arity();
        let mut gathered: Option<(ColumnBatch, ColumnBatch)> = None;
        let len = sel.map_or(batch.len(), <[u32]>::len);
        let mut point = Bitmap::filled(len, true);
        let mut bg = Vec::with_capacity(keys.len());
        for key in keys {
            let [b, lb, ub] = match (sel, key) {
                (Some(rows), &Expr::Col(c)) => {
                    let triple = [c, n + c, 2 * n + c].map(|i| batch.column(i).clone());
                    let gathered = gather_columns(&triple, rows);
                    gathered.try_into().expect("three columns")
                }
                _ => {
                    let (rows, bgv) = gathered.get_or_insert_with(|| {
                        let rows = sel.map_or_else(|| batch.clone(), |sel| batch.gather(sel));
                        let bgv = bg_view(&rows, user);
                        (rows, bgv)
                    });
                    expr_triple(rows, n, key, bgv)?.0
                }
            };
            point.and_assign(&point_mask(&lb, &b, &ub));
            // NaN compares `None` against ints (three-valued ANY): fuzzy.
            match &b {
                ColumnVec::Float(vals) => {
                    point.and_not_assign(&Bitmap::from_fn(len, |i| vals[i].get().is_nan()));
                }
                ColumnVec::Mixed(vals) => point.and_not_assign(&Bitmap::from_fn(
                    len,
                    |i| matches!(&vals[i], Value::Float(f) if f.get().is_nan()),
                )),
                _ => {}
            }
            bg.push(b);
        }
        Ok(SideKeys { bg, point })
    }

    /// The rows an index holds or looks up: hashable points whose every
    /// key is of its column's `families` (`ua_ranges::SgKeyIndex`'s rule;
    /// `None`: no row is). Every other row is fuzzy.
    fn keyed(&self, families: Option<&[u8]>) -> Bitmap {
        let len = self.point.len();
        let Some(families) = families else {
            return Bitmap::filled(len, false);
        };
        let mut keyed = self.point.clone();
        for (col, &family) in self.bg.iter().zip(families) {
            match col {
                ColumnVec::Mixed(vals) => {
                    keyed.and_assign(&Bitmap::from_fn(len, |i| key_family(&vals[i]) == family));
                }
                // A typed column's values all share one family.
                typed if len > 0 && key_family(&typed.value(0)) != family => {
                    return Bitmap::filled(len, false)
                }
                _ => {}
            }
        }
        keyed
    }

    /// The bg key columns restricted to `rows` (`None` = every row), in
    /// the form [`build_index`] / [`probe_index`] take.
    fn index_columns(&self, rows: Option<&[u32]>) -> Vec<Evaluated> {
        self.bg
            .iter()
            .map(|c| Evaluated::Col(rows.map_or_else(|| c.clone(), |r| c.gather(r))))
            .collect()
    }
}

/// The rows set in `mask`, ascending; `None` when every row is.
fn rows_of(mask: &Bitmap) -> Option<Vec<u32>> {
    (!mask.all_ones()).then(|| mask.ones())
}

/// Whether two key columns are dense vectors of one type — then two point
/// keys the index pairs up are equal under the domain order itself, not
/// just under the coercing join-key normalization.
fn same_dense_type(a: &ColumnVec, b: &ColumnVec) -> bool {
    !matches!(a, ColumnVec::Mixed(_)) && std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// Keep `v[j]` iff `keep[j]` (one flag per element).
fn retain_flagged<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    v.retain(|_| *flags.next().expect("one flag per element"));
}

/// `⟦⋈⟧_AU` for `Plan::HashJoin` as a probe stage of the one driver — the
/// columnar form of `ua_ranges::ops::hash_join`, emitting the same rows in
/// the same order (probe-major, candidates ascending in build-scan order).
///
/// Prepared once at bind (`AuProbe::new`): the build side concatenates
/// into one chunk, its key triples evaluate, and the *existing*
/// deterministic hash index ([`build_index`], `Int` fast path and
/// partitioned build included) covers the bg keys of its *keyed* rows —
/// hashable points of each key column's family, which the build side's
/// first hashable row fixes. Every other row (a ranged, unknown or NaN
/// key, or a point of another family) is *fuzzy* and stands in every
/// candidate list, exactly as in [`ua_ranges::SgKeyIndex`]. Each morsel of
/// the probe side's pipeline then evaluates its own keys and probes
/// read-only ([`AuProbe::probe`]) — through the selection a σ below left
/// on the morsel, if any. A pruned pair has two keys that differ between
/// points of one family (or a point and a definite NULL): its key equality is
/// certainly false, so dropping it loses no possibly-true pair.
pub(crate) struct AuProbe {
    /// The build side as one chunk over its flattened schema.
    chunk: ColumnBatch,
    /// The build side's bg key columns (over the whole chunk).
    build_bg: Vec<ColumnVec>,
    /// Per key column, the family of the build side's first hashable row
    /// (`None`: no row is hashable).
    families: Option<Vec<u8>>,
    /// Chunk rows the index holds, ascending (`None` = every row): index
    /// entries are positions into this list.
    build_keyed: Option<Vec<u32>>,
    /// Chunk rows with a fuzzy key, ascending.
    build_fuzzy: Vec<u32>,
    index: JoinIndex,
    /// The probe side's key expressions, bound over its user schema.
    probe_keys: Vec<Expr>,
    /// The probe side's user schema.
    probe_user: Schema,
    /// Key equalities ∧ residual, bound over `left ++ right`.
    pred: Expr,
    has_residual: bool,
    pub(crate) build_left: bool,
    /// User arities `(left, right)`.
    arity: (usize, usize),
    /// The output's user schema (`left ++ right`) and its flattened form.
    pub(crate) user: Schema,
    flat: Schema,
}

impl AuProbe {
    /// Prepare `plan`'s (a `Plan::HashJoin`) probe from its executed build
    /// side (its left input when `build_left`) for a probe side of user
    /// schema `probe_user`: bind keys and residual, evaluate the build
    /// keys, fix the key families and index the keyed rows.
    pub(crate) fn new(
        plan: &Plan,
        build: BatchStream,
        probe_user: Schema,
        pool: &rayon::ThreadPool,
    ) -> Result<AuProbe, EngineError> {
        let Plan::HashJoin {
            keys,
            residual,
            build_left,
            ..
        } = plan
        else {
            unreachable!("an AU probe stage runs a Plan::HashJoin")
        };
        let build_user = user_schema(&build.schema);
        let (luser, ruser) = if *build_left {
            (&build_user, &probe_user)
        } else {
            (&probe_user, &build_user)
        };
        let (pred, join_keys) =
            bind_hash_keys(keys, residual.as_ref(), luser, ruser).map_err(EngineError::Expr)?;
        let user = luser.concat(ruser);
        let (build_keys, probe_keys): (Vec<Expr>, Vec<Expr>) = join_keys
            .keys
            .into_iter()
            .map(|k| {
                if *build_left {
                    (k.left, k.right)
                } else {
                    (k.right, k.left)
                }
            })
            .unzip();
        let chunk = build.into_single_chunk();
        let bkeys = SideKeys::eval(&chunk, None, &build_user, &build_keys)?;
        let families = (0..chunk.len()).find(|&i| bkeys.point.get(i)).map(|i| {
            bkeys
                .bg
                .iter()
                .map(|c| key_family(&c.value(i)))
                .collect::<Vec<_>>()
        });
        let keyed = bkeys.keyed(families.as_deref());
        let build_keyed = rows_of(&keyed);
        let index = build_index(
            &bkeys.index_columns(build_keyed.as_deref()),
            build_keyed.as_ref().map_or(chunk.len(), Vec::len),
            Some(pool),
        );
        Ok(AuProbe {
            build_fuzzy: (0..chunk.len() as u32)
                .filter(|&i| !keyed.get(i as usize))
                .collect(),
            chunk,
            build_bg: bkeys.bg,
            families,
            build_keyed,
            index,
            probe_keys,
            pred,
            has_residual: residual.is_some(),
            build_left: *build_left,
            arity: (luser.arity(), ruser.arity()),
            flat: flattened_schema(&user),
            user,
            probe_user,
        })
    }

    /// Probe one batch, restricted to the `selection` a σ below left when
    /// given: the joined batch (`None` when no pair survives) and how many
    /// pairs were refined per row.
    ///
    /// The selection's rows are ascending and carry their refined `lb` /
    /// `bg` multiplicities ([`filter_select`]); the keys evaluate over them
    /// only, and the output gathers straight from the scan batch, so
    /// nothing is copied twice.
    ///
    /// A keyed probe row's candidates are its index bucket merged with the
    /// fuzzy build rows, ascending; a fuzzy probe row's candidates are all
    /// build rows. A pair found through the index between same-typed point
    /// keys, with no residual, is certainly equal (`points_equal`): the
    /// predicate is certainly true and holds over the selected guess, so
    /// its multiplicity is the plain product and nothing is refined. Every
    /// other candidate goes through the shared
    /// `ua_ranges::ops::refine_pair_mult` over ranges assembled for that
    /// pair's referenced columns only.
    pub(crate) fn probe(
        &self,
        batch: &ColumnBatch,
        selection: Option<&Survivors>,
    ) -> Result<(Option<ColumnBatch>, u64), EngineError> {
        let (nl, nr) = self.arity;
        let (nb, np) = if self.build_left { (nl, nr) } else { (nr, nl) };
        let sel = selection.map(|s| &s.rows[..]);
        let keys = SideKeys::eval(batch, sel, &self.probe_user, &self.probe_keys)?;
        let rows = keys.point.len() as u32;
        let keyed = keys.keyed(self.families.as_deref());
        let probe_keyed = rows_of(&keyed);
        let (mut pidx, mut bidx) = probe_index(
            &self.index,
            &keys.index_columns(probe_keyed.as_deref()),
            probe_keyed.as_ref().map_or(rows as usize, Vec::len),
        );
        if let Some(rows) = &probe_keyed {
            pidx.iter_mut().for_each(|p| *p = rows[*p as usize]);
        }
        if let Some(rows) = &self.build_keyed {
            bidx.iter_mut().for_each(|b| *b = rows[*b as usize]);
        }
        // `indexed[j]`: pair `j` came out of the index (`None` = all did).
        let mut indexed: Option<Vec<bool>> = None;
        if probe_keyed.is_some() || !self.build_fuzzy.is_empty() {
            let (hp, hb) = (std::mem::take(&mut pidx), std::mem::take(&mut bidx));
            let mut flags = Vec::with_capacity(hp.len());
            let mut next = 0;
            for i in 0..rows {
                if !keyed.get(i as usize) {
                    for b in 0..self.chunk.len() as u32 {
                        pidx.push(i);
                        bidx.push(b);
                        flags.push(false);
                    }
                    continue;
                }
                // Merge this row's bucket run with the fuzzy build rows
                // (two disjoint ascending lists).
                let mut fuzzy = self.build_fuzzy.iter().copied().peekable();
                while next < hp.len() && hp[next] == i {
                    while let Some(f) = fuzzy.next_if(|&f| f < hb[next]) {
                        pidx.push(i);
                        bidx.push(f);
                        flags.push(false);
                    }
                    pidx.push(i);
                    bidx.push(hb[next]);
                    flags.push(true);
                    next += 1;
                }
                for f in fuzzy {
                    pidx.push(i);
                    bidx.push(f);
                    flags.push(false);
                }
            }
            indexed = Some(flags);
        }
        if pidx.is_empty() {
            return Ok((None, 0));
        }

        // `MultBound::times` on the three multiplicity columns: saturating
        // products (`i64` saturation is where the `u64` product clamps
        // when it is encoded). A selection carries its rows' refined `lb`
        // / `bg`; `ub` is the batch's.
        let pm = mult_slices(batch, np);
        let bm = mult_slices(&self.chunk, nb);
        let refined_mults = selection.and_then(|s| s.mults.as_ref());
        let probe_mult = |k: usize, q: u32| match refined_mults {
            Some(m) if k < 2 => m[k][q as usize],
            _ => pm[k][sel.map_or(q, |sel| sel[q as usize]) as usize],
        };
        let mut mults: [Vec<i64>; 3] = [0, 1, 2].map(|k| {
            pidx.iter()
                .zip(&bidx)
                .map(|(&q, &b)| probe_mult(k, q).saturating_mul(bm[k][b as usize]))
                .collect()
        });
        // Probe positions become batch rows: what the ranges and the
        // gather read.
        if let Some(sel) = sel {
            pidx.iter_mut().for_each(|p| *p = sel[*p as usize]);
        }

        let certain_keys = !self.has_residual
            && keys
                .bg
                .iter()
                .zip(&self.build_bg)
                .all(|(p, b)| same_dense_type(p, b));
        let (lsrc, lidx, rsrc, ridx) = if self.build_left {
            (&self.chunk, &mut bidx, batch, &mut pidx)
        } else {
            (batch, &mut pidx, &self.chunk, &mut bidx)
        };
        let mut refined = 0u64;
        if !(certain_keys && indexed.is_none()) {
            let mut rows = RefRanges::new(&self.pred, nl + nr);
            let mut keep = Vec::with_capacity(lidx.len());
            for j in 0..lidx.len() {
                if certain_keys && indexed.as_ref().is_some_and(|flags| flags[j]) {
                    keep.push(true);
                    continue;
                }
                refined += 1;
                rows.load(lsrc, nl, lidx[j] as usize, 0);
                rows.load(rsrc, nr, ridx[j] as usize, nl);
                let base =
                    MultBound::new(mults[0][j] as u64, mults[1][j] as u64, mults[2][j] as u64);
                match refine_pair_mult(&self.pred, &rows.row, base).map_err(EngineError::Expr)? {
                    Some(m) => {
                        // Refinement only zeroes components: they still fit.
                        mults[0][j] = m.lb as i64;
                        mults[1][j] = m.bg as i64;
                        keep.push(true);
                    }
                    None => keep.push(false),
                }
            }
            if keep.contains(&false) {
                retain_flagged(lidx, &keep);
                retain_flagged(ridx, &keep);
                mults.iter_mut().for_each(|m| retain_flagged(m, &keep));
            }
        }
        let rows_out = lidx.len();
        if rows_out == 0 {
            return Ok((None, refined));
        }

        // Flattened layout of `left ++ right`: all bg, all lb, all ub. Each
        // side gathers through `gather_columns`, so a point column (bounds
        // aliasing `bg`) leaves the join as one buffer.
        let left = gather_columns(&lsrc.columns()[..3 * nl], lidx);
        let right = gather_columns(&rsrc.columns()[..3 * nr], ridx);
        let mut columns: Vec<ColumnVec> = Vec::with_capacity(3 * (nl + nr) + 3);
        for part in 0..3 {
            columns.extend_from_slice(&left[part * nl..(part + 1) * nl]);
            columns.extend_from_slice(&right[part * nr..(part + 1) * nr]);
        }
        columns.extend(mults.map(|m| ColumnVec::Int(Arc::new(m))));
        let joined = ColumnBatch::new(self.flat.clone(), columns, rows_out);
        Ok((Some(joined), refined))
    }
}

/// The column-major input of γ / δ over `stream` (user schema `user`):
/// each (bound) key and argument expression becomes a [`TripleCol`] —
/// [`empty_triple`] picks its representation, [`fill_triple`] fills it
/// batch by batch, keys before arguments within a batch as the row engine
/// evaluates them — beside the multiplicity triples.
fn agg_input(
    stream: &BatchStream,
    user: &Schema,
    keys: &[Expr],
    args: &[Option<Expr>],
) -> Result<AggCols, EngineError> {
    let n = user.arity();
    let n_rows = stream.num_rows();
    let mut input = AggCols {
        keys: keys
            .iter()
            .map(|e| empty_triple(&stream.batches, n, e, n_rows))
            .collect(),
        args: args
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
        let bgv = bg_view(batch, user);
        for (e, col) in keys.iter().zip(&mut input.keys) {
            fill_triple(batch, n, e, &bgv, col)?;
        }
        for (e, col) in args.iter().zip(&mut input.args) {
            if let (Some(e), Some(col)) = (e.as_ref(), col.as_mut()) {
                fill_triple(batch, n, e, &bgv, col)?;
            }
        }
        input.mults.extend(mult_bounds(batch, n));
    }
    Ok(input)
}

/// Rows `slice` of one γ / δ output column as its `[bg, lb, ub]` columns,
/// each in the representation the encoded rows would convert into: a
/// dense triple's slices copy, per-row ranges encode (`NULL` for `∓∞`,
/// the definite-NULL sentinel) into the densest column holding them.
fn triple_slice(col: &TripleCol, slice: Range<usize>) -> [ColumnVec; 3] {
    match col {
        TripleCol::Int { lb, bg, ub } => {
            [bg, lb, ub].map(|v| ColumnVec::Int(Arc::new(v[slice.clone()].to_vec())))
        }
        TripleCol::Float { lb, bg, ub } => {
            [bg, lb, ub].map(|v| ColumnVec::Float(Arc::new(v[slice.clone()].to_vec())))
        }
        TripleCol::Rows(ranges) => {
            let parts: Vec<(Value, Value, Value)> = ranges[slice].iter().map(range_parts).collect();
            [
                ColumnVec::from_values(parts.iter().map(|(_, bg, _)| bg)),
                ColumnVec::from_values(parts.iter().map(|(lb, _, _)| lb)),
                ColumnVec::from_values(parts.iter().map(|(_, _, ub)| ub)),
            ]
        }
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
        TripleCol::Rows(rows) => rows.extend(expr_ranges(batch, n, expr, bgv)?),
    }
    Ok(())
}

/// One batch of `⟦σ_θ⟧_AU`, decided: possibly-true rows survive, the
/// multiplicity lower bound is kept only under a certainly-true predicate
/// and the selected-guess multiplicity only when θ holds over the bg
/// columns (the deterministic typed mask). Kernel-native predicates
/// ([`range_truth_masks`]) decide possibility and certainty as bitmaps
/// straight off the `lb`/`ub` columns; any other shape evaluates
/// `truth_range` per row over ranges assembled for the referenced columns
/// only. Returns the survivors — their rows ascending, with their refined
/// `lb` / `bg` multiplicities (`ub` is the batch's), nothing gathered;
/// `None` when every row survives unchanged — and how many rows took the
/// per-row path.
pub(crate) fn filter_select(
    batch: &ColumnBatch,
    bound: &Expr,
    user: &Schema,
    n: usize,
) -> Result<(Option<Survivors>, u64), EngineError> {
    let len = batch.len();
    if len == 0 {
        return Ok((None, 0));
    }
    let (bg_true, _) = truth_masks(bound, &bg_view(batch, user))?;
    let (possibly, certainly, rowwise) = match range_truth_masks(bound, batch, n) {
        Some((possibly, possibly_false)) => {
            let mut certainly = possibly.clone();
            certainly.and_not_assign(&possibly_false);
            (possibly, certainly, 0)
        }
        None => {
            let mut rows = RefRanges::new(bound, n);
            let mut possibly = Bitmap::filled(len, false);
            let mut certainly = Bitmap::filled(len, false);
            for i in 0..len {
                rows.load(batch, n, i, 0);
                let rt = truth_range(bound, &rows.row);
                possibly.set(i, rt.possibly_true());
                certainly.set(i, rt.certainly_true());
            }
            (possibly, certainly, len as u64)
        }
    };
    let rows = possibly.ones();
    if rows.len() == len && certainly.all_ones() && bg_true.all_ones() {
        return Ok((None, rowwise));
    }
    let [m_lb, m_bg, _] = mult_slices(batch, n);
    let masked = |mult: &[i64], mask: &Bitmap| {
        let kept = rows.iter().map(|&i| i as usize);
        kept.map(|i| if mask.get(i) { mult[i] } else { 0 })
            .collect()
    };
    let mults = Some([masked(m_lb, &certainly), masked(m_bg, &bg_true)]);
    Ok((Some(Survivors { rows, mults }), rowwise))
}

/// One batch of `⟦π⟧_AU` (pure per-batch function, safe to run on the
/// pool): one [`expr_triple`] per output column. Also returns how many
/// input rows took the per-row path — the batch's length when some column
/// left the typed evaluator for [`computed_ranges`], else 0.
pub(crate) fn map_batch(
    batch: &ColumnBatch,
    bound: &[Expr],
    user: &Schema,
    out_flat: &Schema,
    n_in: usize,
) -> Result<(ColumnBatch, u64), EngineError> {
    let bgv = bg_view(batch, user);
    let mut rowwise = false;
    let mut triples: Vec<[ColumnVec; 3]> = Vec::with_capacity(bound.len());
    for e in bound {
        let (triple, per_row) = expr_triple(batch, n_in, e, &bgv)?;
        rowwise |= per_row;
        triples.push(triple);
    }
    // Flattened layout: every bg column, then every lb, then every ub.
    let mut out_cols: Vec<ColumnVec> = Vec::with_capacity(3 * bound.len() + 3);
    for part in 0..3 {
        out_cols.extend(triples.iter().map(|t| t[part].clone()));
    }
    out_cols.extend_from_slice(&batch.columns()[3 * n_in..]);
    let out = ColumnBatch::new(out_flat.clone(), out_cols, batch.len());
    Ok((out, if rowwise { batch.len() as u64 } else { 0 }))
}

/// Bump a `au.vec.rowwise.*` registry counter (skipping the registry
/// lookup when nothing went row-wise).
pub(crate) fn count_rowwise(name: &str, count: u64) {
    if count > 0 {
        ua_obs::global().counter(name).add(count);
    }
}

/// Fold one AU batch into a bound-precision profile — the same
/// [`WidthSummary`] the row interpreter records per operator. Folded
/// columnar: each attribute's point cells are counted off its
/// [`point_mask`], and only the non-point residue assembles a range.
pub(crate) fn observe_width(b: &ColumnBatch, ws: &mut WidthSummary) {
    let n = (b.schema().arity() - 3) / 3;
    for mult in mult_bounds(b, n) {
        ws.observe_mult(mult);
    }
    for c in 0..n {
        let points = point_mask(b.column(n + c), b.column(c), b.column(2 * n + c));
        ws.observe_points(points.count_ones() as u64);
        if !points.all_ones() {
            for i in (0..b.len()).filter(|&i| !points.get(i)) {
                ws.observe_cell(&range_at(b, n, c, i));
            }
        }
    }
}

/// Logical bytes of one AU batch — the columnar counterpart of the row
/// engine's `au_relation_mem_bytes` convention: 24 bytes per multiplicity
/// triple plus the attribute triple columns (bg, lb, ub — one 16-byte slot
/// per cell plus string payloads). Shape-derived and additive over
/// batches, so an operator's figure matches across thread counts and
/// batch sizes.
pub(crate) fn batch_mem_bytes(b: &ColumnBatch) -> u64 {
    let attr_columns = b.schema().arity() - 3;
    24 * b.len() as u64
        + (0..attr_columns)
            .map(|c| crate::exec::column_mem_bytes(b.column(c)))
            .sum::<u64>()
}
