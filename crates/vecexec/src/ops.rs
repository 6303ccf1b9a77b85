//! Vectorized relational operators over [`BatchStream`]s.
//!
//! Operators are order-preserving replicas of the row executor's operators
//! (the same [`JoinSpec`] for every join, same first-seen orders), so the two
//! engines produce identical tables — rows, labels *and* row order — which
//! the differential tests assert. UA labels flow through as bitmaps:
//! filters/projections gather them, joins AND them (`min(C₁, C₂)` over
//! `{0,1}` markers), unions concatenate them.

use crate::bitmap::Bitmap;
use crate::columnar::{BatchStream, ColumnBatch, ColumnVec};
use crate::kernels::{eval_expr, eval_selected, truth_masks, Evaluated};
use rayon::ThreadPool;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;
use ua_data::algebra::{merge_ascending, JoinKeys, ProjColumn};
use ua_data::expr::Expr;
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::{Value, F64};
use ua_data::{FxHashMap, FxHashSet, FxHasher};
use ua_plan::exec::JoinSpec;
use ua_plan::plan::{AggExpr, SortOrder};
use ua_plan::{AggState, EngineError};

/// The deterministic partitioning hash for parallel pipeline breakers.
/// Partition choice must agree between a hash-join build and its probes
/// (and nothing else), so any fixed function works; Fx keeps it cheap.
fn partition_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Builds below this row count stay single-partition: the scatter +
/// per-partition map setup costs more than it saves. Output bytes are
/// unaffected either way — partitioning only changes *where* a key's
/// entry list lives, never its contents or order.
const PARALLEL_BUILD_MIN_ROWS: usize = 4096;

/// Bag union — batches concatenate (annotations add by rows standing next
/// to each other; the left schema wins, as in the row engine).
pub fn union_all(left: BatchStream, right: BatchStream) -> Result<BatchStream, EngineError> {
    left.schema
        .check_union_compatible(&right.schema)
        .map_err(EngineError::Schema)?;
    let mut batches = left.batches;
    // Right-side batches adopt the left schema so downstream binding matches
    // the row engine (which keeps the left schema for the union output).
    for b in right.batches {
        batches.push(b.with_schema(left.schema.clone()));
    }
    Ok(BatchStream {
        schema: left.schema,
        batches,
    })
}

/// Bag difference, columnar: right-side multiplicities accumulate into a
/// per-key budget, then left batches stream through it in order. Matching
/// follows `ua_plan::except_table` exactly — IS-NOT-DISTINCT keys
/// ([`Value::join_key`] over every column, NULL matches NULL), earliest-
/// first removal for `all`, first unmatched occurrence for distinct — so
/// the two engines emit byte-identical rows in the same order.
///
/// `⟦·⟧_UA` difference: a UA encoding carries no upper bound on the right
/// side, so no output row's presence can be certified — every output copy
/// is labeled uncertain (label `0`). Deterministic runs drop labels at
/// materialization, so the rule costs nothing there.
pub fn except(
    left: BatchStream,
    right: BatchStream,
    all: bool,
) -> Result<BatchStream, EngineError> {
    left.schema
        .check_union_compatible(&right.schema)
        .map_err(EngineError::Schema)?;
    let arity = left.schema.arity();
    let key_at = |b: &ColumnBatch, i: usize| -> Tuple {
        (0..arity)
            .map(|c| b.column(c).value(i).join_key())
            .collect()
    };
    let mut budget: FxHashMap<Tuple, u64> = FxHashMap::default();
    for b in &right.batches {
        for i in 0..b.len() {
            let m = b.mults()[i];
            // Zero-multiplicity rows expand to no copies — they are not
            // occurrences and must not cancel (or match) anything.
            if m > 0 {
                *budget.entry(key_at(b, i)).or_insert(0) += m;
            }
        }
    }
    let mut seen: FxHashSet<Tuple> = FxHashSet::default();
    let mut batches = Vec::new();
    for b in &left.batches {
        let mut keep: Vec<u32> = Vec::new();
        let mut mults: Vec<u64> = Vec::new();
        for i in 0..b.len() {
            let m = b.mults()[i];
            if m == 0 {
                continue;
            }
            let key = key_at(b, i);
            if all {
                let out = match budget.get_mut(&key) {
                    Some(n) => {
                        let take = (*n).min(m);
                        *n -= take;
                        m - take
                    }
                    None => m,
                };
                if out > 0 {
                    keep.push(i as u32);
                    mults.push(out);
                }
            } else {
                if budget.contains_key(&key) {
                    continue;
                }
                if seen.insert(key) {
                    keep.push(i as u32);
                    mults.push(1);
                }
            }
        }
        if keep.is_empty() {
            continue;
        }
        let g = b.gather(&keep);
        batches.push(ColumnBatch::new(
            g.schema().clone(),
            g.columns().to_vec(),
            Bitmap::filled(keep.len(), false),
            Arc::new(mults),
        ));
    }
    Ok(BatchStream {
        schema: left.schema,
        batches,
    })
}

/// Left/right outer θ-join, columnar: a pipeline breaker that builds one
/// [`ProbeState`] on the non-preserved side (its [`JoinSpec`] pads) and
/// probes every preserved batch through it in order — the row engine's
/// loop, row for row: matches and pads come out in preserved-major order
/// with columns `left ++ right`.
///
/// UA labels: matched rows AND their sides' labels (the `⟦·⟧_UA` join
/// rule); pad rows are never certain — the pad row's label bit is `0`, so
/// the AND yields `0` without a special case.
pub fn outer_join(
    left: BatchStream,
    right: BatchStream,
    spec: JoinSpec,
    pool: Option<&ThreadPool>,
) -> Result<BatchStream, EngineError> {
    let (build, probe) = if spec.build_left {
        (left, right)
    } else {
        (right, left)
    };
    let state = ProbeState::new(build, spec, pool)?;
    let mut batches = Vec::new();
    for batch in probe.batches.iter().filter(|b| !b.is_empty()) {
        state.probe(batch, None, &mut batches)?;
    }
    Ok(BatchStream {
        schema: state.out_schema,
        batches,
    })
}

/// The rows of an evaluated key column holding an unknown (`NULL` or a
/// labeled null), ascending.
fn unknown_rows(col: &Evaluated, rows: usize) -> Vec<u32> {
    match col {
        Evaluated::Col(ColumnVec::Mixed(vals)) => (0..rows as u32)
            .filter(|&i| vals[i as usize].is_unknown())
            .collect(),
        Evaluated::Const(v) if v.is_unknown() => (0..rows as u32).collect(),
        // Typed columns never hold nulls by construction.
        _ => Vec::new(),
    }
}

/// The hash-join build index, partitioned by key hash. Each key lives in
/// exactly the partition `partition_hash(key) % parts` — every one of its
/// build-row ids in that partition's map, in build-scan order — so a
/// lookup routed by the same hash sees exactly the entry list a
/// single-partition build would hold. Partition count therefore never
/// affects probe results; it only decides how the build parallelizes.
pub(crate) enum JoinIndex {
    /// Single integer equi-key: dense i64 hash tables.
    Int(Vec<FxHashMap<i64, Vec<u32>>>),
    /// General composite key.
    Tuple(Vec<FxHashMap<Tuple, Vec<u32>>>),
}

/// Route a key's hash to its owning partition map.
fn owning_part<K>(
    parts: &[FxHashMap<K, Vec<u32>>],
    hash: impl FnOnce() -> u64,
) -> &FxHashMap<K, Vec<u32>> {
    if parts.len() == 1 {
        &parts[0]
    } else {
        &parts[(hash() % parts.len() as u64) as usize]
    }
}

/// The one det / UA join state: every inner, θ, hash and outer join of
/// this engine probes through it. It holds the build side as one chunk
/// (and, when probe misses pad, that chunk plus one all-NULL pad row —
/// label 0, multiplicity 1 — so gathering a miss at the pad row produces
/// exactly the row engine's NULL-padded output), the hash index on the
/// build keys (`None` without keys), the null-aware `always` rows (build
/// rows with an unknown key, candidates of every probe row), and the
/// bound probe keys and residual. Built once (serially; large builds
/// partition) and probed read-only, so morsels probe in parallel —
/// optionally through a filter's selection vector (the fused σ→probe
/// kernel: key expressions evaluate over filter survivors only, and the
/// join gathers straight from the *original* batch through the
/// mapped-back selection, one gather instead of two).
pub struct ProbeState {
    chunk: ColumnBatch,
    padded: Option<ColumnBatch>,
    index: Option<JoinIndex>,
    always: Option<Vec<u32>>,
    probe_keys: Vec<Expr>,
    residual: Option<Expr>,
    build_left: bool,
    out_schema: Schema,
}

impl ProbeState {
    /// Assemble the join state from a fully-executed build stream and the
    /// join's bound [`JoinSpec`] (`build` is the plan's left input when
    /// `spec.build_left`, its right input otherwise). Build keys evaluate
    /// here, before any probe row.
    pub fn new(
        build: BatchStream,
        spec: JoinSpec,
        pool: Option<&ThreadPool>,
    ) -> Result<ProbeState, EngineError> {
        let JoinSpec {
            keys:
                JoinKeys {
                    keys,
                    residual,
                    null_aware,
                },
            build_left,
            pad,
            schema: out_schema,
        } = spec;
        let chunk = build.into_single_chunk();
        let (build_keys, probe_keys): (Vec<Expr>, Vec<Expr>) = if build_left {
            keys.into_iter().map(|k| (k.left, k.right)).unzip()
        } else {
            keys.into_iter().map(|k| (k.right, k.left)).unzip()
        };
        let (mut index, mut always) = (None, None);
        if !build_keys.is_empty() {
            let key_cols: Vec<Evaluated> = build_keys
                .iter()
                .map(|e| eval_expr(e, &chunk))
                .collect::<Result<_, _>>()?;
            always = null_aware.then(|| unknown_rows(&key_cols[0], chunk.len()));
            index = Some(build_index(&key_cols, chunk.len(), pool));
        }
        let padded = pad.then(|| {
            let null_col = ColumnVec::broadcast(&Value::Null, 1);
            let columns: Vec<ColumnVec> = chunk
                .columns()
                .iter()
                .map(|c| ColumnVec::concat(&[c, &null_col]))
                .collect();
            let mut labels = chunk.labels().clone();
            labels.push(false);
            let mut mults = chunk.mults().to_vec();
            mults.push(1);
            ColumnBatch::new(chunk.schema().clone(), columns, labels, Arc::new(mults))
        });
        Ok(ProbeState {
            chunk,
            padded,
            index,
            always,
            probe_keys,
            residual: (!residual.is_empty()).then(|| Expr::conjunction(residual)),
            build_left,
            out_schema,
        })
    }

    /// The joined output schema (`left ++ right`).
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Probe one batch, restricted to the rows at `sel` when given (`None`
    /// = every row), appending the joined batches to `out`. Output row
    /// order is probe-scan order with build candidates ascending within
    /// one probe row, then its pad when none survived — the row engine's
    /// contract — and `sel` vectors are ascending, so fused probing emits
    /// exactly the order a separate filter-then-probe would.
    ///
    /// Plain keys take the batch in one piece: the index's key-equal
    /// pairs. Keyless and null-aware candidates materialize in bounded
    /// pieces of whole probe rows (so pad grouping stays local): a slice
    /// of the cross product, or each probe row's bucket merged with
    /// `always` — the whole build side for an unknown probe key. The
    /// residual then decides among a piece's candidates; a probe row whose
    /// every candidate fails still pads.
    pub fn probe(
        &self,
        batch: &ColumnBatch,
        sel: Option<&[u32]>,
        out: &mut Vec<ColumnBatch>,
    ) -> Result<(), EngineError> {
        const MAX_PAIRS_PER_PIECE: usize = 1 << 16;
        let mut gathered: Option<ColumnBatch> = None;
        let probe_cols: Vec<Evaluated> = self
            .probe_keys
            .iter()
            .map(|e| eval_selected(e, batch, sel, &mut gathered))
            .collect::<Result<_, _>>()?;
        let rows = sel.map_or(batch.len(), <[u32]>::len) as u32;
        // The batch row at selection-local probe position `i`: the join
        // gathers source rows directly.
        let at = |i: u32| sel.map_or(i, |sel| sel[i as usize]);
        let n_build = self.chunk.len() as u32;
        let (mut eq_p, mut eq_b) = match &self.index {
            Some(index) => probe_index(index, &probe_cols, rows as usize),
            None => (Vec::new(), Vec::new()),
        };
        let unknown_probes = match &self.always {
            Some(_) => unknown_rows(&probe_cols[0], rows as usize),
            None => Vec::new(),
        };
        let (mut eq_at, mut unknown_at) = (0usize, 0usize);
        let mut start = 0u32;
        while start < rows {
            let (pidx, bidx, end) = if self.index.is_some() && self.always.is_none() {
                if sel.is_some() {
                    for p in &mut eq_p {
                        *p = at(*p);
                    }
                }
                (std::mem::take(&mut eq_p), std::mem::take(&mut eq_b), rows)
            } else {
                let (mut piece_p, mut piece_b) = (Vec::new(), Vec::new());
                let mut end = start;
                while end < rows && (end == start || piece_p.len() < MAX_PAIRS_PER_PIECE) {
                    let run = eq_at;
                    while eq_at < eq_p.len() && eq_p[eq_at] == end {
                        eq_at += 1;
                    }
                    match &self.always {
                        Some(_) if unknown_probes.get(unknown_at) == Some(&end) => {
                            unknown_at += 1;
                            piece_b.extend(0..n_build);
                        }
                        Some(always) => merge_ascending(&eq_b[run..eq_at], always, &mut piece_b),
                        None => piece_b.extend(0..n_build),
                    }
                    piece_p.resize(piece_b.len(), at(end));
                    end += 1;
                }
                (piece_p, piece_b, end)
            };
            // The candidate pairs joined, where the residual or the
            // output needs them, and which of them survive the residual.
            let cand = (!pidx.is_empty() && (self.residual.is_some() || self.padded.is_none()))
                .then(|| self.gather(&self.chunk, batch, &pidx, &bidx));
            let survivors = match (&self.residual, &cand) {
                (Some(pred), Some(cand)) => Some(truth_masks(pred, cand)?.0),
                _ => None,
            };
            let joined = match (&self.padded, cand) {
                (None, None) => None,
                (None, Some(cand)) => Some(match survivors {
                    Some(t) if !t.all_ones() => cand.gather(&t.ones()),
                    _ => cand,
                }),
                (Some(padded), _) => {
                    let (mut oidx, mut iidx) = (Vec::new(), Vec::new());
                    let mut p = 0usize;
                    for i in (start..end).map(at) {
                        let mut matched = false;
                        while p < pidx.len() && pidx[p] < i {
                            p += 1;
                        }
                        while p < pidx.len() && pidx[p] == i {
                            if survivors.as_ref().is_none_or(|t| t.get(p)) {
                                matched = true;
                                oidx.push(i);
                                iidx.push(bidx[p]);
                            }
                            p += 1;
                        }
                        if !matched {
                            oidx.push(i);
                            iidx.push(n_build);
                        }
                    }
                    Some(self.gather(padded, batch, &oidx, &iidx))
                }
            };
            out.extend(joined.filter(|j| !j.is_empty()));
            start = end;
        }
        Ok(())
    }

    /// Join the probe rows `pidx` of `batch` with the rows `bidx` of
    /// `build` (the chunk or its padded form), columns `left ++ right`.
    fn gather(
        &self,
        build: &ColumnBatch,
        batch: &ColumnBatch,
        pidx: &[u32],
        bidx: &[u32],
    ) -> ColumnBatch {
        if self.build_left {
            join_gather(build, batch, bidx, pidx, &self.out_schema)
        } else {
            join_gather(batch, build, pidx, bidx, &self.out_schema)
        }
    }
}

/// How many build partitions a pool (if any) warrants for `rows` rows.
fn build_partitions(rows: usize, pool: Option<&ThreadPool>) -> usize {
    match pool {
        Some(p) if rows >= PARALLEL_BUILD_MIN_ROWS => p.current_num_threads().max(1),
        _ => 1,
    }
}

/// Scatter row ranges into per-partition `(row, key)` lists, then build
/// each partition's map on its own worker. Rows scatter in scan order and
/// ranges concatenate in order, so every per-key row-id list comes out
/// ascending — exactly the single-partition build's list for that key.
fn build_partitioned<K: Hash + Eq + Send>(
    rows: usize,
    parts: usize,
    pool: &ThreadPool,
    key_of: impl Fn(usize) -> Option<K> + Sync,
) -> Vec<FxHashMap<K, Vec<u32>>> {
    let chunk = rows.div_ceil(parts).max(1);
    let ranges: Vec<std::ops::Range<usize>> = (0..rows)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(rows))
        .collect();
    let scattered: Vec<Vec<Vec<(u32, K)>>> = pool.map_build(ranges, |_, range| {
        let mut lists: Vec<Vec<(u32, K)>> = (0..parts).map(|_| Vec::new()).collect();
        for j in range {
            if let Some(key) = key_of(j) {
                let p = (partition_hash(&key) % parts as u64) as usize;
                lists[p].push((j as u32, key));
            }
        }
        lists
    });
    let mut per_part: Vec<Vec<(u32, K)>> = (0..parts).map(|_| Vec::new()).collect();
    for range_lists in scattered {
        for (acc, mut list) in per_part.iter_mut().zip(range_lists) {
            acc.append(&mut list);
        }
    }
    pool.map_build(per_part, |_, entries| {
        let mut map: FxHashMap<K, Vec<u32>> = FxHashMap::default();
        for (j, key) in entries {
            map.entry(key).or_default().push(j);
        }
        map
    })
}

/// Index `rows` build rows by their evaluated key columns (SQL `NULL`
/// keys never join and are left out).
pub(crate) fn build_index(
    key_cols: &[Evaluated],
    rows: usize,
    pool: Option<&ThreadPool>,
) -> JoinIndex {
    let parts = build_partitions(rows, pool);
    // Fast path: one integer key column.
    if let [Evaluated::Col(ColumnVec::Int(vals))] = key_cols {
        if parts > 1 {
            let pool = pool.expect("parts > 1 implies a pool");
            return JoinIndex::Int(build_partitioned(rows, parts, pool, |j| Some(vals[j])));
        }
        let mut map: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
        for (j, &v) in vals.iter().enumerate() {
            map.entry(v).or_default().push(j as u32);
        }
        return JoinIndex::Int(vec![map]);
    }
    let key_at = |j: usize| -> Option<Tuple> {
        let key: Tuple = key_cols.iter().map(|c| c.value_at(j).join_key()).collect();
        // SQL NULL keys never join; labeled nulls join themselves.
        if key.has_null() {
            None
        } else {
            Some(key)
        }
    };
    if parts > 1 {
        let pool = pool.expect("parts > 1 implies a pool");
        return JoinIndex::Tuple(build_partitioned(rows, parts, pool, key_at));
    }
    let mut map: FxHashMap<Tuple, Vec<u32>> = FxHashMap::default();
    for j in 0..rows {
        if let Some(key) = key_at(j) {
            map.entry(key).or_default().push(j as u32);
        }
    }
    JoinIndex::Tuple(vec![map])
}

/// Look `rows` probe rows up: matching `(probe row, build row)` pairs,
/// probe-major with build rows ascending within one probe row.
pub(crate) fn probe_index(
    index: &JoinIndex,
    probe_cols: &[Evaluated],
    rows: usize,
) -> (Vec<u32>, Vec<u32>) {
    let mut lidx = Vec::new();
    let mut ridx = Vec::new();
    match index {
        JoinIndex::Int(parts) => {
            if let [Evaluated::Col(ColumnVec::Int(vals))] = probe_cols {
                for (i, v) in vals.iter().enumerate() {
                    if let Some(matches) = owning_part(parts, || partition_hash(v)).get(v) {
                        for &j in matches {
                            lidx.push(i as u32);
                            ridx.push(j);
                        }
                    }
                }
                return (lidx, ridx);
            }
            // Probe side is not a clean Int column: compare through Values.
            for i in 0..rows {
                let key: Tuple = probe_cols
                    .iter()
                    .map(|c| c.value_at(i).join_key())
                    .collect();
                if key.has_null() {
                    continue;
                }
                if let Some(Value::Int(v)) = key.get(0) {
                    if let Some(matches) = owning_part(parts, || partition_hash(v)).get(v) {
                        for &j in matches {
                            lidx.push(i as u32);
                            ridx.push(j);
                        }
                    }
                }
            }
        }
        JoinIndex::Tuple(parts) => {
            for i in 0..rows {
                let key: Tuple = probe_cols
                    .iter()
                    .map(|c| c.value_at(i).join_key())
                    .collect();
                if key.has_null() {
                    continue;
                }
                if let Some(matches) = owning_part(parts, || partition_hash(&key)).get(&key) {
                    for &j in matches {
                        lidx.push(i as u32);
                        ridx.push(j);
                    }
                }
            }
        }
    }
    (lidx, ridx)
}

/// Assemble the joined batch: gathered left columns ++ gathered right
/// columns; labels AND bitwise; multiplicities multiply (ℕ is saturating).
fn join_gather(
    lbatch: &ColumnBatch,
    rchunk: &ColumnBatch,
    lidx: &[u32],
    ridx: &[u32],
    out_schema: &Schema,
) -> ColumnBatch {
    let mut columns = Vec::with_capacity(out_schema.arity());
    for c in lbatch.columns() {
        columns.push(c.gather(lidx));
    }
    for c in rchunk.columns() {
        columns.push(c.gather(ridx));
    }
    let mut labels = lbatch.labels().gather(lidx);
    labels.and_assign(&rchunk.labels().gather(ridx));
    let mults: Vec<u64> = lidx
        .iter()
        .zip(ridx)
        .map(|(&i, &j)| lbatch.mults()[i as usize].saturating_mul(rchunk.mults()[j as usize]))
        .collect();
    ColumnBatch::new(out_schema.clone(), columns, labels, Arc::new(mults))
}

/// Row-count limit, columnar-native: batches pass through untouched until
/// the running row-copy count (multiplicities included, matching the row
/// engine's limit over expanded rows) reaches `limit`; the boundary batch
/// is truncated by gathering its prefix — columns, label bitmap and
/// multiplicity column together — and the boundary *row*'s multiplicity is
/// clipped when the limit lands inside its copies. No row materialization
/// happens.
pub fn limit(input: BatchStream, limit: usize) -> BatchStream {
    let mut remaining = limit as u64;
    let mut batches = Vec::with_capacity(input.batches.len());
    for batch in input.batches {
        if remaining == 0 {
            break;
        }
        let total: u64 = batch.mults().iter().sum();
        if total <= remaining {
            remaining -= total;
            batches.push(batch);
            continue;
        }
        let mut keep: Vec<u32> = Vec::new();
        let mut mults: Vec<u64> = Vec::new();
        for i in 0..batch.len() {
            if remaining == 0 {
                break;
            }
            let m = batch.mults()[i];
            if m == 0 {
                // Zero-multiplicity rows expand to nothing; dropping them
                // here matches the row engine's view of the stream.
                continue;
            }
            let take = m.min(remaining);
            keep.push(i as u32);
            mults.push(take);
            remaining -= take;
        }
        let gathered = batch.gather(&keep);
        batches.push(ColumnBatch::new(
            gathered.schema().clone(),
            gathered.columns().to_vec(),
            gathered.labels().clone(),
            Arc::new(mults),
        ));
    }
    BatchStream {
        schema: input.schema,
        batches,
    }
}

/// The shared sort comparator contract, applied to columnar rows: sort
/// keys (outermost first, `Value`'s total order, per-key direction), then
/// the full base row, then the UA label (uncertain before certain).
///
/// This is byte-for-byte `ua_plan::sort_table`'s ordering: in the row
/// engine's UA path the sort runs over the *encoded* table, whose
/// deterministic full-row tie-break ends on the trailing `ua_c` marker
/// (`0` for uncertain, `1` for certain) — here the marker lives in the
/// label bitmap, so the label becomes the final tie-break key (`false <
/// true` matches `0 < 1`). Deterministic semantics are unaffected: labels
/// are uniformly certain there.
fn sort_cmp(
    bound: &[(Expr, SortOrder)],
    keys_a: impl Fn(usize) -> Value,
    keys_b: impl Fn(usize) -> Value,
    row_a: (&ColumnBatch, usize),
    row_b: (&ColumnBatch, usize),
) -> Ordering {
    for (i, (_, order)) in bound.iter().enumerate() {
        let ord = keys_a(i).cmp(&keys_b(i));
        let ord = match order {
            SortOrder::Asc => ord,
            SortOrder::Desc => ord.reverse(),
        };
        if !ord.is_eq() {
            return ord;
        }
    }
    let (ba, ia) = row_a;
    let (bb, ib) = row_b;
    for (ca, cb) in ba.columns().iter().zip(bb.columns()) {
        let ord = ca.value(ia).cmp(&cb.value(ib));
        if !ord.is_eq() {
            return ord;
        }
    }
    ba.labels().get(ia).cmp(&bb.labels().get(ib))
}

/// A single-chunk comparison accessor: typed dense columns compare on
/// their raw slices, skipping the per-comparison `Value` materialization
/// (and the `Arc<str>` clone `ColumnVec::value` pays for strings).
///
/// Within one typed variant the raw order *is* `Value`'s total order —
/// `Int` is `i64`'s, `Float` is [`F64`]'s total order (the same order
/// `Value::Float` derives), `Bool` is `bool`'s, `Str` is byte-wise `str`
/// order — and a per-batch constant compares equal everywhere, exactly as
/// cloning the same `Value` twice would. So a comparator chained from
/// these accessors yields the permutation [`sort_cmp`] defines,
/// byte-identically; [`sort`] uses them for both the key columns and the
/// full-row tie-break, and the differential test pins the ordering
/// against `ua_plan::sort_table`.
enum ColCmp<'a> {
    Int(&'a [i64]),
    Float(&'a [F64]),
    Bool(&'a [bool]),
    Str(&'a [Arc<str>]),
    Mixed(&'a [Value]),
    Const,
}

impl<'a> ColCmp<'a> {
    fn for_col(col: &'a ColumnVec) -> ColCmp<'a> {
        match col {
            ColumnVec::Int(v) => ColCmp::Int(v),
            ColumnVec::Float(v) => ColCmp::Float(v),
            ColumnVec::Bool(v) => ColCmp::Bool(v),
            ColumnVec::Str(v) => ColCmp::Str(v),
            ColumnVec::Mixed(v) => ColCmp::Mixed(v),
        }
    }

    fn for_eval(ev: &'a Evaluated) -> ColCmp<'a> {
        match ev {
            Evaluated::Col(c) => ColCmp::for_col(c),
            Evaluated::Const(_) => ColCmp::Const,
        }
    }

    fn cmp(&self, a: usize, b: usize) -> Ordering {
        match self {
            ColCmp::Int(v) => v[a].cmp(&v[b]),
            ColCmp::Float(v) => v[a].cmp(&v[b]),
            ColCmp::Bool(v) => v[a].cmp(&v[b]),
            ColCmp::Str(v) => v[a].as_ref().cmp(v[b].as_ref()),
            ColCmp::Mixed(v) => v[a].cmp(&v[b]),
            ColCmp::Const => Ordering::Equal,
        }
    }
}

/// Bind sort keys against a stream schema.
pub(crate) fn bind_sort_keys(
    keys: &[(Expr, SortOrder)],
    schema: &Schema,
) -> Result<Vec<(Expr, SortOrder)>, EngineError> {
    keys.iter()
        .map(|(e, o)| Ok((e.bind(schema).map_err(EngineError::Expr)?, *o)))
        .collect()
}

/// Columnar multi-key sort: concatenates the input into one chunk,
/// evaluates the key expressions once per column, sorts a row-index
/// permutation under `sort_cmp`'s ordering, and gathers the output in
/// `batch_rows`-sized slices — no row materialization anywhere. Order
/// (null placement, direction handling, tie-breaks) is identical to
/// `ua_plan::sort_table` over the materialized (encoded) table, which
/// the differential tests assert.
pub fn sort(
    input: BatchStream,
    keys: &[(Expr, SortOrder)],
    batch_rows: usize,
) -> Result<BatchStream, EngineError> {
    let schema = input.schema.clone();
    let bound = bind_sort_keys(keys, &schema)?;
    if input.num_rows() == 0 {
        return Ok(BatchStream {
            schema,
            batches: Vec::new(),
        });
    }
    let chunk = input.into_single_chunk();
    let key_cols: Vec<Evaluated> = bound
        .iter()
        .map(|(e, _)| eval_expr(e, &chunk))
        .collect::<Result<_, _>>()?;
    let mut idx: Vec<u32> = (0..chunk.len() as u32).collect();
    // The typed comparator chain: [`sort_cmp`]'s order without the
    // per-comparison `Value` round trip.
    let key_cmp: Vec<(ColCmp, SortOrder)> = bound
        .iter()
        .zip(&key_cols)
        .map(|((_, order), ev)| (ColCmp::for_eval(ev), *order))
        .collect();
    let row_cmp: Vec<ColCmp> = chunk.columns().iter().map(ColCmp::for_col).collect();
    let labels = chunk.labels();
    idx.sort_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        for (col, order) in &key_cmp {
            let ord = match order {
                SortOrder::Asc => col.cmp(a, b),
                SortOrder::Desc => col.cmp(a, b).reverse(),
            };
            if !ord.is_eq() {
                return ord;
            }
        }
        for col in &row_cmp {
            let ord = col.cmp(a, b);
            if !ord.is_eq() {
                return ord;
            }
        }
        labels.get(a).cmp(&labels.get(b))
    });
    let batches = idx
        .chunks(batch_rows.max(1))
        .map(|slice| chunk.gather(slice))
        .collect();
    Ok(BatchStream { schema, batches })
}

/// Fused Sort+Limit (Top-K): a bounded buffer of the `k` smallest rows
/// under `sort_cmp`'s ordering — the full input is never sorted, let
/// alone materialized. Row copies count like the row engine's
/// `Limit(Sort(..))` over expanded rows: an entry with multiplicity `m`
/// stands for `m` adjacent copies, the buffer keeps just enough entries to
/// cover `k` copies, and the boundary entry's multiplicity is clipped on
/// emit (exactly like [`limit`]).
pub fn top_k(
    input: BatchStream,
    keys: &[(Expr, SortOrder)],
    k: usize,
    batch_rows: usize,
) -> Result<BatchStream, EngineError> {
    let schema = input.schema.clone();
    let bound = bind_sort_keys(keys, &schema)?;
    struct Entry {
        key: Vec<Value>,
        bi: u32,
        ri: u32,
        mult: u64,
    }
    let mut top: Vec<Entry> = Vec::new();
    let mut total: u64 = 0;
    let k64 = k as u64;
    for (bi, batch) in input.batches.iter().enumerate() {
        // Keys evaluate for every input row — even rows Top-K rejects and
        // even when k = 0 — matching the row engine, which decorates the
        // whole input before sorting (expression errors must not depend on
        // the limit).
        let key_cols: Vec<Evaluated> = bound
            .iter()
            .map(|(e, _)| eval_expr(e, batch))
            .collect::<Result<_, _>>()?;
        for ri in 0..batch.len() {
            let mult = batch.mults()[ri];
            if k == 0 || mult == 0 {
                continue;
            }
            let cmp_entry_to_cand = |e: &Entry| -> Ordering {
                sort_cmp(
                    &bound,
                    |i| e.key[i].clone(),
                    |i| key_cols[i].value_at(ri),
                    (&input.batches[e.bi as usize], e.ri as usize),
                    (batch, ri),
                )
            };
            if total >= k64 {
                if let Some(worst) = top.last() {
                    // Not strictly better than the current k-th copy's row:
                    // every copy of the candidate would rank past k.
                    if cmp_entry_to_cand(worst) != Ordering::Greater {
                        continue;
                    }
                }
            }
            let pos = top
                .binary_search_by(cmp_entry_to_cand)
                .unwrap_or_else(|p| p);
            let key: Vec<Value> = key_cols.iter().map(|c| c.value_at(ri)).collect();
            top.insert(
                pos,
                Entry {
                    key,
                    bi: bi as u32,
                    ri: ri as u32,
                    mult,
                },
            );
            total += mult;
            while let Some(worst) = top.last() {
                if total - worst.mult >= k64 {
                    total -= worst.mult;
                    top.pop();
                } else {
                    break;
                }
            }
        }
    }
    // Emit the surviving entries in order, clipping the boundary entry's
    // multiplicity so the copy count is exactly min(k, input copies).
    let mut batches = Vec::new();
    let mut remaining = k64;
    for slice in top.chunks(batch_rows.max(1)) {
        let mut mults: Vec<u64> = Vec::with_capacity(slice.len());
        for e in slice {
            if remaining == 0 {
                break;
            }
            let take = e.mult.min(remaining);
            remaining -= take;
            mults.push(take);
        }
        if mults.is_empty() {
            break;
        }
        let slice = &slice[..mults.len()];
        let mut labels = Bitmap::filled(slice.len(), false);
        for (i, e) in slice.iter().enumerate() {
            if input.batches[e.bi as usize].labels().get(e.ri as usize) {
                labels.set(i, true);
            }
        }
        let columns: Vec<ColumnVec> = (0..schema.arity())
            .map(|c| {
                let values: Vec<Value> = slice
                    .iter()
                    .map(|e| input.batches[e.bi as usize].column(c).value(e.ri as usize))
                    .collect();
                ColumnVec::from_values(values.iter())
            })
            .collect();
        batches.push(ColumnBatch::new(
            schema.clone(),
            columns,
            labels,
            Arc::new(mults),
        ));
    }
    Ok(BatchStream { schema, batches })
}

/// Duplicate elimination: first occurrence of each distinct row survives
/// with multiplicity 1 (set semantics over the bag's row copies).
///
/// The UA label participates in the key: in the row engine's encoded
/// representation the marker is a real column, so `(t, certain)` and
/// `(t, uncertain)` are distinct rows there — labeled batches must dedupe
/// the same way or a certain copy could vanish behind an uncertain one.
pub fn distinct(input: BatchStream) -> BatchStream {
    let mut seen: ua_data::FxHashSet<(Tuple, bool)> = ua_data::FxHashSet::default();
    let mut batches = Vec::with_capacity(input.batches.len());
    for batch in &input.batches {
        let mut keep: Vec<u32> = Vec::new();
        for i in 0..batch.len() {
            if batch.mults()[i] == 0 {
                continue;
            }
            if seen.insert((batch.row(i), batch.labels().get(i))) {
                keep.push(i as u32);
            }
        }
        if !keep.is_empty() {
            let gathered = batch.gather(&keep);
            // Normalize multiplicities to 1.
            batches.push(ColumnBatch::new(
                gathered.schema().clone(),
                gathered.columns().to_vec(),
                gathered.labels().clone(),
                Arc::new(vec![1u64; gathered.len()]),
            ));
        }
    }
    BatchStream {
        schema: input.schema,
        batches,
    }
}

/// How a single-key aggregation reads its group key per row: the typed
/// path avoids the per-row `Tuple` allocation + structural hash that
/// dominates grouped aggregation over dense integer keys.
enum IntKey<'a> {
    Col(&'a [i64]),
    Const(i64),
}

impl IntKey<'_> {
    fn of<'a>(e: &'a Evaluated) -> Option<IntKey<'a>> {
        match e {
            Evaluated::Col(ColumnVec::Int(v)) => Some(IntKey::Col(v)),
            Evaluated::Const(Value::Int(c)) => Some(IntKey::Const(*c)),
            _ => None,
        }
    }

    fn at(&self, i: usize) -> i64 {
        match self {
            IntKey::Col(v) => v[i],
            IntKey::Const(c) => *c,
        }
    }
}

/// One evaluated source batch of an aggregation: the batch plus its
/// group-key and aggregate-argument columns.
type BatchEval<'a> = (&'a ColumnBatch, Vec<Evaluated>, Vec<Option<Evaluated>>);

/// Parallel partitioned fold over evaluated batches: phase 1 scatters each
/// batch's live rows into `parts` per-partition lists by group-key hash
/// (batch-parallel); phase 2 folds each partition's groups on its own
/// worker, consuming entries batch-major so every group's [`AggState`]s
/// see exactly the serial scan's subsequence for that group, in the same
/// order (a group lives in exactly one partition); phase 3 merges
/// partitions in fixed order and re-sorts groups by global first-seen
/// position. Per-group fold order and output order are both independent
/// of `parts`, so the result is byte-identical to the serial fold for
/// every thread count.
/// One partition's folded output: each group's global first-seen
/// `(batch, row)` position, its key, and its accumulated states.
type FoldedGroups<K> = Vec<((u32, u32), K, Vec<AggState>)>;

fn fold_partitioned<K: Hash + Eq + Clone + Send + Sync>(
    evaluated: &[BatchEval],
    aggregates: &[AggExpr],
    pool: &ThreadPool,
    key_of: impl Fn(&BatchEval, usize) -> K + Sync,
) -> Vec<(K, Vec<AggState>)> {
    let parts = pool.current_num_threads().max(1);
    let scattered: Vec<Vec<Vec<(u32, K)>>> =
        pool.map_build((0..evaluated.len()).collect(), |_, b: usize| {
            let be = &evaluated[b];
            let mut lists: Vec<Vec<(u32, K)>> = (0..parts).map(|_| Vec::new()).collect();
            for i in 0..be.0.len() {
                if be.0.mults()[i] == 0 {
                    continue;
                }
                let key = key_of(be, i);
                let p = (partition_hash(&key) % parts as u64) as usize;
                lists[p].push((i as u32, key));
            }
            lists
        });
    // Batch-major transpose keeps each partition's entries in the scan
    // order (batch index, then row index) the serial fold uses.
    let mut per_part: Vec<Vec<(u32, u32, K)>> = (0..parts).map(|_| Vec::new()).collect();
    for (b, lists) in scattered.into_iter().enumerate() {
        for (acc, list) in per_part.iter_mut().zip(lists) {
            acc.extend(list.into_iter().map(|(i, k)| (b as u32, i, k)));
        }
    }
    let folded: Vec<FoldedGroups<K>> = pool.map_build(per_part, |_, entries| {
        let mut slots: FxHashMap<K, usize> = FxHashMap::default();
        let mut out: FoldedGroups<K> = Vec::new();
        for (b, i, key) in entries {
            let (batch, _, acols) = &evaluated[b as usize];
            let i = i as usize;
            let mult = batch.mults()[i];
            let slot = match slots.get(&key) {
                Some(&s) => s,
                None => {
                    let s = out.len();
                    slots.insert(key.clone(), s);
                    out.push((
                        (b, i as u32),
                        key,
                        aggregates.iter().map(|a| AggState::new(a.func)).collect(),
                    ));
                    s
                }
            };
            for (state, arg) in out[slot].2.iter_mut().zip(acols) {
                match arg {
                    Some(col) => state.update(Some(&col.value_at(i)), mult),
                    None => state.update(None, mult),
                }
            }
        }
        out
    });
    // First-seen positions are unique across partitions, so this sort is a
    // fixed permutation — the global first-seen group order — no matter
    // how many partitions the groups were spread over.
    let merge_start = pool.instrumented().then(Instant::now);
    let mut merged: Vec<((u32, u32), K, Vec<AggState>)> = folded.into_iter().flatten().collect();
    merged.sort_unstable_by_key(|(first, _, _)| *first);
    if let Some(start) = merge_start {
        pool.note_partition_merge(start.elapsed().as_nanos() as u64);
    }
    merged.into_iter().map(|(_, k, s)| (k, s)).collect()
}

/// Grouping + aggregation (first-seen group order, like the row engine).
///
/// A typed fast path handles the common shape — a single group key whose
/// evaluated column is dense `Int` in every batch — with an `i64`-keyed
/// hash table; the shared [`AggState`]s still fold every value, so the
/// output is bit-identical to the general path (and the row engine).
pub fn aggregate(
    input: BatchStream,
    group_by: &[ProjColumn],
    aggregates: &[AggExpr],
) -> Result<BatchStream, EngineError> {
    aggregate_impl(input, group_by, aggregates, None)
}

/// [`aggregate`] with a thread pool: with more than one worker and more
/// than one input batch, evaluation runs batch-parallel and the group fold
/// runs through `fold_partitioned` — byte-identical output, every
/// thread count.
pub fn aggregate_pooled(
    input: BatchStream,
    group_by: &[ProjColumn],
    aggregates: &[AggExpr],
    pool: &ThreadPool,
) -> Result<BatchStream, EngineError> {
    aggregate_impl(input, group_by, aggregates, Some(pool))
}

fn aggregate_impl(
    input: BatchStream,
    group_by: &[ProjColumn],
    aggregates: &[AggExpr],
    pool: Option<&ThreadPool>,
) -> Result<BatchStream, EngineError> {
    let bound_groups: Vec<Expr> = group_by
        .iter()
        .map(|g| g.expr.bind(&input.schema))
        .collect::<Result<_, _>>()
        .map_err(EngineError::Expr)?;
    let bound_aggs: Vec<Option<Expr>> = aggregates
        .iter()
        .map(|a| a.arg.as_ref().map(|e| e.bind(&input.schema)).transpose())
        .collect::<Result<_, _>>()
        .map_err(EngineError::Expr)?;
    let parallel = pool
        .map(|p| p.current_num_threads() > 1 && input.batches.len() > 1)
        .unwrap_or(false);

    // Evaluate every batch's key/argument columns up front (cheap `Arc`
    // handles), so the typed-key decision sees the whole input.
    let eval_batch =
        |batch: &'_ ColumnBatch| -> Result<(Vec<Evaluated>, Vec<Option<Evaluated>>), EngineError> {
            let group_cols: Vec<Evaluated> = bound_groups
                .iter()
                .map(|e| eval_expr(e, batch))
                .collect::<Result<_, _>>()?;
            let agg_cols: Vec<Option<Evaluated>> = bound_aggs
                .iter()
                .map(|e| e.as_ref().map(|e| eval_expr(e, batch)).transpose())
                .collect::<Result<_, _>>()?;
            Ok((group_cols, agg_cols))
        };
    let mut evaluated: Vec<BatchEval> = Vec::with_capacity(input.batches.len());
    if parallel {
        let pool = pool.expect("parallel implies a pool");
        let results = pool
            .map_in_order(input.batches.iter().collect(), |_, batch: &ColumnBatch| {
                eval_batch(batch).map(|(g, a)| (batch, g, a))
            });
        for r in results {
            // `?` on the lowest-indexed error reproduces the serial loop's
            // failure order.
            evaluated.push(r?);
        }
    } else {
        for batch in &input.batches {
            let (group_cols, agg_cols) = eval_batch(batch)?;
            evaluated.push((batch, group_cols, agg_cols));
        }
    }

    let int_keyed = bound_groups.len() == 1
        && evaluated
            .iter()
            .all(|(_, gcols, _)| IntKey::of(&gcols[0]).is_some());
    // The fold produces groups as `(key, states)` in first-seen order —
    // serially below, or partition-parallel with the same bytes.
    let mut grouped: Vec<(Tuple, Vec<AggState>)> = if parallel {
        let pool = pool.expect("parallel implies a pool");
        if int_keyed {
            fold_partitioned(&evaluated, aggregates, pool, |be, i| {
                IntKey::of(&be.1[0]).expect("checked above").at(i)
            })
            .into_iter()
            .map(|(k, s)| (Tuple::new(vec![Value::Int(k)]), s))
            .collect()
        } else {
            fold_partitioned(&evaluated, aggregates, pool, |be, i| {
                be.1.iter().map(|c| c.value_at(i)).collect::<Tuple>()
            })
        }
    } else if int_keyed {
        let mut int_groups: FxHashMap<i64, Vec<AggState>> = FxHashMap::default();
        let mut int_order: Vec<i64> = Vec::new();
        for (batch, gcols, acols) in &evaluated {
            let key_col = IntKey::of(&gcols[0]).expect("checked above");
            for i in 0..batch.len() {
                let mult = batch.mults()[i];
                if mult == 0 {
                    continue;
                }
                let k = key_col.at(i);
                let states = match int_groups.get_mut(&k) {
                    Some(s) => s,
                    None => {
                        int_order.push(k);
                        int_groups.entry(k).or_insert_with(|| {
                            aggregates.iter().map(|a| AggState::new(a.func)).collect()
                        })
                    }
                };
                for (state, arg) in states.iter_mut().zip(acols) {
                    match arg {
                        Some(col) => state.update(Some(&col.value_at(i)), mult),
                        None => state.update(None, mult),
                    }
                }
            }
        }
        int_order
            .into_iter()
            .map(|k| {
                let states = int_groups.remove(&k).expect("recorded");
                (Tuple::new(vec![Value::Int(k)]), states)
            })
            .collect()
    } else {
        let mut groups: FxHashMap<Tuple, Vec<AggState>> = FxHashMap::default();
        let mut order: Vec<Tuple> = Vec::new();
        for (batch, group_cols, agg_cols) in &evaluated {
            for i in 0..batch.len() {
                let mult = batch.mults()[i];
                if mult == 0 {
                    continue;
                }
                let key: Tuple = group_cols.iter().map(|c| c.value_at(i)).collect();
                let states = match groups.get_mut(&key) {
                    Some(s) => s,
                    None => {
                        order.push(key.clone());
                        groups.entry(key).or_insert_with(|| {
                            aggregates.iter().map(|a| AggState::new(a.func)).collect()
                        })
                    }
                };
                for (state, arg) in states.iter_mut().zip(agg_cols) {
                    match arg {
                        Some(col) => state.update(Some(&col.value_at(i)), mult),
                        None => state.update(None, mult),
                    }
                }
            }
        }
        order
            .into_iter()
            .map(|key| {
                let states = groups.remove(&key).expect("group recorded");
                (key, states)
            })
            .collect()
    };

    // Global aggregation over an empty input still yields one row.
    if bound_groups.is_empty() && grouped.is_empty() {
        grouped.push((
            Tuple::empty(),
            aggregates.iter().map(|a| AggState::new(a.func)).collect(),
        ));
    }

    let mut columns: Vec<ua_data::schema::Column> =
        group_by.iter().map(|g| g.column.clone()).collect();
    for a in aggregates {
        columns.push(ua_data::schema::Column::unqualified(&a.name));
    }
    let out_schema = Schema::new(columns);
    let mut rows: Vec<Tuple> = Vec::with_capacity(grouped.len());
    for (key, states) in grouped {
        let mut values: Vec<Value> = key.values().to_vec();
        for s in states {
            values.push(s.finish());
        }
        rows.push(Tuple::new(values));
    }
    let arity = out_schema.arity();
    let cols: Vec<ColumnVec> = (0..arity)
        .map(|c| ColumnVec::from_values(rows.iter().map(move |r| r.get(c).expect("arity"))))
        .collect();
    let len = rows.len();
    let batch = ColumnBatch::new(
        out_schema.clone(),
        cols,
        Bitmap::filled(len, true),
        Arc::new(vec![1u64; len]),
    );
    Ok(BatchStream {
        schema: out_schema,
        batches: if len == 0 { Vec::new() } else { vec![batch] },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::batches_from_encoded_table;
    use ua_data::tuple;
    use ua_plan::Table;

    #[test]
    fn distinct_keeps_differently_labeled_copies_apart() {
        // Same tuple twice with different labels: both must survive, like
        // the row engine's Distinct over the encoded (ua_c-bearing) rows.
        let t = Table::from_rows(
            Schema::qualified("r", ["a"]).with_column(ua_core::UA_LABEL_COLUMN),
            vec![
                tuple![1i64, 0i64],
                tuple![1i64, 1i64],
                tuple![1i64, 0i64],
                tuple![2i64, 1i64],
            ],
        );
        let stream = batches_from_encoded_table(&t, "r", 2).unwrap();
        let out = distinct(stream);
        let rows: Vec<(Tuple, bool)> = out
            .batches
            .iter()
            .flat_map(|b| (0..b.len()).map(move |i| (b.row(i), b.labels().get(i))))
            .collect();
        assert_eq!(
            rows,
            vec![
                (tuple![1i64], false),
                (tuple![1i64], true),
                (tuple![2i64], true),
            ]
        );
    }

    /// `NOT IN`'s null-aware outer join against the row operator: NULL and
    /// labeled-null keys on either side, mixed `Int`/`Float`/`Str` keys, a
    /// dense `Int` build column (the integer index), both preserved sides,
    /// probe batches of one row and of all rows — and enough NULL probes
    /// over a wide build side that the candidates split into pieces.
    #[test]
    fn null_aware_outer_join_matches_the_row_operator() {
        use crate::columnar::{batches_from_table, table_from_batches};
        use ua_data::algebra::null_aware_eq;
        use ua_data::value::VarId;
        use ua_plan::plan::OuterKind;
        let keys = |name: &str, vals: Vec<Value>| {
            let rows = vals
                .into_iter()
                .enumerate()
                .map(|(i, v)| Tuple::new(vec![v, Value::Int(i as i64)]))
                .collect();
            Table::from_rows(Schema::qualified(name, ["k", "id"]), rows)
        };
        let big = 1i64 << 53;
        let mixed = |name: &str| {
            keys(
                name,
                vec![
                    Value::Int(1),
                    Value::Null,
                    Value::float(1.0),
                    Value::Int(big + 1),
                    Value::float(big as f64),
                    Value::Var(VarId(7)),
                    Value::str("1"),
                    Value::Int(4),
                ],
            )
        };
        let ints = |name: &str, n: i64| keys(name, (0..n).map(|i| Value::Int(i % 5)).collect());
        let nulls = |name: &str, n: i64| {
            let val = |i| {
                if i % 3 == 0 {
                    Value::Int(i)
                } else {
                    Value::Null
                }
            };
            keys(name, (0..n).map(val).collect())
        };
        let cases = [
            (mixed("l"), mixed("r")),
            (mixed("l"), ints("r", 12)),
            (ints("l", 12), mixed("r")),
            (mixed("l"), keys("r", vec![])),
            // 400 probes, two thirds of them NULL, over 300 build rows:
            // 80k candidate pairs, more than one piece holds.
            (nulls("l", 400), ints("r", 300)),
        ];
        let not_in = null_aware_eq(Expr::named("l.k"), Expr::named("r.k"));
        for (l, r) in &cases {
            let catalog = ua_plan::Catalog::new();
            catalog.register("l", l.clone());
            catalog.register("r", r.clone());
            for kind in [OuterKind::Left, OuterKind::Right] {
                let plan = ua_plan::Plan::OuterJoin {
                    left: Box::new(ua_plan::Plan::Scan("l".into())),
                    right: Box::new(ua_plan::Plan::Scan("r".into())),
                    predicate: Some(not_in.clone()),
                    kind,
                };
                let expected =
                    ua_plan::execute_row(&plan, &catalog, ua_plan::Semantics::Det, false)
                        .0
                        .unwrap()
                        .rows()
                        .to_vec();
                for batch_rows in [1, 4096] {
                    let got = outer_join(
                        batches_from_table(l, batch_rows),
                        batches_from_table(r, batch_rows),
                        JoinSpec::bind(&plan, l.schema(), r.schema()).unwrap(),
                        None,
                    )
                    .unwrap();
                    assert_eq!(
                        table_from_batches(&got).rows(),
                        expected,
                        "{kind:?} batch_rows={batch_rows} {} x {} rows",
                        l.len(),
                        r.len()
                    );
                }
            }
        }
    }

    #[test]
    fn typed_sort_keys_match_sort_table() {
        use crate::columnar::{batches_from_table, table_from_batches};
        // Every comparator arm gets exercised: dense Int/Float/Str key
        // columns (with duplicate keys so the full-row tie-break decides),
        // a float column holding NaN (F64's total order), a Mixed column
        // holding NULLs, and a constant (literal) key.
        let t = Table::from_rows(
            Schema::qualified("r", ["i", "f", "s", "m"]),
            vec![
                tuple![3i64, 1.5, "bb", Value::Null],
                tuple![1i64, f64::NAN, "aa", 7i64],
                tuple![3i64, -0.0, "aa", Value::Null],
                tuple![1i64, 1.5, "cc", 2i64],
                tuple![2i64, f64::NAN, "bb", Value::Null],
                tuple![1i64, 1.5, "aa", 5i64],
                tuple![3i64, 1.5, "bb", 1i64],
            ],
        );
        let key_sets: Vec<Vec<(Expr, SortOrder)>> = vec![
            vec![(Expr::col(0), SortOrder::Asc)],
            vec![
                (Expr::col(1), SortOrder::Desc),
                (Expr::col(2), SortOrder::Asc),
            ],
            vec![(Expr::col(2), SortOrder::Desc)],
            vec![
                (Expr::col(3), SortOrder::Asc),
                (Expr::col(0), SortOrder::Desc),
            ],
            vec![
                (Expr::lit(1i64), SortOrder::Asc),
                (Expr::col(1), SortOrder::Asc),
            ],
        ];
        for keys in &key_sets {
            let expect = ua_plan::sort_table(&t, keys).unwrap();
            for batch_rows in [1, 3, 1024] {
                let sorted = sort(batches_from_table(&t, batch_rows), keys, batch_rows).unwrap();
                let got = table_from_batches(&sorted);
                assert_eq!(got.rows(), expect.rows(), "keys {keys:?} × {batch_rows}");
            }
        }
    }

    /// The partition-merge-order contract: [`fold_partitioned`] (via
    /// [`aggregate_pooled`]) must reproduce the serial fold byte for byte
    /// at every worker count — group output order is the global
    /// first-seen order, and each group's float accumulation sees the
    /// serial scan's exact subsequence. Mixed-magnitude floats make any
    /// reordering visible: `(1e16 + 1.0) - 1e16 = 0`, but
    /// `(1e16 - 1e16) + 1.0 = 1`.
    #[test]
    fn partitioned_aggregation_merges_in_first_seen_order() {
        use crate::columnar::{batches_from_table, table_from_batches};
        use ua_plan::plan::AggFunc;
        // 24 groups, first seen in descending order, interleaved across
        // batches; per-group values alternate huge/tiny so fold order is
        // observable in the Sum/Avg bytes.
        let rows: Vec<Tuple> = (0..3000i64)
            .map(|i| {
                let g = 23 - (i % 24);
                let x = match i % 4 {
                    0 => 1e16,
                    1 => 1.0,
                    2 => -1e16,
                    _ => 0.25,
                };
                tuple![g, x]
            })
            .collect();
        let t = Table::from_rows(Schema::qualified("f", ["g", "x"]), rows);
        let group_by = vec![ProjColumn::named("g")];
        let aggregates = vec![
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::named("x")),
                name: "s".into(),
            },
            AggExpr {
                func: AggFunc::Avg,
                arg: Some(Expr::named("x")),
                name: "m".into(),
            },
        ];
        for batch_rows in [1usize, 7, 256] {
            let serial =
                aggregate(batches_from_table(&t, batch_rows), &group_by, &aggregates).unwrap();
            let expect = table_from_batches(&serial);
            // Output order is the global first-seen order (descending g).
            let first_keys: Vec<Value> = expect
                .rows()
                .iter()
                .map(|r| r.values()[0].clone())
                .collect();
            assert_eq!(
                first_keys,
                (0..24i64).map(|g| Value::Int(23 - g)).collect::<Vec<_>>(),
                "first-seen group order (batch_rows={batch_rows})"
            );
            for workers in [2usize, 3, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(workers)
                    .build()
                    .unwrap();
                let got = table_from_batches(
                    &aggregate_pooled(
                        batches_from_table(&t, batch_rows),
                        &group_by,
                        &aggregates,
                        &pool,
                    )
                    .unwrap(),
                );
                assert_eq!(
                    got.rows(),
                    expect.rows(),
                    "partitioned fold must be byte-identical \
                     (batch_rows={batch_rows}, workers={workers})"
                );
            }
        }
    }
}
