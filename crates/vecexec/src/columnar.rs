//! Columnar batches and lossless converters to/from the row world.
//!
//! A [`ColumnBatch`] holds ~[`DEFAULT_BATCH_ROWS`] rows decomposed into
//! typed column vectors ([`ColumnVec`]), plus the two UA sidecars the paper's
//! encoding needs:
//!
//! * a **label bitmap** — one bit per row copy, set iff the copy is labeled
//!   certain (the `ua_c` marker of Definition 8, packed 64 rows per word);
//! * a **multiplicity column** — `u64` per row, so a batch can also
//!   represent an annotation-map [`ua_data::Relation`]`<u64>` without expanding
//!   duplicates.
//!
//! Converters are lossless both ways: `Table` ⇄ batches (row copies,
//! multiplicity 1) and `Relation<u64>` ⇄ batches (support tuples with their
//! annotations).

use crate::bitmap::Bitmap;
use std::sync::Arc;
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::{Value, F64};
use ua_plan::storage::Table;
use ua_plan::EngineError;

/// Default number of rows per batch: small enough for L1/L2-resident
/// columns, large enough to amortize per-batch dispatch.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// A typed column vector. Columns whose values are uniformly one scalar
/// type get a dense representation; anything else (SQL nulls, labeled
/// nulls, mixed types) falls back to [`ColumnVec::Mixed`], which is always
/// correct. Buffers are `Arc`-shared so projections of plain column
/// references are O(1).
#[derive(Clone, PartialEq, Debug)]
pub enum ColumnVec {
    /// All values are `Value::Int`.
    Int(Arc<Vec<i64>>),
    /// All values are `Value::Float`.
    Float(Arc<Vec<F64>>),
    /// All values are `Value::Bool`.
    Bool(Arc<Vec<bool>>),
    /// All values are `Value::Str`.
    Str(Arc<Vec<Arc<str>>>),
    /// Arbitrary values (nulls, labeled nulls, mixed types).
    Mixed(Arc<Vec<Value>>),
}

impl ColumnVec {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int(v) => v.len(),
            ColumnVec::Float(v) => v.len(),
            ColumnVec::Bool(v) => v.len(),
            ColumnVec::Str(v) => v.len(),
            ColumnVec::Mixed(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `i` (cloned out; cheap for scalars, an `Arc` bump for
    /// strings).
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int(v) => Value::Int(v[i]),
            ColumnVec::Float(v) => Value::Float(v[i]),
            ColumnVec::Bool(v) => Value::Bool(v[i]),
            ColumnVec::Str(v) => Value::Str(Arc::clone(&v[i])),
            ColumnVec::Mixed(v) => v[i].clone(),
        }
    }

    /// Build a column from a value sequence, picking the densest
    /// representation that holds every value.
    pub fn from_values<'a>(values: impl Iterator<Item = &'a Value> + Clone) -> ColumnVec {
        #[derive(PartialEq, Clone, Copy)]
        enum Kind {
            Unknown,
            Int,
            Float,
            Bool,
            Str,
            Mixed,
        }
        let mut kind = Kind::Unknown;
        for v in values.clone() {
            let this = match v {
                Value::Int(_) => Kind::Int,
                Value::Float(_) => Kind::Float,
                Value::Bool(_) => Kind::Bool,
                Value::Str(_) => Kind::Str,
                Value::Null | Value::Var(_) => Kind::Mixed,
            };
            kind = match (kind, this) {
                (Kind::Unknown, k) => k,
                (k, t) if k == t => k,
                _ => Kind::Mixed,
            };
            if kind == Kind::Mixed {
                break;
            }
        }
        match kind {
            Kind::Int => ColumnVec::Int(Arc::new(
                values
                    .map(|v| match v {
                        Value::Int(i) => *i,
                        _ => unreachable!("sniffed Int column"),
                    })
                    .collect(),
            )),
            Kind::Float => ColumnVec::Float(Arc::new(
                values
                    .map(|v| match v {
                        Value::Float(f) => *f,
                        _ => unreachable!("sniffed Float column"),
                    })
                    .collect(),
            )),
            Kind::Bool => ColumnVec::Bool(Arc::new(
                values
                    .map(|v| match v {
                        Value::Bool(b) => *b,
                        _ => unreachable!("sniffed Bool column"),
                    })
                    .collect(),
            )),
            Kind::Str => ColumnVec::Str(Arc::new(
                values
                    .map(|v| match v {
                        Value::Str(s) => Arc::clone(s),
                        _ => unreachable!("sniffed Str column"),
                    })
                    .collect(),
            )),
            Kind::Unknown | Kind::Mixed => ColumnVec::Mixed(Arc::new(values.cloned().collect())),
        }
    }

    /// A column holding `value` repeated `len` times.
    pub fn broadcast(value: &Value, len: usize) -> ColumnVec {
        match value {
            Value::Int(i) => ColumnVec::Int(Arc::new(vec![*i; len])),
            Value::Float(f) => ColumnVec::Float(Arc::new(vec![*f; len])),
            Value::Bool(b) => ColumnVec::Bool(Arc::new(vec![*b; len])),
            Value::Str(s) => ColumnVec::Str(Arc::new(vec![Arc::clone(s); len])),
            other => ColumnVec::Mixed(Arc::new(vec![other.clone(); len])),
        }
    }

    /// Whether both columns are handles on one buffer — how an AU batch
    /// says "this bound column *is* its `bg` column" without a comparison.
    pub fn shares_buffer(&self, other: &ColumnVec) -> bool {
        match (self, other) {
            (ColumnVec::Int(a), ColumnVec::Int(b)) => Arc::ptr_eq(a, b),
            (ColumnVec::Float(a), ColumnVec::Float(b)) => Arc::ptr_eq(a, b),
            (ColumnVec::Bool(a), ColumnVec::Bool(b)) => Arc::ptr_eq(a, b),
            (ColumnVec::Str(a), ColumnVec::Str(b)) => Arc::ptr_eq(a, b),
            (ColumnVec::Mixed(a), ColumnVec::Mixed(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The rows at `idx`, in order.
    pub fn gather(&self, idx: &[u32]) -> ColumnVec {
        match self {
            ColumnVec::Int(v) => {
                ColumnVec::Int(Arc::new(idx.iter().map(|&i| v[i as usize]).collect()))
            }
            ColumnVec::Float(v) => {
                ColumnVec::Float(Arc::new(idx.iter().map(|&i| v[i as usize]).collect()))
            }
            ColumnVec::Bool(v) => {
                ColumnVec::Bool(Arc::new(idx.iter().map(|&i| v[i as usize]).collect()))
            }
            ColumnVec::Str(v) => ColumnVec::Str(Arc::new(
                idx.iter().map(|&i| Arc::clone(&v[i as usize])).collect(),
            )),
            ColumnVec::Mixed(v) => ColumnVec::Mixed(Arc::new(
                idx.iter().map(|&i| v[i as usize].clone()).collect(),
            )),
        }
    }

    /// Concatenate columns (same logical column across batches). Falls back
    /// to [`ColumnVec::Mixed`] when the parts disagree on representation.
    pub fn concat(parts: &[&ColumnVec]) -> ColumnVec {
        fn all<'a, T: Clone + 'a, F>(parts: &[&'a ColumnVec], f: F) -> Option<Vec<T>>
        where
            F: Fn(&'a ColumnVec) -> Option<&'a Vec<T>>,
        {
            let total: usize = parts.iter().map(|p| p.len()).sum();
            let mut out = Vec::with_capacity(total);
            for p in parts {
                out.extend_from_slice(f(p)?);
            }
            Some(out)
        }
        if let Some(v) = all(parts, |p| match p {
            ColumnVec::Int(v) => Some(v.as_ref()),
            _ => None,
        }) {
            return ColumnVec::Int(Arc::new(v));
        }
        if let Some(v) = all(parts, |p| match p {
            ColumnVec::Float(v) => Some(v.as_ref()),
            _ => None,
        }) {
            return ColumnVec::Float(Arc::new(v));
        }
        if let Some(v) = all(parts, |p| match p {
            ColumnVec::Bool(v) => Some(v.as_ref()),
            _ => None,
        }) {
            return ColumnVec::Bool(Arc::new(v));
        }
        if let Some(v) = all(parts, |p| match p {
            ColumnVec::Str(v) => Some(v.as_ref()),
            _ => None,
        }) {
            return ColumnVec::Str(Arc::new(v));
        }
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            for i in 0..p.len() {
                out.push(p.value(i));
            }
        }
        ColumnVec::Mixed(Arc::new(out))
    }
}

/// A batch of rows in columnar form, with UA sidecars.
#[derive(Clone, Debug)]
pub struct ColumnBatch {
    schema: Schema,
    len: usize,
    columns: Vec<ColumnVec>,
    /// Bit set ⇔ row copy labeled certain.
    labels: Bitmap,
    /// Per-row multiplicity (1 for table-sourced batches).
    mults: Arc<Vec<u64>>,
}

impl ColumnBatch {
    /// Assemble a batch (columns, labels and mults must agree on length).
    pub fn new(
        schema: Schema,
        columns: Vec<ColumnVec>,
        labels: Bitmap,
        mults: Arc<Vec<u64>>,
    ) -> ColumnBatch {
        let len = labels.len();
        assert_eq!(schema.arity(), columns.len(), "column count mismatch");
        assert!(
            columns.iter().all(|c| c.len() == len),
            "column len mismatch"
        );
        assert_eq!(mults.len(), len, "mult len mismatch");
        ColumnBatch {
            schema,
            len,
            columns,
            labels,
            mults,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (not counting multiplicities).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The columns.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.columns
    }

    /// One column.
    pub fn column(&self, i: usize) -> &ColumnVec {
        &self.columns[i]
    }

    /// The label bitmap.
    pub fn labels(&self) -> &Bitmap {
        &self.labels
    }

    /// The multiplicity column.
    pub fn mults(&self) -> &[u64] {
        &self.mults
    }

    /// The multiplicity column's shared buffer, for views that keep the
    /// rows and only swap columns.
    pub fn shared_mults(&self) -> Arc<Vec<u64>> {
        Arc::clone(&self.mults)
    }

    /// Materialize row `i` as a tuple.
    pub fn row(&self, i: usize) -> Tuple {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// The rows at `idx` (labels and multiplicities ride along), the
    /// columns through `gather_columns`.
    pub fn gather(&self, idx: &[u32]) -> ColumnBatch {
        ColumnBatch {
            schema: self.schema.clone(),
            len: idx.len(),
            columns: gather_columns(&self.columns, idx),
            labels: self.labels.gather(idx),
            mults: Arc::new(idx.iter().map(|&i| self.mults[i as usize]).collect()),
        }
    }

    /// The same batch under a replaced schema (arity must match).
    pub fn with_schema(&self, schema: Schema) -> ColumnBatch {
        assert_eq!(schema.arity(), self.schema.arity(), "arity must not change");
        ColumnBatch {
            schema,
            ..self.clone()
        }
    }
}

/// The rows at `idx` of every column. Each distinct buffer is gathered
/// once and the result handed to every column that aliases it, so an AU
/// point column — bounds sharing the `bg` buffer — is still one after the
/// gather, at a third of the copies.
pub(crate) fn gather_columns(columns: &[ColumnVec], idx: &[u32]) -> Vec<ColumnVec> {
    let mut out: Vec<ColumnVec> = Vec::with_capacity(columns.len());
    for (c, col) in columns.iter().enumerate() {
        let alias = columns[..c].iter().position(|p| p.shares_buffer(col));
        out.push(match alias {
            Some(first) => out[first].clone(),
            None => col.gather(idx),
        });
    }
    out
}

/// A schema-carrying sequence of batches (the unit operators consume and
/// produce). The schema lives here too so empty relations keep theirs.
#[derive(Clone, Debug)]
pub struct BatchStream {
    /// Output schema.
    pub schema: Schema,
    /// The batches, in row order.
    pub batches: Vec<ColumnBatch>,
}

impl BatchStream {
    /// Total row count (not counting multiplicities).
    pub fn num_rows(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }

    /// Re-qualify the stream (and every batch) under a new schema.
    pub fn with_schema(self, schema: Schema) -> BatchStream {
        BatchStream {
            batches: self
                .batches
                .iter()
                .map(|b| b.with_schema(schema.clone()))
                .collect(),
            schema,
        }
    }

    /// Concatenate all batches into one (the build side of a hash join, an
    /// input of AU `−` / `⟕`). A column that is an earlier column's buffer
    /// in every batch — an AU point column's bounds — comes out as that
    /// column's concatenation, so the chunk keeps the aliasing.
    pub fn into_single_chunk(self) -> ColumnBatch {
        if self.batches.len() == 1 {
            return self.batches.into_iter().next().expect("one batch");
        }
        let arity = self.schema.arity();
        let total: usize = self.batches.iter().map(|b| b.len()).sum();
        let mut columns: Vec<ColumnVec> = Vec::with_capacity(arity);
        for c in 0..arity {
            let aliases = |p: &usize| {
                !self.batches.is_empty()
                    && self
                        .batches
                        .iter()
                        .all(|b| b.column(c).shares_buffer(b.column(*p)))
            };
            columns.push(match (0..c).find(aliases) {
                Some(p) => columns[p].clone(),
                None => {
                    let parts: Vec<&ColumnVec> = self.batches.iter().map(|b| b.column(c)).collect();
                    ColumnVec::concat(&parts)
                }
            });
        }
        let labels = Bitmap::concat(self.batches.iter().map(|b| b.labels()));
        let mut mults = Vec::with_capacity(total);
        for b in &self.batches {
            mults.extend_from_slice(b.mults());
        }
        ColumnBatch::new(self.schema, columns, labels, Arc::new(mults))
    }
}

/// The `[start, end)` chunk boundaries of an `n`-row table at `batch_rows`
/// rows per chunk — each chunk converts independently, which is what lets
/// scans decompose in parallel with a deterministic batch order.
fn chunk_ranges(n: usize, batch_rows: usize) -> Vec<(usize, usize)> {
    let step = batch_rows.max(1);
    let mut ranges = Vec::with_capacity(n.div_ceil(step));
    let mut start = 0;
    while start < n {
        let end = (start + step).min(n);
        ranges.push((start, end));
        start = end;
    }
    ranges
}

/// A one-worker pool. `map_in_order` on it runs inline on the calling
/// thread, so each serial converter below *is* its `_pooled` twin.
fn inline_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("shim pool construction is infallible")
}

/// Convert `rows` chunk by chunk on `pool`, results in chunk order — the
/// one scan loop under the plain, UA-encoded and AU-encoded scans. Every
/// chunk is also handed the decode's one all-ones multiplicity sidecar,
/// as long as a full chunk: the chunk store keeps the result resident, and
/// a sidecar per chunk would be 8 KiB of ones each ([`ones`] picks).
pub(crate) fn convert_chunks<T: Send>(
    rows: &[Tuple],
    batch_rows: usize,
    pool: &rayon::ThreadPool,
    convert: impl Fn(&[Tuple], &Arc<Vec<u64>>) -> T + Sync,
) -> Vec<T> {
    let full = Arc::new(vec![1u64; batch_rows.max(1).min(rows.len())]);
    pool.map_in_order(chunk_ranges(rows.len(), batch_rows), |_, (s, e)| {
        convert(&rows[s..e], &full)
    })
}

/// `len` ones as a multiplicity sidecar: the decode's shared buffer when
/// the chunk is full-size, a buffer of its own otherwise (the last chunk,
/// an AU chunk that dropped `ub = 0` rows).
pub(crate) fn ones(full: &Arc<Vec<u64>>, len: usize) -> Arc<Vec<u64>> {
    if len == full.len() {
        Arc::clone(full)
    } else {
        Arc::new(vec![1u64; len])
    }
}

/// Columns `0..arity` of a row chunk, each in its densest representation.
pub(crate) fn chunk_columns(arity: usize, chunk: &[Tuple]) -> Vec<ColumnVec> {
    (0..arity)
        .map(|c| {
            ColumnVec::from_values(chunk.iter().map(move |r| r.get(c).expect("arity checked")))
        })
        .collect()
}

/// Convert one row chunk into a batch with every row labeled certain at
/// multiplicity 1 — deterministic semantics, and AU semantics too (AU
/// multiplicities live in the `ua_m_*` data columns).
pub(crate) fn chunk_to_batch(
    schema: &Schema,
    chunk: &[Tuple],
    full: &Arc<Vec<u64>>,
) -> ColumnBatch {
    ColumnBatch::new(
        schema.clone(),
        chunk_columns(schema.arity(), chunk),
        Bitmap::filled(chunk.len(), true),
        ones(full, chunk.len()),
    )
}

/// Convert one UA-encoded row chunk into a batch: the trailing marker
/// column is stripped into the label bitmap (errors on non-`0`/`1`
/// markers).
fn encoded_chunk_to_batch(
    base_schema: &Schema,
    name: &str,
    chunk: &[Tuple],
    full: &Arc<Vec<u64>>,
) -> Result<ColumnBatch, EngineError> {
    let arity = base_schema.arity();
    let mut bm = Bitmap::filled(chunk.len(), false);
    for (i, row) in chunk.iter().enumerate() {
        match row.get(arity) {
            Some(Value::Int(1)) => bm.set(i, true),
            Some(Value::Int(0)) => {}
            other => {
                return Err(EngineError::Sql(format!(
                    "invalid certainty marker {:?} in `{name}`",
                    other
                )))
            }
        }
    }
    Ok(ColumnBatch::new(
        base_schema.clone(),
        chunk_columns(arity, chunk),
        bm,
        ones(full, chunk.len()),
    ))
}

/// Decompose a row table into batches (all rows labeled certain,
/// multiplicity 1 — deterministic semantics).
pub fn batches_from_table(table: &Table, batch_rows: usize) -> BatchStream {
    batches_from_table_pooled(table, batch_rows, &inline_pool())
}

/// [`batches_from_table`] with chunks converted in parallel on `pool` —
/// batch order (and therefore every downstream result) is identical to the
/// serial decomposition.
pub fn batches_from_table_pooled(
    table: &Table,
    batch_rows: usize,
    pool: &rayon::ThreadPool,
) -> BatchStream {
    let schema = table.schema();
    BatchStream {
        schema: schema.clone(),
        batches: convert_chunks(table.rows(), batch_rows, pool, |chunk, full| {
            chunk_to_batch(schema, chunk, full)
        }),
    }
}

/// The marker-stripped base schema of a UA-encoded table, or the
/// not-encoded error.
fn encoded_base_schema(table: &Table, name: &str) -> Result<Schema, EngineError> {
    let schema = table.schema();
    let last_is_marker = schema
        .columns()
        .last()
        .is_some_and(|c| c.name.eq_ignore_ascii_case(ua_core::UA_LABEL_COLUMN));
    if !last_is_marker {
        return Err(EngineError::Schema(
            ua_data::schema::SchemaError::UnknownColumn(format!(
                "{name}.{} (table is not UA-encoded)",
                ua_core::UA_LABEL_COLUMN
            )),
        ));
    }
    Ok(Schema::new(schema.columns()[..schema.arity() - 1].to_vec()))
}

/// Decompose a UA-*encoded* table (certainty marker in last position, per
/// `Enc`) into batches: the marker column is stripped into the label
/// bitmap. Errors when the table is not encoded or a marker is not `0`/`1`.
pub fn batches_from_encoded_table(
    table: &Table,
    name: &str,
    batch_rows: usize,
) -> Result<BatchStream, EngineError> {
    batches_from_encoded_table_pooled(table, name, batch_rows, &inline_pool())
}

/// [`batches_from_encoded_table`] with chunks converted in parallel on
/// `pool`. Batch order is identical to the serial decomposition, and an
/// invalid marker reports the lowest-indexed offending chunk — the same
/// row a serial scan finds first.
pub fn batches_from_encoded_table_pooled(
    table: &Table,
    name: &str,
    batch_rows: usize,
    pool: &rayon::ThreadPool,
) -> Result<BatchStream, EngineError> {
    let base_schema = encoded_base_schema(table, name)?;
    let batches = convert_chunks(table.rows(), batch_rows, pool, |chunk, full| {
        encoded_chunk_to_batch(&base_schema, name, chunk, full)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok(BatchStream {
        schema: base_schema,
        batches,
    })
}

/// Decompose an annotation-map relation into batches: one row per support
/// tuple, the annotation in the multiplicity column (lossless — no
/// duplicate expansion). Rows are emitted in the deterministic structural
/// order.
pub fn batches_from_relation(rel: &ua_data::Relation<u64>, batch_rows: usize) -> BatchStream {
    let sorted = rel.sorted_tuples();
    let schema = rel.schema().clone();
    let arity = schema.arity();
    let mut batches = Vec::with_capacity(sorted.len().div_ceil(batch_rows.max(1)));
    let mut start = 0;
    while start < sorted.len() {
        let end = (start + batch_rows).min(sorted.len());
        let chunk = &sorted[start..end];
        let columns: Vec<ColumnVec> = (0..arity)
            .map(|c| {
                ColumnVec::from_values(
                    chunk
                        .iter()
                        .map(move |(t, _)| t.get(c).expect("arity checked")),
                )
            })
            .collect();
        let mults: Vec<u64> = chunk.iter().map(|(_, n)| *n).collect();
        batches.push(ColumnBatch::new(
            schema.clone(),
            columns,
            Bitmap::filled(chunk.len(), true),
            Arc::new(mults),
        ));
        start = end;
    }
    BatchStream { schema, batches }
}

/// Materialize a stream as a row table: a row with multiplicity `n` becomes
/// `n` copies (the engine's bag representation). Labels are dropped — use
/// [`encoded_table_from_batches`] to keep them.
pub fn table_from_batches(stream: &BatchStream) -> Table {
    table_from_batches_pooled(stream, &inline_pool())
}

/// Materialize a stream as a UA-encoded row table: the label bitmap is
/// re-attached as a trailing `ua_c` column of `0`/`1` markers.
pub fn encoded_table_from_batches(stream: &BatchStream) -> Table {
    encoded_table_from_batches_pooled(stream, &inline_pool())
}

/// The stream's row copies in stream order, one batch per task on `pool`;
/// `marker` appends each copy's label as a trailing `0`/`1` value.
fn rows_pooled(stream: &BatchStream, pool: &rayon::ThreadPool, marker: bool) -> Vec<Tuple> {
    let batches: Vec<&ColumnBatch> = stream.batches.iter().collect();
    let materialize = |_, b: &ColumnBatch| {
        let mut rows = Vec::with_capacity(b.len());
        for i in 0..b.len() {
            let row = if marker {
                let label = Value::Int(i64::from(b.labels().get(i)));
                let values = b.columns().iter().map(|c| c.value(i));
                values.chain(std::iter::once(label)).collect()
            } else {
                b.row(i)
            };
            rows.extend(std::iter::repeat_n(row, b.mults()[i] as usize));
        }
        rows
    };
    // A result of at most one full morsel's rows is one worker's work
    // however many batches hold it (a point lookup's three near-empty
    // batches): it stays on the calling thread, saving the pool's spawn and
    // join (`exec::INLINE_MORSELS`). Beyond that the rows decide, not the
    // batch count — a row costs ≈ 0.1 µs to materialise, so five full
    // batches repay two threads.
    let parts: Vec<Vec<Tuple>> = if stream.num_rows() <= DEFAULT_BATCH_ROWS {
        pool.map_inline(batches, materialize)
    } else {
        pool.map_in_order(batches, materialize)
    };
    let mut rows = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        rows.extend(p);
    }
    rows
}

/// [`table_from_batches`] with per-batch row materialization on `pool`
/// (row order unchanged — batches flatten in stream order). Deterministic
/// and AU results both come out of here: an AU stream's flattened schema
/// is its table schema.
pub fn table_from_batches_pooled(stream: &BatchStream, pool: &rayon::ThreadPool) -> Table {
    Table::from_rows(stream.schema.clone(), rows_pooled(stream, pool, false))
}

/// [`encoded_table_from_batches`] with per-batch row materialization on
/// `pool` (row order unchanged).
pub fn encoded_table_from_batches_pooled(stream: &BatchStream, pool: &rayon::ThreadPool) -> Table {
    Table::from_rows(
        stream.schema.with_column(ua_core::UA_LABEL_COLUMN),
        rows_pooled(stream, pool, true),
    )
}

/// Collapse a stream back into an annotation-map relation (multiplicities
/// accumulate per distinct tuple).
pub fn relation_from_batches(stream: &BatchStream) -> ua_data::Relation<u64> {
    let mut rel = ua_data::Relation::new(stream.schema.clone());
    for b in &stream.batches {
        for i in 0..b.len() {
            rel.insert(b.row(i), b.mults()[i]);
        }
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use ua_data::tuple;

    fn sample_table() -> Table {
        Table::from_rows(
            Schema::qualified("r", ["a", "b"]),
            (0..2500i64)
                .map(|i| tuple![i, format!("s{}", i % 7)])
                .collect(),
        )
    }

    #[test]
    fn table_round_trip_across_batch_boundaries() {
        for rows in [0usize, 1, DEFAULT_BATCH_ROWS, DEFAULT_BATCH_ROWS + 1, 2500] {
            let t = Table::from_rows(
                Schema::qualified("r", ["a", "b"]),
                (0..rows as i64).map(|i| tuple![i, i * 2]).collect(),
            );
            let stream = batches_from_table(&t, DEFAULT_BATCH_ROWS);
            assert_eq!(stream.num_rows(), rows);
            let back = table_from_batches(&stream);
            assert_eq!(back.rows(), t.rows());
            assert_eq!(back.schema(), t.schema());
        }
    }

    #[test]
    fn relation_round_trip_is_lossless() {
        let rel = ua_data::bag_relation(
            "r",
            &["a"],
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(1)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        );
        let stream = batches_from_relation(&rel, 2);
        assert_eq!(stream.num_rows(), 2, "support tuples, not copies");
        assert_eq!(relation_from_batches(&stream), rel);
        // Expanding to a table matches Table::from_relation.
        assert_eq!(
            table_from_batches(&stream).sorted_rows(),
            Table::from_relation(&rel).sorted_rows()
        );
    }

    #[test]
    fn column_types_are_sniffed() {
        let t = sample_table();
        let stream = batches_from_table(&t, DEFAULT_BATCH_ROWS);
        assert!(matches!(stream.batches[0].column(0), ColumnVec::Int(_)));
        assert!(matches!(stream.batches[0].column(1), ColumnVec::Str(_)));
        let mixed = Table::from_rows(
            Schema::qualified("m", ["a"]),
            vec![tuple![1i64], Tuple::new(vec![Value::Null])],
        );
        let stream = batches_from_table(&mixed, 16);
        assert!(matches!(stream.batches[0].column(0), ColumnVec::Mixed(_)));
    }

    #[test]
    fn encoded_round_trip_preserves_labels() {
        let t = Table::from_rows(
            Schema::qualified("r", ["a"]).with_column(ua_core::UA_LABEL_COLUMN),
            vec![tuple![1i64, 1i64], tuple![2i64, 0i64], tuple![3i64, 1i64]],
        );
        let stream = batches_from_encoded_table(&t, "r", 2).unwrap();
        assert_eq!(stream.schema.arity(), 1);
        assert_eq!(
            stream
                .batches
                .iter()
                .map(|b| b.labels().count_ones())
                .sum::<usize>(),
            2
        );
        let back = encoded_table_from_batches(&stream);
        assert_eq!(back.sorted_rows(), t.sorted_rows());
    }

    #[test]
    fn unencoded_table_is_rejected() {
        let t = sample_table();
        assert!(batches_from_encoded_table(&t, "r", 8).is_err());
    }

    #[test]
    fn single_chunk_concat() {
        let t = sample_table();
        let stream = batches_from_table(&t, 700);
        assert!(stream.batches.len() > 1);
        let chunk = stream.clone().into_single_chunk();
        assert_eq!(chunk.len(), t.len());
        assert_eq!(chunk.row(0), t.rows()[0]);
        assert_eq!(chunk.row(t.len() - 1), t.rows()[t.len() - 1]);
    }
}
