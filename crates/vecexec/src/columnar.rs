//! Columnar batches and lossless converters to/from the row world.
//!
//! A [`ColumnBatch`] holds ~[`DEFAULT_BATCH_ROWS`] rows decomposed into
//! typed column vectors ([`ColumnVec`]) under a schema — nothing else. A
//! UA-encoded batch carries its `ua_c` marker as an ordinary `Int` column,
//! the way the encoded table stores it.
//!
//! A batch row is one bag copy, as a `Table` row is: a tuple with
//! multiplicity `n` is `n` rows. Converters are lossless both ways between
//! `Table`s and batches.

use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use ua_data::agg::KeyColumn;
use ua_data::schema::Schema;
use ua_data::tuple::{Tuple, MAX_BUFFER_ROWS};
use ua_data::value::{Value, F64};
use ua_data::FxHasher;
use ua_plan::storage::Table;
use ua_plan::EngineError;

/// Default number of rows per batch: small enough for L1/L2-resident
/// columns, large enough to amortize per-batch dispatch. A default batch
/// materialises into one shared row buffer.
pub const DEFAULT_BATCH_ROWS: usize = MAX_BUFFER_ROWS;

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
    /// to [`ColumnVec::Mixed`] when the parts disagree on representation;
    /// one part comes back as a handle on its own buffer.
    pub fn concat(parts: &[&ColumnVec]) -> ColumnVec {
        if let [one] = parts {
            return (*one).clone();
        }
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

/// A group key is a column's value (det γ / δ).
impl KeyColumn for ColumnVec {
    fn hash_at(&self, i: usize, h: &mut FxHasher) {
        match self {
            ColumnVec::Int(v) => h.write_i64(v[i]),
            ColumnVec::Float(v) => v[i].hash(h),
            ColumnVec::Bool(v) => v[i].hash(h),
            ColumnVec::Str(v) => v[i].hash(h),
            ColumnVec::Mixed(v) => v[i].hash(h),
        }
    }

    fn same(&self, i: usize, j: usize) -> bool {
        match self {
            ColumnVec::Int(v) => v[i] == v[j],
            ColumnVec::Float(v) => v[i] == v[j],
            ColumnVec::Bool(v) => v[i] == v[j],
            ColumnVec::Str(v) => v[i] == v[j],
            ColumnVec::Mixed(v) => v[i] == v[j],
        }
    }

    fn ints(&self) -> Option<Cow<'_, [i64]>> {
        match self {
            ColumnVec::Int(v) => Some(Cow::Borrowed(v)),
            _ => None,
        }
    }
}

impl ColumnVec {
    /// This column under [`Value::join_key`], as a key column for
    /// [`ua_data::agg::Groups`] (det / UA `−`): a `Mixed` column comes back
    /// as its values' join keys, any other as a handle on its own buffer (a
    /// one-`Int` key keeps the `i64` fast path). A typed column needs no
    /// rewrite: `join_key` is one-to-one over one type, and `F64` already
    /// equates `-0.0` with `0.0` and NaN with NaN. Structural equality of
    /// two rows of the result is then IS-NOT-DISTINCT key equality: `1 =
    /// 1.0`, NULL = NULL, a labeled null equal to itself, exact past 2⁵³.
    pub fn join_keys(&self) -> ColumnVec {
        match self {
            ColumnVec::Mixed(v) => {
                ColumnVec::Mixed(Arc::new(v.iter().map(|x| x.clone().join_key()).collect()))
            }
            _ => self.clone(),
        }
    }
}

/// A batch of rows in columnar form. Each row is one bag copy.
#[derive(Clone, Debug)]
pub struct ColumnBatch {
    schema: Schema,
    /// Rows: the columns' common length, kept apart so a batch of no
    /// columns still has its rows.
    len: usize,
    columns: Vec<ColumnVec>,
}

impl ColumnBatch {
    /// Assemble a batch of `len` rows (every column must have `len` rows).
    pub fn new(schema: Schema, columns: Vec<ColumnVec>, len: usize) -> ColumnBatch {
        assert_eq!(schema.arity(), columns.len(), "column count mismatch");
        assert!(
            columns.iter().all(|c| c.len() == len),
            "column len mismatch"
        );
        ColumnBatch {
            schema,
            len,
            columns,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
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

    /// Materialize row `i` as a tuple.
    pub fn row(&self, i: usize) -> Tuple {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// The rows at `idx`, the columns through `gather_columns`.
    pub fn gather(&self, idx: &[u32]) -> ColumnBatch {
        ColumnBatch {
            schema: self.schema.clone(),
            len: idx.len(),
            columns: gather_columns(&self.columns, idx),
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
    /// Total row count.
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
        let len = self.num_rows();
        ColumnBatch::new(self.schema, columns, len)
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
/// one scan loop under the plain, UA-encoded and AU-encoded scans.
pub(crate) fn convert_chunks<T: Send>(
    rows: &[Tuple],
    batch_rows: usize,
    pool: &rayon::ThreadPool,
    convert: impl Fn(&[Tuple]) -> T + Sync,
) -> Vec<T> {
    pool.map_in_order(chunk_ranges(rows.len(), batch_rows), |_, (s, e)| {
        convert(&rows[s..e])
    })
}

/// Columns `0..arity` of a row chunk, each in its densest representation.
pub(crate) fn chunk_columns(arity: usize, chunk: &[Tuple]) -> Vec<ColumnVec> {
    (0..arity)
        .map(|c| {
            ColumnVec::from_values(chunk.iter().map(move |r| r.get(c).expect("arity checked")))
        })
        .collect()
}

/// Convert one row chunk into a batch.
pub(crate) fn chunk_to_batch(schema: &Schema, chunk: &[Tuple]) -> ColumnBatch {
    ColumnBatch::new(
        schema.clone(),
        chunk_columns(schema.arity(), chunk),
        chunk.len(),
    )
}

/// Decompose a row table into batches, one batch row per table row.
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
        batches: convert_chunks(table.rows(), batch_rows, pool, |chunk| {
            chunk_to_batch(schema, chunk)
        }),
    }
}

/// [`batches_from_table_pooled`] of a UA-encoded table, after the one
/// marker check both engines share ([`ua_plan::ua::check_encoded`]); the
/// marker stays an ordinary column.
pub fn batches_from_encoded_table_pooled(
    table: &Table,
    name: &str,
    batch_rows: usize,
    pool: &rayon::ThreadPool,
) -> Result<BatchStream, EngineError> {
    ua_plan::ua::check_encoded(table, name)?;
    Ok(batches_from_table_pooled(table, batch_rows, pool))
}

/// Materialize a stream as a row table, one row per batch row.
pub fn table_from_batches(stream: &BatchStream) -> Table {
    table_from_batches_pooled(stream, &inline_pool())
}

/// The most result rows [`table_from_batches_pooled`] materialises on the
/// calling thread.
const INLINE_RESULT_ROWS: usize = 2 * DEFAULT_BATCH_ROWS;

/// [`table_from_batches`] with per-batch row materialization on `pool`
/// (row order unchanged — batches flatten in stream order). Every result
/// comes out of here: a UA stream's marker is its last column, an AU
/// stream's flattened schema is its table schema.
pub fn table_from_batches_pooled(stream: &BatchStream, pool: &rayon::ThreadPool) -> Table {
    let batches: Vec<&ColumnBatch> = stream.batches.iter().collect();
    let materialize = |_, b: &ColumnBatch| batch_rows(b);
    // A result of at most two full morsels' rows is one worker's work
    // however many batches hold it (a point lookup's three near-empty
    // batches): it stays on the calling thread, saving the pool's spawn and
    // join (`exec::INLINE_MORSELS`). Beyond that the rows decide, not the
    // batch count — a row costs ≈ 0.05 µs to materialise, so a 2 048-row
    // result is cheaper inline, 4 096 rows break even and 8 192 repay two
    // threads (six columns, 2 vCPUs).
    let parts: Vec<Vec<Tuple>> = if stream.num_rows() <= INLINE_RESULT_ROWS {
        pool.map_inline(batches, materialize)
    } else {
        pool.map_in_order(batches, materialize)
    };
    let mut rows = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        rows.extend(p);
    }
    Table::from_rows(stream.schema.clone(), rows)
}

/// The rows of one batch, cut from one shared row-major buffer per
/// [`MAX_BUFFER_ROWS`] rows ([`Tuple::cut`]), each buffer filled a column
/// at a time. The row count is the batch's, so a zero-column batch keeps
/// its rows.
fn batch_rows(b: &ColumnBatch) -> Vec<Tuple> {
    let arity = b.columns().len();
    let mut rows = Vec::with_capacity(b.len());
    for start in (0..b.len()).step_by(MAX_BUFFER_ROWS) {
        let n = MAX_BUFFER_ROWS.min(b.len() - start);
        let mut buf: Arc<[Value]> = (0..n * arity).map(|_| Value::Null).collect();
        let values = Arc::get_mut(&mut buf).expect("a new buffer is unshared");
        for (c, col) in b.columns().iter().enumerate() {
            let slots = values.chunks_exact_mut(arity).map(|row| &mut row[c]);
            match col {
                ColumnVec::Int(v) => fill(slots, &v[start..], |x| Value::Int(*x)),
                ColumnVec::Float(v) => fill(slots, &v[start..], |x| Value::Float(*x)),
                ColumnVec::Bool(v) => fill(slots, &v[start..], |x| Value::Bool(*x)),
                ColumnVec::Str(v) => fill(slots, &v[start..], |x| Value::Str(Arc::clone(x))),
                ColumnVec::Mixed(v) => fill(slots, &v[start..], Value::clone),
            }
        }
        rows.extend(Tuple::cut(buf, n));
    }
    rows
}

/// Write `value` of each of `xs` into the next of `slots`.
fn fill<'a, T>(slots: impl Iterator<Item = &'a mut Value>, xs: &[T], value: impl Fn(&T) -> Value) {
    for (slot, x) in slots.zip(xs) {
        *slot = value(x);
    }
}

/// [`table_from_batches_pooled`]: a UA stream carries its marker column
/// already.
pub fn encoded_table_from_batches_pooled(stream: &BatchStream, pool: &rayon::ThreadPool) -> Table {
    table_from_batches_pooled(stream, pool)
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
    fn zero_column_batches_keep_their_rows() {
        let schema = Schema::new(Vec::new());
        let sizes = [3, MAX_BUFFER_ROWS + 500, 0, 700];
        let stream = BatchStream {
            schema: schema.clone(),
            batches: sizes
                .iter()
                .map(|&n| ColumnBatch::new(schema.clone(), Vec::new(), n))
                .collect(),
        };
        let rows: usize = sizes.iter().sum();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        for t in [
            table_from_batches(&stream),
            table_from_batches_pooled(&stream, &pool),
        ] {
            assert_eq!(t.len(), rows);
            assert!(t.rows().iter().all(|r| r.arity() == 0));
        }
    }

    #[test]
    fn wide_batches_materialise_across_buffers() {
        let t = sample_table();
        let stream = batches_from_table(&t, 2 * MAX_BUFFER_ROWS + 1);
        assert_eq!(stream.batches[0].len(), 2 * MAX_BUFFER_ROWS + 1);
        assert_eq!(table_from_batches(&stream), t);
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
    fn encoded_tables_decode_after_the_marker_check() {
        let t = Table::from_rows(
            Schema::qualified("r", ["a"]).with_column(ua_core::UA_LABEL_COLUMN),
            vec![tuple![1i64, 1i64], tuple![2i64, 0i64], tuple![3i64, 1i64]],
        );
        let stream = batches_from_encoded_table_pooled(&t, "r", 2, &inline_pool()).unwrap();
        assert_eq!(stream.schema, *t.schema());
        assert_eq!(table_from_batches(&stream), t);
        assert!(
            batches_from_encoded_table_pooled(&sample_table(), "r", 8, &inline_pool()).is_err()
        );
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
