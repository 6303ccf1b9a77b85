//! Row-oriented bag storage: tables and the catalog.
//!
//! The engine stores relations the way classical RDBMSes do — as row
//! sequences where a tuple with multiplicity `n` appears as `n` row copies
//! (exactly the representation the paper's Section 9 encoding targets).
//! [`Table`] converts losslessly to and from the annotation-map
//! representation (`Relation<u64>`), which is how the engine interoperates
//! with the K-relation layer and with `Enc`/`Enc⁻¹`.
//!
//! Beside each table's rows the [`Catalog`] keeps what has been computed
//! from them, all under one registration-generation tag: its statistics,
//! the column chunks the vectorized engine decoded from it
//! ([`Catalog::chunks_of`] — a scan transposes and validates a table once,
//! not once per query) and the tables derived from it
//! ([`Catalog::derive`]). The rows stay the source of truth and what the
//! row engine reads.

use crate::options::Semantics;
use parking_lot::RwLock;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;
use ua_data::relation::Relation;
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_data::FxHashSet;

/// A materialized bag of rows. The rows sit behind an `Arc`, so a clone
/// — the row engine's scan of a registered table — is O(1), and
/// [`Table::push`] copies them first only while they are shared.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    schema: Schema,
    rows: Arc<Vec<Tuple>>,
}

impl Table {
    /// An empty table.
    pub fn new(schema: Schema) -> Table {
        Table {
            schema,
            rows: Arc::new(Vec::new()),
        }
    }

    /// A table from rows.
    ///
    /// # Panics
    /// Panics when a row's arity differs from the schema's.
    pub fn from_rows(schema: Schema, rows: Vec<Tuple>) -> Table {
        // One branchy pass instead of per-row assert_eq! formatting setup;
        // the vector itself is taken by value, so no copy happens here.
        let arity = schema.arity();
        if let Some(bad) = rows.iter().find(|r| r.arity() != arity) {
            panic!(
                "row arity mismatch: row has {} columns, schema has {arity}",
                bad.arity()
            );
        }
        Table {
            schema,
            rows: Arc::new(rows),
        }
    }

    /// Convert from the annotation-map representation: a tuple with
    /// multiplicity `n` becomes `n` row copies.
    pub fn from_relation(rel: &Relation<u64>) -> Table {
        // Pre-size with the summed multiplicities: the reallocation churn of
        // a growing Vec dominated this conversion on large bag relations.
        let total: u64 = rel.iter().map(|(_, &n)| n).sum();
        let mut rows = Vec::with_capacity(usize::try_from(total).unwrap_or(0));
        for (t, &n) in rel.iter() {
            // A `Tuple` is an `Arc` handle, so each copy is a refcount bump,
            // not a deep clone of the row's values.
            rows.extend(std::iter::repeat_n(t.clone(), n as usize));
        }
        // Deterministic row order independent of hash-map iteration. The
        // sort key is total and copies are indistinguishable, so the
        // unstable sort is deterministic here and avoids stable sort's
        // allocation.
        rows.sort_unstable();
        Table {
            schema: rel.schema().clone(),
            rows: Arc::new(rows),
        }
    }

    /// Convert to the annotation-map representation (row copies collapse to
    /// multiplicities).
    pub fn to_relation(&self) -> Relation<u64> {
        Relation::from_tuples(self.schema.clone(), self.rows.iter().cloned())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Replace the schema (e.g. re-qualification).
    ///
    /// # Panics
    /// Panics when the arity changes.
    pub fn with_schema(mut self, schema: Schema) -> Table {
        assert_eq!(self.schema.arity(), schema.arity(), "arity must not change");
        self.schema = schema;
        self
    }

    /// The rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn push(&mut self, row: Tuple) {
        assert_eq!(row.arity(), self.schema.arity(), "row arity mismatch");
        Arc::make_mut(&mut self.rows).push(row);
    }

    /// Number of rows (bag cardinality).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows in deterministic (structural) order — for stable test output.
    pub fn sorted_rows(&self) -> Vec<Tuple> {
        let mut rows = self.rows.to_vec();
        rows.sort();
        rows
    }
}

/// Number of buckets in an equi-width [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 32;

/// An equi-width histogram over a numeric column's non-null values.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Smallest observed value.
    pub lo: f64,
    /// Largest observed value.
    pub hi: f64,
    /// Per-bucket value counts over `[lo, hi]` split into
    /// [`HISTOGRAM_BUCKETS`] equal-width ranges (the last bucket is
    /// closed on both ends).
    pub buckets: Vec<u64>,
    /// Total number of bucketed (numeric, non-null) values.
    pub total: u64,
}

impl Histogram {
    /// Estimated fraction of values `< v` (`inclusive` makes it `<= v`),
    /// assuming uniform distribution within a bucket.
    pub fn fraction_below(&self, v: f64, inclusive: bool) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if v < self.lo || (v == self.lo && !inclusive) {
            return 0.0;
        }
        if v > self.hi || (v == self.hi && inclusive) {
            return 1.0;
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        if width <= 0.0 {
            // Single-point histogram: lo == hi == v here.
            return if inclusive { 1.0 } else { 0.0 };
        }
        let pos = (v - self.lo) / width;
        let idx = (pos as usize).min(self.buckets.len() - 1);
        let below: u64 = self.buckets[..idx].iter().sum();
        let frac_in_bucket = pos - idx as f64;
        (below as f64 + self.buckets[idx] as f64 * frac_in_bucket) / self.total as f64
    }
}

/// Per-column statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct values (join-key-normalized, so `2` and `2.0`
    /// count once — matching SQL's coercing `=`).
    pub distinct: u64,
    /// Number of SQL-null / labeled-null values.
    pub nulls: u64,
    /// Equi-width histogram, present iff every non-null value is numeric.
    pub histogram: Option<Histogram>,
}

/// Per-table statistics: row count plus per-column distinct counts and
/// histograms. Collected on catalog registration (load/insert) and
/// refreshable via [`Catalog::analyze`]; the optimizer's selectivity and
/// join-ordering estimates read them through [`Catalog::stats_of`].
#[derive(Clone, Debug, PartialEq)]
pub struct TableStats {
    /// Bag cardinality (row copies).
    pub rows: u64,
    /// One entry per schema column, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Scan `table` once per column and collect statistics.
    pub fn collect(table: &Table) -> TableStats {
        let rows = table.rows();
        let columns = (0..table.schema().arity())
            .map(|c| {
                let mut seen: FxHashSet<Value> = FxHashSet::default();
                let mut nulls = 0u64;
                let mut numeric = true;
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for row in rows {
                    let v = row.get(c).expect("arity checked");
                    if v.is_unknown() {
                        nulls += 1;
                        continue;
                    }
                    seen.insert(v.clone().join_key());
                    match v.as_f64() {
                        Some(x) => {
                            lo = lo.min(x);
                            hi = hi.max(x);
                        }
                        None => numeric = false,
                    }
                }
                let histogram = if numeric && lo <= hi {
                    let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
                    let width = (hi - lo) / HISTOGRAM_BUCKETS as f64;
                    let mut total = 0u64;
                    for row in rows {
                        let v = row.get(c).expect("arity checked");
                        if let Some(x) = v.as_f64() {
                            let idx = if width > 0.0 {
                                (((x - lo) / width) as usize).min(HISTOGRAM_BUCKETS - 1)
                            } else {
                                0
                            };
                            buckets[idx] += 1;
                            total += 1;
                        }
                    }
                    Some(Histogram {
                        lo,
                        hi,
                        buckets,
                        total,
                    })
                } else {
                    None
                };
                ColumnStats {
                    distinct: seen.len() as u64,
                    nulls,
                    histogram,
                }
            })
            .collect();
        TableStats {
            rows: rows.len() as u64,
            columns,
        }
    }
}

/// A table's decoded column chunks as the catalog holds them: opaque,
/// because the columnar types live above this crate. The vectorized scan is
/// the store's one writer and one reader and downcasts to its own stream
/// type.
pub type Chunks = Arc<dyn Any + Send + Sync>;

/// One resident decoded copy of a table under one encoding.
struct ChunkEntry {
    /// Registration generation of the table the chunks were decoded from.
    generation: u64,
    /// Rows per chunk; a scan at another batch size rebuilds the entry.
    batch_rows: usize,
    /// Resident buffer bytes, as the builder reported them.
    bytes: u64,
    chunks: Chunks,
}

/// A shared, thread-safe catalog of named tables, with per-table statistics
/// and the decoded column chunks of the tables the vectorized engine has
/// scanned.
#[derive(Default)]
pub struct Catalog {
    /// Tables, each tagged with the registration generation that produced
    /// it (a catalog-wide monotonic counter — unforgeable, unlike a raw
    /// `Arc` address, which the allocator could reuse).
    tables: RwLock<BTreeMap<String, (u64, Arc<Table>)>>,
    /// Stats cache, keyed by table name and tagged with the generation of
    /// the table they were collected from — [`Catalog::stats_of`] validates
    /// the tag against the live store, so a replaced table never serves a
    /// stale snapshot, even under racing registrations.
    stats: RwLock<BTreeMap<String, (u64, Arc<TableStats>)>>,
    /// The chunk store ([`Catalog::chunks_of`]): per table at most one
    /// entry per encoding (slot `Semantics as usize`), under the same
    /// generation tag as `stats`.
    chunks: RwLock<BTreeMap<String, [Option<ChunkEntry>; 3]>>,
    /// Derived tables ([`Catalog::derive`]): derived name → the base table
    /// and the base's generation the derivation read.
    derived: RwLock<BTreeMap<String, (String, u64)>>,
    generation: std::sync::atomic::AtomicU64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    fn next_generation(&self) -> u64 {
        self.generation
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Register (or replace) a table. For a *new* table, statistics are
    /// collected immediately (the "on load" collection point). Replacing
    /// an existing table leaves the previous snapshot in place instead:
    /// the next [`Catalog::stats_of`] detects the generation mismatch,
    /// recollects on the spot, and counts the event on the
    /// `stats.staleness` counter — the planner-feedback signal that stale
    /// statistics were consumed (an explicit [`Catalog::analyze`] after
    /// bulk replacement keeps the counter quiet).
    ///
    /// The table's decoded chunks are evicted either way: the chunk store
    /// holds copies of live tables only.
    pub fn register(&self, name: impl Into<String>, table: Table) {
        let name = name.into();
        let generation = self.next_generation();
        let table = Arc::new(table);
        if !self.tables.read().contains_key(&name) {
            let stats = Arc::new(TableStats::collect(&table));
            self.stats.write().insert(name.clone(), (generation, stats));
        }
        self.tables
            .write()
            .insert(name.clone(), (generation, table));
        self.chunks.write().remove(&name);
        self.publish_catalog_gauges();
    }

    /// Publish the catalog's size as the `catalog.tables` / `catalog.rows`
    /// gauges — the planner-feedback signals alongside `stats.staleness` —
    /// and the chunk store's as `catalog.chunk_bytes`.
    fn publish_catalog_gauges(&self) {
        let tables = self.tables.read();
        let rows: u64 = tables.values().map(|(_, t)| t.len() as u64).sum();
        let chunks = self.chunks.read();
        let chunk_bytes: u64 = chunks.values().flatten().flatten().map(|e| e.bytes).sum();
        let registry = ua_obs::global();
        registry
            .gauge("catalog.tables")
            .set(i64::try_from(tables.len()).unwrap_or(i64::MAX));
        registry
            .gauge("catalog.rows")
            .set(i64::try_from(rows).unwrap_or(i64::MAX));
        registry
            .gauge("catalog.chunk_bytes")
            .set(i64::try_from(chunk_bytes).unwrap_or(i64::MAX));
    }

    /// Fetch a table by name.
    pub fn get(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.read().get(name).map(|(_, t)| Arc::clone(t))
    }

    /// The live table under `name` with its registration generation.
    fn live(&self, name: &str) -> Option<(u64, Arc<Table>)> {
        let tables = self.tables.read();
        let (generation, table) = tables.get(name)?;
        Some((*generation, Arc::clone(table)))
    }

    /// The chunk store: the decoded column chunks of table `name` under
    /// `encoding` (`Det`: plain, which a UA-encoded table scans as too;
    /// `Au`: flattened canonical) at `batch_rows` rows per chunk, or `None`
    /// for an unknown table. The `Ua` entry holds no chunks: it is the
    /// empty token `⟦·⟧_UA`'s rewriting leaves once the table's markers
    /// passed [`crate::ua::check_encoded`], so that check also runs once
    /// per registration.
    ///
    /// The first scan that asks decodes the live table with `build`, which
    /// returns the chunks and their resident bytes; every later scan gets
    /// the same [`Chunks`] back. A hit is validated against the live
    /// table's registration generation exactly as [`Catalog::stats_of`]
    /// does, and [`Catalog::register`] / [`Catalog::drop_table`] evict, so
    /// a replaced or dropped table never serves old chunks. There is one
    /// entry per (table, encoding): a scan at another `batch_rows`
    /// rebuilds and replaces it. A failed `build` stores nothing, so a
    /// malformed table reports its error on every query. Two scans racing
    /// on a cold entry both build; the streams are equal and the later
    /// insert wins.
    pub fn chunks_of<E>(
        &self,
        name: &str,
        encoding: Semantics,
        batch_rows: usize,
        build: impl FnOnce(&Table) -> Result<(Chunks, u64), E>,
    ) -> Result<Option<Chunks>, E> {
        let Some((generation, table)) = self.live(name) else {
            return Ok(None);
        };
        let slot = encoding as usize;
        if let Some(entry) = self.chunks.read().get(name).and_then(|e| e[slot].as_ref()) {
            if entry.generation == generation && entry.batch_rows == batch_rows {
                return Ok(Some(Arc::clone(&entry.chunks)));
            }
        }
        let (chunks, bytes) = build(&table)?;
        ua_obs::global().counter("catalog.chunks.builds").inc();
        {
            // Insert under the table lock and only while `generation` is
            // still live: `register` / `drop_table` change the table first
            // and evict second, so either their eviction sees this entry
            // or this check sees their change — a dropped or replaced
            // table never keeps a decoded copy behind.
            let tables = self.tables.read();
            if tables
                .get(name)
                .is_some_and(|(live, _)| *live == generation)
            {
                self.chunks.write().entry(name.to_string()).or_default()[slot] = Some(ChunkEntry {
                    generation,
                    batch_rows,
                    bytes,
                    chunks: Arc::clone(&chunks),
                });
            }
        }
        self.publish_catalog_gauges();
        Ok(Some(chunks))
    }

    /// Make sure `derived` holds the table `derive` computes from the live
    /// table `base`; `false` for an unknown `base`. The derivation runs on
    /// first use and again whenever `base` has been re-registered since
    /// (its registration generation moved — the tag `stats` and the chunk
    /// store validate against); [`Catalog::drop_table`] of `base` drops
    /// `derived` with it.
    pub fn derive<E>(
        &self,
        base: &str,
        derived: &str,
        derive: impl FnOnce(&Table) -> Result<Table, E>,
    ) -> Result<bool, E> {
        let Some((generation, table)) = self.live(base) else {
            return Ok(false);
        };
        let current = self
            .derived
            .read()
            .get(derived)
            .is_some_and(|(b, g)| b == base && *g == generation);
        if !(current && self.tables.read().contains_key(derived)) {
            self.register(derived, derive(&table)?);
            self.derived
                .write()
                .insert(derived.to_string(), (base.to_string(), generation));
        }
        Ok(true)
    }

    /// Statistics for a table, collected from the *live* store: a cached
    /// snapshot is served only while it still describes the currently
    /// registered table; otherwise stats are recollected on the spot.
    pub fn stats_of(&self, name: &str) -> Option<Arc<TableStats>> {
        let (generation, table) = self.live(name)?;
        if let Some((cached, stats)) = self.stats.read().get(name) {
            if *cached == generation {
                return Some(Arc::clone(stats));
            }
        }
        // The cached snapshot described a replaced table: count the
        // staleness event (the `stats.staleness` counter the observability
        // docs' planner-feedback section reads) and recollect.
        ua_obs::global().counter("stats.staleness").inc();
        let stats = Arc::new(TableStats::collect(&table));
        self.stats
            .write()
            .insert(name.to_string(), (generation, Arc::clone(&stats)));
        Some(stats)
    }

    /// `ANALYZE`-style refresh: recollect a table's statistics from the live
    /// store unconditionally. Returns the fresh stats, or `None` for an
    /// unknown table.
    pub fn analyze(&self, name: &str) -> Option<Arc<TableStats>> {
        let (generation, table) = self.live(name)?;
        let stats = Arc::new(TableStats::collect(&table));
        self.stats
            .write()
            .insert(name.to_string(), (generation, Arc::clone(&stats)));
        Some(stats)
    }

    /// The schema of a table.
    pub fn schema_of(&self, name: &str) -> Option<Schema> {
        self.tables
            .read()
            .get(name)
            .map(|(_, t)| t.schema().clone())
    }

    /// Drop a table — with its statistics, its decoded chunks and every
    /// table [derived](Catalog::derive) from it; returns whether it existed.
    pub fn drop_table(&self, name: &str) -> bool {
        self.stats.write().remove(name);
        let existed = self.tables.write().remove(name).is_some();
        self.chunks.write().remove(name);
        let dependents: Vec<String> = {
            let mut derived = self.derived.write();
            derived.remove(name);
            let names = derived.iter().filter(|(_, (base, _))| base == name);
            names.map(|(d, _)| d.clone()).collect()
        };
        for dependent in dependents {
            self.drop_table(&dependent);
        }
        if existed {
            self.publish_catalog_gauges();
        }
        existed
    }

    /// Names of all registered tables.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ua_data::tuple;

    #[test]
    fn row_relation_round_trip() {
        let schema = Schema::qualified("r", ["a"]);
        let table = Table::from_rows(schema, vec![tuple![1i64], tuple![1i64], tuple![2i64]]);
        let rel = table.to_relation();
        assert_eq!(rel.annotation(&tuple![1i64]), 2);
        let back = Table::from_relation(&rel);
        assert_eq!(back.sorted_rows(), table.sorted_rows());
    }

    #[test]
    fn catalog_basics() {
        let catalog = Catalog::new();
        let schema = Schema::qualified("r", ["a"]);
        catalog.register("r", Table::from_rows(schema.clone(), vec![tuple![1i64]]));
        assert_eq!(catalog.get("r").unwrap().len(), 1);
        assert_eq!(catalog.schema_of("r"), Some(schema));
        assert_eq!(catalog.table_names(), vec!["r".to_string()]);
        assert!(catalog.drop_table("r"));
        assert!(!catalog.drop_table("r"));
        assert!(catalog.get("r").is_none());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new(Schema::qualified("r", ["a", "b"]));
        t.push(tuple![1i64]);
    }

    #[test]
    fn stats_collected_on_register() {
        let catalog = Catalog::new();
        catalog.register(
            "r",
            Table::from_rows(
                Schema::qualified("r", ["a", "s"]),
                vec![
                    tuple![1i64, "x"],
                    tuple![1i64, "y"],
                    tuple![5i64, "x"],
                    tuple![9i64, "z"],
                ],
            ),
        );
        let stats = catalog.stats_of("r").unwrap();
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.columns[0].distinct, 3);
        assert_eq!(stats.columns[1].distinct, 3);
        let h = stats.columns[0].histogram.as_ref().unwrap();
        assert_eq!((h.lo, h.hi, h.total), (1.0, 9.0, 4));
        assert!(
            stats.columns[1].histogram.is_none(),
            "string column has no histogram"
        );
        assert!(catalog.stats_of("nope").is_none());
    }

    #[test]
    fn histogram_fractions_interpolate() {
        let t = Table::from_rows(
            Schema::qualified("r", ["a"]),
            (0..100i64).map(|i| tuple![i]).collect(),
        );
        let stats = TableStats::collect(&t);
        let h = stats.columns[0].histogram.as_ref().unwrap();
        assert_eq!(h.fraction_below(0.0, false), 0.0);
        assert_eq!(h.fraction_below(99.0, true), 1.0);
        let quarter = h.fraction_below(25.0, false);
        assert!(
            (quarter - 0.25).abs() < 0.05,
            "expected ~0.25, got {quarter}"
        );
    }

    #[test]
    fn distinct_counts_coerce_like_join_keys() {
        // 2 and 2.0 join under SQL `=`; the distinct count agrees.
        let t = Table::from_rows(
            Schema::qualified("r", ["a"]),
            vec![tuple![2i64], tuple![2.0], tuple![3i64]],
        );
        assert_eq!(TableStats::collect(&t).columns[0].distinct, 2);
    }

    #[test]
    fn stats_track_the_live_store() {
        // Replacing a table must not serve the old snapshot; `analyze`
        // refreshes explicitly.
        let catalog = Catalog::new();
        let schema = Schema::qualified("r", ["a"]);
        catalog.register("r", Table::from_rows(schema.clone(), vec![tuple![1i64]]));
        assert_eq!(catalog.stats_of("r").unwrap().rows, 1);
        catalog.register(
            "r",
            Table::from_rows(schema, vec![tuple![1i64], tuple![2i64], tuple![3i64]]),
        );
        assert_eq!(catalog.stats_of("r").unwrap().rows, 3);
        assert_eq!(catalog.analyze("r").unwrap().rows, 3);
        catalog.drop_table("r");
        assert!(catalog.stats_of("r").is_none());
    }

    #[test]
    fn nulls_are_counted_not_bucketed() {
        use ua_data::value::Value;
        let t = Table::from_rows(
            Schema::qualified("r", ["a"]),
            vec![
                tuple![1i64],
                Tuple::new(vec![Value::Null]),
                Tuple::new(vec![Value::Null]),
            ],
        );
        let stats = TableStats::collect(&t);
        assert_eq!(stats.columns[0].nulls, 2);
        assert_eq!(stats.columns[0].distinct, 1);
        assert_eq!(stats.columns[0].histogram.as_ref().unwrap().total, 1);
    }
}
