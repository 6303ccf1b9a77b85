//! **ua-obs** — zero-dependency observability for the UA-DB workspace.
//!
//! Built in the offline-shim style (std only, no crates.io), this crate
//! provides the two layers the engines instrument themselves with:
//!
//! * a process-wide **metrics registry** ([`Registry`], [`global`]) of
//!   named [`Counter`]s, [`Gauge`]s and wall-clock [`Histogram`]s — the
//!   home of cross-query signals like the planner's join-misestimation
//!   counters and the AU executor's per-operator fallback counters;
//! * a per-query **span hierarchy** ([`OperatorStats`]) mirroring the
//!   executed plan tree, carrying rows/batches out, cumulative wall time,
//!   the planner's estimated cardinality next to the actual one, and
//!   free-form `extra` counters (hash-join build/probe split, fallback
//!   markers). [`QueryStats`] wraps the root span together with the
//!   morsel-pool stats ([`PoolStats`]) of a vectorized run.
//!
//! Everything exports to JSON by hand ([`QueryStats::to_json`],
//! [`Registry::to_json`]) — no serde in the workspace.
//!
//! Two further layers ride on the same contract:
//!
//! * **structured tracing** ([`trace`]): a per-thread ring buffer of
//!   begin/end/instant/span events over one query's lifetime, exported as
//!   chrome://tracing / Perfetto JSON ([`to_perfetto_json`]);
//! * **memory accounting** ([`mem`]): per-operator [`MemTracker`]s whose
//!   deterministic byte estimates surface as `mem_bytes` span extras and
//!   roll up into [`QueryStats::peak_mem_bytes`].
//!
//! ## Determinism
//!
//! Instrumentation lives **off the result path**: executors time and count
//! alongside the data they were already producing and return the finished
//! [`QueryStats`] by value next to the result, so query *results* are
//! byte-identical whether collection is on or off — the differential tests
//! assert it.
//! Only the stats themselves (wall times, worker attribution) vary run to
//! run; row counts and tree shape are deterministic.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod mem;
pub mod trace;

pub use mem::{mem_query_active, mem_query_finish, mem_query_start, MemTracker};
pub use trace::{
    to_perfetto_json, trace_active, trace_begin, trace_end, trace_finish, trace_instant,
    trace_ns_of, trace_scope, trace_span_at, trace_start, TraceEvent, TRACE_RING_CAPACITY,
    TRACE_TID_SESSION,
};

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A monotonically increasing counter handle (cheap to clone; all clones
/// share the same cell).
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets a [`Histogram`] tracks (bucket `i` counts
/// samples in `[2^i, 2^(i+1))`, with the first and last buckets open).
pub const HISTOGRAM_BUCKETS: usize = 40;

struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A histogram of `u64` samples (typically wall-clock nanoseconds) over
/// power-of-two buckets. Cheap to clone; clones share the same cells.
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        let idx = (64 - u64::leading_zeros(v.max(1)) as usize - 1).min(HISTOGRAM_BUCKETS - 1);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Per-bucket counts (bucket `i` ≈ samples in `[2^i, 2^(i+1))`).
    pub fn buckets(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named registry of metrics. Handles returned by [`Registry::counter`]
/// etc. stay valid for the registry's lifetime; requesting the same name
/// twice returns handles to the same cell.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::default(), // name collision across kinds: detached handle
        }
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::default(),
        }
    }

    /// Snapshot every metric as `(name, rendered value)` pairs, sorted by
    /// name (counters/gauges as plain numbers; histograms as
    /// `count/sum/max`).
    pub fn snapshot(&self) -> Vec<(String, String)> {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        m.iter()
            .map(|(name, metric)| {
                let rendered = match metric {
                    Metric::Counter(c) => c.get().to_string(),
                    Metric::Gauge(g) => g.get().to_string(),
                    Metric::Histogram(h) => {
                        format!("count={} sum={} max={}", h.count(), h.sum(), h.max())
                    }
                };
                (name.clone(), rendered)
            })
            .collect()
    }

    /// Export every metric as a JSON object keyed by metric name.
    pub fn to_json(&self) -> String {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::from("{");
        let mut first = true;
        for (name, metric) in m.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n  {}: ", json_string(name)));
            match metric {
                Metric::Counter(c) => out.push_str(&c.get().to_string()),
                Metric::Gauge(g) => out.push_str(&g.get().to_string()),
                Metric::Histogram(h) => out.push_str(&format!(
                    "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.1}}}",
                    h.count(),
                    h.sum(),
                    h.max(),
                    h.mean()
                )),
            }
        }
        out.push_str("\n}");
        out
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry both engines report cross-query metrics to
/// (planner misestimation counters, AU fallback counters, …).
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------------
// Per-query span hierarchy
// ---------------------------------------------------------------------------

/// One operator's execution stats — a node in the span hierarchy that
/// mirrors the executed plan (row engine) or pipeline structure
/// (vectorized engine). `wall_ns` is cumulative: it includes the node's
/// children, exactly like a profiler span.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OperatorStats {
    /// Operator kind (`Scan`, `Filter`, `HashJoin`, …).
    pub name: String,
    /// Operator-local detail (predicate, keys, table name) without children.
    pub detail: String,
    /// Rows this operator produced.
    pub rows_out: u64,
    /// Column batches this operator produced (0 on the row engine).
    pub batches_out: u64,
    /// Cumulative wall-clock time, children included.
    pub wall_ns: u64,
    /// The planner's cardinality estimate for this node, when statistics
    /// could produce one (`optimize::estimate_rows`).
    pub est_rows: Option<u64>,
    /// Free-form named counters (`build_rows`, `probe_rows`, `fallback`…).
    pub extra: Vec<(String, u64)>,
    /// Child spans (operator inputs, hash-join build sides).
    pub children: Vec<OperatorStats>,
}

impl OperatorStats {
    /// A fresh span for operator `name` with rendering `detail`.
    pub fn new(name: impl Into<String>, detail: impl Into<String>) -> OperatorStats {
        OperatorStats {
            name: name.into(),
            detail: detail.into(),
            ..OperatorStats::default()
        }
    }

    /// Append a named counter to this span.
    pub fn push_extra(&mut self, key: impl Into<String>, value: u64) {
        self.extra.push((key.into(), value));
    }

    /// Wall time exclusive of children (saturating — clock skew between
    /// parent and child timers cannot underflow).
    pub fn self_ns(&self) -> u64 {
        self.wall_ns
            .saturating_sub(self.children.iter().map(|c| c.wall_ns).sum())
    }

    /// Depth-first walk over the tree (self first).
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a OperatorStats)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }

    /// Render the annotated plan tree, one operator per line:
    ///
    /// ```text
    /// HashJoin[e.dept=d.name; build=right] rows=4 est=4 time=1.2ms (build_rows=2)
    ///   Scan[dept] rows=2 est=2 time=0.1ms
    /// ```
    ///
    /// `include_time` off drops the `time=…` token and any `*_ns` extras
    /// (e.g. a hash join's `build_ns`), the form golden-snapshot tests
    /// compare — everything kept is deterministic.
    pub fn render(&self, include_time: bool) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0, include_time);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize, include_time: bool) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        if !self.detail.is_empty() {
            out.push_str(&format!("[{}]", self.detail));
        }
        out.push_str(&format!(" rows={}", self.rows_out));
        match self.est_rows {
            Some(est) => out.push_str(&format!(" est={est}")),
            None => out.push_str(" est=?"),
        }
        if self.batches_out > 0 {
            out.push_str(&format!(" batches={}", self.batches_out));
        }
        if include_time {
            out.push_str(&format!(" time={}", fmt_ns(self.wall_ns)));
        }
        let extras: Vec<&(String, u64)> = self
            .extra
            .iter()
            .filter(|(k, _)| include_time || !k.ends_with("_ns"))
            .collect();
        if !extras.is_empty() {
            out.push_str(" (");
            for (i, (k, v)) in extras.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{k}={v}"));
            }
            out.push(')');
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1, include_time);
        }
    }

    /// Export this span (and its subtree) as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.json_into(&mut out);
        out
    }

    fn json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"op\": {}, \"detail\": {}, \"rows\": {}, \"batches\": {}, \"wall_ns\": {}",
            json_string(&self.name),
            json_string(&self.detail),
            self.rows_out,
            self.batches_out,
            self.wall_ns
        ));
        if let Some(est) = self.est_rows {
            out.push_str(&format!(", \"est_rows\": {est}"));
        }
        for (k, v) in &self.extra {
            out.push_str(&format!(", {}: {v}", json_string(k)));
        }
        out.push_str(", \"children\": [");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            c.json_into(out);
        }
        out.push_str("]}");
    }
}

/// Morsel-pool stats of one vectorized query (mirrors the rayon shim's
/// per-pool instrumentation).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured worker count.
    pub workers: u64,
    /// Morsels dispatched through the pool.
    pub tasks: u64,
    /// Morsels claimed out of contiguous order — the moments the shared
    /// injector rebalanced work onto an idle worker.
    pub stolen: u64,
    /// Wall time of the parallel sections.
    pub wall_ns: u64,
    /// Time spent in the deterministic batch-index merge after the workers
    /// joined.
    pub merge_ns: u64,
    /// Per-worker busy time (task execution only).
    pub worker_busy_ns: Vec<u64>,
    /// Per-worker task counts.
    pub worker_tasks: Vec<u64>,
    /// Pipeline-breaker build tasks (hash-join partition builds) —
    /// disjoint from `tasks`.
    pub build_tasks: u64,
    /// Wall time of the build-phase parallel sections.
    pub build_wall_ns: u64,
    /// Pool calls (morsel and build phases alike) that spawned worker
    /// threads, each paying a spawn and a join; a call run on the calling
    /// thread counts none.
    pub spawns: u64,
}

impl PoolStats {
    fn to_json(&self) -> String {
        format!(
            "{{\"workers\": {}, \"tasks\": {}, \"stolen\": {}, \"wall_ns\": {}, \
             \"merge_ns\": {}, \"worker_busy_ns\": {:?}, \"worker_tasks\": {:?}, \
             \"build_tasks\": {}, \"build_wall_ns\": {}, \"spawns\": {}}}",
            self.workers,
            self.tasks,
            self.stolen,
            self.wall_ns,
            self.merge_ns,
            self.worker_busy_ns,
            self.worker_tasks,
            self.build_tasks,
            self.build_wall_ns,
            self.spawns
        )
    }
}

/// Everything one query's execution reported: which engine and semantics
/// ran, the operator span tree, and (vectorized runs) the morsel-pool
/// stats.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// `"row"` or `"vectorized"`.
    pub engine: String,
    /// `"det"`, `"ua"` or `"au"`.
    pub semantics: String,
    /// Root of the operator span tree.
    pub root: OperatorStats,
    /// Morsel-pool instrumentation (vectorized runs only).
    pub pool: Option<PoolStats>,
    /// High-water mark of tracked operator-state bytes across the query
    /// (the [`mem`] accumulator's peak) — 0 when memory accounting did not
    /// run or nothing stateful executed. Deterministic: byte figures are
    /// estimated from row/value shape, never read from the allocator.
    pub peak_mem_bytes: u64,
}

impl QueryStats {
    /// Render the annotated tree plus the memory and pool summaries.
    pub fn render(&self, include_time: bool) -> String {
        let mut out = self.root.render(include_time);
        if self.peak_mem_bytes > 0 {
            out.push_str(&format!(
                "memory: query peak={} bytes\n",
                self.peak_mem_bytes
            ));
        }
        if let Some(pool) = &self.pool {
            out.push_str(&format!(
                "morsel pool: workers={} tasks={} stolen={} build_tasks={} spawns={}",
                pool.workers, pool.tasks, pool.stolen, pool.build_tasks, pool.spawns
            ));
            if include_time {
                out.push_str(&format!(
                    " wall={} merge={} build_wall={}",
                    fmt_ns(pool.wall_ns),
                    fmt_ns(pool.merge_ns),
                    fmt_ns(pool.build_wall_ns)
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Export as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"engine\": {}, \"semantics\": {}, \"peak_mem_bytes\": {}, \"plan\": {}",
            json_string(&self.engine),
            json_string(&self.semantics),
            self.peak_mem_bytes,
            self.root.to_json()
        );
        if let Some(pool) = &self.pool {
            out.push_str(&format!(", \"pool\": {}", pool.to_json()));
        }
        out.push('}');
        out
    }
}

// ---------------------------------------------------------------------------
// Small shared helpers
// ---------------------------------------------------------------------------

/// A started wall-clock span timer.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since start (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Default for Stopwatch {
    fn default() -> Stopwatch {
        Stopwatch::start()
    }
}

/// Human-readable duration (`…ns`, `…µs`, `…ms`, `…s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Escape `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
        r.gauge("g").set(-5);
        assert_eq!(r.gauge("g").get(), -5);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let r = Registry::new();
        let h = r.histogram("lat");
        h.record(1);
        h.record(1_000);
        h.record(1_000_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1_001_001);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.buckets().iter().sum::<u64>(), 3);
    }

    #[test]
    fn registry_json_is_well_formed_ish() {
        let r = Registry::new();
        r.counter("a.b").inc();
        r.histogram("h").record(7);
        let json = r.to_json();
        assert!(json.contains("\"a.b\": 1"));
        assert!(json.contains("\"count\": 1"));
    }

    #[test]
    fn span_tree_renders_and_exports() {
        let mut scan = OperatorStats::new("Scan", "emp");
        scan.rows_out = 4;
        scan.est_rows = Some(4);
        let mut filter = OperatorStats::new("Filter", "(salary >= 80)");
        filter.rows_out = 2;
        filter.est_rows = Some(1);
        filter.wall_ns = 1500;
        filter.push_extra("evals", 4);
        filter.children.push(scan);
        let text = filter.render(false);
        assert_eq!(
            text,
            "Filter[(salary >= 80)] rows=2 est=1 (evals=4)\n  Scan[emp] rows=4 est=4\n"
        );
        let timed = filter.render(true);
        assert!(timed.contains("time="));
        let json = filter.to_json();
        assert!(json.contains("\"op\": \"Filter\""));
        assert!(json.contains("\"children\": [{\"op\": \"Scan\""));
        assert!(json.contains("\"evals\": 4"));
    }

    #[test]
    fn self_ns_subtracts_children() {
        let mut parent = OperatorStats::new("Sort", "");
        parent.wall_ns = 100;
        let mut child = OperatorStats::new("Scan", "t");
        child.wall_ns = 30;
        parent.children.push(child);
        assert_eq!(parent.self_ns(), 70);
    }

    #[test]
    fn query_stats_json_includes_pool() {
        let stats = QueryStats {
            engine: "vectorized".into(),
            semantics: "ua".into(),
            root: OperatorStats::new("Scan", "t"),
            pool: Some(PoolStats {
                workers: 4,
                tasks: 16,
                stolen: 3,
                wall_ns: 1000,
                merge_ns: 10,
                worker_busy_ns: vec![1, 2, 3, 4],
                worker_tasks: vec![4, 4, 4, 4],
                build_tasks: 2,
                build_wall_ns: 200,
                spawns: 5,
            }),
            peak_mem_bytes: 4096,
        };
        let json = stats.to_json();
        assert!(json.contains("\"peak_mem_bytes\": 4096"));
        assert!(json.contains("\"pool\": {\"workers\": 4"));
        assert!(json.contains("\"stolen\": 3"));
        assert!(json.contains("\"build_tasks\": 2"));
        assert!(json.contains("\"build_wall_ns\": 200"));
        let text = stats.render(true);
        assert!(text.contains("memory: query peak=4096 bytes"));
        assert!(text.contains("morsel pool: workers=4 tasks=16 stolen=3"));
        assert!(text.contains("build_tasks=2"));
        assert!(json.contains("\"spawns\": 5"));
        assert!(text.contains("spawns=5"));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_100_000_000), "3.10s");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
