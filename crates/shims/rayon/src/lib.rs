//! Offline stand-in for `rayon`.
//!
//! The build environment has no crates.io access, so this crate exposes the
//! small API subset the workspace's morsel-driven pipelines use: a
//! [`ThreadPoolBuilder`]/[`ThreadPool`] pair and an order-preserving
//! parallel map ([`ThreadPool::map_in_order`]).
//!
//! Work distribution is a single shared injector queue (an atomic cursor
//! over the item list) drained by scoped worker threads — idle workers
//! "steal" the next unclaimed item, so load balances like rayon's deque
//! stealing for the coarse, similarly-sized morsels this workspace feeds
//! it. Results are reassembled **by item index**, which is what makes the
//! parallel output of a deterministic per-item function byte-identical to
//! a serial run — the determinism contract `ua-vecexec`'s differential
//! tests assert.

#![deny(unsafe_code)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One executed task, timestamped with the wall clock. Recorded only when
/// span recording is on ([`ThreadPool::set_spans_recorded`]); callers map
/// the `Instant`s onto their own trace epoch (this shim mirrors the real
/// `rayon` API and takes no workspace dependencies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskSpan {
    /// Worker that executed the task.
    pub worker: usize,
    /// Item index within the `map_in_order`/`map_build` call.
    pub index: usize,
    /// `true` when the task ran under [`ThreadPool::map_build`].
    pub build: bool,
    /// When the task started executing.
    pub start: Instant,
    /// When the task finished.
    pub end: Instant,
}

/// Instrumentation accumulated across [`ThreadPool::map_in_order`] calls
/// while the pool is instrumented ([`ThreadPool::set_instrumented`]).
/// Self-contained (this shim mirrors the real `rayon` API and takes no
/// workspace dependencies); callers convert it to their own stats types.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Configured worker count.
    pub workers: usize,
    /// Morsels dispatched.
    pub tasks: u64,
    /// Tasks claimed out of a contiguous run: index-order transitions
    /// between claiming workers beyond the `used_workers - 1` a perfectly
    /// chunked schedule would show. A proxy for work-stealing churn — 0
    /// when every worker drains a contiguous range.
    pub stolen: u64,
    /// Wall-clock time inside `map_in_order` (all calls summed).
    pub wall_ns: u64,
    /// Time spent in the deterministic index-order merge of results.
    pub merge_ns: u64,
    /// Per-worker time spent executing tasks.
    pub worker_busy_ns: Vec<u64>,
    /// Per-worker tasks executed.
    pub worker_tasks: Vec<u64>,
    /// Tasks dispatched by [`ThreadPool::map_build`] (pipeline-breaker
    /// build phases: hash-join partition builds). Disjoint from `tasks`.
    pub build_tasks: u64,
    /// Wall-clock time inside `map_build` (all calls summed).
    pub build_wall_ns: u64,
    /// Calls (`map_in_order` and `map_build` alike) that spawned worker
    /// threads — each pays a spawn and a join; a call over at most one
    /// item, or through [`ThreadPool::map_inline`], spawns none.
    pub spawns: u64,
    /// Per-task execution spans, in item-index order per call. Empty
    /// unless span recording is on ([`ThreadPool::set_spans_recorded`]).
    pub spans: Vec<TaskSpan>,
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type of [`ThreadPoolBuilder::build`] (the shim never fails; the
/// type exists for API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// A fresh builder (0 threads = use available parallelism).
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Set the number of worker threads; `0` resolves to the machine's
    /// available parallelism at build time.
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.num_threads
        };
        Ok(ThreadPool {
            num_threads: n,
            instrument: AtomicBool::new(false),
            record_spans: AtomicBool::new(false),
            metrics: Mutex::new(PoolMetrics::default()),
        })
    }
}

/// A pool of `num_threads` workers. Threads are scoped per call (spawned on
/// demand, joined before returning), which keeps the shim `unsafe`-free and
/// leak-proof. A spawn and a join cost a hundred microseconds or more, so a
/// caller with a handful of small items uses [`ThreadPool::map_inline`].
pub struct ThreadPool {
    num_threads: usize,
    /// Off by default: instrumentation costs two clock reads per task.
    instrument: AtomicBool,
    /// Off by default: span recording additionally retains two `Instant`s
    /// per task. Only consulted while instrumented.
    record_spans: AtomicBool,
    metrics: Mutex<PoolMetrics>,
}

impl ThreadPool {
    /// The configured worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Turn per-task instrumentation on or off (off by default). The
    /// setting is read once per [`ThreadPool::map_in_order`] call; it never
    /// affects results, only whether [`ThreadPool::take_metrics`] has
    /// anything to report.
    pub fn set_instrumented(&self, on: bool) {
        self.instrument.store(on, Ordering::Relaxed);
    }

    /// Turn per-task span recording on or off (off by default). Spans are
    /// only collected while the pool is *also* instrumented
    /// ([`ThreadPool::set_instrumented`]); they feed trace export and, like
    /// all instrumentation here, never affect results.
    pub fn set_spans_recorded(&self, on: bool) {
        self.record_spans.store(on, Ordering::Relaxed);
    }

    /// Whether per-task span recording is currently on.
    pub fn spans_recorded(&self) -> bool {
        self.record_spans.load(Ordering::Relaxed)
    }

    /// Snapshot the accumulated [`PoolMetrics`] and reset them to zero.
    pub fn take_metrics(&self) -> PoolMetrics {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut m)
    }

    /// Drain only the recorded task spans, leaving the numeric metrics
    /// accumulating — trace export consumes spans independently of the
    /// stats snapshot.
    pub fn take_spans(&self) -> Vec<TaskSpan> {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut m.spans)
    }

    /// Run `f` "inside" the pool (compatibility shim — the closure simply
    /// runs on the calling thread; parallelism comes from
    /// [`ThreadPool::map_in_order`]).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Apply `f` to every item concurrently and return the results **in
    /// item order** — `map_in_order(v, f)[i] == f(i, v[i])` regardless of
    /// thread count or scheduling. Panics in `f` propagate to the caller.
    pub fn map_in_order<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.map_phase(items, f, false, self.num_threads)
    }

    /// [`ThreadPool::map_in_order`] on the calling thread, whatever the
    /// pool's worker count: no thread is spawned, and the call is accounted
    /// (tasks, wall time, spans) exactly as a one-worker pool accounts it.
    /// For callers that know their items are too few or too small to repay
    /// a spawn and a join.
    pub fn map_inline<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.map_phase(items, f, false, 1)
    }

    /// [`ThreadPool::map_in_order`] accounted to the *build* phase —
    /// pipeline-breaker work (hash-join partition builds, aggregation
    /// partition folds) lands in `build_tasks`/`build_wall_ns` so stats
    /// separate streaming morsels from breaker construction. Semantics are
    /// otherwise identical.
    pub fn map_build<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.map_phase(items, f, true, self.num_threads)
    }

    fn map_phase<T, R, F>(&self, items: Vec<T>, f: F, build: bool, workers: usize) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let instrument = self.instrument.load(Ordering::Relaxed);
        let record_spans = instrument && self.record_spans.load(Ordering::Relaxed);
        let wall = if instrument {
            Some(Instant::now())
        } else {
            None
        };
        let threads = workers.min(n);
        if threads <= 1 {
            let mut spans: Vec<TaskSpan> = Vec::new();
            let out: Vec<R> = items
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    if record_spans {
                        let start = Instant::now();
                        let r = f(i, t);
                        spans.push(TaskSpan {
                            worker: 0,
                            index: i,
                            build,
                            start,
                            end: Instant::now(),
                        });
                        r
                    } else {
                        f(i, t)
                    }
                })
                .collect();
            if let Some(start) = wall {
                let ns = start.elapsed().as_nanos() as u64;
                self.record(
                    n as u64,
                    0,
                    ns,
                    0,
                    &[(0, ns, n as u64)],
                    spans,
                    build,
                    false,
                );
            }
            return out;
        }
        // Shared injector: each slot is claimed exactly once via the atomic
        // cursor; the mutex per slot only hands the owned item across the
        // thread boundary (never contended — the cursor serializes claims).
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let cursor = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, usize, R)>> = Mutex::new(Vec::with_capacity(n));
        let worker_stats: Mutex<Vec<(usize, u64, u64)>> = Mutex::new(Vec::new());
        let task_spans: Mutex<Vec<TaskSpan>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..threads {
                let (f, slots, cursor, collected, worker_stats, task_spans) =
                    (&f, &slots, &cursor, &collected, &worker_stats, &task_spans);
                scope.spawn(move || {
                    let mut local: Vec<(usize, usize, R)> = Vec::new();
                    let mut local_spans: Vec<TaskSpan> = Vec::new();
                    let mut busy_ns = 0u64;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .take()
                            .expect("slot claimed once");
                        let task_start = if instrument {
                            Some(Instant::now())
                        } else {
                            None
                        };
                        local.push((i, w, f(i, item)));
                        if let Some(start) = task_start {
                            busy_ns += start.elapsed().as_nanos() as u64;
                            if record_spans {
                                local_spans.push(TaskSpan {
                                    worker: w,
                                    index: i,
                                    build,
                                    start,
                                    end: Instant::now(),
                                });
                            }
                        }
                    }
                    if instrument {
                        worker_stats
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push((w, busy_ns, local.len() as u64));
                    }
                    if !local_spans.is_empty() {
                        task_spans
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .extend(local_spans);
                    }
                    collected
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .extend(local);
                });
            }
        });
        // Deterministic merge: scatter by index, then read out in order.
        let merge_start = if instrument {
            Some(Instant::now())
        } else {
            None
        };
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut owner: Vec<usize> = vec![0; n];
        for (i, w, r) in collected.into_inner().unwrap_or_else(|e| e.into_inner()) {
            owner[i] = w;
            out[i] = Some(r);
        }
        let out: Vec<R> = out
            .into_iter()
            .map(|r| r.expect("every index produced"))
            .collect();
        if let (Some(wall_start), Some(merge_start)) = (wall, merge_start) {
            let merge_ns = merge_start.elapsed().as_nanos() as u64;
            let per_worker = worker_stats.into_inner().unwrap_or_else(|e| e.into_inner());
            // "Stolen" = claims breaking a contiguous run: index-order
            // owner transitions beyond the used_workers - 1 a perfectly
            // chunked schedule would produce.
            let used = per_worker.iter().filter(|(_, _, t)| *t > 0).count() as u64;
            let transitions = owner.windows(2).filter(|w| w[0] != w[1]).count() as u64;
            let stolen = transitions.saturating_sub(used.saturating_sub(1));
            let mut spans = task_spans.into_inner().unwrap_or_else(|e| e.into_inner());
            spans.sort_by_key(|s| s.index);
            self.record(
                n as u64,
                stolen,
                wall_start.elapsed().as_nanos() as u64,
                merge_ns,
                &per_worker,
                spans,
                build,
                true,
            );
        }
        out
    }

    /// Fold one instrumented `map_in_order` / `map_build` call into the
    /// accumulated metrics; `spawned`: it ran on spawned workers.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        tasks: u64,
        stolen: u64,
        wall_ns: u64,
        merge_ns: u64,
        per_worker: &[(usize, u64, u64)],
        spans: Vec<TaskSpan>,
        build: bool,
        spawned: bool,
    ) {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        m.workers = self.num_threads;
        m.spawns += u64::from(spawned);
        if build {
            m.build_tasks += tasks;
            m.build_wall_ns += wall_ns;
        } else {
            m.tasks += tasks;
            m.wall_ns += wall_ns;
        }
        m.stolen += stolen;
        m.merge_ns += merge_ns;
        if m.worker_busy_ns.len() < self.num_threads {
            m.worker_busy_ns.resize(self.num_threads, 0);
            m.worker_tasks.resize(self.num_threads, 0);
        }
        for &(w, busy, t) in per_worker {
            m.worker_busy_ns[w] += busy;
            m.worker_tasks[w] += t;
        }
        m.spans.extend(spans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn map_preserves_order_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = pool(threads).map_in_order(items.clone(), |_, x| x * x);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let got = pool(4).map_in_order(vec!["a", "b", "c"], |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(pool(8).map_in_order(empty, |_, x| x).is_empty());
        assert_eq!(pool(8).map_in_order(vec![5], |_, x| x + 1), vec![6]);
    }

    #[test]
    fn map_inline_is_the_one_worker_path_of_any_pool() {
        let items: Vec<u64> = (0..5).collect();
        let p = pool(4);
        p.set_instrumented(true);
        p.set_spans_recorded(true);
        let caller = std::thread::current().id();
        let got = p.map_inline(items.clone(), |i, x| {
            assert_eq!(std::thread::current().id(), caller, "no thread is spawned");
            x + i as u64
        });
        assert_eq!(got, p.map_in_order(items, |i, x| x + i as u64));
        let m = p.take_metrics();
        assert_eq!((m.workers, m.tasks), (4, 10));
        assert_eq!(m.spans.len(), 10);
        assert!(m.spans[..5].iter().all(|s| s.worker == 0 && !s.build));
    }

    #[test]
    fn spawns_count_the_calls_that_started_workers() {
        let p = pool(2);
        p.set_instrumented(true);
        p.map_inline((0..8).collect::<Vec<u64>>(), |_, x| x);
        p.map_in_order(vec![1u64], |_, x| x);
        assert_eq!(p.take_metrics().spawns, 0, "inline and one-item maps");
        p.map_in_order((0..8).collect::<Vec<u64>>(), |_, x| x);
        let m = p.take_metrics();
        assert_eq!((m.spawns, m.tasks), (1, 8), "one 2-thread map of 8 items");
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let p = ThreadPoolBuilder::new().build().unwrap();
        assert!(p.current_num_threads() >= 1);
        assert_eq!(p.install(|| 42), 42);
    }

    #[test]
    fn instrumented_pool_accumulates_metrics_without_changing_results() {
        let items: Vec<u64> = (0..64).collect();
        let expected: Vec<u64> = items.iter().map(|x| x + 1).collect();
        for threads in [1, 4] {
            let p = pool(threads);
            p.set_instrumented(true);
            let got = p.map_in_order(items.clone(), |_, x| x + 1);
            assert_eq!(got, expected, "threads={threads}");
            let m = p.take_metrics();
            assert_eq!(m.workers, threads);
            assert_eq!(m.tasks, 64);
            assert_eq!(m.worker_tasks.iter().sum::<u64>(), 64);
            assert_eq!(m.worker_tasks.len(), threads);
            // take_metrics resets.
            assert_eq!(p.take_metrics(), PoolMetrics::default());
            // Uninstrumented calls leave the metrics untouched.
            p.set_instrumented(false);
            p.map_in_order(items.clone(), |_, x| x + 1);
            assert_eq!(p.take_metrics(), PoolMetrics::default());
        }
    }

    #[test]
    fn build_phase_accounts_separately_from_morsels() {
        for threads in [1, 4] {
            let p = pool(threads);
            p.set_instrumented(true);
            let got = p.map_build((0..32).collect::<Vec<u64>>(), |_, x| x * 2);
            assert_eq!(got, (0..32).map(|x| x * 2).collect::<Vec<u64>>());
            p.map_in_order((0..8).collect::<Vec<u64>>(), |_, x| x);
            let m = p.take_metrics();
            assert_eq!(m.build_tasks, 32, "threads={threads}");
            assert_eq!(m.tasks, 8, "threads={threads}");
            assert_eq!(m.worker_tasks.iter().sum::<u64>(), 40);
            // An uninstrumented build phase leaves the metrics untouched.
            p.set_instrumented(false);
            p.map_build((0..4).collect::<Vec<u64>>(), |_, x| x);
            assert_eq!(p.take_metrics(), PoolMetrics::default());
        }
    }

    #[test]
    fn span_recording_captures_every_task_in_index_order() {
        for threads in [1, 4] {
            let p = pool(threads);
            p.set_instrumented(true);
            p.set_spans_recorded(true);
            assert!(p.spans_recorded());
            let got = p.map_in_order((0..16).collect::<Vec<u64>>(), |_, x| x + 1);
            assert_eq!(got, (1..=16).collect::<Vec<u64>>());
            p.map_build((0..4).collect::<Vec<u64>>(), |_, x| x);
            let m = p.take_metrics();
            assert_eq!(m.spans.len(), 20, "threads={threads}");
            let morsels: Vec<usize> = m
                .spans
                .iter()
                .filter(|s| !s.build)
                .map(|s| s.index)
                .collect();
            assert_eq!(morsels, (0..16).collect::<Vec<usize>>(), "index order");
            assert_eq!(m.spans.iter().filter(|s| s.build).count(), 4);
            for s in &m.spans {
                assert!(s.end >= s.start);
                assert!(s.worker < threads);
            }
            // Spans need instrumentation: recording alone collects nothing.
            p.set_instrumented(false);
            p.map_in_order(vec![1u64], |_, x| x);
            assert!(p.take_metrics().spans.is_empty());
        }
    }

    #[test]
    fn owned_non_clone_items_move_through() {
        struct NoClone(u32);
        let items = (0..100).map(NoClone).collect::<Vec<_>>();
        let got = pool(5).map_in_order(items, |_, NoClone(x)| x);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
