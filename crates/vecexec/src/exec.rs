//! The vectorized plan driver: morsel-driven, optionally parallel,
//! batch-at-a-time execution of [`Plan`]s.
//!
//! ## Pipelines and morsels
//!
//! The driver splits a plan into **pipelines**: maximal chains of per-batch
//! operators — filter, projection, re-qualification, hash-join *probe* —
//! over one source (a scan, a pipeline breaker like Sort/Aggregate, or a
//! nested-loop join). Each source batch is a *morsel*: it runs through the
//! whole bound stage chain independently, so morsels execute on a small
//! work-stealing thread pool (the offline `rayon` shim) with **no shared
//! mutable state** — hash-join build sides are built once (large builds
//! partition by key hash and index each partition on its own worker, see
//! [`ops`]) and probed read-only; UA label bitmaps AND per morsel inside
//! the join gather. Aggregation, the other pipeline breaker, folds
//! partition-parallel through [`ops::aggregate_pooled`].
//!
//! ## Determinism contract
//!
//! Parallel output is **byte-identical** to serial output for every thread
//! count and batch size: per-morsel results are merged in source batch
//! index order (the pool's `map_in_order`), every stage is a pure function
//! of its input batch, and errors are reported from the lowest-indexed
//! failing morsel — exactly the batch the serial loop would have failed
//! on. The determinism property tests hammer this across thread counts.
//!
//! One scoping note on errors: when a query contains *several* distinct
//! failure sites (say a type error in a projection over batch 0 and a
//! division error in a filter over batch 1), which one surfaces depends on
//! evaluation order — the row engine finishes each operator over all rows
//! before the next, while this pipeline runs each morsel through the whole
//! chain. Both engines fail on exactly the same queries (the differential
//! harness asserts Err/Err agreement), and the vectorized engine's choice
//! is deterministic across thread counts and batch sizes, but the *choice
//! among multiple errors* is not part of the cross-engine contract.
//!
//! ## Fused kernels
//!
//! Adjacent `Filter→Map` and `Filter→HashJoin-probe` pairs fuse: the
//! filter's selection bitmap is evaluated and *consumed in the same pass*
//! ([`crate::kernels::project_selected`], [`ops::ProbeState::probe`]),
//! gathering each needed column once instead of materializing the filtered
//! batch first.
//!
//! Sort, Top-K and Limit are columnar-native ([`ops::sort`],
//! [`ops::top_k`], [`ops::limit`]) — nothing in this driver materializes
//! rows anymore.

use crate::columnar::{
    batches_from_encoded_table_pooled, batches_from_table_pooled,
    encoded_table_from_batches_pooled, table_from_batches_pooled, BatchStream, ColumnBatch,
    DEFAULT_BATCH_ROWS,
};
use crate::kernels::{filter_selection, project_selected};
use crate::ops::{self, ProbeState};
use ua_core::{expr_mentions_marker, UA_LABEL_COLUMN};
use ua_data::algebra::ProjColumn;
use ua_data::expr::Expr;
use ua_data::schema::{Schema, SchemaError};
use ua_obs::{OperatorStats, PoolStats, QueryStats, Stopwatch};
use ua_plan::plan::Plan;
use ua_plan::stats::node_label;
use ua_plan::storage::{Catalog, Table};
use ua_plan::{estimate_rows, EngineError, ExecOptions};

/// Execute `plan` against `catalog` with the vectorized engine using
/// default options (auto thread count), materializing the result table.
/// Drop-in replacement for [`ua_plan::execute`].
pub fn execute_vectorized(plan: &Plan, catalog: &Catalog) -> Result<Table, EngineError> {
    execute_vectorized_opts(plan, catalog, ExecOptions::default())
}

/// [`execute_vectorized`] with explicit [`ExecOptions`] (thread count /
/// batch size).
pub fn execute_vectorized_opts(
    plan: &Plan,
    catalog: &Catalog,
    opts: ExecOptions,
) -> Result<Table, EngineError> {
    execute_vectorized_with_stats(plan, catalog, opts).0
}

/// [`execute_vectorized_opts`] returning the run's [`QueryStats`] by value
/// next to the result — `Some` iff `opts.collect_stats`, on the error path
/// too (a one-node error-marked tree). This is what the session's
/// `ExecMode::Vectorized` dispatch calls.
pub fn execute_vectorized_with_stats(
    plan: &Plan,
    catalog: &Catalog,
    opts: ExecOptions,
) -> (Result<Table, EngineError>, Option<QueryStats>) {
    run(plan, catalog, opts, false)
}

/// The det/UA entry point: stream `plan` through a [`Driver`] and
/// materialize the result (`ua` = scans decode UA-encoded tables into label
/// bitmaps and the marker column is re-attached on the way out).
pub(crate) fn run(
    plan: &Plan,
    catalog: &Catalog,
    opts: ExecOptions,
    ua: bool,
) -> (Result<Table, EngineError>, Option<QueryStats>) {
    if opts.collect_stats {
        ua_obs::mem_query_start();
    }
    let driver = Driver::new(catalog, opts, ua);
    let finish = |root| {
        let semantics = if ua { "ua" } else { "det" };
        finish_query_stats(&driver.pool, driver.collect_trace, root, semantics)
    };
    match driver.stream_traced(plan) {
        Ok((stream, stats)) => {
            let table = driver.phase("merge", || {
                if ua {
                    encoded_table_from_batches_pooled(&stream, &driver.pool)
                } else {
                    table_from_batches_pooled(&stream, &driver.pool)
                }
            });
            (Ok(table), finish(stats))
        }
        // A failed run still reports *something*: a one-node error-marked
        // tree naming the failing plan's root operator.
        Err(e) => {
            let root = driver.collect_stats.then(|| error_root(plan, catalog));
            (Err(e), finish(root))
        }
    }
}

/// Execute `plan` into a batch stream with an explicit batch size, serially
/// (the differential tests sweep batch boundaries through this and use it
/// as the reference output for the parallel determinism property).
pub fn exec_stream(
    plan: &Plan,
    catalog: &Catalog,
    batch_rows: usize,
) -> Result<BatchStream, EngineError> {
    exec_stream_opts(
        plan,
        catalog,
        ExecOptions {
            threads: 1,
            batch_rows,
            collect_stats: false,
            collect_trace: false,
        },
    )
}

/// [`exec_stream`] with explicit [`ExecOptions`].
pub fn exec_stream_opts(
    plan: &Plan,
    catalog: &Catalog,
    opts: ExecOptions,
) -> Result<BatchStream, EngineError> {
    Driver::new(catalog, opts, false).stream(plan)
}

/// Resolve a requested thread count: `0` = the `UA_VEC_THREADS`
/// environment variable if set to a positive integer, else the machine's
/// available parallelism.
pub fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    if let Ok(v) = std::env::var("UA_VEC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The marker is engine bookkeeping, not user schema: reject references so
/// both executors fail identically (mirrors `rewrite_ua`).
pub(crate) fn reject_marker_reference(expr: &Expr) -> Result<(), EngineError> {
    if expr_mentions_marker(expr) {
        Err(EngineError::Schema(SchemaError::AmbiguousColumn(
            UA_LABEL_COLUMN.to_string(),
        )))
    } else {
        Ok(())
    }
}

/// Resolve `opts` into the morsel size and the (optionally instrumented)
/// worker pool one query runs on — shared by the det/UA and AU drivers.
pub(crate) fn morsel_setup(opts: ExecOptions) -> (usize, rayon::ThreadPool) {
    let batch_rows = if opts.batch_rows == 0 {
        DEFAULT_BATCH_ROWS
    } else {
        opts.batch_rows
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(resolve_threads(opts.threads))
        .build()
        .expect("shim pool construction is infallible");
    pool.set_instrumented(opts.collect_stats || opts.collect_trace);
    pool.set_spans_recorded(opts.collect_trace);
    (batch_rows, pool)
}

/// One query's execution context: catalog, batch size, thread pool, and
/// whether scans decode UA-encoded tables into label bitmaps (`ua`).
pub(crate) struct Driver<'a> {
    catalog: &'a Catalog,
    batch_rows: usize,
    ua: bool,
    /// Collect per-stage [`OperatorStats`] (and morsel-pool metrics) next
    /// to the result. Results are byte-identical on or off.
    collect_stats: bool,
    /// Emit bind/execute/merge phase spans on the session thread's armed
    /// trace ring, and have the pool record per-morsel task spans for
    /// injection after the join. Results are byte-identical on or off.
    collect_trace: bool,
    /// Live [`ua_obs::MemTracker`]s for pipeline-breaker materializations
    /// (join build tables, sort/Top-K/aggregate outputs). Held until the
    /// driver drops, so states that coexist during execution stack in the
    /// query-wide memory high-water mark.
    mem: std::cell::RefCell<Vec<ua_obs::MemTracker>>,
    pub(crate) pool: rayon::ThreadPool,
}

/// A pipelineable operator, collected top-down while walking the plan.
enum Spec<'p> {
    Filter(&'p Expr),
    Project(&'p [ProjColumn]),
    Requalify(&'p str),
    HashJoin {
        build_plan: &'p Plan,
        keys: &'p [(Expr, Expr)],
        residual: Option<&'p Expr>,
        build_left: bool,
    },
    Theta {
        right: &'p Plan,
        predicate: Option<&'p Expr>,
    },
}

/// A bound per-batch stage (expressions resolved against the stage's input
/// schema; join build sides materialized and indexed).
enum Stage {
    Filter(Expr),
    Project {
        exprs: Vec<Expr>,
        schema: Schema,
    },
    /// Fused σ→π: selection bitmap evaluated and consumed in one pass.
    FilterProject {
        pred: Expr,
        exprs: Vec<Expr>,
        schema: Schema,
    },
    Requalify(Schema),
    Probe(ProbeState),
    /// Fused σ→probe: hash keys evaluate over filter survivors only and
    /// the join gathers straight from the original batch.
    FilterProbe {
        pred: Expr,
        probe: ProbeState,
    },
    NestedLoop {
        chunk: ColumnBatch,
        pred: Option<Expr>,
        schema: Schema,
    },
}

impl<'a> Driver<'a> {
    pub(crate) fn new(catalog: &'a Catalog, opts: ExecOptions, ua: bool) -> Driver<'a> {
        let (batch_rows, pool) = morsel_setup(opts);
        Driver {
            catalog,
            batch_rows,
            ua,
            collect_stats: opts.collect_stats,
            collect_trace: opts.collect_trace,
            mem: std::cell::RefCell::new(Vec::new()),
            pool,
        }
    }

    /// Bracket `f` in a query-phase trace span when tracing is on; a plain
    /// call otherwise. The span closes on the error path too, so exported
    /// traces stay balanced.
    pub(crate) fn phase<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if self.collect_trace {
            ua_obs::trace_scope(name, "vecexec", f)
        } else {
            f()
        }
    }

    /// Charge a pipeline-breaker materialization against the query's
    /// memory accumulator, holding the tracker until the driver drops (the
    /// state really does live until then — probe states and breaker
    /// outputs are owned by the running query).
    fn track_mem(&self, bytes: u64) {
        let mut t = ua_obs::MemTracker::new();
        t.alloc(bytes);
        self.mem.borrow_mut().push(t);
    }

    /// Execute `plan` to a batch stream.
    pub(crate) fn stream(&self, plan: &Plan) -> Result<BatchStream, EngineError> {
        self.stream_traced(plan).map(|(s, _)| s)
    }

    /// Execute `plan` to a batch stream, returning the per-stage span tree
    /// when stats collection is on (`None` otherwise).
    ///
    /// Instrumentation is collected off the result path: every morsel's
    /// per-stage tallies ride next to its output batches through the same
    /// `map_in_order`, and both merge in deterministic batch-index order —
    /// tallies by summation, batches exactly as the untraced path would.
    pub(crate) fn stream_traced(
        &self,
        plan: &Plan,
    ) -> Result<(BatchStream, Option<OperatorStats>), EngineError> {
        let mut specs = Vec::new();
        let source_plan = self.collect_chain(plan, &mut specs)?;
        let (source, source_stats) = self.source_traced(source_plan)?;
        if specs.is_empty() {
            return Ok((source, source_stats));
        }
        let (stages, out_schema, metas) =
            self.phase("bind", || self.bind_stages(specs, source.schema.clone()))?;
        if !self.collect_stats {
            let results = self.phase("execute", || {
                self.pool
                    .map_in_order(source.batches, |_, batch| run_chain(batch, &stages))
            });
            let mut batches = Vec::new();
            for r in results {
                // `?` on the lowest-indexed error reproduces the serial
                // loop's failure; later morsels' speculative work is
                // discarded.
                batches.extend(r?);
            }
            return Ok((
                BatchStream {
                    schema: out_schema,
                    batches,
                },
                None,
            ));
        }
        let n_stages = stages.len();
        let results = self.phase("execute", || {
            self.pool
                .map_in_order(source.batches, |_, batch| run_chain_traced(batch, &stages))
        });
        let mut batches = Vec::new();
        let mut tallies = vec![StageTally::default(); n_stages];
        for r in results {
            let (bs, ts) = r?;
            batches.extend(bs);
            for (acc, t) in tallies.iter_mut().zip(ts) {
                acc.merge(&t);
            }
        }
        // Wrap the source span in one node per stage, innermost (first to
        // run) deepest — the tree mirrors the executed pipeline.
        let mut node = source_stats.expect("tracing yields source stats");
        let metas = metas.expect("tracing yields stage metas");
        for (meta, tally) in metas.into_iter().zip(tallies) {
            let mut n = OperatorStats::new(meta.name, meta.detail);
            n.est_rows = meta.est_rows;
            n.rows_out = tally.rows_out;
            n.batches_out = tally.batches_out;
            n.extra = meta.extra;
            if n.name == "HashJoin" || n.name == "Join" || n.name == "Cross" {
                n.push_extra("probe_rows", node.rows_out);
            }
            if self.ua {
                n.push_extra("certain_rows", tally.certain_rows);
            }
            let mut children = meta.children;
            children.push(node);
            n.wall_ns = tally.wall_ns + children.iter().map(|c| c.wall_ns).sum::<u64>();
            n.children = children;
            node = n;
        }
        Ok((
            BatchStream {
                schema: out_schema,
                batches,
            },
            Some(node),
        ))
    }

    /// Walk down the plan collecting pipelineable stages (top-down order),
    /// each paired with the plan node it came from (for stage labels and
    /// cardinality estimates when tracing); returns the pipeline's source
    /// node.
    fn collect_chain<'p>(
        &self,
        plan: &'p Plan,
        specs: &mut Vec<(Spec<'p>, &'p Plan)>,
    ) -> Result<&'p Plan, EngineError> {
        let mut cur = plan;
        loop {
            let node = cur;
            match cur {
                Plan::Filter { input, predicate } => {
                    if self.ua {
                        reject_marker_reference(predicate)?;
                    }
                    specs.push((Spec::Filter(predicate), node));
                    cur = input;
                }
                Plan::Map { input, columns } => {
                    if self.ua {
                        // Mirror rewrite_ua: the marker is engine-managed;
                        // projecting or referencing it explicitly is
                        // rejected.
                        for c in columns {
                            if c.name().eq_ignore_ascii_case(UA_LABEL_COLUMN) {
                                return Err(EngineError::Schema(SchemaError::AmbiguousColumn(
                                    UA_LABEL_COLUMN.to_string(),
                                )));
                            }
                            reject_marker_reference(&c.expr)?;
                        }
                    }
                    specs.push((Spec::Project(columns), node));
                    cur = input;
                }
                Plan::Alias { input, name } => {
                    specs.push((Spec::Requalify(name), node));
                    cur = input;
                }
                Plan::HashJoin {
                    left,
                    right,
                    keys,
                    residual,
                    build_left,
                } => {
                    if self.ua {
                        for (kl, kr) in keys.iter() {
                            reject_marker_reference(kl)?;
                            reject_marker_reference(kr)?;
                        }
                        if let Some(res) = residual {
                            reject_marker_reference(res)?;
                        }
                    }
                    let (build_plan, probe_plan) = if *build_left {
                        (&**left, &**right)
                    } else {
                        (&**right, &**left)
                    };
                    specs.push((
                        Spec::HashJoin {
                            build_plan,
                            keys,
                            residual: residual.as_ref(),
                            build_left: *build_left,
                        },
                        node,
                    ));
                    cur = probe_plan;
                }
                Plan::Join {
                    left,
                    right,
                    predicate,
                } => {
                    if self.ua {
                        if let Some(p) = predicate {
                            reject_marker_reference(p)?;
                        }
                    }
                    specs.push((
                        Spec::Theta {
                            right,
                            predicate: predicate.as_ref(),
                        },
                        node,
                    ));
                    cur = left;
                }
                _ => return Ok(cur),
            }
        }
    }

    /// Bind the collected stages bottom-up against the evolving schema,
    /// executing join build sides, then fuse adjacent filter pairs. When
    /// tracing, a [`StageMeta`] per bound stage rides along (labels,
    /// estimates, build-side span trees), fused in lockstep with the
    /// stages.
    fn bind_stages(
        &self,
        specs: Vec<(Spec<'_>, &Plan)>,
        source_schema: Schema,
    ) -> Result<BoundStages, EngineError> {
        let mut schema = source_schema;
        let mut stages: Vec<Stage> = Vec::with_capacity(specs.len());
        let mut metas: Option<Vec<StageMeta>> = self
            .collect_stats
            .then(|| Vec::with_capacity(stages.capacity()));
        for (spec, node_plan) in specs.into_iter().rev() {
            let mut meta = metas.as_ref().map(|_| {
                let (name, detail) = node_label(node_plan);
                StageMeta {
                    name,
                    detail,
                    est_rows: estimate_rows(node_plan, self.catalog),
                    extra: Vec::new(),
                    children: Vec::new(),
                }
            });
            match spec {
                Spec::Filter(p) => {
                    let bound = p.bind(&schema).map_err(EngineError::Expr)?;
                    stages.push(Stage::Filter(bound));
                }
                Spec::Project(cols) => {
                    let exprs: Vec<Expr> = cols
                        .iter()
                        .map(|c| c.expr.bind(&schema))
                        .collect::<Result<_, _>>()
                        .map_err(EngineError::Expr)?;
                    let out = Schema::new(cols.iter().map(|c| c.column.clone()).collect());
                    schema = out.clone();
                    stages.push(Stage::Project { exprs, schema: out });
                }
                Spec::Requalify(name) => {
                    schema = schema.with_qualifier(name);
                    stages.push(Stage::Requalify(schema.clone()));
                }
                Spec::HashJoin {
                    build_plan,
                    keys,
                    residual,
                    build_left,
                } => {
                    let build_timer = meta.as_ref().map(|_| Stopwatch::start());
                    let (build, build_stats) = self.stream_traced(build_plan)?;
                    if let (Some(m), Some(timer)) = (meta.as_mut(), build_timer) {
                        m.extra.push(("build_ns".into(), timer.elapsed_ns()));
                        m.extra.push((
                            "build_rows".into(),
                            build.batches.iter().map(|b| b.len() as u64).sum(),
                        ));
                        let bytes = stream_mem_bytes(&build);
                        self.track_mem(bytes);
                        m.extra.push(("mem_bytes".into(), bytes));
                        m.children.extend(build_stats);
                    }
                    let (left_schema, right_schema) = if build_left {
                        (build.schema.clone(), schema.clone())
                    } else {
                        (schema.clone(), build.schema.clone())
                    };
                    let state = ops::hash_join_probe_state(
                        build,
                        &left_schema,
                        &right_schema,
                        keys,
                        residual,
                        build_left,
                        Some(&self.pool),
                    )?;
                    schema = state.out_schema().clone();
                    stages.push(Stage::Probe(state));
                }
                Spec::Theta { right, predicate } => {
                    let build_timer = meta.as_ref().map(|_| Stopwatch::start());
                    let (right_stream, right_stats) = self.stream_traced(right)?;
                    if let (Some(m), Some(timer)) = (meta.as_mut(), build_timer) {
                        m.extra.push(("build_ns".into(), timer.elapsed_ns()));
                        m.extra.push((
                            "build_rows".into(),
                            right_stream.batches.iter().map(|b| b.len() as u64).sum(),
                        ));
                        let bytes = stream_mem_bytes(&right_stream);
                        self.track_mem(bytes);
                        m.extra.push(("mem_bytes".into(), bytes));
                        m.children.extend(right_stats);
                    }
                    let out_schema = schema.concat(&right_stream.schema);
                    let bound = predicate
                        .map(|p| p.bind(&out_schema))
                        .transpose()
                        .map_err(EngineError::Expr)?;
                    // The strategy decision is ops::theta_strategy — the
                    // same single copy the standalone ops::join uses.
                    match ops::theta_strategy(
                        right_stream,
                        bound.as_ref(),
                        schema.arity(),
                        &out_schema,
                        Some(&self.pool),
                    )? {
                        ops::ThetaStrategy::Hash(state) => stages.push(Stage::Probe(state)),
                        ops::ThetaStrategy::NestedLoop(chunk) => {
                            stages.push(Stage::NestedLoop {
                                chunk,
                                pred: bound,
                                schema: out_schema.clone(),
                            });
                        }
                    }
                    schema = out_schema;
                }
            }
            if let (Some(ms), Some(m)) = (metas.as_mut(), meta) {
                ms.push(m);
            }
        }
        let (stages, metas) = fuse_stages(stages, metas);
        Ok((stages, schema, metas))
    }

    /// Execute a pipeline source / breaker node, with its span when
    /// tracing.
    fn source_traced(
        &self,
        plan: &Plan,
    ) -> Result<(BatchStream, Option<OperatorStats>), EngineError> {
        let timer = self.collect_stats.then(Stopwatch::start);
        let (stream, children) = match plan {
            Plan::Scan(name) => {
                let table = self
                    .catalog
                    .get(name)
                    .ok_or_else(|| EngineError::UnknownTable(name.clone()))?;
                let stream = if self.ua {
                    batches_from_encoded_table_pooled(&table, name, self.batch_rows, &self.pool)?
                } else {
                    batches_from_table_pooled(&table, self.batch_rows, &self.pool)
                };
                (stream, Vec::new())
            }
            Plan::UnionAll { left, right } => {
                let (l, ls) = self.stream_traced(left)?;
                let (r, rs) = self.stream_traced(right)?;
                let children = ls.into_iter().chain(rs).collect();
                (ops::union_all(l, r)?, children)
            }
            Plan::Except { left, right, all } => {
                let (l, ls) = self.stream_traced(left)?;
                let (r, rs) = self.stream_traced(right)?;
                let children = ls.into_iter().chain(rs).collect();
                (ops::except(l, r, *all)?, children)
            }
            Plan::OuterJoin {
                left,
                right,
                predicate,
                kind,
            } => {
                if self.ua {
                    if let Some(p) = predicate {
                        reject_marker_reference(p)?;
                    }
                }
                let (l, ls) = self.stream_traced(left)?;
                let (r, rs) = self.stream_traced(right)?;
                let children = ls.into_iter().chain(rs).collect();
                (
                    ops::outer_join(
                        l,
                        r,
                        predicate.as_ref(),
                        *kind == ua_plan::plan::OuterKind::Left,
                        Some(&self.pool),
                    )?,
                    children,
                )
            }
            Plan::Sort { input, keys } => {
                if self.ua {
                    for (k, _) in keys {
                        reject_marker_reference(k)?;
                    }
                }
                let (stream, child) = self.stream_traced(input)?;
                (
                    ops::sort(stream, keys, self.batch_rows)?,
                    child.into_iter().collect(),
                )
            }
            Plan::TopK { input, keys, limit } => {
                if self.ua {
                    for (k, _) in keys {
                        reject_marker_reference(k)?;
                    }
                }
                let (stream, child) = self.stream_traced(input)?;
                (
                    ops::top_k(stream, keys, *limit, self.batch_rows)?,
                    child.into_iter().collect(),
                )
            }
            Plan::Limit { input, limit } => {
                let (stream, child) = self.stream_traced(input)?;
                (ops::limit(stream, *limit), child.into_iter().collect())
            }
            Plan::Distinct { input } if !self.ua => {
                let (stream, child) = self.stream_traced(input)?;
                (ops::distinct(stream), child.into_iter().collect())
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } if !self.ua => {
                let (stream, child) = self.stream_traced(input)?;
                (
                    ops::aggregate_pooled(stream, group_by, aggregates, &self.pool)?,
                    child.into_iter().collect(),
                )
            }
            Plan::Distinct { .. } | Plan::Aggregate { .. } => {
                return Err(EngineError::Sql(ua_plan::UA_FRAGMENT_ERROR.into()))
            }
            Plan::Filter { .. }
            | Plan::Map { .. }
            | Plan::Alias { .. }
            | Plan::Join { .. }
            | Plan::HashJoin { .. } => {
                unreachable!("pipelineable nodes are collected into the chain")
            }
        };
        // Pipeline breakers hold their whole output (and their build
        // state) materialized at once — charge that against the query's
        // memory accumulator and surface it on the span. Scans charge
        // nothing: base-table batches share the catalog's storage.
        let breaker_bytes = (self.collect_stats
            && matches!(
                plan,
                Plan::Sort { .. }
                    | Plan::TopK { .. }
                    | Plan::Distinct { .. }
                    | Plan::Aggregate { .. }
                    | Plan::Except { .. }
                    | Plan::OuterJoin { .. }
            ))
        .then(|| stream_mem_bytes(&stream));
        if let Some(bytes) = breaker_bytes {
            self.track_mem(bytes);
        }
        let stats = timer.map(|timer| {
            // `timer` spans children too, so the elapsed time is already
            // cumulative — exactly the [`OperatorStats::wall_ns`] contract.
            let (name, detail) = node_label(plan);
            let mut node = OperatorStats::new(name, detail);
            node.est_rows = estimate_rows(plan, self.catalog);
            node.rows_out = stream.batches.iter().map(|b| b.len() as u64).sum();
            node.batches_out = stream.batches.len() as u64;
            node.wall_ns = timer.elapsed_ns();
            if let Some(bytes) = breaker_bytes {
                node.push_extra("mem_bytes", bytes);
            }
            if self.ua {
                node.push_extra(
                    "certain_rows",
                    stream
                        .batches
                        .iter()
                        .map(|b| b.labels().count_ones() as u64)
                        .sum::<u64>(),
                );
            }
            node.children = children;
            node
        });
        Ok((stream, stats))
    }
}

/// Deterministic logical size of one batch, matching the row engine's
/// [`ua_plan::stats::tuple_mem_bytes`] convention (8 bytes of row
/// header plus one 16-byte slot per value, plus string payload lengths):
/// the figure depends only on logical shape, never on allocator layout,
/// batch size or thread count, so `mem_bytes` columns are comparable
/// across both engines and stable under the determinism grid.
pub(crate) fn batch_mem_bytes(batch: &ColumnBatch) -> u64 {
    let mut bytes = 8 * batch.len() as u64;
    for c in 0..batch.schema().arity() {
        bytes += column_mem_bytes(batch.column(c));
    }
    bytes
}

/// One column's logical bytes under the same convention: one 16-byte
/// value slot per row plus string payload lengths.
pub(crate) fn column_mem_bytes(col: &crate::columnar::ColumnVec) -> u64 {
    use crate::columnar::ColumnVec;
    match col {
        ColumnVec::Int(v) => 16 * v.len() as u64,
        ColumnVec::Float(v) => 16 * v.len() as u64,
        ColumnVec::Bool(v) => 16 * v.len() as u64,
        ColumnVec::Str(v) => v.iter().map(|s| 16 + s.len() as u64).sum::<u64>(),
        ColumnVec::Mixed(v) => v.iter().map(ua_plan::stats::value_mem_bytes).sum::<u64>(),
    }
}

/// [`batch_mem_bytes`] summed over a stream — the logical footprint of a
/// fully materialized pipeline-breaker output or join build side.
pub(crate) fn stream_mem_bytes(stream: &BatchStream) -> u64 {
    stream.batches.iter().map(batch_mem_bytes).sum()
}

/// Replay the pool's recorded per-morsel task spans onto the session
/// thread's trace ring (`morsel N` / `build N`, category `pool`, tid
/// `1 + worker`), then drop them. No-op when no trace ring is armed.
pub(crate) fn inject_pool_spans(pool: &rayon::ThreadPool) {
    for s in pool.take_spans() {
        if let Some(ts) = ua_obs::trace_ns_of(s.start) {
            let dur = s.end.saturating_duration_since(s.start).as_nanos() as u64;
            let kind = if s.build { "build" } else { "morsel" };
            ua_obs::trace_span_at(
                &format!("{kind} {}", s.index),
                "pool",
                1 + s.worker as u64,
                ts,
                dur,
            );
        }
    }
}

/// Close an instrumented run into its [`QueryStats`], shared by the
/// det/UA driver and the AU driver: replay morsel spans *before*
/// `take_metrics` drains the shared pool state, and disarm the memory
/// accumulator unconditionally so an uninstrumented (or failed) follow-up
/// query starts clean.
pub(crate) fn finish_query_stats(
    pool: &rayon::ThreadPool,
    collect_trace: bool,
    root: Option<OperatorStats>,
    semantics: &str,
) -> Option<QueryStats> {
    if collect_trace {
        inject_pool_spans(pool);
    }
    let peak_mem_bytes = ua_obs::mem_query_finish().unwrap_or(0);
    let root = root?;
    let m = pool.take_metrics();
    let pool_stats = PoolStats {
        workers: m.workers as u64,
        tasks: m.tasks,
        stolen: m.stolen,
        wall_ns: m.wall_ns,
        merge_ns: m.merge_ns,
        worker_busy_ns: m.worker_busy_ns,
        worker_tasks: m.worker_tasks,
        build_tasks: m.build_tasks,
        build_wall_ns: m.build_wall_ns,
        partition_merge_ns: m.partition_merge_ns,
    };
    Some(QueryStats {
        engine: "vectorized".into(),
        semantics: semantics.into(),
        root,
        pool: Some(pool_stats),
        peak_mem_bytes,
    })
}

/// A one-node stats tree for a failed query: the plan root's label with
/// an `error` marker, the shape the entry points return so EXPLAIN ANALYZE
/// can say *which* query died.
pub(crate) fn error_root(plan: &Plan, catalog: &Catalog) -> OperatorStats {
    let (name, detail) = node_label(plan);
    let mut node = OperatorStats::new(name, detail);
    node.est_rows = estimate_rows(plan, catalog);
    node.push_extra("error", 1);
    node
}

/// Bound pipeline stages, the schema they produce, and (when tracing)
/// their [`StageMeta`] companions.
type BoundStages = (Vec<Stage>, Schema, Option<Vec<StageMeta>>);

/// Labels, estimates and child spans for one bound pipeline stage,
/// assembled into [`OperatorStats`] after the morsel tallies merge.
struct StageMeta {
    name: String,
    detail: String,
    est_rows: Option<u64>,
    extra: Vec<(String, u64)>,
    children: Vec<OperatorStats>,
}

/// Per-stage output tallies for one morsel's run through the chain,
/// summed across morsels in batch-index order.
#[derive(Clone, Default)]
struct StageTally {
    rows_out: u64,
    batches_out: u64,
    wall_ns: u64,
    /// Output rows whose UA label bit is set (certain rows). Summation is
    /// order-independent, so the merged figure is deterministic across
    /// thread counts; only surfaced on UA runs (deterministic batches
    /// carry all-certain labels by construction).
    certain_rows: u64,
}

impl StageTally {
    fn merge(&mut self, other: &StageTally) {
        self.rows_out += other.rows_out;
        self.batches_out += other.batches_out;
        self.wall_ns += other.wall_ns;
        self.certain_rows += other.certain_rows;
    }
}

/// Fuse adjacent `Filter→Project` / `Filter→Probe` stage pairs so the
/// selection bitmap is consumed in the same pass it is produced. Stage
/// metas (when tracing) fuse in lockstep: the merged span keeps the
/// consumer's label with the filter's predicate folded into its detail,
/// so the tree mirrors the kernels that actually ran.
fn fuse_stages(
    stages: Vec<Stage>,
    metas: Option<Vec<StageMeta>>,
) -> (Vec<Stage>, Option<Vec<StageMeta>>) {
    let tracing = metas.is_some();
    let mut metas = metas.unwrap_or_default().into_iter();
    let mut out: Vec<Stage> = Vec::with_capacity(stages.len());
    let mut out_metas: Vec<StageMeta> = Vec::new();
    let fuse_meta = |out_metas: &mut Vec<StageMeta>, meta: Option<StageMeta>| {
        if let (Some(filter), Some(mut consumer)) = (out_metas.pop(), meta) {
            consumer.detail = if consumer.detail.is_empty() {
                format!("σ[{}]", filter.detail)
            } else {
                format!("{}; σ[{}]", consumer.detail, filter.detail)
            };
            consumer.extra.push(("fused_filter".into(), 1));
            out_metas.push(consumer);
        }
    };
    for stage in stages {
        let meta = if tracing { metas.next() } else { None };
        match (out.pop(), stage) {
            (Some(Stage::Filter(pred)), Stage::Project { exprs, schema }) => {
                out.push(Stage::FilterProject {
                    pred,
                    exprs,
                    schema,
                });
                fuse_meta(&mut out_metas, meta);
            }
            (Some(Stage::Filter(pred)), Stage::Probe(probe)) => {
                out.push(Stage::FilterProbe { pred, probe });
                fuse_meta(&mut out_metas, meta);
            }
            (prev, stage) => {
                if let Some(p) = prev {
                    out.push(p);
                }
                out.push(stage);
                if let Some(m) = meta {
                    out_metas.push(m);
                }
            }
        }
    }
    (out, tracing.then_some(out_metas))
}

/// Run one morsel through the stage chain. Pure function of the input
/// batch — the parallel driver's determinism rests on this.
fn run_chain(batch: ColumnBatch, stages: &[Stage]) -> Result<Vec<ColumnBatch>, EngineError> {
    if batch.is_empty() {
        return Ok(Vec::new());
    }
    let mut cur = vec![batch];
    for stage in stages {
        let mut next = Vec::new();
        for b in cur {
            apply_stage(stage, b, &mut next)?;
        }
        if next.is_empty() {
            return Ok(next);
        }
        cur = next;
    }
    Ok(cur)
}

/// [`run_chain`] plus a per-stage [`StageTally`] — the instrumented morsel
/// run. Stats ride *next to* the batches; the batches themselves are what
/// `run_chain` would produce, bit for bit.
fn run_chain_traced(
    batch: ColumnBatch,
    stages: &[Stage],
) -> Result<(Vec<ColumnBatch>, Vec<StageTally>), EngineError> {
    let mut tallies = vec![StageTally::default(); stages.len()];
    if batch.is_empty() {
        return Ok((Vec::new(), tallies));
    }
    let mut cur = vec![batch];
    for (i, stage) in stages.iter().enumerate() {
        let timer = Stopwatch::start();
        let mut next = Vec::new();
        for b in cur {
            apply_stage(stage, b, &mut next)?;
        }
        let t = &mut tallies[i];
        t.wall_ns += timer.elapsed_ns();
        t.rows_out += next.iter().map(|b| b.len() as u64).sum::<u64>();
        t.batches_out += next.len() as u64;
        t.certain_rows += next
            .iter()
            .map(|b| b.labels().count_ones() as u64)
            .sum::<u64>();
        if next.is_empty() {
            return Ok((next, tallies));
        }
        cur = next;
    }
    Ok((cur, tallies))
}

fn apply_stage(
    stage: &Stage,
    batch: ColumnBatch,
    out: &mut Vec<ColumnBatch>,
) -> Result<(), EngineError> {
    match stage {
        Stage::Filter(pred) => match filter_selection(pred, &batch)? {
            None => out.push(batch),
            Some(sel) if sel.is_empty() => {}
            Some(sel) => out.push(batch.gather(&sel)),
        },
        Stage::Project { exprs, schema } => {
            out.push(project_selected(&batch, None, exprs, schema)?);
        }
        Stage::FilterProject {
            pred,
            exprs,
            schema,
        } => match filter_selection(pred, &batch)? {
            None => out.push(project_selected(&batch, None, exprs, schema)?),
            Some(sel) if sel.is_empty() => {}
            Some(sel) => out.push(project_selected(&batch, Some(&sel), exprs, schema)?),
        },
        Stage::Requalify(schema) => out.push(batch.with_schema(schema.clone())),
        Stage::Probe(probe) => {
            if let Some(joined) = probe.probe(&batch, None)? {
                out.push(joined);
            }
        }
        Stage::FilterProbe { pred, probe } => match filter_selection(pred, &batch)? {
            None => {
                if let Some(joined) = probe.probe(&batch, None)? {
                    out.push(joined);
                }
            }
            Some(sel) if sel.is_empty() => {}
            Some(sel) => {
                if let Some(joined) = probe.probe(&batch, Some(&sel))? {
                    out.push(joined);
                }
            }
        },
        Stage::NestedLoop {
            chunk,
            pred,
            schema,
        } => ops::nested_loop_batch(&batch, chunk, pred.as_ref(), schema, out)?,
    }
    Ok(())
}
