//! The vectorized plan driver: morsel-driven, optionally parallel,
//! batch-at-a-time execution of [`Plan`]s — **one driver for all three
//! semantics**, parameterised by [`Semantics`] the way both papers
//! parameterise one query semantics by the annotation.
//!
//! * `Det` — batches are typed columns, one row per bag copy;
//!   σ / π / alias and the join probe ([`ops::ProbeState`], every inner,
//!   θ and hash join) are pipeline stages, the breakers are the [`ops`]
//!   operators.
//! * `Ua` — the plan is the `⟦·⟧_UA` rewriting and runs exactly as `Det`,
//!   the `ua_c` marker an ordinary `Int` column; the semantics only tags
//!   the stats `ua` and has them count `certain_rows` where an operator's
//!   output carries the marker ([`ua_plan::ua::certainty_marker`]).
//! * `Au` — batches over the *flattened* schema: user columns, `lb` / `ub`
//!   columns, the multiplicity triple. σ / π and the hash-join probe
//!   (`AuProbe`) are pipeline stages over the range kernels in
//!   [`crate::au_exec`], `ops::{sort, top_k, limit, union_all}` run the
//!   flattened batches unchanged, and Scan / δ / γ / `−` / `⟕` and the
//!   keyless / non-equi `Plan::Join` are the AU sources in
//!   [`crate::au_exec`].
//!
//! ## Pipelines and morsels
//!
//! The driver splits a plan into **pipelines**: maximal chains of per-batch
//! operators — filter, projection, re-qualification, and join *probe* —
//! over one source (a scan, a pipeline breaker like Sort/Aggregate, an AU
//! keyless join). Each source batch is a *morsel*: it runs
//! through the whole bound stage chain independently, so morsels execute on
//! a small work-stealing thread pool (the offline `rayon` shim) with **no
//! shared mutable state** — join build sides are built once (large
//! builds partition by key hash and index each partition on its own worker,
//! see [`ops`]) and probed read-only. Det aggregation evaluates its key
//! and argument columns per morsel, then groups and folds on the calling
//! thread ([`ops::aggregate`]); det δ groups there too.
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
//! ## Selections
//!
//! A morsel in flight is a batch plus an optional **selection**: the rows
//! a σ kept, ascending, not yet gathered — under AU with their refined
//! `lb` / `bg` multiplicities, the two columns `⟦σ⟧_AU` changes. A σ sets
//! the selection and gathers nothing; det π
//! ([`crate::kernels::project_selected`]), re-qualification and both join
//! probes ([`ops::ProbeState::probe`],
//! `AuProbe::probe`) read through it, so a σ's survivors are gathered once,
//! by the operator that needs their columns. Every other stage — a σ over
//! an already-selected morsel, AU π — and the end of the chain first
//! materialise the morsel in one gather. Each stage runs one plan operator
//! and reports one span, so the stats tree is the row interpreter's.
//!
//! ## One collection path
//!
//! Every span is assembled in one place (`Driver::finish_node`) from an
//! output tally (`StageTally`) — taken per morsel and summed for
//! pipeline stages, taken over the output stream for sources — and every
//! run closes through [`execute`], which emits the `bind` / `execute` /
//! `merge` phase spans and the [`QueryStats`] for all three semantics.

use crate::au_exec::{self, filter_select, map_batch, user_schema, AuProbe};
use crate::columnar::{
    batches_from_table_pooled, table_from_batches_pooled, BatchStream, ColumnBatch, ColumnVec,
    DEFAULT_BATCH_ROWS,
};
use crate::kernels::{filter_selection, project_selected};
use crate::ops::{self, ProbeState};
use std::sync::Arc;
use ua_data::algebra::ProjColumn;
use ua_data::expr::Expr;
use ua_data::schema::Schema;
use ua_data::value::Value;
use ua_obs::{OperatorStats, PoolStats, QueryStats, Stopwatch};
use ua_plan::exec::JoinSpec;
use ua_plan::plan::Plan;
use ua_plan::stats::node_label;
use ua_plan::storage::{Catalog, Chunks, Table};
use ua_plan::ua::certainty_marker;
use ua_plan::{estimate_rows, EngineError, ExecOptions, Semantics};
use ua_ranges::{flattened_schema, WidthSummary};

/// Execute `plan` against `catalog` under `semantics` with the vectorized
/// engine, materializing the result table in that semantics' encoding
/// (plain — for a `⟦·⟧_UA`-rewritten plan, `ua_c` marker last — or
/// flattened AU triples) — what the row engine's `execute_row` returns for
/// the same plan. The run's [`QueryStats`] come back by value next to the
/// result: `Some` iff `opts.collect_stats`, on the error path too (a
/// one-node error-marked tree). This is the one vectorized entry point;
/// the session's `ExecMode::Vectorized` dispatch calls it.
pub fn execute(
    plan: &Plan,
    catalog: &Catalog,
    opts: ExecOptions,
    semantics: Semantics,
) -> (Result<Table, EngineError>, Option<QueryStats>) {
    if opts.collect_stats {
        ua_obs::mem_query_start();
    }
    let driver = Driver::new(catalog, opts, semantics);
    let (result, root) = match driver.stream_traced(plan) {
        Ok((stream, stats)) => {
            let table = driver.phase("merge", || table_from_batches_pooled(&stream, &driver.pool));
            (Ok(table), stats)
        }
        // A failed run still reports *something*: a one-node error-marked
        // tree naming the failing plan's root operator.
        Err(e) => (
            Err(e),
            driver.collect_stats.then(|| {
                let mut root = driver.open_node(plan);
                root.push_extra("error", 1);
                root
            }),
        ),
    };
    (result, driver.finish_query_stats(root))
}

/// Execute `plan` under `semantics` into a batch stream (an AU stream is a
/// stream over the flattened schema). The differential tests compare
/// these byte for byte across thread counts and batch sizes.
pub fn stream(
    plan: &Plan,
    catalog: &Catalog,
    opts: ExecOptions,
    semantics: Semantics,
) -> Result<BatchStream, EngineError> {
    let driver = Driver::new(catalog, opts, semantics);
    driver.stream_traced(plan).map(|(stream, _)| stream)
}

/// [`execute`] under AU semantics, result only.
pub fn execute_au_vectorized_opts(
    plan: &Plan,
    catalog: &Catalog,
    opts: ExecOptions,
) -> Result<Table, EngineError> {
    execute(plan, catalog, opts, Semantics::Au).0
}

/// [`stream`] under deterministic semantics.
pub fn exec_stream_opts(
    plan: &Plan,
    catalog: &Catalog,
    opts: ExecOptions,
) -> Result<BatchStream, EngineError> {
    stream(plan, catalog, opts, Semantics::Det)
}

/// Below this many morsels a streaming pipeline runs on the calling thread.
/// Spawning and joining the pool's scoped workers reads 90–280 µs on the
/// benchmark box against ≈ 15 µs per 1 024-row σ / π morsel, so a
/// three-batch point lookup paid several times its own work to start two
/// threads. Inline is the one-worker path, so results are byte-identical
/// either side of the constant.
const INLINE_MORSELS: usize = 8;

/// `pool.map_in_order` over a streaming pipeline's morsels — on the
/// calling thread (through the pool's one-worker branch, so tasks and
/// spans are still recorded) when there are fewer than [`INLINE_MORSELS`].
/// Coarse fan-outs (partition builds, AU join blocks) call the pool
/// directly: their few items are each worth a thread.
pub(crate) fn map_morsels<T: Send, R: Send>(
    pool: &rayon::ThreadPool,
    morsels: Vec<T>,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    if morsels.len() < INLINE_MORSELS {
        pool.map_inline(morsels, f)
    } else {
        pool.map_in_order(morsels, f)
    }
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

/// One query's execution context: the catalog, the morsel size, the
/// worker pool, and the [`Semantics`] — the annotation every operator arm
/// is parameterised by. Det batch rows are bag copies, and a UA plan — the
/// `⟦·⟧_UA` rewriting — runs as a det one; AU batches are plain batches
/// over the flattened schema (user columns, then `lb` / `ub` columns, then
/// the multiplicity triple) whose σ / π run the range kernels and whose
/// breakers are the AU sources in [`crate::au_exec`].
pub(crate) struct Driver<'a> {
    catalog: &'a Catalog,
    pub(crate) batch_rows: usize,
    semantics: Semantics,
    /// Collect per-stage [`OperatorStats`] (and morsel-pool metrics) next
    /// to the result. Results are byte-identical on or off.
    collect_stats: bool,
    /// Emit bind/execute/merge phase spans on the session thread's armed
    /// trace ring, and have the pool record per-morsel task spans for
    /// injection after the join. Results are byte-identical on or off.
    collect_trace: bool,
    /// Live [`ua_obs::MemTracker`]s for det / UA pipeline-breaker
    /// materializations (join build tables, sort/Top-K/aggregate outputs).
    /// Held until the driver drops, so states that coexist during
    /// execution stack in the query-wide memory high-water mark.
    mem: std::cell::RefCell<Vec<ua_obs::MemTracker>>,
    pub(crate) pool: rayon::ThreadPool,
}

/// A pipelineable operator, collected top-down while walking the plan.
enum Spec<'p> {
    Filter(&'p Expr),
    Project(&'p [ProjColumn]),
    Requalify(&'p str),
    /// A join node probing with this chain's stream; its other input
    /// (`build_plan`) builds.
    Join {
        build_plan: &'p Plan,
        build_left: bool,
    },
}

/// A bound per-batch stage (expressions resolved against the stage's input
/// schema; join build sides materialized and indexed): one plan operator.
enum Stage {
    Filter(Expr),
    Project {
        exprs: Vec<Expr>,
        schema: Schema,
    },
    Requalify(Schema),
    Probe(ProbeState),
    /// `⟦σ⟧_AU` ([`filter_select`]); `user` is the input's user schema.
    AuFilter {
        pred: Expr,
        user: Schema,
    },
    /// `⟦π⟧_AU` ([`map_batch`]); `user` is the input's user schema, `flat`
    /// the output's flattened schema.
    AuProject {
        exprs: Vec<Expr>,
        user: Schema,
        flat: Schema,
    },
    /// `⟦⋈⟧_AU` of a hash join, probing with this chain's stream
    /// ([`AuProbe::probe`]).
    AuProbe(AuProbe),
}

impl Stage {
    /// A join probe's build side: `Some(true)` when it is the plan's left
    /// input; `None` for a stage that is no join.
    fn build_left(&self) -> Option<bool> {
        match self {
            Stage::Probe(probe) => Some(probe.build_left),
            Stage::AuProbe(probe) => Some(probe.build_left),
            _ => None,
        }
    }
}

/// The rows of a morsel's batch that a σ kept, ascending, not yet gathered.
pub(crate) struct Survivors {
    pub(crate) rows: Vec<u32>,
    /// AU: the kept rows' refined `lb` / `bg` multiplicities (`ub` is the
    /// batch's); `None` under det / UA.
    pub(crate) mults: Option<[Vec<i64>; 2]>,
}

impl Survivors {
    /// `batch`'s rows at this selection in one gather; under AU the refined
    /// multiplicities replace the batch's `lb` / `bg` columns.
    fn gather(self, batch: &ColumnBatch) -> ColumnBatch {
        let gathered = batch.gather(&self.rows);
        let Some([lb, bg]) = self.mults else {
            return gathered;
        };
        let mut columns = gathered.columns().to_vec();
        let m = columns.len() - 3;
        columns[m] = ColumnVec::Int(Arc::new(lb));
        columns[m + 1] = ColumnVec::Int(Arc::new(bg));
        ColumnBatch::new(batch.schema().clone(), columns, self.rows.len())
    }
}

/// One morsel in flight through a pipeline: a batch and, once a σ has run,
/// its [`Survivors`].
struct Morsel {
    batch: ColumnBatch,
    sel: Option<Survivors>,
}

impl From<ColumnBatch> for Morsel {
    fn from(batch: ColumnBatch) -> Morsel {
        Morsel { batch, sel: None }
    }
}

impl Morsel {
    /// The morsel as one batch, its selection gathered.
    fn into_batch(self) -> ColumnBatch {
        match self.sel {
            None => self.batch,
            Some(sel) => sel.gather(&self.batch),
        }
    }

    /// The selected rows (`None` = every row).
    fn rows(&self) -> Option<&[u32]> {
        self.sel.as_ref().map(|sel| &sel.rows[..])
    }
}

impl<'a> Driver<'a> {
    /// Resolve `opts` into the morsel size and the (optionally
    /// instrumented) worker pool one query runs on.
    fn new(catalog: &'a Catalog, opts: ExecOptions, semantics: Semantics) -> Driver<'a> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(resolve_threads(opts.threads))
            .build()
            .expect("shim pool construction is infallible");
        pool.set_instrumented(opts.collect_stats || opts.collect_trace);
        pool.set_spans_recorded(opts.collect_trace);
        Driver {
            catalog,
            batch_rows: if opts.batch_rows == 0 {
                DEFAULT_BATCH_ROWS
            } else {
                opts.batch_rows
            },
            semantics,
            collect_stats: opts.collect_stats,
            collect_trace: opts.collect_trace,
            mem: std::cell::RefCell::new(Vec::new()),
            pool,
        }
    }

    /// Bracket `f` in a query-phase trace span when tracing is on; a plain
    /// call otherwise. The span closes on the error path too, so exported
    /// traces stay balanced.
    fn phase<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if self.collect_trace {
            ua_obs::trace_scope(name, "vecexec", f)
        } else {
            f()
        }
    }

    /// Charge a det / UA pipeline-breaker materialization against the
    /// query's memory accumulator, holding the tracker until the driver
    /// drops (the state really does live until then — probe states and
    /// breaker outputs are owned by the running query).
    fn track_mem(&self, bytes: u64) {
        let mut t = ua_obs::MemTracker::new();
        t.alloc(bytes);
        self.mem.borrow_mut().push(t);
    }

    /// Execute `plan` to a batch stream, returning the per-stage span tree
    /// when stats collection is on (`None` otherwise).
    ///
    /// Instrumentation is collected off the result path: every morsel's
    /// per-stage tallies ride next to its output batches through the same
    /// `map_in_order`, and both merge in deterministic batch-index order —
    /// tallies by summation, batches exactly as the untraced path would.
    fn stream_traced(
        &self,
        plan: &Plan,
    ) -> Result<(BatchStream, Option<OperatorStats>), EngineError> {
        let mut specs = Vec::new();
        let source_plan = self.collect_chain(plan, &mut specs);
        let (source, source_stats) = self.source_traced(source_plan)?;
        if specs.is_empty() {
            return Ok((source, source_stats));
        }
        let (stages, schema, spans) =
            self.phase("bind", || self.bind_stages(specs, source.schema.clone()))?;
        let (metas, mut tallies): (Vec<OperatorStats>, Vec<StageTally>) = spans
            .into_iter()
            .map(|(meta, marker)| {
                let tally = StageTally {
                    marker,
                    ..StageTally::default()
                };
                (meta, tally)
            })
            .unzip();
        let observe = self.collect_stats.then_some((self.semantics, &tallies[..]));
        let run = |batch: ColumnBatch| run_chain(batch, &stages, observe);
        // A scan's batches are handles on the catalog's resident chunks
        // (`Driver::scan`): dropping one frees a column list, never a
        // buffer. Who frees a morsel matters for the sources that own
        // their buffers — breaker and AU join outputs.
        let results = self.phase("execute", || match self.semantics {
            // AU morsels run on `Arc` clones, so the session thread, not
            // the workers, frees the source after the fan-out: workers
            // freeing the batches a σ rejects cost a 15-batch AU point
            // lookup +9 % CPU at two threads.
            Semantics::Au => {
                let morsels = source.batches.iter().collect();
                map_morsels(&self.pool, morsels, |_, b: &ColumnBatch| run(b.clone()))
            }
            // Det / UA morsels own their batch, so a consumed one is freed
            // while the pipeline still runs (keeping the source to the end
            // cost `join_heavy` +4.5 % peak RSS).
            Semantics::Det | Semantics::Ua => {
                map_morsels(&self.pool, source.batches, |_, b| run(b))
            }
        });
        let mut batches = Vec::new();
        for r in results {
            // `?` on the lowest-indexed error reproduces the serial loop's
            // failure; later morsels' speculative work is discarded.
            let (bs, ts) = r?;
            batches.extend(bs);
            for (acc, t) in tallies.iter_mut().zip(&ts) {
                acc.merge(t);
            }
        }
        // Wrap the source span in one node per stage, innermost (first to
        // run) deepest — the tree mirrors the executed pipeline, a join's
        // children in plan order whichever side builds.
        let stats = source_stats.map(|mut node| {
            for ((mut meta, mut tally), stage) in metas.into_iter().zip(tallies).zip(&stages) {
                match stage.build_left() {
                    Some(build_left) => {
                        meta.push_extra("probe_rows", node.rows_out);
                        if build_left {
                            meta.children.push(node);
                        } else {
                            meta.children.insert(0, node);
                        }
                    }
                    None => meta.children.push(node),
                }
                tally.wall_ns += meta.children.iter().map(|c| c.wall_ns).sum::<u64>();
                node = self.finish_node(meta, tally);
            }
            node
        });
        Ok((BatchStream { schema, batches }, stats))
    }

    /// Execute one operator input, its span (if any) as a child list.
    fn input(&self, plan: &Plan) -> Result<(BatchStream, Vec<OperatorStats>), EngineError> {
        let (stream, stats) = self.stream_traced(plan)?;
        Ok((stream, stats.into_iter().collect()))
    }

    /// Execute a binary operator's inputs, left before right; child spans
    /// in the same order.
    fn inputs(
        &self,
        left: &Plan,
        right: &Plan,
    ) -> Result<(BatchStream, BatchStream, Vec<OperatorStats>), EngineError> {
        let (l, mut children) = self.input(left)?;
        let (r, right_stats) = self.input(right)?;
        children.extend(right_stats);
        Ok((l, r, children))
    }

    /// Walk down the plan collecting pipelineable stages (top-down order),
    /// each paired with the plan node it came from (for stage labels and
    /// cardinality estimates when tracing); returns the pipeline's source
    /// node. σ, π, re-qualification and hash joins pipeline under every
    /// semantics; a `Plan::Join` is a probe stage under det / UA and a
    /// source under AU.
    fn collect_chain<'p>(&self, plan: &'p Plan, specs: &mut Vec<(Spec<'p>, &'p Plan)>) -> &'p Plan {
        let mut cur = plan;
        loop {
            let node = cur;
            match cur {
                Plan::Filter { input, predicate } => {
                    specs.push((Spec::Filter(predicate), node));
                    cur = input;
                }
                Plan::Map { input, columns } => {
                    specs.push((Spec::Project(columns), node));
                    cur = input;
                }
                Plan::Alias { input, name } => {
                    specs.push((Spec::Requalify(name), node));
                    cur = input;
                }
                // AU keyless / non-equi `⋈` selects over both inputs.
                Plan::Join { .. } if self.semantics == Semantics::Au => return cur,
                Plan::HashJoin { left, right, .. } | Plan::Join { left, right, .. } => {
                    let build_left = matches!(
                        cur,
                        Plan::HashJoin {
                            build_left: true,
                            ..
                        }
                    );
                    let (build_plan, probe_plan) = if build_left {
                        (&**left, &**right)
                    } else {
                        (&**right, &**left)
                    };
                    specs.push((
                        Spec::Join {
                            build_plan,
                            build_left,
                        },
                        node,
                    ));
                    cur = probe_plan;
                }
                _ => return cur,
            }
        }
    }

    /// Open `plan`'s span: its label and estimate. Bind time adds build-side
    /// extras and children; [`Driver::finish_node`] closes it once the
    /// operator's output tally is known (for a pipeline stage: after the
    /// morsel tallies merge).
    fn open_node(&self, plan: &Plan) -> OperatorStats {
        let (name, detail) = node_label(plan);
        let mut node = OperatorStats::new(name, detail);
        node.est_rows = estimate_rows(plan, self.catalog);
        node
    }

    /// A join stage's build side: execute it and, when tracing, record its
    /// time, size and span on the stage's meta.
    fn build_side(
        &self,
        plan: &Plan,
        meta: Option<&mut OperatorStats>,
    ) -> Result<BatchStream, EngineError> {
        let timer = meta.is_some().then(Stopwatch::start);
        let (build, build_stats) = self.stream_traced(plan)?;
        if let (Some(m), Some(timer)) = (meta, timer) {
            m.push_extra("build_ns", timer.elapsed_ns());
            m.push_extra("build_rows", build.num_rows() as u64);
            // An AU span charges its operator's output instead
            // ([`Driver::finish_node`]), as the row interpreter does.
            if self.semantics != Semantics::Au {
                let bytes = stream_mem_bytes(&build);
                self.track_mem(bytes);
                m.push_extra("mem_bytes", bytes);
            }
            m.children.extend(build_stats);
        }
        Ok(build)
    }

    /// Bind the collected stages bottom-up against the evolving schema,
    /// executing join build sides. When tracing, an open span per bound
    /// stage rides along (labels, estimates, build-side span trees, and
    /// where its output carries the UA marker); untraced runs get none.
    ///
    /// `schema` is the *user* schema throughout. Under AU the stream
    /// carries its flattened form (`flat`), so AU stages keep the user
    /// schema they bound against, and a join's probe is prepared from its
    /// executed build side ([`AuProbe::new`]).
    fn bind_stages(
        &self,
        specs: Vec<(Spec<'_>, &Plan)>,
        source_schema: Schema,
    ) -> Result<(Vec<Stage>, Schema, Vec<Span>), EngineError> {
        let (mut schema, mut flat) = match self.semantics {
            Semantics::Au => (user_schema(&source_schema), Some(source_schema)),
            Semantics::Det | Semantics::Ua => (source_schema, None),
        };
        let mut stages: Vec<Stage> = Vec::with_capacity(specs.len());
        let mut metas: Vec<Span> = Vec::new();
        for (spec, node_plan) in specs.into_iter().rev() {
            let mut meta = self.collect_stats.then(|| self.open_node(node_plan));
            match spec {
                Spec::Filter(p) => {
                    let pred = p.bind(&schema).map_err(EngineError::Expr)?;
                    stages.push(match flat {
                        Some(_) => Stage::AuFilter {
                            pred,
                            user: schema.clone(),
                        },
                        None => Stage::Filter(pred),
                    });
                }
                Spec::Project(cols) => {
                    let exprs: Vec<Expr> = cols
                        .iter()
                        .map(|c| c.expr.bind(&schema))
                        .collect::<Result<_, _>>()
                        .map_err(EngineError::Expr)?;
                    let out = Schema::new(cols.iter().map(|c| c.column.clone()).collect());
                    let user = std::mem::replace(&mut schema, out.clone());
                    stages.push(match &mut flat {
                        Some(flat) => {
                            *flat = flattened_schema(&out);
                            Stage::AuProject {
                                exprs,
                                user,
                                flat: flat.clone(),
                            }
                        }
                        None => Stage::Project { exprs, schema: out },
                    });
                }
                Spec::Requalify(name) => {
                    schema = schema.with_qualifier(name);
                    if let Some(flat) = &mut flat {
                        *flat = flattened_schema(&schema);
                    }
                    stages.push(Stage::Requalify(flat.as_ref().unwrap_or(&schema).clone()));
                }
                Spec::Join {
                    build_plan,
                    build_left,
                } => {
                    let build = self.build_side(build_plan, meta.as_mut())?;
                    if let Some(flat) = &mut flat {
                        let probe = AuProbe::new(node_plan, build, schema, &self.pool)?;
                        schema = probe.user.clone();
                        *flat = flattened_schema(&schema);
                        stages.push(Stage::AuProbe(probe));
                    } else {
                        let (left, right) = if build_left {
                            (&build.schema, &schema)
                        } else {
                            (&schema, &build.schema)
                        };
                        let spec = JoinSpec::bind(node_plan, left, right)?;
                        let state = ProbeState::new(build, spec, Some(&self.pool))?;
                        schema = state.out_schema().clone();
                        stages.push(Stage::Probe(state));
                    }
                }
            }
            metas.extend(meta.map(|meta| (meta, self.ua_marker(node_plan, &schema))));
        }
        Ok((stages, flat.unwrap_or(schema), metas))
    }

    /// Scan base table `name`: its decoded chunks come out of the
    /// catalog's chunk store ([`Catalog::chunks_of`]) as clones of the
    /// `Arc`-shared column buffers — O(batches × columns) pointer bumps.
    /// Only the first scan of a registration in this encoding (and batch
    /// size) decodes, on this query's pool, with the one converter the
    /// encoding has: plain rows — a UA-encoded table, whose markers the
    /// `⟦·⟧_UA` rewriting checked, scans as the plain table it is stored as
    /// — or AU flattened-canonical with every validation rule of
    /// [`Driver::au_scan`]. A decode error is returned, not stored.
    fn scan(&self, name: &str) -> Result<BatchStream, EngineError> {
        let encoding = match self.semantics {
            Semantics::Det | Semantics::Ua => Semantics::Det,
            Semantics::Au => Semantics::Au,
        };
        let chunks = self
            .catalog
            .chunks_of(name, encoding, self.batch_rows, |table| {
                let stream = match encoding {
                    Semantics::Au => self.au_scan(table)?,
                    _ => batches_from_table_pooled(table, self.batch_rows, &self.pool),
                };
                let bytes = resident_bytes(&stream);
                Ok::<_, EngineError>((Arc::new(stream) as Chunks, bytes))
            })?
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        let stream: &BatchStream = chunks
            .downcast_ref()
            .expect("this scan is the chunk store's only writer");
        Ok(stream.clone())
    }

    /// Execute a pipeline source / breaker node, with its span when
    /// tracing. Scan, δ, γ, `−`, `⟕` and — under AU — `Plan::Join` pick
    /// their implementation by semantics; Sort / Top-K / Limit / ∪ are the
    /// same columnar operators for all three (the flattened AU row layout
    /// *is* the AU sort tie-break order, so [`ops::sort`] and
    /// [`ops::top_k`] reproduce `ua_ranges::ops::sort_by_bg` + `limit`
    /// byte for byte).
    fn source_traced(
        &self,
        plan: &Plan,
    ) -> Result<(BatchStream, Option<OperatorStats>), EngineError> {
        let timer = self.collect_stats.then(Stopwatch::start);
        let semantics = self.semantics;
        let au = semantics == Semantics::Au;
        // AU γ's possible-member visits outside its passes over the input,
        // and the candidate pairs AU `−` / `⟕` / `⋈` refined.
        let mut listed_rows = 0;
        let mut refined = 0;
        let (stream, children) = match plan {
            Plan::Scan(name) => (self.scan(name)?, Vec::new()),
            Plan::UnionAll { left, right } => {
                let (l, r, children) = self.inputs(left, right)?;
                if au {
                    // The row engine's check and error speak of the *user*
                    // arities, not the flattened ones.
                    user_schema(&l.schema)
                        .check_union_compatible(&user_schema(&r.schema))
                        .map_err(EngineError::Schema)?;
                }
                (ops::union_all(l, r)?, children)
            }
            // Under AU, difference and outer join select through the shared
            // bound rules of `ua_ranges::ops` (the row interpreter's own
            // `except` / `outer_join` run them too), so the engines cannot
            // diverge on the `[lb, bg, ub]` arithmetic.
            Plan::Except { left, right, all } => {
                let (l, r, children) = self.inputs(left, right)?;
                let out = if au {
                    let (out, pairs) = self.au_except(l, r, *all)?;
                    refined = pairs;
                    out
                } else {
                    ops::except(l, r, *all)?
                };
                (out, children)
            }
            Plan::OuterJoin {
                left,
                right,
                predicate,
                kind,
            } => {
                let (l, r, children) = self.inputs(left, right)?;
                let out = if au {
                    let left_kind = *kind == ua_plan::plan::OuterKind::Left;
                    let (out, pairs) = self.au_outer_join(l, r, predicate.as_ref(), left_kind)?;
                    refined = pairs;
                    out
                } else {
                    let spec = JoinSpec::bind(plan, &l.schema, &r.schema)?;
                    ops::outer_join(l, r, spec, Some(&self.pool))?
                };
                (out, children)
            }
            Plan::Sort { input, keys } | Plan::TopK { input, keys, .. } => {
                let (stream, child) = self.input(input)?;
                // AU sort keys may name user columns only, as on the row
                // engine; those lead the flattened layout, so positions
                // bound against the user schema hold for the stream.
                let au_keys = au
                    .then(|| ops::bind_sort_keys(keys, &user_schema(&stream.schema)))
                    .transpose()?;
                let keys = au_keys.as_ref().unwrap_or(keys);
                let sorted = match plan {
                    Plan::TopK { limit, .. } => ops::top_k(stream, keys, *limit, self.batch_rows),
                    _ => ops::sort(stream, keys, self.batch_rows),
                };
                (sorted?, child)
            }
            Plan::Limit { input, limit } => {
                let (stream, child) = self.input(input)?;
                (ops::limit(stream, *limit), child)
            }
            Plan::Distinct { input } => {
                let (stream, child) = self.input(input)?;
                let distinct = if au {
                    self.au_distinct(&stream)?
                } else {
                    ops::distinct(stream)
                };
                (distinct, child)
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let (stream, child) = self.input(input)?;
                let grouped = if au {
                    self.au_aggregate(&stream, group_by, aggregates)
                        .map(|(out, listed)| {
                            listed_rows = listed;
                            out
                        })
                } else {
                    ops::aggregate(stream, group_by, aggregates, &self.pool)
                };
                (grouped?, child)
            }
            Plan::Join {
                left,
                right,
                predicate,
            } if au => {
                let (l, r, children) = self.inputs(left, right)?;
                let (out, pairs) = self.au_join(l, r, predicate.as_ref())?;
                refined = pairs;
                (out, children)
            }
            Plan::Filter { .. }
            | Plan::Map { .. }
            | Plan::Alias { .. }
            | Plan::Join { .. }
            | Plan::HashJoin { .. } => {
                unreachable!("pipelineable nodes are collected into the chain")
            }
        };
        // Det / UA pipeline breakers hold their whole output (and their
        // build state) materialized at once — charge that against the
        // query's memory accumulator and surface it on the span. Scans
        // charge nothing: base-table batches share the catalog's storage —
        // every buffer of a scan is the chunk store's (`Driver::scan`),
        // whose size is the `catalog.chunk_bytes` gauge, not a per-query
        // figure. (AU spans charge and release every operator's output,
        // see [`Driver::finish_node`].)
        let breaker_bytes = (self.collect_stats
            && !au
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
            let mut tally = StageTally {
                marker: self.ua_marker(plan, &stream.schema),
                rowwise: refined,
                ..StageTally::default()
            };
            for batch in &stream.batches {
                tally.observe(batch, None, semantics);
            }
            // `timer` spans children too, so the elapsed time is already
            // cumulative — exactly the [`OperatorStats::wall_ns`] contract —
            // and it stops after the observation, which the operator pays.
            tally.wall_ns = timer.elapsed_ns();
            let mut node = self.open_node(plan);
            node.extra
                .extend(breaker_bytes.map(|bytes| ("mem_bytes".into(), bytes)));
            // Like a projection's `rowwise_rows`: only when some group left
            // the fold's passes over the input.
            if listed_rows > 0 {
                node.push_extra("listed_rows", listed_rows);
            }
            node.children = children;
            self.finish_node(node, tally)
        });
        Ok((stream, stats))
    }

    /// Where `plan`'s output carries the UA certainty marker, under UA
    /// ([`certainty_marker`], the row engine's rule): the column its
    /// `certain_rows` counts.
    fn ua_marker(&self, plan: &Plan, schema: &Schema) -> Option<usize> {
        (self.semantics == Semantics::Ua)
            .then(|| certainty_marker(plan, schema))
            .flatten()
    }

    /// Close the span of a finished operator — pipeline stage or source —
    /// with its output tally (`tally.wall_ns` already cumulative): the one
    /// place a finished operator's figures are written. The per-semantics
    /// telemetry goes on here: UA certain-row counts; under AU the
    /// bound-precision profile the row interpreter records
    /// ([`WidthSummary`]: which operator widened bounds toward ⊤, and by
    /// how much), the output's logical bytes, and how much of a σ / π /
    /// hash-⋈ paid the per-row price of uncertainty. AU charges each
    /// operator's output against the query memory accumulator and releases
    /// it with the span, so the query peak is the largest single operator
    /// — the row AU interpreter's rule.
    fn finish_node(&self, mut node: OperatorStats, tally: StageTally) -> OperatorStats {
        node.rows_out = tally.rows_out;
        node.batches_out = tally.batches_out;
        node.wall_ns = tally.wall_ns;
        match self.semantics {
            Semantics::Det | Semantics::Ua => {
                if tally.marker.is_some() {
                    node.push_extra("certain_rows", tally.certain_rows);
                }
            }
            Semantics::Au => {
                let ws = &tally.width;
                node.push_extra("certain_rows", ws.certain_rows);
                node.push_extra("top_attrs_permille", ws.top_attr_permille());
                node.push_extra("rel_width_permille", ws.mean_rel_width_permille());
                node.push_extra("mult_spread", ws.mult_spread);
                ua_obs::MemTracker::new().alloc(tally.mem_bytes);
                node.push_extra("mem_bytes", tally.mem_bytes);
                match node.name.as_str() {
                    "Filter" => node.push_extra("rowwise_rows", tally.rowwise),
                    // A projection is row-wise by exception (most are plain
                    // references): the extra appears only when it was.
                    "Map" if tally.rowwise > 0 => node.push_extra("rowwise_rows", tally.rowwise),
                    "HashJoin" | "Join" | "OuterJoin" | "Except" => {
                        node.push_extra("rowwise_pairs", tally.rowwise)
                    }
                    _ => {}
                }
            }
        }
        node
    }

    /// Close an instrumented run into its [`QueryStats`]: replay morsel spans
    /// *before* `take_metrics` drains the shared pool state, and disarm the
    /// memory accumulator unconditionally so an uninstrumented (or failed)
    /// follow-up query starts clean.
    fn finish_query_stats(&self, root: Option<OperatorStats>) -> Option<QueryStats> {
        if self.collect_trace {
            inject_pool_spans(&self.pool);
        }
        let peak_mem_bytes = ua_obs::mem_query_finish().unwrap_or(0);
        let root = root?;
        let m = self.pool.take_metrics();
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
            spawns: m.spawns,
        };
        Some(QueryStats {
            engine: "vectorized".into(),
            semantics: self.semantics.name().into(),
            root,
            pool: Some(pool_stats),
            peak_mem_bytes,
        })
    }
}

/// Deterministic logical size of one batch, matching the row engine's
/// [`ua_plan::stats::tuple_mem_bytes`] convention (8 bytes of row
/// header plus one 16-byte slot per value, plus string payload lengths):
/// the figure depends only on logical shape, never on allocator layout,
/// batch size or thread count, so `mem_bytes` columns are comparable
/// across both engines and stable under the determinism grid.
fn batch_mem_bytes(batch: &ColumnBatch) -> u64 {
    let mut bytes = 8 * batch.len() as u64;
    for c in 0..batch.schema().arity() {
        bytes += column_mem_bytes(batch.column(c));
    }
    bytes
}

/// One column's logical bytes under the same convention: one 16-byte
/// value slot per row plus string payload lengths.
pub(crate) fn column_mem_bytes(col: &ColumnVec) -> u64 {
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
fn stream_mem_bytes(stream: &BatchStream) -> u64 {
    stream.batches.iter().map(batch_mem_bytes).sum()
}

/// What a decoded stream keeps resident in the chunk store, the figure
/// behind the `catalog.chunk_bytes` gauge: element size × length of every
/// column buffer, each shared buffer (an AU bound column that is its `bg`
/// column) counted once.
/// String payloads are the row store's own `Arc<str>`s and count nothing.
fn resident_bytes(stream: &BatchStream) -> u64 {
    fn buffer<T>(v: &Arc<Vec<T>>) -> (usize, u64) {
        (
            Arc::as_ptr(v) as usize,
            std::mem::size_of_val(v.as_slice()) as u64,
        )
    }
    let mut seen = ua_data::FxHashSet::default();
    let mut bytes = 0;
    for b in &stream.batches {
        let columns = b.columns().iter().map(|c| match c {
            ColumnVec::Int(v) => buffer(v),
            ColumnVec::Float(v) => buffer(v),
            ColumnVec::Bool(v) => buffer(v),
            ColumnVec::Str(v) => buffer(v),
            ColumnVec::Mixed(v) => buffer(v),
        });
        for (ptr, len) in columns {
            if seen.insert(ptr) {
                bytes += len;
            }
        }
    }
    bytes
}

/// Replay the pool's recorded per-morsel task spans onto the session
/// thread's trace ring (`morsel N` / `build N`, category `pool`, tid
/// `1 + worker`), then drop them. No-op when no trace ring is armed.
fn inject_pool_spans(pool: &rayon::ThreadPool) {
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

/// One operator's output tally. A pipeline stage's is taken per morsel and
/// summed across morsels in batch-index order; every field is integral and
/// summation is order-insensitive, so the merged figures are deterministic
/// across thread counts and batch sizes.
#[derive(Clone, Default)]
struct StageTally {
    rows_out: u64,
    batches_out: u64,
    wall_ns: u64,
    /// UA: the output's marker column, decided before the operator ran
    /// ([`Driver::ua_marker`]); `None` counts no `certain_rows`.
    marker: Option<usize>,
    /// UA: output rows whose marker is `1`.
    certain_rows: u64,
    /// AU: the output's bound-precision profile.
    width: WidthSummary,
    /// AU: the output's logical bytes.
    mem_bytes: u64,
    /// AU: σ / π input rows, and ⋈ / `⟕` / `−` candidate pairs, that left
    /// the columnar kernels for the per-row range evaluator.
    rowwise: u64,
}

impl StageTally {
    /// Count one output batch in — its `rows` when given — with the
    /// telemetry `semantics` calls for.
    fn observe(&mut self, batch: &ColumnBatch, rows: Option<&[u32]>, semantics: Semantics) {
        self.batches_out += 1;
        self.rows_out += rows.map_or(batch.len(), <[u32]>::len) as u64;
        if let Some(marker) = self.marker {
            let column = batch.column(marker);
            let certain = |i: usize| match column {
                ColumnVec::Int(v) => v[i] == 1,
                other => other.value(i) == Value::Int(1),
            };
            self.certain_rows += match rows {
                None => (0..batch.len()).filter(|&i| certain(i)).count(),
                Some(rows) => rows.iter().filter(|&&i| certain(i as usize)).count(),
            } as u64;
        }
        if semantics == Semantics::Au {
            debug_assert!(rows.is_none(), "an observed AU morsel is gathered");
            au_exec::observe_width(batch, &mut self.width);
            self.mem_bytes += au_exec::batch_mem_bytes(batch);
        }
    }

    fn merge(&mut self, other: &StageTally) {
        self.rows_out += other.rows_out;
        self.batches_out += other.batches_out;
        self.wall_ns += other.wall_ns;
        self.certain_rows += other.certain_rows;
        self.width.merge(&other.width);
        self.mem_bytes += other.mem_bytes;
        self.rowwise += other.rowwise;
    }
}

/// A bound stage's open span and the column its UA `certain_rows` count
/// reads ([`StageTally::marker`]).
type Span = (OperatorStats, Option<usize>);

/// Run one morsel through the stage chain. Pure function of the input
/// batch — the parallel driver's determinism rests on this. With
/// `observe`, a per-stage [`StageTally`] — started from the stage's empty
/// one — rides *next to* the batches (an empty list otherwise); the
/// batches themselves are bit for bit what the unobserved run produces.
/// A stage's clock stops after its output is observed, so the operator
/// observed pays for it; the last stage's clock also covers the gather
/// that materialises the chain's output.
fn run_chain(
    batch: ColumnBatch,
    stages: &[Stage],
    observe: Option<(Semantics, &[StageTally])>,
) -> Result<(Vec<ColumnBatch>, Vec<StageTally>), EngineError> {
    let mut tallies = observe.map_or_else(Vec::new, |(_, empty)| empty.to_vec());
    let mut cur: Vec<Morsel> = if batch.is_empty() {
        Vec::new()
    } else {
        vec![batch.into()]
    };
    for (span, stage) in stages.iter().enumerate() {
        if cur.is_empty() {
            break;
        }
        let timer = observe.is_some().then(Stopwatch::start);
        let mut next = Vec::new();
        let mut rowwise = 0;
        for morsel in cur {
            rowwise += apply_stage(stage, morsel, &mut next)?;
        }
        // The chain's output leaves gathered. So does an observed AU
        // stage's: its width profile reads whole batches, and a consumer
        // reading the gathered rows reads what the selection names.
        let au_observed = observe.is_some_and(|(semantics, _)| semantics == Semantics::Au);
        if span + 1 == stages.len() || au_observed {
            next = next
                .into_iter()
                .map(|morsel| morsel.into_batch().into())
                .collect();
        }
        if let (Some((semantics, _)), Some(timer)) = (observe, timer) {
            let t = &mut tallies[span];
            t.rowwise = rowwise;
            for morsel in &next {
                t.observe(&morsel.batch, morsel.rows(), semantics);
            }
            t.wall_ns = timer.elapsed_ns();
        }
        cur = next;
    }
    Ok((cur.into_iter().map(Morsel::into_batch).collect(), tallies))
}

/// Apply one stage to one morsel, appending its output morsels to `out`.
/// Returns how many input rows (hash-⋈: candidate pairs) took the AU
/// per-row range path (always 0 outside `⟦σ⟧_AU` / `⟦π⟧_AU` / `⟦⋈⟧_AU`).
fn apply_stage(stage: &Stage, morsel: Morsel, out: &mut Vec<Morsel>) -> Result<u64, EngineError> {
    match stage {
        Stage::Filter(pred) => {
            let batch = morsel.into_batch();
            match filter_selection(pred, &batch)? {
                None => out.push(batch.into()),
                Some(rows) if rows.is_empty() => {}
                Some(rows) => out.push(Morsel {
                    batch,
                    sel: Some(Survivors { rows, mults: None }),
                }),
            }
        }
        Stage::Project { exprs, schema } => {
            let projected = project_selected(&morsel.batch, morsel.rows(), exprs, schema)?;
            out.push(projected.into());
        }
        Stage::Requalify(schema) => out.push(Morsel {
            batch: morsel.batch.with_schema(schema.clone()),
            sel: morsel.sel,
        }),
        Stage::Probe(probe) => {
            let mut joined = Vec::new();
            probe.probe(&morsel.batch, morsel.rows(), &mut joined)?;
            out.extend(joined.into_iter().map(Morsel::from));
        }
        Stage::AuFilter { pred, user } => {
            let batch = morsel.into_batch();
            let (sel, rowwise) = filter_select(&batch, pred, user, user.arity())?;
            if sel.as_ref().is_none_or(|sel| !sel.rows.is_empty()) {
                out.push(Morsel { batch, sel });
            }
            au_exec::count_rowwise("au.vec.rowwise.filter_rows", rowwise);
            return Ok(rowwise);
        }
        Stage::AuProject { exprs, user, flat } => {
            let batch = morsel.into_batch();
            let (mapped, rowwise) = map_batch(&batch, exprs, user, flat, user.arity())?;
            out.push(mapped.into());
            au_exec::count_rowwise("au.vec.rowwise.project_rows", rowwise);
            return Ok(rowwise);
        }
        Stage::AuProbe(probe) => {
            let (joined, refined) = probe.probe(&morsel.batch, morsel.sel.as_ref())?;
            out.extend(joined.map(Morsel::from));
            au_exec::count_rowwise("au.vec.rowwise.join_pairs", refined);
            return Ok(refined);
        }
    }
    Ok(0)
}
