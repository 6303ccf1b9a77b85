//! Every engine-facing call of the benchmark lives here, so an API change in
//! the repository has one file to follow: data generation, session loading,
//! the six end-to-end query paths, and the layer-by-layer replay of each
//! path through the crates' public functions.

use crate::trace::Recorder;
use crate::workloads::Sizes;
use ua_data::{Schema, Tuple, Value};
use ua_datagen::pdbench::{inject_db, PdbenchConfig, UncertainDb};
use ua_datagen::queries::pdbench_uncertain_columns;
use ua_datagen::tpch::{self, TpchConfig};
use ua_engine::optimize::{optimize_with, OptimizerPasses};
use ua_engine::sql::RejectAnnotations;
use ua_engine::{AuResult, ExecOptions, Plan, QueryStats, Table, TableStats, UaResult, UaSession};
use ua_ranges::AuRelation;

pub use ua_engine::{ExecMode, OperatorStats, UA_FRAGMENT_ERROR};
pub use ua_ranges::WidthSummary;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sem {
    Det,
    Ua,
    Au,
}

pub const SEMS: [Sem; 3] = [Sem::Det, Sem::Ua, Sem::Au];

/// One of the six timed configurations.
#[derive(Clone, Copy)]
pub struct Config {
    pub name: &'static str,
    pub sem: Sem,
    pub mode: ExecMode,
}

pub const CONFIGS: [Config; 6] = [
    Config {
        name: "det_row",
        sem: Sem::Det,
        mode: ExecMode::Row,
    },
    Config {
        name: "ua_row",
        sem: Sem::Ua,
        mode: ExecMode::Row,
    },
    Config {
        name: "au_row",
        sem: Sem::Au,
        mode: ExecMode::Row,
    },
    Config {
        name: "det_vec",
        sem: Sem::Det,
        mode: ExecMode::Vectorized,
    },
    Config {
        name: "ua_vec",
        sem: Sem::Ua,
        mode: ExecMode::Vectorized,
    },
    Config {
        name: "au_vec",
        sem: Sem::Au,
        mode: ExecMode::Vectorized,
    },
];

/// Register the vectorized executor with the engine (once per process).
pub fn install() {
    ua_vecexec::install();
}

/// The generated uncertain database in every representation the three
/// sessions load from.
pub struct RawData {
    pub sizes: Sizes,
    db: UncertainDb,
    /// `supplier` as a raw x-table (`xid, aid, p, …`) and a raw TI-table
    /// (`p, …`), the inputs of `short_mixed`'s `IS X` / `IS TI` sources.
    supplier_x: Table,
    supplier_ti: Table,
}

const TABLES: [&str; 6] = [
    "region", "nation", "supplier", "customer", "orders", "lineitem",
];

/// PDBench cell uncertainty of every workload.
const UNCERTAINTY: f64 = 0.05;

pub fn generate(scale: f64, seed: u64, rec: &Recorder) -> RawData {
    let config = TpchConfig::new(scale, seed);
    let data = rec.span("datagen.generate", || tpch::generate(&config));
    let db = rec.span("datagen.inject", || {
        let tables: Vec<(&str, &Table, &[&str])> = data
            .tables()
            .into_iter()
            .map(|(name, table)| (name, table, pdbench_uncertain_columns(name)))
            .collect();
        inject_db(
            &tables,
            &PdbenchConfig {
                uncertainty: UNCERTAINTY,
                seed,
                ..PdbenchConfig::default()
            },
        )
    });
    let supplier = db.xdb.get("supplier").expect("supplier was injected");
    let attrs: Vec<String> = supplier
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.to_string())
        .collect();
    let columns = |lead: &[&str]| -> Vec<String> {
        lead.iter()
            .map(|s| s.to_string())
            .chain(attrs.iter().cloned())
            .collect()
    };
    let mut x_rows = Vec::new();
    let mut ti_rows = Vec::new();
    for (xid, xt) in supplier.xtuples().iter().enumerate() {
        for (aid, alt) in xt.alternatives.iter().enumerate() {
            let mut values = vec![
                Value::Int(xid as i64),
                Value::Int(aid as i64),
                Value::float(alt.probability),
            ];
            values.extend(alt.tuple.values().iter().cloned());
            x_rows.push(Tuple::new(values));
        }
        // The original row with its alternative's mass: 1 on certain rows,
        // 0.5 (in the best-guess world, not certain) on injected ones.
        let best = &xt.alternatives[0];
        let mut values = vec![Value::float(best.probability)];
        values.extend(best.tuple.values().iter().cloned());
        ti_rows.push(Tuple::new(values));
    }
    RawData {
        sizes: Sizes {
            suppliers: config.suppliers() as i64,
            customers: config.customers() as i64,
            orders: config.orders() as i64,
        },
        supplier_x: Table::from_rows(
            Schema::qualified("supplier_x", columns(&["xid", "aid", "p"])),
            x_rows,
        ),
        supplier_ti: Table::from_rows(Schema::qualified("supplier_ti", columns(&["p"])), ti_rows),
        db,
    }
}

/// Time the four labeling-scheme source conversions on the raw supplier
/// tables (what the first `IS X` / `IS TI` statement of a session pays).
pub fn convert_sources(raw: &RawData, rec: &Recorder) -> Result<(), String> {
    rec.span("models.x_source", || {
        ua_engine::x_source(&raw.supplier_x, "xid", "aid", "p")?;
        ua_engine::x_source_au(&raw.supplier_x, "xid", "aid", "p")
    })
    .map_err(|e| e.to_string())?;
    rec.span("models.ti_source", || {
        ua_engine::ti_source(&raw.supplier_ti, "p")?;
        ua_engine::ti_source_au(&raw.supplier_ti, "p")
    })
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// A query result under one of the three semantics.
pub enum Output {
    Det(Table),
    Ua(UaResult),
    Au(AuResult),
}

impl Output {
    pub fn table(&self) -> &Table {
        match self {
            Output::Det(t) => t,
            Output::Ua(r) => &r.table,
            Output::Au(r) => &r.table,
        }
    }

    /// The result in the best-guess world as a sorted bag of user rows —
    /// the same bag under all three semantics.
    pub fn best_guess_rows(&self) -> Vec<Tuple> {
        match self {
            Output::Det(t) => t.sorted_rows(),
            Output::Ua(r) => {
                let mut rows: Vec<Tuple> = r
                    .rows_with_certainty()
                    .into_iter()
                    .map(|(t, _)| t)
                    .collect();
                rows.sort();
                rows
            }
            Output::Au(r) => r.sg_table().sorted_rows(),
        }
    }

    /// `(certain rows, rows)` of an uncertain result.
    pub fn certainty_counts(&self) -> Option<(usize, usize)> {
        match self {
            Output::Det(_) => None,
            Output::Ua(r) => Some(r.certainty_counts()),
            Output::Au(r) => Some(r.certainty_counts()),
        }
    }

    /// The bound-precision profile of an AU result.
    pub fn width(&self) -> Option<WidthSummary> {
        match self {
            Output::Au(r) => Some(WidthSummary::of(&r.decode())),
            _ => None,
        }
    }

    /// An order-insensitive hash of the result rows.
    pub fn checksum(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        self.table().rows().iter().fold(0u64, |acc, row| {
            let mut h = ua_data::FxHasher::default();
            row.hash(&mut h);
            acc.wrapping_add(h.finish())
        })
    }
}

/// The three sessions of one x-DB: deterministic over the best-guess world,
/// UA over `Enc` tables, AU over `au_table` tables, under the same names.
pub struct Sessions {
    det: UaSession,
    ua: UaSession,
    au: UaSession,
    threads: usize,
}

impl Sessions {
    /// Generated raw tables in memory → all three sessions queryable.
    pub fn load(raw: &RawData, threads: usize, rec: &Recorder) -> Sessions {
        let s = Sessions {
            det: UaSession::new(),
            ua: UaSession::new(),
            au: UaSession::new(),
            threads,
        };
        for name in TABLES {
            let bgw = raw.db.bgw[name].clone();
            rec.span("storage.register", || s.det.register_table(name, bgw));
            let enc = rec.span("core.encode", || raw.db.encoded[name].clone());
            rec.span("storage.register", || s.ua.register_table(name, enc));
            let xrel = raw.db.xdb.get(name).expect("every table was injected");
            let blocks: Vec<Vec<(Tuple, f64)>> = xrel
                .xtuples()
                .iter()
                .map(|xt| {
                    xt.alternatives
                        .iter()
                        .map(|a| (a.tuple.clone(), a.probability))
                        .collect()
                })
                .collect();
            let rel = rec.span("ranges.from_x_blocks", || {
                AuRelation::from_x_blocks(xrel.schema().clone(), blocks.iter().map(Vec::as_slice))
            });
            let table = rec.span("ranges.au_table", || ua_engine::au_table(&rel));
            rec.span("storage.register", || s.au.register_table(name, table));
        }
        for session in [&s.det, &s.ua, &s.au] {
            session.set_vec_threads(threads);
            rec.span("storage.register", || {
                session.register_table("supplier_x", raw.supplier_x.clone());
                session.register_table("supplier_ti", raw.supplier_ti.clone());
            });
        }
        s
    }

    fn session(&self, sem: Sem) -> &UaSession {
        match sem {
            Sem::Det => &self.det,
            Sem::Ua => &self.ua,
            Sem::Au => &self.au,
        }
    }

    /// SQL string in → result table out, through the session entry point.
    pub fn run(&self, cfg: Config, sql: &str) -> Result<Output, String> {
        let session = self.session(cfg.sem);
        session.set_exec_mode(cfg.mode);
        match cfg.sem {
            Sem::Det => session.query_det(sql).map(Output::Det),
            Sem::Ua => session.query_ua(sql).map(Output::Ua),
            Sem::Au => session.query_au(sql).map(Output::Au),
        }
        .map_err(|e| e.to_string())
    }

    pub fn set_vec_threads(&self, threads: usize) {
        for sem in SEMS {
            self.session(sem).set_vec_threads(threads);
        }
    }

    /// Turn the sessions' own observers (stats trees, trace ring) on or off.
    pub fn set_observers(&self, stats: bool, trace: bool) {
        for sem in SEMS {
            self.session(sem).set_stats_enabled(stats);
            self.session(sem).set_trace_enabled(trace);
        }
    }

    pub fn last_stats(&self, sem: Sem) -> Option<QueryStats> {
        self.session(sem).last_query_stats()
    }

    /// Byte length of the session's Perfetto trace of the last query.
    pub fn last_trace_len(&self, sem: Sem) -> usize {
        self.session(sem).last_query_trace().map_or(0, |t| t.len())
    }

    /// Logical bytes (`tuple_mem_bytes`) of every table registered in the
    /// session of `sem`, derived sources included.
    pub fn table_bytes(&self, sem: Sem) -> u64 {
        let catalog = self.session(sem).catalog();
        catalog
            .table_names()
            .iter()
            .filter_map(|name| catalog.get(name))
            .map(|t| {
                t.rows()
                    .iter()
                    .map(ua_engine::stats::tuple_mem_bytes)
                    .sum::<u64>()
            })
            .sum()
    }

    /// `TableStats::collect` alone over every registered table — the part
    /// of `Catalog::register` that is statistics collection.
    pub fn collect_stats(&self, rec: &Recorder) {
        for sem in SEMS {
            let catalog = self.session(sem).catalog();
            for name in catalog.table_names() {
                if let Some(table) = catalog.get(&name) {
                    rec.span("storage.stats_collect", || {
                        std::hint::black_box(TableStats::collect(&table));
                    });
                }
            }
        }
    }

    /// Convert base table `name` of the det and UA sessions to column
    /// batches, as every vectorized scan of it does.
    pub fn scan_convert(&self, name: &str, rec: &Recorder) -> Result<(), String> {
        let pool = pool(self.threads);
        let rows = ua_vecexec::DEFAULT_BATCH_ROWS;
        if let Some(table) = self.det.catalog().get(name) {
            rec.span("columnar.scan_convert", || {
                std::hint::black_box(ua_vecexec::batches_from_table_pooled(&table, rows, &pool));
            });
        }
        if let Some(table) = self.ua.catalog().get(name) {
            rec.span("columnar.ua_scan_convert", || {
                ua_vecexec::columnar::batches_from_encoded_table_pooled(&table, name, rows, &pool)
                    .map(|s| {
                        std::hint::black_box(s);
                    })
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Run `sql` under `cfg` one layer at a time through the crates' public
    /// functions, a span around each call, mirroring what the session entry
    /// point does inside. Returns the result's row count, or `None` for a
    /// statement the replay cannot follow from outside: annotated sources
    /// (the resolvers are private) and, under UA, statements UA rejects.
    pub fn replay(&self, cfg: Config, sql: &str, rec: &Recorder) -> Result<Option<usize>, String> {
        let session = self.session(cfg.sem);
        let catalog = session.catalog();
        let err = |e: ua_engine::EngineError| e.to_string();
        let ast = rec
            .span("sql.parse", || ua_engine::parse(sql))
            .map_err(|e| e.to_string())?;
        let Ok(plan) = rec.span("sql.plan", || {
            ua_engine::plan_query(&ast, catalog, &RejectAnnotations)
        }) else {
            return Ok(None);
        };
        let opts = ExecOptions {
            threads: self.threads,
            ..ExecOptions::default()
        };
        let table: Table = match (cfg.sem, cfg.mode) {
            (Sem::Det, ExecMode::Row) => {
                let plan = rec.span("optimize.optimize", || ua_engine::optimize(plan, catalog));
                rec.span("exec.det_row_execute", || {
                    ua_engine::execute(&plan, catalog)
                })
                .map_err(err)?
            }
            (Sem::Det, ExecMode::Vectorized) => {
                let plan = rec.span("optimize.optimize", || ua_engine::optimize(plan, catalog));
                let stream = rec
                    .span("vecexec.det_stream", || {
                        ua_vecexec::exec::exec_stream_opts(&plan, catalog, opts)
                    })
                    .map_err(err)?;
                let pool = pool(self.threads);
                rec.span("columnar.materialize", || {
                    ua_vecexec::table_from_batches_pooled(&stream, &pool)
                })
            }
            (Sem::Ua, mode) => {
                let (wrappers, core) = peel_sort_limit(&plan);
                let vectorized = mode == ExecMode::Vectorized;
                let negation = contains_negation(core);
                let ra = core.to_ra();
                if ra.is_none() && !negation {
                    return Ok(None);
                }
                // EXCEPT / outer joins: the vectorized engine takes the user
                // plan whole; the row engine's temp-table path is private
                // to the session, so there it stays one span.
                if negation && !vectorized {
                    session.set_exec_mode(mode);
                    let table = rec
                        .span("session.ua_negation", || session.query_ua(sql))
                        .map_err(err)?
                        .table;
                    let rows = table.len();
                    rec.span("client.drop_result", || drop(table));
                    return Ok(Some(rows));
                }
                let user = rec.span("optimize.optimize", || match ra {
                    Some(ra) => {
                        let reordered =
                            ua_engine::reorder_joins_ua(Plan::from_ra(&ra), catalog).to_ra();
                        Plan::from_ra(&reordered.unwrap_or(ra))
                    }
                    None => ua_engine::reorder_joins_ua(core.clone(), catalog),
                });
                if vectorized {
                    let plan = rec.span("optimize.optimize", || {
                        let passes = OptimizerPasses {
                            positional_joins: false,
                            reorder_joins: false,
                            ..OptimizerPasses::default()
                        };
                        rewrap(optimize_with(user, catalog, passes), &wrappers)
                    });
                    let stream = rec
                        .span("vecexec.ua_stream", || {
                            ua_vecexec::ua::ua_stream_opts(&plan, catalog, opts)
                        })
                        .map_err(err)?;
                    let pool = pool(self.threads);
                    rec.span("columnar.ua_materialize", || {
                        ua_vecexec::columnar::encoded_table_from_batches_pooled(&stream, &pool)
                    })
                } else {
                    let ra = user.to_ra().expect("built from an RA+ expression");
                    let lookup = |name: &str| catalog.schema_of(name);
                    let rewritten = rec
                        .span("core.rewrite", || ua_core::rewrite_ua(&ra, &lookup))
                        .map_err(|e| e.to_string())?;
                    let plan = rec.span("optimize.optimize", || {
                        rewrap(
                            ua_engine::optimize(Plan::from_ra(&rewritten), catalog),
                            &wrappers,
                        )
                    });
                    rec.span("exec.ua_row_execute", || ua_engine::execute(&plan, catalog))
                        .map_err(err)?
                }
            }
            (Sem::Au, mode) => {
                ua_engine::reject_marker_in_plan(&plan).map_err(err)?;
                let plan = rec.span("optimize.optimize", || {
                    let passes = OptimizerPasses {
                        positional_joins: false,
                        ..OptimizerPasses::default()
                    };
                    optimize_with(plan, catalog, passes)
                });
                if mode == ExecMode::Vectorized {
                    rec.span("vecexec.au_execute", || {
                        ua_vecexec::execute_au_vectorized_opts(&plan, catalog, opts)
                    })
                    .map_err(err)?
                } else {
                    let rel = rec
                        .span("ranges.row_execute", || {
                            ua_engine::execute_au(&plan, catalog)
                        })
                        .map_err(err)?;
                    rec.span("ranges.result_table", || ua_engine::au_table(&rel))
                }
            }
        };
        let rows = table.len();
        // What the timed passes pay when the client lets go of the result.
        rec.span("client.drop_result", || drop(table));
        Ok(Some(rows))
    }
}

/// Decode an AU result into the range-annotated relation, as a client that
/// reads the bounds does.
pub fn decode_au(output: &Output, rec: &Recorder) {
    if let Output::Au(r) = output {
        rec.span("ranges.decode", || {
            std::hint::black_box(r.decode());
        });
    }
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool construction is infallible")
}

/// The trailing `ORDER BY` / `LIMIT` nodes of a plan, outermost first, and
/// the core below them (the UA frontend peels them before rewriting).
fn peel_sort_limit(plan: &Plan) -> (Vec<&Plan>, &Plan) {
    let mut wrappers = Vec::new();
    let mut inner = plan;
    while let Plan::Sort { input, .. } | Plan::Limit { input, .. } = inner {
        wrappers.push(inner);
        inner = input;
    }
    (wrappers, inner)
}

/// Put peeled wrappers back over an optimized core and fuse Top-K.
fn rewrap(mut plan: Plan, wrappers: &[&Plan]) -> Plan {
    for w in wrappers.iter().rev() {
        plan = match w {
            Plan::Sort { keys, .. } => Plan::Sort {
                input: Box::new(plan),
                keys: keys.clone(),
            },
            Plan::Limit { limit, .. } => Plan::Limit {
                input: Box::new(plan),
                limit: *limit,
            },
            _ => unreachable!("peel_sort_limit collects only Sort and Limit"),
        };
    }
    ua_engine::fuse_topk(plan)
}

fn contains_negation(plan: &Plan) -> bool {
    match plan {
        Plan::Except { .. } | Plan::OuterJoin { .. } => true,
        Plan::Scan(_) => false,
        Plan::Alias { input, .. }
        | Plan::Filter { input, .. }
        | Plan::Map { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::TopK { input, .. }
        | Plan::Aggregate { input, .. } => contains_negation(input),
        Plan::Join { left, right, .. }
        | Plan::HashJoin { left, right, .. }
        | Plan::UnionAll { left, right } => contains_negation(left) || contains_negation(right),
    }
}

/// Sum of the eight `au.vec.fallback.*` counters (process-wide).
pub fn au_fallbacks() -> u64 {
    [
        "join",
        "hash_join",
        "aggregate",
        "sort",
        "limit",
        "top_k",
        "union_all",
        "distinct",
    ]
    .iter()
    .map(|op| {
        ua_obs::global()
            .counter(&format!("au.vec.fallback.{op}"))
            .get()
    })
    .sum()
}
