//! Grouped aggregation at 1M rows: deterministic vs UA vs AU.
//!
//! The scenario this PR opens: `GROUP BY` + aggregates over an uncertain
//! source. Under `⟦·⟧_UA` the query is *rejected* (not closed — asserted
//! below); under `⟦·⟧_AU` it executes on both engines with sound
//! attribute-level bounds. Measured:
//!
//! * deterministic grouped aggregation, row vs vectorized — the typed
//!   single-`Int`-key aggregation path; the acceptance bar is **≥ 3x**
//!   vectorized over row;
//! * det-vec aggregation, threads=1 vs threads=4 — byte-equal output
//!   asserted at every thread count unconditionally; reported, not
//!   gated: the pool only evaluates key and argument columns per
//!   morsel, and γ groups and folds on the calling thread;
//! * AU grouped aggregation (range-annotated input, ~6% uncertain rows),
//!   row interpreter vs the batch-native range-triple executor — gated:
//!   the vectorized AU path must beat the row interpreter, stay within
//!   12x of deterministic vectorized aggregation (the columnar
//!   `agg_bounds` kernels over dense lb/bg/ub triples replaced the
//!   per-`RangeValue` fold that sat at ~13-18x; the pre-batch-native
//!   path was ~60x), and run with every `au.vec.fallback.*` counter —
//!   all eight, `distinct` and `union_all` included — pinned;
//! * UA selection+projection over the same data as context (the fragment
//!   UA *can* run).
//!
//! Correctness gates before timing: row and vectorized results identical
//! under every semantics. Writes `BENCH_agg_ranges.json` at the repo root next to the other
//! bench artifacts.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use ua_bench::report::BenchReport;
use ua_data::algebra::ProjColumn;
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_data::Expr;
use ua_engine::plan::{AggExpr, AggFunc, Plan};
use ua_engine::{
    execute, execute_au, execute_row, Catalog, ExecMode, ExecOptions, Semantics, Table, UaSession,
};
use ua_ranges::{AuRelation, AuTuple, Bound, MultBound, RangeValue};
use ua_vecexec::execute as vec_execute;

/// Rows in the scanned table.
const N: usize = 1_000_000;
/// Distinct groups.
const GROUPS: i64 = 64;

fn det_table() -> Table {
    let mut rng = StdRng::seed_from_u64(0xA66);
    Table::from_rows(
        Schema::qualified("events", ["grp", "val"]),
        (0..N)
            .map(|_| {
                Tuple::new(vec![
                    Value::Int(rng.gen_range(0..GROUPS)),
                    Value::Int(rng.gen_range(0..1000)),
                ])
            })
            .collect(),
    )
}

/// The same data range-annotated: ~1/16 of the rows carry a value span
/// and an uncertain presence, the rest are certain points.
fn au_relation(det: &Table) -> AuRelation {
    let mut rel = AuRelation::new(det.schema().clone());
    for (i, row) in det.rows().iter().enumerate() {
        let grp = row.get(0).expect("grp").clone();
        let val = row.get(1).expect("val").clone();
        let uncertain = i % 16 == 0;
        let val_range = if uncertain {
            let v = match val {
                Value::Int(v) => v,
                _ => unreachable!("int column"),
            };
            RangeValue::new(
                Bound::Val(Value::Int(v - 5)),
                Value::Int(v),
                Bound::Val(Value::Int(v + 5)),
            )
        } else {
            RangeValue::point(val)
        };
        rel.push(AuTuple {
            values: vec![RangeValue::point(grp), val_range],
            mult: if uncertain {
                MultBound::new(0, 1, 1)
            } else {
                MultBound::certain(1)
            },
        });
    }
    rel
}

fn agg_plan(table: &str) -> Plan {
    Plan::Aggregate {
        input: Box::new(Plan::Scan(table.into())),
        group_by: vec![ProjColumn::named("grp")],
        aggregates: vec![
            AggExpr {
                func: AggFunc::CountStar,
                arg: None,
                name: "n".into(),
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::named("val")),
                name: "s".into(),
            },
        ],
    }
}

fn median_secs<F: FnMut() -> usize>(mut f: F, samples: usize) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn bench_agg_ranges(c: &mut Criterion) {
    let det = det_table();
    let catalog = Catalog::new();
    catalog.register("events", det.clone());
    let au_rel = au_relation(&det);
    catalog.register("events_au", ua_engine::au_table(&au_rel));
    let det_plan = agg_plan("events");
    let au_plan = agg_plan("events_au");

    // Correctness gates: identical results per semantics across engines.
    let det_row = execute(&det_plan, &catalog).expect("det row agg");
    assert_eq!(det_row.len(), GROUPS as usize);
    let det_vec = vec_execute(&det_plan, &catalog, ExecOptions::default(), Semantics::Det)
        .0
        .expect("det vec agg");
    assert_eq!(det_row.rows(), det_vec.rows(), "det engines disagree");
    // The AU vectorized runs (this gate and every timed iteration below)
    // must stay batch-native: scan → γ with no row-at-a-time fallback.
    let fallback_counters = [
        "au.vec.fallback.aggregate",
        "au.vec.fallback.join",
        "au.vec.fallback.hash_join",
        "au.vec.fallback.union_all",
        "au.vec.fallback.distinct",
        "au.vec.fallback.sort",
        "au.vec.fallback.limit",
        "au.vec.fallback.top_k",
    ];
    let fallbacks_before: Vec<u64> = fallback_counters
        .iter()
        .map(|c| ua_obs::global().counter(c).get())
        .collect();
    let au_row = ua_engine::au_table(&execute_au(&au_plan, &catalog).expect("AU row agg"));
    let au_vec = vec_execute(&au_plan, &catalog, ExecOptions::default(), Semantics::Au)
        .0
        .expect("AU vec agg");
    assert_eq!(au_row.rows(), au_vec.rows(), "AU engines disagree");
    assert_eq!(au_row.len(), GROUPS as usize);

    // UA rejects the aggregation — the scenario AU opens.
    {
        let session = UaSession::new();
        session.register_table("events", det.clone());
        let err = session
            .query_ua("SELECT grp, count(*) FROM events IS TI WITH PROBABILITY (val) GROUP BY grp");
        assert!(err.is_err(), "UA must reject aggregation");
    }

    let mut group = c.benchmark_group("agg_ranges");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("det_row", N), &det_plan, |b, plan| {
        b.iter(|| execute(plan, &catalog).expect("row").len())
    });
    group.bench_with_input(BenchmarkId::new("det_vec", N), &det_plan, |b, plan| {
        b.iter(|| {
            vec_execute(plan, &catalog, ExecOptions::default(), Semantics::Det)
                .0
                .expect("vec")
                .len()
        })
    });
    group.finish();

    let t_det_row = median_secs(|| execute(&det_plan, &catalog).expect("row").len(), 5);
    let t_det_vec = median_secs(
        || {
            vec_execute(&det_plan, &catalog, ExecOptions::default(), Semantics::Det)
                .0
                .expect("vec")
                .len()
        },
        5,
    );
    // Det aggregation at threads=1 vs threads=4. Byte-equality holds at
    // every thread count by construction (the pool only evaluates key and
    // argument columns per morsel; grouping and the fold run on the
    // calling thread in scan order) and is asserted unconditionally.
    let par_opts = |threads: usize| ExecOptions {
        threads,
        batch_rows: 0,
        collect_stats: false,
        collect_trace: false,
    };
    for threads in [1usize, 2, 4, 8] {
        let out = vec_execute(&det_plan, &catalog, par_opts(threads), Semantics::Det)
            .0
            .expect("parallel det agg");
        assert_eq!(
            det_row.rows(),
            out.rows(),
            "parallel aggregation must be byte-identical at threads={threads}"
        );
    }
    let t_par1 = median_secs(
        || {
            vec_execute(&det_plan, &catalog, par_opts(1), Semantics::Det)
                .0
                .expect("threads=1")
                .len()
        },
        5,
    );
    let t_par4 = median_secs(
        || {
            vec_execute(&det_plan, &catalog, par_opts(4), Semantics::Det)
                .0
                .expect("threads=4")
                .len()
        },
        5,
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t_au_row = median_secs(
        || execute_au(&au_plan, &catalog).expect("au row").rows().len(),
        3,
    );
    let t_au_vec = median_secs(
        || {
            vec_execute(&au_plan, &catalog, ExecOptions::default(), Semantics::Au)
                .0
                .expect("au vec")
                .len()
        },
        3,
    );
    // UA context: the σ+π fragment UA can run, on both engines.
    let ua_session = UaSession::new();
    {
        use ua_data::relation::Relation;
        use ua_semiring::pair::Ua;
        let rel: Relation<Ua<u64>> = Relation::from_annotated(
            det.schema().clone(),
            det.rows()
                .iter()
                .enumerate()
                .map(|(i, t)| (t.clone(), Ua::new(u64::from(i % 16 != 0), 1))),
        );
        ua_session.register_ua_relation("events_ua", &rel);
    }
    let ua_sql = "SELECT grp, val FROM events_ua WHERE val >= 500";
    let t_ua_row = median_secs(
        || {
            ua_session.set_exec_mode(ExecMode::Row);
            ua_session.query_ua(ua_sql).expect("ua row").table.len()
        },
        3,
    );
    let t_ua_vec = median_secs(
        || {
            ua_session.set_exec_mode(ExecMode::Vectorized);
            ua_session.query_ua(ua_sql).expect("ua vec").table.len()
        },
        3,
    );

    let speedup = t_det_row / t_det_vec;
    let au_speedup = t_au_row / t_au_vec;
    println!(
        "AGG_RANGES SPEEDUP (group-by over {N} rows, {GROUPS} groups): \
         det row {:.1} ms, det vectorized {:.1} ms => {:.1}x",
        t_det_row * 1e3,
        t_det_vec * 1e3,
        speedup
    );
    println!(
        "  parallel aggregation: threads=1 {:.1} ms vs threads=4 {:.1} ms \
         => {:.2}x (cores={cores})",
        t_par1 * 1e3,
        t_par4 * 1e3,
        t_par1 / t_par4
    );
    println!(
        "  AU aggregation (closed under ⟦·⟧_AU, rejected by ⟦·⟧_UA): \
         row {:.1} ms, vectorized {:.1} ms => {:.1}x \
         ({:.1}x the det vectorized time)",
        t_au_row * 1e3,
        t_au_vec * 1e3,
        au_speedup,
        t_au_vec / t_det_vec
    );
    println!(
        "  UA σ+π context: row {:.1} ms, vectorized {:.1} ms",
        t_ua_row * 1e3,
        t_ua_vec * 1e3
    );
    assert!(
        speedup >= 3.0,
        "vectorized grouped aggregation must be >= 3x over the row engine \
         at {N} rows, got {speedup:.1}x"
    );
    // The tentpole's pay-as-you-go gates: the batch-native AU path must
    // beat the row interpreter outright and stay within a bounded tax of
    // deterministic vectorized aggregation. The columnar `agg_bounds`
    // kernels (dense Int/Float lb/bg/ub triples fed straight from the
    // canonical chunks, no per-row `RangeValue` gather) brought the
    // median down from the ~13-18x the row-shaped `RangeValue` fold
    // measured; 12x absorbs single-core container noise while
    // failing any regression back to the row-shaped path.
    assert!(
        au_speedup > 1.0,
        "AU vectorized aggregation must beat the AU row engine at {N} rows, \
         got row {:.1} ms vs vectorized {:.1} ms",
        t_au_row * 1e3,
        t_au_vec * 1e3
    );
    assert!(
        t_au_vec <= 12.0 * t_det_vec,
        "AU vectorized aggregation must stay within 12x of deterministic \
         vectorized aggregation, got {:.1} ms vs {:.1} ms ({:.1}x)",
        t_au_vec * 1e3,
        t_det_vec * 1e3,
        t_au_vec / t_det_vec
    );
    let fallbacks_after: Vec<u64> = fallback_counters
        .iter()
        .map(|c| ua_obs::global().counter(c).get())
        .collect();
    assert_eq!(
        fallbacks_before, fallbacks_after,
        "the benched AU plan must run batch-native (no au.vec.fallback.* bumps)"
    );

    let mut report = BenchReport::new("agg_ranges")
        .int("rows", N as u64)
        .int("groups", GROUPS as u64)
        .num("t_det_row_s", t_det_row)
        .num("t_det_vec_s", t_det_vec)
        .num("t_au_row_s", t_au_row)
        .num("t_au_vec_s", t_au_vec)
        .num("t_ua_select_row_s", t_ua_row)
        .num("t_ua_select_vec_s", t_ua_vec)
        .num("t_det_vec_threads1_s", t_par1)
        .num("t_det_vec_threads4_s", t_par4)
        .num("speedup_parallel_agg_threads4", t_par1 / t_par4)
        .int("cores", cores as u64)
        .num("speedup_det_vec_over_row", speedup)
        .num("speedup_au_vec_over_row", au_speedup)
        .num("au_vec_over_det_vec", t_au_vec / t_det_vec);
    // Operator breakdowns: deterministic aggregation on both engines plus
    // the AU vectorized run (its fallback counters show which stages still
    // route through the row interpreter).
    let stats_opts = ExecOptions {
        threads: 1,
        batch_rows: 0,
        collect_stats: true,
        collect_trace: false,
    };
    if let (Ok(_), Some(stats)) = execute_row(&det_plan, &catalog, Semantics::Det, true) {
        report = report.operator_stats("det_row", stats);
    }
    if let (Ok(_), Some(stats)) = vec_execute(&det_plan, &catalog, stats_opts, Semantics::Det) {
        report = report.operator_stats("det_vectorized", stats);
    }
    if let (Ok(_), Some(stats)) = vec_execute(&au_plan, &catalog, stats_opts, Semantics::Au) {
        report = report.operator_stats("au_vectorized", stats);
    }
    // The pool's phase accounting of an instrumented threads=4 run, both
    // as top-level fields and in the embedded
    // `operator_stats.det_vectorized_threads4.pool`: γ runs no build task.
    let par_stats_opts = ExecOptions {
        threads: 4,
        batch_rows: 0,
        collect_stats: true,
        collect_trace: false,
    };
    if let (Ok(_), Some(stats)) = vec_execute(&det_plan, &catalog, par_stats_opts, Semantics::Det) {
        if let Some(pool) = &stats.pool {
            report = report
                .int("pool_build_tasks", pool.build_tasks)
                .int("pool_build_wall_ns", pool.build_wall_ns)
                .int("pool_merge_ns", pool.merge_ns);
        }
        report = report.operator_stats("det_vectorized_threads4", stats);
    }
    report.write();
}

criterion_group!(benches, bench_agg_ranges);
criterion_main!(benches);
