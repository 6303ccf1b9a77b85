//! Columnar-native Sort / fused Top-K vs the row engine's Sort+Limit.
//!
//! 1M rows, Top-100: the row engine materializes the table, decorates
//! every row with its key vector, sorts all 1M and takes the prefix; the
//! vectorized engine's `TopK` operator keeps a bounded 100-row buffer and
//! never sorts (or materializes) the input. The acceptance bar is **≥ 3x**
//! over the row engine's `Limit(Sort(..))`.
//!
//! Also measured for context: the row engine's own bounded-heap `TopK`
//! (the fusion helps there too) and the vectorized full `Sort` (columnar,
//! no row materialization). Correctness gates assert all variants return
//! identical rows before timing. Writes `BENCH_sort_topk.json` at the repo root next to the other
//! bench artifacts.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use ua_bench::report::BenchReport;
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_data::Expr;
use ua_engine::plan::{Plan, SortOrder};
use ua_engine::{execute, execute_row, Catalog, ExecOptions, Semantics, Table};
use ua_vecexec::execute as vec_execute;

/// Rows in the scanned table.
const N: usize = 1_000_000;
/// The K of Top-K.
const K: usize = 100;

fn build_catalog() -> Catalog {
    let mut rng = StdRng::seed_from_u64(0x70CC);
    let catalog = Catalog::new();
    catalog.register(
        "events",
        Table::from_rows(
            Schema::qualified("events", ["id", "score", "grp"]),
            (0..N as i64)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int(i),
                        Value::Int(rng.gen_range(0..1_000_000)),
                        Value::Int(rng.gen_range(0..64)),
                    ])
                })
                .collect(),
        ),
    );
    catalog
}

fn keys() -> Vec<(Expr, SortOrder)> {
    vec![
        (Expr::named("score"), SortOrder::Desc),
        (Expr::named("id"), SortOrder::Asc),
    ]
}

/// The unfused plan (what executes with the optimizer off).
fn sort_limit_plan() -> Plan {
    Plan::Limit {
        input: Box::new(Plan::Sort {
            input: Box::new(Plan::Scan("events".into())),
            keys: keys(),
        }),
        limit: K,
    }
}

/// The fused plan (what `optimize::fuse_topk` rewrites the above into).
fn topk_plan() -> Plan {
    Plan::TopK {
        input: Box::new(Plan::Scan("events".into())),
        keys: keys(),
        limit: K,
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

fn bench_sort_topk(c: &mut Criterion) {
    let catalog = build_catalog();
    let sort_limit = sort_limit_plan();
    let topk = topk_plan();

    // The rewrite itself must produce the fused operator.
    assert_eq!(
        format!("{}", ua_engine::fuse_topk(sort_limit.clone())),
        format!("{topk}"),
        "fuse_topk must rewrite Limit(Sort(..)) into TopK"
    );

    // Correctness gates before timing: all four (engine × plan) variants
    // return identical rows, in identical order.
    let reference = execute(&sort_limit, &catalog).expect("row sort+limit");
    assert_eq!(reference.len(), K);
    for (label, table) in [
        ("row topk", execute(&topk, &catalog).expect("row topk")),
        (
            "vec sort+limit",
            vec_execute(
                &sort_limit,
                &catalog,
                ExecOptions::default(),
                Semantics::Det,
            )
            .0
            .expect("vec sort+limit"),
        ),
        (
            "vec topk",
            vec_execute(&topk, &catalog, ExecOptions::default(), Semantics::Det)
                .0
                .expect("vec topk"),
        ),
    ] {
        assert_eq!(reference.rows(), table.rows(), "{label} disagrees");
    }

    let mut group = c.benchmark_group("sort_topk");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("row_sort_limit", N),
        &sort_limit,
        |b, plan| b.iter(|| execute(plan, &catalog).expect("row").len()),
    );
    group.bench_with_input(BenchmarkId::new("row_topk", N), &topk, |b, plan| {
        b.iter(|| execute(plan, &catalog).expect("row").len())
    });
    group.bench_with_input(
        BenchmarkId::new("vec_sort_limit", N),
        &sort_limit,
        |b, plan| {
            b.iter(|| {
                vec_execute(plan, &catalog, ExecOptions::default(), Semantics::Det)
                    .0
                    .expect("vec")
                    .len()
            })
        },
    );
    group.bench_with_input(BenchmarkId::new("vec_topk", N), &topk, |b, plan| {
        b.iter(|| {
            vec_execute(plan, &catalog, ExecOptions::default(), Semantics::Det)
                .0
                .expect("vec")
                .len()
        })
    });
    group.finish();

    let t_row_sort = median_secs(|| execute(&sort_limit, &catalog).expect("row").len(), 5);
    let t_row_topk = median_secs(|| execute(&topk, &catalog).expect("row").len(), 5);
    let t_vec_sort = median_secs(
        || {
            vec_execute(
                &sort_limit,
                &catalog,
                ExecOptions::default(),
                Semantics::Det,
            )
            .0
            .expect("vec")
            .len()
        },
        5,
    );
    let t_vec_topk = median_secs(
        || {
            vec_execute(&topk, &catalog, ExecOptions::default(), Semantics::Det)
                .0
                .expect("vec")
                .len()
        },
        5,
    );

    let speedup = t_row_sort / t_vec_topk;
    println!(
        "SORT_TOPK SPEEDUP (Top-{K} of {N}): row Sort+Limit {:.1} ms, vectorized TopK {:.1} ms => {:.1}x",
        t_row_sort * 1e3,
        t_vec_topk * 1e3,
        speedup
    );
    println!(
        "  context: row TopK {:.1} ms, vectorized Sort+Limit {:.1} ms",
        t_row_topk * 1e3,
        t_vec_sort * 1e3
    );
    assert!(
        speedup >= 3.0,
        "vectorized TopK must be >= 3x over the row engine's Sort+Limit at \
         {N} rows, got {speedup:.1}x"
    );

    let mut report = BenchReport::new("sort_topk")
        .int("rows", N as u64)
        .int("k", K as u64)
        .num("t_row_sort_limit_s", t_row_sort)
        .num("t_row_topk_s", t_row_topk)
        .num("t_vec_sort_limit_s", t_vec_sort)
        .num("t_vec_topk_s", t_vec_topk)
        .num("speedup_vec_topk_over_row_sort_limit", speedup);
    // Operator breakdowns for the fused TopK plan on both engines. These
    // run below the session layer, so the stats come straight from the
    // executor entry points instead of `instrumented_stats`.
    if let (Ok(_), Some(stats)) = execute_row(&topk, &catalog, Semantics::Det, true) {
        report = report.operator_stats("topk_row", stats);
    }
    let stats_opts = ExecOptions {
        threads: 1,
        batch_rows: 0,
        collect_stats: true,
        collect_trace: false,
    };
    if let (Ok(_), Some(stats)) = vec_execute(&topk, &catalog, stats_opts, Semantics::Det) {
        report = report.operator_stats("topk_vectorized", stats);
    }
    report.write();
}

criterion_group!(benches, bench_sort_topk);
criterion_main!(benches);
