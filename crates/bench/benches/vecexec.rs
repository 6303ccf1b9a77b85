//! Row vs. vectorized executor on the paper-style workloads, at a scale
//! where throughput differences matter (≥ 100k rows through a
//! selection + hash-join + projection pipeline).
//!
//! Run with `cargo bench --bench vecexec -p ua-bench`. Besides the criterion
//! groups, the bench prints the measured row/vectorized speedup factors and
//! asserts the two engines return identical results before timing anything.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_data::{Expr, RaExpr};
use ua_engine::plan::Plan;
use ua_engine::{execute, Catalog, ExecMode, ExecOptions, Semantics, Table, UaSession};
use ua_vecexec::execute as vec_execute;

const ORDERS: usize = 200_000;
const CUSTOMERS: usize = 20_000;

/// `orders(okey, custkey, total)` ⋈ `customers(custkey, name, nation)`.
fn build_catalog() -> Catalog {
    let mut rng = StdRng::seed_from_u64(42);
    let catalog = Catalog::new();
    catalog.register(
        "orders",
        Table::from_rows(
            Schema::qualified("orders", ["okey", "custkey", "total"]),
            (0..ORDERS as i64)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int(i),
                        Value::Int(rng.gen_range(0..CUSTOMERS as i64)),
                        Value::Int(rng.gen_range(1..1000)),
                    ])
                })
                .collect(),
        ),
    );
    catalog.register(
        "customers",
        Table::from_rows(
            Schema::qualified("customers", ["custkey", "name", "nation"]),
            (0..CUSTOMERS as i64)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int(i),
                        Value::str(format!("cust{i}")),
                        Value::Int(rng.gen_range(0..25)),
                    ])
                })
                .collect(),
        ),
    );
    catalog
}

/// The acceptance pipeline: selection + equi-join + projection.
fn pipeline() -> Plan {
    Plan::from_ra(
        &RaExpr::table("orders")
            .select(Expr::named("total").ge(Expr::lit(500i64)))
            .join(
                RaExpr::table("customers"),
                Expr::named("orders.custkey").eq(Expr::named("customers.custkey")),
            )
            .project(["okey", "name", "total"]),
    )
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

fn bench_sel_join_proj(c: &mut Criterion) {
    let catalog = build_catalog();
    let plan = pipeline();

    // Correctness gate before timing.
    let row = execute(&plan, &catalog).expect("row");
    let vec = vec_execute(&plan, &catalog, ExecOptions::default(), Semantics::Det)
        .0
        .expect("vec");
    assert_eq!(row.rows(), vec.rows(), "engines disagree");
    println!(
        "pipeline output: {} rows from {} x {}",
        row.len(),
        ORDERS,
        CUSTOMERS
    );

    let mut group = c.benchmark_group("vecexec_sel_join_proj");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("row", ORDERS), &plan, |b, plan| {
        b.iter(|| execute(plan, &catalog).expect("row"))
    });
    group.bench_with_input(BenchmarkId::new("vectorized", ORDERS), &plan, |b, plan| {
        b.iter(|| {
            vec_execute(plan, &catalog, ExecOptions::default(), Semantics::Det)
                .0
                .expect("vec")
        })
    });
    group.finish();

    let t_row = median_secs(|| execute(&plan, &catalog).expect("row").len(), 7);
    let t_vec = median_secs(
        || {
            vec_execute(&plan, &catalog, ExecOptions::default(), Semantics::Det)
                .0
                .expect("vec")
                .len()
        },
        7,
    );
    println!(
        "SPEEDUP sel+join+proj @ {ORDERS} rows: row {:.1} ms, vectorized {:.1} ms => {:.2}x",
        t_row * 1e3,
        t_vec * 1e3,
        t_row / t_vec
    );
}

fn bench_ua_labels(c: &mut Criterion) {
    // UA path: same pipeline over a TI-style uncertain orders table — the
    // one rewritten plan on the row and the vectorized engine.
    let mut rng = StdRng::seed_from_u64(43);
    let raw = Table::from_rows(
        Schema::qualified("orders", ["okey", "custkey", "total", "p"]),
        (0..ORDERS as i64)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    Value::Int(rng.gen_range(0..CUSTOMERS as i64)),
                    Value::Int(rng.gen_range(1..1000)),
                    Value::float(if rng.gen_bool(0.1) { 0.8 } else { 1.0 }),
                ])
            })
            .collect(),
    );
    let cust = Table::from_rows(
        Schema::qualified("customers", ["custkey", "name", "p"]),
        (0..CUSTOMERS as i64)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    Value::str(format!("cust{i}")),
                    Value::float(1.0),
                ])
            })
            .collect(),
    );
    let sql = "SELECT okey, name, total \
               FROM orders IS TI WITH PROBABILITY (p) \
               JOIN customers IS TI WITH PROBABILITY (p) \
                 ON orders.custkey = customers.custkey \
               WHERE total >= 500";

    let session = UaSession::new();
    session.register_table("orders", raw);
    session.register_table("customers", cust);

    session.set_exec_mode(ExecMode::Row);
    let row = session.query_ua(sql).expect("row ua");
    session.set_exec_mode(ExecMode::Vectorized);
    let vec = session.query_ua(sql).expect("vec ua");
    assert_eq!(row.table.rows(), vec.table.rows(), "UA engines disagree");
    println!(
        "UA pipeline output: {} rows, {} certain",
        row.certainty_counts().1,
        row.certainty_counts().0
    );

    let mut group = c.benchmark_group("vecexec_ua_labels");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("row_rewritten", ORDERS), |b| {
        session.set_exec_mode(ExecMode::Row);
        b.iter(|| session.query_ua(sql).expect("row ua"))
    });
    group.bench_function(BenchmarkId::new("vectorized_rewritten", ORDERS), |b| {
        session.set_exec_mode(ExecMode::Vectorized);
        b.iter(|| session.query_ua(sql).expect("vec ua"))
    });
    group.finish();

    session.set_exec_mode(ExecMode::Row);
    let t_row = median_secs(|| session.query_ua(sql).expect("row").table.len(), 5);
    session.set_exec_mode(ExecMode::Vectorized);
    let t_vec = median_secs(|| session.query_ua(sql).expect("vec").table.len(), 5);
    println!(
        "SPEEDUP UA sel+join+proj @ {ORDERS} rows: row {:.1} ms, vectorized {:.1} ms => {:.2}x",
        t_row * 1e3,
        t_vec * 1e3,
        t_row / t_vec
    );
}

/// Morsel-parallel pipeline: the same sel+join+proj plan at threads=1 vs
/// threads=4. Output is asserted byte-identical first (the determinism
/// contract), then the wall-clock ratio is measured; the ≥2x acceptance
/// gate only applies on machines with ≥4 cores — a single-core container
/// can't exhibit parallel speedup, so the gate prints as skipped there.
fn bench_parallel_pipeline(c: &mut Criterion) {
    let catalog = build_catalog();
    let plan = pipeline();
    let opts = |threads: usize| ExecOptions {
        threads,
        batch_rows: 0,
        collect_stats: false,
        collect_trace: false,
    };

    // Determinism gate: parallel output must be byte-identical to serial.
    let serial = vec_execute(&plan, &catalog, opts(1), Semantics::Det)
        .0
        .expect("serial");
    for threads in [2usize, 4, 8] {
        let parallel = vec_execute(&plan, &catalog, opts(threads), Semantics::Det)
            .0
            .expect("parallel");
        assert_eq!(
            serial.rows(),
            parallel.rows(),
            "threads={threads}: parallel output differs from serial"
        );
    }

    let mut group = c.benchmark_group("vecexec_parallel");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new(format!("threads_{threads}"), ORDERS),
            &plan,
            |b, plan| {
                b.iter(|| {
                    vec_execute(plan, &catalog, opts(threads), Semantics::Det)
                        .0
                        .expect("vec")
                })
            },
        );
    }
    group.finish();

    let t_serial = median_secs(
        || {
            vec_execute(&plan, &catalog, opts(1), Semantics::Det)
                .0
                .expect("vec")
                .len()
        },
        7,
    );
    let t_parallel = median_secs(
        || {
            vec_execute(&plan, &catalog, opts(4), Semantics::Det)
                .0
                .expect("vec")
                .len()
        },
        7,
    );
    let speedup = t_serial / t_parallel;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "PARALLEL SPEEDUP sel+join+proj @ {ORDERS} rows: serial {:.1} ms, threads=4 {:.1} ms => {:.2}x ({cores} cores)",
        t_serial * 1e3,
        t_parallel * 1e3,
        speedup
    );
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "threads=4 must beat serial vectorized by >= 2x on a {cores}-core \
             machine, got {speedup:.2}x"
        );
    } else {
        println!("PARALLEL SPEEDUP gate (>= 2x) skipped: only {cores} core(s) available");
    }

    ua_bench::report::BenchReport::new("vecexec")
        .int("rows", ORDERS as u64)
        .int("cores", cores as u64)
        .num("t_serial_s", t_serial)
        .num("t_parallel4_s", t_parallel)
        .num("speedup_parallel_threads4", speedup)
        .write();
}

criterion_group!(
    benches,
    bench_sel_join_proj,
    bench_ua_labels,
    bench_parallel_pipeline
);
criterion_main!(benches);
