//! Criterion benches for the timing-sensitive experiments of the paper,
//! plus four ablations.
//!
//! These run scaled-down configurations so `cargo bench` completes in
//! minutes; the `reproduce` binary regenerates the full paper-style tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ua_baselines::{certain_subset, BundleDb, UDb};
use ua_bench::experiments::pdbench_suite;
use ua_core::UaDb;
use ua_datagen::bidb::{self, BidbConfig};
use ua_datagen::ctables::{query_batch, random_cdb, CtableConfig};
use ua_datagen::queries::pdbench_queries;
use ua_engine::plan::Plan;
use ua_models::eval_symbolic;

/// Figure 10: UA-DB vs exact C-table certain answers per complexity.
fn bench_fig10(c: &mut Criterion) {
    let cdb = random_cdb(&CtableConfig {
        rows: 12,
        attrs: 8,
        seed: 17,
    });
    let ua = UaDb::from_cdb(&cdb);
    let solver = ua_conditions::Solver::with_limit(2_000_000);
    let mut group = c.benchmark_group("fig10");
    group.sample_size(10);
    for complexity in [1usize, 3, 5] {
        let queries = query_batch(complexity, 1, 8, 23 + complexity as u64);
        let (_, q) = queries
            .into_iter()
            .find(|(cx, _)| *cx == complexity)
            .expect("query generated");
        group.bench_with_input(BenchmarkId::new("uadb", complexity), &q, |b, q| {
            b.iter(|| ua.query(q).expect("ua"))
        });
        group.bench_with_input(BenchmarkId::new("ctables_exact", complexity), &q, |b, q| {
            b.iter(|| {
                let table = eval_symbolic(q, &cdb).expect("symbolic");
                let mut n = 0usize;
                for row in table.tuples().iter().take(10) {
                    if row.is_constant() {
                        let cond = table.membership_condition(&row.values);
                        if solver.try_is_valid(&cond) == Some(true) {
                            n += 1;
                        }
                    }
                }
                n
            })
        });
    }
    group.finish();
}

/// Figures 11/14: the five systems on PDBench Q1–Q3.
fn bench_pdbench(c: &mut Criterion) {
    let (uncertain, det_catalog, ua) = pdbench_suite::prepare(0.0005, 0.05, 7);
    let udb = UDb::from_xdb(&uncertain.xdb);
    let mut rng = StdRng::seed_from_u64(99);
    let bundles = BundleDb::from_xdb(&uncertain.xdb, 10, &mut rng);

    let mut group = c.benchmark_group("fig11_fig14_pdbench");
    group.sample_size(10);
    for (name, q) in pdbench_queries() {
        let plan = Plan::from_ra(&q);
        group.bench_function(BenchmarkId::new("det", name), |b| {
            b.iter(|| ua_engine::exec::execute(&plan, &det_catalog).expect("det"))
        });
        group.bench_function(BenchmarkId::new("uadb", name), |b| {
            b.iter(|| ua.query_ua_ra(&q).expect("ua"))
        });
        group.bench_function(BenchmarkId::new("libkin", name), |b| {
            b.iter(|| certain_subset(&plan, &det_catalog).expect("libkin"))
        });
        group.bench_function(BenchmarkId::new("maybms", name), |b| {
            b.iter(|| udb.query(&q).expect("maybms"))
        });
        group.bench_function(BenchmarkId::new("mcdb", name), |b| {
            b.iter(|| bundles.query(&q).expect("mcdb"))
        });
    }
    group.finish();
}

/// Figure 19: conf() computation vs UA querying as alternatives grow.
fn bench_fig19(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig19_probabilistic");
    group.sample_size(10);
    for alts in [2usize, 10] {
        let xdb = bidb::generate(&BidbConfig {
            blocks: 200,
            alternatives: alts,
            seed: 5,
        });
        let udb = UDb::from_xdb(&xdb);
        let ua = UaDb::from_xdb(&xdb);
        let q = bidb::qp2();
        group.bench_with_input(BenchmarkId::new("uadb", alts), &q, |b, q| {
            b.iter(|| ua.query(q).expect("ua"))
        });
        group.bench_with_input(BenchmarkId::new("maybms_conf", alts), &q, |b, q| {
            b.iter(|| {
                let rel = udb.query(q).expect("maybms");
                udb.confidences(&rel)
            })
        });
    }
    group.finish();
}

/// Ablation 1: native K²-evaluation vs Enc + rewriting.
fn bench_ablation_native_vs_rewrite(c: &mut Criterion) {
    let (uncertain, _, ua_session) = pdbench_suite::prepare(0.0005, 0.05, 13);
    let ua_native = UaDb::from_xdb(&uncertain.xdb);
    let q = ua_datagen::queries::pdbench_q2();
    let mut group = c.benchmark_group("ablation_native_vs_rewrite");
    group.sample_size(10);
    group.bench_function("native_pair_semiring", |b| {
        b.iter(|| ua_native.query(&q).expect("native"))
    });
    group.bench_function("encoded_rewritten", |b| {
        b.iter(|| ua_session.query_ua_ra(&q).expect("rewritten"))
    });
    group.finish();
}

/// Ablation 2: annotation-map K-relations vs row-vector bag
/// tables executing the same query.
fn bench_ablation_storage(c: &mut Criterion) {
    let (uncertain, det_catalog, _) = pdbench_suite::prepare(0.0005, 0.02, 31);
    let q = ua_datagen::queries::pdbench_q1();
    let mut db: ua_data::Database<u64> = ua_data::Database::new();
    for name in ["customer", "orders", "lineitem", "supplier"] {
        db.insert(name, uncertain.bgw[name].to_relation());
    }
    let mut group = c.benchmark_group("ablation_storage");
    group.sample_size(10);
    group.bench_function("annotation_map_relation", |b| {
        b.iter(|| ua_data::eval(&q, &db).expect("map eval"))
    });
    group.bench_function("row_vector_table", |b| {
        let plan = Plan::from_ra(&q);
        b.iter(|| ua_engine::exec::execute(&plan, &det_catalog).expect("row exec"))
    });
    group.finish();
}

/// Ablation 3: hash join vs forced nested loops.
fn bench_ablation_join(c: &mut Criterion) {
    use ua_data::Expr;
    let (_, det_catalog, _) = pdbench_suite::prepare(0.0005, 0.02, 3);
    let equi = ua_data::RaExpr::table("orders").join(
        ua_data::RaExpr::table("lineitem"),
        Expr::named("orders.orderkey").eq(Expr::named("lineitem.orderkey")),
    );
    // Hiding the equality inside an OR defeats extraction → nested loops.
    let nested = ua_data::RaExpr::table("orders").join(
        ua_data::RaExpr::table("lineitem"),
        Expr::named("orders.orderkey")
            .eq(Expr::named("lineitem.orderkey"))
            .or(Expr::lit(false)),
    );
    let mut group = c.benchmark_group("ablation_join_strategy");
    group.sample_size(10);
    group.bench_function("hash_join", |b| {
        let plan = Plan::from_ra(&equi);
        b.iter(|| ua_engine::exec::execute(&plan, &det_catalog).expect("hash"))
    });
    group.bench_function("nested_loop", |b| {
        let plan = Plan::from_ra(&nested);
        b.iter(|| ua_engine::exec::execute(&plan, &det_catalog).expect("nl"))
    });
    group.finish();

    // Trajectory artifact: the ablation's headline ratio, diffed against
    // the previous run's BENCH_paper.json by `BenchReport::write`.
    let avg_of = |plan: &Plan| {
        let (d, _) = ua_bench::report::time_avg(5, || {
            ua_engine::exec::execute(plan, &det_catalog).expect("timed run")
        });
        d.as_secs_f64()
    };
    let t_hash = avg_of(&Plan::from_ra(&equi));
    let t_nested = avg_of(&Plan::from_ra(&nested));
    ua_bench::report::BenchReport::new("paper")
        .num("t_hash_join_s", t_hash)
        .num("t_nested_loop_s", t_nested)
        .num("hash_join_speedup", t_nested / t_hash)
        .write();
}

/// Ablation 4: PTIME CNF labeling vs exact solver labeling —
/// the mechanism behind Figure 10's gap, measured in isolation.
fn bench_ablation_labeling(c: &mut Criterion) {
    let cdb = random_cdb(&CtableConfig {
        rows: 30,
        attrs: 8,
        seed: 29,
    });
    let table = cdb.get("ct").expect("table").clone();
    let solver = ua_conditions::Solver::with_limit(2_000_000);
    let mut group = c.benchmark_group("ablation_labeling_cost");
    group.sample_size(10);
    group.bench_function("cnf_ptime_labeling", |b| b.iter(|| table.labeling()));
    group.bench_function("exact_solver_labeling", |b| {
        b.iter(|| {
            table
                .tuples()
                .iter()
                .filter(|t| t.is_constant())
                .filter(|t| {
                    solver.try_is_valid(&table.membership_condition(&t.values)) == Some(true)
                })
                .count()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig10,
    bench_pdbench,
    bench_fig19,
    bench_ablation_native_vs_rewrite,
    bench_ablation_storage,
    bench_ablation_join,
    bench_ablation_labeling
);
criterion_main!(benches);
