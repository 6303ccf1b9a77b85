//! Anti-join at scale: the `NOT EXISTS` idiom over 1M rows must run as a
//! vectorized hash **anti-probe**, not a nested rejection loop.
//!
//! The planner lowers `NOT IN` / `NOT EXISTS` (and users write the classic
//! idiom directly) to `LEFT JOIN ... ON equi-key` + `WHERE pad IS NULL`:
//! the outer join hash-indexes the subquery side, every probe *miss*
//! NULL-pads, and the filter keeps exactly the pads — one O(|R| + |S|)
//! hash pass. The naive alternative — what a pre-hash executor would run —
//! rejects each probe row by scanning the subquery side: O(|R| · |S|).
//!
//! Both strategies live in the same engine, so the baseline is measured
//! honestly in-engine: the same anti-join query with the ON predicate
//! written as `orders.k = blocked.k OR blocked.k IS NULL`. The disjunct is
//! dead (blocked.k is never NULL in the data), so the output is identical,
//! but equi-key extraction cannot see through the OR — and the two
//! disjuncts are not the three-disjunct null-aware equality `NOT IN`
//! lowers to, the one OR shape the operators do key — so the operator
//! takes its nested-loop path: the naive nested rejection.
//!
//! Correctness gates before timing: the anti-probe plan agrees byte-for-
//! byte across {row, vectorized} × {optimizer on, off} and with the naive
//! plan, and the `NOT IN` lowering (keyed on its null-aware equality)
//! produces the same rows as the hand-written idiom on both engines at the
//! full 1M rows. Then the ≥3x acceptance bar on the vectorized engine,
//! `ANTI_JOIN SPEEDUP` lines for the CI smoke grep, and
//! `BENCH_anti_join.json` at the repo root next to the other bench
//! artifacts, the `NOT IN` time beside the idiom's.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use ua_bench::report::{instrumented_stats, BenchReport};
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::{ExecMode, Table, UaSession};

/// Probe-side rows.
const N: usize = 1_000_000;
/// Key domain (expected rejections ≈ N · B / D ≈ 256 rows).
const D: i64 = 1_000_000;
/// Distinct keys in the blocklist (the subquery side).
const B: usize = 256;
/// The anti-join idiom: equi ON key, so both engines hash anti-probe.
const ANTI: &str = "SELECT orders.k, orders.v FROM orders \
                    LEFT JOIN blocked ON orders.k = blocked.k \
                    WHERE blocked.k IS NULL";

/// Same output, but the OR hides the equi key from `extract_equi_keys`
/// (and is not `NOT IN`'s `k = b.k OR k IS NULL OR b.k IS NULL`, which
/// the operators key) and forces the operator's nested-loop path
/// (blocked.k is never NULL, so the extra disjunct matches nothing).
const NAIVE: &str = "SELECT orders.k, orders.v FROM orders \
                     LEFT JOIN blocked ON orders.k = blocked.k OR blocked.k IS NULL \
                     WHERE blocked.k IS NULL";

/// The same anti-join as SQL writes it; the planner lowers it to the
/// idiom's shape with the null-aware ON predicate.
const NOT_IN: &str = "SELECT orders.k, orders.v FROM orders \
                      WHERE orders.k NOT IN (SELECT blocked.k FROM blocked)";

fn session() -> UaSession {
    let mut rng = StdRng::seed_from_u64(0x0a17);
    let s = UaSession::new();
    s.set_optimizer_enabled(true);
    let orders: Vec<Tuple> = (0..N as i64)
        .map(|i| Tuple::new(vec![Value::Int(rng.gen_range(0..D)), Value::Int(i)]))
        .collect();
    s.register_table(
        "orders",
        Table::from_rows(Schema::qualified("orders", ["k", "v"]), orders),
    );
    let mut blocked: Vec<i64> = Vec::new();
    while blocked.len() < B {
        let k = rng.gen_range(0..D);
        if !blocked.contains(&k) {
            blocked.push(k);
        }
    }
    s.register_table(
        "blocked",
        Table::from_rows(
            Schema::qualified("blocked", ["k"]),
            blocked
                .into_iter()
                .map(|k| Tuple::new(vec![Value::Int(k)]))
                .collect(),
        ),
    );
    s
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

fn bench_anti_join(c: &mut Criterion) {
    let s = session();

    // Correctness gates first. The anti-probe must survive the optimizer
    // untouched (filters are never pushed into an outer join's padded
    // side) and agree across engines.
    let mut results = Vec::new();
    for opt in [true, false] {
        s.set_optimizer_enabled(opt);
        for mode in [ExecMode::Row, ExecMode::Vectorized] {
            s.set_exec_mode(mode);
            results.push(s.query_det(ANTI).expect("anti").sorted_rows());
        }
    }
    s.set_optimizer_enabled(true);
    s.set_exec_mode(ExecMode::Vectorized);
    results.push(s.query_det(NAIVE).expect("naive").sorted_rows());
    assert!(
        results.iter().all(|r| *r == results[0]),
        "anti-probe and nested rejection disagree"
    );
    let kept = results[0].len();
    assert!(
        kept < N && kept > 0,
        "degenerate blocklist: {kept} of {N} rows kept"
    );
    println!("anti-join keeps {kept} of {N} rows ({} rejected)", N - kept);

    // The planner's NOT IN lowering is the same anti-join shape; on this
    // NULL-free data it must produce exactly the hand-written idiom's
    // rows on both engines.
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        s.set_exec_mode(mode);
        assert!(
            s.query_det(NOT_IN).expect("not in").sorted_rows() == results[0],
            "NOT IN lowering disagrees with the anti-join idiom ({mode:?})"
        );
    }

    let mut group = c.benchmark_group("anti_join");
    group.sample_size(10);
    for (label, mode) in [("row", ExecMode::Row), ("vectorized", ExecMode::Vectorized)] {
        group.bench_function(BenchmarkId::new(format!("anti_probe_{label}"), N), |b| {
            s.set_exec_mode(mode);
            b.iter(|| s.query_det(ANTI).expect("run").len())
        });
    }
    // The naive loop visits ~N·B pairs; criterion sampling at that cost
    // would dominate CI, so it is timed only by the median loop below.
    group.finish();

    let time = |sql: &str, mode: ExecMode, samples: usize| {
        s.set_exec_mode(mode);
        median_secs(|| s.query_det(sql).expect("run").len(), samples)
    };
    let t_anti_row = time(ANTI, ExecMode::Row, 5);
    let t_anti_vec = time(ANTI, ExecMode::Vectorized, 5);
    let t_not_in_vec = time(NOT_IN, ExecMode::Vectorized, 5);
    let t_naive_vec = time(NAIVE, ExecMode::Vectorized, 3);

    let speedup_vec = t_naive_vec / t_anti_vec;
    println!(
        "ANTI_JOIN SPEEDUP (vectorized, {N} rows x {B} blocklist): \
         nested rejection {:.1} ms, hash anti-probe {:.1} ms => {:.1}x",
        t_naive_vec * 1e3,
        t_anti_vec * 1e3,
        speedup_vec
    );
    println!(
        "ANTI_JOIN row-engine anti-probe: {:.1} ms (hash path, unbenched baseline)",
        t_anti_row * 1e3
    );
    println!(
        "ANTI_JOIN NOT IN (vectorized, null-aware key): {:.1} ms",
        t_not_in_vec * 1e3
    );
    assert!(
        speedup_vec >= 3.0,
        "the hash anti-probe must be >= 3x over nested rejection on the \
         vectorized engine, got {speedup_vec:.1}x"
    );

    let mut report = BenchReport::new("anti_join")
        .int("probe_rows", N as u64)
        .int("blocklist_rows", B as u64)
        .int("key_domain", D as u64)
        .int("rows_kept", kept as u64)
        .num("t_anti_probe_row_s", t_anti_row)
        .num("t_anti_probe_vectorized_s", t_anti_vec)
        .num("t_not_in_vectorized_s", t_not_in_vec)
        .num("t_nested_rejection_vectorized_s", t_naive_vec)
        .num("speedup_vectorized", speedup_vec);
    for (label, mode) in [("row", ExecMode::Row), ("vectorized", ExecMode::Vectorized)] {
        s.set_exec_mode(mode);
        if let Some(stats) = instrumented_stats(&s, || {
            s.query_det(ANTI).expect("stats run");
        }) {
            report = report.operator_stats(format!("anti_probe_{label}"), stats);
        }
    }
    report.write();
}

criterion_group!(benches, bench_anti_join);
criterion_main!(benches);
