//! Cost-aware join planning: comma-join SQL (`FROM r, s WHERE r.k = s.k`)
//! must run as a hash join, not a cross product + filter.
//!
//! Measures, on a selective equi-join over `r(k, v) ⋈ s(k, w)`:
//!
//! * the optimized plan (HashJoin) at 100k rows per side, on both engines;
//! * the unoptimized cross-join baseline at a matched smaller scale
//!   (4k rows per side — the 100k cross product is 10¹⁰ pairs, which is
//!   precisely why the pass exists), asserting the ≥10x acceptance bar on
//!   directly measured, matched-scale numbers;
//! * the 100k-equivalent baseline by quadratic extrapolation (a cross join
//!   scales with |r|·|s|), reported alongside.
//!
//! Prints `JOIN_PLANNING SPEEDUP ...` lines for the CI smoke grep and
//! writes `BENCH_join_planning.json` at the repo root (uploaded as a CI
//! artifact).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use ua_bench::report::{instrumented_stats, BenchReport};
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::{ExecMode, Table, UaSession};

/// Full scale for the optimized plan (per side).
const N: usize = 100_000;
/// Matched scale for the measured cross-join baseline (per side).
const M: usize = 4_000;

const SQL: &str = "SELECT r.v, s.w FROM r, s WHERE r.k = s.k AND r.v < 250";

/// `r(k, v)` and `s(k, w)` with `rows` rows each: keys are a permutation-ish
/// draw over `0..rows` (≈1 match per probe row), `v`/`w` uniform in 0..1000
/// (so `r.v < 250` keeps ~25%).
fn session(rows: usize, optimizer: bool) -> UaSession {
    let mut rng = StdRng::seed_from_u64(0x10B5);
    let s = UaSession::with_mode(ExecMode::Row);
    s.set_optimizer_enabled(optimizer);
    s.register_table(
        "r",
        Table::from_rows(
            Schema::qualified("r", ["k", "v"]),
            (0..rows as i64)
                .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(rng.gen_range(0..1000))]))
                .collect(),
        ),
    );
    s.register_table(
        "s",
        Table::from_rows(
            Schema::qualified("s", ["k", "w"]),
            (0..rows as i64)
                .map(|_| {
                    Tuple::new(vec![
                        Value::Int(rng.gen_range(0..rows as i64)),
                        Value::Int(rng.gen_range(0..1000)),
                    ])
                })
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

fn bench_join_planning(c: &mut Criterion) {
    // Correctness gates before timing: the optimizer must not change the
    // result (matched scale, where the cross join is feasible), the plan
    // must actually contain a HashJoin, and the engines must agree at full
    // scale.
    let small_opt = session(M, true);
    let small_raw = session(M, false);
    let opt_result = small_opt.query_det(SQL).expect("optimized");
    let raw_result = small_raw.query_det(SQL).expect("unoptimized");
    assert_eq!(
        opt_result.sorted_rows(),
        raw_result.sorted_rows(),
        "optimizer changed the join result"
    );
    let explain = small_opt.explain_det(SQL).expect("explain");
    assert!(
        explain.contains("HashJoin"),
        "comma-join did not plan to a hash join:\n{explain}"
    );

    let full = session(N, true);
    full.set_exec_mode(ExecMode::Row);
    let row = full.query_det(SQL).expect("row");
    full.set_exec_mode(ExecMode::Vectorized);
    let vec = full.query_det(SQL).expect("vec");
    assert_eq!(row.rows(), vec.rows(), "engines disagree at full scale");
    println!(
        "join output: {} rows from {N} x {N} (selective equi-join)",
        row.len()
    );

    let mut group = c.benchmark_group("join_planning");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("hash_row", N), |b| {
        full.set_exec_mode(ExecMode::Row);
        b.iter(|| full.query_det(SQL).expect("row").len())
    });
    group.bench_function(BenchmarkId::new("hash_vectorized", N), |b| {
        full.set_exec_mode(ExecMode::Vectorized);
        b.iter(|| full.query_det(SQL).expect("vec").len())
    });
    group.bench_function(BenchmarkId::new("cross_baseline_row", M), |b| {
        b.iter(|| small_raw.query_det(SQL).expect("raw").len())
    });
    group.finish();

    full.set_exec_mode(ExecMode::Row);
    let t_hash_full_row = median_secs(|| full.query_det(SQL).expect("row").len(), 5);
    full.set_exec_mode(ExecMode::Vectorized);
    let t_hash_full_vec = median_secs(|| full.query_det(SQL).expect("vec").len(), 5);
    let t_hash_small = median_secs(|| small_opt.query_det(SQL).expect("opt").len(), 5);
    let t_cross_small = median_secs(|| small_raw.query_det(SQL).expect("raw").len(), 3);

    let matched_speedup = t_cross_small / t_hash_small;
    // A cross join is Θ(|r|·|s|): scale the measured baseline quadratically
    // to the full size for the 100k-per-side comparison.
    let scale = (N as f64 / M as f64) * (N as f64 / M as f64);
    let t_cross_full_est = t_cross_small * scale;
    let full_speedup = t_cross_full_est / t_hash_full_row;

    println!(
        "JOIN_PLANNING SPEEDUP (matched {M}/side): cross {:.1} ms, hash {:.2} ms => {:.1}x",
        t_cross_small * 1e3,
        t_hash_small * 1e3,
        matched_speedup
    );
    println!(
        "JOIN_PLANNING SPEEDUP ({N}/side): cross est {:.1} s (measured at {M}/side x {scale:.0}), \
         hash row {:.1} ms, hash vectorized {:.1} ms => {:.0}x",
        t_cross_full_est,
        t_hash_full_row * 1e3,
        t_hash_full_vec * 1e3,
        full_speedup
    );
    assert!(
        matched_speedup >= 10.0,
        "join planning must be >= 10x over the cross-join baseline at matched scale, \
         got {matched_speedup:.1}x"
    );
    assert!(
        full_speedup >= 10.0,
        "join planning must be >= 10x at {N} rows per side, got {full_speedup:.1}x"
    );

    let mut report = BenchReport::new("join_planning")
        .int("rows_per_side", N as u64)
        .int("baseline_rows_per_side", M as u64)
        .num(format!("t_cross_{M}_s"), t_cross_small)
        .num(format!("t_hash_{M}_s"), t_hash_small)
        .num(format!("t_hash_{N}_row_s"), t_hash_full_row)
        .num(format!("t_hash_{N}_vectorized_s"), t_hash_full_vec)
        .num(format!("t_cross_{N}_extrapolated_s"), t_cross_full_est)
        .num("speedup_matched", matched_speedup)
        .num(format!("speedup_{N}"), full_speedup);
    for (label, mode) in [("row", ExecMode::Row), ("vectorized", ExecMode::Vectorized)] {
        full.set_exec_mode(mode);
        if let Some(stats) = instrumented_stats(&full, || {
            full.query_det(SQL).expect("stats run");
        }) {
            report = report.operator_stats(label, stats);
        }
    }
    report.write();
}

criterion_group!(benches, bench_join_planning);
criterion_main!(benches);
