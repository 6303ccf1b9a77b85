//! Differential tests: the vectorized executor must produce *identical*
//! output to the row executor — rows, labels, multiplicities, and (because
//! the operators are order-compatible replicas) row order — on randomized
//! plans over randomized tables, across batch-boundary sizes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ua_data::algebra::ProjColumn;
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::{Value, VarId};
use ua_data::{Expr, RaExpr, Relation};
use ua_engine::plan::{AggExpr, AggFunc, Plan, SortOrder};
use ua_engine::{
    execute, rewrite_ua_plan, Catalog, EngineError, ExecMode, ExecOptions, Semantics, Table,
    UaSession,
};
use ua_semiring::pair::Ua;
use ua_vecexec::{stream, table_from_batches, BatchStream};

/// Sizes that straddle the default batch boundary (1024).
const SIZES: [usize; 6] = [0, 1, 7, 1024, 1025, 2500];

fn random_value(rng: &mut StdRng, domain: i64) -> Value {
    match rng.gen_range(0..12u32) {
        0 => Value::Null,
        1 => Value::Var(VarId(rng.gen_range(0..3u32))),
        2 | 3 => Value::str(format!("s{}", rng.gen_range(0..domain))),
        4 => Value::float(rng.gen_range(0..domain) as f64 / 2.0),
        _ => Value::Int(rng.gen_range(0..domain)),
    }
}

/// `r(a, b, c)` — `a`/`b` clean ints (typed columns), `c` mixed values.
fn random_r(rng: &mut StdRng, rows: usize) -> Table {
    Table::from_rows(
        Schema::qualified("r", ["a", "b", "c"]),
        (0..rows)
            .map(|_| {
                Tuple::new(vec![
                    Value::Int(rng.gen_range(0..8)),
                    Value::Int(rng.gen_range(0..5)),
                    random_value(rng, 6),
                ])
            })
            .collect(),
    )
}

/// `s(b, d)` — clean ints for hash-join keys.
fn random_s(rng: &mut StdRng, rows: usize) -> Table {
    Table::from_rows(
        Schema::qualified("s", ["b", "d"]),
        (0..rows)
            .map(|_| {
                Tuple::new(vec![
                    Value::Int(rng.gen_range(0..5)),
                    Value::Int(rng.gen_range(0..50)),
                ])
            })
            .collect(),
    )
}

fn random_predicate(rng: &mut StdRng) -> Expr {
    let atom = |rng: &mut StdRng| {
        // Over the r ⋈ s schema: `b` exists on both sides, so qualify it.
        let col = ["a", "r.b", "s.b", "d"][rng.gen_range(0..4usize)];
        let lit = Expr::lit(rng.gen_range(0i64..8));
        match rng.gen_range(0..5u32) {
            0 => Expr::named(col).eq(lit),
            1 => Expr::named(col).lt(lit),
            2 => Expr::named(col).ge(lit),
            3 => Expr::named(col).between(Expr::lit(1i64), lit),
            _ => Expr::InList(
                Box::new(Expr::named(col)),
                vec![Expr::lit(0i64), Expr::lit(3i64), Expr::lit(7i64)],
            ),
        }
    };
    let a = atom(rng);
    match rng.gen_range(0..4u32) {
        0 => a,
        1 => a.and(atom(rng)),
        2 => a.or(atom(rng)),
        _ => a.not(),
    }
}

/// A predicate safe for `r` alone (references only r's columns).
fn r_predicate(rng: &mut StdRng) -> Expr {
    let col = ["a", "b"][rng.gen_range(0..2usize)];
    let lit = Expr::lit(rng.gen_range(0i64..8));
    match rng.gen_range(0..3u32) {
        0 => Expr::named(col).eq(lit),
        1 => Expr::named(col).lt(lit),
        _ => Expr::named(col).ge(lit),
    }
}

/// Random RA⁺ query over `r` (and sometimes `s`).
fn random_ra(rng: &mut StdRng) -> RaExpr {
    match rng.gen_range(0..8u32) {
        0 => RaExpr::table("r").select(r_predicate(rng)),
        1 => RaExpr::table("r").project(["b", "a"]),
        2 => RaExpr::table("r")
            .join(
                RaExpr::table("s"),
                Expr::named("r.b").eq(Expr::named("s.b")),
            )
            .select(random_predicate(rng))
            .project(["a", "d"]),
        3 => RaExpr::table("r").join(
            RaExpr::table("s"),
            Expr::named("r.b")
                .eq(Expr::named("s.b"))
                .and(Expr::named("d").ge(Expr::lit(10i64))),
        ),
        // θ-join without an equality → nested loops on both engines.
        4 => RaExpr::table("r").join(
            RaExpr::table("s"),
            Expr::named("r.b").lt(Expr::named("s.b")),
        ),
        5 => RaExpr::table("r")
            .project(["b"])
            .union(RaExpr::table("s").project(["b"])),
        6 => RaExpr::table("r")
            .alias("x")
            .select(Expr::named("x.a").ge(Expr::lit(2i64))),
        _ => RaExpr::table("r")
            .alias("r1")
            .join(
                RaExpr::table("r").alias("r2"),
                Expr::named("r1.b").eq(Expr::named("r2.b")),
            )
            .project_cols(vec![ProjColumn::named("r1.a"), ProjColumn::named("r2.c")]),
    }
}

/// Random multi-key sort keys over the first two output columns (positions
/// are always in range: every `random_ra` shape has arity ≥ 1, and the
/// second key only appears via shapes of arity ≥ 2 below). Duplicate keys
/// are guaranteed by the tiny value domains; NULLs and labeled nulls come
/// from `r.c`.
fn random_sort_keys(rng: &mut StdRng, arity: usize) -> Vec<(Expr, SortOrder)> {
    let order = |rng: &mut StdRng| {
        if rng.gen_range(0..2) == 0 {
            SortOrder::Asc
        } else {
            SortOrder::Desc
        }
    };
    let mut keys = vec![(Expr::col(rng.gen_range(0..arity)), order(rng))];
    if arity >= 2 && rng.gen_range(0..2) == 0 {
        keys.push((Expr::col(rng.gen_range(0..arity)), order(rng)));
    }
    keys
}

/// Wrap an RA⁺ plan in the row-engine extras the vectorized driver must
/// also support.
fn random_plan(rng: &mut StdRng) -> Plan {
    let base = Plan::from_ra(&random_ra(rng));
    match rng.gen_range(0..8u32) {
        0 => Plan::Distinct {
            input: Box::new(base),
        },
        1 => Plan::Sort {
            input: Box::new(Plan::Limit {
                input: Box::new(base),
                limit: 17,
            }),
            keys: vec![(Expr::col(0), SortOrder::Desc)],
        },
        5 => {
            // Multi-key sort (duplicate keys, NULLs via r.c) over a known
            // arity-3 projection.
            let input = Plan::from_ra(&RaExpr::table("r").project(["c", "b", "a"]));
            Plan::Sort {
                keys: random_sort_keys(rng, 3),
                input: Box::new(input),
            }
        }
        6 => {
            // ORDER BY + LIMIT, unfused (the optimizer-independent shape).
            let input = Plan::from_ra(&RaExpr::table("r").project(["c", "a"]));
            Plan::Limit {
                input: Box::new(Plan::Sort {
                    keys: random_sort_keys(rng, 2),
                    input: Box::new(input),
                }),
                limit: rng.gen_range(0..30),
            }
        }
        7 => {
            // The fused Top-K operator itself, over a join output.
            let input = Plan::from_ra(&RaExpr::table("r").join(
                RaExpr::table("s"),
                Expr::named("r.b").eq(Expr::named("s.b")),
            ));
            Plan::TopK {
                keys: random_sort_keys(rng, 5),
                input: Box::new(input),
                limit: rng.gen_range(0..25),
            }
        }
        2 => {
            // Aggregate over the join output: group by a, count + sum d.
            Plan::Aggregate {
                input: Box::new(Plan::from_ra(&RaExpr::table("r").join(
                    RaExpr::table("s"),
                    Expr::named("r.b").eq(Expr::named("s.b")),
                ))),
                group_by: vec![ProjColumn::named("a")],
                aggregates: vec![
                    AggExpr {
                        func: AggFunc::CountStar,
                        arg: None,
                        name: "n".into(),
                    },
                    AggExpr {
                        func: AggFunc::Sum,
                        arg: Some(Expr::named("d")),
                        name: "total".into(),
                    },
                    AggExpr {
                        func: AggFunc::Min,
                        arg: Some(Expr::named("d")),
                        name: "lo".into(),
                    },
                    AggExpr {
                        func: AggFunc::Avg,
                        arg: Some(Expr::named("d")),
                        name: "mean".into(),
                    },
                ],
            }
        }
        _ => base,
    }
}

fn assert_tables_identical(row: &Table, vec: &Table, context: &str) {
    assert_eq!(
        row.schema().arity(),
        vec.schema().arity(),
        "arity mismatch: {context}"
    );
    assert_eq!(row.len(), vec.len(), "row count mismatch: {context}");
    assert_eq!(row.rows(), vec.rows(), "row/order mismatch: {context}");
}

#[test]
fn deterministic_plans_agree_across_sizes_and_seeds() {
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    for &rows in &SIZES {
        for trial in 0..25 {
            let catalog = Catalog::new();
            catalog.register("r", random_r(&mut rng, rows));
            catalog.register("s", random_s(&mut rng, rows.min(600) / 2 + 1));
            let plan = random_plan(&mut rng);
            let row = execute(&plan, &catalog).expect("row exec");
            let vec = ua_vecexec::execute(&plan, &catalog, ExecOptions::default(), Semantics::Det)
                .0
                .expect("vec exec");
            assert_tables_identical(&row, &vec, &format!("rows={rows} trial={trial} {plan}"));
        }
    }
}

#[test]
fn batch_size_is_semantically_invisible() {
    let mut rng = StdRng::seed_from_u64(7);
    let catalog = Catalog::new();
    catalog.register("r", random_r(&mut rng, 1030));
    catalog.register("s", random_s(&mut rng, 100));
    for trial in 0..10 {
        let plan = random_plan(&mut rng);
        let row = execute(&plan, &catalog).expect("row exec");
        for batch_rows in [1usize, 2, 1024, 1025, 4096] {
            let stream =
                stream(&plan, &catalog, opts(1, batch_rows), Semantics::Det).expect("vec exec");
            let vec = table_from_batches(&stream);
            assert_tables_identical(
                &row,
                &vec,
                &format!("batch_rows={batch_rows} trial={trial} {plan}"),
            );
        }
    }
}

/// Random ℕ_UA relations over the `r`/`s` schemas.
fn random_ua_relation(
    rng: &mut StdRng,
    name: &str,
    cols: &[&str],
    rows: usize,
) -> Relation<Ua<u64>> {
    Relation::from_annotated(
        Schema::qualified(name, cols.iter().copied()),
        (0..rows).map(|_| {
            let t: Tuple = (0..cols.len())
                .map(|_| Value::Int(rng.gen_range(0..5)))
                .collect();
            let cert = rng.gen_range(0u64..3);
            let det = cert + rng.gen_range(0u64..3);
            (t, Ua::new(cert, det.max(1)))
        }),
    )
}

#[test]
fn ua_path_matches_rewritten_row_path_label_for_label() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for &rows in &[0usize, 1, 5, 40, 700] {
        for trial in 0..20 {
            let session = UaSession::new();
            session.register_ua_relation(
                "r",
                &random_ua_relation(&mut rng, "r", &["a", "b", "c"], rows),
            );
            session.register_ua_relation(
                "s",
                &random_ua_relation(&mut rng, "s", &["b", "d"], rows / 2 + 1),
            );
            let q = random_ra(&mut rng);

            session.set_exec_mode(ExecMode::Row);
            let row = session.query_ua_ra(&q).expect("row UA");
            session.set_exec_mode(ExecMode::Vectorized);
            let vec = session.query_ua_ra(&q).expect("vec UA");

            // Identical encoded tables: same rows (labels are the trailing
            // ua_c marker of each row copy), same order.
            assert_tables_identical(
                &row.table,
                &vec.table,
                &format!("rows={rows} trial={trial} {q}"),
            );
            // And therefore identical decoded K²-relations.
            assert_eq!(row.decode(), vec.decode(), "decode mismatch: {q}");
            assert_eq!(row.certainty_counts(), vec.certainty_counts());
        }
    }
}

#[test]
fn ua_sql_frontend_with_order_by_and_limit_agrees() {
    let mut rng = StdRng::seed_from_u64(99);
    let table = Table::from_rows(
        Schema::qualified("addr", ["xid", "aid", "p", "id", "locale", "state"]),
        (0..1500i64)
            .map(|i| {
                let alts = rng.gen_range(1..3i64);
                Tuple::new(vec![
                    Value::Int(i / 2),
                    Value::Int(i % 2),
                    Value::float(if alts == 1 {
                        1.0
                    } else {
                        0.5 + (i % 2) as f64 * 0.1
                    }),
                    Value::Int(i / 2),
                    Value::str(format!("loc{}", i % 37)),
                    Value::str(["NY", "AZ", "IL"][(i % 3) as usize]),
                ])
            })
            .collect(),
    );
    let sql = "SELECT id, locale FROM addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) \
               WHERE state = 'NY' ORDER BY id LIMIT 100";
    let row_session = UaSession::with_mode(ExecMode::Row);
    row_session.register_table("addr", table.clone());
    let row = row_session.query_ua(sql).expect("row");

    let vec_session = UaSession::with_mode(ExecMode::Vectorized);
    vec_session.register_table("addr", table);
    let vec = vec_session.query_ua(sql).expect("vec");

    assert_tables_identical(&row.table, &vec.table, "sql frontend");
    assert_eq!(row.certainty_counts(), vec.certainty_counts());
}

#[test]
fn referencing_the_marker_is_rejected_in_both_paths() {
    let session = UaSession::new();
    let rel = random_ua_relation(&mut StdRng::seed_from_u64(1), "r", &["a"], 5);
    session.register_ua_relation("r", &rel);
    // The marker is engine bookkeeping: projecting it, filtering on it
    // (qualified or not), or joining on it must fail identically under
    // both executors rather than silently exposing the encoding.
    let queries = [
        RaExpr::table("r").project(["ua_c"]),
        RaExpr::table("r").select(Expr::named("ua_c").eq(Expr::lit(1i64))),
        RaExpr::table("r").select(Expr::named("r.ua_c").eq(Expr::lit(1i64))),
        RaExpr::table("r").alias("x").join(
            RaExpr::table("r").alias("y"),
            Expr::named("x.ua_c").eq(Expr::named("y.ua_c")),
        ),
        RaExpr::table("r").project_cols(vec![ProjColumn::expr(
            Expr::named("ua_c").add(Expr::lit(1i64)),
            "c2",
        )]),
    ];
    for q in &queries {
        session.set_exec_mode(ExecMode::Row);
        assert!(session.query_ua_ra(q).is_err(), "row accepted {q}");
        session.set_exec_mode(ExecMode::Vectorized);
        assert!(session.query_ua_ra(q).is_err(), "vectorized accepted {q}");
    }
}

#[test]
fn columnar_limit_and_top_k_count_row_copies() {
    // A tuple with multiplicity n is n duplicate rows, in the table and in
    // its batches: the columnar limit and Top-K must count those copies
    // like the row engine's `limit_table` / `top_k_table`, including when
    // a batch boundary or the limit falls between copies of one tuple.
    let rel = ua_data::bag_relation(
        "r",
        &["a"],
        (0..10i64)
            .flat_map(|i| std::iter::repeat_n(vec![Value::Int(i)], (i as usize % 4) + 1))
            .collect::<Vec<Vec<Value>>>(),
    );
    let expanded = Table::from_relation(&rel);
    let key_sets = [
        vec![(Expr::named("a"), SortOrder::Desc)],
        vec![(Expr::lit(1i64), SortOrder::Asc)],
    ];
    for batch_rows in [1, 3, 1024] {
        for limit in [0usize, 1, 4, 7, 12, 24, 25, 100] {
            let stream = ua_vecexec::batches_from_table(&expanded, batch_rows);
            let limited = ua_vecexec::ops::limit(stream, limit);
            assert_eq!(
                table_from_batches(&limited).rows(),
                ua_engine::limit_table(&expanded, limit).rows(),
                "limit: batch_rows={batch_rows}, limit={limit}"
            );
            for keys in &key_sets {
                let stream = ua_vecexec::batches_from_table(&expanded, batch_rows);
                let top = ua_vecexec::ops::top_k(stream, keys, limit, batch_rows).unwrap();
                assert_eq!(
                    table_from_batches(&top).rows(),
                    ua_engine::top_k_table(&expanded, keys, limit)
                        .unwrap()
                        .rows(),
                    "top_k {keys:?}: batch_rows={batch_rows}, k={limit}"
                );
            }
        }
    }
}

/// Streams compared *byte for byte*: same batch boundaries, same rows.
/// Stronger than table equality — this is the morsel pipeline's
/// determinism contract.
fn assert_streams_byte_identical(a: &BatchStream, b: &BatchStream, context: &str) {
    assert_eq!(a.schema, b.schema, "schema mismatch: {context}");
    assert_eq!(a.batches.len(), b.batches.len(), "batch count: {context}");
    for (i, (ba, bb)) in a.batches.iter().zip(&b.batches).enumerate() {
        assert_eq!(ba.len(), bb.len(), "batch {i} len: {context}");
        assert_eq!(ba.columns(), bb.columns(), "batch {i} columns: {context}");
    }
}

fn opts(threads: usize, batch_rows: usize) -> ExecOptions {
    ExecOptions {
        threads,
        batch_rows,
        collect_stats: false,
        collect_trace: false,
    }
}

/// Determinism property (seeded random pipelines): for every thread count,
/// the parallel vectorized output is byte-identical to the serial
/// vectorized output — batches, labels, multiplicities and error outcomes
/// included. Each (plan, thread count) pair runs several times to shake
/// out scheduling nondeterminism.
#[test]
fn parallel_pipelines_are_byte_identical_to_serial() {
    let mut rng = StdRng::seed_from_u64(0x9A11E1);
    for trial in 0..12 {
        let catalog = Catalog::new();
        catalog.register("r", random_r(&mut rng, 1030));
        catalog.register("s", random_s(&mut rng, 120));
        let plan = random_plan(&mut rng);
        let serial = stream(&plan, &catalog, opts(1, 128), Semantics::Det);
        for threads in [2usize, 3, 8] {
            for rep in 0..3 {
                let parallel = stream(&plan, &catalog, opts(threads, 128), Semantics::Det);
                match (&serial, &parallel) {
                    (Ok(s), Ok(p)) => assert_streams_byte_identical(
                        s,
                        p,
                        &format!("trial={trial} threads={threads} rep={rep} {plan}"),
                    ),
                    (Err(se), Err(pe)) => assert_eq!(
                        se.to_string(),
                        pe.to_string(),
                        "error mismatch: trial={trial} threads={threads} {plan}"
                    ),
                    (s, p) => panic!(
                        "serial/parallel disagree on success (trial={trial} \
                         threads={threads}): {plan}\n serial: {:?}\n parallel: {:?}",
                        s.as_ref().map(BatchStream::num_rows),
                        p.as_ref().map(BatchStream::num_rows)
                    ),
                }
            }
        }
    }
}

/// The same determinism property for the UA path: the `⟦·⟧_UA` rewriting
/// streams identically — marker column included — at every thread count.
#[test]
fn parallel_ua_pipelines_are_byte_identical_to_serial() {
    let mut rng = StdRng::seed_from_u64(0x9A11E2);
    for trial in 0..10 {
        let session = UaSession::new();
        session.register_ua_relation(
            "r",
            &random_ua_relation(&mut rng, "r", &["a", "b", "c"], 700),
        );
        session.register_ua_relation("s", &random_ua_relation(&mut rng, "s", &["b", "d"], 80));
        let q = random_ra(&mut rng);
        let catalog = session.catalog();
        let plan = rewrite_ua_plan(&Plan::from_ra(&q), catalog).expect("in the fragment");
        let serial = stream(&plan, catalog, opts(1, 64), Semantics::Ua).expect("serial UA");
        for threads in [2usize, 8] {
            for rep in 0..3 {
                let parallel =
                    stream(&plan, catalog, opts(threads, 64), Semantics::Ua).expect("parallel UA");
                assert_streams_byte_identical(
                    &serial,
                    &parallel,
                    &format!("trial={trial} threads={threads} rep={rep} {q}"),
                );
            }
        }
    }
}

/// Sort / Top-K differential sweep: multi-key orderings with duplicate
/// keys and NULL/labeled-null key values must agree with the row engine —
/// order included — across batch-size boundaries and thread counts.
#[test]
fn sort_and_topk_agree_across_batch_sizes_and_threads() {
    let mut rng = StdRng::seed_from_u64(0x50FA);
    let catalog = Catalog::new();
    catalog.register("r", random_r(&mut rng, 1500));
    catalog.register("s", random_s(&mut rng, 100));
    let sort_input = Plan::from_ra(&RaExpr::table("r").project(["c", "b", "a"]));
    let join_input = Plan::from_ra(&RaExpr::table("r").join(
        RaExpr::table("s"),
        Expr::named("r.b").eq(Expr::named("s.b")),
    ));
    let multi_key = vec![
        (Expr::col(0), SortOrder::Asc), // NULLs + labeled nulls in r.c
        (Expr::col(1), SortOrder::Desc),
        (Expr::col(2), SortOrder::Asc),
    ];
    let mut plans = vec![
        Plan::Sort {
            input: Box::new(sort_input.clone()),
            keys: multi_key.clone(),
        },
        Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(sort_input.clone()),
                keys: multi_key.clone(),
            }),
            limit: 13,
        },
        Plan::Sort {
            input: Box::new(join_input.clone()),
            keys: vec![
                (Expr::col(4), SortOrder::Desc),
                (Expr::col(0), SortOrder::Asc),
            ],
        },
    ];
    for limit in [0usize, 1, 7, 100, 5000] {
        plans.push(Plan::TopK {
            input: Box::new(join_input.clone()),
            keys: vec![
                (Expr::col(3), SortOrder::Asc),
                (Expr::col(2), SortOrder::Desc),
            ],
            limit,
        });
    }
    for (pi, plan) in plans.iter().enumerate() {
        let row = execute(plan, &catalog).expect("row exec");
        for batch_rows in [1usize, 7, 1024] {
            for threads in [1usize, 2, 8] {
                let stream = stream(plan, &catalog, opts(threads, batch_rows), Semantics::Det)
                    .expect("vec exec");
                let vec = table_from_batches(&stream);
                assert_tables_identical(
                    &row,
                    &vec,
                    &format!("plan={pi} batch_rows={batch_rows} threads={threads}"),
                );
            }
        }
    }
}

/// Regression: the vectorized UA path runs trailing ORDER BY / LIMIT
/// natively — a `Semantics::Ua` `stream` of the rewriting of
/// Sort/Limit/TopK-bearing plans succeeds and matches the row engine's
/// encoded sort (which tie-breaks on the trailing marker column) byte for
/// byte.
#[test]
fn ua_hook_executes_order_by_limit_natively() {
    // Same tuple with different labels: the sort's final tie-break must
    // order the uncertain copy (marker 0) before the certain one (marker 1)
    // exactly like the row engine's full-row comparison over encoded rows.
    let encoded = Table::from_rows(
        Schema::qualified("r", ["a", "b"]).with_column(ua_core::UA_LABEL_COLUMN),
        (0..40i64)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i % 5),
                    Value::Int(i % 3),
                    Value::Int(i % 2),
                ])
            })
            .collect(),
    );
    let catalog = Catalog::new();
    catalog.register("r", encoded.clone());
    let scan = Plan::Scan("r".into());
    let keys = vec![
        (Expr::named("a"), SortOrder::Desc),
        (Expr::named("b"), SortOrder::Asc),
    ];
    let plans = [
        Plan::Sort {
            input: Box::new(scan.clone()),
            keys: keys.clone(),
        },
        Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(scan.clone()),
                keys: keys.clone(),
            }),
            limit: 9,
        },
        Plan::TopK {
            input: Box::new(scan.clone()),
            keys: keys.clone(),
            limit: 9,
        },
    ];
    for (pi, plan) in plans.iter().enumerate() {
        // The old driver returned Err("...ORDER BY/LIMIT are applied by the
        // session...") here; now it must execute natively.
        let plan = rewrite_ua_plan(plan, &catalog).expect("in the fragment");
        for batch_rows in [3usize, 1024] {
            let stream = stream(&plan, &catalog, opts(1, batch_rows), Semantics::Ua)
                .unwrap_or_else(|e| panic!("UA stream fell back for plan {pi}: {e}"));
            let got = table_from_batches(&stream);
            // Reference: the row engine's sort/limit over the *encoded*
            // table (what the session's old fallback computed).
            let mut expected = ua_engine::sort_table(&encoded, &keys).expect("row sort");
            if pi > 0 {
                expected = ua_engine::limit_table(&expected, 9);
            }
            assert_eq!(
                got.rows(),
                expected.rows(),
                "plan {pi}, batch_rows {batch_rows}"
            );
        }
    }
    // And end-to-end through the session: both engines, fused and unfused.
    let mk_session = |mode| {
        let s = UaSession::with_mode(mode);
        // Registering the pre-encoded table under the session catalog.
        s.register_table("r", encoded.clone());
        s
    };
    let sql = "SELECT a, b FROM r ORDER BY a DESC, b LIMIT 9";
    for optimizer in [true, false] {
        let row_s = mk_session(ExecMode::Row);
        row_s.set_optimizer_enabled(optimizer);
        let vec_s = mk_session(ExecMode::Vectorized);
        vec_s.set_optimizer_enabled(optimizer);
        let row = row_s.query_ua(sql).expect("row UA");
        let vec = vec_s.query_ua(sql).expect("vec UA");
        assert_eq!(
            row.table.rows(),
            vec.table.rows(),
            "optimizer={optimizer}: session ORDER BY LIMIT"
        );
        assert_eq!(row.table.len(), 9);
    }
}

/// `EngineError` is shared between drivers; make the import load-bearing.
#[test]
fn unknown_table_errors_match_between_thread_counts() {
    let catalog = Catalog::new();
    let plan = Plan::Scan("missing".into());
    let serial = stream(&plan, &catalog, opts(1, 16), Semantics::Det).expect_err("unknown table");
    let parallel = stream(&plan, &catalog, opts(4, 16), Semantics::Det).expect_err("unknown table");
    assert!(matches!(serial, EngineError::UnknownTable(_)));
    assert_eq!(serial.to_string(), parallel.to_string());
}

/// Parallel pipeline-breaker determinism sweep (PR satellite): GROUP BY
/// SUM/AVG over a Float column seeded with NaN, -0.0 and NULL, and a
/// 3-way hash join + aggregate, must produce byte-identical results
/// across {threads 1, 2, 8} × {batch_rows 1, 7, 1024} on the det, UA and
/// AU paths. Mixed-magnitude floats (`1e16 + 1 - 1e16 ≠ 1e16 - 1e16 + 1`)
/// make any deviation from the serial accumulation order visible in the
/// output bytes.
#[test]
fn pipeline_breakers_deterministic_across_threads_batches_and_semantics() {
    use ua_engine::plan::AggFunc;

    // f(g, x, p): x holds NaN, -0.0, NULL and magnitude-mixed floats so
    // Sum/Avg accumulation order shows up in the bytes; NaN and NULL live
    // in their own groups so they cannot mask the cancellation groups.
    let f_rows: Vec<Tuple> = (0..2600i64)
        .map(|i| {
            let g = i % 8;
            let x = match (g, i % 5) {
                (6, _) => Value::float(f64::NAN),
                (7, 0) => Value::Null,
                (7, _) => Value::float(-0.0),
                (_, 0) => Value::float(1e16),
                (_, 1) => Value::float(1.0),
                (_, 2) => Value::float(-1e16),
                (_, 3) => Value::float(0.25),
                _ => Value::Null,
            };
            Tuple::new(vec![Value::Int(g), x, Value::float(1.0)])
        })
        .collect();
    let f = Table::from_rows(Schema::qualified("f", ["g", "x", "p"]), f_rows);
    let float_agg = |input: Plan| Plan::Aggregate {
        input: Box::new(input),
        group_by: vec![ProjColumn::named("g")],
        aggregates: vec![
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::named("x")),
                name: "s".into(),
            },
            AggExpr {
                func: AggFunc::Avg,
                arg: Some(Expr::named("x")),
                name: "m".into(),
            },
        ],
    };

    // The 3-way hash-join shape: r(a,b,c) ⋈ s(b,d) ⋈ w(d,e), aggregated.
    let mut rng = StdRng::seed_from_u64(0xB4EA4E2);
    let w = Table::from_rows(
        Schema::qualified("w", ["d", "e"]),
        (0..50i64)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 3 % 17)]))
            .collect(),
    );
    let three_way = Plan::Aggregate {
        input: Box::new(Plan::HashJoin {
            left: Box::new(Plan::HashJoin {
                left: Box::new(Plan::Scan("r".into())),
                right: Box::new(Plan::Scan("s".into())),
                keys: vec![(Expr::named("r.b"), Expr::named("s.b"))],
                residual: None,
                build_left: false,
            }),
            right: Box::new(Plan::Scan("w".into())),
            keys: vec![(Expr::named("s.d"), Expr::named("w.d"))],
            residual: None,
            build_left: false,
        }),
        group_by: vec![ProjColumn::named("a")],
        aggregates: vec![
            AggExpr {
                func: AggFunc::CountStar,
                arg: None,
                name: "n".into(),
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::named("e")),
                name: "tot".into(),
            },
        ],
    };

    const THREADS: [usize; 3] = [1, 2, 8];
    const BATCHES: [usize; 3] = [1, 7, 1024];

    // Deterministic path.
    let det_catalog = Catalog::new();
    det_catalog.register("f", f.clone());
    det_catalog.register("r", random_r(&mut rng, 2100));
    det_catalog.register("s", random_s(&mut rng, 260));
    det_catalog.register("w", w.clone());
    for (name, plan) in [
        ("float_agg", float_agg(Plan::Scan("f".into()))),
        ("three_way", three_way.clone()),
    ] {
        let row = execute(&plan, &det_catalog).expect("row exec");
        for batch_rows in BATCHES {
            let serial =
                stream(&plan, &det_catalog, opts(1, batch_rows), Semantics::Det).expect("serial");
            assert_tables_identical(
                &row,
                &table_from_batches(&serial),
                &format!("det {name} serial batch={batch_rows}"),
            );
            for threads in THREADS {
                let parallel = stream(
                    &plan,
                    &det_catalog,
                    opts(threads, batch_rows),
                    Semantics::Det,
                )
                .expect("par");
                assert_streams_byte_identical(
                    &serial,
                    &parallel,
                    &format!("det {name} batch={batch_rows} threads={threads}"),
                );
            }
        }
    }

    // UA path: the rewriting of the 3-way hash-join core (UA is not
    // closed under aggregation), marker column included.
    let ua_session = UaSession::new();
    ua_session.register_ua_relation(
        "r",
        &random_ua_relation(&mut rng, "r", &["a", "b", "c"], 900),
    );
    ua_session.register_ua_relation("s", &random_ua_relation(&mut rng, "s", &["b", "d"], 90));
    ua_session.register_ua_relation("w", &random_ua_relation(&mut rng, "w", &["d", "e"], 30));
    let ua_join = Plan::HashJoin {
        left: Box::new(Plan::HashJoin {
            left: Box::new(Plan::Scan("r".into())),
            right: Box::new(Plan::Scan("s".into())),
            keys: vec![(Expr::named("r.b"), Expr::named("s.b"))],
            residual: None,
            build_left: false,
        }),
        right: Box::new(Plan::Scan("w".into())),
        keys: vec![(Expr::named("s.d"), Expr::named("w.d"))],
        residual: None,
        build_left: false,
    };
    let ua_catalog = ua_session.catalog();
    let ua_join = rewrite_ua_plan(&ua_join, ua_catalog).expect("in the fragment");
    for batch_rows in BATCHES {
        let serial =
            stream(&ua_join, ua_catalog, opts(1, batch_rows), Semantics::Ua).expect("ua serial");
        for threads in THREADS {
            let parallel = stream(
                &ua_join,
                ua_catalog,
                opts(threads, batch_rows),
                Semantics::Ua,
            )
            .expect("ua par");
            assert_streams_byte_identical(
                &serial,
                &parallel,
                &format!("ua batch={batch_rows} threads={threads}"),
            );
        }
    }

    // AU path: the same float aggregation and 3-way join + aggregate over
    // TI-labeled range sources, vectorized output byte-equal to the row
    // interpreter at every (threads, batch_rows).
    let au_catalog = Catalog::new();
    au_catalog.register("f", ua_engine::ti_source_au(&f, "p").expect("f au"));
    for (name, base) in [
        ("r", random_r(&mut rng, 700)),
        ("s", random_s(&mut rng, 80)),
    ] {
        let mut cols: Vec<String> = base
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.to_string())
            .collect();
        cols.push("p".into());
        let with_p = Table::from_rows(
            Schema::qualified(name, cols.iter().map(String::as_str)),
            base.rows()
                .iter()
                .map(|r| {
                    let mut vals: Vec<Value> = r.values().to_vec();
                    vals.push(Value::float(1.0));
                    Tuple::new(vals)
                })
                .collect(),
        );
        au_catalog.register(
            name,
            ua_engine::ti_source_au(&with_p, "p").expect("au source"),
        );
    }
    let au_join = Plan::Aggregate {
        input: Box::new(Plan::HashJoin {
            left: Box::new(Plan::Scan("r".into())),
            right: Box::new(Plan::Scan("s".into())),
            keys: vec![(Expr::named("r.b"), Expr::named("s.b"))],
            residual: None,
            build_left: false,
        }),
        group_by: vec![ProjColumn::named("a")],
        aggregates: vec![
            AggExpr {
                func: AggFunc::CountStar,
                arg: None,
                name: "n".into(),
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::named("d")),
                name: "tot".into(),
            },
        ],
    };
    for (name, plan) in [
        ("float_agg", float_agg(Plan::Scan("f".into()))),
        ("join_agg", au_join),
    ] {
        let row = ua_engine::au_table(&ua_engine::execute_au(&plan, &au_catalog).expect("au row"));
        for batch_rows in BATCHES {
            for threads in THREADS {
                let vec = ua_vecexec::execute_au_vectorized_opts(
                    &plan,
                    &au_catalog,
                    opts(threads, batch_rows),
                )
                .expect("au vec");
                assert_tables_identical(
                    &row,
                    &vec,
                    &format!("au {name} batch={batch_rows} threads={threads}"),
                );
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Keys {
    /// Every key a certain value.
    Points,
    /// Points mixed with ranged, definite-NULL and top keys.
    Ranged,
    /// Every key a certain value, and the payload `v` too: every row a
    /// certain point, read through typed key buffers.
    Certain,
}

#[derive(Clone, Copy)]
enum Domain {
    Int,
    Float,
    Str,
}

/// An AU relation `name(k, k2, v)`: `k` in the given domain and certainty,
/// `k2` a small certain Int, `v` a ranged Int payload.
fn au_side(
    rng: &mut StdRng,
    name: &str,
    rows: usize,
    keys: Keys,
    domain: Domain,
) -> ua_ranges::AuRelation {
    use ua_ranges::{AuRelation, AuTuple, Bound, MultBound, RangeValue};
    let point = |x: i64| match domain {
        Domain::Int => Value::Int(x),
        // Integral and fractional floats, NaN and -0.0.
        Domain::Float => match x {
            5 => Value::float(f64::NAN),
            0 => Value::float(-0.0),
            x if x % 4 == 3 => Value::float(x as f64 + 0.5),
            x => Value::float(x as f64),
        },
        Domain::Str => Value::str(format!("k{x}")),
    };
    let mut rel = AuRelation::new(Schema::qualified(name, ["k", "k2", "v"]));
    for _ in 0..rows {
        let x = rng.gen_range(0..8i64);
        let k = match (keys, rng.gen_range(0..10u32)) {
            (Keys::Ranged, 0) => RangeValue::null(),
            (Keys::Ranged, 1) => RangeValue::top(point(x)),
            (Keys::Ranged, 2 | 3) => {
                RangeValue::new(Bound::Val(point(x)), point(x + 1), Bound::Val(point(x + 2)))
            }
            _ => RangeValue::point(point(x)),
        };
        let v = rng.gen_range(0..20i64);
        let spread = rng.gen_range(0..3i64);
        let spread = if matches!(keys, Keys::Certain) {
            0
        } else {
            spread
        };
        let ub = rng.gen_range(1..3u64);
        let bg = rng.gen_range(0..=ub);
        let lb = rng.gen_range(0..=bg);
        rel.push(AuTuple {
            values: vec![
                k,
                RangeValue::point(Value::Int(rng.gen_range(0..3))),
                RangeValue::new(
                    Bound::Val(Value::Int(v - spread)),
                    Value::Int(v),
                    Bound::Val(Value::Int(v + spread)),
                ),
            ],
            mult: MultBound::new(lb, bg, ub),
        });
    }
    rel
}

/// The determinism property at stream level for the AU semantics of the one
/// driver: σ → alias → π → σ chains pipelined below both inputs of a hash ⋈
/// and above it, over ranged / definite-NULL / top keys and ranged
/// payloads. Every thread count × batch size, stats on or off, yields the
/// serial stream's batches byte for byte, and every stream materializes to
/// the row interpreter's table (`execute_au` + `au_table`).
#[test]
fn parallel_au_pipelines_are_byte_identical_to_serial() {
    // σ → alias → π → σ over one scanned side.
    let chain = |table: &str, alias: &str| Plan::Filter {
        input: Box::new(Plan::Map {
            input: Box::new(Plan::Alias {
                input: Box::new(Plan::Filter {
                    input: Box::new(Plan::Scan(table.into())),
                    predicate: Expr::named("v").ge(Expr::lit(2i64)),
                }),
                name: alias.into(),
            }),
            columns: vec![
                ProjColumn::with_column(
                    Expr::named("k"),
                    ua_data::schema::Column::qualified(alias, "k"),
                ),
                ProjColumn::with_column(
                    Expr::named("v").add(Expr::named("k2")),
                    ua_data::schema::Column::qualified(alias, "w"),
                ),
            ],
        }),
        predicate: Expr::named("w").lt(Expr::lit(19i64)),
    };
    let join = |build_left| Plan::HashJoin {
        left: Box::new(chain("l", "a")),
        right: Box::new(chain("r", "b")),
        keys: vec![(Expr::named("a.k"), Expr::named("b.k"))],
        residual: None,
        build_left,
    };
    // σ → π → alias → σ over the join.
    let above = |build_left| Plan::Filter {
        input: Box::new(Plan::Alias {
            input: Box::new(Plan::Map {
                input: Box::new(Plan::Filter {
                    input: Box::new(join(build_left)),
                    predicate: Expr::named("a.w").le(Expr::named("b.w").add(Expr::lit(4i64))),
                }),
                columns: vec![
                    ProjColumn::expr(Expr::named("a.k"), "k"),
                    ProjColumn::expr(Expr::named("a.w").add(Expr::named("b.w")), "s"),
                ],
            }),
            name: "j".into(),
        }),
        predicate: Expr::named("j.s").gt(Expr::lit(6i64)),
    };

    let mut rng = StdRng::seed_from_u64(0x9A11E3);
    for trial in 0..3 {
        let catalog = Catalog::new();
        let l = au_side(&mut rng, "l", 150, Keys::Ranged, Domain::Int);
        let r = au_side(&mut rng, "r", 60, Keys::Ranged, Domain::Int);
        catalog.register("l", ua_engine::au_table(&l));
        catalog.register("r", ua_engine::au_table(&r));
        for build_left in [false, true] {
            let plan = above(build_left);
            let row = ua_engine::au_table(&ua_engine::execute_au(&plan, &catalog).expect("au row"));
            assert!(!row.is_empty(), "trial={trial}: the chain must keep rows");
            for batch_rows in [1usize, 7, 64, 1024] {
                let serial =
                    stream(&plan, &catalog, opts(1, batch_rows), Semantics::Au).expect("serial AU");
                let context = format!("trial={trial} build_left={build_left} batch={batch_rows}");
                assert_tables_identical(&row, &table_from_batches(&serial), &context);
                for threads in [1usize, 2, 4, 8] {
                    for collect_stats in [false, true] {
                        let options = ExecOptions {
                            collect_stats,
                            ..opts(threads, batch_rows)
                        };
                        let parallel =
                            stream(&plan, &catalog, options, Semantics::Au).expect("parallel AU");
                        assert_streams_byte_identical(
                            &serial,
                            &parallel,
                            &format!("{context} threads={threads} stats={collect_stats}"),
                        );
                    }
                }
            }
        }
    }
}

/// AU hash joins over ranged keys: the triple-column-native join must emit
/// the row operator's bytes — same rows, same order, same refined
/// multiplicities — for point keys, ranged / NULL / top / NaN keys on the
/// build side, the probe side and both, a residual predicate,
/// `Int`-vs-`Float` keys, cross-family keys (fuzzy, never a bucket hit),
/// computed and composite keys and empty sides, under both `build_left`
/// settings, at threads {1, 2, 4} × batch rows {1, 7, 1024}.
#[test]
fn au_hash_joins_match_the_row_operator_over_ranged_keys() {
    let single = vec![(Expr::named("l.k"), Expr::named("r.k"))];
    let composite = vec![
        (Expr::named("l.k"), Expr::named("r.k")),
        (Expr::named("l.k2"), Expr::named("r.k2")),
    ];
    let computed = vec![(
        Expr::named("l.k").add(Expr::lit(1i64)),
        Expr::named("r.k").add(Expr::named("r.k2")),
    )];
    let residual = Expr::named("l.v").lt(Expr::named("r.v"));
    use Domain::{Float, Int, Str};
    use Keys::{Points, Ranged};
    // (name, left rows/keys/domain, right rows/keys/domain, keys, residual)
    #[allow(clippy::type_complexity)]
    let cases: Vec<(
        &str,
        (usize, Keys, Domain),
        (usize, Keys, Domain),
        &Vec<(Expr, Expr)>,
        Option<&Expr>,
    )> = vec![
        (
            "points",
            (90, Points, Int),
            (40, Points, Int),
            &single,
            None,
        ),
        (
            "ranged left",
            (60, Ranged, Int),
            (30, Points, Int),
            &single,
            None,
        ),
        (
            "ranged right",
            (60, Points, Int),
            (30, Ranged, Int),
            &single,
            None,
        ),
        (
            "ranged both",
            (50, Ranged, Int),
            (25, Ranged, Int),
            &single,
            None,
        ),
        (
            "residual",
            (50, Ranged, Int),
            (30, Points, Int),
            &single,
            Some(&residual),
        ),
        (
            "residual over points",
            (60, Points, Int),
            (30, Points, Int),
            &single,
            Some(&residual),
        ),
        (
            "int vs float",
            (60, Ranged, Int),
            (40, Ranged, Float),
            &single,
            None,
        ),
        (
            "float vs float",
            (60, Ranged, Float),
            (40, Points, Float),
            &single,
            None,
        ),
        (
            "strings",
            (40, Ranged, Str),
            (30, Ranged, Str),
            &single,
            None,
        ),
        (
            "cross family",
            (20, Ranged, Int),
            (15, Points, Str),
            &single,
            None,
        ),
        (
            "composite",
            (70, Ranged, Int),
            (40, Ranged, Int),
            &composite,
            None,
        ),
        (
            "computed",
            (50, Ranged, Int),
            (40, Points, Int),
            &computed,
            None,
        ),
        (
            "empty left",
            (0, Points, Int),
            (20, Ranged, Int),
            &single,
            None,
        ),
        (
            "empty right",
            (20, Ranged, Int),
            (0, Points, Int),
            &single,
            None,
        ),
    ];

    let mut rng = StdRng::seed_from_u64(0xA0_7015);
    for (name, (ln, lkeys, ldom), (rn, rkeys, rdom), keys, residual) in cases {
        let catalog = Catalog::new();
        let l = au_side(&mut rng, "l", ln, lkeys, ldom);
        let r = au_side(&mut rng, "r", rn, rkeys, rdom);
        catalog.register("l", ua_engine::au_table(&l));
        catalog.register("r", ua_engine::au_table(&r));
        for build_left in [false, true] {
            let plan = Plan::HashJoin {
                left: Box::new(Plan::Scan("l".into())),
                right: Box::new(Plan::Scan("r".into())),
                keys: keys.clone(),
                residual: residual.cloned(),
                build_left,
            };
            let row = ua_engine::au_table(&ua_engine::execute_au(&plan, &catalog).expect("au row"));
            if ln > 0 && rn > 0 && !name.starts_with("cross") {
                assert!(!row.is_empty(), "{name}: the case must exercise the join");
            }
            for threads in [1, 2, 4] {
                for batch_rows in [1, 7, 1024] {
                    let vec = ua_vecexec::execute_au_vectorized_opts(
                        &plan,
                        &catalog,
                        opts(threads, batch_rows),
                    )
                    .expect("au vec");
                    assert_tables_identical(
                        &row,
                        &vec,
                        &format!(
                            "au hash join `{name}` build_left={build_left} \
                             threads={threads} batch={batch_rows}"
                        ),
                    );
                }
            }
        }
    }
}

/// AU `−` and `⟕` over uncertain keys: the column-native operators select
/// through the row engine's own bound rules, so every stream must
/// materialize to `execute_au` + `au_table` byte for byte — `EXCEPT` and
/// `EXCEPT ALL` over whole rows and over the repeating key columns alone
/// (duplicates for the protectors), `LEFT` / `RIGHT JOIN` on plain,
/// composite and computed equi-keys, with a residual, under `NOT IN`'s
/// null-aware predicate and keyless, and the `NOT IN` anti-join shape
/// (`IS NULL` over the padded flag) — over point / ranged / top /
/// definite-NULL keys, NaN and `−0.0`, `Int`-vs-`Float` equal points,
/// cross-family sides, `lb = 0` / `bg = 0` multiplicities and empty sides
/// — and over all-point sides (`Int`, `Float`, `Str`, `Int` against
/// `Float`), whose typed key columns the chunk view hands to the index as
/// they are. At threads {1, 2, 4, 8} × batch rows {1, 7, 64, 1024} every
/// parallel stream is the serial one, and a query the row engine rejects
/// fails on every run.
#[test]
fn au_except_and_outer_joins_match_the_row_operators_over_ranged_keys() {
    use ua_data::algebra::null_aware_eq;
    use ua_engine::plan::OuterKind;
    use Domain::{Float, Int, Str};
    use Keys::{Certain, Points, Ranged};
    let scan = |t: &str| Box::new(Plan::Scan(t.into()));
    let key_columns = |t: &str| {
        Box::new(Plan::Map {
            input: scan(t),
            columns: vec![ProjColumn::named("k"), ProjColumn::named("k2")],
        })
    };
    let col = Expr::named;
    let predicates: Vec<(&str, Option<Expr>)> = vec![
        ("plain", Some(col("l.k").eq(col("r.k")))),
        (
            "composite",
            Some(col("l.k").eq(col("r.k")).and(col("l.k2").eq(col("r.k2")))),
        ),
        (
            "computed",
            Some(
                col("l.k")
                    .add(Expr::lit(1i64))
                    .eq(col("r.k").add(col("r.k2"))),
            ),
        ),
        (
            "residual",
            Some(col("l.k").eq(col("r.k")).and(col("l.v").lt(col("r.v")))),
        ),
        ("not in", Some(null_aware_eq(col("l.k"), col("r.k")))),
        ("keyless", None),
    ];
    let mut plans: Vec<(String, Plan)> = Vec::new();
    for all in [false, true] {
        plans.push((
            format!("except all={all}"),
            Plan::Except {
                left: scan("l"),
                right: scan("r"),
                all,
            },
        ));
        plans.push((
            format!("except keys all={all}"),
            Plan::Except {
                left: key_columns("l"),
                right: key_columns("r"),
                all,
            },
        ));
    }
    for (name, predicate) in &predicates {
        for kind in [OuterKind::Left, OuterKind::Right] {
            plans.push((
                format!("{kind:?} join {name}"),
                Plan::OuterJoin {
                    left: scan("l"),
                    right: scan("r"),
                    predicate: predicate.clone(),
                    kind,
                },
            ));
        }
    }
    plans.push((
        "not in anti-join".into(),
        Plan::Map {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::OuterJoin {
                    left: scan("l"),
                    right: Box::new(Plan::Map {
                        input: scan("r"),
                        columns: vec![
                            ProjColumn::expr(col("k"), "__in"),
                            ProjColumn::expr(Expr::lit(1i64), "__anti"),
                        ],
                    }),
                    predicate: Some(null_aware_eq(col("l.k"), col("__in"))),
                    kind: OuterKind::Left,
                }),
                predicate: Expr::IsNull(Box::new(col("__anti"))),
            }),
            columns: vec![
                ProjColumn::expr(col("l.k"), "k"),
                ProjColumn::expr(col("l.v"), "v"),
            ],
        },
    ));

    // (name, left rows/keys/domain, right rows/keys/domain)
    #[allow(clippy::type_complexity)]
    let sides: Vec<(&str, (usize, Keys, Domain), (usize, Keys, Domain))> = vec![
        ("points", (40, Points, Int), (30, Points, Int)),
        ("ranged", (40, Ranged, Int), (30, Ranged, Int)),
        ("floats", (40, Ranged, Float), (30, Points, Float)),
        ("int vs float", (40, Ranged, Int), (30, Ranged, Float)),
        ("strings", (30, Ranged, Str), (20, Ranged, Str)),
        ("cross family", (20, Ranged, Int), (15, Points, Str)),
        ("empty left", (0, Points, Int), (20, Ranged, Int)),
        ("empty right", (20, Ranged, Int), (0, Points, Int)),
        ("all points", (40, Certain, Int), (30, Certain, Int)),
        (
            "all point floats",
            (40, Certain, Float),
            (30, Certain, Float),
        ),
        ("all point strings", (30, Certain, Str), (20, Certain, Str)),
        (
            "all point int vs float",
            (40, Certain, Int),
            (30, Certain, Float),
        ),
    ];
    let mut rng = StdRng::seed_from_u64(0x2E6A_7105);
    for (side, (ln, lkeys, ldom), (rn, rkeys, rdom)) in sides {
        let catalog = Catalog::new();
        let l = au_side(&mut rng, "l", ln, lkeys, ldom);
        let r = au_side(&mut rng, "r", rn, rkeys, rdom);
        catalog.register("l", ua_engine::au_table(&l));
        catalog.register("r", ua_engine::au_table(&r));
        for (name, plan) in &plans {
            let context = format!("`{name}` over {side}");
            let row = ua_engine::execute_au(plan, &catalog).map(|rel| ua_engine::au_table(&rel));
            // Only `k + 1` over string keys is a type error; a preserved
            // side that has rows keeps some of them.
            assert!(
                row.is_ok() || name.contains("computed"),
                "{context}: {row:?}"
            );
            if name.starts_with("Left") && ln > 0 || name.starts_with("Right") && rn > 0 {
                assert!(row.as_ref().map_or(true, |t| !t.is_empty()), "{context}");
            }
            for batch_rows in [1usize, 7, 64, 1024] {
                let serial = stream(plan, &catalog, opts(1, batch_rows), Semantics::Au);
                match (&row, &serial) {
                    (Ok(row), Ok(serial)) => assert_tables_identical(
                        row,
                        &table_from_batches(serial),
                        &format!("{context} batch={batch_rows}"),
                    ),
                    (Err(_), Err(_)) => {}
                    (row, serial) => panic!(
                        "{context} batch={batch_rows}: row {:?} vs vectorized {:?}",
                        row.as_ref().map(Table::len),
                        serial.as_ref().map(BatchStream::num_rows)
                    ),
                }
                for threads in [2usize, 4, 8] {
                    let parallel = stream(plan, &catalog, opts(threads, batch_rows), Semantics::Au);
                    let ctx = format!("{context} batch={batch_rows} threads={threads}");
                    match (&serial, &parallel) {
                        (Ok(s), Ok(p)) => assert_streams_byte_identical(s, p, &ctx),
                        (Err(s), Err(p)) => assert_eq!(s.to_string(), p.to_string(), "{ctx}"),
                        _ => panic!("{ctx}: serial and parallel disagree on success"),
                    }
                }
            }
        }
    }
}

/// AU `⋈` selected over chunk views: the vectorized engine runs the row
/// engine's own pair loop (`ua_ranges::ops::JoinSelect`) over its chunks,
/// one probe-row range per task, so every stream must materialize to
/// `execute_au` + `au_table` byte for byte — `Plan::Join` keyless, non-equi,
/// and keyed as the optimizer-off plan leaves it (plain, composite,
/// computed, with a residual, `NOT IN`'s null-aware key), and a hash join
/// under both build sides (a probe stage, its cross-family case included) —
/// over point / ranged / top / definite-NULL keys, NaN and `−0.0`,
/// `Int`-vs-`Float` equal points, cross-family sides, `lb = 0` / `bg = 0`
/// multiplicities and empty sides. At threads {1, 2, 4, 8} × batch rows
/// {1, 7, 64, 1024} every parallel stream is the serial one, and a query
/// the row engine rejects fails on every run.
#[test]
fn au_joins_over_views_match_the_row_operators_over_ranged_keys() {
    use ua_data::algebra::null_aware_eq;
    use Domain::{Float, Int, Str};
    use Keys::{Points, Ranged};
    let scan = |t: &str| Box::new(Plan::Scan(t.into()));
    let col = Expr::named;
    let predicates: Vec<(&str, Option<Expr>)> = vec![
        ("keyless", None),
        ("non-equi", Some(col("l.v").lt(col("r.v")))),
        ("plain", Some(col("l.k").eq(col("r.k")))),
        (
            "composite",
            Some(col("l.k").eq(col("r.k")).and(col("l.k2").eq(col("r.k2")))),
        ),
        (
            "computed",
            Some(
                col("l.k")
                    .add(Expr::lit(1i64))
                    .eq(col("r.k").add(col("r.k2"))),
            ),
        ),
        (
            "residual",
            Some(col("l.k").eq(col("r.k")).and(col("l.v").lt(col("r.v")))),
        ),
        ("not in", Some(null_aware_eq(col("l.k"), col("r.k")))),
    ];
    let mut plans: Vec<(String, Plan)> = predicates
        .into_iter()
        .map(|(name, predicate)| {
            let plan = Plan::Join {
                left: scan("l"),
                right: scan("r"),
                predicate,
            };
            (format!("join {name}"), plan)
        })
        .collect();
    for build_left in [false, true] {
        plans.push((
            format!("hash join build_left={build_left}"),
            Plan::HashJoin {
                left: scan("l"),
                right: scan("r"),
                keys: vec![(col("l.k"), col("r.k"))],
                residual: Some(col("l.k2").le(col("r.k2"))),
                build_left,
            },
        ));
    }

    // (name, left rows/keys/domain, right rows/keys/domain)
    #[allow(clippy::type_complexity)]
    let sides: Vec<(&str, (usize, Keys, Domain), (usize, Keys, Domain))> = vec![
        ("points", (40, Points, Int), (30, Points, Int)),
        ("ranged", (40, Ranged, Int), (30, Ranged, Int)),
        ("floats", (40, Ranged, Float), (30, Points, Float)),
        ("int vs float", (40, Ranged, Int), (30, Ranged, Float)),
        ("strings", (30, Ranged, Str), (20, Ranged, Str)),
        ("cross family", (20, Ranged, Int), (15, Points, Str)),
        ("empty left", (0, Points, Int), (20, Ranged, Int)),
        ("empty right", (20, Ranged, Int), (0, Points, Int)),
    ];
    let mut rng = StdRng::seed_from_u64(0x701_5E1EC7);
    for (side, (ln, lkeys, ldom), (rn, rkeys, rdom)) in sides {
        let catalog = Catalog::new();
        let l = au_side(&mut rng, "l", ln, lkeys, ldom);
        let r = au_side(&mut rng, "r", rn, rkeys, rdom);
        catalog.register("l", ua_engine::au_table(&l));
        catalog.register("r", ua_engine::au_table(&r));
        for (name, plan) in &plans {
            let context = format!("`{name}` over {side}");
            let row = ua_engine::execute_au(plan, &catalog).map(|rel| ua_engine::au_table(&rel));
            // Only `k + 1` over string keys is a type error.
            assert!(
                row.is_ok() || name.contains("computed"),
                "{context}: {row:?}"
            );
            if name.contains("keyless") && ln > 0 && rn > 0 {
                assert!(row.as_ref().is_ok_and(|t| !t.is_empty()), "{context}");
            }
            for batch_rows in [1usize, 7, 64, 1024] {
                let serial = stream(plan, &catalog, opts(1, batch_rows), Semantics::Au);
                match (&row, &serial) {
                    (Ok(row), Ok(serial)) => assert_tables_identical(
                        row,
                        &table_from_batches(serial),
                        &format!("{context} batch={batch_rows}"),
                    ),
                    (Err(_), Err(_)) => {}
                    (row, serial) => panic!(
                        "{context} batch={batch_rows}: row {:?} vs vectorized {:?}",
                        row.as_ref().map(Table::len),
                        serial.as_ref().map(BatchStream::num_rows)
                    ),
                }
                for threads in [2usize, 4, 8] {
                    let parallel = stream(plan, &catalog, opts(threads, batch_rows), Semantics::Au);
                    let ctx = format!("{context} batch={batch_rows} threads={threads}");
                    match (&serial, &parallel) {
                        (Ok(s), Ok(p)) => assert_streams_byte_identical(s, p, &ctx),
                        (Err(s), Err(p)) => assert_eq!(s.to_string(), p.to_string(), "{ctx}"),
                        _ => panic!("{ctx}: serial and parallel disagree on success"),
                    }
                }
            }
        }
    }
}

/// AU hash joins pipelined: a hash join is a probe stage of the one
/// driver — its build side executed and indexed at bind, its probe keys
/// evaluated per morsel through the selection a σ below left — so every
/// shape must still materialize to `execute_au` + `au_table` byte for
/// byte: σ below the probe side under both build sides, two stacked
/// hash joins sharing one probe pipeline (Q3's shape), π and `Alias` above
/// and between the joins, over ranged / NULL / top / NaN / `−0.0` keys on
/// both sides; σ→alias→π and σ→alias→probe over an expression that errors
/// exactly on the rows the σ rejects (both engines `Ok`); a key that
/// errors (`k + 1` over strings) on either side; and an empty build side
/// whose probe keys error, which the row operator rejects because it
/// evaluates every probe key. At threads {1, 2, 4, 8} × batch rows
/// {1, 7, 64, 1024} every parallel stream is the serial one (stats
/// collection on at two thread counts), and an `Err` on one engine is an
/// `Err` on the other, with one message at every thread count.
#[test]
fn pipelined_au_hash_joins_match_the_row_operators() {
    use Domain::{Float, Int, Str};
    use Keys::{Points, Ranged};
    let col = |name: &str| Expr::named(name);
    let scan = |t: &str| Box::new(Plan::Scan(t.into()));
    let sigma = |t: &str| {
        Box::new(Plan::Filter {
            input: scan(t),
            predicate: col(&format!("{t}.v")).ge(Expr::lit(4i64)),
        })
    };
    let hash = |left, right, keys: Vec<(Expr, Expr)>, residual, build_left| Plan::HashJoin {
        left,
        right,
        keys,
        residual,
        build_left,
    };
    let on = |a: &str, b: &str| vec![(col(a), col(b))];
    // (name, plan) for one pair of build sides: the lower join's, the
    // upper join's (the one-join shapes take the lower join's only).
    let plans = |b1: bool, b2: bool| -> Vec<(String, Plan)> {
        let sides = format!("build_left=({b1}, {b2})");
        let lower = || hash(sigma("l"), sigma("r"), on("l.k", "r.k"), None, b1);
        // π then `Alias` between the joins and above them.
        let between = Plan::Alias {
            input: Box::new(Plan::Map {
                input: Box::new(lower()),
                columns: vec![
                    ProjColumn::expr(col("l.k"), "k"),
                    ProjColumn::expr(col("l.k2"), "k2"),
                    ProjColumn::expr(col("l.v").add(col("r.v")), "w"),
                ],
            }),
            name: "j".into(),
        };
        let upper = hash(
            Box::new(between),
            sigma("m"),
            on("j.k2", "m.k2"),
            Some(col("j.w").gt(col("m.v"))),
            b2,
        );
        let above = Plan::Alias {
            input: Box::new(Plan::Map {
                input: Box::new(upper),
                columns: vec![
                    ProjColumn::expr(col("j.k"), "k"),
                    ProjColumn::expr(col("j.w").sub(col("m.v")), "d"),
                ],
            }),
            name: "out".into(),
        };
        let mut plans = vec![
            (
                format!("stacked {sides}"),
                hash(Box::new(lower()), sigma("m"), on("r.k2", "m.k2"), None, b2),
            ),
            (format!("π and alias between and above {sides}"), above),
        ];
        if b2 {
            return plans;
        }
        // σ→alias→π and σ→alias→probe over a key `k2` (a certain point)
        // whose expression errors exactly on the rows the σ rejects.
        let selected = || {
            Box::new(Plan::Alias {
                input: Box::new(Plan::Filter {
                    input: scan("l"),
                    predicate: col("l.k2").ne(Expr::lit(0i64)),
                }),
                name: "a".into(),
            })
        };
        let (left, right, keys) = if b1 {
            (
                scan("r"),
                selected(),
                (col("r.k2"), errs_where_k2_is_zero("a")),
            )
        } else {
            (
                selected(),
                scan("r"),
                (errs_where_k2_is_zero("a"), col("r.k2")),
            )
        };
        plans.push((
            format!("σ→alias→probe guarded {sides}"),
            hash(left, right, vec![keys], None, b1),
        ));
        if !b1 {
            plans.push((
                "σ→alias→π guarded".into(),
                Plan::Map {
                    input: selected(),
                    columns: vec![
                        ProjColumn::expr(col("a.k"), "k"),
                        ProjColumn::expr(errs_where_k2_is_zero("a"), "g"),
                    ],
                },
            ));
        }
        plans.extend([
            (format!("σ below both sides {sides}"), lower()),
            (
                format!("left key errors {sides}"),
                hash(
                    sigma("l"),
                    scan("r"),
                    vec![(col("l.k").add(Expr::lit(1i64)), col("r.k"))],
                    None,
                    b1,
                ),
            ),
            (
                format!("right key errors {sides}"),
                hash(
                    scan("l"),
                    sigma("r"),
                    vec![(col("l.k"), col("r.k").add(Expr::lit(1i64)))],
                    None,
                    b1,
                ),
            ),
        ]);
        plans
    };
    // (name, l, r, m): rows / keys / domain of each table.
    #[allow(clippy::type_complexity)]
    let tables: Vec<(
        &str,
        (usize, Keys, Domain),
        (usize, Keys, Domain),
        (usize, Keys, Domain),
    )> = vec![
        (
            "points",
            (48, Points, Int),
            (24, Points, Int),
            (12, Points, Int),
        ),
        (
            "ranged",
            (48, Ranged, Int),
            (24, Ranged, Int),
            (12, Ranged, Int),
        ),
        (
            "floats",
            (48, Ranged, Float),
            (24, Ranged, Float),
            (12, Ranged, Float),
        ),
        (
            "int vs float",
            (48, Ranged, Int),
            (24, Ranged, Float),
            (12, Points, Int),
        ),
        (
            "strings left",
            (32, Ranged, Str),
            (24, Ranged, Int),
            (12, Ranged, Int),
        ),
        (
            "strings right",
            (32, Ranged, Int),
            (24, Points, Str),
            (12, Ranged, Int),
        ),
        (
            "empty right",
            (32, Ranged, Str),
            (0, Points, Int),
            (12, Ranged, Int),
        ),
        (
            "empty left",
            (0, Points, Int),
            (24, Ranged, Str),
            (12, Ranged, Int),
        ),
    ];
    let mut rng = StdRng::seed_from_u64(0x9_1BE_11E);
    for (tables, l, r, m) in tables {
        let catalog = Catalog::new();
        for (name, (rows, keys, domain)) in [("l", l), ("r", r), ("m", m)] {
            let rel = au_side(&mut rng, name, rows, keys, domain);
            catalog.register(name, ua_engine::au_table(&rel));
        }
        for (b1, b2) in [(false, false), (false, true), (true, false), (true, true)] {
            for (name, plan) in plans(b1, b2) {
                let context = format!("`{name}` over {tables}");
                let row = ua_engine::execute_au(&plan, &catalog).map(|t| ua_engine::au_table(&t));
                // `k + 1` errors exactly where a string key reaches it —
                // an empty build side does not spare the probe keys.
                let errs = (name.starts_with("left key") && tables.contains("strings left"))
                    || (name.starts_with("left key") && tables == "empty right")
                    || (name.starts_with("right key") && tables == "strings right")
                    || (name.starts_with("right key") && tables == "empty left");
                assert_eq!(row.is_err(), errs, "{context}: {row:?}");
                for batch_rows in [1usize, 7, 64, 1024] {
                    let serial = stream(&plan, &catalog, opts(1, batch_rows), Semantics::Au);
                    match (&row, &serial) {
                        (Ok(row), Ok(serial)) => assert_tables_identical(
                            row,
                            &table_from_batches(serial),
                            &format!("{context} batch={batch_rows}"),
                        ),
                        (Err(_), Err(_)) => {}
                        (row, serial) => panic!(
                            "{context} batch={batch_rows}: row {:?} vs vectorized {:?}",
                            row.as_ref().map(Table::len),
                            serial.as_ref().map(BatchStream::num_rows)
                        ),
                    }
                    let runs = [
                        (1, false),
                        (2, false),
                        (2, true),
                        (4, false),
                        (8, false),
                        (8, true),
                    ];
                    for (threads, collect_stats) in runs {
                        let options = ExecOptions {
                            collect_stats,
                            ..opts(threads, batch_rows)
                        };
                        let parallel = stream(&plan, &catalog, options, Semantics::Au);
                        let ctx = format!(
                            "{context} batch={batch_rows} threads={threads} stats={collect_stats}"
                        );
                        match (&serial, &parallel) {
                            (Ok(s), Ok(p)) => assert_streams_byte_identical(s, p, &ctx),
                            (Err(s), Err(p)) => assert_eq!(s.to_string(), p.to_string(), "{ctx}"),
                            _ => panic!("{ctx}: serial and parallel disagree on success"),
                        }
                    }
                }
            }
        }
    }
}

/// A hash join over `Int` keys on the left and `Str` keys on the right —
/// points of two families, possibly equal, never certainly — building on
/// the left: both engines emit probe-major, the right side's rows
/// outermost, as every other hash join does.
#[test]
fn a_cross_family_hash_join_building_left_is_probe_major_on_both_engines() {
    use ua_ranges::{AuRelation, AuTuple, MultBound, RangeValue};
    let catalog = Catalog::new();
    for (name, keys) in [
        ("l", [Value::Int(1), Value::Int(2)]),
        ("r", [Value::str("1"), Value::str("a")]),
    ] {
        let mut rel = AuRelation::new(Schema::qualified(name, ["k"]));
        for k in keys {
            rel.push(AuTuple {
                values: vec![RangeValue::point(k)],
                mult: MultBound::certain(1),
            });
        }
        catalog.register(name, ua_engine::au_table(&rel));
    }
    let plan = Plan::HashJoin {
        left: Box::new(Plan::Scan("l".into())),
        right: Box::new(Plan::Scan("r".into())),
        keys: vec![(Expr::named("l.k"), Expr::named("r.k"))],
        residual: None,
        build_left: true,
    };
    let probe_major: Vec<(Value, Value)> = [("1", 1), ("1", 2), ("a", 1), ("a", 2)]
        .into_iter()
        .map(|(r, l)| (Value::Int(l), Value::str(r)))
        .collect();
    let pairs = |t: &Table| -> Vec<(Value, Value)> {
        t.rows()
            .iter()
            .map(|row| (row.values()[0].clone(), row.values()[1].clone()))
            .collect()
    };
    let row = ua_engine::au_table(&ua_engine::execute_au(&plan, &catalog).expect("au row"));
    assert_eq!(pairs(&row), probe_major, "row engine");
    for (threads, batch_rows) in [(1, 1), (2, 1), (1, 1024)] {
        let vec =
            ua_vecexec::execute_au_vectorized_opts(&plan, &catalog, opts(threads, batch_rows))
                .expect("au vec");
        assert_eq!(
            pairs(&vec),
            probe_major,
            "threads={threads} batch={batch_rows}"
        );
    }
}

/// `CASE WHEN q.k2 = 0 THEN 'x' ELSE q.k2 END + 1`: a type error (`'x' + 1`)
/// on exactly the rows of `q` whose `k2` is `0` (division by zero would
/// not do: it is `NULL`, not an error).
fn errs_where_k2_is_zero(q: &str) -> Expr {
    let k2 = Expr::named(format!("{q}.k2"));
    Expr::Case {
        branches: vec![(k2.clone().eq(Expr::lit(0i64)), Expr::Lit(Value::str("x")))],
        otherwise: Some(Box::new(k2)),
    }
    .add(Expr::lit(1i64))
}

/// A plain table `name(k, k2, v)` — with a trailing `ua_c` marker when
/// `ua` — whose `k` is drawn from `keys`, `k2` a small `Int`, `v` an `Int`.
fn plain_side(rng: &mut StdRng, name: &str, rows: usize, keys: &[Value], ua: bool) -> Table {
    let mut schema = Schema::qualified(name, ["k", "k2", "v"]);
    if ua {
        schema = schema.with_column(ua_core::UA_LABEL_COLUMN);
    }
    let rows = (0..rows)
        .map(|_| {
            let mut row = vec![
                keys[rng.gen_range(0..keys.len())].clone(),
                Value::Int(rng.gen_range(0..3)),
                Value::Int(rng.gen_range(0..20)),
            ];
            if ua {
                row.push(Value::Int(rng.gen_range(0..2)));
            }
            Tuple::new(row)
        })
        .collect();
    Table::from_rows(schema, rows)
}

/// The det / UA twin of the AU join-shape suites: every join shape those
/// list — `Plan::Join` keyless, non-equi, plain, composite, computed, with
/// a residual and under `NOT IN`'s null-aware predicate; a `HashJoin`
/// building either side; `LEFT` / `RIGHT JOIN` for every predicate; the
/// `NOT IN` anti-join; σ→alias→π and σ→alias→probe (either build side)
/// over an expression that errors exactly on the rows the σ rejects, which
/// must be `Ok` on both engines — under `Semantics::Det` and `Semantics::Ua` over
/// plain tables whose keys hold `NULL`, labeled nulls, NaN, `−0.0`, `1`
/// next to `1.0`, `2⁵³ + 1` next to `2⁵³`, strings against integers, dense
/// `Int` and `Float` columns and an empty side. Both engines run one plan
/// (UA: its `rewrite_ua_plan` rewriting) and the row engine's result
/// equals the vectorized one, markers included; at threads {1, 2, 4, 8} ×
/// batch rows {1, 7, 64, 1024} every
/// parallel stream is the serial one; an `Err` on one engine is an `Err`
/// on the other.
#[test]
fn det_and_ua_joins_match_the_row_operators_over_plain_keys() {
    use ua_data::algebra::null_aware_eq;
    use ua_engine::plan::OuterKind;
    let scan = |t: &str| Box::new(Plan::Scan(t.into()));
    let col = Expr::named;
    let predicates: Vec<(&str, Option<Expr>)> = vec![
        ("keyless", None),
        ("non-equi", Some(col("l.v").lt(col("r.v")))),
        ("plain", Some(col("l.k").eq(col("r.k")))),
        (
            "composite",
            Some(col("l.k").eq(col("r.k")).and(col("l.k2").eq(col("r.k2")))),
        ),
        (
            "computed",
            Some(
                col("l.k")
                    .add(Expr::lit(1i64))
                    .eq(col("r.k").add(col("r.k2"))),
            ),
        ),
        (
            "residual",
            Some(col("l.k").eq(col("r.k")).and(col("l.v").lt(col("r.v")))),
        ),
        ("not in", Some(null_aware_eq(col("l.k"), col("r.k")))),
    ];
    let mut plans: Vec<(String, Plan)> = Vec::new();
    for (name, predicate) in &predicates {
        plans.push((
            format!("join {name}"),
            Plan::Join {
                left: scan("l"),
                right: scan("r"),
                predicate: predicate.clone(),
            },
        ));
        for kind in [OuterKind::Left, OuterKind::Right] {
            plans.push((
                format!("{kind:?} join {name}"),
                Plan::OuterJoin {
                    left: scan("l"),
                    right: scan("r"),
                    predicate: predicate.clone(),
                    kind,
                },
            ));
        }
    }
    for build_left in [false, true] {
        plans.push((
            format!("hash join build_left={build_left}"),
            Plan::HashJoin {
                left: scan("l"),
                right: scan("r"),
                keys: vec![(col("l.k"), col("r.k"))],
                residual: Some(col("l.k2").le(col("r.k2"))),
                build_left,
            },
        ));
    }
    plans.push((
        "not in anti-join".into(),
        Plan::Map {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::OuterJoin {
                    left: scan("l"),
                    right: Box::new(Plan::Map {
                        input: scan("r"),
                        columns: vec![
                            ProjColumn::expr(col("k"), "__in"),
                            ProjColumn::expr(Expr::lit(1i64), "__anti"),
                        ],
                    }),
                    predicate: Some(null_aware_eq(col("l.k"), col("__in"))),
                    kind: OuterKind::Left,
                }),
                predicate: Expr::IsNull(Box::new(col("__anti"))),
            }),
            columns: vec![
                ProjColumn::expr(col("l.k"), "k"),
                ProjColumn::expr(col("l.v"), "v"),
            ],
        },
    ));
    // σ→alias→π and σ→alias→probe over an expression that errors exactly
    // on the rows the σ rejects: the consumer reads through the σ's
    // selection and must never evaluate them.
    let selected = || {
        Box::new(Plan::Alias {
            input: Box::new(Plan::Filter {
                input: scan("l"),
                predicate: col("l.k2").ne(Expr::lit(0i64)),
            }),
            name: "a".into(),
        })
    };
    plans.push((
        "σ→alias→π guarded".into(),
        Plan::Map {
            input: selected(),
            columns: vec![
                ProjColumn::expr(col("a.k"), "k"),
                ProjColumn::expr(errs_where_k2_is_zero("a"), "g"),
            ],
        },
    ));
    for build_left in [false, true] {
        let (left, right, keys) = if build_left {
            (
                scan("r"),
                selected(),
                (col("r.k2"), errs_where_k2_is_zero("a")),
            )
        } else {
            (
                selected(),
                scan("r"),
                (errs_where_k2_is_zero("a"), col("r.k2")),
            )
        };
        plans.push((
            format!("σ→alias→probe guarded build_left={build_left}"),
            Plan::HashJoin {
                left,
                right,
                keys: vec![keys],
                residual: None,
                build_left,
            },
        ));
    }

    let big = 1i64 << 53;
    let mixed = vec![
        Value::Null,
        Value::Var(VarId(3)),
        Value::Var(VarId(4)),
        Value::Int(0),
        Value::Int(1),
        Value::float(1.0),
        Value::float(f64::NAN),
        Value::float(-0.0),
        Value::Int(big + 1),
        Value::float(big as f64),
        Value::str("1"),
        Value::Int(4),
    ];
    let ints: Vec<Value> = (0..6).map(Value::Int).collect();
    let floats: Vec<Value> = [f64::NAN, -0.0, 0.0, 1.0, 2.5, 3.0]
        .into_iter()
        .map(Value::float)
        .collect();
    let strings = vec![Value::str("a"), Value::str("1"), Value::Null];
    #[allow(clippy::type_complexity)]
    let sides: Vec<(&str, (usize, &[Value]), (usize, &[Value]))> = vec![
        ("mixed", (40, &mixed), (30, &mixed)),
        ("ints", (40, &ints), (30, &ints)),
        ("int vs float", (40, &ints), (30, &floats)),
        ("floats", (30, &floats), (30, &floats)),
        ("strings vs ints", (30, &strings), (20, &ints)),
        ("empty left", (0, &mixed), (20, &mixed)),
        ("empty right", (20, &mixed), (0, &mixed)),
    ];
    let mut rng = StdRng::seed_from_u64(0xDE70_A0A0);
    for (side, (ln, lkeys), (rn, rkeys)) in sides {
        for semantics in [Semantics::Det, Semantics::Ua] {
            let ua = semantics == Semantics::Ua;
            let catalog = Catalog::new();
            catalog.register("l", plain_side(&mut rng, "l", ln, lkeys, ua));
            catalog.register("r", plain_side(&mut rng, "r", rn, rkeys, ua));
            for (name, plan) in &plans {
                let context = format!("`{name}` {semantics:?} over {side}");
                let plan = &if ua {
                    rewrite_ua_plan(plan, &catalog).expect("in the fragment")
                } else {
                    plan.clone()
                };
                let row = ua_engine::execute_row(plan, &catalog, semantics, false).0;
                // Only `k + 1` over string keys is a type error.
                assert!(
                    row.is_ok() || name.contains("computed"),
                    "{context}: {row:?}"
                );
                if name.ends_with("join keyless") && ln > 0 && rn > 0 {
                    assert!(row.as_ref().is_ok_and(|t| !t.is_empty()), "{context}");
                }
                for batch_rows in [1usize, 7, 64, 1024] {
                    let serial = stream(plan, &catalog, opts(1, batch_rows), semantics);
                    match (&row, &serial) {
                        (Ok(row), Ok(serial)) => assert_tables_identical(
                            row,
                            &table_from_batches(serial),
                            &format!("{context} batch={batch_rows}"),
                        ),
                        (Err(_), Err(_)) => {}
                        (row, serial) => panic!(
                            "{context} batch={batch_rows}: row {row:?} vs vectorized {:?}",
                            serial.as_ref().map(BatchStream::num_rows)
                        ),
                    }
                    for threads in [2usize, 4, 8] {
                        let parallel = stream(plan, &catalog, opts(threads, batch_rows), semantics);
                        let ctx = format!("{context} batch={batch_rows} threads={threads}");
                        match (&serial, &parallel) {
                            (Ok(s), Ok(p)) => assert_streams_byte_identical(s, p, &ctx),
                            (Err(s), Err(p)) => assert_eq!(s.to_string(), p.to_string(), "{ctx}"),
                            _ => panic!("{ctx}: serial and parallel disagree on success"),
                        }
                    }
                }
            }
        }
    }
}

/// AU `GROUP BY` and `DISTINCT` over uncertain keys: the column-native γ
/// and δ fold through the row engine's own bound rules and write their
/// results as columns, so every stream must materialize to `execute_au` +
/// `au_table` byte for byte — `GROUP BY` on one and two keys with
/// `COUNT(*)` / `COUNT` / `SUM` / `MIN` / `MAX` / `AVG` over ranged `Int`
/// payloads and over the keys themselves, a global aggregate, and
/// `DISTINCT` over one, two and all columns (strings included, and above a
/// σ) — over point / ranged / top / definite-NULL keys, NaN and `−0.0`,
/// `Int` and `Float` keys, `lb = 0` / `bg = 0` multiplicities and an empty
/// input. At threads {1, 2, 4, 8} × batch rows {1, 7, 64, 1024} every
/// parallel stream is the serial one.
#[test]
fn au_grouping_and_distinct_match_the_row_operators_over_ranged_keys() {
    use Domain::{Float, Int, Str};
    use Keys::{Points, Ranged};
    let scan = || Box::new(Plan::Scan("l".into()));
    let agg = |func, arg: Option<&str>, name: &str| AggExpr {
        func,
        arg: arg.map(Expr::named),
        name: name.into(),
    };
    let every_kind = |arg: &str| {
        vec![
            agg(AggFunc::CountStar, None, "n"),
            agg(AggFunc::Count, Some(arg), "c"),
            agg(AggFunc::Sum, Some(arg), "s"),
            agg(AggFunc::Min, Some(arg), "lo"),
            agg(AggFunc::Max, Some(arg), "hi"),
            agg(AggFunc::Avg, Some(arg), "a"),
        ]
    };
    let group = |keys: &[&str], aggregates| Plan::Aggregate {
        input: scan(),
        group_by: keys.iter().map(|&k| ProjColumn::named(k)).collect(),
        aggregates,
    };
    let distinct = |input: Box<Plan>, cols: &[&str]| Plan::Distinct {
        input: Box::new(Plan::Map {
            input,
            columns: cols.iter().map(|&c| ProjColumn::named(c)).collect(),
        }),
    };
    let plans: Vec<(&str, Plan)> = vec![
        ("group by k", group(&["k"], every_kind("v"))),
        ("group by k, k2", group(&["k", "k2"], every_kind("v"))),
        ("group by k2 over k", group(&["k2"], every_kind("k"))),
        ("global", group(&[], every_kind("v"))),
        (
            "global over k",
            group(
                &[],
                vec![
                    agg(AggFunc::Min, Some("k"), "lo"),
                    agg(AggFunc::Sum, Some("k"), "s"),
                ],
            ),
        ),
        ("distinct k", distinct(scan(), &["k"])),
        ("distinct k, k2", distinct(scan(), &["k", "k2"])),
        ("distinct all", Plan::Distinct { input: scan() }),
        (
            "distinct above σ",
            distinct(
                Box::new(Plan::Filter {
                    input: scan(),
                    predicate: Expr::named("v").ge(Expr::lit(5i64)),
                }),
                &["k2", "k"],
            ),
        ),
    ];
    let sides: Vec<(&str, (usize, Keys, Domain))> = vec![
        ("points", (120, Points, Int)),
        ("ranged", (150, Ranged, Int)),
        ("float points", (90, Points, Float)),
        ("ranged floats", (120, Ranged, Float)),
        ("strings", (80, Ranged, Str)),
        ("empty", (0, Points, Int)),
    ];
    let mut rng = StdRng::seed_from_u64(0x6E0_0B1);
    for (side, (rows, keys, domain)) in sides {
        let catalog = Catalog::new();
        let l = au_side(&mut rng, "l", rows, keys, domain);
        catalog.register("l", ua_engine::au_table(&l));
        for (name, plan) in &plans {
            let context = format!("`{name}` over {side}");
            let row = ua_engine::au_table(&ua_engine::execute_au(plan, &catalog).expect("au row"));
            assert!(rows == 0 || !row.is_empty(), "{context}");
            for batch_rows in [1usize, 7, 64, 1024] {
                let serial =
                    stream(plan, &catalog, opts(1, batch_rows), Semantics::Au).expect("serial AU");
                let context = format!("{context} batch={batch_rows}");
                assert_tables_identical(&row, &table_from_batches(&serial), &context);
                for threads in [2usize, 4, 8] {
                    let parallel = stream(plan, &catalog, opts(threads, batch_rows), Semantics::Au)
                        .expect("parallel AU");
                    let ctx = format!("{context} threads={threads}");
                    assert_streams_byte_identical(&serial, &parallel, &ctx);
                }
            }
        }
    }
}

/// Computed AU projections and computed predicate operands — the shapes the
/// typed `[lb, bg, ub]` expression kernel evaluates (`+ − ×`, nested,
/// `Int × Float`, a literal on either side) and the shapes it declines
/// (`÷`, a column with NULL / top / `±∞`-bounded cells, a batch holding a
/// row whose integer endpoint overflows) — over ranged, NaN-bearing and
/// overflowing data: at threads {1, 2, 4, 8} × batch rows {1, 7, 64, 1024}
/// every stream is the serial stream byte for byte and materializes to the
/// row interpreter's table. 150 rows put the source below the driver's
/// inline-morsel constant at 64 and 1024 rows per batch and above it at 1
/// and 7.
#[test]
fn au_computed_expressions_match_the_row_engine_across_threads_and_batches() {
    use ua_data::expr::ArithOp;
    use ua_ranges::{AuRelation, AuTuple, Bound, MultBound, RangeValue};
    let mut rng = StdRng::seed_from_u64(0x0072_191E);
    let mut rel = AuRelation::new(Schema::qualified("t", ["i", "j", "f", "q"]));
    let span =
        |lo: Value, bg: Value, hi: Value| RangeValue::new(Bound::Val(lo), bg, Bound::Val(hi));
    for row in 0..150 {
        let x = rng.gen_range(-6..20i64);
        let i = match rng.gen_range(0..12u32) {
            0..=5 => RangeValue::point(Value::Int(x)),
            // One overflowing cell per ~75 rows: its batch takes the row path.
            6 if row % 3 == 0 => span(Value::Int(1), Value::Int(x.max(1)), Value::Int(1 << 62)),
            _ => {
                let (lo, hi) = (rng.gen_range(0..4i64), rng.gen_range(0..4i64));
                span(Value::Int(x - lo), Value::Int(x), Value::Int(x + hi))
            }
        };
        let j = match rng.gen_range(0..8u32) {
            0 => RangeValue::null(),
            1 => RangeValue::top(Value::Int(x)),
            2 => RangeValue::new(Bound::NegInf, Value::Int(x), Bound::Val(Value::Int(x + 2))),
            3 => span(Value::Int(x - 1), Value::Int(x), Value::Int(x + 1)),
            _ => RangeValue::point(Value::Int(x)),
        };
        let y = rng.gen_range(-8..8i64) as f64 / 4.0;
        let f = match rng.gen_range(0..16u32) {
            0 => RangeValue::point(Value::float(f64::NAN)),
            1 => span(
                Value::float(y),
                Value::float(y + 1.0),
                Value::float(f64::INFINITY),
            ),
            2 => RangeValue::point(Value::float(-0.0)),
            3..=8 => RangeValue::point(Value::float(y)),
            _ => span(
                Value::float(y - 0.5),
                Value::float(y),
                Value::float(y + 0.25),
            ),
        };
        let ub = rng.gen_range(1..3u64);
        let bg = rng.gen_range(0..=ub);
        rel.push(AuTuple {
            values: vec![i, j, f, RangeValue::point(Value::Int(rng.gen_range(0..5)))],
            mult: MultBound::new(rng.gen_range(0..=bg), bg, ub),
        });
    }
    let catalog = Catalog::new();
    catalog.register("t", ua_engine::au_table(&rel));

    let col = Expr::named;
    let div = |a: Expr, b: Expr| Expr::Arith(ArithOp::Div, Box::new(a), Box::new(b));
    let projections: Vec<Expr> = vec![
        col("i").mul(col("f")),
        col("f").mul(Expr::lit(1i64).sub(col("f"))),
        col("i").add(col("q")).mul(col("i").sub(Expr::lit(2i64))),
        Expr::lit(2i64).mul(col("i")),
        col("i").mul(Expr::lit(2.5)),
        col("q").mul(col("q")).sub(Expr::lit(1i64)),
        col("j").add(Expr::lit(1i64)),
        div(col("i"), col("q")),
        col("i")
            .mul(Expr::lit(1i64 << 40))
            .mul(Expr::lit(1i64 << 30)),
    ];
    let predicates: Vec<Expr> = vec![
        col("i")
            .mul(Expr::lit(2i64))
            .gt(col("q").add(Expr::lit(3i64))),
        col("f").mul(Expr::lit(0.5)).le(col("i")),
        Expr::lit(1i64).sub(col("f")).lt(Expr::lit(0.25)),
        col("i")
            .add(col("q"))
            .mul(Expr::lit(2i64))
            .between(Expr::lit(4i64), Expr::lit(20i64)),
        Expr::InList(
            Box::new(col("q").mul(Expr::lit(2i64))),
            vec![Expr::lit(4i64), Expr::lit(6i64)],
        ),
        col("j").add(Expr::lit(1i64)).gt(Expr::lit(2i64)),
        div(col("i"), Expr::lit(1i64)).lt(Expr::lit(9i64)),
        col("i").mul(Expr::lit(4i64)).lt(Expr::lit(0i64)).not(),
    ];
    let plan_of = |predicate: &Expr, projection: &Expr| Plan::Map {
        input: Box::new(Plan::Filter {
            input: Box::new(Plan::Scan("t".into())),
            predicate: predicate.clone(),
        }),
        columns: vec![
            ProjColumn::expr(col("q"), "q"),
            ProjColumn::expr(projection.clone(), "w"),
        ],
    };
    let mut plans: Vec<Plan> = projections
        .iter()
        .map(|p| plan_of(&predicates[0], p))
        .collect();
    plans.extend(predicates[1..].iter().map(|p| plan_of(p, &projections[0])));

    for (pi, plan) in plans.iter().enumerate() {
        let row = ua_engine::au_table(&ua_engine::execute_au(plan, &catalog).expect("au row"));
        assert!(!row.is_empty(), "plan {pi}: the case must keep rows");
        for batch_rows in [1usize, 7, 64, 1024] {
            let serial =
                stream(plan, &catalog, opts(1, batch_rows), Semantics::Au).expect("serial AU");
            let context = format!("plan {pi} batch={batch_rows}");
            assert_tables_identical(&row, &table_from_batches(&serial), &context);
            for threads in [2usize, 4, 8] {
                let parallel = stream(plan, &catalog, opts(threads, batch_rows), Semantics::Au)
                    .expect("parallel AU");
                assert_streams_byte_identical(
                    &serial,
                    &parallel,
                    &format!("{context} threads={threads}"),
                );
            }
        }
    }
}

/// Det γ and δ against the row engine over every key shape the grouping
/// distinguishes, at threads {1, 2, 4, 8} × batch rows {1, 7, 64, 1024}:
/// a key column whose representation changes between batches (dense `Int`
/// up to row 1 100, then `Mixed` with `NULL` and a labeled null), `1` next
/// to `1.0` (two groups), NaN, `-0.0` and strings, 2- and 3-column keys
/// with thousands of distinct values (so the first-row check runs on
/// every repeated key), empty input with and without `GROUP BY`, every
/// aggregate function, and a key or argument that errs (`Err` ↔ `Err`).
#[test]
fn det_grouping_matches_the_row_engine_over_every_key_shape() {
    const ROWS: i64 = 3000;
    let t_rows: Vec<Tuple> = (0..ROWS)
        .map(|i| {
            let k = match (i < 1100, i % 6) {
                (true, _) => Value::Int(i % 40),
                (false, 0) => Value::Null,
                (false, 1) => Value::Var(VarId((i % 3) as u32)),
                (false, 2) => Value::float((i % 5) as f64),
                _ => Value::Int(i % 5),
            };
            let f = match i % 7 {
                0 => Value::float(f64::NAN),
                1 => Value::float(-0.0),
                2 => Value::float(0.0),
                3 => Value::Int(1),
                4 => Value::float(1.0),
                _ => Value::float((i % 11) as f64 / 4.0),
            };
            let v = match i % 9 {
                0 => Value::Null,
                1 => Value::float(i as f64 / 8.0),
                _ => Value::Int(i % 97 - 40),
            };
            Tuple::new(vec![
                k,
                f,
                Value::str(format!("s{}", i % 13)),
                Value::Int(i % 2000),
                Value::Int((i % 2000) % 3),
                v,
            ])
        })
        .collect();
    let schema = Schema::qualified("t", ["k", "f", "s", "a", "b", "v"]);
    let catalog = Catalog::new();
    catalog.register("t", Table::from_rows(schema.clone(), t_rows));
    catalog.register("e", Table::from_rows(schema, Vec::new()));

    let agg = |func, arg: Option<&str>, name: &str| AggExpr {
        func,
        arg: arg.map(Expr::named),
        name: name.into(),
    };
    let every_agg = || {
        vec![
            agg(AggFunc::Count, Some("v"), "c"),
            agg(AggFunc::CountStar, None, "n"),
            agg(AggFunc::Sum, Some("v"), "s_v"),
            agg(AggFunc::Min, Some("v"), "lo"),
            agg(AggFunc::Max, Some("v"), "hi"),
            agg(AggFunc::Avg, Some("v"), "m"),
        ]
    };
    let scan = |table: &str| Plan::Scan(table.into());
    let group = |input: Plan, keys: &[&str], aggregates: Vec<AggExpr>| Plan::Aggregate {
        input: Box::new(input),
        group_by: keys.iter().map(|k| ProjColumn::named(*k)).collect(),
        aggregates,
    };
    let distinct_of = |input: Plan, cols: &[&str]| Plan::Distinct {
        input: Box::new(Plan::Map {
            input: Box::new(input),
            columns: cols.iter().map(|c| ProjColumn::named(*c)).collect(),
        }),
    };
    let plans = [
        group(scan("t"), &["k"], every_agg()),
        group(scan("t"), &["f"], every_agg()),
        group(scan("t"), &["a", "b"], every_agg()),
        group(scan("t"), &["a", "s", "f"], every_agg()),
        group(
            scan("t"),
            &["k", "s"],
            vec![agg(AggFunc::Min, Some("s"), "lo")],
        ),
        group(scan("t"), &[], every_agg()),
        group(scan("e"), &[], every_agg()),
        group(scan("e"), &["k"], every_agg()),
        group(
            Plan::Filter {
                input: Box::new(scan("t")),
                predicate: Expr::named("a").lt(Expr::lit(0i64)),
            },
            &[],
            every_agg(),
        ),
        Plan::Distinct {
            input: Box::new(scan("t")),
        },
        distinct_of(scan("t"), &["k"]),
        distinct_of(scan("t"), &["f", "s"]),
        distinct_of(scan("t"), &["a", "b"]),
        distinct_of(scan("t"), &["a", "s", "f"]),
        distinct_of(scan("e"), &["k", "f"]),
        // A key that errs on every row, and an argument that errs only on
        // the rows with `a >= 1500` (from row 1 500 on).
        Plan::Aggregate {
            input: Box::new(scan("t")),
            group_by: vec![ProjColumn::expr(
                Expr::named("k").add(Expr::named("s")),
                "ks",
            )],
            aggregates: Vec::new(),
        },
        Plan::Aggregate {
            input: Box::new(scan("t")),
            group_by: vec![ProjColumn::named("b")],
            aggregates: vec![AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::Case {
                    branches: vec![(Expr::named("a").lt(Expr::lit(1500i64)), Expr::named("v"))],
                    otherwise: Some(Box::new(Expr::named("s").add(Expr::lit(1i64)))),
                }),
                name: "s_k".into(),
            }],
        },
    ];
    let mut errs = 0;
    for plan in &plans {
        let row = execute(plan, &catalog);
        for threads in [1usize, 2, 4, 8] {
            for batch_rows in [1usize, 7, 64, 1024] {
                let context = format!("threads={threads} batch_rows={batch_rows} {plan}");
                match (
                    &row,
                    stream(plan, &catalog, opts(threads, batch_rows), Semantics::Det),
                ) {
                    (Ok(row), Ok(vec)) => {
                        assert_tables_identical(row, &table_from_batches(&vec), &context)
                    }
                    (Err(_), Err(_)) => errs += 1,
                    (row, vec) => panic!(
                        "outcome mismatch: {context}\n row: {:?}\n vec: {:?}",
                        row.as_ref().err(),
                        vec.err()
                    ),
                }
            }
        }
    }
    // Both erring plans err on both engines in all 16 settings.
    assert_eq!(errs, 2 * 16);
}

/// Det `EXCEPT` / `EXCEPT ALL` against the row engine's `except_table` over
/// every key shape the join-key normalisation distinguishes, at batch rows
/// {1, 7, default}: `1` next to `1.0`, `-0.0` next to `0.0`, NaN, ±∞,
/// `2⁵³ + 1` next to `2⁵³` as a float, `i64::MIN` / `MAX` next to ∓2⁶³ as
/// floats, floats beyond the `i64` range, NULL, labeled nulls, strings and
/// booleans; one- and three-column keys, an `Int` column on one side
/// against a `Float` column on the other, empty sides, and heavy duplicates
/// (a few hundred rows over a few dozen keys).
#[test]
fn det_except_matches_the_row_engine_over_every_key_shape() {
    let two53 = 2f64.powi(53);
    let two63 = 2f64.powi(63);
    let ints = vec![
        Value::Int(0),
        Value::Int(1),
        Value::Int(2),
        Value::Int((1 << 53) + 1),
        Value::Int(1 << 53),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
    ];
    let floats = vec![
        Value::float(0.0),
        Value::float(-0.0),
        Value::float(1.0),
        Value::float(0.5),
        Value::float(f64::NAN),
        Value::float(f64::INFINITY),
        Value::float(f64::NEG_INFINITY),
        Value::float(two53),
        Value::float(-two63),
        Value::float(two63),
        Value::float(1e19),
        Value::float(-1e19),
    ];
    let strs = vec![Value::str("1"), Value::str("s"), Value::str("")];
    let bools = vec![Value::Bool(true), Value::Bool(false)];
    let mut mixed: Vec<Value> = [&ints, &floats, &strs, &bools]
        .into_iter()
        .flatten()
        .cloned()
        .collect();
    mixed.extend([Value::Null, Value::Var(VarId(0)), Value::Var(VarId(1))]);

    let mut rng = StdRng::seed_from_u64(0xE8C3);
    let catalog = Catalog::new();
    let mut tables: Vec<(String, Table)> = Vec::new();
    let mut register = |name: &str, cols: &[&str], rows: Vec<Tuple>| {
        let table = Table::from_rows(Schema::qualified(name, cols.iter().copied()), rows);
        catalog.register(name, table.clone());
        tables.push((name.to_string(), table));
    };
    // One-column keys: each side a typed (or mixed) column of 300 rows
    // drawn from its pool, and an empty one.
    let one = [
        ("ints", &ints),
        ("floats", &floats),
        ("strs", &strs),
        ("bools", &bools),
        ("mixed", &mixed),
    ];
    for (name, pool) in one {
        let rows = (0..300)
            .map(|_| Tuple::new(vec![pool[rng.gen_range(0..pool.len())].clone()]))
            .collect();
        register(name, &["k"], rows);
    }
    register("empty", &["k"], Vec::new());
    // Three-column keys over small domains so whole tuples repeat: `a` an
    // `Int` column (`wide_i`) or the same values as `Float`s (`wide_f`).
    for (name, as_float) in [("wide_i", false), ("wide_f", true), ("wide_i2", false)] {
        let rows = (0..400)
            .map(|_| {
                let a = rng.gen_range(0..4i64);
                let a = if as_float {
                    Value::float(a as f64)
                } else {
                    Value::Int(a)
                };
                let b = [Value::float(0.0), Value::float(1.0), Value::float(f64::NAN)]
                    [rng.gen_range(0..3usize)]
                .clone();
                let c = [
                    Value::Null,
                    Value::Var(VarId(0)),
                    Value::Int(1),
                    Value::float(1.0),
                    Value::str("s"),
                ][rng.gen_range(0..5usize)]
                .clone();
                Tuple::new(vec![a, b, c])
            })
            .collect();
        register(name, &["a", "b", "c"], rows);
    }
    register("wide_empty", &["a", "b", "c"], Vec::new());

    let names = |arity: usize| -> Vec<&(String, Table)> {
        tables
            .iter()
            .filter(|(_, t)| t.schema().arity() == arity)
            .collect()
    };
    let mut runs = 0;
    for arity in [1, 3] {
        for (l, lt) in names(arity) {
            for (r, rt) in names(arity) {
                for all in [false, true] {
                    let expected = ua_engine::exec::except_table(lt, rt, all);
                    let plan = Plan::Except {
                        left: Box::new(Plan::Scan(l.clone())),
                        right: Box::new(Plan::Scan(r.clone())),
                        all,
                    };
                    for batch_rows in [1usize, 7, ua_vecexec::DEFAULT_BATCH_ROWS] {
                        let vec = stream(&plan, &catalog, opts(0, batch_rows), Semantics::Det)
                            .expect("vectorized EXCEPT");
                        let context = format!("batch_rows={batch_rows} {plan}");
                        assert_tables_identical(&expected, &table_from_batches(&vec), &context);
                        runs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(runs, (6 * 6 + 4 * 4) * 2 * 3);
}
