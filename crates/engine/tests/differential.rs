//! Differential property harness: random SQL over seeded TI-DB / BI-DB /
//! C-table sources must execute identically on the row and vectorized
//! engines — label for label and in the same row order — with the optimizer
//! pipeline on *and* off, and the optimizer itself must never change the
//! result multiset.
//!
//! Each property runs 256 generated cases (via the offline proptest shim's
//! deterministic runner), and each case is executed four ways:
//! `{Row, Vectorized} × {optimizer on, optimizer off}`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::{EngineError, ExecMode, Table, UaResult, UaSession};

/// A fresh session over the three seeded uncertain sources.
///
/// All data-bearing columns are small ints so any pair of columns can act
/// as a join key; probabilities and conditions exercise all three labeling
/// schemes (certain, uncertain, and dropped rows each appear).
fn seeded_session(mode: ExecMode, optimizer: bool) -> UaSession {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let session = UaSession::with_mode(mode);
    session.set_optimizer_enabled(optimizer);
    // TI-DB: `ti(a, b, p)` — a handful of NULL `a`s so ORDER BY keys (and
    // join keys, which NULL never matches) exercise three-valued handling.
    // (`b` stays numeric: one regression test re-annotates it as a
    // probability column.)
    session.register_table(
        "ti",
        Table::from_rows(
            Schema::qualified("ti", ["a", "b", "p"]),
            (0..40)
                .map(|i| {
                    let a = if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Int(rng.gen_range(0..6))
                    };
                    Tuple::new(vec![
                        a,
                        Value::Int(rng.gen_range(0..6)),
                        Value::float([1.0, 0.9, 0.6, 0.3][rng.gen_range(0..4usize)]),
                    ])
                })
                .collect(),
        ),
    );
    // BI-DB / x-DB: `xr(xid, aid, p, k, v)` — two alternatives per block.
    let mut xr_rows = Vec::new();
    for xid in 0..15i64 {
        let alts = rng.gen_range(1..3i64);
        for aid in 0..alts {
            let p = if alts == 1 {
                1.0
            } else {
                0.5 + 0.1 * (aid as f64)
            };
            xr_rows.push(Tuple::new(vec![
                Value::Int(xid),
                Value::Int(aid),
                Value::float(p),
                Value::Int(rng.gen_range(0..6)),
                Value::Int(rng.gen_range(0..6)),
            ]));
        }
    }
    session.register_table(
        "xr",
        Table::from_rows(
            Schema::qualified("xr", ["xid", "aid", "p", "k", "v"]),
            xr_rows,
        ),
    );
    // C-table: `ct(a, g, v1, lc)` — some rows conditioned, one tautology.
    session.register_table(
        "ct",
        Table::from_rows(
            Schema::qualified("ct", ["a", "g", "v1", "lc"]),
            (0..25)
                .map(|i| {
                    let lc = match i % 3 {
                        0 => Value::str("x < 5 OR x >= 5"), // tautology → certain
                        1 => Value::str("x = 3"),           // contingent → uncertain
                        _ => Value::Null,                   // no condition → certain
                    };
                    let v1 = if i % 7 == 0 {
                        Value::str("x") // variable attribute → dropped
                    } else {
                        Value::Null
                    };
                    Tuple::new(vec![
                        Value::Int(rng.gen_range(0..6)),
                        Value::Int(rng.gen_range(0..6)),
                        v1,
                        lc,
                    ])
                })
                .collect(),
        ),
    );
    session
}

/// The three annotated FROM items and their two int columns, alias-qualified.
struct Source {
    from: &'static str,
    cols: [&'static str; 2],
}

const SOURCES: [Source; 3] = [
    Source {
        from: "ti IS TI WITH PROBABILITY (p) x",
        cols: ["x.a", "x.b"],
    },
    Source {
        from: "xr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) y",
        cols: ["y.k", "y.v"],
    },
    Source {
        from: "ct IS CTABLE WITH VARIABLES (v1) LOCAL CONDITION (lc) z",
        cols: ["z.a", "z.g"],
    },
];

/// A fourth annotated source (a re-annotation of `ti` under a fresh alias)
/// so 4-way joins have four distinct relations.
const SOURCE_W: Source = Source {
    from: "ti IS TI WITH PROBABILITY (p) w",
    cols: ["w.a", "w.b"],
};

const OPS: [&str; 4] = ["=", "<", ">=", "<>"];

fn atom(col: &str, op: usize, lit: i64) -> String {
    format!("{col} {} {lit}", OPS[op % OPS.len()])
}

/// Random single-source query with optional WHERE / ORDER BY / LIMIT.
fn arb_single() -> impl Strategy<Value = String> {
    (
        0usize..3,
        0usize..2,
        0usize..4,
        0i64..6,
        proptest::bool::ANY,
        0usize..3,
    )
        .prop_map(|(src, col, op, lit, with_pred, shape)| {
            let s = &SOURCES[src];
            let projection = match shape {
                0 => "*".to_string(),
                1 => format!("{}, {}", s.cols[0], s.cols[1]),
                _ => format!("{} AS c0", s.cols[col]),
            };
            let mut sql = format!("SELECT {projection} FROM {}", s.from);
            if with_pred {
                sql.push_str(&format!(" WHERE {}", atom(s.cols[col], op, lit)));
            }
            if shape == 2 {
                sql.push_str(" ORDER BY c0 LIMIT 10");
            }
            sql
        })
}

/// Random two-source equi-join, in comma form or `JOIN ... ON` form, with
/// an optional extra single-side conjunct (exercising selection pushdown
/// below the planned hash join).
fn arb_join() -> impl Strategy<Value = String> {
    (
        0usize..3,
        0usize..3,
        (0usize..2, 0usize..2),
        (0usize..4, 0i64..6, 0usize..3),
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(s1, s2, (k1, k2), (op, lit, extra_side), comma, star)| {
            let s2 = if s1 == s2 { (s2 + 1) % 3 } else { s2 };
            let a = &SOURCES[s1];
            let b = &SOURCES[s2];
            let on = format!("{} = {}", a.cols[k1], b.cols[k2]);
            let extra = match extra_side {
                0 => Some(atom(a.cols[1 - k1], op, lit)),
                1 => Some(atom(b.cols[1 - k2], op, lit)),
                _ => None,
            };
            let projection = if star {
                "*".to_string()
            } else {
                format!("{}, {}", a.cols[0], b.cols[1])
            };
            if comma {
                let mut pred = on;
                if let Some(e) = extra {
                    pred = format!("{pred} AND {e}");
                }
                format!(
                    "SELECT {projection} FROM {}, {} WHERE {pred}",
                    a.from, b.from
                )
            } else {
                let mut sql = format!(
                    "SELECT {projection} FROM {} JOIN {} ON {on}",
                    a.from, b.from
                );
                if let Some(e) = extra {
                    sql.push_str(&format!(" WHERE {e}"));
                }
                sql
            }
        })
}

/// UNION ALL of one-column projections, and subqueries with inner+outer
/// filters (pushdown through stacked projections at the SQL level).
fn arb_compound() -> impl Strategy<Value = String> {
    (0usize..3, 0usize..3, 0usize..4, 0i64..6, proptest::bool::ANY).prop_map(
        |(s1, s2, op, lit, union)| {
            let a = &SOURCES[s1];
            let b = &SOURCES[s2];
            if union {
                format!(
                    "SELECT {} AS u FROM {} UNION ALL SELECT {} AS u FROM {}",
                    a.cols[0], a.from, b.cols[1], b.from
                )
            } else {
                let inner_col = a.cols[0].split('.').nth(1).expect("qualified");
                format!(
                    "SELECT q.{inner_col} FROM (SELECT {}, {} FROM {} WHERE {}) q WHERE q.{inner_col} >= {}",
                    a.cols[0],
                    a.cols[1],
                    a.from,
                    atom(a.cols[1], op, lit),
                    lit.min(3)
                )
            }
        },
    )
}

/// 3- and 4-way comma-joins over mixed TI/BI/C-table sources, in a
/// randomized FROM order with a chain of equi-conjuncts plus an optional
/// single-side atom — exactly the shapes the join-reordering pass rewrites
/// (and re-routes through the uniform pre-dispatch pipeline on both
/// engines).
fn arb_multi_join() -> impl Strategy<Value = String> {
    (
        0usize..6,
        proptest::bool::ANY,
        (0usize..2, 0usize..2, 0usize..2),
        // `src == 3` means "no extra atom".
        (0usize..4, 0usize..4, 0i64..6),
        proptest::bool::ANY,
    )
        .prop_map(
            |(perm, four_way, (k1, k2, k3), (atom_src, atom_op, atom_lit), star)| {
                const PERMS: [[usize; 3]; 6] = [
                    [0, 1, 2],
                    [0, 2, 1],
                    [1, 0, 2],
                    [1, 2, 0],
                    [2, 0, 1],
                    [2, 1, 0],
                ];
                let mut sources: Vec<&Source> = PERMS[perm].iter().map(|&i| &SOURCES[i]).collect();
                if four_way {
                    sources.push(&SOURCE_W);
                }
                let from = sources
                    .iter()
                    .map(|s| s.from)
                    .collect::<Vec<_>>()
                    .join(", ");
                // Chain: s0.c = s1.c' AND s1.c'' = s2.c''' (AND s2.c = s3.c).
                let mut conjuncts = vec![
                    format!("{} = {}", sources[0].cols[k1], sources[1].cols[k2]),
                    format!("{} = {}", sources[1].cols[k2], sources[2].cols[k3]),
                ];
                if four_way {
                    conjuncts.push(format!("{} = {}", sources[2].cols[k3], sources[3].cols[0]));
                }
                if atom_src < 3 {
                    conjuncts.push(atom(
                        sources[atom_src % sources.len()].cols[0],
                        atom_op,
                        atom_lit,
                    ));
                }
                let projection = if star {
                    "*".to_string()
                } else {
                    format!("{}, {}", sources[0].cols[1], sources[2].cols[0])
                };
                format!(
                    "SELECT {projection} FROM {from} WHERE {}",
                    conjuncts.join(" AND ")
                )
            },
        )
}

/// ORDER BY queries over single sources and equi-joins: multi-key (1–2
/// keys, mixed ASC/DESC, duplicate-heavy domains, NULL `b`s in `ti`), with
/// and without LIMIT — the shapes the columnar Sort and the fused Top-K
/// rewrite execute.
fn arb_order_by() -> impl Strategy<Value = String> {
    (
        0usize..3,
        0usize..3,
        (0usize..2, 0usize..2),
        proptest::bool::ANY,
        0usize..4,
    )
        .prop_map(|(s1, s2, (k1, k2), join, limit_shape)| {
            let a = &SOURCES[s1];
            let dir = |desc: bool| if desc { "DESC" } else { "ASC" };
            let (from, cols): (String, [&str; 2]) = if join {
                let s2 = if s1 == s2 { (s2 + 1) % 3 } else { s2 };
                let b = &SOURCES[s2];
                (
                    format!("{}, {} WHERE {} = {}", a.from, b.from, a.cols[0], b.cols[0]),
                    [a.cols[1], b.cols[1]],
                )
            } else {
                (a.from.to_string(), [a.cols[0], a.cols[1]])
            };
            let (d1, d2) = (k1 == 1, k2 == 1);
            let mut sql = format!(
                "SELECT {} AS u, {} AS v FROM {from} ORDER BY u {}, v {}",
                cols[0],
                cols[1],
                dir(d1),
                dir(d2)
            );
            match limit_shape {
                0 => {}
                1 => sql.push_str(" LIMIT 0"),
                2 => sql.push_str(" LIMIT 5"),
                _ => sql.push_str(" LIMIT 1000"),
            }
            sql
        })
}

/// GROUP BY / aggregation queries over single sources and equi-joins:
/// 0–2 group keys, 1–3 aggregates (count(*)/count/sum/min/max/avg,
/// including arithmetic arguments that exercise the typed kernels), an
/// optional WHERE below the aggregation, and an optional ORDER BY over the
/// aggregate output. Under UA semantics these must be *rejected
/// identically* by both engines (aggregation is not closed under
/// `⟦·⟧_UA`); under deterministic semantics they execute and must agree.
fn arb_group_by() -> impl Strategy<Value = String> {
    (
        0usize..3,
        0usize..3,
        (0usize..3, 0usize..5, proptest::bool::ANY),
        (0usize..4, 0i64..6),
        proptest::bool::ANY,
        0usize..3,
    )
        .prop_map(
            |(s1, s2, (n_keys, agg_pick, arith_arg), (op, lit), join, order_shape)| {
                let a = &SOURCES[s1];
                let (from, cols): (String, [&str; 2]) = if join {
                    let s2 = if s1 == s2 { (s2 + 1) % 3 } else { s2 };
                    let b = &SOURCES[s2];
                    (
                        format!("{}, {} WHERE {} = {}", a.from, b.from, a.cols[0], b.cols[0]),
                        [a.cols[1], b.cols[1]],
                    )
                } else {
                    (a.from.to_string(), [a.cols[0], a.cols[1]])
                };
                let arg = if arith_arg {
                    format!("{} + 1", cols[1])
                } else {
                    cols[1].to_string()
                };
                let aggs: Vec<String> = match agg_pick {
                    0 => vec!["count(*) AS n".into()],
                    1 => vec![format!("sum({arg}) AS s"), "count(*) AS n".into()],
                    2 => vec![format!("min({arg}) AS lo"), format!("max({arg}) AS hi")],
                    3 => vec![format!("avg({arg}) AS m")],
                    _ => vec![
                        format!("count({}) AS c", cols[0]),
                        format!("sum({arg}) AS s"),
                    ],
                };
                let keys: Vec<&str> = match n_keys {
                    0 => vec![],
                    1 => vec![cols[0]],
                    _ => vec![cols[0], cols[1]],
                };
                let mut select: Vec<String> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, k)| format!("{k} AS k{i}"))
                    .collect();
                select.extend(aggs.iter().cloned());
                let mut sql = format!("SELECT {} FROM {from}", select.join(", "));
                // WHERE must precede GROUP BY; the join form already
                // carries one, so extend it with AND there.
                let atom = atom(cols[0], op, lit);
                if join {
                    sql = format!("{sql} AND {atom}");
                } else if order_shape == 1 {
                    sql.push_str(&format!(" WHERE {atom}"));
                }
                if !keys.is_empty() {
                    sql.push_str(&format!(" GROUP BY {}", keys.join(", ")));
                }
                if order_shape == 2 {
                    let first_agg = ["n", "s", "lo", "m", "c"][agg_pick.min(4)];
                    if keys.is_empty() {
                        sql.push_str(&format!(" ORDER BY {first_agg} LIMIT 5"));
                    } else {
                        sql.push_str(&format!(" ORDER BY k0, {first_agg} LIMIT 5"));
                    }
                }
                sql
            },
        )
}

/// `EXCEPT [ALL]` between union-compatible projections over the annotated
/// sources — one column, two columns, or one column against the same kind
/// of column made `Float` (`* 1.0`, so `3` meets `3.0` and the keys match
/// only under coercion) — with an optional single-side WHERE and an
/// optional trailing ORDER BY/LIMIT — the wrapper shapes the UA negation
/// path peels off and re-applies over the encoded result.
fn arb_except() -> impl Strategy<Value = String> {
    (
        0usize..3,
        0usize..3,
        (0usize..2, 0usize..2),
        (0usize..4, 0i64..6, 0usize..3),
        (proptest::bool::ANY, proptest::bool::ANY),
        0usize..4,
    )
        .prop_map(
            |(s1, s2, (c1, c2), (op, lit, where_side), (all, order), shape)| {
                let a = &SOURCES[s1];
                let b = &SOURCES[s2];
                let connective = if all { "EXCEPT ALL" } else { "EXCEPT" };
                let lw = if where_side == 0 {
                    format!(" WHERE {}", atom(a.cols[c1], op, lit))
                } else {
                    String::new()
                };
                let rw = if where_side == 1 {
                    format!(" WHERE {}", atom(b.cols[c2], op, lit))
                } else {
                    String::new()
                };
                let (left, right) = match shape {
                    1 => (
                        format!("{} AS u, {} AS w", a.cols[c1], a.cols[1 - c1]),
                        format!("{} AS u, {} AS w", b.cols[c2], b.cols[1 - c2]),
                    ),
                    2 => (
                        format!("{} AS u", a.cols[c1]),
                        format!("{} * 1.0 AS u", b.cols[c2]),
                    ),
                    3 => (
                        format!("{} * 1.0 AS u, {} AS w", a.cols[c1], a.cols[1 - c1]),
                        format!("{} AS u, {} * 1.0 AS w", b.cols[c2], b.cols[1 - c2]),
                    ),
                    _ => (
                        format!("{} AS u", a.cols[c1]),
                        format!("{} AS u", b.cols[c2]),
                    ),
                };
                let mut sql = format!(
                    "SELECT {left} FROM {}{lw} {connective} SELECT {right} FROM {}{rw}",
                    a.from, b.from
                );
                if order {
                    sql.push_str(" ORDER BY u LIMIT 12");
                }
                sql
            },
        )
}

/// `LEFT`/`RIGHT [OUTER] JOIN ... ON` equi-joins over the annotated
/// sources, with an optional WHERE above the join — on either side,
/// including the null-padded one (the conjunct the pushdown pass must
/// refuse to sink; a NULL-fed atom evaluates to unknown and drops pads,
/// which pushing below the join would resurrect).
fn arb_outer_join() -> impl Strategy<Value = String> {
    (
        0usize..3,
        0usize..3,
        (0usize..2, 0usize..2),
        (0usize..4, 0i64..6, 0usize..3),
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(s1, s2, (k1, k2), (op, lit, extra_side), left, star)| {
            let s2 = if s1 == s2 { (s2 + 1) % 3 } else { s2 };
            let a = &SOURCES[s1];
            let b = &SOURCES[s2];
            let kind = if left { "LEFT JOIN" } else { "RIGHT JOIN" };
            let projection = if star {
                "*".to_string()
            } else {
                format!("{}, {}", a.cols[0], b.cols[1])
            };
            let mut sql = format!(
                "SELECT {projection} FROM {} {kind} {} ON {} = {}",
                a.from, b.from, a.cols[k1], b.cols[k2]
            );
            match extra_side {
                0 => sql.push_str(&format!(" WHERE {}", atom(a.cols[1 - k1], op, lit))),
                1 => sql.push_str(&format!(" WHERE {}", atom(b.cols[1 - k2], op, lit))),
                _ => {}
            }
            sql
        })
}

/// Uncorrelated `NOT IN` / `NOT EXISTS` subquery conjuncts (the anti-join
/// lowering). `ti.a` carries NULLs, so NOT IN hits all three three-valued
/// cases: NULL operand, NULL in the subquery result, and plain mismatch;
/// one subquery shape is deliberately empty (everything survives).
fn arb_anti_join() -> impl Strategy<Value = String> {
    (
        0usize..3,
        0usize..3,
        (0usize..2, 0usize..2),
        (0usize..4, 0i64..6),
        proptest::bool::ANY,
        0usize..3,
    )
        .prop_map(|(s1, s2, (c1, c2), (op, lit), exists, sub_where)| {
            let a = &SOURCES[s1];
            let b = &SOURCES[s2];
            let sub_pred = match sub_where {
                0 => format!(" WHERE {}", atom(b.cols[c2], op, lit)),
                1 => format!(" WHERE {} > 100", b.cols[c2]), // empty subquery
                _ => String::new(),
            };
            if exists {
                format!(
                    "SELECT {}, {} FROM {} WHERE NOT EXISTS (SELECT {} FROM {}{sub_pred})",
                    a.cols[0], a.cols[1], a.from, b.cols[c2], b.from
                )
            } else {
                format!(
                    "SELECT {} FROM {} WHERE {} NOT IN (SELECT {} FROM {}{sub_pred})",
                    a.cols[0], a.from, a.cols[c1], b.cols[c2], b.from
                )
            }
        })
}

fn arb_negation() -> impl Strategy<Value = String> {
    prop_oneof![arb_except(), arb_outer_join(), arb_anti_join()]
}

fn arb_query() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_single(),
        arb_join(),
        arb_compound(),
        arb_multi_join(),
        arb_order_by(),
        arb_group_by(),
        arb_negation()
    ]
}

fn run_ua(sql: &str, mode: ExecMode, optimizer: bool) -> Result<UaResult, EngineError> {
    seeded_session(mode, optimizer).query_ua(sql)
}

fn run_ua_threads(sql: &str, optimizer: bool, threads: usize) -> Result<UaResult, EngineError> {
    let session = seeded_session(ExecMode::Vectorized, optimizer);
    session.set_vec_threads(threads);
    session.query_ua(sql)
}

fn run_det(sql: &str, mode: ExecMode, optimizer: bool) -> Result<Table, EngineError> {
    seeded_session(mode, optimizer).query_det(sql)
}

fn run_det_threads(sql: &str, optimizer: bool, threads: usize) -> Result<Table, EngineError> {
    let session = seeded_session(ExecMode::Vectorized, optimizer);
    session.set_vec_threads(threads);
    session.query_det(sql)
}

/// The two engines either both fail, or produce byte-identical encoded
/// tables (same rows, same trailing `ua_c` labels, same order).
fn assert_engines_agree_ua(sql: &str, optimizer: bool) {
    let row = run_ua(sql, ExecMode::Row, optimizer);
    let vec = run_ua(sql, ExecMode::Vectorized, optimizer);
    match (row, vec) {
        (Ok(r), Ok(v)) => {
            assert_eq!(
                r.table.schema().arity(),
                v.table.schema().arity(),
                "arity mismatch (optimizer={optimizer}): {sql}"
            );
            assert_eq!(
                r.table.rows(),
                v.table.rows(),
                "row/label/order mismatch (optimizer={optimizer}): {sql}"
            );
        }
        (Err(_), Err(_)) => {}
        (r, v) => panic!(
            "engines disagree on success (optimizer={optimizer}): {sql}\n row: {:?}\n vec: {:?}",
            r.map(|t| t.table.len()),
            v.map(|t| t.table.len())
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// UA semantics: Row vs Vectorized, optimizer on and off.
    #[test]
    fn ua_engines_agree_on_random_sql(sql in arb_query()) {
        assert_engines_agree_ua(&sql, true);
        assert_engines_agree_ua(&sql, false);
    }

    /// The optimizer never changes the UA result multiset (labels included).
    #[test]
    fn optimizer_preserves_ua_results(sql in arb_query()) {
        let opt = run_ua(&sql, ExecMode::Row, true);
        let raw = run_ua(&sql, ExecMode::Row, false);
        match (opt, raw) {
            (Ok(o), Ok(r)) => {
                prop_assert_eq!(
                    o.table.sorted_rows(),
                    r.table.sorted_rows(),
                    "optimizer changed the result: {}",
                    sql
                );
                prop_assert_eq!(o.certainty_counts(), r.certainty_counts());
            }
            (Err(_), Err(_)) => {}
            (o, r) => panic!(
                "optimizer changed success: {}\n opt: {:?}\n raw: {:?}",
                sql,
                o.map(|t| t.table.len()),
                r.map(|t| t.table.len())
            ),
        }
    }

    /// ORDER BY (+ LIMIT) queries: label-for-label, order-identical results
    /// across {Row, Vec} × {optimizer on, off} × {threads 1, 2, 8}. The row
    /// engine's encoded sort is the reference; the vectorized engine's
    /// columnar sort / fused Top-K must match it byte for byte at every
    /// thread count (morsel merge order is the determinism contract).
    #[test]
    fn ua_order_by_agrees_across_engines_and_threads(sql in arb_order_by()) {
        for optimizer in [true, false] {
            let row = run_ua(&sql, ExecMode::Row, optimizer);
            for threads in [1usize, 2, 8] {
                let vec = run_ua_threads(&sql, optimizer, threads);
                match (&row, &vec) {
                    (Ok(r), Ok(v)) => prop_assert_eq!(
                        r.table.rows(),
                        v.table.rows(),
                        "row/label/order mismatch (optimizer={}, threads={}): {}",
                        optimizer,
                        threads,
                        &sql
                    ),
                    (Err(_), Err(_)) => {}
                    (r, v) => panic!(
                        "engines disagree on success (optimizer={optimizer}, \
                         threads={threads}): {sql}\n row: {:?}\n vec: {:?}",
                        r.as_ref().map(|t| t.table.len()),
                        v.as_ref().map(|t| t.table.len())
                    ),
                }
            }
        }
    }

    /// GROUP BY / aggregation SQL under deterministic semantics, swept over
    /// {Row, Vec} × {optimizer on, off} × {threads 1, 2, 8}: identical rows
    /// in identical (first-seen-group) order everywhere — the vectorized
    /// aggregation (typed arithmetic kernels included) against the row
    /// engine's, at every thread count.
    #[test]
    fn det_group_by_agrees_across_engines_and_threads(sql in arb_group_by()) {
        for optimizer in [true, false] {
            let row = run_det(&sql, ExecMode::Row, optimizer);
            for threads in [1usize, 2, 8] {
                let vec = run_det_threads(&sql, optimizer, threads);
                match (&row, &vec) {
                    (Ok(r), Ok(v)) => prop_assert_eq!(
                        r.rows(),
                        v.rows(),
                        "group-by mismatch (optimizer={}, threads={}): {}",
                        optimizer,
                        threads,
                        &sql
                    ),
                    (Err(_), Err(_)) => {}
                    (r, v) => panic!(
                        "engines disagree on success (optimizer={optimizer}, \
                         threads={threads}): {sql}\n row: {:?}\n vec: {:?}",
                        r.as_ref().map(|t| t.len()),
                        v.as_ref().map(|t| t.len())
                    ),
                }
            }
        }
    }

    /// Aggregation is not closed under `⟦·⟧_UA`: UA sessions must reject
    /// every generated GROUP BY query, with the *same* failure on both
    /// engines and at every thread count (no partial execution, no
    /// engine-specific acceptance).
    #[test]
    fn ua_rejects_group_by_uniformly(sql in arb_group_by()) {
        for optimizer in [true, false] {
            let row = run_ua(&sql, ExecMode::Row, optimizer);
            prop_assert!(row.is_err(), "UA must reject aggregation: {}", &sql);
            for threads in [1usize, 2, 8] {
                let vec = run_ua_threads(&sql, optimizer, threads);
                prop_assert!(
                    vec.is_err(),
                    "vectorized UA must reject aggregation (threads={}): {}",
                    threads,
                    &sql
                );
            }
        }
    }

    /// AU semantics over generated GROUP BY/aggregate SQL (the queries UA
    /// rejects): the row interpreter and the vectorized range-triple
    /// executor produce byte-identical flattened encoded tables.
    #[test]
    fn au_engines_agree_on_group_by(sql in arb_group_by()) {
        let row = seeded_session(ExecMode::Row, true).query_au(&sql);
        let vec = seeded_session(ExecMode::Vectorized, true).query_au(&sql);
        match (row, vec) {
            (Ok(r), Ok(v)) => {
                prop_assert_eq!(
                    r.table.schema(),
                    v.table.schema(),
                    "AU schema mismatch: {}",
                    &sql
                );
                prop_assert_eq!(
                    r.table.rows(),
                    v.table.rows(),
                    "AU row mismatch: {}",
                    &sql
                );
            }
            (Err(_), Err(_)) => {}
            (r, v) => panic!(
                "AU engines disagree on success: {sql}\n row: {:?}\n vec: {:?}",
                r.map(|t| t.table.len()),
                v.map(|t| t.table.len())
            ),
        }
    }

    /// Negation SQL (EXCEPT [ALL], LEFT/RIGHT JOIN, NOT IN / NOT EXISTS)
    /// under UA semantics: label-for-label, order-identical encoded tables
    /// across {Row, Vec} × {optimizer on, off} × {threads 1, 2, 8}, and
    /// the optimizer preserves the result multiset (labels included).
    #[test]
    fn ua_negation_agrees_across_engines_and_threads(sql in arb_negation()) {
        let mut per_opt: Vec<Option<Vec<Tuple>>> = Vec::new();
        for optimizer in [true, false] {
            let row = run_ua(&sql, ExecMode::Row, optimizer);
            per_opt.push(row.as_ref().ok().map(|r| r.table.sorted_rows()));
            for threads in [1usize, 2, 8] {
                let vec = run_ua_threads(&sql, optimizer, threads);
                match (&row, &vec) {
                    (Ok(r), Ok(v)) => prop_assert_eq!(
                        r.table.rows(),
                        v.table.rows(),
                        "row/label/order mismatch (optimizer={}, threads={}): {}",
                        optimizer,
                        threads,
                        &sql
                    ),
                    (Err(_), Err(_)) => {}
                    (r, v) => panic!(
                        "engines disagree on success (optimizer={optimizer}, \
                         threads={threads}): {sql}\n row: {:?}\n vec: {:?}",
                        r.as_ref().map(|t| t.table.len()),
                        v.as_ref().map(|t| t.table.len())
                    ),
                }
            }
        }
        prop_assert_eq!(
            &per_opt[0],
            &per_opt[1],
            "optimizer changed the negation result: {}",
            &sql
        );
    }

    /// The same negation SQL under deterministic semantics, over the same
    /// grid.
    #[test]
    fn det_negation_agrees_across_engines_and_threads(sql in arb_negation()) {
        for optimizer in [true, false] {
            let row = run_det(&sql, ExecMode::Row, optimizer);
            for threads in [1usize, 2, 8] {
                let vec = run_det_threads(&sql, optimizer, threads);
                match (&row, &vec) {
                    (Ok(r), Ok(v)) => prop_assert_eq!(
                        r.rows(),
                        v.rows(),
                        "det negation mismatch (optimizer={}, threads={}): {}",
                        optimizer,
                        threads,
                        &sql
                    ),
                    (Err(_), Err(_)) => {}
                    (r, v) => panic!(
                        "engines disagree on success (optimizer={optimizer}, \
                         threads={threads}): {sql}\n row: {:?}\n vec: {:?}",
                        r.as_ref().map(|t| t.len()),
                        v.as_ref().map(|t| t.len())
                    ),
                }
            }
        }
    }

    /// AU semantics over the negation generators: the row interpreter and
    /// the vectorized executor (which routes Except/OuterJoin through the
    /// shared `ua_ranges::ops` bound combination) produce byte-identical
    /// flattened encoded tables.
    #[test]
    fn au_engines_agree_on_negation(sql in arb_negation()) {
        let row = seeded_session(ExecMode::Row, true).query_au(&sql);
        let vec = seeded_session(ExecMode::Vectorized, true).query_au(&sql);
        match (row, vec) {
            (Ok(r), Ok(v)) => {
                prop_assert_eq!(
                    r.table.schema(),
                    v.table.schema(),
                    "AU schema mismatch: {}",
                    &sql
                );
                prop_assert_eq!(
                    r.table.rows(),
                    v.table.rows(),
                    "AU row mismatch: {}",
                    &sql
                );
            }
            (Err(_), Err(_)) => {}
            (r, v) => panic!(
                "AU engines disagree on success: {sql}\n row: {:?}\n vec: {:?}",
                r.map(|t| t.table.len()),
                v.map(|t| t.table.len())
            ),
        }
    }

    /// Deterministic semantics over the same SQL (annotated sources resolve
    /// to their best-guess worlds; no labels): engines and optimizer agree.
    #[test]
    fn det_engines_agree_on_random_sql(sql in arb_query()) {
        for optimizer in [true, false] {
            let row = run_det(&sql, ExecMode::Row, optimizer);
            let vec = run_det(&sql, ExecMode::Vectorized, optimizer);
            match (row, vec) {
                (Ok(r), Ok(v)) => {
                    prop_assert_eq!(
                        r.rows(),
                        v.rows(),
                        "det row/order mismatch (optimizer={}): {}",
                        optimizer,
                        sql
                    );
                }
                (Err(_), Err(_)) => {}
                (r, v) => panic!(
                    "det engines disagree on success (optimizer={optimizer}): {sql}\n row: {:?}\n vec: {:?}",
                    r.map(|t| t.len()),
                    v.map(|t| t.len())
                ),
            }
        }
    }
}

/// Regression: `t IS TI ... x` must resolve columns under the alias `x` in
/// every position — including `SELECT *` over an annotated comma-join,
/// where positional star expansion used to misalign against the relocated
/// `ua_c` marker (the row engine silently returned the marker as a user
/// column; the vectorized engine errored).
#[test]
fn annotated_source_alias_resolves_columns_in_both_engines() {
    let queries = [
        "SELECT x.a FROM ti IS TI WITH PROBABILITY (p) x WHERE x.a >= 0",
        "SELECT x.a AS c0 FROM ti IS TI WITH PROBABILITY (p) x ORDER BY x.a LIMIT 5",
        "SELECT x.* FROM ti IS TI WITH PROBABILITY (p) x",
        "SELECT * FROM ti IS TI WITH PROBABILITY (p) x, \
         xr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) y WHERE x.a = y.k",
    ];
    for sql in queries {
        let row = run_ua(sql, ExecMode::Row, true).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let vec = run_ua(sql, ExecMode::Vectorized, true).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(row.table.rows(), vec.table.rows(), "{sql}");
    }
    // The expanded star carries the user columns (a, b of x; k, v of y),
    // not the marker: arity = 4 user columns + the trailing marker.
    let star = run_ua(
        "SELECT * FROM ti IS TI WITH PROBABILITY (p) x, \
         xr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) y WHERE x.a = y.k",
        ExecMode::Row,
        true,
    )
    .unwrap();
    assert_eq!(star.table.schema().arity(), 5);
}

/// Regression: two different annotations of the same base table in one
/// session must not share a cached encoding.
#[test]
fn distinct_annotations_of_one_table_do_not_collide() {
    let session = seeded_session(ExecMode::Row, true);
    let by_p = session
        .query_ua("SELECT x.a FROM ti IS TI WITH PROBABILITY (p) x")
        .unwrap();
    // Re-annotate `ti` using column `b` as the probability: different rows
    // survive (b is an int column, so most rows exceed 0.5) — a shared
    // `__ua__ti` cache would return the `p`-encoded table again.
    let by_b = session
        .query_ua("SELECT x.a FROM ti IS TI WITH PROBABILITY (b) x")
        .unwrap();
    assert_ne!(
        by_p.table.rows(),
        by_b.table.rows(),
        "annotation change must change the encoding"
    );
}

/// Regression: programmatic `RaExpr` queries with *positional* (`Expr::Col`)
/// join predicates under UA. A position counts user columns on both
/// engines: the `⟦·⟧_UA` rewriting shifts right-side positions past the
/// left input's marker, so neither engine joins on the wrong columns (over
/// the encoded `r(a, b, ua_c) ++ s(c, d, ua_c)` an unshifted `Col(3)` is
/// `s.c`).
#[test]
fn positional_join_predicates_count_user_columns_on_both_engines() {
    use ua_data::relation::Relation;
    use ua_data::RaExpr;
    use ua_semiring::pair::Ua;

    let mk = |name: &str, cols: [&str; 2], rows: &[(i64, i64)]| -> Relation<Ua<u64>> {
        Relation::from_annotated(
            Schema::qualified(name, cols),
            rows.iter().map(|&(a, b)| {
                (
                    Tuple::new(vec![Value::Int(a), Value::Int(b)]),
                    Ua::new(1, 1),
                )
            }),
        )
    };
    // r(a, b) and s(c, d) chosen so `Col(1) = Col(3)` (user semantics
    // r.b = s.d) is empty while r.b = s.c — the misclassified key — is not.
    let r = mk("r", ["a", "b"], &[(1, 10), (2, 20)]);
    let s = mk("s", ["c", "d"], &[(10, 77), (20, 88)]);
    let q = RaExpr::Join {
        left: Box::new(RaExpr::table("r")),
        right: Box::new(RaExpr::table("s")),
        predicate: Some(ua_data::Expr::Col(1).eq(ua_data::Expr::Col(3))),
    };
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        for optimizer in [true, false] {
            let session = UaSession::with_mode(mode);
            session.set_optimizer_enabled(optimizer);
            session.register_ua_relation("r", &r);
            session.register_ua_relation("s", &s);
            let result = session.query_ua_ra(&q).expect("UA query");
            assert!(
                result.table.is_empty(),
                "{mode:?} optimizer={optimizer}: Col(1)=Col(3) means r.b = s.d \
                 and must match nothing, got {:?}",
                result.table.rows()
            );
        }
    }
}

/// Regression: 3- and 4-way comma-joins in deliberately bad orders execute
/// identically — label for label, in the same row order — on both engines
/// with the optimizer on and off, under UA and deterministic semantics.
/// (A UA query is one plan: its user plan is reordered once, rewritten
/// and optimized, and both engines run that plan; this is what makes
/// byte-equality possible.)
#[test]
fn multi_way_comma_joins_agree_across_engines_and_optimizer() {
    let queries = [
        // Chain through the middle relation.
        "SELECT * FROM ti IS TI WITH PROBABILITY (p) x, \
         xr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) y, \
         ct IS CTABLE WITH VARIABLES (v1) LOCAL CONDITION (lc) z \
         WHERE x.a = y.k AND y.k = z.a",
        // Star centered on the first relation, plus a single-side atom.
        "SELECT x.b, z.g FROM ti IS TI WITH PROBABILITY (p) x, \
         xr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) y, \
         ct IS CTABLE WITH VARIABLES (v1) LOCAL CONDITION (lc) z \
         WHERE x.a = y.k AND x.a = z.a AND y.v >= 1",
        // 4-way chain with a re-annotated ti under a fresh alias.
        "SELECT x.a, w.b FROM ti IS TI WITH PROBABILITY (p) x, \
         xr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) y, \
         ct IS CTABLE WITH VARIABLES (v1) LOCAL CONDITION (lc) z, \
         ti IS TI WITH PROBABILITY (p) w \
         WHERE x.a = y.k AND y.k = z.a AND z.a = w.a",
    ];
    for sql in queries {
        assert_engines_agree_ua(sql, true);
        assert_engines_agree_ua(sql, false);
        let opt = run_ua(sql, ExecMode::Row, true).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let raw = run_ua(sql, ExecMode::Row, false).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert!(!opt.table.is_empty(), "degenerate (empty) join: {sql}");
        assert_eq!(
            opt.table.sorted_rows(),
            raw.table.sorted_rows(),
            "optimizer changed the multi-join result: {sql}"
        );
        assert_eq!(opt.certainty_counts(), raw.certainty_counts(), "{sql}");
        for optimizer in [true, false] {
            let row = run_det(sql, ExecMode::Row, optimizer).expect("det row");
            let vec = run_det(sql, ExecMode::Vectorized, optimizer).expect("det vec");
            assert_eq!(row.rows(), vec.rows(), "det optimizer={optimizer}: {sql}");
        }
    }
}

/// Regression: AU `ORDER BY` keys bind against the *user* schema on both
/// engines. The vectorized Sort / Top-K used to bind them against the
/// stream's flattened schema, so a key naming a bound or multiplicity
/// column returned rows there while the row engine answered `unknown
/// column` — breaking the Ok-vs-Err contract and leaking bookkeeping
/// columns. With the optimizer on `ORDER BY … LIMIT` runs as `TopK`, off
/// as `Limit(Sort)`; without `LIMIT` as `Sort`; the subquery form puts the
/// sort below a projection.
#[test]
fn au_sort_keys_cannot_name_bookkeeping_columns() {
    const FROM: &str = "ti IS TI WITH PROBABILITY (p)";
    for key in ["ua_ub_0", "ua_lb_1", "ua_m_lb", "ua_m_bg", "ua_m_ub"] {
        for sql in [
            format!("SELECT a FROM {FROM} ORDER BY {key}"),
            format!("SELECT a FROM {FROM} ORDER BY {key} DESC, a LIMIT 3"),
            format!("SELECT s.a FROM (SELECT a, b FROM {FROM} ORDER BY {key} LIMIT 5) s"),
        ] {
            for optimizer in [true, false] {
                let row = seeded_session(ExecMode::Row, optimizer).query_au(&sql);
                let vec = seeded_session(ExecMode::Vectorized, optimizer).query_au(&sql);
                match (row, vec) {
                    (Err(r), Err(v)) => assert_eq!(
                        r.to_string(),
                        v.to_string(),
                        "error text differs (optimizer={optimizer}): {sql}"
                    ),
                    (r, v) => panic!(
                        "bookkeeping sort key must be rejected by both engines \
                         (optimizer={optimizer}): {sql}\n row: {:?}\n vec: {:?}",
                        r.map(|t| t.table.len()),
                        v.map(|t| t.table.len())
                    ),
                }
            }
        }
    }
    // User columns still sort, identically.
    let sql = format!("SELECT a, b FROM {FROM} ORDER BY b DESC, a LIMIT 7");
    let row = seeded_session(ExecMode::Row, true).query_au(&sql).unwrap();
    let vec = seeded_session(ExecMode::Vectorized, true)
        .query_au(&sql)
        .unwrap();
    assert_eq!(row.table.rows(), vec.table.rows(), "{sql}");
}

/// Computed projections and computed predicate operands under AU — nested
/// `+ − ×`, `Int × Float`, a literal on either side, `÷` (never
/// kernel-native), over x-DB ranges, a NULL-bearing TI column and a join —
/// from SQL, through the session: the vectorized engine at threads
/// {1, 2, 4, 8} returns the row interpreter's table byte for byte under
/// each optimizer setting, and the optimizer preserves the multiset.
#[test]
fn au_computed_expressions_agree_across_engines_and_threads() {
    const XR: &str = "xr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) y";
    const TI: &str = "ti IS TI WITH PROBABILITY (p) x";
    let queries = [
        format!("SELECT y.k * y.v AS w, y.k FROM {XR} WHERE y.v * 2 > y.k + 1"),
        format!("SELECT y.k * 0.5 + y.v AS w FROM {XR} WHERE 2.5 * y.v <= y.k * y.k"),
        format!("SELECT (y.k + y.v) * (y.k - 2) AS w, 3 - y.v AS d FROM {XR}"),
        format!("SELECT y.k / 2 AS h, y.k - y.v AS d FROM {XR} WHERE y.k * y.v BETWEEN 2 AND 12"),
        format!("SELECT x.a + x.b * 2 AS w FROM {TI} WHERE x.a * x.b < 10"),
        format!("SELECT x.b * y.v AS w FROM {TI}, {XR} WHERE x.b = y.k AND x.b + y.v > 3"),
        format!("SELECT y.k FROM {XR} WHERE y.v * 4611686018427387904 < 0"),
    ];
    for sql in &queries {
        let mut per_optimizer = Vec::new();
        for optimizer in [true, false] {
            let row = seeded_session(ExecMode::Row, optimizer)
                .query_au(sql)
                .unwrap_or_else(|e| panic!("row `{sql}`: {e}"));
            for threads in [1usize, 2, 4, 8] {
                let session = seeded_session(ExecMode::Vectorized, optimizer);
                session.set_vec_threads(threads);
                let vec = session
                    .query_au(sql)
                    .unwrap_or_else(|e| panic!("vec `{sql}`: {e}"));
                assert_eq!(row.table.schema(), vec.table.schema(), "{sql}");
                assert_eq!(
                    row.table.rows(),
                    vec.table.rows(),
                    "optimizer={optimizer} threads={threads}: {sql}"
                );
            }
            per_optimizer.push(row.table.sorted_rows());
        }
        assert_eq!(
            per_optimizer[0], per_optimizer[1],
            "optimizer changed {sql}"
        );
    }
    // The first query must exercise ranges, not only points.
    let ranged = seeded_session(ExecMode::Vectorized, true)
        .query_au(&queries[0])
        .expect("au")
        .decode();
    assert!(ranged.rows().iter().any(|r| !r.values[0].is_point()));
}

/// The same shapes from SQL over a registered AU relation with ranged,
/// NULL, top and overflowing cells, at the executor boundary where the
/// morsel size is a parameter: threads {1, 2, 4, 8} × batch rows
/// {1, 7, 64, 1024}, the row interpreter as the oracle.
#[test]
fn au_computed_expressions_agree_across_threads_and_batch_sizes() {
    use ua_engine::{ExecOptions, Semantics};
    use ua_ranges::{AuRelation, AuTuple, Bound, MultBound, RangeValue};
    let mut rng = StdRng::seed_from_u64(0x00C0_1175);
    let mut rel = AuRelation::new(Schema::qualified("t", ["i", "j", "f"]));
    for row in 0..120 {
        let x = rng.gen_range(-4..12i64);
        let i = match rng.gen_range(0..6u32) {
            0 | 1 => RangeValue::point(Value::Int(x)),
            2 if row % 40 == 7 => RangeValue::new(
                Bound::Val(Value::Int(1)),
                Value::Int(2),
                Bound::Val(Value::Int(1 << 62)),
            ),
            _ => RangeValue::new(
                Bound::Val(Value::Int(x - rng.gen_range(0..3i64))),
                Value::Int(x),
                Bound::Val(Value::Int(x + rng.gen_range(0..3i64))),
            ),
        };
        let j = match rng.gen_range(0..6u32) {
            0 => RangeValue::null(),
            1 => RangeValue::top(Value::Int(x)),
            _ => RangeValue::point(Value::Int(x + 1)),
        };
        let y = f64::from(rng.gen_range(-6..6i32)) / 4.0;
        let f = if rng.gen_range(0..3u32) == 0 {
            RangeValue::point(Value::float(y))
        } else {
            RangeValue::new(
                Bound::Val(Value::float(y - 0.5)),
                Value::float(y),
                Bound::Val(Value::float(y + 1.0)),
            )
        };
        rel.push(AuTuple {
            values: vec![i, j, f],
            mult: MultBound::new(0, 1, 2),
        });
    }
    let session = UaSession::with_mode(ExecMode::Row);
    session.register_au_relation("t", &rel);
    let catalog = session.catalog();
    for sql in [
        "SELECT i * f AS w, f * (1 - f) AS d FROM t WHERE i * 2 > j + 1",
        "SELECT (i + 3) * (i - 2) AS w, 2 * i AS e FROM t WHERE f * 0.5 <= i",
        "SELECT j + 1 AS w, i / 2 AS h FROM t WHERE 1 - f < 0.25 OR i * i IN (4, 9)",
        "SELECT i * 4 AS w FROM t WHERE NOT (i * 4 < 0)",
    ] {
        let query = ua_engine::sql::parse(sql).expect("parses");
        let plan = ua_engine::sql::plan_query(&query, catalog, &ua_engine::sql::RejectAnnotations)
            .expect("plans");
        let row = ua_engine::au_table(&ua_engine::execute_au(&plan, catalog).expect("au row"));
        assert!(!row.is_empty(), "{sql}: the case must keep rows");
        for threads in [1usize, 2, 4, 8] {
            for batch_rows in [1usize, 7, 64, 1024] {
                let opts = ExecOptions {
                    threads,
                    batch_rows,
                    collect_stats: false,
                    collect_trace: false,
                };
                let vec = ua_vecexec::execute(&plan, catalog, opts, Semantics::Au)
                    .0
                    .expect("au vec");
                assert_eq!(
                    row.rows(),
                    vec.rows(),
                    "threads={threads} batch={batch_rows}: {sql}"
                );
            }
        }
    }
}
