//! The session calls both executors as ordinary functions: nothing to
//! register before `ExecMode::Vectorized` works, stats come back by value
//! with the query that produced them, and both executors agree byte for
//! byte across thread counts with stats on or off.
//!
//! No test in this file makes any process-wide set-up call, so each one
//! also checks that a fresh process needs none.

use uadb::data::{tuple, Schema, Tuple};
use uadb::datagen::pdbench::{inject_db, PdbenchConfig};
use uadb::datagen::queries::pdbench_uncertain_columns;
use uadb::datagen::tpch::{self, TpchConfig};
use uadb::engine::{ExecMode, ExecOptions, Plan, Table, UaSession};
use uadb::ranges::AuRelation;

const ADDR_X: &str = "addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p)";

/// The paper's geocoder example (Figures 2/3) as a raw x-table.
fn geocoder() -> UaSession {
    let session = UaSession::new();
    session.register_table(
        "addr",
        Table::from_rows(
            Schema::qualified("addr", ["xid", "aid", "p", "id", "locale", "state"]),
            vec![
                tuple![1i64, 1i64, 1.0, 1i64, "Lasalle", "NY"],
                tuple![2i64, 1i64, 0.6, 2i64, "Tucson", "AZ"],
                tuple![2i64, 2i64, 0.4, 2i64, "Grant Ferry", "NY"],
                tuple![3i64, 1i64, 0.5, 3i64, "Kingsley", "NY"],
                tuple![3i64, 2i64, 0.5, 3i64, "Kingsley", "NY"],
                tuple![4i64, 1i64, 1.0, 4i64, "Kensington", "NY"],
            ],
        ),
    );
    session
}

#[derive(Clone, Copy, Debug)]
enum Sem {
    Det,
    Ua,
    Au,
}

/// One PDBench database (5 % cell uncertainty) loaded three ways under the
/// same table names: the best-guess world, the `Enc` tables, and the
/// AU-encoded x-DB.
struct Pdbench {
    det: UaSession,
    ua: UaSession,
    au: UaSession,
}

impl Pdbench {
    fn load(scale: f64, seed: u64) -> Pdbench {
        let data = tpch::generate(&TpchConfig::new(scale, seed));
        let tables: Vec<(&str, &Table, &[&str])> = data
            .tables()
            .into_iter()
            .map(|(name, table)| (name, table, pdbench_uncertain_columns(name)))
            .collect();
        let db = inject_db(
            &tables,
            &PdbenchConfig {
                uncertainty: 0.05,
                seed,
                ..PdbenchConfig::default()
            },
        );
        let s = Pdbench {
            det: UaSession::with_mode(ExecMode::Row),
            ua: UaSession::with_mode(ExecMode::Row),
            au: UaSession::with_mode(ExecMode::Row),
        };
        for (name, _, _) in &tables {
            s.det.register_table(*name, db.bgw[*name].clone());
            s.ua.register_table(*name, db.encoded[*name].clone());
            let xrel = db.xdb.get(name).expect("every table was injected");
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
            let rel =
                AuRelation::from_x_blocks(xrel.schema().clone(), blocks.iter().map(Vec::as_slice));
            s.au.register_au_relation(*name, &rel);
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
}

fn run(session: &UaSession, sem: Sem, sql: &str) -> Table {
    match sem {
        Sem::Det => session.query_det(sql),
        Sem::Ua => session.query_ua(sql).map(|r| r.table),
        Sem::Au => session.query_au(sql).map(|r| r.table),
    }
    .unwrap_or_else(|e| panic!("{sem:?} `{sql}`: {e}"))
}

#[test]
fn fresh_vectorized_session_answers_det_ua_and_au() {
    let session = geocoder();
    session.set_exec_mode(ExecMode::Vectorized);
    let det = session
        .query_det("SELECT id, locale FROM addr WHERE p >= 0.6")
        .expect("det");
    assert_eq!(det.len(), 3);
    let ua = session
        .query_ua(&format!("SELECT id, locale FROM {ADDR_X}"))
        .expect("ua");
    assert_eq!(ua.certainty_counts(), (2, 4));
    let au = session
        .query_au(&format!(
            "SELECT state, count(*) AS n FROM {ADDR_X} GROUP BY state"
        ))
        .expect("au");
    assert_eq!(au.decode().rows().len(), 2);
}

#[test]
fn stats_never_cross_queries() {
    let session = geocoder();
    session.set_exec_mode(ExecMode::Vectorized);
    // An instrumented run outside the session, on this thread …
    let opts = ExecOptions {
        threads: 1,
        batch_rows: 0,
        collect_stats: true,
        collect_trace: false,
    };
    uadb::vecexec::execute(
        &Plan::Scan("addr".into()),
        session.catalog(),
        opts,
        uadb::engine::Semantics::Det,
    )
    .0
    .expect("direct call");
    // … must not show up as the stats of a stats-off session query.
    assert!(!session.stats_enabled());
    session
        .query_det("SELECT id FROM addr WHERE p >= 0.6")
        .expect("session query");
    assert!(session.last_query_stats().is_none());
}

/// `{det,ua,au} × {Row,Vectorized} × threads {1,2} × stats {on,off}`:
/// every cell returns the bytes of the row engine's plain run, and an
/// instrumented vectorized run reports itself with its pool section.
/// Returns the result's row count.
fn assert_grid(session: &UaSession, sem: Sem, sql: &str) -> usize {
    session.set_exec_mode(ExecMode::Row);
    session.set_stats_enabled(false);
    let expected = run(session, sem, sql);
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        for threads in [1, 2] {
            for stats in [false, true] {
                session.set_exec_mode(mode);
                session.set_vec_threads(threads);
                session.set_stats_enabled(stats);
                let got = run(session, sem, sql);
                let cell = format!("{sem:?} {mode:?} threads={threads} stats={stats} `{sql}`");
                assert_eq!(got.schema(), expected.schema(), "{cell}");
                assert_eq!(got.rows(), expected.rows(), "{cell}");
                if stats && mode == ExecMode::Vectorized {
                    let qs = session.last_query_stats().expect(&cell);
                    assert_eq!(qs.engine, "vectorized", "{cell}");
                    assert!(qs.pool.is_some(), "{cell}");
                }
            }
        }
    }
    expected.len()
}

#[test]
fn executor_grid_geocoder() {
    let session = geocoder();
    assert_grid(
        &session,
        Sem::Det,
        "SELECT state, count(*) AS n FROM addr WHERE p >= 0.5 GROUP BY state",
    );
    for sem in [Sem::Ua, Sem::Au] {
        assert_grid(
            &session,
            sem,
            &format!("SELECT id, locale FROM {ADDR_X} WHERE state = 'NY' ORDER BY id"),
        );
        assert_grid(
            &session,
            sem,
            &format!("SELECT a.id, b.id FROM {ADDR_X} a, {ADDR_X} b WHERE a.state = b.state"),
        );
    }
    assert_grid(
        &session,
        Sem::Au,
        &format!("SELECT state, count(*) AS n FROM {ADDR_X} GROUP BY state"),
    );
}

#[test]
fn executor_grid_pdbench() {
    let db = Pdbench::load(0.002, 7);
    // (statement, inside the UA fragment?) — UA rejects aggregation by
    // design. The fourth and fifth are PDBench Q1 and Q3: σ over ranged
    // columns under 3- and 4-way hash joins on certain keys.
    let queries = [
        (
            "SELECT orderkey, quantity * extendedprice AS v FROM lineitem WHERE shipdate > 1200",
            true,
        ),
        (
            "SELECT c.custkey, o.orderkey FROM customer c, orders o \
             WHERE c.custkey = o.custkey AND c.nationkey = 2 ORDER BY o.orderkey LIMIT 20",
            true,
        ),
        (
            "SELECT shippriority, count(*) AS n FROM orders GROUP BY shippriority",
            false,
        ),
        (
            "SELECT o.orderkey, o.orderdate, o.shippriority \
             FROM customer c, orders o, lineitem l \
             WHERE c.mktsegment = 'BUILDING' AND c.custkey = o.custkey \
             AND l.orderkey = o.orderkey AND o.orderdate < 1200 AND l.shipdate > 1200",
            true,
        ),
        (
            "SELECT s.suppkey, c.custkey, l.shipdate \
             FROM supplier s, lineitem l, orders o, customer c \
             WHERE s.suppkey = l.suppkey AND o.orderkey = l.orderkey \
             AND c.custkey = o.custkey AND s.nationkey = 1 AND c.nationkey = 2",
            true,
        ),
        // The `negation` workload's three statement shapes, over key-range
        // slices (row det and both AU engines evaluate them pairwise).
        (
            "SELECT o.orderkey, o.totalprice FROM orders o \
             WHERE o.orderkey < 120 AND o.orderkey NOT IN \
             (SELECT l.orderkey FROM lineitem l WHERE l.quantity > 45 AND l.orderkey < 120)",
            true,
        ),
        (
            "SELECT custkey FROM customer WHERE custkey < 200 \
             EXCEPT SELECT custkey FROM orders WHERE custkey < 200 AND orderdate < 1200",
            true,
        ),
        (
            "SELECT c.custkey, c.acctbal, o.orderkey, o.totalprice FROM \
             (SELECT custkey, acctbal FROM customer WHERE custkey < 40) c LEFT JOIN \
             (SELECT custkey, orderkey, totalprice FROM orders WHERE custkey < 40) o \
             ON c.custkey = o.custkey",
            true,
        ),
    ];
    for sem in [Sem::Det, Sem::Ua, Sem::Au] {
        for (sql, in_ua_fragment) in queries {
            if in_ua_fragment || !matches!(sem, Sem::Ua) {
                let rows = assert_grid(db.session(sem), sem, sql);
                assert!(rows > 0, "{sem:?} `{sql}` must return rows");
            }
        }
    }
}

/// AU hash joins whose keys are ranged, NULL or top on either side: the
/// vectorized join indexes the point keys, pairs every fuzzy key with
/// every candidate and refines those pairs row-wise — to the row
/// interpreter's bytes, with and without a residual predicate.
#[test]
fn executor_grid_au_joins_over_ranged_keys() {
    use uadb::data::Value;
    use uadb::ranges::{AuTuple, Bound, MultBound, RangeValue};
    let session = UaSession::new();
    for (name, rows) in [("l", 45i64), ("r", 30)] {
        let mut rel = AuRelation::new(Schema::qualified(name, ["k", "v"]));
        for i in 0..rows {
            let k = Value::Int(i % 6);
            let key = match i % 7 {
                0 => RangeValue::new(Bound::Val(k.clone()), k, Bound::Val(Value::Int(i % 6 + 2))),
                1 => RangeValue::null(),
                2 => RangeValue::top(k),
                _ => RangeValue::point(k),
            };
            rel.push(AuTuple {
                values: vec![key, RangeValue::point(Value::Int(i * 3 % 11))],
                mult: MultBound::new((i % 2) as u64, 1, 1 + (i % 3) as u64),
            });
        }
        session.register_au_relation(name, &rel);
    }
    for sql in [
        "SELECT l.k, l.v, r.v FROM l, r WHERE l.k = r.k",
        "SELECT l.k, l.v, r.v FROM l, r WHERE l.k = r.k AND l.v < r.v",
    ] {
        let plan = session.explain_analyze_au(sql).expect("explain");
        assert!(plan.contains("HashJoin["), "{sql} plans as\n{plan}");
        assert!(assert_grid(&session, Sem::Au, sql) > 0);
    }
}

/// PDBench's 4-way join written with aliases: the optimizer reorders it,
/// and the reordered AU plan used to restore its column order through the
/// AU encoding's bound columns (`unknown column s.ua_lb_0`).
#[test]
fn aliased_au_joins_survive_reordering() {
    let db = Pdbench::load(0.005, 1);
    let query = |from: &str, [s, l, o, c]: [&str; 4]| {
        format!(
            "SELECT {s}.suppkey, {c}.custkey, {l}.shipdate FROM {from} \
             WHERE {s}.suppkey = {l}.suppkey AND {o}.orderkey = {l}.orderkey \
             AND {c}.custkey = {o}.custkey AND {s}.nationkey = 1 AND {c}.nationkey = 2"
        )
    };
    let aliased = query(
        "supplier s, lineitem l, orders o, customer c",
        ["s", "l", "o", "c"],
    );
    let unaliased = query(
        "supplier, lineitem, orders, customer",
        ["supplier", "lineitem", "orders", "customer"],
    );
    let session = &db.au;
    session.set_reorder_joins_enabled(false);
    let as_written = run(session, Sem::Au, &aliased).sorted_rows();
    assert_eq!(as_written.len(), 66);
    session.set_reorder_joins_enabled(true);
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        session.set_exec_mode(mode);
        let got = run(session, Sem::Au, &aliased);
        assert_eq!(got.sorted_rows(), as_written, "{mode:?}");
        // Same join order with or without aliases: same row order.
        assert_eq!(
            run(session, Sem::Au, &unaliased).rows(),
            got.rows(),
            "{mode:?}"
        );
    }
}

/// `r(a)` and `s(a)` as `Enc` tables: `r` = {1 certain, 2 uncertain,
/// 3 certain}, `s` = {2 certain}.
fn encoded_r_s(mode: ExecMode) -> UaSession {
    let session = UaSession::with_mode(mode);
    for (name, rows) in [
        (
            "r",
            vec![tuple![1i64, 1i64], tuple![2i64, 0i64], tuple![3i64, 1i64]],
        ),
        ("s", vec![tuple![2i64, 1i64]]),
    ] {
        let schema = Schema::qualified(name, ["a"]).with_column("ua_c");
        session.register_table(name, Table::from_rows(schema, rows));
    }
    session
}

/// A UA-encoded table whose markers are not all `0` / `1` — `2`, `-1`,
/// NULL, a `Float` — fails every UA query over it with one error on both
/// engines, naming the first offending marker, query after query; a
/// repaired registration answers, and its markers are checked once, not
/// once per query.
#[test]
fn malformed_certainty_markers_fail_alike_on_both_engines() {
    use uadb::data::Value;
    use uadb::engine::Semantics;
    let schema = Schema::qualified("t", ["a"]).with_column("ua_c");
    // Rows 1500 and 2400 are broken, differently: the error names row 1500.
    let table = |bad: Option<&Value>| {
        let rows = (0..2500i64).map(|i| {
            let marker = match (i, bad) {
                (1500, Some(bad)) => bad.clone(),
                (2400, Some(_)) => Value::Int(3),
                _ => Value::Int(i % 2),
            };
            Tuple::new(vec![Value::Int(i), marker])
        });
        Table::from_rows(schema.clone(), rows.collect())
    };
    let sql = "SELECT a FROM t WHERE a >= 10";
    for bad in [
        Value::Int(2),
        Value::Int(-1),
        Value::Null,
        Value::float(1.0),
    ] {
        let expected = format!("invalid certainty marker {:?} in `t`", Some(&bad));
        for mode in [ExecMode::Row, ExecMode::Vectorized] {
            let session = UaSession::with_mode(mode);
            session.register_table("t", table(Some(&bad)));
            for query in 1..=2 {
                let err = session.query_ua(sql).expect_err("malformed markers");
                assert_eq!(err.to_string(), expected, "{mode:?} query {query}");
            }
            session.register_table("t", table(None));
            for _ in 0..2 {
                let result = session.query_ua(sql).expect("repaired table");
                assert_eq!(result.certainty_counts(), (1245, 2490), "{mode:?}");
            }
            let checked_again = session
                .catalog()
                .chunks_of("t", Semantics::Ua, 0, |_| -> Result<_, ()> {
                    panic!("{mode:?}: the markers of one registration are checked once")
                })
                .expect("cached");
            assert!(checked_again.is_some());
        }
    }
}

/// UA `EXCEPT` / `LEFT JOIN` / `NOT IN` go through the one dispatch like
/// every other query: they report their own stats and trace on both
/// engines and register nothing in the catalog.
#[test]
fn ua_negation_reports_stats_and_trace_and_leaves_the_catalog_alone() {
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        let engine = match mode {
            ExecMode::Row => "row",
            ExecMode::Vectorized => "vectorized",
        };
        let session = encoded_r_s(mode);
        session.set_stats_enabled(true);
        session.set_trace_enabled(true);
        let tables = session.catalog().table_names();
        for sql in [
            "SELECT a FROM r EXCEPT SELECT a FROM s",
            "SELECT r.a, s.a FROM r LEFT JOIN s ON r.a = s.a",
            "SELECT a FROM r WHERE a NOT IN (SELECT a FROM s)",
        ] {
            // An unrelated instrumented query first: its stats must not
            // survive as the negation query's.
            session.query_det("SELECT a FROM s").expect("det");
            let result = session.query_ua(sql).expect(sql);
            let cell = format!("{mode:?} `{sql}`");
            let stats = session.last_query_stats().expect(&cell);
            assert_eq!(stats.semantics, "ua", "{cell}");
            assert_eq!(stats.engine, engine, "{cell}");
            assert_eq!(stats.root.rows_out, result.table.len() as u64, "{cell}");
            let trace = session.last_query_trace().expect(&cell);
            for span in ["\"optimize\"", "\"execute\""] {
                assert!(trace.contains(span), "{cell}: no {span} span in {trace}");
            }
            assert_eq!(session.catalog().table_names(), tables, "{cell}");
        }
    }
}

/// One x-relation over `(a, b)`: blocks of weighted alternatives.
type Blocks = Vec<Vec<(Tuple, f64)>>;

/// `xr` and `xs`, small enough to enumerate: NULLs in the `NOT IN` operand
/// column and in the subquery column (certain ones, and one that is only
/// an alternative), duplicate rows for `EXCEPT ALL`'s budgets, and
/// maybe-absent rows.
fn null_bearing_xdb() -> [(&'static str, Blocks); 2] {
    use uadb::data::Value::{Int, Null};
    let t = |a, b| Tuple::new(vec![a, b]);
    [
        (
            "xr",
            vec![
                vec![(t(Int(1), Int(10)), 1.0)],
                vec![(t(Null, Int(20)), 1.0)],
                vec![(t(Int(2), Int(30)), 0.6), (t(Int(3), Int(30)), 0.4)],
                vec![(t(Int(4), Int(40)), 0.7)],
                vec![(t(Int(1), Int(10)), 1.0)],
                vec![(t(Int(5), Null), 1.0)],
                vec![(t(Int(6), Int(60)), 1.0)],
            ],
        ),
        (
            "xs",
            vec![
                vec![(t(Int(1), Int(10)), 1.0)],
                vec![(t(Int(2), Int(30)), 0.5), (t(Null, Int(25)), 0.5)],
                vec![(t(Int(5), Null), 1.0)],
                vec![(t(Int(3), Int(30)), 0.4)],
                vec![(t(Null, Null), 1.0)],
            ],
        ),
    ]
}

/// Every possible world of one x-relation (one alternative per block, or
/// none when the block's mass is below 1), the selected-guess world first
/// — the labelings' rule: the first most likely alternative, unless
/// absence is likelier.
fn worlds_of(blocks: &Blocks) -> Vec<Vec<Tuple>> {
    let mut worlds: Vec<Vec<Tuple>> = vec![Vec::new()];
    for block in blocks {
        let absent = 1.0 - block.iter().map(|(_, p)| p).sum::<f64>();
        let mut choices: Vec<(Option<&Tuple>, f64)> =
            block.iter().map(|(t, p)| (Some(t), *p)).collect();
        if absent > 1e-9 {
            choices.push((None, absent));
        }
        // Stable: ties keep the first alternative in front.
        choices.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut next = Vec::new();
        for choice in choices {
            for w in &worlds {
                next.push(w.iter().cloned().chain(choice.0.cloned()).collect());
            }
        }
        worlds = next;
    }
    worlds
}

/// `NOT IN` with a NULL operand and with a NULL in the subquery, `EXCEPT`
/// and `EXCEPT ALL` over NULL-bearing rows: byte-identical on both engines
/// with the optimizer on and off under det, UA and AU — and the AU result
/// encloses the query's answer in every possible world, its selected guess
/// being the answer over the selected-guess world.
#[test]
fn negation_over_nulls_agrees_on_every_path_and_encloses_every_world() {
    use uadb::data::Value;
    use uadb::ranges::{check_encloses_world, sg_rows};
    let xdb = null_bearing_xdb();
    let worlds: Vec<Vec<Vec<Tuple>>> = {
        let (r, s) = (worlds_of(&xdb[0].1), worlds_of(&xdb[1].1));
        // The product, with (SG of xr, SG of xs) first.
        s.iter()
            .flat_map(|s| r.iter().map(move |r| vec![r.clone(), s.clone()]))
            .collect()
    };
    assert_eq!(worlds.len(), 4 * 4);
    let det_session = |world: &[Vec<Tuple>]| {
        let session = UaSession::with_mode(ExecMode::Row);
        for ((name, _), rows) in xdb.iter().zip(world) {
            let schema = Schema::qualified(name, ["a", "b"]);
            session.register_table(*name, Table::from_rows(schema, rows.clone()));
        }
        session
    };
    let uncertain = UaSession::new();
    for (name, blocks) in &xdb {
        let rows = blocks.iter().enumerate().flat_map(|(xid, block)| {
            block.iter().enumerate().map(move |(aid, (t, p))| {
                let head = [xid as i64, aid as i64].map(Value::Int);
                Tuple::new(
                    head.into_iter()
                        .chain([Value::float(*p)])
                        .chain(t.iter().cloned())
                        .collect::<Vec<_>>(),
                )
            })
        });
        let schema = Schema::qualified(name, ["xid", "aid", "p", "a", "b"]);
        uncertain.register_table(*name, Table::from_rows(schema, rows.collect()));
    }
    let sg = det_session(&worlds[0]);

    let queries = [
        // NULL in the subquery (certainly): nothing is certainly out.
        "SELECT r.a, r.b FROM {xr} r WHERE r.a NOT IN (SELECT s.a FROM {xs} s)",
        // NULL only as an alternative in the subquery, NULL operand in xr.
        "SELECT r.a, r.b FROM {xr} r WHERE r.a NOT IN (SELECT s.a FROM {xs} s WHERE s.b > 5)",
        // No NULL in the subquery: the NULL operand alone decides its row.
        "SELECT r.a, r.b FROM {xr} r WHERE r.a NOT IN (SELECT s.a FROM {xs} s WHERE s.a < 3)",
        "SELECT r.a FROM {xr} r WHERE r.b NOT IN (SELECT s.b FROM {xs} s WHERE s.a >= 1)",
        "SELECT a, b FROM {xr} r EXCEPT SELECT a, b FROM {xs} s",
        "SELECT a, b FROM {xr} r EXCEPT ALL SELECT a, b FROM {xs} s",
        "SELECT b FROM {xr} r EXCEPT ALL SELECT b FROM {xs} s",
        "SELECT a FROM {xr} r EXCEPT SELECT a FROM {xs} s WHERE s.b > 5",
    ];
    for template in queries {
        let det_sql = template.replace("{xr}", "xr").replace("{xs}", "xs");
        let x_sql = ["xr", "xs"].iter().fold(template.to_string(), |sql, name| {
            let source = format!("{name} IS X WITH XID (xid) ALTID (aid) PROBABILITY (p)");
            sql.replace(&format!("{{{name}}}"), &source)
        });
        let mut sg_answer = None;
        for (session, sem, sql) in [
            (&sg, Sem::Det, &det_sql),
            (&uncertain, Sem::Ua, &x_sql),
            (&uncertain, Sem::Au, &x_sql),
        ] {
            session.set_exec_mode(ExecMode::Row);
            session.set_optimizer_enabled(true);
            let expected = run(session, sem, sql);
            for optimizer in [true, false] {
                for mode in [ExecMode::Row, ExecMode::Vectorized] {
                    session.set_optimizer_enabled(optimizer);
                    session.set_exec_mode(mode);
                    let got = run(session, sem, sql);
                    let cell = format!("{sem:?} {mode:?} optimizer={optimizer} `{sql}`");
                    assert_eq!(got.schema(), expected.schema(), "{cell}");
                    assert_eq!(got.rows(), expected.rows(), "{cell}");
                }
            }
            if let Sem::Det = sem {
                sg_answer = Some(expected.sorted_rows());
            }
        }
        let au = uncertain.query_au(&x_sql).expect("au").decode();
        assert_eq!(Some(sg_rows(&au)), sg_answer, "`{det_sql}`: selected guess");
        for (wi, world) in worlds.iter().enumerate() {
            let truth = run(&det_session(world), Sem::Det, &det_sql);
            if let Err(violation) = check_encloses_world(&au, truth.rows()) {
                panic!(
                    "`{det_sql}`, world {wi} {world:?}: {violation}\nanswer {:?}\nAU {au:?}",
                    truth.rows()
                );
            }
        }
    }
}

/// AU interval endpoints are checked, not wrapping: over `a ∈ {1, 2⁶¹,
/// 2⁶²}` the product `a * 4` used to read `[0, 4, 4]` (its upper endpoint
/// `2⁶⁴ ≡ 0`) while the world `a = 2⁶¹` evaluates to `i64::MIN`. Both
/// engines now widen an overflowing endpoint to top — identically, with
/// the optimizer on and off, in a projection and in a predicate operand —
/// so every world is enclosed; the selected guess stays the evaluator's
/// wrapping value, and a product of two points stays that point.
#[test]
fn interval_overflow_widens_on_both_engines_and_encloses_every_world() {
    use uadb::data::Value::{self, Int};
    use uadb::ranges::{check_encloses_world, sg_rows};
    let t = |a: i64, b: i64| Tuple::new(vec![Int(a), Int(b)]);
    let blocks: Blocks = vec![
        vec![
            (t(1, 10), 0.5),
            (t(1 << 61, 10), 0.25),
            (t(1 << 62, 10), 0.25),
        ],
        vec![(t(1 << 62, 20), 1.0)],
        vec![(t(3, 30), 0.6), (t(5, 30), 0.4)],
    ];
    let worlds = worlds_of(&blocks);
    assert_eq!(worlds.len(), 3 * 2);
    let det_session = |world: &[Tuple]| {
        let session = UaSession::with_mode(ExecMode::Row);
        let schema = Schema::qualified("xr", ["a", "b"]);
        session.register_table("xr", Table::from_rows(schema, world.to_vec()));
        session
    };
    let uncertain = UaSession::new();
    let rows = blocks.iter().enumerate().flat_map(|(xid, block)| {
        block.iter().enumerate().map(move |(aid, (t, p))| {
            let head = [Int(xid as i64), Int(aid as i64), Value::float(*p)];
            Tuple::new(
                head.into_iter()
                    .chain(t.iter().cloned())
                    .collect::<Vec<_>>(),
            )
        })
    });
    let schema = Schema::qualified("xr", ["xid", "aid", "p", "a", "b"]);
    uncertain.register_table("xr", Table::from_rows(schema, rows.collect()));

    for template in [
        "SELECT b, a * 4 AS w FROM {xr} r",
        "SELECT b, (4 * a + b) * 2 AS w FROM {xr} r",
        "SELECT b FROM {xr} r WHERE a * 4 < 0",
    ] {
        let det_sql = template.replace("{xr}", "xr");
        let x_sql = template.replace("{xr}", "xr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p)");
        uncertain.set_exec_mode(ExecMode::Row);
        uncertain.set_optimizer_enabled(true);
        let expected = run(&uncertain, Sem::Au, &x_sql);
        for optimizer in [true, false] {
            for mode in [ExecMode::Row, ExecMode::Vectorized] {
                uncertain.set_optimizer_enabled(optimizer);
                uncertain.set_exec_mode(mode);
                let got = run(&uncertain, Sem::Au, &x_sql);
                assert_eq!(
                    got.rows(),
                    expected.rows(),
                    "{mode:?} optimizer={optimizer} `{x_sql}`"
                );
            }
        }
        let au = uncertain.query_au(&x_sql).expect("au").decode();
        let sg = run(&det_session(&worlds[0]), Sem::Det, &det_sql);
        assert_eq!(
            sg_rows(&au),
            sg.sorted_rows(),
            "`{det_sql}`: selected guess"
        );
        for (wi, world) in worlds.iter().enumerate() {
            let truth = run(&det_session(world), Sem::Det, &det_sql);
            if let Err(violation) = check_encloses_world(&au, truth.rows()) {
                panic!(
                    "`{det_sql}`, world {wi} {world:?}: {violation}\nanswer {:?}\nAU {au:?}",
                    truth.rows()
                );
            }
        }
    }

    let products = uncertain
        .query_au("SELECT b, a * 4 AS w FROM xr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) r")
        .expect("au")
        .decode();
    let w_of = |b: i64| {
        let row = products.rows().iter().find(|r| r.values[0].bg == Int(b));
        row.expect("row present").values[1].clone()
    };
    assert!(w_of(10).is_top() && w_of(10).bg == Int(4));
    assert!(w_of(20).is_point() && w_of(20).bg == Int((1i64 << 62).wrapping_mul(4)));
    assert!(!w_of(30).is_top() && w_of(30).contains(&Int(20)) && !w_of(30).contains(&Int(21)));
}

/// `Int` and `Float` keys past 2⁵³ (where `i64 → f64` rounds) are equal
/// iff they denote the same number, on every path a query can take: the
/// filter over a cross product (optimizer off), the hash join (on), the
/// outer join's and `NOT IN`'s key index, on both engines. `ORDER BY`
/// keeps its structural order (every `Int` before every `Float`).
#[test]
fn int_float_equality_past_2_53_is_exact_on_every_path() {
    use uadb::data::Value;
    const P53: i64 = 1 << 53;
    let session = UaSession::new();
    let f53 = Value::float(P53 as f64);
    for (name, keys) in [
        (
            "a",
            vec![Value::Int(P53 + 1), Value::Int(P53), Value::Int(3)],
        ),
        ("b", vec![f53.clone(), Value::float(3.0), Value::float(3.5)]),
    ] {
        let rows = keys.into_iter().map(|k| Tuple::new(vec![k])).collect();
        session.register_table(name, Table::from_rows(Schema::qualified(name, ["k"]), rows));
    }
    let pair = |i: i64, f: &Value| Tuple::new(vec![Value::Int(i), f.clone()]);
    let int = |i: i64| Tuple::new(vec![Value::Int(i)]);
    let three = Value::float(3.0);
    let cases = [
        (
            "SELECT a.k, b.k FROM a, b WHERE a.k = b.k",
            vec![pair(P53, &f53), pair(3, &three)],
        ),
        (
            "SELECT a.k, b.k FROM a LEFT JOIN b ON a.k = b.k",
            vec![
                pair(P53 + 1, &Value::Null),
                pair(P53, &f53),
                pair(3, &three),
            ],
        ),
        (
            "SELECT a.k FROM a WHERE a.k NOT IN (SELECT b.k FROM b)",
            vec![int(P53 + 1)],
        ),
        (
            "SELECT a.k FROM a WHERE a.k > 9007199254740992.0",
            vec![int(P53 + 1)],
        ),
        ("SELECT k FROM a EXCEPT SELECT k FROM b", vec![int(P53 + 1)]),
        (
            "SELECT max(k) AS hi FROM (SELECT k FROM a UNION ALL SELECT k FROM b) u",
            vec![int(P53 + 1)],
        ),
        (
            "SELECT k FROM (SELECT k FROM b UNION ALL SELECT k FROM a) u ORDER BY k",
            vec![
                int(3),
                int(P53),
                int(P53 + 1),
                Tuple::new(vec![three.clone()]),
                Tuple::new(vec![Value::float(3.5)]),
                Tuple::new(vec![f53.clone()]),
            ],
        ),
    ];
    for (sql, expected) in cases {
        for optimizer in [true, false] {
            for mode in [ExecMode::Row, ExecMode::Vectorized] {
                session.set_optimizer_enabled(optimizer);
                session.set_exec_mode(mode);
                assert_eq!(
                    run(&session, Sem::Det, sql).rows(),
                    expected,
                    "{mode:?} optimizer={optimizer} `{sql}`"
                );
            }
        }
    }
}

/// Pathologically nested SQL is an error naming the limit — not a stack
/// overflow — on every entry point.
#[test]
fn deep_nesting_is_an_error_not_a_crash() {
    const DEPTH: usize = 10_000;
    let session = encoded_r_s(ExecMode::Row);
    let mut subqueries = "SELECT a FROM r".to_string();
    for i in 0..DEPTH {
        subqueries = format!("SELECT a FROM ({subqueries}) x{i}");
    }
    let statements = [
        format!("SELECT {}1{} FROM r", "(".repeat(DEPTH), ")".repeat(DEPTH)),
        format!("SELECT a FROM r WHERE {}a = 1", "NOT ".repeat(DEPTH)),
        format!("SELECT a FROM r WHERE a = 1{}", " AND a = 1".repeat(DEPTH)),
        subqueries,
    ];
    for sql in &statements {
        for sem in [Sem::Det, Sem::Ua, Sem::Au] {
            let err = match sem {
                Sem::Det => session.query_det(sql).map(|_| ()),
                Sem::Ua => session.query_ua(sql).map(|_| ()),
                Sem::Au => session.query_au(sql).map(|_| ()),
            }
            .expect_err("too deep");
            assert!(
                matches!(err, uadb::engine::EngineError::Sql(_)),
                "{sem:?}: {err:?}"
            );
            let limit = uadb::engine::sql::MAX_NESTING_DEPTH.to_string();
            assert!(err.to_string().contains(&limit), "{sem:?}: {err}");
        }
    }
    // The limit leaves ordinary nesting alone.
    let ok = session
        .query_ua("SELECT a FROM (SELECT a FROM r WHERE NOT (a = 2 OR (a + 1) * 2 > 7)) x")
        .expect("shallow nesting");
    assert_eq!(ok.table.len(), 1);
}

/// A Section 9.2 source annotation is encoded on first use and cached in
/// the catalog under a derived name. The cached encoding follows its base
/// table: re-registering the base re-encodes, dropping it drops the
/// encodings — a *certain* label never outlives the rows it was computed
/// from.
#[test]
fn annotated_sources_follow_their_base_table() {
    let table =
        |rows: Vec<Tuple>| Table::from_rows(Schema::qualified("t", ["xid", "aid", "p", "a"]), rows);
    // `(a, certain)` in `a` order, under UA (label) and AU (`mult.lb ≥ 1`).
    let labelled = |session: &UaSession, sem: Sem, sql: &str| -> Vec<(Tuple, bool)> {
        let mut rows = match sem {
            Sem::Ua => session.query_ua(sql).expect("ua").rows_with_certainty(),
            Sem::Au => {
                let rel = session.query_au(sql).expect("au").decode();
                let rows = rel.rows().iter();
                rows.map(|r| (r.bg_tuple(), r.mult.lb >= 1)).collect()
            }
            Sem::Det => unreachable!("det queries take no annotation"),
        };
        rows.sort();
        rows
    };
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        for source in [
            "t IS TI WITH PROBABILITY (p)",
            "t IS X WITH XID (xid) ALTID (aid) PROBABILITY (p)",
        ] {
            let sql = format!("SELECT a FROM {source}");
            let session = UaSession::with_mode(mode);
            session.register_table(
                "t",
                table(vec![
                    tuple![1i64, 1i64, 1.0, 1i64],
                    tuple![2i64, 1i64, 0.9, 2i64],
                ]),
            );
            for sem in [Sem::Ua, Sem::Au] {
                assert_eq!(
                    labelled(&session, sem, &sql),
                    vec![(tuple![1i64], true), (tuple![2i64], false)],
                    "{mode:?} {sem:?} `{sql}`"
                );
            }
            session.register_table(
                "t",
                table(vec![
                    tuple![1i64, 1i64, 1.0, 7i64],
                    tuple![2i64, 1i64, 1.0, 8i64],
                    tuple![3i64, 1i64, 0.7, 9i64],
                ]),
            );
            assert_eq!(
                run(&session, Sem::Det, "SELECT a FROM t").sorted_rows(),
                vec![tuple![7i64], tuple![8i64], tuple![9i64]]
            );
            for sem in [Sem::Ua, Sem::Au] {
                assert_eq!(
                    labelled(&session, sem, &sql),
                    vec![
                        (tuple![7i64], true),
                        (tuple![8i64], true),
                        (tuple![9i64], false)
                    ],
                    "{mode:?} {sem:?} `{sql}` after the base was replaced"
                );
            }
            assert!(session.catalog().drop_table("t"));
            assert_eq!(
                session.catalog().table_names(),
                Vec::<String>::new(),
                "{mode:?} `{sql}`: encodings are dropped with their base"
            );
            for result in [
                session.query_ua(&sql).map(|_| ()),
                session.query_au(&sql).map(|_| ()),
            ] {
                let err = result.expect_err("the base table is gone");
                assert!(
                    matches!(err, uadb::engine::EngineError::UnknownTable(_)),
                    "{mode:?} `{sql}`: {err:?}"
                );
            }
        }
    }
}

/// UA is AU with point attributes (ROADMAP item 5(a)): over `IS TI`
/// tables of non-NULL values both labelings take `p ≥ 1` as certain and
/// `p ≥ 0.5` as the best guess, and σ / π / ⋈ / `UNION ALL` keep every
/// attribute a point. So per result tuple, on both engines, the AU
/// multiplicities' `lb` sum is the UA certain count and their `bg` sum the
/// UA row count.
#[test]
fn ua_is_au_with_point_attributes() {
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    const R: &str = "r IS TI WITH PROBABILITY (p) x";
    const S: &str = "s IS TI WITH PROBABILITY (p) y";
    let queries = [
        format!("SELECT x.a, x.b FROM {R} WHERE x.a >= 2"),
        format!("SELECT x.b FROM {R}"),
        format!("SELECT x.a, y.c FROM {R}, {S} WHERE x.b = y.b"),
        format!("SELECT x.a, y.c FROM {R}, {S} WHERE x.b = y.b AND y.c < 3"),
        format!("SELECT x.a, y.c FROM {R}, {S} WHERE x.a < y.c"),
        format!("SELECT x.a FROM {R} WHERE x.b = 1 UNION ALL SELECT y.c FROM {S}"),
    ];
    let mut seen = (0, 0);
    for seed in 0..4u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let session = UaSession::new();
        for (name, cols) in [("r", ["a", "b", "p"]), ("s", ["b", "c", "p"])] {
            let rows = (0..12)
                .map(|_| {
                    let p = [0.2, 0.5, 0.7, 1.0][rng.gen_range(0..4usize)];
                    tuple![rng.gen_range(0..4i64), rng.gen_range(0..4i64), p]
                })
                .collect();
            session.register_table(name, Table::from_rows(Schema::qualified(name, cols), rows));
        }
        for mode in [ExecMode::Row, ExecMode::Vectorized] {
            session.set_exec_mode(mode);
            for sql in &queries {
                let mut ua: BTreeMap<Tuple, (u64, u64)> = BTreeMap::new();
                let result = session.query_ua(sql).expect("ua");
                for (t, certain) in result.rows_with_certainty() {
                    let entry = ua.entry(t).or_default();
                    entry.0 += u64::from(certain);
                    entry.1 += 1;
                }
                let mut au: BTreeMap<Tuple, (u64, u64)> = BTreeMap::new();
                for row in session.query_au(sql).expect("au").decode().rows() {
                    assert!(row.values.iter().all(|v| v.is_point()), "{sql}: {row:?}");
                    let entry = au.entry(row.bg_tuple()).or_default();
                    entry.0 += row.mult.lb;
                    entry.1 += row.mult.bg;
                }
                au.retain(|_, &mut (_, bg)| bg > 0);
                assert_eq!(au, ua, "seed {seed}, {mode:?}: `{sql}`");
                let (certain, rows) = result.certainty_counts();
                seen = (seen.0 + certain, seen.1 + rows);
            }
        }
    }
    assert!(
        0 < seen.0 && seen.0 < seen.1,
        "certain / all rows: {seen:?}"
    );
}
