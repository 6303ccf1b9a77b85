//! Observability contract tests.
//!
//! The instrumentation layer must be a pure observer: turning stats
//! collection on must not change a single byte of any result, on either
//! engine, with the optimizer on or off, at any thread count. On top of
//! that, `EXPLAIN ANALYZE` must report per-operator rows/time and
//! est-vs-actual cardinalities on BOTH engines (the acceptance shape:
//! a 3-way join + GROUP BY), and the AU vectorized driver — batch-native
//! for every operator — must leave all `au.vec.fallback.*` audit
//! counters pinned at zero.

use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::{ExecMode, Table, UaSession};

/// Deterministic star schema: `orders(ok, ck, total)` ⋈ `cust(ck, dk)` ⋈
/// `dept(dk, region)`, plus a TI-annotated `t(g, v, p)` for the UA/AU
/// paths. Sized so morsel runs at 8 threads split into several tasks.
fn seeded_session() -> UaSession {
    let s = UaSession::new();
    s.register_table(
        "orders",
        Table::from_rows(
            Schema::qualified("orders", ["ok", "ck", "total"]),
            (0..600i64)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int(i),
                        Value::Int((i * 7) % 120),
                        Value::Int((i * 13) % 500),
                    ])
                })
                .collect(),
        ),
    );
    s.register_table(
        "cust",
        Table::from_rows(
            Schema::qualified("cust", ["ck", "dk"]),
            (0..120i64)
                .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 8)]))
                .collect(),
        ),
    );
    s.register_table(
        "dept",
        Table::from_rows(
            Schema::qualified("dept", ["dk", "region"]),
            (0..8i64)
                .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 3)]))
                .collect(),
        ),
    );
    s.register_table(
        "t",
        Table::from_rows(
            Schema::qualified("t", ["g", "v", "p"]),
            (0..200i64)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int(i % 5),
                        Value::Int(i),
                        Value::float(if i % 4 == 0 { 0.5 } else { 1.0 }),
                    ])
                })
                .collect(),
        ),
    );
    s
}

const DET_SQL: &str = "SELECT d.region, count(*) AS n, sum(o.total) AS s \
                       FROM orders o, cust c, dept d \
                       WHERE o.ck = c.ck AND c.dk = d.dk AND o.total >= 100 \
                       GROUP BY d.region";

const UA_SQL: &str = "SELECT x.g, x.v FROM t IS TI WITH PROBABILITY (p) x \
                      WHERE x.v >= 50";

const AU_SQL: &str = "SELECT x.g, count(*) AS n, sum(x.v) AS s \
                      FROM t IS TI WITH PROBABILITY (p) x GROUP BY x.g";

/// Results must be byte-identical with instrumentation on vs off, across
/// {Row, Vectorized} × {optimizer on, off} × {1, 2, 8 threads}, for the
/// deterministic, UA, and AU query paths.
#[test]
fn instrumentation_never_changes_results() {
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        for optimizer in [true, false] {
            for threads in [1usize, 2, 8] {
                let s = seeded_session();
                s.set_exec_mode(mode);
                s.set_optimizer_enabled(optimizer);
                s.set_vec_threads(threads);
                let ctx = format!("mode={mode:?} optimizer={optimizer} threads={threads}");

                s.set_stats_enabled(false);
                let det_off = s.query_det(DET_SQL).expect("det off");
                let ua_off = s.query_ua(UA_SQL).expect("ua off");
                let au_off = s.query_au(AU_SQL).expect("au off");

                s.set_stats_enabled(true);
                let det_on = s.query_det(DET_SQL).expect("det on");
                let ua_on = s.query_ua(UA_SQL).expect("ua on");
                let au_on = s.query_au(AU_SQL).expect("au on");

                assert_eq!(det_off.rows(), det_on.rows(), "det rows differ: {ctx}");
                assert_eq!(
                    det_off.schema(),
                    det_on.schema(),
                    "det schema differs: {ctx}"
                );
                assert_eq!(
                    ua_off.table.rows(),
                    ua_on.table.rows(),
                    "UA rows differ: {ctx}"
                );
                assert_eq!(
                    au_off.table.rows(),
                    au_on.table.rows(),
                    "AU rows differ: {ctx}"
                );

                // And the instrumented run actually produced a stats tree.
                let stats = s.last_query_stats().expect("stats collected");
                assert!(stats.root.rows_out > 0 || stats.root.children.is_empty());
            }
        }
    }
}

/// The acceptance shape: EXPLAIN ANALYZE on a 3-way join + GROUP BY
/// reports per-operator rows, wall time, and est-vs-actual on both
/// engines; the vectorized report includes the morsel-pool line.
#[test]
fn explain_analyze_reports_operators_on_both_engines() {
    let s = seeded_session();

    s.set_exec_mode(ExecMode::Row);
    let row = s.explain_analyze_det(DET_SQL).expect("row explain analyze");
    s.set_exec_mode(ExecMode::Vectorized);
    let vec = s.explain_analyze_det(DET_SQL).expect("vec explain analyze");

    for (engine, text) in [("row", &row), ("vectorized", &vec)] {
        assert!(
            text.contains(&format!(
                "execution (EXPLAIN ANALYZE, engine={engine} semantics=det)"
            )),
            "{engine}: missing execution header:\n{text}"
        );
        for token in ["Aggregate", "HashJoin", "Scan", " rows=", " est=", " time="] {
            assert!(text.contains(token), "{engine}: missing `{token}`:\n{text}");
        }
        // Two joins in the 3-way shape.
        assert!(
            text.matches("HashJoin").count() >= 2,
            "{engine}: expected both joins in the tree:\n{text}"
        );
    }
    assert!(
        vec.contains("morsel pool: workers="),
        "vectorized report must include the pool line:\n{vec}"
    );
    assert!(
        vec.contains(" batches="),
        "vectorized reports batches:\n{vec}"
    );

    // EXPLAIN ANALYZE must not leave stats collection enabled behind.
    assert!(!s.stats_enabled(), "stats flag leaked");
}

/// UA and AU EXPLAIN ANALYZE work end to end as well.
#[test]
fn explain_analyze_covers_ua_and_au_semantics() {
    let s = seeded_session();
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        s.set_exec_mode(mode);
        let ua = s.explain_analyze_ua(UA_SQL).expect("ua explain analyze");
        assert!(
            ua.contains("semantics=ua") && ua.contains(" rows="),
            "{mode:?}: UA report malformed:\n{ua}"
        );
        let au = s.explain_analyze_au(AU_SQL).expect("au explain analyze");
        assert!(
            au.contains("semantics=au") && au.contains(" rows="),
            "{mode:?}: AU report malformed:\n{au}"
        );
    }
}

/// Every AU operator is batch-native now — the vectorized driver no
/// longer routes anything through the row interpreter's
/// materialize-and-dispatch path, so ALL `au.vec.fallback.*` counters
/// (including `distinct`, the last holdout) stay pinned at zero across a
/// sweep of DISTINCT, aggregation, joins and set operations.
#[test]
fn au_vectorized_fallback_counters_stay_zero() {
    let s = seeded_session();
    s.set_exec_mode(ExecMode::Vectorized);
    let reg = ua_obs::global();
    const COUNTERS: [&str; 8] = [
        "au.vec.fallback.join",
        "au.vec.fallback.hash_join",
        "au.vec.fallback.union_all",
        "au.vec.fallback.distinct",
        "au.vec.fallback.aggregate",
        "au.vec.fallback.sort",
        "au.vec.fallback.limit",
        "au.vec.fallback.top_k",
    ];
    let before: Vec<u64> = COUNTERS.iter().map(|c| reg.counter(c).get()).collect();
    let sweep = [
        "SELECT DISTINCT x.g FROM t IS TI WITH PROBABILITY (p) x",
        AU_SQL,
        "SELECT x.v AS a, y.v AS b FROM t IS TI WITH PROBABILITY (p) x, \
         t IS TI WITH PROBABILITY (p) y WHERE x.g = y.g ORDER BY x.v, y.v LIMIT 10",
        "SELECT x.v AS a, y.v AS b FROM t IS TI WITH PROBABILITY (p) x, \
         t IS TI WITH PROBABILITY (p) y WHERE x.v < y.g",
        "SELECT x.g FROM t IS TI WITH PROBABILITY (p) x \
         UNION ALL SELECT x.g FROM t IS TI WITH PROBABILITY (p) x",
    ];
    for sql in sweep {
        s.query_au(sql)
            .unwrap_or_else(|e| panic!("au vec `{sql}`: {e}"));
    }
    for (name, b) in COUNTERS.iter().zip(&before) {
        assert_eq!(
            reg.counter(name).get(),
            *b,
            "`{name}` must stay pinned at zero: every AU operator is \
             batch-native"
        );
    }
}

/// AU `−`, `⟕` and the keyless `⋈` select straight off their inputs'
/// chunks on the vectorized engine: no node of an `EXCEPT`, `EXCEPT ALL`,
/// `LEFT` / `RIGHT JOIN`, `NOT IN`, `NOT EXISTS` or keyless-join query
/// carries a `relation_rows` extra (rows converted into a relation), and
/// the anti-join filter `NOT IN` / `NOT EXISTS` lower to runs in the σ
/// kernel (`rowwise_rows = 0`).
#[test]
fn au_negation_no_longer_crosses_the_relation_boundary() {
    let s = seeded_session();
    s.set_exec_mode(ExecMode::Vectorized);
    s.set_stats_enabled(true);
    let x = "t IS TI WITH PROBABILITY (p) x";
    let y = "t IS TI WITH PROBABILITY (p) y";
    let sweep = [
        format!("SELECT x.g FROM {x} EXCEPT SELECT y.g FROM {y} WHERE y.v > 197"),
        format!("SELECT x.g FROM {x} EXCEPT ALL SELECT y.g FROM {y} WHERE y.v > 100"),
        format!("SELECT x.v, y.v AS w FROM {x} LEFT JOIN {y} ON x.v = y.g"),
        format!("SELECT x.v, y.v AS w FROM {x} RIGHT JOIN {y} ON x.v = y.g"),
        format!("SELECT x.v FROM {x} WHERE x.g NOT IN (SELECT y.g FROM {y} WHERE y.v > 197)"),
        format!("SELECT x.v FROM {x} WHERE NOT EXISTS (SELECT y.g FROM {y} WHERE y.v > 500)"),
    ];
    for sql in &sweep {
        let result = s.query_au(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        assert!(!result.table.is_empty(), "`{sql}` must return rows");
        let stats = s.last_query_stats().expect("stats collected");
        let mut negation = 0;
        stats.root.walk(&mut |node| {
            let extra = |key: &str| node.extra.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
            assert_eq!(
                extra("relation_rows"),
                None,
                "`{sql}`: {} crossed",
                node.name
            );
            match node.name.as_str() {
                "Except" | "OuterJoin" => negation += 1,
                "Filter" => assert_eq!(extra("rowwise_rows"), Some(0), "`{sql}`: row-wise σ"),
                _ => {}
            }
        });
        assert_eq!(negation, 1, "`{sql}` must run one `−` or `⟕`");
    }

    let sql = format!("SELECT x.v, y.v AS w FROM {x}, {y} WHERE x.v < y.g");
    let result = s.query_au(&sql).expect("au keyless join");
    assert!(!result.table.is_empty(), "`{sql}` must return rows");
    let stats = s.last_query_stats().expect("stats collected");
    let mut joins = 0;
    stats.root.walk(&mut |node| {
        assert!(
            node.extra.iter().all(|(k, _)| k != "relation_rows"),
            "`{sql}`: {} crossed",
            node.name
        );
        joins += usize::from(node.name == "Join");
    });
    assert_eq!(joins, 1, "`{sql}` must run one keyless ⋈");
}

/// AU γ reports `listed_rows` on both engines — how many possible-member
/// visits it made from explicit lists, outside its passes over the input
/// — and only when there were some. A point-key `GROUP BY` over uncertain
/// arguments folds every group in the passes; a key that may move between
/// groups lists the groups it touches. The goldens' point-key γ shows no
/// such extra.
#[test]
fn au_aggregate_reports_listed_rows_only_for_ranged_keys() {
    // Blocks of two alternatives each: in `same` they share the group key
    // and differ in `v`, in `moved` the second moves to the next group.
    let x_table = |name: &str, moved: bool| {
        let rows = (0..40i64).flat_map(|i| {
            let g = i % 4;
            [
                Tuple::new(vec![
                    Value::Int(i),
                    Value::Int(0),
                    Value::float(0.6),
                    Value::Int(g),
                    Value::Int(i),
                ]),
                Tuple::new(vec![
                    Value::Int(i),
                    Value::Int(1),
                    Value::float(0.4),
                    Value::Int(if moved { (g + 1) % 4 } else { g }),
                    Value::Int(i + 100),
                ]),
            ]
        });
        Table::from_rows(
            Schema::qualified(name, ["xid", "aid", "p", "g", "v"]),
            rows.collect(),
        )
    };
    let listed_rows = |table: &str| {
        let sql = format!(
            "SELECT y.g, count(*) AS n, sum(y.v) AS s FROM \
             {table} IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) y GROUP BY y.g"
        );
        let per_engine: Vec<Option<u64>> = [ExecMode::Row, ExecMode::Vectorized]
            .into_iter()
            .map(|mode| {
                let s = UaSession::with_mode(mode);
                s.register_table("same", x_table("same", false));
                s.register_table("moved", x_table("moved", true));
                s.set_stats_enabled(true);
                s.query_au(&sql)
                    .unwrap_or_else(|e| panic!("{mode:?} `{sql}`: {e}"));
                let stats = s.last_query_stats().expect("stats collected");
                let mut listed = None;
                let mut aggregates = 0;
                stats.root.walk(&mut |node| {
                    if node.name == "Aggregate" {
                        aggregates += 1;
                        listed = node
                            .extra
                            .iter()
                            .find(|(k, _)| k == "listed_rows")
                            .map(|&(_, v)| v);
                    } else {
                        assert!(
                            node.extra.iter().all(|(k, _)| k != "listed_rows"),
                            "{}",
                            node.name
                        );
                    }
                });
                assert_eq!(aggregates, 1, "`{sql}`");
                listed
            })
            .collect();
        assert_eq!(per_engine[0], per_engine[1], "engines disagree on `{sql}`");
        per_engine[0]
    };
    assert_eq!(listed_rows("same"), None);
    // Every key hull is `[g, g + 1]` or wider: each group lists the rows
    // its hull meets.
    assert!(listed_rows("moved").is_some_and(|n| n > 0));
}

/// One collection path, one set of numbers: for an AU join + filter +
/// `GROUP BY` the vectorized stats tree equals the row interpreter's node
/// for node — shape, child order, row counts, the bound-width profile and
/// the logical bytes — and so does the query's memory high-water mark
/// (each AU operator's output is charged and released with its span, so
/// the peak is the largest single operator on both engines). The probe
/// table spans three morsels at four threads, so the σ / alias / π
/// figures are per-morsel tallies summed in batch order.
#[test]
fn au_vectorized_stats_tree_equals_the_row_interpreters() {
    let s = seeded_session();
    s.register_table(
        "big",
        Table::from_rows(
            Schema::qualified("big", ["g", "k", "v", "p"]),
            (0..2500i64)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int(i % 7),
                        Value::Int(i % 200),
                        Value::Int((i * 13) % 400),
                        Value::float(if i % 3 == 0 { 0.5 } else { 1.0 }),
                    ])
                })
                .collect(),
        ),
    );
    let sql = "SELECT b.g, count(*) AS n, sum(x.v) AS s \
               FROM big IS TI WITH PROBABILITY (p) b, t IS TI WITH PROBABILITY (p) x \
               WHERE b.k = x.v AND b.v >= 100 GROUP BY b.g";
    s.set_stats_enabled(true);
    s.set_vec_threads(4);
    let stats_of = |mode| {
        s.set_exec_mode(mode);
        s.query_au(sql).expect("au query");
        s.last_query_stats().expect("stats collected")
    };
    let (row, vec) = (stats_of(ExecMode::Row), stats_of(ExecMode::Vectorized));

    fn assert_same(row: &ua_obs::OperatorStats, vec: &ua_obs::OperatorStats, path: &str) {
        let path = format!("{path}/{}", row.name);
        assert_eq!(row.name, vec.name, "{path}: operator");
        assert_eq!(row.rows_out, vec.rows_out, "{path}: rows_out");
        for key in [
            "certain_rows",
            "top_attrs_permille",
            "rel_width_permille",
            "mult_spread",
            "mem_bytes",
        ] {
            let extra =
                |n: &ua_obs::OperatorStats| n.extra.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
            assert!(extra(row).is_some(), "{path}: row tree lacks `{key}`");
            assert_eq!(extra(row), extra(vec), "{path}: {key}");
        }
        assert_eq!(row.children.len(), vec.children.len(), "{path}: children");
        for (r, v) in row.children.iter().zip(&vec.children) {
            assert_same(r, v, &path);
        }
    }
    assert_same(&row.root, &vec.root, "");
    let mut names = Vec::new();
    vec.root.walk(&mut |n| names.push(n.name.as_str()));
    for op in ["Aggregate", "HashJoin", "Filter", "Scan"] {
        assert!(
            names.contains(&op),
            "the plan must exercise {op}: {names:?}"
        );
    }
    assert!(row.peak_mem_bytes > 0);
    assert_eq!(row.peak_mem_bytes, vec.peak_mem_bytes, "query memory peak");
}

/// The stats-tree contract through a pipelined AU hash join: two stacked
/// hash joins probe one morsel pipeline, a σ directly below each probe
/// side hands the probe its selection, and the vectorized tree still equals the row
/// interpreter's node for node — one `Filter` span and one `HashJoin` span
/// per plan operator, a join's children in plan order (left, right)
/// whichever side builds, every figure of the per-morsel tallies summed —
/// and so does the query's memory peak, under each choice of build sides.
#[test]
fn au_pipelined_hash_join_stats_trees_equal_the_row_interpreters() {
    use ua_engine::plan::Plan;
    use ua_engine::{Catalog, ExecOptions, Semantics};
    use ua_ranges::{AuRelation, AuTuple, Bound, MultBound, RangeValue};
    let int = |i: i64| RangeValue::point(Value::Int(i));
    let ranged = |i: i64| {
        RangeValue::new(
            Bound::Val(Value::Int(i - 1)),
            Value::Int(i),
            Bound::Val(Value::Int(i + 2)),
        )
    };
    let catalog = Catalog::new();
    for (name, cols, rows) in [
        ("a", ["k", "g", "v"], 900i64),
        ("b", ["k", "w", "x"], 300),
        ("c", ["g", "z", "y"], 20),
    ] {
        let mut rel = AuRelation::new(Schema::qualified(name, cols));
        for i in 0..rows {
            let key = if i % 7 == 3 {
                ranged(i % 60)
            } else {
                int(i % 60)
            };
            rel.push(AuTuple {
                values: vec![key, int(i % 10), ranged(i % 13)],
                mult: if i % 5 == 0 {
                    MultBound::new(0, 1, 1)
                } else {
                    MultBound::certain(1)
                },
            });
        }
        catalog.register(name, ua_engine::au_table(&rel));
    }
    let col = |name: &str| ua_data::Expr::named(name);
    // σ over table `t` on its third column `c`.
    let sigma = |t: &str, c: &str, bound: i64| {
        Box::new(Plan::Filter {
            input: Box::new(Plan::Scan(t.into())),
            predicate: col(&format!("{t}.{c}")).ge(ua_data::Expr::lit(bound)),
        })
    };
    let opts = ExecOptions {
        threads: 4,
        batch_rows: 64,
        collect_stats: true,
        collect_trace: false,
    };
    for (b1, b2) in [(true, false), (false, true), (false, false), (true, true)] {
        let lower = Plan::HashJoin {
            left: sigma("a", "v", 3),
            right: sigma("b", "x", 2),
            keys: vec![(col("a.k"), col("b.k"))],
            residual: None,
            build_left: b1,
        };
        let plan = Plan::Map {
            input: Box::new(Plan::HashJoin {
                left: Box::new(lower),
                right: sigma("c", "y", 1),
                keys: vec![(col("a.g"), col("c.g"))],
                residual: Some(col("a.v").lt(col("c.z").add(ua_data::Expr::lit(8i64)))),
                build_left: b2,
            }),
            columns: vec![
                ua_data::algebra::ProjColumn::expr(col("a.k"), "k"),
                ua_data::algebra::ProjColumn::expr(col("b.w").add(col("c.z")), "s"),
            ],
        };
        let (row_result, row) = ua_engine::execute_row(&plan, &catalog, Semantics::Au, true);
        let (vec_result, vec) = ua_vecexec::execute(&plan, &catalog, opts, Semantics::Au);
        let context = format!("build_left=({b1}, {b2})");
        let (row, vec) = (row.expect("row stats"), vec.expect("vec stats"));
        assert_eq!(
            row_result.expect("au row"),
            vec_result.expect("au vec"),
            "{context}"
        );
        assert_same_tree(&row.root, &vec.root, &context);
        let mut shape = Vec::new();
        vec.root.walk(&mut |n| shape.push(n.name.clone()));
        assert_eq!(
            shape,
            ["Map", "HashJoin", "HashJoin", "Filter", "Scan", "Filter", "Scan", "Filter", "Scan"],
            "{context}"
        );
        assert!(row.peak_mem_bytes > 0);
        assert_eq!(
            row.peak_mem_bytes, vec.peak_mem_bytes,
            "{context}: query memory peak"
        );
    }
}

/// The det / UA twin of the AU stats-tree contract: every pipeline stage
/// runs one plan operator and reports one span, a σ's survivors ride to the
/// next operator as a selection, and a join lists its children in plan
/// order whichever side builds — so the vectorized tree equals the row
/// interpreter's node for node (operator, detail, `rows_out`, UA
/// `certain_rows`, child order) on σ→π, σ→alias→π, σ→alias→probe under
/// each build side, two stacked hash joins and a keyless θ-join with a σ
/// on its probe side, at threads {1, 4} × batch rows {64, default}.
#[test]
fn det_and_ua_vectorized_stats_trees_equal_the_row_interpreters() {
    use ua_data::algebra::ProjColumn;
    use ua_data::Expr;
    use ua_engine::plan::Plan;
    use ua_engine::{rewrite_ua_plan, Catalog, ExecOptions, Semantics};
    let col = |name: &str| Expr::named(name);
    let scan = |t: &str| Box::new(Plan::Scan(t.into()));
    // σ over table `t` on its third column `c`.
    let sigma = |t: &str, c: &str, bound: i64| {
        Box::new(Plan::Filter {
            input: scan(t),
            predicate: col(&format!("{t}.{c}")).ge(Expr::lit(bound)),
        })
    };
    let alias = |input: Box<Plan>, name: &str| {
        Box::new(Plan::Alias {
            input,
            name: name.into(),
        })
    };
    let hash = |left, right, (l, r): (&str, &str), build_left| Plan::HashJoin {
        left,
        right,
        keys: vec![(col(l), col(r))],
        residual: None,
        build_left,
    };
    let mut plans: Vec<(String, Plan)> = vec![
        (
            "σ→π".into(),
            Plan::Map {
                input: sigma("a", "v", 3),
                columns: vec![
                    ProjColumn::expr(col("a.k"), "k"),
                    ProjColumn::expr(col("a.v").add(col("a.g")), "s"),
                ],
            },
        ),
        (
            "σ→alias→π".into(),
            Plan::Map {
                input: alias(sigma("a", "v", 3), "x"),
                columns: vec![
                    ProjColumn::expr(col("x.k"), "k"),
                    ProjColumn::expr(col("x.v").mul(Expr::lit(2i64)), "d"),
                ],
            },
        ),
        (
            "keyless θ-join, σ on the probe side".into(),
            Plan::Join {
                left: sigma("a", "v", 9),
                right: scan("c"),
                predicate: Some(col("a.v").lt(col("c.y"))),
            },
        ),
    ];
    for build_left in [false, true] {
        let probe = || alias(sigma("a", "v", 3), "x");
        let (left, right, keys) = if build_left {
            (scan("b"), probe(), ("b.k", "x.k"))
        } else {
            (probe(), scan("b"), ("x.k", "b.k"))
        };
        plans.push((
            format!("σ→alias→probe build_left={build_left}"),
            hash(left, right, keys, build_left),
        ));
    }
    for (b1, b2) in [(false, false), (false, true), (true, false), (true, true)] {
        let lower = hash(sigma("a", "v", 3), sigma("b", "x", 2), ("a.k", "b.k"), b1);
        plans.push((
            format!("stacked joins build_left=({b1}, {b2})"),
            hash(Box::new(lower), sigma("c", "y", 1), ("a.g", "c.g"), b2),
        ));
    }
    for semantics in [Semantics::Det, Semantics::Ua] {
        let ua = semantics == Semantics::Ua;
        let catalog = Catalog::new();
        for (name, cols, rows) in [
            ("a", ["k", "g", "v"], 900i64),
            ("b", ["k", "w", "x"], 300),
            ("c", ["g", "z", "y"], 20),
        ] {
            let mut schema = Schema::qualified(name, cols);
            if ua {
                schema = schema.with_column("ua_c");
            }
            let rows = (0..rows)
                .map(|i| {
                    let mut row = vec![Value::Int(i % 60), Value::Int(i % 10), Value::Int(i % 13)];
                    if ua {
                        row.push(Value::Int(i64::from(i % 4 != 0)));
                    }
                    Tuple::new(row)
                })
                .collect();
            catalog.register(name, Table::from_rows(schema, rows));
        }
        for (name, plan) in &plans {
            let plan = &if ua {
                rewrite_ua_plan(plan, &catalog).expect("in the fragment")
            } else {
                plan.clone()
            };
            let (row_result, row) = ua_engine::execute_row(plan, &catalog, semantics, true);
            let row_result = row_result.unwrap_or_else(|e| panic!("`{name}` {semantics:?}: {e:?}"));
            let row = row.expect("row stats");
            for (threads, batch_rows) in [(1, 64), (1, 0), (4, 64), (4, 0)] {
                let opts = ExecOptions {
                    threads,
                    batch_rows,
                    collect_stats: true,
                    collect_trace: false,
                };
                let (vec_result, vec) = ua_vecexec::execute(plan, &catalog, opts, semantics);
                let context =
                    format!("`{name}` {semantics:?} threads={threads} batch_rows={batch_rows}");
                assert_eq!(row_result, vec_result.expect("vec run"), "{context}");
                let vec = vec.expect("vec stats");
                assert_same_det_tree(&row.root, &vec.root, &context);
            }
        }
    }
}

/// One det / UA span and its subtree against the row interpreter's:
/// operator, detail, rows, the UA certain-row count and the children, in
/// order.
fn assert_same_det_tree(row: &ua_obs::OperatorStats, vec: &ua_obs::OperatorStats, path: &str) {
    let path = format!("{path}/{}", row.name);
    assert_eq!(row.name, vec.name, "{path}: operator");
    assert_eq!(row.detail, vec.detail, "{path}: detail");
    assert_eq!(row.rows_out, vec.rows_out, "{path}: rows_out");
    let certain = |n: &ua_obs::OperatorStats| {
        n.extra
            .iter()
            .find(|(k, _)| k == "certain_rows")
            .map(|&(_, v)| v)
    };
    assert_eq!(certain(row), certain(vec), "{path}: certain_rows");
    assert_eq!(row.children.len(), vec.children.len(), "{path}: children");
    for (r, v) in row.children.iter().zip(&vec.children) {
        assert_same_det_tree(r, v, &path);
    }
}

/// One AU span and its subtree against the row interpreter's: operator,
/// rows, the bound-width profile, the logical bytes and the children, in
/// order.
fn assert_same_tree(row: &ua_obs::OperatorStats, vec: &ua_obs::OperatorStats, path: &str) {
    let path = format!("{path}/{}", row.name);
    assert_eq!(row.name, vec.name, "{path}: operator");
    assert_eq!(row.rows_out, vec.rows_out, "{path}: rows_out");
    for key in [
        "certain_rows",
        "top_attrs_permille",
        "rel_width_permille",
        "mult_spread",
        "mem_bytes",
    ] {
        let extra =
            |n: &ua_obs::OperatorStats| n.extra.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
        assert!(extra(row).is_some(), "{path}: row tree lacks `{key}`");
        assert_eq!(extra(row), extra(vec), "{path}: {key}");
    }
    assert_eq!(row.children.len(), vec.children.len(), "{path}: children");
    for (r, v) in row.children.iter().zip(&vec.children) {
        assert_same_tree(r, v, &path);
    }
}

/// The `planner.join.misestimated` regression: a join above an aggregate
/// subquery must compare its estimate against the aggregate's
/// *post-grouping* cardinality (group-key ndvs), not the pre-grouping
/// input rows — on AU trees the inherited pass-through estimate used to
/// trip the misestimate counter on correctly planned queries.
#[test]
fn aggregate_estimates_are_post_grouping() {
    let s = seeded_session();
    let sub_join = "SELECT a.g, x.v FROM \
                    (SELECT y.g AS g, count(*) AS n FROM t IS TI WITH PROBABILITY (p) y \
                     GROUP BY y.g) a, \
                    t IS TI WITH PROBABILITY (p) x WHERE a.g = x.g";
    let reg = ua_obs::global();
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        s.set_exec_mode(mode);
        let mis_before = reg.counter("planner.join.misestimated").get();
        let report = s.explain_analyze_au(sub_join).expect("au explain analyze");
        assert_eq!(
            reg.counter("planner.join.misestimated").get(),
            mis_before,
            "{mode:?}: a correctly planned AU join over an aggregate \
             subquery must not count as misestimated:\n{report}"
        );
        // The aggregate node's estimate is the group count (5 groups),
        // not the 200-row pre-grouping input.
        assert!(
            report.contains("Aggregate") && report.contains("est=5"),
            "{mode:?}: aggregate node must carry the post-grouping \
             estimate:\n{report}"
        );
    }
}

/// The `planner.join.misestimated` regression, DISTINCT edition: a join
/// above a DISTINCT subquery must compare its estimate against the
/// *post-dedup* cardinality (the product of the subquery's column ndvs),
/// not the pre-dedup input rows. `cust` has 120 rows but only 8 distinct
/// `dk` values — the pass-through estimate used to overshoot the join by
/// 15× and trip the misestimate counter on a correctly planned query.
#[test]
fn distinct_estimates_are_post_dedup() {
    let s = seeded_session();
    let sub_join = "SELECT a.g, d.region FROM \
                    (SELECT DISTINCT c.dk AS g FROM cust c) a, \
                    dept d WHERE a.g = d.dk";
    let reg = ua_obs::global();
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        s.set_exec_mode(mode);
        let mis_before = reg.counter("planner.join.misestimated").get();
        let report = s
            .explain_analyze_det(sub_join)
            .expect("det explain analyze");
        assert_eq!(
            reg.counter("planner.join.misestimated").get(),
            mis_before,
            "{mode:?}: a correctly planned join over a DISTINCT subquery \
             must not count as misestimated:\n{report}"
        );
        assert!(
            report.contains("Distinct") && report.contains("est=8"),
            "{mode:?}: the Distinct node must carry the post-dedup \
             estimate:\n{report}"
        );
    }
}

/// Join misestimation feedback: executing with stats on records observed
/// joins in the planner feedback counters.
#[test]
fn planner_feedback_counters_observe_joins() {
    let s = seeded_session();
    s.set_stats_enabled(true);
    let reg = ua_obs::global();
    let before = reg.counter("planner.join.observed").get();
    s.query_det(DET_SQL).expect("det");
    let after = reg.counter("planner.join.observed").get();
    assert!(
        after >= before + 2,
        "a 3-way join must record >= 2 observed joins (before={before}, after={after})"
    );
}

/// Det vectorized γ and δ group on the calling thread: with stats on, at
/// threads 4, over a source of 10 batches, the pool runs only the
/// morsels that evaluate γ's key and argument columns — no build task.
#[test]
fn det_grouping_runs_no_build_tasks_on_the_pool() {
    use ua_data::algebra::ProjColumn;
    use ua_data::Expr;
    use ua_engine::plan::{AggExpr, AggFunc, Plan};
    use ua_engine::{Catalog, ExecOptions, Semantics};
    let catalog = Catalog::new();
    catalog.register(
        "orders",
        Table::from_rows(
            Schema::qualified("orders", ["ok", "ck", "total"]),
            (0..640i64)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int(i),
                        Value::Int((i * 7) % 120),
                        Value::Int((i * 13) % 500),
                    ])
                })
                .collect(),
        ),
    );
    let scan = || Box::new(Plan::Scan("orders".into()));
    let group_by = Plan::Aggregate {
        input: scan(),
        group_by: vec![ProjColumn::named("ck")],
        aggregates: vec![AggExpr {
            func: AggFunc::Sum,
            arg: Some(Expr::named("total")),
            name: "s".into(),
        }],
    };
    let distinct = Plan::Distinct {
        input: Box::new(Plan::Map {
            input: scan(),
            columns: vec![ProjColumn::named("ck")],
        }),
    };
    let opts = ExecOptions {
        threads: 4,
        batch_rows: 64,
        collect_stats: true,
        collect_trace: false,
    };
    for (name, plan) in [("GROUP BY", group_by), ("DISTINCT", distinct)] {
        let (result, stats) = ua_vecexec::execute(&plan, &catalog, opts, Semantics::Det);
        assert_eq!(result.expect(name).len(), 120, "{name}");
        let pool = stats.expect("stats").pool.expect("pool stats");
        assert_eq!(pool.workers, 4, "{name}");
        assert_eq!(pool.build_tasks, 0, "{name}: {pool:?}");
    }
}

/// AU `−`, `⟕` and the keyless `⋈` report `rowwise_pairs` on the
/// vectorized engine: the candidate pairs their shared selection refined
/// through the range rule instead of settling them as bucket hits. Over
/// point keys every `−` / `⟕` candidate is a bucket hit (0); a ranged key
/// makes its pairs refine; a keyless `⋈` refines every pair. The figure is
/// the same at every thread count and batch size.
#[test]
fn au_negation_and_keyless_join_report_refined_pairs() {
    use ua_engine::plan::{OuterKind, Plan};
    use ua_engine::{Catalog, ExecOptions, Semantics};
    use ua_ranges::{AuRelation, AuTuple, Bound, MultBound, RangeValue};
    let side = |name: &str, ranged: bool| {
        let mut rel = AuRelation::new(Schema::qualified(name, ["k"]));
        for i in 0..12i64 {
            let k = if ranged && i % 4 == 0 {
                RangeValue::new(
                    Bound::Val(Value::Int(i % 5)),
                    Value::Int(i % 5),
                    Bound::Val(Value::Int(i % 5 + 1)),
                )
            } else {
                RangeValue::point(Value::Int(i % 5))
            };
            rel.push(AuTuple {
                values: vec![k],
                mult: MultBound::certain(1),
            });
        }
        rel
    };
    let scan = |t: &str| Box::new(Plan::Scan(t.into()));
    let col = ua_data::Expr::named;
    let except = |all| Plan::Except {
        left: scan("l"),
        right: scan("r"),
        all,
    };
    let plans = [
        ("Except", except(false)),
        ("Except", except(true)),
        (
            "OuterJoin",
            Plan::OuterJoin {
                left: scan("l"),
                right: scan("r"),
                predicate: Some(col("l.k").eq(col("r.k"))),
                kind: OuterKind::Left,
            },
        ),
        (
            "Join",
            Plan::Join {
                left: scan("l"),
                right: scan("r"),
                predicate: Some(col("l.k").lt(col("r.k"))),
            },
        ),
    ];
    for ranged in [false, true] {
        let catalog = Catalog::new();
        catalog.register("l", ua_engine::au_table(&side("l", ranged)));
        catalog.register("r", ua_engine::au_table(&side("r", ranged)));
        for (name, plan) in &plans {
            let mut seen = Vec::new();
            for (threads, batch_rows) in [(1, 1024), (2, 5), (4, 1)] {
                let opts = ExecOptions {
                    threads,
                    batch_rows,
                    collect_stats: true,
                    collect_trace: false,
                };
                let (result, stats) = ua_vecexec::execute(plan, &catalog, opts, Semantics::Au);
                result.expect("au vec");
                let root = stats.expect("stats on").root;
                assert_eq!(root.name, *name);
                let pairs = root.extra.iter().find(|(k, _)| k == "rowwise_pairs");
                seen.push(pairs.map(|&(_, v)| v).expect("reported"));
            }
            let context = format!("{name} ranged={ranged}: {seen:?}");
            assert!(seen.iter().all(|&s| s == seen[0]), "{context}");
            match (*name, ranged) {
                ("Join", _) => assert_eq!(seen[0], 12 * 12, "{context}"),
                (_, false) => assert_eq!(seen[0], 0, "{context}"),
                (_, true) => assert!(seen[0] > 0, "{context}"),
            }
        }
    }
}
