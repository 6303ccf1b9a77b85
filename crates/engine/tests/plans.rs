//! Golden `EXPLAIN`-style plan snapshots for the optimizer pipeline.
//!
//! These assert the exact physical plans (via `Plan`'s `Display`) that the
//! optimizer produces for the shapes the join-planning pass exists for:
//! comma-joins become `HashJoin`s, single-side selections sink below the
//! join, pushdown composes through stacked projections, and the build side
//! follows catalog cardinalities.

use ua_data::algebra::ProjColumn;
use ua_data::expr::Expr;
use ua_data::schema::Schema;
use ua_data::tuple;
use ua_engine::plan::Plan;
use ua_engine::sql::planner::RejectAnnotations;
use ua_engine::{optimize, parse, plan_query, push_filters, Catalog, Table, UaSession};

/// `emp` (4 rows) and `dept` (2 rows): the hash build side must be `dept`.
fn catalog() -> Catalog {
    let c = Catalog::new();
    c.register(
        "emp",
        Table::from_rows(
            Schema::qualified("emp", ["name", "dept", "salary"]),
            vec![
                tuple!["ann", "eng", 100i64],
                tuple!["bob", "eng", 80i64],
                tuple!["cat", "ops", 60i64],
                tuple!["dan", "ops", 60i64],
            ],
        ),
    );
    c.register(
        "dept",
        Table::from_rows(
            Schema::qualified("dept", ["name", "city"]),
            vec![tuple!["eng", "nyc"], tuple!["ops", "chi"]],
        ),
    );
    c
}

fn optimized_plan(sql: &str) -> String {
    let c = catalog();
    let q = parse(sql).unwrap();
    let plan = plan_query(&q, &c, &RejectAnnotations).unwrap();
    format!("{}", optimize(plan, &c))
}

#[test]
fn comma_join_plans_to_hash_join() {
    assert_eq!(
        optimized_plan("SELECT e.name, d.city FROM emp e, dept d WHERE e.dept = d.name"),
        "Map[e.name→name, d.city→city](HashJoin[e.dept=d.name; build=right](\
         Alias[e](Scan(emp)), Alias[d](Scan(dept))))"
    );
}

#[test]
fn single_side_conjuncts_sink_below_the_hash_join() {
    // The alias-qualified conjuncts are requalified through the Alias
    // operators (`e.salary` → `salary`), landing directly on the scans.
    assert_eq!(
        optimized_plan(
            "SELECT e.name, d.city FROM emp e, dept d \
             WHERE e.dept = d.name AND e.salary >= 80 AND d.city = 'nyc'"
        ),
        "Map[e.name→name, d.city→city](HashJoin[e.dept=d.name; build=right](\
         Alias[e](Filter[(salary >= 80)](Scan(emp))), \
         Alias[d](Filter[(city = 'nyc')](Scan(dept)))))"
    );
}

#[test]
fn join_on_also_plans_to_hash_join_with_residual() {
    assert_eq!(
        optimized_plan(
            "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name AND e.salary < d.city"
        ),
        "Map[e.name→name](HashJoin[e.dept=d.name; σ[(e.salary < d.city)]; build=right](\
         Alias[e](Scan(emp)), Alias[d](Scan(dept))))"
    );
}

#[test]
fn build_side_follows_catalog_cardinalities() {
    // Flipping the FROM order flips the probe side; the build side stays on
    // the smaller table (`dept`).
    assert_eq!(
        optimized_plan("SELECT d.city FROM dept d, emp e WHERE e.dept = d.name"),
        "Map[d.city→city](HashJoin[d.name=e.dept; build=left](\
         Alias[d](Scan(dept)), Alias[e](Scan(emp))))"
    );
}

#[test]
fn order_by_limit_fuses_to_topk() {
    // `Limit(Sort(..))` fuses into the bounded-heap TopK operator; a bare
    // ORDER BY (no LIMIT) stays a full Sort, and a bare LIMIT stays Limit.
    assert_eq!(
        optimized_plan("SELECT name FROM emp ORDER BY salary DESC LIMIT 2"),
        "TopK[1 keys; 2](Map[name→name](Scan(emp)))"
    );
    assert_eq!(
        optimized_plan("SELECT name FROM emp ORDER BY salary"),
        "Sort[1](Map[name→name](Scan(emp)))"
    );
    assert_eq!(
        optimized_plan("SELECT name FROM emp LIMIT 2"),
        "Limit[2](Map[name→name](Scan(emp)))"
    );
}

#[test]
fn stacked_limits_fold_into_one_topk() {
    use ua_engine::plan::SortOrder;
    let sorted = Plan::Sort {
        input: Box::new(Plan::Scan("emp".into())),
        keys: vec![(Expr::named("salary"), SortOrder::Asc)],
    };
    let stacked = Plan::Limit {
        input: Box::new(Plan::Limit {
            input: Box::new(sorted),
            limit: 7,
        }),
        limit: 3,
    };
    assert_eq!(
        format!("{}", ua_engine::fuse_topk(stacked)),
        "TopK[1 keys; 3](Scan(emp))"
    );
}

#[test]
fn theta_only_comma_join_keeps_a_theta_join() {
    assert_eq!(
        optimized_plan("SELECT e.name FROM emp e, dept d WHERE e.dept < d.name"),
        "Map[e.name→name](Join[(e.dept < d.name)](Alias[e](Scan(emp)), Alias[d](Scan(dept))))"
    );
}

#[test]
fn pushdown_composes_through_stacked_projections() {
    // Filter over two stacked Maps: the predicate substitutes through both
    // and lands on the scan.
    let plan = Plan::Filter {
        input: Box::new(Plan::Map {
            input: Box::new(Plan::Map {
                input: Box::new(Plan::Scan("emp".into())),
                columns: vec![ProjColumn::named("name"), ProjColumn::named("salary")],
            }),
            columns: vec![ProjColumn::named("salary")],
        }),
        predicate: Expr::named("salary").lt(Expr::lit(90i64)),
    };
    assert_eq!(
        format!("{}", push_filters(plan, &catalog())),
        "Map[salary→salary](Map[name→name, salary→salary](\
         Filter[(salary < 90)](Scan(emp))))"
    );
}

#[test]
fn alias_qualified_predicates_requalify_through_the_alias() {
    // A name-based predicate qualified by the subquery alias is requalified
    // against the inner schema (`q.salary` → `salary`), sinks through the
    // Alias, and then through the subquery's projection onto the scan.
    assert_eq!(
        optimized_plan("SELECT q.name FROM (SELECT name, salary FROM emp) q WHERE q.salary >= 80"),
        "Map[q.name→name](Alias[q](Map[name→name, salary→salary](\
         Filter[(salary >= 80)](Scan(emp)))))"
    );
}

#[test]
fn unrequalifiable_predicates_stay_above_the_alias() {
    // Below the alias the bare reference `b` is ambiguous (both inputs of
    // the joined subquery carry one) and neither qualified form resolves
    // it back uniquely through the alias's schema, so requalification must
    // refuse and leave the filter above the Alias operator.
    let c = catalog();
    c.register(
        "r2",
        Table::from_rows(Schema::qualified("r2", ["b"]), vec![tuple![1i64]]),
    );
    let plan = Plan::Filter {
        input: Box::new(Plan::Alias {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::Scan("r2".into())),
                right: Box::new(Plan::Scan("r2".into())),
                predicate: None,
            }),
            name: "q".into(),
        }),
        predicate: Expr::named("q.b").gt(Expr::lit(0i64)),
    };
    // `q.b` is ambiguous above the alias too (two columns named b under q),
    // so the plan must be left untouched — both engines report the same
    // AmbiguousColumn error the unoptimized plan would.
    assert_eq!(
        format!("{}", push_filters(plan.clone(), &c)),
        format!("{plan}"),
    );
}

#[test]
fn explain_ua_snapshots_the_hash_join() {
    // End-to-end: the UA middleware's EXPLAIN shows the rewritten plan's
    // comma-join planned as a HashJoin with the selection pushed below.
    let session = UaSession::new();
    session.register_table(
        "r",
        Table::from_rows(
            Schema::qualified("r", ["a", "p"]),
            vec![tuple![1i64, 1.0], tuple![2i64, 0.5]],
        ),
    );
    session.register_table(
        "s",
        Table::from_rows(
            Schema::qualified("s", ["k", "d", "q"]),
            vec![tuple![1i64, 7i64, 1.0]],
        ),
    );
    let text = session
        .explain_ua(
            "SELECT x.a, y.d FROM r IS TI WITH PROBABILITY (p) x, \
             s IS TI WITH PROBABILITY (q) y WHERE x.a = y.k AND y.d > 5",
        )
        .unwrap();
    let physical = text.lines().last().expect("physical plan line").trim();
    // The filter pushed below the join (and through the alias, requalified
    // to `d`); the build side is `s` — one row after filtering vs two in
    // `r`. The user projection carries the join's marker: one `Map`.
    assert_eq!(
        physical,
        "Map[x.a→a, y.d→d, LEAST(#1, #4)→ua_c](\
         HashJoin[x.a=y.k; build=right](Alias[x](Scan(__ua__r__ti_1_p)), \
         Alias[y](Filter[(d > 5)](Scan(__ua__s__ti_1_q)))))"
    );
}

/// Regression: extracting an equality into a hash key must not change its
/// semantics — `Int(2) = Float(2.0)` is true under SQL's coercing
/// comparison, so the hash key canonicalizes integral floats
/// (`Value::join_key`) instead of comparing tuples structurally.
#[test]
fn hash_keys_keep_coercing_equality_semantics() {
    for mode in [ua_engine::ExecMode::Row, ua_engine::ExecMode::Vectorized] {
        for optimizer in [true, false] {
            let session = UaSession::with_mode(mode);
            session.set_optimizer_enabled(optimizer);
            session.register_table(
                "r",
                Table::from_rows(Schema::qualified("r", ["k"]), vec![tuple![2i64]]),
            );
            session.register_table(
                "s",
                Table::from_rows(Schema::qualified("s", ["k"]), vec![tuple![2.0]]),
            );
            let t = session
                .query_det("SELECT r.k FROM r, s WHERE r.k = s.k")
                .unwrap();
            assert_eq!(
                t.len(),
                1,
                "{mode:?}, optimizer={optimizer}: Int(2) must join Float(2.0)"
            );
        }
    }
}

/// Regression: a conjunct pushed below a join runs on rows the join would
/// have excluded; arithmetic errors on bad types there, so error-capable
/// predicates must stay in the residual (evaluated on joined rows only).
#[test]
fn error_capable_predicates_are_not_pushed_below_joins() {
    use ua_data::tuple::Tuple;
    use ua_data::value::Value;
    for optimizer in [true, false] {
        let session = UaSession::new();
        session.set_optimizer_enabled(optimizer);
        session.register_table(
            "r",
            Table::from_rows(
                Schema::qualified("r", ["k", "v"]),
                vec![
                    tuple![1i64, 10i64],
                    // Never joins; `v + 1` on it would be a type error.
                    Tuple::new(vec![Value::Int(99), Value::str("oops")]),
                ],
            ),
        );
        session.register_table(
            "s",
            Table::from_rows(Schema::qualified("s", ["k"]), vec![tuple![1i64]]),
        );
        // `JOIN ... ON` so the unoptimized plan already hash-joins before
        // the filter runs (a comma-form cross join would evaluate the whole
        // WHERE on every pair and error either way).
        let t = session
            .query_det("SELECT r.v FROM r JOIN s ON r.k = s.k WHERE r.v + 1 > 0")
            .unwrap_or_else(|e| panic!("optimizer={optimizer}: {e}"));
        assert_eq!(t.rows(), &[tuple![10i64]]);
    }
}

/// Regression: a column name that is ambiguous in the concatenated join
/// schema must stay an error — even when it happens to be ambiguous on one
/// input and resolvable on the other, the optimizer may not silently pick
/// the resolvable side.
#[test]
fn ambiguous_names_stay_errors_under_join_planning() {
    let mk = |name: &str| {
        Table::from_rows(
            Schema::qualified(name, ["a", "b"]),
            vec![tuple![1i64, 1i64]],
        )
    };
    for optimizer in [true, false] {
        let session = UaSession::new();
        session.set_optimizer_enabled(optimizer);
        session.register_table("r", mk("r"));
        session.register_table("s", mk("s"));
        session.register_table("t", mk("t"));
        let result = session.query_det("SELECT t.b FROM r, s, t WHERE r.b = s.b AND b = 1");
        assert!(
            result.is_err(),
            "optimizer={optimizer}: unqualified `b` is ambiguous and must error"
        );
    }
}

/// Catalog for the 3-way reordering snapshots: two large relations and one
/// tiny selective one.
fn star_catalog() -> Catalog {
    let c = Catalog::new();
    let big = |name: &str, val_col: &str| {
        Table::from_rows(
            Schema::qualified(name, ["k", val_col]),
            (0..40i64).map(|i| tuple![i % 20, i]).collect(),
        )
    };
    c.register("big1", big("big1", "v"));
    c.register("big2", big("big2", "w"));
    c.register(
        "small",
        Table::from_rows(
            Schema::qualified("small", ["k", "t"]),
            vec![tuple![0i64, 100i64], tuple![1i64, 101i64]],
        ),
    );
    c
}

/// The acceptance shape: a 3-way comma-join written in a deliberately bad
/// order (`FROM big1, big2, small`) is replanned to join through the small
/// relation first, with a projection restoring the as-written column order.
/// The equivalence class `{big1.k, big2.k, small.k}` is closed before
/// enumeration, so the derived `big1.k = big2.k` edge surfaces as a second
/// hash key at its covering node.
#[test]
fn bad_order_comma_join_replans_through_the_small_relation() {
    let c = star_catalog();
    let sql = "SELECT big1.v, big2.w, small.t FROM big1, big2, small \
               WHERE big1.k = small.k AND big2.k = small.k";
    let q = parse(sql).unwrap();
    let plan = plan_query(&q, &c, &RejectAnnotations).unwrap();
    let optimized = optimize(plan.clone(), &c);
    assert_eq!(
        format!("{optimized}"),
        "Map[big1.v→v, big2.w→w, small.t→t](\
         Map[#0→big1.k, #1→big1.v, #4→big2.k, #5→big2.w, #2→small.k, #3→small.t](\
         HashJoin[small.k=big2.k, big1.k=big2.k; build=left](\
         HashJoin[big1.k=small.k; build=right](Scan(big1), Scan(small)), \
         Scan(big2))))"
    );
    // The reorder preserves the result exactly (rows and multiplicities).
    let raw = ua_engine::execute(&plan, &c).unwrap();
    let opt = ua_engine::execute(&optimized, &c).unwrap();
    assert_eq!(raw.sorted_rows(), opt.sorted_rows());
    assert_eq!(raw.schema().names(), opt.schema().names());
}

/// A chain join (`big1.k = big2.k AND big2.k = small.k`) re-associates so
/// a selective join runs first. Closing the equivalence class derives
/// `big1.k = small.k`, which makes `big1 ⋈ small` directly joinable — an
/// order as cheap as routing through `big2 ⋈ small`, reached first by the
/// enumeration, with a permutation restoring the as-written column order.
#[test]
fn chain_join_reassociates_through_the_selective_join() {
    let c = star_catalog();
    let sql = "SELECT big1.v, big2.w FROM big1, big2, small \
               WHERE big1.k = big2.k AND big2.k = small.k";
    let q = parse(sql).unwrap();
    let plan = plan_query(&q, &c, &RejectAnnotations).unwrap();
    let optimized = optimize(plan.clone(), &c);
    assert_eq!(
        format!("{optimized}"),
        "Map[big1.v→v, big2.w→w](\
         Map[#0→big1.k, #1→big1.v, #4→big2.k, #5→big2.w, #2→small.k, #3→small.t](\
         HashJoin[big1.k=big2.k, small.k=big2.k; build=left](\
         HashJoin[big1.k=small.k; build=right](Scan(big1), Scan(small)), \
         Scan(big2))))"
    );
    let raw = ua_engine::execute(&plan, &c).unwrap();
    let opt = ua_engine::execute(&optimized, &c).unwrap();
    assert_eq!(raw.sorted_rows(), opt.sorted_rows());
}

/// Reordering off (`OptimizerPasses::reorder_joins = false`) restores the
/// as-written left-deep plan — the baseline the `multi_join` bench measures
/// against.
#[test]
fn reorder_toggle_keeps_the_as_written_order() {
    use ua_engine::{optimize_with, OptimizerPasses};
    let c = star_catalog();
    let sql = "SELECT big1.v, big2.w FROM big1, big2, small \
               WHERE big1.k = big2.k AND big2.k = small.k";
    let q = parse(sql).unwrap();
    let plan = plan_query(&q, &c, &RejectAnnotations).unwrap();
    let as_written = optimize_with(
        plan,
        &c,
        OptimizerPasses {
            reorder_joins: false,
            ..Default::default()
        },
    );
    assert_eq!(
        format!("{as_written}"),
        "Map[big1.v→v, big2.w→w](\
         HashJoin[big2.k=small.k; build=right](\
         HashJoin[big1.k=big2.k; build=right](Scan(big1), Scan(big2)), \
         Scan(small)))"
    );
}

/// Regression (review): stacked error-capable filters over a reorderable
/// 3-way join keep their guard order. The inner CASE guard excludes the
/// poison (string) row without erroring; the outer arithmetic filter would
/// error on it. Merging the stack into one eager conjunction — in the
/// reorder's emission or in plan_joins' peel — would evaluate the
/// arithmetic on the poison row and turn a succeeding query into an error.
#[test]
fn stacked_error_capable_filters_keep_their_guard_order_when_reordered() {
    use ua_data::tuple::Tuple;
    use ua_data::value::Value;
    let c = star_catalog();
    // Give big1 an `a` column with one poison row whose key joins through.
    let mut rows: Vec<Tuple> = (0..40i64).map(|i| tuple![i % 20, i]).collect();
    rows.push(Tuple::new(vec![Value::Int(0), Value::str("poison")]));
    c.register(
        "big1",
        Table::from_rows(Schema::qualified("big1", ["k", "a"]), rows),
    );
    let guard = Expr::Cmp(
        ua_data::expr::CmpOp::Eq,
        Box::new(Expr::Case {
            branches: vec![(
                Expr::named("big1.a").eq(Expr::lit("poison")),
                Expr::lit(0i64),
            )],
            otherwise: Some(Box::new(Expr::lit(1i64))),
        }),
        Box::new(Expr::lit(1i64)),
    );
    let outer = Expr::named("big1.a")
        .add(Expr::lit(0i64))
        .ge(Expr::lit(0i64));
    let plan = Plan::Filter {
        input: Box::new(Plan::Filter {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::Join {
                    left: Box::new(Plan::Join {
                        left: Box::new(Plan::Scan("big1".into())),
                        right: Box::new(Plan::Scan("big2".into())),
                        predicate: None,
                    }),
                    right: Box::new(Plan::Scan("small".into())),
                    predicate: None,
                }),
                predicate: Expr::named("big1.k")
                    .eq(Expr::named("big2.k"))
                    .and(Expr::named("big2.k").eq(Expr::named("small.k"))),
            }),
            predicate: guard,
        }),
        predicate: outer,
    };
    let raw = ua_engine::execute(&plan, &c).expect("unoptimized must succeed");
    let optimized = optimize(plan, &c);
    let opt = ua_engine::execute(&optimized, &c)
        .unwrap_or_else(|e| panic!("optimized plan errored where raw succeeded: {e}\n{optimized}"));
    assert_eq!(raw.sorted_rows(), opt.sorted_rows());
    let vec = ua_vecexec::execute(
        &optimized,
        &c,
        ua_engine::ExecOptions::default(),
        ua_engine::Semantics::Det,
    )
    .0
    .expect("vectorized");
    assert_eq!(opt.rows(), vec.rows());
}

/// Regression (review): the "already best" bail-out compares against the
/// *actual* as-written shape, not a left-deep assumption — a right-deep
/// input that already matches the optimum is left untouched.
#[test]
fn optimal_right_deep_input_is_left_alone() {
    let c = star_catalog();
    // The optimum for the chain (per `chain_join_reassociates_...`) is
    // (big1 ⋈ small) ⋈ big2; write it that way from the start.
    let plan = Plan::Filter {
        input: Box::new(Plan::Join {
            left: Box::new(Plan::Join {
                left: Box::new(Plan::Scan("big1".into())),
                right: Box::new(Plan::Scan("small".into())),
                predicate: None,
            }),
            right: Box::new(Plan::Scan("big2".into())),
            predicate: None,
        }),
        predicate: Expr::named("big1.k")
            .eq(Expr::named("big2.k"))
            .and(Expr::named("big2.k").eq(Expr::named("small.k"))),
    };
    let reordered = ua_engine::reorder_joins(plan.clone(), &c);
    assert_eq!(
        format!("{reordered}"),
        format!("{plan}"),
        "an input already in the optimal shape must not be rewritten"
    );
}

/// Non-monotone operators are pushdown barriers: a filter sitting on an
/// `Except` must not sink into either side (pre-filtering the left changes
/// which copies the right's budget removes; filtering the right changes
/// the removal set outright), and a filter on an `OuterJoin` must not sink
/// into either side (the preserved side's rows would vanish instead of
/// NULL-padding; the padded side's rows would pad instead of matching).
#[test]
fn filters_are_not_pushed_into_except_or_outer_join() {
    use ua_engine::plan::OuterKind;
    let c = star_catalog();
    let pred = Expr::named("big1.k").ge(Expr::lit(1i64));
    let except = Plan::Filter {
        input: Box::new(Plan::Except {
            left: Box::new(Plan::Scan("big1".into())),
            right: Box::new(Plan::Scan("big2".into())),
            all: true,
        }),
        predicate: pred.clone(),
    };
    let pushed = push_filters(except.clone(), &c);
    assert_eq!(
        format!("{pushed}"),
        format!("{except}"),
        "a filter must stay above Except"
    );
    for kind in [OuterKind::Left, OuterKind::Right] {
        let outer = Plan::Filter {
            input: Box::new(Plan::OuterJoin {
                left: Box::new(Plan::Scan("big1".into())),
                right: Box::new(Plan::Scan("small".into())),
                predicate: Some(Expr::named("big1.k").eq(Expr::named("small.k"))),
                kind,
            }),
            predicate: pred.clone(),
        };
        let pushed = push_filters(outer.clone(), &c);
        assert_eq!(
            format!("{pushed}"),
            format!("{outer}"),
            "a filter must stay above OuterJoin[{kind}]"
        );
    }
}

/// The semantic counterpart: a WHERE over the NULL-padded side of a LEFT
/// JOIN drops pad rows (NULL comparisons are unknown). Pushing it below
/// the join would filter `small` *before* padding and resurrect all 36
/// unmatched `big1` rows. The optimized plan must agree with the raw one.
#[test]
fn padded_side_filter_survives_the_full_pipeline() {
    let c = star_catalog();
    let sql = "SELECT big1.k, small.t FROM big1 LEFT JOIN small ON big1.k = small.k \
               WHERE small.t >= 0";
    let q = parse(sql).unwrap();
    let plan = plan_query(&q, &c, &RejectAnnotations).unwrap();
    let raw = ua_engine::execute(&plan, &c).unwrap();
    let optimized = optimize(plan, &c);
    let opt = ua_engine::execute(&optimized, &c).unwrap();
    // big1.k ∈ {0..19} twice; small.k ∈ {0, 1}: 4 matched rows survive the
    // filter, the 36 pads do not.
    assert_eq!(raw.len(), 4, "raw plan must keep only matched rows");
    assert_eq!(raw.sorted_rows(), opt.sorted_rows());
}

/// Regression: stacked filters must not merge into one conjunction — the
/// inner guard `a <> 0` protects the outer `100 / a > 10` from evaluating
/// (and erroring) on `a = 0` rows, so relocating the error-capable outer
/// conjunct below the guard would change which queries fail.
#[test]
fn stacked_filter_guard_preserved() {
    for optimizer in [true, false] {
        let s = UaSession::new();
        s.set_optimizer_enabled(optimizer);
        s.catalog().register(
            "g",
            Table::from_rows(
                Schema::qualified("g", ["a"]),
                vec![tuple![0i64], tuple![4i64]],
            ),
        );
        let r = s.query_det("SELECT * FROM (SELECT a FROM g WHERE a <> 0) x WHERE 100 / a > 10");
        match r {
            Ok(t) => assert_eq!(t.rows(), &[tuple![4i64]]),
            Err(e) => panic!("optimizer={optimizer}: guarded query errored: {e}"),
        }
    }
}

#[test]
fn optimizer_toggle_restores_raw_plans() {
    let session = UaSession::new();
    session.register_table(
        "r",
        Table::from_rows(Schema::qualified("r", ["a"]), vec![tuple![1i64]]),
    );
    session.set_optimizer_enabled(false);
    assert!(!session.optimizer_enabled());
    let text = session
        .explain_det("SELECT r.a FROM r, r s WHERE r.a = s.a")
        .unwrap();
    assert!(
        !text.contains("HashJoin"),
        "optimizer off must leave the cross join: {text}"
    );
    session.set_optimizer_enabled(true);
    let text = session
        .explain_det("SELECT r.a FROM r, r s WHERE r.a = s.a")
        .unwrap();
    assert!(
        text.contains("HashJoin"),
        "optimizer on plans a hash join: {text}"
    );
}

/// Golden EXPLAIN ANALYZE snapshot: the deterministic render
/// (`OperatorStats::render(false)` — no wall times, no `*_ns` extras) of
/// the instrumented plan tree on both engines, for the join + GROUP BY
/// shape. Everything asserted — operator labels, per-operator actual row
/// counts, `estimate_rows` cardinalities, batch counts — is exact.
#[test]
fn explain_analyze_golden_snapshot() {
    let s = UaSession::new();
    s.register_table(
        "emp",
        Table::from_rows(
            Schema::qualified("emp", ["name", "dept", "salary"]),
            vec![
                tuple!["ann", "eng", 100i64],
                tuple!["bob", "eng", 80i64],
                tuple!["cat", "ops", 60i64],
                tuple!["dan", "ops", 60i64],
            ],
        ),
    );
    s.register_table(
        "dept",
        Table::from_rows(
            Schema::qualified("dept", ["name", "city"]),
            vec![tuple!["eng", "nyc"], tuple!["ops", "chi"]],
        ),
    );
    s.set_stats_enabled(true);
    s.set_vec_threads(1);
    let sql = "SELECT d.city, count(*) AS n FROM emp e, dept d \
               WHERE e.dept = d.name AND e.salary >= 80 GROUP BY d.city";

    s.set_exec_mode(ua_engine::ExecMode::Row);
    s.query_det(sql).unwrap();
    let row = s.last_query_stats().unwrap();
    assert_eq!(
        row.root.render(false),
        "Map[city→city, __agg0→n] rows=1 est=2\n\
         \x20 Aggregate[city; count(*)→__agg0] rows=1 est=2 (mem_bytes=86)\n\
         \x20   HashJoin[e.dept=d.name; build=right] rows=2 est=2 (build_rows=2, probe_rows=2, mem_bytes=70)\n\
         \x20     Alias[e] rows=2 est=2\n\
         \x20       Filter[(salary >= 80)] rows=2 est=2\n\
         \x20         Scan[emp] rows=4 est=4\n\
         \x20     Alias[d] rows=2 est=2\n\
         \x20       Scan[dept] rows=2 est=2\n"
    );

    // The vectorized tree is the row tree plus batch counts: the σ keeps
    // its own span below the alias, and the hash join lists its children
    // in plan order, the streamed probe chain (emp) before the build side.
    s.set_exec_mode(ua_engine::ExecMode::Vectorized);
    s.query_det(sql).unwrap();
    let vec = s.last_query_stats().unwrap();
    assert_eq!(
        vec.root.render(false),
        "Map[city→city, __agg0→n] rows=1 est=2 batches=1\n\
         \x20 Aggregate[city; count(*)→__agg0] rows=1 est=2 batches=1 (mem_bytes=43)\n\
         \x20   HashJoin[e.dept=d.name; build=right] rows=2 est=2 batches=1 (build_rows=2, mem_bytes=92, probe_rows=2)\n\
         \x20     Alias[e] rows=2 est=2 batches=1\n\
         \x20       Filter[(salary >= 80)] rows=2 est=2 batches=1\n\
         \x20         Scan[emp] rows=4 est=4 batches=1\n\
         \x20     Alias[d] rows=2 est=2 batches=1\n\
         \x20       Scan[dept] rows=2 est=2 batches=1\n"
    );
}
