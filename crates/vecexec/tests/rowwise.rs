//! "How much of this operator paid for uncertainty": the
//! `au.vec.rowwise.*` registry counters and the `rowwise_rows` /
//! `rowwise_pairs` extras on Filter / HashJoin stats nodes.
//!
//! One test, alone in this binary: the registry is process-wide, so only
//! here do the counters move by exactly what this query did.

use ua_data::schema::Schema;
use ua_data::value::Value;
use ua_data::Expr;
use ua_engine::plan::Plan;
use ua_engine::{Catalog, ExecOptions};
use ua_ranges::{AuRelation, AuTuple, Bound, MultBound, RangeValue};

/// `name(k, v)` with 40 rows; every fifth key ranged when `ranged`.
fn table(name: &str, ranged: bool) -> AuRelation {
    let mut rel = AuRelation::new(Schema::qualified(name, ["k", "v"]));
    for i in 0..40i64 {
        let k = if ranged && i % 5 == 0 {
            RangeValue::new(
                Bound::Val(Value::Int(i % 8)),
                Value::Int(i % 8),
                Bound::Val(Value::Int(i % 8 + 1)),
            )
        } else {
            RangeValue::point(Value::Int(i % 8))
        };
        rel.push(AuTuple {
            values: vec![k, RangeValue::point(Value::Int(i))],
            mult: MultBound::certain(1),
        });
    }
    rel
}

/// Run `σ_{v < 30}(l) ⋈_{l.k = r.k} r` (the filter written `v + 0 < 30`
/// when `computed_filter`) vectorized with stats on, check it against the
/// row interpreter, and return `(rowwise_rows, rowwise_pairs)` summed
/// over the stats tree.
fn run(ranged: bool, computed_filter: bool) -> (u64, u64) {
    let catalog = Catalog::new();
    catalog.register("l", ua_engine::au_table(&table("l", ranged)));
    catalog.register("r", ua_engine::au_table(&table("r", ranged)));
    let predicate = if computed_filter {
        // An arithmetic operand is not a kernel-native shape.
        Expr::named("v").add(Expr::lit(0i64)).lt(Expr::lit(30i64))
    } else {
        Expr::named("v").lt(Expr::lit(30i64))
    };
    let plan = Plan::HashJoin {
        left: Box::new(Plan::Filter {
            input: Box::new(Plan::Scan("l".into())),
            predicate,
        }),
        right: Box::new(Plan::Scan("r".into())),
        keys: vec![(Expr::named("l.k"), Expr::named("r.k"))],
        residual: None,
        build_left: false,
    };
    let opts = ExecOptions {
        threads: 2,
        batch_rows: 16,
        collect_stats: true,
        collect_trace: false,
    };
    let (result, stats) = ua_vecexec::execute(&plan, &catalog, opts, ua_engine::Semantics::Au);
    let vec = result.expect("au vec");
    let row = ua_engine::au_table(&ua_engine::execute_au(&plan, &catalog).expect("au row"));
    assert_eq!(row.rows(), vec.rows());
    let (mut rows, mut pairs) = (0, 0);
    stats.expect("stats on").root.walk(&mut |node| {
        let extra = |key: &str| node.extra.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
        match node.name.as_str() {
            "Filter" => rows += extra("rowwise_rows").expect("Filter reports rowwise_rows"),
            "HashJoin" => pairs += extra("rowwise_pairs").expect("HashJoin reports rowwise_pairs"),
            _ => assert!(extra("rowwise_rows").is_none() && extra("rowwise_pairs").is_none()),
        }
    });
    (rows, pairs)
}

#[test]
fn rowwise_counters_are_zero_on_certain_data_and_positive_on_ranged_keys() {
    let counters = || {
        let reg = ua_obs::global();
        (
            reg.counter("au.vec.rowwise.filter_rows").get(),
            reg.counter("au.vec.rowwise.join_pairs").get(),
        )
    };
    let start = counters();

    // All-certain tables, kernel-native predicate: nothing goes row-wise.
    assert_eq!(run(false, false), (0, 0));
    assert_eq!(counters(), start);

    // Ranged keys: every fuzzy-key candidate pair is refined, the point
    // pairs are not (8 fuzzy rows per side, 40 × 40 candidates at most).
    let (rows, pairs) = run(true, false);
    assert_eq!(
        rows, 0,
        "the filter reads a certain column through the kernel"
    );
    assert!(pairs > 0 && pairs < 40 * 40, "pairs = {pairs}");
    assert_eq!(counters(), (start.0, start.1 + pairs));

    // A computed filter operand sends all 40 input rows down the per-row
    // path; the all-point join still refines nothing.
    assert_eq!(run(false, true), (40, 0));
    assert_eq!(counters(), (start.0 + 40, start.1 + pairs));
}
