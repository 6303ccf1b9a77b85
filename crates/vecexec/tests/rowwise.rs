//! "How much of this operator paid for uncertainty": the
//! `au.vec.rowwise.*` registry counters and the `rowwise_rows` /
//! `rowwise_pairs` extras on Filter / Map / HashJoin stats nodes.
//!
//! One test, alone in this binary: the registry is process-wide, so only
//! here do the counters move by exactly what this query did.

use ua_data::algebra::ProjColumn;
use ua_data::expr::ArithOp;
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

/// `e / 1`: division is not a kernel-native shape, so this operand stays
/// on the per-row path whatever the data (`+`, `−` and `×` are native).
fn per_row(e: Expr) -> Expr {
    Expr::Arith(ArithOp::Div, Box::new(e), Box::new(Expr::lit(1i64)))
}

/// What one run of [`run`] sent down the per-row path, summed over its
/// stats tree: σ input rows, hash-⋈ candidate pairs, π input rows.
#[derive(Debug, Default, PartialEq)]
struct RowWise {
    filter_rows: u64,
    join_pairs: u64,
    project_rows: u64,
}

/// Run `π_{l.k, w}(σ_θ(l) ⋈_{l.k = r.k} r)` vectorized with stats on, check
/// it against the row interpreter, and return what went row-wise plus the
/// projection's input rows. `θ` is `v + 0 < 30` — a computed but
/// kernel-native operand — or, when `filter_per_row`, `v / 1 < 30`; `w` is
/// `l.v * 2` or, when `project_per_row`, `l.v / 1`.
fn run(ranged: bool, filter_per_row: bool, project_per_row: bool) -> (RowWise, u64) {
    let catalog = Catalog::new();
    catalog.register("l", ua_engine::au_table(&table("l", ranged)));
    catalog.register("r", ua_engine::au_table(&table("r", ranged)));
    let operand = if filter_per_row {
        per_row(Expr::named("v"))
    } else {
        Expr::named("v").add(Expr::lit(0i64))
    };
    let w = if project_per_row {
        per_row(Expr::named("l.v"))
    } else {
        Expr::named("l.v").mul(Expr::lit(2i64))
    };
    let plan = Plan::Map {
        input: Box::new(Plan::HashJoin {
            left: Box::new(Plan::Filter {
                input: Box::new(Plan::Scan("l".into())),
                predicate: operand.lt(Expr::lit(30i64)),
            }),
            right: Box::new(Plan::Scan("r".into())),
            keys: vec![(Expr::named("l.k"), Expr::named("r.k"))],
            residual: None,
            build_left: false,
        }),
        columns: vec![
            ProjColumn::expr(Expr::named("l.k"), "k"),
            ProjColumn::expr(w, "w"),
        ],
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
    let mut seen = RowWise::default();
    let root = stats.expect("stats on").root;
    root.walk(&mut |node| {
        let extra = |key: &str| node.extra.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
        match node.name.as_str() {
            "Filter" => seen.filter_rows += extra("rowwise_rows").expect("Filter reports it"),
            "HashJoin" => seen.join_pairs += extra("rowwise_pairs").expect("HashJoin reports it"),
            // A projection reports `rowwise_rows` only when it went row-wise.
            "Map" => seen.project_rows += extra("rowwise_rows").unwrap_or(0),
            _ => assert!(extra("rowwise_rows").is_none() && extra("rowwise_pairs").is_none()),
        }
    });
    (seen, root.rows_out)
}

#[test]
fn rowwise_counters_are_zero_on_certain_data_and_positive_on_ranged_keys() {
    let counters = || {
        let reg = ua_obs::global();
        RowWise {
            filter_rows: reg.counter("au.vec.rowwise.filter_rows").get(),
            join_pairs: reg.counter("au.vec.rowwise.join_pairs").get(),
            project_rows: reg.counter("au.vec.rowwise.project_rows").get(),
        }
    };
    let start = counters();
    let since_start = |seen: &RowWise| RowWise {
        filter_rows: start.filter_rows + seen.filter_rows,
        join_pairs: start.join_pairs + seen.join_pairs,
        project_rows: start.project_rows + seen.project_rows,
    };
    let mut total = RowWise::default();

    // All-certain tables, kernel-native predicate and projection — both
    // with a computed operand: nothing goes row-wise.
    let (seen, _) = run(false, false, false);
    assert_eq!(seen, total);
    assert_eq!(counters(), since_start(&total));

    // Ranged keys: every fuzzy-key candidate pair is refined, the point
    // pairs are not (8 fuzzy rows per side, 40 × 40 candidates at most).
    let (seen, _) = run(true, false, false);
    assert_eq!(
        (seen.filter_rows, seen.project_rows),
        (0, 0),
        "σ and π read certain columns through the kernels"
    );
    assert!(
        seen.join_pairs > 0 && seen.join_pairs < 40 * 40,
        "pairs = {}",
        seen.join_pairs
    );
    total.join_pairs += seen.join_pairs;
    assert_eq!(counters(), since_start(&total));

    // A non-native filter operand sends all 40 input rows down the per-row
    // path; the all-point join still refines nothing.
    let (seen, _) = run(false, true, false);
    total.filter_rows += 40;
    assert_eq!(
        seen,
        RowWise {
            filter_rows: 40,
            ..RowWise::default()
        }
    );
    assert_eq!(counters(), since_start(&total));

    // A non-native projection: every one of its input rows, nothing else.
    let (seen, projected) = run(false, false, true);
    assert!(projected > 0);
    total.project_rows += projected;
    assert_eq!(
        seen,
        RowWise {
            project_rows: projected,
            ..RowWise::default()
        }
    );
    assert_eq!(counters(), since_start(&total));
}
