//! The typed `[lb, bg, ub]` expression kernel against its specification:
//! over random dense triples and random `+` / `−` / `×` expressions,
//! `kernels::eval_triple` must equal `ua_ranges::eval_range` +
//! `range_parts` row by row, value for value and column representation for
//! column representation — or decline, sending the batch down the per-row
//! path. Plus, through the driver: pointness (bounds aliasing their `bg`
//! buffer) survives filter → project, and an overflowing row sends exactly
//! its batch to the row path.

use proptest::prelude::*;
use ua_data::algebra::ProjColumn;
use ua_data::expr::{ArithOp, CmpOp, Expr};
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::plan::Plan;
use ua_engine::{Catalog, ExecOptions, Semantics};
use ua_ranges::{
    approx_range, encode_row, eval_range, flattened_schema, range_parts, truth_range, AuRelation,
    AuTuple, Bound, MultBound, RangeValue,
};
use ua_vecexec::kernels::{eval_triple, range_truth_masks, Triple};
use ua_vecexec::{ColumnBatch, ColumnVec};

/// User columns: ranged `Int` triples `a`, `b`; an all-point `Int` column
/// `p`; ranged `Float` triples `f`, `g`; an all-point `Float` column `q`
/// (the point columns stored the way a scan stores them — both bounds
/// *are* the `bg` buffer); and a *hostile* `Int` column holding `±∞`
/// bounds, top ranges and definite NULLs, which must never be native.
const COLS: [&str; 7] = ["a", "b", "p", "f", "g", "q", "h"];
const POINT_COLS: [usize; 2] = [2, 5];
const HOSTILE: usize = 6;

/// The small integer domain cannot overflow under three levels of `×`;
/// the extreme one sits on the `i64::MIN` / `i64::MAX` / 2⁵³ edges.
fn int_of(code: u32, extreme: bool) -> Value {
    const EDGES: [i64; 14] = [
        i64::MIN,
        i64::MIN + 1,
        -(1 << 53) - 1,
        -(1 << 53),
        -1,
        0,
        1,
        2,
        1 << 53,
        (1 << 53) + 1,
        1 << 61,
        1 << 62,
        i64::MAX - 1,
        i64::MAX,
    ];
    Value::Int(if extreme {
        EDGES[code as usize % EDGES.len()]
    } else {
        i64::from(code % 9) - 3
    })
}

fn float_of(code: u32) -> Value {
    Value::float(
        [
            f64::NEG_INFINITY,
            -1e308,
            -1.5,
            -0.0,
            0.0,
            0.5,
            2.0,
            3.0,
            9_007_199_254_740_994.0,
            1e308,
            f64::INFINITY,
            f64::NAN,
        ][code as usize % 12],
    )
}

/// A bounded range from three domain values in any order (a point when
/// `point`).
fn bounded(mut vals: [Value; 3], point: bool) -> RangeValue {
    if point {
        return RangeValue::point(vals[1].clone());
    }
    vals.sort_by(ua_ranges::range_cmp);
    let [lb, bg, ub] = vals;
    RangeValue::new(Bound::Val(lb), bg, Bound::Val(ub))
}

fn hostile_of(kind: u32, x: i64) -> RangeValue {
    match kind % 6 {
        0 => RangeValue::null(),
        1 => RangeValue::top(Value::Null),
        2 => RangeValue::top(Value::Int(x)),
        3 => RangeValue::new(Bound::NegInf, Value::Int(x), Bound::Val(Value::Int(x + 1))),
        4 => RangeValue::new(Bound::Val(Value::Int(x - 1)), Value::Int(x), Bound::PosInf),
        _ => RangeValue::point(Value::Int(x)),
    }
}

/// `(extreme integers?, rows)`.
fn arb_rows() -> impl Strategy<Value = (bool, Vec<Vec<RangeValue>>)> {
    // Per cell: three value codes and a pointness draw.
    let cell = || (0u32..14, 0u32..14, 0u32..14, 0u32..5);
    let row = ((cell(), cell(), cell()), (cell(), cell(), cell()), 0u32..6);
    (0u32..3, proptest::collection::vec(row, 1..=40)).prop_map(|(regime, codes)| {
        let extreme = regime == 0;
        let int = |(x, y, z, p): (u32, u32, u32, u32), point: bool| {
            bounded([x, y, z].map(|c| int_of(c, extreme)), point || p < 2)
        };
        let float = |(x, y, z, p): (u32, u32, u32, u32), point: bool| {
            bounded([x, y, z].map(float_of), point || p < 2)
        };
        let mut rows: Vec<Vec<RangeValue>> = codes
            .into_iter()
            .map(|((a, b, p), (f, g, q), h)| {
                vec![
                    int(a, false),
                    int(b, false),
                    int(p, true),
                    float(f, false),
                    float(g, false),
                    float(q, true),
                    hostile_of(h, i64::from(h)),
                ]
            })
            .collect();
        // Row 0 pins the hostile column to an untyped representation.
        rows[0][HOSTILE] = RangeValue::null();
        (extreme, rows)
    })
}

/// Depth ≤ 3 over `+ − ×`, the seven columns (the hostile one rarely) and
/// `Int` / `Float` literals, a few of them on the `i64` edges.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0usize..6).prop_map(Expr::Col),
        (0usize..6).prop_map(Expr::Col),
        (0usize..7).prop_map(Expr::Col),
        (0u32..9).prop_map(|c| Expr::Lit(int_of(c, false))),
        (0u32..14).prop_map(|c| Expr::Lit(int_of(c, true))),
        (0u32..12).prop_map(|c| Expr::Lit(float_of(c))),
    ];
    let op = || prop_oneof![Just(ArithOp::Add), Just(ArithOp::Sub), Just(ArithOp::Mul)];
    leaf.prop_recursive(3, 12, 2, move |inner| {
        prop_oneof![
            (op(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::Arith(
                op,
                Box::new(a),
                Box::new(b)
            )),
            inner,
        ]
    })
}

/// The rows as one AU batch over the flattened `[bg | lb | ub | m*]`
/// layout, exactly as a scan would hand them to π: a bound column equal to
/// its `bg` column shares that column's buffer.
fn batch_of(rows: &[Vec<RangeValue>]) -> ColumnBatch {
    let n = COLS.len();
    let flat = flattened_schema(&Schema::qualified("t", COLS));
    let encoded: Vec<_> = rows
        .iter()
        .map(|values| {
            encode_row(&AuTuple {
                values: values.clone(),
                mult: MultBound::certain(1),
            })
        })
        .collect();
    let mut columns: Vec<ColumnVec> = (0..flat.arity())
        .map(|c| ColumnVec::from_values(encoded.iter().map(move |r| r.get(c).expect("arity"))))
        .collect();
    for c in POINT_COLS {
        for bound in [n + c, 2 * n + c] {
            assert_eq!(columns[bound], columns[c], "column {c} is all points");
            columns[bound] = columns[c].clone();
        }
    }
    ColumnBatch::new(flat, columns, rows.len())
}

/// Every sub-expression of `e`, `e` included.
fn subexprs<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    out.push(e);
    if let Expr::Arith(_, a, b) = e {
        subexprs(a, out);
        subexprs(b, out);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(800))]

    #[test]
    fn kernel_equals_eval_range_or_declines(data in arb_rows(), expr in arb_expr()) {
        let (extreme, rows) = data;
        let n = COLS.len();
        let batch = batch_of(&rows);
        prop_assert!(matches!(batch.column(HOSTILE), ColumnVec::Mixed(_)));
        let triple = eval_triple(&expr, &batch, n);

        let mut subs = Vec::new();
        subexprs(&expr, &mut subs);
        let hostile = subs.iter().any(|e| matches!(e, Expr::Col(HOSTILE)));
        let big_literal = subs
            .iter()
            .any(|e| matches!(e, Expr::Lit(Value::Int(v)) if v.unsigned_abs() > 8));
        // A row some sub-expression of which the row evaluator widens to top.
        let widened = rows
            .iter()
            .any(|ranges| subs.iter().any(|e| approx_range(e, ranges).is_top()));
        if hostile {
            prop_assert!(triple.is_none(), "±∞ / top / NULL cells are per-row work: {expr}");
        }
        if widened {
            prop_assert!(triple.is_none(), "a top row has no dense encoding: {expr}");
        }
        if !hostile && !widened && !extreme && !big_literal {
            prop_assert!(triple.is_some(), "dense numeric triples that stay bounded are native: {expr}");
        }
        // Each case is one pass of the shim's loop.
        let Some(triple) = triple else { continue };

        // The Point lemma, and its representation.
        let mut refs = Vec::new();
        expr.referenced_columns(&mut refs);
        if refs.iter().all(|c| POINT_COLS.contains(c)) {
            prop_assert!(matches!(triple, Triple::Point(_)), "points map to points: {expr}");
        }
        let [bg, lb, ub] = triple.into_columns();
        if refs.iter().all(|c| POINT_COLS.contains(c)) {
            prop_assert!(lb.shares_buffer(&bg) && ub.shares_buffer(&bg));
        }

        // Value for value, and column for column, the row evaluator's.
        let mut expected: [Vec<Value>; 3] = Default::default();
        for ranges in &rows {
            let sg: Tuple = ranges.iter().map(|r| r.bg.clone()).collect();
            let range = eval_range(&expr, ranges, &sg).expect("numeric + − × cannot fail");
            let (l, g, u) = range_parts(&range);
            expected[0].push(g);
            expected[1].push(l);
            expected[2].push(u);
        }
        for (part, (got, want)) in ["bg", "lb", "ub"].iter().zip([bg, lb, ub].iter().zip(&expected)) {
            prop_assert_eq!(got, &ColumnVec::from_values(want.iter()), "{} of {}", part, &expr);
        }
    }

    /// σ's operands come through the same evaluator: a comparison of two
    /// computed operands is `truth_range`'s, bit for bit — or declines.
    #[test]
    fn computed_operands_compare_like_the_row_evaluator(
        data in arb_rows(),
        a in arb_expr(),
        b in arb_expr(),
        op in 0usize..6,
    ) {
        let (_, rows) = data;
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let pred = Expr::Cmp(ops[op], Box::new(a), Box::new(b)).not();
        let batch = batch_of(&rows);
        if let Some((possibly_true, possibly_false)) = range_truth_masks(&pred, &batch, COLS.len()) {
            for (i, ranges) in rows.iter().enumerate() {
                let rt = truth_range(&pred, ranges);
                prop_assert!(!rt.u, "row {i} of {pred}: the kernel assumes no unknown");
                prop_assert_eq!(possibly_true.get(i), rt.t, "row {} t of {}", i, &pred);
                prop_assert_eq!(possibly_false.get(i), rt.f, "row {} f of {}", i, &pred);
            }
        }
    }
}

fn stat_extra(node: &ua_obs::OperatorStats, key: &str) -> Option<u64> {
    node.extra.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

fn opts(threads: usize, batch_rows: usize) -> ExecOptions {
    ExecOptions {
        threads,
        batch_rows,
        collect_stats: true,
        collect_trace: false,
    }
}

/// All-point data through σ → π: the scan's bound columns are its `bg`
/// buffers, `gather` hands one gathered buffer to every alias, and the
/// expression kernel maps points to points — so every output column's
/// bounds still *are* its `bg` buffer, computed columns included.
#[test]
fn pointness_survives_filter_and_project() {
    let mut rel = AuRelation::new(Schema::qualified("t", ["k", "x", "y"]));
    for i in 0..100i64 {
        rel.push(AuTuple {
            values: vec![
                RangeValue::point(Value::Int(i)),
                RangeValue::point(Value::Int(i % 7)),
                RangeValue::point(Value::float(i as f64 / 4.0)),
            ],
            mult: MultBound::certain(1),
        });
    }
    let catalog = Catalog::new();
    catalog.register("t", ua_engine::au_table(&rel));
    let plan = Plan::Map {
        input: Box::new(Plan::Filter {
            input: Box::new(Plan::Scan("t".into())),
            // Keeps some rows of every batch: a real gather.
            predicate: Expr::named("x").add(Expr::lit(1i64)).lt(Expr::lit(5i64)),
        }),
        columns: vec![
            ProjColumn::expr(Expr::named("k"), "k"),
            ProjColumn::expr(Expr::named("x").mul(Expr::named("k")), "xk"),
            ProjColumn::expr(
                Expr::named("y").mul(Expr::lit(1i64).sub(Expr::named("x"))),
                "net",
            ),
            ProjColumn::expr(Expr::lit(2.5), "c"),
        ],
    };
    for (threads, batch_rows) in [(1, 16), (2, 16), (2, 1024)] {
        let out = ua_vecexec::stream(&plan, &catalog, opts(threads, batch_rows), Semantics::Au)
            .expect("au vec");
        assert_eq!(out.num_rows(), 58);
        let n = 4;
        for b in &out.batches {
            for c in 0..n {
                assert!(
                    b.column(n + c).shares_buffer(b.column(c))
                        && b.column(2 * n + c).shares_buffer(b.column(c)),
                    "column {c} lost its pointness (threads={threads} batch={batch_rows})"
                );
            }
        }
        let row = ua_engine::au_table(&ua_engine::execute_au(&plan, &catalog).expect("au row"));
        assert_eq!(row.rows(), ua_vecexec::table_from_batches(&out).rows());
    }
}

/// All-point data through σ → ⋈ → ⋈ → π: each hash join gathers its two
/// sides through one aliasing-aware gather, so a point column leaves every
/// join — and the π above them — with its bounds still *being* its `bg`
/// buffer, and the join's output matches the row interpreter's.
#[test]
fn pointness_survives_hash_joins() {
    let catalog = Catalog::new();
    for (name, rows) in [("a", 120i64), ("b", 40), ("c", 12)] {
        let mut rel = AuRelation::new(Schema::qualified(name, ["k", "x"]));
        for i in 0..rows {
            rel.push(AuTuple {
                values: vec![
                    RangeValue::point(Value::Int(i % 40)),
                    RangeValue::point(Value::float(i as f64 / 8.0)),
                ],
                mult: MultBound::certain(1),
            });
        }
        catalog.register(name, ua_engine::au_table(&rel));
    }
    let scan = |t: &str| Box::new(Plan::Scan(t.into()));
    // (a ⋈ b) ⋈ c, σ below the probe side, both joins probing a's pipeline.
    let inner = Plan::HashJoin {
        left: Box::new(Plan::Filter {
            input: scan("a"),
            // Keeps some rows of every batch: a real selection.
            predicate: Expr::named("a.x").lt(Expr::lit(10.0)),
        }),
        right: scan("b"),
        keys: vec![(Expr::named("a.k"), Expr::named("b.k"))],
        residual: None,
        build_left: false,
    };
    let plan = Plan::Map {
        input: Box::new(Plan::HashJoin {
            left: Box::new(inner),
            right: scan("c"),
            keys: vec![(Expr::named("b.k"), Expr::named("c.k"))],
            residual: None,
            build_left: false,
        }),
        columns: vec![
            ProjColumn::expr(Expr::named("a.k"), "k"),
            ProjColumn::expr(Expr::named("a.x").add(Expr::named("c.x")), "s"),
            ProjColumn::expr(Expr::named("b.x"), "bx"),
        ],
    };
    let row = ua_engine::au_table(&ua_engine::execute_au(&plan, &catalog).expect("au row"));
    for (threads, batch_rows) in [(1, 16), (2, 16), (1, 1024), (2, 1024)] {
        let out = ua_vecexec::stream(&plan, &catalog, opts(threads, batch_rows), Semantics::Au)
            .expect("au vec");
        assert_eq!(out.num_rows(), 24);
        let n = 3;
        for b in &out.batches {
            for c in 0..n {
                assert!(
                    b.column(n + c).shares_buffer(b.column(c))
                        && b.column(2 * n + c).shares_buffer(b.column(c)),
                    "column {c} lost its pointness (threads={threads} batch={batch_rows})"
                );
            }
        }
        assert_eq!(row.rows(), ua_vecexec::table_from_batches(&out).rows());
    }
}

/// One row whose interval product overflows `i64`: the kernel abandons
/// that row's batch — 16 rows of 48 — and no other, the row evaluator
/// widens the row to top, and the result is the row interpreter's.
#[test]
fn an_overflowing_row_sends_exactly_its_batch_to_the_row_path() {
    let mut rel = AuRelation::new(Schema::qualified("t", ["v"]));
    for i in 0..48i64 {
        let v = if i == 20 {
            RangeValue::new(
                Bound::Val(Value::Int(1)),
                Value::Int(1),
                Bound::Val(Value::Int(1 << 62)),
            )
        } else {
            RangeValue::new(
                Bound::Val(Value::Int(i)),
                Value::Int(i + 1),
                Bound::Val(Value::Int(i + 2)),
            )
        };
        rel.push(AuTuple {
            values: vec![v],
            mult: MultBound::certain(1),
        });
    }
    let catalog = Catalog::new();
    catalog.register("t", ua_engine::au_table(&rel));
    let plan = Plan::Map {
        input: Box::new(Plan::Scan("t".into())),
        columns: vec![ProjColumn::expr(Expr::named("v").mul(Expr::lit(4i64)), "w")],
    };
    let (result, stats) = ua_vecexec::execute(&plan, &catalog, opts(2, 16), Semantics::Au);
    let vec = result.expect("au vec");
    let row = ua_engine::au_table(&ua_engine::execute_au(&plan, &catalog).expect("au row"));
    assert_eq!(row.rows(), vec.rows());
    // [bg, lb, ub, m…]: the overflowing row is top around its wrapping-free bg.
    assert_eq!(
        &vec.rows()[20].values()[..3],
        &[Value::Int(4), Value::Null, Value::Null]
    );
    assert_eq!(
        &vec.rows()[21].values()[..3],
        &[Value::Int(88), Value::Int(84), Value::Int(92)]
    );
    let root = stats.expect("stats on").root;
    assert_eq!(root.name, "Map");
    assert_eq!(stat_extra(&root, "rowwise_rows"), Some(16));
}
