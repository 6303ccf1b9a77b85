//! The typed three-valued σ kernels against their specifications: over
//! random `[lb, bg, ub]` triples and random predicates,
//! `kernels::range_truth_masks` must equal `ua_ranges::truth_range` row by
//! row, bit for bit — or decline, sending the batch down the per-row path;
//! over random typed columns, the deterministic `kernels::truth_masks`
//! must equal `Expr::eval_truth` row by row. Batch lengths straddle the
//! 64-row words the kernels build their masks in.

use proptest::prelude::*;
use std::sync::Arc;
use ua_data::expr::{CmpOp, Expr, Truth};
use ua_data::schema::Schema;
use ua_data::value::{Value, F64};
use ua_ranges::{encode_row, flattened_schema, truth_range, AuTuple, Bound, MultBound, RangeValue};
use ua_vecexec::bitmap::Bitmap;
use ua_vecexec::kernels::{range_truth_masks, truth_masks};
use ua_vecexec::{ColumnBatch, ColumnVec};

/// User columns: two `Int` triples, a `Float` and a `Str` triple (always
/// dense), and a *hostile* `Int` column holding `±∞` bounds, top ranges
/// and definite NULLs, which must never be kernel-native.
const COLS: [&str; 5] = ["a", "b", "f", "s", "h"];
const HOSTILE: usize = 4;

fn float_of(code: u32) -> Value {
    Value::float(match code % 9 {
        0 => f64::NEG_INFINITY,
        1 => -1.5,
        2 => -0.0,
        3 => 0.0,
        4 => 0.5,
        5 => 2.0,
        6 => 3.0,
        7 => f64::INFINITY,
        _ => f64::NAN,
    })
}

fn str_of(code: u32) -> Value {
    Value::str(["a", "b", "c", "d"][code as usize % 4])
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

fn arb_cell(of: fn(u32) -> Value) -> impl Strategy<Value = RangeValue> {
    (0u32..9, 0u32..9, 0u32..9, 0u32..5)
        .prop_map(move |(x, y, z, p)| bounded([of(x), of(y), of(z)], p < 3))
}

fn int_of(code: u32) -> Value {
    Value::Int(i64::from(code) - 3)
}

fn arb_hostile() -> impl Strategy<Value = RangeValue> {
    (0u32..6, 0i64..5).prop_map(|(kind, x)| match kind {
        0 => RangeValue::null(),
        1 => RangeValue::top(Value::Null),
        2 => RangeValue::top(Value::Int(x)),
        3 => RangeValue::new(Bound::NegInf, Value::Int(x), Bound::Val(Value::Int(x + 1))),
        4 => RangeValue::new(Bound::Val(Value::Int(x - 1)), Value::Int(x), Bound::PosInf),
        _ => RangeValue::point(Value::Int(x)),
    })
}

/// Batch lengths: one word, a word and a row on either side of its edge,
/// anything up to 70, and long batches of three or four words.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        1usize..=70,
        129usize..=200,
    ]
}

/// Rows of the five user columns. Each dense column is, with probability
/// one half, points only — the shape a scan stores as one buffer.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<RangeValue>>> {
    let row = (
        arb_cell(int_of),
        arb_cell(int_of),
        arb_cell(float_of),
        arb_cell(str_of),
        arb_hostile(),
    )
        .prop_map(|(a, b, f, s, h)| vec![a, b, f, s, h]);
    (proptest::collection::vec(row, 200), arb_len(), 0u32..16).prop_map(
        |(mut rows, len, points)| {
            rows.truncate(len);
            for row in &mut rows {
                for (c, cell) in row.iter_mut().enumerate().take(HOSTILE) {
                    if points >> c & 1 == 1 {
                        *cell = RangeValue::point(cell.bg.clone());
                    }
                }
            }
            // Row 0 pins the hostile column to an untyped representation.
            rows[0][HOSTILE] = RangeValue::null();
            rows
        },
    )
}

/// The columns and the literal constructor of value family `family`:
/// mostly one comparable family per leaf (so the kernel engages), with
/// coercing Int/Float pairs and an anything-goes family — cross-family
/// pairs and the hostile column — mixed in.
fn family_of(family: u32, code: u32) -> (&'static [usize], fn(u32) -> Value) {
    let lits: [fn(u32) -> Value; 3] = [int_of, float_of, str_of];
    match family {
        0..=2 => (&[0, 1], int_of),
        3..=4 => (&[2], float_of),
        5 => (&[3], str_of),
        6..=7 => (&[0, 1, 2], lits[(code % 2) as usize]),
        _ => (&[0, 1, 2, 3, HOSTILE], lits[(code % 3) as usize]),
    }
}

fn literal(family: u32, code: u32) -> Expr {
    Expr::Lit(family_of(family, code).1(code))
}

/// A column of the family, or (one pick in `columns + 1`) a literal.
fn operand(family: u32, pick: u32, code: u32) -> Expr {
    let cols = family_of(family, code).0;
    match cols.get(pick as usize % (cols.len() + 1)) {
        Some(&c) => Expr::Col(c),
        None => literal(family, code),
    }
}

/// All six comparison operators.
fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Expr> {
    // (family, operand picks, literal codes)
    let seed = (0u32..10, 0u32..6, 0u32..6, 0u32..9, 0u32..9, 0u32..9);
    let leaf = prop_oneof![
        (arb_op(), seed.clone()).prop_map(|(op, (fam, p1, p2, c1, c2, _))| {
            Expr::Cmp(
                op,
                Box::new(operand(fam, p1, c1)),
                Box::new(operand(fam, p2, c2)),
            )
        }),
        // A literal on the left, which the word kernels flip.
        (arb_op(), seed.clone()).prop_map(|(op, (fam, p, _, c1, c2, _))| {
            Expr::Cmp(
                op,
                Box::new(literal(fam, c1)),
                Box::new(operand(fam, p, c2)),
            )
        }),
        seed.clone().prop_map(|(fam, p, _, c1, c2, c3)| {
            operand(fam, p, c1).between(literal(fam, c2), literal(fam, c3))
        }),
        (seed, 0usize..=3).prop_map(|((fam, p, _, c1, c2, c3), len)| {
            let items = [c1, c2, c3].map(|c| literal(fam, c));
            Expr::InList(Box::new(operand(fam, p, c1)), items[..len].to_vec())
        }),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(Expr::not),
            inner,
        ]
    })
}

/// The rows as one AU batch over the flattened `[bg | lb | ub | m*]`
/// layout, exactly as a scan would hand them to σ: with `share`, a bound
/// column equal to its `bg` column *is* that buffer, as the scan's
/// `share_point_bounds` stores it (a point operand); without, it is a
/// buffer of its own holding the same values (a ranged operand).
fn batch_of(rows: &[Vec<RangeValue>], share: bool) -> ColumnBatch {
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
    let n = COLS.len();
    for c in (0..n).filter(|_| share) {
        for bound in [n + c, 2 * n + c] {
            if columns[bound] == columns[c] {
                columns[bound] = columns[c].clone();
            }
        }
    }
    ColumnBatch::new(flat, columns, rows.len())
}

/// The value family each operand of every comparison leaf draws from
/// (`None` for the hostile column), leaf by leaf.
fn leaf_families(e: &Expr, out: &mut Vec<Vec<Option<u8>>>) {
    let family = |e: &Expr| match e {
        Expr::Col(0 | 1) | Expr::Lit(Value::Int(_)) => Some(0),
        Expr::Col(2) | Expr::Lit(Value::Float(_)) => Some(1),
        Expr::Col(3) | Expr::Lit(Value::Str(_)) => Some(2),
        _ => None,
    };
    match e {
        Expr::And(a, b) | Expr::Or(a, b) => {
            leaf_families(a, out);
            leaf_families(b, out);
        }
        Expr::Not(a) => leaf_families(a, out),
        Expr::Cmp(_, a, b) => out.push(vec![family(a), family(b)]),
        Expr::Between(e, lo, hi) => {
            out.push(vec![family(e), family(lo)]);
            out.push(vec![family(e), family(hi)]);
        }
        Expr::InList(e, list) => out.extend(list.iter().map(|i| vec![family(e), family(i)])),
        other => panic!("not generated: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn kernel_equals_truth_range_or_declines(
        rows in arb_rows(),
        pred in arb_predicate(),
        share in proptest::bool::ANY,
    ) {
        let batch = batch_of(&rows, share);
        prop_assert!(matches!(batch.column(HOSTILE), ColumnVec::Mixed(_)));
        let masks = range_truth_masks(&pred, &batch, COLS.len());
        let mut leaves = Vec::new();
        leaf_families(&pred, &mut leaves);
        let hostile = leaves.iter().flatten().any(Option::is_none);
        let same_family = leaves.iter().all(|l| l[0].is_some() && l[0] == l[1]);
        if hostile {
            prop_assert!(masks.is_none(), "±∞ / top / NULL cells are per-row work: {pred}");
        }
        if same_family {
            prop_assert!(masks.is_some(), "dense same-family triples are native: {pred}");
        }
        if let Some((possibly_true, possibly_false)) = masks {
            for (i, ranges) in rows.iter().enumerate() {
                let rt = truth_range(&pred, ranges);
                prop_assert!(!rt.u, "row {i} of {pred}: the kernel assumes no unknown");
                prop_assert_eq!(possibly_true.get(i), rt.t, "row {} t of {}", i, &pred);
                prop_assert_eq!(possibly_false.get(i), rt.f, "row {} f of {}", i, &pred);
            }
        }
    }

    /// `IS [NOT] NULL` over any stored column is a native leaf — the dense
    /// triples, and the hostile column's definite NULLs, top ranges and
    /// half-bounded ranges alike — alone or combined with the generated
    /// predicates, and it is `truth_range` bit for bit.
    #[test]
    fn is_null_leaves_equal_truth_range(
        rows in arb_rows(),
        pred in arb_predicate(),
        column in 0usize..COLS.len(),
        negate in 0u32..2,
        shape in 0u32..3,
    ) {
        let batch = batch_of(&rows, negate == 1);
        let mut leaf = Expr::IsNull(Box::new(Expr::Col(column)));
        if negate == 1 {
            leaf = leaf.not();
        }
        prop_assert!(range_truth_masks(&leaf, &batch, COLS.len()).is_some(), "{leaf}");
        let pred = match shape {
            0 => leaf,
            1 => leaf.and(pred),
            _ => pred.or(leaf),
        };
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

/// The deterministic kernel's typed user columns: two `Int`, two `Float`
/// and two `Str` columns, never NULL.
const DET_COLS: [&str; 6] = ["i", "j", "f", "g", "s", "t"];

fn det_int(code: u32) -> i64 {
    [
        i64::MIN,
        i64::MIN + 1,
        -3,
        -1,
        0,
        1,
        2,
        3,
        i64::MAX - 1,
        i64::MAX,
    ][code as usize % 10]
}

fn det_float(code: u32) -> F64 {
    F64::new(
        [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -0.0,
            0.0,
            0.5,
            2.0,
            3.0,
            f64::INFINITY,
            f64::NAN,
        ][code as usize % 10],
    )
}

fn det_str(code: u32) -> Arc<str> {
    ["", "a", "ab", "b", "é"][code as usize % 5].into()
}

/// One batch of typed columns, row `r` drawn from `codes[r]`.
fn det_batch(codes: &[[u32; 6]]) -> ColumnBatch {
    let col = |k: usize| -> ColumnVec {
        let codes = codes.iter().map(|row| row[k]);
        match k / 2 {
            0 => ColumnVec::Int(Arc::new(codes.map(det_int).collect())),
            1 => ColumnVec::Float(Arc::new(codes.map(det_float).collect())),
            _ => ColumnVec::Str(Arc::new(codes.map(det_str).collect())),
        }
    };
    let schema = Schema::qualified("d", DET_COLS);
    ColumnBatch::new(schema, (0..6).map(col).collect(), codes.len())
}

/// A literal of family `family % 3`: `Int`, `Float` or `Str`.
fn det_literal(family: u32, code: u32) -> Expr {
    Expr::Lit(match family % 3 {
        0 => Value::Int(det_int(code)),
        1 => Value::Float(det_float(code)),
        _ => Value::Str(det_str(code)),
    })
}

/// One of the family's two columns, or (one pick in three) a literal.
fn det_operand(family: u32, pick: u32, code: u32) -> Expr {
    match pick % 3 {
        2 => det_literal(family, code),
        p => Expr::Col((family % 3 * 2 + p) as usize),
    }
}

/// Leaves over one family — the word kernels — and, one leaf in four,
/// across two (`Int` against `Float` promotes row by row, NaN leaving the
/// row unknown; `Str` against a number is unknown throughout).
fn arb_det_predicate() -> impl Strategy<Value = Expr> {
    // (family, cross-family when 0, operand picks, literal codes)
    let seed = (0u32..3, 0u32..4, 0u32..3, 0u32..3, 0u32..10, 0u32..10);
    let other = |family: u32, cross: u32| if cross == 0 { family + 1 } else { family };
    let leaf = prop_oneof![
        (arb_op(), seed.clone()).prop_map(move |(op, (fam, cross, p1, p2, c1, c2))| {
            Expr::Cmp(
                op,
                Box::new(det_operand(fam, p1, c1)),
                Box::new(det_operand(other(fam, cross), p2, c2)),
            )
        }),
        seed.clone().prop_map(move |(fam, cross, p, _, c1, c2)| {
            let hi = det_literal(other(fam, cross), c2);
            det_operand(fam, p, c1).between(det_literal(fam, c1 + c2), hi)
        }),
        (seed, 0usize..=3).prop_map(move |((fam, cross, p, _, c1, c2), len)| {
            let items = [c1, c2, c1 + 3].map(|c| det_literal(other(fam, cross * c), c));
            Expr::InList(Box::new(det_operand(fam, p, c1)), items[..len].to_vec())
        }),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(Expr::not),
            inner,
        ]
    })
}

fn arb_det_codes() -> impl Strategy<Value = Vec<[u32; 6]>> {
    let row = (0u32..10, 0u32..10, 0u32..10, 0u32..10, 0u32..10, 0u32..10)
        .prop_map(|(a, b, c, d, e, f)| [a, b, c, d, e, f]);
    let len = prop_oneof![Just(0usize), arb_len()];
    (proptest::collection::vec(row, 200), len).prop_map(|(mut rows, len)| {
        rows.truncate(len);
        rows
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// The deterministic twin: `truth_masks` over typed columns is
    /// `Expr::eval_truth` row by row — `i64` extremes, NaN, `−0.0` and
    /// `±∞` included — and never marks a row both true and false.
    #[test]
    fn det_kernel_equals_eval_truth(codes in arb_det_codes(), pred in arb_det_predicate()) {
        let batch = det_batch(&codes);
        let (t, f) = truth_masks(&pred, &batch).expect("typed columns evaluate");
        prop_assert_eq!((t.len(), f.len()), (codes.len(), codes.len()));
        for i in 0..codes.len() {
            let row = batch.row(i);
            let scalar = pred.eval_truth(&row).expect("scalar evaluation");
            let kernel = match (t.get(i), f.get(i)) {
                (true, false) => Truth::True,
                (false, true) => Truth::False,
                (false, false) => Truth::Unknown,
                (true, true) => panic!("row {i} of {pred} is both true and false"),
            };
            prop_assert_eq!(kernel, scalar, "row {} of {}", i, &pred);
        }
    }
}

/// An empty batch yields empty masks from both kernels (or the AU kernel
/// declines: an empty AU batch carries no typed triple).
#[test]
fn empty_batches_give_empty_masks() {
    let pred = Expr::Col(0).lt(Expr::Lit(Value::Int(1)));
    let (t, f) = truth_masks(&pred, &det_batch(&[])).expect("det kernel");
    assert_eq!((t, f), (Bitmap::filled(0, false), Bitmap::filled(0, false)));
    if let Some((t, f)) = range_truth_masks(&pred, &batch_of(&[], true), COLS.len()) {
        assert!(t.is_empty() && f.is_empty());
    }
}
