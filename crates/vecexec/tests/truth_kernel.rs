//! The typed three-valued σ kernel against its specification: over random
//! `[lb, bg, ub]` triples and random predicates,
//! `kernels::range_truth_masks` must equal `ua_ranges::truth_range` row by
//! row, bit for bit — or decline, sending the batch down the per-row path.

use proptest::prelude::*;
use ua_data::expr::{CmpOp, Expr};
use ua_data::schema::Schema;
use ua_data::value::Value;
use ua_ranges::{encode_row, flattened_schema, truth_range, AuTuple, Bound, MultBound, RangeValue};
use ua_vecexec::kernels::range_truth_masks;
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

fn arb_rows() -> impl Strategy<Value = Vec<Vec<RangeValue>>> {
    let row = (
        arb_cell(int_of),
        arb_cell(int_of),
        arb_cell(float_of),
        arb_cell(str_of),
        arb_hostile(),
    )
        .prop_map(|(a, b, f, s, h)| vec![a, b, f, s, h]);
    proptest::collection::vec(row, 1..=70).prop_map(|mut rows| {
        // Row 0 pins the hostile column to an untyped representation.
        rows[0][HOSTILE] = RangeValue::null();
        rows
    })
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

fn arb_predicate() -> impl Strategy<Value = Expr> {
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    // (family, operand picks, literal codes)
    let seed = (0u32..10, 0u32..6, 0u32..6, 0u32..9, 0u32..9, 0u32..9);
    let leaf = prop_oneof![
        (op, seed.clone()).prop_map(|(op, (fam, p1, p2, c1, c2, _))| {
            Expr::Cmp(
                op,
                Box::new(operand(fam, p1, c1)),
                Box::new(operand(fam, p2, c2)),
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
/// layout, exactly as a scan would hand them to σ.
fn batch_of(rows: &[Vec<RangeValue>]) -> ColumnBatch {
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
    let columns = (0..flat.arity())
        .map(|c| ColumnVec::from_values(encoded.iter().map(move |r| r.get(c).expect("arity"))))
        .collect();
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
    fn kernel_equals_truth_range_or_declines(rows in arb_rows(), pred in arb_predicate()) {
        let batch = batch_of(&rows);
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
        let batch = batch_of(&rows);
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
