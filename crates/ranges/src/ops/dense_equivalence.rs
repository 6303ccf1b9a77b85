//! The typed γ / δ paths change nothing: [`aggregate_cols`] and
//! [`distinct_cols`] over dense `Int` / `Float` triples return exactly what
//! they return over the same cells as per-row ranges — same groups, order,
//! output column representations, bounds and multiplicity triples — and
//! [`distinct`] still returns what δ's original row-at-a-time merge
//! ([`distinct_reference`]) returns; and [`aggregate_cols`], which folds
//! most groups in its passes over the input, returns what listing every
//! group's possible members naively returns ([`aggregate_reference`]).

use super::*;
use proptest::prelude::*;

/// δ as it was written before the column-major rewrite: rows merge by
/// selected-guess tuple in first-seen order through a tuple-keyed map,
/// hulling ranges and merging multiplicities row by row.
fn distinct_reference(rel: &AuRelation) -> AuRelation {
    let mut order: Vec<Tuple> = Vec::new();
    let mut merged: FxHashMap<Tuple, AuTuple> = FxHashMap::default();
    for row in rel.rows() {
        let key = row.bg_tuple();
        match merged.get_mut(&key) {
            Some(acc) => {
                for (a, r) in acc.values.iter_mut().zip(&row.values) {
                    *a = a.hull(r);
                }
                acc.mult = MultBound::new(
                    acc.mult.lb.max(u64::from(row.mult.lb >= 1)),
                    acc.mult.bg.max(u64::from(row.mult.bg >= 1)),
                    acc.mult.ub.saturating_add(row.mult.ub),
                );
            }
            None => {
                order.push(key.clone());
                merged.insert(
                    key,
                    AuTuple {
                        values: row.values.clone(),
                        mult: MultBound::new(
                            u64::from(row.mult.lb >= 1),
                            u64::from(row.mult.bg >= 1),
                            row.mult.ub,
                        ),
                    },
                );
            }
        }
    }
    let mut out = AuRelation::new(rel.schema().clone());
    for key in order {
        out.push(merged.remove(&key).expect("recorded"));
    }
    out
}

/// γ without its passes: every group's possible members listed naively —
/// every row whose key ranges intersect the group's hulls, ascending — and
/// fed to the same accumulator [`aggregate_cols`] folds with. No plain
/// groups, no coercion buckets, no ranged-row shortlist.
fn aggregate_reference(input: &AggCols, kinds: &[AggFunc]) -> AuCols {
    let keys: Vec<ColView> = input.keys.iter().map(TripleCol::view).collect();
    let args: Vec<Option<ColView>> = input
        .args
        .iter()
        .map(|c| c.as_ref().map(TripleCol::view))
        .collect();
    let mults = &input.mults;
    let grouped = !keys.is_empty();
    let KeyPass {
        groups,
        points,
        hulls,
        mut own,
    } = KeyPass::of(&keys, mults);
    if !grouped && mults.is_empty() {
        own.push(Own::EMPTY);
    }
    let mut cols: Vec<Vec<RangeValue>> = vec![Vec::new(); keys.len() + kinds.len()];
    let mut out_mults = Vec::new();
    for (g, o) in own.iter().enumerate() {
        let case_a = hulls.iter().all(|h| h[g].is_point());
        let possible: Vec<usize> = (0..mults.len())
            .filter(|&i| keys.iter().zip(&hulls).all(|(c, h)| c.intersects(i, &h[g])))
            .collect();
        let own_rows: Vec<usize> = (0..mults.len()).filter(|&i| groups.of[i] == g).collect();
        for (col, h) in cols.iter_mut().zip(&hulls) {
            col.push(h[g].range());
        }
        let agg_cols = cols[keys.len()..].iter_mut();
        for ((&kind, &arg), col) in kinds.iter().zip(&args).zip(agg_cols) {
            col.push(with_arg!(arg, a => {
                let mut bounds = Bounds::new(kind);
                for &i in &possible {
                    let certain = case_a && mults[i].lb >= 1 && points[i] && groups.of[i] == g;
                    bounds.add(a, i, mults[i], certain);
                }
                let (lb, ub) = bounds.finish(grouped);
                let mut sg = AggState::new(kind);
                for &i in own_rows.iter().filter(|&&i| mults[i].bg >= 1) {
                    a.sg(&mut sg, i, mults[i].bg);
                }
                RangeValue::new(lb, sg.finish(), ub)
            }));
        }
        out_mults.push(if grouped {
            let in_sg = u64::from(o.in_sg);
            let ub = if case_a {
                1
            } else {
                possible
                    .iter()
                    .map(|&i| mults[i].ub)
                    .fold(0, u64::saturating_add)
            };
            MultBound::new(u64::from(o.certain), in_sg, ub.max(in_sg).max(1))
        } else {
            MultBound::certain(1)
        });
    }
    AuCols::of(cols, out_mults)
}

/// `aggregate_cols` and its naive reference agree on `input` (generated
/// from `case`); the first one's [`AuCols::listed_rows`].
fn check_against_reference(input: &AggCols, case: &dyn std::fmt::Debug) -> u64 {
    let out = aggregate_cols(input, &KINDS);
    let reference = aggregate_reference(input, &KINDS);
    assert_eq!(out.cols, reference.cols, "{case:?}");
    assert_eq!(out.mults, reference.mults, "{case:?}");
    out.listed_rows
}

/// Rows per generated case (a case keeps a prefix of them, possibly none).
const MAX_ROWS: usize = 10;

/// One generated column: canonical dense triples of one type.
#[derive(Clone, Debug)]
enum Cells {
    Int(Vec<[i64; 3]>),
    Float(Vec<[F64; 3]>),
}

impl Cells {
    /// The first `n` cells as a dense column, or (`!dense`) as the same
    /// ranges row by row.
    fn column(&self, n: usize, dense: bool) -> TripleCol {
        fn split<T: Copy>(cells: &[[T; 3]]) -> [Vec<T>; 3] {
            [0, 1, 2].map(|k| cells.iter().map(|c| c[k]).collect())
        }
        match (self, dense) {
            (Cells::Int(c), true) => {
                let [lb, bg, ub] = split(&c[..n]);
                TripleCol::Int { lb, bg, ub }
            }
            (Cells::Float(c), true) => {
                let [lb, bg, ub] = split(&c[..n]);
                TripleCol::Float { lb, bg, ub }
            }
            (Cells::Int(c), false) => TripleCol::Rows(
                c[..n]
                    .iter()
                    .map(|&[l, b, u]| dense_range(l, b, u))
                    .collect(),
            ),
            (Cells::Float(c), false) => TripleCol::Rows(
                c[..n]
                    .iter()
                    .map(|&[l, b, u]| dense_range(l, b, u))
                    .collect(),
            ),
        }
    }
}

/// A cell drawn from `pool`: a point three times in four, else three draws
/// sorted — canonical either way.
fn arb_cell<T: Copy + Ord + 'static>(pool: Vec<T>) -> impl Strategy<Value = [T; 3]> {
    let pick = 0..pool.len();
    (pick.clone(), pick.clone(), pick, 0u32..4).prop_map(move |(a, b, c, shape)| {
        if shape < 3 {
            [pool[a]; 3]
        } else {
            let mut t = [pool[a], pool[b], pool[c]];
            t.sort();
            t
        }
    })
}

/// A column of `MAX_ROWS` cells, `Int` or `Float`. The pools overlap on
/// `1` / `1.0` (equal points of two types), carry the `i64` extremes and
/// `−0.0` (which `F64` stores as `0.0`) and NaN.
fn arb_cells() -> impl Strategy<Value = Cells> {
    let ints = vec![i64::MIN, -1, 0, 1, 1, 2, i64::MAX];
    let floats: Vec<F64> = [-0.0, 0.0, 1.0, 1.0, 1.5, -2.5, f64::NAN]
        .into_iter()
        .map(F64::new)
        .collect();
    prop_oneof![
        proptest::collection::vec(arb_cell(ints), MAX_ROWS).prop_map(Cells::Int),
        proptest::collection::vec(arb_cell(floats), MAX_ROWS).prop_map(Cells::Float),
    ]
}

/// Multiplicities `0 ≤ lb ≤ bg ≤ ub ≤ 3` — `lb = 0`, `bg = 0` and even
/// `ub = 0` included.
fn arb_mult() -> impl Strategy<Value = MultBound> {
    (0u64..4, 0u64..4, 0u64..4).prop_map(|(a, b, c)| {
        let mut m = [a, b, c];
        m.sort_unstable();
        MultBound::new(m[0], m[1], m[2])
    })
}

/// Every aggregate kind, each over its own argument column but `COUNT(*)`.
const KINDS: [AggFunc; 6] = [
    AggFunc::CountStar,
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Avg,
];

/// One γ / δ input: `rows` rows, `n_keys` of the two key columns (none:
/// global aggregation), one argument column per non-`COUNT(*)` kind.
#[derive(Clone, Debug)]
struct Case {
    rows: usize,
    n_keys: usize,
    keys: [Cells; 2],
    args: [Cells; 5],
    mults: Vec<MultBound>,
}

impl Case {
    /// The γ input, dense or per row.
    fn aggregation(&self, dense: bool) -> AggCols {
        let args = self.args.iter().map(|a| Some(a.column(self.rows, dense)));
        AggCols {
            keys: self.keys[..self.n_keys]
                .iter()
                .map(|k| k.column(self.rows, dense))
                .collect(),
            args: std::iter::once(None).chain(args).collect(),
            mults: self.mults[..self.rows].to_vec(),
        }
    }

    /// The δ input over every column as an attribute, dense or per row.
    fn distinct(&self, dense: bool) -> AggCols {
        AggCols {
            keys: self
                .keys
                .iter()
                .chain(&self.args)
                .map(|c| c.column(self.rows, dense))
                .collect(),
            args: Vec::new(),
            mults: self.mults[..self.rows].to_vec(),
        }
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    let cols = (
        arb_cells(),
        arb_cells(),
        arb_cells(),
        arb_cells(),
        arb_cells(),
        arb_cells(),
    );
    (
        0..=MAX_ROWS,
        0usize..3,
        cols,
        arb_cells(),
        proptest::collection::vec(arb_mult(), MAX_ROWS),
    )
        .prop_map(|(rows, n_keys, (k0, k1, a0, a1, a2, a3), a4, mults)| Case {
            rows,
            n_keys,
            keys: [k0, k1],
            args: [a0, a1, a2, a3, a4],
            mults,
        })
}

/// One attribute of a mixed relation: `1` / `1.0` / `1.5` / NaN points,
/// strings, definite NULL, top and ranged cells.
fn arb_mixed_attr() -> BoxedStrategy<RangeValue> {
    let point = |v: Value| Just(RangeValue::point(v)).boxed();
    Union::new(vec![
        (0i64..3)
            .prop_map(|i| RangeValue::point(Value::Int(i)))
            .boxed(),
        point(Value::float(1.0)),
        point(Value::float(1.5)),
        point(Value::float(f64::NAN)),
        point(Value::str("a")),
        point(Value::Null),
        Just(RangeValue::top(Value::Int(1))).boxed(),
        (0i64..2, 0i64..2)
            .prop_map(|(a, b)| {
                RangeValue::new(
                    Bound::Val(Value::Int(0)),
                    Value::Int(a),
                    Bound::Val(Value::float((a + b) as f64 + 0.5)),
                )
            })
            .boxed(),
    ])
    .boxed()
}

fn arb_mixed_rel() -> impl Strategy<Value = AuRelation> {
    let row = (proptest::collection::vec(arb_mixed_attr(), 2), arb_mult());
    proptest::collection::vec(row, 0..=MAX_ROWS).prop_map(|rows| {
        let mut rel = AuRelation::new(Schema::qualified("r", ["a", "b"]));
        for (values, mult) in rows {
            rel.push(AuTuple { values, mult });
        }
        rel
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn typed_aggregation_equals_the_per_row_fold(case in arb_case()) {
        prop_assert_eq!(
            aggregate_cols(&case.aggregation(true), &KINDS),
            aggregate_cols(&case.aggregation(false), &KINDS),
            "{:?}", case
        );
    }

    #[test]
    fn typed_distinct_equals_the_per_row_merge(case in arb_case()) {
        let input = case.distinct(false);
        prop_assert_eq!(distinct_cols(&case.distinct(true)), distinct_cols(&input), "{:?}", case);
        // The row engine's δ over the same rows is the original merge
        // (`ub = 0` rows drop as the relation takes them).
        let mut rel = AuRelation::new(Schema::qualified("r", (0..7).map(|c| format!("c{c}"))));
        for i in 0..case.rows {
            rel.push(AuTuple {
                values: input.keys.iter().map(|c| c.range(i)).collect(),
                mult: input.mults[i],
            });
        }
        prop_assert_eq!(distinct(&rel), distinct_reference(&rel), "{:?}", case);
    }

    #[test]
    fn distinct_equals_the_reference_over_mixed_values(rel in arb_mixed_rel()) {
        prop_assert_eq!(distinct(&rel), distinct_reference(&rel), "{:?}", rel);
    }

    #[test]
    fn aggregation_equals_the_naive_member_lists(case in arb_case()) {
        for dense in [true, false] {
            check_against_reference(&case.aggregation(dense), &case);
        }
    }

    #[test]
    fn aggregation_over_mixed_values_equals_the_naive_member_lists(rel in arb_mixed_rel()) {
        let column = |c: usize| {
            TripleCol::Rows(rel.rows().iter().map(|r| r.values[c].clone()).collect())
        };
        for n_keys in 0..3 {
            let input = AggCols {
                keys: (0..n_keys).map(column).collect(),
                args: std::iter::once(None).chain((0..5).map(|_| Some(column(1)))).collect(),
                mults: rel.rows().iter().map(|r| r.mult).collect(),
            };
            check_against_reference(&input, &rel);
        }
    }
}

/// One γ input over one key column, every aggregate over `arg`.
fn one_key(key: TripleCol, arg: TripleCol, mults: Vec<MultBound>) -> AggCols {
    AggCols {
        keys: vec![key],
        args: std::iter::once(None)
            .chain((0..5).map(|_| Some(arg.clone())))
            .collect(),
        mults,
    }
}

/// Each way a group can fold, with interleaved groups, dense and per row:
/// the reference agrees, and `listed_rows` shows which route each took.
#[test]
fn every_group_shape_equals_the_naive_member_lists() {
    let ints =
        |cells: &[[i64; 3]], dense: bool| Cells::Int(cells.to_vec()).column(cells.len(), dense);
    let mults = vec![
        MultBound::certain(1),
        MultBound::new(0, 1, 2),
        MultBound::new(1, 2, 3),
        MultBound::new(0, 0, 1),
        MultBound::certain(2),
    ];
    let arg = [[4, 4, 4], [-1, 0, 3], [7, 7, 7], [2, 5, 5], [0, 0, 0]];
    for dense in [true, false] {
        let arg = ints(&arg, dense);
        // Plain groups only: point keys `1 2 1 3 2`.
        let plain = one_key(
            ints(&[[1; 3], [2; 3], [1; 3], [3; 3], [2; 3]], dense),
            arg.clone(),
            mults.clone(),
        );
        assert_eq!(check_against_reference(&plain, &"plain"), 0);
        // Row 2 is ranged `[1, 2]` in group `2`: group `2`'s hull is not a
        // point (it lists rows 0-3, all but group `3`'s) and row 2 joins
        // group `1`'s point hull (rows 0, 2, 3); group `3` stays plain.
        let ranged = one_key(
            ints(&[[1; 3], [2; 3], [1, 2, 2], [1; 3], [3; 3]], dense),
            arg.clone(),
            mults.clone(),
        );
        assert_eq!(check_against_reference(&ranged, &"ranged"), 4 + 3);
    }
    // `1` and `1.0` are two groups sharing a normalized key: each lists
    // the four point rows at that key. `2.0` stays plain.
    let mixed = one_key(
        TripleCol::Rows(
            [
                Value::Int(1),
                Value::float(1.0),
                Value::Int(1),
                Value::float(2.0),
                Value::float(1.0),
            ]
            .into_iter()
            .map(RangeValue::point)
            .collect(),
        ),
        ints(&arg, false),
        mults,
    );
    assert_eq!(check_against_reference(&mixed, &"mixed"), 4 + 4);
    // A global aggregate over an empty input is one plain group.
    let empty = AggCols {
        keys: Vec::new(),
        args: std::iter::once(None)
            .chain((0..5).map(|_| Some(TripleCol::Rows(Vec::new()))))
            .collect(),
        mults: Vec::new(),
    };
    assert_eq!(check_against_reference(&empty, &"empty"), 0);
    assert_eq!(
        aggregate_cols(&empty, &KINDS).mults,
        [MultBound::certain(1)]
    );
}

/// The properties above are not vacuous: equal points of two types stay
/// two δ groups, and an output column is dense exactly when its ranges are
/// finite triples of one type.
#[test]
fn two_types_stay_apart_and_dense_columns_hold_one_finite_type() {
    let mut rel = AuRelation::new(Schema::qualified("r", ["a"]));
    for v in [Value::Int(1), Value::float(1.0), Value::Int(1)] {
        rel.push(AuTuple {
            values: vec![RangeValue::point(v)],
            mult: MultBound::certain(1),
        });
    }
    let out = distinct(&rel);
    assert_eq!(out.rows().len(), 2, "`1` and `1.0` are two tuples");
    assert_eq!(out.rows()[0].mult, MultBound::new(1, 1, 2));

    let point = RangeValue::point(Value::Int(3));
    let dense = TripleCol::of_ranges(vec![point.clone(), dense_range(1i64, 2, 5)]);
    assert!(matches!(&dense, TripleCol::Int { bg, .. } if bg == &[3, 2]));
    assert_eq!(dense.range(1), dense_range(1i64, 2, 5));
    for other in [
        RangeValue::point(Value::float(3.0)),
        RangeValue::top(Value::Int(4)),
    ] {
        let rows = TripleCol::of_ranges(vec![point.clone(), other]);
        assert!(matches!(&rows, TripleCol::Rows(r) if r.len() == 2));
    }
    assert_eq!(
        TripleCol::of_ranges(Vec::new()),
        TripleCol::Rows(Vec::new())
    );
}
