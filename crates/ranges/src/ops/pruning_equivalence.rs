//! Hashed candidate generation changes nothing: [`except`] (both variants),
//! [`outer_join`] under `NOT IN`'s null-aware predicate and the keyed
//! [`join`] against their all-pairs references — identical rows, order and
//! `[lb, bg, ub]` triples — and [`hash_join`] with either build side against
//! [`join`] as a multiset, over inputs that mix everything the index
//! special-cases — and the rule underneath: every pair [`SgKeyIndex`]
//! prunes, over key columns of any mix of families, is a certainly-false
//! key equality.

use super::*;
use proptest::prelude::*;
use ua_data::algebra::null_aware_eq;

/// One attribute: points (with `1` / `1.0` / `1.5` sharing a family, and
/// `2⁵³ + 1` / `2⁵³ as f64`, which a lossy `i64 → f64` comparison calls
/// equal while their hash keys differ), NaN, definite NULL, top, ranged —
/// and, `with_str`, strings next to the numbers, which makes the column
/// cross-family.
fn arb_attr(with_str: bool) -> BoxedStrategy<RangeValue> {
    let point = |v: Value| Just(RangeValue::point(v)).boxed();
    let mut arms = vec![
        (0i64..4)
            .prop_map(|i| RangeValue::point(Value::Int(i)))
            .boxed(),
        (0i64..4)
            .prop_map(|i| RangeValue::point(Value::Int(i)))
            .boxed(),
        point(Value::float(1.0)),
        point(Value::float(1.5)),
        point(Value::float(f64::NAN)),
        point(Value::Int((1 << 53) + 1)),
        point(Value::float((1i64 << 53) as f64)),
        point(Value::Null),
        Just(RangeValue::top(Value::Null)).boxed(),
        Just(RangeValue::top(Value::Int(2))).boxed(),
        (0i64..3, 0i64..2, 0i64..2)
            .prop_map(|(lo, a, b)| {
                RangeValue::new(
                    Bound::Val(Value::Int(lo)),
                    Value::Int(lo + a),
                    Bound::Val(Value::Int(lo + a + b)),
                )
            })
            .boxed(),
    ];
    if with_str {
        arms.push(point(Value::str("1")));
        arms.push(point(Value::str("a")));
    }
    Union::new(arms).boxed()
}

/// Up to eight rows over `cols`; multiplicities `0 ≤ lb ≤ bg ≤ ub ≤ 3`
/// (`ub = 0` rows vanish at `push`, `lb = bg = 0` rows stay).
fn arb_rel(
    qualifier: &'static str,
    cols: &'static [&'static str],
    with_str: bool,
) -> impl Strategy<Value = AuRelation> {
    let row = (
        proptest::collection::vec(arb_attr(with_str), cols.len()..=cols.len()),
        proptest::collection::vec(0u64..4, 3..=3),
    );
    proptest::collection::vec(row, 0..=8).prop_map(move |rows| {
        let mut rel = AuRelation::new(Schema::qualified(qualifier, cols.iter().copied()));
        for (values, mut m) in rows {
            m.sort_unstable();
            rel.push(AuTuple {
                values,
                mult: MultBound::new(m[0], m[1], m[2]),
            });
        }
        rel
    })
}

/// Both sides of one case, strings in both or in neither.
fn arb_sides(
    l_cols: &'static [&'static str],
    r_cols: &'static [&'static str],
) -> impl Strategy<Value = (AuRelation, AuRelation)> {
    let sides = move |with_str| {
        (
            arb_rel("l", l_cols, with_str),
            arb_rel("r", r_cols, with_str),
        )
    };
    prop_oneof![sides(false), sides(true)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn hashed_except_equals_pairwise(sides in arb_sides(&["a", "b"], &["a", "b"])) {
        let (l, r) = sides;
        for all in [true, false] {
            prop_assert_eq!(
                except(&l, &r, all).unwrap(),
                except_pairwise(&l, &r, all).unwrap(),
                "all={} left={:?} right={:?}", all, l, r
            );
        }
    }

    #[test]
    fn hashed_not_in_outer_join_equals_pairwise(sides in arb_sides(&["x", "p"], &["k"])) {
        let (l, r) = sides;
        let not_in = null_aware_eq(Expr::named("l.x"), Expr::named("r.k"));
        // `θ OR FALSE` has θ's truth ranges and selected-guess truth but no
        // recognisable key: the all-pairs loop.
        let pairwise = not_in.clone().or(Expr::lit(false));
        for left_kind in [true, false] {
            prop_assert_eq!(
                outer_join(&l, &r, Some(&not_in), left_kind).unwrap(),
                outer_join(&l, &r, Some(&pairwise), left_kind).unwrap(),
                "left_kind={} left={:?} right={:?}", left_kind, l, r
            );
        }
    }

    #[test]
    fn hashed_join_equals_pairwise(sides in arb_sides(&["a", "b"], &["a", "b"])) {
        let (l, r) = sides;
        let col = Expr::named;
        let sorted = |rel: AuRelation| {
            let mut rows = crate::relation::encode_rows(&rel);
            rows.sort();
            rows
        };
        // Hash-join keys and residual. `+` over a string is a type error a
        // keyed join raises evaluating keys, the all-pairs loop on a pair.
        let mut shapes = vec![
            (vec![(col("l.a"), col("r.a"))], None),
            (vec![(col("l.a"), col("r.a")), (col("l.b"), col("r.b"))], None),
            (vec![(col("l.a"), col("r.b"))], Some(col("l.b").lt(col("r.a")))),
        ];
        let cells = l.rows().iter().chain(r.rows()).flat_map(|t| &t.values);
        if cells.clone().all(|v| !matches!(v.bg, Value::Str(_))) {
            shapes.push((vec![(col("l.a").add(Expr::lit(1i64)), col("r.b"))], None));
        }
        let mut thetas = vec![null_aware_eq(col("l.a"), col("r.a"))];
        for (keys, residual) in &shapes {
            let equalities = keys.iter().map(|(a, b)| a.clone().eq(b.clone()));
            let theta = Expr::conjunction(equalities.chain(residual.clone()));
            let keyed = sorted(join(&l, &r, Some(&theta)).unwrap());
            for build_left in [false, true] {
                let hashed = hash_join(&l, &r, keys, residual.as_ref(), build_left).unwrap();
                let context = format!("{theta} build_left={build_left} {l:?} {r:?}");
                prop_assert_eq!(sorted(hashed), keyed.clone(), "{}", context);
            }
            thetas.push(theta);
        }
        for theta in thetas {
            let pairwise = theta.clone().or(Expr::lit(false));
            let (keyed, all_pairs) = (join(&l, &r, Some(&theta)), join(&l, &r, Some(&pairwise)));
            prop_assert_eq!(keyed.unwrap(), all_pairs.unwrap(), "{} {:?} {:?}", theta, l, r);
        }
    }
}

fn rel_of(qualifier: &str, rows: Vec<Vec<RangeValue>>) -> AuRelation {
    let mut rel = AuRelation::new(Schema::qualified(qualifier, ["a"]));
    for values in rows {
        rel.push(AuTuple {
            values,
            mult: MultBound::certain(1),
        });
    }
    rel
}

/// The property above is not vacuous: the index really prunes same-family
/// inputs, really makes a probe key outside the build side's family fuzzy
/// (every build row its candidate), and `NOT IN`'s predicate really is
/// keyed.
#[test]
fn the_index_prunes_exactly_when_it_may() {
    let int = |i| vec![RangeValue::point(Value::Int(i))];
    let ranged = vec![RangeValue::new(
        Bound::Val(Value::Int(0)),
        Value::Int(1),
        Bound::Val(Value::Int(5)),
    )];
    let l = rel_of("l", vec![int(1), vec![RangeValue::null()], ranged.clone()]);
    let r = rel_of(
        "r",
        vec![int(1), int(2), vec![RangeValue::null()], ranged, int(1)],
    );
    let index = SgKeyIndex::build_for(r.rows(), &[0], l.rows(), &[0], true);
    let cand = candidates(&index, 0);
    assert_eq!(cand, [0, 3, 4], "bucket of 1 merged with the ranged row");
    let cand = candidates(&index, 1);
    assert_eq!(cand, [2, 3], "a definite NULL matches NULLs and fuzzy rows");
    let cand = candidates(&index, 2);
    assert_eq!(cand, [0, 1, 2, 3, 4], "a ranged probe scans everything");

    let strs = rel_of("s", vec![vec![RangeValue::point(Value::str("1"))]]);
    let cand = candidates(
        &SgKeyIndex::build_for(r.rows(), &[0], strs.rows(), &[0], true),
        0,
    );
    assert_eq!(
        cand,
        [0, 1, 2, 3, 4],
        "Int vs Str points are possibly equal"
    );

    let schema = l.schema().concat(r.schema());
    let not_in = null_aware_eq(Expr::named("l.a"), Expr::named("r.a"))
        .bind(&schema)
        .unwrap();
    let keys = candidate_keys(&not_in, 1);
    let (lv, rv) = WithKeys::pair(&l, &r, &keys).unwrap();
    let join = JoinSelect::new(&lv, &rv, (1, 1), Some(&not_in), &keys, false);
    let index = join
        .index
        .as_ref()
        .expect("NOT IN's predicate is keyed on x = k");
    let cand = candidates(index, 0);
    assert_eq!(cand, [0, 2, 3, 4], "under `=` a definite-NULL key is fuzzy");
}

/// The candidates `index` lists for its probe row `i`.
fn candidates(index: &SgKeyIndex, i: usize) -> Vec<usize> {
    let mut cand = Vec::new();
    index.candidates_of(i, &mut cand);
    cand
}

/// One key cell: an `Int`, `Float`, `Str` or `Bool` point, a NaN, a definite
/// NULL, a top or a ranged value — every family next to every other.
fn arb_key() -> BoxedStrategy<RangeValue> {
    let bools = proptest::bool::ANY.prop_map(|b| RangeValue::point(Value::Bool(b)));
    Union::new(vec![arb_attr(true), bools.boxed()]).boxed()
}

/// Up to eight rows of `arity` key cells.
fn arb_keys(arity: usize) -> impl Strategy<Value = Vec<Vec<RangeValue>>> {
    proptest::collection::vec(proptest::collection::vec(arb_key(), arity..=arity), 0..=8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The per-row family rule is sound on its own: whichever side builds,
    /// under join equality and under IS-NOT-DISTINCT matching, a pair the
    /// index leaves out of a probe row's candidates cannot match in any
    /// world, and a bucket hit matches in every world.
    #[test]
    fn every_pruned_pair_is_certainly_false(
        case in (1usize..=2, arb_keys(2), arb_keys(2))
    ) {
        // One or two key columns: the first `arity` cells of each row.
        let (arity, a, b) = case;
        let keep = |rows: Vec<Vec<RangeValue>>| -> Vec<Vec<RangeValue>> {
            rows.into_iter().map(|r| r[..arity].to_vec()).collect()
        };
        let (a, b) = (keep(a), keep(b));
        let cols: Vec<usize> = (0..arity).collect();
        let equalities = Expr::conjunction(
            cols.iter().map(|&c| Expr::Col(c).eq(Expr::Col(arity + c))),
        );
        for (probe, build) in [(&a, &b), (&b, &a)] {
            let (probe, build) = (rel_of_keys(probe, arity), rel_of_keys(build, arity));
            let (probe, build) = (probe.rows(), build.rows());
            for nulls_match in [false, true] {
                let index = SgKeyIndex::build_for(build, &cols, probe, &cols, nulls_match);
                for p in 0..probe.len() {
                    let mut cand = Vec::new();
                    index.candidates_of(p, &mut cand);
                    for q in 0..build.len() {
                        let pair: Vec<RangeValue> = probe[p].values.iter()
                            .chain(&build[q].values).cloned().collect();
                        let (possibly, certainly) = if nulls_match {
                            (
                                rows_possibly_equal(probe, p, build, q, arity),
                                rows_certainly_equal(probe, p, build, q, arity),
                            )
                        } else {
                            let truth = truth_range(&equalities, &pair);
                            (truth.possibly_true(), truth.certainly_true())
                        };
                        let context = format!("nulls_match={nulls_match} probe {pair:?}");
                        if !cand.contains(&q) {
                            prop_assert!(!possibly, "pruned: {}", context);
                        } else if index.bucket_hit(p, q) {
                            prop_assert!(certainly, "bucket hit: {}", context);
                        }
                    }
                }
            }
        }
    }
}

/// A relation of certain rows over `a`, `b`, … holding `rows`.
fn rel_of_keys(rows: &[Vec<RangeValue>], arity: usize) -> AuRelation {
    let names = ["a", "b"];
    let mut rel = AuRelation::new(Schema::qualified("k", names[..arity].iter().copied()));
    for values in rows {
        rel.push(AuTuple {
            values: values.clone(),
            mult: MultBound::certain(1),
        });
    }
    rel
}

/// A hash join whose key columns hold points of two families (`Int`
/// against `Str`): every pair is a candidate — possibly equal, never
/// certainly — and a join building on the left emits probe-major, the
/// right side's rows outermost, as every other hash join does. The same
/// bag as the left-major nested loop.
#[test]
fn a_cross_family_hash_join_building_left_is_probe_major() {
    let side = |q: &str, keys: [Value; 2]| {
        let mut rel = AuRelation::new(Schema::qualified(q, ["k"]));
        for k in keys {
            rel.push(AuTuple {
                values: vec![RangeValue::point(k)],
                mult: MultBound::certain(1),
            });
        }
        rel
    };
    let l = side("l", [Value::Int(1), Value::Int(2)]);
    let r = side("r", [Value::str("1"), Value::str("a")]);
    let keys = [(Expr::named("l.k"), Expr::named("r.k"))];
    let hashed = hash_join(&l, &r, &keys, None, true).unwrap();
    let pairs: Vec<(Value, Value)> = hashed
        .rows()
        .iter()
        .map(|t| (t.values[0].bg.clone(), t.values[1].bg.clone()))
        .collect();
    let (one, two, s1, sa) = (
        Value::Int(1),
        Value::Int(2),
        Value::str("1"),
        Value::str("a"),
    );
    assert_eq!(
        pairs,
        [
            (one.clone(), s1.clone()),
            (two.clone(), s1),
            (one, sa.clone()),
            (two, sa)
        ]
    );
    let theta = Expr::named("l.k").eq(Expr::named("r.k"));
    let mut nested = crate::relation::encode_rows(&join(&l, &r, Some(&theta)).unwrap());
    let mut bag = crate::relation::encode_rows(&hashed);
    nested.sort();
    bag.sort();
    assert_eq!(bag, nested);
}

/// One cell of an all-point column of one kind — `0`: `Int`s, `2⁵³ + 1`
/// among them; `1`: `Float`s with `−0.0` next to `0.0`, NaN, and `1.0` /
/// `2⁵³ as f64`, which equal `Int` keys under `join_key`; `2`: strings —
/// or, one cell in ten when `fuzz`, a ranged, top or definite-NULL one,
/// which makes its row fuzzy.
fn arb_typed(kind: u8, fuzz: bool) -> BoxedStrategy<RangeValue> {
    let point = match kind {
        0 => prop_oneof![
            (0i64..4).prop_map(Value::Int),
            Just(Value::Int((1 << 53) + 1))
        ]
        .boxed(),
        1 => {
            let floats = [-0.0, 0.0, 1.0, 1.5, f64::NAN, (1i64 << 53) as f64];
            Union::new(Vec::from(floats.map(|f| Just(Value::float(f)).boxed()))).boxed()
        }
        _ => Union::new(Vec::from(
            ["a", "b", "1"].map(|s| Just(Value::str(s)).boxed()),
        ))
        .boxed(),
    };
    let fuzzy = prop_oneof![
        Just(RangeValue::null()),
        Just(RangeValue::top(Value::Int(1))),
        Just(RangeValue::new(
            Bound::Val(Value::Int(0)),
            Value::Int(1),
            Bound::Val(Value::Int(2)),
        )),
    ];
    (0u8..10, point, fuzzy)
        .prop_map(move |(roll, point, fuzzy)| {
            if fuzz && roll == 0 {
                fuzzy
            } else {
                RangeValue::point(point)
            }
        })
        .boxed()
}

/// Up to twelve rows over the columns `kinds` names ([`arb_typed`]);
/// multiplicities as [`arb_rel`]'s.
fn arb_typed_rel(qualifier: &'static str, kinds: &[u8], fuzz: bool) -> BoxedStrategy<AuRelation> {
    let arity = kinds.len();
    let cells = (arb_typed(kinds[0], fuzz), arb_typed(kinds[arity - 1], fuzz));
    let row = (cells, proptest::collection::vec(0u64..4, 3..=3));
    proptest::collection::vec(row, 0..=12)
        .prop_map(move |rows| {
            let names = ["a", "b"];
            let mut rel = AuRelation::new(Schema::qualified(qualifier, names[..arity].to_vec()));
            for ((a, b), mut m) in rows {
                m.sort_unstable();
                let values = [a, b][..arity].to_vec();
                rel.push(AuTuple {
                    values,
                    mult: MultBound::new(m[0], m[1], m[2]),
                });
            }
            rel
        })
        .boxed()
}

/// Both sides of one all-point case: one `Int`, `Float` or `Str` column
/// on each side, `Int` against `Float`, or a two-column key (`Float` /
/// `Int` against `Int` / `Int`) — each with and without a few fuzzy rows.
fn arb_typed_sides() -> BoxedStrategy<(AuRelation, AuRelation)> {
    let shapes: [(&'static [u8], &'static [u8]); 5] = [
        (&[0], &[0]),
        (&[1], &[1]),
        (&[2], &[2]),
        (&[0], &[1]),
        (&[1, 0], &[0, 0]),
    ];
    let arms = shapes.into_iter().flat_map(|(l, r)| {
        [false, true].map(|fuzz| (arb_typed_rel("l", l, fuzz), arb_typed_rel("r", r, fuzz)).boxed())
    });
    Union::new(arms.collect()).boxed()
}

/// `rows` handing each key column as the typed buffer a columnar view
/// would — raw `Int`, `Float` or string guesses when the column holds one
/// type — so the typed grouping paths run over relations too.
struct Typed<'a>(&'a [AuTuple]);

impl RowView for Typed<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn mult(&self, i: usize) -> MultBound {
        self.0.mult(i)
    }

    fn bg(&self, i: usize, c: usize) -> Value {
        self.0.bg(i, c)
    }

    fn pin(&self, i: usize, c: usize) -> Pin {
        self.0.pin(i, c)
    }

    fn range(&self, i: usize, c: usize) -> Cow<'_, RangeValue> {
        self.0.range(i, c)
    }

    fn key_column(&self, c: usize) -> (SgColumn<'_>, Option<Vec<bool>>) {
        let (keys, points) = self.0.key_column(c);
        let guesses = || self.0.iter().map(move |t| &t.values[c].bg);
        let typed = if guesses().all(|v| matches!(v, Value::Int(_))) {
            SgColumn::Int(guesses().map(|v| DenseVal::of(v).unwrap()).collect())
        } else if guesses().all(|v| matches!(v, Value::Float(_))) {
            SgColumn::Float(guesses().map(|v| DenseVal::of(v).unwrap()).collect())
        } else if guesses().all(|v| matches!(v, Value::Str(_))) {
            let strs = guesses().map(|v| match v {
                Value::Str(s) => Arc::clone(s),
                _ => unreachable!("checked above"),
            });
            SgColumn::Str(strs.collect())
        } else {
            keys
        };
        (typed, points)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The grouped `−` over all-point inputs — where nearly every row is
    /// keyed and its bucket hits add up as per-group sums — against the
    /// all-pairs loop, over relation views and over typed key columns.
    #[test]
    fn all_point_except_equals_pairwise(sides in arb_typed_sides()) {
        let (l, r) = sides;
        let arity = l.schema().arity();
        for all in [true, false] {
            let pairwise = except_rows(l.rows(), r.rows(), arity, all, false);
            let typed = except_select(&Typed(l.rows()), &Typed(r.rows()), arity, all);
            prop_assert_eq!(
                (&typed.left, &typed.mults),
                (&pairwise.left, &pairwise.mults),
                "typed all={} left={:?} right={:?}", all, l, r
            );
            prop_assert_eq!(
                except(&l, &r, all).unwrap(),
                except_pairwise(&l, &r, all).unwrap(),
                "all={} left={:?} right={:?}", all, l, r
            );
        }
    }

    /// `NOT IN`'s `⟕` and the keyed `⋈` over the same all-point inputs
    /// against their all-pairs loops (`θ OR FALSE`).
    #[test]
    fn all_point_not_in_and_keyed_joins_equal_pairwise(sides in arb_typed_sides()) {
        let (l, r) = sides;
        let col = Expr::named;
        let mut thetas = vec![
            null_aware_eq(col("l.a"), col("r.a")),
            col("l.a").eq(col("r.a")),
        ];
        if l.schema().arity() == 2 {
            thetas.push(col("l.a").eq(col("r.a")).and(col("l.b").eq(col("r.b"))));
        }
        for theta in thetas {
            let pairwise = theta.clone().or(Expr::lit(false));
            let (keyed, all_pairs) = (join(&l, &r, Some(&theta)), join(&l, &r, Some(&pairwise)));
            prop_assert_eq!(keyed.unwrap(), all_pairs.unwrap(), "{} {:?} {:?}", theta, l, r);
            for left_kind in [true, false] {
                prop_assert_eq!(
                    outer_join(&l, &r, Some(&theta), left_kind).unwrap(),
                    outer_join(&l, &r, Some(&pairwise), left_kind).unwrap(),
                    "{} left_kind={} {:?} {:?}", theta, left_kind, l, r
                );
            }
        }
    }
}
