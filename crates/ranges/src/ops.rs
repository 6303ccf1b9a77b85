//! The `⟦·⟧_AU` operators over [`AuRelation`]s — one shared implementation
//! both engines execute (the row engine directly, the vectorized engine
//! for its per-operator fallbacks), so the two paths cannot diverge.
//!
//! Selection, projection, join and union mirror the UA rewriting with
//! range-aware evaluation; the headline additions are `DISTINCT` and
//! grouping/aggregation, which the UA encoding is *not* closed under
//! (the paper defers them) but attribute-level bounds are:
//!
//! * **σ_θ** — a row survives iff θ is *possibly* true under some
//!   grounding. Its multiplicity triple is refined per component:
//!   `lb` survives only when θ is *certainly* true, `bg` only when θ holds
//!   over the selected-guess tuple (ordinary SQL evaluation), `ub` always.
//! * **π** — interval arithmetic per output expression
//!   ([`crate::eval::eval_range`]); the selected guess is the exact scalar
//!   result.
//! * **⋈** — pairs combine values by concatenation and multiplicities by
//!   the pointwise product, then the predicate refines like σ.
//! * **∪** — rows concatenate (annotations add by standing next to each
//!   other, as in the bag engine).
//! * **δ (DISTINCT)** — see [`distinct_cols`]: rows merge by
//!   selected-guess tuple; ranges hull, `lb/bg` cap at 1, `ub` sums (each
//!   merged copy may ground to a distinct value and survive deduplication
//!   on its own). Written once beside γ, over the same column-major input.
//! * **− / ⟕ (EXCEPT, outer joins, `NOT IN`)** — see [`except`] and
//!   [`outer_join`]. Their bound rules quantify over *pairs* of rows, but
//!   only pairs that can possibly match move any bound, so both take
//!   their candidates from a selected-guess key index ([`SgKeyIndex`]:
//!   both sides grouped in one pass over the typed key columns a view
//!   hands) and run the pair tests on those alone. The rules are written once,
//!   over a read-only [`RowView`], and return a [`Selection`] — which
//!   rows survive, paired with what, under which triple — instead of a
//!   relation: the row engine materialises it from its [`AuRelation`]s,
//!   the vectorized engine gathers it from its column chunks.
//! * **γ (GROUP BY / aggregation)** — see [`aggregate`]: output groups are
//!   the distinct selected-guess keys; every input tuple whose key range
//!   intersects a group's key hull contributes to that group's aggregate
//!   bounds, certainly-present point-key members to its lower bounds.
//!
//! γ and δ run over column-major input ([`AggCols`]) and return a
//! column-major result ([`AuCols`]), so a columnar executor hands its dense
//! triples in and writes the output columns out without a [`RangeValue`]
//! per cell; the row engine wraps both ([`aggregate`], [`distinct`]).

use crate::eval::{eval_range, truth_range, RangeTruth};
use crate::mult::MultBound;
use crate::relation::{encode_row, AuRelation, AuTuple};
use crate::value::{Bound, RangeValue};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;
use ua_data::agg::{count_value, AggFunc, AggState, Groups, KeyColumn};
use ua_data::algebra::{candidate_keys, merge_ascending, EquiKey, JoinKeys};
use ua_data::expr::{Expr, ExprError, Truth};
use ua_data::schema::{Column, Schema, SchemaError};
use ua_data::tuple::Tuple;
use ua_data::value::{Value, F64};
use ua_data::{FxHashMap, FxHasher};
use ua_semiring::Semiring;

/// σ_θ: keep possibly-true rows, refining each multiplicity component.
pub fn filter(rel: &AuRelation, predicate: &Expr) -> Result<AuRelation, ExprError> {
    let bound = predicate.bind(rel.schema())?;
    let mut out = AuRelation::new(rel.schema().clone());
    for row in rel.rows() {
        let (rt, bg_true) = pair_truth(&bound, &row.values)?;
        if let Some(mult) = refine(rt, bg_true, row.mult) {
            out.push(AuTuple {
                values: row.values.clone(),
                mult,
            });
        }
    }
    Ok(out)
}

/// π: evaluate output expressions as ranges per row.
pub fn map(rel: &AuRelation, columns: &[(Expr, Column)]) -> Result<AuRelation, ExprError> {
    let bound: Vec<Expr> = columns
        .iter()
        .map(|(e, _)| e.bind(rel.schema()))
        .collect::<Result<_, _>>()?;
    let schema = Schema::new(columns.iter().map(|(_, c)| c.clone()).collect());
    let mut out = AuRelation::new(schema);
    for row in rel.rows() {
        let bg_tuple = row.bg_tuple();
        let values: Vec<RangeValue> = bound
            .iter()
            .map(|e| eval_range(e, &row.values, &bg_tuple))
            .collect::<Result<_, _>>()?;
        out.push(AuTuple {
            values,
            mult: row.mult,
        });
    }
    Ok(out)
}

/// Apply a (bound) join predicate to one concatenated candidate pair's
/// ranges: `None` unless the predicate is possibly true, otherwise the
/// pair's multiplicity refined like [`filter`] (`lb` survives only certain
/// truth, `bg` only selected-guess truth) — [`JoinSelect`]'s refinement,
/// for the vectorized hash join's probe, which gathers surviving pairs
/// itself. `values` may hold placeholders at positions `predicate` does
/// not reference.
pub fn refine_pair_mult(
    predicate: &Expr,
    values: &[RangeValue],
    mult: MultBound,
) -> Result<Option<MultBound>, ExprError> {
    let (rt, bg_true) = pair_truth(predicate, values)?;
    Ok(refine(rt, bg_true, mult))
}

/// A (bound) predicate over one row's (or pair's) ranges: its truth range
/// and whether it holds over the selected guesses — the selected-guess
/// evaluation errors exactly where deterministic execution would.
fn pair_truth(predicate: &Expr, values: &[RangeValue]) -> Result<(RangeTruth, bool), ExprError> {
    let bg_tuple: Tuple = values.iter().map(|v| v.bg.clone()).collect();
    let bg_true = predicate.holds(&bg_tuple)?;
    Ok((truth_range(predicate, values), bg_true))
}

/// σ's refinement of one multiplicity triple: `None` unless the predicate
/// is possibly true; `lb` survives only certain truth, `bg` only
/// selected-guess truth.
fn refine(rt: RangeTruth, bg_true: bool, mult: MultBound) -> Option<MultBound> {
    rt.possibly_true().then(|| {
        MultBound::new(
            if rt.certainly_true() { mult.lb } else { 0 },
            if bg_true { mult.bg } else { 0 },
            mult.ub,
        )
    })
}

/// How firmly one cell pins its value — what the selected-guess index and
/// the `−` bound rules ask of a cell before (and mostly instead of)
/// assembling its range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pin {
    /// A point other than NaN: one known value in every world, and a
    /// usable hash key.
    Point,
    /// A NaN point: one value in every world, but `sql_cmp` calls NaN
    /// incomparable with an integer (three-valued ANY), so it keys no
    /// bucket.
    Nan,
    /// A definite NULL: `NULL` in every world.
    Null,
    /// A ranged or top cell: more than one grounding.
    Loose,
}

impl Pin {
    /// The pin of one range.
    fn of(r: &RangeValue) -> Pin {
        if r.is_null() {
            Pin::Null
        } else if !r.is_point() {
            Pin::Loose
        } else if matches!(&r.bg, Value::Float(f) if f.get().is_nan()) {
            Pin::Nan
        } else {
            Pin::Point
        }
    }
}

/// A read-only view of an AU relation's rows — what `−` and `⟕` select
/// over, so their bound rules have one implementation whether the rows sit
/// in an [`AuRelation`] (its `rows()` are a view) or in column chunks. A
/// view's columns are the relation's attributes, possibly followed by
/// evaluated key columns (the `⟕` key expressions, each a range per row).
pub trait RowView {
    /// Number of rows.
    fn len(&self) -> usize;

    /// Whether the view has no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`'s multiplicity triple.
    fn mult(&self, i: usize) -> MultBound;

    /// Row `i`'s selected guess in column `c`.
    fn bg(&self, i: usize, c: usize) -> Value;

    /// How row `i`'s column `c` pins its value.
    fn pin(&self, i: usize, c: usize) -> Pin;

    /// Row `i`'s range in column `c`, assembled on demand.
    fn range(&self, i: usize, c: usize) -> Cow<'_, RangeValue>;

    /// Column `c`'s selected guesses under [`Value::join_key`], and its
    /// point rows (`Pin::Point` or `Pin::Nan`; `None`: every row) — what
    /// [`SgKeyIndex`] groups and classifies a key column by. By default
    /// every cell is read through [`RowView::bg`] and [`RowView::pin`]; a
    /// columnar view hands its typed buffers.
    fn key_column(&self, c: usize) -> (SgColumn<'_>, Option<Vec<bool>>) {
        let keys = (0..self.len()).map(|i| self.bg(i, c).join_key());
        let points = (0..self.len()).map(|i| matches!(self.pin(i, c), Pin::Point | Pin::Nan));
        (SgColumn::Values(keys.collect()), Some(points.collect()))
    }
}

impl RowView for [AuTuple] {
    fn len(&self) -> usize {
        <[AuTuple]>::len(self)
    }

    fn mult(&self, i: usize) -> MultBound {
        self[i].mult
    }

    fn bg(&self, i: usize, c: usize) -> Value {
        self[i].values[c].bg.clone()
    }

    fn pin(&self, i: usize, c: usize) -> Pin {
        Pin::of(&self[i].values[c])
    }

    fn range(&self, i: usize, c: usize) -> Cow<'_, RangeValue> {
        Cow::Borrowed(&self[i].values[c])
    }
}

/// A relation with evaluated key columns after its attributes: column
/// `arity + k` of row `i` is its `k`-th key range — how the row engine's
/// `⋈` and `⟕` hand their keys to [`JoinSelect`].
struct WithKeys<'a> {
    rel: &'a AuRelation,
    /// Per row its key ranges.
    keys: Vec<Vec<RangeValue>>,
}

impl<'a> WithKeys<'a> {
    /// Both inputs of a `⋈` / `⟕`, each with its side of the (bound)
    /// `keys` evaluated per row — the left side's first.
    fn pair(
        left: &'a AuRelation,
        right: &'a AuRelation,
        keys: &JoinKeys,
    ) -> Result<(WithKeys<'a>, WithKeys<'a>), ExprError> {
        let side = |rel: &'a AuRelation, key: fn(&EquiKey) -> &Expr| {
            let rows = rel.rows().iter().map(|row| {
                let bg = row.bg_tuple();
                let exprs = keys.keys.iter().map(key);
                exprs.map(|e| eval_range(e, &row.values, &bg)).collect()
            });
            Ok::<_, ExprError>(WithKeys {
                rel,
                keys: rows.collect::<Result<_, _>>()?,
            })
        };
        Ok((side(left, |k| &k.left)?, side(right, |k| &k.right)?))
    }

    /// Column `c`'s range in row `i`.
    fn cell(&self, i: usize, c: usize) -> &RangeValue {
        match c.checked_sub(self.rel.schema().arity()) {
            Some(k) => &self.keys[i][k],
            None => &self.rel.rows()[i].values[c],
        }
    }
}

impl RowView for WithKeys<'_> {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn mult(&self, i: usize) -> MultBound {
        self.rel.rows()[i].mult
    }

    fn bg(&self, i: usize, c: usize) -> Value {
        self.cell(i, c).bg.clone()
    }

    fn pin(&self, i: usize, c: usize) -> Pin {
        Pin::of(self.cell(i, c))
    }

    fn range(&self, i: usize, c: usize) -> Cow<'_, RangeValue> {
        Cow::Borrowed(self.cell(i, c))
    }
}

/// One key column's selected guesses under [`Value::join_key`], as
/// [`RowView::key_column`] hands them to [`SgKeyIndex`]: one typed buffer
/// when every row holds one scalar type (`join_key` is one-to-one within a
/// type, and [`F64`] already equates `−0.0` with `0.0`), normalised values
/// otherwise. Structural equality of two rows is `join_key` equality.
#[derive(Clone, Debug)]
pub enum SgColumn<'a> {
    /// All `Int`s.
    Int(Cow<'a, [i64]>),
    /// All `Float`s.
    Float(Cow<'a, [F64]>),
    /// All `Bool`s.
    Bool(Cow<'a, [bool]>),
    /// All strings.
    Str(Cow<'a, [Arc<str>]>),
    /// Anything else, each value under `join_key`.
    Values(Cow<'a, [Value]>),
}

impl SgColumn<'_> {
    fn len(&self) -> usize {
        match self {
            SgColumn::Int(v) => v.len(),
            SgColumn::Float(v) => v.len(),
            SgColumn::Bool(v) => v.len(),
            SgColumn::Str(v) => v.len(),
            SgColumn::Values(v) => v.len(),
        }
    }

    /// Row `i`'s key as a normalised value.
    fn value(&self, i: usize) -> Value {
        match self {
            SgColumn::Int(v) => Value::Int(v[i]),
            SgColumn::Float(v) => Value::Float(v[i]).join_key(),
            SgColumn::Bool(v) => Value::Bool(v[i]),
            SgColumn::Str(v) => Value::Str(Arc::clone(&v[i])),
            SgColumn::Values(v) => v[i].clone(),
        }
    }

    /// The class of row `i` when it is a point: its [`key_family`], or
    /// [`FUZZY`] for a NaN.
    fn point_class(&self, i: usize) -> u8 {
        let nan = |f: &F64| f.get().is_nan();
        match self {
            SgColumn::Float(v) if nan(&v[i]) => FUZZY,
            SgColumn::Int(_) | SgColumn::Float(_) => key_family(&Value::Int(0)),
            SgColumn::Bool(_) => key_family(&Value::Bool(false)),
            SgColumn::Str(_) => key_family(&Value::str("")),
            SgColumn::Values(v) => match &v[i] {
                Value::Float(f) if nan(f) => FUZZY,
                other => key_family(other),
            },
        }
    }

    /// `a`'s rows, then `b`'s: typed when both are of one type.
    fn concat(a: &SgColumn, b: &SgColumn) -> SgColumn<'static> {
        fn both<T: Clone>(a: &[T], b: &[T]) -> Cow<'static, [T]> {
            Cow::Owned([a, b].concat())
        }
        match (a, b) {
            (SgColumn::Int(a), SgColumn::Int(b)) => SgColumn::Int(both(a, b)),
            (SgColumn::Float(a), SgColumn::Float(b)) => SgColumn::Float(both(a, b)),
            (SgColumn::Bool(a), SgColumn::Bool(b)) => SgColumn::Bool(both(a, b)),
            (SgColumn::Str(a), SgColumn::Str(b)) => SgColumn::Str(both(a, b)),
            _ => {
                let a_rows = (0..a.len()).map(|i| a.value(i));
                let values = a_rows.chain((0..b.len()).map(|i| b.value(i)));
                SgColumn::Values(values.collect())
            }
        }
    }
}

impl KeyColumn for SgColumn<'_> {
    fn hash_at(&self, i: usize, h: &mut FxHasher) {
        match self {
            SgColumn::Int(v) => h.write_i64(v[i]),
            SgColumn::Float(v) => v[i].hash(h),
            SgColumn::Bool(v) => v[i].hash(h),
            SgColumn::Str(v) => v[i].hash(h),
            SgColumn::Values(v) => v[i].hash(h),
        }
    }

    fn same(&self, i: usize, j: usize) -> bool {
        match self {
            SgColumn::Int(v) => v[i] == v[j],
            SgColumn::Float(v) => v[i] == v[j],
            SgColumn::Bool(v) => v[i] == v[j],
            SgColumn::Str(v) => v[i] == v[j],
            SgColumn::Values(v) => v[i] == v[j],
        }
    }

    fn ints(&self) -> Option<Cow<'_, [i64]>> {
        match self {
            SgColumn::Int(v) => Some(Cow::Borrowed(v)),
            SgColumn::Values(v) => v
                .iter()
                .map(|x| match x {
                    Value::Int(k) => Some(*k),
                    _ => None,
                })
                .collect::<Option<Vec<i64>>>()
                .map(Cow::Owned),
            _ => None,
        }
    }
}

/// A key cell's class: a point of [`key_family`] `1..=8`, a definite
/// NULL, or fuzzy (ranged, top or NaN — possibly equal to anything).
const FUZZY: u8 = 0;
/// See [`FUZZY`].
const NULL_KEY: u8 = 16;

/// Append to `out`, per row of `v`, the class of its key cell in column
/// `c` (`RowView::key_column`'s selected guesses and point rows): only a
/// non-point row asks its pin.
fn key_classes<V: RowView + ?Sized>(
    v: &V,
    c: usize,
    (keys, points): &(SgColumn, Option<Vec<bool>>),
    out: &mut Vec<u8>,
) {
    out.extend((0..v.len()).map(|i| {
        if points.as_ref().is_none_or(|p| p[i]) {
            keys.point_class(i)
        } else if v.pin(i, c) == Pin::Null {
            NULL_KEY
        } else {
            FUZZY
        }
    }));
}

/// The comparable-type family of a point key value. Cross-family point
/// comparisons are `None` under `sql_cmp` — three-valued ANY, i.e.
/// possibly equal — so a key group speaks only for keys of one family.
pub fn key_family(v: &Value) -> u8 {
    match v {
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Str(_) => 4,
        _ => 8,
    }
}

/// A selected-guess key index of one side's key columns (the *build*
/// side) for another's (the *probe* side), in one grouping pass: build
/// rows then probe rows are grouped together ([`Groups`]) by their
/// coercion-normalized selected-guess key tuple ([`RowView::key_column`]).
///
/// A row is *keyed* when each key cell fixes one hashable value — a point
/// other than NaN or, under IS-NOT-DISTINCT matching (`nulls_match`,
/// EXCEPT's), a definite NULL, which matches exactly the other definite
/// NULLs (under join equality it matches nothing, and no group could say
/// so) — and each point is of its column's family, which the build side
/// fixes: the family of the first such build row holding a point there.
/// Every other row — a ranged, unknown or NaN key, or a point of another
/// family — is *fuzzy*: possibly equal to anything. A keyed probe row's
/// candidates are its group's keyed build rows merged with the fuzzy build
/// rows; a fuzzy probe row has every build row as candidate. Pruned pairs
/// are exactly those whose key equality is certainly false (two keyed
/// tuples in different groups differ in some column between two points of
/// that column's family, where `sql_cmp` is exact, or between a point and
/// a definite NULL), so refining the candidates reproduces the pairwise
/// loop's result.
///
/// The converse is what lets callers skip refinement: two keyed rows share
/// a group iff `sql_cmp` calls their keys equal (`join_key` equality is
/// `sql_cmp` equality within a family — `F64::new` canonicalises `−0.0`,
/// and NaN is never keyed). So such a *bucket hit* (`bucket_hit`) is a
/// pair of certainly equal keys.
pub struct SgKeyIndex {
    /// Build rows then probe rows, by selected-guess key tuple.
    groups: Groups,
    n_build: usize,
    /// Per row of build ++ probe, whether it is keyed.
    keyed: Vec<bool>,
    /// Per group `g`, its keyed build rows ascending:
    /// `members[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    members: Vec<usize>,
    /// The fuzzy build rows, ascending.
    fuzzy: Vec<usize>,
}

impl SgKeyIndex {
    /// Index `build`'s rows by their key over `build_cols` for the rows of
    /// `probe` keyed over `probe_cols`, under join equality or —
    /// `nulls_match` — under IS-NOT-DISTINCT matching.
    pub fn build_for<B, P>(
        build: &B,
        build_cols: &[usize],
        probe: &P,
        probe_cols: &[usize],
        nulls_match: bool,
    ) -> SgKeyIndex
    where
        B: RowView + ?Sized,
        P: RowView + ?Sized,
    {
        let n_build = build.len();
        let n = n_build + probe.len();
        let mut keys = Vec::with_capacity(build_cols.len());
        let mut classes: Vec<Vec<u8>> = Vec::with_capacity(build_cols.len());
        let mut keyed = vec![true; n];
        for (&bc, &pc) in build_cols.iter().zip(probe_cols) {
            let (build_col, probe_col) = (build.key_column(bc), probe.key_column(pc));
            let mut class = Vec::with_capacity(n);
            key_classes(build, bc, &build_col, &mut class);
            key_classes(probe, pc, &probe_col, &mut class);
            // Hashable so far: no fuzzy cell, and a NULL only when NULLs match.
            for (k, &cell) in keyed.iter_mut().zip(&class) {
                *k &= cell != FUZZY && (nulls_match || cell != NULL_KEY);
            }
            keys.push(SgColumn::concat(&build_col.0, &probe_col.0));
            classes.push(class);
        }
        // Each column's family: of the first hashable build row's point.
        let families: Vec<u8> = classes
            .iter()
            .map(|class| {
                let first = (0..n_build).find(|&i| keyed[i] && class[i] != NULL_KEY);
                first.map_or(FUZZY, |i| class[i])
            })
            .collect();
        for (class, &family) in classes.iter().zip(&families) {
            for (k, &cell) in keyed.iter_mut().zip(class) {
                *k &= cell == NULL_KEY || cell == family;
            }
        }
        let groups = Groups::of(&keys, n);
        let mut starts = vec![0; groups.firsts.len() + 1];
        let mut fuzzy = Vec::new();
        for (b, &g) in groups.of[..n_build].iter().enumerate() {
            if keyed[b] {
                starts[g + 1] += 1;
            } else {
                fuzzy.push(b);
            }
        }
        for g in 1..starts.len() {
            starts[g] += starts[g - 1];
        }
        let mut next = starts.clone();
        let mut members = vec![0; n_build - fuzzy.len()];
        for (b, &g) in groups.of[..n_build].iter().enumerate() {
            if keyed[b] {
                members[next[g]] = b;
                next[g] += 1;
            }
        }
        SgKeyIndex {
            groups,
            n_build,
            keyed,
            starts,
            members,
            fuzzy,
        }
    }

    /// Probe row `p`'s group.
    fn probe_group(&self, p: usize) -> usize {
        self.groups.of[self.n_build + p]
    }

    /// Whether probe row `p` is keyed.
    fn probe_keyed(&self, p: usize) -> bool {
        self.keyed[self.n_build + p]
    }

    /// Collect the build rows whose key equality with probe row `p` is
    /// possibly true, ascending (build-scan order), into `out`.
    fn candidates_of(&self, p: usize, out: &mut Vec<usize>) {
        out.clear();
        if self.probe_keyed(p) {
            let g = self.probe_group(p);
            let bucket = &self.members[self.starts[g]..self.starts[g + 1]];
            merge_ascending(bucket, &self.fuzzy, out);
        } else {
            out.extend(0..self.n_build);
        }
    }

    /// Whether candidate `b` of probe row `p` came out of the probe's own
    /// group: the two keys are certainly equal.
    fn bucket_hit(&self, p: usize, b: usize) -> bool {
        self.probe_keyed(p) && self.keyed[b]
    }
}

/// θ-join in left-major order; multiplicities multiply pointwise, the
/// predicate refines like [`filter`] over the pair. The predicate's
/// [`candidate_keys`] (equi-keys, or `NOT IN`'s null-aware key) index the
/// right side ([`JoinSelect`]) — pruned pairs have a certainly-false key
/// equality, so output rows and order match the nested loop exactly.
pub fn join(
    left: &AuRelation,
    right: &AuRelation,
    predicate: Option<&Expr>,
) -> Result<AuRelation, ExprError> {
    let (bound, keys) = bind_on(predicate, left.schema(), right.schema())?;
    join_rows(left, right, bound.as_ref(), &keys, false)
}

/// A `⋈` / `⟕` predicate bound over `left ++ right`, with its
/// [`candidate_keys`] (the equi-keys, or `NOT IN`'s null-aware key) — how
/// both engines bind one.
pub fn bind_on(
    predicate: Option<&Expr>,
    left: &Schema,
    right: &Schema,
) -> Result<(Option<Expr>, JoinKeys), ExprError> {
    let bound = predicate.map(|p| p.bind(&left.concat(right))).transpose()?;
    let keys = bound
        .as_ref()
        .map_or_else(JoinKeys::default, |p| candidate_keys(p, left.arity()));
    Ok((bound, keys))
}

/// Hash equi-join on selected-guess keys, refined over the full
/// reconstructed predicate (key equalities ∧ `residual`). `keys` pairs
/// per-side key expressions (each bindable against its own side's
/// schema); `build_left` picks the hash-index side, the probe side drives
/// output order (probe-major, candidates in build-scan order), and
/// columns are always left ++ right — whatever families the key columns
/// hold ([`SgKeyIndex`]: a point key outside its column's build-side
/// family is fuzzy). The same multiset as [`join`] over the reconstructed
/// predicate.
pub fn hash_join(
    left: &AuRelation,
    right: &AuRelation,
    keys: &[(Expr, Expr)],
    residual: Option<&Expr>,
    build_left: bool,
) -> Result<AuRelation, ExprError> {
    let (pred, keys) = bind_hash_keys(keys, residual, left.schema(), right.schema())?;
    join_rows(left, right, Some(&pred), &keys, build_left)
}

/// A hash join's plan keys and residual bound over its inputs' schemas:
/// the predicate its pairs refine against, over `left ++ right` (key
/// equalities ∧ residual), and the keys as [`JoinKeys`]. The keys are the
/// plan's own, never re-extracted from that predicate: an extra key would
/// change which rows are fuzzy, and with it how many pairs refine.
pub fn bind_hash_keys(
    keys: &[(Expr, Expr)],
    residual: Option<&Expr>,
    left: &Schema,
    right: &Schema,
) -> Result<(Expr, JoinKeys), ExprError> {
    // Every left key binds before any right key, then the residual.
    let bind = |side: fn(&(Expr, Expr)) -> &Expr, schema| {
        keys.iter()
            .map(|k| side(k).bind(schema))
            .collect::<Result<Vec<_>, _>>()
    };
    let (lk, rk) = (bind(|k| &k.0, left)?, bind(|k| &k.1, right)?);
    let residual = residual.map(|r| r.bind(&left.concat(right))).transpose()?;
    let mut out = JoinKeys::default();
    let mut pred = Vec::new();
    for (l, r) in lk.into_iter().zip(rk) {
        let shifted = r.map_refs(&|n| Some(n.to_string()), &|i| i + left.arity());
        let shifted = shifted.expect("identity name mapping cannot fail");
        pred.push(l.clone().eq(shifted));
        out.keys.push(EquiKey { left: l, right: r });
    }
    pred.extend(residual.clone());
    out.residual.extend(residual);
    Ok((Expr::conjunction(pred), out))
}

/// The row engine's `⋈`: [`JoinSelect`] over the two relations, each
/// carrying its side of `keys` evaluated, materialised.
fn join_rows(
    left: &AuRelation,
    right: &AuRelation,
    predicate: Option<&Expr>,
    keys: &JoinKeys,
    build_left: bool,
) -> Result<AuRelation, ExprError> {
    let (l, r) = WithKeys::pair(left, right, keys)?;
    let arities = (left.schema().arity(), right.schema().arity());
    let join = JoinSelect::new(&l, &r, arities, predicate, keys, build_left);
    let selection = join.select(0..join.probe_len())?;
    Ok(selection.materialise(left, Some(right), left.schema().concat(right.schema())))
}

/// AU `⋈`'s pair loop, written once over two [`RowView`]s: which pairs of
/// rows survive a (bound) predicate, under which triple. [`join`],
/// [`hash_join`] and [`outer_join_select`]'s matched pairs run it; the
/// vectorized engine runs it over its column chunks, one probe-row range
/// per task, and gathers the [`Selection`].
///
/// Candidates come from an [`SgKeyIndex`] of the build side's key
/// columns for the probe side's, built once when there are keys; a pruned
/// pair's key equality is certainly false, so its predicate is. A bucket
/// hit pairs two certainly equal keys: when the predicate is
/// nothing but plain-column key equalities — or `NOT IN`'s null-aware one,
/// where `x = k` certainly true makes the disjunction so — the pair is
/// certainly true and true over the selected guesses, and keeps its plain
/// product without assembling a range (a key column is then the attribute
/// column the predicate reads). Every other candidate is refined like
/// [`filter`] over the pair, through `PairEval`.
pub struct JoinSelect<'a, V: ?Sized> {
    left: &'a V,
    right: &'a V,
    arities: (usize, usize),
    predicate: Option<&'a Expr>,
    index: Option<SgKeyIndex>,
    /// The left side is the build side: probe rows are the right side's.
    build_left: bool,
    /// A bucket hit is a certainly true pair.
    certain_hits: bool,
}

/// How one probe row matched: some surviving pair has a build row that is
/// possibly present, present in the selected-guess world under a
/// selected-guess-true predicate, or certainly present under a certainly
/// true one.
#[derive(Default)]
struct Matched {
    possibly: bool,
    sg: bool,
    certainly: bool,
}

impl<'a, V: RowView + ?Sized> JoinSelect<'a, V> {
    /// The join of `left` and `right` (user arities `arities`) under
    /// `predicate` (bound over `left ++ right`; `None`: every pair
    /// matches) with candidate keys `keys`, whose left / right
    /// expressions each view carries, evaluated, as its columns
    /// `arity..arity + keys.len()`. The output is probe-major, the probe
    /// side being the right one when `build_left`.
    pub fn new(
        left: &'a V,
        right: &'a V,
        arities: (usize, usize),
        predicate: Option<&'a Expr>,
        keys: &JoinKeys,
        build_left: bool,
    ) -> JoinSelect<'a, V> {
        let n_keys = keys.keys.len();
        let cols = |arity: usize| (arity..arity + n_keys).collect::<Vec<usize>>();
        let (l_cols, r_cols) = (cols(arities.0), cols(arities.1));
        let (build, build_cols, probe, probe_cols) = if build_left {
            (left, l_cols, right, r_cols)
        } else {
            (right, r_cols, left, l_cols)
        };
        let index = (n_keys > 0)
            .then(|| SgKeyIndex::build_for(build, &build_cols, probe, &probe_cols, false));
        let plain = |k: &EquiKey| matches!((&k.left, &k.right), (Expr::Col(_), Expr::Col(_)));
        let certain_hits =
            (keys.residual.is_empty() || keys.null_aware) && keys.keys.iter().all(plain);
        JoinSelect {
            left,
            right,
            arities,
            predicate,
            build_left,
            index,
            certain_hits,
        }
    }

    /// The side whose rows drive the output order, then the other.
    fn sides(&self) -> (&'a V, &'a V) {
        if self.build_left {
            (self.right, self.left)
        } else {
            (self.left, self.right)
        }
    }

    /// Number of probe rows.
    pub fn probe_len(&self) -> usize {
        self.sides().0.len()
    }

    /// The surviving pairs of probe rows `probe`: probe row by probe row,
    /// each one's candidates ascending.
    pub fn select(&self, probe: Range<usize>) -> Result<Selection, ExprError> {
        let mut scan = self.scan();
        let mut out = Selection::default();
        for p in probe {
            self.probe_row(p, &mut scan, &mut out)?;
        }
        Ok(out)
    }

    /// One task's scratch: the candidate list (every build row when no
    /// index narrows it per probe row) and the pair evaluator.
    fn scan(&self) -> (Vec<usize>, Option<PairEval<'a>>) {
        let every = self.index.is_none().then(|| self.sides().1.len());
        (
            (0..every.unwrap_or(0)).collect(),
            self.predicate.map(|p| PairEval::new(p, self.arities)),
        )
    }

    /// Push probe row `p`'s surviving pairs onto `out`, and say how it
    /// matched.
    fn probe_row(
        &self,
        p: usize,
        (cand, pairs): &mut (Vec<usize>, Option<PairEval<'a>>),
        out: &mut Selection,
    ) -> Result<Matched, ExprError> {
        let build = self.sides().1;
        if let Some(index) = &self.index {
            index.candidates_of(p, cand);
        }
        let hits = self.index.as_ref().filter(|_| self.certain_hits);
        let hit = |b: usize| hits.is_some_and(|index| index.bucket_hit(p, b));
        let certain = RangeTruth::exact(Truth::True);
        let mut matched = Matched::default();
        for &b in cand.iter() {
            let (l, r) = if self.build_left { (b, p) } else { (p, b) };
            let (rt, bg_true) = match pairs {
                // No predicate: every pair matches in every world.
                None => (certain, true),
                Some(_) if hit(b) => (certain, true),
                Some(pairs) => {
                    out.refined += 1;
                    pairs.eval(self.left, l, self.right, r)?
                }
            };
            let mult = self.left.mult(l).times(&self.right.mult(r));
            let Some(mult) = refine(rt, bg_true, mult) else {
                continue;
            };
            let m = build.mult(b);
            matched.possibly |= m.ub >= 1;
            matched.sg |= bg_true && m.bg >= 1;
            matched.certainly |= rt.certainly_true() && m.lb >= 1;
            out.pair(Some(l), Some(r), mult);
        }
        Ok(matched)
    }
}

/// ∪: bag union (left schema wins, like the bag engine).
pub fn union(left: &AuRelation, right: &AuRelation) -> Result<AuRelation, SchemaError> {
    left.schema().check_union_compatible(right.schema())?;
    let mut out = AuRelation::new(left.schema().clone());
    for row in left.rows().iter().chain(right.rows()) {
        out.push(row.clone());
    }
    Ok(out)
}

/// One aggregate of an AU aggregation.
#[derive(Clone, Debug)]
pub struct AggSpec {
    /// The function.
    pub kind: AggFunc,
    /// Its argument (`None` for `COUNT(*)`).
    pub arg: Option<Expr>,
    /// Output column.
    pub column: Column,
}

/// How one tuple's aggregate argument can ground.
#[derive(Clone, Copy, PartialEq, Debug)]
enum ArgClass {
    /// Every grounding is numeric, within `[lo, hi]` (possibly infinite).
    Numeric { lo: f64, hi: f64 },
    /// Every grounding is a known non-numeric value (contributes nothing
    /// to SUM/AVG, counts for COUNT(expr)).
    NonNumeric,
    /// The top range: may ground to anything, including NULL.
    Anything,
}

fn classify_arg(r: &RangeValue) -> ArgClass {
    if r.is_top() {
        return ArgClass::Anything;
    }
    match (r.lb().as_f64(), r.ub().as_f64()) {
        (Some(lo), Some(hi)) => ArgClass::Numeric { lo, hi },
        _ => ArgClass::NonNumeric,
    }
}

/// Contribution corners of `mult` copies of a numeric value within
/// `[lo, hi]` — the enclosure of what they can add to a numeric SUM in a
/// covered world.
fn numeric_contrib(mult: MultBound, lo: f64, hi: f64) -> (f64, f64) {
    let corners = [
        mult.lb as f64 * lo,
        mult.lb as f64 * hi,
        mult.ub as f64 * lo,
        mult.ub as f64 * hi,
    ];
    // 0 × ±∞ is 0 copies contributing nothing.
    let fix = |x: f64| if x.is_nan() { 0.0 } else { x };
    (
        corners
            .iter()
            .copied()
            .map(fix)
            .fold(f64::INFINITY, f64::min),
        corners
            .iter()
            .copied()
            .map(fix)
            .fold(f64::NEG_INFINITY, f64::max),
    )
}

fn f64_bound(x: f64) -> Bound {
    if x == f64::NEG_INFINITY {
        Bound::NegInf
    } else if x == f64::INFINITY {
        Bound::PosInf
    } else {
        Bound::Val(Value::Float(F64::new(x)))
    }
}

/// One aggregate's argument column as the γ fold reads it, row by row: a
/// dense canonical triple ([`Dense`]), per-row ranges, or none
/// (`COUNT(*)`, [`NoArg`]). `B` is what the MIN / MAX arm folds bounds
/// in — the scalar itself over a dense triple (its native `Ord` is the
/// domain order there), a [`Bound`] otherwise — so the bound rules of
/// [`Bounds`] are written once and compile to typed scalar loops over
/// dense columns.
trait ArgCol: Copy {
    type B: Clone;
    /// How row `i`'s argument can ground (`None`: there is no argument).
    fn class(self, i: usize) -> Option<ArgClass>;
    /// Row `i`'s lower bound (`None`: no argument).
    fn lb(self, i: usize) -> Option<Self::B>;
    /// Row `i`'s upper bound (`None`: no argument).
    fn ub(self, i: usize) -> Option<Self::B>;
    fn min(a: Self::B, b: Self::B) -> Self::B;
    fn max(a: Self::B, b: Self::B) -> Self::B;
    fn bound(b: Self::B) -> Bound;
    /// Fold `mult` copies of row `i`'s selected guess into `state` — the
    /// selected-guess aggregate, ordinary SQL aggregation.
    fn sg(self, state: &mut AggState, i: usize, mult: u64);
}

/// A dense canonical triple: every row classifies `Numeric { lb, ub }`
/// (dense columns hold no unknowns and no infinities).
#[derive(Clone, Copy)]
struct Dense<'a, T> {
    lb: &'a [T],
    bg: &'a [T],
    ub: &'a [T],
}

impl<T: DenseVal> ArgCol for Dense<'_, T> {
    type B = T;
    fn class(self, i: usize) -> Option<ArgClass> {
        Some(ArgClass::Numeric {
            lo: self.lb[i].to_f64(),
            hi: self.ub[i].to_f64(),
        })
    }
    fn lb(self, i: usize) -> Option<T> {
        Some(self.lb[i])
    }
    fn ub(self, i: usize) -> Option<T> {
        Some(self.ub[i])
    }
    fn min(a: T, b: T) -> T {
        a.min(b)
    }
    fn max(a: T, b: T) -> T {
        a.max(b)
    }
    fn bound(b: T) -> Bound {
        Bound::Val(b.to_value())
    }
    fn sg(self, state: &mut AggState, i: usize, mult: u64) {
        update_dense(state, self.bg[i], mult);
    }
}

impl ArgCol for &[RangeValue] {
    type B = Bound;
    fn class(self, i: usize) -> Option<ArgClass> {
        Some(classify_arg(&self[i]))
    }
    fn lb(self, i: usize) -> Option<Bound> {
        Some(self[i].lb().clone())
    }
    fn ub(self, i: usize) -> Option<Bound> {
        Some(self[i].ub().clone())
    }
    fn min(a: Bound, b: Bound) -> Bound {
        a.min_bound(b)
    }
    fn max(a: Bound, b: Bound) -> Bound {
        a.max_bound(b)
    }
    fn bound(b: Bound) -> Bound {
        b
    }
    fn sg(self, state: &mut AggState, i: usize, mult: u64) {
        state.update(Some(&self[i].bg), mult);
    }
}

/// `COUNT(*)`'s missing argument.
#[derive(Clone, Copy)]
struct NoArg;

impl ArgCol for NoArg {
    type B = Bound;
    fn class(self, _: usize) -> Option<ArgClass> {
        None
    }
    fn lb(self, _: usize) -> Option<Bound> {
        None
    }
    fn ub(self, _: usize) -> Option<Bound> {
        None
    }
    fn min(a: Bound, _: Bound) -> Bound {
        a
    }
    fn max(a: Bound, _: Bound) -> Bound {
        a
    }
    fn bound(b: Bound) -> Bound {
        b
    }
    fn sg(self, state: &mut AggState, _: usize, mult: u64) {
        state.update(None, mult);
    }
}

/// Evaluate `$body` with `$arg` bound to the [`ArgCol`] of the aggregate
/// argument `$col` (an `Option<ColView>`), monomorphised per column type.
macro_rules! with_arg {
    ($col:expr, $arg:ident => $body:expr) => {
        match $col {
            Some(ColView::Int { lb, bg, ub }) => {
                let $arg = Dense { lb, bg, ub };
                $body
            }
            Some(ColView::Float { lb, bg, ub }) => {
                let $arg = Dense { lb, bg, ub };
                $body
            }
            Some(ColView::Rows(rows)) => {
                let $arg = rows;
                $body
            }
            None => {
                let $arg = NoArg;
                $body
            }
        }
    };
}

/// The numeric part of SUM and AVG over a group's possible members: the
/// sum's contribution corners, and whether a covered world may see no
/// numeric contribution at all.
#[derive(Clone, Copy)]
struct SumFold {
    lo: f64,
    hi: f64,
    has_certain_numeric: bool,
    all_numeric: bool,
}

impl SumFold {
    const EMPTY: SumFold = SumFold {
        lo: 0.0,
        hi: 0.0,
        has_certain_numeric: false,
        all_numeric: true,
    };

    fn add(&mut self, class: Option<ArgClass>, mult: MultBound, certain: bool) {
        let numeric = matches!(class, Some(ArgClass::Numeric { .. }));
        self.all_numeric &= numeric;
        self.has_certain_numeric |= certain && mult.lb >= 1 && numeric;
        // What the member can add to a numeric SUM in a covered world.
        let (cl, ch) = match class {
            Some(ArgClass::Numeric { lo, hi }) => numeric_contrib(mult, lo, hi),
            Some(ArgClass::NonNumeric) => (0.0, 0.0),
            Some(ArgClass::Anything) | None if mult.ub == 0 => (0.0, 0.0),
            Some(ArgClass::Anything) | None => (f64::NEG_INFINITY, f64::INFINITY),
        };
        if certain {
            self.lo += cl;
            self.hi += ch;
        } else {
            self.lo += cl.min(0.0);
            self.hi += ch.max(0.0);
        }
    }

    /// Whether every covered world has a numeric contribution: a certain
    /// numeric member, or — a world's group being non-empty — a grouped
    /// group whose possible members are all numeric.
    fn numeric_in_every_world(&self, grouped: bool) -> bool {
        self.has_certain_numeric || (grouped && self.all_numeric)
    }
}

/// One aggregate's attribute bounds over one group's possible members,
/// fed one member at a time in ascending row order — which fixes the
/// float-addition and bound-fold order, so the bounds do not depend on
/// which pass of [`aggregate_cols`] fed the group. Every bound rule of γ
/// is one arm here, whatever the argument column's representation.
enum Bounds<A: ArgCol> {
    /// `COUNT(*)` (`star`) and `COUNT(expr)`.
    Count {
        star: bool,
        lb: u64,
        ub: u64,
    },
    Sum(SumFold),
    MinMax {
        is_min: bool,
        /// The tightest bound certainly-present members pin on one side.
        anchor: Option<A::B>,
        all_known: bool,
        /// The hull of every possibly-present member's argument.
        outer_lo: Option<A::B>,
        outer_hi: Option<A::B>,
    },
    Avg {
        sum: SumFold,
        voided: bool,
        hull_lo: f64,
        hull_hi: f64,
        cnt_lo: u128,
        cnt_hi: u128,
    },
}

impl<A: ArgCol> Bounds<A> {
    fn new(kind: AggFunc) -> Bounds<A> {
        match kind {
            AggFunc::CountStar | AggFunc::Count => Bounds::Count {
                star: kind == AggFunc::CountStar,
                lb: 0,
                ub: 0,
            },
            AggFunc::Sum => Bounds::Sum(SumFold::EMPTY),
            AggFunc::Min | AggFunc::Max => Bounds::MinMax {
                is_min: kind == AggFunc::Min,
                anchor: None,
                all_known: true,
                outer_lo: None,
                outer_hi: None,
            },
            AggFunc::Avg => Bounds::Avg {
                sum: SumFold::EMPTY,
                voided: false,
                hull_lo: f64::INFINITY,
                hull_hi: f64::NEG_INFINITY,
                cnt_lo: 0,
                cnt_hi: 0,
            },
        }
    }

    /// Feed possible member `i` of multiplicity `mult`. `certain`: the
    /// group is case A (every key hull a point, so every covered world
    /// group carries the group's selected-guess key) and `i` is a certainly
    /// present, point-keyed member of the group itself — it bounds from
    /// below.
    // Always inlined: its call is the body of γ's per-row loops.
    #[inline(always)]
    fn add(&mut self, arg: A, i: usize, mult: MultBound, certain: bool) {
        match self {
            Bounds::Count { star, lb, ub } => {
                // COUNT(expr) skips a member that may ground to NULL.
                if certain && (*star || !matches!(arg.class(i), Some(ArgClass::Anything))) {
                    *lb = lb.saturating_add(mult.lb);
                }
                *ub = ub.saturating_add(mult.ub);
            }
            Bounds::Sum(sum) => sum.add(arg.class(i), mult, certain),
            Bounds::MinMax {
                is_min,
                anchor,
                all_known,
                outer_lo,
                outer_hi,
            } => {
                // A certainly-present member with bounded values anchors
                // one side; the hull of all possible members gives the
                // other.
                let known = !matches!(arg.class(i), Some(ArgClass::Anything) | None);
                *all_known &= known;
                if certain && known {
                    let side = if *is_min { arg.ub(i) } else { arg.lb(i) };
                    let side = side.expect("a known argument has bounds");
                    *anchor = Some(match anchor.take() {
                        None => side,
                        Some(b) if *is_min => A::min(b, side),
                        Some(b) => A::max(b, side),
                    });
                }
                if mult.ub >= 1 {
                    if let (Some(lo), Some(hi)) = (arg.lb(i), arg.ub(i)) {
                        *outer_lo = Some(match outer_lo.take() {
                            None => lo,
                            Some(b) => A::min(b, lo),
                        });
                        *outer_hi = Some(match outer_hi.take() {
                            None => hi,
                            Some(b) => A::max(b, hi),
                        });
                    }
                }
            }
            Bounds::Avg {
                sum,
                voided,
                hull_lo,
                hull_hi,
                cnt_lo,
                cnt_hi,
            } => {
                let class = arg.class(i);
                sum.add(class, mult, certain);
                if mult.ub >= 1 {
                    match class {
                        Some(ArgClass::Numeric { lo, hi }) => {
                            *hull_lo = hull_lo.min(lo);
                            *hull_hi = hull_hi.max(hi);
                        }
                        Some(ArgClass::NonNumeric) => {}
                        Some(ArgClass::Anything) | None => *voided = true,
                    }
                }
                if matches!(class, Some(ArgClass::Numeric { .. })) {
                    if certain {
                        *cnt_lo += u128::from(mult.lb);
                    }
                    *cnt_hi += u128::from(mult.ub);
                }
            }
        }
    }

    /// The bounds. `grouped` distinguishes GROUP BY groups (which exist in
    /// a world only when non-empty) from the global group (always present,
    /// even over an empty input).
    fn finish(self, grouped: bool) -> (Bound, Bound) {
        match self {
            Bounds::Count { star, mut lb, ub } => {
                if grouped && star {
                    // A materialized world group is non-empty.
                    lb = lb.max(1);
                }
                (Bound::Val(count_value(lb)), Bound::Val(count_value(ub)))
            }
            Bounds::Sum(sum) => {
                if !sum.numeric_in_every_world(grouped) {
                    // SUM may be NULL in some covered world.
                    return (Bound::NegInf, Bound::PosInf);
                }
                (f64_bound(sum.lo), f64_bound(sum.hi))
            }
            Bounds::MinMax {
                is_min,
                anchor,
                all_known,
                outer_lo,
                outer_hi,
            } => {
                let outer_lo = outer_lo.map_or(Bound::NegInf, A::bound);
                let outer_hi = outer_hi.map_or(Bound::PosInf, A::bound);
                match anchor {
                    // `anchor` is only ever set for a case-A group.
                    Some(b) if is_min => (outer_lo, A::bound(b)),
                    Some(b) => (A::bound(b), outer_hi),
                    // Grouped non-point-key groups still materialize
                    // non-empty, so a fully-bounded member pool hulls the
                    // result.
                    None if grouped && all_known => (outer_lo, outer_hi),
                    None => (Bound::NegInf, Bound::PosInf),
                }
            }
            Bounds::Avg {
                sum,
                voided,
                hull_lo,
                hull_hi,
                cnt_lo,
                cnt_hi,
            } => {
                // Hull of the possible numeric groundings: the mean of the
                // numeric contributions stays inside their convex hull. A
                // possibly-present member that may ground to *anything*
                // voids the enclosure — its grounding can drag the mean
                // arbitrarily far. The sum/count corner quotient then
                // tightens the hull: the sum takes the SUM contribution
                // corners, certain numeric members pin the count from
                // below (≥ 1 by admissibility — with no certain numeric
                // member a covered world group is still non-empty and
                // all-numeric), possible members cap it from above. Sound
                // for any sum/count correlation since the quotient box
                // encloses every corner pairing.
                if !sum.numeric_in_every_world(grouped) || voided || hull_lo > hull_hi {
                    return (Bound::NegInf, Bound::PosInf);
                }
                let cnt_lo = cnt_lo.max(1) as f64;
                let cnt_hi = cnt_hi.max(1) as f64;
                let corners = [
                    sum.lo / cnt_lo,
                    sum.lo / cnt_hi,
                    sum.hi / cnt_lo,
                    sum.hi / cnt_hi,
                ];
                let q_lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
                let q_hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let lo = hull_lo.max(q_lo);
                let hi = hull_hi.min(q_hi);
                if lo > hi {
                    // Vacuous (no covered world materializes the group with
                    // a numeric value): stay conservative.
                    return (Bound::NegInf, Bound::PosInf);
                }
                (f64_bound(lo), f64_bound(hi))
            }
        }
    }
}

/// One aggregation-input (or γ / δ output) column as a flattened
/// `lb/bg/ub` triple — the columnar twin of a `Vec<RangeValue>`.
///
/// The dense variants are the triple-column-native fast path: a columnar
/// executor that already holds an attribute as three same-typed vectors
/// (the AU flattened layout) passes the slices straight through, and the
/// grouping, hulls and bound combination run typed kernels over them
/// instead of folding per-row `RangeValue`s. **Invariant**: dense triples
/// must be canonical — element-wise `lb ≤ bg ≤ ub` under the domain order
/// (which for same-typed `i64`/[`F64`] columns is the native `Ord`).
/// Non-canonical, mixed-type, nullable or computed columns go through
/// [`TripleCol::Rows`], the exact per-row representation. Outputs keep the
/// invariant: an [`AuCols`] column is dense exactly when its ranges are
/// finite triples of one type.
#[derive(Clone, Debug, PartialEq)]
pub enum TripleCol {
    /// A dense all-integer triple (canonical).
    Int {
        /// Lower bounds.
        lb: Vec<i64>,
        /// Selected guesses.
        bg: Vec<i64>,
        /// Upper bounds.
        ub: Vec<i64>,
    },
    /// A dense all-float triple (canonical under the [`F64`] total order).
    Float {
        /// Lower bounds.
        lb: Vec<F64>,
        /// Selected guesses.
        bg: Vec<F64>,
        /// Upper bounds.
        ub: Vec<F64>,
    },
    /// Per-row fallback: materialized ranges.
    Rows(Vec<RangeValue>),
}

impl TripleCol {
    fn view(&self) -> ColView<'_> {
        match self {
            TripleCol::Int { lb, bg, ub } => ColView::Int { lb, bg, ub },
            TripleCol::Float { lb, bg, ub } => ColView::Float { lb, bg, ub },
            TripleCol::Rows(rows) => ColView::Rows(rows),
        }
    }

    /// Row `i` as a range.
    fn range(&self, i: usize) -> RangeValue {
        self.view().range_at(i)
    }

    /// An output column of `ranges` ([`AuCols`]' representation): dense
    /// when there are some and every one is a finite triple of one type,
    /// per row otherwise.
    fn of_ranges(ranges: Vec<RangeValue>) -> TripleCol {
        /// The ranges' `lb/bg/ub` vectors when all are finite triples of `T`.
        fn dense<T: DenseVal>(ranges: &[RangeValue]) -> Option<[Vec<T>; 3]> {
            let mut cols = [0, 1, 2].map(|_| Vec::with_capacity(ranges.len()));
            for r in ranges {
                for (col, x) in cols.iter_mut().zip(finite::<T>(r)?) {
                    col.push(x);
                }
            }
            Some(cols)
        }
        if ranges.is_empty() {
            TripleCol::Rows(ranges)
        } else if let Some([lb, bg, ub]) = dense::<i64>(&ranges) {
            TripleCol::Int { lb, bg, ub }
        } else if let Some([lb, bg, ub]) = dense::<F64>(&ranges) {
            TripleCol::Float { lb, bg, ub }
        } else {
            TripleCol::Rows(ranges)
        }
    }
}

/// The range of a canonical dense triple.
fn dense_range<T: DenseVal>(l: T, b: T, u: T) -> RangeValue {
    RangeValue::new(
        Bound::Val(l.to_value()),
        b.to_value(),
        Bound::Val(u.to_value()),
    )
}

/// `r` as a dense triple of `T`: finite bounds and a selected guess, all
/// of type `T` (which makes it canonical — ranges are normalized).
fn finite<T: DenseVal>(r: &RangeValue) -> Option<[T; 3]> {
    match (r.lb(), r.ub()) {
        (Bound::Val(l), Bound::Val(u)) => Some([T::of(l)?, T::of(&r.bg)?, T::of(u)?]),
        _ => None,
    }
}

/// Borrowed view of one aggregation-input column; what [`aggregate_cols`]
/// and [`distinct_cols`] actually run over, so row-backed and dense
/// [`TripleCol`]s share the whole grouping, hulls and bound combination.
#[derive(Clone, Copy)]
enum ColView<'a> {
    Int {
        lb: &'a [i64],
        bg: &'a [i64],
        ub: &'a [i64],
    },
    Float {
        lb: &'a [F64],
        bg: &'a [F64],
        ub: &'a [F64],
    },
    Rows(&'a [RangeValue]),
}

impl<'a> ColView<'a> {
    /// Row `i`'s selected guess.
    fn bg_at(&self, i: usize) -> Value {
        match self {
            ColView::Int { bg, .. } => Value::Int(bg[i]),
            ColView::Float { bg, .. } => Value::Float(bg[i]),
            ColView::Rows(rows) => rows[i].bg.clone(),
        }
    }

    /// Row `i` materialized as a range (off the hot loops: the generic
    /// intersection test and output demotion; alloc-free for dense scalars).
    fn range_at(&self, i: usize) -> RangeValue {
        match self {
            ColView::Int { lb, bg, ub } => dense_range(lb[i], bg[i], ub[i]),
            ColView::Float { lb, bg, ub } => dense_range(lb[i], bg[i], ub[i]),
            ColView::Rows(rows) => rows[i].clone(),
        }
    }

    /// Whether the selected guesses mix `Int`s and `Float`s — the only way
    /// two structurally different keys share a coercion-normalized one
    /// (`join_key` turns integral floats into ints and fixes the rest).
    fn mixes_numeric(&self) -> bool {
        match self {
            ColView::Rows(rows) => {
                rows.iter().any(|r| matches!(r.bg, Value::Int(_)))
                    && rows.iter().any(|r| matches!(r.bg, Value::Float(_)))
            }
            _ => false,
        }
    }

    /// Per group, the hull of its rows' ranges: what folding
    /// [`RangeValue::hull`] over the group's rows in ascending order from
    /// its first row (`firsts[g]`, which holds its key) gives — `min lb` /
    /// `max ub` around the key, typed over a dense triple. `of` gives each
    /// row's group. A point row is its group's key, inside any hull of the
    /// group, and is not folded; `points[i]` is cleared unless row `i` is
    /// one (over a dense triple, structural equality of the three slots is
    /// exactly [`RangeValue::is_point`]: dense columns hold no unknowns).
    fn hulls(&self, of: &[usize], firsts: &[usize], points: &mut [bool]) -> Vec<Hull> {
        fn typed<T: DenseVal>(
            [lb, bg, ub]: [&[T]; 3],
            of: &[usize],
            firsts: &[usize],
            points: &mut [bool],
        ) -> Vec<[T; 3]> {
            let mut hulls: Vec<[T; 3]> = firsts.iter().map(|&f| [bg[f]; 3]).collect();
            for (i, &g) in of.iter().enumerate() {
                points[i] &= lb[i] == bg[i] && bg[i] == ub[i];
                let [lo, _, hi] = &mut hulls[g];
                *lo = (*lo).min(lb[i]);
                *hi = (*hi).max(ub[i]);
            }
            hulls
        }
        match *self {
            ColView::Int { lb, bg, ub } => typed([lb, bg, ub], of, firsts, points)
                .into_iter()
                .map(Hull::Int)
                .collect(),
            ColView::Float { lb, bg, ub } => typed([lb, bg, ub], of, firsts, points)
                .into_iter()
                .map(Hull::Float)
                .collect(),
            ColView::Rows(rows) => {
                let mut hulls: Vec<RangeValue> = firsts.iter().map(|&f| rows[f].clone()).collect();
                for (i, &g) in of.iter().enumerate() {
                    if !rows[i].is_point() {
                        points[i] = false;
                        if i != firsts[g] {
                            hulls[g] = hulls[g].hull(&rows[i]);
                        }
                    }
                }
                hulls.into_iter().map(Hull::Range).collect()
            }
        }
    }

    /// Whether row `i`'s range intersects `h`: two comparisons when the
    /// hull's bounds have the column's own type, [`RangeValue::intersects`]
    /// otherwise.
    fn intersects(&self, i: usize, h: &Hull) -> bool {
        match (self, h) {
            (ColView::Int { lb, ub, .. }, Hull::Int([l, _, u])) => lb[i] <= *u && *l <= ub[i],
            (ColView::Float { lb, ub, .. }, Hull::Float([l, _, u])) => lb[i] <= *u && *l <= ub[i],
            (ColView::Rows(rows), Hull::Range(h)) => rows[i].intersects(h),
            _ => self.range_at(i).intersects(&h.range()),
        }
    }
}

/// A key column's keys are its selected guesses.
impl KeyColumn for ColView<'_> {
    fn hash_at(&self, i: usize, h: &mut FxHasher) {
        match self {
            ColView::Int { bg, .. } => h.write_i64(bg[i]),
            ColView::Float { bg, .. } => bg[i].hash(h),
            ColView::Rows(rows) => rows[i].bg.hash(h),
        }
    }

    fn same(&self, i: usize, j: usize) -> bool {
        match self {
            ColView::Int { bg, .. } => bg[i] == bg[j],
            ColView::Float { bg, .. } => bg[i] == bg[j],
            ColView::Rows(rows) => rows[i].bg == rows[j].bg,
        }
    }

    fn ints(&self) -> Option<Cow<'_, [i64]>> {
        match *self {
            ColView::Int { bg, .. } => Some(Cow::Borrowed(bg)),
            ColView::Float { .. } => None,
            ColView::Rows(rows) => rows
                .iter()
                .map(|r| match r.bg {
                    Value::Int(k) => Some(k),
                    _ => None,
                })
                .collect::<Option<Vec<i64>>>()
                .map(Cow::Owned),
        }
    }
}

/// A group's key hull in one key column: a typed triple over a dense
/// column, a range over a row-backed one.
enum Hull {
    Int([i64; 3]),
    Float([F64; 3]),
    Range(RangeValue),
}

impl Hull {
    fn is_point(&self) -> bool {
        match self {
            Hull::Int([l, b, u]) => l == b && b == u,
            Hull::Float([l, b, u]) => l == b && b == u,
            Hull::Range(r) => r.is_point(),
        }
    }

    fn range(&self) -> RangeValue {
        match *self {
            Hull::Int([l, b, u]) => dense_range(l, b, u),
            Hull::Float([l, b, u]) => dense_range(l, b, u),
            Hull::Range(ref r) => r.clone(),
        }
    }
}

/// A scalar a dense triple can hold: totally ordered (matching the domain
/// order for same-typed comparisons), numeric, and convertible back into a
/// [`Value`] for the output bounds.
trait DenseVal: Copy + Ord {
    /// Whether this is the float type (a selected-guess SUM over it is a
    /// float).
    const FLOAT: bool;
    fn to_value(self) -> Value;
    fn to_f64(self) -> f64;
    /// `v` as this type, when it is one.
    fn of(v: &Value) -> Option<Self>;
}

impl DenseVal for i64 {
    const FLOAT: bool = false;
    fn to_value(self) -> Value {
        Value::Int(self)
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn of(v: &Value) -> Option<i64> {
        match v {
            Value::Int(x) => Some(*x),
            _ => None,
        }
    }
}

impl DenseVal for F64 {
    const FLOAT: bool = true;
    fn to_value(self) -> Value {
        Value::Float(self)
    }
    fn to_f64(self) -> f64 {
        self.get()
    }
    fn of(v: &Value) -> Option<F64> {
        match v {
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }
}

/// What one group's own (selected-guess) members fold to.
#[derive(Clone, Copy)]
struct Own {
    /// Every member is point-keyed.
    points: bool,
    /// Some member is certainly present.
    present: bool,
    /// Some member is certainly present and point-keyed.
    certain: bool,
    /// Some member is in the selected-guess world.
    in_sg: bool,
    /// Σ member `ub`.
    ub: u64,
}

impl Own {
    const EMPTY: Own = Own {
        points: true,
        present: false,
        certain: false,
        in_sg: false,
        ub: 0,
    };
}

/// The key pass γ and δ share: the input grouped by selected-guess key
/// tuple, and per group its key hulls and [`Own`] flags, each group's
/// members visited in ascending row order.
struct KeyPass {
    groups: Groups,
    /// Per row, whether every key range is a point.
    points: Vec<bool>,
    /// Per key column, per group, its key hull.
    hulls: Vec<Vec<Hull>>,
    own: Vec<Own>,
}

impl KeyPass {
    fn of(keys: &[ColView], mults: &[MultBound]) -> KeyPass {
        let n_rows = mults.len();
        let groups = Groups::of(keys, n_rows);
        let mut points = vec![true; n_rows];
        let hulls = keys
            .iter()
            .map(|c| c.hulls(&groups.of, &groups.firsts, &mut points))
            .collect();
        let mut own = vec![Own::EMPTY; groups.firsts.len()];
        for ((&g, m), &point) in groups.of.iter().zip(mults).zip(&points) {
            let o = &mut own[g];
            o.points &= point;
            o.present |= m.lb >= 1;
            o.certain |= m.lb >= 1 && point;
            o.in_sg |= m.bg >= 1;
            o.ub = o.ub.saturating_add(m.ub);
        }
        KeyPass {
            groups,
            points,
            hulls,
            own,
        }
    }
}

/// Pre-evaluated, column-major aggregation input: every group-key and
/// aggregate-argument range for every row, plus the row multiplicities.
/// Each column is a [`TripleCol`]: [`aggregate`] and [`distinct`] fill
/// [`TripleCol::Rows`] from an [`AuRelation`]; a columnar executor that
/// evaluated the expressions batch-at-a-time hands over dense `lb/bg/ub`
/// vectors, which flow straight into the typed grouping, hulls and bound
/// combination — no per-row [`RangeValue`] gathering. Both feed
/// [`aggregate_cols`] and [`distinct_cols`], so each bound rule has
/// exactly one implementation.
pub struct AggCols {
    /// Group-key triples, one per key expression (for δ: one per
    /// attribute).
    pub keys: Vec<TripleCol>,
    /// Aggregate-argument triples, one optional entry per aggregate
    /// (`None` for `COUNT(*)`).
    pub args: Vec<Option<TripleCol>>,
    /// Tuple multiplicity bounds, one per input row.
    pub mults: Vec<MultBound>,
}

/// A γ / δ result, column-major: one [`TripleCol`] per output attribute
/// and the multiplicity triples. A column is dense when it has rows and
/// every one is a finite triple of one type (`Int` or `Float`, canonical
/// like every range), [`TripleCol::Rows`] otherwise — its representation
/// is a function of its ranges, whatever the input's was.
#[derive(Clone, Debug, PartialEq)]
pub struct AuCols {
    /// The output attributes.
    pub cols: Vec<TripleCol>,
    /// Per output row, its multiplicity triple.
    pub mults: Vec<MultBound>,
    /// How many possible-member visits γ made from explicit lists, outside
    /// its passes over the input (see [`aggregate_cols`]); 0 for δ.
    pub listed_rows: u64,
}

impl AuCols {
    /// The result with output attributes `cols`, one range per row each.
    fn of(cols: Vec<Vec<RangeValue>>, mults: Vec<MultBound>) -> AuCols {
        AuCols {
            cols: cols.into_iter().map(TripleCol::of_ranges).collect(),
            mults,
            listed_rows: 0,
        }
    }

    /// The result as a relation over `schema` — how the row engine
    /// materialises γ and δ.
    fn materialise(&self, schema: Schema) -> AuRelation {
        let mut out = AuRelation::new(schema);
        for (i, &mult) in self.mults.iter().enumerate() {
            out.push(AuTuple {
                values: self.cols.iter().map(|c| c.range(i)).collect(),
                mult,
            });
        }
        out
    }
}

/// γ over pre-evaluated input: the grouping + bound combination of
/// [`aggregate`] without expression evaluation — typed kernels where a
/// column is a dense triple, the per-row fold where it is not. `kinds`
/// gives one aggregate function per `input.args` entry; the output holds
/// the key columns, then the aggregate columns. Grouped iff `input.keys`
/// is non-empty.
///
/// Every member of a group is visited in ascending row order, whichever
/// of two routes feeds it:
///
/// * **In the passes over the input** (the key pass γ shares with δ,
///   `KeyPass`, then one pass per aggregate argument column): every group's key hulls, flags and
///   selected-guess aggregates; and the bounds of every *plain* group —
///   case A (every key hull a point), point-keyed members only, no ranged
///   row intersecting its key and no other group sharing its
///   coercion-normalized key — whose possible members are exactly its
///   own.
/// * **From an explicit list**, one group at a time: every other group's
///   possible members, ascending. Their count is
///   [`AuCols::listed_rows`].
pub fn aggregate_cols(input: &AggCols, kinds: &[AggFunc]) -> AuCols {
    let keys: Vec<ColView> = input.keys.iter().map(TripleCol::view).collect();
    let args: Vec<Option<ColView>> = input
        .args
        .iter()
        .map(|c| c.as_ref().map(TripleCol::view))
        .collect();
    let mults = &input.mults;
    let n_rows = mults.len();
    let grouped = !keys.is_empty();

    let KeyPass {
        groups,
        points,
        hulls,
        mut own,
    } = KeyPass::of(&keys, mults);
    // Global aggregation over an empty input still yields one row.
    if !grouped && n_rows == 0 {
        own.push(Own::EMPTY);
    }
    let n_groups = own.len();
    let of = &groups.of;
    // Case A: every key hull is a point, so every covered world group
    // carries the group's selected-guess key.
    let case_a: Vec<bool> = (0..n_groups)
        .map(|g| hulls.iter().all(|h| h[g].is_point()))
        .collect();
    // Possible members of group `g`: every row whose key ranges intersect
    // its hulls (a grounding may land any of them in a covered world
    // group) — its own rows and, in case A, the point-keyed rows whose
    // coercion-normalized key equals its key, and the ranged rows that
    // intersect it.
    let ranged: Vec<usize> = (0..n_rows).filter(|&i| !points[i]).collect();
    let intersects =
        |g: usize, i: usize| keys.iter().zip(&hulls).all(|(c, h)| c.intersects(i, &h[g]));
    // Groups by coercion-normalized key: one bucket per group unless some
    // key column mixes `Int` and `Float` guesses (`1` and `1.0` are two
    // groups but one normalized key).
    let bucket_of: Vec<usize> = if keys.iter().any(ColView::mixes_numeric) {
        let mut index: FxHashMap<Tuple, usize> = FxHashMap::default();
        let normalized =
            |f: usize| -> Tuple { keys.iter().map(|c| c.bg_at(f).join_key()).collect() };
        groups
            .firsts
            .iter()
            .map(|&f| {
                let next = index.len();
                *index.entry(normalized(f)).or_insert(next)
            })
            .collect()
    } else {
        (0..n_groups).collect()
    };
    let mut bucket_size = vec![0usize; n_groups];
    for &b in &bucket_of {
        bucket_size[b] += 1;
    }
    let plain: Vec<bool> = (0..n_groups)
        .map(|g| {
            case_a[g]
                && own[g].points
                && bucket_size[bucket_of[g]] == 1
                && !ranged.iter().any(|&i| intersects(g, i))
        })
        .collect();

    // Per aggregate: every group's selected guess, every plain group's
    // bounds.
    let mut aggs: Vec<_> = kinds
        .iter()
        .zip(&args)
        .map(
            |(&kind, &arg)| with_arg!(arg, a => argument_pass(a, kind, of, &plain, mults, grouped)),
        )
        .collect();

    // Every other group from its possible-member list. A case-A group's
    // key is one point, and a world has at most one group at a given key:
    // at most one copy is ever charged to the group, so its multiplicity
    // is bounded by 1 whatever its possible members are. Any other group
    // may cover as many world groups as its possible members' copies.
    let mut ub: Vec<u64> = vec![1; n_groups];
    let mut listed_rows = 0u64;
    let point_rows: Option<Vec<Vec<usize>>> =
        (0..n_groups).any(|g| !plain[g] && case_a[g]).then(|| {
            let mut by_bucket = vec![Vec::new(); n_groups];
            for i in (0..n_rows).filter(|&i| points[i]) {
                by_bucket[bucket_of[of[i]]].push(i);
            }
            by_bucket
        });
    let mut possible: Vec<usize> = Vec::new();
    for g in (0..n_groups).filter(|&g| !plain[g]) {
        possible.clear();
        if case_a[g] {
            possible
                .extend_from_slice(&point_rows.as_ref().expect("built for case A")[bucket_of[g]]);
            let points_end = possible.len();
            possible.extend(ranged.iter().copied().filter(|&i| intersects(g, i)));
            if possible.len() > points_end {
                possible.sort_unstable();
            }
        } else {
            possible.extend((0..n_rows).filter(|&i| intersects(g, i)));
        }
        listed_rows += possible.len() as u64;
        // A certain member is a certainly present point-keyed member of
        // the group itself: a possible member from another selected-guess
        // group whose key merely compares equal (`1` next to the group
        // `1.0`) lands in its own group in every world.
        let certain = |i: usize| case_a[g] && mults[i].lb >= 1 && points[i] && of[i] == g;
        for ((&kind, &arg), (_, bounds)) in kinds.iter().zip(&args).zip(&mut aggs) {
            bounds[g] = with_arg!(arg, a => {
                let mut fold = Bounds::new(kind);
                for &i in &possible {
                    fold.add(a, i, mults[i], certain(i));
                }
                fold.finish(grouped)
            });
        }
        if !case_a[g] {
            ub[g] = possible
                .iter()
                .map(|&i| mults[i].ub)
                .fold(0, u64::saturating_add);
        }
    }

    let mut cols: Vec<Vec<RangeValue>> = hulls
        .iter()
        .map(|h| h.iter().map(Hull::range).collect())
        .collect();
    cols.extend(aggs.into_iter().map(|(sg, bounds)| {
        sg.into_iter()
            .zip(bounds)
            .map(|(bg, (lb, ub))| RangeValue::new(lb, bg, ub))
            .collect()
    }));
    let out_mults = own
        .iter()
        .zip(ub)
        .map(|(o, ub)| {
            if grouped {
                let in_sg = u64::from(o.in_sg);
                MultBound::new(u64::from(o.certain), in_sg, ub.max(in_sg).max(1))
            } else {
                MultBound::certain(1)
            }
        })
        .collect();
    AuCols {
        listed_rows,
        ..AuCols::of(cols, out_mults)
    }
}

/// γ's pass over one aggregate argument column, in row order: per group
/// its selected-guess value (ordinary aggregation over the members whose
/// selected-guess multiplicity materializes the row) and, for a `plain`
/// group, its bounds — a plain group's possible members are its own rows,
/// and a point-keyed member of its own is certain when certainly present.
/// Other groups' bounds are left empty for their list to fill.
fn argument_pass<A: ArgCol>(
    arg: A,
    kind: AggFunc,
    of: &[usize],
    plain: &[bool],
    mults: &[MultBound],
    grouped: bool,
) -> (Vec<Value>, Vec<(Bound, Bound)>) {
    let mut sg: Vec<AggState> = plain.iter().map(|_| AggState::new(kind)).collect();
    let mut bounds: Vec<Bounds<A>> = plain.iter().map(|_| Bounds::new(kind)).collect();
    for (i, (&g, &m)) in of.iter().zip(mults).enumerate() {
        if m.bg >= 1 {
            arg.sg(&mut sg[g], i, m.bg);
        }
        if plain[g] {
            bounds[g].add(arg, i, m, m.lb >= 1);
        }
    }
    (
        sg.into_iter().map(AggState::finish).collect(),
        bounds.into_iter().map(|b| b.finish(grouped)).collect(),
    )
}

/// [`AggState::update`] over a dense argument: the same arithmetic, read
/// straight off the scalar (a dense value is known and numeric).
fn update_dense<T: DenseVal>(state: &mut AggState, x: T, mult: u64) {
    match state {
        AggState::Sum {
            total,
            saw_int_only,
            any,
        } => {
            *total += x.to_f64() * mult as f64;
            *any = true;
            *saw_int_only &= !T::FLOAT;
        }
        AggState::Avg { total, n } => {
            *total += x.to_f64() * mult as f64;
            *n += u128::from(mult);
        }
        AggState::Count(_) | AggState::MinMax { .. } => state.update(Some(&x.to_value()), mult),
    }
}

/// γ: grouping + aggregation with sound attribute-level bounds.
///
/// Output groups are the distinct *selected-guess* key tuples, in
/// first-seen order (matching the deterministic engines). For each output
/// group: its key attributes hull the member ranges (so every possible
/// world's group key that any member may take is covered); all input
/// tuples whose key ranges intersect the hull are *possible members* and
/// widen the aggregate bounds; certainly-present members with single-point
/// keys ground the lower bounds; the multiplicity triple is
/// `[certainly materializes, in the SG world, ub]`, where `ub` is 1 for a
/// point-key hull (a world has at most one group at that key) and the sum
/// of the possible members' copies otherwise.
/// Returned beside the relation: [`AuCols::listed_rows`].
pub fn aggregate(
    rel: &AuRelation,
    group_by: &[(Expr, Column)],
    aggregates: &[AggSpec],
) -> Result<(AuRelation, u64), ExprError> {
    let bound_keys: Vec<Expr> = group_by
        .iter()
        .map(|(e, _)| e.bind(rel.schema()))
        .collect::<Result<_, _>>()?;
    let bound_args: Vec<Option<Expr>> = aggregates
        .iter()
        .map(|a| a.arg.as_ref().map(|e| e.bind(rel.schema())).transpose())
        .collect::<Result<_, _>>()?;

    // Evaluate keys and arguments per tuple (errors surface in input order,
    // keys before arguments, like the deterministic engines).
    let n_rows = rel.rows().len();
    let mut keys: Vec<Vec<RangeValue>> = vec![Vec::with_capacity(n_rows); bound_keys.len()];
    let mut args: Vec<Option<Vec<RangeValue>>> = bound_args
        .iter()
        .map(|e| e.as_ref().map(|_| Vec::with_capacity(n_rows)))
        .collect();
    for row in rel.rows() {
        let bg_tuple = row.bg_tuple();
        for (e, col) in bound_keys.iter().zip(&mut keys) {
            col.push(eval_range(e, &row.values, &bg_tuple)?);
        }
        for (e, col) in bound_args.iter().zip(&mut args) {
            if let (Some(e), Some(col)) = (e.as_ref(), col.as_mut()) {
                col.push(eval_range(e, &row.values, &bg_tuple)?);
            }
        }
    }
    let input = AggCols {
        keys: keys.into_iter().map(TripleCol::Rows).collect(),
        args: args.into_iter().map(|c| c.map(TripleCol::Rows)).collect(),
        mults: rel.rows().iter().map(|row| row.mult).collect(),
    };

    let kinds: Vec<AggFunc> = aggregates.iter().map(|a| a.kind).collect();
    let mut columns: Vec<Column> = group_by.iter().map(|(_, c)| c.clone()).collect();
    columns.extend(aggregates.iter().map(|a| a.column.clone()));
    let out = aggregate_cols(&input, &kinds);
    Ok((out.materialise(Schema::new(columns)), out.listed_rows))
}

/// δ over column-major input: every `input.keys` column is an attribute
/// (`input.args` is ignored). Rows merge by selected-guess tuple — γ's
/// grouping and key pass, so `1` and `1.0` stay apart — in first-seen
/// order; each output tuple's attributes hull the merged rows' (typed over
/// dense columns). A merged row set certainly yields at least one distinct
/// tuple when any member is certainly present, exactly one in the SG world
/// when any member is SG-present, and at most the *sum* of member upper
/// bounds (every copy may ground to a distinct value that survives
/// deduplication).
pub fn distinct_cols(input: &AggCols) -> AuCols {
    let views: Vec<ColView> = input.keys.iter().map(TripleCol::view).collect();
    let KeyPass { hulls, own, .. } = KeyPass::of(&views, &input.mults);
    AuCols::of(
        hulls
            .iter()
            .map(|h| h.iter().map(Hull::range).collect())
            .collect(),
        own.iter()
            .map(|o| MultBound::new(u64::from(o.present), u64::from(o.in_sg), o.ub))
            .collect(),
    )
}

/// δ: duplicate elimination — [`distinct_cols`] over the relation's
/// attributes as per-row ranges.
pub fn distinct(rel: &AuRelation) -> AuRelation {
    let input = AggCols {
        keys: (0..rel.schema().arity())
            .map(|c| TripleCol::Rows(rel.rows().iter().map(|r| r.values[c].clone()).collect()))
            .collect(),
        args: Vec::new(),
        mults: rel.rows().iter().map(|r| r.mult).collect(),
    };
    distinct_cols(&input).materialise(rel.schema().clone())
}

/// Sort rows by selected-guess keys (outermost first, per-key direction)
/// with the full encoded row as the deterministic tie-break. `descending`
/// flags parallel `keys`. Ordering is presentation-level: it reflects the
/// SG world, like the deterministic engines' ORDER BY over the SG.
pub fn sort_by_bg(rel: &AuRelation, keys: &[(Expr, bool)]) -> Result<AuRelation, ExprError> {
    let bound: Vec<(Expr, bool)> = keys
        .iter()
        .map(|(e, d)| Ok((e.bind(rel.schema())?, *d)))
        .collect::<Result<_, ExprError>>()?;
    let mut decorated: Vec<(Vec<Value>, usize)> = rel
        .rows()
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let bg = row.bg_tuple();
            let key: Vec<Value> = bound
                .iter()
                .map(|(e, _)| e.eval(&bg))
                .collect::<Result<_, _>>()?;
            Ok((key, i))
        })
        .collect::<Result<_, ExprError>>()?;
    let tie_break: Vec<Tuple> = rel.rows().iter().map(encode_row).collect();
    decorated.sort_by(|(ka, ia), (kb, ib)| {
        for ((va, vb), (_, desc)) in ka.iter().zip(kb).zip(&bound) {
            let ord = va.cmp(vb);
            let ord = if *desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        tie_break[*ia].cmp(&tie_break[*ib])
    });
    let mut out = AuRelation::new(rel.schema().clone());
    for (_, i) in decorated {
        out.push(rel.rows()[i].clone());
    }
    Ok(out)
}

/// Truncate to the first `limit` rows (AU tuples, not grounded copies —
/// presentation-level, like [`sort_by_bg`]).
pub fn limit(rel: &AuRelation, n: usize) -> AuRelation {
    let mut out = AuRelation::new(rel.schema().clone());
    for row in rel.rows().iter().take(n) {
        out.push(row.clone());
    }
    out
}

/// Whether two attribute ranges can be equal under *some* grounding, with
/// NULL treated IS-NOT-DISTINCT-style (NULL matches NULL — the bag
/// engine's EXCEPT matching, not join equality). A definite NULL grounds
/// to NULL in every world, so it possibly matches only another definite
/// NULL or a range wide enough to admit NULL (top). Bounded ranges ground
/// to known values: equality is possible when the intervals intersect, or
/// when the selected guesses are not mutually comparable under SQL
/// (cross-family groundings compare `None` — three-valued ANY, i.e.
/// possibly equal). Over-approximating possible equality is the sound
/// direction everywhere this is consumed (it only lowers `lb`s and raises
/// `ub`s).
fn possibly_equal_nd(a: &RangeValue, b: &RangeValue) -> bool {
    match (a.is_null(), b.is_null()) {
        (true, true) => true,
        (true, false) => b.is_top(),
        (false, true) => a.is_top(),
        (false, false) => {
            a.is_top() || b.is_top() || a.intersects(b) || a.bg.sql_cmp(&b.bg).is_none()
        }
    }
}

/// [`possibly_equal_nd`] of column `c` of row `i` of `a` and row `j` of
/// `b`, assembling ranges only for a loose cell: the pins decide the rest.
/// Two points intersect iff `sql_cmp` calls them equal, so they are
/// possibly equal iff it does not order them (equal, or incomparable
/// across families); a definite NULL and a point never are.
fn cells_possibly_equal<V: RowView + ?Sized>(a: &V, i: usize, b: &V, j: usize, c: usize) -> bool {
    match (a.pin(i, c), b.pin(j, c)) {
        (Pin::Loose, _) | (_, Pin::Loose) => possibly_equal_nd(&a.range(i, c), &b.range(j, c)),
        (Pin::Null, Pin::Null) => true,
        (Pin::Null, _) | (_, Pin::Null) => false,
        _ => !matches!(
            a.bg(i, c).sql_cmp(&b.bg(j, c)),
            Some(Ordering::Less | Ordering::Greater)
        ),
    }
}

/// Whether two cells are equal under *every* grounding (IS-NOT-DISTINCT):
/// both definite NULL, or both points whose selected guesses compare
/// equal under SQL — the pins and guesses decide it, no range needed.
/// Under-approximating certain equality is the sound direction (it only
/// raises `ub`s).
fn cells_certainly_equal<V: RowView + ?Sized>(a: &V, i: usize, b: &V, j: usize, c: usize) -> bool {
    match (a.pin(i, c), b.pin(j, c)) {
        (Pin::Null, Pin::Null) => true,
        (Pin::Point | Pin::Nan, Pin::Point | Pin::Nan) => {
            a.bg(i, c).sql_cmp(&b.bg(j, c)) == Some(Ordering::Equal)
        }
        _ => false,
    }
}

/// Whether rows `i` of `a` and `j` of `b` are possibly equal on every one
/// of their `arity` columns.
fn rows_possibly_equal<V: RowView + ?Sized>(
    a: &V,
    i: usize,
    b: &V,
    j: usize,
    arity: usize,
) -> bool {
    (0..arity).all(|c| cells_possibly_equal(a, i, b, j, c))
}

/// Whether rows `i` of `a` and `j` of `b` are certainly equal on every
/// one of their `arity` columns.
fn rows_certainly_equal<V: RowView + ?Sized>(
    a: &V,
    i: usize,
    b: &V,
    j: usize,
    arity: usize,
) -> bool {
    (0..arity).all(|c| cells_certainly_equal(a, i, b, j, c))
}

/// Whether row `i` denotes one known tuple in every world: each attribute
/// is a point (NaN included) or a definite NULL.
fn certain_valued<V: RowView + ?Sized>(v: &V, i: usize, arity: usize) -> bool {
    (0..arity).all(|c| v.pin(i, c) != Pin::Loose)
}

/// What `⋈`, `−` and `⟕` select, before anything is materialised: output
/// row `k` is row `left[k]` of the left input next to row `right[k]` of
/// the right input (`None`: that side is the definite-NULL pad, `⟕` only),
/// under multiplicity triple `mults[k]`. `−` keeps left rows only, so its
/// `right` is empty. Every selected triple has `ub ≥ 1` — a row with
/// `ub = 0` exists in no world and is never selected.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Selection {
    /// Per output row, its row of the left input.
    pub left: Vec<Option<usize>>,
    /// Per output row, its row of the right input (`⋈` and `⟕`).
    pub right: Vec<Option<usize>>,
    /// Per output row, its multiplicity triple.
    pub mults: Vec<MultBound>,
    /// How many candidate pairs the selection refined through the range
    /// rule (`PairEval` for `⋈` / `⟕`, `rows_possibly_equal` /
    /// `rows_certainly_equal` for `−`) rather than settling them as a
    /// bucket hit — the work uncertainty cost, not a selected row.
    pub refined: u64,
}

impl Selection {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.mults.len()
    }

    /// Whether nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.mults.is_empty()
    }

    /// Keep left row `i` under `mult` (`−`).
    fn keep(&mut self, i: usize, mult: MultBound) {
        if mult.ub >= 1 {
            self.left.push(Some(i));
            self.mults.push(mult);
        }
    }

    /// Keep the pair `(left, right)` under `mult` (`⋈`, `⟕`).
    fn pair(&mut self, left: Option<usize>, right: Option<usize>, mult: MultBound) {
        if mult.ub >= 1 {
            self.left.push(left);
            self.right.push(right);
            self.mults.push(mult);
        }
    }

    /// Append `other`'s rows after these — how selections over
    /// consecutive probe-row ranges concatenate.
    pub fn append(&mut self, mut other: Selection) {
        self.left.append(&mut other.left);
        self.right.append(&mut other.right);
        self.mults.append(&mut other.mults);
        self.refined += other.refined;
    }

    /// The selected rows of `left` (next to those of `right`, for `⟕`) as
    /// a relation over `schema`; a pad side is all definite NULLs.
    fn materialise(
        &self,
        left: &AuRelation,
        right: Option<&AuRelation>,
        schema: Schema,
    ) -> AuRelation {
        fn side(rel: &AuRelation, row: Option<usize>, values: &mut Vec<RangeValue>) {
            match row {
                Some(i) => values.extend(rel.rows()[i].values.iter().cloned()),
                None => values.extend((0..rel.schema().arity()).map(|_| RangeValue::null())),
            }
        }
        let mut out = AuRelation::new(schema);
        for (k, &mult) in self.mults.iter().enumerate() {
            let mut values = Vec::with_capacity(out.schema().arity());
            side(left, self.left[k], &mut values);
            if let Some(right) = right {
                side(right, self.right[k], &mut values);
            }
            out.push(AuTuple { values, mult });
        }
        out
    }
}

/// `−` (EXCEPT): bag difference under the deterministic engine's
/// IS-NOT-DISTINCT matching, lifted to `[lb, bg, ub]` triples. Output
/// rows keep the left side's values and order; rows whose upper bound
/// drops to zero are certainly removed and disappear.
///
/// The selected-guess component replays the bag engine exactly. For
/// `EXCEPT ALL` the right side's SG multiplicities form a per-tuple
/// removal budget consumed by left rows in scan order (first-`k`
/// removal); for `EXCEPT` the output is the first SG occurrence of each
/// left tuple with no SG right match. The bounds bracket every world:
///
/// * `lb` — survivors guaranteed in every world: the left row's `lb`
///   minus every right-side copy that might ground equal to it
///   (Σ `ub` over `rows_possibly_equal` right rows).
/// * `ub` — survivors possible in some world: reducible only when the
///   left row is `certain_valued` (its tuple is fixed across worlds).
///   The certain removal budget Σ `lb` over `rows_certainly_equal`
///   right rows shrinks it — minus the part that *earlier* left rows
///   might absorb first (removal is first-`k` in scan order, so
///   Σ `ub` over earlier possibly-equal left rows protects this row's
///   copies from the budget).
///
/// One grouping pass does the keying: right rows then left rows are
/// grouped by selected-guess tuple over *all* columns ([`SgKeyIndex`]
/// under IS-NOT-DISTINCT matching), and the removal budgets and seen-flags
/// above are kept per group. A keyed left row's bucket hits — two fixed
/// rows equal in every column, where both tests are true without reading
/// a range — add up to its group's precomputed sums; it runs
/// `rows_possibly_equal` / `rows_certainly_equal` against the fuzzy right
/// rows only (and, for `EXCEPT ALL`'s protectors, against the earlier left
/// rows that are not keyed). A pruned pair is two fixed rows that differ
/// in some column, where both tests are false — every sum and flag above
/// is the one the all-pairs loop computes.
pub fn except(left: &AuRelation, right: &AuRelation, all: bool) -> Result<AuRelation, SchemaError> {
    except_over(left, right, all, true)
}

/// `−` over two views of union-compatible inputs of `arity` columns: the
/// surviving left rows with their triples — what [`except`] materialises
/// and the vectorized engine gathers from its chunks.
pub fn except_select<V: RowView + ?Sized>(
    left: &V,
    right: &V,
    arity: usize,
    all: bool,
) -> Selection {
    except_rows(left, right, arity, all, true)
}

/// The all-pairs reference [`except`] is tested against: every right (and
/// earlier left) row is a candidate.
#[cfg(test)]
fn except_pairwise(
    left: &AuRelation,
    right: &AuRelation,
    all: bool,
) -> Result<AuRelation, SchemaError> {
    except_over(left, right, all, false)
}

fn except_over(
    left: &AuRelation,
    right: &AuRelation,
    all: bool,
    hashed: bool,
) -> Result<AuRelation, SchemaError> {
    left.schema().check_union_compatible(right.schema())?;
    let arity = left.schema().arity();
    let selection = except_rows(left.rows(), right.rows(), arity, all, hashed);
    Ok(selection.materialise(left, None, left.schema().clone()))
}

fn except_rows<V: RowView + ?Sized>(
    left: &V,
    right: &V,
    arity: usize,
    all: bool,
    hashed: bool,
) -> Selection {
    if all {
        except_all(left, right, arity, hashed)
    } else {
        except_distinct(left, right, arity, hashed)
    }
}

/// `−`'s one grouping pass: the right side indexed for the left side over
/// all `arity` columns under IS-NOT-DISTINCT matching, and per key group
/// Σ `bg` over every right row (the selected-guess removal budget) and
/// Σ `ub` / Σ `lb` over the keyed ones — what a keyed left row's bucket
/// hits add up to without visiting them (saturating sums of non-negative
/// terms do not depend on their order). A left row refines against its
/// fuzzy candidates when it is keyed, every right row otherwise (and
/// always, with `hashed` off: the all-pairs reference).
struct ExceptPass {
    index: SgKeyIndex,
    bg: Vec<u64>,
    ub: Vec<u64>,
    lb: Vec<u64>,
    every: Vec<usize>,
    hashed: bool,
}

impl ExceptPass {
    fn new<V: RowView + ?Sized>(left: &V, right: &V, arity: usize, hashed: bool) -> ExceptPass {
        let cols: Vec<usize> = (0..arity).collect();
        let index = SgKeyIndex::build_for(right, &cols, left, &cols, true);
        let n = index.groups.firsts.len();
        let (mut bg, mut ub, mut lb) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
        for r in 0..right.len() {
            let (g, m) = (index.groups.of[r], right.mult(r));
            bg[g] = bg[g].saturating_add(m.bg);
            if index.keyed[r] {
                ub[g] = ub[g].saturating_add(m.ub);
                lb[g] = lb[g].saturating_add(m.lb);
            }
        }
        ExceptPass {
            index,
            bg,
            ub,
            lb,
            every: (0..right.len()).collect(),
            hashed,
        }
    }

    /// Left row `i`'s group, whether its bucket hits count without
    /// refinement, and the right rows it refines against.
    fn row(&self, i: usize) -> (usize, bool, &[usize]) {
        let keyed = self.hashed && self.index.probe_keyed(i);
        let refine = if keyed {
            &self.index.fuzzy
        } else {
            &self.every
        };
        (self.index.probe_group(i), keyed, refine)
    }
}

fn except_all<V: RowView + ?Sized>(left: &V, right: &V, arity: usize, hashed: bool) -> Selection {
    let pass = ExceptPass::new(left, right, arity, hashed);
    // SG removal budget per selected-guess tuple.
    let mut budget = pass.bg.clone();
    // Per group, Σ `ub` of the keyed left rows so far — a keyed row's
    // protectors among them — and the other left rows so far, which
    // protect only through refinement. (A keyed earlier row in another
    // group differs from a keyed row in some column between two points of
    // one family, or a point and a definite NULL: never possibly equal.)
    let mut earlier_ub = vec![0u64; pass.bg.len()];
    let mut earlier_fuzzy: Vec<usize> = Vec::new();
    let mut out = Selection::default();
    for i in 0..left.len() {
        let l = left.mult(i);
        let (g, keyed, refine) = pass.row(i);
        let bg_out = if l.bg >= 1 {
            let take = budget[g].min(l.bg);
            budget[g] -= take;
            l.bg - take
        } else {
            0
        };
        let fixed = certain_valued(left, i, arity);
        let (mut possible_removal, mut certain_removal) = if keyed {
            (pass.ub[g], if fixed { pass.lb[g] } else { 0 })
        } else {
            (0, 0)
        };
        for &r in refine {
            let m = right.mult(r);
            let (possibly, certainly) = (m.ub >= 1, fixed && m.lb >= 1);
            if !possibly && !certainly {
                continue;
            }
            out.refined += 1;
            if possibly && rows_possibly_equal(left, i, right, r, arity) {
                possible_removal = possible_removal.saturating_add(m.ub);
            }
            if certainly && rows_certainly_equal(left, i, right, r, arity) {
                certain_removal = certain_removal.saturating_add(m.lb);
            }
        }
        let lb_out = l.lb.saturating_sub(possible_removal);
        let ub_out = if certain_removal > 0 {
            let (mut protectors, earlier) = if keyed {
                (earlier_ub[g], Cow::Borrowed(&earlier_fuzzy[..]))
            } else {
                (0, Cow::Owned((0..i).collect()))
            };
            for &k in earlier.iter() {
                let m = left.mult(k);
                if m.ub >= 1 {
                    out.refined += 1;
                    if rows_possibly_equal(left, k, left, i, arity) {
                        protectors = protectors.saturating_add(m.ub);
                    }
                }
            }
            l.ub.saturating_sub(certain_removal.saturating_sub(protectors))
        } else {
            l.ub
        };
        if keyed {
            earlier_ub[g] = earlier_ub[g].saturating_add(l.ub);
        } else {
            earlier_fuzzy.push(i);
        }
        out.keep(
            i,
            MultBound::new(lb_out.min(bg_out).min(ub_out), bg_out.min(ub_out), ub_out),
        );
    }
    out
}

/// `EXCEPT` (distinct): 0/1 per left row — **not** `distinct` of the bag
/// difference (`{t,t} − {t}` is empty under EXCEPT but `{t}` under
/// `distinct(EXCEPT ALL)`). A left row survives a world iff its grounding
/// is absent from the right side there, and only the first left row
/// grounding a given tuple emits it.
fn except_distinct<V: RowView + ?Sized>(
    left: &V,
    right: &V,
    arity: usize,
    hashed: bool,
) -> Selection {
    let pass = ExceptPass::new(left, right, arity, hashed);
    // First SG occurrence per left tuple, and first certain claimant per
    // fixed tuple (an earlier certainly-equal row with lb ≥ 1 already
    // guarantees the single output copy, so later rows must not).
    let mut sg_seen = vec![false; pass.bg.len()];
    let mut certain_seen = vec![false; pass.bg.len()];
    let mut out = Selection::default();
    for i in 0..left.len() {
        let l = left.mult(i);
        let (g, keyed, refine) = pass.row(i);
        let fixed = certain_valued(left, i, arity);
        let mut possibly_removed = keyed && pass.ub[g] >= 1;
        let mut certainly_removed = fixed && keyed && pass.lb[g] >= 1;
        for &r in refine {
            let m = right.mult(r);
            let possibly = !possibly_removed && m.ub >= 1;
            let certainly = fixed && !certainly_removed && m.lb >= 1;
            if !possibly && !certainly {
                continue;
            }
            out.refined += 1;
            possibly_removed |= possibly && rows_possibly_equal(left, i, right, r, arity);
            certainly_removed |= certainly && rows_certainly_equal(left, i, right, r, arity);
        }
        let bg_out = u64::from(l.bg >= 1 && pass.bg[g] == 0 && !sg_seen[g]);
        sg_seen[g] |= bg_out == 1;
        let lb_out = u64::from(l.lb >= 1 && fixed && !possibly_removed && !certain_seen[g]);
        certain_seen[g] |= lb_out == 1;
        let ub_out = if certainly_removed { 0 } else { l.ub.min(1) };
        out.keep(
            i,
            MultBound::new(lb_out.min(bg_out).min(ub_out), bg_out.min(ub_out), ub_out),
        );
    }
    out
}

/// `⟕` / `⟖`: outer join in preserved-side-major order (the deterministic
/// engine's contract — for each preserved row, its surviving matches,
/// then a NULL-padded row when a matchless world is possible). The output
/// schema is always `left ++ right`; `left_kind` selects which side is
/// preserved. Matched pairs refine exactly like the inner [`join`]. The
/// pad row's attributes on the other side are *definite NULLs* and its
/// multiplicity triple is gated per component:
///
/// * `lb` — the preserved row's `lb`, unless any pair is possibly
///   matching (then some world may have a match and the pad is not
///   guaranteed).
/// * `bg` — the preserved row's `bg`, unless a selected-guess match
///   exists (the bag engine's behavior in the SG world).
/// * `ub` — the preserved row's `ub`, unless some certainly-present
///   other-side row matches under every grounding (then every world has
///   a match and the pad is impossible; dropped when this hits zero).
///
/// All three flags only ever see possibly-matching pairs, so candidates
/// come from the other side's selected-guess key index whenever the
/// predicate has keys ([`candidate_keys`]: equi-keys, or `x = k` of
/// `NOT IN`'s null-aware equality).
pub fn outer_join(
    left: &AuRelation,
    right: &AuRelation,
    predicate: Option<&Expr>,
    left_kind: bool,
) -> Result<AuRelation, ExprError> {
    let (bound, keys) = bind_on(predicate, left.schema(), right.schema())?;
    let (l, r) = WithKeys::pair(left, right, &keys)?;
    let arities = (left.schema().arity(), right.schema().arity());
    let selection = outer_join_select(&l, &r, arities, bound.as_ref(), &keys, left_kind)?;
    Ok(selection.materialise(left, Some(right), left.schema().concat(right.schema())))
}

/// `⟕` / `⟖` over two views: the selection [`outer_join`] materialises
/// and the vectorized engine gathers. `arities` are the two inputs' user
/// arities and `predicate` is bound over `left ++ right`; `keys` are its
/// [`candidate_keys`], whose left / right expressions each view carries,
/// evaluated, as its columns `arity..arity + keys.len()` (no predicate,
/// no keys).
///
/// The matched pairs are [`JoinSelect`]'s, the preserved side probing:
/// keys prune exactly as they do for [`join`] — a pruned pair's predicate
/// is certainly false, so no match flag and no output row depends on it.
pub fn outer_join_select<V: RowView + ?Sized>(
    left: &V,
    right: &V,
    arities: (usize, usize),
    predicate: Option<&Expr>,
    keys: &JoinKeys,
    left_kind: bool,
) -> Result<Selection, ExprError> {
    let join = JoinSelect::new(left, right, arities, predicate, keys, !left_kind);
    let outer = join.sides().0;
    let mut scan = join.scan();
    let mut out = Selection::default();
    for o in 0..outer.len() {
        let matched = join.probe_row(o, &mut scan, &mut out)?;
        let m = outer.mult(o);
        let pad = MultBound::new(
            if matched.possibly { 0 } else { m.lb },
            if matched.sg { 0 } else { m.bg },
            if matched.certainly { 0 } else { m.ub },
        );
        if left_kind {
            out.pair(Some(o), None, pad);
        } else {
            out.pair(None, Some(o), pad);
        }
    }
    Ok(out)
}

/// Scratch for evaluating a (bound) join predicate over pairs of view
/// rows: only the columns it references are assembled, every other
/// position keeps a placeholder the evaluators never read.
struct PairEval<'p> {
    predicate: &'p Expr,
    l_arity: usize,
    refs: Vec<usize>,
    row: Vec<RangeValue>,
}

impl<'p> PairEval<'p> {
    fn new(predicate: &'p Expr, (l_arity, r_arity): (usize, usize)) -> PairEval<'p> {
        let mut refs = Vec::new();
        predicate.referenced_columns(&mut refs);
        refs.sort_unstable();
        refs.dedup();
        PairEval {
            predicate,
            l_arity,
            refs,
            row: vec![RangeValue::null(); l_arity + r_arity],
        }
    }

    /// [`pair_truth`] over row `l` of `left` next to row `r` of `right`.
    fn eval<V: RowView + ?Sized>(
        &mut self,
        left: &V,
        l: usize,
        right: &V,
        r: usize,
    ) -> Result<(RangeTruth, bool), ExprError> {
        for &c in &self.refs {
            self.row[c] = match c.checked_sub(self.l_arity) {
                Some(rc) => right.range(r, rc),
                None => left.range(l, c),
            }
            .into_owned();
        }
        pair_truth(self.predicate, &self.row)
    }
}

#[cfg(test)]
mod dense_equivalence;
#[cfg(test)]
mod pruning_equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::encode_rows;

    fn span(lo: i64, bg: i64, hi: i64) -> RangeValue {
        RangeValue::new(
            Bound::Val(Value::Int(lo)),
            Value::Int(bg),
            Bound::Val(Value::Int(hi)),
        )
    }

    fn rel() -> AuRelation {
        // g certain for rows 1-2, uncertain for row 3; v uncertain on row 2.
        let mut r = AuRelation::new(Schema::qualified("r", ["g", "v"]));
        r.push(AuTuple {
            values: vec![
                RangeValue::point(Value::Int(1)),
                RangeValue::point(Value::Int(10)),
            ],
            mult: MultBound::certain(1),
        });
        r.push(AuTuple {
            values: vec![RangeValue::point(Value::Int(1)), span(5, 20, 30)],
            mult: MultBound::new(0, 1, 1),
        });
        r.push(AuTuple {
            values: vec![span(1, 2, 2), RangeValue::point(Value::Int(7))],
            mult: MultBound::certain(1),
        });
        r
    }

    #[test]
    fn filter_refines_multiplicities() {
        let r = rel();
        let out = filter(&r, &Expr::named("v").ge(Expr::lit(8i64))).unwrap();
        // Row 1: certainly true → [1,1,1]. Row 2: possibly true (5..30 vs 8)
        // → [0,1,1]. Row 3: v=7 certainly false → dropped.
        assert_eq!(out.rows().len(), 2);
        assert_eq!(out.rows()[0].mult, MultBound::certain(1));
        assert_eq!(out.rows()[1].mult, MultBound::new(0, 1, 1));
    }

    #[test]
    fn group_by_sum_bounds_enclose_groundings() {
        let r = rel();
        let (out, listed_rows) = aggregate(
            &r,
            &[(Expr::named("g"), Column::unqualified("g"))],
            &[
                AggSpec {
                    kind: AggFunc::CountStar,
                    arg: None,
                    column: Column::unqualified("n"),
                },
                AggSpec {
                    kind: AggFunc::Sum,
                    arg: Some(Expr::named("v")),
                    column: Column::unqualified("s"),
                },
            ],
        )
        .unwrap();
        // Two SG groups: g=1 and g=2.
        assert_eq!(out.rows().len(), 2);
        // Neither is plain: row 3's ranged key meets g=1's point hull, and
        // g=2's hull is not a point. Each lists rows 1-3.
        assert_eq!(listed_rows, 6);
        let g1 = &out.rows()[0];
        assert_eq!(g1.values[0].bg, Value::Int(1));
        // SG: rows 1+2 → count 2, sum 30.
        assert_eq!(g1.values[1].bg, Value::Int(2));
        assert_eq!(g1.values[2].bg, Value::Int(30));
        // Worlds: row 2 possibly absent, row 3 possibly in g=1 (key range
        // [1,2]). Count ∈ [1, 3].
        assert!(g1.values[1].contains(&Value::Int(1)));
        assert!(g1.values[1].contains(&Value::Int(3)));
        // Sum: row1 certain 10; row2 ∈ {absent} ∪ [5,30]; row3 maybe 7.
        assert!(g1.values[2].contains(&Value::Int(10)));
        assert!(g1.values[2].contains(&Value::Int(47)));
        assert!(!g1.values[2].contains(&Value::Int(3)), "below certain 10");
        // The key hull is the point 1: a world has one group at key 1.
        assert_eq!(g1.mult, MultBound::new(1, 1, 1));
        // g=2 group: row 3's SG; key hull [1,2] is not a point → wide count
        // and a multiplicity up to its possible members' copies.
        let g2 = &out.rows()[1];
        assert_eq!(g2.mult, MultBound::new(0, 1, 3));
        assert_eq!(g2.values[0].bg, Value::Int(2));
        assert!(g2.values[0].contains(&Value::Int(1)));
        assert_eq!(g2.mult.lb, 0, "row 3 may ground its key to 1");
    }

    #[test]
    fn mixed_int_float_keys_keep_group_multiplicities_well_formed() {
        // `1` and `1.0` are two selected-guess groups sharing one
        // normalized key: the certain `1` is a possible member of the group
        // `1.0` (their keys compare equal) but never a certain one — in
        // every world it groups with itself. The group `1.0`'s only member
        // is absent from the selected guess, so it certainly materializes
        // nowhere: `[0, 0, 1]`, not the ill-formed `[1, 0, 1]`. Both point
        // keys bound their multiplicities by 1.
        let input = AggCols {
            keys: vec![TripleCol::Rows(vec![
                RangeValue::point(Value::Int(1)),
                RangeValue::point(fv(1.0)),
            ])],
            args: vec![None],
            mults: vec![MultBound::certain(1), MultBound::new(0, 0, 1)],
        };
        let out = aggregate_cols(&input, &[AggFunc::CountStar]);
        assert_eq!(
            out.mults,
            [MultBound::new(1, 1, 1), MultBound::new(0, 0, 1)]
        );
        assert!(out.mults.iter().all(MultBound::is_well_formed));
        // The same input through δ: each group's triple comes from its own
        // members only.
        let distinct = distinct_cols(&input);
        assert_eq!(
            distinct.mults,
            [MultBound::certain(1), MultBound::new(0, 0, 1)]
        );
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let r = AuRelation::new(Schema::qualified("r", ["g", "v"]));
        let (out, _) = aggregate(
            &r,
            &[],
            &[AggSpec {
                kind: AggFunc::CountStar,
                arg: None,
                column: Column::unqualified("n"),
            }],
        )
        .unwrap();
        assert_eq!(out.rows().len(), 1);
        assert_eq!(out.rows()[0].values[0].bg, Value::Int(0));
        assert!(out.rows()[0].values[0].is_point());
        assert_eq!(out.rows()[0].mult, MultBound::certain(1));
    }

    #[test]
    fn distinct_merges_by_selected_guess() {
        let mut r = AuRelation::new(Schema::qualified("r", ["a"]));
        r.push(AuTuple {
            values: vec![span(1, 2, 3)],
            mult: MultBound::certain(2),
        });
        r.push(AuTuple {
            values: vec![span(2, 2, 5)],
            mult: MultBound::new(0, 1, 4),
        });
        r.push(AuTuple {
            values: vec![RangeValue::point(Value::Int(9))],
            mult: MultBound::new(0, 0, 1),
        });
        let out = distinct(&r);
        assert_eq!(out.rows().len(), 2);
        let merged = &out.rows()[0];
        assert!(merged.values[0].contains(&Value::Int(1)));
        assert!(merged.values[0].contains(&Value::Int(5)));
        assert_eq!(merged.mult, MultBound::new(1, 1, 6));
        assert_eq!(out.rows()[1].mult, MultBound::new(0, 0, 1));
    }

    #[test]
    fn join_multiplies_pointwise_and_filters() {
        let mut l = AuRelation::new(Schema::qualified("l", ["a"]));
        l.push(AuTuple {
            values: vec![span(1, 2, 3)],
            mult: MultBound::new(1, 2, 3),
        });
        let mut rr = AuRelation::new(Schema::qualified("s", ["b"]));
        rr.push(AuTuple {
            values: vec![RangeValue::point(Value::Int(2))],
            mult: MultBound::new(0, 1, 2),
        });
        let out = join(&l, &rr, Some(&Expr::named("a").eq(Expr::named("b")))).unwrap();
        assert_eq!(out.rows().len(), 1);
        // Possible (ranges intersect) but not certain → lb 0; SG 2=2 holds.
        assert_eq!(out.rows()[0].mult, MultBound::new(0, 2, 6));
    }

    fn fv(x: f64) -> Value {
        Value::Float(F64::new(x))
    }

    fn avg_over(rows: Vec<AuTuple>) -> RangeValue {
        let mut r = AuRelation::new(Schema::qualified("r", ["g", "v"]));
        for row in rows {
            r.push(row);
        }
        let (out, _) = aggregate(
            &r,
            &[(Expr::named("g"), Column::unqualified("g"))],
            &[AggSpec {
                kind: AggFunc::Avg,
                arg: Some(Expr::named("v")),
                column: Column::unqualified("a"),
            }],
        )
        .unwrap();
        assert_eq!(out.rows().len(), 1);
        out.rows()[0].values[1].clone()
    }

    #[test]
    fn avg_bounds_tighten_via_sum_count() {
        // Two certain members {10, 20}: every world averages exactly 15,
        // which the sum/count quotient pins down (the old min/max hull
        // reported [10, 20]).
        let avg = avg_over(vec![
            AuTuple {
                values: vec![
                    RangeValue::point(Value::Int(1)),
                    RangeValue::point(Value::Int(10)),
                ],
                mult: MultBound::certain(1),
            },
            AuTuple {
                values: vec![
                    RangeValue::point(Value::Int(1)),
                    RangeValue::point(Value::Int(20)),
                ],
                mult: MultBound::certain(1),
            },
        ]);
        assert_eq!(avg.bg, fv(15.0));
        assert!(avg.contains(&fv(15.0)));
        assert!(!avg.contains(&fv(14.9)));
        assert!(!avg.contains(&fv(15.1)));
    }

    #[test]
    fn avg_bounds_enclose_optional_members() {
        // Certain 10 plus an optional member in [5, 30]: possible averages
        // are {10} ∪ [(10 + 5)/2, (10 + 30)/2] = {10} ∪ [7.5, 20].
        let avg = avg_over(vec![
            AuTuple {
                values: vec![
                    RangeValue::point(Value::Int(1)),
                    RangeValue::point(Value::Int(10)),
                ],
                mult: MultBound::certain(1),
            },
            AuTuple {
                values: vec![RangeValue::point(Value::Int(1)), span(5, 20, 30)],
                mult: MultBound::new(0, 1, 1),
            },
        ]);
        for world in [7.5, 10.0, 15.0, 20.0] {
            assert!(avg.contains(&fv(world)), "must enclose {world}");
        }
        assert!(!avg.contains(&fv(4.9)));
        assert!(!avg.contains(&fv(31.0)));
    }

    #[test]
    fn avg_bounds_widen_for_unbounded_members() {
        // A possible member that may ground to anything voids the
        // enclosure: its grounding can drag the mean arbitrarily far (the
        // old hull silently skipped it and reported [10, 10]).
        let avg = avg_over(vec![
            AuTuple {
                values: vec![
                    RangeValue::point(Value::Int(1)),
                    RangeValue::point(Value::Int(10)),
                ],
                mult: MultBound::certain(1),
            },
            AuTuple {
                values: vec![
                    RangeValue::point(Value::Int(1)),
                    RangeValue::top(Value::Int(990)),
                ],
                mult: MultBound::certain(1),
            },
        ]);
        assert_eq!(avg.bg, fv(500.0));
        assert!(avg.contains(&fv(505.0)));
        assert!(avg.contains(&fv(-1e9)));
    }

    fn join_fixture() -> (AuRelation, AuRelation) {
        let mut l = AuRelation::new(Schema::qualified("l", ["a"]));
        for (v, m) in [
            (RangeValue::point(Value::Int(1)), MultBound::certain(1)),
            (span(1, 2, 3), MultBound::new(0, 1, 2)),
            (RangeValue::null(), MultBound::certain(1)),
            (RangeValue::point(Value::Int(5)), MultBound::certain(2)),
        ] {
            l.push(AuTuple {
                values: vec![v],
                mult: m,
            });
        }
        let mut r = AuRelation::new(Schema::qualified("s", ["b", "c"]));
        for (v, c, m) in [
            (
                RangeValue::point(Value::Int(1)),
                0i64,
                MultBound::certain(1),
            ),
            (RangeValue::point(Value::Int(2)), 1, MultBound::new(0, 1, 2)),
            (RangeValue::point(Value::Int(7)), 2, MultBound::certain(1)),
            (RangeValue::top(Value::Int(9)), 3, MultBound::certain(1)),
        ] {
            r.push(AuTuple {
                values: vec![v, RangeValue::point(Value::Int(c))],
                mult: m,
            });
        }
        (l, r)
    }

    #[test]
    fn hash_join_matches_theta_join() {
        let (l, r) = join_fixture();
        let keys = [(Expr::named("a"), Expr::named("b"))];
        let pred = Expr::named("a").eq(Expr::named("b"));
        let theta = join(&l, &r, Some(&pred)).unwrap();
        assert!(theta.rows().len() >= 4, "fixture exercises the join");
        // An OR-wrapped equivalent predicate defeats equi-key extraction,
        // so this runs the pure nested loop — the hash-pruned paths must
        // reproduce it exactly, rows and order.
        let nested_pred = pred.clone().or(Expr::lit(1i64).eq(Expr::lit(2i64)));
        let nested = join(&l, &r, Some(&nested_pred)).unwrap();
        assert_eq!(theta, nested);
        // Probe-left order matches the nested loop's left-major order.
        let probe_left = hash_join(&l, &r, &keys, None, false).unwrap();
        assert_eq!(probe_left, theta);
        // Build-left emits right-major: same multiset, re-sorted.
        let build_left = hash_join(&l, &r, &keys, None, true).unwrap();
        let mut a = encode_rows(&build_left);
        let mut b = encode_rows(&theta);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // The certainly-equal pair keeps its certain multiplicity.
        assert!(theta.rows().iter().any(|t| t.mult.lb >= 1));
    }

    #[test]
    fn hash_join_applies_residual() {
        let (l, r) = join_fixture();
        let keys = [(Expr::named("a"), Expr::named("b"))];
        let residual = Expr::named("c").ge(Expr::lit(1i64));
        let full = Expr::named("a")
            .eq(Expr::named("b"))
            .and(Expr::named("c").ge(Expr::lit(1i64)));
        let theta = join(&l, &r, Some(&full)).unwrap();
        let hashed = hash_join(&l, &r, &keys, Some(&residual), false).unwrap();
        assert_eq!(hashed, theta);
    }

    #[test]
    fn hash_join_cross_family_keys_fall_back() {
        // Int vs Str point keys are possibly equal under three-valued SQL
        // comparison (`sql_cmp` is `None`), so the hash path must not
        // bucket-prune them: a probe key outside the build side's family is
        // fuzzy, and the pair is refined like the nested loop's.
        let mut l = AuRelation::new(Schema::qualified("l", ["a"]));
        l.push(AuTuple {
            values: vec![RangeValue::point(Value::Int(1))],
            mult: MultBound::certain(1),
        });
        let mut r = AuRelation::new(Schema::qualified("s", ["b"]));
        r.push(AuTuple {
            values: vec![RangeValue::point(Value::str("1"))],
            mult: MultBound::certain(1),
        });
        let keys = [(Expr::named("a"), Expr::named("b"))];
        let hashed = hash_join(&l, &r, &keys, None, false).unwrap();
        let theta = join(&l, &r, Some(&Expr::named("a").eq(Expr::named("b")))).unwrap();
        assert_eq!(hashed, theta);
        assert_eq!(hashed.rows().len(), 1);
        assert_eq!(hashed.rows()[0].mult, MultBound::new(0, 0, 1));
    }

    #[test]
    fn sort_tie_break_is_input_order_independent() {
        // Two rows with equal sort keys but different bound encodings
        // (definite NULL vs top): either input order sorts identically.
        let row_null = AuTuple {
            values: vec![RangeValue::point(Value::Int(1)), RangeValue::null()],
            mult: MultBound::certain(1),
        };
        let row_top = AuTuple {
            values: vec![
                RangeValue::point(Value::Int(1)),
                RangeValue::top(Value::Null),
            ],
            mult: MultBound::certain(1),
        };
        let sorted = |first: &AuTuple, second: &AuTuple| {
            let mut r = AuRelation::new(Schema::qualified("r", ["g", "v"]));
            r.push(first.clone());
            r.push(second.clone());
            sort_by_bg(&r, &[(Expr::named("g"), false)]).unwrap()
        };
        assert_eq!(
            sorted(&row_null, &row_top),
            sorted(&row_top, &row_null),
            "tie-break must not depend on input order"
        );
    }

    fn one_col(name: &str, rows: Vec<AuTuple>) -> AuRelation {
        let mut r = AuRelation::new(Schema::qualified(name, ["a"]));
        for t in rows {
            r.push(t);
        }
        r
    }

    fn pt(v: i64, mult: MultBound) -> AuTuple {
        AuTuple {
            values: vec![RangeValue::point(Value::Int(v))],
            mult,
        }
    }

    #[test]
    fn except_all_maybe_present_right_widens_both_copies() {
        // left = {1, 1} certain; right = {1} maybe present ([0,1,1]).
        // Worlds: right absent → both copies survive; present → one does.
        let l = one_col(
            "l",
            vec![pt(1, MultBound::certain(1)), pt(1, MultBound::certain(1))],
        );
        let r = one_col("r", vec![pt(1, MultBound::new(0, 1, 1))]);
        let out = except(&l, &r, true).unwrap();
        assert_eq!(out.rows().len(), 2);
        // First copy absorbs the SG removal budget; neither survival is
        // guaranteed (lb 0: the maybe-row may ground onto either copy) and
        // neither is certainly removed (right's lb is 0 → ub stays).
        assert_eq!(out.rows()[0].mult, MultBound::new(0, 0, 1));
        assert_eq!(out.rows()[1].mult, MultBound::new(0, 1, 1));
    }

    #[test]
    fn except_all_certain_match_drops_the_row() {
        let l = one_col("l", vec![pt(1, MultBound::certain(1))]);
        let r = one_col("r", vec![pt(1, MultBound::certain(1))]);
        let out = except(&l, &r, true).unwrap();
        assert!(out.rows().is_empty(), "a certainly removed row must vanish");
    }

    #[test]
    fn except_all_earlier_copies_protect_the_ub() {
        // left = {1, 1} certain, right = {1} certain: first-k removal takes
        // the FIRST copy, so the second's upper bound survives — the
        // earlier copy absorbs ("protects against") the certain budget.
        let l = one_col(
            "l",
            vec![pt(1, MultBound::certain(1)), pt(1, MultBound::certain(1))],
        );
        let r = one_col("r", vec![pt(1, MultBound::certain(1))]);
        let out = except(&l, &r, true).unwrap();
        assert_eq!(out.rows().len(), 1, "the first copy is certainly removed");
        assert_eq!(out.rows()[0].mult, MultBound::new(0, 1, 1));
    }

    #[test]
    fn except_distinct_is_not_distinct_of_except_all() {
        // {1, 1} EXCEPT {1} = ∅ (1 appears on the right), whereas
        // distinct({1, 1} EXCEPT ALL {1}) would keep one copy.
        let l = one_col(
            "l",
            vec![pt(1, MultBound::certain(1)), pt(1, MultBound::certain(1))],
        );
        let r = one_col("r", vec![pt(1, MultBound::certain(1))]);
        let out = except(&l, &r, false).unwrap();
        assert!(out.rows().is_empty());
        // And a surviving tuple emits exactly one certain copy.
        let l2 = one_col("l", vec![pt(2, MultBound::certain(3))]);
        let out2 = except(&l2, &r, false).unwrap();
        assert_eq!(out2.rows().len(), 1);
        assert_eq!(out2.rows()[0].mult, MultBound::certain(1));
    }

    #[test]
    fn outer_join_pad_components_are_gated_independently() {
        // Preserved row certain; the only match is maybe-present: the pair
        // is uncertain and the pad keeps ub (a matchless world exists) but
        // loses lb (a matched world exists too) and bg (the SG world has
        // the match).
        let l = one_col("l", vec![pt(1, MultBound::certain(1))]);
        let mut r = AuRelation::new(Schema::qualified("r", ["b"]));
        r.push(pt(1, MultBound::new(0, 1, 1)));
        let out = outer_join(&l, &r, Some(&Expr::named("a").eq(Expr::named("b"))), true).unwrap();
        assert_eq!(out.rows().len(), 2, "one matched pair + one pad");
        assert_eq!(out.rows()[0].mult, MultBound::new(0, 1, 1));
        assert_eq!(out.rows()[1].mult, MultBound::new(0, 0, 1));
        assert!(
            out.rows()[1].values[1].is_null(),
            "the pad's other side must be a definite NULL"
        );
    }

    #[test]
    fn outer_join_certain_match_kills_the_pad() {
        let l = one_col("l", vec![pt(1, MultBound::certain(1))]);
        let mut r = AuRelation::new(Schema::qualified("r", ["b"]));
        r.push(pt(1, MultBound::certain(1)));
        let out = outer_join(&l, &r, Some(&Expr::named("a").eq(Expr::named("b"))), true).unwrap();
        assert_eq!(out.rows().len(), 1, "every world has the match: no pad");
        assert_eq!(out.rows()[0].mult, MultBound::certain(1));
    }

    #[test]
    fn right_outer_join_pads_the_left_side() {
        let l = one_col("l", vec![]);
        let mut r = AuRelation::new(Schema::qualified("r", ["b"]));
        r.push(pt(7, MultBound::new(1, 2, 3)));
        let out = outer_join(&l, &r, None, false).unwrap();
        assert_eq!(out.rows().len(), 1);
        assert!(out.rows()[0].values[0].is_null(), "left side pads to NULL");
        assert_eq!(out.rows()[0].values[1], RangeValue::point(Value::Int(7)));
        assert_eq!(out.rows()[0].mult, MultBound::new(1, 2, 3));
    }

    #[test]
    fn outer_join_key_pruning_changes_nothing() {
        // `θ OR FALSE` has θ's truth ranges and selected-guess truth but no
        // extractable equi-key, so it takes the unpruned nested loop:
        // pruned and unpruned outer joins must agree on matches, pad
        // gating and order, for both preserved sides, over point, ranged,
        // NULL and top keys.
        let (l, r) = join_fixture();
        let keyed = Expr::named("l.a").eq(Expr::named("s.b"));
        let with_residual = keyed.clone().and(Expr::named("s.c").lt(Expr::lit(2i64)));
        for pred in [keyed, with_residual] {
            let unpruned = pred.clone().or(Expr::lit(false));
            for left_kind in [true, false] {
                let pruned = outer_join(&l, &r, Some(&pred), left_kind).unwrap();
                assert_eq!(
                    pruned,
                    outer_join(&l, &r, Some(&unpruned), left_kind).unwrap(),
                    "{pred} left_kind={left_kind}"
                );
                let pads = pruned.rows().iter().filter(|t| t.values[1].is_null());
                assert!(!left_kind || pads.count() > 0, "the fixture must pad");
            }
        }
    }
}
