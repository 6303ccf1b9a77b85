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
//!   their candidates from a selected-guess hash index ([`SgKeyIndex`])
//!   and run the pair tests on those alone. The rules are written once,
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
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use ua_data::algebra::{candidate_keys, merge_ascending, EquiKey, JoinKeys};
use ua_data::expr::{Expr, ExprError, Truth};
use ua_data::schema::{Column, Schema, SchemaError};
use ua_data::tuple::Tuple;
use ua_data::value::{Value, F64};
use ua_data::{FxHashMap, FxHashSet, FxHasher};
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

/// A row's coercion-normalized (`join_key`) selected-guess key over a
/// column set: one `i64` on the one-`Int`-column fast path (the shape
/// `aggregate_cols` and the deterministic join index special-case), the
/// tuple otherwise.
#[derive(Clone, PartialEq, Eq, Hash)]
enum SgKey {
    Int(i64),
    Tuple(Tuple),
}

/// Row `i`'s key over `cols` (`int`: the one `Int` column's `i64`).
fn row_key<V: RowView + ?Sized>(int: bool, v: &V, i: usize, cols: &[usize]) -> SgKey {
    if !int {
        return SgKey::Tuple(cols.iter().map(|&c| v.bg(i, c).join_key()).collect());
    }
    match v.bg(i, cols[0]) {
        Value::Int(k) => SgKey::Int(k),
        _ => unreachable!("the one-Int-column path is checked over every row"),
    }
}

/// Whether `a_cols` / `b_cols` are one column holding an `Int` selected
/// guess in every row of both views: the keys are then that `i64`
/// (`join_key` is the identity on `Int`).
fn int_keyed<A, B>(a: &A, a_cols: &[usize], b: &B, b_cols: &[usize]) -> bool
where
    A: RowView + ?Sized,
    B: RowView + ?Sized,
{
    fn all_int<V: RowView + ?Sized>(v: &V, c: usize) -> bool {
        (0..v.len()).all(|i| matches!(v.bg(i, c), Value::Int(_)))
    }
    a_cols.len() == 1 && all_int(a, a_cols[0]) && all_int(b, b_cols[0])
}

/// Whether row `i` of `v` is hashable over `cols`: each cell fixes one
/// hashable value — a point other than NaN or, under IS-NOT-DISTINCT
/// matching (`nulls_match`, EXCEPT's), a definite NULL, which matches
/// exactly the other definite NULLs; under join equality it does not (no
/// bucket could hold "matches nothing").
fn hashable_row<V: RowView + ?Sized>(v: &V, i: usize, cols: &[usize], nulls_match: bool) -> bool {
    let mut pins = cols.iter().map(|&c| v.pin(i, c));
    pins.all(|p| p == Pin::Point || (nulls_match && p == Pin::Null))
}

/// The comparable-type family of a point key value. Cross-family point
/// comparisons are `None` under `sql_cmp` — three-valued ANY, i.e.
/// possibly equal — so hash pruning is sound only when each key column's
/// point keys stay within one family across both sides.
pub fn key_family(v: &Value) -> u8 {
    match v {
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Str(_) => 4,
        _ => 8,
    }
}

/// OR the point keys' families of one hashable row into `fam` (a definite
/// NULL has no family: it is comparable with nothing and equal to NULLs
/// only).
fn add_families<V: RowView + ?Sized>(fam: &mut [u8], v: &V, i: usize, cols: &[usize]) {
    for (f, &c) in fam.iter_mut().zip(cols) {
        if v.pin(i, c) == Pin::Point {
            *f |= key_family(&v.bg(i, c));
        }
    }
}

/// A selected-guess key index over one side's key columns: rows whose keys
/// are all hashable (`hashable`) sit in buckets by coercion-normalized
/// key; rows with a ranged, unknown, or NaN key are *fuzzy* — possibly
/// equal to any probe key — and appear in every candidate list. Pruned
/// pairs are exactly those whose key equality is certainly false (two
/// hashable key tuples of one family per column in different buckets
/// differ under `sql_cmp`, which is exact), so refining the candidates
/// reproduces the pairwise loop's result.
///
/// The converse is what lets callers skip refinement: a hashable probe
/// row meets a hashable build row only in its own bucket, and two hashable
/// keys of one family share a bucket iff `sql_cmp` calls them equal
/// (`join_key` equality is `sql_cmp` equality within a family — `F64::new`
/// canonicalises `−0.0`, and NaN never hashes). So such a *bucket hit*
/// (`bucket_hit`) is a pair of certainly equal keys.
pub struct SgKeyIndex {
    buckets: FxHashMap<SgKey, Vec<usize>>,
    fuzzy: Vec<usize>,
    /// Per build row, whether it sits in a bucket.
    bucketed: Vec<bool>,
    nulls_match: bool,
    /// Keys take the one-`Int`-column path.
    int: bool,
}

impl SgKeyIndex {
    /// Index `build`'s rows by their key over `build_cols` for probing
    /// `probe`'s rows over `probe_cols`, under join equality or —
    /// `nulls_match` — under IS-NOT-DISTINCT matching. `None` when hash
    /// pruning between the two sides is unsound: some key column's point
    /// keys span two comparable type families across them (cross-family
    /// points compare `None`, i.e. possibly equal).
    pub fn build_for<B, P>(
        build: &B,
        build_cols: &[usize],
        probe: &P,
        probe_cols: &[usize],
        nulls_match: bool,
    ) -> Option<SgKeyIndex>
    where
        B: RowView + ?Sized,
        P: RowView + ?Sized,
    {
        let int = int_keyed(build, build_cols, probe, probe_cols);
        // Per-key-column family bitmasks over the hashable rows of both
        // sides (fuzzy rows join every candidate list, so their families
        // never matter).
        let mut families = vec![0u8; build_cols.len()];
        let mut buckets: FxHashMap<SgKey, Vec<usize>> = FxHashMap::default();
        let mut fuzzy = Vec::new();
        let mut bucketed = Vec::with_capacity(build.len());
        for i in 0..build.len() {
            let keyed = hashable_row(build, i, build_cols, nulls_match);
            if keyed {
                add_families(&mut families, build, i, build_cols);
                buckets
                    .entry(row_key(int, build, i, build_cols))
                    .or_default()
                    .push(i);
            } else {
                fuzzy.push(i);
            }
            bucketed.push(keyed);
        }
        for i in 0..probe.len() {
            if hashable_row(probe, i, probe_cols, nulls_match) {
                add_families(&mut families, probe, i, probe_cols);
            }
        }
        families
            .iter()
            .all(|f| f.count_ones() <= 1)
            .then_some(SgKeyIndex {
                buckets,
                fuzzy,
                bucketed,
                nulls_match,
                int,
            })
    }

    /// The index that prunes nothing: all `len` rows are candidates of
    /// every probe, and none is a bucket hit.
    fn unpruned(len: usize) -> SgKeyIndex {
        SgKeyIndex {
            buckets: FxHashMap::default(),
            fuzzy: (0..len).collect(),
            bucketed: vec![false; len],
            nulls_match: false,
            int: false,
        }
    }

    /// Row `i` of `probe`'s key over `cols`, or `None` when the row is
    /// fuzzy — then every build row is its candidate.
    fn probe_key<P: RowView + ?Sized>(&self, probe: &P, i: usize, cols: &[usize]) -> Option<SgKey> {
        hashable_row(probe, i, cols, self.nulls_match).then(|| row_key(self.int, probe, i, cols))
    }

    /// Collect the build rows whose key equality with a probe row keyed
    /// `key` ([`SgKeyIndex::probe_key`]) is possibly true, ascending
    /// (build-scan order), into `out`.
    fn candidates_of(&self, key: Option<&SgKey>, out: &mut Vec<usize>) {
        out.clear();
        match key {
            None => out.extend(0..self.bucketed.len()),
            Some(key) => {
                let bucket = self.buckets.get(key).map(Vec::as_slice);
                merge_ascending(bucket.unwrap_or_default(), &self.fuzzy, out);
            }
        }
    }

    /// Whether candidate `b` of a probe row keyed `key` came out of the
    /// probe's own bucket: the two keys are certainly equal.
    fn bucket_hit(&self, key: Option<&SgKey>, b: usize) -> bool {
        key.is_some() && self.bucketed[b]
    }
}

/// θ-join in left-major order; multiplicities multiply pointwise, the
/// predicate refines like [`filter`] over the pair. The predicate's
/// [`candidate_keys`] (equi-keys, or `NOT IN`'s null-aware key) index the
/// right side when their point keys stay within one comparable type family
/// per column ([`JoinSelect`]) — pruned pairs have a certainly-false key
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
/// columns are always left ++ right. The same multiset as [`join`] over
/// the reconstructed predicate; when cross-family point keys make hash
/// pruning unsound every pair is a candidate, in [`join`]'s left-major
/// order.
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
/// plan's own, never re-extracted from that predicate: an extra key could
/// change the cross-family decision, and with it the row order.
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
/// Candidates come from an [`SgKeyIndex`] over the build side's key
/// columns when there are keys and pruning between the sides is sound; a
/// pruned pair's key equality is certainly false, so its predicate is. A
/// bucket hit pairs two certainly equal keys: when the predicate is
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
    /// The probe side's key columns.
    probe_cols: Vec<usize>,
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
    /// side being the right one when `build_left`, when an index prunes;
    /// left-major otherwise.
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
            .then(|| SgKeyIndex::build_for(build, &build_cols, probe, &probe_cols, false))
            .flatten();
        let plain = |k: &EquiKey| matches!((&k.left, &k.right), (Expr::Col(_), Expr::Col(_)));
        let certain_hits =
            (keys.residual.is_empty() || keys.null_aware) && keys.keys.iter().all(plain);
        JoinSelect {
            left,
            right,
            arities,
            predicate,
            build_left: build_left && index.is_some(),
            index,
            probe_cols,
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
        let (probe, build) = self.sides();
        let key = self.index.as_ref().and_then(|index| {
            let key = index.probe_key(probe, p, &self.probe_cols);
            index.candidates_of(key.as_ref(), cand);
            key
        });
        let hits = self.index.as_ref().filter(|_| self.certain_hits);
        let hit = |b: usize| hits.is_some_and(|index| index.bucket_hit(key.as_ref(), b));
        let certain = RangeTruth::exact(Truth::True);
        let mut matched = Matched::default();
        for &b in cand.iter() {
            let (l, r) = if self.build_left { (b, p) } else { (p, b) };
            let (rt, bg_true) = match pairs {
                // No predicate: every pair matches in every world.
                None => (certain, true),
                Some(_) if hit(b) => (certain, true),
                Some(pairs) => pairs.eval(self.left, l, self.right, r)?,
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

/// An aggregate function kind (mirrors the engine's `AggFunc`; kept local
/// so the bound combination lives below the engine in the crate graph).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggKind {
    /// `COUNT(expr)` — non-null count.
    Count,
    /// `COUNT(*)` — row count.
    CountStar,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
}

/// One aggregate of an AU aggregation.
#[derive(Clone, Debug)]
pub struct AggSpec {
    /// The function.
    pub kind: AggKind,
    /// Its argument (`None` for `COUNT(*)`).
    pub arg: Option<Expr>,
    /// Output column.
    pub column: Column,
}

/// The selected-guess aggregator — a faithful replica of the engine's
/// `AggState` semantics (COUNT skips unknowns, SUM stays integer until a
/// float appears and accumulates in `f64`, MIN/MAX use SQL comparison,
/// AVG divides `f64` totals), so the SG component of an AU aggregate
/// equals deterministic aggregation over the SG world bit for bit.
enum BgAgg {
    Count(u64),
    Sum {
        total: f64,
        saw_int_only: bool,
        any: bool,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
    Avg {
        total: f64,
        n: u64,
    },
}

impl BgAgg {
    fn new(kind: AggKind) -> BgAgg {
        match kind {
            AggKind::Count | AggKind::CountStar => BgAgg::Count(0),
            AggKind::Sum => BgAgg::Sum {
                total: 0.0,
                saw_int_only: true,
                any: false,
            },
            AggKind::Min => BgAgg::MinMax {
                best: None,
                is_min: true,
            },
            AggKind::Max => BgAgg::MinMax {
                best: None,
                is_min: false,
            },
            AggKind::Avg => BgAgg::Avg { total: 0.0, n: 0 },
        }
    }

    /// [`BgAgg::update`] over a dense argument: the same arithmetic, read
    /// straight off the scalar (a dense value is known and numeric).
    fn update_dense<T: DenseVal>(&mut self, x: T, mult: u64) {
        match self {
            BgAgg::Sum {
                total,
                saw_int_only,
                any,
            } => {
                *total += x.to_f64() * mult as f64;
                *any = true;
                *saw_int_only &= !T::FLOAT;
            }
            BgAgg::Avg { total, n } => {
                *total += x.to_f64() * mult as f64;
                *n += mult;
            }
            BgAgg::Count(_) | BgAgg::MinMax { .. } => self.update(Some(&x.to_value()), mult),
        }
    }

    fn update(&mut self, value: Option<&Value>, mult: u64) {
        match self {
            BgAgg::Count(n) => match value {
                None => *n += mult,
                Some(v) if !v.is_unknown() => *n += mult,
                _ => {}
            },
            BgAgg::Sum {
                total,
                saw_int_only,
                any,
            } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *total += x * mult as f64;
                        *any = true;
                        if matches!(v, Value::Float(_)) {
                            *saw_int_only = false;
                        }
                    }
                }
            }
            BgAgg::MinMax { best, is_min } => {
                if let Some(v) = value {
                    if v.is_unknown() {
                        return;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => matches!(
                            (v.sql_cmp(b), *is_min),
                            (Some(Ordering::Less), true) | (Some(Ordering::Greater), false)
                        ),
                    };
                    if better {
                        *best = Some(v.clone());
                    }
                }
            }
            BgAgg::Avg { total, n } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *total += x * mult as f64;
                        *n += mult;
                    }
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            BgAgg::Count(n) => Value::Int(n as i64),
            BgAgg::Sum {
                total,
                saw_int_only,
                any,
            } => {
                if !any {
                    Value::Null
                } else if saw_int_only {
                    Value::Int(total as i64)
                } else {
                    Value::Float(F64::new(total))
                }
            }
            BgAgg::MinMax { best, .. } => best.unwrap_or(Value::Null),
            BgAgg::Avg { total, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(F64::new(total / n as f64))
                }
            }
        }
    }
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

/// One possible group member, pre-classified for the bound combination.
#[derive(Clone, Copy)]
struct Member<'a> {
    mult: MultBound,
    /// Certainly in the group's (single-point) key in every world: the
    /// tuple is certainly present and all its key attributes are points
    /// equal to the group key.
    certain: bool,
    arg: Option<ArgClass>,
    arg_range: Option<&'a RangeValue>,
}

/// Contribution corners of one numeric member over multiplicity × value —
/// the enclosure of what `mult` copies within `[lo, hi]` can add to a
/// numeric SUM in a covered world. Shared by [`member_contrib`] and the
/// dense kernel arms of [`agg_bounds_dense`], so the exact corner
/// arithmetic (and its float semantics) has one implementation.
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

/// Per-member contribution corners over multiplicity × value — the
/// enclosure of what the member can add to a numeric SUM in a covered
/// world (shared by the SUM and AVG bound combinations).
fn member_contrib(m: &Member) -> (f64, f64) {
    match m.arg {
        Some(ArgClass::Numeric { lo, hi }) => numeric_contrib(m.mult, lo, hi),
        Some(ArgClass::NonNumeric) => (0.0, 0.0),
        Some(ArgClass::Anything) | None => {
            if m.mult.ub == 0 {
                (0.0, 0.0)
            } else {
                (f64::NEG_INFINITY, f64::INFINITY)
            }
        }
    }
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

/// The attribute-level bounds of one aggregate over one group's possible
/// members (a cloneable lazy iterator, so per-group member vectors are
/// never materialized per aggregate). `grouped` distinguishes GROUP BY
/// groups (which exist in a world only when non-empty) from the global
/// group (always present, even over an empty input); `case_a` says every
/// covered world group carries exactly the group's selected-guess key
/// (all key hulls are points), so certainly-present point-key members
/// bound from below.
fn agg_bounds<'a>(
    kind: AggKind,
    members: impl Iterator<Item = Member<'a>>,
    grouped: bool,
    case_a: bool,
) -> (Bound, Bound) {
    // Every arm is a single fused pass over the members — the group loop
    // dominates aggregation cost at scale, so the per-member work is kept
    // to one visit (accumulating in member order, which pins the exact
    // float-addition and bound-fold order the multi-pass version had).
    match kind {
        AggKind::CountStar => {
            let mut lb: u64 = 0;
            let mut ub: u64 = 0;
            for m in members {
                if case_a && m.certain {
                    lb += m.mult.lb;
                }
                ub = ub.saturating_add(m.mult.ub);
            }
            if grouped {
                // A materialized world group is non-empty.
                lb = lb.max(1);
                if !case_a {
                    lb = 1;
                }
            }
            (
                Bound::Val(Value::Int(lb as i64)),
                Bound::Val(Value::Int(i64::try_from(ub).unwrap_or(i64::MAX))),
            )
        }
        AggKind::Count => {
            let mut lb: u64 = 0;
            let mut ub: u64 = 0;
            for m in members {
                if case_a && m.certain && !matches!(m.arg, Some(ArgClass::Anything)) {
                    lb += m.mult.lb;
                }
                ub = ub.saturating_add(m.mult.ub);
            }
            if grouped && !case_a {
                lb = 0;
            }
            (
                Bound::Val(Value::Int(lb as i64)),
                Bound::Val(Value::Int(i64::try_from(ub).unwrap_or(i64::MAX))),
            )
        }
        AggKind::Sum => {
            let mut has_certain_numeric = false;
            let mut all_numeric = true;
            let mut lo = 0.0f64;
            let mut hi = 0.0f64;
            for m in members {
                let numeric = matches!(m.arg, Some(ArgClass::Numeric { .. }));
                all_numeric &= numeric;
                let certain = case_a && m.certain;
                has_certain_numeric |= certain && m.mult.lb >= 1 && numeric;
                let (cl, ch) = member_contrib(&m);
                if certain {
                    lo += cl;
                    hi += ch;
                } else {
                    lo += cl.min(0.0);
                    hi += ch.max(0.0);
                }
            }
            // Whether SUM may be NULL in some covered world (no numeric
            // contribution there).
            let maybe_null = if grouped && !case_a {
                !all_numeric
            } else if grouped {
                !(has_certain_numeric || all_numeric)
            } else {
                !has_certain_numeric
            };
            if maybe_null {
                return (Bound::NegInf, Bound::PosInf);
            }
            (f64_bound(lo), f64_bound(hi))
        }
        AggKind::Min | AggKind::Max => {
            let is_min = kind == AggKind::Min;
            let fold = |acc: Option<Bound>, candidate: Bound| {
                Some(match acc {
                    None => candidate,
                    Some(b) => {
                        if is_min {
                            b.min_bound(candidate)
                        } else {
                            b.max_bound(candidate)
                        }
                    }
                })
            };
            // A certainly-present member with bounded values anchors one
            // side; the hull of all possible members gives the other.
            let mut anchor: Option<Bound> = None;
            let mut all_known = true;
            let mut outer_lo: Option<Bound> = None;
            let mut outer_hi: Option<Bound> = None;
            for m in members {
                let known = !matches!(m.arg, Some(ArgClass::Anything) | None);
                all_known &= known;
                if case_a && m.certain && known {
                    let r = m.arg_range.expect("arg present");
                    anchor = fold(
                        anchor,
                        if is_min {
                            r.ub().clone()
                        } else {
                            r.lb().clone()
                        },
                    );
                }
                if m.mult.ub >= 1 {
                    if let Some(r) = m.arg_range {
                        outer_lo = Some(match outer_lo {
                            None => r.lb().clone(),
                            Some(b) => b.min_bound(r.lb().clone()),
                        });
                        outer_hi = Some(match outer_hi {
                            None => r.ub().clone(),
                            Some(b) => b.max_bound(r.ub().clone()),
                        });
                    }
                }
            }
            let outer_lo = outer_lo.unwrap_or(Bound::NegInf);
            let outer_hi = outer_hi.unwrap_or(Bound::PosInf);
            match anchor {
                Some(b) if case_a => {
                    if is_min {
                        (outer_lo, b)
                    } else {
                        (b, outer_hi)
                    }
                }
                // Grouped non-point-key groups still materialize non-empty,
                // so a fully-bounded member pool hulls the result.
                _ if grouped && all_known => (outer_lo, outer_hi),
                _ => (Bound::NegInf, Bound::PosInf),
            }
        }
        AggKind::Avg => {
            // Hull of the possible numeric groundings: the mean of the
            // numeric contributions stays inside their convex hull. A
            // possibly-present member that may ground to *anything* voids
            // the enclosure — its grounding can drag the mean arbitrarily
            // far (hulling only the numeric members, as this arm used to,
            // was unsound tightening). The sum/count corner quotient then
            // tightens the hull: the sum reuses the SUM contribution
            // corners, certain numeric members pin the count from below
            // (≥ 1 by admissibility — with no certain numeric member a
            // covered world group is still non-empty and all-numeric),
            // possible members cap it from above. Sound for any sum/count
            // correlation since the quotient box encloses every corner
            // pairing.
            let mut has_certain_numeric = false;
            let mut all_numeric = true;
            let mut voided = false;
            let mut hull_lo = f64::INFINITY;
            let mut hull_hi = f64::NEG_INFINITY;
            let mut sum_lo = 0.0f64;
            let mut sum_hi = 0.0f64;
            let mut cnt_lo: u64 = 0;
            let mut cnt_hi: u64 = 0;
            for m in members {
                let numeric = matches!(m.arg, Some(ArgClass::Numeric { .. }));
                all_numeric &= numeric;
                let certain = case_a && m.certain;
                has_certain_numeric |= certain && m.mult.lb >= 1 && numeric;
                if m.mult.ub >= 1 {
                    match m.arg {
                        Some(ArgClass::Numeric { lo, hi }) => {
                            hull_lo = hull_lo.min(lo);
                            hull_hi = hull_hi.max(hi);
                        }
                        Some(ArgClass::NonNumeric) => {}
                        Some(ArgClass::Anything) | None => voided = true,
                    }
                }
                let (cl, ch) = member_contrib(&m);
                if certain {
                    sum_lo += cl;
                    sum_hi += ch;
                } else {
                    sum_lo += cl.min(0.0);
                    sum_hi += ch.max(0.0);
                }
                if numeric {
                    if certain {
                        cnt_lo += m.mult.lb;
                    }
                    cnt_hi = cnt_hi.saturating_add(m.mult.ub);
                }
            }
            let admissible = if grouped {
                (case_a && has_certain_numeric) || all_numeric
            } else {
                has_certain_numeric
            };
            if !admissible || voided || hull_lo > hull_hi {
                return (Bound::NegInf, Bound::PosInf);
            }
            let cnt_lo = cnt_lo.max(1) as f64;
            let cnt_hi = cnt_hi.max(1) as f64;
            let corners = [
                sum_lo / cnt_lo,
                sum_lo / cnt_hi,
                sum_hi / cnt_lo,
                sum_hi / cnt_hi,
            ];
            let q_lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
            let q_hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let lo = hull_lo.max(q_lo);
            let hi = hull_hi.min(q_hi);
            if lo > hi {
                // Vacuous (no covered world materializes the group with a
                // numeric value): stay conservative.
                return (Bound::NegInf, Bound::PosInf);
            }
            (f64_bound(lo), f64_bound(hi))
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
    /// Whether row `i`'s range pins a single known value. For dense
    /// triples structural equality of the three same-typed slots is
    /// exactly [`RangeValue::is_point`] (dense columns hold no unknowns).
    fn is_point(&self, i: usize) -> bool {
        match self {
            ColView::Int { lb, bg, ub } => lb[i] == bg[i] && bg[i] == ub[i],
            ColView::Float { lb, bg, ub } => lb[i] == bg[i] && bg[i] == ub[i],
            ColView::Rows(rows) => rows[i].is_point(),
        }
    }

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

    /// Whether rows `i` and `j` hold the same selected guess under
    /// `Value`'s structural equality (`1` and `1.0` differ) — how γ and δ
    /// tell groups apart.
    fn same_bg(&self, i: usize, j: usize) -> bool {
        match self {
            ColView::Int { bg, .. } => bg[i] == bg[j],
            ColView::Float { bg, .. } => bg[i] == bg[j],
            ColView::Rows(rows) => rows[i].bg == rows[j].bg,
        }
    }

    /// Feed row `i`'s selected guess to `h`, consistently with
    /// [`ColView::same_bg`].
    fn hash_bg(&self, i: usize, h: &mut FxHasher) {
        match self {
            ColView::Int { bg, .. } => h.write_i64(bg[i]),
            ColView::Float { bg, .. } => bg[i].hash(h),
            ColView::Rows(rows) => rows[i].bg.hash(h),
        }
    }

    /// Every row's selected guess when all are `Int`s — the one-`Int`-key
    /// fast path of the grouping.
    fn int_bgs(&self) -> Option<Cow<'a, [i64]>> {
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

    /// The hull of rows `members` (non-empty, the first holding the group's
    /// key): what folding [`RangeValue::hull`] from the first member gives
    /// — `min lb` / `max ub` around the key, typed over a dense triple.
    /// `points`: every member is a point, so the hull is the key itself.
    fn hull(&self, members: &[usize], points: bool) -> Hull {
        fn typed<T: DenseVal>(
            lb: &[T],
            bg: &[T],
            ub: &[T],
            rows: &[usize],
            points: bool,
        ) -> [T; 3] {
            let key = bg[rows[0]];
            if points {
                return [key, key, key];
            }
            let lo = rows.iter().map(|&i| lb[i]).min().unwrap_or(key);
            let hi = rows.iter().map(|&i| ub[i]).max().unwrap_or(key);
            [lo, key, hi]
        }
        match *self {
            ColView::Int { lb, bg, ub } => Hull::Int(typed(lb, bg, ub, members, points)),
            ColView::Float { lb, bg, ub } => Hull::Float(typed(lb, bg, ub, members, points)),
            ColView::Rows(rows) => {
                let mut hull = rows[members[0]].clone();
                if !points {
                    for &i in &members[1..] {
                        hull = hull.hull(&rows[i]);
                    }
                }
                Hull::Range(hull)
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

/// Rows partitioned by selected-guess key tuple under `Value`'s
/// structural equality (`1` and `1.0` are two keys), groups in first-seen
/// order, each group's rows ascending.
struct Groups {
    /// The rows, group by group: group `g` is `rows[starts[g]..starts[g + 1]]`.
    rows: Vec<usize>,
    starts: Vec<usize>,
}

impl Groups {
    /// Group `n_rows` rows by their selected guesses in `keys`: one `Int`
    /// key hashes its `i64`s; any other key tuple hashes column-wise and a
    /// hash hit is checked against the group's first row, so no row builds
    /// a tuple.
    fn of(keys: &[ColView], n_rows: usize) -> Groups {
        let (group_of, n_groups) = match keys {
            [] => (vec![0; n_rows], usize::from(n_rows > 0)),
            [key] => match key.int_bgs() {
                Some(ints) => Groups::by_int(&ints),
                None => Groups::by_hash(keys, n_rows),
            },
            _ => Groups::by_hash(keys, n_rows),
        };
        // Counting sort by group: rows stay ascending within each group.
        let mut starts = vec![0usize; n_groups + 1];
        for &g in &group_of {
            starts[g + 1] += 1;
        }
        for g in 0..n_groups {
            starts[g + 1] += starts[g];
        }
        let mut next = starts.clone();
        let mut rows = vec![0; n_rows];
        for (i, &g) in group_of.iter().enumerate() {
            rows[next[g]] = i;
            next[g] += 1;
        }
        Groups { rows, starts }
    }

    /// One group with no rows — global aggregation over an empty input.
    fn one_empty() -> Groups {
        Groups {
            rows: Vec::new(),
            starts: vec![0, 0],
        }
    }

    /// Per row its group, and the number of groups, for one `Int` key.
    fn by_int(keys: &[i64]) -> (Vec<usize>, usize) {
        let mut index: FxHashMap<i64, usize> = FxHashMap::default();
        let group_of = keys
            .iter()
            .map(|&k| {
                let next = index.len();
                *index.entry(k).or_insert(next)
            })
            .collect();
        (group_of, index.len())
    }

    /// Per row its group, and the number of groups, for any key tuple:
    /// groups whose keys share a hash are chained, and a row joins the
    /// first one whose first row holds its key.
    fn by_hash(keys: &[ColView], n_rows: usize) -> (Vec<usize>, usize) {
        const END: usize = usize::MAX;
        let mut heads: FxHashMap<u64, usize> = FxHashMap::default();
        let mut firsts: Vec<usize> = Vec::new();
        // Per group, the next group in its hash chain.
        let mut chain: Vec<usize> = Vec::new();
        let mut group_of = Vec::with_capacity(n_rows);
        for i in 0..n_rows {
            let mut h = FxHasher::default();
            for c in keys {
                c.hash_bg(i, &mut h);
            }
            let new = firsts.len();
            let g = match heads.entry(h.finish()) {
                Entry::Vacant(e) => *e.insert(new),
                Entry::Occupied(e) => {
                    let mut g = *e.get();
                    loop {
                        if keys.iter().all(|c| c.same_bg(i, firsts[g])) {
                            break g;
                        }
                        if chain[g] == END {
                            chain[g] = new;
                            break new;
                        }
                        g = chain[g];
                    }
                }
            };
            if g == new {
                firsts.push(i);
                chain.push(END);
            }
            group_of.push(g);
        }
        (group_of, firsts.len())
    }

    /// Each group's rows, in group order.
    fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.starts.windows(2).map(|w| &self.rows[w[0]..w[1]])
    }
}

/// [`agg_bounds`] specialized to a dense canonical triple: every member's
/// argument classifies `Numeric { lb_i, ub_i }` (dense columns hold no
/// unknowns and no infinities), so the per-member `RangeValue` fold
/// collapses to typed scalar loops. Accumulation runs in the same member
/// order with the same float operations ([`numeric_contrib`], `f64`
/// min/max, native `Ord` for the bound folds — which is the domain order
/// for same-typed scalars), so the bounds are byte-identical to the
/// generic path.
#[allow(clippy::too_many_arguments)]
fn agg_bounds_dense<T: DenseVal>(
    kind: AggKind,
    lb: &[T],
    ub: &[T],
    possible: &[usize],
    certain_flags: &[bool],
    mults: &[MultBound],
    grouped: bool,
    case_a: bool,
) -> (Bound, Bound) {
    match kind {
        AggKind::CountStar | AggKind::Count => {
            let mut lo: u64 = 0;
            let mut hi: u64 = 0;
            for (&i, &certain) in possible.iter().zip(certain_flags) {
                // A dense argument is never `Anything`, so COUNT(expr)'s
                // exclusion of possibly-NULL members never fires.
                if case_a && certain {
                    lo += mults[i].lb;
                }
                hi = hi.saturating_add(mults[i].ub);
            }
            if grouped {
                if kind == AggKind::CountStar {
                    lo = lo.max(1);
                    if !case_a {
                        lo = 1;
                    }
                } else if !case_a {
                    lo = 0;
                }
            }
            (
                Bound::Val(Value::Int(lo as i64)),
                Bound::Val(Value::Int(i64::try_from(hi).unwrap_or(i64::MAX))),
            )
        }
        AggKind::Sum => {
            let mut has_certain_numeric = false;
            let mut lo = 0.0f64;
            let mut hi = 0.0f64;
            for (&i, &c) in possible.iter().zip(certain_flags) {
                let certain = case_a && c;
                has_certain_numeric |= certain && mults[i].lb >= 1;
                let (cl, ch) = numeric_contrib(mults[i], lb[i].to_f64(), ub[i].to_f64());
                if certain {
                    lo += cl;
                    hi += ch;
                } else {
                    lo += cl.min(0.0);
                    hi += ch.max(0.0);
                }
            }
            // All members are numeric, so SUM can only be NULL in the
            // global group with no certain numeric contributor.
            if !grouped && !has_certain_numeric {
                return (Bound::NegInf, Bound::PosInf);
            }
            (f64_bound(lo), f64_bound(hi))
        }
        AggKind::Min | AggKind::Max => {
            let is_min = kind == AggKind::Min;
            let mut anchor: Option<T> = None;
            let mut outer_lo: Option<T> = None;
            let mut outer_hi: Option<T> = None;
            for (&i, &c) in possible.iter().zip(certain_flags) {
                if case_a && c {
                    let cand = if is_min { ub[i] } else { lb[i] };
                    anchor = Some(match anchor {
                        None => cand,
                        Some(b) => {
                            if is_min {
                                b.min(cand)
                            } else {
                                b.max(cand)
                            }
                        }
                    });
                }
                if mults[i].ub >= 1 {
                    outer_lo = Some(match outer_lo {
                        None => lb[i],
                        Some(b) => b.min(lb[i]),
                    });
                    outer_hi = Some(match outer_hi {
                        None => ub[i],
                        Some(b) => b.max(ub[i]),
                    });
                }
            }
            let outer_lo = outer_lo.map_or(Bound::NegInf, |v| Bound::Val(v.to_value()));
            let outer_hi = outer_hi.map_or(Bound::PosInf, |v| Bound::Val(v.to_value()));
            match anchor {
                // `anchor` is only ever set under `case_a && certain`.
                Some(b) => {
                    if is_min {
                        (outer_lo, Bound::Val(b.to_value()))
                    } else {
                        (Bound::Val(b.to_value()), outer_hi)
                    }
                }
                // Every dense member is known, so grouped non-point-key
                // groups always hull.
                None if grouped => (outer_lo, outer_hi),
                None => (Bound::NegInf, Bound::PosInf),
            }
        }
        AggKind::Avg => {
            let mut has_certain_numeric = false;
            let mut hull_lo = f64::INFINITY;
            let mut hull_hi = f64::NEG_INFINITY;
            let mut sum_lo = 0.0f64;
            let mut sum_hi = 0.0f64;
            let mut cnt_lo: u64 = 0;
            let mut cnt_hi: u64 = 0;
            for (&i, &c) in possible.iter().zip(certain_flags) {
                let certain = case_a && c;
                has_certain_numeric |= certain && mults[i].lb >= 1;
                if mults[i].ub >= 1 {
                    hull_lo = hull_lo.min(lb[i].to_f64());
                    hull_hi = hull_hi.max(ub[i].to_f64());
                }
                let (cl, ch) = numeric_contrib(mults[i], lb[i].to_f64(), ub[i].to_f64());
                if certain {
                    sum_lo += cl;
                    sum_hi += ch;
                } else {
                    sum_lo += cl.min(0.0);
                    sum_hi += ch.max(0.0);
                }
                if certain {
                    cnt_lo += mults[i].lb;
                }
                cnt_hi = cnt_hi.saturating_add(mults[i].ub);
            }
            // All-numeric members: grouped groups are always admissible
            // and nothing voids the hull.
            let admissible = grouped || has_certain_numeric;
            if !admissible || hull_lo > hull_hi {
                return (Bound::NegInf, Bound::PosInf);
            }
            let cnt_lo = cnt_lo.max(1) as f64;
            let cnt_hi = cnt_hi.max(1) as f64;
            let corners = [
                sum_lo / cnt_lo,
                sum_lo / cnt_hi,
                sum_hi / cnt_lo,
                sum_hi / cnt_hi,
            ];
            let q_lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
            let q_hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let lo = hull_lo.max(q_lo);
            let hi = hull_hi.min(q_hi);
            if lo > hi {
                return (Bound::NegInf, Bound::PosInf);
            }
            (f64_bound(lo), f64_bound(hi))
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
}

impl AuCols {
    /// The result with output attributes `cols`, one range per row each.
    fn of(cols: Vec<Vec<RangeValue>>, mults: Vec<MultBound>) -> AuCols {
        AuCols {
            cols: cols.into_iter().map(TripleCol::of_ranges).collect(),
            mults,
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
pub fn aggregate_cols(input: &AggCols, kinds: &[AggKind]) -> AuCols {
    let keys: Vec<ColView> = input.keys.iter().map(TripleCol::view).collect();
    let args: Vec<Option<ColView>> = input
        .args
        .iter()
        .map(|c| c.as_ref().map(TripleCol::view))
        .collect();
    let mults = &input.mults;
    let n_rows = mults.len();
    let grouped = !keys.is_empty();

    // Pre-classify each tuple once: whether all its key ranges are points
    // (the common certain case) and, per row-backed aggregate column, its
    // argument classes. Dense triples skip the per-row classification —
    // a canonical scalar triple always classifies `Numeric { lb, ub }`,
    // which the typed kernel arms read straight off the slices.
    let key_points: Vec<bool> = (0..n_rows)
        .map(|i| keys.iter().all(|c| c.is_point(i)))
        .collect();
    let arg_classes: Vec<Option<Vec<ArgClass>>> = args
        .iter()
        .map(|col| match col {
            Some(ColView::Rows(rows)) => Some(rows.iter().map(classify_arg).collect()),
            _ => None,
        })
        .collect();
    let ranged: Vec<usize> = (0..n_rows).filter(|&i| !key_points[i]).collect();

    let mut groups = Groups::of(&keys, n_rows);
    // Global aggregation over an empty input still yields one row.
    if !grouped && n_rows == 0 {
        groups = Groups::one_empty();
    }
    // A point-hull group finds its point-keyed possible members by lookup
    // instead of rescanning the input: they are the point-keyed rows whose
    // coercion-normalized key equals the group's. That is the group's own
    // point members unless some key column mixes `Int` and `Float`
    // guesses (`1` and `1.0` are two groups but one normalized key); only
    // then are the rows bucketed by normalized key.
    let shared: Option<(Vec<usize>, Vec<Vec<usize>>)> =
        keys.iter().any(ColView::mixes_numeric).then(|| {
            let mut index: FxHashMap<Tuple, usize> = FxHashMap::default();
            let bucket_of: Vec<usize> = groups
                .iter()
                .map(|rows| {
                    let norm: Tuple = keys.iter().map(|c| c.bg_at(rows[0]).join_key()).collect();
                    let next = index.len();
                    *index.entry(norm).or_insert(next)
                })
                .collect();
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); index.len()];
            for (rows, &b) in groups.iter().zip(&bucket_of) {
                buckets[b].extend(rows.iter().copied().filter(|&i| key_points[i]));
            }
            for bucket in &mut buckets {
                bucket.sort_unstable();
            }
            (bucket_of, buckets)
        });

    let mut cols: Vec<Vec<RangeValue>> = vec![Vec::new(); keys.len() + kinds.len()];
    let mut out_mults: Vec<MultBound> = Vec::new();
    for (g, member_idx) in groups.iter().enumerate() {
        // Key hulls over the group's own (selected-guess) members. When
        // every member is point-keyed the hull is the shared point — no
        // per-member hull folding.
        let all_member_points = member_idx.iter().all(|&i| key_points[i]);
        let hulls: Vec<Hull> = keys
            .iter()
            .map(|c| c.hull(member_idx, all_member_points))
            .collect();
        // Possible members: every tuple whose key ranges intersect the
        // hulls (a grounding may land any of them in a covered world
        // group). Always a superset of the selected-guess members. When
        // the hull is a single point, point-keyed tuples intersect it iff
        // their (coercion-normalized) key equals the group key — the
        // bucket; only range-keyed tuples need the intersection test, and
        // the bucket is borrowed when none of them joins. Non-point hulls
        // (the uncertain-key minority) scan the whole input.
        let case_a = hulls.iter().all(Hull::is_point);
        let intersects_hulls = |i: usize| keys.iter().zip(&hulls).all(|(c, h)| c.intersects(i, h));
        let possible: Cow<[usize]> = if case_a {
            let bucket: Cow<[usize]> = match &shared {
                Some((bucket_of, buckets)) => Cow::Borrowed(&buckets[bucket_of[g]]),
                None if all_member_points => Cow::Borrowed(member_idx),
                None => member_idx
                    .iter()
                    .copied()
                    .filter(|&i| key_points[i])
                    .collect(),
            };
            let joining: Vec<usize> = ranged
                .iter()
                .copied()
                .filter(|&i| intersects_hulls(i))
                .collect();
            if joining.is_empty() {
                bucket
            } else {
                let mut candidates = bucket.into_owned();
                candidates.extend(joining);
                candidates.sort_unstable();
                Cow::Owned(candidates)
            }
        } else {
            (0..n_rows).filter(|&i| intersects_hulls(i)).collect()
        };
        // One certainty flag per possible member, shared by every
        // aggregate's bound computation and the group's multiplicity: a
        // certainly present point-keyed member of the group itself — its
        // guesses structurally those of the group's first member. A
        // possible member from another selected-guess group whose key
        // merely compares equal (`1` next to the group `1.0`) lands in its
        // own group in every world, so it is no certain member here.
        let own = |i: usize| keys.iter().all(|c| c.same_bg(i, member_idx[0]));
        let certain_flags: Vec<bool> = possible
            .iter()
            .map(|&i| mults[i].lb >= 1 && key_points[i] && own(i))
            .collect();
        let in_sg_any = member_idx.iter().any(|&i| mults[i].bg >= 1);

        for (col, hull) in cols.iter_mut().zip(&hulls) {
            col.push(hull.range());
        }
        // Bounds per aggregate over the possible members — a lazy,
        // cloneable view over the shared index/flag vectors (borrowed arg
        // ranges and precomputed classes; nothing clones or allocates per
        // aggregate).
        let agg_cols = cols[keys.len()..].iter_mut();
        for (a_idx, (&kind, col)) in kinds.iter().zip(agg_cols).enumerate() {
            let (lb, ub) = match args[a_idx] {
                Some(ColView::Int { lb, ub, .. }) => agg_bounds_dense(
                    kind,
                    lb,
                    ub,
                    &possible,
                    &certain_flags,
                    mults,
                    grouped,
                    case_a,
                ),
                Some(ColView::Float { lb, ub, .. }) => agg_bounds_dense(
                    kind,
                    lb,
                    ub,
                    &possible,
                    &certain_flags,
                    mults,
                    grouped,
                    case_a,
                ),
                Some(ColView::Rows(rows)) => {
                    let classes = arg_classes[a_idx].as_deref();
                    let members = possible
                        .iter()
                        .zip(&certain_flags)
                        .map(move |(&i, &certain)| Member {
                            mult: mults[i],
                            certain,
                            arg: classes.map(|c| c[i]),
                            arg_range: Some(&rows[i]),
                        });
                    agg_bounds(kind, members, grouped, case_a)
                }
                None => {
                    let members =
                        possible
                            .iter()
                            .zip(&certain_flags)
                            .map(|(&i, &certain)| Member {
                                mult: mults[i],
                                certain,
                                arg: None,
                                arg_range: None,
                            });
                    agg_bounds(kind, members, grouped, case_a)
                }
            };
            let bg = sg_value(kind, args[a_idx], member_idx, mults);
            col.push(RangeValue::new(lb, bg, ub));
        }

        let certainly_materializes = !grouped || certain_flags.iter().any(|&c| c);
        let in_sg = !grouped || in_sg_any;
        let ub: u64 = if grouped {
            possible
                .iter()
                .map(|&i| mults[i].ub)
                .fold(0, u64::saturating_add)
        } else {
            1
        };
        out_mults.push(MultBound::new(
            u64::from(certainly_materializes),
            u64::from(in_sg),
            ub.max(u64::from(in_sg)).max(1),
        ));
    }
    AuCols::of(cols, out_mults)
}

/// The selected-guess value of one aggregate over a group: ordinary
/// aggregation over the members whose selected-guess multiplicity
/// materializes the row, in member order — dense arguments read straight
/// off their slices.
fn sg_value(kind: AggKind, arg: Option<ColView>, members: &[usize], mults: &[MultBound]) -> Value {
    let mut state = BgAgg::new(kind);
    let sg = members.iter().copied().filter(|&i| mults[i].bg >= 1);
    match arg {
        Some(ColView::Int { bg, .. }) => sg.for_each(|i| state.update_dense(bg[i], mults[i].bg)),
        Some(ColView::Float { bg, .. }) => sg.for_each(|i| state.update_dense(bg[i], mults[i].bg)),
        Some(ColView::Rows(rows)) => sg.for_each(|i| state.update(Some(&rows[i].bg), mults[i].bg)),
        None => sg.for_each(|i| state.update(None, mults[i].bg)),
    }
    state.finish()
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
/// `[certainly materializes, in the SG world, Σ possible member copies]`.
pub fn aggregate(
    rel: &AuRelation,
    group_by: &[(Expr, Column)],
    aggregates: &[AggSpec],
) -> Result<AuRelation, ExprError> {
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

    let kinds: Vec<AggKind> = aggregates.iter().map(|a| a.kind).collect();
    let mut columns: Vec<Column> = group_by.iter().map(|(_, c)| c.clone()).collect();
    columns.extend(aggregates.iter().map(|a| a.column.clone()));
    Ok(aggregate_cols(&input, &kinds).materialise(Schema::new(columns)))
}

/// δ over column-major input: every `input.keys` column is an attribute
/// (`input.args` is ignored). Rows merge by selected-guess tuple — γ's
/// grouping, so `1` and `1.0` stay apart — in first-seen order; each
/// output tuple's attributes hull the merged rows' (typed over dense
/// columns). A merged row set certainly yields at least one distinct tuple
/// when any member is certainly present, exactly one in the SG world when
/// any member is SG-present, and at most the *sum* of member upper bounds
/// (every copy may ground to a distinct value that survives
/// deduplication).
pub fn distinct_cols(input: &AggCols) -> AuCols {
    let views: Vec<ColView> = input.keys.iter().map(TripleCol::view).collect();
    let mults = &input.mults;
    let mut cols: Vec<Vec<RangeValue>> = vec![Vec::new(); views.len()];
    let mut out_mults: Vec<MultBound> = Vec::new();
    for members in Groups::of(&views, mults.len()).iter() {
        for (c, col) in views.iter().zip(&mut cols) {
            col.push(c.hull(members, false).range());
        }
        out_mults.push(MultBound::new(
            u64::from(members.iter().any(|&i| mults[i].lb >= 1)),
            u64::from(members.iter().any(|&i| mults[i].bg >= 1)),
            members
                .iter()
                .map(|&i| mults[i].ub)
                .fold(0, u64::saturating_add),
        ));
    }
    AuCols::of(cols, out_mults)
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
/// Candidate generation is hashed, the pair tests are not: the right side
/// (and, for `EXCEPT ALL`'s protectors, the left side) is indexed by
/// selected-guess tuple over *all* columns (`row_index`), and
/// `rows_possibly_equal` / `rows_certainly_equal` run on a left row's
/// candidates only. A pruned pair is two fixed rows that differ in some
/// column, where both tests are false — every sum and flag above is the
/// one the all-pairs loop computes, in the same order. A bucket hit is two
/// fixed rows equal in every column, where both tests are true without
/// reading a range.
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
/// earlier left) row is a candidate — the path cross-family columns take.
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

/// The rows of `build` that can ground equal to rows of `probe` under
/// EXCEPT's IS-NOT-DISTINCT matching, as an all-column [`SgKeyIndex`]:
/// rows whose every attribute is a definite NULL or a hashable point sit
/// in buckets, rows with a ranged / top / NaN attribute are in every
/// candidate list, and a probe row that is itself not fixed scans
/// everything. Every row is a candidate for every probe when some
/// column's points span two type families across the two sides
/// (cross-family points compare `None`, i.e. possibly equal) or `hashed`
/// is off.
fn row_index<B, P>(build: &B, probe: &P, arity: usize, hashed: bool) -> SgKeyIndex
where
    B: RowView + ?Sized,
    P: RowView + ?Sized,
{
    let cols: Vec<usize> = (0..arity).collect();
    hashed
        .then(|| SgKeyIndex::build_for(build, &cols, probe, &cols, true))
        .flatten()
        .unwrap_or_else(|| SgKeyIndex::unpruned(build.len()))
}

fn except_all<V: RowView + ?Sized>(left: &V, right: &V, arity: usize, hashed: bool) -> Selection {
    let cols: Vec<usize> = (0..arity).collect();
    let int = int_keyed(left, &cols, right, &cols);
    // SG removal budget per normalized selected-guess tuple.
    let mut budget: FxHashMap<SgKey, u64> = FxHashMap::default();
    for r in 0..right.len() {
        let m = right.mult(r);
        if m.bg >= 1 {
            *budget.entry(row_key(int, right, r, &cols)).or_insert(0) += m.bg;
        }
    }
    let right_index = row_index(right, left, arity, hashed);
    // Protectors are needed by certainly-hit rows only: index the left
    // side against itself on first use.
    let mut left_index: Option<SgKeyIndex> = None;
    let mut cand: Vec<usize> = Vec::new();
    let mut out = Selection::default();
    for i in 0..left.len() {
        let l = left.mult(i);
        let bg_out = if l.bg >= 1 {
            match budget.get_mut(&row_key(int, left, i, &cols)) {
                Some(b) => {
                    let take = (*b).min(l.bg);
                    *b -= take;
                    l.bg - take
                }
                None => l.bg,
            }
        } else {
            0
        };
        let mut possible_removal: u64 = 0;
        let mut certain_removal: u64 = 0;
        let fixed = certain_valued(left, i, arity);
        let key = right_index.probe_key(left, i, &cols);
        right_index.candidates_of(key.as_ref(), &mut cand);
        for &r in &cand {
            let m = right.mult(r);
            let hit = right_index.bucket_hit(key.as_ref(), r);
            if m.ub >= 1 && (hit || rows_possibly_equal(left, i, right, r, arity)) {
                possible_removal = possible_removal.saturating_add(m.ub);
            }
            if fixed && m.lb >= 1 && (hit || rows_certainly_equal(left, i, right, r, arity)) {
                certain_removal = certain_removal.saturating_add(m.lb);
            }
        }
        let lb_out = l.lb.saturating_sub(possible_removal);
        let ub_out = if certain_removal > 0 {
            let index = left_index.get_or_insert_with(|| row_index(left, left, arity, hashed));
            let key = index.probe_key(left, i, &cols);
            index.candidates_of(key.as_ref(), &mut cand);
            let mut protectors: u64 = 0;
            for &k in cand.iter().take_while(|&&k| k < i) {
                let m = left.mult(k);
                let hit = index.bucket_hit(key.as_ref(), k);
                if m.ub >= 1 && (hit || rows_possibly_equal(left, k, left, i, arity)) {
                    protectors = protectors.saturating_add(m.ub);
                }
            }
            l.ub.saturating_sub(certain_removal.saturating_sub(protectors))
        } else {
            l.ub
        };
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
    let cols: Vec<usize> = (0..arity).collect();
    let int = int_keyed(left, &cols, right, &cols);
    let sg_right: FxHashSet<SgKey> = (0..right.len())
        .filter(|&r| right.mult(r).bg >= 1)
        .map(|r| row_key(int, right, r, &cols))
        .collect();
    // First SG occurrence per left tuple, and first certain claimant per
    // fixed tuple (an earlier certainly-equal row with lb ≥ 1 already
    // guarantees the single output copy, so later rows must not).
    let mut sg_seen: FxHashSet<SgKey> = FxHashSet::default();
    let mut certain_seen: FxHashSet<SgKey> = FxHashSet::default();
    let right_index = row_index(right, left, arity, hashed);
    let mut cand: Vec<usize> = Vec::new();
    let mut out = Selection::default();
    for i in 0..left.len() {
        let l = left.mult(i);
        let row = row_key(int, left, i, &cols);
        let key = right_index.probe_key(left, i, &cols);
        right_index.candidates_of(key.as_ref(), &mut cand);
        let hit = |r: usize| right_index.bucket_hit(key.as_ref(), r);
        let possibly_removed = cand.iter().any(|&r| {
            right.mult(r).ub >= 1 && (hit(r) || rows_possibly_equal(left, i, right, r, arity))
        });
        let fixed = certain_valued(left, i, arity);
        let certainly_removed = fixed
            && cand.iter().any(|&r| {
                right.mult(r).lb >= 1 && (hit(r) || rows_certainly_equal(left, i, right, r, arity))
            });
        let bg_out = if l.bg >= 1 && !sg_right.contains(&row) && sg_seen.insert(row.clone()) {
            1
        } else {
            0
        };
        let lb_out = if l.lb >= 1 && fixed && !possibly_removed && certain_seen.insert(row) {
            1
        } else {
            0
        };
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
    let mut join = JoinSelect::new(left, right, arities, predicate, keys, !left_kind);
    // The preserved side probes whether or not an index prunes.
    join.build_left = !left_kind;
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
        let out = aggregate(
            &r,
            &[(Expr::named("g"), Column::unqualified("g"))],
            &[
                AggSpec {
                    kind: AggKind::CountStar,
                    arg: None,
                    column: Column::unqualified("n"),
                },
                AggSpec {
                    kind: AggKind::Sum,
                    arg: Some(Expr::named("v")),
                    column: Column::unqualified("s"),
                },
            ],
        )
        .unwrap();
        // Two SG groups: g=1 and g=2.
        assert_eq!(out.rows().len(), 2);
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
        assert_eq!(g1.mult, MultBound::new(1, 1, 3));
        // g=2 group: row 3's SG; key hull [1,2] is not a point → wide count.
        let g2 = &out.rows()[1];
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
        // nowhere: `[0, 0, 2]`, not the ill-formed `[1, 0, 2]`.
        let input = AggCols {
            keys: vec![TripleCol::Rows(vec![
                RangeValue::point(Value::Int(1)),
                RangeValue::point(fv(1.0)),
            ])],
            args: vec![None],
            mults: vec![MultBound::certain(1), MultBound::new(0, 0, 1)],
        };
        let out = aggregate_cols(&input, &[AggKind::CountStar]);
        assert_eq!(
            out.mults,
            [MultBound::new(1, 1, 2), MultBound::new(0, 0, 2)]
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
        let out = aggregate(
            &r,
            &[],
            &[AggSpec {
                kind: AggKind::CountStar,
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
        let out = aggregate(
            &r,
            &[(Expr::named("g"), Column::unqualified("g"))],
            &[AggSpec {
                kind: AggKind::Avg,
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
        // bucket-prune them: the whole join falls back to the nested loop.
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
