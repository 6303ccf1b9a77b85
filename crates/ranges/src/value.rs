//! Range-annotated values: the attribute-level bounds of AU-DBs.
//!
//! An AU-DB (Feng et al., *Efficient Uncertainty Tracking for Complex
//! Queries with Attribute-level Bounds* — the follow-up to the UA-DB paper
//! this repository reproduces) annotates every attribute with a triple
//! `[lb, bg, ub]`: a lower bound, the *selected-guess* value (the value in
//! the distinguished best-guess world, mirroring the UA-DB `det`
//! component), and an upper bound. A tuple's groundings — its values in the
//! possible worlds — all fall between `lb` and `ub` under the ordered
//! domain's comparison.
//!
//! Bounds live in the domain extended with `±∞` ([`Bound`]): a labeled null
//! or SQL `NULL` selected-guess has no finite bounds, and conservative
//! widening ("this expression's bounds are unknown") is expressed as the
//! *top* range `(-∞, +∞)`. By convention only the top range can ground to
//! an unknown (`NULL`/variable) value — every bounded range grounds to
//! ordinary domain values between its endpoints.

use std::cmp::Ordering;
use ua_data::value::Value;

/// Domain-order comparison for bounds: SQL's coercing comparison where it
/// applies (so `Int(2)` and `Float(2.0)` coincide and numeric ranges mix
/// integer and float endpoints), with the structural total order as the
/// tie-break for incomparable types. Total over the values that actually
/// share a range; cross-type ranges are widened by the evaluator before
/// this order matters.
pub fn range_cmp(a: &Value, b: &Value) -> Ordering {
    match a.sql_cmp(b) {
        Some(ord) => ord,
        None => a.cmp(b),
    }
}

/// A range endpoint: a domain value or an infinity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Bound {
    /// `-∞` — no lower bound.
    NegInf,
    /// A finite (known) domain value.
    Val(Value),
    /// `+∞` — no upper bound.
    PosInf,
}

impl Bound {
    /// Total order: `-∞ < values (domain order) < +∞`.
    pub fn cmp_bound(&self, other: &Bound) -> Ordering {
        match (self, other) {
            (Bound::NegInf, Bound::NegInf) | (Bound::PosInf, Bound::PosInf) => Ordering::Equal,
            (Bound::NegInf, _) | (_, Bound::PosInf) => Ordering::Less,
            (_, Bound::NegInf) | (Bound::PosInf, _) => Ordering::Greater,
            (Bound::Val(a), Bound::Val(b)) => range_cmp(a, b),
        }
    }

    /// The smaller of two bounds.
    pub fn min_bound(self, other: Bound) -> Bound {
        if self.cmp_bound(&other) == Ordering::Greater {
            other
        } else {
            self
        }
    }

    /// The larger of two bounds.
    pub fn max_bound(self, other: Bound) -> Bound {
        if self.cmp_bound(&other) == Ordering::Less {
            other
        } else {
            self
        }
    }

    /// The numeric interpretation (`±∞` for the infinities, `None` for
    /// non-numeric values).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Bound::NegInf => Some(f64::NEG_INFINITY),
            Bound::PosInf => Some(f64::INFINITY),
            Bound::Val(v) => v.as_f64(),
        }
    }

    /// Whether a (known) value satisfies `self ≤ v` / `v ≤ self` as the
    /// lower / upper endpoint respectively.
    fn admits_below(&self, v: &Value) -> bool {
        match self {
            Bound::NegInf => true,
            Bound::PosInf => false,
            Bound::Val(b) => range_cmp(b, v) != Ordering::Greater,
        }
    }

    fn admits_above(&self, v: &Value) -> bool {
        match self {
            Bound::PosInf => true,
            Bound::NegInf => false,
            Bound::Val(b) => range_cmp(b, v) != Ordering::Less,
        }
    }
}

/// A range-annotated value `[lb, bg, ub]` (attribute-level AU-DB bounds).
///
/// Invariant (enforced by every constructor): either the range is *top*
/// (`(-∞, +∞)` — the only range that may ground to `NULL`/variables, and
/// the mandatory form whenever `bg` itself is unknown), or
/// `lb ⪯ bg ⪯ ub` in the domain order with a known `bg`.
#[derive(Clone, PartialEq, Debug)]
pub struct RangeValue {
    lb: Bound,
    /// The selected-guess value.
    pub bg: Value,
    ub: Bound,
    /// The attribute is `NULL` under *every* grounding (definite NULL).
    /// Carries `(-∞, +∞)` internal bounds so every bounds-based
    /// consumer treats it like top (always sound); only the operations
    /// that can exploit certainty (`IS NULL`, containment, hulls of two
    /// definite NULLs) look at the flag.
    null: bool,
}

impl RangeValue {
    /// A certain (point) value. SQL `NULL` yields the definite-NULL
    /// range ([`RangeValue::null`]); a labeled null (one unknown domain
    /// value) yields top, since it admits any grounding.
    pub fn point(v: Value) -> RangeValue {
        if v == Value::Null {
            RangeValue::null()
        } else if v.is_unknown() {
            RangeValue::top(v)
        } else {
            RangeValue {
                lb: Bound::Val(v.clone()),
                bg: v.clone(),
                ub: Bound::Val(v),
                null: false,
            }
        }
    }

    /// The range of an attribute that is `NULL` in every world: top-like
    /// bounds (so bound arithmetic and comparisons stay sound without
    /// special cases) plus the definiteness flag `IS NULL` exploits.
    pub fn null() -> RangeValue {
        RangeValue {
            lb: Bound::NegInf,
            bg: Value::Null,
            ub: Bound::PosInf,
            null: true,
        }
    }

    /// Whether the attribute is certainly `NULL` (definite NULL).
    pub fn is_null(&self) -> bool {
        self.null
    }

    /// The unbounded range around a selected guess.
    pub fn top(bg: Value) -> RangeValue {
        RangeValue {
            lb: Bound::NegInf,
            bg,
            ub: Bound::PosInf,
            null: false,
        }
    }

    /// A range from explicit endpoints, normalized: an unknown `bg` or an
    /// inconsistent ordering (`lb ⋠ bg` or `bg ⋠ ub`) widens to top, which
    /// is always sound.
    pub fn new(lb: Bound, bg: Value, ub: Bound) -> RangeValue {
        if bg.is_unknown() || !lb.admits_below(&bg) || !ub.admits_above(&bg) {
            return RangeValue::top(bg);
        }
        RangeValue {
            lb,
            bg,
            ub,
            null: false,
        }
    }

    /// The lower endpoint.
    pub fn lb(&self) -> &Bound {
        &self.lb
    }

    /// The upper endpoint.
    pub fn ub(&self) -> &Bound {
        &self.ub
    }

    /// Whether the range pins a single known value.
    pub fn is_point(&self) -> bool {
        !self.bg.is_unknown()
            && self.lb == Bound::Val(self.bg.clone())
            && self.ub == Bound::Val(self.bg.clone())
    }

    /// Whether the range is completely unbounded (and may ground unknown).
    pub fn is_top(&self) -> bool {
        self.lb == Bound::NegInf && self.ub == Bound::PosInf
    }

    /// Whether a grounding `v` falls within the bounds. Unknown values are
    /// only admitted by the top range (the convention every labeling and
    /// operator maintains); a definite NULL admits *only* unknowns.
    pub fn contains(&self, v: &Value) -> bool {
        if self.null {
            return v.is_unknown();
        }
        if v.is_unknown() {
            return self.is_top();
        }
        self.lb.admits_below(v) && self.ub.admits_above(v)
    }

    /// Whether two ranges share at least one grounding.
    pub fn intersects(&self, other: &RangeValue) -> bool {
        self.lb.cmp_bound(&other.ub) != Ordering::Greater
            && other.lb.cmp_bound(&self.ub) != Ordering::Greater
    }

    /// The smallest range covering both inputs; the selected guess is kept
    /// from `self` (callers override it where a different representative is
    /// exact).
    pub fn hull(&self, other: &RangeValue) -> RangeValue {
        if self.null && other.null {
            return RangeValue::null();
        }
        RangeValue::new(
            self.lb.clone().min_bound(other.lb.clone()),
            self.bg.clone(),
            self.ub.clone().max_bound(other.ub.clone()),
        )
    }

    /// The same range with a replaced selected guess (re-normalized). A
    /// definite NULL stays definite as long as the new guess is unknown;
    /// a known guess contradicts definiteness and widens to top.
    pub fn with_bg(&self, bg: Value) -> RangeValue {
        if self.null && bg.is_unknown() {
            return RangeValue::null();
        }
        RangeValue::new(self.lb.clone(), bg, self.ub.clone())
    }
}

fn bound_binop(a: &Bound, b: &Bound, f: impl Fn(&Value, &Value) -> Option<Value>) -> Option<Bound> {
    match (a, b) {
        (Bound::Val(x), Bound::Val(y)) => f(x, y).map(Bound::Val),
        (Bound::NegInf, Bound::PosInf) | (Bound::PosInf, Bound::NegInf) => None,
        (Bound::NegInf, _) | (_, Bound::NegInf) => Some(Bound::NegInf),
        (Bound::PosInf, _) | (_, Bound::PosInf) => Some(Bound::PosInf),
    }
}

/// One operator of endpoint arithmetic: the scalar evaluator's rule (type
/// promotion, `NULL` on unknowns, `None` on a type error) and the checked
/// `i64` form of the same operator.
#[derive(Clone, Copy)]
struct EndpointOp {
    scalar: fn(&Value, &Value) -> Option<Value>,
    checked: fn(i64, i64) -> Option<i64>,
}

const ADD: EndpointOp = EndpointOp {
    scalar: Value::add,
    checked: i64::checked_add,
};
const SUB: EndpointOp = EndpointOp {
    scalar: Value::sub,
    checked: i64::checked_sub,
};
const MUL: EndpointOp = EndpointOp {
    scalar: Value::mul,
    checked: i64::checked_mul,
};

impl EndpointOp {
    /// One endpoint of `a op b`. The scalar evaluator wraps on `i64`
    /// overflow; a wrapped *endpoint* no longer bounds the worlds between
    /// the operands' endpoints (`[1, 2⁶²] * 4` would read `[0, 4]`), so an
    /// overflowing integer endpoint is `None` and the caller widens to top.
    /// The one exception: two *point* operands describe a single world,
    /// whose value is the evaluator's own wrapping result — the endpoint
    /// wraps with it and the result stays the point `bg`.
    fn endpoint(self, a: &RangeValue, b: &RangeValue, x: &Value, y: &Value) -> Option<Value> {
        match (x, y) {
            (Value::Int(i), Value::Int(j)) => match (self.checked)(*i, *j) {
                Some(v) => Some(Value::Int(v)),
                None if a.is_point() && b.is_point() => (self.scalar)(x, y),
                None => None,
            },
            _ => (self.scalar)(x, y),
        }
    }
}

/// Interval addition. `bg` must already be the exact selected-guess result
/// (the caller computes it with the scalar evaluator); endpoint failures —
/// type errors, opposing infinities, `i64` overflow (see
/// [`EndpointOp::endpoint`]) — widen to top.
pub fn interval_add(a: &RangeValue, b: &RangeValue, bg: Value) -> RangeValue {
    let lb = bound_binop(&a.lb, &b.lb, |x, y| ADD.endpoint(a, b, x, y));
    let ub = bound_binop(&a.ub, &b.ub, |x, y| ADD.endpoint(a, b, x, y));
    match (lb, ub) {
        (Some(lb), Some(ub)) => RangeValue::new(lb, bg, ub),
        _ => RangeValue::top(bg),
    }
}

/// Interval subtraction (`[a.lb - b.ub, a.ub - b.lb]`).
pub fn interval_sub(a: &RangeValue, b: &RangeValue, bg: Value) -> RangeValue {
    let lb = bound_binop(&a.lb, &b.ub, |x, y| SUB.endpoint(a, b, x, y));
    let ub = bound_binop(&a.ub, &b.lb, |x, y| SUB.endpoint(a, b, x, y));
    match (lb, ub) {
        (Some(lb), Some(ub)) => RangeValue::new(lb, bg, ub),
        _ => RangeValue::top(bg),
    }
}

/// Interval multiplication: the hull of the four endpoint products. Any
/// infinite endpoint — and any overflowing integer product — widens to top
/// (sign analysis over infinities buys little here and the top range is
/// always sound).
pub fn interval_mul(a: &RangeValue, b: &RangeValue, bg: Value) -> RangeValue {
    let corners = [
        (&a.lb, &b.lb),
        (&a.lb, &b.ub),
        (&a.ub, &b.lb),
        (&a.ub, &b.ub),
    ];
    let mut lo: Option<Bound> = None;
    let mut hi: Option<Bound> = None;
    for (x, y) in corners {
        let p = match (x, y) {
            (Bound::Val(x), Bound::Val(y)) => MUL.endpoint(a, b, x, y).map(Bound::Val),
            _ => None,
        };
        match p {
            Some(p) => {
                lo = Some(match lo {
                    None => p.clone(),
                    Some(l) => l.min_bound(p.clone()),
                });
                hi = Some(match hi {
                    None => p,
                    Some(h) => h.max_bound(p),
                });
            }
            None => return RangeValue::top(bg),
        }
    }
    match (lo, hi) {
        (Some(lo), Some(hi)) => RangeValue::new(lo, bg, hi),
        _ => RangeValue::top(bg),
    }
}

/// Interval division: exact corner quotients when the divisor range is
/// strictly signed (excludes zero); top otherwise (a possible zero divisor
/// means a possible `NULL` result).
pub fn interval_div(a: &RangeValue, b: &RangeValue, bg: Value) -> RangeValue {
    let strictly_signed = match (b.lb.as_f64(), b.ub.as_f64()) {
        (Some(lo), Some(hi)) => lo > 0.0 || hi < 0.0,
        _ => false,
    };
    if !strictly_signed {
        return RangeValue::top(bg);
    }
    let corners = [
        (&a.lb, &b.lb),
        (&a.lb, &b.ub),
        (&a.ub, &b.lb),
        (&a.ub, &b.ub),
    ];
    let mut lo: Option<Bound> = None;
    let mut hi: Option<Bound> = None;
    for (x, y) in corners {
        let q = match (x, y) {
            (Bound::Val(x), Bound::Val(y)) => x.div(y).map(Bound::Val),
            _ => None,
        };
        match q {
            Some(q) => {
                lo = Some(match lo {
                    None => q.clone(),
                    Some(l) => l.min_bound(q.clone()),
                });
                hi = Some(match hi {
                    None => q,
                    Some(h) => h.max_bound(q),
                });
            }
            None => return RangeValue::top(bg),
        }
    }
    match (lo, hi) {
        (Some(lo), Some(hi)) => RangeValue::new(lo, bg, hi),
        _ => RangeValue::top(bg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(lo: i64, bg: i64, hi: i64) -> RangeValue {
        RangeValue::new(
            Bound::Val(Value::Int(lo)),
            Value::Int(bg),
            Bound::Val(Value::Int(hi)),
        )
    }

    #[test]
    fn normalization_widens_inconsistency() {
        let r = RangeValue::new(
            Bound::Val(Value::Int(5)),
            Value::Int(1),
            Bound::Val(Value::Int(9)),
        );
        assert!(r.is_top(), "bg below lb must widen");
        assert!(RangeValue::point(Value::Null).is_top());
        assert!(span(1, 2, 3).contains(&Value::Int(2)));
        assert!(span(1, 2, 3).contains(&Value::float(2.5)));
        assert!(!span(1, 2, 3).contains(&Value::Int(4)));
        assert!(!span(1, 2, 3).contains(&Value::Null));
        assert!(RangeValue::top(Value::Null).contains(&Value::Null));
    }

    #[test]
    fn definite_null_semantics() {
        let n = RangeValue::null();
        assert!(n.is_null() && n.is_top(), "null is top-like for bounds");
        assert!(n.contains(&Value::Null));
        assert!(!n.contains(&Value::Int(1)));
        assert_eq!(RangeValue::point(Value::Null), RangeValue::null());
        assert!(
            !RangeValue::top(Value::Null).is_null(),
            "top may be non-NULL"
        );
        assert!(n.hull(&RangeValue::null()).is_null());
        assert!(!n.hull(&RangeValue::point(Value::Int(3))).is_null());
        assert!(n.with_bg(Value::Null).is_null());
        assert!(!n.with_bg(Value::Int(1)).is_null());
    }

    #[test]
    fn interval_arithmetic_encloses_groundings() {
        let a = span(1, 2, 3);
        let b = span(-2, 0, 5);
        let sum = interval_add(&a, &b, Value::Int(2));
        let prod = interval_mul(&a, &b, Value::Int(0));
        for va in 1..=3i64 {
            for vb in -2..=5i64 {
                assert!(sum.contains(&Value::Int(va + vb)), "{va}+{vb}");
                assert!(prod.contains(&Value::Int(va * vb)), "{va}*{vb}");
            }
        }
        let diff = interval_sub(&a, &b, Value::Int(2));
        assert!(diff.contains(&Value::Int(3 - -2)));
    }

    #[test]
    fn overflowing_endpoints_widen_except_between_points() {
        let four = RangeValue::point(Value::Int(4));
        // `[1, 1, 2⁶²] * 4`: the upper corner is 2⁶⁴ ≡ 0 under wrapping
        // arithmetic, and `[0, 4, 4]` misses the world 2⁶¹ * 4 = i64::MIN.
        let wide = interval_mul(&span(1, 1, 1 << 62), &four, Value::Int(4));
        assert!(wide.is_top() && wide.bg == Value::Int(4));
        assert!(wide.contains(&Value::Int((1i64 << 61).wrapping_mul(4))));
        // Sums and differences: one wrapped endpoint, or both.
        let max = RangeValue::point(Value::Int(i64::MAX));
        assert!(interval_add(&span(0, 0, 1), &max, Value::Int(i64::MAX)).is_top());
        assert!(interval_add(&span(1, 1, 2), &max, Value::Int(i64::MIN)).is_top());
        assert!(interval_sub(&span(-2, -2, 0), &max, Value::Int(i64::MAX)).is_top());
        // Two points are one world: the evaluator's wrapping value.
        let big = RangeValue::point(Value::Int(1 << 62));
        let wrapped = Value::Int((1i64 << 62).wrapping_mul(4));
        assert_eq!(
            interval_mul(&big, &four, wrapped.clone()),
            RangeValue::point(wrapped)
        );
        assert_eq!(
            interval_add(&max, &four, Value::Int(i64::MIN + 3)),
            RangeValue::point(Value::Int(i64::MIN + 3))
        );
        // Floats do not wrap, and in-range integers are untouched.
        let f = RangeValue::point(Value::float(1e308));
        assert!(!interval_mul(&f, &four, Value::float(f64::INFINITY)).is_top());
        assert_eq!(
            interval_mul(&span(1, 2, 3), &four, Value::Int(8)),
            span(4, 8, 12)
        );
    }

    #[test]
    fn division_by_possibly_zero_is_top() {
        let a = span(10, 10, 10);
        assert!(interval_div(&a, &span(-1, 1, 1), Value::Int(10)).is_top());
        let q = interval_div(&a, &span(2, 2, 5), Value::Int(5));
        assert!(q.contains(&Value::Int(10 / 2)));
        assert!(q.contains(&Value::Int(10 / 5)));
    }

    #[test]
    fn hull_and_intersection() {
        let a = span(1, 2, 4);
        let b = span(3, 5, 9);
        assert!(a.intersects(&b));
        let h = a.hull(&b);
        assert!(h.contains(&Value::Int(1)) && h.contains(&Value::Int(9)));
        assert!(!span(1, 1, 2).intersects(&span(3, 3, 4)));
    }
}
