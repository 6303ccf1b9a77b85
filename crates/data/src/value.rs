//! Attribute values, including SQL `NULL` and labeled nulls (variables).
//!
//! The universal domain `𝔻` of the paper is modeled by [`Value`]. Two kinds
//! of "unknown" coexist:
//!
//! * [`Value::Null`] — SQL's anonymous null (used by the Codd-table baseline
//!   and the engine's three-valued logic);
//! * [`Value::Var`] — a *labeled* null, i.e. a variable from `Σ` as used by
//!   V-tables and C-tables. Two occurrences of the same variable denote the
//!   same unknown value, so `x = x` is certainly true while `x = y` and
//!   `x = 3` are unknown.
//!
//! Value comparison comes in two flavours: the derived [`Ord`] is a *total
//! structural* order (used for map keys and deterministic output ordering),
//! while [`Value::sql_cmp`] implements the SQL comparison semantics returning
//! [`None`] on nulls, variables and type mismatches.

use std::fmt;
use std::sync::Arc;

/// A 64-bit float with total equality/order (canonical NaN, `-0.0 ≡ 0.0`),
/// usable as a hash-map key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct F64(u64);

impl F64 {
    /// Wrap a float, canonicalizing `NaN` and `-0.0` so equality is total.
    pub fn new(f: f64) -> Self {
        let canonical = if f.is_nan() {
            f64::NAN
        } else if f == 0.0 {
            0.0
        } else {
            f
        };
        // Store a monotone bit pattern: flipping the sign bit for positives
        // and all bits for negatives makes integer order match float order.
        let bits = canonical.to_bits();
        let key = if bits >> 63 == 0 {
            bits | (1 << 63)
        } else {
            !bits
        };
        F64(key)
    }

    /// The wrapped float.
    pub fn get(self) -> f64 {
        let bits = if self.0 >> 63 == 1 {
            self.0 & !(1 << 63)
        } else {
            !self.0
        };
        f64::from_bits(bits)
    }
}

impl From<f64> for F64 {
    fn from(f: f64) -> Self {
        F64::new(f)
    }
}

impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// Identifier of a labeled null / C-table variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?x{}", self.0)
    }
}

/// An attribute value from the universal domain.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// SQL `NULL`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float (total order; see [`F64`]).
    Float(F64),
    /// A string (cheaply clonable).
    Str(Arc<str>),
    /// A labeled null (C-table / V-table variable).
    Var(VarId),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for floats.
    pub fn float(f: f64) -> Value {
        Value::Float(F64::new(f))
    }

    /// Whether this value is SQL `NULL` or a labeled null.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Value::Null | Value::Var(_))
    }

    /// Canonical form for use as a hash-join key: integral floats collapse
    /// to ints, so structural key equality agrees with [`Value::sql_cmp`]'s
    /// coercing numeric equality (`Int(2) = Float(2.0)`). Every hash-key
    /// build/probe site must apply this, or the hash strategy would drop
    /// rows a nested-loop evaluation of the same predicate keeps. Exact
    /// over the whole `i64` range: [`cmp_int_float`] compares without the
    /// lossy `i64 → f64` cast, so two known values share a key iff
    /// `sql_cmp` calls them equal.
    pub fn join_key(self) -> Value {
        if let Value::Float(f) = &self {
            let x = f.get();
            if x.fract() == 0.0 && x >= -(2f64.powi(63)) && x < 2f64.powi(63) {
                let i = x as i64;
                if i as f64 == x {
                    return Value::Int(i);
                }
            }
        }
        self
    }

    /// Whether this value mentions a labeled null.
    pub fn is_var(&self) -> bool {
        matches!(self, Value::Var(_))
    }

    /// The numeric interpretation of this value, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(f.get()),
            _ => None,
        }
    }

    /// SQL comparison semantics: `None` when the comparison is *unknown*
    /// (a null or variable is involved, or the types are incomparable).
    ///
    /// Identical variables compare equal (a labeled null denotes one
    /// unknown value), which is what makes `x = x` certain over V-tables.
    pub fn sql_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Var(a), Var(b)) if a == b => Some(std::cmp::Ordering::Equal),
            (Null | Var(_), _) | (_, Null | Var(_)) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(a.cmp(b)),
            (Int(a), Float(b)) => cmp_int_float(*a, b.get()),
            (Float(a), Int(b)) => cmp_int_float(*b, a.get()).map(std::cmp::Ordering::reverse),
            (Str(a), Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            _ => None,
        }
    }

    /// SQL equality under two-valued semantics: unknown collapses to `false`.
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.sql_cmp(other) == Some(std::cmp::Ordering::Equal)
    }

    fn numeric_pair(&self, other: &Value) -> Option<NumericPair> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(NumericPair::Ints(*a, *b)),
            (Int(a), Float(b)) => Some(NumericPair::Floats(*a as f64, b.get())),
            (Float(a), Int(b)) => Some(NumericPair::Floats(a.get(), *b as f64)),
            (Float(a), Float(b)) => Some(NumericPair::Floats(a.get(), b.get())),
            _ => None,
        }
    }

    /// Numeric addition with int→float promotion; `Null` on unknown inputs,
    /// `None` on a type error.
    pub fn add(&self, other: &Value) -> Option<Value> {
        if self.is_unknown() || other.is_unknown() {
            return Some(Value::Null);
        }
        match self.numeric_pair(other)? {
            NumericPair::Ints(a, b) => Some(Value::Int(a.wrapping_add(b))),
            NumericPair::Floats(a, b) => Some(Value::float(a + b)),
        }
    }

    /// Numeric subtraction (see [`Value::add`] for the coercion rules).
    pub fn sub(&self, other: &Value) -> Option<Value> {
        if self.is_unknown() || other.is_unknown() {
            return Some(Value::Null);
        }
        match self.numeric_pair(other)? {
            NumericPair::Ints(a, b) => Some(Value::Int(a.wrapping_sub(b))),
            NumericPair::Floats(a, b) => Some(Value::float(a - b)),
        }
    }

    /// Numeric multiplication (see [`Value::add`]).
    pub fn mul(&self, other: &Value) -> Option<Value> {
        if self.is_unknown() || other.is_unknown() {
            return Some(Value::Null);
        }
        match self.numeric_pair(other)? {
            NumericPair::Ints(a, b) => Some(Value::Int(a.wrapping_mul(b))),
            NumericPair::Floats(a, b) => Some(Value::float(a * b)),
        }
    }

    /// Numeric division. Division by zero yields `Null` (we follow the
    /// forgiving convention so that generated workloads never abort).
    pub fn div(&self, other: &Value) -> Option<Value> {
        if self.is_unknown() || other.is_unknown() {
            return Some(Value::Null);
        }
        match self.numeric_pair(other)? {
            NumericPair::Ints(_, 0) => Some(Value::Null),
            NumericPair::Ints(a, b) => Some(Value::Int(a.wrapping_div(b))),
            NumericPair::Floats(a, b) => {
                if b == 0.0 {
                    Some(Value::Null)
                } else {
                    Some(Value::float(a / b))
                }
            }
        }
    }
}

/// Exact order of an integer against a float — no `i64 → f64` cast, which
/// rounds past ±2⁵³ and would call `9007199254740993` equal to
/// `9007199254740992.0`. `None` only for NaN (three-valued unknown, as
/// `partial_cmp` gives).
pub fn cmp_int_float(i: i64, f: f64) -> Option<std::cmp::Ordering> {
    use std::cmp::Ordering;
    // ±2⁶³ are exact floats, and every float strictly between them
    // truncates to an `i64` exactly.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() {
        None
    } else if f >= TWO_63 {
        Some(Ordering::Less)
    } else if f < -TWO_63 {
        Some(Ordering::Greater)
    } else {
        let whole = f.trunc();
        Some(
            i.cmp(&(whole as i64))
                .then(0.0_f64.partial_cmp(&(f - whole)).expect("finite")),
        )
    }
}

enum NumericPair {
    Ints(i64, i64),
    Floats(f64, f64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Var(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn f64_total_order_matches_float_order() {
        let xs = [-5.5f64, -0.0, 0.0, 1.25, 100.0, f64::MAX, f64::MIN];
        for &a in &xs {
            for &b in &xs {
                let fa = F64::new(a);
                let fb = F64::new(b);
                if a < b {
                    assert!(fa < fb, "{a} < {b}");
                } else if a > b {
                    assert!(fa > fb, "{a} > {b}");
                } else {
                    assert_eq!(fa, fb, "{a} == {b}");
                }
            }
        }
    }

    #[test]
    fn f64_roundtrip() {
        for f in [-1.5, 0.0, 3.25, -1e300, 1e-300] {
            assert_eq!(F64::new(f).get(), f);
        }
        assert_eq!(F64::new(-0.0).get(), 0.0);
        assert!(F64::new(f64::NAN).get().is_nan());
    }

    #[test]
    fn sql_cmp_nulls_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_vars() {
        let x = Value::Var(VarId(1));
        let y = Value::Var(VarId(2));
        assert_eq!(x.sql_cmp(&x), Some(Ordering::Equal));
        assert_eq!(x.sql_cmp(&y), None);
        assert_eq!(x.sql_cmp(&Value::Int(3)), None);
    }

    #[test]
    fn sql_cmp_numeric_coercion() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Int(2).sql_cmp(&Value::str("2")), None);
    }

    #[test]
    fn int_float_comparison_is_exact_past_2_53() {
        const P53: i64 = 1 << 53;
        let f53 = Value::float(P53 as f64);
        assert_eq!(Value::Int(P53).sql_cmp(&f53), Some(Ordering::Equal));
        // `(P53 + 1) as f64` rounds back to 2⁵³: a lossy cast calls these equal.
        assert_eq!(Value::Int(P53 + 1).sql_cmp(&f53), Some(Ordering::Greater));
        assert_eq!(f53.sql_cmp(&Value::Int(P53 + 1)), Some(Ordering::Less));
        assert_eq!(
            Value::Int(-P53 - 1).sql_cmp(&Value::float(-(P53 as f64))),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(i64::MAX).sql_cmp(&Value::float(2f64.powi(63))),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(i64::MIN).sql_cmp(&Value::float(-(2f64.powi(63)))),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(i64::MIN).sql_cmp(&Value::float(f64::NEG_INFINITY)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Int(-2).sql_cmp(&Value::float(-2.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Int(-3).sql_cmp(&Value::float(-2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(0).sql_cmp(&Value::float(-0.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::Int(1).sql_cmp(&Value::float(f64::NAN)), None);
        // Hash keys agree with the comparison: same key iff equal.
        for (i, f) in [(P53 + 1, P53 as f64), (P53, P53 as f64), (3, 3.0), (3, 3.5)] {
            let (a, b) = (Value::Int(i), Value::float(f));
            assert_eq!(
                a.clone().join_key() == b.clone().join_key(),
                a.sql_eq(&b),
                "{i} vs {f}"
            );
        }
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Some(Value::Int(5)));
        assert_eq!(
            Value::Int(2).add(&Value::float(0.5)),
            Some(Value::float(2.5))
        );
        assert_eq!(Value::Int(2).add(&Value::Null), Some(Value::Null));
        assert_eq!(Value::Int(2).add(&Value::str("x")), None);
        assert_eq!(Value::Int(7).div(&Value::Int(0)), Some(Value::Null));
        assert_eq!(Value::Int(7).div(&Value::Int(2)), Some(Value::Int(3)));
        assert_eq!(Value::Int(7).mul(&Value::Var(VarId(0))), Some(Value::Null));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::str("ab").to_string(), "'ab'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Var(VarId(3)).to_string(), "?x3");
        assert_eq!(Value::Int(-4).to_string(), "-4");
    }
}
