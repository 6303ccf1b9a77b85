//! Scalar expressions with two- and three-valued evaluation.
//!
//! Expressions are built against column *references* ([`Expr::Named`]) and
//! bound to a concrete [`Schema`] (producing positional [`Expr::Col`]
//! references) before evaluation. Predicates evaluate to a Kleene [`Truth`]
//! so that the engine can implement both classical two-valued semantics
//! (unknown ⇒ reject, used by K-relational selection `R(t) ⊗ θ(t)`) and the
//! SQL/Libkin three-valued semantics over nulls.

use crate::schema::{Schema, SchemaError};
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// Kleene three-valued truth.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Truth {
    /// Certainly true.
    True,
    /// Certainly false.
    False,
    /// Unknown (a null or labeled null was involved).
    Unknown,
}

impl Truth {
    /// Kleene conjunction.
    pub fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    /// Kleene negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// Two-valued collapse: unknown becomes `false`.
    pub fn is_true(self) -> bool {
        self == Truth::True
    }

    /// From a boolean.
    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// To a SQL boolean value (`Unknown` ⇒ `NULL`).
    pub fn to_value(self) -> Value {
        match self {
            Truth::True => Value::Bool(true),
            Truth::False => Value::Bool(false),
            Truth::Unknown => Value::Null,
        }
    }
}

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to an ordering.
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with its arguments swapped (`a op b ≡ b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The negated operator (`NOT (a op b) ≡ a op.negate() b` for non-null
    /// operands).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Arithmetic operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// Errors raised during expression binding or evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExprError {
    /// A column reference failed to resolve.
    Schema(SchemaError),
    /// An unbound named column reached evaluation.
    Unbound(String),
    /// Incompatible operand types.
    Type(String),
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::Schema(e) => write!(f, "{e}"),
            ExprError::Unbound(c) => write!(f, "unbound column reference `{c}`"),
            ExprError::Type(msg) => write!(f, "type error: {msg}"),
        }
    }
}

impl std::error::Error for ExprError {}

impl From<SchemaError> for ExprError {
    fn from(e: SchemaError) -> Self {
        ExprError::Schema(e)
    }
}

/// A scalar expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A bound (positional) column reference.
    Col(usize),
    /// A named column reference, resolved by [`Expr::bind`].
    Named(String),
    /// A literal value.
    Lit(Value),
    /// Comparison of two sub-expressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// `expr IS NULL` (also true for labeled nulls).
    IsNull(Box<Expr>),
    /// Searched `CASE WHEN cond THEN value ... [ELSE value] END`.
    Case {
        /// `(condition, result)` branches, tested in order.
        branches: Vec<(Expr, Expr)>,
        /// The `ELSE` result (`NULL` when omitted).
        otherwise: Option<Box<Expr>>,
    },
    /// `expr BETWEEN low AND high`.
    Between(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `expr IN (v1, ..., vn)`.
    InList(Box<Expr>, Vec<Expr>),
    /// Binary `LEAST`/minimum of two expressions (used by the UA rewriting's
    /// `min(Q1.C, Q2.C)` projection).
    Least(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Column reference by position.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Column reference by (possibly qualified) name.
    pub fn named(name: impl Into<String>) -> Expr {
        Expr::Named(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(other))
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(other))
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(other))
    }

    /// `self BETWEEN low AND high`.
    pub fn between(self, low: Expr, high: Expr) -> Expr {
        Expr::Between(Box::new(self), Box::new(low), Box::new(high))
    }

    /// `LEAST(self, other)`.
    pub fn least(self, other: Expr) -> Expr {
        Expr::Least(Box::new(self), Box::new(other))
    }

    /// The conjunction of all expressions (`TRUE` when empty).
    pub fn conjunction(exprs: impl IntoIterator<Item = Expr>) -> Expr {
        exprs
            .into_iter()
            .reduce(Expr::and)
            .unwrap_or(Expr::Lit(Value::Bool(true)))
    }

    /// Visit every leaf (`Col` / `Named` / `Lit`) left to right: the one
    /// read walk over the expression tree. [`Expr::referenced_columns`],
    /// the optimizer's reference collection and the marker guards are
    /// instantiations.
    pub fn for_each_leaf<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Expr::Col(_) | Expr::Named(_) | Expr::Lit(_) => f(self),
            Expr::Cmp(_, a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Arith(_, a, b)
            | Expr::Least(a, b) => {
                a.for_each_leaf(f);
                b.for_each_leaf(f);
            }
            Expr::Not(a) | Expr::IsNull(a) => a.for_each_leaf(f),
            Expr::Case {
                branches,
                otherwise,
            } => {
                for (c, v) in branches {
                    c.for_each_leaf(f);
                    v.for_each_leaf(f);
                }
                if let Some(e) = otherwise {
                    e.for_each_leaf(f);
                }
            }
            Expr::Between(e, lo, hi) => {
                e.for_each_leaf(f);
                lo.for_each_leaf(f);
                hi.for_each_leaf(f);
            }
            Expr::InList(e, list) => {
                e.for_each_leaf(f);
                list.iter().for_each(|item| item.for_each_leaf(f));
            }
        }
    }

    /// Rebuild the expression with every leaf replaced by `f(leaf)`, in
    /// [`Expr::for_each_leaf`]'s order, failing with the first error `f`
    /// returns: the one rebuilding walk. [`Expr::bind`], [`Expr::map_refs`]
    /// and the optimizer's substitution through projections are
    /// instantiations.
    pub fn try_map_leaves<E>(
        &self,
        f: &mut impl FnMut(&Expr) -> Result<Expr, E>,
    ) -> Result<Expr, E> {
        fn boxed<E>(
            e: &Expr,
            f: &mut impl FnMut(&Expr) -> Result<Expr, E>,
        ) -> Result<Box<Expr>, E> {
            e.try_map_leaves(f).map(Box::new)
        }
        Ok(match self {
            Expr::Col(_) | Expr::Named(_) | Expr::Lit(_) => return f(self),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, boxed(a, f)?, boxed(b, f)?),
            Expr::And(a, b) => Expr::And(boxed(a, f)?, boxed(b, f)?),
            Expr::Or(a, b) => Expr::Or(boxed(a, f)?, boxed(b, f)?),
            Expr::Not(a) => Expr::Not(boxed(a, f)?),
            Expr::Arith(op, a, b) => Expr::Arith(*op, boxed(a, f)?, boxed(b, f)?),
            Expr::IsNull(a) => Expr::IsNull(boxed(a, f)?),
            Expr::Case {
                branches,
                otherwise,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((c.try_map_leaves(f)?, v.try_map_leaves(f)?)))
                    .collect::<Result<_, E>>()?,
                otherwise: match otherwise {
                    Some(e) => Some(boxed(e, f)?),
                    None => None,
                },
            },
            Expr::Between(e, lo, hi) => Expr::Between(boxed(e, f)?, boxed(lo, f)?, boxed(hi, f)?),
            Expr::InList(e, list) => Expr::InList(
                boxed(e, f)?,
                list.iter()
                    .map(|item| item.try_map_leaves(f))
                    .collect::<Result<_, E>>()?,
            ),
            Expr::Least(a, b) => Expr::Least(boxed(a, f)?, boxed(b, f)?),
        })
    }

    /// Resolve all [`Expr::Named`] references against `schema`, producing a
    /// fully positional expression.
    pub fn bind(&self, schema: &Schema) -> Result<Expr, ExprError> {
        self.try_map_leaves(&mut |leaf| match leaf {
            Expr::Named(name) => Ok(Expr::Col(schema.resolve(name)?)),
            bound => Ok(bound.clone()),
        })
    }

    /// Evaluate to a [`Value`]. Predicates embedded as values follow SQL
    /// semantics (`Unknown` ⇒ `NULL`).
    pub fn eval(&self, tuple: &[Value]) -> Result<Value, ExprError> {
        Ok(match self {
            Expr::Col(i) => tuple
                .get(*i)
                .cloned()
                .ok_or_else(|| ExprError::Type(format!("column index {i} out of range")))?,
            Expr::Named(name) => return Err(ExprError::Unbound(name.clone())),
            Expr::Lit(v) => v.clone(),
            Expr::Cmp(..)
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::Not(..)
            | Expr::IsNull(..)
            | Expr::Between(..)
            | Expr::InList(..) => self.eval_truth(tuple)?.to_value(),
            Expr::Arith(op, a, b) => {
                let va = a.eval(tuple)?;
                let vb = b.eval(tuple)?;
                let result = match op {
                    ArithOp::Add => va.add(&vb),
                    ArithOp::Sub => va.sub(&vb),
                    ArithOp::Mul => va.mul(&vb),
                    ArithOp::Div => va.div(&vb),
                };
                result.ok_or_else(|| ExprError::Type(format!("cannot compute {va} {op} {vb}")))?
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                for (cond, result) in branches {
                    if cond.eval_truth(tuple)?.is_true() {
                        return result.eval(tuple);
                    }
                }
                match otherwise {
                    Some(e) => e.eval(tuple)?,
                    None => Value::Null,
                }
            }
            Expr::Least(a, b) => {
                let va = a.eval(tuple)?;
                let vb = b.eval(tuple)?;
                match va.sql_cmp(&vb) {
                    Some(Ordering::Greater) => vb,
                    Some(_) => va,
                    None => Value::Null,
                }
            }
        })
    }

    /// Evaluate as a predicate under Kleene three-valued logic.
    pub fn eval_truth(&self, tuple: &[Value]) -> Result<Truth, ExprError> {
        Ok(match self {
            Expr::Cmp(op, a, b) => {
                let va = a.eval(tuple)?;
                let vb = b.eval(tuple)?;
                match va.sql_cmp(&vb) {
                    Some(ord) => Truth::from_bool(op.test(ord)),
                    // `x <> x` on an identical variable is certainly false,
                    // handled by sql_cmp; everything else unknown.
                    None => Truth::Unknown,
                }
            }
            Expr::And(a, b) => a.eval_truth(tuple)?.and(b.eval_truth(tuple)?),
            Expr::Or(a, b) => a.eval_truth(tuple)?.or(b.eval_truth(tuple)?),
            Expr::Not(a) => a.eval_truth(tuple)?.not(),
            Expr::IsNull(a) => Truth::from_bool(a.eval(tuple)?.is_unknown()),
            Expr::Between(e, lo, hi) => {
                let v = e.eval(tuple)?;
                let lo = lo.eval(tuple)?;
                let hi = hi.eval(tuple)?;
                let ge_lo = match v.sql_cmp(&lo) {
                    Some(ord) => Truth::from_bool(CmpOp::Ge.test(ord)),
                    None => Truth::Unknown,
                };
                let le_hi = match v.sql_cmp(&hi) {
                    Some(ord) => Truth::from_bool(CmpOp::Le.test(ord)),
                    None => Truth::Unknown,
                };
                ge_lo.and(le_hi)
            }
            Expr::InList(e, list) => {
                let v = e.eval(tuple)?;
                let mut acc = Truth::False;
                for item in list {
                    let w = item.eval(tuple)?;
                    let eq = match v.sql_cmp(&w) {
                        Some(ord) => Truth::from_bool(CmpOp::Eq.test(ord)),
                        None => Truth::Unknown,
                    };
                    acc = acc.or(eq);
                    if acc == Truth::True {
                        break;
                    }
                }
                acc
            }
            other => match other.eval(tuple)? {
                Value::Bool(b) => Truth::from_bool(b),
                Value::Null | Value::Var(_) => Truth::Unknown,
                v => return Err(ExprError::Type(format!("{v} is not a boolean"))),
            },
        })
    }

    /// Two-valued predicate evaluation: `Unknown` collapses to `false`.
    /// This realizes the paper's `θ(t)` in `[σ_θ(R)](t) = R(t) ⊗ θ(t)`.
    pub fn holds(&self, tuple: &[Value]) -> Result<bool, ExprError> {
        Ok(self.eval_truth(tuple)?.is_true())
    }

    /// All column positions this (bound) expression reads.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        self.for_each_leaf(&mut |leaf| {
            if let Expr::Col(i) = leaf {
                out.push(*i);
            }
        });
    }

    /// Rebuild the expression with every column reference mapped: named
    /// references through `names` (which may decline, failing the whole
    /// rebuild with `None`) and positional references through `cols`.
    /// [`crate::algebra::shift_columns`] and the optimizer's
    /// requalification/remapping passes are instantiations.
    pub fn map_refs(
        &self,
        names: &dyn Fn(&str) -> Option<String>,
        cols: &dyn Fn(usize) -> usize,
    ) -> Option<Expr> {
        self.try_map_leaves(&mut |leaf| match leaf {
            Expr::Named(name) => names(name).map(Expr::Named).ok_or(()),
            Expr::Col(i) => Ok(Expr::Col(cols(*i))),
            lit => Ok(lit.clone()),
        })
        .ok()
    }

    /// Split a conjunction into its conjuncts.
    pub fn split_conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "#{i}"),
            Expr::Named(n) => write!(f, "{n}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "(NOT {a})"),
            Expr::Arith(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::IsNull(a) => write!(f, "({a} IS NULL)"),
            Expr::Case {
                branches,
                otherwise,
            } => {
                write!(f, "CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                if let Some(e) = otherwise {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Between(e, lo, hi) => write!(f, "({e} BETWEEN {lo} AND {hi})"),
            Expr::InList(e, list) => {
                write!(f, "({e} IN (")?;
                for (i, item) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "))")
            }
            Expr::Least(a, b) => write!(f, "LEAST({a}, {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::tuple::Tuple;
    use crate::value::VarId;

    fn bind(e: Expr, names: &[&str]) -> Expr {
        e.bind(&Schema::unqualified(names.iter().copied())).unwrap()
    }

    #[test]
    fn bind_and_eval_comparison() {
        let e = bind(Expr::named("a").lt(Expr::lit(10i64)), &["a", "b"]);
        assert!(e.holds(&tuple![5i64, 0i64]).unwrap());
        assert!(!e.holds(&tuple![15i64, 0i64]).unwrap());
    }

    #[test]
    fn three_valued_logic_over_nulls() {
        let e = bind(Expr::named("a").eq(Expr::lit(1i64)), &["a"]);
        let null_row = Tuple::new(vec![Value::Null]);
        assert_eq!(e.eval_truth(&null_row).unwrap(), Truth::Unknown);
        assert!(!e.holds(&null_row).unwrap());
        // Unknown OR True = True.
        let e2 = bind(
            Expr::named("a").eq(Expr::lit(1i64)).or(Expr::lit(true)),
            &["a"],
        );
        assert_eq!(e2.eval_truth(&null_row).unwrap(), Truth::True);
    }

    #[test]
    fn labeled_null_self_equality() {
        let e = bind(Expr::named("a").eq(Expr::named("b")), &["a", "b"]);
        let x = Value::Var(VarId(1));
        assert_eq!(
            e.eval_truth(&Tuple::new(vec![x.clone(), x.clone()]))
                .unwrap(),
            Truth::True
        );
        assert_eq!(
            e.eval_truth(&Tuple::new(vec![x, Value::Var(VarId(2))]))
                .unwrap(),
            Truth::Unknown
        );
    }

    #[test]
    fn case_expression() {
        // The paper's Q1: CASE IUCR WHEN .. THEN .. END rewritten as searched case.
        let e = bind(
            Expr::Case {
                branches: vec![
                    (
                        Expr::named("iucr").eq(Expr::lit(820i64)),
                        Expr::lit("Theft"),
                    ),
                    (
                        Expr::named("iucr").eq(Expr::lit(486i64)),
                        Expr::lit("Domestic Battery"),
                    ),
                ],
                otherwise: None,
            },
            &["iucr"],
        );
        assert_eq!(e.eval(&tuple![820i64]).unwrap(), Value::str("Theft"));
        assert_eq!(e.eval(&tuple![999i64]).unwrap(), Value::Null);
    }

    #[test]
    fn between_and_in_list() {
        let e = bind(
            Expr::named("x").between(Expr::lit(1i64), Expr::lit(5i64)),
            &["x"],
        );
        assert!(e.holds(&tuple![3i64]).unwrap());
        assert!(!e.holds(&tuple![9i64]).unwrap());

        let e = bind(
            Expr::InList(
                Box::new(Expr::named("x")),
                vec![Expr::lit(1i64), Expr::lit(2i64)],
            ),
            &["x"],
        );
        assert!(e.holds(&tuple![2i64]).unwrap());
        assert!(!e.holds(&tuple![3i64]).unwrap());
    }

    #[test]
    fn in_list_with_null_is_unknown_not_false_positive() {
        let e = bind(
            Expr::InList(
                Box::new(Expr::named("x")),
                vec![Expr::lit(1i64), Expr::Lit(Value::Null)],
            ),
            &["x"],
        );
        assert_eq!(e.eval_truth(&tuple![1i64]).unwrap(), Truth::True);
        assert_eq!(e.eval_truth(&tuple![9i64]).unwrap(), Truth::Unknown);
    }

    #[test]
    fn arithmetic_and_least() {
        let e = bind(
            Expr::named("a").add(Expr::named("b")).mul(Expr::lit(2i64)),
            &["a", "b"],
        );
        assert_eq!(e.eval(&tuple![3i64, 4i64]).unwrap(), Value::Int(14));

        let l = bind(Expr::named("a").least(Expr::named("b")), &["a", "b"]);
        assert_eq!(l.eval(&tuple![3i64, 4i64]).unwrap(), Value::Int(3));
        assert_eq!(l.eval(&tuple![4i64, 3i64]).unwrap(), Value::Int(3));
    }

    #[test]
    fn is_null_and_unbound_errors() {
        let e = bind(Expr::IsNull(Box::new(Expr::named("a"))), &["a"]);
        assert!(e.holds(&Tuple::new(vec![Value::Null])).unwrap());
        assert!(!e.holds(&tuple![1i64]).unwrap());

        let unbound = Expr::named("zzz");
        assert!(matches!(
            unbound.eval(&tuple![1i64]),
            Err(ExprError::Unbound(_))
        ));
        assert!(matches!(
            Expr::named("zzz").bind(&Schema::unqualified(["a"])),
            Err(ExprError::Schema(_))
        ));
    }

    #[test]
    fn conjunct_splitting() {
        let e = Expr::named("a")
            .eq(Expr::lit(1i64))
            .and(Expr::named("b").eq(Expr::lit(2i64)))
            .and(Expr::named("c").eq(Expr::lit(3i64)));
        assert_eq!(e.split_conjuncts().len(), 3);
    }

    /// One expression holding all 13 variants: leaves `a`, `#1`, `c`, `d`
    /// and eight literals among ten interior nodes.
    fn every_variant() -> Expr {
        let case = Expr::Case {
            branches: vec![(
                Expr::named("a").lt(Expr::lit(1i64)),
                Expr::Col(1).add(Expr::lit(2i64)),
            )],
            otherwise: Some(Box::new(Expr::named("c").least(Expr::lit(3i64)))),
        };
        let in_list = Expr::InList(
            Box::new(Expr::named("d")),
            vec![Expr::lit(4i64), Expr::lit(5i64)],
        );
        case.between(Expr::lit(6i64), Expr::lit(7i64))
            .and(in_list.or(Expr::IsNull(Box::new(Expr::lit("x"))).not()))
    }

    fn leaves(e: &Expr) -> Vec<Expr> {
        let mut out = Vec::new();
        e.for_each_leaf(&mut |leaf| out.push(leaf.clone()));
        out
    }

    #[test]
    fn identity_rebuilds_are_the_identity() {
        let e = every_variant();
        assert_eq!(
            e.map_refs(&|n| Some(n.to_string()), &|i| i),
            Some(e.clone())
        );
        let bound = e.bind(&Schema::unqualified(["a", "b", "c", "d"])).unwrap();
        assert_ne!(bound, e);
        assert_eq!(bound.bind(&Schema::unqualified(["z"])).unwrap(), bound);
        let mut cols = Vec::new();
        bound.referenced_columns(&mut cols);
        assert_eq!(cols, vec![0, 1, 2, 3]);
    }

    #[test]
    fn the_read_walk_sees_exactly_the_leaves_the_rebuild_replaces() {
        let e = every_variant();
        let seen = leaves(&e);
        assert_eq!(seen.len(), 12);
        assert!(seen
            .iter()
            .all(|l| matches!(l, Expr::Col(_) | Expr::Named(_) | Expr::Lit(_))));
        // The rebuild is handed the same leaves in the same order …
        let mut handed = Vec::new();
        let numbered = e
            .try_map_leaves(&mut |leaf| {
                handed.push(leaf.clone());
                Ok::<_, ()>(Expr::Col(100 + handed.len()))
            })
            .unwrap();
        assert_eq!(handed, seen);
        // … and replaces every one of them, nothing else.
        let replaced: Vec<Expr> = (1..=seen.len()).map(|i| Expr::Col(100 + i)).collect();
        assert_eq!(leaves(&numbered), replaced);
        let restored = numbered.try_map_leaves(&mut |leaf| match leaf {
            Expr::Col(i) => Ok(seen[i - 101].clone()),
            other => Err(other.clone()),
        });
        assert_eq!(restored, Ok(e));
        // The first failing leaf, left to right, fails the rebuild.
        let first_literal = every_variant().try_map_leaves(&mut |leaf| match leaf {
            Expr::Lit(v) => Err(v.clone()),
            other => Ok(other.clone()),
        });
        assert_eq!(first_literal, Err(Value::Int(1)));
    }

    #[test]
    fn referenced_columns() {
        let e = bind(
            Expr::named("a")
                .eq(Expr::named("c"))
                .or(Expr::named("b").lt(Expr::lit(0i64))),
            &["a", "b", "c"],
        );
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1, 2]);
    }
}
