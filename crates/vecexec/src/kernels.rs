//! Vectorized expression evaluation.
//!
//! Two entry points, both taking *bound* (positional) expressions:
//!
//! * [`truth_masks`] — evaluate a predicate under Kleene three-valued logic
//!   into a pair of bitmaps `(certainly true, certainly false)`. Conjunction
//!   and disjunction become word-wide AND/OR on the masks; comparisons get
//!   typed loops for the common column shapes and a per-row
//!   [`Value::sql_cmp`] fallback everywhere else, so the decisions are
//!   bit-identical to the row executor's `Expr::eval_truth`.
//! * [`eval_expr`] — evaluate a scalar expression to a column
//!   ([`Evaluated::Col`]) or an unexpanded constant ([`Evaluated::Const`]).
//!   Arithmetic gets typed kernels (dense `Int`/`Float` loops with the row
//!   engine's exact wrapping/promotion/NULL-division semantics; mixed
//!   columns drop to per-row `Value` arithmetic). Rare expression shapes
//!   fall back to row-at-a-time evaluation of the same `Expr::eval` the
//!   row engine uses — again guaranteeing agreement.
//!
//! Beside them sit the two AU range kernels, which read an AU batch's
//! `[bg | lb | ub]` triple columns and never assemble a range:
//! [`eval_triple`] (an expression's three columns — interval arithmetic at
//! column speed) and [`range_truth_masks`] (a predicate's possibly-true /
//! possibly-false bitmaps, its comparison operands through the same
//! evaluator). Both are bit for bit `ua_ranges`' per-row evaluators or
//! decline the batch.
//!
//! On top of those sit the **fused** kernels the morsel pipeline uses to
//! evaluate a selection bitmap and consume it in the same pass:
//!
//! * [`filter_selection`] — predicate → surviving row positions (`None`
//!   when every row survives, so callers skip gathering entirely);
//! * [`project_selected`] — π over a selection vector: plain column
//!   references gather only their own column, computed expressions
//!   evaluate over the surviving rows only (never over rows the filter
//!   rejected — expression errors must match the row engine's
//!   filter-then-map behavior). One gather per *needed* column replaces
//!   the old gather-every-column-then-project two-pass shape.

use crate::bitmap::Bitmap;
use crate::columnar::{ColumnBatch, ColumnVec};
use std::cmp::Ordering;
use std::sync::Arc;
use ua_data::expr::{ArithOp, CmpOp, Expr, ExprError, Truth};
use ua_data::schema::Schema;
use ua_data::value::{cmp_int_float, Value, F64};
use ua_plan::EngineError;
use ua_ranges::{range_parts, RangeValue};

/// The result of vectorized scalar evaluation.
pub enum Evaluated {
    /// A materialized column.
    Col(ColumnVec),
    /// A per-batch constant (not expanded unless needed).
    Const(Value),
}

impl Evaluated {
    /// The value at row `i`.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Evaluated::Col(c) => c.value(i),
            Evaluated::Const(v) => v.clone(),
        }
    }

    /// Materialize as a column of `len` rows.
    pub fn into_column(self, len: usize) -> ColumnVec {
        match self {
            Evaluated::Col(c) => c,
            Evaluated::Const(v) => ColumnVec::broadcast(&v, len),
        }
    }
}

/// Evaluate `expr` over `batch` into a column/constant.
pub fn eval_expr(expr: &Expr, batch: &ColumnBatch) -> Result<Evaluated, EngineError> {
    Ok(match expr {
        Expr::Col(i) => Evaluated::Col(
            batch
                .columns()
                .get(*i)
                .cloned()
                .ok_or_else(|| EngineError::Sql(format!("column index {i} out of range")))?,
        ),
        Expr::Lit(v) => Evaluated::Const(v.clone()),
        Expr::Named(n) => {
            return Err(EngineError::Expr(ua_data::expr::ExprError::Unbound(
                n.clone(),
            )))
        }
        Expr::Arith(op, a, b) => {
            let ea = eval_expr(a, batch)?;
            let eb = eval_expr(b, batch)?;
            arith_kernel(*op, &ea, &eb, batch.len())?
        }
        Expr::Cmp(..)
        | Expr::And(..)
        | Expr::Or(..)
        | Expr::Not(..)
        | Expr::IsNull(..)
        | Expr::Between(..)
        | Expr::InList(..) => {
            // Predicates used as values follow SQL semantics:
            // Unknown ⇒ NULL, so the result is Bool unless unknowns occur.
            let (t, f) = truth_masks(expr, batch)?;
            let n = batch.len();
            let unknowns = n - t.count_ones() - f.count_ones();
            if unknowns == 0 {
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(t.get(i));
                }
                Evaluated::Col(ColumnVec::Bool(Arc::new(out)))
            } else {
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(if t.get(i) {
                        Value::Bool(true)
                    } else if f.get(i) {
                        Value::Bool(false)
                    } else {
                        Value::Null
                    });
                }
                Evaluated::Col(ColumnVec::Mixed(Arc::new(out)))
            }
        }
        Expr::Case { .. } | Expr::Least(..) => row_fallback(expr, batch)?,
    })
}

/// One scalar arithmetic step with the row engine's exact semantics
/// (wrapping integers, int→float promotion, unknown ⇒ `NULL`, `NULL` on
/// division by zero) and its exact error text on a type mismatch.
fn value_arith(op: ArithOp, va: &Value, vb: &Value) -> Result<Value, EngineError> {
    let result = match op {
        ArithOp::Add => va.add(vb),
        ArithOp::Sub => va.sub(vb),
        ArithOp::Mul => va.mul(vb),
        ArithOp::Div => va.div(vb),
    };
    result
        .ok_or_else(|| EngineError::Expr(ExprError::Type(format!("cannot compute {va} {op} {vb}"))))
}

/// A numeric operand view over an evaluated sub-expression.
enum NumOperand<'a> {
    IntCol(&'a [i64]),
    FloatCol(&'a [F64]),
    IntConst(i64),
    FloatConst(f64),
}

impl NumOperand<'_> {
    fn classify<'a>(e: &'a Evaluated) -> Option<NumOperand<'a>> {
        match e {
            Evaluated::Col(ColumnVec::Int(v)) => Some(NumOperand::IntCol(v)),
            Evaluated::Col(ColumnVec::Float(v)) => Some(NumOperand::FloatCol(v)),
            Evaluated::Const(Value::Int(i)) => Some(NumOperand::IntConst(*i)),
            Evaluated::Const(Value::Float(f)) => Some(NumOperand::FloatConst(f.get())),
            _ => None,
        }
    }

    fn is_int(&self) -> bool {
        matches!(self, NumOperand::IntCol(_) | NumOperand::IntConst(_))
    }

    fn int_at(&self, i: usize) -> i64 {
        match self {
            NumOperand::IntCol(v) => v[i],
            NumOperand::IntConst(c) => *c,
            _ => unreachable!("int operand"),
        }
    }

    fn f64_at(&self, i: usize) -> f64 {
        match self {
            NumOperand::IntCol(v) => v[i] as f64,
            NumOperand::FloatCol(v) => v[i].get(),
            NumOperand::IntConst(c) => *c as f64,
            NumOperand::FloatConst(c) => *c,
        }
    }
}

/// Typed arithmetic kernel: dense `Int`/`Float` loops for the common
/// column shapes (no per-row `Value` construction), falling back to the
/// scalar `Value` semantics — bit-identical to the row engine — for mixed
/// or non-numeric columns. Division by zero yields `NULL`, demoting the
/// output to a mixed column only when a zero divisor actually occurs.
fn arith_kernel(
    op: ArithOp,
    ea: &Evaluated,
    eb: &Evaluated,
    n: usize,
) -> Result<Evaluated, EngineError> {
    // Constant folding: one scalar step, never expanded.
    if let (Evaluated::Const(va), Evaluated::Const(vb)) = (ea, eb) {
        return Ok(Evaluated::Const(value_arith(op, va, vb)?));
    }
    match (NumOperand::classify(ea), NumOperand::classify(eb)) {
        (Some(a), Some(b)) if a.is_int() && b.is_int() => match op {
            ArithOp::Add => Ok(Evaluated::Col(ColumnVec::Int(Arc::new(
                (0..n)
                    .map(|i| a.int_at(i).wrapping_add(b.int_at(i)))
                    .collect(),
            )))),
            ArithOp::Sub => Ok(Evaluated::Col(ColumnVec::Int(Arc::new(
                (0..n)
                    .map(|i| a.int_at(i).wrapping_sub(b.int_at(i)))
                    .collect(),
            )))),
            ArithOp::Mul => Ok(Evaluated::Col(ColumnVec::Int(Arc::new(
                (0..n)
                    .map(|i| a.int_at(i).wrapping_mul(b.int_at(i)))
                    .collect(),
            )))),
            ArithOp::Div => {
                if (0..n).any(|i| b.int_at(i) == 0) {
                    let vals: Vec<Value> = (0..n)
                        .map(|i| match b.int_at(i) {
                            0 => Value::Null,
                            d => Value::Int(a.int_at(i).wrapping_div(d)),
                        })
                        .collect();
                    Ok(Evaluated::Col(ColumnVec::Mixed(Arc::new(vals))))
                } else {
                    Ok(Evaluated::Col(ColumnVec::Int(Arc::new(
                        (0..n)
                            .map(|i| a.int_at(i).wrapping_div(b.int_at(i)))
                            .collect(),
                    ))))
                }
            }
        },
        (Some(a), Some(b)) => match op {
            ArithOp::Add => Ok(Evaluated::Col(ColumnVec::Float(Arc::new(
                (0..n)
                    .map(|i| F64::new(a.f64_at(i) + b.f64_at(i)))
                    .collect(),
            )))),
            ArithOp::Sub => Ok(Evaluated::Col(ColumnVec::Float(Arc::new(
                (0..n)
                    .map(|i| F64::new(a.f64_at(i) - b.f64_at(i)))
                    .collect(),
            )))),
            ArithOp::Mul => Ok(Evaluated::Col(ColumnVec::Float(Arc::new(
                (0..n)
                    .map(|i| F64::new(a.f64_at(i) * b.f64_at(i)))
                    .collect(),
            )))),
            ArithOp::Div => {
                if (0..n).any(|i| b.f64_at(i) == 0.0) {
                    let vals: Vec<Value> = (0..n)
                        .map(|i| {
                            let d = b.f64_at(i);
                            if d == 0.0 {
                                Value::Null
                            } else {
                                Value::float(a.f64_at(i) / d)
                            }
                        })
                        .collect();
                    Ok(Evaluated::Col(ColumnVec::Mixed(Arc::new(vals))))
                } else {
                    Ok(Evaluated::Col(ColumnVec::Float(Arc::new(
                        (0..n)
                            .map(|i| F64::new(a.f64_at(i) / b.f64_at(i)))
                            .collect(),
                    ))))
                }
            }
        },
        // Mixed / non-numeric columns: scalar semantics per row, reporting
        // the first failing row like the row engine's loop.
        _ => {
            let mut out: Vec<Value> = Vec::with_capacity(n);
            for i in 0..n {
                out.push(value_arith(op, &ea.value_at(i), &eb.value_at(i))?);
            }
            Ok(Evaluated::Col(ColumnVec::from_values(out.iter())))
        }
    }
}

/// Row-at-a-time fallback for expression shapes without a dedicated kernel:
/// materializes each row as a tuple and reuses the scalar evaluator, then
/// re-sniffs the output into the densest column representation.
fn row_fallback(expr: &Expr, batch: &ColumnBatch) -> Result<Evaluated, EngineError> {
    let mut out = Vec::with_capacity(batch.len());
    for i in 0..batch.len() {
        let row = batch.row(i);
        out.push(expr.eval(&row).map_err(EngineError::Expr)?);
    }
    Ok(Evaluated::Col(ColumnVec::from_values(out.iter())))
}

/// Evaluate a (bound) predicate over `batch` into a selection vector: the
/// positions whose predicate is certainly true, or `None` when every row
/// survives (callers then reuse the input batch as-is).
pub fn filter_selection(
    bound: &Expr,
    batch: &ColumnBatch,
) -> Result<Option<Vec<u32>>, EngineError> {
    let (t, _f) = truth_masks(bound, batch)?;
    if t.all_ones() {
        Ok(None)
    } else {
        Ok(Some(t.ones()))
    }
}

/// Fused σ→π kernel: project `exprs` over the rows of `batch` at `sel`
/// (`None` = all rows). Column references gather just their own column;
/// literals broadcast; anything else evaluates over a lazily-gathered
/// survivor batch, so computed expressions never see rejected rows. Labels
/// and multiplicities ride along with the selection.
pub fn project_selected(
    batch: &ColumnBatch,
    sel: Option<&[u32]>,
    exprs: &[Expr],
    out_schema: &Schema,
) -> Result<ColumnBatch, EngineError> {
    match sel {
        None => {
            let cols: Vec<ColumnVec> = exprs
                .iter()
                .map(|e| Ok(eval_expr(e, batch)?.into_column(batch.len())))
                .collect::<Result<_, EngineError>>()?;
            Ok(ColumnBatch::new(
                out_schema.clone(),
                cols,
                batch.labels().clone(),
                Arc::new(batch.mults().to_vec()),
            ))
        }
        Some(sel) => {
            let mut gathered: Option<ColumnBatch> = None;
            let cols: Vec<ColumnVec> = exprs
                .iter()
                .map(|e| match e {
                    Expr::Col(i) => Ok(batch
                        .columns()
                        .get(*i)
                        .ok_or_else(|| EngineError::Sql(format!("column index {i} out of range")))?
                        .gather(sel)),
                    Expr::Lit(v) => Ok(ColumnVec::broadcast(v, sel.len())),
                    other => {
                        let g = gathered.get_or_insert_with(|| batch.gather(sel));
                        Ok(eval_expr(other, g)?.into_column(sel.len()))
                    }
                })
                .collect::<Result<_, EngineError>>()?;
            let labels = batch.labels().gather(sel);
            let mults: Vec<u64> = sel.iter().map(|&i| batch.mults()[i as usize]).collect();
            Ok(ColumnBatch::new(
                out_schema.clone(),
                cols,
                labels,
                Arc::new(mults),
            ))
        }
    }
}

/// Evaluate a (bound) scalar expression over the rows of `batch` at `sel`
/// (`None` = all rows), without evaluating on unselected rows — the fused
/// σ→probe path uses this for hash-key evaluation so error-capable key
/// expressions only ever see filter survivors, like the row engine's
/// filter-below-join.
pub fn eval_selected(
    expr: &Expr,
    batch: &ColumnBatch,
    sel: Option<&[u32]>,
    gathered: &mut Option<ColumnBatch>,
) -> Result<Evaluated, EngineError> {
    match sel {
        None => eval_expr(expr, batch),
        Some(sel) => match expr {
            Expr::Col(i) => Ok(Evaluated::Col(
                batch
                    .columns()
                    .get(*i)
                    .ok_or_else(|| EngineError::Sql(format!("column index {i} out of range")))?
                    .gather(sel),
            )),
            Expr::Lit(v) => Ok(Evaluated::Const(v.clone())),
            other => {
                let g = gathered.get_or_insert_with(|| batch.gather(sel));
                eval_expr(other, g)
            }
        },
    }
}

/// Evaluate a predicate into `(certainly_true, certainly_false)` masks.
/// Rows in neither mask evaluated to `Unknown`.
pub fn truth_masks(expr: &Expr, batch: &ColumnBatch) -> Result<(Bitmap, Bitmap), EngineError> {
    let n = batch.len();
    Ok(match expr {
        Expr::Cmp(op, a, b) => {
            let ea = eval_expr(a, batch)?;
            let eb = eval_expr(b, batch)?;
            cmp_masks(*op, &ea, &eb, n)
        }
        Expr::And(a, b) => {
            let (mut ta, mut fa) = truth_masks(a, batch)?;
            let (tb, fb) = truth_masks(b, batch)?;
            ta.and_assign(&tb);
            fa.or_assign(&fb);
            (ta, fa)
        }
        Expr::Or(a, b) => {
            let (mut ta, mut fa) = truth_masks(a, batch)?;
            let (tb, fb) = truth_masks(b, batch)?;
            ta.or_assign(&tb);
            fa.and_assign(&fb);
            (ta, fa)
        }
        Expr::Not(a) => {
            let (t, f) = truth_masks(a, batch)?;
            (f, t)
        }
        Expr::IsNull(a) => {
            let ea = eval_expr(a, batch)?;
            let mut t = Bitmap::filled(n, false);
            match &ea {
                Evaluated::Const(v) => {
                    if v.is_unknown() {
                        t = Bitmap::filled(n, true);
                    }
                }
                Evaluated::Col(ColumnVec::Mixed(vals)) => {
                    for (i, v) in vals.iter().enumerate() {
                        if v.is_unknown() {
                            t.set(i, true);
                        }
                    }
                }
                // Typed columns never hold nulls by construction.
                Evaluated::Col(_) => {}
            }
            let mut f = Bitmap::filled(n, true);
            for i in t.ones() {
                f.set(i as usize, false);
            }
            (t, f)
        }
        Expr::Between(e, lo, hi) => {
            let ge_lo = Expr::Cmp(CmpOp::Ge, e.clone(), lo.clone());
            let le_hi = Expr::Cmp(CmpOp::Le, e.clone(), hi.clone());
            let (mut t, mut f) = truth_masks(&ge_lo, batch)?;
            let (t2, f2) = truth_masks(&le_hi, batch)?;
            t.and_assign(&t2);
            f.or_assign(&f2);
            (t, f)
        }
        Expr::InList(e, list) => {
            // acc = False; acc = acc OR (e = item) — mirrors the scalar
            // fold, including Kleene handling of unknown memberships.
            let mut t = Bitmap::filled(n, false);
            let mut f = Bitmap::filled(n, true);
            for item in list {
                let eq = Expr::Cmp(CmpOp::Eq, e.clone(), Box::new(item.clone()));
                let (t2, f2) = truth_masks(&eq, batch)?;
                t.or_assign(&t2);
                f.and_assign(&f2);
            }
            (t, f)
        }
        other => {
            // Bool columns/constants and the row-fallback shapes.
            let ev = eval_expr(other, batch)?;
            let mut t = Bitmap::filled(n, false);
            let mut f = Bitmap::filled(n, false);
            match &ev {
                Evaluated::Const(v) => match truth_of(v)? {
                    Truth::True => t = Bitmap::filled(n, true),
                    Truth::False => f = Bitmap::filled(n, true),
                    Truth::Unknown => {}
                },
                Evaluated::Col(ColumnVec::Bool(vals)) => {
                    for (i, &b) in vals.iter().enumerate() {
                        if b {
                            t.set(i, true);
                        } else {
                            f.set(i, true);
                        }
                    }
                }
                Evaluated::Col(ColumnVec::Mixed(vals)) => {
                    for (i, v) in vals.iter().enumerate() {
                        match truth_of(v)? {
                            Truth::True => t.set(i, true),
                            Truth::False => f.set(i, true),
                            Truth::Unknown => {}
                        }
                    }
                }
                Evaluated::Col(_) => {
                    return Err(EngineError::Expr(ua_data::expr::ExprError::Type(
                        "predicate column is not boolean".into(),
                    )))
                }
            }
            (t, f)
        }
    })
}

fn truth_of(v: &Value) -> Result<Truth, EngineError> {
    match v {
        Value::Bool(b) => Ok(Truth::from_bool(*b)),
        Value::Null | Value::Var(_) => Ok(Truth::Unknown),
        other => Err(EngineError::Expr(ua_data::expr::ExprError::Type(format!(
            "{other} is not a boolean"
        )))),
    }
}

fn masks_from_ords(
    op: CmpOp,
    n: usize,
    ord_at: impl Fn(usize) -> Option<Ordering>,
) -> (Bitmap, Bitmap) {
    let mut t = Bitmap::filled(n, false);
    let mut f = Bitmap::filled(n, false);
    for i in 0..n {
        if let Some(ord) = ord_at(i) {
            if op.test(ord) {
                t.set(i, true);
            } else {
                f.set(i, true);
            }
        }
    }
    (t, f)
}

fn cmp_masks(op: CmpOp, a: &Evaluated, b: &Evaluated, n: usize) -> (Bitmap, Bitmap) {
    use ColumnVec::*;
    use Evaluated::*;
    match (a, b) {
        // Typed fast paths: plain `Ord` loops, no Value construction.
        (Col(Int(x)), Col(Int(y))) => masks_from_ords(op, n, |i| Some(x[i].cmp(&y[i]))),
        (Col(Int(x)), Const(Value::Int(c))) => masks_from_ords(op, n, |i| Some(x[i].cmp(c))),
        (Const(Value::Int(c)), Col(Int(y))) => masks_from_ords(op, n, |i| Some(c.cmp(&y[i]))),
        (Col(Float(x)), Col(Float(y))) => masks_from_ords(op, n, |i| Some(x[i].cmp(&y[i]))),
        (Col(Float(x)), Const(Value::Float(c))) => masks_from_ords(op, n, |i| Some(x[i].cmp(c))),
        (Const(Value::Float(c)), Col(Float(y))) => masks_from_ords(op, n, |i| Some(c.cmp(&y[i]))),
        (Col(Str(x)), Col(Str(y))) => {
            masks_from_ords(op, n, |i| Some(x[i].as_ref().cmp(y[i].as_ref())))
        }
        (Col(Str(x)), Const(Value::Str(c))) => {
            masks_from_ords(op, n, |i| Some(x[i].as_ref().cmp(c.as_ref())))
        }
        (Const(Value::Str(c)), Col(Str(y))) => {
            masks_from_ords(op, n, |i| Some(c.as_ref().cmp(y[i].as_ref())))
        }
        // Constant-constant: decide once, broadcast.
        (Const(va), Const(vb)) => {
            let ord = va.sql_cmp(vb);
            match ord {
                Some(ord) => {
                    if op.test(ord) {
                        (Bitmap::filled(n, true), Bitmap::filled(n, false))
                    } else {
                        (Bitmap::filled(n, false), Bitmap::filled(n, true))
                    }
                }
                None => (Bitmap::filled(n, false), Bitmap::filled(n, false)),
            }
        }
        // Everything else (numeric promotions, Mixed columns, type
        // mismatches): per-row SQL comparison semantics.
        _ => masks_from_ords(op, n, |i| a.value_at(i).sql_cmp(&b.value_at(i))),
    }
}

/// One kernel-native operand of the AU expression kernel, over element
/// type `T`: a literal, or a dense column triple of an AU batch whose two
/// bound columns either *are* the `bg` buffer ([`Operand::Point`] — how a
/// scan stores a never-uncertain column, and how this kernel writes one) or
/// are buffers of their own ([`Operand::Ranged`], `lb ≤ bg ≤ ub` row by row
/// under `T`'s order). Dense typed columns hold no `NULL`, so no operand
/// is ever top or a definite NULL.
enum Operand<T> {
    Lit(T),
    Point(Arc<Vec<T>>),
    Ranged {
        lb: Arc<Vec<T>>,
        bg: Arc<Vec<T>>,
        ub: Arc<Vec<T>>,
    },
}

impl<T> Operand<T> {
    /// A stored triple: `Point` on buffer identity, never by comparing.
    fn stored(lb: &Arc<Vec<T>>, bg: &Arc<Vec<T>>, ub: &Arc<Vec<T>>) -> Operand<T> {
        if Arc::ptr_eq(lb, bg) && Arc::ptr_eq(ub, bg) {
            Operand::Point(Arc::clone(bg))
        } else {
            Operand::Ranged {
                lb: Arc::clone(lb),
                bg: Arc::clone(bg),
                ub: Arc::clone(ub),
            }
        }
    }

    /// Row `i` as `(lb, bg, ub)`.
    #[inline]
    fn at(&self, i: usize) -> (&T, &T, &T) {
        match self {
            Operand::Lit(v) => (v, v, v),
            Operand::Point(bg) => (&bg[i], &bg[i], &bg[i]),
            Operand::Ranged { lb, bg, ub } => (&lb[i], &bg[i], &ub[i]),
        }
    }

    /// The same operand over another element type.
    fn map<U>(&self, f: impl Fn(&T) -> U) -> Operand<U> {
        let col = |v: &Arc<Vec<T>>| Arc::new(v.iter().map(&f).collect::<Vec<U>>());
        match self {
            Operand::Lit(v) => Operand::Lit(f(v)),
            Operand::Point(bg) => Operand::Point(col(bg)),
            Operand::Ranged { lb, bg, ub } => Operand::Ranged {
                lb: col(lb),
                bg: col(bg),
                ub: col(ub),
            },
        }
    }

    /// As `len`-row columns; a literal broadcasts to a point.
    fn into_triple(self, len: usize, column: fn(Arc<Vec<T>>) -> ColumnVec) -> Triple
    where
        T: Clone,
    {
        match self {
            Operand::Lit(v) => Triple::Point(column(Arc::new(vec![v; len]))),
            Operand::Point(bg) => Triple::Point(column(bg)),
            Operand::Ranged { lb, bg, ub } => Triple::Ranged {
                lb: column(lb),
                bg: column(bg),
                ub: column(ub),
            },
        }
    }
}

/// A kernel-native operand with its element type.
enum Native {
    Int(Operand<i64>),
    Float(Operand<F64>),
    Str(Operand<Arc<str>>),
}

/// What [`eval_triple`] returns: the `[lb, bg, ub]` columns of an
/// expression over one AU batch.
pub enum Triple {
    /// Every row is the point `bg`: `lb = bg = ub`, one buffer.
    Point(ColumnVec),
    /// Three buffers, `lb ≤ bg ≤ ub` row by row.
    Ranged {
        /// The lower bounds.
        lb: ColumnVec,
        /// The selected guesses.
        bg: ColumnVec,
        /// The upper bounds.
        ub: ColumnVec,
    },
}

impl Triple {
    /// The columns in flattened-layout order `[bg, lb, ub]`. A point's
    /// bound columns are clones of its `bg` handle — the same buffer — so
    /// the pointer tests downstream (`point_mask`, `observe_width`,
    /// [`ColumnBatch::gather`]) stay O(1).
    pub fn into_columns(self) -> [ColumnVec; 3] {
        match self {
            Triple::Point(bg) => [bg.clone(), bg.clone(), bg],
            Triple::Ranged { lb, bg, ub } => [bg, lb, ub],
        }
    }
}

/// The two element types interval arithmetic is native for. `scalar` is
/// the scalar evaluator's operator (`Value::{add, sub, mul}`: wrapping
/// integers, IEEE floats canonicalised by [`F64::new`]); `endpoint` is the
/// same operator as `ua_ranges` computes a range *endpoint* with — checked
/// on integers, because a wrapped endpoint stops enclosing its worlds.
trait Num: Copy + Ord {
    fn scalar(op: ArithOp, a: Self, b: Self) -> Self;
    fn endpoint(op: ArithOp, a: Self, b: Self) -> Option<Self>;
}

impl Num for i64 {
    #[inline]
    fn scalar(op: ArithOp, a: i64, b: i64) -> i64 {
        match op {
            ArithOp::Add => a.wrapping_add(b),
            ArithOp::Sub => a.wrapping_sub(b),
            ArithOp::Mul => a.wrapping_mul(b),
            ArithOp::Div => unreachable!("division is not kernel-native"),
        }
    }

    #[inline]
    fn endpoint(op: ArithOp, a: i64, b: i64) -> Option<i64> {
        match op {
            ArithOp::Add => a.checked_add(b),
            ArithOp::Sub => a.checked_sub(b),
            ArithOp::Mul => a.checked_mul(b),
            ArithOp::Div => unreachable!("division is not kernel-native"),
        }
    }
}

impl Num for F64 {
    #[inline]
    fn scalar(op: ArithOp, a: F64, b: F64) -> F64 {
        let (a, b) = (a.get(), b.get());
        F64::new(match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => unreachable!("division is not kernel-native"),
        })
    }

    #[inline]
    fn endpoint(op: ArithOp, a: F64, b: F64) -> Option<F64> {
        Some(Self::scalar(op, a, b))
    }
}

/// `a op b` over two same-typed operands, `op ∈ {+, −, ×}` — per row
/// exactly `ua_ranges::{interval_add, interval_sub, interval_mul}`:
///
/// * `+`: `[a.lb + b.lb, a.ub + b.ub]`; `−`: `[a.lb − b.ub, a.ub − b.lb]`;
/// * `×`: the four corner products in `interval_mul`'s order
///   (`lb·lb, lb·ub, ub·lb, ub·ub`), folded with `min_bound` / `max_bound`'s
///   first-seen-wins ties;
/// * `bg` is the scalar operator on the two selected guesses, which is what
///   `approx_range` anchors on and — for these operators over these types —
///   what `Expr::eval` returns, so `reanchor` changes nothing;
/// * `RangeValue::new`'s normalisation `lb ⪯ bg ⪯ ub` is tested on every
///   row under `T`'s order (`Ord` on `i64`, [`F64`]'s total order — both
///   are `range_cmp` within one type, NaN and ±∞ included).
///
/// A row that fails the normalisation (the row evaluator widens it to top)
/// or whose integer endpoint overflows (likewise, or — between two point
/// rows — keeps the wrapped point) returns `None`: the batch is the row
/// evaluator's, and there is no second result.
///
/// **Point lemma.** If every row of both operands is a point, every row of
/// `a op b` is the point `bg`: each endpoint of `+` / `−` and each corner
/// of `×` is the scalar operator applied to the very values that produced
/// `bg`, so `lb = bg = ub` bit for bit (an `i64` overflow included: between
/// two points the row evaluator's endpoints wrap with `bg`), and
/// `lb ⪯ bg ⪯ ub` holds reflexively in a total order. So two point (or
/// literal) operands compute `bg` alone and return [`Operand::Point`]
/// without reading a bound. Division, `CASE`, `LEAST` and NULL-producing
/// arithmetic have no such lemma and are not native.
fn interval_arith<T: Num>(
    op: ArithOp,
    a: &Operand<T>,
    b: &Operand<T>,
    len: usize,
) -> Option<Operand<T>> {
    let ranged = |o: &Operand<T>| matches!(o, Operand::Ranged { .. });
    if let (Operand::Lit(x), Operand::Lit(y)) = (a, b) {
        return Some(Operand::Lit(T::scalar(op, *x, *y)));
    }
    if !ranged(a) && !ranged(b) {
        let bg = (0..len).map(|i| T::scalar(op, *a.at(i).1, *b.at(i).1));
        return Some(Operand::Point(Arc::new(bg.collect())));
    }
    let mut lbs = Vec::with_capacity(len);
    let mut bgs = Vec::with_capacity(len);
    let mut ubs = Vec::with_capacity(len);
    for i in 0..len {
        let ((al, ag, au), (bl, bg, bu)) = (a.at(i), b.at(i));
        let (lb, ub) = match op {
            ArithOp::Add => (T::endpoint(op, *al, *bl)?, T::endpoint(op, *au, *bu)?),
            ArithOp::Sub => (T::endpoint(op, *al, *bu)?, T::endpoint(op, *au, *bl)?),
            ArithOp::Mul => {
                let first = T::endpoint(op, *al, *bl)?;
                let (mut lo, mut hi) = (first, first);
                for (x, y) in [(al, bu), (au, bl), (au, bu)] {
                    let p = T::endpoint(op, *x, *y)?;
                    if lo > p {
                        lo = p;
                    }
                    if hi < p {
                        hi = p;
                    }
                }
                (lo, hi)
            }
            ArithOp::Div => return None,
        };
        let g = T::scalar(op, *ag, *bg);
        if lb > g || g > ub {
            return None;
        }
        lbs.push(lb);
        bgs.push(g);
        ubs.push(ub);
    }
    Some(Operand::Ranged {
        lb: Arc::new(lbs),
        bg: Arc::new(bgs),
        ub: Arc::new(ubs),
    })
}

/// Evaluate a (bound) expression to a kernel-native operand, or `None`:
/// a plain reference whose `[bg | lb | ub]` columns (at `c`, `n + c`,
/// `2n + c` of the flattened layout) are dense vectors of one of the three
/// native types, a literal of those types, or `+` / `−` / `×` over numeric
/// native operands, recursively — `Int ∘ Int` stays `Int`, anything else
/// promotes its integer side with `as f64`, as `Value::{add, sub, mul}` do.
fn eval_native(e: &Expr, batch: &ColumnBatch, n: usize) -> Option<Native> {
    use ColumnVec::*;
    match e {
        Expr::Col(c) if *c < n => {
            match (
                batch.column(n + c),
                batch.column(*c),
                batch.column(2 * n + c),
            ) {
                (Int(lb), Int(bg), Int(ub)) => Some(Native::Int(Operand::stored(lb, bg, ub))),
                (Float(lb), Float(bg), Float(ub)) => {
                    Some(Native::Float(Operand::stored(lb, bg, ub)))
                }
                (Str(lb), Str(bg), Str(ub)) => Some(Native::Str(Operand::stored(lb, bg, ub))),
                _ => None,
            }
        }
        Expr::Lit(Value::Int(v)) => Some(Native::Int(Operand::Lit(*v))),
        Expr::Lit(Value::Float(v)) => Some(Native::Float(Operand::Lit(*v))),
        Expr::Lit(Value::Str(v)) => Some(Native::Str(Operand::Lit(Arc::clone(v)))),
        Expr::Arith(op @ (ArithOp::Add | ArithOp::Sub | ArithOp::Mul), a, b) => {
            let promote = |o: &Operand<i64>| o.map(|&i| F64::new(i as f64));
            let len = batch.len();
            match (eval_native(a, batch, n)?, eval_native(b, batch, n)?) {
                (Native::Int(a), Native::Int(b)) => {
                    interval_arith(*op, &a, &b, len).map(Native::Int)
                }
                (Native::Float(a), Native::Float(b)) => {
                    interval_arith(*op, &a, &b, len).map(Native::Float)
                }
                (Native::Int(a), Native::Float(b)) => {
                    interval_arith(*op, &promote(&a), &b, len).map(Native::Float)
                }
                (Native::Float(a), Native::Int(b)) => {
                    interval_arith(*op, &a, &promote(&b), len).map(Native::Float)
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// The typed `[lb, bg, ub]` expression kernel of `⟦π⟧_AU` and of `⟦σ⟧_AU`'s
/// comparison operands: evaluate a (bound) expression over an AU batch's
/// triple columns (user arity `n`) into its three columns — row by row, and
/// column representation for column representation, what
/// `ua_ranges::eval_range` + `range_parts` produce — without assembling a
/// range. Native shapes are those of `eval_native`; the per-operator
/// bit-identity argument and the `Point` lemma are on `interval_arith`.
/// `None` for every other shape and for a batch in which some row, at some
/// nesting level, fails `lb ⪯ bg ⪯ ub` or overflows an integer endpoint:
/// the caller evaluates that batch per row.
pub fn eval_triple(expr: &Expr, batch: &ColumnBatch, n: usize) -> Option<Triple> {
    let len = batch.len();
    Some(match eval_native(expr, batch, n)? {
        Native::Int(o) => o.into_triple(len, ColumnVec::Int),
        Native::Float(o) => o.into_triple(len, ColumnVec::Float),
        Native::Str(o) => o.into_triple(len, ColumnVec::Str),
    })
}

/// `ua_ranges`' `cmp_possibilities` over two operand triples, row by row:
/// the possibly-true and possibly-false masks of `a op b` from the same
/// endpoint rules (`lt` possible iff `a.lb < b.ub`, `gt` iff `b.lb <
/// a.ub`, `eq` iff the intervals intersect, certain equality only between
/// two equal points). `cmp` is the domain order (`range_cmp`); `None` from
/// it — a NaN under the coercing Int/Float comparison — abandons the
/// kernel, because that row's truth is `ANY`.
fn possibility_masks<T: PartialEq, U: PartialEq>(
    op: CmpOp,
    len: usize,
    a: &Operand<T>,
    b: &Operand<U>,
    cmp: impl Fn(&T, &U) -> Option<Ordering>,
) -> Option<(Bitmap, Bitmap)> {
    let mut t = Bitmap::filled(len, false);
    let mut f = Bitmap::filled(len, false);
    for i in 0..len {
        let (al, ab, au) = a.at(i);
        let (bl, bb, bu) = b.at(i);
        let bg_ord = cmp(ab, bb)?;
        let low = cmp(al, bu)?;
        let high = cmp(au, bl)?;
        let lt = low == Ordering::Less;
        let gt = high == Ordering::Greater;
        let eq = low != Ordering::Greater && high != Ordering::Less;
        let (pt, pf) = match op {
            CmpOp::Lt => (lt, gt || eq),
            CmpOp::Le => (lt || eq, gt),
            CmpOp::Gt => (gt, lt || eq),
            CmpOp::Ge => (gt || eq, lt),
            CmpOp::Eq | CmpOp::Ne => {
                let points_equal =
                    bg_ord == Ordering::Equal && al == ab && ab == au && bl == bb && bb == bu;
                let ne = lt || gt || !points_equal;
                if op == CmpOp::Eq {
                    (eq, ne)
                } else {
                    (ne, eq)
                }
            }
        };
        if pt {
            t.set(i, true);
        }
        if pf {
            f.set(i, true);
        }
    }
    Some((t, f))
}

/// One comparison leaf of [`range_truth_masks`] over two operands out of
/// [`eval_native`] — a computed operand's range is never top (a batch with
/// a top row declines there), so it compares like a stored one.
fn range_cmp_masks(op: CmpOp, a: &Native, b: &Native, len: usize) -> Option<(Bitmap, Bitmap)> {
    use Native::*;
    match (a, b) {
        (Int(a), Int(b)) => possibility_masks(op, len, a, b, |x, y| Some(x.cmp(y))),
        (Float(a), Float(b)) => possibility_masks(op, len, a, b, |x, y| Some(x.cmp(y))),
        (Str(a), Str(b)) => possibility_masks(op, len, a, b, |x, y| Some(x.cmp(y))),
        (Int(a), Float(b)) => possibility_masks(op, len, a, b, |x, y| cmp_int_float(*x, y.get())),
        (Float(a), Int(b)) => possibility_masks(op, len, a, b, |x, y| {
            cmp_int_float(*y, x.get()).map(Ordering::reverse)
        }),
        _ => None,
    }
}

/// Whether row `i` of a stored `[lb, bg, ub]` triple is the encoded
/// definite NULL: a `NULL` selected guess between the two bound sentinels
/// `ua_ranges::range_parts` writes for one.
pub(crate) fn is_definite_null(lb: &ColumnVec, bg: &ColumnVec, ub: &ColumnVec, i: usize) -> bool {
    if !matches!(bg, ColumnVec::Mixed(b) if b[i] == Value::Null) {
        return false;
    }
    let (sentinel, _, _) = range_parts(&RangeValue::null());
    lb.value(i) == sentinel && ub.value(i) == sentinel
}

/// `truth_range`'s `IS NULL` rule over one stored triple, row by row: a
/// definite NULL is NULL in every world (`(1, 0)`), a top range may or may
/// not ground to NULL (`(1, 1)`), and any other range never does
/// (`(0, 1)`). A stream's triples are canonical, so a top range is an
/// unknown `bg` or two unknown (`∓∞`) bounds; three dense typed columns hold
/// no unknown at all, and are `(0, 1)` on every row.
fn is_null_masks(lb: &ColumnVec, bg: &ColumnVec, ub: &ColumnVec) -> (Bitmap, Bitmap) {
    let len = bg.len();
    let mut t = Bitmap::filled(len, false);
    let mut f = Bitmap::filled(len, true);
    let unknown =
        |col: &ColumnVec, i: usize| matches!(col, ColumnVec::Mixed(v) if v[i].is_unknown());
    if [lb, bg, ub]
        .iter()
        .any(|c| matches!(c, ColumnVec::Mixed(_)))
    {
        for i in 0..len {
            if is_definite_null(lb, bg, ub, i) {
                t.set(i, true);
                f.set(i, false);
            } else if unknown(bg, i) || (unknown(lb, i) && unknown(ub, i)) {
                t.set(i, true);
            }
        }
    }
    (t, f)
}

/// The typed three-valued kernel of `⟦σ⟧_AU`: evaluate a (bound) predicate
/// over an AU batch's `[bg | lb | ub]` triple columns (user arity `n`)
/// into `(possibly true, possibly false)` bitmaps — bit for bit
/// `ua_ranges::truth_range`'s `t` and `f` flags per row — without
/// assembling a range. Native shapes are `AND`/`OR`/`NOT` over
/// comparisons, `BETWEEN` and literal `IN` lists whose operands are
/// kernel-native ([`eval_triple`]'s shapes: references to dense same-typed
/// `Int`/`Float`/`Str` triples, known literals of those types, `+`/`−`/`×`
/// over the numeric ones), and `IS NULL` over a stored column of any
/// representation (`is_null_masks`). No leaf is ever *unknown* — such
/// operands are never top, and `IS NULL` is never unknown — so the Kleene
/// connectives lift to word-wide bitmap ops; a row is certainly true iff
/// it is possibly true and not possibly false. `None` for every other
/// shape (and for a NaN met by a coercing Int/Float comparison): the
/// caller takes the per-row `truth_range` path.
pub fn range_truth_masks(expr: &Expr, batch: &ColumnBatch, n: usize) -> Option<(Bitmap, Bitmap)> {
    let len = batch.len();
    // Each operand evaluates once, however many leaves compare it.
    let operand = |e: &Expr| eval_native(e, batch, n);
    match expr {
        Expr::Cmp(op, a, b) => range_cmp_masks(*op, &operand(a)?, &operand(b)?, len),
        Expr::And(a, b) => {
            let (mut t, mut f) = range_truth_masks(a, batch, n)?;
            let (tb, fb) = range_truth_masks(b, batch, n)?;
            t.and_assign(&tb);
            f.or_assign(&fb);
            Some((t, f))
        }
        Expr::Or(a, b) => {
            let (mut t, mut f) = range_truth_masks(a, batch, n)?;
            let (tb, fb) = range_truth_masks(b, batch, n)?;
            t.or_assign(&tb);
            f.and_assign(&fb);
            Some((t, f))
        }
        Expr::Not(a) => range_truth_masks(a, batch, n).map(|(t, f)| (f, t)),
        Expr::IsNull(a) => match **a {
            Expr::Col(c) if c < n => Some(is_null_masks(
                batch.column(n + c),
                batch.column(c),
                batch.column(2 * n + c),
            )),
            _ => None,
        },
        Expr::Between(e, lo, hi) => {
            let e = operand(e)?;
            let (mut t, mut f) = range_cmp_masks(CmpOp::Ge, &e, &operand(lo)?, len)?;
            let (tb, fb) = range_cmp_masks(CmpOp::Le, &e, &operand(hi)?, len)?;
            t.and_assign(&tb);
            f.or_assign(&fb);
            Some((t, f))
        }
        // An empty list is certainly false whatever its operand is.
        Expr::InList(_, list) if list.is_empty() => {
            Some((Bitmap::filled(len, false), Bitmap::filled(len, true)))
        }
        Expr::InList(e, list) => {
            let e = operand(e)?;
            let mut t = Bitmap::filled(len, false);
            let mut f = Bitmap::filled(len, true);
            for item in list {
                let (ti, fi) = range_cmp_masks(CmpOp::Eq, &e, &operand(item)?, len)?;
                t.or_assign(&ti);
                f.and_assign(&fi);
            }
            Some((t, f))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::batches_from_table;
    use ua_data::schema::Schema;
    use ua_data::tuple;
    use ua_data::tuple::Tuple;
    use ua_data::value::VarId;
    use ua_plan::Table;

    fn batch(rows: Vec<Tuple>, cols: &[&str]) -> ColumnBatch {
        let t = Table::from_rows(Schema::qualified("t", cols.iter().copied()), rows);
        batches_from_table(&t, 4096)
            .batches
            .into_iter()
            .next()
            .unwrap()
    }

    fn bind(e: Expr, cols: &[&str]) -> Expr {
        e.bind(&Schema::qualified("t", cols.iter().copied()))
            .unwrap()
    }

    /// Exhaustive agreement with the scalar evaluator over a batch.
    fn assert_matches_scalar(expr: &Expr, b: &ColumnBatch) {
        let (t, f) = truth_masks(expr, b).unwrap();
        for i in 0..b.len() {
            let scalar = expr.eval_truth(&b.row(i)).unwrap();
            let vec = if t.get(i) {
                Truth::True
            } else if f.get(i) {
                Truth::False
            } else {
                Truth::Unknown
            };
            assert_eq!(scalar, vec, "row {i} of {expr}");
        }
    }

    #[test]
    fn typed_int_comparison() {
        let b = batch((0..100i64).map(|i| tuple![i, i % 7]).collect(), &["a", "b"]);
        for op_expr in [
            bind(Expr::named("a").lt(Expr::lit(50i64)), &["a", "b"]),
            bind(Expr::named("a").eq(Expr::named("b")), &["a", "b"]),
            bind(Expr::named("a").ge(Expr::lit(99i64)), &["a", "b"]),
        ] {
            assert_matches_scalar(&op_expr, &b);
        }
    }

    #[test]
    fn string_and_promotion_comparisons() {
        let b = batch(
            (0..40i64)
                .map(|i| tuple![format!("k{}", i % 5), i])
                .collect(),
            &["s", "n"],
        );
        assert_matches_scalar(&bind(Expr::named("s").eq(Expr::lit("k3")), &["s", "n"]), &b);
        // Int column vs float literal exercises the promotion fallback.
        assert_matches_scalar(&bind(Expr::named("n").lt(Expr::lit(19.5)), &["s", "n"]), &b);
    }

    #[test]
    fn three_valued_logic_with_nulls_and_vars() {
        let rows = vec![
            tuple![1i64, 1i64],
            Tuple::new(vec![Value::Null, Value::Int(2)]),
            Tuple::new(vec![Value::Var(VarId(3)), Value::Int(3)]),
            tuple![4i64, 0i64],
        ];
        let b = batch(rows, &["a", "b"]);
        let exprs = [
            bind(Expr::named("a").eq(Expr::lit(1i64)), &["a", "b"]),
            bind(
                Expr::named("a")
                    .eq(Expr::lit(1i64))
                    .or(Expr::named("b").gt(Expr::lit(1i64))),
                &["a", "b"],
            ),
            bind(Expr::named("a").eq(Expr::lit(1i64)).not(), &["a", "b"]),
            bind(Expr::IsNull(Box::new(Expr::named("a"))), &["a", "b"]),
            bind(
                Expr::named("a").between(Expr::lit(1i64), Expr::lit(3i64)),
                &["a", "b"],
            ),
            bind(
                Expr::InList(
                    Box::new(Expr::named("a")),
                    vec![Expr::lit(1i64), Expr::Lit(Value::Null)],
                ),
                &["a", "b"],
            ),
        ];
        for e in &exprs {
            assert_matches_scalar(e, &b);
        }
    }

    #[test]
    fn var_self_equality_is_certain() {
        let x = Value::Var(VarId(7));
        let rows = vec![Tuple::new(vec![x.clone(), x])];
        let b = batch(rows, &["a", "b"]);
        let e = bind(Expr::named("a").eq(Expr::named("b")), &["a", "b"]);
        let (t, _) = truth_masks(&e, &b).unwrap();
        assert!(t.get(0), "x = x must be certainly true");
    }

    #[test]
    fn typed_arithmetic_kernels_match_scalar_semantics() {
        // Int columns (wrapping, div-by-zero → NULL), float promotion,
        // mixed columns with NULLs and variables: every shape must agree
        // with `Expr::eval` row by row — and the dense shapes must stay in
        // typed columns.
        let int_rows: Vec<Tuple> = (0..64i64)
            .map(|i| tuple![i - 32, (i % 5) - 2, i as f64 / 4.0])
            .collect();
        let b = batch(int_rows, &["a", "b", "f"]);
        let cols = &["a", "b", "f"];
        let cases = [
            bind(Expr::named("a").add(Expr::named("b")), cols),
            bind(Expr::named("a").sub(Expr::lit(7i64)), cols),
            bind(Expr::named("a").mul(Expr::named("b")), cols),
            bind(
                Expr::Arith(
                    ua_data::expr::ArithOp::Div,
                    Box::new(Expr::named("a")),
                    Box::new(Expr::named("b")),
                ),
                cols,
            ),
            bind(Expr::named("f").add(Expr::named("a")), cols),
            bind(Expr::named("f").mul(Expr::lit(2.5)), cols),
            bind(
                Expr::Arith(
                    ua_data::expr::ArithOp::Div,
                    Box::new(Expr::named("a")),
                    Box::new(Expr::named("f")),
                ),
                cols,
            ),
            bind(Expr::lit(i64::MAX).add(Expr::named("a")), cols),
        ];
        for e in &cases {
            let col = eval_expr(e, &b).unwrap().into_column(b.len());
            for i in 0..b.len() {
                assert_eq!(col.value(i), e.eval(&b.row(i)).unwrap(), "row {i} of {e}");
            }
        }
        // Dense typing: Int±Int stays Int; Float mixes stay Float.
        let int_col = eval_expr(&cases[0], &b).unwrap().into_column(b.len());
        assert!(matches!(int_col, ColumnVec::Int(_)));
        let float_col = eval_expr(&cases[4], &b).unwrap().into_column(b.len());
        assert!(matches!(float_col, ColumnVec::Float(_)));

        // Mixed column with NULL/variable operands.
        let rows = vec![
            tuple![1i64, 4i64],
            Tuple::new(vec![Value::Null, Value::Int(2)]),
            Tuple::new(vec![Value::Var(VarId(1)), Value::Int(3)]),
        ];
        let bm = batch(rows, &["a", "b"]);
        let e = bind(Expr::named("a").add(Expr::named("b")), &["a", "b"]);
        let col = eval_expr(&e, &bm).unwrap().into_column(bm.len());
        for i in 0..bm.len() {
            assert_eq!(col.value(i), e.eval(&bm.row(i)).unwrap());
        }
        // A type error surfaces with the scalar evaluator's message.
        let bad_rows = vec![tuple!["x", 1i64]];
        let bb = batch(bad_rows, &["s", "n"]);
        let bad = bind(Expr::named("s").add(Expr::named("n")), &["s", "n"]);
        let kernel_err = match eval_expr(&bad, &bb) {
            Err(e) => format!("{e}"),
            Ok(_) => panic!("string + int must be a type error"),
        };
        let scalar_err = format!("{}", EngineError::Expr(bad.eval(&bb.row(0)).unwrap_err()));
        assert_eq!(kernel_err, scalar_err);
    }

    #[test]
    fn scalar_eval_matches_row_engine() {
        let b = batch((0..50i64).map(|i| tuple![i, i * 3]).collect(), &["a", "b"]);
        let e = bind(
            Expr::named("a").add(Expr::named("b")).mul(Expr::lit(2i64)),
            &["a", "b"],
        );
        let col = eval_expr(&e, &b).unwrap().into_column(b.len());
        for i in 0..b.len() {
            assert_eq!(col.value(i), e.eval(&b.row(i)).unwrap());
        }
        // CASE goes through the row fallback.
        let case = bind(
            Expr::Case {
                branches: vec![(Expr::named("a").lt(Expr::lit(10i64)), Expr::lit("small"))],
                otherwise: Some(Box::new(Expr::lit("big"))),
            },
            &["a", "b"],
        );
        let col = eval_expr(&case, &b).unwrap().into_column(b.len());
        for i in 0..b.len() {
            assert_eq!(col.value(i), case.eval(&b.row(i)).unwrap());
        }
    }
}
