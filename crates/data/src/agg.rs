//! SQL aggregate functions and their one running fold.
//!
//! [`AggState`] is the single definition of SQL aggregate arithmetic in
//! the workspace: both engines feed it one row at a time (`mult = 1`),
//! and the AU aggregation its selected-guess members weighted by their
//! selected-guess multiplicity — so the selected guess of an AU aggregate
//! is deterministic aggregation over the selected-guess world by
//! construction, not by replica.

use crate::value::{Value, F64};
use std::fmt;

/// An aggregate function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggFunc {
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

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Count => "count",
            AggFunc::CountStar => "count(*)",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        })
    }
}

/// A count as an SQL integer: past `i64::MAX` it saturates there.
pub fn count_value(n: u64) -> Value {
    Value::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

/// Running state of one aggregate.
pub enum AggState {
    /// `COUNT(*)` / `COUNT(expr)` running count (saturating).
    Count(u64),
    /// `SUM(expr)` running total (int/float typing tracked).
    Sum {
        /// Accumulated total.
        total: f64,
        /// Whether only integer inputs were seen (result stays `Int`).
        saw_int_only: bool,
        /// Whether any numeric input was seen (`NULL` otherwise).
        any: bool,
    },
    /// `MIN`/`MAX` best-so-far.
    MinMax {
        /// Current best value.
        best: Option<Value>,
        /// `true` for `MIN`, `false` for `MAX`.
        is_min: bool,
    },
    /// `AVG(expr)` running total and count.
    Avg {
        /// Accumulated total.
        total: f64,
        /// Number of numeric inputs, exact for any sum of `u64`
        /// multiplicities.
        n: u128,
    },
}

impl AggState {
    /// Fresh state for `func`.
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count | AggFunc::CountStar => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                total: 0.0,
                saw_int_only: true,
                any: false,
            },
            AggFunc::Min => AggState::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => AggState::MinMax {
                best: None,
                is_min: false,
            },
            AggFunc::Avg => AggState::Avg { total: 0.0, n: 0 },
        }
    }

    /// Fold in `value` standing for `mult` duplicate rows (`None` = the
    /// `COUNT(*)` row marker).
    #[inline]
    pub fn update(&mut self, value: Option<&Value>, mult: u64) {
        match self {
            AggState::Count(n) => {
                // COUNT(*) passes None; COUNT(e) skips unknowns.
                match value {
                    None => *n = n.saturating_add(mult),
                    Some(v) if !v.is_unknown() => *n = n.saturating_add(mult),
                    _ => {}
                }
            }
            AggState::Sum {
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
            AggState::MinMax { best, is_min } => {
                if let Some(v) = value {
                    if v.is_unknown() {
                        return;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => matches!(
                            (v.sql_cmp(b), *is_min),
                            (Some(std::cmp::Ordering::Less), true)
                                | (Some(std::cmp::Ordering::Greater), false)
                        ),
                    };
                    if better {
                        *best = Some(v.clone());
                    }
                }
            }
            AggState::Avg { total, n } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *total += x * mult as f64;
                        *n += u128::from(mult);
                    }
                }
            }
        }
    }

    /// The final aggregate value.
    pub fn finish(self) -> Value {
        match self {
            AggState::Count(n) => count_value(n),
            AggState::Sum {
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
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AggState::Avg { total, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(F64::new(total / n as f64))
                }
            }
        }
    }
}
