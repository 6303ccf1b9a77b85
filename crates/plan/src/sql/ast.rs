//! SQL abstract syntax.
//!
//! The dialect covers what the paper's evaluation needs: select-project-join
//! queries with expressions, `UNION ALL`, `DISTINCT`, grouping/aggregation,
//! ordering and limits — plus the paper's **source-annotation clauses**
//! (Section 9.2) that declare a relation to be a TI-DB, an x-relation or a
//! C-table so the frontend can label it and extract its best-guess world:
//!
//! ```sql
//! SELECT * FROM R IS TI WITH PROBABILITY (p)
//! SELECT * FROM R IS X WITH XID (tid) ALTID (aid) PROBABILITY (p)
//! SELECT * FROM R IS CTABLE WITH VARIABLES (v1, v2) LOCAL CONDITION (lc)
//! ```

use crate::plan::SortOrder;
use std::fmt;

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
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
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A SQL scalar expression.
#[derive(Clone, PartialEq, Debug)]
pub enum SqlExpr {
    /// Column reference (`name` or `qualifier.name`).
    Column(String),
    /// `*` (select list / `COUNT(*)` only).
    Star,
    /// `qualifier.*` (select list only).
    QualifiedStar(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `NULL`.
    Null,
    /// Binary operation.
    Binary(BinOp, Box<SqlExpr>, Box<SqlExpr>),
    /// `NOT expr`.
    Not(Box<SqlExpr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<SqlExpr>,
        /// Whether `NOT` was present.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Operand.
        expr: Box<SqlExpr>,
        /// Lower bound.
        low: Box<SqlExpr>,
        /// Upper bound.
        high: Box<SqlExpr>,
        /// Whether `NOT` was present.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, ..., vn)`.
    InList {
        /// Operand.
        expr: Box<SqlExpr>,
        /// List items.
        list: Vec<SqlExpr>,
        /// Whether `NOT` was present.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)` — an uncorrelated subquery membership
    /// test, lowered by the planner to an (anti-)join shape.
    InSubquery {
        /// Operand.
        expr: Box<SqlExpr>,
        /// The subquery (must produce exactly one column).
        query: Box<Query>,
        /// Whether `NOT` was present.
        negated: bool,
    },
    /// `EXISTS (SELECT ...)` — an uncorrelated subquery emptiness test.
    /// `NOT EXISTS` arrives as [`SqlExpr::Not`] around this.
    Exists(Box<Query>),
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        /// The simple-`CASE` operand, when present.
        operand: Option<Box<SqlExpr>>,
        /// `(when, then)` branches.
        branches: Vec<(SqlExpr, SqlExpr)>,
        /// The `ELSE` result.
        otherwise: Option<Box<SqlExpr>>,
    },
    /// Function call (aggregates and scalars, resolved by the planner).
    Func {
        /// Lower-cased function name.
        name: String,
        /// Arguments (`COUNT(*)` encodes as a single [`SqlExpr::Star`] arg).
        args: Vec<SqlExpr>,
    },
}

impl SqlExpr {
    /// Whether this expression contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            SqlExpr::Func { name, args } => {
                is_aggregate_name(name) || args.iter().any(SqlExpr::contains_aggregate)
            }
            SqlExpr::Binary(_, a, b) => a.contains_aggregate() || b.contains_aggregate(),
            SqlExpr::Not(a) => a.contains_aggregate(),
            SqlExpr::IsNull { expr, .. } => expr.contains_aggregate(),
            SqlExpr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            SqlExpr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(SqlExpr::contains_aggregate)
            }
            // A subquery is its own aggregation context; only the outer
            // operand counts here.
            SqlExpr::InSubquery { expr, .. } => expr.contains_aggregate(),
            SqlExpr::Exists(_) => false,
            SqlExpr::Case {
                operand,
                branches,
                otherwise,
            } => {
                operand.as_deref().is_some_and(SqlExpr::contains_aggregate)
                    || branches
                        .iter()
                        .any(|(w, t)| w.contains_aggregate() || t.contains_aggregate())
                    || otherwise
                        .as_deref()
                        .is_some_and(SqlExpr::contains_aggregate)
            }
            _ => false,
        }
    }
}

/// Whether a function name denotes an aggregate.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "count" | "sum" | "min" | "max" | "avg" | "conf")
}

/// One select-list item.
#[derive(Clone, PartialEq, Debug)]
pub struct SelectItem {
    /// The expression.
    pub expr: SqlExpr,
    /// `AS alias`, when given.
    pub alias: Option<String>,
}

/// The paper's source-annotation clauses (Section 9.2).
#[derive(Clone, PartialEq, Debug)]
pub enum SourceAnnotation {
    /// `IS TI WITH PROBABILITY (p)`.
    Ti {
        /// Column storing the marginal probability.
        probability: String,
    },
    /// `IS X WITH XID (x) ALTID (a) PROBABILITY (p)`.
    X {
        /// Column storing the x-tuple identifier.
        xid: String,
        /// Column storing the alternative identifier.
        altid: String,
        /// Column storing the alternative probability.
        probability: String,
    },
    /// `IS CTABLE WITH VARIABLES (v1, ...) LOCAL CONDITION (lc)`.
    CTable {
        /// Columns storing variable bindings (NULL = the attribute is the
        /// constant stored in the corresponding data column).
        variables: Vec<String>,
        /// Column storing the textual local condition.
        condition: String,
    },
}

/// A table reference in `FROM`.
#[derive(Clone, PartialEq, Debug)]
pub enum TableRef {
    /// A named table, optionally aliased and/or source-annotated.
    Named {
        /// Table name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
        /// Optional source annotation.
        annotation: Option<SourceAnnotation>,
    },
    /// A parenthesized subquery with mandatory alias.
    Subquery {
        /// The subquery.
        query: Box<Query>,
        /// Its alias.
        alias: String,
    },
}

/// The flavor of an explicit `JOIN` clause.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JoinKind {
    /// `[INNER] JOIN ... ON` and `CROSS JOIN`.
    Inner,
    /// `LEFT [OUTER] JOIN ... ON`.
    Left,
    /// `RIGHT [OUTER] JOIN ... ON`.
    Right,
}

/// One `JOIN ... ON ...` clause attached to the preceding `FROM` item.
#[derive(Clone, PartialEq, Debug)]
pub struct JoinClause {
    /// The joined table.
    pub table: TableRef,
    /// The `ON` predicate (`None` for `CROSS JOIN`).
    pub on: Option<SqlExpr>,
    /// Inner, left outer, or right outer.
    pub kind: JoinKind,
}

/// A single `SELECT` block.
#[derive(Clone, PartialEq, Debug)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Select list.
    pub items: Vec<SelectItem>,
    /// Comma-separated `FROM` items.
    pub from: Vec<(TableRef, Vec<JoinClause>)>,
    /// `WHERE` predicate.
    pub where_clause: Option<SqlExpr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<SqlExpr>,
}

/// A set-operation connector between adjacent `SELECT` blocks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SetOp {
    /// `UNION ALL`.
    UnionAll,
    /// `EXCEPT` (set semantics).
    Except,
    /// `EXCEPT ALL` (bag monus).
    ExceptAll,
}

/// A full query: `SELECT` blocks combined with `UNION ALL` / `EXCEPT
/// [ALL]`, plus ordering and limit.
#[derive(Clone, PartialEq, Debug)]
pub struct Query {
    /// The `SELECT` blocks (at least one).
    pub selects: Vec<SelectStmt>,
    /// Connectors between adjacent blocks, left-associative:
    /// `set_ops[i]` combines the result so far with `selects[i + 1]`, so
    /// `set_ops.len() == selects.len() - 1`.
    pub set_ops: Vec<SetOp>,
    /// `ORDER BY` keys.
    pub order_by: Vec<(SqlExpr, SortOrder)>,
    /// `LIMIT`.
    pub limit: Option<usize>,
}

impl fmt::Display for SqlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlExpr::Column(c) => write!(f, "{c}"),
            SqlExpr::Star => write!(f, "*"),
            SqlExpr::QualifiedStar(q) => write!(f, "{q}.*"),
            SqlExpr::Int(i) => write!(f, "{i}"),
            SqlExpr::Float(x) => write!(f, "{x}"),
            SqlExpr::Str(s) => write!(f, "'{s}'"),
            SqlExpr::Bool(b) => write!(f, "{b}"),
            SqlExpr::Null => write!(f, "NULL"),
            SqlExpr::Binary(op, a, b) => {
                let sym = match op {
                    BinOp::Eq => "=",
                    BinOp::Ne => "<>",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::And => "AND",
                    BinOp::Or => "OR",
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                };
                write!(f, "({a} {sym} {b})")
            }
            SqlExpr::Not(a) => write!(f, "(NOT {a})"),
            SqlExpr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            SqlExpr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            SqlExpr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, item) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "))")
            }
            SqlExpr::InSubquery { expr, negated, .. } => {
                write!(
                    f,
                    "({expr} {}IN (<subquery>))",
                    if *negated { "NOT " } else { "" }
                )
            }
            SqlExpr::Exists(_) => write!(f, "EXISTS (<subquery>)"),
            SqlExpr::Case {
                operand,
                branches,
                otherwise,
            } => {
                write!(f, "CASE")?;
                if let Some(o) = operand {
                    write!(f, " {o}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = otherwise {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            SqlExpr::Func { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}
