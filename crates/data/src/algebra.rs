//! The positive relational algebra `RA⁺` over K-relations.
//!
//! Operators follow Green et al. (paper Section 2.3):
//!
//! * union:      `[R₁ ∪ R₂](t) = R₁(t) ⊕ R₂(t)`
//! * join:       `[R₁ ⋈ R₂](t) = R₁(π_{R₁} t) ⊗ R₂(π_{R₂} t)`
//! * projection: `[π_U R](t)   = Σ_{t = t'[U]} R(t')`
//! * selection:  `[σ_θ R](t)   = R(t) ⊗ θ(t)` with `θ(t) ∈ {0_K, 1_K}`
//!
//! The same evaluator therefore serves every annotation domain in the
//! workspace: `𝔹`, `ℕ`, `K^W` (possible-world semantics), `K²` (UA-DBs), the
//! access-control semiring, and the condition/lineage semiring. That single
//! code path is what makes "queries commute with homomorphisms" hold *by
//! construction* in this implementation.
//!
//! Predicates use two-valued semantics (`Unknown ⇒ 0_K`); three-valued
//! treatment of nulls lives in the engine/baseline layers where SQL
//! semantics are required.

use crate::expr::{CmpOp, Expr, ExprError};
use crate::hash::FxHashMap;
use crate::relation::{Database, Relation};
use crate::schema::{Schema, SchemaError};
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use ua_semiring::Semiring;

/// One output column of a (generalized) projection.
#[derive(Clone, PartialEq, Debug)]
pub struct ProjColumn {
    /// The expression computing the column value.
    pub expr: Expr,
    /// The output column (name + optional qualifier).
    pub column: crate::schema::Column,
}

impl ProjColumn {
    /// Project an existing column under its own (unqualified) name.
    pub fn named(name: impl Into<String>) -> ProjColumn {
        let name = name.into();
        let out = name.rsplit('.').next().unwrap_or(&name).to_string();
        ProjColumn {
            expr: Expr::named(name.clone()),
            column: crate::schema::Column::unqualified(out),
        }
    }

    /// Project a computed expression as `name`.
    pub fn expr(expr: Expr, name: impl Into<String>) -> ProjColumn {
        ProjColumn {
            expr,
            column: crate::schema::Column::unqualified(name.into()),
        }
    }

    /// Project a computed expression under an explicit (possibly qualified)
    /// output column.
    pub fn with_column(expr: Expr, column: crate::schema::Column) -> ProjColumn {
        ProjColumn { expr, column }
    }

    /// The output column's (unqualified) name.
    pub fn name(&self) -> &str {
        &self.column.name
    }
}

/// An `RA⁺` query.
#[derive(Clone, PartialEq, Debug)]
pub enum RaExpr {
    /// Scan a named relation.
    Table(String),
    /// Re-qualify the input's columns under a new name.
    Alias {
        /// Input query.
        input: Box<RaExpr>,
        /// New qualifier.
        name: String,
    },
    /// Selection `σ_θ`.
    Select {
        /// Input query.
        input: Box<RaExpr>,
        /// The predicate `θ`.
        predicate: Expr,
    },
    /// Generalized projection `π`.
    Project {
        /// Input query.
        input: Box<RaExpr>,
        /// Output columns.
        columns: Vec<ProjColumn>,
    },
    /// θ-join (cross product when `predicate` is `None`).
    Join {
        /// Left input.
        left: Box<RaExpr>,
        /// Right input.
        right: Box<RaExpr>,
        /// Join predicate (`None` = cross product).
        predicate: Option<Expr>,
    },
    /// Bag/set union (`UNION ALL` — annotations add).
    Union {
        /// Left input.
        left: Box<RaExpr>,
        /// Right input.
        right: Box<RaExpr>,
    },
}

impl RaExpr {
    /// Scan `name`.
    pub fn table(name: impl Into<String>) -> RaExpr {
        RaExpr::Table(name.into())
    }

    /// `σ_pred(self)`.
    pub fn select(self, predicate: Expr) -> RaExpr {
        RaExpr::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// `π_cols(self)` with plain column references.
    pub fn project<S: Into<String>>(self, cols: impl IntoIterator<Item = S>) -> RaExpr {
        RaExpr::Project {
            input: Box::new(self),
            columns: cols
                .into_iter()
                .map(|c| ProjColumn::named(c.into()))
                .collect(),
        }
    }

    /// `π` with explicit output columns.
    pub fn project_cols(self, columns: Vec<ProjColumn>) -> RaExpr {
        RaExpr::Project {
            input: Box::new(self),
            columns,
        }
    }

    /// θ-join with `other`.
    pub fn join(self, other: RaExpr, predicate: Expr) -> RaExpr {
        RaExpr::Join {
            left: Box::new(self),
            right: Box::new(other),
            predicate: Some(predicate),
        }
    }

    /// Cross product with `other`.
    pub fn cross(self, other: RaExpr) -> RaExpr {
        RaExpr::Join {
            left: Box::new(self),
            right: Box::new(other),
            predicate: None,
        }
    }

    /// Union with `other`.
    pub fn union(self, other: RaExpr) -> RaExpr {
        RaExpr::Union {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Alias as `name` (re-qualifies all columns).
    pub fn alias(self, name: impl Into<String>) -> RaExpr {
        RaExpr::Alias {
            input: Box::new(self),
            name: name.into(),
        }
    }

    /// The names of all base tables this query scans.
    pub fn base_tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a RaExpr, out: &mut Vec<&'a str>) {
            match e {
                RaExpr::Table(name) => out.push(name),
                RaExpr::Alias { input, .. }
                | RaExpr::Select { input, .. }
                | RaExpr::Project { input, .. } => walk(input, out),
                RaExpr::Join { left, right, .. } | RaExpr::Union { left, right } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        walk(self, &mut out);
        out
    }

    /// Number of operators (σ/π/⋈/∪) in the query — the "complexity" axis of
    /// the paper's Figure 10.
    pub fn operator_count(&self) -> usize {
        match self {
            RaExpr::Table(_) => 0,
            RaExpr::Alias { input, .. } => input.operator_count(),
            RaExpr::Select { input, .. } | RaExpr::Project { input, .. } => {
                1 + input.operator_count()
            }
            RaExpr::Join { left, right, .. } | RaExpr::Union { left, right } => {
                1 + left.operator_count() + right.operator_count()
            }
        }
    }

    /// The output schema of this query against a table-schema lookup.
    pub fn schema_with(&self, lookup: &dyn Fn(&str) -> Option<Schema>) -> Result<Schema, RaError> {
        match self {
            RaExpr::Table(name) => lookup(name).ok_or_else(|| RaError::UnknownTable(name.clone())),
            RaExpr::Alias { input, name } => Ok(input.schema_with(lookup)?.with_qualifier(name)),
            RaExpr::Select { input, .. } => input.schema_with(lookup),
            RaExpr::Project { columns, .. } => Ok(Schema::new(
                columns.iter().map(|c| c.column.clone()).collect(),
            )),
            RaExpr::Join { left, right, .. } => Ok(left
                .schema_with(lookup)?
                .concat(&right.schema_with(lookup)?)),
            RaExpr::Union { left, right } => {
                let l = left.schema_with(lookup)?;
                let r = right.schema_with(lookup)?;
                l.check_union_compatible(&r)?;
                Ok(l)
            }
        }
    }

    /// The output schema of this query in `db`.
    pub fn schema_in<K: Semiring>(&self, db: &Database<K>) -> Result<Schema, RaError> {
        self.schema_with(&|name| db.get(name).map(|r| r.schema().clone()))
    }
}

impl fmt::Display for RaExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaExpr::Table(name) => write!(f, "{name}"),
            RaExpr::Alias { input, name } => write!(f, "ρ_{name}({input})"),
            RaExpr::Select { input, predicate } => write!(f, "σ[{predicate}]({input})"),
            RaExpr::Project { input, columns } => {
                write!(f, "π[")?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}→{}", c.expr, c.column)?;
                }
                write!(f, "]({input})")
            }
            RaExpr::Join {
                left,
                right,
                predicate: Some(p),
            } => write!(f, "({left} ⋈[{p}] {right})"),
            RaExpr::Join {
                left,
                right,
                predicate: None,
            } => write!(f, "({left} × {right})"),
            RaExpr::Union { left, right } => write!(f, "({left} ∪ {right})"),
        }
    }
}

/// Errors raised while evaluating `RA⁺`.
#[derive(Clone, PartialEq, Debug)]
pub enum RaError {
    /// A scanned table does not exist.
    UnknownTable(String),
    /// Schema resolution failed.
    Schema(SchemaError),
    /// Expression binding or evaluation failed.
    Expr(ExprError),
}

impl fmt::Display for RaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            RaError::Schema(e) => write!(f, "{e}"),
            RaError::Expr(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RaError {}

impl From<SchemaError> for RaError {
    fn from(e: SchemaError) -> Self {
        RaError::Schema(e)
    }
}

impl From<ExprError> for RaError {
    fn from(e: ExprError) -> Self {
        RaError::Expr(e)
    }
}

/// Evaluate `query` over `db` with K-relational semantics.
pub fn eval<K: Semiring>(query: &RaExpr, db: &Database<K>) -> Result<Relation<K>, RaError> {
    match query {
        RaExpr::Table(name) => db
            .get(name)
            .cloned()
            .ok_or_else(|| RaError::UnknownTable(name.clone())),
        RaExpr::Alias { input, name } => {
            let rel = eval(input, db)?;
            let schema = rel.schema().with_qualifier(name);
            Ok(rel.with_schema(schema))
        }
        RaExpr::Select { input, predicate } => {
            let rel = eval(input, db)?;
            let bound = predicate.bind(rel.schema())?;
            let mut out = Relation::new(rel.schema().clone());
            for (t, k) in rel.iter() {
                // [σ_θ R](t) = R(t) ⊗ θ(t); θ(t) ∈ {0,1} so only keep matches.
                if bound.holds(t)? {
                    out.insert(t.clone(), k.clone());
                }
            }
            Ok(out)
        }
        RaExpr::Project { input, columns } => {
            let rel = eval(input, db)?;
            let bound: Vec<Expr> = columns
                .iter()
                .map(|c| c.expr.bind(rel.schema()))
                .collect::<Result<_, _>>()?;
            let schema = Schema::new(columns.iter().map(|c| c.column.clone()).collect());
            let mut out = Relation::new(schema);
            for (t, k) in rel.iter() {
                let projected: Tuple = bound.iter().map(|e| e.eval(t)).collect::<Result<_, _>>()?;
                // [π_U R](t) = Σ R(t'): insert ⊕-accumulates.
                out.insert(projected, k.clone());
            }
            Ok(out)
        }
        RaExpr::Join {
            left,
            right,
            predicate,
        } => {
            let l = eval(left, db)?;
            let r = eval(right, db)?;
            eval_join(&l, &r, predicate.as_ref())
        }
        RaExpr::Union { left, right } => {
            let l = eval(left, db)?;
            let r = eval(right, db)?;
            l.schema().check_union_compatible(r.schema())?;
            let mut out = l.clone();
            for (t, k) in r.iter() {
                out.insert(t.clone(), k.clone());
            }
            Ok(out)
        }
    }
}

/// An equi-join key extracted from a predicate: expressions over the left and
/// right inputs whose values must be equal. `left` is bound against the left
/// schema, `right` against the right schema (already shifted).
pub struct EquiKey {
    /// Key expression over the left input.
    pub left: Expr,
    /// Key expression over the right input (column indices shifted).
    pub right: Expr,
}

/// Split a bound join predicate into hashable equi-key parts and a residual
/// (the conjuncts that are not simple left/right equalities). Shared by the
/// map-based evaluator here and the row-based executor in `ua-engine`.
pub fn extract_equi_keys(predicate: &Expr, left_arity: usize) -> (Vec<EquiKey>, Vec<Expr>) {
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for conjunct in predicate.split_conjuncts() {
        if let Expr::Cmp(CmpOp::Eq, a, b) = conjunct {
            let side = |e: &Expr| -> Option<bool> {
                let mut cols = Vec::new();
                e.referenced_columns(&mut cols);
                if cols.is_empty() {
                    return None; // constant: leave in the residual
                }
                if cols.iter().all(|&c| c < left_arity) {
                    Some(true)
                } else if cols.iter().all(|&c| c >= left_arity) {
                    Some(false)
                } else {
                    None
                }
            };
            let shift = |e: &Expr| shift_columns(e, left_arity);
            match (side(a), side(b)) {
                (Some(true), Some(false)) => {
                    keys.push(EquiKey {
                        left: (**a).clone(),
                        right: shift(b),
                    });
                    continue;
                }
                (Some(false), Some(true)) => {
                    keys.push(EquiKey {
                        left: (**b).clone(),
                        right: shift(a),
                    });
                    continue;
                }
                _ => {}
            }
        }
        residual.push(conjunct.clone());
    }
    (keys, residual)
}

/// `x = k OR x IS NULL OR k IS NULL` — the ON predicate of `x NOT IN
/// (subquery)`'s anti-join: membership is unknown when either side is NULL,
/// and the join must record that as a match so the row is dropped. The
/// planner builds the predicate here and the join operators recognise it
/// with [`match_null_aware_eq`], so the shape cannot drift between them.
pub fn null_aware_eq(x: Expr, k: Expr) -> Expr {
    x.clone()
        .eq(k.clone())
        .or(Expr::IsNull(Box::new(x)))
        .or(Expr::IsNull(Box::new(k)))
}

/// Recognise a bound join predicate that is exactly [`null_aware_eq`]`(x,
/// k)` with `x` over the left input (or constant) and `k` over the right:
/// the pair as an [`EquiKey`]. A pair can satisfy the predicate only when
/// the keys are equal or one of them is unknown, so a hash index on the
/// key plus "an unknown key on either side meets every row" yields
/// exactly the pairs worth evaluating the full predicate on.
pub fn match_null_aware_eq(predicate: &Expr, left_arity: usize) -> Option<EquiKey> {
    let Expr::Or(eq_or_x, k_null) = predicate else {
        return None;
    };
    let (Expr::Or(eq, x_null), Expr::IsNull(k2)) = (&**eq_or_x, &**k_null) else {
        return None;
    };
    let (Expr::Cmp(CmpOp::Eq, x, k), Expr::IsNull(x2)) = (&**eq, &**x_null) else {
        return None;
    };
    let (mut x_cols, mut k_cols) = (Vec::new(), Vec::new());
    x.referenced_columns(&mut x_cols);
    k.referenced_columns(&mut k_cols);
    let sided = x_cols.iter().all(|&c| c < left_arity)
        && !k_cols.is_empty()
        && k_cols.iter().all(|&c| c >= left_arity);
    (x == x2 && k == k2 && sided).then(|| EquiKey {
        left: (**x).clone(),
        right: shift_columns(k, left_arity),
    })
}

/// How a join generates its candidate pairs from a bound predicate: hash
/// `keys` (empty = every pair), then evaluate `residual` on each
/// candidate.
#[derive(Default)]
pub struct JoinKeys {
    /// Per-side key expressions whose equality a match needs.
    pub keys: Vec<EquiKey>,
    /// What is still evaluated per candidate pair.
    pub residual: Vec<Expr>,
    /// The predicate is a [`null_aware_eq`]: an unknown key on either side
    /// is a candidate for every row of the other side (under plain
    /// equi-keys an unknown key matches nothing).
    pub null_aware: bool,
}

/// The candidate keys of a bound join predicate: the null-aware key of a
/// `NOT IN` anti-join (its full predicate stays the residual), else the
/// conjunction's equi-keys ([`extract_equi_keys`]). The outer joins of
/// both deterministic engines and the AU join operators choose with it.
pub fn candidate_keys(predicate: &Expr, left_arity: usize) -> JoinKeys {
    match match_null_aware_eq(predicate, left_arity) {
        Some(key) => JoinKeys {
            keys: vec![key],
            residual: vec![predicate.clone()],
            null_aware: true,
        },
        None => {
            let (keys, residual) = extract_equi_keys(predicate, left_arity);
            JoinKeys {
                keys,
                residual,
                null_aware: false,
            }
        }
    }
}

/// Merge two ascending, disjoint candidate lists (a key's bucket and the
/// rows that are candidates for every key) into `out`, ascending — hashed
/// candidates come out in the other side's scan order, as the pairwise
/// loop visits them.
pub fn merge_ascending<T: Copy + Ord>(a: &[T], b: &[T], out: &mut Vec<T>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Rewrite column references `c` to `c - delta` (to evaluate a
/// concatenated-schema expression against the right tuple alone).
pub fn shift_columns(e: &Expr, delta: usize) -> Expr {
    e.map_refs(&|n| Some(n.to_string()), &|i| i - delta)
        .expect("identity name mapping cannot fail")
}

fn eval_join<K: Semiring>(
    l: &Relation<K>,
    r: &Relation<K>,
    predicate: Option<&Expr>,
) -> Result<Relation<K>, RaError> {
    let schema = l.schema().concat(r.schema());
    let mut out = Relation::new(schema.clone());
    let bound = match predicate {
        Some(p) => Some(p.bind(&schema)?),
        None => None,
    };

    // Hash join when the predicate contains extractable equi-keys.
    if let Some(pred) = &bound {
        let (keys, residual) = extract_equi_keys(pred, l.schema().arity());
        if !keys.is_empty() {
            let residual = Expr::conjunction(residual);
            let mut table: FxHashMap<Tuple, Vec<(&Tuple, &K)>> = FxHashMap::default();
            for (rt, rk) in r.iter() {
                let key: Tuple = keys
                    .iter()
                    .map(|k| k.right.eval(rt).map(Value::join_key))
                    .collect::<Result<_, _>>()?;
                // NULL keys never satisfy an equality; labeled nulls match
                // themselves, so they stay (structural hash equality equals
                // their SQL equality).
                if key.has_null() {
                    continue;
                }
                table.entry(key).or_default().push((rt, rk));
            }
            for (lt, lk) in l.iter() {
                let key: Tuple = keys
                    .iter()
                    .map(|k| k.left.eval(lt).map(Value::join_key))
                    .collect::<Result<_, _>>()?;
                if key.has_null() {
                    continue;
                }
                if let Some(matches) = table.get(&key) {
                    for (rt, rk) in matches {
                        let joined = lt.concat(rt);
                        if residual.holds(&joined)? {
                            out.insert(joined, lk.times(rk));
                        }
                    }
                }
            }
            return Ok(out);
        }
    }

    // Nested-loop fallback (θ-joins without equalities, cross products).
    for (lt, lk) in l.iter() {
        for (rt, rk) in r.iter() {
            let joined = lt.concat(rt);
            let keep = match &bound {
                Some(p) => p.holds(&joined)?,
                None => true,
            };
            if keep {
                out.insert(joined, lk.times(rk));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::bag_relation;
    use crate::tuple;
    use crate::value::Value;

    /// Paper Figure 7: the Address ⋈ Neighborhood example under ℕ.
    fn figure7_db() -> Database<u64> {
        let mut db = Database::new();
        db.insert(
            "address",
            bag_relation(
                "address",
                &["id", "address", "l"],
                vec![
                    vec![Value::Int(1), Value::str("51 Co."), Value::str("L1")],
                    vec![Value::Int(2), Value::str("Grant"), Value::str("L2")],
                    vec![Value::Int(3), Value::str("499 W."), Value::str("L4")],
                ],
            ),
        );
        db.insert(
            "neighborhood",
            bag_relation(
                "neighborhood",
                &["l", "locale", "state"],
                vec![
                    vec![Value::str("L1"), Value::str("L."), Value::str("NY")],
                    vec![Value::str("L2"), Value::str("T."), Value::str("AZ")],
                    vec![Value::str("L3"), Value::str("G."), Value::str("NY")],
                    vec![Value::str("L4"), Value::str("K."), Value::str("NY")],
                    vec![Value::str("L5"), Value::str("W."), Value::str("IL")],
                ],
            ),
        );
        db
    }

    #[test]
    fn figure7_qa_state_counts() {
        // Qa = π_state(Address ⋈ Neighborhood): NY ↦ 2, AZ ↦ 1, IL ↦ 0.
        let db = figure7_db();
        let q = RaExpr::table("address")
            .join(
                RaExpr::table("neighborhood"),
                Expr::named("address.l").eq(Expr::named("neighborhood.l")),
            )
            .project(["state"]);
        let result = eval(&q, &db).unwrap();
        assert_eq!(result.annotation(&tuple!["NY"]), 2);
        assert_eq!(result.annotation(&tuple!["AZ"]), 1);
        assert_eq!(result.annotation(&tuple!["IL"]), 0);
    }

    #[test]
    fn selection_filters_and_preserves_annotations() {
        let db = figure7_db();
        let q = RaExpr::table("neighborhood")
            .select(Expr::named("state").eq(Expr::lit("NY")))
            .project(["locale"]);
        let result = eval(&q, &db).unwrap();
        assert_eq!(result.support_size(), 3);
        assert_eq!(result.annotation(&tuple!["L."]), 1);
    }

    #[test]
    fn cross_product_multiplies() {
        let db = figure7_db();
        let q = RaExpr::table("address").cross(RaExpr::table("neighborhood"));
        let result = eval(&q, &db).unwrap();
        assert_eq!(result.support_size(), 15);
        assert_eq!(result.schema().arity(), 6);
    }

    #[test]
    fn union_adds_annotations() {
        let db = figure7_db();
        let q = RaExpr::table("neighborhood")
            .project(["state"])
            .union(RaExpr::table("neighborhood").project(["state"]));
        let result = eval(&q, &db).unwrap();
        assert_eq!(result.annotation(&tuple!["NY"]), 6);
        assert_eq!(result.annotation(&tuple!["AZ"]), 2);
    }

    #[test]
    fn theta_join_without_equality_uses_nested_loop() {
        let db = figure7_db();
        let q = RaExpr::table("address").join(
            RaExpr::table("neighborhood"),
            Expr::named("address.l").ne(Expr::named("neighborhood.l")),
        );
        let result = eval(&q, &db).unwrap();
        assert_eq!(result.support_size(), 12);
    }

    #[test]
    fn hash_and_nested_loop_joins_agree() {
        let db = figure7_db();
        let equi = Expr::named("address.l").eq(Expr::named("neighborhood.l"));
        let hash = eval(
            &RaExpr::table("address").join(RaExpr::table("neighborhood"), equi),
            &db,
        )
        .unwrap();
        // Force nested loop by hiding the equality inside an OR.
        let disguised = Expr::named("address.l")
            .eq(Expr::named("neighborhood.l"))
            .or(Expr::lit(false));
        let nested = eval(
            &RaExpr::table("address").join(RaExpr::table("neighborhood"), disguised),
            &db,
        )
        .unwrap();
        assert!(hash.annotation_eq(&nested));
    }

    #[test]
    fn alias_requalifies() {
        let db = figure7_db();
        let q = RaExpr::table("neighborhood")
            .alias("n")
            .select(Expr::named("n.state").eq(Expr::lit("NY")));
        let result = eval(&q, &db).unwrap();
        assert_eq!(result.support_size(), 3);
    }

    #[test]
    fn join_with_residual_predicate() {
        let db = figure7_db();
        let pred = Expr::named("address.l")
            .eq(Expr::named("neighborhood.l"))
            .and(Expr::named("state").ne(Expr::lit("AZ")));
        let q = RaExpr::table("address")
            .join(RaExpr::table("neighborhood"), pred)
            .project(["state"]);
        let result = eval(&q, &db).unwrap();
        assert_eq!(result.annotation(&tuple!["NY"]), 2);
        assert_eq!(result.annotation(&tuple!["AZ"]), 0);
    }

    #[test]
    fn unknown_table_error() {
        let db = figure7_db();
        assert!(matches!(
            eval(&RaExpr::table("nope"), &db),
            Err(RaError::UnknownTable(_))
        ));
    }

    #[test]
    fn union_arity_mismatch_error() {
        let db = figure7_db();
        let q = RaExpr::table("address")
            .union(RaExpr::table("neighborhood").project(["locale", "state"]));
        assert!(matches!(eval(&q, &db), Err(RaError::Schema(_))));
    }

    #[test]
    fn operator_count_and_base_tables() {
        let q = RaExpr::table("a")
            .join(RaExpr::table("b"), Expr::lit(true))
            .select(Expr::lit(true))
            .project(Vec::<String>::new());
        assert_eq!(q.operator_count(), 3);
        assert_eq!(q.base_tables(), vec!["a", "b"]);
    }

    #[test]
    fn null_aware_eq_is_recognised_exactly() {
        // Two left columns, the right side starts at 2.
        let x = Expr::col(1).add(Expr::lit(1i64));
        let k = Expr::col(2);
        let key = match_null_aware_eq(&null_aware_eq(x.clone(), k.clone()), 2).expect("the shape");
        assert_eq!((key.left, key.right), (x.clone(), Expr::col(0)));
        // A constant operand (`5 NOT IN (…)`) is a key too.
        assert!(match_null_aware_eq(&null_aware_eq(Expr::lit(5i64), k.clone()), 2).is_some());
        let keys = candidate_keys(&null_aware_eq(x.clone(), k.clone()), 2);
        assert!(keys.null_aware && keys.keys.len() == 1);
        assert_eq!(keys.residual, [null_aware_eq(x.clone(), k.clone())]);

        let is_null = |e: &Expr| Expr::IsNull(Box::new(e.clone()));
        let eq = x.clone().eq(k.clone());
        for near_miss in [
            // The hand-written two-disjunct idiom: a NULL operand does not match.
            eq.clone().or(is_null(&k)),
            // The disjuncts test other expressions than the compared ones.
            eq.clone().or(is_null(&Expr::col(0))).or(is_null(&k)),
            eq.clone().or(is_null(&x)).or(is_null(&Expr::col(3))),
            // Sides swapped or straddled: no left-probe / right-build split.
            null_aware_eq(k.clone(), x.clone()),
            null_aware_eq(x.clone().add(k.clone()), k.clone()),
            null_aware_eq(x.clone(), Expr::lit(1i64)),
            // Not the whole predicate.
            null_aware_eq(x.clone(), k.clone()).and(Expr::lit(true)),
            x.clone().lt(k.clone()).or(is_null(&x)).or(is_null(&k)),
        ] {
            assert!(match_null_aware_eq(&near_miss, 2).is_none(), "{near_miss}");
            assert!(!candidate_keys(&near_miss, 2).null_aware);
        }
    }

    #[test]
    fn merge_ascending_interleaves() {
        let mut out = vec![99usize];
        merge_ascending(&[1, 4, 9], &[0, 5, 6, 10], &mut out);
        assert_eq!(out, [99, 0, 1, 4, 5, 6, 9, 10]);
    }

    #[test]
    fn set_semantics_via_bool() {
        let mut db: Database<bool> = Database::new();
        db.insert(
            "r",
            Relation::from_tuples(
                Schema::qualified("r", ["a"]),
                vec![tuple![1i64], tuple![1i64], tuple![2i64]],
            ),
        );
        let q = RaExpr::table("r").project(["a"]);
        let result = eval(&q, &db).unwrap();
        assert!(result.annotation(&tuple![1i64]));
        assert!(result.annotation(&tuple![2i64]));
        assert_eq!(result.support_size(), 2);
    }
}
