//! AST → physical-plan lowering.
//!
//! Name resolution is deferred to execution-time binding (expressions carry
//! names; operators bind them against their input schemas), so the planner's
//! jobs are structural: `FROM` folding, star expansion, aggregate
//! extraction, and source-annotation resolution. Annotated sources
//! (`R IS TI …`) are delegated to a [`SourceResolver`] — the UA frontend
//! supplies one that applies the paper's labeling schemes; the default
//! resolver rejects annotations so that the plain engine stays deterministic.

use crate::exec::EngineError;
use crate::plan::{AggExpr, AggFunc, OuterKind, Plan};
use crate::sql::ast::*;
use crate::storage::Catalog;
use ua_data::algebra::{null_aware_eq, ProjColumn};
use ua_data::expr::{CmpOp, Expr};
use ua_data::schema::{Column, Schema};
use ua_data::value::Value;

/// Resolves source-annotated table references into plans.
pub trait SourceResolver {
    /// Produce a plan for `name` under `annotation`.
    fn resolve(
        &self,
        name: &str,
        annotation: &SourceAnnotation,
        catalog: &Catalog,
    ) -> Result<Plan, EngineError>;
}

/// The default resolver: annotations are an error (plain deterministic SQL).
pub struct RejectAnnotations;

impl SourceResolver for RejectAnnotations {
    fn resolve(
        &self,
        name: &str,
        _annotation: &SourceAnnotation,
        _catalog: &Catalog,
    ) -> Result<Plan, EngineError> {
        Err(EngineError::Sql(format!(
            "table `{name}` uses a source annotation; run it through the UA frontend"
        )))
    }
}

/// Compute the output schema of a plan without executing it.
pub fn plan_schema(plan: &Plan, catalog: &Catalog) -> Result<Schema, EngineError> {
    match plan {
        Plan::Scan(name) => catalog
            .schema_of(name)
            .ok_or_else(|| EngineError::UnknownTable(name.clone())),
        Plan::Alias { input, name } => Ok(plan_schema(input, catalog)?.with_qualifier(name)),
        Plan::Filter { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::TopK { input, .. }
        | Plan::Distinct { input } => plan_schema(input, catalog),
        Plan::Map { columns, .. } => Ok(Schema::new(
            columns.iter().map(|c| c.column.clone()).collect(),
        )),
        Plan::Join { left, right, .. }
        | Plan::HashJoin { left, right, .. }
        | Plan::OuterJoin { left, right, .. } => {
            Ok(plan_schema(left, catalog)?.concat(&plan_schema(right, catalog)?))
        }
        Plan::Except { left, right, .. } => {
            let l = plan_schema(left, catalog)?;
            let r = plan_schema(right, catalog)?;
            l.check_union_compatible(&r)?;
            Ok(l)
        }
        Plan::UnionAll { left, right } => {
            let l = plan_schema(left, catalog)?;
            let r = plan_schema(right, catalog)?;
            l.check_union_compatible(&r)?;
            Ok(l)
        }
        Plan::Aggregate {
            group_by,
            aggregates,
            ..
        } => {
            let mut cols: Vec<Column> = group_by.iter().map(|g| g.column.clone()).collect();
            cols.extend(aggregates.iter().map(|a| Column::unqualified(&a.name)));
            Ok(Schema::new(cols))
        }
    }
}

/// Plan a parsed query.
pub fn plan_query(
    query: &Query,
    catalog: &Catalog,
    resolver: &dyn SourceResolver,
) -> Result<Plan, EngineError> {
    let mut plans = query
        .selects
        .iter()
        .map(|s| plan_select(s, catalog, resolver))
        .collect::<Result<Vec<_>, _>>()?;
    let mut plan = plans.remove(0);
    for (op, next) in query.set_ops.iter().zip(plans) {
        plan = match op {
            SetOp::UnionAll => Plan::UnionAll {
                left: Box::new(plan),
                right: Box::new(next),
            },
            SetOp::Except | SetOp::ExceptAll => Plan::Except {
                left: Box::new(plan),
                right: Box::new(next),
                all: *op == SetOp::ExceptAll,
            },
        };
    }
    if !query.order_by.is_empty() {
        let keys = query
            .order_by
            .iter()
            .map(|(e, o)| Ok((lower_order_key(e, &query.selects[0])?, *o)))
            .collect::<Result<Vec<_>, EngineError>>()?;
        plan = Plan::Sort {
            input: Box::new(plan),
            keys,
        };
    }
    if let Some(limit) = query.limit {
        plan = Plan::Limit {
            input: Box::new(plan),
            limit,
        };
    }
    Ok(plan)
}

/// Lower one `ORDER BY` key. The sort operator runs over the *projected*
/// output, where source columns have been renamed or re-qualified
/// (`SELECT x.a FROM t IS TI ... x ORDER BY x.a` must order by output
/// column `a`, and `ORDER BY count(*)` by the aggregate's output name), so
/// a key that textually matches a select item is rewritten to that item's
/// output column; anything else is lowered as-is and binds against the
/// output schema.
fn lower_order_key(expr: &SqlExpr, select: &SelectStmt) -> Result<Expr, EngineError> {
    // SQL resolves a bare ORDER BY identifier against output aliases
    // *first* — `SELECT a AS b, b AS a ... ORDER BY a` orders by the
    // output column `a` (source `b`), not by the item whose source text
    // happens to be `a`.
    if let SqlExpr::Column(name) = expr {
        if !name.contains('.')
            && select.items.iter().any(|item| {
                item.alias
                    .as_deref()
                    .is_some_and(|a| a.eq_ignore_ascii_case(name))
            })
        {
            return Ok(Expr::named(name.clone()));
        }
    }
    for (i, item) in select.items.iter().enumerate() {
        if item.expr == *expr {
            let name = match &item.alias {
                Some(a) => a.clone(),
                None => derive_name(&item.expr, i),
            };
            return Ok(Expr::named(name));
        }
    }
    lower_scalar(expr)
}

fn plan_select(
    select: &SelectStmt,
    catalog: &Catalog,
    resolver: &dyn SourceResolver,
) -> Result<Plan, EngineError> {
    // FROM: fold comma items and JOIN clauses into a plan tree.
    let mut from_plan: Option<Plan> = None;
    for (base, joins) in &select.from {
        let mut item = plan_table_ref(base, catalog, resolver)?;
        for join in joins {
            let right = plan_table_ref(&join.table, catalog, resolver)?;
            let predicate = join.on.as_ref().map(lower_scalar).transpose()?;
            item = match join.kind {
                JoinKind::Inner => Plan::Join {
                    left: Box::new(item),
                    right: Box::new(right),
                    predicate,
                },
                JoinKind::Left | JoinKind::Right => Plan::OuterJoin {
                    left: Box::new(item),
                    right: Box::new(right),
                    predicate,
                    kind: if join.kind == JoinKind::Left {
                        OuterKind::Left
                    } else {
                        OuterKind::Right
                    },
                },
            };
        }
        from_plan = Some(match from_plan {
            None => item,
            Some(acc) => Plan::Join {
                left: Box::new(acc),
                right: Box::new(item),
                predicate: None,
            },
        });
    }
    let mut plan = from_plan.ok_or_else(|| EngineError::Sql("query needs a FROM clause".into()))?;

    if let Some(w) = &select.where_clause {
        // Split the WHERE conjunction: `NOT EXISTS (q)` / `x NOT IN (q)`
        // conjuncts become anti-join shapes over the FROM plan; everything
        // else folds back into one ordinary filter. Subquery predicates in
        // any other position have no plan-algebra lowering here.
        let mut conjuncts = Vec::new();
        collect_conjuncts(w, &mut conjuncts);
        let mut residual: Option<Expr> = None;
        let mut antis = Vec::new();
        for c in conjuncts {
            match anti_conjunct(c) {
                Some(shape) => antis.push(shape),
                None => {
                    if contains_subquery(c) {
                        return Err(EngineError::Sql(SUBQUERY_PLACEMENT_ERROR.into()));
                    }
                    let lowered = lower_scalar(c)?;
                    residual = Some(match residual {
                        None => lowered,
                        Some(acc) => acc.and(lowered),
                    });
                }
            }
        }
        if let Some(predicate) = residual {
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }
        for (i, shape) in antis.into_iter().enumerate() {
            plan = lower_anti_join(plan, shape, i, catalog, resolver)?;
        }
    }

    let source_schema = plan_schema(&plan, catalog)?;

    let has_aggregates =
        !select.group_by.is_empty() || select.items.iter().any(|i| i.expr.contains_aggregate());

    plan = if has_aggregates {
        plan_aggregation(select, plan, catalog)?
    } else {
        let mut columns = Vec::new();
        for item in &select.items {
            expand_item(item, &source_schema, &mut columns)?;
        }
        Plan::Map {
            input: Box::new(plan),
            columns,
        }
    };

    if select.distinct {
        plan = Plan::Distinct {
            input: Box::new(plan),
        };
    }
    Ok(plan)
}

fn plan_table_ref(
    table: &TableRef,
    catalog: &Catalog,
    resolver: &dyn SourceResolver,
) -> Result<Plan, EngineError> {
    match table {
        TableRef::Named {
            name,
            alias,
            annotation,
        } => {
            let mut plan = match annotation {
                Some(a) => resolver.resolve(name, a, catalog)?,
                None => Plan::Scan(name.clone()),
            };
            if let Some(alias) = alias {
                plan = Plan::Alias {
                    input: Box::new(plan),
                    name: alias.clone(),
                };
            }
            Ok(plan)
        }
        TableRef::Subquery { query, alias } => Ok(Plan::Alias {
            input: Box::new(plan_query(query, catalog, resolver)?),
            name: alias.clone(),
        }),
    }
}

const SUBQUERY_PLACEMENT_ERROR: &str = "subquery predicates are only supported as top-level \
     NOT EXISTS / NOT IN conjuncts in WHERE";

/// Flatten a WHERE clause's `AND` spine into its conjuncts.
fn collect_conjuncts<'a>(expr: &'a SqlExpr, out: &mut Vec<&'a SqlExpr>) {
    if let SqlExpr::Binary(BinOp::And, a, b) = expr {
        collect_conjuncts(a, out);
        collect_conjuncts(b, out);
    } else {
        out.push(expr);
    }
}

/// A WHERE conjunct with an anti-join lowering.
enum AntiShape<'a> {
    /// `NOT EXISTS (query)`.
    Exists(&'a Query),
    /// `operand NOT IN (query)`.
    In(&'a SqlExpr, &'a Query),
}

/// Classify a conjunct as an anti-join shape, if it is one.
fn anti_conjunct(expr: &SqlExpr) -> Option<AntiShape<'_>> {
    match expr {
        SqlExpr::Not(inner) => match &**inner {
            SqlExpr::Exists(q) => Some(AntiShape::Exists(q)),
            SqlExpr::InSubquery {
                expr,
                query,
                negated: false,
            } => Some(AntiShape::In(expr, query)),
            _ => None,
        },
        SqlExpr::InSubquery {
            expr,
            query,
            negated: true,
        } => Some(AntiShape::In(expr, query)),
        _ => None,
    }
}

/// Whether the expression mentions a subquery predicate anywhere.
fn contains_subquery(expr: &SqlExpr) -> bool {
    match expr {
        SqlExpr::Exists(_) | SqlExpr::InSubquery { .. } => true,
        SqlExpr::Binary(_, a, b) => contains_subquery(a) || contains_subquery(b),
        SqlExpr::Not(a) => contains_subquery(a),
        SqlExpr::IsNull { expr, .. } => contains_subquery(expr),
        SqlExpr::Between {
            expr, low, high, ..
        } => contains_subquery(expr) || contains_subquery(low) || contains_subquery(high),
        SqlExpr::InList { expr, list, .. } => {
            contains_subquery(expr) || list.iter().any(contains_subquery)
        }
        SqlExpr::Case {
            operand,
            branches,
            otherwise,
        } => {
            operand.as_deref().is_some_and(contains_subquery)
                || branches
                    .iter()
                    .any(|(w, t)| contains_subquery(w) || contains_subquery(t))
                || otherwise.as_deref().is_some_and(contains_subquery)
        }
        SqlExpr::Func { args, .. } => args.iter().any(contains_subquery),
        _ => false,
    }
}

/// System-managed columns hidden from star expansion and schema restores.
pub(crate) fn is_system_column(col: &Column) -> bool {
    col.name.eq_ignore_ascii_case(ua_core::UA_LABEL_COLUMN)
        || crate::au::is_au_sidecar_name(&col.name)
}

/// Lower one `NOT EXISTS (q)` / `x NOT IN (q)` conjunct over `input`:
///
/// ```text
/// π_input( σ_{flag IS NULL}( input ⟕_pred Map_{[key,] flag := 1}(q) ) )
/// ```
///
/// The left outer join NULL-pads exactly the input rows with no match, the
/// filter keeps those, and the final projection restores the input's
/// visible schema. For `NOT IN` the ON predicate is the three-valued
/// `x = key OR x IS NULL OR key IS NULL` ([`null_aware_eq`], which the
/// outer-join operators recognise and hash on `x = key`): a NULL on either
/// side makes the membership test unknown, and SQL's `NOT IN` must then
/// drop the row — which the join records as a match and the filter
/// removes. `NOT EXISTS`
/// over an uncorrelated subquery joins unconditionally: any subquery row
/// matches every input row.
fn lower_anti_join(
    input: Plan,
    shape: AntiShape<'_>,
    index: usize,
    catalog: &Catalog,
    resolver: &dyn SourceResolver,
) -> Result<Plan, EngineError> {
    let input_schema = plan_schema(&input, catalog)?;
    let flag = format!("__anti_{index}");
    let (flagged, predicate) = match shape {
        AntiShape::Exists(q) => {
            let sub = plan_query(q, catalog, resolver)?;
            let flagged = Plan::Map {
                input: Box::new(sub),
                columns: vec![ProjColumn::expr(Expr::lit(1i64), flag.clone())],
            };
            (flagged, None)
        }
        AntiShape::In(operand, q) => {
            if contains_subquery(operand) {
                return Err(EngineError::Sql(SUBQUERY_PLACEMENT_ERROR.into()));
            }
            let sub = plan_query(q, catalog, resolver)?;
            let sub_schema = plan_schema(&sub, catalog)?;
            let visible: Vec<usize> = (0..sub_schema.arity())
                .filter(|&i| !is_system_column(&sub_schema.columns()[i]))
                .collect();
            if visible.len() != 1 {
                return Err(EngineError::Sql(format!(
                    "IN subquery must produce exactly one column, got {}",
                    visible.len()
                )));
            }
            let key_pos = visible[0];
            let key = format!("__in_{index}");
            let flagged = Plan::Map {
                input: Box::new(sub),
                columns: vec![
                    ProjColumn::expr(star_expr(&sub_schema, key_pos)?, key.clone()),
                    ProjColumn::expr(Expr::lit(1i64), flag.clone()),
                ],
            };
            let pred = null_aware_eq(lower_scalar(operand)?, Expr::named(key));
            (flagged, Some(pred))
        }
    };
    let filtered = Plan::Filter {
        input: Box::new(Plan::OuterJoin {
            left: Box::new(input),
            right: Box::new(flagged),
            predicate,
            kind: OuterKind::Left,
        }),
        predicate: Expr::IsNull(Box::new(Expr::named(flag))),
    };
    // Restore the input's visible schema: the flag/key columns are plan
    // bookkeeping, and the UA/AU encodings re-thread their own markers.
    let mut columns = Vec::new();
    for (i, col) in input_schema.columns().iter().enumerate() {
        if is_system_column(col) {
            continue;
        }
        columns.push(ProjColumn::with_column(
            star_expr(&input_schema, i)?,
            col.clone(),
        ));
    }
    Ok(Plan::Map {
        input: Box::new(filtered),
        columns,
    })
}

fn expand_item(
    item: &SelectItem,
    schema: &Schema,
    out: &mut Vec<ProjColumn>,
) -> Result<(), EngineError> {
    match &item.expr {
        SqlExpr::Star => {
            for (i, col) in schema.columns().iter().enumerate() {
                // The UA certainty marker and the AU bound/multiplicity
                // sidecars are system-managed: `SELECT *` yields the
                // user-visible columns, and the encodings re-append their
                // bookkeeping themselves.
                if col.name.eq_ignore_ascii_case(ua_core::UA_LABEL_COLUMN)
                    || crate::au::is_au_sidecar_name(&col.name)
                {
                    continue;
                }
                out.push(ProjColumn::with_column(star_expr(schema, i)?, col.clone()));
            }
            Ok(())
        }
        SqlExpr::QualifiedStar(q) => {
            let mut any = false;
            for (i, col) in schema.columns().iter().enumerate() {
                if col.name.eq_ignore_ascii_case(ua_core::UA_LABEL_COLUMN)
                    || crate::au::is_au_sidecar_name(&col.name)
                {
                    continue;
                }
                if col
                    .qualifier
                    .as_deref()
                    .is_some_and(|qual| qual.eq_ignore_ascii_case(q))
                {
                    out.push(ProjColumn::with_column(star_expr(schema, i)?, col.clone()));
                    any = true;
                }
            }
            if any {
                Ok(())
            } else {
                Err(EngineError::Sql(format!("no columns match `{q}.*`")))
            }
        }
        expr => {
            let lowered = lower_scalar(expr)?;
            let name = match &item.alias {
                Some(a) => a.clone(),
                None => derive_name(expr, out.len()),
            };
            out.push(ProjColumn::expr(lowered, name));
            Ok(())
        }
    }
}

/// The expression projecting column `i` in a `*` / `t.*` expansion.
///
/// Star expansion used to emit positional `Expr::Col(i)` references, but
/// positions computed here are relative to the *planning-time* schema — for
/// annotated (UA) sources that schema carries the `ua_c` marker column,
/// which the `⟦·⟧_UA` rewriting relocates and the vectorized path strips
/// from its batches, silently misaligning every column to the marker's
/// right. Name-based references survive both (the rewriting and the alias
/// operator preserve names and qualifiers), so prefer them whenever the
/// reference resolves uniquely back to this column; positional references
/// remain only for marker-free schemas, where planning-time and run-time
/// layouts are identical.
fn star_expr(schema: &Schema, i: usize) -> Result<Expr, EngineError> {
    let col = &schema.columns()[i];
    let reference = match &col.qualifier {
        Some(q) => format!("{q}.{}", col.name),
        None => col.name.to_string(),
    };
    if matches!(schema.resolve(&reference), Ok(j) if j == i) {
        return Ok(Expr::named(reference));
    }
    let has_marker = schema.columns().iter().any(|c| {
        c.name.eq_ignore_ascii_case(ua_core::UA_LABEL_COLUMN)
            || crate::au::is_au_sidecar_name(&c.name)
    });
    if has_marker {
        // A positional fallback would be unsound under the UA rewriting;
        // make the ambiguity a planning error instead of wrong answers.
        Err(EngineError::Schema(
            ua_data::schema::SchemaError::AmbiguousColumn(reference),
        ))
    } else {
        Ok(Expr::Col(i))
    }
}

fn derive_name(expr: &SqlExpr, position: usize) -> String {
    match expr {
        SqlExpr::Column(c) => c.rsplit('.').next().unwrap_or(c).to_string(),
        SqlExpr::Func { name, .. } => name.clone(),
        _ => format!("col{position}"),
    }
}

fn plan_aggregation(
    select: &SelectStmt,
    input: Plan,
    _catalog: &Catalog,
) -> Result<Plan, EngineError> {
    // Lower group-by expressions, assigning output names.
    let mut group_cols: Vec<ProjColumn> = Vec::new();
    for (i, g) in select.group_by.iter().enumerate() {
        let lowered = lower_scalar(g)?;
        let name = derive_name(g, i);
        group_cols.push(ProjColumn::expr(lowered, name));
    }

    // Walk the select list: aggregates become AggExprs, everything else must
    // match a GROUP BY expression.
    let mut aggregates: Vec<AggExpr> = Vec::new();
    let mut final_cols: Vec<ProjColumn> = Vec::new();
    for (i, item) in select.items.iter().enumerate() {
        let out_name = match &item.alias {
            Some(a) => a.clone(),
            None => derive_name(&item.expr, i),
        };
        match &item.expr {
            SqlExpr::Func { name, args } if is_aggregate_name(name) => {
                let internal = format!("__agg{}", aggregates.len());
                aggregates.push(lower_aggregate(name, args, &internal)?);
                final_cols.push(ProjColumn::expr(Expr::named(internal), out_name));
            }
            other if other.contains_aggregate() => {
                return Err(EngineError::Sql(format!(
                    "unsupported expression over aggregates: `{other}` \
                     (only bare aggregate calls are allowed in the select list)"
                )));
            }
            other => {
                let lowered = lower_scalar(other)?;
                let position = select
                    .group_by
                    .iter()
                    .position(|g| lower_scalar(g).map(|l| l == lowered).unwrap_or(false))
                    .ok_or_else(|| {
                        EngineError::Sql(format!(
                            "`{other}` appears in the select list but not in GROUP BY"
                        ))
                    })?;
                final_cols.push(ProjColumn::expr(
                    Expr::named(group_cols[position].name().to_string()),
                    out_name,
                ));
            }
        }
    }

    let agg = Plan::Aggregate {
        input: Box::new(input),
        group_by: group_cols,
        aggregates,
    };
    Ok(Plan::Map {
        input: Box::new(agg),
        columns: final_cols,
    })
}

fn lower_aggregate(name: &str, args: &[SqlExpr], out: &str) -> Result<AggExpr, EngineError> {
    let func = match name {
        "count" => {
            if args.len() == 1 && matches!(args[0], SqlExpr::Star) {
                return Ok(AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    name: out.to_string(),
                });
            }
            AggFunc::Count
        }
        "sum" => AggFunc::Sum,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        "avg" => AggFunc::Avg,
        "conf" => {
            return Err(EngineError::Sql(
                "conf() requires a probabilistic runtime; use the MayBMS-style \
                 baseline (ua-baselines) for confidence computation"
                    .into(),
            ))
        }
        other => return Err(EngineError::Sql(format!("unknown aggregate `{other}`"))),
    };
    if args.len() != 1 {
        return Err(EngineError::Sql(format!(
            "{name}() takes exactly one argument"
        )));
    }
    Ok(AggExpr {
        func,
        arg: Some(lower_scalar(&args[0])?),
        name: out.to_string(),
    })
}

/// Lower a scalar (non-aggregate) SQL expression to an engine expression.
pub fn lower_scalar(expr: &SqlExpr) -> Result<Expr, EngineError> {
    Ok(match expr {
        SqlExpr::Column(c) => Expr::named(c.clone()),
        SqlExpr::Star | SqlExpr::QualifiedStar(_) => {
            return Err(EngineError::Sql(
                "`*` is only valid in a select list".into(),
            ))
        }
        SqlExpr::Int(i) => Expr::lit(*i),
        SqlExpr::Float(x) => Expr::lit(*x),
        SqlExpr::Str(s) => Expr::lit(s.as_str()),
        SqlExpr::Bool(b) => Expr::lit(*b),
        SqlExpr::Null => Expr::Lit(Value::Null),
        SqlExpr::Binary(op, a, b) => {
            let left = lower_scalar(a)?;
            let right = lower_scalar(b)?;
            match op {
                BinOp::Eq => left.eq(right),
                BinOp::Ne => left.ne(right),
                BinOp::Lt => left.lt(right),
                BinOp::Le => left.le(right),
                BinOp::Gt => left.gt(right),
                BinOp::Ge => left.ge(right),
                BinOp::And => left.and(right),
                BinOp::Or => left.or(right),
                BinOp::Add => left.add(right),
                BinOp::Sub => left.sub(right),
                BinOp::Mul => left.mul(right),
                BinOp::Div => {
                    Expr::Arith(ua_data::expr::ArithOp::Div, Box::new(left), Box::new(right))
                }
            }
        }
        SqlExpr::Not(a) => lower_scalar(a)?.not(),
        SqlExpr::IsNull { expr, negated } => {
            let inner = Expr::IsNull(Box::new(lower_scalar(expr)?));
            if *negated {
                inner.not()
            } else {
                inner
            }
        }
        SqlExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let inner = lower_scalar(expr)?.between(lower_scalar(low)?, lower_scalar(high)?);
            if *negated {
                inner.not()
            } else {
                inner
            }
        }
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => {
            let inner = Expr::InList(
                Box::new(lower_scalar(expr)?),
                list.iter().map(lower_scalar).collect::<Result<_, _>>()?,
            );
            if *negated {
                inner.not()
            } else {
                inner
            }
        }
        SqlExpr::InSubquery { .. } | SqlExpr::Exists(_) => {
            return Err(EngineError::Sql(SUBQUERY_PLACEMENT_ERROR.into()))
        }
        SqlExpr::Case {
            operand,
            branches,
            otherwise,
        } => {
            // Simple CASE desugars to searched CASE with equality tests.
            let branches = branches
                .iter()
                .map(|(w, t)| {
                    let when = match operand {
                        Some(op) => Expr::Cmp(
                            CmpOp::Eq,
                            Box::new(lower_scalar(op)?),
                            Box::new(lower_scalar(w)?),
                        ),
                        None => lower_scalar(w)?,
                    };
                    Ok((when, lower_scalar(t)?))
                })
                .collect::<Result<Vec<_>, EngineError>>()?;
            Expr::Case {
                branches,
                otherwise: otherwise
                    .as_ref()
                    .map(|e| lower_scalar(e).map(Box::new))
                    .transpose()?,
            }
        }
        SqlExpr::Func { name, args } => match name.as_str() {
            "least" => {
                if args.len() != 2 {
                    return Err(EngineError::Sql("least() takes two arguments".into()));
                }
                lower_scalar(&args[0])?.least(lower_scalar(&args[1])?)
            }
            other if is_aggregate_name(other) => {
                return Err(EngineError::Sql(format!(
                    "aggregate `{other}` used outside an aggregation context"
                )))
            }
            other => return Err(EngineError::Sql(format!("unknown function `{other}`"))),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::sql::parser::parse;
    use crate::storage::Table;
    use ua_data::tuple;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register(
            "emp",
            Table::from_rows(
                Schema::qualified("emp", ["name", "dept", "salary"]),
                vec![
                    tuple!["ann", "eng", 100i64],
                    tuple!["bob", "eng", 80i64],
                    tuple!["cat", "ops", 60i64],
                ],
            ),
        );
        c.register(
            "dept",
            Table::from_rows(
                Schema::qualified("dept", ["name", "city"]),
                vec![tuple!["eng", "nyc"], tuple!["ops", "chi"]],
            ),
        );
        c
    }

    fn run(sql: &str) -> Table {
        let c = catalog();
        let q = parse(sql).unwrap();
        let plan = plan_query(&q, &c, &RejectAnnotations).unwrap();
        execute(&plan, &c).unwrap()
    }

    #[test]
    fn select_where() {
        let t = run("SELECT name FROM emp WHERE salary >= 80");
        assert_eq!(t.sorted_rows(), vec![tuple!["ann"], tuple!["bob"]]);
    }

    #[test]
    fn star_expansion() {
        let t = run("SELECT * FROM emp WHERE dept = 'ops'");
        assert_eq!(t.rows().len(), 1);
        assert_eq!(t.schema().arity(), 3);
        let t2 = run("SELECT e.* FROM emp e, dept d WHERE e.dept = d.name");
        assert_eq!(t2.schema().arity(), 3);
        assert_eq!(t2.len(), 3);
    }

    #[test]
    fn star_expansion_keeps_prefix_lookalike_user_columns() {
        // Only the *exact* AU sidecar names (`ua_lb_<i>`, `ua_m_lb`, …) are
        // system-managed; a user column that merely shares the prefix must
        // survive `SELECT *` in deterministic queries.
        let c = catalog();
        c.register(
            "notes",
            Table::from_rows(
                Schema::qualified("notes", ["a", "ua_lb_note", "ua_m_total"]),
                vec![tuple![1i64, "keep me", 9i64]],
            ),
        );
        let q = parse("SELECT * FROM notes").unwrap();
        let plan = plan_query(&q, &c, &RejectAnnotations).unwrap();
        let t = execute(&plan, &c).unwrap();
        assert_eq!(t.schema().arity(), 3, "lookalike columns must survive");
        // The generated sidecar names themselves stay reserved.
        assert!(crate::au::is_au_sidecar_name("ua_lb_0"));
        assert!(crate::au::is_au_sidecar_name("ua_m_lb"));
        assert!(!crate::au::is_au_sidecar_name("ua_lb_note"));
        assert!(!crate::au::is_au_sidecar_name("ua_m_total"));
        assert!(!crate::au::is_au_sidecar_name("ua_lb_"));
    }

    #[test]
    fn comma_join_and_explicit_join_agree() {
        let a = run("SELECT e.name, d.city FROM emp e, dept d WHERE e.dept = d.name");
        let b = run("SELECT e.name, d.city FROM emp e JOIN dept d ON e.dept = d.name");
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }

    #[test]
    fn aggregation() {
        let t = run("SELECT dept, count(*) AS n, sum(salary) AS total \
             FROM emp GROUP BY dept ORDER BY dept");
        assert_eq!(
            t.rows(),
            &[tuple!["eng", 2i64, 180i64], tuple!["ops", 1i64, 60i64]]
        );
    }

    #[test]
    fn aliases_and_case() {
        let t = run(
            "SELECT name, CASE dept WHEN 'eng' THEN 'tech' ELSE 'other' END AS kind \
             FROM emp ORDER BY name LIMIT 2",
        );
        assert_eq!(t.rows(), &[tuple!["ann", "tech"], tuple!["bob", "tech"]]);
    }

    #[test]
    fn union_all_and_distinct() {
        let t = run("SELECT dept FROM emp UNION ALL SELECT dept FROM emp");
        assert_eq!(t.len(), 6);
        let d = run("SELECT DISTINCT dept FROM emp");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn subquery() {
        let t = run(
            "SELECT x.name FROM (SELECT name, salary FROM emp WHERE salary > 70) x \
             WHERE x.salary < 90",
        );
        assert_eq!(t.rows(), &[tuple!["bob"]]);
    }

    #[test]
    fn order_by_source_expression_resolves_to_the_output_column() {
        // `x.salary` is renamed by the projection; ORDER BY may still use
        // the source-qualified form (and the aggregate form below).
        let t = run("SELECT e.name, e.salary AS pay FROM emp e ORDER BY e.salary DESC LIMIT 1");
        assert_eq!(t.rows(), &[tuple!["ann", 100i64]]);
        let t = run("SELECT dept, count(*) FROM emp GROUP BY dept ORDER BY count(*) DESC LIMIT 1");
        assert_eq!(t.rows(), &[tuple!["eng", 2i64]]);
    }

    #[test]
    fn order_by_resolves_output_aliases_before_source_text() {
        // With the alias swap `a AS b, b AS a`, `ORDER BY a` means the
        // *output* column `a` (source b): 50 before 100.
        let c = catalog();
        c.register(
            "t",
            Table::from_rows(
                Schema::qualified("t", ["a", "b"]),
                vec![tuple![1i64, 100i64], tuple![2i64, 50i64]],
            ),
        );
        let q = parse("SELECT a AS b, b AS a FROM t ORDER BY a ASC").unwrap();
        let plan = plan_query(&q, &c, &RejectAnnotations).unwrap();
        let t = execute(&plan, &c).unwrap();
        assert_eq!(t.rows(), &[tuple![2i64, 50i64], tuple![1i64, 100i64]]);
    }

    #[test]
    fn star_expansion_is_name_based_for_qualified_columns() {
        // Positional star expansion silently misaligns once the UA
        // rewriting relocates the marker column; qualified sources must
        // expand to name-based references (see `star_expr`).
        let c = catalog();
        let q = parse("SELECT * FROM emp e, dept d WHERE e.dept = d.name").unwrap();
        let plan = plan_query(&q, &c, &RejectAnnotations).unwrap();
        match &plan {
            Plan::Map { columns, .. } => {
                assert!(
                    columns.iter().all(|col| matches!(col.expr, Expr::Named(_))),
                    "expected name-based star expansion, got {columns:?}"
                );
            }
            other => panic!("expected Map on top, got {other}"),
        }
        assert_eq!(execute(&plan, &c).unwrap().len(), 3);
    }

    #[test]
    fn missing_group_by_reference_errors() {
        let c = catalog();
        let q = parse("SELECT name, count(*) FROM emp GROUP BY dept").unwrap();
        assert!(plan_query(&q, &c, &RejectAnnotations).is_err());
    }

    #[test]
    fn conf_rejected_by_plain_engine() {
        let c = catalog();
        let q = parse("SELECT conf() FROM emp").unwrap();
        assert!(matches!(
            plan_query(&q, &c, &RejectAnnotations),
            Err(EngineError::Sql(_))
        ));
    }

    #[test]
    fn annotations_rejected_without_ua_frontend() {
        let c = catalog();
        let q = parse("SELECT * FROM emp IS TI WITH PROBABILITY (salary)").unwrap();
        assert!(plan_query(&q, &c, &RejectAnnotations).is_err());
    }
}
