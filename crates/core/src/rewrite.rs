//! The UA query rewriting `⟦·⟧_UA` (paper Figures 8/9, Theorem 7).
//!
//! Given an `RA⁺` query over `ℕ_UA`-relations, [`rewrite_ua`] produces an
//! equivalent query over the *encoded* relations (extra certainty column
//! `C`; see [`crate::encoding`]):
//!
//! ```text
//! ⟦R⟧            = R                         (already encoded)
//! ⟦σ_θ(Q)⟧       = σ_θ(⟦Q⟧)
//! ⟦π_A(Q)⟧       = π_{A,C}(⟦Q⟧)
//! ⟦Q₁ ⋈_θ Q₂⟧    = π_{Sch(Q₁⋈Q₂), min(Q₁.C, Q₂.C) → C}(⟦Q₁⟧ ⋈_θ ⟦Q₂⟧)
//! ⟦Q₁ ∪ Q₂⟧      = ⟦Q₁⟧ ∪ ⟦Q₂⟧
//! ```
//!
//! Theorem 7 — `Q(D_UA) = Enc⁻¹(⟦Q⟧_UA(Enc(D_UA)))` — is verified by the
//! tests of this module and property tests at the workspace level.
//!
//! Invariant maintained by the rewriting: every rewritten (sub)query has
//! exactly one certainty column, named [`UA_LABEL_COLUMN`], in its **last**
//! position, while all other columns keep their original names and
//! qualifiers (so user predicates bind unchanged).

use crate::encoding::UA_LABEL_COLUMN;
use ua_data::algebra::{ProjColumn, RaError, RaExpr};
use ua_data::expr::Expr;
use ua_data::schema::{Column, Schema, SchemaError};

/// Rewrite a UA query into a query over the encoded database.
///
/// `lookup` must return the schema of the *encoded* base tables (i.e.
/// including their `C` column in last position).
pub fn rewrite_ua(
    query: &RaExpr,
    lookup: &dyn Fn(&str) -> Option<Schema>,
) -> Result<RaExpr, RaError> {
    match query {
        RaExpr::Table(name) => {
            let schema = lookup(name).ok_or_else(|| RaError::UnknownTable(name.clone()))?;
            check_encoded(&schema, name)?;
            Ok(RaExpr::Table(name.clone()))
        }
        RaExpr::Alias { input, name } => Ok(RaExpr::Alias {
            input: Box::new(rewrite_ua(input, lookup)?),
            name: name.clone(),
        }),
        RaExpr::Select { input, predicate } => {
            reject_marker_reference(predicate)?;
            Ok(RaExpr::Select {
                input: Box::new(rewrite_ua(input, lookup)?),
                predicate: predicate.clone(),
            })
        }
        RaExpr::Project { input, columns } => {
            for c in columns {
                if c.name().eq_ignore_ascii_case(UA_LABEL_COLUMN) {
                    return Err(RaError::Schema(SchemaError::AmbiguousColumn(
                        UA_LABEL_COLUMN.to_string(),
                    )));
                }
                reject_marker_reference(&c.expr)?;
            }
            let mut out_columns = columns.clone();
            out_columns.push(ProjColumn::with_column(
                Expr::named(UA_LABEL_COLUMN),
                Column::unqualified(UA_LABEL_COLUMN),
            ));
            Ok(RaExpr::Project {
                input: Box::new(rewrite_ua(input, lookup)?),
                columns: out_columns,
            })
        }
        RaExpr::Join {
            left,
            right,
            predicate,
        } => {
            if let Some(p) = predicate {
                reject_marker_reference(p)?;
            }
            let l = rewrite_ua(left, lookup)?;
            let r = rewrite_ua(right, lookup)?;
            let ls = l.schema_with(lookup)?;
            let rs = r.schema_with(lookup)?;
            let la = ls.arity();
            let ra = rs.arity();
            // A positional reference counts user columns: over the encoded
            // `left ++ right`, right-side positions move past the left
            // marker.
            let shift = |p: &Expr| {
                p.map_refs(&|n| Some(n.to_string()), &|i| i + usize::from(i >= la - 1))
                    .expect("names map to themselves")
            };
            let joined = RaExpr::Join {
                left: Box::new(l),
                right: Box::new(r),
                predicate: predicate.as_ref().map(shift),
            };
            // Keep all non-C columns (with their qualifiers), then combine
            // the two C markers with min — a certain join result needs both
            // inputs certain.
            let mut columns: Vec<ProjColumn> = Vec::with_capacity(la + ra - 1);
            for (i, col) in ls.columns().iter().enumerate().take(la - 1) {
                columns.push(ProjColumn::with_column(Expr::Col(i), col.clone()));
            }
            for (j, col) in rs.columns().iter().enumerate().take(ra - 1) {
                columns.push(ProjColumn::with_column(Expr::Col(la + j), col.clone()));
            }
            columns.push(ProjColumn::with_column(
                Expr::Col(la - 1).least(Expr::Col(la + ra - 1)),
                Column::unqualified(UA_LABEL_COLUMN),
            ));
            Ok(RaExpr::Project {
                input: Box::new(joined),
                columns,
            })
        }
        RaExpr::Union { left, right } => Ok(RaExpr::Union {
            left: Box::new(rewrite_ua(left, lookup)?),
            right: Box::new(rewrite_ua(right, lookup)?),
        }),
    }
}

/// Whether a (named, pre-binding) expression references the engine-managed
/// certainty marker [`UA_LABEL_COLUMN`], under any qualifier.
///
/// The marker is bookkeeping of the encoded representation, not part of the
/// user-visible schema: queries that mention it are rejected before either
/// executor runs them.
pub fn expr_mentions_marker(expr: &Expr) -> bool {
    let mut mentioned = false;
    expr.for_each_leaf(&mut |leaf| {
        if let Expr::Named(name) = leaf {
            let base = name.rsplit_once('.').map_or(name.as_str(), |(_, b)| b);
            mentioned |= base.eq_ignore_ascii_case(UA_LABEL_COLUMN);
        }
    });
    mentioned
}

fn reject_marker_reference(expr: &Expr) -> Result<(), RaError> {
    if expr_mentions_marker(expr) {
        Err(RaError::Schema(SchemaError::AmbiguousColumn(
            UA_LABEL_COLUMN.to_string(),
        )))
    } else {
        Ok(())
    }
}

fn check_encoded(schema: &Schema, name: &str) -> Result<(), RaError> {
    let last_is_marker = schema
        .columns()
        .last()
        .is_some_and(|c| c.name.eq_ignore_ascii_case(UA_LABEL_COLUMN));
    if last_is_marker {
        Ok(())
    } else {
        Err(RaError::Schema(SchemaError::UnknownColumn(format!(
            "{name}.{UA_LABEL_COLUMN} (table is not UA-encoded)"
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{decode_relation, encode_database};
    use crate::uadb::UaDb;
    use ua_data::algebra::eval;
    use ua_data::relation::{Database, Relation};
    use ua_data::tuple;

    use ua_semiring::pair::Ua;

    fn sample_uadb() -> UaDb<u64> {
        let mut db: Database<Ua<u64>> = Database::new();
        db.insert(
            "r",
            Relation::from_annotated(
                Schema::qualified("r", ["a", "b"]),
                vec![
                    (tuple![1i64, 10i64], Ua::new(1u64, 1)),
                    (tuple![2i64, 20i64], Ua::new(0u64, 2)),
                    (tuple![3i64, 10i64], Ua::new(2u64, 3)),
                ],
            ),
        );
        db.insert(
            "s",
            Relation::from_annotated(
                Schema::qualified("s", ["b", "c"]),
                vec![
                    (tuple![10i64, "x"], Ua::new(1u64, 1)),
                    (tuple![20i64, "y"], Ua::new(0u64, 1)),
                ],
            ),
        );
        UaDb::from_database(db)
    }

    fn check_theorem7(query: &RaExpr) {
        let ua = sample_uadb();
        let direct = ua.query(query).expect("direct UA evaluation");

        let encoded = encode_database(ua.database());
        let lookup = |name: &str| encoded.get(name).map(|r| r.schema().clone());
        let rewritten = rewrite_ua(query, &lookup).expect("rewriting");
        let via_encoding = decode_relation(&eval(&rewritten, &encoded).expect("encoded eval"));

        assert_eq!(
            direct, via_encoding,
            "Theorem 7 violated for {query}: rewritten plan {rewritten}"
        );
    }

    #[test]
    fn theorem7_selection() {
        check_theorem7(&RaExpr::table("r").select(Expr::named("a").ge(Expr::lit(2i64))));
    }

    #[test]
    fn theorem7_projection() {
        check_theorem7(&RaExpr::table("r").project(["b"]));
    }

    #[test]
    fn theorem7_join() {
        check_theorem7(&RaExpr::table("r").join(
            RaExpr::table("s"),
            Expr::named("r.b").eq(Expr::named("s.b")),
        ));
    }

    /// `Col(1) = Col(2)` is `r.b = s.b` in the user layout `r(a, b) ++
    /// s(b, c)`; unshifted over the encoded inputs it would read `r.ua_c`.
    #[test]
    fn theorem7_positional_join() {
        check_theorem7(&RaExpr::table("r").join(RaExpr::table("s"), Expr::col(1).eq(Expr::col(2))));
    }

    #[test]
    fn theorem7_union() {
        check_theorem7(
            &RaExpr::table("r")
                .project(["b"])
                .union(RaExpr::table("s").project(["b"])),
        );
    }

    #[test]
    fn theorem7_composite() {
        check_theorem7(
            &RaExpr::table("r")
                .join(
                    RaExpr::table("s"),
                    Expr::named("r.b").eq(Expr::named("s.b")),
                )
                .select(Expr::named("a").le(Expr::lit(2i64)))
                .project(["a", "c"]),
        );
    }

    #[test]
    fn theorem7_self_join() {
        check_theorem7(&RaExpr::table("r").alias("r1").join(
            RaExpr::table("r").alias("r2"),
            Expr::named("r1.b").eq(Expr::named("r2.b")),
        ));
    }

    #[test]
    fn unencoded_table_rejected() {
        let q = RaExpr::table("r");
        let lookup = |_: &str| Some(Schema::qualified("r", ["a", "b"]));
        assert!(rewrite_ua(&q, &lookup).is_err());
    }

    #[test]
    fn projecting_the_marker_is_rejected() {
        let q = RaExpr::table("r").project([UA_LABEL_COLUMN]);
        let ua = sample_uadb();
        let encoded = encode_database(ua.database());
        let lookup = |name: &str| encoded.get(name).map(|r| r.schema().clone());
        assert!(rewrite_ua(&q, &lookup).is_err());
    }
}
