//! The AU-DB frontend: attribute-level uncertainty bounds (`⟦·⟧_AU`).
//!
//! Where [`crate::ua`] implements the paper's `⟦·⟧_UA` rewriting — sound
//! for the positive relational algebra only; `DISTINCT` and aggregation
//! are explicitly future work there — this module serves those queries
//! through the AU-DB model of the authors' follow-up (attribute ranges
//! `[lb, bg, ub]` plus tuple multiplicity-bound triples; see `ua-ranges`).
//!
//! Both executors serve [`UaSession::query_au`] with identical results:
//! the vectorized engine (the default) runs AU as one semantics of its
//! one driver, σ / π / ⋈ / γ / δ native over range column triples, and
//! the row engine — its oracle — interprets each operator over
//! [`AuRelation`]s with the shared `ua_ranges::ops` implementations
//! ([`ua_plan::au`], re-exported here), which the vectorized engine also
//! calls for `−`, `⟕` and keyless / non-equi joins.
//!
//! Source relations enter AU sessions either pre-annotated
//! ([`UaSession::register_au_relation`]) or through the Section 9.2 SQL
//! annotations (`R IS TI …`), whose labeling schemes are lifted to range
//! annotations by [`ti_source_au`], [`x_source_au`] and
//! [`ctable_source_au`] — unlike the UA labelings, rows *outside* the
//! best-guess world are kept (with a zero selected-guess multiplicity)
//! instead of dropped, which is what makes the upper bounds sound.

use crate::ua::{float_of, keep_columns, resolve_encoded, UaSession};
use ua_conditions::{cnf_tautology, is_cnf, parse_condition, VarInterner};
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_data::FxHashMap;
pub use ua_plan::au::*;
use ua_plan::exec::EngineError;
use ua_plan::plan::Plan;
use ua_plan::sql::ast::SourceAnnotation;
use ua_plan::sql::planner::SourceResolver;
use ua_plan::storage::{Catalog, Table};
use ua_plan::Semantics;
use ua_ranges::{decode_rows, AuRelation, AuTuple, MultBound, RangeValue};

/// An AU query result: the flattened encoded representation (selected
/// guesses, per-attribute bound columns, multiplicity triple columns).
#[derive(Clone, Debug)]
pub struct AuResult {
    /// The encoded result table (see `ua_ranges::flattened_schema`).
    pub table: Table,
}

impl AuResult {
    /// Decode into the range-annotated relation.
    pub fn decode(&self) -> AuRelation {
        decode_rows(self.table.schema(), self.table.rows())
            .expect("AU results are produced in encoded form")
    }

    /// The selected-guess world's rows (bg values expanded by bg
    /// multiplicity) under the user schema — what a deterministic query
    /// over the best-guess world returns.
    pub fn sg_table(&self) -> Table {
        let rel = self.decode();
        let mut out = Table::new(rel.schema().clone());
        for row in rel.rows() {
            let t = row.bg_tuple();
            for _ in 0..row.mult.bg {
                out.push(t.clone());
            }
        }
        out
    }

    /// `(certainly-present rows, total rows)` — the AU analogue of the UA
    /// result's certainty counts.
    /// Reads the multiplicity columns in place; a row with `ub = 0`
    /// represents nothing and is not counted, as decoding drops it.
    pub fn certainty_counts(&self) -> (usize, usize) {
        let m = self.table.schema().arity() - 3;
        let mult = |row: &Tuple, i: usize| match row.get(m + i) {
            Some(Value::Int(n)) => *n,
            other => panic!("invalid AU multiplicity {other:?}"),
        };
        let present = self.table.rows().iter().filter(|row| mult(row, 2) != 0);
        present.fold((0, 0), |(certain, total), row| {
            (certain + usize::from(mult(row, 0) >= 1), total + 1)
        })
    }
}

impl UaSession {
    /// Register a range-annotated relation under `name` (stored in the
    /// flattened encoding; [`UaSession::query_au`] decodes it on scan).
    pub fn register_au_relation(&self, name: impl Into<String>, relation: &AuRelation) {
        self.catalog().register(name, au_table(relation));
    }

    /// Run a query under AU semantics: the full plan algebra — including
    /// `DISTINCT` and grouping/aggregation, which `⟦·⟧_UA` is not closed
    /// under — executes over range-annotated sources with sound
    /// attribute-level and multiplicity bounds. `ORDER BY`/`LIMIT` order
    /// and truncate by the selected-guess world (presentation-level).
    pub fn query_au(&self, sql: &str) -> Result<AuResult, EngineError> {
        self.query(sql, Semantics::Au)
            .map(|table| AuResult { table })
    }

    /// `EXPLAIN ANALYZE` for AU queries: the user plan and optimized
    /// physical plan, then the executed operator tree with per-operator
    /// row counts, wall times and est-vs-actual cardinalities. The query
    /// really executes; its result is discarded.
    pub fn explain_analyze_au(&self, sql: &str) -> Result<String, EngineError> {
        self.explain(sql, Semantics::Au, true)
    }
}

/// The TI-DB labeling lifted to range annotations: every tuple keeps point
/// values; the multiplicity triple is `[p ≥ 1, p ≥ 0.5, p > 0]` — the
/// middle component reproduces the UA frontend's best-guess-world rule,
/// while rows below the BGW threshold stay representable with a zero
/// selected-guess multiplicity instead of vanishing.
pub fn ti_source_au(table: &Table, prob_col: &str) -> Result<Table, EngineError> {
    let p_idx = table.schema().resolve(prob_col)?;
    let (keep, cols) = keep_columns(table.schema(), &[p_idx]);
    let mut rel = AuRelation::new(Schema::new(cols));
    for row in table.rows() {
        let p = float_of(row.get(p_idx).expect("resolved index"), prob_col)?;
        if p <= 0.0 {
            continue;
        }
        let values: Vec<RangeValue> = keep
            .iter()
            .map(|&i| RangeValue::point(row.get(i).expect("in range").clone()))
            .collect();
        rel.push(AuTuple {
            values,
            mult: MultBound::new(u64::from(p >= 1.0 - 1e-9), u64::from(p >= 0.5), 1),
        });
    }
    Ok(au_table(&rel))
}

/// The x-DB labeling lifted to range annotations: one AU tuple per
/// x-tuple block — attribute ranges hull the alternatives, the selected
/// guess is the argmax alternative (absent from the SG world when absence
/// is likelier, exactly the UA frontend's rule), `lb = 1` iff the block's
/// mass is 1, `ub = 1` always (one copy per block in any world).
pub fn x_source_au(
    table: &Table,
    xid_col: &str,
    altid_col: &str,
    prob_col: &str,
) -> Result<Table, EngineError> {
    let x_idx = table.schema().resolve(xid_col)?;
    let a_idx = table.schema().resolve(altid_col)?;
    let p_idx = table.schema().resolve(prob_col)?;
    let (keep, cols) = keep_columns(table.schema(), &[x_idx, a_idx, p_idx]);

    let mut blocks: FxHashMap<Value, Vec<(Tuple, f64)>> = FxHashMap::default();
    let mut order: Vec<Value> = Vec::new();
    for row in table.rows() {
        let xid = row.get(x_idx).expect("in range").clone();
        let p = float_of(row.get(p_idx).expect("in range"), prob_col)?;
        let projected: Tuple = keep
            .iter()
            .map(|&i| row.get(i).expect("in range").clone())
            .collect();
        match blocks.get_mut(&xid) {
            Some(b) => b.push((projected, p)),
            None => {
                order.push(xid.clone());
                blocks.insert(xid, vec![(projected, p)]);
            }
        }
    }
    let ordered: Vec<Vec<(Tuple, f64)>> = order
        .into_iter()
        .map(|xid| blocks.remove(&xid).expect("recorded"))
        .collect();
    let rel = AuRelation::from_x_blocks(Schema::new(cols), ordered.iter().map(Vec::as_slice));
    Ok(au_table(&rel))
}

/// The C-table labeling lifted to range annotations: constant rows keep
/// point values (`lb = 1` iff the parsed local condition is a CNF
/// tautology — the UA frontend's certainty rule); rows with variable
/// attributes, which the UA labeling must *drop* from the extracted
/// world, stay representable with unbounded attribute ranges and a zero
/// selected-guess multiplicity.
pub fn ctable_source_au(
    table: &Table,
    variable_cols: &[String],
    condition_col: &str,
) -> Result<Table, EngineError> {
    let lc_idx = table.schema().resolve(condition_col)?;
    let var_idxs: Vec<usize> = variable_cols
        .iter()
        .map(|v| table.schema().resolve(v))
        .collect::<Result<_, _>>()?;
    let mut exclude = var_idxs.clone();
    exclude.push(lc_idx);
    let (keep, cols) = keep_columns(table.schema(), &exclude);

    let mut interner = VarInterner::new();
    let mut rel = AuRelation::new(Schema::new(cols));
    for row in table.rows() {
        let all_constant = var_idxs
            .iter()
            .all(|&i| row.get(i).expect("in range").is_unknown());
        let lc_text = match row.get(lc_idx).expect("in range") {
            Value::Str(s) => s.to_string(),
            Value::Null => String::new(),
            other => {
                return Err(EngineError::Sql(format!(
                    "local condition column must be text, found {other}"
                )))
            }
        };
        let condition = parse_condition(&lc_text, &mut interner)
            .map_err(|e| EngineError::Sql(e.to_string()))?;
        let certain = is_cnf(&condition) && cnf_tautology(&condition) == Some(true);
        let values: Vec<RangeValue> = keep
            .iter()
            .map(|&i| {
                let v = row.get(i).expect("in range").clone();
                if all_constant {
                    RangeValue::point(v)
                } else {
                    RangeValue::top(v)
                }
            })
            .collect();
        rel.push(AuTuple {
            values,
            mult: if all_constant {
                MultBound::new(u64::from(certain), 1, 1)
            } else {
                MultBound::new(0, 0, 1)
            },
        });
    }
    Ok(au_table(&rel))
}

/// Source resolver for AU queries: the Section 9.2 annotation clauses
/// convert through the range labelings.
pub(crate) struct AuResolver;

impl SourceResolver for AuResolver {
    fn resolve(
        &self,
        name: &str,
        annotation: &SourceAnnotation,
        catalog: &Catalog,
    ) -> Result<Plan, EngineError> {
        resolve_encoded("au", name, annotation, catalog, |base| match annotation {
            SourceAnnotation::Ti { probability } => ti_source_au(base, probability),
            SourceAnnotation::X {
                xid,
                altid,
                probability,
            } => x_source_au(base, xid, altid, probability),
            SourceAnnotation::CTable {
                variables,
                condition,
            } => ctable_source_au(base, variables, condition),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ua::tests::geocoder_session;
    use ua_data::tuple;

    #[test]
    fn group_by_count_executes_under_au() {
        let session = geocoder_session();
        let result = session
            .query_au(
                "SELECT state, count(*) AS n FROM \
                 addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) GROUP BY state",
            )
            .expect("AU aggregation executes");
        let rel = result.decode();
        // SG groups: NY (addresses 1, 3, 4) and AZ (address 2).
        assert_eq!(rel.rows().len(), 2);
        let ny = rel
            .rows()
            .iter()
            .find(|r| r.values[0].bg == Value::str("NY"))
            .expect("NY group");
        assert_eq!(ny.values[1].bg, Value::Int(3));
        // Address 2 may flip into NY (alternative Grant Ferry/NY): count
        // can reach 4 in some world. Addresses 1 and 4 are certain, and so
        // is 3 — both its alternatives are NY, which attribute-level
        // bounds capture (the UA labeling's Figure 3d misclassification):
        // certainly at least 3.
        assert!(ny.values[1].contains(&Value::Int(4)));
        assert!(ny.values[1].contains(&Value::Int(3)));
        assert!(!ny.values[1].contains(&Value::Int(2)));
    }

    #[test]
    fn certainty_counts_read_the_marker_and_multiplicity_columns() {
        // UA: certain and uncertain rows, counted against the projection
        // path.
        let ua = crate::UaResult {
            table: Table::from_rows(
                Schema::qualified("r", ["a"]).with_column(ua_core::UA_LABEL_COLUMN),
                vec![tuple![1i64, 1i64], tuple![2i64, 0i64], tuple![3i64, 1i64]],
            ),
        };
        let labels = ua.rows_with_certainty();
        let by_projection = (labels.iter().filter(|(_, c)| *c).count(), labels.len());
        assert_eq!(ua.certainty_counts(), by_projection);
        assert_eq!(ua.certainty_counts(), (2, 3));
        // AU: certain, uncertain and `ub = 0` rows, counted against the
        // decoded relation.
        let row = |v: RangeValue, m: [u64; 3]| {
            ua_ranges::encode_row(&AuTuple {
                values: vec![RangeValue::point(Value::Int(1)), v],
                mult: MultBound::new(m[0], m[1], m[2]),
            })
        };
        let ranged = RangeValue::new(
            ua_ranges::Bound::Val(Value::Int(0)),
            Value::Int(2),
            ua_ranges::Bound::PosInf,
        );
        let au = AuResult {
            table: Table::from_rows(
                ua_ranges::flattened_schema(&Schema::qualified("r", ["a", "b"])),
                vec![
                    row(RangeValue::point(Value::Int(5)), [1, 1, 1]),
                    row(ranged.clone(), [0, 1, 2]),
                    row(RangeValue::null(), [0, 0, 0]),
                    row(ranged, [2, 2, 3]),
                    row(RangeValue::point(Value::Int(7)), [0, 0, 1]),
                ],
            ),
        };
        let rel = au.decode();
        let by_decode = (
            rel.rows().iter().filter(|r| r.mult.lb >= 1).count(),
            rel.rows().len(),
        );
        assert_eq!(au.certainty_counts(), by_decode);
        assert_eq!(au.certainty_counts(), (2, 4));
    }

    #[test]
    fn ua_c_rejected_in_group_by_and_aggregate_args() {
        let session = geocoder_session();
        for sql in [
            "SELECT ua_c, count(*) FROM \
             addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) GROUP BY ua_c",
            "SELECT state, sum(ua_c) FROM \
             addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) GROUP BY state",
            "SELECT state, count(*) FROM \
             addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) \
             GROUP BY state ORDER BY ua_c",
        ] {
            let err = session.query_au(sql);
            assert!(
                matches!(
                    err,
                    Err(EngineError::Schema(
                        ua_data::schema::SchemaError::AmbiguousColumn(_)
                    ))
                ),
                "{sql} must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn ti_source_au_keeps_sub_threshold_rows() {
        let t = Table::from_rows(
            Schema::qualified("r", ["a", "p"]),
            vec![tuple![1i64, 1.0], tuple![2i64, 0.8], tuple![3i64, 0.2]],
        );
        let enc = ti_source_au(&t, "p").unwrap();
        let rel = decode_rows(enc.schema(), enc.rows()).unwrap();
        assert_eq!(rel.rows().len(), 3, "p = 0.2 kept with bg mult 0");
        assert_eq!(rel.rows()[0].mult, MultBound::certain(1));
        assert_eq!(rel.rows()[1].mult, MultBound::new(0, 1, 1));
        assert_eq!(rel.rows()[2].mult, MultBound::new(0, 0, 1));
    }

    #[test]
    fn selection_refines_bounds() {
        let session = geocoder_session();
        let result = session
            .query_au(
                "SELECT id FROM addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) \
                 WHERE state = 'NY' ORDER BY id",
            )
            .unwrap();
        let rel = result.decode();
        // SG rows: 1, 3, 4 (Tucson/AZ is the SG for address 2) — but
        // address 2 is possibly NY, so it appears with bg mult 0.
        let (certain, total) = result.certainty_counts();
        assert_eq!(total, 4);
        // AU improves on UA's Figure 3d here: address 3's two alternatives
        // both project to (3,) with state NY, so the range labeling keeps
        // it certain where the tuple-level labeling could not.
        assert_eq!(certain, 3, "addresses 1, 3 and 4 are certain");
        let sg: Vec<Tuple> = rel
            .rows()
            .iter()
            .filter(|r| r.mult.bg >= 1)
            .map(|r| r.bg_tuple())
            .collect();
        assert_eq!(sg, vec![tuple![1i64], tuple![3i64], tuple![4i64]]);
    }

    #[test]
    fn distinct_executes_under_au() {
        let session = geocoder_session();
        let result = session
            .query_au(
                "SELECT DISTINCT state FROM \
                 addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p)",
            )
            .expect("AU distinct executes");
        let rel = result.decode();
        assert_eq!(rel.rows().len(), 2);
    }
}
