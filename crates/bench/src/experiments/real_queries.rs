//! Figure 17: the five "real" queries — UA overhead vs deterministic
//! processing, and false-negative rates against exact certain answers.
//!
//! Ground truth exploits that every query projects a key (crime id,
//! street address, …): each result tuple is derived from exactly one
//! x-tuple (or one pair, for Q5), so it is certain iff **all** alternatives
//! of its witnesses produce it. That criterion is exact here and PTIME.

use crate::report::{time_avg, TextTable};
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_data::FxHashSet;
use ua_datagen::opendata::{crime_table, food_table, graffiti_table, real_queries};
use ua_datagen::pdbench::{inject, PdbenchConfig};
use ua_engine::exec::execute;
use ua_engine::plan::Plan;
use ua_engine::sql::{parse, plan_query, RejectAnnotations};
use ua_engine::storage::{Catalog, Table};
use ua_engine::ua::UaSession;
use ua_engine::ExecMode;
use ua_models::{XDb, XRelation};

/// Per-query results.
#[derive(Clone, Debug)]
pub struct RealQueryResult {
    /// Query label (Q1–Q5).
    pub name: &'static str,
    /// Relative UA overhead (`ua/det − 1`).
    pub overhead: f64,
    /// False-negative rate against exact certain answers.
    pub error_rate: f64,
    /// Result size (rows).
    pub rows: usize,
}

struct TestBed {
    det: Catalog,
    ua: UaSession,
    xdb: XDb,
}

fn build_testbed(rows_scale: usize, seed: u64) -> TestBed {
    let tables: Vec<(&str, Table, &[&str])> = vec![
        (
            "crime",
            crime_table(8 * rows_scale, seed),
            &["iucr", "longitude", "latitude"],
        ),
        (
            "graffiti",
            graffiti_table(3 * rows_scale, seed + 1),
            &["status", "community_area"],
        ),
        (
            "foodinspections",
            food_table(3 * rows_scale, seed + 2),
            &["results", "risk"],
        ),
    ];
    let det = Catalog::new();
    // The row engine, like the det baseline it is timed against.
    let ua = UaSession::with_mode(ExecMode::Row);
    let mut xdb = XDb::new();
    for (name, table, eligible) in tables {
        let u = inject(
            name,
            &table,
            eligible,
            &PdbenchConfig {
                // Matches the real datasets' low attribute-uncertainty
                // (Figure 16: 0.1–1.5% of values).
                uncertainty: 0.015,
                max_values: 3,
                max_alternatives: 4,
                seed,
            },
        );
        det.register(name, u.bgw[name].clone());
        ua.register_table(name, u.encoded[name].clone());
        xdb.insert(name, u.xdb.get(name).expect("injected").clone());
    }
    TestBed { det, ua, xdb }
}

/// Exact certain answers of a single-table SPJ query: evaluate the plan on
/// each alternative of each non-optional x-tuple in isolation; the x-tuple
/// certainly contributes the tuples all alternatives agree on.
fn certain_single_table(plan: &Plan, table_name: &str, xrel: &XRelation) -> FxHashSet<Tuple> {
    let mut certain = FxHashSet::default();
    let catalog = Catalog::new();
    for xt in xrel.xtuples() {
        if xt.optional {
            continue;
        }
        let mut agreed: Option<Vec<Tuple>> = None;
        let mut all_agree = true;
        for alt in &xt.alternatives {
            catalog.register(
                table_name,
                Table::from_rows(xrel.schema().clone(), vec![alt.tuple.clone()]),
            );
            let result = execute(plan, &catalog).expect("singleton eval");
            let rows = result.sorted_rows();
            match &agreed {
                None => agreed = Some(rows),
                Some(prev) => {
                    if *prev != rows {
                        all_agree = false;
                        break;
                    }
                }
            }
        }
        if all_agree {
            if let Some(rows) = agreed {
                certain.extend(rows);
            }
        }
    }
    certain
}

/// Exact certain answers of Q5 (the crime ⋈ graffiti query): the join
/// predicate touches only deterministic columns, so the matched pairs are
/// fixed; a pair certainly contributes iff all alternative combinations
/// project identically.
fn certain_q5(crime: &XRelation, graffiti: &XRelation) -> FxHashSet<Tuple> {
    let cs = crime.schema();
    let gs = graffiti.schema();
    let col = |s: &ua_data::Schema, n: &str| s.resolve(n).expect("column");
    let (c_district, c_x, c_y) = (
        col(cs, "district"),
        col(cs, "x_coordinate"),
        col(cs, "y_coordinate"),
    );
    let (g_district, g_x, g_y) = (
        col(gs, "police_district"),
        col(gs, "x_coordinate"),
        col(gs, "y_coordinate"),
    );
    let proj_c = [col(cs, "id"), col(cs, "case_number"), col(cs, "iucr")];
    let proj_g = [
        col(gs, "status"),
        col(gs, "service_request_number"),
        col(gs, "community_area"),
    ];

    let int_of = |v: &Value| match v {
        Value::Int(i) => *i,
        other => panic!("expected int, got {other}"),
    };

    let mut certain = FxHashSet::default();
    for g in graffiti.xtuples().iter().filter(|x| !x.optional) {
        let g0 = &g.alternatives[0].tuple;
        if int_of(&g0[g_district]) != 8 {
            continue;
        }
        for c in crime.xtuples().iter().filter(|x| !x.optional) {
            let c0 = &c.alternatives[0].tuple;
            if c0[c_district] != Value::str("008") {
                continue;
            }
            let (gx, gy) = (int_of(&g0[g_x]), int_of(&g0[g_y]));
            let (cx, cy) = (int_of(&c0[c_x]), int_of(&c0[c_y]));
            if !((cx - gx).abs() < 100 && (cy - gy).abs() < 100) {
                continue;
            }
            // Matched pair: check all alternative combos agree on the
            // projection.
            let mut tuples: FxHashSet<Tuple> = FxHashSet::default();
            for ca in &c.alternatives {
                for ga in &g.alternatives {
                    let mut values: Vec<Value> =
                        proj_c.iter().map(|&i| ca.tuple[i].clone()).collect();
                    values.extend(proj_g.iter().map(|&i| ga.tuple[i].clone()));
                    tuples.insert(Tuple::new(values));
                }
            }
            if tuples.len() == 1 {
                certain.extend(tuples);
            }
        }
    }
    certain
}

/// Run the Figure 17 experiment.
pub fn run(rows_scale: usize, seed: u64) -> Vec<RealQueryResult> {
    let bed = build_testbed(rows_scale, seed);
    let mut out = Vec::new();
    for (name, sql) in real_queries() {
        let ast = parse(sql).expect("paper query parses");
        let det_plan = ua_engine::optimize::push_filters(
            plan_query(&ast, &bed.det, &RejectAnnotations).expect("det plan"),
            &bed.det,
        );
        let (det_time, det_result) = time_avg(3, || execute(&det_plan, &bed.det).expect("det run"));
        let (ua_time, ua_result) = time_avg(3, || bed.ua.query_ua(sql).expect("ua run"));

        // Ground truth.
        let certain: FxHashSet<Tuple> = match name {
            "Q5" => certain_q5(
                bed.xdb.get("crime").expect("crime"),
                bed.xdb.get("graffiti").expect("graffiti"),
            ),
            _ => {
                let table_name = match name {
                    "Q1" | "Q2" => "crime",
                    "Q3" => "graffiti",
                    _ => "foodinspections",
                };
                certain_single_table(
                    &det_plan,
                    table_name,
                    bed.xdb.get(table_name).expect("relation"),
                )
            }
        };
        let labeled: FxHashSet<Tuple> = ua_result
            .rows_with_certainty()
            .into_iter()
            .filter(|(_, c)| *c)
            .map(|(t, _)| t)
            .collect();
        // c-soundness sanity: everything labeled certain must be certain.
        for t in &labeled {
            debug_assert!(certain.contains(t), "label not c-sound for {t} in {name}");
        }
        let missed = certain.iter().filter(|t| !labeled.contains(*t)).count();
        let error_rate = if certain.is_empty() {
            0.0
        } else {
            missed as f64 / certain.len() as f64
        };
        out.push(RealQueryResult {
            name,
            overhead: ua_time.as_secs_f64() / det_time.as_secs_f64().max(1e-12) - 1.0,
            error_rate,
            rows: det_result.len(),
        });
    }
    out
}

/// Render the Figure 17 table.
pub fn format(results: &[RealQueryResult]) -> String {
    let mut t = TextTable::new(["", "Q1", "Q2", "Q3", "Q4", "Q5"]);
    t.row(
        std::iter::once("Overhead".to_string()).chain(
            results
                .iter()
                .map(|r| format!("{:.2}%", r.overhead * 100.0)),
        ),
    );
    t.row(
        std::iter::once("Error Rate".to_string()).chain(
            results
                .iter()
                .map(|r| format!("{:.2}%", r.error_rate * 100.0)),
        ),
    );
    t.row(
        std::iter::once("Result rows".to_string())
            .chain(results.iter().map(|r| r.rows.to_string())),
    );
    format!(
        "Figure 17: real queries — UA overhead and error rate\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_queries_run_with_low_error() {
        let results = run(60, 5);
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(
                r.error_rate <= 0.25,
                "{}: error rate {} suspiciously high",
                r.name,
                r.error_rate
            );
            assert!(r.error_rate >= 0.0);
        }
    }
}
