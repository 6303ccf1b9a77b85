//! Figures 11–14: the PDBench performance suite.
//!
//! One injection drives all five systems:
//!
//! * **Det** — deterministic BGQP on the engine;
//! * **UA-DB** — rewritten queries over the encoded tables;
//! * **Libkin** — null-aware under-approximation (same executor);
//! * **MayBMS** — possible answers over U-relations;
//! * **MCDB** — tuple bundles with 10 samples.

use crate::report::{fmt_duration, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use ua_baselines::{certain_subset, BundleDb, UDb};
use ua_datagen::pdbench::{inject_db, PdbenchConfig, UncertainDb};
use ua_datagen::queries::{pdbench_queries, pdbench_uncertain_columns};
use ua_datagen::tpch::{generate, TpchConfig};
use ua_engine::plan::Plan;
use ua_engine::storage::{Catalog, Table};
use ua_engine::ua::UaSession;
use ua_engine::ExecMode;

/// Per-query, per-system measurements.
#[derive(Clone, Debug)]
pub struct QueryMeasurement {
    /// Query name (Q1/Q2/Q3).
    pub query: &'static str,
    /// Deterministic runtime.
    pub det: Duration,
    /// UA-DB runtime.
    pub uadb: Duration,
    /// Libkin runtime.
    pub libkin: Duration,
    /// MayBMS runtime (possible answers, no probabilities — footnote 5).
    pub maybms: Duration,
    /// MCDB runtime (10 samples).
    pub mcdb: Duration,
    /// UA-DB result rows.
    pub uadb_rows: usize,
    /// MayBMS result rows (possible answers).
    pub maybms_rows: usize,
    /// Certain rows in the UA-DB result.
    pub uadb_certain: usize,
}

/// One full suite run at a given scale/uncertainty.
pub struct SuiteRun {
    /// The scale factor used.
    pub scale: f64,
    /// The injected uncertainty.
    pub uncertainty: f64,
    /// Per-query measurements.
    pub queries: Vec<QueryMeasurement>,
}

/// Build all system views for one configuration.
pub fn prepare(scale: f64, uncertainty: f64, seed: u64) -> (UncertainDb, Catalog, UaSession) {
    let data = generate(&TpchConfig::new(scale, seed));
    let tables: Vec<(&str, &Table, &[&str])> = data
        .tables()
        .into_iter()
        .map(|(name, table)| (name, table, pdbench_uncertain_columns(name)))
        .collect();
    let uncertain = inject_db(
        &tables,
        &PdbenchConfig {
            uncertainty,
            seed,
            ..Default::default()
        },
    );
    // Deterministic + Libkin catalogs.
    let det_catalog = Catalog::new();
    for (name, table) in &uncertain.bgw {
        det_catalog.register(name.clone(), table.clone());
    }
    for (name, table) in &uncertain.nulls {
        det_catalog.register(format!("{name}__nulls"), table.clone());
    }
    // UA session over the encoded tables, on the row engine like the det
    // baseline it is timed against (`ua_engine::exec::execute`).
    let ua = UaSession::with_mode(ExecMode::Row);
    for (name, table) in &uncertain.encoded {
        ua.register_table(name.clone(), table.clone());
    }
    (uncertain, det_catalog, ua)
}

/// Run the suite once.
pub fn run(scale: f64, uncertainty: f64, seed: u64) -> SuiteRun {
    let (uncertain, det_catalog, ua) = prepare(scale, uncertainty, seed);
    let udb = UDb::from_xdb(&uncertain.xdb);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let bundles = BundleDb::from_xdb(&uncertain.xdb, 10, &mut rng);

    let mut queries = Vec::new();
    for (name, q) in pdbench_queries() {
        let plan = Plan::from_ra(&q);
        let (det, det_result) =
            crate::report::time_it(|| ua_engine::exec::execute(&plan, &det_catalog).expect("det"));
        let (uadb, ua_result) = crate::report::time_it(|| ua.query_ua_ra(&q).expect("ua"));
        // Libkin runs the same plan against the nulled tables.
        let null_q = rename_tables(&q, "__nulls");
        let null_plan = Plan::from_ra(&null_q);
        let (libkin, _libkin_result) =
            crate::report::time_it(|| certain_subset(&null_plan, &det_catalog).expect("libkin"));
        let (maybms, maybms_result) = crate::report::time_it(|| udb.query(&q).expect("maybms"));
        let (mcdb, _mcdb_result) = crate::report::time_it(|| bundles.query(&q).expect("mcdb"));

        let (certain, total) = ua_result.certainty_counts();
        debug_assert_eq!(total, ua_result.table.len());
        let _ = det_result;
        queries.push(QueryMeasurement {
            query: name,
            det,
            uadb,
            libkin,
            maybms,
            mcdb,
            uadb_rows: total,
            maybms_rows: maybms_result.possible_tuples().len(),
            uadb_certain: certain,
        });
    }
    SuiteRun {
        scale,
        uncertainty,
        queries,
    }
}

/// Rewrite base-table names `t` to `t<suffix>` (to aim a query at the
/// nulled copies).
fn rename_tables(q: &ua_data::RaExpr, suffix: &str) -> ua_data::RaExpr {
    use ua_data::RaExpr as E;
    match q {
        E::Table(name) => {
            // Re-alias so qualified column references keep resolving.
            E::Table(format!("{name}{suffix}")).alias(name.clone())
        }
        E::Alias { input, name } => E::Alias {
            input: Box::new(rename_tables(input, suffix)),
            name: name.clone(),
        },
        E::Select { input, predicate } => E::Select {
            input: Box::new(rename_tables(input, suffix)),
            predicate: predicate.clone(),
        },
        E::Project { input, columns } => E::Project {
            input: Box::new(rename_tables(input, suffix)),
            columns: columns.clone(),
        },
        E::Join {
            left,
            right,
            predicate,
        } => E::Join {
            left: Box::new(rename_tables(left, suffix)),
            right: Box::new(rename_tables(right, suffix)),
            predicate: predicate.clone(),
        },
        E::Union { left, right } => E::Union {
            left: Box::new(rename_tables(left, suffix)),
            right: Box::new(rename_tables(right, suffix)),
        },
    }
}

/// Figure 11: runtime vs amount of uncertainty.
pub fn figure11(scale: f64, uncertainties: &[f64], seed: u64) -> String {
    let mut out = String::from(
        "Figure 11: PDBench query runtime vs uncertainty (Det / UA-DB / Libkin / MayBMS / MCDB)\n",
    );
    let mut tables: Vec<TextTable> = pdbench_queries()
        .iter()
        .map(|(name, _)| {
            TextTable::new([
                format!("{name} uncert"),
                "Det".into(),
                "UA-DB".into(),
                "Libkin".into(),
                "MayBMS".into(),
                "MCDB".into(),
            ])
        })
        .collect();
    for &u in uncertainties {
        let run = run(scale, u, seed);
        for (i, m) in run.queries.iter().enumerate() {
            tables[i].row([
                format!("{:.0}%", u * 100.0),
                fmt_duration(m.det),
                fmt_duration(m.uadb),
                fmt_duration(m.libkin),
                fmt_duration(m.maybms),
                fmt_duration(m.mcdb),
            ]);
        }
    }
    for t in tables {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Figure 12: result sizes (#rows), UA-DB vs MayBMS.
pub fn figure12(scale: f64, uncertainties: &[f64], seed: u64) -> String {
    let mut t = TextTable::new([
        "uncert", "UA-Q1", "UA-Q2", "UA-Q3", "MB-Q1", "MB-Q2", "MB-Q3",
    ]);
    for &u in uncertainties {
        let run = run(scale, u, seed);
        t.row([
            format!("{:.0}%", u * 100.0),
            run.queries[0].uadb_rows.to_string(),
            run.queries[1].uadb_rows.to_string(),
            run.queries[2].uadb_rows.to_string(),
            run.queries[0].maybms_rows.to_string(),
            run.queries[1].maybms_rows.to_string(),
            run.queries[2].maybms_rows.to_string(),
        ]);
    }
    format!("Figure 12: query result sizes (#rows)\n{}", t.render())
}

/// Figure 13: percentage of certain answers per query.
pub fn figure13(scale: f64, uncertainties: &[f64], seed: u64) -> String {
    let mut t = TextTable::new(["uncert", "Q1", "Q2", "Q3"]);
    for &u in uncertainties {
        let run = run(scale, u, seed);
        let cell = |m: &QueryMeasurement| {
            if m.uadb_rows == 0 {
                "0 (—)".to_string()
            } else {
                format!(
                    "{} ({:.0}%)",
                    m.uadb_certain,
                    100.0 * m.uadb_certain as f64 / m.uadb_rows as f64
                )
            }
        };
        t.row([
            format!("{:.0}%", u * 100.0),
            cell(&run.queries[0]),
            cell(&run.queries[1]),
            cell(&run.queries[2]),
        ]);
    }
    format!("Figure 13: certain answers in the result\n{}", t.render())
}

/// Figure 14: runtime vs database size at fixed 2% uncertainty.
pub fn figure14(scales: &[f64], seed: u64) -> String {
    let mut out =
        String::from("Figure 14: PDBench query runtime vs database size (2% uncertainty)\n");
    let mut tables: Vec<TextTable> = pdbench_queries()
        .iter()
        .map(|(name, _)| {
            TextTable::new([
                format!("{name} scale"),
                "rows".into(),
                "Det".into(),
                "UA-DB".into(),
                "Libkin".into(),
                "MayBMS".into(),
                "MCDB".into(),
            ])
        })
        .collect();
    for &scale in scales {
        let data_rows = generate(&TpchConfig::new(scale, seed)).total_rows();
        let run = run(scale, 0.02, seed);
        for (i, m) in run.queries.iter().enumerate() {
            tables[i].row([
                format!("{scale}"),
                data_rows.to_string(),
                fmt_duration(m.det),
                fmt_duration(m.uadb),
                fmt_duration(m.libkin),
                fmt_duration(m.maybms),
                fmt_duration(m.mcdb),
            ]);
        }
    }
    for t in tables {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_end_to_end() {
        let run = run(0.0005, 0.05, 3);
        assert_eq!(run.queries.len(), 3);
        for m in &run.queries {
            assert!(
                m.uadb_certain <= m.uadb_rows,
                "{}: certain {} > rows {}",
                m.query,
                m.uadb_certain,
                m.uadb_rows
            );
            assert!(
                m.maybms_rows >= m.uadb_rows.min(1),
                "{}: possible answers can't be fewer than best-guess rows",
                m.query
            );
        }
    }

    #[test]
    fn certain_fraction_decreases_with_uncertainty() {
        let low = run(0.0005, 0.02, 9);
        let high = run(0.0005, 0.30, 9);
        let frac = |r: &SuiteRun, i: usize| {
            let m = &r.queries[i];
            if m.uadb_rows == 0 {
                1.0
            } else {
                m.uadb_certain as f64 / m.uadb_rows as f64
            }
        };
        // Q2 (pure selection) shows the paper's monotone drop most clearly.
        assert!(frac(&high, 1) < frac(&low, 1) + 1e-9);
    }

    #[test]
    fn maybms_result_grows_with_uncertainty() {
        let low = run(0.0005, 0.02, 5);
        let high = run(0.0005, 0.30, 5);
        assert!(
            high.queries[0].maybms_rows > low.queries[0].maybms_rows,
            "possible-answer blowup (Figure 12) not visible: {} vs {}",
            high.queries[0].maybms_rows,
            low.queries[0].maybms_rows
        );
    }
}
