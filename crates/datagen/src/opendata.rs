//! Synthetic "open data" datasets mirroring the paper's real-world corpus.
//!
//! The paper evaluates on nine public datasets (Figure 16: Chicago
//! violations/crime/contracts/…, Buffalo shootings, IMLS library survey),
//! cleaned with SparkML imputation whose alternative imputations become the
//! uncertainty. Those portals cannot be scraped here, so [`generate`]
//! produces, for each dataset, a synthetic table matching its **published
//! shape statistics** — row count (scaled down 100×), column count, the
//! percentage of uncertain attribute values `U_attr` and of uncertain rows
//! `U_row` — with missingness *correlated within rows* exactly as the
//! paper's errors are (which preserves the FNR-of-projection behaviour
//! being measured).
//!
//! Uncertain cells carry 2–4 imputation-candidate alternatives; candidate 0
//! (the "imputed best guess") dominates, so the best-guess world is the
//! imputed table.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::storage::Table;
use ua_models::{XDb, XRelation, XTuple};

/// Shape statistics of one dataset (paper Figure 16).
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Dataset name (paper's label).
    pub name: &'static str,
    /// Row count in the paper.
    pub paper_rows: usize,
    /// Row count we generate (paper ÷ 100, clamped).
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Fraction of uncertain attribute values.
    pub attr_uncertainty: f64,
    /// Fraction of uncertain rows.
    pub row_uncertainty: f64,
}

/// The nine datasets of the paper's Figure 16 (rows scaled 100×down).
pub const DATASETS: [DatasetSpec; 9] = [
    DatasetSpec {
        name: "building_violations",
        paper_rows: 1_300_000,
        rows: 13_000,
        cols: 35,
        attr_uncertainty: 0.0082,
        row_uncertainty: 0.128,
    },
    DatasetSpec {
        name: "shootings_buffalo",
        paper_rows: 2_900,
        rows: 2_900,
        cols: 21,
        attr_uncertainty: 0.0024,
        row_uncertainty: 0.021,
    },
    DatasetSpec {
        name: "business_licenses",
        paper_rows: 63_000,
        rows: 6_300,
        cols: 25,
        attr_uncertainty: 0.0139,
        row_uncertainty: 0.140,
    },
    DatasetSpec {
        name: "chicago_crime",
        paper_rows: 6_600_000,
        rows: 16_000,
        cols: 17,
        attr_uncertainty: 0.0021,
        row_uncertainty: 0.009,
    },
    DatasetSpec {
        name: "contracts",
        paper_rows: 94_000,
        rows: 9_400,
        cols: 13,
        attr_uncertainty: 0.0150,
        row_uncertainty: 0.192,
    },
    DatasetSpec {
        name: "food_inspections",
        paper_rows: 169_000,
        rows: 8_450,
        cols: 16,
        attr_uncertainty: 0.0034,
        row_uncertainty: 0.046,
    },
    DatasetSpec {
        name: "graffiti_removal",
        paper_rows: 985_000,
        rows: 9_850,
        cols: 15,
        attr_uncertainty: 0.0009,
        row_uncertainty: 0.008,
    },
    DatasetSpec {
        name: "building_permits",
        paper_rows: 198_000,
        rows: 9_900,
        cols: 19,
        attr_uncertainty: 0.0042,
        row_uncertainty: 0.053,
    },
    DatasetSpec {
        name: "public_library_survey",
        paper_rows: 9_200,
        rows: 9_200,
        cols: 40,
        attr_uncertainty: 0.0119,
        row_uncertainty: 0.142,
    },
];

/// A generated dataset with all derived views.
#[derive(Clone, Debug)]
pub struct OpenDataset {
    /// The spec it was generated from.
    pub spec: DatasetSpec,
    /// The imputed (best-guess) table.
    pub bgw: Table,
    /// The x-DB with imputation alternatives.
    pub xdb: XDb,
    /// Measured fraction of uncertain cells.
    pub measured_attr_uncertainty: f64,
    /// Measured fraction of uncertain rows.
    pub measured_row_uncertainty: f64,
}

fn synth_value(col: usize, row: usize, rng: &mut StdRng) -> Value {
    // Column type by index: id, then a rotating mix of categorical strings
    // (small domains, so projections collide — essential for duplicate
    // structure), integers and floats.
    match col % 4 {
        0 => Value::Int(row as i64),
        1 => Value::str(format!("cat{}_{}", col, rng.gen_range(0..24))),
        2 => Value::Int(rng.gen_range(0..1000)),
        _ => Value::float((rng.gen_range(0..100_000) as f64) / 100.0),
    }
}

fn imputation_alternatives(v: &Value, rng: &mut StdRng) -> Vec<Value> {
    let k = rng.gen_range(2..=4usize);
    let mut out = vec![v.clone()];
    for j in 1..k {
        out.push(match v {
            Value::Int(i) => Value::Int(i + j as i64),
            Value::Float(f) => Value::float(f.get() + j as f64),
            Value::Str(s) => Value::str(format!("{s}~imp{j}")),
            other => other.clone(),
        });
    }
    out
}

/// Generate one dataset.
pub fn generate(spec: &DatasetSpec, seed: u64) -> OpenDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let columns: Vec<String> = (0..spec.cols)
        .map(|c| {
            if c == 0 {
                "id".to_string()
            } else {
                format!("a{c}")
            }
        })
        .collect();
    let schema = Schema::qualified(spec.name, columns.iter().map(String::as_str));

    // Per-row probability of being uncertain, and per-cell probability
    // within an uncertain row chosen so the expected cell rate matches.
    let row_p = spec.row_uncertainty;
    let cell_p = (spec.attr_uncertainty / row_p.max(1e-9)).clamp(0.0, 1.0);

    let mut xrel = XRelation::new(schema.clone());
    let mut bgw_rows = Vec::with_capacity(spec.rows);
    let mut uncertain_cells = 0usize;
    let mut uncertain_rows = 0usize;

    for r in 0..spec.rows {
        let values: Vec<Value> = (0..spec.cols)
            .map(|c| synth_value(c, r, &mut rng))
            .collect();
        let row = Tuple::new(values);
        bgw_rows.push(row.clone());

        let row_uncertain = rng.gen::<f64>() < row_p;
        if !row_uncertain {
            xrel.push(XTuple::probabilistic(vec![(row, 1.0)]));
            continue;
        }
        // Mark cells (never the id column), ensuring at least one.
        let mut cells: Vec<(usize, Vec<Value>)> = Vec::new();
        for c in 1..spec.cols {
            if rng.gen::<f64>() < cell_p {
                let alts = imputation_alternatives(row.get(c).expect("in range"), &mut rng);
                cells.push((c, alts));
            }
        }
        if cells.is_empty() {
            let c = rng.gen_range(1..spec.cols);
            let alts = imputation_alternatives(row.get(c).expect("in range"), &mut rng);
            cells.push((c, alts));
        }
        uncertain_rows += 1;
        uncertain_cells += cells.len();

        // Alternatives: combo 0 = imputed values; up to 4 total.
        let mut combos = vec![row.clone()];
        let n_alts = cells
            .iter()
            .map(|(_, a)| a.len())
            .try_fold(1usize, |acc, n| acc.checked_mul(n))
            .unwrap_or(usize::MAX)
            .min(4);
        let mut attempts = 0;
        while combos.len() < n_alts && attempts < 40 {
            attempts += 1;
            let mut values: Vec<Value> = row.values().to_vec();
            for (c, alts) in &cells {
                values[*c] = alts[rng.gen_range(0..alts.len())].clone();
            }
            let combo = Tuple::new(values);
            if !combos.contains(&combo) {
                combos.push(combo);
            }
        }
        let k = combos.len();
        let with_probs: Vec<(Tuple, f64)> = if k == 1 {
            vec![(combos.remove(0), 1.0)]
        } else {
            let rest = 0.5 / (k - 1) as f64;
            combos
                .into_iter()
                .enumerate()
                .map(|(j, t)| (t, if j == 0 { 0.5 } else { rest }))
                .collect()
        };
        xrel.push(XTuple::probabilistic(with_probs));
    }

    let mut xdb = XDb::new();
    xdb.insert(spec.name, xrel);

    OpenDataset {
        spec: *spec,
        bgw: Table::from_rows(schema, bgw_rows),
        xdb,
        measured_attr_uncertainty: uncertain_cells as f64 / (spec.rows * (spec.cols - 1)) as f64,
        measured_row_uncertainty: uncertain_rows as f64 / spec.rows as f64,
    }
}

/// Find a dataset spec by name.
pub fn spec(name: &str) -> Option<&'static DatasetSpec> {
    DATASETS.iter().find(|d| d.name == name)
}

// ---------------------------------------------------------------------------
// Chicago-like tables for the paper's "real queries" Q1–Q5 (Section 11.4).
// ---------------------------------------------------------------------------

/// `crime(id, case_number, iucr, district, longitude, latitude, x_coordinate,
/// y_coordinate)`.
pub fn crime_table(rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let iucr_codes = [820i64, 486, 1320, 110, 610, 2820];
    Table::from_rows(
        Schema::qualified(
            "crime",
            [
                "id",
                "case_number",
                "iucr",
                "district",
                "longitude",
                "latitude",
                "x_coordinate",
                "y_coordinate",
            ],
        ),
        (0..rows)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::str(format!("HZ{i:06}")),
                    Value::Int(iucr_codes[rng.gen_range(0..iucr_codes.len())]),
                    Value::str(format!("{:03}", rng.gen_range(1..=25))),
                    Value::float(-87.9 + rng.gen::<f64>() * 0.4),
                    Value::float(41.6 + rng.gen::<f64>() * 0.4),
                    // Coordinates on a dense city grid so Q5's ±100-unit
                    // window finds matches (the paper's district 8 / '008'
                    // areas overlap spatially).
                    Value::Int(rng.gen_range(1_100_000..1_103_000)),
                    Value::Int(rng.gen_range(1_810_000..1_813_000)),
                ])
            })
            .collect(),
    )
}

/// `graffiti(street_address, zip_code, status, police_district,
/// x_coordinate, y_coordinate, service_request_number, community_area)`.
pub fn graffiti_table(rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let statuses = ["Open", "Completed", "Open - Dup"];
    Table::from_rows(
        Schema::qualified(
            "graffiti",
            [
                "street_address",
                "zip_code",
                "status",
                "police_district",
                "x_coordinate",
                "y_coordinate",
                "service_request_number",
                "community_area",
            ],
        ),
        (0..rows)
            .map(|i| {
                Tuple::new(vec![
                    Value::str(format!("{} W Main St", 100 + i)),
                    Value::Int(60601 + rng.gen_range(0i64..60)),
                    Value::str(statuses[rng.gen_range(0..statuses.len())]),
                    Value::Int(rng.gen_range(1..=25)),
                    Value::Int(rng.gen_range(1_100_000..1_103_000)),
                    Value::Int(rng.gen_range(1_810_000..1_813_000)),
                    Value::str(format!("SR{i:07}")),
                    Value::Int(rng.gen_range(1..=77)),
                ])
            })
            .collect(),
    )
}

/// `foodinspections(inspection_date, address, zip, results, risk)`.
pub fn food_table(rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let results = ["Pass", "Pass w/ Conditions", "Fail"];
    let risks = ["Risk 1 (High)", "Risk 2 (Medium)", "Risk 3 (Low)"];
    Table::from_rows(
        Schema::qualified(
            "foodinspections",
            ["inspection_date", "address", "zip", "results", "risk"],
        ),
        (0..rows)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(17_000 + rng.gen_range(0i64..3000)),
                    Value::str(format!("{} N State St", 1 + i)),
                    Value::Int(60601 + rng.gen_range(0i64..60)),
                    Value::str(results[rng.gen_range(0..results.len())]),
                    Value::str(risks[rng.gen_range(0..risks.len())]),
                ])
            })
            .collect(),
    )
}

/// The paper's five real queries (Section 11.4) in our SQL dialect.
pub fn real_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "Q1",
            "SELECT id, case_number, \
             CASE iucr WHEN 820 THEN 'Theft' WHEN 486 THEN 'Domestic Battery' \
                       WHEN 1320 THEN 'Criminal Damage' END AS crime_type \
             FROM crime WHERE iucr = 820 OR iucr = 486 OR iucr = 1320",
        ),
        (
            "Q2",
            "SELECT id, case_number, longitude, latitude FROM crime \
             WHERE longitude BETWEEN -87.674 AND -87.619 \
               AND latitude BETWEEN 41.892 AND 41.903",
        ),
        (
            "Q3",
            "SELECT street_address, zip_code, status FROM graffiti \
             WHERE status = 'Open'",
        ),
        (
            "Q4",
            "SELECT inspection_date, address, zip FROM foodinspections \
             WHERE results = 'Pass w/ Conditions' AND risk = 'Risk 1 (High)'",
        ),
        (
            "Q5",
            "SELECT c.id, c.case_number, c.iucr, g.status, \
                    g.service_request_number, g.community_area \
             FROM (SELECT * FROM graffiti WHERE police_district = 8) g, \
                  (SELECT * FROM crime WHERE district = '008') c \
             WHERE c.x_coordinate < g.x_coordinate + 100 \
               AND c.x_coordinate > g.x_coordinate - 100 \
               AND c.y_coordinate < g.y_coordinate + 100 \
               AND c.y_coordinate > g.y_coordinate - 100",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_specs() {
        for spec in &DATASETS[..3] {
            let small = DatasetSpec {
                rows: 1500,
                ..*spec
            };
            let d = generate(&small, 9);
            assert_eq!(d.bgw.len(), 1500);
            assert_eq!(d.bgw.schema().arity(), spec.cols);
            assert!(
                (d.measured_row_uncertainty - spec.row_uncertainty).abs()
                    < 0.6 * spec.row_uncertainty + 0.01,
                "{}: row uncertainty {} vs target {}",
                spec.name,
                d.measured_row_uncertainty,
                spec.row_uncertainty
            );
        }
    }

    #[test]
    fn uncertainty_is_row_correlated() {
        let spec = DatasetSpec {
            rows: 3000,
            ..DATASETS[2]
        };
        let d = generate(&spec, 5);
        // All uncertain cells live in uncertain rows, so the conditional
        // cell-rate within uncertain rows exceeds the global rate.
        let global = d.measured_attr_uncertainty;
        let conditional = global / d.measured_row_uncertainty.max(1e-9);
        assert!(conditional > 2.0 * global);
    }

    #[test]
    fn bgw_equals_imputed_alternative_zero() {
        let spec = DatasetSpec {
            rows: 500,
            ..DATASETS[1]
        };
        let d = generate(&spec, 3);
        let bgw = d.xdb.best_guess_world();
        let rel = bgw.get(spec.name).unwrap();
        assert_eq!(rel.total_annotation() as usize, 500);
        for row in d.bgw.rows().iter().take(50) {
            assert!(
                rel.annotation(row) > 0,
                "imputed row {row} missing from BGW"
            );
        }
    }

    #[test]
    fn chicago_tables_support_real_queries() {
        let c = crime_table(200, 1);
        assert_eq!(c.schema().arity(), 8);
        let g = graffiti_table(100, 2);
        assert!(g
            .rows()
            .iter()
            .any(|r| r.get(2) == Some(&Value::str("Open"))));
        let f = food_table(100, 3);
        assert_eq!(f.schema().arity(), 5);
        assert_eq!(real_queries().len(), 5);
    }
}
