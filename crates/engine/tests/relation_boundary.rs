//! AU `GROUP BY`, global aggregation and `DISTINCT` on the vectorized
//! engine never cross the stream ↔ relation boundary: γ and δ take their
//! input as columns and write their output as columns, so
//! `au.vec.relation_rows` does not move over them.
//!
//! The counter is process-wide, and every other test file runs AU joins
//! that do move it. This file holds one test, so it runs in a process of
//! its own and reads the counter undisturbed.

use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::{ExecMode, Table, UaSession};

#[test]
fn au_grouping_and_distinct_do_not_cross_the_relation_boundary() {
    let s = UaSession::new();
    s.register_table(
        "t",
        Table::from_rows(
            Schema::qualified("t", ["g", "v", "f", "name", "p"]),
            (0..300i64)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int(i % 7),
                        Value::Int(i),
                        Value::float((i % 11) as f64 / 2.0),
                        Value::str(format!("n{}", i % 5)),
                        Value::float(if i % 4 == 0 { 0.5 } else { 1.0 }),
                    ])
                })
                .collect(),
        ),
    );
    s.set_exec_mode(ExecMode::Vectorized);
    s.set_vec_threads(2);
    let x = "t IS TI WITH PROBABILITY (p) x";
    let sweep = [
        format!("SELECT x.g, count(*) AS n, sum(x.v) AS s, avg(x.f) AS a FROM {x} GROUP BY x.g"),
        format!("SELECT x.g, x.name, min(x.f) AS lo, max(x.v) AS hi FROM {x} GROUP BY x.g, x.name"),
        format!("SELECT count(x.v) AS n, sum(x.f) AS s FROM {x}"),
        format!("SELECT count(*) AS n FROM {x} WHERE x.v > 1000"),
        format!("SELECT DISTINCT x.g FROM {x}"),
        format!("SELECT DISTINCT x.g, x.f FROM {x}"),
        format!("SELECT DISTINCT x.name FROM {x}"),
    ];
    let crossed = || ua_obs::global().counter("au.vec.relation_rows").get();
    let before = crossed();
    for sql in &sweep {
        let result = s.query_au(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        assert!(!result.table.is_empty(), "`{sql}` must return rows");
    }
    assert_eq!(
        crossed(),
        before,
        "γ and δ must not send rows across the relation boundary"
    );
}
