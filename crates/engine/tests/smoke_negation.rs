//! Fixed-SQL regression suite for the negation surface: EXCEPT [ALL],
//! LEFT/RIGHT JOIN, NOT EXISTS and NOT IN (including the three-valued
//! NULL-in-subquery case) under det, UA and AU semantics on both engines.
//! The randomized coverage lives in the differential harness; these pin
//! exact row sets and labels on a small hand-checked instance.

use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::{ExecMode, Table, UaSession};

fn session(mode: ExecMode) -> UaSession {
    let s = UaSession::with_mode(mode);
    s.register_table(
        "r",
        Table::from_rows(
            Schema::qualified("r", ["a", "p"]),
            vec![
                Tuple::new(vec![Value::Int(1), Value::float(1.0)]),
                Tuple::new(vec![Value::Int(1), Value::float(1.0)]),
                Tuple::new(vec![Value::Int(2), Value::float(0.6)]),
                Tuple::new(vec![Value::Int(3), Value::float(1.0)]),
                Tuple::new(vec![Value::Null, Value::float(1.0)]),
            ],
        ),
    );
    s.register_table(
        "s",
        Table::from_rows(
            Schema::qualified("s", ["b", "p"]),
            vec![
                Tuple::new(vec![Value::Int(1), Value::float(1.0)]),
                Tuple::new(vec![Value::Int(4), Value::float(0.5)]),
            ],
        ),
    );
    s
}

#[test]
fn det_except_all() {
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        let t = session(mode)
            .query_det("SELECT r.a FROM r EXCEPT ALL SELECT s.b FROM s")
            .unwrap();
        // r.a = {1,1,2,3,NULL} minus s.b = {1,4} -> {1,2,3,NULL}
        assert_eq!(t.len(), 4, "mode={mode:?}");
    }
}

#[test]
fn det_except_distinct() {
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        let t = session(mode)
            .query_det("SELECT r.a FROM r EXCEPT SELECT s.b FROM s")
            .unwrap();
        // distinct unmatched: {2,3,NULL}
        assert_eq!(t.len(), 3, "mode={mode:?}");
    }
}

#[test]
fn det_left_join() {
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        let t = session(mode)
            .query_det("SELECT r.a, s.b FROM r LEFT JOIN s ON r.a = s.b")
            .unwrap();
        // matches: a=1 (x2) with b=1; pads: 2,3,NULL -> 5 rows
        assert_eq!(t.len(), 5, "mode={mode:?}");
        let pads = t
            .rows()
            .iter()
            .filter(|r| r.values()[1] == Value::Null)
            .count();
        assert_eq!(pads, 3, "mode={mode:?}");
    }
}

#[test]
fn det_right_join() {
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        let t = session(mode)
            .query_det("SELECT r.a, s.b FROM r RIGHT JOIN s ON r.a = s.b")
            .unwrap();
        // matches: b=1 with a=1 (x2); pad: b=4 -> 3 rows
        assert_eq!(t.len(), 3, "mode={mode:?}");
    }
}

#[test]
fn det_not_exists() {
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        let t = session(mode)
            .query_det("SELECT r.a FROM r WHERE NOT EXISTS (SELECT s.b FROM s WHERE s.b > 10)")
            .unwrap();
        // subquery empty -> all 5 rows survive
        assert_eq!(t.len(), 5, "mode={mode:?}");
        let t2 = session(mode)
            .query_det("SELECT r.a FROM r WHERE NOT EXISTS (SELECT s.b FROM s)")
            .unwrap();
        assert_eq!(t2.len(), 0, "mode={mode:?}");
    }
}

#[test]
fn det_not_in() {
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        let t = session(mode)
            .query_det("SELECT r.a FROM r WHERE r.a NOT IN (SELECT s.b FROM s)")
            .unwrap();
        // {1,1,2,3,NULL} NOT IN {1,4}: 1s excluded, NULL operand -> unknown
        // (excluded), 2 and 3 survive.
        assert_eq!(t.len(), 2, "mode={mode:?}");
    }
}

#[test]
fn det_not_in_with_null_in_subquery() {
    let s = session(ExecMode::Row);
    s.register_table(
        "sn",
        Table::from_rows(
            Schema::qualified("sn", ["b"]),
            vec![
                Tuple::new(vec![Value::Int(1)]),
                Tuple::new(vec![Value::Null]),
            ],
        ),
    );
    let t = s
        .query_det("SELECT r.a FROM r WHERE r.a NOT IN (SELECT sn.b FROM sn)")
        .unwrap();
    // NULL in the subquery -> NOT IN is never true.
    assert_eq!(t.len(), 0);
}

#[test]
fn ua_except_and_outer_join() {
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        let s = session(mode);
        let r = s
            .query_ua(
                "SELECT x.a FROM r IS TI WITH PROBABILITY (p) x \
                 EXCEPT ALL SELECT y.b FROM s IS TI WITH PROBABILITY (p) y",
            )
            .unwrap();
        // Every output label must be 0 (no upper bounds in UA encodings).
        for row in r.table.rows() {
            assert_eq!(
                *row.values().last().unwrap(),
                Value::Int(0),
                "mode={mode:?}"
            );
        }
        let j = s
            .query_ua(
                "SELECT x.a, y.b FROM r IS TI WITH PROBABILITY (p) x \
                 LEFT JOIN s IS TI WITH PROBABILITY (p) y ON x.a = y.b",
            )
            .unwrap();
        assert!(!j.table.is_empty(), "mode={mode:?}");
    }
}

#[test]
fn ua_engines_agree_on_negation_smoke() {
    let queries = [
        "SELECT x.a FROM r IS TI WITH PROBABILITY (p) x \
         EXCEPT ALL SELECT y.b FROM s IS TI WITH PROBABILITY (p) y",
        "SELECT x.a FROM r IS TI WITH PROBABILITY (p) x \
         EXCEPT SELECT y.b FROM s IS TI WITH PROBABILITY (p) y",
        "SELECT x.a, y.b FROM r IS TI WITH PROBABILITY (p) x \
         LEFT JOIN s IS TI WITH PROBABILITY (p) y ON x.a = y.b",
        "SELECT x.a, y.b FROM r IS TI WITH PROBABILITY (p) x \
         RIGHT JOIN s IS TI WITH PROBABILITY (p) y ON x.a = y.b",
        "SELECT x.a FROM r IS TI WITH PROBABILITY (p) x \
         WHERE x.a NOT IN (SELECT y.b FROM s IS TI WITH PROBABILITY (p) y)",
        "SELECT x.a FROM r IS TI WITH PROBABILITY (p) x \
         WHERE NOT EXISTS (SELECT y.b FROM s IS TI WITH PROBABILITY (p) y WHERE y.b > 10)",
    ];
    for sql in queries {
        for optimizer in [true, false] {
            let row_s = session(ExecMode::Row);
            row_s.set_optimizer_enabled(optimizer);
            let vec_s = session(ExecMode::Vectorized);
            vec_s.set_optimizer_enabled(optimizer);
            let row = row_s
                .query_ua(sql)
                .unwrap_or_else(|e| panic!("row {sql}: {e}"));
            let vec = vec_s
                .query_ua(sql)
                .unwrap_or_else(|e| panic!("vec {sql}: {e}"));
            assert_eq!(
                row.table.rows(),
                vec.table.rows(),
                "optimizer={optimizer}: {sql}"
            );
        }
    }
}

#[test]
fn au_negation_smoke() {
    let queries = [
        "SELECT x.a FROM r IS TI WITH PROBABILITY (p) x \
         EXCEPT ALL SELECT y.b FROM s IS TI WITH PROBABILITY (p) y",
        "SELECT x.a, y.b FROM r IS TI WITH PROBABILITY (p) x \
         LEFT JOIN s IS TI WITH PROBABILITY (p) y ON x.a = y.b",
    ];
    for sql in queries {
        let row = session(ExecMode::Row)
            .query_au(sql)
            .unwrap_or_else(|e| panic!("row {sql}: {e}"));
        let vec = session(ExecMode::Vectorized)
            .query_au(sql)
            .unwrap_or_else(|e| panic!("vec {sql}: {e}"));
        assert_eq!(row.table.schema(), vec.table.schema(), "{sql}");
        assert_eq!(row.table.rows(), vec.table.rows(), "{sql}");
    }
}
