//! `UaSession`-driven tests of the vectorized executor. They live here, not
//! in `src/`, because `ua-engine` depends on this crate: a unit test linking
//! the session would link a second copy of `ua-vecexec`.

use ua_data::schema::Schema;
use ua_data::tuple;
use ua_engine::{ExecMode, Table, UaSession};

#[test]
fn session_opt_in_end_to_end() {
    let session = UaSession::new();
    assert_eq!(session.exec_mode(), ExecMode::Vectorized);
    session.set_exec_mode(ExecMode::Vectorized);
    assert_eq!(session.exec_mode(), ExecMode::Vectorized);
    session.register_table(
        "addr",
        Table::from_rows(
            Schema::qualified("addr", ["xid", "aid", "p", "id", "locale"]),
            vec![
                tuple![1i64, 1i64, 1.0, 1i64, "Lasalle"],
                tuple![2i64, 1i64, 0.6, 2i64, "Tucson"],
                tuple![2i64, 2i64, 0.4, 2i64, "Grant Ferry"],
            ],
        ),
    );
    let result = session
        .query_ua("SELECT id, locale FROM addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p)")
        .unwrap();
    let rows = result.rows_with_certainty();
    assert_eq!(rows.len(), 2);
    let certain: Vec<bool> = {
        let mut sorted = rows.clone();
        sorted.sort();
        sorted.into_iter().map(|(_, c)| c).collect()
    };
    assert_eq!(certain, vec![true, false]);
}

#[test]
fn vectorized_au_matches_row_au() {
    let session = UaSession::new();
    session.register_table(
        "t",
        Table::from_rows(
            Schema::qualified("t", ["g", "v", "p"]),
            vec![
                tuple![1i64, 10i64, 1.0],
                tuple![1i64, 20i64, 0.7],
                tuple![2i64, 30i64, 0.4],
                tuple![2i64, 40i64, 1.0],
            ],
        ),
    );
    for sql in [
        "SELECT g, v FROM t IS TI WITH PROBABILITY (p) x WHERE x.v >= 15",
        "SELECT g, count(*) AS n, sum(v) AS s FROM t IS TI WITH PROBABILITY (p) x GROUP BY g",
        "SELECT DISTINCT g FROM t IS TI WITH PROBABILITY (p) x",
        "SELECT g, v + 1 AS w FROM t IS TI WITH PROBABILITY (p) x ORDER BY w DESC LIMIT 2",
        "SELECT g, min(v) AS lo, max(v) AS hi, avg(v) AS m FROM t IS TI WITH PROBABILITY (p) x GROUP BY g",
        // Non-equi and keyless joins exercise the pair loop over chunk
        // views, one probe-row range per task, against the row engine's
        // one pass over its relations.
        "SELECT x.v, y.v FROM t IS TI WITH PROBABILITY (p) x, \
         t IS TI WITH PROBABILITY (p) y WHERE x.v < y.v",
        "SELECT x.g, y.g FROM t IS TI WITH PROBABILITY (p) x, \
         t IS TI WITH PROBABILITY (p) y",
    ] {
        let row = {
            session.set_exec_mode(ExecMode::Row);
            session
                .query_au(sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"))
        };
        let vec = {
            session.set_exec_mode(ExecMode::Vectorized);
            session
                .query_au(sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"))
        };
        assert_eq!(row.table.schema(), vec.table.schema(), "{sql}");
        assert_eq!(row.table.rows(), vec.table.rows(), "{sql}");
    }
}

#[test]
fn au_batch_native_ops_do_not_bump_fallback_counters() {
    let session = UaSession::new();
    session.register_table(
        "s",
        Table::from_rows(
            Schema::qualified("s", ["k", "v", "p"]),
            vec![
                tuple![1i64, 5i64, 0.9],
                tuple![2i64, 6i64, 1.0],
                tuple![2i64, 7i64, 0.5],
            ],
        ),
    );
    session.register_table(
        "d",
        Table::from_rows(
            Schema::qualified("d", ["k", "name", "q"]),
            vec![tuple![1i64, "one", 1.0], tuple![2i64, "two", 0.8]],
        ),
    );
    session.set_exec_mode(ExecMode::Vectorized);
    let counters = [
        "au.vec.fallback.join",
        "au.vec.fallback.hash_join",
        "au.vec.fallback.aggregate",
        "au.vec.fallback.sort",
        "au.vec.fallback.limit",
        "au.vec.fallback.top_k",
        "au.vec.fallback.union_all",
        "au.vec.fallback.distinct",
    ];
    let before: Vec<u64> = counters
        .iter()
        .map(|c| ua_obs::global().counter(c).get())
        .collect();
    for sql in [
        "SELECT x.k, sum(x.v) AS s FROM s IS TI WITH PROBABILITY (p) x GROUP BY x.k",
        "SELECT x.v, y.name FROM s IS TI WITH PROBABILITY (p) x, \
         d IS TI WITH PROBABILITY (q) y WHERE x.k = y.k",
        "SELECT x.v FROM s IS TI WITH PROBABILITY (p) x ORDER BY x.v DESC LIMIT 2",
        "SELECT x.k FROM s IS TI WITH PROBABILITY (p) x WHERE x.v < 6 \
         UNION ALL SELECT x.k FROM s IS TI WITH PROBABILITY (p) x WHERE x.v >= 6",
        "SELECT DISTINCT x.k FROM s IS TI WITH PROBABILITY (p) x",
    ] {
        session
            .query_au(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    let after: Vec<u64> = counters
        .iter()
        .map(|c| ua_obs::global().counter(c).get())
        .collect();
    assert_eq!(
        before, after,
        "batch-native AU operators must not fall back"
    );
}
