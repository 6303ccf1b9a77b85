//! EXPLAIN ANALYZE and the engine-wide metrics registry.
//!
//! Runs a 3-way join + GROUP BY on both executors, prints the
//! instrumented plan tree (per-operator actual rows, wall time, and the
//! planner's estimated cardinalities), reads the same stats back
//! programmatically via `last_query_stats()`, shows a UA join's tree on
//! both executors (one `⟦·⟧_UA`-rewritten plan, `certain_rows` per
//! operator), an AU `NOT IN` and an AU keyless join selecting straight off
//! the column chunks, and dumps the global metrics registry — including
//! the AU fallback audit and the planner's est-vs-actual join feedback
//! counters.
//!
//! Run with `cargo run --example observability`.

use uadb::data::{tuple, Schema};
use uadb::engine::{ExecMode, Table, UaSession};

fn main() {
    let session = UaSession::new();

    // orders ⋈ cust ⋈ dept, small but joinful.
    session.register_table(
        "orders",
        Table::from_rows(
            Schema::qualified("orders", ["ok", "ck", "total"]),
            (0..400i64)
                .map(|i| tuple![i, (i * 7) % 80, (i * 13) % 500])
                .collect(),
        ),
    );
    session.register_table(
        "cust",
        Table::from_rows(
            Schema::qualified("cust", ["ck", "dk"]),
            (0..80i64).map(|i| tuple![i, i % 6]).collect(),
        ),
    );
    session.register_table(
        "dept",
        Table::from_rows(
            Schema::qualified("dept", ["dk", "region"]),
            (0..6i64).map(|i| tuple![i, i % 3]).collect(),
        ),
    );
    // Collected table/column statistics sharpen the `est=` column.
    for t in ["orders", "cust", "dept"] {
        session.catalog().analyze(t).expect("analyze");
    }

    let sql = "SELECT d.region, count(*) AS n, sum(o.total) AS s \
               FROM orders o, cust c, dept d \
               WHERE o.ck = c.ck AND c.dk = d.dk AND o.total >= 100 \
               GROUP BY d.region";

    // 1. EXPLAIN ANALYZE: plan + per-operator execution tree, on both
    //    engines. The vectorized report adds batch counts and the
    //    morsel-pool line (tasks, steals, merge wait).
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        session.set_exec_mode(mode);
        println!("──── EXPLAIN ANALYZE ({mode:?}) ────");
        println!("{}\n", session.explain_analyze_det(sql).expect("analyze"));
    }

    // 2. The same stats, programmatically: enable collection, run the
    //    query, read the span tree off the session.
    session.set_stats_enabled(true);
    let result = session.query_det(sql).expect("query");
    let stats = session.last_query_stats().expect("stats");
    println!("──── last_query_stats() ────");
    println!(
        "engine={} semantics={} result_rows={}",
        stats.engine,
        stats.semantics,
        result.len()
    );
    stats.root.walk(&mut |op| {
        let est = op.est_rows.map_or("?".into(), |e| e.to_string());
        println!(
            "  {:<12} rows={:<6} est={:<6} self={}ns",
            op.name,
            op.rows_out,
            est,
            op.self_ns()
        );
    });
    println!("as JSON: {}\n", stats.to_json());

    // 3. An AU `NOT IN` on the vectorized engine: its outer join selects
    //    straight off the column chunks, and the anti-join's `IS NULL`
    //    filter reports `rowwise_rows=0`.
    //    `items` carries a tuple probability `p`, so `IS TI` reads it as a
    //    tuple-independent source with uncertain rows.
    session.register_table(
        "items",
        Table::from_rows(
            Schema::qualified("items", ["id", "grp", "p"]),
            (0..60i64)
                .map(|i| tuple![i, i % 6, if i % 5 == 0 { 0.5 } else { 1.0 }])
                .collect(),
        ),
    );
    session.set_exec_mode(ExecMode::Vectorized);
    println!("──── EXPLAIN ANALYZE AU NOT IN (Vectorized) ────");
    println!(
        "{}\n",
        session
            .explain_analyze_au(
                "SELECT i.id FROM items IS TI WITH PROBABILITY (p) i WHERE i.grp NOT IN \
                 (SELECT j.grp FROM items IS TI WITH PROBABILITY (p) j WHERE j.id > 55)"
            )
            .expect("analyze AU NOT IN")
    );

    // 4. An AU keyless (non-equi) join on the vectorized engine: the `Join`
    //    node runs the row engine's own pair loop over views of its inputs'
    //    chunks, one range of probe rows per pool task, and gathers the
    //    surviving pairs.
    println!("──── EXPLAIN ANALYZE AU keyless join (Vectorized) ────");
    println!(
        "{}\n",
        session
            .explain_analyze_au(
                "SELECT i.id, j.id AS other FROM items IS TI WITH PROBABILITY (p) i, \
                 items IS TI WITH PROBABILITY (p) j WHERE i.id < j.grp"
            )
            .expect("analyze AU keyless join")
    );

    // 5. A UA join on both engines: one `⟦·⟧_UA`-rewritten physical plan,
    //    and each tree counts `certain_rows` wherever an operator's output
    //    carries the `ua_c` marker — not on the join itself.
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        session.set_exec_mode(mode);
        println!("──── EXPLAIN ANALYZE UA join ({mode:?}) ────");
        println!(
            "{}\n",
            session
                .explain_analyze_ua(
                    "SELECT i.id, j.grp FROM items IS TI WITH PROBABILITY (p) i, \
                     items IS TI WITH PROBABILITY (p) j WHERE i.grp = j.id AND i.id >= 30"
                )
                .expect("analyze UA join")
        );
    }

    // 6. The global registry: planner est-vs-actual feedback (fed by every
    //    instrumented join) and the AU vectorized fallback audit.
    println!("──── metrics registry ────");
    println!("{}", uadb::obs::global().to_json());
}
