//! Query-lifetime tracing: export a Perfetto / chrome://tracing JSON
//! timeline of one query's execution.
//!
//! Runs a 3-way join + GROUP BY on the vectorized executor with tracing
//! armed, then writes `trace.json` — open it at <https://ui.perfetto.dev>
//! or `chrome://tracing` to see the session-thread phase spans (parse →
//! plan → optimize → bind → execute → merge) stacked above the morsel
//! pool's per-worker task spans. Tracing is a pure observer: the query
//! result is byte-identical with tracing on or off.
//!
//! Run with `cargo run --example trace`.

use uadb::data::{tuple, Schema};
use uadb::engine::{ExecMode, Table, UaSession};

fn main() {
    let session = UaSession::new();

    session.register_table(
        "orders",
        Table::from_rows(
            Schema::qualified("orders", ["ok", "ck", "total"]),
            (0..4000i64)
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

    let sql = "SELECT d.region, count(*) AS n, sum(o.total) AS s \
               FROM orders o, cust c, dept d \
               WHERE o.ck = c.ck AND c.dk = d.dk AND o.total >= 100 \
               GROUP BY d.region ORDER BY s DESC";

    // Arm tracing; run the same query on both executors. Each query's
    // trace replaces the previous one, so export after each run.
    session.set_trace_enabled(true);

    session.set_exec_mode(ExecMode::Row);
    let rows = session.query_det(sql).expect("row query");
    let row_trace = session.last_query_trace().expect("row trace");
    println!(
        "row engine: {} result rows, trace {} bytes",
        rows.len(),
        row_trace.len()
    );

    session.set_exec_mode(ExecMode::Vectorized);
    session.set_vec_threads(4);
    let rows = session.query_det(sql).expect("vec query");
    let vec_trace = session.last_query_trace().expect("vec trace");
    println!(
        "vectorized engine: {} result rows, trace {} bytes",
        rows.len(),
        vec_trace.len()
    );

    let spans = vec_trace.matches("\"ph\": \"B\"").count();
    let morsels = vec_trace.matches("morsel").count();
    println!("vectorized trace: {spans} nested spans, {morsels} pool morsel spans");

    std::fs::write("trace.json", &vec_trace).expect("write trace.json");
    println!("wrote trace.json — open it at https://ui.perfetto.dev");
}
