//! The paper's running example (Figures 2/3): ambiguous geocodings.
//!
//! An address table where some addresses geocode to several candidate
//! coordinates becomes an x-DB; the UA-DB runs the locale lookup over the
//! best-guess world while labeling which answers are certain —
//! reproducing Figure 3d.
//!
//! Run with `cargo run --example quickstart`.

use uadb::core::UaDb;
use uadb::data::{tuple, Expr, RaExpr, Schema};
use uadb::models::{XDb, XRelation, XTuple};

fn main() {
    // ADDR (Figure 2): addresses 2 and 3 have ambiguous geocodings, already
    // joined with the LOC lookup table to (id, locale, state) candidates.
    let mut addr = XRelation::new(Schema::qualified("loc", ["id", "locale", "state"]));
    addr.push(XTuple::total(vec![tuple![1i64, "Lasalle", "NY"]]));
    addr.push(XTuple::probabilistic(vec![
        (tuple![2i64, "Tucson", "AZ"], 0.6),
        (tuple![2i64, "Grant Ferry", "NY"], 0.4),
    ]));
    addr.push(XTuple::probabilistic(vec![
        (tuple![3i64, "Kingsley", "NY"], 0.5),
        (tuple![3i64, "Kingsley South", "NY"], 0.5),
    ]));
    addr.push(XTuple::total(vec![tuple![4i64, "Kensington", "NY"]]));
    let mut xdb = XDb::new();
    xdb.insert("loc", addr);

    // Build the UA-DB: best-guess world + c-sound labeling (Section 4).
    let ua = UaDb::from_xdb(&xdb);

    println!("UA-DB over the best-guess world (paper Figure 3d):");
    println!("{:<4} {:<14} {:<6} certain?", "id", "locale", "state");
    for (t, ann) in ua.relation("loc").expect("loc").sorted_tuples() {
        println!(
            "{:<4} {:<14} {:<6} {}",
            t.get(0).expect("id"),
            t.get(1).expect("locale").to_string().trim_matches('\''),
            t.get(2).expect("state").to_string().trim_matches('\''),
            ann.is_fully_certain()
        );
    }

    // Queries preserve the sandwich (Theorem 4): locations in NY state.
    let q = RaExpr::table("loc")
        .select(Expr::named("state").eq(Expr::lit("NY")))
        .project(["id", "locale"]);
    let result = ua.query(&q).expect("query");
    println!("\nσ[state='NY'] then π[id, locale]:");
    for (t, ann) in result.sorted_tuples() {
        println!(
            "  {t}  certain={} (annotation [{}, {}])",
            ann.is_fully_certain(),
            ann.cert,
            ann.det
        );
    }

    // Ground truth by world enumeration (4 worlds, paper Example 1).
    let incomplete = xdb.enumerate_worlds(100);
    println!(
        "\nThe x-DB encodes {} possible worlds; certain answers to the query:",
        incomplete.n_worlds()
    );
    let worlds_result = incomplete.query(&q).expect("possible-world query");
    for (t, _) in result.sorted_tuples() {
        let cert = worlds_result.certain_annotation("result", &t);
        println!("  {t}  truly-certain multiplicity = {cert}");
    }
    println!(
        "\nEvery tuple labeled certain is truly certain (c-soundness); the\n\
         sandwich keeps possible-but-uncertain answers available, unlike\n\
         certain-answer semantics which would drop address 2 entirely."
    );

    // The same pipeline through the SQL middleware, on the vectorized
    // columnar executor (the session default, spelled out here): it runs
    // the same rewritten plan as the row engine, the `ua_c` marker one
    // more column in its batches. Results are identical to ExecMode::Row —
    // only faster at scale.
    let session = uadb::engine::UaSession::with_mode(uadb::engine::ExecMode::Vectorized);
    session.register_table(
        "addr",
        uadb::engine::Table::from_rows(
            Schema::qualified("addr", ["xid", "aid", "p", "id", "locale", "state"]),
            vec![
                tuple![1i64, 1i64, 1.0, 1i64, "Lasalle", "NY"],
                tuple![2i64, 1i64, 0.6, 2i64, "Tucson", "AZ"],
                tuple![2i64, 2i64, 0.4, 2i64, "Grant Ferry", "NY"],
                tuple![4i64, 1i64, 1.0, 4i64, "Kensington", "NY"],
            ],
        ),
    );
    let vec_result = session
        .query_ua(
            "SELECT id, locale FROM addr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) \
             WHERE state = 'NY' ORDER BY id",
        )
        .expect("vectorized UA query");
    println!("\nSame query, vectorized executor (ExecMode::Vectorized):");
    for (row, certain) in vec_result.rows_with_certainty() {
        println!("  {row} certain={certain}");
    }
}
