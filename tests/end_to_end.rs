//! Cross-crate integration: one uncertain database flowing through every
//! layer of the system, with all evaluation paths agreeing.

use uadb::baselines::{BundleDb, UDb};
use uadb::core::{decode_relation, encode_database, rewrite_ua, UaDb};
use uadb::data::{eval, tuple, Expr, RaExpr, Schema};
use uadb::datagen::pdbench::{inject, PdbenchConfig};
use uadb::datagen::tpch::{generate, TpchConfig};
use uadb::engine::{ExecMode, Table, UaSession};
use uadb::models::{XDb, XRelation, XTuple};
use uadb::semiring::hom::h_det;

fn sample_xdb() -> XDb {
    let mut rel = XRelation::new(Schema::qualified("loc", ["id", "locale", "state"]));
    rel.push(XTuple::total(vec![tuple![1i64, "Lasalle", "NY"]]));
    rel.push(XTuple::probabilistic(vec![
        (tuple![2i64, "Tucson", "AZ"], 0.6),
        (tuple![2i64, "Grant Ferry", "NY"], 0.4),
    ]));
    rel.push(XTuple::probabilistic(vec![
        (tuple![3i64, "Kingsley", "NY"], 0.5),
        (tuple![3i64, "Kingsley S", "NY"], 0.5),
    ]));
    rel.push(XTuple::total(vec![tuple![4i64, "Kensington", "NY"]]));
    let mut db = XDb::new();
    db.insert("loc", rel);
    db
}

fn queries() -> Vec<RaExpr> {
    vec![
        RaExpr::table("loc").select(Expr::named("state").eq(Expr::lit("NY"))),
        RaExpr::table("loc").project(["locale", "state"]),
        RaExpr::table("loc")
            .select(Expr::named("state").eq(Expr::lit("NY")))
            .project(["id"]),
        RaExpr::table("loc").alias("a").join(
            RaExpr::table("loc").alias("b"),
            Expr::named("a.state").eq(Expr::named("b.state")),
        ),
        RaExpr::table("loc")
            .project(["state"])
            .union(RaExpr::table("loc").project(["state"])),
    ]
}

/// The three UA evaluation paths agree: native pair-semiring evaluation,
/// Enc + rewritten K-relational evaluation, and both engines through the
/// SQL session — and their det component matches BGQP.
#[test]
fn three_evaluation_paths_agree() {
    let xdb = sample_xdb();
    let ua = UaDb::from_xdb(&xdb);

    // Path 2 setup: encoded K-relations.
    let encoded = encode_database(ua.database());
    // Path 3 setup: the engine session.
    let session = UaSession::new();
    for (name, rel) in ua.database().iter() {
        session.register_ua_relation(name.clone(), rel);
    }

    for q in queries() {
        let native = ua.query(&q).expect("native");

        let lookup = |name: &str| encoded.get(name).map(|r| r.schema().clone());
        let rewritten = rewrite_ua(&q, &lookup).expect("rewrite");
        let via_encoding = decode_relation(&eval(&rewritten, &encoded).expect("encoded eval"));
        assert_eq!(native, via_encoding, "Theorem 7 violated for {q}");

        for mode in [ExecMode::Row, ExecMode::Vectorized] {
            session.set_exec_mode(mode);
            let via_engine = session.query_ua_ra(&q).expect("engine").decode();
            assert_eq!(native, via_engine, "{mode:?} engine path diverges for {q}");
        }

        // Backwards compatibility with best-guess query processing.
        let bgqp = eval(&q, &xdb.best_guess_world()).expect("bgqp");
        assert_eq!(
            native.map_annotations(&h_det::<u64>),
            bgqp,
            "h_det ≠ BGQP for {q}"
        );
    }
}

/// UA bounds hold against exhaustive world enumeration for every query.
#[test]
fn bounds_hold_against_ground_truth() {
    let xdb = sample_xdb();
    let inc = xdb.enumerate_worlds(100);
    let ua = UaDb::from_xdb(&xdb);
    for q in queries() {
        let result = ua.query(&q).expect("ua");
        let ground = inc.query(&q).expect("worlds");
        for (t, ann) in result.iter() {
            let cert = ground.certain_annotation("result", t);
            assert!(ann.cert <= cert, "c-soundness violated at {t} for {q}");
            assert!(cert <= ann.det, "over-approx violated at {t} for {q}");
        }
        // And no certain tuple is missing from the UA result entirely
        // (the sandwich: every world ⊇ certain answers).
        if let Some(cert_rel) = inc.query(&q).expect("worlds").certain_relation("result") {
            for (t, &m) in cert_rel.iter() {
                assert!(
                    result.annotation(t).det >= m,
                    "certain tuple {t} under-represented for {q}"
                );
            }
        }
    }
}

/// The baselines bracket the UA-DB: Libkin ⊆ certain ⊆ possible ⊆ MayBMS.
#[test]
fn baselines_bracket_consistently() {
    let xdb = sample_xdb();
    let inc = xdb.enumerate_worlds(100);
    let udb = UDb::from_xdb(&xdb);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let bundles = BundleDb::from_xdb(&xdb, 32, &mut rng);

    for q in queries() {
        let ground = inc.query(&q).expect("worlds");
        let possible = ground
            .possible_relation("result")
            .expect("possible relation");

        // MayBMS possible answers = ground-truth possible answers.
        let maybms = udb.query(&q).expect("maybms");
        let mut mb_tuples = maybms.possible_tuples();
        mb_tuples.sort();
        let mut gt_tuples: Vec<_> = possible.iter().map(|(t, _)| t.clone()).collect();
        gt_tuples.sort();
        assert_eq!(
            mb_tuples, gt_tuples,
            "MayBMS possible answers wrong for {q}"
        );

        // MCDB possible ⊆ ground possible; MCDB "certain" ⊇ true certain.
        let mc = bundles.query(&q).expect("mcdb");
        for t in mc.possible() {
            assert!(possible.contains(&t), "MCDB invented {t} for {q}");
        }
        if let Some(cert_rel) = ground.certain_relation("result") {
            let mc_certain = mc.estimated_certain();
            for (t, _) in cert_rel.iter() {
                assert!(
                    mc_certain.contains(t),
                    "MCDB must see certain tuple {t} in all samples for {q}"
                );
            }
        }
    }
}

/// The PDBench pipeline end-to-end on real generated data: injection,
/// encoding, SQL execution and labeling sanity.
#[test]
fn pdbench_pipeline_end_to_end() {
    let data = generate(&TpchConfig::new(0.0005, 99));
    let u = inject(
        "lineitem",
        &data.lineitem,
        &["quantity", "discount", "shipdate"],
        &PdbenchConfig {
            uncertainty: 0.10,
            ..Default::default()
        },
    );
    let session = UaSession::new();
    session.register_table("lineitem", u.encoded["lineitem"].clone());

    let result = session
        .query_ua("SELECT orderkey, quantity FROM lineitem WHERE quantity < 25")
        .expect("sql over encoded table");
    let (certain, total) = result.certainty_counts();
    assert!(total > 0, "selection should match something");
    assert!(certain <= total);

    // Certain rows must come from rows without uncertain cells: cross-check
    // via the x-DB labeling.
    let labeling = u.xdb.labeling();
    let labeled = labeling.get("lineitem").expect("labeling");
    for (row, is_certain) in result.rows_with_certainty() {
        if is_certain {
            // The (orderkey, quantity) pair must appear in some certainly
            // labeled base tuple.
            let found = labeled
                .iter()
                .any(|(t, _)| t.get(0) == row.get(0) && t.get(2) == row.get(1));
            assert!(found, "certain row {row} lacks a certain witness");
        }
    }
}

/// Deterministic overhead sanity: the UA path returns the same rows as
/// deterministic BGQP plus markers.
#[test]
fn ua_equals_det_plus_markers() {
    let data = generate(&TpchConfig::new(0.0005, 7));
    let u = inject(
        "orders",
        &data.orders,
        &["orderdate", "totalprice"],
        &PdbenchConfig::default(),
    );
    let session = UaSession::new();
    session.register_table("orders", u.encoded["orders"].clone());
    let det_catalog = uadb::engine::Catalog::new();
    det_catalog.register("orders", u.bgw["orders"].clone());

    let sql = "SELECT orderkey, orderdate FROM orders WHERE orderdate < 1000";
    let ua_rows: Vec<_> = session
        .query_ua(sql)
        .expect("ua")
        .rows_with_certainty()
        .into_iter()
        .map(|(t, _)| t)
        .collect();
    let ast = uadb::engine::parse(sql).expect("parse");
    let plan = uadb::engine::plan_query(&ast, &det_catalog, &uadb::engine::sql::RejectAnnotations)
        .expect("plan");
    let det = uadb::engine::execute(&plan, &det_catalog).expect("det");

    let mut a = ua_rows;
    a.sort();
    let mut b = det.rows().to_vec();
    b.sort();
    assert_eq!(a, b, "UA result must be BGQP result plus markers");
}

#[test]
fn sql_and_programmatic_ctable_paths_agree() {
    use uadb::engine::ctable_source;
    // A C-table stored row-wise with a textual condition column…
    let raw = Table::from_rows(
        Schema::qualified("r", ["a", "v1", "lc"]),
        vec![
            tuple![1i64, uadb::data::Value::Null, "x < 5 OR x >= 5"],
            tuple![2i64, uadb::data::Value::Null, "x = 3"],
        ],
    );
    let encoded = ctable_source(&raw, &["v1".to_string()], "lc").expect("ctable source");
    let markers: Vec<_> = encoded
        .sorted_rows()
        .iter()
        .map(|r| r.get(1).cloned().expect("marker"))
        .collect();
    assert_eq!(
        markers,
        vec![uadb::data::Value::Int(1), uadb::data::Value::Int(0)],
        "tautology labeled certain, contingent condition uncertain"
    );
}

/// PDBench Q3 (TPC-H Q7 shape, the `spine` `join_heavy` statement) over
/// small generated TPC-H instances with 5 % injected cell uncertainty: the
/// aliased 4-way comma join runs under AU on both engines at scales 0.001
/// and 0.005, the vectorized AU result equals the row AU result row for
/// row, and its selected-guess world equals the deterministic answer over
/// the best-guess world.
#[test]
fn aliased_tpch_q3_runs_under_au_on_both_engines_at_small_scales() {
    use uadb::datagen::pdbench::inject_db;
    use uadb::datagen::queries::pdbench_uncertain_columns;
    use uadb::ranges::AuRelation;
    const Q3: &str = "SELECT s.suppkey, c.custkey, l.shipdate \
         FROM supplier s, lineitem l, orders o, customer c \
         WHERE s.suppkey = l.suppkey AND o.orderkey = l.orderkey \
         AND c.custkey = o.custkey AND s.nationkey = 1 AND c.nationkey = 2";
    for scale in [0.001, 0.005] {
        let data = generate(&TpchConfig::new(scale, 1));
        let tables: Vec<(&str, &Table, &[&str])> = data
            .tables()
            .into_iter()
            .map(|(name, table)| (name, table, pdbench_uncertain_columns(name)))
            .collect();
        let db = inject_db(
            &tables,
            &PdbenchConfig {
                uncertainty: 0.05,
                seed: 1,
                ..PdbenchConfig::default()
            },
        );
        let det = UaSession::new();
        let au = UaSession::new();
        for &(name, _, _) in &tables {
            det.register_table(name, db.bgw[name].clone());
            let xrel = db.xdb.get(name).expect("every table was injected");
            let blocks: Vec<Vec<(uadb::data::Tuple, f64)>> = xrel
                .xtuples()
                .iter()
                .map(|xt| {
                    xt.alternatives
                        .iter()
                        .map(|a| (a.tuple.clone(), a.probability))
                        .collect()
                })
                .collect();
            let rel =
                AuRelation::from_x_blocks(xrel.schema().clone(), blocks.iter().map(Vec::as_slice));
            au.register_table(name, uadb::engine::au_table(&rel));
        }
        let expected = det.query_det(Q3).expect("det Q3").sorted_rows();
        au.set_exec_mode(ExecMode::Row);
        let row = au
            .query_au(Q3)
            .unwrap_or_else(|e| panic!("row AU Q3 at scale {scale}: {e}"));
        au.set_exec_mode(ExecMode::Vectorized);
        let vec = au
            .query_au(Q3)
            .unwrap_or_else(|e| panic!("vectorized AU Q3 at scale {scale}: {e}"));
        assert_eq!(vec.table.rows(), row.table.rows(), "scale {scale}");
        assert_eq!(vec.sg_table().sorted_rows(), expected, "scale {scale}");
    }
}
