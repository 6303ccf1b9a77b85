//! UA label soundness of optimizer rewrites, theorem-shaped, on 5-world
//! `K^W` databases (via `ua-incomplete`).
//!
//! Setup: an explicit 5-world incomplete ℕ-database; its best-guess world
//! plus the per-tuple GLB across worlds yields a c-sound `ℕ_UA`-labeling
//! (paper Section 4), registered into a [`UaSession`]. For every optimizer
//! pass configuration `P` and query `Q`:
//!
//! ```text
//! certain(⟦Q⟧_P-optimized)  ⊆  certain(⟦Q⟧ unoptimized)       (pass soundness)
//! certain(⟦Q⟧ any plan)     ⊆  cert_ℕ(Q(𝒟))                   (c-soundness, Theorem 4)
//! ```
//!
//! and in fact the optimized and unoptimized plans decode to the *same*
//! `K²`-relation — the ⊆ inclusions are asserted separately because they
//! are the property that must survive any future, lossier rewrite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ua_core::{decode_relation, rewrite_ua};
use ua_data::algebra::RaExpr;
use ua_data::expr::Expr;
use ua_data::relation::{Database, Relation};
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::plan::Plan;
use ua_engine::{execute, optimize_with, ExecMode, OptimizerPasses, Table, UaSession};
use ua_incomplete::IncompleteDb;
use ua_semiring::pair::Ua;

const N_WORLDS: usize = 5;

/// Five worlds over `r(a, b)`, `s(b, d)` and a *small* `t(a, e)` (two core
/// tuples — selective enough that the cost-based reorder routes 3-way joins
/// through it first): a shared certain core plus per-world noise tuples,
/// with small value domains so joins hit.
fn five_world_db(seed: u64) -> IncompleteDb<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let core_r: Vec<Tuple> = (0..6)
        .map(|_| {
            Tuple::new(vec![
                Value::Int(rng.gen_range(0..4)),
                Value::Int(rng.gen_range(0..4)),
            ])
        })
        .collect();
    let core_s: Vec<Tuple> = (0..4)
        .map(|_| {
            Tuple::new(vec![
                Value::Int(rng.gen_range(0..4)),
                Value::Int(rng.gen_range(0..8)),
            ])
        })
        .collect();
    let core_t: Vec<Tuple> = (0..2)
        .map(|_| {
            Tuple::new(vec![
                Value::Int(rng.gen_range(0..4)),
                Value::Int(rng.gen_range(0..8)),
            ])
        })
        .collect();
    let mut worlds = Vec::with_capacity(N_WORLDS);
    for _ in 0..N_WORLDS {
        let mut db: Database<u64> = Database::new();
        let mut rows_r = core_r.clone();
        let mut rows_s = core_s.clone();
        let mut rows_t = core_t.clone();
        for _ in 0..rng.gen_range(0..4) {
            rows_r.push(Tuple::new(vec![
                Value::Int(rng.gen_range(0..4)),
                Value::Int(rng.gen_range(0..4)),
            ]));
        }
        for _ in 0..rng.gen_range(0..3) {
            rows_s.push(Tuple::new(vec![
                Value::Int(rng.gen_range(0..4)),
                Value::Int(rng.gen_range(0..8)),
            ]));
        }
        if rng.gen_range(0..2) == 0 {
            rows_t.push(Tuple::new(vec![
                Value::Int(rng.gen_range(0..4)),
                Value::Int(rng.gen_range(0..8)),
            ]));
        }
        db.insert(
            "r",
            Relation::from_tuples(Schema::qualified("r", ["a", "b"]), rows_r),
        );
        db.insert(
            "s",
            Relation::from_tuples(Schema::qualified("s", ["b", "d"]), rows_s),
        );
        db.insert(
            "t",
            Relation::from_tuples(Schema::qualified("t", ["a", "e"]), rows_t),
        );
        worlds.push(db);
    }
    IncompleteDb::new(worlds)
}

/// The c-sound `ℕ_UA`-labeling of `incomplete`: best-guess world 0 for the
/// deterministic part, GLB across all worlds for the certain part.
fn session_from(incomplete: &IncompleteDb<u64>) -> UaSession {
    let session = UaSession::with_mode(ExecMode::Row);
    let w0 = incomplete.world(0);
    for name in ["r", "s", "t"] {
        let rel0 = w0.get(name).expect("relation in world 0");
        let rel: Relation<Ua<u64>> = Relation::from_annotated(
            rel0.schema().clone(),
            rel0.iter().map(|(t, &n)| {
                let cert: u64 = incomplete.certain_annotation(name, t);
                (t.clone(), Ua::new(cert.min(n), n))
            }),
        );
        session.register_ua_relation(name, &rel);
    }
    session
}

/// Tuples with a nonzero certain component of a decoded `K²`-relation.
fn certain_tuples(rel: &Relation<Ua<u64>>) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = rel
        .iter()
        .filter(|(_, ann)| ann.cert > 0)
        .map(|(t, _)| t.clone())
        .collect();
    out.sort();
    out
}

/// Ground-truth certain answers of `query` over the possible worlds.
fn ground_truth_certain(incomplete: &IncompleteDb<u64>, query: &RaExpr) -> Vec<Tuple> {
    let result = incomplete.query(query).expect("world-wise query");
    let certain = result.certain_relation("result").expect("result relation");
    let mut out: Vec<Tuple> = certain.iter().map(|(t, _)| t.clone()).collect();
    out.sort();
    out
}

fn is_subset(small: &[Tuple], big: &[Tuple]) -> bool {
    small.iter().all(|t| big.contains(t))
}

/// The query shapes each pass exists for.
fn queries() -> Vec<(&'static str, RaExpr)> {
    vec![
        (
            "selection below a user projection",
            RaExpr::table("r")
                .project(["a", "b"])
                .select(Expr::named("a").ge(Expr::lit(1i64))),
        ),
        (
            "comma-join: cross product + mixed filter",
            RaExpr::table("r")
                .cross(RaExpr::table("s"))
                .select(
                    Expr::named("r.b")
                        .eq(Expr::named("s.b"))
                        .and(Expr::named("d").ge(Expr::lit(2i64))),
                )
                .project(["a", "d"]),
        ),
        (
            "stacked projections over an equi-join",
            RaExpr::table("r")
                .join(
                    RaExpr::table("s"),
                    Expr::named("r.b").eq(Expr::named("s.b")),
                )
                .project(["a", "r.b", "d"])
                .select(Expr::named("a").le(Expr::lit(2i64)))
                .project(["a", "d"]),
        ),
        (
            "union of projections",
            RaExpr::table("r")
                .project(["b"])
                .union(RaExpr::table("s").project(["b"])),
        ),
        ("3-way comma-join in a bad order", three_way_star_query()),
    ]
}

/// A 3-way comma-join written in a deliberately bad order: `r × s` first
/// (the two large relations — no direct edge between them), the selective
/// `t` last. The session-level reorder routes the join through `t`.
fn three_way_star_query() -> RaExpr {
    RaExpr::table("r")
        .cross(RaExpr::table("s"))
        .cross(RaExpr::table("t"))
        .select(
            Expr::named("r.a")
                .eq(Expr::named("t.a"))
                .and(Expr::named("s.d").eq(Expr::named("t.e"))),
        )
        .project(["r.a", "r.b", "d"])
}

#[test]
fn each_pass_preserves_certain_label_soundness() {
    let pass_configs = [
        (
            "push_filters only",
            OptimizerPasses {
                push_filters: true,
                plan_joins: false,
                ..Default::default()
            },
        ),
        (
            "plan_joins only",
            OptimizerPasses {
                push_filters: false,
                plan_joins: true,
                ..Default::default()
            },
        ),
        (
            "full pipeline",
            OptimizerPasses {
                push_filters: true,
                plan_joins: true,
                ..Default::default()
            },
        ),
    ];
    for seed in 0..8u64 {
        let incomplete = five_world_db(seed);
        let session = session_from(&incomplete);
        let catalog = session.catalog();
        let lookup = |name: &str| catalog.schema_of(name);
        for (qname, ra) in queries() {
            let rewritten = rewrite_ua(&ra, &lookup).expect("rewriting");
            let unopt_plan = Plan::from_ra(&rewritten);
            let unopt = decode_relation(
                &execute(&unopt_plan, catalog)
                    .expect("unoptimized exec")
                    .to_relation(),
            );
            let truth = ground_truth_certain(&incomplete, &ra);
            assert!(
                is_subset(&certain_tuples(&unopt), &truth),
                "seed {seed}, {qname}: unoptimized labels are not c-sound"
            );
            for (pname, passes) in pass_configs {
                let opt_plan = optimize_with(unopt_plan.clone(), catalog, passes);
                let opt = decode_relation(
                    &execute(&opt_plan, catalog)
                        .expect("optimized exec")
                        .to_relation(),
                );
                // Theorem shape: certain answers of the optimized plan are
                // contained in the unoptimized plan's certain answers …
                assert!(
                    is_subset(&certain_tuples(&opt), &certain_tuples(&unopt)),
                    "seed {seed}, {qname}, {pname}: optimization invented certain tuples"
                );
                // … and in the true certain answers over the worlds.
                assert!(
                    is_subset(&certain_tuples(&opt), &truth),
                    "seed {seed}, {qname}, {pname}: optimized labels are not c-sound"
                );
                // In fact the passes are exact: same K²-relation.
                assert_eq!(
                    opt, unopt,
                    "seed {seed}, {qname}, {pname}: optimization changed the decoded result"
                );
            }
        }
    }
}

/// The tentpole's soundness case: a reordered 3-way join on a 5-world
/// `K^W` database. The session-level reorder must actually fire (asserted
/// structurally), and for both engines, with the optimizer on and off:
/// `certain(optimized) ⊆ certain(unoptimized) ⊆ cert_ℕ(Q(𝒟))`.
#[test]
fn reordered_three_way_join_stays_c_sound_on_both_engines() {
    let query = three_way_star_query();
    for seed in 0..6u64 {
        let incomplete = five_world_db(seed);
        let truth = ground_truth_certain(&incomplete, &query);
        // The reorder fires on this shape: the emitted user plan permutes
        // the leaf sequence (a column-restoring projection appears) or at
        // least re-associates away from the as-written left-deep tree.
        {
            let session = session_from(&incomplete);
            let reordered = ua_engine::reorder_joins_ua(Plan::from_ra(&query), session.catalog());
            assert_ne!(
                format!("{reordered}"),
                format!("{}", Plan::from_ra(&query)),
                "seed {seed}: the bad-order 3-way join must be reordered"
            );
        }
        for mode in [ExecMode::Row, ExecMode::Vectorized] {
            let run = |optimizer: bool| {
                let session = session_from(&incomplete);
                session.set_exec_mode(mode);
                session.set_optimizer_enabled(optimizer);
                session.query_ua_ra(&query).expect("session query")
            };
            let opt = certain_tuples(&run(true).decode());
            let unopt = certain_tuples(&run(false).decode());
            assert!(
                is_subset(&opt, &unopt),
                "seed {seed}, {mode:?}: reordering invented certain tuples"
            );
            assert!(
                is_subset(&unopt, &truth),
                "seed {seed}, {mode:?}: unoptimized labels are not c-sound"
            );
            assert!(
                is_subset(&opt, &truth),
                "seed {seed}, {mode:?}: reordered labels are not c-sound"
            );
            // The reorder is exact: same certain answers both ways.
            assert_eq!(
                opt, unopt,
                "seed {seed}, {mode:?}: reordering changed the certain set"
            );
        }
    }
}

/// Top-K soundness, theorem-shaped, on the 5-world `K^W` databases: with
/// `Q_k` = `Q` + ORDER BY + LIMIT k and `Q` the RA⁺ core,
///
/// ```text
/// certain(⟦Q_k⟧ TopK-rewritten)  ⊆  certain(⟦Q_k⟧ unrewritten Sort+Limit)
///                                 ⊆  certain(⟦Q⟧)  ⊆  cert_ℕ(Q(𝒟))
/// ```
///
/// on both engines (both execute the sort/Top-K natively over the encoded
/// rows of the `⟦·⟧_UA` rewriting). The fusion is in fact exact — rewritten and
/// unrewritten runs produce the same certain set — but the inclusions are
/// what must survive any future, lossier Top-K (e.g. an approximate heap).
#[test]
fn topk_rewrite_stays_c_sound_on_both_engines() {
    // SQL form of the comma-join query (the session registers the encoded
    // relations under their plain names) plus its RA⁺ core for the
    // ground-truth possible-worlds evaluation.
    let sql_full = "SELECT r.a, s.d FROM r, s WHERE r.b = s.b";
    let sql_topk = "SELECT r.a, s.d FROM r, s WHERE r.b = s.b ORDER BY r.a DESC, s.d LIMIT 4";
    let core = RaExpr::table("r")
        .join(
            RaExpr::table("s"),
            Expr::named("r.b").eq(Expr::named("s.b")),
        )
        .project(["a", "d"]);
    // The rewrite must actually fire on this shape.
    {
        let fused = ua_engine::fuse_topk(ua_engine::Plan::Limit {
            input: Box::new(ua_engine::Plan::Sort {
                input: Box::new(Plan::from_ra(&core)),
                keys: vec![],
            }),
            limit: 4,
        });
        assert!(
            format!("{fused}").starts_with("TopK["),
            "Limit(Sort(..)) must fuse: {fused}"
        );
    }
    for seed in 0..6u64 {
        let incomplete = five_world_db(seed);
        let truth = ground_truth_certain(&incomplete, &core);
        for mode in [ExecMode::Row, ExecMode::Vectorized] {
            let run = |sql: &str, optimizer: bool| -> Vec<Tuple> {
                let session = session_from(&incomplete);
                session.set_exec_mode(mode);
                session.set_optimizer_enabled(optimizer);
                let result = session.query_ua(sql).expect("session query");
                let mut certain: Vec<Tuple> = result
                    .rows_with_certainty()
                    .into_iter()
                    .filter(|(_, c)| *c)
                    .map(|(t, _)| t)
                    .collect();
                certain.sort();
                certain.dedup();
                certain
            };
            // Optimizer on ⇒ Limit(Sort) fuses into TopK; off ⇒ the
            // unrewritten Sort+Limit executes as written.
            let fused = run(sql_topk, true);
            let unfused = run(sql_topk, false);
            let full = run(sql_full, false);
            assert!(
                is_subset(&fused, &unfused),
                "seed {seed}, {mode:?}: TopK rewrite invented certain tuples"
            );
            assert!(
                is_subset(&unfused, &full),
                "seed {seed}, {mode:?}: Sort+Limit invented certain tuples"
            );
            assert!(
                is_subset(&full, &truth),
                "seed {seed}, {mode:?}: full-query labels are not c-sound"
            );
            assert!(
                is_subset(&fused, &truth),
                "seed {seed}, {mode:?}: TopK labels are not c-sound"
            );
            // The fusion is exact: same certain answers with and without.
            assert_eq!(
                fused, unfused,
                "seed {seed}, {mode:?}: TopK rewrite changed the certain set"
            );
        }
    }
}

/// The negation operators that close the RA⁺ hole — `EXCEPT [ALL]`,
/// `LEFT`/`RIGHT OUTER JOIN`, `NOT IN` / `NOT EXISTS` — keep label
/// c-soundness: every certain-labeled output tuple is an answer in EVERY
/// world. `IncompleteDb::query` is RA⁺-only and cannot express negation,
/// so the ground truth here is computed by executing each query
/// deterministically over every enumerated world and intersecting the
/// answer sets. Swept over {Row, Vec} × {optimizer on, off}; within a
/// grid point the engines must be byte-identical, and the optimizer must
/// preserve the result multiset.
#[test]
fn negation_queries_stay_c_sound_on_both_engines() {
    let queries = [
        "SELECT r.a FROM r EXCEPT SELECT s.d FROM s",
        "SELECT r.a FROM r EXCEPT ALL SELECT s.b FROM s",
        "SELECT r.a, r.b, s.d FROM r LEFT JOIN s ON r.b = s.b",
        "SELECT r.a, r.b, s.d FROM r RIGHT JOIN s ON r.b = s.b",
        "SELECT r.a, r.b FROM r WHERE r.b NOT IN (SELECT s.b FROM s)",
        "SELECT r.a FROM r WHERE NOT EXISTS (SELECT s.b FROM s WHERE s.d >= 6)",
    ];
    for seed in 0..6u64 {
        let incomplete = five_world_db(seed);
        for sql in queries {
            // Ground truth: tuples answering `sql` in every world.
            let mut truth: Option<Vec<Tuple>> = None;
            for w in 0..N_WORLDS {
                let world = incomplete.world(w);
                let det = UaSession::with_mode(ExecMode::Row);
                for name in ["r", "s", "t"] {
                    let rel = world.get(name).expect("relation");
                    let rows: Vec<Tuple> = rel
                        .iter()
                        .flat_map(|(t, &n)| std::iter::repeat_n(t.clone(), n as usize))
                        .collect();
                    det.register_table(name, Table::from_rows(rel.schema().clone(), rows));
                }
                let mut result = det
                    .query_det(sql)
                    .unwrap_or_else(|e| panic!("seed {seed}, world {w}, `{sql}`: {e}"))
                    .rows()
                    .to_vec();
                result.sort();
                result.dedup();
                truth = Some(match truth {
                    None => result,
                    Some(prev) => prev.into_iter().filter(|t| result.contains(t)).collect(),
                });
            }
            let truth = truth.expect("at least one world");
            for optimizer in [true, false] {
                let mut per_mode = Vec::new();
                for mode in [ExecMode::Row, ExecMode::Vectorized] {
                    let session = session_from(&incomplete);
                    session.set_exec_mode(mode);
                    session.set_optimizer_enabled(optimizer);
                    let result = session
                        .query_ua(sql)
                        .unwrap_or_else(|e| panic!("seed {seed}, {mode:?}, `{sql}`: {e}"));
                    let mut certain: Vec<Tuple> = result
                        .rows_with_certainty()
                        .into_iter()
                        .filter(|(_, c)| *c)
                        .map(|(t, _)| t)
                        .collect();
                    certain.sort();
                    certain.dedup();
                    assert!(
                        is_subset(&certain, &truth),
                        "seed {seed}, {mode:?}, optimizer={optimizer}: \
                         labels are not c-sound on `{sql}`\n \
                         certain: {certain:?}\n truth: {truth:?}"
                    );
                    per_mode.push(result.table);
                }
                assert_eq!(
                    per_mode[0].rows(),
                    per_mode[1].rows(),
                    "seed {seed}, optimizer={optimizer}: engines diverge on `{sql}`"
                );
            }
            // The optimizer must not change the result multiset.
            let run = |optimizer: bool| {
                let session = session_from(&incomplete);
                session.set_optimizer_enabled(optimizer);
                session
                    .query_ua(sql)
                    .expect("row query")
                    .table
                    .sorted_rows()
            };
            assert_eq!(
                run(true),
                run(false),
                "seed {seed}: optimizer changed the result of `{sql}`"
            );
        }
    }
}

#[test]
fn full_sessions_stay_c_sound_on_both_engines() {
    for seed in 0..4u64 {
        let incomplete = five_world_db(seed);
        for mode in [ExecMode::Row, ExecMode::Vectorized] {
            let session = session_from(&incomplete);
            session.set_exec_mode(mode);
            for (qname, ra) in queries() {
                let result = session.query_ua_ra(&ra).expect("session query");
                let truth = ground_truth_certain(&incomplete, &ra);
                assert!(
                    is_subset(&certain_tuples(&result.decode()), &truth),
                    "seed {seed}, {qname}, {mode:?}: session result is not c-sound"
                );
            }
        }
    }
}
