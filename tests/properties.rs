//! Property-based tests of the paper's core invariants, over randomly
//! generated databases and queries.

use proptest::prelude::*;
use uadb::core::{decode_relation, encode_database, encode_relation, rewrite_ua, UaDb};
use uadb::data::relation::{Database, Relation};
use uadb::data::{eval, Expr, ProjColumn, RaExpr, Schema, Tuple, Value};
use uadb::models::{XDb, XRelation, XTuple};
use uadb::semiring::pair::Ua;
use uadb::semiring::world::WorldVec;
use uadb::semiring::{laws, Semiring};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A small x-DB over schema (k, v): up to 6 x-tuples with up to 3
/// alternatives each, some optional.
fn arb_xdb() -> impl Strategy<Value = XDb> {
    let alternative =
        (0i64..4, 0i64..3).prop_map(|(k, v)| Tuple::new(vec![Value::Int(k), Value::Int(v)]));
    let xtuple = (
        proptest::collection::vec(alternative, 1..=3),
        proptest::bool::ANY,
    )
        .prop_map(|(alts, optional)| {
            if optional {
                XTuple::optional(alts, 0.5)
            } else {
                XTuple::total(alts)
            }
        });
    proptest::collection::vec(xtuple, 1..=6).prop_map(|xtuples| {
        let mut rel = XRelation::new(Schema::qualified("r", ["k", "v"]));
        for xt in xtuples {
            rel.push(xt);
        }
        let mut db = XDb::new();
        db.insert("r", rel);
        db
    })
}

/// A random RA⁺ query over `r(k, v)`.
fn arb_query() -> impl Strategy<Value = RaExpr> {
    prop_oneof![
        (0i64..3).prop_map(|c| { RaExpr::table("r").select(Expr::named("v").ge(Expr::lit(c))) }),
        Just(RaExpr::table("r").project(["k"])),
        Just(RaExpr::table("r").project(["v"])),
        (0i64..3).prop_map(|c| {
            RaExpr::table("r")
                .select(Expr::named("k").eq(Expr::lit(c)))
                .project(["v"])
        }),
        Just(RaExpr::table("r").alias("a").join(
            RaExpr::table("r").alias("b"),
            Expr::named("a.v").eq(Expr::named("b.v")),
        )),
        Just(
            RaExpr::table("r")
                .project(["k"])
                .union(RaExpr::table("r").project(["k"]))
        ),
        (0i64..3).prop_map(|c| {
            RaExpr::table("r")
                .alias("a")
                .join(
                    RaExpr::table("r").alias("b"),
                    Expr::named("a.k").eq(Expr::named("b.k")),
                )
                .select(Expr::named("a.v").ge(Expr::lit(c)))
                .project_cols(vec![ProjColumn::named("a.v")])
        }),
    ]
}

/// A random `RA⁺` tree over the `Enc` tables `r(k, v)` and `s(k, w)` (and
/// the unencoded `t(k)`), grown from a stream of choices: σ / π / ⋈ / × /
/// ∪ / alias at every level, self-joins included, with the occasional
/// reference to the `ua_c` marker — both rewritings must agree on what
/// they reject, too.
fn arb_ra_tree() -> impl Strategy<Value = RaExpr> {
    type Choices<'a> = std::slice::Iter<'a, usize>;
    fn next(choices: &mut Choices<'_>) -> usize {
        choices.next().copied().unwrap_or(0)
    }
    fn col(choices: &mut Choices<'_>) -> &'static str {
        match next(choices) {
            c if c % 16 == 15 => "ua_c",
            c => ["k", "v", "w", "a.k", "b.k"][c % 5],
        }
    }
    fn grow(choices: &mut Choices<'_>, depth: usize) -> RaExpr {
        let pick = next(choices) % 8;
        if depth == 0 || pick == 0 {
            return RaExpr::table(match next(choices) {
                c if c % 12 == 11 => "t",
                c => ["r", "s"][c % 2],
            });
        }
        let input = grow(choices, depth - 1);
        match pick {
            1 => input.select(Expr::named(col(choices)).ge(Expr::lit(next(choices) as i64))),
            2 => input.project([col(choices), col(choices)]),
            3 => input.alias(["a", "b"][next(choices) % 2]),
            4 => input.alias("a").join(
                grow(choices, depth - 1).alias("b"),
                Expr::named("a.k").eq(Expr::named(col(choices))),
            ),
            5 => input.cross(grow(choices, depth - 1)),
            6 => input.union(grow(choices, depth - 1)),
            _ => input.project_cols(vec![ProjColumn::expr(
                Expr::named(col(choices)).add(Expr::lit(1i64)),
                ["x", "k", "ua_c"][next(choices) % 3],
            )]),
        }
    }
    proptest::collection::vec(0usize..840, 4..40).prop_map(|choices| grow(&mut choices.iter(), 4))
}

/// A small ℕ_UA-relation over one int column.
fn arb_ua_relation() -> impl Strategy<Value = Relation<Ua<u64>>> {
    proptest::collection::vec((0i64..6, 0u64..3, 0u64..3), 0..8).prop_map(|rows| {
        Relation::from_annotated(
            Schema::qualified("r", ["a"]),
            rows.into_iter()
                .map(|(a, c, extra)| (Tuple::new(vec![Value::Int(a)]), Ua::new(c, c + extra))),
        )
    })
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The central soundness property (Theorems 4/5): for random x-DBs and
    /// random queries, the UA result under-approximates the certain
    /// annotations and matches the BGW exactly.
    #[test]
    fn queries_preserve_bounds(xdb in arb_xdb(), q in arb_query()) {
        let inc = xdb.enumerate_worlds(100_000);
        let ua = UaDb::from_xdb(&xdb);
        let result = ua.query(&q).expect("ua query");
        let ground = inc.query(&q).expect("world query");
        for (t, ann) in result.iter() {
            let cert = ground.certain_annotation("result", t);
            prop_assert!(ann.cert <= cert, "c-soundness violated at {t}");
            prop_assert!(cert <= ann.det, "over-approximation violated at {t}");
        }
    }

    /// Theorem 7 on random data: rewritten queries over the encoding
    /// compute the UA semantics exactly.
    #[test]
    fn rewriting_is_correct(rel in arb_ua_relation(), q in arb_query()) {
        // Reuse the r(k, v)-shaped queries over a 1-column table by
        // re-projecting: wrap the relation to (k, v) = (a, a).
        let widened = Relation::from_annotated(
            Schema::qualified("r", ["k", "v"]),
            rel.iter().map(|(t, ann)| {
                let a = t.get(0).expect("col").clone();
                (Tuple::new(vec![a.clone(), a]), *ann)
            }),
        );
        let mut db: Database<Ua<u64>> = Database::new();
        db.insert("r", widened);
        let ua = UaDb::from_database(db);

        let direct = ua.query(&q).expect("direct");
        let encoded = encode_database(ua.database());
        let lookup = |name: &str| encoded.get(name).map(|r| r.schema().clone());
        let rewritten = rewrite_ua(&q, &lookup).expect("rewrite");
        let via_enc = decode_relation(&eval(&rewritten, &encoded).expect("eval"));
        prop_assert_eq!(direct, via_enc);
    }

    /// The plan-level rewriting the session executes emits exactly the
    /// plans of the formal `RA⁺` reference, and rejects what it rejects.
    #[test]
    fn plan_rewriting_equals_the_reference(q in arb_ra_tree()) {
        use uadb::plan::{rewrite_ua_plan, Catalog, Plan, Table};
        let catalog = Catalog::new();
        for (name, cols) in [("r", vec!["k", "v", "ua_c"]), ("s", vec!["k", "w", "ua_c"]), ("t", vec!["k"])] {
            catalog.register(name, Table::new(Schema::qualified(name, cols)));
        }
        let lookup = |name: &str| catalog.schema_of(name);
        let plan = rewrite_ua_plan(&Plan::from_ra(&q), &catalog);
        match rewrite_ua(&q, &lookup) {
            Ok(reference) => prop_assert_eq!(plan.ok(), Some(Plan::from_ra(&reference)), "{}", &q),
            Err(e) => prop_assert!(plan.is_err(), "{} must be rejected ({:?})", &q, e),
        }
    }

    /// `Enc⁻¹ ∘ Enc` is the identity on well-formed UA-relations.
    #[test]
    fn encoding_round_trips(rel in arb_ua_relation()) {
        let decoded = decode_relation(&encode_relation(&rel));
        prop_assert_eq!(rel, decoded);
    }

    /// Lemma 3 on random annotation vectors: `cert` is superadditive and
    /// supermultiplicative.
    #[test]
    fn cert_is_super(
        a in proptest::collection::vec(0u64..5, 1..5),
        b in proptest::collection::vec(0u64..5, 1..5),
    ) {
        let n = a.len().min(b.len());
        let va = WorldVec::from_worlds(a[..n].to_vec());
        let vb = WorldVec::from_worlds(b[..n].to_vec());
        let sum_cert = va.plus(&vb).cert();
        let prod_cert = va.times(&vb).cert();
        prop_assert!(va.cert() + vb.cert() <= sum_cert);
        prop_assert!(va.cert() * vb.cert() <= prod_cert);
    }

    /// Semiring laws for random UA pairs (products of semirings are
    /// semirings).
    #[test]
    fn ua_pair_semiring_laws(
        elems in proptest::collection::vec((0u64..4, 0u64..4), 1..5)
    ) {
        let elems: Vec<Ua<u64>> = elems
            .into_iter()
            .map(|(c, d)| Ua::new(c.min(d), d))
            .collect();
        laws::check_semiring_laws(&elems);
    }

    /// Labeling schemes stay sound: the x-DB labeling never exceeds the
    /// certain annotation (Theorem 3, randomized).
    #[test]
    fn xdb_labeling_sound(xdb in arb_xdb()) {
        let inc = xdb.enumerate_worlds(100_000);
        let labeling = xdb.labeling();
        prop_assert!(uadb::incomplete::is_c_sound(&labeling, &inc));
        prop_assert!(uadb::incomplete::is_c_correct(&labeling, &inc));
    }

    /// The projection certainty oracle agrees with brute-force enumeration.
    #[test]
    fn projection_oracle_is_exact(xdb in arb_xdb(), col in 0usize..2) {
        let rel = xdb.get("r").expect("r");
        let oracle = rel.projection_certain_set(&[col]);
        let inc = xdb.enumerate_worlds(100_000);
        let q = RaExpr::table("r").project([if col == 0 { "k" } else { "v" }]);
        let ground = inc.query(&q).expect("worlds");
        let brute: Vec<Tuple> = ground
            .certain_relation("result")
            .map(|r| {
                let mut v: Vec<Tuple> = r.iter().map(|(t, _)| t.clone()).collect();
                v.sort();
                v
            })
            .unwrap_or_default();
        prop_assert_eq!(oracle, brute);
    }

    /// The Libkin baseline is c-sound on random Codd tables derived from
    /// x-DBs (uncertain attributes → NULL).
    #[test]
    fn libkin_under_approximates(xdb in arb_xdb(), q in arb_query()) {
        // Build the null view: per x-tuple, attributes where alternatives
        // disagree become NULL; optional x-tuples are dropped entirely
        // (sound: we may only under-approximate).
        let rel = xdb.get("r").expect("r");
        let mut rows = Vec::new();
        for xt in rel.xtuples() {
            if xt.optional {
                continue;
            }
            let first = &xt.alternatives[0].tuple;
            let values: Vec<Value> = (0..2)
                .map(|i| {
                    let v0 = first.get(i).expect("col");
                    if xt.alternatives.iter().all(|a| a.tuple.get(i) == Some(v0)) {
                        v0.clone()
                    } else {
                        Value::Null
                    }
                })
                .collect();
            rows.push(Tuple::new(values));
        }
        let catalog = uadb::engine::Catalog::new();
        catalog.register(
            "r",
            uadb::engine::Table::from_rows(Schema::qualified("r", ["k", "v"]), rows),
        );
        let under = uadb::baselines::certain_subset(
            &uadb::engine::Plan::from_ra(&q),
            &catalog,
        )
        .expect("libkin");

        let inc = xdb.enumerate_worlds(100_000);
        let ground = inc.query(&q).expect("worlds");
        for t in under.rows() {
            prop_assert!(
                ground.certain_annotation("result", t) > 0,
                "Libkin claimed non-certain tuple {t}"
            );
        }
    }
}
