//! AU-bound soundness, theorem-shaped, on enumerated `K^W` databases —
//! the aggregation-closing counterpart of `label_soundness.rs`.
//!
//! Setup: a seeded x-DB (blocks of weighted alternatives over `xr(g, v)`)
//! whose possible worlds are *enumerated exhaustively* (every choice of
//! alternative per block, presence/absence for sub-probability blocks).
//! The same blocks enter a [`UaSession`] through the SQL annotation path
//! (`xr IS X WITH XID … PROBABILITY …`), so the theorem exercises the
//! whole stack: labeling → flattened encoding → `⟦·⟧_AU` execution.
//!
//! For every query `Q` — **including GROUP BY aggregation and DISTINCT**,
//! which `⟦·⟧_UA` is not closed under — and both engines:
//!
//! ```text
//! ∀ world w:  Q(w)  is enclosed by  Q_AU(D)        (flow-checked upper
//!                                                    bounds + per-tuple
//!                                                    certainty claims)
//! sg(Q_AU(D)) = Q(w₀)                               (the selected guess
//!                                                    IS deterministic
//!                                                    evaluation over the
//!                                                    best-guess world)
//! row engine ≡ vectorized engine                    (byte-identical
//!                                                    encoded tables)
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::{EngineError, ExecMode, Table, UaSession};
use ua_ranges::{check_encloses_world, sg_rows, MultBound};

/// One x-tuple block: weighted alternatives over `(g, v)`.
type Block = Vec<(Tuple, f64)>;

/// Seeded blocks: certain singletons, two-alternative blocks (mass 1) and
/// sub-probability singletons (maybe absent). Small value domains so
/// groups collide and filters cut through ranges.
fn gen_blocks(seed: u64) -> Vec<Block> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_blocks = rng.gen_range(3..6usize);
    (0..n_blocks)
        .map(|_| {
            let g = rng.gen_range(0..3i64);
            let v = rng.gen_range(0..6i64);
            match rng.gen_range(0..4u8) {
                // Certain tuple.
                0 => vec![(Tuple::new(vec![Value::Int(g), Value::Int(v)]), 1.0)],
                // Two alternatives, possibly moving the group.
                1 => {
                    let g2 = rng.gen_range(0..3i64);
                    let v2 = rng.gen_range(0..6i64);
                    vec![
                        (Tuple::new(vec![Value::Int(g), Value::Int(v)]), 0.6),
                        (Tuple::new(vec![Value::Int(g2), Value::Int(v2)]), 0.4),
                    ]
                }
                // Two equal-mass alternatives sharing the group key.
                2 => {
                    let v2 = rng.gen_range(0..6i64);
                    vec![
                        (Tuple::new(vec![Value::Int(g), Value::Int(v)]), 0.5),
                        (Tuple::new(vec![Value::Int(g), Value::Int(v2)]), 0.5),
                    ]
                }
                // Maybe-absent tuple (sub-probability block).
                _ => vec![(
                    Tuple::new(vec![Value::Int(g), Value::Int(v)]),
                    [0.3, 0.5, 0.8][rng.gen_range(0..3usize)],
                )],
            }
        })
        .collect()
}

/// Every possible world: one choice per block (each alternative; `absent`
/// too when the block's mass stays below 1).
fn enumerate_worlds(blocks: &[Block]) -> Vec<Table> {
    let schema = Schema::qualified("xr", ["g", "v"]);
    let mut worlds: Vec<Vec<Tuple>> = vec![Vec::new()];
    for block in blocks {
        let total: f64 = block.iter().map(|(_, p)| p).sum();
        let mut choices: Vec<Option<&Tuple>> = block.iter().map(|(t, _)| Some(t)).collect();
        if total < 1.0 - 1e-9 {
            choices.push(None);
        }
        let mut next = Vec::with_capacity(worlds.len() * choices.len());
        for w in &worlds {
            for c in &choices {
                let mut rows = w.clone();
                if let Some(t) = c {
                    rows.push((*t).clone());
                }
                next.push(rows);
            }
        }
        worlds = next;
    }
    worlds
        .into_iter()
        .map(|rows| Table::from_rows(schema.clone(), rows))
        .collect()
}

/// The selected-guess world under the labeling's rule: the (first) argmax
/// alternative per block, skipped when absence is likelier.
fn sg_world(blocks: &[Block]) -> Table {
    let schema = Schema::qualified("xr", ["g", "v"]);
    let mut rows = Vec::new();
    for block in blocks {
        let total: f64 = block.iter().map(|(_, p)| p).sum();
        let mut best = 0usize;
        for (i, (_, p)) in block.iter().enumerate() {
            if *p > block[best].1 {
                best = i;
            }
        }
        let p_absent = (1.0 - total).max(0.0);
        if block[best].1 >= p_absent {
            rows.push(block[best].0.clone());
        }
    }
    Table::from_rows(schema, rows)
}

/// The raw x-table (`xid, aid, p, g, v`) the SQL annotation path labels.
fn raw_x_table(blocks: &[Block]) -> Table {
    let mut rows = Vec::new();
    for (xid, block) in blocks.iter().enumerate() {
        for (aid, (t, p)) in block.iter().enumerate() {
            rows.push(Tuple::new(vec![
                Value::Int(xid as i64),
                Value::Int(aid as i64),
                Value::float(*p),
                t.get(0).expect("g").clone(),
                t.get(1).expect("v").clone(),
            ]));
        }
    }
    Table::from_rows(Schema::qualified("xr", ["xid", "aid", "p", "g", "v"]), rows)
}

const X_SOURCE: &str = "xr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) x";

/// `(AU query, deterministic per-world counterpart)` pairs — the headline
/// GROUP BY + SUM/COUNT shapes plus DISTINCT, global aggregation,
/// uncertain filters below aggregation, and an RA⁺ projection for
/// contrast.
fn query_pairs() -> Vec<(String, String)> {
    [
        "SELECT g, count(*) AS n FROM {src} GROUP BY g",
        "SELECT g, count(*) AS n, sum(v) AS s FROM {src} GROUP BY g",
        "SELECT g, min(v) AS lo, max(v) AS hi FROM {src} GROUP BY g",
        "SELECT count(*) AS n, sum(v) AS s, avg(v) AS m FROM {src}",
        "SELECT g, sum(v) AS s FROM {src} WHERE v >= 3 GROUP BY g",
        "SELECT DISTINCT g FROM {src}",
        "SELECT v + 1 AS w FROM {src} WHERE g >= 1",
    ]
    .iter()
    .map(|q| (q.replace("{src}", X_SOURCE), q.replace("{src}", "xr x")))
    .collect()
}

fn au_session(blocks: &[Block], mode: ExecMode) -> UaSession {
    let session = UaSession::with_mode(mode);
    session.register_table("xr", raw_x_table(blocks));
    session
}

fn det_over(world: &Table, sql: &str) -> Table {
    let session = UaSession::with_mode(ExecMode::Row);
    session.register_table("xr", world.clone());
    session
        .query_det(sql)
        .unwrap_or_else(|e| panic!("world query `{sql}`: {e}"))
}

#[test]
fn au_bounds_enclose_every_world_including_group_by() {
    for seed in 0..32u64 {
        let blocks = gen_blocks(seed);
        let worlds = enumerate_worlds(&blocks);
        let sg = sg_world(&blocks);
        assert!(
            worlds.iter().any(|w| w.sorted_rows() == sg.sorted_rows()),
            "seed {seed}: the SG world must be one of the enumerated worlds"
        );
        for (au_sql, det_sql) in query_pairs() {
            let row = au_session(&blocks, ExecMode::Row)
                .query_au(&au_sql)
                .unwrap_or_else(|e| panic!("seed {seed}, row `{au_sql}`: {e}"));
            let vec = au_session(&blocks, ExecMode::Vectorized)
                .query_au(&au_sql)
                .unwrap_or_else(|e| panic!("seed {seed}, vec `{au_sql}`: {e}"));
            // Both engines produce byte-identical encoded AU tables.
            assert_eq!(
                row.table.schema(),
                vec.table.schema(),
                "seed {seed}: {au_sql}"
            );
            assert_eq!(
                row.table.rows(),
                vec.table.rows(),
                "seed {seed}: engines diverge on {au_sql}"
            );
            let au_rel = row.decode();
            // The selected guess IS deterministic evaluation over the SG
            // world.
            let sg_expected = {
                let mut rows = det_over(&sg, &det_sql).rows().to_vec();
                rows.sort();
                rows
            };
            assert_eq!(
                sg_rows(&au_rel),
                sg_expected,
                "seed {seed}: SG component diverges from the BGW on {au_sql}"
            );
            // Enclosure of every possible world (attribute bounds AND
            // multiplicity bounds — no silent bound violations).
            for (wi, world) in worlds.iter().enumerate() {
                let truth = det_over(world, &det_sql);
                if let Err(violation) = check_encloses_world(&au_rel, truth.rows()) {
                    panic!(
                        "seed {seed}, world {wi}, query `{au_sql}`: {violation}\n\
                         world input: {:?}\nworld result: {:?}",
                        world.rows(),
                        truth.rows()
                    );
                }
            }
        }
    }
}

/// The acceptance shape spelled out: GROUP BY + SUM/COUNT over a TI
/// source, end-to-end in AU mode on both engines, bounds enclosing every
/// world of the tuple-independent ground truth.
#[test]
fn ti_group_by_sum_count_end_to_end() {
    let base = Table::from_rows(
        Schema::qualified("t", ["g", "v", "p"]),
        vec![
            Tuple::new(vec![Value::Int(1), Value::Int(10), Value::float(1.0)]),
            Tuple::new(vec![Value::Int(1), Value::Int(20), Value::float(0.7)]),
            Tuple::new(vec![Value::Int(2), Value::Int(30), Value::float(0.4)]),
            Tuple::new(vec![Value::Int(2), Value::Int(40), Value::float(1.0)]),
        ],
    );
    let sql = "SELECT g, count(*) AS n, sum(v) AS s FROM \
               t IS TI WITH PROBABILITY (p) x GROUP BY g";
    let mut results = Vec::new();
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        let session = UaSession::with_mode(mode);
        session.register_table("t", base.clone());
        results.push(
            session
                .query_au(sql)
                .unwrap_or_else(|e| panic!("{mode:?}: {e}")),
        );
    }
    assert_eq!(results[0].table.rows(), results[1].table.rows());
    let au_rel = results[0].decode();

    // Enumerate the 4 uncertain-tuple subsets (rows 2 and 3 optional).
    let world_schema = Schema::qualified("t", ["g", "v"]);
    let all: Vec<Tuple> = vec![
        Tuple::new(vec![Value::Int(1), Value::Int(10)]),
        Tuple::new(vec![Value::Int(1), Value::Int(20)]),
        Tuple::new(vec![Value::Int(2), Value::Int(30)]),
        Tuple::new(vec![Value::Int(2), Value::Int(40)]),
    ];
    for mask in 0..4u8 {
        let rows: Vec<Tuple> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| match i {
                1 => mask & 1 != 0,
                2 => mask & 2 != 0,
                _ => true,
            })
            .map(|(_, t)| t.clone())
            .collect();
        let world = Table::from_rows(world_schema.clone(), rows);
        let session = UaSession::with_mode(ExecMode::Row);
        session.register_table("t", world);
        let truth = session
            .query_det("SELECT g, count(*) AS n, sum(v) AS s FROM t x GROUP BY g")
            .expect("world query");
        check_encloses_world(&au_rel, truth.rows()).unwrap_or_else(|e| panic!("mask {mask}: {e}"));
    }
    // Spot-check the headline numbers: group 1 certainly has its p = 1.0
    // row, possibly the 0.7 one → count [1,2], SG 2; sum [10, 30], SG 30.
    let g1 = au_rel
        .rows()
        .iter()
        .find(|r| r.values[0].bg == Value::Int(1))
        .expect("group 1");
    assert_eq!(g1.values[1].bg, Value::Int(2));
    assert!(g1.values[1].contains(&Value::Int(1)));
    assert!(!g1.values[1].contains(&Value::Int(0)));
    assert_eq!(g1.values[2].bg, Value::Int(30));
    assert!(g1.values[2].contains(&Value::Int(10)));
    assert!(g1.mult.lb >= 1, "group 1 certainly materializes");
}

/// A session dialed to one point of the sweep grid.
fn au_session_at(blocks: &[Block], mode: ExecMode, optimize: bool, threads: usize) -> UaSession {
    let session = au_session(blocks, mode);
    session.set_optimizer_enabled(optimize);
    session.set_vec_threads(threads);
    session.register_table(
        "dim",
        Table::from_rows(
            Schema::qualified("dim", ["k", "name", "q"]),
            vec![
                Tuple::new(vec![Value::Int(0), Value::str("zero"), Value::float(1.0)]),
                Tuple::new(vec![Value::Int(1), Value::str("one"), Value::float(0.8)]),
                Tuple::new(vec![Value::Int(2), Value::str("two"), Value::float(1.0)]),
            ],
        ),
    );
    session
}

/// The sweep's identity query set: the enclosure shapes plus the plan
/// shapes the optimizer rewrites on AU plans — a join (hash join with the
/// optimizer on, pruned nested loop off) and ORDER BY / LIMIT (Top-K
/// fused on, Sort + Limit off).
fn sweep_queries() -> Vec<String> {
    let mut queries: Vec<String> = query_pairs().into_iter().map(|(au, _)| au).collect();
    queries.push(format!(
        "SELECT x.g, x.v, d.name FROM {X_SOURCE}, \
         dim IS TI WITH PROBABILITY (q) d WHERE x.g = d.k"
    ));
    queries.push(format!(
        "SELECT x.g, x.v FROM {X_SOURCE} ORDER BY x.v DESC, x.g LIMIT 4"
    ));
    queries
}

/// The tentpole's stability theorem, swept across the execution grid:
/// within one optimizer setting, AU results are **byte-identical** across
/// `{Row} ∪ {Vec × threads 1, 2, 8}`; across optimizer settings they are
/// multiset-equal (the optimizer may legally reorder rows); and the
/// bounds that come out of *every* grid point enclose every possible
/// world.
#[test]
fn au_results_stable_across_threads_and_optimizer() {
    for seed in 0..6u64 {
        let blocks = gen_blocks(seed);
        let worlds = enumerate_worlds(&blocks);
        for sql in sweep_queries() {
            let mut per_opt: Vec<Vec<Tuple>> = Vec::new();
            for optimize in [true, false] {
                let row = au_session_at(&blocks, ExecMode::Row, optimize, 0)
                    .query_au(&sql)
                    .unwrap_or_else(|e| panic!("seed {seed}, row opt={optimize} `{sql}`: {e}"));
                for threads in [1usize, 2, 8] {
                    let vec = au_session_at(&blocks, ExecMode::Vectorized, optimize, threads)
                        .query_au(&sql)
                        .unwrap_or_else(|e| {
                            panic!("seed {seed}, vec opt={optimize} t={threads} `{sql}`: {e}")
                        });
                    assert_eq!(
                        row.table.schema(),
                        vec.table.schema(),
                        "seed {seed}, opt={optimize}, t={threads}: {sql}"
                    );
                    assert_eq!(
                        row.table.rows(),
                        vec.table.rows(),
                        "seed {seed}, opt={optimize}, t={threads}: engines diverge on {sql}"
                    );
                }
                per_opt.push(row.table.sorted_rows());
            }
            assert_eq!(
                per_opt[0], per_opt[1],
                "seed {seed}: optimizer changes the AU result multiset on {sql}"
            );
        }
        // Enclosure at every grid point: results within one optimizer
        // setting are byte-identical (just asserted), so checking one
        // representative per setting covers the whole grid.
        for (au_sql, det_sql) in query_pairs() {
            for optimize in [true, false] {
                let au_rel = au_session_at(&blocks, ExecMode::Vectorized, optimize, 2)
                    .query_au(&au_sql)
                    .unwrap_or_else(|e| panic!("seed {seed}, opt={optimize} `{au_sql}`: {e}"))
                    .decode();
                for (wi, world) in worlds.iter().enumerate() {
                    let truth = det_over(world, &det_sql);
                    if let Err(violation) = check_encloses_world(&au_rel, truth.rows()) {
                        panic!("seed {seed}, opt={optimize}, world {wi}, `{au_sql}`: {violation}");
                    }
                }
            }
        }
    }
}

/// The batch-native operators must stay batch-native: running the sweep's
/// covered plan shapes (aggregation, joins — nested-loop and hash —,
/// sort, limit, top-k, union) through the vectorized AU path must not
/// bump their `au.vec.fallback.*` counters. Only `distinct` may fall
/// back.
#[test]
fn au_vec_covered_plans_do_not_fall_back() {
    let blocks = gen_blocks(3);
    const COUNTERS: [&str; 7] = [
        "au.vec.fallback.join",
        "au.vec.fallback.hash_join",
        "au.vec.fallback.aggregate",
        "au.vec.fallback.sort",
        "au.vec.fallback.limit",
        "au.vec.fallback.top_k",
        "au.vec.fallback.union_all",
    ];
    let read = || -> Vec<u64> {
        COUNTERS
            .iter()
            .map(|c| ua_obs::global().counter(c).get())
            .collect()
    };
    let before = read();
    let union_sql = format!(
        "SELECT g, v FROM {X_SOURCE} WHERE v < 3 \
         UNION ALL SELECT g, v FROM {X_SOURCE} WHERE v >= 3"
    );
    for optimize in [true, false] {
        for threads in [1usize, 2, 8] {
            let session = au_session_at(&blocks, ExecMode::Vectorized, optimize, threads);
            for sql in sweep_queries().iter().chain(std::iter::once(&union_sql)) {
                session
                    .query_au(sql)
                    .unwrap_or_else(|e| panic!("opt={optimize} t={threads} `{sql}`: {e}"));
            }
        }
    }
    assert_eq!(
        before,
        read(),
        "covered AU plan shapes fell back to the row-at-a-time path"
    );
}

/// Negation shapes under AU: both sides of every query read the *same*
/// uncertain x-DB (worlds are correlated — a strictly harder enclosure
/// case than independent sides, since the bound combination treats the
/// sides independently and must therefore enclose every world *pair*).
fn negation_query_pairs() -> Vec<(String, String)> {
    const XA: &str = "xr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) a";
    const XB: &str = "xr IS X WITH XID (xid) ALTID (aid) PROBABILITY (p) b";
    [
        "SELECT a.g FROM {A} EXCEPT SELECT b.v FROM {B}",
        "SELECT a.g FROM {A} EXCEPT ALL SELECT b.v FROM {B} WHERE b.v < 3",
        "SELECT a.g, a.v, b.g FROM {A} LEFT JOIN {B} ON a.g = b.v",
        "SELECT a.g, a.v, b.g FROM {A} RIGHT JOIN {B} ON a.g = b.v",
        "SELECT a.g, a.v FROM {A} WHERE a.g NOT IN (SELECT b.v FROM {B})",
        "SELECT a.g, a.v FROM {A} WHERE NOT EXISTS (SELECT b.g FROM {B} WHERE b.g >= 2)",
    ]
    .iter()
    .map(|q| {
        (
            q.replace("{A}", XA).replace("{B}", XB),
            q.replace("{A}", "xr a").replace("{B}", "xr b"),
        )
    })
    .collect()
}

/// `K^W` under-approximation theorem for the negation operators: the AU
/// bounds produced for EXCEPT [ALL], LEFT/RIGHT OUTER JOIN and the
/// NOT IN / NOT EXISTS anti-join lowerings enclose the query's answer in
/// every enumerated possible world, the selected guess equals
/// deterministic evaluation over the SG world, the engines agree byte for
/// byte, and none of the batch-native `au.vec.fallback.*` counters move.
#[test]
fn au_negation_bounds_enclose_every_world() {
    const COUNTERS: [&str; 8] = [
        "au.vec.fallback.join",
        "au.vec.fallback.hash_join",
        "au.vec.fallback.aggregate",
        "au.vec.fallback.sort",
        "au.vec.fallback.limit",
        "au.vec.fallback.top_k",
        "au.vec.fallback.union_all",
        "au.vec.fallback.distinct",
    ];
    let read = || -> Vec<u64> {
        COUNTERS
            .iter()
            .map(|c| ua_obs::global().counter(c).get())
            .collect()
    };
    let before = read();
    for seed in 0..16u64 {
        let blocks = gen_blocks(seed);
        let worlds = enumerate_worlds(&blocks);
        let sg = sg_world(&blocks);
        for (au_sql, det_sql) in negation_query_pairs() {
            let row = au_session(&blocks, ExecMode::Row)
                .query_au(&au_sql)
                .unwrap_or_else(|e| panic!("seed {seed}, row `{au_sql}`: {e}"));
            let vec = au_session(&blocks, ExecMode::Vectorized)
                .query_au(&au_sql)
                .unwrap_or_else(|e| panic!("seed {seed}, vec `{au_sql}`: {e}"));
            assert_eq!(
                row.table.schema(),
                vec.table.schema(),
                "seed {seed}: {au_sql}"
            );
            assert_eq!(
                row.table.rows(),
                vec.table.rows(),
                "seed {seed}: engines diverge on {au_sql}"
            );
            let au_rel = row.decode();
            // Selected guess = deterministic evaluation over the SG world.
            let sg_expected = {
                let mut rows = det_over(&sg, &det_sql).rows().to_vec();
                rows.sort();
                rows
            };
            assert_eq!(
                sg_rows(&au_rel),
                sg_expected,
                "seed {seed}: SG component diverges from the BGW on {au_sql}"
            );
            // Enclosure of every possible world.
            for (wi, world) in worlds.iter().enumerate() {
                let truth = det_over(world, &det_sql);
                if let Err(violation) = check_encloses_world(&au_rel, truth.rows()) {
                    panic!(
                        "seed {seed}, world {wi}, query `{au_sql}`: {violation}\n\
                         world input: {:?}\nworld result: {:?}",
                        world.rows(),
                        truth.rows()
                    );
                }
            }
        }
    }
    assert_eq!(
        before,
        read(),
        "negation AU plans bumped a row-at-a-time fallback counter"
    );
}

/// `ua_c` is rejected uniformly in GROUP BY keys and aggregate arguments
/// on BOTH engines — the same class of hole PR 4 closed for ORDER BY.
#[test]
fn marker_in_group_by_rejected_on_both_engines() {
    let blocks = gen_blocks(1);
    for sql in [
        "SELECT ua_c, count(*) AS n FROM {src} GROUP BY ua_c".replace("{src}", X_SOURCE),
        "SELECT g, sum(ua_c) AS s FROM {src} GROUP BY g".replace("{src}", X_SOURCE),
        "SELECT g, count(ua_c) AS s FROM {src} GROUP BY g".replace("{src}", X_SOURCE),
    ] {
        for mode in [ExecMode::Row, ExecMode::Vectorized] {
            let session = au_session(&blocks, mode);
            let err = session.query_au(&sql);
            assert!(
                matches!(
                    err,
                    Err(EngineError::Schema(
                        ua_data::schema::SchemaError::AmbiguousColumn(_)
                    ))
                ),
                "{mode:?}: `{sql}` must be rejected, got {err:?}"
            );
        }
    }
}

/// Interval endpoints are *checked*: `[1, 1, 2⁶²] * 4` used to compute its
/// upper endpoint with the scalar evaluator's wrapping product (`2⁶⁴ ≡ 0`)
/// and answer `[0, 4, 4]`, while the world `v = 2⁶¹` evaluates — under the
/// engine's own wrapping arithmetic — to `i64::MIN`. An overflowing
/// endpoint now widens the result to top (on both engines: the typed
/// kernel abandons the batch), so every world is enclosed again — through
/// a projection, a nested expression and a computed predicate operand —
/// while a product of two *points* keeps the wrapped point (one world,
/// whose value is the evaluator's).
#[test]
fn overflowing_interval_endpoints_widen_instead_of_wrapping() {
    let t = |g: i64, v: i64| Tuple::new(vec![Value::Int(g), Value::Int(v)]);
    let blocks: Vec<Block> = vec![
        // v ∈ {1, 2⁶¹, 2⁶²}: the range [1, 1, 2⁶²].
        vec![(t(0, 1), 0.5), (t(0, 1 << 61), 0.25), (t(0, 1 << 62), 0.25)],
        // A certain 2⁶²: a point.
        vec![(t(1, 1 << 62), 1.0)],
        // Small values: no overflow, tight bounds.
        vec![(t(2, 3), 0.6), (t(2, 5), 0.4)],
        // v ∈ {−2, 2⁶², i64::MAX − 1}: sums and differences overflow too.
        vec![
            (t(3, -2), 0.5),
            (t(3, 1 << 62), 0.25),
            (t(3, i64::MAX - 1), 0.25),
        ],
    ];
    let worlds = enumerate_worlds(&blocks);
    let sg = sg_world(&blocks);
    let pairs: Vec<(String, String)> = [
        "SELECT g, v * 4 AS w FROM {src}",
        "SELECT g, 4 * v AS w FROM {src}",
        "SELECT g, (v * 4 + g) * 2 AS w FROM {src}",
        "SELECT g, v + 4611686018427387904 AS w FROM {src}",
        "SELECT g, 0 - 4611686018427387904 - v AS w FROM {src}",
        "SELECT g FROM {src} WHERE v * 4 < 0",
        "SELECT g FROM {src} WHERE v * 4 BETWEEN 0 AND 100",
    ]
    .iter()
    .map(|q| (q.replace("{src}", X_SOURCE), q.replace("{src}", "xr x")))
    .collect();
    for (au_sql, det_sql) in &pairs {
        let row = au_session(&blocks, ExecMode::Row)
            .query_au(au_sql)
            .unwrap_or_else(|e| panic!("row `{au_sql}`: {e}"));
        let vec = au_session(&blocks, ExecMode::Vectorized)
            .query_au(au_sql)
            .unwrap_or_else(|e| panic!("vec `{au_sql}`: {e}"));
        assert_eq!(
            row.table.rows(),
            vec.table.rows(),
            "engines diverge on {au_sql}"
        );
        let au_rel = row.decode();
        let mut sg_expected = det_over(&sg, det_sql).rows().to_vec();
        sg_expected.sort();
        assert_eq!(
            sg_rows(&au_rel),
            sg_expected,
            "the selected guess is the evaluator's wrapping result: {au_sql}"
        );
        for (wi, world) in worlds.iter().enumerate() {
            let truth = det_over(world, det_sql);
            if let Err(violation) = check_encloses_world(&au_rel, truth.rows()) {
                panic!(
                    "world {wi}, query `{au_sql}`: {violation}\n\
                     world input: {:?}\nworld result: {:?}",
                    world.rows(),
                    truth.rows()
                );
            }
        }
    }
    // Point × point: the wrapped point, not top; and the small block's
    // bounds are as tight as ever.
    let products = au_session(&blocks, ExecMode::Vectorized)
        .query_au(&pairs[0].0)
        .expect("vec")
        .decode();
    let w_of = |g: i64| {
        let row = products
            .rows()
            .iter()
            .find(|r| r.values[0].bg == Value::Int(g))
            .expect("group present");
        row.values[1].clone()
    };
    assert!(w_of(0).is_top(), "an overflowing endpoint widens to top");
    assert_eq!(w_of(0).bg, Value::Int(4));
    assert!(w_of(1).is_point(), "point × point stays a point");
    assert_eq!(w_of(1).bg, Value::Int((1i64 << 62).wrapping_mul(4)));
    assert!(w_of(2).contains(&Value::Int(12)) && w_of(2).contains(&Value::Int(20)));
    assert!(!w_of(2).contains(&Value::Int(21)) && !w_of(2).is_top());
}

/// AU `COUNT` over registered multiplicities at `i64::MAX` saturates
/// instead of wrapping: two rows used to count `[-2, -2, i64::MAX]` and
/// three panicked a debug build in the lower-bound sum. Global
/// `COUNT(*)`, `COUNT(x)` and a grouped `COUNT(*)` now answer
/// `[i64::MAX, i64::MAX, i64::MAX]`, byte-identically on both engines.
#[test]
fn count_over_huge_multiplicities_saturates_instead_of_wrapping() {
    use ua_ranges::{AuRelation, AuTuple, Bound, RangeValue};
    let huge = i64::MAX as u64;
    let max = Value::Int(i64::MAX);
    for n_rows in [2usize, 3] {
        let mut rel = AuRelation::new(Schema::qualified("t", ["g", "x"]));
        for _ in 0..n_rows {
            rel.push(AuTuple {
                values: vec![
                    RangeValue::point(Value::Int(0)),
                    RangeValue::point(Value::Int(1)),
                ],
                mult: MultBound::new(huge, huge, huge),
            });
        }
        for sql in [
            "SELECT count(*) AS n FROM t",
            "SELECT count(x) AS n FROM t",
            "SELECT g, count(*) AS n FROM t GROUP BY g",
        ] {
            let results: Vec<_> = [ExecMode::Row, ExecMode::Vectorized]
                .into_iter()
                .map(|mode| {
                    let session = UaSession::with_mode(mode);
                    session.register_au_relation("t", &rel);
                    session
                        .query_au(sql)
                        .unwrap_or_else(|e| panic!("{mode:?} `{sql}` over {n_rows} rows: {e}"))
                })
                .collect();
            assert_eq!(
                results[0].table.rows(),
                results[1].table.rows(),
                "engines diverge on `{sql}` over {n_rows} rows"
            );
            let decoded = results[0].decode();
            let [row] = decoded.rows() else {
                panic!("`{sql}` over {n_rows} rows: one group expected");
            };
            let n = row.values.last().expect("the count column");
            assert_eq!(
                (n.lb(), &n.bg, n.ub()),
                (&Bound::Val(max.clone()), &max, &Bound::Val(max.clone())),
                "`{sql}` over {n_rows} rows"
            );
        }
    }
}

/// AU `AVG` over the same huge multiplicities counts exactly: three rows
/// of `[i64::MAX; 3]` copies used to panic a debug build in the bounds'
/// count sum, and a release build wrapped the selected guess's count and
/// answered `3.0` for an average of ones. Global and grouped `AVG(x)` now
/// answer `[1.0, 1.0, 1.0]`, byte-identically on both engines.
#[test]
fn avg_over_huge_multiplicities_counts_exactly() {
    use ua_ranges::{AuRelation, AuTuple, Bound, RangeValue};
    let huge = i64::MAX as u64;
    let one = Value::float(1.0);
    for n_rows in [2usize, 3] {
        let mut rel = AuRelation::new(Schema::qualified("t", ["g", "x"]));
        for _ in 0..n_rows {
            rel.push(AuTuple {
                values: vec![
                    RangeValue::point(Value::Int(0)),
                    RangeValue::point(Value::Int(1)),
                ],
                mult: MultBound::new(huge, huge, huge),
            });
        }
        for sql in [
            "SELECT avg(x) AS a FROM t",
            "SELECT g, avg(x) AS a FROM t GROUP BY g",
        ] {
            let results: Vec<_> = [ExecMode::Row, ExecMode::Vectorized]
                .into_iter()
                .map(|mode| {
                    let session = UaSession::with_mode(mode);
                    session.register_au_relation("t", &rel);
                    session
                        .query_au(sql)
                        .unwrap_or_else(|e| panic!("{mode:?} `{sql}` over {n_rows} rows: {e}"))
                })
                .collect();
            assert_eq!(
                results[0].table.rows(),
                results[1].table.rows(),
                "engines diverge on `{sql}` over {n_rows} rows"
            );
            let decoded = results[0].decode();
            let [row] = decoded.rows() else {
                panic!("`{sql}` over {n_rows} rows: one group expected");
            };
            let a = row.values.last().expect("the avg column");
            assert_eq!(
                (a.lb(), &a.bg, a.ub()),
                (&Bound::Val(one.clone()), &one, &Bound::Val(one.clone())),
                "`{sql}` over {n_rows} rows"
            );
        }
    }
}

/// AU `GROUP BY` over a key column holding both `1` and `1.0`: two
/// selected-guess groups (as in every world) that share one normalized
/// key. The certain `1` is a possible member of the group `1.0` but never a
/// certain one, so that group — whose only row is absent from the
/// selected guess — gets the well-formed triple `[0, 0, 1]` on both engines
/// (it was `[1, 0, 2]`: a debug build panicked, a release build encoded
/// `lb > bg`), and the bounds enclose both worlds of the TI source.
#[test]
fn group_by_over_mixed_int_float_keys_keeps_multiplicities_well_formed() {
    let base = Table::from_rows(
        Schema::qualified("t", ["k", "p"]),
        vec![
            Tuple::new(vec![Value::Int(1), Value::float(1.0)]),
            Tuple::new(vec![Value::float(1.0), Value::float(0.3)]),
        ],
    );
    let sql = "SELECT x.k, count(*) AS n FROM t IS TI WITH PROBABILITY (p) x GROUP BY x.k";
    let results: Vec<_> = [ExecMode::Row, ExecMode::Vectorized]
        .into_iter()
        .map(|mode| {
            let session = UaSession::with_mode(mode);
            session.register_table("t", base.clone());
            session
                .query_au(sql)
                .unwrap_or_else(|e| panic!("{mode:?}: {e}"))
        })
        .collect();
    assert_eq!(results[0].table.rows(), results[1].table.rows());
    let au_rel = results[0].decode();
    let mults: Vec<MultBound> = au_rel.rows().iter().map(|r| r.mult).collect();
    assert_eq!(mults, [MultBound::new(1, 1, 1), MultBound::new(0, 0, 1)]);

    let world_schema = Schema::qualified("t", ["k"]);
    let one = Tuple::new(vec![Value::Int(1)]);
    let one_float = Tuple::new(vec![Value::float(1.0)]);
    for (name, rows) in [
        ("both", vec![one.clone(), one_float]),
        ("certain row only", vec![one]),
    ] {
        let session = UaSession::with_mode(ExecMode::Row);
        session.register_table("t", Table::from_rows(world_schema.clone(), rows));
        let truth = session
            .query_det("SELECT x.k, count(*) AS n FROM t x GROUP BY x.k")
            .expect("world query");
        check_encloses_world(&au_rel, truth.rows()).unwrap_or_else(|e| panic!("{name}: {e}"));
        if name == "certain row only" {
            // The selected-guess world: the 0.3 row is likelier absent.
            assert_eq!(sg_rows(&au_rel), truth.sorted_rows());
        }
    }
}

/// A point-key group's multiplicity is bounded by 1 whatever its possible
/// members: a world has at most one group at a given key, so at most one
/// copy is ever charged to it. Group `1` collects certain, maybe-absent
/// and alternative members from a TI and an x-DB source; group `2`'s key
/// hull is `[1, 2]` (one x-tuple may move to group `1`), which also makes
/// that x-tuple a ranged possible member of group `1`. On both engines the
/// point-key group is `[1, 1, 1]`, the ranged-key group keeps the sum of
/// its possible members' copies, and the result encloses every world.
#[test]
fn point_key_groups_over_ti_and_x_members_bound_their_multiplicity_by_one() {
    let ti = Table::from_rows(
        Schema::qualified("t", ["g", "v", "p"]),
        vec![
            Tuple::new(vec![Value::Int(1), Value::Int(10), Value::float(1.0)]),
            Tuple::new(vec![Value::Int(1), Value::Int(20), Value::float(0.7)]),
            Tuple::new(vec![Value::Int(2), Value::Int(30), Value::float(0.5)]),
        ],
    );
    let blocks: Vec<Block> = vec![
        // Two alternatives sharing group `1`.
        vec![
            (Tuple::new(vec![Value::Int(1), Value::Int(7)]), 0.5),
            (Tuple::new(vec![Value::Int(1), Value::Int(8)]), 0.5),
        ],
        // Maybe absent.
        vec![(Tuple::new(vec![Value::Int(1), Value::Int(9)]), 0.6)],
        // Group `2`, or group `1`.
        vec![
            (Tuple::new(vec![Value::Int(2), Value::Int(4)]), 0.6),
            (Tuple::new(vec![Value::Int(1), Value::Int(6)]), 0.4),
        ],
    ];
    let au_sql = format!(
        "SELECT g, count(*) AS n, sum(v) AS s FROM \
         (SELECT x.g, x.v FROM t IS TI WITH PROBABILITY (p) x \
          UNION ALL SELECT y.g, y.v FROM {}) u GROUP BY g",
        X_SOURCE.replace(" x", " y")
    );
    let det_sql = "SELECT g, count(*) AS n, sum(v) AS s FROM \
                   (SELECT g, v FROM t UNION ALL SELECT g, v FROM xr) u GROUP BY g";
    let results: Vec<_> = [ExecMode::Row, ExecMode::Vectorized]
        .into_iter()
        .map(|mode| {
            let session = au_session(&blocks, mode);
            session.register_table("t", ti.clone());
            session
                .query_au(&au_sql)
                .unwrap_or_else(|e| panic!("{mode:?}: {e}"))
        })
        .collect();
    assert_eq!(results[0].table.rows(), results[1].table.rows());
    let au_rel = results[0].decode();
    let mult_of = |g: i64| {
        au_rel
            .rows()
            .iter()
            .find(|r| r.values[0].bg == Value::Int(g))
            .map(|r| r.mult)
            .unwrap_or_else(|| panic!("group {g}"))
    };
    assert_eq!(mult_of(1), MultBound::new(1, 1, 1));
    // Group `2`'s key hull `[1, 2]` meets every input row: six possible
    // members, one copy each.
    assert_eq!(mult_of(2), MultBound::new(0, 1, 6));

    // Every world: TI rows 2 and 3 present or not, one choice per x-block.
    let ti_rows: Vec<Tuple> = ti
        .rows()
        .iter()
        .map(|r| {
            Tuple::new(vec![
                r.get(0).expect("g").clone(),
                r.get(1).expect("v").clone(),
            ])
        })
        .collect();
    let mut checked = 0;
    for mask in 0..4u8 {
        let ti_world: Vec<Tuple> = ti_rows
            .iter()
            .enumerate()
            .filter(|&(i, _)| i == 0 || mask & (1 << (i - 1)) != 0)
            .map(|(_, t)| t.clone())
            .collect();
        for x_world in enumerate_worlds(&blocks) {
            let session = UaSession::with_mode(ExecMode::Row);
            session.register_table(
                "t",
                Table::from_rows(Schema::qualified("t", ["g", "v"]), ti_world.clone()),
            );
            session.register_table("xr", x_world);
            let truth = session.query_det(det_sql).expect("world query");
            check_encloses_world(&au_rel, truth.rows()).unwrap_or_else(|e| {
                panic!("TI mask {mask}: {e}\nworld result: {:?}", truth.rows())
            });
            checked += 1;
        }
    }
    assert_eq!(checked, 4 * 8);
}
