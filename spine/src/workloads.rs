//! The workload table: data scale, query set and per-configuration
//! repetition counts of the five workloads. Everything here is a constant
//! of the benchmark — nothing is adapted at run time — and `--seed`
//! reaches only the generators and [`short_mixed`]'s constant sampler.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One SQL statement of a workload's query set.
pub struct Statement {
    pub sql: String,
    /// `false` marks a statement outside the paper's UA fragment
    /// (aggregation, DISTINCT): it must return the fragment error under
    /// `query_ua`, and is excluded from `ua_*_s` and from `failed`.
    pub ua: bool,
}

/// Row counts of the generated tables the statement constants depend on.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub suppliers: i64,
    pub customers: i64,
    pub orders: i64,
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// TPC-H scale factor handed to `ua_datagen::tpch`.
    pub scale: f64,
    /// The scale of the smoke test's run.
    pub smoke_scale: f64,
    /// How many times one timed unit runs the query set, per configuration
    /// in [`crate::CONFIGS`] order — chosen so every unit lasts well over
    /// 50 ms. The reported time is unit time ÷ reps.
    pub reps: [u32; 6],
    pub statements: fn(Sizes, u64) -> Vec<Statement>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "scan_select",
        why: "streaming select/project over 120k-row lineitem: scan-convert, filter/project kernels, label and bound propagation, result materialisation; joins, aggregation and the optimizer idle",
        scale: 0.02,
        smoke_scale: 0.001,
        reps: [1, 1, 1, 4, 4, 1],
        statements: scan_select,
    },
    Workload {
        name: "join_heavy",
        why: "PDBench Q1 (3-way) and Q3 (4-way) comma joins with tiny results: optimizer pushdown and DP reorder, hash build/probe, AU selected-guess key index; materialisation idle",
        scale: 0.02,
        // The smallest scale class at which aliased Q3 passes under AU.
        smoke_scale: 0.015,
        reps: [2, 2, 1, 6, 6, 1],
        statements: join_heavy,
    },
    Workload {
        name: "agg_topk",
        why: "unary pipeline breakers: partitioned GROUP BY, DISTINCT, full sort and Top-K with their tracked state; UA rejects aggregation and DISTINCT by design and is timed on the sort queries only",
        scale: 0.02,
        smoke_scale: 0.001,
        reps: [1, 2, 1, 4, 12, 1],
        statements: agg_topk,
    },
    Workload {
        name: "negation",
        why: "NOT IN, EXCEPT and LEFT JOIN over key-range slices: det vec hashes them, row det and both AU engines are quadratic; the operators every other workload bypasses",
        scale: 0.01,
        smoke_scale: 0.001,
        reps: [3, 3, 1, 10, 10, 1],
        statements: negation,
    },
    Workload {
        name: "short_mixed",
        why: "two thousand tiny statements per pass over tiny tables: per-query fixed cost (lexer, parser, planner, optimizer, bind, pool start-up, hook dispatch, session plumbing) dominates and data kernels idle",
        scale: 0.002,
        smoke_scale: 0.001,
        reps: [1, 1, 1, 1, 1, 1],
        statements: short_mixed,
    },
];

fn stmt(sql: impl Into<String>) -> Statement {
    Statement {
        sql: sql.into(),
        ua: true,
    }
}

/// A statement UA rejects by design (aggregation / DISTINCT).
fn det_au_only(sql: impl Into<String>) -> Statement {
    Statement {
        sql: sql.into(),
        ua: false,
    }
}

fn scan_select(_: Sizes, _: u64) -> Vec<Statement> {
    vec![
        // PDBench Q2 (TPC-H Q6 shape).
        stmt(
            "SELECT orderkey, extendedprice, discount FROM lineitem \
             WHERE shipdate >= 370 AND shipdate < 735 \
             AND discount BETWEEN 0.04 AND 0.08 AND quantity < 24",
        ),
        stmt(
            "SELECT orderkey, quantity * extendedprice AS amount FROM lineitem \
             WHERE shipdate > 1200",
        ),
        stmt(
            "SELECT orderkey, custkey, totalprice FROM orders \
             WHERE orderdate >= 600 AND totalprice > 100000.0",
        ),
    ]
}

fn join_heavy(_: Sizes, _: u64) -> Vec<Statement> {
    vec![
        // PDBench Q1 (TPC-H Q3 shape).
        stmt(
            "SELECT o.orderkey, o.orderdate, o.shippriority \
             FROM customer c, orders o, lineitem l \
             WHERE c.mktsegment = 'BUILDING' AND c.custkey = o.custkey \
             AND l.orderkey = o.orderkey AND o.orderdate < 1200 AND l.shipdate > 1200",
        ),
        // PDBench Q3 (TPC-H Q7 shape). With these aliases `query_au` fails
        // with "unknown column `s.ua_lb_0`" under the join order the
        // optimizer picks at scale <= 0.01 (see BENCHMARK.md); the output
        // check reports it, and the workload's scales stay above it.
        stmt(
            "SELECT s.suppkey, c.custkey, l.shipdate \
             FROM supplier s, lineitem l, orders o, customer c \
             WHERE s.suppkey = l.suppkey AND o.orderkey = l.orderkey \
             AND c.custkey = o.custkey AND s.nationkey = 1 AND c.nationkey = 2",
        ),
    ]
}

fn agg_topk(_: Sizes, _: u64) -> Vec<Statement> {
    vec![
        det_au_only(
            "SELECT suppkey, COUNT(*) AS n, SUM(quantity) AS q FROM lineitem GROUP BY suppkey",
        ),
        det_au_only(
            "SELECT shippriority, COUNT(*) AS n, MIN(totalprice) AS lo, MAX(totalprice) AS hi \
             FROM orders GROUP BY shippriority",
        ),
        det_au_only("SELECT DISTINCT suppkey, quantity FROM lineitem WHERE quantity < 10"),
        stmt("SELECT orderkey, extendedprice FROM lineitem ORDER BY extendedprice DESC LIMIT 100"),
        stmt("SELECT orderkey, totalprice FROM orders WHERE orderdate < 400 ORDER BY totalprice"),
    ]
}

/// Key-range cuts of the negation inputs, fixed so that each AU query (both
/// AU engines evaluate these operators pairwise) takes a few tenths of a
/// second at the workload's scale.
const NOT_IN_KEYS: i64 = 500;
const EXCEPT_KEYS: i64 = 1200;
const LEFT_JOIN_KEYS: i64 = 170;

fn negation(_: Sizes, _: u64) -> Vec<Statement> {
    vec![
        stmt(format!(
            "SELECT o.orderkey, o.totalprice FROM orders o \
             WHERE o.orderkey < {NOT_IN_KEYS} AND o.orderkey NOT IN \
             (SELECT l.orderkey FROM lineitem l WHERE l.quantity > 45 AND l.orderkey < {NOT_IN_KEYS})"
        )),
        stmt(format!(
            "SELECT custkey FROM customer WHERE custkey < {EXCEPT_KEYS} \
             EXCEPT SELECT custkey FROM orders WHERE custkey < {EXCEPT_KEYS} AND orderdate < 1200"
        )),
        stmt(format!(
            "SELECT c.custkey, c.acctbal, o.orderkey, o.totalprice FROM \
             (SELECT custkey, acctbal FROM customer WHERE custkey < {LEFT_JOIN_KEYS}) c LEFT JOIN \
             (SELECT custkey, orderkey, totalprice FROM orders WHERE custkey < {LEFT_JOIN_KEYS}) o \
             ON c.custkey = o.custkey"
        )),
    ]
}

/// Statements per pass of `short_mixed`.
pub const SHORT_MIXED_STATEMENTS: usize = 2000;

fn short_mixed(sizes: Sizes, seed: u64) -> Vec<Statement> {
    // A stream of its own, so the constants do not repeat the generators'.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5b1e_57a7_e3e7);
    (0..SHORT_MIXED_STATEMENTS)
        .map(|i| {
            let supp = rng.gen_range(0..sizes.suppliers);
            let cust = rng.gen_range(0..sizes.customers);
            let order = rng.gen_range(0..sizes.orders);
            let nation = rng.gen_range(0..25i64);
            match i % 8 {
                0 => stmt(format!(
                    "SELECT custkey, nationkey, acctbal FROM customer WHERE custkey = {cust}"
                )),
                1 => stmt(format!(
                    "SELECT s.suppkey, s.acctbal, n.name FROM supplier s, nation n \
                     WHERE s.nationkey = n.nationkey AND s.suppkey = {supp}"
                )),
                2 => det_au_only(format!(
                    "SELECT nationkey, COUNT(*) AS n FROM supplier \
                     WHERE suppkey <= {supp} GROUP BY nationkey"
                )),
                3 => stmt(format!(
                    "SELECT custkey, acctbal FROM customer WHERE custkey >= {cust} \
                     ORDER BY custkey LIMIT 10"
                )),
                4 => stmt(format!(
                    "SELECT s.suppkey, s.acctbal FROM supplier s WHERE s.nationkey = {nation} \
                     AND NOT EXISTS (SELECT c.custkey FROM customer c \
                     WHERE c.custkey = {cust} AND c.acctbal < -5000.0)"
                )),
                5 => stmt(format!(
                    "SELECT x.suppkey, x.acctbal FROM supplier_x IS X WITH XID (xid) ALTID (aid) \
                     PROBABILITY (p) x WHERE x.suppkey = {supp}"
                )),
                6 => stmt(format!(
                    "SELECT t.suppkey, t.acctbal FROM supplier_ti IS TI WITH PROBABILITY (p) t \
                     WHERE t.nationkey = {nation}"
                )),
                _ => stmt(format!(
                    "SELECT orderkey, orderdate, totalprice FROM orders WHERE orderkey = {order}"
                )),
            }
        })
        .collect()
}
