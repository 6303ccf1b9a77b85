//! A seeded mini TPC-H generator.
//!
//! Generates the TPC-H schema subset the PDBench experiments need
//! (region, nation, supplier, customer, orders, lineitem) with the standard
//! cardinality ratios, scaled by a fractional scale factor. Value
//! distributions follow the benchmark's shapes (uniform keys, skewless
//! dates, segment/priority categories) — enough to reproduce the *relative*
//! behaviour of the paper's Figure 11/12/13/14 workloads at laptop scale.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::storage::Table;

/// TPC-H cardinalities at scale factor 1, scaled down by `scale`.
#[derive(Clone, Copy, Debug)]
pub struct TpchConfig {
    /// Fractional scale factor (1.0 ≈ classic SF1 ratios ÷ 50 to stay
    /// laptop-sized; see [`TpchConfig::new`]).
    pub scale: f64,
    /// RNG seed (generation is fully deterministic given `scale` + `seed`).
    pub seed: u64,
}

impl TpchConfig {
    /// Config with the given scale factor and seed.
    pub fn new(scale: f64, seed: u64) -> TpchConfig {
        assert!(scale > 0.0, "scale must be positive");
        TpchConfig { scale, seed }
    }

    fn count(&self, base_sf1: usize) -> usize {
        ((base_sf1 as f64) * self.scale).round().max(1.0) as usize
    }

    /// Number of suppliers.
    pub fn suppliers(&self) -> usize {
        self.count(10_000)
    }

    /// Number of customers.
    pub fn customers(&self) -> usize {
        self.count(150_000)
    }

    /// Number of orders.
    pub fn orders(&self) -> usize {
        self.count(1_500_000)
    }
}

/// The generated database (row tables, ready for the engine catalog).
#[derive(Clone, Debug)]
pub struct TpchData {
    /// `region(regionkey, name)`
    pub region: Table,
    /// `nation(nationkey, name, regionkey)`
    pub nation: Table,
    /// `supplier(suppkey, name, nationkey, acctbal)`
    pub supplier: Table,
    /// `customer(custkey, name, nationkey, mktsegment, acctbal)`
    pub customer: Table,
    /// `orders(orderkey, custkey, orderdate, shippriority, totalprice)`
    pub orders: Table,
    /// `lineitem(orderkey, suppkey, quantity, extendedprice, discount, shipdate)`
    pub lineitem: Table,
}

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDEAST"];

/// Generate the database.
pub fn generate(config: &TpchConfig) -> TpchData {
    let mut rng = StdRng::seed_from_u64(config.seed);

    let region = Table::from_rows(
        Schema::qualified("region", ["regionkey", "name"]),
        REGIONS
            .iter()
            .enumerate()
            .map(|(i, name)| Tuple::new(vec![Value::Int(i as i64), Value::str(name)]))
            .collect(),
    );

    let n_nations = 25;
    let nation = Table::from_rows(
        Schema::qualified("nation", ["nationkey", "name", "regionkey"]),
        (0..n_nations)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::str(format!("NATION_{i:02}")),
                    Value::Int((i % 5) as i64),
                ])
            })
            .collect(),
    );

    let n_suppliers = config.suppliers();
    let supplier = Table::from_rows(
        Schema::qualified("supplier", ["suppkey", "name", "nationkey", "acctbal"]),
        (0..n_suppliers)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::str(format!("Supplier#{i:09}")),
                    Value::Int(rng.gen_range(0..n_nations) as i64),
                    Value::float(rng.gen_range(-999.99..9999.99)),
                ])
            })
            .collect(),
    );

    let n_customers = config.customers();
    let customer = Table::from_rows(
        Schema::qualified(
            "customer",
            ["custkey", "name", "nationkey", "mktsegment", "acctbal"],
        ),
        (0..n_customers)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::str(format!("Customer#{i:09}")),
                    Value::Int(rng.gen_range(0..n_nations) as i64),
                    Value::str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]),
                    Value::float(rng.gen_range(-999.99..9999.99)),
                ])
            })
            .collect(),
    );

    let n_orders = config.orders();
    let mut orders_rows = Vec::with_capacity(n_orders);
    let mut lineitem_rows = Vec::new();
    for o in 0..n_orders {
        let orderdate = rng.gen_range(0..2557); // days within 1992-1998
        orders_rows.push(Tuple::new(vec![
            Value::Int(o as i64),
            Value::Int(rng.gen_range(0..n_customers) as i64),
            Value::Int(orderdate),
            Value::Int(rng.gen_range(0..2)),
            Value::float(rng.gen_range(800.0..500_000.0)),
        ]));
        // 1–7 lineitems per order (TPC-H averages 4).
        for _ in 0..rng.gen_range(1..=7usize) {
            let quantity = rng.gen_range(1..=50i64);
            let price = rng.gen_range(900.0..105_000.0);
            lineitem_rows.push(Tuple::new(vec![
                Value::Int(o as i64),
                Value::Int(rng.gen_range(0..n_suppliers) as i64),
                Value::Int(quantity),
                Value::float(price),
                Value::float(rng.gen_range(0.0..0.11)),
                Value::Int(orderdate + rng.gen_range(1i64..122)),
            ]));
        }
    }
    let orders = Table::from_rows(
        Schema::qualified(
            "orders",
            [
                "orderkey",
                "custkey",
                "orderdate",
                "shippriority",
                "totalprice",
            ],
        ),
        orders_rows,
    );
    let lineitem = Table::from_rows(
        Schema::qualified(
            "lineitem",
            [
                "orderkey",
                "suppkey",
                "quantity",
                "extendedprice",
                "discount",
                "shipdate",
            ],
        ),
        lineitem_rows,
    );

    TpchData {
        region,
        nation,
        supplier,
        customer,
        orders,
        lineitem,
    }
}

impl TpchData {
    /// `(name, table)` pairs for catalog registration.
    pub fn tables(&self) -> Vec<(&'static str, &Table)> {
        vec![
            ("region", &self.region),
            ("nation", &self.nation),
            ("supplier", &self.supplier),
            ("customer", &self.customer),
            ("orders", &self.orders),
            ("lineitem", &self.lineitem),
        ]
    }

    /// Total row count.
    pub fn total_rows(&self) -> usize {
        self.tables().iter().map(|(_, t)| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&TpchConfig::new(0.001, 7));
        let b = generate(&TpchConfig::new(0.001, 7));
        assert_eq!(a.lineitem.sorted_rows(), b.lineitem.sorted_rows());
        let c = generate(&TpchConfig::new(0.001, 8));
        assert_ne!(a.lineitem.sorted_rows(), c.lineitem.sorted_rows());
    }

    #[test]
    fn cardinality_ratios() {
        let d = generate(&TpchConfig::new(0.001, 1));
        assert_eq!(d.region.len(), 5);
        assert_eq!(d.nation.len(), 25);
        assert_eq!(d.supplier.len(), 10);
        assert_eq!(d.customer.len(), 150);
        assert_eq!(d.orders.len(), 1500);
        // ~4 lineitems per order.
        assert!(d.lineitem.len() > 2 * d.orders.len());
        assert!(d.lineitem.len() < 8 * d.orders.len());
    }

    #[test]
    fn foreign_keys_in_range() {
        let d = generate(&TpchConfig::new(0.001, 2));
        let n_cust = d.customer.len() as i64;
        for row in d.orders.rows() {
            match row.get(1) {
                Some(Value::Int(c)) => assert!((0..n_cust).contains(c)),
                other => panic!("bad custkey {other:?}"),
            }
        }
    }
}
