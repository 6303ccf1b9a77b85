//! The catalog's chunk store, pinned at the store itself rather than through
//! its users: a vectorized `Scan` decodes its table once per registration
//! and encoding and afterwards hands out the resident column buffers by
//! `Arc`. Every case runs under det, UA and AU; a UA scan decodes the
//! encoded table as the plain table it is stored as, in the det entry.
//!
//! The store's two metrics live in the process-wide registry, so the tests
//! of this file run one at a time (`serial`).

use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::{execute_row, Catalog, EngineError, ExecOptions, Plan, Semantics, Table};
use ua_ranges::{decode_rows, flattened_schema};
use ua_vecexec::columnar::ColumnBatch;
use ua_vecexec::{batches_from_table, execute, stream, table_from_batches, BatchStream, ColumnVec};

const SEMANTICS: [Semantics; 3] = [Semantics::Det, Semantics::Ua, Semantics::Au];

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the next one still has to run alone.
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn opts(threads: usize, batch_rows: usize) -> ExecOptions {
    ExecOptions {
        threads,
        batch_rows,
        ..ExecOptions::default()
    }
}

fn int(i: i64) -> Value {
    Value::Int(i)
}

/// `rows` rows of a table `sem` can scan, every value offset by `shift` so
/// two versions of one table share no row. Det: `t(a, s)`. UA: the same
/// with the `ua_c` marker last, every third row uncertain. AU: the
/// flattened encoding of `t(a, b)` — `a` is never uncertain, every fifth
/// `b` is a proper range, and from row 1024 on every seventh row is only
/// possibly there (`ua_m_lb = 0`).
fn fixture(sem: Semantics, rows: usize, shift: i64) -> Table {
    let row = |i: i64| -> Tuple {
        let a = i + shift;
        match sem {
            Semantics::Det => Tuple::new(vec![int(a), Value::str(format!("s{}", a % 7))]),
            Semantics::Ua => Tuple::new(vec![
                int(a),
                Value::str(format!("s{}", a % 7)),
                int(i64::from(i % 3 != 0)),
            ]),
            Semantics::Au => {
                let width = if i % 5 == 0 { 2 } else { 0 };
                let possible = i >= 1024 && i % 7 == 0;
                Tuple::new(vec![
                    int(a),
                    int(2 * a),
                    int(a),
                    int(2 * a - width),
                    int(a),
                    int(2 * a + width),
                    int(i64::from(!possible)),
                    int(1),
                    int(1),
                ])
            }
        }
    };
    let user = Schema::qualified("t", ["a", "s"]);
    let schema = match sem {
        Semantics::Det => user,
        Semantics::Ua => user.with_column(ua_core::UA_LABEL_COLUMN),
        Semantics::Au => flattened_schema(&Schema::qualified("t", ["a", "b"])),
    };
    Table::from_rows(schema, (0..rows as i64).map(row).collect())
}

fn scan() -> Plan {
    Plan::Scan("t".into())
}

fn scan_stream(catalog: &Catalog, sem: Semantics, batch_rows: usize) -> BatchStream {
    stream(&scan(), catalog, opts(0, batch_rows), sem).unwrap_or_else(|e| panic!("{sem:?}: {e}"))
}

/// The row engine's answer to the scan — the oracle the store never touches.
fn oracle(catalog: &Catalog, sem: Semantics) -> Result<Table, EngineError> {
    execute_row(&scan(), catalog, sem, false).0
}

fn assert_streams_byte_identical(a: &BatchStream, b: &BatchStream, context: &str) {
    assert_eq!(a.schema, b.schema, "schema mismatch: {context}");
    assert_eq!(a.batches.len(), b.batches.len(), "batch count: {context}");
    for (i, (ba, bb)) in a.batches.iter().zip(&b.batches).enumerate() {
        assert_eq!(ba.columns(), bb.columns(), "batch {i} columns: {context}");
    }
}

/// Whether two columns are one buffer.
fn same_buffer(a: &ColumnVec, b: &ColumnVec) -> bool {
    match (a, b) {
        (ColumnVec::Int(a), ColumnVec::Int(b)) => Arc::ptr_eq(a, b),
        (ColumnVec::Float(a), ColumnVec::Float(b)) => Arc::ptr_eq(a, b),
        (ColumnVec::Bool(a), ColumnVec::Bool(b)) => Arc::ptr_eq(a, b),
        (ColumnVec::Str(a), ColumnVec::Str(b)) => Arc::ptr_eq(a, b),
        (ColumnVec::Mixed(a), ColumnVec::Mixed(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

fn builds() -> u64 {
    ua_obs::global().counter("catalog.chunks.builds").get()
}

fn chunk_bytes() -> i64 {
    ua_obs::global().gauge("catalog.chunk_bytes").get()
}

/// (a) Query, replace the table under the same name, query, drop it, query:
/// the old rows, the new rows, then `UnknownTable` — never the old chunks.
#[test]
fn a_replaced_or_dropped_table_never_serves_old_chunks() {
    let _serial = serial();
    for sem in SEMANTICS {
        for threads in [1, 4] {
            let context = format!("{sem:?} threads={threads}");
            let run = |catalog: &Catalog| execute(&scan(), catalog, opts(threads, 0), sem).0;
            let catalog = Catalog::new();
            catalog.register("t", fixture(sem, 2500, 0));
            let first = run(&catalog).expect("first query");
            assert_eq!(first, oracle(&catalog, sem).expect("oracle"), "{context}");
            assert_eq!(first, run(&catalog).expect("again"), "{context}");

            catalog.register("t", fixture(sem, 1300, 10_000));
            let second = run(&catalog).expect("after the replacement");
            assert_eq!(second.len(), 1300, "{context}");
            assert_eq!(second, oracle(&catalog, sem).expect("oracle"), "{context}");

            assert!(catalog.drop_table("t"));
            let err = run(&catalog).expect_err("the table is gone");
            assert!(
                matches!(err, EngineError::UnknownTable(_)),
                "{context}: {err}"
            );
        }
    }
    assert_eq!(chunk_bytes(), 0, "a dropped table keeps no decoded copy");
}

/// (b) One entry per (table, encoding): scanning one catalog at 7, 1024 and
/// 7 rows per batch gives the streams of three fresh catalogs.
#[test]
fn a_scan_at_another_batch_size_rebuilds_the_entry() {
    let _serial = serial();
    for sem in SEMANTICS {
        let catalog = Catalog::new();
        catalog.register("t", fixture(sem, 2500, 0));
        for batch_rows in [7, 1024, 7] {
            let fresh = Catalog::new();
            fresh.register("t", fixture(sem, 2500, 0));
            assert_streams_byte_identical(
                &scan_stream(&catalog, sem, batch_rows),
                &scan_stream(&fresh, sem, batch_rows),
                &format!("{sem:?} batch_rows={batch_rows}"),
            );
        }
    }
}

/// (c) A decode error is returned and not stored: the same lowest-chunk
/// error on every query, and a repaired registration scans. (A malformed
/// UA marker is the `⟦·⟧_UA` rewriting's error on both engines, pinned in
/// the workspace's `executors` suite.)
#[test]
fn errors_are_not_stored() {
    let _serial = serial();
    // Rows 1500 and 2400 are broken, differently (`ua_m_lb > ua_m_bg`); the
    // serial scan meets row 1500 first, whichever chunk a worker finishes
    // first.
    let good = fixture(Semantics::Au, 2500, 0);
    let arity = good.schema().arity();
    let rows = good.rows().iter().enumerate().map(|(i, row)| {
        let mut values = row.values().to_vec();
        match i {
            1500 => values[arity - 3] = int(2),
            2400 => values[arity - 3] = int(5),
            _ => {}
        }
        Tuple::new(values)
    });
    let catalog = Catalog::new();
    catalog.register("t", Table::from_rows(good.schema().clone(), rows.collect()));
    let before = builds();
    for query in 1..=2 {
        let err = stream(&scan(), &catalog, opts(0, 0), Semantics::Au).expect_err("malformed");
        assert!(
            err.to_string()
                .contains("ill-formed AU multiplicity bound [2, 1, 1]"),
            "query {query}: {err}"
        );
        // The row engine decodes AU tables too, and stops at the same row.
        let row = oracle(&catalog, Semantics::Au).expect_err("row scan");
        assert_eq!(err.to_string(), row.to_string(), "query {query}");
    }
    assert_eq!(builds(), before, "a failed decode is not a build");
    catalog.register("t", good);
    assert_eq!(scan_stream(&catalog, Semantics::Au, 0).num_rows(), 2500);
}

/// (c) An AU chunk that is not canonical as stored — `ub = 0` rows, a NULL
/// attribute — is normalised row by row once; the tenth scan returns what
/// the first did.
#[test]
fn a_normalised_au_chunk_scans_the_same_every_time() {
    let _serial = serial();
    let good = fixture(Semantics::Au, 2500, 0);
    let rows = good.rows().iter().enumerate().map(|(i, row)| {
        let mut values = row.values().to_vec();
        match i % 100 {
            // Represents nothing: dropped by the scan.
            10 => values[6..9].fill(int(0)),
            // `b` is NULL in the selected guess and unbounded.
            20 => [1, 3, 5].into_iter().for_each(|c| values[c] = Value::Null),
            _ => {}
        }
        Tuple::new(values)
    });
    let table = Table::from_rows(good.schema().clone(), rows.collect());
    let catalog = Catalog::new();
    catalog.register("t", table.clone());
    let first = scan_stream(&catalog, Semantics::Au, 0);
    assert_eq!(first.num_rows(), 2475, "25 rows have ub = 0");
    for query in 2..=10 {
        assert_streams_byte_identical(
            &first,
            &scan_stream(&catalog, Semantics::Au, 0),
            &format!("query {query}"),
        );
    }
    assert_eq!(
        table_from_batches(&first),
        oracle(&catalog, Semantics::Au).expect("row scan")
    );
}

/// (d) Later scans are handed the first scan's buffers, and a build happens
/// once per (table, encoding), not once per query: a UA-encoded table is
/// one plain decode under det and UA.
#[test]
fn scans_share_the_resident_buffers() {
    let _serial = serial();
    let catalog = Catalog::new();
    // An encoded table scans as the plain table it is stored as.
    catalog.register("t", fixture(Semantics::Ua, 2500, 0));
    catalog.register("u", fixture(Semantics::Au, 2500, 0));
    let pairs = [
        ("t", Semantics::Det),
        ("t", Semantics::Ua),
        ("u", Semantics::Det),
        ("u", Semantics::Au),
    ];
    let scan_of = |name: &str, sem| {
        stream(&Plan::Scan(name.into()), &catalog, opts(0, 0), sem).expect("scan")
    };
    let before = builds();
    let first: Vec<BatchStream> = pairs.iter().map(|(n, sem)| scan_of(n, *sem)).collect();
    for _ in 1..10 {
        for ((name, sem), first) in pairs.iter().zip(&first) {
            let again = scan_of(name, *sem);
            assert_streams_byte_identical(first, &again, &format!("{name} {sem:?}"));
            for (a, b) in first.batches.iter().zip(&again.batches) {
                let shared = a.columns().iter().zip(b.columns());
                assert!(
                    shared.into_iter().all(|(a, b)| same_buffer(a, b)),
                    "{name} {sem:?}: a later scan copied a buffer"
                );
            }
        }
    }
    assert_eq!(builds() - before, 3, "`t` decodes once for det and UA");
    let resident = chunk_bytes();
    // 2500 rows: at least the 8-byte `a` column of each of the three copies.
    assert!(resident >= 3 * 8 * 2500, "catalog.chunk_bytes = {resident}");
    catalog.drop_table("t");
    assert!(
        (1..resident).contains(&chunk_bytes()),
        "`u` is still resident"
    );
    catalog.drop_table("u");
    assert_eq!(chunk_bytes(), 0);
}

/// (d) Two threads meeting on a cold entry both get the whole table.
#[test]
fn racing_first_scans_return_equal_streams() {
    let _serial = serial();
    for sem in SEMANTICS {
        let catalog = Catalog::new();
        catalog.register("t", fixture(sem, 2500, 0));
        let barrier = Barrier::new(2);
        let race = || {
            barrier.wait();
            scan_stream(&catalog, sem, 64)
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(race);
            (race(), other.join().expect("scan thread"))
        });
        assert_streams_byte_identical(&a, &b, &format!("{sem:?} race"));
        assert_streams_byte_identical(&a, &scan_stream(&catalog, sem, 64), &format!("{sem:?}"));
    }
}

/// (e) The resident copy is built compactly and decodes to exactly what the
/// direct converters produce.
#[test]
fn chunks_are_built_compactly_and_decode_like_the_direct_converters() {
    let _serial = serial();
    for sem in SEMANTICS {
        let table = fixture(sem, 2500, 0);
        let catalog = Catalog::new();
        catalog.register("t", table.clone());
        let scanned = scan_stream(&catalog, sem, 0);
        let context = format!("{sem:?}");

        let [b0, b1, _] = scanned.batches.as_slice() else {
            panic!("{context}: 2500 rows are three chunks");
        };

        match sem {
            Semantics::Det | Semantics::Ua => {
                let direct = batches_from_table(&table, 1024);
                assert_streams_byte_identical(&scanned, &direct, &context);
            }
            Semantics::Au => {
                // Layout of `t(a, b)`: bg 0–1, lb 2–3, ub 4–5, mult 6–8.
                let shares = |b: &ColumnBatch, bound: usize, bg: usize| {
                    same_buffer(b.column(bound), b.column(bg))
                };
                for b in &scanned.batches {
                    assert!(shares(b, 2, 0) && shares(b, 4, 0), "`a` is never uncertain");
                    assert!(!shares(b, 3, 1) && !shares(b, 5, 1), "`b` has ranges");
                    assert!(shares(b, 8, 7), "every `ua_m_ub` equals its `ua_m_bg`");
                }
                assert!(shares(b0, 6, 7), "chunk 0 is certainly there");
                assert!(!shares(b1, 6, 7), "chunk 1 has possible rows");
                let flat = table.schema();
                let direct = table_from_batches(&batches_from_table(&table, 1024));
                assert_eq!(
                    decode_rows(flat, table_from_batches(&scanned).rows()).expect("scan"),
                    decode_rows(flat, direct.rows()).expect("direct"),
                );
            }
        }
    }
}
