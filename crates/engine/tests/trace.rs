//! Query-lifetime tracing contract tests.
//!
//! The trace layer must export schema-valid Perfetto JSON (balanced
//! `B`/`E` pairs per thread, monotonic per-thread timestamps, per-morsel
//! `X` spans with durations), stay a pure observer (byte-identical
//! results with tracing on or off, across engines × optimizer settings ×
//! thread counts × semantics), and keep reporting when a query errors
//! mid-execution (partial stats tree with an `error` marker plus a
//! balanced trace). The memory/uncertainty telemetry riding on the same
//! stats tree is pinned by golden `render(false)` snapshots and the
//! EXPLAIN ANALYZE acceptance shape.

use ua_data::schema::Schema;
use ua_data::tuple::Tuple;
use ua_data::value::Value;
use ua_engine::{ExecMode, Table, UaSession};

/// The same star-schema fixture as the observability tests: `orders(ok,
/// ck, total)` ⋈ `cust(ck, dk)` ⋈ `dept(dk, region)` plus a TI-annotated
/// `t(g, v, p)`, sized so 8-thread morsel runs split into several tasks.
fn seeded_session() -> UaSession {
    let s = UaSession::new();
    s.register_table(
        "orders",
        Table::from_rows(
            Schema::qualified("orders", ["ok", "ck", "total"]),
            (0..600i64)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int(i),
                        Value::Int((i * 7) % 120),
                        Value::Int((i * 13) % 500),
                    ])
                })
                .collect(),
        ),
    );
    s.register_table(
        "cust",
        Table::from_rows(
            Schema::qualified("cust", ["ck", "dk"]),
            (0..120i64)
                .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 8)]))
                .collect(),
        ),
    );
    s.register_table(
        "dept",
        Table::from_rows(
            Schema::qualified("dept", ["dk", "region"]),
            (0..8i64)
                .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 3)]))
                .collect(),
        ),
    );
    s.register_table(
        "t",
        Table::from_rows(
            Schema::qualified("t", ["g", "v", "p"]),
            (0..200i64)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int(i % 5),
                        Value::Int(i),
                        Value::float(if i % 4 == 0 { 0.5 } else { 1.0 }),
                    ])
                })
                .collect(),
        ),
    );
    // Annotated (all-certain) dimensions for the 3-way AU join shape.
    s.register_table(
        "cu",
        Table::from_rows(
            Schema::qualified("cu", ["ck", "dk", "p"]),
            (0..120i64)
                .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 8), Value::float(1.0)]))
                .collect(),
        ),
    );
    s.register_table(
        "du",
        Table::from_rows(
            Schema::qualified("du", ["dk", "region", "p"]),
            (0..8i64)
                .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 3), Value::float(1.0)]))
                .collect(),
        ),
    );
    s
}

const DET_SQL: &str = "SELECT d.region, count(*) AS n, sum(o.total) AS s \
                       FROM orders o, cust c, dept d \
                       WHERE o.ck = c.ck AND c.dk = d.dk AND o.total >= 100 \
                       GROUP BY d.region";

const UA_SQL: &str = "SELECT x.g, x.v FROM t IS TI WITH PROBABILITY (p) x \
                      WHERE x.v >= 50";

const AU_SQL: &str = "SELECT x.g, count(*) AS n, sum(x.v) AS s \
                      FROM t IS TI WITH PROBABILITY (p) x GROUP BY x.g";

/// One parsed trace event from the exported Perfetto JSON.
#[derive(Debug)]
struct Ev {
    name: String,
    cat: String,
    ph: char,
    ts: f64,
    tid: u64,
    dur: Option<f64>,
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("missing `{key}` in: {line}"))
        + key.len()
        + 4;
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated `{key}` in: {line}"));
    &rest[..end]
}

fn str_field(line: &str, key: &str) -> String {
    let v = field(line, key);
    v.trim_matches('"').to_string()
}

/// Parse the exported trace. Event names never contain `,` or `}` (phase
/// labels, operator labels, `morsel N`), so line-wise splitting is safe;
/// the envelope shape itself is asserted here too.
fn parse_trace(json: &str) -> Vec<Ev> {
    assert!(
        json.starts_with("{\"traceEvents\": ["),
        "bad envelope start: {}",
        &json[..json.len().min(40)]
    );
    assert!(
        json.ends_with("], \"displayTimeUnit\": \"ns\"}"),
        "bad envelope end"
    );
    json.lines()
        .filter(|l| l.trim_start().starts_with("{\"name\""))
        .map(|line| Ev {
            name: str_field(line, "name"),
            cat: str_field(line, "cat"),
            ph: str_field(line, "ph").chars().next().expect("ph char"),
            ts: field(line, "ts").parse().expect("ts number"),
            tid: field(line, "tid").parse().expect("tid number"),
            dur: line
                .contains("\"dur\": ")
                .then(|| field(line, "dur").parse().expect("dur number")),
        })
        .collect()
}

/// Structural validity: balanced, properly nested `B`/`E` pairs per
/// thread and non-decreasing timestamps per thread.
fn assert_well_formed(events: &[Ev], ctx: &str) {
    let mut stacks: std::collections::HashMap<u64, Vec<&str>> = Default::default();
    let mut last_ts: std::collections::HashMap<u64, f64> = Default::default();
    for ev in events {
        let prev = last_ts.entry(ev.tid).or_insert(0.0);
        assert!(
            ev.ts >= *prev,
            "{ctx}: tid {} timestamp went backwards at `{}` ({} < {prev})",
            ev.tid,
            ev.name,
            ev.ts
        );
        *prev = ev.ts;
        match ev.ph {
            'B' => stacks.entry(ev.tid).or_default().push(&ev.name),
            'E' => {
                let open = stacks
                    .get_mut(&ev.tid)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("{ctx}: E `{}` without open span", ev.name));
                assert_eq!(open, ev.name, "{ctx}: mismatched span nesting");
            }
            'X' => assert!(
                ev.dur.is_some(),
                "{ctx}: X span `{}` must carry a duration",
                ev.name
            ),
            'i' => {}
            other => panic!("{ctx}: unknown phase char {other:?}"),
        }
    }
    for (tid, stack) in stacks {
        assert!(
            stack.is_empty(),
            "{ctx}: tid {tid} left unbalanced spans: {stack:?}"
        );
    }
}

/// One runner per semantics, so a contract can be asserted for `query_det`,
/// `query_ua` and `query_au` alike.
type Run<'a> = Box<dyn Fn(&str) -> Result<(), ua_engine::EngineError> + 'a>;

fn runners(s: &UaSession) -> [(&'static str, &'static str, Run<'_>); 3] {
    [
        ("det", DET_SQL, Box::new(|sql| s.query_det(sql).map(drop))),
        ("ua", UA_SQL, Box::new(|sql| s.query_ua(sql).map(drop))),
        ("au", AU_SQL, Box::new(|sql| s.query_au(sql).map(drop))),
    ]
}

/// The exported trace is schema-valid Perfetto JSON on both engines and
/// all three semantics; every vectorized 8-thread run additionally carries
/// the executor's full phase ladder on the session thread and per-morsel
/// `X` spans on the synthetic pool-worker threads — one driver, so the
/// same ladder whichever semantics ran.
#[test]
fn trace_export_is_valid_perfetto() {
    let s = seeded_session();
    s.set_trace_enabled(true);
    s.set_vec_threads(8);

    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        s.set_exec_mode(mode);
        for (sem, sql, run) in runners(&s) {
            run(sql).unwrap_or_else(|e| panic!("{mode:?}/{sem}: {e}"));
            let json = s
                .last_query_trace()
                .unwrap_or_else(|| panic!("{mode:?}/{sem}: no trace exported"));
            let events = parse_trace(&json);
            let ctx = format!("{mode:?}/{sem}");
            assert!(!events.is_empty(), "{ctx}: empty trace");
            assert_well_formed(&events, &ctx);
            for phase in ["parse", "plan", "optimize", "execute"] {
                assert!(
                    events
                        .iter()
                        .any(|e| e.ph == 'B' && e.name == phase && e.tid == 0),
                    "{ctx}: missing `{phase}` phase span:\n{json}"
                );
            }
            if mode == ExecMode::Row {
                continue;
            }
            // The vectorized runs get the executor-side phases and the
            // injected per-morsel pool spans.
            for phase in ["bind", "execute", "merge"] {
                assert!(
                    events
                        .iter()
                        .any(|e| e.ph == 'B' && e.name == phase && e.cat == "vecexec"),
                    "{ctx}: vectorized trace missing `{phase}` phase:\n{json}"
                );
            }
            let morsels: Vec<&Ev> = events
                .iter()
                .filter(|e| e.ph == 'X' && e.name.starts_with("morsel"))
                .collect();
            assert!(
                !morsels.is_empty(),
                "{ctx}: 8-thread vectorized run must inject per-morsel pool spans"
            );
            for m in &morsels {
                assert!(m.tid >= 1, "pool spans live on worker tids: {m:?}");
                assert_eq!(m.cat, "pool");
            }
        }
    }
}

/// Tracing is a pure observer: results are byte-identical with tracing
/// on vs off across {Row, Vectorized} × {optimizer on, off} × {1, 2, 8
/// threads} × {det, ua, au} — the same grid the stats-collection
/// contract runs.
#[test]
fn tracing_never_changes_results() {
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        for optimizer in [true, false] {
            for threads in [1usize, 2, 8] {
                let s = seeded_session();
                s.set_exec_mode(mode);
                s.set_optimizer_enabled(optimizer);
                s.set_vec_threads(threads);
                let ctx = format!("mode={mode:?} optimizer={optimizer} threads={threads}");

                s.set_trace_enabled(false);
                let det_off = s.query_det(DET_SQL).expect("det off");
                let ua_off = s.query_ua(UA_SQL).expect("ua off");
                let au_off = s.query_au(AU_SQL).expect("au off");

                s.set_trace_enabled(true);
                let det_on = s.query_det(DET_SQL).expect("det on");
                let ua_on = s.query_ua(UA_SQL).expect("ua on");
                let au_on = s.query_au(AU_SQL).expect("au on");

                assert_eq!(det_off.rows(), det_on.rows(), "det rows differ: {ctx}");
                assert_eq!(
                    ua_off.table.rows(),
                    ua_on.table.rows(),
                    "UA rows differ: {ctx}"
                );
                assert_eq!(
                    au_off.table.rows(),
                    au_on.table.rows(),
                    "AU rows differ: {ctx}"
                );

                // The traced runs actually exported something balanced.
                let json = s.last_query_trace().expect("trace exported");
                assert_well_formed(&parse_trace(&json), &ctx);
            }
        }
    }
}

/// A query that fails mid-execution (runtime type error) still deposits
/// a partial operator tree carrying the `error` marker — on both engines,
/// under all three semantics — and the trace stays balanced (error paths
/// close their spans).
#[test]
fn failed_query_still_reports_partial_stats() {
    let s = seeded_session();
    s.set_stats_enabled(true);
    s.set_trace_enabled(true);
    // Int + Str only fails when a row actually evaluates it.
    let bad_det = "SELECT o.ok + 'x' AS z FROM orders o";
    let bad_annotated = "SELECT x.v + 'x' AS z FROM t IS TI WITH PROBABILITY (p) x";
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        s.set_exec_mode(mode);
        for (sem, _, run) in runners(&s) {
            let ctx = format!("{mode:?}/{sem}");
            let bad = if sem == "det" { bad_det } else { bad_annotated };
            let err = run(bad).expect_err("type error must propagate");
            let stats = s
                .last_query_stats()
                .unwrap_or_else(|| panic!("{ctx}: failed query left no stats ({err})"));
            let rendered = stats.render(false);
            assert!(
                rendered.contains("error=1"),
                "{ctx}: partial tree must carry the error marker:\n{rendered}"
            );
            let engine = if mode == ExecMode::Row {
                "row"
            } else {
                "vectorized"
            };
            assert_eq!(stats.engine, engine, "{ctx}: wrong engine tag");
            assert_eq!(stats.semantics, sem, "{ctx}: wrong semantics tag");
            let json = s.last_query_trace().expect("failed query still traces");
            assert_well_formed(&parse_trace(&json), &format!("{ctx} error path"));
        }
    }
}

/// The acceptance shape: EXPLAIN ANALYZE on a 3-way join + GROUP BY AU
/// query reports per-operator peak memory and the bound-width summary
/// (attribute-certainty, relative range width, multiplicity spread) on
/// BOTH engines, plus the query-level memory high-water mark.
#[test]
fn explain_analyze_reports_memory_and_bound_width() {
    let s = seeded_session();
    let au3 = "SELECT d.region, count(*) AS n, sum(x.v) AS s \
               FROM t IS TI WITH PROBABILITY (p) x \
               JOIN cu IS TI WITH PROBABILITY (p) c ON x.g = c.ck \
               JOIN du IS TI WITH PROBABILITY (p) d ON c.dk = d.dk \
               GROUP BY d.region";
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        s.set_exec_mode(mode);
        let report = s.explain_analyze_au(au3).expect("au explain analyze");
        for token in [
            "mem_bytes=",
            "certain_rows=",
            "top_attrs_permille=",
            "rel_width_permille=",
            "mult_spread=",
            "memory: query peak=",
        ] {
            assert!(
                report.contains(token),
                "{mode:?}: AU EXPLAIN ANALYZE missing `{token}`:\n{report}"
            );
        }
        assert!(
            report.matches("HashJoin").count() >= 2,
            "{mode:?}: expected the 3-way join shape:\n{report}"
        );
    }

    // The deterministic path tracks memory too.
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        s.set_exec_mode(mode);
        s.set_stats_enabled(true);
        s.query_det(DET_SQL).expect("det");
        s.set_stats_enabled(false);
        let stats = s.last_query_stats().expect("stats");
        assert!(
            stats.peak_mem_bytes > 0,
            "{mode:?}: join+agg must report a nonzero memory high-water mark"
        );
    }
}

/// Golden `render(false)` snapshots with the new memory / certainty /
/// bound-width columns, pinned on the vectorized engine (deterministic
/// logical byte figures, single-threaded).
#[test]
fn golden_render_includes_mem_and_uncertainty_columns() {
    let s = seeded_session();
    s.set_exec_mode(ExecMode::Vectorized);
    s.set_vec_threads(1);
    s.set_stats_enabled(true);

    s.query_ua(UA_SQL).expect("ua");
    let ua = s.last_query_stats().expect("ua stats");
    assert_eq!(
        ua.root.render(false),
        "Map[x.g\u{2192}g, x.v\u{2192}v, ua_c\u{2192}ua_c] rows=150 est=150 batches=1 \
         (certain_rows=113)\n\
         \x20 Alias[x] rows=150 est=150 batches=1 (certain_rows=113)\n\
         \x20   Filter[(v >= 50)] rows=150 est=150 batches=1 (certain_rows=113)\n\
         \x20     Scan[__ua__t__ti_1_p] rows=200 est=200 batches=1 (certain_rows=150)\n",
        "UA golden drifted:\n{}",
        ua.root.render(false)
    );

    s.query_au(AU_SQL).expect("au");
    let au = s.last_query_stats().expect("au stats");
    assert_eq!(
        au.root.render(false),
        "Map[g\u{2192}g, __agg0\u{2192}n, __agg1\u{2192}s] rows=5 est=5 batches=1 \
         (certain_rows=5, top_attrs_permille=0, rel_width_permille=163, \
         mult_spread=0, mem_bytes=840)\n\
         \x20 Aggregate[g; count(*)\u{2192}__agg0, sum\u{2192}__agg1] rows=5 est=5 \
         batches=1 (certain_rows=5, top_attrs_permille=0, rel_width_permille=163, \
         mult_spread=0, mem_bytes=840)\n\
         \x20   Alias[x] rows=200 est=200 batches=1 (certain_rows=150, \
         top_attrs_permille=0, rel_width_permille=0, mult_spread=50, \
         mem_bytes=24000)\n\
         \x20     Scan[__au__t__ti_1_p] rows=200 est=200 batches=1 \
         (certain_rows=150, top_attrs_permille=0, rel_width_permille=0, \
         mult_spread=50, mem_bytes=24000)\n",
        "AU golden drifted:\n{}",
        au.root.render(false)
    );
}

/// Planner-feedback telemetry: registering tables publishes the
/// `catalog.tables` / `catalog.rows` gauges, and consuming a stale
/// statistics snapshot (table replaced since collection) recollects and
/// counts on `stats.staleness`; an explicit ANALYZE keeps it quiet.
#[test]
fn staleness_counter_and_catalog_gauges() {
    let s = seeded_session();
    let reg = ua_obs::global();

    // Fixture totals: 6 tables, 600 + 120 + 8 + 200 + 120 + 8 rows. Other
    // tests in this binary publish the *same* totals, so poll briefly to
    // step over a concurrently mid-registration session.
    let expect_gauges = |tables: i64, rows: i64| {
        for _ in 0..200 {
            if reg.gauge("catalog.tables").get() == tables
                && reg.gauge("catalog.rows").get() == rows
            {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!(
            "catalog gauges never settled at tables={tables} rows={rows} \
             (got tables={} rows={})",
            reg.gauge("catalog.tables").get(),
            reg.gauge("catalog.rows").get()
        );
    };
    expect_gauges(6, 1056);

    // Fresh registration collected stats eagerly: serving them is not a
    // staleness event.
    let before = reg.counter("stats.staleness").get();
    s.catalog().stats_of("t").expect("stats");
    assert_eq!(
        reg.counter("stats.staleness").get(),
        before,
        "fresh stats must serve from cache"
    );

    // Replace the table: the cached snapshot goes stale, the next read
    // recollects and counts exactly one staleness event, and the
    // refreshed snapshot serves quietly afterwards.
    s.register_table(
        "t",
        Table::from_rows(
            Schema::qualified("t", ["g", "v", "p"]),
            (0..200i64)
                .map(|i| Tuple::new(vec![Value::Int(i % 5), Value::Int(i), Value::float(1.0)]))
                .collect(),
        ),
    );
    expect_gauges(6, 1056);
    s.catalog().stats_of("t").expect("stats");
    assert_eq!(
        reg.counter("stats.staleness").get(),
        before + 1,
        "consuming a stale snapshot must count on stats.staleness"
    );
    s.catalog().stats_of("t").expect("stats");
    assert_eq!(
        reg.counter("stats.staleness").get(),
        before + 1,
        "the recollected snapshot serves from cache"
    );

    // ANALYZE after a replacement refreshes proactively: no staleness.
    s.register_table(
        "t2",
        Table::from_rows(
            Schema::qualified("t2", ["a"]),
            (0..10i64)
                .map(|i| Tuple::new(vec![Value::Int(i)]))
                .collect(),
        ),
    );
    s.register_table(
        "t2",
        Table::from_rows(
            Schema::qualified("t2", ["a"]),
            (0..20i64)
                .map(|i| Tuple::new(vec![Value::Int(i)]))
                .collect(),
        ),
    );
    s.catalog().analyze("t2").expect("analyze");
    let after_analyze = reg.counter("stats.staleness").get();
    s.catalog().stats_of("t2").expect("stats");
    assert_eq!(
        reg.counter("stats.staleness").get(),
        after_analyze,
        "ANALYZE must pre-empt the staleness event"
    );
}

/// `EXPLAIN ANALYZE` with its wall times masked: every `time=` column and
/// the `build_ns` extra become `*`; names, rows, estimates and the
/// deterministic extras stay.
fn mask_times(report: &str) -> String {
    let mask = |word: &str| {
        let (open, body) = word.strip_prefix('(').map_or(("", word), |b| ("(", b));
        for key in ["time=", "build_ns="] {
            if let Some(value) = body.strip_prefix(key) {
                let tail = value.trim_start_matches(|c: char| c != ',' && c != ')');
                return format!("{open}{key}*{tail}");
            }
        }
        word.to_string()
    };
    report
        .lines()
        .map(|line| line.split(' ').map(mask).collect::<Vec<_>>().join(" "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Golden row-engine stats trees over a two-way hash join under a
/// projection, one per semantics. The join span reports its build / probe
/// split and build table; under UA the user projection, which carries the
/// join's marker (one `Map` per join), counts the certain rows and the
/// join below it does not — its output is `left ++ right`, whose last
/// column is only the right side's marker.
#[test]
fn golden_row_join_trees() {
    let s = seeded_session();
    s.set_exec_mode(ExecMode::Row);
    let det = "SELECT o.ok, c.dk FROM orders o, cust c \
               WHERE o.ck = c.ck AND o.total >= 490";
    let annotated = "SELECT x.v, c.dk FROM t IS TI WITH PROBABILITY (p) x, \
                     cu IS TI WITH PROBABILITY (p) c WHERE x.g = c.ck AND x.v >= 190";
    let reports = [
        ("det", s.explain_analyze_det(det)),
        ("ua", s.explain_analyze_ua(annotated)),
        ("au", s.explain_analyze_au(annotated)),
    ];
    let expected: [&[&str]; 3] = [
        &[
            "plan:",
            "  Map[o.ok→ok, c.dk→dk](Filter[((o.ck = c.ck) AND (o.total >= 490))](Cross(Alias[o](Scan(orders)), Alias[c](Scan(cust)))))",
            "physical (optimized):",
            "  Map[o.ok→ok, c.dk→dk](HashJoin[o.ck=c.ck; build=left](Alias[o](Filter[(total >= 490)](Scan(orders))), Alias[c](Scan(cust))))",
            "execution (EXPLAIN ANALYZE, engine=row semantics=det):",
            "  Map[o.ok→ok, c.dk→dk] rows=11 est=11 time=*",
            "    HashJoin[o.ck=c.ck; build=left] rows=11 est=11 time=* (build_rows=11, probe_rows=120, build_ns=*, mem_bytes=352)",
            "      Alias[o] rows=11 est=11 time=*",
            "        Filter[(total >= 490)] rows=11 est=11 time=*",
            "          Scan[orders] rows=600 est=600 time=*",
            "      Alias[c] rows=120 est=120 time=*",
            "        Scan[cust] rows=120 est=120 time=*",
            "  memory: query peak=352 bytes",
        ],
        &[
            "user plan:",
            "  Map[x.v→v, c.dk→dk](Filter[((x.g = c.ck) AND (x.v >= 190))](Cross(Alias[x](Scan(__ua__t__ti_1_p)), Alias[c](Scan(__ua__cu__ti_1_p)))))",
            "optimized:",
            "  Map[x.v→v, c.dk→dk](HashJoin[x.g=c.ck; build=left](Alias[x](Filter[(v >= 190)](Scan(__ua__t__ti_1_p))), Alias[c](Scan(__ua__cu__ti_1_p))))",
            "physical (rewritten with ⟦·⟧_UA):",
            "  Map[x.v→v, c.dk→dk, LEAST(#2, #5)→ua_c](HashJoin[x.g=c.ck; build=left](Alias[x](Filter[(v >= 190)](Scan(__ua__t__ti_1_p))), Alias[c](Scan(__ua__cu__ti_1_p))))",
            "execution (EXPLAIN ANALYZE, engine=row semantics=ua):",
            "  Map[x.v→v, c.dk→dk, LEAST(#2, #5)→ua_c] rows=10 est=10 time=* (certain_rows=8)",
            "    HashJoin[x.g=c.ck; build=left] rows=10 est=10 time=* (build_rows=10, probe_rows=120, build_ns=*, mem_bytes=200)",
            "      Alias[x] rows=10 est=10 time=* (certain_rows=8)",
            "        Filter[(v >= 190)] rows=10 est=10 time=* (certain_rows=8)",
            "          Scan[__ua__t__ti_1_p] rows=200 est=200 time=* (certain_rows=150)",
            "      Alias[c] rows=120 est=120 time=* (certain_rows=120)",
            "        Scan[__ua__cu__ti_1_p] rows=120 est=120 time=* (certain_rows=120)",
            "  memory: query peak=200 bytes",
        ],
        &[
            "plan:",
            "  Map[x.v→v, c.dk→dk](Filter[((x.g = c.ck) AND (x.v >= 190))](Cross(Alias[x](Scan(__au__t__ti_1_p)), Alias[c](Scan(__au__cu__ti_1_p)))))",
            "physical (optimized):",
            "  Map[x.v→v, c.dk→dk](HashJoin[x.g=c.ck; build=left](Alias[x](Filter[(v >= 190)](Scan(__au__t__ti_1_p))), Alias[c](Scan(__au__cu__ti_1_p))))",
            "execution (EXPLAIN ANALYZE, engine=row semantics=au):",
            "  Map[x.v→v, c.dk→dk] rows=10 est=10 time=* (certain_rows=8, top_attrs_permille=0, rel_width_permille=0, mult_spread=2, mem_bytes=1200)",
            "    HashJoin[x.g=c.ck; build=left] rows=10 est=10 time=* (certain_rows=8, top_attrs_permille=0, rel_width_permille=0, mult_spread=2, mem_bytes=2160)",
            "      Alias[x] rows=10 est=10 time=* (certain_rows=8, top_attrs_permille=0, rel_width_permille=0, mult_spread=2, mem_bytes=1200)",
            "        Filter[(v >= 190)] rows=10 est=10 time=* (certain_rows=8, top_attrs_permille=0, rel_width_permille=0, mult_spread=2, mem_bytes=1200)",
            "          Scan[__au__t__ti_1_p] rows=200 est=200 time=* (certain_rows=150, top_attrs_permille=0, rel_width_permille=0, mult_spread=50, mem_bytes=24000)",
            "      Alias[c] rows=120 est=120 time=* (certain_rows=120, top_attrs_permille=0, rel_width_permille=0, mult_spread=0, mem_bytes=14400)",
            "        Scan[__au__cu__ti_1_p] rows=120 est=120 time=* (certain_rows=120, top_attrs_permille=0, rel_width_permille=0, mult_spread=0, mem_bytes=14400)",
            "  memory: query peak=24000 bytes",
        ],
    ];
    for ((sem, report), expected) in reports.into_iter().zip(expected) {
        let report = mask_times(&report.unwrap_or_else(|e| panic!("{sem}: {e}")));
        assert_eq!(
            report,
            expected.join("\n"),
            "{sem} row join golden drifted:\n{report}"
        );
    }
}

/// The vectorized twin of `golden_row_join_trees`' UA case: both engines
/// print the same plans — the vectorized engine runs the `⟦·⟧_UA`
/// rewriting of the optimized plan too — and its tree counts
/// `certain_rows` on the same operators as the row tree: not on the hash
/// join, whose output ends in the right side's marker only. The σ below the join's build side fuses
/// into nothing here (it sits under an alias), so every row span has its
/// vectorized twin.
#[test]
fn golden_vectorized_ua_join_tree() {
    let s = seeded_session();
    s.set_vec_threads(1);
    let annotated = "SELECT x.v, c.dk FROM t IS TI WITH PROBABILITY (p) x, \
                     cu IS TI WITH PROBABILITY (p) c WHERE x.g = c.ck AND x.v >= 190";
    let report = |mode| {
        s.set_exec_mode(mode);
        mask_times(&s.explain_analyze_ua(annotated).expect("ua explain analyze"))
    };
    let (row, vec) = (report(ExecMode::Row), report(ExecMode::Vectorized));
    let plans = |report: &str| {
        report
            .split("execution (")
            .next()
            .unwrap_or_default()
            .to_string()
    };
    assert_eq!(plans(&row), plans(&vec), "the engines run different plans");
    // The morsel-pool line after the tree carries wall times.
    let execution: Vec<&str> = vec
        .lines()
        .skip_while(|l| !l.starts_with("execution"))
        .take_while(|l| !l.starts_with("  morsel pool:"))
        .collect();
    let expected = [
        "execution (EXPLAIN ANALYZE, engine=vectorized semantics=ua):",
        "  Map[x.v→v, c.dk→dk, LEAST(#2, #5)→ua_c] rows=10 est=10 batches=1 time=* (certain_rows=8)",
        "    HashJoin[x.g=c.ck; build=left] rows=10 est=10 batches=1 time=* (build_ns=*, build_rows=10, mem_bytes=560, probe_rows=120)",
        "      Alias[x] rows=10 est=10 batches=1 time=* (certain_rows=8)",
        "        Filter[(v >= 190)] rows=10 est=10 batches=1 time=* (certain_rows=8)",
        "          Scan[__ua__t__ti_1_p] rows=200 est=200 batches=1 time=* (certain_rows=150)",
        "      Alias[c] rows=120 est=120 batches=1 time=* (certain_rows=120)",
        "        Scan[__ua__cu__ti_1_p] rows=120 est=120 batches=1 time=* (certain_rows=120)",
        "  memory: query peak=560 bytes",
    ];
    assert_eq!(
        execution.join("\n"),
        expected.join("\n"),
        "vectorized UA join golden drifted:\n{vec}"
    );
}

/// `certain_rows` is a UA count on both engines: a det query over a
/// UA-encoded table reports none, the UA query over it the same count on
/// every node whose output carries the marker.
#[test]
fn only_ua_runs_count_certain_rows() {
    let s = UaSession::new();
    s.register_table(
        "e",
        Table::from_rows(
            Schema::qualified("e", ["a"]).with_column("ua_c"),
            (0..10i64)
                .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 2)]))
                .collect(),
        ),
    );
    for mode in [ExecMode::Row, ExecMode::Vectorized] {
        s.set_exec_mode(mode);
        let det = s.explain_analyze_det("SELECT * FROM e").expect("det");
        assert!(!det.contains("certain_rows"), "{mode:?}:\n{det}");
        let ua = s.explain_analyze_ua("SELECT a FROM e").expect("ua");
        let counted = ua
            .lines()
            .filter(|l| l.contains("rows=10 "))
            .collect::<Vec<_>>();
        assert!(
            counted.len() == 2 && counted.iter().all(|l| l.contains("(certain_rows=5)")),
            "{mode:?}:\n{ua}"
        );
    }
}

/// No row-engine join span counts `certain_rows` under UA — inner or
/// outer, also where an error-capable filter stays between an inner join
/// and its `⟦⋈⟧` projection: the join's output ends in the right side's
/// marker only, which is not the joined rows' certainty (the count was
/// reported there before). Nor does that filter, whose output is the
/// join's. The `⟦⋈⟧` / `⟦⟕⟧` projection above reports it.
#[test]
fn ua_row_join_spans_count_no_certain_rows() {
    fn is_join(node: &ua_obs::OperatorStats) -> bool {
        matches!(
            node.name.as_str(),
            "Join" | "HashJoin" | "Cross" | "OuterJoin"
        )
    }
    fn walk(node: &ua_obs::OperatorStats, parent: &str, joins: &mut usize, filtered: &mut usize) {
        let counts = node.extra.iter().any(|(k, _)| k == "certain_rows");
        if is_join(node) {
            assert!(!counts, "join span counts certain rows: {node:?}");
            *joins += 1;
            *filtered += usize::from(parent == "Filter");
        }
        if node.name == "Filter" && node.children.iter().any(is_join) {
            assert!(!counts, "filter over a join counts certain rows: {node:?}");
        }
        for child in &node.children {
            walk(child, &node.name, joins, filtered);
        }
    }
    let s = seeded_session();
    s.set_exec_mode(ExecMode::Row);
    s.set_stats_enabled(true);
    let queries = [
        (
            "SELECT q.v FROM (SELECT x.v AS v, c.dk AS dk FROM t IS TI WITH PROBABILITY (p) x, \
             cu IS TI WITH PROBABILITY (p) c WHERE x.g = c.ck) q WHERE q.v * q.dk >= 1",
            1,
        ),
        (
            "SELECT x.v, c.dk FROM t IS TI WITH PROBABILITY (p) x \
             LEFT JOIN cu IS TI WITH PROBABILITY (p) c ON x.g = c.ck",
            0,
        ),
    ];
    for (sql, under_filter) in queries {
        s.query_ua(sql).expect("ua");
        let stats = s.last_query_stats().expect("stats");
        let (mut joins, mut filtered) = (0, 0);
        walk(&stats.root, "", &mut joins, &mut filtered);
        assert_eq!(
            (joins, filtered),
            (1, under_filter),
            "one join, {under_filter} of them directly under a filter:\n{}",
            stats.render(false)
        );
    }
}
