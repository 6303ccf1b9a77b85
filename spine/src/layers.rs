//! The traced run: per-layer metrics taken from outside, after the timed
//! passes. Three extra passes per configuration — one with the sessions'
//! stats trees on, one with their trace ring on, one replaying each
//! statement layer by layer under the benchmark's own spans — plus a serial
//! pass of the vectorized configurations. The untraced medians of the
//! timed passes are the base of every overhead and share printed here.

use crate::adapter::{self, Config, ExecMode, OperatorStats, Output, RawData, Sessions, CONFIGS};
use crate::measure::{median, runs, Quality, RunOptions, Tally, Timings, Value};
use crate::metrics::{OP_FAMILIES, PER_LAYER, RATIOS};
use crate::trace::Recorder;
use crate::workloads::Statement;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Inputs<'a> {
    pub opts: &'a RunOptions<'a>,
    pub raw: &'a RawData,
    pub sessions: &'a Sessions,
    pub stmts: &'a [Statement],
    pub timings: &'a Timings,
    pub quality: &'a Quality,
    pub rec: &'a Recorder,
    pub cores: usize,
    pub threads: usize,
}

fn family(op: &str) -> Option<usize> {
    let name = match op {
        "Scan" => "scan",
        "Filter" | "Map" | "Alias" => "filter_map",
        "Join" | "Cross" | "HashJoin" => "join",
        "Aggregate" => "aggregate",
        "Distinct" => "distinct",
        "Sort" | "TopK" | "Limit" => "sort_topk",
        "Except" | "OuterJoin" => "negation",
        _ => return None,
    };
    OP_FAMILIES.iter().position(|f| *f == name)
}

/// What the stats trees of one configuration's pass add up to.
#[derive(Default, Clone)]
struct OpTotals {
    self_ns: [u64; 7],
    /// Σ rows flowing into operators, and Σ result rows.
    examined: u64,
    results: u64,
    max_qerror: f64,
    /// Scan details (table names), one entry per scan executed.
    scans: Vec<String>,
}

impl OpTotals {
    fn add(&mut self, root: &OperatorStats) {
        self.results += root.rows_out;
        root.walk(&mut |node| {
            if let Some(f) = family(&node.name) {
                self.self_ns[f] += node.self_ns();
            }
            self.examined += node.children.iter().map(|c| c.rows_out).sum::<u64>();
            if node.name == "Scan" {
                self.scans.push(node.detail.clone());
            }
            if let Some(est) = node.est_rows {
                let (est, actual) = (est.max(1) as f64, node.rows_out.max(1) as f64);
                self.max_qerror = self.max_qerror.max(est.max(actual) / est.min(actual));
            }
        });
    }
}

#[derive(Default)]
struct PoolTotals {
    tasks: u64,
    stolen: u64,
    busy_ns: u64,
    capacity_ns: u64,
    merge_ns: u64,
    build_wall_ns: u64,
}

/// Per-statement median latency of a configuration, in statement order of
/// the statements it runs.
fn statement_medians(samples: &[f64], n: usize) -> Vec<f64> {
    (0..n)
        .map(|j| {
            let of_j: Vec<f64> = samples.iter().skip(j).step_by(n).copied().collect();
            median(&of_j)
        })
        .collect()
}

/// `reps` passes of the query set under `cfg` with whatever observers the
/// caller switched on; returns the seconds per pass spent inside the query
/// calls. `after` sees each result of the first pass, outside the timing.
fn observed_pass(
    inp: &Inputs<'_>,
    cfg: Config,
    reps: u32,
    label: &str,
    tally: &mut Tally,
    after: &mut dyn FnMut(&Output),
) -> f64 {
    let mut spent = 0.0;
    for rep in 0..reps {
        for stmt in inp.stmts.iter().filter(|s| runs(cfg, s)) {
            tally.attempted += 1;
            let start = Instant::now();
            let result = inp.sessions.run(cfg, &stmt.sql);
            spent += start.elapsed().as_secs_f64();
            if let (0, Ok(output)) = (rep, &result) {
                after(output);
            }
            // Dropping the result is timed, as it is in the timed passes.
            let start = Instant::now();
            match result {
                Ok(output) => drop(output),
                Err(e) => tally.fail(format!("{} {label}: {e}: {}", cfg.name, stmt.sql)),
            }
            spent += start.elapsed().as_secs_f64();
        }
    }
    spent / f64::from(reps)
}

pub fn collect(inp: &Inputs<'_>, tally: &mut Tally) -> Result<Vec<Value>, String> {
    let Inputs {
        sessions,
        stmts,
        rec,
        ..
    } = *inp;
    let w = inp.opts.workload;
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    let mut notes: Vec<String> = Vec::new();

    // Untraced base: pass medians, and per-statement medians for whatever
    // compares subsets of the query set.
    let base: Vec<f64> = inp.timings.passes.iter().map(|p| median(p)).collect();
    // Per-statement medians, spread back over the full statement list
    // (`None` where the configuration does not run the statement).
    let latency: Vec<Vec<Option<f64>>> = CONFIGS
        .iter()
        .enumerate()
        .map(|(c, &cfg)| {
            let n = stmts.iter().filter(|s| runs(cfg, s)).count();
            let mut medians = statement_medians(&inp.timings.statements[c], n).into_iter();
            stmts
                .iter()
                .map(|s| runs(cfg, s).then(|| medians.next().expect("one median per statement")))
                .collect()
        })
        .collect();

    adapter::convert_sources(inp.raw, rec)?;
    sessions.collect_stats(rec);

    // Pass 1: the sessions' stats trees on.
    sessions.set_observers(true, false);
    let mut ops = vec![OpTotals::default(); 6];
    let mut pool = PoolTotals::default();
    let mut peak_mem = 0u64;
    let mut stats_s = [0.0f64; 6];
    for (c, &cfg) in CONFIGS.iter().enumerate() {
        stats_s[c] = observed_pass(inp, cfg, w.reps[c], "stats on", tally, &mut |output| {
            if c == 5 {
                adapter::decode_au(output, rec);
            }
            let Some(stats) = sessions.last_stats(cfg.sem) else {
                return;
            };
            ops[c].add(&stats.root);
            peak_mem = peak_mem.max(stats.peak_mem_bytes);
            if let Some(p) = &stats.pool {
                pool.tasks += p.tasks;
                pool.stolen += p.stolen;
                pool.busy_ns += p.worker_busy_ns.iter().sum::<u64>();
                pool.capacity_ns += p.workers * p.wall_ns;
                pool.merge_ns += p.merge_ns;
                pool.build_wall_ns += p.build_wall_ns;
            }
        });
    }

    // Pass 2: the sessions' trace ring on.
    sessions.set_observers(false, true);
    let mut trace_s = [0.0f64; 6];
    let mut trace_bytes = 0usize;
    for (c, &cfg) in CONFIGS.iter().enumerate() {
        trace_s[c] = observed_pass(inp, cfg, w.reps[c], "trace on", tally, &mut |_| {
            trace_bytes += sessions.last_trace_len(cfg.sem);
        });
    }
    sessions.set_observers(false, false);
    notes.push(format!(
        "engine traces produced: {trace_bytes} bytes of Perfetto JSON"
    ));

    // Pass 3: replay each statement layer by layer under our own spans,
    // after one unrecorded replay that warms whatever the path touches.
    // `replayed[c]` sums the untraced medians of the statements replayed.
    let mut replayed = [0.0f64; 6];
    let mut replay_s = [0.0f64; 6];
    let mut det_row_replays = 0usize;
    for (c, &cfg) in CONFIGS.iter().enumerate() {
        let untraced = &latency[c];
        for (j, stmt) in stmts.iter().enumerate() {
            if !runs(cfg, stmt) {
                continue;
            }
            let _ = sessions.replay(cfg, &stmt.sql, &Recorder::new());
            rec.next_query();
            let start = Instant::now();
            let rows = rec.span(cfg.name, || sessions.replay(cfg, &stmt.sql, rec));
            let spent = start.elapsed().as_secs_f64();
            match rows {
                Ok(None) => {}
                Ok(Some(rows)) => {
                    tally.attempted += 1;
                    // CONFIGS lists det, UA, AU once per engine.
                    let sem = c % 3;
                    if inp.quality.rows[j][sem] != Some(rows) {
                        tally.fail(format!(
                            "{} replay returned {rows} rows, the session {:?}: {}",
                            cfg.name, inp.quality.rows[j][sem], stmt.sql
                        ));
                    }
                    replayed[c] += untraced[j].unwrap_or(0.0);
                    replay_s[c] += spent;
                    det_row_replays += usize::from(c == 0);
                }
                Err(e) => {
                    tally.attempted += 1;
                    tally.fail(format!("{} replay: {e}: {}", cfg.name, stmt.sql));
                }
            }
        }
    }
    rec.end_queries();
    // Scan-convert, once per scan the det-vec pass executed.
    for name in &ops[3].scans {
        sessions.scan_convert(name, rec)?;
    }

    // Serial pass of the vectorized configurations; its results must hash
    // to what the checked results at the full thread count hashed to.
    sessions.set_vec_threads(1);
    let mut serial_s = 0.0;
    for (c, &cfg) in CONFIGS.iter().enumerate() {
        if cfg.mode == ExecMode::Vectorized {
            let mut checksum = 0u64;
            serial_s += observed_pass(inp, cfg, w.reps[c], "at one thread", tally, &mut |output| {
                checksum = checksum.wrapping_add(output.checksum());
            });
            tally.attempted += 1;
            if checksum != inp.quality.checksums[c - 3] {
                tally.fail(format!(
                    "{} results at one thread differ from those at {} threads",
                    cfg.name, inp.threads
                ));
            }
        }
    }
    sessions.set_vec_threads(inp.threads);

    // Spans → layer metrics. A `_s` metric is the layer's self time over
    // one pass of the query set (set-up spans: over the one set-up); a
    // `_us` metric is the mean per call.
    let spans = rec.self_seconds();
    let total = |name: &str| spans.get(name).map_or(0.0, |s| s.0);
    let mean_us = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |s| s.0 / s.1.max(1) as f64 * 1e6)
    };
    for name in [
        "datagen.generate",
        "datagen.inject",
        "core.encode",
        "models.x_source",
        "models.ti_source",
        "ranges.from_x_blocks",
        "ranges.au_table",
        "ranges.result_table",
        "ranges.decode",
        "ranges.row_execute",
        "storage.register",
        "storage.stats_collect",
        "exec.det_row_execute",
        "exec.ua_row_execute",
        "columnar.scan_convert",
        "columnar.ua_scan_convert",
        "columnar.materialize",
        "columnar.ua_materialize",
        "vecexec.det_stream",
        "vecexec.ua_stream",
        "vecexec.au_execute",
    ] {
        put(&format!("{name}_s"), total(name));
    }
    put("core.rewrite_us", mean_us("core.rewrite"));
    put("sql.parse_us", mean_us("sql.parse"));
    put("sql.plan_us", mean_us("sql.plan"));
    put("optimize.optimize_us", mean_us("optimize.optimize"));

    for (sem, name) in adapter::SEMS.into_iter().zip(["det", "ua", "au"]) {
        put(
            &format!("storage.table_bytes_{name}"),
            sessions.table_bytes(sem) as f64,
        );
    }

    put("optimize.max_qerror", ops[0].max_qerror);
    put(
        "op.rows_examined_per_result",
        ops[0].examined as f64 / ops[0].results.max(1) as f64,
    );
    for c in [3, 5] {
        for (fam, ns) in OP_FAMILIES.iter().zip(ops[c].self_ns) {
            put(&format!("op.{}.{fam}_self_ns", CONFIGS[c].name), ns as f64);
        }
    }

    put("pool.tasks", pool.tasks as f64);
    put("pool.stolen", pool.stolen as f64);
    put(
        "pool.busy_share",
        pool.busy_ns as f64 / pool.capacity_ns.max(1) as f64,
    );
    put("pool.merge_ns", pool.merge_ns as f64);
    put("pool.build_wall_ns", pool.build_wall_ns as f64);

    let engine_ratio = |observed: &[f64; 6], mode: ExecMode| -> f64 {
        let of_mode = |v: &[f64]| -> f64 {
            CONFIGS
                .iter()
                .zip(v)
                .filter(|(c, _)| c.mode == mode)
                .map(|(_, s)| s)
                .sum()
        };
        of_mode(observed) / of_mode(&base)
    };
    for (observer, observed) in [("stats", &stats_s), ("trace", &trace_s)] {
        put(
            &format!("obs.{observer}_overhead_row"),
            engine_ratio(observed, ExecMode::Row),
        );
        put(
            &format!("obs.{observer}_overhead_vec"),
            engine_ratio(observed, ExecMode::Vectorized),
        );
    }
    put("obs.peak_mem_bytes", peak_mem as f64);

    let vec_base: f64 = base[3..].iter().sum();
    put("vecexec.serial_over_par", serial_s / vec_base);
    put("vecexec.par_armed", f64::from(u8::from(inp.cores >= 2)));
    if inp.cores < 2 {
        notes.push(format!(
            "vecexec.serial_over_par is UNARMED: {} core, so the parallel passes also ran on one thread; \
             the printed ratio compares serial with serial",
            inp.cores
        ));
    }
    put("vecexec.au_fallbacks", adapter::au_fallbacks() as f64);

    // Session overhead: the entry point's untraced time against the layer
    // spans its replay recorded (the children of the statement spans).
    let covered: Vec<f64> = CONFIGS
        .iter()
        .map(|c| rec.children_seconds(c.name))
        .collect();
    put(
        "session.overhead_us",
        (replayed[0] - covered[0]) / det_row_replays.max(1) as f64 * 1e6,
    );
    let replayed_total: f64 = replayed.iter().sum();
    put(
        "session.unattributed_share",
        (replayed_total - covered.iter().sum::<f64>()) / replayed_total.max(f64::MIN_POSITIVE),
    );
    let mut det_row_latency = inp.timings.statements[0].clone();
    det_row_latency.sort_by(f64::total_cmp);
    let rank = |q: f64| det_row_latency[((det_row_latency.len() - 1) as f64 * q) as usize];
    put("session.p50_query_us", rank(0.50) * 1e6);
    put("session.p99_query_us", rank(0.99) * 1e6);
    // The mean relative width of the numerically bounded cells of every AU
    // result, from the summaries' integer sums (the summary's own accessor
    // rounds to whole per-mille).
    let width = &inp.quality.width;
    put(
        "au_rel_width_permille",
        width.rel_width_permille_sum as f64 / width.width_cells.max(1) as f64,
    );
    put("session.rows_out", inp.quality.rows_out as f64);
    // 48 bits survive the trip through a JSON number exactly.
    let checksum = inp
        .quality
        .checksums
        .iter()
        .fold(0u64, |a, c| a.wrapping_add(*c));
    put("session.checksum", (checksum & ((1 << 48) - 1)) as f64);

    // The paper's headline: uncertain over deterministic, on the statements
    // both sides run, from per-statement medians. The base is printed too.
    let mut ratio_lines = Vec::new();
    for (metric, (num, den)) in RATIOS.iter().zip([(1, 0), (4, 3), (2, 0), (5, 3)]) {
        let (mut ns, mut ds) = (0.0, 0.0);
        for (n, d) in latency[num].iter().zip(&latency[den]) {
            if let (Some(n), Some(d)) = (n, d) {
                ns += n;
                ds += d;
            }
        }
        put(metric.name, ns / ds);
        ratio_lines.push(format!(
            "\"{}\": {{\"value\": {}, \"numerator_s\": {ns}, \"base_s\": {ds}}}",
            metric.name,
            ns / ds
        ));
    }

    put(
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );

    let values: Vec<Value> = PER_LAYER
        .iter()
        .chain(RATIOS.iter())
        .map(|m| {
            let value = *out
                .get(m.name)
                .unwrap_or_else(|| panic!("per-layer metric `{}` was not measured", m.name));
            Value {
                name: m.name,
                unit: m.unit,
                value,
            }
        })
        .collect();

    // Files: the Perfetto trace and the full layer table (all six
    // configurations' operator families, ratios with their bases, notes).
    let dir = &inp.opts.out_dir;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |file: String, contents: String| {
        let path = dir.join(file);
        std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(format!("{}.trace.json", w.name), rec.to_perfetto_json()?)?;
    let object = |pairs: Vec<(&str, String)>| -> String {
        let fields: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    };
    let per_config = |field: &dyn Fn(usize) -> String| -> String {
        object(
            CONFIGS
                .iter()
                .enumerate()
                .map(|(c, cfg)| (cfg.name, field(c)))
                .collect(),
        )
    };
    let layers =
        format!(
        "{{\n\"workload\": \"{}\", \"seed\": {}, \"cores\": {}, \"threads\": {}, \"spans\": {},\n\
         \"untraced_median_s\": {},\n\"replay\": {},\n\"op_self_ns\": {},\n\"ratios\": {{{}}},\n\
         \"metrics\": {},\n\"notes\": [{}]\n}}\n",
        w.name,
        inp.opts.seed,
        inp.cores,
        inp.threads,
        rec.span_count(),
        per_config(&|c| base[c].to_string()),
        per_config(&|c| object(vec![
            ("untraced_s", replayed[c].to_string()),
            ("layer_spans_s", covered[c].to_string()),
            ("replay_wall_s", replay_s[c].to_string()),
        ])),
        per_config(&|c| object(
            OP_FAMILIES
                .iter()
                .zip(ops[c].self_ns)
                .map(|(f, ns)| (*f, ns.to_string()))
                .collect()
        )),
        ratio_lines.join(", "),
        object(values.iter().map(|v| (v.name, v.value.to_string())).collect()),
        notes.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", "),
    );
    write(format!("{}.layers.json", w.name), layers)?;
    for note in &notes {
        eprintln!("  note: {note}");
    }
    Ok(values)
}
