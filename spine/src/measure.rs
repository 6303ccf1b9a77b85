//! The measurement protocol of one workload run: set-up (timed, repeated),
//! the output check, and closed-loop timed passes interleaved round-robin
//! over the six configurations. One client, one process.

use crate::adapter::{
    self, Config, Output, RawData, Sem, Sessions, WidthSummary, CONFIGS, UA_FRAGMENT_ERROR,
};
use crate::layers;
use crate::metrics::END_TO_END;
use crate::trace::Recorder;
use crate::workloads::{Statement, Workload};
use std::hint::black_box;
use std::time::{Duration, Instant};
use ua_bench::report::quartiles;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed rounds a run makes even when its time budget is already spent.
const MIN_ROUNDS: usize = 3;
/// The smoke test's statements per pass and rounds.
const SMOKE_STATEMENTS: usize = 48;
const SMOKE_ROUNDS: usize = 2;

pub struct RunOptions<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The smoke test's sizes: tiny tables, the first statements of the
    /// query set, one set-up and two rounds whatever `seconds` says.
    pub smoke: bool,
    /// Where the traced run writes its trace and layer files.
    pub out_dir: std::path::PathBuf,
}

/// One named value of the result line.
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Value>,
}

/// Statement executions attempted, and those that returned an unexpected
/// error or failed the output check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the human reader (never unwrapped, never dropped).
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        // The first few messages identify the defect; the count has them all.
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }
}

/// What the output check learns about the results while it has them.
#[derive(Default)]
pub struct Quality {
    ua_certain: (usize, usize),
    au_certain: (usize, usize),
    pub width: WidthSummary,
    pub rows_out: u64,
    /// Order-insensitive hash of the result tables, per semantics.
    pub checksums: [u64; 3],
    /// Result rows per statement under det / UA / AU (`None` where the
    /// statement did not produce a result), for the replay to compare with.
    pub rows: Vec<[Option<usize>; 3]>,
}

/// Timed samples of the six configurations.
#[derive(Default)]
pub struct Timings {
    /// Wall seconds per pass of the query set, one sample per round.
    pub passes: [Vec<f64>; 6],
    /// Seconds per statement in execution order; sample `k` of a
    /// configuration belongs to the `k % n`-th statement it runs.
    pub statements: [Vec<f64>; 6],
}

/// The median of a sample that is not empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(&mut values.to_vec()).2
}

/// Whether `cfg` runs `stmt` in timed passes (UA skips what it rejects).
pub fn runs(cfg: Config, stmt: &Statement) -> bool {
    cfg.sem != Sem::Ua || stmt.ua
}

/// The untimed warm-up pass of all six configurations, statement by
/// statement, with the output check on its results. Returns the time spent
/// inside the query calls (the check itself is not set-up work).
fn warm_up(
    sessions: &Sessions,
    stmts: &[Statement],
    mut check: Option<(&mut Tally, &mut Quality)>,
) -> Duration {
    let mut spent = Duration::ZERO;
    for stmt in stmts {
        let outputs: Vec<Result<Output, String>> = CONFIGS
            .iter()
            .map(|&cfg| {
                let start = Instant::now();
                let out = sessions.run(cfg, &stmt.sql);
                spent += start.elapsed();
                out
            })
            .collect();
        if let Some((tally, quality)) = check.as_mut() {
            tally.attempted += CONFIGS.len() as u64;
            check_statement(stmt, &outputs, tally, quality);
        }
    }
    spent
}

/// The output check of one statement over its six results: row and
/// vectorized byte-identical under each semantics; the UA and AU results
/// equal the deterministic result over the best-guess world as bags; a
/// statement outside the UA fragment returns the fragment error and
/// nothing else.
fn check_statement(
    stmt: &Statement,
    outputs: &[Result<Output, String>],
    tally: &mut Tally,
    quality: &mut Quality,
) {
    let sql = &stmt.sql;
    let mut rows = [None; 3];
    let mut expected = None;
    for (s, sem) in adapter::SEMS.into_iter().enumerate() {
        let (row, vec) = (&outputs[s], &outputs[s + 3]);
        if sem == Sem::Ua && !stmt.ua {
            for (cfg, out) in [(CONFIGS[s], row), (CONFIGS[s + 3], vec)] {
                match out {
                    Err(e) if e.contains(UA_FRAGMENT_ERROR) => {}
                    Err(e) => tally.fail(format!(
                        "{}: expected the UA fragment error, got `{e}`: {sql}",
                        cfg.name
                    )),
                    Ok(_) => tally.fail(format!(
                        "{}: a statement outside the UA fragment returned a result: {sql}",
                        cfg.name
                    )),
                }
            }
            continue;
        }
        let (row, vec) = match (row, vec) {
            (Ok(row), Ok(vec)) => (row, vec),
            _ => {
                for (cfg, out) in [(CONFIGS[s], row), (CONFIGS[s + 3], vec)] {
                    if let Err(e) = out {
                        tally.fail(format!("{}: {e}: {sql}", cfg.name));
                    }
                }
                continue;
            }
        };
        if row.table() != vec.table() {
            tally.fail(format!(
                "{} and {} results differ: {sql}",
                CONFIGS[s].name,
                CONFIGS[s + 3].name
            ));
            continue;
        }
        let bag = row.best_guess_rows();
        match &expected {
            None => expected = Some(bag),
            Some(det) if *det != bag => tally.fail(format!(
                "{} result differs from det over the best-guess world: {sql}",
                CONFIGS[s].name
            )),
            Some(_) => {}
        }
        rows[s] = Some(row.table().len());
        quality.rows_out += row.table().len() as u64;
        quality.checksums[s] = quality.checksums[s].wrapping_add(row.checksum());
        if let Some((certain, total)) = row.certainty_counts() {
            let acc = if sem == Sem::Ua {
                &mut quality.ua_certain
            } else {
                &mut quality.au_certain
            };
            acc.0 += certain;
            acc.1 += total;
        }
        if let Some(width) = row.width() {
            quality.width.merge(&width);
        }
    }
    quality.rows.push(rows);
}

/// One timed unit: `reps` runs of the query set under one configuration.
fn timed_unit(
    sessions: &Sessions,
    cfg: Config,
    reps: u32,
    stmts: &[Statement],
    statement_s: &mut Vec<f64>,
    tally: &mut Tally,
) {
    for _ in 0..reps {
        for stmt in stmts.iter().filter(|s| runs(cfg, s)) {
            let q = Instant::now();
            tally.attempted += 1;
            match sessions.run(cfg, &stmt.sql) {
                Ok(out) => {
                    black_box(out.table().len());
                }
                Err(e) => tally.fail(format!("{}: {e}: {}", cfg.name, stmt.sql)),
            }
            statement_s.push(q.elapsed().as_secs_f64());
        }
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn share((part, total): (usize, usize)) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

pub fn run(opts: &RunOptions<'_>) -> Result<Report, String> {
    adapter::install();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = cores.min(4);
    let rec = Recorder::new();
    let w = opts.workload;
    let scale = if opts.smoke { w.smoke_scale } else { w.scale };
    let raw: RawData = adapter::generate(scale, opts.seed, &rec);
    let mut stmts = (w.statements)(raw.sizes, opts.seed);
    if opts.smoke {
        stmts.truncate(SMOKE_STATEMENTS);
    }
    let mut tally = Tally::default();
    let mut quality = Quality::default();

    // Set-up, repeated: each load replaces the previous sessions, so the
    // process never holds two copies and `peak_rss_mb` stays one copy's.
    let mut setup_s = Vec::new();
    let mut sessions: Option<Sessions> = None;
    for i in 0..if opts.trace || opts.smoke { 1 } else { SETUPS } {
        drop(sessions.take());
        let start = Instant::now();
        let loaded = rec.span("setup.load", || Sessions::load(&raw, threads, &rec));
        let load = start.elapsed();
        let check = (i == 0).then_some((&mut tally, &mut quality));
        let warm = warm_up(&loaded, &stmts, check);
        setup_s.push((load + warm).as_secs_f64());
        sessions = Some(loaded);
    }
    let sessions = sessions.expect("at least one set-up ran");

    // Timed passes, only on outputs that passed the check.
    let mut timings = Timings::default();
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let start = Instant::now();
    let mut rounds = 0;
    let more = |rounds: usize| match opts.smoke {
        true => rounds < SMOKE_ROUNDS,
        false => rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < budget,
    };
    while tally.failed == 0 && more(rounds) {
        for (c, &cfg) in CONFIGS.iter().enumerate() {
            let unit = Instant::now();
            timed_unit(
                &sessions,
                cfg,
                w.reps[c],
                &stmts,
                &mut timings.statements[c],
                &mut tally,
            );
            timings.passes[c].push(unit.elapsed().as_secs_f64() / f64::from(w.reps[c]));
        }
        rounds += 1;
    }

    eprintln!(
        "{}: seed {} scale {scale} cores {cores} threads {threads} statements {} rounds {rounds}",
        w.name,
        opts.seed,
        stmts.len()
    );
    for (cfg, passes) in CONFIGS.iter().zip(&timings.passes) {
        if passes.is_empty() {
            continue;
        }
        let (_, p25, median, p75, _) = quartiles(&mut passes.clone());
        eprintln!(
            "  {:8} median {median:.6} s  p25 {p25:.6}  p75 {p75:.6}  n {}",
            cfg.name,
            passes.len()
        );
    }

    let metrics = if tally.failed > 0 {
        Vec::new()
    } else if opts.trace {
        layers::collect(
            &layers::Inputs {
                opts,
                raw: &raw,
                sessions: &sessions,
                stmts: &stmts,
                timings: &timings,
                quality: &quality,
                rec: &rec,
                cores,
                threads,
            },
            &mut tally,
        )?
    } else {
        // In `END_TO_END` order.
        let mut values = vec![median(&setup_s)];
        values.extend(timings.passes.iter().map(|p| median(p)));
        values.extend([
            peak_rss_mib(),
            share(quality.ua_certain),
            share(quality.au_certain),
        ]);
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Value {
                name: m.name,
                unit: m.unit,
                value,
            })
            .collect()
    };
    Ok(Report { tally, metrics })
}
