//! `spine` — the repo's one benchmark: SQL string in → result table out for
//! det / UA / AU on both engines, five workloads, per-layer breakdown taken
//! from outside. See `BENCHMARK.md` beside this package.
//!
//! ```text
//! spine --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! spine --all [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! spine --workload <name> --smoke      (tiny tables, two rounds: the smoke test)
//! spine --print-benchmark-json
//! ```
//!
//! The last line of standard output is one JSON object per workload; the
//! human-readable tables go to standard error.

mod adapter;
mod layers;
mod measure;
mod metrics;
mod trace;
mod workloads;

use measure::{Report, RunOptions};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::WORKLOADS;

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        smoke: false,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--all" => args.all = true,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(0.0..=60.0).contains(&args.seconds) {
        return Err("--seconds must lie in 0..=60".into());
    }
    Ok(args)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

/// Where the traced run writes: `out/` beside the package manifest.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}`; choose from {}",
            names.join(", ")
        )
    })?;
    let report = measure::run(&RunOptions {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        out_dir: out_dir(),
    })?;
    for e in &report.tally.errors {
        eprintln!("  FAILED {e}");
    }
    for m in &report.metrics {
        eprintln!("  {:32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        return Err("a metric is not a finite number".into());
    }
    println!("{}", result_line(&report));
    Ok(report.tally.failed == 0)
}

/// `--all`: one child process per workload, so that peak memory and lazy
/// state of one workload never leak into the next.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| e.to_string())?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.print_benchmark_json {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        } else if args.all {
            run_all(&args)
        } else if let Some(name) = &args.workload {
            run_workload(name, &args)
        } else {
            Err("give --workload <name>, --all or --print-benchmark-json".into())
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::from(2)
        }
    }
}
