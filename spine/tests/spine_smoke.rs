//! Smoke test of the `spine` binary: every workload at `--smoke` sizes, both
//! trace modes. Checks the result line's shape against `BENCHMARK.json`, the
//! value ranges of the share metrics, and that the traced run leaves a
//! Perfetto file with balanced, properly nested spans.

use std::path::Path;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values listed under `section` of `BENCHMARK.json`.
fn names(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find("\n  ]").expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name ends")].to_string())
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_spine"))
        .args(args)
        .output()
        .expect("spine runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// The number after `"<name>": {"value": ` in a result line.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line
        .find(&key)
        .unwrap_or_else(|| panic!("`{name}` missing: {line}"))
        + key.len()..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .unwrap_or_else(|e| panic!("`{name}` is not a number: {e}"))
}

/// The metric names of a result line, in order.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics key") + 12..];
    // Every part but the last ends with `"<name>`.
    let parts: Vec<&str> = metrics.split("\": {\"value\"").collect();
    parts[..parts.len() - 1]
        .iter()
        .map(|part| part[part.rfind('"').expect("name starts") + 1..].to_string())
        .collect()
}

fn result_line(workload: &str, trace: &str) -> String {
    let (ok, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--trace",
        trace,
        "--smoke",
    ]);
    assert!(ok, "{workload} --trace {trace} failed");
    let line = stdout.lines().last().expect("a result line").to_string();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    line
}

fn check_workload(workload: &str) {
    let line = result_line(workload, "0");
    assert_eq!(metric_names(&line), names("end_to_end"), "{workload}");
    for share in ["ua_certain_share", "au_certain_share"] {
        let v = value(&line, share);
        assert!((0.0..=1.0).contains(&v), "{workload} {share} = {v}");
    }
    for name in names("end_to_end") {
        assert!(
            value(&line, &name) > 0.0,
            "{workload} {name} is not positive"
        );
    }

    let line = result_line(workload, "1");
    assert_eq!(metric_names(&line), names("per_layer"), "{workload}");
    assert_eq!(value(&line, "vecexec.au_fallbacks"), 0.0, "{workload}");
    assert_eq!(value(&line, "failed_share"), 0.0, "{workload}");

    // Balanced spans: every E closes the innermost open B of the same name.
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.trace.json"));
    let trace = std::fs::read_to_string(&path).expect("the traced run wrote a trace");
    let mut open: Vec<&str> = Vec::new();
    let mut spans = 0;
    for event in trace.lines().filter(|l| l.starts_with("{\"name\"")) {
        let name = &event[10..];
        let name = &name[..name.find('"').expect("name ends")];
        if event.contains("\"ph\": \"B\"") {
            open.push(name);
            spans += 1;
        } else {
            assert!(event.contains("\"ph\": \"E\""), "{event}");
            assert_eq!(open.pop(), Some(name), "{workload}: unbalanced span");
        }
    }
    assert!(open.is_empty(), "{workload}: spans left open: {open:?}");
    assert!(spans > 20, "{workload}: only {spans} spans");
}

#[test]
fn scan_select() {
    check_workload("scan_select");
}

#[test]
fn join_heavy() {
    check_workload("join_heavy");
}

#[test]
fn agg_topk() {
    check_workload("agg_topk");
}

#[test]
fn negation() {
    check_workload("negation");
}

#[test]
fn short_mixed() {
    check_workload("short_mixed");
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let (ok, printed) = run(&["--print-benchmark-json"]);
    assert!(ok);
    assert_eq!(
        printed, BENCHMARK_JSON,
        "regenerate BENCHMARK.json with --print-benchmark-json"
    );
    let workloads = names("workloads");
    assert_eq!(workloads.len(), 5);
    for name in workloads
        .iter()
        .chain(&names("end_to_end"))
        .chain(&names("per_layer"))
    {
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name `{name}`"
        );
    }
    assert!(names("end_to_end").contains(&"setup_s".to_string()));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let (ok, stdout) = run(&["--workload", "no_such_workload"]);
    assert!(!ok);
    assert!(stdout.is_empty());
}
