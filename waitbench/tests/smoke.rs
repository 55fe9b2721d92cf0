//! The benchmark's own tests: every workload once at a tiny size, the
//! metric list against `BENCHMARK.json`, and the output checks' teeth.
//! Run with `cargo test --release --manifest-path waitbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::{Command, Output};

use muse_obs::Json;

/// Every workload the command runs.
const WORKLOADS: [&str; 3] = ["offline-paper", "serve-long", "serve-fleet"];
/// The workloads `BENCHMARK.json` lists.
const JUDGED: [&str; 2] = ["offline-paper", "serve-long"];

fn repo_file(name: &str) -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn benchmark() -> Json {
    repo_file("../BENCHMARK.json")
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_muse-waitbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark")
}

/// Run one tiny pass; return stdout and the parsed result line.
fn tiny(workload: &str, trace: &str, extra: &[&str]) -> (String, Json) {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "2",
        "--trace",
        trace,
        "--tiny",
    ];
    args.extend_from_slice(extra);
    let out = bench(&args);
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line").to_owned();
    let result = Json::parse(&last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    (stdout, result)
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(key: &str) -> Vec<(String, String)> {
    benchmark()
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Every declared metric is in the result line with its unit, and in the
/// printed table with its unit; no other metric is in the result line.
fn assert_metrics(workload: &str, stdout: &str, result: &Json, want: &[(String, String)]) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    assert_eq!(metrics.len(), want.len(), "{workload}: metric count");
    for (name, unit) in want {
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        assert!(
            stdout.lines().any(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols.first() == Some(&name.as_str()) && cols.get(2) == Some(&unit.as_str())
            }),
            "{workload}: {name} not printed with its unit"
        );
    }
    let attempted = result.get("attempted").and_then(Json::as_int).unwrap_or(0);
    assert!(attempted >= 1, "{workload}: nothing attempted");
    assert_eq!(result.get("failed").and_then(Json::as_int), Some(0));
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
}

#[test]
fn benchmark_json_parses_and_round_trips() {
    let b = benchmark();
    let again = Json::parse(&b.render()).expect("rendered JSON parses");
    assert_eq!(again, b);
    let Json::Obj(fields) = &b else {
        panic!("BENCHMARK.json is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, JUDGED);
    for m in b
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.render());
    }
    assert!(declared("end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn workload_record_names_every_workload() {
    let record = repo_file("workloads.json");
    let names: Vec<&str> = record
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
    let judged: Vec<&str> = record
        .get("in_benchmark_json")
        .and_then(Json::as_arr)
        .expect("in_benchmark_json")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(judged, JUDGED);
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    let want = declared("end_to_end");
    for w in WORKLOADS {
        let (stdout, result) = tiny(w, "0", &[]);
        assert_metrics(w, &stdout, &result, &want);
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    let want = declared("per_layer");
    for w in WORKLOADS {
        let (stdout, result) = tiny(w, "1", &[]);
        assert_metrics(w, &stdout, &result, &want);
    }
}

#[test]
fn a_wrong_reference_report_is_a_failure() {
    let (_, result) = tiny("serve-long", "0", &["--wrong-reference"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(result.get("failed").and_then(Json::as_int).unwrap_or(0) >= 1);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = bench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
