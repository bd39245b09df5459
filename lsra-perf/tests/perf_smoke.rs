//! Runs every workload at smoke-test size, untraced and traced, and checks
//! the output against `BENCHMARK.json`: every listed metric is reported, the
//! trace file is valid JSON, and the spans account for the traced wall time.
//! `spec-native` runs generated code; on a host that cannot map executable
//! pages it is skipped (and announced), and a test checks it then fails
//! without a result.

use std::path::{Path, PathBuf};
use std::process::Command;

use lsra_server::json_in::{self, JsonValue};

fn benchmark() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json_in::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(doc: &JsonValue, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("list")
        .iter()
        .map(|m| m.get("name").and_then(JsonValue::as_str).expect("name").to_string())
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the benchmark with `args` plus smoke-test sizes; returns stdout.
fn run(args: &[&str], out: &Path) -> String {
    let o = Command::new(env!("CARGO_BIN_EXE_lsra-perf"))
        .args(args)
        .args(["--seed", "7", "--seconds", "1", "--tiny", "--out"])
        .arg(out.join("results.jsonl"))
        .output()
        .expect("run lsra-perf");
    let stdout = String::from_utf8_lossy(&o.stdout).to_string();
    assert!(
        o.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&o.stderr)
    );
    stdout
}

fn result_lines(stdout: &str) -> Vec<JsonValue> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| json_in::parse(l).expect("result line parses"))
        .collect()
}

fn metric_names(result: &JsonValue) -> Vec<String> {
    match result.get("metrics") {
        Some(JsonValue::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("result without metrics"),
    }
}

/// The workloads this host can run.
fn runnable(doc: &JsonValue) -> Vec<String> {
    let mut workloads = names(doc, "workloads");
    if !lsra_jit::jit_supported() {
        eprintln!("skipping spec-native: this host cannot map executable pages");
        workloads.retain(|w| w != "spec-native");
    }
    workloads
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let doc = benchmark();
    let dir = out_dir("untraced");
    let workloads = runnable(&doc);
    let stdout = if workloads.len() == names(&doc, "workloads").len() {
        // No `--workload`: every workload runs in a child process.
        run(&["--trace", "0"], &dir)
    } else {
        workloads.iter().map(|w| run(&["--workload", w, "--trace", "0"], &dir)).collect()
    };
    let results = result_lines(&stdout);
    assert_eq!(results.len(), workloads.len(), "{stdout}");
    for r in &results {
        assert_eq!(r.get("correct").and_then(JsonValue::as_bool), Some(true), "{stdout}");
        assert_eq!(metric_names(r), names(&doc, "end_to_end"));
    }
    let records = std::fs::read_to_string(dir.join("results.jsonl")).unwrap();
    assert_eq!(records.lines().count(), results.len());
    for line in records.lines() {
        let rec = json_in::parse(line).expect("record parses");
        for key in ["git_rev", "git_dirty", "nproc", "seed", "jit_supported"] {
            assert!(rec.get(key).is_some(), "record lacks {key}: {line}");
        }
    }
}

#[test]
fn traced_runs_report_layers_and_write_valid_traces() {
    let doc = benchmark();
    let dir = out_dir("traced");
    for workload in runnable(&doc) {
        let stdout = run(&["--workload", &workload, "--trace", "1"], &dir);
        let results = result_lines(&stdout);
        assert_eq!(results.len(), 1, "{stdout}");
        assert_eq!(metric_names(&results[0]), names(&doc, "per_layer"), "{workload}");
        let trace = std::fs::read_to_string(dir.join(format!("trace-{workload}-7.json")))
            .expect("trace file written");
        lsra_trace::json::validate(&trace).unwrap_or_else(|e| panic!("{workload}: {e}"));
        let coverage = results[0]
            .get("metrics")
            .and_then(|m| m.get("trace.span_coverage"))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!(coverage >= 0.9, "{workload}: spans cover only {coverage} of the wall time");
    }
}

#[test]
fn spec_native_fails_loudly_without_executable_pages() {
    let dir = out_dir("no-jit");
    let o = Command::new(env!("CARGO_BIN_EXE_lsra-perf"))
        .args(["--workload", "spec-native", "--seed", "7", "--seconds", "1", "--tiny", "--out"])
        .arg(dir.join("results.jsonl"))
        .env("LSRA_JIT_DISABLE", "1")
        .output()
        .expect("run lsra-perf");
    assert_eq!(o.status.code(), Some(2));
    assert!(o.stdout.is_empty(), "{}", String::from_utf8_lossy(&o.stdout));
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(stderr.contains("executable pages"), "{stderr}");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [&["--workload", "nonesuch"][..], &["--trace", "2"], &["--seconds"]] {
        let o = Command::new(env!("CARGO_BIN_EXE_lsra-perf")).args(args).output().unwrap();
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(o.stdout.is_empty(), "{args:?}");
    }
}
