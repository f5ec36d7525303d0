//! Runs the benchmark's `--quick` mode end to end and checks what it
//! prints and writes against `BENCHMARK.json`.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const QUICK_WORKLOADS: [&str; 2] = ["restaurants_quick", "service_quick"];

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn str_field<'v>(v: &'v Value, key: &str) -> &'v str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} should be a string, got {other:?}"),
    }
}

fn num_field(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::Num(n)) => *n,
        other => panic!("{key} should be a number, got {other:?}"),
    }
}

/// `(name, unit)` of every metric listed under `section`.
fn metrics(doc: &Value, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn quick_run_reports_every_metric_and_writes_nested_spans() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2e_quick_spans");
    let _ = std::fs::remove_dir_all(&dir);
    let out = bench()
        .arg("--quick")
        .arg("--trace-dir")
        .arg(&dir)
        .output()
        .expect("bench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "quick run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Every metric BENCHMARK.json names is printed, with its unit, for
    // each quick workload.
    let doc = benchmark_json();
    let mut expected = metrics(&doc, "end_to_end");
    expected.extend(metrics(&doc, "per_layer"));
    for w in QUICK_WORKLOADS {
        for (name, unit) in &expected {
            let printed = stdout.lines().any(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                f.len() == 7
                    && f[0] == w
                    && f[1] == name
                    && f[3] == unit
                    && f[2].parse::<f64>().is_ok()
            });
            assert!(printed, "{w} did not print {name} in {unit}:\n{stdout}");
        }
    }

    // Each workload ran untraced and traced, and every output check
    // (digest repeats, traced vs untraced, replays, tenants vs solo)
    // passed.
    let results: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str(l).expect("result line parses"))
        .collect();
    assert_eq!(results.len(), 2 * QUICK_WORKLOADS.len());
    for r in &results {
        assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{r:?}");
        assert!(num_field(r, "attempted") >= 1.0);
        assert_eq!(num_field(r, "failed"), 0.0);
    }

    // Spans nest inside their parents and self times are within
    // [0, duration].
    for w in QUICK_WORKLOADS {
        let text = std::fs::read_to_string(dir.join(format!("{w}.json"))).expect("span file");
        let doc: Value = serde_json::from_str(&text).expect("span file parses");
        let spans = doc
            .get("spans")
            .and_then(Value::as_arr)
            .expect("spans list");
        assert!(!spans.is_empty(), "{w} recorded no spans");
        for (id, s) in spans.iter().enumerate() {
            let (start, end) = (num_field(s, "start_ns"), num_field(s, "end_ns"));
            assert!(start <= end);
            let self_ns = num_field(s, "self_ns");
            assert!(
                (0.0..=end - start).contains(&self_ns),
                "{w} span {id} self time {self_ns}"
            );
            if let Some(Value::Num(p)) = s.get("parent") {
                let p = *p as usize;
                assert!(p < id, "{w} span {id} has a later parent");
                let parent = &spans[p];
                assert!(
                    num_field(parent, "start_ns") <= start && end <= num_field(parent, "end_ns")
                );
                assert_eq!(str_field(parent, "run"), str_field(s, "run"));
            }
        }
        let names: Vec<&str> = spans.iter().map(|s| str_field(s, "name")).collect();
        for layer in [
            "run",
            "analysis.build",
            "engine.start",
            "engine.step",
            "engine.finish",
            "replay.blocker",
            "replay.source.generate",
            "replay.candidates.build",
            "store.read",
            "store.write",
        ] {
            assert!(names.contains(&layer), "{w} has no {layer} span");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_workload_exits_2_and_lists_the_valid_ones() {
    let out = bench()
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("bench runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let doc = benchmark_json();
    let listed = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads list");
    assert!(listed.len() >= 2);
    for w in listed {
        let name = str_field(w, "name");
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
    for name in QUICK_WORKLOADS {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}

#[test]
fn bad_flags_exit_2() {
    for args in [
        &["--trace", "2"][..],
        &["--seconds", "-1"],
        &["--bogus", "1"],
        &["--seed"],
    ] {
        let out = bench().args(args).output().expect("bench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
