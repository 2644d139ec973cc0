//! Runs every workload once at `tiny`, untraced and traced, and checks
//! that the result line carries exactly the metrics `BENCHMARK.json`
//! declares, each with its unit, and that every correctness gate held.

use perfbench::json::Json;
use std::process::Command;

fn load(rel: &str) -> Json {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn benchmark() -> Json {
    load("../BENCHMARK.json")
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark()
        .get(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn names(section: &str) -> Vec<String> {
    benchmark()
        .get(section)
        .and_then(Json::as_array)
        .expect("list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("result line is JSON")
}

fn check(workload: &str, trace: bool) {
    let result = run(workload, trace);
    let Json::Obj(top) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(matches!(result.get("attempted"), Some(Json::Int(n)) if *n >= 1));
    assert_eq!(result.get("failed"), Some(&Json::Int(0)));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some(), "{workload}: {name} has no numeric value");
            if !trace {
                assert!(value.unwrap() > 0.0, "{workload}: {name} must not be 0");
            }
            (name.clone(), unit.to_string())
        })
        .collect();
    let mut want_sorted = want.clone();
    want_sorted.sort();
    let mut got_sorted = got;
    got_sorted.sort();
    assert_eq!(got_sorted, want_sorted, "{workload} trace={trace}");
}

#[test]
fn warm_tight_emits_every_metric() {
    check("warm-tight", false);
    check("warm-tight", true);
}

#[test]
fn warm_loose_emits_every_metric() {
    check("warm-loose", false);
    check("warm-loose", true);
}

#[test]
fn cold_tune_emits_every_metric() {
    check("cold-tune", false);
    check("cold-tune", true);
}

#[test]
fn daemon_emits_every_metric() {
    check("daemon", false);
    check("daemon", true);
}

#[test]
fn declared_workloads_are_the_ones_run() {
    let declared = names("workloads");
    let runnable: Vec<String> = perfbench::inputs::Workload::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(declared, runnable);
}

#[test]
fn layer_map_covers_every_workload_and_layer_metric() {
    let map = load("layer_map.json");
    for w in names("workloads") {
        assert!(
            map.get("workloads").and_then(|m| m.get(&w)).is_some(),
            "layer_map.json lacks workload {w}"
        );
    }
    for m in names("per_layer") {
        let entry = map.get("per_layer").and_then(|l| l.get(&m));
        let entry = entry.unwrap_or_else(|| panic!("layer_map.json lacks {m}"));
        for key in ["layer", "moves", "on", "flat_on"] {
            assert!(entry.get(key).is_some(), "{m} lacks {key}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nonesuch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
