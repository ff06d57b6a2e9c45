//! The harness's self-test: `run.sh --quick` must produce every workload
//! and every metric `BENCHMARK.json` names, finite, with no failed
//! operation — end to end and traced — so the harness cannot rot
//! silently. It builds `pll` and the harness in release mode through
//! `run.sh`, exactly as the driver does, and takes about a minute.

use pll_benchmark::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn names(bench: &Json, list: &str) -> Vec<String> {
    bench
        .get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

/// Runs `run.sh --quick` with `extra` arguments and returns the parsed
/// result line.
fn run_quick(root: &Path, extra: &[&str]) -> Json {
    let out = Command::new("bash")
        .arg(root.join("benchmark/run.sh"))
        .args(["--quick", "--seed", "7"])
        .args(extra)
        .current_dir(root)
        // The harness under test is the release build run.sh makes, not
        // this test binary's debug profile.
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("bash runs");
    assert!(
        out.status.success(),
        "run.sh {extra:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

fn assert_result(result: &Json, expected: &[String], what: &str) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_f64) >= Some(1.0),
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object");
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(String::as_str).collect();
    assert_eq!(got, want, "{what}: metric names and order");
    for (name, m) in metrics {
        let v = m.get("value").and_then(Json::as_f64);
        assert!(
            v.is_some_and(f64::is_finite),
            "{what}: {name} is not a finite number: {m:?}"
        );
        assert!(
            m.get("unit").and_then(Json::as_str).is_some(),
            "{what}: {name}"
        );
    }
}

#[test]
fn quick_run_reports_every_workload_and_metric() {
    let root = repo_root();
    let bench = Json::read_file(&root.join("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let end_to_end = names(&bench, "end_to_end");
    let per_layer = names(&bench, "per_layer");
    let workloads = names(&bench, "workloads");
    assert_eq!(workloads.len(), 5);
    // A run without `--seconds` must be comparable with the driver's.
    assert_eq!(
        bench.get("run_seconds").and_then(Json::as_f64),
        Some(pll_benchmark::frozen::RUN_SECONDS),
        "frozen::RUN_SECONDS is BENCHMARK.json's run_seconds"
    );

    // Every run walks every stage: the record must hold each workload
    // with its own metrics, nothing failed.
    let result = run_quick(&root, &["--workload", "all"]);
    assert_result(&result, &end_to_end, "--workload all");
    let record = Json::read_file(&root.join("benchmark/out/record-all-7.json")).expect("record");
    let stages = record.get("stages").expect("stages");
    let mut seen = Vec::new();
    for workload in &workloads {
        let stage = stages
            .get(workload)
            .unwrap_or_else(|| panic!("record lacks workload {workload}"));
        assert_eq!(
            stage.get("ops_failed").and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
        assert!(
            stage.get("ops_attempted").and_then(Json::as_f64) > Some(0.0),
            "{workload}"
        );
        for (name, m) in stage
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics")
        {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{workload}: {name}"
            );
            seen.push(name.clone());
        }
    }
    for name in &end_to_end {
        assert!(seen.contains(name), "no workload reported {name}");
    }
    for key in [
        "nproc",
        "cpu_model",
        "kernel_release",
        "rustc",
        "git_rev",
        "kernel",
        "T",
        "W",
        "floor",
    ] {
        assert!(
            record.get("fingerprint").and_then(|f| f.get(key)).is_some(),
            "fingerprint lacks {key}"
        );
    }

    // The driver's form: one named workload, every metric on one line.
    let result = run_quick(&root, &["--workload", "serve_batch", "--trace", "0"]);
    assert_result(&result, &end_to_end, "--workload serve_batch");

    // The traced run: every per-layer metric.
    let result = run_quick(&root, &["--workload", "update_mix", "--trace", "1"]);
    assert_result(&result, &per_layer, "--trace 1");
    let spans = std::fs::read_to_string(root.join("benchmark/out/trace-update_mix.jsonl"))
        .expect("span file");
    let first = Json::parse(spans.lines().next().expect("at least one span")).expect("span JSON");
    for key in ["layer", "start_ns", "end_ns", "parent", "request"] {
        assert!(first.get(key).is_some(), "span lacks {key}");
    }

    // A record compared with itself is within every bound.
    let record = root.join("benchmark/out/record-all-7.json");
    let out = Command::new(root.join("target/release/pll-benchmark"))
        .arg("--compare")
        .args([&record, &record])
        .arg("--bench-json")
        .arg(root.join("BENCHMARK.json"))
        .output()
        .expect("pll-benchmark runs");
    assert!(
        out.status.success(),
        "--compare of a record with itself:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
