//! Runs the whole benchmark in `--quick` mode and checks what it writes.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use wavepipe_benchmark::json::{parse, Json};
use wavepipe_benchmark::metrics::{END_TO_END, PER_LAYER};
use wavepipe_benchmark::workload::WORKLOADS;

const BIN: &str = env!("CARGO_BIN_EXE_wavepipe-benchmark");

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn keys(value: Option<&Json>) -> BTreeSet<String> {
    match value {
        Some(Json::Obj(m)) => m.keys().cloned().collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

/// What the benchmark should have recorded as `git_head`: the commit of the
/// repository this package sits in, or "unknown" outside one.
fn git_head() -> String {
    Command::new("git")
        .arg("-C")
        .arg(env!("CARGO_MANIFEST_DIR"))
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

#[test]
fn quick_run_prints_every_metric_and_a_well_formed_trace() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(BIN)
        .args(["all", "--quick", "--seed", "1", "--out-dir"])
        .arg(&dir)
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "a quick run failed: {}", String::from_utf8_lossy(&out.stderr));

    let e2e: BTreeSet<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    let layers: BTreeSet<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    for name in e2e.iter().chain(&layers) {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(!name.is_empty() && name.len() <= 64 && name.chars().all(ok), "bad name {name}");
    }
    for w in &WORKLOADS {
        for (kind, expected) in [("e2e", &e2e), ("layers", &layers)] {
            let run = read_json(&dir.join(format!("{}.{kind}.json", w.name)));
            assert_eq!(&keys(run.get("metrics")), expected, "{} {kind}", w.name);
            assert_eq!(run.get("correct").and_then(Json::as_bool), Some(true), "{} {kind}", w.name);
            assert_eq!(run.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(run.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            for key in ["seed", "nproc", "threads", "rustc"] {
                assert!(run.get(key).is_some(), "{} {kind} lacks {key}", w.name);
            }
            let head = run.get("git_head").and_then(Json::as_str).expect("git_head");
            assert_eq!(head, git_head(), "{} {kind}", w.name);
            assert!(
                head == "unknown"
                    || (head.len() == 40 && head.chars().all(|c| c.is_ascii_hexdigit())),
                "git_head {head}"
            );
        }

        // The trace parses, every span's parent exists, and the spans nest
        // as pass -> job -> {circuit.generate, mna.compile, dcop, run}.
        let trace = read_json(&dir.join(format!("{}.chrome.json", w.name)));
        let events = trace.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
        let arg = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_f64);
        let name_of = |id: f64| events[id as usize].get("name").and_then(Json::as_str).unwrap();
        let mut leaves = BTreeSet::new();
        for (i, e) in events.iter().enumerate() {
            assert_eq!(arg(e, "id"), Some(i as f64));
            assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
            let name = e.get("name").and_then(Json::as_str).unwrap();
            match arg(e, "parent") {
                None => assert!(["pass", "probes"].contains(&name), "{name} has no parent"),
                Some(p) => {
                    assert!(p < i as f64, "{name}: parent {p} does not precede span {i}");
                    match name_of(p) {
                        "pass" => assert_eq!(name, "job"),
                        "job" => {
                            leaves.insert(name.to_string());
                        }
                        "probes" => assert!(name.starts_with("probe."), "{name} under probes"),
                        other => panic!("{name} under {other}"),
                    }
                }
            }
        }
        let expected = ["circuit.generate", "dcop", "mna.compile", "run"].map(String::from);
        assert_eq!(leaves, BTreeSet::from(expected), "{}", w.name);
    }

    // A set compared with itself: one row per workload and end-to-end
    // metric, none of them a regression. (Three quick passes can be too
    // noisy to resolve, so "unresolved" is allowed here.)
    let out = Command::new(BIN).arg("compare").arg(&dir).arg(&dir).output().expect("compare runs");
    let table = String::from_utf8(out.stdout).unwrap();
    let rows = table.lines().filter(|l| l.ends_with("within bound") || l.ends_with("unresolved"));
    assert_eq!(rows.count(), WORKLOADS.len() * END_TO_END.len(), "{table}");
    assert!(!table.contains("regression") && !table.contains("differs"), "{table}");
}

#[test]
fn result_line_carries_the_listed_metrics_only() {
    for (trace, expected) in [
        ("0", END_TO_END.iter().filter(|m| m.gated).map(|m| m.name.to_string()).collect()),
        ("1", PER_LAYER.iter().map(|m| m.name.to_string()).collect::<BTreeSet<_>>()),
    ] {
        let out = Command::new(BIN)
            .args(["--workload", "grid_bp2", "--quick", "--trace", trace])
            .output()
            .expect("the benchmark binary runs");
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let result = parse(stdout.lines().last().unwrap()).expect("the last line is JSON");
        let top = ["attempted", "correct", "failed", "metrics"].map(String::from);
        assert_eq!(keys(Some(&result)), BTreeSet::from(top));
        assert_eq!(keys(result.get("metrics")), expected, "trace {trace}");
    }
}

#[test]
fn refuses_wavepipe_environment_knobs() {
    let out = Command::new(BIN)
        .args(["--workload", "grid_serial", "--quick"])
        .env("WAVEPIPE_SOLVER", "gmres")
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("WAVEPIPE_SOLVER"));
    assert!(out.stdout.is_empty(), "a refused run must print no result");
}

#[test]
fn benchmark_json_lists_what_the_program_defines() {
    let manifest = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let described = wavepipe_benchmark::describe();
    for key in ["workloads", "end_to_end", "per_layer"] {
        assert_eq!(manifest.get(key), described.get(key), "BENCHMARK.json disagrees on {key}");
    }
    assert_eq!(manifest.get("paths"), Some(&Json::Arr(vec![Json::Str("benchmark".into())])));
    let expected = ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"];
    assert_eq!(keys(Some(&manifest)), BTreeSet::from(expected.map(String::from)));
}
