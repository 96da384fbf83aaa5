//! `compare A B`: two result files, or two directories of them, judged
//! metric by metric against the bounds this benchmark fixes.

use crate::json::{parse, Json};
use crate::metrics::{Better, END_TO_END, PER_LAYER, RMS_DEV_SLACK};
use crate::stats::{quartiles, spread};
use crate::workload::WORKLOADS;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug)]
struct RunFile {
    workload: String,
    traced: bool,
    seed: u64,
    metrics: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

fn parse_run(text: &str) -> Option<RunFile> {
    let doc = parse(text).ok()?;
    let fields = |key: &str| match doc.get(key) {
        Some(Json::Obj(m)) => Some(m),
        _ => None,
    };
    let metrics = fields("metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let samples = fields("samples")
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| {
                    Some((k.clone(), v.as_array()?.iter().filter_map(Json::as_f64).collect()))
                })
                .collect()
        })
        .unwrap_or_default();
    Some(RunFile {
        workload: doc.get("workload")?.as_str()?.to_string(),
        traced: doc.get("trace")?.as_f64()? != 0.0,
        seed: doc.get("seed")?.as_f64()? as u64,
        metrics,
        samples,
    })
}

/// The result files at `path`: the file itself, or every `*.json` in the
/// directory that is a result file (Chrome traces are skipped).
fn load(path: &Path) -> Result<Vec<RunFile>, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    if !path.is_dir() {
        return parse_run(&read(path)?)
            .map(|r| vec![r])
            .ok_or_else(|| format!("{}: not a result file", path.display()));
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs = Vec::new();
    for f in files {
        runs.extend(parse_run(&read(&f)?));
    }
    if runs.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    Ok(runs)
}

fn side<'a>(runs: &'a [RunFile], workload: &str, traced: bool) -> Vec<&'a RunFile> {
    runs.iter().filter(|r| r.workload == workload && r.traced == traced).collect()
}

/// One value per run.
fn values(runs: &[&RunFile], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.metrics.get(metric).copied()).collect()
}

/// Run-to-run spread of `metric`; from a single run, the spread of the
/// samples behind its value, which is the only noise estimate there is.
fn noise(runs: &[&RunFile], metric: &str) -> f64 {
    match runs {
        [only] => only.samples.get(metric).map_or(0.0, |s| spread(s)),
        _ => spread(&values(runs, metric)),
    }
}

/// Values of `metric` on both sides for every seed both sides ran.
fn paired(a: &[&RunFile], b: &[&RunFile], metric: &str) -> Vec<(f64, f64)> {
    a.iter()
        .filter_map(|ra| {
            let rb = b.iter().find(|rb| rb.seed == ra.seed)?;
            Some((*ra.metrics.get(metric)?, *rb.metrics.get(metric)?))
        })
        .collect()
}

/// `a` and `b` are the sides' medians, `noise` the wider of their spreads.
pub fn verdict(better: Better, bound: f64, a: f64, b: f64, noise: f64) -> &'static str {
    let worse = match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => a / b - 1.0,
    };
    if worse > bound.max(noise) {
        "regression"
    } else if noise > bound {
        "unresolved"
    } else {
        "within bound"
    }
}

/// Prints the comparison; `Ok(true)` when every row is within its bound and
/// every exact count equal.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let mut clean = true;
    println!("base A = {}, B = {}; ratio = B / A", a.display(), b.display());
    println!(
        "{:<15} {:<13} {:>36} {:>36} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "ratio"
    );
    for w in &WORKLOADS {
        let (ea, eb) = (side(&runs_a, w.name, false), side(&runs_b, w.name, false));
        for m in &END_TO_END {
            let (va, vb) = (values(&ea, m.name), values(&eb, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (med_a, med_b) = (quartiles(&va)[1], quartiles(&vb)[1]);
            let v = if m.name == "rms_dev" {
                // Deterministic and the same for every seed: judged absolutely.
                if med_b <= med_a + RMS_DEV_SLACK {
                    "within bound"
                } else {
                    "regression"
                }
            } else {
                let noise = noise(&ea, m.name).max(noise(&eb, m.name));
                verdict(m.better, m.bound, med_a, med_b, noise)
            };
            clean &= v == "within bound";
            let num = |x: f64| if x.abs() < 1e-3 { format!("{x:.3e}") } else { format!("{x:.6}") };
            let show = |v: &[f64]| {
                let [q1, q2, q3] = quartiles(v).map(num);
                format!("{q2} [{q1}, {q3}] ({})", v.len())
            };
            println!(
                "{:<15} {:<13} {:>36} {:>36} {:>8.4}  {v}",
                w.name,
                m.name,
                show(&va),
                show(&vb),
                med_b / med_a
            );
        }
        let (ta, tb) = (side(&runs_a, w.name, true), side(&runs_b, w.name, true));
        let (mut counts, mut differing) = (0, 0);
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            for (x, y) in paired(&ta, &tb, m.name) {
                counts += 1;
                if x != y {
                    differing += 1;
                    println!("{:<15} {:<28} A {x} B {y}  differs", w.name, m.name);
                }
            }
        }
        if counts > 0 {
            println!("{:<15} {counts} exact counts compared, {differing} differ", w.name);
        }
        clean &= differing == 0;
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(verdict(Better::Lower, 0.1, 1.0, 1.05, 0.02), "within bound");
        assert_eq!(verdict(Better::Lower, 0.1, 1.0, 1.2, 0.02), "regression");
        assert_eq!(verdict(Better::Lower, 0.1, 1.2, 1.0, 0.02), "within bound");
        assert_eq!(verdict(Better::Higher, 0.1, 1.2, 1.0, 0.02), "regression");
        assert_eq!(verdict(Better::Lower, 0.1, 1.0, 1.05, 0.3), "unresolved");
        // Slower by less than the noise is not yet a regression.
        assert_eq!(verdict(Better::Lower, 0.1, 1.0, 1.2, 0.3), "unresolved");
        assert_eq!(verdict(Better::Lower, 0.1, 1.0, 1.5, 0.3), "regression");
    }

    #[test]
    fn result_files_parse_and_traces_do_not() {
        let run = r#"{"workload":"grid_serial","trace":0,"seed":7,
            "metrics":{"pass_s":{"value":0.2,"unit":"s"}},"samples":{"pass_s":[0.2,0.3,0.4]}}"#;
        let r = parse_run(run).unwrap();
        assert_eq!((r.workload.as_str(), r.traced, r.seed), ("grid_serial", false, 7));
        assert_eq!(values(&[&r], "pass_s"), [0.2]);
        assert!(noise(&[&r], "pass_s") > 0.5);
        assert_eq!(noise(&[&r, &r], "pass_s"), 0.0);
        assert!(parse_run(r#"{"traceEvents":[]}"#).is_none());
    }
}
