//! CI performance-regression gate over the committed bench baselines.
//!
//! The bench binaries emit `BENCH_*.json` documents; the committed copies at
//! the repo root are the baseline. The gate re-runs the benches, extracts
//! the *ratio-type* metrics (speedups — wall-millisecond columns vary with
//! host load, but a speedup is a same-host ratio and stays comparable), and
//! fails when any drops below `1 - tolerance` of its baseline. Improvements
//! never fail the gate; they only show up in the delta table as candidates
//! for a baseline refresh.
//!
//! [`MANIFEST`] is the single list of gated documents: one row per
//! `BENCH_*.json` drives both the `perf-gate` command line and the gate
//! itself, so gating a new document is a one-row change.

use std::fmt::Write as _;
use wavepipe_telemetry::json::{self, JsonValue};

/// Default relative tolerance: a metric may lose up to 15% before failing.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// Extracted `(key, value)` metrics of one document.
pub type Metrics = Vec<(String, f64)>;

/// One gated bench document.
#[derive(Debug, Clone, Copy)]
pub struct Source {
    /// Flag stem: `perf-gate --<stem>-baseline <file> --<stem>-fresh <file>`.
    pub stem: &'static str,
    /// The committed document's name at the repo root (prefixes errors).
    pub file: &'static str,
    /// Pulls the ratio-type metrics out of the parsed document.
    pub extract: fn(&JsonValue) -> Result<Metrics, String>,
    /// Relative loss a metric of this document may take before failing.
    pub tolerance: f64,
}

/// Every gated document, in delta-table order.
pub const MANIFEST: &[Source] = &[
    Source {
        stem: "newton",
        file: "BENCH_newton.json",
        extract: newton_metrics,
        tolerance: DEFAULT_TOLERANCE,
    },
    Source {
        stem: "sweep",
        file: "BENCH_sweep.json",
        extract: sweep_metrics,
        tolerance: DEFAULT_TOLERANCE,
    },
    Source {
        stem: "solver",
        file: "BENCH_solver.json",
        extract: solver_metrics,
        tolerance: DEFAULT_TOLERANCE,
    },
];

impl Source {
    /// Parses `doc` and extracts this document's metrics.
    ///
    /// # Errors
    ///
    /// Returns a message naming the file when the document does not parse
    /// or lacks the expected fields.
    pub fn metrics(&self, doc: &str) -> Result<Metrics, String> {
        json::parse(doc)
            .map_err(|e| e.to_string())
            .and_then(|v| (self.extract)(&v))
            .map_err(|e| format!("{}: {e}", self.file))
    }
}

/// One comparable metric extracted from a bench JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable identifier, e.g. `newton/inverter_chain(120)/speedup`.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Relative loss allowed before the metric fails.
    pub tolerance: f64,
}

impl Metric {
    /// Relative change, `fresh / baseline - 1` (negative = regression).
    pub fn delta(&self) -> f64 {
        if self.baseline == 0.0 {
            return 0.0;
        }
        self.fresh / self.baseline - 1.0
    }

    /// Whether this metric regressed beyond its tolerance.
    pub fn failed(&self) -> bool {
        self.delta() < -self.tolerance
    }
}

fn rows(doc: &JsonValue) -> Result<&[JsonValue], String> {
    doc.as_array().ok_or_else(|| "expected a top-level array".to_string())
}

fn text<'a>(row: &'a JsonValue, field: &str) -> Result<&'a str, String> {
    row.get(field).and_then(JsonValue::as_str).ok_or_else(|| format!("row without {field}"))
}

fn num(row: &JsonValue, who: &str, field: &str) -> Result<f64, String> {
    row.get(field).and_then(JsonValue::as_f64).ok_or_else(|| format!("{who} lacks {field}"))
}

/// `BENCH_newton.json` (an array of per-circuit rows): the caches-on
/// speedup of every circuit.
fn newton_metrics(doc: &JsonValue) -> Result<Metrics, String> {
    let mut out = Vec::new();
    for row in rows(doc)? {
        let name = text(row, "name")?;
        out.push((format!("newton/{name}/speedup"), num(row, name, "speedup")?));
    }
    Ok(out)
}

/// `BENCH_sweep.json` (an array of per-configuration rows): the real
/// single-core work ratio. Its `measured_speedup` is a multi-thread wall
/// ratio, which a shared runner does not hold steady enough to gate.
fn sweep_metrics(doc: &JsonValue) -> Result<Metrics, String> {
    let mut out = Vec::new();
    for row in rows(doc)? {
        let circuit = text(row, "circuit")?;
        out.push((format!("sweep/{circuit}/work_ratio"), num(row, circuit, "work_ratio")?));
    }
    Ok(out)
}

/// `BENCH_solver.json` (an array of per-grid-size rows from the
/// `solver_bakeoff` binary): GMRES against what a transient run pays per
/// linearization — `gmres_vs_refactor`, `(refactor_us + solve_us) /
/// gmres_us` — for rows of 64 unknowns and up (the sub-64 rows time
/// single-digit-microsecond solves, which is noise, not signal). The ratio
/// against a *fresh* factorization, `gmres_speedup`, is not gated: a run
/// factors afresh once per hundreds of refactorizations, and that column
/// falls whenever the ordering gets cheaper.
fn solver_metrics(doc: &JsonValue) -> Result<Metrics, String> {
    let mut out = Vec::new();
    for row in rows(doc)? {
        let circuit = text(row, "circuit")?;
        let unknowns = num(row, circuit, "unknowns")?;
        let vs_refactor = num(row, circuit, "gmres_vs_refactor")?;
        if unknowns >= 64.0 {
            out.push((format!("solver/{circuit}/gmres_vs_refactor"), vs_refactor));
        }
    }
    Ok(out)
}

/// Pairs baseline and fresh metric lists by key. Keys present on only one
/// side are reported (a renamed circuit must fail loudly, not vanish).
///
/// # Errors
///
/// Returns a message listing unmatched keys.
pub fn pair(
    baseline: &[(String, f64)],
    fresh: &[(String, f64)],
    tolerance: f64,
) -> Result<Vec<Metric>, String> {
    let fresh_map: std::collections::BTreeMap<&str, f64> =
        fresh.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let base_keys: std::collections::BTreeSet<&str> =
        baseline.iter().map(|(k, _)| k.as_str()).collect();
    let mut missing: Vec<&str> = Vec::new();
    let mut out = Vec::new();
    for (key, b) in baseline {
        match fresh_map.get(key.as_str()) {
            Some(&f) => out.push(Metric { key: key.clone(), baseline: *b, fresh: f, tolerance }),
            None => missing.push(key),
        }
    }
    let extra: Vec<&str> =
        fresh.iter().map(|(k, _)| k.as_str()).filter(|k| !base_keys.contains(k)).collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Err(format!(
            "metric sets diverge — missing from fresh run: {missing:?}; \
             not in baseline: {extra:?} (refresh the committed BENCH_*.json)"
        ));
    }
    Ok(out)
}

/// The gate verdict: every compared metric, renderable as a delta table.
#[derive(Debug)]
pub struct GateReport {
    /// All compared metrics.
    pub metrics: Vec<Metric>,
}

impl GateReport {
    /// The metrics that regressed beyond their tolerance.
    pub fn failures(&self) -> Vec<&Metric> {
        self.metrics.iter().filter(|m| m.failed()).collect()
    }

    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// Human-readable delta table, worst regression first.
    pub fn table(&self) -> String {
        let mut rows: Vec<&Metric> = self.metrics.iter().collect();
        rows.sort_by(|a, b| a.delta().partial_cmp(&b.delta()).unwrap_or(std::cmp::Ordering::Equal));
        let width = rows.iter().map(|m| m.key.len()).max().unwrap_or(6).max(6);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf gate: {} metrics, {} regressed",
            self.metrics.len(),
            self.failures().len()
        );
        let _ = writeln!(
            out,
            "  {:<width$}  {:>9}  {:>9}  {:>8}  {:>5}  verdict",
            "metric", "base", "fresh", "delta", "tol"
        );
        for m in rows {
            let verdict = if m.failed() {
                "FAIL"
            } else if m.delta() >= 0.0 {
                "ok +"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "  {:<width$}  {:>9.3}  {:>9.3}  {:>7.1}%  {:>4.0}%  {}",
                m.key,
                m.baseline,
                m.fresh,
                m.delta() * 100.0,
                -m.tolerance * 100.0,
                verdict
            );
        }
        out
    }
}

/// Runs the gate: `docs[i]` is the `(baseline, fresh)` document pair of
/// `manifest[i]`; `tolerance` overrides every row's own when given.
///
/// # Errors
///
/// Returns a message when a document is malformed or the metric sets
/// diverge — both are gate failures distinct from a perf regression.
pub fn gate(
    manifest: &[Source],
    docs: &[(String, String)],
    tolerance: Option<f64>,
) -> Result<GateReport, String> {
    assert_eq!(manifest.len(), docs.len(), "one document pair per manifest row");
    let mut metrics = Vec::new();
    for (source, (baseline, fresh)) in manifest.iter().zip(docs) {
        let tol = tolerance.unwrap_or(source.tolerance);
        metrics.extend(pair(&source.metrics(baseline)?, &source.metrics(fresh)?, tol)?);
    }
    Ok(GateReport { metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEWTON: &str = r#"[
      {"name":"a","speedup":1.6,"off_ms":10.0,"on_ms":6.0},
      {"name":"b","speedup":1.3,"off_ms":20.0,"on_ms":15.0}
    ]"#;
    const SWEEP: &str = r#"[
      {"circuit":"c","instances":100,"threads":2,"independent_ms":500.0,
       "batched_cpu_ms":450.0,"work_ratio":1.11,"measured_speedup":1.9}
    ]"#;
    const SOLVER: &str = r#"[
      {"circuit":"power_grid(4,4)","unknowns":16,"nnz":64,
       "mindeg_fill_nnz":100,
       "direct_us":6.0,"refactor_us":0.4,"solve_us":0.2,"gmres_us":8.0,
       "gmres_iterations":12,"gmres_speedup":0.75,"gmres_vs_refactor":0.075,
       "crossover":false},
      {"circuit":"power_grid(16,16)","unknowns":256,"nnz":1216,
       "mindeg_fill_nnz":4102,
       "direct_us":610.0,"refactor_us":23.0,"solve_us":5.0,"gmres_us":200.0,
       "gmres_iterations":24,"gmres_speedup":3.05,"gmres_vs_refactor":0.14,
       "crossover":true}
    ]"#;

    fn scaled_newton(factor: f64) -> String {
        format!(
            r#"[{{"name":"a","speedup":{},"off_ms":10.0,"on_ms":6.0}},
                {{"name":"b","speedup":{},"off_ms":20.0,"on_ms":15.0}}]"#,
            1.6 * factor,
            1.3 * factor
        )
    }

    fn source(stem: &str) -> &'static Source {
        MANIFEST.iter().find(|s| s.stem == stem).expect("stem in manifest")
    }

    /// Gates the fixture documents against themselves, except that the
    /// fresh newton document is `fresh_newton`.
    fn gate_with(fresh_newton: &str) -> Result<GateReport, String> {
        let docs: Vec<(String, String)> = [NEWTON, SWEEP, SOLVER]
            .iter()
            .zip(MANIFEST)
            .map(|(doc, s)| {
                let fresh = if s.stem == "newton" { fresh_newton } else { doc };
                (doc.to_string(), fresh.to_string())
            })
            .collect();
        gate(MANIFEST, &docs, None)
    }

    #[test]
    fn identical_runs_pass() {
        let r = gate_with(NEWTON).unwrap();
        assert!(r.passed(), "{}", r.table());
        // 2 newton + 1 sweep + 1 solver GMRES-vs-refactor ratio at 64+
        // unknowns
        assert_eq!(r.metrics.len(), 4);
    }

    #[test]
    fn injected_twenty_percent_slowdown_fails() {
        // The acceptance scenario: a 20% speedup loss must trip a 15% gate.
        let r = gate_with(&scaled_newton(0.8)).unwrap();
        assert!(!r.passed());
        assert_eq!(r.failures().len(), 2);
        let table = r.table();
        assert!(table.contains("FAIL"), "{table}");
        assert!(table.contains("newton/a/speedup"), "{table}");
        assert!(table.contains("-20.0%"), "{table}");
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let r = gate_with(&scaled_newton(0.9)).unwrap(); // -10% on a 15% gate
        assert!(r.passed(), "{}", r.table());
    }

    #[test]
    fn improvements_never_fail() {
        let r = gate_with(&scaled_newton(1.5)).unwrap();
        assert!(r.passed(), "{}", r.table());
        assert!(r.table().contains("ok +"));
    }

    #[test]
    fn diverging_metric_sets_are_an_error() {
        let err = gate_with(&NEWTON.replace("\"a\"", "\"renamed\"")).unwrap_err();
        assert!(err.contains("newton/a/speedup"), "{err}");
        assert!(err.contains("renamed"), "{err}");
    }

    #[test]
    fn tolerance_override_applies_to_every_row() {
        let docs: Vec<(String, String)> =
            vec![(NEWTON.to_string(), scaled_newton(0.9)), (SWEEP.to_string(), SWEEP.to_string())];
        assert!(gate(&MANIFEST[..2], &docs, None).unwrap().passed());
        assert!(!gate(&MANIFEST[..2], &docs, Some(0.05)).unwrap().passed());
    }

    #[test]
    fn malformed_documents_are_an_error() {
        let (newton, sweep, solver) = (source("newton"), source("sweep"), source("solver"));
        let err = newton.metrics("{not json").unwrap_err();
        assert!(err.starts_with("BENCH_newton.json: "), "{err}");
        assert!(newton.metrics("{}").is_err());
        assert!(newton.metrics(r#"[{"name":"x"}]"#).is_err());
        assert!(sweep.metrics("{}").is_err());
        assert!(sweep.metrics(r#"[{"circuit":"x","measured_speedup":1.0}]"#).is_err());
        assert!(solver.metrics("{}").is_err());
        assert!(solver.metrics(r#"[{"circuit":"x","unknowns":16}]"#).is_err());
    }

    #[test]
    fn sub_crossover_solver_timings_are_skipped() {
        // The noisy microsecond-scale timing ratio of the 16-unknown grid
        // is not gated.
        let ms = source("solver").metrics(SOLVER).unwrap();
        let keys: Vec<&str> = ms.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["solver/power_grid(16,16)/gmres_vs_refactor"]);
    }
}
