//! Experiment harness for the WavePipe evaluation: one function per table
//! and figure (experiments E1–E7 of `DESIGN.md`), shared by the `tables` /
//! `figures` binaries and the Criterion benches.
//!
//! Every function returns both structured data and a formatted text block,
//! so the binaries print paper-style rows and the tests can assert on the
//! numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod doctor;
pub mod perfgate;
pub mod sweep;

use std::fmt::Write as _;
use wavepipe_circuit::generators::{self, Benchmark};
use wavepipe_core::{run_wavepipe, verify, Scheme, WavePipeOptions, WavePipeReport};
use wavepipe_engine::{run_transient, Method, SimOptions, TransientResult};
use wavepipe_telemetry::{json, Event, ProbeHandle, RecordingProbe};

/// Experiment scale: the full paper-style suite or a reduced suite for CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Paper-scale circuits (Table 1 sizes).
    #[default]
    Full,
    /// Reduced sizes for fast runs and tests.
    Small,
}

/// The benchmark suite at the requested scale.
pub fn suite(scale: Scale) -> Vec<Benchmark> {
    match scale {
        Scale::Full => generators::table_suite(),
        Scale::Small => generators::small_suite(),
    }
}

/// Serial baseline run of a benchmark.
pub fn run_serial(b: &Benchmark) -> TransientResult {
    run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default())
        .unwrap_or_else(|e| panic!("{}: serial run failed: {e}", b.name))
}

/// One WavePipe run of a benchmark.
pub fn run_scheme(b: &Benchmark, scheme: Scheme, threads: usize) -> WavePipeReport {
    let opts = WavePipeOptions::new(scheme, threads);
    run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts)
        .unwrap_or_else(|e| panic!("{}: {scheme} x{threads} failed: {e}", b.name))
}

/// A measured (serial, wavepipe) pair with derived metrics.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Benchmark name.
    pub name: String,
    /// Scheme measured.
    pub scheme: Scheme,
    /// Threads used.
    pub threads: usize,
    /// Serial accepted points.
    pub serial_points: usize,
    /// Serial Newton iterations.
    pub serial_iters: usize,
    /// WavePipe accepted points.
    pub wp_points: usize,
    /// Modelled (critical-path) speedup.
    pub speedup: f64,
    /// Wall-clock-based speedup (serial wall / critical-path wall; the
    /// per-task wall times are measured individually, so their round maxima
    /// approximate a parallel machine even on a single-core host).
    pub wall_speedup: f64,
    /// Lead / speculation accept rate.
    pub accept_rate: f64,
    /// Max waveform deviation relative to serial peak.
    pub max_rel_dev: f64,
    /// RMS waveform deviation relative to serial peak.
    pub rms_rel_dev: f64,
}

/// Runs a benchmark under one scheme and collects the outcome.
pub fn measure(b: &Benchmark, scheme: Scheme, threads: usize) -> CaseOutcome {
    let serial = run_serial(b);
    measure_against(b, &serial, scheme, threads)
}

/// Like [`measure`] but reuses an already-computed serial reference.
pub fn measure_against(
    b: &Benchmark,
    serial: &TransientResult,
    scheme: Scheme,
    threads: usize,
) -> CaseOutcome {
    let rep = run_scheme(b, scheme, threads);
    let eq = verify::compare(serial, &rep.result);
    CaseOutcome {
        name: b.name.clone(),
        scheme,
        threads,
        serial_points: serial.len(),
        serial_iters: serial.stats().newton_iterations,
        wp_points: rep.result.len(),
        speedup: rep.modeled_speedup(serial.stats()),
        wall_speedup: rep.wall_speedup(serial.stats()),
        accept_rate: rep.accept_rate(),
        max_rel_dev: eq.max_rel(),
        rms_rel_dev: eq.rms_rel(),
    }
}

/// **Table 1 (E1)** — benchmark circuit characteristics.
pub fn table1(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: benchmark circuits");
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>7} {:>9} {:>10} {:>10} {:>10}",
        "circuit", "class", "nodes", "unknowns", "elements", "nonlinear", "tstop"
    );
    for b in suite(scale) {
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>7} {:>9} {:>10} {:>10} {:>9.1e}",
            b.name,
            b.class.to_string(),
            b.circuit.node_count(),
            b.circuit.unknown_count(),
            b.circuit.element_count(),
            b.circuit.nonlinear_count(),
            b.tstop
        );
    }
    out
}

fn scheme_table(title: &str, scale: Scale, runs: &[(Scheme, usize)]) -> (String, Vec<CaseOutcome>) {
    let mut out = String::new();
    let mut cases = Vec::new();
    let _ = writeln!(out, "{title}");
    let mut header = format!("{:<22} {:>8} {:>8}", "circuit", "ser.pts", "ser.itr");
    for (s, t) in runs {
        header.push_str(&format!(" {:>12}", format!("{s}x{t}")));
    }
    header.push_str(&format!(" {:>8} {:>8} {:>9}", "wall", "accept", "rms.dev"));
    let _ = writeln!(out, "{header}");
    for b in suite(scale) {
        let serial = run_serial(&b);
        let mut row =
            format!("{:<22} {:>8} {:>8}", b.name, serial.len(), serial.stats().newton_iterations);
        let mut last: Option<CaseOutcome> = None;
        for &(s, t) in runs {
            let c = measure_against(&b, &serial, s, t);
            row.push_str(&format!(" {:>11.2}x", c.speedup));
            last = Some(c.clone());
            cases.push(c);
        }
        if let Some(c) = last {
            row.push_str(&format!(
                " {:>7.2}x {:>7.0}% {:>9.1e}",
                c.wall_speedup,
                c.accept_rate * 100.0,
                c.rms_rel_dev
            ));
        }
        let _ = writeln!(out, "{row}");
    }
    (out, cases)
}

/// **Table 2 (E2)** — backward pipelining speedups at 2 and 3 threads.
pub fn table2(scale: Scale) -> (String, Vec<CaseOutcome>) {
    scheme_table(
        "Table 2: backward pipelining (modeled critical-path speedup over serial)",
        scale,
        &[(Scheme::Backward, 2), (Scheme::Backward, 3)],
    )
}

/// **Table 3 (E3)** — forward pipelining speedups at 2 and 3 threads.
pub fn table3(scale: Scale) -> (String, Vec<CaseOutcome>) {
    scheme_table(
        "Table 3: forward pipelining (modeled critical-path speedup over serial)",
        scale,
        &[(Scheme::Forward, 2), (Scheme::Forward, 3)],
    )
}

/// **Table 4 (E4)** — combined scheme at 4 threads.
pub fn table4(scale: Scale) -> (String, Vec<CaseOutcome>) {
    scheme_table("Table 4: combined backward+forward pipelining", scale, &[(Scheme::Combined, 4)])
}

/// **Figure A (E5)** — waveform accuracy: deviation of every scheme from the
/// serial reference, alongside the serial trap-vs-gear2 "noise floor".
pub fn fig_accuracy(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure A: waveform accuracy vs serial (rms, relative to signal peak)");
    let _ = writeln!(
        out,
        "{:<22} {:>13} {:>13} {:>13} {:>13}",
        "circuit", "noise-floor", "backward", "forward", "combined"
    );
    for b in suite(scale) {
        let serial = run_serial(&b);
        let gear = run_transient(
            &b.circuit,
            b.tstep,
            b.tstop,
            &SimOptions::default().with_method(Method::Gear2),
        )
        .unwrap_or_else(|e| panic!("{}: gear2 run failed: {e}", b.name));
        let floor = verify::compare(&serial, &gear).rms_rel();
        let devs: Vec<f64> = [(Scheme::Backward, 2), (Scheme::Forward, 2), (Scheme::Combined, 4)]
            .iter()
            .map(|&(s, t)| measure_against(&b, &serial, s, t).rms_rel_dev)
            .collect();
        let _ = writeln!(
            out,
            "{:<22} {:>13.2e} {:>13.2e} {:>13.2e} {:>13.2e}",
            b.name, floor, devs[0], devs[1], devs[2]
        );
    }
    out
}

/// **Figure B (E6)** — step-size profile over time, serial vs backward.
///
/// Returns CSV: `t,h_serial` rows then a blank line then `t,h_backward`.
pub fn fig_step_profile(b: &Benchmark) -> String {
    let serial = run_serial(b);
    let rep = run_scheme(b, Scheme::Backward, 2);
    let mut out = String::new();
    let _ = writeln!(out, "# Figure B: step size vs time — {}", b.name);
    let _ = writeln!(out, "t,h_serial");
    for w in serial.times().windows(2) {
        let _ = writeln!(out, "{:.6e},{:.6e}", w[1], w[1] - w[0]);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "t,h_backward");
    for w in rep.result.times().windows(2) {
        let _ = writeln!(out, "{:.6e},{:.6e}", w[1], w[1] - w[0]);
    }
    out
}

/// One point of the thread-scaling figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Thread count.
    pub threads: usize,
    /// Modelled speedup.
    pub speedup: f64,
}

/// Per-scheme scaling series, as produced by [`fig_scaling`].
pub type ScalingSeries = Vec<(Scheme, Vec<ScalingPoint>)>;

/// **Figure C (E7)** — speedup vs thread count (1–4) for each scheme.
pub fn fig_scaling(b: &Benchmark) -> (String, ScalingSeries) {
    let serial = run_serial(b);
    let mut out = String::new();
    let _ = writeln!(out, "Figure C: speedup vs threads — {}", b.name);
    let _ = writeln!(out, "{:<10} {:>8} {:>8} {:>8} {:>8}", "scheme", "x1", "x2", "x3", "x4");
    let mut series = Vec::new();
    for scheme in [Scheme::Backward, Scheme::Forward, Scheme::Combined] {
        let mut pts = Vec::new();
        let mut row = format!("{:<10}", scheme.to_string());
        for threads in 1..=4 {
            let c = measure_against(b, &serial, scheme, threads);
            row.push_str(&format!(" {:>7.2}x", c.speedup));
            pts.push(ScalingPoint { threads, speedup: c.speedup });
        }
        let _ = writeln!(out, "{row}");
        series.push((scheme, pts));
    }
    (out, series)
}

/// One caches-off / caches-on measurement pair — a row of the **Newton
/// hot-path figure (E11)**.
#[derive(Debug, Clone)]
pub struct NewtonPathRow {
    /// Benchmark name.
    pub name: String,
    /// Best-of-repeats wall time with bypass, chord, and companion caching
    /// all disabled, milliseconds.
    pub off_ms: f64,
    /// Best-of-repeats wall time with all three cache layers enabled,
    /// milliseconds.
    pub on_ms: f64,
    /// End-to-end single-thread speedup, `off_ms / on_ms`.
    pub speedup: f64,
    /// Mean Newton-iteration cost without caching, microseconds.
    pub us_per_iter_off: f64,
    /// Mean Newton-iteration cost with caching, microseconds.
    pub us_per_iter_on: f64,
    /// Full numeric factorization passes without caching.
    pub fact_off: usize,
    /// Full numeric factorization passes with caching.
    pub fact_on: usize,
    /// Device evaluations skipped by the bypass over the cached run.
    pub bypass_hits: usize,
    /// Newton iterations solved against a reused LU over the cached run.
    pub jacobian_reuses: usize,
    /// Stamps that replayed the cached companion linearization.
    pub companion_hits: usize,
}

/// **Newton hot-path figure (E11)** — end-to-end effect of the solver-cache
/// layers (device bypass, chord Newton, companion caching) on single-thread
/// transient runs: each benchmark is run with every cache disabled and with
/// all of them enabled, `REPEATS` times each keeping the fastest, and the
/// waveforms are cross-checked to stay within LTE-scale deviation.
pub fn fig_newton_path(subjects: &[Benchmark]) -> (String, Vec<NewtonPathRow>) {
    const REPEATS: usize = 3;
    let off_opts = SimOptions::default()
        .with_bypass(false)
        .with_chord_newton(false)
        .with_companion_cache(false);
    let on_opts =
        SimOptions::default().with_bypass(true).with_chord_newton(true).with_companion_cache(true);
    let best = |b: &Benchmark, opts: &SimOptions, what: &str| -> TransientResult {
        let mut best: Option<TransientResult> = None;
        for _ in 0..REPEATS {
            let r = run_transient(&b.circuit, b.tstep, b.tstop, opts)
                .unwrap_or_else(|e| panic!("{} {what}: {e}", b.name));
            if best.as_ref().is_none_or(|p| r.stats().wall_ns < p.stats().wall_ns) {
                best = Some(r);
            }
        }
        best.expect("at least one repeat")
    };
    let mut out = String::new();
    let _ = writeln!(out, "Newton hot path: solver caches off vs on (single-thread)");
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>9} {:>8} {:>11} {:>11} {:>8} {:>8} {:>9}",
        "circuit",
        "off (ms)",
        "on (ms)",
        "speedup",
        "us/it off",
        "us/it on",
        "fact",
        "reuses",
        "bypassed"
    );
    let mut rows = Vec::with_capacity(subjects.len());
    for b in subjects {
        let off = best(b, &off_opts, "caches off");
        let on = best(b, &on_opts, "caches on");
        // Accuracy guard: a speedup that moved the waveform is not a result.
        // The rms-relative-to-peak metric of E5 tolerates the per-stage edge
        // jitter that accumulates down deep chains; 2% is the same bound the
        // fault-chaos tests accept.
        let rms = verify::compare(&off, &on).rms_rel();
        assert!(rms < 0.02, "{}: cached waveform rms deviation {rms:e} > 2%", b.name);
        let (so, sn) = (off.stats(), on.stats());
        let row = NewtonPathRow {
            name: b.name.clone(),
            off_ms: so.wall_ns as f64 / 1e6,
            on_ms: sn.wall_ns as f64 / 1e6,
            speedup: so.wall_ns as f64 / sn.wall_ns.max(1) as f64,
            us_per_iter_off: so.wall_ns as f64 / 1e3 / so.newton_iterations.max(1) as f64,
            us_per_iter_on: sn.wall_ns as f64 / 1e3 / sn.newton_iterations.max(1) as f64,
            fact_off: so.factorizations,
            fact_on: sn.factorizations,
            bypass_hits: sn.bypass_hits,
            jacobian_reuses: sn.jacobian_reuses,
            companion_hits: sn.companion_hits,
        };
        let _ = writeln!(
            out,
            "{:<22} {:>9.2} {:>9.2} {:>7.2}x {:>11.2} {:>11.2} {:>3}/{:<4} {:>8} {:>9}",
            row.name,
            row.off_ms,
            row.on_ms,
            row.speedup,
            row.us_per_iter_off,
            row.us_per_iter_on,
            row.fact_on,
            row.fact_off,
            row.jacobian_reuses,
            row.bypass_hits,
        );
        rows.push(row);
    }
    (out, rows)
}

/// Machine-readable form of the Newton hot-path rows — written by the
/// `newton_path` binary as `BENCH_newton.json`.
pub fn newton_path_to_json(rows: &[NewtonPathRow]) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"name\":\"{}\",\"off_ms\":{},\"on_ms\":{},\"speedup\":{},\
             \"us_per_iter_off\":{},\"us_per_iter_on\":{},\"fact_off\":{},\"fact_on\":{},\
             \"bypass_hits\":{},\"jacobian_reuses\":{},\"companion_hits\":{}}}",
            json::escape(&r.name),
            json::fmt_f64(r.off_ms),
            json::fmt_f64(r.on_ms),
            json::fmt_f64(r.speedup),
            json::fmt_f64(r.us_per_iter_off),
            json::fmt_f64(r.us_per_iter_on),
            r.fact_off,
            r.fact_on,
            r.bypass_hits,
            r.jacobian_reuses,
            r.companion_hits,
        );
    }
    out.push_str("\n]\n");
    out
}

/// Like [`run_scheme`] but with a [`RecordingProbe`] attached: returns the
/// report plus the recorded telemetry event stream (for `--trace` in the
/// bench binaries).
pub fn run_traced(b: &Benchmark, scheme: Scheme, threads: usize) -> (WavePipeReport, Vec<Event>) {
    let probe = RecordingProbe::shared();
    let opts = WavePipeOptions::new(scheme, threads).with_probe(ProbeHandle::new(probe.clone()));
    let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts)
        .unwrap_or_else(|e| panic!("{}: traced {scheme} x{threads} failed: {e}", b.name));
    let events = probe.events();
    (rep, events)
}

fn case_json(c: &CaseOutcome) -> String {
    format!(
        "{{\"name\":\"{}\",\"scheme\":\"{}\",\"threads\":{},\
         \"serial_points\":{},\"serial_iters\":{},\"wp_points\":{},\
         \"speedup\":{},\"wall_speedup\":{},\"accept_rate\":{},\
         \"max_rel_dev\":{},\"rms_rel_dev\":{}}}",
        json::escape(&c.name),
        c.scheme,
        c.threads,
        c.serial_points,
        c.serial_iters,
        c.wp_points,
        json::fmt_f64(c.speedup),
        json::fmt_f64(c.wall_speedup),
        json::fmt_f64(c.accept_rate),
        json::fmt_f64(c.max_rel_dev),
        json::fmt_f64(c.rms_rel_dev)
    )
}

/// Machine-readable form of named [`CaseOutcome`] groups, e.g.
/// `{"table2": [...], "table3": [...]}` — written by the `tables` binary as
/// `BENCH_tables.json` so the perf trajectory can be tracked across commits.
pub fn cases_to_json(groups: &[(&str, &[CaseOutcome])]) -> String {
    let mut out = String::from("{");
    for (gi, (name, cases)) in groups.iter().enumerate() {
        if gi > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n  \"{}\": [", json::escape(name));
        for (ci, c) in cases.iter().enumerate() {
            if ci > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}", case_json(c));
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    out
}

/// Machine-readable form of named thread-scaling series, e.g.
/// `{"power_grid": {"backward": [{"threads":1,"speedup":1.0}, ...]}}` —
/// written by the `figures` binary as `BENCH_figures.json`.
pub fn scaling_to_json(figures: &[(&str, &ScalingSeries)]) -> String {
    let mut out = String::from("{");
    for (fi, (name, series)) in figures.iter().enumerate() {
        if fi > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n  \"{}\": {{", json::escape(name));
        for (si, (scheme, pts)) in series.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{scheme}\": [");
            for (pi, p) in pts.iter().enumerate() {
                if pi > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"threads\":{},\"speedup\":{}}}",
                    p.threads,
                    json::fmt_f64(p.speedup)
                );
            }
            out.push(']');
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

/// `--trace` / `--trace-format` options shared by the bench binaries.
#[derive(Debug, Default)]
pub struct TraceArgs {
    /// Output path (`None` = tracing not requested).
    pub path: Option<std::path::PathBuf>,
    /// `true` = JSONL, `false` = Chrome trace-event JSON (the default).
    pub jsonl: bool,
}

impl TraceArgs {
    /// Extracts `--trace <path>` / `--trace-format jsonl|chrome` from an
    /// argument list, returning the remaining arguments untouched.
    ///
    /// # Errors
    ///
    /// Returns a message when a flag is missing its value or the format is
    /// unknown.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<(Self, Vec<String>), String> {
        let mut ta = TraceArgs::default();
        let mut rest = Vec::new();
        let mut args = args;
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trace" => {
                    let p = args.next().ok_or("--trace needs a file path")?;
                    ta.path = Some(std::path::PathBuf::from(p));
                }
                "--trace-format" => match args.next().as_deref() {
                    Some("jsonl") => ta.jsonl = true,
                    Some("chrome") => ta.jsonl = false,
                    other => {
                        return Err(format!(
                            "--trace-format must be `jsonl` or `chrome`, got {other:?}"
                        ))
                    }
                },
                _ => rest.push(a),
            }
        }
        Ok((ta, rest))
    }

    /// Writes `events` to the requested path in the requested format.
    /// No-op when tracing was not requested.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn write(&self, events: &[Event]) -> std::io::Result<()> {
        use std::io::Write as _;
        let Some(path) = &self.path else { return Ok(()) };
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        if self.jsonl {
            wavepipe_telemetry::jsonl::write_jsonl(events, &mut file)?;
        } else {
            wavepipe_telemetry::chrome::write_chrome_trace(events, &mut file)?;
        }
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_benchmarks() {
        let t = table1(Scale::Small);
        for b in suite(Scale::Small) {
            assert!(t.contains(&b.name), "missing {}", b.name);
        }
    }

    #[test]
    fn measure_produces_finite_metrics() {
        let b = generators::rc_ladder(6);
        let c = measure(&b, Scheme::Backward, 2);
        assert!(c.speedup.is_finite() && c.speedup > 0.0);
        assert!(c.max_rel_dev.is_finite());
        assert!(c.wp_points > 5);
    }

    #[test]
    fn step_profile_has_both_series() {
        let b = generators::rc_ladder(5);
        let csv = fig_step_profile(&b);
        assert!(csv.contains("h_serial"));
        assert!(csv.contains("h_backward"));
    }

    #[test]
    fn scaling_covers_thread_range() {
        let b = generators::rc_ladder(5);
        let (_, series) = fig_scaling(&b);
        assert_eq!(series.len(), 3); // backward, forward, combined
        for (_, pts) in &series {
            assert_eq!(pts.len(), 4);
            assert_eq!(pts[0].threads, 1);
        }
    }
}
