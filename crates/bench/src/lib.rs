//! Experiment harness for the WavePipe evaluation: one function per table
//! and figure (experiments E1–E7 of `DESIGN.md`), shared by the `tables` /
//! `figures` binaries.
//!
//! Every function returns a formatted text block for the binaries to print;
//! the per-case measurement ([`measure`]), the thread-scaling series and the
//! Newton hot-path rows also come back as data, for tests and the
//! `newton_path` document. The tables and figures print counts and
//! deviations, no clock, so they print the same bytes on every run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod perfgate;
pub mod sweep;

use std::fmt::Write as _;
use wavepipe_circuit::generators::{self, Benchmark};
use wavepipe_core::{run_wavepipe, verify, Scheme, WavePipeOptions, WavePipeReport};
use wavepipe_engine::{run_transient, Method, SimOptions, TransientResult};
use wavepipe_telemetry::json;

/// Experiment scale: the full paper-style suite or a reduced suite for CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Paper-scale circuits (Table 1 sizes).
    #[default]
    Full,
    /// Reduced sizes for fast runs and tests.
    Small,
}

impl Scale {
    /// The scale a bench bin's arguments ask for: `--small`, or nothing for
    /// the full suite. Any other argument is a request the bin would not
    /// meet, so it prints a usage line naming `bin` and exits with 64, the
    /// `wavepipe` binary's usage code.
    pub fn from_args(bin: &str) -> Scale {
        let mut scale = Scale::Full;
        for arg in std::env::args().skip(1) {
            if arg != "--small" {
                eprintln!("{bin}: unknown argument `{arg}`\nusage: {bin} [--small]");
                std::process::exit(64);
            }
            scale = Scale::Small;
        }
        scale
    }
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

/// One WavePipe run measured against its serial reference: the run's
/// deterministic counts and the waveform deviation between the two. No
/// field reads a clock, so two measurements of the same case are equal.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// Accepted points.
    pub points: usize,
    /// Rounds played.
    pub rounds: usize,
    /// Newton iterations over every lane, discarded leads and speculations
    /// included.
    pub iters: usize,
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
        points: rep.result.len(),
        rounds: rep.rounds,
        iters: rep.total.newton_iterations,
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

fn scheme_table(title: &str, scale: Scale, runs: &[(Scheme, usize)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title} (points, rounds, Newton iterations, accept rate)");
    let mut groups = format!("{:<40}", "");
    let mut header = format!("{:<22} {:>8} {:>8}", "circuit", "ser.pts", "ser.itr");
    for (s, t) in runs {
        groups.push_str(&format!(" {:^32}", format!("{s} x{t}")));
        header.push_str(&format!(" {:>7} {:>7} {:>8} {:>7}", "pts", "rounds", "iters", "accept"));
    }
    header.push_str(&format!(" {:>9}", "rms.dev"));
    let _ = writeln!(out, "{}", groups.trim_end());
    let _ = writeln!(out, "{header}");
    for b in suite(scale) {
        let serial = run_serial(&b);
        let mut row =
            format!("{:<22} {:>8} {:>8}", b.name, serial.len(), serial.stats().newton_iterations);
        let mut rms = 0.0;
        for &(s, t) in runs {
            let c = measure_against(&b, &serial, s, t);
            row.push_str(&format!(
                " {:>7} {:>7} {:>8} {:>6.0}%",
                c.points,
                c.rounds,
                c.iters,
                c.accept_rate * 100.0
            ));
            rms = c.rms_rel_dev;
        }
        let _ = writeln!(out, "{row} {rms:>9.1e}");
    }
    out
}

/// **Table 2 (E2)** — backward pipelining at 2 and 3 threads.
pub fn table2(scale: Scale) -> String {
    scheme_table(
        "Table 2: backward pipelining",
        scale,
        &[(Scheme::Backward, 2), (Scheme::Backward, 3)],
    )
}

/// **Table 3 (E3)** — forward pipelining at 2 and 3 threads.
pub fn table3(scale: Scale) -> String {
    scheme_table(
        "Table 3: forward pipelining",
        scale,
        &[(Scheme::Forward, 2), (Scheme::Forward, 3)],
    )
}

/// **Table 4 (E4)** — combined scheme at 4 threads.
pub fn table4(scale: Scale) -> String {
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalingPoint {
    /// Thread count.
    pub threads: usize,
    /// Rounds played.
    pub rounds: usize,
    /// Newton iterations over every lane.
    pub iters: usize,
}

/// Per-scheme scaling series, as produced by [`fig_scaling`].
pub type ScalingSeries = Vec<(Scheme, Vec<ScalingPoint>)>;

/// **Figure C (E7)** — rounds and Newton iterations vs thread count (1–4)
/// for each scheme. A round is the pipelined analogue of a serial point, so
/// rounds below the serial point count are the steps the scheme saved, and
/// iterations above the serial count the work it spent to save them.
pub fn fig_scaling(b: &Benchmark) -> (String, ScalingSeries) {
    let serial = run_serial(b);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure C: rounds / Newton iterations vs threads — {} (serial: {} points / {} iterations)",
        b.name,
        serial.len(),
        serial.stats().newton_iterations
    );
    let _ = writeln!(out, "{:<10} {:>13} {:>13} {:>13} {:>13}", "scheme", "x1", "x2", "x3", "x4");
    let mut series = Vec::new();
    for scheme in [Scheme::Backward, Scheme::Forward, Scheme::Combined] {
        let mut pts = Vec::new();
        let mut row = format!("{:<10}", scheme.to_string());
        for threads in 1..=4 {
            let c = measure_against(b, &serial, scheme, threads);
            row.push_str(&format!(" {:>13}", format!("{}/{}", c.rounds, c.iters)));
            pts.push(ScalingPoint { threads, rounds: c.rounds, iters: c.iters });
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
        assert!(c.max_rel_dev.is_finite());
        assert!(c.points > 5);
        assert!(c.rounds > 0 && c.iters >= c.rounds);
        // Counts and deviations only: the same case measures the same.
        assert_eq!(c, measure(&b, Scheme::Backward, 2));
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
