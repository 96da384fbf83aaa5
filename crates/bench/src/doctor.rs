//! The `wavepipe-doctor` diagnostics harness: runs a simulation with the
//! recording probe attached (or reads a recorded JSONL stream), folds the
//! events once into the trace analysis, then renders the bottleneck report.
//! A live run and a replay of its trace take the same path from the events
//! on, so they print the same stable report.
//!
//! The report has two sections (see [`mod@wavepipe_telemetry::analyze`]): a
//! **stable** section derived purely from event counts
//! (byte-reproducible across identical seeded runs at a fixed thread
//! count — the determinism tests pin this), and a **timing** section
//! derived from timestamps (varies run to run, suppressed by `--stable`),
//! which for a live run ends with the report's measured hand-off ledger.
//!
//! The binary (`cargo run -p wavepipe-bench --bin wavepipe-doctor`) is a
//! thin wrapper over this module so the logic stays testable.

use wavepipe_circuit::generators::{self, Benchmark};
use wavepipe_core::WavePipeReport;
use wavepipe_core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe_telemetry::analyze::{analyze, class_cache_table, TraceAnalysis};
use wavepipe_telemetry::{Event, ProbeHandle, RecordingProbe};

/// Everything one instrumented run produces.
#[derive(Debug)]
pub struct DoctorRun {
    /// The simulation report.
    pub report: WavePipeReport,
    /// The recorded telemetry event stream.
    pub events: Vec<Event>,
}

/// Parses a circuit spec like `inverter_chain:120`, `power_grid:10,10` or
/// `diode_rectifier` into a generated benchmark.
///
/// # Errors
///
/// Returns a message listing the known generators when the name or the
/// argument list does not match.
pub fn circuit_by_spec(spec: &str) -> Result<Benchmark, String> {
    let (name, rest) = match spec.split_once(':') {
        Some((n, r)) => (n, r),
        None => (spec, ""),
    };
    let args: Vec<usize> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',')
            .map(|a| a.trim().parse::<usize>().map_err(|_| format!("bad size `{a}` in `{spec}`")))
            .collect::<Result<_, _>>()?
    };
    let one = |d: usize| args.first().copied().unwrap_or(d);
    match (name, args.len()) {
        ("rc_ladder", 0 | 1) => Ok(generators::rc_ladder(one(100))),
        ("rlc_line", 0 | 1) => Ok(generators::rlc_line(one(40))),
        ("power_grid", 0) => Ok(generators::power_grid(10, 10)),
        ("power_grid", 2) => Ok(generators::power_grid(args[0], args[1])),
        ("inverter_chain", 0 | 1) => Ok(generators::inverter_chain(one(120))),
        ("ring_oscillator", 0 | 1) => Ok(generators::ring_oscillator(one(9))),
        ("nand_chain", 0 | 1) => Ok(generators::nand_chain(one(40))),
        ("amp_chain", 0 | 1) => Ok(generators::amp_chain(one(20))),
        ("bjt_amp_chain", 0 | 1) => Ok(generators::bjt_amp_chain(one(20))),
        ("diode_rectifier", 0) => Ok(generators::diode_rectifier()),
        _ => Err(format!(
            "unknown circuit spec `{spec}` — use one of rc_ladder[:n], rlc_line[:n], \
             power_grid[:rows,cols], inverter_chain[:n], ring_oscillator[:n], nand_chain[:n], \
             amp_chain[:n], bjt_amp_chain[:n], diode_rectifier"
        )),
    }
}

/// Parses a scheme name as used on bench command lines.
///
/// # Errors
///
/// Returns a message listing the valid names.
pub fn scheme_by_name(name: &str) -> Result<Scheme, String> {
    match name {
        "serial" => Ok(Scheme::Serial),
        "backward" => Ok(Scheme::Backward),
        "forward" => Ok(Scheme::Forward),
        "combined" => Ok(Scheme::Combined),
        other => {
            Err(format!("unknown scheme `{other}` — use serial, backward, forward or combined"))
        }
    }
}

/// Runs a benchmark with the [`RecordingProbe`] attached, returning report
/// and events.
///
/// # Panics
///
/// Panics when the underlying simulation fails (bad circuit, DC failure) —
/// the doctor has nothing to report on in that case.
pub fn run_instrumented(b: &Benchmark, scheme: Scheme, threads: usize) -> DoctorRun {
    let probe = RecordingProbe::shared();
    let opts = WavePipeOptions::new(scheme, threads).with_probe(ProbeHandle::new(probe.clone()));
    let report = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts)
        .unwrap_or_else(|e| panic!("{}: doctor run {scheme} x{threads} failed: {e}", b.name));
    DoctorRun { report, events: probe.events() }
}

/// Renders the doctor report as text: the stable section (event counts plus
/// the per-class / per-cache tables — all count-derived, so
/// byte-reproducible), then — unless `stable_only` — the wall-clock timing
/// section.
pub fn doctor_text(title: &str, analysis: &TraceAnalysis, stable_only: bool) -> String {
    render_text(title, analysis, stable_only, None)
}

/// [`doctor_text`], the timing section closed by the hand-off ledger of the
/// live run's `report`. The ledger is measured by the run, not derived from
/// events — a replay has none — and is wall-clock, so the stable report
/// never carries it.
fn render_text(
    title: &str,
    analysis: &TraceAnalysis,
    stable_only: bool,
    report: Option<&WavePipeReport>,
) -> String {
    use std::fmt::Write as _;
    let mut out = analysis.stable_report(title);
    out.push_str(&class_cache_table(&analysis.counts));
    if !stable_only {
        out.push_str(&analysis.timing_report());
        if let Some(ledger) = report.and_then(WavePipeReport::handoff_ledger) {
            let _ = writeln!(out, "  {ledger}");
        }
    }
    out
}

/// Renders the doctor report as one JSON document:
/// `{"title":..., "analysis":{...}}`. With `stable_only` the analysis omits
/// its timing object.
pub fn doctor_json(title: &str, analysis: &TraceAnalysis, stable_only: bool) -> String {
    render_json(title, analysis, stable_only, None)
}

/// [`doctor_json`] plus, for a live run's `report` and unless `stable_only`,
/// a `"handoff"` object with the measured ledger (see [`render_text`]; all
/// zeros for a serial run).
fn render_json(
    title: &str,
    analysis: &TraceAnalysis,
    stable_only: bool,
    report: Option<&WavePipeReport>,
) -> String {
    let handoff = report.filter(|_| !stable_only).map_or_else(String::new, |r| {
        format!(
            ",\"handoff\":{{\"dispatch_ns\":{},\"lead_ns\":{},\"wait_ns\":{},\
             \"commit_ns\":{},\"wall_ns\":{}}}",
            r.dispatch_ns, r.lead_ns, r.wait_ns, r.commit_ns, r.total.wall_ns
        )
    });
    format!(
        "{{\"title\":\"{}\",\"analysis\":{}{}}}",
        wavepipe_telemetry::json::escape(title),
        analysis.to_json(stable_only),
        handoff
    )
}

/// Parsed command line of the `wavepipe-doctor` binary.
#[derive(Debug)]
pub struct DoctorArgs {
    /// Circuit spec (`inverter_chain:120`); ignored with `--replay`.
    pub spec: String,
    /// Scheme to run.
    pub scheme: Scheme,
    /// Worker threads.
    pub threads: usize,
    /// Emit JSON instead of the text tables.
    pub json: bool,
    /// Suppress the timestamp-derived (unstable) section.
    pub stable_only: bool,
    /// Replay a recorded JSONL event stream instead of running live.
    pub replay: Option<std::path::PathBuf>,
}

/// Usage string for the binary.
pub const DOCTOR_USAGE: &str = "usage: wavepipe-doctor [<circuit-spec>] [options]\n\
     \n\
     circuit-spec       e.g. inverter_chain:120, power_grid:10,10 (default inverter_chain:120)\n\
     --scheme <s>       serial | backward | forward | combined (default combined)\n\
     --threads <n>      worker threads (default 4)\n\
     --json             emit one JSON document instead of text tables\n\
     --stable           stable section only (byte-reproducible across identical runs)\n\
     --replay <file>    analyze a recorded JSONL event stream instead of running\n";

impl DoctorArgs {
    /// Parses the binary's arguments (everything after argv\[0\]).
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or malformed values.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut parsed = DoctorArgs {
            spec: "inverter_chain:120".to_string(),
            scheme: Scheme::Combined,
            threads: 4,
            json: false,
            stable_only: false,
            replay: None,
        };
        let mut spec_set = false;
        let mut args = args;
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scheme" => {
                    let s = args.next().ok_or("--scheme needs a value")?;
                    parsed.scheme = scheme_by_name(&s)?;
                }
                "--threads" => {
                    let t = args.next().ok_or("--threads needs a value")?;
                    parsed.threads = t.parse().map_err(|_| format!("bad thread count `{t}`"))?;
                }
                "--json" => parsed.json = true,
                "--stable" => parsed.stable_only = true,
                "--replay" => {
                    let p = args.next().ok_or("--replay needs a file path")?;
                    parsed.replay = Some(std::path::PathBuf::from(p));
                }
                "--help" | "-h" => return Err(DOCTOR_USAGE.to_string()),
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag `{flag}`\n{DOCTOR_USAGE}"))
                }
                spec if !spec_set => {
                    circuit_by_spec(spec)?; // validate early for a clean error
                    parsed.spec = spec.to_string();
                    spec_set = true;
                }
                extra => return Err(format!("unexpected argument `{extra}`\n{DOCTOR_USAGE}")),
            }
        }
        Ok(parsed)
    }

    /// The deterministic report title for this invocation.
    pub fn title(&self) -> String {
        match &self.replay {
            Some(p) => format!("replay {}", p.display()),
            None => format!("{}, {} x{}", self.spec, self.scheme, self.threads),
        }
    }
}

/// Executes a parsed invocation end to end and returns the rendered report.
///
/// # Errors
///
/// Returns a message when a replay file cannot be read or parsed.
pub fn run_doctor(args: &DoctorArgs) -> Result<String, String> {
    let title = args.title();
    let (events, report) = match &args.replay {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let events = wavepipe_telemetry::jsonl::parse_jsonl(&text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            (events, None)
        }
        None => {
            let b = circuit_by_spec(&args.spec)?;
            let run = run_instrumented(&b, args.scheme, args.threads);
            (run.events, Some(run.report))
        }
    };
    let analysis = analyze(&events);
    let report = report.as_ref();
    Ok(if args.json {
        render_json(&title, &analysis, args.stable_only, report)
    } else {
        render_text(&title, &analysis, args.stable_only, report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> impl Iterator<Item = String> {
        parts.iter().map(ToString::to_string).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn specs_parse_with_and_without_sizes() {
        assert_eq!(circuit_by_spec("rc_ladder:12").unwrap().name, "rc_ladder(12)");
        assert_eq!(circuit_by_spec("power_grid:3,4").unwrap().name, "power_grid(3x4)");
        assert!(circuit_by_spec("diode_rectifier").is_ok());
        assert!(circuit_by_spec("power_grid:3").is_err());
        assert!(circuit_by_spec("no_such_circuit").is_err());
        assert!(circuit_by_spec("rc_ladder:abc").is_err());
    }

    #[test]
    fn args_parse_flags_and_reject_junk() {
        let a = DoctorArgs::parse(argv(&[
            "rc_ladder:6",
            "--scheme",
            "backward",
            "--threads",
            "2",
            "--stable",
            "--json",
        ]))
        .unwrap();
        assert_eq!(a.spec, "rc_ladder:6");
        assert_eq!(a.scheme, wavepipe_core::Scheme::Backward);
        assert_eq!(a.threads, 2);
        assert!(a.stable_only && a.json);
        assert_eq!(a.title(), "rc_ladder:6, backward x2");
        assert!(DoctorArgs::parse(argv(&["--scheme", "sideways"])).is_err());
        // The adaptive scheduler is gone; its name gets the list of schemes.
        let err = DoctorArgs::parse(argv(&["--scheme", "adaptive"])).unwrap_err();
        assert!(
            err.contains("`adaptive`") && err.contains("serial, backward, forward or combined")
        );
        assert!(DoctorArgs::parse(argv(&["--no-such-flag"])).is_err());
        assert!(DoctorArgs::parse(argv(&["rc_ladder:6", "extra"])).is_err());
    }

    #[test]
    fn instrumented_run_populates_events_and_metrics() {
        let b = generators::rc_ladder(6);
        let run = run_instrumented(&b, Scheme::Backward, 2);
        assert!(run.report.result.len() > 5);
        assert!(!run.events.is_empty());
        let counts = analyze(&run.events).counts;
        assert!(counts.points_accepted > 0);
        assert!(counts.solves > 0);
        assert_eq!(counts.points_accepted as usize, run.report.total.steps_accepted);
    }

    fn traced_run(spec: &str, scheme: Scheme, threads: usize) -> DoctorRun {
        run_instrumented(&circuit_by_spec(spec).unwrap(), scheme, threads)
    }

    #[test]
    fn the_live_registry_counts_the_steps_the_run_s_own_stats_count() {
        // A speculating scheme rejects steps on refined speculative points
        // too; the fold must see those, not only base-point rejections.
        for (scheme, threads) in [(Scheme::Forward, 2), (Scheme::Combined, 3)] {
            let run = traced_run("inverter_chain:40", scheme, threads);
            let counts = analyze(&run.events).counts;
            let stats = run.report.result.stats();
            for (name, want) in [
                ("points_accepted", stats.steps_accepted),
                ("lte_rejects", stats.steps_rejected_lte),
                ("newton_rejects", stats.steps_rejected_newton),
                ("newton_iterations", stats.newton_iterations),
                ("factorizations", stats.factorizations),
                ("refactorizations", stats.refactorizations),
                ("device_evals", stats.device_evals),
                ("bypassed_devices", stats.bypass_hits),
                ("jacobian_reuses", stats.jacobian_reuses),
                ("companion_hits", stats.companion_hits),
                ("krylov_iterations", stats.krylov_iterations),
                ("precond_refreshes", stats.precond_refreshes),
                ("solver_fallbacks", stats.solver_fallbacks),
            ] {
                assert_eq!(counts.scalar(name), Some(want as u64), "{scheme} x{threads}: `{name}`");
            }
        }
    }

    #[test]
    fn the_json_carries_each_class_cache_and_lane_row_of_the_text_once() {
        use wavepipe_telemetry::json::{self, JsonValue};
        let run = traced_run("inverter_chain:40", Scheme::Combined, 3);
        let analysis = analyze(&run.events);
        let text = doctor_text("t", &analysis, true);
        let doc_text = doctor_json("t", &analysis, true);
        let doc = json::parse(&doc_text).expect("doctor json parses");
        assert!(doc.get("metrics").is_none(), "a second copy of the counts: {doc_text}");
        let stable = doc.get("analysis").and_then(|a| a.get("stable")).unwrap();
        let num = |v: &JsonValue, f: &str| v.get(f).and_then(JsonValue::as_f64).unwrap() as u64;
        let array = |key: &str| stable.get(key).and_then(JsonValue::as_array).unwrap();
        // `(label, first, second)` of each object of `key`'s array.
        let cells = |key: &str, [label, a, b]: [&str; 3]| -> Vec<(String, u64, u64)> {
            let label =
                |v: &JsonValue| v.get(label).and_then(JsonValue::as_str).unwrap().to_string();
            array(key).iter().map(|v| (label(v), num(v, a), num(v, b))).collect()
        };
        // `(label, first number, second number)` of each text row under
        // `header`, up to the next header.
        let rows = |header: &str| -> Vec<(String, u64, u64)> {
            let section = text.split(header).nth(1).unwrap().split("  --").next().unwrap();
            section
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| {
                    let w: Vec<&str> = l.split_whitespace().collect();
                    (w[0].to_string(), w[2].parse().unwrap(), w[4].parse().unwrap())
                })
                .collect()
        };
        let classes = cells("classes", ["class", "evals", "bypassed"]);
        assert_eq!(classes, rows("-- per device class --"));
        let caches = cells("caches", ["cache", "hits", "misses"]);
        assert_eq!(caches, rows("-- per cache layer --"));
        assert!(!classes.is_empty() && !caches.is_empty(), "{text}");
        // A lane's solves are its row of the text, its points the fold's.
        let lanes = |key: &str, field: &str| -> Vec<(u64, u64)> {
            array(key).iter().map(|v| (num(v, "lane"), num(v, field))).collect()
        };
        let solves: Vec<(u64, u64)> = text
            .lines()
            .filter(|l| l.trim_start().starts_with("lane "))
            .map(|l| {
                let w: Vec<&str> = l.split_whitespace().collect();
                (w[1].parse().unwrap(), w[3].parse().unwrap())
            })
            .collect();
        assert_eq!(lanes("lane_solves", "solves"), solves);
        let points = lanes("lane_points", "points");
        let fold = analysis.counts.lane_points.iter().map(|(&l, &n)| (u64::from(l), n));
        assert_eq!(points, fold.collect::<Vec<_>>());
        // Every cell is in the document once.
        let once = |needle: String| assert_eq!(doc_text.matches(&needle).count(), 1, "{needle}");
        for (class, ..) in &classes {
            once(format!("\"class\":\"{class}\""));
        }
        for (cache, ..) in &caches {
            once(format!("\"cache\":\"{cache}\""));
        }
        for (lane, _) in &solves {
            once(format!("{{\"lane\":{lane},\"solves\""));
        }
        for (lane, _) in &points {
            once(format!("{{\"lane\":{lane},\"points\""));
        }
    }

    #[test]
    fn companion_replay_has_one_rate_in_the_summary_and_the_cache_table() {
        let run = traced_run("inverter_chain:40", Scheme::Combined, 3);
        let text = doctor_text("t", &analyze(&run.events), true);
        let rate = |prefix: &str| {
            let line = text.lines().find(|l| l.trim_start().starts_with(prefix)).unwrap();
            let word = line.split_whitespace().find(|w| w.ends_with('%')).unwrap();
            word.trim_start_matches('(').to_string()
        };
        assert_eq!(rate("companion replay"), rate("companion  hits"), "{text}");
    }

    #[test]
    fn a_parked_hit_is_a_factorization_saved_and_the_cache_table_shows_it() {
        use wavepipe_circuit::{Circuit, Waveform};
        use wavepipe_engine::{run_transient, FaultPlan, GmresConfig, SimOptions, SolverHandle};
        // Corners every 2 d behind `tstep = d/2`: every restart climbs d/8,
        // d/4, d/2, d, d/8 — four linear-stamp keys in rotation (the deck of
        // `tests/spare_factors.rs`).
        let d = 1.0 / f64::from(1u32 << 20);
        let mut ckt = Circuit::new("zigzag rc");
        let (a, b, c) = (ckt.node("a"), ckt.node("b"), ckt.node("c"));
        let zigzag = (0..=32).map(|k| (f64::from(k) * 2.0 * d, f64::from(k % 2) * 0.2)).collect();
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::pwl(zigzag)).unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 100e-9).unwrap();
        ckt.add_resistor("R2", b, c, 1e3).unwrap();
        ckt.add_capacitor("C2", c, Circuit::GROUND, 100e-9).unwrap();
        let deck = Benchmark {
            name: "zigzag_rc".into(),
            circuit: ckt,
            tstep: d / 2.0,
            tstop: 64.0 * d,
            class: generators::CircuitClass::Analog,
            probes: vec!["c".into()],
        };
        // Everything an environment leg of CI can flip is pinned.
        let pinned = |solver: SolverHandle| {
            SimOptions::default()
                .with_bypass(true)
                .with_chord_newton(true)
                .with_companion_cache(true)
                .with_faults(FaultPlan::new())
                .with_solver(solver)
        };
        let probe = RecordingProbe::shared();
        let opts = WavePipeOptions::new(Scheme::Serial, 1)
            .with_sim(pinned(SolverHandle::direct()))
            .with_probe(ProbeHandle::new(probe.clone()));
        let report = run_wavepipe(&deck.circuit, deck.tstep, deck.tstop, &opts).unwrap();
        let run = DoctorRun { report, events: probe.events() };
        let analysis = analyze(&run.events);
        // The count without parked sets: the GMRES backend keeps none, and
        // with no iterations allowed it is the direct backend call for call
        // (`tests/solver_equivalence.rs`).
        let nowhere = SolverHandle::gmres(GmresConfig { max_iters: 0, ..GmresConfig::default() });
        let reference =
            run_transient(&deck.circuit, deck.tstep, deck.tstop, &pinned(nowhere)).unwrap();
        let saved = reference.stats().factorizations - run.report.total.factorizations;
        assert!(saved >= 90, "{saved} factorizations saved");
        assert_eq!(analysis.counts.parked_hits, saved as u64);
        // Every other new key was factored for (a linear deck: no chord step
        // ever stalls into a factorization of its own).
        assert_eq!(analysis.counts.parked_misses, analysis.counts.factorizations);
        let text = doctor_text("t", &analysis, true);
        let row = text.lines().find(|l| l.trim_start().starts_with("parked")).expect("parked row");
        assert!(row.contains(&format!("hits  {saved:>10}")), "{row}");
    }

    #[test]
    fn a_lane_s_pivot_check_is_the_plan_layer_s_hit_or_miss_and_the_cache_table_shows_it() {
        use wavepipe_engine::{FaultPlan, SimOptions, SolverHandle};
        // Everything an environment leg of CI can flip is pinned: a lane is
        // handed the operating point's plan only under the direct backend.
        let sim = SimOptions::default()
            .with_bypass(true)
            .with_chord_newton(true)
            .with_companion_cache(true)
            .with_faults(FaultPlan::new())
            .with_solver(SolverHandle::direct());
        // The grid's worker keeps the plan; the chain's pivots its first
        // transient matrix otherwise and pays its own factorization.
        for (spec, hits, misses) in [("power_grid:16,16", 1, 0), ("inverter_chain:8", 0, 1)] {
            let b = circuit_by_spec(spec).unwrap();
            let probe = RecordingProbe::shared();
            let opts = WavePipeOptions::new(Scheme::Backward, 2)
                .with_sim(sim.clone())
                .with_probe(ProbeHandle::new(probe.clone()));
            run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
            let analysis = analyze(&probe.events());
            assert_eq!(analysis.counts.plan_hits, hits, "{spec}");
            assert_eq!(analysis.counts.plan_misses, misses, "{spec}");
            let text = doctor_text("t", &analysis, true);
            let row = text.lines().find(|l| l.trim_start().starts_with("plan")).expect("plan row");
            assert!(row.contains(&format!("hits  {hits:>10}  misses   {misses:>10}")), "{row}");
        }
    }

    #[test]
    fn report_sections_respect_stable_flag() {
        let b = generators::rc_ladder(6);
        let run = run_instrumented(&b, Scheme::Backward, 2);
        let a = analyze(&run.events);
        let stable = doctor_text("t", &a, true);
        assert!(stable.contains("== stable"));
        assert!(!stable.contains("== timing"));
        let full = doctor_text("t", &a, false);
        assert!(full.contains("== timing"));
        let json_doc = doctor_json("t", &a, true);
        let parsed = wavepipe_telemetry::json::parse(&json_doc).expect("doctor json parses");
        assert!(parsed.get("analysis").is_some());
    }

    #[test]
    fn live_runs_close_the_timing_section_with_the_handoff_ledger() {
        let live = |json: bool, stable_only: bool| {
            run_doctor(&DoctorArgs {
                spec: "rc_ladder:6".to_string(),
                scheme: Scheme::Backward,
                threads: 2,
                json,
                stable_only,
                replay: None,
            })
            .unwrap()
        };
        let text = live(false, false);
        let ledger = text.lines().last().unwrap();
        assert!(ledger.starts_with("  hand-off dispatch/lead/wait/commit "), "{text}");
        assert!(!live(false, true).contains("hand-off"));
        let doc = wavepipe_telemetry::json::parse(&live(true, false)).expect("doctor json parses");
        let handoff = doc.get("handoff").expect("handoff object");
        for part in ["dispatch_ns", "lead_ns", "wait_ns", "commit_ns", "wall_ns"] {
            assert!(handoff.get(part).is_some(), "{part}");
        }
        assert!(!live(true, true).contains("handoff"));
    }

    #[test]
    fn replay_round_trips_through_jsonl() {
        // Class and cache tables included: the replay folds the same events.
        let (spec, scheme, threads) = ("inverter_chain:8", Scheme::Backward, 2);
        let run = run_instrumented(&circuit_by_spec(spec).unwrap(), scheme, threads);
        let mut buf = Vec::new();
        wavepipe_telemetry::jsonl::write_jsonl(&run.events, &mut buf).unwrap();
        let dir =
            std::env::temp_dir().join(format!("wavepipe_doctor_replay_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, &buf).unwrap();
        for json in [false, true] {
            let args = |replay| DoctorArgs {
                spec: spec.to_string(),
                scheme,
                threads,
                json,
                stable_only: true,
                replay,
            };
            let (live, replay) = (args(None), args(Some(path.clone())));
            let replayed = run_doctor(&replay).unwrap();
            assert!(replayed.contains("mos") && replayed.contains("chord"), "{replayed}");
            let retitled = replayed.replace(&replay.title(), &live.title());
            assert_eq!(retitled, run_doctor(&live).unwrap(), "json: {json}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
