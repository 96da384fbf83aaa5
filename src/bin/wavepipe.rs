//! `wavepipe` — the simulator's command line (flags: [`USAGE`]). Both
//! subcommands take a circuit: a SPICE deck, simulated over its `.tran`
//! directive, or a generator spec such as `inverter_chain:40`.
//!
//! `run` prints the run summary and writes every signal node's waveform to
//! `<deck>.csv` (a spec's to `<spec>.csv` here, `:` and `,` as `_`). With
//! `--trace` it records the event stream — a Chrome trace to open in
//! `chrome://tracing` or Perfetto, or one JSON object per event — and prints
//! the doctor report of it.
//!
//! `doctor` runs the circuit with the recording probe attached (or reads a
//! recorded JSONL stream with `--replay`), folds the events once into the
//! trace analysis and prints its report. A live run and a replay of its
//! trace take the same path from the events on, so they print the same
//! stable report. The report has two sections (see
//! [`wavepipe::telemetry::analyze`]): a **stable** section derived purely
//! from event counts (byte-reproducible across identical seeded runs at a
//! fixed thread count — the determinism tests pin this), and a **timing**
//! section derived from timestamps (varies run to run, suppressed by
//! `--stable`), which for a live run ends with the report's measured
//! hand-off ledger.
//!
//! A failure exits with a code by its cause: [`exit_code`] for a simulation
//! failure, [`USAGE_EXIT`] for a usage error, `1` for anything else.

use std::error::Error;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use wavepipe::circuit::generators::{self, Benchmark};
use wavepipe::circuit::{parse_netlist, Circuit};
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions, WavePipeReport};
use wavepipe::engine::EngineError;
use wavepipe::telemetry::analyze::{analyze, TraceAnalysis};
use wavepipe::telemetry::{chrome, jsonl, Event, ProbeHandle, RecordingProbe};

const USAGE: &str = "usage: wavepipe run <circuit> [--scheme <s>] [--threads <n>] \
     [--trace <path>] [--trace-format jsonl|chrome]\n       \
     wavepipe doctor [<circuit>] [--scheme <s>] [--threads <n>] [--json] [--stable] \
     [--replay <file>]\n\
     \n\
     circuit            a SPICE deck with a .tran line, or a generator spec such as\n\
     \x20                  inverter_chain:120 or power_grid:10,10 (doctor default inverter_chain:120)\n\
     --scheme <s>       serial | backward | forward | combined (default: run backward, doctor combined)\n\
     --threads <n>      worker threads (default: run 2, doctor 4)\n\
     --trace <path>     run: record the event stream to <path>, then print the doctor report\n\
     --trace-format <f> run: chrome (default) or jsonl\n\
     --json             doctor: emit one JSON document instead of text tables\n\
     --stable           doctor: stable section only (byte-reproducible across identical runs)\n\
     --replay <file>    doctor: analyze a recorded JSONL event stream instead of running\n";

/// Exit code of a usage error: none of the simulation-failure codes of
/// [`exit_code`] (`EX_USAGE` of BSD's `sysexits.h`).
const USAGE_EXIT: i32 = 64;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) if msg == USAGE => {
            print!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(USAGE_EXIT);
        }
    };
    let done = match args.command {
        Command::Run => run(&args),
        Command::Doctor => run_doctor(&args).map(|report| println!("{report}")),
    };
    if let Err(e) = done {
        eprintln!("error   : {e}");
        // Convergence failures carry solver forensics (worst-residual node,
        // iteration history, recovery rungs tried) — print them in full.
        if let Some(EngineError::NoConvergence { report, .. }) = e.downcast_ref::<EngineError>() {
            eprintln!("detail  : {report}");
        }
        std::process::exit(exit_code(e.as_ref()));
    }
}

/// Cause-specific process exit code, so scripted sweeps can tell a
/// convergence failure from a numerical blowup or an expired budget
/// without parsing stderr: `2` Newton no-convergence (with the solver's
/// forensic report on stderr), `4` numerical blowup, `5` singular matrix,
/// `6` deadline/cancellation, `7` lost worker, `1` anything else.
fn exit_code(e: &(dyn Error + 'static)) -> i32 {
    let Some(e) = e.downcast_ref::<EngineError>() else { return 1 };
    match e {
        EngineError::NoConvergence { .. } => 2,
        EngineError::NumericalBlowup { .. } => 4,
        EngineError::Linear(_) => 5,
        EngineError::DeadlineExceeded { .. } | EngineError::Cancelled { .. } => 6,
        EngineError::WorkerLost { .. } => 7,
        _ => 1,
    }
}

/// The subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Run,
    Doctor,
}

/// `jsonl` or `chrome` trace output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Jsonl,
    Chrome,
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    command: Command,
    /// Deck path or circuit spec (`inverter_chain:120`); ignored with
    /// `--replay`.
    input: String,
    scheme: Scheme,
    threads: usize,
    /// `doctor`: emit JSON instead of the text tables.
    json: bool,
    /// `doctor`: suppress the timestamp-derived (unstable) section.
    stable_only: bool,
    /// `doctor`: replay a recorded JSONL event stream instead of running.
    replay: Option<PathBuf>,
    /// `run`: where to write the event stream.
    trace: Option<PathBuf>,
    trace_format: TraceFormat,
}

impl Args {
    /// Parses the arguments after argv\[0\].
    ///
    /// # Errors
    ///
    /// Returns a usage message on an unknown command or flag, a malformed
    /// value, or a circuit that is neither a file nor a generator spec.
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let command = match args.next().as_deref() {
            Some("run") => Command::Run,
            Some("doctor") => Command::Doctor,
            Some("--help" | "-h") => return Err(USAGE.to_string()),
            None => return Err(format!("no command given\n{USAGE}")),
            Some(other) => return Err(format!("unknown command `{other}`\n{USAGE}")),
        };
        let (scheme, threads) = match command {
            Command::Run => (Scheme::Backward, 2),
            Command::Doctor => (Scheme::Combined, 4),
        };
        let mut parsed = Args {
            command,
            input: String::new(),
            scheme,
            threads,
            json: false,
            stable_only: false,
            replay: None,
            trace: None,
            trace_format: TraceFormat::Chrome,
        };
        let mut input = None;
        while let Some(a) = args.next() {
            let mut value = || args.next().ok_or(format!("{a} needs a value"));
            match (command, a.as_str()) {
                (_, "--scheme") => parsed.scheme = scheme_by_name(&value()?)?,
                (_, "--threads") => {
                    let t = value()?;
                    parsed.threads = t
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad thread count `{t}`: at least 1"))?;
                }
                (Command::Run, "--trace") => parsed.trace = Some(PathBuf::from(value()?)),
                (Command::Run, "--trace-format") => match value()?.as_str() {
                    "jsonl" => parsed.trace_format = TraceFormat::Jsonl,
                    "chrome" => parsed.trace_format = TraceFormat::Chrome,
                    other => {
                        return Err(format!("unknown trace format `{other}`: jsonl or chrome"))
                    }
                },
                (Command::Doctor, "--json") => parsed.json = true,
                (Command::Doctor, "--stable") => parsed.stable_only = true,
                (Command::Doctor, "--replay") => parsed.replay = Some(PathBuf::from(value()?)),
                (_, "--help" | "-h") => return Err(USAGE.to_string()),
                (_, flag) if flag.starts_with("--") => {
                    return Err(format!("unknown flag `{flag}`\n{USAGE}"))
                }
                (_, circuit) if input.is_none() => {
                    if !Path::new(circuit).is_file() {
                        circuit_by_spec(circuit)?; // validate early for a clean error
                    }
                    input = Some(circuit.to_string());
                }
                (_, extra) => return Err(format!("unexpected argument `{extra}`\n{USAGE}")),
            }
        }
        parsed.input = match (command, input) {
            (_, Some(input)) => input,
            (Command::Doctor, None) => "inverter_chain:120".to_string(),
            (Command::Run, None) => return Err(format!("run needs a circuit\n{USAGE}")),
        };
        Ok(parsed)
    }

    /// The deterministic report title for this invocation.
    fn title(&self) -> String {
        match &self.replay {
            Some(p) => format!("replay {}", p.display()),
            None => format!("{}, {} x{}", self.input, self.scheme, self.threads),
        }
    }
}

/// Parses a circuit spec like `inverter_chain:120`, `power_grid:10,10` or
/// `diode_rectifier` into a generated benchmark.
///
/// # Errors
///
/// Returns a message listing the known generators when the name or the
/// argument list does not match, and one naming the generator's least size
/// when a size is below it.
fn circuit_by_spec(spec: &str) -> Result<Benchmark, String> {
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
    // The size, or `default` without one; below `least` the generator
    // would panic, so that is a usage error.
    let one = |default: usize, least: usize| match args.first().copied().unwrap_or(default) {
        n if n < least => Err(format!("`{spec}`: {name} needs a size of at least {least}")),
        n => Ok(n),
    };
    match (name, args.len()) {
        ("rc_ladder", 0 | 1) => Ok(generators::rc_ladder(one(100, 1)?)),
        ("rlc_line", 0 | 1) => Ok(generators::rlc_line(one(40, 1)?)),
        ("power_grid", 0) => Ok(generators::power_grid(10, 10)),
        ("power_grid", 2) if args[0] < 2 || args[1] < 2 => {
            Err(format!("`{spec}`: power_grid needs at least a 2x2 mesh"))
        }
        ("power_grid", 2) => Ok(generators::power_grid(args[0], args[1])),
        ("inverter_chain", 0 | 1) => Ok(generators::inverter_chain(one(120, 1)?)),
        ("ring_oscillator", 0 | 1) => match one(9, 3)? {
            n if n % 2 == 0 => Err(format!("`{spec}`: ring_oscillator needs an odd stage count")),
            n => Ok(generators::ring_oscillator(n)),
        },
        ("nand_chain", 0 | 1) => Ok(generators::nand_chain(one(40, 1)?)),
        ("amp_chain", 0 | 1) => Ok(generators::amp_chain(one(20, 1)?)),
        ("bjt_amp_chain", 0 | 1) => Ok(generators::bjt_amp_chain(one(20, 1)?)),
        ("diode_rectifier", 0) => Ok(generators::diode_rectifier()),
        _ => Err(format!(
            "unknown circuit spec `{spec}` — use one of rc_ladder[:n], rlc_line[:n], \
             power_grid[:rows,cols], inverter_chain[:n], ring_oscillator[:n], nand_chain[:n], \
             amp_chain[:n], bjt_amp_chain[:n], diode_rectifier, or a deck file"
        )),
    }
}

/// Parses a scheme name as used on the command line.
///
/// # Errors
///
/// Returns a message listing the valid names.
fn scheme_by_name(name: &str) -> Result<Scheme, String> {
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

/// A circuit and the window it is simulated over.
struct Deck {
    circuit: Circuit,
    tstep: f64,
    tstop: f64,
}

/// Loads a circuit: a file is a SPICE deck, simulated over its `.tran`
/// directive; anything else is a generator spec.
fn load(input: &str) -> Result<Deck, Box<dyn Error>> {
    if !Path::new(input).is_file() {
        let b = circuit_by_spec(input)?;
        return Ok(Deck { circuit: b.circuit, tstep: b.tstep, tstop: b.tstop });
    }
    let parsed = parse_netlist(&std::fs::read_to_string(input)?)?;
    let tran = parsed.tran.ok_or("deck has no .tran directive — add `.tran tstep tstop`")?;
    Ok(Deck { circuit: parsed.circuit, tstep: tran.tstep, tstop: tran.tstop })
}

/// Everything one instrumented run produces.
#[derive(Debug)]
struct DoctorRun {
    /// The simulation report.
    report: WavePipeReport,
    /// The recorded telemetry event stream.
    events: Vec<Event>,
}

/// Runs a deck with the [`RecordingProbe`] attached, returning report and
/// events.
///
/// # Errors
///
/// Returns the simulation's failure.
fn run_instrumented(deck: &Deck, scheme: Scheme, threads: usize) -> Result<DoctorRun, EngineError> {
    let probe = RecordingProbe::shared();
    let opts = WavePipeOptions::new(scheme, threads).with_probe(ProbeHandle::new(probe.clone()));
    let report = run_wavepipe(&deck.circuit, deck.tstep, deck.tstop, &opts)?;
    Ok(DoctorRun { report, events: probe.events() })
}

/// The analysis' report, its timing section closed by the hand-off ledger
/// of the live run's `report`. The ledger is measured by the run, not
/// derived from events — a replay has none — and is wall-clock, so the
/// stable report never carries it.
fn render_text(
    title: &str,
    analysis: &TraceAnalysis,
    stable_only: bool,
    report: Option<&WavePipeReport>,
) -> String {
    let mut out = analysis.report(title, stable_only);
    if let Some(ledger) = report.filter(|_| !stable_only).and_then(WavePipeReport::handoff_ledger) {
        let _ = writeln!(out, "  {ledger}");
    }
    out
}

/// Renders the doctor report as one JSON document:
/// `{"title":..., "analysis":{...}}`. With `stable_only` the analysis omits
/// its timing object; otherwise a live run's `report` adds a `"handoff"`
/// object with the measured ledger (see [`render_text`]; all zeros for a
/// serial run).
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
        wavepipe::telemetry::json::escape(title),
        analysis.to_json(stable_only),
        handoff
    )
}

/// Writes `events` to `path` in `format`: the one trace writer.
fn write_trace(path: &Path, format: TraceFormat, events: &[Event]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    match format {
        TraceFormat::Jsonl => jsonl::write_jsonl(events, &mut file)?,
        TraceFormat::Chrome => chrome::write_chrome_trace(events, &mut file)?,
    }
    file.flush()
}

/// `wavepipe run`: simulates, prints the summary (and with `--trace` the
/// doctor report of the recorded events), and writes the waveform CSV.
fn run(args: &Args) -> Result<(), Box<dyn Error>> {
    let deck = load(&args.input)?;
    let (scheme, threads) = (args.scheme, args.threads);
    println!("circuit : {}", deck.circuit.summary());
    println!("analysis: .tran {:.3e} {:.3e} ({scheme}, {threads} threads)", deck.tstep, deck.tstop);
    let (report, events) = match &args.trace {
        Some(_) => {
            let run = run_instrumented(&deck, scheme, threads)?;
            (run.report, Some(run.events))
        }
        None => {
            let opts = WavePipeOptions::new(scheme, threads);
            (run_wavepipe(&deck.circuit, deck.tstep, deck.tstop, &opts)?, None)
        }
    };
    println!("run     : {}", report.summary());
    if let (Some(path), Some(events)) = (&args.trace, &events) {
        write_trace(path, args.trace_format, events)?;
        println!("trace   : {} ({} events)", path.display(), events.len());
        print!("{}", render_text(&args.title(), &analyze(events), false, Some(&report)));
    }

    // Every signal node, next to the deck (a spec's in the current directory).
    let out_path = if Path::new(&args.input).is_file() {
        PathBuf::from(format!("{}.csv", args.input))
    } else {
        PathBuf::from(format!("{}.csv", args.input.replace([':', ','], "_")))
    };
    let columns: Vec<(String, usize)> = deck
        .circuit
        .signal_node_names()
        .filter_map(|n| report.result.unknown_of(n).map(|u| (n.to_string(), u)))
        .collect();
    std::fs::write(&out_path, report.result.to_csv(&columns))?;
    println!(
        "wrote   : {} ({} points x {} nodes)",
        out_path.display(),
        report.result.len(),
        columns.len()
    );
    Ok(())
}

/// `wavepipe doctor`: executes a parsed invocation end to end and returns
/// the rendered report.
///
/// # Errors
///
/// Returns a load or simulation failure, or a replay file that cannot be
/// read or parsed.
fn run_doctor(args: &Args) -> Result<String, Box<dyn Error>> {
    let title = args.title();
    let (events, report) = match &args.replay {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let events =
                jsonl::parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            (events, None)
        }
        None => {
            let run = run_instrumented(&load(&args.input)?, args.scheme, args.threads)?;
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
    fn every_generator_refuses_a_size_below_its_least_and_builds_at_it() {
        for (below, least, named) in [
            ("rc_ladder:0", "rc_ladder:1", "at least 1"),
            ("rlc_line:0", "rlc_line:1", "at least 1"),
            ("power_grid:1,2", "power_grid:2,2", "at least a 2x2 mesh"),
            ("power_grid:2,1", "power_grid:2,2", "at least a 2x2 mesh"),
            ("inverter_chain:0", "inverter_chain:1", "at least 1"),
            ("ring_oscillator:2", "ring_oscillator:3", "at least 3"),
            ("nand_chain:0", "nand_chain:1", "at least 1"),
            ("amp_chain:0", "amp_chain:1", "at least 1"),
            ("bjt_amp_chain:0", "bjt_amp_chain:1", "at least 1"),
        ] {
            let err = circuit_by_spec(below).unwrap_err();
            assert!(err.contains(named), "{below}: {err}");
            assert!(circuit_by_spec(least).is_ok(), "{least}");
            assert!(Args::parse(argv(&["doctor", below])).is_err(), "{below}");
        }
        assert!(circuit_by_spec("ring_oscillator:4").unwrap_err().contains("odd"));
    }

    #[test]
    fn args_parse_flags_and_reject_junk() {
        let a = Args::parse(argv(&[
            "doctor",
            "rc_ladder:6",
            "--scheme",
            "backward",
            "--threads",
            "2",
            "--stable",
            "--json",
        ]))
        .unwrap();
        assert_eq!(a.input, "rc_ladder:6");
        assert_eq!(a.scheme, Scheme::Backward);
        assert_eq!(a.threads, 2);
        assert!(a.stable_only && a.json);
        assert_eq!(a.title(), "rc_ladder:6, backward x2");
        assert!(Args::parse(argv(&["doctor", "--scheme", "sideways"])).is_err());
        // The adaptive scheduler is gone; its name gets the list of schemes.
        let err = Args::parse(argv(&["doctor", "--scheme", "adaptive"])).unwrap_err();
        assert!(
            err.contains("`adaptive`") && err.contains("serial, backward, forward or combined")
        );
        assert!(Args::parse(argv(&["doctor", "--no-such-flag"])).is_err());
        assert!(Args::parse(argv(&["doctor", "rc_ladder:6", "extra"])).is_err());
        // A width of 0 would run x1 under a title that says x0.
        for command in ["run", "doctor"] {
            let err = Args::parse(argv(&[command, "rc_ladder:6", "--threads", "0"])).unwrap_err();
            assert!(err.contains("bad thread count `0`"), "{err}");
        }
    }

    #[test]
    fn each_subcommand_takes_only_its_own_flags() {
        let parts = ["run", "rc_ladder:6", "--trace", "t.jsonl", "--trace-format", "jsonl"];
        let run = Args::parse(argv(&parts)).unwrap();
        assert_eq!((run.command, run.scheme, run.threads), (Command::Run, Scheme::Backward, 2));
        assert_eq!(
            (run.trace.as_deref(), run.trace_format),
            (Some(Path::new("t.jsonl")), TraceFormat::Jsonl)
        );
        assert!(Args::parse(argv(&["run"])).is_err(), "run needs a circuit");
        assert!(Args::parse(argv(&["run", "rc_ladder:6", "--stable"])).is_err());
        assert!(Args::parse(argv(&["doctor", "--trace", "t.json"])).is_err());
        assert!(Args::parse(argv(&["run", "rc_ladder:6", "--trace-format", "xml"])).is_err());
        assert!(Args::parse(argv(&["simulate", "rc_ladder:6"])).is_err());
        let doctor = Args::parse(argv(&["doctor"])).unwrap();
        assert_eq!(doctor.title(), "inverter_chain:120, combined x4");
    }

    #[test]
    fn instrumented_run_populates_events_and_metrics() {
        let run = run_instrumented(&load("rc_ladder:6").unwrap(), Scheme::Backward, 2).unwrap();
        assert!(run.report.result.len() > 5);
        assert!(!run.events.is_empty());
        let counts = analyze(&run.events).counts;
        assert!(counts.points_accepted > 0);
        assert!(counts.solves > 0);
        assert_eq!(counts.points_accepted as usize, run.report.total.steps_accepted);
    }

    fn traced_run(spec: &str, scheme: Scheme, threads: usize) -> DoctorRun {
        run_instrumented(&load(spec).unwrap(), scheme, threads).unwrap()
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
        use wavepipe::telemetry::json::{self, JsonValue};
        let run = traced_run("inverter_chain:40", Scheme::Combined, 3);
        let analysis = analyze(&run.events);
        let text = analysis.report("t", true);
        let doc_text = render_json("t", &analysis, true, None);
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
        let text = analyze(&run.events).report("t", true);
        let rate = |prefix: &str| {
            let line = text.lines().find(|l| l.trim_start().starts_with(prefix)).unwrap();
            let word = line.split_whitespace().find(|w| w.ends_with('%')).unwrap();
            word.trim_start_matches('(').to_string()
        };
        assert_eq!(rate("companion replay"), rate("companion  hits"), "{text}");
    }

    #[test]
    fn a_parked_hit_is_a_factorization_saved_and_the_cache_table_shows_it() {
        use wavepipe::circuit::Waveform;
        use wavepipe::engine::{run_transient, FaultPlan, GmresConfig, SimOptions, SolverHandle};
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
        let deck = Deck { circuit: ckt, tstep: d / 2.0, tstop: 64.0 * d };
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
        let text = analysis.report("t", true);
        let row = text.lines().find(|l| l.trim_start().starts_with("parked")).expect("parked row");
        assert!(row.contains(&format!("hits  {saved:>10}")), "{row}");
    }

    #[test]
    fn a_lane_s_pivot_check_is_the_plan_layer_s_hit_or_miss_and_the_cache_table_shows_it() {
        use wavepipe::engine::{FaultPlan, SimOptions, SolverHandle};
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
            let b = load(spec).unwrap();
            let probe = RecordingProbe::shared();
            let opts = WavePipeOptions::new(Scheme::Backward, 2)
                .with_sim(sim.clone())
                .with_probe(ProbeHandle::new(probe.clone()));
            run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
            let analysis = analyze(&probe.events());
            assert_eq!(analysis.counts.plan_hits, hits, "{spec}");
            assert_eq!(analysis.counts.plan_misses, misses, "{spec}");
            let text = analysis.report("t", true);
            let row = text.lines().find(|l| l.trim_start().starts_with("plan")).expect("plan row");
            assert!(row.contains(&format!("hits  {hits:>10}  misses   {misses:>10}")), "{row}");
        }
    }

    #[test]
    fn report_sections_respect_stable_flag() {
        let run = traced_run("rc_ladder:6", Scheme::Backward, 2);
        let a = analyze(&run.events);
        let stable = a.report("t", true);
        assert!(stable.contains("== stable"));
        assert!(!stable.contains("== timing"));
        let full = a.report("t", false);
        assert!(full.contains("== timing"));
        let json_doc = render_json("t", &a, true, None);
        let parsed = wavepipe::telemetry::json::parse(&json_doc).expect("doctor json parses");
        assert!(parsed.get("analysis").is_some());
    }

    #[test]
    fn live_runs_close_the_timing_section_with_the_handoff_ledger() {
        let live = |json: bool, stable_only: bool| {
            let mut parts = vec!["doctor", "rc_ladder:6", "--scheme", "backward", "--threads", "2"];
            parts.extend(
                [("--json", json), ("--stable", stable_only)]
                    .into_iter()
                    .filter_map(|(f, on)| on.then_some(f)),
            );
            run_doctor(&Args::parse(argv(&parts)).unwrap()).unwrap()
        };
        let text = live(false, false);
        let ledger = text.lines().last().unwrap();
        assert!(ledger.starts_with("  hand-off dispatch/lead/wait/commit "), "{text}");
        assert!(!live(false, true).contains("hand-off"));
        let doc = wavepipe::telemetry::json::parse(&live(true, false)).expect("doctor json parses");
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
        let run = traced_run(spec, scheme, threads);
        let mut buf = Vec::new();
        jsonl::write_jsonl(&run.events, &mut buf).unwrap();
        let dir =
            std::env::temp_dir().join(format!("wavepipe_doctor_replay_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, &buf).unwrap();
        for json in [false, true] {
            let args = |replay: &[&str]| {
                let mut parts = vec!["doctor", spec, "--scheme", "backward", "--threads", "2"];
                parts.extend(["--stable"].iter().chain(json.then_some(&"--json")).chain(replay));
                Args::parse(argv(&parts)).unwrap()
            };
            let (live, replay) = (args(&[]), args(&["--replay", path.to_str().unwrap()]));
            let replayed = run_doctor(&replay).unwrap();
            assert!(replayed.contains("mos") && replayed.contains("chord"), "{replayed}");
            let retitled = replayed.replace(&replay.title(), &live.title());
            assert_eq!(retitled, run_doctor(&live).unwrap(), "json: {json}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
