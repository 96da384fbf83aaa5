//! Run a SPICE-style netlist through WavePipe from the command line.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example netlist_runner -- <deck.sp> [scheme] [threads] \
//!     [--trace <path>] [--trace-format jsonl|chrome]
//! ```
//!
//! where `scheme` is one of `serial`, `backward`, `forward`, `combined`
//! (default `backward`) and `threads` defaults to 2. The deck's `.tran`
//! directive is the analysis. With no arguments, a built-in demonstration
//! deck (diode clipper) is simulated. The waveform of every node is written
//! next to the deck as `<deck>.csv`.
//!
//! `--trace` attaches a recording probe and writes the event stream to
//! `<path>`: `chrome` (default) produces a Chrome trace-event JSON document
//! (load it in `chrome://tracing` or Perfetto to *see* the per-lane
//! pipelining overlap), `jsonl` one JSON object per event for scripted
//! analysis. The trace analysis `wavepipe-doctor` prints (counts, step-size
//! histogram, per-lane utilisation) follows either way.
//!
//! On failure the process exits with a cause-specific code so scripted
//! sweeps can branch without parsing stderr: `2` Newton no-convergence
//! (with the solver's forensic report on stderr), `3` timestep underflow,
//! `4` numerical blowup, `5` singular matrix, `6` deadline/cancellation,
//! `7` lost worker, `1` everything else.

use std::path::PathBuf;
use wavepipe::circuit::parse_netlist;
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::EngineError;
use wavepipe::telemetry::{analyze, chrome, jsonl, ProbeHandle, RecordingProbe};

/// Cause-specific process exit code, so scripted sweeps can tell a
/// convergence failure from a timestep underflow or an expired budget
/// without parsing stderr.
fn exit_code(e: &(dyn std::error::Error + 'static)) -> i32 {
    let Some(e) = e.downcast_ref::<EngineError>() else { return 1 };
    match e {
        EngineError::NoConvergence { .. } => 2,
        EngineError::TimestepTooSmall { .. } => 3,
        EngineError::NumericalBlowup { .. } => 4,
        EngineError::Linear(_) => 5,
        EngineError::DeadlineExceeded { .. } | EngineError::Cancelled { .. } => 6,
        EngineError::WorkerLost { .. } => 7,
        _ => 1,
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error   : {e}");
        // Convergence failures carry solver forensics (worst-residual node,
        // iteration history, recovery rungs tried) — print them in full.
        if let Some(EngineError::NoConvergence { report, .. }) = e.downcast_ref::<EngineError>() {
            eprintln!("detail  : {report}");
        }
        std::process::exit(exit_code(e.as_ref()));
    }
}

const DEMO_DECK: &str = "\
diode clipper demo
Vin in 0 SIN(0 3 2meg)
R1 in mid 1k
D1 mid 0 DCLIP
D2 0 mid DCLIP
C1 mid 0 100p
.model DCLIP D (IS=1e-14 N=1.2 CJ0=2p)
.tran 5n 2u
.end
";

/// `jsonl` or `chrome` trace output.
enum TraceFormat {
    Jsonl,
    Chrome,
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    // Split flag arguments (`--trace <path>`, `--trace-format <fmt>`) from
    // the positional deck/scheme/threads arguments.
    let mut trace_path: Option<PathBuf> = None;
    let mut trace_format = TraceFormat::Chrome;
    let mut args: Vec<String> = vec![std::env::args().next().unwrap_or_default()];
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--trace" => {
                let p = raw.next().ok_or("--trace needs a file path")?;
                trace_path = Some(PathBuf::from(p));
            }
            "--trace-format" => {
                trace_format = match raw.next().as_deref() {
                    Some("jsonl") => TraceFormat::Jsonl,
                    Some("chrome") => TraceFormat::Chrome,
                    other => {
                        return Err(format!(
                            "--trace-format must be `jsonl` or `chrome`, got {other:?}"
                        )
                        .into())
                    }
                };
            }
            _ => args.push(a),
        }
    }
    let (deck_text, out_path) = match args.get(1) {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            (text, PathBuf::from(format!("{path}.csv")))
        }
        None => {
            println!("no deck given — using the built-in diode clipper demo\n");
            (DEMO_DECK.to_string(), PathBuf::from("clipper_demo.csv"))
        }
    };
    let scheme = match args.get(2).map(String::as_str) {
        None | Some("backward") => Scheme::Backward,
        Some("serial") => Scheme::Serial,
        Some("forward") => Scheme::Forward,
        Some("combined") => Scheme::Combined,
        Some(other) => return Err(format!("unknown scheme `{other}`").into()),
    };
    let threads: usize = args.get(3).map_or(Ok(2), |s| s.parse())?;

    let parsed = parse_netlist(&deck_text)?;

    let tran = parsed.tran.ok_or("deck has no .tran directive — add `.tran tstep tstop`")?;
    println!("circuit : {}", parsed.circuit.summary());
    println!("analysis: .tran {:.3e} {:.3e} ({scheme}, {threads} threads)", tran.tstep, tran.tstop);

    let mut opts = WavePipeOptions::new(scheme, threads);
    let probe = trace_path.as_ref().map(|_| RecordingProbe::shared());
    if let Some(probe) = &probe {
        opts = opts.with_probe(ProbeHandle::new(probe.clone()));
    }

    let report = run_wavepipe(&parsed.circuit, tran.tstep, tran.tstop, &opts)?;
    println!("run     : {}", report.summary());

    if let (Some(path), Some(probe)) = (&trace_path, &probe) {
        use std::io::Write as _;
        let events = probe.events();
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        match trace_format {
            TraceFormat::Jsonl => jsonl::write_jsonl(&events, &mut file)?,
            TraceFormat::Chrome => chrome::write_chrome_trace(&events, &mut file)?,
        }
        file.flush()?;
        println!("trace   : {} ({} events)", path.display(), events.len());
        let deck = args.get(1).map_or("built-in demo", String::as_str);
        let title = format!("{deck}, {scheme} x{threads}");
        print!("{}", analyze(&events).report(&title));
    }

    // Dump every signal node to CSV.
    let columns: Vec<(String, usize)> = parsed
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
