//! The WavePipe benchmark. See `README.md` beside `Cargo.toml` for the
//! workloads, the metric glossary and how the metrics interact.
//!
//! ```text
//! wavepipe-benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//!                    [--quick] [--out file] [--trace-out file]
//! wavepipe-benchmark all --out-dir <dir> [--seed n] [--seconds s] [--quick]
//! wavepipe-benchmark compare <A> <B>
//! wavepipe-benchmark describe
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use wavepipe_benchmark::json::{nums, obj, str, to_line, Json};
use wavepipe_benchmark::measure::RunConfig;
use wavepipe_benchmark::metrics::{Report, END_TO_END, PER_LAYER};
use wavepipe_benchmark::{compare, describe, layers, measure, workload};

const DEFAULT_SEED: u64 = 20_080_608;
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    out_dir: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
        trace_out: None,
        out_dir: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            a.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = Some(value.into()),
            "--trace-out" => a.trace_out = Some(value.into()),
            "--out-dir" => a.out_dir = Some(value.into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

/// First line of a command's output, or "unknown" when it cannot run.
fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the run happened: recorded in every result file.
fn provenance() -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // The repository this binary was built from, wherever it is run from.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut git = Command::new("git");
    git.arg("-C").arg(root).args(["rev-parse", "HEAD"]);
    vec![
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(first_line(Command::new("rustc").arg("-V")))),
        ("git_head", Json::Str(first_line(&mut git))),
    ]
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_workload(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let cfg = RunConfig { workload, seed: args.seed, seconds: args.seconds, quick: args.quick };
    let threads = workload::Runner::new(workload.engine).threads;

    let report: Report = if args.trace {
        let (report, tracer) = layers::run_per_layer(&cfg)?;
        if let Some(path) = &args.trace_out {
            write_file(path, &to_line(&tracer.to_chrome()))?;
        }
        report
    } else {
        measure::run_end_to_end(&cfg)?
    };

    // Every metric of the run's kind by name; one that does not apply to
    // this workload reads 0. `listed` marks what `BENCHMARK.json` names.
    let names: Vec<(&str, &str, bool)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit, true)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit, m.gated)).collect()
    };
    let correct = report.correct();
    println!("workload {name}: seed {} threads {threads} trace {}", args.seed, args.trace as u8);
    for note in &report.notes {
        println!("{note}");
    }
    let (mut all, mut listed) = (Vec::new(), Vec::new());
    for &(metric, unit, gated) in &names {
        let value = report.values.get(metric).copied();
        match value {
            Some(v) if unit == "count" => println!("{metric:<32} {v:>16} {unit}"),
            Some(v) => println!("{metric:<32} {v:>16.9} {unit}"),
            None => println!("{metric:<32} {:>16} {unit}", "n/a"),
        }
        let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        let entry = (metric, obj([("value", Json::Num(v)), ("unit", str(unit))]));
        if gated {
            listed.push(entry.clone());
        }
        all.push(entry);
    }
    println!("jobs_failed {} of jobs_attempted {}", report.failed, report.attempted);

    let result = |metrics: Vec<(&str, Json)>| {
        vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(report.attempted as f64)),
            ("failed", Json::Num(report.failed as f64)),
            ("metrics", obj(metrics)),
        ]
    };
    if let Some(path) = &args.out {
        let mut doc = result(all);
        doc.extend([
            ("workload", str(name)),
            ("trace", Json::Num(args.trace as u8 as f64)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("quick", Json::Bool(args.quick)),
            ("threads", Json::Num(threads as f64)),
            ("samples", obj(report.samples.iter().map(|(k, v)| (*k, nums(v))))),
        ]);
        doc.extend(provenance());
        write_file(path, &(to_line(&obj(doc)) + "\n"))?;
    }
    // The driver reads the last line of standard output.
    println!("{}", to_line(&obj(result(listed))));
    Ok(correct)
}

/// Every workload, untraced then traced, each in a process of its own so
/// that `peak_rss_mib` belongs to one workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let dir = args.out_dir.as_deref().ok_or("all needs --out-dir")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in &workload::WORKLOADS {
            let kind = if trace == "1" { "layers" } else { "e2e" };
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(dir.join(format!("{}.{kind}.json", w.name)));
            if trace == "1" {
                cmd.arg("--trace-out").arg(dir.join(format!("{}.chrome.json", w.name)));
            }
            if args.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status().map_err(|e| format!("{}: {e}", exe.display()))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // Thirteen knobs are read from the environment and would silently
    // change what a workload runs.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("WAVEPIPE_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("refusing to run with {} set: unset it first", knobs.join(", "));
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err("usage: compare <A> <B> (result files or directories of them)".into()),
        },
        Some("all") => parse_args(&argv[1..]).and_then(|a| run_all(&a)),
        Some("describe") => {
            println!("{}", to_line(&describe()));
            Ok(true)
        }
        _ => parse_args(&argv).and_then(|a| run_workload(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
