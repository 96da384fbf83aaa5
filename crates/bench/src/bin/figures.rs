//! Prints the figure data of the WavePipe evaluation (accuracy, step-size
//! profiles and thread scaling: Figures A–C) and writes the thread-scaling
//! series to `BENCH_figures.json` for machine tracking.
//!
//! Usage: `cargo run --release -p wavepipe-bench --bin figures [-- --small]
//! [--trace <path>] [--trace-format jsonl|chrome]`
//!
//! `--trace` additionally performs one Combined-scheme demonstration run on
//! the first suite benchmark with a recording probe attached and writes the
//! telemetry stream to `<path>`.

use wavepipe_bench::{
    fig_accuracy, fig_scaling, fig_step_profile, run_traced, scaling_to_json, suite, Scale,
    TraceArgs,
};
use wavepipe_core::Scheme;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (trace, args) = TraceArgs::parse(std::env::args().skip(1))?;
    let scale = if args.iter().any(|a| a == "--small") { Scale::Small } else { Scale::Full };
    println!("{}", fig_accuracy(scale));

    // Figure B on the two circuits whose step profiles differ the most.
    let all = suite(scale);
    for name_fragment in ["ring_oscillator", "power_grid"] {
        if let Some(b) = all.iter().find(|b| b.name.contains(name_fragment)) {
            println!("{}", fig_step_profile(b));
        }
    }

    // Figure C on a mixed and a digital workload.
    let mut scaling = Vec::new();
    for name_fragment in ["power_grid", "inverter_chain"] {
        if let Some(b) = all.iter().find(|b| b.name.contains(name_fragment)) {
            let (txt, series) = fig_scaling(b);
            println!("{txt}");
            scaling.push((b.name.clone(), series));
        }
    }

    let groups: Vec<(&str, &wavepipe_bench::ScalingSeries)> =
        scaling.iter().map(|(n, s)| (n.as_str(), s)).collect();
    std::fs::write("BENCH_figures.json", scaling_to_json(&groups))?;
    println!("wrote BENCH_figures.json");

    if let Some(path) = &trace.path {
        let b = &all[0];
        let (rep, events) = run_traced(b, Scheme::Combined, 4);
        trace.write(&events)?;
        println!(
            "wrote {} ({} events, traced {} on {})",
            path.display(),
            events.len(),
            rep.scheme,
            b.name
        );
    }
    Ok(())
}
