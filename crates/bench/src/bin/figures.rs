//! Prints the figure data of the WavePipe evaluation (accuracy, step-size
//! profiles and thread scaling: Figures A–C) and writes the thread-scaling
//! series to `BENCH_figures.json` for machine tracking.
//!
//! Usage: `cargo run --release -p wavepipe-bench --bin figures [-- --small]`;
//! any other argument is a usage error (exit 64).

use wavepipe_bench::{fig_accuracy, fig_scaling, fig_step_profile, scaling_to_json, suite, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args("figures");
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
    Ok(())
}
