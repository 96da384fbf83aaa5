//! Prints the batched corner-sweep figure (BatchSim vs the independent
//! one-run-at-a-time loop on a many-instance parameter sweep) and writes
//! the row to `BENCH_sweep.json`.
//!
//! Usage: `cargo run --release -p wavepipe-bench --bin sweep [-- --small]`;
//! any other argument is a usage error (exit 64).

use wavepipe_bench::sweep::{fig_sweep, sweep_to_json};
use wavepipe_bench::Scale;
use wavepipe_circuit::generators;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let small = Scale::from_args("sweep") == Scale::Small;

    // A 100-instance corner sweep of the 8-stage inverter chain on up to 8
    // workers, as many as the host has cores. `--small` shrinks chain,
    // corner count and width for the CI smoke leg.
    let (subject, instances, workers) = if small {
        (generators::inverter_chain(4), 10, 4)
    } else {
        (generators::inverter_chain(8), 100, 8)
    };

    let (txt, row) = fig_sweep(&subject, instances, workers);
    println!("{txt}");

    std::fs::write("BENCH_sweep.json", sweep_to_json(&[row]))?;
    println!("wrote BENCH_sweep.json");
    Ok(())
}
