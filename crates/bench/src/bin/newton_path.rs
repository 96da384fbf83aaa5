//! Prints the Newton hot-path figure (solver caches off vs on: device
//! bypass, chord iterations with LU reuse, companion caching) on the
//! MOS-heavy chain and the analog grid, and writes the rows to
//! `BENCH_newton.json`.
//!
//! Usage: `cargo run --release -p wavepipe-bench --bin newton_path [-- --small]`;
//! any other argument is a usage error (exit 64).

use wavepipe_bench::{fig_newton_path, newton_path_to_json, Scale};
use wavepipe_circuit::generators;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let small = Scale::from_args("newton_path") == Scale::Small;

    // One digital chain (deep quiescent regions → bypass-friendly) and one
    // analog grid (smooth trajectories → chord-friendly): the cache layers
    // must pay off on both classes, single-thread, end to end.
    let subjects = if small {
        vec![generators::inverter_chain(20), generators::power_grid(4, 4)]
    } else {
        vec![generators::inverter_chain(120), generators::power_grid(10, 10)]
    };

    let (txt, rows) = fig_newton_path(&subjects);
    println!("{txt}");

    std::fs::write("BENCH_newton.json", newton_path_to_json(&rows))?;
    println!("wrote BENCH_newton.json");
    Ok(())
}
