//! Prints Tables 1–4 of the WavePipe evaluation and writes the measured
//! numbers to `BENCH_tables.json` for machine tracking across commits.
//!
//! Usage: `cargo run --release -p wavepipe-bench --bin tables [-- --small]`;
//! any other argument is a usage error (exit 64).

use wavepipe_bench::{cases_to_json, table1, table2, table3, table4, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args("tables");
    println!("{}", table1(scale));
    let (t2, c2) = table2(scale);
    println!("{t2}");
    let (t3, c3) = table3(scale);
    println!("{t3}");
    let (t4, c4) = table4(scale);
    println!("{t4}");
    println!("Speedups are modeled critical-path speedups (see DESIGN.md: this container");
    println!("has one core, so wall-clock parallel gains cannot manifest; the critical");
    println!("path is what an otherwise-idle multi-core machine realises).");

    let json = cases_to_json(&[
        ("table2_backward", &c2),
        ("table3_forward", &c3),
        ("table4_combined", &c4),
    ]);
    std::fs::write("BENCH_tables.json", json)?;
    println!("wrote BENCH_tables.json");
    Ok(())
}
