//! Prints Tables 1–4 of the WavePipe evaluation: the circuits, then the
//! points, rounds, Newton iterations and accept rate of every scheme. The
//! counts are deterministic, so two runs print the same bytes.
//!
//! Usage: `cargo run --release -p wavepipe-bench --bin tables [-- --small]`;
//! any other argument is a usage error (exit 64).

use wavepipe_bench::{table1, table2, table3, table4, Scale};

fn main() {
    let scale = Scale::from_args("tables");
    println!("{}", table1(scale));
    for table in [table2(scale), table3(scale), table4(scale)] {
        println!("{table}");
    }
    println!("Counts, not times: `benchmark/` measures the wall clock (see its README).");
}
