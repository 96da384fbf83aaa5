//! Prints the figure data of the WavePipe evaluation: accuracy, step-size
//! profiles and the rounds and Newton iterations of each scheme at 1–4
//! threads (Figures A–C). Every number is deterministic, so two runs print
//! the same bytes.
//!
//! Usage: `cargo run --release -p wavepipe-bench --bin figures [-- --small]`;
//! any other argument is a usage error (exit 64).

use wavepipe_bench::{fig_accuracy, fig_scaling, fig_step_profile, suite, Scale};

fn main() {
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
    for name_fragment in ["power_grid", "inverter_chain"] {
        if let Some(b) = all.iter().find(|b| b.name.contains(name_fragment)) {
            println!("{}", fig_scaling(b).0);
        }
    }
}
