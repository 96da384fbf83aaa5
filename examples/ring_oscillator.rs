//! Digital scenario: a CMOS ring oscillator — the workload the paper's
//! introduction motivates for digital ICs (autonomous switching, step sizes
//! varying by orders of magnitude between edges and plateaus).
//!
//! Measures the oscillation period from the serial run, verifies the
//! WavePipe runs reproduce it, and prints each run's counts and measured
//! wall time.
//!
//! Run with: `cargo run --release --example ring_oscillator`

use wavepipe::circuit::generators;
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::{run_transient, SimOptions, TransientResult};

/// Estimates the oscillation period from mid-supply crossings of a node.
fn period_of(result: &TransientResult, node: &str, vmid: f64) -> Option<f64> {
    let idx = result.unknown_of(node)?;
    let trace = result.trace(idx);
    let mut rising: Vec<f64> = Vec::new();
    for w in trace.windows(2) {
        let (t0, v0) = w[0];
        let (t1, v1) = w[1];
        if v0 < vmid && v1 >= vmid {
            // Linear interpolation of the crossing instant.
            rising.push(t0 + (t1 - t0) * (vmid - v0) / (v1 - v0));
        }
    }
    // Ignore the startup transient: average the last few full periods.
    if rising.len() < 4 {
        return None;
    }
    let tail = &rising[rising.len() - 4..];
    Some((tail[3] - tail[0]) / 3.0)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = generators::ring_oscillator(5);
    println!("circuit: {}", bench.circuit.summary());

    let serial = run_transient(&bench.circuit, bench.tstep, bench.tstop, &SimOptions::default())?;
    let vmid = generators::VDD / 2.0;
    let period = period_of(&serial, &bench.probes[0], vmid)
        .ok_or("oscillator did not start — check the kick source")?;
    println!(
        "serial   : {} points, {} newton iterations, wall {:.2} ms, \
         oscillation period {:.3} ns ({:.1} MHz)",
        serial.len(),
        serial.stats().newton_iterations,
        serial.stats().wall_ns as f64 / 1e6,
        period * 1e9,
        1e-3 / period / 1e6 * 1e3
    );

    for (scheme, threads) in [(Scheme::Backward, 2), (Scheme::Combined, 4)] {
        let opts = WavePipeOptions::new(scheme, threads);
        let report = run_wavepipe(&bench.circuit, bench.tstep, bench.tstop, &opts)?;
        let p = period_of(&report.result, &bench.probes[0], vmid)
            .ok_or("wavepipe run lost the oscillation")?;
        let period_err = (p - period).abs() / period;
        println!(
            "{:<9}: {} points, {} rounds, {} newton iterations, wall {:.2} ms, \
             period {:.3} ns (err {:.2}%)",
            scheme.to_string(),
            report.result.len(),
            report.rounds,
            report.total.newton_iterations,
            report.total.wall_ns as f64 / 1e6,
            p * 1e9,
            period_err * 100.0
        );
        assert!(period_err < 0.05, "period disagrees by more than 5%");
    }
    Ok(())
}
