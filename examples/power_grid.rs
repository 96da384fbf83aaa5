//! Mixed analog/digital scenario: IR-drop analysis of a power-distribution
//! grid under pulsed switching loads with diode clamps — the "large weakly
//! nonlinear network" class of the paper's evaluation.
//!
//! Reports the worst supply droop seen at the grid centre and, per WavePipe
//! run, its rounds, Newton iterations and measured wall time; the droop
//! figure is the quantity a power-integrity engineer actually reads off this
//! simulation.
//!
//! Run with: `cargo run --release --example power_grid`

use wavepipe::circuit::generators;
use wavepipe::core::{run_wavepipe, verify, Scheme, WavePipeOptions};
use wavepipe::engine::{run_transient, SimOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = generators::power_grid(8, 8);
    println!("circuit: {}", bench.circuit.summary());

    let serial = run_transient(&bench.circuit, bench.tstep, bench.tstop, &SimOptions::default())?;
    let centre = serial.unknown_of(&bench.probes[0]).expect("probe node");
    let vdd_nominal = 1.8;
    let worst_droop =
        serial.trace(centre).iter().map(|&(_, v)| vdd_nominal - v).fold(f64::MIN, f64::max);
    println!(
        "serial   : {} points, {} newton iterations, wall {:.2} ms; \
         worst centre-node droop {:.1} mV ({:.2}% of VDD)",
        serial.len(),
        serial.stats().newton_iterations,
        serial.stats().wall_ns as f64 / 1e6,
        worst_droop * 1e3,
        worst_droop / vdd_nominal * 100.0
    );

    for (scheme, threads) in
        [(Scheme::Backward, 2), (Scheme::Backward, 3), (Scheme::Forward, 2), (Scheme::Combined, 4)]
    {
        let opts = WavePipeOptions::new(scheme, threads);
        let report = run_wavepipe(&bench.circuit, bench.tstep, bench.tstop, &opts)?;
        let eq = verify::compare(&serial, &report.result);
        let wp_centre = report.result.unknown_of(&bench.probes[0]).expect("probe node");
        let wp_droop = report
            .result
            .trace(wp_centre)
            .iter()
            .map(|&(_, v)| vdd_nominal - v)
            .fold(f64::MIN, f64::max);
        println!(
            "{:<9} x{}: {} rounds, {} newton iterations, wall {:.2} ms, \
             droop {:.1} mV (Δ {:.3} mV), max dev {:.2e} V",
            scheme.to_string(),
            threads,
            report.rounds,
            report.total.newton_iterations,
            report.total.wall_ns as f64 / 1e6,
            wp_droop * 1e3,
            (wp_droop - worst_droop).abs() * 1e3,
            eq.max_abs
        );
    }
    Ok(())
}
