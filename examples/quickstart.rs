//! Quickstart: build an RC low-pass filter, simulate it serially and with
//! every WavePipe scheme, and compare accuracy, counts and measured wall time.
//!
//! Run with: `cargo run --release --example quickstart`

use wavepipe::core::verify;
use wavepipe::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Build the circuit: a pulse source driving an RC low-pass. ---
    let mut ckt = Circuit::new("rc lowpass quickstart");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource(
        "V1",
        inp,
        Circuit::GROUND,
        Waveform::pulse(0.0, 1.0, 5e-9, 1e-9, 1e-9, 40e-9, 100e-9),
    )?;
    ckt.add_resistor("R1", inp, out, 1e3)?;
    ckt.add_capacitor("C1", out, Circuit::GROUND, 2e-12)?;
    ckt.validate()?;
    println!("circuit: {}", ckt.summary());

    let (tstep, tstop) = (0.1e-9, 300e-9);

    // --- Serial reference. ---
    let serial = run_transient(&ckt, tstep, tstop, &SimOptions::default())?;
    println!(
        "\nserial   : {} points, {} newton iterations, {} rejected steps, wall {:.2} ms",
        serial.len(),
        serial.stats().newton_iterations,
        serial.stats().steps_rejected(),
        serial.stats().wall_ns as f64 / 1e6,
    );
    let out_idx = serial.unknown_of("out").expect("out node exists");
    println!(
        "           v(out) at 20ns = {:.4} V, at 60ns = {:.4} V",
        serial.sample(out_idx, 20e-9),
        serial.sample(out_idx, 60e-9)
    );

    // --- WavePipe schemes. ---
    for (scheme, threads) in [(Scheme::Backward, 2), (Scheme::Forward, 2), (Scheme::Combined, 4)] {
        let opts = WavePipeOptions::new(scheme, threads);
        let report = run_wavepipe(&ckt, tstep, tstop, &opts)?;
        let eq = verify::compare(&serial, &report.result);
        println!(
            "{:<9}: {} points, {} rounds, {} newton iterations, wall {:.2} ms, \
             max deviation {:.2e} V (rms {:.2e})",
            scheme.to_string(),
            report.result.len(),
            report.rounds,
            report.total.newton_iterations,
            report.total.wall_ns as f64 / 1e6,
            eq.max_abs,
            eq.rms
        );
    }

    println!("\nEvery scheme passes the same Newton and LTE tests as the serial engine,");
    println!("so the deviations above sit inside the integration tolerance band.");
    Ok(())
}
