//! Larger-scale stress runs. The default-run sizes keep CI fast; the
//! `#[ignore]`d giants are for manual scaling checks
//! (`cargo test --release -- --ignored`).

use wavepipe::circuit::generators;
use wavepipe::core::{run_wavepipe, verify, Scheme, WavePipeOptions};
use wavepipe::engine::{run_transient, SimOptions};

#[test]
fn medium_power_grid_under_all_schemes() {
    let b = generators::power_grid(6, 6);
    let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
    for scheme in [Scheme::Backward, Scheme::Combined] {
        let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &WavePipeOptions::new(scheme, 3))
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        let eq = verify::compare(&serial, &rep.result);
        assert!(eq.rms_rel() < 1e-3, "{scheme}: rms {}", eq.rms_rel());
        assert!(
            rep.modeled_speedup(serial.stats()) > 1.0,
            "{scheme}: growth-heavy grid should gain"
        );
    }
}

#[test]
fn sffm_driven_filter_simulates_cleanly() {
    // FM source through a band-ish RC network: a smooth but
    // never-settling waveform that exercises continuous step adaptation.
    use wavepipe::circuit::{Circuit, Waveform};
    let mut ckt = Circuit::new("fm");
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_vsource(
        "V1",
        a,
        Circuit::GROUND,
        Waveform::Sffm { vo: 0.0, va: 1.0, fc: 5e6, mdi: 3.0, fs: 0.5e6 },
    )
    .unwrap();
    ckt.add_resistor("R1", a, b, 1e3).unwrap();
    ckt.add_capacitor("C1", b, Circuit::GROUND, 20e-12).unwrap();
    let serial = run_transient(&ckt, 2e-9, 4e-6, &SimOptions::default()).unwrap();
    let rep = run_wavepipe(&ckt, 2e-9, 4e-6, &WavePipeOptions::new(Scheme::Backward, 2)).unwrap();
    let eq = verify::compare(&serial, &rep.result);
    assert!(eq.rms_rel() < 0.02, "rms {}", eq.rms_rel());
    // The carrier passes the ~8 MHz filter visibly attenuated but alive.
    let bi = serial.unknown_of("b").unwrap();
    let peak = serial.peak(bi);
    assert!(peak > 0.3 && peak < 1.0, "filtered FM peak {peak}");
}

#[test]
#[ignore = "manual scaling check (~minutes in release)"]
fn large_power_grid_scales() {
    let b = generators::power_grid(20, 20);
    let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
    let rep =
        run_wavepipe(&b.circuit, b.tstep, b.tstop, &WavePipeOptions::new(Scheme::Backward, 3))
            .unwrap();
    let eq = verify::compare(&serial, &rep.result);
    assert!(eq.rms_rel() < 1e-3);
    let s = rep.modeled_speedup(serial.stats());
    assert!(s > 1.2, "400-node grid speedup {s}");
}

#[test]
#[ignore = "manual scaling check (~minutes in release)"]
fn long_ring_oscillator_run() {
    let b = generators::ring_oscillator(13);
    let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
    assert!(serial.len() > 1000);
    let rep =
        run_wavepipe(&b.circuit, b.tstep, b.tstop, &WavePipeOptions::new(Scheme::Backward, 2))
            .unwrap();
    let eq = verify::compare(&serial, &rep.result);
    // Autonomous oscillator: phase drift dominates; stay within the
    // serial-methods noise band scale.
    assert!(eq.rms_rel() < 0.3, "rms {}", eq.rms_rel());
}
