//! End-to-end integration: SPICE deck text -> parser -> engine -> WavePipe,
//! validated against hand-computable circuit behaviour.

use wavepipe::circuit::parse_netlist;
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::{run_transient, SimOptions};

#[test]
fn deck_rc_charging_matches_analytic() {
    let deck = "\
rc charge
V1 in 0 PULSE(0 1 0 1p 1p 1 1)
R1 in out 1k
C1 out 0 1n
.tran 10n 5u
.end";
    let parsed = parse_netlist(deck).expect("parse");
    let tran = parsed.tran.expect("tran");
    let res = run_transient(&parsed.circuit, tran.tstep, tran.tstop, &SimOptions::default())
        .expect("simulate");
    let out = res.unknown_of("out").expect("node");
    let tau = 1e-6_f64;
    for &t in &[0.5e-6_f64, 1e-6, 2e-6, 4e-6] {
        let exact = 1.0 - (-t / tau).exp();
        let got = res.sample(out, t);
        assert!((got - exact).abs() < 5e-3, "t={t:e}: {got} vs {exact}");
    }
}

#[test]
fn deck_diode_rectifier_produces_dc_level() {
    let deck = "\
half-wave rectifier
Vac in 0 SIN(0 5 1meg)
D1 in out DR
Cf out 0 2n
Rl out 0 5k
.model DR D (IS=1e-12 N=1.5)
.tran 5n 8u
.end";
    let parsed = parse_netlist(deck).expect("parse");
    let tran = parsed.tran.expect("tran");
    let res = run_transient(&parsed.circuit, tran.tstep, tran.tstop, &SimOptions::default())
        .expect("simulate");
    let out = res.unknown_of("out").expect("node");
    // After several cycles the filter holds a positive DC level a diode
    // drop or so below the 5 V peak, with limited ripple.
    let late: Vec<f64> =
        res.trace(out).iter().filter(|&&(t, _)| t > 5e-6).map(|&(_, v)| v).collect();
    let mean = late.iter().sum::<f64>() / late.len() as f64;
    let min = late.iter().copied().fold(f64::INFINITY, f64::min);
    let max = late.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(mean > 3.0 && mean < 5.0, "dc level {mean}");
    assert!(max - min < 1.5, "ripple {}", max - min);
}

#[test]
fn deck_runs_under_every_scheme() {
    let deck = "\
cmos inverter into load
Vdd vdd 0 3.3
Vin in 0 PULSE(0 3.3 1n 0.2n 0.2n 4n 10n)
Mp out in vdd P1
Mn out in 0 N1
CL out 0 50f
.model P1 PMOS (VTO=-0.7 KP=50u W=40u L=1u)
.model N1 NMOS (VTO=0.7 KP=100u W=20u L=1u)
.tran 0.05n 20n
.end";
    let parsed = parse_netlist(deck).expect("parse");
    let tran = parsed.tran.expect("tran");
    for scheme in [Scheme::Serial, Scheme::Backward, Scheme::Forward, Scheme::Combined] {
        let opts = WavePipeOptions::new(scheme, 3);
        let rep = run_wavepipe(&parsed.circuit, tran.tstep, tran.tstop, &opts)
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        let out = rep.result.unknown_of("out").expect("node");
        // The inverter must swing (nearly) rail to rail in both directions.
        let trace = rep.result.trace(out);
        let hi = trace.iter().map(|&(_, v)| v).fold(f64::MIN, f64::max);
        let lo = trace.iter().map(|&(_, v)| v).fold(f64::MAX, f64::min);
        assert!(hi > 3.1, "{scheme}: high level {hi}");
        assert!(lo < 0.2, "{scheme}: low level {lo}");
        // Output is inverted: low while input is high (mid-pulse, t=3n).
        assert!(rep.result.sample(out, 3e-9) < 0.3, "{scheme}: not inverting");
    }
}

#[test]
fn deck_with_inductor_oscillates() {
    let deck = "\
series rlc ring
V1 in 0 PULSE(0 1 0 1p 1p 1 1)
R1 in a 2
L1 a b 1u
C1 b 0 1n
.tran 1n 2u
.end";
    let parsed = parse_netlist(deck).expect("parse");
    let tran = parsed.tran.expect("tran");
    let res = run_transient(&parsed.circuit, tran.tstep, tran.tstop, &SimOptions::default())
        .expect("simulate");
    let b = res.unknown_of("b").expect("node");
    // Underdamped: output overshoots 1 V.
    assert!(res.peak(b) > 1.3, "peak = {}", res.peak(b));
    // Inductor branch current is recorded as an unknown.
    assert_eq!(res.n_unknowns(), res.node_count() + 2); // V1 + L1 branches
}

#[test]
fn malformed_decks_report_lines() {
    // Each deck fails at its line, and the message names the offending token.
    for (deck, expected_line, named) in [
        ("t\nR1 a 0\n.end", 2, "r1"),
        ("t\nR1 a 0 1k\nD1 a 0 NOMODEL\n.end", 3, "nomodel"),
        ("t\nR1 a 0 1k\n.bogus\n.end", 3, ".bogus"),
        // Transient is the one analysis.
        ("t\nV1 in 0 1\nR1 in 0 1k\n.ac dec 10 1k 1meg\n.end", 4, ".ac"),
        ("t\nV1 in 0 1\nR1 in 0 1k\n.dc V1 0 1 0.1\n.end", 4, ".dc"),
        // A source value beyond its form's parameter list is rejected, not dropped.
        ("t\nR1 in 0 1k\nV1 in 0 DC 1 AC 1\n.end", 3, "`ac`"),
        ("t\nR1 a 0 1k\nV1 a 0 SIN(0 1 1meg 0 0 90)\n.end", 3, "`90`"),
        ("t\nR1 a 0 1k\nV1 a 0 DC 1 garbage\n.end", 3, "`garbage`"),
        ("t\nR1 a 0 1k\nV1 a 0 1 2 3\n.end", 3, "`2`"),
        ("t\nR1 a 0 1k\nV1 a 0 PULSE(0 1 0 1n 1n 5n 10n 99)\n.end", 3, "`99`"),
        // A value that overflows is no value; a `.tran` step or stop must be
        // positive (`tstart` was checked already).
        ("t\nR1 a 0 1k\nV1 a 0 DC 1e400\n.end", 3, "1e400"),
        ("t\nR1 a 0 1k\nC1 a 0 1e300t\n.end", 3, "1e300t"),
        ("t\nR1 a 0 1k\n.tran 1n 1e400\n.end", 3, "1e400"),
        ("t\nR1 a 0 1k\n.tran 0 1u\n.end", 3, "tstep"),
        ("t\nR1 a 0 1k\n.tran -1n 1u\n.end", 3, "tstep"),
        ("t\nR1 a 0 1k\n.tran 1n 0\n.end", 3, "tstop"),
        ("t\nR1 a 0 1k\n.tran 1n -1u 0\n.end", 3, "tstop"),
    ] {
        let err = parse_netlist(deck).expect_err("must fail");
        assert_eq!(err.line(), expected_line, "deck: {deck:?} -> {err}");
        assert!(err.message().contains(named), "deck: {deck:?} -> {err}");
    }
}

#[test]
fn subcircuit_deck_simulates_under_wavepipe() {
    let deck = "\
subckt rc e2e
.subckt RCSEC a b
R1 a b 200
C1 b 0 2p
.ends
Vin in 0 PULSE(0 1 0 0.5n 0.5n 40n 100n)
X1 in m1 RCSEC
X2 m1 m2 RCSEC
X3 m2 out RCSEC
.tran 0.1n 60n
.end";
    let parsed = parse_netlist(deck).expect("parse");
    let tran = parsed.tran.expect("tran");
    let serial = run_transient(&parsed.circuit, tran.tstep, tran.tstop, &SimOptions::default())
        .expect("serial");
    let rep = run_wavepipe(
        &parsed.circuit,
        tran.tstep,
        tran.tstop,
        &WavePipeOptions::new(Scheme::Backward, 2),
    )
    .expect("wavepipe");
    let o_s = serial.unknown_of("out").expect("node");
    assert!(serial.sample(o_s, 40e-9) > 0.95, "3-section ladder settles high");
    let dev = serial.max_deviation(&rep.result, o_s);
    assert!(dev < 0.02, "subckt deck equivalence: {dev}");
}

#[test]
fn uic_deck_honors_capacitor_ic() {
    let deck = "\
uic e2e
C1 a 0 1n IC=3
R1 a 0 2k
.tran 10n 6u
.end";
    let parsed = parse_netlist(deck).expect("parse");
    let tran = parsed.tran.expect("tran");
    let opts = SimOptions::default().with_use_ic(true);
    let res = run_transient(&parsed.circuit, tran.tstep, tran.tstop, &opts).expect("uic run");
    let a = res.unknown_of("a").expect("node");
    assert!((res.sample(a, 0.0) - 3.0).abs() < 1e-2);
    let tau = 2e-6;
    let v1 = res.sample(a, tau);
    assert!((v1 - 3.0 * (-1.0f64).exp()).abs() < 0.03, "one tau: {v1}");
}
