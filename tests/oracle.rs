//! An accuracy oracle that is not the default engine.
//!
//! Every bit-identity test compares two paths of one build, and
//! `tests/golden_bits.rs` compares a build with its parent; neither says
//! whether a trajectory that *moved* got worse. This file does, for a change
//! that moves bits on purpose (DESIGN.md "Optimisations that move bits"), and
//! it knows nothing of any cache, key or factor set:
//!
//! * **Closed form.** Two linear decks whose response to a piecewise-linear
//!   source is a sum of ramp responses: an RC low-pass behind a finite-rise
//!   pulse train (every source corner restarts the step ladder, so the same
//!   few step sizes come round again and again) and an underdamped series
//!   RLC behind a finite-rise step. Serial and every pipelining scheme (the
//!   golden table's four), caches on and off: the worst error over the
//!   accepted points, relative to the response's peak, stays under a stated
//!   bound, and the caches cost none of it; that of the default caches-on
//!   run, beside the value the parent commit read.
//! * **Tight reference.** The three `power_grid` decks of the golden table
//!   against a serial run at a hundredth of `reltol` and `vntol` with bypass,
//!   chord Newton and the companion cache off: the RMS deviation of the
//!   default caches-on run, per golden scheme, beside the value the parent
//!   commit read.
//!
//! A row beside the parent's may fall; it may not rise by more than 0.1 %.
//! When a change moves a row on purpose, EXPERIMENTS.md lists it old beside
//! new and [`PARENT_WORST_REL`] and [`PARENT_RMS_REL`] are regenerated from
//! the failure message — at the parent commit, before the change is applied.

use wavepipe::circuit::generators::{self, Benchmark, CircuitClass};
use wavepipe::circuit::{Circuit, Waveform};
use wavepipe::core::verify::compare;
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::{run_transient, FaultPlan, SimOptions, SolverHandle, TransientResult};

/// Everything an environment leg of CI can flip is pinned, as in
/// `tests/golden_bits.rs`.
fn pinned(caches: bool) -> SimOptions {
    SimOptions::default()
        .with_solver(SolverHandle::direct())
        .with_faults(FaultPlan::new())
        .with_recovery(true)
        .with_bypass(caches)
        .with_chord_newton(caches)
        .with_companion_cache(caches)
}

fn run(b: &Benchmark, scheme: &str, sim: SimOptions) -> TransientResult {
    let (kind, threads) = match scheme {
        "serial" => return run_transient(&b.circuit, b.tstep, b.tstop, &sim).expect("serial run"),
        "backward_x2" => (Scheme::Backward, 2),
        "forward_x2" => (Scheme::Forward, 2),
        "combined_x3" => (Scheme::Combined, 3),
        other => panic!("no such scheme: {other}"),
    };
    let opts = WavePipeOptions::new(kind, threads).with_sim(sim);
    run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).expect(scheme).result
}

/// Every scheme [`run`] knows: the golden table's four.
const SCHEMES: [&str; 4] = ["serial", "backward_x2", "forward_x2", "combined_x3"];

// ---------------------------------------------------------------------------
// Closed form
// ---------------------------------------------------------------------------

/// A power of two, so corner times and the steps between them are exact.
const D: f64 = 1.0 / (1u64 << 20) as f64;

/// Response at `t` of a linear system at rest, with unit-ramp response
/// `ramp`, to the piecewise-linear input through `corners` (first corner
/// `(0, 0)`, held after the last): a corner that changes the input's slope
/// by `ds` adds `ds * ramp(t - corner)` from then on.
fn pwl_response(corners: &[(f64, f64)], ramp: impl Fn(f64) -> f64, t: f64) -> f64 {
    assert_eq!(corners[0], (0.0, 0.0));
    let slopes: Vec<f64> =
        corners.windows(2).map(|w| (w[1].1 - w[0].1) / (w[1].0 - w[0].0)).collect();
    let mut before = 0.0;
    let mut y = 0.0;
    for (k, &(at, _)) in corners.iter().enumerate() {
        let after = slopes.get(k).copied().unwrap_or(0.0);
        if t > at {
            y += (after - before) * ramp(t - at);
        }
        before = after;
    }
    y
}

/// A deck driven by one PWL source, its output node, and the exact response.
struct ClosedForm {
    bench: Benchmark,
    exact: Box<dyn Fn(f64) -> f64>,
    /// Worst error over the accepted points, relative to the exact peak, the
    /// default tolerances may leave.
    bound: f64,
}

/// `R = 1 kΩ` into `C = 32 nF` (time constant some 34 `D`) behind four
/// trapezoid pulses whose every edge and every flat lasts `2 D`: slow enough
/// that the step doubles from `D/8` to `D` after each corner, the same few
/// step sizes corner after corner. Unit-ramp response `τ - RC (1 - e^(-τ/RC))`.
fn rc_pulse_train() -> ClosedForm {
    let (r, c) = (1e3, 32e-9);
    let mut corners = vec![(0.0, 0.0)];
    for p in 0..4 {
        let t0 = 2.0 * D * f64::from(4 * p + 1);
        corners.extend([(t0, 0.0), (t0 + 2.0 * D, 1.0), (t0 + 4.0 * D, 1.0), (t0 + 6.0 * D, 0.0)]);
    }
    let mut ckt = Circuit::new("rc pulse train");
    let (a, out) = (ckt.node("a"), ckt.node("out"));
    ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::pwl(corners.clone())).unwrap();
    ckt.add_resistor("R1", a, out, r).unwrap();
    ckt.add_capacitor("C1", out, Circuit::GROUND, c).unwrap();
    let bench = Benchmark {
        name: "rc_pulse_train".into(),
        circuit: ckt,
        tstep: D / 2.0,
        tstop: 64.0 * D,
        class: CircuitClass::Analog,
        probes: vec!["out".into()],
    };
    let ramp = move |tau: f64| tau + r * c * (-tau / (r * c)).exp_m1();
    // Combined x3 leaves the most, 5.2e-3; serial 1.2e-3.
    ClosedForm { bench, exact: Box::new(move |t| pwl_response(&corners, ramp, t)), bound: 6e-3 }
}

/// Series `R = 10 Ω`, `L = 1 µH`, `C = 1 nF` (damping ratio 0.16, ringing at
/// 5 MHz) behind a step that takes 16 ns to rise; the output is the
/// capacitor's voltage. Unit-ramp response: the integral of the unit-step
/// response `1 - e^(-αt) (cos ωt + (α/ω) sin ωt)`.
fn rlc_step() -> ClosedForm {
    let (r, l, c) = (10.0, 1e-6, 1e-9);
    let rise = D / 16.0;
    let corners = vec![(0.0, 0.0), (D / 4.0, 0.0), (D / 4.0 + rise, 1.0)];
    let mut ckt = Circuit::new("rlc step");
    let (a, b, out) = (ckt.node("a"), ckt.node("b"), ckt.node("out"));
    ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::pwl(corners.clone())).unwrap();
    ckt.add_resistor("R1", a, b, r).unwrap();
    ckt.add_inductor("L1", b, out, l).unwrap();
    ckt.add_capacitor("C1", out, Circuit::GROUND, c).unwrap();
    let bench = Benchmark {
        name: "rlc_step".into(),
        circuit: ckt,
        tstep: D / 32.0,
        tstop: 2.0 * D,
        class: CircuitClass::Analog,
        probes: vec!["out".into()],
    };
    let alpha = r / (2.0 * l);
    let w0_sq = 1.0 / (l * c);
    let w = (w0_sq - alpha * alpha).sqrt();
    let ramp = move |tau: f64| {
        let (decay, (sin, cos)) = ((-alpha * tau).exp(), (w * tau).sin_cos());
        let int_cos = (decay * (w * sin - alpha * cos) + alpha) / w0_sq;
        let int_sin = (decay * (-alpha * sin - w * cos) + w) / w0_sq;
        tau - int_cos - alpha / w * int_sin
    };
    ClosedForm { bench, exact: Box::new(move |t| pwl_response(&corners, ramp, t)), bound: 3e-2 }
}

/// Worst error of `r`'s output trace over its accepted points, relative to
/// the exact response's peak over the same points.
fn closed_form_error(deck: &ClosedForm, r: &TransientResult) -> f64 {
    let out = r.unknown_of("out").expect("output node");
    let (mut worst, mut peak) = (0.0_f64, 0.0_f64);
    for (t, v) in r.trace(out) {
        let want = (deck.exact)(t);
        worst = worst.max((v - want).abs());
        peak = peak.max(want.abs());
    }
    assert!(r.len() > 50 && peak > 0.1, "{}: {} points, peak {peak}", deck.bench.name, r.len());
    worst / peak
}

/// (deck, scheme) -> [`closed_form_error`] of the default caches-on run, as
/// read at the parent commit.
const PARENT_WORST_REL: &[(&str, &str, f64)] = &[
    ("rc_pulse_train", "serial", 0.0011906364088431099),
    ("rc_pulse_train", "backward_x2", 0.004056605629884354),
    ("rc_pulse_train", "forward_x2", 0.0011209858968682107),
    ("rc_pulse_train", "combined_x3", 0.0052201759187855854),
    ("rlc_step", "serial", 0.0191741502543366),
    ("rlc_step", "backward_x2", 0.012729332954510498),
    ("rlc_step", "forward_x2", 0.024474602710030907),
    ("rlc_step", "combined_x3", 0.014876432904657587),
];

#[test]
fn closed_form_responses_are_met_and_the_caches_cost_no_accuracy() {
    let mut got: Vec<(String, &str, f64)> = Vec::new();
    for deck in [rc_pulse_train(), rlc_step()] {
        for scheme in SCHEMES {
            let [on, off] = [true, false]
                .map(|caches| closed_form_error(&deck, &run(&deck.bench, scheme, pinned(caches))));
            let name = &deck.bench.name;
            assert!(off <= deck.bound, "{name} {scheme}, caches off: {off:e} > {:e}", deck.bound);
            assert!(on <= deck.bound, "{name} {scheme}, caches on: {on:e} > {:e}", deck.bound);
            assert!(
                on <= off * 1.001 + 1e-12,
                "{name} {scheme}: the caches cost accuracy, {off:e} -> {on:e}"
            );
            got.push((name.clone(), scheme, on));
        }
    }
    assert_no_higher_than_the_parent_s(&got, PARENT_WORST_REL);
}

/// Holds each computed `(deck, scheme, error)` row to its row in `parent`:
/// it may fall, or rise by at most 0.1 %. Prints the computed table on
/// failure, ready to paste as the parent's.
fn assert_no_higher_than_the_parent_s(got: &[(String, &str, f64)], parent: &[(&str, &str, f64)]) {
    let table: String =
        got.iter().map(|(n, s, e)| format!("    ({n:?}, {s:?}, {e:?}),\n")).collect();
    assert_eq!(got.len(), parent.len(), "computed table:\n{table}");
    let mut risen = String::new();
    for ((name, scheme, new), &(n, s, old)) in got.iter().zip(parent) {
        assert_eq!((name.as_str(), *scheme), (n, s), "computed table:\n{table}");
        if *new > old * 1.001 {
            risen += &format!("  {name} {scheme}: {old:e} -> {new:e}\n");
        }
    }
    assert!(risen.is_empty(), "error rose against the parent:\n{risen}computed table:\n{table}");
}

// ---------------------------------------------------------------------------
// Tight reference
// ---------------------------------------------------------------------------

/// (deck, scheme) -> `rms_rel` of the default caches-on run against the tight
/// reference, as read at the parent commit.
const PARENT_RMS_REL: &[(&str, &str, f64)] = &[
    ("power_grid(6,6)", "serial", 2.2426736328520417e-6),
    ("power_grid(6,6)", "backward_x2", 3.0071169673536145e-6),
    ("power_grid(6,6)", "forward_x2", 2.347433656091548e-6),
    ("power_grid(6,6)", "combined_x3", 2.8580684889222442e-6),
    ("power_grid(16,16)", "serial", 2.300685593062468e-5),
    ("power_grid(16,16)", "backward_x2", 6.739780681123789e-5),
    ("power_grid(16,16)", "forward_x2", 2.1331287952039203e-5),
    ("power_grid(16,16)", "combined_x3", 7.493669870302271e-5),
    ("power_grid(32,32)", "serial", 3.02089217036666e-5),
    ("power_grid(32,32)", "backward_x2", 8.666834320339622e-5),
];

#[test]
fn power_grid_error_against_a_tight_reference_is_no_higher_than_the_parent_s() {
    let decks: [(&str, Benchmark, &[&str]); 3] = [
        ("power_grid(6,6)", generators::power_grid(6, 6), &SCHEMES),
        ("power_grid(16,16)", generators::power_grid(16, 16), &SCHEMES),
        ("power_grid(32,32)", generators::power_grid(32, 32), &SCHEMES[..2]),
    ];
    let mut got: Vec<(String, &str, f64)> = Vec::new();
    for (name, b, schemes) in &decks {
        let d = SimOptions::default();
        let tight = pinned(false).with_reltol(d.reltol / 100.0).with_vntol(d.vntol / 100.0);
        let reference = run(b, "serial", tight);
        for &scheme in *schemes {
            let new = compare(&reference, &run(b, scheme, pinned(true))).rms_rel();
            // Relative to the reference's peak, so 1e-2 would be a percent of
            // the supply: a run this far off is wrong whatever the parent read.
            assert!(new < 1e-3, "{name} {scheme}: rms error {new:e}");
            got.push((name.to_string(), scheme, new));
        }
    }
    assert_no_higher_than_the_parent_s(&got, PARENT_RMS_REL);
}
