//! Property-based tests of the transient engine: step-control invariants,
//! analytic agreement on randomized linear circuits, and method consistency.

use proptest::prelude::*;
use wavepipe_circuit::{Circuit, Waveform};
use wavepipe_engine::{run_transient, Method, SimOptions};

/// A randomized single-pole RC circuit with its analytic time constant.
#[derive(Debug, Clone)]
struct RcCase {
    r: f64,
    c: f64,
    v: f64,
}

fn rc_case() -> impl Strategy<Value = RcCase> {
    (10.0f64..100e3, 1e-12f64..1e-8, 0.5f64..10.0).prop_map(|(r, c, v)| RcCase { r, c, v })
}

fn build_rc(case: &RcCase) -> Circuit {
    let mut ckt = Circuit::new("prop rc");
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_vsource(
        "V1",
        a,
        Circuit::GROUND,
        Waveform::pulse(0.0, case.v, 0.0, 1e-15, 1e-15, 1e3, 0.0),
    )
    .expect("vsource");
    ckt.add_resistor("R1", a, b, case.r).expect("resistor");
    ckt.add_capacitor("C1", b, Circuit::GROUND, case.c).expect("capacitor");
    ckt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rc_step_matches_analytic_for_any_parameters(case in rc_case()) {
        let ckt = build_rc(&case);
        let tau = case.r * case.c;
        let tstop = 5.0 * tau;
        let res = run_transient(&ckt, tau / 50.0, tstop, &SimOptions::default()).expect("run");
        let b = res.unknown_of("b").expect("node");
        // Compare at a handful of fractions of tau.
        for frac in [0.5, 1.0, 2.0, 4.0] {
            let t = frac * tau;
            let exact = case.v * (1.0 - (-t / tau).exp());
            let got = res.sample(b, t);
            prop_assert!(
                (got - exact).abs() < 0.01 * case.v,
                "tau={tau:e} t={t:e}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn accepted_times_strictly_increase_and_stay_in_range(case in rc_case()) {
        let ckt = build_rc(&case);
        let tau = case.r * case.c;
        let tstop = 3.0 * tau;
        let opts = SimOptions::default();
        let res = run_transient(&ckt, tau / 20.0, tstop, &opts).expect("run");
        let times = res.times();
        // The engine's step ceiling: 2 % of the simulated span.
        let hmax = 0.02 * tstop;
        prop_assert_eq!(times[0], 0.0);
        for w in times.windows(2) {
            prop_assert!(w[1] > w[0]);
            let h = w[1] - w[0];
            prop_assert!(h <= hmax * 1.0001, "step {h:e} over hmax");
        }
        let last = *times.last().expect("non-empty");
        prop_assert!((last - tstop).abs() <= 1e-6 * tstop);
    }

    #[test]
    fn all_methods_agree_on_random_rc(case in rc_case()) {
        let ckt = build_rc(&case);
        let tau = case.r * case.c;
        let mut finals = Vec::new();
        for m in [Method::BackwardEuler, Method::Trapezoidal, Method::Gear2] {
            let res = run_transient(&ckt, tau / 50.0, 3.0 * tau, &SimOptions::default().with_method(m))
                .expect("run");
            let b = res.unknown_of("b").expect("node");
            finals.push(res.sample(b, 3.0 * tau));
        }
        for f in &finals[1..] {
            prop_assert!((f - finals[0]).abs() < 0.02 * case.v, "{finals:?}");
        }
    }

    #[test]
    fn tighter_tolerance_takes_more_steps(case in rc_case()) {
        let ckt = build_rc(&case);
        let tau = case.r * case.c;
        let loose = SimOptions { reltol: 1e-2, ..SimOptions::default() };
        let tight = SimOptions { reltol: 1e-5, lte_abstol: 1e-9, ..SimOptions::default() };
        let rl = run_transient(&ckt, tau / 20.0, 3.0 * tau, &loose).expect("loose");
        let rt = run_transient(&ckt, tau / 20.0, 3.0 * tau, &tight).expect("tight");
        prop_assert!(
            rt.len() >= rl.len(),
            "tight {} pts vs loose {} pts",
            rt.len(),
            rl.len()
        );
    }

    #[test]
    fn divider_under_any_source_follows_instantaneously(
        r1 in 100.0f64..10e3,
        r2 in 100.0f64..10e3,
        freq in 1e5f64..1e7,
    ) {
        // A purely resistive divider must track the source with no dynamics.
        let mut ckt = Circuit::new("divider");
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::sin(0.0, 1.0, freq)).expect("v");
        ckt.add_resistor("R1", a, b, r1).expect("r1");
        ckt.add_resistor("R2", b, Circuit::GROUND, r2).expect("r2");
        let tstop = 3.0 / freq;
        let res = run_transient(&ckt, tstop / 300.0, tstop, &SimOptions::default()).expect("run");
        let bi = res.unknown_of("b").expect("node");
        let gain = r2 / (r1 + r2);
        for &(t, v) in res.trace(bi).iter().step_by(7) {
            let exact = gain * (2.0 * std::f64::consts::PI * freq * t).sin();
            prop_assert!((v - exact).abs() < 2e-3, "t={t:e}: {v} vs {exact}");
        }
    }
}
