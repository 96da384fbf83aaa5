//! Property-based serial-equivalence: for randomized circuits and scheme
//! configurations, WavePipe must agree with the serial engine within the
//! integration-tolerance band — the paper's central claim, fuzzed.

use proptest::prelude::*;
use wavepipe_circuit::{Circuit, Waveform};
use wavepipe_core::{run_wavepipe, verify, Scheme, WavePipeOptions};
use wavepipe_engine::{run_transient, SimOptions};

#[derive(Debug, Clone)]
struct LadderCase {
    sections: usize,
    r: f64,
    c: f64,
    period: f64,
    threads: usize,
    scheme_pick: u8,
}

fn ladder_case() -> impl Strategy<Value = LadderCase> {
    (2usize..8, 50.0f64..5e3, 1e-13f64..1e-11, 5e-9f64..50e-9, 2usize..4, 0u8..3).prop_map(
        |(sections, r, c, period, threads, scheme_pick)| LadderCase {
            sections,
            r,
            c,
            period,
            threads,
            scheme_pick,
        },
    )
}

fn build(case: &LadderCase) -> Circuit {
    let mut ckt = Circuit::new("prop ladder");
    let inp = ckt.node("in");
    ckt.add_vsource(
        "Vin",
        inp,
        Circuit::GROUND,
        Waveform::pulse(
            0.0,
            1.0,
            0.0,
            case.period / 20.0,
            case.period / 20.0,
            case.period * 0.45,
            case.period,
        ),
    )
    .expect("vsource");
    let mut prev = inp;
    for i in 0..case.sections {
        let node = ckt.node(&format!("l{i}"));
        ckt.add_resistor(&format!("R{i}"), prev, node, case.r).expect("resistor");
        ckt.add_capacitor(&format!("C{i}"), node, Circuit::GROUND, case.c).expect("capacitor");
        prev = node;
    }
    ckt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_scheme_matches_serial_on_random_ladders(case in ladder_case()) {
        let ckt = build(&case);
        let tstop = 2.5 * case.period;
        let tstep = case.period / 100.0;
        let serial = run_transient(&ckt, tstep, tstop, &SimOptions::default()).expect("serial");
        let scheme = match case.scheme_pick {
            0 => Scheme::Backward,
            1 => Scheme::Forward,
            _ => Scheme::Combined,
        };
        let opts = WavePipeOptions::new(scheme, case.threads);
        let rep = run_wavepipe(&ckt, tstep, tstop, &opts).expect("wavepipe");
        let eq = verify::compare(&serial, &rep.result);
        prop_assert!(
            eq.rms_rel() < 0.02,
            "{:?} x{} on {:?}: rms {}",
            scheme,
            case.threads,
            case,
            eq.rms_rel()
        );
        // Time grids terminate identically.
        let t_end = *rep.result.times().last().expect("non-empty");
        prop_assert!((t_end - tstop).abs() < 1e-6 * tstop);
    }

    #[test]
    fn speedup_reports_are_sane(case in ladder_case()) {
        let ckt = build(&case);
        let tstop = 1.5 * case.period;
        let tstep = case.period / 60.0;
        let serial = run_transient(&ckt, tstep, tstop, &SimOptions::default()).expect("serial");
        let rep = run_wavepipe(&ckt, tstep, tstop, &WavePipeOptions::new(Scheme::Backward, case.threads))
            .expect("wavepipe");
        let s = rep.modeled_speedup(serial.stats());
        prop_assert!(s.is_finite() && s > 0.2 && s < 8.0, "speedup {}", s);
        prop_assert!(rep.critical_work <= rep.total.work_units());
        prop_assert!(rep.result.len() >= 3);
    }
}
