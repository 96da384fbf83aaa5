//! Determinism and reporting invariants of the parallel schemes.

use wavepipe::circuit::generators;
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::run_transient;
use wavepipe::telemetry::{analyze, ProbeHandle, RecordingProbe};

#[test]
fn wavepipe_runs_are_bitwise_deterministic() {
    // Real threads, but commits are ordered: two runs must agree exactly.
    let b = generators::power_grid(4, 4);
    for scheme in [Scheme::Backward, Scheme::Forward, Scheme::Combined] {
        let opts = WavePipeOptions::new(scheme, 3);
        let r1 = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
        let r2 = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
        assert_eq!(r1.result.times(), r2.result.times(), "{scheme}: time grids differ");
        for k in 0..r1.result.len() {
            assert_eq!(r1.result.solution(k), r2.result.solution(k), "{scheme}: point {k} differs");
        }
        assert_eq!(r1.rounds, r2.rounds);
        assert_eq!(r1.lead_accepted, r2.lead_accepted);
        assert_eq!(r1.speculation_accepted, r2.speculation_accepted);
    }
}

#[test]
fn recording_probe_never_perturbs_the_run() {
    // Telemetry must only observe: a run with a RecordingProbe attached has
    // to produce bit-identical waveforms and identical work counters to the
    // default run with no probe attached, for every scheme.
    let b = generators::diode_rectifier();
    for scheme in [Scheme::Serial, Scheme::Backward, Scheme::Forward, Scheme::Combined] {
        let plain = WavePipeOptions::new(scheme, 3);
        let r_plain = run_wavepipe(&b.circuit, b.tstep, b.tstop, &plain).unwrap();

        let probe = RecordingProbe::shared();
        let traced = WavePipeOptions::new(scheme, 3).with_probe(ProbeHandle::new(probe.clone()));
        let r_traced = run_wavepipe(&b.circuit, b.tstep, b.tstop, &traced).unwrap();

        assert_eq!(
            r_plain.result.times(),
            r_traced.result.times(),
            "{scheme}: time grids differ under recording"
        );
        for k in 0..r_plain.result.len() {
            assert_eq!(
                r_plain.result.solution(k),
                r_traced.result.solution(k),
                "{scheme}: point {k} differs under recording"
            );
        }
        // Work counters (everything except the wall-clock measurement).
        let (a, b2) = (r_plain.total, r_traced.total);
        assert_eq!(a.steps_accepted, b2.steps_accepted, "{scheme}");
        assert_eq!(a.steps_rejected_lte, b2.steps_rejected_lte, "{scheme}");
        assert_eq!(a.steps_rejected_newton, b2.steps_rejected_newton, "{scheme}");
        assert_eq!(a.newton_iterations, b2.newton_iterations, "{scheme}");
        assert_eq!(a.factorizations, b2.factorizations, "{scheme}");
        assert_eq!(a.refactorizations, b2.refactorizations, "{scheme}");
        assert_eq!(a.solves, b2.solves, "{scheme}");
        assert_eq!(a.device_evals, b2.device_evals, "{scheme}");
        assert_eq!(r_plain.rounds, r_traced.rounds, "{scheme}");
        assert_eq!(r_plain.lead_accepted, r_traced.lead_accepted, "{scheme}");
        assert_eq!(r_plain.lead_rejected, r_traced.lead_rejected, "{scheme}");
        assert_eq!(r_plain.speculation_accepted, r_traced.speculation_accepted, "{scheme}");
        assert_eq!(r_plain.speculation_rejected, r_traced.speculation_rejected, "{scheme}");

        // The traced run actually recorded something, and the fold over its
        // events mirrors the run's own counters.
        assert!(!probe.is_empty(), "{scheme}: probe recorded nothing");
        let summary = analyze(&probe.events()).counts;
        assert_eq!(summary.points_accepted as usize, b2.steps_accepted, "{scheme}");
        assert_eq!(summary.factorizations as usize, b2.factorizations, "{scheme}");
        assert_eq!(summary.refactorizations as usize, b2.refactorizations, "{scheme}");
        assert_eq!(summary.lead_accepted as usize, r_traced.lead_accepted, "{scheme}");
        assert_eq!(summary.lead_discarded as usize, r_traced.lead_rejected, "{scheme}");
        assert_eq!(
            summary.speculation_accepted as usize, r_traced.speculation_accepted,
            "{scheme}"
        );
        assert_eq!(
            summary.speculation_discarded as usize, r_traced.speculation_rejected,
            "{scheme}"
        );
    }
}

#[test]
fn serial_scheme_equals_engine_run() {
    let b = generators::rc_ladder(8);
    let opts = WavePipeOptions::new(Scheme::Serial, 1);
    let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
    let eng = run_transient(&b.circuit, b.tstep, b.tstop, &opts.sim).unwrap();
    assert_eq!(rep.result.times(), eng.times());
    assert_eq!(rep.critical_work, eng.stats().work_units());
}

#[test]
fn critical_path_never_exceeds_total_work() {
    for b in [generators::rc_ladder(8), generators::inverter_chain(3)] {
        for (scheme, threads) in
            [(Scheme::Backward, 3), (Scheme::Forward, 2), (Scheme::Combined, 4)]
        {
            let rep =
                run_wavepipe(&b.circuit, b.tstep, b.tstop, &WavePipeOptions::new(scheme, threads))
                    .unwrap();
            assert!(
                rep.critical_work <= rep.total.work_units(),
                "{}: {scheme} critical {} > total {}",
                b.name,
                rep.critical_work,
                rep.total.work_units()
            );
            assert!(rep.rounds > 0);
            assert!(rep.accept_rate() >= 0.0 && rep.accept_rate() <= 1.0);
        }
    }
}

#[test]
fn reports_count_all_accepted_points() {
    let b = generators::amp_chain(1);
    let rep =
        run_wavepipe(&b.circuit, b.tstep, b.tstop, &WavePipeOptions::new(Scheme::Backward, 2))
            .unwrap();
    // Points = accepted steps + the DC operating point.
    assert_eq!(rep.result.len(), rep.total.steps_accepted + 1);
    // Time grid is strictly increasing and ends at tstop.
    let times = rep.result.times();
    for w in times.windows(2) {
        assert!(w[0] < w[1]);
    }
    let last = *times.last().unwrap();
    assert!((last - b.tstop).abs() < 1e-3 * b.tstop, "ends at {last:e}, want {:e}", b.tstop);
}
