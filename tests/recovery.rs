//! Transient convergence recovery ladder: the rescue path must save runs
//! whose Newton solves fail at the step floor, must stay deterministic
//! under forced-non-convergence chaos, and — the zero-overhead invariant —
//! must never be entered by a run that does not need it.

use wavepipe::circuit::generators::{self, Benchmark};
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::{
    run_transient, FaultKind, FaultPlan, ProbeHandle, RecordingProbe, SimOptions, TransientResult,
};
use wavepipe::telemetry::analyze;

/// Asserts two waveforms share the exact time grid and bit-identical
/// solution vectors.
fn assert_bit_identical(a: &TransientResult, b: &TransientResult, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: point counts differ");
    assert_eq!(a.times(), b.times(), "{what}: time grids differ");
    for k in 0..a.len() {
        let (xa, xb) = (a.solution(k), b.solution(k));
        assert_eq!(xa, xb, "{what}: solutions differ at point {k}");
        for (va, vb) in xa.iter().zip(xb) {
            assert_eq!(va.to_bits(), vb.to_bits(), "{what}: ulp divergence at point {k}");
        }
    }
}

/// A fault plan forcing the first `n` point solves on lane 0 to report
/// non-convergence. The step controller shrinks through the whole range
/// (`nr_shrink = 0.125`, `hmin = 1e-10 * tstop`), collapses below the
/// floor, and must enter the recovery ladder; rescue solves are
/// fault-exempt, so rung 1 always lands.
fn nc_burst(n: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for seq in 0..n {
        plan = plan.with_solve_fault(0, Some(seq), FaultKind::ForceNonConvergence);
    }
    plan
}

#[test]
fn forced_nonconvergence_is_rescued_in_the_serial_engine() {
    let b = generators::rc_ladder(6);
    let clean = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();

    let recorder = RecordingProbe::shared();
    let opts = SimOptions::default()
        .with_faults(nc_burst(30))
        .with_probe(ProbeHandle::new(recorder.clone()));
    let rescued = run_transient(&b.circuit, b.tstep, b.tstop, &opts)
        .expect("the ladder must rescue a forced-non-convergence burst");
    for k in 0..rescued.len() {
        assert!(rescued.solution(k).iter().all(|v| v.is_finite()), "non-finite at point {k}");
    }

    // The ladder actually ran: attempts, rollbacks, and rescues all ticked.
    let counts = analyze(&recorder.events()).counts;
    assert!(counts.recovery_attempts > 0, "no recovery attempts recorded");
    assert!(counts.cache_rollbacks > 0, "no cache rollbacks recorded");
    assert!(counts.recovery_rescues > 0, "no rescues recorded");

    // Rescued points crawl at the step floor near t=0, but the run must
    // stay accurate once the fault range is exhausted.
    let eq = wavepipe::core::verify::compare(&clean, &rescued);
    assert!(eq.rms_rel() < 0.05, "rms deviation after rescue = {}", eq.rms_rel());
}

#[test]
fn stiff_diode_transient_completes_via_the_ladder() {
    // The acceptance fixture: a nonlinear rectifier whose solves are forced
    // unconverged past the step floor completes, and only through rescues.
    let b = generators::diode_rectifier();
    let clean = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
    let recorder = RecordingProbe::shared();
    let opts = SimOptions::default()
        .with_faults(nc_burst(25))
        .with_probe(ProbeHandle::new(recorder.clone()));
    let rescued = run_transient(&b.circuit, b.tstep, b.tstop, &opts).expect("ladder rescue");
    assert!(analyze(&recorder.events()).counts.recovery_rescues > 0, "no rescues recorded");
    let eq = wavepipe::core::verify::compare(&clean, &rescued);
    assert!(eq.rms_rel() < 0.05, "rms deviation = {}", eq.rms_rel());
}

#[test]
fn every_scheme_survives_forced_nonconvergence_on_the_lead_lane() {
    // The Driver's `newton_backoff` mirrors the serial rescue-commit
    // sequence; all three pipelining schemes must absorb a lead-lane burst.
    let b = generators::rc_ladder(6);
    let clean = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
    for scheme in [Scheme::Backward, Scheme::Forward, Scheme::Combined] {
        let opts = WavePipeOptions::new(scheme, 3).with_faults(nc_burst(30));
        let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts)
            .unwrap_or_else(|e| panic!("{scheme}: ladder failed to rescue: {e}"));
        let eq = wavepipe::core::verify::compare(&clean, &rep.result);
        assert!(eq.rms_rel() < 0.05, "{scheme}: rms deviation = {}", eq.rms_rel());
    }
}

#[test]
fn nonconvergence_chaos_is_deterministic_and_accurate() {
    // The CI chaos-NC leg in miniature: seeded forced-non-convergence
    // draws across the run must neither break completion, nor accuracy,
    // nor run-to-run bit determinism.
    let b = generators::power_grid(4, 4);
    let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
    let opts = WavePipeOptions::new(Scheme::Backward, 2)
        .with_faults(FaultPlan::seeded_with_nonconvergence(0xC0FFEE));
    let r1 = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
    let r2 = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
    assert_bit_identical(&r1.result, &r2.result, "nc-chaos determinism");
    let eq = wavepipe::core::verify::compare(&serial, &r1.result);
    assert!(eq.rms_rel() < 0.02, "rms deviation under nc chaos = {}", eq.rms_rel());
}

/// Runs `b` fault-free under `scheme` (x2 when pipelined) with a recorder
/// attached and returns the ladder's three counters: attempts, rescues,
/// cache rollbacks.
fn ladder_counts(b: &Benchmark, scheme: Scheme) -> [u64; 3] {
    let recorder = RecordingProbe::shared();
    let opts = WavePipeOptions::new(scheme, 2).with_sim(
        SimOptions::default()
            .with_faults(FaultPlan::new())
            .with_probe(ProbeHandle::new(recorder.clone())),
    );
    run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts)
        .unwrap_or_else(|e| panic!("{}: {scheme}: {e}", b.name));
    let c = analyze(&recorder.events()).counts;
    [c.recovery_attempts, c.recovery_rescues, c.cache_rollbacks]
}

// The zero-overhead invariant. These two tests keep their names from
// when a `SimOptions` flag could disarm the ladder and they compared runs
// with it on and off; with the ladder always armed, what they pin is that
// a clean run (no faults, no failures) never enters it.

/// Every `rc_ladder(3..8)` deck under all four schemes: a clean run never
/// enters the ladder.
#[test]
fn clean_runs_ignore_the_recovery_flag() {
    for stages in 3..8 {
        let b = generators::rc_ladder(stages);
        for scheme in [Scheme::Serial, Scheme::Backward, Scheme::Forward, Scheme::Combined] {
            assert_eq!(ladder_counts(&b, scheme), [0; 3], "{}: {scheme}", b.name);
        }
    }
}

/// Serial smoke twin on a nonlinear deck: a clean serial run never enters
/// the ladder, and watching it with a recorder leaves every bit as it is.
#[test]
fn clean_serial_run_is_bit_identical_with_recovery_on_or_off() {
    let b = generators::diode_rectifier();
    let clean = SimOptions::default().with_faults(FaultPlan::new());
    let plain = run_transient(&b.circuit, b.tstep, b.tstop, &clean).unwrap();
    let recorder = RecordingProbe::shared();
    let watched = clean.with_probe(ProbeHandle::new(recorder.clone()));
    let watched = run_transient(&b.circuit, b.tstep, b.tstop, &watched).unwrap();
    assert_bit_identical(&plain, &watched, "serial plain vs watched");
    let c = analyze(&recorder.events()).counts;
    assert_eq!([c.recovery_attempts, c.recovery_rescues, c.cache_rollbacks], [0; 3]);
}

/// The same invariant on the grid the ladder's clean-run cost was measured
/// on, serial and Backward x2.
#[test]
fn a_clean_power_grid_never_enters_the_ladder() {
    let b = generators::power_grid(12, 12);
    assert_eq!(ladder_counts(&b, Scheme::Serial), [0; 3], "serial");
    assert_eq!(ladder_counts(&b, Scheme::Backward), [0; 3], "backward x2");
}
