//! Transient convergence recovery ladder: the rescue path must save runs
//! that previously died with `TimestepTooSmall`/`NoConvergence`, must stay
//! deterministic under forced-non-convergence chaos, and — the
//! zero-overhead invariant — must not perturb a single bit of any run that
//! never needed it.

use proptest::prelude::*;
use wavepipe::circuit::generators;
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::{
    run_transient, EngineError, FaultKind, FaultPlan, ProbeHandle, RecordingProbe, SimOptions,
    TransientResult,
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
fn recovery_off_surfaces_timestep_too_small() {
    // The exact same burst with the ladder disabled is the classic death:
    // the controller shrinks to the floor and gives up.
    let b = generators::rc_ladder(6);
    let opts = SimOptions::default().with_faults(nc_burst(30)).with_recovery(false);
    let err = run_transient(&b.circuit, b.tstep, b.tstop, &opts).unwrap_err();
    assert!(matches!(err, EngineError::TimestepTooSmall { .. }), "got {err}");
}

#[test]
fn stiff_diode_transient_completes_via_the_ladder() {
    // The acceptance fixture: a nonlinear rectifier whose solves are forced
    // unconverged long enough to previously abort, now completes.
    let b = generators::diode_rectifier();
    let clean = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
    let opts = SimOptions::default().with_faults(nc_burst(25));
    assert!(
        run_transient(&b.circuit, b.tstep, b.tstop, &opts.clone().with_recovery(false)).is_err(),
        "without the ladder this fixture must die"
    );
    let rescued = run_transient(&b.circuit, b.tstep, b.tstop, &opts).expect("ladder rescue");
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

// Zero-overhead invariant, fuzzed: a clean run (no faults, no failures)
// must be bit-identical with the recovery ladder armed or disarmed, for
// the serial engine and every pipelining scheme.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn clean_runs_ignore_the_recovery_flag(stages in 3usize..8, scheme_ix in 0usize..4) {
        let b = generators::rc_ladder(stages);
        let scheme = [
            Scheme::Serial,
            Scheme::Backward,
            Scheme::Forward,
            Scheme::Combined,
        ][scheme_ix];
        let base = WavePipeOptions::new(scheme, 2);
        let on = base.clone().with_sim(
            SimOptions::default().with_recovery(true),
        );
        let off = base.with_sim(
            SimOptions::default().with_recovery(false),
        );
        let r_on = run_wavepipe(&b.circuit, b.tstep, b.tstop, &on).unwrap();
        let r_off = run_wavepipe(&b.circuit, b.tstep, b.tstop, &off).unwrap();
        assert_bit_identical(
            &r_on.result,
            &r_off.result,
            &format!("{scheme} stages={stages} recovery on vs off"),
        );
    }
}

/// Non-fuzzed smoke version of the invariant, so a plain `cargo test`
/// failure names it directly: serial engine, recovery on vs off.
#[test]
fn clean_serial_run_is_bit_identical_with_recovery_on_or_off() {
    let b = generators::diode_rectifier();
    let on =
        run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default().with_recovery(true))
            .unwrap();
    let off =
        run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default().with_recovery(false))
            .unwrap();
    assert_bit_identical(&on, &off, "serial recovery on vs off");
}
