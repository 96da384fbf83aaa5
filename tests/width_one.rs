//! DESIGN.md invariant 6, tested directly: every scheme at one thread *is*
//! the serial run — the same accepted grid, the same samples to the bit, the
//! same step and Newton counters — on a clean run, through the recovery
//! ladder, through a singular solve, and up to the same terminal error. It
//! holds because both tiers take every step decision from one
//! `engine::StepController`; this is where that is checked.

use wavepipe::circuit::generators::{self, Benchmark};
use wavepipe::core::{run_wavepipe_recoverable, RunOutcome, Scheme, WavePipeOptions};
use wavepipe::engine::{
    run_transient_recoverable, EngineError, FaultKind, FaultPlan, SimOptions, SolverHandle,
    TransientOutcome,
};

const SCHEMES: [Scheme; 4] = [Scheme::Serial, Scheme::Backward, Scheme::Forward, Scheme::Combined];

/// Everything an environment leg of CI can flip is pinned (as
/// `golden_bits.rs::pinned` does); the fault plan is the test's own.
fn pinned(plan: FaultPlan) -> SimOptions {
    SimOptions::default().with_solver(SolverHandle::direct()).with_faults(plan)
}

fn serial(b: &Benchmark, plan: &FaultPlan) -> TransientOutcome {
    run_transient_recoverable(&b.circuit, b.tstep, b.tstop, &pinned(plan.clone()))
        .unwrap_or_else(|e| panic!("{}: serial set-up: {e}", b.name))
}

fn width_one(b: &Benchmark, scheme: Scheme, plan: &FaultPlan) -> RunOutcome {
    let opts = WavePipeOptions::new(scheme, 1).with_sim(pinned(plan.clone()));
    run_wavepipe_recoverable(&b.circuit, b.tstep, b.tstop, &opts)
        .unwrap_or_else(|e| panic!("{} {scheme} x1: set-up: {e}", b.name))
}

fn assert_same_run(s: &TransientOutcome, w: &RunOutcome, what: &str) {
    let (a, b) = (&s.result, &w.report.result);
    assert_eq!(a.len(), b.len(), "{what}: point counts differ");
    for k in 0..a.len() {
        assert_eq!(a.times()[k].to_bits(), b.times()[k].to_bits(), "{what}: time of point {k}");
        let same = a.solution(k).iter().zip(b.solution(k)).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what}: samples differ at point {k} (t = {:e})", a.times()[k]);
    }
    let (sa, sb) = (a.stats(), &w.report.total);
    assert_eq!(sa.steps_accepted, sb.steps_accepted, "{what}: steps_accepted");
    assert_eq!(sa.steps_rejected_lte, sb.steps_rejected_lte, "{what}: steps_rejected_lte");
    assert_eq!(sa.steps_rejected_newton, sb.steps_rejected_newton, "{what}: steps_rejected_newton");
    assert_eq!(sa.newton_iterations, sb.newton_iterations, "{what}: newton_iterations");
    assert_eq!(s.error, w.error, "{what}: terminal error");
}

#[test]
fn every_scheme_at_one_thread_is_the_serial_run() {
    // Lane 0 is the only lane at width 1, so both plans hit the same solves
    // in both tiers: thirty forced non-convergences in a row shrink the step
    // through the floor and into the rescue ladder (`nr_shrink = 0.125`,
    // `hmin = 1e-10 * tstop`), and one injected singular matrix is a plain
    // Newton rejection.
    let burst = (10..40).fold(FaultPlan::new(), |p, seq| {
        p.with_solve_fault(0, Some(seq), FaultKind::ForceNonConvergence)
    });
    let singular = FaultPlan::new().with_solve_fault(0, Some(7), FaultKind::SingularMatrix);
    let plans = [("clean", FaultPlan::new()), ("nc-burst", burst), ("singular", singular)];
    for b in generators::small_suite() {
        for (label, plan) in &plans {
            let s = serial(&b, plan);
            assert!(s.error.is_none(), "{} {label}: serial ended with {:?}", b.name, s.error);
            if *label != "clean" {
                assert!(s.result.stats().steps_rejected_newton > 0, "{} {label}: inert", b.name);
            }
            for scheme in SCHEMES {
                let w = width_one(&b, scheme, plan);
                assert_same_run(&s, &w, &format!("{} {label} {scheme} x1", b.name));
            }
        }
    }
}

#[test]
fn nan_on_lane_zero_ends_both_tiers_at_the_same_point() {
    // A non-finite *base* point is not a step-size problem: the serial
    // engine ends the run with `NumericalBlowup`, and so must slot 0 of a
    // round — same error, same accepted prefix. (Speculative slots are
    // different: `failure_modes.rs::soft_faults_on_leads_*` discards them.)
    let plan = FaultPlan::new().with_solve_fault(0, Some(12), FaultKind::NanSolution);
    for b in [generators::rc_ladder(12), generators::diode_rectifier()] {
        let s = serial(&b, &plan);
        assert!(
            matches!(s.error, Some(EngineError::NumericalBlowup { .. })),
            "{}: serial ended with {:?}",
            b.name,
            s.error
        );
        assert!(s.result.len() > 1, "{}: the prefix before the fault survives", b.name);
        for scheme in SCHEMES {
            let w = width_one(&b, scheme, &plan);
            assert_same_run(&s, &w, &format!("{} nan {scheme} x1", b.name));
        }
    }
}
