//! One LU plan per pipelined run.
//!
//! A pipelined run's worker lanes start on the plan of the operating point's
//! factorization instead of pivoting their own first matrix: each lane's
//! first refactorization checks that its own pivot search would have chosen
//! that plan's pivots, keeps the plan where it would (the `plan` cache
//! layer's hit) and pays the private factorization it always paid where it
//! would not (a miss). A kept plan computes the factors the lane's own search
//! would have, bit for bit, so every run below is the run of the same lanes
//! with nothing to adopt — a solver handle the pipeline shares no plan under
//! (`SolverHandle::new` around a plain `DirectLu`: a `DirectLu` per lane,
//! pivoting for itself) — in every accepted point and every `SimStats`
//! counter but one: each kept plan turns a fresh factorization into a
//! refactorization.

use std::sync::Arc;
use wavepipe::circuit::generators::{self, Benchmark};
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::{
    run_transient, DirectLu, FaultKind, FaultPlan, ProbeHandle, RecordingProbe, SimOptions,
    SimStats, SolverHandle, TransientResult,
};
use wavepipe::telemetry::analyze;

#[path = "common/golden.rs"]
mod golden;
use golden::GOLDEN;

/// Every cache on and everything an environment leg of CI can flip pinned.
fn pinned(solver: SolverHandle) -> SimOptions {
    SimOptions::default()
        .with_solver(solver)
        .with_faults(FaultPlan::new())
        .with_recovery(true)
        .with_bypass(true)
        .with_chord_newton(true)
        .with_companion_cache(true)
}

/// A handle making the default `DirectLu`, which the pipeline hands no plan.
fn own_pivots() -> SolverHandle {
    SolverHandle::new(Arc::new(DirectLu::new()))
}

struct Run {
    result: TransientResult,
    stats: SimStats,
    /// `Counts::{plan_hits, plan_misses}`.
    plan: (u64, u64),
    workers_lost: usize,
}

fn run(
    b: &Benchmark,
    scheme: Scheme,
    threads: usize,
    solver: SolverHandle,
    faults: FaultPlan,
) -> Run {
    let recorder = RecordingProbe::shared();
    let opts = WavePipeOptions::new(scheme, threads)
        .with_sim(pinned(solver))
        .with_faults(faults)
        .with_probe(ProbeHandle::new(recorder.clone()));
    let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).expect("pipelined run");
    let counts = analyze(&recorder.events()).counts;
    Run {
        result: rep.result,
        stats: rep.total,
        plan: (counts.plan_hits, counts.plan_misses),
        workers_lost: rep.workers_lost,
    }
}

fn bits(r: &TransientResult) -> Vec<Vec<u64>> {
    (0..r.len())
        .map(|k| {
            std::iter::once(r.times()[k])
                .chain(r.solution(k).iter().copied())
                .map(f64::to_bits)
                .collect()
        })
        .collect()
}

/// The same accepted points to the bit, and the same counters, except that
/// each `plan` hit of `got` counts as a refactorization the fresh
/// factorization `want` paid in its place.
fn assert_same_run(got: &Run, want: &Run, what: &str) {
    assert!(bits(&got.result) == bits(&want.result), "{what}: waveforms differ");
    let kept = (got.plan.0 - want.plan.0) as usize;
    assert_eq!(
        SimStats { wall_ns: 0, stamp_ns: 0, ..got.stats },
        SimStats {
            wall_ns: 0,
            stamp_ns: 0,
            refactorizations: want.stats.refactorizations + kept,
            ..want.stats
        },
        "{what}"
    );
}

#[test]
fn every_lane_on_the_power_grid_keeps_the_operating_point_s_plan() {
    let b = generators::power_grid(16, 16);
    for (scheme, threads) in [(Scheme::Backward, 2), (Scheme::Combined, 3)] {
        let what = format!("{scheme} x{threads}");
        let adopted = run(&b, scheme, threads, SolverHandle::direct(), FaultPlan::new());
        let own = run(&b, scheme, threads, own_pivots(), FaultPlan::new());
        // Each worker lane kept the plan; nothing was handed to the other run.
        assert_eq!(adopted.plan, (threads as u64 - 1, 0), "{what}");
        assert_eq!(own.plan, (0, 0), "{what}");
        assert_same_run(&adopted, &own, &what);
        // One pivot search in the whole run, the operating point's: each
        // lane's checked pass over the plan is a refactorization.
        let s = adopted.stats;
        assert_eq!(s.factorizations - s.refactorizations, 1, "{what}");
    }
}

#[test]
fn a_lane_whose_first_matrix_pivots_otherwise_pays_its_own_factorization() {
    // `inverter_chain(8)`: the worker's first transient matrix pivots
    // differently from the operating point's, so the check fails and the
    // lane factors privately, exactly as before there was a plan to adopt.
    let b = generators::inverter_chain(8);
    let adopted = run(&b, Scheme::Backward, 2, SolverHandle::direct(), FaultPlan::new());
    assert_eq!(adopted.plan, (0, 1));
    assert_same_run(&adopted, &run(&b, Scheme::Backward, 2, own_pivots(), FaultPlan::new()), "own");
    // The counts of the golden table's Backward x2 row with the caches on.
    let &(.., iterations, points, factorizations) = GOLDEN
        .iter()
        .find(|row| (row.0, row.1, row.2) == ("inverter_chain(8)", "backward_x2", true))
        .expect("a golden row for inverter_chain(8) Backward x2");
    let s = adopted.stats;
    assert_eq!(
        (s.newton_iterations, s.steps_accepted, s.factorizations),
        (iterations, points, factorizations)
    );
}

#[test]
fn a_respawned_lane_adopts_again_and_lost_lanes_leave_the_serial_run() {
    let b = generators::power_grid(8, 8);
    // A panic at the worker's fifth solve, and again at its respawn's: each
    // incarnation adopted the plan at its first solve.
    let panics = || FaultPlan::new().with_solve_fault(1, Some(5), FaultKind::PanicWorker);
    let adopted = run(&b, Scheme::Backward, 2, SolverHandle::direct(), panics());
    assert_eq!(adopted.workers_lost, 2);
    assert_eq!(adopted.plan, (2, 0));
    assert_same_run(&adopted, &run(&b, Scheme::Backward, 2, own_pivots(), panics()), "respawned");
    // A lane that panics at every solve never linearizes: the committed
    // waveform is the serial run's, as `tests/failure_modes.rs` holds.
    let always = FaultPlan::new().with_solve_fault(1, None, FaultKind::PanicWorker);
    let lost = run(&b, Scheme::Backward, 2, SolverHandle::direct(), always);
    assert_eq!(lost.plan, (0, 0));
    let serial = run_transient(&b.circuit, b.tstep, b.tstop, &pinned(SolverHandle::direct()))
        .expect("serial run");
    assert!(bits(&lost.result) == bits(&serial), "lost lanes moved the serial waveform");
}
