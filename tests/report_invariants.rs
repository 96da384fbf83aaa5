//! Invariants of the WavePipe reports across schemes — the
//! bookkeeping that the speedup claims rest on.

use wavepipe::circuit::generators;
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::run_transient;

#[test]
fn report_counters_are_internally_consistent() {
    let b = generators::power_grid(4, 4);
    for (scheme, threads) in [(Scheme::Backward, 2), (Scheme::Forward, 2), (Scheme::Combined, 4)] {
        let rep =
            run_wavepipe(&b.circuit, b.tstep, b.tstop, &WavePipeOptions::new(scheme, threads))
                .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        // Steps counted = points minus the t=0 operating point.
        assert_eq!(rep.result.len(), rep.total.steps_accepted + 1, "{scheme}");
        // Every Newton iteration did exactly one stamp and at most three
        // solves (chord attempt, frozen-pivot pass, fresh-pivot fallback).
        assert!(rep.total.solves <= rep.total.newton_iterations * 3, "{scheme}");
        // Factorization passes: at most a frozen attempt plus a fresh
        // fallback per iteration; frozen-pivot passes are a subset.
        assert!(rep.total.factorizations <= rep.total.newton_iterations * 2, "{scheme}");
        assert!(rep.total.refactorizations <= rep.total.factorizations, "{scheme}");
        assert!(rep.total.jacobian_reuses <= rep.total.newton_iterations, "{scheme}");
        // Critical path bounded by totals and by positivity.
        assert!(rep.critical_work > 0, "{scheme}");
        assert!(rep.critical_work <= rep.total.work_units(), "{scheme}");
        assert!(rep.critical_ns <= rep.total.wall_ns, "{scheme}: cp ns > total ns");
        // Rounds at least the committed points divided by the width.
        assert!(rep.rounds >= rep.total.steps_accepted / threads.max(1), "{scheme}");
    }
}

#[test]
fn serial_work_units_match_between_paths() {
    // The serial scheme and the direct engine call must account identically.
    let b = generators::rc_ladder(6);
    let eng = run_transient(&b.circuit, b.tstep, b.tstop, &WavePipeOptions::default().sim).unwrap();
    let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &WavePipeOptions::new(Scheme::Serial, 1))
        .unwrap();
    assert_eq!(rep.total.steps_accepted, eng.stats().steps_accepted);
    assert_eq!(rep.total.newton_iterations, eng.stats().newton_iterations);
    assert_eq!(rep.critical_work, eng.stats().work_units());
}

#[test]
fn single_thread_forward_and_combined_degenerate_gracefully() {
    let b = generators::rc_ladder(5);
    for scheme in [Scheme::Forward, Scheme::Combined] {
        let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &WavePipeOptions::new(scheme, 1))
            .unwrap_or_else(|e| panic!("{scheme} x1: {e}"));
        assert!(rep.result.len() > 5, "{scheme} x1 must still simulate");
        assert_eq!(rep.speculation_accepted + rep.speculation_rejected, 0, "{scheme}");
    }
}
