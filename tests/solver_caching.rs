//! Solver-caching layers end to end: device bypass, chord Newton with LU
//! reuse, and companion caching must speed the hot path up *without* moving
//! the waveform beyond LTE-scale noise.

use wavepipe::circuit::generators;
use wavepipe::engine::{run_transient, FaultPlan, SimOptions, SolverHandle};

/// Knobs pinned explicitly: the CI caches-off leg flips the env defaults,
/// and these tests must assert the same thing on every leg. The empty fault
/// plan overrides `WAVEPIPE_FAULT_SEED`, keeping counter and bit-identity
/// assertions deterministic on the chaos leg too. The solver is pinned to
/// direct LU for the same reason (the `WAVEPIPE_SOLVER=gmres` leg would
/// otherwise widen the off-vs-on grid drift this suite bounds); iterative
/// -vs-direct agreement has its own suite, `tests/solver_equivalence.rs`.
fn caches_off() -> SimOptions {
    SimOptions::default()
        .with_bypass(false)
        .with_chord_newton(false)
        .with_companion_cache(false)
        .with_faults(FaultPlan::new())
        .with_solver(SolverHandle::direct())
}

fn caches_on() -> SimOptions {
    SimOptions::default()
        .with_bypass(true)
        .with_chord_newton(true)
        .with_companion_cache(true)
        .with_faults(FaultPlan::new())
        .with_solver(SolverHandle::direct())
}

#[test]
fn cached_waveform_stays_within_lte_scale_of_uncached() {
    // Chord Newton converges linearly, so its final iterate carries an error
    // bounded by the convergence tolerance rather than plain Newton's
    // quadratically tiny one; bypass freezes device linearizations inside a
    // voltage tolerance. Both effects must stay below the truncation-error
    // scale the step controller already accepts.
    for b in [generators::inverter_chain(8), generators::diode_rectifier()] {
        let base = run_transient(&b.circuit, b.tstep, b.tstop, &caches_off())
            .unwrap_or_else(|e| panic!("{} uncached: {e}", b.name));
        let fast = run_transient(&b.circuit, b.tstep, b.tstop, &caches_on())
            .unwrap_or_else(|e| panic!("{} cached: {e}", b.name));
        for probe in &b.probes {
            let u = base.unknown_of(probe).unwrap_or_else(|| panic!("probe {probe}"));
            let dev = base.max_deviation(&fast, u);
            // Relative to the probe's swing: sampling across two differently
            // accepted grids turns tiny edge-timing shifts into millivolts on
            // a rail-to-rail node, so the bound scales with the signal.
            let tol = 5e-3 * base.peak(u).max(1.0);
            assert!(
                dev < tol,
                "{} probe {probe}: deviation {dev:e} above LTE scale {tol:e}",
                b.name
            );
        }
    }
}

#[test]
fn chord_newton_halves_factorizations_and_bypass_fires() {
    // The acceptance criterion of the caching work: on an inverter chain the
    // chord path must cut full factorization passes by at least 2x, and the
    // bypass must find quiescent MOSFETs to skip.
    let b = generators::inverter_chain(20);
    let cold = run_transient(&b.circuit, b.tstep, b.tstop, &caches_off()).unwrap();
    let warm = run_transient(&b.circuit, b.tstep, b.tstop, &caches_on()).unwrap();
    let (sc, sw) = (cold.stats(), warm.stats());
    assert_eq!(sc.jacobian_reuses, 0, "chord disabled must never reuse");
    assert_eq!(sc.bypass_hits, 0, "bypass disabled must never skip");
    assert!(sw.jacobian_reuses > 0, "chord enabled never reused a factorization");
    assert!(sw.bypass_hits > 0, "bypass enabled never skipped a device");
    assert!(sw.companion_hits > 0, "companion cache never hit on a repeated step size");
    assert!(
        sw.factorizations * 2 <= sc.factorizations,
        "factorizations only dropped from {} to {}",
        sc.factorizations,
        sw.factorizations
    );
    // Cheaper in the abstract cost model too, not just by one counter.
    assert!(sw.work_units() < sc.work_units(), "{} !< {}", sw.work_units(), sc.work_units());
}

#[test]
fn counters_are_dark_when_knobs_are_off() {
    let b = generators::diode_rectifier();
    let res = run_transient(&b.circuit, b.tstep, b.tstop, &caches_off()).unwrap();
    let s = res.stats();
    assert_eq!(s.bypass_hits, 0);
    assert_eq!(s.jacobian_reuses, 0);
    assert_eq!(s.companion_hits, 0);
}
