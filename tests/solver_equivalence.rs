//! Solver-equivalence harness: the GMRES backend behind the
//! `SolverBackend` seam must be a drop-in for direct LU.
//!
//! Two contracts, in increasing strictness:
//!
//! * **LTE-scale agreement.** With the iterative path live (default
//!   tolerances) and every solver-caching layer on, waveforms must stay
//!   within the truncation-error scale of the direct reference on every
//!   benchmark class — GMRES at `tol = 1e-10` perturbs the Newton iterate
//!   below what the step controller already accepts.
//! * **Forced-fallback bit-identity.** When every solve falls back to the
//!   inner direct backend (`max_iters = 0`, or a tolerance no iteration can
//!   meet), the backend must replay the exact call sequence the reference
//!   `DirectLu` would have seen — frozen-factor chord solves included — and
//!   produce bitwise-identical waveforms. The reference is a `DirectLu` that
//!   parks no factor sets (`common::no_parking`): `GmresBackend` keeps none, so a
//!   chord step the default backend takes on factors it had parked is one
//!   the fallback cannot mirror (`power_grid(4,4)` and, with five sets,
//!   `rc_ladder(10)` take such steps). Where the default backend takes none
//!   — the other two classes, and `diode_rectifier` — it is bit-equal to
//!   both.
//!
//! Knobs are pinned explicitly (solver handle included) so the assertions
//! hold unchanged on the CI env-matrix legs, `WAVEPIPE_SOLVER=gmres`
//! included.

mod common;

use common::no_parking;
use proptest::prelude::*;
use wavepipe::circuit::generators::{self, Benchmark};
use wavepipe::engine::{
    run_transient, FaultPlan, GmresConfig, SimOptions, SolverHandle, TransientResult,
};

/// The four benchmark classes the issue pins: two band-structured circuits,
/// a MOSFET chain that exercises bypass + chord Newton, and the 2-D mesh
/// the iterative path exists for.
fn suite() -> [Benchmark; 4] {
    [
        generators::rc_ladder(10),
        generators::rlc_line(6),
        generators::inverter_chain(8),
        generators::power_grid(4, 4),
    ]
}

/// All PR-4 caching layers on, env influence pinned off.
fn caches_on(solver: SolverHandle) -> SimOptions {
    SimOptions::default()
        .with_bypass(true)
        .with_chord_newton(true)
        .with_companion_cache(true)
        .with_faults(FaultPlan::new())
        .with_solver(solver)
}

fn run(b: &Benchmark, opts: &SimOptions) -> TransientResult {
    run_transient(&b.circuit, b.tstep, b.tstop, opts).unwrap_or_else(|e| panic!("{}: {e}", b.name))
}

fn assert_lte_scale(b: &Benchmark, reference: &TransientResult, gmres: &TransientResult) {
    for probe in &b.probes {
        let u = reference.unknown_of(probe).unwrap_or_else(|| panic!("probe {probe}"));
        let dev = reference.max_deviation(gmres, u);
        // Same band as the caching-equivalence suite: tiny edge-timing
        // shifts across two independently accepted grids scale with the
        // probe's swing.
        let tol = 5e-3 * reference.peak(u).max(1.0);
        assert!(
            dev < tol,
            "{} probe {probe}: gmres deviates {dev:e} from direct, above LTE scale {tol:e}",
            b.name
        );
    }
}

fn assert_bit_identical(a: &TransientResult, b: &TransientResult, what: &str) {
    assert_eq!(a.times(), b.times(), "{what}: time grids differ");
    for k in 0..a.len() {
        assert_eq!(a.solution(k), b.solution(k), "{what}: solutions differ at point {k}");
    }
}

#[test]
fn gmres_waveforms_stay_within_lte_scale_of_direct_on_all_classes() {
    for b in suite() {
        let reference = run(&b, &caches_on(SolverHandle::direct()));
        let opts = caches_on(SolverHandle::gmres(GmresConfig::default()));
        let iterative = run(&b, &opts);
        assert_lte_scale(&b, &reference, &iterative);
    }
}

#[test]
fn gmres_path_actually_iterates_on_the_power_grid() {
    // Guards the premise of the whole suite: agreement is vacuous if the
    // backend silently falls back on every solve.
    let b = generators::power_grid(4, 4);
    let res = run(&b, &caches_on(SolverHandle::gmres(GmresConfig::default())));
    let s = res.stats();
    assert!(s.krylov_iterations > 0, "no Krylov iterations recorded — backend never engaged");
    // ILU(0) breaks down on the voltage-source branch rows, so the very
    // first solve completes direct and donates its factors as the standing
    // preconditioner; after that the iterative path must carry the run.
    assert!(
        s.solver_fallbacks * 10 <= s.solves,
        "fallback took {} of {} solves — the Krylov path is not carrying the run",
        s.solver_fallbacks,
        s.solves
    );
}

#[test]
fn forced_fallback_is_bit_identical_on_all_classes() {
    // max_iters = 0: GMRES never runs, every solve replays the pending
    // factor/refactor sequence against the inner DirectLu.
    for b in suite() {
        let reference = run(&b, &caches_on(no_parking()));
        let forced = GmresConfig { max_iters: 0, ..GmresConfig::default() };
        let fallback = run(&b, &caches_on(SolverHandle::gmres(forced)));
        assert_bit_identical(&reference, &fallback, &format!("{} forced fallback", b.name));
        assert!(
            fallback.stats().solver_fallbacks > 0,
            "{}: forced config never took the fallback path",
            b.name
        );
    }
}

#[test]
fn the_default_backend_is_the_no_parking_reference_where_it_takes_no_parked_hit() {
    // The other half of the contract: on the classes whose keys never come
    // back within five, parking changes nothing, so the forced fallback is
    // still bit-equal to the backend a user gets by default. The rectifier
    // stands in for the ladder as the third such class: a diode deck whose
    // keys do not recur within five either.
    let [ladder, line, chain, grid] = suite();
    for b in [&line, &chain, &generators::diode_rectifier()] {
        let default = run(b, &caches_on(SolverHandle::direct()));
        let reference = run(b, &caches_on(no_parking()));
        assert_bit_identical(&default, &reference, &format!("{} default backend", b.name));
        assert_eq!(default.stats().factorizations, reference.stats().factorizations, "{}", b.name);
    }
    // The grid, and since there are five sets the RC ladder, are why the
    // reference parks nothing: the default backend solves the same points
    // with fewer numeric factorizations.
    for b in [&ladder, &grid] {
        let default = run(b, &caches_on(SolverHandle::direct()));
        let reference = run(b, &caches_on(no_parking()));
        assert!(default.stats().factorizations < reference.stats().factorizations, "{}", b.name);
    }
}

#[test]
fn unreachable_tolerance_forces_fallback_bit_identically() {
    // The other way to force the fallback: a tolerance no finite-precision
    // iteration can meet, so GMRES burns its budget, stagnates, and every
    // solve completes on the direct path.
    let b = generators::power_grid(4, 4);
    let reference = run(&b, &caches_on(no_parking()));
    let forced = GmresConfig { tol: 0.0, max_iters: 8, restart: 4 };
    let fallback = run(&b, &caches_on(SolverHandle::gmres(forced)));
    assert_bit_identical(&reference, &fallback, "tolerance-forced fallback");
    assert!(fallback.stats().solver_fallbacks > 0, "tolerance never forced the fallback");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Fuzzed version of the LTE-scale contract: any sane GMRES tuning, on
    // any benchmark class, stays equivalent to the direct reference.
    #[test]
    fn any_sane_gmres_tuning_stays_equivalent(
        circuit_ix in 0usize..4,
        restart in 2usize..40,
        tol_exp in 8u32..12,
        max_iters in 50usize..300,
    ) {
        let b = &suite()[circuit_ix];
        let reference = run(b, &caches_on(SolverHandle::direct()));
        let cfg = GmresConfig { restart, tol: 10f64.powi(-(tol_exp as i32)), max_iters };
        let iterative = run(b, &caches_on(SolverHandle::gmres(cfg)));
        assert_lte_scale(b, &reference, &iterative);
    }
}
