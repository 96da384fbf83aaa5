//! The stamping kernel against the plain device walk, a batch's instances
//! against their solo runs, and the names the deleted stamp-worker layer
//! left behind for `benchmark/`.
//!
//! [`MnaSystem::stamp_lane`] is the one kernel every tier stamps through;
//! its per-point linear-RHS replay must reproduce *exactly* — not merely
//! numerically close — the matrix values, RHS, junction state and limiting
//! flag of the walk it skips (randomized iterates, property-based).

use proptest::prelude::*;
use wavepipe::batch::{BatchSim, ParamKind};
use wavepipe::circuit::{generators, Element};
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::{
    run_transient, MnaSystem, SimOptions, SimStats, SolverHandle, StampInput, TransientResult,
};

/// Deterministic pseudo-random iterate: enough structure to push junctions
/// into different regions without platform-dependent RNG state.
fn iterate(n: usize, seed: f64) -> Vec<f64> {
    (0..n).map(|i| seed * (0.7 * i as f64 + seed).sin()).collect()
}

fn dc_input<'a>(zeros: &'a [f64], caps: &'a [f64], gshunt: f64) -> StampInput<'a> {
    StampInput {
        time: 0.0,
        coeffs: None,
        x_prev: zeros,
        x_prev2: zeros,
        cap_currents: caps,
        gmin: 1e-12,
        gshunt,
        source_scale: 1.0,
        ic_mode: false,
    }
}

/// Stamps a sequence of iterates two ways with the device-bypass and
/// companion caches enabled, asserting bitwise identity after each stamp:
/// the walk (`stamp_with`: linear devices re-emitted every call) and the
/// kernel treating the sequence as the Newton iterations of one point (calls
/// after the first replay the linear RHS snapshot). The sequence deliberately
/// exercises the caches: later iterates repeat and then barely perturb an
/// earlier one, so some stamps replay every nonlinear device from cache and
/// some replay a mix.
fn assert_stamps_bit_identical(b: &generators::Benchmark, seed: f64, gshunt: f64) {
    let sys = MnaSystem::compile(&b.circuit).expect("compile");
    let n = sys.n_unknowns();
    let zeros = vec![0.0; n];
    let caps = vec![0.0; sys.cap_state_count()];
    let input = dc_input(&zeros, &caps, gshunt);
    // Pinned on (the CI caches-off leg flips the env defaults): bit-identity
    // must hold with bypass and companion replay active.
    let ctl = SimOptions::default().with_bypass(true).with_companion_cache(true).cache_ctl();

    let mut ws_walk = sys.new_workspace();
    let mut ws = sys.new_workspace();

    let x0 = iterate(n, seed);
    let x1 = iterate(n, seed + 1.0);
    // Identical to x1: every valid nonlinear device bypasses.
    let x2 = x1.clone();
    // Mixed: even unknowns move within the bypass tolerance, odd ones far
    // outside it.
    let x3: Vec<f64> =
        x1.iter().enumerate().map(|(i, v)| v + if i % 2 == 0 { 1e-9 } else { 1e-2 }).collect();
    for (step, x) in [x0, x1, x2, x3].iter().enumerate() {
        let res_walk = sys.stamp_with(&mut ws_walk, &input, x, &ctl);
        let res = sys.stamp_lane(&mut ws, &input, x, &ctl, step == 0);
        let ctx = format!("{} step {step}", b.name);
        assert_eq!(res_walk, res, "{ctx}: stamp result");
        assert_eq!(ws_walk.limited, ws.limited, "{ctx}: limited flag");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ws_walk.matrix.values()), bits(ws.matrix.values()), "{ctx}: matrix");
        assert_eq!(bits(&ws_walk.rhs), bits(&ws.rhs), "{ctx}: rhs");
        assert_eq!(bits(&ws_walk.junction_state), bits(&ws.junction_state), "{ctx}: junction");
    }
}

fn assert_results_bit_identical(want: &TransientResult, got: &TransientResult, ctx: &str) {
    assert_eq!(want.times(), got.times(), "{ctx}: accepted times differ");
    for k in 0..want.len() {
        for (i, (a, p)) in want.solution(k).iter().zip(got.solution(k)).enumerate() {
            assert_eq!(a.to_bits(), p.to_bits(), "{ctx}: point {k} unknown {i}: {a:e} vs {p:e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn stamps_bit_identical_across_suite(
        seed in -2.0f64..2.0,
        gshunt_idx in 0usize..3,
    ) {
        let gshunt = [0.0f64, 1e-6, 1e-2][gshunt_idx];
        for b in generators::small_suite() {
            assert_stamps_bit_identical(&b, seed, gshunt);
        }
    }
}

/// A batch instance is its solo run: the same bits and the same work counts
/// as `run_transient` on the hand-patched circuit, with the chord, bypass and
/// companion caches all live, at one batch worker and at two (one fixed case
/// of the proptest in `crates/batch/tests/bit_identity.rs`, which
/// `cargo test -q` does not run).
#[test]
fn batch_instances_are_their_solo_runs_bits_and_counts() {
    let b = generators::inverter_chain(3);
    // Direct LU pinned: the batch engine always solves through the shared
    // direct backend, so the single-run reference must not drift onto the
    // iterative path under `WAVEPIPE_SOLVER=gmres`.
    let opts = SimOptions::default()
        .with_bypass(true)
        .with_chord_newton(true)
        .with_companion_cache(true)
        .with_solver(SolverHandle::direct());
    let corners = [[1.0e-4, 20e-15], [1.2e-4, 30e-15], [0.8e-4, 12e-15], [1.1e-4, 38e-15]];
    let refs: Vec<TransientResult> = corners
        .iter()
        .map(|&[kp, cl]| {
            let mut ckt = b.circuit.clone();
            if let Some(Element::Mosfet { model, .. }) = ckt.element_mut("Mn0") {
                model.kp = kp;
            }
            if let Some(Element::Capacitor { capacitance, .. }) = ckt.element_mut("Cl1") {
                *capacitance = cl;
            }
            run_transient(&ckt, b.tstep, b.tstop, &opts).expect("reference run")
        })
        .collect();
    let counts = |r: &TransientResult| {
        let s = r.stats();
        (s.newton_iterations, s.factorizations, s.refactorizations, s.steps_accepted)
    };
    for threads in [1usize, 2] {
        let mut batch = BatchSim::compile(&b.circuit, b.tstep, b.tstop)
            .expect("compile")
            .with_threads(threads)
            .with_sim(opts.clone());
        batch.param("Mn0", ParamKind::MosKp).expect("kp column");
        batch.param("Cl1", ParamKind::Capacitance).expect("cl column");
        for c in &corners {
            batch.add_instance(c).expect("instance");
        }
        let got = batch.run().expect("batch run").into_results();
        assert_eq!(got.len(), refs.len());
        for (i, (g, w)) in got.iter().zip(&refs).enumerate() {
            let what = format!("threads={threads} instance={i}");
            assert_results_bit_identical(w, g, &what);
            assert_eq!(counts(g), counts(w), "{what}: work counts diverged");
        }
    }
}

/// The four stamp-worker names `benchmark/` still compiles against select
/// nothing: a run that sets them is the default run — same bits, same
/// counts, same thread count. No environment name reaches the field:
/// `engine::env` refuses any `WAVEPIPE_*` name that is no knob, which its
/// unit tests check as a pure function, since setting a variable here
/// would race every other test.
#[test]
fn with_stamp_workers_is_inert() {
    assert_eq!(SimOptions::default().stamp_workers, 0);

    let b = generators::inverter_chain(8);
    // Every counter; the wall-clock fields are the only ones that may differ.
    let counts = |s: &SimStats| {
        let mut s = *s;
        (s.wall_ns, s.stamp_ns) = (0, 0);
        s
    };
    let (plain, set) = (SimOptions::default(), SimOptions::default().with_stamp_workers(2));
    let want = run_transient(&b.circuit, b.tstep, b.tstop, &plain).expect("default run");
    let got = run_transient(&b.circuit, b.tstep, b.tstop, &set).expect("run with the name set");
    assert_results_bit_identical(&want, &got, "serial");
    assert_eq!(counts(want.stats()), counts(got.stats()));

    let piped = |opts: WavePipeOptions| {
        run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).expect("Backward x2 run")
    };
    let x2 = WavePipeOptions::new(Scheme::Backward, 2);
    let want = piped(x2.clone().with_sim(plain));
    let got = piped(x2.with_stamp_workers(2).with_sim(set));
    assert_results_bit_identical(&want.result, &got.result, "Backward x2");
    assert_eq!(counts(&want.total), counts(&got.total));
    assert_eq!((want.threads, got.threads), (2, 2));
    assert!(got.summary().starts_with("backward x2:"), "{}", got.summary());
}
