//! Property-based bit-identity: every instance of a [`BatchSim`] run must be
//! **bitwise identical** — same time grid, same solution vectors, down to the
//! last ulp — to running the classic single-run API on the same patched
//! circuit, with every determinism-sensitive cache enabled, at one worker
//! and at four.
//!
//! This is the batched engine's version of the repo-wide invariant that
//! every parallel or cached path is pinned bit-identical to the serial
//! engine: sharing the compiled pattern, slot table and stamp plan across
//! instances must not perturb a single bit of any instance's waveform.

use proptest::prelude::*;
use wavepipe_batch::{BatchSim, ParamKind};
use wavepipe_circuit::{Circuit, Element, MosModel, Waveform};
use wavepipe_engine::{run_transient, SimOptions, SolverHandle};

const VDD: f64 = 3.3;
const TSTEP: f64 = 0.02e-9;
const TSTOP: f64 = 2e-9;

/// Two-stage CMOS inverter chain with load caps — small enough to fuzz,
/// nonlinear enough to exercise Newton, the chord cache, bypass, and the
/// companion cache.
fn inverter2() -> Circuit {
    let mut ckt = Circuit::new("prop inverter x2");
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    ckt.add_vsource("Vdd", vdd, Circuit::GROUND, Waveform::dc(VDD)).expect("vdd");
    ckt.add_vsource(
        "Vin",
        inp,
        Circuit::GROUND,
        Waveform::pulse(0.0, VDD, 0.1e-9, 0.05e-9, 0.05e-9, 0.8e-9, 1.8e-9),
    )
    .expect("vin");
    let mut prev = inp;
    for i in 0..2 {
        let out = ckt.node(&format!("s{i}"));
        let nmos = MosModel { kp: 1e-4, w: 20e-6, l: 1e-6, ..MosModel::nmos() };
        let pmos = MosModel { kp: 5e-5, w: 40e-6, l: 1e-6, ..MosModel::pmos() };
        ckt.add_mosfet(&format!("Mp{i}"), out, prev, vdd, pmos).expect("pmos");
        ckt.add_mosfet(&format!("Mn{i}"), out, prev, Circuit::GROUND, nmos).expect("nmos");
        ckt.add_capacitor(&format!("Cl{i}"), out, Circuit::GROUND, 20e-15).expect("load");
        prev = out;
    }
    ckt
}

/// One fuzzed corner: per-stage device parameters for the chain.
#[derive(Debug, Clone)]
struct Corner {
    kp_n: f64,
    vt0_p: f64,
    cl: f64,
}

fn corner() -> impl Strategy<Value = Corner> {
    (0.7e-4..1.3e-4f64, 0.5..0.9f64, 10e-15..40e-15f64).prop_map(|(kp_n, vt0_mag, cl)| Corner {
        kp_n,
        vt0_p: -vt0_mag,
        cl,
    })
}

/// Every determinism-sensitive cache pinned ON, independent of the
/// `WAVEPIPE_*` environment overrides a CI leg may set, the solver (direct
/// LU) included. Batch and reference run under these same options.
fn pinned_opts() -> SimOptions {
    SimOptions::default()
        .with_bypass(true)
        .with_chord_newton(true)
        .with_companion_cache(true)
        .with_solver(SolverHandle::direct())
}

/// Classic single-run reference: patch the circuit by hand, recompile from
/// scratch, solve under the batch's options.
fn reference(corner: &Corner) -> wavepipe_engine::TransientResult {
    let mut ckt = inverter2();
    if let Some(Element::Mosfet { model, .. }) = ckt.element_mut("Mn0") {
        model.kp = corner.kp_n;
    }
    if let Some(Element::Mosfet { model, .. }) = ckt.element_mut("Mp1") {
        model.vt0 = corner.vt0_p;
    }
    if let Some(Element::Capacitor { capacitance, .. }) = ckt.element_mut("Cl1") {
        *capacitance = corner.cl;
    }
    run_transient(&ckt, TSTEP, TSTOP, &pinned_opts()).expect("reference run")
}

fn batch_sim(corners: &[Corner], threads: usize) -> BatchSim {
    let mut batch = BatchSim::compile(&inverter2(), TSTEP, TSTOP)
        .expect("compile")
        .with_threads(threads)
        .with_sim(pinned_opts());
    batch.param("Mn0", ParamKind::MosKp).expect("kp column");
    batch.param("Mp1", ParamKind::MosVt0).expect("vt0 column");
    batch.param("Cl1", ParamKind::Capacitance).expect("cl column");
    for c in corners {
        batch.add_instance(&[c.kp_n, c.vt0_p, c.cl]).expect("instance");
    }
    batch
}

fn batch_for(corners: &[Corner], threads: usize) -> Vec<wavepipe_engine::TransientResult> {
    batch_sim(corners, threads).run().expect("batch run").into_results()
}

fn assert_bitwise_equal(
    got: &wavepipe_engine::TransientResult,
    want: &wavepipe_engine::TransientResult,
    what: &str,
) {
    assert_eq!(got.times(), want.times(), "{what}: time grids diverged");
    for k in 0..want.len() {
        let g = got.solution(k);
        let w = want.solution(k);
        assert_eq!(g, w, "{what}: solution vectors diverged at point {k}");
        for (a, b) in g.iter().zip(w) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: ulp-level divergence at point {k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batched_instances_are_bitwise_identical_to_single_runs(
        corners in proptest::collection::vec(corner(), 2..5)
    ) {
        let refs: Vec<_> = corners.iter().map(reference).collect();
        for workers in [1usize, 4] {
            let got = batch_for(&corners, workers);
            prop_assert_eq!(got.len(), refs.len());
            for (i, (g, w)) in got.iter().zip(&refs).enumerate() {
                assert_bitwise_equal(g, w, &format!("workers={workers} instance={i}"));
            }
        }
    }
}

/// A poisoned instance in the middle of a batch is quarantined while its
/// neighbours' waveforms stay bit-identical to their solo runs.
#[test]
fn quarantined_instance_keeps_survivors_bit_identical() {
    let corners = vec![
        Corner { kp_n: 1e-4, vt0_p: -0.7, cl: 20e-15 },
        Corner { kp_n: 1.1e-4, vt0_p: -0.65, cl: 25e-15 },
        Corner { kp_n: 0.9e-4, vt0_p: -0.75, cl: f64::NAN }, // poisoned
        Corner { kp_n: 1.2e-4, vt0_p: -0.6, cl: 30e-15 },
    ];
    let refs: Vec<_> =
        corners.iter().enumerate().filter(|(i, _)| *i != 2).map(|(_, c)| reference(c)).collect();
    let (mut survivors, mut qidx) = (Vec::new(), Vec::new());
    batch_sim(&corners, 1)
        .run_each(|i, r| match r {
            Ok(r) => survivors.push((i, r)),
            Err(q) => qidx.push(q.index),
        })
        .expect("batch dispatch");
    assert_eq!(qidx, vec![2], "only the poisoned instance fails");
    survivors.sort_by_key(|(i, _)| *i);
    assert_eq!(survivors.len(), 3);
    for ((i, got), want) in survivors.iter().zip(&refs) {
        assert_bitwise_equal(got, want, &format!("survivor={i}"));
    }
}

/// The non-fuzzed smoke version of the same property, so a plain
/// `cargo test` failure names the invariant directly.
#[test]
fn nominal_corner_is_bitwise_identical() {
    let corners = vec![
        Corner { kp_n: 1e-4, vt0_p: -0.7, cl: 20e-15 },
        Corner { kp_n: 1.2e-4, vt0_p: -0.6, cl: 30e-15 },
    ];
    let refs: Vec<_> = corners.iter().map(reference).collect();
    for workers in [1usize, 4] {
        let got = batch_for(&corners, workers);
        for (g, w) in got.iter().zip(&refs) {
            assert_bitwise_equal(g, w, &format!("workers={workers}"));
        }
    }
}
