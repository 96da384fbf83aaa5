//! The spare numeric factor set, in a serial run and in a batch.
//!
//! A serial run takes spare hits when its step sizes alternate between two
//! values: the deck below restarts integration at a source corner every `D`
//! seconds, and each restart ladder settles into `D/4` (backward Euler),
//! `D/2`, `D/4` (trapezoidal) — linear-stamp keys `4/D, 4/D, 8/D`, so every
//! ladder asks once for the key of the factors left one refactorization ago.
//! A batch instance runs the same loop over the same cache, so it takes the
//! same hits: it is its solo run bit for bit and count for count — on this
//! deck and on the benchmark's `corner_sweep` shape, which takes none.

use std::sync::Arc;
use wavepipe::batch::{BatchSim, ParamKind};
use wavepipe::circuit::generators::{self, Benchmark, CircuitClass};
use wavepipe::circuit::{Circuit, Element, Waveform};
use wavepipe::engine::{
    run_transient, DirectLu, SimOptions, SolverBackend, SolverFactory, SolverHandle,
    TransientResult,
};
use wavepipe::sparse::CscMatrix;

/// Corner spacing: a power of two, so every time and step is exact.
const D: f64 = 1.0 / (1u64 << 20) as f64;
const CORNERS: usize = 32;

/// A two-pole RC low-pass (time constants a hundred `D`) behind a zigzag.
fn zigzag_rc() -> Benchmark {
    let mut ckt = Circuit::new("zigzag rc");
    let (a, b, c) = (ckt.node("a"), ckt.node("b"), ckt.node("c"));
    let zigzag =
        (0..=CORNERS).map(|k| (k as f64 * D, if k % 2 == 0 { 0.0 } else { 0.2 })).collect();
    ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::pwl(zigzag)).unwrap();
    ckt.add_resistor("R1", a, b, 1e3).unwrap();
    ckt.add_capacitor("C1", b, Circuit::GROUND, 100e-9).unwrap();
    ckt.add_resistor("R2", b, c, 1e3).unwrap();
    ckt.add_capacitor("C2", c, Circuit::GROUND, 100e-9).unwrap();
    Benchmark {
        name: "zigzag_rc".into(),
        circuit: ckt,
        tstep: 4.0 * D,
        tstop: CORNERS as f64 * D,
        class: CircuitClass::Analog,
        probes: vec!["c".into()],
    }
}

/// Every cache on and everything an environment leg of CI can flip pinned.
fn pinned() -> SimOptions {
    SimOptions::default()
        .with_bypass(true)
        .with_chord_newton(true)
        .with_companion_cache(true)
        .with_stamp_workers(0)
        .with_solver(SolverHandle::direct())
}

/// `DirectLu` behind the trait's default `swap_spare`: the cache as it was
/// before it had a spare set to ask for.
#[derive(Debug, Clone, Default)]
struct NoSpare(DirectLu);

impl SolverBackend for NoSpare {
    fn factor(&mut self, a: &CscMatrix) -> wavepipe::sparse::Result<()> {
        self.0.factor(a)
    }
    fn refactor(&mut self, a: &CscMatrix) -> wavepipe::sparse::Result<()> {
        self.0.refactor(a)
    }
    fn solve(&self, b: &[f64], x: &mut [f64], s: &mut [f64]) -> wavepipe::sparse::Result<()> {
        self.0.solve(b, x, s)
    }
    fn factored(&self) -> bool {
        self.0.factored()
    }
    fn invalidate(&mut self) {
        self.0.invalidate();
    }
    fn clone_box(&self) -> Box<dyn SolverBackend> {
        Box::new(self.clone())
    }
}

impl SolverFactory for NoSpare {
    fn make(&self) -> Box<dyn SolverBackend> {
        Box::new(NoSpare::default())
    }
}

/// Accepted points whose linear-stamp key differs from their predecessor's:
/// the key is `a0`, `1/h` for the backward-Euler point after a corner (and
/// after `t = 0`) and `2/h` for every other.
fn key_changes(r: &TransientResult) -> usize {
    let on_corner = |t: f64| (t / D).fract() == 0.0;
    let a0: Vec<u64> = r
        .times()
        .windows(2)
        .map(|w| (if on_corner(w[0]) { 1.0 } else { 2.0 } / (w[1] - w[0])).to_bits())
        .collect();
    a0.windows(2).filter(|w| w[0] != w[1]).count()
}

fn assert_bit_identical(got: &TransientResult, want: &TransientResult, what: &str) {
    assert_eq!(got.times(), want.times(), "{what}: time grids diverged");
    for k in 0..want.len() {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.solution(k)), bits(want.solution(k)), "{what}: point {k}");
    }
}

/// The deck's serial run with the spare set and through [`NoSpare`].
fn with_and_without_spare(b: &Benchmark) -> (TransientResult, TransientResult) {
    let with_spare = run_transient(&b.circuit, b.tstep, b.tstop, &pinned()).expect("serial run");
    let no_spare = pinned().with_solver(SolverHandle::new(Arc::new(NoSpare::default())));
    let without = run_transient(&b.circuit, b.tstep, b.tstop, &no_spare).expect("reference run");
    (with_spare, without)
}

/// Runs `corners` (one multiplier per registered column) as a batch and
/// checks every instance against its solo run: the same bits, and the same
/// numeric factorizations — a spare hit the solo run takes, the instance
/// takes too.
fn batch_against_solo(b: &Benchmark, columns: &[(&str, ParamKind)], corners: &[Vec<f64>]) {
    let nominal = |name: &str| match b.circuit.element(name) {
        Some(Element::Capacitor { capacitance, .. }) => *capacitance,
        Some(Element::Mosfet { model, .. }) => model.kp,
        other => panic!("no nominal value for {name}: {other:?}"),
    };
    let mut batch = BatchSim::compile(&b.circuit, b.tstep, b.tstop)
        .expect("compile")
        .with_threads(1)
        .with_sim(pinned());
    for &(name, kind) in columns {
        batch.param(name, kind).expect("column");
    }
    let mut solo = Vec::new();
    for corner in corners {
        let values: Vec<f64> =
            columns.iter().zip(corner).map(|(&(name, _), m)| nominal(name) * m).collect();
        batch.add_instance(&values).expect("instance");
        let mut ckt = b.circuit.clone();
        for (&(name, _), &v) in columns.iter().zip(&values) {
            match ckt.element_mut(name) {
                Some(Element::Capacitor { capacitance, .. }) => *capacitance = v,
                Some(Element::Mosfet { model, .. }) => model.kp = v,
                other => panic!("cannot patch {name}: {other:?}"),
            }
        }
        solo.push(run_transient(&ckt, b.tstep, b.tstop, &pinned()).expect("solo run"));
    }
    let got = batch.run().expect("batch run").into_results();
    assert_eq!(got.len(), solo.len());
    for (i, (g, w)) in got.iter().zip(&solo).enumerate() {
        assert_bit_identical(g, w, &format!("{} instance {i}", b.name));
        assert_eq!(g.stats().factorizations, w.stats().factorizations, "{} instance {i}", b.name);
    }
}

#[test]
fn a_serial_run_reuses_parked_factors_and_so_does_every_batch_instance() {
    let b = zigzag_rc();
    let (with_spare, without) = with_and_without_spare(&b);

    // Both runs walk the same ladders, which settle into the three steps
    // the module docs describe within a few corners.
    assert_eq!(with_spare.times(), without.times());
    let tail: Vec<f64> = with_spare.times().windows(2).map(|w| (w[1] - w[0]) / D).collect();
    assert_eq!(tail[tail.len() - 6..], [0.25, 0.5, 0.25, 0.25, 0.5, 0.25]);
    let changes = key_changes(&with_spare);
    assert!(changes >= CORNERS, "{changes} key changes");
    // Without a spare set every change of key costs a numeric factorization
    // (the reconstruction of the keys above is what this line checks) ...
    assert!(without.stats().factorizations >= changes, "{:?}", without.stats());
    // ... with one, fewer factorizations than key changes: some point whose
    // key differs from its predecessor's was solved on parked factors — every
    // one, once the ladders have settled.
    let stats = with_spare.stats();
    assert!(stats.factorizations < changes, "{changes} key changes, {stats:?}");
    assert!(4 * stats.factorizations < without.stats().factorizations, "{stats:?}");
    assert_eq!(stats.newton_iterations, without.stats().newton_iterations);

    // The same deck as a batch of corners: every instance is its solo run,
    // spare hits included.
    let corners: Vec<Vec<f64>> =
        [1.0, 0.93, 1.04, 1.08].iter().map(|&m| vec![m, 2.0 - m]).collect();
    let columns = [("C1", ParamKind::Capacitance), ("C2", ParamKind::Capacitance)];
    batch_against_solo(&b, &columns, &corners);
}

#[test]
fn the_corner_sweep_shape_is_its_solo_runs_and_takes_no_spare_hit() {
    let b = generators::inverter_chain(8);
    let columns: Vec<(String, ParamKind)> = (0..8)
        .flat_map(|i| {
            [
                (format!("Mn{i}"), ParamKind::MosKp),
                (format!("Mp{i}"), ParamKind::MosKp),
                (format!("Cl{i}"), ParamKind::Capacitance),
            ]
        })
        .collect();
    let columns: Vec<(&str, ParamKind)> = columns.iter().map(|(n, k)| (n.as_str(), *k)).collect();
    // Multipliers in [0.9, 1.1), as the benchmark draws them.
    let mut state = 0x2008_0608_u64;
    let mut draw = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        0.9 + 0.2 * ((state >> 11) as f64 / (1u64 << 53) as f64)
    };
    let corners: Vec<Vec<f64>> = (0..6).map(|_| columns.iter().map(|_| draw()).collect()).collect();
    batch_against_solo(&b, &columns, &corners);

    // No spare hit on this shape: a cache with no spare set to ask pays for
    // exactly the same numeric factorizations.
    let (with_spare, without) = with_and_without_spare(&b);
    assert_bit_identical(&with_spare, &without, "no-spare reference");
    assert_eq!(with_spare.stats().factorizations, without.stats().factorizations);
}
