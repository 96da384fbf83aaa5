//! The parked numeric factor sets, in a serial run, a batch and a pipeline.
//!
//! A serial run takes parked hits when its step sizes come back to a value
//! they left at most four keys ago. Both decks below restart integration at
//! a source corner every so many `D` seconds, and each restart climbs the
//! same ladder:
//!
//! * corners every `D`, `tstep = 4 D`: `D/4` (backward Euler), `D/2`, `D/4`
//!   (trapezoidal) — linear-stamp keys `4/D, 4/D, 8/D`, so every ladder asks
//!   once for the key of the factors left one refactorization ago;
//! * corners every `2 D`, `tstep = D/2`: `D/8` (backward Euler), `D/4`,
//!   `D/2`, `D`, `D/8` — keys `8/D, 8/D, 4/D, 2/D, 16/D`, four in rotation,
//!   which one parked set never serves and three or more always do.
//!
//! A batch instance runs the same loop over the same cache, so it takes the
//! same hits: it is its solo run bit for bit and count for count — on these
//! decks and on the benchmark's `corner_sweep` shape, which takes none. A
//! pipelined run's lanes each keep their own sets and repeat themselves run
//! to run.

mod common;

use common::no_parking;
use wavepipe::batch::{BatchSim, ParamKind};
use wavepipe::circuit::generators::{self, Benchmark, CircuitClass};
use wavepipe::circuit::{Circuit, Element, Waveform};
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::{run_transient, SimOptions, SolverHandle, TransientResult};

/// The time unit: a power of two, so every time and step is exact.
const D: f64 = 1.0 / (1u64 << 20) as f64;
const CORNERS: usize = 32;

/// A two-pole RC low-pass (time constants a hundred `D`) behind a zigzag
/// with a corner every `spacing` seconds.
fn zigzag_rc(spacing: f64, tstep: f64) -> Benchmark {
    let mut ckt = Circuit::new("zigzag rc");
    let (a, b, c) = (ckt.node("a"), ckt.node("b"), ckt.node("c"));
    let zigzag =
        (0..=CORNERS).map(|k| (k as f64 * spacing, if k % 2 == 0 { 0.0 } else { 0.2 })).collect();
    ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::pwl(zigzag)).unwrap();
    ckt.add_resistor("R1", a, b, 1e3).unwrap();
    ckt.add_capacitor("C1", b, Circuit::GROUND, 100e-9).unwrap();
    ckt.add_resistor("R2", b, c, 1e3).unwrap();
    ckt.add_capacitor("C2", c, Circuit::GROUND, 100e-9).unwrap();
    Benchmark {
        name: "zigzag_rc".into(),
        circuit: ckt,
        tstep,
        tstop: CORNERS as f64 * spacing,
        class: CircuitClass::Analog,
        probes: vec!["c".into()],
    }
}

/// Keys alternate between two values.
fn two_key_deck() -> Benchmark {
    zigzag_rc(D, 4.0 * D)
}

/// Keys cycle through four values.
fn four_key_deck() -> Benchmark {
    zigzag_rc(2.0 * D, D / 2.0)
}

/// Every cache on and everything an environment leg of CI can flip pinned.
fn pinned() -> SimOptions {
    SimOptions::default()
        .with_bypass(true)
        .with_chord_newton(true)
        .with_companion_cache(true)
        .with_solver(SolverHandle::direct())
}

/// Accepted points whose linear-stamp key differs from their predecessor's:
/// the key is `a0`, `1/h` for the backward-Euler point after a corner (and
/// after `t = 0`) and `2/h` for every other.
fn key_changes(r: &TransientResult, spacing: f64) -> usize {
    let on_corner = |t: f64| (t / spacing).fract() == 0.0;
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

/// The deck's serial run with the parked sets and through a backend with
/// nowhere to park.
fn with_and_without_parking(b: &Benchmark) -> (TransientResult, TransientResult) {
    let with = run_transient(&b.circuit, b.tstep, b.tstop, &pinned()).expect("serial run");
    let nowhere = pinned().with_solver(no_parking());
    let without = run_transient(&b.circuit, b.tstep, b.tstop, &nowhere).expect("reference run");
    (with, without)
}

/// Runs `corners` (one multiplier per registered column) as a batch and
/// checks every instance against its solo run: the same bits, and the same
/// numeric factorizations — a parked hit the solo run takes, the instance
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

/// The two capacitors of a zigzag deck at four corners.
fn zigzag_corners() -> ([(&'static str, ParamKind); 2], Vec<Vec<f64>>) {
    let corners = [1.0, 0.93, 1.04, 1.08].iter().map(|&m| vec![m, 2.0 - m]).collect();
    ([("C1", ParamKind::Capacitance), ("C2", ParamKind::Capacitance)], corners)
}

#[test]
fn a_serial_run_reuses_parked_factors_and_so_does_every_batch_instance() {
    let b = two_key_deck();
    let (with, without) = with_and_without_parking(&b);

    // Both runs walk the same ladders, which settle into the three steps
    // the module docs describe within a few corners.
    assert_eq!(with.times(), without.times());
    let tail: Vec<f64> = with.times().windows(2).map(|w| (w[1] - w[0]) / D).collect();
    assert_eq!(tail[tail.len() - 6..], [0.25, 0.5, 0.25, 0.25, 0.5, 0.25]);
    let changes = key_changes(&with, D);
    assert!(changes >= CORNERS, "{changes} key changes");
    // With nowhere to park every change of key costs a numeric factorization
    // (the reconstruction of the keys above is what this line checks) ...
    assert!(without.stats().factorizations >= changes, "{:?}", without.stats());
    // ... with parked sets, fewer factorizations than key changes: some point
    // whose key differs from its predecessor's was solved on parked factors —
    // every one, once the ladders have settled.
    let stats = with.stats();
    assert!(stats.factorizations < changes, "{changes} key changes, {stats:?}");
    assert!(4 * stats.factorizations < without.stats().factorizations, "{stats:?}");
    assert_eq!(stats.newton_iterations, without.stats().newton_iterations);

    // The same deck as a batch of corners: every instance is its solo run,
    // parked hits included.
    let (columns, corners) = zigzag_corners();
    batch_against_solo(&b, &columns, &corners);
}

#[test]
fn four_keys_in_rotation_are_all_served_from_parked_sets() {
    let b = four_key_deck();
    let (with, without) = with_and_without_parking(&b);

    // The five-step ladder of the module docs, on both runs once the first
    // few corners are behind them (until then the error estimate picks the
    // fourth step, to the last bit of a solution parked hits round otherwise).
    for r in [&with, &without] {
        let steps: Vec<f64> = r.times().windows(2).map(|w| (w[1] - w[0]) / D).collect();
        for ladder in steps.rchunks(5).take(CORNERS / 2) {
            assert_eq!(ladder, [0.125, 0.25, 0.5, 1.0, 0.125]);
        }
    }
    // Three changes of key per ladder, each a numeric factorization with
    // nowhere to park ...
    let changes = key_changes(&with, 2.0 * D);
    assert!(changes >= 3 * (CORNERS - 1), "{changes} key changes");
    assert!(without.stats().factorizations >= changes, "{:?}", without.stats());
    // ... and, with four parked sets as with three, none once each of the
    // four keys has been factored for: fewer factorizations than there are
    // corners.
    let stats = with.stats();
    assert!(stats.factorizations < CORNERS, "{stats:?}");
    assert_eq!(stats.newton_iterations, without.stats().newton_iterations);

    let (columns, corners) = zigzag_corners();
    batch_against_solo(&b, &columns, &corners);

    // Each lane of a pipeline owns a cache and its parked sets; what it finds
    // in them depends on the points it was dealt, not on timing.
    let backward = || {
        let opts = WavePipeOptions::new(Scheme::Backward, 2).with_sim(pinned());
        run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).expect("Backward x2")
    };
    let (first, second) = (backward(), backward());
    assert_bit_identical(&first.result, &second.result, "Backward x2, run to run");
    assert_eq!(first.total.factorizations, second.total.factorizations);
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

    // No parked hit on this shape: a cache with nowhere to park pays for
    // exactly the same numeric factorizations.
    let (with, without) = with_and_without_parking(&b);
    assert_bit_identical(&with, &without, "no-parking reference");
    assert_eq!(with.stats().factorizations, without.stats().factorizations);
}
