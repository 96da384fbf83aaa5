//! Golden waveform bits across a refactor boundary.
//!
//! Every other bit-identity test in the repo compares two paths of the
//! *same* build (the walk vs the kernel, a batch instance vs its solo run),
//! so a refactor that moves both sides in step passes them all. This test pins
//! the trajectories against constants generated at the commit *before* the
//! stamping kernel and direct-LU backend were unified: FNV-1a over
//! `f64::to_bits` of every accepted time point and every solution sample,
//! plus the Newton / point / factorization counters. The `power_grid(16,16)`
//! rows were added, at the commit before it, by the change that rewrote the
//! frozen-pivot LU kernels: half of that grid's refactorization multiply-adds
//! run in supernode chains of four or more, a tenth of the 6x6 grid's. The
//! `forward_x2` and `combined_x3` rows (and the Adaptive x2 rows, deleted with
//! that scheme) were generated at the commit before step control moved into
//! `engine::StepController` and the four scheme files became one round
//! planner; that change left every serial, backward, forward and Adaptive row
//! as it was and regenerated the
//! `combined_x3` rows, whose round now feeds accepted leads to the lead
//! accept-rate EMA and strides its forward link by Forward's rule
//! (CHANGES.md, PR 16). The `power_grid(32,32)` rows (serial and Backward x2
//! only: the benchmark's grid, whose L columns run to dozens of rows) were
//! generated at the commit before `update_rows` took its targets in register
//! chunks of four and the Newton tail became one pass; the 16x16 grid's
//! columns barely reach a second chunk.
//!
//! PR 19 regenerated twelve rows, all pipelined with the caches on, and no
//! serial or caches-off one (EXPERIMENTS.md E20 lists them with old and new
//! counts): the spare numeric factor set lets a lane reuse the factors it
//! held one refactorization ago through a chord step where it refactored
//! before — fewer factorizations, other rounding.
//!
//! PR 23 regenerated fourteen rows, all with the caches on, the first serial
//! ones to move for a cache (EXPERIMENTS.md E22 lists them old beside new,
//! `tests/oracle.rs` holds each moved deck's error against an independent
//! reference no higher than before): with three parked factor sets a run
//! whose steps cycle through up to four keys — the ladder after every source
//! corner of a `power_grid` — takes chord steps on factors it kept where it
//! refactored before. Every caches-on `power_grid` row has another hash and
//! fewer factorizations (serial 259 → 210, 376 → 149, 378 → 120; 32x32
//! Backward x2 236 → 163); `rc_ladder(30)` `forward_x2` (206 → 202) and
//! Adaptive x2 (258 → 257) move in that count alone, hashes equal. No
//! iterations or points column, no caches-off row and no `inverter_chain(8)`
//! or `diode_rectifier` row moved.
//!
//! PR 25 regenerated seventeen rows, all with the caches on, every
//! `power_grid` and `rc_ladder` row of them (EXPERIMENTS.md E24 lists them old
//! beside new, `tests/oracle.rs` holds every moved grid's error no higher):
//! a fifth numeric factor set keeps a rung of the step ladder that the next
//! source corner asks for again (serial 120 → 80, 149 → 116, 210 → 209,
//! 127 → 119 factorizations; 32x32 Backward x2 163 → 152). The same change
//! hands pipelined worker lanes the operating point's LU plan under a pivot
//! check, and that moves nothing: a build with only the fifth set computes
//! this table exactly. No iterations or points column, no caches-off row and
//! no `inverter_chain(8)` or `diode_rectifier` row moved.
//!
//! Placing backward leads on the step lattice regenerated thirty-two rows:
//! every `backward_x2`, Adaptive x2 and `combined_x3` row, caches on and
//! off (EXPERIMENTS.md E26 lists them old beside new, `tests/oracle.rs`
//! holds every moved grid's and both closed-form decks' error no higher).
//! The lead's gap grows by 1, `√rmax` or `rmax` instead of by the continuous
//! LTE-boundary growth: a schedule change, not a cache change, so the runs
//! attempt other points and the caches-off rows move with the caches-on ones
//! (32x32 Backward x2 792 → 774 iterations, 398 → 389 points, 152 → 95
//! factorizations with the caches on). No `serial` or `forward_x2` row moved.
//!
//! Deleting the Adaptive scheme deleted its ten rows and touched no other.
//!
//! Making a step's roundoff twins one key regenerated twenty-one rows, all
//! with the caches on (EXPERIMENTS.md E31 lists them old beside new,
//! `tests/oracle.rs` holds every row no higher): the parked factor sets, and
//! the linear-matrix snapshots the companion cache now parks beside them,
//! take two keys whose `a0` lie within 2^-36 of each other for one step, so
//! the same nominal step after the next source corner finds its factors and
//! its linear stamp again (32x32 serial 80 → 44 factorizations, Backward x2
//! 95 → 80). Every `power_grid`, `rc_ladder(30)` and `inverter_chain(8)` row
//! moved, and three `diode_rectifier` rows; the iterations or points column
//! moved only in `inverter_chain(8)` `forward_x2` (2687 → 2688 iterations)
//! and those three `diode_rectifier` rows (`forward_x2` 1846 → 1914
//! iterations, 285 → 293 points). No caches-off row moved.
//!
//! The table itself is `tests/common/golden.rs`, which other tests read for
//! a row's counts. The constants depend on the host's `libm` (`exp`/`ln` in
//! the device models); on a mismatch the failure message prints the rows
//! that moved, old beside new, and then the whole table in source form.
//! Regenerate only for a change that is *meant* to move bits, and only the
//! rows it moves.

use wavepipe::circuit::generators::{self, Benchmark};
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::TransientResult;
use wavepipe::engine::{run_transient, FaultPlan, SimOptions, SimStats, SolverHandle};

#[path = "common/golden.rs"]
mod golden;
use golden::{Row, GOLDEN};

const SCHEMES: [&str; 4] = ["serial", "backward_x2", "forward_x2", "combined_x3"];

/// Everything an environment leg of CI can flip is pinned, so the same
/// constants hold under the chaos seeds, `WAVEPIPE_BYPASS/CHORD=0` and
/// `WAVEPIPE_SOLVER=gmres`.
fn pinned(caches: bool) -> SimOptions {
    SimOptions::default()
        .with_solver(SolverHandle::direct())
        .with_faults(FaultPlan::new())
        .with_recovery(true)
        .with_bypass(caches)
        .with_chord_newton(caches)
        .with_companion_cache(caches)
}

fn fnv1a(result: &TransientResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |v: f64| {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for k in 0..result.len() {
        eat(result.times()[k]);
        result.solution(k).iter().copied().for_each(&mut eat);
    }
    h
}

fn run(b: &Benchmark, scheme: &str, caches: bool) -> (TransientResult, SimStats) {
    let sim = pinned(caches);
    match scheme {
        "serial" => {
            let r = run_transient(&b.circuit, b.tstep, b.tstop, &sim).expect("serial run");
            let stats = *r.stats();
            (r, stats)
        }
        _ => {
            let (kind, threads) = match scheme {
                "backward_x2" => (Scheme::Backward, 2),
                "forward_x2" => (Scheme::Forward, 2),
                "combined_x3" => (Scheme::Combined, 3),
                other => panic!("no such golden scheme: {other}"),
            };
            let opts = WavePipeOptions::new(kind, threads).with_sim(sim);
            let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).expect(scheme);
            (rep.result, rep.total)
        }
    }
}

#[test]
fn trajectories_match_the_parent_commit_bit_for_bit() {
    let decks: [(&'static str, Benchmark, &[&'static str]); 6] = [
        ("inverter_chain(8)", generators::inverter_chain(8), &SCHEMES),
        ("rc_ladder(30)", generators::rc_ladder(30), &SCHEMES),
        ("power_grid(6,6)", generators::power_grid(6, 6), &SCHEMES),
        ("power_grid(16,16)", generators::power_grid(16, 16), &SCHEMES),
        ("diode_rectifier", generators::diode_rectifier(), &SCHEMES),
        ("power_grid(32,32)", generators::power_grid(32, 32), &SCHEMES[..2]),
    ];
    let mut got: Vec<Row> = Vec::new();
    for (name, b, schemes) in &decks {
        for &scheme in *schemes {
            for caches in [true, false] {
                let (r, s) = run(b, scheme, caches);
                got.push((
                    name,
                    scheme,
                    caches,
                    fnv1a(&r),
                    s.newton_iterations,
                    s.steps_accepted,
                    s.factorizations,
                ));
            }
        }
    }
    let source = |(n, s, c, h, it, pts, f): &Row| {
        format!("    ({n:?}, {s:?}, {c}, {h:#018x}, {it}, {pts}, {f}),\n")
    };
    // Rows pair up by position: the loops above walk the decks in the order
    // of the table. A table of another length fails on the full comparison.
    let moved: String = GOLDEN
        .iter()
        .zip(&got)
        .filter(|(old, new)| old != new)
        .map(|(old, new)| format!("  was{}  now{}", source(old), source(new)))
        .collect();
    let table: String = got.iter().map(source).collect();
    assert!(
        got == GOLDEN,
        "trajectories moved (hash, iterations, points, factorizations):\n{moved}\ncomputed table:\n{table}"
    );
}
