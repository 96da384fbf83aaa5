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
//! The constants depend on the host's `libm` (`exp`/`ln` in the device
//! models); on a mismatch the failure message prints the rows that moved,
//! old beside new, and then the whole table in source form. Regenerate only
//! for a change that is *meant* to move bits, and only the rows it moves.

use wavepipe::circuit::generators::{self, Benchmark};
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::TransientResult;
use wavepipe::engine::{run_transient, FaultPlan, SimOptions, SimStats, SolverHandle};

/// (circuit, scheme, caches) -> (hash, newton iterations, accepted points,
/// factorizations).
type Row = (&'static str, &'static str, bool, u64, usize, usize, usize);

const GOLDEN: &[Row] = &[
    ("inverter_chain(8)", "serial", true, 0x3e5094101b9c86c4, 1594, 536, 687),
    ("inverter_chain(8)", "serial", false, 0xbe50abc534d4a7e0, 1524, 536, 1524),
    ("inverter_chain(8)", "backward_x2", true, 0x508b829f50ee3c54, 2710, 599, 1112),
    ("inverter_chain(8)", "backward_x2", false, 0x322a9eb795f9dc18, 2583, 599, 2583),
    ("inverter_chain(8)", "forward_x2", true, 0x75d3b7d5ad345924, 2687, 552, 973),
    ("inverter_chain(8)", "forward_x2", false, 0x72e8d8284371d499, 2454, 552, 2454),
    ("inverter_chain(8)", "combined_x3", true, 0x6b1a12a0d8cdf06e, 3015, 600, 1192),
    ("inverter_chain(8)", "combined_x3", false, 0x51ea1ba34a0cfdfe, 2805, 600, 2805),
    ("rc_ladder(30)", "serial", true, 0x3792faeeb4b6bdb7, 297, 148, 119),
    ("rc_ladder(30)", "serial", false, 0x683310fe4f833f2c, 297, 148, 297),
    ("rc_ladder(30)", "backward_x2", true, 0x1cb30d1ba5b6550b, 544, 166, 263),
    ("rc_ladder(30)", "backward_x2", false, 0x7b363c44959339c1, 544, 166, 544),
    ("rc_ladder(30)", "forward_x2", true, 0x32ef4bc83650141e, 468, 148, 201),
    ("rc_ladder(30)", "forward_x2", false, 0x737ef1e9e9ef59f8, 468, 148, 468),
    ("rc_ladder(30)", "combined_x3", true, 0x8297728d3d6986ca, 564, 166, 272),
    ("rc_ladder(30)", "combined_x3", false, 0xb200305921afe8e6, 564, 166, 564),
    ("power_grid(6,6)", "serial", true, 0xc533a749f61006c8, 604, 301, 209),
    ("power_grid(6,6)", "serial", false, 0x28faa76184af2963, 604, 301, 604),
    ("power_grid(6,6)", "backward_x2", true, 0xdcd3f5d1fcfbb667, 762, 307, 308),
    ("power_grid(6,6)", "backward_x2", false, 0x3e838b7f6fbaae2e, 762, 307, 762),
    ("power_grid(6,6)", "forward_x2", true, 0xe610f49a75c92bc1, 836, 298, 241),
    ("power_grid(6,6)", "forward_x2", false, 0xca47ad931f78b575, 836, 298, 836),
    ("power_grid(6,6)", "combined_x3", true, 0x59aaa8ad0c47f719, 1061, 329, 427),
    ("power_grid(6,6)", "combined_x3", false, 0xa3e2ce99f80549f2, 1061, 329, 1061),
    ("power_grid(16,16)", "serial", true, 0xcba1b6bb3fb9785b, 907, 461, 116),
    ("power_grid(16,16)", "serial", false, 0x7f35f759ec6604e5, 907, 461, 907),
    ("power_grid(16,16)", "backward_x2", true, 0x626102f15bdc295d, 971, 462, 351),
    ("power_grid(16,16)", "backward_x2", false, 0x531f87e85a328e5b, 971, 462, 971),
    ("power_grid(16,16)", "forward_x2", true, 0xa85b458c10326bb5, 1290, 461, 207),
    ("power_grid(16,16)", "forward_x2", false, 0xcf3cc696ab0f0dd9, 1290, 461, 1290),
    ("power_grid(16,16)", "combined_x3", true, 0x61327ba521ddce8e, 1225, 479, 375),
    ("power_grid(16,16)", "combined_x3", false, 0x1f05c8940871bfa3, 1225, 479, 1225),
    ("diode_rectifier", "serial", true, 0x8378fa08c648a5a1, 1037, 276, 400),
    ("diode_rectifier", "serial", false, 0xc62f148d7f0a11c6, 954, 280, 954),
    ("diode_rectifier", "backward_x2", true, 0x4eea08a6da4058f9, 1851, 288, 677),
    ("diode_rectifier", "backward_x2", false, 0x011898ead25719d7, 1658, 301, 1658),
    ("diode_rectifier", "forward_x2", true, 0x1b4c028a6fc30a1e, 1846, 285, 659),
    ("diode_rectifier", "forward_x2", false, 0x89e88e558ff1c4ee, 1724, 296, 1724),
    ("diode_rectifier", "combined_x3", true, 0x9f738f6ddd6877d6, 1894, 299, 704),
    ("diode_rectifier", "combined_x3", false, 0x8c1a83bbbae67491, 1624, 296, 1624),
    ("power_grid(32,32)", "serial", true, 0x60f27ed2ef13ddf4, 885, 466, 80),
    ("power_grid(32,32)", "serial", false, 0xa81a746a2d2076a4, 885, 466, 885),
    ("power_grid(32,32)", "backward_x2", true, 0x1c1b5badb8f9f538, 774, 389, 95),
    ("power_grid(32,32)", "backward_x2", false, 0x568fec795f5ee992, 774, 389, 774),
];

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
