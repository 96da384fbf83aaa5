//! Golden waveform bits across a refactor boundary.
//!
//! Every other bit-identity test in the repo compares two paths of the
//! *same* build (serial vs colored-parallel, classic vs lane tier), so a
//! refactor that moves both sides in step passes them all. This test pins
//! the trajectories against constants generated at the commit *before* the
//! stamping kernel and direct-LU backend were unified: FNV-1a over
//! `f64::to_bits` of every accepted time point and every solution sample,
//! plus the Newton / point / factorization counters. The `power_grid(16,16)`
//! rows were added, at the commit before it, by the change that rewrote the
//! frozen-pivot LU kernels: half of that grid's refactorization multiply-adds
//! run in supernode chains of four or more, a tenth of the 6x6 grid's.
//!
//! The constants depend on the host's `libm` (`exp`/`ln` in the device
//! models); on a mismatch the failure message prints the whole table in
//! source form. Regenerate only for a change that is *meant* to move bits.

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
    ("inverter_chain(8)", "backward_x2", true, 0x42cd2e45af2ae51d, 2775, 616, 1155),
    ("inverter_chain(8)", "backward_x2", false, 0x460674e299048b53, 2645, 613, 2645),
    ("rc_ladder(30)", "serial", true, 0x20eb48617a68e1d9, 297, 148, 127),
    ("rc_ladder(30)", "serial", false, 0x683310fe4f833f2c, 297, 148, 297),
    ("rc_ladder(30)", "backward_x2", true, 0x75bda7bc0f4a6b5f, 542, 165, 264),
    ("rc_ladder(30)", "backward_x2", false, 0x1a1de6bf7f989179, 542, 165, 542),
    ("power_grid(6,6)", "serial", true, 0x30d2beb9631dea2f, 604, 301, 259),
    ("power_grid(6,6)", "serial", false, 0x28faa76184af2963, 604, 301, 604),
    ("power_grid(6,6)", "backward_x2", true, 0xea28e0e8b75f89a4, 780, 319, 396),
    ("power_grid(6,6)", "backward_x2", false, 0x2db574d521c4b012, 780, 319, 780),
    ("power_grid(16,16)", "serial", true, 0x228643530391cec1, 907, 461, 376),
    ("power_grid(16,16)", "serial", false, 0x7f35f759ec6604e5, 907, 461, 907),
    ("power_grid(16,16)", "backward_x2", true, 0x8b4ee93e81dbdd62, 966, 472, 486),
    ("power_grid(16,16)", "backward_x2", false, 0xf0ef38ff3290cfd2, 966, 472, 966),
    ("diode_rectifier", "serial", true, 0x8378fa08c648a5a1, 1037, 276, 400),
    ("diode_rectifier", "serial", false, 0xc62f148d7f0a11c6, 954, 280, 954),
    ("diode_rectifier", "backward_x2", true, 0xe01347380128d376, 1838, 304, 665),
    ("diode_rectifier", "backward_x2", false, 0x29b1a00f987a4e16, 1654, 311, 1654),
];

/// Everything an environment leg of CI can flip is pinned, so the same
/// constants hold under `WAVEPIPE_STAMP_WORKERS`, the chaos seeds,
/// `WAVEPIPE_BYPASS/CHORD=0` and `WAVEPIPE_SOLVER=gmres`.
fn pinned(caches: bool) -> SimOptions {
    SimOptions::default()
        .with_stamp_workers(0)
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
            let opts =
                WavePipeOptions::new(Scheme::Backward, 2).with_stamp_workers(0).with_sim(sim);
            let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).expect("backward x2 run");
            (rep.result, rep.total)
        }
    }
}

#[test]
fn trajectories_match_the_parent_commit_bit_for_bit() {
    let decks: [(&'static str, Benchmark); 5] = [
        ("inverter_chain(8)", generators::inverter_chain(8)),
        ("rc_ladder(30)", generators::rc_ladder(30)),
        ("power_grid(6,6)", generators::power_grid(6, 6)),
        ("power_grid(16,16)", generators::power_grid(16, 16)),
        ("diode_rectifier", generators::diode_rectifier()),
    ];
    let mut got: Vec<Row> = Vec::new();
    for (name, b) in &decks {
        for scheme in ["serial", "backward_x2"] {
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
    let table: String = got
        .iter()
        .map(|(n, s, c, h, it, pts, f)| {
            format!("    ({n:?}, {s:?}, {c}, {h:#018x}, {it}, {pts}, {f}),\n")
        })
        .collect();
    assert!(got == GOLDEN, "trajectories moved; computed table:\n{table}");
}
