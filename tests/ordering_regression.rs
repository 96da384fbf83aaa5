//! Ordering regression pins on the *real* MNA patterns the generators
//! compile to — not synthetic stand-ins.
//!
//! The bake-off facts this suite freezes (fill counts are deterministic,
//! so every bound is exact-at-pin rather than tolerance-banded):
//!
//! * On the band-structured classes (`rc_ladder`, `rlc_line`) RCM matches
//!   min-degree's fill and crushes natural ordering — band matrices are
//!   RCM's home turf and regressions there are pure loss.
//! * On the 2-D `power_grid` mesh min-degree wins, and RCM's deficit must
//!   stay inside a pinned ratio — if RCM's tie-breaking drifts and the
//!   deficit grows, the `WAVEPIPE_ORDERING=rcm` escape hatch quietly rots.

use wavepipe::circuit::generators;
use wavepipe::engine::MnaSystem;
use wavepipe::sparse::{CooMatrix, CscMatrix, LuOptions, OrderingKind, SparseLu};

/// Gives the structural pattern plausible conductance-like values: strong
/// diagonal, mildly varied off-diagonals (so value-driven pivoting cannot
/// mask a pattern-level ordering regression).
fn valued(pattern: &CscMatrix) -> CscMatrix {
    let n = pattern.ncols();
    let mut t = CooMatrix::new(n, n);
    for c in 0..n {
        for k in pattern.col_ptr()[c]..pattern.col_ptr()[c + 1] {
            let r = pattern.row_idx()[k];
            let v = if r == c { 8.0 } else { -1.0 + 0.01 * (r % 7) as f64 };
            t.push(r, c, v).unwrap();
        }
    }
    t.to_csc()
}

fn fill_counts(circuit: &wavepipe::circuit::Circuit) -> (usize, usize, usize) {
    let sys = MnaSystem::compile(circuit).expect("compile");
    let a = valued(sys.pattern());
    let fill = |kind| {
        let lu = SparseLu::factor(&a, &LuOptions { ordering: kind, ..LuOptions::default() })
            .expect("factor");
        lu.nnz_l() + lu.nnz_u()
    };
    (
        fill(OrderingKind::Natural),
        fill(OrderingKind::MinDegree),
        fill(OrderingKind::ReverseCuthillMcKee),
    )
}

#[test]
fn rcm_matches_min_degree_on_band_structured_circuits() {
    for b in [generators::rc_ladder(30), generators::rlc_line(20)] {
        let (natural, mindeg, rcm) = fill_counts(&b.circuit);
        // Parity band: within one fill entry per ~30 of min-degree's count.
        assert!(
            rcm * 30 <= mindeg * 31,
            "{}: RCM fill {rcm} regressed past min-degree {mindeg} (natural {natural})",
            b.name
        );
        assert!(
            rcm * 4 <= natural * 3,
            "{}: RCM fill {rcm} no longer crushes natural {natural}",
            b.name
        );
    }
    // Recorded counts for the pinned generators; an ordering change moves
    // these before it moves anything else.
    let (_, mindeg, rcm) = fill_counts(&generators::rc_ladder(30).circuit);
    assert_eq!((mindeg, rcm), (94, 95), "rc_ladder(30) fill counts moved");
    let (_, mindeg, rcm) = fill_counts(&generators::rlc_line(20).circuit);
    assert_eq!((mindeg, rcm), (126, 126), "rlc_line(20) fill counts moved");
}

#[test]
fn rcm_deficit_on_power_grid_stays_pinned() {
    // Min-degree is the right default on 2-D meshes; RCM trails by ~15-20%.
    // Pin the deficit at 30% so a tie-breaking drift cannot silently turn
    // the rcm knob into a fill bomb.
    for b in [generators::power_grid(6, 6), generators::power_grid(8, 8)] {
        let (natural, mindeg, rcm) = fill_counts(&b.circuit);
        assert!(
            rcm * 10 <= mindeg * 13,
            "{}: RCM fill {rcm} beyond 1.3x min-degree {mindeg} (natural {natural})",
            b.name
        );
        assert!(mindeg < natural, "{}: min-degree {mindeg} vs natural {natural}", b.name);
    }
    let (_, mindeg, rcm) = fill_counts(&generators::power_grid(8, 8).circuit);
    assert_eq!((mindeg, rcm), (680, 816), "power_grid(8,8) fill counts moved");
}

#[test]
fn min_degree_permutations_are_the_linear_scans() {
    // FNV-1a over the permutation `min_degree` returned on each real MNA
    // pattern while it still scanned every node per elimination (recorded at
    // the commit before the heap-and-merge rewrite). A different permutation
    // is a different operation sequence in every LU kernel, so these pin the
    // bits of every waveform from the ordering's side.
    let pinned: [(generators::Benchmark, u64); 5] = [
        (generators::power_grid(16, 16), 0x4b40_7604_dd76_e7fd),
        (generators::power_grid(32, 32), 0xc93a_855b_ed83_acb7),
        (generators::power_grid(64, 64), 0x7d04_5da9_d364_ecf1),
        (generators::inverter_chain(80), 0x99f0_7a5a_6626_6cb5),
        (generators::nand_chain(40), 0xffcd_f61d_40fe_2e7f),
    ];
    for (b, expected) in pinned {
        let sys = MnaSystem::compile(&b.circuit).expect("compile");
        let q = wavepipe::sparse::ordering::order(sys.pattern(), OrderingKind::MinDegree)
            .expect("square pattern");
        let sum = q
            .perm()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, &p| (h ^ p as u64).wrapping_mul(0x0100_0000_01b3));
        assert_eq!(sum, expected, "{}: min-degree permutation moved", b.name);
    }
}
