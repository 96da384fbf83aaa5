//! Ordering regression pins on the *real* MNA patterns the generators
//! compile to — not synthetic stand-ins.
//!
//! Minimum degree is the one ordering `SparseLu::factor` uses. Its fill
//! (`nnz(L) + nnz(U)`) is deterministic, so every bound here is an exact
//! pin rather than a tolerance band: a change to the ordering or its
//! tie-breaking moves these counts before it moves anything else.

use wavepipe::circuit::generators::{self, Benchmark};
use wavepipe::engine::MnaSystem;
use wavepipe::sparse::{CooMatrix, CscMatrix, LuOptions, SparseLu};

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

/// Asserts each circuit's min-degree fill is its pinned count.
fn assert_fill(pinned: impl IntoIterator<Item = (Benchmark, usize)>) {
    for (b, expected) in pinned {
        let sys = MnaSystem::compile(&b.circuit).expect("compile");
        let lu = SparseLu::factor(&valued(sys.pattern()), &LuOptions::default()).expect("factor");
        assert_eq!(lu.nnz_l() + lu.nnz_u(), expected, "{}: min-degree fill moved", b.name);
    }
}

#[test]
fn min_degree_fill_is_pinned_on_every_generator_class() {
    // The table suite, in `table_suite()` order.
    let table = [604, 1937, 210, 63, 7, 368, 88, 69, 251];
    let suite = generators::table_suite();
    assert_eq!(suite.len(), table.len(), "the table suite changed");
    assert_fill(suite.into_iter().zip(table));
}

#[test]
fn min_degree_fill_is_pinned_on_band_structured_circuits() {
    assert_fill([(generators::rc_ladder(30), 94), (generators::rlc_line(20), 126)]);
}

#[test]
fn min_degree_fill_is_pinned_on_power_grids() {
    assert_fill([(generators::power_grid(6, 6), 327), (generators::power_grid(8, 8), 680)]);
}

#[test]
fn min_degree_fill_is_pinned_on_the_benchmark_circuits() {
    // What `benchmark/`'s workloads factor: the two digital chains, the
    // 32x32 grid and the corner sweep's chain.
    assert_fill([
        (generators::inverter_chain(80), 413),
        (generators::nand_chain(40), 498),
        (generators::power_grid(32, 32), 23_674),
        (generators::inverter_chain(8), 53),
    ]);
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
        let q = wavepipe::sparse::ordering::min_degree(sys.pattern()).expect("square pattern");
        let sum = q
            .perm()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, &p| (h ^ p as u64).wrapping_mul(0x0100_0000_01b3));
        assert_eq!(sum, expected, "{}: min-degree permutation moved", b.name);
    }
}
