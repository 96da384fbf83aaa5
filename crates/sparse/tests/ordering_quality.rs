//! Fill-reduction quality checks: the minimum-degree ordering must actually
//! earn its keep on the matrix shapes the simulator produces, against the
//! natural order as the baseline.

use wavepipe_sparse::{CooMatrix, CscMatrix, LuOptions, Permutation, SparseLu, SparseOperator};

fn grid_laplacian(nx: usize, ny: usize) -> CscMatrix {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut t = CooMatrix::new(n, n);
    for i in 0..nx {
        for j in 0..ny {
            t.push(idx(i, j), idx(i, j), 4.0).unwrap();
            if i + 1 < nx {
                t.push(idx(i, j), idx(i + 1, j), -1.0).unwrap();
                t.push(idx(i + 1, j), idx(i, j), -1.0).unwrap();
            }
            if j + 1 < ny {
                t.push(idx(i, j), idx(i, j + 1), -1.0).unwrap();
                t.push(idx(i, j + 1), idx(i, j), -1.0).unwrap();
            }
        }
    }
    t.to_csc()
}

/// An "arrow" matrix: dense last row/column — the worst case for natural
/// ordering (eliminating the hub first fills everything).
fn arrow(n: usize) -> CscMatrix {
    let mut t = CooMatrix::new(n, n);
    for i in 0..n {
        t.push(i, i, 4.0).unwrap();
    }
    for i in 0..n - 1 {
        t.push(i, n - 1, 1.0).unwrap();
        t.push(n - 1, i, 1.0).unwrap();
    }
    t.to_csc()
}

/// `factor` itself (minimum degree), or the natural order.
fn factor(a: &CscMatrix, natural: bool) -> SparseLu {
    let opts = LuOptions::default();
    let lu = if natural {
        SparseLu::factor_with_ordering(a, &opts, Permutation::identity(a.ncols()))
    } else {
        SparseLu::factor(a, &opts)
    };
    lu.expect("factor")
}

fn fill_of(a: &CscMatrix, natural: bool) -> usize {
    let lu = factor(a, natural);
    lu.nnz_l() + lu.nnz_u()
}

#[test]
fn min_degree_keeps_arrow_matrices_sparse() {
    // Reversed arrow: hub first in natural order would fill O(n^2); the
    // min-degree ordering must keep fill linear.
    let n = 60;
    let mut t = CooMatrix::new(n, n);
    for i in 0..n {
        t.push(i, i, 4.0).unwrap();
    }
    // Hub at index 0.
    for i in 1..n {
        t.push(i, 0, 1.0).unwrap();
        t.push(0, i, 1.0).unwrap();
    }
    let a = t.to_csc();
    let natural = fill_of(&a, true);
    let mindeg = fill_of(&a, false);
    assert!(
        mindeg * 3 < natural,
        "min-degree fill {mindeg} must crush natural {natural} on a hub-first arrow"
    );
    // Linear bound: ~3 nnz per column.
    assert!(mindeg < 4 * n, "fill {mindeg} not linear in n");
}

#[test]
fn min_degree_does_not_blow_up_on_grids() {
    let a = grid_laplacian(12, 12);
    let natural = fill_of(&a, true);
    let mindeg = fill_of(&a, false);
    // Min-degree should be no worse than ~natural on a banded grid and
    // usually better.
    assert!(mindeg <= natural * 11 / 10, "mindeg {mindeg} vs natural {natural}");
}

#[test]
fn tail_arrow_is_fine_for_everyone() {
    let a = arrow(50);
    for natural in [true, false] {
        let lu = factor(&a, natural);
        let fill = lu.nnz_l() + lu.nnz_u();
        assert!(fill < 260, "natural {natural}: fill {fill}");
        // And the factorization still solves correctly.
        let xt: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + i as f64 * 0.1).collect();
        let mut b = vec![0.0; xt.len()];
        a.apply(&xt, &mut b).unwrap();
        let x = lu.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&xt) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }
}

#[test]
fn refactor_preserves_ordering_benefits() {
    // The recorded pattern of a min-degree factorization must keep its size
    // across refactorizations (no hidden re-symbolic work or growth).
    let a = grid_laplacian(8, 8);
    let mut lu = factor(&a, false);
    let fill_before = lu.nnz_l() + lu.nnz_u();
    for _ in 0..5 {
        lu.refactor(&a).unwrap();
    }
    assert_eq!(lu.nnz_l() + lu.nnz_u(), fill_before);
}
