//! Property-based tests: the sparse LU must agree with the dense oracle on
//! arbitrary well-conditioned sparse systems, and refactorization must be
//! numerically indistinguishable from a fresh factorization.

use proptest::prelude::*;
use wavepipe_sparse::{CooMatrix, CscMatrix, DenseMatrix, LuOptions, OrderingKind, SparseLu};

/// Strategy: a random diagonally dominant sparse matrix of dimension 2..=24.
///
/// Diagonal dominance keeps the system well-conditioned so solution
/// comparisons are meaningful at tight tolerances.
fn dominant_matrix() -> impl Strategy<Value = CscMatrix> {
    (2usize..=24).prop_flat_map(|n| {
        let offdiag = proptest::collection::vec((0usize..n, 0usize..n, -1.0f64..1.0), 0..(3 * n));
        offdiag.prop_map(move |entries| {
            let mut t = CooMatrix::new(n, n);
            let mut rowsum = vec![0.0f64; n];
            for (r, c, v) in entries {
                if r != c {
                    t.push(r, c, v).expect("in bounds");
                    rowsum[r] += v.abs();
                }
            }
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                // Strictly dominant diagonal.
                t.push(i, i, rowsum[i] + 1.0 + (i as f64) * 0.01).expect("in bounds");
            }
            t.to_csc()
        })
    })
}

fn dense_of(a: &CscMatrix) -> DenseMatrix {
    a.to_dense()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_solve_matches_dense_oracle(a in dominant_matrix()) {
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let lu = SparseLu::factor(&a, &LuOptions::default()).expect("dominant => nonsingular");
        let xs = lu.solve(&b).expect("solve");
        let xd = dense_of(&a).solve(&b).expect("dense solve");
        for (s, d) in xs.iter().zip(&xd) {
            prop_assert!((s - d).abs() < 1e-8, "sparse {} vs dense {}", s, d);
        }
    }

    #[test]
    fn all_orderings_give_same_solution(a in dominant_matrix()) {
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut sols = Vec::new();
        for kind in [OrderingKind::Natural, OrderingKind::MinDegree, OrderingKind::ReverseCuthillMcKee] {
            let opts = LuOptions { ordering: kind, ..LuOptions::default() };
            let lu = SparseLu::factor(&a, &opts).expect("factor");
            sols.push(lu.solve(&b).expect("solve"));
        }
        for s in &sols[1..] {
            for (x, y) in s.iter().zip(&sols[0]) {
                prop_assert!((x - y).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn refactor_equals_fresh_factor(a in dominant_matrix(), scale in 0.5f64..2.0) {
        let n = a.ncols();
        // Build a same-pattern matrix with scaled values.
        let mut t = CooMatrix::new(n, n);
        for (r, c, v) in a.iter() {
            let nv = if r == c { v * scale + 0.1 } else { v * scale };
            t.push(r, c, nv).expect("in bounds");
        }
        let a2 = t.to_csc();
        prop_assume!(a2.nnz() == a.nnz());

        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut lu = SparseLu::factor(&a, &LuOptions::default()).expect("factor");
        lu.refactor(&a2).expect("refactor");
        let x_re = lu.solve(&b).expect("solve refactored");
        let x_fresh = SparseLu::factor(&a2, &LuOptions::default())
            .expect("fresh factor")
            .solve(&b)
            .expect("solve fresh");
        for (x, y) in x_re.iter().zip(&x_fresh) {
            prop_assert!((x - y).abs() < 1e-8, "refactor {} vs fresh {}", x, y);
        }
    }

    #[test]
    fn parked_sets_solve_as_a_one_set_refactor_would(
        a in dominant_matrix(),
        scales in proptest::collection::vec(0.5f64..2.0, 4..5),
        slots in proptest::collection::vec(0usize..3, 1..12),
    ) {
        // Through the public surface only: every numeric set of one object
        // (the active one, three parked slots) gives, bit for bit, the
        // solution of a one-set object refactored with the same matrix, and
        // keeps giving it while the other sets are refactored and traded.
        let n = a.ncols();
        let scaled = |scale: f64| {
            let mut m = a.clone();
            m.values_mut().iter_mut().for_each(|v| *v *= scale);
            m
        };
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut lu = SparseLu::factor(&a, &LuOptions::default()).expect("factor");
        let one_set = |m: &CscMatrix| {
            let mut one = lu.clone();
            one.refactor(m).expect("refactor");
            one.solve(&b).expect("solve")
        };
        let want: Vec<Vec<f64>> = scales.iter().map(|&s| one_set(&scaled(s))).collect();
        // Which scale each set holds the factors of: active, then the slots.
        let mut held = [None; 4];
        for (turn, &slot) in slots.iter().enumerate() {
            let pick = turn % scales.len();
            lu.refactor(&scaled(scales[pick])).expect("refactor");
            held[0] = Some(pick);
            lu.swap_parked(slot);
            held.swap(0, slot + 1);
            if let Some(pick) = held[0] {
                prop_assert_eq!(&lu.solve(&b).expect("solve"), &want[pick]);
            }
        }
    }

    #[test]
    fn solve_residual_is_small(a in dominant_matrix()) {
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let lu = SparseLu::factor(&a, &LuOptions::default()).expect("factor");
        let x = lu.solve(&b).expect("solve");
        let mut r = vec![0.0; n];
        a.residual_into(&x, &b, &mut r).expect("residual");
        let rel = wavepipe_sparse::vector::norm_inf(&r)
            / (1.0 + wavepipe_sparse::vector::norm_inf(&b));
        prop_assert!(rel < 1e-9, "relative residual {}", rel);
    }

    #[test]
    fn transpose_involution(a in dominant_matrix()) {
        prop_assert_eq!(&a, &a.transpose().transpose());
    }

    #[test]
    fn matvec_linear(a in dominant_matrix(), alpha in -3.0f64..3.0) {
        let n = a.ncols();
        let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 1.0).collect();
        let ax = a.matvec(&x).expect("matvec");
        let sx: Vec<f64> = x.iter().map(|v| alpha * v).collect();
        let asx = a.matvec(&sx).expect("matvec scaled");
        for (y, z) in asx.iter().zip(&ax) {
            prop_assert!((y - alpha * z).abs() < 1e-9 * (1.0 + z.abs()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transpose_solve_solves_the_transpose(a in dominant_matrix()) {
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
        let lu = SparseLu::factor(&a, &LuOptions::default()).expect("factor");
        let x = lu.solve_transpose(&b).expect("transpose solve");
        let r = a.transpose().matvec(&x).expect("matvec");
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-8, "residual {} vs {}", ri, bi);
        }
    }

    #[test]
    fn condest_at_least_one_and_finite(a in dominant_matrix()) {
        let lu = SparseLu::factor(&a, &LuOptions::default()).expect("factor");
        let est = lu.condest_1(&a).expect("condest");
        prop_assert!(est.is_finite());
        prop_assert!(est >= 0.99, "condition number below 1: {}", est);
    }
}
