//! Property-based tests: the sparse LU must agree with the dense oracle on
//! arbitrary well-conditioned sparse systems, and refactorization must be
//! numerically indistinguishable from a fresh factorization.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use wavepipe_sparse::{
    CooMatrix, CscMatrix, LuOptions, Permutation, SparseError, SparseLu, SparseOperator,
};

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

/// Strategy: [`dominant_matrix`] with MNA branch rows, and a second matrix of
/// its pattern. Each flagged unknown `i < n - 1` loses its diagonal (an
/// explicit zero stays in the pattern, as a voltage source's does) and gets a
/// pair of entries `(i, i + 1)`, `(i + 1, i)` of magnitude 2 to 4: pivoting
/// must take an off-diagonal there. The second matrix scales every entry of
/// the first by its own factor in `[0.25, 4)`, so that a pivot chosen on one
/// may be the wrong one for the other.
fn branch_matrix_pair() -> impl Strategy<Value = (CscMatrix, CscMatrix)> {
    (2usize..=24).prop_flat_map(|n| {
        let offdiag = proptest::collection::vec((0usize..n, 0usize..n, -1.0f64..1.0), 0..(3 * n));
        let branch = proptest::collection::vec((0u8..10, 2.0f64..4.0), n..n + 1);
        let scales = proptest::collection::vec(0.25f64..4.0, 6 * n..6 * n + 1);
        (offdiag, branch, scales).prop_map(move |(entries, branch, scales)| {
            // About three unknowns in ten start a branch pair (never two in a row).
            let flagged = |i: usize| branch[i].0 < 3;
            let is_branch = |i: usize| i + 1 < n && flagged(i) && (i == 0 || !flagged(i - 1));
            let mut t = CooMatrix::new(n, n);
            let mut rowsum = vec![0.0f64; n];
            for (r, c, v) in entries {
                if r != c && !is_branch(r) {
                    t.push(r, c, v).expect("in bounds");
                    rowsum[r] += v.abs();
                }
            }
            for i in 0..n {
                if is_branch(i) {
                    t.push(i, i, 0.0).expect("in bounds");
                    t.push(i, i + 1, branch[i].1).expect("in bounds");
                    t.push(i + 1, i, -branch[i].1).expect("in bounds");
                } else {
                    t.push(i, i, rowsum[i] + 1.0 + (i as f64) * 0.01).expect("in bounds");
                }
            }
            let a = t.to_csc();
            let mut b = a.clone();
            b.values_mut().iter_mut().zip(&scales).for_each(|(v, s)| *v *= s);
            (a, b)
        })
    })
}

/// The dense oracle: `A x = b` by Gaussian elimination with partial
/// pivoting on a dense copy of `a`.
fn dense_solve(a: &CscMatrix, b: &[f64]) -> Vec<f64> {
    let n = a.ncols();
    let entry = |i, j| a.find_index(i, j).map_or(0.0, |p| a.values()[p]);
    let mut m: Vec<Vec<f64>> =
        (0..n).map(|i| (0..n).map(|j| entry(i, j)).chain([b[i]]).collect()).collect();
    for k in 0..n {
        let p = (k..n).max_by(|&i, &j| m[i][k].abs().total_cmp(&m[j][k].abs())).unwrap();
        m.swap(k, p);
        let pivot = m[k].clone();
        for row in &mut m[k + 1..] {
            let f = row[k] / pivot[k];
            for (v, pv) in row[k..].iter_mut().zip(&pivot[k..]) {
                *v -= f * pv;
            }
        }
    }
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let s: f64 = (k + 1..n).map(|j| m[k][j] * x[j]).sum();
        x[k] = (m[k][n] - s) / m[k][k];
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_solve_matches_dense_oracle(a in dominant_matrix()) {
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let lu = SparseLu::factor(&a, &LuOptions::default()).expect("dominant => nonsingular");
        let xs = lu.solve(&b).expect("solve");
        let xd = dense_solve(&a, &b);
        for (s, d) in xs.iter().zip(&xd) {
            prop_assert!((s - d).abs() < 1e-8, "sparse {} vs dense {}", s, d);
        }
    }

    #[test]
    fn natural_order_gives_the_min_degree_solution(a in dominant_matrix()) {
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let opts = LuOptions::default();
        let natural = SparseLu::factor_with_ordering(&a, &opts, Permutation::identity(n))
            .expect("factor")
            .solve(&b)
            .expect("solve");
        let mindeg = SparseLu::factor(&a, &opts).expect("factor").solve(&b).expect("solve");
        for (x, y) in mindeg.iter().zip(&natural) {
            prop_assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn refactor_equals_fresh_factor(a in dominant_matrix(), scale in 0.5f64..2.0) {
        let n = a.ncols();
        // Build a same-pattern matrix with scaled values.
        let mut a2 = a.clone();
        for c in 0..n {
            for p in a.col_ptr()[c]..a.col_ptr()[c + 1] {
                let v = a.values()[p];
                a2.values_mut()[p] = if a.row_idx()[p] == c { v * scale + 0.1 } else { v * scale };
            }
        }

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
    fn an_adopted_plan_solves_as_the_factor_it_skips_or_is_refused(
        (a, b) in branch_matrix_pair(),
    ) {
        // Through the public surface: a plan pivoted on `a`, adopted for `b`.
        // Where the pivot check passes, every solve (each unit vector) is bit
        // for bit that of `b`'s own factorization; where it fails, the error
        // is `PivotDegraded`, and the re-pivot a caller answers it with is
        // that own factorization.
        let opts = LuOptions::default();
        let Ok(owner) = SparseLu::factor(&a, &opts) else {
            return Err(TestCaseError::Reject("singular draw"));
        };
        let plan = owner.shared_plan();
        let mut adopter = SparseLu::adopt(&plan, &opts);
        let checked = adopter.refactor(&b);
        let own = SparseLu::factor(&b, &opts);
        let n = b.ncols();
        let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let same_solves = |got: &SparseLu, want: &SparseLu| {
            (0..n).all(|i| {
                let e: Vec<f64> = (0..n).map(|k| f64::from(u8::from(k == i))).collect();
                bits(got.solve(&e).unwrap()) == bits(want.solve(&e).unwrap())
            })
        };
        match checked {
            Ok(()) => {
                let own = own.expect("a passed check stands for a factorization that succeeds");
                prop_assert_eq!((adopter.nnz_l(), adopter.nnz_u()), (own.nnz_l(), own.nnz_u()));
                prop_assert!(same_solves(&adopter, &own));
            }
            Err(SparseError::PivotDegraded { .. }) => {
                let repivot = SparseLu::factor_with_ordering(&b, &opts, plan.ordering().clone());
                match (repivot, own) {
                    (Ok(repivot), Ok(own)) => prop_assert!(same_solves(&repivot, &own)),
                    (repivot, own) => prop_assert_eq!(repivot.err(), own.err()),
                }
            }
            Err(e) => prop_assert!(false, "{e:?}"),
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
    fn matvec_linear(a in dominant_matrix(), alpha in -3.0f64..3.0) {
        let n = a.ncols();
        let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 1.0).collect();
        let (mut ax, mut asx) = (vec![0.0; n], vec![0.0; n]);
        a.apply(&x, &mut ax).expect("matvec");
        let sx: Vec<f64> = x.iter().map(|v| alpha * v).collect();
        a.apply(&sx, &mut asx).expect("matvec scaled");
        for (y, z) in asx.iter().zip(&ax) {
            prop_assert!((y - alpha * z).abs() < 1e-9 * (1.0 + z.abs()));
        }
    }
}
