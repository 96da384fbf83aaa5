//! Restarted GMRES(m) — the generalized minimal residual method.
//!
//! Builds an Arnoldi basis of the right-preconditioned Krylov space
//! `span{r, A·M⁻¹·r, (A·M⁻¹)²·r, …}` via modified Gram–Schmidt, maintains
//! the QR factorization of the small Hessenberg least-squares problem
//! incrementally with Givens rotations (so the residual norm is known at
//! every inner step without forming the iterate), and restarts every `m`
//! steps to bound memory at `m + 1` basis vectors.
//!
//! Right preconditioning is used throughout because the recurrence then
//! minimizes the *true* residual `‖b − A·x‖₂` — the quantity the caller's
//! backward-error acceptance test looks at — rather than the preconditioned
//! residual a left-preconditioned iteration would report.
//!
//! Everything here is bit-deterministic: fixed loop orders, no reductions
//! whose association varies, no randomness. Given the same operator,
//! preconditioner, right-hand side, and options, the returned iterate is
//! bitwise identical on every run — required by the WavePipe determinism
//! contract for solver backends built on top.

use crate::error::{Result, SparseError};
use crate::operator::{Preconditioner, SparseOperator};

/// Tuning knobs for [`gmres`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresOptions {
    /// Restart length `m`: the Arnoldi basis is rebuilt after this many
    /// inner iterations. Memory is `O(m·n)`; convergence usually improves
    /// with larger `m`.
    pub restart: usize,
    /// Relative residual target: converged when `‖b − A·x‖₂ ≤ tol·‖b‖₂`.
    pub tol: f64,
    /// Total inner-iteration budget across all restart cycles. `0` means
    /// "don't even try" — the call returns immediately, unconverged, which
    /// callers use to force their fallback path.
    pub max_iters: usize,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions { restart: 30, tol: 1e-10, max_iters: 200 }
    }
}

/// What a [`gmres`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresOutcome {
    /// Whether the relative-residual target was met.
    pub converged: bool,
    /// Whether the iteration was cut short because a full restart cycle
    /// failed to shrink the true residual below 0.99 of its predecessor.
    pub stagnated: bool,
    /// Inner (Arnoldi) iterations performed, summed over cycles.
    pub iterations: usize,
    /// Restart cycles *beyond the first* that were started.
    pub restarts: usize,
    /// Final true residual norm `‖b − A·x‖₂`.
    pub residual: f64,
}

/// A restart cycle that fails to shrink the true residual below this
/// fraction of its predecessor counts as stagnation: further cycles would
/// re-explore the same Krylov space, so the iteration reports failure and
/// lets the caller fall back to a direct factorization.
pub(crate) const STAGNATION_FACTOR: f64 = 0.99;

fn norm2(v: &[f64]) -> f64 {
    // Fixed-order accumulation: part of the determinism contract.
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves `A·x = b` by restarted, right-preconditioned GMRES(m).
///
/// `x` carries the initial guess in and the final iterate out. The solution
/// update is `x ← x + M⁻¹·V·y`, so with a stale-but-decent preconditioner
/// (frozen LU factors of a nearby matrix) convergence is typically a
/// handful of iterations.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] when `b`/`x` disagree with
/// the operator or preconditioner dimension, and propagates any error from
/// the operator or preconditioner applications. A non-finite breakdown in
/// the Arnoldi process surfaces as [`SparseError::NotFinite`].
pub fn gmres(
    op: &dyn SparseOperator,
    precond: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    opts: &GmresOptions,
) -> Result<GmresOutcome> {
    let n = op.dim();
    if b.len() != n {
        return Err(SparseError::DimensionMismatch { expected: n, found: b.len() });
    }
    if x.len() != n {
        return Err(SparseError::DimensionMismatch { expected: n, found: x.len() });
    }
    if precond.dim() != n {
        return Err(SparseError::DimensionMismatch { expected: n, found: precond.dim() });
    }
    let m = opts.restart.max(1).min(n.max(1));
    let bnorm = norm2(b);
    if bnorm == 0.0 {
        // The unique minimizer of a zero right-hand side.
        x.fill(0.0);
        return Ok(GmresOutcome {
            converged: true,
            stagnated: false,
            iterations: 0,
            restarts: 0,
            residual: 0.0,
        });
    }
    let target = opts.tol * bnorm;

    let mut w = vec![0.0f64; n]; // operator output / residual workspace
    let mut z = vec![0.0f64; n]; // preconditioner output
    let mut scratch = vec![0.0f64; n];
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    // Upper-triangular R of the Hessenberg QR, column-major, plus the
    // rotated right-hand side g and the Givens coefficients.
    let mut r_cols: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut g = vec![0.0f64; m + 1];
    let mut cs = vec![0.0f64; m];
    let mut sn = vec![0.0f64; m];

    let mut iterations = 0usize;
    let mut cycles = 0usize;
    let mut prev_beta = f64::INFINITY;
    let (converged, stagnated, residual) = loop {
        // True residual at the top of every cycle (and after the last
        // update): r = b − A·x.
        op.apply(x, &mut w)?;
        for (wi, &bi) in w.iter_mut().zip(b) {
            *wi = bi - *wi;
        }
        let beta = norm2(&w);
        if !beta.is_finite() {
            return Err(SparseError::NotFinite { context: "gmres residual" });
        }
        if beta <= target {
            break (true, false, beta);
        }
        if iterations >= opts.max_iters {
            break (false, false, beta);
        }
        if beta >= STAGNATION_FACTOR * prev_beta {
            break (false, true, beta);
        }
        prev_beta = beta;
        cycles += 1;

        // One Arnoldi cycle of at most m steps.
        basis.clear();
        r_cols.clear();
        let mut v0 = vec![0.0f64; n];
        for (vi, &wi) in v0.iter_mut().zip(&w) {
            *vi = wi / beta;
        }
        basis.push(v0);
        g[..=m].fill(0.0);
        g[0] = beta;
        let mut inner = 0usize;
        for i in 0..m {
            if iterations >= opts.max_iters {
                break;
            }
            // w = A·M⁻¹·v_i.
            precond.apply(&basis[i], &mut z, &mut scratch)?;
            op.apply(&z, &mut w)?;
            // Modified Gram–Schmidt against the existing basis.
            let mut h = vec![0.0f64; i + 2];
            #[allow(clippy::needless_range_loop)]
            for k in 0..=i {
                let hk = dot(&w, &basis[k]);
                h[k] = hk;
                for (wi, &vk) in w.iter_mut().zip(&basis[k]) {
                    *wi -= hk * vk;
                }
            }
            let hnext = norm2(&w);
            if !hnext.is_finite() {
                return Err(SparseError::NotFinite { context: "gmres arnoldi" });
            }
            h[i + 1] = hnext;
            // Previously computed rotations, applied to the new column.
            for k in 0..i {
                let t = cs[k] * h[k] + sn[k] * h[k + 1];
                h[k + 1] = -sn[k] * h[k] + cs[k] * h[k + 1];
                h[k] = t;
            }
            // New rotation zeroing the subdiagonal.
            let denom = (h[i] * h[i] + h[i + 1] * h[i + 1]).sqrt();
            if denom == 0.0 {
                // Exact breakdown of an already-zero column: the residual
                // estimate cannot improve; finish the cycle.
                inner = i;
                break;
            }
            cs[i] = h[i] / denom;
            sn[i] = h[i + 1] / denom;
            h[i] = denom;
            h[i + 1] = 0.0;
            g[i + 1] = -sn[i] * g[i];
            g[i] *= cs[i];
            r_cols.push(h);
            iterations += 1;
            inner = i + 1;
            let res_est = g[i + 1].abs();
            if res_est <= target {
                break;
            }
            if hnext == 0.0 {
                // Happy breakdown: the Krylov space is invariant; the
                // least-squares solution is exact.
                break;
            }
            let mut v = vec![0.0f64; n];
            for (vi, &wi) in v.iter_mut().zip(&w) {
                *vi = wi / hnext;
            }
            basis.push(v);
        }
        if inner == 0 {
            // Budget exhausted before a single step: nothing to update.
            continue;
        }
        // Back-substitute R·y = g over the `inner` completed columns.
        let mut y = vec![0.0f64; inner];
        for i in (0..inner).rev() {
            let mut s = g[i];
            for k in (i + 1)..inner {
                s -= r_cols[k][i] * y[k];
            }
            y[i] = s / r_cols[i][i];
        }
        // x ← x + M⁻¹·(V·y).
        w.fill(0.0);
        for (k, yk) in y.iter().enumerate() {
            for (wi, &vk) in w.iter_mut().zip(&basis[k]) {
                *wi += yk * vk;
            }
        }
        precond.apply(&w, &mut z, &mut scratch)?;
        for (xi, &zi) in x.iter_mut().zip(&z) {
            *xi += zi;
        }
    };
    Ok(GmresOutcome {
        converged,
        stagnated,
        iterations,
        restarts: cycles.saturating_sub(1),
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csc::CscMatrix;
    use crate::ilu::Ilu0;
    use crate::operator::IdentityPrecond;

    fn solve(a: &CscMatrix, b: &[f64], opts: &GmresOptions) -> (Vec<f64>, GmresOutcome) {
        let mut x = vec![0.0; b.len()];
        let out = gmres(a, &IdentityPrecond::new(b.len()), b, &mut x, opts).unwrap();
        (x, out)
    }

    fn diag(values: &[f64]) -> CscMatrix {
        let mut t = CooMatrix::new(values.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            t.push(i, i, v).unwrap();
        }
        t.to_csc()
    }

    fn tridiag(n: usize, d: f64, o: f64) -> CscMatrix {
        let mut t = CooMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, d).unwrap();
        }
        for i in 0..n - 1 {
            t.push(i, i + 1, o).unwrap();
            t.push(i + 1, i, o).unwrap();
        }
        t.to_csc()
    }

    /// The cyclic shift: A·e_i = e_{i+1 mod n}. Unpreconditioned GMRES
    /// makes *zero* residual progress on b = e_0 until the full dimension —
    /// the canonical stagnation example.
    fn shift(n: usize) -> CscMatrix {
        let mut t = CooMatrix::new(n, n);
        for i in 0..n {
            t.push((i + 1) % n, i, 1.0).unwrap();
        }
        t.to_csc()
    }

    #[test]
    fn diagonal_system_converges() {
        let a = diag(&[2.0, 4.0, 8.0, 16.0]);
        let b = [2.0, 8.0, 8.0, 32.0];
        let (x, out) = solve(&a, &b, &GmresOptions::default());
        assert!(out.converged, "{out:?}");
        for (xi, want) in x.iter().zip(&[1.0, 2.0, 1.0, 2.0]) {
            assert!((xi - want).abs() < 1e-8);
        }
        // Four distinct eigenvalues: at most four iterations.
        assert!(out.iterations <= 4, "{out:?}");
    }

    #[test]
    fn banded_system_matches_direct_oracle() {
        let a = tridiag(20, 4.0, -1.0);
        let want: Vec<f64> = (0..20).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        let b = a.matvec(&want).unwrap();
        let (x, out) = solve(&a, &b, &GmresOptions::default());
        assert!(out.converged, "{out:?}");
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-7, "{xi} vs {wi}");
        }
    }

    #[test]
    fn unsymmetric_system_converges() {
        // Unsymmetric, diagonally dominant 3x3.
        let mut t = CooMatrix::new(3, 3);
        for &(r, c, v) in
            &[(0, 0, 5.0), (0, 1, 1.0), (1, 0, -2.0), (1, 1, 6.0), (1, 2, 0.5), (2, 2, 3.0)]
        {
            t.push(r, c, v).unwrap();
        }
        let a = t.to_csc();
        let want = [1.0, -2.0, 3.0];
        let b = a.matvec(&want).unwrap();
        let (x, out) = solve(&a, &b, &GmresOptions::default());
        assert!(out.converged, "{out:?}");
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-8);
        }
    }

    #[test]
    fn restart_boundary_full_krylov_space_needed() {
        // The shift matrix needs exactly n Arnoldi steps: with restart = n
        // the solve lands exactly on the restart boundary and succeeds.
        let n = 8;
        let a = shift(n);
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        let (x, out) = solve(&a, &b, &GmresOptions { restart: n, tol: 1e-12, max_iters: 4 * n });
        assert!(out.converged, "{out:?}");
        assert_eq!(out.iterations, n, "needs the full space, no more");
        // A·x = e_0 means x = e_{n-1}.
        assert!((x[n - 1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn stagnation_detected_when_restart_too_short() {
        // With restart < n on the shift matrix, every cycle reproduces the
        // same residual: the stagnation guard must fire rather than loop
        // until max_iters.
        let n = 8;
        let a = shift(n);
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        let (x, out) = solve(&a, &b, &GmresOptions { restart: 4, tol: 1e-12, max_iters: 10_000 });
        assert!(!out.converged, "{out:?}");
        assert!(out.stagnated, "{out:?}");
        assert!(out.iterations < 100, "stagnation must cut the budget: {out:?}");
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn near_singular_system_stays_finite() {
        // Numerically singular: one zero row/column pair. GMRES cannot
        // converge; it must report failure with finite state, not NaN.
        let a = diag(&[1.0, 0.0]);
        let b = [1.0, 1.0];
        let (x, out) = solve(&a, &b, &GmresOptions { restart: 2, tol: 1e-12, max_iters: 50 });
        assert!(!out.converged, "{out:?}");
        assert!(x.iter().all(|v| v.is_finite()));
        assert!(out.residual.is_finite());
    }

    #[test]
    fn max_iters_zero_is_an_immediate_unconverged_return() {
        let a = diag(&[2.0, 3.0]);
        let b = [1.0, 1.0];
        let (x, out) = solve(&a, &b, &GmresOptions { restart: 4, tol: 1e-10, max_iters: 0 });
        assert!(!out.converged);
        assert_eq!(out.iterations, 0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let a = diag(&[2.0, 3.0]);
        let mut x = vec![7.0, 9.0];
        let out =
            gmres(&a, &IdentityPrecond::new(2), &[0.0, 0.0], &mut x, &GmresOptions::default())
                .unwrap();
        assert!(out.converged);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn ilu_preconditioned_tridiagonal_converges_in_one_iteration() {
        // ILU(0) is exact on a banded pattern, so the preconditioned
        // operator is the identity: one iteration.
        let n = 30;
        let a = tridiag(n, 4.0, -1.0);
        let ilu = Ilu0::factor(&a).unwrap();
        let want: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let b = a.matvec(&want).unwrap();
        let mut x = vec![0.0; n];
        let out = gmres(&a, &ilu, &b, &mut x, &GmresOptions::default()).unwrap();
        assert!(out.converged, "{out:?}");
        assert_eq!(out.iterations, 1, "{out:?}");
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-8);
        }
    }

    #[test]
    fn restarts_are_counted() {
        // A stiff SPD system with a tiny restart: convergence requires
        // several cycles, and the outcome reports them.
        let a = tridiag(40, 2.05, -1.0);
        let want: Vec<f64> = (0..40).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = a.matvec(&want).unwrap();
        let (x, out) = solve(&a, &b, &GmresOptions { restart: 8, tol: 1e-8, max_iters: 2000 });
        assert!(out.converged, "{out:?}");
        assert!(out.restarts > 0, "{out:?}");
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-4, "{xi} vs {wi}");
        }
    }

    #[test]
    fn dimension_mismatches_are_errors() {
        let a = diag(&[1.0, 2.0]);
        let mut x = vec![0.0; 2];
        assert!(
            gmres(&a, &IdentityPrecond::new(2), &[1.0], &mut x, &GmresOptions::default()).is_err()
        );
        let mut short = vec![0.0; 1];
        assert!(gmres(
            &a,
            &IdentityPrecond::new(2),
            &[1.0, 1.0],
            &mut short,
            &GmresOptions::default()
        )
        .is_err());
        assert!(gmres(&a, &IdentityPrecond::new(3), &[1.0, 1.0], &mut x, &GmresOptions::default())
            .is_err());
    }

    #[test]
    fn deterministic_bitwise_across_runs() {
        let a = tridiag(25, 3.0, -1.3);
        let want: Vec<f64> = (0..25).map(|i| ((i * 13 % 11) as f64) - 5.0).collect();
        let b = a.matvec(&want).unwrap();
        let opts = GmresOptions { restart: 6, tol: 1e-9, max_iters: 500 };
        let (x1, o1) = solve(&a, &b, &opts);
        let (x2, o2) = solve(&a, &b, &opts);
        assert_eq!(x1, x2, "gmres must be bit-deterministic");
        assert_eq!(o1, o2);
    }
}
