//! Operator and preconditioner abstractions for Krylov methods.
//!
//! Iterative solvers never need the entries of the system matrix — only the
//! action `y = A·x` — so [`SparseOperator`] captures exactly that, letting
//! [`gmres()`](fn@crate::gmres) run against an assembled [`CscMatrix`], a matrix-free
//! stencil, or a product of operators without caring which. The companion
//! [`Preconditioner`] trait captures the approximate-inverse action
//! `z = M⁻¹·r`; both a dropped-fill [`crate::Ilu0`] factorization and a
//! full (possibly stale) [`SparseLu`] factorization satisfy it, which is how
//! the engine reuses frozen chord-Newton LU factors as a Krylov
//! preconditioner.

use crate::csc::CscMatrix;
use crate::error::Result;
use crate::lu::SparseLu;

/// The action of a square linear operator: `y = A·x`.
///
/// Implementations must be deterministic — the same `x` always produces the
/// bitwise-same `y` — because the Krylov solvers built on top are part of
/// WavePipe's bit-reproducibility contract.
pub trait SparseOperator {
    /// Dimension `n` of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `y = A·x` into the caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`](crate::SparseError::DimensionMismatch)
    /// when `x` or `y` is not of length [`dim`](SparseOperator::dim).
    fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<()>;
}

impl SparseOperator for CscMatrix {
    fn dim(&self) -> usize {
        self.ncols()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        self.matvec_into(x, y)
    }
}

/// The action of an approximate inverse: `z = M⁻¹·r`.
///
/// The same determinism requirement as [`SparseOperator`] applies. `scratch`
/// is caller-provided intermediate storage of length
/// [`dim`](Preconditioner::dim) so repeated applications allocate nothing.
pub trait Preconditioner {
    /// Dimension `n` of the (square) preconditioner.
    fn dim(&self) -> usize;

    /// Computes `z = M⁻¹·r` into the caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`](crate::SparseError::DimensionMismatch)
    /// when any buffer length disagrees with [`dim`](Preconditioner::dim).
    fn apply(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]) -> Result<()>;
}

/// The do-nothing preconditioner `M = I`, with which the unit tests run
/// unpreconditioned Krylov iterations through the same code path.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdentityPrecond {
    n: usize,
}

#[cfg(test)]
impl IdentityPrecond {
    /// An identity preconditioner of dimension `n`.
    pub(crate) fn new(n: usize) -> Self {
        IdentityPrecond { n }
    }
}

#[cfg(test)]
impl Preconditioner for IdentityPrecond {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, r: &[f64], z: &mut [f64], _scratch: &mut [f64]) -> Result<()> {
        if r.len() != self.n {
            return Err(crate::SparseError::DimensionMismatch { expected: self.n, found: r.len() });
        }
        if z.len() != self.n {
            return Err(crate::SparseError::DimensionMismatch { expected: self.n, found: z.len() });
        }
        z.copy_from_slice(r);
        Ok(())
    }
}

/// A complete LU factorization is the strongest preconditioner of all: one
/// application solves the (possibly stale) system exactly. This is the
/// chord-Newton reuse path — frozen factors of a nearby Jacobian.
impl Preconditioner for SparseLu {
    fn dim(&self) -> usize {
        self.dim()
    }

    fn apply(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]) -> Result<()> {
        self.solve_with_scratch(r, z, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::lu::LuOptions;

    fn sample() -> CscMatrix {
        let mut t = CooMatrix::new(3, 3);
        for &(r, c, v) in &[(0, 0, 2.0), (1, 1, 3.0), (2, 2, 5.0), (0, 2, 1.0), (2, 0, 4.0)] {
            t.push(r, c, v).unwrap();
        }
        t.to_csc()
    }

    #[test]
    fn csc_operator_is_matvec() {
        let a = sample();
        let x = [1.0, -1.0, 2.0];
        let mut y = vec![0.0; 3];
        a.apply(&x, &mut y).unwrap();
        assert_eq!(y, a.matvec(&x).unwrap());
        assert_eq!(SparseOperator::dim(&a), 3);
    }

    #[test]
    fn identity_precond_copies() {
        let m = IdentityPrecond::new(3);
        let r = [1.0, 2.0, 3.0];
        let mut z = vec![0.0; 3];
        let mut s = vec![0.0; 3];
        m.apply(&r, &mut z, &mut s).unwrap();
        assert_eq!(z, r);
        assert!(m.apply(&r[..2], &mut z, &mut s).is_err());
    }

    #[test]
    fn sparse_lu_precond_solves_exactly() {
        let a = sample();
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let x = [1.0, 2.0, -3.0];
        let b = a.matvec(&x).unwrap();
        let mut z = vec![0.0; 3];
        let mut s = vec![0.0; 3];
        Preconditioner::apply(&lu, &b, &mut z, &mut s).unwrap();
        for (zi, xi) in z.iter().zip(&x) {
            assert!((zi - xi).abs() < 1e-12);
        }
    }
}
