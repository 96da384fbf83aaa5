//! Dense matrix with LU solve — the unit tests' correctness oracle for the
//! sparse path (compiled for tests only).

use crate::error::{Result, SparseError};

/// A row-major dense matrix of `f64`, solved by LU with partial pivoting:
/// the oracle the sparse LU is checked against.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `nrows x ncols` matrix of zeros.
    pub(crate) fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Creates the `n x n` identity.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds from a row-major nested slice.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub(crate) fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
            data.extend_from_slice(r);
        }
        DenseMatrix { nrows, ncols, data }
    }

    /// Returns entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j]
    }

    /// Sets entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j] = v;
    }

    /// Adds `v` to entry `(i, j)` (stamping convention).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub(crate) fn add(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j] += v;
    }

    /// Computes `y = A * x`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len() != ncols`.
    pub(crate) fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch { expected: self.ncols, found: x.len() });
        }
        let mut y = vec![0.0; self.nrows];
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.nrows {
            let row = &self.data[i * self.ncols..(i + 1) * self.ncols];
            y[i] = row.iter().zip(x).map(|(&a, &b)| a * b).sum();
        }
        Ok(y)
    }

    /// Solves `A x = b` by LU with partial pivoting. `A` is unchanged.
    ///
    /// # Errors
    ///
    /// * [`SparseError::NotSquare`] if the matrix is not square.
    /// * [`SparseError::DimensionMismatch`] if `b.len() != nrows`.
    /// * [`SparseError::Singular`] if a pivot underflows.
    pub(crate) fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare { nrows: self.nrows, ncols: self.ncols });
        }
        if b.len() != self.nrows {
            return Err(SparseError::DimensionMismatch { expected: self.nrows, found: b.len() });
        }
        let n = self.nrows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        // LU with partial pivoting, factoring in place.
        for k in 0..n {
            // Pivot search in column k.
            let mut piv = k;
            let mut best = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > best {
                    best = v;
                    piv = i;
                }
            }
            if best == 0.0 || !best.is_finite() {
                return Err(SparseError::Singular { column: k });
            }
            if piv != k {
                for j in 0..n {
                    a.swap(k * n + j, piv * n + j);
                }
                x.swap(k, piv);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let l = a[i * n + k] / pivot;
                if l == 0.0 {
                    continue;
                }
                a[i * n + k] = l;
                for j in (k + 1)..n {
                    a[i * n + j] -= l * a[k * n + j];
                }
                x[i] -= l * x[k];
            }
        }
        // Back substitution with U.
        for k in (0..n).rev() {
            let mut s = x[k];
            for j in (k + 1)..n {
                s -= a[k * n + j] * x[j];
            }
            x[k] = s / a[k * n + k];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let a = DenseMatrix::identity(3);
        let x = a.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn solve_general_3x3() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        // Known solution: x = 2, y = 3, z = -1.
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_is_detected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.solve(&[1.0, 2.0]), Err(SparseError::Singular { .. })));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(a.solve(&[1.0, 2.0]), Err(SparseError::NotSquare { .. })));
    }

    #[test]
    fn matvec_basic() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn stamping_add_accumulates() {
        let mut a = DenseMatrix::zeros(2, 2);
        a.add(0, 0, 1.0);
        a.add(0, 0, 2.5);
        assert_eq!(a.get(0, 0), 3.5);
    }

    #[test]
    fn solve_matches_matvec_round_trip() {
        let a = DenseMatrix::from_rows(&[
            &[4.0, -1.0, 0.0, 0.5],
            &[-1.0, 4.2, -1.0, 0.0],
            &[0.0, -1.0, 3.9, -1.0],
            &[0.3, 0.0, -1.0, 4.1],
        ]);
        let xt = [1.0, -2.0, 0.5, 3.0];
        let b = a.matvec(&xt).unwrap();
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&xt) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }
}
