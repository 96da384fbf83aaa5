//! ILU(0) — incomplete LU factorization with zero fill-in.
//!
//! The factors share the sparsity pattern of the input matrix exactly: every
//! update that would create an entry outside `pattern(A)` is dropped. That
//! makes the factorization cheap (one pass over the stored entries, no
//! symbolic analysis, no fill) and the triangular solves as sparse as the
//! matrix itself — the classic trade of accuracy for cost that works well as
//! a [`crate::operator::Preconditioner`] for Krylov methods on circuit
//! matrices, whose diagonally-dominant conductance structure keeps the
//! dropped fill small.
//!
//! The algorithm is the left-looking column variant, operating directly on
//! CSC storage: for each column `j`, scatter `A(:,j)` into a dense work
//! vector, apply the updates of every factored column `k < j` that appears
//! in the pattern of column `j` (restricted to pattern positions), then
//! divide the subdiagonal by the pivot. `L` has an implicit unit diagonal;
//! `L` and `U` are stored packed in one copy of the input pattern.

use crate::csc::CscMatrix;
use crate::error::{Result, SparseError};
use crate::operator::Preconditioner;

/// An ILU(0) factorization: `A ≈ L·U` with `pattern(L + U) = pattern(A)`.
///
/// ```
/// use wavepipe_sparse::{CooMatrix, Ilu0, Preconditioner, SparseOperator};
///
/// # fn main() -> Result<(), wavepipe_sparse::SparseError> {
/// // Tridiagonal matrices have no fill, so ILU(0) is the exact LU.
/// let mut t = CooMatrix::new(3, 3);
/// for i in 0..3 {
///     t.push(i, i, 4.0)?;
/// }
/// for i in 0..2 {
///     t.push(i, i + 1, -1.0)?;
///     t.push(i + 1, i, -1.0)?;
/// }
/// let a = t.to_csc();
/// let ilu = Ilu0::factor(&a)?;
/// let x = [1.0, 2.0, 3.0];
/// let mut b = vec![0.0; 3];
/// a.apply(&x, &mut b)?;
/// let (mut z, mut work) = (vec![0.0; 3], vec![0.0; 3]);
/// ilu.apply(&b, &mut z, &mut work)?;
/// for (zi, xi) in z.iter().zip(&x) {
///     assert!((zi - xi).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ilu0 {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    /// Packed factor values over the input pattern: rows `< j` of column `j`
    /// hold `U(k,j)`, the diagonal holds `U(j,j)`, rows `> j` hold `L(i,j)`
    /// (unit diagonal of `L` implicit).
    values: Vec<f64>,
    /// Storage position of the diagonal entry of each column.
    diag: Vec<usize>,
}

impl Ilu0 {
    /// Factors `a` in ILU(0) form.
    ///
    /// # Errors
    ///
    /// * [`SparseError::NotSquare`] for a rectangular input.
    /// * [`SparseError::Singular`] when a diagonal entry is structurally
    ///   missing, vanishes, or collapses below the stability floor — callers
    ///   should fall back to a pivoted factorization.
    pub fn factor(a: &CscMatrix) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
        }
        let n = a.ncols();
        let col_ptr = a.col_ptr().to_vec();
        let row_idx = a.row_idx().to_vec();
        let mut values = vec![0.0f64; row_idx.len()];
        let mut diag = vec![usize::MAX; n];
        // No pivoting means no stability safety net: reject pivots that are
        // negligible against the matrix magnitude instead of dividing by them.
        let pivot_floor = 1e-30 * a.norm_inf();

        // Dense work vector plus a pattern marker (`pos[i] != usize::MAX`
        // while row `i` is in the current column's pattern).
        let mut work = vec![0.0f64; n];
        let mut pos = vec![usize::MAX; n];
        for j in 0..n {
            let (s, e) = (col_ptr[j], col_ptr[j + 1]);
            for (p, &i) in row_idx.iter().enumerate().take(e).skip(s) {
                work[i] = a.values()[p];
                pos[i] = p;
            }
            // Left-looking updates: row indices are sorted, so the strictly
            // upper entries come first and in ascending order of `k`.
            let mut dj = usize::MAX;
            for p in s..e {
                let k = row_idx[p];
                if k >= j {
                    if k == j {
                        dj = p;
                    }
                    break;
                }
                // `work[k]` is now final: U(k,j).
                let ukj = work[k];
                values[p] = ukj;
                if ukj != 0.0 {
                    // Subtract U(k,j) * L(:,k), restricted to pattern(A(:,j)).
                    for q in (diag[k] + 1)..col_ptr[k + 1] {
                        let i = row_idx[q];
                        if pos[i] != usize::MAX {
                            work[i] -= values[q] * ukj;
                        }
                    }
                }
            }
            let clear = |pos: &mut [usize]| {
                for p in s..e {
                    pos[row_idx[p]] = usize::MAX;
                }
            };
            if dj == usize::MAX {
                clear(&mut pos);
                return Err(SparseError::Singular { column: j });
            }
            let pivot = work[j];
            if !pivot.is_finite() || pivot.abs() <= pivot_floor {
                clear(&mut pos);
                return Err(SparseError::Singular { column: j });
            }
            values[dj] = pivot;
            diag[j] = dj;
            for p in (dj + 1)..e {
                values[p] = work[row_idx[p]] / pivot;
            }
            clear(&mut pos);
        }
        Ok(Ilu0 { n, col_ptr, row_idx, values, diag })
    }

    /// Applies the preconditioner: solves `L·U·z = r` in place of `z`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on a wrong-length buffer.
    pub(crate) fn apply_into(&self, r: &[f64], z: &mut [f64]) -> Result<()> {
        if r.len() != self.n {
            return Err(SparseError::DimensionMismatch { expected: self.n, found: r.len() });
        }
        if z.len() != self.n {
            return Err(SparseError::DimensionMismatch { expected: self.n, found: z.len() });
        }
        z.copy_from_slice(r);
        // Forward: L·y = r, unit diagonal, column-oriented.
        for j in 0..self.n {
            let yj = z[j];
            if yj != 0.0 {
                for q in (self.diag[j] + 1)..self.col_ptr[j + 1] {
                    z[self.row_idx[q]] -= self.values[q] * yj;
                }
            }
        }
        // Backward: U·z = y, column-oriented.
        for j in (0..self.n).rev() {
            let xj = z[j] / self.values[self.diag[j]];
            z[j] = xj;
            if xj != 0.0 {
                for q in self.col_ptr[j]..self.diag[j] {
                    z[self.row_idx[q]] -= self.values[q] * xj;
                }
            }
        }
        Ok(())
    }
}

impl Preconditioner for Ilu0 {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, r: &[f64], z: &mut [f64], _scratch: &mut [f64]) -> Result<()> {
        self.apply_into(r, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

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

    #[test]
    fn exact_on_tridiagonal() {
        // No fill is dropped on a banded pattern, so ILU(0) solves exactly.
        let a = tridiag(6, 4.0, -1.0);
        let ilu = Ilu0::factor(&a).unwrap();
        let x: Vec<f64> = (0..6).map(|i| (i as f64) - 2.5).collect();
        let b = a.matvec(&x).unwrap();
        let mut z = vec![0.0; 6];
        ilu.apply_into(&b, &mut z).unwrap();
        for (zi, xi) in z.iter().zip(&x) {
            assert!((zi - xi).abs() < 1e-12, "z {zi} vs x {xi}");
        }
    }

    /// The factor value stored at `(row, col)`, or `0.0` outside the pattern
    /// (strictly-lower entries are `L`, the rest are `U`).
    fn factor_entry(ilu: &Ilu0, row: usize, col: usize) -> f64 {
        let (s, e) = (ilu.col_ptr[col], ilu.col_ptr[col + 1]);
        ilu.row_idx[s..e].binary_search(&row).map_or(0.0, |k| ilu.values[s + k])
    }

    #[test]
    fn hand_checked_four_by_four() {
        // A =
        //   [ 4 -1  0 -1 ]
        //   [-1  4 -1  0 ]
        //   [ 0 -1  4 -1 ]
        //   [-1  0 -1  4 ]
        // (the 2x2 grid Laplacian plus 4I sharing). Hand elimination with the
        // ILU(0) drop rule — fill at (2,0)/(3,1) and their transposes is
        // outside the pattern and discarded:
        //   l10 = -1/4          u11 = 4 - 1/4           = 15/4
        //   l30 = -1/4          u01 = -1, u03 = -1
        //   l21 = -1/(15/4)     u22 = 4 - 1/(15/4)      = 56/15
        //   l31 = 0 (dropped)   u13 = 0 (outside pattern: stays absent)
        //   l32 = (-1 - 0)/u22  u33 = 4 - 1/4·1 - l32·u23 ... computed below
        let mut t = CooMatrix::new(4, 4);
        for i in 0..4 {
            t.push(i, i, 4.0).unwrap();
        }
        for &(r, c) in &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (0, 3), (3, 0)] {
            t.push(r, c, -1.0).unwrap();
        }
        let a = t.to_csc();
        let ilu = Ilu0::factor(&a).unwrap();

        let u11 = 4.0 - 0.25;
        let u22 = 4.0 - 1.0 / u11;
        // Column 3: u03 = -1; u23 = -1 (row 1 absent from pattern, no
        // update reaches it); pivot u33 = 4 - l30·u03 - l32·u23.
        let l32 = -1.0 / u22;
        let u33 = 4.0 - (-0.25) * (-1.0) + l32;

        assert!((factor_entry(&ilu, 1, 0) - (-0.25)).abs() < 1e-15);
        assert!((factor_entry(&ilu, 3, 0) - (-0.25)).abs() < 1e-15);
        assert!((factor_entry(&ilu, 1, 1) - u11).abs() < 1e-15);
        assert!((factor_entry(&ilu, 2, 1) - (-1.0 / u11)).abs() < 1e-15);
        assert!((factor_entry(&ilu, 2, 2) - u22).abs() < 1e-15);
        assert!((factor_entry(&ilu, 3, 2) - l32).abs() < 1e-15);
        assert!((factor_entry(&ilu, 3, 3) - u33).abs() < 1e-15);
        // Dropped fill stays outside the pattern.
        assert_eq!(factor_entry(&ilu, 2, 0), 0.0);
        assert_eq!(factor_entry(&ilu, 3, 1), 0.0);
    }

    #[test]
    fn missing_diagonal_is_singular() {
        let mut t = CooMatrix::new(2, 2);
        t.push(0, 0, 1.0).unwrap();
        t.push(0, 1, 1.0).unwrap();
        t.push(1, 0, 1.0).unwrap();
        // (1,1) structurally absent.
        let a = t.to_csc();
        assert!(matches!(Ilu0::factor(&a), Err(SparseError::Singular { column: 1 })));
    }

    #[test]
    fn zero_pivot_is_singular() {
        let mut t = CooMatrix::new(2, 2);
        t.push(0, 0, 0.0).unwrap();
        t.push(1, 1, 1.0).unwrap();
        let a = t.to_csc();
        assert!(matches!(Ilu0::factor(&a), Err(SparseError::Singular { column: 0 })));
    }

    #[test]
    fn rectangular_is_rejected() {
        let a = CscMatrix::zeros(2, 3);
        assert!(matches!(Ilu0::factor(&a), Err(SparseError::NotSquare { .. })));
    }

    #[test]
    fn preconditioner_impl_matches_apply_into() {
        let a = tridiag(5, 3.0, -1.0);
        let ilu = Ilu0::factor(&a).unwrap();
        let r = [1.0, -2.0, 0.5, 4.0, -1.0];
        let mut z1 = vec![0.0; 5];
        let mut z2 = vec![0.0; 5];
        let mut s = vec![0.0; 5];
        ilu.apply_into(&r, &mut z1).unwrap();
        Preconditioner::apply(&ilu, &r, &mut z2, &mut s).unwrap();
        assert_eq!(z1, z2);
    }
}
