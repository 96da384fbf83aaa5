//! Compressed sparse column matrix.

#[cfg(test)]
use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};

/// A sparse matrix in compressed sparse column (CSC) format.
///
/// Column `j` occupies positions `col_ptr[j] .. col_ptr[j+1]` of the parallel
/// arrays `row_idx` / `values`; row indices within each column are strictly
/// increasing.
///
/// CSC is the natural format for the left-looking LU factorization used by
/// SPICE-class solvers, and for fast column access during factorization.
///
/// ```
/// use wavepipe_sparse::{CooMatrix, CscMatrix};
///
/// # fn main() -> Result<(), wavepipe_sparse::SparseError> {
/// let mut t = CooMatrix::new(2, 2);
/// t.push(0, 0, 4.0)?;
/// t.push(1, 0, -1.0)?;
/// t.push(1, 1, 2.0)?;
/// let a: CscMatrix = t.to_csc();
/// // r = b - A x: zero when b = A x.
/// let mut r = vec![0.0; 2];
/// a.residual_into(&[1.0, 1.0], &[4.0, 1.0], &mut r)?;
/// assert_eq!(r, vec![0.0, 0.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

/// What [`CscMatrix::backward_error_into`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackwardError {
    /// `‖b - A x‖∞` over the entries that are not NaN.
    pub residual_norm: f64,
    /// `‖A‖∞`, the largest absolute row sum.
    pub matrix_norm: f64,
    /// `‖x‖∞`.
    pub x_norm: f64,
    /// `‖b‖∞`.
    pub b_norm: f64,
    /// Whether every entry of the residual is finite (neither NaN nor ±inf).
    pub residual_finite: bool,
}

impl CscMatrix {
    /// Builds a CSC matrix from raw triplet arrays, summing duplicates.
    ///
    /// Entries summing to zero are kept in the pattern (see
    /// [`crate::CooMatrix::to_csc`]).
    ///
    /// # Panics
    ///
    /// Panics if the triplet arrays have different lengths or contain indices
    /// out of range (use [`crate::CooMatrix`] for checked assembly).
    pub(crate) fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: &[usize],
        cols: &[usize],
        vals: &[f64],
    ) -> Self {
        assert_eq!(rows.len(), cols.len());
        assert_eq!(rows.len(), vals.len());
        // Count entries per column.
        let mut count = vec![0usize; ncols + 1];
        for (&r, &c) in rows.iter().zip(cols) {
            assert!(r < nrows && c < ncols, "triplet ({r},{c}) out of bounds");
            count[c + 1] += 1;
        }
        for j in 0..ncols {
            count[j + 1] += count[j];
        }
        // Scatter triplets into column buckets.
        let nnz_dup = rows.len();
        let mut ri = vec![0usize; nnz_dup];
        let mut rv = vec![0f64; nnz_dup];
        let mut next = count.clone();
        for k in 0..nnz_dup {
            let c = cols[k];
            let p = next[c];
            ri[p] = rows[k];
            rv[p] = vals[k];
            next[c] += 1;
        }
        // Sort each column by row and compress duplicates.
        let mut col_ptr = vec![0usize; ncols + 1];
        let mut row_idx = Vec::with_capacity(nnz_dup);
        let mut values = Vec::with_capacity(nnz_dup);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for j in 0..ncols {
            scratch.clear();
            scratch.extend(
                ri[count[j]..count[j + 1]]
                    .iter()
                    .copied()
                    .zip(rv[count[j]..count[j + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < scratch.len() {
                let r = scratch[i].0;
                let mut v = scratch[i].1;
                i += 1;
                while i < scratch.len() && scratch[i].0 == r {
                    v += scratch[i].1;
                    i += 1;
                }
                row_idx.push(r);
                values.push(v);
            }
            col_ptr[j + 1] = row_idx.len();
        }
        CscMatrix { nrows, ncols, col_ptr, row_idx, values }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CscMatrix {
            nrows: n,
            ncols: n,
            col_ptr: (0..=n).collect(),
            row_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Creates an empty (all-zero pattern) `nrows x ncols` matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CscMatrix {
            nrows,
            ncols,
            col_ptr: vec![0; ncols + 1],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    pub(crate) fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of structurally stored entries.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Column pointer array (length `ncols + 1`).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index array (length `nnz`).
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Value array (length `nnz`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the value array; the pattern is immutable.
    ///
    /// This is the fast path for restamping an MNA matrix whose pattern was
    /// fixed at setup time.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Returns the `(row indices, values)` of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols`.
    pub(crate) fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[s..e], &self.values[s..e])
    }

    /// Returns the value at `(row, col)`, or `0.0` if the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.nrows && col < self.ncols);
        self.find_index(row, col).map_or(0.0, |p| self.values[p])
    }

    /// Returns the storage position of entry `(row, col)` if it is in the
    /// pattern. Binary search within the column: O(log nnz_col).
    pub fn find_index(&self, row: usize, col: usize) -> Option<usize> {
        let (s, e) = (self.col_ptr[col], self.col_ptr[col + 1]);
        self.row_idx[s..e].binary_search(&row).ok().map(|k| s + k)
    }

    /// Sets all stored values to zero, keeping the pattern.
    pub fn set_values_zero(&mut self) {
        self.values.fill(0.0);
    }

    /// Computes `y = A * x`: the allocating probe the unit tests check
    /// solutions with.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len() != ncols`.
    #[cfg(test)]
    pub(crate) fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch { expected: self.ncols, found: x.len() });
        }
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// Computes `y = A * x` into a caller-provided buffer.
    /// (Index-style loop: `x[j]` gates skipping the column entirely.)
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on any length mismatch.
    pub(crate) fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch { expected: self.ncols, found: x.len() });
        }
        if y.len() != self.nrows {
            return Err(SparseError::DimensionMismatch { expected: self.nrows, found: y.len() });
        }
        y.fill(0.0);
        #[allow(clippy::needless_range_loop)]
        for j in 0..self.ncols {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                y[self.row_idx[p]] += self.values[p] * xj;
            }
        }
        Ok(())
    }

    /// Computes the residual `r = b - A*x` into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on any length mismatch.
    pub fn residual_into(&self, x: &[f64], b: &[f64], r: &mut [f64]) -> Result<()> {
        if b.len() != self.nrows {
            return Err(SparseError::DimensionMismatch { expected: self.nrows, found: b.len() });
        }
        self.matvec_into(x, r)?;
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        Ok(())
    }

    /// The backward-error check of a computed solution `x` of `A x = b` in
    /// one walk of the stored entries: the residual `r = b - A*x` (written
    /// into `r`, as [`CscMatrix::residual_into`] would), its infinity norm,
    /// `‖A‖∞` (the largest absolute row sum, `rowsum` holding the row sums)
    /// and the infinity norms of `x` and `b`, each accumulated in
    /// the order the separate calls use, so every bit agrees with them.
    ///
    /// The norms fold with `f64::max`, which drops NaN; whether the residual
    /// is finite is therefore reported on its own.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on any length mismatch.
    pub fn backward_error_into(
        &self,
        x: &[f64],
        b: &[f64],
        r: &mut [f64],
        rowsum: &mut Vec<f64>,
    ) -> Result<BackwardError> {
        for (expected, found) in
            [(self.nrows, b.len()), (self.ncols, x.len()), (self.nrows, r.len())]
        {
            if found != expected {
                return Err(SparseError::DimensionMismatch { expected, found });
            }
        }
        r.fill(0.0);
        rowsum.clear();
        rowsum.resize(self.nrows, 0.0);
        let mut x_norm = 0.0_f64;
        for (j, &xj) in x.iter().enumerate() {
            x_norm = x_norm.max(xj.abs());
            let col = self.col_ptr[j]..self.col_ptr[j + 1];
            let entries = self.row_idx[col.clone()].iter().zip(&self.values[col]);
            // A zero `x[j]` skips the column's products, as `matvec_into`
            // does: `0 * inf` would otherwise put a NaN in the residual.
            if xj == 0.0 {
                for (&i, &v) in entries {
                    rowsum[i] += v.abs();
                }
            } else {
                for (&i, &v) in entries {
                    rowsum[i] += v.abs();
                    r[i] += v * xj;
                }
            }
        }
        let mut out = BackwardError {
            residual_norm: 0.0,
            matrix_norm: 0.0,
            x_norm,
            b_norm: 0.0,
            residual_finite: true,
        };
        for ((ri, &bi), &sum) in r.iter_mut().zip(b).zip(rowsum.iter()) {
            *ri = bi - *ri;
            out.residual_finite &= ri.is_finite();
            out.residual_norm = out.residual_norm.max(ri.abs());
            out.matrix_norm = out.matrix_norm.max(sum);
            out.b_norm = out.b_norm.max(bi.abs());
        }
        Ok(out)
    }

    /// Returns the transpose as a new CSC matrix.
    pub fn transpose(&self) -> CscMatrix {
        let mut count = vec![0usize; self.nrows + 1];
        for &r in &self.row_idx {
            count[r + 1] += 1;
        }
        for i in 0..self.nrows {
            count[i + 1] += count[i];
        }
        let mut col_ptr = count.clone();
        let mut row_idx = vec![0usize; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        let mut next = count;
        for j in 0..self.ncols {
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                let r = self.row_idx[p];
                let q = next[r];
                row_idx[q] = j;
                values[q] = self.values[p];
                next[r] += 1;
            }
        }
        col_ptr.truncate(self.nrows + 1);
        CscMatrix { nrows: self.ncols, ncols: self.nrows, col_ptr, row_idx, values }
    }

    /// Converts to the dense oracle of the unit tests.
    #[cfg(test)]
    pub(crate) fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for j in 0..self.ncols {
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                d.set(self.row_idx[p], j, self.values[p]);
            }
        }
        d
    }

    /// Returns the symmetrized pattern `pattern(A) | pattern(A^T)` as
    /// adjacency lists excluding the diagonal — the input to the
    /// minimum-degree ordering ([`crate::ordering::min_degree`]).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] if the matrix is not square.
    pub(crate) fn symmetric_adjacency(&self) -> Result<Vec<Vec<usize>>> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare { nrows: self.nrows, ncols: self.ncols });
        }
        let n = self.nrows;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for j in 0..n {
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                let i = self.row_idx[p];
                if i != j {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        Ok(adj)
    }

    /// Infinity norm of the matrix (maximum absolute row sum).
    pub(crate) fn norm_inf(&self) -> f64 {
        self.norm_inf_with_scratch(&mut Vec::new())
    }

    /// [`CscMatrix::norm_inf`] with a caller-provided row-sum buffer, for
    /// callers that take the norm once per factorization.
    pub(crate) fn norm_inf_with_scratch(&self, rowsum: &mut Vec<f64>) -> f64 {
        rowsum.clear();
        rowsum.resize(self.nrows, 0.0);
        for p in 0..self.nnz() {
            rowsum[self.row_idx[p]] += self.values[p].abs();
        }
        rowsum.iter().copied().fold(0.0, f64::max)
    }

    /// Iterates over all stored entries as `(row, col, value)` in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.ncols).flat_map(move |j| {
            (self.col_ptr[j]..self.col_ptr[j + 1])
                .map(move |p| (self.row_idx[p], j, self.values[p]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::vector::norm_inf;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sample() -> CscMatrix {
        // [ 2 0 1 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let mut t = CooMatrix::new(3, 3);
        for &(r, c, v) in &[(0, 0, 2.0), (2, 0, 4.0), (1, 1, 3.0), (0, 2, 1.0), (2, 2, 5.0)] {
            t.push(r, c, v).unwrap();
        }
        t.to_csc()
    }

    #[test]
    fn get_returns_stored_and_zero() {
        let a = sample();
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(2, 2), 5.0);
        assert_eq!(a.get(1, 0), 0.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let x = [1.0, -1.0, 2.0];
        let y = a.matvec(&x).unwrap();
        assert_eq!(y, vec![4.0, -3.0, 14.0]);
    }

    #[test]
    fn matvec_rejects_bad_length() {
        let a = sample();
        assert!(matches!(
            a.matvec(&[1.0]),
            Err(SparseError::DimensionMismatch { expected: 3, found: 1 })
        ));
    }

    #[test]
    fn transpose_round_trip() {
        let a = sample();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn transpose_moves_entries() {
        let a = sample();
        let at = a.transpose();
        assert_eq!(at.get(0, 2), 4.0);
        assert_eq!(at.get(2, 0), 1.0);
    }

    #[test]
    fn rows_sorted_within_columns() {
        let a = sample();
        for j in 0..a.ncols() {
            let (rows, _) = a.col(j);
            for w in rows.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn symmetric_adjacency_excludes_diagonal() {
        let a = sample();
        let adj = a.symmetric_adjacency().unwrap();
        assert_eq!(adj[0], vec![2]);
        assert!(adj[1].is_empty());
        assert_eq!(adj[2], vec![0]);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = sample();
        let x = [1.0, 2.0, 3.0];
        let b = a.matvec(&x).unwrap();
        let mut r = vec![0.0; 3];
        a.residual_into(&x, &b, &mut r).unwrap();
        assert!(r.iter().all(|&v| v.abs() < 1e-15));
    }

    #[test]
    fn norm_inf_is_max_abs_row_sum() {
        let a = sample();
        assert_eq!(a.norm_inf(), 9.0); // row 2: |4| + |5|
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i = CscMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x).unwrap(), x.to_vec());
    }

    #[test]
    fn iter_yields_all_entries() {
        let a = sample();
        let entries: Vec<_> = a.iter().collect();
        assert_eq!(entries.len(), a.nnz());
        assert!(entries.contains(&(2, 0, 4.0)));
    }

    #[test]
    fn to_dense_matches_get() {
        let a = sample();
        let d = a.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(d.get(i, j), a.get(i, j));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The one walk against the five calls it replaced, bit for bit:
        /// random patterns with empty rows and columns, explicit zeros of
        /// either sign in the matrix and in `x` (a zero `x[j]` skips its
        /// column), and the occasional NaN or infinity.
        #[test]
        fn backward_error_is_the_five_separate_calls(
            nrows in 1usize..=24,
            ncols in 1usize..=24,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let special = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            let odd_one_in = [4usize, 40, 400][rng.gen_range(0..3usize)];
            let draw = |rng: &mut StdRng, zeros: bool| {
                if rng.gen_range(0..odd_one_in) == 0 {
                    special[rng.gen_range(0..if zeros { 2 } else { special.len() })]
                } else {
                    rng.gen_range(-3.0..3.0)
                }
            };
            let mut t = CooMatrix::new(nrows, ncols);
            let empty_row = rng.gen_range(0..nrows);
            for r in (0..nrows).filter(|&r| r != empty_row) {
                for c in 0..ncols {
                    if rng.gen_range(0..3usize) == 0 {
                        t.push(r, c, draw(&mut rng, true)).unwrap();
                    }
                }
            }
            let a = t.to_csc();
            let x: Vec<f64> = (0..ncols).map(|_| draw(&mut rng, false)).collect();
            let b: Vec<f64> = (0..nrows).map(|_| draw(&mut rng, false)).collect();

            let mut r_want = vec![7.0; nrows];
            a.residual_into(&x, &b, &mut r_want).unwrap();
            let want = [
                norm_inf(&r_want),
                a.norm_inf_with_scratch(&mut vec![7.0; 3]),
                norm_inf(&x),
                norm_inf(&b),
            ];
            let (mut r_got, mut rowsum) = (vec![-7.0; nrows], vec![7.0; 5]);
            let got = a.backward_error_into(&x, &b, &mut r_got, &mut rowsum).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&r_got), bits(&r_want));
            prop_assert_eq!(
                bits(&[got.residual_norm, got.matrix_norm, got.x_norm, got.b_norm]),
                bits(&want)
            );
            prop_assert_eq!(got.residual_finite, r_want.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn backward_error_checks_lengths_like_residual_into() {
        let a = sample();
        let (mut r, mut rowsum) = (vec![0.0; 3], Vec::new());
        for (x, b, rl) in [(2, 3, 3), (3, 2, 3), (3, 3, 2)] {
            let (x, b) = (vec![1.0; x], vec![1.0; b]);
            assert_eq!(
                a.backward_error_into(&x, &b, &mut r[..rl], &mut rowsum).unwrap_err(),
                a.residual_into(&x, &b, &mut vec![0.0; rl]).unwrap_err()
            );
        }
    }
}
