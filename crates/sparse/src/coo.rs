//! Coordinate-format (triplet) matrix builder.
//!
//! [`CooMatrix`] is the entry point for assembling a sparse matrix: push
//! `(row, col, value)` triplets in any order (duplicates are summed, the MNA
//! "stamping" convention) and convert to [`CscMatrix`] for numerical work.

use crate::csc::CscMatrix;
use crate::error::{Result, SparseError};

/// A sparse matrix under construction, stored as unsorted triplets.
///
/// Duplicate `(row, col)` entries are *summed* during conversion, which is
/// exactly the stamping semantics used by modified nodal analysis.
///
/// ```
/// use wavepipe_sparse::CooMatrix;
///
/// # fn main() -> Result<(), wavepipe_sparse::SparseError> {
/// let mut a = CooMatrix::new(2, 2);
/// a.push(0, 0, 1.0)?;
/// a.push(0, 0, 2.0)?; // summed with the previous entry
/// a.push(1, 1, 4.0)?;
/// let csc = a.to_csc();
/// assert_eq!(csc.get(0, 0), 3.0);
/// assert_eq!(csc.get(1, 1), 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `nrows x ncols` triplet matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix { nrows, ncols, rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// Creates an empty matrix with capacity for `nnz` triplets.
    pub fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// Appends the triplet `(row, col, value)`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if `row` or `col` exceeds the
    /// matrix dimensions.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(value);
        Ok(())
    }

    /// Appends a triplet without bounds checking in release builds.
    ///
    /// # Panics
    ///
    /// Debug builds assert the indices are in range.
    pub fn push_unchecked(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.nrows && col < self.ncols);
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(value);
    }

    /// Iterates over the stored triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows.iter().zip(&self.cols).zip(&self.vals).map(|((&r, &c), &v)| (r, c, v))
    }

    /// Removes all triplets, keeping the allocation.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Converts to compressed sparse column format, summing duplicates.
    ///
    /// Entries that sum to exactly zero are *kept* in the pattern: MNA
    /// matrices are restamped every Newton iteration, so the symbolic pattern
    /// must be the union of all possible nonzeros.
    pub fn to_csc(&self) -> CscMatrix {
        CscMatrix::from_triplets(self.nrows, self.ncols, &self.rows, &self.cols, &self.vals)
    }
}

impl Extend<(usize, usize, f64)> for CooMatrix {
    fn extend<I: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v).expect("extend: triplet out of bounds");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut a = CooMatrix::new(2, 3);
        assert!(a.push(2, 0, 1.0).is_err());
        assert!(a.push(0, 3, 1.0).is_err());
        assert!(a.push(1, 2, 1.0).is_ok());
    }

    #[test]
    fn duplicates_are_summed_in_csc() {
        let mut a = CooMatrix::new(3, 3);
        a.push(1, 1, 2.0).unwrap();
        a.push(1, 1, -0.5).unwrap();
        a.push(0, 2, 1.0).unwrap();
        let m = a.to_csc();
        assert_eq!(m.get(1, 1), 1.5);
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(2, 2), 0.0);
    }

    #[test]
    fn zero_sum_entries_stay_in_pattern() {
        let mut a = CooMatrix::new(2, 2);
        a.push(0, 1, 5.0).unwrap();
        a.push(0, 1, -5.0).unwrap();
        let m = a.to_csc();
        assert_eq!(m.nnz(), 1, "cancelled entry must remain symbolically");
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn clear_keeps_dimensions() {
        let mut a = CooMatrix::new(4, 4);
        a.push(0, 0, 1.0).unwrap();
        a.clear();
        assert_eq!(a.iter().count(), 0);
        assert_eq!((a.nrows, a.ncols), (4, 4));
    }

    #[test]
    fn extend_collects_triplets() {
        let mut a = CooMatrix::new(2, 2);
        a.extend(vec![(0, 0, 1.0), (1, 1, 2.0)]);
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn iter_returns_insertion_order() {
        let mut a = CooMatrix::new(2, 2);
        a.push(1, 0, 3.0).unwrap();
        a.push(0, 1, 4.0).unwrap();
        let v: Vec<_> = a.iter().collect();
        assert_eq!(v, vec![(1, 0, 3.0), (0, 1, 4.0)]);
    }
}
