//! Compressed sparse row matrices for CTMC generators.

use crate::CtmcError;

/// A compressed-sparse-row matrix of `f64` entries.
///
/// Used to store the off-diagonal part of a CTMC generator; rows index the
/// *source* state, columns the *target*. The matrix supports accumulating
/// `y += x·A` (left-multiplication by a row vector) and transposition;
/// the solvers' uniformized step is planned from the transpose.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from per-row `(column, value)` lists.
    ///
    /// Duplicate columns within a row are summed.
    ///
    /// # Errors
    ///
    /// [`CtmcError::InvalidRate`] if any value is non-finite.
    pub fn from_rows(ncols: usize, rows: &[Vec<(usize, f64)>]) -> Result<Self, CtmcError> {
        let nrows = rows.len();
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in rows {
            let mut entries: Vec<(usize, f64)> = Vec::with_capacity(row.len());
            for &(c, v) in row {
                if !v.is_finite() {
                    return Err(CtmcError::InvalidRate { rate: v });
                }
                debug_assert!(c < ncols, "column {c} out of bounds {ncols}");
                match entries.iter_mut().find(|(ec, _)| *ec == c) {
                    Some((_, ev)) => *ev += v,
                    None => entries.push((c, v)),
                }
            }
            entries.sort_unstable_by_key(|&(c, _)| c);
            for (c, v) in entries {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored entries of row `i` as `(column, value)` pairs.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Sum of the entries of row `i` (for generators: the exit rate).
    pub fn row_sum(&self, i: usize) -> f64 {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.values[lo..hi].iter().sum()
    }

    /// Accumulates `y += x · A` where `x` is a row vector.
    ///
    /// # Panics
    ///
    /// Panics (debug) on dimension mismatch; callers validate lengths.
    pub fn acc_left_mul(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.nrows);
        debug_assert_eq!(y.len(), self.ncols);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            for k in lo..hi {
                y[self.col_idx[k]] += xi * self.values[k];
            }
        }
    }

    /// Builds the transpose as a new CSR matrix (a CSC view of `self`),
    /// via a counting sort over columns: O(nnz + nrows + ncols). Column
    /// indices of each transposed row come out sorted.
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for c in 0..self.ncols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut cursor = row_ptr[..self.ncols].to_vec();
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        for i in 0..self.nrows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let slot = cursor[self.col_idx[k]];
                cursor[self.col_idx[k]] += 1;
                col_idx[slot] = i;
                values[slot] = self.values[k];
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 0 1 2 ]
        // [ 3 0 0 ]
        CsrMatrix::from_rows(3, &[vec![(1, 1.0), (2, 2.0)], vec![(0, 3.0)]]).unwrap()
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn acc_left_mul_matches_dense() {
        let m = sample();
        let x = [2.0, 5.0];
        // y + x·A = [1 + 5·3, 2·1, 2·2]
        let mut y = vec![1.0, 0.0, 0.0];
        m.acc_left_mul(&x, &mut y);
        assert_eq!(y, vec![16.0, 2.0, 4.0]);
    }

    #[test]
    fn duplicate_columns_are_summed() {
        let m = CsrMatrix::from_rows(2, &[vec![(0, 1.0), (0, 2.5)]]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.row_sum(0), 3.5);
    }

    #[test]
    fn rejects_non_finite_values() {
        assert!(CsrMatrix::from_rows(1, &[vec![(0, f64::NAN)]]).is_err());
        assert!(CsrMatrix::from_rows(1, &[vec![(0, f64::INFINITY)]]).is_err());
    }

    #[test]
    fn row_iteration_is_sorted() {
        let m = CsrMatrix::from_rows(4, &[vec![(3, 1.0), (0, 2.0), (2, 3.0)]]).unwrap();
        let cols: Vec<usize> = m.row(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 2, 3]);
    }

    #[test]
    fn zero_x_entries_skip_work() {
        let m = sample();
        let x = [0.0, 1.0];
        let mut y = vec![0.0; 3];
        m.acc_left_mul(&x, &mut y);
        assert_eq!(y, vec![3.0, 0.0, 0.0]);
    }

    #[test]
    fn transpose_swaps_shape_and_entries() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.nnz(), 3);
        // Column 0 of A held a single entry 3.0 at row 1.
        let row0: Vec<(usize, f64)> = t.row(0).collect();
        assert_eq!(row0, vec![(1, 3.0)]);
        // Transposing twice round-trips.
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transposed_rows_are_sorted() {
        let m = CsrMatrix::from_rows(2, &[vec![(0, 1.0)], vec![(0, 2.0)], vec![(0, 3.0)]]).unwrap();
        let t = m.transpose();
        let cols: Vec<usize> = t.row(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 1, 2]);
    }
}
