//! Compressed sparse column — the column-oriented twin of CSR, used by the
//! direct solver (`lisi-direct`), whose left-looking factorization works
//! column by column exactly like SuperLU.

use crate::csr::CsrMatrix;
use crate::error::{SparseError, SparseResult};

/// A sparse matrix in CSC form: `col_ptr` has `cols + 1` monotone entries;
/// row indices are strictly increasing within each column.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Build from raw parts, validating all invariants.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> SparseResult<Self> {
        if col_ptr.len() != cols + 1 {
            return Err(SparseError::LengthMismatch {
                what: "CSC col_ptr",
                expected: cols + 1,
                got: col_ptr.len(),
            });
        }
        if col_ptr[0] != 0 {
            return Err(SparseError::MalformedPointers("col_ptr[0] must be 0"));
        }
        if *col_ptr.last().expect("len >= 1") != values.len() {
            return Err(SparseError::MalformedPointers("col_ptr[cols] must equal nnz"));
        }
        if row_idx.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                what: "CSC row_idx",
                expected: values.len(),
                got: row_idx.len(),
            });
        }
        for w in col_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::MalformedPointers("col_ptr must be non-decreasing"));
            }
        }
        for c in 0..cols {
            let seg = &row_idx[col_ptr[c]..col_ptr[c + 1]];
            for (k, &r) in seg.iter().enumerate() {
                if r >= rows {
                    return Err(SparseError::IndexOutOfBounds {
                        axis: "row",
                        index: r,
                        bound: rows,
                    });
                }
                if k > 0 && seg[k - 1] >= r {
                    return Err(SparseError::MalformedPointers(
                        "row indices must be strictly increasing within a column",
                    ));
                }
            }
        }
        Ok(CscMatrix { rows, cols, col_ptr, row_idx, values })
    }

    pub(crate) fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(col_ptr.len(), cols + 1);
        debug_assert_eq!(row_idx.len(), values.len());
        CscMatrix { rows, cols, col_ptr, row_idx, values }
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column pointer array.
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index array.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The `(row_idx, values)` slices of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Convert to CSR.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.rows + 1];
        for &r in &self.row_idx {
            counts[r + 1] += 1;
        }
        for i in 0..self.rows {
            counts[i + 1] += counts[i];
        }
        let mut next = counts.clone();
        let nnz = self.nnz();
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        for j in 0..self.cols {
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                let slot = next[r];
                col_idx[slot] = j;
                values[slot] = v;
                next[r] += 1;
            }
        }
        CsrMatrix::from_parts_unchecked(self.rows, self.cols, counts, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [ 1 0 ]
    /// [ 2 3 ]
    fn sample() -> CscMatrix {
        CscMatrix::from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 2.0, 3.0]).unwrap()
    }

    #[test]
    fn validation_rejects_malformed_inputs() {
        assert!(CscMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CscMatrix::from_parts(1, 1, vec![1, 1], vec![], vec![]).is_err());
        assert!(CscMatrix::from_parts(1, 1, vec![0, 2], vec![0], vec![1.0]).is_err());
        assert!(CscMatrix::from_parts(2, 1, vec![0, 2], vec![1, 0], vec![1.0, 1.0]).is_err());
        assert!(CscMatrix::from_parts(1, 1, vec![0, 1], vec![4], vec![1.0]).is_err());
    }

    #[test]
    fn csc_csr_round_trip() {
        let a = sample();
        let csr = a.to_csr();
        assert_eq!(csr.get(1, 0), 2.0);
        assert_eq!(csr.get(0, 1), 0.0);
        let back = csr.to_csc();
        assert_eq!(back, a);
    }

    #[test]
    fn column_access() {
        let a = sample();
        assert_eq!(a.col(0).0, &[0, 1]);
        assert_eq!(a.col(1).1, &[3.0]);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.shape(), (2, 2));
    }
}
