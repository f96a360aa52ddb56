//! Coordinate (triplet) format — the natural assembly format, and the
//! layout behind LISI's `setupMatrix[few_args]` overload (three parallel
//! arrays `Values`, `Rows`, `Columns` of length `NNZ`).

use crate::csr::CsrMatrix;
use crate::error::{SparseError, SparseResult};

/// A sparse matrix in coordinate format. Duplicate entries are allowed and
/// are summed on conversion to CSR — the convention finite-element
/// assembly relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    row_idx: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CooMatrix {
    /// Empty matrix of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix { rows, cols, row_idx: vec![], col_idx: vec![], values: vec![] }
    }

    /// Build from parallel triplet arrays, validating every index.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        row_idx: &[usize],
        col_idx: &[usize],
        values: &[f64],
    ) -> SparseResult<Self> {
        if row_idx.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                what: "COO row indices",
                expected: values.len(),
                got: row_idx.len(),
            });
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                what: "COO column indices",
                expected: values.len(),
                got: col_idx.len(),
            });
        }
        for &r in row_idx {
            if r >= rows {
                return Err(SparseError::IndexOutOfBounds { axis: "row", index: r, bound: rows });
            }
        }
        for &c in col_idx {
            if c >= cols {
                return Err(SparseError::IndexOutOfBounds {
                    axis: "column",
                    index: c,
                    bound: cols,
                });
            }
        }
        Ok(CooMatrix {
            rows,
            cols,
            row_idx: row_idx.to_vec(),
            col_idx: col_idx.to_vec(),
            values: values.to_vec(),
        })
    }

    /// Make room for `additional` more entries, so that a caller who knows
    /// its entry count pushes without the three arrays regrowing.
    pub fn reserve(&mut self, additional: usize) {
        self.row_idx.reserve(additional);
        self.col_idx.reserve(additional);
        self.values.reserve(additional);
    }

    /// Append one entry (duplicates accumulate on conversion).
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> SparseResult<()> {
        if row >= self.rows {
            return Err(SparseError::IndexOutOfBounds {
                axis: "row",
                index: row,
                bound: self.rows,
            });
        }
        if col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                axis: "column",
                index: col,
                bound: self.cols,
            });
        }
        self.push_unchecked(row, col, value);
        Ok(())
    }

    /// [`Self::push`] for an entry the caller has already bounds-checked
    /// (the decoders in [`crate::convert`] validate before they walk).
    pub(crate) fn push_unchecked(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.row_idx.push(row);
        self.col_idx.push(col);
        self.values.push(value);
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored entries, duplicates included.
    pub fn nnz_stored(&self) -> usize {
        self.values.len()
    }

    /// Borrow the triplet arrays `(rows, cols, values)`.
    pub fn triplets(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.row_idx, &self.col_idx, &self.values)
    }

    /// Iterate over `(row, col, value)` entries in stored order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.row_idx.iter().zip(&self.col_idx).zip(&self.values).map(|((&r, &c), &v)| (r, c, v))
    }

    /// Convert to CSR: counting sort by row, columns sorted within each
    /// row, duplicate entries summed. O(nnz + rows).
    pub fn to_csr(&self) -> CsrMatrix {
        let n = self.rows;
        let mut counts = vec![0usize; n + 1];
        for &r in &self.row_idx {
            counts[r + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let row_ptr_raw = counts.clone();
        let nnz = self.values.len();
        let mut cols = vec![0usize; nnz];
        let mut vals = vec![0.0f64; nnz];
        {
            let mut next = row_ptr_raw.clone();
            for (r, c, v) in self.iter() {
                let slot = next[r];
                cols[slot] = c;
                vals[slot] = v;
                next[r] += 1;
            }
        }
        // Sort within each row and merge duplicates in place.
        let mut out_ptr = vec![0usize; n + 1];
        let mut out_cols = Vec::with_capacity(nnz);
        let mut out_vals = Vec::with_capacity(nnz);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..n {
            scratch.clear();
            scratch.extend(
                cols[row_ptr_raw[r]..row_ptr_raw[r + 1]]
                    .iter()
                    .copied()
                    .zip(vals[row_ptr_raw[r]..row_ptr_raw[r + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let (c, mut v) = scratch[i];
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                out_cols.push(c);
                out_vals.push(v);
                i = j;
            }
            out_ptr[r + 1] = out_cols.len();
        }
        CsrMatrix::from_parts_unchecked(self.rows, self.cols, out_ptr, out_cols, out_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_indices_and_lengths() {
        assert!(CooMatrix::from_triplets(2, 2, &[0], &[0, 1], &[1.0]).is_err());
        assert!(CooMatrix::from_triplets(2, 2, &[5], &[0], &[1.0]).is_err());
        assert!(CooMatrix::from_triplets(2, 2, &[0], &[5], &[1.0]).is_err());
        assert!(CooMatrix::from_triplets(2, 2, &[1], &[1], &[1.0]).is_ok());
    }

    #[test]
    fn push_validates_and_appends() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 0, 1.0).unwrap();
        assert!(m.push(2, 0, 1.0).is_err());
        assert!(m.push(0, 2, 1.0).is_err());
        assert_eq!(m.nnz_stored(), 1);
    }

    #[test]
    fn to_csr_sorts_and_sums_duplicates() {
        // Entry (0,1) appears twice: 4 + 6 = 10; unsorted column order.
        let m = CooMatrix::from_triplets(2, 3, &[0, 0, 0, 1], &[2, 1, 1, 0], &[5.0, 4.0, 6.0, 7.0])
            .unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.row_ptr(), &[0, 2, 3]);
        assert_eq!(csr.col_idx(), &[1, 2, 0]);
        assert_eq!(csr.values(), &[10.0, 5.0, 7.0]);
    }

    #[test]
    fn empty_rows_are_preserved_in_csr() {
        let m = CooMatrix::from_triplets(4, 4, &[3], &[0], &[9.0]).unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.row_ptr(), &[0, 0, 0, 0, 1]);
    }
}
