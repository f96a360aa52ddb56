//! Compressed sparse row — the workhorse format every solver package in
//! this workspace uses internally, and the `CSR` member of LISI's
//! `SparseStruct` enum.

use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::dense::DenseMatrix;
use crate::error::{SparseError, SparseResult};

/// One row's dot product against the input vector — the inner loop of the
/// CSR SpMV (the distributed split kernels accumulate
/// in the same entry order from their compact storage).
#[inline(always)]
fn row_dot(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&c, &v) in cols.iter().zip(vals) {
        acc += v * x[c];
    }
    acc
}

/// Column-group width of the multi-vector kernels: each sweep over a
/// row's entries feeds up to this many right-hand sides from stack
/// accumulators, so the matrix is read once per group instead of once
/// per vector.
pub(crate) const MULTI_CHUNK: usize = 8;

/// A sparse matrix in CSR form with the usual invariants: `row_ptr` has
/// `rows + 1` monotone entries, `col_idx`/`values` have `nnz` entries, and
/// column indices are strictly increasing within each row.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from raw parts, validating all invariants (sorted, in-bounds,
    /// duplicate-free column indices per row; monotone pointers).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> SparseResult<Self> {
        Self::check_parts(rows, cols, values.len(), &row_ptr, &col_idx)?;
        Ok(CsrMatrix { rows, cols, row_ptr, col_idx, values })
    }

    /// [`Self::from_parts`]' validation on borrowed arrays holding `nnz`
    /// values: one pass, no allocation.
    pub(crate) fn check_parts(
        rows: usize,
        cols: usize,
        nnz: usize,
        row_ptr: &[usize],
        col_idx: &[usize],
    ) -> SparseResult<()> {
        if row_ptr.len() != rows + 1 {
            return Err(SparseError::LengthMismatch {
                what: "CSR row_ptr",
                expected: rows + 1,
                got: row_ptr.len(),
            });
        }
        if row_ptr[0] != 0 {
            return Err(SparseError::MalformedPointers("row_ptr[0] must be 0"));
        }
        if row_ptr[rows] != nnz {
            return Err(SparseError::MalformedPointers("row_ptr[rows] must equal nnz"));
        }
        if col_idx.len() != nnz {
            return Err(SparseError::LengthMismatch {
                what: "CSR col_idx",
                expected: nnz,
                got: col_idx.len(),
            });
        }
        for w in row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::MalformedPointers("row_ptr must be non-decreasing"));
            }
        }
        for r in 0..rows {
            let seg = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for (k, &c) in seg.iter().enumerate() {
                if c >= cols {
                    return Err(SparseError::IndexOutOfBounds {
                        axis: "column",
                        index: c,
                        bound: cols,
                    });
                }
                if k > 0 && seg[k - 1] >= c {
                    return Err(SparseError::MalformedPointers(
                        "column indices must be strictly increasing within a row",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Build from parts that are known valid (internal fast path for
    /// conversions that construct invariant-satisfying arrays). Debug
    /// builds run [`Self::check_parts`] anyway: code that reads a row by
    /// its two ends (the plan build's interior test) rests on every row's
    /// columns ascending.
    pub(crate) fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(Self::check_parts(rows, cols, values.len(), &row_ptr, &col_idx), Ok(()));
        CsrMatrix { rows, cols, row_ptr, col_idx, values }
    }

    /// Parts taken as given, checked by no build profile: rows whose
    /// columns are unsorted or repeated, for tests of kernels that must
    /// sum a row in stored order whatever that order is.
    #[cfg(test)]
    pub(crate) fn from_parts_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        CsrMatrix { rows, cols, row_ptr, col_idx, values }
    }

    /// n×n identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
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

    /// Row pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array (`nnz` entries, sorted within each row).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array (`nnz` entries).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable value array (pattern is immutable — the "same sparsity
    /// pattern, new values" reuse scenario of paper §5.2d).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Consume into raw parts `(rows, cols, row_ptr, col_idx, values)`.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<f64>) {
        (self.rows, self.cols, self.row_ptr, self.col_idx, self.values)
    }

    /// The `(col_idx, values)` slices of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Value at `(i, j)` — binary search within the row; zero if absent.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Iterate `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// y = A·x (serial).
    pub fn matvec(&self, x: &[f64]) -> SparseResult<Vec<f64>> {
        if x.len() != self.cols {
            return Err(SparseError::LengthMismatch {
                what: "matvec input",
                expected: self.cols,
                got: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        Ok(y)
    }

    /// y = A·x into a caller-provided buffer (no allocation; hot path).
    #[inline]
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            *yi = row_dot(cols, vals, x);
        }
    }

    /// yᵀ = xᵀ·A, i.e. y = Aᵀ·x, without forming the transpose.
    pub fn matvec_transpose(&self, x: &[f64]) -> SparseResult<Vec<f64>> {
        if x.len() != self.rows {
            return Err(SparseError::LengthMismatch {
                what: "transpose matvec input",
                expected: self.rows,
                got: x.len(),
            });
        }
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            let (cols, vals) = self.row(i);
            if xi != 0.0 {
                for (&c, &v) in cols.iter().zip(vals) {
                    y[c] += v * xi;
                }
            }
        }
        Ok(y)
    }

    /// The main diagonal as a dense vector (zeros where absent). Errors if
    /// not square.
    pub fn diagonal(&self) -> SparseResult<Vec<f64>> {
        if self.rows != self.cols {
            return Err(SparseError::NotSquare { rows: self.rows, cols: self.cols });
        }
        Ok((0..self.rows).map(|i| self.get(i, i)).collect())
    }

    /// Explicit transpose in CSR form (equivalently, this matrix viewed as
    /// CSC). O(nnz + rows + cols).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let mut next = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for (r, c, v) in self.iter() {
            let slot = next[c];
            col_idx[slot] = r;
            values[slot] = v;
            next[c] += 1;
        }
        // Row-major iteration fills each transposed row in increasing
        // original-row order, so indices are already sorted.
        CsrMatrix::from_parts_unchecked(self.cols, self.rows, counts, col_idx, values)
    }

    /// View as CSC (shares semantics with `transpose`, different type).
    pub fn to_csc(&self) -> CscMatrix {
        let t = self.transpose();
        let (rows, cols, ptr, idx, vals) = t.into_parts();
        // t is cols×rows in CSR == self in CSC.
        CscMatrix::from_parts_unchecked(cols, rows, ptr, idx, vals)
    }

    /// Convert to COO triplets.
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::new(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            coo.push(r, c, v).expect("indices valid by invariant");
        }
        coo
    }

    /// Densify (tests and small reference problems only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v;
        }
        d
    }

    /// Extract the contiguous row block `[r0, r1)` as a standalone CSR
    /// matrix with the full column space — the block-row distribution
    /// primitive (paper §5.4).
    pub fn row_block(&self, r0: usize, r1: usize) -> SparseResult<CsrMatrix> {
        if r1 < r0 || r1 > self.rows {
            return Err(SparseError::IndexOutOfBounds {
                axis: "row",
                index: r1,
                bound: self.rows + 1,
            });
        }
        let lo = self.row_ptr[r0];
        let hi = self.row_ptr[r1];
        let row_ptr: Vec<usize> = self.row_ptr[r0..=r1].iter().map(|p| p - lo).collect();
        Ok(CsrMatrix::from_parts_unchecked(
            r1 - r0,
            self.cols,
            row_ptr,
            self.col_idx[lo..hi].to_vec(),
            self.values[lo..hi].to_vec(),
        ))
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        crate::dense::norm2(&self.values)
    }

    /// Infinity norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).1.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Symmetric permutation B = A(p, p): entry (i, j) moves to
    /// `(inv_p[i], inv_p[j])` where `perm[k]` is the old index placed at new
    /// position k. Used by fill-reducing orderings.
    pub fn permute_symmetric(&self, perm: &[usize]) -> SparseResult<CsrMatrix> {
        if self.rows != self.cols {
            return Err(SparseError::NotSquare { rows: self.rows, cols: self.cols });
        }
        if perm.len() != self.rows {
            return Err(SparseError::LengthMismatch {
                what: "permutation",
                expected: self.rows,
                got: perm.len(),
            });
        }
        let n = self.rows;
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            if old >= n || inv[old] != usize::MAX {
                return Err(SparseError::BadBlockPartition(format!(
                    "invalid permutation entry {old} at position {new}"
                )));
            }
            inv[old] = new;
        }
        let mut coo = CooMatrix::new(n, n);
        for (r, c, v) in self.iter() {
            coo.push(inv[r], inv[c], v).expect("bounds hold");
        }
        Ok(coo.to_csr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [ 4 1 0 ]
    /// [ 1 4 1 ]
    /// [ 0 1 4 ]
    fn tridiag() -> CsrMatrix {
        CsrMatrix::from_parts(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![4.0, 1.0, 1.0, 4.0, 1.0, 1.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_malformed_inputs() {
        // Wrong ptr length.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // ptr not starting at 0.
        assert!(CsrMatrix::from_parts(1, 1, vec![1, 1], vec![], vec![]).is_err());
        // Last ptr != nnz.
        assert!(CsrMatrix::from_parts(1, 1, vec![0, 2], vec![0], vec![1.0]).is_err());
        // Decreasing ptr.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        // Out-of-bounds column.
        assert!(CsrMatrix::from_parts(1, 1, vec![0, 1], vec![3], vec![1.0]).is_err());
        // Unsorted columns within a row.
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
        // Duplicate column within a row.
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn accessors_and_get() {
        let a = tridiag();
        assert_eq!(a.shape(), (3, 3));
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.row(1).0, &[0, 1, 2]);
        assert_eq!(a.diagonal().unwrap(), vec![4.0, 4.0, 4.0]);
    }

    #[test]
    fn matvec_variants_agree() {
        let a = tridiag();
        let x = vec![1.0, 2.0, 3.0];
        let y = a.matvec(&x).unwrap();
        assert_eq!(y, vec![6.0, 12.0, 14.0]);
        let mut y2 = vec![0.0; 3];
        a.matvec_into(&x, &mut y2);
        assert_eq!(y2, y);
    }

    #[test]
    fn matvec_transpose_matches_explicit_transpose() {
        let a =
            CsrMatrix::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap();
        let x = vec![1.0, -1.0];
        let via_implicit = a.matvec_transpose(&x).unwrap();
        let via_explicit = a.transpose().matvec(&x).unwrap();
        assert_eq!(via_implicit, via_explicit);
        assert_eq!(via_implicit, vec![1.0, -3.0, 2.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = tridiag();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn row_block_extracts_partition() {
        let a = tridiag();
        let b = a.row_block(1, 3).unwrap();
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b.row(0).0, &[0, 1, 2]);
        assert_eq!(b.row(1).0, &[1, 2]);
        assert!(a.row_block(2, 5).is_err());
    }

    #[test]
    fn identity_behaves() {
        let i = CsrMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x).unwrap(), x);
        assert_eq!(i.nnz(), 4);
    }

    #[test]
    fn permute_symmetric_reverses() {
        let a = tridiag();
        let perm = vec![2, 1, 0];
        let b = a.permute_symmetric(&perm).unwrap();
        // Reversal of a symmetric tridiagonal matrix is itself.
        assert_eq!(b, a);
        // Invalid permutations are rejected.
        assert!(a.permute_symmetric(&[0, 0, 1]).is_err());
        assert!(a.permute_symmetric(&[0, 1]).is_err());
    }

    #[test]
    fn norms() {
        let a = tridiag();
        assert!((a.norm_inf() - 6.0).abs() < 1e-15);
        // Frobenius: three 4s and four 1s → √(3·16 + 4·1) = √52.
        assert!((a.norm_fro() - 52.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn values_mut_allows_pattern_reuse() {
        let mut a = tridiag();
        for v in a.values_mut() {
            *v *= 2.0;
        }
        assert_eq!(a.get(1, 1), 8.0);
        assert_eq!(a.nnz(), 7);
    }
}
