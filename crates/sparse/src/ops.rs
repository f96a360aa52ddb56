//! Sparse matrix algebra beyond matvec: addition, scaling, sparse×sparse
//! products and the Galerkin triple product multigrid needs.

use crate::csr::CsrMatrix;
use crate::error::{SparseError, SparseResult};

/// C = alpha·A + beta·B (same shape, union pattern, exact zeros dropped).
pub fn add(alpha: f64, a: &CsrMatrix, beta: f64, b: &CsrMatrix) -> SparseResult<CsrMatrix> {
    if a.shape() != b.shape() {
        return Err(SparseError::ShapeMismatch { left: a.shape(), right: b.shape() });
    }
    let (rows, cols) = a.shape();
    let mut row_ptr = vec![0usize; rows + 1];
    let mut col_idx = Vec::with_capacity(a.nnz() + b.nnz());
    let mut values = Vec::with_capacity(a.nnz() + b.nnz());
    for i in 0..rows {
        let (ac, av) = a.row(i);
        let (bc, bv) = b.row(i);
        // Two-pointer merge over sorted column indices.
        let (mut p, mut q) = (0usize, 0usize);
        while p < ac.len() || q < bc.len() {
            let (c, v) = if q >= bc.len() || (p < ac.len() && ac[p] < bc[q]) {
                let out = (ac[p], alpha * av[p]);
                p += 1;
                out
            } else if p >= ac.len() || bc[q] < ac[p] {
                let out = (bc[q], beta * bv[q]);
                q += 1;
                out
            } else {
                let out = (ac[p], alpha * av[p] + beta * bv[q]);
                p += 1;
                q += 1;
                out
            };
            if v != 0.0 {
                col_idx.push(c);
                values.push(v);
            }
        }
        row_ptr[i + 1] = col_idx.len();
    }
    Ok(CsrMatrix::from_parts_unchecked(rows, cols, row_ptr, col_idx, values))
}

/// B = alpha·A.
pub fn scale(alpha: f64, a: &CsrMatrix) -> CsrMatrix {
    let (rows, cols, row_ptr, col_idx, mut values) = a.clone().into_parts();
    for v in &mut values {
        *v *= alpha;
    }
    CsrMatrix::from_parts_unchecked(rows, cols, row_ptr, col_idx, values)
}

/// C = A·B via the classic Gustavson row-wise SpGEMM with a dense
/// accumulator ("scatter/gather") per row.
pub fn matmul(a: &CsrMatrix, b: &CsrMatrix) -> SparseResult<CsrMatrix> {
    if a.cols() != b.rows() {
        return Err(SparseError::ShapeMismatch { left: a.shape(), right: b.shape() });
    }
    let rows = a.rows();
    let cols = b.cols();
    let mut row_ptr = vec![0usize; rows + 1];
    let mut col_idx: Vec<usize> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    // Dense accumulator plus marker array; the touched list makes clearing
    // O(row nnz) instead of O(cols).
    let mut acc = vec![0.0f64; cols];
    let mut mark = vec![false; cols];
    let mut touched: Vec<usize> = Vec::new();
    for i in 0..rows {
        touched.clear();
        let (ac, av) = a.row(i);
        for (&k, &aik) in ac.iter().zip(av) {
            let (bc, bv) = b.row(k);
            for (&j, &bkj) in bc.iter().zip(bv) {
                if !mark[j] {
                    mark[j] = true;
                    touched.push(j);
                }
                acc[j] += aik * bkj;
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            let v = acc[j];
            acc[j] = 0.0;
            mark[j] = false;
            if v != 0.0 {
                col_idx.push(j);
                values.push(v);
            }
        }
        row_ptr[i + 1] = col_idx.len();
    }
    Ok(CsrMatrix::from_parts_unchecked(rows, cols, row_ptr, col_idx, values))
}

/// Galerkin triple product R·A·P (multigrid coarse-grid operator).
pub fn triple_product(r: &CsrMatrix, a: &CsrMatrix, p: &CsrMatrix) -> SparseResult<CsrMatrix> {
    let ap = matmul(a, p)?;
    matmul(r, &ap)
}

/// Left diagonal scaling: B = D·A where `d` is the diagonal of D.
pub fn diag_scale_rows(d: &[f64], a: &CsrMatrix) -> SparseResult<CsrMatrix> {
    if d.len() != a.rows() {
        return Err(SparseError::LengthMismatch {
            what: "row scaling diagonal",
            expected: a.rows(),
            got: d.len(),
        });
    }
    let (rows, cols, row_ptr, col_idx, mut values) = a.clone().into_parts();
    for (i, &di) in d.iter().enumerate() {
        for v in &mut values[row_ptr[i]..row_ptr[i + 1]] {
            *v *= di;
        }
    }
    Ok(CsrMatrix::from_parts_unchecked(rows, cols, row_ptr, col_idx, values))
}

/// Residual r = b − A·x computed in one fused pass.
pub fn residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> SparseResult<Vec<f64>> {
    if b.len() != a.rows() {
        return Err(SparseError::LengthMismatch { what: "rhs", expected: a.rows(), got: b.len() });
    }
    if x.len() != a.cols() {
        return Err(SparseError::LengthMismatch {
            what: "solution",
            expected: a.cols(),
            got: x.len(),
        });
    }
    let mut r = b.to_vec();
    for (i, ri) in r.iter_mut().enumerate() {
        let (cols, vals) = a.row(i);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c];
        }
        *ri -= acc;
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn m(rows: usize, cols: usize, trip: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows, cols);
        for &(r, c, v) in trip {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn add_merges_patterns_and_drops_exact_zeros() {
        let a = m(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let b = m(2, 2, &[(0, 1, 3.0), (1, 1, -2.0)]);
        let c = add(1.0, &a, 1.0, &b).unwrap();
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 1), 3.0);
        assert_eq!(c.nnz(), 2, "the (1,1) cancellation must be dropped");
    }

    #[test]
    fn add_with_coefficients_matches_dense() {
        let a = m(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let b = m(2, 3, &[(0, 0, 5.0), (1, 0, 7.0)]);
        let c = add(2.0, &a, -1.0, &b).unwrap();
        let ad = a.to_dense();
        let bd = b.to_dense();
        let cd = c.to_dense();
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(cd[(i, j)], 2.0 * ad[(i, j)] - bd[(i, j)]);
            }
        }
        assert!(add(1.0, &a, 1.0, &m(3, 2, &[])).is_err());
    }

    #[test]
    fn scale_multiplies_values() {
        let a = m(2, 2, &[(0, 0, 1.0), (1, 0, -2.0)]);
        let b = scale(-3.0, &a);
        assert_eq!(b.get(0, 0), -3.0);
        assert_eq!(b.get(1, 0), 6.0);
    }

    #[test]
    fn matmul_matches_dense_reference() {
        let a = m(2, 3, &[(0, 0, 1.0), (0, 1, 2.0), (1, 2, 3.0)]);
        let b = m(3, 2, &[(0, 1, 4.0), (1, 0, 5.0), (2, 1, 6.0)]);
        let c = matmul(&a, &b).unwrap();
        // Dense check.
        let ad = a.to_dense();
        let bd = b.to_dense();
        for i in 0..2 {
            for j in 0..2 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += ad[(i, k)] * bd[(k, j)];
                }
                assert_eq!(c.get(i, j), s);
            }
        }
        assert!(matmul(&a, &a).is_err());
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = m(3, 3, &[(0, 1, 2.0), (1, 2, -1.0), (2, 0, 4.0)]);
        let i = CsrMatrix::identity(3);
        assert_eq!(matmul(&a, &i).unwrap(), a);
        assert_eq!(matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn triple_product_composes() {
        let r = m(1, 2, &[(0, 0, 1.0), (0, 1, 1.0)]);
        let a = m(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]);
        let p = r.transpose();
        let c = triple_product(&r, &a, &p).unwrap();
        assert_eq!(c.shape(), (1, 1));
        assert_eq!(c.get(0, 0), 5.0);
    }

    #[test]
    fn diag_scaling_and_residual() {
        let a = m(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 4.0)]);
        let scaled = diag_scale_rows(&[0.5, 0.25], &a).unwrap();
        assert_eq!(scaled.get(0, 0), 1.0);
        assert_eq!(scaled.get(1, 1), 1.0);
        assert!(diag_scale_rows(&[1.0], &a).is_err());

        let x = vec![1.0, 2.0];
        let b = vec![5.0, 9.0];
        let r = residual(&a, &x, &b).unwrap();
        assert_eq!(r, vec![1.0, 1.0]);
        assert!(residual(&a, &x, &[1.0]).is_err());
        assert!(residual(&a, &[1.0], &b).is_err());
    }
}
