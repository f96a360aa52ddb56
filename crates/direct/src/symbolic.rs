//! The analyze phase: the fill-reducing column ordering and a fingerprint
//! of the pattern it was computed for — the reusable symbolic context of
//! SuperLU's `*gstrf` pipeline (LISI usage scenario §5.2b: "precompute
//! reused objects such as … symbolic factorization").

use rsparse::digest::Digest;
use rsparse::CsrMatrix;

use crate::ordering::Ordering;
use crate::{RsluError, RsluResult};

/// Reusable symbolic analysis of a sparse matrix pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Symbolic {
    /// Column permutation, `col_perm[new] = old`.
    pub col_perm: Vec<usize>,
    /// Nonzero count of the analyzed matrix.
    pub nnz: usize,
    /// Matrix order.
    pub n: usize,
    /// [`pattern_hash`] of the analyzed matrix.
    pattern_hash: u64,
}

impl Symbolic {
    /// Analyze a square matrix with the given ordering.
    pub fn analyze(a: &CsrMatrix, ordering: Ordering) -> RsluResult<Self> {
        let (rows, cols) = a.shape();
        if rows != cols {
            return Err(RsluError::Sparse(format!("matrix must be square, got {rows}x{cols}")));
        }
        let col_perm = ordering.compute(a);
        Ok(Symbolic { col_perm, nnz: a.nnz(), n: rows, pattern_hash: pattern_hash(a) })
    }

    /// Can this symbolic context be reused for `b`? Same shape, same
    /// nonzero count and the same sparsity pattern (by hash); the values
    /// are free to differ.
    pub fn compatible_with(&self, b: &CsrMatrix) -> bool {
        b.shape() == (self.n, self.n) && b.nnz() == self.nnz && pattern_hash(b) == self.pattern_hash
    }
}

/// The [`Digest`] of `row_ptr` then `col_idx`.
fn pattern_hash(a: &CsrMatrix) -> u64 {
    Digest::new().indices(a.row_ptr()).indices(a.col_idx()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsparse::generate;

    #[test]
    fn analyze_rejects_rectangular() {
        let a = rsparse::CooMatrix::new(2, 3).to_csr();
        assert!(Symbolic::analyze(&a, Ordering::Natural).is_err());
    }

    #[test]
    fn compatibility_check_compares_the_pattern_not_the_values() {
        let a = generate::laplacian_1d(6);
        let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
        assert!(sym.compatible_with(&a));
        let mut b = a.clone();
        for v in b.values_mut() {
            *v *= 2.0;
        }
        assert!(sym.compatible_with(&b), "same pattern, new values must be compatible");
        let c = generate::laplacian_1d(7);
        assert!(!sym.compatible_with(&c));
        // Same shape and nonzero count, one entry moved: (0, 1) → (0, 2).
        let (rows, cols, row_ptr, mut col_idx, values) = a.clone().into_parts();
        assert_eq!(col_idx[..2], [0, 1]);
        col_idx[1] = 2;
        let moved = CsrMatrix::from_parts(rows, cols, row_ptr, col_idx, values).unwrap();
        assert_eq!(moved.nnz(), a.nnz());
        assert!(!sym.compatible_with(&moved), "a stale ordering must not be reused");
    }

    #[test]
    fn col_perm_is_a_permutation() {
        let a = generate::random_csr(20, 20, 0.15, 5);
        for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            let sym = Symbolic::analyze(&a, ord).unwrap();
            assert!(crate::ordering::is_permutation(&sym.col_perm, 20), "{ord:?}");
        }
    }
}
