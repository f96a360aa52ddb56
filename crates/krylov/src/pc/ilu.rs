//! Incomplete factorizations on the rank-local diagonal block: ILU(0) for
//! general matrices and IC(0) for SPD ones. In parallel these act as
//! block-Jacobi preconditioners with an incomplete factorization per block
//! — PETSc's default parallel preconditioner.

use rcomm::Communicator;
use rsparse::schedule::register_sweep_model;
use rsparse::{CsrMatrix, DistVector, LevelTri, SparseError, Triangle};

use crate::pc::{diagonal_positions, split_at_diagonal, Preconditioner};
use crate::result::{KspError, KspOutcome};

/// ILU(0): incomplete LU with zero fill — L and U inherit the sparsity
/// pattern of A. Kept as two level-ordered triangles: strict lower = L
/// with unit diagonal implied, strict upper + diagonal = U.
#[derive(Debug, Clone)]
pub struct Ilu0 {
    /// L, swept forward.
    fwd: LevelTri,
    /// U, swept backward.
    bwd: LevelTri,
}

/// ILU(0) values on `block`'s own pattern, in its entry order: IKJ
/// Gaussian elimination restricted to the pattern, with a dense position
/// map per active row for O(nnz_row) pattern lookups.
pub(super) fn ilu0_values(block: &CsrMatrix, diag_pos: &[usize]) -> KspOutcome<Vec<f64>> {
    let n = block.rows();
    let row_ptr = block.row_ptr();
    let col_idx = block.col_idx();
    let mut vals = block.values().to_vec();
    let mut pos_of = vec![usize::MAX; n];
    for i in 0..n {
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        for k in lo..hi {
            pos_of[col_idx[k]] = k;
        }
        for kk in lo..diag_pos[i] {
            let k = col_idx[kk];
            let ukk = vals[diag_pos[k]];
            if ukk == 0.0 {
                return Err(KspError::Sparse(SparseError::ZeroPivot { row: k }));
            }
            let lik = vals[kk] / ukk;
            vals[kk] = lik;
            // Update row i against row k's upper part, pattern-limited.
            for kj in diag_pos[k] + 1..row_ptr[k + 1] {
                let p = pos_of[col_idx[kj]];
                if p != usize::MAX {
                    vals[p] -= lik * vals[kj];
                }
            }
        }
        for k in lo..hi {
            pos_of[col_idx[k]] = usize::MAX;
        }
        if vals[diag_pos[i]] == 0.0 {
            return Err(KspError::Sparse(SparseError::ZeroPivot { row: i }));
        }
    }
    Ok(vals)
}

impl Ilu0 {
    /// Factor the local block. Requires a square matrix with a full
    /// nonzero diagonal (no pivoting, like standard ILU(0)).
    pub fn new(block: &CsrMatrix) -> KspOutcome<Self> {
        let diag_pos = diagonal_positions(block)?;
        let vals = ilu0_values(block, &diag_pos)?;
        let (fwd, bwd) = split_at_diagonal(block, &diag_pos, &vals, false)?;
        register_sweep_model(&fwd, &bwd);
        Ok(Ilu0 { fwd, bwd })
    }

    /// Solve (L·U)·z = r on a local slice.
    pub fn solve_local(&self, r: &[f64], z: &mut [f64]) {
        let _span = probe::span!("sptrsv");
        self.fwd.sweep_from(r, z, |acc, _| acc);
        self.bwd.sweep_in_place(z, |acc, d| acc / d);
    }
}

impl Preconditioner for Ilu0 {
    fn apply(&self, _comm: &Communicator, r: &DistVector, z: &mut DistVector) -> KspOutcome<()> {
        self.solve_local(r.local(), z.local_mut());
        Ok(())
    }

    fn name(&self) -> &'static str {
        "ilu0"
    }
}

/// IC(0): incomplete Cholesky with zero fill on the lower-triangular
/// pattern of an SPD block. Applied as z = L⁻ᵀ·L⁻¹·r: L's rows swept
/// forward, Lᵀ's rows swept backward.
#[derive(Debug, Clone)]
pub struct Ic0 {
    fwd: LevelTri,
    bwd: LevelTri,
}

/// The IC(0) factor's rows (columns ≤ i, diagonal last), CSR.
pub(super) fn ic0_factor(block: &CsrMatrix) -> KspOutcome<CsrMatrix> {
    let (n, cols) = block.shape();
    if n != cols {
        return Err(KspError::Sparse(SparseError::NotSquare { rows: n, cols }));
    }
    // Extract the lower triangle (including diagonal) as the pattern.
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0);
    for i in 0..n {
        let (cs, vs) = block.row(i);
        let end = cs.partition_point(|&c| c <= i);
        if end == 0 || cs[end - 1] != i {
            return Err(KspError::Sparse(SparseError::ZeroPivot { row: i }));
        }
        col_idx.extend_from_slice(&cs[..end]);
        vals.extend_from_slice(&vs[..end]);
        row_ptr.push(col_idx.len());
    }
    // Row-oriented incomplete Cholesky.
    let mut pos_of = vec![usize::MAX; n];
    for i in 0..n {
        let (lo, diag) = (row_ptr[i], row_ptr[i + 1] - 1);
        for k in lo..=diag {
            pos_of[col_idx[k]] = k;
        }
        for kk in lo..diag {
            // l_ij = (a_ij − Σ_{k<j} l_ik·l_jk) / l_jj for the column j of
            // this strictly-lower entry, sums limited to the shared pattern.
            let j = col_idx[kk];
            let mut s = vals[kk];
            let jdiag = row_ptr[j + 1] - 1;
            for jk in row_ptr[j]..jdiag {
                let p = pos_of[col_idx[jk]];
                if p != usize::MAX && p < kk {
                    s -= vals[p] * vals[jk];
                }
            }
            vals[kk] = s / vals[jdiag];
        }
        // Diagonal: l_ii = sqrt(a_ii − Σ l_ik²).
        let mut s = vals[diag];
        for &v in &vals[lo..diag] {
            s -= v * v;
        }
        if s <= 0.0 {
            return Err(KspError::BadConfig(format!(
                "IC(0) pivot {s:.3e} at row {i}: matrix not SPD enough for zero fill"
            )));
        }
        vals[diag] = s.sqrt();
        for k in lo..=diag {
            pos_of[col_idx[k]] = usize::MAX;
        }
    }
    CsrMatrix::from_parts(n, n, row_ptr, col_idx, vals).map_err(KspError::Sparse)
}

impl Ic0 {
    /// Factor the local block; fails on non-SPD data (non-positive pivot).
    pub fn new(block: &CsrMatrix) -> KspOutcome<Self> {
        let l = ic0_factor(block)?;
        let n = l.rows();
        let diag = |i: usize| l.values()[l.row_ptr()[i + 1] - 1];
        let lower = |i: usize| {
            let (cs, vs) = l.row(i);
            (&cs[..cs.len() - 1], &vs[..vs.len() - 1])
        };
        let fwd = LevelTri::build(Triangle::Lower, n, lower, Some(&diag))?;
        // Lᵀ's rows (diagonal first), the rest reversed to descending
        // columns: the order in which a backward scatter over L's rows
        // would have subtracted them.
        let (_, _, t_ptr, mut t_col, mut t_val) = l.transpose().into_parts();
        for c in 0..n {
            let strict = t_ptr[c] + 1..t_ptr[c + 1];
            t_col[strict.clone()].reverse();
            t_val[strict].reverse();
        }
        let upper = |c: usize| {
            let strict = t_ptr[c] + 1..t_ptr[c + 1];
            (&t_col[strict.clone()], &t_val[strict])
        };
        let bwd = LevelTri::build(Triangle::Upper, n, upper, Some(&diag))?;
        register_sweep_model(&fwd, &bwd);
        Ok(Ic0 { fwd, bwd })
    }

    /// Solve L·Lᵀ·z = r on a local slice.
    pub fn solve_local(&self, r: &[f64], z: &mut [f64]) {
        let _span = probe::span!("sptrsv");
        self.fwd.sweep_from(r, z, |acc, d| acc / d);
        self.bwd.sweep_in_place(z, |acc, d| acc / d);
    }
}

impl Preconditioner for Ic0 {
    fn apply(&self, _comm: &Communicator, r: &DistVector, z: &mut DistVector) -> KspOutcome<()> {
        self.solve_local(r.local(), z.local_mut());
        Ok(())
    }

    fn name(&self) -> &'static str {
        "ic0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsparse::generate;

    /// On a full (dense-pattern) matrix, ILU(0) is the exact LU, so
    /// solve_local must invert exactly.
    #[test]
    fn ilu0_is_exact_on_full_pattern() {
        let n = 6;
        let mut coo = rsparse::CooMatrix::new(n, n);
        let mut rng = generate::XorShift64::new(99);
        for i in 0..n {
            for j in 0..n {
                let v = if i == j { 10.0 + rng.next_f64() } else { rng.next_f64() - 0.5 };
                coo.push(i, j, v).unwrap();
            }
        }
        let a = coo.to_csr();
        let ilu = Ilu0::new(&a).unwrap();
        let x_true = generate::random_vector(n, 3);
        let b = a.matvec(&x_true).unwrap();
        let mut x = vec![0.0; n];
        ilu.solve_local(&b, &mut x);
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-10, "{x:?} vs {x_true:?}");
        }
    }

    /// On a tridiagonal matrix the pattern suffers no fill, so ILU(0) is
    /// again exact.
    #[test]
    fn ilu0_is_exact_on_tridiagonal() {
        let a = generate::laplacian_1d(20);
        let ilu = Ilu0::new(&a).unwrap();
        let x_true = generate::random_vector(20, 5);
        let b = a.matvec(&x_true).unwrap();
        let mut x = vec![0.0; 20];
        ilu.solve_local(&b, &mut x);
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn ilu0_reduces_residual_on_2d_laplacian() {
        // With fill suppressed ILU(0) is inexact, but applying it must
        // still shrink the residual substantially.
        let a = generate::laplacian_2d(8);
        let n = 64;
        let ilu = Ilu0::new(&a).unwrap();
        let b = vec![1.0; n];
        let mut z = vec![0.0; n];
        ilu.solve_local(&b, &mut z);
        let r = rsparse::ops::residual(&a, &z, &b).unwrap();
        let rel = rsparse::dense::norm2(&r) / rsparse::dense::norm2(&b);
        assert!(rel < 0.7, "ILU(0) should beat doing nothing: rel = {rel}");
    }

    #[test]
    fn ilu0_rejects_missing_diagonal() {
        // [0 1; 1 0] has no diagonal entries.
        let a = rsparse::CooMatrix::from_triplets(2, 2, &[0, 1], &[1, 0], &[1.0, 1.0])
            .unwrap()
            .to_csr();
        assert!(Ilu0::new(&a).is_err());
    }

    #[test]
    fn ic0_is_exact_on_tridiagonal_spd() {
        let a = generate::laplacian_1d(15);
        let ic = Ic0::new(&a).unwrap();
        let x_true = generate::random_vector(15, 8);
        let b = a.matvec(&x_true).unwrap();
        let mut x = vec![0.0; 15];
        ic.solve_local(&b, &mut x);
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn ic0_preserves_symmetry_of_application() {
        // M⁻¹ = L⁻ᵀL⁻¹ must be symmetric: ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩.
        let a = generate::laplacian_2d(5);
        let n = 25;
        let ic = Ic0::new(&a).unwrap();
        let u = generate::random_vector(n, 1);
        let v = generate::random_vector(n, 2);
        let mut miu = vec![0.0; n];
        let mut miv = vec![0.0; n];
        ic.solve_local(&u, &mut miu);
        ic.solve_local(&v, &mut miv);
        let lhs = rsparse::dense::dot(&miu, &v);
        let rhs = rsparse::dense::dot(&u, &miv);
        assert!((lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()));
    }

    #[test]
    fn ic0_rejects_indefinite_matrices() {
        // −I is symmetric negative definite.
        let a = rsparse::ops::scale(-1.0, &rsparse::CsrMatrix::identity(4));
        assert!(Ic0::new(&a).is_err());
    }
}
