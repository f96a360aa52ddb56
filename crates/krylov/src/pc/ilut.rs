//! ILUT(p, τ): incomplete LU with dual dropping (Saad) on the rank-local
//! diagonal block — the "drop tolerances" and "levels of fill" parameter
//! family the paper lists among solver knobs a common interface must
//! carry (§5.1/§6.5).
//!
//! Row-wise construction: each row of A is combined with the already
//! computed rows of U (multipliers from L), then pruned twice — entries
//! below `droptol · ‖row‖₂` are dropped, and only the `max_fill` largest
//! survivors are kept in each of the L and U parts.

use rcomm::Communicator;
use rsparse::schedule::register_sweep_model;
use rsparse::{CsrMatrix, DistVector, LevelTri, SparseError, Triangle};

use crate::pc::Preconditioner;
use crate::result::{KspError, KspOutcome};

/// The ILUT preconditioner for a local block: two level-ordered
/// triangles, unit-lower L and U with its diagonal.
#[derive(Debug, Clone)]
pub struct Ilut {
    fwd: LevelTri,
    bwd: LevelTri,
}

/// The factor as the row-wise construction leaves it, rows in natural
/// order.
pub(super) struct IlutFactor {
    /// Strictly-lower rows (unit diagonal implied), columns ascending.
    pub l_ptr: Vec<usize>,
    pub l_cols: Vec<usize>,
    pub l_vals: Vec<f64>,
    /// Upper rows: the diagonal first, then columns ascending.
    pub u_ptr: Vec<usize>,
    pub u_cols: Vec<usize>,
    pub u_vals: Vec<f64>,
}

impl IlutFactor {
    /// Row `i` of L.
    pub fn lower(&self, i: usize) -> (&[usize], &[f64]) {
        let part = self.l_ptr[i]..self.l_ptr[i + 1];
        (&self.l_cols[part.clone()], &self.l_vals[part])
    }

    /// Row `i` of U past its diagonal.
    pub fn upper(&self, i: usize) -> (&[usize], &[f64]) {
        let part = self.u_ptr[i] + 1..self.u_ptr[i + 1];
        (&self.u_cols[part.clone()], &self.u_vals[part])
    }

    /// U's diagonal entry of row `i`.
    pub fn diag(&self, i: usize) -> f64 {
        self.u_vals[self.u_ptr[i]]
    }
}

impl Ilut {
    /// Factor with drop tolerance `droptol ≥ 0` and per-row fill cap
    /// `max_fill ≥ 1` (applied separately to the L and U parts).
    pub fn new(block: &CsrMatrix, droptol: f64, max_fill: usize) -> KspOutcome<Self> {
        let f = ilut_factor(block, droptol, max_fill)?;
        let n = block.rows();
        let fwd = LevelTri::build(Triangle::Lower, n, |i| f.lower(i), None)?;
        let bwd = LevelTri::build(Triangle::Upper, n, |i| f.upper(i), Some(&|i| f.diag(i)))?;
        register_sweep_model(&fwd, &bwd);
        Ok(Ilut { fwd, bwd })
    }

    /// Stored entries in both factors (fill diagnostic).
    pub fn fill(&self) -> usize {
        self.fwd.nnz() + self.bwd.nnz() + self.bwd.n_rows()
    }

    /// Solve (L·U)·z = r on local slices.
    pub fn solve_local(&self, r: &[f64], z: &mut [f64]) {
        let _span = probe::span!("sptrsv");
        self.fwd.sweep_from(r, z, |acc, _| acc);
        self.bwd.sweep_in_place(z, |acc, d| acc / d);
    }
}

/// Saad's row-wise ILUT(p, τ) construction.
pub(super) fn ilut_factor(
    block: &CsrMatrix,
    droptol: f64,
    max_fill: usize,
) -> KspOutcome<IlutFactor> {
    // NaN must be rejected too: no `v.abs() > NaN` holds, so every entry
    // of L and U would be dropped.
    if droptol.is_nan() || droptol < 0.0 {
        return Err(KspError::BadConfig(format!("droptol must be ≥ 0, got {droptol}")));
    }
    if max_fill == 0 {
        return Err(KspError::BadConfig("max_fill must be ≥ 1".into()));
    }
    let (n, cols) = block.shape();
    if n != cols {
        return Err(KspError::Sparse(SparseError::NotSquare { rows: n, cols }));
    }
    // Growing factors, rows appended in order.
    let mut l_ptr = vec![0usize];
    let mut l_cols: Vec<usize> = Vec::new();
    let mut l_vals: Vec<f64> = Vec::new();
    let mut u_ptr = vec![0usize];
    let mut u_cols: Vec<usize> = Vec::new();
    let mut u_vals: Vec<f64> = Vec::new();
    let mut u_diag = vec![0.0f64; n];
    // Position of column j in the dense work row, or MAX.
    let mut w = vec![0.0f64; n];
    let mut nonzero: Vec<usize> = Vec::new();
    let mut in_row = vec![false; n];

    for i in 0..n {
        // Scatter row i of A.
        let (acols, avals) = block.row(i);
        let mut row_norm = 0.0f64;
        for (&c, &v) in acols.iter().zip(avals) {
            w[c] = v;
            if !in_row[c] {
                in_row[c] = true;
                nonzero.push(c);
            }
            row_norm += v * v;
        }
        let row_norm = row_norm.sqrt();
        let tau = droptol * row_norm;

        // Eliminate using previous rows in increasing column order.
        // Process columns k < i present in the work row; new fill may
        // add more, so keep the frontier sorted with a simple scan.
        nonzero.sort_unstable();
        let mut idx = 0;
        while idx < nonzero.len() {
            let k = nonzero[idx];
            idx += 1;
            if k >= i {
                break;
            }
            let wk = w[k];
            if wk == 0.0 {
                continue;
            }
            let lik = wk / u_diag[k];
            if lik.abs() <= tau {
                // Dropped multiplier: zero it out.
                w[k] = 0.0;
                continue;
            }
            w[k] = lik;
            // w ← w − lik · U(k, :) (strictly upper part of row k).
            for pos in u_ptr[k]..u_ptr[k + 1] {
                let j = u_cols[pos];
                if j == k {
                    continue;
                }
                let upd = lik * u_vals[pos];
                if !in_row[j] {
                    in_row[j] = true;
                    // Insert keeping the frontier sorted past idx.
                    let at = nonzero[idx..].partition_point(|&c| c < j) + idx;
                    nonzero.insert(at, j);
                }
                w[j] -= upd;
            }
        }

        // Split into L (cols < i), diagonal, U (cols > i), drop small,
        // cap fill.
        let mut l_row: Vec<(usize, f64)> = Vec::new();
        let mut u_row: Vec<(usize, f64)> = Vec::new();
        let mut diag = 0.0f64;
        for &c in &nonzero {
            let v = w[c];
            w[c] = 0.0;
            in_row[c] = false;
            if v == 0.0 {
                continue;
            }
            if c < i {
                if v.abs() > tau {
                    l_row.push((c, v));
                }
            } else if c == i {
                diag = v;
            } else if v.abs() > tau {
                u_row.push((c, v));
            }
        }
        nonzero.clear();
        if diag == 0.0 {
            // Saad's fallback: substitute a small pivot scaled to the
            // row so factorization can continue.
            diag = (1e-4 * row_norm).max(f64::MIN_POSITIVE);
        }
        keep_largest(&mut l_row, max_fill);
        keep_largest(&mut u_row, max_fill);
        l_row.sort_unstable_by_key(|&(c, _)| c);
        u_row.sort_unstable_by_key(|&(c, _)| c);

        for (c, v) in l_row {
            l_cols.push(c);
            l_vals.push(v);
        }
        l_ptr.push(l_cols.len());
        u_diag[i] = diag;
        u_cols.push(i);
        u_vals.push(diag);
        for (c, v) in u_row {
            u_cols.push(c);
            u_vals.push(v);
        }
        u_ptr.push(u_cols.len());
    }

    Ok(IlutFactor { l_ptr, l_cols, l_vals, u_ptr, u_cols, u_vals })
}

/// Keep the `cap` largest-magnitude entries (order not preserved).
fn keep_largest(row: &mut Vec<(usize, f64)>, cap: usize) {
    if row.len() > cap {
        row.sort_unstable_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("finite values"));
        row.truncate(cap);
    }
}

impl Preconditioner for Ilut {
    fn apply(&self, _comm: &Communicator, r: &DistVector, z: &mut DistVector) -> KspOutcome<()> {
        self.solve_local(r.local(), z.local_mut());
        Ok(())
    }

    fn name(&self) -> &'static str {
        "ilut"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsparse::generate;

    #[test]
    fn zero_droptol_full_fill_is_exact_lu() {
        // With no dropping, ILUT on any matrix with nonzero pivots is the
        // exact (unpivoted) LU, so the solve inverts A.
        let a = generate::random_diag_dominant(20, 3, 4);
        let ilut = Ilut::new(&a, 0.0, 20).unwrap();
        let x_true = generate::random_vector(20, 5);
        let b = a.matvec(&x_true).unwrap();
        let mut x = vec![0.0; 20];
        ilut.solve_local(&b, &mut x);
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-9, "{g} vs {e}");
        }
    }

    #[test]
    fn dropping_reduces_fill_monotonically() {
        let a = generate::laplacian_2d(12);
        let f_tight = Ilut::new(&a, 0.0, 144).unwrap().fill();
        let f_mid = Ilut::new(&a, 1e-3, 10).unwrap().fill();
        let f_loose = Ilut::new(&a, 1e-1, 3).unwrap().fill();
        assert!(f_tight > f_mid, "{f_tight} vs {f_mid}");
        assert!(f_mid > f_loose, "{f_mid} vs {f_loose}");
    }

    #[test]
    fn moderate_ilut_still_contracts_the_residual() {
        let a = generate::laplacian_2d(10);
        let n = 100;
        let ilut = Ilut::new(&a, 1e-2, 8).unwrap();
        let b = vec![1.0; n];
        let mut z = vec![0.0; n];
        ilut.solve_local(&b, &mut z);
        let r = rsparse::ops::residual(&a, &z, &b).unwrap();
        let rel = rsparse::dense::norm2(&r) / 10.0;
        assert!(rel < 0.5, "rel = {rel}");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let a = generate::laplacian_1d(4);
        assert!(Ilut::new(&a, -1.0, 5).is_err());
        assert!(Ilut::new(&a, f64::NAN, 5).is_err());
        assert!(Ilut::new(&a, 0.1, 0).is_err());
        let rect = rsparse::CooMatrix::new(2, 3).to_csr();
        assert!(Ilut::new(&rect, 0.1, 5).is_err());
    }

    #[test]
    fn zero_pivot_fallback_keeps_factorization_alive() {
        // A matrix engineered to produce an exact zero pivot without
        // pivoting: [[1, 1], [1, 1 + 0]] → U(1,1) = 0. The τ-fallback must
        // substitute a tiny pivot rather than fail.
        let a = rsparse::CooMatrix::from_triplets(
            2,
            2,
            &[0, 0, 1, 1],
            &[0, 1, 0, 1],
            &[1.0, 1.0, 1.0, 1.0],
        )
        .unwrap()
        .to_csr();
        let ilut = Ilut::new(&a, 0.0, 4).unwrap();
        assert!(ilut.fill() >= 3);
    }
}
