//! SSOR preconditioning on the rank-local diagonal block.
//!
//! M = (D/ω + L) · (D/ω)⁻¹ · (D/ω + U) · 1/(2/ω − 1), applied as two
//! triangular sweeps. With ω = 1 this is symmetric Gauss–Seidel.

use rcomm::Communicator;
use rsparse::schedule::register_sweep_model;
use rsparse::{CsrMatrix, DistVector, LevelTri, SparseError};

use crate::pc::{diagonal_positions, split_at_diagonal, Preconditioner};
use crate::result::{KspError, KspOutcome};

/// The SSOR preconditioner for a local block. SSOR sweeps the original
/// matrix, not a factor: its two triangles, each with the diagonal, in
/// level order.
#[derive(Debug, Clone)]
pub struct Ssor {
    fwd: LevelTri,
    bwd: LevelTri,
    omega: f64,
    /// `a_ii / ω` per row: the rescale between the two sweeps.
    rescale: Vec<f64>,
}

impl Ssor {
    /// Build for relaxation factor `omega ∈ (0, 2)`.
    pub fn new(block: &CsrMatrix, omega: f64) -> KspOutcome<Self> {
        if !(0.0..2.0).contains(&omega) || omega == 0.0 {
            return Err(KspError::BadConfig(format!("SSOR omega must be in (0, 2), got {omega}")));
        }
        let diag_pos = diagonal_positions(block)?;
        let vals = block.values();
        if let Some(row) = diag_pos.iter().position(|&k| vals[k] == 0.0) {
            return Err(KspError::Sparse(SparseError::ZeroPivot { row }));
        }
        let (fwd, bwd) =
            split_at_diagonal(block.row_ptr(), block.col_idx(), &diag_pos, vals, true)?;
        register_sweep_model(&fwd, &bwd);
        let rescale = diag_pos.iter().map(|&k| vals[k] / omega).collect();
        Ok(Ssor { fwd, bwd, omega, rescale })
    }

    /// z ← M⁻¹·r on local slices: two triangular sweeps with an
    /// elementwise diagonal rescale between and a scalar after them.
    pub fn solve_local(&self, r: &[f64], z: &mut [f64]) {
        let _span = probe::span!("sptrsv");
        let w = self.omega;
        // Forward sweep: (D/ω + L)·t = r.
        self.fwd.sweep_from(r, z, |acc, d| acc * w / d);
        for (zi, s) in z.iter_mut().zip(&self.rescale) {
            *zi *= s;
        }
        // Backward sweep: (D/ω + U)·z = t.
        self.bwd.sweep_in_place(z, |acc, d| acc * w / d);
        // Final scalar: M⁻¹ = ω(2−ω)·(D+ωU)⁻¹·D·(D+ωL)⁻¹, and the sweeps
        // above produced ω·(D+ωU)⁻¹·D·(D+ωL)⁻¹·r.
        let scale = 2.0 - w;
        for zi in z.iter_mut() {
            *zi *= scale;
        }
    }
}

impl Preconditioner for Ssor {
    fn apply(&self, _comm: &Communicator, r: &DistVector, z: &mut DistVector) -> KspOutcome<()> {
        self.solve_local(r.local(), z.local_mut());
        Ok(())
    }

    fn name(&self) -> &'static str {
        "ssor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsparse::generate;

    #[test]
    fn omega_bounds_are_enforced() {
        let a = generate::laplacian_1d(4);
        assert!(Ssor::new(&a, 0.0).is_err());
        assert!(Ssor::new(&a, 2.0).is_err());
        assert!(Ssor::new(&a, -0.5).is_err());
        assert!(Ssor::new(&a, 1.0).is_ok());
        assert!(Ssor::new(&a, 1.8).is_ok());
    }

    #[test]
    fn missing_diagonal_is_rejected() {
        let a = rsparse::CooMatrix::from_triplets(2, 2, &[0, 1], &[1, 0], &[1.0, 1.0])
            .unwrap()
            .to_csr();
        assert!(Ssor::new(&a, 1.0).is_err());
    }

    #[test]
    fn ssor_on_diagonal_matrix_matches_closed_form() {
        // With no off-diagonal entries M = D/(ω(2−ω)), so
        // M⁻¹·r = ω(2−ω)·D⁻¹·r. For ω = 1 that is exactly Jacobi.
        let mut coo = rsparse::CooMatrix::new(3, 3);
        for (i, d) in [2.0, 4.0, 8.0].iter().enumerate() {
            coo.push(i, i, *d).unwrap();
        }
        let a = coo.to_csr();
        let r = vec![2.0, 4.0, 8.0];
        for omega in [1.0f64, 1.3, 0.7] {
            let ssor = Ssor::new(&a, omega).unwrap();
            let mut z = vec![0.0; 3];
            ssor.solve_local(&r, &mut z);
            let expect = omega * (2.0 - omega);
            for zi in &z {
                assert!((zi - expect).abs() < 1e-14, "omega {omega}: {z:?}");
            }
        }
    }

    #[test]
    fn application_is_symmetric_for_symmetric_blocks() {
        let a = generate::laplacian_2d(5);
        let ssor = Ssor::new(&a, 1.2).unwrap();
        let u = generate::random_vector(25, 1);
        let v = generate::random_vector(25, 2);
        let mut mu = vec![0.0; 25];
        let mut mv = vec![0.0; 25];
        ssor.solve_local(&u, &mut mu);
        ssor.solve_local(&v, &mut mv);
        let lhs = rsparse::dense::dot(&mu, &v);
        let rhs = rsparse::dense::dot(&u, &mv);
        assert!((lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()));
    }

    #[test]
    fn ssor_reduces_laplacian_residual() {
        let a = generate::laplacian_2d(7);
        let n = 49;
        let ssor = Ssor::new(&a, 1.0).unwrap();
        let b = vec![1.0; n];
        let mut z = vec![0.0; n];
        ssor.solve_local(&b, &mut z);
        let r = rsparse::ops::residual(&a, &z, &b).unwrap();
        let rel = rsparse::dense::norm2(&r) / rsparse::dense::norm2(&b);
        assert!(rel < 0.9, "rel = {rel}");
    }
}
