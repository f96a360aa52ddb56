//! Smoothers: the cheap stationary iterations that kill high-frequency
//! error between grid transfers.

use rsparse::CsrMatrix;

use crate::{MgError, MgResultT};

/// Smoother selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Smoother {
    /// Weighted (damped) Jacobi; ω = 4/5 is optimal for the 2-D Laplacian.
    Jacobi {
        /// Damping factor.
        omega: f64,
    },
    /// Forward Gauss–Seidel.
    GaussSeidel,
    /// Symmetric Gauss–Seidel (forward then backward sweep).
    SymGaussSeidel,
}

impl Smoother {
    /// Run `sweeps` smoothing iterations on A·x = b, updating `x`.
    pub fn smooth(self, a: &CsrMatrix, b: &[f64], x: &mut [f64], sweeps: usize) -> MgResultT<()> {
        match self {
            Smoother::Jacobi { omega } => jacobi(a, b, x, sweeps, omega),
            Smoother::GaussSeidel => {
                for _ in 0..sweeps {
                    gs_forward(a, b, x)?;
                }
                Ok(())
            }
            Smoother::SymGaussSeidel => {
                for _ in 0..sweeps {
                    gs_forward(a, b, x)?;
                    gs_backward(a, b, x)?;
                }
                Ok(())
            }
        }
    }
}

fn diag_of(a: &CsrMatrix) -> MgResultT<Vec<f64>> {
    let d = a.diagonal()?;
    if let Some(i) = d.iter().position(|&v| v == 0.0) {
        return Err(MgError::Sparse(format!("zero diagonal at row {i}")));
    }
    Ok(d)
}

fn jacobi(a: &CsrMatrix, b: &[f64], x: &mut [f64], sweeps: usize, omega: f64) -> MgResultT<()> {
    let d = diag_of(a)?;
    let n = a.rows();
    let mut xnew = vec![0.0; n];
    for _ in 0..sweeps {
        for i in 0..n {
            let (cols, vals) = a.row(i);
            let mut acc = b[i];
            for (&c, &v) in cols.iter().zip(vals) {
                if c != i {
                    acc -= v * x[c];
                }
            }
            xnew[i] = (1.0 - omega) * x[i] + omega * acc / d[i];
        }
        x.copy_from_slice(&xnew);
    }
    Ok(())
}

fn gs_forward(a: &CsrMatrix, b: &[f64], x: &mut [f64]) -> MgResultT<()> {
    let d = diag_of(a)?;
    for i in 0..a.rows() {
        let (cols, vals) = a.row(i);
        let mut acc = b[i];
        for (&c, &v) in cols.iter().zip(vals) {
            if c != i {
                acc -= v * x[c];
            }
        }
        x[i] = acc / d[i];
    }
    Ok(())
}

fn gs_backward(a: &CsrMatrix, b: &[f64], x: &mut [f64]) -> MgResultT<()> {
    let d = diag_of(a)?;
    for i in (0..a.rows()).rev() {
        let (cols, vals) = a.row(i);
        let mut acc = b[i];
        for (&c, &v) in cols.iter().zip(vals) {
            if c != i {
                acc -= v * x[c];
            }
        }
        x[i] = acc / d[i];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsparse::generate;

    fn residual_norm(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        rsparse::dense::norm2(&rsparse::ops::residual(a, x, b).unwrap())
    }

    #[test]
    fn all_smoothers_contract_the_residual() {
        let a = generate::laplacian_2d(9);
        let b = generate::random_vector(81, 4);
        for sm in [Smoother::Jacobi { omega: 0.8 }, Smoother::GaussSeidel, Smoother::SymGaussSeidel]
        {
            let mut x = vec![0.0; 81];
            let r0 = residual_norm(&a, &x, &b);
            sm.smooth(&a, &b, &mut x, 5).unwrap();
            let r5 = residual_norm(&a, &x, &b);
            assert!(r5 < r0 * 0.9, "{sm:?}: {r5} vs {r0}");
        }
    }

    #[test]
    fn jacobi_damps_high_frequency_faster_than_low() {
        // The defining property of a smoother: the oscillatory error mode
        // decays much faster than the smooth one.
        let m = 15;
        let a = generate::laplacian_2d(m);
        let n = m * m;
        let b = vec![0.0; n]; // solve A e = 0 starting from the error mode
        let mode = |k: usize| -> Vec<f64> {
            let mut v = vec![0.0; n];
            for i in 0..m {
                for j in 0..m {
                    let (x, y) =
                        ((i as f64 + 1.0) / (m as f64 + 1.0), (j as f64 + 1.0) / (m as f64 + 1.0));
                    v[i * m + j] = (k as f64 * std::f64::consts::PI * x).sin()
                        * (k as f64 * std::f64::consts::PI * y).sin();
                }
            }
            v
        };
        let decay = |k: usize| {
            let mut x = mode(k);
            let e0 = rsparse::dense::norm2(&x);
            Smoother::Jacobi { omega: 0.8 }.smooth(&a, &b, &mut x, 3).unwrap();
            rsparse::dense::norm2(&x) / e0
        };
        let smooth_decay = decay(1);
        let rough_decay = decay(m - 1);
        assert!(
            rough_decay < 0.3 && smooth_decay > 0.7,
            "rough {rough_decay} vs smooth {smooth_decay}"
        );
    }

    #[test]
    fn gauss_seidel_solves_small_system_eventually() {
        let a = generate::random_diag_dominant(10, 2, 3);
        let x_true = generate::random_vector(10, 5);
        let b = a.matvec(&x_true).unwrap();
        let mut x = vec![0.0; 10];
        Smoother::GaussSeidel.smooth(&a, &b, &mut x, 200).unwrap();
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-8);
        }
    }

    #[test]
    fn zero_diagonal_is_rejected() {
        let a = rsparse::CooMatrix::from_triplets(2, 2, &[0, 1], &[1, 0], &[1.0, 1.0])
            .unwrap()
            .to_csr();
        let b = vec![1.0, 1.0];
        let mut x = vec![0.0, 0.0];
        assert!(Smoother::GaussSeidel.smooth(&a, &b, &mut x, 1).is_err());
    }
}
