//! `rmesh` — parallel mesh/problem generator for the CCA-LISI experiments.
//!
//! Reproduces the paper's test-problem generator (§8): 5-point centered
//! finite differences on the unit square for the general linear PDE
//!
//! ```text
//! u_xx + u_yy − 3·u_x = f,     f = (2 − 6x − x²)·sin(x)
//! ```
//!
//! with Dirichlet boundary conditions, assembled in block-row partitioned
//! form (one block per processor, conformal partition of A, b and x), plus
//! a general convection–diffusion problem family and discrete manufactured
//! solutions for verification.

#![warn(missing_docs)]

mod grid;
mod problem;

pub mod manufactured;

pub use grid::Grid2d;
pub use problem::{ConvectionDiffusion2d, LocalSystem};

/// The paper's right-hand side function `f(x) = (2 − 6x − x²)·sin(x)`
/// (independent of y).
pub fn paper_rhs(x: f64, _y: f64) -> f64 {
    (2.0 - 6.0 * x - x * x) * x.sin()
}

/// The paper's PDE as a [`ConvectionDiffusion2d`]: rewriting
/// `u_xx + u_yy − 3u_x = f` in the generator's canonical form
/// `−(u_xx + u_yy) + bx·u_x + by·u_y = g` gives `bx = 3`, `by = 0`,
/// `g = −f`, homogeneous Dirichlet boundary.
pub fn paper_problem(m: usize) -> ConvectionDiffusion2d {
    ConvectionDiffusion2d::new(m).with_convection(3.0, 0.0).with_rhs(|x, y| -paper_rhs(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rhs_matches_formula() {
        let x = 0.3;
        let expect = (2.0 - 1.8 - 0.09) * 0.3f64.sin();
        assert!((paper_rhs(x, 0.7) - expect).abs() < 1e-15);
        // Independent of y.
        assert_eq!(paper_rhs(x, 0.0), paper_rhs(x, 1.0));
    }

    #[test]
    fn paper_problem_has_paper_nnz() {
        // Table 1 column 1: nnz = 5m² − 4m.
        for (m, nnz) in [(50usize, 12300usize), (100, 49600), (200, 199200)] {
            let (a, b) = paper_problem(m).assemble_global();
            assert_eq!((a.rows(), b.len()), (m * m, m * m), "m = {m}");
            assert_eq!(a.nnz(), nnz, "m = {m}");
        }
    }
}
