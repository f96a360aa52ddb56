//! Discrete manufactured solutions: given a problem's matrix, pick a known
//! solution vector, generate the right-hand side exactly (`b = A·u*`), and
//! measure how well a solver recovers `u*`. This sidesteps discretization
//! error entirely — the correct answer of the *linear algebra* problem is
//! known to machine precision, which is what solver tests need.

use rsparse::{CsrMatrix, SparseResult};

use crate::grid::Grid2d;

/// A smooth test field evaluated at grid points: `sin(πx)·sin(πy)` — zero
/// on the boundary, so it is also a legitimate continuum solution for
/// homogeneous Dirichlet problems.
pub fn sine_field(grid: Grid2d) -> Vec<f64> {
    let n = grid.unknowns();
    (0..n)
        .map(|k| {
            let (i, j) = grid.point(k);
            let (x, y) = grid.coords(i, j);
            (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin()
        })
        .collect()
}

/// A deterministic pseudo-random test field (repeatable across runs).
pub fn wavy_field(grid: Grid2d, seed: u64) -> Vec<f64> {
    let n = grid.unknowns();
    let s = seed as f64 * 0.618;
    (0..n).map(|k| ((k as f64) * 0.731 + s).sin() + 0.1).collect()
}

/// A manufactured problem: matrix, exact solution and matching rhs.
#[derive(Debug, Clone)]
pub struct Manufactured {
    /// The system matrix.
    pub matrix: CsrMatrix,
    /// The exact discrete solution.
    pub exact: Vec<f64>,
    /// `rhs = matrix · exact`.
    pub rhs: Vec<f64>,
}

impl Manufactured {
    /// Build from a matrix and chosen solution.
    pub fn new(matrix: CsrMatrix, exact: Vec<f64>) -> SparseResult<Self> {
        let rhs = matrix.matvec(&exact)?;
        Ok(Manufactured { matrix, exact, rhs })
    }

    /// Max-norm error of a candidate solution against the exact one.
    pub fn error_inf(&self, candidate: &[f64]) -> f64 {
        self.exact.iter().zip(candidate).fold(0.0, |m, (e, c)| m.max((e - c).abs()))
    }

    /// Relative residual ‖b − A·x‖₂ / ‖b‖₂ of a candidate.
    pub fn relative_residual(&self, candidate: &[f64]) -> SparseResult<f64> {
        let r = rsparse::ops::residual(&self.matrix, candidate, &self.rhs)?;
        let bn = rsparse::dense::norm2(&self.rhs);
        Ok(if bn == 0.0 { rsparse::dense::norm2(&r) } else { rsparse::dense::norm2(&r) / bn })
    }
}

/// The paper's problem with a sine manufactured solution — the standard
/// verification workload used throughout the test suite.
pub fn paper_manufactured(m: usize) -> Manufactured {
    let p = crate::paper_problem(m);
    let (a, _) = p.assemble_global();
    let exact = sine_field(p.grid());
    Manufactured::new(a, exact).expect("shapes agree by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sine_field_is_positive_inside_and_symmetric() {
        let g = Grid2d::new(5);
        let f = sine_field(g);
        assert!(f.iter().all(|&v| v > 0.0));
        // Symmetry under (i,j) -> (j,i).
        for i in 0..5 {
            for j in 0..5 {
                let a = f[g.index(i, j)];
                let b = f[g.index(j, i)];
                assert!((a - b).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn manufactured_rhs_is_consistent() {
        let man = paper_manufactured(8);
        assert_eq!(man.error_inf(&man.exact), 0.0);
        assert!(man.relative_residual(&man.exact).unwrap() < 1e-14);
        // A zero candidate has relative residual 1.
        let zero = vec![0.0; man.exact.len()];
        assert!((man.relative_residual(&zero).unwrap() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn dense_solve_recovers_exact() {
        let man = paper_manufactured(5);
        let x = man.matrix.to_dense().solve(&man.rhs).unwrap();
        assert!(man.error_inf(&x) < 1e-10);
    }

    #[test]
    fn wavy_field_is_deterministic() {
        let g = Grid2d::new(4);
        assert_eq!(wavy_field(g, 3), wavy_field(g, 3));
        assert_ne!(wavy_field(g, 3), wavy_field(g, 4));
    }
}
