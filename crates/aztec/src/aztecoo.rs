//! The AztecOO-style solver engine: option enums in, status record out.

use rcomm::Communicator;

use crate::precond::{AzPc, JacobiPc, NeumannPc, NoPc, SymGsPc};
use crate::rowmatrix::RowMatrix;
use crate::solvers;
use crate::vector::Vector;
use crate::{AztecError, AztecResult};

/// Solver selection (`options[AZ_solver]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AzSolver {
    /// Conjugate gradients.
    Cg,
    /// Restarted GMRES.
    Gmres,
    /// BiCGStab.
    BiCgStab,
    /// Conjugate gradients squared.
    Cgs,
    /// Transpose-free QMR.
    Tfqmr,
}

impl AzSolver {
    /// Parse an Aztec-flavoured name.
    pub fn parse(name: &str) -> AztecResult<Self> {
        Ok(match name.to_ascii_lowercase().as_str() {
            "cg" | "az_cg" => AzSolver::Cg,
            "gmres" | "az_gmres" => AzSolver::Gmres,
            "bicgstab" | "az_bicgstab" => AzSolver::BiCgStab,
            "cgs" | "az_cgs" => AzSolver::Cgs,
            "tfqmr" | "az_tfqmr" => AzSolver::Tfqmr,
            other => return Err(AztecError::BadOption(format!("unknown solver '{other}'"))),
        })
    }
}

/// Preconditioner selection (`options[AZ_precond]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AzPrecond {
    /// No preconditioning.
    None,
    /// Point Jacobi.
    Jacobi,
    /// Neumann-series polynomial of the given order.
    Neumann {
        /// Polynomial order (`options[AZ_poly_ord]`).
        order: usize,
    },
    /// Local symmetric Gauss–Seidel.
    SymGs,
}

impl AzPrecond {
    /// Parse an Aztec-flavoured name (order set separately).
    pub fn parse(name: &str) -> AztecResult<Self> {
        Ok(match name.to_ascii_lowercase().as_str() {
            "none" | "az_none" => AzPrecond::None,
            "jacobi" | "az_jacobi" => AzPrecond::Jacobi,
            "neumann" | "az_neumann" | "poly" => AzPrecond::Neumann { order: 3 },
            "sym_gs" | "az_sym_gs" | "symgs" => AzPrecond::SymGs,
            other => {
                return Err(AztecError::BadOption(format!("unknown preconditioner '{other}'")))
            }
        })
    }
}

/// Convergence-test normalization (`options[AZ_conv]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AzConv {
    /// ‖r‖/‖r₀‖ (Aztec's default).
    R0,
    /// ‖r‖/‖b‖.
    Rhs,
}

/// Termination status (`status[AZ_why]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AzWhy {
    /// Converged.
    Normal,
    /// Iteration limit.
    Maxits,
    /// Numerical breakdown.
    Breakdown,
    /// Residual blow-up / ill-conditioning detected.
    Ill,
    /// No new best residual for [`AztecOptions::stall_window`]
    /// consecutive iterations.
    Stagnated,
}

impl AzWhy {
    /// Did the solve succeed?
    pub fn converged(self) -> bool {
        self == AzWhy::Normal
    }
}

/// The full option block — RAztec's equivalent of Aztec's
/// `options[]`/`params[]` arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct AztecOptions {
    /// Method.
    pub solver: AzSolver,
    /// Preconditioner.
    pub precond: AzPrecond,
    /// Convergence normalization.
    pub conv: AzConv,
    /// Tolerance (`params[AZ_tol]`).
    pub tol: f64,
    /// Iteration cap (`options[AZ_max_iter]`).
    pub max_iter: usize,
    /// GMRES restart space (`options[AZ_kspace]`).
    pub kspace: usize,
    /// Stagnation guard: stop with [`AzWhy::Stagnated`] after this many
    /// consecutive iterations without a new best residual (0 disables —
    /// Aztec itself has no such test). The test uses only the
    /// rank-agreed recurrence residual, so every rank stops identically.
    pub stall_window: usize,
}

impl Default for AztecOptions {
    fn default() -> Self {
        AztecOptions {
            solver: AzSolver::Gmres,
            precond: AzPrecond::None,
            conv: AzConv::R0,
            tol: 1e-8,
            max_iter: 10_000,
            kspace: 30,
            stall_window: 0,
        }
    }
}

/// The status record a solve returns — RAztec's `status[]` array with
/// names (`AZ_its`, `AZ_why`, `AZ_r`, `AZ_scaled_r`).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStatus {
    /// Iterations performed.
    pub its: usize,
    /// Why the iteration stopped.
    pub why: AzWhy,
    /// True final residual norm ‖b − A·x‖₂ (recomputed, not the
    /// recurrence value).
    pub true_residual: f64,
    /// True residual scaled by the convergence normalization.
    pub scaled_residual: f64,
    /// The recurrence (preconditioned) residual the iteration tracked.
    pub rec_residual: f64,
}

/// The solver engine: construct over a matrix + rhs + initial guess, set
/// options, call [`AztecOO::iterate`].
pub struct AztecOO<'a> {
    a: &'a dyn RowMatrix,
    options: AztecOptions,
}

impl<'a> AztecOO<'a> {
    /// New engine for an operator.
    pub fn new(a: &'a dyn RowMatrix) -> Self {
        AztecOO { a, options: AztecOptions::default() }
    }

    /// Set the whole option block.
    pub fn set_options(&mut self, options: AztecOptions) {
        self.options = options;
    }

    /// Borrow options mutably (Aztec style: poke fields, then iterate).
    pub fn options_mut(&mut self) -> &mut AztecOptions {
        &mut self.options
    }

    /// Borrow options.
    pub fn options(&self) -> &AztecOptions {
        &self.options
    }

    fn build_pc(&self) -> AztecResult<Box<dyn AzPc + 'a>> {
        Ok(match self.options.precond {
            AzPrecond::None => Box::new(NoPc),
            AzPrecond::Jacobi => Box::new(JacobiPc::new(self.a)?),
            AzPrecond::Neumann { order } => Box::new(NeumannPc::new(self.a, order)?),
            AzPrecond::SymGs => Box::new(SymGsPc::new(self.a)?),
        })
    }

    /// Run the configured method on A·x = b, updating `x` in place.
    /// Collective.
    pub fn iterate(
        &self,
        comm: &Communicator,
        b: &Vector,
        x: &mut Vector,
    ) -> AztecResult<SolveStatus> {
        if self.options.tol < 0.0 {
            return Err(AztecError::BadOption("tol must be non-negative".into()));
        }
        if self.options.max_iter == 0 {
            return Err(AztecError::BadOption("max_iter must be positive".into()));
        }
        let mut pc = self.build_pc()?;
        let raw = match self.options.solver {
            AzSolver::Cg => solvers::cg(comm, self.a, pc.as_mut(), b, x, &self.options)?,
            AzSolver::Gmres => solvers::gmres(comm, self.a, pc.as_mut(), b, x, &self.options)?,
            AzSolver::BiCgStab => {
                solvers::bicgstab(comm, self.a, pc.as_mut(), b, x, &self.options)?
            }
            AzSolver::Cgs => solvers::cgs(comm, self.a, pc.as_mut(), b, x, &self.options)?,
            AzSolver::Tfqmr => solvers::tfqmr(comm, self.a, pc.as_mut(), b, x, &self.options)?,
        };
        // True residual, recomputed — what Aztec reports in status[AZ_r].
        let mut ax = Vector::new(self.a.row_map().clone());
        let mut r = Vector::new(self.a.row_map().clone());
        solvers::residual(comm, self.a, b, x, &mut ax, &mut r)?;
        let true_residual = r.norm2(comm)?;
        let scale = match self.options.conv {
            AzConv::R0 => {
                if raw.initial_residual > 0.0 {
                    raw.initial_residual
                } else {
                    1.0
                }
            }
            AzConv::Rhs => {
                let bn = b.norm2(comm)?;
                if bn > 0.0 {
                    bn
                } else {
                    1.0
                }
            }
        };
        Ok(SolveStatus {
            its: raw.iterations,
            why: raw.why,
            true_residual,
            scaled_residual: true_residual / scale,
            rec_residual: raw.rec_residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowmatrix::CrsMatrix;
    use rcomm::Universe;
    use rsparse::generate;

    fn run_solver(
        solver: AzSolver,
        precond: AzPrecond,
        a: &rsparse::CsrMatrix,
        ranks: usize,
    ) -> (SolveStatus, f64) {
        let n = a.rows();
        let x_true = generate::random_vector(n, 23);
        let b = a.matvec(&x_true).unwrap();
        let out = Universe::run(ranks, |comm| {
            let m = CrsMatrix::from_global(comm, a).unwrap();
            let bv = Vector::from_global(m.row_map().clone(), &b).unwrap();
            let mut xv = Vector::new(m.row_map().clone());
            let mut az = AztecOO::new(&m);
            az.set_options(AztecOptions {
                solver,
                precond,
                tol: 1e-10,
                max_iter: 3000,
                ..AztecOptions::default()
            });
            let st = az.iterate(comm, &bv, &mut xv).unwrap();
            (st, xv.gather_all(comm).unwrap())
        });
        let (st, full) = out[0].clone();
        let err = full.iter().zip(&x_true).fold(0.0f64, |m, (g, e)| m.max((g - e).abs()));
        (st, err)
    }

    #[test]
    fn cg_solves_spd_problem() {
        let a = generate::laplacian_2d(8);
        for pc in [AzPrecond::None, AzPrecond::Jacobi, AzPrecond::SymGs] {
            let (st, err) = run_solver(AzSolver::Cg, pc, &a, 1);
            assert!(st.why.converged(), "{pc:?}: {:?}", st.why);
            assert!(err < 1e-6, "{pc:?}: err = {err}");
        }
    }

    #[test]
    fn gmres_and_bicgstab_solve_nonsymmetric_problem() {
        let (a, _) = rmesh::paper_problem(10).assemble_global();
        for solver in [AzSolver::Gmres, AzSolver::BiCgStab, AzSolver::Cgs, AzSolver::Tfqmr] {
            for pc in [AzPrecond::Jacobi, AzPrecond::Neumann { order: 2 }, AzPrecond::SymGs] {
                let (st, err) = run_solver(solver, pc, &a, 1);
                assert!(st.why.converged(), "{solver:?}/{pc:?}: {:?}", st.why);
                assert!(err < 1e-6, "{solver:?}/{pc:?}: err = {err}");
            }
        }
    }

    #[test]
    fn parallel_runs_agree_with_serial() {
        let a = generate::laplacian_2d(7);
        let (st1, err1) = run_solver(AzSolver::Gmres, AzPrecond::Jacobi, &a, 1);
        let (st4, err4) = run_solver(AzSolver::Gmres, AzPrecond::Jacobi, &a, 4);
        assert!(st1.why.converged() && st4.why.converged());
        assert!(err1 < 1e-6 && err4 < 1e-6);
        // Jacobi is partition-independent, so iteration counts match.
        assert_eq!(st1.its, st4.its);
    }

    #[test]
    fn status_reports_true_and_scaled_residuals() {
        let a = generate::laplacian_2d(6);
        let (st, _) = run_solver(AzSolver::Cg, AzPrecond::None, &a, 2);
        assert!(st.true_residual < 1e-7);
        assert!(st.scaled_residual <= 1e-9 * 1.01);
        assert!(st.its > 0);
    }

    #[test]
    fn maxits_is_reported() {
        let a = generate::laplacian_2d(10);
        let n = 100;
        let b = vec![1.0; n];
        let out = Universe::run(1, |comm| {
            let m = CrsMatrix::from_global(comm, &a).unwrap();
            let bv = Vector::from_global(m.row_map().clone(), &b).unwrap();
            let mut xv = Vector::new(m.row_map().clone());
            let mut az = AztecOO::new(&m);
            az.options_mut().solver = AzSolver::Cg;
            az.options_mut().tol = 1e-15;
            az.options_mut().max_iter = 2;
            az.iterate(comm, &bv, &mut xv).unwrap()
        });
        assert_eq!(out[0].why, AzWhy::Maxits);
        assert_eq!(out[0].its, 2);
        assert!(!out[0].why.converged());
    }

    #[test]
    fn stagnation_guard_stops_stalled_iteration() {
        // Unpreconditioned CG with a 1-iteration stall window on a stiff
        // problem: the non-monotone residual trips the guard long before
        // max_iter, and identically on every rank.
        let a = generate::laplacian_2d(10);
        let n = 100;
        let b = vec![1.0; n];
        for ranks in [1usize, 2] {
            let out = Universe::run(ranks, |comm| {
                let m = CrsMatrix::from_global(comm, &a).unwrap();
                let bv = Vector::from_global(m.row_map().clone(), &b).unwrap();
                let mut xv = Vector::new(m.row_map().clone());
                let mut az = AztecOO::new(&m);
                az.options_mut().solver = AzSolver::Cg;
                az.options_mut().tol = 1e-300;
                az.options_mut().max_iter = 1_000_000;
                az.options_mut().stall_window = 1;
                az.iterate(comm, &bv, &mut xv).unwrap()
            });
            for st in &out {
                assert_eq!(st.why, out[0].why, "ranks disagree");
                assert_eq!(st.its, out[0].its, "ranks disagree");
            }
            assert_eq!(out[0].why, AzWhy::Stagnated);
            assert!(!out[0].why.converged());
            assert!(out[0].its < 1_000_000);
        }
    }

    #[test]
    fn conv_normalizations_differ() {
        // With x0 = 0, r0 = b, so R0 and Rhs give identical scaling; use a
        // nonzero x0 to tell them apart.
        let a = generate::laplacian_2d(5);
        let n = 25;
        let b = vec![1.0; n];
        let out = Universe::run(1, |comm| {
            let m = CrsMatrix::from_global(comm, &a).unwrap();
            let bv = Vector::from_global(m.row_map().clone(), &b).unwrap();
            let mut results = vec![];
            for conv in [AzConv::R0, AzConv::Rhs] {
                let mut xv = Vector::new(m.row_map().clone());
                xv.put_scalar(100.0);
                let mut az = AztecOO::new(&m);
                az.options_mut().solver = AzSolver::Cg;
                az.options_mut().conv = conv;
                az.options_mut().tol = 1e-6;
                results.push(az.iterate(comm, &bv, &mut xv).unwrap());
            }
            results
        });
        let (r0, rhs) = (&out[0][0], &out[0][1]);
        assert!(r0.why.converged() && rhs.why.converged());
        // ‖r₀‖ >> ‖b‖ here, so the R0 test is weaker and stops earlier.
        assert!(r0.its <= rhs.its);
    }

    #[test]
    fn option_parsing() {
        assert_eq!(AzSolver::parse("AZ_gmres").unwrap(), AzSolver::Gmres);
        assert_eq!(AzSolver::parse("cg").unwrap(), AzSolver::Cg);
        assert_eq!(AzSolver::parse("az_cgs").unwrap(), AzSolver::Cgs);
        assert_eq!(AzSolver::parse("tfqmr").unwrap(), AzSolver::Tfqmr);
        assert!(AzSolver::parse("qmr").is_err());
        assert_eq!(AzPrecond::parse("az_jacobi").unwrap(), AzPrecond::Jacobi);
        assert_eq!(AzPrecond::parse("neumann").unwrap(), AzPrecond::Neumann { order: 3 });
        assert_eq!(AzPrecond::parse("sym_gs").unwrap(), AzPrecond::SymGs);
        assert!(AzPrecond::parse("ilu9").is_err());
    }

    #[test]
    fn bad_options_are_rejected() {
        let a = generate::laplacian_2d(3);
        let out = Universe::run(1, |comm| {
            let m = CrsMatrix::from_global(comm, &a).unwrap();
            let bv = Vector::new(m.row_map().clone());
            let mut xv = Vector::new(m.row_map().clone());
            let mut az = AztecOO::new(&m);
            az.options_mut().tol = -1.0;
            let e1 = az.iterate(comm, &bv, &mut xv).is_err();
            az.options_mut().tol = 1e-8;
            az.options_mut().max_iter = 0;
            let e2 = az.iterate(comm, &bv, &mut xv).is_err();
            e1 && e2
        });
        assert!(out[0]);
    }
}
