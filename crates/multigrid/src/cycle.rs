//! V/W-cycles and the multigrid solver driver.

use rsparse::CsrMatrix;

use crate::hierarchy::Hierarchy;
use crate::smoother::Smoother;
use crate::{MgError, MgResultT};

/// Cycle shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleType {
    /// One coarse-grid visit per level.
    V,
    /// Two coarse-grid visits per level (more robust, more work).
    W,
}

/// A pluggable coarse-solve callback `(a, b) -> x`.
pub type CoarseCallback = Box<dyn Fn(&CsrMatrix, &[f64]) -> Result<Vec<f64>, String> + Send + Sync>;

/// The coarsest-grid solver. Pluggable so that a *different package* can
/// serve the coarse problem — the recursion scenario of paper §5.2e.
pub enum CoarseSolver {
    /// Dense LU on the coarsest operator (default).
    DenseLu,
    /// A user callback `(a, b) -> x`; any failure aborts the cycle.
    Callback(CoarseCallback),
}

impl std::fmt::Debug for CoarseSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoarseSolver::DenseLu => f.write_str("DenseLu"),
            CoarseSolver::Callback(_) => f.write_str("Callback(..)"),
        }
    }
}

/// Multigrid configuration.
#[derive(Debug)]
pub struct MgConfig {
    /// Pre-smoothing sweeps.
    pub nu1: usize,
    /// Post-smoothing sweeps.
    pub nu2: usize,
    /// Cycle shape.
    pub cycle: CycleType,
    /// The smoother.
    pub smoother: Smoother,
    /// Coarsest-grid solver.
    pub coarse: CoarseSolver,
    /// Relative tolerance on ‖r‖/‖b‖ for [`RmgSolver::solve`].
    pub rtol: f64,
    /// Cycle cap for [`RmgSolver::solve`].
    pub max_cycles: usize,
}

impl Default for MgConfig {
    fn default() -> Self {
        MgConfig {
            nu1: 2,
            nu2: 2,
            cycle: CycleType::V,
            smoother: Smoother::Jacobi { omega: 0.8 },
            coarse: CoarseSolver::DenseLu,
            rtol: 1e-8,
            max_cycles: 100,
        }
    }
}

/// Outcome of an [`RmgSolver::solve`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct MgResult {
    /// Cycles performed.
    pub cycles: usize,
    /// Converged within `max_cycles`?
    pub converged: bool,
    /// ‖b − A·x‖₂ / ‖b‖₂ at exit.
    pub relative_residual: f64,
    /// Residual-norm history per cycle (entry 0 = initial).
    pub history: Vec<f64>,
}

/// The multigrid solver: a borrowed hierarchy plus a configuration. The
/// hierarchy is built once and lent to every solver that cycles on it.
#[derive(Debug)]
pub struct RmgSolver<'h> {
    hierarchy: &'h Hierarchy,
    config: MgConfig,
}

impl<'h> RmgSolver<'h> {
    /// Assemble over a prebuilt hierarchy.
    pub fn new(hierarchy: &'h Hierarchy, config: MgConfig) -> MgResultT<Self> {
        if config.nu1 + config.nu2 == 0 {
            return Err(MgError::BadConfig("need at least one smoothing sweep".into()));
        }
        if config.max_cycles == 0 {
            return Err(MgError::BadConfig("max_cycles must be positive".into()));
        }
        Ok(RmgSolver { hierarchy, config })
    }

    /// Borrow the hierarchy.
    pub fn hierarchy(&self) -> &'h Hierarchy {
        self.hierarchy
    }

    /// One multigrid cycle on level `l` for A_l·x = b (x updated in
    /// place).
    fn cycle(&self, l: usize, b: &[f64], x: &mut [f64]) -> MgResultT<()> {
        let level = self.hierarchy.level(l);
        let a = &level.a;
        // Coarsest level: direct solve.
        if l + 1 == self.hierarchy.num_levels() {
            let sol = match &self.config.coarse {
                CoarseSolver::DenseLu => {
                    a.to_dense().solve(b).map_err(|e| MgError::Sparse(e.to_string()))?
                }
                CoarseSolver::Callback(f) => f(a, b).map_err(MgError::CoarseSolver)?,
            };
            x.copy_from_slice(&sol);
            return Ok(());
        }
        let visits = match self.config.cycle {
            CycleType::V => 1,
            CycleType::W => 2,
        };
        self.config.smoother.smooth(a, b, x, self.config.nu1)?;
        for _ in 0..visits {
            // Residual, restrict, recurse, correct.
            let r = rsparse::ops::residual(a, x, b)?;
            let restrict = level.r.as_ref().expect("non-coarsest level has R");
            let rc = restrict.matvec(&r)?;
            let mut ec = vec![0.0; rc.len()];
            self.cycle(l + 1, &rc, &mut ec)?;
            let p = level.p.as_ref().expect("non-coarsest level has P");
            let ef = p.matvec(&ec)?;
            rsparse::dense::axpy(1.0, &ef, x);
        }
        self.config.smoother.smooth(a, b, x, self.config.nu2)?;
        Ok(())
    }

    /// Run one cycle on the finest level (the preconditioner-style entry
    /// point).
    pub fn apply_cycle(&self, b: &[f64], x: &mut [f64]) -> MgResultT<()> {
        self.cycle(0, b, x)
    }

    /// Iterate cycles until the relative residual drops below `rtol`.
    pub fn solve(&self, b: &[f64], x: &mut [f64]) -> MgResultT<MgResult> {
        let a = &self.hierarchy.level(0).a;
        let bnorm = rsparse::dense::norm2(b).max(f64::MIN_POSITIVE);
        let mut history = Vec::with_capacity(self.config.max_cycles + 1);
        let r0 = rsparse::dense::norm2(&rsparse::ops::residual(a, x, b)?);
        history.push(r0);
        let mut rel = r0 / bnorm;
        let mut cycles = 0usize;
        while rel > self.config.rtol && cycles < self.config.max_cycles {
            self.cycle(0, b, x)?;
            cycles += 1;
            let rn = rsparse::dense::norm2(&rsparse::ops::residual(a, x, b)?);
            history.push(rn);
            rel = rn / bnorm;
            if !rel.is_finite() {
                return Err(MgError::Sparse("residual diverged".into()));
            }
        }
        Ok(MgResult { cycles, converged: rel <= self.config.rtol, relative_residual: rel, history })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::CoarseOperator;
    use rsparse::generate;

    fn poisson_hierarchy(m: usize) -> Hierarchy {
        let a = generate::laplacian_2d(m);
        Hierarchy::build(a, m, CoarseOperator::Galerkin, 10, 1, None).unwrap()
    }

    #[test]
    fn v_cycle_solves_poisson_fast() {
        let m = 31;
        let h = poisson_hierarchy(m);
        let solver = RmgSolver::new(&h, MgConfig::default()).unwrap();
        let n = m * m;
        let x_true = generate::random_vector(n, 7);
        let a = generate::laplacian_2d(m);
        let b = a.matvec(&x_true).unwrap();
        let mut x = vec![0.0; n];
        let res = solver.solve(&b, &mut x).unwrap();
        assert!(res.converged);
        assert!(res.cycles <= 15, "multigrid should converge in O(1) cycles, took {}", res.cycles);
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-6);
        }
    }

    #[test]
    fn cycle_count_is_mesh_independent() {
        // The multigrid signature: iterations don't grow with the grid.
        let counts: Vec<usize> = [7usize, 15, 31]
            .iter()
            .map(|&m| {
                let h = poisson_hierarchy(m);
                let solver = RmgSolver::new(&h, MgConfig::default()).unwrap();
                let n = m * m;
                let b = vec![1.0; n];
                let mut x = vec![0.0; n];
                solver.solve(&b, &mut x).unwrap().cycles
            })
            .collect();
        let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
        assert!(spread <= 3, "cycle counts should be nearly constant: {counts:?}");
    }

    #[test]
    fn w_cycle_converges_at_least_as_fast_per_cycle() {
        let m = 15;
        let h = poisson_hierarchy(m);
        let mk = |cycle| RmgSolver::new(&h, MgConfig { cycle, ..MgConfig::default() }).unwrap();
        let b = vec![1.0; m * m];
        let mut xv = vec![0.0; m * m];
        let rv = mk(CycleType::V).solve(&b, &mut xv).unwrap();
        let mut xw = vec![0.0; m * m];
        let rw = mk(CycleType::W).solve(&b, &mut xw).unwrap();
        assert!(rv.converged && rw.converged);
        assert!(rw.cycles <= rv.cycles);
    }

    #[test]
    fn gauss_seidel_smoother_beats_jacobi_cycles() {
        let m = 15;
        let b = vec![1.0; m * m];
        let h = poisson_hierarchy(m);
        let run = |smoother| {
            let solver = RmgSolver::new(&h, MgConfig { smoother, ..MgConfig::default() }).unwrap();
            let mut x = vec![0.0; m * m];
            solver.solve(&b, &mut x).unwrap().cycles
        };
        let j = run(Smoother::Jacobi { omega: 0.8 });
        let gs = run(Smoother::SymGaussSeidel);
        assert!(gs <= j, "sym-GS ({gs}) should need no more cycles than Jacobi ({j})");
    }

    #[test]
    fn history_is_strictly_decreasing_for_poisson() {
        let h = poisson_hierarchy(15);
        let solver = RmgSolver::new(&h, MgConfig::default()).unwrap();
        let b = vec![1.0; 225];
        let mut x = vec![0.0; 225];
        let res = solver.solve(&b, &mut x).unwrap();
        for w in res.history.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn callback_coarse_solver_is_invoked() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        let config = MgConfig {
            coarse: CoarseSolver::Callback(Box::new(move |a, b| {
                hits2.fetch_add(1, Ordering::Relaxed);
                a.to_dense().solve(b).map_err(|e| e.to_string())
            })),
            ..MgConfig::default()
        };
        let h = poisson_hierarchy(15);
        let solver = RmgSolver::new(&h, config).unwrap();
        let b = vec![1.0; 225];
        let mut x = vec![0.0; 225];
        let res = solver.solve(&b, &mut x).unwrap();
        assert!(res.converged);
        assert_eq!(hits.load(Ordering::Relaxed), res.cycles);
    }

    #[test]
    fn failing_coarse_callback_aborts() {
        let config = MgConfig {
            coarse: CoarseSolver::Callback(Box::new(|_, _| Err("nope".into()))),
            ..MgConfig::default()
        };
        let h = poisson_hierarchy(7);
        let solver = RmgSolver::new(&h, config).unwrap();
        let b = vec![1.0; 49];
        let mut x = vec![0.0; 49];
        assert!(matches!(solver.solve(&b, &mut x), Err(MgError::CoarseSolver(_))));
    }

    #[test]
    fn config_validation() {
        let a = generate::laplacian_2d(7);
        let h = Hierarchy::build(a, 7, CoarseOperator::Galerkin, 10, 1, None).unwrap();
        assert!(RmgSolver::new(&h, MgConfig { nu1: 0, nu2: 0, ..MgConfig::default() }).is_err());
    }

    #[test]
    fn single_level_hierarchy_degenerates_to_direct_solve() {
        // An even grid cannot coarsen: RMG becomes a dense solve.
        let m = 8;
        let a = generate::laplacian_2d(m);
        let h = Hierarchy::build(a.clone(), m, CoarseOperator::Galerkin, 10, 1, None).unwrap();
        let solver = RmgSolver::new(&h, MgConfig::default()).unwrap();
        let x_true = generate::random_vector(64, 3);
        let b = a.matvec(&x_true).unwrap();
        let mut x = vec![0.0; 64];
        let res = solver.solve(&b, &mut x).unwrap();
        assert!(res.converged);
        assert_eq!(res.cycles, 1);
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-9);
        }
    }
}
