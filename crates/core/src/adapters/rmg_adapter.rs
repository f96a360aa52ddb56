//! The RMG (multigrid) backend — the multilevel member of the family
//! (paper §2.2 "multilevel method support"). The operator must be a
//! square-grid discretization (`global_cols = m²`); the hierarchy is
//! built once per session key. The coarse solver is pluggable, which is
//! how the recursion demo (`examples/multigrid_recursion.rs`) nests one
//! LISI solver inside another (paper §5.2e).

use std::sync::Arc;

use parking_lot::Mutex;
use rcomm::Communicator;
use rmg::{CoarseOperator, CoarseSolver, CycleType, Hierarchy, MgConfig, RmgSolver, Smoother};
use rsparse::{BlockRowPartition, CsrMatrix, DistCsrMatrix};

use super::pipeline::{Adapter, Backend};
use crate::error::{LisiError, LisiResult};
use crate::ledger::SolveInfo;
use crate::state::LisiState;
use crate::status::SolveReport;

/// Session-cached setup: the partition and, on rank 0, the prebuilt
/// multigrid hierarchy (the Galerkin coarse operators are by far the
/// expensive part of RMG setup). The hierarchy is independent of the
/// pluggable coarse-grid *solver*, which binds per solve via
/// [`MgConfig`], so caching it is safe even across instances with
/// different coarse callbacks.
pub struct RmgArtifact {
    partition: BlockRowPartition,
    hierarchy: Option<Hierarchy>,
}

/// Signature of a pluggable coarse-grid solver.
pub type CoarseFn = dyn Fn(&CsrMatrix, &[f64]) -> Result<Vec<f64>, String> + Send + Sync + 'static;

/// The parsed option table plus the grid side the operator implies.
pub struct RmgConfig {
    grid_side: usize,
    mg: MgConfig,
}

/// The RMG geometric multigrid package beneath the LISI port.
#[derive(Default)]
pub struct Rmg {
    coarse: Mutex<Option<Arc<CoarseFn>>>,
}

/// LISI over the RMG geometric multigrid package.
pub type RmgAdapter = Adapter<Rmg>;

impl RmgAdapter {
    /// Plug a coarse-grid solver callback (e.g. another LISI solver —
    /// recursion through the interface).
    pub fn set_coarse_solver(
        &self,
        f: impl Fn(&CsrMatrix, &[f64]) -> Result<Vec<f64>, String> + Send + Sync + 'static,
    ) {
        *self.backend.coarse.lock() = Some(Arc::new(f));
    }

    fn mg_config(state: &LisiState, coarse: Option<Arc<CoarseFn>>) -> LisiResult<MgConfig> {
        let mut cfg = MgConfig::default();
        if let Some(c) = state.options.get("cycle") {
            cfg.cycle = match c.to_ascii_lowercase().as_str() {
                "v" => CycleType::V,
                "w" => CycleType::W,
                other => return Err(LisiError::bad_parameter("cycle", other)),
            };
        }
        let opts = &state.options;
        let omega = opts.parse_first(&["omega"])?.unwrap_or(0.8);
        if let Some(s) = state.options.get("smoother") {
            cfg.smoother = match s.to_ascii_lowercase().as_str() {
                "jacobi" => Smoother::Jacobi { omega },
                "gs" | "gauss_seidel" => Smoother::GaussSeidel,
                "sgs" | "sym_gs" => Smoother::SymGaussSeidel,
                other => return Err(LisiError::bad_parameter("smoother", other)),
            };
        }
        cfg.nu1 = opts.parse_first(&["nu1"])?.unwrap_or(cfg.nu1);
        cfg.nu2 = opts.parse_first(&["nu2"])?.unwrap_or(cfg.nu2);
        cfg.rtol = opts.parse_first(&["tol", "rtol"])?.unwrap_or(cfg.rtol);
        cfg.max_cycles = opts.parse_first(&["maxits", "max_cycles"])?.unwrap_or(cfg.max_cycles);
        if let Some(f) = coarse {
            cfg.coarse = CoarseSolver::Callback(Box::new(move |a, b| f(a, b)));
        }
        Ok(cfg)
    }
}

impl Backend for Rmg {
    const NAME: &'static str = "rmg";
    const GATHERS_TO_ROOT: bool = true;
    type Config = RmgConfig;
    type Artifact = RmgArtifact;

    fn configure(&self, st: &LisiState) -> LisiResult<RmgConfig> {
        let n = st.global_cols.unwrap_or(0);
        let grid_side = (n as f64).sqrt().round() as usize;
        if grid_side * grid_side != n {
            return Err(LisiError::Unsupported(format!(
                "RMG requires a square-grid operator; {n} is not a perfect square"
            )));
        }
        Ok(RmgConfig { grid_side, mg: RmgAdapter::mg_config(st, self.coarse.lock().clone())? })
    }

    fn labels(options: &rkrylov::Options) -> (Option<String>, Option<String>, Option<f64>) {
        let rtol = options.get_first(&["tol", "rtol"]).and_then(|v| v.parse().ok());
        (Some("multigrid".into()), options.get("smoother"), rtol)
    }

    /// Gather the system to rank 0 (multigrid here is the serial member
    /// of the family; see DESIGN.md) and build the hierarchy once, to be
    /// shared by every column and every warm solve.
    fn build(
        cfg: &RmgConfig,
        comm: &Communicator,
        partition: BlockRowPartition,
        matrix: &Arc<CsrMatrix>,
    ) -> LisiResult<RmgArtifact> {
        let dist = DistCsrMatrix::from_local_rows(comm, partition.clone(), Arc::clone(matrix))?;
        let hierarchy = dist
            .gather_to_root(comm, 0)?
            .map(|a| Hierarchy::build(a, cfg.grid_side, CoarseOperator::Galerkin, 20, 1, None))
            .transpose()?;
        Ok(RmgArtifact { partition, hierarchy })
    }

    /// Rank 0 runs the cycles on the cached hierarchy, which it lends to
    /// the solver instead of copying. One gather brings every column's
    /// right-hand side and guess to the root; one scatter hands each rank
    /// its rows of every solution with the root's verdict — or the root's
    /// error (the solver's configuration check, a cycle, the coarse
    /// callback), so every rank returns the same typed error instead of
    /// waiting for a rank that already left.
    fn run(
        art: &RmgArtifact,
        cfg: RmgConfig,
        comm: &Communicator,
        rhs: &[f64],
        x: &mut [f64],
        n_rhs: usize,
        _batched: bool,
    ) -> LisiResult<SolveInfo> {
        let part = &art.partition;
        let local: Vec<f64> = rhs.iter().chain(x.iter()).copied().collect();
        let chunks = comm.gatherv(0, &local)?.map(|gathered| {
            let hierarchy = art.hierarchy.as_ref().expect("the root holds the hierarchy");
            let solved = cycle_columns(hierarchy, cfg.mg, part, comm.size(), &gathered, n_rhs);
            let n = part.global_rows();
            (0..comm.size())
                .map(|r| {
                    let slice = solved.as_ref().map_err(LisiError::clone).map(|(xs, report)| {
                        let rows = (0..n_rhs).flat_map(|q| &xs[q * n..][part.range(r)]);
                        (rows.copied().collect::<Vec<f64>>(), *report)
                    });
                    vec![slice]
                })
                .collect()
        });
        let (mine, report) = comm.scatter(0, chunks)?.pop().expect("one outcome per rank")?;
        x.copy_from_slice(&mine);
        Ok(SolveInfo { report, ..Default::default() })
    }
}

/// The root's share of [`Rmg::run`]: unpack the gathered columns (rank
/// by rank, each rank's right-hand sides then its guesses), cycle each
/// column to its verdict, and return every solution column-major with
/// one report — the most cycles, whether all converged, the worst
/// relative residual.
fn cycle_columns(
    hierarchy: &Hierarchy,
    mg: MgConfig,
    part: &BlockRowPartition,
    ranks: usize,
    gathered: &[f64],
    k: usize,
) -> LisiResult<(Vec<f64>, SolveReport)> {
    let solver = RmgSolver::new(hierarchy, mg)?;
    let n = part.global_rows();
    let (mut b, mut xs) = (vec![0.0; k * n], vec![0.0; k * n]);
    let mut chunk = gathered;
    for r in 0..ranks {
        let range = part.range(r);
        let rows = range.len();
        for q in 0..k {
            b[q * n..][range.clone()].copy_from_slice(&chunk[q * rows..(q + 1) * rows]);
            xs[q * n..][range.clone()].copy_from_slice(&chunk[(k + q) * rows..(k + q + 1) * rows]);
        }
        chunk = &chunk[2 * k * rows..];
    }
    let mut report = SolveReport { converged: true, reason: 1, ..Default::default() };
    for q in 0..k {
        let col = q * n..(q + 1) * n;
        let res = solver.solve(&b[col.clone()], &mut xs[col])?;
        report.converged &= res.converged;
        report.iterations = report.iterations.max(res.cycles);
        report.residual = report.residual.max(res.relative_residual);
        if !res.converged {
            report.reason = -1;
        }
    }
    Ok((xs, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::{SolveReport, STATUS_LEN};
    use crate::SparseSolverPort;
    use rcomm::Universe;
    use rsparse::BlockRowPartition;

    fn poisson_via_rmg(p: usize, m: usize, opts: &[(&str, &str)]) -> (SolveReport, f64) {
        let a = rsparse::generate::laplacian_2d(m);
        let n = m * m;
        let x_true = rsparse::generate::random_vector(n, 5);
        let b = a.matvec(&x_true).unwrap();
        let out = Universe::run(p, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let range = part.range(comm.rank());
            let local = a.row_block(range.start, range.end).unwrap();
            let solver = RmgAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(range.start).unwrap();
            solver.set_local_rows(range.len()).unwrap();
            solver.set_global_cols(n).unwrap();
            for (k, v) in opts {
                solver.set(k, v).unwrap();
            }
            solver
                .setup_matrix(
                    local.values(),
                    local.row_ptr(),
                    local.col_idx(),
                    crate::SparseStruct::Csr,
                )
                .unwrap();
            solver.setup_rhs(&b[range.clone()], 1).unwrap();
            let mut x = vec![0.0; range.len()];
            let mut status = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut status).unwrap();
            (SolveReport::from_slice(&status), comm.allgatherv(&x).unwrap())
        });
        let (rep, full) = &out[0];
        let err = full.iter().zip(&x_true).fold(0.0f64, |mx, (g, e)| mx.max((g - e).abs()));
        (*rep, err)
    }

    #[test]
    fn solves_poisson_with_grid_independent_cycles() {
        let (rep7, err7) = poisson_via_rmg(1, 7, &[("tol", "1e-9")]);
        let (rep15, err15) = poisson_via_rmg(1, 15, &[("tol", "1e-9")]);
        assert!(rep7.converged && rep15.converged);
        assert!(err7 < 1e-6 && err15 < 1e-6);
        assert!(rep15.iterations <= rep7.iterations + 3, "mesh-independent cycle count");
    }

    #[test]
    fn parallel_gather_solve_scatter_works() {
        let (rep, err) = poisson_via_rmg(3, 15, &[("tol", "1e-9"), ("cycle", "w")]);
        assert!(rep.converged);
        assert!(err < 1e-6, "err = {err}");
    }

    #[test]
    fn smoother_and_cycle_options_are_validated() {
        let st = LisiState {
            options: {
                let mut o = rkrylov::Options::new();
                o.set("cycle", "x");
                o
            },
            ..LisiState::default()
        };
        assert!(RmgAdapter::mg_config(&st, None).is_err());
        let st2 = LisiState {
            options: {
                let mut o = rkrylov::Options::new();
                o.set("smoother", "magic");
                o
            },
            ..LisiState::default()
        };
        assert!(RmgAdapter::mg_config(&st2, None).is_err());
        let st3 = LisiState {
            options: {
                let mut o = rkrylov::Options::new();
                o.set("cycle", "W");
                o.set("smoother", "sgs");
                o.set_int("nu1", 1);
                o.set_int("nu2", 3);
                o
            },
            ..LisiState::default()
        };
        let cfg = RmgAdapter::mg_config(&st3, None).unwrap();
        assert_eq!(cfg.cycle, CycleType::W);
        assert_eq!(cfg.nu1, 1);
        assert_eq!(cfg.nu2, 3);
    }

    #[test]
    fn non_square_grid_is_unsupported() {
        let out = Universe::run(1, |comm| {
            let solver = RmgAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(0).unwrap();
            solver.set_local_rows(12).unwrap();
            solver.set_global_cols(12).unwrap();
            let a = rsparse::generate::laplacian_1d(12);
            solver
                .setup_matrix(a.values(), a.row_ptr(), a.col_idx(), crate::SparseStruct::Csr)
                .unwrap();
            solver.setup_rhs(&[1.0; 12], 1).unwrap();
            let mut x = vec![0.0; 12];
            let mut s = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut s).unwrap_err()
        });
        assert!(matches!(&out[0], LisiError::Unsupported(_)));
    }

    #[test]
    fn pluggable_coarse_solver_is_called() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        let a = rsparse::generate::laplacian_2d(7);
        let n = 49;
        let b = a.matvec(&vec![1.0; n]).unwrap();
        let out = Universe::run(1, move |comm| {
            let solver = RmgAdapter::new();
            let h = Arc::clone(&hits2);
            solver.set_coarse_solver(move |a, b| {
                h.fetch_add(1, Ordering::Relaxed);
                a.to_dense().solve(b).map_err(|e| e.to_string())
            });
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(0).unwrap();
            solver.set_local_rows(n).unwrap();
            solver.set_global_cols(n).unwrap();
            solver
                .setup_matrix(a.values(), a.row_ptr(), a.col_idx(), crate::SparseStruct::Csr)
                .unwrap();
            solver.setup_rhs(&b, 1).unwrap();
            let mut x = vec![0.0; n];
            let mut s = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut s).unwrap();
            SolveReport::from_slice(&s).converged
        });
        assert!(out[0]);
        assert!(hits.load(std::sync::atomic::Ordering::Relaxed) > 0);
    }
}
