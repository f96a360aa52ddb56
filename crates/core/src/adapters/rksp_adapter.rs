//! The RKSP (PETSc-like) backend — the reference LISI implementation,
//! including the matrix-free path through the `lisi.MatrixFree` port.

use std::sync::Arc;

use rcomm::Communicator;
use rkrylov::{Ksp, KspConfig, LinearOperator, MatOperator, Preconditioner, ShellOperator};
use rsparse::{BlockRowPartition, CsrMatrix, DistCsrMatrix, DistVector};

use super::pipeline::{Adapter, Backend};
use crate::error::LisiResult;
use crate::ledger::SolveInfo;
use crate::state::LisiState;
use crate::status::SolveReport;
use crate::traits::MatrixFreePort;
use crate::types::OperatorId;

/// What RKSP set-up produces. From the session cache, a second solve of
/// a fingerprint-identical system (same pattern, same value bits, same
/// options, same distribution) reuses both and performs *zero* setup —
/// no partition allgather, no halo or SpMV plan, no preconditioner
/// factorization (paper §5.2 b/c, extended across component instances).
pub struct RkspArtifact {
    operator: Box<dyn LinearOperator>,
    pc: Box<dyn Preconditioner>,
}

/// The parsed option table.
pub struct RkspConfig {
    ksp: Ksp,
    /// The preconditioner is the application's `MatrixFree` port with
    /// `ID = PRECONDITIONER`, not one of the package's own.
    port_pc: bool,
}

/// The RKSP iterative package beneath the LISI port.
#[derive(Default)]
pub struct Rksp;

/// LISI over the RKSP iterative package.
pub type RkspAdapter = Adapter<Rksp>;

/// The preconditioner that forwards to the application's `MatrixFree`
/// port with `ID = PRECONDITIONER`.
struct PortPc(Arc<dyn MatrixFreePort>);

impl Preconditioner for PortPc {
    fn apply(
        &self,
        _comm: &Communicator,
        r: &DistVector,
        z: &mut DistVector,
    ) -> Result<(), rkrylov::KspError> {
        self.0
            .mat_mult(OperatorId::Preconditioner, r.local(), z.local_mut())
            .map_err(|e| rkrylov::KspError::Nonconforming(e.to_string()))
    }
    fn name(&self) -> &'static str {
        "matrix-free"
    }
}

impl Backend for Rksp {
    const NAME: &'static str = "rksp";
    type Config = RkspConfig;
    type Artifact = RkspArtifact;

    fn configure(&self, st: &LisiState) -> LisiResult<RkspConfig> {
        let port_pc = st.matrix_free_requested()
            && st.options.get("preconditioner").as_deref() == Some("matrix_free");
        let mut opts = st.options.clone();
        if port_pc {
            // "matrix_free" is not a package preconditioner name; the
            // port supplies the application's preconditioner instead.
            opts.set("preconditioner", "none");
        }
        Ok(RkspConfig { ksp: Ksp::new(KspConfig::from_options(&opts)?)?, port_pc })
    }

    fn labels(options: &rkrylov::Options) -> (Option<String>, Option<String>, Option<f64>) {
        let rtol = options.get_first(&["ksp_rtol", "tol", "rtol"]).and_then(|v| v.parse().ok());
        (options.get("solver"), options.get("preconditioner"), rtol)
    }

    fn build(
        cfg: &RkspConfig,
        comm: &Communicator,
        partition: BlockRowPartition,
        matrix: &Arc<CsrMatrix>,
    ) -> LisiResult<RkspArtifact> {
        let dist = DistCsrMatrix::from_local_rows(comm, partition, Arc::clone(matrix))?;
        let operator = Box::new(MatOperator::new(dist));
        let pc = cfg.ksp.make_pc(operator.as_ref())?;
        Ok(RkspArtifact { operator, pc })
    }

    fn build_matrix_free(
        cfg: &RkspConfig,
        _comm: &Communicator,
        partition: BlockRowPartition,
        port: LisiResult<Arc<dyn MatrixFreePort>>,
    ) -> LisiResult<RkspArtifact> {
        let port = port?;
        let apply_port = Arc::clone(&port);
        let shell = ShellOperator::new(partition, move |_, x, y| {
            apply_port
                .mat_mult(OperatorId::Matrix, x.local(), y.local_mut())
                .map_err(|e| e.to_string())
        });
        let pc = if cfg.port_pc { Box::new(PortPc(port)) } else { cfg.ksp.make_pc(&shell)? };
        Ok(RkspArtifact { operator: Box::new(shell), pc })
    }

    fn run(
        art: &RkspArtifact,
        cfg: RkspConfig,
        comm: &Communicator,
        rhs: &[f64],
        x: &mut [f64],
        n_rhs: usize,
        batched: bool,
    ) -> LisiResult<SolveInfo> {
        let (op, pc) = (art.operator.as_ref(), art.pc.as_ref());
        let rows = op.partition().local_rows(comm.rank());
        let report = SolveReport { converged: true, ..Default::default() };
        let mut info = SolveInfo { report, ..Default::default() };
        let mut fold = |res: &rkrylov::KspResult| {
            info.cond_estimate = res.cond_estimate.or(info.cond_estimate);
            info.initial_residual = Some(res.initial_residual);
            let report = &mut info.report;
            // The first column that failed names the reason.
            if report.converged {
                report.reason = match res.reason {
                    rkrylov::ConvergedReason::RelativeTolerance => 1,
                    rkrylov::ConvergedReason::AbsoluteTolerance => 2,
                    rkrylov::ConvergedReason::MaxIterations => -1,
                    rkrylov::ConvergedReason::Breakdown => -2,
                    rkrylov::ConvergedReason::Diverged => -3,
                    rkrylov::ConvergedReason::Stagnated => -4,
                    rkrylov::ConvergedReason::TimedOut => -5,
                };
            }
            report.converged &= res.converged();
            report.iterations = report.iterations.max(res.iterations);
            report.residual = report.residual.max(res.final_residual);
        };
        // Batched: one call on every column, which CG and GMRES run in
        // lockstep (one fused multi-vector SpMV a step, per-step reductions
        // batched across the columns). Otherwise one call a column.
        let (width, calls) = if batched { (n_rhs, 1) } else { (1, n_rhs) };
        for call in 0..calls {
            let cols = call * width * rows..(call + 1) * width * rows;
            let (b, x) = (&rhs[cols.clone()], &mut x[cols]);
            cfg.ksp.solve_batch_with_pc(comm, op, pc, b, x, width)?.iter().for_each(&mut fold);
        }
        Ok(info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::{SolveReport, STATUS_LEN};
    use crate::{LisiError, SparseSolverPort};
    use rcomm::Universe;
    use rsparse::BlockRowPartition;

    /// Drive the adapter exactly as an application would, on `p` ranks.
    fn solve_paper_problem(p: usize, opts: &[(&str, &str)]) -> (SolveReport, f64) {
        let m = 10;
        let man = rmesh::manufactured::paper_manufactured(m);
        let n = man.exact.len();
        let a = man.matrix.clone();
        let b = man.rhs.clone();
        let out = Universe::run(p, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let rank = comm.rank();
            let range = part.range(rank);
            let local = a.row_block(range.start, range.end).unwrap();

            let solver = RkspAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(range.start).unwrap();
            solver.set_local_rows(range.len()).unwrap();
            solver.set_local_nnz(local.nnz()).unwrap();
            solver.set_global_cols(n).unwrap();
            for (k, v) in opts {
                solver.set(k, v).unwrap();
            }
            // Feed CSR arrays with *global* rows realized as local ptr.
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
        (*rep, man.error_inf(full))
    }

    #[test]
    fn serial_solve_recovers_manufactured_solution() {
        let (rep, err) = solve_paper_problem(
            1,
            &[("solver", "bicgstab"), ("preconditioner", "ilu"), ("tol", "1e-10")],
        );
        assert!(rep.converged);
        assert!(rep.iterations > 0);
        assert!(err < 1e-6, "err = {err}");
        assert!(rep.residual < 1e-6);
        assert!(rep.solve_seconds > 0.0);
    }

    #[test]
    fn parallel_solve_matches() {
        for p in [2usize, 4] {
            let (rep, err) = solve_paper_problem(
                p,
                &[("solver", "gmres"), ("preconditioner", "jacobi"), ("tol", "1e-10")],
            );
            assert!(rep.converged, "p = {p}");
            assert!(err < 1e-6, "p = {p}: err = {err}");
        }
    }

    #[test]
    fn multi_rhs_solves_columnwise() {
        let n = 36;
        let a = rsparse::generate::laplacian_2d(6);
        let x1 = rsparse::generate::random_vector(n, 1);
        let x2 = rsparse::generate::random_vector(n, 2);
        let mut b = a.matvec(&x1).unwrap();
        b.extend(a.matvec(&x2).unwrap());
        let out = Universe::run(1, |comm| {
            let solver = RkspAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(0).unwrap();
            solver.set_local_rows(n).unwrap();
            solver.set_global_cols(n).unwrap();
            solver.set("solver", "cg").unwrap();
            solver.set("preconditioner", "icc").unwrap();
            solver.set_double("tol", 1e-11).unwrap();
            solver
                .setup_matrix(a.values(), a.row_ptr(), a.col_idx(), crate::SparseStruct::Csr)
                .unwrap();
            solver.setup_rhs(&b, 2).unwrap();
            let mut x = vec![0.0; 2 * n];
            let mut status = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut status).unwrap();
            x
        });
        for (g, e) in out[0][..n].iter().zip(&x1) {
            assert!((g - e).abs() < 1e-7);
        }
        for (g, e) in out[0][n..].iter().zip(&x2) {
            assert!((g - e).abs() < 1e-7);
        }
    }

    #[test]
    fn matrix_free_solve_through_the_port() {
        // The application provides A·x (a 1-D Laplacian stencil) through
        // the MatrixFree port; no assembled matrix ever reaches the
        // solver.
        struct Stencil {
            n: usize,
        }
        impl MatrixFreePort for Stencil {
            fn mat_mult(&self, id: OperatorId, x: &[f64], y: &mut [f64]) -> LisiResult<()> {
                assert_eq!(id, OperatorId::Matrix);
                for i in 0..self.n {
                    let mut acc = 2.0 * x[i];
                    if i > 0 {
                        acc -= x[i - 1];
                    }
                    if i + 1 < self.n {
                        acc -= x[i + 1];
                    }
                    y[i] = acc;
                }
                Ok(())
            }
        }
        let n = 24;
        let a = rsparse::generate::laplacian_1d(n);
        let x_true = rsparse::generate::random_vector(n, 9);
        let b = a.matvec(&x_true).unwrap();
        let out = Universe::run(1, |comm| {
            let solver = RkspAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(0).unwrap();
            solver.set_local_rows(n).unwrap();
            solver.set_global_cols(n).unwrap();
            solver.set_matrix_free(Arc::new(Stencil { n }));
            solver.set_bool("matrix_free", true).unwrap();
            solver.set("solver", "cg").unwrap();
            solver.set("preconditioner", "none").unwrap();
            solver.set_double("tol", 1e-11).unwrap();
            solver.setup_rhs(&b, 1).unwrap();
            let mut x = vec![0.0; n];
            let mut status = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut status).unwrap();
            (x, SolveReport::from_slice(&status))
        });
        let (x, rep) = &out[0];
        assert!(rep.converged);
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-7);
        }
    }

    #[test]
    fn matrix_free_without_port_is_a_phase_error() {
        let out = Universe::run(1, |comm| {
            let solver = RkspAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(0).unwrap();
            solver.set_local_rows(2).unwrap();
            solver.set_global_cols(2).unwrap();
            solver.set_bool("matrix_free", true).unwrap();
            solver.setup_rhs(&[1.0, 1.0], 1).unwrap();
            let mut x = [0.0; 2];
            let mut s = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut s).unwrap_err()
        });
        assert!(matches!(&out[0], LisiError::BadPhase(_)));
    }

    #[test]
    fn get_all_names_the_package_and_parameters() {
        let solver = RkspAdapter::new();
        solver.set("solver", "gmres").unwrap();
        solver.set_int("maxits", 500).unwrap();
        let dump = solver.get_all();
        assert!(dump.contains("package=rksp"));
        assert!(dump.contains("solver=gmres"));
        assert!(dump.contains("maxits=500"));
    }

    #[test]
    fn unknown_solver_name_is_a_package_error_with_code() {
        let out = Universe::run(1, |comm| {
            let solver = RkspAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(0).unwrap();
            solver.set_local_rows(1).unwrap();
            solver.set_global_cols(1).unwrap();
            solver.set("solver", "quantum").unwrap();
            solver.setup_matrix_coo(&[1.0], &[0], &[0]).unwrap();
            solver.setup_rhs(&[1.0], 1).unwrap();
            let mut x = [0.0];
            let mut s = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut s).unwrap_err()
        });
        assert!(out[0].code() < 0);
        assert!(out[0].to_string().contains("quantum"));
    }
}
