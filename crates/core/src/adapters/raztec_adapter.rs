//! The RAztec (Trilinos/AztecOO-like) backend: LISI's generic keys are
//! translated to Aztec option enums, and matrix-free solves ride on
//! RAztec's own `RowMatrix` virtual-matrix trait.

use std::sync::Arc;

use raztec::{AzConv, AzPrecond, AzSolver, AzWhy, AztecOO, AztecOptions, CrsMatrix, Map};
use raztec::{RowMatrix, Vector};
use rcomm::Communicator;
use rsparse::{BlockRowPartition, CsrMatrix};

use super::pipeline::{Adapter, Backend};
use crate::error::{LisiError, LisiResult};
use crate::ledger::SolveInfo;
use crate::state::LisiState;
use crate::status::SolveReport;
use crate::traits::MatrixFreePort;
use crate::types::OperatorId;

/// What RAztec set-up produces and the session cache keeps: an imported
/// `CrsMatrix` (whose construction includes the off-rank column import
/// plan), or the matrix-free bridge. Either carries its row map.
pub type RaztecArtifact = Box<dyn RowMatrix + Send + Sync>;

/// The RAztec iterative package beneath the LISI port.
#[derive(Default)]
pub struct Raztec;

/// LISI over the RAztec iterative package.
pub type RaztecAdapter = Adapter<Raztec>;

/// A `RowMatrix` that forwards multiplications to the application's
/// `MatrixFree` port — RAztec's native matrix-free mechanism (the
/// `Epetra_RowMatrix` route the paper cites in §5.5).
struct MfRowMatrix {
    map: Map,
    port: Arc<dyn MatrixFreePort>,
}

impl RowMatrix for MfRowMatrix {
    fn row_map(&self) -> &Map {
        &self.map
    }

    fn apply(&self, _comm: &Communicator, x: &Vector, y: &mut Vector) -> raztec::AztecResult<()> {
        self.port
            .mat_mult(OperatorId::Matrix, x.values(), y.values_mut())
            .map_err(|e| raztec::AztecError::Sparse(e.to_string()))
    }
}

impl RaztecAdapter {
    fn aztec_options(state: &LisiState) -> LisiResult<AztecOptions> {
        let mut opts = AztecOptions::default();
        if let Some(s) = state.options.get_first(&["solver", "az_solver"]) {
            opts.solver = AzSolver::parse(&s).map_err(LisiError::from)?;
        }
        if let Some(p) = state.options.get_first(&["preconditioner", "az_precond"]) {
            opts.precond = AzPrecond::parse(&p).map_err(LisiError::from)?;
        }
        let o = &state.options;
        if let AzPrecond::Neumann { order } = &mut opts.precond {
            *order = o.parse_first(&["poly_ord"])?.unwrap_or(*order);
        }
        opts.tol = o.parse_first(&["tol", "az_tol"])?.unwrap_or(opts.tol);
        opts.max_iter = o.parse_first(&["maxits", "az_max_iter"])?.unwrap_or(opts.max_iter);
        opts.kspace = o.parse_first(&["restart", "az_kspace"])?.unwrap_or(opts.kspace);
        let window_keys = ["stagnation_window", "az_stagnation_window"];
        opts.stall_window = o.parse_first(&window_keys)?.unwrap_or(opts.stall_window);
        if let Some(c) = state.options.get("conv") {
            opts.conv = match c.as_str() {
                "r0" => AzConv::R0,
                "rhs" => AzConv::Rhs,
                other => return Err(LisiError::bad_parameter("conv", other)),
            };
        }
        Ok(opts)
    }
}

impl Backend for Raztec {
    const NAME: &'static str = "raztec";
    type Config = AztecOptions;
    type Artifact = RaztecArtifact;

    fn configure(&self, st: &LisiState) -> LisiResult<AztecOptions> {
        RaztecAdapter::aztec_options(st)
    }

    fn labels(options: &rkrylov::Options) -> (Option<String>, Option<String>, Option<f64>) {
        let ksp = options.get_first(&["solver", "az_solver"]);
        let pc = options.get_first(&["preconditioner", "az_precond"]);
        (ksp, pc, options.get_first(&["tol", "az_tol"]).and_then(|v| v.parse().ok()))
    }

    fn build(
        _opts: &AztecOptions,
        comm: &Communicator,
        partition: BlockRowPartition,
        matrix: &Arc<CsrMatrix>,
    ) -> LisiResult<RaztecArtifact> {
        let map = Map::from_partition(partition, comm.rank());
        Ok(Box::new(CrsMatrix::from_local_rows(comm, map, Arc::clone(matrix))?))
    }

    fn build_matrix_free(
        _opts: &AztecOptions,
        comm: &Communicator,
        partition: BlockRowPartition,
        port: LisiResult<Arc<dyn MatrixFreePort>>,
    ) -> LisiResult<RaztecArtifact> {
        Ok(Box::new(MfRowMatrix { map: Map::from_partition(partition, comm.rank()), port: port? }))
    }

    /// RAztec's drivers are column-at-a-time; what a batch amortizes is
    /// the cached set-up.
    fn run(
        art: &RaztecArtifact,
        opts: AztecOptions,
        comm: &Communicator,
        rhs: &[f64],
        x: &mut [f64],
        n_rhs: usize,
        _batched: bool,
    ) -> LisiResult<SolveInfo> {
        let map = art.row_map();
        let rows = map.num_my();
        let mut az = AztecOO::new(art.as_ref());
        az.set_options(opts);
        let mut report = SolveReport { converged: true, ..Default::default() };
        for k in 0..n_rhs {
            let col = k * rows..(k + 1) * rows;
            let b = Vector::from_values(map.clone(), rhs[col.clone()].to_vec())?;
            let mut xk = Vector::from_values(map.clone(), x[col.clone()].to_vec())?;
            let stat = az.iterate(comm, &b, &mut xk)?;
            x[col].copy_from_slice(xk.values());
            // The first column that failed names the reason.
            if report.converged {
                report.reason = match stat.why {
                    AzWhy::Normal => 1,
                    AzWhy::Maxits => -1,
                    AzWhy::Breakdown => -2,
                    AzWhy::Ill => -3,
                    AzWhy::Stagnated => -4,
                };
            }
            report.converged &= stat.why.converged();
            report.iterations = report.iterations.max(stat.its);
            report.residual = report.residual.max(stat.true_residual);
        }
        Ok(SolveInfo { report, ..Default::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::{SolveReport, STATUS_LEN};
    use crate::SparseSolverPort;
    use rcomm::Universe;
    use rsparse::BlockRowPartition;

    #[test]
    fn solves_the_paper_problem_in_parallel() {
        let man = rmesh::manufactured::paper_manufactured(9);
        let n = man.exact.len();
        for p in [1usize, 3] {
            let a = man.matrix.clone();
            let b = man.rhs.clone();
            let out = Universe::run(p, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let range = part.range(comm.rank());
                let local = a.row_block(range.start, range.end).unwrap();
                let solver = RaztecAdapter::new();
                solver.initialize(comm.dup().unwrap()).unwrap();
                solver.set_start_row(range.start).unwrap();
                solver.set_local_rows(range.len()).unwrap();
                solver.set_global_cols(n).unwrap();
                solver.set("solver", "gmres").unwrap();
                solver.set("preconditioner", "jacobi").unwrap();
                solver.set_double("tol", 1e-10).unwrap();
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
            assert!(rep.converged, "p = {p}");
            assert!(man.error_inf(full) < 1e-6, "p = {p}");
        }
    }

    #[test]
    fn aztec_specific_keys_are_honoured() {
        let st = LisiState {
            options: {
                let mut o = rkrylov::Options::new();
                o.set("solver", "bicgstab");
                o.set("preconditioner", "neumann");
                o.set_int("poly_ord", 5);
                o.set("conv", "rhs");
                o.set_int("restart", 17);
                o
            },
            ..LisiState::default()
        };
        let opts = RaztecAdapter::aztec_options(&st).unwrap();
        assert_eq!(opts.solver, AzSolver::BiCgStab);
        assert_eq!(opts.precond, AzPrecond::Neumann { order: 5 });
        assert_eq!(opts.conv, AzConv::Rhs);
        assert_eq!(opts.kspace, 17);
    }

    #[test]
    fn bad_parameter_values_are_reported() {
        let st = LisiState {
            options: {
                let mut o = rkrylov::Options::new();
                o.set("tol", "very-small-please");
                o
            },
            ..LisiState::default()
        };
        assert!(matches!(RaztecAdapter::aztec_options(&st), Err(LisiError::BadParameter { .. })));
        let st2 = LisiState {
            options: {
                let mut o = rkrylov::Options::new();
                o.set("conv", "vibes");
                o
            },
            ..LisiState::default()
        };
        assert!(RaztecAdapter::aztec_options(&st2).is_err());
    }

    #[test]
    fn matrix_free_uses_the_rowmatrix_route() {
        struct Identity {
            n: usize,
        }
        impl MatrixFreePort for Identity {
            fn mat_mult(&self, _id: OperatorId, x: &[f64], y: &mut [f64]) -> LisiResult<()> {
                assert_eq!(x.len(), self.n);
                y.copy_from_slice(x);
                Ok(())
            }
        }
        let n = 8;
        let out = Universe::run(1, |comm| {
            let solver = RaztecAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(0).unwrap();
            solver.set_local_rows(n).unwrap();
            solver.set_global_cols(n).unwrap();
            solver.set_matrix_free(Arc::new(Identity { n }));
            solver.set_bool("matrix_free", true).unwrap();
            solver.set("solver", "cg").unwrap();
            solver.set("preconditioner", "none").unwrap();
            let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
            solver.setup_rhs(&b, 1).unwrap();
            let mut x = vec![0.0; n];
            let mut status = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut status).unwrap();
            x
        });
        // Identity system: x = b.
        assert_eq!(out[0], (0..n).map(|i| i as f64).collect::<Vec<_>>());
    }
}
