//! The RSLU (SuperLU-like) direct-solver backend. Demonstrates the part
//! of LISI's design the paper worries most about (§5.1): auxiliary
//! objects — the symbolic analysis and the LU factors — that live
//! *between* calls and must be reused invisibly behind the common
//! interface.

use std::sync::Arc;

use parking_lot::Mutex;
use rcomm::Communicator;
use rdirect::{DistRslu, Ordering, RsluOptions};
use rsparse::{BlockRowPartition, CsrMatrix, DistCsrMatrix};

use super::pipeline::{Adapter, Backend};
use crate::error::{LisiError, LisiResult};
use crate::ledger::SolveInfo;
use crate::state::LisiState;
use crate::status::SolveReport;

/// The between-calls auxiliary object of paper §5.1, cached in the
/// process-wide [`crate::SolverService`]: the symbolic analysis + LU
/// factors survive not just repeated solves on one component instance
/// but any later instance presenting a fingerprint-identical system.
/// The solver sits behind a mutex because a solve writes the workspace
/// the factorization sized (permuted vector, panel scratch, residual) and
/// the statistics of the last solve.
pub struct RsluArtifact {
    partition: BlockRowPartition,
    solver: Mutex<DistRslu>,
}

/// The parsed option table.
pub struct RsluConfig {
    options: RsluOptions,
}

/// The RSLU sparse direct package beneath the LISI port.
#[derive(Default)]
pub struct Rslu;

/// LISI over the RSLU sparse direct package.
pub type RsluAdapter = Adapter<Rslu>;

impl Backend for Rslu {
    const NAME: &'static str = "rslu";
    const GATHERS_TO_ROOT: bool = true;
    type Config = RsluConfig;
    type Artifact = RsluArtifact;

    fn configure(&self, st: &LisiState) -> LisiResult<RsluConfig> {
        let mut opts = RsluOptions::default();
        if let Some(o) = st.options.get_first(&["ordering", "permc_spec"]) {
            opts.ordering =
                Ordering::parse(&o).ok_or_else(|| LisiError::bad_parameter("ordering", &*o))?;
        }
        let o = &st.options;
        let pivot = o.parse_first(&["pivot_tol", "diag_pivot_thresh"])?;
        opts.pivot_threshold = pivot.unwrap_or(opts.pivot_threshold);
        opts.refine = o.parse_first(&["refine"])?.unwrap_or(opts.refine);
        opts.equilibrate = o.parse_first(&["equil"])?.unwrap_or(opts.equilibrate);
        Ok(RsluConfig { options: opts })
    }

    /// Gather, analyze and factor — the §5.1 auxiliary objects are built
    /// exactly once per fingerprint and then live in the service.
    fn build(
        cfg: &RsluConfig,
        comm: &Communicator,
        partition: BlockRowPartition,
        matrix: &Arc<CsrMatrix>,
    ) -> LisiResult<RsluArtifact> {
        let dist = DistCsrMatrix::from_local_rows(comm, partition.clone(), Arc::clone(matrix))?;
        let mut solver = DistRslu::new(cfg.options.clone());
        solver.factorize(comm, &dist)?;
        Ok(RsluArtifact { partition, solver: Mutex::new(solver) })
    }

    /// What the root holds for the cohort — the factors, the gathered
    /// matrix and the solve workspace; the other ranks hold a partition.
    fn artifact_bytes(art: &RsluArtifact) -> Option<usize> {
        Some(art.solver.lock().root_solver().heap_bytes())
    }

    /// The factorization is shared across all columns either way (that
    /// is the point of a direct solver). The residual reported is the
    /// root's `‖b − A·x‖₂` of the solve's own last refinement residual,
    /// which arrives with each rank's slice of the solution.
    fn run(
        art: &RsluArtifact,
        _cfg: RsluConfig,
        comm: &Communicator,
        rhs: &[f64],
        x: &mut [f64],
        n_rhs: usize,
        _batched: bool,
    ) -> LisiResult<SolveInfo> {
        let rows = art.partition.local_rows(comm.rank());
        let mut solver = art.solver.lock();
        let mut residual: f64 = 0.0;
        for k in 0..n_rhs {
            let col = k * rows..(k + 1) * rows;
            solver.solve_local(comm, &art.partition, &rhs[col.clone()], &mut x[col])?;
            residual = residual.max(solver.root_solver().stats().residual_norm2);
        }
        // A direct solve reports zero iterations.
        let report = SolveReport { converged: true, residual, reason: 1, ..Default::default() };
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

    fn run_direct(p: usize, opts: &[(&str, &str)]) -> (SolveReport, f64) {
        let man = rmesh::manufactured::paper_manufactured(8);
        let n = man.exact.len();
        let a = man.matrix.clone();
        let b = man.rhs.clone();
        let out = Universe::run(p, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let range = part.range(comm.rank());
            let local = a.row_block(range.start, range.end).unwrap();
            let solver = RsluAdapter::new();
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
        (*rep, man.error_inf(full))
    }

    #[test]
    fn direct_solve_is_exact_serial_and_parallel() {
        for p in [1usize, 2, 4] {
            let (rep, err) = run_direct(p, &[]);
            assert!(rep.converged, "p = {p}");
            assert_eq!(rep.iterations, 0, "direct solvers report zero iterations");
            assert!(err < 1e-8, "p = {p}: err = {err}");
            assert!(rep.residual < 1e-8);
        }
    }

    #[test]
    fn orderings_are_selectable_through_generic_keys() {
        for ord in ["natural", "rcm", "mmd"] {
            let (rep, err) = run_direct(1, &[("ordering", ord)]);
            assert!(rep.converged, "{ord}");
            assert!(err < 1e-8, "{ord}");
        }
        // Unknown ordering is a parameter error.
        let man = rmesh::manufactured::paper_manufactured(4);
        let n = man.exact.len();
        let out = Universe::run(1, |comm| {
            let solver = RsluAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(0).unwrap();
            solver.set_local_rows(n).unwrap();
            solver.set_global_cols(n).unwrap();
            solver.set("ordering", "chaotic").unwrap();
            solver
                .setup_matrix(
                    man.matrix.values(),
                    man.matrix.row_ptr(),
                    man.matrix.col_idx(),
                    crate::SparseStruct::Csr,
                )
                .unwrap();
            solver.setup_rhs(&man.rhs, 1).unwrap();
            let mut x = vec![0.0; n];
            let mut s = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut s).unwrap_err()
        });
        assert!(matches!(&out[0], LisiError::BadParameter { .. }));
    }

    #[test]
    fn factors_are_reused_across_repeated_solves() {
        // Time is an unreliable witness; watch the session-cache probe
        // counters: an identical second solve must hit (factors reused,
        // no new FactorCalls), new matrix values must miss and refactor.
        let a = rsparse::generate::random_diag_dominant(30, 3, 5);
        let out = Universe::run(1, |comm| {
            let solver = RsluAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(0).unwrap();
            solver.set_local_rows(30).unwrap();
            solver.set_global_cols(30).unwrap();
            solver
                .setup_matrix(a.values(), a.row_ptr(), a.col_idx(), crate::SparseStruct::Csr)
                .unwrap();
            let x1 = rsparse::generate::random_vector(30, 1);
            let b1 = a.matvec(&x1).unwrap();
            solver.setup_rhs(&b1, 1).unwrap();
            let mut x = vec![0.0; 30];
            let mut s = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut s).unwrap();
            let hits0 = probe::get(probe::Counter::SessionCacheHits);
            let factors0 = probe::get(probe::Counter::FactorCalls);

            // New RHS, same matrix: warm session, no refactorization.
            let x2 = rsparse::generate::random_vector(30, 2);
            let b2 = a.matvec(&x2).unwrap();
            solver.setup_rhs(&b2, 1).unwrap();
            solver.solve(&mut x, &mut s).unwrap();
            let warm_hit = probe::get(probe::Counter::SessionCacheHits) - hits0;
            let warm_factors = probe::get(probe::Counter::FactorCalls) - factors0;

            // New matrix values: different fingerprint, refactorization.
            let scaled = rsparse::ops::scale(2.0, &a);
            solver
                .setup_matrix(
                    scaled.values(),
                    scaled.row_ptr(),
                    scaled.col_idx(),
                    crate::SparseStruct::Csr,
                )
                .unwrap();
            let b3 = scaled.matvec(&x1).unwrap();
            solver.setup_rhs(&b3, 1).unwrap();
            solver.solve(&mut x, &mut s).unwrap();
            let cold_factors = probe::get(probe::Counter::FactorCalls) - factors0;
            let err: f64 = x.iter().zip(&x1).map(|(g, e)| (g - e).abs()).fold(0.0, f64::max);
            (warm_hit, warm_factors, cold_factors, err)
        });
        let (warm_hit, warm_factors, cold_factors, err) = out[0];
        assert_eq!(warm_hit, 1, "identical second solve hits the session cache");
        assert_eq!(warm_factors, 0, "same matrix, same factorization");
        assert_eq!(cold_factors, 1, "new matrix values must refactor");
        assert!(err < 1e-9);
    }

    #[test]
    fn multi_rhs_direct_solve() {
        let a = rsparse::generate::random_diag_dominant(20, 3, 9);
        let x1 = rsparse::generate::random_vector(20, 3);
        let x2 = rsparse::generate::random_vector(20, 4);
        let mut b = a.matvec(&x1).unwrap();
        b.extend(a.matvec(&x2).unwrap());
        let out = Universe::run(2, |comm| {
            let part = BlockRowPartition::even(20, comm.size());
            let range = part.range(comm.rank());
            let local = a.row_block(range.start, range.end).unwrap();
            let solver = RsluAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(range.start).unwrap();
            solver.set_local_rows(range.len()).unwrap();
            solver.set_global_cols(20).unwrap();
            solver
                .setup_matrix(
                    local.values(),
                    local.row_ptr(),
                    local.col_idx(),
                    crate::SparseStruct::Csr,
                )
                .unwrap();
            // Column-major multi-RHS chunks.
            let mut local_b = b[range.clone()].to_vec();
            local_b.extend(&b[20 + range.start..20 + range.end]);
            solver.setup_rhs(&local_b, 2).unwrap();
            let mut x = vec![0.0; 2 * range.len()];
            let mut s = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut s).unwrap();
            let first = comm.allgatherv(&x[..range.len()]).unwrap();
            let second = comm.allgatherv(&x[range.len()..]).unwrap();
            (first, second)
        });
        let (f, s) = &out[0];
        for (g, e) in f.iter().zip(&x1) {
            assert!((g - e).abs() < 1e-9);
        }
        for (g, e) in s.iter().zip(&x2) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn matrix_free_is_unsupported() {
        let out = Universe::run(1, |comm| {
            let solver = RsluAdapter::new();
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
        assert!(matches!(&out[0], LisiError::Unsupported(_)));
    }
}
