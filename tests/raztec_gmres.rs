//! RAztec's GMRES under the default `cargo test`: GMRES + Jacobi and
//! GMRES + sym-GS through the port must converge to one verdict on every
//! rank and — the fused Gram–Schmidt passes and the copy-free `RowMatrix`
//! product being bit-identical to the loop they replaced — in exactly the
//! iterations that loop took.

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{RaztecAdapter, SolveReport, SparseSolverPort, SparseStruct, STATUS_LEN};
use cca_lisi::sparse::{generate, BlockRowPartition, CsrMatrix};

const M: usize = 40;

/// (ranks, iterations, bits of the reported residual) of GMRES(30) +
/// Jacobi on the paper's PDE at m = 40, recorded with the two-pass
/// Gram–Schmidt loop. Jacobi does not see the partition, so neither does
/// the count.
const GMRES_JACOBI: [(usize, usize, u64); 3] =
    [(1, 176, 0x3e63b694edc7e864), (2, 176, 0x3e63b694e654ab2f), (3, 176, 0x3e63b694e5c3f3f6)];

/// The same for GMRES(30) + local symmetric Gauss–Seidel, which does.
const GMRES_SYM_GS: [(usize, usize, u64); 3] =
    [(1, 59, 0x3e53e634dc7b63fe), (2, 73, 0x3e4fb90f74ba5dd6), (3, 81, 0x3e506bfd297b93c9)];

/// Solve `a·x = b` through the port on `p` ranks; every rank's status
/// array and its slice of the solution.
fn solve(
    p: usize,
    a: &CsrMatrix,
    b: &[f64],
    preconditioner: &str,
) -> Vec<([f64; STATUS_LEN], Vec<f64>)> {
    let n = a.rows();
    Universe::run(p, |comm| {
        let range = BlockRowPartition::even(n, comm.size()).range(comm.rank());
        let local = a.row_block(range.start, range.end).unwrap();
        let solver = RaztecAdapter::new();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(range.start).unwrap();
        solver.set_local_rows(range.len()).unwrap();
        solver.set_global_cols(n).unwrap();
        for (k, v) in [
            ("solver", "gmres"),
            ("preconditioner", preconditioner),
            ("tol", "1e-10"),
            ("conv", "rhs"),
        ] {
            solver.set(k, v).unwrap();
        }
        solver
            .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
            .unwrap();
        solver.setup_rhs(&b[range.clone()], 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut status = [0.0; STATUS_LEN];
        solver.solve(&mut x, &mut status).unwrap();
        (status, x)
    })
}

/// Converged, to a true relative residual ≤ 1e-8, with one status array
/// on every rank and the recorded iteration count and residual.
fn assert_retraces(preconditioner: &str, recorded: &[(usize, usize, u64)]) {
    let (a, _) = cca_lisi::mesh::paper_problem(M).assemble_global();
    let b = a.matvec(&generate::random_vector(a.rows(), 23)).unwrap();
    for &(p, iterations, residual_bits) in recorded {
        let out = solve(p, &a, &b, preconditioner);
        let x: Vec<f64> = out.iter().flat_map(|(_, x)| x.iter().copied()).collect();
        let r = cca_lisi::sparse::ops::residual(&a, &x, &b).unwrap();
        let rel = cca_lisi::sparse::dense::norm2(&r) / cca_lisi::sparse::dense::norm2(&b);
        assert!(rel <= 1e-8, "{preconditioner} p = {p}: true relative residual {rel:e}");
        for (status, _) in &out {
            let rep = SolveReport::from_slice(status);
            assert!(rep.converged, "{preconditioner} p = {p}");
            // Timings are each rank's own; everything else must agree.
            let other = SolveReport::from_slice(&out[0].0);
            assert_eq!(
                (rep.reason, rep.attempts, rep.recovery, rep.cohort),
                (other.reason, other.attempts, other.recovery, other.cohort),
                "{preconditioner} p = {p}: ranks disagree"
            );
            assert_eq!(
                (rep.iterations, rep.residual.to_bits()),
                (iterations, residual_bits),
                "{preconditioner} p = {p}: {} iterations, residual {:e} = {:#018x}",
                rep.iterations,
                rep.residual,
                rep.residual.to_bits()
            );
        }
    }
}

#[test]
fn gmres_jacobi_through_the_port_retraces_the_two_pass_loop() {
    assert_retraces("jacobi", &GMRES_JACOBI);
}

#[test]
fn gmres_sym_gs_through_the_port_retraces_the_two_pass_loop() {
    assert_retraces("sym_gs", &GMRES_SYM_GS);
}
