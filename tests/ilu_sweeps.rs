//! The level-ordered triangular sweeps under the default `cargo test`:
//! CG + ILU(0) and GMRES + ILUT through the port must converge to the same
//! verdict on every rank, and — the sweeps being bit-identical to the
//! natural-order loops they replaced — in exactly the iterations, and to
//! exactly the residual, those loops produced.

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{RkspAdapter, SolveReport, SparseSolverPort, SparseStruct, STATUS_LEN};
use cca_lisi::sparse::{generate, BlockRowPartition, CsrMatrix};

const M: usize = 40;

/// (ranks, iterations, bits of the reported residual) of CG + ILU(0) on
/// the m = 40 Laplacian, recorded with the natural-order sweeps.
const CG_ILU0: [(usize, usize, u64); 3] = [
    (1, 45, 0x3e3aeb3e90cb44bb),
    (2, 53, 0x3e4484684bb7812e),
    (3, 55, 0x3e45a3abe43e78be),
];

/// The same for GMRES + ILUT(1e-3, 10) on the paper's PDE at m = 40.
const GMRES_ILUT: [(usize, usize, u64); 3] = [
    (1, 13, 0x3e29c8fa78b5fc1c),
    (2, 31, 0x3e3786881f16e4f9),
    (3, 44, 0x3e3c239a01ab23d0),
];

/// Solve `a·x = b` through the port on `p` ranks; every rank's report and
/// its slice of the solution.
fn solve(
    p: usize,
    a: &CsrMatrix,
    b: &[f64],
    params: &[(&str, &str)],
) -> Vec<(SolveReport, Vec<f64>)> {
    let n = a.rows();
    Universe::run(p, |comm| {
        let range = BlockRowPartition::even(n, comm.size()).range(comm.rank());
        let local = a.row_block(range.start, range.end).unwrap();
        let solver = RkspAdapter::new();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(range.start).unwrap();
        solver.set_local_rows(range.len()).unwrap();
        solver.set_global_cols(n).unwrap();
        for (k, v) in params {
            solver.set(k, v).unwrap();
        }
        solver
            .setup_matrix(
                local.values(),
                local.row_ptr(),
                local.col_idx(),
                SparseStruct::Csr,
            )
            .unwrap();
        solver.setup_rhs(&b[range.clone()], 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut status = [0.0; STATUS_LEN];
        solver.solve(&mut x, &mut status).unwrap();
        (SolveReport::from_slice(&status), x)
    })
}

/// Converged, to a true relative residual ≤ 1e-8, with one verdict on
/// every rank and the recorded iteration count and residual.
fn assert_retraces(
    label: &str,
    a: &CsrMatrix,
    params: &[(&str, &str)],
    recorded: &[(usize, usize, u64)],
) {
    let b = a.matvec(&generate::random_vector(a.rows(), 23)).unwrap();
    for &(p, iterations, residual_bits) in recorded {
        let out = solve(p, a, &b, params);
        let x: Vec<f64> = out.iter().flat_map(|(_, x)| x.iter().copied()).collect();
        let r = cca_lisi::sparse::ops::residual(a, &x, &b).unwrap();
        let rel = cca_lisi::sparse::dense::norm2(&r) / cca_lisi::sparse::dense::norm2(&b);
        assert!(
            rel <= 1e-8,
            "{label} p = {p}: true relative residual {rel:e}"
        );
        for (rep, _) in &out {
            assert!(rep.converged, "{label} p = {p}");
            assert_eq!(
                rep.reason, out[0].0.reason,
                "{label} p = {p}: ranks disagree"
            );
            assert_eq!(
                (rep.iterations, rep.residual.to_bits()),
                (iterations, residual_bits),
                "{label} p = {p}: {} iterations, residual {:e} = {:#018x}",
                rep.iterations,
                rep.residual,
                rep.residual.to_bits()
            );
        }
    }
}

#[test]
fn cg_ilu0_through_the_port_retraces_the_natural_order_sweeps() {
    let params = [
        ("solver", "cg"),
        ("preconditioner", "ilu"),
        ("tol", "1e-10"),
    ];
    assert_retraces("cg + ilu(0)", &generate::laplacian_2d(M), &params, &CG_ILU0);
}

#[test]
fn gmres_ilut_through_the_port_retraces_the_natural_order_sweeps() {
    let (paper, _) = cca_lisi::mesh::paper_problem(M).assemble_global();
    let params = [
        ("solver", "gmres"),
        ("preconditioner", "ilut"),
        ("droptol", "1e-3"),
        ("fill", "10"),
        ("tol", "1e-10"),
    ];
    assert_retraces("gmres + ilut", &paper, &params, &GMRES_ILUT);
}
