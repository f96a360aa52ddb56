//! Quickstart: solve the paper's PDE through the LISI interface on four
//! SPMD ranks, print the status array, and verify the answer.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cca_lisi::comm::Universe;
use cca_lisi::lisi::{RkspAdapter, SolveReport, SparseSolverPort, SparseStruct, STATUS_LEN};
use cca_lisi::sparse::BlockRowPartition;

fn main() {
    // The paper's test problem: u_xx + u_yy − 3·u_x = f on the unit
    // square, f = (2 − 6x − x²)·sin(x), 5-point differences, 40×40 grid.
    let m = 40;
    let problem = cca_lisi::mesh::paper_problem(m);
    let n = problem.grid().unknowns();

    // A manufactured solution so we can check the answer exactly.
    let manufactured = cca_lisi::mesh::manufactured::paper_manufactured(m);

    let ranks = 4;
    println!(
        "solving {n} unknowns (nnz = {}) on {ranks} ranks through LISI/RKSP",
        5 * m * m - 4 * m
    );

    let results = Universe::run(ranks, |comm| {
        // Each rank assembles only its block rows — the paper's parallel
        // mesh generator.
        let part = BlockRowPartition::even(n, comm.size());
        let range = part.range(comm.rank());
        let local = manufactured.matrix.row_block(range.start, range.end).unwrap();
        let local_rhs = &manufactured.rhs[range.clone()];

        // Phase 1: initialize + describe the distribution.
        let solver = RkspAdapter::new();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(range.start).unwrap();
        solver.set_local_rows(range.len()).unwrap();
        solver.set_local_nnz(local.nnz()).unwrap();
        solver.set_global_cols(n).unwrap();

        // Phase 2: pass the system + generic parameters.
        solver.set("solver", "bicgstab").unwrap();
        solver.set("preconditioner", "ilu").unwrap();
        solver.set_double("tol", 1e-10).unwrap();
        solver.set_int("maxits", 5000).unwrap();
        solver
            .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
            .unwrap();
        solver.setup_rhs(local_rhs, 1).unwrap();

        // Phase 3: solve.
        let mut x = vec![0.0; range.len()];
        let mut status = [0.0; STATUS_LEN];
        solver.solve(&mut x, &mut status).unwrap();
        (SolveReport::from_slice(&status), comm.allgatherv(&x).unwrap())
    });

    let (report, solution) = &results[0];
    println!("converged      : {}", report.converged);
    println!("iterations     : {}", report.iterations);
    println!("final residual : {:.3e}", report.residual);
    println!("setup seconds  : {:.4}", report.setup_seconds);
    println!("solve seconds  : {:.4}", report.solve_seconds);
    println!("parameters set :\n{}", {
        let s = RkspAdapter::new();
        s.set("solver", "bicgstab").unwrap();
        s.get_all()
    });

    let err = manufactured.error_inf(solution);
    println!("max error vs manufactured solution: {err:.3e}");
    assert!(report.converged && err < 1e-6, "quickstart must solve accurately");
    println!("OK");
}
